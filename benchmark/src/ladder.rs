//! The traced run: a ladder of replays, one per layer boundary.
//!
//! Spans may not go inside the program in this change, so the first
//! requests of the workload's stream are replayed **one at a time at
//! each level** — wire round trip, cluster call, per-hit serve calls,
//! core calls, and the parts of a core call — each level that goes
//! through the summary cache against a freshly built stack, so request
//! `i` meets the same cache state at every level (the core levels call
//! the engine directly, past that cache, and share the serve level's
//! stack). Each call is a span whose parent is the same request's
//! span one level up; a layer's self time is its span minus the level
//! below (`trace::self_times`).
//!
//! Each level repeats what the level above does inside, by hand: the
//! I/O thread tries `try_batch_query_cached` and falls back to
//! `batch_query_at`; those probe, or queue, one summary per hit on its
//! owner shard; a miss runs `SizeLEngine::summarize`, which is OS
//! generation, a size-l algorithm and a projection.

use std::time::Instant;

use sizel_core::algo::{AlgoKind, AlgoScratch};
use sizel_core::engine::QueryOptions;
use sizel_core::os::OsArenaPool;
use sizel_core::osgen::generate_os_pooled;
use sizel_core::prelim::generate_prelim_pooled;
use sizel_net::wire::{decode_request, encode_results_into};
use sizel_net::Opcode;
use sizel_storage::TupleRef;

use crate::hist::median;
use crate::stack::{Stack, StackSpec};
use crate::stream::ReadStream;
use crate::sys;
use crate::trace::{durations_of, other_share, self_times, Recorder, SpanId};

/// Cached keys timed for the two serve hit paths after the serve level.
const HIT_SAMPLES: usize = 512;
/// Pings timed for `net.ping_rtt_us`.
const PINGS: usize = 200;

/// One summary the serve level had to compute: which request, for
/// which key, and the span that covered it.
struct Computed {
    req: u32,
    tds: TupleRef,
    opts: QueryOptions,
    span: SpanId,
}

/// The ladder's spans and the per-layer values derived from them.
pub struct Ladder {
    /// Every span of every level.
    pub recorder: Recorder,
    /// `(metric name, value)`.
    pub values: Vec<(&'static str, f64)>,
}

fn med_us(ns: &[f64]) -> f64 {
    median(ns).unwrap_or(0.0) / 1e3
}

fn algo_span(algo: AlgoKind) -> &'static str {
    match algo {
        AlgoKind::TopPath | AlgoKind::TopPathOpt => "core.algo.top_path",
        AlgoKind::BottomUp => "core.algo.bottom_up",
        AlgoKind::Optimal | AlgoKind::OptimalNaive => "core.algo.optimal",
    }
}

/// Replays the first `n` requests of `stream` at every level.
pub fn run(spec: &StackSpec, stream: &ReadStream, n: usize) -> Ladder {
    let no_wire = StackSpec { wire: false, ..spec.clone() };
    let mut rec = Recorder::new();
    let mut values: Vec<(&'static str, f64)> = Vec::new();

    // The top call of the workload, untraced: what a depth-1 caller
    // sees with no recorder in the loop.
    let untraced_ns: Vec<f64> = {
        let mut stack = Stack::build(spec);
        (0..n)
            .map(|i| {
                let t0 = Instant::now();
                top_call(&mut stack, stream, stream.at(i));
                t0.elapsed().as_nanos() as f64
            })
            .collect()
    };

    // Level 0, wire workloads: the round trip.
    let mut top: Vec<Option<SpanId>> = vec![None; n];
    if spec.wire {
        let mut stack = Stack::build(spec);
        for (i, slot) in top.iter_mut().enumerate() {
            let q = stream.at(i);
            let (id, ()) = rec.time("net.call", i as u32, None, || top_call(&mut stack, stream, q));
            *slot = Some(id);
        }
        let client = stack.client.as_mut().expect("a wire stack");
        let pings: Vec<f64> = (0..PINGS)
            .map(|_| {
                let t0 = Instant::now();
                client.ping().expect("ping");
                t0.elapsed().as_nanos() as f64
            })
            .collect();
        values.push(("net.ping_rtt_us", med_us(&pings)));
    } else {
        values.push(("net.ping_rtt_us", 0.0));
    }

    // Level 1: the cluster call the wire path makes — and, beside it,
    // the two codec calls the wire path wraps around it.
    let mut cluster: Vec<SpanId> = Vec::with_capacity(n);
    {
        let stack = Stack::build(&no_wire);
        let (mut decode_ns, mut encode_ns) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut frame = Vec::new();
        for (i, &parent) in top.iter().enumerate() {
            let q = stream.at(i);
            let batch = &stream.queries[q];
            let start = rec.now();
            // The I/O thread tries the cache first; a library caller
            // goes straight to the blocking call.
            let cached = if spec.wire { stack.router.try_batch_query_cached(batch) } else { None };
            let name = if cached.is_some() { "cluster.cached" } else { "cluster.query" };
            let (epoch, results) =
                cached.unwrap_or_else(|| stack.router.batch_query_at(batch).expect("query"));
            let end = rec.now();
            cluster.push(rec.push(name, i as u32, parent, start, end));

            let t0 = Instant::now();
            std::hint::black_box(
                decode_request(Opcode::Query, &stream.payloads[q]).expect("decodes"),
            );
            decode_ns.push(t0.elapsed().as_nanos() as f64);
            frame.clear();
            let t0 = Instant::now();
            encode_results_into(&mut frame, epoch, &results);
            encode_ns.push(t0.elapsed().as_nanos() as f64);
            std::hint::black_box(&frame);
        }
        values.push(("net.decode_us", med_us(&decode_ns)));
        values.push(("net.encode_us", med_us(&encode_ns)));
    }

    // Level 2: per hit on its owner shard — probe, or queue.
    let mut computed: Vec<Computed> = Vec::new();
    let mut ds_hits_calls: Vec<u8> = Vec::with_capacity(n);
    let mut summarize_spans: Vec<SpanId> = Vec::new();
    let (mut allocs, mut input_os_nodes) = (0u64, 0u64);
    {
        let stack = Stack::build(&no_wire);
        let router = &stack.router;
        let mut seen: Vec<(TupleRef, QueryOptions)> = Vec::new();
        for (i, &parent) in cluster.iter().enumerate() {
            let (kw, opts) = &stream.queries[stream.at(i)][0];
            let hits = router.shard(0).engine().ds_hits(kw);
            // try_batch_query_cached (wire only): probe in rank order,
            // stop at the first miss.
            let mut all_cached = spec.wire;
            for &tds in hits.iter().filter(|_| spec.wire) {
                let shard = router.shard(router.shard_of(tds));
                let (_, hit) = rec.time("serve.probe", i as u32, Some(parent), || {
                    shard.try_summarize_cached(tds, *opts)
                });
                if hit.is_none() {
                    all_cached = false;
                    break;
                }
            }
            // One keyword lookup per cluster call made.
            ds_hits_calls.push(if spec.wire && !all_cached { 2 } else { 1 });
            if !all_cached {
                // batch_query_at: every hit goes through its owner's queue.
                for &tds in &hits {
                    let shard = router.shard(router.shard_of(tds));
                    let before = shard.stats().summaries_computed;
                    let start = rec.now();
                    std::hint::black_box(shard.summarize(tds, *opts));
                    let end = rec.now();
                    if shard.stats().summaries_computed > before {
                        let span =
                            rec.push("serve.summarize_miss", i as u32, Some(parent), start, end);
                        computed.push(Computed { req: i as u32, tds, opts: *opts, span });
                    } else {
                        rec.push("serve.summarize_hit", i as u32, Some(parent), start, end);
                    }
                }
            }
            seen.extend(hits.iter().map(|&tds| (tds, *opts)));
        }
        // The two hit paths on keys the replay left cached: the probe
        // the wire fast path uses, and the queue hop a library caller pays.
        let (mut probe_ns, mut hop_ns) = (Vec::new(), Vec::new());
        for &(tds, opts) in seen.iter().rev().take(HIT_SAMPLES) {
            let shard = router.shard(router.shard_of(tds));
            let t0 = Instant::now();
            let hit = shard.try_summarize_cached(tds, opts);
            let probe = t0.elapsed().as_nanos() as f64;
            if hit.is_none() {
                continue; // evicted since
            }
            probe_ns.push(probe);
            let t0 = Instant::now();
            std::hint::black_box(shard.summarize(tds, opts));
            hop_ns.push(t0.elapsed().as_nanos() as f64);
        }
        values.push(("serve.probe_hit_us", med_us(&probe_ns)));
        values.push(("serve.summarize_hit_us", med_us(&hop_ns)));

        // Level 3, on the same stack (the engine calls below go past
        // the serve cache, the only state level 2 changed): the core
        // calls — keyword lookup per cluster call, and one summarize
        // per summary the serve level computed.
        let mut pending = computed.iter().peekable();
        for (i, &parent) in cluster.iter().enumerate() {
            let (kw, _) = &stream.queries[stream.at(i)][0];
            for _ in 0..ds_hits_calls[i] {
                let engine = router.shard(0).engine();
                rec.time("core.ds_hits", i as u32, Some(parent), || {
                    std::hint::black_box(engine.ds_hits(kw));
                });
            }
            while let Some(c) = pending.next_if(|c| c.req == i as u32) {
                let engine = router.shard(router.shard_of(c.tds)).engine();
                let start = rec.now();
                let (n_allocs, result) = sys::count_allocs(|| engine.summarize(c.tds, c.opts));
                let end = rec.now();
                summarize_spans.push(rec.push("core.summarize", c.req, Some(c.span), start, end));
                allocs += n_allocs;
                input_os_nodes += result.input_os_size as u64;
            }
        }

        // Level 4: the parts of a summarize, with the benchmark's own
        // pool and scratch standing in for the engine's thread-local ones.
        let (mut pool, mut scratch) = (OsArenaPool::new(), AlgoScratch::new());
        for (c, &parent) in computed.iter().zip(&summarize_spans) {
            let engine = router.shard(router.shard_of(c.tds)).engine();
            let ctx = engine.context(c.tds.table);
            let (QueryOptions { l, source, .. }, parent) = (c.opts, Some(parent));
            let (_, input) = if c.opts.prelim && l > 0 {
                rec.time("core.osgen_prelim", c.req, parent, || {
                    generate_prelim_pooled(&ctx, c.tds, l, source, &mut pool).0
                })
            } else {
                let cutoff = (l > 0).then(|| l as u32 - 1);
                rec.time("core.osgen_complete", c.req, parent, || {
                    generate_os_pooled(&ctx, c.tds, cutoff, source, &mut pool)
                })
            };
            let (_, result) = rec.time(algo_span(c.opts.algo), c.req, parent, || {
                c.opts.algo.compute_pooled(&input, l, &mut scratch)
            });
            rec.time("core.project", c.req, parent, || {
                std::hint::black_box(input.project(&result.selected));
            });
            pool.release(input);
        }
    }

    let spans = rec.spans();
    let selfs = self_times(spans);
    let self_us = |names: &[&str]| {
        let ns: Vec<f64> = names
            .iter()
            .flat_map(|n| selfs.by_name.get(n).into_iter().flatten())
            .map(|&v| v as f64)
            .collect();
        med_us(&ns)
    };
    let dur_us = |name: &str| med_us(&durations_of(spans, name));
    let per_summarize = |total: u64| total as f64 / computed.len().max(1) as f64;
    let traced_top_ns: Vec<f64> = if spec.wire {
        durations_of(spans, "net.call")
    } else {
        spans
            .iter()
            .filter(|s| s.name.starts_with("cluster."))
            .map(|s| s.duration_ns() as f64)
            .collect()
    };
    let (traced, untraced) = (median(&traced_top_ns), median(&untraced_ns));
    values.extend([
        ("net.self_us", self_us(&["net.call"])),
        ("cluster.self_us", self_us(&["cluster.cached", "cluster.query"])),
        ("serve.miss_self_us", self_us(&["serve.summarize_miss"])),
        ("core.ds_hits_us", dur_us("core.ds_hits")),
        ("core.summarize_us", dur_us("core.summarize")),
        ("core.osgen_prelim_us", dur_us("core.osgen_prelim")),
        ("core.osgen_complete_us", dur_us("core.osgen_complete")),
        ("core.algo_us.top_path", dur_us("core.algo.top_path")),
        ("core.algo_us.bottom_up", dur_us("core.algo.bottom_up")),
        ("core.algo_us.optimal", dur_us("core.algo.optimal")),
        ("core.project_us", dur_us("core.project")),
        ("core.other_share", other_share(spans, &selfs, "core.summarize").unwrap_or(0.0)),
        ("core.input_os_size", per_summarize(input_os_nodes)),
        ("core.allocs_per_summarize", per_summarize(allocs)),
        (
            "trace.overhead_share",
            match (traced, untraced) {
                (Some(t), Some(u)) if u > 0.0 => (t - u) / u,
                _ => 0.0,
            },
        ),
        ("trace.negative_residuals", selfs.negative_residuals as f64),
    ]);
    Ladder { recorder: rec, values }
}

/// The workload's top-level call for query `q`: a wire round trip, or
/// for `embed_hot` the in-process call.
fn top_call(stack: &mut Stack, stream: &ReadStream, q: usize) {
    match stack.client.as_mut() {
        Some(client) => {
            let id = client.send(Opcode::Query, &stream.payloads[q]).expect("send");
            let (op, payload) = client.recv_for(id).expect("reply");
            assert_eq!(op, Opcode::Results, "the ladder's requests must succeed");
            std::hint::black_box(payload);
        }
        None => {
            std::hint::black_box(stack.router.batch_query_at(&stream.queries[q]).expect("query"));
        }
    }
}
