//! One run of one workload: set-up, streams, warm-up and window,
//! oracles, and — under `--trace 1` — the ladder and the direct rows.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sizel_datagen::dblp::DblpConfig;
use sizel_net::Opcode;

use crate::counters::{ratio, Counters};
use crate::hist::{median, slice_median, Histogram};
use crate::load::{self, Plan, WindowResult, WriterResult};
use crate::metrics::{collect, Sample, END_TO_END, PER_LAYER, UNGATED};
use crate::oracle::{self, Verdict};
use crate::stack::{build_engine, build_repeated, connect, scratch_root, Stack};
use crate::stream::{vocabulary, MutationStream, ReadStream};
use crate::workload::Workload;
use crate::{direct, ladder};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Batches `cluster.apply_batch_us` measures (traced run only).
const CLUSTER_APPLY_BATCHES: usize = 16;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Drives the hot-set choice, the request order and the mutation
    /// targets.
    pub seed: u64,
    /// Warm-up, window and slicing; `Plan::for_seconds` outside tests.
    pub plan: Plan,
    /// Whether to report the per-layer metrics (and write the trace)
    /// instead of the end-to-end ones.
    pub trace: bool,
    /// The database; `DblpConfig::bench()` outside tests.
    pub db: DblpConfig,
    /// Requests each level of the ladder replays.
    pub ladder_requests: usize,
}

/// What a run found.
pub struct RunOutput {
    /// Whether every oracle held and no op failed.
    pub correct: bool,
    /// Ops attempted inside the window (reads, and `mixed_rw`'s writes).
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// The gated end-to-end metrics, or under `--trace 1` the
    /// per-layer ones.
    pub metrics: Vec<Sample>,
    /// An untraced run's user-visible figures that have no bound (under
    /// `--trace 1` they head `metrics`): printed, not in the result line.
    pub ungated: Vec<Sample>,
    /// Diagnostics: printed, never gated.
    pub notes: Vec<String>,
}

/// What `mixed_rw`'s writer did inside the window; empty on the
/// workloads that do not write.
#[derive(Default)]
struct Writes {
    latencies_us: Vec<f64>,
    late: u64,
    failed: u64,
}

/// Runs `cfg` to completion.
pub fn run(cfg: &RunConfig) -> Result<RunOutput, String> {
    let w = cfg.workload;
    let spec = w.spec(cfg.db.clone());
    let plan = cfg.plan;
    let mut notes = Vec::new();
    let mut verdict = Verdict::default();

    let (mut stack, setup_secs) = build_repeated(&spec, if cfg.trace { 1 } else { SETUPS });
    notes.push(format!("set-up times {setup_secs:.3?} s, the last instance is measured"));

    // Inputs, all made before the window.
    let (stream, mut mutations) = {
        let engine = stack.router.shard(0).engine();
        let vocab = vocabulary(engine.db());
        let stream = if w.hot() {
            ReadStream::hot(&engine, &vocab, w.source(), cfg.seed)
        } else {
            ReadStream::cold(&vocab, w.source(), cfg.seed)
        };
        notes.push(format!(
            "vocabulary {} tokens; {} requests in the stream, {} distinct",
            vocab.len(),
            stream.order.len(),
            stream.payloads.iter().collect::<std::collections::BTreeSet<_>>().len()
        ));
        (stream, MutationStream::new(engine.db(), cfg.seed))
    };

    // What a correct reply to each hot query looks like (static data
    // only: under writes a reply may legitimately grow).
    let expect: Option<Vec<usize>> = match (w.hot(), w.writes_in_window(), stack.client.as_mut()) {
        (true, false, Some(client)) => Some(
            stream
                .payloads
                .iter()
                .map(|p| {
                    let id = client.send(Opcode::Query, p).expect("send");
                    client.recv_for(id).expect("reply").1.len()
                })
                .collect(),
        ),
        (true, _, None) => Some(
            stream
                .queries
                .iter()
                .map(|q| stack.router.batch_query_at(q).expect("query").1[0].len())
                .collect(),
        ),
        _ => None,
    };
    if let Some(e) = &expect {
        notes.push(format!(
            "hot set: {} in all (reply bytes over the wire, summaries in process)",
            e.iter().sum::<usize>()
        ));
    }

    // Warm-up and the timed window.
    let Loaded { window, writes, mut acknowledged, mut last_applied } =
        load_phase(w, &mut stack, &stream, expect.as_deref(), plan, &mut mutations);

    // Oracles. The reference engine is built after the window, so it
    // is not in `peak_rss_mb`.
    let samples = oracle::sample(&stream, cfg.seed, oracle::SAMPLES);
    if let Some(client) = stack.client.as_mut() {
        verdict.merge(oracle::wire_matches_router(client, &stack.router, &stream, &samples));
    }
    if !w.writes_in_window() {
        let reference = build_engine(&cfg.db);
        verdict.merge(oracle::router_matches_reference(
            &stack.router,
            &reference,
            &stream,
            &samples,
        ));
    }

    let mut layer_values: Vec<(&'static str, f64)> = Vec::new();
    if cfg.trace {
        let us =
            cluster_apply_batch_us(&stack, &mut mutations, &mut acknowledged, &mut last_applied)?;
        layer_values.push(("cluster.apply_batch_us", us));
    }
    if w.writes_in_window() {
        let r = oracle::recovery(stack, &spec, &stream, cfg.seed, last_applied, acknowledged);
        notes.push(format!(
            "recovery: {} batches replayed per shard in {:.1} ms",
            r.batches_replayed, r.attach_ms
        ));
        verdict.merge(r.verdict);
    } else {
        drop(stack);
    }

    let window_ops: u64 = window.slices.iter().map(|s| s.ops).sum();
    let gated = [
        ("setup_s", median(&setup_secs).ok_or("no set-up was timed")?),
        ("peak_rss_mb", window.peak_rss_mb),
    ];
    let ungated = ungated_figures(&window, &writes, &mut notes)?;
    let all = merged(window.slices.iter().map(|s| &s.latency));
    for (what, f) in [
        ("ops/s", &ops_per_s as &dyn Fn(&load::Slice) -> f64),
        ("read p50 us", &read_p50_us),
        ("cpu us/op", &cpu_us_per_op),
    ] {
        let per_slice: Vec<f64> = window.slices.iter().filter(|s| s.ops > 0).map(f).collect();
        notes.push(format!("per slice, {what}: {per_slice:.1?}"));
    }
    notes.push(format!(
        "reads in window: {window_ops} ok, p99 {:.1} us, max {:.1} us; writes in window: {}",
        all.quantile(0.99).unwrap_or(0.0) / 1e3,
        all.max_ns() as f64 / 1e3,
        writes.latencies_us.len(),
    ));

    let failed = window.failed + writes.failed;
    let attempted = window.attempted + writes.latencies_us.len() as u64 + writes.failed;
    for m in &verdict.mismatches {
        notes.push(format!("ORACLE MISMATCH: {m}"));
    }
    notes.push(format!(
        "oracles: {} comparisons, {} mismatches",
        verdict.checked,
        verdict.mismatches.len()
    ));
    let correct = failed == 0 && verdict.mismatches.is_empty() && verdict.checked > 0;

    let head = PER_LAYER[..UNGATED].iter().map(|m| (m.name, m.unit));
    let (metrics, ungated) = if cfg.trace {
        layer_values.extend(ungated);
        layer_values.extend(window_layer_values(&window, &writes, window_ops));
        let lad = ladder::run(&spec, &stream, cfg.ladder_requests);
        let path = scratch_root().join(format!("trace_{}.json", w.name()));
        lad.recorder
            .write_json(&path, w.name(), cfg.seed)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("{} spans written to {}", lad.recorder.spans().len(), path.display()));
        layer_values.extend(lad.values);
        layer_values.extend(direct::measure(&cfg.db, cfg.seed));
        notes.extend(separation_notes(w, &layer_values));
        (collect(PER_LAYER.iter().map(|m| (m.name, m.unit)), &layer_values)?, Vec::new())
    } else {
        (collect(END_TO_END.iter().map(|m| (m.name, m.unit)), &gated)?, collect(head, &ungated)?)
    };
    Ok(RunOutput { correct, attempted, failed, metrics, ungated, notes })
}

/// What the load phase produced.
struct Loaded {
    window: WindowResult,
    /// The in-window writer's figures (empty unless `mixed_rw`).
    writes: Writes,
    /// Batches acknowledged `Applied` so far, warm-up included.
    acknowledged: usize,
    /// The epoch in the last `Applied` reply.
    last_applied: u64,
}

/// Warm-up and the timed window: the reader on this thread, and for
/// `mixed_rw` the writer on a second one.
fn load_phase(
    w: Workload,
    stack: &mut Stack,
    stream: &ReadStream,
    expect: Option<&[usize]>,
    plan: Plan,
    mutations: &mut MutationStream,
) -> Loaded {
    let mut reader = stack.client.take();
    let loaded = {
        let shared: &Stack = stack;
        let read_counters = || Counters::read(shared);
        let Some(reader) = reader.as_mut() else {
            let expect = expect.expect("embed_hot knows what each query returns");
            let window =
                load::run_embed_reader(&shared.router, stream, expect, plan, &read_counters);
            return Loaded { window, writes: Writes::default(), acknowledged: 0, last_applied: 0 };
        };
        // The writer, its connection and its batches: `mixed_rw` only.
        let mut writer_input = w.writes_in_window().then(|| {
            let total = (plan.warm_up + plan.window).as_secs_f64();
            let n = (total / load::WRITE_INTERVAL.as_secs_f64()).ceil() as usize + 8;
            let batches: Vec<Vec<u8>> =
                mutations.take_encoded(n).into_iter().map(|(_, payload)| payload).collect();
            (connect(&shared.addr()), batches)
        });
        let (writer_cpu, stop) = (AtomicU64::new(0), AtomicBool::new(false));
        let start = Instant::now();
        let (window, written) = std::thread::scope(|s| {
            let writer = writer_input.as_mut().map(|(client, batches)| {
                s.spawn(|| load::run_writer(client, batches, start, &stop, &writer_cpu))
            });
            let window =
                load::run_wire_reader(reader, stream, expect, plan, &read_counters, &writer_cpu);
            stop.store(true, Ordering::Release);
            (window, writer.map(|h| h.join().expect("the writer thread")))
        });
        if let Some(wr) = &written {
            mutations.resume_at(wr.samples.len() + wr.failed as usize);
        }
        Loaded {
            writes: written.as_ref().map(|wr| in_window_writes(wr, plan)).unwrap_or_default(),
            window,
            acknowledged: written.as_ref().map_or(0, |wr| wr.samples.len()),
            last_applied: written.as_ref().map_or(0, |wr| wr.last_epoch),
        }
    };
    stack.client = reader;
    loaded
}

fn ops_per_s(s: &load::Slice) -> f64 {
    s.ops as f64 * 1e9 / s.wall_ns.max(1) as f64
}

fn read_p50_us(s: &load::Slice) -> f64 {
    s.latency.quantile(0.5).expect("a slice with ops") / 1e3
}

fn cpu_us_per_op(s: &load::Slice) -> f64 {
    (s.process_cpu_ns - s.generator_cpu_ns) as f64 / 1e3 / s.ops as f64
}

/// The read tail in ns: per-slice p95, median over the slices that
/// have at least ten samples beyond theirs, with the number of slices
/// left out for having fewer. When a stall of the host (or a host a few
/// times slower than the reference machine) leaves no slice with that
/// many, the whole window's p95 stands in. A thin slice costs a line in
/// the report, never the run: this figure is a diagnostic, and the slow
/// slice that thins it out is what the slice medians exist to absorb.
fn read_p95_ns(slices: &[&Histogram]) -> Option<(f64, usize)> {
    let p95s: Vec<f64> = slices.iter().filter_map(|h| h.tail_quantile(0.95).ok()).collect();
    let thin = slices.len() - p95s.len();
    let whole_window = || merged(slices.iter().copied()).quantile(0.95);
    median(&p95s).or_else(whole_window).map(|p95| (p95, thin))
}

/// The user-visible figures of the timed window, reported on every run
/// but not gated (README.md, "Noise"), in [`PER_LAYER`]'s order:
/// throughput, median latency and CPU per op as medians over the
/// slices, the read tail ([`read_p95_ns`]), and the median write of the
/// batches due inside the window, 0 on a workload that does not write.
fn ungated_figures(
    window: &WindowResult,
    writes: &Writes,
    notes: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let busy: Vec<&load::Slice> = window.slices.iter().filter(|s| s.ops > 0).collect();
    let latencies: Vec<&Histogram> = busy.iter().map(|s| &s.latency).collect();
    let (p95, thin) = read_p95_ns(&latencies).ok_or("no slice completed a read")?;
    if thin > 0 {
        notes.push(format!(
            "THIN SLICES: {thin} of {} have fewer than 10 reads beyond their p95; read_p95_us is {}",
            busy.len(),
            if thin < busy.len() { "the median of the others" } else { "the whole window's p95" }
        ));
    }
    let per_slice = |f: &dyn Fn(&load::Slice) -> f64| {
        slice_median(&busy, |s| Some(f(s))).expect("a busy slice")
    };
    Ok(vec![
        ("ops_per_s", per_slice(&ops_per_s)),
        ("read_p50_us", per_slice(&read_p50_us)),
        ("read_p95_us", p95 / 1e3),
        ("cpu_us_per_op", per_slice(&cpu_us_per_op)),
        ("write_p50_us", median(&writes.latencies_us).unwrap_or(0.0)),
    ])
}

fn merged<'a>(slices: impl Iterator<Item = &'a Histogram>) -> Histogram {
    let mut all = Histogram::new();
    slices.for_each(|h| all.merge(h));
    all
}

/// The writer's samples that were due inside the window.
fn in_window_writes(written: &WriterResult, plan: Plan) -> Writes {
    let due_in_window = |due: Duration| due >= plan.warm_up && due < plan.warm_up + plan.window;
    let inside: Vec<_> = written.samples.iter().filter(|s| due_in_window(s.due)).collect();
    Writes {
        latencies_us: inside.iter().map(|s| s.latency.as_secs_f64() * 1e6).collect(),
        late: inside.iter().filter(|s| s.late).count() as u64,
        failed: written.failed,
    }
}

/// `cluster.apply_batch_us`: `ClusterRouter::apply_batch` called
/// directly, no wire, on the workload's own stack.
fn cluster_apply_batch_us(
    stack: &Stack,
    mutations: &mut MutationStream,
    acknowledged: &mut usize,
    last_applied: &mut u64,
) -> Result<f64, String> {
    let mut us = Vec::with_capacity(CLUSTER_APPLY_BATCHES);
    for _ in 0..CLUSTER_APPLY_BATCHES {
        let batch = mutations.next_batch();
        let t0 = Instant::now();
        let epoch = stack.router.apply_batch(batch).map_err(|e| format!("apply_batch: {e}"))?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        *acknowledged += 1;
        *last_applied = epoch.get();
    }
    Ok(median(&us).expect("sixteen samples"))
}

/// Ratios and per-op counts from the counter differences over the
/// window. The per-write rows are 0 on a workload that does not write.
/// A batch is one WAL append per shard; the batches themselves are the
/// ones the generator counted, by due time, while the counters are read
/// at the window's edges — one batch either way.
fn window_layer_values(
    window: &WindowResult,
    writes: &Writes,
    ops: u64,
) -> Vec<(&'static str, f64)> {
    let d = window.counters.1.since(&window.counters.0);
    let batches = writes.latencies_us.len() as u64 + writes.failed;
    let shards = 2;
    let (process, generator) = window
        .slices
        .iter()
        .fold((0, 0), |(p, g), s| (p + s.process_cpu_ns, g + s.generator_cpu_ns));
    vec![
        ("net.reply_bytes_per_op", ratio(window.reply_bytes, ops)),
        ("net.fastpath_share", ratio(d.fastpath_hits, d.fastpath_hits + d.fastpath_fallbacks)),
        ("net.shed_share", ratio(d.shed, d.frames_in)),
        ("net.buf_pool_miss_per_op", ratio(d.buf_pool_misses, ops)),
        ("net.wakeups_per_op", ratio(d.reactor_wakeups, ops)),
        ("net.doorbells_per_op", ratio(d.doorbell_rings, ops)),
        ("cluster.hits_per_query", ratio(window.summaries, ops)),
        ("cluster.rewarmed_per_write", ratio(d.rewarmed_keys, batches)),
        ("serve.cache_hit_ratio", ratio(d.cache_hits, d.cache_hits + d.cache_misses)),
        ("serve.computed_per_op", ratio(d.summaries_computed, ops)),
        ("serve.evictions_per_op", ratio(d.cache_evictions, ops)),
        ("serve.invalidations_per_write", ratio(d.cache_invalidations, batches)),
        ("storage.tuples_per_op", ratio(d.tuples, ops)),
        ("storage.joins_per_op", ratio(d.joins, ops)),
        ("storage.fast_probe_share", ratio(d.fast_probes, d.fast_probes + d.heap_probes)),
        ("storage.graph_builds_per_batch", ratio(d.graph_builds, batches * shards)),
        ("storage.resorts_per_batch", ratio(d.posting_resorts, batches * shards)),
        ("disk.block_hit_ratio", ratio(d.block_hits, d.block_hits + d.block_misses)),
        ("disk.page_reads_per_op", ratio(d.block_misses, ops)),
        ("disk.evictions_per_op", ratio(d.block_evictions, ops)),
        ("disk.wal_bytes_per_batch", ratio(d.wal_bytes, d.wal_appends)),
        ("disk.wal_syncs_per_batch", ratio(d.wal_syncs, d.wal_appends)),
        ("gen.cpu_share", ratio(generator, process)),
        ("gen.writer_late_share", ratio(writes.late, batches)),
    ]
}

/// Whether the workload stresses the layers it was built to stress,
/// read from the per-layer metrics. Diagnostics: a line that starts
/// `SEPARATION` means the run measured something else than intended.
fn separation_notes(w: Workload, values: &[(&'static str, f64)]) -> Vec<String> {
    let get = |name: &str| values.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |(_, v)| *v);
    let mut checks: Vec<(&str, bool)> = vec![("net.shed_share = 0", get("net.shed_share") == 0.0)];
    match w {
        Workload::HotRead => checks.extend([
            ("serve.computed_per_op = 0", get("serve.computed_per_op") == 0.0),
            ("net.fastpath_share >= 0.95", get("net.fastpath_share") >= 0.95),
            ("disk.page_reads_per_op = 0", get("disk.page_reads_per_op") == 0.0),
        ]),
        Workload::ColdRead => checks.extend([
            ("serve.cache_hit_ratio < 0.6", get("serve.cache_hit_ratio") < 0.6),
            ("disk.page_reads_per_op = 0", get("disk.page_reads_per_op") == 0.0),
        ]),
        Workload::PagedRead => checks.extend([
            ("disk.block_hit_ratio < 0.2", get("disk.block_hit_ratio") < 0.2),
            ("disk.page_reads_per_op > 10", get("disk.page_reads_per_op") > 10.0),
        ]),
        Workload::MixedRw => checks.extend([
            ("disk.wal_syncs_per_batch = 1 per shard", get("disk.wal_syncs_per_batch") == 1.0),
            ("serve.invalidations_per_write > 0", get("serve.invalidations_per_write") > 0.0),
            ("gen.writer_late_share < 0.05", get("gen.writer_late_share") < 0.05),
        ]),
        Workload::EmbedHot => checks.extend([
            ("net.reply_bytes_per_op = 0", get("net.reply_bytes_per_op") == 0.0),
            ("net.wakeups_per_op = 0", get("net.wakeups_per_op") == 0.0),
        ]),
    }
    checks
        .into_iter()
        .map(|(what, ok)| {
            format!("{} {what}", if ok { "separation ok:" } else { "SEPARATION VIOLATED:" })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(samples: u64, step_ns: u64) -> Histogram {
        let mut h = Histogram::new();
        (1..=samples).for_each(|i| h.record(i * step_ns));
        h
    }

    /// A slow slice (a stall of the host) holds too few reads for a
    /// p95 of its own: it is left out and counted, it does not fail
    /// the run; when every slice is that thin the window's p95 stands in.
    #[test]
    fn a_thin_slice_is_left_out_of_the_p95_not_fatal() {
        let (full_a, full_b, thin) = (ramp(1000, 1_000), ramp(1000, 3_000), ramp(150, 100_000));
        let within = |got: f64, want: f64| (got - want).abs() / want <= 0.01;

        let (p95, left_out) = read_p95_ns(&[&full_a, &thin, &full_b]).unwrap();
        assert_eq!(left_out, 1);
        assert!(within(p95, (950_000.0 + 2_850_000.0) / 2.0), "{p95}");

        let (p95, left_out) = read_p95_ns(&[&thin, &thin]).unwrap();
        assert_eq!(left_out, 2);
        assert!(within(p95, 14_300_000.0), "{p95}"); // rank 285 of 300: the 143rd of a ramp, twice

        assert!(read_p95_ns(&[]).is_none());
    }
}
