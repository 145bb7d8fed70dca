//! Correctness oracles, run outside the timed window. The program's
//! reply codec is canonical, so "correct" is byte equality:
//!
//! * a wire reply equals `encode_results_payload(batch_query_at(..))`
//!   of the router behind the server;
//! * the router's answer equals that of a **sequential, un-paged
//!   reference engine** over the same database (for `paged_read` this
//!   is the RAM-vs-paged oracle);
//! * after `mixed_rw`, the router sits at the epoch of the last
//!   `Applied` reply, and fresh engines re-attached to the same
//!   directories replay exactly the acknowledged batches and answer
//!   identically.

use std::sync::Arc;

use sizel_cluster::ClusterRouter;
use sizel_core::engine::SizeLEngine;
use sizel_net::wire::encode_results_payload;
use sizel_net::{NetClient, Opcode};
use sizel_util::prng::Prng;

use crate::stack::{Stack, StackSpec};
use crate::stream::ReadStream;

/// Replies sampled per workload.
pub const SAMPLES: usize = 32;
/// Queries compared across a recovery.
pub const RECOVERY_SAMPLES: usize = 16;

/// The outcome of the oracles: how many comparisons ran, and what
/// did not match.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Comparisons made.
    pub checked: u64,
    /// One line per mismatch.
    pub mismatches: Vec<String>,
}

impl Verdict {
    fn expect_eq(&mut self, what: impl FnOnce() -> String, left: &[u8], right: &[u8]) {
        self.checked += 1;
        if left != right {
            self.mismatches.push(format!(
                "{}: {} vs {} bytes differ",
                what(),
                left.len(),
                right.len()
            ));
        }
    }

    /// Records `ok` as one comparison.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// Folds `other` in.
    pub fn merge(&mut self, other: Verdict) {
        self.checked += other.checked;
        self.mismatches.extend(other.mismatches);
    }
}

/// `n` distinct queries of the stream, chosen by the seed.
pub fn sample(stream: &ReadStream, seed: u64, n: usize) -> Vec<usize> {
    let mut rng = Prng::new(seed).fork(0x04AC);
    rng.sample_distinct(stream.queries.len(), n.min(stream.queries.len()))
}

/// The router's answer to query `q`, encoded as the wire would.
pub fn router_answer(router: &ClusterRouter, stream: &ReadStream, q: usize) -> Vec<u8> {
    let (epoch, results) = router.batch_query_at(&stream.queries[q]).expect("oracle query");
    encode_results_payload(epoch, &results)
}

/// The sequential reference engine's answer to query `q`.
fn reference_answer(reference: &SizeLEngine, stream: &ReadStream, q: usize) -> Vec<u8> {
    let (kw, opts) = &stream.queries[q][0];
    let results: Vec<_> = reference.query_with(kw, *opts).into_iter().map(Arc::new).collect();
    encode_results_payload(reference.epoch(), &[results])
}

/// Wire replies against the router behind them.
pub fn wire_matches_router(
    client: &mut NetClient,
    router: &ClusterRouter,
    stream: &ReadStream,
    queries: &[usize],
) -> Verdict {
    let mut v = Verdict::default();
    for &q in queries {
        let id = client.send(Opcode::Query, &stream.payloads[q]).expect("send");
        let (op, payload) = client.recv_for(id).expect("reply");
        v.expect(op == Opcode::Results, || format!("query {q}: reply opcode {op:?}"));
        v.expect_eq(
            || format!("query {q}: wire vs router"),
            &payload,
            &router_answer(router, stream, q),
        );
    }
    v
}

/// The router against a sequential un-paged engine over the same data
/// (only meaningful while no write has reached the router).
pub fn router_matches_reference(
    router: &ClusterRouter,
    reference: &SizeLEngine,
    stream: &ReadStream,
    queries: &[usize],
) -> Verdict {
    let mut v = Verdict::default();
    for &q in queries {
        v.expect_eq(
            || format!("query {q}: router vs sequential reference"),
            &router_answer(router, stream, q),
            &reference_answer(reference, stream, q),
        );
    }
    v
}

/// What the recovery oracle found, beside its verdict.
pub struct Recovery {
    /// Comparisons and mismatches.
    pub verdict: Verdict,
    /// Wall time of re-attaching both shards (log replay included).
    pub attach_ms: f64,
    /// Batches each shard replayed.
    pub batches_replayed: usize,
}

/// Shuts `stack` down, builds fresh engines over the same base data,
/// re-attaches them to the same directories and compares: epoch equal
/// to `last_applied`, exactly `acknowledged` batches replayed per
/// shard, and [`RECOVERY_SAMPLES`] sampled answers byte-identical to
/// what the live router gave just before shutdown.
pub fn recovery(
    stack: Stack,
    spec: &StackSpec,
    stream: &ReadStream,
    seed: u64,
    last_applied: u64,
    acknowledged: usize,
) -> Recovery {
    let mut v = Verdict::default();
    let live_epochs = stack.router.stats().epochs;
    v.expect(live_epochs.iter().all(|e| e.get() == last_applied), || {
        format!("router epochs {live_epochs:?} differ from the last Applied epoch {last_applied}")
    });
    let queries = sample(stream, seed ^ 0x5EC0, RECOVERY_SAMPLES);
    let live: Vec<Vec<u8>> =
        queries.iter().map(|&q| router_answer(&stack.router, stream, q)).collect();

    let dir = stack.into_dir();
    let recovered = Stack::build_in(&StackSpec { wire: false, ..spec.clone() }, dir);
    let (attach, reports) = recovered.attach.as_ref().expect("a tiered stack");
    for (shard, r) in reports.iter().enumerate() {
        v.expect(r.batches_replayed == acknowledged && r.batches_rejected == 0, || {
            format!(
                "shard {shard} replayed {} batches ({} rejected), {acknowledged} were acknowledged",
                r.batches_replayed, r.batches_rejected
            )
        });
    }
    for (&q, before) in queries.iter().zip(&live) {
        v.expect_eq(
            || format!("query {q}: live vs recovered"),
            before,
            &router_answer(&recovered.router, stream, q),
        );
    }
    Recovery {
        verdict: v,
        attach_ms: attach.as_secs_f64() * 1e3,
        batches_replayed: reports.first().map_or(0, |r| r.batches_replayed),
    }
}
