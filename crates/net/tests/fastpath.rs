//! A request answered from the summary cache and the same request
//! computed are one path now (DESIGN.md §9.6): every request runs to
//! completion on the reactor that read it, and the cache decides only
//! whether a summary is looked up or computed. This suite pins that the
//! seam leaks nothing observable — on every reactor backend:
//!
//! * a cache-hit reply is byte-identical to the computed reply before
//!   it, across the cache-miss seam and across wire-driven epoch
//!   advances, and both equal a recompute on the engine itself;
//! * a malformed frame's reply is exactly the encoding of its own
//!   decode error.
//!
//! The fixture runs refresh **off**: these tests assert exact cache
//! counter movements, and a background re-warm worker would compute
//! (and cache) entries behind their back.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use sizel_cluster::{ClusterConfig, ClusterRouter};
use sizel_core::engine::{Mutation, QueryOptions};
use sizel_core::test_fixtures::max_pk;
use sizel_datagen::dblp::DblpConfig;
use sizel_net::frame::Opcode;
use sizel_net::wire::{
    decode_request, encode_error_into, encode_query_payload, encode_results_payload,
    encode_summarize_payload, encode_summary_payload,
};
use sizel_net::{ErrorCode, NetClient, NetConfig, NetServer};
use sizel_storage::Value;

mod common;
use common::{existing_keyword, for_each_reactor, replicas, serve, small_serve};

/// A 2-shard partitioned cluster with the refresh worker off (exact
/// counter assertions need a quiescent cache).
fn quiet_cluster() -> Arc<ClusterRouter> {
    let cfg = DblpConfig::tiny();
    Arc::new(
        ClusterRouter::partitioned(
            replicas(&cfg, 2),
            ClusterConfig { serve: small_serve(), refresh: None },
        )
        .expect("cluster builds"),
    )
}

fn connect(server: &NetServer) -> NetClient {
    let client = NetClient::connect(server.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
    client
}

/// One raw round trip, returning the reply `(opcode, payload)` without
/// decoding — the byte-comparison primitive.
fn roundtrip(client: &mut NetClient, opcode: Opcode, payload: &[u8]) -> (Opcode, Vec<u8>) {
    let id = client.send(opcode, payload).expect("send");
    client.recv_for(id).expect("reply")
}

/// Summaries the router's one server has computed so far.
fn computed(router: &ClusterRouter) -> u64 {
    router.stats().per_shard[0].summaries_computed
}

/// The `Results` payload for `reqs` recomputed on the engine itself —
/// no cache involved — at the engine's current epoch.
fn recomputed_results(router: &ClusterRouter, reqs: &[(String, QueryOptions)]) -> Vec<u8> {
    let engine = router.shard(0).engine();
    let results: Vec<Vec<_>> = reqs
        .iter()
        .map(|(kw, opts)| engine.query_with(kw, *opts).into_iter().map(Arc::new).collect())
        .collect();
    encode_results_payload(engine.epoch(), &results)
}

/// Cold requests compute, warm repeats hit the cache — and the bytes are
/// identical in both regimes and equal to a recompute, at every epoch,
/// including across a wire-driven epoch advance that kills the cached
/// generation.
#[test]
fn inline_replies_are_byte_identical_across_the_miss_seam_and_epochs() {
    for_each_reactor(|reactor| {
        let router = quiet_cluster();
        let server = serve(router.clone(), NetConfig { reactor, ..Default::default() });
        let mut client = connect(&server);

        let kw = existing_keyword(&router.shard(0).engine());
        let reqs = vec![(kw.clone(), QueryOptions::default())];
        let qpayload = encode_query_payload(&reqs);

        // Cold query: every hit's summary is computed on the reactor.
        let (op, cold) = roundtrip(&mut client, Opcode::Query, &qpayload);
        assert_eq!(op, Opcode::Results);
        let after_cold = computed(&router);
        assert!(after_cold > 0, "a cold query computes its summaries");
        assert_eq!(cold, recomputed_results(&router, &reqs), "computed reply vs recompute");

        // Warm repeat: answered from the cache, bytes unchanged.
        let (op, warm) = roundtrip(&mut client, Opcode::Query, &qpayload);
        assert_eq!(op, Opcode::Results);
        assert_eq!(computed(&router), after_cold, "a warm repeat computes nothing");
        assert_eq!(warm, cold, "the cache-hit reply diverges from the computed one");

        // Summarize: same seam, per-DS.
        let tds = router.shard(0).engine().ds_hits(&kw)[0];
        let sopts = QueryOptions { l: 6, ..Default::default() };
        let spayload = encode_summarize_payload(tds, sopts);
        let (op, scold) = roundtrip(&mut client, Opcode::Summarize, &spayload);
        assert_eq!(op, Opcode::Summary);
        let summary_now = || {
            let engine = router.shard(0).engine();
            encode_summary_payload(engine.epoch(), &engine.summarize(tds, sopts))
        };
        assert_eq!(scold, summary_now());
        let before = computed(&router);
        let (op, swarm) = roundtrip(&mut client, Opcode::Summarize, &spayload);
        assert_eq!(op, Opcode::Summary);
        assert_eq!(swarm, scold);
        assert_eq!(computed(&router), before, "a warm summarize computes nothing");

        // Advance the epoch over the wire: the cached generation is
        // dead, so the same query computes again — at the *new* epoch —
        // and then hits.
        let (a, p, j) = {
            let engine = router.shard(0).engine();
            (
                max_pk(engine.db(), "Author"),
                max_pk(engine.db(), "Paper"),
                max_pk(engine.db(), "AuthorPaper"),
            )
        };
        client
            .apply(&[
                Mutation::insert("Author", vec![Value::Int(a + 1), "Fastpath Author".into()]),
                Mutation::insert(
                    "AuthorPaper",
                    vec![Value::Int(j + 1), Value::Int(a + 1), Value::Int(p)],
                ),
            ])
            .expect("apply");
        let before = computed(&router);
        let (op, cold2) = roundtrip(&mut client, Opcode::Query, &qpayload);
        assert_eq!(op, Opcode::Results);
        assert!(computed(&router) > before, "a new epoch must miss the cache");
        assert_ne!(cold2[..8], cold[..8], "the apply advanced the epoch stamp");
        assert_eq!(cold2, recomputed_results(&router, &reqs));
        let after_cold2 = computed(&router);
        let (op, warm2) = roundtrip(&mut client, Opcode::Query, &qpayload);
        assert_eq!(op, Opcode::Results);
        assert_eq!(warm2, cold2);
        assert_eq!(computed(&router), after_cold2);

        // The summarize entry died with the epoch too: its recompute
        // and the hit after it match the engine at the new epoch.
        let (op, scold2) = roundtrip(&mut client, Opcode::Summarize, &spayload);
        assert_eq!(op, Opcode::Summary);
        assert_eq!(scold2, summary_now());
        let (op, swarm2) = roundtrip(&mut client, Opcode::Summarize, &spayload);
        assert_eq!(op, Opcode::Summary);
        assert_eq!(swarm2, scold2);

        // Nothing was shed or diverted: every request ran where it was read.
        let c = server.counters();
        assert_eq!(c.fastpath_fallbacks.load(Ordering::Relaxed), 0);
        assert_eq!(
            c.fastpath_hits.load(Ordering::Relaxed),
            c.frames_in.load(Ordering::Relaxed),
            "every request frame ran to completion on its reactor"
        );
    });
}

/// A malformed frame's reply is the encoding of its own decode error,
/// byte for byte — for a truncated `Summarize` and a `Ping` with a
/// body alike — and is counted once.
#[test]
fn malformed_frames_get_the_decode_errors_own_encoding() {
    for_each_reactor(|reactor| {
        let router = quiet_cluster();
        let server = serve(router.clone(), NetConfig { reactor, ..Default::default() });
        let mut client = connect(&server);

        for (opcode, payload) in
            [(Opcode::Summarize, &[0xDE, 0xAD, 0xBE][..]), (Opcode::Ping, &[0x01][..])]
        {
            let (op, bytes) = roundtrip(&mut client, opcode, payload);
            assert_eq!(op, Opcode::Error, "{opcode:?}");
            let err = decode_request(opcode, payload).expect_err("the payload is malformed");
            let mut want = Vec::new();
            encode_error_into(&mut want, ErrorCode::MalformedPayload, &err.to_string());
            assert_eq!(bytes, want, "{opcode:?}: the reply is the decode error's encoding");
        }
        let c = server.counters();
        assert_eq!(c.errors_malformed.load(Ordering::Relaxed), 2);
        client.ping().expect("the connection keeps answering");
    });
}
