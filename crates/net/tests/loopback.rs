//! Loopback end-to-end: a real [`NetServer`] over TCP, driven by the
//! pipelining [`NetClient`], proven **byte-identical** to in-process
//! [`ClusterRouter`] calls at every epoch — with the continual-refresh
//! worker running the whole time, and every scenario repeated on every
//! reactor backend (`for_each_reactor`), so the epoll reactor and the
//! portable poll oracle are held to the same observable behavior.
//!
//! The identity check works because the wire codec is deterministic:
//! the server's `Results` payload is `encode_results_payload(epoch,
//! results)` of its router call, and the test encodes its own in-process
//! call with the same function. Equal bytes ⟹ equal epoch stamp, equal
//! result order, equal scores, labels, selections, and summary trees —
//! there is nothing left for a lossy comparison to miss.

use std::sync::atomic::Ordering;
use std::time::Duration;

use sizel_core::engine::{Mutation, QueryOptions, ResultRanking};
use sizel_core::test_fixtures::max_pk;
use sizel_net::frame::Opcode;
use sizel_net::wire::{encode_query_payload, encode_results_payload};
use sizel_net::{NetClient, NetConfig, Reply};
use sizel_storage::Value;

mod common;
use common::{existing_keyword, for_each_reactor, serve, tiny_cluster};

/// ≥8 pipelined queries per epoch, across several epochs advanced over
/// the wire, each reply byte-compared against the in-process oracle —
/// on every reactor backend.
#[test]
fn pipelined_replies_are_byte_identical_to_in_process_calls_at_every_epoch() {
    for_each_reactor(|reactor| {
        let router = tiny_cluster();
        let server = serve(router.clone(), NetConfig { reactor, ..Default::default() });
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");

        let kw = existing_keyword(&router.shard(0).engine());
        // Eight distinct request shapes per round: sizes, rankings, and
        // batch shapes all vary so the codec carries real diversity.
        let shapes: Vec<Vec<(String, QueryOptions)>> = vec![
            vec![(kw.clone(), QueryOptions::default())],
            vec![(kw.clone(), QueryOptions { l: 6, ..Default::default() })],
            vec![(kw.clone(), QueryOptions { l: 9, ..Default::default() })],
            vec![(
                kw.clone(),
                QueryOptions {
                    ranking: ResultRanking::SummaryImportance,
                    l: 8,
                    ..Default::default()
                },
            )],
            vec![(kw.clone(), QueryOptions { prelim: false, l: 7, ..Default::default() })],
            vec![
                (kw.clone(), QueryOptions { l: 5, ..Default::default() }),
                (kw.clone(), QueryOptions { l: 11, ..Default::default() }),
            ],
            vec![("no-such-keyword-anywhere".to_owned(), QueryOptions::default())],
            vec![(kw.clone(), QueryOptions { l: 4, ..Default::default() })],
        ];

        let (a, p, j) = {
            let engine = router.shard(0).engine();
            (
                max_pk(engine.db(), "Author"),
                max_pk(engine.db(), "Paper"),
                max_pk(engine.db(), "AuthorPaper"),
            )
        };

        for round in 0..4i64 {
            // Pipeline: all 8 requests hit the wire before any reply is
            // read.
            let ids: Vec<u64> = shapes
                .iter()
                .map(|reqs| client.send(Opcode::Query, &encode_query_payload(reqs)).expect("send"))
                .collect();
            for (id, reqs) in ids.into_iter().zip(&shapes) {
                let (op, wire_payload) = client.recv_for(id).expect("reply");
                assert_eq!(op, Opcode::Results, "round {round}");
                // No epoch can move under this oracle call: the test
                // thread is the only writer and it is right here,
                // reading.
                let (epoch, results) = router.batch_query_at(reqs).expect("oracle");
                let oracle = encode_results_payload(epoch, &results);
                assert_eq!(
                    wire_payload, oracle,
                    "round {round}: wire bytes diverge from the in-process encoding"
                );
            }

            // Advance the epoch over the wire and verify the stamp.
            let muts = vec![
                Mutation::insert(
                    "Author",
                    vec![Value::Int(a + 1 + round), format!("Wire Author{round}").into()],
                ),
                Mutation::insert(
                    "AuthorPaper",
                    vec![Value::Int(j + 1 + round), Value::Int(a + 1 + round), Value::Int(p)],
                ),
            ];
            match client.apply(&muts).expect("apply") {
                Reply::Applied { epoch } => {
                    assert_eq!(epoch, router.stats().epochs[0].get(), "round {round}");
                }
                other => panic!("expected Applied, got {other:?}"),
            }
        }
    });
}

/// Saturating a tiny budget with a 64-deep pipeline: every request is
/// answered (no lost responses), the overflow is `Busy` — counted, not
/// silently dropped — and the counters' accounting identity holds.
#[test]
fn saturation_sheds_with_busy_and_loses_nothing() {
    for_each_reactor(|reactor| {
        let router = tiny_cluster();
        // 1 slow worker, tiny queue and budget: with a 64-frame burst
        // the shed outcome is structural, not a timing accident.
        let server = serve(
            router,
            NetConfig {
                dispatch_workers: 1,
                queue_capacity: 2,
                inflight_budget: 4,
                handler_delay: Some(Duration::from_millis(30)),
                reactor,
                ..Default::default()
            },
        );
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");

        const BURST: usize = 64;
        let mut expected: Vec<u64> = Vec::with_capacity(BURST);
        for _ in 0..BURST {
            expected.push(client.send(Opcode::Ping, &[]).expect("send"));
        }
        let mut pongs = 0usize;
        let mut busy = 0usize;
        let mut seen: Vec<u64> = Vec::with_capacity(BURST);
        for _ in 0..BURST {
            let (id, op, _) = client.recv_any().expect("every request gets a reply");
            seen.push(id);
            match op {
                Opcode::Pong => pongs += 1,
                Opcode::Busy => busy += 1,
                other => panic!("unexpected reply {other:?}"),
            }
        }
        // Exactly one reply per request — none lost, none duplicated.
        seen.sort_unstable();
        expected.sort_unstable();
        assert_eq!(seen, expected);
        assert_eq!(pongs + busy, BURST);
        // The burst lands in ~1ms while each pop takes 30ms: at most
        // budget + queue + a small completion margin can be admitted.
        assert!(busy >= BURST - 16, "only {busy} sheds out of {BURST}");
        assert!(pongs >= 1, "the server must still make progress under overload");
        // Counter accounting: sheds match the Busy replies on the wire,
        // and every frame in produced a frame out.
        let c = server.counters();
        let shed = c.shed_inflight.load(Ordering::Relaxed) + c.shed_queue.load(Ordering::Relaxed);
        assert_eq!(shed as usize, busy);
        assert_eq!(c.frames_in.load(Ordering::Relaxed) as usize, BURST);
        assert_eq!(c.frames_out.load(Ordering::Relaxed) as usize, BURST);
    });
}

/// The in-flight budget gate specifically: a queue big enough to never
/// fill makes every shed a `Busy(InflightBudget)`.
#[test]
fn inflight_budget_gate_sheds_when_queue_has_room() {
    for_each_reactor(|reactor| {
        let router = tiny_cluster();
        let server = serve(
            router,
            NetConfig {
                dispatch_workers: 1,
                queue_capacity: 64,
                inflight_budget: 2,
                handler_delay: Some(Duration::from_millis(20)),
                reactor,
                ..Default::default()
            },
        );
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
        let ids: Vec<u64> =
            (0..32).map(|_| client.send(Opcode::Ping, &[]).expect("send")).collect();
        let mut busy = 0;
        for _ in &ids {
            let (_, op, _) = client.recv_any().expect("reply");
            if op == Opcode::Busy {
                busy += 1;
            }
        }
        assert!(busy > 0, "a 32-deep pipeline must overflow a budget of 2");
        let c = server.counters();
        assert_eq!(c.shed_queue.load(Ordering::Relaxed), 0, "the queue never filled");
        assert_eq!(c.shed_inflight.load(Ordering::Relaxed), busy);
    });
}

/// A request that panics its handler costs exactly one `Error(Internal)`
/// reply: the same connection, other clients, and the serving state all
/// keep working — the end-to-end face of the panic-safety sweep.
#[test]
fn a_panicking_request_degrades_one_reply_not_the_server() {
    for_each_reactor(|reactor| {
        let router = tiny_cluster();
        let server = serve(router.clone(), NetConfig { reactor, ..Default::default() });
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
        let kw = existing_keyword(&router.shard(0).engine());

        // A TupleRef naming a table far out of range panics mid-summary,
        // on the dispatch worker carrying the request; its catch_unwind
        // must turn that into an in-band Internal error.
        let bogus =
            sizel_storage::TupleRef::new(sizel_storage::TableId(999), sizel_storage::RowId(0));
        match client.summarize(bogus, QueryOptions::default()).expect("a reply, not a hangup") {
            Reply::Error { code, .. } => assert_eq!(code, sizel_net::ErrorCode::Internal),
            other => panic!("expected Error(Internal), got {other:?}"),
        }

        // Same connection still serves.
        client.ping().expect("ping after panic");
        match client.query(&[(kw.clone(), QueryOptions::default())]).expect("query after panic") {
            Reply::Results { results, .. } => assert!(!results[0].is_empty()),
            other => panic!("expected Results, got {other:?}"),
        }
        // Fresh connections too.
        let mut second = NetClient::connect(server.local_addr()).expect("connect");
        second.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
        second.ping().expect("fresh connection after panic");
        assert!(server.counters().errors_internal.load(Ordering::Relaxed) >= 1);
    });
}

/// The in-band metrics page carries the series the ISSUE promises:
/// shed counts (all three gates), connection gauges, reactor and
/// doorbell counters, per-shard cache ratios, refresh lag — and names
/// the backend actually serving.
#[test]
fn stats_frame_returns_the_metrics_page() {
    for_each_reactor(|reactor| {
        let router = tiny_cluster();
        let server = serve(router.clone(), NetConfig { reactor, ..Default::default() });
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
        let kw = existing_keyword(&router.shard(0).engine());
        client.query(&[(kw, QueryOptions::default())]).expect("one query");

        let page = client.stats().expect("stats");
        let backend =
            format!("sizel_net_reactor{{backend=\"{}\"}} 1", server.reactor_kind().name());
        for series in [
            "sizel_net_connections_live",
            "sizel_net_shed_total{reason=\"inflight_budget\"}",
            "sizel_net_shed_total{reason=\"queue_full\"}",
            "sizel_net_shed_total{reason=\"outbox_full\"}",
            "sizel_net_idle_reaped_total",
            backend.as_str(),
            "sizel_net_reactor_wakeups_total",
            "sizel_net_reactor_spurious_wakeups_total",
            "sizel_net_doorbell_rings_total",
            "sizel_net_doorbell_coalesced_total",
            "sizel_net_epollout_toggles_total",
            "sizel_net_fastpath_total{result=\"hit\"}",
            "sizel_net_fastpath_total{result=\"fallback\"}",
            "sizel_net_buf_pool_total{event=\"hit\"}",
            "sizel_net_buf_pool_total{event=\"miss\"}",
            "sizel_net_buf_pool_total{event=\"recycled\"}",
            "sizel_serve_cache_hit_ratio{shard=\"0\"}",
            "sizel_serve_cache_probe_misses_total{shard=\"0\"}",
            "sizel_serve_queries_served_total{shard=\"1\"}",
            "sizel_refresh_lag{shard=\"0\"}",
            "sizel_cluster_epoch{shard=\"1\"}",
        ] {
            assert!(page.contains(series), "metrics page missing `{series}`:\n{page}");
        }
        // One unlabelled gauge, read from the dispatch queue itself —
        // empty here: this request's job was popped to render the page.
        let depths: Vec<&str> =
            page.lines().filter(|l| l.starts_with("sizel_net_queue_depth")).collect();
        assert_eq!(depths, ["sizel_net_queue_depth 0"]);
        // The one query above was counted where it was answered: on the
        // router's lookup shard.
        let served = page
            .lines()
            .find_map(|l| l.strip_prefix("sizel_serve_queries_served_total{shard=\"0\"} "))
            .expect("the lookup shard's query counter");
        assert!(served.parse::<u64>().expect("a count") >= 1, "queries_served = {served}");
    });
}

/// Once a disk tier is attached, the metrics page grows the
/// `sizel_disk_*` series — block-cache events, segment generation, WAL
/// gauges — once per engine: a partitioned cluster's shards share one,
/// so the series carry `shard="0"` and never `shard="1"` (absent before
/// attach, which the base metrics test implicitly covers by not
/// requiring them).
#[test]
fn disk_tier_series_appear_once_attached() {
    let router = tiny_cluster();
    let dir =
        std::env::temp_dir().join(format!("sizel-net-disk-{}-{:p}", std::process::id(), &router));
    let tier = sizel_serve::DiskTierConfig {
        dir: std::path::PathBuf::new(),
        cache_pages: 8,
        fsync_every: 1,
        paged_tables: vec!["AuthorPaper".into()],
    };
    router.attach_disk_tier(&dir, &tier).expect("attach the shared engine's tier");

    let server = serve(router.clone(), NetConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
    let page = client.stats().expect("stats");
    for series in [
        "sizel_disk_cache_total{shard=\"0\",event=\"hit\"}",
        "sizel_disk_cache_total{shard=\"0\",event=\"miss\"}",
        "sizel_disk_cache_total{shard=\"0\",event=\"eviction\"}",
        "sizel_disk_cache_total{shard=\"0\",event=\"recycled\"}",
        "sizel_disk_read_errors_total{shard=\"0\"}",
        "sizel_disk_resident_pages{shard=\"0\"}",
        "sizel_disk_segment_generation{shard=\"0\"}",
        "sizel_disk_segment_lists{shard=\"0\"}",
        "sizel_disk_checkpoints_total{shard=\"0\"}",
        "sizel_disk_wal_bytes{shard=\"0\"}",
        "sizel_disk_wal_appends_total{shard=\"0\"}",
        "sizel_disk_wal_syncs_total{shard=\"0\"}",
    ] {
        assert!(page.contains(series), "metrics page missing `{series}`:\n{page}");
    }
    assert!(
        !page.lines().any(|l| l.starts_with("sizel_disk_") && l.contains("shard=\"1\"")),
        "shard 1 shares shard 0's engine, so its disk series would be copies:\n{page}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The CLI client binary drives a live server end to end (the server
/// runs the platform-default reactor — on CI the `SIZEL_NET_REACTOR`
/// matrix variable steers it through `ReactorChoice::Auto`).
#[test]
fn netcat_binary_pings_queries_and_scrapes() {
    let router = tiny_cluster();
    let server = serve(router.clone(), NetConfig::default());
    let addr = server.local_addr().to_string();
    let kw = existing_keyword(&router.shard(0).engine());
    let bin = env!("CARGO_BIN_EXE_sizel-netcat");

    let ping = std::process::Command::new(bin).args([&addr, "ping"]).output().expect("run");
    assert!(ping.status.success(), "ping failed: {ping:?}");
    assert_eq!(String::from_utf8_lossy(&ping.stdout).trim(), "pong");

    let query =
        std::process::Command::new(bin).args([&addr, "query", &kw, "6"]).output().expect("run");
    assert!(query.status.success(), "query failed: {query:?}");
    let out = String::from_utf8_lossy(&query.stdout);
    assert!(out.starts_with("epoch "), "unexpected query output: {out}");

    let stats = std::process::Command::new(bin).args([&addr, "stats"]).output().expect("run");
    assert!(stats.status.success(), "stats failed: {stats:?}");
    assert!(String::from_utf8_lossy(&stats.stdout).contains("sizel_net_connections_live"));
}
