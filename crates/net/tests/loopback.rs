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
        // on the reactor running the request; its catch_unwind must turn
        // that into an in-band Internal error.
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

/// A `Query` and a `Summarize` frame whose `l` is `u32::MAX` — the first
/// requests a fresh server's reactors see, so their arena pools are
/// cold — each get their reply, the whole OS, and the server keeps
/// answering. The cold arena's `4·l` size hint once asked for half a
/// terabyte and aborted the process, which no `catch_unwind` contains.
#[test]
fn a_frame_with_the_largest_l_gets_a_reply_and_the_server_keeps_answering() {
    for_each_reactor(|reactor| {
        let router = tiny_cluster();
        let server = serve(router.clone(), NetConfig { reactor, ..Default::default() });
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
        let kw = existing_keyword(&router.shard(0).engine());
        let huge = QueryOptions { l: u32::MAX as usize, ..Default::default() };
        let tds = match client.query(&[(kw.clone(), huge)]).expect("a reply, not a hangup") {
            Reply::Results { results, .. } => {
                assert!(!results[0].is_empty(), "the keyword has hits");
                results[0].iter().for_each(|r| assert_eq!(r.summary.len(), r.input_os_size));
                results[0][0].tds
            }
            other => panic!("expected Results, got {other:?}"),
        };
        let prelim = QueryOptions { prelim: true, ..huge };
        match client.summarize(tds, prelim).expect("a reply, not a hangup") {
            Reply::Summary { result, .. } => {
                assert_eq!(result.summary.len(), result.input_os_size, "the whole OS")
            }
            other => panic!("expected Summary, got {other:?}"),
        }
        client.ping().expect("the server still answers");
    });
}

/// The in-band metrics page carries shed counts (per `Busy` reason),
/// connection gauges, reactor and doorbell counters, per-shard cache
/// ratios, refresh lag — and names the backend actually serving.
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
            "sizel_serve_queries_served_total{shard=\"0\"}",
            "sizel_refresh_lag{shard=\"0\"}",
            "sizel_cluster_epoch{shard=\"0\"}",
        ] {
            assert!(page.contains(series), "metrics page missing `{series}`:\n{page}");
        }
        // The router is one server: one series per name, however many
        // engines it was handed.
        assert!(
            !page.lines().any(|l| l.contains("shard=\"") && !l.contains("shard=\"0\"")),
            "a partitioned cluster's series carry shard=\"0\" only:\n{page}"
        );
        // There is no dispatch queue, so no gauge of its depth.
        assert!(!page.contains("sizel_net_queue_depth"), "{page}");
        // The one query above was counted where it was answered.
        let served = page
            .lines()
            .find_map(|l| l.strip_prefix("sizel_serve_queries_served_total{shard=\"0\"} "))
            .expect("the server's query counter");
        assert!(served.parse::<u64>().expect("a count") >= 1, "queries_served = {served}");
    });
}

/// Every series of the page with a disk tier attached, sorted, values
/// dropped; `{backend}` stands for the reactor serving it.
const FULL_PAGE: &[&str] = &[
    "sizel_cluster_epoch{shard=\"0\"}",
    "sizel_disk_segment_generation{shard=\"0\"}",
    "sizel_disk_segment_lists{shard=\"0\"}",
    "sizel_disk_wal_appends_total{shard=\"0\"}",
    "sizel_disk_wal_bytes{shard=\"0\"}",
    "sizel_disk_wal_syncs_total{shard=\"0\"}",
    "sizel_net_accept_errors_total",
    "sizel_net_buf_pool_total{event=\"hit\"}",
    "sizel_net_buf_pool_total{event=\"miss\"}",
    "sizel_net_buf_pool_total{event=\"recycled\"}",
    "sizel_net_connections_live",
    "sizel_net_connections_opened_total",
    "sizel_net_doorbell_coalesced_total",
    "sizel_net_doorbell_rings_total",
    "sizel_net_epollout_toggles_total",
    "sizel_net_errors_total{code=\"bad_request\"}",
    "sizel_net_errors_total{code=\"internal\"}",
    "sizel_net_errors_total{code=\"malformed\"}",
    "sizel_net_errors_total{code=\"protocol\"}",
    "sizel_net_fastpath_total{result=\"fallback\"}",
    "sizel_net_fastpath_total{result=\"hit\"}",
    "sizel_net_frames_in_total",
    "sizel_net_frames_out_total",
    "sizel_net_http_scrapes_total",
    "sizel_net_idle_reaped_total",
    "sizel_net_reactor_spurious_wakeups_total",
    "sizel_net_reactor_wakeups_total",
    "sizel_net_reactor{backend=\"{backend}\"}",
    "sizel_net_shed_total{reason=\"inflight_budget\"}",
    "sizel_net_shed_total{reason=\"outbox_full\"}",
    "sizel_net_shed_total{reason=\"queue_full\"}",
    "sizel_refresh_lag{shard=\"0\"}",
    "sizel_refresh_last_epoch{shard=\"0\"}",
    "sizel_refresh_passes_total",
    "sizel_refresh_rewarmed_keys_total",
    "sizel_serve_cache_evictions_total{shard=\"0\"}",
    "sizel_serve_cache_hit_ratio{shard=\"0\"}",
    "sizel_serve_cache_hits_total{shard=\"0\"}",
    "sizel_serve_cache_invalidations_total{shard=\"0\"}",
    "sizel_serve_cache_misses_total{shard=\"0\"}",
    "sizel_serve_cache_poison_resets_total{shard=\"0\"}",
    "sizel_serve_cache_probe_misses_total{shard=\"0\"}",
    "sizel_serve_mutations_applied_total{shard=\"0\"}",
    "sizel_serve_queries_served_total{shard=\"0\"}",
    "sizel_serve_rewarmed_total{shard=\"0\"}",
    "sizel_serve_summaries_computed_total{shard=\"0\"}",
];

/// Once a disk tier is attached, the metrics page grows the
/// `sizel_disk_*` series — segment generation (which counts the
/// checkpoints) and lists, WAL gauges — once per engine: the router is one server over one engine,
/// so the series carry `shard="0"` and never `shard="1"` (absent before
/// attach, which the base metrics test implicitly covers by not
/// requiring them). The whole page is pinned series for series.
#[test]
fn disk_tier_series_appear_once_attached() {
    let router = tiny_cluster();
    let dir =
        std::env::temp_dir().join(format!("sizel-net-disk-{}-{:p}", std::process::id(), &router));
    let tier = sizel_serve::DiskTierConfig {
        paged_tables: vec!["AuthorPaper".into()],
        ..sizel_serve::DiskTierConfig::new(std::path::PathBuf::new())
    };
    router.attach_disk_tier(&dir, &tier).expect("attach the shared engine's tier");

    let server = serve(router.clone(), NetConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
    let page = client.stats().expect("stats");
    for series in [
        "sizel_disk_segment_generation{shard=\"0\"}",
        "sizel_disk_segment_lists{shard=\"0\"}",
        "sizel_disk_wal_bytes{shard=\"0\"}",
        "sizel_disk_wal_appends_total{shard=\"0\"}",
        "sizel_disk_wal_syncs_total{shard=\"0\"}",
    ] {
        assert!(page.contains(series), "metrics page missing `{series}`:\n{page}");
    }
    assert!(
        !page.lines().any(|l| l.starts_with("sizel_disk_") && l.contains("shard=\"1\"")),
        "one engine, one set of disk series:\n{page}"
    );
    let mut series: Vec<&str> =
        page.lines().map(|l| l.rsplit_once(' ').expect("name value").0).collect();
    series.sort_unstable();
    let backend = server.reactor_kind().name();
    let want: Vec<String> = FULL_PAGE.iter().map(|s| s.replace("{backend}", backend)).collect();
    assert_eq!(series, want, "the page's series changed:\n{page}");
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
