//! Disk tiers under the cluster write gate, one per distinct engine: a
//! partitioned cluster's shards share one engine, so it logs and pages
//! in `shard-0` alone and pays one WAL record a batch; a multi-tenant
//! cluster gives each tenant's engine its own `shard-<i>`. A rebuilt
//! cluster that re-attaches the same base directory replays each log
//! against its own engine and answers byte-identically to the survivor.

mod common;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use common::{build_engine, existing_keyword, fingerprint, replicas};
use sizel_cluster::{ClusterConfig, ClusterRouter};
use sizel_core::engine::QueryOptions;
use sizel_core::test_fixtures::max_pk;
use sizel_datagen::dblp::DblpConfig;
use sizel_serve::{DiskTierConfig, Mutation};
use sizel_storage::Value;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "sizel-cluster-disk-{}-{}-{}",
        std::process::id(),
        tag,
        n
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tier() -> DiskTierConfig {
    DiskTierConfig {
        dir: PathBuf::new(), // replaced per engine by the router
        cache_pages: 16,
        fsync_every: 1,
        paged_tables: vec!["AuthorPaper".into()],
    }
}

fn partitioned(shards: usize) -> ClusterRouter {
    ClusterRouter::partitioned(replicas(&DblpConfig::tiny(), shards), ClusterConfig::default())
        .unwrap()
}

fn tenants() -> ClusterRouter {
    let cfg = DblpConfig::tiny();
    ClusterRouter::multi_tenant(
        vec![("acme".into(), build_engine(&cfg)), ("globex".into(), build_engine(&cfg))],
        ClusterConfig::default(),
    )
    .unwrap()
}

fn assert_tier_in(base: &Path, shard: usize) {
    let dir = base.join(format!("shard-{shard}"));
    assert!(dir.join("wal.log").is_file(), "{dir:?} has no WAL");
    assert!(dir.join("segments").is_dir(), "{dir:?} has no segment store");
}

/// Two mutations in one batch: an author and its rename.
fn durable_author_batch() -> Vec<Mutation> {
    let a = 1_000_003;
    vec![
        Mutation::insert("Author", vec![Value::Int(a), "Durable Author".into()]),
        Mutation::update("Author", a, vec![Value::Int(a), "Durable Author II".into()]),
    ]
}

#[test]
fn a_partitioned_cluster_logs_and_pages_in_shard_0_only() {
    let base = temp_dir("one-dir");
    let router = partitioned(2);
    let reports = router.attach_disk_tier(&base, &tier()).unwrap();
    assert_eq!(reports.len(), 1, "one engine, one report");
    assert_eq!(reports[0].batches_replayed, 0, "a fresh directory replays nothing");
    assert!(reports[0].generation > 0, "the paged table was checkpointed");
    assert_tier_in(&base, 0);
    assert!(!base.join("shard-1").exists(), "shard 1 shares shard 0's engine and tier");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn a_two_mutation_batch_is_one_wal_record_for_the_whole_cluster() {
    let base = temp_dir("one-record");
    let router = partitioned(2);
    router.attach_disk_tier(&base, &tier()).unwrap();
    router.apply_batch(durable_author_batch()).unwrap();
    let stats = router.stats();
    assert_eq!(stats.total(|s| s.disk.map_or(0, |d| d.wal_appends)), 1);
    assert!(stats.per_shard[0].disk.expect("shard 0 owns the tier").wal_bytes > 0);
    assert!(stats.per_shard[1].disk.is_none(), "the shared tier is reported once");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn a_rebuilt_partitioned_cluster_replays_one_log_and_answers_byte_identically() {
    let base = temp_dir("recover");
    let kw = existing_keyword(&build_engine(&DblpConfig::tiny()));
    let answers = |router: &ClusterRouter| {
        fingerprint(&router.query(&kw, QueryOptions::default()).unwrap())
            + &fingerprint(&router.query("Durable", QueryOptions::default()).unwrap())
    };

    let router = partitioned(2);
    router.attach_disk_tier(&base, &tier()).unwrap();
    router.apply_batch(durable_author_batch()).unwrap();
    let survivor = answers(&router);

    // Crash the whole cluster; rebuild from the same base + directory.
    drop(router);
    let rebuilt = partitioned(2);
    let reports = rebuilt.attach_disk_tier(&base, &tier()).unwrap();
    let replayed: Vec<_> =
        reports.iter().map(|r| (r.batches_replayed, r.mutations_replayed)).collect();
    assert_eq!(replayed, [(1, 2)], "one log, replayed once");
    assert!(!reports[0].wal_tail_damaged);
    assert_eq!(answers(&rebuilt), survivor, "recovery is byte-identical on every shard");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn each_tenant_logs_pages_and_recovers_its_own_writes_in_its_own_directory() {
    let base = temp_dir("tenants");
    let a = {
        let engine = build_engine(&DblpConfig::tiny());
        max_pk(engine.db(), "Author")
    };
    let router = tenants();
    let reports = router.attach_disk_tier(&base, &tier()).unwrap();
    assert_eq!(reports.len(), 2, "one report per tenant engine");
    assert_tier_in(&base, 0);
    assert_tier_in(&base, 1);

    router
        .apply_batch_grouped(vec![
            (
                "acme".into(),
                Mutation::insert("Author", vec![Value::Int(a + 1), "Acme Ledger".into()]),
            ),
            (
                "acme".into(),
                Mutation::insert("Author", vec![Value::Int(a + 2), "Acme Quill".into()]),
            ),
            (
                "globex".into(),
                Mutation::insert("Author", vec![Value::Int(a + 1), "Globex Ledger".into()]),
            ),
        ])
        .unwrap();
    for (i, per_shard) in router.stats().per_shard.iter().enumerate() {
        assert_eq!(per_shard.disk.expect("every tenant owns a tier").wal_appends, 1, "tenant {i}");
    }

    drop(router);
    let rebuilt = tenants();
    let reports = rebuilt.attach_disk_tier(&base, &tier()).unwrap();
    let replayed: Vec<_> =
        reports.iter().map(|r| (r.batches_replayed, r.mutations_replayed)).collect();
    assert_eq!(replayed, [(1, 2), (1, 1)], "each tenant replays its own log");
    let opts = QueryOptions { l: 8, ..Default::default() };
    let hits = |tenant: &str, kw: &str| rebuilt.query_tenant(tenant, kw, opts).unwrap().len();
    assert_eq!((hits("acme", "Acme"), hits("acme", "Globex")), (2, 0));
    assert_eq!((hits("globex", "Globex"), hits("globex", "Acme")), (1, 0));
    std::fs::remove_dir_all(&base).ok();
}
