//! The disk tier of the router's one engine: it logs and checkpoints in
//! `shard-0` alone and pays one WAL record a batch. A rebuilt router
//! that re-attaches the same base directory replays the log against its
//! engine and answers byte-identically to the survivor.

mod common;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use common::{build_engine, existing_keyword, fingerprint, replicas};
use sizel_cluster::{ClusterConfig, ClusterRouter};
use sizel_core::engine::QueryOptions;
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
    // The directory is replaced per engine by the router.
    DiskTierConfig {
        paged_tables: vec!["AuthorPaper".into()],
        ..DiskTierConfig::new(PathBuf::new())
    }
}

fn partitioned(shards: usize) -> ClusterRouter {
    ClusterRouter::partitioned(replicas(&DblpConfig::tiny(), shards), ClusterConfig::default())
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
    let disk = router.stats().per_shard[0].disk.expect("shard 0 owns the tier");
    assert_eq!(disk.store.generation, 1, "one checkpoint, at attach");
    assert!(disk.store.lists > 0, "the segment holds AuthorPaper's lists");
    assert_eq!(disk.store.cache, Default::default(), "no block cache counts anything");
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
    assert_eq!(stats.per_shard[0].disk.map_or(0, |d| d.wal_appends), 1);
    assert!(stats.per_shard[0].disk.expect("shard 0 owns the tier").wal_bytes > 0);
    assert_eq!(stats.per_shard.len(), 1, "one server reports the one tier");
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
