//! Per-shard disk tiers under the cluster write gate: every replica
//! owns its own WAL + segment directory (`shard-<i>`), logs the same
//! deterministic write stream, and recovers independently — a rebuilt
//! cluster that re-attaches the same base directory replays every
//! shard's WAL and answers byte-identically to the survivor.

mod common;

use std::path::PathBuf;
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

fn cluster(shards: usize) -> ClusterRouter {
    ClusterRouter::partitioned(replicas(&DblpConfig::tiny(), shards), ClusterConfig::default())
        .unwrap()
}

#[test]
fn every_shard_logs_and_pages_in_its_own_directory_and_recovers_replayed() {
    let base = temp_dir("shards");
    let tier = DiskTierConfig {
        dir: PathBuf::new(), // replaced per shard by the router
        cache_pages: 16,
        fsync_every: 1,
        paged_tables: vec!["AuthorPaper".into()],
    };

    let router = cluster(2);
    let reports = router.attach_disk_tier(&base, &tier).unwrap();
    assert_eq!(reports.len(), 2);
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(r.batches_replayed, 0, "fresh directories replay nothing");
        assert!(r.generation > 0, "shard {i} checkpointed its paged table");
        assert!(base.join(format!("shard-{i}")).join("wal.log").is_file());
        assert!(base.join(format!("shard-{i}")).join("segments").is_dir());
    }

    // A write lands in every shard's WAL (replicated stream).
    let kw = {
        let engine = build_engine(&DblpConfig::tiny());
        existing_keyword(&engine)
    };
    let a = 1_000_003;
    router
        .apply_batch(vec![
            Mutation::insert("Author", vec![Value::Int(a), "Durable Author".into()]),
            Mutation::update("Author", a, vec![Value::Int(a), "Durable Author II".into()]),
        ])
        .unwrap();
    let stats = router.stats();
    for per_shard in &stats.per_shard {
        let disk = per_shard.disk.expect("tier attached");
        assert_eq!(disk.wal_appends, 1, "one record per shard for the whole batch");
        assert!(disk.wal_bytes > 0);
    }
    let survivor = fingerprint(&router.query(&kw, QueryOptions::default()).unwrap())
        + &fingerprint(&router.query("Durable", QueryOptions::default()).unwrap());

    // Crash the whole cluster; rebuild from the same bases + directories.
    drop(router);
    let rebuilt = cluster(2);
    let reports = rebuilt.attach_disk_tier(&base, &tier).unwrap();
    for r in &reports {
        assert_eq!((r.batches_replayed, r.mutations_replayed), (1, 2));
        assert!(!r.wal_tail_damaged);
    }
    let recovered = fingerprint(&rebuilt.query(&kw, QueryOptions::default()).unwrap())
        + &fingerprint(&rebuilt.query("Durable", QueryOptions::default()).unwrap());
    assert_eq!(recovered, survivor, "recovery is byte-identical on every shard");
    std::fs::remove_dir_all(&base).ok();
}
