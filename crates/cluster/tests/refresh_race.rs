//! Regression suite for the `RefreshWorker` shutdown/notify races
//! (ISSUE 7 satellite): epoch bumps hammered against worker drops.
//!
//! The audited hazards (see `refresh.rs` module docs):
//! * a notify landing between the `wait_timeout` wake and re-lock must
//!   never be lost (at worst it causes one redundant sweep);
//! * `Drop` racing a sweep in flight must neither deadlock, nor abort
//!   the process via a drop-time panic, nor leave the worker thread
//!   running (drop joins it);
//! * the drop-time `notify` must survive a poisoned signal lock (the
//!   pre-fix code `expect`ed on it and a poisoned lock during unwind
//!   aborted the whole process).
//!
//! The tests are timing-hammers: many rounds of build → bump → drop with
//! a near-zero sweep interval, so drops land before, during, and after
//! sweeps. They assert completion (no deadlock/abort), response
//! correctness while the worker lives, and lag convergence when the
//! stream quiesces.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sizel_cluster::{ClusterConfig, ClusterRouter, RefreshConfig};
use sizel_core::engine::QueryOptions;
use sizel_core::test_fixtures::max_pk;
use sizel_datagen::dblp::DblpConfig;
use sizel_serve::{Mutation, ServeConfig};
use sizel_storage::Value;

mod common;
use common::{existing_keyword, replicas};

fn small_serve() -> ServeConfig {
    ServeConfig { cache_capacity: 128, cache_shards: 4, hot_capacity: 16 }
}

/// Build → hammer epoch bumps (each one a notify) → drop the router
/// while the worker is likely mid-sweep. Many rounds with a ~zero
/// interval so the drop lands at every phase of the worker's loop.
#[test]
fn dropping_the_worker_while_hammering_epoch_bumps_never_hangs_or_aborts() {
    let cfg = DblpConfig::tiny();
    for round in 0..12 {
        let cluster = Arc::new(
            ClusterRouter::partitioned(
                replicas(&cfg, 2),
                ClusterConfig {
                    serve: small_serve(),
                    // A near-zero interval keeps the worker sweeping
                    // continuously, maximizing the drop-mid-sweep window.
                    refresh: Some(RefreshConfig {
                        budget: 8,
                        interval: Duration::from_micros(200),
                    }),
                },
            )
            .expect("cluster builds"),
        );
        let kw = existing_keyword(&cluster.shard(0).engine());
        let opts = QueryOptions { l: 6, ..Default::default() };
        // Prime hotness so every sweep has keys to re-warm (a sweep that
        // does real work is the one a drop can interrupt).
        cluster.query(&kw, opts).expect("prime query");

        let (a, p, j) = {
            let engine = cluster.shard(0).engine();
            (
                max_pk(engine.db(), "Author"),
                max_pk(engine.db(), "Paper"),
                max_pk(engine.db(), "AuthorPaper"),
            )
        };
        // Burst of epoch bumps; each apply notifies the worker.
        for i in 0..4i64 {
            cluster
                .apply_batch(vec![
                    Mutation::insert(
                        "Author",
                        vec![Value::Int(a + 1 + i), format!("Race Author{round}_{i}").into()],
                    ),
                    Mutation::insert(
                        "AuthorPaper",
                        vec![Value::Int(j + 1 + i), Value::Int(a + 1 + i), Value::Int(p)],
                    ),
                ])
                .expect("bump applies");
            // Queries interleaved with bumps keep the hot sketch and the
            // cache live mid-sweep.
            cluster.query(&kw, opts).expect("query during bumps");
        }
        // Drop immediately after the last notify: the worker is either
        // about to wake, mid-wake, or mid-sweep. The test's assertion is
        // that this line *returns* (join, no deadlock) and the process
        // survives (no drop-time panic/abort).
        drop(cluster);
    }
}

/// Quiesced stream: once bumps stop, the worker's exported last-seen
/// epochs converge to the shards' — refresh lag reaches zero, proving no
/// notify was lost in the wake/re-lock window.
#[test]
fn notifies_are_never_lost_and_lag_converges_to_zero() {
    let cfg = DblpConfig::tiny();
    let cluster = ClusterRouter::partitioned(
        replicas(&cfg, 2),
        ClusterConfig {
            serve: small_serve(),
            refresh: Some(RefreshConfig { budget: 8, interval: Duration::from_millis(5) }),
        },
    )
    .expect("cluster builds");
    let kw = existing_keyword(&cluster.shard(0).engine());
    let opts = QueryOptions { l: 6, ..Default::default() };
    cluster.query(&kw, opts).expect("prime query");

    let (a, p, j) = {
        let engine = cluster.shard(0).engine();
        (
            max_pk(engine.db(), "Author"),
            max_pk(engine.db(), "Paper"),
            max_pk(engine.db(), "AuthorPaper"),
        )
    };
    for i in 0..6i64 {
        cluster
            .apply_batch(vec![
                Mutation::insert(
                    "Author",
                    vec![Value::Int(a + 1 + i), format!("Lag Author{i}").into()],
                ),
                Mutation::insert(
                    "AuthorPaper",
                    vec![Value::Int(j + 1 + i), Value::Int(a + 1 + i), Value::Int(p)],
                ),
            ])
            .expect("bump applies");
        cluster.query(&kw, opts).expect("query during bumps");
    }

    // The stream has quiesced; the worker must catch up to the final
    // epoch on every shard within a few sweep intervals.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = cluster.stats();
        let caught_up = stats
            .epochs
            .iter()
            .zip(&stats.refresh.last_epochs)
            .all(|(epoch, &last)| epoch.get() == last);
        if caught_up {
            assert_eq!(stats.refresh.last_epochs.len(), 2, "one exported epoch per shard");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "refresh worker never caught up: epochs {:?} vs last seen {:?}",
            stats.epochs,
            stats.refresh.last_epochs
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}
