//! The thread inventory DESIGN.md states, pinned: a default two-shard
//! stack runs one I/O thread, the dispatch pool, and the cluster's
//! refresh worker — the serve layer spawns nothing. A single-test file,
//! so no sibling test's stack shares the process while it counts.
#![cfg(target_os = "linux")]

use std::sync::Arc;

use sizel_cluster::{ClusterConfig, ClusterRouter};
use sizel_datagen::dblp::DblpConfig;
use sizel_net::NetConfig;

mod common;
use common::{replicas, serve};

/// How many live threads of this process carry each name (as the kernel
/// keeps it: truncated to 15 bytes).
fn count_threads(names: &[String], prefix: &str) -> usize {
    names.iter().filter(|n| n.starts_with(prefix)).count()
}

fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("the task directory")
        .map(|task| {
            let comm = task.expect("a task entry").path().join("comm");
            std::fs::read_to_string(comm).expect("a thread name").trim_end().to_owned()
        })
        .collect()
}

#[test]
fn a_default_stack_runs_io_dispatch_and_refresh_threads_only() {
    let router = Arc::new(
        ClusterRouter::partitioned(replicas(&DblpConfig::tiny(), 2), ClusterConfig::default())
            .expect("cluster builds"),
    );
    let cfg = NetConfig::default();
    let dispatch_workers = cfg.dispatch_workers;
    let _server = serve(router, cfg);

    // A spawned thread names itself as it starts and carries its
    // parent's name until then: read until the whole budget has.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let names = loop {
        let names = thread_names();
        if count_threads(&names, "sizel-") >= 2 + dispatch_workers
            || std::time::Instant::now() > deadline
        {
            break names;
        }
        std::thread::yield_now();
    };
    assert_eq!(count_threads(&names, "sizel-net-io"), 1, "{names:?}");
    assert_eq!(count_threads(&names, "sizel-net-worke"), dispatch_workers, "{names:?}");
    assert_eq!(count_threads(&names, "sizel-cluster-r"), 1, "{names:?}");
    assert_eq!(count_threads(&names, "sizel-serve"), 0, "{names:?}");
    assert_eq!(
        count_threads(&names, "sizel-"),
        2 + dispatch_workers,
        "no other program thread: {names:?}"
    );
}
