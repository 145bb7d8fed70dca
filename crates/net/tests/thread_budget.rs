//! The thread inventory DESIGN.md states, pinned: a default two-shard
//! stack runs one reactor thread per core and the cluster's refresh
//! worker — no I/O thread beside the reactors, no dispatch pool, and
//! nothing from the serve layer. A single-test file, so no sibling
//! test's stack shares the process while it counts.
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
    let reactors = cfg.dispatch_workers;
    // The reactors and the refresh worker.
    let budget = reactors + 1;
    let cores = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    assert_eq!(reactors, cores, "one reactor per core by default");
    let _server = serve(router, cfg);

    // A spawned thread names itself as it starts and carries its
    // parent's name until then: read until the whole budget has.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let names = loop {
        let names = thread_names();
        if count_threads(&names, "sizel-") >= budget || std::time::Instant::now() > deadline {
            break names;
        }
        std::thread::yield_now();
    };
    assert_eq!(count_threads(&names, "sizel-net-"), reactors, "{names:?}");
    assert_eq!(count_threads(&names, "sizel-cluster-r"), 1, "{names:?}");
    assert_eq!(count_threads(&names, "sizel-serve"), 0, "{names:?}");
    assert_eq!(count_threads(&names, "sizel-"), budget, "no other program thread: {names:?}");
}
