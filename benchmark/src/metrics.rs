//! The metric registry: every name the benchmark reports, with its
//! unit, direction and — for end-to-end metrics — the bound by which
//! it may worsen before a change counts as a regression.
//! `BENCHMARK.json` is generated from these tables (`benchmark json`
//! prints it, a test compares the file with it); `benchmark aa` checks
//! two sets of runs of one build against the same bounds.

use crate::workload::Workload;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// A smaller value is better.
    Lower,
    /// A larger value is better.
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A metric of a single layer. It has no bound: it explains the
/// end-to-end metrics, it does not gate.
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric (and workload) this one should move —
    /// the prediction, written down before any optimisation is tried.
    pub moves: &'static str,
}

use Better::{Higher, Lower};

/// The gated end-to-end metrics, the same names on every workload — the
/// driver's contract gates a metric on every workload or on none.
///
/// Only what this machine can resolve is gated (README.md, "Noise").
/// The reference machine is two vCPUs of a shared host whose speed
/// moves in episodes of seconds to minutes: one 60 s `hot_read` run of
/// one build reads 60 k and 100 k ops/s in turns, and ten-seed spreads
/// of the throughput, latency and CPU figures reached 22-33 % on
/// `hot_read`, 29-35 % on `cold_read` and 27-88 % on `mixed_rw` in one
/// afternoon, past the contract's ceiling of 0.25 for a bound. A bound
/// under the noise rejects unchanged code, so those figures are
/// reported on every run but not gated: see the head of [`PER_LAYER`].
/// `peak_rss_mb` spreads under 3 % everywhere; `setup_s` takes the
/// largest bound, as the contract asks.
pub const END_TO_END: [EndToEnd; 2] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.10 },
];

/// How many entries at the head of [`PER_LAYER`] are the user-visible
/// figures of the timed window that are reported without a bound. An
/// untraced run prints them too, beside the gated metrics.
pub const UNGATED: usize = 5;

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

const NET: &str = "ops_per_s, cpu_us_per_op, read_p50_us on hot_read and mixed_rw; <=5% of \
                   cold_read; nothing on embed_hot";
const CLUSTER_READ: &str = "read_p50_us on embed_hot and cold_read";
const CLUSTER_WRITE: &str = "write_p50_us and ops_per_s on mixed_rw";
const CORE_COLD: &str = "read_p50_us, read_p95_us, cpu_us_per_op on cold_read";
const OSGEN: &str = "read_p50_us, read_p95_us, cpu_us_per_op on cold_read and paged_read";
const CORE_WRITE: &str = "write_p50_us on mixed_rw";
const SETUP: &str = "setup_s on every workload";
const PAGED: &str = "read_p50_us, ops_per_s, cpu_us_per_op on paged_read only";
const WAL: &str = "write_p50_us on mixed_rw";
const NONE: &str = "none: says whether the other numbers measure the program";

const UNRESOLVED: &str = "what a reader sees; the machine's own swing is wider than any bound \
                          the contract allows, so reported, not gated";

/// The per-layer metrics, from the socket down to the disk — headed
/// by the [`UNGATED`] user-visible figures of the timed window.
pub const PER_LAYER: [PerLayer; 67] = [
    layer("ops_per_s", "1/s", Higher, UNRESOLVED),
    layer("read_p50_us", "us", Lower, UNRESOLVED),
    layer("read_p95_us", "us", Lower, UNRESOLVED),
    layer("cpu_us_per_op", "us", Lower, UNRESOLVED),
    layer(
        "write_p50_us",
        "us",
        Lower,
        "what a writer sees on mixed_rw, 0 elsewhere; a gate covers all workloads or none",
    ),
    layer("net.ping_rtt_us", "us", Lower, NET),
    layer("net.self_us", "us", Lower, NET),
    layer("net.decode_us", "us", Lower, NET),
    layer("net.encode_us", "us", Lower, NET),
    layer("net.reply_bytes_per_op", "B", Lower, NET),
    layer("net.fastpath_share", "ratio", Higher, NET),
    layer("net.shed_share", "ratio", Lower, "must be 0: a shed read is a failed op"),
    layer("net.buf_pool_miss_per_op", "count", Lower, NET),
    layer("net.wakeups_per_op", "count", Lower, NET),
    layer("net.doorbells_per_op", "count", Lower, NET),
    layer("cluster.self_us", "us", Lower, CLUSTER_READ),
    layer("cluster.hits_per_query", "count", Lower, CLUSTER_READ),
    layer("cluster.apply_batch_us", "us", Lower, CLUSTER_WRITE),
    layer("cluster.rewarmed_per_write", "count", Higher, CLUSTER_WRITE),
    layer("serve.probe_hit_us", "us", Lower, "ops_per_s on hot_read"),
    layer("serve.summarize_hit_us", "us", Lower, "read_p50_us on embed_hot"),
    layer("serve.miss_self_us", "us", Lower, "read_p50_us on cold_read"),
    layer("serve.cache_hit_ratio", "ratio", Higher, "read_p50_us, ops_per_s on cold_read"),
    layer("serve.computed_per_op", "count", Lower, "cpu_us_per_op on cold_read and paged_read"),
    layer("serve.evictions_per_op", "count", Lower, "ops_per_s on cold_read"),
    layer("serve.invalidations_per_write", "count", Lower, "ops_per_s on mixed_rw"),
    layer(
        "core.ds_hits_us",
        "us",
        Lower,
        "ops_per_s on hot_read (the inline path runs it per request)",
    ),
    layer("core.summarize_us", "us", Lower, CORE_COLD),
    layer("core.osgen_prelim_us", "us", Lower, OSGEN),
    layer("core.osgen_complete_us", "us", Lower, OSGEN),
    layer("core.algo_us.top_path", "us", Lower, CORE_COLD),
    layer("core.algo_us.bottom_up", "us", Lower, CORE_COLD),
    layer("core.algo_us.optimal", "us", Lower, CORE_COLD),
    layer("core.project_us", "us", Lower, CORE_COLD),
    layer("core.other_share", "ratio", Lower, "the gap summarize - osgen - algo - project"),
    layer("core.input_os_size", "count", Lower, CORE_COLD),
    layer("core.allocs_per_summarize", "count", Lower, CORE_COLD),
    layer("core.apply_batch_us", "us", Lower, CORE_WRITE),
    layer("core.apply_batch_wal_us", "us", Lower, CORE_WRITE),
    layer("core.recover_ms", "ms", Lower, "restart time; nothing in a steady window"),
    layer("core.recover_batches", "count", Lower, "the WAL length core.recover_ms replayed"),
    layer("core.engine_build_ms", "ms", Lower, SETUP),
    layer("graph.data_graph_build_ms", "ms", Lower, "setup_s everywhere; write_p50_us on mixed_rw"),
    layer("rank.compute_ms", "ms", Lower, SETUP),
    layer("datagen.generate_ms", "ms", Lower, SETUP),
    layer("storage.probe_ram_ns", "ns", Lower, "reference for the disk probes"),
    layer("storage.tuples_per_op", "count", Lower, "cpu_us_per_op, read_p50_us on paged_read"),
    layer("storage.joins_per_op", "count", Lower, "cpu_us_per_op, read_p50_us on paged_read"),
    layer("storage.fast_probe_share", "ratio", Higher, "cpu_us_per_op, read_p50_us on paged_read"),
    layer("storage.graph_builds_per_batch", "count", Lower, CORE_WRITE),
    layer("storage.resorts_per_batch", "count", Lower, CORE_WRITE),
    layer("disk.probe_warm_ns", "ns", Lower, PAGED),
    layer("disk.probe_cold_ns", "ns", Lower, PAGED),
    layer("disk.crc32_page_ns", "ns", Lower, PAGED),
    layer("disk.block_hit_ratio", "ratio", Higher, PAGED),
    layer("disk.page_reads_per_op", "count", Lower, PAGED),
    layer("disk.evictions_per_op", "count", Lower, PAGED),
    layer("disk.wal_append_us", "us", Lower, WAL),
    layer("disk.wal_bytes_per_batch", "B", Lower, WAL),
    layer("disk.wal_syncs_per_batch", "count", Lower, WAL),
    layer("disk.checkpoint_ms", "ms", Lower, "setup_s on paged_read"),
    layer("disk.segment_mb", "MB", Lower, "setup_s on paged_read"),
    layer("disk.bytes_per_entry", "B", Lower, "setup_s on paged_read (space amplification)"),
    layer("gen.cpu_share", "ratio", Lower, NONE),
    layer("gen.writer_late_share", "ratio", Lower, NONE),
    layer("trace.overhead_share", "ratio", Lower, NONE),
    layer("trace.negative_residuals", "count", Lower, NONE),
];

/// What the registry says about metric `name`, for the printed
/// report: direction and bound, or the end-to-end metric it should move.
pub fn describe(name: &str) -> String {
    if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
        return format!("{} is better, may worsen by {:.0}%", m.better.as_str(), m.bound * 100.0);
    }
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map_or(String::new(), |m| format!("{} is better -> {}", m.better.as_str(), m.moves))
}

/// `command` of `BENCHMARK.json`: the driver appends `--workload`,
/// `--seed`, `--seconds` and `--trace`.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
/// `paths` of `BENCHMARK.json`: this package's directory.
const PATHS: [&str; 1] = ["benchmark"];

/// `BENCHMARK.json`, rendered from the registry. The driver's schema
/// allows a per-layer entry exactly three keys, so the `moves`
/// predictions stay here, in the printed report and in README.md.
pub fn benchmark_json() -> String {
    let quoted =
        |items: &[&str]| items.iter().map(|i| format!("\"{i}\"")).collect::<Vec<_>>().join(", ");
    let list = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = Workload::ALL
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        quoted(&COMMAND),
        quoted(&PATHS),
        crate::RUN_SECONDS,
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric name.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Orders `values` like `names`, failing on a missing or non-finite
/// value: the benchmark reports every metric it names or nothing.
pub fn collect(
    names: impl Iterator<Item = (&'static str, &'static str)>,
    values: &[(&'static str, f64)],
) -> Result<Vec<Sample>, String> {
    names
        .map(|(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            Ok(Sample { name, value, unit })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_orders_and_rejects_gaps() {
        let names = || [("a", "us"), ("b", "s")].into_iter();
        let got = collect(names(), &[("b", 2.0), ("a", 1.0)]).unwrap();
        assert_eq!(got[0], Sample { name: "a", value: 1.0, unit: "us" });
        assert_eq!(got[1].name, "b");
        assert!(collect(names(), &[("a", 1.0)]).unwrap_err().contains("b was not measured"));
        assert!(collect(names(), &[("a", f64::NAN), ("b", 1.0)]).unwrap_err().contains("finite"));
    }

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: unit {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|c| c.len() <= 200));
    }

    /// `benchmark json > BENCHMARK.json` regenerates the file.
    #[test]
    fn benchmark_json_is_the_registry_rendered() {
        let rendered = benchmark_json();
        assert_eq!(include_str!("../../BENCHMARK.json"), rendered);
        assert!(rendered.len() <= 64 * 1024);
        // Names and units are checked above; nothing else rendered
        // needs escaping either.
        let plain = |s: &str| !s.contains(['"', '\\']) && s.chars().all(|c| !c.is_control());
        assert!(Workload::ALL.iter().all(|w| plain(w.why())));
        assert!(COMMAND.iter().chain(&PATHS).all(|s| plain(s)));
    }

    /// Profiles are not inherited across workspace roots, so this
    /// package repeats the root's release profile; build settings change
    /// speed, and the program must be measured as the workspace builds it.
    #[test]
    fn release_profile_is_the_workspace_roots() {
        fn profile(manifest: &str) -> Vec<&str> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim().is_empty() && !l.starts_with('['))
                .collect()
        }
        let root = profile(include_str!("../../Cargo.toml"));
        assert!(!root.is_empty());
        assert_eq!(profile(include_str!("../Cargo.toml")), root);
    }
}
