//! Runs of this same build, each in its own process (`peak_rss_mb` is
//! a per-process high-water mark): the all-workloads run, and
//! `benchmark aa`, which compares alternating sets of runs and fails
//! when two sets of the *same* code disagree by more than a gated
//! metric's bound — the check that says the bounds are wider than the
//! noise. The figures without a bound are tabled too, so the table also
//! says how far this machine moves them on its own.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::hist::median;
use crate::metrics::{END_TO_END, PER_LAYER, UNGATED};
use crate::workload::Workload;
use crate::Args;

/// One finished child run: its metric values by name.
type Metrics = BTreeMap<String, f64>;

/// Runs one workload in a child process, passing its output through,
/// and reads its metric lines (`name value unit  # ...`). A run that
/// failed an op or an oracle exits non-zero, so a zero exit is a
/// correct run.
fn spawn_run(
    w: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    echo: bool,
) -> Result<Metrics, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{stdout}");
    }
    if !out.status.success() {
        return Err(format!("{} seed {seed}: the run exited with {}", w.name(), out.status));
    }
    Ok(stdout.lines().filter_map(metric_line).collect())
}

/// `name value unit ...` of one metric line; `None` for a `# `
/// diagnostic and for the JSON result line.
fn metric_line(line: &str) -> Option<(String, f64)> {
    let mut words = line.split_whitespace();
    let name = words.next().filter(|n| !n.starts_with(['#', '{']))?;
    Some((name.to_owned(), words.next()?.parse().ok()?))
}

/// Every workload once, one process each.
pub fn run_all(args: &Args) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for w in Workload::ALL {
        if let Err(e) = spawn_run(w, args.seed, args.seconds, args.trace, true) {
            eprintln!("benchmark: {e}");
            code = ExitCode::FAILURE;
        }
    }
    code
}

/// How far apart two medians are, as a share of the smaller.
fn gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.min(b)
}

/// `benchmark aa`: `--sets` alternating sets of `--runs` runs per
/// workload; per workload and metric the sets' medians, the widest gap
/// between any two of them, and the bound (or that there is none).
/// Fails if a gap exceeds its bound.
pub fn compare(args: &Args) -> ExitCode {
    let mut failures = 0;
    println!(
        "| workload | metric | {} | gap | bound | |",
        (0..args.sets).map(|s| format!("set {s} median")).collect::<Vec<_>>().join(" | ")
    );
    println!("|---|---|{}---|---|---|", "---|".repeat(args.sets));
    for w in Workload::ALL {
        // sets[s][metric] = that set's values, one per run.
        let mut sets: Vec<BTreeMap<String, Vec<f64>>> = vec![BTreeMap::new(); args.sets];
        for run in 0..args.runs {
            for (s, set) in sets.iter_mut().enumerate() {
                // Both sets see the same seeds, so a gap is noise, not input.
                match spawn_run(w, args.seed + run as u64, args.seconds, false, false) {
                    Ok(metrics) => {
                        for (name, value) in metrics {
                            set.entry(name).or_default().push(value);
                        }
                    }
                    Err(e) => {
                        eprintln!("benchmark aa: set {s} run {run}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        let gated = END_TO_END.iter().map(|m| (m.name, m.unit, Some(m.bound)));
        let ungated = PER_LAYER[..UNGATED].iter().map(|m| (m.name, m.unit, None));
        for (name, unit, bound) in gated.chain(ungated) {
            let medians: Vec<f64> = sets
                .iter()
                .map(|set| median(&set[name]).expect("every run reports every metric"))
                .collect();
            let widest = medians
                .iter()
                .flat_map(|&a| medians.iter().map(move |&b| gap(a, b)))
                .fold(0.0, f64::max);
            let ok = bound.is_none_or(|b| widest <= b);
            failures += u32::from(!ok);
            println!(
                "| {} | {name} ({unit}) | {} | {:.1}% | {} | {} |",
                w.name(),
                medians.iter().map(|v| format!("{v:.2}")).collect::<Vec<_>>().join(" | "),
                widest * 100.0,
                bound.map_or("none".to_owned(), |b| format!("{:.0}%", b * 100.0)),
                match (bound, ok) {
                    (None, _) => "not gated",
                    (Some(_), true) => "ok",
                    (Some(_), false) => "EXCEEDED",
                },
            );
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark aa: {failures} gaps exceed their bounds");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_are_read_and_everything_else_skipped() {
        let line = "ops_per_s   62017.7038 1/s    # higher is better, may worsen by 20%";
        assert_eq!(metric_line(line), Some(("ops_per_s".to_owned(), 62017.7038)));
        assert_eq!(metric_line("# per slice, ops/s: [1.0, 2.0]"), None);
        assert_eq!(metric_line("{\"correct\": true, \"attempted\": 5}"), None);
        assert_eq!(metric_line(""), None);
    }

    #[test]
    fn gap_is_relative_to_the_smaller_median() {
        assert_eq!(gap(100.0, 110.0), 0.1);
        assert_eq!(gap(110.0, 100.0), 0.1);
        assert_eq!(gap(5.0, 5.0), 0.0);
    }
}
