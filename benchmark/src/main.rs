//! `benchmark` — the repository's measuring stick.
//!
//! ```text
//! benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! benchmark [--seed <u64>] [--seconds <n>] [--trace <0|1>]      # all five workloads
//! benchmark aa [--sets 2] [--runs 3] [--seed <u64>] [--seconds <n>]
//! benchmark json                                                # BENCHMARK.json
//! ```
//!
//! One run builds the stack, warms it up, measures one workload for
//! `--seconds`, checks the program's outputs, and prints every metric
//! by name with its unit; the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the gated end-to-end ones (the window's
//! throughput, latency and CPU figures are printed beside them, without
//! a bound), with `--trace 1` the per-layer ones (and the spans go to
//! `<target dir>/benchmark/trace_<workload>.json`). It touches no
//! program source: every layer is measured from outside, through its
//! public functions. See `README.md` beside `Cargo.toml`.

mod aa;
mod counters;
mod direct;
mod hist;
mod ladder;
mod load;
mod metrics;
mod oracle;
mod run;
mod stack;
mod stream;
mod sys;
mod trace;
mod workload;

use std::process::ExitCode;

use sizel_datagen::dblp::DblpConfig;

use run::{RunConfig, RunOutput};
use workload::Workload;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// `run_seconds` of `BENCHMARK.json`: the window when `--seconds` is
/// not given.
pub const RUN_SECONDS: u64 = 12;
/// Requests each level of the traced ladder replays.
pub const LADDER_REQUESTS: usize = 1000;

const USAGE: &str =
    "usage: benchmark [aa | json] [--workload <name>] [--seed <u64>] [--seconds <n>] \
                     [--trace <0|1>] [--sets <n>] [--runs <n>]\n\
                     workloads: hot_read cold_read paged_read mixed_rw embed_hot";

/// Parsed command line.
pub struct Args {
    /// `aa` given: compare sets of runs of this same build.
    pub aa: bool,
    /// One workload, or all five when absent.
    pub workload: Option<Workload>,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// `--trace`.
    pub trace: bool,
    /// `--sets` (aa).
    pub sets: usize,
    /// `--runs` (aa).
    pub runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        aa: false,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        sets: 2,
        runs: 3,
    };
    let mut it = args.iter().peekable();
    if it.next_if(|a| *a == "aa").is_some() {
        out.aa = true;
    }
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag} {value}: not a whole number"));
        match flag.as_str() {
            "--workload" => {
                out.workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => out.seed = number()?,
            "--seconds" => out.seconds = number()?.max(1),
            "--trace" => out.trace = number()? != 0,
            "--sets" => out.sets = number()?.max(2) as usize,
            "--runs" => out.runs = number()?.max(1) as usize,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// The result line: one JSON object, the last line of standard output.
pub fn result_line(out: &RunOutput) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        plan: load::Plan::for_seconds(args.seconds as f64),
        trace: args.trace,
        db: DblpConfig::bench(),
        ladder_requests: LADDER_REQUESTS,
    };
    println!(
        "# workload {} seed {} window {} s trace {} ({} cores)",
        workload.name(),
        cfg.seed,
        args.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    match run::run(&cfg) {
        Ok(out) => {
            for note in &out.notes {
                println!("# {note}");
            }
            for m in out.metrics.iter().chain(&out.ungated) {
                println!(
                    "{:<30} {:>14.4} {:<5}  # {}",
                    m.name,
                    m.value,
                    m.unit,
                    metrics::describe(m.name)
                );
            }
            println!("{}", result_line(&out));
            if out.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("benchmark: {} failed ops or an oracle mismatch", out.failed);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["json"] {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.aa, args.workload) {
        (true, _) => aa::compare(&args),
        (false, Some(w)) => run_one(w, &args),
        (false, None) => aa::run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER, UNGATED};

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = args("--workload cold_read --seed 9 --seconds 4 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::ColdRead));
        assert_eq!((a.seed, a.seconds, a.trace, a.aa), (9, 4, true, false));
        let a = args("aa --sets 3 --runs 5").unwrap();
        assert!(a.aa && a.workload.is_none());
        assert_eq!((a.sets, a.runs, a.seconds), (3, 5, RUN_SECONDS));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--frobnicate 1").is_err());
    }

    /// Every workload end to end on the small database with 1 s
    /// windows, both modes: every named metric present and finite, the
    /// oracles hold, the result line and the trace file have their
    /// shape. A debug build, so it checks shape, not speed.
    #[test]
    fn smoke_every_workload_reports_every_metric() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let cfg = RunConfig {
                    workload,
                    seed: 5,
                    plan: load::Plan {
                        warm_up: std::time::Duration::from_millis(250),
                        window: std::time::Duration::from_secs(1),
                        slices: 4,
                    },
                    trace,
                    db: DblpConfig::small(),
                    ladder_requests: 40,
                };
                let out = run::run(&cfg)
                    .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
                assert!(out.correct, "{} trace={trace}: {:#?}", workload.name(), out.notes);
                assert_eq!(out.failed, 0);
                assert!(out.attempted > 0);
                let want: Vec<&str> = if trace {
                    PER_LAYER.iter().map(|m| m.name).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name).collect()
                };
                let got: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
                assert_eq!(got, want, "{}", workload.name());
                assert!(out.metrics.iter().chain(&out.ungated).all(|m| m.value.is_finite()));
                if !trace {
                    assert!(
                        out.metrics.iter().all(|m| m.value > 0.0),
                        "{}: an end-to-end metric is 0: {:?}",
                        workload.name(),
                        out.metrics
                    );
                    // The figures without a bound are printed, not gated.
                    let beside: Vec<&str> = out.ungated.iter().map(|m| m.name).collect();
                    let head: Vec<&str> = PER_LAYER[..UNGATED].iter().map(|m| m.name).collect();
                    assert_eq!(beside, head, "{}", workload.name());
                }

                let line = result_line(&out);
                let head = format!(
                    "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{\"{}\": {{\"value\": ",
                    out.attempted, want[0]
                );
                assert!(line.starts_with(&head) && line.ends_with("\"}}}"), "{line}");
                assert_eq!(line.matches("\"unit\": ").count(), want.len());
                assert!(!line.contains('\n'));

                if trace {
                    let path =
                        stack::scratch_root().join(format!("trace_{}.json", workload.name()));
                    let text = std::fs::read_to_string(&path).expect("the trace file");
                    let head =
                        format!("{{\"workload\":\"{}\",\"seed\":5,\"spans\":[\n", workload.name());
                    assert!(text.starts_with(&head) && text.ends_with("\n]}\n"), "{path:?}");
                    assert!(text.contains("{\"id\":0,\"req\":0,\"name\":\""));
                }
            }
        }
    }
}
