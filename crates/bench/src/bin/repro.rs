//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p sizel-bench --bin repro -- all            # everything
//! cargo run --release -p sizel-bench --bin repro -- fig9 --quick  # one figure, small DBs
//! ```
//!
//! Subcommands: `all`, `fig8`, `fig9`, `fig10`, `fig10e`, `fig10f`,
//! `show-gds`, `show-ga`, `example45`, `snippet-baseline`,
//! `datagraph-stats`, `ablations`, `calibrate`, `consecutive`,
//! `wordbudget`, and `footprint` (one engine's resident memory stage by
//! stage; not part of `all` — it measures a fresh process).
//!
//! `--quick` switches to the small test databases (seconds instead of
//! minutes); the default is the calibrated benchmark scale recorded in
//! EXPERIMENTS.md.

use std::io::Write as _;
use std::time::Instant;

use sizel_bench::{figures, Bench};

const USAGE: &str = "usage: repro <all|fig8|fig9|fig10|fig10e|fig10f|show-gds|show-ga|example45|snippet-baseline|datagraph-stats|ablations|calibrate|consecutive|wordbudget|footprint> [--quick]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let commands: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(|s| s.as_str()).collect();
    let command = *commands.first().unwrap_or(&"all");

    if command == "footprint" {
        // Before any workbench exists: the report reads this process's RSS.
        println!("{}", figures::footprint());
        return;
    }

    let known = [
        "all",
        "fig8",
        "fig9",
        "fig10",
        "fig10e",
        "fig10f",
        "show-gds",
        "show-ga",
        "example45",
        "snippet-baseline",
        "datagraph-stats",
        "ablations",
        "calibrate",
        "consecutive",
        "wordbudget",
    ];
    if !known.contains(&command) {
        eprintln!("unknown subcommand `{command}`\n{USAGE}");
        std::process::exit(2);
    }

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let t0 = Instant::now();
    writeln!(
        out,
        "# Size-l OS reproduction harness ({} scale)\n",
        if quick { "quick" } else { "benchmark" }
    )
    .expect("stdout");
    let bench = Bench::new(quick);
    writeln!(
        out,
        "workbench ready in {:.1}s — DBLP {} tuples, TPC-H {} tuples\n",
        t0.elapsed().as_secs_f64(),
        bench.dblp.db.total_tuples(),
        bench.tpch.db.total_tuples()
    )
    .expect("stdout");

    let mut run = |name: &str, f: &dyn Fn(&Bench) -> String| {
        if command == "all" || command == name {
            let t = Instant::now();
            let body = f(&bench);
            writeln!(out, "{body}").expect("stdout");
            writeln!(out, "[{name} done in {:.1}s]\n", t.elapsed().as_secs_f64()).expect("stdout");
        }
    };

    run("calibrate", &figures::calibrate);
    run("show-gds", &figures::show_gds);
    run("show-ga", &figures::show_ga);
    run("example45", &figures::example45);
    run("fig8", &figures::fig8);
    run("fig9", &figures::fig9);
    run("fig10", &figures::fig10);
    run("fig10e", &figures::fig10e);
    run("fig10f", &figures::fig10f);
    run("snippet-baseline", &figures::snippet_baseline);
    run("datagraph-stats", &figures::datagraph_stats);
    run("ablations", &figures::ablations);
    run("consecutive", &figures::consecutive);
    run("wordbudget", &figures::wordbudget);
}
