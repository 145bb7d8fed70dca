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
//! `wordbudget`, and `footprint` (one engine's resident and live heap
//! memory stage by stage; not part of `all` — it measures a fresh
//! process).
//!
//! `--quick` switches to the small test databases (seconds instead of
//! minutes); the default is the calibrated benchmark scale recorded in
//! EXPERIMENTS.md.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use sizel_bench::{figures, Bench};

/// The system allocator, keeping a count of the bytes live on the heap:
/// `footprint` prints it beside `VmRSS`, which also counts freed heap
/// the allocator has kept, so a saving in live bytes and one in
/// allocator placement read apart, and the most bytes live since
/// `footprint` last read that high-water. It also counts the allocations
/// and reallocations of [`LARGE`] bytes or more.
struct LiveCounting;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);
static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// glibc's default mmap threshold: the blocks it `mmap`s unless a free
/// has raised the threshold.
const LARGE: usize = 128 << 10;

/// Counts `size` new bytes live: a growing reallocation's beside its
/// old ones, as a block that moves holds both for a moment.
fn count_alloc(size: usize) {
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    if size >= LARGE {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation to `System`; the counters are relaxed
// atomics with no allocation of their own.
unsafe impl GlobalAlloc for LiveCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A shrinking one holds no second block.
        LIVE_BYTES.fetch_sub(layout.size().saturating_sub(new_size), Ordering::Relaxed);
        if new_size > layout.size() {
            count_alloc(new_size);
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LiveCounting = LiveCounting;

const USAGE: &str = "usage: repro <all|fig8|fig9|fig10|fig10e|fig10f|show-gds|show-ga|example45|snippet-baseline|datagraph-stats|ablations|calibrate|consecutive|wordbudget|footprint> [--quick]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let commands: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(|s| s.as_str()).collect();
    let command = *commands.first().unwrap_or(&"all");

    if command == "footprint" {
        // Before any workbench exists: the report reads this process's RSS.
        println!(
            "{}",
            figures::footprint(
                || LIVE_BYTES.load(Ordering::Relaxed),
                || PEAK_BYTES.swap(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed),
                || LARGE_ALLOCS.load(Ordering::Relaxed)
            )
        );
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
