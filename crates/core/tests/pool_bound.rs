//! What a serving thread keeps after a hub: the thread-local OS arena
//! pool and size-l scratch behind `SizeLEngine::summarize` keep room for
//! at most `POOL_NODES_MAX` nodes. After a summarize whose input OS is
//! larger, followed by a small one, the live heap is back within the
//! bound of where the small summaries alone left it.
//!
//! A counting wrapper around the system allocator tracks live bytes for
//! this test binary. Keep this file to a SINGLE `#[test]`: the counter is
//! process-global, and a concurrently running test in the same binary
//! would move it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sizel_core::algo::AlgoKind;
use sizel_core::engine::{EngineConfig, QueryOptions, SizeLEngine};
use sizel_core::os::{OsNode, POOL_NODES_MAX};
use sizel_core::osgen::{generate_os, OsSource};
use sizel_storage::{RowId, TupleRef};

struct LiveCounting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates every operation to `System`; the counter is a relaxed
// atomic with no allocation of its own.
unsafe impl GlobalAlloc for LiveCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LiveCounting = LiveCounting;

#[test]
fn a_hub_summary_leaves_the_thread_pool_within_the_bound() {
    let engine = SizeLEngine::build(
        sizel_datagen::dblp::generate(&sizel_datagen::dblp::DblpConfig::small()).db,
        |db, sg, dg| sizel_rank::dblp_ga(sizel_rank::GaPreset::Ga1, db, sg, dg),
        EngineConfig::new(vec![
            ("Author".into(), sizel_graph::presets::dblp_author_gds_config()),
            ("Paper".into(), sizel_graph::presets::dblp_paper_gds_config()),
        ]),
    )
    .expect("engine builds");
    // The complete OS, cut at depth l - 1 as summarize cuts it, through
    // the DP: the largest scratch a summary draws.
    let opts =
        QueryOptions { l: 30, algo: AlgoKind::Optimal, prelim: false, ..QueryOptions::default() };
    let author = engine.db().table_id("Author").expect("DBLP schema");
    let ctx = engine.context(author);
    let cutoff = Some(opts.l as u32 - 1);
    let mut sizes: Vec<(usize, TupleRef)> = engine
        .db()
        .table(author)
        .live_rows()
        .map(|row: RowId| {
            let tds = TupleRef::new(author, row);
            (generate_os(&ctx, tds, cutoff, OsSource::DataGraph).len(), tds)
        })
        .collect();
    sizes.sort();
    let (hub_nodes, hub) = *sizes.last().expect("authors");
    assert!(hub_nodes > POOL_NODES_MAX, "the fixture's largest OS ({hub_nodes} nodes) is no hub");
    // The smaller half of the authors warm this thread's pool.
    let small: Vec<TupleRef> = sizes[..sizes.len() / 2].iter().map(|&(_, tds)| tds).collect();

    let live = || LIVE.load(Ordering::SeqCst);
    for &tds in &small {
        drop(engine.summarize(tds, opts));
    }
    let baseline = live();
    let hub_result = engine.summarize(hub, opts);
    assert_eq!(hub_result.input_os_size, hub_nodes);
    drop(hub_result);
    drop(engine.summarize(small[0], opts));
    let after = live();

    // One arena's node slab at the bound: what a thread may keep for a
    // small input it served before the hub, and far below what the hub's
    // own arena and scratch hold (over 100 B a node).
    let allowance = POOL_NODES_MAX * size_of::<OsNode>();
    eprintln!(
        "pool_bound: hub {hub_nodes} nodes; live {baseline} B before it, {after} B after \
         (allowance {allowance} B)"
    );
    assert!(
        after <= baseline + allowance,
        "a {hub_nodes}-node summary left {} B live past the baseline (allowance {allowance} B): \
         the thread's pool or scratch kept the hub's high-water",
        after - baseline
    );
}
