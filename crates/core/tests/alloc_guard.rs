//! Allocation-count guard for the flat CSR arena (ISSUE 3 / ROADMAP hot
//! path): once its pool is warm, `generate_os_pooled` must perform **zero
//! heap allocations** on the DBLP fixture — the whole point of replacing
//! the per-node `children: Vec` layout. Extended by ISSUE 4 to the query
//! path end-to-end: building an [`OsContext`] through the engine is
//! allocation-free (it only borrows: a junction step reads its edges off
//! the GDS node and its rows off the FK runs), and a warm
//! `SizeLEngine::summarize` costs a *constant* number of allocations per
//! call (only the returned `QueryResult`'s own buffers), independent of
//! how many queries ran before.
//!
//! A counting wrapper around the system allocator is installed for this
//! test binary. Keep this file to a SINGLE `#[test]`: the counter is
//! process-global, and a concurrently running test in the same binary
//! would pollute the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sizel_core::engine::{EngineConfig, QueryOptions, SizeLEngine};
use sizel_core::os::OsArenaPool;
use sizel_core::osgen::generate_os_pooled;
use sizel_core::prelim::generate_prelim_pooled;
use sizel_core::test_fixtures::dblp_fixture;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the counter is a relaxed
// atomic with no allocation of its own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that moves is an allocation for our purposes: a warm
        // steady state must not grow any buffer.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn generate_os_steady_state_does_zero_allocations() {
    let f = dblp_fixture();
    let ctx = f.ctx();
    let subjects: Vec<_> = (0..4).map(|i| f.author_tds(i)).collect();
    // Complete OSs, uncut and cut at depth 9, then prelim-l OSs.
    let forms = [(None, None), (Some(9), None), (None, Some(5)), (None, Some(15))];
    // With the arena and the probe scratch pooled, generation and reading
    // its cost record touch no allocator.
    let generate = |tds, (cutoff, prelim): (Option<u32>, Option<usize>), pool: &mut OsArenaPool| {
        let os = match prelim {
            Some(l) => generate_prelim_pooled(&ctx, tds, l, Default::default(), pool).0,
            None => generate_os_pooled(&ctx, tds, cutoff, Default::default(), pool),
        };
        std::hint::black_box(pool.last_cost());
        os
    };

    // Warm the pool: the arena, BFS queue, and fetch buffers grow to the
    // workload's high-water capacity during the first pass.
    let mut pool = OsArenaPool::new();
    let mut warm_nodes = 0usize;
    for &tds in &subjects {
        for form in forms {
            let os = generate(tds, form, &mut pool);
            warm_nodes += os.len();
            pool.release(os);
        }
    }
    assert!(warm_nodes > 100, "fixture too small to make the guard meaningful");

    // Steady state: the same serving loop, measured.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut steady_nodes = 0usize;
    for _ in 0..5 {
        for &tds in &subjects {
            for form in forms {
                let os = generate(tds, form, &mut pool);
                steady_nodes += os.len();
                pool.release(os);
            }
        }
    }
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(steady_nodes, 5 * warm_nodes, "steady state regenerates the same trees");
    assert_eq!(
        delta, 0,
        "OS generation steady state allocated {delta} times over {steady_nodes} nodes \
         (the CSR arena + pool must be allocation-free once warm)"
    );

    // --- ISSUE 4: the query path end-to-end ------------------------------
    // Context construction through the engine borrows the precomputed
    // link table: zero allocations per query.
    let engine = SizeLEngine::build(
        sizel_datagen::dblp::generate(&sizel_datagen::dblp::DblpConfig::tiny()).db,
        |db, sg, dg| sizel_rank::dblp_ga(sizel_rank::GaPreset::Ga1, db, sg, dg),
        EngineConfig::new(vec![
            ("Author".into(), sizel_graph::presets::dblp_author_gds_config()),
            ("Paper".into(), sizel_graph::presets::dblp_paper_gds_config()),
        ]),
    )
    .expect("engine builds");
    let author = engine.db().table_id("Author").unwrap();
    let tds = sizel_storage::TupleRef::new(author, sizel_storage::RowId(0));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..16 {
        let ctx = engine.context(author);
        std::hint::black_box(&ctx);
    }
    let ctx_delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        ctx_delta, 0,
        "OsContext construction allocated {ctx_delta} times over 16 queries \
         (the link table must be borrowed from the engine, not rebuilt per query)"
    );

    // A warm summarize costs a constant number of allocations per call —
    // only the materialized QueryResult — with no growth across calls.
    let opts = QueryOptions { l: 10, ..QueryOptions::default() };
    for _ in 0..3 {
        std::hint::black_box(engine.summarize(tds, opts)); // warm pool + scratch
    }
    let mut per_call = Vec::new();
    for _ in 0..6 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        std::hint::black_box(engine.summarize(tds, opts));
        per_call.push(ALLOCATIONS.load(Ordering::SeqCst) - before);
    }
    assert!(
        per_call.windows(2).all(|w| w[0] == w[1]),
        "summarize allocation count must be steady, got {per_call:?}"
    );
    eprintln!("alloc_guard: warm summarize allocates {} times per call", per_call[0]);
    // Measured on this fixture: 125 per call when the size-l algorithms
    // allocated their DP/greedy working sets per call, 57 with the
    // thread-local `AlgoScratch`, 10 once the TOP-l probe buffers were
    // pooled (`FetchScratch` through `select_eq_top_l_into` and the
    // junction scans), 9 once the prelim top-l PQ joined the pool, 4 once
    // `Os::project` wrote the summary into one packed slab instead of a
    // node Vec, three CSR Vecs and a HashSet and id map of scratch, and 3
    // once the label was written at its exact size and the slab became the
    // selection too. What remains: the label, the size-l algorithm's
    // selection vector (dropped once projected) and the slab. The cap is
    // the measured count: it guards against per-call scratch — or a
    // per-query derived-state rebuild — creeping back into the serving
    // path. The fixture's OSs are far under `POOL_NODES_MAX`, so the
    // pool and scratch stay warm across calls.
    assert!(
        per_call[0] <= 3,
        "summarize allocated {} times per call (measured baseline 3) — per-call scratch \
         crept back into the serving path",
        per_call[0]
    );
}
