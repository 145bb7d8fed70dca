//! Allocation-count guard for the importance-order install: sorting the
//! FK runs and pre-joining the link postings of a loaded database
//! (`sizel_rank::install_importance_order`) allocates a number of blocks
//! fixed by the schema — a score snapshot per table, a target buffer per
//! junction, a directory and an arena per link orientation — and none
//! per key or per row. The FK runs are sorted where they lie, not
//! copied, so two databases of the same schema, one thirteen times the
//! other, install with the same count: 19 on the DBLP schema. Beside it, the PK index's bytes: row-id slots, at
//! most 8 B a live row over the database.
//!
//! A counting wrapper around the system allocator is installed for this
//! test binary. Keep this file to a SINGLE `#[test]`: the counter is
//! process-global, and a concurrently running test in the same binary
//! would pollute the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sizel_datagen::dblp::{generate, DblpConfig};
use sizel_graph::{DataGraph, SchemaGraph};
use sizel_rank::{compute, dblp_ga, install_importance_order, GaPreset, RankConfig};

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
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations one install makes over a loaded, shrunk `cfg` database,
/// with the database's tuple and FK-key counts, after checking its PK
/// index bytes.
fn install_allocations(cfg: &DblpConfig) -> (u64, usize, usize) {
    let mut db = generate(cfg).db;
    db.shrink_to_fit();
    let (pk_bytes, live) = db
        .tables()
        .map(|(_, t)| (t.index_bytes()[0].1, t.live_len()))
        .fold((0, 0), |(b, n), (tb, tn)| (b + tb, n + tn));
    eprintln!("install_alloc_guard: PK index {pk_bytes} B over {live} live rows");
    assert!(pk_bytes <= 8 * live, "the PK index takes {pk_bytes} B for {live} live rows");
    let sg = SchemaGraph::from_database(&db);
    let dg = DataGraph::build(&db, &sg);
    let authority = dblp_ga(GaPreset::Ga1, &db, &sg, &dg);
    let mut scores = compute(&db, &sg, &dg, &authority, &RankConfig::default());
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    install_importance_order(&mut db, &dg, &mut scores);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    let keys =
        db.tables().flat_map(|(_, t)| t.sorted_fk_indexes().map(|(_, idx)| idx.key_count())).sum();
    (allocations, db.total_tuples(), keys)
}

#[test]
fn the_install_allocates_per_index_not_per_key() {
    let (tiny, tiny_rows, tiny_keys) = install_allocations(&DblpConfig::tiny());
    let (small, small_rows, small_keys) = install_allocations(&DblpConfig::small());
    eprintln!(
        "install_alloc_guard: {tiny} allocations over {tiny_rows} rows / {tiny_keys} keys, \
         {small} over {small_rows} rows / {small_keys} keys"
    );
    assert!(small_rows > 10 * tiny_rows && small_keys > 5 * tiny_keys, "the two sizes differ");
    assert_eq!(
        small, tiny,
        "the install allocated {tiny} times over {tiny_keys} FK keys and {small} times over \
         {small_keys}: something allocates per key or per row"
    );
    assert!(small <= 20, "the install allocated {small} times on the DBLP schema (cap 20)");
}
