//! PR 10 disk-tier benches (EXPERIMENTS.md §PR 10):
//!
//! * `disk/prefix_scan` — the same TOP-l probe served from RAM sorted
//!   postings, from paged segments with a cache too small to keep the
//!   working set (every probe preads), and from paged segments with a
//!   warm cache (every probe hits) — the cost of paging cold tables and
//!   the cost of *not* sizing the cache.
//! * `disk/cache_curve` — one rotating probe mix across block-cache
//!   capacities, tracing the hit curve the residency policy trades on.
//! * `disk/wal_batch` — encode + append + fsync of a 16-mutation batch
//!   record at different fsync batching levels: the write-ahead overhead
//!   every `apply_batch` pays before settlement.
//! * `disk/checkpoint` — one segment checkpoint of the four posting
//!   tables of bench-scale DBLP (tens of thousands of lists averaging
//!   under five entries): what `attach_disk` and every `checkpoint_disk`
//!   pay, with the segment's pages and bytes per posting entry printed.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sizel_core::durability::encode_batch;
use sizel_core::engine::{EngineConfig, Mutation, SizeLEngine};
use sizel_datagen::dblp::{generate, DblpConfig};
use sizel_disk::{PagedStore, Wal, PAGE_SIZE};
use sizel_graph::presets;
use sizel_rank::{dblp_ga, GaPreset};
use sizel_storage::{Database, RowId, TableSchema, Value};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sizel-bench-disk-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Parent/Child with `children` rows spread over 8 parents, importance
/// order installed — big enough that each parent's posting list spans
/// multiple 4 KiB pages.
fn scan_db(children: i64) -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::builder("Parent").pk("id").build().unwrap()).unwrap();
    db.create_table(
        TableSchema::builder("Child").pk("id").fk("parent_id", "Parent").build().unwrap(),
    )
    .unwrap();
    for pk in 0..8 {
        db.insert("Parent", vec![Value::Int(pk)]).unwrap();
    }
    for pk in 0..children {
        db.insert("Child", vec![Value::Int(pk), Value::Int(pk % 8)]).unwrap();
    }
    db.install_importance_order(&|_, r| 1.0 + r.index() as f64);
    db
}

/// A paged clone of `scan_db`: checkpointed, evicted, pager installed.
fn paged_db(children: i64, cache_pages: usize, tag: &str) -> (Database, Arc<PagedStore>, PathBuf) {
    let mut db = scan_db(children);
    let child = db.table_id("Child").unwrap();
    let dir = temp_dir(tag);
    let store = Arc::new(PagedStore::new(&dir, cache_pages).unwrap());
    store.checkpoint_from(&db, &[child]).unwrap();
    db.evict_table_postings(child);
    db.set_pager(Arc::<PagedStore>::clone(&store));
    (db, store, dir)
}

fn probe(db: &Database, key: i64, l: usize) -> usize {
    let child = db.table_id("Child").unwrap();
    let fk = db.table(child).schema.column_index("parent_id").unwrap();
    let token = db.fk_order();
    let li = |r: RowId| db.table(child).installed_score(r);
    db.select_eq_top_l(child, fk, key, l, 0.0, token, &li).len()
}

const CHILDREN: i64 = 40_000; // ~5 pages per parent's FK posting list

fn bench_prefix_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("disk/prefix_scan");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));

    let ram = scan_db(CHILDREN);
    group.bench_function("ram", |b| {
        let mut key = 0i64;
        b.iter(|| {
            key = (key + 1) % 8;
            black_box(probe(black_box(&ram), key, 10))
        })
    });

    // 2 cache pages for a >40-page working set: every page load preads.
    let (cold, store, dir) = paged_db(CHILDREN, 2, "scan-cold");
    group.bench_function("paged_cold", |b| {
        let mut key = 0i64;
        b.iter(|| {
            key = (key + 1) % 8;
            black_box(probe(black_box(&cold), key, 10))
        })
    });
    let s = store.stats();
    eprintln!(
        "paged_cold: hits={} misses={} evictions={} (cache starvation is the point)",
        s.cache.hits, s.cache.misses, s.cache.evictions
    );
    std::fs::remove_dir_all(&dir).ok();

    let (warm, store, dir) = paged_db(CHILDREN, 1024, "scan-warm");
    probe(&warm, 0, 10); // touch once so the working set is resident
    group.bench_function("paged_warm", |b| {
        let mut key = 0i64;
        b.iter(|| {
            key = (key + 1) % 8;
            black_box(probe(black_box(&warm), key, 10))
        })
    });
    let s = store.stats();
    eprintln!("paged_warm: hits={} misses={}", s.cache.hits, s.cache.misses);
    std::fs::remove_dir_all(&dir).ok();
    group.finish();
}

fn bench_cache_curve(c: &mut Criterion) {
    let mut group = c.benchmark_group("disk/cache_curve");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    for cache_pages in [2usize, 8, 32, 128] {
        let (db, store, dir) = paged_db(CHILDREN, cache_pages, "curve");
        group.bench_with_input(BenchmarkId::from_parameter(cache_pages), &cache_pages, |b, _| {
            let mut key = 0i64;
            b.iter(|| {
                key = (key + 1) % 8;
                black_box(probe(black_box(&db), key, 10))
            })
        });
        let s = store.stats();
        let total = s.cache.hits + s.cache.misses;
        let ratio = if total == 0 { 0.0 } else { s.cache.hits as f64 / total as f64 };
        eprintln!("cache_pages={cache_pages}: hit ratio {ratio:.3} over {total} loads");
        std::fs::remove_dir_all(&dir).ok();
    }
    group.finish();
}

/// A representative 16-mutation batch record (~1 KiB encoded).
fn sample_record() -> Vec<u8> {
    let ms: Vec<Mutation> = (0..16)
        .map(|i| {
            Mutation::insert(
                "Child",
                vec![Value::Int(i), Value::Int(i % 8), Value::Text(format!("payload {i}"))],
            )
        })
        .collect();
    encode_batch(7, &ms)
}

fn bench_wal_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("disk/wal_batch");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));

    let record = sample_record();
    group.bench_function("encode_only", |b| {
        let ms: Vec<Mutation> = (0..16)
            .map(|i| Mutation::insert("Child", vec![Value::Int(i), Value::Int(i % 8)]))
            .collect();
        b.iter(|| black_box(encode_batch(black_box(7), black_box(&ms))))
    });
    for fsync_every in [1usize, 8, 64] {
        let dir = temp_dir("wal");
        let path = dir.join(format!("bench-{fsync_every}.wal"));
        let (mut wal, _) = Wal::open(&path, fsync_every).unwrap();
        group.bench_with_input(BenchmarkId::new("append", fsync_every), &fsync_every, |b, _| {
            b.iter(|| {
                // Bound file growth: start over at 64 MiB.
                if wal.len_bytes() > 64 << 20 {
                    wal.truncate().unwrap();
                }
                black_box(wal.append(black_box(&record)).unwrap())
            })
        });
        std::fs::remove_dir_all(&dir).ok();
    }
    group.finish();
}

fn bench_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("disk/checkpoint");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));

    let engine = SizeLEngine::build(
        generate(&DblpConfig::bench()).db,
        |db, sg, dg| dblp_ga(GaPreset::Ga1, db, sg, dg),
        EngineConfig::new(vec![
            ("Author".into(), presets::dblp_author_gds_config()),
            ("Paper".into(), presets::dblp_paper_gds_config()),
        ]),
    )
    .expect("the generated DBLP database builds an engine");
    let db = engine.db();
    let tables = ["AuthorPaper", "Citation", "Paper", "Year"].map(|t| db.table_id(t).unwrap());
    let (mut lists, mut entries) = (0usize, 0usize);
    for &tid in &tables {
        let t = db.table(tid);
        for (_, rows) in t.sorted_fk_indexes().flat_map(|(_, i)| i.posting_lists()) {
            lists += 1;
            entries += rows.len();
        }
    }

    let dir = temp_dir("checkpoint");
    let store = PagedStore::new(&dir, 1024).unwrap();
    group.bench_function("dblp_bench_4_tables", |b| {
        b.iter(|| black_box(store.checkpoint_from(black_box(db), &tables).unwrap()))
    });
    group.finish();

    // Exactly the installed generation is left: its size is the segment's.
    let seg = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
    let bytes = std::fs::read(&seg).unwrap();
    let dir_len = u64::from_le_bytes(bytes[bytes.len() - 16..bytes.len() - 8].try_into().unwrap());
    eprintln!(
        "disk/checkpoint: {entries} entries in {lists} lists -> {} pages, {} B of directory, \
         {} B in all = {:.1} B/entry",
        (bytes.len() - 16 - dir_len as usize) / PAGE_SIZE,
        dir_len,
        bytes.len(),
        bytes.len() as f64 / entries as f64
    );
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_prefix_scan, bench_cache_curve, bench_wal_batch, bench_checkpoint);
criterion_main!(benches);
