//! Disk-tier benches (EXPERIMENTS.md §PR 10):
//!
//! * `disk/wal_batch` — encode + append + fsync of a 16-mutation batch
//!   record at different fsync batching levels: the write-ahead overhead
//!   every `apply_batch` pays before settlement.
//! * `disk/checkpoint` — one segment checkpoint of the four posting
//!   tables of bench-scale DBLP (tens of thousands of lists averaging
//!   under five entries): what `attach_disk` and every `checkpoint_disk`
//!   pay, with the segment's pages and bytes per posting entry printed.

use std::hint::black_box;
use std::path::PathBuf;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sizel_core::durability::encode_batch;
use sizel_core::engine::{EngineConfig, Mutation, SizeLEngine};
use sizel_datagen::dblp::{generate, DblpConfig};
use sizel_disk::{PagedStore, Wal, PAGE_SIZE};
use sizel_graph::presets;
use sizel_rank::{dblp_ga, GaPreset};
use sizel_storage::Value;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sizel-bench-disk-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
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
    let mut store = PagedStore::new(&dir).unwrap();
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

criterion_group!(benches, bench_wal_batch, bench_checkpoint);
criterion_main!(benches);
