//! Per-layer rows measured by calling one layer directly: set-up parts
//! (datagen, graph, rank, engine build), posting probes on RAM vs
//! paged-warm vs paged-cold postings built from the workload's own
//! database, the page checksum, WAL appends, `apply_batch` with and
//! without a WAL, and crash recovery. They do not depend on the
//! workload's traffic, so every workload's traced run reports them
//! from the same code.

use std::path::Path;
use std::time::Instant;

use sizel_core::durability::encode_batch;
use sizel_core::engine::SizeLEngine;
use sizel_datagen::dblp::{generate, DblpConfig};
use sizel_disk::crc::crc32;
use sizel_disk::{Wal, PAGE_SIZE};
use sizel_graph::{DataGraph, SchemaGraph};
use sizel_rank::{compute, dblp_ga, GaPreset, RankConfig};
use sizel_serve::DiskTierConfig;
use sizel_storage::{Database, RowId};
use sizel_util::prng::Prng;

use crate::hist::median;
use crate::stack::{build_engine, tier_config, ScratchDir, Tier, PAGED_TABLES};
use crate::stream::{MutationStream, PREROLL_BATCHES};

/// Posting lists probed per round.
const PROBE_KEYS: usize = 256;
const PROBE_ROUNDS: usize = 20;
/// Measured batches per `apply_batch` row, after the pre-roll.
const APPLY_BATCHES: usize = 24;

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn median_of(n: usize, mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..n).map(|_| f()).collect();
    median(&samples).expect("n >= 1")
}

/// `select_eq_top_l` (l = 10) on `AuthorPaper.author_id` for each key,
/// `PROBE_ROUNDS` times; the median round's mean cost per probe, in ns.
/// The first round is a warm-up: it makes the warm cache warm.
fn probe_ns(db: &Database, keys: &[i64]) -> f64 {
    let table = db.table_id("AuthorPaper").expect("DBLP schema");
    let t = db.table(table);
    let col = t.schema.column_index("author_id").expect("DBLP schema");
    let order = db.fk_order();
    let li = |r: RowId| t.installed_score(r);
    let round = || {
        let t0 = Instant::now();
        for &key in keys {
            std::hint::black_box(db.select_eq_top_l(table, col, key, 10, 0.0, order, &li));
        }
        t0.elapsed().as_nanos() as f64 / keys.len() as f64
    };
    round();
    median_of(PROBE_ROUNDS, round)
}

/// Posting entries the checkpoint of `tables` writes (FK row ids plus
/// junction link pairs).
fn posting_entries(db: &Database, tables: &[&str]) -> usize {
    tables
        .iter()
        .map(|name| {
            let t = db.table(db.table_id(name).expect("DBLP schema"));
            let fk: usize = t
                .sorted_fk_indexes()
                .flat_map(|(_, i)| i.posting_lists())
                .map(|(_, r)| r.len())
                .sum();
            let links: usize = t
                .sorted_link_indexes()
                .flat_map(|(_, i)| i.groups())
                .map(|(_, p, _)| p.len())
                .sum();
            fk + links
        })
        .sum()
}

fn segment_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir.join("segments"))
        .expect("the tier's segment directory")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Applies the pre-roll, then `APPLY_BATCHES` more; the median of
/// those, in µs.
fn apply_batch_us(engine: &mut SizeLEngine, stream: &mut MutationStream) -> f64 {
    for _ in 0..PREROLL_BATCHES {
        engine.apply_batch(stream.next_batch()).expect("pre-roll batch applies");
    }
    median_of(APPLY_BATCHES, || {
        let batch = stream.next_batch();
        let t0 = Instant::now();
        engine.apply_batch(batch).expect("batch applies");
        t0.elapsed().as_secs_f64() * 1e6
    })
}

/// Every direct row, as `(metric name, value)`.
pub fn measure(db_cfg: &DblpConfig, seed: u64) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // Set-up, part by part.
    out.push((
        "datagen.generate_ms",
        median_of(3, || {
            let t0 = Instant::now();
            std::hint::black_box(generate(db_cfg));
            ms_since(t0)
        }),
    ));
    let d = generate(db_cfg);
    let sg = SchemaGraph::from_database(&d.db);
    out.push((
        "graph.data_graph_build_ms",
        median_of(3, || {
            let t0 = Instant::now();
            std::hint::black_box(DataGraph::build(&d.db, &sg));
            ms_since(t0)
        }),
    ));
    let dg = DataGraph::build(&d.db, &sg);
    let t0 = Instant::now();
    let ga = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg);
    std::hint::black_box(compute(&d.db, &sg, &dg, &ga, &RankConfig::default()));
    out.push(("rank.compute_ms", ms_since(t0)));
    drop((d, sg, dg, ga));
    // build_engine includes datagen; the row is the engine's share.
    let generate_ms = out[0].1;
    let mut engine = None;
    let build_ms = median_of(3, || {
        let t0 = Instant::now();
        engine = Some(build_engine(db_cfg));
        ms_since(t0) - generate_ms
    });
    out.push(("core.engine_build_ms", build_ms));
    let mut ram = engine.expect("built three times");

    // Posting probes: the same keys on RAM postings, on paged postings
    // behind the default cache (resident after one round), and behind a
    // two-page cache (every probe reads and checksums a page).
    let keys: Vec<i64> = {
        let authors = ram.db().table(ram.db().table_id("Author").expect("DBLP schema"));
        let mut rng = Prng::new(seed).fork(0x9806);
        let n = authors.len();
        rng.sample_distinct(n, PROBE_KEYS.min(n))
            .into_iter()
            .map(|r| authors.pk_of(RowId(r as u32)))
            .collect()
    };
    out.push(("storage.probe_ram_ns", probe_ns(ram.db(), &keys)));
    let entries = posting_entries(ram.db(), &PAGED_TABLES);

    {
        let dir = ScratchDir::new("direct-paged");
        let mut paged = build_engine(db_cfg);
        let cfg = tier_config(Tier::Paged, dir.path()).expect("a paged tier has a configuration");
        let t0 = Instant::now();
        paged.attach_disk(cfg).expect("attach the paged tier");
        out.push(("disk.checkpoint_ms", ms_since(t0)));
        let bytes = segment_bytes(dir.path());
        out.push(("disk.segment_mb", bytes as f64 / (1024.0 * 1024.0)));
        out.push(("disk.bytes_per_entry", bytes as f64 / entries.max(1) as f64));
        out.push(("disk.probe_warm_ns", probe_ns(paged.db(), &keys)));
    }
    {
        let dir = ScratchDir::new("direct-cold");
        let mut cold = build_engine(db_cfg);
        let mut cfg = DiskTierConfig::new(dir.path());
        cfg.paged_tables = vec!["AuthorPaper".to_owned()];
        cfg.cache_pages = 2;
        cold.attach_disk(cfg).expect("attach the starved tier");
        out.push(("disk.probe_cold_ns", probe_ns(cold.db(), &keys)));
    }

    let page = vec![0xA5u8; PAGE_SIZE];
    out.push((
        "disk.crc32_page_ns",
        median_of(PROBE_ROUNDS, || {
            let t0 = Instant::now();
            for _ in 0..64 {
                std::hint::black_box(crc32(std::hint::black_box(&page)));
            }
            t0.elapsed().as_nanos() as f64 / 64.0
        }),
    ));

    // Writes: apply_batch without a tier, with a WAL, and the WAL alone.
    let mut stream = MutationStream::new(ram.db(), seed);
    out.push(("core.apply_batch_us", apply_batch_us(&mut ram, &mut stream)));
    drop(ram);

    let dir = ScratchDir::new("direct-wal");
    let mut logged = build_engine(db_cfg);
    logged.attach_disk(DiskTierConfig::new(dir.path())).expect("attach the WAL tier");
    let mut stream = MutationStream::new(logged.db(), seed);
    out.push(("core.apply_batch_wal_us", apply_batch_us(&mut logged, &mut stream)));
    let record = encode_batch(logged.epoch().get(), &stream.next_batch());
    drop(logged);

    // Crash recovery: a fresh engine over the same base replays the log.
    let mut recovered = build_engine(db_cfg);
    let t0 = Instant::now();
    let report = recovered.attach_disk(DiskTierConfig::new(dir.path())).expect("recover");
    out.push(("core.recover_ms", ms_since(t0)));
    out.push(("core.recover_batches", report.batches_replayed as f64));
    drop(recovered);

    let wal_dir = ScratchDir::new("direct-append");
    let (mut wal, _) = Wal::open(&wal_dir.path().join("append.wal"), 1).expect("open a WAL");
    out.push((
        "disk.wal_append_us",
        median_of(APPLY_BATCHES, || {
            let t0 = Instant::now();
            wal.append(&record).expect("append");
            t0.elapsed().as_secs_f64() * 1e6
        }),
    ));
    out
}
