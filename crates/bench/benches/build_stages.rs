//! Where one `generate` + `SizeLEngine::build` goes (ISSUE 21; the split
//! ROADMAP item 0c asks for, outside `benchmark/`).
//!
//! The benchmark's `setup_s` is two such pairs and little else, and its
//! trace prices only `datagen.generate_ms`, `graph.data_graph_build_ms`
//! and `rank.compute_ms` of them. This group times every stage of the
//! load → derive path over `DblpConfig::bench()` through the same public
//! functions `SizeLEngine::build` calls, in the order it calls them, plus
//! the whole build — so a set-up optimisation is aimed at a stage this
//! table says is dear, and `engine_build` minus the stages is what is
//! still unnamed. `resolve` is the tail of `generate`: the bulk build of
//! every FK run and forward array after the load's plain inserts, timed
//! over the same rows freshly loaded again.
//!
//! ```sh
//! cargo bench -p sizel-bench --bench build_stages
//! ```

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::time::Duration;

use sizel_core::engine::{EngineConfig, SizeLEngine};
use sizel_core::keyword::KeywordIndex;
use sizel_datagen::dblp::{generate, DblpConfig};
use sizel_graph::{presets, DataGraph, Gds, SchemaGraph};
use sizel_rank::{compute, dblp_ga, install_importance_order, GaPreset};
use sizel_storage::Database;

/// `db`'s live rows loaded by plain inserts into a fresh catalog, each
/// table reserved first as `generate` does: a load whose FK runs and
/// forward arrays are not built yet.
fn reload(db: &Database) -> Database {
    let mut fresh = Database::new();
    for (_, t) in db.tables() {
        fresh.create_table(t.schema.clone()).expect("a valid schema");
    }
    for (tid, t) in db.tables() {
        fresh.reserve_rows(tid, t.live_len());
        for r in t.live_rows() {
            fresh.insert_into(tid, t.row(r)).expect("a loaded row");
        }
    }
    fresh
}

/// The engine setting of the benchmark's stack: Author and Paper as DS
/// relations under GA1.
fn engine_config() -> EngineConfig {
    EngineConfig::new(vec![
        ("Author".into(), presets::dblp_author_gds_config()),
        ("Paper".into(), presets::dblp_paper_gds_config()),
    ])
}

fn build_stages(c: &mut Criterion) {
    let db_cfg = DblpConfig::bench();
    let cfg = engine_config();
    let mut group = c.benchmark_group("build_stages");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    group.bench_function("generate", |b| b.iter(|| generate(&db_cfg)));

    let mut db = generate(&db_cfg).db;
    group.bench_function("resolve", |b| {
        b.iter_batched(
            || reload(&db),
            |mut fresh| {
                fresh.resolve_forward();
                fresh
            },
            BatchSize::PerIteration,
        )
    });

    group.bench_function("validate_foreign_keys", |b| {
        b.iter(|| db.validate_foreign_keys().expect("generated FKs are consistent"))
    });

    // The solve-local data graph a rank solve numbers the tuples with.
    let sg = SchemaGraph::from_database(&db);
    group.bench_function("data_graph", |b| b.iter(|| DataGraph::build(&db, &sg)));

    let dg = DataGraph::build(&db, &sg);
    let authority = dblp_ga(GaPreset::Ga1, &db, &sg, &dg);
    group.bench_function("rank_compute", |b| {
        b.iter(|| compute(&db, &sg, &dg, &authority, &cfg.rank))
    });

    // A re-install sorts every posting list again from the same scores —
    // the work of the first install, plus freeing the lists it replaces.
    let scores = compute(&db, &sg, &dg, &authority, &cfg.rank);
    group.bench_function("install_importance_order", |b| {
        b.iter(|| install_importance_order(&mut db, &dg, &scores))
    });

    let ds_tables: Vec<_> = cfg
        .ds_relations
        .iter()
        .map(|(name, _)| db.table_id(name).expect("DS relation exists"))
        .collect();
    group.bench_function("gds", |b| {
        b.iter(|| {
            for ((_, gds_cfg), &tid) in cfg.ds_relations.iter().zip(&ds_tables) {
                let mut gds = Gds::build(&db, &sg, gds_cfg, tid).restrict(cfg.theta);
                gds.set_stats(&scores.per_table_max);
                criterion::black_box(gds);
            }
        })
    });

    group.bench_function("keyword_index", |b| b.iter(|| KeywordIndex::build(&db, &ds_tables)));

    group.bench_function("engine_build", |b| {
        b.iter_batched(
            || generate(&db_cfg).db,
            |db| {
                SizeLEngine::build(
                    db,
                    |db, sg, dg| dblp_ga(GaPreset::Ga1, db, sg, dg),
                    engine_config(),
                )
                .expect("bench DBLP engine builds")
            },
            BatchSize::PerIteration,
        )
    });

    group.finish();
}

criterion_group!(benches, build_stages);
criterion_main!(benches);
