//! Update-workload throughput (ISSUE 4, extended by ISSUE 6 to the full
//! mutation model): a mixed mutation/query stream against the
//! epoch-versioned server, with the prefix-scan retention that motivates
//! the incremental maintenance reported as a probe-mix ratio.
//!
//! Five regimes over the same Database-source query workload (the one
//! that actually drives TOP-l probes):
//! * `query_only` — no mutations: the steady-state ceiling.
//! * `mixed_incremental` — one incremental insert per batch: sorted
//!   postings binary-maintained, token re-stamped, scores spliced. PR 3's
//!   snapshot design would heap-fall-back *permanently* after the first
//!   insert; here the fast-path ratio stays ~1 (printed after the run).
//! * `mixed_exact` — one exact-refresh insert per batch: the escape
//!   hatch's full re-derivation cost (power iteration + reinstall), as a
//!   reference for what the incremental path avoids.
//! * `churn_incremental` — inserts, a trailing rename, and a trailing
//!   unlink-then-delete per batch (ISSUE 6): tombstone-then-compact
//!   maintenance, keyword re-tokenization, and dangling-watch repair all
//!   on the hot path; the probe mix must stay fast across the tombstones.
//! * `churn_exact` — the same update/delete stream with the exact escape
//!   hatch; the ≥3× gap against `churn_incremental` is the headline
//!   number EXPERIMENTS.md §PR 6 records.
//!
//! `SIZEL_BENCH_FULL=1` uses more samples; the default keeps `cargo
//! bench` fast.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, RwLock};

use sizel_core::engine::{EngineConfig, Mutation, QueryOptions, SizeLEngine};
use sizel_core::osgen::OsSource;
use sizel_core::test_fixtures::max_pk;
use sizel_datagen::dblp::{generate, DblpConfig};
use sizel_graph::presets;
use sizel_rank::{dblp_ga, GaPreset};
use sizel_serve::{ServeConfig, SizeLServer};
use sizel_storage::Value;

fn build_engine() -> Arc<RwLock<SizeLEngine>> {
    let d = generate(&DblpConfig::small());
    Arc::new(RwLock::new(
        SizeLEngine::build(
            d.db,
            |db, sg, dg| dblp_ga(GaPreset::Ga1, db, sg, dg),
            EngineConfig::new(vec![
                ("Author".into(), presets::dblp_author_gds_config()),
                ("Paper".into(), presets::dblp_paper_gds_config()),
            ]),
        )
        .expect("small DBLP engine builds"),
    ))
}

/// Database-source prelim queries: the workload whose TOP-l probes the
/// sorted postings serve (DataGraph-source queries never touch them).
fn workload() -> Vec<(String, QueryOptions)> {
    ["Christos Faloutsos", "Michalis Faloutsos", "Petros Faloutsos", "Faloutsos"]
        .into_iter()
        .flat_map(|kw| {
            [10usize, 30].into_iter().map(move |l| {
                (
                    kw.to_owned(),
                    QueryOptions {
                        l,
                        prelim: true,
                        source: OsSource::Database,
                        ..QueryOptions::default()
                    },
                )
            })
        })
        .collect()
}

/// Fresh-pk mutation source: each call yields one new author plus one
/// junction row linking it to an existing paper. Authors and junctions
/// advance in lockstep, so author `first_author + k` owns junction
/// `first_junction + k` — the invariant the churn stream's trailing
/// unlink-then-delete relies on.
struct MutationSource {
    next_author: AtomicI64,
    next_junction: AtomicI64,
    first_author: i64,
    first_junction: i64,
    paper_pk: i64,
}

impl MutationSource {
    fn new(engine: &SizeLEngine) -> Self {
        let db = engine.db();
        let first_author = max_pk(db, "Author") + 1;
        let first_junction = max_pk(db, "AuthorPaper") + 1;
        MutationSource {
            next_author: AtomicI64::new(first_author),
            next_junction: AtomicI64::new(first_junction),
            first_author,
            first_junction,
            paper_pk: max_pk(db, "Paper"),
        }
    }

    fn next(&self) -> [Mutation; 2] {
        let a = self.next_author.fetch_add(1, Ordering::Relaxed);
        let j = self.next_junction.fetch_add(1, Ordering::Relaxed);
        [
            Mutation::insert("Author", vec![Value::Int(a), format!("Churn Author{a}").into()]),
            Mutation::insert(
                "AuthorPaper",
                vec![Value::Int(j), Value::Int(a), Value::Int(self.paper_pk)],
            ),
        ]
    }

    /// The full-model churn batch (ISSUE 6): the insert pair, then —
    /// once the stream is deep enough — a rename of the author two
    /// batches back and the unlink-then-delete of the author four
    /// batches back (junction first: the RESTRICT-legal order).
    fn next_churn(&self) -> Vec<Mutation> {
        let a = self.next_author.fetch_add(1, Ordering::Relaxed);
        let j = self.next_junction.fetch_add(1, Ordering::Relaxed);
        let mut ms = vec![
            Mutation::insert("Author", vec![Value::Int(a), format!("Churn Author{a}").into()]),
            Mutation::insert(
                "AuthorPaper",
                vec![Value::Int(j), Value::Int(a), Value::Int(self.paper_pk)],
            ),
        ];
        let renamed = a - 2;
        if renamed >= self.first_author {
            ms.push(Mutation::update(
                "Author",
                renamed,
                vec![Value::Int(renamed), format!("Churn Author{renamed} Revised").into()],
            ));
        }
        let retired = a - 4;
        if retired >= self.first_author {
            let junction = self.first_junction + (retired - self.first_author);
            ms.push(Mutation::delete("AuthorPaper", junction));
            ms.push(Mutation::delete("Author", retired));
        }
        ms
    }
}

fn bench_update_throughput(c: &mut Criterion) {
    let full = std::env::var("SIZEL_BENCH_FULL").is_ok_and(|v| v == "1");
    let set = workload();

    let mut group = c.benchmark_group("update_throughput_dblp");
    group.sample_size(if full { 20 } else { 10 });
    group.measurement_time(std::time::Duration::from_secs(if full { 5 } else { 2 }));

    // Steady-state ceiling: queries only, cache disabled so every batch
    // exercises the probes.
    let engine = build_engine();
    let server = SizeLServer::from_shared(
        Arc::clone(&engine),
        ServeConfig { cache_capacity: 0, cache_shards: 4, ..ServeConfig::default() },
    );
    group.bench_with_input(BenchmarkId::new("query_only", 2), &set, |b, set| {
        b.iter(|| criterion::black_box(server.batch_query(set)));
    });
    drop(server);

    // Mixed stream, incremental maintenance: the fast path must survive
    // the churn (ratio printed below).
    let engine = build_engine();
    let server = SizeLServer::from_shared(
        Arc::clone(&engine),
        ServeConfig { cache_capacity: 0, cache_shards: 4, ..ServeConfig::default() },
    );
    let muts = MutationSource::new(&server.engine());
    engine.read().unwrap().db().access().reset();
    group.bench_with_input(BenchmarkId::new("mixed_incremental", 2), &set, |b, set| {
        b.iter(|| {
            for m in muts.next() {
                server.apply(m).expect("incremental apply");
            }
            criterion::black_box(server.batch_query(set));
        });
    });
    let probes = {
        let e = engine.read().unwrap();
        e.db().access().probes()
    };
    eprintln!(
        "update_throughput: incremental stream probe mix fast={} heap={} (fast ratio {:.3}; \
         PR 3's snapshot design pins this at 0.000 after the first insert)",
        probes.fast,
        probes.heap,
        probes.fast_ratio()
    );
    drop(server);

    // Mixed stream, exact escape hatch: full re-derivation per insert.
    let engine = build_engine();
    let server = SizeLServer::from_shared(
        Arc::clone(&engine),
        ServeConfig { cache_capacity: 0, cache_shards: 4, ..ServeConfig::default() },
    );
    let muts = MutationSource::new(&server.engine());
    group.bench_with_input(BenchmarkId::new("mixed_exact", 2), &set, |b, set| {
        b.iter(|| {
            for m in muts.next() {
                server.apply(m.exact()).expect("exact apply");
            }
            criterion::black_box(server.batch_query(set));
        });
    });
    drop(server);

    // Full-model churn, incremental: inserts + renames + deletes per
    // batch; tombstones accumulate and compact, and the probe mix must
    // stay fast regardless.
    let engine = build_engine();
    let server = SizeLServer::from_shared(
        Arc::clone(&engine),
        ServeConfig { cache_capacity: 0, cache_shards: 4, ..ServeConfig::default() },
    );
    let muts = MutationSource::new(&server.engine());
    engine.read().unwrap().db().access().reset();
    group.bench_with_input(BenchmarkId::new("churn_incremental", 5), &set, |b, set| {
        b.iter(|| {
            for m in muts.next_churn() {
                server.apply(m).expect("incremental churn apply");
            }
            criterion::black_box(server.batch_query(set));
        });
    });
    let probes = {
        let e = engine.read().unwrap();
        e.db().access().probes()
    };
    eprintln!(
        "update_throughput: churn stream probe mix fast={} heap={} (fast ratio {:.3} across \
         update/delete tombstones)",
        probes.fast,
        probes.heap,
        probes.fast_ratio()
    );
    drop(server);

    // Full-model churn, exact escape hatch: the re-derivation cost the
    // incremental delete/update path avoids (EXPERIMENTS.md §PR 6 pins
    // the ≥3× gap).
    let engine = build_engine();
    let server = SizeLServer::from_shared(
        Arc::clone(&engine),
        ServeConfig { cache_capacity: 0, cache_shards: 4, ..ServeConfig::default() },
    );
    let muts = MutationSource::new(&server.engine());
    group.bench_with_input(BenchmarkId::new("churn_exact", 5), &set, |b, set| {
        b.iter(|| {
            for m in muts.next_churn() {
                server.apply(m.exact()).expect("exact churn apply");
            }
            criterion::black_box(server.batch_query(set));
        });
    });
    group.finish();
}

criterion_group!(benches, bench_update_throughput);
criterion_main!(benches);
