//! Global importance pinned bit for bit. Each case fingerprints every
//! score's `to_bits()` in node order (FNV-1a) together with the sweep
//! count, for the GA presets over the DBLP and TPC-H generators and for
//! one bounded re-iteration after a scored batch. A change to the solver,
//! or to the adjacency it reads, that moves any score by one ulp fails
//! here; a deliberate change re-derives the constants and says why.

use sizel_datagen::{dblp, tpch};
use sizel_graph::{DataGraph, NodeId, SchemaGraph};
use sizel_rank::{
    compute, dblp_ga, estimate_appended_score, estimate_updated_score, install_importance_order,
    reiterate, tpch_ga, GaPreset, RankConfig, RankScores,
};
use sizel_storage::{Database, RowId, TupleRef, Value};

/// FNV-1a over the little-endian bytes of every score's bits, node by
/// node in node order, and the iteration count.
fn fingerprint(r: &RankScores, dg: &DataGraph) -> (u64, u32) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for node in (0..dg.n_nodes() as u32).map(NodeId) {
        for b in r.global(node).to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    (h, r.iterations)
}

fn dblp_fingerprint(cfg: &dblp::DblpConfig, preset: GaPreset) -> (u64, u32) {
    let d = dblp::generate(cfg);
    let sg = SchemaGraph::from_database(&d.db);
    let dg = DataGraph::build(&d.db, &sg);
    let ga = dblp_ga(preset, &d.db, &sg, &dg);
    fingerprint(&compute(&d.db, &sg, &dg, &ga, &RankConfig::default()), &dg)
}

#[test]
fn dblp_tiny_scores_are_pinned() {
    assert_eq!(
        dblp_fingerprint(&dblp::DblpConfig::tiny(), GaPreset::Ga1),
        (12721483035453088839, 23)
    );
    assert_eq!(
        dblp_fingerprint(&dblp::DblpConfig::tiny(), GaPreset::Ga2),
        (8289514618151107274, 43)
    );
}

#[test]
fn dblp_small_scores_are_pinned() {
    assert_eq!(
        dblp_fingerprint(&dblp::DblpConfig::small(), GaPreset::Ga1),
        (3636716015725108256, 25)
    );
    assert_eq!(
        dblp_fingerprint(&dblp::DblpConfig::small(), GaPreset::Ga2),
        (18265138794915224048, 44)
    );
}

#[test]
fn tpch_tiny_scores_are_pinned() {
    let t = tpch::generate(&tpch::TpchConfig::tiny());
    let sg = SchemaGraph::from_database(&t.db);
    let dg = DataGraph::build(&t.db, &sg);
    let ga = tpch_ga(GaPreset::Ga1, &t.db, &sg, &dg);
    assert_eq!(
        fingerprint(&compute(&t.db, &sg, &dg, &ga, &RankConfig::default()), &dg),
        (12257724745426043844, 31)
    );
}

/// The highest primary key of a table.
fn max_pk(db: &Database, table: &str) -> i64 {
    let t = db.table(db.table_id(table).unwrap());
    t.live_rows().map(|r| t.pk_of(r)).max().unwrap()
}

#[test]
fn reiteration_after_a_scored_batch_is_pinned() {
    // Installed order, then one scored batch through the storage layer —
    // an appended paper, a paper re-homed to another year, a citation
    // deleted — so the FK runs the solver reads are in posting order with
    // settled tails. The staged estimates land in the installed score
    // snapshot, which seeds three bounded sweeps over a fresh graph.
    let mut d = dblp::generate(&dblp::DblpConfig::tiny());
    let sg = SchemaGraph::from_database(&d.db);
    let dg = DataGraph::build(&d.db, &sg);
    let cfg = RankConfig::default();
    let ga = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg);
    let scores = compute(&d.db, &sg, &dg, &ga, &cfg);
    install_importance_order(&mut d.db, &dg, &scores);

    let year_t = d.db.table(d.year);
    let (y0, y1) = (year_t.pk_of(RowId(0)), year_t.pk_of(RowId(1)));
    let paper_t = d.db.table(d.paper);
    let moved_pk = paper_t.pk_of(RowId(3));
    let old: Vec<Value> = (0..3).map(|c| paper_t.value(RowId(3), c).to_value()).collect();
    let new_year = if old[2].as_int() == Some(y0) { y1 } else { y0 };
    let moved = vec![Value::Int(moved_pk), old[1].clone(), Value::Int(new_year)];
    let fresh =
        vec![Value::Int(max_pk(&d.db, "Paper") + 1), "scored batch probe".into(), Value::Int(y0)];
    let cit_t = d.db.table(d.citation);
    let cit_pk = cit_t.pk_of(cit_t.live_rows().next().unwrap());

    let score_of = |t: TupleRef| scores.global(dg.node_id(t));
    let est_new = estimate_appended_score(&d.db, &sg, &ga, &cfg, &score_of, d.paper, &fresh);
    let est_moved = estimate_updated_score(&d.db, &sg, &ga, &cfg, &score_of, d.paper, &old, &moved);
    let mut batch = d.db.begin_scored_batch();
    d.db.insert_scored_staged(&mut batch, "Paper", fresh, est_new).unwrap();
    d.db.update_scored_staged(&mut batch, "Paper", moved_pk, moved, est_moved).unwrap();
    d.db.delete_scored_staged(&mut batch, "Citation", cit_pk).unwrap();
    d.db.finish_scored_batch(batch);

    let dg2 = DataGraph::build(&d.db, &sg);
    let ga2 = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg2);
    let r = reiterate(&d.db, &sg, &dg2, &ga2, &cfg, &|t| d.db.installed_score(t), 3);
    assert_eq!(fingerprint(&r, &dg2), (11938235168434563492, 3));
}
