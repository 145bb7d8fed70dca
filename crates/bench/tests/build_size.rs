//! The bench-scale set-up at its final size. `generate` reserves every
//! table's rows before it loads them, and the catalog builds every FK run
//! once after the load, counted then filled: shrinking the generated
//! database frees no byte of an `Int` column or of an FK run. A GA1 rank
//! solve holds its iteration vectors for the tables GA1 rates only —
//! every junction row holds the one unrated score instead of a slot.
//! The generator's surrogate keys `1..=n`, loaded in key order, are
//! indexed by their offsets: no PK slot, and every FK column's runs
//! under an array directory over its key span. Once GA1's scores are
//! installed, a table's indexes are its PK slots, its FK runs and its
//! score snapshot — no forward array — and each junction's snapshot is
//! one shared score, eight bytes.

use sizel_datagen::dblp::{generate, DblpConfig};
use sizel_graph::{DataGraph, SchemaGraph};
use sizel_rank::{
    compute, dblp_ga, install_importance_order, solve_scratch_bytes, GaPreset, RankConfig,
};
use sizel_storage::{Database, ValueType};

/// Per table: the bytes of each `Int` column and of the FK runs.
fn int_and_run_bytes(db: &Database) -> Vec<(String, Vec<usize>, usize)> {
    db.tables()
        .map(|(_, t)| {
            let ints = (0..t.schema.arity())
                .filter(|&c| t.schema.columns[c].ty == ValueType::Int)
                .map(|c| t.column_bytes(c))
                .collect();
            (t.schema.name.clone(), ints, t.index_bytes()[1].1)
        })
        .collect()
}

#[test]
fn a_generated_database_holds_no_int_or_run_slack() {
    let mut db = generate(&DblpConfig::bench()).db;
    let loaded = int_and_run_bytes(&db);
    assert!(loaded.iter().any(|(_, _, runs)| *runs > 0), "the runs are built");
    db.shrink_to_fit();
    assert_eq!(int_and_run_bytes(&db), loaded);
}

#[test]
fn surrogate_keys_are_indexed_by_their_offsets() {
    let db = generate(&DblpConfig::bench()).db;
    for (_, t) in db.tables() {
        let [(_, pk_slots), (_, fk_runs), ..] = t.index_bytes();
        assert_eq!(
            (t.pk_slot_rows(), pk_slots),
            (0, 0),
            "`{}` hashes a primary key",
            t.schema.name
        );
        // Per FK column: a 4-byte row id per entry, a 12-byte directory
        // slot per key of its span.
        let expected: usize = t
            .schema
            .fks
            .iter()
            .map(|fk| {
                let keys: Vec<i64> =
                    t.live_rows().filter_map(|r| t.value(r, fk.column).as_int()).collect();
                let (lo, hi) = (keys.iter().min().unwrap(), keys.iter().max().unwrap());
                4 * keys.len() + 12 * (hi - lo + 1) as usize
            })
            .sum();
        assert_eq!(fk_runs, expected, "`{}`'s FK runs", t.schema.name);
    }
}

#[test]
fn a_ga1_solve_holds_vectors_for_the_rated_tables_only() {
    let d = generate(&DblpConfig::bench());
    let sg = SchemaGraph::from_database(&d.db);
    let dg = DataGraph::build(&d.db, &sg);
    let ga = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg);
    let [.., (name, vectors)] = solve_scratch_bytes(&d.db, &sg, &dg, &ga);
    assert_eq!(name, "iteration vectors");
    // GA1 rates no edge or link that touches a junction row.
    let rated: usize =
        [d.conference, d.year, d.paper, d.author].map(|t| d.db.table(t).len()).iter().sum();
    assert_eq!(rated, 15_486);
    // Current and next iterate and the emission scales; GA1 has no value
    // function, so no multipliers.
    assert_eq!(vectors, 3 * 8 * rated);
}

#[test]
fn an_installed_junction_keeps_one_score_and_no_table_a_forward_array() {
    let mut d = generate(&DblpConfig::bench());
    let sg = SchemaGraph::from_database(&d.db);
    let dg = DataGraph::build(&d.db, &sg);
    let ga = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg);
    let scores = compute(&d.db, &sg, &dg, &ga, &RankConfig::default());
    install_importance_order(&mut d.db, &dg, &scores);
    d.db.shrink_to_fit();
    for (_, t) in d.db.tables() {
        let [(_, _), (_, _), ("scores", snapshot)] = t.index_bytes() else {
            panic!("`{}` indexes {:?}", t.schema.name, t.index_bytes())
        };
        let expected = if t.schema.is_junction { 8 } else { 8 * t.len() };
        assert_eq!(snapshot, expected, "`{}`'s score snapshot", t.schema.name);
    }
    let junction_rows: usize =
        [d.author_paper, d.citation].map(|t| d.db.table(t).len()).iter().sum();
    assert_eq!(junction_rows, 69_370);
}
