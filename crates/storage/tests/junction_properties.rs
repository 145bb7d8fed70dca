//! The junction TOP-l probe against a brute-force SQL oracle.
//!
//! [`Database::select_via_junction_top_l_into`] answers `SELECT T.* TOP l
//! FROM J, T WHERE J.source = key AND J.target = T.pk AND li(T) >
//! largest_l ORDER BY li DESC` from the junction's FK run, each row's
//! target resolved through the target's primary key. The oracle computes the same thing the long way: every live
//! junction row whose source column holds the key, joined by primary key
//! to a live target, the excluded row dropped, filtered, ordered `(li
//! desc, RowId asc)`, the first `l` kept — and it charges exactly two
//! joins, the raw group read and the rows returned.
//!
//! Generated databases hold NULL and dangling targets, duplicate pairs
//! and one hub key of 1 000+ junction rows. Arbitrary scored batches of
//! junction and target inserts, updates and deletes run between the
//! checks, with and without an installed order (without one the scored
//! ops take the plain path and the reader rebuilds the junction's FK
//! runs, as the probe requires): the probe's rows, its `AccessStats`
//! and its one heap probe must equal the oracle's after every batch, in
//! both orientations.

use proptest::prelude::*;

use sizel_storage::{
    AccessStats, Database, ProbeCost, RowId, TableId, TableSchema, TopLScratch, Value,
};

/// Parent / Child targets and the `Rel` junction between them.
fn fresh_db() -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::builder("Parent").pk("id").build().unwrap()).unwrap();
    db.create_table(TableSchema::builder("Child").pk("id").build().unwrap()).unwrap();
    db.create_table(
        TableSchema::builder("Rel")
            .pk("id")
            .fk("parent_id", "Parent")
            .fk("child_id", "Child")
            .junction()
            .build()
            .unwrap(),
    )
    .unwrap();
    db
}

/// Target pks `0..TARGETS` exist at the start; `TARGETS..2 * TARGETS`
/// dangle until a batch inserts them.
const TARGETS: i64 = 12;
/// The hub parent key: its group holds at least `HUB_ROWS` junction rows.
const HUB: i64 = 0;
const HUB_ROWS: i64 = 1000;

/// A target key as a generated number picks it: mostly live, else NULL
/// or dangling.
fn target(pick: i64) -> Value {
    match pick % 8 {
        6 => Value::Null,
        7 => Value::Int(TARGETS + pick % TARGETS),
        _ => Value::Int(pick % TARGETS),
    }
}

/// A local importance with ties, unrelated to the installed order.
fn li_of(r: RowId) -> f64 {
    f64::from(r.0 * 13 % 7) * 0.5
}

/// The installed score of a generated row.
fn score_of(t: TableId, r: RowId) -> f64 {
    f64::from((r.0 + u32::from(t.0) * 5) % 4)
}

/// Loads the start state: the live targets, the hub's group (duplicate
/// pairs, NULL and dangling targets among it), and `rels` more junction
/// rows `(parent key, target pick)`.
fn load(rels: &[(i64, i64)]) -> Database {
    let mut db = fresh_db();
    for pk in 0..TARGETS {
        db.insert("Parent", vec![Value::Int(pk)]).unwrap();
        db.insert("Child", vec![Value::Int(pk)]).unwrap();
    }
    let hub = (0..HUB_ROWS).map(|i| (HUB, i * 7 % 40));
    for (pk, (parent, pick)) in hub.chain(rels.iter().copied()).enumerate() {
        let parent = if pick % 11 == 10 { Value::Null } else { Value::Int(parent) };
        db.insert("Rel", vec![Value::Int(pk as i64), parent, target(pick)]).unwrap();
    }
    db
}

/// One step of a batch.
#[derive(Clone, Debug)]
enum Op {
    /// Insert a junction row: (parent key, child pick).
    Rel(i64, i64),
    /// Update the `n`-th live junction row to (parent key, child pick).
    UpdateRel(usize, i64, i64),
    /// Delete the `n`-th live junction row.
    DeleteRel(usize),
    /// Insert Child pk (a dangling target arriving), if absent.
    Child(i64),
    /// Update a live Child's score: (pk, score).
    UpdateChild(i64, f64),
    /// Delete Child pk, if live: its junction rows dangle.
    DeleteChild(i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..6, 0usize..2000, 0i64..5, 0i64..64, 0.0..4.0f64).prop_map(|(kind, n, key, pick, s)| {
        match kind {
            0 => Op::Rel(key, pick),
            1 => Op::UpdateRel(n, key, pick),
            2 => Op::DeleteRel(n),
            3 => Op::Child(TARGETS + pick % TARGETS),
            4 => Op::UpdateChild(pick % (2 * TARGETS), s.floor()),
            _ => Op::DeleteChild(pick % (2 * TARGETS)),
        }
    })
}

/// Stages `ops` as one scored batch (the plain path where no order is
/// installed), skipping the ones that name no row.
fn apply(db: &mut Database, ops: &[Op]) {
    let rel = db.table_id("Rel").unwrap();
    let child = db.table_id("Child").unwrap();
    let mut next_pk = db.table(rel).len() as i64;
    let mut b = db.begin_scored_batch();
    for op in ops {
        let nth = |db: &Database, n: usize| {
            let t = db.table(rel);
            let live = t.live_len();
            (live > 0).then(|| t.pk_of(t.live_rows().nth(n % live).unwrap()))
        };
        let live_child = |db: &Database, pk| db.table(child).by_pk(pk).is_some();
        match *op {
            Op::Rel(key, pick) => {
                let values = vec![Value::Int(next_pk), Value::Int(key), target(pick)];
                db.insert_scored_staged(&mut b, "Rel", values, 1.0).unwrap();
                next_pk += 1;
            }
            Op::UpdateRel(n, key, pick) => {
                let Some(pk) = nth(db, n) else { continue };
                let values = vec![Value::Int(pk), Value::Int(key), target(pick)];
                db.update_scored_staged(&mut b, "Rel", pk, values, 2.0).unwrap();
            }
            Op::DeleteRel(n) => {
                let Some(pk) = nth(db, n) else { continue };
                db.delete_scored_staged(&mut b, "Rel", pk).unwrap();
            }
            Op::Child(pk) if !live_child(db, pk) => {
                db.insert_scored_staged(&mut b, "Child", vec![Value::Int(pk)], 3.0).unwrap();
            }
            Op::UpdateChild(pk, s) if live_child(db, pk) => {
                db.update_scored_staged(&mut b, "Child", pk, vec![Value::Int(pk)], s).unwrap();
            }
            Op::DeleteChild(pk) if live_child(db, pk) => {
                db.delete_scored_staged(&mut b, "Child", pk).unwrap();
            }
            _ => {}
        }
    }
    db.finish_scored_batch(b);
}

/// One probe's arguments beyond the orientation and key.
#[derive(Clone, Copy, Debug)]
struct Cut {
    l: usize,
    largest_l: f64,
    /// Excludes the target row of this index, when in range.
    exclude: Option<u32>,
}

fn cut_strategy() -> impl Strategy<Value = Cut> {
    (0usize..6, 0u8..4, 0u32..40).prop_map(|(l, t, x)| Cut {
        l: [0, 1, 2, 5, 40, 2000][l],
        largest_l: [f64::NEG_INFINITY, 0.0, 1.0, 2.5][t as usize],
        exclude: (x < 30).then_some(x % 24),
    })
}

/// The junction orientations: (source column, target column, target).
const ORIENTATIONS: [(usize, usize, &str); 2] = [(1, 2, "Child"), (2, 1, "Parent")];

fn probe(db: &Database, o: (usize, usize, &str), key: i64, cut: Cut) -> (Vec<RowId>, ProbeCost) {
    let (rel, to) = (db.table_id("Rel").unwrap(), db.table_id(o.2).unwrap());
    let (mut cost, mut out) = (ProbeCost::default(), Vec::new());
    db.select_via_junction_top_l_into(
        rel,
        o.0,
        key,
        o.1,
        to,
        cut.exclude.map(RowId),
        cut.l,
        cut.largest_l,
        &li_of,
        &mut TopLScratch::new(),
        &mut cost,
        &mut out,
    );
    (out, cost)
}

/// The SQL reading of the same probe over the live rows.
fn oracle(db: &Database, o: (usize, usize, &str), key: i64, cut: Cut) -> (Vec<RowId>, AccessStats) {
    let j = db.table(db.table_id("Rel").unwrap());
    let t = db.table(db.table_id(o.2).unwrap());
    let group: Vec<RowId> =
        j.live_rows().filter(|&r| j.value(r, o.0).as_int() == Some(key)).collect();
    let mut joined: Vec<(f64, RowId)> = group
        .iter()
        .filter_map(|&r| t.by_pk(j.value(r, o.1).as_int()?))
        .filter(|&r| Some(r) != cut.exclude.map(RowId))
        .map(|r| (li_of(r), r))
        .filter(|&(li, _)| li > cut.largest_l)
        .collect();
    joined.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let rows: Vec<RowId> = joined.into_iter().take(cut.l).map(|(_, r)| r).collect();
    let tuples = (group.len() + rows.len()) as u64;
    (rows, AccessStats { joins: 2, tuples })
}

/// Every key both orientations hold, plus absent ones, under `cut`.
fn check(db: &Database, cut: Cut) -> Result<(), TestCaseError> {
    let j = db.table(db.table_id("Rel").unwrap());
    for o in ORIENTATIONS {
        let mut keys: Vec<i64> = j.live_rows().filter_map(|r| j.value(r, o.0).as_int()).collect();
        keys.extend([-1, 2 * TARGETS + 5]);
        keys.sort_unstable();
        keys.dedup();
        for key in keys {
            let (rows, cost) = probe(db, o, key, cut);
            let (want, access) = oracle(db, o, key, cut);
            prop_assert_eq!(&rows, &want, "{:?} key {} {:?}", o, key, cut);
            prop_assert_eq!(cost.access, access, "{:?} key {} {:?}: accounting", o, key, cut);
            prop_assert_eq!((cost.probes.fast, cost.probes.heap), (0, 1));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn junction_probes_equal_the_sql_oracle_across_scored_batches(
        rels in proptest::collection::vec((0i64..5, 0i64..64), 0..80),
        batches in proptest::collection::vec(proptest::collection::vec(op_strategy(), 1..12), 0..5),
        cut in cut_strategy(),
        mode in 0u8..2,
    ) {
        // 0: no order installed; 1: installed.
        let mut db = load(&rels);
        if mode == 0 {
            db.build_runs();
        } else {
            db.install_importance_order(&score_of);
        }
        let rel = db.table_id("Rel").unwrap();
        let hub = db.table(rel).rows_where_eq(1, HUB).len() as i64;
        prop_assert!(hub >= HUB_ROWS * 10 / 11, "the hub group holds {} rows", hub);
        for ops in std::iter::once(&Vec::new()).chain(&batches) {
            apply(&mut db, ops);
            // Plain ops leave the FK runs for the reader to build.
            db.build_runs();
            prop_assert!(
                db.tables().all(|(_, t)| t.is_sorted() == (mode != 0)),
                "every table's order held, or none was installed"
            );
            check(&db, cut)?;
        }
    }
}
