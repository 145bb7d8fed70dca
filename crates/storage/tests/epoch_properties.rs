//! Property suite for the epoch subsystem: incremental sorted-posting
//! maintenance under arbitrary **insert/update/delete** interleavings must
//! be **byte-identical** to a from-scratch `install_importance_order` over
//! a plainly-replayed database — every FK run, with no dead entry
//! anywhere, and every junction probe's rows and paper cost — and the
//! prefix-scan fast path must keep the heap path's answers *and* its
//! paper-cost accounting. After every stream each table's resolved FK
//! parents equal a fresh `by_pk` of its live rows' keys — references that
//! dangle until their parent arrives included — and its score snapshot
//! equals the fold's score log.

use proptest::prelude::*;
use std::collections::BTreeMap;

use sizel_storage::{
    AccessStats, Database, Epoch, ProbeCost, RowId, ScoredBatch, TableId, TableSchema, TopLScratch,
    Value, ValueType,
};

/// Parent (junction target) / Child (FK postings) / Rel (junction
/// between Parent and Child, probed in both orientations).
fn fresh_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("Parent").pk("id").searchable_text("name").build().unwrap(),
    )
    .unwrap();
    db.create_table(
        TableSchema::builder("Child")
            .pk("id")
            .column("payload", ValueType::Float)
            .fk("parent_id", "Parent")
            .build()
            .unwrap(),
    )
    .unwrap();
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

/// Runs one staged op as a batch of one — the single-op fold the
/// batched settlement is compared against.
fn batch_of_one<T>(db: &mut Database, op: impl FnOnce(&mut Database, &mut ScoredBatch) -> T) -> T {
    let mut batch = db.begin_scored_batch();
    let out = op(db, &mut batch);
    db.finish_scored_batch(batch);
    out
}

const N_PARENTS: i64 = 6;
/// Parent keys `N_PARENTS..N_PARENTS + LATE_PARENTS` are absent at the
/// start: a child or rel naming one dangles until `Op::Parent` inserts it.
const LATE_PARENTS: i64 = 3;

/// One step of the mutation stream.
#[derive(Clone, Debug)]
enum Op {
    /// Insert: (late parent pk, installed score) — the parent of the
    /// rows whose key dangled on it.
    Parent(i64, f64),
    /// Insert: (child pk, parent key, installed score)
    Child(i64, i64, f64),
    /// Insert: (rel pk, parent key, child pk candidate, installed score)
    Rel(i64, i64, i64, f64),
    /// Update: (child pk, new parent key, new installed score) — re-homes
    /// the row's FK posting and repositions it by the new score.
    UpdateChild(i64, i64, f64),
    /// Delete: (child pk) — removes the FK posting entry; live Rel rows
    /// still referencing the child lose their pairs and keep their raw
    /// count.
    DeleteChild(i64),
    /// Delete: (rel pk) — junction rows are never referenced, so this is
    /// always legal; the row's pairs and raw counts leave their groups.
    DeleteRel(i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // (kind, pk, parent key, child pk, raw score); scores quantized to
    // 0.5 steps so tie-breaking is exercised constantly.
    (0u8..6, 0i64..64, 0i64..N_PARENTS + LATE_PARENTS, 0i64..64, 0.0..8.0f64).prop_map(
        |(kind, pk, parent, child, w)| {
            let s = (w * 2.0).floor() / 2.0;
            match kind {
                0 => Op::Child(pk, parent, s),
                1 => Op::Rel(pk, parent, child, s),
                2 => Op::UpdateChild(pk, parent, s),
                3 => Op::DeleteChild(pk),
                4 => Op::DeleteRel(pk),
                _ => Op::Parent(N_PARENTS + pk % LATE_PARENTS, s),
            }
        },
    )
}

/// The accepted plain-op form of one stream step, for the oracle replay
/// (same insertion order ⇒ same RowId space as the scored stream).
#[derive(Clone, Debug)]
enum PlainOp {
    Insert(&'static str, Vec<Value>),
    Update(&'static str, i64, Vec<Value>),
    Delete(&'static str, i64),
}

/// Seeds the database, installs an order, then drives the op stream
/// through the scored mutation API. Returns the per-table score log (the
/// oracle's install input — updated rows overwrite, deleted rows keep a
/// stale entry no install reads) and the accepted plain-op log (the
/// oracle's replay input).
fn run_stream(db: &mut Database, ops: &[Op]) -> (Vec<Vec<f64>>, Vec<PlainOp>) {
    for p in 0..N_PARENTS {
        db.insert("Parent", vec![Value::Int(p), format!("p{p}").into()]).unwrap();
    }
    // Two seed children so the install covers non-trivial postings.
    db.insert("Child", vec![Value::Int(100), Value::Float(1.0), Value::Int(0)]).unwrap();
    db.insert("Child", vec![Value::Int(101), Value::Float(2.0), Value::Int(1)]).unwrap();
    db.insert("Rel", vec![Value::Int(100), Value::Int(0), Value::Int(100)]).unwrap();

    let mut scores: Vec<Vec<f64>> = vec![
        (0..N_PARENTS).map(|p| 1.0 + p as f64).collect(), // Parent
        vec![3.0, 1.5],                                   // Child seeds
        vec![0.25],                                       // Rel seed
    ];
    {
        let snapshot = scores.clone();
        db.install_importance_order(&|t: TableId, r: RowId| snapshot[t.index()][r.index()]);
    }

    let parent_t = db.table_id("Parent").unwrap();
    let child = db.table_id("Child").unwrap();
    let rel = db.table_id("Rel").unwrap();
    let mut accepted = Vec::new();
    for op in ops {
        match *op {
            Op::Parent(pk, s) => {
                let dup = db.table(parent_t).by_pk(pk).is_some();
                let values = vec![Value::Int(pk), format!("p{pk}").into()];
                let r = batch_of_one(db, |db, b| {
                    db.insert_scored_staged(b, "Parent", values.clone(), s)
                });
                if dup {
                    assert!(r.is_err(), "duplicate parent pk must be rejected");
                } else {
                    r.unwrap();
                    scores[0].push(s);
                    accepted.push(PlainOp::Insert("Parent", values));
                }
            }
            Op::Child(pk, parent, s) => {
                let dup = db.table(child).by_pk(pk).is_some();
                let values = vec![Value::Int(pk), Value::Float(s), Value::Int(parent)];
                let r = batch_of_one(db, |db, b| {
                    db.insert_scored_staged(b, "Child", values.clone(), s)
                });
                if dup {
                    assert!(r.is_err(), "duplicate child pk must be rejected");
                } else {
                    r.unwrap();
                    scores[1].push(s);
                    accepted.push(PlainOp::Insert("Child", values));
                }
            }
            Op::Rel(pk, parent, child_pk, s) => {
                let dup = db.table(rel).by_pk(pk).is_some();
                if db.table(child).by_pk(child_pk).is_none() {
                    continue; // dead or absent endpoint: plain insert would reject
                }
                let values = vec![Value::Int(pk), Value::Int(parent), Value::Int(child_pk)];
                let r =
                    batch_of_one(db, |db, b| db.insert_scored_staged(b, "Rel", values.clone(), s));
                if dup {
                    assert!(r.is_err(), "duplicate rel pk must be rejected");
                } else {
                    r.unwrap();
                    scores[2].push(s);
                    accepted.push(PlainOp::Insert("Rel", values));
                }
            }
            Op::UpdateChild(pk, parent, s) => {
                let Some(row) = db.table(child).by_pk(pk) else {
                    assert!(
                        batch_of_one(db, |db, b| db.update_scored_staged(
                            b,
                            "Child",
                            pk,
                            vec![Value::Int(pk)],
                            s
                        ))
                        .is_err(),
                        "updating a missing row must be rejected"
                    );
                    continue;
                };
                let values = vec![Value::Int(pk), Value::Float(s), Value::Int(parent)];
                batch_of_one(db, |db, b| {
                    db.update_scored_staged(b, "Child", pk, values.clone(), s)
                })
                .unwrap();
                scores[1][row.index()] = s;
                accepted.push(PlainOp::Update("Child", pk, values));
            }
            Op::DeleteChild(pk) => {
                if db.table(child).by_pk(pk).is_none() {
                    assert!(
                        batch_of_one(db, |db, b| db.delete_scored_staged(b, "Child", pk)).is_err()
                    );
                    continue;
                }
                // Deleting a still-referenced target is legal at the
                // storage layer (the engine enforces RESTRICT above it):
                // the referencing pairs leave, their rows stay counted.
                batch_of_one(db, |db, b| db.delete_scored_staged(b, "Child", pk)).unwrap();
                accepted.push(PlainOp::Delete("Child", pk));
            }
            Op::DeleteRel(pk) => {
                if db.table(rel).by_pk(pk).is_none() {
                    assert!(
                        batch_of_one(db, |db, b| db.delete_scored_staged(b, "Rel", pk)).is_err()
                    );
                    continue;
                }
                batch_of_one(db, |db, b| db.delete_scored_staged(b, "Rel", pk)).unwrap();
                accepted.push(PlainOp::Delete("Rel", pk));
            }
        }
    }
    (scores, accepted)
}

/// The oracle: replays the accepted stream through the *plain* mutation
/// API — same insertion order, hence the same RowId space, including
/// tombstoned slots — then performs one from-scratch install over the
/// final scores. Fresh installs index live rows only, so its postings
/// are the live-filtered ground truth.
fn oracle_replay(accepted: &[PlainOp], scores: &[Vec<f64>]) -> Database {
    let mut db = fresh_db();
    for p in 0..N_PARENTS {
        db.insert("Parent", vec![Value::Int(p), format!("p{p}").into()]).unwrap();
    }
    db.insert("Child", vec![Value::Int(100), Value::Float(1.0), Value::Int(0)]).unwrap();
    db.insert("Child", vec![Value::Int(101), Value::Float(2.0), Value::Int(1)]).unwrap();
    db.insert("Rel", vec![Value::Int(100), Value::Int(0), Value::Int(100)]).unwrap();
    for op in accepted {
        match op {
            PlainOp::Insert(t, values) => {
                db.insert(t, values.clone()).unwrap();
            }
            PlainOp::Update(t, pk, values) => {
                db.update(t, *pk, values.clone()).unwrap();
            }
            PlainOp::Delete(t, pk) => {
                db.delete(t, *pk).unwrap();
            }
        }
    }
    let snapshot: Vec<Vec<f64>> = scores.to_vec();
    db.install_importance_order(&|t: TableId, r: RowId| snapshot[t.index()][r.index()]);
    db
}

/// The sorted FK run of `key`, or nothing while the index is absent.
fn fk_rows(db: &Database, tid: TableId, col: usize, key: i64) -> Vec<RowId> {
    db.table(tid).sorted_fk_index(col).map_or_else(Vec::new, |idx| idx.rows(key).to_vec())
}

/// Every table's resolved FK parents equal a fresh `by_pk` of its live
/// rows' keys (`None` for a NULL or dangling key).
fn parents_are_resolved(db: &Database) -> bool {
    db.tables().all(|(_, t)| {
        t.schema.fks.iter().all(|fk| {
            let target = db.table(db.table_id(&fk.ref_table).unwrap());
            t.live_rows().all(|r| {
                let fresh = t.value(r, fk.column).as_int().and_then(|k| target.by_pk(k));
                t.parent_of(fk.column, r, target) == fresh
            })
        })
    })
}

/// Every row slot's installed score, per table, as bits.
fn score_bits(db: &Database) -> Vec<Vec<u64>> {
    db.tables()
        .map(|(_, t)| (0..t.len() as u32).map(|r| t.installed_score(RowId(r)).to_bits()).collect())
        .collect()
}

/// Scores with heavy ties, both zeros included (`-0.0 < +0.0` under
/// `total_cmp`, the order the postings are kept in).
const TIE_PALETTE: [f64; 6] = [0.0, -0.0, 0.5, 0.5, 1.0, 3.0];

/// Every sorted FK posting list of the database, keyed by `(table,
/// column, key)` — what a second install must leave unchanged.
type Postings = BTreeMap<(TableId, usize, i64), Vec<RowId>>;

fn all_postings(db: &Database) -> Postings {
    let mut fk = BTreeMap::new();
    for (tid, t) in db.tables() {
        for (col, idx) in t.sorted_fk_indexes() {
            for (key, rows) in idx.posting_lists() {
                fk.insert((tid, col, key), rows.to_vec());
            }
        }
    }
    fk
}

/// Every junction probe of Rel — both orientations, keys `-1..128`, the
/// first `l` targets by installed score — as its rows and paper cost,
/// each one heap probe.
fn junction_probes(db: &Database, l: usize) -> Vec<(Vec<RowId>, AccessStats)> {
    let (parent, child) = (db.table_id("Parent").unwrap(), db.table_id("Child").unwrap());
    let rel = db.table_id("Rel").unwrap();
    let mut probes = Vec::new();
    for (s_col, t_col, target) in [(1, 2, child), (2, 1, parent)] {
        let li = |r: RowId| db.table(target).installed_score(r);
        for key in -1..128i64 {
            let (mut cost, mut rows) = (ProbeCost::default(), Vec::new());
            db.select_via_junction_top_l_into(
                rel,
                s_col,
                key,
                t_col,
                target,
                None,
                l,
                f64::NEG_INFINITY,
                &li,
                &mut TopLScratch::new(),
                &mut cost,
                &mut rows,
            );
            assert_eq!((cost.probes.fast, cost.probes.heap), (0, 1));
            probes.push((rows, cost.access));
        }
    }
    probes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    /// (a) Incremental posting maintenance is byte-identical to a
    /// from-scratch install over a plainly-replayed database, after
    /// arbitrary mixed interleavings — FK postings, and the rows and
    /// paper cost of every junction probe in both orientations.
    #[test]
    fn incremental_maintenance_equals_from_scratch_install(
        ops in proptest::collection::vec(op_strategy(), 0..60),
    ) {
        let mut live = fresh_db();
        let (scores, accepted) = run_stream(&mut live, &ops);
        let oracle = oracle_replay(&accepted, &scores);
        prop_assert!(parents_are_resolved(&live), "resolved parents diverge from by_pk");
        prop_assert!(parents_are_resolved(&oracle), "plain ops left a parent stale");
        let log: Vec<Vec<u64>> =
            scores.iter().map(|t| t.iter().map(|s| s.to_bits()).collect()).collect();
        prop_assert_eq!(score_bits(&live), log, "the snapshots diverge from the fold's scores");

        let child = live.table_id("Child").unwrap();
        let child_fk = live.table(child).schema.column_index("parent_id").unwrap();
        let rel = live.table_id("Rel").unwrap();
        let rel_parent = live.table(rel).schema.column_index("parent_id").unwrap();
        let rel_child = live.table(rel).schema.column_index("child_id").unwrap();

        for (tid, col) in [(child, child_fk), (rel, rel_parent), (rel, rel_child)] {
            prop_assert!(live.table(tid).sorted_fk_index(col).is_some(), "order torn down");
            for key in -1..128i64 {
                prop_assert_eq!(
                    fk_rows(&live, tid, col, key),
                    fk_rows(&oracle, tid, col, key),
                    "fk postings diverge: table {:?} col {} key {}", tid, col, key
                );
            }
        }
        // Every settled FK run holds live rows only.
        for (tid, t) in live.tables() {
            for (col, idx) in t.sorted_fk_indexes() {
                for (key, rows) in idx.posting_lists() {
                    prop_assert!(
                        rows.iter().all(|&r| t.is_live(r)),
                        "table {:?} col {} key {}: a dead row in {:?}", tid, col, key, rows
                    );
                }
            }
        }
        // Junction probes, both orientations: rows and paper cost (the
        // raw group read and the rows returned) equal the oracle's.
        let probes = junction_probes(&live, 4);
        prop_assert!(probes == junction_probes(&oracle, 4), "junction probes diverge");
        // The order survived the whole stream in every table — never
        // torn down.
        prop_assert!(live.tables().all(|(_, t)| t.is_sorted()), "an order was dropped");
    }

    /// (b) Staged scored batches settle byte-identically to the fold of
    /// single scored calls — same FK runs, junction probes and epoch —
    /// across batch sizes.
    #[test]
    fn scored_batches_settle_identically_to_the_fold(
        ops in proptest::collection::vec(op_strategy(), 0..60),
        batch_size in 1usize..9,
    ) {
        // Pre-resolve the accepted stream so both paths stage exactly the
        // same mutations in the same order.
        let mut parent_live: std::collections::HashSet<i64> = (0..N_PARENTS).collect();
        let mut child_live: std::collections::HashSet<i64> = [100, 101].into_iter().collect();
        let mut rel_live: std::collections::HashSet<i64> = [100].into_iter().collect();
        #[derive(Clone)]
        enum Staged {
            Insert(&'static str, Vec<Value>, f64),
            Update(&'static str, i64, Vec<Value>, f64),
            Delete(&'static str, i64),
        }
        let mut accepted: Vec<Staged> = Vec::new();
        for op in &ops {
            match *op {
                Op::Parent(pk, s) => {
                    if parent_live.insert(pk) {
                        accepted.push(Staged::Insert(
                            "Parent",
                            vec![Value::Int(pk), format!("p{pk}").into()],
                            s,
                        ));
                    }
                }
                Op::Child(pk, parent, s) => {
                    if child_live.insert(pk) {
                        accepted.push(Staged::Insert(
                            "Child",
                            vec![Value::Int(pk), Value::Float(s), Value::Int(parent)],
                            s,
                        ));
                    }
                }
                Op::Rel(pk, parent, child_pk, s) => {
                    if child_live.contains(&child_pk) && rel_live.insert(pk) {
                        accepted.push(Staged::Insert(
                            "Rel",
                            vec![Value::Int(pk), Value::Int(parent), Value::Int(child_pk)],
                            s,
                        ));
                    }
                }
                Op::UpdateChild(pk, parent, s) => {
                    if child_live.contains(&pk) {
                        accepted.push(Staged::Update(
                            "Child",
                            pk,
                            vec![Value::Int(pk), Value::Float(s), Value::Int(parent)],
                            s,
                        ));
                    }
                }
                Op::DeleteChild(pk) => {
                    if child_live.remove(&pk) {
                        accepted.push(Staged::Delete("Child", pk));
                    }
                }
                Op::DeleteRel(pk) => {
                    if rel_live.remove(&pk) {
                        accepted.push(Staged::Delete("Rel", pk));
                    }
                }
            }
        }

        let mut folded = fresh_db();
        run_stream(&mut folded, &[]);
        for staged in &accepted {
            match staged {
                Staged::Insert(t, values, s) => {
                    batch_of_one(&mut folded, |db, b| db.insert_scored_staged(b, t, values.clone(), *s)).unwrap();
                }
                Staged::Update(t, pk, values, s) => {
                    batch_of_one(&mut folded, |db, b| db.update_scored_staged(b, t, *pk, values.clone(), *s)).unwrap();
                }
                Staged::Delete(t, pk) => {
                    batch_of_one(&mut folded, |db, b| db.delete_scored_staged(b, t, *pk)).unwrap();
                }
            }
        }

        let mut batched = fresh_db();
        run_stream(&mut batched, &[]);
        for chunk in accepted.chunks(batch_size) {
            let mut b = batched.begin_scored_batch();
            for staged in chunk {
                match staged {
                    Staged::Insert(t, values, s) => {
                        batched.insert_scored_staged(&mut b, t, values.clone(), *s).unwrap();
                    }
                    Staged::Update(t, pk, values, s) => {
                        batched.update_scored_staged(&mut b, t, *pk, values.clone(), *s).unwrap();
                    }
                    Staged::Delete(t, pk) => {
                        batched.delete_scored_staged(&mut b, t, *pk).unwrap();
                    }
                }
            }
            batched.finish_scored_batch(b);
        }

        prop_assert_eq!(batched.epoch(), folded.epoch());
        prop_assert!(parents_are_resolved(&batched), "batched parents diverge from by_pk");
        prop_assert!(parents_are_resolved(&folded), "folded parents diverge from by_pk");
        prop_assert_eq!(score_bits(&batched), score_bits(&folded), "score snapshots diverge");
        let child = folded.table_id("Child").unwrap();
        let child_fk = folded.table(child).schema.column_index("parent_id").unwrap();
        let rel = folded.table_id("Rel").unwrap();
        let rel_parent = folded.table(rel).schema.column_index("parent_id").unwrap();
        let rel_child = folded.table(rel).schema.column_index("child_id").unwrap();
        for (tid, col) in [(child, child_fk), (rel, rel_parent), (rel, rel_child)] {
            prop_assert!(batched.table(tid).sorted_fk_index(col).is_some(), "not settled");
            for key in -1..128i64 {
                prop_assert_eq!(
                    fk_rows(&batched, tid, col, key),
                    fk_rows(&folded, tid, col, key),
                    "raw postings diverge: table {:?} col {} key {}", tid, col, key
                );
            }
        }
        prop_assert!(
            junction_probes(&batched, 4) == junction_probes(&folded, 4),
            "junction probes diverge"
        );
    }

    /// (c) After any mixed interleaving, the prefix-scan fast path and
    /// the heap fallback return identical rows with identical paper-cost
    /// accounting, and the fast path actually fires (probe mix).
    #[test]
    fn fast_path_is_byte_identical_with_identical_accounting_after_churn(
        ops in proptest::collection::vec(op_strategy(), 0..60),
        l in 1usize..8,
        threshold in 0.0..6.0f64,
        affinity in 0.25..1.0f64,
    ) {
        let mut db = fresh_db();
        run_stream(&mut db, &ops);
        let child = db.table_id("Child").unwrap();
        let fk = db.table(child).schema.column_index("parent_id").unwrap();
        let li = |r: RowId| affinity * db.table(child).installed_score(r);
        for parent in 0..N_PARENTS {
            let s0 = db.access().snapshot();
            let p0 = db.access().probes();
            let fast = db.select_eq_top_l(child, fk, parent, l, threshold, true, &li);
            let s1 = db.access().snapshot();
            let p1 = db.access().probes();
            let slow = db.select_eq_top_l(child, fk, parent, l, threshold, false, &li);
            let s2 = db.access().snapshot();
            prop_assert_eq!(&fast, &slow, "rows diverge for parent {}", parent);
            prop_assert_eq!(s1.since(s0), s2.since(s1), "accounting diverges");
            prop_assert_eq!(p1.fast - p0.fast, 1, "the maintained order must prefix-scan");
            // Fast-path results never leak a tombstoned row.
            for r in &fast {
                prop_assert!(db.table(child).is_live(*r), "a dead row surfaced");
            }
        }
    }

    /// The global epoch advances by exactly one per accepted mutation of
    /// any kind, and not at all for a rejected one: after any stream it
    /// equals the number of mutations the stream's model accepted, seed
    /// rows included.
    #[test]
    fn epochs_count_every_mutation(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let mut db = fresh_db();
        prop_assert_eq!(db.epoch(), Epoch::default());
        let (_, accepted) = run_stream(&mut db, &ops);
        let seeds = N_PARENTS as u64 + 3; // the parents, two children and a rel
        prop_assert_eq!(
            db.epoch().get(),
            seeds + accepted.len() as u64,
            "the global epoch counts every accepted mutation"
        );
    }

    /// The install sorts each list where it lies with an unstable sort;
    /// that is byte-identical to a stable sort because the comparator is
    /// a strict total order. Under heavy score ties, both zeros, equal
    /// scores across different junction targets, NULL junction targets,
    /// and empty and singleton groups, every FK posting list and every
    /// junction probe equals an in-test stable-sort reference entry for
    /// entry — and installing the same scores a second time changes
    /// nothing.
    #[test]
    fn install_equals_a_stable_sort_reference_under_ties(
        parent_scores in proptest::collection::vec(0usize..6, N_PARENTS as usize),
        children in proptest::collection::vec((0i64..N_PARENTS, 0usize..6), 0..40),
        rels in proptest::collection::vec((0i64..N_PARENTS, 0usize..48, 0usize..6), 0..40),
    ) {
        let mut db = fresh_db();
        for pk in 0..N_PARENTS {
            db.insert("Parent", vec![Value::Int(pk), format!("p{pk}").into()]).unwrap();
        }
        for (i, &(parent, _)) in children.iter().enumerate() {
            db.insert("Child", vec![Value::Int(i as i64), Value::Float(0.0), Value::Int(parent)])
                .unwrap();
        }
        for (i, &(parent, pick, _)) in rels.iter().enumerate() {
            // Picks past the children are NULL targets: counted in the
            // raw group, joining nothing.
            let target = if pick < 40 && !children.is_empty() {
                Value::Int((pick % children.len()) as i64)
            } else {
                Value::Null
            };
            db.insert("Rel", vec![Value::Int(i as i64), Value::Int(parent), target]).unwrap();
        }
        let (parent, child, rel) = (
            db.table_id("Parent").unwrap(),
            db.table_id("Child").unwrap(),
            db.table_id("Rel").unwrap(),
        );
        let mut scores: Vec<Vec<f64>> = vec![Vec::new(); 3];
        scores[parent.index()] = parent_scores.iter().map(|&i| TIE_PALETTE[i]).collect();
        scores[child.index()] = children.iter().map(|&(_, i)| TIE_PALETTE[i]).collect();
        scores[rel.index()] = rels.iter().map(|&(_, _, i)| TIE_PALETTE[i]).collect();
        let score = |t: TableId, r: RowId| scores[t.index()][r.index()];
        db.install_importance_order(&score);

        // FK postings: the base group (RowId ascending) stably sorted by
        // descending score alone — ties keep RowId order.
        for (tid, col) in [(child, 2), (rel, 1), (rel, 2)] {
            let t = db.table(tid);
            let sorted = t.sorted_fk_index(col).unwrap();
            for key in -1..40i64 {
                let mut reference = t.rows_where_eq(col, key).to_vec();
                reference.sort();
                reference.sort_by(|&a, &b| score(tid, b).total_cmp(&score(tid, a)));
                prop_assert_eq!(sorted.rows(key), &reference[..], "{:?}.{} = {}", tid, col, key);
            }
        }
        // Junction probes, both orientations: the junction rows' targets
        // stably sorted by (target score desc, target RowId asc), the
        // group read counted whole, NULL targets included.
        let jt = db.table(rel);
        let probes = junction_probes(&db, usize::MAX);
        let mut at = 0;
        for (s_col, t_col, target) in [(1, 2, child), (2, 1, parent)] {
            for key in -1..128i64 {
                let raw = jt.rows_where_eq(s_col, key);
                let mut reference: Vec<RowId> = raw
                    .iter()
                    .filter_map(|&j| db.table(target).by_pk(jt.value(j, t_col).as_int()?))
                    .collect();
                reference.sort();
                reference.sort_by(|&a, &b| score(target, b).total_cmp(&score(target, a)));
                let tuples = (raw.len() + reference.len()) as u64;
                prop_assert_eq!(&probes[at].0, &reference, "Rel.{} = {}", s_col, key);
                prop_assert_eq!(probes[at].1, AccessStats { joins: 2, tuples });
                at += 1;
            }
        }

        let first = all_postings(&db);
        db.install_importance_order(&score);
        prop_assert!(all_postings(&db) == first, "a second install moved a posting");
        prop_assert!(junction_probes(&db, usize::MAX) == probes, "a second install moved a probe");
    }
}
