//! Property suite for the epoch subsystem (ISSUE 4, extended by ISSUE 6
//! to the full mutation model): incremental sorted-posting maintenance
//! under arbitrary **insert/update/delete** interleavings must be
//! **byte-identical** to a from-scratch `install_importance_order` over a
//! plainly-replayed database — for FK postings (live-filtered across
//! tombstones) and junction link postings alike, at every churn *and*
//! compaction threshold — and the prefix-scan fast path must keep the
//! heap path's answers *and* its paper-cost accounting.

use proptest::prelude::*;
use std::collections::BTreeMap;

use sizel_storage::{Database, Epoch, RowId, ScoredBatch, TableId, TableSchema, Value, ValueType};

/// Parent (link target) / Child (FK postings) / Rel (junction between
/// Parent and Child, exercising both link orientations).
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

/// One step of the mutation stream.
#[derive(Clone, Debug)]
enum Op {
    /// Insert: (child pk, parent key, installed score)
    Child(i64, i64, f64),
    /// Insert: (rel pk, parent key, child pk candidate, installed score)
    Rel(i64, i64, i64, f64),
    /// Update: (child pk, new parent key, new installed score) — re-homes
    /// the row's FK posting and repositions it by the new score.
    UpdateChild(i64, i64, f64),
    /// Delete: (child pk) — tombstones the FK posting entry; when live
    /// Rel rows still reference the child, the link orientation drops and
    /// the dangling watch arms (the repair machinery under test).
    DeleteChild(i64),
    /// Delete: (rel pk) — junction rows are never referenced, so this is
    /// always legal; the link postings rebuild without the pair.
    DeleteRel(i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // (kind, pk, parent key, child pk, raw score); scores quantized to
    // 0.5 steps so tie-breaking is exercised constantly.
    (0u8..5, 0i64..64, 0i64..N_PARENTS, 0i64..64, 0.0..8.0f64).prop_map(
        |(kind, pk, parent, child, w)| {
            let s = (w * 2.0).floor() / 2.0;
            match kind {
                0 => Op::Child(pk, parent, s),
                1 => Op::Rel(pk, parent, child, s),
                2 => Op::UpdateChild(pk, parent, s),
                3 => Op::DeleteChild(pk),
                _ => Op::DeleteRel(pk),
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
fn run_stream(
    db: &mut Database,
    ops: &[Op],
    churn_threshold: usize,
    compaction_threshold: usize,
) -> (Vec<Vec<f64>>, Vec<PlainOp>) {
    db.set_churn_threshold(churn_threshold);
    db.set_compaction_threshold(compaction_threshold);
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

    let child = db.table_id("Child").unwrap();
    let rel = db.table_id("Rel").unwrap();
    let mut accepted = Vec::new();
    for op in ops {
        match *op {
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
                // it drops the link orientation and arms the dangling
                // watch, which is exactly the repair path under test.
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

/// Live-filtered posting view: the rows a reader actually receives.
fn live_rows(db: &Database, tid: TableId, col: usize, key: i64) -> Vec<RowId> {
    let t = db.table(tid);
    match t.sorted_fk_index(col) {
        Some(idx) => idx.rows(key).iter().copied().filter(|&r| t.is_live(r)).collect(),
        None => Vec::new(),
    }
}

/// Live-filtered link view: the pairs that survive the dual-endpoint
/// liveness check (junction row AND target row alive) readers apply.
fn live_pairs(
    db: &Database,
    jid: TableId,
    target: TableId,
    col: usize,
    key: i64,
) -> Vec<(RowId, RowId)> {
    let jt = db.table(jid);
    let tt = db.table(target);
    match jt.sorted_link_index(col) {
        Some(idx) => idx
            .pairs(key)
            .iter()
            .copied()
            .filter(|&(j, t)| jt.is_live(j) && tt.is_live(t))
            .collect(),
        None => Vec::new(),
    }
}

/// Scores with heavy ties, both zeros included (`-0.0 < +0.0` under
/// `total_cmp`, the order the postings are kept in).
const TIE_PALETTE: [f64; 6] = [0.0, -0.0, 0.5, 0.5, 1.0, 3.0];

/// Every sorted FK posting list and link group of the database, keyed by
/// `(table, column, key)` — what a second install must leave unchanged.
type Postings = (
    BTreeMap<(TableId, usize, i64), Vec<RowId>>,
    BTreeMap<(TableId, usize, i64), (Vec<(RowId, RowId)>, usize)>,
);

fn all_postings(db: &Database) -> Postings {
    let mut fk = BTreeMap::new();
    let mut links = BTreeMap::new();
    for (tid, t) in db.tables() {
        for (col, idx) in t.sorted_fk_indexes() {
            for (key, rows) in idx.posting_lists() {
                fk.insert((tid, col, key), rows.to_vec());
            }
        }
        for (col, idx) in t.sorted_link_indexes() {
            for (key, pairs, raw_len) in idx.groups() {
                links.insert((tid, col, key), (pairs.to_vec(), raw_len));
            }
        }
    }
    (fk, links)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) Incremental posting maintenance is byte-identical (after
    /// live-filtering the maintained side's tombstones) to a from-scratch
    /// install over a plainly-replayed database, after arbitrary mixed
    /// interleavings — FK postings and both junction link orientations —
    /// across churn thresholds forcing pure binary maintenance, a mix,
    /// and pure batched re-sorts, and compaction thresholds forcing
    /// eager, occasional, and no compaction.
    #[test]
    fn incremental_maintenance_equals_from_scratch_install(
        ops in proptest::collection::vec(op_strategy(), 0..60),
        churn_threshold in (0u8..3).prop_map(|i| [1usize, 7, 1_000_000][i as usize]),
        compaction_threshold in (0u8..3).prop_map(|i| [0usize, 3, 1_000_000][i as usize]),
    ) {
        let mut live = fresh_db();
        let (scores, accepted) = run_stream(&mut live, &ops, churn_threshold, compaction_threshold);
        let oracle = oracle_replay(&accepted, &scores);

        let child = live.table_id("Child").unwrap();
        let child_fk = live.table(child).schema.column_index("parent_id").unwrap();
        let rel = live.table_id("Rel").unwrap();
        let rel_parent = live.table(rel).schema.column_index("parent_id").unwrap();
        let rel_child = live.table(rel).schema.column_index("child_id").unwrap();

        // FK postings, live-filtered on both sides (the oracle's fresh
        // install indexes live rows only; the maintained side may carry
        // uncompacted tombstones readers skip).
        for (tid, col) in [(child, child_fk), (rel, rel_parent), (rel, rel_child)] {
            prop_assert!(live.table(tid).sorted_fk_index(col).is_some(), "order torn down");
            for key in -1..128i64 {
                prop_assert_eq!(
                    live_rows(&live, tid, col, key),
                    live_rows(&oracle, tid, col, key),
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
        // Link postings: both orientations. A dangling child delete drops
        // the orientation (and a later re-insert heals it) — the two
        // replays must agree on presence AND on the live pair view:
        // junction-own deletes leave tombstoned pairs the dual-endpoint
        // liveness check skips, so raw pair equality only holds under
        // eager compaction. Raw group lengths (the paper-cost probe size)
        // must match regardless.
        let parent = live.table_id("Parent").unwrap();
        for (col, target) in [(rel_parent, child), (rel_child, parent)] {
            let a = live.table(rel).sorted_link_index(col);
            let b = oracle.table(rel).sorted_link_index(col);
            prop_assert_eq!(a.is_some(), b.is_some(), "orientation presence diverges: col {}", col);
            if let (Some(a), Some(b)) = (a, b) {
                prop_assert_eq!(a.key_count(), b.key_count());
                for key in -1..128i64 {
                    prop_assert_eq!(
                        live_pairs(&live, rel, target, col, key),
                        live_pairs(&oracle, rel, target, col, key),
                        "live link pairs diverge: col {} key {}", col, key
                    );
                    prop_assert_eq!(a.raw_group_len(key), b.raw_group_len(key));
                    if compaction_threshold == 0 {
                        prop_assert_eq!(
                            a.pairs(key), b.pairs(key),
                            "eagerly-compacted raw pairs diverge: col {} key {}", col, key
                        );
                    }
                }
            }
        }
        // Link-tombstone debt is bounded by the compaction threshold too.
        prop_assert!(
            live.table(rel).link_tombstones() <= compaction_threshold,
            "{} link tombstones exceed the threshold {}",
            live.table(rel).link_tombstones(), compaction_threshold
        );
        // The token survived the whole stream, re-stamped to the live
        // epoch — never torn down.
        let token = live.fk_order().expect("order survives the stream");
        prop_assert_eq!(token.epoch(), live.epoch());
    }

    /// (b) Staged scored batches settle byte-identically to the fold of
    /// single scored calls — same live-filtered postings, link pairs,
    /// token stamp, and epoch — across batch sizes, churn thresholds, and
    /// compaction thresholds (with eager or disabled compaction the raw
    /// postings, tombstones included, must match too).
    #[test]
    fn scored_batches_settle_identically_to_the_fold(
        ops in proptest::collection::vec(op_strategy(), 0..60),
        batch_size in 1usize..9,
        churn_threshold in (0u8..3).prop_map(|i| [1usize, 7, 1_000_000][i as usize]),
        compaction_threshold in (0u8..3).prop_map(|i| [0usize, 3, 1_000_000][i as usize]),
    ) {
        // Pre-resolve the accepted stream so both paths stage exactly the
        // same mutations in the same order.
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
        run_stream(&mut folded, &[], churn_threshold, compaction_threshold);
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
        run_stream(&mut batched, &[], churn_threshold, compaction_threshold);
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
        prop_assert_eq!(
            batched.fk_order().unwrap().epoch(),
            folded.fk_order().unwrap().epoch(),
            "token stamps diverge"
        );
        let child = folded.table_id("Child").unwrap();
        let child_fk = folded.table(child).schema.column_index("parent_id").unwrap();
        let rel = folded.table_id("Rel").unwrap();
        let rel_parent = folded.table(rel).schema.column_index("parent_id").unwrap();
        let rel_child = folded.table(rel).schema.column_index("child_id").unwrap();
        // The fold settles (and may compact) after every op, the batch
        // once per chunk — so at a mid-range compaction threshold their
        // *raw* tombstone content can legitimately differ. What must
        // always match is the live view; with compaction eager (0) or
        // disabled (huge) the raw postings coincide too.
        let raw_must_match = compaction_threshold == 0 || compaction_threshold >= 1_000_000;
        for (tid, col) in [(child, child_fk), (rel, rel_parent), (rel, rel_child)] {
            for key in -1..128i64 {
                prop_assert_eq!(
                    live_rows(&batched, tid, col, key),
                    live_rows(&folded, tid, col, key),
                    "live postings diverge: table {:?} col {} key {}", tid, col, key
                );
                if raw_must_match {
                    let a = batched.table(tid).sorted_fk_index(col).expect("settled");
                    let b = folded.table(tid).sorted_fk_index(col).expect("maintained");
                    prop_assert_eq!(
                        a.rows(key), b.rows(key),
                        "raw postings diverge: table {:?} col {} key {}", tid, col, key
                    );
                }
            }
        }
        let parent = folded.table_id("Parent").unwrap();
        for (col, target) in [(rel_parent, child), (rel_child, parent)] {
            let a = batched.table(rel).sorted_link_index(col);
            let b = folded.table(rel).sorted_link_index(col);
            prop_assert_eq!(a.is_some(), b.is_some(), "orientation presence diverges: col {}", col);
            if let (Some(a), Some(b)) = (a, b) {
                for key in -1..128i64 {
                    prop_assert_eq!(
                        live_pairs(&batched, rel, target, col, key),
                        live_pairs(&folded, rel, target, col, key),
                        "live link pairs diverge: col {} key {}", col, key
                    );
                    prop_assert_eq!(a.raw_group_len(key), b.raw_group_len(key));
                    if raw_must_match {
                        prop_assert_eq!(
                            a.pairs(key), b.pairs(key),
                            "raw link pairs diverge: col {} key {}", col, key
                        );
                    }
                }
            }
        }
    }

    /// (c) After any mixed interleaving, the prefix-scan fast path and
    /// the heap fallback return identical rows with identical paper-cost
    /// accounting — including across uncompacted tombstones — and the
    /// fast path actually fires (probe mix).
    #[test]
    fn fast_path_is_byte_identical_with_identical_accounting_after_churn(
        ops in proptest::collection::vec(op_strategy(), 0..60),
        l in 1usize..8,
        threshold in 0.0..6.0f64,
        affinity in 0.25..1.0f64,
        compaction_threshold in (0u8..3).prop_map(|i| [0usize, 3, 1_000_000][i as usize]),
    ) {
        let mut db = fresh_db();
        run_stream(&mut db, &ops, 9, compaction_threshold);
        let token = db.fk_order().unwrap();
        let child = db.table_id("Child").unwrap();
        let fk = db.table(child).schema.column_index("parent_id").unwrap();
        let li = |r: RowId| affinity * db.table(child).installed_score(r);
        for parent in 0..N_PARENTS {
            let s0 = db.access().snapshot();
            let p0 = db.access().probes();
            let fast = db.select_eq_top_l(child, fk, parent, l, threshold, Some(token), &li);
            let s1 = db.access().snapshot();
            let p1 = db.access().probes();
            let slow = db.select_eq_top_l(child, fk, parent, l, threshold, None, &li);
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
    /// any kind: after any stream it equals the sum of the per-table
    /// epochs (each of which counts that table's mutations), which also
    /// forces strict monotonicity step by step.
    #[test]
    fn epochs_count_every_mutation(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let mut db = fresh_db();
        prop_assert_eq!(db.epoch(), Epoch::default());
        run_stream(&mut db, &ops, 9, 3);
        prop_assert!(db.epoch() > Epoch::default());
        let total: u64 = db.tables().map(|(_, t)| t.epoch().get()).sum();
        prop_assert_eq!(db.epoch().get(), total, "global epoch counts every table's mutations");
    }

    /// The install sorts each list where it lies with an unstable sort;
    /// that is byte-identical to a stable sort because the comparator is
    /// a strict total order. Under heavy score ties, both zeros, equal
    /// scores across different link targets, NULL link targets, and
    /// empty and singleton groups, every FK posting list and every link
    /// group equals an in-test stable-sort reference entry for entry —
    /// and installing the same scores a second time changes nothing.
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
            // raw group, absent from the pairs.
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
        // Link groups, both orientations: junction rows joined to their
        // targets, stably sorted by (target score desc, target RowId asc)
        // — ties keep junction RowId order.
        let jt = db.table(rel);
        for (s_col, t_col, target) in [(1, 2, child), (2, 1, parent)] {
            let links = jt.sorted_link_index(s_col).unwrap();
            for key in -1..40i64 {
                let mut raw = jt.rows_where_eq(s_col, key).to_vec();
                raw.sort();
                let mut reference: Vec<(RowId, RowId)> = raw
                    .iter()
                    .filter_map(|&j| {
                        let pk = jt.value(j, t_col).as_int()?;
                        Some((j, db.table(target).by_pk(pk).unwrap()))
                    })
                    .collect();
                reference.sort_by(|&(_, a), &(_, b)| {
                    score(target, b).total_cmp(&score(target, a)).then(a.cmp(&b))
                });
                prop_assert_eq!(links.pairs(key), &reference[..], "Rel.{} = {}", s_col, key);
                prop_assert_eq!(links.raw_group_len(key), raw.len());
            }
        }

        let first = all_postings(&db);
        db.install_importance_order(&score);
        prop_assert!(all_postings(&db) == first, "a second install moved a posting");
    }
}
