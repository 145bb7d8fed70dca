//! Backend-equivalence property suite: a database whose postings were
//! evicted to a paged segment store must answer every TOP-l probe
//! byte-identically to its fully-RAM twin — same rows, same paper-cost
//! accounting, same probe-kind mix — across arbitrary mutation
//! histories. The link cursors are held to the same standard pair for
//! pair, and the coverage/absent-key distinction is pinned: a covered
//! key missing from the segment is a *fast* empty probe, an uncovered
//! column is a heap fallback.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use sizel_disk::PagedStore;
use sizel_storage::{
    Database, PostingCursor, PostingPager, RowId, ScoredBatch, SliceCursor, TableId, TableSchema,
    Value, ValueType,
};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("sizel-disk-eq-{}-{}-{}", std::process::id(), tag, n))
}

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

/// Runs one staged op as a batch of one.
fn batch_of_one<T>(db: &mut Database, op: impl FnOnce(&mut Database, &mut ScoredBatch) -> T) -> T {
    let mut batch = db.begin_scored_batch();
    let out = op(db, &mut batch);
    db.finish_scored_batch(batch);
    out
}

const N_PARENTS: i64 = 6;

#[derive(Clone, Debug)]
enum Op {
    Child(i64, i64, f64),
    Rel(i64, i64, i64, f64),
    UpdateChild(i64, i64, f64),
    DeleteChild(i64),
    DeleteRel(i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..5, 0i64..48, 0i64..N_PARENTS, 0i64..48, 0.0..8.0f64).prop_map(
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

/// Seeds and mutates `db` through the scored API (same stream ⇒ same
/// final state on every replica).
fn run_stream(db: &mut Database, ops: &[Op]) {
    for p in 0..N_PARENTS {
        db.insert("Parent", vec![Value::Int(p), format!("p{p}").into()]).unwrap();
    }
    db.insert("Child", vec![Value::Int(100), Value::Float(1.0), Value::Int(0)]).unwrap();
    db.insert("Child", vec![Value::Int(101), Value::Float(2.0), Value::Int(1)]).unwrap();
    db.insert("Rel", vec![Value::Int(100), Value::Int(0), Value::Int(100)]).unwrap();
    let seed: Vec<Vec<f64>> =
        vec![(0..N_PARENTS).map(|p| 1.0 + p as f64).collect(), vec![3.0, 1.5], vec![0.25]];
    db.install_importance_order(&|t: TableId, r: RowId| seed[t.index()][r.index()]);

    let child = db.table_id("Child").unwrap();
    let rel = db.table_id("Rel").unwrap();
    for op in ops {
        match *op {
            Op::Child(pk, parent, s) => {
                if db.table(child).by_pk(pk).is_none() {
                    batch_of_one(db, |db, b| {
                        db.insert_scored_staged(
                            b,
                            "Child",
                            vec![Value::Int(pk), Value::Float(s), Value::Int(parent)],
                            s,
                        )
                    })
                    .unwrap();
                }
            }
            Op::Rel(pk, parent, child_pk, s) => {
                if db.table(rel).by_pk(pk).is_none() && db.table(child).by_pk(child_pk).is_some() {
                    batch_of_one(db, |db, b| {
                        db.insert_scored_staged(
                            b,
                            "Rel",
                            vec![Value::Int(pk), Value::Int(parent), Value::Int(child_pk)],
                            s,
                        )
                    })
                    .unwrap();
                }
            }
            Op::UpdateChild(pk, parent, s) => {
                if db.table(child).by_pk(pk).is_some() {
                    batch_of_one(db, |db, b| {
                        db.update_scored_staged(
                            b,
                            "Child",
                            pk,
                            vec![Value::Int(pk), Value::Float(s), Value::Int(parent)],
                            s,
                        )
                    })
                    .unwrap();
                }
            }
            Op::DeleteChild(pk) => {
                if db.table(child).by_pk(pk).is_some() {
                    batch_of_one(db, |db, b| db.delete_scored_staged(b, "Child", pk)).unwrap();
                }
            }
            Op::DeleteRel(pk) => {
                if db.table(rel).by_pk(pk).is_some() {
                    batch_of_one(db, |db, b| db.delete_scored_staged(b, "Rel", pk)).unwrap();
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole equivalence property: paged and RAM backends answer
    /// identically with identical accounting, across mutation histories.
    #[test]
    fn paged_probes_equal_ram_probes_with_identical_accounting(
        ops in proptest::collection::vec(op_strategy(), 0..40),
        l in 1usize..6,
        threshold in 0.0..5.0f64,
    ) {
        let mut ram = fresh_db();
        run_stream(&mut ram, &ops);
        let mut paged = fresh_db();
        run_stream(&mut paged, &ops);

        let child = ram.table_id("Child").unwrap();
        let rel = ram.table_id("Rel").unwrap();
        let fk = ram.table(child).schema.column_index("parent_id").unwrap();

        let dir = temp_dir("prop");
        let store = Arc::new(PagedStore::new(&dir, 8).unwrap());
        store.checkpoint_from(&paged, &[child, rel]).unwrap();
        paged.evict_table_postings(child);
        paged.evict_table_postings(rel);
        paged.set_pager(Arc::<PagedStore>::clone(&store));
        prop_assert_eq!(store.stamp(), paged.fk_order(), "fresh checkpoint matches the token");

        // Each replica installed its own (process-unique) token.
        let ram_token = ram.fk_order().unwrap();
        let paged_token = paged.fk_order().unwrap();
        for parent in -1..N_PARENTS + 1 {
            let ram_li = |r: RowId| 0.5 * ram.table(child).installed_score(r);
            let paged_li = |r: RowId| 0.5 * paged.table(child).installed_score(r);
            let r0 = ram.access().snapshot();
            let rp0 = ram.access().probes();
            let from_ram =
                ram.select_eq_top_l(child, fk, parent, l, threshold, Some(ram_token), &ram_li);
            let r1 = ram.access().snapshot();
            let rp1 = ram.access().probes();
            let p0 = paged.access().snapshot();
            let pp0 = paged.access().probes();
            let from_disk =
                paged.select_eq_top_l(child, fk, parent, l, threshold, Some(paged_token), &paged_li);
            let p1 = paged.access().snapshot();
            let pp1 = paged.access().probes();
            prop_assert_eq!(&from_ram, &from_disk, "rows diverge for parent {}", parent);
            prop_assert_eq!(r1.since(r0), p1.since(p0), "accounting diverges for parent {}", parent);
            prop_assert_eq!(rp1.fast - rp0.fast, 1, "ram probe must prefix-scan");
            prop_assert_eq!(pp1.fast - pp0.fast, 1, "paged probe must prefix-scan");
        }
        // Link posting groups: the paged cursor replays the RAM slices
        // pair for pair, and the raw group length
        // the accounting reports is preserved.
        let rel_t = ram.table(rel);
        for (col, idx) in rel_t.sorted_link_indexes() {
            for key in -1..64i64 {
                let mut slice = SliceCursor::new(idx.pairs(key));
                let mut paged_cur =
                    store.link_cursor(rel, col, key).expect("checkpointed column is covered");
                loop {
                    let a = slice.next_entry();
                    let b = paged_cur.next_entry();
                    prop_assert_eq!(a, b, "link pairs diverge: col {} key {}", col, key);
                    if a.is_none() {
                        break;
                    }
                }
                prop_assert!(!paged_cur.failed());
                prop_assert_eq!(
                    store.link_raw_len(rel, col, key),
                    Some(idx.raw_group_len(key)),
                    "raw group length diverges: col {} key {}", col, key
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn covered_absent_keys_probe_fast_and_uncovered_tables_fall_back() {
    let mut db = fresh_db();
    run_stream(&mut db, &[]);
    let child = db.table_id("Child").unwrap();
    let rel = db.table_id("Rel").unwrap();
    let fk = db.table(child).schema.column_index("parent_id").unwrap();
    let rel_fk = db.table(rel).schema.column_index("parent_id").unwrap();

    // Checkpoint ONLY Child: Rel stays uncovered.
    let dir = temp_dir("coverage");
    let store = Arc::new(PagedStore::new(&dir, 4).unwrap());
    store.checkpoint_from(&db, &[child]).unwrap();
    db.evict_table_postings(child);
    db.evict_table_postings(rel);
    db.set_pager(Arc::<PagedStore>::clone(&store));
    let token = db.fk_order().unwrap();

    // Key 5 has no children: covered-but-absent must still be a FAST
    // probe returning empty (the RAM path's empty-slice behavior).
    let li = |r: RowId| db.table(child).installed_score(r);
    let p0 = db.access().probes();
    let empty = db.select_eq_top_l(child, fk, 5, 3, 0.0, Some(token), &li);
    let p1 = db.access().probes();
    assert!(empty.is_empty());
    assert_eq!(p1.fast - p0.fast, 1, "covered absent key is a fast probe");

    // Rel was not checkpointed: its probes are heap fallbacks.
    let rli = |r: RowId| db.table(rel).installed_score(r);
    let h0 = db.access().probes();
    let rows = db.select_eq_top_l(rel, rel_fk, 0, 3, 0.0, Some(token), &rli);
    let h1 = db.access().probes();
    assert_eq!(rows.len(), 1, "the seed Rel row under parent 0");
    assert_eq!(h1.heap - h0.heap, 1, "uncovered table falls back to the heap path");
    assert_eq!(h1.fast, h0.fast);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_mutation_stales_the_segment_and_probes_fall_back_until_recheckpoint() {
    let mut db = fresh_db();
    run_stream(&mut db, &[]);
    let child = db.table_id("Child").unwrap();
    let fk = db.table(child).schema.column_index("parent_id").unwrap();
    let dir = temp_dir("stale");
    let store = Arc::new(PagedStore::new(&dir, 4).unwrap());
    store.checkpoint_from(&db, &[child]).unwrap();
    db.evict_table_postings(child);
    db.set_pager(Arc::<PagedStore>::clone(&store));

    // A scored insert re-stamps the installed token: the segment is now
    // stale and must silently stop serving.
    batch_of_one(&mut db, |db, b| {
        db.insert_scored_staged(
            b,
            "Child",
            vec![Value::Int(7), Value::Float(0.5), Value::Int(0)],
            7.0,
        )
    })
    .unwrap();
    assert_ne!(store.stamp(), db.fk_order(), "mutation re-stamped the token");
    let token = db.fk_order().unwrap();
    let li = |r: RowId| db.table(child).installed_score(r);
    let p0 = db.access().probes();
    let rows = db.select_eq_top_l(child, fk, 0, 8, 0.0, Some(token), &li);
    let p1 = db.access().probes();
    assert!(rows.contains(&db.table(child).by_pk(7).unwrap()), "fresh row served");
    assert_eq!(p1.heap - p0.heap, 1, "stale segment falls back to the heap path");

    // Re-materialize the evicted postings from the installed scores,
    // re-checkpoint, and evict again: the fast path re-arms with the
    // fresh row under the rebuilt token.
    let token = db.rebuild_postings_from_installed().expect("scores installed");
    store.checkpoint_from(&db, &[child]).unwrap();
    db.evict_table_postings(child);
    let li = |r: RowId| db.table(child).installed_score(r);
    let p2 = db.access().probes();
    let again = db.select_eq_top_l(child, fk, 0, 8, 0.0, Some(token), &li);
    let p3 = db.access().probes();
    assert_eq!(again, rows, "re-checkpointed answers match the heap answers");
    assert_eq!(p3.fast - p2.fast, 1, "fresh segment serves the prefix scan again");
    std::fs::remove_dir_all(&dir).ok();
}
