//! The typed-column row store against a row-at-a-time model (ISSUE 24).
//!
//! A table keeps one typed vector per column and a lazily allocated NULL
//! bitmap beside it; nothing outside `sizel-storage` may be able to tell.
//! Random streams of plain insert / update / delete, scored-staged
//! inserts, order re-installs and malformed rows run against a model that
//! stores whole `Vec<Value>` rows, and every read the table offers is
//! compared after every step — so NULL → value, value → NULL, a column's
//! first NULL, rejected writes and tombstoned slots are all crossed.
//! Primary keys come from one of the key families the hasher is held to
//! (`hash.rs`), negatives and the `i64` extremes included, and a
//! delete → re-insert churn op reuses them, so the PK slot index probes
//! through clustered, emptied and refilled runs. One more family is
//! dense: its inserts take the next surrogate key, the first row's plus
//! the slot count, so most rows sit at their key's offset and take no PK
//! slot, while its churn puts deleted offset keys back through the
//! slots; after every step `by_pk` answers as the model does for every
//! model key, for absent keys and for the offset key of every dead row,
//! and the slots hold exactly the live rows off their offsets. The dense
//! family's keys, its `n` cells and its first FK cells count up with the
//! slot, so those columns start as sequences that store no cell; a key
//! out of sequence (churn), an `n` the op picks and the fifth row's FK
//! materialize them mid-stream, and a wide op widens a materialized `n`
//! or materializes a sequence straight to eight bytes. A wide op writes a value
//! outside `i32` into a column that held only narrow values and NULLs,
//! widening it mid-stream, and a text churn op rewrites one text cell
//! many times over; after every step the table's cell bytes stay within
//! a bound that only a text arena which repacks its garbage can meet.
//!
//! Two more streams hold the typed reads the rank solve and the junction
//! probe take. `Table::parent_of` — the FK cell read as an integer, then
//! the parent's primary key — must name the row a SQL join names, the
//! live parent row holding the key, after every plain or scored insert,
//! update and delete of either side: NULL keys, keys that dangle until
//! their parent arrives, parent keys deleted and inserted again under a
//! new row, and keys outside `i32` that widen both key columns. And the
//! score snapshot must read, slot for slot and bit for bit, what a
//! per-row model holds after every scored step, while it stays one
//! shared score until the first scored write of another widens it — once
//! — and an install of equal scores makes it one score again.

use proptest::prelude::*;

use sizel_storage::{Database, RowId, TableId, TableSchema, Value, ValueType};

const N_REFS: i64 = 4;
const N_PKS: i64 = 16;
const N_FAMILIES: u8 = 7;
/// The family whose inserts take the next surrogate key.
const DENSE: u8 = 6;
/// Rewrites of one text cell per text churn op.
const CHURN: usize = 64;

/// The `i`-th primary key of a key family: keys varying only in their
/// high bits, negatives, the two ends of `i64`, and surrogate keys from 1.
fn pk_key(family: u8, i: i64) -> i64 {
    match family {
        DENSE => 1 + i,
        0 => i,
        1 => i << 32,
        2 => i << 48,
        3 => (1 + (i << 20)) << 32,
        4 => -1 - i,
        _ if i % 2 == 0 => i64::MIN + i / 2,
        _ => i64::MAX - i / 2,
    }
}

fn fresh_db() -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::builder("Ref").pk("id").build().unwrap()).unwrap();
    db.create_table(
        TableSchema::builder("T")
            .pk("id")
            .column("n", ValueType::Int)
            .column("x", ValueType::Float)
            .searchable_text("s")
            .fk("ref_id", "Ref")
            .build()
            .unwrap(),
    )
    .unwrap();
    for k in 0..N_REFS {
        db.insert("Ref", vec![Value::Int(k)]).unwrap();
    }
    db
}

/// One model row slot: liveness and the values last stored (a tombstone
/// keeps them, as the engine's keyword un-indexing relies on).
type Slot = (bool, Vec<Value>);

/// `(kind, pk index, null mask, n, x, (text length, fk))`.
type Op = (u8, i64, u8, i64, f64, (usize, i64));

fn op() -> impl Strategy<Value = Op> {
    (0u8..11, 0..N_PKS, 0u8..16, -5i64..5, -1e3..1e3f64, (0usize..6, 0..N_REFS))
}

fn row_of(&(_, _, nulls, n, x, (len, fk)): &Op, pk: i64) -> Vec<Value> {
    let cell = |bit: u8, v: Value| if nulls & (1 << bit) != 0 { Value::Null } else { v };
    vec![
        Value::Int(pk),
        cell(0, Value::Int(n)),
        cell(1, Value::Float(x)),
        cell(2, Value::Text("é".repeat(len))),
        cell(3, Value::Int(fk)),
    ]
}

/// The dense family's `n` and FK cells of an insert at `slot`: the
/// slot's index while the op's `n` is −2 or more and while the FK names a
/// parent, so each column starts as a sequence (stored as no cell) until
/// a value leaves it — `n` at the op's choice, the FK at the fifth row —
/// and a wide op then widens the materialized `n`, or materializes the
/// sequence straight to eight-byte cells. NULLs stay.
fn count_up(values: &mut [Value], &(_, _, _, n, _, _): &Op, slot: usize) {
    if values[1] != Value::Null && n >= -2 {
        values[1] = Value::Int(slot as i64);
    }
    if values[4] != Value::Null && (slot as i64) < N_REFS {
        values[4] = Value::Int(slot as i64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_read_agrees_with_the_row_model(
        ops in proptest::collection::vec(op(), 1..60),
        family in 0..N_FAMILIES,
    ) {
        let mut db = fresh_db();
        db.install_importance_order(&|_, _| 1.0);
        let tid = db.table_id("T").unwrap();
        let mut model: Vec<Slot> = Vec::new();
        let live_slot = |model: &[Slot], pk: i64| {
            model.iter().position(|(live, v)| *live && v[0] == Value::Int(pk))
        };
        // The first row's key: a row at `base + row` takes no PK slot.
        let base_of = |model: &[Slot]| model.first().and_then(|(_, v)| v[0].as_int());
        for o in &ops {
            let kind = o.0;
            let pk = match (family, base_of(&model)) {
                (DENSE, Some(base)) if kind <= 2 => base + model.len() as i64,
                (DENSE, Some(base)) => base + o.1,
                _ => pk_key(family, o.1),
            };
            let mut values = row_of(o, pk);
            if family == DENSE && kind <= 2 {
                count_up(&mut values, o, model.len());
            }
            let slot = live_slot(&model, pk);
            match kind {
                // Plain and scored-staged inserts (the latter degrade to
                // the former once a plain op has dropped the order).
                0..=2 => {
                    let r = if kind == 2 {
                        let mut batch = db.begin_scored_batch();
                        let r = db.insert_scored_staged(&mut batch, "T", values.clone(), 0.5);
                        db.finish_scored_batch(batch);
                        r
                    } else {
                        db.insert("T", values.clone())
                    };
                    prop_assert_eq!(r.is_ok(), slot.is_none());
                    if let Ok(id) = r {
                        prop_assert_eq!(id.index(), model.len());
                        model.push((true, values));
                    }
                }
                3 | 4 => {
                    let r = db.update("T", pk, values.clone());
                    prop_assert_eq!(r.is_ok(), slot.is_some());
                    if let Some(i) = slot {
                        model[i].1 = values;
                    }
                }
                5 => {
                    prop_assert_eq!(db.delete("T", pk).is_ok(), slot.is_some());
                    if let Some(i) = slot {
                        model[i].0 = false;
                    }
                }
                6 => {
                    db.install_importance_order(&|_, _| 1.0);
                }
                // Delete → re-insert churn: the key leaves its slot run
                // and comes back under a new row id.
                8 => {
                    prop_assert_eq!(db.delete("T", pk).is_ok(), slot.is_some());
                    if let Some(i) = slot {
                        model[i].0 = false;
                    }
                    prop_assert!(db.insert("T", values.clone()).is_ok());
                    model.push((true, values));
                }
                // A value outside `i32` into `n`, which holds only
                // narrow values and NULLs until the first such write.
                9 => {
                    let mut values = values;
                    let n = o.3;
                    values[1] = Value::Int(if n < 0 { i64::MIN - n } else { i64::MAX - n });
                    match slot {
                        Some(i) => {
                            prop_assert!(db.update("T", pk, values.clone()).is_ok());
                            model[i].1 = values;
                        }
                        None => {
                            prop_assert!(db.insert("T", values.clone()).is_ok());
                            model.push((true, values));
                        }
                    }
                }
                // Text churn: one cell rewritten many times over, each
                // write leaving the old text's bytes behind in the arena.
                10 => {
                    if let Some(i) = slot {
                        let mut values = values;
                        for j in 0..CHURN {
                            values[3] = Value::Text("é".repeat((o.5 .0 + j) % 6));
                            prop_assert!(db.update("T", pk, values.clone()).is_ok());
                        }
                        model[i].1 = values;
                    }
                }
                // Malformed rows: short, and mistyped in the last column
                // after four good cells. Neither write may leave a trace.
                _ => {
                    let mut bad = values.clone();
                    bad[4] = Value::Text("not a key".into());
                    prop_assert!(db.insert("T", values[..4].to_vec()).is_err());
                    prop_assert!(db.insert("T", bad.clone()).is_err());
                    prop_assert!(db.update("T", pk, values[..4].to_vec()).is_err());
                    prop_assert!(db.update("T", pk, bad).is_err());
                }
            }

            // Plain writes leave the runs to the catalog's bulk build.
            db.build_runs();
            let t = db.table(tid);
            prop_assert_eq!(t.len(), model.len());
            // Cell bytes: eight a slot per column (spans included), the
            // NULL bitmaps, and twice the texts every slot — tombstones
            // too — holds; doubled for push slack, plus minimum capacities.
            let text: usize =
                model.iter().map(|(_, v)| v[3].as_str().map_or(0, str::len)).sum();
            let tight = 5 * 8 * model.len() + 4 * 8 * model.len().div_ceil(64) + 2 * text;
            prop_assert!(
                t.value_bytes() <= 2 * tight + 512,
                "{} cell bytes over {} slots holding {} text bytes",
                t.value_bytes(),
                model.len(),
                text
            );
            prop_assert_eq!(t.live_len(), model.iter().filter(|(live, _)| *live).count());
            for (i, (live, values)) in model.iter().enumerate() {
                let r = RowId(i as u32);
                prop_assert_eq!(t.is_live(r), *live);
                prop_assert_eq!(&t.row(r), values);
                for (c, v) in values.iter().enumerate() {
                    prop_assert_eq!(t.value(r, c), *v);
                    prop_assert_eq!(t.value(r, c).to_value(), v.clone());
                }
                prop_assert_eq!(Value::Int(t.pk_of(r)), values[0].clone());
            }
            let live: Vec<usize> = (0..model.len()).filter(|&i| model[i].0).collect();
            let mut seen = Vec::new();
            for (r, row) in t.iter() {
                let values = &model[r.index()].1;
                prop_assert!(row.iter().eq(values.iter().cloned()));
                for (c, v) in values.iter().enumerate() {
                    prop_assert_eq!(row[c], *v);
                }
                seen.push(r.index());
            }
            prop_assert_eq!(&seen, &live);
            prop_assert!(t.live_rows().map(RowId::index).eq(live.iter().copied()));
            for i in 0..N_PKS {
                let pk = pk_key(family, i);
                prop_assert_eq!(t.by_pk(pk).map(RowId::index), live_slot(&model, pk));
            }
            // Both PK paths: every model key, the offset key of every
            // row — dead ones included — and keys no row holds.
            let base = base_of(&model).unwrap_or(0);
            let offset_key = |i: usize| base.checked_add(i as i64);
            let model_keys = model.iter().filter_map(|(_, v)| v[0].as_int());
            let offset_keys = (0..=model.len()).filter_map(offset_key);
            let absent = [i64::MIN, -1, 0, i64::MAX, base.wrapping_sub(1), pk_key(family, N_PKS)];
            for pk in model_keys.chain(offset_keys).chain(absent) {
                prop_assert_eq!(t.by_pk(pk).map(RowId::index), live_slot(&model, pk), "key {}", pk);
            }
            let off_offset = model
                .iter()
                .enumerate()
                .filter(|(i, (live, v))| *live && v[0].as_int() != offset_key(*i))
                .count();
            prop_assert_eq!(t.pk_slot_rows(), off_offset);
            for k in 0..N_REFS {
                let mut scan: Vec<RowId> = live
                    .iter()
                    .filter(|&&i| model[i].1[4] == Value::Int(k))
                    .map(|&i| RowId(i as u32))
                    .collect();
                // The same live rows; in posting order — score desc,
                // RowId asc — while the sorted index answers, and then
                // the very slice it serves.
                let rows = t.rows_where_eq(4, k);
                let mut sorted_rows = rows.to_vec();
                sorted_rows.sort();
                prop_assert_eq!(&sorted_rows, &scan);
                if let Some(idx) = t.sorted_fk_index(4) {
                    scan.sort_by(|&a, &b| t.installed_score(b).total_cmp(&t.installed_score(a)));
                    prop_assert_eq!(rows, scan.as_slice());
                    prop_assert!(std::ptr::eq(rows, idx.rows(k)));
                }
            }
        }
    }
}

/// The `i`-th parent key of the resolver stream: narrow below 4, outside
/// `i32` from 4 on, so the first such write widens the parent's PK
/// column and the child's FK column.
fn parent_key(i: i64) -> i64 {
    if i < 4 {
        i
    } else {
        i64::MAX - i
    }
}

/// Parent `P(id)` and child `C(id, p_id -> P)`, both empty.
fn parent_child() -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::builder("P").pk("id").build().unwrap()).unwrap();
    db.create_table(TableSchema::builder("C").pk("id").fk("p_id", "P").build().unwrap()).unwrap();
    db
}

/// Runs `op` as a batch of one when `scored`, else bare: the scored ops
/// take the plain path by themselves once a plain op dropped the order.
fn maybe_scored<T>(
    db: &mut Database,
    scored: bool,
    op: impl FnOnce(&mut Database, Option<&mut sizel_storage::ScoredBatch>) -> T,
) -> T {
    if !scored {
        return op(db, None);
    }
    let mut batch = db.begin_scored_batch();
    let out = op(db, Some(&mut batch));
    db.finish_scored_batch(batch);
    out
}

/// Scores the snapshot stream writes: two that differ, and two zeros
/// whose bits differ.
const SCORES: [f64; 4] = [1.0, 0.5, 0.0, -0.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_resolver_names_the_parent_a_join_names(
        ops in proptest::collection::vec((0u8..11, 0i64..6, 0i64..7), 1..80),
    ) {
        let mut db = parent_child();
        db.install_importance_order(&|_, _| 1.0);
        let (p, c) = (db.table_id("P").unwrap(), db.table_id("C").unwrap());
        // Model slots: P's keys, C's (pk, key); each with its liveness.
        let mut parents: Vec<(i64, bool)> = Vec::new();
        let mut children: Vec<(i64, Option<i64>, bool)> = Vec::new();
        for &(kind, i, j) in &ops {
            let (scored, key) = (kind % 2 == 1, parent_key(i));
            let fk = (j < 6).then(|| parent_key(j));
            let child = vec![Value::Int(i), fk.map_or(Value::Null, Value::Int)];
            let live_parent = parents.iter().position(|&(k, live)| live && k == key);
            let live_child = children.iter().position(|&(pk, _, live)| live && pk == i);
            match kind / 2 {
                0 => {
                    let r = maybe_scored(&mut db, scored, |db, b| match b {
                        Some(b) => db.insert_scored_staged(b, "P", vec![Value::Int(key)], 0.5),
                        None => db.insert("P", vec![Value::Int(key)]),
                    });
                    prop_assert_eq!(r.is_ok(), live_parent.is_none());
                    if r.is_ok() {
                        parents.push((key, true));
                    }
                }
                1 => {
                    let r = maybe_scored(&mut db, scored, |db, b| match b {
                        Some(b) => db.delete_scored_staged(b, "P", key),
                        None => db.delete("P", key),
                    });
                    prop_assert_eq!(r.is_ok(), live_parent.is_some());
                    if let Some(s) = live_parent {
                        parents[s].1 = false;
                    }
                }
                2 => {
                    let r = maybe_scored(&mut db, scored, |db, b| match b {
                        Some(b) => db.insert_scored_staged(b, "C", child, 2.0),
                        None => db.insert("C", child),
                    });
                    prop_assert_eq!(r.is_ok(), live_child.is_none());
                    if r.is_ok() {
                        children.push((i, fk, true));
                    }
                }
                3 => {
                    let r = maybe_scored(&mut db, scored, |db, b| match b {
                        Some(b) => db.update_scored_staged(b, "C", i, child, 0.25),
                        None => db.update("C", i, child),
                    });
                    prop_assert_eq!(r.is_ok(), live_child.is_some());
                    if let Some(s) = live_child {
                        children[s].1 = fk;
                    }
                }
                4 => {
                    let r = maybe_scored(&mut db, scored, |db, b| match b {
                        Some(b) => db.delete_scored_staged(b, "C", i),
                        None => db.delete("C", i),
                    });
                    prop_assert_eq!(r.is_ok(), live_child.is_some());
                    if let Some(s) = live_child {
                        children[s].2 = false;
                    }
                }
                _ => {
                    db.install_importance_order(&|_, r| 1.0 + r.index() as f64);
                }
            }

            // SQL: the live parent row whose key is the child's, read off
            // the model; the resolver reads the cell and P's key index.
            let (pt, ct) = (db.table(p), db.table(c));
            for (s, &(_, fk, live)) in children.iter().enumerate() {
                if !live {
                    continue;
                }
                let join = fk.and_then(|k| parents.iter().position(|&(pk, l)| l && pk == k));
                let got = ct.parent_of(1, RowId(s as u32), pt);
                prop_assert_eq!(got.map(RowId::index), join, "child slot {} -> {:?}", s, fk);
            }
        }
    }

    #[test]
    fn the_score_snapshot_is_one_score_until_a_write_sets_another(
        ops in proptest::collection::vec((0u8..5, 0i64..8, 0usize..4), 1..60),
    ) {
        let mut db = parent_child();
        for k in 0..3 {
            db.insert("P", vec![Value::Int(k)]).unwrap();
        }
        for pk in 0..4 {
            db.insert("C", vec![Value::Int(pk), Value::Int(pk % 3)]).unwrap();
        }
        let (c, p) = (db.table_id("C").unwrap(), db.table_id("P").unwrap());
        // C's slots: (pk, key, live, score).
        let mut model: Vec<(i64, i64, bool, f64)> =
            (0..4).map(|pk| (pk, pk % 3, true, 1.0)).collect();
        let install = |db: &mut Database, model: &[(i64, i64, bool, f64)]| {
            let scores: Vec<f64> = model.iter().map(|s| s.3).collect();
            db.install_importance_order(&|t: TableId, r: RowId| {
                if t == c { scores[r.index()] } else { 1.0 }
            });
        };
        install(&mut db, &model);
        let mut shared = true;
        for &(kind, pk, s) in &ops {
            let score = SCORES[s];
            let slot = model.iter().position(|m| m.0 == pk && m.2);
            let row = vec![Value::Int(pk), Value::Int(pk % 3)];
            match kind {
                0 => {
                    let r = maybe_scored(&mut db, true, |db, b| {
                        db.insert_scored_staged(b.unwrap(), "C", row, score)
                    });
                    prop_assert_eq!(r.is_ok(), slot.is_none());
                    if r.is_ok() {
                        model.push((pk, pk % 3, true, score));
                    }
                }
                1 => {
                    let r = maybe_scored(&mut db, true, |db, b| {
                        db.update_scored_staged(b.unwrap(), "C", pk, row, score)
                    });
                    prop_assert_eq!(r.is_ok(), slot.is_some());
                    if let Some(i) = slot {
                        model[i].3 = score;
                    }
                }
                2 => {
                    let r = maybe_scored(&mut db, true, |db, b| {
                        db.delete_scored_staged(b.unwrap(), "C", pk)
                    });
                    prop_assert_eq!(r.is_ok(), slot.is_some());
                    if let Some(i) = slot {
                        model[i].2 = false;
                    }
                }
                // A re-install of the model's scores, and one of a single
                // score for every slot.
                3 => install(&mut db, &model),
                _ => {
                    model.iter_mut().for_each(|m| m.3 = score);
                    install(&mut db, &model);
                }
            }
            let t = db.table(c);
            let first = model[0].3.to_bits();
            let equal = model.iter().all(|m| m.3.to_bits() == first);
            // A write never narrows the snapshot; an install takes it as
            // narrow as the scores allow.
            shared = if kind >= 3 { equal } else { shared && equal };
            // One shared score is eight bytes; C's slots, four or more,
            // take more a score each.
            let snapshot = t.index_bytes()[2].1;
            prop_assert_eq!(snapshot == 8, shared, "{} B after op {:?}", snapshot, (kind, pk, s));
            for (i, m) in model.iter().enumerate() {
                let got = t.installed_score(RowId(i as u32));
                prop_assert_eq!(got.to_bits(), m.3.to_bits(), "slot {}", i);
            }
            prop_assert_eq!(db.table(p).index_bytes()[2].1, 8, "P is never written a score");
            // Every run in posting order under the model's scores.
            let idx = t.sorted_fk_index(1).expect("every op keeps the order");
            for key in 0..3 {
                let mut want: Vec<usize> =
                    (0..model.len()).filter(|&i| model[i].2 && model[i].1 == key).collect();
                want.sort_by(|&a, &b| model[b].3.total_cmp(&model[a].3).then(a.cmp(&b)));
                let got: Vec<usize> = idx.rows(key).iter().map(|r| r.index()).collect();
                prop_assert_eq!(got, want, "key {}", key);
            }
        }
    }
}
