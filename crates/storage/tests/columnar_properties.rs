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
//! and the slots hold exactly the live rows off their offsets. A wide op writes a value
//! outside `i32` into a column that held only narrow values and NULLs,
//! widening it mid-stream, and a text churn op rewrites one text cell
//! many times over; after every step the table's cell bytes stay within
//! a bound that only a text arena which repacks its garbage can meet.

use proptest::prelude::*;

use sizel_storage::{Database, RowId, TableSchema, Value, ValueType};

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
            let values = row_of(o, pk);
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
            db.resolve_forward();
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
