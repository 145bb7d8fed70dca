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
//! through clustered, emptied and refilled runs.

use proptest::prelude::*;

use sizel_storage::{Database, RowId, TableSchema, Value, ValueType};

const N_REFS: i64 = 4;
const N_PKS: i64 = 16;
const N_FAMILIES: u8 = 6;

/// The `i`-th primary key of a key family: keys varying only in their
/// high bits, negatives, and the two ends of `i64`.
fn pk_key(family: u8, i: i64) -> i64 {
    match family {
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
    (0u8..9, 0..N_PKS, 0u8..16, -5i64..5, -1e3..1e3f64, (0usize..6, 0..N_REFS))
}

fn row_of(&(_, pk, nulls, n, x, (len, fk)): &Op, family: u8) -> Vec<Value> {
    let cell = |bit: u8, v: Value| if nulls & (1 << bit) != 0 { Value::Null } else { v };
    vec![
        Value::Int(pk_key(family, pk)),
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
        for o in &ops {
            let (kind, pk) = (o.0, pk_key(family, o.1));
            let values = row_of(o, family);
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

            let t = db.table(tid);
            prop_assert_eq!(t.len(), model.len());
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
