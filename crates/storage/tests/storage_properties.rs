//! Property tests for the relational substrate: index consistency under
//! arbitrary insert sequences, and the FK runs a bulk build makes after
//! any stream of plain writes, beside the parents their keys resolve to.

use proptest::prelude::*;

use sizel_storage::{text, Database, RowId, StorageError, TableSchema, Value, ValueType};

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
    db
}

/// Characters whose case mapping or class is where a tokenizer goes
/// wrong: lowercase forms that expand (`İ` → `i` + combining dot, `ᾈ`),
/// titlecase and final-form letters, compatibility letters (`K` the
/// Kelvin sign, `ﬁ`), bare combining marks, non-ASCII digits.
const AWKWARD_CHARS: [char; 16] = [
    'İ', 'ß', 'ǅ', 'ﬁ', 'Σ', 'ς', 'ᾈ', '\u{212a}', 'Å', '\u{307}', '\u{345}', '٣', 'Ⅷ', ' ', '-',
    'Z',
];

/// Strings over ASCII, the awkward pool and arbitrary code points.
fn unicode_string() -> impl Strategy<Value = String> {
    proptest::collection::vec((0u8..8, 0u32..0x11_0000), 0..24).prop_map(|picks| {
        picks
            .into_iter()
            .filter_map(|(kind, cp)| match kind {
                0..=2 => Some(AWKWARD_CHARS[cp as usize % AWKWARD_CHARS.len()]),
                3..=4 => char::from_u32(0x20 + cp % 0x5f),
                _ => char::from_u32(cp), // surrogates drop out
            })
            .collect()
    })
}

/// One plain write, or a resolution: `(kind, pk, parent key)`, the key
/// NULL at `N_KEYS` and dangling where no parent holds it.
type Write = (u8, i64, i64);

const N_KEYS: i64 = 10;

/// Applies `w` with the plain row operations; rejected writes are part
/// of the stream.
fn apply(db: &mut Database, &(kind, pk, key): &Write) {
    let fk = if key == N_KEYS { Value::Null } else { Value::Int(key) };
    let child = vec![Value::Int(pk), Value::Float(pk as f64), fk];
    let _ = match kind {
        0 => db.insert("Parent", vec![Value::Int(key), "p".into()]),
        1 => db.delete("Parent", key),
        2 | 3 => db.insert("Child", child),
        4 => db.update("Child", pk, child),
        5 => db.delete("Child", pk),
        _ => {
            db.build_runs();
            return;
        }
    };
}

#[test]
#[should_panic(expected = "`Child` has unbuilt FK runs")]
fn reading_unbuilt_runs_panics_with_the_table_name() {
    let mut db = fresh_db();
    db.insert("Parent", vec![Value::Int(1), "p".into()]).unwrap();
    db.insert("Child", vec![Value::Int(1), Value::Float(0.5), Value::Int(1)]).unwrap();
    let child = db.table_id("Child").unwrap();
    db.table(child).rows_where_eq(2, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any stream of plain inserts, updates and deletes — built
    /// now and then midway — one bulk build makes every FK run equal to
    /// the oracle (the live rows holding the key, ascending `RowId`) at
    /// its final size — shrinking frees no index byte — and every live
    /// row resolves to the live parent its key names.
    #[test]
    fn bulk_build_makes_runs_at_final_size_and_parents_resolve(
        writes in proptest::collection::vec((0u8..7, 0i64..24, 0..=N_KEYS), 0..120),
    ) {
        let mut db = fresh_db();
        for w in &writes {
            apply(&mut db, w);
        }
        db.build_runs();
        let (parent, child) = (db.table_id("Parent").unwrap(), db.table_id("Child").unwrap());
        let (p, c) = (db.table(parent), db.table(child));
        let fk_col = c.schema.column_index("parent_id").unwrap();
        let key_of = |r: RowId| c.value(r, fk_col).as_int();
        for key in 0..N_KEYS {
            let oracle: Vec<RowId> = c.live_rows().filter(|&r| key_of(r) == Some(key)).collect();
            prop_assert_eq!(c.rows_where_eq(fk_col, key), oracle.as_slice(), "key {}", key);
        }
        for r in c.live_rows() {
            let parent = c.parent_of(fk_col, r, p);
            prop_assert_eq!(parent, key_of(r).and_then(|k| p.by_pk(k)), "row {:?}", r);
        }
        let before: Vec<_> = db.tables().map(|(_, t)| t.index_bytes()).collect();
        db.shrink_to_fit();
        let after: Vec<_> = db.tables().map(|(_, t)| t.index_bytes()).collect();
        prop_assert_eq!(before, after);
    }

    /// Tokenizing is idempotent — a row indexed under its tokens is found
    /// by those tokens spelled back as text — and the streaming form
    /// yields exactly the collected one, whatever its buffer held before.
    #[test]
    fn tokenize_is_idempotent_and_streams_the_same_tokens(s in unicode_string()) {
        let tokens = text::tokenize(&s);
        prop_assert_eq!(&text::tokenize(&tokens.join(" ")), &tokens, "re-tokenizing {:?}", s);
        let mut streamed = Vec::new();
        let mut buf = String::from("stale");
        text::for_each_token(&s, &mut buf, |tok| streamed.push(tok.to_owned()));
        prop_assert_eq!(&streamed, &tokens, "streaming {:?}", s);
        prop_assert!(tokens.iter().all(|t| !t.is_empty() && t.chars().all(char::is_alphanumeric)));
    }

    /// PK index and FK multi-index agree with a full scan after any insert
    /// sequence (duplicate PKs rejected without corrupting state).
    #[test]
    fn indexes_match_full_scan(
        parent_keys in proptest::collection::vec(0i64..20, 1..30),
        child_rows in proptest::collection::vec((0i64..50, 0i64..20, -1e6..1e6f64), 0..60),
    ) {
        let mut db = fresh_db();
        let mut inserted_parents = std::collections::HashSet::new();
        for &k in &parent_keys {
            let r = db.insert("Parent", vec![Value::Int(k), format!("p{k}").into()]);
            if inserted_parents.insert(k) {
                prop_assert!(r.is_ok());
            } else {
                let dup = matches!(r, Err(StorageError::DuplicateKey { .. }));
                prop_assert!(dup);
            }
        }
        let mut inserted_children = std::collections::HashSet::new();
        let mut accepted: Vec<(i64, i64)> = Vec::new();
        for &(ck, pk, payload) in &child_rows {
            let r = db.insert(
                "Child",
                vec![Value::Int(ck), Value::Float(payload), Value::Int(pk)],
            );
            if inserted_children.insert(ck) {
                prop_assert!(r.is_ok());
                accepted.push((ck, pk));
            } else {
                prop_assert!(r.is_err());
            }
        }
        db.build_runs();
        let child = db.table_id("Child").unwrap();
        let fk_col = db.table(child).schema.column_index("parent_id").unwrap();
        // The FK index groups exactly the accepted rows.
        for pk in 0i64..20 {
            let via_index = db.table(child).rows_where_eq(fk_col, pk).len();
            let via_scan = accepted.iter().filter(|&&(_, p)| p == pk).count();
            prop_assert_eq!(via_index, via_scan, "fk group for parent {}", pk);
        }
        // Every accepted child is found by PK lookup.
        for &(ck, _) in &accepted {
            prop_assert!(db.table(child).by_pk(ck).is_some());
        }
        // FK validation: succeeds iff every referenced parent exists.
        let all_parents_exist =
            accepted.iter().all(|&(_, p)| inserted_parents.contains(&p));
        prop_assert_eq!(db.validate_foreign_keys().is_ok(), all_parents_exist);
    }

    /// select_eq_top_l returns a sorted prefix of the filtered group.
    #[test]
    fn top_l_select_is_sorted_prefix(
        rows in proptest::collection::vec(0.0..100.0f64, 1..40),
        l in 1usize..10,
        threshold in 0.0..100.0f64,
    ) {
        let mut db = fresh_db();
        db.insert("Parent", vec![Value::Int(1), "p".into()]).unwrap();
        for (i, &w) in rows.iter().enumerate() {
            db.insert("Child", vec![Value::Int(i as i64), Value::Float(w), Value::Int(1)])
                .unwrap();
        }
        db.build_runs();
        let child = db.table_id("Child").unwrap();
        let fk_col = db.table(child).schema.column_index("parent_id").unwrap();
        let payload = db.table(child).schema.column_index("payload").unwrap();
        let li = |r: sizel_storage::RowId| db.table(child).value(r, payload).as_f64().unwrap();
        let got = db.select_eq_top_l(child, fk_col, 1, l, threshold, false, &li);
        prop_assert!(got.len() <= l);
        // Sorted descending, all above threshold.
        let scores: Vec<f64> = got.iter().map(|&r| li(r)).collect();
        for w in scores.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        prop_assert!(scores.iter().all(|&s| s > threshold));
        // It is a true top-l: no excluded row beats the smallest included.
        if got.len() == l {
            let floor = scores.last().copied().unwrap();
            let better = rows.iter().filter(|&&w| w > floor).count();
            prop_assert!(better < l + 1, "more than l rows strictly above the floor");
        } else {
            // Fewer than l returned: everything above threshold is included.
            let above = rows.iter().filter(|&&w| w > threshold).count();
            prop_assert_eq!(got.len(), above);
        }
    }

    /// The bounded-heap `select_eq_top_l` is *exactly* the sorted-prefix
    /// oracle: full sort (score desc, RowId asc), filter by threshold,
    /// truncate to l — same rows, same order, for random groups,
    /// thresholds, and l. Scores include duplicates (narrow value range)
    /// so tie-breaking is exercised.
    #[test]
    fn heap_top_l_equals_sorted_prefix_oracle(
        // Scores quantized to 0.5 steps so duplicate scores (tie-breaking)
        // are common.
        groups in proptest::collection::vec(
            (0i64..8, (0.0..16.0f64).prop_map(|w| (w * 2.0).floor() / 2.0)), 0..120),
        l in 0usize..12,
        threshold in 0.0..12.0f64,
    ) {
        let mut db = fresh_db();
        for pk in 0i64..8 {
            db.insert("Parent", vec![Value::Int(pk), format!("p{pk}").into()]).unwrap();
        }
        for (i, &(parent, w)) in groups.iter().enumerate() {
            db.insert("Child", vec![Value::Int(i as i64), Value::Float(w), Value::Int(parent)])
                .unwrap();
        }
        db.build_runs();
        let child = db.table_id("Child").unwrap();
        let fk_col = db.table(child).schema.column_index("parent_id").unwrap();
        let payload = db.table(child).schema.column_index("payload").unwrap();
        let li = |r: sizel_storage::RowId| db.table(child).value(r, payload).as_f64().unwrap();
        for parent in 0i64..8 {
            let got = db.select_eq_top_l(child, fk_col, parent, l, threshold, false, &li);
            // Oracle: the full-sort prefix over the same group.
            let mut oracle: Vec<(f64, sizel_storage::RowId)> = db
                .table(child)
                .rows_where_eq(fk_col, parent)
                .iter()
                .filter_map(|&r| {
                    let s = li(r);
                    (s > threshold).then_some((s, r))
                })
                .collect();
            oracle.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            oracle.truncate(l);
            let oracle_rows: Vec<sizel_storage::RowId> =
                oracle.into_iter().map(|(_, r)| r).collect();
            prop_assert_eq!(&got, &oracle_rows, "group {} (l={}, θ={})", parent, l, threshold);
        }
    }

    /// The importance-sorted postings hold exactly the `select_eq` result
    /// set (same rows, reordered by descending score with ascending RowId
    /// ties) and are the FK groups themselves, for arbitrary insert
    /// sequences and score assignments.
    #[test]
    fn sorted_fk_postings_equal_select_eq_result_set(
        groups in proptest::collection::vec(
            (0i64..8, (0.0..16.0f64).prop_map(|w| (w * 2.0).floor() / 2.0)), 0..120),
    ) {
        let mut db = fresh_db();
        for pk in 0i64..8 {
            db.insert("Parent", vec![Value::Int(pk), format!("p{pk}").into()]).unwrap();
        }
        for (i, &(parent, w)) in groups.iter().enumerate() {
            db.insert("Child", vec![Value::Int(i as i64), Value::Float(w), Value::Int(parent)])
                .unwrap();
        }
        let child = db.table_id("Child").unwrap();
        let fk_col = db.table(child).schema.column_index("parent_id").unwrap();
        let payload = db.table(child).schema.column_index("payload").unwrap();
        let snapshot: Vec<f64> = db
            .table(child)
            .iter()
            .map(|(r, _)| db.table(child).value(r, payload).as_f64().unwrap())
            .collect();
        // Parents score 0 (no FK postings reference them anyway).
        db.install_importance_order(&|t, r| if t == child { snapshot[r.index()] } else { 0.0 });
        let sorted = db.table(child).sorted_fk_index(fk_col).unwrap();
        for parent in 0i64..9 {
            let postings = sorted.rows(parent);
            // One adjacency: the sorted rows *are* the FK group, the same
            // slice — pointer and length — not a copy of it.
            let group = db.table(child).rows_where_eq(fk_col, parent);
            prop_assert!(
                std::ptr::eq(postings, group),
                "parent {}: sorted rows at {:p} ({}), the group at {:p} ({})",
                parent, postings.as_ptr(), postings.len(), group.as_ptr(), group.len()
            );
            // Same row set as the unsorted probe.
            let mut a: Vec<_> = postings.to_vec();
            a.sort();
            let mut b = db.select_eq(child, fk_col, parent);
            b.sort();
            prop_assert_eq!(a, b, "row set for parent {}", parent);
            // Ordered by (score desc, RowId asc).
            for w in postings.windows(2) {
                let (s0, s1) = (snapshot[w[0].index()], snapshot[w[1].index()]);
                prop_assert!(s0 > s1 || (s0 == s1 && w[0] < w[1]));
            }
        }
    }

    /// The prefix-scan fast path of `select_eq_top_l` is byte-identical to
    /// the heap fallback whenever `li` is a positive multiple of the
    /// installed score — the exact contract OS generation relies on
    /// (`li = global · affinity`).
    #[test]
    fn sorted_fast_path_equals_heap_path(
        groups in proptest::collection::vec(
            (0i64..8, (0.0..16.0f64).prop_map(|w| (w * 2.0).floor() / 2.0)), 0..120),
        l in 0usize..12,
        threshold in 0.0..12.0f64,
        affinity in 0.25..1.0f64,
    ) {
        let mut db = fresh_db();
        for pk in 0i64..8 {
            db.insert("Parent", vec![Value::Int(pk), format!("p{pk}").into()]).unwrap();
        }
        for (i, &(parent, w)) in groups.iter().enumerate() {
            db.insert("Child", vec![Value::Int(i as i64), Value::Float(w), Value::Int(parent)])
                .unwrap();
        }
        let child = db.table_id("Child").unwrap();
        let fk_col = db.table(child).schema.column_index("parent_id").unwrap();
        let payload = db.table(child).schema.column_index("payload").unwrap();
        let snapshot: Vec<f64> = db
            .table(child)
            .iter()
            .map(|(r, _)| db.table(child).value(r, payload).as_f64().unwrap())
            .collect();
        db.install_importance_order(&|t, r| {
            if t.index() == 1 { snapshot[r.index()] } else { 0.0 }
        });
        let li = |r: sizel_storage::RowId| affinity * snapshot[r.index()];
        for parent in 0i64..8 {
            let before = db.access().snapshot();
            let fast = db.select_eq_top_l(child, fk_col, parent, l, threshold, true, &li);
            let mid = db.access().snapshot();
            let slow = db.select_eq_top_l(child, fk_col, parent, l, threshold, false, &li);
            let after = db.access().snapshot();
            prop_assert_eq!(&fast, &slow, "group {} (l={}, θ={})", parent, l, threshold);
            prop_assert_eq!(mid.since(before), after.since(mid), "cost accounting differs");
        }
    }

    /// The standalone helper agrees with the oracle on arbitrary scored
    /// lists (including NaN-free extreme floats and heavy ties).
    #[test]
    fn top_l_helper_equals_oracle(
        scored in proptest::collection::vec((0.0..4.0f64, 0u32..1000), 0..80),
        l in 0usize..20,
    ) {
        // Deduplicate items: rows are unique in the real call sites.
        let mut seen = std::collections::HashSet::new();
        let scored: Vec<(f64, u32)> =
            scored.into_iter().filter(|&(_, t)| seen.insert(t)).collect();
        let mut oracle = scored.clone();
        oracle.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        oracle.truncate(l);
        prop_assert_eq!(sizel_storage::top_l(scored, l), oracle);
    }
}
