//! The keyword index's incremental maintenance against a fresh build.
//!
//! Random streams of inserts, updates and deletes over two covered
//! tables and one the index does not cover are applied to a database and
//! mirrored into a [`KeywordIndex`] on the engine's schedule: a batch
//! un-indexes an updated or deleted row's old tokens at once and indexes
//! its inserted and updated rows at settlement, so an insert then an
//! update in one batch un-indexes tokens that were never indexed. A
//! handful of words, some spelled with capitals or punctuation, makes
//! tokens empty out of the index and come back. At every settlement the
//! index must answer as a fresh [`KeywordIndex::build`] over the same
//! rows and as a scan of them: the same `search` for every token and
//! for random conjunctions, and the same `vocabulary_size`.

use proptest::prelude::*;

use sizel_core::keyword::KeywordIndex;
use sizel_storage::{text, Database, RowId, TableId, TableSchema, TupleRef, Value};

/// The words a text cell is made of; their tokens are [`TOKENS`].
const WORDS: [&str; 6] = ["alpha", "Beta", "gamma", "alpha-beta", "DELTA", "x1"];
/// Every token a cell can hold, and one no cell does.
const TOKENS: [&str; 6] = ["alpha", "beta", "gamma", "delta", "x1", "absent"];
/// `A` and `B` are covered, `C` is not.
const TABLES: [&str; 3] = ["A", "B", "C"];

fn fresh_db() -> Database {
    let mut db = Database::new();
    for name in ["A", "C"] {
        db.create_table(
            TableSchema::builder(name).pk("id").searchable_text("name").build().unwrap(),
        )
        .unwrap();
    }
    db.create_table(
        TableSchema::builder("B")
            .pk("id")
            .searchable_text("title")
            .searchable_text("note")
            .build()
            .unwrap(),
    )
    .unwrap();
    db
}

/// A text cell of `words` (indices into [`WORDS`]), NULL when empty.
fn cell(words: &[u8]) -> Value {
    if words.is_empty() {
        return Value::Null;
    }
    let words: Vec<&str> = words.iter().map(|&w| WORDS[w as usize % WORDS.len()]).collect();
    Value::Text(words.join(" "))
}

/// `(kind, table, row pick, words, more words)`.
type Op = (u8, usize, usize, Vec<u8>, Vec<u8>);

fn op() -> impl Strategy<Value = Op> {
    let words = || proptest::collection::vec(0u8..6, 0..4);
    (0u8..7, 0..TABLES.len(), 0usize..64, words(), words())
}

/// A row of table `name` under key `pk`: its text cells from the op.
fn values_of(db: &Database, name: &str, pk: i64, words: &[u8], more: &[u8]) -> Vec<Value> {
    let arity = db.table(db.table_id(name).unwrap()).schema.arity();
    let mut values = vec![Value::Int(pk), cell(words)];
    if arity == 3 {
        values.push(cell(more));
    }
    values
}

/// The covered rows holding every token of `query`, by scanning them.
fn scan(db: &Database, covered: &[TableId], query: &str) -> Vec<TupleRef> {
    let keywords = text::tokenize(query);
    let mut hits = Vec::new();
    for &tid in covered {
        let t = db.table(tid);
        for r in t.live_rows() {
            let tokens: Vec<String> = t
                .schema
                .searchable_columns()
                .filter_map(|c| t.value(r, c).as_str().map(text::tokenize))
                .flatten()
                .collect();
            if !keywords.is_empty() && keywords.iter().all(|k| tokens.contains(k)) {
                hits.push(TupleRef::new(tid, r));
            }
        }
    }
    hits.sort();
    hits
}

/// The engine's schedule for one batch's pending adds.
struct Mirror {
    db: Database,
    kw: KeywordIndex,
    /// Rows whose final tokens join the index at settlement.
    pending: Vec<TupleRef>,
    next_pk: i64,
}

impl Mirror {
    fn insert(&mut self, name: &str, words: &[u8], more: &[u8]) -> RowId {
        self.next_pk += 1;
        let values = values_of(&self.db, name, self.next_pk, words, more);
        let row = self.db.insert(name, values).unwrap();
        self.pending.push(TupleRef::new(self.db.table_id(name).unwrap(), row));
        row
    }

    fn update(&mut self, name: &str, row: RowId, words: &[u8], more: &[u8]) {
        let tid = self.db.table_id(name).unwrap();
        let t = self.db.table(tid);
        let (pk, old) = (t.pk_of(row), t.row(row));
        let values = values_of(&self.db, name, pk, words, more);
        self.db.update(name, pk, values).unwrap();
        self.kw.remove_row(tid, row, &self.db.table(tid).schema, &old);
        let tref = TupleRef::new(tid, row);
        if !self.pending.contains(&tref) {
            self.pending.push(tref);
        }
    }

    fn delete(&mut self, name: &str, row: RowId) {
        let tid = self.db.table_id(name).unwrap();
        let pk = self.db.table(tid).pk_of(row);
        self.db.delete(name, pk).unwrap();
        // A tombstoned slot keeps its values.
        let t = self.db.table(tid);
        self.kw.remove_row(tid, row, &t.schema, &t.row(row));
        let tref = TupleRef::new(tid, row);
        self.pending.retain(|&p| p != tref);
    }

    fn settle(&mut self) {
        for t in std::mem::take(&mut self.pending) {
            self.kw.add_row(&self.db, t.table, t.row);
        }
    }

    /// A live row of `name` picked by `pick`, if any.
    fn live_row(&self, name: &str, pick: usize) -> Option<RowId> {
        let rows: Vec<RowId> = self.db.table(self.db.table_id(name).unwrap()).live_rows().collect();
        (!rows.is_empty()).then(|| rows[pick % rows.len()])
    }
}

/// Every read of `kw` against a fresh build and a scan of `db`.
fn agrees(db: &Database, kw: &KeywordIndex, conjunctions: &[(u8, u8, u8)]) -> Result<(), String> {
    let [a, b, _] = TABLES.map(|name| db.table_id(name).unwrap());
    // Given out of `TableId` order: answers come in it all the same.
    let fresh = KeywordIndex::build(db, &[b, a]);
    let covered = [a, b];
    if kw.vocabulary_size() != fresh.vocabulary_size() {
        return Err(format!("vocabulary {} vs {}", kw.vocabulary_size(), fresh.vocabulary_size()));
    }
    let singles = TOKENS.iter().map(|t| t.to_string());
    let conj = conjunctions
        .iter()
        .map(|&(x, y, z)| [x, y, z].map(|i| TOKENS[i as usize % TOKENS.len()]).join(" "));
    for query in singles.chain(conj) {
        let (got, want) = (kw.search(&query), fresh.search(&query));
        if got != want || want != scan(db, &covered, &query) {
            return Err(format!("`{query}`: {got:?} maintained, {want:?} built"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn maintained_postings_equal_a_fresh_build(
        initial in proptest::collection::vec(op(), 0..8),
        ops in proptest::collection::vec(op(), 1..60),
        conjunctions in proptest::collection::vec((0u8..6, 0u8..6, 0u8..6), 1..12),
    ) {
        let mut m = Mirror {
            db: fresh_db(),
            kw: KeywordIndex::default(),
            pending: Vec::new(),
            next_pk: 0,
        };
        // Rows loaded before the index is built.
        for (_, table, _, words, more) in &initial {
            m.insert(TABLES[*table], words, more);
        }
        m.pending.clear();
        let [a, b, _] = TABLES.map(|name| m.db.table_id(name).unwrap());
        m.kw = KeywordIndex::build(&m.db, &[b, a]);
        prop_assert_eq!(m.kw.indexed_tables(), &[b, a]);
        for (kind, table, pick, words, more) in &ops {
            let name = TABLES[*table];
            match kind {
                0 | 1 => {
                    m.insert(name, words, more);
                }
                2 => {
                    if let Some(row) = m.live_row(name, *pick) {
                        m.update(name, row, words, more);
                    }
                }
                3 => {
                    if let Some(row) = m.live_row(name, *pick) {
                        m.delete(name, row);
                    }
                }
                // An insert, then an update of it, in one batch: the
                // update un-indexes tokens that never reached the index.
                4 => {
                    let row = m.insert(name, words, more);
                    m.update(name, row, more, words);
                }
                _ => {
                    m.settle();
                    let checked = agrees(&m.db, &m.kw, &conjunctions);
                    prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
                }
            }
        }
        m.settle();
        let checked = agrees(&m.db, &m.kw, &conjunctions);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}
