//! Keyword → `t_DS` lookup.
//!
//! The OS paradigm's queries are keyword sets naming a Data Subject; the
//! result roots are the tuples of DS relations whose searchable attributes
//! contain *all* keywords (Example 3: Q1 "Faloutsos" returns the three
//! Author tuples). An inverted index over the searchable columns of the DS
//! relations serves the lookup.
//!
//! A token dictionary maps each token to a `u32` id, and each indexed
//! table keeps one [`Runs`] keyed by token id: a token's run holds the
//! table's rows that contain it, ascending, four bytes a posting. The
//! bulk build tokenizes each cell once, into the distinct token ids of
//! each live row, and fills the runs from that list count-then-fill, at
//! exact size. Incremental maintenance inserts and removes a row id at
//! its binary-search position; a token no table holds any more leaves
//! the dictionary, and a new token takes its id.

use std::collections::HashMap;

use sizel_storage::runs::Runs;
use sizel_storage::{text, Database, RowId, Table, TableId, TableSchema, TupleRef, Value};

/// Inverted index: token → per indexed table, its rows (sorted,
/// deduplicated).
#[derive(Debug, Default)]
pub struct KeywordIndex {
    /// Every token some indexed table holds, with its id.
    dict: HashMap<Box<str>, u32>,
    /// Ids of tokens that left the dictionary, taken before a fresh one.
    free: Vec<u32>,
    /// Per indexed table, in `TableId` order: token id → the rows.
    runs: Vec<(TableId, Runs<RowId>)>,
    indexed_tables: Vec<TableId>,
}

/// `tok`'s id, a new one when the dictionary does not hold it.
fn intern(dict: &mut HashMap<Box<str>, u32>, free: &mut Vec<u32>, tok: &str) -> u32 {
    if let Some(&id) = dict.get(tok) {
        return id;
    }
    let id = free.pop().unwrap_or_else(|| {
        u32::try_from(dict.len()).expect("a keyword index holds fewer than 2^32 tokens")
    });
    dict.insert(tok.into(), id);
    id
}

/// The distinct token ids of each live row of `table`, in one list, and
/// where each row's ids end: every searchable cell tokenized once.
fn token_ids(
    table: &Table,
    dict: &mut HashMap<Box<str>, u32>,
    free: &mut Vec<u32>,
) -> (Vec<u32>, Vec<usize>) {
    let cols: Vec<usize> = table.schema.searchable_columns().collect();
    let mut tok_buf = String::new();
    let mut ids = Vec::new();
    let mut ends = Vec::with_capacity(table.live_len());
    for row in table.live_rows() {
        let start = ids.len();
        for &c in &cols {
            let Some(s) = table.value(row, c).as_str() else { continue };
            text::for_each_token(s, &mut tok_buf, |tok| {
                let id = intern(dict, free, tok);
                if !ids[start..].contains(&id) {
                    ids.push(id);
                }
            });
        }
        ends.push(ids.len());
    }
    (ids, ends)
}

impl KeywordIndex {
    /// Builds the index over the searchable columns of `ds_tables`.
    pub fn build(db: &Database, ds_tables: &[TableId]) -> Self {
        let mut covered = ds_tables.to_vec();
        covered.sort_unstable();
        covered.dedup();
        let (mut dict, mut free) = (HashMap::new(), Vec::new());
        let mut runs = Vec::with_capacity(covered.len());
        for tid in covered {
            let table = db.table(tid);
            let (ids, ends) = token_ids(table, &mut dict, &mut free);
            let (ids, ends) = (&ids[..], &ends[..]);
            let table_runs = Runs::from_entries(|| {
                let mut start = 0;
                table.live_rows().zip(ends).flat_map(move |(row, &end)| {
                    let row_ids = &ids[std::mem::replace(&mut start, end)..end];
                    row_ids.iter().map(move |&id| (i64::from(id), row))
                })
            });
            runs.push((tid, table_runs));
        }
        KeywordIndex { dict, free, runs, indexed_tables: ds_tables.to_vec() }
    }

    /// Where a covered table's runs lie in `runs`.
    fn position(&self, table: TableId) -> Option<usize> {
        self.runs.binary_search_by_key(&table, |&(tid, _)| tid).ok()
    }

    /// Indexes one freshly inserted row of a covered table (a no-op for
    /// uncovered tables): each token of its searchable columns gets the
    /// row at its sorted position, once, preserving the build-time
    /// invariant (sorted, deduplicated) that [`KeywordIndex::search`]'s
    /// binary-search intersection relies on. The engine's incremental
    /// apply path calls this so new DS tuples become queryable without a
    /// full index rebuild.
    pub fn add_row(&mut self, db: &Database, table: TableId, row: RowId) {
        let Some(at) = self.position(table) else { return };
        let t = db.table(table);
        let mut tok_buf = String::new();
        for c in t.schema.searchable_columns() {
            if let Some(s) = t.value(row, c).as_str() {
                text::for_each_token(s, &mut tok_buf, |tok| {
                    let id = i64::from(intern(&mut self.dict, &mut self.free, tok));
                    let runs = &mut self.runs[at].1;
                    if runs.get(id).is_none_or(|rows| rows.binary_search(&row).is_err()) {
                        runs.insert_with(id, row, |rows| rows.partition_point(|&r| r < row));
                    }
                });
            }
        }
    }

    /// Un-indexes one row of a covered table given the values it held (a
    /// no-op for uncovered tables). Callers pass the values explicitly
    /// because an update replaces the slot before the settlement point
    /// where the index catches up — the engine captures them first. Tokens
    /// whose posting was never added (e.g. a row inserted and updated
    /// within one batch, whose intermediate values never reached the
    /// index) are skipped harmlessly, which is exactly what makes the
    /// batched remove/add schedule land on the same final postings as the
    /// per-mutation fold. A token no table holds any more leaves the
    /// dictionary, so vocabulary size tracks live tokens.
    pub fn remove_row(
        &mut self,
        table: TableId,
        row: RowId,
        schema: &TableSchema,
        values: &[Value],
    ) {
        let Some(at) = self.position(table) else { return };
        let mut tok_buf = String::new();
        for c in schema.searchable_columns() {
            if let Some(s) = values[c].as_str() {
                text::for_each_token(s, &mut tok_buf, |tok| {
                    let Some(&id) = self.dict.get(tok) else { return };
                    let runs = &mut self.runs[at].1;
                    let removed = runs.remove_with(id.into(), |rows| rows.binary_search(&row).ok());
                    if removed && self.runs.iter().all(|(_, runs)| runs.get(id.into()).is_none()) {
                        self.dict.remove(tok);
                        self.free.push(id);
                    }
                });
            }
        }
    }

    /// Tables covered by this index.
    pub fn indexed_tables(&self) -> &[TableId] {
        &self.indexed_tables
    }

    /// Number of distinct tokens.
    pub fn vocabulary_size(&self) -> usize {
        self.dict.len()
    }

    /// Heap bytes held, from capacities: the postings (a row id each),
    /// the runs' key directories, and the dictionary (its buckets, token
    /// bytes and free ids).
    pub fn heap_bytes(&self) -> [(&'static str, usize); 3] {
        let dirs: usize = self.runs.iter().map(|(_, runs)| runs.directory_bytes()).sum();
        let runs: usize = self.runs.iter().map(|(_, runs)| runs.heap_bytes()).sum();
        let buckets = self.dict.capacity() * 8 / 7 * (std::mem::size_of::<(Box<str>, u32)>() + 1);
        let tokens: usize = self.dict.keys().map(|tok| tok.len()).sum();
        let dict = buckets + tokens + self.free.capacity() * 4;
        [("postings", runs - dirs), ("run directories", dirs), ("dictionary", dict)]
    }

    /// Finds all tuples containing *all* keywords of `query` (conjunctive,
    /// case-insensitive, token-level). Result is sorted by `TupleRef`.
    pub fn search(&self, query: &str) -> Vec<TupleRef> {
        let keywords = text::tokenize(query);
        let ids: Option<Vec<i64>> =
            keywords.iter().map(|k| self.dict.get(k.as_str()).map(|&id| id.into())).collect();
        let mut result = Vec::new();
        let Some(ids) = ids.filter(|ids| !ids.is_empty()) else { return result };
        // Per table in `TableId` order, the smallest run's rows that
        // every other run holds; one keyword's hits are its runs, copied
        // whole.
        let mut lists = Vec::with_capacity(ids.len());
        for (tid, runs) in &self.runs {
            lists.clear();
            lists.extend(ids.iter().map_while(|&id| runs.get(id)));
            if lists.len() < ids.len() {
                continue;
            }
            lists.sort_unstable_by_key(|l| l.len());
            let tuple = |&row: &RowId| TupleRef::new(*tid, row);
            let (first, rest) = lists.split_first().expect("a keyword");
            if rest.is_empty() {
                result.extend(first.iter().map(tuple));
            } else {
                let hits = first.iter().filter(|r| rest.iter().all(|l| l.binary_search(r).is_ok()));
                result.extend(hits.map(tuple));
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sizel_datagen::dblp::{generate, DblpConfig};

    fn index() -> (sizel_datagen::dblp::Dblp, KeywordIndex) {
        let d = generate(&DblpConfig::small());
        let idx = KeywordIndex::build(&d.db, &[d.author]);
        (d, idx)
    }

    #[test]
    fn single_keyword_finds_all_faloutsos_brothers() {
        let (d, idx) = index();
        let hits = idx.search("Faloutsos");
        assert_eq!(hits.len(), 3, "Q1 returns the three Author tuples (Example 3)");
        for t in &hits {
            assert_eq!(t.table, d.author);
            let name = d.db.table(d.author).value(t.row, 1).as_str().unwrap();
            assert!(name.contains("Faloutsos"));
        }
    }

    #[test]
    fn conjunctive_keywords_narrow_to_one() {
        let (d, idx) = index();
        let hits = idx.search("Christos Faloutsos");
        assert_eq!(hits.len(), 1);
        let name = d.db.table(d.author).value(hits[0].row, 1).as_str().unwrap();
        assert_eq!(name, "Christos Faloutsos");
    }

    #[test]
    fn case_insensitive_and_order_insensitive() {
        let (_, idx) = index();
        assert_eq!(idx.search("faloutsos CHRISTOS"), idx.search("Christos Faloutsos"));
    }

    #[test]
    fn missing_keyword_and_empty_query() {
        let (_, idx) = index();
        assert!(idx.search("zzzzunknown").is_empty());
        assert!(idx.search("").is_empty());
        assert!(idx.search("!!!").is_empty());
    }

    #[test]
    fn index_covers_only_ds_tables() {
        let (d, idx) = index();
        // Paper titles are searchable in the schema but Paper is not a DS
        // table in this index: a title-only word must not hit.
        assert_eq!(idx.indexed_tables(), &[d.author]);
        let hits = idx.search("declustering");
        assert!(hits.iter().all(|t| t.table == d.author));
    }

    #[test]
    fn remove_row_retokenizes_and_tolerates_absent_tokens() {
        let (d, mut idx) = index();
        let hit = idx.search("Christos Faloutsos")[0];
        let schema = &d.db.table(d.author).schema;
        let values: Vec<sizel_storage::Value> = (0..schema.arity())
            .map(|c| d.db.table(d.author).value(hit.row, c).to_value())
            .collect();
        idx.remove_row(d.author, hit.row, schema, &values);
        assert!(idx.search("Christos Faloutsos").is_empty(), "removed row no longer hits");
        assert_eq!(idx.search("Faloutsos").len(), 2, "the brothers keep their postings");
        // Removing values that were never indexed is a harmless no-op,
        // and emptied postings drop out of the vocabulary.
        let vocab = idx.vocabulary_size();
        idx.remove_row(d.author, hit.row, schema, &values);
        assert_eq!(idx.vocabulary_size(), vocab);
        assert!(idx.search("Christos").is_empty(), "token with no remaining rows is gone");
    }

    #[test]
    fn multi_table_index() {
        let d = generate(&DblpConfig::small());
        let idx = KeywordIndex::build(&d.db, &[d.author, d.paper]);
        assert!(idx.vocabulary_size() > 0);
        // "Faloutsos" still finds the three authors only (titles are
        // synthetic words).
        let hits = idx.search("Faloutsos");
        assert_eq!(hits.len(), 3);
    }
}
