//! Keyword → `t_DS` lookup.
//!
//! The OS paradigm's queries are keyword sets naming a Data Subject; the
//! result roots are the tuples of DS relations whose searchable attributes
//! contain *all* keywords (Example 3: Q1 "Faloutsos" returns the three
//! Author tuples). An inverted index over the searchable columns of the DS
//! relations serves the lookup.

use std::collections::HashMap;

use sizel_storage::{text, Database, TableId, TupleRef};

/// Inverted index: token → postings (sorted, deduplicated).
#[derive(Debug, Default)]
pub struct KeywordIndex {
    postings: HashMap<String, Vec<TupleRef>>,
    indexed_tables: Vec<TableId>,
}

impl KeywordIndex {
    /// Builds the index over the searchable columns of `ds_tables`.
    pub fn build(db: &Database, ds_tables: &[TableId]) -> Self {
        let mut postings: HashMap<String, Vec<TupleRef>> = HashMap::new();
        let mut tok_buf = String::new();
        for &tid in ds_tables {
            let table = db.table(tid);
            let cols: Vec<usize> = table.schema.searchable_columns().collect();
            for rid in table.live_rows() {
                let tref = TupleRef::new(tid, rid);
                for &c in &cols {
                    if let Some(s) = table.value(rid, c).as_str() {
                        // Tokens outnumber vocabulary words by orders of
                        // magnitude: look the borrowed token up first and
                        // own it only when it is new.
                        text::for_each_token(s, &mut tok_buf, |tok| match postings.get_mut(tok) {
                            Some(list) if list.last() == Some(&tref) => {}
                            Some(list) => list.push(tref),
                            None => {
                                postings.insert(tok.to_owned(), vec![tref]);
                            }
                        });
                    }
                }
            }
        }
        for list in postings.values_mut() {
            list.sort_unstable();
            list.dedup();
        }
        KeywordIndex { postings, indexed_tables: ds_tables.to_vec() }
    }

    /// Indexes one freshly inserted row of a covered table (a no-op for
    /// uncovered tables): tokens of its searchable columns are merged into
    /// the postings with sorted-insert, preserving the build-time
    /// invariant (sorted, deduplicated) that [`KeywordIndex::search`]'s
    /// binary-search intersection relies on. The engine's incremental
    /// apply path calls this so new DS tuples become queryable without a
    /// full index rebuild.
    pub fn add_row(&mut self, db: &Database, table: TableId, row: sizel_storage::RowId) {
        if !self.indexed_tables.contains(&table) {
            return;
        }
        let t = db.table(table);
        let tref = TupleRef::new(table, row);
        let mut tok_buf = String::new();
        for c in t.schema.searchable_columns() {
            if let Some(s) = t.value(row, c).as_str() {
                text::for_each_token(s, &mut tok_buf, |tok| match self.postings.get_mut(tok) {
                    Some(list) => {
                        if let Err(pos) = list.binary_search(&tref) {
                            list.insert(pos, tref);
                        }
                    }
                    None => {
                        self.postings.insert(tok.to_owned(), vec![tref]);
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
    /// per-mutation fold. Emptied postings are dropped so vocabulary size
    /// tracks live tokens.
    pub fn remove_row(
        &mut self,
        table: TableId,
        row: sizel_storage::RowId,
        schema: &sizel_storage::TableSchema,
        values: &[sizel_storage::Value],
    ) {
        if !self.indexed_tables.contains(&table) {
            return;
        }
        let tref = TupleRef::new(table, row);
        let mut tok_buf = String::new();
        for c in schema.searchable_columns() {
            if let Some(s) = values[c].as_str() {
                text::for_each_token(s, &mut tok_buf, |tok| {
                    if let Some(list) = self.postings.get_mut(tok) {
                        if let Ok(pos) = list.binary_search(&tref) {
                            list.remove(pos);
                        }
                        if list.is_empty() {
                            self.postings.remove(tok);
                        }
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
        self.postings.len()
    }

    /// Finds all tuples containing *all* keywords of `query` (conjunctive,
    /// case-insensitive, token-level). Result is sorted by `TupleRef`.
    pub fn search(&self, query: &str) -> Vec<TupleRef> {
        let keywords = text::tokenize(query);
        if keywords.is_empty() {
            return Vec::new();
        }
        // Intersect postings, smallest list first.
        let mut lists: Vec<&Vec<TupleRef>> = Vec::with_capacity(keywords.len());
        for k in &keywords {
            match self.postings.get(k) {
                Some(list) => lists.push(list),
                None => return Vec::new(),
            }
        }
        lists.sort_by_key(|l| l.len());
        let mut result: Vec<TupleRef> = lists[0].clone();
        for list in &lists[1..] {
            result.retain(|t| list.binary_search(t).is_ok());
            if result.is_empty() {
                break;
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
