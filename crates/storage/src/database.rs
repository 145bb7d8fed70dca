//! The catalog: named tables, FK validation, and the query forms used by
//! the OS-generation algorithms.

use std::collections::HashMap;

use crate::access::AccessCounter;
use crate::epoch::Epoch;
use crate::error::StorageError;
use crate::fk_index::FkOrderToken;
use crate::schema::TableSchema;
use crate::table::{RowId, Table};
use crate::value::{Value, ValueRef};
use crate::Result;

mod batch;
mod probe;

pub use batch::ScoredBatch;

/// A table identifier (dense index into the catalog).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u16);

impl TableId {
    /// The table index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A reference to one tuple anywhere in the database.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleRef {
    /// The containing table.
    pub table: TableId,
    /// The row within that table.
    pub row: RowId,
}

impl TupleRef {
    /// Convenience constructor.
    pub fn new(table: TableId, row: RowId) -> Self {
        TupleRef { table, row }
    }
}

/// One FK of the catalog whose referenced table exists: `from.col`
/// holds keys of `to`'s primary key.
#[derive(Clone, Copy, Debug)]
struct FkEdge {
    from: TableId,
    col: usize,
    to: TableId,
}

/// An in-memory relational database: a catalog of [`Table`]s plus an
/// [`AccessCounter`] shared by all query paths.
#[derive(Debug, Default)]
pub struct Database {
    tables: Vec<Table>,
    by_name: HashMap<String, TableId>,
    /// Every FK whose referenced table exists, in table then FK order
    /// (recomputed per `create_table`): the edges the RESTRICT check
    /// reads.
    fk_edges: Vec<FkEdge>,
    access: AccessCounter,
    /// The currently installed importance order, if any (see
    /// [`crate::fk_index`]).
    fk_order: Option<FkOrderToken>,
    /// Global mutation epoch: bumped on every mutation of any table.
    epoch: Epoch,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// The global mutation epoch (bumped on every mutation; see
    /// [`crate::epoch`]).
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Advances the global epoch without touching any row. For derived
    /// state that downstream caches key on but that can change out of band
    /// of a row mutation — e.g. a re-ranked importance vector after a
    /// bounded rank re-iteration: entries computed under the superseded
    /// scores must stop being served even though no tuple moved.
    pub fn bump_epoch(&mut self) -> Epoch {
        self.epoch = self.epoch.next();
        self.epoch
    }

    /// Registers a table; names must be unique.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<TableId> {
        if self.by_name.contains_key(&schema.name) {
            return Err(StorageError::BadSchema(format!("table `{}` already exists", schema.name)));
        }
        let id = TableId(self.tables.len() as u16);
        self.by_name.insert(schema.name.clone(), id);
        self.tables.push(Table::new(schema));
        // A schema may name a table created after it: resolve them all.
        let this = &*self;
        let edges = this.tables().flat_map(|(from, t)| {
            t.schema.fks.iter().filter_map(move |fk| {
                Some(FkEdge { from, col: fk.column, to: this.table_id(&fk.ref_table).ok()? })
            })
        });
        self.fk_edges = edges.collect();
        Ok(id)
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// The table with the given id.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.index()]
    }

    /// Looks a table up by name.
    pub fn table_id(&self, name: &str) -> Result<TableId> {
        self.by_name.get(name).copied().ok_or_else(|| StorageError::UnknownTable(name.to_owned()))
    }

    /// Iterates `(TableId, &Table)` over the catalog.
    pub fn tables(&self) -> impl Iterator<Item = (TableId, &Table)> {
        self.tables.iter().enumerate().map(|(i, t)| (TableId(i as u16), t))
    }

    /// Makes room in table `id` for `n` more rows — its cells, liveness
    /// flags and PK slots — so a loader that knows how many rows it is
    /// about to insert loads them at exact size.
    pub fn reserve_rows(&mut self, id: TableId, n: usize) {
        self.tables[id.index()].reserve_rows(n);
    }

    /// Inserts a row into a named table: [`Database::insert_into`] after
    /// a catalog lookup.
    pub fn insert(&mut self, table: &str, values: Vec<Value>) -> Result<RowId> {
        let id = self.table_id(table)?;
        self.insert_into(id, values)
    }

    /// Inserts a row into the table `id` — the loader's and the
    /// exact-rebuild path's insert: the installed order of that table is
    /// dropped and the heap path takes over for it until the
    /// next [`Database::install_importance_order`] (the staged batch,
    /// [`Database::begin_scored_batch`], is the path that maintains the
    /// order instead). Bumps the table's and the global epoch. Bulk
    /// loaders resolve the id once instead of hashing the name per row.
    pub fn insert_into(&mut self, id: TableId, values: Vec<Value>) -> Result<RowId> {
        self.plain(id, |t| t.insert(values))
    }

    /// Rewrites the live row with primary key `pk` in place, dropping
    /// the table's installed order like [`Database::insert`] (see
    /// [`Database::update_scored_staged`] for the maintained path). The
    /// pk itself is immutable. Bumps the table's and the global epoch.
    pub fn update(&mut self, table: &str, pk: i64, values: Vec<Value>) -> Result<RowId> {
        let id = self.table_id(table)?;
        self.plain(id, |t| t.update(pk, values))
    }

    /// Tombstones the live row with primary key `pk`, dropping the
    /// table's installed order like [`Database::insert`] (see
    /// [`Database::delete_scored_staged`] for the maintained path). The
    /// row slot and its `RowId` survive; the row
    /// becomes invisible to iteration, FK runs, and `by_pk`.
    /// Referential integrity is *not* checked here (mirroring
    /// [`Database::insert`], which defers FK existence to
    /// [`Database::validate_foreign_keys`]); the engine layer rejects
    /// deletes that would strand live referencers. Bumps the table's and
    /// the global epoch.
    pub fn delete(&mut self, table: &str, pk: i64) -> Result<RowId> {
        let id = self.table_id(table)?;
        self.plain(id, |t| t.delete(pk))
    }

    /// The common tail of the plain mutations: `op` drops the table's
    /// order and score snapshot and leaves its FK runs unbuilt — a loader
    /// maintains no run per row, and [`Database::build_runs`] builds
    /// them in bulk. Bumps the global epoch.
    fn plain(
        &mut self,
        id: TableId,
        op: impl FnOnce(&mut Table) -> Result<RowId>,
    ) -> Result<RowId> {
        let row = op(&mut self.tables[id.index()])?;
        self.epoch = self.epoch.next();
        Ok(row)
    }

    /// Finds a live row still referencing `(target, pk)` through any FK,
    /// returning the referencing table's name — the engine's RESTRICT
    /// check before a delete (a tombstoned row with live referencers
    /// would dangle their FKs).
    pub fn find_referencer(&self, target: TableId, pk: i64) -> Option<&str> {
        let e = self
            .fk_edges
            .iter()
            .filter(|e| e.to == target)
            .find(|e| !self.table(e.from).rows_where_eq(e.col, pk).is_empty())?;
        Some(&self.table(e.from).schema.name)
    }

    /// Releases the push-doubling slack of every table's columns, flags,
    /// score snapshot and FK-run arenas once loading has ended,
    /// and sizes every PK index for its live rows. Changes nothing
    /// observable. The runs and PK index [`Self::build_runs`] builds are
    /// at their final size already.
    pub fn shrink_to_fit(&mut self) {
        self.tables.iter_mut().for_each(Table::shrink_to_fit);
    }

    /// Total number of tuples across all tables (the paper reports
    /// 2,959,511 for DBLP and 8,661,245 for TPC-H SF-1).
    pub fn total_tuples(&self) -> usize {
        self.tables.iter().map(|t| t.len()).sum()
    }

    /// The shared access counter.
    pub fn access(&self) -> &AccessCounter {
        &self.access
    }

    /// The value of a tuple's column.
    pub fn value(&self, t: TupleRef, col: usize) -> ValueRef<'_> {
        self.table(t.table).value(t.row, col)
    }

    /// A tuple's installed global importance ([`Table::installed_score`];
    /// panics where no order is installed).
    pub fn installed_score(&self, t: TupleRef) -> f64 {
        self.table(t.table).installed_score(t.row)
    }

    /// Builds the FK runs plain row operations left unbuilt, each table's
    /// once and at its final size: one count-then-fill pass over its live
    /// rows in row order (and its PK index sized for them). Cheap where
    /// nothing is stale; [`Self::validate_foreign_keys`] and
    /// [`Self::install_importance_order`] call it, and so does a loader
    /// that hands its database to readers unvalidated.
    pub fn build_runs(&mut self) {
        self.tables.iter_mut().for_each(Table::build_runs);
    }

    /// Validates that every non-NULL FK value references an existing row.
    /// Returns the number of FK values checked. Builds what plain row
    /// operations left unbuilt ([`Self::build_runs`]), then probes each
    /// key's parent: a key without one dangles.
    pub fn validate_foreign_keys(&mut self) -> Result<usize> {
        self.build_runs();
        let mut checked = 0;
        for table in &self.tables {
            for fk in &table.schema.fks {
                let to = self.table(self.table_id(&fk.ref_table)?);
                for row in table.live_rows() {
                    let Some(key) = table.int_value(row, fk.column) else { continue };
                    if to.by_pk(key).is_none() {
                        return Err(StorageError::DanglingForeignKey {
                            table: table.schema.name.clone(),
                            column: table.schema.columns[fk.column].name.clone(),
                            key,
                        });
                    }
                    checked += 1;
                }
            }
        }
        Ok(checked)
    }

    /// Sorts every table's FK runs by descending `score` (ties:
    /// ascending RowId), snapshots the per-row scores (so scored inserts
    /// can maintain the order incrementally; one scalar for a table whose
    /// rows all score the same), and returns the token identifying this
    /// ordering at the current epoch. Query paths
    /// pass the token back in ([`Self::select_eq_top_l`]); a mismatch —
    /// different scores, a later re-install, or a mutation epoch the
    /// holder has not synchronized to — falls back to the heap path.
    ///
    /// `score` is called once per row slot, to take the snapshot; every
    /// run is then sorted where it lies against the snapshot — no copy,
    /// `O(Σ g log g)` comparisons of two snapshot reads each. Installing the
    /// same scores again leaves every run as it was (the order is a
    /// strict total one).
    ///
    /// Call after loading, before serving. A staged batch
    /// ([`Self::begin_scored_batch`]) keeps the order live across
    /// mutations; the plain [`Self::insert`] drops it for the affected
    /// table.
    pub fn install_importance_order(
        &mut self,
        score: &dyn Fn(TableId, RowId) -> f64,
    ) -> FkOrderToken {
        self.build_runs();
        for (i, t) in self.tables.iter_mut().enumerate() {
            let tid = TableId(i as u16);
            t.build_sorted_fk(&|r| score(tid, r));
        }
        let token = FkOrderToken::fresh(self.epoch);
        self.fk_order = Some(token);
        token
    }

    /// The token of the currently installed importance order, if any.
    pub fn fk_order(&self) -> Option<FkOrderToken> {
        self.fk_order
    }

    /// Re-installs every table's order from its *installed* score
    /// snapshot: every run sorted afresh where it lies, for a checkpoint
    /// to snapshot, without recomputing or copying a score. Mints a fresh
    /// token, as an install does; `None` when any table lacks an installed
    /// snapshot (there is no order to rebuild).
    pub fn rebuild_postings_from_installed(&mut self) -> Option<FkOrderToken> {
        if !self.tables.iter().all(Table::has_installed_scores) {
            return None;
        }
        self.tables.iter_mut().for_each(Table::sort_runs);
        let token = FkOrderToken::fresh(self.epoch);
        self.fk_order = Some(token);
        Some(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::value::Value;

    /// Runs one staged op as a batch of one — the single-op fold the
    /// batch oracles below compare against.
    fn batch_of_one<T>(
        db: &mut Database,
        op: impl FnOnce(&mut Database, &mut ScoredBatch) -> T,
    ) -> T {
        let mut batch = db.begin_scored_batch();
        let out = op(db, &mut batch);
        db.finish_scored_batch(batch);
        out
    }

    fn tiny_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("Year")
                .pk("id")
                .column("year", crate::ValueType::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("Paper")
                .pk("id")
                .searchable_text("title")
                .fk("year_id", "Year")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.insert("Year", vec![Value::Int(1), Value::Int(1999)]).unwrap();
        db.insert("Paper", vec![Value::Int(10), "p1".into(), Value::Int(1)]).unwrap();
        db.insert("Paper", vec![Value::Int(11), "p2".into(), Value::Int(1)]).unwrap();
        db
    }

    /// An empty P / C / J catalog: J is a junction between P and C,
    /// probed in one orientation per target.
    fn pcj() -> Database {
        let mut db = Database::new();
        db.create_table(TableSchema::builder("P").pk("id").build().unwrap()).unwrap();
        db.create_table(TableSchema::builder("C").pk("id").build().unwrap()).unwrap();
        db.create_table(
            TableSchema::builder("J")
                .pk("id")
                .fk("p_id", "P")
                .fk("c_id", "C")
                .junction()
                .build()
                .unwrap(),
        )
        .unwrap();
        db
    }

    /// A local importance with ties and no relation to the row order:
    /// the junction probe must rank by it, whatever order is installed.
    fn li_of(r: RowId) -> f64 {
        f64::from(r.0 * 7 % 5)
    }

    /// The two orientations of `pcj`'s junction: `(source column, target
    /// column, target table)`.
    const ORIENTATIONS: [(usize, usize, &str); 2] = [(1, 2, "C"), (2, 1, "P")];

    /// One TOP-`l` junction probe of `key` through J along `orientation`:
    /// its rows and its cost.
    fn junction_probe(
        db: &Database,
        (s_col, t_col, to): (usize, usize, &str),
        key: i64,
        l: usize,
    ) -> (Vec<RowId>, crate::ProbeCost) {
        let (j, t) = (db.table_id("J").unwrap(), db.table_id(to).unwrap());
        let (mut cost, mut out) = (crate::ProbeCost::default(), Vec::new());
        let scratch = &mut crate::TopLScratch::new();
        let (order, li) = (db.fk_order(), &li_of);
        db.select_via_junction_top_l_into(
            j, s_col, key, t_col, t, None, l, -1.0, order, li, scratch, &mut cost, &mut out,
        );
        (out, cost)
    }

    /// The same probe as SQL over the live rows: J's rows whose source
    /// column holds `key` joined to the live target with their target
    /// pk, ordered `(li desc, RowId asc)`, the first `l` — and the two
    /// joins it counts, the group read and the rows returned.
    fn junction_oracle(
        db: &Database,
        (s_col, t_col, to): (usize, usize, &str),
        key: i64,
        l: usize,
    ) -> (Vec<RowId>, crate::AccessStats) {
        let (j, t) = (db.table(db.table_id("J").unwrap()), db.table(db.table_id(to).unwrap()));
        let group: Vec<RowId> =
            j.live_rows().filter(|&r| j.value(r, s_col).as_int() == Some(key)).collect();
        let mut joined: Vec<(f64, RowId)> = group
            .iter()
            .filter_map(|&r| t.by_pk(j.value(r, t_col).as_int()?))
            .map(|t| (li_of(t), t))
            .collect();
        joined.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let rows: Vec<RowId> = joined.into_iter().take(l).map(|(_, t)| t).collect();
        let tuples = (group.len() + rows.len()) as u64;
        (rows, crate::AccessStats { joins: 2, tuples })
    }

    /// Asserts every junction probe of `db` — both orientations, every
    /// key J's live rows hold and a few they do not, several `l` —
    /// returns the oracle's rows with the oracle's accounting, as one
    /// heap probe. Returns how many probes returned a row.
    fn assert_junction_probes_match_the_oracle(db: &Database) -> usize {
        let j = db.table(db.table_id("J").unwrap());
        let mut non_empty = 0;
        for o in ORIENTATIONS {
            let mut keys: Vec<i64> =
                j.live_rows().filter_map(|r| j.value(r, o.0).as_int()).collect();
            keys.extend([1, 2, 10, 11, 99]);
            keys.sort_unstable();
            keys.dedup();
            for key in keys {
                for l in [0, 1, 2, 10] {
                    let (rows, cost) = junction_probe(db, o, key, l);
                    let (want, access) = junction_oracle(db, o, key, l);
                    assert_eq!(rows, want, "{o:?} key {key} l {l}");
                    assert_eq!(cost.access, access, "{o:?} key {key} l {l}: accounting");
                    assert_eq!((cost.probes.fast, cost.probes.heap), (0, 1));
                    non_empty += !rows.is_empty() as usize;
                }
            }
        }
        non_empty
    }

    #[test]
    fn catalog_roundtrip() {
        let db = tiny_db();
        let paper = db.table_id("Paper").unwrap();
        assert_eq!(db.table(paper).schema.name, "Paper");
        assert_eq!(db.total_tuples(), 3);
        assert!(db.table_id("Nope").is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = tiny_db();
        let e = db.create_table(TableSchema::builder("Year").pk("id").build().unwrap());
        assert!(matches!(e, Err(StorageError::BadSchema(_))));
    }

    #[test]
    fn fk_validation_passes_then_catches_dangling() {
        let mut db = tiny_db();
        assert_eq!(db.validate_foreign_keys().unwrap(), 2);
        db.insert("Paper", vec![Value::Int(12), "bad".into(), Value::Int(99)]).unwrap();
        assert!(matches!(
            db.validate_foreign_keys(),
            Err(StorageError::DanglingForeignKey { key: 99, .. })
        ));
    }

    #[test]
    fn select_eq_counts_accesses() {
        let mut db = tiny_db();
        db.build_runs();
        let paper = db.table_id("Paper").unwrap();
        let fk_col = db.table(paper).schema.column_index("year_id").unwrap();
        let before = db.access().snapshot();
        let rows = db.select_eq(paper, fk_col, 1);
        assert_eq!(rows.len(), 2);
        let delta = db.access().snapshot().since(before);
        assert_eq!(delta.joins, 1);
        assert_eq!(delta.tuples, 2);
        // Empty probe still counts one join.
        db.select_eq(paper, fk_col, 42);
        assert_eq!(db.access().snapshot().since(before).joins, 2);
    }

    #[test]
    fn select_eq_on_pk_column() {
        let db = tiny_db();
        let paper = db.table_id("Paper").unwrap();
        let rows = db.select_eq(paper, 0, 11);
        assert_eq!(rows.len(), 1);
        assert_eq!(db.table(paper).pk_of(rows[0]), 11);
    }

    #[test]
    fn select_top_l_filters_and_orders() {
        let mut db = tiny_db();
        db.build_runs();
        let paper = db.table_id("Paper").unwrap();
        let fk_col = db.table(paper).schema.column_index("year_id").unwrap();
        // Importance: pk 10 -> 1.0, pk 11 -> 5.0
        let li = |r: RowId| if db.table(paper).pk_of(r) == 10 { 1.0 } else { 5.0 };
        let rows = db.select_eq_top_l(paper, fk_col, 1, 1, 0.0, None, &li);
        assert_eq!(rows.len(), 1);
        assert_eq!(db.table(paper).pk_of(rows[0]), 11, "highest importance first");
        // threshold excludes everything
        let rows = db.select_eq_top_l(paper, fk_col, 1, 10, 100.0, None, &li);
        assert!(rows.is_empty());
    }

    #[test]
    fn fast_path_survives_li_ties_across_distinct_scores() {
        // A monotone non-decreasing `li` may collapse *distinct* installed
        // scores to equal values (in production: 1-ulp score gaps erased
        // by the affinity multiplication). The prefix scan must then agree
        // with the heap path's (li desc, RowId asc) order anyway — the
        // boundary tie run is re-ranked, not trusted.
        let mut db = Database::new();
        db.create_table(TableSchema::builder("Parent").pk("id").build().unwrap()).unwrap();
        db.create_table(
            TableSchema::builder("Child").pk("id").fk("parent_id", "Parent").build().unwrap(),
        )
        .unwrap();
        db.insert("Parent", vec![Value::Int(1)]).unwrap();
        // Scores *ascend* with the RowId, so the sorted postings run in
        // the opposite direction of the heap path's candidate order
        // (RowId asc) — inside a collapsed li-tie the two paths would
        // disagree if the boundary run were not re-ranked.
        for pk in 0i64..10 {
            db.insert("Child", vec![Value::Int(pk), Value::Int(1)]).unwrap();
        }
        let child = db.table_id("Child").unwrap();
        let scores: Vec<f64> = (0..10).map(|i| i as f64 + 1.0).collect();
        let token = db.install_importance_order(&|t, r| {
            if t == child {
                scores[r.index()]
            } else {
                0.0
            }
        });
        // li collapses score pairs: {10,9} -> 5, {8,7} -> 4, ... so every
        // cut position falls inside a tie run of distinct scores.
        let li = |r: RowId| (scores[r.index()] / 2.0).ceil();
        let fk_col = db.table(child).schema.column_index("parent_id").unwrap();
        for l in 0..=10 {
            for threshold in [0.0, 1.0, 2.5, 4.0, 10.0] {
                let fast = db.select_eq_top_l(child, fk_col, 1, l, threshold, Some(token), &li);
                let slow = db.select_eq_top_l(child, fk_col, 1, l, threshold, None, &li);
                assert_eq!(fast, slow, "l={l} threshold={threshold}");
            }
        }
    }

    #[test]
    fn installed_order_serves_prefix_scans() {
        let mut db = tiny_db();
        // Global importance: pk 10 -> 1.0, pk 11 -> 5.0.
        let score = |db: &Database, t: TableId, r: RowId| {
            if db.table(t).schema.name == "Paper" && db.table(t).pk_of(r) == 11 {
                5.0
            } else {
                1.0
            }
        };
        let token = {
            let snapshot: Vec<Vec<f64>> = db
                .tables()
                .map(|(tid, t)| t.iter().map(|(r, _)| score(&db, tid, r)).collect())
                .collect();
            db.install_importance_order(&|t, r| snapshot[t.index()][r.index()])
        };
        assert_eq!(db.fk_order(), Some(token));
        let paper = db.table_id("Paper").unwrap();
        let fk_col = db.table(paper).schema.column_index("year_id").unwrap();
        let li = |r: RowId| 0.5 * if db.table(paper).pk_of(r) == 11 { 5.0 } else { 1.0 };
        // Fast path and heap path agree, including access accounting.
        let before = db.access().snapshot();
        let fast = db.select_eq_top_l(paper, fk_col, 1, 2, 0.0, Some(token), &li);
        let mid = db.access().snapshot();
        let slow = db.select_eq_top_l(paper, fk_col, 1, 2, 0.0, None, &li);
        let after = db.access().snapshot();
        assert_eq!(fast, slow);
        assert_eq!(db.table(paper).pk_of(fast[0]), 11, "best importance first");
        assert_eq!(mid.since(before), after.since(mid), "identical cost accounting");
        // The threshold cuts the scan short.
        let cut = db.select_eq_top_l(paper, fk_col, 1, 2, 2.0, Some(token), &li);
        assert_eq!(cut.len(), 1);
        // A stale token falls back to the heap path (still correct).
        let stale = db.select_eq_top_l(
            paper,
            fk_col,
            1,
            2,
            0.0,
            Some(FkOrderToken::fresh(db.epoch())),
            &li,
        );
        assert_eq!(stale, slow);
    }

    #[test]
    fn insert_invalidates_sorted_postings() {
        let mut db = tiny_db();
        let token = db.install_importance_order(&|_, _| 1.0);
        let paper = db.table_id("Paper").unwrap();
        let fk_col = db.table(paper).schema.column_index("year_id").unwrap();
        assert!(db.table(paper).sorted_fk_index(fk_col).is_some());
        db.insert("Paper", vec![Value::Int(12), "p3".into(), Value::Int(1)]).unwrap();
        assert!(
            db.table(paper).sorted_fk_index(fk_col).is_none(),
            "un-scored insert drops the snapshot postings"
        );
        db.build_runs();
        // The probe still answers correctly via the heap fallback, and the
        // new row is visible.
        let li = |_: RowId| 1.0;
        let rows = db.select_eq_top_l(paper, fk_col, 1, 10, 0.0, Some(token), &li);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn epochs_bump_on_every_insert() {
        let mut db = tiny_db();
        let (g0, paper) = (db.epoch(), db.table_id("Paper").unwrap());
        let year = db.table_id("Year").unwrap();
        let (t0, y0) = (db.table(paper).epoch(), db.table(year).epoch());
        assert!(g0 > Epoch::default(), "loading already advanced the global epoch");
        db.insert("Paper", vec![Value::Int(12), "p3".into(), Value::Int(1)]).unwrap();
        assert_eq!(db.epoch(), g0.next());
        assert_eq!(db.table(paper).epoch(), t0.next());
        // Other tables' epochs are untouched.
        assert_eq!(db.table(year).epoch(), y0);
    }

    #[test]
    fn scored_insert_maintains_postings_and_restamps_token() {
        let mut db = tiny_db();
        let paper = db.table_id("Paper").unwrap();
        let fk_col = db.table(paper).schema.column_index("year_id").unwrap();
        // Importance: pk 10 -> 1.0, pk 11 -> 5.0 (as in the install test).
        let snapshot: Vec<Vec<f64>> = db
            .tables()
            .map(|(_, t)| {
                t.iter()
                    .map(
                        |(r, _)| {
                            if t.schema.name == "Paper" && t.pk_of(r) == 11 {
                                5.0
                            } else {
                                1.0
                            }
                        },
                    )
                    .collect()
            })
            .collect();
        let old = db.install_importance_order(&|t, r| snapshot[t.index()][r.index()]);
        // Insert a row scoring between the two existing ones.
        batch_of_one(&mut db, |db, b| {
            db.insert_scored_staged(
                b,
                "Paper",
                vec![Value::Int(12), "p3".into(), Value::Int(1)],
                3.0,
            )
        })
        .unwrap();
        let token = db.fk_order().expect("order survives the scored insert");
        assert_ne!(token, old, "the token is re-stamped, not reused verbatim");
        assert!(token.same_order(old), "…but it still names the same installed order");
        assert_eq!(token.epoch(), db.epoch());
        let sorted = db.table(paper).sorted_fk_index(fk_col).expect("postings maintained");
        let pks: Vec<i64> = sorted.rows(1).iter().map(|&r| db.table(paper).pk_of(r)).collect();
        assert_eq!(pks, vec![11, 12, 10], "new row placed by score");
        // The re-stamped token serves the fast path; the superseded one
        // falls back (both correct and byte-identical).
        let li = |r: RowId| db.table(paper).installed_score(r);
        let before = db.access().probes();
        let fast = db.select_eq_top_l(paper, fk_col, 1, 3, 0.0, Some(token), &li);
        let mid = db.access().probes();
        let slow = db.select_eq_top_l(paper, fk_col, 1, 3, 0.0, Some(old), &li);
        let after = db.access().probes();
        assert_eq!(fast, slow);
        assert_eq!(mid.fast - before.fast, 1, "current token prefix-scans");
        assert_eq!(after.heap - mid.heap, 1, "superseded token heap-falls-back");
        assert_eq!(db.table(paper).pk_of(fast[0]), 11);
        assert_eq!(db.table(paper).pk_of(fast[1]), 12);
    }

    #[test]
    fn dangling_junction_target_drops_link_postings_then_heals() {
        // A junction row whose target pk does not (yet) exist counts in
        // its probe's group and joins nothing — what SQL reads — and the
        // endpoint's later scored arrival joins it: the probe resolves
        // each target by key. FK validation is a separate step,
        // so the storage layer has to tolerate this on its own.
        let mut db = pcj();
        db.insert("P", vec![Value::Int(1)]).unwrap();
        db.insert("C", vec![Value::Int(10)]).unwrap();
        db.insert("J", vec![Value::Int(100), Value::Int(1), Value::Int(10)]).unwrap();
        db.install_importance_order(&|_, _| 1.0);
        // Scored insert referencing C pk 99, which does not exist.
        batch_of_one(&mut db, |db, b| {
            db.insert_scored_staged(
                b,
                "J",
                vec![Value::Int(101), Value::Int(1), Value::Int(99)],
                0.5,
            )
        })
        .unwrap();
        let (rows, cost) = junction_probe(&db, ORIENTATIONS[0], 1, 10);
        assert_eq!((rows, cost.access.tuples), (vec![RowId(0)], 2 + 1), "counted, unjoined");
        // Seen from the missing endpoint's key, the row joins P 1.
        assert_eq!(junction_probe(&db, ORIENTATIONS[1], 99, 10).0, [RowId(0)]);
        assert_junction_probes_match_the_oracle(&db);
        // The late-arriving endpoint joins, best target first.
        batch_of_one(&mut db, |db, b| db.insert_scored_staged(b, "C", vec![Value::Int(99)], 2.0))
            .unwrap();
        let (rows, _) = junction_probe(&db, ORIENTATIONS[0], 1, 10);
        assert_eq!(rows, [RowId(1), RowId(0)], "li 2 before li 0");
        assert_eq!(db.fk_order().unwrap().epoch(), db.epoch(), "the insert re-stamps the token");
        assert_junction_probes_match_the_oracle(&db);

        // A junction loaded with a dangling row *before* install joins
        // nothing either, and the endpoint's arrival joins it.
        let mut db2 = pcj();
        db2.insert("P", vec![Value::Int(1)]).unwrap();
        db2.insert("J", vec![Value::Int(100), Value::Int(1), Value::Int(99)]).unwrap();
        db2.install_importance_order(&|_, _| 1.0);
        let (rows, cost) = junction_probe(&db2, ORIENTATIONS[0], 1, 10);
        assert_eq!((rows.len(), cost.access.tuples), (0, 1));
        batch_of_one(&mut db2, |db, b| db.insert_scored_staged(b, "C", vec![Value::Int(99)], 1.0))
            .unwrap();
        assert_eq!(junction_probe(&db2, ORIENTATIONS[0], 1, 10).0.len(), 1);
        assert_junction_probes_match_the_oracle(&db2);
    }

    #[test]
    fn scored_insert_rejects_bad_arity_without_panicking() {
        let mut db = tiny_db();
        db.install_importance_order(&|_, _| 1.0);
        // Junction-free table with short row: clean Arity error.
        assert!(matches!(
            batch_of_one(&mut db, |db, b| db.insert_scored_staged(
                b,
                "Paper",
                vec![Value::Int(12)],
                1.0
            )),
            Err(StorageError::Arity { expected: 3, got: 1, .. })
        ));
        // A junction table with a short row must not panic while
        // resolving link orientations either.
        let mut jdb = Database::new();
        jdb.create_table(TableSchema::builder("A").pk("id").build().unwrap()).unwrap();
        jdb.create_table(
            TableSchema::builder("J")
                .pk("id")
                .fk("x", "A")
                .fk("y", "A")
                .junction()
                .build()
                .unwrap(),
        )
        .unwrap();
        jdb.insert("A", vec![Value::Int(1)]).unwrap();
        jdb.install_importance_order(&|_, _| 1.0);
        assert!(matches!(
            batch_of_one(&mut jdb, |db, b| db.insert_scored_staged(
                b,
                "J",
                vec![Value::Int(7)],
                1.0
            )),
            Err(StorageError::Arity { expected: 3, got: 1, .. })
        ));
    }

    #[test]
    fn scored_insert_without_order_degrades_to_plain_insert() {
        let mut db = tiny_db();
        let row = batch_of_one(&mut db, |db, b| {
            db.insert_scored_staged(
                b,
                "Paper",
                vec![Value::Int(12), "p3".into(), Value::Int(1)],
                1.0,
            )
        })
        .unwrap();
        let paper = db.table_id("Paper").unwrap();
        assert_eq!(db.table(paper).pk_of(row), 12);
        assert!(db.fk_order().is_none());
    }

    /// Identical tiny databases with an all-ones importance order
    /// installed — the batch-vs-fold comparisons below start from two of
    /// these.
    fn installed_pair() -> (Database, Database) {
        let build = || {
            let mut db = tiny_db();
            let snapshot: Vec<Vec<f64>> =
                db.tables().map(|(_, t)| t.iter().map(|_| 1.0).collect()).collect();
            db.install_importance_order(&|t, r| snapshot[t.index()][r.index()]);
            db
        };
        (build(), build())
    }

    #[test]
    fn scored_batch_settles_exactly_like_the_fold() {
        let (mut batched, mut folded) = installed_pair();
        let rows: Vec<(i64, f64)> = vec![(20, 3.0), (21, 0.5), (22, 1.0), (23, 7.5)];
        let mut b = batched.begin_scored_batch();
        for &(pk, s) in &rows {
            batched
                .insert_scored_staged(
                    &mut b,
                    "Paper",
                    vec![Value::Int(pk), "t".into(), Value::Int(1)],
                    s,
                )
                .unwrap();
        }
        batched.finish_scored_batch(b);
        for &(pk, s) in &rows {
            batch_of_one(&mut folded, |db, b| {
                db.insert_scored_staged(
                    b,
                    "Paper",
                    vec![Value::Int(pk), "t".into(), Value::Int(1)],
                    s,
                )
            })
            .unwrap();
        }
        assert_eq!(batched.epoch(), folded.epoch());
        assert_eq!(batched.fk_order().unwrap().epoch(), folded.fk_order().unwrap().epoch());
        let paper = batched.table_id("Paper").unwrap();
        let fk_col = batched.table(paper).schema.column_index("year_id").unwrap();
        assert_eq!(
            batched.table(paper).sorted_fk_index(fk_col).unwrap().rows(1),
            folded.table(paper).sorted_fk_index(fk_col).unwrap().rows(1),
            "settled postings equal the fold's"
        );
    }

    #[test]
    fn mid_batch_heal_does_not_duplicate_later_staged_junction_pairs() {
        // With a dangling J(101 -> C 99) in place, a batch staging
        // [C(99), J(102 -> C 99)] joins each junction row exactly once:
        // the arriving endpoint joins J 101, J 102 joins itself. The
        // batch must end identical to the fold and to the SQL oracle.
        let build = || {
            let mut db = pcj();
            db.insert("P", vec![Value::Int(1)]).unwrap();
            db.insert("C", vec![Value::Int(10)]).unwrap();
            db.insert("J", vec![Value::Int(100), Value::Int(1), Value::Int(10)]).unwrap();
            db.install_importance_order(&|_, _| 1.0);
            batch_of_one(&mut db, |db, b| {
                db.insert_scored_staged(
                    b,
                    "J",
                    vec![Value::Int(101), Value::Int(1), Value::Int(99)],
                    0.5,
                )
            })
            .unwrap();
            db
        };
        let j102 = || vec![Value::Int(102), Value::Int(1), Value::Int(99)];

        let mut batched = build();
        let mut b = batched.begin_scored_batch();
        batched.insert_scored_staged(&mut b, "C", vec![Value::Int(99)], 2.0).unwrap();
        batched.insert_scored_staged(&mut b, "J", j102(), 0.25).unwrap();
        batched.finish_scored_batch(b);

        let mut folded = build();
        batch_of_one(&mut folded, |db, b| {
            db.insert_scored_staged(b, "C", vec![Value::Int(99)], 2.0)
        })
        .unwrap();
        batch_of_one(&mut folded, |db, b| db.insert_scored_staged(b, "J", j102(), 0.25)).unwrap();

        for o in ORIENTATIONS {
            for key in [1i64, 10, 99] {
                let (a, f) =
                    (junction_probe(&batched, o, key, 10), junction_probe(&folded, o, key, 10));
                assert_eq!(a, f, "{o:?} key {key}");
            }
        }
        // Each junction row joins exactly once: C 99 twice (J 101 and
        // J 102), C 10 once.
        let (rows, cost) = junction_probe(&batched, ORIENTATIONS[0], 1, 10);
        assert_eq!(rows, [RowId(1), RowId(1), RowId(0)], "no duplicated or lost join");
        assert_eq!(cost.access.tuples, 3 + 3, "all three junction rows read");
        assert_junction_probes_match_the_oracle(&batched);
    }

    #[test]
    fn batch_token_stamp_matches_the_fold_under_plain_fallback_tails() {
        // A batch whose *last* row falls back to the plain insert (its
        // table's snapshot is dead) must stamp the token at the last
        // maintained insert's epoch — exactly where the fold leaves it —
        // not at the batch's final epoch.
        let (mut batched, mut folded) = installed_pair();
        // Kill Year's snapshot in both databases.
        batched.insert("Year", vec![Value::Int(50), Value::Int(2001)]).unwrap();
        folded.insert("Year", vec![Value::Int(50), Value::Int(2001)]).unwrap();

        let mut b = batched.begin_scored_batch();
        batched
            .insert_scored_staged(
                &mut b,
                "Paper",
                vec![Value::Int(20), "t".into(), Value::Int(1)],
                2.0,
            )
            .unwrap();
        batched
            .insert_scored_staged(&mut b, "Year", vec![Value::Int(51), Value::Int(2002)], 1.0)
            .unwrap();
        batched.finish_scored_batch(b);

        batch_of_one(&mut folded, |db, b| {
            db.insert_scored_staged(
                b,
                "Paper",
                vec![Value::Int(20), "t".into(), Value::Int(1)],
                2.0,
            )
        })
        .unwrap();
        batch_of_one(&mut folded, |db, b| {
            db.insert_scored_staged(b, "Year", vec![Value::Int(51), Value::Int(2002)], 1.0)
        })
        .unwrap();

        assert_eq!(batched.epoch(), folded.epoch());
        assert_eq!(
            batched.fk_order().unwrap().epoch(),
            folded.fk_order().unwrap().epoch(),
            "the stamp sits at the last maintained insert, as in the fold"
        );
        assert!(
            batched.fk_order().unwrap().epoch() < batched.epoch(),
            "the trailing fallback bumped the epoch past the stamp"
        );
    }

    #[test]
    fn scored_batch_suspends_postings_while_open() {
        let (mut db, _) = installed_pair();
        let paper = db.table_id("Paper").unwrap();
        let fk_col = db.table(paper).schema.column_index("year_id").unwrap();
        let token = db.fk_order().unwrap();
        let mut b = db.begin_scored_batch();
        db.insert_scored_staged(
            &mut b,
            "Paper",
            vec![Value::Int(20), "t".into(), Value::Int(1)],
            9.0,
        )
        .unwrap();
        // Mid-batch, the staged row is hash-visible but the sorted
        // postings are unreachable: a probe heap-falls-back and still
        // sees the new row.
        assert!(db.table(paper).sorted_fk_index(fk_col).is_none(), "postings suspended");
        let before = db.access().probes();
        let li = |_: RowId| 1.0;
        let rows = db.select_eq_top_l(paper, fk_col, 1, 10, 0.0, Some(token), &li);
        assert_eq!(rows.len(), 3, "staged row visible through the heap path");
        assert_eq!(db.access().probes().heap - before.heap, 1);
        db.finish_scored_batch(b);
        assert!(db.table(paper).sorted_fk_index(fk_col).is_some(), "postings settled");
    }

    #[test]
    fn scored_batch_resorts_at_most_once_per_table() {
        // 8 staged rows: the batch settles with exactly one re-sort pass
        // for the table, the fold with one per batch of one.
        let (mut batched, mut folded) = installed_pair();
        let before = batched.access().maint();
        let mut b = batched.begin_scored_batch();
        for pk in 20..28 {
            let s = (pk % 5) as f64;
            batched
                .insert_scored_staged(
                    &mut b,
                    "Paper",
                    vec![Value::Int(pk), "t".into(), Value::Int(1)],
                    s,
                )
                .unwrap();
        }
        batched.finish_scored_batch(b);
        let batch_work = batched.access().maint().since(before);
        assert_eq!(batch_work.posting_resorts, 1, "one settlement re-sort for the whole batch");

        let before = folded.access().maint();
        for pk in 20..28 {
            let s = (pk % 5) as f64;
            batch_of_one(&mut folded, |db, b| {
                db.insert_scored_staged(
                    b,
                    "Paper",
                    vec![Value::Int(pk), "t".into(), Value::Int(1)],
                    s,
                )
            })
            .unwrap();
        }
        let fold_work = folded.access().maint().since(before);
        assert_eq!(fold_work.posting_resorts, 8, "the fold re-sorts once per batch of one");
        // Both end byte-identical regardless.
        let paper = batched.table_id("Paper").unwrap();
        let fk_col = batched.table(paper).schema.column_index("year_id").unwrap();
        assert_eq!(
            batched.table(paper).sorted_fk_index(fk_col).unwrap().rows(1),
            folded.table(paper).sorted_fk_index(fk_col).unwrap().rows(1),
        );
    }

    #[test]
    fn scored_update_repositions_postings_at_the_fresh_install_position() {
        let (mut db, _) = installed_pair();
        let paper = db.table_id("Paper").unwrap();
        let fk_col = db.table(paper).schema.column_index("year_id").unwrap();
        // Both rows score 1.0, so the install order is [row0, row1].
        assert_eq!(db.table(paper).sorted_fk_index(fk_col).unwrap().rows(1), &[RowId(0), RowId(1)]);
        let old = db.fk_order().unwrap();
        batch_of_one(&mut db, |db, b| {
            db.update_scored_staged(
                b,
                "Paper",
                11,
                vec![Value::Int(11), "p2'".into(), Value::Int(1)],
                5.0,
            )
        })
        .unwrap();
        // Row 1 moved to the front — exactly where a fresh sort puts it.
        assert_eq!(db.table(paper).sorted_fk_index(fk_col).unwrap().rows(1), &[RowId(1), RowId(0)]);
        assert_eq!(db.table(paper).value(RowId(1), 1).as_str(), Some("p2'"));
        let token = db.fk_order().unwrap();
        assert!(token.same_order(old) && token != old, "update re-stamps the token");
        assert_eq!(token.epoch(), db.epoch());
        // Fast path and heap path agree, including accounting.
        let li = |r: RowId| db.table(paper).installed_score(r);
        let before = db.access().snapshot();
        let fast = db.select_eq_top_l(paper, fk_col, 1, 2, 0.0, Some(token), &li);
        let mid = db.access().snapshot();
        let slow = db.select_eq_top_l(paper, fk_col, 1, 2, 0.0, None, &li);
        let after = db.access().snapshot();
        assert_eq!(fast, slow);
        assert_eq!(mid.since(before), after.since(mid));
        // An update that ties an existing score must respect the RowId
        // tie-break: row 1 back at 1.0 ties row 0 and lands *after* it.
        batch_of_one(&mut db, |db, b| {
            db.update_scored_staged(
                b,
                "Paper",
                11,
                vec![Value::Int(11), "p2".into(), Value::Int(1)],
                1.0,
            )
        })
        .unwrap();
        assert_eq!(db.table(paper).sorted_fk_index(fk_col).unwrap().rows(1), &[RowId(0), RowId(1)]);
    }

    #[test]
    fn scored_delete_removes_fk_entries_where_they_lie() {
        let (mut db, _) = installed_pair();
        let paper = db.table_id("Paper").unwrap();
        let fk_col = db.table(paper).schema.column_index("year_id").unwrap();
        for (pk, s) in [(20i64, 3.0), (21, 0.5)] {
            batch_of_one(&mut db, |db, b| {
                db.insert_scored_staged(
                    b,
                    "Paper",
                    vec![Value::Int(pk), "t".into(), Value::Int(1)],
                    s,
                )
            })
            .unwrap();
        }
        // A delete leaves the run in order, one row shorter: nothing to
        // skip, nothing to re-sort.
        let maint = db.access().maint();
        batch_of_one(&mut db, |db, b| db.delete_scored_staged(b, "Paper", 10)).unwrap();
        assert_eq!(db.table(paper).sorted_fk_index(fk_col).unwrap().rows(1).len(), 3);
        let token = db.fk_order().unwrap();
        let li = |r: RowId| db.table(paper).installed_score(r);
        let before = db.access().snapshot();
        let fast = db.select_eq_top_l(paper, fk_col, 1, 10, 0.0, Some(token), &li);
        let mid = db.access().snapshot();
        let slow = db.select_eq_top_l(paper, fk_col, 1, 10, 0.0, None, &li);
        let after = db.access().snapshot();
        assert_eq!(fast.len(), 3);
        assert_eq!(fast, slow);
        assert_eq!(mid.since(before), after.since(mid), "identical cost accounting");
        batch_of_one(&mut db, |db, b| db.delete_scored_staged(b, "Paper", 20)).unwrap();
        assert_eq!(db.access().maint().since(maint), crate::MaintStats::default(), "no re-sort");
        assert_eq!(db.table(paper).sorted_fk_index(fk_col).unwrap().rows(1), &[RowId(1), RowId(3)]);
        // MissingRow on dead/absent pks.
        assert!(matches!(
            batch_of_one(&mut db, |db, b| db.delete_scored_staged(b, "Paper", 10)),
            Err(StorageError::MissingRow { key: 10, .. })
        ));
    }

    #[test]
    fn mixed_batch_settles_exactly_like_the_fold() {
        let (mut batched, mut folded) = installed_pair();
        let script = |db: &mut Database, b: Option<&mut ScoredBatch>| {
            // A mixed run: two inserts, an update repositioning a row that
            // one of the inserts just tied, a delete, and an update of a
            // row inserted earlier in the same run.
            match b {
                Some(b) => {
                    db.insert_scored_staged(
                        b,
                        "Paper",
                        vec![Value::Int(20), "a".into(), Value::Int(1)],
                        2.0,
                    )
                    .unwrap();
                    db.update_scored_staged(
                        b,
                        "Paper",
                        10,
                        vec![Value::Int(10), "p1'".into(), Value::Int(1)],
                        2.0,
                    )
                    .unwrap();
                    db.delete_scored_staged(b, "Paper", 11).unwrap();
                    db.update_scored_staged(
                        b,
                        "Paper",
                        20,
                        vec![Value::Int(20), "a'".into(), Value::Int(1)],
                        0.25,
                    )
                    .unwrap();
                    db.insert_scored_staged(
                        b,
                        "Paper",
                        vec![Value::Int(21), "b".into(), Value::Int(1)],
                        2.0,
                    )
                    .unwrap();
                }
                None => {
                    batch_of_one(db, |db, b| {
                        db.insert_scored_staged(
                            b,
                            "Paper",
                            vec![Value::Int(20), "a".into(), Value::Int(1)],
                            2.0,
                        )
                    })
                    .unwrap();
                    batch_of_one(db, |db, b| {
                        db.update_scored_staged(
                            b,
                            "Paper",
                            10,
                            vec![Value::Int(10), "p1'".into(), Value::Int(1)],
                            2.0,
                        )
                    })
                    .unwrap();
                    batch_of_one(db, |db, b| db.delete_scored_staged(b, "Paper", 11)).unwrap();
                    batch_of_one(db, |db, b| {
                        db.update_scored_staged(
                            b,
                            "Paper",
                            20,
                            vec![Value::Int(20), "a'".into(), Value::Int(1)],
                            0.25,
                        )
                    })
                    .unwrap();
                    batch_of_one(db, |db, b| {
                        db.insert_scored_staged(
                            b,
                            "Paper",
                            vec![Value::Int(21), "b".into(), Value::Int(1)],
                            2.0,
                        )
                    })
                    .unwrap();
                }
            }
        };
        let mut b = batched.begin_scored_batch();
        script(&mut batched, Some(&mut b));
        batched.finish_scored_batch(b);
        script(&mut folded, None);
        assert_eq!(batched.epoch(), folded.epoch());
        assert_eq!(batched.fk_order().unwrap().epoch(), folded.fk_order().unwrap().epoch());
        let paper = batched.table_id("Paper").unwrap();
        let fk_col = batched.table(paper).schema.column_index("year_id").unwrap();
        assert_eq!(
            batched.table(paper).sorted_fk_index(fk_col).unwrap().rows(1),
            folded.table(paper).sorted_fk_index(fk_col).unwrap().rows(1),
            "settled postings equal the fold's"
        );
        // And both equal a fresh install over the surviving rows.
        let live: Vec<RowId> = batched
            .table(paper)
            .sorted_fk_index(fk_col)
            .unwrap()
            .rows(1)
            .iter()
            .copied()
            .filter(|&r| batched.table(paper).is_live(r))
            .collect();
        let snap: Vec<Vec<f64>> = batched
            .tables()
            .map(|(_, t)| (0..t.len()).map(|i| t.installed_score(RowId(i as u32))).collect())
            .collect();
        let mut reinstalled = std::mem::replace(&mut batched, Database::new());
        reinstalled.install_importance_order(&|t, r| snap[t.index()][r.index()]);
        assert_eq!(reinstalled.table(paper).sorted_fk_index(fk_col).unwrap().rows(1), live);
    }

    #[test]
    fn deleting_a_link_target_drops_the_orientation_then_heals_on_reinsert() {
        // A scored delete of a target its junction rows still reference
        // leaves their keys resolving to nothing — the rows still count in
        // their group — and a re-insert of the pk joins them to the new
        // row. No step re-sorts a junction run.
        let mut db = pcj();
        db.insert("P", vec![Value::Int(1)]).unwrap();
        db.insert("C", vec![Value::Int(10)]).unwrap();
        db.insert("C", vec![Value::Int(11)]).unwrap();
        db.insert("J", vec![Value::Int(100), Value::Int(1), Value::Int(10)]).unwrap();
        db.insert("J", vec![Value::Int(101), Value::Int(1), Value::Int(11)]).unwrap();
        db.install_importance_order(&|_, _| 1.0);
        assert_eq!(junction_probe(&db, ORIENTATIONS[0], 1, 10).0.len(), 2);
        let maint = db.access().maint();
        batch_of_one(&mut db, |db, b| db.delete_scored_staged(b, "C", 10)).unwrap();
        let (rows, cost) = junction_probe(&db, ORIENTATIONS[0], 1, 10);
        assert_eq!(rows, [RowId(1)], "J 100 joins nothing");
        assert_eq!(cost.access.tuples, 2 + 1, "J 100 still counts in its group");
        assert_junction_probes_match_the_oracle(&db);
        // Re-inserting the pk joins J 100 to the *new* RowId of pk 10.
        batch_of_one(&mut db, |db, b| db.insert_scored_staged(b, "C", vec![Value::Int(10)], 2.0))
            .unwrap();
        let new_row = db.table(db.table_id("C").unwrap()).by_pk(10).unwrap();
        assert_eq!(new_row, RowId(2));
        assert_eq!(junction_probe(&db, ORIENTATIONS[0], 1, 10).0, [new_row, RowId(1)]);
        // An update of a target moves nothing of the junction's.
        batch_of_one(&mut db, |db, b| {
            db.update_scored_staged(b, "C", 11, vec![Value::Int(11)], 9.0)
        })
        .unwrap();
        let work = db.access().maint().since(maint);
        assert_eq!(work.posting_resorts, 0, "C has no FK run, J was not touched: {work:?}");
        assert_junction_probes_match_the_oracle(&db);
    }

    #[test]
    fn deleting_a_referenced_target_then_its_junction_row_matches_a_fresh_install() {
        // Delete a C row a J row still references, then that J row: every
        // junction probe must be what SQL over the surviving rows reads,
        // before and after a fresh install over the same rows.
        let mut db = pcj();
        db.insert("P", vec![Value::Int(1)]).unwrap();
        db.insert("C", vec![Value::Int(10)]).unwrap();
        db.insert("C", vec![Value::Int(11)]).unwrap();
        db.insert("J", vec![Value::Int(100), Value::Int(1), Value::Int(10)]).unwrap();
        db.insert("J", vec![Value::Int(101), Value::Int(1), Value::Int(11)]).unwrap();
        db.install_importance_order(&|_, r| 1.0 + r.index() as f64);
        batch_of_one(&mut db, |db, b| db.delete_scored_staged(b, "C", 10)).unwrap();
        batch_of_one(&mut db, |db, b| db.delete_scored_staged(b, "J", 100)).unwrap();
        assert!(assert_junction_probes_match_the_oracle(&db) > 0, "both orientations still join");
        db.rebuild_postings_from_installed().expect("every score snapshot is live");
        assert_junction_probes_match_the_oracle(&db);
    }

    #[test]
    fn a_plain_target_mutation_drops_the_orientations_it_orders() {
        // A plain delete of a target leaves the junction's runs as they
        // were (only the target's own are unbuilt), and the junction
        // probe answers only the live target, through the same one
        // selection as always.
        let mut db = pcj();
        db.insert("P", vec![Value::Int(1)]).unwrap();
        for c in [10, 11] {
            db.insert("C", vec![Value::Int(c)]).unwrap();
        }
        for (pk, c) in [(100, 10), (101, 11)] {
            db.insert("J", vec![Value::Int(pk), Value::Int(1), Value::Int(c)]).unwrap();
        }
        db.install_importance_order(&|_, r| 1.0 + r.index() as f64);
        db.delete("C", 11).unwrap();
        let j = db.table_id("J").unwrap();
        assert!(db.table(j).sorted_fk_index(1).is_some(), "the plain delete left J as it was");
        let (rows, cost) = junction_probe(&db, ORIENTATIONS[0], 1, 5);
        assert_eq!(rows, [RowId(0)], "only the live target");
        assert_eq!((cost.probes.fast, cost.probes.heap), (0, 1));
        assert_junction_probes_match_the_oracle(&db);
    }

    #[test]
    fn updating_a_link_target_rebuilds_no_links() {
        // A target's scored update stages its own table only: the
        // junction is not touched, nothing of it re-sorts, and its probe
        // reads the target's new row the moment it is staged.
        let mut db = pcj();
        db.insert("P", vec![Value::Int(1)]).unwrap();
        for c in [10, 11] {
            db.insert("C", vec![Value::Int(c)]).unwrap();
        }
        for (pk, c) in [(100, 10), (101, 11)] {
            db.insert("J", vec![Value::Int(pk), Value::Int(1), Value::Int(c)]).unwrap();
        }
        db.install_importance_order(&|_, r| 1.0 + r.index() as f64);
        let j = db.table_id("J").unwrap();
        let before = db.access().maint();
        let mut b = db.begin_scored_batch();
        db.update_scored_staged(&mut b, "C", 10, vec![Value::Int(10)], 5.0).unwrap();
        assert!(db.table(j).sorted_fk_index(1).is_some(), "the junction is not staged");
        assert_junction_probes_match_the_oracle(&db);
        db.finish_scored_batch(b);
        let work = db.access().maint().since(before);
        assert_eq!(work.posting_resorts, 0, "C has no FK run, J none staged: {work:?}");
        assert_junction_probes_match_the_oracle(&db);
    }

    #[test]
    fn junction_own_mutations_tombstone_and_compact_without_wholesale_rebuilds() {
        let mut db = pcj();
        for p in [1, 2] {
            db.insert("P", vec![Value::Int(p)]).unwrap();
        }
        db.insert("C", vec![Value::Int(10)]).unwrap();
        for (pk, p) in [(100, 1), (101, 1), (102, 1)] {
            db.insert("J", vec![Value::Int(pk), Value::Int(p), Value::Int(10)]).unwrap();
        }
        db.install_importance_order(&|_, r| 1.0 + r.index() as f64);
        let j = db.table_id("J").unwrap();
        let p_col = 1usize;
        let maint = db.access().maint();
        let group_len = |db: &Database, key| junction_probe(db, ORIENTATIONS[0], key, 10).1;

        // A junction-own delete takes the row out of its runs where it
        // lies: the group read shrinks with it.
        batch_of_one(&mut db, |db, b| db.delete_scored_staged(b, "J", 101)).unwrap();
        assert_eq!(group_len(&db, 1).access.tuples, 2 + 2, "the group tracks the live rows");
        assert!(db.table(j).rows_where_eq(p_col, 1).iter().all(|&r| r != RowId(1)));

        // A junction-own update re-homes the row under the new source key.
        batch_of_one(&mut db, |db, b| {
            db.update_scored_staged(
                b,
                "J",
                102,
                vec![Value::Int(102), Value::Int(2), Value::Int(10)],
                0.0,
            )
        })
        .unwrap();
        assert_eq!(group_len(&db, 1).access.tuples, 1 + 1);
        assert_eq!(group_len(&db, 2).access.tuples, 1 + 1, "re-homed under the new key");

        // Deleting the last row of a group drops its key, as a fresh
        // build has it.
        batch_of_one(&mut db, |db, b| db.delete_scored_staged(b, "J", 102)).unwrap();
        assert_eq!(db.table(j).sorted_fk_index(p_col).unwrap().key_count(), 1);
        assert_eq!(
            db.access().maint().since(maint).posting_resorts,
            1,
            "only the re-homing update"
        );
        assert_junction_probes_match_the_oracle(&db);
    }

    #[test]
    fn junction_row_updates_match_a_fresh_install_in_every_target_state() {
        // J 101 moves to every combination of source/target state — kept,
        // re-homed, NULL, dangling — and every junction probe must equal
        // what a from-scratch install over the same slots answers, and
        // SQL, also after a dangling target's endpoint arrives.
        let build = |j101: [Value; 2]| {
            let mut db = pcj();
            for p in [1, 2] {
                db.insert("P", vec![Value::Int(p)]).unwrap();
            }
            for c in [10, 11] {
                db.insert("C", vec![Value::Int(c)]).unwrap();
            }
            let [p, c] = j101;
            db.insert("J", vec![Value::Int(100), Value::Int(1), Value::Int(10)]).unwrap();
            db.insert("J", vec![Value::Int(101), p, c]).unwrap();
            db.insert("J", vec![Value::Int(102), Value::Int(2), Value::Int(10)]).unwrap();
            db
        };
        let score = |_: TableId, r: RowId| 1.0 + r.index() as f64;
        let assert_same_probes = |a: &Database, b: &Database, what: &str| {
            for o in ORIENTATIONS {
                for key in [1i64, 2, 10, 11, 99] {
                    let (x, y) = (junction_probe(a, o, key, 10), junction_probe(b, o, key, 10));
                    assert_eq!(x, y, "{what}: {o:?} key {key}");
                }
            }
            assert_junction_probes_match_the_oracle(a);
        };
        let states = |live: [i64; 2]| [Value::Int(live[0]), Value::Int(live[1]), Value::Null];
        for p in states([1, 2]) {
            for c in states([10, 11]).into_iter().chain([Value::Int(99)]) {
                let what = format!("J 101 -> ({p}, {c})");
                let mut live = build([Value::Int(1), Value::Int(11)]);
                live.install_importance_order(&score);
                batch_of_one(&mut live, |db, b| {
                    db.update_scored_staged(
                        b,
                        "J",
                        101,
                        vec![Value::Int(101), p.clone(), c.clone()],
                        2.0,
                    )
                })
                .unwrap();
                let mut fresh = build([p.clone(), c.clone()]);
                fresh.install_importance_order(&score);
                assert_same_probes(&live, &fresh, &what);
                if c == Value::Int(99) {
                    batch_of_one(&mut live, |db, b| {
                        db.insert_scored_staged(b, "C", vec![Value::Int(99)], 3.0)
                    })
                    .unwrap();
                    let mut fresh = build([p.clone(), c.clone()]);
                    fresh.insert("C", vec![Value::Int(99)]).unwrap();
                    // C 99 takes slot 2, which `score` rates 3.0 as well.
                    fresh.install_importance_order(&score);
                    assert_same_probes(&live, &fresh, &format!("{what}, C 99 arrived"));
                }
            }
        }
    }

    #[test]
    fn churn_threshold_triggers_batched_resort() {
        // Six scored inserts as batches of one: each settlement re-sorts
        // the one run its row joined, and the postings stay exactly the
        // install-from-scratch order throughout.
        let (mut db, _) = installed_pair();
        let paper = db.table_id("Paper").unwrap();
        let fk_col = db.table(paper).schema.column_index("year_id").unwrap();
        let before = db.access().maint();
        for (i, pk) in (20..26).enumerate() {
            let score = (i + 2) as f64;
            batch_of_one(&mut db, |db, b| {
                db.insert_scored_staged(
                    b,
                    "Paper",
                    vec![Value::Int(pk), "t".into(), Value::Int(1)],
                    score,
                )
            })
            .unwrap();
        }
        let work = db.access().maint().since(before);
        assert_eq!(work, crate::MaintStats { graph_builds: 0, posting_resorts: 6 });
        let li = |r: RowId| db.table(paper).installed_score(r);
        let token = db.fk_order().unwrap();
        let fast = db.select_eq_top_l(paper, fk_col, 1, 10, 0.0, Some(token), &li);
        let slow = db.select_eq_top_l(paper, fk_col, 1, 10, 0.0, None, &li);
        assert_eq!(fast, slow);
        assert_eq!(fast.len(), 8);
    }
}
