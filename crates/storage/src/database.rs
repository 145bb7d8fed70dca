//! The catalog: named tables, FK validation, and the query forms used by
//! the OS-generation algorithms.

use std::collections::HashMap;
use std::sync::Arc;

use crate::access::AccessCounter;
use crate::epoch::Epoch;
use crate::error::StorageError;
use crate::fk_index::{FkOrderToken, LinkTarget, SortedLinkIndex};
use crate::pager::PostingPager;
use crate::schema::TableSchema;
use crate::table::{RowId, Table};
use crate::value::{Value, ValueRef};
use crate::Result;

mod batch;
mod probe;

pub use batch::{ScoredBatch, StagedOp};

/// Scored mutations a table absorbs before a settlement rebuilds its
/// link postings whole instead of pair by pair (see
/// [`Database::set_churn_threshold`]).
pub const DEFAULT_CHURN_THRESHOLD: usize = 4096;

/// Dead pairs a junction's link postings carry before a settlement
/// triggers a compaction pass (see [`Database::set_compaction_threshold`]).
pub const DEFAULT_COMPACTION_THRESHOLD: usize = 1024;

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

/// An in-memory relational database: a catalog of [`Table`]s plus an
/// [`AccessCounter`] shared by all query paths.
#[derive(Debug)]
pub struct Database {
    tables: Vec<Table>,
    by_name: HashMap<String, TableId>,
    access: AccessCounter,
    /// The currently installed importance order, if any (see
    /// [`crate::fk_index`]).
    fk_order: Option<FkOrderToken>,
    /// Global mutation epoch: bumped on every mutation of any table.
    epoch: Epoch,
    /// Per-table churn bound before a settlement rebuilds the links whole.
    churn_threshold: usize,
    /// Per-table dead-pair bound before a settlement compacts the links.
    compaction_threshold: usize,
    /// Missing junction-link endpoints: `(target table, pk)` → the
    /// junction tables whose link postings were dropped because a scored
    /// insert referenced that not-yet-existing row. When the endpoint
    /// later arrives through a scored insert, the waiting junctions'
    /// postings are rebuilt (healed) instead of staying on the heap
    /// fallback until the next full install.
    dangling_watch: HashMap<(TableId, i64), Vec<TableId>>,
    /// An attached paged posting store (the disk tier), if any: serves
    /// prefix scans for tables whose in-RAM postings were evicted
    /// ([`Database::evict_table_postings`]), but only while its segment
    /// stamp equals the live installed [`FkOrderToken`] — any mutation
    /// re-stamps the token and silently stales the segments until the
    /// next checkpoint.
    pager: Option<Arc<dyn PostingPager>>,
}

impl Default for Database {
    fn default() -> Self {
        Database {
            tables: Vec::new(),
            by_name: HashMap::new(),
            access: AccessCounter::default(),
            fk_order: None,
            epoch: Epoch::default(),
            churn_threshold: DEFAULT_CHURN_THRESHOLD,
            compaction_threshold: DEFAULT_COMPACTION_THRESHOLD,
            dangling_watch: HashMap::new(),
            pager: None,
        }
    }
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

    /// Sets the per-table churn bound, which governs link postings only:
    /// once a junction has absorbed more scored mutations than this, the
    /// next settlement rebuilds its link postings whole instead of
    /// binary-inserting pair by pair. Both strategies are byte-identical;
    /// the threshold only trades insert latency (`O(g)` memmove per pair)
    /// against a periodic `O(Σ g log g)` rebuild.
    pub fn set_churn_threshold(&mut self, threshold: usize) {
        self.churn_threshold = threshold.max(1);
    }

    /// The current churn bound.
    pub fn churn_threshold(&self) -> usize {
        self.churn_threshold
    }

    /// Sets the per-table tombstone bound, which governs link postings
    /// only: once a settlement leaves more than this many dead pairs in a
    /// junction's link postings, the settlement ends with one compaction
    /// pass (a full rebuild from the live-only FK runs) for that table.
    /// Probes are oblivious — tombstones are skipped during prefix scans
    /// and invisible to accounting — so the threshold only trades scan
    /// overhead (`O(dead)` skipped pairs worst case) against periodic
    /// `O(Σ g log g)` rebuilds. `0` compacts on every settling delete.
    pub fn set_compaction_threshold(&mut self, threshold: usize) {
        self.compaction_threshold = threshold;
    }

    /// The current tombstone bound.
    pub fn compaction_threshold(&self) -> usize {
        self.compaction_threshold
    }

    /// Registers a table; names must be unique.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<TableId> {
        if self.by_name.contains_key(&schema.name) {
            return Err(StorageError::BadSchema(format!("table `{}` already exists", schema.name)));
        }
        let id = TableId(self.tables.len() as u16);
        self.by_name.insert(schema.name.clone(), id);
        self.tables.push(Table::new(schema));
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
        let row = self.tables[id.index()].insert(values)?;
        self.epoch = self.epoch.next();
        Ok(row)
    }

    /// Rewrites the live row with primary key `pk` in place, dropping
    /// the table's installed order like [`Database::insert`] (see
    /// [`Database::update_scored_staged`] for the maintained path). The
    /// pk itself is immutable. Bumps the table's and the global epoch.
    pub fn update(&mut self, table: &str, pk: i64, values: Vec<Value>) -> Result<RowId> {
        let id = self.table_id(table)?;
        let row = self.tables[id.index()].update(pk, values)?;
        self.epoch = self.epoch.next();
        Ok(row)
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
        let row = self.tables[id.index()].delete(pk)?;
        self.epoch = self.epoch.next();
        Ok(row)
    }

    /// Finds a live row still referencing `(target, pk)` through any FK,
    /// returning the referencing table's name — the engine's RESTRICT
    /// check before a delete (a tombstoned row with live referencers
    /// would dangle their FKs).
    pub fn find_referencer(&self, target: TableId, pk: i64) -> Option<&str> {
        let target_name = &self.table(target).schema.name;
        for (_, t) in self.tables() {
            for fk in &t.schema.fks {
                if fk.ref_table == *target_name && !t.rows_where_eq(fk.column, pk).is_empty() {
                    return Some(&t.schema.name);
                }
            }
        }
        None
    }

    /// The two (source column, target column, target table) orientations
    /// of a junction table, or `None` for non-junctions.
    fn junction_orientations(&self, jid: TableId) -> Option<[(usize, usize, TableId); 2]> {
        let jt = self.table(jid);
        if !jt.schema.is_junction || jt.schema.fks.len() != 2 {
            return None;
        }
        let (a, b) = (&jt.schema.fks[0], &jt.schema.fks[1]);
        let ta = self.table_id(&a.ref_table).ok()?;
        let tb = self.table_id(&b.ref_table).ok()?;
        Some([(a.column, b.column, tb), (b.column, a.column, ta)])
    }

    /// (Re)builds both orientations' sorted link postings of a junction
    /// table from the current score snapshots. An orientation whose
    /// target snapshot is dead is left absent (heap fallback); one with a
    /// dangling target FK is left absent **and** the missing endpoint is
    /// registered in the dangling watch, so its later scored arrival
    /// heals the orientation (a junction with several missing endpoints
    /// heals progressively: each rebuild attempt registers the next one
    /// it trips over).
    fn rebuild_links_for(&mut self, jid: TableId) {
        let Some(orientations) = self.junction_orientations(jid) else { return };
        self.access.record_link_rebuild();
        let mut built: Vec<(usize, SortedLinkIndex)> = Vec::new();
        let mut dangling: Vec<(TableId, i64)> = Vec::new();
        {
            let jt = self.table(jid);
            // Each junction row's target row, resolved once per distinct
            // target key rather than once per row (`u32::MAX`: none).
            let mut resolved = Vec::new();
            for (s_col, t_col, t_table) in orientations {
                let target = self.table(t_table);
                if !target.has_installed_scores() {
                    continue;
                }
                let runs = |col| jt.fk_index_base(col).expect("junction FK columns are indexed");
                resolved.clear();
                resolved.resize(jt.len(), u32::MAX);
                for (k, jrows, ()) in runs(t_col).iter() {
                    if let Some(t) = target.by_pk(k) {
                        jrows.iter().for_each(|j| resolved[j.index()] = t.0);
                    }
                }
                let target_of = |j: RowId| match resolved[j.index()] {
                    u32::MAX => {
                        jt.value(j, t_col).as_int().map_or(LinkTarget::Null, LinkTarget::Dangling)
                    }
                    t => LinkTarget::Row(RowId(t)),
                };
                let idx =
                    SortedLinkIndex::build(runs(s_col), &target_of, target.installed_scores());
                match idx {
                    Ok(idx) => built.push((s_col, idx)),
                    Err(pk) => dangling.push((t_table, pk)),
                }
            }
        }
        self.tables[jid.index()].drop_sorted_links();
        // A rebuild sources live pairs only, paying off any tombstone debt.
        self.tables[jid.index()].reset_link_tombstones();
        for (col, idx) in built {
            self.tables[jid.index()].set_sorted_link(col, idx);
        }
        for key in dangling {
            let waiters = self.dangling_watch.entry(key).or_default();
            if !waiters.contains(&jid) {
                waiters.push(jid);
            }
        }
    }

    /// Releases the push-doubling slack of every table's columns, flags,
    /// score snapshot and FK-run and link arenas once loading has ended,
    /// and sizes every PK index for its live rows. Changes nothing
    /// observable.
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

    /// Validates that every non-NULL FK value references an existing row.
    /// Returns the number of FK values checked.
    pub fn validate_foreign_keys(&self) -> Result<usize> {
        let mut checked = 0;
        for table in &self.tables {
            for fk in &table.schema.fks {
                let target = self.table(self.table_id(&fk.ref_table)?);
                let runs = table.fk_index_base(fk.column).expect("FK columns are indexed");
                // One PK probe per distinct key; a dangling key is reported
                // as held by the first live row holding one.
                if !runs.iter().all(|(k, _, ())| target.by_pk(k).is_some()) {
                    let key = table
                        .live_rows()
                        .filter_map(|row| table.value(row, fk.column).as_int())
                        .find(|&k| target.by_pk(k).is_none())
                        .expect("a dangling key is held by a live row");
                    return Err(StorageError::DanglingForeignKey {
                        table: table.schema.name.clone(),
                        column: table.schema.columns[fk.column].name.clone(),
                        key,
                    });
                }
                checked += runs.entry_count();
            }
        }
        Ok(checked)
    }

    /// Sorts every table's FK runs by descending `score` (ties:
    /// ascending RowId), pre-joins and sorts every junction table's link
    /// postings by target score, snapshots the per-row scores (so scored
    /// inserts can maintain the order incrementally), and returns the
    /// token identifying this ordering at the current epoch. Query paths
    /// pass the token back in ([`Self::select_eq_top_l`]); a mismatch —
    /// different scores, a later re-install, or a mutation epoch the
    /// holder has not synchronized to — falls back to the heap path.
    ///
    /// `score` is called once per row slot, to take the snapshot; every
    /// run is then sorted where it lies against the snapshot — no copy,
    /// `O(Σ g log g)` comparisons of two array reads each. Installing the
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
        for (i, t) in self.tables.iter_mut().enumerate() {
            let tid = TableId(i as u16);
            t.build_sorted_fk(&|r| score(tid, r));
        }
        // A full install re-derives everything, so stale watch entries
        // (endpoints that since arrived un-scored, or re-registrations
        // below) must not accumulate across installs: start fresh and let
        // the rebuilds register exactly the currently-missing endpoints.
        self.dangling_watch.clear();
        let junctions: Vec<TableId> =
            self.tables().filter(|(_, t)| t.schema.is_junction).map(|(id, _)| id).collect();
        for jid in junctions {
            self.rebuild_links_for(jid);
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
    /// snapshot — the road back from eviction: a paged table that
    /// mutated is RAM-served again, its runs sorted and its link postings
    /// rebuilt for the next checkpoint, without recomputing scores. A full install under
    /// the hood, so it returns the fresh token; `None` when any table
    /// lacks an installed snapshot (there is no order to rebuild).
    pub fn rebuild_postings_from_installed(&mut self) -> Option<FkOrderToken> {
        let snap: Vec<Vec<f64>> = self
            .tables
            .iter()
            .map(|t| t.has_installed_scores().then(|| t.installed_scores().to_vec()))
            .collect::<Option<_>>()?;
        let score = move |t: TableId, r: RowId| snap[t.index()][r.index()];
        Some(self.install_importance_order(&score))
    }

    /// Number of missing junction-link endpoints currently watched for
    /// healing (a diagnostic: bounded by the currently-dangling
    /// references — installs prune stale entries).
    pub fn dangling_watch_len(&self) -> usize {
        self.dangling_watch.len()
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
        let db = tiny_db();
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
        let db = tiny_db();
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
        assert_eq!(pks, vec![11, 12, 10], "new row binary-inserted by score");
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
        // A junction row whose target pk does not (yet) exist must not be
        // silently absent from the sorted link postings while the heap
        // path resolves it live after the target arrives — the orientation
        // is dropped instead, and the missing endpoint is *watched*: its
        // later scored arrival repairs the postings without waiting for
        // the next full install. FK validation is a separate step, so the
        // storage layer has to tolerate this on its own.
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
        db.insert("P", vec![Value::Int(1)]).unwrap();
        db.insert("C", vec![Value::Int(10)]).unwrap();
        db.insert("J", vec![Value::Int(100), Value::Int(1), Value::Int(10)]).unwrap();
        db.install_importance_order(&|_, _| 1.0);
        let j = db.table_id("J").unwrap();
        let (p_col, c_col) = (1, 2);
        assert!(db.table(j).sorted_link_index(p_col).is_some());
        // Scored insert referencing child pk 99, which does not exist.
        batch_of_one(&mut db, |db, b| {
            db.insert_scored_staged(
                b,
                "J",
                vec![Value::Int(101), Value::Int(1), Value::Int(99)],
                0.5,
            )
        })
        .unwrap();
        assert!(
            db.table(j).sorted_link_index(p_col).is_none()
                && db.table(j).sorted_link_index(c_col).is_none(),
            "a dangling target must drop the link postings, not skip the pair"
        );
        // The late-arriving endpoint heals the orientation on the spot —
        // no reinstall needed — and the token is re-stamped at the heal's
        // epoch so synchronized contexts go straight back to prefix scans.
        batch_of_one(&mut db, |db, b| db.insert_scored_staged(b, "C", vec![Value::Int(99)], 2.0))
            .unwrap();
        let links = db.table(j).sorted_link_index(p_col).expect("healed once resolvable");
        assert_eq!(links.pairs(1).len(), 2, "both junction rows pre-joined after the heal");
        assert_eq!(db.fk_order().unwrap().epoch(), db.epoch(), "heal re-stamps the token");
        // The healed postings are exactly what a reinstall under the same
        // (maintained) scores would build.
        let healed: Vec<_> = links.pairs(1).to_vec();
        let snap: Vec<Vec<f64>> = db
            .tables()
            .map(|(_, t)| t.iter().map(|(r, _)| t.installed_score(r)).collect())
            .collect();
        db.install_importance_order(&|t, r| snap[t.index()][r.index()]);
        assert_eq!(db.table(j).sorted_link_index(p_col).unwrap().pairs(1), healed.as_slice());
        // Install pruned the watch: nothing dangles after the heal.
        assert_eq!(db.dangling_watch_len(), 0, "installs prune stale watch entries");

        // A junction loaded with a dangling row *before* install gets no
        // postings either (build-time poisoning) — but the install
        // registers the missing endpoint, so even this case heals when
        // the endpoint arrives through a scored insert.
        let mut db2 = Database::new();
        db2.create_table(TableSchema::builder("P").pk("id").build().unwrap()).unwrap();
        db2.create_table(TableSchema::builder("C").pk("id").build().unwrap()).unwrap();
        db2.create_table(
            TableSchema::builder("J")
                .pk("id")
                .fk("p_id", "P")
                .fk("c_id", "C")
                .junction()
                .build()
                .unwrap(),
        )
        .unwrap();
        db2.insert("P", vec![Value::Int(1)]).unwrap();
        db2.insert("J", vec![Value::Int(100), Value::Int(1), Value::Int(99)]).unwrap();
        db2.install_importance_order(&|_, _| 1.0);
        let j2 = db2.table_id("J").unwrap();
        assert!(db2.table(j2).sorted_link_index(p_col).is_none());
        assert_eq!(db2.dangling_watch_len(), 1, "install watches the missing endpoint");
        batch_of_one(&mut db2, |db, b| db.insert_scored_staged(b, "C", vec![Value::Int(99)], 1.0))
            .unwrap();
        assert!(
            db2.table(j2).sorted_link_index(p_col).is_some(),
            "build-time poisoning heals too once the endpoint arrives scored"
        );
        assert_eq!(db2.dangling_watch_len(), 0);
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
        assert_eq!(b.staged().len(), rows.len());
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
        // Regression: with a pre-existing watch on endpoint (C, 99), a
        // batch staging [C(99), J(102 -> C 99)] used to fire the heal
        // mid-settlement — the rebuild (reading full current state)
        // already included J(102), whose pair the settle loop then
        // binary-inserted *again*. Heals are now deferred past the settle
        // loop; both paths must end identical to the fold and to a
        // from-scratch install.
        let build = || {
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
            db.insert("P", vec![Value::Int(1)]).unwrap();
            db.insert("C", vec![Value::Int(10)]).unwrap();
            db.insert("J", vec![Value::Int(100), Value::Int(1), Value::Int(10)]).unwrap();
            db.install_importance_order(&|_, _| 1.0);
            // The watch: a scored junction insert referencing missing C 99.
            batch_of_one(&mut db, |db, b| {
                db.insert_scored_staged(
                    b,
                    "J",
                    vec![Value::Int(101), Value::Int(1), Value::Int(99)],
                    0.5,
                )
            })
            .unwrap();
            assert_eq!(db.dangling_watch_len(), 1);
            db
        };
        let (p_col, c_col) = (1usize, 2usize);

        let mut batched = build();
        let mut b = batched.begin_scored_batch();
        batched.insert_scored_staged(&mut b, "C", vec![Value::Int(99)], 2.0).unwrap();
        batched
            .insert_scored_staged(
                &mut b,
                "J",
                vec![Value::Int(102), Value::Int(1), Value::Int(99)],
                0.25,
            )
            .unwrap();
        batched.finish_scored_batch(b);

        let mut folded = build();
        batch_of_one(&mut folded, |db, b| {
            db.insert_scored_staged(b, "C", vec![Value::Int(99)], 2.0)
        })
        .unwrap();
        batch_of_one(&mut folded, |db, b| {
            db.insert_scored_staged(
                b,
                "J",
                vec![Value::Int(102), Value::Int(1), Value::Int(99)],
                0.25,
            )
        })
        .unwrap();

        let j = batched.table_id("J").unwrap();
        for col in [p_col, c_col] {
            let a = batched.table(j).sorted_link_index(col).expect("healed");
            let f = folded.table(j).sorted_link_index(col).expect("healed");
            for key in [1i64, 10, 99] {
                assert_eq!(a.pairs(key), f.pairs(key), "col {col} key {key}");
                assert_eq!(a.raw_group_len(key), f.raw_group_len(key));
            }
        }
        // Each junction row appears exactly once per orientation.
        let pairs = batched.table(j).sorted_link_index(p_col).unwrap().pairs(1);
        let mut seen: Vec<RowId> = pairs.iter().map(|&(jr, _)| jr).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), pairs.len(), "no duplicated pairs: {pairs:?}");
        assert_eq!(pairs.len(), 3, "all three junction rows pre-joined");
        assert_eq!(batched.dangling_watch_len(), 0);
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
        // Threshold 2 with 8 staged rows: the fold re-sorts repeatedly
        // mid-stream; the batch settles with exactly one re-sort pass and
        // zero binary inserts for that table.
        let (mut batched, mut folded) = installed_pair();
        batched.set_churn_threshold(2);
        folded.set_churn_threshold(2);
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
        assert_eq!(batch_work.binary_inserts, 0, "re-sorting tables skip binary insertion");

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
        assert!(
            fold_work.posting_resorts > 1,
            "the fold re-sorts mid-stream at this threshold: {fold_work:?}"
        );
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
        db.set_compaction_threshold(0);
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
        // skip, nothing to compact, whatever the threshold.
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
        assert_eq!(db.access().maint().since(maint).compactions, 0, "no FK compaction");
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
        // And both equal a fresh install over the surviving rows, after
        // filtering tombstones.
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
        // The dangling watch run in reverse: a *delete* creates the
        // missing endpoint instead of a not-yet-inserted reference.
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
        db.insert("P", vec![Value::Int(1)]).unwrap();
        db.insert("C", vec![Value::Int(10)]).unwrap();
        db.insert("C", vec![Value::Int(11)]).unwrap();
        db.insert("J", vec![Value::Int(100), Value::Int(1), Value::Int(10)]).unwrap();
        db.insert("J", vec![Value::Int(101), Value::Int(1), Value::Int(11)]).unwrap();
        db.install_importance_order(&|_, _| 1.0);
        let j = db.table_id("J").unwrap();
        let p_col = 1usize;
        assert_eq!(db.table(j).sorted_link_index(p_col).unwrap().pairs(1).len(), 2);
        // Deleting C 10 leaves J 100 dangling: the rebuild trips over the
        // dead target, drops the orientation, and watches the endpoint.
        batch_of_one(&mut db, |db, b| db.delete_scored_staged(b, "C", 10)).unwrap();
        assert!(db.table(j).sorted_link_index(p_col).is_none(), "stale orientation dropped");
        assert_eq!(db.dangling_watch_len(), 1, "dead endpoint watched");
        // The heap fallback still serves correct (live-target) results in
        // the meantime; re-inserting the pk heals the fast path.
        batch_of_one(&mut db, |db, b| db.insert_scored_staged(b, "C", vec![Value::Int(10)], 2.0))
            .unwrap();
        let links = db.table(j).sorted_link_index(p_col).expect("healed");
        assert_eq!(links.pairs(1).len(), 2, "both pairs re-joined to the new row");
        assert_eq!(db.dangling_watch_len(), 0);
        // The healed pair targets the *new* RowId of pk 10.
        let new_row = db.table(db.table_id("C").unwrap()).by_pk(10).unwrap();
        assert!(links.pairs(1).iter().any(|&(_, t)| t == new_row));
        // An update of a link target re-sorts the pairs by the new score.
        batch_of_one(&mut db, |db, b| {
            db.update_scored_staged(b, "C", 11, vec![Value::Int(11)], 9.0)
        })
        .unwrap();
        let links = db.table(j).sorted_link_index(p_col).expect("rebuilt, not dropped");
        assert_eq!(links.pairs(1)[0].0, RowId(1), "J 101's target now outranks");
    }

    #[test]
    fn junction_own_mutations_tombstone_and_compact_without_wholesale_rebuilds() {
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
        db.set_compaction_threshold(2);
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

        // A junction-own delete leaves a tombstoned pair per orientation
        // (no wholesale rebuild): raw length drops, the pair stays.
        batch_of_one(&mut db, |db, b| db.delete_scored_staged(b, "J", 101)).unwrap();
        let links = db.table(j).sorted_link_index(p_col).expect("orientation kept");
        assert_eq!(links.raw_group_len(1), 2, "raw length tracks the live group");
        assert_eq!(links.pairs(1).len(), 3, "the dead pair lingers as a tombstone");
        assert_eq!(db.table(j).link_tombstones(), 2, "one tombstone per orientation");
        assert!(!db.table(j).is_live(RowId(1)), "J 101 occupied the second slot");
        assert!(links.pairs(1).iter().any(|&(jr, _)| jr == RowId(1)));

        // A junction-own update physically re-homes the pair under the
        // new source key — no tombstone, identical to a fresh build.
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
        let links = db.table(j).sorted_link_index(p_col).expect("orientation kept");
        assert_eq!(links.raw_group_len(1), 1);
        assert_eq!(links.raw_group_len(2), 1);
        assert_eq!(links.pairs(2).len(), 1, "re-homed under the new key");
        assert!(links.pairs(1).iter().all(|&(jr, _)| jr != RowId(2)), "old-key pair removed");

        // Crossing the threshold compacts: tombstones purge wholesale.
        // (This delete adds one tombstone — its p-side group empties and
        // drops its key outright, which costs no debt.)
        batch_of_one(&mut db, |db, b| db.delete_scored_staged(b, "J", 102)).unwrap();
        assert_eq!(db.table(j).link_tombstones(), 0, "debt crossed 2: compacted");
        let links = db.table(j).sorted_link_index(p_col).expect("rebuilt");
        assert_eq!(links.pairs(1).len(), 1, "only the live pair survives");
        // An emptied raw group drops its key outright (rebuild indexes
        // only non-empty live groups).
        assert_eq!(links.pairs(2).len(), 0);
        assert_eq!(links.key_count(), 1);

        // The maintained postings equal a from-scratch install over the
        // same live rows (both replicas lay out identical RowId slots, so
        // the slot-indexed score function transfers).
        let mut fresh = Database::new();
        for (_, t) in db.tables() {
            fresh.create_table(t.schema.clone()).unwrap();
        }
        fresh.insert("P", vec![Value::Int(1)]).unwrap();
        fresh.insert("P", vec![Value::Int(2)]).unwrap();
        fresh.insert("C", vec![Value::Int(10)]).unwrap();
        fresh.insert("J", vec![Value::Int(100), Value::Int(1), Value::Int(10)]).unwrap();
        fresh.insert("J", vec![Value::Int(777), Value::Int(2), Value::Int(10)]).unwrap();
        fresh.delete("J", 777).unwrap();
        fresh.install_importance_order(&|_, r| 1.0 + r.index() as f64);
        let a = db.table(j).sorted_link_index(p_col).unwrap();
        let b = fresh.table(fresh.table_id("J").unwrap()).sorted_link_index(p_col).unwrap();
        assert_eq!(a.pairs(1), b.pairs(1));
        assert_eq!(a.key_count(), b.key_count());
    }

    #[test]
    fn junction_row_updates_match_a_fresh_install_in_every_target_state() {
        // J 101 moves to every combination of source/target state — kept,
        // re-homed, NULL, dangling — and the maintained link postings must
        // equal what a from-scratch install over the same slots builds.
        // A dangling target drops the links and heals on arrival.
        let build = |j101: [Value; 2]| {
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
        let assert_same_links = |a: &Database, b: &Database, what: &str| {
            let j = a.table_id("J").unwrap();
            for col in [1usize, 2] {
                let (x, y) = (a.table(j).sorted_link_index(col), b.table(j).sorted_link_index(col));
                let (Some(x), Some(y)) = (x, y) else {
                    panic!("{what}: orientation {col} present {} vs {}", x.is_some(), y.is_some());
                };
                assert_eq!(x.key_count(), y.key_count(), "{what}: col {col} keys");
                for key in [1i64, 2, 10, 11, 99] {
                    assert_eq!(x.pairs(key), y.pairs(key), "{what}: col {col} key {key}");
                    assert_eq!(x.raw_group_len(key), y.raw_group_len(key), "{what}: raw {key}");
                }
            }
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
                let dangling = c == Value::Int(99) && p != Value::Null;
                let mut fresh = build([p.clone(), c.clone()]);
                if dangling {
                    let j = live.table_id("J").unwrap();
                    assert!(live.table(j).sorted_link_index(1).is_none(), "{what}: dropped");
                    assert_eq!(live.dangling_watch_len(), 1, "{what}: endpoint watched");
                    batch_of_one(&mut live, |db, b| {
                        db.insert_scored_staged(b, "C", vec![Value::Int(99)], 3.0)
                    })
                    .unwrap();
                    fresh.insert("C", vec![Value::Int(99)]).unwrap();
                }
                fresh.install_importance_order(&score);
                assert_same_links(&live, &fresh, &what);
            }
        }
    }

    #[test]
    fn churn_threshold_triggers_batched_resort() {
        let mut db = tiny_db();
        db.set_churn_threshold(2);
        let snapshot: Vec<Vec<f64>> =
            db.tables().map(|(_, t)| t.iter().map(|_| 1.0).collect()).collect();
        db.install_importance_order(&|t, r| snapshot[t.index()][r.index()]);
        let paper = db.table_id("Paper").unwrap();
        let fk_col = db.table(paper).schema.column_index("year_id").unwrap();
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
        // 6 scored inserts with threshold 2: at least one batched re-sort
        // happened, so the churn counter wrapped below the insert count.
        assert!(db.table(paper).churn() <= 2, "re-sort resets the churn counter");
        // The postings are still exactly the install-from-scratch order.
        let li = |r: RowId| db.table(paper).installed_score(r);
        let token = db.fk_order().unwrap();
        let fast = db.select_eq_top_l(paper, fk_col, 1, 10, 0.0, Some(token), &li);
        let slow = db.select_eq_top_l(paper, fk_col, 1, 10, 0.0, None, &li);
        assert_eq!(fast, slow);
        assert_eq!(fast.len(), 8);
    }
}
