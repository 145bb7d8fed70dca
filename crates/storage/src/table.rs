//! Tables: typed column storage, a slot index on the PK, and the runs of
//! every FK column — key → its live rows, one run of one arena each
//! ([`Runs`]). A column's runs are its FK groups and, once an importance
//! order is installed, its sorted FK postings too: each row id is stored
//! once, in one run, in posting order while the order holds.

use std::cell::OnceCell;
use std::ops::Index;

use crate::column::Column;
use crate::epoch::Epoch;
use crate::error::StorageError;
use crate::fk_index::{SortedFkIndex, SortedLinkIndex, SortedPostings};
use crate::hash::PkSlots;
use crate::runs::Runs;
use crate::schema::TableSchema;
use crate::value::{Value, ValueRef};
use crate::Result;

/// A row identifier within one table (dense, insertion-ordered).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u32);

impl RowId {
    /// The row index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One live row as [`Table::iter`] yields it: `row[col]` is the cell's
/// [`ValueRef`]. Indexing must return a reference, so the first index
/// gathers the row's views into a vector; a caller that only wants the
/// `RowId` (or [`RowRef::iter`]) allocates nothing.
pub struct RowRef<'a> {
    table: &'a Table,
    id: RowId,
    cells: OnceCell<Vec<ValueRef<'a>>>,
}

impl<'a> RowRef<'a> {
    /// The row's cells in column order.
    pub fn iter(&self) -> impl Iterator<Item = ValueRef<'a>> {
        let (table, id) = (self.table, self.id);
        (0..table.schema.arity()).map(move |c| table.value(id, c))
    }
}

/// Two rows are equal when their cells are, whichever tables hold them.
impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> Index<usize> for RowRef<'a> {
    type Output = ValueRef<'a>;

    fn index(&self, col: usize) -> &ValueRef<'a> {
        &self.cells.get_or_init(|| self.iter().collect())[col]
    }
}

/// One optional index per column: arity entries, addressed by column
/// index.
type Slots<T> = Vec<Option<T>>;

/// Reads a row's primary key back from the PK column (the PK index keeps
/// row ids only).
fn pk_at(pk_column: &Column) -> impl Fn(u32) -> i64 + '_ {
    |row| pk_column.get(row as usize).as_int().expect("primary keys are validated on insert")
}

/// A table: schema, columns, and indexes.
///
/// Indexes are maintained incrementally on insert:
/// * a unique slot index on the primary key,
/// * the runs of every foreign-key column (these serve the
///   `WHERE tj.ID = Ri.ID` joins of Algorithms 4 and 5).
#[derive(Debug)]
pub struct Table {
    /// The table's schema.
    pub schema: TableSchema,
    /// One typed column per schema column, each one cell per row slot.
    columns: Vec<Column>,
    /// Liveness flags, one per row slot (their count *is* the slot
    /// count). Deletes are *logical*: the row slot (and its `RowId`)
    /// survives so every derived structure keyed by dense row ids —
    /// installed scores, data-graph node ids — stays valid. Dead rows
    /// are invisible to `iter`, the FK runs, and `by_pk`; they linger
    /// only as tombstones in the link postings until compaction.
    dead: Vec<bool>,
    /// Number of `true` bits in `dead`.
    n_dead: usize,
    /// Dead junction pairs still present in the sorted link postings
    /// (junction tables only): deleted junction rows leave their pairs
    /// behind as tombstones, skipped by consumers via dual-endpoint
    /// liveness checks. Reset by every full link (re)build.
    link_tombstones: usize,
    pk_index: PkSlots,
    /// On FK columns: key -> its live rows. In posting order while
    /// [`Self::sorted_fk_index`] answers, otherwise in no set order
    /// (insertion order until the first install).
    fk_runs: Slots<SortedFkIndex>,
    /// On *source* FK columns: importance-sorted junction link postings
    /// (junction tables only).
    sorted_links: Slots<SortedLinkIndex>,
    /// Per-row installed importance snapshot (one per row slot; empty
    /// when no order is installed or the snapshot was killed by an
    /// un-scored insert). Scored inserts append to it; the runs and link
    /// postings are sorted by it.
    installed_scores: Vec<f64>,
    /// True while `installed_scores` covers every row slot (set by
    /// [`Table::build_sorted_fk`], cleared by the un-scored insert).
    scores_live: bool,
    /// Set while an open scored batch has touched the table: the runs
    /// its staged rows were appended to or re-scored in, out of order
    /// until `settle_staging` re-sorts them. Meanwhile the table reports
    /// no sorted index, so probes — also those of a batch abandoned
    /// without settlement — heap-fall-back.
    staging: Option<Vec<(usize, i64)>>,
    /// Set by the paged tier's eviction: prefix scans route to the
    /// attached pager instead of the runs until the next install.
    paged: bool,
    /// Mutation epoch of this table (bumped on every insert).
    epoch: Epoch,
    /// Scored mutations absorbed since the link postings were last built
    /// whole. Above the database's churn threshold a settlement rebuilds
    /// them instead of maintaining them pair by pair.
    churn: usize,
}

impl Table {
    /// Creates an empty table for the schema.
    pub fn new(schema: TableSchema) -> Self {
        let arity = schema.arity();
        let mut fk_runs = vec![None; arity];
        for fk in &schema.fks {
            fk_runs[fk.column] = Some(SortedPostings { runs: Runs::default() });
        }
        Table {
            columns: schema.columns.iter().map(|c| Column::new(c.ty)).collect(),
            schema,
            dead: Vec::new(),
            n_dead: 0,
            link_tombstones: 0,
            pk_index: PkSlots::default(),
            fk_runs,
            sorted_links: vec![None; arity],
            installed_scores: Vec::new(),
            scores_live: false,
            staging: None,
            paged: false,
            epoch: Epoch::default(),
            churn: 0,
        }
    }

    /// Number of row *slots*, dead ones included. Derived structures
    /// indexed by dense `RowId` (installed scores, data-graph node ids)
    /// are sized by this.
    pub fn len(&self) -> usize {
        self.dead.len()
    }

    /// Number of live rows.
    pub fn live_len(&self) -> usize {
        self.dead.len() - self.n_dead
    }

    /// Number of tombstoned (logically deleted) row slots.
    pub fn n_dead(&self) -> usize {
        self.n_dead
    }

    /// True when the row slot has not been deleted.
    pub fn is_live(&self, id: RowId) -> bool {
        !self.dead[id.index()]
    }

    /// True when the table has no row slots.
    pub fn is_empty(&self) -> bool {
        self.dead.is_empty()
    }

    /// Inserts a row, validating arity, types, and PK uniqueness.
    /// FK existence is validated at the database level (see
    /// [`crate::Database::validate_foreign_keys`]), since it needs the
    /// catalog.
    ///
    /// This is the *un-scored* path: it carries no importance for the new
    /// row, so the installed order (and the score snapshot that places
    /// rows in it) is dropped and the heap path takes over for this
    /// table. Use [`crate::Database::insert_scored_staged`] to keep the
    /// prefix-scan fast path live across inserts.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<RowId> {
        let id = self.insert_validated(values)?;
        // The order was placed under a per-row score snapshot; a row
        // without a score cannot join it, so both die together —
        // including an open scored batch's staging.
        self.drop_derived_state();
        self.epoch = self.epoch.next();
        Ok(id)
    }

    /// The validate-and-append core of both insert paths: checks
    /// arity, types, and PK uniqueness, maintains the PK index, appends
    /// the row at the tail of its FK runs, and appends its cells. Does not
    /// touch the link postings or the epoch.
    pub(crate) fn insert_validated(&mut self, values: Vec<Value>) -> Result<RowId> {
        self.check_shape(&values)?;
        let pk = values[self.schema.pk]
            .as_int()
            .ok_or_else(|| StorageError::BadPrimaryKey { table: self.schema.name.clone() })?;
        let id = RowId(self.dead.len() as u32);
        if !self.pk_index.insert(pk, id.0, pk_at(&self.columns[self.schema.pk])) {
            return Err(StorageError::DuplicateKey { table: self.schema.name.clone(), key: pk });
        }
        for (runs, v) in self.fk_runs.iter_mut().zip(&values) {
            if let (Some(runs), Some(k)) = (runs, v.as_int()) {
                runs.push(k, id);
            }
        }
        // Every check is behind us: all columns grow together.
        for (column, v) in self.columns.iter_mut().zip(values) {
            column.push(v);
        }
        self.dead.push(false);
        Ok(id)
    }

    /// Arity and per-column type check of a candidate row.
    fn check_shape(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.schema.arity() {
            return Err(StorageError::Arity {
                table: self.schema.name.clone(),
                expected: self.schema.arity(),
                got: values.len(),
            });
        }
        for (v, c) in values.iter().zip(&self.schema.columns) {
            if !v.matches(c.ty) {
                return Err(StorageError::TypeMismatch {
                    table: self.schema.name.clone(),
                    column: c.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// The shared tombstone core of both delete paths: resolves the pk to
    /// a live row, removes it from the PK index and from its FK runs where
    /// it lies (the runs stay in order), and marks the slot dead. Does not
    /// touch the link postings or the epoch.
    pub(crate) fn delete_validated(&mut self, pk: i64) -> Result<RowId> {
        let id =
            self.pk_index.remove(pk, pk_at(&self.columns[self.schema.pk])).map(RowId).ok_or_else(
                || StorageError::MissingRow { table: self.schema.name.clone(), key: pk },
            )?;
        for (runs, column) in self.fk_runs.iter_mut().zip(&self.columns) {
            if let (Some(runs), Some(k)) = (runs, column.get(id.index()).as_int()) {
                runs.remove_ident(k, id);
            }
        }
        self.dead[id.index()] = true;
        self.n_dead += 1;
        Ok(id)
    }

    /// The shared in-place-rewrite core of both update paths: validates
    /// arity/types, requires the pk to stay put, and moves the row to the
    /// tail of the new key's run on any FK column whose key changed. Does
    /// not touch the link postings or the epoch.
    pub(crate) fn update_validated(&mut self, pk: i64, values: Vec<Value>) -> Result<RowId> {
        self.check_shape(&values)?;
        let id = self
            .by_pk(pk)
            .ok_or_else(|| StorageError::MissingRow { table: self.schema.name.clone(), key: pk })?;
        if values[self.schema.pk].as_int() != Some(pk) {
            return Err(StorageError::ImmutablePrimaryKey {
                table: self.schema.name.clone(),
                key: pk,
            });
        }
        for ((runs, column), v) in self.fk_runs.iter_mut().zip(&self.columns).zip(&values) {
            let Some(runs) = runs else { continue };
            let old = column.get(id.index()).as_int();
            let new = v.as_int();
            if old != new {
                if let Some(k) = old {
                    runs.remove_ident(k, id);
                }
                if let Some(k) = new {
                    runs.push(k, id);
                }
            }
        }
        for (column, v) in self.columns.iter_mut().zip(values) {
            column.set(id.index(), v);
        }
        Ok(id)
    }

    /// Deletes the live row with primary key `pk`.
    ///
    /// Like [`Table::insert`], this is the *un-scored* path: the installed
    /// order and the score snapshot are dropped and the heap path takes
    /// over. Use [`crate::Database::delete_scored_staged`] to keep the
    /// fast path live.
    pub fn delete(&mut self, pk: i64) -> Result<RowId> {
        let id = self.delete_validated(pk)?;
        self.drop_derived_state();
        self.epoch = self.epoch.next();
        Ok(id)
    }

    /// Rewrites the live row with primary key `pk` in place (the pk itself
    /// is immutable). Un-scored path — see [`Table::delete`].
    pub fn update(&mut self, pk: i64, values: Vec<Value>) -> Result<RowId> {
        let id = self.update_validated(pk, values)?;
        self.drop_derived_state();
        self.epoch = self.epoch.next();
        Ok(id)
    }

    /// Drops everything derived from the importance order (the un-scored
    /// mutation paths' common tail).
    fn drop_derived_state(&mut self) {
        self.sorted_links.fill(None);
        self.staging = None;
        self.installed_scores.clear();
        self.scores_live = false;
        self.link_tombstones = 0;
    }

    /// Routes the table's prefix scans to the attached pager and drops its
    /// in-RAM link postings (the disk tier's residency policy: a paged
    /// table serves prefix scans from segments instead). The runs and the
    /// score snapshot stay, so staged mutations and the heap path keep
    /// working; the next install makes the table RAM-served again.
    pub(crate) fn evict_sorted_postings(&mut self) {
        self.paged = true;
        self.sorted_links.fill(None);
        self.link_tombstones = 0;
    }

    /// The staged tail of a scored mutation of `id`, after its validated
    /// core: an insert's or update's `score` goes into the snapshot and
    /// the `runs` it sits in await the settlement's re-sort
    /// ([`Self::settle_staging`]); a delete passes neither. Requires a
    /// live snapshot and an open batch. Bumps the epoch and the churn.
    pub(crate) fn staged(&mut self, id: RowId, score: Option<f64>, runs: &[(usize, i64)]) {
        debug_assert!(self.has_installed_scores(), "caller checks the snapshot is live");
        if let Some(score) = score {
            self.installed_scores.resize(self.dead.len(), score);
            self.installed_scores[id.index()] = score;
        }
        if let Some(unsorted) = &mut self.staging {
            unsorted.extend_from_slice(runs);
        }
        self.epoch = self.epoch.next();
        self.churn += 1;
    }

    /// The FK-column keys of a row: the runs it sits in — captured by the
    /// batch machinery *before* a staged update rewrites the row, so
    /// settlement can find its old link pairs.
    pub(crate) fn fk_keys_of(&self, id: RowId) -> Vec<(usize, i64)> {
        (0..self.columns.len())
            .filter(|&col| self.fk_runs[col].is_some())
            .filter_map(|col| self.value(id, col).as_int().map(|k| (col, k)))
            .collect()
    }

    /// Records dead pairs left behind in the sorted link postings (the
    /// settlement of junction-row deletes). The database rebuilds the
    /// junction's links once the debt crosses its compaction threshold.
    pub(crate) fn add_link_tombstones(&mut self, n: usize) {
        self.link_tombstones += n;
    }

    /// Dead pairs currently lingering in the sorted link postings.
    pub fn link_tombstones(&self) -> usize {
        self.link_tombstones
    }

    /// Pays off the link-tombstone debt (a full link rebuild sources live
    /// pairs only).
    pub(crate) fn reset_link_tombstones(&mut self) {
        self.link_tombstones = 0;
    }

    /// An owned copy of the row with the given id (dead slots keep their
    /// values). Panics on out-of-range ids (they can only be produced by
    /// this table).
    pub fn row(&self, id: RowId) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(id.index()).to_value()).collect()
    }

    /// A single value of a row.
    pub fn value(&self, id: RowId, col: usize) -> ValueRef<'_> {
        self.columns[col].get(id.index())
    }

    /// The primary-key value of a row.
    pub fn pk_of(&self, id: RowId) -> i64 {
        self.value(id, self.schema.pk).as_int().expect("primary keys are validated on insert")
    }

    /// Point lookup by primary key.
    pub fn by_pk(&self, key: i64) -> Option<RowId> {
        self.pk_index.get(key, pk_at(&self.columns[self.schema.pk])).map(RowId)
    }

    /// Live rows whose FK column `col` equals `key`: in posting order
    /// while [`Self::sorted_fk_index`] answers for `col` (the very slice
    /// its `rows(key)` returns), otherwise in no set order — insertion
    /// order until the first install. Calling this on a non-indexed
    /// column is a logic error.
    pub fn rows_where_eq(&self, col: usize, key: i64) -> &[RowId] {
        match self.fk_runs.get(col) {
            Some(Some(runs)) => runs.rows(key),
            _ => panic!(
                "column {} of `{}` is not FK-indexed",
                self.schema.columns[col].name, self.schema.name
            ),
        }
    }

    /// True when `col` carries an FK index.
    pub fn is_indexed(&self, col: usize) -> bool {
        self.fk_index_base(col).is_some()
    }

    /// The FK runs of a column, if any — the input the link postings are
    /// built from.
    pub(crate) fn fk_index_base(&self, col: usize) -> Option<&Runs<RowId>> {
        Some(&self.fk_runs.get(col)?.as_ref()?.runs)
    }

    /// Snapshots every row slot's `score` and sorts every FK run where it
    /// lies by it (called by
    /// [`crate::Database::install_importance_order`]), which makes the
    /// table RAM-served again and ends any staging.
    pub(crate) fn build_sorted_fk(&mut self, score: &dyn Fn(RowId) -> f64) {
        self.installed_scores = (0..self.dead.len()).map(|i| score(RowId(i as u32))).collect();
        self.scores_live = true;
        self.staging = None;
        self.paged = false;
        for runs in self.fk_runs.iter_mut().flatten() {
            runs.sort(&self.installed_scores);
        }
    }

    /// The importance-sorted runs of `col`: `Some` while an order is
    /// installed, no plain mutation has dropped it, no open scored batch
    /// has appended to the runs and the paged tier has not evicted the
    /// table.
    pub fn sorted_fk_index(&self, col: usize) -> Option<&SortedFkIndex> {
        let sorted = self.scores_live && self.staging.is_none() && !self.paged;
        self.fk_runs.get(col)?.as_ref().filter(|_| sorted)
    }

    /// The importance-sorted junction link postings whose *source* FK is
    /// `col` (junction tables under a live installed order, outside an
    /// open scored batch, only).
    pub fn sorted_link_index(&self, col: usize) -> Option<&SortedLinkIndex> {
        self.sorted_links.get(col)?.as_ref().filter(|_| self.staging.is_none())
    }

    /// Every sorted FK index — `(column, index)` — for segment writers
    /// snapshotting this table's postings to disk.
    pub fn sorted_fk_indexes(&self) -> impl Iterator<Item = (usize, &SortedFkIndex)> {
        (0..self.fk_runs.len()).filter_map(|col| Some((col, self.sorted_fk_index(col)?)))
    }

    /// Every installed sorted link index — `(source column, index)`.
    pub fn sorted_link_indexes(&self) -> impl Iterator<Item = (usize, &SortedLinkIndex)> {
        (0..self.sorted_links.len()).filter_map(|col| Some((col, self.sorted_link_index(col)?)))
    }

    /// Opens staging for a scored batch (see the `staging` field docs).
    /// Idempotent within a batch.
    pub(crate) fn begin_staging(&mut self) {
        self.staging.get_or_insert_with(Vec::new);
    }

    /// Settles staging: re-sorts exactly the runs staged rows were
    /// appended to or re-scored in, against the snapshot their staged
    /// scores went into. Returns whether it sorted a run (a no-op when nothing is
    /// staged — e.g. an un-scored mutation dropped the order mid-batch).
    pub(crate) fn settle_staging(&mut self) -> bool {
        let Some(mut unsorted) = self.staging.take() else { return false };
        unsorted.sort_unstable();
        unsorted.dedup();
        for &(col, key) in &unsorted {
            if let Some(runs) = &mut self.fk_runs[col] {
                runs.sort_run(key, &self.installed_scores);
            }
        }
        !unsorted.is_empty()
    }

    pub(crate) fn set_sorted_link(&mut self, col: usize, index: SortedLinkIndex) {
        self.sorted_links[col] = Some(index);
    }

    pub(crate) fn take_sorted_link(&mut self, col: usize) -> Option<SortedLinkIndex> {
        self.sorted_links[col].take()
    }

    pub(crate) fn drop_sorted_links(&mut self) {
        self.sorted_links.fill(None);
    }

    /// True when the per-row installed-score snapshot covers every row
    /// (i.e. an order is installed and no un-scored insert killed it).
    pub fn has_installed_scores(&self) -> bool {
        self.scores_live
    }

    /// The installed importance of a row (panics without a live snapshot).
    pub fn installed_score(&self, id: RowId) -> f64 {
        self.installed_scores[id.index()]
    }

    pub(crate) fn installed_scores(&self) -> &[f64] {
        &self.installed_scores
    }

    /// This table's mutation epoch (bumped on every insert).
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Scored mutations absorbed since the link postings were last built
    /// whole.
    pub fn churn(&self) -> usize {
        self.churn
    }

    /// Zeroes the churn counter (the links were just built whole).
    pub(crate) fn reset_churn(&mut self) {
        self.churn = 0;
    }

    /// The ids of the live rows in insertion order (tombstoned slots are
    /// skipped).
    pub fn live_rows(&self) -> impl Iterator<Item = RowId> + '_ {
        self.dead.iter().enumerate().filter(|&(_, &dead)| !dead).map(|(i, _)| RowId(i as u32))
    }

    /// Iterates over live `(RowId, row)` in insertion order. Scans that
    /// read one cell use [`Self::live_rows`] and [`Self::value`] instead
    /// (see [`RowRef`]).
    pub fn iter(&self) -> impl Iterator<Item = (RowId, RowRef<'_>)> {
        self.live_rows().map(|id| (id, RowRef { table: self, id, cells: OnceCell::new() }))
    }

    /// Releases the push-doubling slack of everything sized by the slot
    /// count — the columns, the liveness flags and the score snapshot —
    /// repacks every FK-run and link arena at exact size, and sizes the
    /// PK index for the live rows.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.columns.iter_mut().for_each(Column::shrink_to_fit);
        self.dead.shrink_to_fit();
        self.installed_scores.shrink_to_fit();
        self.pk_index.shrink_to_fit(pk_at(&self.columns[self.schema.pk]));
        self.fk_runs.iter_mut().flatten().for_each(|idx| idx.runs.shrink_to_fit());
        self.sorted_links.iter_mut().flatten().for_each(|idx| idx.runs.shrink_to_fit());
    }

    /// Bytes the stored cells occupy: every column at its vector
    /// capacity, plus the bytes of its texts.
    pub fn value_bytes(&self) -> usize {
        self.columns.iter().map(Column::value_bytes).sum()
    }

    /// Heap bytes of this table's indexes by structure, from their
    /// capacities: the PK slots, the FK runs, the resident link
    /// postings, and the score snapshot both are sorted by.
    pub fn index_bytes(&self) -> [(&'static str, usize); 4] {
        [
            ("PK slots", self.pk_index.heap_bytes()),
            ("FK runs", self.fk_runs.iter().flatten().map(|idx| idx.runs.heap_bytes()).sum()),
            ("links", self.sorted_links.iter().flatten().map(|idx| idx.runs.heap_bytes()).sum()),
            ("scores", self.installed_scores.capacity() * std::mem::size_of::<f64>()),
        ]
    }

    /// Average fan-out of the FK index on `col`: rows / distinct keys.
    /// Used by the computed affinity model's cardinality metric.
    pub fn avg_fanout(&self, col: usize) -> f64 {
        match self.fk_index_base(col) {
            Some(idx) if idx.key_count() > 0 => idx.entry_count() as f64 / idx.key_count() as f64,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::value::Value;

    fn make_table() -> Table {
        let schema = TableSchema::builder("Paper")
            .pk("id")
            .searchable_text("title")
            .fk("year_id", "Year")
            .build()
            .unwrap();
        Table::new(schema)
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = make_table();
        let r0 = t.insert(vec![Value::Int(10), "a title".into(), Value::Int(5)]).unwrap();
        let r1 = t.insert(vec![Value::Int(11), "another".into(), Value::Int(5)]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.by_pk(10), Some(r0));
        assert_eq!(t.by_pk(11), Some(r1));
        assert_eq!(t.by_pk(12), None);
        assert_eq!(t.pk_of(r0), 10);
        assert_eq!(t.value(r1, 1).as_str(), Some("another"));
    }

    #[test]
    fn fk_index_groups_rows() {
        let mut t = make_table();
        for (pk, y) in [(1, 5), (2, 5), (3, 6)] {
            t.insert(vec![Value::Int(pk), "t".into(), Value::Int(y)]).unwrap();
        }
        assert_eq!(t.rows_where_eq(2, 5).len(), 2);
        assert_eq!(t.rows_where_eq(2, 6).len(), 1);
        assert_eq!(t.rows_where_eq(2, 7).len(), 0);
        assert!(t.is_indexed(2));
        assert!(!t.is_indexed(1));
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = make_table();
        t.insert(vec![Value::Int(1), "x".into(), Value::Int(1)]).unwrap();
        let e = t.insert(vec![Value::Int(1), "y".into(), Value::Int(2)]);
        assert!(matches!(e, Err(StorageError::DuplicateKey { key: 1, .. })));
        // The failed insert must not have left a phantom row.
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn arity_and_type_validation() {
        let mut t = make_table();
        assert!(matches!(
            t.insert(vec![Value::Int(1)]),
            Err(StorageError::Arity { expected: 3, got: 1, .. })
        ));
        assert!(matches!(
            t.insert(vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
            Err(StorageError::TypeMismatch { .. })
        ));
        assert!(matches!(
            t.insert(vec![Value::from("k"), "x".into(), Value::Int(1)]),
            Err(StorageError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn rejected_writes_leave_every_column_as_it_was() {
        let mut t = make_table();
        t.insert(vec![Value::Int(1), "kept".into(), Value::Int(5)]).unwrap();
        // Bad arity, a bad type in the last column (after two good
        // cells), a duplicate and a NULL pk: no column may grow.
        assert!(t.insert(vec![Value::Int(2), "x".into()]).is_err());
        assert!(t.insert(vec![Value::Int(2), "x".into(), "y".into()]).is_err());
        assert!(t.insert(vec![Value::Int(1), "x".into(), Value::Int(6)]).is_err());
        assert!(t.insert(vec![Value::Null, "x".into(), Value::Int(6)]).is_err());
        assert!(t.columns.iter().all(|c| c.len() == 1));
        assert_eq!(t.len(), 1);
        // The same for updates: every cell keeps its value.
        assert!(t.update(1, vec![Value::Int(1), "x".into()]).is_err());
        assert!(t.update(1, vec![Value::Int(1), "x".into(), "y".into()]).is_err());
        assert!(t.update(1, vec![Value::Int(3), "x".into(), Value::Int(6)]).is_err());
        assert_eq!(t.row(RowId(0)), vec![Value::Int(1), "kept".into(), Value::Int(5)]);
        assert_eq!(t.rows_where_eq(2, 5), &[RowId(0)]);
        assert_eq!(t.rows_where_eq(2, 6).len(), 0);
    }

    #[test]
    fn an_int_row_costs_eight_bytes_a_cell() {
        let schema = TableSchema::builder("J").pk("id").fk("a", "A").fk("b", "B").build().unwrap();
        let mut t = Table::new(schema);
        let n = 1000;
        for i in 0..n {
            t.insert(vec![Value::Int(i), Value::Int(i % 7), Value::Int(i % 11)]).unwrap();
        }
        t.shrink_to_fit();
        assert_eq!(t.value_bytes(), 24 * n as usize);
        // The first NULL allocates that column's bitmap: words up to the
        // NULL, not one per row.
        t.update(0, vec![Value::Int(0), Value::Null, Value::Int(0)]).unwrap();
        let bitmap = t.value_bytes() - 24 * n as usize;
        assert!((8..=64).contains(&bitmap), "{bitmap} bytes for one NULL in row 0");
        assert_eq!(t.value(RowId(0), 1), Value::Null);
        assert_eq!(t.value(RowId(1), 1), Value::Int(1));
    }

    #[test]
    fn iter_skips_tombstones_and_indexes_cells() {
        let mut t = make_table();
        for (pk, title) in [(1, "first"), (2, "second"), (3, "third")] {
            t.insert(vec![Value::Int(pk), title.into(), Value::Null]).unwrap();
        }
        t.delete(2).unwrap();
        let titles: Vec<_> = t.iter().map(|(r, row)| (r, row[1].as_str().unwrap())).collect();
        assert_eq!(titles, [(RowId(0), "first"), (RowId(2), "third")]);
        let (_, row) = t.iter().next().unwrap();
        assert_eq!(row[2], Value::Null);
        assert_eq!(row.iter().collect::<Vec<_>>(), t.row(RowId(0)));
    }

    #[test]
    fn null_fk_is_allowed_and_unindexed() {
        let mut t = make_table();
        t.insert(vec![Value::Int(1), "x".into(), Value::Null]).unwrap();
        assert_eq!(t.rows_where_eq(2, 0).len(), 0);
    }

    #[test]
    fn avg_fanout() {
        let mut t = make_table();
        for (pk, y) in [(1, 5), (2, 5), (3, 5), (4, 6)] {
            t.insert(vec![Value::Int(pk), "t".into(), Value::Int(y)]).unwrap();
        }
        assert!((t.avg_fanout(2) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn delete_tombstones_and_cleans_indexes() {
        let mut t = make_table();
        for (pk, y) in [(1, 5), (2, 5), (3, 6)] {
            t.insert(vec![Value::Int(pk), "t".into(), Value::Int(y)]).unwrap();
        }
        let id = t.delete(2).unwrap();
        assert_eq!(id, RowId(1));
        // The slot survives; the row is invisible everywhere else.
        assert_eq!(t.len(), 3);
        assert_eq!(t.live_len(), 2);
        assert_eq!(t.n_dead(), 1);
        assert!(!t.is_live(id));
        assert_eq!(t.by_pk(2), None);
        assert_eq!(t.rows_where_eq(2, 5), &[RowId(0)]);
        assert_eq!(t.iter().count(), 2);
        // Fan-out reflects live rows only.
        assert!((t.avg_fanout(2) - 1.0).abs() < 1e-12);
        // Deleting a missing or already-dead pk fails cleanly.
        assert!(matches!(t.delete(2), Err(StorageError::MissingRow { key: 2, .. })));
        assert!(matches!(t.delete(99), Err(StorageError::MissingRow { key: 99, .. })));
        // The pk can be reused after the delete; with no order installed
        // the new row joins the run's tail.
        let id2 = t.insert(vec![Value::Int(2), "again".into(), Value::Int(5)]).unwrap();
        assert_eq!(t.by_pk(2), Some(id2));
        assert_eq!(t.rows_where_eq(2, 5), &[RowId(0), id2]);
    }

    #[test]
    fn update_rehomes_fk_index_at_the_run_tail() {
        let mut t = make_table();
        for (pk, y) in [(1, 5), (2, 6), (3, 5)] {
            t.insert(vec![Value::Int(pk), "t".into(), Value::Int(y)]).unwrap();
        }
        // Move pk 2 from year 6 to year 5: with no order installed it
        // joins the run's tail, as an insert would.
        t.update(2, vec![Value::Int(2), "moved".into(), Value::Int(5)]).unwrap();
        assert_eq!(t.rows_where_eq(2, 5), &[RowId(0), RowId(2), RowId(1)]);
        assert_eq!(t.rows_where_eq(2, 6).len(), 0);
        assert_eq!(t.value(RowId(1), 1).as_str(), Some("moved"));
        // An install puts the run in posting order: equal scores, RowIds
        // ascending — the very slice the sorted index serves.
        t.build_sorted_fk(&|_| 1.0);
        assert_eq!(t.rows_where_eq(2, 5), &[RowId(0), RowId(1), RowId(2)]);
        assert!(std::ptr::eq(t.rows_where_eq(2, 5), t.sorted_fk_index(2).unwrap().rows(5)));
        // Pk is immutable under update.
        assert!(matches!(
            t.update(2, vec![Value::Int(9), "x".into(), Value::Int(5)]),
            Err(StorageError::ImmutablePrimaryKey { key: 2, .. })
        ));
        // Updating a missing row fails cleanly.
        assert!(matches!(
            t.update(42, vec![Value::Int(42), "x".into(), Value::Int(5)]),
            Err(StorageError::MissingRow { key: 42, .. })
        ));
        // Validation errors leave the row untouched.
        assert!(t.update(2, vec![Value::Int(2)]).is_err());
        assert_eq!(t.value(RowId(1), 1).as_str(), Some("moved"));
    }
}
