//! Tables: typed column storage, a hash index on the PK, and the groups
//! of every FK column — key → its rows — as runs of one arena ([`Runs`]).

use std::cell::OnceCell;
use std::ops::Index;

use crate::column::Column;
use crate::epoch::Epoch;
use crate::error::StorageError;
use crate::fk_index::{SortedFkIndex, SortedLinkIndex};
use crate::hash::{map_bytes, IntMap};
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

/// A table: schema, columns, and indexes.
///
/// Indexes are maintained incrementally on insert:
/// * a unique hash index on the primary key,
/// * the FK groups of every foreign-key column (these serve the
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
    /// are invisible to `iter`, the FK groups, and `by_pk`; they
    /// linger only as tombstones in the sorted FK postings until
    /// compaction.
    dead: Vec<bool>,
    /// Number of `true` bits in `dead`.
    n_dead: usize,
    /// Dead rows still present in the sorted FK postings (the compaction
    /// debt). Reset by every full posting (re)build.
    posting_tombstones: usize,
    /// Dead junction pairs still present in the sorted link postings
    /// (junction tables only): deleted junction rows leave their pairs
    /// behind as tombstones, skipped by consumers via dual-endpoint
    /// liveness checks. Reset by every full link (re)build.
    link_tombstones: usize,
    pk_index: IntMap<RowId>,
    /// On FK columns: key -> its live rows, `RowId`-ascending.
    fk_indexes: Slots<Runs<RowId>>,
    /// On FK columns: importance-sorted postings. Installed at
    /// finalization, *maintained* under scored inserts, dropped by the
    /// plain un-scored insert — see [`crate::fk_index`].
    sorted_fk: Slots<SortedFkIndex>,
    /// On *source* FK columns: importance-sorted junction link postings
    /// (junction tables only; same lifecycle as `sorted_fk`).
    sorted_links: Slots<SortedLinkIndex>,
    /// Per-row installed importance snapshot (one per row slot; empty
    /// when no order is installed or the snapshot was killed by an
    /// un-scored insert). Scored inserts append to it, which is what lets
    /// binary insertion find the right posting slot.
    installed_scores: Vec<f64>,
    /// True while `installed_scores` covers every row slot (set by
    /// [`Table::build_sorted_fk`], cleared by the un-scored insert).
    scores_live: bool,
    /// Postings parked by an open scored batch: staged rows are not yet
    /// placed in them, so they must be unreachable (probes heap-fall-back
    /// on the missing index) until `resume_postings` restores them for
    /// settlement. A batch abandoned without settlement therefore degrades
    /// to the conservative heap path instead of serving wrong prefixes.
    suspended: Option<(Slots<SortedFkIndex>, Slots<SortedLinkIndex>)>,
    /// Mutation epoch of this table (bumped on every insert).
    epoch: Epoch,
    /// Scored inserts absorbed incrementally since the last full (re)sort
    /// of the postings. Above the database's churn threshold the next
    /// scored insert triggers an epoch-batched re-sort instead.
    churn: usize,
}

impl Table {
    /// Creates an empty table for the schema.
    pub fn new(schema: TableSchema) -> Self {
        let arity = schema.arity();
        let mut fk_indexes = vec![None; arity];
        for fk in &schema.fks {
            fk_indexes[fk.column] = Some(Runs::default());
        }
        Table {
            columns: schema.columns.iter().map(|c| Column::new(c.ty)).collect(),
            schema,
            dead: Vec::new(),
            n_dead: 0,
            posting_tombstones: 0,
            link_tombstones: 0,
            pk_index: IntMap::default(),
            fk_indexes,
            sorted_fk: vec![None; arity],
            sorted_links: vec![None; arity],
            installed_scores: Vec::new(),
            scores_live: false,
            suspended: None,
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
    /// row, so any installed sorted postings (and the score snapshot that
    /// places rows in them) are dropped and the heap path takes over for
    /// this table. Use [`crate::Database::insert_scored_staged`] to keep
    /// the prefix-scan fast path live across inserts.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<RowId> {
        let id = self.insert_validated(values)?;
        // The sorted postings were placed under a per-row score snapshot;
        // a row without a score cannot join them, so both die together —
        // including any copy parked by an open scored batch.
        self.drop_derived_state();
        self.epoch = self.epoch.next();
        Ok(id)
    }

    /// The shared validate-and-append core of both insert paths: checks
    /// arity, types, and PK uniqueness, maintains the PK index and FK
    /// groups, and appends the row. Does not touch sorted postings or the
    /// epoch.
    fn insert_validated(&mut self, values: Vec<Value>) -> Result<RowId> {
        self.check_shape(&values)?;
        let pk = values[self.schema.pk]
            .as_int()
            .ok_or_else(|| StorageError::BadPrimaryKey { table: self.schema.name.clone() })?;
        let id = RowId(self.dead.len() as u32);
        if let Some(old) = self.pk_index.insert(pk, id) {
            self.pk_index.insert(pk, old);
            return Err(StorageError::DuplicateKey { table: self.schema.name.clone(), key: pk });
        }
        for (index, v) in self.fk_indexes.iter_mut().zip(&values) {
            if let (Some(index), Some(k)) = (index, v.as_int()) {
                index.insert_with(k, id, |rows| rows.partition_point(|&r| r < id));
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
    /// a live row, removes it from the pk index and the FK groups, and marks
    /// the slot dead. Does not touch sorted postings or the epoch — the
    /// dead row lingers in them as a tombstone until compaction.
    fn delete_validated(&mut self, pk: i64) -> Result<RowId> {
        let id = self
            .pk_index
            .remove(&pk)
            .ok_or_else(|| StorageError::MissingRow { table: self.schema.name.clone(), key: pk })?;
        for (index, column) in self.fk_indexes.iter_mut().zip(&self.columns) {
            if let (Some(index), Some(k)) = (index, column.get(id.index()).as_int()) {
                index.remove_with(k, |rows| rows.binary_search(&id).ok());
            }
        }
        self.dead[id.index()] = true;
        self.n_dead += 1;
        Ok(id)
    }

    /// The shared in-place-rewrite core of both update paths: validates
    /// arity/types, requires the pk to stay put, and re-homes the row in
    /// any FK group whose key changed. Does not touch sorted postings
    /// or the epoch.
    fn update_validated(&mut self, pk: i64, values: Vec<Value>) -> Result<RowId> {
        self.check_shape(&values)?;
        let id = *self
            .pk_index
            .get(&pk)
            .ok_or_else(|| StorageError::MissingRow { table: self.schema.name.clone(), key: pk })?;
        if values[self.schema.pk].as_int() != Some(pk) {
            return Err(StorageError::ImmutablePrimaryKey {
                table: self.schema.name.clone(),
                key: pk,
            });
        }
        for ((index, column), v) in self.fk_indexes.iter_mut().zip(&self.columns).zip(&values) {
            let Some(index) = index else { continue };
            let old = column.get(id.index()).as_int();
            let new = v.as_int();
            if old != new {
                if let Some(k) = old {
                    index.remove_with(k, |rows| rows.binary_search(&id).ok());
                }
                if let Some(k) = new {
                    index.insert_with(k, id, |rows| rows.partition_point(|&r| r < id));
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
    /// Like [`Table::insert`], this is the *un-scored* path: sorted
    /// postings and the score snapshot are dropped and the heap path takes
    /// over. Use [`crate::Database::delete_scored_staged`] to keep the
    /// fast path live (tombstone-then-compact).
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
        self.sorted_fk.fill(None);
        self.sorted_links.fill(None);
        self.suspended = None;
        self.installed_scores.clear();
        self.scores_live = false;
        self.posting_tombstones = 0;
        self.link_tombstones = 0;
    }

    /// Evicts the in-RAM sorted FK and link postings (the disk tier's
    /// residency policy: a paged table serves prefix scans from segments
    /// instead). The score snapshot survives, so staged mutations and
    /// later re-sorts keep working — the postings simply stop being
    /// RAM-resident until something rebuilds them. Tombstone debt goes
    /// with the postings it was counted against.
    pub(crate) fn evict_sorted_postings(&mut self) {
        self.sorted_fk.fill(None);
        self.sorted_links.fill(None);
        self.posting_tombstones = 0;
        self.link_tombstones = 0;
    }

    /// Appends a row whose installed importance is `score` *without*
    /// touching the sorted postings — the staged half of a scored insert.
    /// The caller ([`crate::Database`]'s batch machinery) settles the
    /// posting maintenance afterwards, either by per-row binary insertion
    /// ([`Self::binary_insert_postings`]) or by one batched re-sort.
    /// Requires a live score snapshot ([`Self::has_installed_scores`]).
    /// Bumps the epoch and the churn counter.
    pub(crate) fn insert_scored_staged(&mut self, values: Vec<Value>, score: f64) -> Result<RowId> {
        debug_assert!(self.has_installed_scores(), "caller checks the snapshot is live");
        let id = self.insert_validated(values)?;
        self.installed_scores.push(score);
        self.epoch = self.epoch.next();
        self.churn += 1;
        Ok(id)
    }

    /// The staged half of a scored update: rewrites the row but leaves the
    /// (suspended) sorted postings and the score snapshot untouched — the
    /// batch settlement repositions the row once, at its *net* score, after
    /// all in-batch removals. Bumps the epoch and the churn counter.
    pub(crate) fn update_scored_staged(&mut self, pk: i64, values: Vec<Value>) -> Result<RowId> {
        debug_assert!(self.has_installed_scores(), "caller checks the snapshot is live");
        let id = self.update_validated(pk, values)?;
        self.epoch = self.epoch.next();
        self.churn += 1;
        Ok(id)
    }

    /// The staged half of a scored delete: tombstones the row. Its stale
    /// installed score is deliberately *kept* so the sorted postings —
    /// where the dead entry lingers until compaction — remain consistent
    /// with the snapshot that binary insertion searches by. Bumps the
    /// epoch and the churn counter.
    pub(crate) fn delete_scored_staged(&mut self, pk: i64) -> Result<RowId> {
        debug_assert!(self.has_installed_scores(), "caller checks the snapshot is live");
        let id = self.delete_validated(pk)?;
        self.epoch = self.epoch.next();
        self.churn += 1;
        Ok(id)
    }

    /// Overwrites one slot of the installed-score snapshot (settlement of
    /// a scored update: called *after* the row's old posting entries were
    /// removed, *before* it is re-inserted at the new score, so the
    /// postings' sort keys never disagree with the snapshot).
    pub(crate) fn set_installed_score(&mut self, id: RowId, score: f64) {
        self.installed_scores[id.index()] = score;
    }

    /// The FK-column keys of a row that carry hash/posting entries —
    /// captured by the batch machinery *before* a staged update rewrites
    /// the row, so settlement can find the old sorted-posting entries.
    pub(crate) fn fk_keys_of(&self, id: RowId) -> Vec<(usize, i64)> {
        (0..self.columns.len())
            .filter(|&col| self.fk_indexes[col].is_some())
            .filter_map(|col| self.value(id, col).as_int().map(|k| (col, k)))
            .collect()
    }

    /// Removes a row's entries from the sorted FK postings under its *old*
    /// keys (settlement removal phase for net-updated rows).
    pub(crate) fn remove_from_postings(&mut self, id: RowId, old_keys: &[(usize, i64)]) {
        for &(col, key) in old_keys {
            if let Some(sorted) = &mut self.sorted_fk[col] {
                sorted.remove_ident(key, id);
            }
        }
    }

    /// Records dead rows left behind in the sorted FK postings (the
    /// settlement of net deletes). The database compacts once the debt
    /// crosses its threshold.
    pub(crate) fn add_posting_tombstones(&mut self, n: usize) {
        self.posting_tombstones += n;
    }

    /// Dead rows currently lingering in the sorted FK postings.
    pub fn fk_tombstones(&self) -> usize {
        self.posting_tombstones
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

    /// Binary-inserts a staged row into the sorted FK postings under the
    /// given `(fk column, key)` entries — captured at staging time, since
    /// a later in-batch update may have moved the row's current values —
    /// at its exact `(score desc, RowId asc)` position. Junction link
    /// postings are maintained by the caller
    /// ([`crate::Database::finish_scored_batch`]), which owns the
    /// cross-table target lookups.
    pub(crate) fn insert_into_postings(&mut self, id: RowId, keys: &[(usize, i64)]) {
        for &(col, key) in keys {
            if let Some(sorted) = &mut self.sorted_fk[col] {
                sorted.insert_sorted(key, id, &self.installed_scores);
            }
        }
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
        self.pk_index.get(&key).copied()
    }

    /// Live rows, `RowId`-ascending, whose FK column `col` equals `key`;
    /// calling this on a non-indexed column is a logic error.
    pub fn rows_where_eq(&self, col: usize, key: i64) -> &[RowId] {
        match self.fk_index_base(col) {
            Some(idx) => idx.get(key).map_or(&[][..], |(rows, ())| rows),
            None => panic!(
                "column {} of `{}` is not FK-indexed",
                self.schema.columns[col].name, self.schema.name
            ),
        }
    }

    /// True when `col` carries an FK index.
    pub fn is_indexed(&self, col: usize) -> bool {
        self.fk_index_base(col).is_some()
    }

    /// The FK groups of a column, if any — the input the sorted FK and
    /// link postings are built from.
    pub(crate) fn fk_index_base(&self, col: usize) -> Option<&Runs<RowId>> {
        self.fk_indexes.get(col)?.as_ref()
    }

    /// Rebuilds every FK column's importance-sorted postings under
    /// `score`, snapshotting the per-row scores so later scored inserts
    /// can binary-insert (called by
    /// [`crate::Database::install_importance_order`]). `score` is called
    /// once per row slot; the sort reads the snapshot.
    pub(crate) fn build_sorted_fk(&mut self, score: &dyn Fn(RowId) -> f64) {
        self.installed_scores = (0..self.dead.len()).map(|i| score(RowId(i as u32))).collect();
        self.scores_live = true;
        self.resort_from_snapshot();
    }

    /// (Re-)sorts the postings from the score snapshot — the tail of a
    /// full install, and the epoch-batched fallback above the churn
    /// threshold, where it is byte-identical to the incremental
    /// maintenance it replaces. Resets the churn counter.
    pub(crate) fn resort_from_snapshot(&mut self) {
        debug_assert!(self.has_installed_scores());
        self.sorted_fk = self
            .fk_indexes
            .iter()
            .map(|base| Some(SortedFkIndex::build(base.as_ref()?, &self.installed_scores)))
            .collect();
        self.churn = 0;
        // A full build sources from the (live-only) FK groups, so any
        // tombstone debt is paid off wholesale.
        self.posting_tombstones = 0;
    }

    /// The importance-sorted postings of `col`, if an order is installed
    /// and no un-scored insert has invalidated it since.
    pub fn sorted_fk_index(&self, col: usize) -> Option<&SortedFkIndex> {
        self.sorted_fk.get(col)?.as_ref()
    }

    /// The importance-sorted junction link postings whose *source* FK is
    /// `col` (junction tables under a live installed order only).
    pub fn sorted_link_index(&self, col: usize) -> Option<&SortedLinkIndex> {
        self.sorted_links.get(col)?.as_ref()
    }

    /// Every installed sorted FK index — `(column, index)` — for segment
    /// writers snapshotting this table's postings to disk.
    pub fn sorted_fk_indexes(&self) -> impl Iterator<Item = (usize, &SortedFkIndex)> {
        self.sorted_fk.iter().enumerate().filter_map(|(col, idx)| Some((col, idx.as_ref()?)))
    }

    /// Every installed sorted link index — `(source column, index)`.
    pub fn sorted_link_indexes(&self) -> impl Iterator<Item = (usize, &SortedLinkIndex)> {
        self.sorted_links.iter().enumerate().filter_map(|(col, idx)| Some((col, idx.as_ref()?)))
    }

    /// Parks the sorted FK and link postings while a scored batch stages
    /// rows (see the `suspended` field docs). Idempotent within a batch.
    pub(crate) fn suspend_postings(&mut self) {
        if self.suspended.is_none() {
            let arity = self.columns.len();
            self.suspended = Some((
                std::mem::replace(&mut self.sorted_fk, vec![None; arity]),
                std::mem::replace(&mut self.sorted_links, vec![None; arity]),
            ));
        }
    }

    /// Restores postings parked by [`Self::suspend_postings`] for
    /// settlement (a no-op when nothing is parked — e.g. an un-scored
    /// insert killed the snapshot mid-batch).
    pub(crate) fn resume_postings(&mut self) {
        if let Some((fk, links)) = self.suspended.take() {
            self.sorted_fk = fk;
            self.sorted_links = links;
        }
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

    /// Scored inserts absorbed incrementally since the last full sort.
    pub fn churn(&self) -> usize {
        self.churn
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
    /// and repacks every FK group and posting arena at exact size.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.columns.iter_mut().for_each(Column::shrink_to_fit);
        self.dead.shrink_to_fit();
        self.installed_scores.shrink_to_fit();
        self.fk_indexes.iter_mut().flatten().for_each(Runs::shrink_to_fit);
        self.sorted_fk.iter_mut().flatten().for_each(|idx| idx.runs.shrink_to_fit());
        self.sorted_links.iter_mut().flatten().for_each(|idx| idx.runs.shrink_to_fit());
    }

    /// Bytes the stored cells occupy: every column at its vector
    /// capacity, plus the bytes of its texts.
    pub fn value_bytes(&self) -> usize {
        self.columns.iter().map(Column::value_bytes).sum()
    }

    /// Heap bytes of this table's indexes by structure, from their
    /// capacities: the PK index, the FK groups, the resident sorted FK
    /// and link postings, and the score snapshot those are placed by.
    pub fn index_bytes(&self) -> [(&'static str, usize); 5] {
        [
            ("pk index", map_bytes(&self.pk_index)),
            ("FK groups", self.fk_indexes.iter().flatten().map(Runs::heap_bytes).sum()),
            ("sorted FK", self.sorted_fk.iter().flatten().map(|idx| idx.runs.heap_bytes()).sum()),
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
        // The pk can be reused after the delete.
        let id2 = t.insert(vec![Value::Int(2), "again".into(), Value::Int(5)]).unwrap();
        assert_eq!(t.by_pk(2), Some(id2));
        assert_eq!(t.rows_where_eq(2, 5), &[RowId(0), id2]);
    }

    #[test]
    fn update_rehomes_fk_index_in_row_id_order() {
        let mut t = make_table();
        for (pk, y) in [(1, 5), (2, 6), (3, 5)] {
            t.insert(vec![Value::Int(pk), "t".into(), Value::Int(y)]).unwrap();
        }
        // Move pk 2 from year 6 to year 5: it must land *between* rows 0
        // and 2 in the posting vec, exactly as a fresh build would place it.
        t.update(2, vec![Value::Int(2), "moved".into(), Value::Int(5)]).unwrap();
        assert_eq!(t.rows_where_eq(2, 5), &[RowId(0), RowId(1), RowId(2)]);
        assert_eq!(t.rows_where_eq(2, 6).len(), 0);
        assert_eq!(t.value(RowId(1), 1).as_str(), Some("moved"));
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
