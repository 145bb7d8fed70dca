//! Tables: typed column storage, an offset-or-slot index on the PK, and
//! one index per FK column. Its runs — key → its live rows, one run of
//! one arena each ([`Runs`]) — are its FK groups and, once an importance
//! order is installed, its sorted FK postings too: each row id is stored
//! once, in one run, in posting order while the order holds. The other
//! direction, a row's parent, is no index: [`Table::parent_of`] reads the
//! FK cell as an integer and probes the parent's primary key, which for
//! surrogate keys is an offset check and two array reads.
//!
//! A plain row operation — a loader's — leaves the runs unbuilt; the
//! catalog builds them in one count-then-fill pass
//! ([`crate::Database::build_runs`]) at their final size. The scored
//! operations maintain them row by row.
//!
//! The installed score snapshot (`Scores`) is kept as narrow as its
//! values let it, as an `Int` column's cells are: one score while every
//! row slot's score is the same, a score per slot once a scored write
//! sets another.

use std::cell::OnceCell;
use std::ops::Index;

use crate::column::{Column, TEXT_ARENA_LIMIT};
use crate::error::StorageError;
use crate::fk_index::SortedFkIndex;
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

/// The id of the row slot a table holding `len` slots appends, or `None`
/// once the ids have run out. `u32::MAX` is no row's id — it is the PK
/// slots' empty mark — so a table holds at most `u32::MAX` slots.
fn row_id_at(len: usize) -> Option<RowId> {
    u32::try_from(len).ok().filter(|&id| id != u32::MAX).map(RowId)
}

/// A table's installed score snapshot: a score per row slot, the one copy
/// of its rows' global importance and the key its runs are sorted by.
/// Like an `Int` column's cells, it is as narrow as its values let it be:
/// one score while every slot's score is the same bit for bit — under
/// DBLP's GA1, a junction's rows all hold the solve's one unrated score —
/// widened to a score per slot, once and for good, by the first scored
/// write of another score. An install takes a fresh snapshot, so
/// re-installing equal scores makes it one score again.
#[derive(Debug)]
struct Scores {
    /// The one shared score, or a score per slot.
    values: Vec<f64>,
    /// `0` while `values` is the one shared score, `usize::MAX` once it
    /// holds a score per slot: slot `i` reads `values[i & mask]`, so a
    /// read (the sort comparator's, the ranking's) takes no branch.
    mask: usize,
}

/// No snapshot: every read is out of bounds.
impl Default for Scores {
    fn default() -> Self {
        Scores { values: Vec::new(), mask: usize::MAX }
    }
}

impl Scores {
    /// The snapshot of `score` over `len` slots.
    fn take(len: usize, score: impl Fn(RowId) -> f64) -> Scores {
        let mut snap = match len {
            0 => Scores::default(),
            _ => Scores { values: vec![score(RowId(0))], mask: 0 },
        };
        for id in (1..len).map(|i| RowId(i as u32)) {
            snap.set(len, id, score(id));
        }
        snap
    }

    fn get(&self, id: RowId) -> f64 {
        self.values[id.index() & self.mask]
    }

    /// Sets slot `id` of a snapshot over `len` slots (a slot past the
    /// last one set is appended) to `score`, widening a shared score that
    /// differs.
    fn set(&mut self, len: usize, id: RowId, score: f64) {
        if self.mask == 0 {
            if self.values[0].to_bits() == score.to_bits() {
                return;
            }
            self.values = vec![self.values[0]; len];
            self.mask = usize::MAX;
        }
        self.values.resize(len, score);
        self.values[id.index()] = score;
    }
}

/// The element type of [`Table::sorted_link_indexes`], which yields
/// none: uninhabited, so no value of it exists.
#[derive(Debug)]
pub enum NoLinks {}

/// A `(key, (junction row, target row) pairs, raw length)` group, the
/// shape the deleted junction link index yielded.
pub type LinkGroup<'a> = (i64, &'a [(RowId, RowId)], usize);

impl NoLinks {
    /// The groups a junction link index held: none.
    pub fn groups(&self) -> std::iter::Empty<LinkGroup<'_>> {
        match *self {}
    }
}

/// Reads a live row's primary key back from the PK column (the PK index
/// keeps row ids only): `None` for a dead row or one past the end.
fn live_pk<'a>(dead: &'a [bool], pk_column: &'a Column) -> impl Fn(u32) -> Option<i64> + 'a {
    |row| match dead.get(row as usize) {
        Some(false) => pk_column.int_at(row as usize),
        _ => None,
    }
}

/// A table: schema, columns, and indexes.
///
/// Indexes are maintained incrementally on insert:
/// * a unique index on the primary key: a row at its key's offset from
///   the first row's is found there, every other row through a slot,
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
    /// survives so every structure keyed by dense row ids — the installed
    /// scores, a rank solve's vectors — stays valid. Dead rows
    /// are invisible to `iter`, `by_pk` and every run: FK runs hold live
    /// rows only.
    dead: Vec<bool>,
    /// Number of `true` bits in `dead`.
    n_dead: usize,
    pk_index: PkSlots,
    /// On FK columns: key -> its live rows. In posting order while
    /// [`Self::sorted_fk_index`] answers, otherwise in no set order
    /// (row order as built, until the first install).
    fk_runs: Slots<SortedFkIndex>,
    /// True while the runs hold every live row. The plain row operations
    /// clear it and free the runs rather than maintain them; the catalog
    /// rebuilds them in bulk, at exact size ([`Self::build_runs`]).
    runs_live: bool,
    /// The installed score snapshot (`Scores`), empty when no order is
    /// installed or an un-scored mutation dropped it. Set by
    /// [`Table::build_sorted_fk`]; scored inserts and updates write their
    /// row's score into it; the runs are sorted by it.
    scores: Scores,
    /// True while `scores` covers every row slot (set by
    /// [`Table::build_sorted_fk`], cleared by the un-scored mutations).
    scores_live: bool,
    /// Set while an open scored batch has touched the table: the
    /// `(column, key)` FK runs its staged rows were appended to or
    /// re-scored in, out of order until settlement re-sorts them.
    /// Meanwhile the table reports no sorted index, so probes — also
    /// those of a batch abandoned without settlement — heap-fall-back.
    staging: Option<Vec<(usize, i64)>>,
}

impl Table {
    /// Creates an empty table for the schema.
    pub fn new(schema: TableSchema) -> Self {
        let arity = schema.arity();
        let mut fk_runs = vec![None; arity];
        for fk in &schema.fks {
            fk_runs[fk.column] = Some(SortedFkIndex::default());
        }
        Table {
            columns: schema.columns.iter().map(|c| Column::new(c.ty)).collect(),
            schema,
            dead: Vec::new(),
            n_dead: 0,
            pk_index: PkSlots::default(),
            fk_runs,
            runs_live: true,
            scores: Scores::default(),
            scores_live: false,
            staging: None,
        }
    }

    /// Number of row *slots*, dead ones included. Structures indexed by
    /// dense `RowId` (installed scores, a solve's vectors) are sized by
    /// this.
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
    /// table; the FK runs are left unbuilt until the catalog builds them.
    /// Use
    /// [`crate::Database::insert_scored_staged`] to keep the prefix-scan
    /// fast path live across inserts.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<RowId> {
        let id = self.insert_validated(values)?;
        // The order was placed under a per-row score snapshot; a row
        // without a score cannot join it, so both die together —
        // including an open scored batch's staging.
        self.drop_derived_state();
        Ok(id)
    }

    /// The validate-and-append core of both insert paths: checks
    /// arity, types, and PK uniqueness, maintains the PK index, appends
    /// the row at the tail of its FK runs (while built), and appends its
    /// cells.
    pub(crate) fn insert_validated(&mut self, values: Vec<Value>) -> Result<RowId> {
        self.check_shape(&values)?;
        let pk = values[self.schema.pk]
            .as_int()
            .ok_or_else(|| StorageError::BadPrimaryKey { table: self.schema.name.clone() })?;
        let id = row_id_at(self.dead.len()).ok_or_else(|| StorageError::LimitExceeded {
            table: self.schema.name.clone(),
            limit: "4 294 967 295 row slots",
        })?;
        if !self.pk_index.insert(pk, id.0, live_pk(&self.dead, &self.columns[self.schema.pk])) {
            return Err(StorageError::DuplicateKey { table: self.schema.name.clone(), key: pk });
        }
        if self.runs_live {
            for (runs, v) in self.fk_runs.iter_mut().zip(&values) {
                if let (Some(runs), Some(k)) = (runs, v.as_int()) {
                    runs.push(k, id);
                }
            }
        }
        // Every check is behind us: all columns grow together.
        for (column, v) in self.columns.iter_mut().zip(values) {
            column.push(v);
        }
        self.dead.push(false);
        Ok(id)
    }

    /// Arity and per-column type check of a candidate row, and that every
    /// text cell fits its column's arena ([`TEXT_ARENA_LIMIT`]): all of
    /// it before the write moves an index or a cell.
    fn check_shape(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.schema.arity() {
            return Err(StorageError::Arity {
                table: self.schema.name.clone(),
                expected: self.schema.arity(),
                got: values.len(),
            });
        }
        for ((v, c), column) in values.iter().zip(&self.schema.columns).zip(&self.columns) {
            if !v.matches(c.ty) {
                return Err(StorageError::TypeMismatch {
                    table: self.schema.name.clone(),
                    column: c.name.clone(),
                });
            }
            if !column.takes(v, TEXT_ARENA_LIMIT) {
                return Err(StorageError::LimitExceeded {
                    table: self.schema.name.clone(),
                    limit: "4 GiB of text in one column",
                });
            }
        }
        Ok(())
    }

    /// The shared tombstone core of both delete paths: resolves the pk to
    /// a live row, removes it from the PK index (a row at its key's offset
    /// holds no slot: the mark hides it) and from its FK runs where it lies
    /// (while built; the runs stay in order), and marks the slot dead.
    pub(crate) fn delete_validated(&mut self, pk: i64) -> Result<RowId> {
        let key_of = live_pk(&self.dead, &self.columns[self.schema.pk]);
        let id =
            self.pk_index.remove(pk, key_of).map(RowId).ok_or_else(|| {
                StorageError::MissingRow { table: self.schema.name.clone(), key: pk }
            })?;
        if self.runs_live {
            for (runs, column) in self.fk_runs.iter_mut().zip(&self.columns) {
                if let (Some(runs), Some(k)) = (runs, column.get(id.index()).as_int()) {
                    runs.remove(k, id);
                }
            }
        }
        self.dead[id.index()] = true;
        self.n_dead += 1;
        Ok(id)
    }

    /// The shared in-place-rewrite core of both update paths: validates
    /// arity/types, requires the pk to stay put, and moves the row to the
    /// tail of the new key's run on any FK column whose key changed (while
    /// the runs are built).
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
        let fk_runs = self.fk_runs.iter_mut().zip(&self.columns).zip(&values);
        for ((runs, column), v) in fk_runs.filter(|_| self.runs_live) {
            let Some(runs) = runs else { continue };
            let old = column.get(id.index()).as_int();
            let new = v.as_int();
            if old != new {
                if let Some(k) = old {
                    runs.remove(k, id);
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
        Ok(id)
    }

    /// Rewrites the live row with primary key `pk` in place (the pk itself
    /// is immutable). Un-scored path — see [`Table::delete`].
    pub fn update(&mut self, pk: i64, values: Vec<Value>) -> Result<RowId> {
        let id = self.update_validated(pk, values)?;
        self.drop_derived_state();
        Ok(id)
    }

    /// Drops everything derived from the importance order and the runs,
    /// freeing what they hold (the un-scored mutation paths' common
    /// tail).
    fn drop_derived_state(&mut self) {
        if std::mem::take(&mut self.runs_live) {
            self.fk_runs.iter_mut().flatten().for_each(|idx| *idx = SortedFkIndex::default());
        }
        self.staging = None;
        self.scores = Scores::default();
        self.scores_live = false;
    }

    /// The staged tail of a scored mutation of `id`, after its validated
    /// core: an insert's or update's `score` goes into the snapshot and
    /// the `runs` it sits in await the settlement's re-sort
    /// ([`Self::settle_staging`]); a delete passes neither. Requires a
    /// live snapshot and an open batch.
    pub(crate) fn staged(&mut self, id: RowId, score: Option<f64>, runs: &[(usize, i64)]) {
        debug_assert!(self.scores_live, "caller checks the snapshot is live");
        if let Some(score) = score {
            self.scores.set(self.dead.len(), id, score);
        }
        if let Some(unsorted) = &mut self.staging {
            unsorted.extend_from_slice(runs);
        }
    }

    /// The FK-column keys of a row: the runs it sits in, which a staged
    /// insert or update leaves for settlement to re-sort.
    pub(crate) fn fk_keys_of(&self, id: RowId) -> Vec<(usize, i64)> {
        (0..self.columns.len())
            .filter(|&col| self.fk_runs[col].is_some())
            .filter_map(|col| self.int_value(id, col).map(|k| (col, k)))
            .collect()
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

    /// The integer in cell `col` of a row, read from the typed cells with
    /// no [`ValueRef`]: `None` for a NULL or a cell of another type.
    pub fn int_value(&self, id: RowId, col: usize) -> Option<i64> {
        self.columns[col].int_at(id.index())
    }

    /// The primary-key value of a row.
    pub fn pk_of(&self, id: RowId) -> i64 {
        self.int_value(id, self.schema.pk).expect("primary keys are validated on insert")
    }

    /// The row of `to` that FK column `col` of row `id` names: the FK
    /// cell read as an integer ([`Self::int_value`]) and probed in `to`'s
    /// primary key — `None` for a NULL or dangling key. It equals a
    /// fresh `SELECT` of the parent by key, so every caller sees the
    /// same parent as SQL: a dangling key resolves once its parent
    /// arrives, a deleted parent's key stops resolving, and a re-inserted
    /// one resolves to its new row.
    pub fn parent_of(&self, col: usize, id: RowId, to: &Table) -> Option<RowId> {
        to.by_pk(self.int_value(id, col)?)
    }

    /// Point lookup by primary key: the row at the key's offset from the
    /// first row's when it is live and holds the key, else a slot probe.
    /// While every row is live and at its key's offset — no delete, no
    /// slot, as after a surrogate-key load — the offset is the answer,
    /// read from no row.
    pub fn by_pk(&self, key: i64) -> Option<RowId> {
        if self.n_dead == 0 && self.pk_index.hashed() == 0 {
            let row = self.pk_index.offset(key).filter(|&row| (row as usize) < self.dead.len());
            return row.map(RowId);
        }
        self.pk_index.get(key, live_pk(&self.dead, &self.columns[self.schema.pk])).map(RowId)
    }

    /// Rows the PK index holds a slot for: the live rows whose key is not
    /// at its offset from the first row's.
    pub fn pk_slot_rows(&self) -> usize {
        self.pk_index.hashed()
    }

    /// Live rows whose FK column `col` equals `key`: in posting order
    /// while [`Self::sorted_fk_index`] answers for `col` (the very slice
    /// its `rows(key)` returns), otherwise in no set order — row order as
    /// built, until the first install. Calling this on a non-indexed
    /// column, or after a plain row operation before the catalog rebuilt
    /// the table's runs, is a logic error.
    pub fn rows_where_eq(&self, col: usize, key: i64) -> &[RowId] {
        match self.fk_index_base(col) {
            Some(runs) => runs.get(key).unwrap_or(&[]),
            None => panic!(
                "column {} of `{}` is not FK-indexed",
                self.schema.columns[col].name, self.schema.name
            ),
        }
    }

    /// True when `col` carries an FK index.
    pub fn is_indexed(&self, col: usize) -> bool {
        matches!(self.fk_runs.get(col), Some(Some(_)))
    }

    /// The FK runs of a column, if any. Panics, naming the table, while a
    /// plain row operation has left the runs unbuilt.
    pub(crate) fn fk_index_base(&self, col: usize) -> Option<&Runs<RowId>> {
        assert!(self.runs_live, "`{}` has unbuilt FK runs", self.schema.name);
        Some(&self.fk_runs.get(col)?.as_ref()?.runs)
    }

    /// Builds every FK column's runs, where a plain row operation left
    /// them unbuilt, in one count-then-fill pass over the live rows in
    /// row order, each run at its length with no dead or spare slot, and
    /// sizes the PK slots for the hashed rows: the end of a stretch of
    /// plain row operations (a load, an exact-path write).
    pub(crate) fn build_runs(&mut self) {
        if self.runs_live {
            return;
        }
        let dead = &self.dead;
        for (runs, column) in self.fk_runs.iter_mut().zip(&self.columns) {
            let Some(runs) = runs else { continue };
            runs.runs = Runs::from_entries(|| {
                (0..dead.len())
                    .filter(|&i| !dead[i])
                    .filter_map(|i| Some((column.int_at(i)?, RowId(i as u32))))
            });
        }
        self.pk_index.shrink_to_fit(live_pk(&self.dead, &self.columns[self.schema.pk]));
        self.runs_live = true;
    }

    /// Snapshots every row slot's `score` and sorts every FK run where it
    /// lies by it (called by
    /// [`crate::Database::install_importance_order`]), which ends any
    /// staging.
    pub(crate) fn build_sorted_fk(&mut self, score: &dyn Fn(RowId) -> f64) {
        debug_assert!(self.runs_live, "the catalog builds the runs before an install");
        self.scores = Scores::take(self.dead.len(), score);
        self.scores_live = true;
        self.staging = None;
        let scores = &self.scores;
        for runs in self.fk_runs.iter_mut().flatten() {
            runs.sort(|r| scores.get(r));
        }
    }

    /// True while the FK runs are in the installed importance order: an
    /// order is installed, no plain mutation has dropped it and no open
    /// scored batch has appended to the runs. The one flag that decides
    /// whether a TOP-l probe of this table may prefix-scan.
    pub fn is_sorted(&self) -> bool {
        self.scores_live && self.staging.is_none()
    }

    /// The importance-sorted runs of `col`: `Some` while
    /// [`Self::is_sorted`].
    pub fn sorted_fk_index(&self, col: usize) -> Option<&SortedFkIndex> {
        self.fk_runs.get(col)?.as_ref().filter(|_| self.is_sorted())
    }

    /// Every sorted FK index — `(column, index)` — for segment writers
    /// snapshotting this table's postings to disk.
    pub fn sorted_fk_indexes(&self) -> impl Iterator<Item = (usize, &SortedFkIndex)> {
        (0..self.fk_runs.len()).filter_map(|col| Some((col, self.sorted_fk_index(col)?)))
    }

    /// Always empty: a table keeps no junction link postings (a junction
    /// step reads the FK run and resolves each row's target by key). Kept
    /// only for the
    /// frozen benchmark package, which counts the entries a checkpoint
    /// writes as FK rows plus `groups()` pairs of these; it goes with that
    /// package's next change.
    pub fn sorted_link_indexes(&self) -> impl Iterator<Item = (usize, &NoLinks)> {
        std::iter::empty()
    }

    /// Opens staging for a scored batch (see the `staging` field docs).
    /// Idempotent within a batch.
    pub(crate) fn begin_staging(&mut self) {
        self.staging.get_or_insert_with(Vec::new);
    }

    /// Settles staging: re-sorts exactly the FK runs staged rows were
    /// appended to or re-scored in, against the snapshot their staged
    /// scores went into. Returns whether any run was staged (`false`
    /// too when an un-scored mutation dropped the order mid-batch).
    pub(crate) fn settle_staging(&mut self) -> bool {
        let Some(mut unsorted) = self.staging.take() else { return false };
        unsorted.sort_unstable();
        unsorted.dedup();
        let scores = &self.scores;
        for &(col, key) in &unsorted {
            if let Some(runs) = &mut self.fk_runs[col] {
                runs.sort_run(key, |r| scores.get(r));
            }
        }
        !unsorted.is_empty()
    }

    /// True when the installed-score snapshot covers every row (i.e. an
    /// order is installed and no un-scored mutation dropped it).
    pub fn has_installed_scores(&self) -> bool {
        self.scores_live
    }

    /// The installed importance of a row (panics without a live snapshot).
    pub fn installed_score(&self, id: RowId) -> f64 {
        self.scores.get(id)
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

    /// Makes room for `additional` more rows: the cells, the liveness
    /// flags and — where the table hashes a key already — the PK slots,
    /// so a loader that knows its row count leaves no push-doubling slack
    /// behind.
    pub(crate) fn reserve_rows(&mut self, additional: usize) {
        self.columns.iter_mut().for_each(|c| c.reserve(additional));
        self.dead.reserve_exact(additional);
        self.pk_index.reserve(additional, live_pk(&self.dead, &self.columns[self.schema.pk]));
    }

    /// Releases the push-doubling slack of everything sized by the slot
    /// count — the columns, the liveness flags and the score snapshot —
    /// repacks every FK-run arena at exact size, and sizes the PK slots
    /// for the hashed rows.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.columns.iter_mut().for_each(Column::shrink_to_fit);
        self.dead.shrink_to_fit();
        self.scores.values.shrink_to_fit();
        self.pk_index.shrink_to_fit(live_pk(&self.dead, &self.columns[self.schema.pk]));
        self.fk_runs.iter_mut().flatten().for_each(|idx| idx.runs.shrink_to_fit());
    }

    /// Bytes the stored cells occupy: every column's cell, span, text
    /// arena and NULL-bitmap vectors at their capacity.
    pub fn value_bytes(&self) -> usize {
        self.columns.iter().map(Column::value_bytes).sum()
    }

    /// Bytes column `col`'s cells occupy: its share of
    /// [`Self::value_bytes`].
    pub fn column_bytes(&self, col: usize) -> usize {
        self.columns[col].value_bytes()
    }

    /// Heap bytes of this table's indexes by structure, from their
    /// capacities: the PK slots, the FK runs, and the score snapshot the
    /// runs are sorted by (eight bytes while it is one shared score).
    pub fn index_bytes(&self) -> [(&'static str, usize); 3] {
        [
            ("PK slots", self.pk_index.heap_bytes()),
            ("FK runs", self.fk_runs.iter().flatten().map(|idx| idx.runs.heap_bytes()).sum()),
            ("scores", self.scores.values.capacity() * std::mem::size_of::<f64>()),
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
    fn row_ids_run_out_before_they_reach_the_none_mark() {
        assert_eq!(row_id_at(0), Some(RowId(0)));
        assert_eq!(row_id_at(u32::MAX as usize - 1), Some(RowId(u32::MAX - 1)));
        assert_eq!(row_id_at(u32::MAX as usize), None, "u32::MAX marks no row");
        assert_eq!(row_id_at(u32::MAX as usize + 1), None, "no id wraps round to row 0");
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
        t.build_runs();
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
        t.build_runs();
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
    fn an_int_row_costs_four_bytes_a_cell() {
        // Keys counting down and FK cells cycling: no column is a
        // sequence, so every cell is stored.
        let schema = TableSchema::builder("J").pk("id").fk("a", "A").fk("b", "B").build().unwrap();
        let mut t = Table::new(schema);
        let n = 1000;
        let pk = |i: i64| n - i;
        for i in 0..n {
            t.insert(vec![Value::Int(pk(i)), Value::Int(i % 7), Value::Int(i % 11)]).unwrap();
        }
        t.shrink_to_fit();
        assert_eq!(t.value_bytes(), 12 * n as usize);
        // The first NULL allocates that column's bitmap: words up to the
        // NULL, not one per row.
        t.update(pk(0), vec![Value::Int(pk(0)), Value::Null, Value::Int(0)]).unwrap();
        let bitmap = t.value_bytes() - 12 * n as usize;
        assert!((8..=64).contains(&bitmap), "{bitmap} bytes for one NULL in row 0");
        assert_eq!(t.value(RowId(0), 1), Value::Null);
        assert_eq!(t.value(RowId(1), 1), Value::Int(1));
        // One value outside `i32` widens its column, and only it, to
        // eight bytes a cell (beside one bitmap word once shrunk); every
        // other cell reads back as it was.
        t.update(pk(1), vec![Value::Int(pk(1)), Value::Int(1), Value::Int(i64::MAX)]).unwrap();
        t.shrink_to_fit();
        assert_eq!(t.value_bytes(), 16 * n as usize + 8);
        assert_eq!(t.value(RowId(0), 1), Value::Null);
        assert_eq!(t.value(RowId(1), 2), Value::Int(i64::MAX));
        for i in (0..n).filter(|&i| i != 1) {
            assert_eq!(t.value(RowId(i as u32), 2), Value::Int(i % 11));
        }
        for i in 0..n {
            assert_eq!(t.by_pk(pk(i)), Some(RowId(i as u32)));
        }
    }

    #[test]
    fn a_sequence_column_stores_no_cell_until_a_value_leaves_it() {
        // Surrogate keys from 1, and an FK column counting up from 5.
        let schema = TableSchema::builder("J").pk("id").fk("a", "A").build().unwrap();
        let mut t = Table::new(schema);
        let n = 1000;
        t.reserve_rows(n);
        for i in 0..n as i64 / 2 {
            t.insert(vec![Value::Int(1 + i), Value::Int(5 + i)]).unwrap();
        }
        assert_eq!(t.value_bytes(), 0, "a sequence stores only its first value");
        // A NULL keeps the sequence; an update to the cell's own value too.
        t.update(3, vec![Value::Int(3), Value::Null]).unwrap();
        t.update(4, vec![Value::Int(4), Value::Int(8)]).unwrap();
        let bitmap = t.column_bytes(1);
        assert!((8..=32).contains(&bitmap), "{bitmap} bytes: a NULL bitmap, no cell");
        assert_eq!(t.value(RowId(2), 1), Value::Null);
        assert_eq!(t.value(RowId(3), 1), Value::Int(8));
        // A value off the sequence stores the column's cells once, at
        // the capacity the rows reserved: the rest of the load and a
        // shrink move no byte, and the keys stay a sequence.
        t.insert(vec![Value::Int(1 + n as i64 / 2), Value::Int(0)]).unwrap();
        assert_eq!(t.column_bytes(1), 4 * n + bitmap);
        for i in n as i64 / 2 + 1..n as i64 {
            t.insert(vec![Value::Int(1 + i), Value::Int(5 + i)]).unwrap();
        }
        t.shrink_to_fit();
        assert_eq!((t.column_bytes(0), t.column_bytes(1)), (0, 4 * n + 8));
        for i in 0..n {
            let a = match i {
                2 => Value::Null,
                500 => Value::Int(0),
                _ => Value::Int(5 + i as i64),
            };
            assert_eq!(t.value(RowId(i as u32), 1), a, "row {i}");
            assert_eq!(t.by_pk(1 + i as i64), Some(RowId(i as u32)));
        }
        // A sequence past `i32` is read back exactly, and materializes
        // straight to eight-byte cells.
        let schema = TableSchema::builder("K").pk("id").build().unwrap();
        let mut t = Table::new(schema);
        let first = i64::from(i32::MAX) - 2;
        for k in first..first + 5 {
            t.insert(vec![Value::Int(k)]).unwrap();
        }
        assert_eq!((t.value_bytes(), t.pk_of(RowId(4))), (0, first + 4));
        t.insert(vec![Value::Int(0)]).unwrap();
        t.shrink_to_fit();
        assert_eq!(t.value_bytes(), 8 * 6);
        assert_eq!((t.pk_of(RowId(4)), t.pk_of(RowId(5))), (first + 4, 0));
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
        t.build_runs();
        assert_eq!(t.rows_where_eq(2, 0).len(), 0);
    }

    #[test]
    fn avg_fanout() {
        let mut t = make_table();
        for (pk, y) in [(1, 5), (2, 5), (3, 5), (4, 6)] {
            t.insert(vec![Value::Int(pk), "t".into(), Value::Int(y)]).unwrap();
        }
        t.build_runs();
        assert!((t.avg_fanout(2) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn delete_tombstones_and_cleans_indexes() {
        let mut t = make_table();
        for (pk, y) in [(1, 5), (2, 5), (3, 6)] {
            t.insert(vec![Value::Int(pk), "t".into(), Value::Int(y)]).unwrap();
        }
        let id = t.delete(2).unwrap();
        t.build_runs();
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
        t.build_runs();
        assert_eq!(t.by_pk(2), Some(id2));
        assert_eq!(t.rows_where_eq(2, 5), &[RowId(0), id2]);
    }

    #[test]
    fn update_rehomes_fk_index_at_the_run_tail() {
        let mut t = make_table();
        for (pk, y) in [(1, 5), (2, 6), (3, 5)] {
            t.insert(vec![Value::Int(pk), "t".into(), Value::Int(y)]).unwrap();
        }
        t.build_runs();
        // Move pk 2 from year 6 to year 5 through the maintained core the
        // scored update shares: with no order installed it joins the
        // run's tail, as an insert would.
        t.update_validated(2, vec![Value::Int(2), "moved".into(), Value::Int(5)]).unwrap();
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
