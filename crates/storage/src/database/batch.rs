//! The staged scored batch — the one mutation path that *maintains* the
//! installed importance order: open with
//! [`Database::begin_scored_batch`], stage any mix of scored inserts,
//! updates and deletes, settle with [`Database::finish_scored_batch`].
//! A single scored mutation is a batch of one.
//!
//! One rule keeps every posting run — FK runs and junction link runs
//! alike — equal to what a fresh install builds from the live rows.
//! Membership moves at staging: an entry joining a run is appended at its
//! tail, an entry leaving one is removed where it lies. Order waits for
//! settlement, which re-sorts exactly the runs the batch appended to or
//! re-scored. For a junction orientation `(source column, target column,
//! target table)` an entry is the pair `(junction row, target row)`:
//! - a junction row's insert, update or delete moves its pair out of the
//!   source run it sat in and into the one it sits in now, when its
//!   target resolves to a live row (a NULL or dangling target counts in
//!   the raw group only, as the heap path reads it);
//! - a target row's insert adds, its delete removes and its update
//!   re-sorts the pairs of the junction rows referencing it, read from
//!   the junction's live-only FK run on the target column — so a write
//!   costs the rows it touches, never a rebuild.

use super::{Database, RowChange, TableId};
use crate::epoch::Epoch;
use crate::table::RowId;
use crate::value::Value;
use crate::Result;

/// A handle staging several scored mutations (inserts, updates, deletes)
/// whose posting order is settled in **one** pass
/// ([`Database::finish_scored_batch`]): per touched table, the runs the
/// staged entries were appended to or re-scored in re-sort once. While
/// the batch is open the touched tables — a junction whose link runs a
/// target row's change reached among them — report no sorted index, so
/// probes heap-fall-back rather than scan runs out of order.
///
/// The settled end state equals folding the same ops as batches of one,
/// run for run (property-tested).
#[derive(Debug)]
#[must_use = "settle with Database::finish_scored_batch or staged runs stay out of order"]
pub struct ScoredBatch {
    /// Tables whose postings were suspended at first touch.
    touched: Vec<TableId>,
    /// Epoch of the last staged (maintained) op — the stamp the settled
    /// [`crate::FkOrderToken`] carries, exactly as the fold would leave it.
    last_scored_epoch: Option<Epoch>,
}

impl Database {
    /// Opens a scored-insert batch (see [`ScoredBatch`]). Stage rows with
    /// [`Database::insert_scored_staged`], settle with
    /// [`Database::finish_scored_batch`].
    pub fn begin_scored_batch(&self) -> ScoredBatch {
        ScoredBatch { touched: Vec::new(), last_scored_epoch: None }
    }

    /// Stages one scored insert into an open batch: the row (and its
    /// score) lands in the table — visible to FK-run and PK reads,
    /// epoch bumped — and joins the tails of its FK runs and link runs;
    /// their order is settled by [`Database::finish_scored_batch`]. The
    /// affected tables report no sorted index for the batch's duration
    /// (probes heap-fall-back). Falls back to the plain
    /// [`Database::insert`] when no live importance order covers the
    /// table (nothing to maintain).
    pub fn insert_scored_staged(
        &mut self,
        batch: &mut ScoredBatch,
        table: &str,
        values: Vec<Value>,
        score: f64,
    ) -> Result<RowId> {
        let Some(tid) = self.touch(batch, table)? else { return self.insert(table, values) };
        let t = &mut self.tables[tid.index()];
        let row = t.insert_validated(values)?;
        let keys = t.fk_keys_of(row);
        t.staged(row, Some(score), &keys);
        self.maintain_forward(tid, row, RowChange::Inserted);
        self.relink(tid, row, &[], true);
        self.retarget(batch, tid, row, RowChange::Inserted);
        self.stage(batch);
        Ok(row)
    }

    /// Stages one scored update into an open batch: the row is rewritten
    /// in place — visible to reads, epoch bumped — and re-joins its runs
    /// at their tails under its new keys and score. Falls back to the
    /// plain [`Database::update`] when no live order covers the table.
    pub fn update_scored_staged(
        &mut self,
        batch: &mut ScoredBatch,
        table: &str,
        pk: i64,
        values: Vec<Value>,
        score: f64,
    ) -> Result<RowId> {
        let Some(tid) = self.touch(batch, table)? else { return self.update(table, pk, values) };
        let t = &mut self.tables[tid.index()];
        // A missing pk stages nothing: the validated path errs.
        let old_keys = t.by_pk(pk).map_or_else(Vec::new, |row| t.fk_keys_of(row));
        let row = t.update_validated(pk, values)?;
        let new_keys = t.fk_keys_of(row);
        t.staged(row, Some(score), &new_keys);
        self.maintain_forward(tid, row, RowChange::Updated);
        self.relink(tid, row, &old_keys, true);
        self.retarget(batch, tid, row, RowChange::Updated);
        self.stage(batch);
        Ok(row)
    }

    /// Stages one scored delete into an open batch: the row is
    /// tombstoned — gone from its runs, its link pairs and the PK index,
    /// epoch bumped. Falls back to the plain [`Database::delete`] when no
    /// live order covers the table.
    pub fn delete_scored_staged(
        &mut self,
        batch: &mut ScoredBatch,
        table: &str,
        pk: i64,
    ) -> Result<RowId> {
        let Some(tid) = self.touch(batch, table)? else { return self.delete(table, pk) };
        let t = &mut self.tables[tid.index()];
        let row = t.delete_validated(pk)?;
        // A dead slot keeps its values: the keys it sat under.
        let keys = t.fk_keys_of(row);
        t.staged(row, None, &[]);
        self.maintain_forward(tid, row, RowChange::Deleted);
        self.relink(tid, row, &keys, false);
        self.retarget(batch, tid, row, RowChange::Deleted);
        self.stage(batch);
        Ok(row)
    }

    /// The table a scored op on `table` stages in, its staging opened at
    /// the batch's first touch — or `None` when no live importance order
    /// covers it and the op takes the plain path.
    fn touch(&mut self, batch: &mut ScoredBatch, table: &str) -> Result<Option<TableId>> {
        let tid = self.table_id(table)?;
        if self.fk_order.is_none() || !self.tables[tid.index()].has_installed_scores() {
            return Ok(None);
        }
        self.open_staging(batch, tid);
        Ok(Some(tid))
    }

    fn open_staging(&mut self, batch: &mut ScoredBatch, tid: TableId) {
        if !batch.touched.contains(&tid) {
            self.tables[tid.index()].begin_staging();
            batch.touched.push(tid);
        }
    }

    /// Records a staged op at a fresh epoch, the one the settled token
    /// carries unless a later op stages.
    fn stage(&mut self, batch: &mut ScoredBatch) {
        self.epoch = self.epoch.next();
        batch.last_scored_epoch = Some(self.epoch);
    }

    /// The junction-row half of the link rule: `row` leaves the source
    /// runs `old_keys` held it in and, unless it was deleted (`live`),
    /// joins the run of its current source key — its pair appended when
    /// its target resolves to a live row. The runs it joins are staged
    /// with its FK runs. A no-op for non-junctions and absent
    /// orientations.
    fn relink(&mut self, jid: TableId, row: RowId, old_keys: &[(usize, i64)], live: bool) {
        let Some(orientations) = self.junction_orientations(jid) else { return };
        for (s_col, t_col, _) in orientations {
            let Some(mut links) = self.tables[jid.index()].take_sorted_link(s_col) else {
                continue;
            };
            if let Some(&(_, key)) = old_keys.iter().find(|&&(col, _)| col == s_col) {
                links.leave(key, row);
            }
            let jt = &self.tables[jid.index()];
            if let (true, Some(key)) = (live, jt.value(row, s_col).as_int()) {
                links.join(key, row, jt.forward(t_col).get(row));
            }
            self.tables[jid.index()].set_sorted_link(s_col, links);
        }
    }

    /// The target-row half of the link rule: the junction rows whose
    /// target FK holds `row`'s pk gain their pair to it, lose it where it
    /// lies, or have the run holding it marked for re-sorting at the
    /// row's new score. A junction whose runs this reaches joins the
    /// batch's touched tables.
    fn retarget(&mut self, batch: &mut ScoredBatch, tid: TableId, row: RowId, change: RowChange) {
        let pk = self.tables[tid.index()].pk_of(row);
        for (jid, s_col, t_col) in self.links_to(tid) {
            let Some(mut links) = self.tables[jid.index()].take_sorted_link(s_col) else {
                continue;
            };
            let jt = &self.tables[jid.index()];
            let mut unsorted = Vec::new();
            for &j in jt.rows_where_eq(t_col, pk) {
                let Some(key) = jt.value(j, s_col).as_int() else { continue };
                match change {
                    RowChange::Inserted => {
                        links.push(key, (j, row));
                        unsorted.push((s_col, key));
                    }
                    RowChange::Updated => unsorted.push((s_col, key)),
                    RowChange::Deleted => links.remove_ident(key, j),
                }
            }
            self.tables[jid.index()].set_sorted_link(s_col, links);
            if !unsorted.is_empty() {
                self.open_staging(batch, jid);
                self.tables[jid.index()].unsorted(&unsorted);
            }
        }
    }

    /// Settles an open batch: every touched table re-sorts exactly the
    /// runs its staged entries were appended to or re-scored in — FK runs
    /// against its own snapshot, a junction's link runs against their
    /// target's — so every run is in the one posting order again, and
    /// the [`crate::FkOrderToken`] is re-stamped once. Equal, run for
    /// run, to the fold of the same ops as batches of one.
    pub fn finish_scored_batch(&mut self, batch: ScoredBatch) {
        let ScoredBatch { touched, last_scored_epoch } = batch;
        for tid in touched {
            let Some(unsorted) = self.tables[tid.index()].settle_staging() else { continue };
            for (s_col, _, t_table) in self.junction_orientations(tid).into_iter().flatten() {
                let Some(mut links) = self.tables[tid.index()].take_sorted_link(s_col) else {
                    continue;
                };
                let scores = self.tables[t_table.index()].installed_scores();
                for &(_, key) in unsorted.iter().filter(|&&(col, _)| col == s_col) {
                    links.sort_run(key, scores);
                }
                self.tables[tid.index()].set_sorted_link(s_col, links);
            }
            if !unsorted.is_empty() {
                self.access.record_posting_resort();
            }
        }
        if let Some(epoch) = last_scored_epoch {
            // The stamp the fold would leave: the epoch of the last
            // *maintained* op. A trailing plain-fallback mutation bumps
            // the epoch further but never restamps in the fold either.
            self.fk_order = self.fk_order.map(|t| t.restamped(epoch));
        }
    }
}
