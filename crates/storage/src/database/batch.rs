//! The staged scored batch — the one mutation path that *maintains* the
//! installed importance order: open with
//! [`Database::begin_scored_batch`], stage any mix of scored inserts,
//! updates and deletes, settle with [`Database::finish_scored_batch`].
//! A single scored mutation is a batch of one.
//!
//! One rule keeps every FK run equal to what a fresh install builds from
//! the live rows. Membership moves at staging: a row joining a run is
//! appended at its tail, a row leaving one is removed where it lies.
//! Order waits for settlement, which re-sorts exactly the runs the batch
//! appended to or re-scored. A staged score goes into the table's
//! snapshot, widening a shared one that it differs from. A junction keeps
//! nothing else: its TOP-l step reads the FK run and resolves each row's
//! target by key, so a write to a junction's target touches nothing of
//! the junction's.

use super::{Database, TableId};
use crate::epoch::Epoch;
use crate::table::RowId;
use crate::value::Value;
use crate::Result;

/// A handle staging several scored mutations (inserts, updates, deletes)
/// whose posting order is settled in **one** pass
/// ([`Database::finish_scored_batch`]): per touched table, the runs the
/// staged rows were appended to or re-scored in re-sort once. While the
/// batch is open the touched tables report no sorted index, so probes
/// heap-fall-back rather than scan runs out of order.
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
    /// epoch bumped — and joins the tails of its FK runs; their order is
    /// settled by [`Database::finish_scored_batch`]. The table reports no
    /// sorted index for the batch's duration
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
        let row = t.update_validated(pk, values)?;
        let keys = t.fk_keys_of(row);
        t.staged(row, Some(score), &keys);
        self.stage(batch);
        Ok(row)
    }

    /// Stages one scored delete into an open batch: the row is
    /// tombstoned — gone from its runs and the PK index, epoch bumped.
    /// Falls back to the plain [`Database::delete`] when no live order
    /// covers the table.
    pub fn delete_scored_staged(
        &mut self,
        batch: &mut ScoredBatch,
        table: &str,
        pk: i64,
    ) -> Result<RowId> {
        let Some(tid) = self.touch(batch, table)? else { return self.delete(table, pk) };
        let t = &mut self.tables[tid.index()];
        let row = t.delete_validated(pk)?;
        t.staged(row, None, &[]);
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
        if !batch.touched.contains(&tid) {
            self.tables[tid.index()].begin_staging();
            batch.touched.push(tid);
        }
        Ok(Some(tid))
    }

    /// Records a staged op at a fresh epoch, the one the settled token
    /// carries unless a later op stages.
    fn stage(&mut self, batch: &mut ScoredBatch) {
        self.epoch = self.epoch.next();
        batch.last_scored_epoch = Some(self.epoch);
    }

    /// Settles an open batch: every touched table re-sorts exactly the
    /// FK runs its staged rows were appended to or re-scored in, so every
    /// run is in the one posting order again, and the
    /// [`crate::FkOrderToken`] is re-stamped once. Equal, run for run, to
    /// the fold of the same ops as batches of one.
    pub fn finish_scored_batch(&mut self, batch: ScoredBatch) {
        let ScoredBatch { touched, last_scored_epoch } = batch;
        for tid in touched {
            if self.tables[tid.index()].settle_staging() {
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
