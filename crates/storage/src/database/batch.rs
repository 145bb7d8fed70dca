//! The staged scored batch — the one mutation path that *maintains* the
//! installed importance order: open with
//! [`Database::begin_scored_batch`], stage any mix of scored inserts,
//! updates and deletes, settle with [`Database::finish_scored_batch`].
//! A single scored mutation is a batch of one.

use super::{Database, TableId};
use crate::epoch::Epoch;
use crate::table::RowId;
use crate::value::Value;
use crate::Result;

/// One mutation staged in a [`ScoredBatch`], with the FK keys it touches
/// captured *at staging time* — settlement replays the ops' link
/// maintenance in order, and a row mutated more than once per batch has
/// a different key set at each step than its final values suggest.
#[derive(Debug)]
pub enum StagedOp {
    /// A scored insert.
    Insert {
        /// The inserted row.
        target: (TableId, RowId),
        /// `(fk column, key)` runs the row joined *at insert time* (a
        /// later in-batch update may have moved it since).
        keys: Vec<(usize, i64)>,
    },
    /// A scored update: the row's link pairs move from the old keys to
    /// the new ones, and its runs re-sort at the new score.
    Update {
        /// The rewritten row.
        target: (TableId, RowId),
        /// `(fk column, key)` runs the row sat in before this op.
        old_keys: Vec<(usize, i64)>,
        /// `(fk column, key)` runs the row sits in after this op.
        new_keys: Vec<(usize, i64)>,
    },
    /// A scored delete: the row left its runs where it lay; its link
    /// pairs stay behind as tombstones (counted toward the compaction
    /// debt).
    Delete {
        /// The tombstoned row.
        target: (TableId, RowId),
        /// `(fk column, key)` runs the row sat in.
        keys: Vec<(usize, i64)>,
    },
}

impl StagedOp {
    /// The `(table, row)` this op targets.
    pub fn target(&self) -> (TableId, RowId) {
        match *self {
            StagedOp::Insert { target, .. }
            | StagedOp::Update { target, .. }
            | StagedOp::Delete { target, .. } => target,
        }
    }
}

/// A handle staging several scored mutations (inserts, updates, deletes)
/// whose posting maintenance is settled in **one** pass
/// ([`Database::finish_scored_batch`]): per affected table, the FK runs
/// staged rows were appended to re-sort once, and the junction link
/// postings either replay every staged op incrementally (binary insert /
/// reposition / tombstone) or — above the churn threshold — rebuild once,
/// instead of potentially several mid-stream rebuilds when the same ops
/// arrive as batches of one. Junction link postings touched by any
/// update/delete of a table their pairs target are rebuilt once per
/// batch, and at most one link compaction per table runs at the end.
/// While the batch is open the affected tables report no sorted index,
/// so probes conservatively heap-fall-back rather than scan runs missing
/// the staged ops' order.
///
/// The settled end state serves queries byte-identically to folding the
/// same ops as batches of one (property-tested at every churn and
/// compaction threshold); only link compaction *timing* may differ,
/// which is invisible to probes (tombstones are skipped) and to
/// accounting.
#[derive(Debug)]
#[must_use = "settle with Database::finish_scored_batch or staged ops never re-join the sorted postings"]
pub struct ScoredBatch {
    /// Ops that took the maintained path, in arrival order (plain
    /// fallbacks need no settlement).
    staged: Vec<StagedOp>,
    /// Tables whose postings were suspended at first touch.
    touched: Vec<TableId>,
    /// Epoch of the last staged (maintained) op — the stamp the settled
    /// [`crate::FkOrderToken`] carries, exactly as the fold would leave it.
    last_scored_epoch: Option<Epoch>,
}

impl ScoredBatch {
    /// Ops staged so far (maintained path only), in arrival order.
    pub fn staged(&self) -> &[StagedOp] {
        &self.staged
    }
}

impl Database {
    /// Opens a scored-insert batch (see [`ScoredBatch`]). Stage rows with
    /// [`Database::insert_scored_staged`], settle with
    /// [`Database::finish_scored_batch`].
    pub fn begin_scored_batch(&self) -> ScoredBatch {
        ScoredBatch { staged: Vec::new(), touched: Vec::new(), last_scored_epoch: None }
    }

    /// Stages one scored insert into an open batch: the row (and its
    /// score) lands in the table — visible to FK-run and PK reads,
    /// epoch bumped — but posting maintenance is deferred to
    /// [`Database::finish_scored_batch`]. The affected table reports no
    /// sorted index for the batch's duration (probes heap-fall-back).
    /// Falls back to the plain [`Database::insert`] when no live
    /// importance order covers the table (nothing to maintain).
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
        self.stage(batch, StagedOp::Insert { target: (tid, row), keys });
        Ok(row)
    }

    /// Stages one scored update into an open batch: the row is rewritten
    /// in place — visible to reads, epoch bumped — and its pre-/post-update
    /// keys are captured so [`Database::finish_scored_batch`] can replay
    /// its link pairs' reposition. Falls back to the plain
    /// [`Database::update`] when no live order covers the table.
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
        self.stage(batch, StagedOp::Update { target: (tid, row), old_keys, new_keys });
        Ok(row)
    }

    /// Stages one scored delete into an open batch: the row is
    /// tombstoned — gone from its runs and the PK index, epoch bumped —
    /// and its keys are captured so settlement can tombstone its link
    /// pairs. Falls back to the plain [`Database::delete`]
    /// when no live order covers the table.
    pub fn delete_scored_staged(
        &mut self,
        batch: &mut ScoredBatch,
        table: &str,
        pk: i64,
    ) -> Result<RowId> {
        let Some(tid) = self.touch(batch, table)? else { return self.delete(table, pk) };
        let t = &mut self.tables[tid.index()];
        let keys = t.by_pk(pk).map_or_else(Vec::new, |row| t.fk_keys_of(row));
        let row = t.delete_validated(pk)?;
        t.staged(row, None, &[]);
        self.stage(batch, StagedOp::Delete { target: (tid, row), keys });
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
    fn stage(&mut self, batch: &mut ScoredBatch, op: StagedOp) {
        self.epoch = self.epoch.next();
        batch.staged.push(op);
        batch.last_scored_epoch = Some(self.epoch);
    }

    /// Settles an open batch. Every touched table re-sorts exactly the FK
    /// runs its staged ops appended to or re-scored, so every run is in
    /// the one posting order again. The link postings replay the staged
    /// ops in arrival order — a binary insert, a reposition, or a
    /// tombstone — or, for tables whose churn crosses the threshold,
    /// rebuild **once** (where the fold pays one rebuild per crossing).
    /// Junction links made stale by any update/delete of rows their pairs
    /// target are rebuilt once (a rebuild that trips over a now-dead
    /// target drops the orientation and watches the endpoint, so a
    /// re-inserted pk heals it). Endpoint arrivals heal waiting
    /// junctions, tables whose link-tombstone debt crossed the compaction
    /// threshold compact (at most once each), and the
    /// [`crate::FkOrderToken`] is re-stamped once.
    ///
    /// Serves queries byte-identically to the fold of the same ops as
    /// batches of one; the churn counter and link compaction timing may
    /// differ, which is content-neutral: tombstones are invisible to
    /// probes.
    pub fn finish_scored_batch(&mut self, batch: ScoredBatch) {
        let ScoredBatch { staged, touched, last_scored_epoch } = batch;
        for &tid in &touched {
            if self.tables[tid.index()].settle_staging() {
                self.access.record_posting_resort();
            }
        }
        // Tables whose churn crosses the threshold rebuild their links.
        let resort: Vec<TableId> = touched
            .iter()
            .copied()
            .filter(|&tid| {
                let t = &self.tables[tid.index()];
                t.has_installed_scores() && t.churn() > self.churn_threshold
            })
            .collect();
        // Junctions whose pair *order* an update/delete of a target table
        // staled (pairs sort by target importance) rebuild wholesale
        // after the replay; mutations of a junction's *own* rows are
        // maintained pair by pair.
        let mutated: Vec<TableId> = staged
            .iter()
            .filter(|op| !matches!(op, StagedOp::Insert { .. }))
            .map(|op| op.target().0)
            .collect();
        let link_dirty: Vec<TableId> = if mutated.is_empty() {
            Vec::new()
        } else {
            self.tables()
                .filter(|&(jid, _)| {
                    self.junction_orientations(jid).is_some_and(|orients| {
                        orients.iter().any(|&(_, _, t_table)| mutated.contains(&t_table))
                    })
                })
                .map(|(jid, _)| jid)
                .collect()
        };
        // Heals are *collected* during the replay and run after it: a
        // heal's rebuild reads the full current state, rows staged later
        // in this batch included, which the replay would then insert
        // again (duplicate pairs; regression-tested).
        let mut heals: Vec<TableId> = Vec::new();
        for op in &staged {
            let (tid, row) = op.target();
            // A mid-batch plain mutation dropped this table's order.
            if !self.tables[tid.index()].has_installed_scores() {
                continue;
            }
            let resorting = resort.contains(&tid);
            // A junction headed for a wholesale rebuild skips pair upkeep.
            let incremental = !resorting && !link_dirty.contains(&tid);
            match op {
                StagedOp::Insert { keys, .. } => {
                    if !link_dirty.contains(&tid) {
                        self.settle_junction_links(tid, row, keys, resorting);
                    }
                    self.collect_heals(tid, row, &mut heals);
                }
                // A junction row's move re-homes its pairs.
                StagedOp::Update { old_keys, new_keys, .. } if incremental => {
                    self.unpost_junction_row(tid, row, old_keys, true);
                    self.settle_junction_links(tid, row, new_keys, false);
                }
                // A junction row's delete tombstones its pairs.
                StagedOp::Delete { keys, .. } if incremental => {
                    self.unpost_junction_row(tid, row, keys, false);
                }
                StagedOp::Update { .. } | StagedOp::Delete { .. } => {}
            }
        }
        for &tid in &resort {
            self.tables[tid.index()].reset_churn();
        }
        let mut rebuild: Vec<TableId> = link_dirty
            .into_iter()
            .filter(|&jid| self.tables[jid.index()].has_installed_scores())
            .chain(resort)
            .chain(heals)
            .collect();
        rebuild.sort_unstable();
        rebuild.dedup();
        for jid in rebuild {
            self.rebuild_links_for(jid);
        }
        // Link compaction: at most one rebuild per table per batch.
        for &tid in &touched {
            let t = &self.tables[tid.index()];
            if t.has_installed_scores() && t.link_tombstones() > self.compaction_threshold {
                self.rebuild_links_for(tid);
                self.access.record_compaction();
            }
        }
        if let Some(epoch) = last_scored_epoch {
            // The stamp the fold would leave: the epoch of the last
            // *maintained* op. A trailing plain-fallback mutation bumps
            // the epoch further but never restamps in the fold either.
            self.fk_order = self.fk_order.map(|t| t.restamped(epoch));
        }
    }

    /// Joins one freshly inserted junction row into its table's sorted
    /// link postings, resolving source key and target pk from the op's
    /// *staged* keys (a later in-batch update may have moved the row's
    /// current values; the update's own settlement replays that move). A
    /// dead target snapshot drops the links; a *dangling* target FK drops
    /// them **and** registers the missing `(table, pk)` endpoint in the
    /// dangling watch, so the endpoint's later arrival repairs the
    /// orientation ([`Database::collect_heals`]) instead of leaving the
    /// table on the heap fallback until the next full install. With
    /// `skip_pairs` (its links are about to be rebuilt), only the drop/watch
    /// bookkeeping runs — the rebuild supplies the pairs.
    fn settle_junction_links(
        &mut self,
        jid: TableId,
        row: RowId,
        keys: &[(usize, i64)],
        skip_pairs: bool,
    ) {
        let Some(orientations) = self.junction_orientations(jid) else { return };
        let key_of = |col: usize| keys.iter().find(|&&(c, _)| c == col).map(|&(_, k)| k);
        let mut updates: Vec<(usize, i64, Option<RowId>, TableId)> = Vec::new();
        let mut drop_links = false;
        for (s_col, t_col, t_table) in orientations {
            if !self.tables[t_table.index()].has_installed_scores() {
                drop_links = true;
                continue;
            }
            let Some(key) = key_of(s_col) else { continue };
            let target = match key_of(t_col) {
                None => None, // NULL target: counts in raw_len only
                Some(k) => match self.tables[t_table.index()].by_pk(k) {
                    Some(r) => Some(r),
                    None => {
                        drop_links = true;
                        let waiters = self.dangling_watch.entry((t_table, k)).or_default();
                        if !waiters.contains(&jid) {
                            waiters.push(jid);
                        }
                        continue;
                    }
                },
            };
            updates.push((s_col, key, target, t_table));
        }
        if drop_links {
            self.tables[jid.index()].drop_sorted_links();
        } else if !skip_pairs {
            self.access.record_binary_insert();
            for (s_col, key, target, t_table) in updates {
                // Take the index out so the target table's score snapshot
                // can be borrowed alongside the junction table.
                let Some(mut idx) = self.tables[jid.index()].take_sorted_link(s_col) else {
                    continue;
                };
                idx.insert_scored(
                    key,
                    row,
                    target,
                    self.tables[t_table.index()].installed_scores(),
                );
                self.tables[jid.index()].set_sorted_link(s_col, idx);
            }
        }
    }

    /// Un-posts one junction row from both orientations of its table's
    /// sorted link postings, under the source keys it held in `keys`
    /// (raw group counts move with it). An *updated* row (`remove_pair`)
    /// is removed by identity scan — it re-joins under its new keys
    /// exactly like a fresh insert ([`Database::settle_junction_links`]);
    /// a *deleted* row's pairs stay behind as tombstones — consumers skip
    /// them via the dual-endpoint liveness check, and the debt recorded
    /// here triggers a rebuild once it crosses the compaction threshold
    /// (links' tombstone-then-compact discipline).
    fn unpost_junction_row(
        &mut self,
        jid: TableId,
        row: RowId,
        keys: &[(usize, i64)],
        remove_pair: bool,
    ) {
        let Some(orientations) = self.junction_orientations(jid) else { return };
        let mut debt = 0;
        for (s_col, _, _) in orientations {
            let Some(&(_, key)) = keys.iter().find(|&&(c, _)| c == s_col) else { continue };
            let Some(mut idx) = self.tables[jid.index()].take_sorted_link(s_col) else { continue };
            debt += usize::from(idx.unpost(key, row, remove_pair));
            self.tables[jid.index()].set_sorted_link(s_col, idx);
        }
        self.tables[jid.index()].add_link_tombstones(debt);
    }

    /// If the freshly inserted row is a watched missing endpoint, queues
    /// the waiting junctions for a post-settlement link rebuild (see
    /// [`Database::finish_scored_batch`]). The rebuild resolves every
    /// reference from current state; a junction with *another* endpoint
    /// still missing yields nothing and registers that endpoint, retrying
    /// when its own watch entry fires. Endpoints that arrive through the
    /// un-scored [`Database::insert`] cannot heal (the insert kills the
    /// target table's score snapshot, so there is no order to repair
    /// into).
    fn collect_heals(&mut self, tid: TableId, row: RowId, heals: &mut Vec<TableId>) {
        if self.dangling_watch.is_empty() {
            return;
        }
        let pk = self.tables[tid.index()].pk_of(row);
        let Some(waiters) = self.dangling_watch.remove(&(tid, pk)) else { return };
        for jid in waiters {
            if !heals.contains(&jid) {
                heals.push(jid);
            }
        }
    }
}
