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

/// One mutation staged in a [`ScoredBatch`], with the posting keys it
/// touches captured *at staging time* — settlement replays the ops in
/// order, and a row mutated more than once per batch has a different key
/// set at each step than its final values suggest.
#[derive(Debug)]
pub enum StagedOp {
    /// A scored insert awaiting binary posting insertion.
    Insert {
        /// The inserted row.
        target: (TableId, RowId),
        /// `(fk column, key)` posting entries the row held *at insert
        /// time* (a later in-batch update may have moved it since).
        keys: Vec<(usize, i64)>,
    },
    /// A scored update awaiting a reposition (remove under the old keys,
    /// re-insert at the new score under the new keys).
    Update {
        /// The rewritten row.
        target: (TableId, RowId),
        /// `(fk column, key)` posting entries the row held before this op.
        old_keys: Vec<(usize, i64)>,
        /// `(fk column, key)` posting entries the row holds after this op.
        new_keys: Vec<(usize, i64)>,
        /// The row's new installed importance.
        score: f64,
    },
    /// A scored delete: the row's posting entries stay behind as
    /// tombstones (counted toward the compaction debt).
    Delete {
        /// The tombstoned row.
        target: (TableId, RowId),
        /// `(fk column, key)` posting entries the row leaves behind.
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
/// whose sorted-posting maintenance is settled in **one** pass
/// ([`Database::finish_scored_batch`]): per affected table, either every
/// staged op replays incrementally (binary insert / reposition /
/// tombstone), or — above the churn threshold — one re-sort absorbs the
/// whole batch, instead of potentially several mid-stream re-sorts when
/// the same ops arrive as batches of one.
/// Junction link postings touched by any update/delete are rebuilt once
/// per batch, and at most one tombstone compaction per table runs at the
/// end. While the batch is open the affected tables' postings are
/// suspended, so probes conservatively heap-fall-back rather than scan
/// prefixes missing the staged ops.
///
/// The settled end state serves queries byte-identically to folding the
/// same ops as batches of one (property-tested at every churn and
/// compaction threshold); only compaction *timing* may differ, which is
/// invisible to probes (tombstones are skipped) and to accounting.
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
    /// score) lands in the table — visible to FK-group and PK reads,
    /// epoch bumped — but sorted-posting maintenance is deferred to
    /// [`Database::finish_scored_batch`]. The affected table's postings
    /// are suspended for the batch's duration (probes heap-fall-back).
    /// Falls back to the plain [`Database::insert`] when no live
    /// importance order covers the table (nothing to maintain).
    pub fn insert_scored_staged(
        &mut self,
        batch: &mut ScoredBatch,
        table: &str,
        values: Vec<Value>,
        score: f64,
    ) -> Result<RowId> {
        let tid = self.table_id(table)?;
        if self.fk_order.is_none() || !self.tables[tid.index()].has_installed_scores() {
            return self.insert(table, values);
        }
        self.touch(batch, tid);
        let t = &mut self.tables[tid.index()];
        let row = t.insert_scored_staged(values, score)?;
        let keys = t.fk_keys_of(row);
        self.epoch = self.epoch.next();
        batch.staged.push(StagedOp::Insert { target: (tid, row), keys });
        batch.last_scored_epoch = Some(self.epoch);
        Ok(row)
    }

    /// Stages one scored update into an open batch: the row is rewritten
    /// in place — hash-visible, epoch bumped — and its pre-/post-update
    /// posting keys are captured so [`Database::finish_scored_batch`] can
    /// replay the reposition. Falls back to the plain
    /// [`Database::update`] when no live order covers the table.
    pub fn update_scored_staged(
        &mut self,
        batch: &mut ScoredBatch,
        table: &str,
        pk: i64,
        values: Vec<Value>,
        score: f64,
    ) -> Result<RowId> {
        let tid = self.table_id(table)?;
        if self.fk_order.is_none() || !self.tables[tid.index()].has_installed_scores() {
            return self.update(table, pk, values);
        }
        self.touch(batch, tid);
        let t = &mut self.tables[tid.index()];
        let old_keys = match t.by_pk(pk) {
            Some(row) => t.fk_keys_of(row),
            // Let the validated path produce the canonical error.
            None => Vec::new(),
        };
        let row = t.update_scored_staged(pk, values)?;
        let new_keys = t.fk_keys_of(row);
        self.epoch = self.epoch.next();
        batch.staged.push(StagedOp::Update { target: (tid, row), old_keys, new_keys, score });
        batch.last_scored_epoch = Some(self.epoch);
        Ok(row)
    }

    /// Stages one scored delete into an open batch: the row is
    /// tombstoned — invisible to hash reads, epoch bumped — and the
    /// posting keys it leaves behind are captured so settlement can count
    /// the compaction debt. Falls back to the plain [`Database::delete`]
    /// when no live order covers the table.
    pub fn delete_scored_staged(
        &mut self,
        batch: &mut ScoredBatch,
        table: &str,
        pk: i64,
    ) -> Result<RowId> {
        let tid = self.table_id(table)?;
        if self.fk_order.is_none() || !self.tables[tid.index()].has_installed_scores() {
            return self.delete(table, pk);
        }
        self.touch(batch, tid);
        let t = &mut self.tables[tid.index()];
        let keys = match t.by_pk(pk) {
            Some(row) => t.fk_keys_of(row),
            None => Vec::new(),
        };
        let row = t.delete_scored_staged(pk)?;
        self.epoch = self.epoch.next();
        batch.staged.push(StagedOp::Delete { target: (tid, row), keys });
        batch.last_scored_epoch = Some(self.epoch);
        Ok(row)
    }

    /// Suspends a table's postings at its first touch by an open batch.
    fn touch(&mut self, batch: &mut ScoredBatch, tid: TableId) {
        if !batch.touched.contains(&tid) {
            self.tables[tid.index()].suspend_postings();
            batch.touched.push(tid);
        }
    }

    /// Settles an open batch by *replaying* the staged ops in arrival
    /// order: per op, a binary posting insert, a reposition (remove under
    /// the old keys, re-insert at the new score), or a tombstone count —
    /// or, for tables whose accumulated churn crosses the threshold,
    /// **one** full re-sort for the whole batch (where the fold pays one
    /// mid-stream re-sort per threshold crossing). Junction link postings
    /// made stale by any update/delete — of the junction's own rows *or*
    /// of rows its pairs target — are rebuilt once per batch (a rebuild
    /// that trips over a now-dead target drops the orientation and
    /// watches the endpoint, so a re-inserted pk heals it: the dangling
    /// watch run in reverse). Endpoint arrivals heal waiting junctions,
    /// tables whose tombstone debt crossed the compaction threshold
    /// compact (at most once each), and the [`crate::FkOrderToken`] is
    /// re-stamped once.
    ///
    /// Serves queries byte-identically to the fold of the same ops as
    /// batches of one; internal scheduling state (the
    /// churn counter, compaction timing) may differ, which is
    /// content-neutral: re-sorts are order-equivalent and tombstones are
    /// invisible to probes.
    pub fn finish_scored_batch(&mut self, batch: ScoredBatch) {
        let ScoredBatch { staged, touched, last_scored_epoch } = batch;
        for &tid in &touched {
            self.tables[tid.index()].resume_postings();
        }
        // Tables whose accumulated churn crosses the threshold settle by
        // one re-sort; their staged ops skip incremental replay.
        let resort: Vec<TableId> = touched
            .iter()
            .copied()
            .filter(|&tid| {
                let t = &self.tables[tid.index()];
                t.has_installed_scores() && t.churn() > self.churn_threshold
            })
            .collect();
        // Junctions whose pair *order* any update/delete staled — by
        // mutating rows of a table their pairs target (pairs sort by
        // target importance) — rebuild wholesale after the replay.
        // Mutations of a junction's *own* rows no longer force a rebuild:
        // pair membership is maintained incrementally (reposition on
        // update, tombstone-then-compact on delete — the FK postings'
        // discipline extended to links, with consumers skipping dead
        // pairs via dual-endpoint liveness checks).
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
        // Heals are *collected* during settlement and run after it: a
        // heal's wholesale rebuild reads the full current state, which
        // already contains rows staged later in this batch — firing it
        // mid-loop would rebuild their pairs and then binary-insert them
        // again when the loop reaches them (duplicate pairs; regression-
        // tested). Deferred, the rebuild subsumes those rows exactly once
        // and ends at the same full-state content as the fold's
        // heal-then-insert sequence.
        let mut heals: Vec<TableId> = Vec::new();
        for op in &staged {
            let (tid, row) = op.target();
            // A mid-batch un-scored mutation may have killed the snapshot;
            // its table's postings are already gone, nothing to settle.
            if !self.tables[tid.index()].has_installed_scores() {
                continue;
            }
            let resorting = resort.contains(&tid);
            match op {
                StagedOp::Insert { keys, .. } => {
                    if !resorting {
                        self.tables[tid.index()].insert_into_postings(row, keys);
                        self.access.record_binary_insert();
                    }
                    // A junction headed for a wholesale link rebuild skips
                    // incremental pair maintenance — the rebuild reads the
                    // final state and subsumes this row's pairs.
                    if !link_dirty.contains(&tid) {
                        self.settle_junction_links(tid, row, keys, resorting);
                    }
                    self.collect_heals(tid, row, &mut heals);
                }
                StagedOp::Update { old_keys, new_keys, score, .. } => {
                    if !resorting {
                        self.tables[tid.index()].remove_from_postings(row, old_keys);
                    }
                    // The snapshot takes the new score *between* removal
                    // and re-insertion, so the postings' sort keys never
                    // disagree with it — binary searches stay valid.
                    self.tables[tid.index()].set_installed_score(row, *score);
                    if !resorting {
                        self.tables[tid.index()].insert_into_postings(row, new_keys);
                        self.access.record_binary_insert();
                    }
                    // A junction row's move repositions its link pairs
                    // incrementally (remove under the old source key,
                    // re-insert under the new), unless a rebuild covers it.
                    if !resorting && !link_dirty.contains(&tid) {
                        self.unpost_junction_row(tid, row, old_keys, true);
                        self.settle_junction_links(tid, row, new_keys, false);
                    }
                }
                StagedOp::Delete { keys, .. } => {
                    if !resorting {
                        // The entries stay behind as tombstones; probes
                        // skip them, the debt below triggers compaction.
                        self.tables[tid.index()].add_posting_tombstones(keys.len());
                        // A junction row's delete tombstones its pairs the
                        // same way: consumers skip them via the junction-
                        // endpoint liveness check, and the link debt
                        // triggers a rebuild once it crosses the threshold.
                        if !link_dirty.contains(&tid) {
                            self.unpost_junction_row(tid, row, keys, false);
                        }
                    }
                }
            }
        }
        let mut rebuilt: Vec<TableId> = Vec::new();
        for &tid in &resort {
            if self.tables[tid.index()].has_installed_scores() {
                self.tables[tid.index()].resort_from_snapshot();
                self.access.record_posting_resort();
                self.rebuild_links_for(tid);
                rebuilt.push(tid);
            }
        }
        for &jid in &link_dirty {
            if !rebuilt.contains(&jid) && self.tables[jid.index()].has_installed_scores() {
                self.rebuild_links_for(jid);
                rebuilt.push(jid);
            }
        }
        for jid in heals {
            if !rebuilt.contains(&jid) {
                self.rebuild_links_for(jid);
            }
        }
        // Compaction: at most one pass per table per batch, once the
        // tombstone debt its deletes left behind crosses the threshold.
        // (A churn re-sort above already paid the debt off — it rebuilds
        // from the live-only FK groups — so it cannot re-trigger here.)
        for &tid in &touched {
            let t = &self.tables[tid.index()];
            if t.has_installed_scores() && t.fk_tombstones() > self.compaction_threshold {
                self.tables[tid.index()].resort_from_snapshot();
                self.access.record_compaction();
            }
            // Junction pair tombstones compact by a wholesale link
            // rebuild (live pairs only) under the same threshold.
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
    /// `skip_pairs` (the table is about to re-sort), only the drop/watch
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
    /// (the FK postings' tombstone-then-compact discipline extended to
    /// links).
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
