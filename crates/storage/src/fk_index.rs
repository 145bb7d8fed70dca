//! Importance-sorted foreign-key runs.
//!
//! The Avoidance-Condition-2 probe (`SELECT * TOP l FROM Ri WHERE
//! tj.ID = Ri.ID AND Ri.li > largest-l ORDER BY li DESC`, Algorithm 4
//! line 10) asks for a *prefix* of an FK group under a fixed ordering:
//! local importance `li(t) = Im(t) · Af(Ri)` is the per-tuple global
//! importance scaled by a per-relation constant, so *one* global-importance
//! order per table serves every GDS node reading it. Pre-sorting each FK
//! posting list by descending global importance turns the probe from a
//! heap pass over the whole group (`O(g log l)`) into a bounded prefix
//! scan (`O(l)`).
//!
//! Ordering contract: postings are sorted by `(score descending, RowId
//! ascending)`, and the prefix scan is valid for any `li` that is a
//! *monotone non-decreasing* function of the installed score — `li =
//! global · affinity` qualifies because IEEE multiplication by a positive
//! constant is monotone. Monotone maps can still collapse distinct scores
//! to equal `li` (a 1-ulp score gap erased by the multiplication), where
//! the raw posting order (score desc) and the heap path's tie order
//! (`RowId` asc, per [`crate::top_l`]) differ; the scan therefore collects
//! the li-tie run straddling the cut in full and re-ranks it by `(li
//! desc, RowId asc)`, keeping the two paths byte-identical
//! unconditionally (unit- and property-tested).
//!
//! Because the sort key is external (global importance is computed by the
//! ranking layer *after* the database is loaded), installation is a
//! finalization step: [`crate::Database::install_importance_order`] sorts
//! every posting list and returns an opaque [`FkOrderToken`]. Query paths
//! pass the token they expect back in; the fast path only fires when it
//! matches the installed one, so a context carrying scores from a
//! *different* ranking setting silently falls back to the heap path
//! instead of scanning postings in the wrong order.
//!
//! **Updates.** The installed order is *maintained*, not torn down, under
//! the staged scored batch ([`crate::Database::begin_scored_batch`]), by
//! one rule: a staged row is appended at its run's tail, settlement
//! re-sorts exactly the runs the batch appended to or re-scored, and a
//! removed row leaves its run where it lies. Every run then holds live
//! rows only, in the one posting order — byte-identical to a
//! from-scratch install (property-tested). The token is **re-stamped**
//! with the database's new [`Epoch`] — contexts built after the mutation
//! (whose scores carry the re-stamped token) keep the prefix-scan fast
//! path, while contexts holding the superseded token fall back to the
//! heap path. The plain [`crate::Database::insert`] leaves the affected
//! table without a sorted index (it has no score to place the row with)
//! and with its runs unbuilt until [`crate::Database::build_runs`]
//! builds them again, in row order, for the next install to sort.
//!
//! **One index.** [`SortedFkIndex`] is the one sorted index: it holds the
//! posted [`RowId`]s themselves and is the table's FK group itself, not a
//! copy of it. A junction step (`SELECT T.* TOP l FROM J, T ...`) keeps
//! no index of its own: it reads the junction's FK run and resolves each
//! junction row's target through the target's primary key
//! ([`crate::Table::parent_of`],
//! [`crate::Database::select_via_junction_top_l_into`]).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::epoch::Epoch;
use crate::runs::Runs;
use crate::table::RowId;

/// Identifies one installed importance ordering at one mutation epoch.
///
/// The `order` id is process-unique
/// ([`crate::Database::install_importance_order`] mints a fresh one on
/// every call), so a token can never validate against an ordering it was
/// not minted for. The `epoch` distinguishes *versions* of one order:
/// scored inserts re-stamp the installed token with the new epoch instead
/// of invalidating it, so holders of the superseded token (score sets
/// that predate the mutation) heap-fall-back while freshly synchronized
/// contexts keep the fast path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FkOrderToken {
    order: u64,
    epoch: Epoch,
}

static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

impl FkOrderToken {
    /// Mints a token with a process-unique order id at `epoch`.
    pub(crate) fn fresh(epoch: Epoch) -> FkOrderToken {
        FkOrderToken { order: NEXT_TOKEN.fetch_add(1, Ordering::Relaxed), epoch }
    }

    /// The same order, re-stamped at a later epoch (maintenance, not
    /// re-installation).
    #[must_use]
    pub(crate) fn restamped(self, epoch: Epoch) -> FkOrderToken {
        FkOrderToken { order: self.order, epoch }
    }

    /// The mutation epoch this token was (re-)stamped at.
    pub fn epoch(self) -> Epoch {
        self.epoch
    }

    /// True when `other` is the same installed order, at any epoch.
    pub fn same_order(self, other: FkOrderToken) -> bool {
        self.order == other.order
    }
}

/// The one posting order: `(score desc, RowId asc)` — a strict total
/// order over a list's distinct rows. `score` reads a row's installed
/// score.
fn posting_order(a: RowId, b: RowId, score: &impl Fn(RowId) -> f64) -> std::cmp::Ordering {
    score(b).total_cmp(&score(a)).then(a.cmp(&b))
}

/// The runs of one FK column: its groups, best importance first while an
/// order is installed ([`crate::Table::sorted_fk_index`]) — every list
/// one run of one arena ([`Runs`]) under the one posting order
/// (`posting_order`).
#[derive(Clone, Debug, Default)]
pub struct SortedFkIndex {
    pub(crate) runs: Runs<RowId>,
}

/// Sorts one list where it lies. The order is strict and total, so the
/// unstable sort has one possible output.
fn sort_rows(rows: &mut [RowId], score: &impl Fn(RowId) -> f64) {
    rows.sort_unstable_by(|&a, &b| posting_order(a, b, score));
}

impl SortedFkIndex {
    /// Sorts every run where it lies by `score`.
    pub(crate) fn sort(&mut self, score: impl Fn(RowId) -> f64) {
        self.runs.for_each_run_mut(|rows| sort_rows(rows, &score));
    }

    /// Sorts `key`'s run where it lies by `score` (no-op for an absent
    /// key).
    pub(crate) fn sort_run(&mut self, key: i64, score: impl Fn(RowId) -> f64) {
        if let Some(rows) = self.runs.get_mut(key) {
            sort_rows(rows, &score);
        }
    }

    /// Appends `row` at the tail of `key`'s run, out of order until the
    /// run is sorted again.
    pub(crate) fn push(&mut self, key: i64, row: RowId) {
        self.runs.insert_with(key, row, <[RowId]>::len);
    }

    /// Removes `row` from `key`'s list by identity scan — a deleted or
    /// re-homed row, wherever the list's order put it. A list that
    /// empties drops its key, matching a fresh build. No-op if it is not
    /// posted.
    pub(crate) fn remove(&mut self, key: i64, row: RowId) {
        self.runs.remove_with(key, |rows| rows.iter().position(|&r| r == row));
    }

    /// The rows whose FK equals `key`, best-importance first: the empty
    /// list for an absent key.
    pub fn rows(&self, key: i64) -> &[RowId] {
        self.runs.get(key).unwrap_or(&[])
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.runs.key_count()
    }

    /// Every posting list, in directory order — unspecified: the keys of
    /// a dense span in key order, the rest in an order that follows the
    /// per-process hash seed (segment writers sort the keys themselves
    /// for a deterministic on-disk layout).
    pub fn posting_lists(&self) -> impl Iterator<Item = (i64, &[RowId])> {
        self.runs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FK groups holding `rows` under `key`.
    fn groups(key: i64, rows: &[RowId]) -> Runs<RowId> {
        let mut base = Runs::default();
        for &row in rows {
            append(&mut base, key, row);
        }
        base
    }

    fn append(base: &mut Runs<RowId>, key: i64, row: RowId) {
        base.insert_with(key, row, <[RowId]>::len);
    }

    /// `base` sorted under `scores`, as an install leaves an FK column.
    fn build(base: &Runs<RowId>, scores: &[f64]) -> SortedFkIndex {
        let mut idx = SortedFkIndex { runs: base.clone() };
        idx.sort(by(scores));
        idx
    }

    /// The score accessor of a per-row score array.
    fn by(scores: &[f64]) -> impl Fn(RowId) -> f64 + '_ {
        |r| scores[r.index()]
    }

    #[test]
    fn tokens_are_unique_and_restamp_preserves_order_identity() {
        let a = FkOrderToken::fresh(Epoch(0));
        let b = FkOrderToken::fresh(Epoch(0));
        assert_ne!(a, b);
        let a2 = a.restamped(Epoch(3));
        assert_ne!(a, a2, "a re-stamped token no longer equals the superseded one");
        assert!(a.same_order(a2), "re-stamping preserves the order identity");
        assert!(!a.same_order(b));
        assert_eq!(a2.epoch(), Epoch(3));
    }

    #[test]
    fn build_sorts_by_score_desc_then_row_asc() {
        let base = groups(7, &[RowId(0), RowId(1), RowId(2), RowId(3)]);
        let scores = [1.0, 3.0, 3.0, 2.0];
        let idx = build(&base, &scores);
        assert_eq!(idx.rows(7), &[RowId(1), RowId(2), RowId(3), RowId(0)]);
        assert!(idx.rows(99).is_empty());
        assert_eq!(idx.key_count(), 1);
    }

    #[test]
    fn incremental_insert_matches_rebuild() {
        let mut base = groups(7, &[RowId(0), RowId(1), RowId(2)]);
        let mut scores = vec![1.0, 3.0, 2.0];
        let mut idx = build(&base, &scores);
        // Append rows with a fresh-max, a middle, and a tying score.
        for (row, s) in [(RowId(3), 5.0), (RowId(4), 2.5), (RowId(5), 3.0)] {
            scores.push(s);
            append(&mut base, 7, row);
            idx.push(7, row);
            idx.sort_run(7, by(&scores));
            let rebuilt = build(&base, &scores);
            assert_eq!(idx.rows(7), rebuilt.rows(7), "after appending {row:?}");
        }
        assert_eq!(
            idx.rows(7),
            &[RowId(3), RowId(1), RowId(5), RowId(4), RowId(2), RowId(0)],
            "ties resolved by ascending RowId"
        );
    }

    #[test]
    fn rows_appended_then_sorted_in_their_run_match_rebuild() {
        let scores = [2.0, 1.0, 2.0, 3.0, 1.0];
        let mut idx = build(&groups(7, &[RowId(0), RowId(1), RowId(2)]), &scores);
        idx.push(7, RowId(3));
        idx.push(7, RowId(4));
        assert_eq!(idx.rows(7), &[RowId(0), RowId(2), RowId(1), RowId(3), RowId(4)]);
        idx.sort_run(7, by(&scores));
        idx.sort_run(8, by(&scores)); // an absent key: a no-op
        let all = groups(7, &[RowId(0), RowId(1), RowId(2), RowId(3), RowId(4)]);
        assert_eq!(idx.rows(7), build(&all, &scores).rows(7));
        assert_eq!(idx.rows(7), &[RowId(3), RowId(0), RowId(2), RowId(1), RowId(4)]);
    }

    #[test]
    fn remove_then_reinsert_matches_rebuild_for_mid_table_rows() {
        let base = groups(7, &[RowId(0), RowId(1), RowId(2), RowId(3)]);
        let mut scores = vec![1.0, 3.0, 3.0, 2.0];
        let mut idx = build(&base, &scores);
        // Reposition row 0 (a mid-table RowId) to score 3.0: it ties rows
        // 1 and 2 and must land *before* both, as a fresh sort would.
        idx.remove(7, RowId(0));
        scores[0] = 3.0;
        idx.push(7, RowId(0));
        idx.sort_run(7, by(&scores));
        let rebuilt = build(&base, &scores);
        assert_eq!(idx.rows(7), rebuilt.rows(7));
        assert_eq!(idx.rows(7), &[RowId(0), RowId(1), RowId(2), RowId(3)]);
        // Removing the last row of a key drops the key entirely.
        let solo = groups(9, &[RowId(5)]);
        let mut idx2 = build(&solo, &[1.0; 6]);
        idx2.remove(9, RowId(5));
        assert_eq!(idx2.key_count(), 0);
        // Removing an unposted row is a no-op.
        idx2.remove(9, RowId(6));
    }
}
