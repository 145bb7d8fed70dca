//! Importance-sorted foreign-key and junction-link indexes.
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
//! one rule for FK runs and link runs alike: a staged entry is appended
//! at its run's tail, settlement re-sorts exactly the runs the batch
//! appended to or re-scored, and a removed entry leaves its run where it
//! lies. Every run then holds live entries only, in the one posting
//! order — byte-identical to a from-scratch install (property-tested).
//! The token is **re-stamped** with the
//! database's new [`Epoch`] — contexts built after the mutation (whose
//! scores carry the re-stamped token) keep the prefix-scan fast path,
//! while contexts holding the superseded token fall back to the heap
//! path. The plain [`crate::Database::insert`] leaves the affected table
//! without a sorted index (it has no score to place the row with).
//!
//! **One index type.** [`SortedPostings`] is the one sorted index, generic
//! over its entry ([`Posting`]): an FK list holds the posted [`RowId`]s
//! themselves ([`SortedFkIndex`]) and is the table's FK group itself, not
//! a copy of it; a junction's link group holds, per source key, the
//! `(junction row, target row)` pairs pre-joined and ordered by the
//! *target's* importance ([`SortedLinkIndex`]), so junction-source TOP-l
//! probes are prefix scans too. An entry names the row whose installed
//! score orders it and the row that identifies it for removal; sorting
//! and identity-scan removal are written once over those two, under the
//! one `(score desc, scored RowId asc, ident RowId asc)` comparator.

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

/// One entry of a sorted posting list.
pub trait Posting: Copy + std::fmt::Debug {
    /// What a list keeps per key beside its entries: nothing for FK
    /// lists, the raw junction group size for link groups.
    type Raw: Copy + Default + PartialEq + std::fmt::Debug;

    /// The row whose installed score orders the entry.
    fn scored(self) -> RowId;

    /// The row that identifies the entry for removal.
    fn ident(self) -> RowId;
}

/// An FK posting: the posted row orders and identifies itself.
impl Posting for RowId {
    type Raw = ();

    fn scored(self) -> RowId {
        self
    }

    fn ident(self) -> RowId {
        self
    }
}

/// A link posting `(junction row, target row)`: ordered by the target,
/// identified by the junction row. `Raw` is the size of the raw junction
/// FK group for the key (it includes junction rows whose target FK is
/// NULL); the prefix-scan probe reports it as the junction-probe tuple
/// count so its access accounting is identical to the heap path's.
impl Posting for (RowId, RowId) {
    type Raw = u32;

    fn scored(self) -> RowId {
        self.1
    }

    fn ident(self) -> RowId {
        self.0
    }
}

/// The one posting order: `(score desc, scored RowId asc, ident RowId
/// asc)` — a strict total order over a list's distinct entries.
fn posting_order<E: Posting>(a: E, b: E, scores: &[f64]) -> std::cmp::Ordering {
    scores[b.scored().index()]
        .total_cmp(&scores[a.scored().index()])
        .then(a.scored().cmp(&b.scored()))
        .then(a.ident().cmp(&b.ident()))
}

/// Importance-sorted postings keyed by an FK value, every list one run of
/// one arena ([`Runs`]) under the one posting order (`posting_order`).
#[derive(Clone, Debug)]
pub struct SortedPostings<E: Posting> {
    pub(crate) runs: Runs<E, E::Raw>,
}

/// The runs of one FK column: its groups, best importance first while an
/// order is installed ([`crate::Table::sorted_fk_index`]).
pub type SortedFkIndex = SortedPostings<RowId>;

/// Per-(junction, orientation) link postings: for each source key, the
/// junction rows joined to their target rows, best target first. Lives on
/// the *junction* table, keyed by the source FK column.
pub type SortedLinkIndex = SortedPostings<(RowId, RowId)>;

/// Sorts one list where it lies. The order is strict and total, so the
/// unstable sort has one possible output.
fn sort_entries<E: Posting>(entries: &mut [E], scores: &[f64]) {
    entries.sort_unstable_by(|&a, &b| posting_order(a, b, scores));
}

impl<E: Posting> SortedPostings<E> {
    /// Sorts every run where it lies against `scores`.
    pub(crate) fn sort(&mut self, scores: &[f64]) {
        self.runs.for_each_run_mut(|entries| sort_entries(entries, scores));
    }

    /// Sorts `key`'s run where it lies (no-op for an absent key).
    pub(crate) fn sort_run(&mut self, key: i64, scores: &[f64]) {
        if let Some(entries) = self.runs.get_mut(key) {
            sort_entries(entries, scores);
        }
    }

    /// Appends `entry` at the tail of `key`'s run, out of order until the
    /// run is sorted again.
    pub(crate) fn push(&mut self, key: i64, entry: E) {
        self.runs.insert_with(key, entry, <[E]>::len);
    }

    /// Removes the entry `ident` identifies from `key`'s list by identity
    /// scan — a deleted or re-homed row, wherever the list's order put
    /// it. An FK list that empties drops its key, matching a fresh build.
    /// No-op if it is not posted.
    pub(crate) fn remove_ident(&mut self, key: i64, ident: RowId) {
        self.runs.remove_with(key, |entries| entries.iter().position(|e| e.ident() == ident));
    }

    /// The entries posted under `key`, best importance first, and the
    /// key's extra: the empty group for an absent key.
    pub(crate) fn group(&self, key: i64) -> (&[E], E::Raw) {
        self.runs.get(key).unwrap_or((&[], E::Raw::default()))
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.runs.key_count()
    }

    /// Every posting list, in directory order — unspecified, it follows
    /// the per-process hash seed (segment writers sort the keys
    /// themselves for a deterministic on-disk layout).
    pub fn posting_lists(&self) -> impl Iterator<Item = (i64, &[E])> {
        self.runs.iter().map(|(k, entries, _)| (k, entries))
    }
}

impl SortedPostings<RowId> {
    /// The rows whose FK equals `key`, best-importance first.
    pub fn rows(&self, key: i64) -> &[RowId] {
        self.group(key).0
    }
}

impl SortedPostings<(RowId, RowId)> {
    /// Builds the index for one orientation of a junction table.
    ///
    /// `base` is the junction's FK groups on the *source* column;
    /// `target_of` resolves a junction row's target row (`None` for a NULL
    /// or dangling target FK: the row counts toward the raw group and has
    /// no pair, as the heap path reads it); `target_scores[t]` is the
    /// installed importance of target row `t`. One pass over `base`'s runs
    /// writes every key's pairs into one arena, then each run is sorted
    /// where it lies.
    pub(crate) fn build(
        base: &Runs<RowId>,
        target_of: &dyn Fn(RowId) -> Option<RowId>,
        target_scores: &[f64],
    ) -> SortedLinkIndex {
        let mut runs = Runs::with_capacity(base.key_count(), base.entry_count());
        for (key, jrows, ()) in base.iter() {
            runs.push_run(key, jrows.len() as u32, |pairs| {
                pairs.extend(jrows.iter().filter_map(|&j| Some((j, target_of(j)?))));
            });
        }
        let mut links = SortedPostings { runs };
        links.sort(target_scores);
        links
    }

    /// One junction row joins `key`'s group: the raw group grows by one
    /// and the row's pair, if its target resolved, is appended at the
    /// run's tail, out of order until the run is sorted again.
    pub(crate) fn join(&mut self, key: i64, junction_row: RowId, target: Option<RowId>) {
        *self.runs.extra_mut(key) += 1;
        if let Some(t) = target {
            self.push(key, (junction_row, t));
        }
    }

    /// One junction row leaves `key`'s group: its pair, if posted, by
    /// identity scan, and its count in the raw group. A group left with
    /// no row drops its key, as a fresh build has it.
    pub(crate) fn leave(&mut self, key: i64, junction_row: RowId) {
        *self.runs.extra_mut(key) -= 1;
        self.remove_ident(key, junction_row);
        if let Some(([], 0)) = self.runs.get(key) {
            self.runs.remove_key(key);
        }
    }

    /// The `(junction row, target row)` pairs of `key`, best target
    /// first; both endpoints of every pair are live.
    pub fn pairs(&self, key: i64) -> &[(RowId, RowId)] {
        self.group(key).0
    }

    /// The raw junction FK group size of `key` (what a heap-path junction
    /// probe reports as its tuple count).
    pub fn raw_group_len(&self, key: i64) -> usize {
        self.group(key).1 as usize
    }

    /// Every source key's group — `(key, pairs, raw_len)` — in directory
    /// order, as [`SortedPostings::posting_lists`].
    pub fn groups(&self) -> impl Iterator<Item = (i64, &[(RowId, RowId)], usize)> {
        self.runs.iter().map(|(k, pairs, raw)| (k, pairs, raw as usize))
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
        let mut idx = SortedPostings { runs: base.clone() };
        idx.sort(scores);
        idx
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
            idx.sort_run(7, &scores);
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
        idx.sort_run(7, &scores);
        idx.sort_run(8, &scores); // an absent key: a no-op
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
        idx.remove_ident(7, RowId(0));
        scores[0] = 3.0;
        idx.push(7, RowId(0));
        idx.sort_run(7, &scores);
        let rebuilt = build(&base, &scores);
        assert_eq!(idx.rows(7), rebuilt.rows(7));
        assert_eq!(idx.rows(7), &[RowId(0), RowId(1), RowId(2), RowId(3)]);
        // Removing the last row of a key drops the key entirely.
        let solo = groups(9, &[RowId(5)]);
        let mut idx2 = build(&solo, &[1.0; 6]);
        idx2.remove_ident(9, RowId(5));
        assert_eq!(idx2.key_count(), 0);
        // Removing an unposted row is a no-op.
        idx2.remove_ident(9, RowId(6));
    }

    #[test]
    fn link_index_build_and_incremental_insert_match() {
        // Junction rows 0..4 map source key 7 to targets with varying
        // scores; row 4 has a NULL target (counts in raw_len, no pair).
        let mut base = groups(7, &[RowId(0), RowId(1), RowId(2), RowId(3), RowId(4)]);
        let mut targets =
            vec![Some(RowId(0)), Some(RowId(1)), Some(RowId(2)), Some(RowId(1)), None];
        let mut tscores = vec![2.0, 3.0, 1.0];
        let mut idx = SortedLinkIndex::build(&base, &|j: RowId| targets[j.index()], &tscores);
        assert_eq!(idx.raw_group_len(7), 5);
        assert_eq!(
            idx.pairs(7),
            &[
                (RowId(1), RowId(1)),
                (RowId(3), RowId(1)),
                (RowId(0), RowId(0)),
                (RowId(2), RowId(2))
            ]
        );
        // Join a new target row (score 2.5) through a junction row, one
        // tying an existing (score, target) pair, and one whose target
        // dangles; the run is re-sorted once, as settlement does.
        tscores.push(2.5);
        for (j, target) in
            [(RowId(5), Some(RowId(3))), (RowId(6), Some(RowId(1))), (RowId(7), None)]
        {
            idx.join(7, j, target);
            append(&mut base, 7, j);
            targets.push(target);
        }
        idx.sort_run(7, &tscores);
        let rebuilt = SortedLinkIndex::build(&base, &|j: RowId| targets[j.index()], &tscores);
        assert_eq!(idx.pairs(7), rebuilt.pairs(7));
        assert_eq!(idx.raw_group_len(7), 8);
        assert_eq!(idx.raw_group_len(7), rebuilt.raw_group_len(7));

        // Leaving removes the pair where it lies and the row's raw count;
        // the last row out drops the key.
        idx.leave(7, RowId(1));
        assert_eq!(idx.raw_group_len(7), 7);
        assert!(idx.pairs(7).iter().all(|&(j, _)| j != RowId(1)));
        let solo = groups(9, &[RowId(4)]);
        let mut idx = SortedLinkIndex::build(&solo, &|_: RowId| None, &tscores);
        assert_eq!((idx.pairs(9).len(), idx.raw_group_len(9)), (0, 1));
        idx.leave(9, RowId(4));
        assert_eq!(idx.key_count(), 0);
    }
}
