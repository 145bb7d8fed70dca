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
//! scored inserts ([`crate::Database::insert_scored_staged`]): the new row is
//! binary-inserted into every affected posting list and the token is
//! **re-stamped** with the database's new [`Epoch`] — contexts built
//! after the mutation (whose scores carry the re-stamped token) keep the
//! prefix-scan fast path, while contexts holding the superseded token
//! fall back to the heap path. Only the plain
//! [`crate::Database::insert`] still drops the affected table's sorted
//! postings (it has no score to place the row with). Above a churn
//! threshold the per-table maintenance switches to an epoch-batched full
//! re-sort, amortizing the `O(g)` memmove of many binary inserts into one
//! `O(Σ g log g)` pass; both strategies are byte-identical to a
//! from-scratch install (property-tested).
//!
//! [`SortedLinkIndex`] extends the same idea to junction tables: per
//! (junction, orientation), the junction rows of each source key are
//! pre-joined to their target rows and sorted by descending *target*
//! importance, so junction-source TOP-l probes (CoAuthor, citations)
//! become prefix scans too — mirroring the data graph's collapsed
//! `MnLink`, but with counted accesses.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::epoch::Epoch;
use crate::hash::IntMap;
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

/// The importance-sorted postings of one FK column: the same keys and row
/// sets as the base hash index, with every posting list pre-sorted by
/// `(score descending, RowId ascending)`.
#[derive(Clone, Debug, Default)]
pub struct SortedFkIndex {
    postings: IntMap<Vec<RowId>>,
}

impl SortedFkIndex {
    /// Builds the sorted copy of a base FK index; `scores[r]` is the
    /// installed score of row `r`. Each list is copied once and sorted
    /// where it lies. The comparator is a strict total order over a
    /// list's distinct row ids, so the unstable sort has one possible
    /// output.
    pub(crate) fn build(base: &IntMap<Vec<RowId>>, scores: &[f64]) -> SortedFkIndex {
        let mut postings = IntMap::with_capacity_and_hasher(base.len(), Default::default());
        for (&key, rows) in base {
            let mut list = rows.clone();
            if list.len() > 1 {
                list.sort_unstable_by(|a, b| {
                    scores[b.index()].total_cmp(&scores[a.index()]).then(a.cmp(b))
                });
            }
            postings.insert(key, list);
        }
        SortedFkIndex { postings }
    }

    /// Binary-inserts a row into `key`'s posting list at its exact
    /// `(score desc, RowId asc)` position — where a full re-sort would put
    /// it. `scores[r]` must give the installed score of every
    /// already-posted row (tombstoned entries keep their stale score, so
    /// the comparisons stay consistent). Serves both freshly appended rows
    /// (always the largest RowId) and *re*-insertions of updated mid-table
    /// rows, where the RowId tie-break is load-bearing.
    pub(crate) fn insert_scored(&mut self, key: i64, row: RowId, score: f64, scores: &[f64]) {
        let list = self.postings.entry(key).or_default();
        let pos = list.partition_point(|&r| match scores[r.index()].total_cmp(&score) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Equal => r < row,
            std::cmp::Ordering::Less => false,
        });
        list.insert(pos, row);
    }

    /// Removes a row from `key`'s posting list by identity scan (the
    /// settlement removal phase for updated rows, whose installed score is
    /// about to change — a binary search by the *new* score would look in
    /// the wrong place). Drops the key when the list empties, matching a
    /// fresh build. No-op if the row is not posted.
    pub(crate) fn remove(&mut self, key: i64, row: RowId) {
        if let Some(list) = self.postings.get_mut(&key) {
            if let Some(pos) = list.iter().position(|&r| r == row) {
                list.remove(pos);
            }
            if list.is_empty() {
                self.postings.remove(&key);
            }
        }
    }

    /// The rows whose FK equals `key`, best-importance first.
    pub fn rows(&self, key: i64) -> &[RowId] {
        static EMPTY: [RowId; 0] = [];
        self.postings.get(&key).map(|v| v.as_slice()).unwrap_or(&EMPTY)
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.postings.len()
    }

    /// Every posting list, in hash order (segment writers sort the keys
    /// themselves for a deterministic on-disk layout).
    pub fn posting_lists(&self) -> impl Iterator<Item = (i64, &[RowId])> {
        self.postings.iter().map(|(&k, v)| (k, v.as_slice()))
    }
}

/// One source key's pre-joined postings in a [`SortedLinkIndex`].
#[derive(Clone, Debug, Default)]
struct LinkPostings {
    /// `(junction row, target row)` pairs, sorted by `(target score desc,
    /// target RowId asc, junction RowId asc)`.
    pairs: Vec<(RowId, RowId)>,
    /// Size of the raw junction FK group for this key (includes junction
    /// rows whose target FK is NULL or unresolvable). The prefix-scan
    /// probe reports this as the junction-probe tuple count so its access
    /// accounting is identical to the heap path's.
    raw_len: u32,
}

/// Per-(junction, orientation) link postings sorted by target importance:
/// for each source key, the junction rows joined to their target rows,
/// best target first. Lives on the *junction* table, keyed by the source
/// FK column; maintained under scored inserts exactly like
/// [`SortedFkIndex`].
#[derive(Clone, Debug, Default)]
pub struct SortedLinkIndex {
    postings: IntMap<LinkPostings>,
}

/// How one junction row's target FK resolves while building a
/// [`SortedLinkIndex`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum LinkTarget {
    /// NULL target FK: no pair, but the row counts toward the raw group.
    Null,
    /// Non-NULL target FK (carrying the referenced pk) with no matching
    /// row. The referenced row could be inserted later — at which point
    /// the postings would silently miss it while a live heap probe finds
    /// it — so a dangling target poisons the whole orientation
    /// ([`SortedLinkIndex::build`] returns it as the error; the heap
    /// fallback serves the orientation, and the caller watches the
    /// missing endpoint so its arrival can heal).
    Dangling(i64),
    /// Resolved target row.
    Row(RowId),
}

impl SortedLinkIndex {
    /// Builds the index for one orientation of a junction table, or the
    /// first dangling target pk when any junction row's target FK dangles
    /// (see [`LinkTarget::Dangling`]).
    ///
    /// `base` is the junction's hash FK index on the *source* column;
    /// `target_of` resolves a junction row's target; `target_scores[t]`
    /// is the installed importance of target row `t`. Pairs are sorted
    /// where they lie, under a strict total order (see
    /// [`SortedFkIndex::build`]).
    pub(crate) fn build(
        base: &IntMap<Vec<RowId>>,
        target_of: &dyn Fn(RowId) -> LinkTarget,
        target_scores: &[f64],
    ) -> Result<SortedLinkIndex, i64> {
        let mut postings = IntMap::with_capacity_and_hasher(base.len(), Default::default());
        for (&key, jrows) in base {
            let mut pairs: Vec<(RowId, RowId)> = Vec::with_capacity(jrows.len());
            for &j in jrows {
                match target_of(j) {
                    LinkTarget::Null => {}
                    LinkTarget::Dangling(pk) => return Err(pk),
                    LinkTarget::Row(t) => pairs.push((j, t)),
                }
            }
            if pairs.len() > 1 {
                pairs.sort_unstable_by(|&(aj, at), &(bj, bt)| {
                    target_scores[bt.index()]
                        .total_cmp(&target_scores[at.index()])
                        .then(at.cmp(&bt))
                        .then(aj.cmp(&bj))
                });
            }
            postings.insert(key, LinkPostings { pairs, raw_len: jrows.len() as u32 });
        }
        Ok(SortedLinkIndex { postings })
    }

    /// Binary-inserts a junction row at its exact `(target score desc,
    /// target RowId asc, junction RowId asc)` position — where a rebuild
    /// would put it. `target` is `None` when the row's target FK is
    /// NULL/unresolvable (it still counts in `raw_len`). `target_scores[t]`
    /// must give the installed score of target rows. Serves both freshly
    /// appended junction rows (always the largest RowId of their table)
    /// and *re*-insertions of updated mid-table junction rows, where the
    /// junction-RowId tie-break is load-bearing.
    pub(crate) fn insert_scored(
        &mut self,
        key: i64,
        junction_row: RowId,
        target: Option<RowId>,
        target_scores: &[f64],
    ) {
        let entry = self.postings.entry(key).or_default();
        entry.raw_len += 1;
        if let Some(t) = target {
            let s = target_scores[t.index()];
            // An existing pair precedes the new one iff its target scores
            // higher, ties with a smaller target RowId, or matches the
            // target exactly with a smaller junction RowId.
            let pos = entry.pairs.partition_point(|&(pj, pt)| {
                match target_scores[pt.index()].total_cmp(&s) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Equal => pt < t || (pt == t && pj < junction_row),
                    std::cmp::Ordering::Less => false,
                }
            });
            entry.pairs.insert(pos, (junction_row, t));
        }
    }

    /// Un-posts one junction row from `key`'s group: the raw group count
    /// drops by one, and the row's pair (if any) is physically removed
    /// when `remove_pair` is set (an updated row about to be re-inserted)
    /// or left in place as a *tombstone* otherwise (a deleted row —
    /// consumers skip it via the dual-endpoint liveness check, and
    /// compaction purges it later). Returns `true` when a pair stayed
    /// behind as a tombstone, so the caller can count compaction debt.
    /// No-op (returns `false`) if the key has no postings.
    pub(crate) fn unpost(&mut self, key: i64, junction_row: RowId, remove_pair: bool) -> bool {
        let Some(entry) = self.postings.get_mut(&key) else { return false };
        entry.raw_len = entry.raw_len.saturating_sub(1);
        let posted = entry.pairs.iter().position(|&(pj, _)| pj == junction_row);
        if let Some(pos) = posted {
            if remove_pair {
                entry.pairs.remove(pos);
            }
        }
        if entry.raw_len == 0 {
            // An emptied raw group matches a fresh build exactly: the
            // hash index drops empty groups, so the postings drop the
            // key — any pairs still in it are tombstones serving nobody.
            self.postings.remove(&key);
            return false;
        }
        posted.is_some() && !remove_pair
    }

    /// The `(junction row, target row)` pairs of `key`, best target first.
    ///
    /// May contain *tombstoned* pairs whose junction row has since been
    /// deleted ([`SortedLinkIndex::unpost`]); consumers must skip pairs
    /// with a dead endpoint (junction-row or target-row liveness).
    pub fn pairs(&self, key: i64) -> &[(RowId, RowId)] {
        static EMPTY: [(RowId, RowId); 0] = [];
        self.postings.get(&key).map(|p| p.pairs.as_slice()).unwrap_or(&EMPTY)
    }

    /// The raw junction FK group size of `key` (what a heap-path junction
    /// probe reports as its tuple count).
    pub fn raw_group_len(&self, key: i64) -> usize {
        self.postings.get(&key).map(|p| p.raw_len as usize).unwrap_or(0)
    }

    /// Number of distinct source keys.
    pub fn key_count(&self) -> usize {
        self.postings.len()
    }

    /// Every source key's group — `(key, pairs, raw_len)` — in hash order
    /// (segment writers sort the keys themselves for a deterministic
    /// on-disk layout). Pairs may include tombstones (see
    /// [`SortedLinkIndex::pairs`]).
    pub fn groups(&self) -> impl Iterator<Item = (i64, &[(RowId, RowId)], usize)> {
        self.postings.iter().map(|(&k, p)| (k, p.pairs.as_slice(), p.raw_len as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut base: IntMap<Vec<RowId>> = IntMap::default();
        base.insert(7, vec![RowId(0), RowId(1), RowId(2), RowId(3)]);
        let scores = [1.0, 3.0, 3.0, 2.0];
        let idx = SortedFkIndex::build(&base, &scores);
        assert_eq!(idx.rows(7), &[RowId(1), RowId(2), RowId(3), RowId(0)]);
        assert!(idx.rows(99).is_empty());
        assert_eq!(idx.key_count(), 1);
    }

    #[test]
    fn incremental_insert_matches_rebuild() {
        let mut base: IntMap<Vec<RowId>> = IntMap::default();
        base.insert(7, vec![RowId(0), RowId(1), RowId(2)]);
        let mut scores = vec![1.0, 3.0, 2.0];
        let mut idx = SortedFkIndex::build(&base, &scores);
        // Append rows with a fresh-max, a middle, and a tying score.
        for (row, s) in [(RowId(3), 5.0), (RowId(4), 2.5), (RowId(5), 3.0)] {
            scores.push(s);
            base.get_mut(&7).unwrap().push(row);
            idx.insert_scored(7, row, s, &scores);
            let rebuilt = SortedFkIndex::build(&base, &scores);
            assert_eq!(idx.rows(7), rebuilt.rows(7), "after appending {row:?}");
        }
        assert_eq!(
            idx.rows(7),
            &[RowId(3), RowId(1), RowId(5), RowId(4), RowId(2), RowId(0)],
            "ties resolved by ascending RowId"
        );
    }

    #[test]
    fn remove_then_reinsert_matches_rebuild_for_mid_table_rows() {
        let mut base: IntMap<Vec<RowId>> = IntMap::default();
        base.insert(7, vec![RowId(0), RowId(1), RowId(2), RowId(3)]);
        let mut scores = vec![1.0, 3.0, 3.0, 2.0];
        let mut idx = SortedFkIndex::build(&base, &scores);
        // Reposition row 0 (a mid-table RowId) to score 3.0: it ties rows
        // 1 and 2 and must land *before* both, as a fresh sort would.
        idx.remove(7, RowId(0));
        scores[0] = 3.0;
        idx.insert_scored(7, RowId(0), 3.0, &scores);
        let rebuilt = SortedFkIndex::build(&base, &scores);
        assert_eq!(idx.rows(7), rebuilt.rows(7));
        assert_eq!(idx.rows(7), &[RowId(0), RowId(1), RowId(2), RowId(3)]);
        // Removing the last row of a key drops the key entirely.
        let mut solo: IntMap<Vec<RowId>> = IntMap::default();
        solo.insert(9, vec![RowId(5)]);
        let mut idx2 = SortedFkIndex::build(&solo, &[1.0; 6]);
        idx2.remove(9, RowId(5));
        assert_eq!(idx2.key_count(), 0);
        // Removing an unposted row is a no-op.
        idx2.remove(9, RowId(6));
    }

    #[test]
    fn link_index_build_and_incremental_insert_match() {
        // Junction rows 0..4 map source key 7 to targets with varying
        // scores; row 4 has a NULL target (counts in raw_len, no pair).
        let mut base: IntMap<Vec<RowId>> = IntMap::default();
        base.insert(7, vec![RowId(0), RowId(1), RowId(2), RowId(3), RowId(4)]);
        let targets = [Some(RowId(0)), Some(RowId(1)), Some(RowId(2)), Some(RowId(1)), None];
        let as_link = |t: Option<RowId>| t.map_or(LinkTarget::Null, LinkTarget::Row);
        let mut tscores = vec![2.0, 3.0, 1.0];
        let mut idx =
            SortedLinkIndex::build(&base, &|j: RowId| as_link(targets[j.index()]), &tscores)
                .expect("no dangling targets");
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
        // Append a new target row (score 2.5) and a junction row to it,
        // plus one tying an existing (score, target) pair.
        tscores.push(2.5);
        idx.insert_scored(7, RowId(5), Some(RowId(3)), &tscores);
        idx.insert_scored(7, RowId(6), Some(RowId(1)), &tscores);
        base.get_mut(&7).unwrap().extend([RowId(5), RowId(6)]);
        let targets2 = {
            let mut t = targets.to_vec();
            t.extend([Some(RowId(3)), Some(RowId(1))]);
            t
        };
        let rebuilt =
            SortedLinkIndex::build(&base, &|j: RowId| as_link(targets2[j.index()]), &tscores)
                .expect("no dangling targets");
        assert_eq!(idx.pairs(7), rebuilt.pairs(7));
        assert_eq!(idx.raw_group_len(7), rebuilt.raw_group_len(7));

        // A dangling (non-NULL, unresolvable) target poisons the build:
        // the orientation is withheld (the missing pk is reported so the
        // caller can watch it) and the heap path serves it.
        let mut dangle: IntMap<Vec<RowId>> = IntMap::default();
        dangle.insert(1, vec![RowId(0)]);
        let poisoned =
            SortedLinkIndex::build(&dangle, &|_: RowId| LinkTarget::Dangling(42), &tscores);
        assert_eq!(poisoned.err(), Some(42));
    }
}
