//! Bounded top-l selection.
//!
//! The `SELECT * TOP l ... ORDER BY li DESC` probe of Algorithm 4 line 10
//! only ever keeps `l` rows, yet the original implementation sorted the
//! *entire* FK group before truncating — `O(g log g)` per probe on groups
//! of size `g`, the dominant cost of Database-source OS generation on
//! high-fan-out groups (ROADMAP hot path). [`top_l`] instead maintains a
//! bounded min-heap of the best `l` candidates seen so far: `O(g log l)`,
//! with the common case (candidate worse than the current floor) a single
//! comparison and no heap traffic.
//!
//! Output order is exactly the sorted-prefix contract: descending score
//! with ascending tie-break on the payload (`T`'s `Ord`), bit-identical to
//! `sort_by(score desc, item asc); truncate(l)` — the storage property
//! suite asserts this against the full-sort oracle.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A scored candidate ordered by "goodness": higher score first, then
/// smaller payload. Wrapped in [`Reverse`] inside the heap so the *worst
/// kept* candidate sits at the top, ready to be displaced.
#[derive(Debug)]
struct Entry<T>(f64, T);

impl<T: Ord> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T: Ord> Eq for Entry<T> {}
impl<T: Ord> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: Ord> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Greater = better: higher score, then *smaller* payload.
        self.0.total_cmp(&other.0).then_with(|| other.1.cmp(&self.1))
    }
}

/// Selects the `l` best `(score, item)` pairs — descending score,
/// ascending item on ties — without sorting the full input.
///
/// Items must be distinct (database rows are); equal `(score, item)`
/// duplicates would tie-break arbitrarily.
pub fn top_l<T: Ord>(scored: impl IntoIterator<Item = (f64, T)>, l: usize) -> Vec<(f64, T)> {
    let mut scratch = TopLScratch::new();
    scratch.select(scored, l);
    scratch.heap.into_iter().map(|Reverse(Entry(s, t))| (s, t)).collect()
}

/// Reusable working memory for [`top_l`]-shaped selection on hot serving
/// paths. [`top_l`] allocates its heap (and the caller a result `Vec`) on
/// every probe; a warm scratch makes the whole selection allocation-free
/// — the buffers grow to the workload's high-water mark once and are
/// reused across probes (`tests/alloc_guard.rs` in the core crate pins
/// this for the end-to-end query path).
#[derive(Debug)]
pub struct TopLScratch<T> {
    /// The bounded min-heap's backing storage, recycled between probes.
    heap: Vec<Reverse<Entry<T>>>,
    /// Staging buffer for prefix-scan fast paths that collect a bounded
    /// candidate run before ranking it ([`TopLScratch::rank_staged_into`]).
    pub staged: Vec<(f64, T)>,
}

impl<T> Default for TopLScratch<T> {
    fn default() -> Self {
        TopLScratch { heap: Vec::new(), staged: Vec::new() }
    }
}

impl<T: Ord> TopLScratch<T> {
    /// An empty scratch; buffers warm up on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The one bounded-heap loop: leaves the `l` best of `scored` in
    /// `self.heap`, best first.
    fn select(&mut self, scored: impl IntoIterator<Item = (f64, T)>, l: usize) {
        self.heap.clear();
        if l == 0 {
            return;
        }
        let mut heap = BinaryHeap::from(std::mem::take(&mut self.heap));
        for (score, item) in scored {
            if heap.len() < l {
                heap.push(Reverse(Entry(score, item)));
            } else {
                let candidate = Entry(score, item);
                // `peek` is the worst kept entry; strict improvement displaces.
                if candidate > heap.peek().expect("heap is at capacity").0 {
                    heap.pop();
                    heap.push(Reverse(candidate));
                }
            }
        }
        self.heap = heap.into_vec();
        // Ascending `Reverse<Entry>` = best entry first — the order a full
        // sort produces. Items are distinct (database rows are), so the
        // unstable sort has no equal keys to reorder.
        self.heap.sort_unstable();
    }

    /// [`top_l`] appending only the selected items (scores dropped, order
    /// preserved: descending score, ascending item on ties) to `out`,
    /// drawing all working memory from the scratch.
    pub fn select_into(
        &mut self,
        scored: impl IntoIterator<Item = (f64, T)>,
        l: usize,
        out: &mut Vec<T>,
    ) {
        self.select(scored, l);
        out.extend(self.heap.drain(..).map(|Reverse(Entry(_, t))| t));
    }

    /// Ranks the candidates accumulated in [`TopLScratch::staged`]
    /// (drained, capacity kept) and appends the selected items to `out`.
    pub fn rank_staged_into(&mut self, l: usize, out: &mut Vec<T>) {
        let mut staged = std::mem::take(&mut self.staged);
        self.select_into(staged.drain(..), l, out);
        self.staged = staged;
    }

    /// Stages the Avoidance-Condition-2 prefix of a descending-importance
    /// posting scan: pulls `(score, item)` candidates from `scored` (best
    /// importance first, tombstones already filtered out) and stops at the
    /// paper's two cut conditions — the first score at or below
    /// `largest_l`, or, once `l` candidates are staged, the first score
    /// strictly below the current l-th (only ties can still displace it on
    /// the item tie-break). Rank the staged run with
    /// [`TopLScratch::rank_staged_into`].
    ///
    /// This is the one copy of the prefix-cut logic every sorted-posting
    /// backend shares — the in-RAM slices and the paged on-disk reader
    /// consume it through the same loop, which is what makes their
    /// results and join accounting byte-identical by construction.
    pub fn stage_prefix(
        &mut self,
        l: usize,
        largest_l: f64,
        scored: impl IntoIterator<Item = (f64, T)>,
    ) {
        self.staged.clear();
        for (s, item) in scored {
            // Importance is non-increasing along the scan, so the first
            // value at or below the threshold ends the probe; once l
            // candidates are staged, so does the first one that cannot
            // tie the current l-th score.
            if s <= largest_l || (self.staged.len() >= l && s < self.staged[l - 1].0) {
                break;
            }
            self.staged.push((s, item));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(mut scored: Vec<(f64, u32)>, l: usize) -> Vec<(f64, u32)> {
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.truncate(l);
        scored
    }

    #[test]
    fn matches_sort_truncate_oracle() {
        let scored = vec![(3.0, 1u32), (5.0, 2), (1.0, 3), (5.0, 4), (2.0, 5)];
        for l in 0..=6 {
            assert_eq!(top_l(scored.clone(), l), oracle(scored.clone(), l), "l={l}");
        }
    }

    #[test]
    fn ties_break_by_ascending_item() {
        let scored = vec![(1.0, 9u32), (1.0, 3), (1.0, 7), (1.0, 1)];
        assert_eq!(top_l(scored, 2), vec![(1.0, 1), (1.0, 3)]);
    }

    #[test]
    fn short_input_returns_everything_sorted() {
        let scored = vec![(1.0, 2u32), (4.0, 1)];
        assert_eq!(top_l(scored, 10), vec![(4.0, 1), (1.0, 2)]);
    }

    #[test]
    fn scratch_select_matches_top_l_and_recycles_capacity() {
        let scored = vec![(3.0, 1u32), (5.0, 2), (1.0, 3), (5.0, 4), (2.0, 5), (5.0, 0)];
        let mut scratch = TopLScratch::new();
        for l in 0..=7 {
            let mut out = vec![99u32]; // appends, never clears
            scratch.select_into(scored.clone(), l, &mut out);
            let expect: Vec<u32> = std::iter::once(99)
                .chain(top_l(scored.clone(), l).into_iter().map(|(_, t)| t))
                .collect();
            assert_eq!(out, expect, "l={l}");
        }
        // Staged ranking goes through the same comparator.
        scratch.staged.extend(scored.iter().copied());
        let mut out = Vec::new();
        scratch.rank_staged_into(3, &mut out);
        assert_eq!(out, vec![0, 2, 4]);
        assert!(scratch.staged.is_empty(), "staging buffer drains on rank");
    }

    #[test]
    fn handles_negative_and_extreme_scores() {
        let scored =
            vec![(-1.0, 1u32), (f64::MAX, 2), (f64::MIN_POSITIVE, 3), (-f64::MAX, 4), (0.0, 5)];
        assert_eq!(top_l(scored.clone(), 3), oracle(scored, 3));
    }
}
