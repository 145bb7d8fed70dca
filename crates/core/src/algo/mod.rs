//! Size-l OS computation algorithms (Sections 4 and 5).

pub mod bottom_up;
pub mod brute;
pub mod dp;
pub mod dp_naive;
pub mod top_path;
pub mod word_budget;

pub use bottom_up::BottomUp;
pub use brute::BruteForce;
pub use dp::DpKnapsack;
pub use dp_naive::{DpNaive, NaiveOutcome};
pub use top_path::{TopPath, TopPathOpt};
pub use word_budget::WordBudgetDp;

use crate::os::{Os, OsNodeId, POOL_NODES_MAX};
use sizel_util::F64Ord;

/// Reusable scratch for the size-l algorithms — the computation-side
/// analogue of [`crate::os::OsArenaPool`] (ROADMAP scratch-reuse item):
/// the DP/greedy working sets (alive flags, forest roots, DFS stacks,
/// path buffers, per-node tables, the DP arena) are drawn from here
/// instead of being allocated per `compute` call, so a warm serving
/// thread's size-l computation only allocates what it returns (the
/// selection vector inside [`SizeLResult`]). Buffers grow to the
/// high-water mark of the inputs up to [`POOL_NODES_MAX`] nodes and stay
/// ([`AlgoScratch::trim`]); the counting-allocator guard
/// (`crates/core/tests/alloc_guard.rs`) pins the resulting per-call
/// budget on the serving path.
#[derive(Debug, Default)]
pub struct AlgoScratch {
    /// Per-node liveness (Top-Path forests, Bottom-Up pruning).
    alive: Vec<bool>,
    /// Current forest roots (Top-Path).
    roots: Vec<OsNodeId>,
    /// Iterative-DFS stack carrying `(node, path sum, path len)`.
    stack: Vec<(OsNodeId, f64, u32)>,
    /// Root-to-target path buffer.
    path: Vec<OsNodeId>,
    /// `(candidate AI, candidate node, forest root)` entries (Top-Path
    /// `s(v)` variant).
    entries: Vec<(f64, OsNodeId, OsNodeId)>,
    /// Subtree sizes / remaining-children counters.
    counts: Vec<usize>,
    /// Per-node DP capacity bounds.
    caps: Vec<usize>,
    /// Ping-pong DP row buffers.
    f64a: Vec<f64>,
    f64b: Vec<f64>,
    /// Per-node subtree-argmax ids (Top-Path `s(v)`).
    ids: Vec<u32>,
    /// The Bottom-Up leaf priority queue's backing storage.
    heap: Vec<std::cmp::Reverse<(F64Ord, OsNodeId)>>,
    /// Flat DP-table arena: node `i`'s table occupies
    /// `dp_flat[dp_off[i] .. dp_off[i + 1]]`.
    dp_flat: Vec<f64>,
    dp_off: Vec<usize>,
}

impl AlgoScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        AlgoScratch::default()
    }

    /// Frees every buffer once a computation over an input of more than
    /// [`POOL_NODES_MAX`] nodes is done, so a hub's OS does not set what
    /// the scratch keeps; a smaller input keeps them warm.
    pub fn trim(&mut self, input_nodes: usize) {
        if input_nodes > POOL_NODES_MAX {
            *self = AlgoScratch::new();
        }
    }
}

/// The result of a size-l computation: a connected node set containing the
/// root (Definition 1) and its total importance (Equation 2).
#[derive(Clone, Debug, PartialEq)]
pub struct SizeLResult {
    /// Selected nodes, sorted by id.
    pub selected: Vec<OsNodeId>,
    /// `Im(S)`: sum of local importances of the selection.
    pub importance: f64,
}

impl SizeLResult {
    /// Builds a result from a selection, computing its importance.
    pub fn from_selection(os: &Os, mut selected: Vec<OsNodeId>) -> Self {
        selected.sort_unstable();
        selected.dedup();
        let importance = os.weight_of(&selected);
        SizeLResult { selected, importance }
    }

    /// Number of selected nodes.
    pub fn len(&self) -> usize {
        self.selected.len()
    }

    /// True when nothing was selected (l = 0 or empty OS).
    pub fn is_empty(&self) -> bool {
        self.selected.is_empty()
    }

    /// Number of common nodes with another result.
    pub fn overlap(&self, other: &SizeLResult) -> usize {
        // Both selections are sorted: linear merge.
        let (mut i, mut j, mut common) = (0, 0, 0);
        while i < self.selected.len() && j < other.selected.len() {
            match self.selected[i].cmp(&other.selected[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    common += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        common
    }
}

/// A size-l OS algorithm. All implementations guarantee the returned
/// selection is valid per Definition 1 and has exactly `min(l, |OS|)`
/// nodes.
pub trait SizeLAlgorithm {
    /// Algorithm name for experiment tables.
    fn name(&self) -> &'static str;

    /// Computes a size-l OS over the (complete or prelim) input OS.
    fn compute(&self, os: &Os, l: usize) -> SizeLResult;

    /// [`SizeLAlgorithm::compute`] drawing its working sets from a
    /// reusable [`AlgoScratch`] — byte-identical output (same float
    /// operation order), no per-call scratch allocations. The default
    /// falls back to `compute` for the reference/test algorithms whose
    /// cost is dominated elsewhere (brute force, the paper's naive DP).
    fn compute_pooled(&self, os: &Os, l: usize, scratch: &mut AlgoScratch) -> SizeLResult {
        let _ = scratch;
        self.compute(os, l)
    }
}

/// Algorithm selector used by the engine and the benchmark harness.
/// `Hash` because the serving layer's cache key includes the algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlgoKind {
    /// Optimal via knapsack-merge tree DP (`O(n·l²)`).
    Optimal,
    /// The paper's Algorithm 1 as written (exponential child-combination
    /// enumeration).
    OptimalNaive,
    /// Algorithm 2.
    BottomUp,
    /// Algorithm 3.
    TopPath,
    /// Algorithm 3 with the §5.2 `s(v)` precomputation.
    TopPathOpt,
}

impl AlgoKind {
    /// Instantiates the algorithm.
    pub fn algorithm(self) -> Box<dyn SizeLAlgorithm> {
        match self {
            AlgoKind::Optimal => Box::new(DpKnapsack),
            AlgoKind::OptimalNaive => Box::new(DpNaive::default()),
            AlgoKind::BottomUp => Box::new(BottomUp),
            AlgoKind::TopPath => Box::new(TopPath),
            AlgoKind::TopPathOpt => Box::new(TopPathOpt),
        }
    }

    /// Statically-dispatched scratch-reusing computation — the serving
    /// path's entry point: no `Box` per call, no per-call scratch (see
    /// [`AlgoScratch`]).
    pub fn compute_pooled(self, os: &Os, l: usize, scratch: &mut AlgoScratch) -> SizeLResult {
        match self {
            AlgoKind::Optimal => DpKnapsack.compute_pooled(os, l, scratch),
            AlgoKind::OptimalNaive => DpNaive::default().compute_pooled(os, l, scratch),
            AlgoKind::BottomUp => BottomUp.compute_pooled(os, l, scratch),
            AlgoKind::TopPath => TopPath.compute_pooled(os, l, scratch),
            AlgoKind::TopPathOpt => TopPathOpt.compute_pooled(os, l, scratch),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AlgoKind::Optimal => "Optimal(DP)",
            AlgoKind::OptimalNaive => "Optimal(DP-naive)",
            AlgoKind::BottomUp => "Bottom-Up",
            AlgoKind::TopPath => "Top-Path",
            AlgoKind::TopPathOpt => "Top-Path(s(v))",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::os::figure4_tree;

    #[test]
    fn result_from_selection_sorts_and_dedups() {
        let os = figure4_tree();
        let r = SizeLResult::from_selection(
            &os,
            vec![OsNodeId(4), OsNodeId(0), OsNodeId(4), OsNodeId(3)],
        );
        assert_eq!(r.selected, vec![OsNodeId(0), OsNodeId(3), OsNodeId(4)]);
        assert!((r.importance - 141.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_counts_common_nodes() {
        let os = figure4_tree();
        let a = SizeLResult::from_selection(&os, vec![OsNodeId(0), OsNodeId(3), OsNodeId(4)]);
        let b = SizeLResult::from_selection(&os, vec![OsNodeId(0), OsNodeId(4), OsNodeId(5)]);
        assert_eq!(a.overlap(&b), 2);
        assert_eq!(a.overlap(&a), 3);
    }

    #[test]
    fn algo_kind_roundtrip() {
        for kind in [
            AlgoKind::Optimal,
            AlgoKind::OptimalNaive,
            AlgoKind::BottomUp,
            AlgoKind::TopPath,
            AlgoKind::TopPathOpt,
        ] {
            let a = kind.algorithm();
            assert!(!a.name().is_empty());
            assert!(!kind.name().is_empty());
        }
    }
}
