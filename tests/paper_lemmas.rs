//! Property-based tests of the paper's formal claims (Lemmas 1-3 and the
//! structural invariants of Definitions 1-2), over randomly generated OS
//! trees.

use proptest::prelude::*;

use sizel::{
    BottomUp, BruteForce, DpKnapsack, DpNaive, Os, OsNodeId, SizeLAlgorithm, TopPath, TopPathOpt,
    WordBudgetDp,
};

/// Builds a random tree from raw seeds: node i's parent is `seeds[i-1] % i`.
fn tree_from(seeds: &[u32], weights: &[f64]) -> Os {
    let n = weights.len();
    let mut parents = vec![None];
    for i in 1..n {
        parents.push(Some((seeds[i - 1] as usize) % i));
    }
    Os::synthetic(&parents, weights)
}

/// Strategy: a tree of 1..=max_n nodes with weights in [0, 100).
fn arb_tree(max_n: usize) -> impl Strategy<Value = Os> {
    (1..=max_n).prop_flat_map(|n| {
        (
            proptest::collection::vec(any::<u32>(), n.saturating_sub(1)),
            proptest::collection::vec(0.0..100.0f64, n),
        )
            .prop_map(|(seeds, weights)| tree_from(&seeds, &weights))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lemma 1: the DP computes the optimum (certified by brute force).
    #[test]
    fn lemma1_dp_is_optimal(os in arb_tree(11), l in 1usize..12) {
        let brute = BruteForce.compute(&os, l);
        let dp = DpKnapsack.compute(&os, l);
        prop_assert!((brute.importance - dp.importance).abs() < 1e-9);
    }

    /// The faithful Algorithm-1 enumeration computes the same tables as the
    /// knapsack merge.
    #[test]
    fn naive_dp_matches_knapsack(os in arb_tree(10), l in 1usize..11) {
        let naive = DpNaive::default().compute(&os, l);
        let fast = DpKnapsack.compute(&os, l);
        prop_assert!((naive.importance - fast.importance).abs() < 1e-9);
    }

    /// Definition 1 invariants for every algorithm: exactly min(l, n)
    /// nodes, connected, containing the root; and no greedy result beats
    /// the optimum.
    #[test]
    fn definition1_invariants(os in arb_tree(50), l in 0usize..60) {
        let opt = DpKnapsack.compute(&os, l);
        let algorithms: [&dyn SizeLAlgorithm; 4] =
            [&DpKnapsack, &BottomUp, &TopPath, &TopPathOpt];
        for algo in algorithms {
            let r = algo.compute(&os, l);
            prop_assert_eq!(r.len(), l.min(os.len()), "{}", algo.name());
            prop_assert!(os.is_valid_selection(&r.selected), "{}", algo.name());
            prop_assert!(r.importance <= opt.importance + 1e-9, "{}", algo.name());
            // Reported importance matches the selection.
            prop_assert!((r.importance - os.weight_of(&r.selected)).abs() < 1e-9);
        }
    }

    /// Lemma 2: under depth-monotone weights Bottom-Up is optimal.
    #[test]
    fn lemma2_bottom_up_optimal_when_monotone(os in arb_tree(40), l in 1usize..41) {
        // Rewrite weights to be monotone non-increasing along every path.
        let n = os.len();
        let mut weights: Vec<f64> = (0..n).map(|i| os.node(OsNodeId(i as u32)).weight).collect();
        let parents: Vec<Option<usize>> = (0..n)
            .map(|i| os.node(OsNodeId(i as u32)).parent.map(|p| p.index()))
            .collect();
        for i in 1..n {
            let p = parents[i].expect("non-root");
            if weights[i] > weights[p] {
                weights[i] = weights[p];
            }
        }
        let monotone = Os::synthetic(&parents, &weights);
        let bu = BottomUp.compute(&monotone, l);
        let opt = DpKnapsack.compute(&monotone, l);
        prop_assert!((bu.importance - opt.importance).abs() < 1e-9,
            "Lemma 2: bu={} opt={}", bu.importance, opt.importance);
    }

    /// Projection (materializing a size-l OS) preserves node count, total
    /// weight and tree well-formedness.
    #[test]
    fn projection_roundtrip(os in arb_tree(40), l in 1usize..41) {
        let r = TopPath.compute(&os, l);
        let sub = os.project(&r.selected);
        prop_assert_eq!(sub.len(), r.len());
        prop_assert!((sub.to_os().total_weight() - r.importance).abs() < 1e-9);
        prop_assert!(sub.validate().is_ok());
    }

    /// The word-budget DP with unit costs degenerates to the size-l DP.
    #[test]
    fn word_budget_unit_cost_equals_size_l(os in arb_tree(25), l in 1usize..26) {
        let budget = WordBudgetDp.compute(&os, l, &|_| 1usize);
        let sized = DpKnapsack.compute(&os, l);
        prop_assert!((budget.importance - sized.importance).abs() < 1e-9);
    }

    /// The word-budget DP never exceeds its budget and returns connected
    /// selections.
    #[test]
    fn word_budget_respects_budget(
        os in arb_tree(25),
        budget in 1usize..60,
        cost_seed in any::<u64>(),
    ) {
        let n = os.len();
        let costs: Vec<usize> = (0..n)
            .map(|i| 1 + ((cost_seed.rotate_left(i as u32) as usize) % 5))
            .collect();
        let r = WordBudgetDp.compute(&os, budget, &|id: OsNodeId| costs[id.index()]);
        let used: usize = r.selected.iter().map(|&id| costs[id.index()]).sum();
        prop_assert!(used <= budget);
        if !r.selected.is_empty() {
            prop_assert!(os.is_valid_selection(&r.selected));
        }
    }

    /// Monotone growth: the optimal importance is non-decreasing in l
    /// (adding budget never hurts).
    #[test]
    fn optimal_importance_monotone_in_l(os in arb_tree(30)) {
        let mut last = 0.0f64;
        for l in 1..=os.len() {
            let r = DpKnapsack.compute(&os, l);
            prop_assert!(r.importance + 1e-9 >= last, "l={l}");
            last = r.importance;
        }
    }

    /// Tie-free determinism: running any algorithm twice yields the same
    /// selection.
    #[test]
    fn algorithms_are_deterministic(os in arb_tree(30), l in 1usize..31) {
        let algorithms: [&dyn SizeLAlgorithm; 4] =
            [&DpKnapsack, &BottomUp, &TopPath, &TopPathOpt];
        for algo in algorithms {
            let a = algo.compute(&os, l);
            let b = algo.compute(&os, l);
            prop_assert_eq!(a.selected, b.selected, "{}", algo.name());
        }
    }
}
