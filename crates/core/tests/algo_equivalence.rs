//! Cross-algorithm equivalence on real (generated) data: every size-l
//! algorithm is checked against the exhaustive [`BruteForce`] oracle on
//! complete OSs from the small DBLP fixture, for l ∈ {5, 10, 15}.
//!
//! The optimal algorithms (`DpNaive`, `DpKnapsack`) must equal the oracle's
//! optimum importance exactly (mod float tolerance). The heuristics
//! (`BottomUp`, `TopPath`) are *not* optimal in general — Lemma 2 makes
//! Bottom-Up optimal only under depth-monotone weights, and real DBLP OSs
//! are not monotone — so for them the oracle certifies Definition 1
//! validity, dominance (never above the optimum), and the paper's reported
//! near-optimal quality (Figure 8 territory: ≥ 95% here), plus at least one
//! exact hit each across the grid as a canary against wholesale regression.

use sizel_core::algo::{BottomUp, BruteForce, DpKnapsack, DpNaive, SizeLAlgorithm, TopPath};
use sizel_core::osgen::generate_os;
use sizel_core::test_fixtures::dblp_fixture;

/// Brute-force candidate budget: generous, but a hard stop against
/// accidentally enumerating a star-shaped OS too big for the oracle.
const BRUTE_BUDGET: u64 = 50_000_000;

/// Picks fixture authors whose complete OS is big enough to make l = 15
/// interesting yet small enough for exhaustive enumeration.
fn oracle_sized_oss() -> Vec<(usize, sizel_core::os::Os)> {
    let fix = dblp_fixture();
    let ctx = fix.ctx();
    let mut picked = Vec::new();
    for i in 0..fix.authors_by_degree.len() {
        let os = generate_os(&ctx, fix.author_tds(i), None);
        if (16..=28).contains(&os.len()) {
            picked.push((i, os));
        }
        if picked.len() == 4 {
            break;
        }
    }
    assert!(!picked.is_empty(), "fixture has no author with an oracle-sized OS");
    picked
}

#[test]
fn optimal_algorithms_match_brute_force_exactly() {
    for (author, os) in oracle_sized_oss() {
        for l in [5usize, 10, 15] {
            let (oracle, candidates) = BruteForce.compute_counted(&os, l, BRUTE_BUDGET);
            let optimal: [&dyn SizeLAlgorithm; 2] = [&DpNaive::default(), &DpKnapsack];
            for algo in optimal {
                let r = algo.compute(&os, l);
                assert_eq!(r.len(), l.min(os.len()), "{} author={author} l={l}", algo.name());
                assert!(
                    os.is_valid_selection(&r.selected),
                    "{} author={author} l={l}: invalid selection",
                    algo.name()
                );
                assert!(
                    (r.importance - oracle.importance).abs() < 1e-9,
                    "{} author={author} l={l}: got {}, oracle optimum {} ({candidates} candidates)",
                    algo.name(),
                    r.importance,
                    oracle.importance,
                );
            }
        }
    }
}

#[test]
fn heuristics_are_valid_dominated_and_near_optimal() {
    let mut exact_hits = std::collections::HashMap::new();
    for (author, os) in oracle_sized_oss() {
        for l in [5usize, 10, 15] {
            let (oracle, _) = BruteForce.compute_counted(&os, l, BRUTE_BUDGET);
            let heuristics: [&dyn SizeLAlgorithm; 2] = [&BottomUp, &TopPath];
            for algo in heuristics {
                let r = algo.compute(&os, l);
                assert_eq!(r.len(), l.min(os.len()), "{} author={author} l={l}", algo.name());
                assert!(
                    os.is_valid_selection(&r.selected),
                    "{} author={author} l={l}: invalid selection",
                    algo.name()
                );
                assert!(
                    r.importance <= oracle.importance + 1e-9,
                    "{} author={author} l={l}: heuristic beat the exhaustive optimum",
                    algo.name()
                );
                let ratio = r.importance / oracle.importance;
                assert!(
                    ratio >= 0.95,
                    "{} author={author} l={l}: quality ratio {ratio:.4} below 0.95",
                    algo.name()
                );
                if (r.importance - oracle.importance).abs() < 1e-9 {
                    *exact_hits.entry(algo.name()).or_insert(0u32) += 1;
                }
            }
        }
    }
    for algo in ["Bottom-Up", "Top-Path"] {
        assert!(
            exact_hits.get(algo).copied().unwrap_or(0) > 0,
            "{algo} never reached the optimum on any fixture OS — wholesale regression?"
        );
    }
}
