//! Evaluation metrics and the synthetic evaluator panel (Section 6.1/6.2).
//!
//! * [`approximation_ratio`] — Figure 9's measure: achieved `Im(S)` over
//!   the optimal `Im(S)`.
//! * [`effectiveness`] — Figure 8's measure: |computed ∩ ideal| / l, which
//!   is recall *and* precision since both sets have size l.
//! * [`EvaluatorPanel`] — the substitution for the paper's human
//!   evaluators (see DESIGN.md §3): each evaluator's "ideal" size-l OS is
//!   the DP optimum under independently perturbed local importances
//!   (log-normal noise), with a bias toward 1st-level neighbours at small l
//!   that mirrors the paper's observation that "evaluators first selected
//!   important Paper tuples ... additional tuples [came at] l ≥ 10".
//! * [`snippet_selection`] — the Google-Desktop-style static snippet
//!   baseline of the §6.1 comparative evaluation.

use sizel_util::prng::Prng;

use crate::algo::{DpKnapsack, SizeLAlgorithm, SizeLResult};
use crate::os::Os;

/// Figure 9's quality ratio: `Im(S_greedy) / Im(S_opt)`, in `[0, 1]`.
pub fn approximation_ratio(achieved: &SizeLResult, optimal: &SizeLResult) -> f64 {
    if optimal.importance <= 0.0 {
        return 1.0;
    }
    (achieved.importance / optimal.importance).min(1.0)
}

/// Figure 8's effectiveness: overlap of two size-l selections over l
/// (recall = precision, as both sides hold l tuples). Node-id granularity;
/// see [`tuple_effectiveness`] for the tuple-set variant used against the
/// evaluator panel.
pub fn effectiveness(computed: &SizeLResult, ideal: &SizeLResult) -> f64 {
    let l = computed.len().max(ideal.len());
    if l == 0 {
        return 1.0;
    }
    computed.overlap(ideal) as f64 / l as f64
}

/// Tuple-set effectiveness: the paper measures "the percentage of the
/// tuples that exist in both the evaluators' size-l OSs and the computed
/// size-l OS" — i.e. it compares *database tuples*. An OS can hold the
/// same tuple in several tree positions (a co-author under each shared
/// paper, a well-cited paper under every paper citing it); two selections
/// showing the same tuple under different parents agree at the tuple
/// level. Duplicates within one selection collapse, so the denominator is
/// the larger distinct-tuple count (recall = precision still holds when
/// both sides have the same distinct count).
pub fn tuple_effectiveness(os: &Os, computed: &SizeLResult, ideal: &SizeLResult) -> f64 {
    let tuples = |r: &SizeLResult| -> std::collections::HashSet<sizel_storage::TupleRef> {
        r.selected.iter().map(|&id| os.node(id).tuple).collect()
    };
    let a = tuples(computed);
    let b = tuples(ideal);
    let denom = a.len().max(b.len());
    if denom == 0 {
        return 1.0;
    }
    a.intersection(&b).count() as f64 / denom as f64
}

/// The synthetic evaluator panel.
#[derive(Clone, Debug)]
pub struct EvaluatorPanel {
    /// Number of evaluators (the paper used 11 DBLP authors / 8
    /// professors).
    pub n_evaluators: usize,
    /// Log-normal noise sigma on each tuple's importance — evaluator
    /// disagreement about individual tuples.
    pub noise_sigma: f64,
    /// Multiplier applied to depth-1 tuples (Papers under an Author) when
    /// `l < bias_below_l`: evaluators prefer 1st-level neighbours in small
    /// summaries.
    pub depth1_bias: f64,
    /// The bias applies for `l` strictly below this.
    pub bias_below_l: usize,
    /// Panel seed (evaluator i uses an independent substream).
    pub seed: u64,
}

impl Default for EvaluatorPanel {
    fn default() -> Self {
        // sigma calibrated (against log-compressed scores) so GA1-d1 panel
        // agreement lands in the paper's 75-90% band for l in [10, 30] on
        // Author OSs (Figure 8a); the depth-1 bias reproduces the small-l
        // paper preference §6.1 reports.
        EvaluatorPanel {
            n_evaluators: 8,
            noise_sigma: 0.10,
            depth1_bias: 2.0,
            bias_below_l: 10,
            seed: 0xE7A1,
        }
    }
}

impl EvaluatorPanel {
    /// The ideal size-l OS of evaluator `i` for this OS: the DP optimum
    /// under that evaluator's perturbed importances. Deterministic per
    /// `(seed, i, OS root tuple, |OS|)`.
    pub fn ideal(&self, os: &Os, l: usize, i: usize) -> SizeLResult {
        let mut perturbed = os.clone();
        let mut rng = Prng::new(self.stream_seed(os, i));
        let n = perturbed.len();
        for idx in 0..n {
            let id = crate::os::OsNodeId(idx as u32);
            let node = perturbed.node_mut(id);
            let mut w = node.weight * rng.lognormal(self.noise_sigma);
            if l < self.bias_below_l && node.depth == 1 {
                w *= self.depth1_bias;
            }
            node.weight = w;
        }
        let sel = DpKnapsack.compute(&perturbed, l).selected;
        // Importance reported against the *true* weights.
        SizeLResult::from_selection(os, sel)
    }

    /// Average tuple-level effectiveness of `computed` against the whole
    /// panel (see [`tuple_effectiveness`]).
    pub fn panel_effectiveness(&self, os: &Os, computed: &SizeLResult, l: usize) -> f64 {
        let mut total = 0.0;
        for i in 0..self.n_evaluators {
            total += tuple_effectiveness(os, computed, &self.ideal(os, l, i));
        }
        total / self.n_evaluators as f64
    }

    fn stream_seed(&self, os: &Os, i: usize) -> u64 {
        let root = os.node(os.root()).tuple;
        let key = ((root.table.0 as u64) << 40) ^ ((root.row.0 as u64) << 8) ^ os.len() as u64;
        self.seed
            ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407)
    }
}

/// The §7 observation behind the paper's caching discussion: "optimal
/// size-l OSs for different l could be very different. This prevents the
/// incremental computation of a size-l OS from the optimal size-(l-1) OS."
/// Returns, for each l in `2..=l_max`, the Jaccard similarity between the
/// optimal size-l and size-(l-1) selections, plus whether the smaller one
/// is a subset of the larger (the precondition for incremental reuse).
pub fn consecutive_optima_similarity(os: &Os, l_max: usize) -> Vec<(usize, f64, bool)> {
    let l_max = l_max.min(os.len());
    let mut out = Vec::new();
    let mut prev = DpKnapsack.compute(os, 1);
    for l in 2..=l_max {
        let cur = DpKnapsack.compute(os, l);
        let inter = cur.overlap(&prev);
        let union = cur.len() + prev.len() - inter;
        let jaccard = if union == 0 { 1.0 } else { inter as f64 / union as f64 };
        let nested = inter == prev.len();
        out.push((l, jaccard, nested));
        prev = cur;
    }
    out
}

/// The §6.1 Google-Desktop baseline: a static snippet holding `k` tuples
/// from the "beginning of the file" — and since "the order of nodes in an
/// OS is random" when stored, this is `k` random tuples of the OS (not
/// necessarily connected; snippets know nothing of Definition 1).
pub fn snippet_selection(os: &Os, k: usize, seed: u64) -> SizeLResult {
    let mut ids: Vec<u32> = (0..os.len() as u32).collect();
    let mut rng = Prng::new(seed);
    rng.shuffle(&mut ids);
    ids.truncate(k);
    let selected: Vec<crate::os::OsNodeId> = ids.into_iter().map(crate::os::OsNodeId).collect();
    SizeLResult::from_selection(os, selected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{BottomUp, TopPath};
    use crate::os::figure56_tree;
    use crate::osgen::generate_os;
    use crate::test_fixtures::dblp_fixture;

    #[test]
    fn ratio_and_effectiveness_bounds() {
        let os = figure56_tree(55.0);
        let opt = DpKnapsack.compute(&os, 5);
        let bu = BottomUp.compute(&os, 5);
        let r = approximation_ratio(&bu, &opt);
        assert!((r - 235.0 / 240.0).abs() < 1e-12);
        assert!(effectiveness(&bu, &opt) <= 1.0);
        assert!((effectiveness(&opt, &opt) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn panel_is_deterministic() {
        let f = dblp_fixture();
        let ctx = f.ctx();
        let os = generate_os(&ctx, f.author_tds(0), Some(9));
        let p = EvaluatorPanel::default();
        let a = p.ideal(&os, 10, 3);
        let b = p.ideal(&os, 10, 3);
        assert_eq!(a.selected, b.selected);
        // Different evaluators disagree at least sometimes.
        let c = p.ideal(&os, 10, 4);
        assert!(a.selected != c.selected || a.overlap(&c) == a.len());
    }

    #[test]
    fn ideal_selections_are_valid_size_l() {
        let f = dblp_fixture();
        let ctx = f.ctx();
        let os = generate_os(&ctx, f.author_tds(1), Some(9));
        let p = EvaluatorPanel::default();
        for i in 0..p.n_evaluators {
            let ideal = p.ideal(&os, 10, i);
            assert_eq!(ideal.len(), 10.min(os.len()));
            assert!(os.is_valid_selection(&ideal.selected));
        }
    }

    #[test]
    fn reasonable_algorithms_beat_noise_floor() {
        // The optimal under true weights should agree with perturbed ideals
        // far better than chance.
        let f = dblp_fixture();
        let ctx = f.ctx();
        let os = generate_os(&ctx, f.author_tds(0), Some(14));
        let p = EvaluatorPanel::default();
        let l = 15;
        let computed = TopPath.compute(&os, l);
        let eff = p.panel_effectiveness(&os, &computed, l);
        let chance = l as f64 / os.len() as f64;
        assert!(
            eff > (2.0 * chance).min(0.4),
            "panel effectiveness {eff} should beat chance {chance}"
        );
    }

    #[test]
    fn snippet_baseline_overlaps_poorly() {
        // The §6.1 result: static snippets share ~0-1 tuples with a good
        // size-5 OS on a large OS.
        let f = dblp_fixture();
        let ctx = f.ctx();
        let os = generate_os(&ctx, f.author_tds(0), None);
        assert!(os.len() > 50, "need a large OS for the baseline comparison");
        let good = DpKnapsack.compute(&os, 5);
        let mut total = 0usize;
        let runs = 20;
        for s in 0..runs {
            let snip = snippet_selection(&os, 3, s);
            assert_eq!(snip.len(), 3);
            total += snip.overlap(&good);
        }
        let avg = total as f64 / runs as f64;
        assert!(avg <= 1.0, "random static snippets rarely hit the size-5 OS (avg {avg})");
    }

    #[test]
    fn consecutive_similarity_bounds_and_shape() {
        let f = dblp_fixture();
        let ctx = f.ctx();
        let os = generate_os(&ctx, f.author_tds(0), Some(19));
        let sims = consecutive_optima_similarity(&os, 20);
        assert_eq!(sims.len(), 19);
        for &(l, j, _) in &sims {
            assert!((2..=20).contains(&l));
            assert!((0.0..=1.0).contains(&j), "jaccard out of range at l={l}");
        }
        // Jaccard of consecutive optima of sizes l-1 and l is at most
        // (l-1)/l when nested; values above that indicate a bug.
        for &(l, j, nested) in &sims {
            if nested {
                let expect = (l - 1) as f64 / l as f64;
                assert!((j - expect).abs() < 1e-9, "nested similarity at l={l}");
            }
        }
    }

    #[test]
    fn consecutive_similarity_on_monotone_tree_is_nested() {
        // A pure path: optima are prefixes, always nested.
        let os =
            crate::os::Os::synthetic(&[None, Some(0), Some(1), Some(2)], &[4.0, 3.0, 2.0, 1.0]);
        let sims = consecutive_optima_similarity(&os, 4);
        assert!(sims.iter().all(|&(_, _, nested)| nested));
    }
}
