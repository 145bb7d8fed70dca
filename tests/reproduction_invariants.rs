//! Cross-crate invariants of the reproduction pipeline, checked on the
//! quick-scale workbench: the qualitative claims of Section 6 must hold on
//! every build, not just in the one-off EXPERIMENTS.md run.

use std::sync::OnceLock;

use sizel::{
    generate_os, generate_os_pooled, generate_prelim, generate_prelim_pooled, BottomUp, DpKnapsack,
    OsArenaPool, SizeLAlgorithm, TopPath,
};
use sizel_bench::{Bench, GdsKind, SETTINGS};

fn bench() -> &'static Bench {
    static B: OnceLock<Bench> = OnceLock::new();
    B.get_or_init(|| Bench::new(true))
}

#[test]
fn workbench_has_all_settings_and_gds() {
    let b = bench();
    assert_eq!(SETTINGS.len(), 4);
    for kind in GdsKind::ALL {
        for i in 0..SETTINGS.len() {
            assert!(b.gds(kind, i).len() >= 3);
        }
    }
}

#[test]
fn section_6_2_quality_ordering_holds_on_average() {
    // Top-Path >= Bottom-Up on average; both within [~70%, 100%] of the
    // optimum (the paper's Figure 9 envelope).
    let b = bench();
    for kind in GdsKind::ALL {
        let ctx = b.ctx(kind, 0);
        let samples = b.samples(kind, 4);
        for l in [5usize, 15, 30] {
            let mut tp_total = 0.0;
            let mut bu_total = 0.0;
            let mut count = 0;
            for &tds in &samples {
                let os = generate_os(&ctx, tds, Some(l as u32 - 1));
                if os.len() <= l {
                    continue;
                }
                count += 1;
                let opt = DpKnapsack.compute(&os, l).importance.max(1e-12);
                tp_total += TopPath.compute(&os, l).importance / opt;
                bu_total += BottomUp.compute(&os, l).importance / opt;
            }
            if count == 0 {
                continue;
            }
            let tp = tp_total / count as f64;
            let bu = bu_total / count as f64;
            assert!(tp >= bu - 0.02, "{} l={l}: TP {tp} vs BU {bu}", kind.label());
            assert!(bu > 0.7, "{} l={l}: BU quality {bu} below the paper's envelope", kind.label());
            assert!(tp <= 1.0 + 1e-9);
        }
    }
}

#[test]
fn prelim_contains_top_l_and_shrinks_input() {
    let b = bench();
    for kind in GdsKind::ALL {
        let ctx = b.ctx(kind, 0);
        let tds = b.samples(kind, 1)[0];
        for l in [5usize, 15] {
            let complete = generate_os(&ctx, tds, Some(l as u32 - 1));
            let (prelim, _) = generate_prelim(&ctx, tds, l);
            assert!(prelim.len() <= complete.len(), "{}", kind.label());
            // Definition 2: the top-l local importances all appear in the
            // prelim (compare weight multisets; ties make tuple-level
            // checks ambiguous).
            let mut cw: Vec<f64> = complete.iter().map(|(_, n)| n.weight).collect();
            cw.sort_by(|a, b| b.total_cmp(a));
            let mut pw: Vec<f64> = prelim.iter().map(|(_, n)| n.weight).collect();
            pw.sort_by(|a, b| b.total_cmp(a));
            for i in 0..l.min(cw.len()).min(pw.len()) {
                assert!(
                    (cw[i] - pw[i]).abs() < 1e-9,
                    "{} l={l}: {}-th largest weight differs: {} vs {}",
                    kind.label(),
                    i,
                    cw[i],
                    pw[i]
                );
            }
        }
    }
}

#[test]
fn prelim_reads_fewer_tuples() {
    let b = bench();
    let ctx = b.ctx(GdsKind::Supplier, 0);
    let tds = b.samples(GdsKind::Supplier, 1)[0];
    let l = 10;
    let mut pool = OsArenaPool::new();
    let _ = generate_os_pooled(&ctx, tds, Some(l as u32 - 1), Default::default(), &mut pool);
    let complete = pool.last_cost().access;
    let _ = generate_prelim_pooled(&ctx, tds, l, Default::default(), &mut pool);
    let prelim = pool.last_cost().access;
    assert!(
        prelim.tuples <= complete.tuples,
        "prelim reads {} tuples vs complete {}",
        prelim.tuples,
        complete.tuples
    );
}

#[test]
fn gds_annotations_are_internally_consistent() {
    // max_ri = max over the relation's global scores x affinity;
    // mmax_ri = max over descendants.
    let b = bench();
    for kind in GdsKind::ALL {
        let gds = b.gds(kind, 0);
        let db = b.db(kind.db());
        for (_, node) in gds.iter() {
            let t = db.table(node.relation);
            let table_max = t.live_rows().map(|r| t.installed_score(r)).fold(0.0f64, f64::max);
            let expect = table_max * node.affinity;
            assert!((node.max_ri - expect).abs() < 1e-9, "{} {}", kind.label(), node.label);
            let child_max = node
                .children
                .iter()
                .map(|&c| {
                    let ch = gds.node(c);
                    ch.max_ri.max(ch.mmax_ri)
                })
                .fold(0.0f64, f64::max);
            assert!((node.mmax_ri - child_max).abs() < 1e-9);
        }
    }
}

#[test]
fn effectiveness_anchor_setting_wins_at_large_l() {
    // GA1-d1 is the evaluator anchor, so its effectiveness must dominate
    // GA2-d1 for larger summaries (the paper's headline ordering).
    let b = bench();
    let panel = sizel::EvaluatorPanel { n_evaluators: 4, ..Default::default() };
    let l = 20;
    let mut anchor = 0.0;
    let mut ga2 = 0.0;
    let mut count = 0;
    for &tds in &b.samples(GdsKind::Author, 4) {
        let ref_ctx = b.ctx(GdsKind::Author, 0);
        let ref_os = generate_os(&ref_ctx, tds, Some(l as u32 - 1));
        if ref_os.len() < 2 * l {
            continue;
        }
        count += 1;
        let computed_anchor = DpKnapsack.compute(&ref_os, l);
        anchor += panel.panel_effectiveness(&ref_os, &computed_anchor, l);
        let ga2_ctx = b.ctx(GdsKind::Author, 3);
        let ga2_os = generate_os(&ga2_ctx, tds, Some(l as u32 - 1));
        let computed_ga2 = DpKnapsack.compute(&ga2_os, l);
        ga2 += panel.panel_effectiveness(&ref_os, &computed_ga2, l);
    }
    assert!(count > 0, "need at least one large Author OS");
    assert!(anchor >= ga2, "GA1-d1 effectiveness {anchor} must dominate GA2-d1 {ga2} at l={l}");
}

#[test]
fn cross_source_os_equality_everywhere() {
    // The installed order's prefix scans and the token-less heap path
    // yield the same prelim-l OS on every GDS.
    let b = bench();
    for kind in GdsKind::ALL {
        let ctx = b.ctx(kind, 0);
        let heap_ctx = ctx.heap_twin();
        let tds = b.samples(kind, 1)[0];
        for l in [5, 15] {
            let (fast, _) = generate_prelim(&ctx, tds, l);
            let (heap, _) = generate_prelim(&heap_ctx, tds, l);
            assert_eq!(fast.len(), heap.len(), "{} l={l}", kind.label());
            assert_eq!(fast.total_weight().to_bits(), heap.total_weight().to_bits());
        }
    }
}

#[test]
fn figures_render_without_panicking_on_quick_scale() {
    // Smoke-run every harness figure at quick scale (the heavy ones are
    // exercised by the repro binary / benches at full scale).
    let b = bench();
    for f in [
        sizel_bench::figures::calibrate,
        sizel_bench::figures::show_gds,
        sizel_bench::figures::show_ga,
        sizel_bench::figures::example45,
        sizel_bench::figures::snippet_baseline,
        sizel_bench::figures::datagraph_stats,
        sizel_bench::figures::consecutive,
        sizel_bench::figures::wordbudget,
    ] {
        let out = f(b);
        assert!(!out.is_empty());
    }
}
