//! Calibration regression: average |OS| per GDS at benchmark scale must
//! stay pinned to the paper's Section 6 table (EXPERIMENTS.md records the
//! same numbers). A datagen or sampling change that silently drifts a
//! workload out of the paper's regime fails here, not three PRs later in
//! an unexplainable benchmark shift.

use sizel_bench::{Bench, GdsKind};
use sizel_core::osgen::generate_os;

/// `(kind, paper Aver|OS|, relative tolerance)`. DBLP tolerances are the
/// ±15% target of the recalibration; TPC-H Supplier gets ±20% — it has sat
/// ~18% high since the seed (synthetic Partsupp/Lineitem fan-out, not
/// touched by the DBLP recalibration) and is pinned here against *further*
/// drift.
const PINS: [(GdsKind, f64, f64); 4] = [
    (GdsKind::Author, 1116.0, 0.15),
    (GdsKind::Paper, 367.0, 0.15),
    (GdsKind::Customer, 176.0, 0.15),
    (GdsKind::Supplier, 1341.0, 0.20),
];

#[test]
fn bench_scale_aver_os_matches_paper_table() {
    // The paper's measurement: 10 random OSs per GDS, benchmark scale.
    let bench = Bench::new(false);
    for (kind, paper, tolerance) in PINS {
        let ctx = bench.ctx(kind, 0);
        let samples = bench.samples(kind, 10);
        let avg: f64 =
            samples.iter().map(|&t| generate_os(&ctx, t, None).len() as f64).sum::<f64>()
                / samples.len() as f64;
        let ratio = avg / paper;
        assert!(
            (ratio - 1.0).abs() <= tolerance,
            "{}: measured Aver|OS| {avg:.0} vs paper {paper:.0} \
             (ratio {ratio:.3}, tolerance ±{}%)",
            kind.label(),
            tolerance * 100.0,
        );
    }
}

#[test]
fn paper_band_samples_are_well_cited_papers() {
    // The Paper-GDS draws must come from the head of the citation
    // distribution (the paper's Aver|OS| = 367 is unreachable from the
    // long tail), and the band must be thick enough to sample from — if
    // fan-in thins out, `samples` silently falls back to the upper half
    // and the calibration above collapses.
    let bench = Bench::new(false);
    let citation = bench.dblp.db.table(bench.dblp.citation);
    let cited_col = citation.schema.column_index("cited_id").expect("schema");
    let papers = bench.dblp.db.table(bench.dblp.paper);
    let samples = bench.samples(GdsKind::Paper, 10);
    for t in samples {
        let cited_by = citation.rows_where_eq(cited_col, papers.pk_of(t.row)).len();
        assert!(
            cited_by >= 200,
            "sampled paper with only {cited_by} citations — band fallback triggered?"
        );
    }
}
