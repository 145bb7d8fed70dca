//! Regenerators for every table and figure of the paper's Section 6.
//!
//! Each function returns printable markdown; the `repro` binary routes
//! subcommands here. Absolute numbers differ from the paper (synthetic
//! data, Rust, in-memory engine — see DESIGN.md §3); the *shapes* are what
//! EXPERIMENTS.md checks.

use std::time::Instant;

use sizel_core::algo::{
    AlgoKind, BottomUp, DpKnapsack, DpNaive, NaiveOutcome, SizeLAlgorithm, SizeLResult, TopPath,
    TopPathOpt,
};
use sizel_core::eval::{snippet_selection, EvaluatorPanel};
use sizel_core::os::Os;
use sizel_core::osgen::{generate_os, OsContext, OsSource};
use sizel_core::prelim::generate_prelim;
use sizel_core::render::{render_os, RenderOptions};
use sizel_storage::TupleRef;

use crate::{markdown_table, Bench, DbKind, GdsKind, SETTINGS};

/// The l axis of Figures 8 (effectiveness).
const FIG8_LS: [usize; 6] = [5, 10, 15, 20, 25, 30];
/// The l axis of Figures 9 and 10.
const FIG9_LS: [usize; 10] = [5, 10, 15, 20, 25, 30, 35, 40, 45, 50];

fn n_samples(bench: &Bench) -> usize {
    if bench.quick {
        4
    } else {
        10
    }
}

fn time_ms(mut f: impl FnMut()) -> f64 {
    // Three repetitions, minimum — robust to scheduler noise at µs scale.
    let mut best = f64::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Generates (complete-with-cutoff, prelim) OS pair for one DS — the
/// inputs a size-l query would actually build (§3.3 footnote).
fn os_pair(ctx: &OsContext<'_>, tds: TupleRef, l: usize) -> (Os, Os) {
    let complete = generate_os(ctx, tds, Some(l as u32 - 1), OsSource::DataGraph);
    let (prelim, _) = generate_prelim(ctx, tds, l, OsSource::DataGraph);
    (complete, prelim)
}

/// Generates (full complete OS, prelim-l) — Figure 10 times the size-l
/// computation against the *fixed* complete OS (its |OS| is the figure's
/// label), which is what makes Bottom-Up faster as l grows (fewer
/// de-heapings, §6.3).
fn full_pair(ctx: &OsContext<'_>, tds: TupleRef, l: usize) -> (Os, Os) {
    let complete = generate_os(ctx, tds, None, OsSource::DataGraph);
    let (prelim, _) = generate_prelim(ctx, tds, l, OsSource::DataGraph);
    (complete, prelim)
}

// ---------------------------------------------------------------------
// Figure 8: effectiveness
// ---------------------------------------------------------------------

/// Figure 8(a-d): effectiveness (recall = precision) of the optimal size-l
/// OS per ranking setting, against the synthetic evaluator panel anchored
/// on GA1-d1 (see DESIGN.md §3 for the substitution).
pub fn fig8(bench: &Bench) -> String {
    let panel = EvaluatorPanel {
        n_evaluators: if bench.quick { 4 } else { 8 },
        ..EvaluatorPanel::default()
    };
    let mut out =
        String::from("## Figure 8 — Effectiveness (recall = precision), optimal size-l OS\n\n");
    for kind in GdsKind::ALL {
        let samples = bench.samples(kind, n_samples(bench));
        let mut rows = Vec::new();
        for (si, setting) in SETTINGS.iter().enumerate() {
            let mut row = vec![setting.name.to_string()];
            for &l in &FIG8_LS {
                let mut total = 0.0;
                let mut count = 0usize;
                for &tds in &samples {
                    let ref_ctx = bench.ctx(kind, 0);
                    let ref_os =
                        generate_os(&ref_ctx, tds, Some(l as u32 - 1), OsSource::DataGraph);
                    if ref_os.len() < l {
                        continue;
                    }
                    let ctx = bench.ctx(kind, si);
                    let os = generate_os(&ctx, tds, Some(l as u32 - 1), OsSource::DataGraph);
                    let computed = DpKnapsack.compute(&os, l);
                    total += panel.panel_effectiveness(&ref_os, &computed, l);
                    count += 1;
                }
                row.push(if count == 0 {
                    "-".into()
                } else {
                    format!("{:.1}%", 100.0 * total / count as f64)
                });
            }
            rows.push(row);
        }
        out.push_str(&format!("### {} (cf. Figure 8)\n\n", kind.label()));
        let header: Vec<String> = std::iter::once("setting".to_string())
            .chain(FIG8_LS.iter().map(|l| format!("l={l}")))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        out.push_str(&markdown_table(&header_refs, &rows));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------
// Figure 9: approximation quality
// ---------------------------------------------------------------------

fn quality_row(
    bench: &Bench,
    kind: GdsKind,
    samples: &[TupleRef],
    setting: usize,
    ls: &[usize],
) -> Vec<Vec<String>> {
    let ctx = bench.ctx(kind, setting);
    let methods: [(&str, &dyn SizeLAlgorithm, bool); 4] = [
        ("Bottom-Up (Complete OS)", &BottomUp, false),
        ("Bottom-Up (Prelim-l OS)", &BottomUp, true),
        ("Update Top-Path-l (Complete OS)", &TopPath, false),
        ("Update Top-Path-l (Prelim-l OS)", &TopPath, true),
    ];
    let mut rows: Vec<Vec<String>> =
        methods.iter().map(|(name, _, _)| vec![name.to_string()]).collect();
    for &l in ls {
        let mut sums = [0.0f64; 4];
        let mut count = 0usize;
        for &tds in samples {
            let (complete, prelim) = os_pair(&ctx, tds, l);
            if complete.len() <= 1 {
                continue;
            }
            count += 1;
            let opt = DpKnapsack.compute(&complete, l).importance.max(1e-12);
            for (m, (_, algo, use_prelim)) in methods.iter().enumerate() {
                let input = if *use_prelim { &prelim } else { &complete };
                let r = algo.compute(input, l);
                sums[m] += (r.importance / opt).min(1.0);
            }
        }
        for (m, row) in rows.iter_mut().enumerate() {
            row.push(if count == 0 {
                "-".into()
            } else {
                format!("{:.1}%", 100.0 * sums[m] / count as f64)
            });
        }
    }
    rows
}

/// Figure 9(a-f): approximation quality of the greedy methods vs. the
/// optimum, on complete and prelim-l inputs.
pub fn fig9(bench: &Bench) -> String {
    let mut out = String::from("## Figure 9 — Approximation quality (Im(S) / optimal)\n\n");
    let header: Vec<String> = std::iter::once("method".to_string())
        .chain(FIG9_LS.iter().map(|l| format!("l={l}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();

    // Panels (a)-(d).
    for kind in GdsKind::ALL {
        let samples = bench.samples(kind, n_samples(bench));
        let ctx = bench.ctx(kind, 0);
        let avg_size: f64 = samples
            .iter()
            .map(|&t| generate_os(&ctx, t, None, OsSource::DataGraph).len() as f64)
            .sum::<f64>()
            / samples.len() as f64;
        out.push_str(&format!("### {} (Aver|OS|={avg_size:.0})\n\n", kind.label()));
        let rows = quality_row(bench, kind, &samples, 0, &FIG9_LS);
        out.push_str(&markdown_table(&header_refs, &rows));
        out.push('\n');
    }

    // Panel (e): one small Author OS (the paper's |OS| = 67). The ladder
    // is ascending, so the first entry is the smallest famous author.
    let ladder = bench.ladder();
    if let Some((name, tds)) = ladder.first() {
        let ctx = bench.ctx(GdsKind::Author, 0);
        let size = generate_os(&ctx, *tds, None, OsSource::DataGraph).len();
        out.push_str(&format!("### (e) Small DBLP Author OS — {name} (|OS|={size})\n\n"));
        let rows = quality_row(bench, GdsKind::Author, &[*tds], 0, &FIG9_LS);
        out.push_str(&markdown_table(&header_refs, &rows));
        out.push('\n');
    }

    // Panel (f): DBLP Author across ranking settings, averaged over l.
    out.push_str("### (f) DBLP Author across settings (average over l=5..50)\n\n");
    let samples = bench.samples(GdsKind::Author, n_samples(bench));
    let mut rows = Vec::new();
    let method_names = [
        "Bottom-Up (Complete OS)",
        "Bottom-Up (Prelim-l OS)",
        "Update Top-Path-l (Complete OS)",
        "Update Top-Path-l (Prelim-l OS)",
    ];
    for (m, name) in method_names.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for (si, _) in SETTINGS.iter().enumerate() {
            let per_l = quality_row(bench, GdsKind::Author, &samples, si, &FIG9_LS);
            // Average the per-l percentages of method m.
            let vals: Vec<f64> = per_l[m][1..]
                .iter()
                .filter_map(|s| s.trim_end_matches('%').parse::<f64>().ok())
                .collect();
            let avg = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
            row.push(format!("{avg:.1}%"));
        }
        rows.push(row);
    }
    let hdr: Vec<String> = std::iter::once("method".to_string())
        .chain(SETTINGS.iter().map(|s| s.name.to_string()))
        .collect();
    let hdr_refs: Vec<&str> = hdr.iter().map(|s| s.as_str()).collect();
    out.push_str(&markdown_table(&hdr_refs, &rows));
    out
}

// ---------------------------------------------------------------------
// Figure 10: efficiency
// ---------------------------------------------------------------------

/// Figure 10(a-d): size-l computation time per method and input, averaged
/// over the sampled OSs, excluding OS generation time (as the paper does).
/// The paper's DP is run with a step budget; exhausted cells print `>cap`.
pub fn fig10(bench: &Bench) -> String {
    let ls: Vec<usize> = if bench.quick { vec![10, 30] } else { FIG9_LS.to_vec() };
    let naive_budget: u64 = if bench.quick { 2_000_000 } else { 50_000_000 };
    let mut out = String::from(
        "## Figure 10 — Efficiency: size-l computation time (ms), OS generation excluded\n\n",
    );
    for kind in GdsKind::ALL {
        let samples = bench.samples(kind, n_samples(bench));
        let ctx = bench.ctx(kind, 0);
        out.push_str(&format!("### {}\n\n", kind.label()));
        let mut rows: Vec<Vec<String>> = Vec::new();
        let method_names = [
            "Bottom-Up (Complete OS)",
            "Bottom-Up (Prelim-l OS)",
            "Update Top-path-l (Complete OS)",
            "Update Top-path-l (Prelim-l OS)",
            "Optimal/paper-DP (Complete OS)",
            "Optimal/paper-DP (Prelim-l OS)",
        ];
        let mut cells: Vec<Vec<String>> = vec![Vec::new(); method_names.len()];
        for &l in &ls {
            let pairs: Vec<(Os, Os)> = samples.iter().map(|&t| full_pair(&ctx, t, l)).collect();
            // Greedy methods: average min-of-3 timings.
            for (m, use_prelim, algo) in [
                (0usize, false, &BottomUp as &dyn SizeLAlgorithm),
                (1, true, &BottomUp),
                (2, false, &TopPath),
                (3, true, &TopPath),
            ] {
                let mut total = 0.0;
                for (complete, prelim) in &pairs {
                    let input = if use_prelim { prelim } else { complete };
                    total += time_ms(|| {
                        std::hint::black_box(algo.compute(input, l));
                    });
                }
                cells[m].push(format!("{:.3}", total / pairs.len() as f64));
            }
            // Paper DP with budget.
            for (m, use_prelim) in [(4usize, false), (5, true)] {
                let dp = DpNaive { budget: naive_budget };
                let mut total = 0.0;
                let mut exceeded = false;
                for (complete, prelim) in &pairs {
                    let input = if use_prelim { prelim } else { complete };
                    let t0 = Instant::now();
                    match dp.try_compute(input, l) {
                        NaiveOutcome::Done(_, _) => total += t0.elapsed().as_secs_f64() * 1e3,
                        NaiveOutcome::BudgetExceeded => {
                            exceeded = true;
                            break;
                        }
                    }
                }
                cells[m].push(if exceeded {
                    ">cap".into()
                } else {
                    format!("{:.3}", total / pairs.len() as f64)
                });
            }
        }
        for (m, name) in method_names.iter().enumerate() {
            let mut row = vec![name.to_string()];
            row.extend(cells[m].clone());
            rows.push(row);
        }
        let header: Vec<String> = std::iter::once("method".to_string())
            .chain(ls.iter().map(|l| format!("l={l}")))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        out.push_str(&markdown_table(&header_refs, &rows));
        out.push('\n');
    }
    out
}

/// Figure 10(e): scalability — size-10 computation time against |OS| over
/// the famous-author ladder.
pub fn fig10e(bench: &Bench) -> String {
    let l = 10usize;
    let naive_budget: u64 = if bench.quick { 2_000_000 } else { 50_000_000 };
    let mut out =
        String::from("## Figure 10(e) — Scalability: size-10 OS computation time vs |OS| (ms)\n\n");
    let ctx = bench.ctx(GdsKind::Author, 0);
    let mut rows = Vec::new();
    // The ladder is already ascending in |OS|.
    for (name, tds) in bench.ladder() {
        let full = generate_os(&ctx, tds, None, OsSource::DataGraph);
        let (complete, prelim) = full_pair(&ctx, tds, l);
        let t_bu_c = time_ms(|| {
            std::hint::black_box(BottomUp.compute(&complete, l));
        });
        let t_bu_p = time_ms(|| {
            std::hint::black_box(BottomUp.compute(&prelim, l));
        });
        let t_tp_c = time_ms(|| {
            std::hint::black_box(TopPath.compute(&complete, l));
        });
        let t_tp_p = time_ms(|| {
            std::hint::black_box(TopPath.compute(&prelim, l));
        });
        let dp = DpNaive { budget: naive_budget };
        let t0 = Instant::now();
        let t_dp = match dp.try_compute(&complete, l) {
            NaiveOutcome::Done(_, _) => format!("{:.3}", t0.elapsed().as_secs_f64() * 1e3),
            NaiveOutcome::BudgetExceeded => ">cap".into(),
        };
        rows.push(vec![
            name,
            full.len().to_string(),
            format!("{t_bu_c:.3}"),
            format!("{t_bu_p:.3}"),
            format!("{t_tp_c:.3}"),
            format!("{t_tp_p:.3}"),
            t_dp,
        ]);
    }
    out.push_str(&markdown_table(
        &[
            "author",
            "|OS|",
            "BU (complete)",
            "BU (prelim)",
            "TP (complete)",
            "TP (prelim)",
            "paper-DP (complete)",
        ],
        &rows,
    ));
    out
}

/// Figure 10(f): cost breakdown — OS generation (data-graph vs database)
/// plus size-l computation, and prelim-l sizes/savings, on the Supplier
/// GDS.
pub fn fig10f(bench: &Bench) -> String {
    let mut out = String::from(
        "## Figure 10(f) — Cost breakdown on TPC-H Supplier (ms; averages over samples)\n\n",
    );
    let samples = bench.samples(GdsKind::Supplier, n_samples(bench));
    let ctx = bench.ctx(GdsKind::Supplier, 0);
    let db = bench.db(DbKind::Tpch);

    let mut rows = Vec::new();
    for &l in &[10usize, 50] {
        let mut gen_graph = 0.0;
        let mut gen_db = 0.0;
        let mut gen_prelim_graph = 0.0;
        let mut gen_prelim_db = 0.0;
        let mut complete_size = 0usize;
        let mut prelim_size = 0usize;
        let mut joins_complete = 0u64;
        let mut joins_prelim = 0u64;
        let mut t_bu = 0.0;
        let mut t_tp = 0.0;
        for &tds in &samples {
            gen_graph += time_ms(|| {
                std::hint::black_box(generate_os(
                    &ctx,
                    tds,
                    Some(l as u32 - 1),
                    OsSource::DataGraph,
                ));
            });
            db.access().reset();
            gen_db += time_ms(|| {
                std::hint::black_box(generate_os(
                    &ctx,
                    tds,
                    Some(l as u32 - 1),
                    OsSource::Database,
                ));
            });
            joins_complete += db.access().snapshot().joins / 3; // time_ms runs 3x
            gen_prelim_graph += time_ms(|| {
                std::hint::black_box(generate_prelim(&ctx, tds, l, OsSource::DataGraph));
            });
            db.access().reset();
            gen_prelim_db += time_ms(|| {
                std::hint::black_box(generate_prelim(&ctx, tds, l, OsSource::Database));
            });
            joins_prelim += db.access().snapshot().joins / 3;
            let (complete, prelim) = os_pair(&ctx, tds, l);
            complete_size += complete.len();
            prelim_size += prelim.len();
            t_bu += time_ms(|| {
                std::hint::black_box(BottomUp.compute(&prelim, l));
            });
            t_tp += time_ms(|| {
                std::hint::black_box(TopPath.compute(&prelim, l));
            });
        }
        let n = samples.len() as f64;
        rows.push(vec![
            format!("l={l}"),
            format!("{:.0}", complete_size as f64 / n),
            format!("{:.0}", prelim_size as f64 / n),
            format!("{:.3}", gen_graph / n),
            format!("{:.3}", gen_db / n),
            format!("{:.3}", gen_prelim_graph / n),
            format!("{:.3}", gen_prelim_db / n),
            format!("{:.0}", joins_complete as f64 / n),
            format!("{:.0}", joins_prelim as f64 / n),
            format!("{:.3}", t_bu / n),
            format!("{:.3}", t_tp / n),
        ]);
    }
    out.push_str(&markdown_table(
        &[
            "l",
            "|OS|",
            "|prelim|",
            "gen complete (graph)",
            "gen complete (DB)",
            "gen prelim (graph)",
            "gen prelim (DB)",
            "joins complete",
            "joins prelim",
            "Bottom-Up on prelim",
            "Top-Path on prelim",
        ],
        &rows,
    ));
    out.push_str(&format!(
        "\nData-graph build: DBLP {:.0} ms, TPC-H {:.0} ms (cf. the paper's 17 s / 128 s at full scale).\n",
        bench.dblp_dg_ms, bench.tpch_dg_ms
    ));
    out
}

// ---------------------------------------------------------------------
// Auxiliary reproductions
// ---------------------------------------------------------------------

/// Figures 2 and 12 (and the two GDSs the paper describes in prose):
/// annotated GDS(0.7) trees.
pub fn show_gds(bench: &Bench) -> String {
    let mut out =
        String::from("## Figures 2 / 12 — annotated GDS(0.7) per DS relation (GA1-d1)\n\n");
    for kind in GdsKind::ALL {
        out.push_str(&format!(
            "### {}\n\n```\n{}```\n\n",
            kind.label(),
            bench.gds(kind, 0).pretty()
        ));
    }
    out
}

/// Figure 13: the authority transfer rates of each GA preset.
pub fn show_ga(bench: &Bench) -> String {
    let mut out = String::from("## Figure 13 — authority transfer schema graphs\n\n");
    for (db_kind, name) in [(DbKind::Dblp, "DBLP"), (DbKind::Tpch, "TPC-H")] {
        for preset in [sizel_rank::GaPreset::Ga1, sizel_rank::GaPreset::Ga2] {
            let (db, sg, dg) = match db_kind {
                DbKind::Dblp => (&bench.dblp.db, &bench.dblp_sg, &bench.dblp_dg),
                DbKind::Tpch => (&bench.tpch.db, &bench.tpch_sg, &bench.tpch_dg),
            };
            let ga = match db_kind {
                DbKind::Dblp => sizel_rank::dblp_ga(preset, db, sg, dg),
                DbKind::Tpch => sizel_rank::tpch_ga(preset, db, sg, dg),
            };
            out.push_str(&format!("### {name} {}\n\n", ga.name));
            for e in sg.edges() {
                let rates = ga.edge_rates[e.id.index()];
                if rates.forward == 0.0 && rates.backward == 0.0 {
                    continue;
                }
                let from = &db.table(e.from).schema.name;
                let col = &db.table(e.from).schema.columns[e.fk_col].name;
                let to = &db.table(e.to).schema.name;
                out.push_str(&format!(
                    "- `{from}.{col} -> {to}`: forward {}, backward {}\n",
                    rates.forward, rates.backward
                ));
            }
            for (i, link) in dg.links().iter().enumerate() {
                if ga.link_rates[i] == 0.0 {
                    continue;
                }
                let from = &db.table(link.from_table).schema.name;
                let to = &db.table(link.to_table).schema.name;
                let via = &db.table(link.junction).schema.name;
                out.push_str(&format!("- M:N `{from} -> {to}` via {via}: {}\n", ga.link_rates[i]));
            }
            if ga.is_value_rank() {
                out.push_str("- value functions: ");
                let names: Vec<String> = ga
                    .value_fns
                    .iter()
                    .map(|vf| {
                        let t = db.table(vf.table);
                        format!("f({}.{})", t.schema.name, t.schema.columns[vf.column].name)
                    })
                    .collect();
                out.push_str(&names.join(", "));
                out.push('\n');
            }
            out.push('\n');
        }
    }
    out
}

/// Examples 4 and 5: the complete OS (head) and the size-15 OSs of the
/// pinned example authors.
pub fn example45(bench: &Bench) -> String {
    let mut out = String::from("## Examples 4 / 5 — complete OS and size-15 OSs\n\n");
    let ctx = bench.ctx(GdsKind::Author, 0);
    let ladder = bench.ladder();
    // The ladder is ascending; the example trio are the three largest.
    let trio: Vec<(String, TupleRef)> = ladder.iter().rev().take(3).cloned().collect();
    if let Some((name, tds)) = trio.first() {
        let complete = generate_os(&ctx, *tds, None, OsSource::DataGraph);
        out.push_str(&format!(
            "### Example 4 — complete OS for {name} ({} tuples)\n\n```\n",
            complete.len()
        ));
        let opts = RenderOptions { max_lines: Some(14), ..RenderOptions::default() };
        out.push_str(&render_os(
            bench.db(DbKind::Dblp),
            bench.gds(GdsKind::Author, 0),
            &complete,
            &opts,
        ));
        out.push_str("```\n\n");
    }
    out.push_str("### Example 5 — size-15 OSs\n\n");
    for (name, tds) in &trio {
        let (prelim, _) = generate_prelim(&ctx, *tds, 15, OsSource::DataGraph);
        let r = TopPath.compute(&prelim, 15);
        let summary = prelim.project(&r.selected);
        out.push_str(&format!("**{name}** (Im(S) = {:.3}):\n\n```\n", r.importance));
        out.push_str(&render_os(
            bench.db(DbKind::Dblp),
            bench.gds(GdsKind::Author, 0),
            &summary,
            &RenderOptions::default(),
        ));
        out.push_str("```\n\n");
    }
    out
}

/// The §6.1 comparative evaluation: static snippets vs size-5 OSs.
pub fn snippet_baseline(bench: &Bench) -> String {
    let mut out = String::from(
        "## §6.1 comparative — Google-Desktop-style static snippets vs size-5 OSs\n\n",
    );
    let ctx = bench.ctx(GdsKind::Author, 0);
    let samples = bench.samples(GdsKind::Author, n_samples(bench));
    let panel = EvaluatorPanel::default();
    let mut rows = Vec::new();
    let mut snippet_total = 0.0;
    let mut optimal_total = 0.0;
    for (i, &tds) in samples.iter().enumerate() {
        let os = generate_os(&ctx, tds, None, OsSource::DataGraph);
        let ideal = panel.ideal(&os, 5, 0);
        let optimal = DpKnapsack.compute(&os, 5);
        let snippet = snippet_selection(&os, 3, 0xBEEF + i as u64);
        let s_overlap = snippet.overlap(&ideal);
        let o_overlap = optimal.overlap(&ideal);
        snippet_total += s_overlap as f64;
        optimal_total += o_overlap as f64;
        rows.push(vec![
            format!("OS {i} (|OS|={})", os.len()),
            s_overlap.to_string(),
            o_overlap.to_string(),
        ]);
    }
    out.push_str(&markdown_table(
        &["DS", "snippet ∩ evaluator size-5", "optimal size-5 ∩ evaluator size-5"],
        &rows,
    ));
    out.push_str(&format!(
        "\nAverages: snippet {:.2} common tuples, size-5 OS {:.2} — the paper found \"zero and exceptionally one\" for snippets.\n",
        snippet_total / samples.len() as f64,
        optimal_total / samples.len() as f64
    ));
    out
}

/// §6.3 data-graph statistics (build time, size).
pub fn datagraph_stats(bench: &Bench) -> String {
    let mut out = String::from("## §6.3 — data-graph statistics\n\n");
    let rows = vec![
        vec![
            "DBLP".to_string(),
            bench.dblp.db.total_tuples().to_string(),
            bench.dblp_dg.n_nodes().to_string(),
            bench.dblp_dg.n_adjacency_entries().to_string(),
            format!("{:.2}", bench.dblp_dg.approx_bytes() as f64 / 1e6),
            format!("{:.1}", bench.dblp_dg_ms),
        ],
        vec![
            "TPC-H".to_string(),
            bench.tpch.db.total_tuples().to_string(),
            bench.tpch_dg.n_nodes().to_string(),
            bench.tpch_dg.n_adjacency_entries().to_string(),
            format!("{:.2}", bench.tpch_dg.approx_bytes() as f64 / 1e6),
            format!("{:.1}", bench.tpch_dg_ms),
        ],
    ];
    out.push_str(&markdown_table(
        &["database", "tuples", "nodes", "adjacency entries", "approx MB", "build ms"],
        &rows,
    ));
    out
}

/// Resident memory of this process (`VmRSS` of `/proc/self/status`) in
/// MB; 0 where there is no procfs.
fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status.lines().find_map(|l| {
        l.strip_prefix("VmRSS:")?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
    });
    kb.unwrap_or(0.0) / 1024.0
}

/// Where one engine's resident bytes go: `VmRSS` after each stage of one
/// `generate` + engine derivation over `DblpConfig::bench()` (the stages
/// of `benches/build_stages.rs`, every product kept alive), then each
/// table's rows and [`sizel_storage::Table::value_bytes`], and its index
/// bytes by structure ([`sizel_storage::Table::index_bytes`]). Run it in a
/// fresh process (`repro footprint` builds no workbench first): freed
/// heap the allocator keeps counts as resident.
pub fn footprint() -> String {
    use sizel_core::keyword::KeywordIndex;
    use sizel_datagen::dblp::{generate, DblpConfig};
    use sizel_graph::{DataGraph, SchemaGraph};
    use sizel_rank::{compute, dblp_ga, install_importance_order, GaPreset, RankConfig};

    let mut out = String::from("## Footprint — one engine over DblpConfig::bench()\n\n");
    let mut stages = Vec::new();
    let mut last = rss_mb();
    let mut stage = |name: &str| {
        let now = rss_mb();
        stages.push(vec![name.to_string(), format!("{now:.1}"), format!("{:+.1}", now - last)]);
        last = now;
    };
    stage("process start");
    let mut db = generate(&DblpConfig::bench()).db;
    stage("generate");
    db.shrink_to_fit();
    stage("shrink_to_fit");
    let sg = SchemaGraph::from_database(&db);
    let dg = DataGraph::build(&db, &sg);
    stage("data graph");
    let authority = dblp_ga(GaPreset::Ga1, &db, &sg, &dg);
    let mut scores = compute(&db, &sg, &dg, &authority, &RankConfig::default());
    stage("rank");
    install_importance_order(&mut db, &dg, &mut scores);
    stage("posting install");
    let ds: Vec<_> = ["Author", "Paper"].map(|t| db.table_id(t).expect("DBLP schema")).to_vec();
    let kw = KeywordIndex::build(&db, &ds);
    stage("keyword index");
    std::hint::black_box((&dg, &scores, &kw));
    out.push_str(&markdown_table(&["after", "VmRSS MB", "delta MB"], &stages));

    let tables: Vec<Vec<String>> = db
        .tables()
        .map(|(_, t)| {
            let (rows, bytes) = (t.len(), t.value_bytes());
            vec![
                t.schema.name.clone(),
                rows.to_string(),
                bytes.to_string(),
                format!("{:.1}", bytes as f64 / rows.max(1) as f64),
            ]
        })
        .collect();
    out.push('\n');
    out.push_str(&markdown_table(&["table", "rows", "value_bytes", "B/row"], &tables));

    // Where the index bytes sit, from capacities: the split of the
    // database and posting-install rows above.
    let mb = |b: usize| format!("{:.2}", b as f64 / 1e6);
    let row = |name: String, split: &[(&str, usize)]| -> Vec<String> {
        let sum = split.iter().map(|&(_, b)| b).sum();
        std::iter::once(name).chain(split.iter().map(|&(_, b)| mb(b))).chain([mb(sum)]).collect()
    };
    let splits: Vec<_> =
        db.tables().map(|(_, t)| (t.schema.name.clone(), t.index_bytes())).collect();
    let mut total = splits[0].1.map(|(name, _)| (name, 0));
    for (_, split) in &splits {
        total.iter_mut().zip(split).for_each(|(sum, &(_, b))| sum.1 += b);
    }
    let mut rows: Vec<Vec<String>> = splits.iter().map(|(name, s)| row(name.clone(), s)).collect();
    rows.push(row("all tables".into(), &total));
    let header: Vec<String> = std::iter::once("table".into())
        .chain(total.iter().map(|(name, _)| format!("{name} MB")))
        .chain(["MB".into()])
        .collect();
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    out.push('\n');
    out.push_str(&markdown_table(&header, &rows));
    out
}

/// Ablations: paper-DP vs knapsack-DP, Top-Path vs its s(v) optimization,
/// avoidance conditions on/off (I/O accesses).
pub fn ablations(bench: &Bench) -> String {
    let mut out = String::from("## Ablations\n\n");

    // (1) DP variants.
    out.push_str(
        "### paper-DP (Algorithm 1, exponential) vs knapsack-DP (same optimum, O(n·l²))\n\n",
    );
    let ctx = bench.ctx(GdsKind::Author, 0);
    let tds = bench.samples(GdsKind::Author, 1)[0];
    let mut rows = Vec::new();
    for l in [4usize, 6, 8, 10, 12, 16] {
        let complete = generate_os(&ctx, tds, Some(l as u32 - 1), OsSource::DataGraph);
        let t_fast = time_ms(|| {
            std::hint::black_box(DpKnapsack.compute(&complete, l));
        });
        let dp = DpNaive { budget: 200_000_000 };
        let t0 = Instant::now();
        let (naive_cell, steps_cell, equal) = match dp.try_compute(&complete, l) {
            NaiveOutcome::Done(r, steps) => {
                let fast = DpKnapsack.compute(&complete, l);
                (
                    format!("{:.3}", t0.elapsed().as_secs_f64() * 1e3),
                    steps.to_string(),
                    (r.importance - fast.importance).abs() < 1e-9,
                )
            }
            NaiveOutcome::BudgetExceeded => (">cap".into(), ">2e8".into(), true),
        };
        rows.push(vec![
            format!("l={l}"),
            complete.len().to_string(),
            format!("{t_fast:.3}"),
            naive_cell,
            steps_cell,
            equal.to_string(),
        ]);
    }
    out.push_str(&markdown_table(
        &["l", "|OS|", "knapsack ms", "paper-DP ms", "paper-DP steps", "same optimum"],
        &rows,
    ));

    // (2) Top-Path variants.
    out.push_str("\n### Top-Path vs Top-Path with s(v) precomputation (§5.2)\n\n");
    let samples = bench.samples(GdsKind::Author, n_samples(bench));
    let mut rows = Vec::new();
    for l in [10usize, 30, 50] {
        let mut t_base = 0.0;
        let mut t_opt = 0.0;
        let mut q_base = 0.0;
        let mut q_opt = 0.0;
        for &tds in &samples {
            let complete = generate_os(&ctx, tds, Some(l as u32 - 1), OsSource::DataGraph);
            let optimum = DpKnapsack.compute(&complete, l).importance.max(1e-12);
            t_base += time_ms(|| {
                std::hint::black_box(TopPath.compute(&complete, l));
            });
            t_opt += time_ms(|| {
                std::hint::black_box(TopPathOpt.compute(&complete, l));
            });
            q_base += TopPath.compute(&complete, l).importance / optimum;
            q_opt += TopPathOpt.compute(&complete, l).importance / optimum;
        }
        let n = samples.len() as f64;
        rows.push(vec![
            format!("l={l}"),
            format!("{:.3}", t_base / n),
            format!("{:.3}", t_opt / n),
            format!("{:.1}%", 100.0 * q_base / n),
            format!("{:.1}%", 100.0 * q_opt / n),
        ]);
    }
    out.push_str(&markdown_table(
        &["l", "Top-Path ms", "s(v) ms", "Top-Path quality", "s(v) quality"],
        &rows,
    ));

    // (3) Avoidance conditions (database mode I/O), under both score
    // regimes: the paper's uncompressed ObjectRank skew prunes far more.
    out.push_str(
        "\n### Avoidance conditions: I/O accesses, complete vs prelim-l (database mode)\n\n",
    );
    let sup_samples = bench.samples(GdsKind::Supplier, n_samples(bench));
    let db = bench.db(DbKind::Tpch);
    let mut rows = Vec::new();
    for (regime, sup_ctx) in [
        ("compressed", bench.ctx(GdsKind::Supplier, 0)),
        ("raw-skew", bench.ctx_raw(GdsKind::Supplier)),
    ] {
        for l in [10usize, 50] {
            let mut joins_c = 0u64;
            let mut tuples_c = 0u64;
            let mut joins_p = 0u64;
            let mut tuples_p = 0u64;
            let mut c1 = 0u64;
            let mut c2 = 0u64;
            let mut size_c = 0usize;
            let mut size_p = 0usize;
            for &tds in &sup_samples {
                db.access().reset();
                let os = generate_os(&sup_ctx, tds, Some(l as u32 - 1), OsSource::Database);
                let s = db.access().snapshot();
                joins_c += s.joins;
                tuples_c += s.tuples;
                size_c += os.len();
                db.access().reset();
                let (p, st) = generate_prelim(&sup_ctx, tds, l, OsSource::Database);
                let s = db.access().snapshot();
                joins_p += s.joins;
                tuples_p += s.tuples;
                size_p += p.len();
                c1 += st.cond1_skips;
                c2 += st.cond2_probes;
            }
            let n = sup_samples.len() as f64;
            rows.push(vec![
                format!("{regime} l={l}"),
                format!("{:.0}", size_c as f64 / n),
                format!("{:.0}", size_p as f64 / n),
                format!("{:.0}", joins_c as f64 / n),
                format!("{:.0}", joins_p as f64 / n),
                format!("{:.0}", tuples_c as f64 / n),
                format!("{:.0}", tuples_p as f64 / n),
                format!("{:.0}", c1 as f64 / n),
                format!("{:.0}", c2 as f64 / n),
            ]);
        }
    }
    out.push_str(&markdown_table(
        &[
            "regime",
            "|OS|",
            "|prelim|",
            "joins C",
            "joins P",
            "tuples C",
            "tuples P",
            "cond1 skips",
            "cond2 probes",
        ],
        &rows,
    ));
    out
}

/// The §7 incremental-computation analysis: similarity of optimal size-l
/// and size-(l-1) OSs ("optimal size-l OSs for different l could be very
/// different. This prevents the incremental computation ...").
pub fn consecutive(bench: &Bench) -> String {
    let mut out = String::from(
        "## §7 — similarity of consecutive optimal size-l OSs (Jaccard; `nested` = size-(l-1) ⊂ size-l)\n\n",
    );
    let ctx = bench.ctx(GdsKind::Author, 0);
    let tds = bench.samples(GdsKind::Author, 1)[0];
    let os = generate_os(&ctx, tds, Some(29), OsSource::DataGraph);
    let sims = sizel_core::eval::consecutive_optima_similarity(&os, 30);
    let mut rows = Vec::new();
    let mut non_nested = 0;
    for (l, j, nested) in &sims {
        if !nested {
            non_nested += 1;
        }
        rows.push(vec![l.to_string(), format!("{j:.3}"), nested.to_string()]);
    }
    out.push_str(&markdown_table(&["l", "Jaccard(S*_l, S*_{l-1})", "nested"], &rows));
    out.push_str(&format!(
        "\n{} of {} consecutive pairs are NOT nested — confirming the paper's \
         observation that incremental size-l computation is unsound in general.\n",
        non_nested,
        sims.len()
    ));
    out
}

/// The §7 word-budget reformulation: summaries constrained by rendered
/// word count instead of tuple count.
pub fn wordbudget(bench: &Bench) -> String {
    let mut out =
        String::from("## §7 extension — word-budget summaries (cost = rendered word count)\n\n");
    let ctx = bench.ctx(GdsKind::Author, 0);
    let db = bench.db(DbKind::Dblp);
    let tds = bench.samples(GdsKind::Author, 1)[0];
    let os = generate_os(&ctx, tds, Some(29), OsSource::DataGraph);
    // Cost of a node = number of words across its display columns + 1 for
    // the label.
    let word_cost = |id: sizel_core::os::OsNodeId| -> usize {
        let n = os.node(id);
        let table = db.table(n.tuple.table);
        let words: usize = table
            .schema
            .display_columns()
            .map(|c| table.value(n.tuple.row, c).to_string().split_whitespace().count())
            .sum();
        words + 1
    };
    let mut rows = Vec::new();
    for budget in [20usize, 50, 100, 200] {
        let r = sizel_core::algo::WordBudgetDp.compute(&os, budget, &word_cost);
        let used: usize = r.selected.iter().map(|&id| word_cost(id)).sum();
        rows.push(vec![
            budget.to_string(),
            r.len().to_string(),
            used.to_string(),
            format!("{:.3}", r.importance),
        ]);
    }
    out.push_str(&markdown_table(&["word budget W", "tuples", "words used", "Im(S)"], &rows));
    out.push_str(
        "\nTuple counts adapt to the budget — the \"20 attributes or 50 words\" \
         selection rule the paper sketches, solved exactly by the budgeted tree DP.\n",
    );
    out
}

/// Calibration report: measured average |OS| per GDS vs the paper's.
pub fn calibrate(bench: &Bench) -> String {
    let paper = [
        ("DBLP Author", 1116.0),
        ("DBLP Paper", 367.0),
        ("TPC-H Customer", 176.0),
        ("TPC-H Supplier", 1341.0),
    ];
    let mut out = String::from("## Calibration — Aver|OS| per GDS (paper vs measured)\n\n");
    let mut rows = Vec::new();
    for (kind, (label, expect)) in GdsKind::ALL.into_iter().zip(paper) {
        let ctx = bench.ctx(kind, 0);
        let samples = bench.samples(kind, n_samples(bench));
        let avg: f64 = samples
            .iter()
            .map(|&t| generate_os(&ctx, t, None, OsSource::DataGraph).len() as f64)
            .sum::<f64>()
            / samples.len() as f64;
        rows.push(vec![label.to_string(), format!("{expect:.0}"), format!("{avg:.0}")]);
    }
    out.push_str(&markdown_table(&["GDS", "paper Aver|OS|", "measured Aver|OS|"], &rows));
    out
}

/// Sanity helper used by integration tests: the optimal importance per
/// result must dominate every greedy method on the same input.
pub fn verify_dominance(os: &Os, l: usize) -> (SizeLResult, Vec<(AlgoKind, SizeLResult)>) {
    let opt = DpKnapsack.compute(os, l);
    let others: Vec<(AlgoKind, SizeLResult)> =
        [AlgoKind::BottomUp, AlgoKind::TopPath, AlgoKind::TopPathOpt]
            .into_iter()
            .map(|k| (k, k.algorithm().compute(os, l)))
            .collect();
    (opt, others)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn bench() -> &'static Bench {
        static B: OnceLock<Bench> = OnceLock::new();
        B.get_or_init(|| Bench::new(true))
    }

    #[test]
    fn fig9_tables_have_expected_shape() {
        let out = fig9(bench());
        assert!(out.contains("DBLP Author"));
        assert!(out.contains("TPC-H Supplier"));
        assert!(out.contains("Update Top-Path-l (Prelim-l OS)"));
        // Every percentage is <= 100.
        for token in out.split_whitespace().filter(|t| t.ends_with("%")) {
            let v: f64 = token.trim_end_matches('%').parse().unwrap_or(0.0);
            assert!(v <= 100.0 + 1e-9, "quality ratio above 100%: {token}");
            assert!(v >= 0.0);
        }
    }

    #[test]
    fn fig10f_and_stats_render() {
        let out = fig10f(bench());
        assert!(out.contains("gen complete (graph)"));
        let out = datagraph_stats(bench());
        assert!(out.contains("DBLP"));
        assert!(out.contains("TPC-H"));
    }

    #[test]
    fn show_outputs_render() {
        assert!(show_gds(bench()).contains("Author (1.00)"));
        let ga = show_ga(bench());
        assert!(ga.contains("GA1"));
        assert!(ga.contains("value functions"));
        let e = example45(bench());
        assert!(e.contains("Example 5"));
    }

    #[test]
    fn verify_dominance_holds_on_fixture() {
        let b = bench();
        let ctx = b.ctx(GdsKind::Author, 0);
        let tds = b.samples(GdsKind::Author, 1)[0];
        let os = generate_os(&ctx, tds, Some(14), OsSource::DataGraph);
        let (opt, others) = verify_dominance(&os, 15);
        for (kind, r) in others {
            assert!(r.importance <= opt.importance + 1e-9, "{:?} beat the optimum", kind);
        }
    }
}
