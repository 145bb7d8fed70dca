//! Power-iteration solver for global ObjectRank / ValueRank.
//!
//! `r(v) = (1-d)/|V| + d · Σ_{u→v} α(u→v) · r(u) / outdeg_α(u)`
//!
//! where `α` is the edge-type transfer rate of the `G_A` (scaled per source
//! tuple by the value multiplier when the GA is a ValueRank GA). Per-node
//! total outgoing rate is capped at 1, which bounds the iteration's spectral
//! radius by `d` and guarantees convergence for `d < 1` — including the
//! paper's d3 = 0.99 setting.

use sizel_storage::{Database, TableId, TupleRef, Value};

use sizel_graph::{DataGraph, NodeId, SchemaGraph};

use crate::authority::AuthorityGraph;

/// Solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct RankConfig {
    /// Damping factor `d` (paper: d1 = 0.85, d2 = 0.10, d3 = 0.99).
    pub damping: f64,
    /// Convergence threshold on the L1 delta of the (sum-1 normalized)
    /// score vector.
    pub epsilon: f64,
    /// Iteration cap.
    pub max_iterations: u32,
    /// Log-compress the final scores: `s -> 1 + ln(1 + s)`. A monotone
    /// transform (all rankings preserved) that tames the synthetic
    /// workloads' heavy head so that within-OS importance ratios match the
    /// regime of the paper's Figure 3 (author 58, papers ~20, co-authors
    /// 43/34 — single order of magnitude). See DESIGN.md §3.
    pub log_compress: bool,
}

impl Default for RankConfig {
    fn default() -> Self {
        RankConfig { damping: 0.85, epsilon: 1e-9, max_iterations: 500, log_compress: true }
    }
}

impl RankConfig {
    /// A config with the given damping and default tolerances.
    pub fn with_damping(d: f64) -> Self {
        RankConfig { damping: d, ..RankConfig::default() }
    }
}

/// Global importance scores for every tuple, scaled to mean 1.
#[derive(Clone, Debug)]
pub struct RankScores {
    /// Dense scores indexed by data-graph [`NodeId`].
    pub scores: Vec<f64>,
    /// Iterations performed.
    pub iterations: u32,
    /// Whether the L1 delta dropped below epsilon.
    pub converged: bool,
    /// Per-table maximum score — the global statistic behind the GDS
    /// `max(Ri)` annotations (Section 5.3).
    pub per_table_max: Vec<f64>,
    /// Token of the FK importance order these scores installed into their
    /// database via [`crate::install_importance_order`], if any. Query
    /// contexts compare it against `Database::fk_order` to decide whether
    /// the sorted-FK prefix scan is valid under these scores.
    pub fk_order: Option<sizel_storage::FkOrderToken>,
}

impl RankScores {
    /// The global importance of a node.
    pub fn global(&self, node: NodeId) -> f64 {
        self.scores[node.index()]
    }

    /// The per-table maximum global importance.
    pub fn table_max(&self, table: TableId) -> f64 {
        self.per_table_max[table.index()]
    }
}

/// Sorts every FK posting list of `db` by these scores' descending global
/// importance and stamps the scores with the resulting order token, so
/// query contexts built over `(db, scores)` serve Avoidance-Condition-2
/// probes as bounded prefix scans (see `sizel_storage::fk_index`).
///
/// Local importance is `Im(t) · Af(Ri)` with the affinity a positive
/// per-relation constant, so one global-importance order per table is
/// valid for every GDS. Call once after ranking, before serving; scores
/// from a *different* setting keep `fk_order: None` and fall back to the
/// heap path automatically.
pub fn install_importance_order(db: &mut Database, dg: &DataGraph, scores: &mut RankScores) {
    let token = db.install_importance_order(&|t, r| scores.global(dg.node_id(TupleRef::new(t, r))));
    scores.fk_order = Some(token);
}

/// Estimates the global importance of a row *about to be appended* to
/// `table`, without re-running the power iteration — the incremental
/// score-installation path of the update subsystem.
///
/// The estimate is one gather step of the iteration, evaluated at the
/// converged scores, restricted to the in-edges a fresh row can have:
/// nothing references a brand-new primary key, so the only authority
/// flowing *into* it is the backward share of each FK parent it names
/// (`rate_b · Im(parent) / (deg(parent) + 1)`, the `+1` counting the new
/// row itself), plus the teleport floor `(1 − d)`.
///
/// **Approximation bound (documented, empirically pinned).** Relative to
/// the exact-refresh escape hatch ([`compute`] over the mutated
/// database), the estimate ignores four effects, each of bounded size:
/// (1) value multipliers and the per-node emission cap are taken as 1 —
/// exact for plain ObjectRank GAs below the cap; (2) the siblings of the
/// new row keep their pre-insert share of the parent's backward mass — a
/// per-sibling relative error ≤ `1/deg(parent)`; (3) mean-1
/// renormalization drift — `O(1/n)` per insert since one row carries
/// `O(1/n)` of the total mass; (4) the gather runs in the log-compressed
/// score space through its exact inverse, so compression itself
/// introduces no error beyond (1)–(3) being applied to decompressed
/// values. Multi-hop propagation of the new row's own out-mass is damped
/// by `d^2` and ignored. The rank test-suite pins the resulting
/// end-to-end error on the DBLP fixture at ≤ 50% relative for the
/// appended row and ≤ 1% L1 drift for pre-existing rows; workloads
/// needing exactness use [`compute`] (the `RefreshPolicy::Exact` path of
/// the engine).
#[allow(clippy::too_many_arguments)] // mirrors the gather step's inputs
pub fn estimate_appended_score(
    db: &Database,
    sg: &SchemaGraph,
    dg: &DataGraph,
    ga: &AuthorityGraph,
    cfg: &RankConfig,
    scores: &RankScores,
    table: TableId,
    values: &[Value],
) -> f64 {
    estimate_appended_score_with(
        db,
        sg,
        ga,
        cfg,
        &|t: TupleRef| scores.global(dg.node_id(t)),
        table,
        values,
    )
}

/// [`estimate_appended_score`] with the converged scores read through a
/// caller-supplied resolver instead of a materialized score vector — the
/// form the **batched** apply path needs: mid-batch, the fold's spliced
/// vector does not exist yet, but its entries are exactly "the pre-batch
/// score for pre-batch tuples, the already-estimated score for rows
/// appended earlier in this batch", which the resolver expresses without
/// a data-graph rebuild per mutation. The FK in-degree is read from the
/// database's hash index, which equals the data graph's backward
/// adjacency count by construction (pinned by a graph property test), so
/// the two entry points are float-identical.
pub fn estimate_appended_score_with(
    db: &Database,
    sg: &SchemaGraph,
    ga: &AuthorityGraph,
    cfg: &RankConfig,
    score_of: &dyn Fn(TupleRef) -> f64,
    table: TableId,
    values: &[Value],
) -> f64 {
    let decompress = |s: f64| {
        if cfg.log_compress {
            ((s - 1.0).exp() - 1.0).max(0.0)
        } else {
            s.max(0.0)
        }
    };
    let d = cfg.damping;
    let mut raw = 1.0 - d;
    for e in sg.edges() {
        if e.from != table {
            continue;
        }
        let rate = ga.edge_rates[e.id.index()].backward;
        if rate <= 0.0 {
            continue;
        }
        let Some(k) = values[e.fk_col].as_int() else { continue };
        let Some(p) = db.table(e.to).by_pk(k) else { continue };
        let deg = db.table(table).rows_where_eq(e.fk_col, k).len() + 1;
        let parent = decompress(score_of(TupleRef::new(e.to, p)));
        raw += d * rate * parent / deg as f64;
    }
    if cfg.log_compress {
        1.0 + (1.0 + raw).ln()
    } else {
        raw
    }
}

/// The update-path sibling of [`estimate_appended_score_with`]: one gather
/// step for a row whose values are about to change in place, evaluated
/// *before* the storage update (the engine estimates first, then stages).
/// The degree compensation differs from the append case per FK edge: when
/// the update keeps a key, the row is already counted in the parent's
/// fanout (`deg = |rows_where_eq|`); when it re-homes to a new key, the
/// posting does not include the row yet, so — exactly like a fresh append
/// — the count is one short (`deg = |rows_where_eq| + 1`). In-edges from
/// referencing rows are ignored for the same reason the append estimator
/// ignores multi-hop terms: their contribution is damped by `d²` and the
/// bounded re-iteration ([`reiterate`]) sweeps it back in; the
/// incremental policy's pinned bounds cover the residual.
#[allow(clippy::too_many_arguments)] // mirrors the gather step's inputs
pub fn estimate_updated_score_with(
    db: &Database,
    sg: &SchemaGraph,
    ga: &AuthorityGraph,
    cfg: &RankConfig,
    score_of: &dyn Fn(TupleRef) -> f64,
    table: TableId,
    old_values: &[Value],
    new_values: &[Value],
) -> f64 {
    let decompress = |s: f64| {
        if cfg.log_compress {
            ((s - 1.0).exp() - 1.0).max(0.0)
        } else {
            s.max(0.0)
        }
    };
    let d = cfg.damping;
    let mut raw = 1.0 - d;
    for e in sg.edges() {
        if e.from != table {
            continue;
        }
        let rate = ga.edge_rates[e.id.index()].backward;
        if rate <= 0.0 {
            continue;
        }
        let Some(k) = new_values[e.fk_col].as_int() else { continue };
        let Some(p) = db.table(e.to).by_pk(k) else { continue };
        let moved = old_values[e.fk_col].as_int() != Some(k);
        let deg = (db.table(table).rows_where_eq(e.fk_col, k).len() + usize::from(moved)).max(1);
        let parent = decompress(score_of(TupleRef::new(e.to, p)));
        raw += d * rate * parent / deg as f64;
    }
    if cfg.log_compress {
        1.0 + (1.0 + raw).ln()
    } else {
        raw
    }
}

/// Splices an appended row's score into `scores` after the data graph has
/// been rebuilt over the mutated database: dense node ids shift by one
/// for every tuple after the insertion point, so the score vector absorbs
/// the new value at exactly the new row's node index, `per_table_max`
/// takes the running maximum, and the scores adopt `fk_order` (the
/// re-stamped token of the maintained importance order). Everything else
/// is untouched — the documented approximation of
/// [`estimate_appended_score`].
pub fn splice_appended_score(
    scores: &mut RankScores,
    dg_new: &DataGraph,
    tuple: TupleRef,
    score: f64,
    fk_order: Option<sizel_storage::FkOrderToken>,
) {
    splice_appended_scores(scores, dg_new, &[(tuple, score)], fk_order);
}

/// Splices a whole batch of appended rows' scores in one `O(n + B log B)`
/// merge pass — the batched form of [`splice_appended_score`], producing
/// exactly the vector the fold of single splices would (each new value
/// lands at its final node index of `dg_new`, which reflects *all* the
/// appended rows; pre-existing entries keep their values and relative
/// order, `per_table_max` takes running maxima — an order-independent
/// fold).
pub fn splice_appended_scores(
    scores: &mut RankScores,
    dg_new: &DataGraph,
    appended: &[(TupleRef, f64)],
    fk_order: Option<sizel_storage::FkOrderToken>,
) {
    let mut items: Vec<(usize, TupleRef, f64)> =
        appended.iter().map(|&(t, s)| (dg_new.node_id(t).index(), t, s)).collect();
    items.sort_unstable_by_key(|&(i, _, _)| i);
    let n = scores.scores.len() + items.len();
    debug_assert_eq!(n, dg_new.n_nodes(), "splice covers every appended row exactly once");
    let mut merged = Vec::with_capacity(n);
    let mut old = scores.scores.iter().copied();
    let mut next = items.iter().peekable();
    for idx in 0..n {
        match next.peek() {
            Some(&&(i, tuple, score)) if i == idx => {
                next.next();
                merged.push(score);
                let mx = &mut scores.per_table_max[tuple.table.index()];
                *mx = mx.max(score);
            }
            _ => merged.push(old.next().expect("old scores fill the non-appended slots")),
        }
    }
    scores.scores = merged;
    scores.fk_order = fk_order;
}

/// Per-node emission scale capping total outgoing authority at 1 (shared
/// by [`compute`] and [`reiterate`] so their sweeps are float-identical).
fn emission_scales(
    db: &Database,
    sg: &SchemaGraph,
    dg: &DataGraph,
    ga: &AuthorityGraph,
    m: &[f64],
) -> Vec<f64> {
    let n = dg.n_nodes();
    // Per-node total outgoing rate (including value multipliers), used to
    // cap emission at 1.
    let mut out = vec![0.0f64; n];
    for e in sg.edges() {
        let rates = ga.edge_rates[e.id.index()];
        let from_start = dg.table_start(e.from) as usize;
        let to_start = dg.table_start(e.to) as usize;
        if rates.forward > 0.0 {
            for rid in db.table(e.from).live_rows() {
                if dg.fwd_neighbor(e.id, rid).is_some() {
                    let u = from_start + rid.index();
                    out[u] += rates.forward * m[u];
                }
            }
        }
        if rates.backward > 0.0 {
            for rid in db.table(e.to).live_rows() {
                if !dg.bwd_neighbors(e.id, rid).is_empty() {
                    let u = to_start + rid.index();
                    out[u] += rates.backward * m[u];
                }
            }
        }
    }
    for (li, link) in dg.links().iter().enumerate() {
        let rate = ga.link_rates[li];
        if rate <= 0.0 {
            continue;
        }
        let from_start = dg.table_start(link.from_table) as usize;
        for rid in db.table(link.from_table).live_rows() {
            if !link.targets(rid).is_empty() {
                let u = from_start + rid.index();
                out[u] += rate * m[u];
            }
        }
    }
    // Emission scale: cap per-node outgoing authority at 1.
    out.iter().map(|&o| if o > 1.0 { 1.0 / o } else { 1.0 }).collect()
}

/// One power sweep: `next = base + d · transfer(cur)`.
#[allow(clippy::too_many_arguments)] // the sweep's full working set
fn sweep_once(
    db: &Database,
    sg: &SchemaGraph,
    dg: &DataGraph,
    ga: &AuthorityGraph,
    m: &[f64],
    scale: &[f64],
    d: f64,
    base: f64,
    cur: &[f64],
    next: &mut [f64],
) {
    next.iter_mut().for_each(|v| *v = base);

    for e in sg.edges() {
        let rates = ga.edge_rates[e.id.index()];
        let from_start = dg.table_start(e.from) as usize;
        let to_start = dg.table_start(e.to) as usize;
        if rates.forward > 0.0 {
            for rid in db.table(e.from).live_rows() {
                if let Some(t) = dg.fwd_neighbor(e.id, rid) {
                    let u = from_start + rid.index();
                    next[t.index()] += d * rates.forward * m[u] * scale[u] * cur[u];
                }
            }
        }
        if rates.backward > 0.0 {
            for rid in db.table(e.to).live_rows() {
                let list = dg.bwd_neighbors(e.id, rid);
                if list.is_empty() {
                    continue;
                }
                let u = to_start + rid.index();
                let share = d * rates.backward * m[u] * scale[u] * cur[u] / list.len() as f64;
                for &t in list {
                    next[t as usize] += share;
                }
            }
        }
    }
    for (li, link) in dg.links().iter().enumerate() {
        let rate = ga.link_rates[li];
        if rate <= 0.0 {
            continue;
        }
        let from_start = dg.table_start(link.from_table) as usize;
        for rid in db.table(link.from_table).live_rows() {
            let targets = link.targets(rid);
            if targets.is_empty() {
                continue;
            }
            let u = from_start + rid.index();
            let share = d * rate * m[u] * scale[u] * cur[u] / targets.len() as f64;
            for &t in targets {
                next[t as usize] += share;
            }
        }
    }
}

/// Mean-1 normalization, optional log compression, and per-table maxima —
/// the shared tail of [`compute`] and [`reiterate`].
fn finalize_scores(
    db: &Database,
    dg: &DataGraph,
    cfg: &RankConfig,
    mut cur: Vec<f64>,
    iterations: u32,
    converged: bool,
) -> RankScores {
    let n = cur.len();
    // Scale to mean 1 for readable local-importance numbers.
    let sum: f64 = cur.iter().sum();
    if sum > 0.0 {
        let k = n as f64 / sum;
        cur.iter_mut().for_each(|v| *v *= k);
    }
    if cfg.log_compress {
        cur.iter_mut().for_each(|v| *v = 1.0 + (1.0 + *v).ln());
    }

    let mut per_table_max = vec![0.0f64; db.table_count()];
    for (tid, t) in db.tables() {
        let start = dg.table_start(tid) as usize;
        let mut mx = 0.0f64;
        for i in 0..t.len() {
            mx = mx.max(cur[start + i]);
        }
        per_table_max[tid.index()] = mx;
    }

    RankScores { scores: cur, iterations, converged, per_table_max, fk_order: None }
}

/// Runs the power iteration. See module docs for semantics.
pub fn compute(
    db: &Database,
    sg: &SchemaGraph,
    dg: &DataGraph,
    ga: &AuthorityGraph,
    cfg: &RankConfig,
) -> RankScores {
    let n = dg.n_nodes();
    assert!(n > 0, "cannot rank an empty database");
    assert!((0.0..1.0).contains(&cfg.damping), "damping must be in [0, 1)");

    let m = ga.value_multipliers(db, dg);
    let scale = emission_scales(db, sg, dg, ga, &m);

    let d = cfg.damping;
    let base = (1.0 - d) / n as f64;
    let mut cur = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let mut iterations = 0;
    let mut converged = false;

    while iterations < cfg.max_iterations {
        iterations += 1;
        sweep_once(db, sg, dg, ga, &m, &scale, d, base, &cur, &mut next);
        let delta: f64 = cur.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut cur, &mut next);
        if delta < cfg.epsilon {
            converged = true;
            break;
        }
    }

    finalize_scores(db, dg, cfg, cur, iterations, converged)
}

/// Bounded rank re-iteration: a few power sweeps over the *mutated*
/// database, seeded from the stale converged vector — the update/delete
/// analogue of [`estimate_appended_score`] and the replacement for the
/// exact-rebuild escape hatch on incremental refresh.
///
/// After an update or delete the data graph keeps its node count (deletes
/// are tombstones; dense ids never shift), so the stale scores are a valid
/// — and nearly converged — starting point: only the mutated rows and
/// their graph neighborhoods moved. Each sweep applies the same
/// `next = (1-d)/n + d · transfer(cur)` update as [`compute`] (bitwise the
/// same inner loop), and because the transfer operator's spectral radius
/// is bounded by `d` (per-node emission cap), every sweep contracts the L1
/// distance to the exact fixed point by at least `d`. Seeding from scores
/// that were exact before a small mutation makes the initial distance
/// `O(churn/n)`, so a *constant* number of sweeps — independent of
/// database size — recovers near-exact scores. The rank test-suite pins
/// the measured bound on the DBLP fixture: monotone per-sweep decay and
/// ≤ 1% relative L1 error after three sweeps (the engine's default),
/// mirroring the ≤ 50%/≤ 1% pins of the append-splice path.
///
/// The seed is decompressed through the exact inverse of the log
/// transform and renormalized to the iteration's sum-1 scale, so
/// compression introduces no error of its own. If inserts are part of the
/// mutation run, splice their estimated scores first
/// ([`splice_appended_scores`]) — the seed must already cover every node
/// of `dg` (asserted). Runs at most `sweeps` sweeps, stopping early below
/// `cfg.epsilon`; `converged` reports whether the early stop fired.
pub fn reiterate(
    db: &Database,
    sg: &SchemaGraph,
    dg: &DataGraph,
    ga: &AuthorityGraph,
    cfg: &RankConfig,
    stale: &RankScores,
    sweeps: u32,
) -> RankScores {
    let n = dg.n_nodes();
    assert!(n > 0, "cannot rank an empty database");
    assert!((0.0..1.0).contains(&cfg.damping), "damping must be in [0, 1)");
    assert_eq!(
        stale.scores.len(),
        n,
        "re-iteration seed must cover every node; splice appended rows first"
    );

    let m = ga.value_multipliers(db, dg);
    let scale = emission_scales(db, sg, dg, ga, &m);

    let d = cfg.damping;
    let base = (1.0 - d) / n as f64;
    let decompress = |s: f64| {
        if cfg.log_compress {
            ((s - 1.0).exp() - 1.0).max(0.0)
        } else {
            s.max(0.0)
        }
    };
    assert!(sweeps >= 1, "re-iteration needs at least one sweep");
    // Decompress the stale mean-1 vector and normalize its *shape* to
    // sum 1. The iteration's fixed point does not sum to 1 — mass leaks
    // through the emission cap and reference-free nodes — so the seed must
    // also be rescaled to the fixed point's own magnitude, or the affine
    // base term pollutes every node with a shape-distorting offset that
    // takes many sweeps to wash out.
    let mut cur: Vec<f64> = stale.scores.iter().map(|&s| decompress(s)).collect();
    let sum: f64 = cur.iter().sum();
    if sum > 0.0 {
        cur.iter_mut().for_each(|v| *v /= sum);
    } else {
        cur.iter_mut().for_each(|v| *v = 1.0 / n as f64);
    }
    let mut next = vec![0.0f64; n];
    // Calibration probe (doubles as sweep 1): for the sum-1 seed `g`,
    // `sweep(g) = base·1 + d·M g` measures the retained transfer mass
    // `r = Σ M g`; a fixed point of shape `c·g` must satisfy
    // `c = (1-d)/(1-d·r)`, and by linearity of `M` the probe rescales into
    // the calibrated sweep without recomputation:
    // `sweep(c·g) = (1-c)·base·1 + c·sweep(g)`.
    sweep_once(db, sg, dg, ga, &m, &scale, d, base, &cur, &mut next);
    let retained = (next.iter().sum::<f64>() - (1.0 - d)) / d;
    let c = (1.0 - d) / (1.0 - d * retained).max(1.0 - d);
    for (v, &p) in cur.iter_mut().zip(next.iter()) {
        *v = (1.0 - c) * base + c * p;
    }
    let mut iterations = 1;
    let mut converged = false;

    while iterations < sweeps {
        iterations += 1;
        sweep_once(db, sg, dg, ga, &m, &scale, d, base, &cur, &mut next);
        let delta: f64 = cur.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut cur, &mut next);
        if delta < cfg.epsilon {
            converged = true;
            break;
        }
    }

    finalize_scores(db, dg, cfg, cur, iterations, converged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{dblp_ga, GaPreset};
    use sizel_datagen::dblp::{generate, DblpConfig};
    use sizel_storage::TupleRef;

    fn setup() -> (sizel_datagen::dblp::Dblp, SchemaGraph, DataGraph) {
        let d = generate(&DblpConfig::tiny());
        let sg = SchemaGraph::from_database(&d.db);
        let dg = DataGraph::build(&d.db, &sg);
        (d, sg, dg)
    }

    #[test]
    fn converges_and_normalizes() {
        let (d, sg, dg) = setup();
        let ga = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg);
        let cfg = RankConfig { log_compress: false, ..RankConfig::default() };
        let r = compute(&d.db, &sg, &dg, &ga, &cfg);
        assert!(r.converged, "should converge within the cap");
        let mean: f64 = r.scores.iter().sum::<f64>() / r.scores.len() as f64;
        assert!((mean - 1.0).abs() < 1e-9, "scores scaled to mean 1, got {mean}");
        assert!(r.scores.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn log_compression_preserves_ranking() {
        let (d, sg, dg) = setup();
        let ga = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg);
        let raw = compute(
            &d.db,
            &sg,
            &dg,
            &ga,
            &RankConfig { log_compress: false, ..RankConfig::default() },
        );
        let log = compute(&d.db, &sg, &dg, &ga, &RankConfig::default());
        // Pairwise order is preserved (monotone transform) ...
        for pair in [(0usize, 100usize), (5, 200), (17, 42)] {
            let raw_ord = raw.scores[pair.0].total_cmp(&raw.scores[pair.1]);
            let log_ord = log.scores[pair.0].total_cmp(&log.scores[pair.1]);
            assert_eq!(raw_ord, log_ord);
        }
        // ... and the dynamic range shrinks.
        let range = |s: &[f64]| {
            let mx = s.iter().cloned().fold(0.0, f64::max);
            let mn = s.iter().cloned().fold(f64::MAX, f64::min);
            mx / mn.max(1e-12)
        };
        assert!(range(&log.scores) < range(&raw.scores));
    }

    #[test]
    fn well_cited_papers_rank_higher() {
        let (d, sg, dg) = setup();
        let ga = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg);
        let r = compute(&d.db, &sg, &dg, &ga, &RankConfig::default());
        // Compare the most-cited paper with an uncited one.
        let cited_link = dg
            .links()
            .iter()
            .find(|l| {
                l.junction == d.citation
                    && sg.edge(l.e_from).fk_col
                        == d.db.table(d.citation).schema.column_index("cited_id").unwrap()
            })
            .unwrap();
        let papers = d.db.table(d.paper);
        let mut best = (0usize, 0usize); // (row, citations)
        let mut uncited = None;
        for (rid, _) in papers.iter() {
            let c = cited_link.targets(rid).len();
            if c > best.1 {
                best = (rid.index(), c);
            }
            if c == 0 && uncited.is_none() {
                uncited = Some(rid.index());
            }
        }
        assert!(best.1 >= 3, "tiny dataset should still have a cited head");
        let start = dg.table_start(d.paper) as usize;
        let top = r.scores[start + best.0];
        let bottom = r.scores[start + uncited.expect("some uncited paper")];
        assert!(top > bottom, "well-cited paper should outrank uncited one ({top} vs {bottom})");
    }

    #[test]
    fn low_damping_flattens_scores() {
        let (d, sg, dg) = setup();
        let ga = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg);
        let spread = |damping: f64| {
            let r = compute(&d.db, &sg, &dg, &ga, &RankConfig::with_damping(damping));
            let max = r.scores.iter().cloned().fold(0.0, f64::max);
            let min = r.scores.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        assert!(spread(0.10) < spread(0.85), "d2 yields flatter importance than d1");
    }

    #[test]
    fn d3_converges_with_emission_cap() {
        let (d, sg, dg) = setup();
        let ga = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg);
        let cfg = RankConfig {
            damping: 0.99,
            epsilon: 1e-7,
            max_iterations: 3000,
            ..RankConfig::default()
        };
        let r = compute(&d.db, &sg, &dg, &ga, &cfg);
        assert!(r.converged, "emission cap must keep d=0.99 convergent");
    }

    #[test]
    fn per_table_max_matches_scores() {
        let (d, sg, dg) = setup();
        let ga = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg);
        let r = compute(&d.db, &sg, &dg, &ga, &RankConfig::default());
        for (tid, t) in d.db.tables() {
            let mx = (0..t.len())
                .map(|i| r.global(dg.node_id(TupleRef::new(tid, sizel_storage::RowId(i as u32)))))
                .fold(0.0f64, f64::max);
            assert!((mx - r.table_max(tid)).abs() < 1e-12);
        }
    }

    #[test]
    fn incremental_estimate_stays_within_documented_bound() {
        // The documented approximation bound of `estimate_appended_score`:
        // on the DBLP fixture, appending a paper and splicing its
        // estimated score must land within 50% relative error of the
        // exact-refresh score for the new row, and pre-existing rows —
        // untouched by the splice — must be within 1% L1 drift of the
        // exact refresh (the mass one row shifts is O(1/n)).
        let (mut d, sg, dg) = setup();
        let ga = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg);
        let cfg = RankConfig::default();
        let scores = compute(&d.db, &sg, &dg, &ga, &cfg);

        // A new paper in an existing year (the FK parent the estimate
        // gathers from), with a fresh primary key.
        let years = d.db.table(d.year);
        let year_pk = years.pk_of(sizel_storage::RowId(0));
        let papers = d.db.table(d.paper);
        let new_pk =
            (0..papers.len()).map(|i| papers.pk_of(sizel_storage::RowId(i as u32))).max().unwrap()
                + 1;
        let values =
            vec![Value::Int(new_pk), "incremental splice probe".into(), Value::Int(year_pk)];
        let est = estimate_appended_score(&d.db, &sg, &dg, &ga, &cfg, &scores, d.paper, &values);

        // Exact refresh over the mutated database.
        let row = d.db.insert("Paper", values).unwrap();
        let dg2 = DataGraph::build(&d.db, &sg);
        let ga2 = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg2);
        let exact = compute(&d.db, &sg, &dg2, &ga2, &cfg);
        let exact_new = exact.global(dg2.node_id(TupleRef::new(d.paper, row)));
        let rel = (est - exact_new).abs() / exact_new;
        assert!(rel <= 0.5, "appended-row estimate off by {rel:.3} (est {est}, exact {exact_new})");

        // Splice and compare the untouched remainder against the refresh.
        let mut spliced = scores.clone();
        splice_appended_score(&mut spliced, &dg2, TupleRef::new(d.paper, row), est, None);
        assert_eq!(spliced.scores.len(), exact.scores.len());
        let new_idx = dg2.node_id(TupleRef::new(d.paper, row)).index();
        let (mut l1, mut total) = (0.0f64, 0.0f64);
        for i in 0..spliced.scores.len() {
            if i == new_idx {
                continue;
            }
            l1 += (spliced.scores[i] - exact.scores[i]).abs();
            total += exact.scores[i].abs();
        }
        let drift = l1 / total;
        assert!(drift <= 0.01, "pre-existing rows drifted {drift:.4} L1-relative");
        // per_table_max stays an upper bound under the splice.
        for (tid, t) in d.db.tables() {
            let start = dg2.table_start(tid) as usize;
            for i in 0..t.len() {
                assert!(spliced.scores[start + i] <= spliced.table_max(tid) + 1e-12);
            }
        }
    }

    #[test]
    fn batch_splice_is_bit_identical_to_the_fold_of_single_splices() {
        // Append two papers and one author; the one-pass merge must equal
        // folding single splices (each against the then-current graph) to
        // the float bit, including per_table_max.
        let (d, sg, dg) = setup();
        let ga = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg);
        let cfg = RankConfig::default();
        let base = compute(&d.db, &sg, &dg, &ga, &cfg);
        let years = d.db.table(d.year);
        let year_pk = years.pk_of(sizel_storage::RowId(0));
        let max_pk = |t: sizel_storage::TableId| {
            let tb = d.db.table(t);
            tb.iter().map(|(r, _)| tb.pk_of(r)).max().unwrap()
        };
        let rows: Vec<(&str, Vec<Value>, f64)> = vec![
            ("Paper", vec![Value::Int(max_pk(d.paper) + 1), "a".into(), Value::Int(year_pk)], 1.25),
            ("Author", vec![Value::Int(max_pk(d.author) + 1), "b".into()], 0.75),
            ("Paper", vec![Value::Int(max_pk(d.paper) + 2), "c".into(), Value::Int(year_pk)], 2.5),
        ];

        // The fold: rebuild + single splice per insert.
        let mut folded = base.clone();
        let mut db1 = generate(&DblpConfig::tiny()).db;
        for (table, values, score) in &rows {
            let row = db1.insert(table, values.clone()).unwrap();
            let dg1 = DataGraph::build(&db1, &sg);
            let tid = db1.table_id(table).unwrap();
            splice_appended_score(&mut folded, &dg1, TupleRef::new(tid, row), *score, None);
        }

        // The batch: one rebuild, one merge.
        let mut batched = base.clone();
        let mut db2 = generate(&DblpConfig::tiny()).db;
        let mut appended = Vec::new();
        for (table, values, score) in &rows {
            let row = db2.insert(table, values.clone()).unwrap();
            let tid = db2.table_id(table).unwrap();
            appended.push((TupleRef::new(tid, row), *score));
        }
        let dg2 = DataGraph::build(&db2, &sg);
        splice_appended_scores(&mut batched, &dg2, &appended, None);

        assert_eq!(folded.scores.len(), batched.scores.len());
        for (a, b) in folded.scores.iter().zip(&batched.scores) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in folded.per_table_max.iter().zip(&batched.per_table_max) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Applies the fixture's churn — one FK re-home and one junction-row
    /// delete (junction rows have no referencers, so a plain delete is
    /// safe) — and returns the updated paper's new values.
    fn churn(d: &mut sizel_datagen::dblp::Dblp) -> Vec<Value> {
        use sizel_storage::RowId;
        let year_t = d.db.table(d.year);
        let year_pks: Vec<i64> = year_t.iter().map(|(r, _)| year_t.pk_of(r)).collect();
        let paper_t = d.db.table(d.paper);
        let p_pk = paper_t.pk_of(RowId(0));
        let title = paper_t.value(RowId(0), 1).to_value();
        let old_year = paper_t.value(RowId(0), 2).as_int().unwrap();
        let new_year = year_pks.into_iter().find(|&y| y != old_year).unwrap();
        let values = vec![Value::Int(p_pk), title, Value::Int(new_year)];
        d.db.update("Paper", p_pk, values.clone()).unwrap();
        let cit_t = d.db.table(d.citation);
        let cit_pk = cit_t.iter().map(|(r, _)| cit_t.pk_of(r)).next().unwrap();
        d.db.delete("Citation", cit_pk).unwrap();
        values
    }

    #[test]
    fn bounded_reiteration_contracts_to_exact_within_pinned_bound() {
        // The measured convergence bound of the bounded re-iteration mode
        // (DESIGN.md §8): seeded from the stale vector after an
        // update+delete churn, the per-sweep relative L1 error against the
        // exact refresh decays monotonically and lands within 1% by the
        // third sweep — the engine's default budget.
        let (mut d, sg, dg) = setup();
        let ga = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg);
        let cfg = RankConfig::default();
        let stale = compute(&d.db, &sg, &dg, &ga, &cfg);

        churn(&mut d);

        // Tombstoned deletes and in-place updates keep the node count, so
        // the stale vector remains a valid seed over the rebuilt graph.
        let dg2 = DataGraph::build(&d.db, &sg);
        assert_eq!(dg2.n_nodes(), dg.n_nodes());
        let ga2 = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg2);
        let exact = compute(&d.db, &sg, &dg2, &ga2, &cfg);
        let rel_l1 = |r: &RankScores| {
            let l1: f64 = r.scores.iter().zip(&exact.scores).map(|(a, b)| (a - b).abs()).sum();
            l1 / exact.scores.iter().sum::<f64>()
        };

        let err0 = rel_l1(&stale);
        assert!(err0 > 0.0, "churn must actually move the fixed point");
        let mut prev = err0;
        for k in 1..=4 {
            let r = reiterate(&d.db, &sg, &dg2, &ga2, &cfg, &stale, k);
            assert_eq!(r.iterations, k);
            let e = rel_l1(&r);
            assert!(e <= prev + 1e-12, "sweep {k} regressed: {e:.2e} after {prev:.2e}");
            if k == 3 {
                assert!(e <= 0.01, "three sweeps must land within 1% relative L1, got {e:.4}");
            }
            prev = e;
        }
        // With an uncapped budget the re-iteration reaches the solver's
        // own fixed point.
        let full = reiterate(&d.db, &sg, &dg2, &ga2, &cfg, &stale, 500);
        assert!(full.converged, "epsilon early-stop must fire");
        assert!(rel_l1(&full) <= 1e-6);
    }

    #[test]
    fn updated_row_estimate_stays_within_the_append_bound() {
        // The pre-update gather (with the re-home degree compensation:
        // +1 only on FK edges whose key changed) must land within the same
        // 50% relative bound the append estimator pins.
        let (mut d, sg, dg) = setup();
        let ga = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg);
        let cfg = RankConfig::default();
        let stale = compute(&d.db, &sg, &dg, &ga, &cfg);

        use sizel_storage::RowId;
        let paper_t = d.db.table(d.paper);
        let p_pk = paper_t.pk_of(RowId(0));
        let old_values: Vec<Value> =
            (0..3).map(|c| paper_t.value(RowId(0), c).to_value()).collect();
        let year_t = d.db.table(d.year);
        let old_year = old_values[2].as_int().unwrap();
        let new_year =
            year_t.iter().map(|(r, _)| year_t.pk_of(r)).find(|&y| y != old_year).unwrap();
        let new_values = vec![Value::Int(p_pk), old_values[1].clone(), Value::Int(new_year)];

        // Estimate against the pre-update catalog and stale scores — the
        // state the engine's incremental path sees.
        let est = estimate_updated_score_with(
            &d.db,
            &sg,
            &ga,
            &cfg,
            &|t| stale.global(dg.node_id(t)),
            d.paper,
            &old_values,
            &new_values,
        );

        d.db.update("Paper", p_pk, new_values).unwrap();
        let dg2 = DataGraph::build(&d.db, &sg);
        let ga2 = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg2);
        let exact = compute(&d.db, &sg, &dg2, &ga2, &cfg);
        let exact_row = exact.global(dg2.node_id(TupleRef::new(d.paper, RowId(0))));
        let rel = (est - exact_row).abs() / exact_row;
        assert!(rel <= 0.5, "updated-row estimate off by {rel:.3} (est {est}, exact {exact_row})");
    }

    #[test]
    fn junction_tuples_hold_minimal_rank() {
        let (d, sg, dg) = setup();
        let ga = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg);
        let cfg = RankConfig { log_compress: false, ..RankConfig::default() };
        let r = compute(&d.db, &sg, &dg, &ga, &cfg);
        // Junction rows receive only the base (1-d)/n mass; they must rank
        // strictly below the average tuple.
        let start = dg.table_start(d.author_paper) as usize;
        let len = d.db.table(d.author_paper).len();
        for i in 0..len {
            assert!(r.scores[start + i] < 1.0, "junction rank should be sub-average");
        }
    }
}
