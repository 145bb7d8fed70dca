//! Power-iteration solver for global ObjectRank / ValueRank.
//!
//! `r(v) = (1-d)/|V| + d · Σ_{u→v} α(u→v) · r(u) / outdeg_α(u)`
//!
//! where `α` is the edge-type transfer rate of the `G_A` (scaled per source
//! tuple by the value multiplier when the GA is a ValueRank GA). Per-node
//! total outgoing rate is capped at 1, which bounds the iteration's spectral
//! radius by `d` and guarantees convergence for `d < 1` — including the
//! paper's d3 = 0.99 setting.
//!
//! A solve numbers the tuples through a [`DataGraph`] it is handed and
//! reads every edge from the tables: a row's parent is its FK cell
//! resolved through the parent's primary key (`Table::parent_of`). Every
//! transfer needs each source's target list, so each solve gathers the
//! lists of the units its GA rates once — forward, backward and M:N —
//! sweeps over them, and drops them when it returns (`Transfers`); no
//! sweep probes a key.
//! What a solve returns, [`RankScores`], is installed into the tables
//! ([`install_importance_order`]) and dropped: each table's installed
//! score snapshot is the one copy of the scores the engine keeps.
//!
//! **Rated tables.** A solve's vectors — current and next iterate,
//! emission scales, value multipliers, and the scores it returns — hold
//! a slot per row of the *rated* tables only: those an edge or link its
//! GA rates above zero touches, packed table after table in node order
//! (`Layout`). A row of any other table (under DBLP's GA1, every junction
//! row) neither receives a transfer nor emits one, so every such row
//! holds one closed-form scalar: `1/n` before sweep 1 and `base` after
//! each sweep — in [`reiterate`], `(1−c)·base + c·base` once calibrated.
//! The scores stay bit-identical to a dense solve's: a sweep writes the
//! same value to every slot, and each reduction over all nodes (the L1
//! delta, the mean-1 sum, the re-iteration's retained mass) adds the
//! same terms in node order, folding an unrated table's scalar in once
//! per row where its table lies. A sum that starts at `+0.0` is left as
//! it was by a `+0.0` term, so a zero scalar term is skipped: after
//! sweep 1 (sweep 2 in [`reiterate`]) the sweeps touch rated slots only.

use sizel_storage::{Database, FkOrderToken, RowId, TableId, TupleRef, Value};

use sizel_graph::{DataGraph, NodeId, SchemaEdge, SchemaGraph};

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

/// One solve's global importance for every tuple, scaled to mean 1.
#[derive(Clone, Debug)]
pub struct RankScores {
    /// A slot per row of the rated tables (see the module docs).
    scores: Vec<f64>,
    /// The score every row of an unrated table holds.
    unrated: f64,
    layout: Layout,
    /// Iterations performed.
    pub iterations: u32,
    /// Whether the L1 delta dropped below epsilon.
    pub converged: bool,
    /// Per-table maximum score — the global statistic behind the GDS
    /// `max(Ri)` annotations (Section 5.3).
    pub per_table_max: Vec<f64>,
}

impl RankScores {
    /// The global importance of a node of the solve's data graph.
    pub fn global(&self, node: NodeId) -> f64 {
        // The last table starting at or before `node` holds it: an empty
        // table sharing its start comes before it.
        let t = self.layout.tables.partition_point(|t| t.node <= node.0) - 1;
        self.global_in(TableId(t as u16), node)
    }

    /// The global importance of `node`, a node of table `t`.
    fn global_in(&self, t: TableId, node: NodeId) -> f64 {
        let t = &self.layout.tables[t.index()];
        t.slot.map_or(self.unrated, |s| self.scores[(s + node.0 - t.node) as usize])
    }

    /// The per-table maximum global importance.
    pub fn table_max(&self, table: TableId) -> f64 {
        self.per_table_max[table.index()]
    }
}

/// Installs these scores into `db`: each table's score snapshot takes
/// its rows' scores, and every FK posting list is sorted by descending
/// global importance, so query contexts over `db` read the scores there
/// and serve Avoidance-Condition-2 probes as bounded prefix scans (see
/// `sizel_storage::fk_index`). Returns the order token the contexts are
/// handed; `dg` is the graph the scores were solved over.
///
/// Local importance is `Im(t) · Af(Ri)` with the affinity a positive
/// per-relation constant, so one global-importance order per table is
/// valid for every GDS. Call once after ranking, before serving.
pub fn install_importance_order(
    db: &mut Database,
    dg: &DataGraph,
    scores: &RankScores,
) -> FkOrderToken {
    db.install_importance_order(&|t, r| scores.global_in(t, dg.node_id(TupleRef::new(t, r))))
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
///
/// The converged scores are read through `score_of`: the engine passes
/// the installed snapshot, which a batch's staged rows have already
/// written their estimates into, so a row appended earlier in the same
/// batch gathers at its estimate, as the fold of single applies would.
/// The FK in-degree is the length of the parent's FK run — the very
/// list a solve's backward transfer unit reads.
pub fn estimate_appended_score(
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

/// The update-path sibling of [`estimate_appended_score`]: one gather
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
pub fn estimate_updated_score(
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

/// One forward edge, backward edge or M:N link the GA rates above zero,
/// with its transfer lists: each live source row splits `rate` of its
/// authority equally over `targets[index[row]..index[row + 1]]` (a
/// forward list holds at most one target, and dividing by one is exact).
struct Unit {
    source: TableId,
    rate: f64,
    index: Vec<u32>,
    targets: Vec<u32>,
}

impl Unit {
    /// The unit whose live row `s` of `source` lists `targets(s)`, walked
    /// once in row order. `bound` bounds the targets in all: their list is
    /// allocated once, at it, and trimmed.
    fn collect<I: Iterator<Item = u32>>(
        db: &Database,
        source: TableId,
        rate: f64,
        bound: usize,
        targets: impl Fn(RowId) -> I,
    ) -> Self {
        let t = db.table(source);
        let (mut index, mut list) = (Vec::with_capacity(t.len() + 1), Vec::with_capacity(bound));
        index.push(0);
        for r in (0..t.len() as u32).map(RowId) {
            if t.is_live(r) {
                list.extend(targets(r));
            }
            index.push(list.len() as u32);
        }
        list.shrink_to_fit();
        Unit { source, rate, index, targets: list }
    }

    fn bytes(&self) -> usize {
        (self.index.len() + self.targets.len()) * 4
    }

    fn targets(&self, row: RowId) -> &[u32] {
        &self.targets[self.index[row.index()] as usize..self.index[row.index() + 1] as usize]
    }

    /// Adds the unit's rate to the outgoing total of each source row that
    /// has a target.
    fn emit(&self, sw: &Sweep, out: &mut [f64]) {
        let start = sw.layout.start(self.source);
        for rid in sw.db.table(self.source).live_rows() {
            if !self.targets(rid).is_empty() {
                let u = start + rid.index();
                out[u] += self.rate * sw.m(u);
            }
        }
    }

    /// Pushes each source row's share of `cur` to its targets.
    fn push(&self, sw: &Sweep, d: f64, cur: &[f64], next: &mut [f64]) {
        let start = sw.layout.start(self.source);
        for rid in sw.db.table(self.source).live_rows() {
            let list = self.targets(rid);
            if list.is_empty() {
                continue;
            }
            let u = start + rid.index();
            let share = d * self.rate * sw.m(u) * sw.scale[u] * cur[u] / list.len() as f64;
            for &t in list {
                next[t as usize] += share;
            }
        }
    }
}

/// One solve's transfer lists. The tables store each row's FK cell and
/// the FK runs each parent's children; resolving a key or probing a
/// run's directory on every sweep would cost a probe per row per sweep,
/// so a solve reads them once instead, for the units its GA rates — a
/// child's parent by key per forward edge, a parent's FK run per
/// backward edge, a source's junction run and each junction row's
/// target by key per link — and drops the lists when it returns. A
/// unit's sources and targets lie in rated tables, so each list names
/// its targets by their slot in the solve's vectors (`Layout`), not by
/// node id. Sources keep row order, so every node receives its adds in
/// the same sequence on every solve; within one source's list the order
/// moves no bit, since the source adds the same share to each target.
struct Transfers {
    /// Indexed by schema edge; `Some` where the forward rate is positive.
    fwd: Vec<Option<Unit>>,
    /// Indexed by schema edge; `Some` where the backward rate is positive.
    bwd: Vec<Option<Unit>>,
    /// The rated links, in link order.
    links: Vec<Unit>,
}

impl Transfers {
    fn gather(
        db: &Database,
        sg: &SchemaGraph,
        dg: &DataGraph,
        ga: &AuthorityGraph,
        layout: &Layout,
    ) -> Self {
        // Edge `e`'s unit in one direction, where its `rate` is positive:
        // each child's parent forward (its FK cell resolved by key), each
        // parent's children backward (its FK run).
        let unit = |e: &SchemaEdge, rate: f64, forward: bool| {
            (rate > 0.0).then(|| {
                let (from, to) = (db.table(e.from), db.table(e.to));
                let (from_start, to_start) =
                    (layout.start(e.from) as u32, layout.start(e.to) as u32);
                if forward {
                    Unit::collect(db, e.from, rate, from.live_len(), |c| {
                        from.parent_of(e.fk_col, c, to).map(|p| to_start + p.0).into_iter()
                    })
                } else {
                    Unit::collect(db, e.to, rate, from.live_len(), |p| {
                        let children = from.rows_where_eq(e.fk_col, to.pk_of(p));
                        children.iter().map(move |c| from_start + c.0)
                    })
                }
            })
        };
        let rates = |e: &SchemaEdge| ga.edge_rates[e.id.index()];
        let fwd = sg.edges().iter().map(|e| unit(e, rates(e).forward, true)).collect();
        let bwd = sg.edges().iter().map(|e| unit(e, rates(e).backward, false)).collect();
        // A link's source row reaches its junction rows through the FK run
        // on `e_from`, each junction row its target by key on `e_to`.
        let links = dg
            .links()
            .iter()
            .zip(&ga.link_rates)
            .filter(|&(_, &rate)| rate > 0.0)
            .map(|(l, &rate)| {
                let (jt, to_start) = (db.table(l.junction), layout.start(l.to_table) as u32);
                let (from, to) = (db.table(l.from_table), db.table(l.to_table));
                let (a, b) = (sg.edge(l.e_from).fk_col, sg.edge(l.e_to).fk_col);
                Unit::collect(db, l.from_table, rate, jt.live_len(), |s| {
                    let rows = jt.rows_where_eq(a, from.pk_of(s)).iter();
                    rows.filter_map(move |&j| Some(to_start + jt.parent_of(b, j, to)?.0))
                })
            })
            .collect();
        Transfers { fwd, bwd, links }
    }
}

/// Bytes one solve under `ga` gathers and drops before it returns — the
/// transfer lists (see `Transfers`), forward ones apart from the rest,
/// and the vectors its sweeps hold, a slot per row of the rated tables
/// each (emission scales, current and next iterate, and value
/// multipliers where the GA has value functions) — reported for the
/// footprint, never kept.
pub fn solve_scratch_bytes(
    db: &Database,
    sg: &SchemaGraph,
    dg: &DataGraph,
    ga: &AuthorityGraph,
) -> [(&'static str, usize); 3] {
    let sw = Sweep::new(db, sg, dg, ga);
    let forward = sw.tr.fwd.iter().flatten().map(Unit::bytes).sum();
    let rest = sw.tr.bwd.iter().flatten().chain(&sw.tr.links).map(Unit::bytes).sum();
    let vectors = (3 * sw.layout.slots + sw.m.len()) * std::mem::size_of::<f64>();
    [("forward lists", forward), ("backward and link lists", rest), ("iteration vectors", vectors)]
}

/// One table's place in a solve: its first node id, its row slots, and
/// its first slot in the solve's vectors — `None` for an unrated table.
#[derive(Clone, Copy, Debug)]
struct TableSlots {
    node: u32,
    len: u32,
    slot: Option<u32>,
}

/// Where a solve keeps each table's scores (see the module docs): a slot
/// per row of every rated table, table after table in node order.
#[derive(Clone, Debug)]
struct Layout {
    /// In catalog (node) order.
    tables: Vec<TableSlots>,
    /// Slots over the rated tables.
    slots: usize,
}

impl Layout {
    /// Rates the tables an edge or link `ga` rates above zero touches.
    fn new(db: &Database, sg: &SchemaGraph, dg: &DataGraph, ga: &AuthorityGraph) -> Self {
        let mut rated = vec![false; db.table_count()];
        for e in sg.edges() {
            let r = ga.edge_rates[e.id.index()];
            if r.forward > 0.0 || r.backward > 0.0 {
                rated[e.from.index()] = true;
                rated[e.to.index()] = true;
            }
        }
        for (l, &rate) in dg.links().iter().zip(&ga.link_rates) {
            if rate > 0.0 {
                rated[l.from_table.index()] = true;
                rated[l.to_table.index()] = true;
            }
        }
        let mut slots = 0;
        let tables = db
            .tables()
            .map(|(tid, t)| {
                let len = t.len() as u32;
                let slot = rated[tid.index()].then(|| {
                    slots += len;
                    slots - len
                });
                TableSlots { node: dg.table_start(tid), len, slot }
            })
            .collect();
        Layout { tables, slots: slots as usize }
    }

    /// The first slot of table `t`, if rated.
    fn slot(&self, t: TableId) -> Option<usize> {
        self.tables[t.index()].slot.map(|s| s as usize)
    }

    /// The first slot of a rated table.
    fn start(&self, t: TableId) -> usize {
        self.slot(t).expect("transfers touch rated tables only")
    }

    /// Σ over every node, in node order: `slot(i)` for each slot of a
    /// rated table, `unrated` once per row of any other table — skipped
    /// when zero, since a sum that starts at `+0.0` never turns `-0.0`
    /// and adding a zero to it changes no bit.
    fn sum(&self, unrated: f64, slot: impl Fn(usize) -> f64) -> f64 {
        let mut sum = 0.0;
        for t in &self.tables {
            match t.slot {
                Some(s) => (s..s + t.len).for_each(|i| sum += slot(i as usize)),
                None if unrated != 0.0 => (0..t.len).for_each(|_| sum += unrated),
                None => {}
            }
        }
        sum
    }
}

/// What every sweep of one solve reads: the tables' liveness, the slot
/// layout of the rated tables, the transfer lists (the GA's rates are in
/// them), and two per-slot vectors — shared by [`compute`] and [`reiterate`] so their sweeps are
/// float-identical.
struct Sweep<'a> {
    db: &'a Database,
    layout: Layout,
    tr: Transfers,
    /// Per-slot value multipliers; empty when the GA has no value
    /// function, every multiplier then being 1 (multiplying by it is
    /// exact, so skipping it changes no bit).
    m: Vec<f64>,
    /// Per-slot emission scale capping total outgoing authority at 1.
    scale: Vec<f64>,
}

impl<'a> Sweep<'a> {
    fn new(
        db: &'a Database,
        sg: &'a SchemaGraph,
        dg: &'a DataGraph,
        ga: &'a AuthorityGraph,
    ) -> Self {
        let layout = Layout::new(db, sg, dg, ga);
        let m = if ga.is_value_rank() {
            ga.value_multipliers(db, layout.slots, |t| layout.slot(t))
        } else {
            Vec::new()
        };
        let tr = Transfers::gather(db, sg, dg, ga, &layout);
        let mut sw = Sweep { db, layout, tr, m, scale: Vec::new() };
        sw.scale = sw.emission_scales();
        sw
    }

    fn m(&self, u: usize) -> f64 {
        if self.m.is_empty() {
            1.0
        } else {
            self.m[u]
        }
    }

    fn emission_scales(&self) -> Vec<f64> {
        // Per-slot total outgoing rate (including value multipliers), used
        // to cap emission at 1.
        let mut out = vec![0.0f64; self.layout.slots];
        for unit in self.units() {
            unit.emit(self, &mut out);
        }
        // Emission scale: cap per-node outgoing authority at 1, in place.
        out.iter_mut().for_each(|o| *o = if *o > 1.0 { 1.0 / *o } else { 1.0 });
        out
    }

    /// One power sweep over the rated slots: `next = base + d ·
    /// transfer(cur)`. Every unrated row's next value is `base`.
    fn once(&self, d: f64, base: f64, cur: &[f64], next: &mut [f64]) {
        next.iter_mut().for_each(|v| *v = base);
        for unit in self.units() {
            unit.push(self, d, cur, next);
        }
    }

    /// The rated units in sweep order: per schema edge its forward unit
    /// then its backward one, then the links.
    fn units(&self) -> impl Iterator<Item = &Unit> {
        let per_edge = self.tr.fwd.iter().zip(&self.tr.bwd);
        per_edge.flat_map(|(f, b)| f.iter().chain(b)).chain(&self.tr.links)
    }
}

/// Mean-1 normalization over all `n` nodes, optional log compression,
/// and per-table maxima — the shared tail of [`compute`] and
/// [`reiterate`]. `unrated` is the value every unrated row holds.
fn finalize_scores(
    layout: Layout,
    n: usize,
    cfg: &RankConfig,
    mut cur: Vec<f64>,
    mut unrated: f64,
    iterations: u32,
    converged: bool,
) -> RankScores {
    // Scale to mean 1 for readable local-importance numbers.
    let sum = layout.sum(unrated, |i| cur[i]);
    if sum > 0.0 {
        let k = n as f64 / sum;
        cur.iter_mut().for_each(|v| *v *= k);
        unrated *= k;
    }
    if cfg.log_compress {
        cur.iter_mut().for_each(|v| *v = 1.0 + (1.0 + *v).ln());
        unrated = 1.0 + (1.0 + unrated).ln();
    }

    let per_table_max = layout
        .tables
        .iter()
        .map(|t| match t.slot {
            Some(s) => {
                cur[s as usize..(s + t.len) as usize].iter().fold(0.0f64, |mx, &v| mx.max(v))
            }
            None if t.len > 0 => 0.0f64.max(unrated),
            None => 0.0,
        })
        .collect();

    RankScores { scores: cur, unrated, layout, iterations, converged, per_table_max }
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

    let sw = Sweep::new(db, sg, dg, ga);
    let d = cfg.damping;
    let base = (1.0 - d) / n as f64;
    let mut cur = vec![1.0 / n as f64; sw.layout.slots];
    let mut next = vec![0.0f64; sw.layout.slots];
    let mut unrated = 1.0 / n as f64;
    let mut iterations = 0;
    let mut converged = false;

    while iterations < cfg.max_iterations {
        iterations += 1;
        sw.once(d, base, &cur, &mut next);
        let delta = sw.layout.sum((unrated - base).abs(), |i| (cur[i] - next[i]).abs());
        std::mem::swap(&mut cur, &mut next);
        unrated = base;
        if delta < cfg.epsilon {
            converged = true;
            break;
        }
    }

    finalize_scores(sw.layout, n, cfg, cur, unrated, iterations, converged)
}

/// Bounded rank re-iteration: a few power sweeps over the *mutated*
/// database, seeded from stale converged scores — the update/delete
/// analogue of [`estimate_appended_score`] and the replacement for the
/// exact-rebuild escape hatch on incremental refresh.
///
/// `seed` reads the stale score of every tuple of `dg` (the engine's is
/// the installed snapshot, which already holds the estimates of rows
/// inserted since the last solve, and keeps deleted rows' last scores
/// where their tombstoned slots are). Those are a valid — and nearly
/// converged — starting point: only the mutated rows and their graph
/// neighborhoods moved. Each sweep applies the same
/// `next = (1-d)/n + d · transfer(cur)` update as [`compute`] (bitwise the
/// same inner loop), and because the transfer operator's spectral radius
/// is bounded by `d` (per-node emission cap), every sweep contracts the L1
/// distance to the exact fixed point by at least `d`. Seeding from scores
/// that were exact before a small mutation makes the initial distance
/// `O(churn/n)`, so a *constant* number of sweeps — independent of
/// database size — recovers near-exact scores. The rank test-suite pins
/// the measured bound on the DBLP fixture: monotone per-sweep decay and
/// ≤ 1% relative L1 error after three sweeps (the engine's default),
/// mirroring the ≤ 50%/≤ 1% pins of the append estimate.
///
/// The seed is decompressed through the exact inverse of the log
/// transform and renormalized to the iteration's sum-1 scale, so
/// compression introduces no error of its own. Runs at most `sweeps`
/// sweeps, stopping early below `cfg.epsilon`; `converged` reports
/// whether the early stop fired.
pub fn reiterate(
    db: &Database,
    sg: &SchemaGraph,
    dg: &DataGraph,
    ga: &AuthorityGraph,
    cfg: &RankConfig,
    seed: &dyn Fn(TupleRef) -> f64,
    sweeps: u32,
) -> RankScores {
    let n = dg.n_nodes();
    assert!(n > 0, "cannot rank an empty database");
    assert!((0.0..1.0).contains(&cfg.damping), "damping must be in [0, 1)");

    let sw = Sweep::new(db, sg, dg, ga);
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
    // takes many sweeps to wash out. The sum covers every node, in node
    // order; only the rated rows' seeds are kept, since no sweep reads an
    // unrated row's value.
    let mut cur = vec![0.0f64; sw.layout.slots];
    let mut sum = 0.0;
    for ((tid, t), slots) in db.tables().zip(&sw.layout.tables) {
        for r in 0..t.len() as u32 {
            let v = decompress(seed(TupleRef::new(tid, RowId(r))));
            sum += v;
            if let Some(s) = slots.slot {
                cur[(s + r) as usize] = v;
            }
        }
    }
    if sum > 0.0 {
        cur.iter_mut().for_each(|v| *v /= sum);
    } else {
        cur.iter_mut().for_each(|v| *v = 1.0 / n as f64);
    }
    let mut next = vec![0.0f64; sw.layout.slots];
    // Calibration probe (doubles as sweep 1): for the sum-1 seed `g`,
    // `sweep(g) = base·1 + d·M g` measures the retained transfer mass
    // `r = Σ M g`; a fixed point of shape `c·g` must satisfy
    // `c = (1-d)/(1-d·r)`, and by linearity of `M` the probe rescales into
    // the calibrated sweep without recomputation:
    // `sweep(c·g) = (1-c)·base·1 + c·sweep(g)`.
    sw.once(d, base, &cur, &mut next);
    let retained = (sw.layout.sum(base, |i| next[i]) - (1.0 - d)) / d;
    let c = (1.0 - d) / (1.0 - d * retained).max(1.0 - d);
    for (v, &p) in cur.iter_mut().zip(next.iter()) {
        *v = (1.0 - c) * base + c * p;
    }
    let mut unrated = (1.0 - c) * base + c * base;
    let mut iterations = 1;
    let mut converged = false;

    while iterations < sweeps {
        iterations += 1;
        sw.once(d, base, &cur, &mut next);
        let delta = sw.layout.sum((unrated - base).abs(), |i| (cur[i] - next[i]).abs());
        std::mem::swap(&mut cur, &mut next);
        unrated = base;
        if delta < cfg.epsilon {
            converged = true;
            break;
        }
    }

    finalize_scores(sw.layout, n, cfg, cur, unrated, iterations, converged)
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

    /// Every node's score, in node order.
    fn dense(r: &RankScores, dg: &DataGraph) -> Vec<f64> {
        (0..dg.n_nodes() as u32).map(|i| r.global(NodeId(i))).collect()
    }

    #[test]
    fn converges_and_normalizes() {
        let (d, sg, dg) = setup();
        let ga = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg);
        let cfg = RankConfig { log_compress: false, ..RankConfig::default() };
        let r = compute(&d.db, &sg, &dg, &ga, &cfg);
        assert!(r.converged, "should converge within the cap");
        let scores = dense(&r, &dg);
        let mean: f64 = scores.iter().sum::<f64>() / scores.len() as f64;
        assert!((mean - 1.0).abs() < 1e-9, "scores scaled to mean 1, got {mean}");
        assert!(scores.iter().all(|&s| s >= 0.0));
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
        let (raw, log) = (dense(&raw, &dg), dense(&log, &dg));
        // Pairwise order is preserved (monotone transform) ...
        for pair in [(0usize, 100usize), (5, 200), (17, 42)] {
            let raw_ord = raw[pair.0].total_cmp(&raw[pair.1]);
            let log_ord = log[pair.0].total_cmp(&log[pair.1]);
            assert_eq!(raw_ord, log_ord);
        }
        // ... and the dynamic range shrinks.
        let range = |s: &[f64]| {
            let mx = s.iter().cloned().fold(0.0, f64::max);
            let mn = s.iter().cloned().fold(f64::MAX, f64::min);
            mx / mn.max(1e-12)
        };
        assert!(range(&log) < range(&raw));
    }

    #[test]
    fn well_cited_papers_rank_higher() {
        let (d, sg, dg) = setup();
        let ga = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg);
        let r = compute(&d.db, &sg, &dg, &ga, &RankConfig::default());
        // Compare the most-cited paper with an uncited one, counting
        // citations in the `Citation` runs on `cited_id`.
        let citations = d.db.table(d.citation);
        let cited_col = citations.schema.column_index("cited_id").unwrap();
        let papers = d.db.table(d.paper);
        let mut best = (0usize, 0usize); // (row, citations)
        let mut uncited = None;
        for (rid, _) in papers.iter() {
            let c = citations.rows_where_eq(cited_col, papers.pk_of(rid)).len();
            if c > best.1 {
                best = (rid.index(), c);
            }
            if c == 0 && uncited.is_none() {
                uncited = Some(rid.index());
            }
        }
        assert!(best.1 >= 3, "tiny dataset should still have a cited head");
        let start = dg.table_start(d.paper) as usize;
        let scores = dense(&r, &dg);
        let top = scores[start + best.0];
        let bottom = scores[start + uncited.expect("some uncited paper")];
        assert!(top > bottom, "well-cited paper should outrank uncited one ({top} vs {bottom})");
    }

    #[test]
    fn low_damping_flattens_scores() {
        let (d, sg, dg) = setup();
        let ga = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg);
        let spread = |damping: f64| {
            let r = dense(&compute(&d.db, &sg, &dg, &ga, &RankConfig::with_damping(damping)), &dg);
            let max = r.iter().cloned().fold(0.0, f64::max);
            let min = r.iter().cloned().fold(f64::MAX, f64::min);
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
        // on the DBLP fixture, appending a paper with its estimated score
        // must land within 50% relative error of the exact-refresh score
        // for the new row, and pre-existing rows — which keep their
        // scores — must be within 1% L1 drift of the exact refresh (the
        // mass one row shifts is O(1/n)).
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
            vec![Value::Int(new_pk), "incremental estimate probe".into(), Value::Int(year_pk)];
        let score_of = |t: TupleRef| scores.global(dg.node_id(t));
        let est = estimate_appended_score(&d.db, &sg, &ga, &cfg, &score_of, d.paper, &values);

        // Exact refresh over the mutated database.
        let row = d.db.insert("Paper", values).unwrap();
        d.db.build_runs();
        let dg2 = DataGraph::build(&d.db, &sg);
        let ga2 = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg2);
        let exact = compute(&d.db, &sg, &dg2, &ga2, &cfg);
        let exact_new = exact.global(dg2.node_id(TupleRef::new(d.paper, row)));
        let rel = (est - exact_new).abs() / exact_new;
        assert!(rel <= 0.5, "appended-row estimate off by {rel:.3} (est {est}, exact {exact_new})");

        // The untouched remainder against the refresh, tuple by tuple.
        let (mut l1, mut total) = (0.0f64, 0.0f64);
        for (tid, t) in d.db.tables() {
            for r in (0..t.len() as u32).map(sizel_storage::RowId) {
                if TupleRef::new(tid, r) == TupleRef::new(d.paper, row) {
                    continue;
                }
                let x = exact.global(dg2.node_id(TupleRef::new(tid, r)));
                l1 += (scores.global(dg.node_id(TupleRef::new(tid, r))) - x).abs();
                total += x.abs();
            }
        }
        let drift = l1 / total;
        assert!(drift <= 0.01, "pre-existing rows drifted {drift:.4} L1-relative");
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
        d.db.build_runs();
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
        // the stale scores seed every node of the rebuilt graph.
        let dg2 = DataGraph::build(&d.db, &sg);
        assert_eq!(dg2.n_nodes(), dg.n_nodes());
        let ga2 = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg2);
        let exact = dense(&compute(&d.db, &sg, &dg2, &ga2, &cfg), &dg2);
        let rel_l1 = |r: &RankScores| {
            let l1: f64 = dense(r, &dg2).iter().zip(&exact).map(|(a, b)| (a - b).abs()).sum();
            l1 / exact.iter().sum::<f64>()
        };

        let seed = |t: TupleRef| stale.global(dg.node_id(t));
        let err0 = rel_l1(&stale);
        assert!(err0 > 0.0, "churn must actually move the fixed point");
        let mut prev = err0;
        for k in 1..=4 {
            let r = reiterate(&d.db, &sg, &dg2, &ga2, &cfg, &seed, k);
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
        let full = reiterate(&d.db, &sg, &dg2, &ga2, &cfg, &seed, 500);
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
        let est = estimate_updated_score(
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
        d.db.build_runs();
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
        let start = dg.table_start(d.author_paper);
        let len = d.db.table(d.author_paper).len() as u32;
        for i in 0..len {
            assert!(r.global(NodeId(start + i)) < 1.0, "junction rank should be sub-average");
        }
    }
}
