//! Complete OS generation (Algorithm 5).
//!
//! Breadth-first traversal of the GDS(θ) starting at `t_DS`: for each OS
//! node and each child relation of its GDS node, fetch the joining tuples
//! and append them as children. The paper's §6.3 compares two tuple
//! sources for the same algorithms; here they share one fetch body and
//! one TOP-l probe ([`Database::select_eq_top_l_into`] and its junction
//! sibling), reading the same FK runs, and differ in two things only:
//!
//! * a forward step — a forward FK, or a junction row's target — reads
//!   the referencing table's forward array (`Table::forward`) for
//!   [`OsSource::DataGraph`], the in-memory index ("the OSs are generated
//!   much faster using the data graph"), and probes the target's PK for
//!   [`OsSource::Database`], the SQL-shaped joins of Algorithm 5 line 6;
//! * every probe adds to the summary's cost record in the pooled
//!   [`FetchScratch`], which is folded into the storage layer's access
//!   counter once per summary for the Database source and dropped for the
//!   data graph, which counts nothing.
//!
//! A forward array equals a fresh PK probe of every live row's key, so
//! both yield the same OS node for node. Local importance reads each
//! table's installed score snapshot.

use sizel_graph::{Direction, Gds, GdsNodeId, JoinSpec, SchemaEdge, SchemaGraph};
use sizel_storage::{Database, FkOrderToken, ProbeCost, RowId, TupleRef};

use crate::os::{FetchScratch, Os, OsArenaPool};

/// Where OS generation reads tuples from.
/// `Hash` because the serving layer's cache key includes the source.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OsSource {
    /// The in-memory index: forward steps read the tables' forward
    /// arrays, and nothing is counted.
    DataGraph,
    /// Joins against the stored tables: forward steps probe the target's
    /// PK, and every probe is counted.
    Database,
}

/// Everything OS generation needs, borrowed from the engine: the
/// database (whose tables hold the installed global importance), its
/// schema graph, and a GDS(θ) with stats.
pub struct OsContext<'a> {
    /// The database.
    pub db: &'a Database,
    /// Its schema graph.
    pub sg: &'a SchemaGraph,
    /// The (restricted) GDS for the DS relation, with `max/mmax` stats set.
    pub gds: &'a Gds,
    /// The database's installed importance order, when it matches the
    /// token the context was built with — unlocks the sorted-posting
    /// prefix scan in [`Database::select_eq_top_l`] and its junction
    /// sibling. `None` (heap fallback) when no token was handed in or
    /// the database was re-ordered or mutated since.
    fk_order: Option<FkOrderToken>,
}

impl<'a> OsContext<'a> {
    /// Builds a context over `db`'s installed scores (panics on a read
    /// where a table has none). `fk_order` is the token of the install
    /// the caller synchronized to; `None` forces the heap path.
    /// Allocation-free — the engine builds one per query.
    pub fn new(
        db: &'a Database,
        sg: &'a SchemaGraph,
        gds: &'a Gds,
        fk_order: Option<FkOrderToken>,
    ) -> Self {
        let fk_order = fk_order.filter(|t| db.fk_order() == Some(*t));
        OsContext { db, sg, gds, fk_order }
    }

    /// Local importance `Im(OS, t_i) = Im(t_i) · Af(R_i)` (Equation 3).
    pub fn local_importance(&self, gds_node: GdsNodeId, tuple: TupleRef) -> f64 {
        self.db.installed_score(tuple) * self.gds.node(gds_node).affinity
    }

    /// The forward step `SELECT * FROM To WHERE To.pk = From.fk` over
    /// edge `e`, from a row of `e.from`: the live row it finds, or `None`
    /// when no probe is issued because the FK is NULL. The data-graph
    /// source reads the forward array, which does not tell a NULL FK from
    /// a dangling one; its record is dropped anyway.
    fn forward(
        &self,
        source: OsSource,
        e: &SchemaEdge,
    ) -> impl Fn(RowId) -> Option<Option<RowId>> + 'a {
        let (from, to, col) = (self.db.table(e.from), self.db.table(e.to), e.fk_col);
        let array = (source == OsSource::DataGraph).then(|| from.forward(col));
        move |r| match array {
            Some(array) => Some(array.get(r)),
            None => from.value(r, col).as_int().map(|k| to.by_pk(k)),
        }
    }

    /// Fetches the tuples of GDS node `child` joining with `parent`
    /// (Algorithm 5 line 6), appending them to `out`. `grandparent` is
    /// the tuple of the OS parent's parent, excluded by CoAuthor-style
    /// replicated steps. The cost goes to `scratch`'s record.
    pub fn children_of(
        &self,
        child: GdsNodeId,
        parent: TupleRef,
        grandparent: Option<TupleRef>,
        source: OsSource,
        scratch: &mut FetchScratch,
        out: &mut Vec<TupleRef>,
    ) {
        let cost = &mut scratch.cost;
        match &self.gds.node(child).join {
            JoinSpec::Root => {}
            JoinSpec::Step { edge, dir: Direction::Forward } => {
                let e = self.sg.edge(*edge);
                if let Some(r) = self.forward(source, e)(parent.row) {
                    cost.record_join(r.is_some() as usize);
                    out.extend(r.map(|r| TupleRef::new(e.to, r)));
                }
            }
            JoinSpec::Step { edge, dir: Direction::Backward } => {
                // SELECT * FROM From WHERE From.fk = parent.pk
                let e = self.sg.edge(*edge);
                let pk = self.db.table(parent.table).pk_of(parent.row);
                let rows = self.db.table(e.from).rows_where_eq(e.fk_col, pk);
                cost.record_join(rows.len());
                out.extend(rows.iter().map(|&r| TupleRef::new(e.from, r)));
            }
            JoinSpec::ViaJunction { junction, e_in, e_out, exclude_parent } => {
                // Probe the junction (1 access), then fetch the targets as
                // one batched join (1 access).
                let (e1, e2) = (self.sg.edge(*e_in), self.sg.edge(*e_out));
                let pk = self.db.table(parent.table).pk_of(parent.row);
                let jrows = self.db.table(*junction).rows_where_eq(e1.fk_col, pk);
                cost.record_join(jrows.len());
                let start = out.len();
                let via = self.forward(source, e2);
                let targets =
                    jrows.iter().filter_map(|&j| via(j)?).map(|r| TupleRef::new(e2.to, r));
                out.extend(targets.filter(|&t| !*exclude_parent || Some(t) != grandparent));
                cost.record_join(out.len() - start);
            }
        }
    }

    /// The Avoidance-Condition-2 fetch (Algorithm 4 line 10): at most `l`
    /// joining tuples with local importance strictly above `largest_l`,
    /// ordered by descending importance. The predicate is pushed into the
    /// probe (the `SELECT * TOP l ... AND Ri.li > largest-l` form), so the
    /// cost record sees one probe and only the returned rows; a backward
    /// or junction step is one storage TOP-l probe for either source. All
    /// working memory comes from `scratch` (pooled by the generation
    /// loops), so warm probes are allocation-free.
    #[allow(clippy::too_many_arguments)]
    pub fn children_of_top_l(
        &self,
        child: GdsNodeId,
        parent_tuple: TupleRef,
        grandparent: Option<TupleRef>,
        source: OsSource,
        l: usize,
        largest_l: f64,
        scratch: &mut FetchScratch,
        out: &mut Vec<TupleRef>,
    ) {
        let node = self.gds.node(child);
        // Every arm selects rows of the child's one relation.
        let li = |r: RowId| self.local_importance(child, TupleRef::new(node.relation, r));
        let FetchScratch { rows, topl, cost } = scratch;
        rows.clear();
        match &node.join {
            JoinSpec::Root => {}
            JoinSpec::Step { edge, dir: Direction::Forward } => {
                // An issued N:1 probe is counted, but a filtered-out row
                // is not returned.
                let e = self.sg.edge(*edge);
                if let Some(r) = self.forward(source, e)(parent_tuple.row) {
                    rows.extend(r.filter(|&r| li(r) > largest_l));
                    cost.record_join(rows.len());
                }
            }
            JoinSpec::Step { edge, dir: Direction::Backward } => {
                let e = self.sg.edge(*edge);
                let pk = self.db.table(parent_tuple.table).pk_of(parent_tuple.row);
                self.db.select_eq_top_l_into(
                    e.from,
                    e.fk_col,
                    pk,
                    l,
                    largest_l,
                    self.fk_order,
                    &li,
                    topl,
                    cost,
                    rows,
                );
            }
            JoinSpec::ViaJunction { junction, e_in, e_out, exclude_parent } => {
                let (e1, e2) = (self.sg.edge(*e_in), self.sg.edge(*e_out));
                let pk = self.db.table(parent_tuple.table).pk_of(parent_tuple.row);
                let exclude =
                    grandparent.filter(|g| *exclude_parent && g.table == e2.to).map(|g| g.row);
                self.db.select_via_junction_top_l_into(
                    *junction,
                    e1.fk_col,
                    pk,
                    e2.fk_col,
                    e2.to,
                    exclude,
                    l,
                    largest_l,
                    self.fk_order,
                    &li,
                    topl,
                    cost,
                    rows,
                );
            }
        }
        out.extend(rows.iter().map(|&r| TupleRef::new(node.relation, r)));
    }

    /// Ends one summary's generation: the cost its fetches recorded in
    /// `scratch` is folded into the database's counter in one add for the
    /// Database source, and dropped for the data graph.
    pub(crate) fn fold_cost(&self, source: OsSource, scratch: &mut FetchScratch) {
        let cost = std::mem::take(&mut scratch.cost);
        if source == OsSource::Database {
            self.db.access().add(&cost);
        }
    }
}

/// Algorithm 5: generates the complete OS for `t_DS`. `depth_cutoff` caps
/// node depth — size-l computations pass `Some(l - 1)` per the paper's §3.3
/// footnote ("any tuples or subtrees which have distance at least l from
/// the root are excluded, as these cannot be part of a connected size-l
/// OS").
///
/// One-shot convenience over [`generate_os_pooled`]: allocates a private
/// pool per call. Loops should hold an [`OsArenaPool`] and call the pooled
/// variant, which runs allocation-free once its buffers are warm.
pub fn generate_os(
    ctx: &OsContext<'_>,
    tds: TupleRef,
    depth_cutoff: Option<u32>,
    source: OsSource,
) -> Os {
    let mut pool = OsArenaPool::new();
    generate_os_pooled(ctx, tds, depth_cutoff, source, &mut pool)
}

/// [`generate_os`] drawing the arena and all BFS scratch from `pool`.
/// Release the returned OS back to the same pool when done with it to keep
/// the steady state allocation-free (asserted by `tests/alloc_guard.rs`).
/// A Database-source summary adds its probe cost to `ctx.db.access()`
/// once, on return.
pub fn generate_os_pooled(
    ctx: &OsContext<'_>,
    tds: TupleRef,
    depth_cutoff: Option<u32>,
    source: OsSource,
    pool: &mut OsArenaPool,
) -> Os {
    assert_eq!(tds.table, ctx.gds.root_relation(), "t_DS must belong to the GDS root relation");
    // Cold-arena sizing: a depth-cut OS for a size-l computation (cutoff
    // l - 1) typically stays within `4·l` nodes; uncut generation falls
    // back to the default floor.
    let mut os = pool.acquire_with_capacity(depth_cutoff.map_or(64, |c| 4 * (c as usize + 1)));
    let OsArenaPool { queue, buf, fetch, .. } = pool;
    queue.clear();
    buf.clear();
    fetch.cost = ProbeCost::default();
    let root_w = ctx.local_importance(ctx.gds.root(), tds);
    let root = os.add_root(tds, ctx.gds.root(), root_w);

    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        let (u_tuple, u_gds, u_depth, u_parent) = {
            let n = os.node(u);
            (n.tuple, n.gds_node, n.depth, n.parent)
        };
        if depth_cutoff.is_some_and(|cap| u_depth >= cap) {
            continue;
        }
        let grandparent = u_parent.map(|p| os.node(p).tuple);
        for &g_child in &ctx.gds.node(u_gds).children {
            buf.clear();
            ctx.children_of(g_child, u_tuple, grandparent, source, fetch, buf);
            for &t in buf.iter() {
                let w = ctx.local_importance(g_child, t);
                let id = os.add_child(u, t, g_child, w);
                queue.push_back(id);
            }
        }
    }
    ctx.fold_cost(source, fetch);
    os
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::prelim::generate_prelim;
    use crate::test_fixtures::{build_dblp, dblp_fixture, tpch_fixture};

    /// Both sources give the same complete OS for `tds`, and the same
    /// prelim-l OS at several `l`, node for node: tuple, GDS node, parent
    /// and weight bits, in BFS order.
    pub(crate) fn assert_sources_agree(ctx: &OsContext<'_>, tds: TupleRef) {
        // `None`: the complete OS; `Some(l)`: the prelim-l OS.
        for l in [None, Some(1), Some(2), Some(5), Some(15)] {
            let generate = |source| match l {
                None => generate_os(ctx, tds, None, source),
                Some(l) => generate_prelim(ctx, tds, l, source).0,
            };
            let (a, b) = (generate(OsSource::DataGraph), generate(OsSource::Database));
            a.validate().unwrap();
            b.validate().unwrap();
            assert_eq!(a.len(), b.len(), "{tds:?} prelim-{l:?}: both sources yield the same OS");
            for ((_, x), (_, y)) in a.iter().zip(b.iter()) {
                let (xk, yk) = ((x.tuple, x.gds_node, x.parent), (y.tuple, y.gds_node, y.parent));
                assert_eq!(xk, yk, "{tds:?} prelim-{l:?}");
                assert_eq!(x.weight.to_bits(), y.weight.to_bits(), "{tds:?} prelim-{l:?}");
            }
        }
    }

    #[test]
    fn generates_consistent_tree_from_both_sources() {
        // Both fixtures carry an installed order, so the FK runs are in
        // posting order and the TOP-l probes prefix-scan; TPC-H's Supplier
        // GDS steps backward over plain FK edges, DBLP's through
        // junctions. The token-less contexts take the heap path.
        let f = dblp_fixture();
        let heap_ctx = |gds| OsContext::new(&f.dblp.db, &f.sg, gds, None);
        for ctx in [f.ctx(), heap_ctx(&f.gds)] {
            for i in 0..4 {
                assert_sources_agree(&ctx, f.author_tds(i));
            }
        }
        for ctx in [f.ctx_over(&f.paper_gds), heap_ctx(&f.paper_gds)] {
            for i in 0..4 {
                assert_sources_agree(&ctx, TupleRef::new(f.dblp.paper, RowId(i as u32)));
            }
        }
        let t = tpch_fixture();
        let db = &t.tpch.db;
        for ctx in [t.supplier_ctx(), OsContext::new(db, &t.sg, &t.supplier_gds, None)] {
            for r in db.table(t.tpch.supplier).live_rows().take(4) {
                assert_sources_agree(&ctx, TupleRef::new(t.tpch.supplier, r));
            }
        }
    }

    #[test]
    fn pooled_generation_is_identical_and_recycles() {
        let f = dblp_fixture();
        let ctx = f.ctx();
        let mut pool = OsArenaPool::new();
        for i in 0..3 {
            let tds = f.author_tds(i);
            for source in [OsSource::DataGraph, OsSource::Database] {
                let fresh = generate_os(&ctx, tds, Some(9), source);
                // Generate twice through the same pool: the second run
                // reuses the released arena and must be byte-identical.
                let a = generate_os_pooled(&ctx, tds, Some(9), source, &mut pool);
                pool.release(a);
                let b = generate_os_pooled(&ctx, tds, Some(9), source, &mut pool);
                b.validate().unwrap();
                assert_eq!(b.len(), fresh.len());
                for ((ia, na), (ib, nb)) in fresh.iter().zip(b.iter()) {
                    assert_eq!(na.tuple, nb.tuple);
                    assert_eq!(na.parent, nb.parent);
                    assert_eq!(na.weight.to_bits(), nb.weight.to_bits());
                    assert_eq!(fresh.children(ia), b.children(ib));
                }
                pool.release(b);
            }
        }
        assert_eq!(pool.parked(), 1, "one arena cycles through the pool");
    }

    #[test]
    fn database_mode_counts_joins() {
        // A private fixture: the counter is reset and read back.
        let f = build_dblp();
        let ctx = f.ctx();
        let tds = f.author_tds(0);
        f.dblp.db.access().reset();
        let _ = generate_os(&ctx, tds, None, OsSource::DataGraph);
        assert_eq!(f.dblp.db.access().snapshot().joins, 0, "graph mode does no DB joins");
        let os = generate_os(&ctx, tds, None, OsSource::Database);
        let stats = f.dblp.db.access().snapshot();
        assert!(stats.joins > 0);
        assert!(stats.tuples as usize >= os.len() - 1);
    }

    #[test]
    fn coauthors_exclude_the_parent_author() {
        let f = dblp_fixture();
        let ctx = f.ctx();
        let tds = f.author_tds(0);
        let os = generate_os(&ctx, tds, None, OsSource::DataGraph);
        let co = f.gds.find_label("CoAuthor").unwrap();
        for (_, n) in os.iter() {
            if n.gds_node == co {
                assert_ne!(n.tuple, tds, "the DS author must never appear as a co-author");
            }
        }
    }

    #[test]
    fn depth_cutoff_excludes_far_tuples() {
        let f = dblp_fixture();
        let ctx = f.ctx();
        let tds = f.author_tds(0);
        let full = generate_os(&ctx, tds, None, OsSource::DataGraph);
        let cut = generate_os(&ctx, tds, Some(1), OsSource::DataGraph);
        assert!(cut.max_depth() <= 1);
        assert!(cut.len() < full.len());
        // Cut OS is a prefix-closed subset: every cut tuple exists in full.
        assert!(!cut.is_empty());
    }

    #[test]
    fn weights_are_global_times_affinity() {
        let f = dblp_fixture();
        let ctx = f.ctx();
        let tds = f.author_tds(1);
        let os = generate_os(&ctx, tds, None, OsSource::DataGraph);
        for (_, n) in os.iter() {
            let expect = ctx.db.installed_score(n.tuple) * ctx.gds.node(n.gds_node).affinity;
            assert!((n.weight - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn os_tuples_follow_gds_relations() {
        let f = dblp_fixture();
        let ctx = f.ctx();
        let os = generate_os(&ctx, f.author_tds(2), None, OsSource::DataGraph);
        for (_, n) in os.iter() {
            assert_eq!(n.tuple.table, ctx.gds.node(n.gds_node).relation);
        }
    }

    #[test]
    #[should_panic(expected = "t_DS must belong")]
    fn wrong_root_relation_is_rejected() {
        let f = dblp_fixture();
        let ctx = f.ctx();
        // A Paper tuple against the Author GDS.
        let bad = TupleRef::new(f.dblp.paper, sizel_storage::RowId(0));
        let _ = generate_os(&ctx, bad, None, OsSource::DataGraph);
    }
}
