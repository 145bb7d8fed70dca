//! Complete OS generation (Algorithm 5).
//!
//! Breadth-first traversal of the GDS(θ) starting at `t_DS`: for each OS
//! node and each child relation of its GDS node, fetch the joining tuples
//! and append them as children. Two tuple sources are supported, matching
//! the paper's §6.3 comparison:
//!
//! * [`OsSource::DataGraph`] — the in-memory index ("the OSs are generated
//!   much faster using the data graph"), which lives in the tables: a
//!   forward step reads the referencing table's forward array
//!   (`Table::forward`), a backward or junction step the FK runs of the
//!   referencing table, nothing counted,
//! * [`OsSource::Database`] — the SQL-shaped joins of Algorithm 5 line 6,
//!   every probe counted by the storage layer's access counter, a forward
//!   FK resolved by a PK probe, and TOP-l probes of paged tables served
//!   through the pager.
//!
//! Both read the same FK runs, and a forward array equals a fresh PK
//! probe of every live row's key, so they yield the same OS node for
//! node; the comparison is accounting plus forward resolution. Local
//! importance reads each table's installed score snapshot.

use sizel_graph::{Direction, Gds, GdsNode, GdsNodeId, JoinSpec, SchemaGraph};
use sizel_storage::{Database, FkOrderToken, RowId, TupleRef};

use crate::os::{FetchScratch, Os, OsArenaPool};

/// Where OS generation reads tuples from.
/// `Hash` because the serving layer's cache key includes the source.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OsSource {
    /// The in-memory tuple graph (fast path).
    DataGraph,
    /// Direct joins against the stored tables (counted I/O).
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

    /// Fetches the tuples of GDS node `child` joining with `parent_tuple`.
    /// `grandparent` is the tuple of the OS parent's parent, excluded by
    /// CoAuthor-style replicated steps. Appends to `out`.
    pub fn children_of(
        &self,
        child: GdsNodeId,
        parent_tuple: TupleRef,
        grandparent: Option<TupleRef>,
        source: OsSource,
        out: &mut Vec<TupleRef>,
    ) {
        let node = self.gds.node(child);
        match source {
            OsSource::DataGraph => self.children_via_graph(node, parent_tuple, grandparent, out),
            OsSource::Database => self.children_via_database(node, parent_tuple, grandparent, out),
        }
    }

    fn children_via_graph(
        &self,
        node: &GdsNode,
        parent: TupleRef,
        grandparent: Option<TupleRef>,
        out: &mut Vec<TupleRef>,
    ) {
        match &node.join {
            JoinSpec::Root => {}
            JoinSpec::Step { edge, dir: Direction::Forward } => {
                let e = self.sg.edge(*edge);
                if let Some(r) = self.db.table(parent.table).forward(e.fk_col).get(parent.row) {
                    out.push(TupleRef::new(e.to, r));
                }
            }
            JoinSpec::Step { edge, dir: Direction::Backward } => {
                let e = self.sg.edge(*edge);
                let pk = self.db.table(parent.table).pk_of(parent.row);
                let rows = self.db.table(e.from).rows_where_eq(e.fk_col, pk);
                out.extend(rows.iter().map(|&r| TupleRef::new(e.from, r)));
            }
            JoinSpec::ViaJunction { junction, e_in, e_out, exclude_parent } => {
                let pk = self.db.table(parent.table).pk_of(parent.row);
                let (jt, e2) = (self.db.table(*junction), self.sg.edge(*e_out));
                let fwd = jt.forward(e2.fk_col);
                for &j in jt.rows_where_eq(self.sg.edge(*e_in).fk_col, pk) {
                    let Some(r) = fwd.get(j) else { continue };
                    let tuple = TupleRef::new(e2.to, r);
                    if *exclude_parent && Some(tuple) == grandparent {
                        continue;
                    }
                    out.push(tuple);
                }
            }
        }
    }

    /// The Avoidance-Condition-2 fetch (Algorithm 4 line 10): at most `l`
    /// joining tuples with local importance strictly above `largest_l`,
    /// ordered by descending importance. In database mode the predicate is
    /// pushed into the probe (the `SELECT * TOP l ... AND Ri.li >
    /// largest-l` form), so the access counter sees one probe and only the
    /// returned rows; in data-graph mode the same filter runs against the
    /// in-memory index. All working memory comes from `scratch` (pooled by
    /// the generation loops), so warm probes are allocation-free.
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
        let FetchScratch { rows, topl, all } = scratch;
        rows.clear();
        match (source, &node.join) {
            (OsSource::Database, JoinSpec::Step { edge, dir: Direction::Backward }) => {
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
                    rows,
                );
            }
            (OsSource::Database, JoinSpec::Step { edge, dir: Direction::Forward }) => {
                // N:1 probe with the importance predicate pushed down: an
                // issued probe is counted (a NULL FK issues none, as in
                // `children_via_database`), but a filtered-out row is not
                // returned.
                let e = self.sg.edge(*edge);
                if let Some(k) = self.db.value(parent_tuple, e.fk_col).as_int() {
                    rows.extend(self.db.table(e.to).by_pk(k).filter(|&r| li(r) > largest_l));
                    self.db.access().record_join(rows.len());
                }
            }
            (
                OsSource::Database,
                JoinSpec::ViaJunction { junction, e_in, e_out, exclude_parent },
            ) => {
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
                    rows,
                );
            }
            _ => {
                // Data-graph mode: fetch then filter.
                all.clear();
                self.children_of(child, parent_tuple, grandparent, source, all);
                topl.select_into(
                    all.drain(..).filter_map(|t| {
                        let w = li(t.row);
                        (w > largest_l).then_some((w, t.row))
                    }),
                    l,
                    rows,
                );
            }
        }
        out.extend(rows.iter().map(|&r| TupleRef::new(node.relation, r)));
    }

    fn children_via_database(
        &self,
        node: &GdsNode,
        parent: TupleRef,
        grandparent: Option<TupleRef>,
        out: &mut Vec<TupleRef>,
    ) {
        // Each probe below is the SQL form of Algorithm 5 line 6 with the
        // same access accounting as `Database::select_eq`, but reads the
        // hash indexes through borrowed slices / point lookups instead of
        // materializing a `Vec<RowId>` per probe — the Database-source BFS
        // is allocation-free too (tests/alloc_guard.rs).
        match &node.join {
            JoinSpec::Root => {}
            JoinSpec::Step { edge, dir } => {
                let e = self.sg.edge(*edge);
                match dir {
                    Direction::Forward => {
                        // SELECT * FROM To WHERE To.pk = parent.fk — O(1)
                        // on the unique PK index.
                        if let Some(k) = self.db.value(parent, e.fk_col).as_int() {
                            let mut fetched = 0usize;
                            if let Some(r) = self.db.table(e.to).by_pk(k) {
                                fetched = 1;
                                out.push(TupleRef::new(e.to, r));
                            }
                            self.db.access().record_join(fetched);
                        }
                    }
                    Direction::Backward => {
                        // SELECT * FROM From WHERE From.fk = parent.pk
                        let pk = self.db.table(parent.table).pk_of(parent.row);
                        let rows = self.db.table(e.from).rows_where_eq(e.fk_col, pk);
                        self.db.access().record_join(rows.len());
                        for &r in rows {
                            out.push(TupleRef::new(e.from, r));
                        }
                    }
                }
            }
            JoinSpec::ViaJunction { junction, e_in, e_out, exclude_parent } => {
                // Probe the junction (1 access), then fetch the targets by
                // PK as one batched join (1 access).
                let pk = self.db.table(parent.table).pk_of(parent.row);
                let e1 = self.sg.edge(*e_in);
                let e2 = self.sg.edge(*e_out);
                let jt = self.db.table(*junction);
                let jrows = jt.rows_where_eq(e1.fk_col, pk);
                self.db.access().record_join(jrows.len());
                let target = self.db.table(e2.to);
                let mut fetched = 0usize;
                for &j in jrows {
                    if let Some(k) = jt.value(j, e2.fk_col).as_int() {
                        if let Some(r) = target.by_pk(k) {
                            let tuple = TupleRef::new(e2.to, r);
                            if *exclude_parent && Some(tuple) == grandparent {
                                continue;
                            }
                            fetched += 1;
                            out.push(tuple);
                        }
                    }
                }
                self.db.access().record_join(fetched);
            }
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
    let OsArenaPool { queue, buf, .. } = pool;
    queue.clear();
    buf.clear();
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
            ctx.children_of(g_child, u_tuple, grandparent, source, buf);
            for &t in buf.iter() {
                let w = ctx.local_importance(g_child, t);
                let id = os.add_child(u, t, g_child, w);
                queue.push_back(id);
            }
        }
    }
    os
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::test_fixtures::{build_dblp, dblp_fixture, tpch_fixture};

    /// Both sources give the same OS for `tds`, node for node: tuple, GDS
    /// node, parent and weight bits, in BFS order.
    pub(crate) fn assert_sources_agree(ctx: &OsContext<'_>, tds: TupleRef) {
        let a = generate_os(ctx, tds, None, OsSource::DataGraph);
        let b = generate_os(ctx, tds, None, OsSource::Database);
        a.validate().unwrap();
        b.validate().unwrap();
        assert_eq!(a.len(), b.len(), "{tds:?}: both sources yield the same OS");
        for ((_, x), (_, y)) in a.iter().zip(b.iter()) {
            assert_eq!((x.tuple, x.gds_node, x.parent), (y.tuple, y.gds_node, y.parent), "{tds:?}");
            assert_eq!(x.weight.to_bits(), y.weight.to_bits(), "{tds:?}");
        }
    }

    #[test]
    fn generates_consistent_tree_from_both_sources() {
        // Both fixtures carry an installed order, so the FK runs are in
        // posting order; TPC-H's Supplier GDS steps backward over plain
        // FK edges, DBLP's through junctions.
        let f = dblp_fixture();
        let (ctx, paper_ctx) = (f.ctx(), f.ctx_over(&f.paper_gds));
        for i in 0..4 {
            assert_sources_agree(&ctx, f.author_tds(i));
            assert_sources_agree(&paper_ctx, TupleRef::new(f.dblp.paper, RowId(i as u32)));
        }
        let t = tpch_fixture();
        let ctx = t.supplier_ctx();
        for r in t.tpch.db.table(t.tpch.supplier).live_rows().take(4) {
            assert_sources_agree(&ctx, TupleRef::new(t.tpch.supplier, r));
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
