//! Prelim-l OS generation (Algorithm 4, Section 5.3).
//!
//! Instead of materializing the complete OS, generate a *preliminary*
//! partial OS guaranteed to contain the `l` tuples with the largest local
//! importance (the **top-l set**, Definition 2), by pruning with two
//! avoidance conditions over the GDS `max(Ri)` / `mmax(Ri)` annotations:
//!
//! * **Avoidance Condition 1** (fruitless subtrees): once the top-l PQ is
//!   full, a GDS subtree whose `max(Ri)` *and* `mmax(Ri)` are both at most
//!   `largest-l` cannot contribute, and is skipped without any access.
//! * **Avoidance Condition 2** (fruitful-l relations): when only the
//!   relation itself can still contribute (`largest-l ≥ mmax(Ri)`), at most
//!   `l` tuples above `largest-l` are extracted
//!   (`SELECT * TOP l ... AND Ri.li > largest-l`). The probe is issued — and
//!   counted — even when it returns nothing, matching the paper's cost
//!   accounting.
//!
//! Any size-l algorithm can then run on the prelim-l OS; Lemma 3 (tested):
//! under depth-monotone local importance the prelim-l OS contains the
//! optimal size-l OS.

use std::cmp::Reverse;

use sizel_storage::{ProbeCost, TupleRef};
use sizel_util::F64Ord;

use crate::os::{Os, OsArenaPool};
use crate::osgen::{OsContext, OsSource};

/// Statistics of one prelim-l generation.
#[derive(Clone, Copy, Debug, Default)]
pub struct PrelimStats {
    /// GDS child expansions skipped by Avoidance Condition 1.
    pub cond1_skips: u64,
    /// Expansions served as TOP-l probes by Avoidance Condition 2.
    pub cond2_probes: u64,
    /// Full (unrestricted) join expansions.
    pub full_joins: u64,
}

/// Generates the prelim-l OS for `t_DS` (Algorithm 4).
///
/// One-shot convenience over [`generate_prelim_pooled`]; loops, and
/// callers that want the probe cost, should hold an [`OsArenaPool`] and
/// call the pooled variant.
pub fn generate_prelim(ctx: &OsContext<'_>, tds: TupleRef, l: usize) -> (Os, PrelimStats) {
    let mut pool = OsArenaPool::new();
    generate_prelim_pooled(ctx, tds, l, Default::default(), &mut pool)
}

/// [`generate_prelim`] drawing the arena and the BFS scratch from `pool`.
/// Release the returned OS back to the same pool when done with it. The
/// summary's probe cost is then [`OsArenaPool::last_cost`]. `_source` is
/// ignored; it stays for the benchmark's callers (ROADMAP item 0).
pub fn generate_prelim_pooled(
    ctx: &OsContext<'_>,
    tds: TupleRef,
    l: usize,
    _source: OsSource,
    pool: &mut OsArenaPool,
) -> (Os, PrelimStats) {
    assert!(l > 0, "prelim-l needs l >= 1");
    assert_eq!(tds.table, ctx.gds.root_relation(), "t_DS must belong to the GDS root relation");
    let mut stats = PrelimStats::default();

    // The paper's sizing heuristic: a prelim-l OS holds the top-l set plus
    // the partial expansions around it — `4·l` nodes covers the fixtures'
    // high-water mark, so a cold one-shot arena skips the doubling ladder
    // (warm pooled arenas keep their own capacity; ROADMAP nit from PR 3).
    let mut os = pool.acquire_with_capacity(l.saturating_mul(4));
    let OsArenaPool { queue, buf, fetch, top_l, .. } = pool;
    queue.clear();
    buf.clear();
    fetch.cost = ProbeCost::default();
    top_l.clear();
    let root_w = ctx.local_importance(ctx.gds.root(), tds);
    let root = os.add_root(tds, ctx.gds.root(), root_w);

    top_l.push(Reverse(F64Ord(root_w)));
    // largest-l: the l-th largest local importance so far, or 0 while
    // fewer than l tuples were extracted (Algorithm 4 lines 20-23).
    let mut largest_l = if l == 1 { root_w } else { 0.0 };

    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        let (u_tuple, u_gds, u_depth, u_parent) = {
            let n = os.node(u);
            (n.tuple, n.gds_node, n.depth, n.parent)
        };
        // The §3.3 footnote applies to prelim generation too: tuples at
        // distance >= l cannot join a connected size-l OS.
        if u_depth + 1 >= l as u32 {
            continue;
        }
        let grandparent = u_parent.map(|p| os.node(p).tuple);
        for &g_child in &ctx.gds.node(u_gds).children {
            let child = ctx.gds.node(g_child);
            let full = top_l.len() >= l;
            // Avoidance Condition 1: fruitless GDS subtree.
            if full && largest_l >= child.max_ri && largest_l >= child.mmax_ri {
                stats.cond1_skips += 1;
                continue;
            }
            buf.clear();
            if largest_l >= child.mmax_ri {
                // Avoidance Condition 2: fruitful-l relation — extract at
                // most l tuples with li > largest-l (`SELECT * TOP l FROM
                // Ri WHERE tj.ID = Ri.ID AND Ri.li > largest-l`,
                // Algorithm 4 line 10).
                stats.cond2_probes += 1;
                ctx.children_of_top_l(g_child, u_tuple, grandparent, l, largest_l, fetch, buf);
            } else {
                stats.full_joins += 1;
                ctx.children_of(g_child, u_tuple, grandparent, fetch, buf);
            }
            for &t in buf.iter() {
                let w = ctx.local_importance(g_child, t);
                let id = os.add_child(u, t, g_child, w);
                queue.push_back(id);
                if w > largest_l {
                    top_l.push(Reverse(F64Ord(w)));
                    if top_l.len() > l {
                        top_l.pop();
                    }
                }
                largest_l =
                    if top_l.len() < l { 0.0 } else { top_l.peek().expect("non-empty").0.get() };
            }
        }
    }
    (os, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{BottomUp, DpKnapsack, SizeLAlgorithm};
    use crate::osgen::{generate_os, generate_os_pooled};
    use crate::test_fixtures::{build_dblp, dblp_fixture, tpch_fixture};
    use std::collections::HashSet;

    #[test]
    fn prelim_is_a_valid_tree_and_smaller_than_complete() {
        let f = dblp_fixture();
        let ctx = f.ctx();
        let tds = f.author_tds(0);
        let l = 10;
        let complete = generate_os(&ctx, tds, Some(l as u32 - 1));
        let (prelim, stats) = generate_prelim(&ctx, tds, l);
        prelim.validate().unwrap();
        assert!(prelim.len() <= complete.len());
        assert!(prelim.len() >= l.min(complete.len()), "prelim must hold at least l tuples");
        assert!(stats.cond1_skips + stats.cond2_probes + stats.full_joins > 0);
    }

    #[test]
    fn prelim_contains_the_top_l_set() {
        // Definition 2: the prelim-l OS includes the l tuples of the OS
        // with the largest local importance.
        let f = dblp_fixture();
        let ctx = f.ctx();
        for i in [0, 1, 2] {
            let tds = f.author_tds(i);
            for l in [1, 5, 10, 20] {
                let complete = generate_os(&ctx, tds, Some(l as u32 - 1));
                let (prelim, _) = generate_prelim(&ctx, tds, l);
                let mut weights: Vec<(f64, TupleRef, u16)> =
                    complete.iter().map(|(_, n)| (n.weight, n.tuple, n.gds_node.0)).collect();
                weights.sort_by(|a, b| b.0.total_cmp(&a.0));
                let top: Vec<&(f64, TupleRef, u16)> = weights.iter().take(l).collect();
                let prelim_keys: HashSet<(TupleRef, u16)> =
                    prelim.iter().map(|(_, n)| (n.tuple, n.gds_node.0)).collect();
                // The l-th value can tie with excluded tuples; require only
                // strictly-above-threshold members (ties are
                // interchangeable for Im(S)).
                let threshold = top.last().expect("l >= 1").0;
                for &&(w, t, g) in &top {
                    if w > threshold {
                        assert!(
                            prelim_keys.contains(&(t, g)),
                            "author {i} l={l}: top tuple (w={w}) missing from prelim"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn greedy_on_prelim_matches_greedy_on_complete_quality() {
        // §6.2: "top-l prelim-l OSs ... have no impact on the Bottom-Up
        // algorithm" — on this small fixture we verify quality parity.
        let f = dblp_fixture();
        let ctx = f.ctx();
        let tds = f.author_tds(0);
        for l in [5, 10, 15] {
            let complete = generate_os(&ctx, tds, Some(l as u32 - 1));
            let (prelim, _) = generate_prelim(&ctx, tds, l);
            let on_complete = BottomUp.compute(&complete, l);
            let on_prelim = BottomUp.compute(&prelim, l);
            assert!(
                on_prelim.importance <= on_complete.importance + 1e-9,
                "prelim cannot beat complete for the same algorithm"
            );
            let ratio = on_prelim.importance / on_complete.importance.max(1e-12);
            assert!(ratio > 0.9, "l={l}: prelim quality ratio {ratio}");
        }
    }

    #[test]
    fn lemma3_monotone_scores_make_prelim_contain_the_optimum() {
        // Force exact depth-monotonicity by using uniform global scores:
        // local importance then equals the GDS affinity, which Equation 1
        // makes non-increasing along every path. Lemma 3 must then hold:
        // the prelim-l OS contains an optimal size-l OS. The uniform
        // scores are installed into a private database.
        let mut f = build_dblp();
        f.dblp.db.install_importance_order(&|_, _| 1.0);
        let mut gds = f.gds.clone();
        gds.set_stats(&vec![1.0; f.dblp.db.table_count()]);
        let octx = OsContext::new(&f.dblp.db, &f.sg, &gds);
        let mut checked = 0;
        for i in 0..5 {
            let tds = f.author_tds(i);
            for l in [4, 8, 12] {
                let complete = generate_os(&octx, tds, Some(l as u32 - 1));
                if complete.len() < l {
                    continue;
                }
                // Confirm the monotonicity premise.
                for (_, n) in complete.iter() {
                    if let Some(p) = n.parent {
                        assert!(complete.node(p).weight >= n.weight - 1e-12);
                    }
                }
                checked += 1;
                let (prelim, _) = generate_prelim(&octx, tds, l);
                let opt_complete = DpKnapsack.compute(&complete, l);
                let opt_prelim = DpKnapsack.compute(&prelim, l);
                assert!(
                    (opt_complete.importance - opt_prelim.importance).abs() < 1e-9,
                    "Lemma 3 violated: author {i} l={l}: {} vs {}",
                    opt_complete.importance,
                    opt_prelim.importance
                );
            }
        }
        assert!(checked >= 5, "fixture produced only {checked} monotone cases");
    }

    #[test]
    fn avoidance_conditions_save_accesses_in_database_mode() {
        let f = tpch_fixture();
        let ctx = f.supplier_ctx();
        let suppliers = f.tpch.db.table(f.tpch.supplier);
        let tds = TupleRef::new(f.tpch.supplier, suppliers.iter().next().expect("rows").0);
        let l = 10;
        let mut pool = OsArenaPool::new();
        let complete =
            generate_os_pooled(&ctx, tds, Some(l as u32 - 1), Default::default(), &mut pool);
        let complete_cost = pool.last_cost().access;
        let (prelim, stats) = generate_prelim_pooled(&ctx, tds, l, Default::default(), &mut pool);
        let prelim_cost = pool.last_cost().access;
        assert!(prelim.len() <= complete.len());
        assert!(
            prelim_cost.tuples <= complete_cost.tuples,
            "prelim reads no more tuples than the complete OS"
        );
        assert!(stats.cond1_skips > 0 || stats.cond2_probes > 0, "conditions should fire");
    }

    #[test]
    fn sorted_link_fast_path_is_byte_identical_with_identical_accounting() {
        // Prelim generation over the Author GDS drives
        // junction TOP-l probes (Paper, CoAuthor, citations). Each is one
        // bounded selection over the junction's FK run, each target
        // resolved by key,
        // whether the installed order is attested or withheld: the
        // generated OS, the paper-cost accounting and the probe mix must
        // be byte-identical between the two contexts, and every TOP-l step
        // of the Author GDS — all junction steps — is a heap probe.
        let f = dblp_fixture();
        let fast_ctx = f.ctx();
        let heap_ctx = fast_ctx.heap_twin();
        let mut pool = OsArenaPool::new();
        for i in 0..4 {
            let tds = f.author_tds(i);
            for l in [1usize, 5, 12] {
                let mut generate = |ctx| {
                    let (os, _) =
                        generate_prelim_pooled(ctx, tds, l, Default::default(), &mut pool);
                    (os, pool.last_cost())
                };
                let ((fast, fast_cost), (heap, heap_cost)) =
                    (generate(&fast_ctx), generate(&heap_ctx));
                assert_eq!(fast.len(), heap.len(), "author {i} l={l}");
                for ((ia, na), (ib, nb)) in fast.iter().zip(heap.iter()) {
                    assert_eq!(na.tuple, nb.tuple);
                    assert_eq!(na.parent, nb.parent);
                    assert_eq!(na.weight.to_bits(), nb.weight.to_bits());
                    assert_eq!(fast.children(ia), heap.children(ib));
                }
                assert_eq!(
                    fast_cost.access, heap_cost.access,
                    "author {i} l={l}: access accounting diverges between the contexts"
                );
                let (p1, p2) = (fast_cost.probes, heap_cost.probes);
                assert_eq!((p1.fast, p2.fast), (0, 0), "no junction step prefix-scans");
                assert_eq!(p1.heap, p2.heap, "author {i} l={l}: probe mix");
                if l > 1 {
                    assert!(p1.heap > 0, "author {i} l={l}: no junction probe fired");
                }
            }
        }
    }

    #[test]
    fn dangling_junction_heal_restores_the_fast_path_ratio() {
        // A scored junction insert referencing a not-yet-existing endpoint
        // resolves to no target (the row counts, joins nothing); when the
        // endpoint arrives through a scored insert its key resolves and
        // the token is re-stamped — so prelim generation sees the new endpoint without any reinstall,
        // byte-identical to a token-less run, every junction step one
        // heap probe.
        use sizel_datagen::dblp::{generate, DblpConfig};
        use sizel_graph::{presets, Gds, SchemaGraph};
        use sizel_storage::{Database, RowId, TableId, Value};

        let mut d = generate(&DblpConfig::tiny());
        let sg = SchemaGraph::from_database(&d.db);
        // Synthetic deterministic importance, installed directly: the
        // maintained snapshot then *is* the global score, which keeps the
        // prefix-scan precondition (li monotone in the installed score)
        // true by construction after the mutations below.
        let score_of = |t: TableId, r: RowId| 1.0 + ((t.index() * 31 + r.index() * 7) % 13) as f64;
        d.db.install_importance_order(&score_of);

        let max_pk = |db: &Database, t: &str| {
            let tid = db.table_id(t).unwrap();
            let tb = db.table(tid);
            tb.iter().map(|(r, _)| tb.pk_of(r)).max().unwrap()
        };
        let missing_paper = max_pk(&d.db, "Paper") + 1;
        let jpk = max_pk(&d.db, "AuthorPaper") + 1;
        let author_pk = d.db.table(d.author).pk_of(RowId(0));
        let ap = d.db.table_id("AuthorPaper").unwrap();
        let ap_paper_col = d.db.table(ap).schema.column_index("paper_id").unwrap();

        // One scored insert: a batch of one.
        let insert_scored = |db: &mut Database, table: &str, values: Vec<Value>, score: f64| {
            let mut batch = db.begin_scored_batch();
            db.insert_scored_staged(&mut batch, table, values, score).unwrap();
            db.finish_scored_batch(batch);
        };

        // The dangling insert resolves to no target.
        insert_scored(
            &mut d.db,
            "AuthorPaper",
            vec![Value::Int(jpk), Value::Int(author_pk), Value::Int(missing_paper)],
            0.1,
        );
        let jrow = d.db.table(ap).by_pk(jpk).unwrap();
        let parent = |db: &Database| db.table(ap).parent_of(ap_paper_col, jrow, db.table(d.paper));
        assert_eq!(parent(&d.db), None, "a dangling target");

        // The endpoint arrives: the junction row's key resolves to it.
        let year_pk = {
            let year = d.db.table_id("Year").unwrap();
            d.db.table(year).pk_of(RowId(0))
        };
        insert_scored(
            &mut d.db,
            "Paper",
            vec![Value::Int(missing_paper), "healed endpoint".into(), Value::Int(year_pk)],
            4.5,
        );
        assert_eq!(
            parent(&d.db),
            d.db.table(d.paper).by_pk(missing_paper),
            "the arriving endpoint is resolved without a reinstall"
        );

        // Rebuild the read stack over the database (FK-consistent
        // again) with the *maintained* scores as the global importance.
        let mut per_table_max = vec![0.0f64; d.db.table_count()];
        for (tid, t) in d.db.tables() {
            for r in t.live_rows() {
                per_table_max[tid.index()] = per_table_max[tid.index()].max(t.installed_score(r));
            }
        }
        let mut gds =
            Gds::build(&d.db, &sg, &presets::dblp_author_gds_config(), d.author).restrict(0.7);
        gds.set_stats(&per_table_max);
        let ctx = OsContext::new(&d.db, &sg, &gds);
        let heap_ctx = ctx.heap_twin();

        let tds = TupleRef::new(d.author, RowId(0));
        let mut pool = OsArenaPool::new();
        let (fast, _) = generate_prelim_pooled(&ctx, tds, 8, Default::default(), &mut pool);
        let probes = pool.last_cost().probes;
        assert!(probes.heap > 0, "junction steps are heap probes: {probes:?}");
        let (heap, _) = generate_prelim_pooled(&heap_ctx, tds, 8, Default::default(), &mut pool);
        assert_eq!(pool.last_cost().probes, probes, "the same probes either way");
        assert_eq!(fast.len(), heap.len());
        for ((ia, na), (ib, nb)) in fast.iter().zip(heap.iter()) {
            assert_eq!(na.tuple, nb.tuple);
            assert_eq!(na.weight.to_bits(), nb.weight.to_bits());
            assert_eq!(fast.children(ia), heap.children(ib));
        }
        // The summary really sees the new endpoint.
        assert!(
            fast.iter().any(|(_, n)| n.tuple.table == d.paper
                && d.db.table(d.paper).pk_of(n.tuple.row) == missing_paper),
            "the joined pair surfaces in the generated OS"
        );
    }

    #[test]
    fn a_null_fk_issues_no_probe_in_either_generator() {
        // Paper -> Year is an N:1 step. A Paper whose `year_id` is NULL has
        // no key to probe, so neither generator may count a join for it:
        // the paper-cost `joins` of prelim-l and complete generation agree
        // (prelim once counted a probe it never issued).
        use sizel_graph::{AffinityModel, Gds, GdsConfig, SchemaGraph};
        use sizel_storage::{Database, RowId, TableSchema, Value, ValueType};

        let mut db = Database::new();
        let year =
            TableSchema::builder("Year").pk("id").column("year", ValueType::Int).build().unwrap();
        let paper = TableSchema::builder("Paper")
            .pk("id")
            .searchable_text("title")
            .fk("year_id", "Year")
            .build()
            .unwrap();
        db.create_table(year).unwrap();
        let paper = db.create_table(paper).unwrap();
        db.insert("Year", vec![Value::Int(1), Value::Int(1999)]).unwrap();
        db.insert("Paper", vec![Value::Int(10), "dated".into(), Value::Int(1)]).unwrap();
        db.insert("Paper", vec![Value::Int(11), "undated".into(), Value::Null]).unwrap();
        // Year 1.0; Papers 1.0 and 2.0.
        db.install_importance_order(&|_, r| 1.0 + r.index() as f64);

        let sg = SchemaGraph::from_database(&db);
        let cfg = GdsConfig { affinity: AffinityModel::manual(&[], 0.9), ..GdsConfig::default() };
        let mut gds = Gds::build(&db, &sg, &cfg, paper);
        gds.set_stats(&[1.0, 2.0]);
        assert_eq!(gds.len(), 2, "Paper -> Year and nothing else");
        let ctx = OsContext::new(&db, &sg, &gds);

        let mut pool = OsArenaPool::new();
        for (row, probes) in [(RowId(0), 1), (RowId(1), 0)] {
            let tds = TupleRef::new(paper, row);
            let complete = generate_os_pooled(&ctx, tds, None, Default::default(), &mut pool);
            let j1 = pool.last_cost().access.joins;
            let (prelim, stats) =
                generate_prelim_pooled(&ctx, tds, 4, Default::default(), &mut pool);
            let j2 = pool.last_cost().access.joins;
            assert_eq!(stats.cond2_probes, 1, "the Year leaf goes through the TOP-l fetch");
            assert_eq!(complete.len(), 1 + probes);
            assert_eq!(prelim.len(), complete.len());
            assert_eq!(j1, probes as u64, "{row:?}: complete generation");
            assert_eq!(j2, probes as u64, "{row:?}: prelim-l generation");
        }
    }

    #[test]
    #[should_panic(expected = "l >= 1")]
    fn l_zero_is_rejected() {
        let f = dblp_fixture();
        let ctx = f.ctx();
        let _ = generate_prelim(&ctx, f.author_tds(0), 0);
    }
}
