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
use std::collections::BinaryHeap;

use sizel_storage::TupleRef;
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
/// One-shot convenience over [`generate_prelim_pooled`]; loops should hold
/// an [`OsArenaPool`] and call the pooled variant.
pub fn generate_prelim(
    ctx: &OsContext<'_>,
    tds: TupleRef,
    l: usize,
    source: OsSource,
) -> (Os, PrelimStats) {
    let mut pool = OsArenaPool::new();
    generate_prelim_pooled(ctx, tds, l, source, &mut pool)
}

/// [`generate_prelim`] drawing the arena and the BFS scratch from `pool`.
/// Release the returned OS back to the same pool when done with it.
pub fn generate_prelim_pooled(
    ctx: &OsContext<'_>,
    tds: TupleRef,
    l: usize,
    source: OsSource,
    pool: &mut OsArenaPool,
) -> (Os, PrelimStats) {
    assert!(l > 0, "prelim-l needs l >= 1");
    assert_eq!(tds.table, ctx.gds.root_relation(), "t_DS must belong to the GDS root relation");
    let mut stats = PrelimStats::default();

    // The paper's sizing heuristic: a prelim-l OS holds the top-l set plus
    // the partial expansions around it — `4·l` nodes covers the fixtures'
    // high-water mark, so a cold one-shot arena skips the doubling ladder
    // (warm pooled arenas keep their own capacity; ROADMAP nit from PR 3).
    let mut os = pool.acquire_with_capacity(4 * l);
    let OsArenaPool { queue, buf, fetch, .. } = pool;
    queue.clear();
    buf.clear();
    let root_w = ctx.local_importance(ctx.gds.root(), tds);
    let root = os.add_root(tds, ctx.gds.root(), root_w);

    // top-l PQ: a min-heap of the l largest local importances seen so far.
    let mut top_l: BinaryHeap<Reverse<F64Ord>> = BinaryHeap::with_capacity(l + 1);
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
                ctx.children_of_top_l(
                    g_child,
                    u_tuple,
                    grandparent,
                    source,
                    l,
                    largest_l,
                    fetch,
                    buf,
                );
            } else {
                stats.full_joins += 1;
                ctx.children_of(g_child, u_tuple, grandparent, source, buf);
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
    use crate::osgen::generate_os;
    use crate::test_fixtures::{dblp_fixture, tpch_fixture};
    use std::collections::HashSet;

    #[test]
    fn prelim_is_a_valid_tree_and_smaller_than_complete() {
        let f = dblp_fixture();
        let ctx = f.ctx();
        let tds = f.author_tds(0);
        let l = 10;
        let complete = generate_os(&ctx, tds, Some(l as u32 - 1), OsSource::DataGraph);
        let (prelim, stats) = generate_prelim(&ctx, tds, l, OsSource::DataGraph);
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
                let complete = generate_os(&ctx, tds, Some(l as u32 - 1), OsSource::DataGraph);
                let (prelim, _) = generate_prelim(&ctx, tds, l, OsSource::DataGraph);
                let mut weights: Vec<(f64, TupleRef, u32)> =
                    complete.iter().map(|(_, n)| (n.weight, n.tuple, n.gds_node.0)).collect();
                weights.sort_by(|a, b| b.0.total_cmp(&a.0));
                let top: Vec<&(f64, TupleRef, u32)> = weights.iter().take(l).collect();
                let prelim_keys: HashSet<(TupleRef, u32)> =
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
            let complete = generate_os(&ctx, tds, Some(l as u32 - 1), OsSource::DataGraph);
            let (prelim, _) = generate_prelim(&ctx, tds, l, OsSource::DataGraph);
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
        // the prelim-l OS contains an optimal size-l OS.
        let f = dblp_fixture();
        let uniform = sizel_rank::RankScores {
            scores: vec![1.0; f.dg.n_nodes()],
            iterations: 0,
            converged: true,
            per_table_max: vec![1.0; f.dblp.db.table_count()],
            fk_order: None,
        };
        let ctx = {
            let mut gds = f.gds.clone();
            gds.set_stats(&uniform.per_table_max);
            // Rebuild a context over the uniform scores.
            (gds, uniform)
        };
        let (gds, scores) = &ctx;
        let octx = OsContext::new(&f.dblp.db, &f.sg, &f.dg, gds, scores);
        let mut checked = 0;
        for i in 0..5 {
            let tds = f.author_tds(i);
            for l in [4, 8, 12] {
                let complete = generate_os(&octx, tds, Some(l as u32 - 1), OsSource::DataGraph);
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
                let (prelim, _) = generate_prelim(&octx, tds, l, OsSource::DataGraph);
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
        f.tpch.db.access().reset();
        let complete = generate_os(&ctx, tds, Some(l as u32 - 1), OsSource::Database);
        let complete_cost = f.tpch.db.access().snapshot();
        f.tpch.db.access().reset();
        let (prelim, stats) = generate_prelim(&ctx, tds, l, OsSource::Database);
        let prelim_cost = f.tpch.db.access().snapshot();
        assert!(prelim.len() <= complete.len());
        assert!(
            prelim_cost.tuples <= complete_cost.tuples,
            "prelim reads no more tuples than the complete OS"
        );
        assert!(stats.cond1_skips > 0 || stats.cond2_probes > 0, "conditions should fire");
    }

    #[test]
    fn sorted_link_fast_path_is_byte_identical_with_identical_accounting() {
        // Database-source prelim generation over the Author GDS drives
        // junction TOP-l probes (Paper, CoAuthor, citations). With the
        // installed order attested, they run as sorted-link prefix scans;
        // with it withheld, as heap passes. Both the generated OS and the
        // paper-cost accounting must be byte-identical, and the fast run
        // must actually prefix-scan (probe mix).
        let f = dblp_fixture();
        let fast_ctx = f.ctx();
        let mut blind = f.scores.clone();
        blind.fk_order = None;
        let heap_ctx = OsContext::new(&f.dblp.db, &f.sg, &f.dg, &f.gds, &blind);
        for i in 0..4 {
            let tds = f.author_tds(i);
            for l in [1usize, 5, 12] {
                let s0 = f.dblp.db.access().snapshot();
                let p0 = f.dblp.db.access().probes();
                let (fast, _) = generate_prelim(&fast_ctx, tds, l, OsSource::Database);
                let s1 = f.dblp.db.access().snapshot();
                let p1 = f.dblp.db.access().probes();
                let (heap, _) = generate_prelim(&heap_ctx, tds, l, OsSource::Database);
                let s2 = f.dblp.db.access().snapshot();
                assert_eq!(fast.len(), heap.len(), "author {i} l={l}");
                for ((ia, na), (ib, nb)) in fast.iter().zip(heap.iter()) {
                    assert_eq!(na.tuple, nb.tuple);
                    assert_eq!(na.parent, nb.parent);
                    assert_eq!(na.weight.to_bits(), nb.weight.to_bits());
                    assert_eq!(fast.children(ia), heap.children(ib));
                }
                assert_eq!(
                    s1.since(s0),
                    s2.since(s1),
                    "author {i} l={l}: access accounting diverges between link scan and heap"
                );
                assert_eq!(p1.heap, p0.heap, "attested context must never heap-fall-back");
                if l > 1 {
                    assert!(p1.fast > p0.fast, "author {i} l={l}: no prefix scan fired");
                }
            }
        }
    }

    #[test]
    fn dangling_junction_heal_restores_the_fast_path_ratio() {
        // ISSUE 5 satellite: a scored junction insert referencing a
        // not-yet-existing endpoint drops the sorted link postings (heap
        // fallback); when the endpoint later arrives through a scored
        // insert, the storage layer *heals* the postings and re-stamps the
        // token — so Database-source prelim probes go back to a fast-path
        // ratio of 1.0 without any reinstall, byte-identical to a
        // token-less heap run. (Before the heal existed, the drop was
        // permanent until the next full install.)
        use sizel_datagen::dblp::{generate, DblpConfig};
        use sizel_graph::{presets, DataGraph, Gds, SchemaGraph};
        use sizel_rank::RankScores;
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
        let ap_author_col = d.db.table(ap).schema.column_index("author_id").unwrap();

        // One scored insert: a batch of one.
        let insert_scored = |db: &mut Database, table: &str, values: Vec<Value>, score: f64| {
            let mut batch = db.begin_scored_batch();
            db.insert_scored_staged(&mut batch, table, values, score).unwrap();
            db.finish_scored_batch(batch);
        };

        // The dangling insert drops the link postings: heap fallback.
        insert_scored(
            &mut d.db,
            "AuthorPaper",
            vec![Value::Int(jpk), Value::Int(author_pk), Value::Int(missing_paper)],
            0.1,
        );
        assert!(
            d.db.table(ap).sorted_link_index(ap_author_col).is_none(),
            "dangling endpoint drops the junction's link postings"
        );

        // The endpoint arrives: the postings heal on the spot.
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
        assert!(
            d.db.table(ap).sorted_link_index(ap_author_col).is_some(),
            "the arriving endpoint heals the postings without a reinstall"
        );

        // Rebuild the read stack over the healed database (FK-consistent
        // again) with the *maintained* scores as the global importance.
        let dg = DataGraph::build(&d.db, &sg);
        let mut per_table_max = vec![0.0f64; d.db.table_count()];
        let mut dense = Vec::with_capacity(d.db.total_tuples());
        for (tid, t) in d.db.tables() {
            for (r, _) in t.iter() {
                let s = t.installed_score(r);
                dense.push(s);
                per_table_max[tid.index()] = per_table_max[tid.index()].max(s);
            }
        }
        let scores = RankScores {
            scores: dense,
            iterations: 0,
            converged: true,
            per_table_max,
            fk_order: d.db.fk_order(),
        };
        let mut gds =
            Gds::build(&d.db, &sg, &presets::dblp_author_gds_config(), d.author).restrict(0.7);
        gds.set_stats(&scores.per_table_max);
        let ctx = OsContext::new(&d.db, &sg, &dg, &gds, &scores);
        let mut blind = scores.clone();
        blind.fk_order = None;
        let heap_ctx = OsContext::new(&d.db, &sg, &dg, &gds, &blind);

        let tds = TupleRef::new(d.author, RowId(0));
        d.db.access().reset();
        let (fast, _) = generate_prelim(&ctx, tds, 8, OsSource::Database);
        let probes = d.db.access().probes();
        assert!(probes.fast > 0, "healed postings must serve prefix scans again: {probes:?}");
        assert_eq!(probes.heap, 0, "fast-path ratio recovers to 1.0: {probes:?}");
        let (heap, _) = generate_prelim(&heap_ctx, tds, 8, OsSource::Database);
        assert_eq!(fast.len(), heap.len());
        for ((ia, na), (ib, nb)) in fast.iter().zip(heap.iter()) {
            assert_eq!(na.tuple, nb.tuple);
            assert_eq!(na.weight.to_bits(), nb.weight.to_bits());
            assert_eq!(fast.children(ia), heap.children(ib));
        }
        // The healed summary really sees the new endpoint.
        assert!(
            fast.iter().any(|(_, n)| n.tuple.table == d.paper
                && d.db.table(d.paper).pk_of(n.tuple.row) == missing_paper),
            "the healed pair surfaces in the generated OS"
        );
    }

    #[test]
    fn a_null_fk_issues_no_probe_in_either_generator() {
        // Paper -> Year is an N:1 step. A Paper whose `year_id` is NULL has
        // no key to probe, so neither generator may count a join for it:
        // the paper-cost `joins` of prelim-l and complete generation agree
        // on both sources (prelim once counted a probe it never issued).
        use sizel_graph::{AffinityModel, DataGraph, Gds, GdsConfig, SchemaGraph};
        use sizel_rank::RankScores;
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
        let fk_order = Some(db.install_importance_order(&|_, r| 1.0 + r.index() as f64));

        let sg = SchemaGraph::from_database(&db);
        let dg = DataGraph::build(&db, &sg);
        let scores = RankScores {
            scores: vec![1.0, 1.0, 2.0],
            iterations: 0,
            converged: true,
            per_table_max: vec![1.0, 2.0],
            fk_order,
        };
        let cfg = GdsConfig { affinity: AffinityModel::manual(&[], 0.9), ..GdsConfig::default() };
        let mut gds = Gds::build(&db, &sg, &cfg, paper);
        gds.set_stats(&scores.per_table_max);
        assert_eq!(gds.len(), 2, "Paper -> Year and nothing else");
        let ctx = OsContext::new(&db, &sg, &dg, &gds, &scores);

        for (row, probes) in [(RowId(0), 1), (RowId(1), 0)] {
            let tds = TupleRef::new(paper, row);
            for source in [OsSource::DataGraph, OsSource::Database] {
                let j0 = db.access().snapshot().joins;
                let complete = generate_os(&ctx, tds, None, source);
                let j1 = db.access().snapshot().joins;
                let (prelim, stats) = generate_prelim(&ctx, tds, 4, source);
                let j2 = db.access().snapshot().joins;
                assert_eq!(stats.cond2_probes, 1, "the Year leaf goes through the TOP-l fetch");
                assert_eq!(complete.len(), 1 + probes);
                assert_eq!(prelim.len(), complete.len());
                let expect = if source == OsSource::Database { probes as u64 } else { 0 };
                assert_eq!(j1 - j0, expect, "{row:?} {source:?}: complete generation");
                assert_eq!(j2 - j1, expect, "{row:?} {source:?}: prelim-l generation");
            }
        }
    }

    #[test]
    #[should_panic(expected = "l >= 1")]
    fn l_zero_is_rejected() {
        let f = dblp_fixture();
        let ctx = f.ctx();
        let _ = generate_prelim(&ctx, f.author_tds(0), 0, OsSource::DataGraph);
    }
}
