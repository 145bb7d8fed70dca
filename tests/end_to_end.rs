//! End-to-end integration tests: keyword query in, rendered size-l OS out,
//! across both databases, both named tuple sources, and all algorithms.

use sizel::{
    build_dblp_engine, build_tpch_engine, generate_os, AlgoKind, DblpConfig, GaPreset, OsSource,
    QueryOptions, RenderOptions, ResultRanking, TpchConfig, D1, D2,
};
use std::sync::OnceLock;

fn dblp() -> &'static sizel::SizeLEngine {
    static E: OnceLock<sizel::SizeLEngine> = OnceLock::new();
    E.get_or_init(|| build_dblp_engine(&DblpConfig::small(), GaPreset::Ga1, D1))
}

fn tpch() -> &'static sizel::SizeLEngine {
    static E: OnceLock<sizel::SizeLEngine> = OnceLock::new();
    E.get_or_init(|| build_tpch_engine(&TpchConfig::tiny(), GaPreset::Ga1, D1))
}

#[test]
fn example_5_scenario_q1_l15() {
    // Q1 = "Faloutsos", l = 15: one size-15 OS per brother, each a valid
    // connected tree rooted at the Author tuple, rendered like Example 5.
    let results = dblp().query("Faloutsos", 15);
    assert_eq!(results.len(), 3);
    for r in &results {
        assert_eq!(r.summary.len(), 15);
        r.summary.validate().expect("summary is a well-formed tree");
        assert_eq!(r.summary.node(r.summary.root()).tuple, r.tds);
        let text = dblp().render(r, &RenderOptions::default());
        assert!(text.starts_with("Author: "));
        assert!(text.contains("Faloutsos"));
        assert!(text.contains("(Total 15 tuples)"));
    }
}

#[test]
fn all_algorithms_agree_on_validity_and_dominance() {
    for algo in [AlgoKind::Optimal, AlgoKind::BottomUp, AlgoKind::TopPath, AlgoKind::TopPathOpt] {
        for l in [1usize, 5, 15, 40] {
            let results = dblp().query_with(
                "Christos Faloutsos",
                QueryOptions { l, algo, prelim: false, ..QueryOptions::default() },
            );
            assert_eq!(results.len(), 1, "{algo:?} l={l}");
            let r = &results[0];
            assert_eq!(r.summary.len(), l.min(r.input_os_size));
            r.summary.validate().unwrap();
        }
    }
    // Optimal dominates every other algorithm at equal l.
    let opt = dblp()
        .query_with(
            "Christos Faloutsos",
            QueryOptions {
                l: 20,
                algo: AlgoKind::Optimal,
                prelim: false,
                ..QueryOptions::default()
            },
        )
        .remove(0);
    for algo in [AlgoKind::BottomUp, AlgoKind::TopPath, AlgoKind::TopPathOpt] {
        let r = dblp()
            .query_with(
                "Christos Faloutsos",
                QueryOptions { l: 20, algo, prelim: false, ..QueryOptions::default() },
            )
            .remove(0);
        assert!(r.importance <= opt.importance + 1e-9, "{algo:?} beat the optimum");
    }
}

#[test]
fn data_graph_and_database_sources_agree() {
    for keywords in ["Michalis Faloutsos", "Petros Faloutsos"] {
        let a = dblp().query_with(
            keywords,
            QueryOptions {
                l: 12,
                source: OsSource::DataGraph,
                prelim: false,
                ..QueryOptions::default()
            },
        );
        let b = dblp().query_with(
            keywords,
            QueryOptions {
                l: 12,
                source: OsSource::Database,
                prelim: false,
                ..QueryOptions::default()
            },
        );
        assert_eq!(a[0].input_os_size, b[0].input_os_size);
        assert!((a[0].importance - b[0].importance).abs() < 1e-9);
    }
}

#[test]
fn prelim_and_complete_equal_quality_on_small_engine() {
    for l in [5usize, 10, 25] {
        let p = dblp().query_with(
            "Christos Faloutsos",
            QueryOptions { l, prelim: true, ..QueryOptions::default() },
        );
        let c = dblp().query_with(
            "Christos Faloutsos",
            QueryOptions { l, prelim: false, ..QueryOptions::default() },
        );
        assert!(p[0].input_os_size <= c[0].input_os_size);
        let ratio = p[0].importance / c[0].importance.max(1e-12);
        assert!(ratio > 0.9, "l={l}: prelim ratio {ratio}");
    }
}

#[test]
fn ranking_modes_differ_only_in_order() {
    let by_ds = dblp().query_with("Faloutsos", QueryOptions { l: 10, ..QueryOptions::default() });
    let by_sum = dblp().query_with(
        "Faloutsos",
        QueryOptions {
            l: 10,
            ranking: ResultRanking::SummaryImportance,
            ..QueryOptions::default()
        },
    );
    assert_eq!(by_ds.len(), by_sum.len());
    let mut a: Vec<_> = by_ds.iter().map(|r| r.tds).collect();
    let mut b: Vec<_> = by_sum.iter().map(|r| r.tds).collect();
    a.sort();
    b.sort();
    assert_eq!(a, b, "same result set, potentially different order");
    for w in by_sum.windows(2) {
        assert!(w[0].importance >= w[1].importance);
    }
}

#[test]
fn tpch_customer_subject_access() {
    let e = tpch();
    let customers = e.db().table(e.db().table_id("Customer").unwrap());
    // Query the first customer by full name: exactly one DS.
    let name = customers.value(sizel_storage_row(0), 1).as_str().unwrap().to_owned();
    let results = e.query(&name, 20);
    assert_eq!(results.len(), 1);
    let r = &results[0];
    assert!(r.summary.len() <= 20);
    let text = e.render(r, &RenderOptions::default());
    assert!(text.starts_with("Customer: "));
    // The hidden Partsupp.comment column never renders.
    assert!(!text.contains("lot "), "hidden columns must not render: {text}");
}

#[test]
fn value_rank_and_object_rank_produce_different_orders() {
    let ga1 = build_tpch_engine(&TpchConfig::tiny(), GaPreset::Ga1, D1);
    let ga2 = build_tpch_engine(&TpchConfig::tiny(), GaPreset::Ga2, D1);
    let customer = ga1.db().table_id("Customer").unwrap();
    let rank_of = |e: &sizel::SizeLEngine| -> Vec<usize> {
        let t = e.db().table(customer);
        let mut scored: Vec<(f64, usize)> = t
            .iter()
            .map(|(rid, _)| (e.score(sizel::TupleRef::new(customer, rid)), rid.index()))
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        scored.into_iter().take(10).map(|(_, i)| i).collect()
    };
    assert_ne!(rank_of(&ga1), rank_of(&ga2), "value functions must change the top-10");
}

#[test]
fn damping_changes_summaries() {
    let d1 = build_dblp_engine(&DblpConfig::small(), GaPreset::Ga1, D1);
    let d2 = build_dblp_engine(&DblpConfig::small(), GaPreset::Ga2, D2);
    let a = d1.query("Christos Faloutsos", 10).remove(0);
    let b = d2.query("Christos Faloutsos", 10).remove(0);
    // Same DS, same size; different importance models.
    assert_eq!(a.tds, b.tds);
    assert_eq!(a.summary.len(), b.summary.len());
}

#[test]
fn empty_and_nonsense_queries() {
    assert!(dblp().query("", 10).is_empty());
    assert!(dblp().query("zzz yyy xxx", 10).is_empty());
    assert!(dblp().query("???", 10).is_empty());
}

#[test]
fn l_one_returns_just_the_root() {
    let results = dblp().query("Christos Faloutsos", 1);
    assert_eq!(results[0].summary.len(), 1);
    assert_eq!(results[0].summary.node(results[0].summary.root()).tuple, results[0].tds);
}

#[test]
fn huge_l_caps_at_complete_os() {
    let results = dblp().query_with(
        "Petros Faloutsos",
        QueryOptions { l: 100_000, prelim: false, ..QueryOptions::default() },
    );
    let r = &results[0];
    assert_eq!(r.summary.len(), r.input_os_size);
}

#[test]
fn complete_os_matches_engine_context_path() {
    // The engine's context produces the same OS as the standalone API.
    let e = dblp();
    let results = e.query("Michalis Faloutsos", 5);
    let tds = results[0].tds;
    let ctx = e.context(tds.table);
    let os = generate_os(&ctx, tds, None);
    assert!(os.len() >= results[0].input_os_size);
    os.validate().unwrap();
}

/// Helper: RowId constructor without importing the storage crate directly
/// in every test.
fn sizel_storage_row(i: u32) -> sizel_storage::RowId {
    sizel_storage::RowId(i)
}
