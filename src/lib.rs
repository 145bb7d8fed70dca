//! # sizel — Size-l Object Summaries for Relational Keyword Search
//!
//! A from-scratch reproduction of Fakas, Cai & Mamoulis, *"Size-l Object
//! Summaries for Relational Keyword Search"*, PVLDB 5(3), 2011.
//!
//! A keyword query names a *Data Subject* (e.g. an author); the system
//! answers with **Object Summaries** — trees of joining tuples rooted at
//! the matching tuple — cut down to the **size-l** subtree of maximum
//! importance, like a web-search snippet for a database (Examples 1-5 of
//! the paper).
//!
//! ```
//! use sizel::{build_dblp_engine, DblpConfig, GaPreset};
//!
//! let engine = build_dblp_engine(&DblpConfig::small(), GaPreset::Ga1, 0.85);
//! // Q1 of the paper: one summary per Faloutsos brother, 15 tuples each.
//! let results = engine.query("Faloutsos", 15);
//! assert_eq!(results.len(), 3);
//! for r in &results {
//!     assert_eq!(r.summary.len(), 15);
//!     println!("{}", engine.render(r, &sizel::RenderOptions::default()));
//! }
//! ```
//!
//! The workspace crates are re-exported here; see `DESIGN.md` for the
//! paper-to-module map and `EXPERIMENTS.md` for the reproduction results.

pub use sizel_cluster::{
    ClusterConfig, ClusterError, ClusterRouter, ClusterStats, RefreshConfig, RefreshStats,
};
pub use sizel_core::algo::{
    AlgoKind, BottomUp, BruteForce, DpKnapsack, DpNaive, SizeLAlgorithm, SizeLResult, TopPath,
    TopPathOpt, WordBudgetDp,
};
pub use sizel_core::durability::{DiskTierConfig, DiskTierStats, RecoveryReport};
pub use sizel_core::engine::{
    EngineConfig, Mutation, QueryOptions, QueryResult, RefreshPolicy, ResultRanking, SizeLEngine,
};
pub use sizel_core::eval::{
    approximation_ratio, consecutive_optima_similarity, effectiveness, snippet_selection,
    tuple_effectiveness, EvaluatorPanel,
};
pub use sizel_core::keyword::KeywordIndex;
pub use sizel_core::os::{Os, OsArenaPool, OsNode, OsNodeId};
pub use sizel_core::osgen::{generate_os, generate_os_pooled, OsContext, OsSource};
pub use sizel_core::prelim::{generate_prelim, generate_prelim_pooled, PrelimStats};
pub use sizel_core::render::{render_os, RenderOptions};
pub use sizel_datagen::dblp::{Dblp, DblpConfig, FamousAuthorSpec};
pub use sizel_datagen::tpch::{Tpch, TpchConfig};
pub use sizel_disk::{
    CacheSnapshot, DiskError, PagedStore, SegmentFile, SegmentWriter, StoreStats, Wal, WalReplay,
};
pub use sizel_graph::{
    presets as gds_presets, AffinityModel, DataGraph, Gds, GdsConfig, SchemaGraph,
};
pub use sizel_net::{
    protocol_reference_table, BusyReason, NetClient, NetConfig, NetCounters, NetServer, Opcode,
    Reply, WireResult,
};
pub use sizel_serve::{
    CacheStats, HotKey, ServeConfig, ServerStats, SharedResult, SizeLServer, SummaryKey,
};

pub use sizel_rank::{
    dblp_ga, install_importance_order, tpch_ga, AuthorityGraph, GaPreset, RankConfig, RankScores,
    D1, D2, D3,
};
pub use sizel_storage::{
    Database, Epoch, FkOrderToken, StorageError, TableSchema, TupleRef, Value, ValueType,
};

/// Builds a ready-to-query engine over a synthetic DBLP database, with
/// Author and Paper as DS relations and the paper's GDS presets
/// (Figure 2 / Section 6.2).
pub fn build_dblp_engine(cfg: &DblpConfig, preset: GaPreset, damping: f64) -> SizeLEngine {
    let d = sizel_datagen::dblp::generate(cfg);
    SizeLEngine::build(
        d.db,
        move |db, sg, dg| sizel_rank::dblp_ga(preset, db, sg, dg),
        EngineConfig {
            rank: RankConfig::with_damping(damping),
            ..EngineConfig::new(vec![
                ("Author".into(), gds_presets::dblp_author_gds_config()),
                ("Paper".into(), gds_presets::dblp_paper_gds_config()),
            ])
        },
    )
    .expect("generated DBLP databases are FK-consistent")
}

/// Builds a ready-to-query engine over a synthetic TPC-H database, with
/// Customer and Supplier as DS relations and the paper's GDS presets
/// (Figure 12 / Section 6).
pub fn build_tpch_engine(cfg: &TpchConfig, preset: GaPreset, damping: f64) -> SizeLEngine {
    let t = sizel_datagen::tpch::generate(cfg);
    SizeLEngine::build(
        t.db,
        move |db, sg, dg| sizel_rank::tpch_ga(preset, db, sg, dg),
        EngineConfig {
            rank: RankConfig::with_damping(damping),
            ..EngineConfig::new(vec![
                ("Customer".into(), gds_presets::tpch_customer_gds_config()),
                ("Supplier".into(), gds_presets::tpch_supplier_gds_config()),
            ])
        },
    )
    .expect("generated TPC-H databases are FK-consistent")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dblp_engine_builds_and_serves() {
        let e = build_dblp_engine(&DblpConfig::tiny(), GaPreset::Ga1, D1);
        // tiny has no famous authors; query a generated name token instead.
        let any_author = e.db().table(e.db().table_id("Author").unwrap());
        let name = any_author.value(sizel_storage::RowId(0), 1).as_str().unwrap().to_owned();
        let first = name.split(' ').next().unwrap();
        let results = e.query(first, 5);
        assert!(!results.is_empty());
        assert!(results[0].result.len() <= 5);
    }

    #[test]
    fn tpch_engine_builds_and_serves() {
        let e = build_tpch_engine(&TpchConfig::tiny(), GaPreset::Ga1, D1);
        let customers = e.db().table(e.db().table_id("Customer").unwrap());
        let name = customers.value(sizel_storage::RowId(0), 1).as_str().unwrap().to_owned();
        let results = e.query(&name, 10);
        assert_eq!(results.len(), 1);
        assert!(results[0].summary.len() <= 10);
    }
}
