//! Shared fixture for the serving-layer integration tests: the same
//! small-scale DBLP engine (Author + Paper DS relations, GA1) that
//! `sizel-core`'s own engine tests build — the sequential baseline every
//! server path is compared against.

#![allow(dead_code)] // each test binary uses the subset it needs

use std::sync::{Arc, OnceLock, RwLock};

use sizel_core::engine::{EngineConfig, SizeLEngine};
use sizel_datagen::dblp::{generate, DblpConfig};
use sizel_graph::presets;
use sizel_rank::{dblp_ga, GaPreset};

/// The canonical byte-exact result fingerprint, re-exported from
/// `sizel_core::test_fixtures` so every oracle in every crate compares
/// the same bytes.
pub use sizel_core::test_fixtures::result_fingerprint as fingerprint;

/// [`fingerprint`] of a query run sequentially on an engine.
pub fn seq_fingerprint(
    engine: &SizeLEngine,
    kw: &str,
    opts: sizel_core::engine::QueryOptions,
) -> String {
    fingerprint(&engine.query_with(kw, opts))
}

/// A fresh engine over `cfg` (each mutation test owns its own).
pub fn build_engine(cfg: &DblpConfig) -> SizeLEngine {
    SizeLEngine::build(
        generate(cfg).db,
        |db, sg, dg| dblp_ga(GaPreset::Ga1, db, sg, dg),
        engine_config(),
    )
    .expect("engine builds")
}

/// The engine configuration every fixture shares.
pub fn engine_config() -> EngineConfig {
    EngineConfig::new(vec![
        ("Author".into(), presets::dblp_author_gds_config()),
        ("Paper".into(), presets::dblp_paper_gds_config()),
    ])
}

/// One lock-wrapped engine per test binary, shared between servers
/// (`SizeLServer::from_shared`) and sequential baselines (`.read()`).
/// Read-only suites only — mutation tests build their own engines.
pub fn small_engine() -> Arc<RwLock<SizeLEngine>> {
    static E: OnceLock<Arc<RwLock<SizeLEngine>>> = OnceLock::new();
    Arc::clone(E.get_or_init(|| Arc::new(RwLock::new(build_engine(&DblpConfig::small())))))
}
