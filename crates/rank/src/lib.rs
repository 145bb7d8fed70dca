//! Global tuple importance: ObjectRank and ValueRank (Section 2.2).
//!
//! * [`authority`] — the Authority Transfer Schema Graph `G_A` (Figure 13):
//!   per-FK-edge transfer rates in both directions, per-M:N-link rates, and
//!   ValueRank's per-tuple value multipliers.
//! * [`power`] — the power-iteration solver over a solve-local
//!   [`sizel_graph::DataGraph`] and the tables' forward arrays, producing
//!   dense global importance scores plus the per-relation maxima that
//!   feed the `max(Ri)` GDS statistics; installed into the tables' score
//!   snapshots and dropped.
//! * [`presets`] — GA1/GA2 for both databases and the paper's three damping
//!   factors d1 = 0.85, d2 = 0.10, d3 = 0.99.
//!
//! Design note: authority flows across collapsed M:N links directly
//! (Author → Paper), *not* through junction tuples, so junction rows hold no
//! rank — matching ObjectRank's relation-level `G_A`, where `AuthorPaper`
//! does not exist as a node.

pub mod authority;
pub mod power;
pub mod presets;

pub use authority::{AuthorityGraph, ValueFunction};
pub use power::{
    compute, estimate_appended_score, estimate_updated_score, install_importance_order, reiterate,
    solve_scratch_bytes, RankConfig, RankScores,
};
pub use presets::{dblp_ga, tpch_ga, GaPreset, D1, D2, D3};
