//! Size-l Object Summaries — the paper's core contribution.
//!
//! An **Object Summary** (OS) is a tree of tuples rooted at the tuple
//! `t_DS` matching a keyword query, expanded over a
//! [`sizel_graph::Gds`]. A **size-l OS** is the connected subtree of `l`
//! tuples containing the root that maximizes total local importance
//! `Im(OS, t_i) = Im(t_i) · Af(t_i)` (Equations 2-3, Problem 1).
//!
//! Module map (paper algorithm → module):
//!
//! | Paper | Module |
//! |---|---|
//! | Algorithm 5 (complete OS generation) | [`osgen`] |
//! | Algorithm 4 (prelim-l OS, avoidance conditions) | [`prelim`] |
//! | Algorithm 1 (optimal DP) | [`algo::dp_naive`] (faithful) and [`algo::dp`] (knapsack-merge, same optimum in `O(n·l²)`) |
//! | Algorithm 2 (Bottom-Up Pruning) | [`algo::bottom_up`] |
//! | Algorithm 3 (Update Top-Path-l) | [`algo::top_path`] (+ the §5.2 `s(v)` optimization) |
//! | exhaustive baseline (test oracle) | [`algo::brute`] |
//! | keyword → `t_DS` lookup | [`keyword`] |
//! | Example 4/5 rendering | [`render`] |
//! | effectiveness / quality metrics, evaluator panel | [`eval`] |
//! | end-to-end engine | [`engine`] |

pub mod algo;
pub mod batch_codec;
pub mod durability;
pub mod engine;
pub mod eval;
pub mod keyword;
pub mod os;
pub mod osgen;
pub mod prelim;
pub mod render;
pub mod test_fixtures;

pub use algo::{AlgoKind, SizeLAlgorithm, SizeLResult};
pub use durability::{DiskTierConfig, DiskTierStats, RecoveryReport};
pub use engine::{EngineConfig, QueryResult, SizeLEngine};
pub use keyword::KeywordIndex;
pub use os::{Os, OsNode, OsNodeId, PackedOs};
pub use osgen::{generate_os, OsContext, OsSource};
pub use prelim::generate_prelim;
