//! Schema graph, Data Subject Schema Graphs (GDS), affinity, and the
//! tuple-level data graph.
//!
//! This crate implements the structural machinery of Section 2.1 of the
//! paper:
//!
//! * [`schema_graph`] — the database schema as a graph: one node per
//!   relation, one edge per foreign key, traversable in both directions.
//! * [`gds`] — the **Data Subject Schema Graph**: a "treealization" of the
//!   schema rooted at the DS relation, with looped and many-to-many
//!   relationships replicated (CoAuthor, PaperCites, PaperCitedBy, ...) and
//!   junction tables collapsed into single M:N steps. Each node carries the
//!   affinity of Equation 1 and, once ranking is known, the `max(Ri)` /
//!   `mmax(Ri)` statistics of Section 5.3 (Figure 2 / Figure 12).
//! * [`affinity`] — Equation 1: computed metric-based affinity, or manual
//!   (domain-expert) affinities keyed by GDS path, which the presets use to
//!   carry the paper's published values.
//! * [`data_graph`] — what a rank solve adds to the in-memory index the
//!   paper generates OSs from ("the data-graph is only an index ... nodes
//!   capture only keys and global importance"): dense node ids and the
//!   collapsed M:N links. The index itself lives in storage's tables —
//!   the FK runs, the forward arrays and the installed scores.

pub mod affinity;
pub mod data_graph;
pub mod gds;
pub mod presets;
pub mod schema_graph;

pub use affinity::{AffinityModel, MetricWeights};
pub use data_graph::{DataGraph, MnLinkId, NodeId};
pub use gds::{Gds, GdsConfig, GdsNode, GdsNodeId, JoinSpec};
pub use schema_graph::{Direction, SchemaEdge, SchemaEdgeId, SchemaGraph};
