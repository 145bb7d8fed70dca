//! In-memory relational engine substrate.
//!
//! The paper runs on MySQL; under the offline-crate constraint we implement
//! the small relational core its algorithms actually exercise:
//!
//! * typed tuples ([`value::Value`]) and table schemas with single-column
//!   integer primary keys and foreign keys ([`schema`]),
//! * tables of typed columns — `Int` cells at four bytes until a value
//!   outside `i32` widens them to eight, one string arena a `Text`
//!   column, NULLs in a lazily allocated bitmap —
//!   with a slot index on the primary key, and the runs of every
//!   foreign-key column ([`table::Table`]), maintained by every scored
//!   row operation; a row's parent is a primary-key probe of its FK cell,
//! * a catalog ([`database::Database`]) with foreign-key validation and the
//!   two query forms Algorithm 4 issues as SQL
//!   (`SELECT * FROM Ri WHERE tj.ID = Ri.ID` and
//!   `SELECT * TOP l FROM Ri WHERE tj.ID = Ri.ID AND Ri.li > largest-l`),
//! * an access counter ([`access::AccessCounter`]) that counts join probes
//!   and tuples read, the cost unit of the paper's Section 5.3/6.3
//!   discussion ("Avoidance Condition 2 still requires an I/O access even
//!   when it returns no results"),
//! * importance-sorted FK runs ([`fk_index`]) installed as a
//!   finalization step and *maintained* under scored mutations, which
//!   turn the `TOP l` probe into a bounded prefix scan (a junction's
//!   `TOP l` step reads its FK run and resolves each target by key),
//! * the mutation epoch ([`epoch`]) versioning the catalog, so derived
//!   structures — rank scores, serve caches, the WAL — can detect and
//!   synchronize to data changes,
//! * the keyed fold-multiply hasher ([`hash`]) under every integer-keyed
//!   index above — one multiply a probe instead of a SipHash,
//! * the byte codec ([`codec`]) that carries [`value::Value`]s — and every
//!   other serialised form in the workspace — to the WAL, the wire and
//!   the segment directory.

pub mod access;
pub mod codec;
mod column;
pub mod database;
pub mod epoch;
pub mod error;
pub mod fk_index;
pub mod hash;
pub mod runs;
pub mod schema;
pub mod table;
pub mod text;
pub mod topl;
pub mod value;

pub use access::{AccessCounter, AccessStats, MaintStats, ProbeCost, ProbeStats};
pub use database::{Database, ScoredBatch, TableId, TupleRef};
pub use epoch::Epoch;
pub use error::StorageError;
pub use fk_index::SortedFkIndex;
pub use schema::{Column, ForeignKey, SchemaBuilder, TableSchema};
pub use table::{NoLinks, RowId, RowRef, Table};
pub use topl::{top_l, TopLScratch};
pub use value::{Value, ValueRef, ValueType};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, StorageError>;
