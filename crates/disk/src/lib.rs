//! Disk tier: paged posting segments, a pooled block cache, and
//! write-ahead batch durability.
//!
//! The paper's cost model counts *accesses*; everything above this crate
//! works over in-RAM postings where an access is a pointer chase. This
//! crate gives the same sorted postings a disk-resident form so cold or
//! huge tables can page instead of pinning RAM, without changing a
//! single answer or a single counted access:
//!
//! * [`segment`] — immutable, checksummed segment files packing the
//!   importance-sorted posting lists of each column into fixed 4 KiB
//!   pages ([`page`]: many short lists to a page, a long list over a
//!   run of pages of its own), with a directory locating every list's
//!   slot and distinguishing *covered-but-empty* lists from
//!   *not-covered* columns (the accounting-parity pivot),
//! * [`cache`] — a pooled LRU [`BlockCache`] of verified pages
//!   (buffers recycled, hit/miss/evict counters exported),
//! * [`store`] — [`PagedStore`], the [`sizel_storage::PostingPager`]
//!   implementation the database routes prefix scans to while the
//!   segment stamp matches the installed order; a checkpoint writes a
//!   temporary file and renames it into place, and a fresh store sweeps
//!   what an earlier process left in its directory,
//! * [`wal`] — the write-ahead log giving `apply_batch` redo
//!   durability: append + fsync before settlement, replay on recovery,
//!   truncate at checkpoint.
//!
//! Everything fails closed: a page, slot or record that doesn't verify
//! is a typed [`DiskError`], never a truncated-but-served scan.

pub mod cache;
pub mod crc;
pub mod error;
pub mod page;
pub mod segment;
pub mod store;
pub mod wal;

pub use cache::{BlockCache, CacheSnapshot};
pub use error::{DiskError, Result};
pub use page::{PageBuf, PageKind, PAGE_SIZE};
pub use segment::{SegmentFile, SegmentWriter};
pub use store::{PagedStore, StoreStats};
pub use wal::{Wal, WalReplay};
