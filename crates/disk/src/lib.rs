//! Disk tier: write-ahead batch durability and posting-segment
//! checkpoints.
//!
//! Every probe is served from the in-RAM FK runs; nothing here is on a
//! read path. The crate gives the engine two artefacts on disk:
//!
//! * [`wal`] — the write-ahead log giving `apply_batch` redo
//!   durability: append + fsync before settlement, replay on recovery,
//!   truncate at checkpoint,
//! * [`segment`] — immutable, checksummed segment files packing the
//!   importance-sorted posting lists of each column into fixed 4 KiB
//!   pages ([`page`]: many short lists to a page, a long list over a
//!   run of pages of its own), with a directory locating every list's
//!   slot and distinguishing *covered-but-empty* lists from
//!   *not-covered* columns; [`SegmentWriter`] is the format's one writer
//!   and [`SegmentFile`] its one reader,
//! * [`store`] — [`PagedStore`], the directory of segment generations a
//!   checkpoint writes: a temporary file renamed into place, the
//!   superseded generation removed, and whatever an earlier process
//!   left swept by a fresh store.
//!
//! Everything fails closed: a page, slot or record that doesn't verify
//! is a typed [`DiskError`], never garbage.

pub mod crc;
pub mod error;
pub mod page;
pub mod segment;
pub mod store;
pub mod wal;

pub use error::{DiskError, Result};
pub use page::{PageKind, PAGE_SIZE};
pub use segment::{SegmentFile, SegmentWriter};
pub use store::{CacheSnapshot, PagedStore, StoreStats};
pub use wal::{Wal, WalReplay};
