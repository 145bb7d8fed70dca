//! The posting-pager seam: how a disk tier serves sorted postings.
//!
//! The TOP-l fast path ([`crate::Database::select_eq_top_l`]) scans a
//! *prefix* of an importance-sorted FK posting list. [`PostingCursor`]
//! abstracts that scan — "next row, best importance first" — so the one
//! prefix scan (`database/probe.rs`) is consumed by two backends: the
//! in-RAM slices ([`SliceCursor`]) and a paged on-disk reader supplied by
//! an attached [`PostingPager`] (the `sizel-disk` crate's block-cached
//! segment store). Byte-identical results and access accounting across
//! the backends follow by construction and are property-pinned by the
//! disk crate's equivalence suite. The junction probe reads no posting
//! list of its own (the junction's FK runs stay in RAM), so it never
//! reaches a pager.
//!
//! Fail-closed contract: a paged cursor that hits a read error
//! (checksum mismatch, short read) stops yielding and raises
//! [`PostingCursor::failed`]. The caller must then *discard* the partial
//! scan and fall back to the always-correct heap path — a truncated
//! prefix served as-if-complete would silently drop result rows, which
//! is exactly the garbage the checksums exist to catch.
//!
//! Staleness contract: segments snapshot one [`FkOrderToken`]
//! (order id + epoch). [`PostingPager::stamp`] exposes it, and the
//! database only routes a probe to the pager when the stamp equals both
//! the live installed token *and* the querying context's token — any
//! mutation re-stamps the installed token, so stale segments silently
//! stop serving until the next checkpoint rewrites them.

use crate::fk_index::FkOrderToken;
use crate::table::RowId;
use crate::TableId;

/// A positioned scan over one sorted FK posting list, best importance
/// first.
pub trait PostingCursor {
    /// The next posted row, or `None` when the list (or a failed read —
    /// check [`PostingCursor::failed`]) ends the scan.
    fn next_entry(&mut self) -> Option<RowId>;

    /// True when the scan ended because of a read error rather than list
    /// exhaustion. The caller must discard the partial scan (fail closed).
    fn failed(&self) -> bool {
        false
    }
}

/// The in-RAM backend: a cursor over one key's list of a
/// [`crate::SortedFkIndex`]. Infallible; every row it yields is live.
#[derive(Debug)]
pub struct SliceCursor<'a> {
    rows: &'a [RowId],
    at: usize,
}

impl<'a> SliceCursor<'a> {
    /// A cursor positioned at the best-importance end of `rows`.
    pub fn new(rows: &'a [RowId]) -> SliceCursor<'a> {
        SliceCursor { rows, at: 0 }
    }
}

impl PostingCursor for SliceCursor<'_> {
    fn next_entry(&mut self) -> Option<RowId> {
        let r = self.rows.get(self.at).copied();
        self.at += r.is_some() as usize;
        r
    }
}

/// A paged posting store attachable to a [`crate::Database`]: serves
/// sorted FK postings for tables the paged tier has evicted
/// ([`crate::Database::evict_table_postings`]). Implemented by the `sizel-disk` crate's block-cached segment
/// store; the trait lives here so storage stays dependency-free.
pub trait PostingPager: std::fmt::Debug + Send + Sync {
    /// The [`FkOrderToken`] the current segment generation snapshots, or
    /// `None` when no generation is loaded. Probes only route here while
    /// this equals the database's live installed token.
    fn stamp(&self) -> Option<FkOrderToken>;

    /// A cursor over the FK posting list of `(table, col, key)`, or
    /// `None` when the segment generation doesn't cover that list (the
    /// caller falls back to the heap path). An *empty* covered list
    /// yields a cursor that immediately ends. Read errors surface through
    /// [`PostingCursor::failed`], never as truncated-but-ok scans.
    fn fk_cursor(
        &self,
        table: TableId,
        col: usize,
        key: i64,
    ) -> Option<Box<dyn PostingCursor + '_>>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_cursors_walk_their_slices_in_order_and_never_fail() {
        let rows = [RowId(3), RowId(1), RowId(2)];
        let mut c = SliceCursor::new(&rows);
        assert_eq!(c.next_entry(), Some(RowId(3)));
        assert_eq!(c.next_entry(), Some(RowId(1)));
        assert_eq!(c.next_entry(), Some(RowId(2)));
        assert_eq!(c.next_entry(), None);
        assert_eq!(c.next_entry(), None, "exhausted cursors stay exhausted");
        assert!(!c.failed());
    }
}
