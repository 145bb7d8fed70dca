//! The read side of the catalog that goes through postings: the pager
//! seam (attach, evict) and the probe forms the OS-generation algorithms
//! issue — `SELECT *` and the Avoidance-Condition-2 `SELECT * TOP l`.

use std::sync::Arc;

use super::{Database, TableId};
use crate::fk_index::FkOrderToken;
use crate::pager::{PostingCursor, PostingPager, SlicePostingCursor};
use crate::table::RowId;

impl Database {
    /// Attaches a paged posting store (see [`PostingPager`]): evicted
    /// tables' prefix scans route to it while its stamp matches the live
    /// installed token.
    pub fn set_pager(&mut self, pager: Arc<dyn PostingPager>) {
        self.pager = Some(pager);
    }

    /// Detaches the paged posting store; evicted tables fall back to the
    /// heap path until their postings are rebuilt.
    pub fn clear_pager(&mut self) {
        self.pager = None;
    }

    /// The attached paged posting store, if any.
    pub fn pager(&self) -> Option<&(dyn PostingPager + 'static)> {
        self.pager.as_deref()
    }

    /// Evicts a table's in-RAM sorted FK and link postings (the disk
    /// tier's residency policy — cold tables serve prefix scans from
    /// segments instead). The score snapshot survives, so mutations keep
    /// working; results are unchanged by construction (the pager serves
    /// the same postings, and any coverage gap heap-falls-back). Does not
    /// bump the epoch: no tuple and no servable content moved.
    pub fn evict_table_postings(&mut self, table: TableId) {
        self.tables[table.index()].evict_sorted_postings();
    }

    /// `SELECT * FROM Ri WHERE Ri.col = key` — Algorithm 4 line 12 /
    /// Algorithm 5 line 6. One counted join access.
    pub fn select_eq(&self, table: TableId, col: usize, key: i64) -> Vec<RowId> {
        let t = self.table(table);
        let rows: Vec<RowId> = if col == t.schema.pk {
            // O(1): the unique PK hash index.
            t.by_pk(key).into_iter().collect()
        } else {
            t.rows_where_eq(col, key).to_vec()
        };
        self.access.record_join(rows.len());
        rows
    }

    /// `SELECT * TOP l FROM Ri WHERE Ri.col = key AND li(ti) > largest_l
    /// ORDER BY li DESC` — Algorithm 4 line 10 (Avoidance Condition 2).
    /// `li` maps a row of `table` to its local importance. One counted join
    /// access even when the result is empty, matching the paper's cost
    /// accounting.
    ///
    /// When `order` matches the installed importance order (which attests
    /// that `li` is a monotone non-decreasing function of the installed
    /// score — true for `li = global · affinity` with a positive
    /// affinity), the probe is a bounded prefix scan of the pre-sorted
    /// postings: `O(l + t)` rows visited (`t` = the li-tie run straddling
    /// the cut) instead of `O(g log l)` over the whole FK group, and
    /// byte-identical to the heap path even when distinct scores collapse
    /// to equal `li` (the tie run at the boundary is collected in full and
    /// re-ranked by `(li desc, RowId asc)`, exactly [`crate::top_l`]'s
    /// order). Pass `None` (or a stale token) to force the heap path.
    #[allow(clippy::too_many_arguments)] // mirrors the SQL probe's clause list
    pub fn select_eq_top_l(
        &self,
        table: TableId,
        col: usize,
        key: i64,
        l: usize,
        largest_l: f64,
        order: Option<FkOrderToken>,
        li: &dyn Fn(RowId) -> f64,
    ) -> Vec<RowId> {
        let mut scratch = crate::topl::TopLScratch::new();
        let mut out = Vec::new();
        self.select_eq_top_l_into(table, col, key, l, largest_l, order, li, &mut scratch, &mut out);
        out
    }

    /// [`Self::select_eq_top_l`] appending to `out` and drawing every
    /// working buffer — the fast path's boundary-tie staging run, the
    /// heap path's bounded min-heap — from `scratch`, so a warm serving
    /// loop probes without touching the allocator (the core crate's
    /// `tests/alloc_guard.rs` pins this end to end). Results and access
    /// accounting are byte-identical to the allocating form, which
    /// delegates here.
    #[allow(clippy::too_many_arguments)] // mirrors the SQL probe's clause list
    pub fn select_eq_top_l_into(
        &self,
        table: TableId,
        col: usize,
        key: i64,
        l: usize,
        largest_l: f64,
        order: Option<FkOrderToken>,
        li: &dyn Fn(RowId) -> f64,
        scratch: &mut crate::topl::TopLScratch<RowId>,
        out: &mut Vec<RowId>,
    ) {
        let t = self.table(table);
        let start = out.len();
        if l > 0 && order.is_some() && order == self.fk_order && col != t.schema.pk {
            // Tombstones (deleted rows awaiting compaction) are skipped
            // by the `is_live` filter inside the shared prefix-cut loop
            // (`stage_prefix`): the scan sees exactly the live rows a
            // fresh install would serve, and the join accounting below
            // counts only returned rows — so compaction state is
            // invisible to results and cost alike. The collected prefix
            // is then ranked through the same comparator the heap path
            // uses, so the paths agree by construction.
            let mut stage = |cur: &mut dyn PostingCursor| {
                scratch.stage_prefix(
                    l,
                    largest_l,
                    || cur.next_row(),
                    |&r| t.is_live(r).then(|| li(r)),
                );
                !cur.failed()
            };
            // RAM postings, else evicted ones: the paged backend serves
            // the identical scan — same loop, same accounting — while
            // its segment stamp matches the live token (any mutation
            // stales it).
            let staged = if let Some(sorted) = t.sorted_fk_index(col) {
                stage(&mut SlicePostingCursor::new(sorted.rows(key)))
            } else {
                self.pager
                    .as_deref()
                    .filter(|p| p.stamp() == self.fk_order)
                    .and_then(|p| p.fk_cursor(table, col, key))
                    .is_some_and(|mut cur| stage(cur.as_mut()))
            };
            if staged {
                scratch.rank_staged_into(l, out);
                self.access.record_join(out.len() - start);
                self.access.record_fast_probe();
                return;
            }
            // Fail closed: a read error mid-scan discards the partial
            // prefix (serving it as-if-complete would silently drop
            // rows) and the heap path — always correct,
            // hash-index-backed — takes over.
            scratch.staged.clear();
        }
        self.access.record_heap_probe();
        // Bounded top-l selection — O(g log l) over a group of g rows
        // instead of sorting the whole group (ROADMAP hot path).
        if col == t.schema.pk {
            scratch.select_into(
                t.by_pk(key).into_iter().filter_map(|r| {
                    let s = li(r);
                    (s > largest_l).then_some((s, r))
                }),
                l,
                out,
            );
        } else {
            scratch.select_into(
                t.rows_where_eq(col, key).iter().filter_map(|&r| {
                    let s = li(r);
                    (s > largest_l).then_some((s, r))
                }),
                l,
                out,
            );
        }
        self.access.record_join(out.len() - start);
    }
}
