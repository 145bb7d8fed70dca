//! The read side of the catalog that goes through postings: the pager
//! seam (attach, evict) and the probe forms the OS-generation algorithms
//! issue — `SELECT *` and the Avoidance-Condition-2 `SELECT * TOP l`.

use std::sync::Arc;

use super::{Database, TableId};
use crate::access::ProbeCost;
use crate::fk_index::{FkOrderToken, Posting, SortedPostings};
use crate::pager::{PostingCursor, PostingPager, SliceCursor};
use crate::table::RowId;
use crate::topl::TopLScratch;

impl Database {
    /// Attaches a paged posting store (see [`PostingPager`]): evicted
    /// tables' prefix scans route to it while its stamp matches the live
    /// installed token.
    pub fn set_pager(&mut self, pager: Arc<dyn PostingPager>) {
        self.pager = Some(pager);
    }

    /// Routes a table's prefix scans to the attached pager (the disk
    /// tier's residency policy) and drops its in-RAM link postings. The
    /// FK runs and the score snapshot stay, so mutations keep working;
    /// results are unchanged by construction (a stale stamp, a read error
    /// or a coverage gap heap-falls-back over the runs). Does not bump
    /// the epoch: no tuple and no servable content moved.
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
    /// accounting, recorded into the database's counter at once.
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
        let (s, mut cost, mut out) = (&mut TopLScratch::new(), ProbeCost::default(), Vec::new());
        self.select_eq_top_l_into(table, col, key, l, largest_l, order, li, s, &mut cost, &mut out);
        self.access.add(&cost);
        out
    }

    /// [`Self::select_eq_top_l`] appending to `out` and drawing every
    /// working buffer — the fast path's boundary-tie staging run, the
    /// heap path's bounded min-heap — from `scratch`, so a warm serving
    /// loop probes without touching the allocator (the core crate's
    /// `tests/alloc_guard.rs` pins this end to end), and adding its cost
    /// to `cost` instead of the database's counter. Results and access
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
        scratch: &mut TopLScratch<RowId>,
        cost: &mut ProbeCost,
        out: &mut Vec<RowId>,
    ) {
        let t = self.table(table);
        // The PK column has no postings: its one candidate takes the heap
        // path, like a probe whose token is stale.
        let on_pk = col == t.schema.pk;
        let one = if on_pk { t.by_pk(key) } else { None };
        self.probe_top_l(
            l,
            largest_l,
            order.filter(|_| !on_pk),
            key,
            || t.sorted_fk_index(col),
            |p| Some((p.fk_cursor(table, col, key)?, ())),
            |r| Some(li(r)),
            || {
                let group = if on_pk { one.as_slice() } else { t.rows_where_eq(col, key) };
                (group.iter().copied(), ())
            },
            scratch,
            cost,
            out,
        );
    }

    /// The junction sibling of [`Self::select_eq_top_l_into`]: `SELECT T.*
    /// TOP l FROM J, T WHERE J.source_col = key AND J.target_col = T.pk
    /// AND li(T) > largest_l ORDER BY li DESC`, appending rows of `target`
    /// (never `exclude`, the OS grandparent of a CoAuthor-style replicated
    /// step) to `out`. With a matching `order` it prefix-scans the
    /// junction's pre-joined link postings ([`crate::SortedLinkIndex`]).
    /// Two counted join accesses on either path: the junction probe,
    /// reporting the raw FK group size (its rows are read to find the
    /// targets), and the TOP-l filtered target fetch.
    #[allow(clippy::too_many_arguments)] // mirrors the SQL probe's clause list
    pub fn select_via_junction_top_l_into(
        &self,
        junction: TableId,
        source_col: usize,
        key: i64,
        target_col: usize,
        target: TableId,
        exclude: Option<RowId>,
        l: usize,
        largest_l: f64,
        order: Option<FkOrderToken>,
        li: &dyn Fn(RowId) -> f64,
        scratch: &mut TopLScratch<RowId>,
        cost: &mut ProbeCost,
        out: &mut Vec<RowId>,
    ) {
        let jt = self.table(junction);
        let tt = self.table(target);
        let raw = self.probe_top_l(
            l,
            largest_l,
            order,
            key,
            || jt.sorted_link_index(source_col),
            |p| {
                let raw = p.link_raw_len(junction, source_col, key)?;
                Some((p.link_cursor(junction, source_col, key)?, raw as u32))
            },
            // The excluded row is not cut on: importance is non-increasing
            // along the scan, so the next pair makes the same cut.
            |t| (Some(t) != exclude).then(|| li(t)),
            || {
                let jrows = jt.rows_where_eq(source_col, key);
                let targets =
                    jrows.iter().filter_map(|&j| tt.by_pk(jt.value(j, target_col).as_int()?));
                (targets, jrows.len() as u32)
            },
            scratch,
            cost,
            out,
        );
        cost.record_join(raw as usize);
    }

    /// The one TOP-l probe body, for either posting kind: at most `l` of
    /// `key`'s result rows with `li > largest_l`, best first, appended to
    /// `out`; one join access reporting the rows returned, and one fast or
    /// heap probe, added to `cost`. The sorted list is `resident` or, evicted,
    /// a cursor of the attached pager (`paged`; `None` when its generation
    /// does not cover the list); an entry's result row is its scored row
    /// ([`Posting::scored`]), `li` maps it to its local importance
    /// (`None`: never returned); `heap` yields the fallback's candidates
    /// from the live-only FK runs. Returns the per-key extra
    /// ([`Posting::Raw`]) of whichever source served.
    #[allow(clippy::too_many_arguments)]
    fn probe_top_l<'a, E: Posting + 'a, I: Iterator<Item = RowId>>(
        &'a self,
        l: usize,
        largest_l: f64,
        order: Option<FkOrderToken>,
        key: i64,
        resident: impl FnOnce() -> Option<&'a SortedPostings<E>>,
        paged: impl FnOnce(&'a dyn PostingPager) -> Option<(Box<dyn PostingCursor<E> + 'a>, E::Raw)>,
        li: impl Fn(RowId) -> Option<f64>,
        heap: impl FnOnce() -> (I, E::Raw),
        scratch: &mut TopLScratch<RowId>,
        cost: &mut ProbeCost,
        out: &mut Vec<RowId>,
    ) -> E::Raw {
        let start = out.len();
        if l > 0 && order.is_some() && order == self.fk_order {
            // Every run holds live entries only, exactly the rows a fresh
            // install would serve. The collected prefix is ranked through
            // the same comparator the heap path uses, so the paths agree
            // by construction.
            let mut stage = |cur: &mut dyn PostingCursor<E>| {
                let scored = std::iter::from_fn(|| cur.next_entry()).filter_map(|e| {
                    let row = e.scored();
                    Some((li(row)?, row))
                });
                scratch.stage_prefix(l, largest_l, scored);
                !cur.failed()
            };
            // RAM postings, else evicted ones: the paged backend serves
            // the identical scan — same loop, same accounting — while
            // its segment stamp matches the live token (any mutation
            // stales it).
            let staged = if let Some(sorted) = resident() {
                let (entries, raw) = sorted.group(key);
                stage(&mut SliceCursor::new(entries)).then_some(raw)
            } else {
                self.pager.as_deref().filter(|p| p.stamp() == self.fk_order).and_then(|p| {
                    let (mut cur, raw) = paged(p)?;
                    stage(cur.as_mut()).then_some(raw)
                })
            };
            if let Some(raw) = staged {
                scratch.rank_staged_into(l, out);
                cost.record_join(out.len() - start);
                cost.probes.fast += 1;
                return raw;
            }
            // Fail closed: a read error mid-scan discards the partial
            // prefix (serving it as-if-complete would silently drop
            // rows) and the heap path — always correct,
            // backed by the FK runs — takes over.
            scratch.staged.clear();
        }
        cost.probes.heap += 1;
        // Bounded top-l selection — O(g log l) over a group of g rows
        // instead of sorting the whole group (ROADMAP hot path).
        let (candidates, raw) = heap();
        scratch.select_into(
            candidates.filter_map(|row| {
                let s = li(row)?;
                (s > largest_l).then_some((s, row))
            }),
            l,
            out,
        );
        cost.record_join(out.len() - start);
        raw
    }
}
