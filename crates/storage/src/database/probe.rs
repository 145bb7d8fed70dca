//! The read side of the catalog that goes through postings: the probe
//! forms the OS-generation algorithms issue — `SELECT *` and the
//! Avoidance-Condition-2 `SELECT * TOP l`, on an FK column or through a
//! junction.
//!
//! One layout serves every form: a table's FK runs, sorted by installed
//! importance while the order holds. An FK probe with the live token is a
//! prefix scan of its run, and otherwise a bounded top-l selection over
//! the run. A junction probe is always that selection: the junction's FK
//! run for the key, each row's target resolved through the target's
//! primary key ([`crate::Table::parent_of`]).

use super::{Database, TableId};
use crate::access::ProbeCost;
use crate::fk_index::FkOrderToken;
use crate::table::RowId;
use crate::topl::TopLScratch;

impl Database {
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
        let start = out.len();
        // The PK column has no postings: its one candidate takes the heap
        // path, like a probe whose token is stale.
        let on_pk = col == t.schema.pk;
        let fresh = !on_pk && l > 0 && order.is_some() && order == self.fk_order;
        if let Some(sorted) = t.sorted_fk_index(col).filter(|_| fresh) {
            // Every run holds live rows only, exactly the rows a fresh
            // install would serve. The collected prefix is ranked through
            // the same comparator the heap path uses, so the paths agree
            // by construction.
            scratch.stage_prefix(l, largest_l, sorted.rows(key).iter().map(|&r| (li(r), r)));
            scratch.rank_staged_into(l, out);
            cost.record_join(out.len() - start);
            cost.probes.fast += 1;
            return;
        }
        let li = |r| Some(li(r));
        let one = if on_pk { t.by_pk(key) } else { None };
        let group = if on_pk { one.as_slice() } else { t.rows_where_eq(col, key) };
        heap_top_l(group.iter().copied(), l, largest_l, li, scratch, cost, out);
    }

    /// The junction step `SELECT T.* TOP l FROM J, T WHERE J.source_col =
    /// key AND J.target_col = T.pk AND li(T) > largest_l ORDER BY li DESC`,
    /// appending rows of `target` (never `exclude`, the OS grandparent of
    /// a CoAuthor-style replicated step) to `out`, best first under `(li
    /// desc, RowId asc)`. It reads the junction's FK run for `key`,
    /// resolves each junction row's `target_col` key in `target`'s primary
    /// key ([`crate::Table::parent_of`]) — a NULL or dangling target joins
    /// nothing — and selects the top `l` in one bounded pass. Two counted join
    /// accesses: the junction probe, reporting the raw FK group size (its
    /// rows are read to find the targets), and the TOP-l filtered target
    /// fetch. Always one heap probe; `order` is not consulted (there is
    /// no sorted junction index to scan).
    ///
    /// The junction's FK runs must be built. Every engine read path sees
    /// them so: installing an order builds them, and scored batches
    /// maintain them. A caller probing a junction a plain row operation
    /// touched calls [`Self::build_runs`] first.
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
        // No sorted index is scanned, so the order is not read.
        let _ = order;
        let (jt, to) = (self.table(junction), self.table(target));
        let jrows = jt.rows_where_eq(source_col, key);
        let targets = jrows.iter().filter_map(|&j| jt.parent_of(target_col, j, to));
        let li = |t| (Some(t) != exclude).then(|| li(t));
        heap_top_l(targets, l, largest_l, li, scratch, cost, out);
        cost.record_join(jrows.len());
    }
}

/// The bounded top-l selection every probe falls back to, and the whole
/// junction probe: at most `l` of `candidates` with `li > largest_l`,
/// best first under `(li desc, RowId asc)`, appended to `out` — `O(g log
/// l)` over a group of `g` rows instead of sorting it; `li` maps a row to
/// its local importance (`None`: never returned). One join access
/// reporting the rows returned, and one heap probe, added to `cost`.
fn heap_top_l(
    candidates: impl Iterator<Item = RowId>,
    l: usize,
    largest_l: f64,
    li: impl Fn(RowId) -> Option<f64>,
    scratch: &mut TopLScratch<RowId>,
    cost: &mut ProbeCost,
    out: &mut Vec<RowId>,
) {
    let start = out.len();
    cost.probes.heap += 1;
    scratch.select_into(
        candidates.filter_map(|row| {
            let s = li(row)?;
            (s > largest_l).then_some((s, row))
        }),
        l,
        out,
    );
    cost.record_join(out.len() - start);
}
