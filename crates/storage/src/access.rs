//! Join/tuple access instrumentation.
//!
//! The paper's cost discussion (Sections 5.3 and 6.3) counts *I/O accesses*:
//! one per `Ri(tj)` join probe, "even when it returns no results". The
//! counters are atomics so read-only query paths (`&Database`) can record
//! accesses and fixtures can be shared across test threads.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counts join probes and tuples materialized by the query layer.
///
/// Besides the paper's cost unit, the counter tracks the *probe mix* of
/// the TOP-l paths — how many probes ran as importance-sorted prefix
/// scans versus the bounded-heap fallback. The mix is deliberately **not**
/// part of [`AccessStats`]: the two paths are byte-identical in results
/// and in paper-cost accounting (property-tested by comparing
/// `AccessStats` deltas), so the mix is reported separately
/// ([`AccessCounter::probes`]) for benchmarks tracking fast-path
/// retention under update churn.
#[derive(Debug, Default)]
pub struct AccessCounter {
    joins: AtomicU64,
    tuples: AtomicU64,
    fast_probes: AtomicU64,
    heap_probes: AtomicU64,
    graph_builds: AtomicU64,
    posting_resorts: AtomicU64,
    link_rebuilds: AtomicU64,
    binary_inserts: AtomicU64,
    compactions: AtomicU64,
}

/// A snapshot of the TOP-l probe mix.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// TOP-l probes served as sorted-posting prefix scans.
    pub fast: u64,
    /// TOP-l probes served by the bounded-heap fallback.
    pub heap: u64,
}

impl ProbeStats {
    /// Fraction of TOP-l probes that took the prefix-scan fast path
    /// (0 when no probe ran).
    pub fn fast_ratio(self) -> f64 {
        let total = self.fast + self.heap;
        if total == 0 {
            0.0
        } else {
            self.fast as f64 / total as f64
        }
    }
}

/// A snapshot of the *derived-structure maintenance* work performed by
/// the update paths. Like [`ProbeStats`], deliberately not part of
/// [`AccessStats`] (it is engine-maintenance cost, not the paper's query
/// I/O unit). The batched-apply subsystem asserts its amortization claims
/// against these counters: a `B`-mutation batch performs exactly **one**
/// data-graph rebuild and at most **one** posting re-sort per affected
/// table, where folding single applies pays `B` rebuilds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintStats {
    /// Full data-graph rebuilds (recorded by the graph layer's `build`;
    /// the `O(|E|)` linear step of an incremental apply).
    pub graph_builds: u64,
    /// Settlement passes re-sorting the FK runs a batch's staged rows
    /// were appended to or re-scored in (one per table per batch).
    pub posting_resorts: u64,
    /// Junction link-posting rebuild passes (installs, churn rebuilds,
    /// and dangling-reference heals).
    pub link_rebuilds: u64,
    /// Junction rows whose link pairs were binary-inserted (the
    /// incremental maintenance path below the churn threshold).
    pub binary_inserts: u64,
    /// Link tombstone-compaction passes: wholesale link rebuilds
    /// triggered by the dead-pair debt crossing the compaction
    /// threshold (junction-row deletes only; at most one per table per
    /// settled batch).
    pub compactions: u64,
}

impl MaintStats {
    /// Component-wise difference (`self` must be the later snapshot).
    pub fn since(self, earlier: MaintStats) -> MaintStats {
        MaintStats {
            graph_builds: self.graph_builds - earlier.graph_builds,
            posting_resorts: self.posting_resorts - earlier.posting_resorts,
            link_rebuilds: self.link_rebuilds - earlier.link_rebuilds,
            binary_inserts: self.binary_inserts - earlier.binary_inserts,
            compactions: self.compactions - earlier.compactions,
        }
    }
}

/// An immutable snapshot of the counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Number of `Ri(tj)` join probes issued.
    pub joins: u64,
    /// Number of tuples returned by those probes.
    pub tuples: u64,
}

impl AccessStats {
    /// Component-wise difference (`self` must be the later snapshot).
    pub fn since(self, earlier: AccessStats) -> AccessStats {
        AccessStats { joins: self.joins - earlier.joins, tuples: self.tuples - earlier.tuples }
    }
}

impl AccessCounter {
    /// Records one join probe returning `tuples` rows.
    pub fn record_join(&self, tuples: usize) {
        self.joins.fetch_add(1, Ordering::Relaxed);
        self.tuples.fetch_add(tuples as u64, Ordering::Relaxed);
    }

    /// Records one TOP-l probe served as a prefix scan.
    pub fn record_fast_probe(&self) {
        self.fast_probes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one TOP-l probe served by the heap fallback.
    pub fn record_heap_probe(&self) {
        self.heap_probes.fetch_add(1, Ordering::Relaxed);
    }

    /// Current probe-mix values.
    pub fn probes(&self) -> ProbeStats {
        ProbeStats {
            fast: self.fast_probes.load(Ordering::Relaxed),
            heap: self.heap_probes.load(Ordering::Relaxed),
        }
    }

    /// Records one full data-graph rebuild.
    pub fn record_graph_build(&self) {
        self.graph_builds.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one settlement pass re-sorting a table's staged FK runs.
    pub fn record_posting_resort(&self) {
        self.posting_resorts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one junction link-posting rebuild pass.
    pub fn record_link_rebuild(&self) {
        self.link_rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one junction row whose link pairs were binary-inserted.
    pub fn record_binary_insert(&self) {
        self.binary_inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one link tombstone-compaction pass.
    pub fn record_compaction(&self) {
        self.compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// Current maintenance-work values.
    pub fn maint(&self) -> MaintStats {
        MaintStats {
            graph_builds: self.graph_builds.load(Ordering::Relaxed),
            posting_resorts: self.posting_resorts.load(Ordering::Relaxed),
            link_rebuilds: self.link_rebuilds.load(Ordering::Relaxed),
            binary_inserts: self.binary_inserts.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
        }
    }

    /// Current counter values.
    pub fn snapshot(&self) -> AccessStats {
        AccessStats {
            joins: self.joins.load(Ordering::Relaxed),
            tuples: self.tuples.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.joins.store(0, Ordering::Relaxed);
        self.tuples.store(0, Ordering::Relaxed);
        self.fast_probes.store(0, Ordering::Relaxed);
        self.heap_probes.store(0, Ordering::Relaxed);
        self.graph_builds.store(0, Ordering::Relaxed);
        self.posting_resorts.store(0, Ordering::Relaxed);
        self.link_rebuilds.store(0, Ordering::Relaxed);
        self.binary_inserts.store(0, Ordering::Relaxed);
        self.compactions.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots() {
        let c = AccessCounter::default();
        c.record_join(5);
        c.record_join(0); // empty result still counts as one access
        let s = c.snapshot();
        assert_eq!(s, AccessStats { joins: 2, tuples: 5 });
    }

    #[test]
    fn since_computes_delta() {
        let c = AccessCounter::default();
        c.record_join(3);
        let before = c.snapshot();
        c.record_join(4);
        c.record_join(1);
        let delta = c.snapshot().since(before);
        assert_eq!(delta, AccessStats { joins: 2, tuples: 5 });
    }

    #[test]
    fn reset_zeroes() {
        let c = AccessCounter::default();
        c.record_join(3);
        c.reset();
        assert_eq!(c.snapshot(), AccessStats::default());
    }

    #[test]
    fn counter_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<AccessCounter>();
    }

    #[test]
    fn maint_counters_record_and_diff() {
        let c = AccessCounter::default();
        c.record_graph_build();
        let before = c.maint();
        c.record_graph_build();
        c.record_posting_resort();
        c.record_link_rebuild();
        c.record_binary_insert();
        c.record_binary_insert();
        c.record_compaction();
        let delta = c.maint().since(before);
        assert_eq!(
            delta,
            MaintStats {
                graph_builds: 1,
                posting_resorts: 1,
                link_rebuilds: 1,
                binary_inserts: 2,
                compactions: 1
            }
        );
        // Maintenance work is not the paper's I/O cost unit.
        assert_eq!(c.snapshot(), AccessStats::default());
        c.reset();
        assert_eq!(c.maint(), MaintStats::default());
    }
}
