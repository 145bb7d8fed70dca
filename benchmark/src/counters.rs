//! One flat snapshot of every counter the program exports, read at the
//! edges of a phase; ratios and per-op figures are computed from the
//! difference, so they are measured where the work happens.

use std::sync::atomic::AtomicU64;

use sizel_net::NetCounters;

use crate::stack::Stack;

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {
        /// Monotonic counters summed over both shards (and the one
        /// front-end). A stack without a front-end or a disk tier
        /// reads zeros there.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Counters { $($(#[$doc])* pub $name: u64),* }

        impl Counters {
            /// Field-wise `self - earlier`.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters { $($name: self.$name - earlier.$name),* }
            }
        }
    };
}

counters! {
    /// `NetCounters::frames_in`.
    frames_in,
    /// `shed_inflight + shed_queue + shed_outbox`.
    shed,
    /// Requests answered inline on the I/O thread.
    fastpath_hits,
    /// Fast-path-eligible requests that took the dispatch queue.
    fastpath_fallbacks,
    /// Frame buffers allocated because the pool was empty.
    buf_pool_misses,
    /// Reactor wake-ups, useful and spurious.
    reactor_wakeups,
    /// Physical doorbell writes.
    doorbell_rings,
    /// Summary-cache lookups that hit.
    cache_hits,
    /// Authoritative summary-cache lookups that missed.
    cache_misses,
    /// Summary-cache entries displaced at capacity.
    cache_evictions,
    /// Summary-cache entries dropped by a write's epoch bump.
    cache_invalidations,
    /// Summaries computed (misses that did real work).
    summaries_computed,
    /// Mutations applied, summed over shards.
    mutations_applied,
    /// Summary keys the refresh worker recomputed after writes.
    rewarmed_keys,
    /// `AccessStats::joins`: the paper's join probes.
    joins,
    /// `AccessStats::tuples`: tuples those probes returned.
    tuples,
    /// TOP-l probes served as sorted prefix scans.
    fast_probes,
    /// TOP-l probes served by the heap fallback.
    heap_probes,
    /// Full data-graph rebuilds.
    graph_builds,
    /// Per-table posting re-sorts.
    posting_resorts,
    /// Block-cache lookups served from a resident page.
    block_hits,
    /// Block-cache lookups that read (and checksummed) a page.
    block_misses,
    /// Pages dropped from the block cache.
    block_evictions,
    /// Bytes in the write-ahead logs.
    wal_bytes,
    /// Batches appended to the write-ahead logs.
    wal_appends,
    /// Appends that fsynced.
    wal_syncs,
}

fn get(c: &AtomicU64) -> u64 {
    NetCounters::get(c)
}

impl Counters {
    /// Reads every counter of `stack` now.
    pub fn read(stack: &Stack) -> Counters {
        let mut c = Counters::default();
        if let Some(server) = &stack.server {
            let n = server.counters();
            c.frames_in = get(&n.frames_in);
            c.shed = get(&n.shed_inflight) + get(&n.shed_queue) + get(&n.shed_outbox);
            c.fastpath_hits = get(&n.fastpath_hits);
            c.fastpath_fallbacks = get(&n.fastpath_fallbacks);
            c.buf_pool_misses = get(&n.buf_pool_misses);
            c.reactor_wakeups = get(&n.reactor_wakeups) + get(&n.reactor_spurious);
            c.doorbell_rings = get(&n.doorbell_rings);
        }
        let stats = stack.router.stats();
        c.rewarmed_keys = stats.refresh.rewarmed_keys;
        for s in &stats.per_shard {
            c.cache_hits += s.cache.hits;
            c.cache_misses += s.cache.misses;
            c.cache_evictions += s.cache.evictions;
            c.cache_invalidations += s.cache.invalidations;
            c.summaries_computed += s.summaries_computed;
            c.mutations_applied += s.mutations_applied;
            if let Some(d) = s.disk {
                c.block_hits += d.store.cache.hits;
                c.block_misses += d.store.cache.misses;
                c.block_evictions += d.store.cache.evictions;
                c.wal_bytes += d.wal_bytes;
                c.wal_appends += d.wal_appends;
                c.wal_syncs += d.wal_syncs;
            }
        }
        for i in 0..stack.router.shards() {
            let engine = stack.router.shard(i).engine();
            let access = engine.db().access();
            let (cost, probes, maint) = (access.snapshot(), access.probes(), access.maint());
            c.joins += cost.joins;
            c.tuples += cost.tuples;
            c.fast_probes += probes.fast;
            c.heap_probes += probes.heap;
            c.graph_builds += maint.graph_builds;
            c.posting_resorts += maint.posting_resorts;
        }
        c
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
