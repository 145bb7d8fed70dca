//! A sharded LRU cache for memoized query results.
//!
//! Lock contention, not capacity, is the scaling hazard of a single shared
//! cache under many caller threads: every hit mutates recency state, so even
//! reads need exclusive access. The cache is therefore split into shards,
//! each its own `Mutex`-guarded LRU, with keys assigned by hash — threads
//! touching different keys almost never contend. Each shard is a classic
//! O(1) LRU: a slab of entries threaded onto an intrusive doubly-linked
//! recency list, plus a `HashMap` from key to slab slot.
//!
//! Hit / miss / eviction / insertion counters are shared across shards and
//! atomically updated so the server can report one aggregate view.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Aggregate counters, shared by every shard of one cache.
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    probe_misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    insertions: AtomicU64,
    poison_resets: AtomicU64,
}

/// A point-in-time view of a cache's counters and occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Failed [`ShardedCache::probe`] lookups — the network layer's
    /// probe-then-recompute fast path counts its failed probe here
    /// instead of under [`CacheStats::misses`], because the very same
    /// request then misses again on the authoritative computing path.
    /// Folding both into `misses` double-counted every fast-path miss
    /// and skewed the hit ratio down under inline traffic.
    pub probe_misses: u64,
    /// Entries displaced to make room at capacity — *capacity pressure*
    /// only. Entries purged by [`ShardedCache::retain`] (epoch
    /// invalidation) count as [`CacheStats::invalidations`] instead:
    /// conflating the two made eviction counters look like thrashing
    /// after every write, which is exactly the signal a capacity-sizing
    /// decision must not be polluted by.
    pub evictions: u64,
    /// Entries dropped by [`ShardedCache::retain`] (write-through epoch
    /// invalidation) plus entries lost to a poison reset.
    pub invalidations: u64,
    /// Entries written (first writes and overwrites alike).
    pub insertions: u64,
    /// Shards reset after a panic poisoned their lock (see
    /// [`ShardedCache::get`]'s recovery path); each reset drops that
    /// shard's entries, counted under `invalidations`.
    pub poison_resets: u64,
    /// Live entries across all shards.
    pub len: usize,
    /// Maximum live entries across all shards.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit ratio over all *authoritative* lookups (0 when none
    /// happened). Probe misses are excluded: their requests re-arrive
    /// through [`ShardedCache::get`], which records the authoritative
    /// outcome.
    pub fn hit_ratio(self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    /// `None` only while the slot sits on the free list — evicted and
    /// retained-away values are dropped *immediately* (the whole point of
    /// the write-through purge is to release superseded summaries), not
    /// parked until the slot is reused.
    value: Option<V>,
    prev: usize,
    next: usize,
}

/// One shard: an O(1) LRU over a slab + intrusive recency list.
#[derive(Debug)]
struct LruShard<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot — the eviction victim.
    tail: usize,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> LruShard<K, V> {
    fn new(capacity: usize) -> Self {
        LruShard {
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Drops every entry and restores the empty-shard invariants.
    /// Returns how many live entries were lost. This is the poison
    /// recovery path: a panic mid-operation can leave the recency list
    /// half-relinked, and a cache is the one structure where "throw the
    /// contents away" is always a correct repair.
    fn reset(&mut self) -> usize {
        let dropped = self.map.len();
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        dropped
    }

    /// Unlinks `slot` from the recency list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Links `slot` at the head (most recently used).
    fn link_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        match self.head {
            NIL => self.tail = slot,
            h => self.slots[h].prev = slot,
        }
        self.head = slot;
    }

    fn get(&mut self, key: &K) -> Option<V> {
        let slot = *self.map.get(key)?;
        if slot != self.head {
            self.unlink(slot);
            self.link_front(slot);
        }
        debug_assert!(self.slots[slot].value.is_some(), "mapped slots always hold a value");
        self.slots[slot].value.clone()
    }

    /// Inserts or overwrites; returns true when an eviction made room.
    fn insert(&mut self, key: K, value: V) -> bool {
        debug_assert!(self.capacity > 0, "zero-capacity shards reject inserts upstream");
        match self.map.entry(key.clone()) {
            MapEntry::Occupied(e) => {
                let slot = *e.get();
                self.slots[slot].value = Some(value);
                if slot != self.head {
                    self.unlink(slot);
                    self.link_front(slot);
                }
                false
            }
            MapEntry::Vacant(_) => {
                let evicted = if self.map.len() >= self.capacity {
                    let victim = self.tail;
                    self.unlink(victim);
                    self.map.remove(&self.slots[victim].key);
                    self.slots[victim].value = None; // drop now, not at reuse
                    self.free.push(victim);
                    true
                } else {
                    false
                };
                let slot = match self.free.pop() {
                    Some(s) => {
                        self.slots[s] =
                            Slot { key: key.clone(), value: Some(value), prev: NIL, next: NIL };
                        s
                    }
                    None => {
                        self.slots.push(Slot {
                            key: key.clone(),
                            value: Some(value),
                            prev: NIL,
                            next: NIL,
                        });
                        self.slots.len() - 1
                    }
                };
                self.map.insert(key, slot);
                self.link_front(slot);
                evicted
            }
        }
    }
}

/// The sharded cache. `capacity = 0` disables it: every lookup misses, no
/// entry is stored (used by benches to measure the uncached baseline).
#[derive(Debug)]
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<LruShard<K, V>>>,
    hasher: RandomState,
    counters: CacheCounters,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedCache<K, V> {
    /// A cache of `capacity` total entries spread over `shards` shards
    /// (shard count is clamped to at least 1 and at most `capacity`).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let n_shards = shards.clamp(1, capacity.max(1));
        // Ceiling split so shard capacities sum to >= capacity and every
        // shard holds at least one entry.
        let per_shard = if capacity == 0 { 0 } else { capacity.div_ceil(n_shards) };
        ShardedCache {
            shards: (0..n_shards).map(|_| Mutex::new(LruShard::new(per_shard))).collect(),
            hasher: RandomState::new(),
            counters: CacheCounters::default(),
            capacity: per_shard * n_shards,
        }
    }

    fn shard_of(&self, key: &K) -> &Mutex<LruShard<K, V>> {
        let h = self.hasher.hash_one(key);
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Locks one shard, recovering from a poisoned lock by resetting the
    /// shard instead of cascading the panic.
    ///
    /// A panic while a shard lock is held (a caller dying mid-`get`, a
    /// value whose `Clone`/`Drop` panics) used to poison the lock and
    /// turn every subsequent cache call into a panic — one bad request
    /// taking the whole serving stack down. The intrusive recency list
    /// *can* be torn mid-relink, so the state is not trustworthy: recovery drops the shard's entries (this is a cache;
    /// losing entries is always correct) and restores the empty-shard
    /// invariants. Lost entries count as invalidations, the reset itself
    /// under [`CacheStats::poison_resets`].
    fn lock_shard<'a>(&self, shard: &'a Mutex<LruShard<K, V>>) -> MutexGuard<'a, LruShard<K, V>> {
        match shard.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                shard.clear_poison();
                let mut guard = poisoned.into_inner();
                let dropped = guard.reset();
                self.counters.poison_resets.fetch_add(1, Ordering::Relaxed);
                self.counters.invalidations.fetch_add(dropped as u64, Ordering::Relaxed);
                guard
            }
        }
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        self.lookup(key, &self.counters.misses)
    }

    /// Probe-only lookup: identical to [`ShardedCache::get`] except a
    /// failure counts under [`CacheStats::probe_misses`], not
    /// [`CacheStats::misses`]. For opportunistic fast paths whose miss
    /// is immediately retried through the authoritative path (which
    /// records the real miss) — a hit is a hit either way, but counting
    /// the probe's failure as a second miss double-counted the request.
    pub fn probe(&self, key: &K) -> Option<V> {
        self.lookup(key, &self.counters.probe_misses)
    }

    /// Whether `key` is cached, moving no counter and no recency: for
    /// callers that are not readers (the refresh worker's re-warm).
    pub fn contains(&self, key: &K) -> bool {
        self.capacity > 0 && self.lock_shard(self.shard_of(key)).map.contains_key(key)
    }

    /// The lookup behind [`ShardedCache::get`] and
    /// [`ShardedCache::probe`], which differ only in the counter a miss
    /// lands in.
    fn lookup(&self, key: &K, miss_counter: &AtomicU64) -> Option<V> {
        let found =
            if self.capacity == 0 { None } else { self.lock_shard(self.shard_of(key)).get(key) };
        let counter = if found.is_some() { &self.counters.hits } else { miss_counter };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Stores `key -> value`, evicting the shard's least recently used
    /// entry at capacity. A no-op on a disabled (zero-capacity) cache.
    pub fn insert(&self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        let evicted = self.lock_shard(self.shard_of(&key)).insert(key, value);
        self.counters.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted {
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops every entry whose key fails the predicate — the write-through
    /// invalidation hook: after a mutation bumps the epoch, the server
    /// retains only current-epoch entries, so superseded summaries free
    /// their memory immediately instead of aging out of the LRU. Dropped
    /// entries count as **invalidations**, not evictions: they were
    /// purged because their epoch is dead, not because the cache ran out
    /// of room, and folding them into the eviction counter made every
    /// write look like capacity thrashing.
    pub fn retain(&self, keep: impl Fn(&K) -> bool) {
        for shard in &self.shards {
            let mut s = self.lock_shard(shard);
            let doomed: Vec<K> = s.map.keys().filter(|k| !keep(k)).cloned().collect();
            for key in doomed {
                let slot = s.map.remove(&key).expect("key listed from this shard");
                s.unlink(slot);
                s.slots[slot].value = None; // release the summary now
                s.free.push(slot);
                self.counters.invalidations.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Total capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.lock_shard(s).map.len()).sum()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A consistent-enough snapshot of the counters plus occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            probe_misses: self.counters.probe_misses.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            invalidations: self.counters.invalidations.load(Ordering::Relaxed),
            insertions: self.counters.insertions.load(Ordering::Relaxed),
            poison_resets: self.counters.poison_resets.load(Ordering::Relaxed),
            len: self.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_misses_count_separately_from_authoritative_misses() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(4, 1);
        assert_eq!(c.probe(&1), None, "cold probe");
        assert_eq!(c.get(&1), None, "the authoritative retry records the real miss");
        c.insert(1, 10);
        assert_eq!(c.probe(&1), Some(10), "a probe hit is a plain hit");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.probe_misses), (1, 1, 1));
        let ratio = s.hit_ratio();
        assert!((ratio - 0.5).abs() < 1e-12, "probe misses stay out of the ratio: {ratio}");

        // A disabled cache still tells the two apart.
        let off: ShardedCache<u32, u32> = ShardedCache::new(0, 1);
        off.probe(&1);
        off.get(&1);
        let s = off.stats();
        assert_eq!((s.misses, s.probe_misses), (1, 1));
    }

    #[test]
    fn hit_after_miss() {
        let c: ShardedCache<u32, String> = ShardedCache::new(8, 2);
        assert_eq!(c.get(&1), None);
        c.insert(1, "one".into());
        assert_eq!(c.get(&1).as_deref(), Some("one"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn evicts_least_recently_used_in_order() {
        // Single shard so the recency order is fully observable.
        let c: ShardedCache<u32, u32> = ShardedCache::new(3, 1);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(c.get(&1), Some(10));
        c.insert(4, 40);
        assert_eq!(c.get(&2), None, "LRU entry evicted");
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
        assert_eq!(c.get(&4), Some(40));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn overwrite_refreshes_without_eviction() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(2, 1);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // overwrite, no eviction
        assert_eq!(c.stats().evictions, 0);
        c.insert(3, 30); // 2 is now the LRU
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(11));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(0, 4);
        c.insert(1, 10);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.len(), 0);
        assert_eq!(c.capacity(), 0);
        assert_eq!(c.stats().insertions, 0);
    }

    #[test]
    fn capacity_bound_holds_under_churn() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(16, 4);
        for i in 0..1000u64 {
            c.insert(i, i);
            let _ = c.get(&(i / 2));
        }
        assert!(c.len() <= c.capacity(), "{} > {}", c.len(), c.capacity());
        let s = c.stats();
        assert_eq!(s.insertions, 1000);
        assert!(s.evictions >= 1000 - s.capacity as u64);
    }

    #[test]
    fn retain_drops_only_failing_keys() {
        // Capacity 64 over 4 shards = 16 per shard: 10 keys cannot
        // overflow any shard whatever the (randomized) key hashing does,
        // so the only purges observable below come from `retain`.
        let c: ShardedCache<u32, u32> = ShardedCache::new(64, 4);
        for i in 0..10u32 {
            c.insert(i, i * 10);
        }
        c.retain(|&k| k % 2 == 0);
        for i in 0..10u32 {
            let want = (i % 2 == 0).then_some(i * 10);
            assert_eq!(c.get(&i), want, "key {i}");
        }
        assert_eq!(c.len(), 5);
        let s = c.stats();
        assert_eq!(s.invalidations, 5, "retain purges are invalidations");
        assert_eq!(s.evictions, 0, "an epoch purge is not capacity pressure");
        // The freed slots are reusable and the LRU stays coherent.
        for i in 10..30u32 {
            c.insert(i, i);
        }
        assert!(c.len() <= c.capacity());
    }

    #[test]
    fn retain_purges_never_masquerade_as_evictions_under_capacity_churn() {
        // Mixed regime: real capacity evictions AND a retain purge. The
        // two counters must stay independent — a monitoring/cache-sizing
        // decision reads `evictions` as "make it bigger" and
        // `invalidations` as "writes happened", and the old conflated
        // counter pointed the wrong way after every mutation.
        let c: ShardedCache<u32, u32> = ShardedCache::new(4, 1);
        for i in 0..8u32 {
            c.insert(i, i);
        }
        let evicted_by_capacity = c.stats().evictions;
        assert_eq!(evicted_by_capacity, 4, "8 inserts into 4 slots evict 4");
        assert_eq!(c.stats().invalidations, 0);
        c.retain(|_| false); // epoch purge: everything is stale
        let s = c.stats();
        assert_eq!(s.evictions, evicted_by_capacity, "the purge left evictions untouched");
        assert_eq!(s.invalidations, 4, "the 4 live entries were invalidated");
        assert_eq!(c.len(), 0);
    }

    /// A value whose clone panics on demand: the realistic poison vector
    /// for the cache, whose shard lock is held across `V::clone` in
    /// `get` and across value drops in `insert`/`retain`.
    #[derive(Debug)]
    struct Grenade(std::sync::Arc<std::sync::atomic::AtomicBool>);

    impl Clone for Grenade {
        fn clone(&self) -> Self {
            if self.0.load(Ordering::Relaxed) {
                panic!("deliberate clone panic while the shard lock is held");
            }
            Grenade(std::sync::Arc::clone(&self.0))
        }
    }

    #[test]
    fn poisoned_shard_resets_instead_of_cascading() {
        let armed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let c: std::sync::Arc<ShardedCache<u32, Grenade>> =
            std::sync::Arc::new(ShardedCache::new(8, 1));
        c.insert(1, Grenade(std::sync::Arc::clone(&armed)));
        c.insert(2, Grenade(std::sync::Arc::clone(&armed)));
        // One bad request: a get whose value clone panics mid-lock.
        armed.store(true, Ordering::Relaxed);
        let c2 = std::sync::Arc::clone(&c);
        let crash = std::thread::spawn(move || c2.get(&1));
        assert!(crash.join().is_err(), "the bad request itself still panics");
        armed.store(false, Ordering::Relaxed);
        // Every other client keeps working: the shard reset, its entries
        // were invalidated, and fresh traffic flows through it.
        assert_eq!(c.get(&2).map(|_| ()), None, "reset dropped the shard's entries");
        c.insert(3, Grenade(std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false))));
        assert!(c.get(&3).is_some(), "the shard serves again after recovery");
        let s = c.stats();
        assert_eq!(s.poison_resets, 1);
        assert!(s.invalidations >= 2, "the lost entries are accounted, got {}", s.invalidations);
        c.retain(|_| true); // the repaired recency list survives a sweep
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn hit_ratio_math() {
        let s = CacheStats { hits: 3, misses: 1, ..CacheStats::default() };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let c = std::sync::Arc::new(ShardedCache::<u64, u64>::new(64, 8));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = std::sync::Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    let k = (t * 131 + i) % 100;
                    if let Some(v) = c.get(&k) {
                        assert_eq!(v, k, "a key must only ever map to its own value");
                    } else {
                        c.insert(k, k);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.len() <= c.capacity());
    }
}
