//! The block cache: a pooled LRU of verified segment pages.
//!
//! Pages are held as `Arc<PageBuf>` so a cursor mid-scan keeps its page
//! alive across an eviction; the eviction merely drops the cache's
//! reference. Evicted buffers land on a free list and are **recycled**
//! when their last outside reference drops — the same
//! allocate-once-reuse-forever discipline as the serving layer's arena
//! pool, so a steady-state scan workload performs no page allocations.
//!
//! Keys carry the segment generation, so a checkpoint that installs a
//! new generation never serves a stale page: old-generation entries age
//! out through normal LRU pressure.
//!
//! All counters are monotonic atomics exported through
//! [`crate::DiskStats`]: hits, misses, evictions, recycled buffers, and
//! read errors (pages that failed verification — which are *never*
//! cached — or that a reader found not to be the page its directory
//! entry promised; either way never served).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::Result;
use crate::page::{PageBuf, PAGE_SIZE};

const NIL: usize = usize::MAX;

/// Monotonic block-cache counters (lock-free reads).
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    recycled: AtomicU64,
    read_errors: AtomicU64,
}

/// One snapshot of the block-cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Lookups served from a resident page.
    pub hits: u64,
    /// Lookups that had to read the page from disk.
    pub misses: u64,
    /// Pages dropped to make room.
    pub evictions: u64,
    /// Page buffers reused from the free pool instead of allocated.
    pub recycled: u64,
    /// Page reads that failed verification or did not match the
    /// reader's directory entry (served to nobody).
    pub read_errors: u64,
}

struct Slot {
    key: (u64, u64),
    buf: Option<Arc<PageBuf>>,
    prev: usize,
    next: usize,
}

struct Inner {
    map: HashMap<(u64, u64), usize>,
    slots: Vec<Slot>,
    free_slots: Vec<usize>,
    free_bufs: Vec<Arc<PageBuf>>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl Inner {
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

    fn link_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        match self.head {
            NIL => self.tail = slot,
            h => self.slots[h].prev = slot,
        }
        self.head = slot;
    }

    fn touch(&mut self, slot: usize) {
        if slot != self.head {
            self.unlink(slot);
            self.link_front(slot);
        }
    }
}

/// A shared LRU cache of verified segment pages.
#[derive(Debug)]
pub struct BlockCache {
    inner: Mutex<Inner>,
    counters: CacheCounters,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Inner({} resident / {} capacity)", self.map.len(), self.capacity)
    }
}

impl BlockCache {
    /// A cache holding at most `capacity` pages (minimum 1).
    pub fn new(capacity: usize) -> BlockCache {
        let capacity = capacity.max(1);
        BlockCache {
            inner: Mutex::new(Inner {
                map: HashMap::with_capacity(capacity),
                slots: Vec::with_capacity(capacity),
                free_slots: Vec::new(),
                free_bufs: Vec::new(),
                head: NIL,
                tail: NIL,
                capacity,
            }),
            counters: CacheCounters::default(),
        }
    }

    /// The page under `key`, loading (and verifying) it through `load` on
    /// a miss. A failed load is counted and propagated — nothing is
    /// cached, so a later retry re-reads the disk.
    pub fn get_or_load(
        &self,
        key: (u64, u64),
        load: impl FnOnce(&mut [u8; PAGE_SIZE]) -> Result<()>,
    ) -> Result<Arc<PageBuf>> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(&slot) = inner.map.get(&key) {
            inner.touch(slot);
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(
                inner.slots[slot].buf.as_ref().expect("resident slot has a page"),
            ));
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);

        // Make room first so the free buffer can be recycled immediately.
        if inner.map.len() >= inner.capacity {
            let victim = inner.tail;
            inner.unlink(victim);
            let k = inner.slots[victim].key;
            inner.map.remove(&k);
            if let Some(buf) = inner.slots[victim].buf.take() {
                inner.free_bufs.push(buf);
            }
            inner.free_slots.push(victim);
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }

        // A pooled buffer is reusable once every cursor holding it let
        // go; still-shared buffers stay parked for a later pass.
        let mut buf = None;
        let mut parked = Vec::new();
        while let Some(candidate) = inner.free_bufs.pop() {
            match Arc::strong_count(&candidate) {
                1 => {
                    buf = Some(candidate);
                    break;
                }
                _ => parked.push(candidate),
            }
        }
        inner.free_bufs.append(&mut parked);
        let mut buf = match buf {
            Some(b) => {
                self.counters.recycled.fetch_add(1, Ordering::Relaxed);
                b
            }
            None => Arc::new(PageBuf::zeroed()),
        };

        {
            let page = &mut Arc::get_mut(&mut buf).expect("pooled buffer is unshared").0;
            if let Err(e) = load(page) {
                self.counters.read_errors.fetch_add(1, Ordering::Relaxed);
                inner.free_bufs.push(buf);
                return Err(e);
            }
        }

        let slot = match inner.free_slots.pop() {
            Some(s) => {
                inner.slots[s].key = key;
                inner.slots[s].buf = Some(Arc::clone(&buf));
                s
            }
            None => {
                inner.slots.push(Slot { key, buf: Some(Arc::clone(&buf)), prev: NIL, next: NIL });
                inner.slots.len() - 1
            }
        };
        inner.map.insert(key, slot);
        inner.link_front(slot);
        Ok(buf)
    }

    /// Counts a page that was read soundly but is not the page its
    /// reader's directory entry promised: a read that served nobody.
    pub fn count_read_error(&self) {
        self.counters.read_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A counter snapshot.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            recycled: self.counters.recycled.load(Ordering::Relaxed),
            read_errors: self.counters.read_errors.load(Ordering::Relaxed),
        }
    }

    /// Resident pages right now.
    pub fn resident(&self) -> usize {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(v: u8) -> impl FnOnce(&mut [u8; PAGE_SIZE]) -> Result<()> {
        move |page| {
            page.fill(v);
            Ok(())
        }
    }

    #[test]
    fn hits_misses_and_lru_eviction() {
        let cache = BlockCache::new(2);
        let a = cache.get_or_load((0, 1), fill(1)).unwrap();
        assert_eq!(a.0[0], 1);
        drop(a);
        let _ = cache.get_or_load((0, 2), fill(2)).unwrap();
        // Hit on 1 makes 2 the LRU victim when 3 arrives.
        let _ = cache.get_or_load((0, 1), fill(9)).unwrap();
        let _ = cache.get_or_load((0, 3), fill(3)).unwrap();
        let again = cache.get_or_load((0, 2), fill(2)).unwrap();
        assert_eq!(again.0[0], 2, "2 was evicted and reloaded");
        let s = cache.snapshot();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 4, 2));
        assert_eq!(cache.resident(), 2);
    }

    #[test]
    fn evicted_buffers_are_recycled_once_released() {
        let cache = BlockCache::new(1);
        let held = cache.get_or_load((0, 1), fill(1)).unwrap();
        // Evicting while `held` is alive must not recycle its buffer.
        let _ = cache.get_or_load((0, 2), fill(2)).unwrap();
        assert_eq!(held.0[0], 1, "a held page survives its eviction intact");
        let s = cache.snapshot();
        assert_eq!(s.recycled, 0, "a shared buffer is not reused");
        drop(held);
        // Now the freed buffer is reusable.
        let _ = cache.get_or_load((0, 3), fill(3)).unwrap();
        assert_eq!(cache.snapshot().recycled, 1);
    }

    #[test]
    fn failed_loads_propagate_and_cache_nothing() {
        let cache = BlockCache::new(2);
        let r = cache.get_or_load((0, 1), |_| Err(crate::error::DiskError::Corrupt("test")));
        assert!(r.is_err());
        assert_eq!(cache.resident(), 0);
        assert_eq!(cache.snapshot().read_errors, 1);
        // The key is retried, not poisoned.
        assert!(cache.get_or_load((0, 1), fill(1)).is_ok());
    }
}
