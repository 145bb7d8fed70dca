//! Hot-key tracking: a small space-saving frequency sketch over summary
//! lookups.
//!
//! The continual-refresh worker (the `sizel-cluster` crate) wants "the
//! keys readers actually hit", not "the keys currently cached" — a cache
//! entry dies with every epoch bump (its epoch-prefixed key becomes
//! unreachable), while *hotness* survives mutations: the same
//! `(t_DS, l, algo, prelim, source)` tuple will be asked again at the new
//! epoch, and that is exactly the recompute the refresh worker wants to
//! pay **before** a reader does. The sketch therefore tracks the
//! epoch-less key.
//!
//! The structure is the classic space-saving top-k sketch (Metwally et
//! al.): a fixed budget of `capacity` counters; a tracked key increments
//! its counter, an untracked key evicts the current minimum and inherits
//! `min + 1` (an upper bound on the evicted history, which is what makes
//! the sketch's top-k a superset guarantee for sufficiently skewed
//! streams). A serving workload's hot head is heavily skewed by
//! construction — famous-subject queries — which is the regime the sketch
//! is designed for. All methods take `&self` behind one small mutex —
//! and, because the sketch rides on **every** summary lookup (the
//! warm-cache fast path included), [`HotSketch::record`] only
//! `try_lock`s: under contention the sample is dropped instead of
//! serializing every reader on one lock. A frequency sketch is
//! approximate by nature, and uniformly-dropped samples preserve the
//! relative ordering the refresh worker consumes.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Mutex, MutexGuard};

/// A concurrency-safe space-saving top-k frequency sketch.
///
/// `capacity` bounds the tracked key set; 0 disables the sketch entirely
/// (every `record` is a no-op and `hottest` is empty).
#[derive(Debug)]
pub struct HotSketch<K> {
    inner: Mutex<SpaceSaving<K>>,
    capacity: usize,
}

#[derive(Debug)]
struct SpaceSaving<K> {
    counts: HashMap<K, u64>,
}

impl<K: Hash + Eq + Clone> HotSketch<K> {
    /// A sketch tracking at most `capacity` keys.
    pub fn new(capacity: usize) -> Self {
        HotSketch {
            inner: Mutex::new(SpaceSaving { counts: HashMap::with_capacity(capacity) }),
            capacity,
        }
    }

    /// Locks the sketch, recovering from a poisoned lock by clearing the
    /// counts. A panic while the sketch lock is held (a key clone dying
    /// mid-`record`) used to poison it — and the next `hottest` call
    /// would then panic *inside the refresh worker*, killing the
    /// background thread and (via its drop-time join) the router. The
    /// sketch is an approximation by design, so "forget everything and
    /// re-learn from live traffic" is always a correct repair.
    fn lock_counts(&self) -> MutexGuard<'_, SpaceSaving<K>> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.inner.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.counts.clear();
                guard
            }
        }
    }

    /// Records one occurrence of `key`. Lossy under lock contention (see
    /// module docs): the serving fast path must never queue on the
    /// sketch.
    pub fn record(&self, key: K) {
        if self.capacity == 0 {
            return;
        }
        // `try_lock` keeps the fast path non-blocking; a poisoned lock is
        // indistinguishable from a contended one here (the sample is
        // dropped either way) — the slow paths below repair the poison.
        let Ok(mut s) = self.inner.try_lock() else { return };
        if let Some(c) = s.counts.get_mut(&key) {
            *c += 1;
            return;
        }
        if s.counts.len() < self.capacity {
            s.counts.insert(key, 1);
            return;
        }
        // Space-saving eviction: the new key replaces the current minimum
        // and inherits its count as an over-estimate.
        let (victim, min) = s
            .counts
            .iter()
            .min_by_key(|&(_, &c)| c)
            .map(|(k, &c)| (k.clone(), c))
            .expect("capacity > 0 implies a non-empty full sketch");
        s.counts.remove(&victim);
        s.counts.insert(key, min + 1);
    }

    /// The up-to-`n` hottest keys, most-counted first (ties in
    /// unspecified order).
    ///
    /// Every ranking read also **ages** the sketch (all counts halve):
    /// with monotone counts, a formerly-hot key would outrank the keys
    /// readers currently hit forever and the refresh budget would chase
    /// dead traffic after a workload shift. Halving preserves the current
    /// ranking (monotone) while still-hot keys re-earn their counts
    /// before the next read and stale ones decay toward eviction — tying
    /// the decay rate to the consumer's own cadence (the refresh worker
    /// reads once per epoch bump).
    pub fn hottest(&self, n: usize) -> Vec<K> {
        let mut s = self.lock_counts();
        let mut entries: Vec<(K, u64)> = s.counts.iter().map(|(k, &c)| (k.clone(), c)).collect();
        entries.sort_unstable_by_key(|e| std::cmp::Reverse(e.1));
        entries.truncate(n);
        for c in s.counts.values_mut() {
            *c /= 2;
        }
        entries.into_iter().map(|(k, _)| k).collect()
    }

    /// The smallest ranked head of the sketch covering at least
    /// `fraction` of its total counted mass — a pure read (unlike
    /// [`HotSketch::hottest`], it does not age the counts).
    ///
    /// This is how the refresh worker derives its re-warm budget from the
    /// *observed* skew instead of a fixed constant: a zipf-shaped
    /// workload concentrates its mass in a short head (the famous-subject
    /// regime the sketch is built for), so the budget tracks the size of
    /// the actual hot set — a handful of keys under heavy skew, most of
    /// the sketch under a flat workload — rather than over- or
    /// under-warming by a constant.
    ///
    /// Edge cases are clamped to a sane floor rather than returning a
    /// degenerate budget of 0: a sketch that *tracks keys* always
    /// returns at least 1, even when every count has been aged to zero
    /// by [`HotSketch::hottest`]'s halving (counts of 1 halve to 0, so a
    /// lightly-hit sketch reaches all-zero within one refresh pass — the
    /// exact state that used to zero the rewarm budget and stall the
    /// continual refresh until new traffic arrived). Only a sketch with
    /// **nothing tracked** returns 0: there is genuinely nothing to
    /// re-warm.
    pub fn mass_cover(&self, fraction: f64) -> usize {
        let s = self.lock_counts();
        if s.counts.is_empty() {
            return 0;
        }
        let total: u64 = s.counts.values().sum();
        if total == 0 {
            // All counts aged to zero: no mass to rank by, but the keys
            // are still the most recent hot set — floor at one re-warm.
            return 1;
        }
        let mut counts: Vec<u64> = s.counts.values().copied().collect();
        counts.sort_unstable_by_key(|&c| std::cmp::Reverse(c));
        let target = (fraction.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut acc = 0u64;
        for (i, c) in counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return i + 1;
            }
        }
        counts.len()
    }

    /// Drops a key from the sketch. Hot keys deliberately survive epoch
    /// bumps, but a key whose subject row was *deleted* can never be
    /// served again at any epoch — the refresh worker forgets it instead
    /// of re-warming a dead summary forever.
    pub fn forget(&self, key: &K) {
        self.lock_counts().counts.remove(key);
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.lock_counts().counts.len()
    }

    /// True when nothing has been recorded (or the sketch is disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tracking budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_and_ranks_by_frequency() {
        let s: HotSketch<u32> = HotSketch::new(8);
        for _ in 0..5 {
            s.record(1);
        }
        for _ in 0..3 {
            s.record(2);
        }
        s.record(3);
        assert_eq!(s.hottest(2), vec![1, 2]);
        assert_eq!(s.hottest(10), vec![1, 2, 3]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn eviction_keeps_the_heavy_hitters() {
        let s: HotSketch<u32> = HotSketch::new(2);
        for _ in 0..50 {
            s.record(1);
        }
        for _ in 0..30 {
            s.record(2);
        }
        // A burst of one-off keys churns the minimum slot (each eviction
        // inherits min + 1, so ten one-offs lift it from 30 to 40) but
        // can never displace the heavy head at 50.
        for k in 100..110 {
            s.record(k);
        }
        let hot = s.hottest(1);
        assert_eq!(hot, vec![1], "the heavy hitter survives the churn");
        assert_eq!(s.len(), 2, "the budget holds");
    }

    #[test]
    fn ranking_reads_age_the_sketch_so_shifted_workloads_take_over() {
        let s: HotSketch<u32> = HotSketch::new(8);
        for _ in 0..64 {
            s.record(1); // the old hot key
        }
        // The workload shifts: key 2 is what readers hit now. Each
        // ranking read halves the stale count while the live key keeps
        // re-earning, so it overtakes within a few refresh passes.
        let mut overtaken = false;
        for _ in 0..12 {
            for _ in 0..4 {
                s.record(2);
            }
            if s.hottest(1) == vec![2] {
                overtaken = true;
                break;
            }
        }
        assert!(overtaken, "a shifted workload must displace the stale head");
    }

    #[test]
    fn mass_cover_tracks_zipf_skew_without_aging() {
        // A zipf(2)-shaped stream over 32 keys: key k recorded
        // max(⌊256/k²⌋, 1) times (the floor keeps every key tracked). The
        // head is heavily concentrated, so covering 90% of the mass needs
        // far fewer keys than the sketch tracks — and a flat stream needs
        // nearly all of them.
        let s: HotSketch<u32> = HotSketch::new(64);
        for k in 1..=32u32 {
            for _ in 0..(256 / (k * k)).max(1) {
                s.record(k);
            }
        }
        let head = s.mass_cover(0.9);
        assert!((1..16).contains(&head), "zipf mass concentrates in a short head, got {head}");
        // Pure read: no aging, so the ranking and the cover are stable.
        assert_eq!(s.mass_cover(0.9), head);
        assert_eq!(s.mass_cover(1.0), 32, "full cover needs every tracked key");
        assert_eq!(s.mass_cover(0.0), 1, "any positive target needs at least the top key");

        let flat: HotSketch<u32> = HotSketch::new(64);
        for k in 0..20u32 {
            for _ in 0..10 {
                flat.record(k);
            }
        }
        assert_eq!(flat.mass_cover(0.9), 18, "a flat workload has no head to exploit");
        assert_eq!(HotSketch::<u32>::new(8).mass_cover(0.9), 0, "empty sketch covers nothing");
    }

    #[test]
    fn mass_cover_edge_cases_keep_a_sane_floor() {
        // Empty: genuinely nothing to re-warm.
        assert_eq!(HotSketch::<u32>::new(8).mass_cover(0.9), 0);
        assert_eq!(HotSketch::<u32>::new(8).mass_cover(0.0), 0);
        assert_eq!(HotSketch::<u32>::new(8).mass_cover(1.0), 0);

        // All-equal counts: the cover is proportional, never zero, and
        // the fraction extremes behave.
        let flat: HotSketch<u32> = HotSketch::new(16);
        for k in 0..8u32 {
            flat.record(k);
        }
        assert_eq!(flat.mass_cover(0.0), 1, "fraction 0.0 still warms the top key");
        assert_eq!(flat.mass_cover(1.0), 8, "fraction 1.0 covers every tracked key");

        // Counts aged to zero by `hottest`'s halving: the old code saw
        // total == 0 and returned a degenerate budget of 0 even though
        // keys were tracked. Now floored at 1.
        let aged: HotSketch<u32> = HotSketch::new(8);
        aged.record(1);
        aged.record(2);
        let _ = aged.hottest(8); // counts 1 halve to 0
        assert_eq!(aged.len(), 2, "keys survive aging");
        assert_eq!(aged.mass_cover(0.9), 1, "aged-to-zero sketch floors at 1, not 0");
        assert_eq!(aged.mass_cover(0.0), 1);
        assert_eq!(aged.mass_cover(1.0), 1);
    }

    #[test]
    fn poisoned_sketch_recovers_by_relearning() {
        /// A key whose clone panics on demand — clones happen inside
        /// `record`'s eviction and `hottest`'s ranking, both under the
        /// sketch lock.
        #[derive(Debug, PartialEq, Eq, Hash)]
        struct Volatile(u32, bool);
        impl Clone for Volatile {
            fn clone(&self) -> Self {
                if self.1 {
                    panic!("deliberate clone panic under the sketch lock");
                }
                Volatile(self.0, self.1)
            }
        }

        let s = std::sync::Arc::new(HotSketch::<Volatile>::new(8));
        s.record(Volatile(1, false));
        s.record(Volatile(2, true)); // armed: cloning this key panics
        let s2 = std::sync::Arc::clone(&s);
        let crash = std::thread::spawn(move || s2.hottest(8));
        assert!(crash.join().is_err(), "the ranking read panics on the armed key");
        // The refresh worker's next read recovers instead of dying: the
        // sketch resets and re-learns from live traffic. (`record`'s
        // try_lock treats the poison as contention and drops the sample,
        // so the first slow-path call performs the repair.)
        assert_eq!(s.len(), 0, "recovery clears the torn counts");
        s.record(Volatile(3, false));
        assert_eq!(s.hottest(8), vec![Volatile(3, false)]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn forget_drops_a_key_for_good() {
        let s: HotSketch<u32> = HotSketch::new(8);
        for _ in 0..9 {
            s.record(7);
        }
        s.record(8);
        s.forget(&7);
        assert_eq!(s.hottest(8), vec![8]);
        s.forget(&99); // unknown keys are a no-op
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn zero_capacity_disables_tracking() {
        let s: HotSketch<u32> = HotSketch::new(0);
        s.record(1);
        assert!(s.is_empty());
        assert!(s.hottest(5).is_empty());
        assert_eq!(s.capacity(), 0);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let s = std::sync::Arc::new(HotSketch::<u64>::new(16));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        s.record(i % (4 + t));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(s.len() <= 16);
        assert!(!s.hottest(4).is_empty());
    }
}
