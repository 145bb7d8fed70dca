//! The continual-refresh worker: keep served top-l summaries fresh under
//! updates instead of recomputing on demand (the continual top-k line of
//! work — Xu, PAPERS.md — that the epoch subsystem was built to enable).
//!
//! One background thread per cluster watches the epoch of each server
//! the router holds: one per tenant, one for a partitioned cluster. When
//! an epoch moves (the router signals after every apply; a fallback
//! interval sweep catches anything else), the worker asks that server to
//! [`rewarm`](sizel_serve::SizeLServer::rewarm_hottest_auto) its hottest
//! summary keys under a skew-derived, capped **budget** — so the cache
//! entries a write just purged are recomputed *before* steady-state
//! readers of those keys arrive, and the refresh cost is bounded per
//! epoch bump rather than proportional to the cache. A re-warm is no
//! reader: it moves no cache hit or miss counter.
//!
//! Freshness-correctness is inherited, not re-proven: the re-warm runs
//! under an engine read guard and keys every entry by the epoch read
//! under that same guard — exactly the staleness-impossible-by-construction
//! argument of the demand path — and `summarize` is deterministic, so a
//! refreshed entry is byte-identical to what the reader would have
//! computed. The worker can therefore never serve (or cause to be
//! served) anything the sequential engine would not.
//!
//! ## Shutdown and notify races
//!
//! * **A notify landing between the `wait_timeout` wake and re-lock**
//!   cannot be lost: `pending` is only written under the signal mutex,
//!   which `Condvar::wait_timeout` re-acquires *before* returning. A
//!   notify landing between `*pending = false` and the sweep sets
//!   `pending` for the next iteration — at worst one redundant sweep.
//! * **`Drop` racing a sweep in flight:** `stop` is re-checked between
//!   servers, so a drop never waits out every server's budget, and the
//!   worker owns its own `Arc`s, so the router dropping first cannot free
//!   a server under it.
//! * **Poison:** both sides recover the signal flag, so a panicking
//!   worker cannot turn the router's drop-time `notify` into a double
//!   panic that aborts the process.
//!
//! The last-seen epochs live in shared per-server atomics, surfaced via
//! [`RefreshStats::last_epochs`] so the metrics page can export refresh
//! *lag*.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use sizel_serve::SizeLServer;
use sizel_storage::Epoch;

/// Continual-refresh configuration.
#[derive(Clone, Debug)]
pub struct RefreshConfig {
    /// Cap on hottest keys recomputed per shard per epoch bump. The
    /// actual per-pass budget is derived from the observed hot-key skew
    /// (`rewarm_hottest_auto`: the smallest sketch head covering 90% of
    /// the counted lookup mass, clamped to this cap) — what it does not
    /// cover is demand-filled as before.
    pub budget: usize,
    /// Fallback sweep interval: the worker re-checks shard epochs at
    /// least this often even without a router signal.
    pub interval: Duration,
}

impl Default for RefreshConfig {
    fn default() -> Self {
        RefreshConfig { budget: 32, interval: Duration::from_millis(50) }
    }
}

/// Counters of the refresh worker's activity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Sweeps that checked every shard's epoch.
    pub passes: u64,
    /// Summary keys recomputed across all shards.
    pub rewarmed_keys: u64,
    /// Per shard: the epoch the worker last finished re-warming at (in
    /// shard order; empty when the worker is disabled). A shard's
    /// current epoch minus this value is its **refresh lag** — the
    /// metrics endpoint exposes it per shard, and a persistently
    /// non-zero lag means writes outpace the re-warm budget.
    pub last_epochs: Vec<u64>,
}

struct Shared {
    /// "An epoch may have moved" — set by the router, consumed by the
    /// worker.
    pending: Mutex<bool>,
    cv: Condvar,
    stop: AtomicBool,
    passes: AtomicU64,
    rewarmed_keys: AtomicU64,
    /// Per shard: the epoch of the last completed re-warm (mirrors the
    /// worker's sweep state so stats/metrics can compute lag).
    last_epochs: Vec<AtomicU64>,
}

/// Locks the signal flag, recovering from poisoning: the flag is a plain
/// bool (never torn), and panicking here would cascade into the router's
/// drop-time notify — a double panic that aborts the process.
fn lock_pending(shared: &Shared) -> MutexGuard<'_, bool> {
    match shared.pending.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            shared.pending.clear_poison();
            poisoned.into_inner()
        }
    }
}

/// The background refresh thread; dropping it (via the router) stops and
/// joins the worker.
pub(crate) struct RefreshWorker {
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

impl RefreshWorker {
    pub(crate) fn spawn(shards: Vec<Arc<SizeLServer>>, cfg: RefreshConfig) -> Self {
        let initial: Vec<Epoch> = shards.iter().map(|s| s.epoch()).collect();
        let shared = Arc::new(Shared {
            pending: Mutex::new(false),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            passes: AtomicU64::new(0),
            rewarmed_keys: AtomicU64::new(0),
            last_epochs: initial.iter().map(|e| AtomicU64::new(e.get())).collect(),
        });
        let worker_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("sizel-cluster-refresh".into())
            .spawn(move || {
                let shared = worker_shared;
                let mut last: Vec<Epoch> = initial;
                loop {
                    {
                        let mut pending = lock_pending(&shared);
                        while !*pending && !shared.stop.load(Ordering::Acquire) {
                            let (guard, timeout) =
                                match shared.cv.wait_timeout(pending, cfg.interval) {
                                    Ok(woken) => woken,
                                    Err(poisoned) => {
                                        shared.pending.clear_poison();
                                        poisoned.into_inner()
                                    }
                                };
                            pending = guard;
                            if timeout.timed_out() {
                                break; // fallback sweep
                            }
                        }
                        *pending = false;
                    }
                    if shared.stop.load(Ordering::Acquire) {
                        return;
                    }
                    for (i, shard) in shards.iter().enumerate() {
                        // Re-check between shards: a drop mid-sweep must
                        // not wait out the remaining shards' budgets.
                        if shared.stop.load(Ordering::Acquire) {
                            return;
                        }
                        let epoch = shard.epoch();
                        if epoch != last[i] {
                            let warmed = shard.rewarm_hottest_auto(cfg.budget);
                            shared.rewarmed_keys.fetch_add(warmed as u64, Ordering::Relaxed);
                            last[i] = epoch;
                            shared.last_epochs[i].store(epoch.get(), Ordering::Relaxed);
                        }
                    }
                    shared.passes.fetch_add(1, Ordering::Relaxed);
                }
            })
            .expect("spawn refresh worker");
        RefreshWorker { shared, handle: Some(handle) }
    }

    /// Signals the worker that an epoch moved (called by the router after
    /// every apply).
    pub(crate) fn notify(&self) {
        let mut pending = lock_pending(&self.shared);
        *pending = true;
        self.shared.cv.notify_one();
    }

    pub(crate) fn stats(&self) -> RefreshStats {
        RefreshStats {
            passes: self.shared.passes.load(Ordering::Relaxed),
            rewarmed_keys: self.shared.rewarmed_keys.load(Ordering::Relaxed),
            last_epochs: self
                .shared
                .last_epochs
                .iter()
                .map(|e| e.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Drop for RefreshWorker {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.notify();
        if let Some(h) = self.handle.take() {
            // The worker checks `stop` right after every wakeup; a panic
            // here would mean it already panicked on its own.
            if let Err(e) = h.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(e);
                }
            }
        }
    }
}
