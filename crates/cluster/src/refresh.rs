//! The continual-refresh worker: keep served top-l summaries fresh under
//! updates instead of recomputing on demand (the continual top-k line of
//! work — Xu, PAPERS.md — that the epoch subsystem was built to enable).
//!
//! One background thread per router watches the epoch of its one
//! server. When the epoch moves (the router signals after every apply; a
//! fallback interval sweep catches anything else), the worker asks the
//! server to [`rewarm`](sizel_serve::SizeLServer::rewarm_hottest_auto)
//! its hottest summary keys under a skew-derived, capped **budget** — so
//! the cache entries a write just purged are recomputed *before*
//! steady-state readers of those keys arrive, and the refresh cost is
//! bounded per epoch bump rather than proportional to the cache. A
//! re-warm is no reader: it moves no cache hit or miss counter.
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
//! * **`Drop` racing a sweep in flight:** the worker re-checks `stop`
//!   right after every wakeup and waits out at most one re-warm pass,
//!   and it owns its own `Arc` of the server, so the router dropping
//!   first cannot free the server under it.
//! * **Poison:** both sides recover the signal flag, so a panicking
//!   worker cannot turn the router's drop-time `notify` into a double
//!   panic that aborts the process.
//!
//! The last-seen epoch lives in a shared atomic, surfaced via
//! [`RefreshStats::last_epoch`] so the metrics page can export refresh
//! *lag*.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use sizel_serve::SizeLServer;

/// Continual-refresh configuration.
#[derive(Clone, Debug)]
pub struct RefreshConfig {
    /// Cap on hottest keys recomputed per epoch bump. The actual
    /// per-pass budget is derived from the observed hot-key skew
    /// (`rewarm_hottest_auto`: the smallest sketch head covering 90% of
    /// the counted lookup mass, clamped to this cap) — what it does not
    /// cover is demand-filled as before.
    pub budget: usize,
    /// Fallback sweep interval: the worker re-checks the server's epoch
    /// at least this often even without a router signal.
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
    /// Sweeps that checked the server's epoch.
    pub passes: u64,
    /// Summary keys recomputed.
    pub rewarmed_keys: u64,
    /// The epoch the worker last finished re-warming at; the router
    /// reports the server's current epoch here when the worker is
    /// disabled. The current epoch minus this value is the **refresh
    /// lag** the metrics endpoint exposes — a persistently non-zero lag
    /// means writes outpace the re-warm budget.
    pub last_epoch: u64,
}

struct Shared {
    /// "An epoch may have moved" — set by the router, consumed by the
    /// worker.
    pending: Mutex<bool>,
    cv: Condvar,
    stop: AtomicBool,
    passes: AtomicU64,
    rewarmed_keys: AtomicU64,
    /// The epoch of the last completed re-warm: the worker's sweep state,
    /// read by stats/metrics to compute lag.
    last_epoch: AtomicU64,
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
    pub(crate) fn spawn(server: Arc<SizeLServer>, cfg: RefreshConfig) -> Self {
        let shared = Arc::new(Shared {
            pending: Mutex::new(false),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            passes: AtomicU64::new(0),
            rewarmed_keys: AtomicU64::new(0),
            last_epoch: AtomicU64::new(server.epoch().get()),
        });
        let worker_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("sizel-cluster-refresh".into())
            .spawn(move || {
                let shared = worker_shared;
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
                    let epoch = server.epoch().get();
                    if epoch != shared.last_epoch.load(Ordering::Relaxed) {
                        let warmed = server.rewarm_hottest_auto(cfg.budget);
                        shared.rewarmed_keys.fetch_add(warmed as u64, Ordering::Relaxed);
                        shared.last_epoch.store(epoch, Ordering::Relaxed);
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
            last_epoch: self.shared.last_epoch.load(Ordering::Relaxed),
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
