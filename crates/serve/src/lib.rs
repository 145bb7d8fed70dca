//! # sizel-serve — the concurrent serving layer
//!
//! [`SizeLEngine`]'s query paths take `&self` with all shared mutation
//! through atomics (the storage access counters), so one engine is safely
//! shareable across threads; its *write* path ([`SizeLEngine::apply`])
//! takes `&mut self`. The server therefore holds the engine behind an
//! `Arc<RwLock>` — many concurrent readers, one writer per mutation:
//!
//! * [`SizeLServer`] runs a fixed pool of worker threads pulling jobs
//!   from a *bounded* submission queue ([`queue::BoundedQueue`]), so
//!   heavy traffic exerts backpressure instead of growing an unbounded
//!   backlog. Each job holds a read lock for exactly one query.
//! * **The lookup policy** for a per-DS summary is stated once, in
//!   [`SizeLServer::summarize_batch`]: probe the cache on the caller's
//!   thread ([`SizeLServer::try_summarize_cached`]), queue only what
//!   misses ([`SizeLServer::enqueue_summary`]). A cached summary never
//!   crosses a thread; the cluster router and the network front-end are
//!   callers of those two halves, not second copies of them.
//! * A sharded LRU cache ([`cache::ShardedCache`]) memoizes the per-DS
//!   summary computation across queries, keyed on
//!   `(epoch, t_DS, l, algo, prelim, source)` — the engine's mutation
//!   epoch plus the exact argument tuple [`SizeLEngine::summarize`] is a
//!   pure function of. Repeated keyword queries over a slowly-changing
//!   ranking re-hit the same `t_DS` tuples (the continual/top-k
//!   workload), so summary reuse dominates end-to-end latency.
//! * [`SizeLServer::apply`] is the write path: it takes the write lock,
//!   applies the [`Mutation`] (bumping the epoch), and retains only
//!   current-epoch cache entries. Because every lookup and insert is
//!   keyed by the epoch *read under the same lock as the computation*, a
//!   summary computed against superseded data can never be served — the
//!   epoch in its key no longer matches any future lookup (proven by
//!   `tests/epoch_equivalence.rs`).
//! * [`SizeLServer::batch_query`] amortizes keyword-index lookups across a
//!   batch: duplicate `(keywords, options)` requests are resolved with one
//!   index probe and one summary computation, then fanned back out.
//!
//! Results are returned as `Arc<QueryResult>` so a cache hit shares the
//! materialized size-l OS instead of deep-copying it per request. The
//! equivalence guarantee — server output byte-identical to the sequential
//! engine — is enforced by `tests/stress.rs` (read-only) and
//! `tests/epoch_equivalence.rs` (interleaved insert/query streams).

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;

use sizel_core::algo::AlgoKind;
pub use sizel_core::durability::{DiskTierConfig, DiskTierStats, RecoveryReport};
use sizel_core::engine::{rank_results, QueryOptions, QueryResult, ResultRanking, SizeLEngine};
use sizel_core::osgen::OsSource;
use sizel_storage::{Epoch, StorageError, TupleRef};

pub mod cache;
pub mod hotness;
pub mod queue;

pub use cache::{CacheStats, ShardedCache};
pub use hotness::HotSketch;
pub use queue::{BoundedQueue, TryPushError};
pub use sizel_core::engine::{Mutation, MutationOp, RefreshPolicy};

/// The cache key: the engine's mutation epoch plus everything
/// [`SizeLEngine::summarize`] depends on. `ranking` is deliberately
/// excluded — it only reorders whole result lists and must never fragment
/// the cache (a hit for `(algo, prelim)` under one ranking is
/// byte-identical under the other). The epoch is first: a mutation makes
/// every prior entry unreachable by key, which is the staleness proof.
pub type SummaryKey = (Epoch, TupleRef, usize, AlgoKind, bool, OsSource);

/// The *epoch-less* summary key tracked by the hotness sketch: hotness
/// must survive mutations (the whole point of proactive re-warming is to
/// recompute exactly these keys at the **new** epoch before a reader
/// does), so the epoch stays out.
pub type HotKey = (TupleRef, usize, AlgoKind, bool, OsSource);

/// A cached, shareable query result.
pub type SharedResult = Arc<QueryResult>;

fn summary_key(epoch: Epoch, tds: TupleRef, opts: QueryOptions) -> SummaryKey {
    (epoch, tds, opts.l, opts.algo, opts.prelim, opts.source)
}

fn hot_key(tds: TupleRef, opts: QueryOptions) -> HotKey {
    (tds, opts.l, opts.algo, opts.prelim, opts.source)
}

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Bounded submission-queue capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Total cached summaries across all shards; 0 disables caching.
    pub cache_capacity: usize,
    /// Cache shard count (clamped to `[1, cache_capacity]`).
    pub cache_shards: usize,
    /// Hot-key sketch budget (tracked summary keys for proactive
    /// re-warming; 0 disables hotness tracking).
    pub hot_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(4);
        ServeConfig {
            workers: cores,
            queue_capacity: 1024,
            cache_capacity: 4096,
            cache_shards: 16,
            hot_capacity: 128,
        }
    }
}

impl ServeConfig {
    /// A config with `workers` threads and default everything else.
    pub fn with_workers(workers: usize) -> Self {
        ServeConfig { workers, ..ServeConfig::default() }
    }
}

/// Point-in-time server health: cache counters plus served-query totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// The summary cache's counters.
    pub cache: CacheStats,
    /// Queries fully served: one per `Query` job, plus those a router
    /// answered with this server as its lookup shard
    /// ([`SizeLServer::count_queries`]).
    pub queries_served: u64,
    /// Per-DS summaries computed (cache misses that did real work).
    pub summaries_computed: u64,
    /// Mutations applied through [`SizeLServer::apply`] /
    /// [`SizeLServer::apply_batch`].
    pub mutations_applied: u64,
    /// Cache entries proactively recomputed by
    /// [`SizeLServer::rewarm_hottest`].
    pub rewarmed: u64,
    /// Disk-tier statistics when one is attached
    /// ([`SizeLServer::attach_disk`]): block-cache counters, segment
    /// generation, WAL size.
    pub disk: Option<DiskTierStats>,
}

/// One unit of work for the pool with its reply slot: a whole keyword
/// query, or a single `(t_DS, options)` summary (the unit a cluster
/// router queues after resolving the keyword lookup itself). The `usize`
/// travels back with the answer so the collecting side can place it.
enum Job {
    Query {
        keywords: String,
        opts: QueryOptions,
        seq: usize,
        reply: mpsc::Sender<(usize, Vec<SharedResult>)>,
    },
    Summarize {
        tds: TupleRef,
        opts: QueryOptions,
        tag: usize,
        reply: mpsc::Sender<(usize, SharedResult)>,
    },
}

/// A shared epoch-versioned engine behind a worker pool with summary
/// caching and a write-through mutation path.
///
/// Dropping the server closes the queue, drains the backlog, and joins
/// every worker.
pub struct SizeLServer {
    engine: Arc<RwLock<SizeLEngine>>,
    cache: Arc<ShardedCache<SummaryKey, SharedResult>>,
    hot: Arc<HotSketch<HotKey>>,
    jobs: Arc<BoundedQueue<Job>>,
    queries_served: Arc<AtomicU64>,
    summaries_computed: Arc<AtomicU64>,
    mutations_applied: AtomicU64,
    rewarmed: AtomicU64,
    workers: Vec<JoinHandle<()>>,
}

impl SizeLServer {
    /// Spawns the worker pool over an engine the server takes ownership
    /// of. Use [`SizeLServer::from_shared`] to share one engine between a
    /// server and other readers.
    pub fn new(engine: SizeLEngine, cfg: ServeConfig) -> Self {
        SizeLServer::from_shared(Arc::new(RwLock::new(engine)), cfg)
    }

    /// Spawns the worker pool over a shared, lock-wrapped engine.
    pub fn from_shared(engine: Arc<RwLock<SizeLEngine>>, cfg: ServeConfig) -> Self {
        let cache = Arc::new(ShardedCache::new(cfg.cache_capacity, cfg.cache_shards));
        let hot = Arc::new(HotSketch::new(cfg.hot_capacity));
        let jobs: Arc<BoundedQueue<Job>> = Arc::new(BoundedQueue::new(cfg.queue_capacity));
        let queries_served = Arc::new(AtomicU64::new(0));
        let summaries_computed = Arc::new(AtomicU64::new(0));
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let engine = Arc::clone(&engine);
                let cache = Arc::clone(&cache);
                let hot = Arc::clone(&hot);
                let jobs = Arc::clone(&jobs);
                let served = Arc::clone(&queries_served);
                let computed = Arc::clone(&summaries_computed);
                std::thread::Builder::new()
                    .name(format!("sizel-serve-{i}"))
                    .spawn(move || {
                        while let Some(job) = jobs.pop() {
                            // A panic while serving one job must not kill
                            // the worker: queued jobs would strand and their
                            // clients block forever. Catch it; the unwind
                            // drops the job and with it the reply sender
                            // (the submitter sees a missing reply naming the
                            // panic), keep serving. Read guards never poison
                            // the lock.
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                let engine = engine.read().expect("a mutation panicked mid-apply");
                                // The submitter may have given up (dropped
                                // the receiver); that is not a worker error.
                                match job {
                                    Job::Query { keywords, opts, seq, reply } => {
                                        let results = run_query(
                                            &engine, &cache, &hot, &computed, &keywords, opts,
                                        );
                                        served.fetch_add(1, Ordering::Relaxed);
                                        let _ = reply.send((seq, results));
                                    }
                                    Job::Summarize { tds, opts, tag, reply } => {
                                        let epoch = engine.epoch();
                                        let result = summarize_cached(
                                            &engine, &cache, &hot, &computed, epoch, tds, opts,
                                        );
                                        let _ = reply.send((tag, result));
                                    }
                                }
                            }));
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        SizeLServer {
            engine,
            cache,
            hot,
            jobs,
            queries_served,
            summaries_computed,
            mutations_applied: AtomicU64::new(0),
            rewarmed: AtomicU64::new(0),
            workers,
        }
    }

    /// Read access to the shared engine (many readers may coexist with
    /// the worker pool; held guards block [`SizeLServer::apply`]).
    pub fn engine(&self) -> RwLockReadGuard<'_, SizeLEngine> {
        self.engine.read().expect("a mutation panicked mid-apply")
    }

    /// The engine's current mutation epoch.
    pub fn epoch(&self) -> Epoch {
        self.engine().epoch()
    }

    /// Non-blocking read access to the shared engine: `None` when a
    /// writer holds (or is poisoned on) the lock. The network layer's
    /// inline fast path probes through this — it must *never* wait on
    /// the I/O thread, and a poisoned lock falls back to the dispatch
    /// queue where the panic surfaces properly.
    pub fn try_engine(&self) -> Option<RwLockReadGuard<'_, SizeLEngine>> {
        self.engine.try_read().ok()
    }

    /// Cache-probe-only summarize: returns the cached summary for
    /// `(tds, opts)` at the engine's **current** epoch, or `None` when
    /// anything at all would require waiting or computing — writer
    /// contention on the engine lock, or a cache miss. Never blocks,
    /// never computes; the serving-path staleness proof carries over
    /// verbatim because the epoch is read under the same (try-acquired)
    /// read guard used for the probe.
    ///
    /// A hit feeds the hotness sketch exactly like the pooled path. A
    /// miss goes through [`ShardedCache::probe`], which records it under
    /// [`CacheStats::probe_misses`] rather than `misses` — the caller
    /// queues the key ([`SizeLServer::enqueue_summary`]), whose
    /// `summarize_cached` records the authoritative miss for the same
    /// request (counting both as `misses` double-counted every miss).
    pub fn try_summarize_cached(
        &self,
        tds: TupleRef,
        opts: QueryOptions,
    ) -> Option<(Epoch, SharedResult)> {
        let engine = self.try_engine()?;
        let epoch = engine.epoch();
        let hit = self.cache.probe(&summary_key(epoch, tds, opts))?;
        self.hot.record(hot_key(tds, opts));
        Some((epoch, hit))
    }

    /// Applies one [`Mutation`]: a batch of one (see
    /// [`SizeLServer::apply_batch`]). Returns the new epoch.
    pub fn apply(&self, m: Mutation) -> Result<Epoch, StorageError> {
        self.apply_batch(vec![m])
    }

    /// The write path: applies a [`Mutation`] batch under **one**
    /// write-lock acquisition (quiescing the pool for its duration) via
    /// [`SizeLEngine::apply_batch`] — one `DataGraph` rebuild and one
    /// posting settlement per incremental run — then drops every cache
    /// entry of superseded epochs once. Returns the new epoch. On error
    /// the engine keeps the fold's applied prefix (synchronized), the
    /// purge still runs, and the error is returned.
    ///
    /// Staleness proof sketch: entries are keyed by the epoch read under
    /// the *same read lock* as their computation, and the epoch only
    /// advances under the write lock — so an entry's key epoch equals the
    /// epoch of the data it was computed from, and a lookup (which keys
    /// by the current epoch, again under a read lock) can only hit
    /// entries computed against current data. The retain pass here is
    /// purely for memory: unreachable entries are dropped eagerly instead
    /// of aging out of the LRU.
    pub fn apply_batch(&self, ms: Vec<Mutation>) -> Result<Epoch, StorageError> {
        let mut engine = self.engine.write().expect("a mutation panicked mid-apply");
        let before = engine.epoch();
        let outcome = engine.apply_batch(ms);
        let epoch = engine.epoch();
        // Purge while still holding the write lock: no reader can insert a
        // fresh entry and no concurrent apply can advance the epoch until
        // it is released, so `epoch` is exactly the current version and
        // the retain can never evict another writer's current entries.
        self.cache.retain(|k| k.0 == epoch);
        drop(engine);
        // Count exactly the mutations that landed (the epoch advances
        // once per accepted insert), so error paths stay accurate.
        self.mutations_applied.fetch_add(epoch.get() - before.get(), Ordering::Relaxed);
        outcome.map(|_| epoch)
    }

    /// Runs one query through the pool, blocking for the result. Identical
    /// output to [`SizeLEngine::query_with`] on the same engine (modulo
    /// `Arc` wrapping) — the stress suite asserts this byte-for-byte.
    pub fn query(&self, keywords: &str, opts: QueryOptions) -> Vec<SharedResult> {
        self.batch_query(&[(keywords.to_owned(), opts)]).pop().expect("one request")
    }

    /// Computes (or serves from cache) one `(t_DS, options)` summary —
    /// the per-DS unit a cluster router dispatches after resolving the
    /// keyword lookup itself. Byte-identical to
    /// [`SizeLEngine::summarize`] on the same engine (modulo `Arc`).
    pub fn summarize(&self, tds: TupleRef, opts: QueryOptions) -> SharedResult {
        self.summarize_batch(&[(tds, opts)]).pop().expect("one item yields one result")
    }

    /// Serves a whole batch of `(t_DS, options)` summaries, in submission
    /// order, by the lookup policy: each item is probed on this thread
    /// and only the misses are queued — all of them before the first
    /// wait, so the pool computes them concurrently.
    pub fn summarize_batch(&self, items: &[(TupleRef, QueryOptions)]) -> Vec<SharedResult> {
        let (tx, rx) = mpsc::channel();
        let mut slots: Vec<Option<SharedResult>> = items
            .iter()
            .enumerate()
            .map(|(i, &(tds, opts))| {
                let hit = self.try_summarize_cached(tds, opts).map(|(_, hit)| hit);
                if hit.is_none() {
                    self.enqueue_summary(tds, opts, i, &tx);
                }
                hit
            })
            .collect();
        drop(tx);
        for (i, result) in rx {
            slots[i] = Some(result);
        }
        slots
            .into_iter()
            .map(|s| s.expect("worker panicked while serving a summary job (see its panic output)"))
            .collect()
    }

    /// The queue half of the lookup policy: submits one `(t_DS, options)`
    /// summary to the pool (blocking while the queue is full) and returns.
    /// The worker sends `(tag, summary)` on `reply`; a job whose worker
    /// panicked sends nothing, so a collector that drains `reply` to
    /// disconnection finds that tag unanswered.
    pub fn enqueue_summary(
        &self,
        tds: TupleRef,
        opts: QueryOptions,
        tag: usize,
        reply: &mpsc::Sender<(usize, SharedResult)>,
    ) {
        self.submit(Job::Summarize { tds, opts, tag, reply: reply.clone() });
    }

    fn submit(&self, job: Job) {
        if self.jobs.push(job).is_err() {
            unreachable!("queue closes only in Drop, which takes &mut self");
        }
    }

    /// Credits `n` queries answered above this server with it as the
    /// keyword-lookup shard: a cluster router resolves the lookup itself
    /// and submits only per-DS summaries, which are not queries.
    pub fn count_queries(&self, n: usize) {
        self.queries_served.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Proactively recomputes up to `budget` of the hottest summary keys
    /// at the **current** epoch — the continual-refresh hook: called
    /// after a mutation purged the cache, it pays the cold recomputes
    /// before steady-state readers of those keys do. Keys already cached
    /// at the current epoch are skipped. Returns the number recomputed.
    ///
    /// Staleness remains impossible by construction: each key's
    /// recompute runs under a read guard and is keyed by the epoch read
    /// under that same guard — exactly the argument that covers
    /// demand-filled entries. The guard is taken *per key* (not across
    /// the whole budget) so a concurrent writer stalls for at most one
    /// summary computation, never the full refresh pass; a write landing
    /// mid-pass simply makes the remaining keys re-warm at the newer
    /// epoch, which is what the next refresh would have done anyway.
    pub fn rewarm_hottest(&self, budget: usize) -> usize {
        let keys = self.hot.hottest(budget);
        let mut warmed = 0usize;
        for hk in keys {
            let (tds, l, algo, prelim, source) = hk;
            let opts = QueryOptions { l, algo, prelim, source, ranking: ResultRanking::default() };
            let engine = self.engine.read().expect("a mutation panicked mid-apply");
            // Hot keys deliberately survive epoch bumps — but a key whose
            // subject row was deleted can never be served again at any
            // epoch. Forget it instead of re-warming a dead summary.
            if !engine.is_live(tds) {
                self.hot.forget(&hk);
                continue;
            }
            let key = summary_key(engine.epoch(), tds, opts);
            if self.cache.get(&key).is_none() {
                let computed: SharedResult = Arc::new(engine.summarize(tds, opts));
                self.cache.insert(key, computed);
                warmed += 1;
            }
        }
        self.rewarmed.fetch_add(warmed as u64, Ordering::Relaxed);
        warmed
    }

    /// [`SizeLServer::rewarm_hottest`] with the budget derived from the
    /// sketch's observed count skew instead of a fixed constant: the
    /// smallest ranked head covering 90% of lookup mass
    /// ([`HotSketch::mass_cover`]), clamped to `[1, cap]`. A zipf-shaped
    /// workload re-warms just its short hot head; a flat one spends the
    /// whole cap.
    pub fn rewarm_hottest_auto(&self, cap: usize) -> usize {
        let budget = self.hot.mass_cover(0.9).clamp(1, cap.max(1));
        self.rewarm_hottest(budget)
    }

    /// The up-to-`n` hottest summary keys observed by the sketch.
    pub fn hottest(&self, n: usize) -> Vec<HotKey> {
        self.hot.hottest(n)
    }

    /// Serves a whole batch concurrently, returning results in submission
    /// order. Duplicate `(keywords, options)` requests are served by a
    /// single keyword-index lookup + summary computation and fanned back
    /// out, amortizing the index work across the batch.
    pub fn batch_query(&self, requests: &[(String, QueryOptions)]) -> Vec<Vec<SharedResult>> {
        let mut first_of: HashMap<(&str, QueryOptions), usize> = HashMap::new();
        // duplicate_of[i] = index of the first identical request, if any.
        let duplicate_of: Vec<Option<usize>> = requests
            .iter()
            .enumerate()
            .map(|(i, (kw, opts))| match first_of.entry((kw.as_str(), *opts)) {
                std::collections::hash_map::Entry::Occupied(e) => Some(*e.get()),
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(i);
                    None
                }
            })
            .collect();

        let (tx, rx) = mpsc::channel();
        let mut distinct = 0usize;
        for (i, (keywords, opts)) in requests.iter().enumerate() {
            if duplicate_of[i].is_some() {
                continue;
            }
            distinct += 1;
            self.submit(Job::Query {
                keywords: keywords.clone(),
                opts: *opts,
                seq: i,
                reply: tx.clone(),
            });
        }
        drop(tx);

        let mut slots: Vec<Option<Vec<SharedResult>>> = vec![None; requests.len()];
        for _ in 0..distinct {
            let (seq, results) = rx
                .recv()
                .expect("worker panicked while serving a batched query (see its panic output)");
            slots[seq] = Some(results);
        }
        (0..requests.len())
            .map(|i| {
                let src = duplicate_of[i].unwrap_or(i);
                slots[src].clone().expect("every distinct request was served")
            })
            .collect()
    }

    /// Attaches the engine's disk tier under the write lock (see
    /// [`SizeLEngine::attach_disk`]): opens the WAL, replays whatever a
    /// crashed predecessor committed, checkpoints and pages the
    /// configured tables. The replay may advance the epoch, so
    /// superseded cache entries are purged before the lock drops —
    /// the same discipline as [`SizeLServer::apply`].
    pub fn attach_disk(&self, cfg: DiskTierConfig) -> Result<RecoveryReport, StorageError> {
        let mut engine = self.engine.write().expect("a mutation panicked mid-apply");
        let report = engine.attach_disk(cfg)?;
        let epoch = engine.epoch();
        self.cache.retain(|k| k.0 == epoch);
        Ok(report)
    }

    /// Re-checkpoints the paged tables into a fresh segment generation
    /// under the write lock (see [`SizeLEngine::checkpoint_disk`]).
    /// Answers are unchanged, so the summary cache is kept.
    pub fn checkpoint_disk(&self) -> Result<u64, StorageError> {
        self.engine.write().expect("a mutation panicked mid-apply").checkpoint_disk()
    }

    /// Discards the write-ahead log (see [`SizeLEngine::truncate_wal`]
    /// for when that is safe).
    pub fn truncate_wal(&self) -> Result<(), StorageError> {
        self.engine.write().expect("a mutation panicked mid-apply").truncate_wal()
    }

    /// Aggregate cache and throughput counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            cache: self.cache.stats(),
            queries_served: self.queries_served.load(Ordering::Relaxed),
            summaries_computed: self.summaries_computed.load(Ordering::Relaxed),
            mutations_applied: self.mutations_applied.load(Ordering::Relaxed),
            rewarmed: self.rewarmed.load(Ordering::Relaxed),
            disk: self.engine.read().ok().and_then(|e| e.disk_stats()),
        }
    }

    /// Jobs currently sitting in the submission queue (a live
    /// backpressure signal for front-ends and metrics exposition).
    pub fn queue_depth(&self) -> usize {
        self.jobs.len()
    }
}

impl Drop for SizeLServer {
    fn drop(&mut self) {
        self.jobs.close();
        for w in self.workers.drain(..) {
            // Per-job panics are caught in the worker loop, so join errors
            // should be impossible; if one happens anyway, re-raise it —
            // unless this drop is itself part of an unwind, where a second
            // panic would abort the process and eat both messages.
            if let Err(e) = w.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(e);
                }
            }
        }
    }
}

/// The worker-side query path: `ds_hits` + per-DS memoized `summarize` +
/// the optional result-list reorder — a faithful recomposition of
/// `SizeLEngine::query_with` with the per-DS unit routed through the cache.
///
/// Two workers missing the same key concurrently both compute it and both
/// insert; `summarize` is deterministic, so last-write-wins is benign.
fn run_query(
    engine: &SizeLEngine,
    cache: &ShardedCache<SummaryKey, SharedResult>,
    hot: &HotSketch<HotKey>,
    summaries_computed: &AtomicU64,
    keywords: &str,
    opts: QueryOptions,
) -> Vec<SharedResult> {
    // The epoch is read under the same lock as the whole computation, so
    // every entry inserted below is keyed by the exact version of the
    // data it was computed from.
    let epoch = engine.epoch();
    let mut results: Vec<SharedResult> = engine
        .ds_hits(keywords)
        .into_iter()
        .map(|tds| summarize_cached(engine, cache, hot, summaries_computed, epoch, tds, opts))
        .collect();
    rank_results(&mut results, opts.ranking);
    results
}

/// The per-DS unit behind every serving path: hotness-recorded,
/// epoch-keyed, cache-memoized `summarize`.
fn summarize_cached(
    engine: &SizeLEngine,
    cache: &ShardedCache<SummaryKey, SharedResult>,
    hot: &HotSketch<HotKey>,
    summaries_computed: &AtomicU64,
    epoch: Epoch,
    tds: TupleRef,
    opts: QueryOptions,
) -> SharedResult {
    // Every lookup — hit or miss — feeds the hotness sketch: the refresh
    // worker wants "what readers ask for", which a hit-only signal would
    // starve right after each purge.
    hot.record(hot_key(tds, opts));
    let key = summary_key(epoch, tds, opts);
    cache.get(&key).unwrap_or_else(|| {
        let computed: SharedResult = Arc::new(engine.summarize(tds, opts));
        summaries_computed.fetch_add(1, Ordering::Relaxed);
        cache.insert(key, Arc::clone(&computed));
        computed
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SizeLServer>();
        assert_send_sync::<ShardedCache<SummaryKey, SharedResult>>();
        assert_send_sync::<BoundedQueue<Job>>();
    }

    #[test]
    fn summary_key_ignores_ranking_but_not_the_epoch() {
        let tds = TupleRef::new(sizel_storage::TableId(0), sizel_storage::RowId(0));
        let a = QueryOptions { ranking: ResultRanking::DsGlobalImportance, ..test_opts() };
        let b = QueryOptions { ranking: ResultRanking::SummaryImportance, ..test_opts() };
        assert_eq!(summary_key(Epoch(3), tds, a), summary_key(Epoch(3), tds, b));
        assert_ne!(
            summary_key(Epoch(3), tds, a),
            summary_key(Epoch(4), tds, a),
            "a mutation makes every prior key unreachable"
        );
    }

    fn test_opts() -> QueryOptions {
        QueryOptions {
            l: 10,
            algo: AlgoKind::TopPath,
            source: OsSource::DataGraph,
            prelim: true,
            ranking: ResultRanking::default(),
        }
    }

    /// The lookup policy's first half: a cached summary is answered on
    /// the caller's thread. With the queue closed, a job that reached it
    /// would die on the `unreachable!` in `submit`.
    #[test]
    fn a_cached_summary_never_reaches_the_queue() {
        use sizel_core::engine::EngineConfig;
        use sizel_graph::presets::dblp_author_gds_config;
        let engine = SizeLEngine::build(
            sizel_datagen::dblp::generate(&sizel_datagen::dblp::DblpConfig::tiny()).db,
            |db, sg, dg| sizel_rank::dblp_ga(sizel_rank::GaPreset::Ga1, db, sg, dg),
            EngineConfig::new(vec![("Author".into(), dblp_author_gds_config())]),
        )
        .expect("engine builds");
        let author = engine.db().table_id("Author").expect("Author table");
        let tds = TupleRef::new(author, sizel_storage::RowId(0));
        let server = SizeLServer::new(engine, ServeConfig::with_workers(1));
        let cold = server.summarize(tds, test_opts());
        server.jobs.close();
        let warm = server.summarize(tds, test_opts());
        assert!(Arc::ptr_eq(&cold, &warm), "the warm answer is the cached Arc itself");
        let stats = server.stats();
        assert_eq!((stats.cache.hits, stats.cache.misses, stats.summaries_computed), (1, 1, 1));
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = ServeConfig::default();
        assert!(cfg.workers >= 1);
        assert!(cfg.queue_capacity >= 1);
        assert!(cfg.cache_shards >= 1);
        let four = ServeConfig::with_workers(4);
        assert_eq!(four.workers, 4);
        assert_eq!(four.cache_capacity, cfg.cache_capacity);
    }
}
