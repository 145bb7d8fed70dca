//! # sizel-serve — the concurrent serving layer
//!
//! [`SizeLEngine`]'s query paths take `&self` with all shared mutation
//! through atomics (the storage access counters), so one engine is safely
//! shareable across threads; its *write* path ([`SizeLEngine::apply`])
//! takes `&mut self`. The server therefore holds the engine behind an
//! `Arc<RwLock>` — many concurrent readers, one writer per mutation:
//!
//! * [`SizeLServer`] is an epoch-keyed memo — summary cache, hotness
//!   sketch, counters — over that lock. It spawns no thread and owns no
//!   queue: every call runs on the thread that made it, and concurrency
//!   is the caller's (a net dispatch pool, the cluster's refresh worker,
//!   an embedder's own threads). Each query or summary holds a read
//!   guard for exactly its own duration; a panic in one unwinds into its
//!   caller and poisons nothing (read guards never poison the lock).
//! * **The lookup policy** for a per-DS summary is probe-or-compute:
//!   [`SizeLServer::try_summarize_cached`] probes and never blocks or
//!   computes; [`SizeLServer::summarize_at`] looks the key up once and,
//!   on a miss, computes it there and then under the same read guard.
//!   The cluster router and the network front-end are callers of those
//!   two, not second copies of them.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};

use sizel_core::algo::AlgoKind;
pub use sizel_core::durability::{DiskTierConfig, DiskTierStats, RecoveryReport};
use sizel_core::engine::{rank_results, QueryOptions, QueryResult, ResultRanking, SizeLEngine};
use sizel_core::osgen::OsSource;
use sizel_storage::{Epoch, StorageError, TupleRef};

pub mod cache;
pub mod hotness;

pub use cache::{CacheStats, ShardedCache};
pub use hotness::HotSketch;
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
        ServeConfig { cache_capacity: 4096, cache_shards: 16, hot_capacity: 128 }
    }
}

/// Point-in-time server health: cache counters plus served-query totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// The summary cache's counters.
    pub cache: CacheStats,
    /// Queries fully served: one per `query` (a `batch_query` runs one
    /// per distinct request), plus those a router answered with this
    /// server as its lookup shard ([`SizeLServer::count_queries`]).
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

/// A shared epoch-versioned engine with summary caching and a
/// write-through mutation path (see the module docs).
pub struct SizeLServer {
    engine: Arc<RwLock<SizeLEngine>>,
    cache: ShardedCache<SummaryKey, SharedResult>,
    hot: HotSketch<HotKey>,
    queries_served: AtomicU64,
    summaries_computed: AtomicU64,
    mutations_applied: AtomicU64,
    rewarmed: AtomicU64,
}

impl SizeLServer {
    /// A server over an engine it takes ownership of. Use
    /// [`SizeLServer::from_shared`] to share one engine between a server
    /// and other readers.
    pub fn new(engine: SizeLEngine, cfg: ServeConfig) -> Self {
        SizeLServer::from_shared(Arc::new(RwLock::new(engine)), cfg)
    }

    /// A server over a shared, lock-wrapped engine.
    pub fn from_shared(engine: Arc<RwLock<SizeLEngine>>, cfg: ServeConfig) -> Self {
        SizeLServer {
            engine,
            cache: ShardedCache::new(cfg.cache_capacity, cfg.cache_shards),
            hot: HotSketch::new(cfg.hot_capacity),
            queries_served: AtomicU64::new(0),
            summaries_computed: AtomicU64::new(0),
            mutations_applied: AtomicU64::new(0),
            rewarmed: AtomicU64::new(0),
        }
    }

    /// Read access to the shared engine (readers coexist; held guards
    /// block [`SizeLServer::apply`]).
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
    /// A hit feeds the hotness sketch exactly like the computing path. A
    /// miss goes through [`ShardedCache::probe`], which records it under
    /// [`CacheStats::probe_misses`] rather than `misses` — the caller
    /// hands the request to a thread that may wait, whose
    /// [`SizeLServer::summarize_at`] records the authoritative miss for
    /// the same request (counting both as `misses` double-counted every
    /// miss).
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
    /// write-lock acquisition (quiescing readers for its duration) via
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

    /// [`SizeLServer::apply_batch`]'s purge, for a server whose shared
    /// engine another wrote through. A read guard suffices: the epoch
    /// only advances under the write lock.
    pub fn purge_superseded(&self) {
        let engine = self.engine();
        let epoch = engine.epoch();
        self.cache.retain(|k| k.0 == epoch);
    }

    /// Runs one query on the calling thread. Identical output to
    /// [`SizeLEngine::query_with`] on the same engine (modulo `Arc`
    /// wrapping) — the stress suite asserts this byte-for-byte.
    ///
    /// It is `ds_hits` + per-DS memoized `summarize` + the optional
    /// result-list reorder — a faithful recomposition of `query_with`
    /// with the per-DS unit routed through the cache.
    pub fn query(&self, keywords: &str, opts: QueryOptions) -> Vec<SharedResult> {
        let engine = self.engine();
        // The epoch is read under the same guard as the whole computation,
        // so every entry inserted below is keyed by the exact version of
        // the data it was computed from.
        let epoch = engine.epoch();
        let mut results: Vec<SharedResult> = engine
            .ds_hits(keywords)
            .into_iter()
            .map(|tds| self.summarize_cached(&engine, epoch, tds, opts))
            .collect();
        rank_results(&mut results, opts.ranking);
        self.queries_served.fetch_add(1, Ordering::Relaxed);
        results
    }

    /// Serves (from cache, else by computing it on this thread) one
    /// `(t_DS, options)` summary — the per-DS unit a cluster router asks
    /// of a hit's owner after resolving the keyword lookup itself.
    /// Byte-identical to [`SizeLEngine::summarize`] on the same engine
    /// (modulo `Arc`).
    pub fn summarize(&self, tds: TupleRef, opts: QueryOptions) -> SharedResult {
        self.summarize_at(tds, opts).1
    }

    /// [`SizeLServer::summarize`] plus the epoch it was served at — read
    /// under the same guard as the lookup and the computation.
    pub fn summarize_at(&self, tds: TupleRef, opts: QueryOptions) -> (Epoch, SharedResult) {
        let engine = self.engine();
        let epoch = engine.epoch();
        (epoch, self.summarize_cached(&engine, epoch, tds, opts))
    }

    /// Serves a whole batch of `(t_DS, options)` summaries, in submission
    /// order; each item takes its own read guard, so a writer waits out
    /// one summary, never the batch.
    pub fn summarize_batch(&self, items: &[(TupleRef, QueryOptions)]) -> Vec<SharedResult> {
        items.iter().map(|&(tds, opts)| self.summarize(tds, opts)).collect()
    }

    /// Credits `n` queries answered above this server with it as the
    /// keyword-lookup shard: a cluster router resolves the lookup itself
    /// and asks only for per-DS summaries, which are not queries.
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

    /// Serves a whole batch, returning results in submission order.
    /// Duplicate `(keywords, options)` requests are served by a single
    /// keyword-index lookup + summary computation and fanned back out,
    /// amortizing the index work across the batch. Each distinct request
    /// takes its own read guard.
    pub fn batch_query(&self, requests: &[(String, QueryOptions)]) -> Vec<Vec<SharedResult>> {
        let mut first_of: HashMap<(&str, QueryOptions), usize> = HashMap::new();
        let mut served: Vec<Vec<SharedResult>> = Vec::with_capacity(requests.len());
        for (i, (keywords, opts)) in requests.iter().enumerate() {
            let first = *first_of.entry((keywords.as_str(), *opts)).or_insert(i);
            let results =
                if first < i { served[first].clone() } else { self.query(keywords, *opts) };
            served.push(results);
        }
        served
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

    /// The per-DS unit behind every serving path: hotness-recorded,
    /// epoch-keyed, cache-memoized `summarize`, computed on this thread
    /// on a miss. Two threads missing the same key concurrently both
    /// compute it and both insert; `summarize` is deterministic, so
    /// last-write-wins is benign.
    fn summarize_cached(
        &self,
        engine: &SizeLEngine,
        epoch: Epoch,
        tds: TupleRef,
        opts: QueryOptions,
    ) -> SharedResult {
        // Every lookup — hit or miss — feeds the hotness sketch: the
        // refresh worker wants "what readers ask for", which a hit-only
        // signal would starve right after each purge.
        self.hot.record(hot_key(tds, opts));
        let key = summary_key(epoch, tds, opts);
        self.cache.get(&key).unwrap_or_else(|| {
            let computed: SharedResult = Arc::new(engine.summarize(tds, opts));
            self.summaries_computed.fetch_add(1, Ordering::Relaxed);
            self.cache.insert(key, Arc::clone(&computed));
            computed
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SizeLServer>();
        assert_send_sync::<ShardedCache<SummaryKey, SharedResult>>();
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

    /// A cached summary is the cached `Arc` itself, found by one lookup
    /// and computed once. (The serve queue this test's name recalls is
    /// gone: nothing a server does leaves the caller's thread.)
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
        let server = SizeLServer::new(engine, ServeConfig::default());
        let cold = server.summarize(tds, test_opts());
        let warm = server.summarize(tds, test_opts());
        assert!(Arc::ptr_eq(&cold, &warm), "the warm answer is the cached Arc itself");
        let stats = server.stats();
        assert_eq!((stats.cache.hits, stats.cache.misses, stats.summaries_computed), (1, 1, 1));
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = ServeConfig::default();
        assert!(cfg.cache_capacity >= 1);
        assert!(cfg.cache_shards >= 1);
        assert!(cfg.hot_capacity >= 1);
    }
}
