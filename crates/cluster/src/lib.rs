//! # sizel-cluster — the router in front of one server
//!
//! A [`ClusterRouter`] holds exactly one [`SizeLServer`] — an epoch-keyed
//! memo (summary cache, hotness sketch, counters) over one engine — and
//! routes every query and write to it. The paper answers a keyword query
//! over one database; so does the router.
//!
//! [`ClusterRouter::partitioned`] still takes a `Vec` of engines and
//! sizes the memo as that many shards, and `shards()`, `shard(0)` and
//! `shard_of` still answer as one shard. They are one-server shims for
//! the frozen `benchmark/` package and go with ROADMAP item 0.
//!
//! Every query entry point forwards to [`SizeLServer::answer`], which
//! holds one engine read guard across the keyword lookup and every hit,
//! so each answer sits at one epoch by construction and the answers are
//! byte-identical to one sequential engine (the equivalence suite proves
//! it at every epoch). A write applies once through the engine's batched
//! path (one posting settlement per incremental run — see
//! `SizeLEngine::apply_batch`), and the server purges its superseded
//! entries under the same write lock. A `refresh::RefreshWorker`
//! watches the server's epoch and proactively re-warms its hottest
//! summary keys under a budget (continual top-k refresh à la Xu,
//! PAPERS.md), so steady-state readers of hot keys don't eat cold
//! recomputes after writes.

use std::sync::Arc;

use sizel_core::engine::{QueryOptions, SizeLEngine};
use sizel_serve::{
    DiskTierConfig, Mutation, RecoveryReport, ServeConfig, ServerStats, SharedResult, SizeLServer,
};
use sizel_storage::{Epoch, StorageError, TupleRef};

pub mod refresh;

pub use refresh::{RefreshConfig, RefreshStats};
pub use sizel_serve::HotKey;

/// Cluster construction parameters.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// The server's configuration (a partitioned cluster multiplies it
    /// by the engine count, see [`ClusterRouter::partitioned`]).
    pub serve: ServeConfig,
    /// Continual-refresh worker configuration; `None` disables the
    /// worker (hot keys are then only demand-filled).
    pub refresh: Option<RefreshConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig { serve: ServeConfig::default(), refresh: Some(RefreshConfig::default()) }
    }
}

/// Everything that can go wrong at the cluster layer.
#[derive(Debug)]
pub enum ClusterError {
    /// The storage/engine layer rejected the operation.
    Storage(StorageError),
    /// `partitioned`'s input was inconsistent: no engine, or engines
    /// that disagree. Construction only.
    ReplicaMismatch(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Storage(e) => write!(f, "shard storage error: {e}"),
            ClusterError::ReplicaMismatch(m) => write!(f, "replica mismatch: {m}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<StorageError> for ClusterError {
    fn from(e: StorageError) -> Self {
        ClusterError::Storage(e)
    }
}

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, ClusterError>;

/// The router's view: the server's counters and epoch, plus the refresh
/// worker's. `per_shard` and `epochs` are one-element `Vec`s, a shape
/// kept for the frozen `benchmark/` package.
#[derive(Clone, Debug, Default)]
pub struct ClusterStats {
    /// The one server's counters.
    pub per_shard: Vec<ServerStats>,
    /// The one server's mutation epoch.
    pub epochs: Vec<Epoch>,
    /// Refresh-worker counters (zero counts and no lag when the worker
    /// is disabled).
    pub refresh: RefreshStats,
}

/// The router in front of one server (see module docs).
pub struct ClusterRouter {
    server: Arc<SizeLServer>,
    refresh: Option<refresh::RefreshWorker>,
}

impl ClusterRouter {
    /// A router over `engines[0]`. The other engines are checked against
    /// it cheaply (epoch and tuple count) and dropped. Its memo is sized
    /// as the `engines.len()` shards it replaces: cache capacity, cache
    /// shards, hot-key sketch and refresh budget are each multiplied by
    /// that count. The `Vec` and the multiplier go when the signature
    /// narrows to `(engine, cfg)` with ROADMAP item 0.
    pub fn partitioned(engines: Vec<SizeLEngine>, cfg: ClusterConfig) -> Result<Self> {
        if engines.is_empty() {
            return Err(ClusterError::ReplicaMismatch("at least one shard required".into()));
        }
        let (epoch, tuples) = (engines[0].epoch(), engines[0].db().total_tuples());
        for (i, e) in engines.iter().enumerate() {
            if e.epoch() != epoch || e.db().total_tuples() != tuples {
                return Err(ClusterError::ReplicaMismatch(format!(
                    "shard {i} disagrees with shard 0 (epoch {} vs {epoch}, {} vs {tuples} tuples)",
                    e.epoch(),
                    e.db().total_tuples(),
                )));
            }
        }
        let n = engines.len();
        let serve = ServeConfig {
            cache_capacity: cfg.serve.cache_capacity * n,
            cache_shards: cfg.serve.cache_shards * n,
            hot_capacity: cfg.serve.hot_capacity * n,
        };
        let engine = engines.into_iter().next().expect("checked non-empty");
        let server = Arc::new(SizeLServer::new(engine, serve));
        let refresh = cfg.refresh.map(|r| {
            refresh::RefreshWorker::spawn(
                Arc::clone(&server),
                RefreshConfig { budget: r.budget * n, ..r },
            )
        });
        Ok(ClusterRouter { server, refresh })
    }

    /// Always 1: the router holds one server.
    pub fn shards(&self) -> usize {
        1
    }

    /// The server, for stats and diagnostics. `i` must be 0.
    pub fn shard(&self, i: usize) -> &SizeLServer {
        assert_eq!(i, 0, "the router holds one server");
        &self.server
    }

    /// Always 0: the router holds one server. Kept only for callers
    /// written against per-subject owner shards (the benchmark's
    /// ladder); it goes when they do.
    pub fn shard_of(&self, _tds: TupleRef) -> usize {
        0
    }

    /// Runs one keyword query, byte-identical to the sequential
    /// single-engine answer.
    pub fn query(&self, keywords: &str, opts: QueryOptions) -> Result<Vec<SharedResult>> {
        self.batch_query(&[(keywords.to_owned(), opts)]).map(|mut r| r.pop().expect("one request"))
    }

    /// Batch query: every request answered under one engine read guard,
    /// each merged in rank order.
    pub fn batch_query(
        &self,
        requests: &[(String, QueryOptions)],
    ) -> Result<Vec<Vec<SharedResult>>> {
        self.batch_query_at(requests).map(|(_, results)| results)
    }

    /// [`ClusterRouter::batch_query`] plus the epoch the batch was served
    /// at — read under the *same* guard as every lookup, so a network
    /// front-end can stamp every reply with the exact version of the data
    /// it was computed from (the wire-level analogue of the serve cache's
    /// epoch-keyed staleness proof).
    pub fn batch_query_at(
        &self,
        requests: &[(String, QueryOptions)],
    ) -> Result<(Epoch, Vec<Vec<SharedResult>>)> {
        Ok(self.server.answer(requests, true).expect("waiting never declines"))
    }

    /// Cache-only, never-blocking form of [`ClusterRouter::batch_query_at`]
    /// for the network layer's inline fast path: succeeds only when the
    /// *entire* batch — engine guard, keyword lookups, and every hit's
    /// summary — can be served without waiting on any lock or computing
    /// anything; on `None` the caller hands the request to a thread that
    /// may wait.
    pub fn try_batch_query_cached(
        &self,
        requests: &[(String, QueryOptions)],
    ) -> Option<(Epoch, Vec<Vec<SharedResult>>)> {
        self.server.answer(requests, false)
    }

    /// Cache-only, never-blocking form of [`ClusterRouter::summarize_at`]
    /// (see [`ClusterRouter::try_batch_query_cached`] for the contract).
    pub fn try_summarize_cached_at(
        &self,
        tds: TupleRef,
        opts: QueryOptions,
    ) -> Option<(Epoch, SharedResult)> {
        self.server.try_summarize_cached(tds, opts)
    }

    /// Serves one `(t_DS, options)` summary, returning it with the epoch
    /// it was served at — the per-DS unit the wire protocol's
    /// `Summarize` frame maps to.
    pub fn summarize_at(&self, tds: TupleRef, opts: QueryOptions) -> Result<(Epoch, SharedResult)> {
        Ok(self.server.summarize_at(tds, opts))
    }

    /// The batched write path: the batch applies **once**, through
    /// `SizeLServer::apply_batch`, which purges the superseded cache
    /// entries under the engine write lock; then the refresh worker is
    /// signalled. Returns the new epoch; on error the engine keeps the
    /// applied prefix, the same purge runs, and the error is returned.
    pub fn apply_batch(&self, ms: Vec<Mutation>) -> Result<Epoch> {
        let outcome = self.server.apply_batch(ms);
        self.notify_refresh();
        Ok(outcome?)
    }

    /// Attaches a disk tier to the engine, which logs, pages and
    /// recovers in `base_dir/shard-0`. A replay may advance the epoch,
    /// so the refresh worker is then signalled. Returns the one
    /// [`RecoveryReport`] in a `Vec`, the shape the frozen `benchmark/`
    /// package reads.
    pub fn attach_disk_tier(
        &self,
        base_dir: &std::path::Path,
        cfg: &DiskTierConfig,
    ) -> Result<Vec<RecoveryReport>> {
        let tier = DiskTierConfig { dir: base_dir.join("shard-0"), ..cfg.clone() };
        let report = self.server.attach_disk(tier)?;
        self.notify_refresh();
        Ok(vec![report])
    }

    /// The server's counters (disk tier included once attached), its
    /// epoch, and refresh-worker activity.
    pub fn stats(&self) -> ClusterStats {
        let epoch = self.server.epoch();
        let refresh = match &self.refresh {
            Some(r) => r.stats(),
            // No worker is never behind: zero lag.
            None => RefreshStats { last_epoch: epoch.get(), ..RefreshStats::default() },
        };
        ClusterStats { per_shard: vec![self.server.stats()], epochs: vec![epoch], refresh }
    }

    fn notify_refresh(&self) {
        if let Some(r) = &self.refresh {
            r.notify();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_error_formats() {
        let e = ClusterError::ReplicaMismatch("shard 2".into());
        assert!(e.to_string().contains("shard 2"));
        let s: ClusterError = StorageError::UnknownTable("nope".into()).into();
        assert!(s.to_string().contains("nope"));
    }
}
