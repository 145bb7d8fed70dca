//! # sizel-cluster — multi-tenant serving
//!
//! A [`ClusterRouter`] maps tenants to [`SizeLServer`]s — one per tenant
//! database, each an epoch-keyed memo (summary cache, hotness sketch,
//! counters) over its own engine — and routes queries and writes to them:
//!
//! * **Multi-tenant** ([`ClusterRouter::multi_tenant`]): queries and
//!   writes name the tenant and go to its server, isolating tenants'
//!   data, caches, and write paths.
//! * **Partitioned** ([`ClusterRouter::partitioned`]): one unnamed
//!   tenant. Tenant-less calls go to its one server, whose memo is sized
//!   as the N shards the constructor is handed.
//!
//! Every query entry point forwards to [`SizeLServer::answer`], which
//! holds one engine read guard across the keyword lookup and every hit,
//! so each answer sits at one epoch by construction and the answers are
//! byte-identical to one sequential engine (the equivalence suite proves
//! it at every epoch). Writes apply once per engine through its batched
//! path (one `DataGraph` rebuild and one posting settlement per
//! incremental run — see `SizeLEngine::apply_batch`), and the server
//! purges its superseded entries under the same write lock. A
//! [`refresh::RefreshWorker`] per cluster watches epoch bumps and
//! proactively re-warms each server's hottest summary keys under a budget
//! (continual top-k refresh à la Xu, PAPERS.md), so steady-state readers
//! of hot keys don't eat cold recomputes after writes.

use std::collections::HashMap;
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
    /// Per-tenant server configuration (a partitioned cluster multiplies
    /// it by its shard count, see [`ClusterRouter::partitioned`]).
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
    /// A shard's storage/engine layer rejected the operation.
    Storage(StorageError),
    /// The operation does not exist in this router's mode (e.g. a
    /// tenant-less query against a multi-tenant cluster).
    WrongMode(&'static str),
    /// No tenant with that name.
    UnknownTenant(String),
    /// A constructor's input was inconsistent (no engine, partitioned
    /// engines that disagree, a duplicate tenant). Construction only.
    ReplicaMismatch(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Storage(e) => write!(f, "shard storage error: {e}"),
            ClusterError::WrongMode(m) => write!(f, "wrong cluster mode: {m}"),
            ClusterError::UnknownTenant(t) => write!(f, "unknown tenant `{t}`"),
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

/// Per-cluster aggregate view: every shard's counters plus their sum.
#[derive(Clone, Debug, Default)]
pub struct ClusterStats {
    /// One entry per shard, in shard order.
    pub per_shard: Vec<ServerStats>,
    /// The shards' mutation epochs, in shard order.
    pub epochs: Vec<Epoch>,
    /// Refresh-worker counters (zeroes when the worker is disabled).
    pub refresh: RefreshStats,
}

impl ClusterStats {
    /// Sums a counter across shards.
    pub fn total<F: Fn(&ServerStats) -> u64>(&self, f: F) -> u64 {
        self.per_shard.iter().map(f).sum()
    }
}

/// The tenant router (see module docs).
pub struct ClusterRouter {
    /// One server per tenant, in tenant order; a partitioned cluster's
    /// one server is the unnamed tenant.
    shards: Vec<Arc<SizeLServer>>,
    /// Tenant name → shard index; empty for the unnamed tenant.
    tenants: HashMap<String, usize>,
    refresh: Option<refresh::RefreshWorker>,
}

impl ClusterRouter {
    /// A partitioned cluster: one unnamed tenant served over
    /// `engines[0]`. The other engines are checked against it cheaply
    /// (epoch and tuple count) and dropped. Its memo is sized as the
    /// `engines.len()` shards it replaces: cache capacity, cache shards,
    /// hot-key sketch and refresh budget are each multiplied by that
    /// count. The `Vec` and the multiplier go when the signature narrows
    /// to `(engine, cfg)` with ROADMAP item 0.
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
        let refresh = cfg.refresh.map(|r| RefreshConfig { budget: r.budget * n, ..r });
        let engine = engines.into_iter().next().expect("checked non-empty");
        Ok(Self::assemble(vec![SizeLServer::new(engine, serve)], HashMap::new(), refresh))
    }

    /// A multi-tenant cluster: one engine per named tenant database.
    pub fn multi_tenant(tenants: Vec<(String, SizeLEngine)>, cfg: ClusterConfig) -> Result<Self> {
        if tenants.is_empty() {
            return Err(ClusterError::ReplicaMismatch("at least one tenant required".into()));
        }
        let mut by_name = HashMap::with_capacity(tenants.len());
        let mut shards = Vec::with_capacity(tenants.len());
        for (i, (name, engine)) in tenants.into_iter().enumerate() {
            if by_name.insert(name.clone(), i).is_some() {
                return Err(ClusterError::ReplicaMismatch(format!("duplicate tenant `{name}`")));
            }
            shards.push(SizeLServer::new(engine, cfg.serve.clone()));
        }
        Ok(Self::assemble(shards, by_name, cfg.refresh))
    }

    fn assemble(
        shards: Vec<SizeLServer>,
        tenants: HashMap<String, usize>,
        refresh: Option<RefreshConfig>,
    ) -> Self {
        let shards: Vec<Arc<SizeLServer>> = shards.into_iter().map(Arc::new).collect();
        let refresh = refresh.map(|rc| refresh::RefreshWorker::spawn(shards.clone(), rc));
        ClusterRouter { shards, tenants, refresh }
    }

    /// Number of shards: one per tenant, one for a partitioned cluster.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Tenant names with their shard indexes, in shard order (empty for
    /// a partitioned cluster) — the metrics endpoint labels per-shard
    /// series with these.
    pub fn tenant_names(&self) -> Vec<(String, usize)> {
        let mut names: Vec<(String, usize)> =
            self.tenants.iter().map(|(n, &s)| (n.clone(), s)).collect();
        names.sort_by_key(|(_, s)| *s);
        names
    }

    /// Direct access to one shard's server (stats, diagnostics).
    pub fn shard(&self, i: usize) -> &SizeLServer {
        &self.shards[i]
    }

    /// Always 0: a partitioned cluster is one server. Kept only for
    /// callers written against per-subject owner shards (the benchmark's
    /// ladder); it goes when they do.
    pub fn shard_of(&self, _tds: TupleRef) -> usize {
        0
    }

    /// The tenant's shard index.
    pub fn tenant_shard(&self, tenant: &str) -> Result<usize> {
        match self.tenants.get(tenant) {
            Some(&i) => Ok(i),
            None if self.tenants.is_empty() => {
                Err(ClusterError::WrongMode("tenant routing needs a multi-tenant cluster"))
            }
            None => Err(ClusterError::UnknownTenant(tenant.to_owned())),
        }
    }

    /// The unnamed tenant's server — every tenant-less call's target.
    fn unnamed(&self) -> Result<&SizeLServer> {
        match self.tenants.is_empty() {
            true => Ok(&self.shards[0]),
            false => Err(ClusterError::WrongMode("tenant-less calls need a partitioned cluster")),
        }
    }

    /// Runs one keyword query on the partitioned cluster, byte-identical
    /// to the sequential single-engine answer.
    pub fn query(&self, keywords: &str, opts: QueryOptions) -> Result<Vec<SharedResult>> {
        self.batch_query(&[(keywords.to_owned(), opts)]).map(|mut r| r.pop().expect("one request"))
    }

    /// Batch query (partitioned mode): every request answered under one
    /// engine read guard, each merged in rank order.
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
        Ok(self.unnamed()?.answer(requests, true).expect("waiting never declines"))
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
        self.unnamed().ok()?.answer(requests, false)
    }

    /// Cache-only, never-blocking form of [`ClusterRouter::summarize_at`]
    /// (see [`ClusterRouter::try_batch_query_cached`] for the contract).
    pub fn try_summarize_cached_at(
        &self,
        tds: TupleRef,
        opts: QueryOptions,
    ) -> Option<(Epoch, SharedResult)> {
        self.unnamed().ok()?.try_summarize_cached(tds, opts)
    }

    /// Serves one `(t_DS, options)` summary (partitioned mode), returning
    /// it with the epoch it was served at — the per-DS unit the wire
    /// protocol's `Summarize` frame maps to.
    pub fn summarize_at(&self, tds: TupleRef, opts: QueryOptions) -> Result<(Epoch, SharedResult)> {
        Ok(self.unnamed()?.summarize_at(tds, opts))
    }

    /// Runs one keyword query against a tenant's shard.
    pub fn query_tenant(
        &self,
        tenant: &str,
        keywords: &str,
        opts: QueryOptions,
    ) -> Result<Vec<SharedResult>> {
        self.query_tenant_at(tenant, keywords, opts).map(|(_, results)| results)
    }

    /// [`ClusterRouter::query_tenant`] plus the tenant's epoch, read
    /// under the same guard as the query (see
    /// [`ClusterRouter::batch_query_at`]).
    pub fn query_tenant_at(
        &self,
        tenant: &str,
        keywords: &str,
        opts: QueryOptions,
    ) -> Result<(Epoch, Vec<SharedResult>)> {
        let shard = &self.shards[self.tenant_shard(tenant)?];
        let (epoch, mut results) =
            shard.answer(&[(keywords.to_owned(), opts)], true).expect("waiting never declines");
        Ok((epoch, results.pop().expect("one request")))
    }

    /// The batched write path (partitioned mode): the batch applies
    /// **once**, through `SizeLServer::apply_batch`, which purges the
    /// superseded cache entries under the engine write lock; then the
    /// refresh worker is signalled. Returns the new epoch; on error the
    /// engine keeps the applied prefix, the same purge runs, and the
    /// error is returned.
    pub fn apply_batch(&self, ms: Vec<Mutation>) -> Result<Epoch> {
        let outcome = self.unnamed()?.apply_batch(ms);
        self.notify_refresh();
        Ok(outcome?)
    }

    /// The multi-tenant batched write path: mutations are grouped per
    /// tenant shard (preserving each tenant's order) and applied through
    /// each shard's batched path. Returns each touched tenant's new
    /// epoch, in first-touch order.
    pub fn apply_batch_grouped(&self, ms: Vec<(String, Mutation)>) -> Result<Vec<(String, Epoch)>> {
        let mut groups: Vec<(String, usize, Vec<Mutation>)> = Vec::new();
        for (tenant, m) in ms {
            let shard = self.tenant_shard(&tenant)?;
            match groups.iter_mut().find(|(_, s, _)| *s == shard) {
                Some((_, _, batch)) => batch.push(m),
                None => groups.push((tenant, shard, vec![m])),
            }
        }
        let mut epochs = Vec::with_capacity(groups.len());
        for (tenant, shard, batch) in groups {
            let e = self.shards[shard].apply_batch(batch).map_err(|e| {
                self.notify_refresh();
                ClusterError::Storage(e)
            })?;
            epochs.push((tenant, e));
        }
        self.notify_refresh();
        Ok(epochs)
    }

    /// Attaches a disk tier to each shard's engine: shard `i` logs, pages
    /// and recovers in `base_dir/shard-<i>` — `shard-0` alone for a
    /// partitioned cluster, one directory per tenant. A replay may
    /// advance epochs, so the refresh worker is then signalled.
    ///
    /// Returns one [`RecoveryReport`] per shard, in shard order.
    pub fn attach_disk_tier(
        &self,
        base_dir: &std::path::Path,
        cfg: &DiskTierConfig,
    ) -> Result<Vec<RecoveryReport>> {
        let mut reports = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            let mut tier = cfg.clone();
            tier.dir = base_dir.join(format!("shard-{i}"));
            reports.push(shard.attach_disk(tier)?);
        }
        self.notify_refresh();
        Ok(reports)
    }

    /// Per-shard counters (disk tier included once attached), epochs, and
    /// refresh-worker activity.
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            per_shard: self.shards.iter().map(|s| s.stats()).collect(),
            epochs: self.shards.iter().map(|s| s.epoch()).collect(),
            refresh: self.refresh.as_ref().map(|r| r.stats()).unwrap_or_default(),
        }
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
        let e = ClusterError::UnknownTenant("acme".into());
        assert!(e.to_string().contains("acme"));
        assert!(ClusterError::WrongMode("x").to_string().contains("x"));
        let s: ClusterError = StorageError::UnknownTable("nope".into()).into();
        assert!(s.to_string().contains("nope"));
    }
}
