//! # sizel-cluster — multi-tenant sharded serving
//!
//! A [`ClusterRouter`] owns N [`SizeLServer`] shards and routes queries
//! and writes across them, in one of two modes:
//!
//! * **Partitioned** ([`ClusterRouter::partitioned`]): N memo shards —
//!   summary cache, hotness sketch, counters — over **one** shared
//!   engine; each Data Subject is owned by exactly one shard via a
//!   deterministic TDS → shard hash ([`ClusterRouter::shard_of`]), so
//!   the per-DS serving state partitions while the data is held once.
//!   Cross-shard queries take each hit's summary from its owner (one
//!   cache lookup there; a miss is computed on the asking thread) and
//!   merge the answers in rank order, byte-identical to one sequential
//!   engine (the equivalence suite proves it at every epoch).
//! * **Multi-tenant** ([`ClusterRouter::multi_tenant`]): one engine per
//!   tenant database; queries and writes name the tenant and route to
//!   its shard, isolating tenants' data, caches, and write paths.
//!
//! Writes apply once per engine through its batched path (one
//! `DataGraph` rebuild and one posting settlement per incremental run —
//! see `SizeLEngine::apply_batch`), under a cluster-wide write gate so
//! readers always observe every shard at one consistent epoch. A
//! [`refresh::RefreshWorker`] per cluster watches epoch bumps and
//! proactively re-warms each shard's hottest summary keys under a budget
//! (continual top-k refresh à la Xu, PAPERS.md), so steady-state readers
//! of hot keys don't eat cold recomputes after writes.

use std::collections::HashMap;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use sizel_core::engine::{rank_results, QueryOptions, SizeLEngine};
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
    /// Per-shard server configuration.
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
    /// engines that disagree, a duplicate tenant). Construction only:
    /// shards sharing one engine cannot diverge afterwards.
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

/// How the router maps work to shards.
#[derive(Debug)]
enum Mode {
    /// Memo partitions over one shared engine; DS ownership by TDS hash.
    Partitioned,
    /// One engine per tenant; name → shard index.
    MultiTenant(HashMap<String, usize>),
}

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

/// The shard router (see module docs).
pub struct ClusterRouter {
    shards: Vec<Arc<SizeLServer>>,
    mode: Mode,
    /// Cluster-wide epoch gate: queries hold it shared, applies hold it
    /// exclusively from the engine write to the last shard's purge — so
    /// a query's keyword-lookup guard and its per-hit guards all see one
    /// epoch (torn results are impossible by construction, the cluster
    /// analogue of the serve layer's epoch-keyed cache proof).
    gate: RwLock<()>,
    refresh: Option<refresh::RefreshWorker>,
}

/// FNV-1a over the `(table, row)` identity — process-independent, so a
/// DS's owner shard is stable across restarts and (because appends never
/// renumber existing rows) across incremental writes; only a shard-count
/// change rebalances.
fn fnv_shard(tds: TupleRef, n_shards: usize) -> usize {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;
    let mut h = OFFSET;
    for b in tds.table.0.to_le_bytes().into_iter().chain(tds.row.0.to_le_bytes()) {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    (h % n_shards as u64) as usize
}

impl ClusterRouter {
    /// A partitioned cluster of `engines.len()` shards, all over
    /// `engines[0]`, shared. The others are checked against it cheaply
    /// (epoch and tuple count) and dropped: the `Vec` narrows to
    /// `(engine, shards)` with ROADMAP item 0. Queries route per Data
    /// Subject by [`ClusterRouter::shard_of`]; a write applies once.
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
        let engine = Arc::new(RwLock::new(engines.into_iter().next().expect("checked non-empty")));
        let shards = (0..n)
            .map(|_| Arc::new(SizeLServer::from_shared(Arc::clone(&engine), cfg.serve.clone())));
        Ok(Self::assemble(shards.collect(), Mode::Partitioned, cfg))
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
            shards.push(Arc::new(SizeLServer::new(engine, cfg.serve.clone())));
        }
        Ok(Self::assemble(shards, Mode::MultiTenant(by_name), cfg))
    }

    fn assemble(shards: Vec<Arc<SizeLServer>>, mode: Mode, cfg: ClusterConfig) -> Self {
        let refresh = cfg.refresh.map(|rc| refresh::RefreshWorker::spawn(shards.clone(), rc));
        ClusterRouter { shards, mode, gate: RwLock::new(()), refresh }
    }

    /// Distinct engines: shard `i < engines()` owns engine `i` — one in
    /// partitioned mode (every shard shares it), one per tenant.
    fn engines(&self) -> usize {
        match self.mode {
            Mode::Partitioned => 1,
            Mode::MultiTenant(_) => self.shards.len(),
        }
    }

    /// Takes the cluster gate shared, recovering from poisoning: the
    /// gate guards no data (it is a `RwLock<()>` ordering fence), so a
    /// panic under the exclusive side carries no torn state — before
    /// this recovery, one panicking apply turned every subsequent query
    /// on every shard into a panic.
    fn read_gate(&self) -> RwLockReadGuard<'_, ()> {
        match self.gate.read() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.gate.clear_poison();
                poisoned.into_inner()
            }
        }
    }

    /// Takes the cluster gate exclusively (see [`ClusterRouter::read_gate`]
    /// for the poison-recovery rationale).
    fn write_gate(&self) -> RwLockWriteGuard<'_, ()> {
        match self.gate.write() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.gate.clear_poison();
                poisoned.into_inner()
            }
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Tenant names with their shard indexes, in shard order (empty for
    /// a partitioned cluster) — the metrics endpoint labels per-shard
    /// series with these.
    pub fn tenant_names(&self) -> Vec<(String, usize)> {
        match &self.mode {
            Mode::MultiTenant(by_name) => {
                let mut names: Vec<(String, usize)> =
                    by_name.iter().map(|(n, &s)| (n.clone(), s)).collect();
                names.sort_by_key(|(_, s)| *s);
                names
            }
            Mode::Partitioned => Vec::new(),
        }
    }

    /// Direct access to one shard's server (stats, diagnostics).
    pub fn shard(&self, i: usize) -> &SizeLServer {
        &self.shards[i]
    }

    /// The owner shard of a Data Subject (partitioned mode's routing
    /// function): deterministic FNV-1a over the tuple identity.
    pub fn shard_of(&self, tds: TupleRef) -> usize {
        fnv_shard(tds, self.shards.len())
    }

    /// The tenant's shard index.
    pub fn tenant_shard(&self, tenant: &str) -> Result<usize> {
        match &self.mode {
            Mode::MultiTenant(by_name) => by_name
                .get(tenant)
                .copied()
                .ok_or_else(|| ClusterError::UnknownTenant(tenant.to_owned())),
            Mode::Partitioned => {
                Err(ClusterError::WrongMode("tenant routing needs a multi-tenant cluster"))
            }
        }
    }

    /// Runs one keyword query across the partitioned cluster: the
    /// keyword lookup resolves on shard 0 (any shard could), each hit's
    /// summary is computed by its owner shard, and the merged result is
    /// byte-identical to the sequential single-engine answer.
    pub fn query(&self, keywords: &str, opts: QueryOptions) -> Result<Vec<SharedResult>> {
        self.batch_query(&[(keywords.to_owned(), opts)]).map(|mut r| r.pop().expect("one request"))
    }

    /// Cross-shard batch query (partitioned mode): all requests' keyword
    /// lookups resolve under one read pass, each hit's summary comes from
    /// its owner shard, and the answers merge per request in rank order.
    pub fn batch_query(
        &self,
        requests: &[(String, QueryOptions)],
    ) -> Result<Vec<Vec<SharedResult>>> {
        self.batch_query_at(requests).map(|(_, results)| results)
    }

    /// [`ClusterRouter::batch_query`] plus the consistent cluster epoch
    /// the batch was served at — read under the *same* gate hold as the
    /// fan-out, so a network front-end can stamp every reply with the
    /// exact version of the data it was computed from (the wire-level
    /// analogue of the serve cache's epoch-keyed staleness proof).
    pub fn batch_query_at(
        &self,
        requests: &[(String, QueryOptions)],
    ) -> Result<(Epoch, Vec<Vec<SharedResult>>)> {
        if !matches!(self.mode, Mode::Partitioned) {
            return Err(ClusterError::WrongMode(
                "tenant-less queries need a partitioned cluster (see query_tenant)",
            ));
        }
        // Every shard reads the one engine; shard 0 resolves the lookup.
        Ok(self
            .answer(0, |tds| self.shard_of(tds), requests, true)
            .expect("waiting never declines"))
    }

    /// Cache-only, never-blocking form of [`ClusterRouter::batch_query_at`]
    /// for the network layer's inline fast path: succeeds only when the
    /// *entire* batch — gate, keyword lookups, and every hit's summary —
    /// can be served without waiting on any lock or computing anything;
    /// on `None` the caller hands the request to a thread that may wait.
    pub fn try_batch_query_cached(
        &self,
        requests: &[(String, QueryOptions)],
    ) -> Option<(Epoch, Vec<Vec<SharedResult>>)> {
        if !matches!(self.mode, Mode::Partitioned) {
            return None;
        }
        self.answer(0, |tds| self.shard_of(tds), requests, false)
    }

    /// The cluster gate, shared: blocking (and poison-recovering) with
    /// `wait` on, a `try_` acquisition — which a queued writer fails —
    /// with it off.
    fn gate_for(&self, wait: bool) -> Option<RwLockReadGuard<'_, ()>> {
        if wait {
            Some(self.read_gate())
        } else {
            self.gate.try_read().ok()
        }
    }

    /// One `(t_DS, options)` summary from shard `owner` by the serve
    /// layer's lookup policy, with the epoch of the guard it was served
    /// under: with `wait` on, one cache lookup and, on a miss, the
    /// computation on this thread; with it off, a probe that neither
    /// blocks nor computes.
    fn summary_on(
        &self,
        owner: usize,
        tds: TupleRef,
        opts: QueryOptions,
        wait: bool,
    ) -> Option<(Epoch, SharedResult)> {
        let owner = &self.shards[owner];
        if wait {
            Some(owner.summarize_at(tds, opts))
        } else {
            owner.try_summarize_cached(tds, opts)
        }
    }

    /// The one read body: keyword lookups resolve on `lookup_shard`, each
    /// hit's summary comes from shard `owner_of(hit)`
    /// ([`ClusterRouter::summary_on`]), and each request's results merge
    /// in rank order, byte-identical to one sequential engine. The gate is
    /// held shared throughout and writes hold it exclusively, so every
    /// shard sits at `epoch` for the whole call. With `wait` off nothing
    /// here blocks or computes: gate and engine guards are `try_`
    /// acquisitions and the first miss returns `None`.
    fn answer(
        &self,
        lookup_shard: usize,
        owner_of: impl Fn(TupleRef) -> usize,
        requests: &[(String, QueryOptions)],
        wait: bool,
    ) -> Option<(Epoch, Vec<Vec<SharedResult>>)> {
        let _epoch_gate = self.gate_for(wait)?;
        let lookup = &self.shards[lookup_shard];
        // The engine guard covers the keyword lookups and nothing after
        // them: every owner shares this engine (partitioned) or is this
        // shard (tenant), and a thread that takes a read guard it already
        // holds deadlocks behind any writer queued in between.
        let (epoch, hits_per_request) = {
            let engine = if wait { lookup.engine() } else { lookup.try_engine()? };
            let hits: Vec<Vec<TupleRef>> =
                requests.iter().map(|(kw, _)| engine.ds_hits(kw)).collect();
            (engine.epoch(), hits)
        };
        let mut merged = Vec::with_capacity(requests.len());
        for ((_, opts), hits) in requests.iter().zip(hits_per_request) {
            let mut results = Vec::with_capacity(hits.len());
            for tds in hits {
                let (served_at, summary) = self.summary_on(owner_of(tds), tds, *opts, wait)?;
                debug_assert_eq!(served_at, epoch, "gate held: one epoch");
                results.push(summary);
            }
            // Hits order (the paper's global-importance rank) or the
            // summary-importance reorder — the exact comparator the
            // sequential engine uses.
            rank_results(&mut results, opts.ranking);
            merged.push(results);
        }
        lookup.count_queries(requests.len());
        Some((epoch, merged))
    }

    /// One summary from its owner shard under the shared gate — the body
    /// of [`ClusterRouter::summarize_at`] and its never-blocking form.
    /// The owner's epoch IS the cluster epoch while the gate is held.
    fn summary(
        &self,
        tds: TupleRef,
        opts: QueryOptions,
        wait: bool,
    ) -> Option<(Epoch, SharedResult)> {
        let _epoch_gate = self.gate_for(wait)?;
        self.summary_on(self.shard_of(tds), tds, opts, wait)
    }

    /// Cache-only, never-blocking form of [`ClusterRouter::summarize_at`]
    /// (see [`ClusterRouter::try_batch_query_cached`] for the contract).
    pub fn try_summarize_cached_at(
        &self,
        tds: TupleRef,
        opts: QueryOptions,
    ) -> Option<(Epoch, SharedResult)> {
        if !matches!(self.mode, Mode::Partitioned) {
            return None;
        }
        self.summary(tds, opts, false)
    }

    /// Serves one `(t_DS, options)` summary from its owner shard
    /// (partitioned mode), returning it with the cluster epoch it was
    /// served at — the per-DS unit the wire protocol's `Summarize` frame
    /// maps to.
    pub fn summarize_at(&self, tds: TupleRef, opts: QueryOptions) -> Result<(Epoch, SharedResult)> {
        if !matches!(self.mode, Mode::Partitioned) {
            return Err(ClusterError::WrongMode(
                "tenant-less summaries need a partitioned cluster",
            ));
        }
        Ok(self.summary(tds, opts, true).expect("waiting never declines"))
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

    /// [`ClusterRouter::query_tenant`] plus the tenant shard's epoch,
    /// read under the same gate hold as the query (see
    /// [`ClusterRouter::batch_query_at`]).
    pub fn query_tenant_at(
        &self,
        tenant: &str,
        keywords: &str,
        opts: QueryOptions,
    ) -> Result<(Epoch, Vec<SharedResult>)> {
        // A tenant's shard resolves its lookups and owns all of its hits.
        let shard = self.tenant_shard(tenant)?;
        let (epoch, mut results) = self
            .answer(shard, |_| shard, &[(keywords.to_owned(), opts)], true)
            .expect("waiting never declines");
        Ok((epoch, results.pop().expect("one request")))
    }

    /// The batched write path (partitioned mode), under the exclusive
    /// gate: the batch applies **once**, through shard 0's
    /// `SizeLServer::apply_batch` (which purges shard 0 under the engine
    /// write lock); every other shard then drops its superseded entries
    /// and the refresh worker is signalled. Returns the new epoch; on
    /// error the engine keeps the applied prefix, the same purge runs,
    /// and the error is returned.
    pub fn apply_batch(&self, ms: Vec<Mutation>) -> Result<Epoch> {
        if !matches!(self.mode, Mode::Partitioned) {
            return Err(ClusterError::WrongMode(
                "tenant-less writes need a partitioned cluster (see apply_batch_grouped)",
            ));
        }
        let _epoch_gate = self.write_gate();
        let outcome = self.shards[0].apply_batch(ms);
        for shard in &self.shards[1..] {
            shard.purge_superseded();
        }
        self.notify_refresh();
        Ok(outcome?)
    }

    /// The multi-tenant batched write path: mutations are grouped per
    /// tenant shard (preserving each tenant's order) and applied through
    /// each shard's batched path under the exclusive gate. Returns each
    /// touched tenant's new epoch, in first-touch order.
    pub fn apply_batch_grouped(&self, ms: Vec<(String, Mutation)>) -> Result<Vec<(String, Epoch)>> {
        let mut groups: Vec<(String, usize, Vec<Mutation>)> = Vec::new();
        for (tenant, m) in ms {
            let shard = self.tenant_shard(&tenant)?;
            match groups.iter_mut().find(|(_, s, _)| *s == shard) {
                Some((_, _, batch)) => batch.push(m),
                None => groups.push((tenant, shard, vec![m])),
            }
        }
        let _epoch_gate = self.write_gate();
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

    /// Attaches a disk tier to each distinct engine once, under the
    /// exclusive gate: engine `i` logs, pages and recovers in
    /// `base_dir/shard-<i>` — `shard-0` alone in partitioned mode, one
    /// directory per tenant. A replay may advance epochs, so the shards
    /// sharing an engine then drop superseded entries and the refresh
    /// worker is signalled.
    ///
    /// Returns one [`RecoveryReport`] per engine, in shard order.
    pub fn attach_disk_tier(
        &self,
        base_dir: &std::path::Path,
        cfg: &DiskTierConfig,
    ) -> Result<Vec<RecoveryReport>> {
        let _epoch_gate = self.write_gate();
        let (owners, sharers) = self.shards.split_at(self.engines());
        let mut reports = Vec::with_capacity(owners.len());
        for (i, shard) in owners.iter().enumerate() {
            let mut tier = cfg.clone();
            tier.dir = base_dir.join(format!("shard-{i}"));
            reports.push(shard.attach_disk(tier)?);
        }
        for shard in sharers {
            shard.purge_superseded();
        }
        self.notify_refresh();
        Ok(reports)
    }

    /// Per-shard counters, epochs, and refresh-worker activity. An
    /// engine's disk tier is reported once, by the shard that owns it:
    /// shard 0 in partitioned mode, every shard in multi-tenant mode.
    pub fn stats(&self) -> ClusterStats {
        let owners = self.engines();
        ClusterStats {
            per_shard: (self.shards.iter().enumerate())
                .map(|(i, shard)| {
                    let stats = shard.stats();
                    ServerStats { disk: stats.disk.filter(|_| i < owners), ..stats }
                })
                .collect(),
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
    use sizel_storage::{RowId, TableId};

    #[test]
    fn shard_hash_is_deterministic_and_spreads() {
        let tds = |t: u16, r: u32| TupleRef::new(TableId(t), RowId(r));
        // Stable across calls (and, being pure FNV-1a over the identity,
        // across processes).
        assert_eq!(fnv_shard(tds(1, 7), 4), fnv_shard(tds(1, 7), 4));
        // Different identities spread over shards.
        let mut seen = [false; 4];
        for r in 0..64 {
            seen[fnv_shard(tds(0, r), 4)] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 subjects cover all 4 shards");
        // Single shard degenerates to 0.
        assert_eq!(fnv_shard(tds(3, 9), 1), 0);
    }

    #[test]
    fn cluster_error_formats() {
        let e = ClusterError::UnknownTenant("acme".into());
        assert!(e.to_string().contains("acme"));
        assert!(ClusterError::WrongMode("x").to_string().contains("x"));
        let s: ClusterError = StorageError::UnknownTable("nope".into()).into();
        assert!(s.to_string().contains("nope"));
    }
}
