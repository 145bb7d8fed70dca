//! # sizel-cluster — multi-tenant sharded serving
//!
//! A [`ClusterRouter`] owns N independent [`SizeLServer`] shards and
//! routes queries and writes across them, in one of two modes:
//!
//! * **Partitioned** ([`ClusterRouter::partitioned`]): N replica engines
//!   of *one* logical database; each Data Subject is owned by exactly one
//!   shard via a deterministic TDS → shard hash
//!   ([`ClusterRouter::shard_of`]), so the expensive per-DS work —
//!   summary computation, cache residency, hotness tracking — partitions
//!   across shards while any shard can resolve the (cheap) keyword
//!   lookup. Cross-shard queries take each hit's summary from its owner
//!   (one cache lookup there; a miss is computed on the asking thread)
//!   and merge the answers in rank order, byte-identical to one
//!   sequential engine (the equivalence suite proves it at every epoch).
//! * **Multi-tenant** ([`ClusterRouter::multi_tenant`]): one engine per
//!   tenant database; queries and writes name the tenant and route to
//!   its shard, isolating tenants' data, caches, and write paths.
//!
//! Writes go through [`ClusterRouter::apply_batch`]: mutations are
//! grouped per shard and applied through the engines' batched path (one
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
    /// Partitioned replicas disagreed (construction-time validation or a
    /// write that left shards at different epochs — a bug, surfaced
    /// rather than served).
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
    /// Replicas of one database; DS ownership by TDS hash.
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
    /// exclusively while mutating *every* affected shard — so a reader
    /// can never observe shard A at the new epoch and shard B at the old
    /// one (torn cross-shard results are impossible by construction, the
    /// cluster analogue of the serve layer's epoch-keyed cache proof).
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
    /// A partitioned cluster over N replica engines of one database
    /// (build them identically — same data, same config; validated
    /// cheaply here). Queries route per Data Subject by
    /// [`ClusterRouter::shard_of`]; writes apply to every replica under
    /// the cluster gate.
    pub fn partitioned(engines: Vec<SizeLEngine>, cfg: ClusterConfig) -> Result<Self> {
        if engines.is_empty() {
            return Err(ClusterError::ReplicaMismatch("at least one shard required".into()));
        }
        let (epoch, tuples) = (engines[0].epoch(), engines[0].db().total_tuples());
        for (i, e) in engines.iter().enumerate() {
            if e.epoch() != epoch || e.db().total_tuples() != tuples {
                return Err(ClusterError::ReplicaMismatch(format!(
                    "shard {i} disagrees with shard 0 (epoch {} vs {}, {} vs {} tuples)",
                    e.epoch(),
                    epoch,
                    e.db().total_tuples(),
                    tuples
                )));
            }
        }
        Ok(Self::assemble(engines, Mode::Partitioned, cfg))
    }

    /// A multi-tenant cluster: one engine per named tenant database.
    pub fn multi_tenant(tenants: Vec<(String, SizeLEngine)>, cfg: ClusterConfig) -> Result<Self> {
        if tenants.is_empty() {
            return Err(ClusterError::ReplicaMismatch("at least one tenant required".into()));
        }
        let mut by_name = HashMap::with_capacity(tenants.len());
        let mut engines = Vec::with_capacity(tenants.len());
        for (i, (name, engine)) in tenants.into_iter().enumerate() {
            if by_name.insert(name.clone(), i).is_some() {
                return Err(ClusterError::ReplicaMismatch(format!("duplicate tenant `{name}`")));
            }
            engines.push(engine);
        }
        Ok(Self::assemble(engines, Mode::MultiTenant(by_name), cfg))
    }

    fn assemble(engines: Vec<SizeLEngine>, mode: Mode, cfg: ClusterConfig) -> Self {
        let shards: Vec<Arc<SizeLServer>> =
            engines.into_iter().map(|e| Arc::new(SizeLServer::new(e, cfg.serve.clone()))).collect();
        let refresh = cfg.refresh.map(|rc| refresh::RefreshWorker::spawn(shards.clone(), rc));
        ClusterRouter { shards, mode, gate: RwLock::new(()), refresh }
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
    /// keyword lookup resolves on shard 0 (any replica could), each hit's
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
        // Any replica resolves the keyword lookup; shard 0 does.
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
        // them: a hit's owner may be this same shard, and a thread that
        // takes a read guard it already holds deadlocks behind any writer
        // queued in between.
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

    /// Applies one mutation cluster-wide (partitioned mode: every
    /// replica) under the exclusive gate. Returns the shards' common new
    /// epoch.
    pub fn apply(&self, m: Mutation) -> Result<Epoch> {
        self.apply_batch(vec![m])
    }

    /// The batched write path (partitioned mode): the whole batch applies
    /// to every replica through `SizeLEngine::apply_batch` — one
    /// `DataGraph` rebuild and one posting settlement per shard per
    /// incremental run — under the exclusive cluster gate, then the
    /// refresh worker is signalled. Returns the common new epoch;
    /// replicas ending at different epochs (impossible for deterministic
    /// mutation streams) surface as [`ClusterError::ReplicaMismatch`].
    pub fn apply_batch(&self, ms: Vec<Mutation>) -> Result<Epoch> {
        if !matches!(self.mode, Mode::Partitioned) {
            return Err(ClusterError::WrongMode(
                "tenant-less writes need a partitioned cluster (see apply_batch_grouped)",
            ));
        }
        let _epoch_gate = self.write_gate();
        let mut epochs = Vec::with_capacity(self.shards.len());
        let mut failure: Option<StorageError> = None;
        for shard in &self.shards {
            // Replicas apply the same stream; a deterministic rejection
            // hits every shard at the same prefix, keeping them aligned.
            match shard.apply_batch(ms.clone()) {
                Ok(e) => epochs.push(e),
                Err(e) => {
                    epochs.push(shard.epoch());
                    failure.get_or_insert(e);
                }
            }
        }
        if let Some(e) = failure {
            self.notify_refresh();
            return Err(e.into());
        }
        if epochs.windows(2).any(|w| w[0] != w[1]) {
            return Err(ClusterError::ReplicaMismatch(format!("epochs diverged: {epochs:?}")));
        }
        self.notify_refresh();
        Ok(epochs[0])
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

    /// Attaches a disk tier to **every** shard under the exclusive gate:
    /// shard `i` gets its own WAL and segment store under
    /// `base_dir/shard-<i>`, so replicas (and tenants) log and page
    /// independently — a replica's recovery replays *its own* WAL
    /// against its own base, and the deterministic mutation stream keeps
    /// replicas aligned exactly as the write path does. Any replay may
    /// advance shard epochs, so the refresh worker is signalled after.
    ///
    /// Returns each shard's [`RecoveryReport`] in shard order.
    pub fn attach_disk_tier(
        &self,
        base_dir: &std::path::Path,
        cfg: &DiskTierConfig,
    ) -> Result<Vec<RecoveryReport>> {
        let _epoch_gate = self.write_gate();
        let mut reports = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            let mut per_shard = cfg.clone();
            per_shard.dir = base_dir.join(format!("shard-{i}"));
            reports.push(shard.attach_disk(per_shard)?);
        }
        self.notify_refresh();
        Ok(reports)
    }

    /// Per-shard counters, epochs, and refresh-worker activity.
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
