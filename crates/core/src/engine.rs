//! The end-to-end engine: database in, ranked size-l OSs out.
//!
//! `SizeLEngine::build` wires the full stack once — schema graph, data
//! graph, global importance, one GDS(θ) per DS relation (with `max/mmax`
//! stats), keyword index — and `query` then serves keyword queries exactly
//! like the paper's system: find the `t_DS` tuples matching all keywords,
//! generate each one's (prelim or complete) OS, size-l it, and return the
//! summaries ranked by the DS tuple's global importance.
//!
//! The engine keeps no data graph and no score vector of its own. The
//! tables hold the index the paper's §6.3 data graph is: FK runs, the
//! primary keys a row's FK cell resolves through, and each row's installed
//! global importance. A rank solve builds
//! a [`DataGraph`] to number the tuples, installs its scores into the
//! tables, and drops both; the engine keeps the per-table maxima the GDS
//! stats need and the token of the installed order.
//!
//! The engine is **epoch-aware**: [`SizeLEngine::apply`] accepts row
//! mutations and keeps every derived structure synchronized, either
//! incrementally ([`RefreshPolicy::Incremental`] — estimated score
//! staged into the tables' snapshots, sorted postings maintained in
//! place, the FK-order token re-stamped so the prefix-scan
//! fast paths stay live) or exactly ([`RefreshPolicy::Exact`] — the
//! escape hatch that re-derives everything, byte-identical to a fresh
//! [`SizeLEngine::build`] over the mutated database). [`SizeLEngine::epoch`] exposes the database's
//! mutation epoch for cache keying (the serving layer keys its summary
//! cache by it).

use std::borrow::Borrow;

use sizel_disk::{PagedStore, Wal};
use sizel_graph::{DataGraph, Gds, GdsConfig, SchemaGraph};
use sizel_rank::{compute, AuthorityGraph, RankConfig};
use sizel_storage::{
    Database, Epoch, FkOrderToken, ScoredBatch, StorageError, TableId, TupleRef, Value,
};

use crate::durability::{decode_batch, DiskTier, DiskTierConfig, DiskTierStats, RecoveryReport};

use crate::algo::AlgoKind;
use crate::keyword::KeywordIndex;
use crate::os::{OsArenaPool, PackedOs};
use crate::osgen::{generate_os_pooled, OsContext, OsSource};
use crate::prelim::generate_prelim_pooled;
use crate::render::{render_os, RenderOptions};

/// Engine construction parameters.
#[derive(Debug)]
pub struct EngineConfig {
    /// DS relations (by table name) with their GDS configurations.
    pub ds_relations: Vec<(String, GdsConfig)>,
    /// Affinity threshold θ used to restrict each GDS (paper default 0.7).
    pub theta: f64,
    /// Global-importance solver configuration.
    pub rank: RankConfig,
    /// Maximum number of DSs materialized per query.
    pub max_results: usize,
}

impl EngineConfig {
    /// A config for the given DS relations with default everything else.
    pub fn new(ds_relations: Vec<(String, GdsConfig)>) -> Self {
        EngineConfig { ds_relations, theta: 0.7, rank: RankConfig::default(), max_results: 10 }
    }
}

/// How multi-DS results are ordered — the paper ranks by the DS tuple's
/// global importance; ranking by the summary's `Im(S)` is the "combined
/// size-l and top-k ranking of OSs" flagged as future work in §7.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ResultRanking {
    /// By `Im(t_DS)` (the paper's ordering).
    #[default]
    DsGlobalImportance,
    /// By the computed summary's total importance `Im(S)`.
    SummaryImportance,
}

/// Per-query options. `Eq`/`Hash` so a serving layer can deduplicate
/// identical requests within a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QueryOptions {
    /// Summary size l, at least 1: a size-l OS always holds t_DS, and
    /// `SizeLEngine::summarize` panics on `l = 0` (the wire codec
    /// rejects it before it gets that far).
    pub l: usize,
    /// Size-l algorithm, over the input `prelim` picks: `Optimal` is the
    /// optimum over that input.
    pub algo: AlgoKind,
    /// Accepted and ignored: one tuple source ([`OsSource`]).
    pub source: OsSource,
    /// Generate a prelim-l OS instead of the complete OS (§5.3). It holds
    /// the top-l set (Definition 2), and an optimal size-l OS only under
    /// depth-monotone local importance (Lemma 3), which DBLP under GA1
    /// lacks: there `Optimal` over it may miss the complete OS's optimum.
    pub prelim: bool,
    /// Result ordering.
    pub ranking: ResultRanking,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            l: 15,
            algo: AlgoKind::TopPath,
            source: OsSource::default(),
            prelim: true,
            ranking: ResultRanking::default(),
        }
    }
}

/// One ranked result of a keyword query: what the serve cache holds per
/// entry, in three allocations (the cache's `Arc` around this struct,
/// the label, the summary's slab).
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The data subject tuple.
    pub tds: TupleRef,
    /// Display text of the DS tuple (first searchable/display column).
    pub ds_label: Box<str>,
    /// Global importance of `t_DS` (the ranking key).
    pub global_score: f64,
    /// Size of the OS the summary was computed from (prelim or complete).
    pub input_os_size: usize,
    /// `Im(S)`: the size-l selection's importance.
    pub importance: f64,
    /// The materialized size-l OS, packed; also the selection
    /// ([`PackedOs::selected`]).
    pub summary: PackedOs,
}

/// Puts a result list that arrives in DS-importance order (the order
/// of [`SizeLEngine::ds_hits`]) into `ranking` order. The one definition
/// of the [`ResultRanking::SummaryImportance`] order — `Im(S)`
/// descending, ties by DS tuple — shared by every layer that recomposes
/// [`SizeLEngine::query_with`] from cached per-DS summaries.
pub fn rank_results<R: Borrow<QueryResult>>(results: &mut [R], ranking: ResultRanking) {
    if ranking == ResultRanking::SummaryImportance {
        results.sort_by(|a, b| {
            let (a, b) = (a.borrow(), b.borrow());
            b.importance.total_cmp(&a.importance).then(a.tds.cmp(&b.tds))
        });
    }
}

/// How [`SizeLEngine::apply`] refreshes the derived state after a
/// mutation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RefreshPolicy {
    /// Maintain everything in place: estimated global importance for the
    /// mutated row (`sizel_rank::estimate_appended_score` for inserts,
    /// `sizel_rank::estimate_updated_score_with` for updates, each with
    /// its documented approximation bound), sorted FK runs appended to
    /// and re-sorted (inserts/updates) or cut where the entry lies
    /// (deletes), keyword postings
    /// retokenized, and the FK-order token re-stamped — no power
    /// iteration, no GDS/keyword rebuild. After
    /// update/delete churn, [`SizeLEngine::reiterate`] recovers
    /// near-exact scores with a few bounded power sweeps instead of the
    /// exact escape hatch.
    #[default]
    Incremental,
    /// The exact escape hatch: re-derive everything (power iteration,
    /// full importance-order install, GDS stats, keyword index) over the
    /// mutated database. Byte-identical to a fresh [`SizeLEngine::build`].
    Exact,
}

/// One write operation against a live engine — an insert, an in-place
/// update, or a delete. Constructed via [`Mutation::insert`],
/// [`Mutation::update`], or [`Mutation::delete`]; the policy defaults to
/// incremental and can be switched with [`Mutation::exact`].
#[derive(Clone, Debug, PartialEq)]
pub struct Mutation {
    /// Target table name.
    pub table: String,
    /// The operation.
    pub op: MutationOp,
    /// Refresh strategy for the derived state.
    pub policy: RefreshPolicy,
}

/// The three mutation kinds flowing through [`SizeLEngine::apply`].
#[derive(Clone, Debug, PartialEq)]
pub enum MutationOp {
    /// Append a new row (validated like [`Database::insert`], plus FK
    /// existence against the catalog before anything is mutated).
    Insert {
        /// The new row's values.
        values: Vec<Value>,
    },
    /// Replace the values of the live row with primary key `pk`; its
    /// sorted-posting entries reposition to the updated score. The
    /// primary key itself is immutable
    /// ([`StorageError::ImmutablePrimaryKey`]).
    Update {
        /// Primary key of the row to update.
        pk: i64,
        /// The full replacement values (same arity as the schema).
        values: Vec<Value>,
    },
    /// Tombstone the live row with primary key `pk` (its posting entries
    /// leave their runs where they lie). The model is
    /// RESTRICT, not CASCADE: a row still referenced by live rows is
    /// rejected with [`StorageError::RestrictedDelete`] — a dangling
    /// reference would silently drop an edge from every summary.
    Delete {
        /// Primary key of the row to delete.
        pk: i64,
    },
}

impl Mutation {
    /// An insert refreshed incrementally.
    pub fn insert(table: impl Into<String>, values: Vec<Value>) -> Self {
        Mutation {
            table: table.into(),
            op: MutationOp::Insert { values },
            policy: RefreshPolicy::Incremental,
        }
    }

    /// An in-place update refreshed incrementally.
    pub fn update(table: impl Into<String>, pk: i64, values: Vec<Value>) -> Self {
        Mutation {
            table: table.into(),
            op: MutationOp::Update { pk, values },
            policy: RefreshPolicy::Incremental,
        }
    }

    /// A delete refreshed incrementally.
    pub fn delete(table: impl Into<String>, pk: i64) -> Self {
        Mutation {
            table: table.into(),
            op: MutationOp::Delete { pk },
            policy: RefreshPolicy::Incremental,
        }
    }

    /// Switches this mutation to the exact-recompute escape hatch.
    #[must_use]
    pub fn exact(mut self) -> Self {
        self.policy = RefreshPolicy::Exact;
        self
    }
}

/// The retained authority-graph builder (see [`SizeLEngine::build`]).
type GaBuilder = Box<dyn Fn(&Database, &SchemaGraph, &DataGraph) -> AuthorityGraph + Send + Sync>;

/// Everything derived from the database besides what the install writes
/// into its tables: rebuilt wholesale by the exact refresh path, built
/// once by [`SizeLEngine::build`].
struct Derived {
    authority: AuthorityGraph,
    per_table_max: Vec<f64>,
    fk_order: FkOrderToken,
    gds_by_table: Vec<Option<Gds>>,
    kw: KeywordIndex,
}

/// The wired-up engine. Owns the database and every derived structure.
pub struct SizeLEngine {
    db: Database,
    sg: SchemaGraph,
    authority: AuthorityGraph,
    /// Per table, the maximum global importance — the GDS `max(Ri)`
    /// stats. A running maximum under incremental estimates.
    per_table_max: Vec<f64>,
    /// The token of the importance order this engine installed, re-stamped
    /// with the database's at every write (see [`OsContext::new`]).
    fk_order: Option<FkOrderToken>,
    gds_by_table: Vec<Option<Gds>>,
    kw: KeywordIndex,
    /// The GA builder, retained so the exact refresh path can re-derive
    /// the authority graph over the mutated database.
    ga: GaBuilder,
    cfg: EngineConfig,
    /// The optional disk tier: WAL-backed batch durability plus
    /// checkpointed posting segments (see [`crate::durability`]).
    disk: Option<DiskTier>,
}

impl SizeLEngine {
    /// Builds the engine: validates FKs, computes global importance with
    /// the GA produced by `ga`, builds each DS relation's GDS(θ) and the
    /// keyword index, and installs the importance-sorted FK order so
    /// TOP-l probes run as prefix scans. The `ga` builder is retained for
    /// [`SizeLEngine::apply`]'s exact refresh path.
    ///
    /// Cost, over bench-scale DBLP (`DblpConfig::bench`): the rank sweeps
    /// dominate, the posting install and the keyword index follow, and FK
    /// validation, the solve-local data graph and the GDSs are small —
    /// `cargo bench -p sizel-bench --bench build_stages` prints the
    /// split, stage by stage through the functions called here, and
    /// EXPERIMENTS.md records its figures.
    pub fn build(
        mut db: Database,
        ga: impl Fn(&Database, &SchemaGraph, &DataGraph) -> AuthorityGraph + Send + Sync + 'static,
        cfg: EngineConfig,
    ) -> Result<Self, StorageError> {
        db.validate_foreign_keys()?;
        // Loading is over and the database is ours for the engine's
        // life: the loader's push-doubling slack need not stay resident.
        db.shrink_to_fit();
        let sg = SchemaGraph::from_database(&db);
        let ga: GaBuilder = Box::new(ga);
        let Derived { authority, per_table_max, fk_order, gds_by_table, kw } =
            Self::derive(&mut db, &sg, ga.as_ref(), &cfg)?;
        Ok(SizeLEngine {
            db,
            sg,
            authority,
            per_table_max,
            fk_order: Some(fk_order),
            gds_by_table,
            kw,
            ga,
            cfg,
            disk: None,
        })
    }

    /// Computes every derived structure over `db`, which receives the
    /// solve's scores through the importance-order install; the solve's
    /// data graph and score vector are dropped here. Shared by
    /// [`SizeLEngine::build`] and the exact refresh of
    /// [`SizeLEngine::apply`] — the two are byte-identical by
    /// construction.
    fn derive(
        db: &mut Database,
        sg: &SchemaGraph,
        ga: &(dyn Fn(&Database, &SchemaGraph, &DataGraph) -> AuthorityGraph + Send + Sync),
        cfg: &EngineConfig,
    ) -> Result<Derived, StorageError> {
        // The exact path's plain row operation left FK runs to rebuild.
        db.build_runs();
        let dg = DataGraph::build(db, sg);
        let authority = ga(db, sg, &dg);
        let scores = compute(db, sg, &dg, &authority, &cfg.rank);
        let fk_order = sizel_rank::install_importance_order(db, &dg, &scores);
        let per_table_max = scores.per_table_max;

        let mut gds_by_table: Vec<Option<Gds>> = (0..db.table_count()).map(|_| None).collect();
        let mut ds_tables = Vec::with_capacity(cfg.ds_relations.len());
        for (name, gds_cfg) in &cfg.ds_relations {
            let tid = db.table_id(name)?;
            let mut gds = Gds::build(db, sg, gds_cfg, tid).restrict(cfg.theta);
            gds.set_stats(&per_table_max);
            gds_by_table[tid.index()] = Some(gds);
            ds_tables.push(tid);
        }
        let kw = KeywordIndex::build(db, &ds_tables);
        Ok(Derived { authority, per_table_max, fk_order, gds_by_table, kw })
    }

    /// The database's mutation epoch — the version every query of this
    /// engine is answered at. Serving layers key caches by it; any
    /// [`SizeLEngine::apply`] advances it, so entries computed against
    /// superseded data are never served again.
    pub fn epoch(&self) -> Epoch {
        self.db.epoch()
    }

    /// Applies one mutation: a batch of one (see
    /// [`SizeLEngine::apply_batch`]). Returns the new epoch; on error
    /// nothing is mutated.
    pub fn apply(&mut self, m: Mutation) -> Result<Epoch, StorageError> {
        self.apply_batch(vec![m])
    }

    /// The exact-policy arm of a batch: applies `m` through the plain
    /// row operation (dropping the table's importance order), then
    /// re-derives everything over the mutated database.
    fn apply_exact(&mut self, m: Mutation) -> Result<(), StorageError> {
        let tid = self.db.table_id(&m.table)?;
        match m.op {
            MutationOp::Insert { values } => {
                self.validate_new_row_fks(tid, &values)?;
                self.db.insert(&m.table, values)?;
            }
            MutationOp::Update { pk, values } => {
                self.validate_new_row_fks(tid, &values)?;
                self.db.update(&m.table, pk, values)?;
            }
            MutationOp::Delete { pk } => {
                self.restrict_delete(tid, &m.table, pk)?;
                self.db.delete(&m.table, pk)?;
            }
        }
        let Derived { authority, per_table_max, fk_order, gds_by_table, kw } =
            Self::derive(&mut self.db, &self.sg, self.ga.as_ref(), &self.cfg)?;
        self.authority = authority;
        self.per_table_max = per_table_max;
        self.fk_order = Some(fk_order);
        self.gds_by_table = gds_by_table;
        self.kw = kw;
        Ok(())
    }

    /// Applies a whole batch of mutations. Each run of incremental
    /// mutations is staged through the storage layer's
    /// [`sizel_storage::ScoredBatch`]: every row operation maintains the
    /// FK runs it touches and writes
    /// its row's score estimate into the table's snapshot, and
    /// settlement re-sorts each touched run once. Then one stats/keyword
    /// refresh covers the whole run, where folding [`SizeLEngine::apply`]
    /// pays it per mutation. Nothing is rebuilt: no data graph, no score
    /// vector. Exact-policy mutations flush the pending run and take the
    /// single-apply escape hatch, so arbitrary policy mixes are
    /// supported.
    ///
    /// The result is **byte-identical** to folding [`SizeLEngine::apply`]
    /// over `ms` in order — same summaries, same epochs, same paper-cost
    /// accounting (tested against the fold) — because each
    /// staged mutation's score estimate is evaluated against exactly the
    /// state the fold would present: the database already holds the run's
    /// earlier rows, and their snapshots already hold their estimates.
    ///
    /// On error the batch stops at the failing mutation with every earlier
    /// mutation applied and the derived state synchronized — the same
    /// prefix the fold would leave.
    /// With a disk tier attached, the whole batch is one WAL record,
    /// appended (and fsynced per the tier's batching) before the first
    /// mutation settles.
    pub fn apply_batch(&mut self, ms: Vec<Mutation>) -> Result<Epoch, StorageError> {
        // Logged before any settlement: a failed append leaves the
        // database untouched, and a crash after it is replayed by the
        // next `attach_disk`.
        if let Some(disk) = &mut self.disk {
            disk.log_batch(self.db.epoch().0, &ms)?;
        }
        self.apply_batch_inner(ms)
    }

    /// [`SizeLEngine::apply_batch`] minus the WAL append (the recovery
    /// replay path).
    fn apply_batch_inner(&mut self, ms: Vec<Mutation>) -> Result<Epoch, StorageError> {
        let mut run: Vec<Mutation> = Vec::new();
        for m in ms {
            match m.policy {
                RefreshPolicy::Incremental => run.push(m),
                RefreshPolicy::Exact => {
                    self.apply_incremental_run(std::mem::take(&mut run))?;
                    self.apply_exact(m)?;
                }
            }
        }
        self.apply_incremental_run(run)?;
        Ok(self.db.epoch())
    }

    /// The shared incremental engine path: stages a run of mixed-kind
    /// mutations with estimated scores, then refreshes the GDS stats and
    /// the keyword index once (see [`SizeLEngine::apply_batch`]). A run
    /// of one is exactly the classic incremental apply.
    ///
    /// Fold equivalence for the mixed kinds rests on the staging order.
    /// Each mutation's estimate reads the installed snapshot, into which
    /// every earlier mutation of the run has already written its own —
    /// the scores the fold would present at that step (a row inserted
    /// then updated in one run gathers at its re-estimate). Keyword
    /// retokenization removes a row's old tokens at mutation time
    /// (captured before the staged update replaces the slot) and adds
    /// final tokens once at settlement; removal of never-indexed tokens
    /// is a no-op, which collapses any intra-run token history to the
    /// same final postings as the fold. And deletes drop the row from the
    /// pending keyword adds, so a row born and killed in one run is never
    /// indexed. Deleted rows keep their last score in the snapshot, where
    /// no reader resolves them.
    fn apply_incremental_run(&mut self, run: Vec<Mutation>) -> Result<(), StorageError> {
        if run.is_empty() {
            return Ok(());
        }
        let mut kw_add = Vec::new();
        let before = self.db.epoch();
        let mut batch = self.db.begin_scored_batch();
        // Staging stops at the first rejected mutation; the prefix that
        // landed settles below either way.
        let staged = run.into_iter().try_for_each(|m| self.stage(&mut batch, &mut kw_add, m));
        self.db.finish_scored_batch(batch);
        // Every mutation that landed advanced the epoch.
        if self.db.epoch() != before {
            self.fk_order = self.db.fk_order();
            for gds in self.gds_by_table.iter_mut().flatten() {
                gds.set_stats(&self.per_table_max);
            }
            for &t in &kw_add {
                self.kw.add_row(&self.db, t.table, t.row);
            }
        }
        staged
    }

    /// Stages one mutation of an incremental run: validates it, estimates
    /// the row's score against the state the fold would present, and lands
    /// it — score included — in the open storage batch. Rows whose final
    /// tokens join the keyword index at settlement collect in `kw_add`.
    /// On error nothing of `m` is applied.
    fn stage(
        &mut self,
        batch: &mut ScoredBatch,
        kw_add: &mut Vec<TupleRef>,
        m: Mutation,
    ) -> Result<(), StorageError> {
        let Mutation { table, op, .. } = m;
        let tid = self.db.table_id(&table)?;
        match op {
            MutationOp::Insert { values } => {
                self.validate_new_row_fks(tid, &values)?;
                let est = sizel_rank::estimate_appended_score(
                    &self.db,
                    &self.sg,
                    &self.authority,
                    &self.cfg.rank,
                    &|t| self.db.installed_score(t),
                    tid,
                    &values,
                );
                let row = self.db.insert_scored_staged(batch, &table, values, est)?;
                self.raise_table_max(tid, est);
                kw_add.push(TupleRef::new(tid, row));
            }
            MutationOp::Update { pk, values } => {
                self.validate_new_row_fks(tid, &values)?;
                let t = self.db.table(tid);
                let row = t
                    .by_pk(pk)
                    .ok_or_else(|| StorageError::MissingRow { table: table.clone(), key: pk })?;
                // Captured before the staged update replaces the slot.
                let old_values = t.row(row);
                let est = sizel_rank::estimate_updated_score(
                    &self.db,
                    &self.sg,
                    &self.authority,
                    &self.cfg.rank,
                    &|t| self.db.installed_score(t),
                    tid,
                    &old_values,
                    &values,
                );
                self.db.update_scored_staged(batch, &table, pk, values, est)?;
                self.raise_table_max(tid, est);
                self.kw.remove_row(tid, row, &self.db.table(tid).schema, &old_values);
                let tref = TupleRef::new(tid, row);
                if !kw_add.contains(&tref) {
                    kw_add.push(tref);
                }
            }
            MutationOp::Delete { pk } => {
                self.restrict_delete(tid, &table, pk)?;
                let row = self.db.delete_scored_staged(batch, &table, pk)?;
                // A tombstoned slot keeps its values: the old tokens are
                // still there to be removed.
                let t = self.db.table(tid);
                self.kw.remove_row(tid, row, &t.schema, &t.row(row));
                let tref = TupleRef::new(tid, row);
                kw_add.retain(|&t| t != tref);
            }
        }
        Ok(())
    }

    /// Folds a staged estimate into the table's maximum.
    fn raise_table_max(&mut self, tid: TableId, est: f64) {
        let mx = &mut self.per_table_max[tid.index()];
        *mx = mx.max(est);
    }

    /// The RESTRICT check before a delete: a row live rows still
    /// reference stays.
    fn restrict_delete(&self, tid: TableId, table: &str, pk: i64) -> Result<(), StorageError> {
        match self.db.find_referencer(tid, pk) {
            Some(rt) => Err(StorageError::RestrictedDelete {
                table: table.to_owned(),
                key: pk,
                referencing_table: rt.to_owned(),
            }),
            None => Ok(()),
        }
    }

    /// Runs the bounded rank re-iteration ([`sizel_rank::reiterate`]) and
    /// re-installs the importance order under the refreshed scores: a few
    /// power sweeps over the current database, over a solve-local data
    /// graph, seeded from the incrementally-maintained (stale) installed
    /// snapshots. This is the
    /// replacement for the exact-rebuild escape hatch after update/delete
    /// churn — the sweeps recover near-exact global importance (≤ 1%
    /// relative L1 after three sweeps on the reference fixture, pinned by
    /// the rank suite) at a constant number of `O(|E|)` passes instead of
    /// the full power iteration, and without the GDS/keyword rebuilds of
    /// [`RefreshPolicy::Exact`]. The epoch advances so serving layers
    /// drop cache entries computed under the superseded scores.
    pub fn reiterate(&mut self, sweeps: u32) -> Epoch {
        let dg = DataGraph::build(&self.db, &self.sg);
        let scores = sizel_rank::reiterate(
            &self.db,
            &self.sg,
            &dg,
            &self.authority,
            &self.cfg.rank,
            &|t| self.db.installed_score(t),
            sweeps,
        );
        self.db.bump_epoch();
        self.fk_order = Some(sizel_rank::install_importance_order(&mut self.db, &dg, &scores));
        self.per_table_max = scores.per_table_max;
        for gds in self.gds_by_table.iter_mut().flatten() {
            gds.set_stats(&self.per_table_max);
        }
        self.db.epoch()
    }

    /// Attaches the disk tier: opens (or creates) the write-ahead log
    /// under `cfg.dir`, **replays** whatever intact records it holds
    /// through the normal batch path — recovering the committed state of
    /// a crashed predecessor byte for byte — then checkpoints the
    /// configured paged tables' sorted FK runs into a segment generation.
    /// The runs stay in RAM and keep serving every probe. From here on
    /// every `apply`/`apply_batch` appends its batch to the WAL before
    /// settling (redo durability).
    ///
    /// The WAL is **kept** across the attach: the replay is
    /// deterministic from the same base database, so a second crash
    /// simply replays again. Truncate it explicitly
    /// ([`SizeLEngine::truncate_wal`]) once the base snapshot the engine
    /// is rebuilt from has itself absorbed the logged mutations.
    ///
    /// A record that decodes but fails validation on re-application is
    /// counted as rejected and skipped — the original run rejected the
    /// identical suffix, so the recovered state still matches. A torn or
    /// checksum-failed tail stops the replay at the last intact record
    /// and is truncated away.
    pub fn attach_disk(&mut self, cfg: DiskTierConfig) -> Result<RecoveryReport, StorageError> {
        if self.disk.is_some() {
            return Err(StorageError::Durability("a disk tier is already attached".into()));
        }
        let mut paged = Vec::with_capacity(cfg.paged_tables.len());
        for name in &cfg.paged_tables {
            paged.push(self.db.table_id(name)?);
        }
        let as_storage = |e: sizel_disk::DiskError| StorageError::Durability(e.to_string());
        std::fs::create_dir_all(&cfg.dir).map_err(|e| StorageError::Durability(e.to_string()))?;
        let (wal, replay) =
            Wal::open(&cfg.dir.join("wal.log"), cfg.fsync_every).map_err(as_storage)?;
        let mut report = RecoveryReport {
            wal_truncated_bytes: replay.truncated_bytes,
            wal_tail_damaged: replay.tail_error.is_some(),
            ..RecoveryReport::default()
        };
        for record in &replay.records {
            let (_, ms) = decode_batch(record).map_err(as_storage)?;
            report.batches_replayed += 1;
            report.mutations_replayed += ms.len();
            if self.apply_batch_inner(ms).is_err() {
                report.batches_rejected += 1;
            }
        }
        let mut store = PagedStore::new(&cfg.dir.join("segments")).map_err(as_storage)?;
        if !paged.is_empty() {
            report.generation = store.checkpoint_from(&self.db, &paged).map_err(as_storage)?;
        }
        self.disk = Some(DiskTier { store, wal, paged, wal_appends: 0, wal_syncs: 0 });
        Ok(report)
    }

    /// Re-checkpoints the paged tables into a fresh segment generation.
    /// The in-RAM sorted runs are first rebuilt from the installed
    /// per-row scores, so the segment snapshots a fresh install whatever
    /// the mutations since the last checkpoint left; the engine adopts the
    /// re-stamped order token. Returns the new generation id.
    pub fn checkpoint_disk(&mut self) -> Result<u64, StorageError> {
        let Some(disk) = self.disk.as_mut() else {
            return Err(StorageError::Durability("no disk tier attached".into()));
        };
        if disk.paged.is_empty() {
            return Err(StorageError::Durability("no tables are paged".into()));
        }
        self.db.rebuild_postings_from_installed().ok_or_else(|| {
            StorageError::Durability("checkpoint requires installed importance scores".into())
        })?;
        self.fk_order = self.db.fk_order();
        disk.store
            .checkpoint_from(&self.db, &disk.paged)
            .map_err(|e| StorageError::Durability(e.to_string()))
    }

    /// Discards the write-ahead log. Call only once every logged
    /// mutation is reflected in the base snapshot the engine would be
    /// rebuilt from after a crash — truncating earlier silently forfeits
    /// redo coverage for the discarded records.
    pub fn truncate_wal(&mut self) -> Result<(), StorageError> {
        let Some(disk) = self.disk.as_mut() else {
            return Err(StorageError::Durability("no disk tier attached".into()));
        };
        disk.wal.truncate().map_err(|e| StorageError::Durability(e.to_string()))
    }

    /// Disk-tier statistics (segment generation, WAL size), or `None`
    /// when no tier is attached.
    pub fn disk_stats(&self) -> Option<DiskTierStats> {
        self.disk.as_ref().map(DiskTier::stats)
    }

    /// Whether a tuple is live (not tombstoned by a delete) — serving
    /// layers consult this before re-warming cached summaries whose TDS
    /// may have died.
    pub fn is_live(&self, t: TupleRef) -> bool {
        self.db.table(t.table).is_live(t.row)
    }

    /// Checks that a prospective row has the right arity and that every
    /// FK resolves in the catalog (the per-row analogue of
    /// [`Database::validate_foreign_keys`], run *before* the insert so a
    /// dangling reference cannot drop an edge from the summaries and a
    /// short row cannot be indexed by the incremental score estimate).
    fn validate_new_row_fks(&self, table: TableId, values: &[Value]) -> Result<(), StorageError> {
        let schema = &self.db.table(table).schema;
        if values.len() != schema.arity() {
            return Err(StorageError::Arity {
                table: schema.name.clone(),
                expected: schema.arity(),
                got: values.len(),
            });
        }
        for fk in &schema.fks {
            match values[fk.column] {
                Value::Null => {}
                Value::Int(k) => {
                    let target = self.db.table_id(&fk.ref_table)?;
                    if self.db.table(target).by_pk(k).is_none() {
                        return Err(StorageError::DanglingForeignKey {
                            table: schema.name.clone(),
                            column: schema.columns[fk.column].name.clone(),
                            key: k,
                        });
                    }
                }
                _ => {
                    return Err(StorageError::TypeMismatch {
                        table: schema.name.clone(),
                        column: schema.columns[fk.column].name.clone(),
                    })
                }
            }
        }
        Ok(())
    }

    /// The owned database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// A tuple's global importance: its table's installed score.
    pub fn score(&self, t: TupleRef) -> f64 {
        self.db.installed_score(t)
    }

    /// Per table, the maximum global importance (the GDS `max(Ri)`
    /// stats).
    pub fn per_table_max(&self) -> &[f64] {
        &self.per_table_max
    }

    /// The GDS(θ) of a DS relation; panics if `table` was not configured
    /// as a DS relation.
    pub fn gds(&self, table: TableId) -> &Gds {
        self.gds_by_table[table.index()]
            .as_ref()
            .expect("table was not configured as a DS relation")
    }

    /// An [`OsContext`] over a DS relation's GDS — allocation-free, so
    /// `summarize` builds one per query (guarded by
    /// `tests/alloc_guard.rs`). Panics if `table` was not configured as a
    /// DS relation.
    pub fn context(&self, table: TableId) -> OsContext<'_> {
        OsContext::new(&self.db, &self.sg, self.gds(table), self.fk_order)
    }

    /// Runs a keyword query with default options (l = 15, Top-Path,
    /// prelim-l input).
    pub fn query(&self, keywords: &str, l: usize) -> Vec<QueryResult> {
        self.query_with(keywords, QueryOptions { l, ..QueryOptions::default() })
    }

    /// Runs a keyword query with explicit options.
    pub fn query_with(&self, keywords: &str, opts: QueryOptions) -> Vec<QueryResult> {
        let mut results: Vec<QueryResult> =
            self.ds_hits(keywords).into_iter().map(|tds| self.summarize(tds, opts)).collect();
        rank_results(&mut results, opts.ranking);
        results
    }

    /// Resolves a keyword query to its DS tuples, ranked by global
    /// importance descending (the paper ranks OSs by their DS's importance;
    /// see also its reference \[9\]) and truncated to `max_results`. The
    /// per-DS summary computation ([`Self::summarize`]) is deliberately
    /// separate so a serving layer can memoize it per `(tds, options)`
    /// across queries. Only the kept hits are sorted: a partial selection
    /// finds them first.
    pub fn ds_hits(&self, keywords: &str) -> Vec<TupleRef> {
        let mut hits = self.kw.search(keywords);
        let order =
            |a: &TupleRef, b: &TupleRef| self.score(*b).total_cmp(&self.score(*a)).then(a.cmp(b));
        sorted_prefix(&mut hits, self.cfg.max_results, order);
        hits
    }

    /// Computes one DS tuple's ranked summary — the per-`t_DS` unit of
    /// [`Self::query_with`]. Deterministic: a pure function of
    /// `(tds, opts.l, opts.algo, opts.prelim)` (`opts.ranking` only
    /// reorders whole result lists), exactly the cache key the serving
    /// layer uses. Adds its probe cost to `db.access()`; panics on `l = 0`.
    ///
    /// The input OS is drawn from a thread-local [`OsArenaPool`] and
    /// released after projection, and the size-l computation draws its
    /// DP/greedy working sets from a thread-local
    /// [`crate::algo::AlgoScratch`] — so a warm serving thread
    /// re-materializes summaries without touching the allocator for the
    /// tree *or* the computation scratch (only the returned
    /// `QueryResult`'s own buffers remain; see `tests/alloc_guard.rs`).
    /// Neither keeps room for more than [`crate::os::POOL_NODES_MAX`]
    /// nodes past the call.
    pub fn summarize(&self, tds: TupleRef, opts: QueryOptions) -> QueryResult {
        thread_local! {
            static POOL: std::cell::RefCell<(OsArenaPool, crate::algo::AlgoScratch)> =
                std::cell::RefCell::new((OsArenaPool::new(), crate::algo::AlgoScratch::new()));
        }
        assert!(opts.l >= 1, "size-l needs l >= 1");
        let ctx = self.context(tds.table);
        POOL.with(|pool| {
            let (pool, scratch) = &mut *pool.borrow_mut();
            let input = if opts.prelim {
                generate_prelim_pooled(&ctx, tds, opts.l, opts.source, pool).0
            } else {
                generate_os_pooled(&ctx, tds, Some(opts.l as u32 - 1), opts.source, pool)
            };
            self.db.access().add(&pool.last_cost());
            let result = opts.algo.compute_pooled(&input, opts.l, scratch);
            let summary = input.project(&result.selected);
            let input_os_size = input.len();
            pool.release(input);
            scratch.trim(input_os_size);
            QueryResult {
                tds,
                ds_label: self.ds_label(tds),
                global_score: self.score(tds),
                input_os_size,
                importance: result.importance,
                summary,
            }
        })
    }

    /// Renders a result's summary in the Example-5 format.
    pub fn render(&self, qr: &QueryResult, opts: &RenderOptions) -> String {
        render_os(&self.db, self.gds(qr.tds.table), &qr.summary.to_os(), opts)
    }

    /// The label in one allocation of its exact size: a first pass
    /// counts the bytes the second writes.
    fn ds_label(&self, tds: TupleRef) -> Box<str> {
        use std::fmt::Write;

        let table = self.db.table(tds.table);
        let col = table
            .schema
            .searchable_columns()
            .next()
            .or_else(|| table.schema.display_columns().next());
        let name = &table.schema.name;
        let write = |out: &mut dyn Write| match col {
            Some(c) => write!(out, "{name}: {}", table.value(tds.row, c)),
            None => write!(out, "{name}: #{}", table.pk_of(tds.row)),
        };
        let mut len = ByteCount(0);
        write(&mut len).expect("counting cannot fail");
        let mut label = String::with_capacity(len.0);
        write(&mut label).expect("writing to a String cannot fail");
        label.into_boxed_str()
    }
}

/// A [`std::fmt::Write`] sink that only counts bytes.
struct ByteCount(usize);

impl std::fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// Leaves the first `k` of `items` under the total order `order`, sorted:
/// `sort_unstable_by` then `truncate(k)`, but only the kept prefix is
/// sorted, after a partial selection puts it in front.
fn sorted_prefix<T>(items: &mut Vec<T>, k: usize, order: impl Fn(&T, &T) -> std::cmp::Ordering) {
    if k == 0 {
        items.clear();
    } else if k < items.len() {
        items.select_nth_unstable_by(k - 1, &order);
        items.truncate(k);
    }
    items.sort_unstable_by(order);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{fk_prefix_scan_fires, max_pk, result_fingerprint as fingerprint};
    use sizel_datagen::dblp::{generate, DblpConfig};
    use sizel_graph::presets;
    use sizel_rank::{dblp_ga, GaPreset};
    use std::sync::OnceLock;

    fn engine() -> &'static SizeLEngine {
        static E: OnceLock<SizeLEngine> = OnceLock::new();
        E.get_or_init(|| {
            let d = generate(&DblpConfig::small());
            SizeLEngine::build(
                d.db,
                |db, sg, dg| dblp_ga(GaPreset::Ga1, db, sg, dg),
                EngineConfig::new(vec![
                    ("Author".into(), presets::dblp_author_gds_config()),
                    ("Paper".into(), presets::dblp_paper_gds_config()),
                ]),
            )
            .expect("engine builds")
        })
    }

    fn fresh_engine(d: sizel_datagen::dblp::Dblp) -> SizeLEngine {
        SizeLEngine::build(
            d.db,
            |db, sg, dg| dblp_ga(GaPreset::Ga1, db, sg, dg),
            EngineConfig::new(vec![
                ("Author".into(), presets::dblp_author_gds_config()),
                ("Paper".into(), presets::dblp_paper_gds_config()),
            ]),
        )
        .expect("engine builds")
    }

    #[test]
    fn exact_apply_is_byte_identical_to_fresh_rebuild() {
        // Mutate a live engine with the exact policy, and build a second
        // engine from scratch over an identically-mutated database: every
        // query answer must match to the float bit.
        let mut live = fresh_engine(generate(&DblpConfig::small()));
        let paper_pk = max_pk(live.db(), "Paper"); // link the new author here
        let author_pk = max_pk(live.db(), "Author") + 1;
        let junction_pk = max_pk(live.db(), "AuthorPaper") + 1;
        let author_row = vec![Value::Int(author_pk), "Zanthi Qyxmont".into()];
        let link_row = vec![Value::Int(junction_pk), Value::Int(author_pk), Value::Int(paper_pk)];
        let e0 = live.epoch();
        let e1 = live.apply(Mutation::insert("Author", author_row.clone()).exact()).unwrap();
        let e2 = live.apply(Mutation::insert("AuthorPaper", link_row.clone()).exact()).unwrap();
        assert!(e0 < e1 && e1 < e2, "every apply advances the epoch");
        assert_eq!(live.epoch(), e2);

        let mut d = generate(&DblpConfig::small());
        d.db.insert("Author", author_row).unwrap();
        d.db.insert("AuthorPaper", link_row).unwrap();
        let rebuilt = fresh_engine(d);

        for kw in ["Faloutsos", "Zanthi", "Power-law"] {
            for opts in [
                QueryOptions { l: 12, ..QueryOptions::default() },
                QueryOptions { l: 8, prelim: false, ..Default::default() },
            ] {
                assert_eq!(
                    fingerprint(&live.query_with(kw, opts)),
                    fingerprint(&rebuilt.query_with(kw, opts)),
                    "{kw} {opts:?} diverged from the fresh rebuild"
                );
            }
        }
    }

    #[test]
    fn incremental_apply_keeps_fast_paths_and_serves_new_rows() {
        let mut live = fresh_engine(generate(&DblpConfig::small()));
        let paper_pk = max_pk(live.db(), "Paper");
        let author_pk = max_pk(live.db(), "Author") + 1;
        let junction_pk = max_pk(live.db(), "AuthorPaper") + 1;
        live.apply(Mutation::insert(
            "Author",
            vec![Value::Int(author_pk), "Wexler Vantriss".into()],
        ))
        .unwrap();
        live.apply(Mutation::insert(
            "AuthorPaper",
            vec![Value::Int(junction_pk), Value::Int(author_pk), Value::Int(paper_pk)],
        ))
        .unwrap();

        // The new author is queryable, with a real summary drawn through
        // the junction row.
        let results = live.query("Wexler", 10);
        assert_eq!(results.len(), 1);
        assert!(results[0].summary.len() > 1, "the linked paper joins the summary");
        results[0].summary.validate().unwrap();

        // The prefix scans over the maintained sorted postings agree with
        // the heap path node for node, complete OSs included, before and
        // after a scored batch that inserts, re-homes and deletes junction
        // rows: byte-identical output proves the re-stamped order correct.
        let agree = |e: &SizeLEngine| {
            for kw in ["Wexler", "Faloutsos", "Power-law"] {
                for tds in e.ds_hits(kw) {
                    crate::osgen::tests::assert_probe_paths_agree(&e.context(tds.table), tds);
                }
            }
        };
        agree(&live);
        let ap = live.db().table(live.db().table_id("AuthorPaper").unwrap());
        let gone = ap.pk_of(ap.live_rows().next().unwrap());
        live.apply_batch(vec![
            Mutation::insert(
                "AuthorPaper",
                vec![Value::Int(junction_pk + 1), Value::Int(author_pk), Value::Int(paper_pk - 1)],
            ),
            Mutation::update(
                "AuthorPaper",
                junction_pk,
                vec![Value::Int(junction_pk), Value::Int(author_pk), Value::Int(paper_pk - 2)],
            ),
            Mutation::delete("AuthorPaper", gone),
        ])
        .unwrap();
        agree(&live);

        // The installed order is retained: an FK prefix scan still fires
        // after the inserts. Prelim generation probes only junction
        // steps, one heap probe each.
        live.db().access().reset();
        let _ = live.query_with("Faloutsos", QueryOptions { l: 15, ..Default::default() });
        let probes = live.db().access().probes();
        assert!(probes.fast == 0 && probes.heap > 0, "junction steps only: {probes:?}");
        let ap = "AuthorPaper";
        assert!(fk_prefix_scan_fires(live.db(), ap, "author_id"), "the order survives inserts");
    }

    /// A mutation script with intra-batch references: the junction rows
    /// link authors/papers created earlier in the same batch, so the
    /// batched FK validation and score resolver must see the staged
    /// prefix exactly like the fold does.
    fn batch_script(e: &SizeLEngine) -> Vec<Mutation> {
        let (a, p, j) =
            (max_pk(e.db(), "Author"), max_pk(e.db(), "Paper"), max_pk(e.db(), "AuthorPaper"));
        let year_pk = {
            let t = e.db().table(e.db().table_id("Year").unwrap());
            t.pk_of(sizel_storage::RowId(0))
        };
        vec![
            Mutation::insert("Author", vec![Value::Int(a + 1), "Orla Vexley".into()]),
            Mutation::insert(
                "AuthorPaper",
                vec![Value::Int(j + 1), Value::Int(a + 1), Value::Int(p)],
            ),
            Mutation::insert(
                "Paper",
                vec![Value::Int(p + 1), "batched summaries at scale".into(), Value::Int(year_pk)],
            ),
            Mutation::insert(
                "AuthorPaper",
                vec![Value::Int(j + 2), Value::Int(a + 1), Value::Int(p + 1)],
            ),
            Mutation::insert("Author", vec![Value::Int(a + 2), "Tamsin Quell".into()]),
            Mutation::insert(
                "AuthorPaper",
                vec![Value::Int(j + 3), Value::Int(a + 2), Value::Int(p + 1)],
            ),
        ]
    }

    #[test]
    fn apply_batch_is_byte_identical_to_the_fold_across_churn_thresholds() {
        // Summaries, epochs, and paper-cost accounting must all match the
        // fold of single applies.
        let mut batched = fresh_engine(generate(&DblpConfig::tiny()));
        let mut folded = fresh_engine(generate(&DblpConfig::tiny()));
        let script = batch_script(&batched);
        // tiny has no famous authors; use a pre-existing generated
        // name token for the "untouched rows" angle.
        let existing = {
            let tid = batched.db().table_id("Author").unwrap();
            let name = batched
                .db()
                .table(tid)
                .value(sizel_storage::RowId(0), 1)
                .as_str()
                .unwrap()
                .to_owned();
            name.split(' ').next().unwrap().to_owned()
        };

        let be = batched.apply_batch(script.clone()).unwrap();
        let mut fe = folded.epoch();
        for m in script {
            fe = folded.apply(m).unwrap();
        }
        assert_eq!(be, fe, "epochs diverged");

        for kw in ["Orla", "Tamsin", "batched", existing.as_str()] {
            for opts in [
                QueryOptions { l: 8, ..QueryOptions::default() },
                QueryOptions { l: 10, ..Default::default() },
                QueryOptions { l: 6, prelim: false, ..Default::default() },
            ] {
                let b0 = batched.db().access().snapshot();
                let b = batched.query_with(kw, opts);
                let b_cost = batched.db().access().snapshot().since(b0);
                let f0 = folded.db().access().snapshot();
                let f = folded.query_with(kw, opts);
                let f_cost = folded.db().access().snapshot().since(f0);
                assert_eq!(
                    fingerprint(&b),
                    fingerprint(&f),
                    "{kw} {opts:?} diverged from the fold"
                );
                assert_eq!(b_cost, f_cost, "{kw} {opts:?} paper-cost accounting diverged");
            }
        }
        // Both paths keep the installed order live for FK prefix scans;
        // summaries probe junction steps, one heap probe each.
        for e in [&batched, &folded] {
            e.db().access().reset();
            let _ = e.query_with(&existing, QueryOptions { l: 10, ..Default::default() });
            let probes = e.db().access().probes();
            assert!(probes.fast == 0 && probes.heap > 0, "junction steps only: {probes:?}");
            let ap = "AuthorPaper";
            assert!(fk_prefix_scan_fires(e.db(), ap, "paper_id"), "fast paths survive the batch");
        }
    }

    #[test]
    fn an_l_past_every_os_size_returns_the_whole_os_on_a_fresh_thread() {
        // The cold arena hint is `4·l` nodes: on a thread whose pool has
        // no parked arena, `l = u32::MAX` once asked the allocator for
        // half a terabyte and aborted the process. An `l` past the OS
        // size means the whole OS, prelim or complete.
        let e = engine();
        std::thread::scope(|s| {
            s.spawn(|| {
                for prelim in [false, true] {
                    let opts = QueryOptions { l: u32::MAX as usize, prelim, ..Default::default() };
                    let results = e.query_with("Faloutsos", opts);
                    assert!(!results.is_empty(), "prelim {prelim}: the keyword has hits");
                    for r in &results {
                        assert_eq!(r.summary.len(), r.input_os_size, "prelim {prelim}: whole OS");
                    }
                }
            });
        });
    }

    #[test]
    #[should_panic(expected = "l >= 1")]
    fn l_zero_is_rejected_before_any_generation() {
        // With prelim-l input, `l = 0` once generated the uncut complete
        // OS (~15 600 nodes for a bench-scale hub) and panicked only when
        // projecting the empty selection.
        let _ = engine().query_with("Faloutsos", QueryOptions { l: 0, ..Default::default() });
    }

    #[test]
    fn incremental_writes_build_no_data_graph() {
        // Neither a batch nor the fold of single applies builds a data
        // graph: every structure a write touches is maintained in place.
        // A re-iteration builds one, for its solve.
        let mut batched = fresh_engine(generate(&DblpConfig::tiny()));
        let mut folded = fresh_engine(generate(&DblpConfig::tiny()));
        let script = batch_script(&batched);

        let before = batched.db().access().maint();
        batched.apply_batch(script.clone()).unwrap();
        let batch_work = batched.db().access().maint().since(before);
        assert_eq!(batch_work.graph_builds, 0, "a batch builds no data graph: {batch_work:?}");

        let before = folded.db().access().maint();
        for m in script {
            folded.apply(m).unwrap();
        }
        let fold_work = folded.db().access().maint().since(before);
        assert_eq!(fold_work.graph_builds, 0, "a single apply builds none: {fold_work:?}");

        let before = folded.db().access().maint();
        folded.reiterate(1);
        assert_eq!(folded.db().access().maint().since(before).graph_builds, 1);
    }

    #[test]
    fn apply_batch_flushes_runs_around_exact_mutations() {
        // An exact mutation mid-batch flushes the pending incremental run
        // and re-derives; the end state must equal the fold's.
        let mut batched = fresh_engine(generate(&DblpConfig::tiny()));
        let mut folded = fresh_engine(generate(&DblpConfig::tiny()));
        let mut script = batch_script(&batched);
        script[2] = script[2].clone().exact();
        let be = batched.apply_batch(script.clone()).unwrap();
        let mut fe = folded.epoch();
        for m in script {
            fe = folded.apply(m).unwrap();
        }
        assert_eq!(be, fe);
        for kw in ["Orla", "batched"] {
            let opts = QueryOptions { l: 8, ..QueryOptions::default() };
            assert_eq!(
                fingerprint(&batched.query_with(kw, opts)),
                fingerprint(&folded.query_with(kw, opts)),
                "{kw} diverged across the exact flush"
            );
        }
    }

    #[test]
    fn apply_batch_error_leaves_the_folds_prefix_applied_and_synchronized() {
        let mut batched = fresh_engine(generate(&DblpConfig::tiny()));
        let mut folded = fresh_engine(generate(&DblpConfig::tiny()));
        let mut script = batch_script(&batched);
        // Poison the 4th mutation with a dangling author FK.
        script[3] = Mutation::insert(
            "AuthorPaper",
            vec![
                Value::Int(max_pk(batched.db(), "AuthorPaper") + 9),
                Value::Int(1 << 40),
                Value::Int(0),
            ],
        );
        let be = batched.apply_batch(script.clone());
        assert!(matches!(be, Err(StorageError::DanglingForeignKey { .. })));
        for m in script {
            if folded.apply(m).is_err() {
                break;
            }
        }
        assert_eq!(batched.epoch(), folded.epoch(), "the applied prefix matches the fold's");
        let opts = QueryOptions { l: 8, ..QueryOptions::default() };
        assert_eq!(
            fingerprint(&batched.query_with("Orla", opts)),
            fingerprint(&folded.query_with("Orla", opts)),
            "derived state is synchronized for the applied prefix"
        );
    }

    #[test]
    fn apply_rejects_bad_rows_without_mutating() {
        let mut live = fresh_engine(generate(&DblpConfig::tiny()));
        let before = live.epoch();
        let dangling = Mutation::insert(
            "AuthorPaper",
            vec![
                Value::Int(max_pk(live.db(), "AuthorPaper") + 1),
                Value::Int(1 << 40),
                Value::Int(0),
            ],
        );
        assert!(matches!(live.apply(dangling), Err(StorageError::DanglingForeignKey { .. })));
        assert!(live.apply(Mutation::insert("Nope", vec![])).is_err());
        assert_eq!(live.epoch(), before, "failed applies leave the epoch untouched");
    }

    #[test]
    fn engine_is_send_and_sync() {
        // The serving layer shares one engine read-only across a worker
        // pool (`Arc<SizeLEngine>`). Every field is either plain owned data
        // or atomics (the storage `AccessCounter`); no interior mutability
        // may creep in.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SizeLEngine>();
        assert_send_sync::<QueryResult>();
        assert_send_sync::<QueryOptions>();
    }

    #[test]
    fn ds_hits_plus_summarize_equals_query_with() {
        // The serving layer recomposes `query_with` from its two halves;
        // they must stay equivalent.
        let e = engine();
        let opts = QueryOptions { l: 12, ..QueryOptions::default() };
        let whole = e.query_with("Faloutsos", opts);
        let parts: Vec<QueryResult> =
            e.ds_hits("Faloutsos").into_iter().map(|t| e.summarize(t, opts)).collect();
        assert_eq!(whole.len(), parts.len());
        for (a, b) in whole.iter().zip(&parts) {
            assert_eq!(a.tds, b.tds);
            assert_eq!(a.importance.to_bits(), b.importance.to_bits());
            assert!(a.summary.selected().eq(b.summary.selected()));
            assert_eq!(a.global_score.to_bits(), b.global_score.to_bits());
        }
    }

    #[test]
    fn q1_returns_three_size_15_summaries() {
        // The paper's Example 5: Q1 = "Faloutsos", l = 15.
        let e = engine();
        let results = e.query("Faloutsos", 15);
        assert_eq!(results.len(), 3, "one OS per Faloutsos brother");
        for r in &results {
            assert_eq!(r.summary.len(), 15);
            r.summary.validate().unwrap();
            assert!(r.ds_label.contains("Faloutsos"));
        }
        // Ranked by global importance, descending.
        for w in results.windows(2) {
            assert!(w[0].global_score >= w[1].global_score);
        }
    }

    #[test]
    fn conjunctive_query_returns_single_ds() {
        let e = engine();
        let results = e.query("Christos Faloutsos", 10);
        assert_eq!(results.len(), 1);
        assert_eq!(&*results[0].ds_label, "Author: Christos Faloutsos");
    }

    #[test]
    fn prelim_and_complete_agree_on_quality_here() {
        let e = engine();
        let a = e.query_with(
            "Christos Faloutsos",
            QueryOptions { l: 10, prelim: true, ..QueryOptions::default() },
        );
        let b = e.query_with(
            "Christos Faloutsos",
            QueryOptions { l: 10, prelim: false, ..QueryOptions::default() },
        );
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert!(a[0].input_os_size <= b[0].input_os_size);
        let ratio = a[0].importance / b[0].importance.max(1e-12);
        assert!(ratio > 0.95, "prelim quality ratio {ratio}");
    }

    #[test]
    fn optimal_dominates_greedies_per_query() {
        let e = engine();
        let mut importances = Vec::new();
        for algo in [AlgoKind::Optimal, AlgoKind::BottomUp, AlgoKind::TopPath] {
            let r = e.query_with(
                "Michalis Faloutsos",
                QueryOptions { l: 12, algo, prelim: false, ..QueryOptions::default() },
            );
            importances.push(r[0].importance);
        }
        assert!(importances[0] >= importances[1] - 1e-9);
        assert!(importances[0] >= importances[2] - 1e-9);
    }

    #[test]
    fn paper_ds_queries_work_too() {
        let e = engine();
        // Query a paper title word; Paper is also a DS relation.
        let results = e.query("Power-law", 8);
        assert!(!results.is_empty());
        assert!(results.iter().any(|r| r.ds_label.starts_with("Paper:")));
    }

    #[test]
    fn render_produces_example5_style_output() {
        let e = engine();
        let results = e.query("Petros Faloutsos", 15);
        let text = e.render(&results[0], &RenderOptions::default());
        assert!(text.starts_with("Author: Petros Faloutsos"));
        assert!(text.contains("(Total 15 tuples)"));
    }

    #[test]
    fn unknown_keywords_return_empty() {
        let e = engine();
        assert!(e.query("xylophone quantum", 5).is_empty());
    }

    #[test]
    fn summary_ranking_orders_by_im_s() {
        let e = engine();
        let opts = QueryOptions {
            l: 10,
            ranking: ResultRanking::SummaryImportance,
            ..QueryOptions::default()
        };
        let results = e.query_with("Faloutsos", opts);
        assert_eq!(results.len(), 3);
        for w in results.windows(2) {
            assert!(w[0].importance >= w[1].importance);
        }
    }

    proptest::proptest! {
        /// `ds_hits`' partial selection keeps what a full sort on the same
        /// order (score descending, then the tuple) and a truncation keep,
        /// in the same order, on hit sets whose scores tie often.
        #[test]
        fn sorted_prefix_equals_sort_then_truncate(
            hits in proptest::collection::vec((0u16..3, 0u32..40), 0..60),
            scores in proptest::collection::vec(0u8..4, 120),
            k in 0usize..70,
        ) {
            let tuple = |&(t, r): &(u16, u32)| TupleRef::new(TableId(t), sizel_storage::RowId(r));
            let hits: Vec<TupleRef> = hits.iter().map(tuple).collect();
            // Each tuple's one score, four distinct values in all.
            let score = |t: &TupleRef| f64::from(scores[t.table.index() * 40 + t.row.index()]);
            let order = |a: &TupleRef, b: &TupleRef| score(b).total_cmp(&score(a)).then(a.cmp(b));
            let mut want = hits.clone();
            want.sort_by(order);
            want.truncate(k);
            let mut got = hits;
            sorted_prefix(&mut got, k, order);
            proptest::prop_assert_eq!(got, want);
        }
    }
}
