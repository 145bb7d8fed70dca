//! Shared test fixtures: small DBLP / TPC-H stacks built once per process
//! ([`dblp_fixture`], [`tpch_fixture`]). A test reads a generation's cost
//! from its own pool (`OsArenaPool::last_cost`), never from a shared
//! fixture's access counter, which tests running in parallel add to; a
//! test that changes the database builds a private one (`build_dblp`).

use std::sync::OnceLock;

use sizel_datagen::dblp::{self, Dblp, DblpConfig};
use sizel_datagen::tpch::{self, Tpch, TpchConfig};
use sizel_graph::{presets, DataGraph, Gds, SchemaGraph};
use sizel_rank::{compute, dblp_ga, tpch_ga, GaPreset, RankConfig};
use sizel_storage::{Database, RowId, TupleRef};

use crate::engine::QueryResult;
use crate::osgen::OsContext;

/// The one canonical byte-exact rendering of a query-result list that
/// every equivalence oracle compares — all scalar fields with floats as
/// raw bits, plus the full structure of each summary (tuples, GDS nodes,
/// parents, child lists, depths, weight bits). Accepts
/// `QueryResult`, `&QueryResult`, and the serving layer's
/// `Arc<QueryResult>` alike; keeping one renderer means every oracle
/// compares the same bytes (a new field gets threaded in exactly once).
pub fn result_fingerprint<R: std::borrow::Borrow<QueryResult>>(results: &[R]) -> String {
    let mut out = String::new();
    for r in results {
        let r = r.borrow();
        out.push_str(&format!(
            "tds={:?} label={:?} global={:016x} in_size={} im={:016x} sel={:?}\n",
            r.tds,
            r.ds_label,
            r.global_score.to_bits(),
            r.input_os_size,
            r.importance.to_bits(),
            r.summary.selected().collect::<Vec<_>>(),
        ));
        for (id, n) in r.summary.iter() {
            out.push_str(&format!(
                "  {:?}: t={:?} g={:?} p={:?} c={:?} d={} w={:016x}\n",
                id,
                n.tuple,
                n.gds_node,
                n.parent,
                r.summary.children(id).collect::<Vec<_>>(),
                n.depth,
                n.weight.to_bits()
            ));
        }
    }
    out
}

/// The largest primary key currently in `table` — mutation tests and
/// benches mint fresh rows above it.
pub fn max_pk(db: &Database, table: &str) -> i64 {
    let tid = db.table_id(table).expect("fixture table name");
    let t = db.table(tid);
    t.live_rows().map(|r| t.pk_of(r)).max().expect("non-empty fixture table")
}

/// Whether the installed importance order still serves `table.col`'s
/// FK prefix scan: one TOP-l probe of the key of the column's first
/// live row, under the live token, counted as fast. On DBLP every TOP-l
/// step of a summary is a junction step — one heap probe whatever the
/// order — so a test that the order survived a write asks an FK column.
pub fn fk_prefix_scan_fires(db: &Database, table: &str, col: &str) -> bool {
    let tid = db.table_id(table).expect("fixture table name");
    let t = db.table(tid);
    let col = t.schema.column_index(col).expect("fixture column name");
    let Some(key) = t.live_rows().find_map(|r| t.value(r, col).as_int()) else { return false };
    let li = |r: RowId| t.installed_score(r);
    let before = db.access().probes();
    db.select_eq_top_l(tid, col, key, 5, f64::NEG_INFINITY, true, &li);
    db.access().probes().fast > before.fast
}

/// A fully-built tiny DBLP stack.
pub struct DblpFixture {
    /// Generated database + table handles.
    pub dblp: Dblp,
    /// Schema graph.
    pub sg: SchemaGraph,
    /// Author GDS(0.7) with stats.
    pub gds: Gds,
    /// Paper GDS(0.7) with stats.
    pub paper_gds: Gds,
    /// Author rows ordered by descending paper count (fixture queries use
    /// `author_tds(i)` to get interesting DSs).
    pub authors_by_degree: Vec<RowId>,
}

impl DblpFixture {
    /// An [`OsContext`] over the Author GDS.
    pub fn ctx(&self) -> OsContext<'_> {
        self.ctx_over(&self.gds)
    }

    /// An [`OsContext`] over `gds`, under the installed GA1-d1 order.
    pub fn ctx_over<'a>(&'a self, gds: &'a Gds) -> OsContext<'a> {
        OsContext::new(&self.dblp.db, &self.sg, gds)
    }

    /// The `i`-th most prolific author as a `t_DS`.
    pub fn author_tds(&self, i: usize) -> TupleRef {
        TupleRef::new(self.dblp.author, self.authors_by_degree[i])
    }
}

/// Builds a private tiny DBLP stack: GA1-d1 scores installed, GDSs with
/// stats.
pub(crate) fn build_dblp() -> DblpFixture {
    let mut d = dblp::generate(&DblpConfig::tiny());
    let sg = SchemaGraph::from_database(&d.db);
    let dg = DataGraph::build(&d.db, &sg);
    let ga = dblp_ga(GaPreset::Ga1, &d.db, &sg, &dg);
    let scores = compute(&d.db, &sg, &dg, &ga, &RankConfig::default());
    sizel_rank::install_importance_order(&mut d.db, &dg, &scores);

    let mut gds =
        Gds::build(&d.db, &sg, &presets::dblp_author_gds_config(), d.author).restrict(0.7);
    gds.set_stats(&scores.per_table_max);
    let mut paper_gds =
        Gds::build(&d.db, &sg, &presets::dblp_paper_gds_config(), d.paper).restrict(0.7);
    paper_gds.set_stats(&scores.per_table_max);

    let ap = d.db.table(d.author_paper);
    let author_col = ap.schema.column_index("author_id").expect("schema");
    let authors = d.db.table(d.author);
    let mut by_degree: Vec<(usize, RowId)> = authors
        .iter()
        .map(|(rid, _)| (ap.rows_where_eq(author_col, authors.pk_of(rid)).len(), rid))
        .collect();
    by_degree.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let authors_by_degree = by_degree.into_iter().map(|(_, r)| r).collect();

    DblpFixture { dblp: d, sg, gds, paper_gds, authors_by_degree }
}

/// The process-wide tiny DBLP fixture.
pub fn dblp_fixture() -> &'static DblpFixture {
    static FIX: OnceLock<DblpFixture> = OnceLock::new();
    FIX.get_or_init(build_dblp)
}

/// A fully-built tiny TPC-H stack.
pub struct TpchFixture {
    /// Generated database + table handles.
    pub tpch: Tpch,
    /// Schema graph.
    pub sg: SchemaGraph,
    /// Customer GDS(0.7) with stats.
    pub customer_gds: Gds,
    /// Supplier GDS(0.7) with stats.
    pub supplier_gds: Gds,
}

impl TpchFixture {
    /// An [`OsContext`] over the Supplier GDS.
    pub fn supplier_ctx(&self) -> OsContext<'_> {
        OsContext::new(&self.tpch.db, &self.sg, &self.supplier_gds)
    }
}

/// Builds a private tiny TPC-H stack: GA1-d1 (ValueRank) scores
/// installed, GDSs with stats.
fn build_tpch() -> TpchFixture {
    let mut t = tpch::generate(&TpchConfig::tiny());
    let sg = SchemaGraph::from_database(&t.db);
    let dg = DataGraph::build(&t.db, &sg);
    let ga = tpch_ga(GaPreset::Ga1, &t.db, &sg, &dg);
    let scores = compute(&t.db, &sg, &dg, &ga, &RankConfig::default());
    sizel_rank::install_importance_order(&mut t.db, &dg, &scores);
    let mut customer_gds =
        Gds::build(&t.db, &sg, &presets::tpch_customer_gds_config(), t.customer).restrict(0.7);
    customer_gds.set_stats(&scores.per_table_max);
    let mut supplier_gds =
        Gds::build(&t.db, &sg, &presets::tpch_supplier_gds_config(), t.supplier).restrict(0.7);
    supplier_gds.set_stats(&scores.per_table_max);
    TpchFixture { tpch: t, sg, customer_gds, supplier_gds }
}

/// The process-wide tiny TPC-H fixture.
pub fn tpch_fixture() -> &'static TpchFixture {
    static FIX: OnceLock<TpchFixture> = OnceLock::new();
    FIX.get_or_init(build_tpch)
}
