//! Shared workbench for the experiment harness (`repro` binary) and the
//! Criterion benches.
//!
//! [`Bench::new`] builds both evaluation databases, their graphs, and the
//! four ranking settings of Section 6 (GA1-d1, GA1-d2, GA1-d3, GA2-d1),
//! plus one GDS per (DS relation, setting) with `max/mmax` stats. The
//! `fig*` functions in [`figures`] regenerate each table/figure of the
//! paper and return printable markdown.

use std::collections::HashMap;

use sizel_core::osgen::OsContext;
use sizel_datagen::dblp::{self, Dblp, DblpConfig};
use sizel_datagen::tpch::{self, Tpch, TpchConfig};
use sizel_graph::{presets, DataGraph, Gds, SchemaGraph};
use sizel_rank::{compute, dblp_ga, install_importance_order, tpch_ga, GaPreset, RankConfig};
use sizel_storage::{Database, RowId, TableId, TupleRef};
use sizel_util::prng::Prng;

pub mod figures;

/// Which database a case runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DbKind {
    /// Synthetic DBLP.
    Dblp,
    /// Synthetic TPC-H.
    Tpch,
}

/// The four GDS cases of the evaluation (Figures 8-10 panels a-d).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GdsKind {
    /// DBLP Author GDS.
    Author,
    /// DBLP Paper GDS.
    Paper,
    /// TPC-H Customer GDS.
    Customer,
    /// TPC-H Supplier GDS.
    Supplier,
}

impl GdsKind {
    /// All four cases in the paper's panel order.
    pub const ALL: [GdsKind; 4] =
        [GdsKind::Author, GdsKind::Paper, GdsKind::Customer, GdsKind::Supplier];

    /// The database the case runs on.
    pub fn db(self) -> DbKind {
        match self {
            GdsKind::Author | GdsKind::Paper => DbKind::Dblp,
            GdsKind::Customer | GdsKind::Supplier => DbKind::Tpch,
        }
    }

    /// Panel label, as the paper prints it.
    pub fn label(self) -> &'static str {
        match self {
            GdsKind::Author => "DBLP Author",
            GdsKind::Paper => "DBLP Paper",
            GdsKind::Customer => "TPC-H Customer",
            GdsKind::Supplier => "TPC-H Supplier",
        }
    }
}

/// A ranking setting: GA preset + damping factor (Section 6: "two GAs ...
/// and three values of d").
#[derive(Clone, Copy, Debug)]
pub struct Setting {
    /// Display name (`GA1-d1`, ...).
    pub name: &'static str,
    /// The GA preset.
    pub ga: GaPreset,
    /// Damping factor.
    pub d: f64,
}

/// The paper's four evaluated settings; index 0 (GA1-d1) is the default
/// and the evaluator panel's anchor.
pub const SETTINGS: [Setting; 4] = [
    Setting { name: "GA1-d1", ga: GaPreset::Ga1, d: 0.85 },
    Setting { name: "GA1-d2", ga: GaPreset::Ga1, d: 0.10 },
    Setting { name: "GA1-d3", ga: GaPreset::Ga1, d: 0.99 },
    Setting { name: "GA2-d1", ga: GaPreset::Ga2, d: 0.85 },
];

/// The setting index of the uncompressed GA1-d1 scores ([`Bench::ctx_raw`]).
const RAW: usize = SETTINGS.len();

/// The fully-built workbench.
///
/// A context reads its scores from its database's tables, so each
/// ranking setting is installed into a database of its own: `dblp.db` and
/// `tpch.db` hold GA1-d1, and identical regenerated copies hold the
/// others (generation is deterministic, so every `TupleRef` names the
/// same tuple in all of them).
pub struct Bench {
    /// DBLP database + handles, under GA1-d1.
    pub dblp: Dblp,
    /// DBLP schema graph.
    pub dblp_sg: SchemaGraph,
    /// Milliseconds spent building a DBLP data graph (§6.3 report).
    pub dblp_dg_ms: f64,
    /// TPC-H database + handles, under GA1-d1.
    pub tpch: Tpch,
    /// TPC-H schema graph.
    pub tpch_sg: SchemaGraph,
    /// Milliseconds spent building a TPC-H data graph.
    pub tpch_dg_ms: f64,
    /// Whether quick (CI-sized) databases are in use.
    pub quick: bool,
    /// The databases of settings 1.. and of the uncompressed GA1-d1
    /// scores (`RAW`), each with that setting installed.
    copies: HashMap<(DbKind, usize), Database>,
    gds: HashMap<(GdsKind, usize), Gds>,
    /// GDSs with stats under GA1-d1 scores *without* log compression
    /// (heavier skew), used by the avoidance-condition ablation: the
    /// paper's uncompressed ObjectRank regime prunes much more
    /// aggressively.
    raw_gds: HashMap<GdsKind, Gds>,
}

/// Ranks `db` under `preset` and `cfg` and installs the scores into it;
/// returns the per-table maxima.
fn rank_into(
    db: &mut Database,
    sg: &SchemaGraph,
    kind: DbKind,
    preset: GaPreset,
    cfg: &RankConfig,
) -> Vec<f64> {
    let dg = DataGraph::build(db, sg);
    let ga = match kind {
        DbKind::Dblp => dblp_ga(preset, db, sg, &dg),
        DbKind::Tpch => tpch_ga(preset, db, sg, &dg),
    };
    let scores = compute(db, sg, &dg, &ga, cfg);
    install_importance_order(db, &dg, &scores);
    scores.per_table_max
}

impl Bench {
    /// Builds the workbench. `quick = true` uses the small test databases
    /// (seconds); `quick = false` the calibrated benchmark databases.
    pub fn new(quick: bool) -> Bench {
        let dblp_cfg = if quick { DblpConfig::small() } else { DblpConfig::bench() };
        let tpch_cfg = if quick { TpchConfig::tiny() } else { TpchConfig::bench() };
        let mut d = dblp::generate(&dblp_cfg);
        let mut t = tpch::generate(&tpch_cfg);
        let dblp_sg = SchemaGraph::from_database(&d.db);
        let tpch_sg = SchemaGraph::from_database(&t.db);
        let t0 = std::time::Instant::now();
        std::hint::black_box(DataGraph::build(&d.db, &dblp_sg));
        let dblp_dg_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = std::time::Instant::now();
        std::hint::black_box(DataGraph::build(&t.db, &tpch_sg));
        let tpch_dg_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Setting 0 (GA1-d1) goes into the main databases, so the
        // benches run TOP-l probes as sorted prefix scans; every other setting into a copy of its own.
        let mut maxima = HashMap::new();
        let mut copies = HashMap::new();
        let raw_cfg = RankConfig { log_compress: false, ..RankConfig::default() };
        let runs = SETTINGS.iter().map(|s| {
            // d3 = 0.99 converges slowly; a looser epsilon keeps builds
            // fast without changing relative order materially.
            let cfg = RankConfig {
                damping: s.d,
                epsilon: if s.d > 0.95 { 1e-7 } else { 1e-9 },
                max_iterations: 2000,
                ..RankConfig::default()
            };
            (s.ga, cfg)
        });
        for (i, (preset, cfg)) in runs.chain([(GaPreset::Ga1, raw_cfg)]).enumerate() {
            for kind in [DbKind::Dblp, DbKind::Tpch] {
                let copy = copies.entry((kind, i));
                let (db, sg) = match (kind, i) {
                    (DbKind::Dblp, 0) => (&mut d.db, &dblp_sg),
                    (DbKind::Tpch, 0) => (&mut t.db, &tpch_sg),
                    (DbKind::Dblp, _) => {
                        (copy.or_insert_with(|| dblp::generate(&dblp_cfg).db), &dblp_sg)
                    }
                    (DbKind::Tpch, _) => {
                        (copy.or_insert_with(|| tpch::generate(&tpch_cfg).db), &tpch_sg)
                    }
                };
                maxima.insert((kind, i), rank_into(db, sg, kind, preset, &cfg));
            }
        }

        let mut gds = HashMap::new();
        let mut raw_gds = HashMap::new();
        for kind in GdsKind::ALL {
            let (db, sg, root, cfg) = match kind {
                GdsKind::Author => (&d.db, &dblp_sg, d.author, presets::dblp_author_gds_config()),
                GdsKind::Paper => (&d.db, &dblp_sg, d.paper, presets::dblp_paper_gds_config()),
                GdsKind::Customer => {
                    (&t.db, &tpch_sg, t.customer, presets::tpch_customer_gds_config())
                }
                GdsKind::Supplier => {
                    (&t.db, &tpch_sg, t.supplier, presets::tpch_supplier_gds_config())
                }
            };
            let base = Gds::build(db, sg, &cfg, root).restrict(cfg.theta);
            for (i, _) in SETTINGS.iter().enumerate() {
                let mut g = base.clone();
                g.set_stats(&maxima[&(kind.db(), i)]);
                gds.insert((kind, i), g);
            }
            let mut g = base;
            g.set_stats(&maxima[&(kind.db(), RAW)]);
            raw_gds.insert(kind, g);
        }

        Bench {
            dblp: d,
            dblp_sg,
            dblp_dg_ms,
            tpch: t,
            tpch_sg,
            tpch_dg_ms,
            quick,
            copies,
            gds,
            raw_gds,
        }
    }

    /// The database of a kind (GA1-d1 installed).
    pub fn db(&self, kind: DbKind) -> &Database {
        match kind {
            DbKind::Dblp => &self.dblp.db,
            DbKind::Tpch => &self.tpch.db,
        }
    }

    /// The database holding `setting`'s scores.
    fn scored_db(&self, kind: DbKind, setting: usize) -> &Database {
        if setting == 0 {
            self.db(kind)
        } else {
            &self.copies[&(kind, setting)]
        }
    }

    /// The GDS of `(kind, setting)`.
    pub fn gds(&self, kind: GdsKind, setting: usize) -> &Gds {
        &self.gds[&(kind, setting)]
    }

    fn sg(&self, kind: DbKind) -> &SchemaGraph {
        match kind {
            DbKind::Dblp => &self.dblp_sg,
            DbKind::Tpch => &self.tpch_sg,
        }
    }

    /// An [`OsContext`] for a GDS case under a setting.
    pub fn ctx(&self, kind: GdsKind, setting: usize) -> OsContext<'_> {
        let db = self.scored_db(kind.db(), setting);
        OsContext::new(db, self.sg(kind.db()), self.gds(kind, setting), db.fk_order())
    }

    /// An [`OsContext`] for a GDS case under *uncompressed* GA1-d1 scores
    /// (the paper's heavier-skew ObjectRank regime).
    pub fn ctx_raw(&self, kind: GdsKind) -> OsContext<'_> {
        let db = self.scored_db(kind.db(), RAW);
        OsContext::new(db, self.sg(kind.db()), &self.raw_gds[&kind], db.fk_order())
    }

    /// Samples `n` data subjects for a GDS case — the paper's "10 random
    /// OSs per GDS". DBLP cases draw from a connectivity band calibrated to
    /// the paper's Aver|OS| regime (real DBLP's head is far heavier than
    /// our synthetic average author, and the paper's random draws clearly
    /// hit prolific DSs: Aver|OS| = 1116 / 367); TPC-H cases draw from the
    /// upper half. Falls back to the upper half when the band is too thin
    /// (quick-mode databases). Deterministic per kind.
    pub fn samples(&self, kind: GdsKind, n: usize) -> Vec<TupleRef> {
        let (table, degree): (TableId, Box<dyn Fn(RowId) -> usize + '_>) = match kind {
            GdsKind::Author => {
                let ap = self.dblp.db.table(self.dblp.author_paper);
                let col = ap.schema.column_index("author_id").expect("schema");
                let authors = self.dblp.db.table(self.dblp.author);
                (self.dblp.author, Box::new(move |r| ap.rows_where_eq(col, authors.pk_of(r)).len()))
            }
            GdsKind::Paper => {
                let c = self.dblp.db.table(self.dblp.citation);
                let col = c.schema.column_index("cited_id").expect("schema");
                let papers = self.dblp.db.table(self.dblp.paper);
                (self.dblp.paper, Box::new(move |r| c.rows_where_eq(col, papers.pk_of(r)).len()))
            }
            GdsKind::Customer => {
                let o = self.tpch.db.table(self.tpch.orders);
                let col = o.schema.column_index("cust_id").expect("schema");
                let customers = self.tpch.db.table(self.tpch.customer);
                (
                    self.tpch.customer,
                    Box::new(move |r| o.rows_where_eq(col, customers.pk_of(r)).len()),
                )
            }
            GdsKind::Supplier => {
                let ps = self.tpch.db.table(self.tpch.partsupp);
                let col = ps.schema.column_index("supp_id").expect("schema");
                let suppliers = self.tpch.db.table(self.tpch.supplier);
                (
                    self.tpch.supplier,
                    Box::new(move |r| ps.rows_where_eq(col, suppliers.pk_of(r)).len()),
                )
            }
        };
        let t = self.db(kind.db()).table(table);
        let mut ranked: Vec<(usize, RowId)> = t.live_rows().map(|rid| (degree(rid), rid)).collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        // Connectivity bands matching the paper's Aver|OS| per GDS.
        let band: Option<(usize, usize)> = match kind {
            GdsKind::Author => Some((75, 175)), // papers -> |OS| ~ 750..1750
            GdsKind::Paper => Some((200, 800)), // cited-by -> |OS| ~ 210..820
            GdsKind::Customer | GdsKind::Supplier => None,
        };
        let mut rng = Prng::new(0x5A11 ^ kind as u64);
        if let Some((lo, hi)) = band {
            let in_band: Vec<RowId> =
                ranked.iter().filter(|(d, _)| (lo..=hi).contains(d)).map(|&(_, r)| r).collect();
            if in_band.len() >= n {
                let picks = rng.sample_distinct(in_band.len(), n);
                return picks.into_iter().map(|i| TupleRef::new(table, in_band[i])).collect();
            }
        }
        let upper = (ranked.len() / 2).max(n.min(ranked.len()));
        let picks = rng.sample_distinct(upper, n.min(upper));
        picks.into_iter().map(|i| TupleRef::new(table, ranked[i].1)).collect()
    }

    /// The famous-author ladder for the Figure 10(e) scalability axis,
    /// ordered by ascending paper count.
    pub fn ladder(&self) -> Vec<(String, TupleRef)> {
        let authors = self.dblp.db.table(self.dblp.author);
        let mut out: Vec<(String, TupleRef)> = self
            .dblp
            .famous
            .iter()
            .map(|(name, pk)| {
                let rid = authors.by_pk(*pk).expect("famous author exists");
                (name.clone(), TupleRef::new(self.dblp.author, rid))
            })
            .collect();
        out.reverse(); // specs are ordered by descending paper count
        out
    }
}

/// Formats a markdown table from a header and rows.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&header.join(" | "));
    out.push_str(" |\n|");
    for _ in header {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_builds_everything() {
        let b = Bench::new(true);
        for kind in GdsKind::ALL {
            for (i, _) in SETTINGS.iter().enumerate() {
                let g = b.gds(kind, i);
                assert!(g.len() >= 3, "{kind:?} setting {i}");
                // Stats must be populated.
                assert!(g.node(g.root()).mmax_ri > 0.0);
            }
            let samples = b.samples(kind, 5);
            assert_eq!(samples.len(), 5);
            let mut dedup = samples.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), 5, "samples must be distinct");
        }
        let ladder = b.ladder();
        assert_eq!(ladder.len(), 3, "small preset pins three famous authors");
    }

    #[test]
    fn samples_are_deterministic() {
        let b = Bench::new(true);
        assert_eq!(b.samples(GdsKind::Author, 4), b.samples(GdsKind::Author, 4));
    }

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
    }
}
