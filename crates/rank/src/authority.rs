//! Authority Transfer Schema Graphs (`G_A`, Figure 13).

use sizel_storage::{Database, TableId};

use sizel_graph::{DataGraph, SchemaGraph};

/// Transfer rates for one FK edge of the schema graph.
#[derive(Clone, Copy, Debug, Default)]
pub struct EdgeRates {
    /// Rate along the FK (referencing tuple -> referenced tuple).
    pub forward: f64,
    /// Rate against the FK (referenced tuple -> referencing tuples, split
    /// equally among them, as ObjectRank divides by type out-degree).
    pub backward: f64,
}

/// ValueRank's per-tuple multiplier: tuples of `table` scale their outgoing
/// authority by `column`'s value, normalized to mean 1 over the relation
/// and capped (Figure 13(b): `S_i = coef · f(attr)`).
#[derive(Clone, Debug)]
pub struct ValueFunction {
    /// The relation whose tuples are value-scaled.
    pub table: TableId,
    /// The numeric column holding the value.
    pub column: usize,
    /// Upper bound on the normalized multiplier (guards convergence).
    pub cap: f64,
}

/// An authority transfer schema graph: rates for every FK edge (both
/// directions), every collapsed M:N link, and optional value functions.
#[derive(Clone, Debug)]
pub struct AuthorityGraph {
    /// Human-readable name (`GA1`, `GA2`), used in experiment output.
    pub name: String,
    /// Indexed by [`sizel_graph::SchemaEdgeId`].
    pub edge_rates: Vec<EdgeRates>,
    /// Indexed by [`sizel_graph::MnLinkId`].
    pub link_rates: Vec<f64>,
    /// ValueRank value functions (empty = plain ObjectRank).
    pub value_fns: Vec<ValueFunction>,
}

impl AuthorityGraph {
    /// A graph with all rates zero.
    pub fn zero(name: &str, sg: &SchemaGraph, dg: &DataGraph) -> Self {
        AuthorityGraph {
            name: name.to_owned(),
            edge_rates: vec![EdgeRates::default(); sg.edges().len()],
            link_rates: vec![0.0; dg.links().len()],
            value_fns: Vec::new(),
        }
    }

    /// A graph with one uniform rate on every edge direction and link
    /// (the paper's DBLP `GA2`: "common transfer rates (0.3) for all
    /// edges").
    pub fn uniform(name: &str, sg: &SchemaGraph, dg: &DataGraph, rate: f64) -> Self {
        AuthorityGraph {
            name: name.to_owned(),
            edge_rates: vec![EdgeRates { forward: rate, backward: rate }; sg.edges().len()],
            link_rates: vec![rate; dg.links().len()],
            value_fns: Vec::new(),
        }
    }

    /// Sets the rates of the FK edge declared as `table.fk_col`.
    pub fn set_edge(
        &mut self,
        db: &Database,
        sg: &SchemaGraph,
        table: &str,
        fk_col: &str,
        forward: f64,
        backward: f64,
    ) -> &mut Self {
        let tid = db.table_id(table).expect("preset table name");
        let col = db.table(tid).schema.column_index(fk_col).expect("preset column name");
        let edge = sg
            .edges()
            .iter()
            .find(|e| e.from == tid && e.fk_col == col)
            .unwrap_or_else(|| panic!("no FK edge {table}.{fk_col}"));
        self.edge_rates[edge.id.index()] = EdgeRates { forward, backward };
        self
    }

    /// Sets the rate of the collapsed M:N link through `junction` whose
    /// *source* side is the relation referenced by `from_col`.
    /// E.g. `set_link(db, sg, dg, "AuthorPaper", "author_id", 0.1)` rates
    /// the Author -> Paper flow.
    pub fn set_link(
        &mut self,
        db: &Database,
        sg: &SchemaGraph,
        dg: &DataGraph,
        junction: &str,
        from_col: &str,
        rate: f64,
    ) -> &mut Self {
        let jid = db.table_id(junction).expect("preset junction name");
        let col = db.table(jid).schema.column_index(from_col).expect("preset column name");
        let idx = dg
            .links()
            .iter()
            .position(|l| l.junction == jid && sg.edge(l.e_from).fk_col == col)
            .unwrap_or_else(|| panic!("no M:N link {junction}.{from_col}"));
        self.link_rates[idx] = rate;
        self
    }

    /// Adds a ValueRank value function.
    pub fn add_value_fn(
        &mut self,
        db: &Database,
        table: &str,
        column: &str,
        cap: f64,
    ) -> &mut Self {
        let tid = db.table_id(table).expect("preset table name");
        let col = db.table(tid).schema.column_index(column).expect("preset column name");
        self.value_fns.push(ValueFunction { table: tid, column: col, cap });
        self
    }

    /// True when this GA uses value functions (i.e. is a ValueRank GA).
    pub fn is_value_rank(&self) -> bool {
        !self.value_fns.is_empty()
    }

    /// Computes per-node value multipliers over the whole database:
    /// 1.0 everywhere except tuples covered by a value function, which get
    /// `|v| / mean(|v|)` capped at `cap`.
    pub fn value_multipliers(&self, db: &Database, dg: &DataGraph) -> Vec<f64> {
        let mut m = vec![1.0; dg.n_nodes()];
        for vf in &self.value_fns {
            let table = db.table(vf.table);
            if table.is_empty() {
                continue;
            }
            let abs = |rid| table.value(rid, vf.column).as_f64().unwrap_or(0.0).abs();
            let sum: f64 = table.live_rows().map(abs).sum();
            let mean = sum / table.len() as f64;
            if mean <= 0.0 {
                continue;
            }
            let base = dg.table_start(vf.table) as usize;
            for rid in table.live_rows() {
                m[base + rid.index()] = (abs(rid) / mean).min(vf.cap);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sizel_datagen::dblp::{generate, DblpConfig};

    fn setup() -> (sizel_datagen::dblp::Dblp, SchemaGraph, DataGraph) {
        let d = generate(&DblpConfig::tiny());
        let sg = SchemaGraph::from_database(&d.db);
        let dg = DataGraph::build(&d.db, &sg);
        (d, sg, dg)
    }

    #[test]
    fn uniform_sets_every_rate() {
        let (_, sg, dg) = setup();
        let ga = AuthorityGraph::uniform("GA2", &sg, &dg, 0.3);
        assert!(ga.edge_rates.iter().all(|r| r.forward == 0.3 && r.backward == 0.3));
        assert!(ga.link_rates.iter().all(|&r| r == 0.3));
        assert!(!ga.is_value_rank());
    }

    #[test]
    fn set_edge_and_link_target_the_right_slots() {
        let (d, sg, dg) = setup();
        let mut ga = AuthorityGraph::zero("GA1", &sg, &dg);
        ga.set_edge(&d.db, &sg, "Paper", "year_id", 0.2, 0.25);
        ga.set_link(&d.db, &sg, &dg, "AuthorPaper", "author_id", 0.1);
        ga.set_link(&d.db, &sg, &dg, "Citation", "citing_id", 0.7);
        let e = sg.edges().iter().find(|e| e.from == d.paper).unwrap();
        assert_eq!(ga.edge_rates[e.id.index()].forward, 0.2);
        assert_eq!(ga.edge_rates[e.id.index()].backward, 0.25);
        // Exactly two links rated, the rest zero.
        let nonzero: Vec<f64> = ga.link_rates.iter().copied().filter(|&r| r > 0.0).collect();
        assert_eq!(nonzero.len(), 2);
        // The rated citation link's source side must be the citing column.
        let idx = ga.link_rates.iter().position(|&r| r == 0.7).unwrap();
        let link = &dg.links()[idx];
        assert_eq!(link.junction, d.citation);
        let col = sg.edge(link.e_from).fk_col;
        assert_eq!(d.db.table(d.citation).schema.columns[col].name, "citing_id");
    }

    #[test]
    fn value_multipliers_mean_one_and_capped() {
        let (d, sg, dg) = setup();
        let mut ga = AuthorityGraph::zero("GA1", &sg, &dg);
        // Use Year.year as a dummy numeric column.
        ga.add_value_fn(&d.db, "Year", "year", 1.5);
        let m = ga.value_multipliers(&d.db, &dg);
        assert_eq!(m.len(), dg.n_nodes());
        let base = dg.table_start(d.year) as usize;
        let years = d.db.table(d.year).len();
        let slice = &m[base..base + years];
        assert!(slice.iter().all(|&v| v > 0.0 && v <= 1.5));
        // Non-covered tuples keep multiplier 1.
        assert_eq!(m[0], 1.0);
    }
}
