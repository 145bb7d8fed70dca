//! GA presets (Figure 13) and the paper's damping factors.

use sizel_storage::Database;

use sizel_graph::{DataGraph, SchemaGraph};

use crate::authority::AuthorityGraph;

/// The paper's default damping factor d1.
pub const D1: f64 = 0.85;
/// The paper's low damping factor d2 (importance dominated by the base set).
pub const D2: f64 = 0.10;
/// The paper's high damping factor d3 (importance dominated by link flow).
pub const D3: f64 = 0.99;

/// Which authority transfer schema graph to instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GaPreset {
    /// The calibrated graph of Figure 13 (ValueRank for TPC-H).
    Ga1,
    /// DBLP: uniform 0.3 rates; TPC-H: same topology as GA1 but with value
    /// functions dropped (i.e. plain ObjectRank), per Section 6.
    Ga2,
}

impl GaPreset {
    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            GaPreset::Ga1 => "GA1",
            GaPreset::Ga2 => "GA2",
        }
    }
}

/// The DBLP authority transfer graph (Figure 13(a)).
///
/// GA1 rates: Paper→Author 0.3, Author→Paper 0.1, citing→cited 0.7,
/// cited→citing 0, Paper↔Year 0.2/0.2, Year↔Conference 0.3/0.3.
/// GA2: uniform 0.3 everywhere.
pub fn dblp_ga(
    preset: GaPreset,
    db: &Database,
    sg: &SchemaGraph,
    dg: &DataGraph,
) -> AuthorityGraph {
    match preset {
        GaPreset::Ga2 => AuthorityGraph::uniform("GA2", sg, dg, 0.3),
        GaPreset::Ga1 => {
            let mut ga = AuthorityGraph::zero("GA1", sg, dg);
            ga.set_link(db, sg, dg, "AuthorPaper", "paper_id", 0.3) // Paper -> Author
                .set_link(db, sg, dg, "AuthorPaper", "author_id", 0.1) // Author -> Paper
                .set_link(db, sg, dg, "Citation", "citing_id", 0.7) // citing -> cited
                .set_link(db, sg, dg, "Citation", "cited_id", 0.0)
                .set_edge(db, sg, "Paper", "year_id", 0.2, 0.2)
                .set_edge(db, sg, "Year", "conf_id", 0.3, 0.3);
            ga
        }
    }
}

/// The TPC-H authority transfer graph (Figure 13(b)).
///
/// GA1 is a ValueRank GA: Orders scale outgoing authority by
/// `f(totalprice)`, Lineitem by `f(extendedprice)`, Partsupp by
/// `f(supplycost)`, Part by `f(retailprice)`. GA2 keeps the same rates but
/// drops the value functions ("neglects values, i.e. becomes an ObjectRank
/// GA", Section 6).
pub fn tpch_ga(
    preset: GaPreset,
    db: &Database,
    sg: &SchemaGraph,
    dg: &DataGraph,
) -> AuthorityGraph {
    let mut ga = AuthorityGraph::zero(preset.name(), sg, dg);
    ga.set_edge(db, sg, "Orders", "cust_id", 0.5, 0.3) // Order <-> Customer
        .set_edge(db, sg, "Lineitem", "order_id", 0.5, 0.3)
        .set_edge(db, sg, "Lineitem", "ps_id", 0.1, 0.1)
        .set_edge(db, sg, "Partsupp", "part_id", 0.1, 0.1)
        .set_edge(db, sg, "Partsupp", "supp_id", 0.2, 0.1)
        .set_edge(db, sg, "Customer", "nation_id", 0.1, 0.1)
        .set_edge(db, sg, "Supplier", "nation_id", 0.1, 0.1)
        .set_edge(db, sg, "Nation", "region_id", 0.1, 0.1);
    if preset == GaPreset::Ga1 {
        ga.add_value_fn(db, "Orders", "totalprice", 4.0)
            .add_value_fn(db, "Lineitem", "extendedprice", 4.0)
            .add_value_fn(db, "Partsupp", "supplycost", 4.0)
            .add_value_fn(db, "Part", "retailprice", 4.0);
    }
    ga
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::{compute, RankConfig};
    use sizel_datagen::tpch::{generate, TpchConfig};
    use sizel_graph::NodeId;

    #[test]
    fn tpch_ga1_is_valuerank_ga2_is_not() {
        let t = generate(&TpchConfig::tiny());
        let sg = SchemaGraph::from_database(&t.db);
        let dg = DataGraph::build(&t.db, &sg);
        assert!(tpch_ga(GaPreset::Ga1, &t.db, &sg, &dg).is_value_rank());
        assert!(!tpch_ga(GaPreset::Ga2, &t.db, &sg, &dg).is_value_rank());
    }

    #[test]
    fn valuerank_prefers_high_value_customers() {
        // Two customers with the same order *count*: the one with larger
        // order values must rank higher under GA1 (ValueRank) — the paper's
        // "five $10 orders vs three $100 orders" motivation.
        let t = generate(&TpchConfig::tiny());
        let sg = SchemaGraph::from_database(&t.db);
        let dg = DataGraph::build(&t.db, &sg);
        let ga = tpch_ga(GaPreset::Ga1, &t.db, &sg, &dg);
        let r = compute(&t.db, &sg, &dg, &ga, &RankConfig::default());

        let orders = t.db.table(t.orders);
        let cust_col = orders.schema.column_index("cust_id").unwrap();
        let price_col = orders.schema.column_index("totalprice").unwrap();
        let customers = t.db.table(t.customer);
        // Group customers by order count; find a count bucket with spread.
        let mut by_count: std::collections::HashMap<usize, Vec<(f64, usize)>> = Default::default();
        for (rid, _) in customers.iter() {
            let pk = customers.pk_of(rid);
            let ords = orders.rows_where_eq(cust_col, pk);
            if ords.is_empty() {
                continue;
            }
            let total: f64 =
                ords.iter().map(|&o| orders.value(o, price_col).as_f64().unwrap()).sum();
            by_count.entry(ords.len()).or_default().push((total, rid.index()));
        }
        let start = dg.table_start(t.customer) as usize;
        let mut checked = 0;
        for (_, mut group) in by_count {
            if group.len() < 2 {
                continue;
            }
            group.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (low_total, low_row) = group[0];
            let (high_total, high_row) = *group.last().unwrap();
            if high_total > 3.0 * low_total {
                checked += 1;
                assert!(
                    r.global(NodeId((start + high_row) as u32))
                        > r.global(NodeId((start + low_row) as u32)),
                    "customer with {high_total:.0} should outrank {low_total:.0}"
                );
            }
        }
        assert!(checked > 0, "test needs at least one comparable pair");
    }
}
