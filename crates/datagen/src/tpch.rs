//! Synthetic TPC-H-like generator.
//!
//! Schema (Figure 11 of the paper):
//!
//! ```text
//! Region(id, name)
//! Nation(id, name, region_id -> Region)
//! Customer(id, name, acctbal, nation_id -> Nation)
//! Supplier(id, name, acctbal, nation_id -> Nation)
//! Part(id, name, retailprice)
//! Partsupp(id, part_id -> Part, supp_id -> Supplier, supplycost, availqty, comment)
//! Orders(id, cust_id -> Customer, totalprice, orderyear)
//! Lineitem(id, order_id -> Orders, ps_id -> Partsupp, extendedprice, quantity)
//! ```
//!
//! Two documented deviations from `dbgen` (see DESIGN.md §3):
//!
//! * `Partsupp` gets a surrogate single-column key `id`, referenced by
//!   `Lineitem.ps_id`, instead of the composite `(partkey, suppkey)` —
//!   our storage layer keys are single-column; cardinalities are unchanged.
//! * Scale is configurable and defaults far below SF-1 so the benchmark
//!   suite runs in seconds; the paper's average |OS| sizes per GDS are
//!   matched by the `bench()` preset and recorded in EXPERIMENTS.md.
//!
//! Prices are *consistent*: an order's `totalprice` is the exact sum of its
//! lineitems' `extendedprice`, so ValueRank's authority flow (Figure 13b)
//! sees the same correlation structure as real TPC-H.

use std::collections::HashSet;

use sizel_storage::{Database, StorageError, TableId, TableSchema, Value, ValueType};
use sizel_util::prng::{Prng, Zipf};

use crate::names;

/// Configuration for the TPC-H generator.
#[derive(Clone, Debug)]
pub struct TpchConfig {
    /// PRNG seed.
    pub seed: u64,
    /// Number of customers.
    pub customers: usize,
    /// Number of suppliers.
    pub suppliers: usize,
    /// Number of parts.
    pub parts: usize,
    /// Partsupp rows per part (supplier assignments).
    pub suppliers_per_part: usize,
    /// Mean orders per customer (Zipf-skewed across customers).
    pub orders_per_customer_mean: f64,
    /// Zipf exponent for order-count skew across customers.
    pub customer_zipf: f64,
    /// Lineitems per order: uniform in `[1, max_lineitems_per_order]`.
    pub max_lineitems_per_order: usize,
}

impl TpchConfig {
    /// Minimal database for unit tests.
    pub fn tiny() -> Self {
        TpchConfig {
            seed: 42,
            customers: 40,
            suppliers: 8,
            parts: 50,
            suppliers_per_part: 2,
            orders_per_customer_mean: 3.0,
            customer_zipf: 0.6,
            max_lineitems_per_order: 4,
        }
    }

    /// Benchmark database: calibrated so average |OS| per GDS approaches the
    /// paper's reported sizes (Customer ≈ 176, Supplier ≈ 1341).
    pub fn bench() -> Self {
        TpchConfig {
            seed: 42,
            customers: 800,
            suppliers: 70,
            parts: 1_000,
            suppliers_per_part: 4,
            orders_per_customer_mean: 16.0,
            customer_zipf: 0.5,
            max_lineitems_per_order: 6,
        }
    }
}

/// Handles to the generated TPC-H database.
#[derive(Debug)]
pub struct Tpch {
    /// The populated database.
    pub db: Database,
    /// `Customer` table id.
    pub customer: TableId,
    /// `Supplier` table id.
    pub supplier: TableId,
    /// `Orders` table id.
    pub orders: TableId,
    /// `Lineitem` table id.
    pub lineitem: TableId,
    /// `Partsupp` table id.
    pub partsupp: TableId,
    /// `Part` table id.
    pub part: TableId,
    /// `Nation` table id.
    pub nation: TableId,
    /// `Region` table id.
    pub region: TableId,
}

/// Builds the eight TPC-H table schemas into `db`.
fn create_schema(db: &mut Database) -> Result<(), StorageError> {
    db.create_table(TableSchema::builder("Region").pk("id").searchable_text("name").build()?)?;
    db.create_table(
        TableSchema::builder("Nation")
            .pk("id")
            .searchable_text("name")
            .fk("region_id", "Region")
            .build()?,
    )?;
    db.create_table(
        TableSchema::builder("Customer")
            .pk("id")
            .searchable_text("name")
            .column("acctbal", ValueType::Float)
            .fk("nation_id", "Nation")
            .build()?,
    )?;
    db.create_table(
        TableSchema::builder("Supplier")
            .pk("id")
            .searchable_text("name")
            .column("acctbal", ValueType::Float)
            .fk("nation_id", "Nation")
            .build()?,
    )?;
    db.create_table(
        TableSchema::builder("Part")
            .pk("id")
            .searchable_text("name")
            .column("retailprice", ValueType::Float)
            .build()?,
    )?;
    db.create_table(
        TableSchema::builder("Partsupp")
            .pk("id")
            .fk("part_id", "Part")
            .fk("supp_id", "Supplier")
            .column("supplycost", ValueType::Float)
            .column("availqty", ValueType::Int)
            // The paper's θ' example: Partsupp.comment is excluded from
            // Customer OSs; we model attribute selection with display flags.
            .hidden_column("comment", ValueType::Text)
            .build()?,
    )?;
    db.create_table(
        TableSchema::builder("Orders")
            .pk("id")
            .fk("cust_id", "Customer")
            .column("totalprice", ValueType::Float)
            .column("orderyear", ValueType::Int)
            .build()?,
    )?;
    db.create_table(
        TableSchema::builder("Lineitem")
            .pk("id")
            .fk("order_id", "Orders")
            .fk("ps_id", "Partsupp")
            .column("extendedprice", ValueType::Float)
            .column("quantity", ValueType::Int)
            .build()?,
    )?;
    Ok(())
}

/// Generates a TPC-H database from the config.
pub fn generate(cfg: &TpchConfig) -> Tpch {
    let mut rng = Prng::new(cfg.seed);
    let mut db = Database::new();
    create_schema(&mut db).expect("static TPC-H schema is valid");
    let [region, nation, customer, supplier, part, partsupp, orders, lineitem] =
        ["Region", "Nation", "Customer", "Supplier", "Part", "Partsupp", "Orders", "Lineitem"]
            .map(|name| db.table_id(name).expect("schema"));

    // --- Regions and nations (the official 5 / 25) ------------------------
    for (i, name) in names::REGIONS.iter().enumerate() {
        db.insert_into(region, vec![Value::Int(i as i64 + 1), (*name).into()]).expect("region");
    }
    for (i, name) in names::NATIONS.iter().enumerate() {
        let region_pk = names::NATION_REGION[i] as i64 + 1;
        db.insert_into(
            nation,
            vec![Value::Int(i as i64 + 1), (*name).into(), Value::Int(region_pk)],
        )
        .expect("nation");
    }
    let n_nations = names::NATIONS.len();

    // --- Customers and suppliers ------------------------------------------
    let mut used: HashSet<String> = HashSet::new();
    let mut person = |rng: &mut Prng, prefix: &str, i: usize| -> String {
        let mut name =
            format!("{} {} {}", prefix, rng.pick(names::FIRST_NAMES), rng.pick(names::LAST_NAMES));
        if !used.insert(name.clone()) {
            name = format!("{name} {i:05}");
            used.insert(name.clone());
        }
        name
    };
    for c in 0..cfg.customers {
        let name = person(&mut rng, "Customer", c);
        let nation_pk = rng.range(0, n_nations) as i64 + 1;
        let acctbal = rng.f64_range(-999.0, 9999.0);
        db.insert_into(
            customer,
            vec![
                Value::Int(c as i64 + 1),
                name.into(),
                Value::Float(acctbal),
                Value::Int(nation_pk),
            ],
        )
        .expect("customer");
    }
    for s in 0..cfg.suppliers {
        let name = person(&mut rng, "Supplier", s);
        let nation_pk = rng.range(0, n_nations) as i64 + 1;
        let acctbal = rng.f64_range(-999.0, 9999.0);
        db.insert_into(
            supplier,
            vec![
                Value::Int(s as i64 + 1),
                name.into(),
                Value::Float(acctbal),
                Value::Int(nation_pk),
            ],
        )
        .expect("supplier");
    }

    // --- Parts and partsupp -------------------------------------------------
    let mut part_prices = Vec::with_capacity(cfg.parts);
    for p in 0..cfg.parts {
        let name = format!(
            "{} {} {}",
            rng.pick(names::PART_ADJECTIVES),
            rng.pick(names::PART_MATERIALS),
            rng.pick(names::PART_NOUNS)
        );
        let price = rng.f64_range(10.0, 2000.0);
        part_prices.push(price);
        db.insert_into(part, vec![Value::Int(p as i64 + 1), name.into(), Value::Float(price)])
            .expect("part");
    }
    let mut ps_pk = 0i64;
    let mut ps_of_part: Vec<Vec<i64>> = vec![Vec::new(); cfg.parts];
    for p in 0..cfg.parts {
        let k = cfg.suppliers_per_part.min(cfg.suppliers);
        for s in rng.sample_distinct(cfg.suppliers, k) {
            ps_pk += 1;
            let cost = part_prices[p] * rng.f64_range(0.4, 0.9);
            let qty = rng.range_i64(1, 10_000);
            db.insert_into(
                partsupp,
                vec![
                    Value::Int(ps_pk),
                    Value::Int(p as i64 + 1),
                    Value::Int(s as i64 + 1),
                    Value::Float(cost),
                    Value::Int(qty),
                    format!("lot {qty} of part {p}").into(),
                ],
            )
            .expect("partsupp");
            ps_of_part[p].push(ps_pk);
        }
    }
    let total_ps = ps_pk;

    // --- Orders and lineitems -----------------------------------------------
    // Order counts are Zipf-skewed across customers, preserving the paper's
    // regime of a few very active customers.
    let cust_perm = {
        let mut p: Vec<usize> = (0..cfg.customers).collect();
        rng.shuffle(&mut p);
        p
    };
    let cust_dist = Zipf::new(cfg.customers.max(1), cfg.customer_zipf);
    let total_orders = (cfg.customers as f64 * cfg.orders_per_customer_mean) as usize;
    let mut orders_of_customer = vec![0usize; cfg.customers];
    for _ in 0..total_orders {
        orders_of_customer[cust_perm[cust_dist.sample(&mut rng)]] += 1;
    }

    let mut order_pk = 0i64;
    let mut line_pk = 0i64;
    for (c, &n_orders) in orders_of_customer.iter().enumerate() {
        for _ in 0..n_orders {
            order_pk += 1;
            let year = rng.range_i64(1995, 2005);
            let n_lines = rng.range(1, cfg.max_lineitems_per_order + 1);
            // Generate lineitems first so totalprice can be their exact sum.
            let mut lines = Vec::with_capacity(n_lines);
            let mut total = 0.0;
            for _ in 0..n_lines {
                let ps = rng.range_i64(1, total_ps + 1);
                let qty = rng.range_i64(1, 50);
                // extendedprice follows the referenced part's retail price.
                let part_idx = ps_part_index(ps, cfg.suppliers_per_part.min(cfg.suppliers));
                let price = part_prices[part_idx] * qty as f64;
                total += price;
                lines.push((ps, qty, price));
            }
            db.insert_into(
                orders,
                vec![
                    Value::Int(order_pk),
                    Value::Int(c as i64 + 1),
                    Value::Float(total),
                    Value::Int(year),
                ],
            )
            .expect("order");
            for (ps, qty, price) in lines {
                line_pk += 1;
                db.insert_into(
                    lineitem,
                    vec![
                        Value::Int(line_pk),
                        Value::Int(order_pk),
                        Value::Int(ps),
                        Value::Float(price),
                        Value::Int(qty),
                    ],
                )
                .expect("lineitem");
            }
        }
    }

    Tpch { db, customer, supplier, orders, lineitem, partsupp, part, nation, region }
}

/// Maps a partsupp pk back to its part index. Partsupp rows are emitted in
/// part order with a fixed number of suppliers per part, so this is pure
/// arithmetic (avoids a lookup table).
fn ps_part_index(ps_pk: i64, per_part: usize) -> usize {
    ((ps_pk - 1) as usize) / per_part.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_db_is_fk_consistent() {
        let t = generate(&TpchConfig::tiny());
        t.db.validate_foreign_keys().expect("FKs consistent");
        assert_eq!(t.db.table(t.region).len(), 5);
        assert_eq!(t.db.table(t.nation).len(), 25);
        assert_eq!(t.db.table(t.customer).len(), 40);
        assert_eq!(t.db.table(t.partsupp).len(), 100);
    }

    #[test]
    fn determinism() {
        let a = generate(&TpchConfig::tiny());
        let b = generate(&TpchConfig::tiny());
        assert_eq!(a.db.total_tuples(), b.db.total_tuples());
        let oa = a.db.table(a.orders);
        let ob = b.db.table(b.orders);
        for ((_, ra), (_, rb)) in oa.iter().zip(ob.iter()) {
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn totalprice_is_sum_of_lineitems() {
        let t = generate(&TpchConfig::tiny());
        let li = t.db.table(t.lineitem);
        let orders = t.db.table(t.orders);
        let order_col = li.schema.column_index("order_id").unwrap();
        let price_col = li.schema.column_index("extendedprice").unwrap();
        let total_col = orders.schema.column_index("totalprice").unwrap();
        for (oid, row) in orders.iter() {
            let pk = orders.pk_of(oid);
            let sum: f64 = li
                .rows_where_eq(order_col, pk)
                .iter()
                .map(|&r| li.value(r, price_col).as_f64().unwrap())
                .sum();
            let total = row[total_col].as_f64().unwrap();
            assert!((sum - total).abs() < 1e-6, "order {pk}: {sum} vs {total}");
        }
    }

    #[test]
    fn order_counts_are_skewed() {
        let t = generate(&TpchConfig::tiny());
        let orders = t.db.table(t.orders);
        let cust_col = orders.schema.column_index("cust_id").unwrap();
        let mut counts: Vec<usize> =
            (1..=40).map(|c| orders.rows_where_eq(cust_col, c).len()).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        assert!(counts[0] > counts[20], "expected head-heavy order distribution");
    }

    #[test]
    fn ps_part_index_arithmetic() {
        assert_eq!(ps_part_index(1, 2), 0);
        assert_eq!(ps_part_index(2, 2), 0);
        assert_eq!(ps_part_index(3, 2), 1);
        assert_eq!(ps_part_index(100, 2), 49);
    }

    #[test]
    fn partsupp_comment_is_hidden() {
        let t = generate(&TpchConfig::tiny());
        let ps = t.db.table(t.partsupp);
        let comment = ps.schema.column_index("comment").unwrap();
        assert!(!ps.schema.column(comment).display);
        assert!(ps.schema.column(comment).ty == ValueType::Text);
    }
}
