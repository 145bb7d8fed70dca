//! A Data-Protection-Act subject access request over a trading database.
//!
//! The paper's motivating application (Section 1): "data controllers of
//! organizations must extract data for a given DS from their databases and
//! present it in an intelligible form". We pick a customer, produce the
//! full report (the complete OS), and the size-20 executive summary — and
//! show how ValueRank (GA1) orders customers differently from plain
//! ObjectRank (GA2).
//!
//! ```text
//! cargo run --release --example tpch_subject_access
//! ```

use sizel::{
    build_tpch_engine, generate_os, GaPreset, QueryOptions, RenderOptions, TpchConfig, TupleRef, D1,
};

fn main() {
    let value_rank = build_tpch_engine(&TpchConfig::tiny(), GaPreset::Ga1, D1);
    let object_rank = build_tpch_engine(&TpchConfig::tiny(), GaPreset::Ga2, D1);

    let customer = value_rank.db().table_id("Customer").expect("schema");
    println!("Customer GDS(0.7), annotated (cf. Figure 12):");
    print!("{}", value_rank.gds(customer).pretty());
    println!();

    // The DS: the customer with the highest ValueRank importance.
    let table = value_rank.db().table(customer);
    let best = table
        .iter()
        .map(|(rid, _)| TupleRef::new(customer, rid))
        .max_by(|&a, &b| value_rank.score(a).total_cmp(&value_rank.score(b)))
        .expect("customers exist");
    let name = table.value(best.row, 1).as_str().expect("name").to_owned();
    println!("Subject access request for: {name}\n");

    // Full report = the complete OS.
    let ctx = value_rank.context(customer);
    let complete = generate_os(&ctx, best, None);
    println!(
        "Full report holds {} tuples (orders, lineitems, part supplies, nation...).",
        complete.len()
    );
    let head = RenderOptions { max_lines: Some(15), ..RenderOptions::default() };
    print!("{}", sizel::render_os(value_rank.db(), value_rank.gds(customer), &complete, &head));

    // Executive summary = the size-20 OS.
    println!("\nExecutive summary (size-20 OS):");
    let results = value_rank.query_with(&name, QueryOptions { l: 20, ..QueryOptions::default() });
    print!("{}", value_rank.render(&results[0], &RenderOptions::default()));

    // ValueRank vs ObjectRank: who are the top-3 customers?
    println!("\nTop-3 customers by global importance:");
    let rank_top3 = |engine: &sizel::SizeLEngine, label: &str| {
        let table = engine.db().table(customer);
        let mut scored: Vec<(f64, String)> = table
            .iter()
            .map(|(rid, row)| {
                let score = engine.score(TupleRef::new(customer, rid));
                (score, row[1].as_str().expect("name").to_owned())
            })
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        println!("  {label}:");
        for (score, who) in scored.iter().take(3) {
            println!("    {score:>8.3}  {who}");
        }
    };
    rank_top3(&value_rank, "ValueRank (GA1: order/lineitem values drive authority)");
    rank_top3(&object_rank, "ObjectRank (GA2: link structure only)");
}
