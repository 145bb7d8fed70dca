//! DBLP exploration: compare the size-l algorithms on one author.
//!
//! Shows the annotated Author GDS (the Figure 2 view over synthetic data),
//! then for a prolific author compares all four algorithms across l,
//! reporting importance, approximation quality, runtime, and the effect of
//! prelim-l generation (Avoidance Conditions 1 and 2).
//!
//! ```text
//! cargo run --release --example dblp_explore
//! ```

use std::time::Instant;

use sizel::{
    approximation_ratio, build_dblp_engine, generate_os, generate_prelim, AlgoKind, DblpConfig,
    GaPreset, D1,
};

fn main() {
    let engine = build_dblp_engine(&DblpConfig::small(), GaPreset::Ga1, D1);

    // The Figure 2 view: the Author GDS annotated with affinity and the
    // max(Ri)/mmax(Ri) statistics that drive Algorithm 4.
    let author = engine.db().table_id("Author").expect("schema");
    println!("Author GDS(0.7), annotated (cf. Figure 2):");
    print!("{}", engine.gds(author).pretty());
    println!();

    // Pick the DS with the largest complete OS: Christos in the preset.
    let results = engine.query("Christos Faloutsos", 10);
    let tds = results[0].tds;
    let ctx = engine.context(author);
    let complete = generate_os(&ctx, tds, None);
    println!("DS = {}, |OS| = {} tuples\n", results[0].ds_label, complete.len());

    println!("{:<6} {:<22} {:>12} {:>8} {:>10}", "l", "algorithm", "Im(S)", "quality", "time");
    for l in [5usize, 10, 15, 20, 25, 30] {
        let cut = generate_os(&ctx, tds, Some(l as u32 - 1));
        let optimal = AlgoKind::Optimal.algorithm().compute(&cut, l);
        for kind in [AlgoKind::Optimal, AlgoKind::BottomUp, AlgoKind::TopPath, AlgoKind::TopPathOpt]
        {
            let algo = kind.algorithm();
            let t0 = Instant::now();
            let r = algo.compute(&cut, l);
            let dt = t0.elapsed();
            println!(
                "{:<6} {:<22} {:>12.3} {:>7.1}% {:>9.1?}",
                l,
                kind.name(),
                r.importance,
                100.0 * approximation_ratio(&r, &optimal),
                dt
            );
        }
        println!();
    }

    // Prelim-l generation: how much of the OS the avoidance conditions skip.
    println!("Prelim-l OS generation (Algorithm 4) vs the complete OS:");
    println!(
        "{:<6} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "l", "|prelim|", "|complete|", "cond1 skips", "cond2 probes", "full joins"
    );
    for l in [5usize, 10, 20, 50] {
        let (prelim, stats) = generate_prelim(&ctx, tds, l);
        let cut = generate_os(&ctx, tds, Some(l as u32 - 1));
        println!(
            "{:<6} {:>10} {:>12} {:>12} {:>12} {:>12}",
            l,
            prelim.len(),
            cut.len(),
            stats.cond1_skips,
            stats.cond2_probes,
            stats.full_joins
        );
    }
}
