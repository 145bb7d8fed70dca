//! Quickstart: the paper's running example end to end.
//!
//! Builds a synthetic DBLP database seeded with the three "Faloutsos"
//! example authors, then reproduces:
//!
//! * Example 3 — the plain R-KwS result of Q1 (three Author tuples),
//! * Example 4 — the complete OS of the most important match,
//! * Example 5 — the three size-15 OSs.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sizel::{
    build_dblp_engine, generate_os, DblpConfig, GaPreset, OsSource, QueryOptions, RenderOptions, D1,
};

fn main() {
    println!("Building a synthetic DBLP database and the size-l OS engine...");
    let engine = build_dblp_engine(&DblpConfig::small(), GaPreset::Ga1, D1);
    println!("  {} tuples, vocabulary built, ObjectRank converged.\n", engine.db().total_tuples());

    // --- Example 3: the plain R-KwS answer --------------------------------
    println!("Q1 = \"Faloutsos\" as a plain R-KwS result (Example 3):");
    let results = engine.query("Faloutsos", 15);
    for r in &results {
        println!("  {}", r.ds_label);
    }
    println!();

    // --- Example 4: the complete OS of the top match ----------------------
    let top = &results[0];
    let ctx = engine.context(top.tds.table);
    let complete = generate_os(&ctx, top.tds, None, OsSource::DataGraph);
    println!(
        "Example 4 — the complete OS for {} has {} tuples; first lines:",
        top.ds_label,
        complete.len()
    );
    let preview = RenderOptions { max_lines: Some(12), ..RenderOptions::default() };
    print!("{}", sizel::render_os(engine.db(), engine.gds(top.tds.table), &complete, &preview));
    println!();

    // --- Example 5: the size-15 OSs ---------------------------------------
    println!("Example 5 — size-15 OSs for Q1:");
    for r in &results {
        println!("----------------------------------------------------------");
        print!("{}", engine.render(r, &RenderOptions::default()));
        println!(
            "  [input OS: {} tuples -> size-{} OS, Im(S) = {:.3}]",
            r.input_os_size,
            r.summary.len(),
            r.importance
        );
    }

    // --- And the same query at a different l ------------------------------
    println!("\nThe same query with l = 5 (snippet-sized):");
    let small =
        engine.query_with("Christos Faloutsos", QueryOptions { l: 5, ..QueryOptions::default() });
    print!("{}", engine.render(&small[0], &RenderOptions::default()));
}
