//! The bench-scale cell layout: after one `SizeLEngine::build` over
//! `DblpConfig::bench()`, every surrogate key is its row's offset from
//! the first key and stores no cell, and every other DBLP key fits in
//! `i32`, so a junction row costs four bytes an FK key and a paper its
//! one FK key, one text span and the bytes of its title. A column stored wider than its values need, a text
//! paying an allocation of its own, or push slack left after the build
//! fails here.

use sizel_core::engine::{EngineConfig, SizeLEngine};
use sizel_datagen::dblp::{generate, DblpConfig};
use sizel_graph::presets::{dblp_author_gds_config, dblp_paper_gds_config};
use sizel_rank::{dblp_ga, GaPreset};

#[test]
fn bench_scale_cells_are_stored_at_their_width() {
    let engine = SizeLEngine::build(
        generate(&DblpConfig::bench()).db,
        |db, sg, dg| dblp_ga(GaPreset::Ga1, db, sg, dg),
        EngineConfig::new(vec![
            ("Author".into(), dblp_author_gds_config()),
            ("Paper".into(), dblp_paper_gds_config()),
        ]),
    )
    .expect("the bench-scale DBLP database builds an engine");
    let db = engine.db();
    let table = |name| db.table(db.table_id(name).expect("DBLP schema"));

    for name in ["AuthorPaper", "Citation"] {
        let t = table(name);
        assert_eq!(t.column_bytes(t.schema.pk), 0, "{name}: no cell for the surrogate key");
        assert_eq!(t.value_bytes(), 8 * t.len(), "{name}: two 4-byte FK keys a row");
    }
    let paper = table("Paper");
    let title = paper.schema.searchable_columns().next().expect("Paper has a title");
    let text: usize =
        paper.live_rows().map(|r| paper.value(r, title).as_str().map_or(0, str::len)).sum();
    let bound = text + (8 + 8) * paper.len();
    assert!(
        paper.value_bytes() <= bound,
        "Paper: {} cell bytes over {} rows with {text} title bytes (bound {bound})",
        paper.value_bytes(),
        paper.len()
    );
}
