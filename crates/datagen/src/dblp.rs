//! Synthetic DBLP generator.
//!
//! Schema (Figure 1 of the paper, with the two M:N links materialized as
//! junction tables):
//!
//! ```text
//! Conference(id, name)
//! Year(id, year, conf_id -> Conference)         -- a venue instance, e.g. "SIGCOMM 1999"
//! Paper(id, title, year_id -> Year)
//! Author(id, name)
//! AuthorPaper(id, author_id -> Author, paper_id -> Paper)   [junction]
//! Citation(id, citing_id -> Paper, cited_id -> Paper)       [junction]
//! ```
//!
//! Skew: author productivity and citation popularity are Zipfian, so the
//! database contains a few authors with hundreds of papers (the paper's
//! Christos Faloutsos has a 1,309-tuple OS) and a long tail of small ones.
//! *Famous author* specs pin exact paper counts, which the benchmark uses to
//! build the |OS| ladder of Figure 10(e).

use std::collections::HashSet;

use sizel_storage::{Database, StorageError, TableId, TableSchema, Value, ValueType};
use sizel_util::prng::{Prng, Zipf};

use crate::names;

/// A pinned author with an exact number of authored papers.
#[derive(Clone, Debug)]
pub struct FamousAuthorSpec {
    /// Full author name (unique in the generated database).
    pub name: String,
    /// Exact number of papers this author is attached to.
    pub papers: usize,
}

/// Configuration for the DBLP generator.
#[derive(Clone, Debug)]
pub struct DblpConfig {
    /// PRNG seed; the whole database is a pure function of the config.
    pub seed: u64,
    /// Number of conferences.
    pub conferences: usize,
    /// Venue-year instances per conference.
    pub years_per_conference: usize,
    /// Latest publication year (inclusive).
    pub last_year: i64,
    /// Number of regular papers.
    pub papers: usize,
    /// Number of regular authors.
    pub authors: usize,
    /// Zipf exponent for author productivity (0 = uniform).
    pub author_zipf: f64,
    /// Mean citations *made* per paper (exponentially distributed).
    pub citations_per_paper_mean: f64,
    /// Zipf exponent for citation popularity.
    pub citation_zipf: f64,
    /// Pinned famous authors (appended after regular authors).
    pub famous: Vec<FamousAuthorSpec>,
    /// When true and at least three famous authors exist, the first three
    /// co-author one shared paper ("On Power-law Relationships of the
    /// Internet Topology", SIGCOMM) — the paper's Example 4/5 anchor.
    pub link_famous_triple: bool,
}

impl DblpConfig {
    /// Minimal database for unit tests (hundreds of tuples).
    pub fn tiny() -> Self {
        DblpConfig {
            seed: 42,
            conferences: 5,
            years_per_conference: 4,
            last_year: 2004,
            papers: 120,
            authors: 60,
            author_zipf: 0.8,
            citations_per_paper_mean: 2.0,
            citation_zipf: 0.9,
            famous: Vec::new(),
            link_famous_triple: false,
        }
    }

    /// Small database with the example trio, for examples and integration
    /// tests (a few thousand tuples).
    pub fn small() -> Self {
        DblpConfig {
            seed: 42,
            conferences: 12,
            years_per_conference: 10,
            last_year: 2004,
            papers: 1500,
            authors: 500,
            author_zipf: 0.85,
            citations_per_paper_mean: 2.5,
            citation_zipf: 0.7,
            famous: vec![
                FamousAuthorSpec { name: "Christos Faloutsos".into(), papers: 40 },
                FamousAuthorSpec { name: "Michalis Faloutsos".into(), papers: 18 },
                FamousAuthorSpec { name: "Petros Faloutsos".into(), papers: 12 },
            ],
            link_famous_triple: true,
        }
    }

    /// The benchmark database: tuned so that Author object summaries of the
    /// famous ladder land near the paper's Figure 10(e) sizes
    /// (|OS| ≈ 67, 202, 606, 922, 1309).
    pub fn bench() -> Self {
        DblpConfig {
            seed: 42,
            conferences: 30,
            years_per_conference: 15,
            last_year: 2004,
            papers: 12_000,
            authors: 3_000,
            author_zipf: 0.8,
            // Citation skew calibrated against the paper's regime: the
            // *mean* stays moderate (it drives the per-paper PaperCites
            // fan-out inside every Author OS, whose Aver|OS| must hold at
            // ~1116) while the *zipf exponent* concentrates fan-in on the
            // head papers the Paper-GDS samples draw from (real DBLP's
            // well-cited papers, Aver|OS| = 367).
            citations_per_paper_mean: 3.6,
            citation_zipf: 1.0,
            famous: vec![
                FamousAuthorSpec { name: "Christos Faloutsos".into(), papers: 124 },
                FamousAuthorSpec { name: "Michalis Faloutsos".into(), papers: 87 },
                FamousAuthorSpec { name: "Petros Faloutsos".into(), papers: 57 },
                FamousAuthorSpec { name: "Ariadne Metaxa".into(), papers: 19 },
                FamousAuthorSpec { name: "Stavros Koronis".into(), papers: 6 },
            ],
            link_famous_triple: true,
        }
    }
}

/// Handles to the generated database.
#[derive(Debug)]
pub struct Dblp {
    /// The populated database (FK-consistent by construction; validated in
    /// tests).
    pub db: Database,
    /// `Author` table id.
    pub author: TableId,
    /// `Paper` table id.
    pub paper: TableId,
    /// `AuthorPaper` junction table id.
    pub author_paper: TableId,
    /// `Citation` junction table id.
    pub citation: TableId,
    /// `Year` table id.
    pub year: TableId,
    /// `Conference` table id.
    pub conference: TableId,
    /// `(name, author_pk)` of each famous author, in spec order.
    pub famous: Vec<(String, i64)>,
}

/// Builds the six DBLP table schemas into `db`.
fn create_schema(db: &mut Database) -> Result<(), StorageError> {
    db.create_table(TableSchema::builder("Conference").pk("id").searchable_text("name").build()?)?;
    db.create_table(
        TableSchema::builder("Year")
            .pk("id")
            .column("year", ValueType::Int)
            .fk("conf_id", "Conference")
            .build()?,
    )?;
    db.create_table(
        TableSchema::builder("Paper")
            .pk("id")
            .searchable_text("title")
            .fk("year_id", "Year")
            .build()?,
    )?;
    db.create_table(TableSchema::builder("Author").pk("id").searchable_text("name").build()?)?;
    db.create_table(
        TableSchema::builder("AuthorPaper")
            .pk("id")
            .fk("author_id", "Author")
            .fk("paper_id", "Paper")
            .junction()
            .build()?,
    )?;
    db.create_table(
        TableSchema::builder("Citation")
            .pk("id")
            .fk("citing_id", "Paper")
            .fk("cited_id", "Paper")
            .junction()
            .build()?,
    )?;
    Ok(())
}

/// Generates a DBLP database from the config. Panics only on internal
/// invariant violations (the schema is fixed, inserts cannot fail).
pub fn generate(cfg: &DblpConfig) -> Dblp {
    let mut rng = Prng::new(cfg.seed);
    let mut db = Database::new();
    create_schema(&mut db).expect("static DBLP schema is valid");
    let [conference, year, paper, author, author_paper, citation] =
        ["Conference", "Year", "Paper", "Author", "AuthorPaper", "Citation"]
            .map(|name| db.table_id(name).expect("schema"));

    // --- Conferences -----------------------------------------------------
    for c in 0..cfg.conferences {
        let name = if c < names::CONFERENCES.len() {
            names::CONFERENCES[c].to_owned()
        } else {
            format!("CONF-{c}")
        };
        db.insert_into(conference, vec![Value::Int(c as i64 + 1), name.into()])
            .expect("conference insert");
    }

    // --- Years ------------------------------------------------------------
    // year_ids[c][k] = pk of the k-th venue instance of conference c.
    let first_year = cfg.last_year - cfg.years_per_conference as i64 + 1;
    let mut year_ids: Vec<Vec<i64>> = Vec::with_capacity(cfg.conferences);
    let mut year_pk = 0i64;
    for c in 0..cfg.conferences {
        let mut ids = Vec::with_capacity(cfg.years_per_conference);
        for k in 0..cfg.years_per_conference {
            year_pk += 1;
            db.insert_into(
                year,
                vec![
                    Value::Int(year_pk),
                    Value::Int(first_year + k as i64),
                    Value::Int(c as i64 + 1),
                ],
            )
            .expect("year insert");
            ids.push(year_pk);
        }
        year_ids.push(ids);
    }

    // --- Authors ----------------------------------------------------------
    let mut used_names: HashSet<String> = HashSet::new();
    let mut famous = Vec::with_capacity(cfg.famous.len());
    let mut name_rng = rng.fork(0xA07);
    for a in 0..cfg.authors {
        let mut name =
            format!("{} {}", name_rng.pick(names::FIRST_NAMES), name_rng.pick(names::LAST_NAMES));
        if !used_names.insert(name.clone()) {
            name = format!("{name} {:04}", a);
            used_names.insert(name.clone());
        }
        db.insert_into(author, vec![Value::Int(a as i64 + 1), name.into()]).expect("author insert");
    }
    for (i, spec) in cfg.famous.iter().enumerate() {
        let pk = cfg.authors as i64 + 1 + i as i64;
        assert!(
            used_names.insert(spec.name.clone()),
            "famous author name `{}` collides with a generated name",
            spec.name
        );
        db.insert_into(author, vec![Value::Int(pk), spec.name.clone().into()])
            .expect("author insert");
        famous.push((spec.name.clone(), pk));
    }

    // --- Papers and authorship --------------------------------------------
    // Author productivity follows a Zipf over a shuffled permutation of the
    // regular authors (so which authors are prolific is seed-dependent, not
    // id-dependent).
    let author_perm = {
        let mut p: Vec<i64> = (1..=cfg.authors as i64).collect();
        rng.shuffle(&mut p);
        p
    };
    let author_dist = Zipf::new(cfg.authors.max(1), cfg.author_zipf);
    // Weights for the number of authors of a paper: mean ~2.6.
    const AUTHOR_COUNT_WEIGHTS: [(usize, f64); 5] =
        [(1, 0.15), (2, 0.35), (3, 0.30), (4, 0.15), (5, 0.05)];

    let mut paper_rng = rng.fork(0xBEEF);
    let mut paper_authors: Vec<Vec<i64>> = Vec::with_capacity(cfg.papers + 1);
    let mut author_links: Vec<(i64, i64)> = Vec::new(); // (author_pk, paper_pk)
    let total_papers = cfg.papers + usize::from(cfg.link_famous_triple && cfg.famous.len() >= 3);

    for p in 0..cfg.papers {
        let pk = p as i64 + 1;
        let conf = paper_rng.range(0, cfg.conferences);
        let year_id = *paper_rng.pick(&year_ids[conf]);
        let n_words = paper_rng.range(4, 8);
        let words: Vec<&str> = (0..n_words).map(|_| *paper_rng.pick(names::TITLE_WORDS)).collect();
        let title = names::title(&words);
        db.insert_into(paper, vec![Value::Int(pk), title.into(), Value::Int(year_id)])
            .expect("paper insert");

        let roll = paper_rng.f64();
        let mut acc = 0.0;
        let mut k = 1;
        for (count, w) in AUTHOR_COUNT_WEIGHTS {
            acc += w;
            if roll < acc {
                k = count;
                break;
            }
        }
        let k = k.min(cfg.authors);
        let mut chosen: Vec<i64> = Vec::with_capacity(k);
        let mut attempts = 0;
        while chosen.len() < k && attempts < 50 * k {
            attempts += 1;
            let a = author_perm[author_dist.sample(&mut paper_rng)];
            if !chosen.contains(&a) {
                chosen.push(a);
            }
        }
        for &a in &chosen {
            author_links.push((a, pk));
        }
        paper_authors.push(chosen);
    }

    // The shared Example-4/5 paper for the first three famous authors.
    if cfg.link_famous_triple && cfg.famous.len() >= 3 {
        let pk = cfg.papers as i64 + 1;
        // SIGCOMM is conference 0 by construction of the acronym list;
        // choose its venue-year closest to 1999.
        let target = 1999i64;
        let year_id = *year_ids[0]
            .iter()
            .min_by_key(|&&yid| {
                let y = first_year + (yid - year_ids[0][0]);
                (y - target).abs()
            })
            .expect("conference 0 has years");
        db.insert_into(
            paper,
            vec![
                Value::Int(pk),
                "On Power-law Relationships of the Internet Topology".into(),
                Value::Int(year_id),
            ],
        )
        .expect("paper insert");
        let trio: Vec<i64> = famous.iter().take(3).map(|&(_, pk)| pk).collect();
        for &a in &trio {
            author_links.push((a, pk));
        }
        paper_authors.push(trio);
    }

    // Famous authors: attach each to exactly `spec.papers` distinct papers
    // (the shared triple paper counts toward the first three).
    let mut famous_rng = rng.fork(0xFA0);
    for (i, spec) in cfg.famous.iter().enumerate() {
        let author_pk = famous[i].1;
        let already: usize =
            paper_authors.iter().filter(|authors| authors.contains(&author_pk)).count();
        let mut need = spec.papers.saturating_sub(already);
        let mut guard = 0;
        while need > 0 {
            guard += 1;
            assert!(guard < 100 * cfg.papers, "cannot place famous author {}", spec.name);
            let p = famous_rng.range(0, cfg.papers); // only regular papers
            if !paper_authors[p].contains(&author_pk) {
                paper_authors[p].push(author_pk);
                author_links.push((author_pk, p as i64 + 1));
                need -= 1;
            }
        }
    }

    let mut link_pk = 0i64;
    for (a, p) in author_links {
        link_pk += 1;
        db.insert_into(author_paper, vec![Value::Int(link_pk), Value::Int(a), Value::Int(p)])
            .expect("author-paper insert");
    }

    // --- Citations ----------------------------------------------------------
    // Each paper cites an exponential number of papers; *which* papers are
    // popular follows a Zipf over a shuffled permutation.
    let cite_perm = {
        let mut p: Vec<i64> = (1..=total_papers as i64).collect();
        rng.shuffle(&mut p);
        p
    };
    let cite_dist = Zipf::new(total_papers.max(1), cfg.citation_zipf);
    let mut cite_rng = rng.fork(0xC17E);
    let mut cite_pk = 0i64;
    for p in 1..=total_papers as i64 {
        let draw = (1.0 - cite_rng.f64()).max(f64::MIN_POSITIVE);
        let count = ((-cfg.citations_per_paper_mean * draw.ln()) as usize).min(30);
        let mut cited: Vec<i64> = Vec::with_capacity(count);
        let mut attempts = 0;
        while cited.len() < count && attempts < 20 * (count + 1) {
            attempts += 1;
            let q = cite_perm[cite_dist.sample(&mut cite_rng)];
            if q != p && !cited.contains(&q) {
                cited.push(q);
            }
        }
        for q in cited {
            cite_pk += 1;
            db.insert_into(citation, vec![Value::Int(cite_pk), Value::Int(p), Value::Int(q)])
                .expect("citation insert");
        }
    }

    Dblp { db, author, paper, author_paper, citation, year, conference, famous }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_db_is_fk_consistent() {
        let d = generate(&DblpConfig::tiny());
        d.db.validate_foreign_keys().expect("FKs consistent");
        assert_eq!(d.db.table(d.author).len(), 60);
        assert_eq!(d.db.table(d.paper).len(), 120);
        assert_eq!(d.db.table(d.conference).len(), 5);
        assert_eq!(d.db.table(d.year).len(), 20);
        assert!(d.db.table(d.author_paper).len() >= 120, "every paper has >= 1 author");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&DblpConfig::tiny());
        let b = generate(&DblpConfig::tiny());
        assert_eq!(a.db.total_tuples(), b.db.total_tuples());
        for (ta, tb) in a.db.tables().zip(b.db.tables()) {
            assert_eq!(ta.1.len(), tb.1.len());
            for ((_, ra), (_, rb)) in ta.1.iter().zip(tb.1.iter()) {
                assert_eq!(ra, rb);
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&DblpConfig::tiny());
        let mut cfg = DblpConfig::tiny();
        cfg.seed = 7;
        let b = generate(&cfg);
        // Same shape, different content.
        assert_eq!(a.db.table_count(), b.db.table_count());
        let authors_a: Vec<String> =
            a.db.table(a.author).iter().map(|(_, r)| r[1].as_str().unwrap().to_owned()).collect();
        let authors_b: Vec<String> =
            b.db.table(b.author).iter().map(|(_, r)| r[1].as_str().unwrap().to_owned()).collect();
        assert_ne!(authors_a, authors_b);
    }

    #[test]
    fn famous_authors_have_exact_paper_counts() {
        let d = generate(&DblpConfig::small());
        d.db.validate_foreign_keys().expect("FKs consistent");
        let ap = d.db.table(d.author_paper);
        let author_col = ap.schema.column_index("author_id").unwrap();
        for (spec, (name, pk)) in DblpConfig::small().famous.iter().zip(&d.famous) {
            assert_eq!(&spec.name, name);
            let count = ap.rows_where_eq(author_col, *pk).len();
            assert_eq!(count, spec.papers, "paper count for {name}");
        }
    }

    #[test]
    fn triple_shares_the_powerlaw_paper() {
        let d = generate(&DblpConfig::small());
        let paper_tbl = d.db.table(d.paper);
        let (row, _) = paper_tbl
            .iter()
            .find(|(_, r)| r[1].as_str().unwrap().starts_with("On Power-law"))
            .expect("shared paper exists");
        let ap = d.db.table(d.author_paper);
        let paper_col = ap.schema.column_index("paper_id").unwrap();
        let authors: Vec<i64> = ap
            .rows_where_eq(paper_col, paper_tbl.pk_of(row))
            .iter()
            .map(|&r| ap.value(r, 1).as_int().unwrap())
            .collect();
        let famous_pks: Vec<i64> = d.famous.iter().take(3).map(|&(_, pk)| pk).collect();
        for pk in famous_pks {
            assert!(authors.contains(&pk));
        }
    }

    #[test]
    fn author_productivity_is_skewed() {
        let d = generate(&DblpConfig::tiny());
        let ap = d.db.table(d.author_paper);
        let author_col = ap.schema.column_index("author_id").unwrap();
        let mut counts: Vec<usize> =
            (1..=60).map(|a| ap.rows_where_eq(author_col, a).len()).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        assert!(counts[0] >= 3 * counts[30].max(1), "head {} tail {}", counts[0], counts[30]);
    }

    #[test]
    fn citations_never_self_cite() {
        let d = generate(&DblpConfig::tiny());
        let c = d.db.table(d.citation);
        for (_, row) in c.iter() {
            assert_ne!(row[1].as_int(), row[2].as_int());
        }
    }
}
