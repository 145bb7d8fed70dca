//! Request and mutation streams, generated from `--seed` and encoded
//! before the timed window, so the generator does no work during it
//! that the program could be blamed for. The seed drives the hot-set
//! choice, the request order and the mutation targets — never the
//! program, whose database is the same for every seed.

use std::collections::BTreeSet;

use sizel_core::algo::AlgoKind;
use sizel_core::engine::{Mutation, QueryOptions, ResultRanking, SizeLEngine};
use sizel_core::osgen::OsSource;
use sizel_net::wire::{encode_apply_payload, encode_query_payload};
use sizel_storage::{text, Database, Value};
use sizel_util::prng::Prng;

/// Queries in the hot set.
pub const HOT_SET: usize = 64;
/// Requests in a stream; a run that needs more wraps around.
pub const STREAM_LEN: usize = 65_536;

const LS: [usize; 5] = [5, 10, 15, 30, 50];
/// Top-Path 1/2, Bottom-Up 1/4, Optimal 1/4.
const ALGOS: [AlgoKind; 4] =
    [AlgoKind::TopPath, AlgoKind::BottomUp, AlgoKind::TopPath, AlgoKind::Optimal];
/// One request in this many asks for the complete OS (`prelim = false`).
const COMPLETE_ONE_IN: u64 = 8;

/// One keyword query: the paper's user-visible unit.
pub type Query = (String, QueryOptions);

/// The searchable vocabulary: every token of at least three characters
/// in `Author.name` and `Paper.title`, sorted (so an index into it
/// means the same token on every run).
pub fn vocabulary(db: &Database) -> Vec<String> {
    let mut tokens = BTreeSet::new();
    for table in ["Author", "Paper"] {
        let t = db.table(db.table_id(table).expect("DBLP schema"));
        for col in t.schema.searchable_columns() {
            for (_, row) in t.iter() {
                if let Some(s) = row[col].as_str() {
                    tokens.extend(text::tokenize(s).into_iter().filter(|t| t.chars().count() >= 3));
                }
            }
        }
    }
    tokens.into_iter().collect()
}

fn options(l: usize, algo: AlgoKind, prelim: bool, source: OsSource) -> QueryOptions {
    QueryOptions { l, algo, source, prelim, ranking: ResultRanking::default() }
}

fn random_options(rng: &mut Prng, source: OsSource) -> QueryOptions {
    let l = *rng.pick(&LS);
    let algo = *rng.pick(&ALGOS);
    options(l, algo, rng.below(COMPLETE_ONE_IN) != 0, source)
}

/// A read workload's requests.
pub struct ReadStream {
    /// The distinct queries, each as the one-element batch a `Query`
    /// frame carries.
    pub queries: Vec<[Query; 1]>,
    /// `queries[i]` as an encoded `Query` payload.
    pub payloads: Vec<Vec<u8>>,
    /// The request stream: indexes into `queries`, replayed in order
    /// and wrapped around.
    pub order: Vec<u32>,
}

impl ReadStream {
    fn from_queries(queries: Vec<Query>, order: Vec<u32>) -> ReadStream {
        let queries: Vec<[Query; 1]> = queries.into_iter().map(|q| [q]).collect();
        let payloads = queries.iter().map(|q| encode_query_payload(q)).collect();
        ReadStream { queries, payloads, order }
    }

    /// The cold stream: [`STREAM_LEN`] independent requests, keyword
    /// uniform over the vocabulary, `l` uniform in {5,10,15,30,50},
    /// Top-Path 1/2 / Bottom-Up 1/4 / Optimal 1/4, the complete OS on
    /// one request in eight.
    pub fn cold(vocab: &[String], source: OsSource, seed: u64) -> ReadStream {
        let mut rng = Prng::new(seed).fork(0xC01D);
        let queries = (0..STREAM_LEN)
            .map(|_| (rng.pick(vocab).clone(), random_options(&mut rng, source)))
            .collect();
        ReadStream::from_queries(queries, (0..STREAM_LEN as u32).collect())
    }

    /// The hot stream: [`STREAM_LEN`] requests uniform over a
    /// [`HOT_SET`]-query hot set.
    ///
    /// The hot set is a *stratified* sample: the vocabulary is sorted
    /// by how much a keyword's reply carries (the summary nodes of its
    /// data subjects at l = 50, computed on the engine directly, past
    /// the serve cache) and cut into 64 equal strata, the seed picks
    /// one keyword per stratum, and the option mix (the same
    /// proportions as the cold stream) is dealt round-robin from a
    /// seeded rotation. A plain 64-draw sample lets the reply volume of
    /// the set — and with it every metric — swing by 25 % and more
    /// from seed to seed, which would make two commits incomparable
    /// unless both ran the same seed.
    pub fn hot(engine: &SizeLEngine, vocab: &[String], source: OsSource, seed: u64) -> ReadStream {
        let mut rng = Prng::new(seed).fork(0x407);
        let survey = options(*LS.last().expect("non-empty"), AlgoKind::TopPath, true, source);
        let mut by_weight: Vec<(usize, &String)> = vocab
            .iter()
            .map(|t| {
                let nodes = |tds| engine.summarize(tds, survey).summary.len();
                (engine.ds_hits(t).into_iter().map(nodes).sum(), t)
            })
            .collect();
        by_weight.sort();
        let n = HOT_SET.min(by_weight.len());
        let (rot_l, rot_algo, rot_complete) = (
            rng.below(LS.len() as u64) as usize,
            rng.below(ALGOS.len() as u64) as usize,
            rng.below(COMPLETE_ONE_IN) as usize,
        );
        let queries = (0..n)
            .map(|i| {
                let (lo, hi) = (i * by_weight.len() / n, (i + 1) * by_weight.len() / n);
                let token = by_weight[rng.range(lo, hi)].1.clone();
                let l = LS[(i + rot_l) % LS.len()];
                // Step the algorithm once per full cycle of `l`, so
                // every (l, algo) pair occurs.
                let algo = ALGOS[(i / LS.len() + rot_algo) % ALGOS.len()];
                let prelim = (i + rot_complete) % COMPLETE_ONE_IN as usize != 0;
                (token, options(l, algo, prelim, source))
            })
            .collect();
        let order = (0..STREAM_LEN).map(|_| rng.below(n as u64) as u32).collect();
        ReadStream::from_queries(queries, order)
    }

    /// The `k`-th request of the stream (wrapping), as an index into
    /// `queries` / `payloads`.
    pub fn at(&self, k: usize) -> usize {
        self.order[k % self.order.len()] as usize
    }
}

/// Mutations per write batch.
pub const BATCH_MUTATIONS: usize = 16;
/// Batches before a stream's batches reach full size (deletes reach
/// back eight batches).
pub const PREROLL_BATCHES: usize = 8;
const INSERTS: i64 = 6;

/// Generates write batches: 6 Author inserts, 6 AuthorPaper inserts
/// linking them to seeded existing papers, 2 updates of authors
/// inserted one batch earlier, 2 deletes of AuthorPaper rows inserted
/// eight batches earlier — 16 mutations once the stream is eight
/// batches deep.
pub struct MutationStream {
    rng: Prng,
    first_author: i64,
    first_junction: i64,
    papers: Vec<i64>,
    next: i64,
}

impl MutationStream {
    /// A stream minting primary keys above everything in `db`.
    pub fn new(db: &Database, seed: u64) -> MutationStream {
        let pks = |table: &str| -> Vec<i64> {
            let t = db.table(db.table_id(table).expect("DBLP schema"));
            t.iter().map(|(r, _)| t.pk_of(r)).collect()
        };
        let first_free = |table: &str| pks(table).into_iter().max().map_or(1, |pk| pk + 1);
        MutationStream {
            rng: Prng::new(seed).fork(0x3A7E),
            first_author: first_free("Author"),
            first_junction: first_free("AuthorPaper"),
            papers: pks("Paper"),
            next: 0,
        }
    }

    fn author_row(pk: i64, revision: &str) -> Vec<Value> {
        vec![Value::Int(pk), format!("Wrkld{pk} Author{pk}{revision}").into()]
    }

    /// The next batch.
    pub fn next_batch(&mut self) -> Vec<Mutation> {
        let k = self.next;
        self.next += 1;
        let mut ms = Vec::with_capacity(BATCH_MUTATIONS);
        for j in 0..INSERTS {
            let author = self.first_author + k * INSERTS + j;
            ms.push(Mutation::insert("Author", Self::author_row(author, "")));
        }
        for j in 0..INSERTS {
            let (author, junction) =
                (self.first_author + k * INSERTS + j, self.first_junction + k * INSERTS + j);
            let paper = *self.rng.pick(&self.papers);
            ms.push(Mutation::insert(
                "AuthorPaper",
                vec![Value::Int(junction), Value::Int(author), Value::Int(paper)],
            ));
        }
        if k >= 1 {
            for j in 0..2 {
                let author = self.first_author + (k - 1) * INSERTS + j;
                ms.push(Mutation::update("Author", author, Self::author_row(author, " Revised")));
            }
        }
        if k >= PREROLL_BATCHES as i64 {
            for j in 0..2 {
                let junction = self.first_junction + (k - PREROLL_BATCHES as i64) * INSERTS + j;
                ms.push(Mutation::delete("AuthorPaper", junction));
            }
        }
        ms
    }

    /// Makes batch `k` the next one: batches generated ahead of time
    /// but never sent (the writer stops when the window ends) must be
    /// generated again, or later batches would update and delete rows
    /// that were never inserted.
    pub fn resume_at(&mut self, k: usize) {
        self.next = k as i64;
    }

    /// The next `n` batches, each also as an encoded `ApplyBatch` payload.
    pub fn take_encoded(&mut self, n: usize) -> Vec<(Vec<Mutation>, Vec<u8>)> {
        (0..n)
            .map(|_| {
                let ms = self.next_batch();
                let payload = encode_apply_payload(&ms);
                (ms, payload)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::build_engine;
    use sizel_datagen::dblp::DblpConfig;

    #[test]
    fn streams_are_a_pure_function_of_the_seed() {
        let engine = build_engine(&DblpConfig::tiny());
        let vocab = vocabulary(engine.db());
        assert!(vocab.len() > 50 && vocab.windows(2).all(|w| w[0] < w[1]));
        assert!(vocab.iter().all(|t| t.chars().count() >= 3));

        let a = ReadStream::cold(&vocab, OsSource::DataGraph, 7);
        let b = ReadStream::cold(&vocab, OsSource::DataGraph, 7);
        let c = ReadStream::cold(&vocab, OsSource::DataGraph, 8);
        assert_eq!(a.payloads, b.payloads);
        assert_ne!(a.payloads, c.payloads);
        assert_eq!(a.queries.len(), STREAM_LEN);

        let h1 = ReadStream::hot(&engine, &vocab, OsSource::DataGraph, 7);
        let h2 = ReadStream::hot(&engine, &vocab, OsSource::DataGraph, 7);
        assert_eq!(h1.payloads, h2.payloads);
        assert_eq!(h1.order, h2.order);
        assert_eq!(h1.queries.len(), HOT_SET);
        assert!(h1.order.iter().all(|&i| (i as usize) < HOT_SET));
        assert_eq!(h1.at(STREAM_LEN + 3), h1.at(3));
    }

    #[test]
    fn hot_set_keeps_the_option_mix_whatever_the_seed() {
        let engine = build_engine(&DblpConfig::tiny());
        let vocab = vocabulary(engine.db());
        for seed in 0..5 {
            let h = ReadStream::hot(&engine, &vocab, OsSource::DataGraph, seed);
            let opts: Vec<QueryOptions> = h.queries.iter().map(|q| q[0].1).collect();
            for l in LS {
                let n = opts.iter().filter(|o| o.l == l).count();
                assert!((12..=13).contains(&n), "seed {seed}: l={l} on {n} queries");
            }
            assert_eq!(opts.iter().filter(|o| !o.prelim).count(), 8, "seed {seed}");
            let top_path = opts.iter().filter(|o| o.algo == AlgoKind::TopPath).count();
            assert!((29..=35).contains(&top_path), "seed {seed}: {top_path} Top-Path");
        }
    }

    #[test]
    fn mutation_batches_apply_cleanly_and_reach_sixteen() {
        let mut engine = build_engine(&DblpConfig::tiny());
        let mut stream = MutationStream::new(engine.db(), 3);
        for k in 0..12 {
            let batch = stream.next_batch();
            let want = match k {
                0 => 12,
                1..=7 => 14,
                _ => BATCH_MUTATIONS,
            };
            assert_eq!(batch.len(), want, "batch {k}");
            engine.apply_batch(batch).unwrap_or_else(|e| panic!("batch {k}: {e}"));
        }
    }
}
