//! The five workloads and what each one builds.

use sizel_core::osgen::OsSource;
use sizel_datagen::dblp::DblpConfig;

use crate::stack::{StackSpec, Tier};

/// A workload of the benchmark. Later issues refer to these by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Window-8 wire reads over a 64-query hot set, fully cached.
    HotRead,
    /// Window-8 wire reads over a key space far larger than the cache.
    ColdRead,
    /// `cold_read`'s stream against paged posting tables.
    PagedRead,
    /// `hot_read`'s reader beside a 2 batches/s wire writer, WAL on.
    MixedRw,
    /// The hot set through in-process `batch_query_at`, no socket.
    EmbedHot,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::HotRead,
        Workload::ColdRead,
        Workload::PagedRead,
        Workload::MixedRw,
        Workload::EmbedHot,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot_read",
            Workload::ColdRead => "cold_read",
            Workload::PagedRead => "paged_read",
            Workload::MixedRw => "mixed_rw",
            Workload::EmbedHot => "embed_hot",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one line (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::HotRead => {
                "64 cached queries over the wire: net, codec and cache probe do all the work, \
                 compute and disk none"
            }
            Workload::ColdRead => {
                "a 65536-request stream over ~16000 distinct queries, 4x the 4096-entry cache: OS \
                 generation, the size-l algorithms and the serve queue dominate"
            }
            Workload::PagedRead => {
                "cold_read's stream with posting tables paged behind a 1024-page cache over a \
                 ~62000-page segment: storage and disk dominate"
            }
            Workload::MixedRw => {
                "hot_read's reader beside 2 write batches/s with WAL fsync: gate, apply_batch, \
                 invalidation and re-warm contend with reads"
            }
            Workload::EmbedHot => {
                "the hot set through in-process batch_query_at: pays the fan-out and serve-queue \
                 hop the wire fast path skips, no socket"
            }
        }
    }

    /// Whether requests go over TCP (everything but `embed_hot`).
    pub fn wire(self) -> bool {
        self != Workload::EmbedHot
    }

    /// Whether the request stream repeats a 64-query hot set.
    pub fn hot(self) -> bool {
        matches!(self, Workload::HotRead | Workload::MixedRw | Workload::EmbedHot)
    }

    /// Whether a second generator thread writes during the window.
    pub fn writes_in_window(self) -> bool {
        self == Workload::MixedRw
    }

    /// Where OS generation reads tuples from: `paged_read` must probe
    /// the stored tables, or its paged postings are never touched.
    pub fn source(self) -> OsSource {
        match self {
            Workload::PagedRead => OsSource::Database,
            _ => OsSource::DataGraph,
        }
    }

    /// The stack the workload runs against, over database `db`.
    pub fn spec(self, db: DblpConfig) -> StackSpec {
        let tier = match self {
            Workload::PagedRead => Tier::Paged,
            Workload::MixedRw => Tier::Wal,
            _ => Tier::None,
        };
        StackSpec { db, tier, wire: self.wire() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_fit_the_contract() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{}", w.name());
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
