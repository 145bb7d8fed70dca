//! Write-ahead batch durability and the engine's disk tier.
//!
//! The engine's mutation surface ([`Mutation`]) gains **redo
//! durability**: every `apply`/`apply_batch` call first appends one
//! checksummed record — the encoded batch — to a [`sizel_disk::Wal`],
//! and only then settles the mutations into the database. A process
//! that dies between the append and the settlement recovers by
//! rebuilding the engine over the same base data and replaying the WAL
//! tail through the very same `apply_batch` path, which reproduces the
//! committed state byte for byte (the replay is deterministic: same
//! base, same records, same order). A torn or corrupted tail record is
//! detected by its checksum and the replay stops at the first damage —
//! exactly the prefix that was durably committed.
//!
//! The same [`DiskTier`] owns the [`PagedStore`] of posting segments:
//! [`crate::SizeLEngine::checkpoint_disk`] snapshots the
//! importance-sorted FK runs of the configured *paged* tables into a
//! fresh segment generation, the checkpoint artefact. The runs stay in
//! RAM and serve every probe; the tier keeps no residency policy.
//!
//! ## Record format
//!
//! A WAL record's payload (the [`Wal`] layer adds the length + CRC
//! frame) is `[epoch u64]` followed by the batch exactly as
//! [`crate::batch_codec`] lays it out — the bytes of the wire's
//! `ApplyBatch` payload, so every batch the front-end accepts is a record
//! [`decode_batch`] reads back. The epoch recorded is the epoch the
//! batch was applied *at* (pre-application), kept for diagnostics; the
//! replay derives its own epochs by re-applying.

use std::path::PathBuf;

use sizel_disk::{DiskError, PagedStore, StoreStats, Wal};
use sizel_storage::codec::{put_u64, CodecError, Reader};
use sizel_storage::{StorageError, TableId};

use crate::batch_codec::{get_batch, put_batch};
use crate::engine::Mutation;

/// Configuration for [`crate::SizeLEngine::attach_disk`].
#[derive(Clone, Debug)]
pub struct DiskTierConfig {
    /// Root directory: holds `wal.log` and the `segments/` store.
    pub dir: PathBuf,
    /// Read by nothing: the tier keeps no block cache. Kept only for the
    /// frozen benchmark package, which sets it; it goes with that
    /// package's next change (ROADMAP item 0).
    pub cache_pages: usize,
    /// Fsync the WAL every this many appends (minimum 1 — every
    /// append). Values above 1 trade a bounded redo window for
    /// throughput.
    pub fsync_every: usize,
    /// Tables whose sorted postings each checkpoint writes to a segment
    /// generation. Their runs stay in RAM.
    pub paged_tables: Vec<String>,
}

impl DiskTierConfig {
    /// A tier rooted at `dir` with defaults: fsync on every append, no
    /// table checkpointed (WAL-only durability).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskTierConfig {
            dir: dir.into(),
            cache_pages: 1024,
            fsync_every: 1,
            paged_tables: Vec::new(),
        }
    }
}

/// What [`crate::SizeLEngine::attach_disk`] found and replayed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL records decoded and re-applied.
    pub batches_replayed: usize,
    /// Mutations inside those records.
    pub mutations_replayed: usize,
    /// Records whose re-application was rejected by validation (the
    /// original run rejected the same suffix — deterministic).
    pub batches_rejected: usize,
    /// Bytes of torn/corrupt tail discarded by the WAL open.
    pub wal_truncated_bytes: u64,
    /// Whether the WAL tail was damaged (torn final record or checksum
    /// failure) — the replay stopped at the last intact record.
    pub wal_tail_damaged: bool,
    /// The segment generation installed by the attach-time checkpoint
    /// (0 if no tables are paged).
    pub generation: u64,
}

/// Point-in-time disk-tier statistics for the serving layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskTierStats {
    /// Segment-store counters.
    pub store: StoreStats,
    /// Bytes currently in the WAL (since the last truncation).
    pub wal_bytes: u64,
    /// Batches appended to the WAL over the tier's lifetime.
    pub wal_appends: u64,
    /// How many of those appends fsynced (`fsync_every` batching).
    pub wal_syncs: u64,
}

/// The engine's attached disk tier: segment store + write-ahead log.
#[derive(Debug)]
pub struct DiskTier {
    pub(crate) store: PagedStore,
    pub(crate) wal: Wal,
    pub(crate) paged: Vec<TableId>,
    pub(crate) wal_appends: u64,
    pub(crate) wal_syncs: u64,
}

impl DiskTier {
    /// Appends `ms` as one checksummed WAL record, tracking fsync
    /// batching.
    pub(crate) fn log_batch(&mut self, epoch: u64, ms: &[Mutation]) -> Result<(), StorageError> {
        let synced = self
            .wal
            .append(&encode_batch(epoch, ms))
            .map_err(|e| StorageError::Durability(e.to_string()))?;
        self.wal_appends += 1;
        if synced {
            self.wal_syncs += 1;
        }
        Ok(())
    }

    pub(crate) fn stats(&self) -> DiskTierStats {
        DiskTierStats {
            store: self.store.stats(),
            wal_bytes: self.wal.len_bytes(),
            wal_appends: self.wal_appends,
            wal_syncs: self.wal_syncs,
        }
    }
}

/// Encodes a batch of mutations as one WAL record payload.
pub fn encode_batch(epoch: u64, ms: &[Mutation]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + ms.len() * 32);
    put_u64(&mut out, epoch);
    put_batch(&mut out, ms);
    out
}

/// Decodes one WAL record payload back into `(epoch, mutations)`. A
/// record whose checksum held but whose bytes are not a batch is a typed
/// error, never a panic.
pub fn decode_batch(bytes: &[u8]) -> Result<(u64, Vec<Mutation>), DiskError> {
    read_record(bytes).map_err(|_| DiskError::Corrupt("malformed wal batch record"))
}

fn read_record(bytes: &[u8]) -> Result<(u64, Vec<Mutation>), CodecError> {
    let mut r = Reader::new(bytes);
    let record = (r.u64()?, get_batch(&mut r)?);
    r.finish()?;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MutationOp;
    use sizel_storage::Value;

    #[test]
    fn a_mixed_batch_round_trips() {
        let ms = vec![
            Mutation::insert(
                "Product",
                vec![
                    Value::Int(7),
                    Value::Null,
                    Value::Float(1.25),
                    Value::Text("Chai Tea".into()),
                ],
            ),
            Mutation::update("Product", 7, vec![Value::Int(7), Value::Text("Chai".into())]).exact(),
            Mutation::delete("Order Details", -3),
            // Past the 65 535 a `u16` length could carry: the lengths are
            // `u32`, so what `encode_batch` writes `decode_batch` reads.
            Mutation::delete("x".repeat(70_000), 1),
            Mutation::insert("Author", vec![Value::Null; 70_000]),
        ];
        let rec = encode_batch(41, &ms);
        assert_eq!(decode_batch(&rec).unwrap(), (41, ms));
    }

    #[test]
    fn empty_batches_and_nan_floats_survive() {
        let rec = encode_batch(0, &[]);
        assert_eq!(decode_batch(&rec).unwrap(), (0, vec![]));
        let ms = vec![Mutation::insert(
            "T",
            vec![Value::Float(f64::NAN), Value::Float(-0.0), Value::Text(String::new())],
        )];
        let (_, back) = decode_batch(&encode_batch(1, &ms)).unwrap();
        let MutationOp::Insert { values } = &back[0].op else { panic!("insert") };
        let (Value::Float(nan), Value::Float(zero)) = (&values[0], &values[1]) else {
            panic!("floats")
        };
        assert!(nan.is_nan(), "NaN travels through to_bits verbatim");
        assert!(zero.is_sign_negative(), "and so does the sign of zero");
        assert_eq!(values[2], Value::Text(String::new()));
    }

    #[test]
    fn malformed_payloads_decode_to_typed_errors_not_panics() {
        let good = encode_batch(9, &[Mutation::delete("T", 1)]);
        // Truncations at every prefix length fail cleanly.
        for cut in 0..good.len() {
            assert!(
                matches!(decode_batch(&good[..cut]), Err(DiskError::Corrupt(_))),
                "prefix of {cut} bytes must not decode"
            );
        }
        // Trailing garbage is rejected, not silently ignored.
        let mut padded = good.clone();
        padded.push(0);
        assert!(matches!(decode_batch(&padded), Err(DiskError::Corrupt(_))));
        // A bad op tag is rejected.
        let mut bad = good;
        bad[18] = 9; // op byte of the first mutation
        assert!(matches!(decode_batch(&bad), Err(DiskError::Corrupt(_))));
    }
}
