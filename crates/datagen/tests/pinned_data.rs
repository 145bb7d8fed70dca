//! Pins the generated databases byte for byte.
//!
//! Every calibration in EXPERIMENTS.md (|OS| ladders, approximation
//! ratios, the benchmark's query streams) rests on `generate` being a
//! pure function of its config — not only across two runs of one build,
//! which the unit tests check, but across *changes to the generators*.
//! The fingerprints below were recorded at commit `3efcb2e` (before the
//! generators moved from `Database::insert(&str, ..)` to
//! `Database::insert_into(TableId, ..)`); a generator speed-up that
//! shifts a single value fails here instead of silently moving every
//! number downstream. Re-record only with a change that *means* to alter
//! the data, and re-calibrate EXPERIMENTS.md with it.

use sizel_datagen::{dblp, tpch, DblpConfig, TpchConfig};
use sizel_storage::{codec, Database};

/// FNV-1a over every table's rows in catalog and insertion order, each
/// value in the workspace's canonical byte encoding.
fn fingerprint(db: &Database) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut buf = Vec::new();
    for (_, table) in db.tables() {
        buf.clear();
        codec::put_str(&mut buf, &table.schema.name);
        for (_, row) in table.iter() {
            for v in row.iter() {
                codec::put_value(&mut buf, v);
            }
        }
        for &b in &buf {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn dblp_tiny_is_pinned() {
    assert_eq!(fingerprint(&dblp::generate(&DblpConfig::tiny()).db), 0xde66_78a7_adfa_dd62);
}

#[test]
fn dblp_small_is_pinned() {
    assert_eq!(fingerprint(&dblp::generate(&DblpConfig::small()).db), 0xe7de_ff5c_a7fa_a368);
}

#[test]
fn dblp_bench_is_pinned() {
    assert_eq!(fingerprint(&dblp::generate(&DblpConfig::bench()).db), 0x345e_fc2e_86b7_28fa);
}

#[test]
fn tpch_tiny_is_pinned() {
    assert_eq!(fingerprint(&tpch::generate(&TpchConfig::tiny()).db), 0x5b0b_4035_d75e_fb74);
}

#[test]
fn tpch_bench_is_pinned() {
    assert_eq!(fingerprint(&tpch::generate(&TpchConfig::bench()).db), 0x82f0_2ecf_134e_64ed);
}
