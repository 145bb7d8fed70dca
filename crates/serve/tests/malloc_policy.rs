//! The serving process's malloc policy (DESIGN.md §5, "Pool retention is
//! bounded"): building a `SizeLServer` pins glibc's mmap and trim
//! thresholds at 128 KiB, so freeing a block larger than any before it
//! does not raise them, and a later block of 128 KiB or more is still
//! `mmap`ped and given back whole when it is freed.
//!
//! `mallinfo2`'s counts are process-wide. Keep this file to a SINGLE
//! `#[test]`: a concurrently running test in the same binary would move
//! them.
#![cfg(all(target_os = "linux", target_env = "gnu"))]

use sizel_datagen::dblp::DblpConfig;
use sizel_serve::{ServeConfig, SizeLServer};

mod common;

/// glibc's `struct mallinfo2`: ten `size_t` counters, `hblks` (the
/// number of `mmap`ped chunks) the fourth and `hblkhd` (their bytes) the
/// fifth.
#[repr(C)]
struct MallInfo2([usize; 10]);

extern "C" {
    fn mallinfo2() -> MallInfo2;
}

/// `(hblks, hblkhd)`: the `mmap`ped chunks and their bytes.
fn mapped() -> (usize, usize) {
    // SAFETY: `mallinfo2` takes no argument and returns its counters by value.
    let MallInfo2(counts) = unsafe { mallinfo2() };
    (counts[3], counts[4])
}

/// A held heap block of `bytes` bytes.
fn block(bytes: usize) -> Vec<u8> {
    std::hint::black_box(Vec::with_capacity(bytes))
}

#[test]
fn a_block_past_128_kib_is_mapped_and_given_back_after_a_larger_one_is_freed() {
    let _server =
        SizeLServer::new(common::build_engine(&DblpConfig::tiny()), ServeConfig::default());
    // Unpinned, freeing this `mmap`ped block raises the mmap threshold
    // past 1 MiB and the trim threshold past 2 MiB.
    drop(block(1 << 20));
    let before = mapped();
    let held = block(256 << 10);
    assert_eq!(mapped().0, before.0 + 1, "a 256 KiB block is mmapped");
    drop(held);
    assert_eq!(mapped(), before, "freeing it unmaps its bytes");
}
