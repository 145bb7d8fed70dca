//! CRC-32 (IEEE 802.3 polynomial), slicing-by-8.
//!
//! The same checksum guards segment pages and WAL records. Eight
//! 256-entry tables, built at compile time, let the loop fold eight
//! input bytes per step instead of one (table `k` advances a byte by
//! `k` further zero bytes, so the eight lookups of one step are
//! independent). Matches the ubiquitous zlib/`crc32fast` definition
//! (reflected, init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`), so external
//! tooling can verify the files.

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// The CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_append(0, bytes)
}

/// The CRC-32 of a stream whose CRC so far is `crc`, extended by
/// `bytes`: `crc32_append(crc32(a), b)` is `crc32` of `a` followed by
/// `b` (zlib's convention — the empty stream's CRC is 0).
pub fn crc32_append(crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time table loop: the reference the sliced form is
    /// pinned against.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn matches_known_vectors() {
        // Standard test vectors for the IEEE polynomial.
        for (bytes, crc) in [
            (b"".as_slice(), 0x0000_0000),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
        ] {
            assert_eq!(crc32(bytes), crc);
            assert_eq!(bytewise(bytes), crc);
        }
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_offset() {
        let data: Vec<u8> =
            (0..4096u32 + 8).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), bytewise(s), "start {start} len {len}");
            }
            let page = &data[start..start + 4096];
            assert_eq!(crc32(page), bytewise(page), "page at start {start}");
        }
    }

    #[test]
    fn appending_in_pieces_equals_one_pass() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        let whole = crc32(&data);
        for cut in [0, 1, 7, 8, 9, 10, 14, 150, 299, 300] {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32_append(crc32(a), b), whole, "cut at {cut}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"size-l object summaries".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} went undetected");
            }
        }
    }
}
