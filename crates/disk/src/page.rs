//! The fixed-size segment page and the list slots packed into it.
//!
//! A page belongs to one `(kind, table, column)` and carries a sequence
//! of **slots**, each a self-describing piece of one FK posting list:
//!
//! ```text
//! page                                  slot (at the directory's offset)
//! offset  size  field                   offset  size  field
//!      0     4  magic "SLPG"                 0     8  key    (the i64 FK key this list serves)
//!      4     1  kind   (1 = FK)              8     4  start  (index in the list of entry 0)
//!      5     1  reserved (zero)             12     2  count  (entries in THIS slot)
//!      6     2  table  (TableId, LE)        14     …  count × entry
//!      8     2  column (FK column index)
//!     10     4  crc32  (over every other byte of the page)
//!     14  4082  slots, then zeros
//! ```
//!
//! An entry is a `u32` row id, stored in exactly the descending-importance
//! order of the in-RAM sorted postings, so a list's slots in run order
//! ARE the list, best importance first. A slot alone in its page holds
//! [`FK_PER_PAGE`] = 1017 row ids. Slots never have `count` 0, so the
//! zeros after the last slot end the sequence. The checksum covers
//! header, slots and padding alike: any flipped bit fails the page, and
//! a failed page fails every read of every list in it (fail closed).
//!
//! The kind byte is always 1; a page or directory naming any other kind
//! (2 included) is refused.

use sizel_storage::RowId;

use crate::crc::{crc32, crc32_append};
use crate::error::{DiskError, Result};

/// Page size in bytes. Matches the common filesystem block size.
pub const PAGE_SIZE: usize = 4096;
/// The first slot's offset: the byte past the page header.
pub const PAGE_HEADER_LEN: usize = 14;
/// Bytes of a slot before its entries.
pub const SLOT_HEADER_LEN: usize = 14;
/// Bytes per entry: a `u32` row id.
const ENTRY_WIDTH: usize = 4;
/// FK row-id entries in a page holding one slot: the longest piece of a
/// list a page can carry.
pub const FK_PER_PAGE: usize = (PAGE_SIZE - PAGE_HEADER_LEN - SLOT_HEADER_LEN) / ENTRY_WIDTH;

const MAGIC: [u8; 4] = *b"SLPG";
const CRC_OFFSET: usize = 10;

/// What a page stores. One kind is written; the byte stays in the page
/// header and the directory so that a file naming another is refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PageKind {
    /// FK posting rows (`u32` each).
    Fk = 1,
}

impl PageKind {
    /// The kind a stored byte names, if any.
    pub const fn from_byte(b: u8) -> Option<PageKind> {
        match b {
            1 => Some(PageKind::Fk),
            _ => None,
        }
    }
}

/// The column whose postings a page holds: what the page header says of
/// it, what a coverage record covers, and — with a key — what names a
/// list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ColumnId {
    /// What the pages hold.
    pub kind: PageKind,
    /// Owning table.
    pub table: u16,
    /// FK column index within the table.
    pub col: u16,
}

/// The checksum of everything in `buf` but the CRC field itself.
fn page_crc(buf: &[u8; PAGE_SIZE]) -> u32 {
    crc32_append(crc32(&buf[..CRC_OFFSET]), &buf[CRC_OFFSET + 4..])
}

/// Writes the header of a page of `column` into `buf` and seals the
/// page: stores the CRC of every other byte.
pub fn seal_page(buf: &mut [u8; PAGE_SIZE], column: ColumnId) {
    buf[0..4].copy_from_slice(&MAGIC);
    buf[4] = column.kind as u8;
    buf[5] = 0;
    buf[6..8].copy_from_slice(&column.table.to_le_bytes());
    buf[8..10].copy_from_slice(&column.col.to_le_bytes());
    let crc = page_crc(buf);
    buf[CRC_OFFSET..CRC_OFFSET + 4].copy_from_slice(&crc.to_le_bytes());
}

/// Verifies `buf`'s magic and checksum: that these are the bytes a
/// writer sealed. Any mismatch is a typed error — the page must not be
/// used. Whose page it is, is [`page_column`]'s to say.
pub fn verify_page(buf: &[u8; PAGE_SIZE]) -> Result<()> {
    if buf[0..4] != MAGIC {
        return Err(DiskError::Corrupt("segment page magic"));
    }
    let stored = u32::from_le_bytes(buf[CRC_OFFSET..CRC_OFFSET + 4].try_into().unwrap());
    let computed = page_crc(buf);
    if stored != computed {
        return Err(DiskError::ChecksumMismatch { what: "segment page", stored, computed });
    }
    Ok(())
}

/// The column a verified page's header names — `None` for an unknown
/// kind byte. A reader compares it with its list's column for each page
/// of the list it reads ([`crate::segment::DirEntry::check_page`]).
pub fn page_column(buf: &[u8; PAGE_SIZE]) -> Option<ColumnId> {
    Some(ColumnId {
        kind: PageKind::from_byte(buf[4])?,
        table: u16::from_le_bytes(buf[6..8].try_into().unwrap()),
        col: u16::from_le_bytes(buf[8..10].try_into().unwrap()),
    })
}

/// The header of a slot holding `count` entries of `key`'s list, from
/// the list's entry `start` on. The writer stores these bytes and a
/// reader compares what it finds against them.
pub fn slot_header(key: i64, start: u32, count: u16) -> [u8; SLOT_HEADER_LEN] {
    let mut header = [0; SLOT_HEADER_LEN];
    header[..8].copy_from_slice(&key.to_le_bytes());
    header[8..12].copy_from_slice(&start.to_le_bytes());
    header[12..].copy_from_slice(&count.to_le_bytes());
    header
}

/// Bytes a slot of `n` entries takes.
pub const fn slot_len(n: usize) -> usize {
    SLOT_HEADER_LEN + n * ENTRY_WIDTH
}

/// Writes a slot — header, then `rows` — at byte `at` (before sealing).
/// The caller has checked that it fits the page.
pub fn put_slot(buf: &mut [u8; PAGE_SIZE], at: usize, key: i64, start: u32, rows: &[RowId]) {
    let header = slot_header(key, start, rows.len() as u16);
    buf[at..at + SLOT_HEADER_LEN].copy_from_slice(&header);
    for (i, r) in rows.iter().enumerate() {
        buf[at + slot_len(i)..at + slot_len(i + 1)].copy_from_slice(&r.0.to_le_bytes());
    }
}

/// Reads entry `i` of the slot at byte `at` of a verified page.
pub fn slot_entry(buf: &[u8; PAGE_SIZE], at: usize, i: usize) -> RowId {
    let bytes = &buf[at + slot_len(i)..at + slot_len(i + 1)];
    RowId(u32::from_le_bytes(bytes.try_into().expect("four bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FK_COLUMN: ColumnId = ColumnId { kind: PageKind::Fk, table: 7, col: 2 };

    #[test]
    fn seal_verify_roundtrip() {
        let rows: Vec<RowId> = (0..FK_PER_PAGE as u32).map(|i| RowId(i * 3)).collect();
        let mut full = [0u8; PAGE_SIZE];
        put_slot(&mut full, PAGE_HEADER_LEN, -42, 2034, &rows);
        seal_page(&mut full, FK_COLUMN);
        verify_page(&full).unwrap();
        assert_eq!(page_column(&full), Some(FK_COLUMN));
        assert_eq!(
            full[PAGE_HEADER_LEN..][..SLOT_HEADER_LEN],
            slot_header(-42, 2034, FK_PER_PAGE as u16)
        );
        assert_eq!(slot_entry(&full, PAGE_HEADER_LEN, 5), RowId(15));
        assert_eq!(slot_entry(&full, PAGE_HEADER_LEN, FK_PER_PAGE - 1), rows[1016]);

        // Two slots back to back; the zeros after them end the page.
        let mut shared = [0u8; PAGE_SIZE];
        let second = PAGE_HEADER_LEN + slot_len(2);
        put_slot(&mut shared, PAGE_HEADER_LEN, 1, 0, &[RowId(3), RowId(4)]);
        put_slot(&mut shared, second, 9, 0, &[RowId(7)]);
        seal_page(&mut shared, FK_COLUMN);
        verify_page(&shared).unwrap();
        assert_eq!(shared[second..][..SLOT_HEADER_LEN], slot_header(9, 0, 1));
        assert_eq!(slot_entry(&shared, second, 0), RowId(7));
        assert_eq!(slot_entry(&shared, PAGE_HEADER_LEN, 1), RowId(4));
        assert!(shared[second + slot_len(1)..].iter().all(|&b| b == 0));
    }

    #[test]
    fn any_flipped_bit_fails_verification() {
        let mut buf = [0u8; PAGE_SIZE];
        put_slot(&mut buf, PAGE_HEADER_LEN, 0, 0, &[RowId(3), RowId(4)]);
        seal_page(&mut buf, FK_COLUMN);
        // An entry flip, a slot-header flip, a page-header flip, a CRC
        // flip and a padding flip all fail.
        for at in [PAGE_HEADER_LEN + SLOT_HEADER_LEN, PAGE_HEADER_LEN, 6, CRC_OFFSET, 4000] {
            let mut bad = buf;
            bad[at] ^= 0x10;
            assert!(verify_page(&bad).is_err(), "flip at {at} went undetected");
        }
    }

    #[test]
    fn an_unknown_kind_byte_names_no_column() {
        // A sealed page whose kind byte says 2 verifies as bytes but
        // belongs to no column, so no reader accepts it.
        let mut buf = [0u8; PAGE_SIZE];
        put_slot(&mut buf, PAGE_HEADER_LEN, 0, 0, &[RowId(3)]);
        seal_page(&mut buf, FK_COLUMN);
        buf[4] = 2;
        let crc = page_crc(&buf);
        buf[CRC_OFFSET..CRC_OFFSET + 4].copy_from_slice(&crc.to_le_bytes());
        verify_page(&buf).unwrap();
        assert_eq!(page_column(&buf), None);
        assert_eq!(PageKind::from_byte(2), None);
    }

    #[test]
    fn capacity_constants_fill_the_page_exactly() {
        assert_eq!(FK_PER_PAGE, 1017);
        const { assert!(PAGE_HEADER_LEN + slot_len(FK_PER_PAGE) <= PAGE_SIZE) };
        // A full slot shares its page with no other: the packing relies
        // on it to keep the run of a long list consecutive.
        assert!(PAGE_HEADER_LEN + slot_len(FK_PER_PAGE) + slot_len(1) > PAGE_SIZE);
    }
}
