//! The fixed-size segment page and the list slots packed into it.
//!
//! A page belongs to one `(kind, table, column)` and carries a sequence
//! of **slots**, each a self-describing piece of one posting list:
//!
//! ```text
//! page                                  slot (at the directory's offset)
//! offset  size  field                   offset  size  field
//!      0     4  magic "SLPG"                 0     8  key    (the i64 FK key this list serves)
//!      4     1  kind   (1 = FK, 2 = link)    8     4  start  (index in the list of entry 0)
//!      5     1  reserved (zero)             12     2  count  (entries in THIS slot)
//!      6     2  table  (TableId, LE)        14     …  count × entry
//!      8     2  column (FK column index)
//!     10     4  crc32  (over every other byte of the page)
//!     14  4082  slots, then zeros
//! ```
//!
//! An FK entry is a `u32` row id, a link entry a `(u32, u32)`
//! junction/target row pair — both stored in exactly the
//! descending-importance order of the in-RAM sorted postings, so a
//! prefix scan of a list's slots IS the prefix scan of the list. A slot
//! alone in its page holds [`FK_PER_PAGE`] = 1017 row ids or
//! [`LINK_PER_PAGE`] = 508 pairs. Slots never have `count` 0, so the
//! zeros after the last slot end the sequence. The checksum covers
//! header, slots and padding alike: any flipped bit fails the page, and
//! a failed page fails every scan that reads it (fail closed).

use sizel_storage::RowId;

use crate::crc::{crc32, crc32_append};
use crate::error::{DiskError, Result};

/// Page size in bytes. Matches the common filesystem block size.
pub const PAGE_SIZE: usize = 4096;
/// The first slot's offset: the byte past the page header.
pub const PAGE_HEADER_LEN: usize = 14;
/// Bytes of a slot before its entries.
pub const SLOT_HEADER_LEN: usize = 14;
/// FK row-id entries in a page holding one slot.
pub const FK_PER_PAGE: usize = PageKind::Fk.per_page();
/// Link pair entries in a page holding one slot.
pub const LINK_PER_PAGE: usize = PageKind::Link.per_page();

const MAGIC: [u8; 4] = *b"SLPG";
const CRC_OFFSET: usize = 10;

/// One pooled, page-sized buffer. Held behind `Arc` by the block cache
/// so cursors can outlive evictions; recycled through the cache's free
/// list when the last reference drops.
#[derive(Clone)]
pub struct PageBuf(pub [u8; PAGE_SIZE]);

impl PageBuf {
    /// A zeroed page buffer.
    pub fn zeroed() -> PageBuf {
        PageBuf([0; PAGE_SIZE])
    }
}

impl std::fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PageBuf({} bytes)", PAGE_SIZE)
    }
}

/// What a page stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PageKind {
    /// FK posting rows (`u32` each).
    Fk = 1,
    /// Link posting pairs (`(u32, u32)` each).
    Link = 2,
}

impl PageKind {
    /// The kind a stored byte names, if any.
    pub const fn from_byte(b: u8) -> Option<PageKind> {
        match b {
            1 => Some(PageKind::Fk),
            2 => Some(PageKind::Link),
            _ => None,
        }
    }

    /// Bytes per entry.
    pub const fn width(self) -> usize {
        match self {
            PageKind::Fk => 4,
            PageKind::Link => 8,
        }
    }

    /// Entries in a page holding one slot: the longest piece of a list a
    /// page can carry.
    pub const fn per_page(self) -> usize {
        (PAGE_SIZE - PAGE_HEADER_LEN - SLOT_HEADER_LEN) / self.width()
    }
}

/// A posting entry as the pages store it: [`RowId`] in FK pages,
/// `(junction RowId, target RowId)` in link pages.
pub trait PostingEntry: Copy {
    /// The page kind holding entries of this type.
    const KIND: PageKind;
    /// Writes the entry into the first `KIND.width()` bytes of `out`.
    fn put(self, out: &mut [u8]);
    /// Reads the entry from the first `KIND.width()` bytes of `bytes`.
    fn get(bytes: &[u8]) -> Self;
}

impl PostingEntry for RowId {
    const KIND: PageKind = PageKind::Fk;

    fn put(self, out: &mut [u8]) {
        out[..4].copy_from_slice(&self.0.to_le_bytes());
    }

    fn get(bytes: &[u8]) -> RowId {
        RowId(u32::from_le_bytes(bytes[..4].try_into().expect("four bytes")))
    }
}

impl PostingEntry for (RowId, RowId) {
    const KIND: PageKind = PageKind::Link;

    fn put(self, out: &mut [u8]) {
        self.0.put(out);
        self.1.put(&mut out[4..]);
    }

    fn get(bytes: &[u8]) -> (RowId, RowId) {
        (RowId::get(bytes), RowId::get(&bytes[4..]))
    }
}

/// The column whose postings a page holds: what the page header says of
/// it, what a coverage record covers, and — with a key — what names a
/// list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ColumnId {
    /// FK or link postings.
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
/// kind byte. A scan compares it with its list's column each time it
/// enters the page.
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

/// Writes a slot — header, then `entries` — at byte `at` (before
/// sealing). The caller has checked that it fits the page.
pub fn put_slot<E: PostingEntry>(
    buf: &mut [u8; PAGE_SIZE],
    at: usize,
    key: i64,
    start: u32,
    entries: &[E],
) {
    let header = slot_header(key, start, entries.len() as u16);
    buf[at..at + SLOT_HEADER_LEN].copy_from_slice(&header);
    for (i, &e) in entries.iter().enumerate() {
        e.put(&mut buf[at + SLOT_HEADER_LEN + i * E::KIND.width()..]);
    }
}

/// Reads entry `i` of the slot at byte `at` of a verified page.
pub fn slot_entry<E: PostingEntry>(buf: &[u8; PAGE_SIZE], at: usize, i: usize) -> E {
    E::get(&buf[at + SLOT_HEADER_LEN + i * E::KIND.width()..])
}

#[cfg(test)]
mod tests {
    use super::*;

    const FK_COLUMN: ColumnId = ColumnId { kind: PageKind::Fk, table: 7, col: 2 };

    #[test]
    fn seal_verify_roundtrip() {
        let rows: Vec<RowId> = (0..FK_PER_PAGE as u32).map(|i| RowId(i * 3)).collect();
        let mut full = PageBuf::zeroed();
        put_slot(&mut full.0, PAGE_HEADER_LEN, -42, 2034, &rows);
        seal_page(&mut full.0, FK_COLUMN);
        verify_page(&full.0).unwrap();
        assert_eq!(page_column(&full.0), Some(FK_COLUMN));
        assert_eq!(
            full.0[PAGE_HEADER_LEN..][..SLOT_HEADER_LEN],
            slot_header(-42, 2034, FK_PER_PAGE as u16)
        );
        assert_eq!(slot_entry::<RowId>(&full.0, PAGE_HEADER_LEN, 5), RowId(15));
        assert_eq!(slot_entry::<RowId>(&full.0, PAGE_HEADER_LEN, FK_PER_PAGE - 1), rows[1016]);

        // Two link slots back to back; the zeros after them end the page.
        let mut shared = PageBuf::zeroed();
        let second = PAGE_HEADER_LEN + SLOT_HEADER_LEN + 2 * 8;
        put_slot(
            &mut shared.0,
            PAGE_HEADER_LEN,
            1,
            0,
            &[(RowId(3), RowId(4)), (RowId(5), RowId(6))],
        );
        put_slot(&mut shared.0, second, 9, 0, &[(RowId(7), RowId(8))]);
        let header = ColumnId { kind: PageKind::Link, table: 1, col: 1 };
        seal_page(&mut shared.0, header);
        verify_page(&shared.0).unwrap();
        assert_eq!(page_column(&shared.0), Some(header));
        assert_eq!(shared.0[second..][..SLOT_HEADER_LEN], slot_header(9, 0, 1));
        assert_eq!(slot_entry::<(RowId, RowId)>(&shared.0, second, 0), (RowId(7), RowId(8)));
        assert_eq!(slot_entry::<(RowId, RowId)>(&shared.0, PAGE_HEADER_LEN, 1).1, RowId(6));
        assert!(shared.0[second + SLOT_HEADER_LEN + 8..].iter().all(|&b| b == 0));
    }

    #[test]
    fn any_flipped_bit_fails_verification() {
        let mut buf = PageBuf::zeroed();
        put_slot(&mut buf.0, PAGE_HEADER_LEN, 0, 0, &[(RowId(3), RowId(4))]);
        seal_page(&mut buf.0, ColumnId { kind: PageKind::Link, table: 1, col: 1 });
        // An entry flip, a slot-header flip, a page-header flip, a CRC
        // flip and a padding flip all fail.
        for at in [PAGE_HEADER_LEN + SLOT_HEADER_LEN, PAGE_HEADER_LEN, 6, CRC_OFFSET, 4000] {
            let mut bad = buf.clone();
            bad.0[at] ^= 0x10;
            assert!(verify_page(&bad.0).is_err(), "flip at {at} went undetected");
        }
    }

    #[test]
    fn capacity_constants_fill_the_page_exactly() {
        assert_eq!(FK_PER_PAGE, 1017);
        assert_eq!(LINK_PER_PAGE, 508);
        const { assert!(PAGE_HEADER_LEN + SLOT_HEADER_LEN + FK_PER_PAGE * 4 <= PAGE_SIZE) };
        const { assert!(PAGE_HEADER_LEN + SLOT_HEADER_LEN + LINK_PER_PAGE * 8 <= PAGE_SIZE) };
        // A full slot shares its page with no other: the packing relies
        // on it to keep the run of a long list consecutive.
        for kind in [PageKind::Fk, PageKind::Link] {
            let full = PAGE_HEADER_LEN + SLOT_HEADER_LEN + kind.per_page() * kind.width();
            assert!(full + SLOT_HEADER_LEN + kind.width() > PAGE_SIZE);
        }
    }
}
