//! Posting segments: immutable, checksummed, directory-addressed files.
//!
//! A segment snapshots every sorted posting list of a set of tables at
//! one installed-order stamp, each list paged into fixed 4 KiB pages
//! ([`crate::page`]) stored in exactly the in-RAM descending-importance
//! order — the raw arrays, tombstones included, so a paged scan is
//! byte-for-byte the RAM scan. The file layout:
//!
//! ```text
//! [page 0][page 1]...[page N-1][directory][dir_len u64][dir_crc u32][magic u32]
//! ```
//!
//! The directory maps `(kind, table, col, key)` to the list's page run
//! and carries explicit **coverage records** per `(kind, table, col)`:
//! a covered column with no entry for a key is a *known-empty* list
//! (served as an empty cursor, same as the RAM path's fast empty probe),
//! while an uncovered column is *not in this segment* (the caller falls
//! back to the heap path). Conflating the two would silently change the
//! paper-cost accounting, so the distinction is stored, not inferred.
//!
//! Directory serialization (little-endian):
//!
//! ```text
//! n_coverage u32, then per record: kind u8, table u16, col u16
//! n_entries  u32, then per entry:  kind u8, table u16, col u16,
//!                                  key i64, first_page u32, n_pages u32,
//!                                  n_entries u32, raw_len u32
//! ```

use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;

use sizel_storage::codec::{put_i64, put_u16, put_u32, put_u8, CodecError, Reader};

use crate::crc::crc32;
use crate::error::{DiskError, Result};
use crate::page::{
    put_fk_entry, put_link_entry, seal_page, verify_page, PageBuf, PageHeader, PageKind,
    FK_PER_PAGE, LINK_PER_PAGE, PAGE_SIZE,
};

const TRAILER_MAGIC: [u8; 4] = *b"SLSG";
const TRAILER_LEN: u64 = 16;
const COVERAGE_RECORD_LEN: usize = 5;
const DIR_ENTRY_LEN: usize = 29;

/// Directory key: (kind, table, col, key).
type DirKey = (u8, u16, u16, i64);
/// Coverage record: (kind, table, col).
type CoverKey = (u8, u16, u16);

/// One posting list's location within the segment.
#[derive(Clone, Copy, Debug)]
pub struct DirEntry {
    /// First page of the run.
    pub first_page: u32,
    /// Pages in the run.
    pub n_pages: u32,
    /// Total entries across the run.
    pub n_entries: u32,
    /// The raw FK group size (the heap path's probe cost) — for link
    /// lists this is the live group size the accounting reports; for FK
    /// lists it equals `n_entries`.
    pub raw_len: u32,
}

/// Streams pages then a directory into a new segment file.
pub struct SegmentWriter {
    out: BufWriter<File>,
    next_page: u32,
    buf: PageBuf,
    coverage: Vec<CoverKey>,
    entries: Vec<(DirKey, DirEntry)>,
}

impl SegmentWriter {
    /// Creates `path` (truncating any previous file) and positions the
    /// writer at page 0.
    pub fn create(path: &Path) -> Result<SegmentWriter> {
        let file = File::create(path)?;
        Ok(SegmentWriter {
            out: BufWriter::new(file),
            next_page: 0,
            buf: PageBuf::zeroed(),
            coverage: Vec::new(),
            entries: Vec::new(),
        })
    }

    /// Records that `(kind, table, col)` is fully covered by this
    /// segment: keys without a written list are known-empty.
    pub fn cover(&mut self, kind: PageKind, table: u16, col: u16) {
        self.coverage.push((kind as u8, table, col));
    }

    /// Writes one FK posting list (raw row ids, descending importance).
    pub fn write_fk_list(&mut self, table: u16, col: u16, key: i64, rows: &[u32]) -> Result<()> {
        let first_page = self.next_page;
        for (seq, chunk) in rows.chunks(FK_PER_PAGE).enumerate() {
            self.buf.0 = [0; PAGE_SIZE];
            for (i, &row) in chunk.iter().enumerate() {
                put_fk_entry(&mut self.buf.0, i, row);
            }
            seal_page(
                &mut self.buf.0,
                PageHeader {
                    kind: PageKind::Fk,
                    table,
                    col,
                    entry_count: chunk.len() as u16,
                    key,
                    seq: seq as u32,
                },
            );
            self.out.write_all(&self.buf.0)?;
            self.next_page += 1;
        }
        if !rows.is_empty() {
            self.entries.push((
                (PageKind::Fk as u8, table, col, key),
                DirEntry {
                    first_page,
                    n_pages: self.next_page - first_page,
                    n_entries: rows.len() as u32,
                    raw_len: rows.len() as u32,
                },
            ));
        }
        Ok(())
    }

    /// Writes one link posting group (raw pairs, descending target
    /// importance) with its raw group length.
    pub fn write_link_list(
        &mut self,
        table: u16,
        col: u16,
        key: i64,
        pairs: &[(u32, u32)],
        raw_len: usize,
    ) -> Result<()> {
        let first_page = self.next_page;
        for (seq, chunk) in pairs.chunks(LINK_PER_PAGE).enumerate() {
            self.buf.0 = [0; PAGE_SIZE];
            for (i, &pair) in chunk.iter().enumerate() {
                put_link_entry(&mut self.buf.0, i, pair);
            }
            seal_page(
                &mut self.buf.0,
                PageHeader {
                    kind: PageKind::Link,
                    table,
                    col,
                    entry_count: chunk.len() as u16,
                    key,
                    seq: seq as u32,
                },
            );
            self.out.write_all(&self.buf.0)?;
            self.next_page += 1;
        }
        if !pairs.is_empty() || raw_len > 0 {
            self.entries.push((
                (PageKind::Link as u8, table, col, key),
                DirEntry {
                    first_page,
                    n_pages: self.next_page - first_page,
                    n_entries: pairs.len() as u32,
                    raw_len: raw_len as u32,
                },
            ));
        }
        Ok(())
    }

    /// Writes the directory and trailer, flushes, and fsyncs.
    pub fn finish(mut self) -> Result<()> {
        let mut dir = Vec::with_capacity(
            8 + self.coverage.len() * COVERAGE_RECORD_LEN + self.entries.len() * DIR_ENTRY_LEN,
        );
        put_u32(&mut dir, self.coverage.len() as u32);
        for &(kind, table, col) in &self.coverage {
            put_u8(&mut dir, kind);
            put_u16(&mut dir, table);
            put_u16(&mut dir, col);
        }
        put_u32(&mut dir, self.entries.len() as u32);
        for &((kind, table, col, key), e) in &self.entries {
            put_u8(&mut dir, kind);
            put_u16(&mut dir, table);
            put_u16(&mut dir, col);
            put_i64(&mut dir, key);
            put_u32(&mut dir, e.first_page);
            put_u32(&mut dir, e.n_pages);
            put_u32(&mut dir, e.n_entries);
            put_u32(&mut dir, e.raw_len);
        }
        self.out.write_all(&dir)?;
        self.out.write_all(&(dir.len() as u64).to_le_bytes())?;
        self.out.write_all(&crc32(&dir).to_le_bytes())?;
        self.out.write_all(&TRAILER_MAGIC)?;
        self.out.flush()?;
        self.out.get_ref().sync_all()?;
        Ok(())
    }
}

/// Reads a serialized directory back: the coverage set, then the
/// entry map.
fn parse_directory(
    dir: &[u8],
) -> std::result::Result<(HashSet<CoverKey>, HashMap<DirKey, DirEntry>), CodecError> {
    let mut r = Reader::new(dir);
    let n_cov = r.count(COVERAGE_RECORD_LEN)?;
    let mut coverage = HashSet::with_capacity(n_cov);
    for _ in 0..n_cov {
        coverage.insert((r.u8()?, r.u16()?, r.u16()?));
    }
    let n_entries = r.count(DIR_ENTRY_LEN)?;
    let mut map = HashMap::with_capacity(n_entries);
    for _ in 0..n_entries {
        let key = (r.u8()?, r.u16()?, r.u16()?, r.i64()?);
        let e = DirEntry {
            first_page: r.u32()?,
            n_pages: r.u32()?,
            n_entries: r.u32()?,
            raw_len: r.u32()?,
        };
        map.insert(key, e);
    }
    r.finish()?;
    Ok((coverage, map))
}

/// An opened segment: verified directory plus positioned page reads.
#[derive(Debug)]
pub struct SegmentFile {
    file: File,
    dir: HashMap<DirKey, DirEntry>,
    coverage: HashSet<CoverKey>,
}

impl SegmentFile {
    /// Opens `path`, verifies the trailer and directory checksum, and
    /// loads the directory. Fails closed on any structural damage.
    pub fn open(path: &Path) -> Result<SegmentFile> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        if len < TRAILER_LEN {
            return Err(DiskError::Corrupt("segment shorter than its trailer"));
        }
        let mut trailer = [0u8; TRAILER_LEN as usize];
        file.read_exact_at(&mut trailer, len - TRAILER_LEN)?;
        if trailer[12..16] != TRAILER_MAGIC {
            return Err(DiskError::Corrupt("segment trailer magic"));
        }
        let dir_len = u64::from_le_bytes(trailer[0..8].try_into().unwrap());
        let stored = u32::from_le_bytes(trailer[8..12].try_into().unwrap());
        if dir_len > len - TRAILER_LEN {
            return Err(DiskError::Corrupt("segment directory length"));
        }
        let dir_start = len - TRAILER_LEN - dir_len;
        if dir_start % PAGE_SIZE as u64 != 0 {
            return Err(DiskError::Corrupt("segment directory offset"));
        }
        let mut dir = vec![0u8; dir_len as usize];
        file.seek(SeekFrom::Start(dir_start))?;
        file.read_exact(&mut dir)?;
        let computed = crc32(&dir);
        if stored != computed {
            return Err(DiskError::ChecksumMismatch {
                what: "segment directory",
                stored,
                computed,
            });
        }

        let n_pages = (dir_start / PAGE_SIZE as u64) as u32;
        let (coverage, map) =
            parse_directory(&dir).map_err(|_| DiskError::Corrupt("malformed segment directory"))?;
        if map.values().any(|e| u64::from(e.first_page) + u64::from(e.n_pages) > u64::from(n_pages))
        {
            return Err(DiskError::Corrupt("segment directory entry out of range"));
        }
        Ok(SegmentFile { file, dir: map, coverage })
    }

    /// Whether `(kind, table, col)` is covered by this segment.
    pub fn covers(&self, kind: PageKind, table: u16, col: u16) -> bool {
        self.coverage.contains(&(kind as u8, table, col))
    }

    /// The directory entry of `(kind, table, col, key)`, if the list is
    /// non-empty.
    pub fn lookup(&self, kind: PageKind, table: u16, col: u16, key: i64) -> Option<DirEntry> {
        self.dir.get(&(kind as u8, table, col, key)).copied()
    }

    /// Reads and verifies page `page_no` into `buf`.
    pub fn read_page(&self, page_no: u32, buf: &mut [u8; PAGE_SIZE]) -> Result<PageHeader> {
        self.file.read_exact_at(buf, u64::from(page_no) * PAGE_SIZE as u64)?;
        verify_page(buf)
    }

    /// Directory entries in this segment (for stats/tests).
    pub fn len(&self) -> usize {
        self.dir.len()
    }

    /// True when the segment has no posting lists.
    pub fn is_empty(&self) -> bool {
        self.dir.is_empty()
    }
}
