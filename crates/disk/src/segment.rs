//! Posting segments: immutable, checksummed, directory-addressed files.
//!
//! A segment snapshots every sorted FK posting list of a set of tables
//! under one installed order, packed into fixed 4 KiB pages
//! ([`crate::page`]) in exactly the in-RAM descending-importance order —
//! the raw arrays, live entries only, so a list read back is
//! byte-for-byte its FK run. The file layout:
//!
//! ```text
//! [page 0][page 1]...[page N-1][directory][dir_len u64][dir_crc u32][magic u32]
//! ```
//!
//! **Packing.** Lists arrive grouped by `(kind, table, col)` and a page
//! holds slots of one such group only. A list that fits one page is
//! **never split**: it goes into the open page if there is room, else
//! into a fresh one. A longer list starts on a fresh page and fills
//! consecutive pages with one slot each; the page its tail leaves
//! part-empty stays open for the lists that follow. So a read of the
//! first `n` entries of any list takes `ceil(n / per_page)` pages, as it
//! would if every list had pages of its own, and the segment costs bytes
//! in proportion to its entries, not pages in proportion to its lists.
//!
//! The directory maps `(kind, table, col, key)` to the list's page run
//! and the offset of its slot, and carries explicit **coverage records**
//! per `(kind, table, col)`: a covered column with no entry for a key is
//! a *known-empty* list, while an uncovered column is *not in this
//! segment*. Conflating the two would make an empty run and a missing
//! column read alike, so the distinction is stored, not inferred.
//!
//! Directory serialization (little-endian):
//!
//! ```text
//! n_coverage u32, then per record: kind u8, table u16, col u16
//! n_entries  u32, then per entry:  kind u8, table u16, col u16,
//!                                  key i64, first_page u32, offset u16,
//!                                  n_entries u32
//! ```
//!
//! The length of a run is not stored: it is what `n_entries` needs,
//! `ceil(n_entries / per_page)`. The kind byte is always 1 (FK); kind 2,
//! the junction link lists of earlier builds, is no longer written and a
//! directory naming it is refused at open.
//!
//! There is no format version: a segment never outlives the process
//! that wrote it (a restart sweeps the directory and checkpoints
//! afresh), so no reader ever meets another build's file.

use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use sizel_storage::codec::{put_i64, put_u16, put_u32, put_u8, CodecError, Reader};

use crate::crc::crc32;
use crate::error::{DiskError, Result};
use sizel_storage::RowId;

use crate::page::{
    page_column, put_slot, seal_page, slot_header, slot_len, verify_page, ColumnId, PageKind,
    FK_PER_PAGE, PAGE_HEADER_LEN, PAGE_SIZE, SLOT_HEADER_LEN,
};

const TRAILER_MAGIC: [u8; 4] = *b"SLSG";
const TRAILER_LEN: u64 = 16;
const COVERAGE_RECORD_LEN: usize = 5;
const DIR_ENTRY_LEN: usize = 23;

/// Which posting list: the directory's key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ListId {
    /// The column the list belongs to.
    pub column: ColumnId,
    /// The FK key the list serves.
    pub key: i64,
}

/// One posting list's location within the segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirEntry {
    /// First page of the run.
    pub first_page: u32,
    /// Byte offset of the list's slot in each page of the run.
    pub offset: u16,
    /// Total entries across the run.
    pub n_entries: u32,
}

impl DirEntry {
    /// Pages in the run: as many as its entries need.
    pub fn n_pages(&self) -> u32 {
        self.n_entries.div_ceil(FK_PER_PAGE as u32)
    }

    /// Checks that the verified page `page` is page `run_idx` of `id`'s
    /// run as this entry promises it: a page of the list's kind, table
    /// and column, holding at the entry's offset a slot with the list's
    /// key, the position this page of the run starts at and the count it
    /// must hold. Pure — a reader makes it for each page of the run it
    /// reads.
    pub fn check_page(&self, id: ListId, run_idx: u32, page: &[u8; PAGE_SIZE]) -> Result<()> {
        let per_page = FK_PER_PAGE as u32;
        if run_idx < self.n_pages() && page_column(page) == Some(id.column) {
            let start = run_idx * per_page;
            let count = (self.n_entries - start).min(per_page) as u16;
            if page[self.offset as usize..][..SLOT_HEADER_LEN] == slot_header(id.key, start, count)
            {
                return Ok(());
            }
        }
        Err(DiskError::Corrupt("segment page does not match its directory"))
    }

    /// Whether the list can lie where this entry says in a segment of
    /// `total_pages`: the run inside the file, the slot past the page
    /// header with room for its own header and entries. Holding this for
    /// every entry at open is what lets a reader index a page without
    /// further checks.
    fn fits(&self, total_pages: u32) -> bool {
        let slot_len = slot_len(self.n_entries.min(FK_PER_PAGE as u32) as usize);
        u64::from(self.first_page) + u64::from(self.n_pages()) <= u64::from(total_pages)
            && self.offset as usize >= PAGE_HEADER_LEN
            && self.offset as usize + slot_len <= PAGE_SIZE
    }
}

/// Streams packed pages then a directory into a new segment file. The
/// bytes go to `<path>.tmp`; [`SegmentWriter::finish`] renames them into
/// place, and a writer dropped before that removes them.
pub struct SegmentWriter {
    out: BufWriter<File>,
    path: PathBuf,
    tmp: PathBuf,
    /// The open page: its number, whose lists it holds, and how many of
    /// its bytes are in use (`PAGE_HEADER_LEN` = no slot yet).
    next_page: u32,
    open: ColumnId,
    fill: usize,
    buf: Box<[u8; PAGE_SIZE]>,
    coverage: Vec<ColumnId>,
    entries: Vec<(ListId, DirEntry)>,
}

impl SegmentWriter {
    /// Starts a segment that will be installed at `path`, positioned at
    /// page 0.
    pub fn create(path: &Path) -> Result<SegmentWriter> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        Ok(SegmentWriter {
            out: BufWriter::new(File::create(&tmp)?),
            path: path.to_path_buf(),
            tmp,
            next_page: 0,
            open: ColumnId { kind: PageKind::Fk, table: 0, col: 0 },
            fill: PAGE_HEADER_LEN,
            buf: Box::new([0; PAGE_SIZE]),
            coverage: Vec::new(),
            entries: Vec::new(),
        })
    }

    /// Records that `column` is fully covered by this segment: keys
    /// without a written list are known-empty.
    pub fn cover(&mut self, column: ColumnId) {
        self.coverage.push(column);
    }

    /// Writes one posting list of `column`: its row ids in descending
    /// importance. Lists of one column written back to back share pages;
    /// an empty list writes nothing (the coverage record serves it).
    pub fn write_list(&mut self, column: ColumnId, key: i64, rows: &[RowId]) -> Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        let mut placed = None;
        for (run_idx, chunk) in rows.chunks(FK_PER_PAGE).enumerate() {
            let slot_len = slot_len(chunk.len());
            // A piece goes where it fits whole, so a list of at most a
            // page is never split. A full piece (`per_page` entries)
            // fits only an empty page and leaves no room for a slot
            // after it, so a longer list starts on a fresh page and its
            // run is consecutive.
            if self.open != column || self.fill + slot_len > PAGE_SIZE {
                self.flush_page()?;
                self.open = column;
            }
            placed.get_or_insert((self.next_page, self.fill as u16));
            put_slot(&mut self.buf, self.fill, key, (run_idx * FK_PER_PAGE) as u32, chunk);
            self.fill += slot_len;
        }
        let (first_page, offset) = placed.expect("a non-empty list has a first slot");
        let n_entries = rows.len() as u32;
        self.entries.push((ListId { column, key }, DirEntry { first_page, offset, n_entries }));
        Ok(())
    }

    /// Seals and writes the open page, if it holds a slot.
    fn flush_page(&mut self) -> Result<()> {
        if self.fill > PAGE_HEADER_LEN {
            seal_page(&mut self.buf, self.open);
            self.out.write_all(self.buf.as_slice())?;
            self.next_page += 1;
            self.buf[..self.fill].fill(0);
            self.fill = PAGE_HEADER_LEN;
        }
        Ok(())
    }

    /// Writes the last page, the directory and the trailer, fsyncs, and
    /// installs the file under its final name (rename, then fsync of the
    /// parent directory) — a crash leaves either no file of that name or
    /// the whole one.
    pub fn finish(mut self) -> Result<()> {
        self.flush_page()?;
        let mut dir = Vec::with_capacity(
            8 + self.coverage.len() * COVERAGE_RECORD_LEN + self.entries.len() * DIR_ENTRY_LEN,
        );
        put_u32(&mut dir, self.coverage.len() as u32);
        let put_column = |dir: &mut Vec<u8>, c: ColumnId| {
            put_u8(dir, c.kind as u8);
            put_u16(dir, c.table);
            put_u16(dir, c.col);
        };
        for &column in &self.coverage {
            put_column(&mut dir, column);
        }
        put_u32(&mut dir, self.entries.len() as u32);
        for &(id, e) in &self.entries {
            put_column(&mut dir, id.column);
            put_i64(&mut dir, id.key);
            put_u32(&mut dir, e.first_page);
            put_u16(&mut dir, e.offset);
            put_u32(&mut dir, e.n_entries);
        }
        self.out.write_all(&dir)?;
        self.out.write_all(&(dir.len() as u64).to_le_bytes())?;
        self.out.write_all(&crc32(&dir).to_le_bytes())?;
        self.out.write_all(&TRAILER_MAGIC)?;
        self.out.flush()?;
        self.out.get_ref().sync_all()?;
        std::fs::rename(&self.tmp, &self.path)?;
        let parent = self.path.parent().filter(|d| !d.as_os_str().is_empty());
        File::open(parent.unwrap_or(Path::new(".")))?.sync_all()?;
        Ok(())
    }
}

impl Drop for SegmentWriter {
    /// Removes the temporary file of a segment that was never finished
    /// (after `finish` the name is gone and this does nothing).
    fn drop(&mut self) {
        std::fs::remove_file(&self.tmp).ok();
    }
}

/// Reads a serialized directory back: the coverage set, then the
/// entry map.
fn parse_directory(
    dir: &[u8],
) -> std::result::Result<(HashSet<ColumnId>, HashMap<ListId, DirEntry>), CodecError> {
    let column = |r: &mut Reader| {
        let kind = r.u8()?;
        let kind = PageKind::from_byte(kind)
            .ok_or_else(|| CodecError(format!("unknown posting kind {kind}")))?;
        Ok(ColumnId { kind, table: r.u16()?, col: r.u16()? })
    };
    let mut r = Reader::new(dir);
    let n_cov = r.count(COVERAGE_RECORD_LEN)?;
    let mut coverage = HashSet::with_capacity(n_cov);
    for _ in 0..n_cov {
        coverage.insert(column(&mut r)?);
    }
    let n_entries = r.count(DIR_ENTRY_LEN)?;
    let mut map = HashMap::with_capacity(n_entries);
    for _ in 0..n_entries {
        let id = ListId { column: column(&mut r)?, key: r.i64()? };
        let e = DirEntry { first_page: r.u32()?, offset: r.u16()?, n_entries: r.u32()? };
        map.insert(id, e);
    }
    r.finish()?;
    Ok((coverage, map))
}

/// An opened segment: verified directory plus positioned page reads.
#[derive(Debug)]
pub struct SegmentFile {
    file: File,
    dir: HashMap<ListId, DirEntry>,
    coverage: HashSet<ColumnId>,
}

impl SegmentFile {
    /// Opens `path`, verifies the trailer and directory checksum, and
    /// loads the directory. Fails closed on any structural damage,
    /// including an entry whose run or slot cannot lie where it says.
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
        if !map.values().all(|e| e.fits(n_pages)) {
            return Err(DiskError::Corrupt("segment directory entry out of range"));
        }
        Ok(SegmentFile { file, dir: map, coverage })
    }

    /// Whether `column` is covered by this segment.
    pub fn covers(&self, column: ColumnId) -> bool {
        self.coverage.contains(&column)
    }

    /// The directory entry of `id`, if the list is non-empty.
    pub fn lookup(&self, id: ListId) -> Option<DirEntry> {
        self.dir.get(&id).copied()
    }

    /// Reads page `page_no` into `buf` and verifies its magic and
    /// checksum. Whose page it is stays the reader's question
    /// ([`DirEntry::check_page`]).
    pub fn read_page(&self, page_no: u32, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
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
