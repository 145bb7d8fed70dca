//! The paged posting store: segments + block cache behind the
//! [`PostingPager`] seam.
//!
//! A [`PagedStore`] owns a directory of segment generations and one
//! shared [`BlockCache`]. [`PagedStore::checkpoint_from`] snapshots the
//! database's in-RAM sorted postings for a chosen table set into a fresh
//! `segments-<gen>.seg` file stamped with the installed
//! [`FkOrderToken`]; installing the generation atomically swaps what
//! probes see. The storage layer routes a prefix scan here only while
//! the stamp still equals the live token — any mutation re-stamps the
//! token, so stale segments silently stop serving until the next
//! checkpoint (the RAM/heap paths keep answering in between).
//!
//! Cursors hold `Arc`s to the generation and to their current page, so a
//! concurrent checkpoint or cache eviction never invalidates an
//! in-flight scan. Every page read is CRC-verified before it enters the
//! cache, and every page a scan enters — read by it or found resident,
//! loaded by whichever of the lists sharing it came first — is checked
//! against the scan's own directory entry (right kind, table and column;
//! at the list's offset a slot with the right key, position and count)
//! before a single entry is served; any failure marks the cursor failed
//! and the caller falls back (fail closed).

use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use sizel_storage::{Database, FkOrderToken, PostingCursor, PostingPager, RowId, TableId};

use crate::cache::{BlockCache, CacheSnapshot};
use crate::error::{DiskError, Result};
use crate::page::{slot_entry, ColumnId, PageBuf, PageKind, PostingEntry};
use crate::segment::{DirEntry, ListId, SegmentFile, SegmentWriter};

/// One immutable segment generation: the opened file, its stamp, and the
/// path (kept for cleanup when superseded).
#[derive(Debug)]
struct SegGeneration {
    id: u64,
    file: SegmentFile,
    stamp: FkOrderToken,
    path: PathBuf,
}

/// A point-in-time view of the store for metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Block-cache counters.
    pub cache: CacheSnapshot,
    /// Pages resident in the cache right now.
    pub resident_pages: u64,
    /// The installed generation id (0 = none yet).
    pub generation: u64,
    /// Posting lists in the installed generation.
    pub lists: u64,
    /// Checkpoints taken over the store's lifetime.
    pub checkpoints: u64,
}

/// Paged posting segments + block cache, attachable to a `Database`.
#[derive(Debug)]
pub struct PagedStore {
    dir: PathBuf,
    cache: Arc<BlockCache>,
    generation: RwLock<Option<Arc<SegGeneration>>>,
    next_gen: AtomicU64,
    checkpoints: AtomicU64,
}

impl PagedStore {
    /// A store rooted at `dir` (created if absent) caching at most
    /// `cache_pages` pages. `dir` is the store's own: a segment never
    /// outlives the process that stamped it, so every `segments-*.seg`
    /// and `segments-*.seg.tmp` an earlier process (or a crash
    /// mid-checkpoint) left there is removed; nothing else is touched.
    pub fn new(dir: &Path, cache_pages: usize) -> Result<PagedStore> {
        std::fs::create_dir_all(dir)?;
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("segments-")
                && (name.ends_with(".seg") || name.ends_with(".seg.tmp"))
            {
                std::fs::remove_file(&path)?;
            }
        }
        Ok(PagedStore {
            dir: dir.to_path_buf(),
            cache: Arc::new(BlockCache::new(cache_pages)),
            generation: RwLock::new(None),
            next_gen: AtomicU64::new(1),
            checkpoints: AtomicU64::new(0),
        })
    }

    /// Snapshots the sorted postings of `tables` into a fresh segment
    /// generation stamped with the database's installed order, installs
    /// it, and removes the superseded generation's file. Returns the new
    /// generation id.
    ///
    /// The raw in-RAM arrays are written verbatim (live entries only),
    /// column by column in key order, so a paged scan replays the RAM
    /// scan byte for byte and the file's bytes depend only on the
    /// postings.
    pub fn checkpoint_from(&self, db: &Database, tables: &[TableId]) -> Result<u64> {
        let stamp = db
            .fk_order()
            .ok_or(DiskError::Corrupt("checkpoint requires an installed importance order"))?;
        let gen_id = self.next_gen.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("segments-{gen_id}.seg"));
        let mut w = SegmentWriter::create(&path)?;
        for &tid in tables {
            let t = db.table(tid);
            for (col, idx) in t.sorted_fk_indexes() {
                let column = ColumnId { kind: PageKind::Fk, table: tid.0, col: col as u16 };
                w.cover(column);
                let mut lists: Vec<_> = idx.posting_lists().collect();
                lists.sort_unstable_by_key(|&(key, _)| key);
                for (key, rows) in lists {
                    w.write_list(column, key, rows, rows.len())?;
                }
            }
            for (col, idx) in t.sorted_link_indexes() {
                let column = ColumnId { kind: PageKind::Link, table: tid.0, col: col as u16 };
                w.cover(column);
                let mut groups: Vec<_> = idx.groups().collect();
                groups.sort_unstable_by_key(|&(key, _, _)| key);
                for (key, pairs, raw_len) in groups {
                    w.write_list(column, key, pairs, raw_len)?;
                }
            }
        }
        w.finish()?;

        let file = SegmentFile::open(&path)?;
        let fresh = Arc::new(SegGeneration { id: gen_id, file, stamp, path });
        let old = {
            let mut slot = self.generation.write().unwrap_or_else(|p| p.into_inner());
            slot.replace(fresh)
        };
        if let Some(old) = old {
            std::fs::remove_file(&old.path).ok();
        }
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(gen_id)
    }

    /// Store + cache statistics.
    pub fn stats(&self) -> StoreStats {
        let (generation, lists) = match self.current() {
            Some(g) => (g.id, g.file.len() as u64),
            None => (0, 0),
        };
        StoreStats {
            cache: self.cache.snapshot(),
            resident_pages: self.cache.resident() as u64,
            generation,
            lists,
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
        }
    }

    fn current(&self) -> Option<Arc<SegGeneration>> {
        self.generation.read().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// The installed generation and `key`'s directory entry in it, or
    /// `None` when the generation does not cover `(kind, table, col)`. A
    /// covered key without an entry is a known-empty list: the default
    /// entry, which a scan ends on at once.
    fn locate(
        &self,
        kind: PageKind,
        table: TableId,
        col: usize,
        key: i64,
    ) -> Option<(Arc<SegGeneration>, ListId, DirEntry)> {
        let gen = self.current()?;
        let column = ColumnId { kind, table: table.0, col: col as u16 };
        if !gen.file.covers(column) {
            return None;
        }
        let id = ListId { column, key };
        let entry = gen.file.lookup(id).unwrap_or_default();
        Some((gen, id, entry))
    }

    fn scan<'a, E: PostingEntry + 'a>(
        &self,
        table: TableId,
        col: usize,
        key: i64,
    ) -> Option<Box<dyn PostingCursor<E> + 'a>> {
        let (gen, id, entry) = self.locate(E::KIND, table, col, key)?;
        Some(Box::new(PagedScan::<E> {
            gen,
            cache: Arc::clone(&self.cache),
            id,
            entry,
            yielded: 0,
            current: None,
            failed: false,
            entries: PhantomData,
        }))
    }
}

/// A paged scan over one posting list: walks the page run through the
/// cache, checking every page's and slot's identity before serving
/// entries. It is the cursor of both posting kinds; `E` is the entry
/// type its pages hold.
struct PagedScan<E> {
    gen: Arc<SegGeneration>,
    cache: Arc<BlockCache>,
    id: ListId,
    entry: DirEntry,
    yielded: u32,
    current: Option<(u32, Arc<PageBuf>)>,
    failed: bool,
    entries: PhantomData<E>,
}

impl<E> PagedScan<E> {
    /// Page `run_idx` of the list's run. The read verifies magic and
    /// checksum, once per residency in the cache; that the page and the
    /// slot at the entry's offset are this list's is checked here, on a
    /// hit as on a miss — a shared page was most likely loaded for a
    /// neighbour. A sound page that fails it stays cached and counts as
    /// a read error.
    fn page(&self, run_idx: u32) -> Result<Arc<PageBuf>> {
        let page_no = self.entry.first_page + run_idx;
        let buf = self.cache.get_or_load((self.gen.id, u64::from(page_no)), |buf| {
            self.gen.file.read_page(page_no, buf)
        })?;
        if let Err(e) = self.entry.check_page(self.id, run_idx, &buf.0) {
            self.cache.count_read_error();
            return Err(e);
        }
        Ok(buf)
    }
}

impl<E: PostingEntry> PostingCursor<E> for PagedScan<E> {
    /// The next entry of the list, loading and checking its page on
    /// demand; `None` at the end of the list or once a read failed.
    fn next_entry(&mut self) -> Option<E> {
        if self.failed || self.yielded >= self.entry.n_entries {
            return None;
        }
        let per_page = E::KIND.per_page() as u32;
        let run_idx = self.yielded / per_page;
        if self.current.as_ref().map(|&(idx, _)| idx) != Some(run_idx) {
            match self.page(run_idx) {
                Ok(buf) => self.current = Some((run_idx, buf)),
                Err(_) => {
                    self.failed = true;
                    return None;
                }
            }
        }
        let (_, buf) = self.current.as_ref()?;
        let i = (self.yielded % per_page) as usize;
        self.yielded += 1;
        Some(slot_entry(&buf.0, self.entry.offset as usize, i))
    }

    fn failed(&self) -> bool {
        self.failed
    }
}

impl PostingPager for PagedStore {
    fn stamp(&self) -> Option<FkOrderToken> {
        self.current().map(|g| g.stamp)
    }

    fn fk_cursor(
        &self,
        table: TableId,
        col: usize,
        key: i64,
    ) -> Option<Box<dyn PostingCursor<RowId> + '_>> {
        self.scan(table, col, key)
    }

    fn link_cursor(
        &self,
        table: TableId,
        col: usize,
        key: i64,
    ) -> Option<Box<dyn PostingCursor<(RowId, RowId)> + '_>> {
        self.scan(table, col, key)
    }

    fn link_raw_len(&self, table: TableId, col: usize, key: i64) -> Option<usize> {
        let (_, _, entry) = self.locate(PageKind::Link, table, col, key)?;
        Some(entry.raw_len as usize)
    }
}
