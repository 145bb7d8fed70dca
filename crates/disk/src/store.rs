//! The segment store: one directory of checkpoint generations.
//!
//! A [`PagedStore`] owns a directory of segment files.
//! [`PagedStore::checkpoint_from`] snapshots the database's in-RAM sorted
//! FK postings for a chosen table set into a fresh `segments-<gen>.seg`
//! file, opens it back once — the directory's checksum and every entry's
//! bounds verified — and removes the generation it supersedes. Nothing
//! reads the file after that: every probe is served from the FK runs in
//! RAM, and the segment is the checkpoint's artefact, read back through
//! [`crate::SegmentFile`].

use std::path::{Path, PathBuf};

use sizel_storage::{Database, TableId};

use crate::error::{DiskError, Result};
use crate::page::{ColumnId, PageKind};
use crate::segment::{SegmentFile, SegmentWriter};

/// All zeros: the counters of a block cache the store no longer keeps.
/// Kept only for the frozen benchmark package, which reads them; it goes
/// with that package's next change (ROADMAP item 0).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
    /// Always 0.
    pub evictions: u64,
}

/// A point-in-time view of the store for metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// All zeros (see [`CacheSnapshot`]).
    pub cache: CacheSnapshot,
    /// The installed generation id (0 = none yet), which is also the
    /// number of checkpoints the store has taken.
    pub generation: u64,
    /// Posting lists in the installed generation.
    pub lists: u64,
}

/// Segment generations of a `Database`'s sorted postings.
#[derive(Debug)]
pub struct PagedStore {
    dir: PathBuf,
    /// The installed generation's id: the checkpoints taken.
    generation: u64,
    /// Posting lists in the installed generation.
    lists: u64,
}

impl PagedStore {
    /// A store rooted at `dir` (created if absent). `dir` is the store's
    /// own: every `segments-*.seg` and `segments-*.seg.tmp` an earlier
    /// process (or a crash mid-checkpoint) left there is removed; nothing
    /// else is touched.
    pub fn new(dir: &Path) -> Result<PagedStore> {
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
        Ok(PagedStore { dir: dir.to_path_buf(), generation: 0, lists: 0 })
    }

    /// Snapshots the sorted FK postings of `tables` into a fresh segment
    /// generation, installs it, and removes the superseded generation's
    /// file. Requires an installed importance order: the lists are
    /// written in it. Returns the new generation id.
    ///
    /// The raw in-RAM arrays are written verbatim (live entries only),
    /// column by column in key order, so the file's bytes depend only on
    /// the postings.
    pub fn checkpoint_from(&mut self, db: &Database, tables: &[TableId]) -> Result<u64> {
        if db.fk_order().is_none() {
            return Err(DiskError::Corrupt("checkpoint requires an installed importance order"));
        }
        let gen_id = self.generation + 1;
        let path = self.segment(gen_id);
        let mut w = SegmentWriter::create(&path)?;
        for &tid in tables {
            let t = db.table(tid);
            for (col, idx) in t.sorted_fk_indexes() {
                let column = ColumnId { kind: PageKind::Fk, table: tid.0, col: col as u16 };
                w.cover(column);
                let mut lists: Vec<_> = idx.posting_lists().collect();
                lists.sort_unstable_by_key(|&(key, _)| key);
                for (key, rows) in lists {
                    w.write_list(column, key, rows)?;
                }
            }
        }
        w.finish()?;

        self.lists = SegmentFile::open(&path)?.len() as u64;
        if self.generation > 0 {
            std::fs::remove_file(self.segment(self.generation)).ok();
        }
        self.generation = gen_id;
        Ok(gen_id)
    }

    /// The file of generation `id`.
    fn segment(&self, id: u64) -> PathBuf {
        self.dir.join(format!("segments-{id}.seg"))
    }

    /// Store statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            cache: CacheSnapshot::default(),
            generation: self.generation,
            lists: self.lists,
        }
    }
}
