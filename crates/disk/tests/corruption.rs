//! Fail-closed corruption tests of the disk tier: flipped bytes
//! anywhere — segment page, segment directory, WAL record — must surface
//! as typed [`DiskError`]s and NEVER as garbage read back.

mod common;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use common::read_list;
use sizel_disk::crc::crc32;
use sizel_disk::page::{ColumnId, PageKind, FK_PER_PAGE, PAGE_HEADER_LEN, SLOT_HEADER_LEN};
use sizel_disk::segment::ListId;
use sizel_disk::{DiskError, PagedStore, SegmentFile, Wal, PAGE_SIZE};
use sizel_storage::{Database, TableSchema, Value};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("sizel-disk-corr-{}-{}-{}", std::process::id(), tag, n));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Parent + Child with a handful of scored rows and an installed order.
fn seeded_db() -> Database {
    db_with(2, 12)
}

/// Parents `1..=parents`, each with `children` scored Child rows, and an
/// installed order.
fn db_with(parents: i64, children: i64) -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::builder("Parent").pk("id").build().unwrap()).unwrap();
    db.create_table(
        TableSchema::builder("Child").pk("id").fk("parent_id", "Parent").build().unwrap(),
    )
    .unwrap();
    for parent in 1..=parents {
        db.insert("Parent", vec![Value::Int(parent)]).unwrap();
    }
    for pk in 0..parents * children {
        db.insert("Child", vec![Value::Int(pk), Value::Int(1 + pk % parents)]).unwrap();
    }
    db.install_importance_order(&|_, r| 1.0 + r.index() as f64);
    db
}

/// Parents `1..=parents`, each joined through the `Rel` junction to
/// `per_parent` children of its own, and an installed order.
fn junction_db(parents: i64, per_parent: i64) -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::builder("Parent").pk("id").build().unwrap()).unwrap();
    db.create_table(TableSchema::builder("Child").pk("id").build().unwrap()).unwrap();
    db.create_table(
        TableSchema::builder("Rel")
            .pk("id")
            .fk("parent_id", "Parent")
            .fk("child_id", "Child")
            .junction()
            .build()
            .unwrap(),
    )
    .unwrap();
    for parent in 1..=parents {
        db.insert("Parent", vec![Value::Int(parent)]).unwrap();
    }
    for pk in 0..parents * per_parent {
        db.insert("Child", vec![Value::Int(pk)]).unwrap();
        db.insert("Rel", vec![Value::Int(pk), Value::Int(1 + pk % parents), Value::Int(pk)])
            .unwrap();
    }
    db.install_importance_order(&|_, r| 1.0 + r.index() as f64);
    db
}

/// Flips the last byte of page `page_no` of `seg` — zero padding after
/// the page's last slot, so no list's own bytes are touched and the
/// page's checksum still fails every list in it.
fn flip_padding_of(seg: &Path, page_no: u32) {
    let mut bytes = std::fs::read(seg).unwrap();
    bytes[(page_no as usize + 1) * PAGE_SIZE - 1] ^= 0x01;
    std::fs::write(seg, &bytes).unwrap();
}

/// The (single) segment file under `dir`.
fn segment_in(dir: &Path) -> PathBuf {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "seg"))
        .expect("checkpoint wrote a segment")
}

/// Byte offset of directory entry `i` within the serialized directory
/// of a segment with one coverage record (see `segment.rs`: 4 + 5 bytes
/// of coverage, a 4-byte count, 23-byte entries), and of the fields the
/// tests below damage within an entry.
fn dir_entry(i: usize) -> usize {
    4 + 5 + 4 + i * 23
}
const FIRST_PAGE: usize = 13;
const OFFSET: usize = 17;
const N_ENTRIES: usize = 19;

/// Applies `patch` to the serialized directory of `seg` and re-seals it
/// with a fresh directory checksum: damage the CRC cannot see.
fn patch_directory(seg: &Path, patch: impl FnOnce(&mut [u8])) {
    let mut bytes = std::fs::read(seg).unwrap();
    let len = bytes.len();
    let dir_len = u64::from_le_bytes(bytes[len - 16..len - 8].try_into().unwrap()) as usize;
    let dir = &mut bytes[len - 16 - dir_len..len - 16];
    patch(dir);
    let crc = crc32(dir);
    bytes[len - 8..len - 4].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(seg, &bytes).unwrap();
}

/// Flips one payload byte in every page of the (single) segment file
/// under `dir`, leaving the directory and trailer intact.
fn corrupt_every_page(dir: &Path) -> PathBuf {
    let seg = segment_in(dir);
    let mut bytes = std::fs::read(&seg).unwrap();
    let dir_len = u64::from_le_bytes(bytes[bytes.len() - 16..bytes.len() - 8].try_into().unwrap());
    let dir_start = bytes.len() - 16 - dir_len as usize;
    let mut at = 50; // inside the entries of page 0's first slot
    while at < dir_start {
        bytes[at] ^= 0x40;
        at += PAGE_SIZE;
    }
    std::fs::write(&seg, &bytes).unwrap();
    seg
}

#[test]
fn page_and_directory_damage_surface_as_typed_errors() {
    let db = seeded_db();
    let child = db.table_id("Child").unwrap();
    let dir = temp_dir("typed");
    let mut store = PagedStore::new(&dir).unwrap();
    store.checkpoint_from(&db, &[child]).unwrap();
    let seg = corrupt_every_page(&dir);

    // Direct page reads report the checksum, not garbage.
    let file = SegmentFile::open(&seg).expect("directory is still intact");
    let mut buf = [0u8; PAGE_SIZE];
    match file.read_page(0, &mut buf) {
        Err(DiskError::ChecksumMismatch { what, stored, computed }) => {
            assert_eq!(what, "segment page");
            assert_ne!(stored, computed);
        }
        other => panic!("expected a checksum mismatch, got {other:?}"),
    }

    // Directory damage fails the open itself.
    let mut bytes = std::fs::read(&seg).unwrap();
    let len = bytes.len();
    bytes[len - 20] ^= 0x01; // inside the serialized directory
    std::fs::write(&seg, &bytes).unwrap();
    assert!(
        matches!(SegmentFile::open(&seg), Err(DiskError::ChecksumMismatch { .. })),
        "a flipped directory byte must fail the open"
    );
    // Trailer damage is structural corruption.
    let mut bytes = std::fs::read(&seg).unwrap();
    let len = bytes.len();
    bytes[len - 2] ^= 0xFF; // trailer magic
    std::fs::write(&seg, &bytes).unwrap();
    assert!(matches!(SegmentFile::open(&seg), Err(DiskError::Corrupt(_))));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_flipped_byte_in_a_shared_page_fails_every_list_in_it_and_no_other() {
    // 200 ten-entry lists: 75 to a page, so three pages.
    let db = db_with(200, 10);
    let child = db.table_id("Child").unwrap();
    let fk = db.table(child).schema.column_index("parent_id").unwrap();

    let dir = temp_dir("shared");
    let mut store = PagedStore::new(&dir).unwrap();
    store.checkpoint_from(&db, &[child]).unwrap();
    // One byte, in the zero padding after page 1's last slot: no list's
    // own bytes are touched, the page's checksum still fails them all.
    let seg = segment_in(&dir);
    flip_padding_of(&seg, 1);
    let file = SegmentFile::open(&seg).expect("directory is still intact");

    let column = ColumnId { kind: PageKind::Fk, table: child.0, col: fk as u16 };
    let runs = db.table(child).sorted_fk_index(fk).unwrap();
    let (mut damaged, mut intact) = (0, 0);
    for parent in 1..=200i64 {
        let id = ListId { column, key: parent };
        let read = read_list(&file, id);
        if file.lookup(id).expect("every parent has children").first_page == 1 {
            damaged += 1;
            assert!(
                matches!(read, Err(DiskError::ChecksumMismatch { what: "segment page", .. })),
                "parent {parent}: {read:?}"
            );
        } else {
            intact += 1;
            assert_eq!(read.unwrap(), runs.rows(parent), "parent {parent}");
        }
    }
    assert_eq!((damaged, intact), (75, 125), "one page of three was damaged");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_flipped_byte_in_a_shared_link_page_fails_every_group_in_it_and_no_other() {
    // 200 ten-row junction lists of 54 bytes each: 75 to a page, so
    // three pages of Rel's parent column, after which its child column
    // packs 200 one-row lists into pages of its own. The damaged parent
    // page fails exactly its lists; every other list of either column
    // reads back as its run.
    let db = junction_db(200, 10);
    let rel = db.table_id("Rel").unwrap();
    let (parent_col, child_col) = (1, 2);

    let dir = temp_dir("shared-link");
    let mut store = PagedStore::new(&dir).unwrap();
    store.checkpoint_from(&db, &[rel]).unwrap();
    let seg = segment_in(&dir);
    let column = |col: usize| ColumnId { kind: PageKind::Fk, table: rel.0, col: col as u16 };
    let layout = SegmentFile::open(&seg).unwrap();
    let page_of = |key| layout.lookup(ListId { column: column(parent_col), key }).unwrap();
    let damaged_page = page_of(100).first_page;
    flip_padding_of(&seg, damaged_page);
    let file = SegmentFile::open(&seg).expect("directory is still intact");

    let (mut damaged, mut intact_pages) = (0, std::collections::BTreeSet::new());
    for parent in 1..=200i64 {
        let read = read_list(&file, ListId { column: column(parent_col), key: parent });
        let first_page = page_of(parent).first_page;
        if first_page == damaged_page {
            damaged += 1;
            assert!(read.is_err(), "parent {parent} read from a damaged page");
        } else {
            intact_pages.insert(first_page);
            let runs = db.table(rel).sorted_fk_index(parent_col).unwrap();
            assert_eq!(read.unwrap(), runs.rows(parent), "parent {parent}");
        }
    }
    let per_page = (PAGE_SIZE - PAGE_HEADER_LEN) / (SLOT_HEADER_LEN + 10 * 4);
    assert_eq!((damaged, intact_pages.len()), (per_page, 2), "one page of three was damaged");
    let runs = db.table(rel).sorted_fk_index(child_col).unwrap();
    for child in 0..2000i64 {
        let read = read_list(&file, ListId { column: column(child_col), key: child });
        assert_eq!(read.unwrap(), runs.rows(child), "child {child}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_directory_pointing_at_the_wrong_slot_is_rejected_by_the_slot_check() {
    // Three twelve-entry lists in one page. Lists 1 and 2 get each
    // other's offsets; list 3 is left alone.
    let db = db_with(3, 12);
    let child = db.table_id("Child").unwrap();
    let fk = db.table(child).schema.column_index("parent_id").unwrap() as u16;
    let dir = temp_dir("swapped");
    let mut store = PagedStore::new(&dir).unwrap();
    store.checkpoint_from(&db, &[child]).unwrap();
    let seg = segment_in(&dir);
    let column = ColumnId { kind: PageKind::Fk, table: child.0, col: fk };
    let ids = [1, 2, 3].map(|key| ListId { column, key });

    let intact = SegmentFile::open(&seg).unwrap();
    let [a, b, c] = ids.map(|id| intact.lookup(id).unwrap());
    assert_eq!([a.first_page, b.first_page, c.first_page], [0; 3], "the lists share page 0");
    assert_eq!(a.n_entries, b.n_entries);
    let mut page = [0u8; PAGE_SIZE];
    intact.read_page(0, &mut page).unwrap();
    for (id, e) in ids.into_iter().zip([a, b, c]) {
        e.check_page(id, 0, &page).expect("an intact segment matches its directory");
        assert!(e.check_page(id, 1, &page).is_err(), "the run has one page");
    }

    // Swap the two entries' offsets. Each still names a real slot of the
    // right size in the right page, the directory checksum is fresh and
    // the page is untouched — only the slot's own key disagrees.
    patch_directory(&seg, |d| {
        let (x, y) = (dir_entry(0) + OFFSET, dir_entry(1) + OFFSET);
        assert_eq!(
            [&d[x..x + 2], &d[y..y + 2]].map(|f| u16::from_le_bytes(f.try_into().unwrap())),
            [a.offset, b.offset]
        );
        d.swap(x, y);
        d.swap(x + 1, y + 1);
    });
    let swapped = SegmentFile::open(&seg).expect("both offsets are possible ones");
    let [sa, sb, sc] = ids.map(|id| swapped.lookup(id).unwrap());
    assert_eq!((sa.offset, sb.offset, sc), (b.offset, a.offset, c));
    swapped.read_page(0, &mut page).expect("the page still verifies: no checksum is involved");
    sc.check_page(ids[2], 0, &page).expect("the untouched entry still matches");
    for (id, e) in [(ids[0], sa), (ids[1], sb)] {
        match e.check_page(id, 0, &page) {
            Err(DiskError::Corrupt(what)) => {
                assert_eq!(what, "segment page does not match its directory")
            }
            other => panic!("expected a directory mismatch, got {other:?}"),
        }
    }
    // Nor does a page of the right shape in another column pass: the
    // same keys, positions and counts under a different header.
    let elsewhere = ListId { column: ColumnId { col: fk + 1, ..column }, key: 3 };
    assert!(sc.check_page(elsewhere, 0, &page).is_err(), "the page's column is part of the check");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_impossible_directory_entry_is_refused_at_open() {
    let db = seeded_db();
    let child = db.table_id("Child").unwrap();
    let dir = temp_dir("open");
    let mut store = PagedStore::new(&dir).unwrap();
    store.checkpoint_from(&db, &[child]).unwrap();
    let seg = segment_in(&dir);
    let pristine = std::fs::read(&seg).unwrap();

    // An offset inside the page header; one that leaves no room for the
    // slot header; one that leaves none for the twelve entries; a run
    // that starts past the end of the file; more entries than the pages
    // from the run's first to the file's last can hold.
    let entry = dir_entry(0);
    let set =
        |at: usize, v: u32| move |d: &mut [u8]| d[at..at + 4].copy_from_slice(&v.to_le_bytes());
    let set_offset =
        |v: u16| move |d: &mut [u8]| d[entry + OFFSET..][..2].copy_from_slice(&v.to_le_bytes());
    type Patch = Box<dyn FnOnce(&mut [u8])>;
    let damage: [(&str, Patch); 5] = [
        ("offset in the page header", Box::new(set_offset(PAGE_HEADER_LEN as u16 - 1))),
        ("no room for a slot header", Box::new(set_offset(PAGE_SIZE as u16 - 13))),
        ("no room for the entries", Box::new(set_offset((PAGE_SIZE - 14 - 12 * 4 + 1) as u16))),
        ("first page past the file", Box::new(set(entry + FIRST_PAGE, 1))),
        ("a run longer than the file", Box::new(set(entry + N_ENTRIES, FK_PER_PAGE as u32 + 1))),
    ];
    for (what, patch) in damage {
        std::fs::write(&seg, &pristine).unwrap();
        patch_directory(&seg, patch);
        match SegmentFile::open(&seg) {
            Err(DiskError::Corrupt(msg)) => {
                assert_eq!(msg, "segment directory entry out of range", "{what}")
            }
            other => panic!("{what}: expected a refusal at open, got {other:?}"),
        }
    }
    // The largest offsets that do fit are accepted (the slot check, not
    // the open, is what then catches the lie).
    std::fs::write(&seg, &pristine).unwrap();
    patch_directory(&seg, set_offset((PAGE_SIZE - 14 - 12 * 4) as u16));
    SegmentFile::open(&seg).expect("an entry that fits is not refused");
    // Page kind 2 is written by no checkpoint: a coverage record or an
    // entry naming it makes the directory malformed.
    for at in [4, entry] {
        std::fs::write(&seg, &pristine).unwrap();
        patch_directory(&seg, |d| d[at] = 2);
        match SegmentFile::open(&seg) {
            Err(DiskError::Corrupt(msg)) => assert_eq!(msg, "malformed segment directory"),
            other => panic!("kind 2 at {at}: expected a refusal at open, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_recovery_stops_at_the_first_damaged_record() {
    let dir = temp_dir("wal");
    let path = dir.join("wal.log");
    {
        let (mut wal, _) = Wal::open(&path, 1).unwrap();
        for payload in [b"batch-1".as_slice(), b"batch-2", b"batch-3", b"batch-4"] {
            wal.append(payload).unwrap();
        }
    }
    // Flip a byte inside record 3's payload: records 1-2 stay committed,
    // 3 fails its checksum, 4 is unreachable (and discarded).
    let mut bytes = std::fs::read(&path).unwrap();
    let record = 8 + 7; // header + payload
    bytes[2 * record + 8 + 2] ^= 0x08;
    std::fs::write(&path, &bytes).unwrap();

    let (_, replay) = Wal::open(&path, 1).unwrap();
    assert_eq!(replay.records, vec![b"batch-1".to_vec(), b"batch-2".to_vec()]);
    assert!(matches!(
        replay.tail_error,
        Some(DiskError::ChecksumMismatch { what: "wal record", .. })
    ));
    assert_eq!(replay.truncated_bytes, 2 * record as u64, "records 3 and 4 discarded");
    std::fs::remove_dir_all(&dir).ok();
}
