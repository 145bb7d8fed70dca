//! Fail-closed corruption tests (satellite of the disk tier): flipped
//! bytes anywhere — segment page, segment directory, WAL record — must
//! surface as typed [`DiskError`]s and NEVER as served garbage. A probe
//! that hits a damaged page discards its partial scan and falls back to
//! the heap path, so answers stay correct while the damage is counted.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sizel_disk::crc::crc32;
use sizel_disk::page::{
    seal_page, ColumnId, PageKind, FK_PER_PAGE, PAGE_HEADER_LEN, SLOT_HEADER_LEN,
};
use sizel_disk::segment::ListId;
use sizel_disk::{DiskError, PagedStore, SegmentFile, Wal, PAGE_SIZE};
use sizel_storage::{
    AccessStats, Database, PostingPager, ProbeCost, RowId, TableId, TableSchema, TopLScratch, Value,
};

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

/// One junction TOP-5 probe from `key` through `Rel` (`source` column to
/// `target` column, rows of `to`): the rows, the paper-cost accounting
/// and the `(fast, heap)` probe mix it moved.
fn junction_probe(
    db: &Database,
    (source, target, to): (usize, usize, TableId),
    key: i64,
) -> (Vec<RowId>, AccessStats, (u64, u64)) {
    let rel = db.table_id("Rel").unwrap();
    let li = |r: RowId| db.table(to).installed_score(r);
    let (mut cost, mut out) = (ProbeCost::default(), Vec::new());
    db.select_via_junction_top_l_into(
        rel,
        source,
        key,
        target,
        to,
        None,
        5,
        0.0,
        db.fk_order(),
        &li,
        &mut TopLScratch::new(),
        &mut cost,
        &mut out,
    );
    (out, cost.access, (cost.probes.fast, cost.probes.heap))
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
/// of coverage, a 4-byte count, 27-byte entries), and of the fields the
/// tests below damage within an entry.
fn dir_entry(i: usize) -> usize {
    4 + 5 + 4 + i * 27
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
fn a_flipped_page_byte_fails_closed_and_probes_fall_back_to_the_heap() {
    let mut db = seeded_db();
    let pristine = seeded_db();
    let child = db.table_id("Child").unwrap();
    let fk = db.table(child).schema.column_index("parent_id").unwrap();

    let dir = temp_dir("page");
    let store = Arc::new(PagedStore::new(&dir, 8).unwrap());
    store.checkpoint_from(&db, &[child]).unwrap();
    db.evict_table_postings(child);
    db.set_pager(Arc::<PagedStore>::clone(&store));
    corrupt_every_page(&dir);

    let token = db.fk_order().unwrap();
    let p_token = pristine.fk_order().unwrap();
    for parent in 1..3i64 {
        let li = |r: RowId| db.table(child).installed_score(r);
        let p_li = |r: RowId| pristine.table(child).installed_score(r);
        let b0 = db.access().probes();
        let served = db.select_eq_top_l(child, fk, parent, 5, 0.0, Some(token), &li);
        let b1 = db.access().probes();
        let expect = pristine.select_eq_top_l(child, fk, parent, 5, 0.0, Some(p_token), &p_li);
        assert_eq!(served, expect, "a damaged segment must not change any answer");
        assert!(!served.is_empty(), "the probe actually had rows to lose");
        assert_eq!(b1.heap - b0.heap, 1, "the failed scan fell back to the heap path");
        assert_eq!(b1.fast, b0.fast, "no fast probe was counted for the discarded scan");
    }
    let stats = store.stats();
    assert!(stats.cache.read_errors >= 2, "every damaged read was counted");
    assert_eq!(stats.cache.hits, 0, "damaged pages are never cached");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_flipped_link_page_byte_fails_closed_and_junction_probes_fall_back_to_the_heap() {
    let mut db = junction_db(2, 12);
    let pristine = junction_db(2, 12);
    let (rel, parent_t, child_t) = (
        db.table_id("Rel").unwrap(),
        db.table_id("Parent").unwrap(),
        db.table_id("Child").unwrap(),
    );
    let (parent_col, child_col) = (1, 2);
    let (down, up) = ((parent_col, child_col, child_t), (child_col, parent_col, parent_t));

    let dir = temp_dir("link-page");
    let store = Arc::new(PagedStore::new(&dir, 8).unwrap());
    store.checkpoint_from(&db, &[rel]).unwrap();
    db.evict_table_postings(rel);
    db.set_pager(Arc::<PagedStore>::clone(&store));
    // Damage the one page of the Parent -> Child link groups, and no
    // other: Rel's FK pages and the reverse orientation's stay sound.
    let seg = segment_in(&dir);
    let column = ColumnId { kind: PageKind::Link, table: rel.0, col: parent_col as u16 };
    let layout = SegmentFile::open(&seg).unwrap();
    let [a, b] = [1, 2].map(|key| layout.lookup(ListId { column, key }).expect("a group"));
    assert_eq!((a.first_page, a.n_entries, a.raw_len), (b.first_page, 12, 12), "one shared page");
    flip_padding_of(&seg, a.first_page);

    for parent in 1..3i64 {
        let (rows, cost, mix) = junction_probe(&db, down, parent);
        let (p_rows, p_cost, p_mix) = junction_probe(&pristine, down, parent);
        assert_eq!(rows, p_rows, "a damaged link page must not change any answer");
        assert_eq!(rows.len(), 5, "the probe actually had rows to lose");
        assert_eq!(cost, p_cost, "nor what the answer is accounted as");
        assert_eq!((cost.joins, cost.tuples), (2, 12 + 5), "junction group read, targets fetched");
        assert_eq!((mix, p_mix), ((0, 1), (1, 0)), "the failed scan fell back to the heap path");
    }
    assert_eq!(store.stats().cache.read_errors, 2, "every damaged read was counted");

    // No other list is affected: the reverse orientation's groups and
    // Rel's own FK postings are still served from their pages.
    let token = db.fk_order().unwrap();
    for key in [0i64, 7, 23] {
        let (rows, cost, mix) = junction_probe(&db, up, key);
        let (p_rows, p_cost, _) = junction_probe(&pristine, up, key);
        assert_eq!((rows, cost), (p_rows, p_cost));
        assert_eq!(mix, (1, 0), "child {key}: the sound link page was not served");
    }
    for parent in 1..3i64 {
        let li = |r: RowId| db.table(rel).installed_score(r);
        let p0 = db.access().probes();
        let rows = db.select_eq_top_l(rel, parent_col, parent, 5, 0.0, Some(token), &li);
        let p1 = db.access().probes();
        assert_eq!(rows.len(), 5);
        assert_eq!((p1.fast - p0.fast, p1.heap - p0.heap), (1, 0), "the FK page was not served");
    }
    let stats = store.stats();
    assert_eq!(stats.cache.read_errors, 2, "sound pages raised no error");
    assert_eq!(stats.resident_pages, 2, "and were cached; the damaged one never is");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn page_and_directory_damage_surface_as_typed_errors() {
    let db = seeded_db();
    let child = db.table_id("Child").unwrap();
    let dir = temp_dir("typed");
    let store = PagedStore::new(&dir, 4).unwrap();
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
    let mut db = db_with(200, 10);
    let pristine = db_with(200, 10);
    let child = db.table_id("Child").unwrap();
    let fk = db.table(child).schema.column_index("parent_id").unwrap();

    let dir = temp_dir("shared");
    let store = Arc::new(PagedStore::new(&dir, 8).unwrap());
    store.checkpoint_from(&db, &[child]).unwrap();
    db.evict_table_postings(child);
    db.set_pager(Arc::<PagedStore>::clone(&store));
    // One byte, in the zero padding after page 1's last slot: no list's
    // own bytes are touched, the page's checksum still fails them all.
    let seg = segment_in(&dir);
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes[2 * PAGE_SIZE - 1] ^= 0x01;
    std::fs::write(&seg, &bytes).unwrap();
    let layout = SegmentFile::open(&seg).expect("directory is still intact");

    let token = db.fk_order().unwrap();
    let p_token = pristine.fk_order().unwrap();
    let column = ColumnId { kind: PageKind::Fk, table: child.0, col: fk as u16 };
    let (mut damaged, mut intact) = (0, 0);
    for parent in 1..=200i64 {
        let id = ListId { column, key: parent };
        let on_damaged_page = layout.lookup(id).expect("every parent has children").first_page == 1;
        let li = |r: RowId| db.table(child).installed_score(r);
        let p_li = |r: RowId| pristine.table(child).installed_score(r);
        let b0 = db.access().probes();
        let served = db.select_eq_top_l(child, fk, parent, 5, 0.0, Some(token), &li);
        let b1 = db.access().probes();
        let expect = pristine.select_eq_top_l(child, fk, parent, 5, 0.0, Some(p_token), &p_li);
        assert_eq!(served, expect, "a damaged segment must not change any answer");
        assert_eq!(served.len(), 5);
        if on_damaged_page {
            damaged += 1;
            assert_eq!((b1.fast - b0.fast, b1.heap - b0.heap), (0, 1), "parent {parent} fell back");
        } else {
            intact += 1;
            assert_eq!(
                (b1.fast - b0.fast, b1.heap - b0.heap),
                (1, 0),
                "parent {parent} was served"
            );
        }
    }
    assert_eq!((damaged, intact), (75, 125), "one page of three was damaged");
    let stats = store.stats();
    assert_eq!(stats.cache.read_errors, 75, "every read of the damaged page was counted");
    assert_eq!(stats.cache.misses, 75 + 2, "it was never cached; its neighbours were, once each");
    assert_eq!(stats.cache.hits, 125 - 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_flipped_byte_in_a_shared_link_page_fails_every_group_in_it_and_no_other() {
    // 200 ten-pair groups of 94 bytes each: 43 to a page, so five pages.
    let mut db = junction_db(200, 10);
    let pristine = junction_db(200, 10);
    let (rel, child_t) = (db.table_id("Rel").unwrap(), db.table_id("Child").unwrap());
    let (parent_col, child_col) = (1, 2);
    let down = (parent_col, child_col, child_t);

    let dir = temp_dir("shared-link");
    let store = Arc::new(PagedStore::new(&dir, 8).unwrap());
    store.checkpoint_from(&db, &[rel]).unwrap();
    db.evict_table_postings(rel);
    db.set_pager(Arc::<PagedStore>::clone(&store));
    let seg = segment_in(&dir);
    let column = ColumnId { kind: PageKind::Link, table: rel.0, col: parent_col as u16 };
    let layout = SegmentFile::open(&seg).unwrap();
    let page_of = |key| layout.lookup(ListId { column, key }).expect("a group").first_page;
    let damaged_page = page_of(100);
    flip_padding_of(&seg, damaged_page);

    let (mut damaged, mut intact_pages) = (0, std::collections::BTreeSet::new());
    for parent in 1..=200i64 {
        let (rows, cost, mix) = junction_probe(&db, down, parent);
        let (p_rows, p_cost, _) = junction_probe(&pristine, down, parent);
        assert_eq!((&rows, cost), (&p_rows, p_cost), "parent {parent}: answer or accounting moved");
        assert_eq!(rows.len(), 5);
        if page_of(parent) == damaged_page {
            damaged += 1;
            assert_eq!(mix, (0, 1), "parent {parent} fell back");
        } else {
            intact_pages.insert(page_of(parent));
            assert_eq!(mix, (1, 0), "parent {parent} was served");
        }
    }
    let per_page = (PAGE_SIZE - PAGE_HEADER_LEN) / (SLOT_HEADER_LEN + 10 * 8);
    assert_eq!((damaged, intact_pages.len()), (per_page, 4), "one page of five was damaged");
    let stats = store.stats();
    assert_eq!(stats.cache.read_errors, damaged as u64, "every read of the damaged page counted");
    assert_eq!(stats.cache.misses, damaged as u64 + 4, "it was never cached; the others once each");
    assert_eq!(stats.cache.hits, 200 - damaged as u64 - 4);
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
    let store = PagedStore::new(&dir, 4).unwrap();
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
fn a_resident_shared_page_is_checked_for_every_list_that_enters_it() {
    // The same disagreement, met the way a serving store meets it. A
    // store keeps the directory it opened in RAM, so here the page is
    // what moves: the slots of lists 1 and 2 trade places and the page
    // is re-sealed — magic, checksum and column all pass, and each of
    // the two directory offsets names the other list's slot. The intact
    // list 3 is probed FIRST and brings the shared page into the cache;
    // lists 1 and 2 then find it resident. A hit must not skip the slot
    // check: they fail closed, fall back to the heap and are counted.
    let mut db = db_with(3, 12);
    let pristine = db_with(3, 12);
    let child = db.table_id("Child").unwrap();
    let fk = db.table(child).schema.column_index("parent_id").unwrap();
    let dir = temp_dir("resident");
    let store = Arc::new(PagedStore::new(&dir, 4).unwrap());
    store.checkpoint_from(&db, &[child]).unwrap();
    db.evict_table_postings(child);
    db.set_pager(Arc::<PagedStore>::clone(&store));

    let seg = segment_in(&dir);
    let column = ColumnId { kind: PageKind::Fk, table: child.0, col: fk as u16 };
    let layout = SegmentFile::open(&seg).unwrap();
    let [a, b] = [1, 2].map(|key| layout.lookup(ListId { column, key }).unwrap());
    assert_eq!((a.first_page, b.first_page, a.n_entries, b.n_entries), (0, 0, 12, 12));
    let mut bytes = std::fs::read(&seg).unwrap();
    let page: &mut [u8; PAGE_SIZE] = (&mut bytes[..PAGE_SIZE]).try_into().unwrap();
    let slot_len = SLOT_HEADER_LEN + 12 * 4;
    for i in 0..slot_len {
        page.swap(a.offset as usize + i, b.offset as usize + i);
    }
    seal_page(page, column);
    std::fs::write(&seg, &bytes).unwrap();

    let token = db.fk_order().unwrap();
    let p_token = pristine.fk_order().unwrap();
    for (parent, served_from_pages) in [(3i64, true), (1, false), (2, false), (3, true)] {
        let li = |r: RowId| db.table(child).installed_score(r);
        let p_li = |r: RowId| pristine.table(child).installed_score(r);
        let b0 = db.access().probes();
        let served = db.select_eq_top_l(child, fk, parent, 5, 0.0, Some(token), &li);
        let b1 = db.access().probes();
        let expect = pristine.select_eq_top_l(child, fk, parent, 5, 0.0, Some(p_token), &p_li);
        assert_eq!(served, expect, "parent {parent}: a neighbour's rows must never be served");
        assert_eq!(served.len(), 5);
        assert_eq!(
            (b1.fast - b0.fast, b1.heap - b0.heap),
            if served_from_pages { (1, 0) } else { (0, 1) },
            "parent {parent}"
        );
    }
    for key in [1, 2] {
        let mut cur = store.fk_cursor(child, fk, key).expect("the column is covered");
        assert_eq!(cur.next_entry(), None, "not one entry of the wrong slot is yielded");
        assert!(cur.failed());
    }
    let stats = store.stats();
    assert_eq!(stats.cache.misses, 1, "the page was read once, for list 3");
    assert_eq!(stats.cache.hits, 5, "every later scan found it resident");
    assert_eq!(stats.cache.read_errors, 4, "and each scan of lists 1 and 2 was counted");
    assert_eq!(stats.resident_pages, 1, "the page itself is sound and stays cached");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_impossible_directory_entry_is_refused_at_open() {
    let db = seeded_db();
    let child = db.table_id("Child").unwrap();
    let dir = temp_dir("open");
    let store = PagedStore::new(&dir, 4).unwrap();
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
