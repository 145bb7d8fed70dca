//! The packed segment layout at its boundaries: posting lists whose
//! lengths sit on every edge the packing rule has — empty, one entry,
//! one short of a page, exactly a page, one over, exactly three pages,
//! and a run whose tail page the following short lists share — must
//! read back from pages byte-identically to the FK runs in RAM. Plus the
//! life cycle of the segment files themselves: a checkpoint installs by
//! rename, refuses a table whose importance order is not live, and a
//! fresh store sweeps what an earlier process left.

mod common;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use common::read_list;
use sizel_disk::page::{ColumnId, PageKind, FK_PER_PAGE, PAGE_HEADER_LEN};
use sizel_disk::segment::ListId;
use sizel_disk::{DiskError, PagedStore, SegmentFile};
use sizel_storage::{Database, TableSchema, Value};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("sizel-disk-layout-{}-{}-{}", std::process::id(), tag, n))
}

/// List lengths, by key, straddling every boundary of a page that holds
/// `per_page` entries alone. Keys are written in this order, so key 6's
/// two-page run leaves a tail page that keys 7 and 8 must share.
fn boundary_lengths(per_page: usize) -> [usize; 9] {
    [0, 1, per_page - 1, per_page, per_page + 1, 3 * per_page, 2 * per_page + 5, 3, 5]
}

/// Parent / Child / Rel where both `Child.parent_id` and the junction's
/// `Rel.parent_id` groups have the boundary lengths, scored so no
/// posting order is insertion order.
fn boundary_db() -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::builder("Parent").pk("id").build().unwrap()).unwrap();
    db.create_table(
        TableSchema::builder("Child").pk("id").fk("parent_id", "Parent").build().unwrap(),
    )
    .unwrap();
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
    for parent in 0..9 {
        db.insert("Parent", vec![Value::Int(parent)]).unwrap();
    }
    let mut child_pk = 0;
    for (parent, &n) in boundary_lengths(FK_PER_PAGE).iter().enumerate() {
        for _ in 0..n {
            db.insert("Child", vec![Value::Int(child_pk), Value::Int(parent as i64)]).unwrap();
            child_pk += 1;
        }
    }
    let mut rel_pk = 0;
    for (parent, &n) in boundary_lengths(FK_PER_PAGE).iter().enumerate() {
        for _ in 0..n {
            let child = (rel_pk * 7) % child_pk;
            db.insert(
                "Rel",
                vec![Value::Int(rel_pk), Value::Int(parent as i64), Value::Int(child)],
            )
            .unwrap();
            rel_pk += 1;
        }
    }
    db.install_importance_order(&|t, r| ((r.index() * 31 + t.index()) % 97) as f64);
    db
}

#[test]
fn lists_on_every_packing_boundary_are_served_identically_from_pages() {
    let db = boundary_db();
    let child = db.table_id("Child").unwrap();
    let rel = db.table_id("Rel").unwrap();
    let dir = temp_dir("boundaries");
    let mut store = PagedStore::new(&dir).unwrap();
    store.checkpoint_from(&db, &[child, rel]).unwrap();
    let seg = SegmentFile::open(&dir.join("segments-1.seg")).unwrap();

    // Every FK column of both tables, every key a run holds — Child's
    // and Rel's parent lists on the boundaries, Rel's child column a page
    // full of one-row lists — reads back as the table's run, in order.
    // Key 9 has no parent row at all, key 0 a parent without children:
    // both read as covered and empty.
    let mut lists = 0;
    for table in [child, rel] {
        for (col, idx) in db.table(table).sorted_fk_indexes() {
            let column = ColumnId { kind: PageKind::Fk, table: table.0, col: col as u16 };
            for (key, rows) in idx.posting_lists() {
                let read = read_list(&seg, ListId { column, key }).expect("an intact segment");
                assert_eq!(read, rows, "table {} col {col} key {key}", table.0);
                lists += usize::from(!rows.is_empty());
            }
            for key in [0, 9] {
                assert_eq!(read_list(&seg, ListId { column, key }).unwrap(), idx.rows(key));
            }
        }
    }
    assert_eq!(lists, seg.len(), "the directory holds every non-empty run and nothing else");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn short_lists_share_pages_and_long_lists_start_fresh_ones() {
    let db = boundary_db();
    let child = db.table_id("Child").unwrap();
    let rel = db.table_id("Rel").unwrap();
    let dir = temp_dir("placement");
    let mut store = PagedStore::new(&dir).unwrap();
    store.checkpoint_from(&db, &[child, rel]).unwrap();
    let seg = SegmentFile::open(&dir.join("segments-1.seg")).unwrap();

    for table in [child, rel] {
        let col = db.table(table).schema.column_index("parent_id").unwrap() as u16;
        let column = ColumnId { kind: PageKind::Fk, table: table.0, col };
        let at = |key: i64| seg.lookup(ListId { column, key });
        let lens = boundary_lengths(FK_PER_PAGE);
        assert_eq!(at(0), None, "an empty list has no entry: covered, known-empty");
        assert!(seg.covers(column));
        for key in 1..9 {
            let e = at(key).expect("a non-empty list has an entry");
            assert_eq!(e.n_entries as usize, lens[key as usize]);
            assert_eq!(e.n_pages() as usize, lens[key as usize].div_ceil(FK_PER_PAGE), "key {key}");
        }
        let p = PAGE_HEADER_LEN as u16;
        let first = at(1).unwrap().first_page;
        // One entry, then a page less one: does not fit beside it.
        assert_eq!((at(1).unwrap().offset, at(2).unwrap().first_page), (p, first + 1));
        // An exact page and the runs after it each start a page.
        assert_eq!((at(3).unwrap().first_page, at(3).unwrap().offset), (first + 2, p));
        assert_eq!((at(4).unwrap().first_page, at(4).unwrap().offset), (first + 3, p));
        assert_eq!((at(5).unwrap().first_page, at(5).unwrap().offset), (first + 5, p));
        assert_eq!((at(6).unwrap().first_page, at(6).unwrap().offset), (first + 8, p));
        // The five-entry tail of key 6's run shares its page with 7 and 8.
        let tail_page = first + 10;
        assert_eq!(at(7).unwrap().first_page, tail_page);
        assert_eq!(at(8).unwrap().first_page, tail_page);
        assert!(p < at(7).unwrap().offset && at(7).unwrap().offset < at(8).unwrap().offset);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_fresh_store_sweeps_stale_segments_and_a_checkpoint_installs_by_rename() {
    let db = boundary_db();
    let child = db.table_id("Child").unwrap();
    let dir = temp_dir("sweep");
    std::fs::create_dir_all(&dir).unwrap();
    // What a process that checkpointed seven times and then died in its
    // eighth leaves behind, beside a file that is none of the store's.
    std::fs::write(dir.join("segments-7.seg"), vec![0xAB; 3 * 4096]).unwrap();
    std::fs::write(dir.join("segments-8.seg.tmp"), vec![0xCD; 4096 + 100]).unwrap();
    std::fs::write(dir.join("segments.txt"), b"not a segment").unwrap();
    let listing = || {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };

    let mut store = PagedStore::new(&dir).unwrap();
    assert_eq!(listing(), ["segments.txt"], "the store's leftovers are swept, nothing else");
    assert_eq!(store.checkpoint_from(&db, &[child]).unwrap(), 1);
    assert_eq!(listing(), ["segments-1.seg", "segments.txt"]);
    assert_eq!(store.checkpoint_from(&db, &[child]).unwrap(), 2);
    assert_eq!(listing(), ["segments-2.seg", "segments.txt"], "exactly the installed generation");
    SegmentFile::open(&dir.join("segments-2.seg")).expect("the installed file is whole");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_checkpoint_refuses_a_paged_table_whose_order_a_plain_write_dropped() {
    let mut db = boundary_db();
    let (child, rel) = (db.table_id("Child").unwrap(), db.table_id("Rel").unwrap());
    // A plain insert drops Child's order; Rel's stays live.
    db.insert("Child", vec![Value::Int(1_000_000), Value::Int(0)]).unwrap();
    db.build_runs();
    let dir = temp_dir("unsorted");
    let mut store = PagedStore::new(&dir).unwrap();
    let err = store.checkpoint_from(&db, &[rel, child]).unwrap_err();
    assert!(matches!(err, DiskError::Corrupt(_)), "{err}");
    assert_eq!(store.stats().generation, 0, "nothing was installed");
    assert_eq!(store.checkpoint_from(&db, &[rel]).unwrap(), 1, "a sorted table still checkpoints");
    std::fs::remove_dir_all(&dir).ok();
}
