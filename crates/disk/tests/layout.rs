//! The packed segment layout at its boundaries: posting lists whose
//! lengths sit on every edge the packing rule has — empty, one entry,
//! one short of a page, exactly a page, one over, exactly three pages,
//! and a run whose tail page the following short lists share — must be
//! served from pages byte-identically to RAM (rows *and* paper-cost
//! accounting), whether the cache holds two pages or all of them. Plus
//! the life cycle of the segment files themselves: a checkpoint installs
//! by rename, and a fresh store sweeps what an earlier process left.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sizel_disk::page::{ColumnId, PageKind, FK_PER_PAGE, LINK_PER_PAGE, PAGE_HEADER_LEN};
use sizel_disk::segment::ListId;
use sizel_disk::{PagedStore, SegmentFile};
use sizel_storage::{
    Database, PostingCursor, PostingPager, RowId, SliceCursor, TableSchema, Value,
};

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

/// Parent / Child / Rel where `Child.parent_id` groups have the FK
/// boundary lengths and `Rel.parent_id` groups the link boundary
/// lengths, scored so neither posting order is insertion order.
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
    for (parent, &n) in boundary_lengths(LINK_PER_PAGE).iter().enumerate() {
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
    let ram = boundary_db();
    let child = ram.table_id("Child").unwrap();
    let rel = ram.table_id("Rel").unwrap();
    let fk = ram.table(child).schema.column_index("parent_id").unwrap();
    let ram_token = ram.fk_order().unwrap();

    for cache_pages in [2, 1024] {
        let mut paged = boundary_db();
        let dir = temp_dir("boundaries");
        let store = Arc::new(PagedStore::new(&dir, cache_pages).unwrap());
        store.checkpoint_from(&paged, &[child, rel]).unwrap();
        paged.evict_table_postings(child);
        paged.evict_table_postings(rel);
        paged.set_pager(Arc::<PagedStore>::clone(&store));
        let paged_token = paged.fk_order().unwrap();

        // FK lists through the TOP-l probe: a short prefix, a prefix
        // that crosses one page boundary, and the whole list; rows and
        // paper-cost accounting equal, both sides prefix-scanning. Key 9
        // has no parent row at all, key 0 a parent without children.
        for parent in 0..10i64 {
            for l in [1, 10, FK_PER_PAGE + 1, 4 * FK_PER_PAGE] {
                let ram_li = |r: RowId| ram.table(child).installed_score(r);
                let paged_li = |r: RowId| paged.table(child).installed_score(r);
                let (r0, rp0) = (ram.access().snapshot(), ram.access().probes());
                let from_ram =
                    ram.select_eq_top_l(child, fk, parent, l, 0.0, Some(ram_token), &ram_li);
                let (r1, rp1) = (ram.access().snapshot(), ram.access().probes());
                let (p0, pp0) = (paged.access().snapshot(), paged.access().probes());
                let from_disk =
                    paged.select_eq_top_l(child, fk, parent, l, 0.0, Some(paged_token), &paged_li);
                let (p1, pp1) = (paged.access().snapshot(), paged.access().probes());
                assert_eq!(from_ram, from_disk, "rows diverge: parent {parent} l {l}");
                assert_eq!(
                    r1.since(r0),
                    p1.since(p0),
                    "accounting diverges: parent {parent} l {l}"
                );
                assert_eq!((rp1.fast - rp0.fast, rp1.heap - rp0.heap), (1, 0));
                assert_eq!(
                    (pp1.fast - pp0.fast, pp1.heap - pp0.heap),
                    (1, 0),
                    "paged probe fell back"
                );
            }
        }
        // Whole lists, cursor against slice: Rel's own FK postings and
        // both orientations of its link postings (the reverse one is a
        // page full of one-pair lists). The accounted consumer of link
        // cursors, the junction TOP-l probe, is driven through the GDS
        // step that issues it: its rows-and-`AccessStats` parity over
        // the same boundary lengths is `crates/core/tests/
        // crash_recovery.rs::junction_probes_over_every_packing_boundary_…`.
        let rel_t = ram.table(rel);
        for (col, idx) in rel_t.sorted_fk_indexes() {
            for (key, rows) in idx.posting_lists() {
                let mut cur =
                    store.fk_cursor(rel, col, key).expect("checkpointed column is covered");
                let served: Vec<RowId> = std::iter::from_fn(|| cur.next_entry()).collect();
                assert!(!cur.failed());
                assert_eq!(served, rows, "fk rows diverge: col {col} key {key}");
            }
        }
        for (col, idx) in rel_t.sorted_link_indexes() {
            for key in idx.groups().map(|(key, _, _)| key).chain([-1, i64::MAX]) {
                let mut slice = SliceCursor::new(idx.pairs(key));
                let mut cur =
                    store.link_cursor(rel, col, key).expect("checkpointed column is covered");
                loop {
                    let (a, b) = (slice.next_entry(), cur.next_entry());
                    assert_eq!(a, b, "link pairs diverge: col {col} key {key}");
                    if a.is_none() {
                        break;
                    }
                }
                assert!(!cur.failed());
                assert_eq!(store.link_raw_len(rel, col, key), Some(idx.raw_group_len(key)));
            }
        }
        let stats = store.stats();
        assert_eq!(stats.cache.read_errors, 0);
        assert!(stats.resident_pages <= cache_pages as u64);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn short_lists_share_pages_and_long_lists_start_fresh_ones() {
    let db = boundary_db();
    let child = db.table_id("Child").unwrap();
    let rel = db.table_id("Rel").unwrap();
    let dir = temp_dir("placement");
    let store = PagedStore::new(&dir, 4).unwrap();
    store.checkpoint_from(&db, &[child, rel]).unwrap();
    let seg = SegmentFile::open(&dir.join("segments-1.seg")).unwrap();

    for (kind, table, per_page) in
        [(PageKind::Fk, child, FK_PER_PAGE), (PageKind::Link, rel, LINK_PER_PAGE)]
    {
        let col = db.table(table).schema.column_index("parent_id").unwrap() as u16;
        let column = ColumnId { kind, table: table.0, col };
        let at = |key: i64| seg.lookup(ListId { column, key });
        let lens = boundary_lengths(per_page);
        assert_eq!(at(0), None, "an empty list has no entry: covered, known-empty");
        assert!(seg.covers(column));
        for key in 1..9 {
            let e = at(key).expect("a non-empty list has an entry");
            assert_eq!(e.n_entries as usize, lens[key as usize]);
            assert_eq!(
                e.n_pages(kind) as usize,
                lens[key as usize].div_ceil(per_page),
                "key {key}"
            );
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

    let store = PagedStore::new(&dir, 4).unwrap();
    assert_eq!(listing(), ["segments.txt"], "the store's leftovers are swept, nothing else");
    assert_eq!(store.checkpoint_from(&db, &[child]).unwrap(), 1);
    assert_eq!(listing(), ["segments-1.seg", "segments.txt"]);
    assert_eq!(store.checkpoint_from(&db, &[child]).unwrap(), 2);
    assert_eq!(listing(), ["segments-2.seg", "segments.txt"], "exactly the installed generation");
    SegmentFile::open(&dir.join("segments-2.seg")).expect("the installed file is whole");
    std::fs::remove_dir_all(&dir).ok();
}
