//! Reading a posting list back from a segment, as the format's reader
//! must: directory entry, page, check, slot.

use sizel_disk::page::{slot_entry, FK_PER_PAGE};
use sizel_disk::segment::ListId;
use sizel_disk::{DiskError, SegmentFile, PAGE_SIZE};
use sizel_storage::RowId;

/// List `id` of `file`: every page of its run read (magic and checksum
/// verified) and checked against the directory entry
/// ([`sizel_disk::segment::DirEntry::check_page`]) before a single entry
/// is taken from the slot at the entry's offset. A key of a covered
/// column without an entry is the empty list.
pub fn read_list(file: &SegmentFile, id: ListId) -> Result<Vec<RowId>, DiskError> {
    assert!(file.covers(id.column), "the list's column is in the segment");
    let Some(e) = file.lookup(id) else { return Ok(Vec::new()) };
    let (mut page, mut rows) = ([0u8; PAGE_SIZE], Vec::with_capacity(e.n_entries as usize));
    for run_idx in 0..e.n_pages() {
        file.read_page(e.first_page + run_idx, &mut page)?;
        e.check_page(id, run_idx, &page)?;
        let count = (e.n_entries as usize - rows.len()).min(FK_PER_PAGE);
        rows.extend((0..count).map(|i| slot_entry(&page, e.offset as usize, i)));
    }
    Ok(rows)
}
