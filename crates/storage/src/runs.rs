//! The flat multimap under a table's FK runs (its groups and sorted
//! postings at once) and under the keyword index's postings (a run per
//! token id): one key directory and one arena, each key's entries one
//! run of it. A bulk build ([`Runs::from_entries`]) counts
//! and then fills, every run at its length and the arena at exact size.
//! Afterwards a full run moves to the tail at `GROWTH` times its size;
//! once dead slots outnumber live entries one pass repacks the arena.
//!
//! The directory (`Dir`) places a key by its offset where the keys allow
//! it: an FK column over surrogate keys `1..=n` keeps its runs in an
//! array over its key span, 12 B a key, and hashes only the keys outside
//! that span. The keys pick the layout; no setting does.

use crate::hash::{map_bytes, IntMap};

/// A full run moves to the tail at this many times its capacity.
const GROWTH: u32 = 2;

/// A directory value: where the key's entries lie,
/// `arena[start..start + len]` inside the `cap` slots it reserves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Run {
    start: u32,
    len: u32,
    cap: u32,
}

/// An absent key's array slot (a present key reserves a slot or more).
const ABSENT: Run = Run { start: 0, len: 0, cap: 0 };

impl Run {
    fn entries(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }

    fn is_present(&self) -> bool {
        self.cap > 0
    }
}

fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("a posting arena holds fewer than 2^32 slots")
}

/// The key directory, in two parts: the runs of the keys `lo..lo +
/// dense.len()` in an array, [`ABSENT`] where a key is absent, and every
/// other key's run in a map under the keyed hasher. Every key lives in
/// exactly one part. A bulk layout ([`Dir::spanning`]) takes the keys'
/// whole span when it is no larger than the entries they index, so the
/// array costs at most 12 B an entry; afterwards the span grows only by
/// the key just past its end, and only when that key is not hashed
/// already. A new key adds one array slot or one map entry, whatever the
/// key stream.
#[derive(Clone, Debug, Default)]
struct Dir {
    lo: i64,
    dense: Vec<Run>,
    /// Present keys in `dense`, so a key count (`Table::avg_fanout`, once
    /// per GDS edge) need not walk the array.
    dense_keys: usize,
    sparse: IntMap<Run>,
}

impl Dir {
    /// An empty directory for keys given with their entry counts: over
    /// the keys' span when it is no larger than their entries, every key
    /// hashed otherwise.
    fn spanning(keys: impl Iterator<Item = (i64, usize)>) -> Dir {
        let (mut lo, mut hi, mut entries) = (i64::MAX, i64::MIN, 0u64);
        for (key, n) in keys {
            (lo, hi, entries) = (lo.min(key), hi.max(key), entries + n as u64);
        }
        // `hi − lo` is exact as a `u64` whenever a key was seen.
        let dense = lo <= hi && (hi.wrapping_sub(lo) as u64) < entries;
        let span = if dense { (hi.wrapping_sub(lo) as u64 + 1) as usize } else { 0 };
        Dir { lo, dense: vec![ABSENT; span], ..Dir::default() }
    }

    /// `key`'s index in the array, when it lies in the span.
    fn slot(&self, key: i64) -> Option<usize> {
        let i = key.wrapping_sub(self.lo) as u64;
        (i < self.dense.len() as u64).then_some(i as usize)
    }

    fn get(&self, key: i64) -> Option<&Run> {
        match self.slot(key) {
            Some(i) => Some(&self.dense[i]).filter(|run| run.is_present()),
            None => self.sparse.get(&key),
        }
    }

    fn get_mut(&mut self, key: i64) -> Option<&mut Run> {
        match self.slot(key) {
            Some(i) => Some(&mut self.dense[i]).filter(|run| run.is_present()),
            None => self.sparse.get_mut(&key),
        }
    }

    /// `key`'s entry in the part that holds it, [`ABSENT`] where none;
    /// the span stays as it is.
    fn place(&mut self, key: i64) -> &mut Run {
        match self.slot(key) {
            Some(i) => &mut self.dense[i],
            None => self.sparse.entry(key).or_insert(ABSENT),
        }
    }

    /// Counts the array's present keys once a bulk layout is placed.
    fn placed(mut self) -> Dir {
        self.dense_keys = self.dense.iter().filter(|run| run.is_present()).count();
        self
    }

    /// `key`'s run, created empty at `tail` when absent. A key just past
    /// the span's end extends it unless the key is hashed already; an
    /// empty span starts at the first such key.
    fn run(&mut self, key: i64, tail: u32) -> &mut Run {
        let end = self.lo.checked_add(self.dense.len() as i64);
        let extends = self.dense.is_empty() || end == Some(key);
        if extends && !self.sparse.contains_key(&key) {
            if self.dense.is_empty() {
                self.lo = key;
            }
            self.dense.push(ABSENT);
        }
        let fresh = Run { start: tail, len: 0, cap: 0 };
        match self.slot(key) {
            Some(i) => {
                if !self.dense[i].is_present() {
                    self.dense[i] = fresh;
                    self.dense_keys += 1;
                }
                &mut self.dense[i]
            }
            None => self.sparse.entry(key).or_insert(fresh),
        }
    }

    fn remove(&mut self, key: i64) -> Option<Run> {
        match self.slot(key) {
            Some(i) => {
                let run = std::mem::replace(&mut self.dense[i], ABSENT);
                self.dense_keys -= usize::from(run.is_present());
                Some(run).filter(Run::is_present)
            }
            None => self.sparse.remove(&key),
        }
    }

    fn len(&self) -> usize {
        self.dense_keys + self.sparse.len()
    }

    /// Every key with its run: the array's in key order, then the map's.
    fn iter(&self) -> impl Iterator<Item = (i64, &Run)> {
        let dense = self.dense.iter().enumerate().filter(|(_, run)| run.is_present());
        let dense = dense.map(|(i, run)| (self.lo.wrapping_add(i as i64), run));
        dense.chain(self.sparse.iter().map(|(&key, run)| (key, run)))
    }

    fn values_mut(&mut self) -> impl Iterator<Item = &mut Run> {
        self.dense.iter_mut().filter(|run| run.is_present()).chain(self.sparse.values_mut())
    }

    fn shrink_to_fit(&mut self) {
        self.dense.shrink_to_fit();
        self.sparse.shrink_to_fit();
    }

    fn heap_bytes(&self) -> usize {
        self.dense.capacity() * std::mem::size_of::<Run>() + map_bytes(&self.sparse)
    }
}

/// A multimap from `i64` keys to runs of `E`. A key is present from its
/// first insert until [`Runs::remove_key`], or until a removal leaves it
/// with no entry.
#[derive(Clone, Debug)]
pub struct Runs<E> {
    dir: Dir,
    arena: Vec<E>,
    /// Entries across every run.
    live: usize,
    /// Arena slots no run reserves.
    dead: usize,
}

impl<E> Default for Runs<E> {
    fn default() -> Self {
        Runs { dir: Dir::default(), arena: Vec::new(), live: 0, dead: 0 }
    }
}

impl<E: Copy> Runs<E> {
    /// The runs of `entries`, a walk over `(key, entry)` pairs taken three
    /// times: once for the keys' span, once to count each key's entries,
    /// once to place them. Each key's run keeps its entries in the walk's
    /// order and reserves no spare slot; the arena and the directory hold
    /// no slack.
    pub fn from_entries<I: Iterator<Item = (i64, E)>>(entries: impl Fn() -> I) -> Self {
        let mut dir = Dir::spanning(entries().map(|(key, _)| (key, 1)));
        for (key, _) in entries() {
            dir.place(key).cap += 1;
        }
        let mut dir = dir.placed();
        dir.shrink_to_fit();
        let mut live = 0;
        for run in dir.values_mut() {
            run.start = offset(live);
            live += run.cap as usize;
        }
        let Some((_, first)) = entries().next() else { return Runs::default() };
        let mut arena = vec![first; live];
        for (key, entry) in entries() {
            let run = dir.get_mut(key).expect("the count pass saw every key");
            arena[(run.start + run.len) as usize] = entry;
            run.len += 1;
        }
        Runs { dir, arena, live, dead: 0 }
    }

    /// `key`'s entries, or `None` for an absent key.
    pub fn get(&self, key: i64) -> Option<&[E]> {
        self.dir.get(key).map(|run| &self.arena[run.entries()])
    }

    /// `key`'s entries, writable where they lie, or `None` for an absent key.
    pub fn get_mut(&mut self, key: i64) -> Option<&mut [E]> {
        let run = self.dir.get(key)?;
        Some(&mut self.arena[run.entries()])
    }

    /// Number of keys.
    pub fn key_count(&self) -> usize {
        self.dir.len()
    }

    /// Number of entries across every key.
    pub fn entry_count(&self) -> usize {
        self.live
    }

    /// Every key with its entries: the keys the directory places by
    /// offset in key order, then the hashed ones in hash order.
    pub fn iter(&self) -> impl Iterator<Item = (i64, &[E])> {
        self.dir.iter().map(|(k, run)| (k, &self.arena[run.entries()]))
    }

    /// Inserts `entry` into `key`'s run at the index `at` picks from the
    /// run's entries (`0..=len`), creating the key when absent.
    pub fn insert_with(&mut self, key: i64, entry: E, at: impl FnOnce(&[E]) -> usize) {
        let tail = offset(self.arena.len());
        let run = self.dir.run(key, tail);
        if run.len == run.cap {
            if run.start + run.cap != tail {
                self.arena.extend_from_within(run.entries());
                self.dead += run.cap as usize;
                run.start = tail;
            }
            run.cap = (run.cap * GROWTH).max(1);
            // `entry` fills the spare slots until entries land there.
            self.arena.resize((run.start + run.cap) as usize, entry);
        }
        let slots = &mut self.arena[run.start as usize..=(run.start + run.len) as usize];
        let at = at(&slots[..run.len as usize]);
        slots.copy_within(at..run.len as usize, at + 1);
        slots[at] = entry;
        run.len += 1;
        self.live += 1;
        self.compact_if_sparse();
    }

    /// Removes the entry `find` locates in `key`'s run, returning whether
    /// one was; a key left with no entry is dropped.
    pub fn remove_with(&mut self, key: i64, find: impl FnOnce(&[E]) -> Option<usize>) -> bool {
        let Some(run) = self.dir.get_mut(key) else { return false };
        let entries = &mut self.arena[run.entries()];
        let Some(at) = find(entries) else { return false };
        entries.copy_within(at + 1.., at);
        run.len -= 1;
        self.live -= 1;
        if run.len == 0 {
            self.remove_key(key);
        }
        true
    }

    /// Drops `key` with its run; returns whether it was present.
    pub fn remove_key(&mut self, key: i64) -> bool {
        let Some(run) = self.dir.remove(key) else { return false };
        self.live -= run.len as usize;
        self.dead += run.cap as usize;
        self.compact_if_sparse();
        true
    }

    /// Calls `f` on every key's entries, where they lie.
    pub fn for_each_run_mut(&mut self, mut f: impl FnMut(&mut [E])) {
        for run in self.dir.values_mut() {
            f(&mut self.arena[run.entries()]);
        }
    }

    /// Repacks the arena in one pass, dropping its dead slots; every run
    /// keeps the slots it reserves.
    pub fn compact(&mut self) {
        self.repack(false);
    }

    /// Repacks every run at its length, arena and directory at exact size.
    pub fn shrink_to_fit(&mut self) {
        // An arena of exactly its live entries has no dead slot and no
        // run with a spare one: nothing to repack.
        if self.arena.capacity() != self.live {
            self.repack(true);
        }
        self.dir.shrink_to_fit();
    }

    /// Heap bytes held, from the directory's and the arena's capacities.
    pub fn heap_bytes(&self) -> usize {
        self.dir.heap_bytes() + self.arena.capacity() * std::mem::size_of::<E>()
    }

    /// The key directory's share of [`Self::heap_bytes`].
    pub fn directory_bytes(&self) -> usize {
        self.dir.heap_bytes()
    }

    fn compact_if_sparse(&mut self) {
        if self.dead > self.live {
            self.compact();
        }
    }

    /// Copies every run into a fresh arena, at its length when `exact`,
    /// under a directory laid out afresh for the live keys — so the span
    /// forgets keys that have left it.
    fn repack(&mut self, exact: bool) {
        let mut arena =
            Vec::with_capacity(if exact { self.live } else { self.arena.len() - self.dead });
        let mut dir = Dir::spanning(self.dir.iter().map(|(key, run)| (key, run.len as usize)));
        for (key, run) in self.dir.iter() {
            let cap = if exact { run.len } else { run.cap };
            let start = offset(arena.len());
            arena.extend_from_slice(&self.arena[run.start as usize..(run.start + cap) as usize]);
            *dir.place(key) = Run { start, len: run.len, cap };
        }
        self.dir = dir.placed();
        self.arena = arena;
        self.dead = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(runs: &mut Runs<u32>, key: i64, x: u32) {
        runs.insert_with(key, x, <[u32]>::len);
    }

    #[test]
    fn a_full_run_grows_at_the_tail_and_moves_off_the_middle() {
        let mut runs = Runs::default();
        for x in 0..3 {
            push(&mut runs, 7, x);
        }
        // Alone at the tail, key 7 grew where it lies: 1, 2, 4 slots.
        assert_eq!((runs.arena.len(), runs.dead), (4, 0));
        push(&mut runs, 8, 10);
        push(&mut runs, 7, 3);
        // Still a spare slot: the run is full now, not moved.
        assert_eq!(runs.dir.get(7), Some(&Run { start: 0, len: 4, cap: 4 }));
        push(&mut runs, 7, 4);
        // Full and no longer last: it moved to the tail at twice its
        // capacity, its four old slots dead.
        assert_eq!(runs.dir.get(7), Some(&Run { start: 5, len: 5, cap: 8 }));
        assert_eq!((runs.arena.len(), runs.dead, runs.live), (13, 4, 6));
        assert_eq!(runs.get(7), Some(&[0, 1, 2, 3, 4][..]));
        assert_eq!(runs.get(8), Some(&[10][..]));
    }

    #[test]
    fn dead_slots_outnumbering_live_entries_repack_the_arena() {
        let mut runs = Runs::default();
        for x in 0..4 {
            push(&mut runs, 1, x);
            push(&mut runs, 2, x);
        }
        let dead = runs.dead;
        assert!(dead > 0 && dead <= runs.live);
        // Dropping key 1 leaves its slots dead, past the live entries of
        // key 2: one repack keeps key 2's reserved slots and nothing else.
        assert!(runs.remove_key(1));
        assert_eq!(runs.dead, 0);
        assert_eq!(runs.arena.len(), runs.dir.get(2).unwrap().cap as usize);
        assert_eq!(runs.get(2), Some(&[0, 1, 2, 3][..]));
        // A removal that empties a key drops it.
        for _ in 0..4 {
            assert!(runs.remove_with(2, |e| e.first().map(|_| 0)));
        }
        assert_eq!((runs.key_count(), runs.entry_count(), runs.arena.len()), (0, 0, 0));
    }

    #[test]
    fn a_bulk_build_counts_then_fills_at_exact_size() {
        let pairs = [(3, 10u32), (4, 20), (3, 11), (5, 30), (3, 12), (4, 21)];
        let runs = Runs::from_entries(|| pairs.iter().copied());
        // Each run holds its key's entries in the walk's order.
        assert_eq!(runs.get(3), Some(&[10, 11, 12][..]));
        assert_eq!(runs.get(4), Some(&[20, 21][..]));
        assert_eq!(runs.get(5), Some(&[30][..]));
        assert_eq!((runs.key_count(), runs.entry_count()), (3, 6));
        // No dead slot, no spare one: every run reserves its length and
        // the arena holds exactly the entries.
        assert_eq!((runs.arena.len(), runs.arena.capacity(), runs.dead), (6, 6, 0));
        assert!(runs.dir.iter().all(|(_, run)| run.cap == run.len));
        // Shrinking frees nothing more.
        let bytes = runs.heap_bytes();
        let mut shrunk = runs.clone();
        shrunk.shrink_to_fit();
        assert_eq!(shrunk.heap_bytes(), bytes);
        assert_eq!(shrunk.get(3), runs.get(3));
        // An empty walk builds empty runs holding no heap.
        let empty = Runs::<u32>::from_entries(std::iter::empty);
        assert_eq!((empty.key_count(), empty.entry_count(), empty.heap_bytes()), (0, 0, 0));
        // A built run grows like any other.
        let mut runs = runs;
        push(&mut runs, 5, 31);
        assert_eq!(runs.get(5), Some(&[30, 31][..]));
    }

    #[test]
    fn shrink_packs_every_run_at_its_length() {
        let mut runs: Runs<u32> = Runs::default();
        for x in 0..5 {
            runs.insert_with(3, x, <[u32]>::len);
            runs.insert_with(4, x, |_| 0);
        }
        runs.shrink_to_fit();
        assert_eq!((runs.arena.len(), runs.arena.capacity(), runs.dead), (10, 10, 0));
        assert_eq!(runs.get(4), Some(&[4, 3, 2, 1, 0][..]));
        assert_eq!(runs.get(3), Some(&[0, 1, 2, 3, 4][..]));
        // A removal that finds nothing changes nothing.
        assert!(!runs.remove_with(3, |_| None));
        assert_eq!(runs.key_count(), 2);
    }
}
