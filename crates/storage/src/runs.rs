//! Flat multimaps for a table's FK runs (its groups and sorted postings
//! at once) and its link postings: one key directory and one arena, each
//! key's entries one run of it. A full run moves to the tail at `GROWTH`
//! times its size; once dead slots outnumber live entries one pass
//! repacks the arena.

use crate::hash::{map_bytes, IntMap};

/// A full run moves to the tail at this many times its capacity.
const GROWTH: u32 = 2;

/// A directory value: where the key's entries lie,
/// `arena[start..start + len]` inside the `cap` slots it reserves, and
/// the key's extra.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Run<R> {
    start: u32,
    len: u32,
    cap: u32,
    extra: R,
}

impl<R> Run<R> {
    fn entries(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("a posting arena holds fewer than 2^32 slots")
}

/// A multimap from `i64` keys to runs of `E`, each key carrying an extra
/// `R` (nothing for FK groups, the raw junction group size for links). A
/// key is present from its first insert until [`Runs::remove_key`], or
/// until a removal leaves it with no entry and a default extra.
#[derive(Clone, Debug)]
pub struct Runs<E, R = ()> {
    dir: IntMap<Run<R>>,
    arena: Vec<E>,
    /// Entries across every run.
    live: usize,
    /// Arena slots no run reserves.
    dead: usize,
}

impl<E, R> Default for Runs<E, R> {
    fn default() -> Self {
        Runs { dir: IntMap::default(), arena: Vec::new(), live: 0, dead: 0 }
    }
}

impl<E: Copy, R: Copy + Default + PartialEq> Runs<E, R> {
    /// An empty multimap sized for `keys` keys and `entries` entries.
    pub(crate) fn with_capacity(keys: usize, entries: usize) -> Self {
        let dir = IntMap::with_capacity_and_hasher(keys, Default::default());
        Runs { dir, arena: Vec::with_capacity(entries), live: 0, dead: 0 }
    }

    /// `key`'s entries and extra, or `None` for an absent key.
    pub fn get(&self, key: i64) -> Option<(&[E], R)> {
        self.dir.get(&key).map(|run| (&self.arena[run.entries()], run.extra))
    }

    /// `key`'s entries, writable where they lie, or `None` for an absent key.
    pub fn get_mut(&mut self, key: i64) -> Option<&mut [E]> {
        let run = self.dir.get(&key)?;
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

    /// Every key with its entries and extra, in directory (hash) order.
    pub fn iter(&self) -> impl Iterator<Item = (i64, &[E], R)> {
        self.dir.iter().map(|(&k, run)| (k, &self.arena[run.entries()], run.extra))
    }

    /// Inserts `entry` into `key`'s run at the index `at` picks from the
    /// run's entries (`0..=len`), creating the key when absent.
    pub fn insert_with(&mut self, key: i64, entry: E, at: impl FnOnce(&[E]) -> usize) {
        let tail = offset(self.arena.len());
        let run = Self::run(&mut self.dir, key, tail);
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
    /// one was; a key left with no entry and a default extra is dropped.
    pub fn remove_with(&mut self, key: i64, find: impl FnOnce(&[E]) -> Option<usize>) -> bool {
        let Some(run) = self.dir.get_mut(&key) else { return false };
        let entries = &mut self.arena[run.entries()];
        let Some(at) = find(entries) else { return false };
        entries.copy_within(at + 1.., at);
        run.len -= 1;
        self.live -= 1;
        if run.len == 0 && run.extra == R::default() {
            self.remove_key(key);
        }
        true
    }

    /// Drops `key` with its run and extra; returns whether it was present.
    pub fn remove_key(&mut self, key: i64) -> bool {
        let Some(run) = self.dir.remove(&key) else { return false };
        self.live -= run.len as usize;
        self.dead += run.cap as usize;
        self.compact_if_sparse();
        true
    }

    /// `key`'s extra, creating the key with an empty run when absent.
    pub fn extra_mut(&mut self, key: i64) -> &mut R {
        &mut Self::run(&mut self.dir, key, offset(self.arena.len())).extra
    }

    /// Appends a run for the absent `key` whose entries `fill` pushes.
    pub(crate) fn push_run(&mut self, key: i64, extra: R, fill: impl FnOnce(&mut Vec<E>)) {
        let start = offset(self.arena.len());
        fill(&mut self.arena);
        let len = offset(self.arena.len()) - start;
        self.dir.insert(key, Run { start, len, cap: len, extra });
        self.live += len as usize;
    }

    /// Calls `f` on every key's entries, where they lie.
    pub fn for_each_run_mut(&mut self, mut f: impl FnMut(&mut [E])) {
        for run in self.dir.values() {
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
        self.repack(true);
        self.dir.shrink_to_fit();
    }

    /// Heap bytes held, from the directory's and the arena's capacities.
    pub fn heap_bytes(&self) -> usize {
        map_bytes(&self.dir) + self.arena.capacity() * std::mem::size_of::<E>()
    }

    /// `key`'s run, created empty at `tail` when absent.
    fn run(dir: &mut IntMap<Run<R>>, key: i64, tail: u32) -> &mut Run<R> {
        dir.entry(key).or_insert(Run { start: tail, len: 0, cap: 0, extra: R::default() })
    }

    fn compact_if_sparse(&mut self) {
        if self.dead > self.live {
            self.compact();
        }
    }

    fn repack(&mut self, exact: bool) {
        let mut arena =
            Vec::with_capacity(if exact { self.live } else { self.arena.len() - self.dead });
        for run in self.dir.values_mut() {
            run.cap = if exact { run.len } else { run.cap };
            let start = offset(arena.len());
            arena
                .extend_from_slice(&self.arena[run.start as usize..(run.start + run.cap) as usize]);
            run.start = start;
        }
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
        assert_eq!(runs.dir[&7], Run { start: 0, len: 4, cap: 4, extra: () });
        push(&mut runs, 7, 4);
        // Full and no longer last: it moved to the tail at twice its
        // capacity, its four old slots dead.
        assert_eq!(runs.dir[&7], Run { start: 5, len: 5, cap: 8, extra: () });
        assert_eq!((runs.arena.len(), runs.dead, runs.live), (13, 4, 6));
        assert_eq!(runs.get(7), Some((&[0, 1, 2, 3, 4][..], ())));
        assert_eq!(runs.get(8), Some((&[10][..], ())));
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
        assert_eq!(runs.arena.len(), runs.dir[&2].cap as usize);
        assert_eq!(runs.get(2), Some((&[0, 1, 2, 3][..], ())));
        // A removal that empties a key drops it.
        for _ in 0..4 {
            assert!(runs.remove_with(2, |e| e.first().map(|_| 0)));
        }
        assert_eq!((runs.key_count(), runs.entry_count(), runs.arena.len()), (0, 0, 0));
    }

    #[test]
    fn shrink_packs_every_run_at_its_length() {
        let mut runs: Runs<u32, u8> = Runs::default();
        for x in 0..5 {
            runs.insert_with(3, x, <[u32]>::len);
            runs.insert_with(4, x, |_| 0);
        }
        *runs.extra_mut(9) = 1;
        runs.shrink_to_fit();
        assert_eq!((runs.arena.len(), runs.arena.capacity(), runs.dead), (10, 10, 0));
        assert_eq!(runs.get(4), Some((&[4, 3, 2, 1, 0][..], 0)));
        assert_eq!(runs.get(9), Some((&[][..], 1)));
        // An empty run keeps its key while its extra is set.
        assert!(!runs.remove_with(9, |_| None));
        assert_eq!(runs.key_count(), 3);
    }
}
