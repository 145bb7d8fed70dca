//! The hasher under every integer-keyed index of this crate, and the
//! primary-key index it places rows in ([`PkSlots`]).
//!
//! Primary keys and FK values are `i64`s, and every tuple access the
//! paper prices — a `by_pk` probe, an FK group, a posting list — as well
//! as every step of loading and deriving starts with hashing one.
//! [`IntHasher`] is one folded 128-bit multiply per integer written (the
//! mixer of foldhash and wyhash) where std's default is a SipHash-1-3.
//!
//! It is keyed, by a seed drawn from std's `RandomState` once per
//! process, and not cryptographic; DESIGN.md §5 "Hashing" states what
//! that does and does not defend against (keys reach these maps from the
//! wire, inside `ApplyBatch`), and the tests below pin it. String keys,
//! and keys a client composes, stay on SipHash.
//!
//! The seed is per process, not per map, on purpose: the link build fills
//! a directory sized like its source in the source's iteration order,
//! which under one seed walks both in the same bucket order. Iteration
//! order was unspecified under `RandomState` and still is — nothing may
//! depend on it, and the segment writer sorts.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::OnceLock;

/// A `HashMap` keyed by primary-key / FK values under [`IntHasher`].
pub type IntMap<V> = HashMap<i64, V, IntBuildHasher>;

/// Heap bytes an [`IntMap`] holds: a bucket and a control byte per 7/8 slot.
pub(crate) fn map_bytes<V>(map: &IntMap<V>) -> usize {
    map.capacity() * 8 / 7 * (std::mem::size_of::<(i64, V)>() + 1)
}

/// An empty [`PkSlots`] slot.
const EMPTY: u32 = u32::MAX;

/// A table's primary-key index: its live rows' ids in an open-addressing
/// table, `EMPTY` where none. A key is not stored — `key_of` reads it
/// back from the PK column — so a slot is four bytes. Linear probing
/// from the slot the hash's low bits pick; the table doubles before an
/// insert would take it past 3/4 full, and a removal shifts the rest of
/// its probe run back, so no slot is ever a tombstone.
#[derive(Debug, Default)]
pub(crate) struct PkSlots {
    slots: Vec<u32>,
    len: usize,
    hasher: IntBuildHasher,
}

/// The power-of-two slot count, at least 8, holding `len` rows ≤ 3/4 full.
fn slots_for(len: usize) -> usize {
    (len * 4).div_ceil(3).next_power_of_two().max(8)
}

impl PkSlots {
    fn home(&self, key: i64) -> usize {
        self.hasher.hash_one(key) as usize & self.slots.len().wrapping_sub(1)
    }

    /// Like `binary_search`: `Ok` with the slot holding `key`'s row, or
    /// `Err` with the empty slot that ends its probe run (any index when
    /// the table has no slot).
    fn find(&self, key: i64, key_of: &impl Fn(u32) -> i64) -> Result<usize, usize> {
        let mask = self.slots.len().wrapping_sub(1);
        let mut i = self.home(key);
        while let Some(&row) = self.slots.get(i).filter(|&&row| row != EMPTY) {
            if key_of(row) == key {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
        Err(i)
    }

    /// The row posted under `key`.
    pub(crate) fn get(&self, key: i64, key_of: impl Fn(u32) -> i64) -> Option<u32> {
        self.find(key, &key_of).ok().map(|i| self.slots[i])
    }

    /// Posts `row` under `key` unless a row is posted there already;
    /// returns whether it did.
    pub(crate) fn insert(&mut self, key: i64, row: u32, key_of: impl Fn(u32) -> i64) -> bool {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.rehash(slots_for(self.len + 1), &key_of);
        }
        let Err(i) = self.find(key, &key_of) else { return false };
        self.slots[i] = row;
        self.len += 1;
        true
    }

    /// Un-posts `key`, returning its row. Every later entry of the probe
    /// run whose home slot does not lie between the hole and itself moves
    /// back into the hole, which then moves on to where it was.
    pub(crate) fn remove(&mut self, key: i64, key_of: impl Fn(u32) -> i64) -> Option<u32> {
        let mut hole = self.find(key, &key_of).ok()?;
        let row = self.slots[hole];
        let mask = self.slots.len() - 1;
        let mut next = hole;
        loop {
            next = (next + 1) & mask;
            let moved = self.slots[next];
            if moved == EMPTY {
                break;
            }
            let home = self.home(key_of(moved));
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.slots[hole] = moved;
                hole = next;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
        Some(row)
    }

    /// Re-posts every row into `n` slots.
    fn rehash(&mut self, n: usize, key_of: &impl Fn(u32) -> i64) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; n]);
        for row in old.into_iter().filter(|&row| row != EMPTY) {
            let mut i = self.home(key_of(row));
            while self.slots[i] != EMPTY {
                i = (i + 1) & (n - 1);
            }
            self.slots[i] = row;
        }
    }

    /// Sizes the table for its live rows.
    pub(crate) fn shrink_to_fit(&mut self, key_of: impl Fn(u32) -> i64) {
        if slots_for(self.len) < self.slots.len() {
            self.rehash(slots_for(self.len), &key_of);
        }
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u32>()
    }
}

/// The multiplier of the fold. Which odd constant matters: bucket
/// spread over a family of keys varying in one bit window is the same
/// under every seed (the seed only permutes the family), and the usual
/// suspects are poor somewhere — the golden ratio's fraction leaves
/// `k << 32` at 0.18 of a random function's distinct bucket indexes.
/// This one was picked offline from 3 000 random odd constants as the
/// best worst case over every 16-bit window: 0.72.
const MULTIPLIER: u64 = 0xb7f6_8872_d267_b2c5;

/// Builds [`IntHasher`]s under the process seed.
#[derive(Clone, Copy, Debug)]
pub struct IntBuildHasher {
    seed: u64,
}

impl Default for IntBuildHasher {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        // A fresh `RandomState` carries the OS-seeded SipHash keys; the
        // hash of nothing under them is 64 bits a peer cannot predict.
        IntBuildHasher { seed: *SEED.get_or_init(|| RandomState::new().build_hasher().finish()) }
    }
}

impl BuildHasher for IntBuildHasher {
    type Hasher = IntHasher;

    fn build_hasher(&self) -> IntHasher {
        IntHasher::with_seed(self.seed)
    }
}

/// Keyed fold-multiply hasher for integer keys: each integer written is
/// xored into the state and the state replaced by the xor of the two
/// halves of its 128-bit product with a fixed odd multiplier. The high half
/// carries the key's high bits down into the bucket index (hashbrown's
/// low bits), the low half carries its low bits up into the control
/// byte (the top seven) — a single 64-bit multiply does only the latter.
#[derive(Clone, Copy, Debug)]
pub struct IntHasher {
    state: u64,
}

impl IntHasher {
    /// A hasher under an explicit seed; maps take theirs from
    /// [`IntBuildHasher`], tests sweep it.
    pub(crate) fn with_seed(seed: u64) -> IntHasher {
        IntHasher { state: seed }
    }

    #[inline]
    fn fold(&mut self, x: u64) {
        let r = u128::from(self.state ^ x) * u128::from(MULTIPLIER);
        self.state = (r as u64) ^ (r >> 64) as u64;
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    /// Byte strings are not this hasher's job, but the trait is total:
    /// eight bytes a fold, then the length.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
        self.fold(bytes.len() as u64);
    }

    /// An `i64` key lands here through the trait's `write_i64`.
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.fold(x);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.fold(u64::from(x));
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.fold(u64::from(x));
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.fold(x as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_with(seed: u64, key: u64) -> u64 {
        let mut h = IntHasher::with_seed(seed);
        h.write_i64(key as i64);
        h.finish()
    }

    /// How a key family spreads under `seed`: the distinct values the low
    /// 16 bits of its hashes take (a bucket index), as a fraction of what
    /// a random function gives for that many keys, and whether the top 7
    /// bits (hashbrown's control byte) take all 128 values.
    fn spread(seed: u64, family: impl Fn(u64) -> u64) -> (f64, bool) {
        // Against the family's own size: a shift can push the counter's
        // top bits out of the word.
        let mut keys: Vec<u64> = (0..1 << 16).map(family).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut low = vec![false; 1 << 16];
        let mut top = [false; 128];
        for &key in &keys {
            let h = hash_with(seed, key);
            low[(h & 0xffff) as usize] = true;
            top[(h >> 57) as usize] = true;
        }
        let distinct = low.iter().filter(|&&b| b).count() as f64;
        let random = 65_536.0 * (1.0 - (-(keys.len() as f64) / 65_536.0).exp());
        (distinct / random, top.iter().all(|&b| b))
    }

    /// The two structured seeds first (zero, all ones), then mixed ones.
    fn seeds(n: u64) -> impl Iterator<Item = u64> {
        let mut rng = IntHasher::with_seed(0x5eed);
        (0..n).map(move |round| match round {
            0 => 0,
            1 => u64::MAX,
            _ => {
                rng.write_u64(round);
                rng.finish()
            }
        })
    }

    type Family = (&'static str, fn(u64) -> u64);

    /// Key families an identity hash, or one 64-bit multiply, collapses.
    const FAMILIES: [Family; 8] = [
        ("k", |k| k),
        ("k << 16", |k| k << 16),
        ("k << 32", |k| k << 32),
        ("k << 48", |k| k << 48),
        // Low word clear, a constant in the middle, the counter on
        // top: only the key's top 12 bits vary.
        ("(0xabcde + (k << 20)) << 32", |k| (0xabcde + (k << 20)) << 32),
        ("(1 + (k << 20)) << 32", |k| (1 + (k << 20)) << 32),
        // Multiples of a table's bucket count: under an identity
        // hash, one bucket.
        ("k * 2^10", |k| k << 10),
        ("k * 2^17", |k| k << 17),
    ];

    /// The flooding guard: primary keys arrive from the wire, so no key
    /// family may collide whatever the seed. Over 65 536 keys a random
    /// function fills 63 % of the 65 536 bucket indexes; each family
    /// below must fill at least 60 % (0.95 of random) and take every
    /// control byte. An identity hasher, or one 64-bit multiply, fails
    /// the shifted families: its low hash bits never see the key's high
    /// bits.
    #[test]
    fn no_key_family_collides_under_any_seed() {
        for seed in seeds(64) {
            for (name, family) in FAMILIES {
                let (of_random, every_control_byte) = spread(seed, family);
                assert!(
                    of_random >= 0.95,
                    "seed {seed:#x}, family `{name}`: {of_random:.3} of a random function's \
                     distinct low-16 values"
                );
                assert!(every_control_byte, "seed {seed:#x}, family `{name}`: control bytes");
            }
        }
    }

    /// The longest probe a lookup of a posted row makes: its greatest
    /// distance from its home slot, plus one.
    fn longest_probe(pk: &PkSlots, keys: &[i64]) -> usize {
        let mask = pk.slots.len() - 1;
        let probes = pk.slots.iter().enumerate().filter(|&(_, &row)| row != EMPTY);
        probes
            .map(|(i, &row)| (i.wrapping_sub(pk.home(keys[row as usize])) & mask) + 1)
            .max()
            .unwrap_or(0)
    }

    /// Linear probing clusters where hashbrown's control bytes did not,
    /// so the PK slot index answers to a probe bound of its own. Over
    /// 65 536 keys of every family above plus negatives and the two ends
    /// of `i64`, under every seed: at the 3/4 maximum load — each time
    /// the table is about to double — and after every other key is
    /// removed again (backward shifts), no lookup probes more than
    /// `PROBE_BOUND` slots, and every key resolves to its own row.
    ///
    /// The bound is what linear probing costs at 3/4 load, not slack for
    /// a weak hash: a random function's longest probe over 49 152 keys in
    /// 65 536 slots lies between about 90 and 240 (simulated); under the
    /// first eight seeds the families here reach 237 (dense `k`), 196
    /// (`-1 - k`) and 104 (the `i64` ends) at worst, and 237 over 64
    /// seeds, the mean probe staying near 2.5.
    #[test]
    fn pk_slot_probe_runs_stay_short_for_every_key_family() {
        const PROBE_BOUND: usize = 256;
        let hostile: [Family; 2] = [
            ("-1 - k", |k| !k),
            (
                "i64 ends",
                |k| if k % 2 == 0 { (k / 2) | (1 << 63) } else { i64::MAX as u64 - k / 2 },
            ),
        ];
        for seed in seeds(8) {
            for (name, family) in FAMILIES.into_iter().chain(hostile) {
                let mut keys: Vec<i64> = (0..1 << 16).map(|k| family(k) as i64).collect();
                keys.sort_unstable();
                keys.dedup();
                let key_of = |row: u32| keys[row as usize];
                let mut pk = PkSlots { hasher: IntBuildHasher { seed }, ..PkSlots::default() };
                let mut worst = 0;
                for (row, &key) in keys.iter().enumerate() {
                    if pk.len > 0 && (pk.len + 1) * 4 > pk.slots.len() * 3 {
                        worst = worst.max(longest_probe(&pk, &keys));
                    }
                    assert!(pk.insert(key, row as u32, key_of));
                }
                for &key in keys.iter().step_by(2) {
                    assert!(pk.remove(key, key_of).is_some());
                }
                worst = worst.max(longest_probe(&pk, &keys));
                for (row, &key) in keys.iter().enumerate() {
                    let expect = (row % 2 == 1).then_some(row as u32);
                    assert_eq!(pk.get(key, key_of), expect, "seed {seed:#x}, `{name}`: key {key}");
                }
                assert!(
                    worst <= PROBE_BOUND,
                    "seed {seed:#x}, family `{name}`: a lookup probes {worst} slots"
                );
            }
        }
    }

    /// The bound DESIGN.md §5 states for what one multiply cannot do:
    /// over *every* 16-bit window of the key, plain and strided, bucket
    /// spread stays above half a random function's (0.72 measured).
    #[test]
    fn every_key_window_keeps_half_a_random_spread() {
        for seed in seeds(3) {
            for stride in [1u64, 3, 7, 0xabcdf] {
                for shift in 0..=48 {
                    let (of_random, every_control_byte) =
                        spread(seed, |k| k.wrapping_mul(stride) << shift);
                    assert!(
                        of_random >= 0.5 && every_control_byte,
                        "seed {seed:#x}, keys (k * {stride:#x}) << {shift}: {of_random:.3} of \
                         random, every control byte: {every_control_byte}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_seed_keys_the_hash() {
        // Two seeds disagree on (almost) every key; one seed is a
        // function.
        let differing = (0..1000u64).filter(|&k| hash_with(1, k) != hash_with(2, k)).count();
        assert!(differing >= 999);
        assert_eq!(hash_with(7, 42), hash_with(7, 42));
    }

    #[test]
    fn maps_share_the_process_seed() {
        let (a, b) = (IntBuildHasher::default(), IntBuildHasher::default());
        assert_eq!(a.hash_one(12345i64), b.hash_one(12345i64));
        let mut m: IntMap<&str> = IntMap::default();
        m.insert(-1, "a");
        m.insert(i64::MAX, "b");
        assert_eq!(m.get(&-1), Some(&"a"));
        assert_eq!(m.get(&i64::MAX), Some(&"b"));
        assert_eq!(m.get(&0), None);
    }

    #[test]
    fn byte_strings_hash_by_content_and_length() {
        let of = |bytes: &[u8]| {
            let mut h = IntHasher::with_seed(3);
            h.write(bytes);
            h.finish()
        };
        assert_ne!(of(b"abc"), of(b"abd"));
        assert_ne!(of(b"abc\0"), of(b"abc"), "zero padding is not content");
        assert_eq!(of(b"0123456789"), of(b"0123456789"));
    }
}
