//! The flat multimap under the FK runs ([`sizel_storage::runs::Runs`])
//! against a `BTreeMap<i64, Vec<E>>` model.
//!
//! Generated streams of insert-at, push, remove (by position and by
//! value), remove-key, compact and shrink run on a handful of keys, so
//! runs fill, move to the arena's tail, grow where they end it, empty,
//! leave the directory and come back, and the arena repacks whenever
//! dead slots outnumber live entries. After every operation the key set,
//! every key's slice, the key and entry counts and the iterated set must
//! equal the model's.

use std::collections::BTreeMap;

use proptest::prelude::*;

use sizel_storage::runs::Runs;

const N_KEYS: i64 = 5;

/// The model: each key's entries.
type Model = BTreeMap<i64, Vec<u32>>;

/// `(kind, key, position or value)`.
type Op = (u8, i64, u32);

fn op() -> impl Strategy<Value = Op> {
    (0u8..12, 0..N_KEYS, 0u32..64)
}

/// Drops `key` from the model when it holds nothing, as `Runs` does
/// after a removal.
fn drop_if_empty(model: &mut Model, key: i64) {
    if model.get(&key).is_some_and(Vec::is_empty) {
        model.remove(&key);
    }
}

fn apply(runs: &mut Runs<u32>, model: &mut Model, &(kind, key, x): &Op) {
    match kind {
        // Pushes dominate, so runs outgrow their capacity again and again.
        0..=4 => {
            runs.insert_with(key, x, <[u32]>::len);
            model.entry(key).or_default().push(x);
        }
        5 | 6 => {
            runs.insert_with(key, x, |entries| x as usize % (entries.len() + 1));
            let entries = model.entry(key).or_default();
            entries.insert(x as usize % (entries.len() + 1), x);
        }
        7 | 8 => {
            let removed = runs.remove_with(key, |entries| {
                (!entries.is_empty()).then(|| x as usize % entries.len())
            });
            let expected = model.get_mut(&key).is_some_and(|entries| {
                let hit = !entries.is_empty();
                if hit {
                    entries.remove(x as usize % entries.len());
                }
                hit
            });
            assert_eq!(removed, expected);
            drop_if_empty(model, key);
        }
        9 => {
            let removed = runs.remove_with(key, |entries| entries.iter().position(|&e| e == x));
            let expected = model.get_mut(&key).is_some_and(|entries| {
                let at = entries.iter().position(|&e| e == x);
                at.map(|at| entries.remove(at)).is_some()
            });
            assert_eq!(removed, expected);
            drop_if_empty(model, key);
        }
        10 => assert_eq!(runs.remove_key(key), model.remove(&key).is_some()),
        _ if x % 2 == 0 => runs.compact(),
        _ => runs.shrink_to_fit(),
    }
}

fn check(runs: &Runs<u32>, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(runs.key_count(), model.len());
    prop_assert_eq!(runs.entry_count(), model.values().map(Vec::len).sum::<usize>());
    for key in -1..=N_KEYS {
        prop_assert_eq!(runs.get(key), model.get(&key).map(Vec::as_slice));
    }
    let iterated: Model = runs.iter().map(|(k, entries)| (k, entries.to_vec())).collect();
    prop_assert_eq!(runs.iter().count(), model.len());
    prop_assert_eq!(&iterated, model);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_read_agrees_with_the_map_model(ops in proptest::collection::vec(op(), 1..400)) {
        let mut runs = Runs::default();
        let mut model = Model::new();
        for o in &ops {
            apply(&mut runs, &mut model, o);
            check(&runs, &model)?;
        }
        // A copy reads the same, and so does a sorted copy, sorted
        // where it lies.
        let mut copy = runs.clone();
        check(&copy, &model)?;
        copy.for_each_run_mut(|entries| entries.sort_unstable());
        model.values_mut().for_each(|entries| entries.sort_unstable());
        check(&copy, &model)?;
    }
}

/// One scripted stream through every boundary the generated ones cross
/// by chance: a run growing at the arena's tail, a run moved off the
/// middle, a key emptied and re-added, enough dead slots to repack, and
/// a shrink — with the bytes the arena holds falling where it repacks.
#[test]
fn a_scripted_stream_crosses_every_boundary() {
    let mut runs = Runs::default();
    let mut model = Model::new();
    let mut ops: Vec<Op> = Vec::new();
    // Key 0 grows alone at the tail, then keys 1 and 2 interleave so
    // each full run moves past the other.
    ops.extend((0..9).map(|i| (0, 0, i)));
    ops.extend((0..24).map(|i| (0, 1 + i64::from(i % 2), i)));
    // Key 1 empties entry by entry and leaves; key 0 is dropped whole.
    ops.extend((0..12).map(|_| (7, 1, 0)));
    ops.push((10, 0, 0));
    // Both come back.
    ops.extend([(0, 1, 99), (0, 0, 7)]);
    for o in &ops {
        apply(&mut runs, &mut model, o);
        check(&runs, &model).unwrap();
    }
    assert_eq!(model.len(), 3);
    let before = runs.heap_bytes();
    runs.shrink_to_fit();
    check(&runs, &model).unwrap();
    assert!(runs.heap_bytes() < before, "shrink releases slack: {before} -> {}", runs.heap_bytes());
}
