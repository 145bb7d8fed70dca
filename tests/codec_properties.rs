//! Property suite for the mutation-batch codec (ROADMAP 5c): one layout
//! carries a batch to the WAL (`durability::{encode_batch,
//! decode_batch}`) and to the wire (`wire::{encode_apply_payload,
//! decode_request}`), so both are checked here, over generated batches,
//! for `decode(encode(x)) == x`; over truncated, corrupted and arbitrary
//! bytes, for a typed error — never a panic, and never an allocation
//! sized by a length the input only *claims*.
//!
//! A counting allocator is installed for this test binary; the peak it
//! records is thread-local, so the harness's parallel test threads do
//! not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::collection::vec;
use proptest::prelude::*;

use sizel_core::durability::{decode_batch, encode_batch};
use sizel_core::engine::{Mutation, MutationOp};
use sizel_net::frame::Opcode;
use sizel_net::wire::{decode_request, encode_apply_payload, Request};
use sizel_storage::Value;

struct PeakAllocator;

thread_local! {
    /// The largest single allocation this thread requested since the
    /// last reset.
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    PEAK.with(|p| p.set(p.get().max(size)));
}

// SAFETY: delegates every operation to `System`; the bookkeeping is a
// const-initialised thread-local `Cell` with no destructor, so it neither
// allocates nor runs during thread teardown.
unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: PeakAllocator = PeakAllocator;

/// Runs `decode` over `bytes` and checks that no single allocation it
/// made could have been sized by a lying length field: a decoder that
/// validates counts against the remaining input before reserving holds
/// at most two elements per input byte (vector doubling), plus slack for
/// an error message.
fn decode_bounded<T>(bytes: &[u8], decode: impl FnOnce(&[u8]) -> T) -> T {
    let elem = std::mem::size_of::<Mutation>().max(std::mem::size_of::<Value>());
    PEAK.with(|p| p.set(0));
    let out = decode(bytes);
    let peak = PEAK.with(Cell::get);
    assert!(
        peak <= 2 * elem * bytes.len() + 512,
        "decoding {} bytes allocated {peak} at once",
        bytes.len()
    );
    out
}

fn wire_batch(payload: &[u8]) -> Result<Vec<Mutation>, sizel_net::WireError> {
    match decode_request(Opcode::ApplyBatch, payload)? {
        Request::ApplyBatch { mutations } => Ok(mutations),
        other => panic!("ApplyBatch decoded to {other:?}"),
    }
}

/// `==`, with floats compared by bit pattern (`NaN != NaN` otherwise).
fn same_values(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|pair| match pair {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (x, y) => x == y,
        })
}

fn same_batch(a: &[Mutation], b: &[Mutation]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(a, b)| {
            a.table == b.table
                && a.policy == b.policy
                && match (&a.op, &b.op) {
                    (MutationOp::Insert { values: x }, MutationOp::Insert { values: y }) => {
                        same_values(x, y)
                    }
                    (
                        MutationOp::Update { pk: p, values: x },
                        MutationOp::Update { pk: q, values: y },
                    ) => p == q && same_values(x, y),
                    (MutationOp::Delete { pk: p }, MutationOp::Delete { pk: q }) => p == q,
                    _ => false,
                }
        })
}

/// Every value kind, with the floats `==` and a lossy codec would get
/// wrong (NaN payloads, both zeros) and the empty text.
fn value() -> impl Strategy<Value = Value> {
    (0u8..8, any::<i64>(), any::<u64>(), vec(any::<u8>(), 0..12)).prop_map(
        |(kind, int, bits, text)| match kind {
            0 => Value::Null,
            1 => Value::Int(int),
            2 => Value::Float(f64::from_bits(bits)),
            3 => Value::Float(f64::NAN),
            4 => Value::Float(if int < 0 { -0.0 } else { 0.0 }),
            5 => Value::Text(String::new()),
            _ => Value::Text(String::from_utf8_lossy(&text).into_owned()),
        },
    )
}

/// All three ops under both policies. With `oversize`, about one
/// mutation in sixteen carries a table name or a row past 65 535 — the
/// lengths a 16-bit field cannot hold.
fn mutation(oversize: bool) -> impl Strategy<Value = Mutation> {
    (0u8..3, any::<bool>(), 0u32..32, any::<i64>(), vec(value(), 0..6)).prop_map(
        move |(op, exact, shape, pk, mut values)| {
            let mut table = format!("T{}", shape % 4);
            match shape {
                30 if oversize => table = "x".repeat(65_536 + pk.unsigned_abs() as usize % 9_000),
                31 if oversize => values.resize(65_536 + values.len(), Value::Null),
                _ => {}
            }
            let m = match op {
                0 => Mutation::insert(table, values),
                1 => Mutation::update(table, pk, values),
                _ => Mutation::delete(table, pk),
            };
            if exact {
                m.exact()
            } else {
                m
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_batch_round_trips_through_the_wal_and_the_wire(
        epoch in any::<u64>(),
        ms in vec(mutation(true), 0..8),
    ) {
        let record = encode_batch(epoch, &ms);
        let (e, back) = decode_bounded(&record, decode_batch).expect("a written record reads back");
        prop_assert_eq!(e, epoch);
        prop_assert!(same_batch(&back, &ms), "WAL round trip changed the batch");

        let payload = encode_apply_payload(&ms);
        let back = decode_bounded(&payload, wire_batch).expect("an encoded payload decodes");
        prop_assert!(same_batch(&back, &ms), "wire round trip changed the batch");

        // One codec: the record is the epoch and then the wire's bytes, so
        // whatever the front-end accepted, recovery can read.
        prop_assert!(record[8..] == payload[..]);
    }

    #[test]
    fn every_truncation_of_a_valid_record_is_an_error(
        epoch in any::<u64>(),
        ms in vec(mutation(false), 0..5),
    ) {
        let record = encode_batch(epoch, &ms);
        for cut in 0..record.len() {
            prop_assert!(decode_bounded(&record[..cut], decode_batch).is_err(), "record cut at {cut}");
        }
        let payload = encode_apply_payload(&ms);
        for cut in 0..payload.len() {
            prop_assert!(decode_bounded(&payload[..cut], wire_batch).is_err(), "payload cut at {cut}");
        }
    }

    #[test]
    fn corrupted_and_arbitrary_bytes_decode_to_a_value_or_an_error(
        ms in vec(mutation(false), 1..5),
        at in any::<usize>(),
        byte in any::<u8>(),
        noise in vec(any::<u8>(), 0..64),
    ) {
        // One overwritten byte in a valid record — often a length or a
        // count, now lying — and plain noise. Whatever still decodes is
        // in canonical form: it re-encodes to the bytes it came from.
        let mut record = encode_batch(7, &ms);
        let at = at % record.len();
        record[at] = byte;
        for bytes in [&record, &noise] {
            if let Ok((e, back)) = decode_bounded(bytes, decode_batch) {
                prop_assert!(encode_batch(e, &back) == *bytes);
            }
            if let Ok(back) = decode_bounded(bytes, wire_batch) {
                prop_assert!(encode_apply_payload(&back) == *bytes);
            }
        }
    }
}

#[test]
fn a_count_of_u32_max_reserves_nothing() {
    // The sharpest form of the allocation bound: four bytes claiming four
    // billion mutations, and a row claiming four billion values.
    let mut lying = 0u64.to_le_bytes().to_vec();
    lying.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(decode_bounded(&lying, decode_batch).is_err());
    assert!(decode_bounded(&lying[8..], wire_batch).is_err());

    let mut row = encode_apply_payload(&[Mutation::insert("T", vec![Value::Null])]);
    let n_values = row.len() - 5;
    row[n_values..n_values + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(decode_bounded(&row, wire_batch).is_err());
}
