//! Property suite for the wire's payload codecs. One layout carries a
//! mutation batch to the WAL (`durability::{encode_batch,
//! decode_batch}`) and to the wire (`wire::{encode_apply_payload,
//! decode_request}`); the read path carries `Query` / `Summarize`
//! requests and `Results` / `Summary` replies. Each is checked here, over
//! generated values, for `decode(encode(x)) == x`; over truncated,
//! corrupted and arbitrary bytes, for a typed error or canonical bytes —
//! never a panic, and never an allocation sized by a length the input
//! only *claims*.
//!
//! A counting allocator is installed for this test binary; the peak it
//! records is thread-local, so the harness's parallel test threads do
//! not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::collection::vec;
use proptest::prelude::*;

use sizel_core::algo::{AlgoKind, SizeLResult};
use sizel_core::durability::{decode_batch, encode_batch};
use sizel_core::engine::{Mutation, MutationOp, QueryOptions, QueryResult, ResultRanking};
use sizel_core::os::{Os, OsNodeId};
use sizel_core::osgen::OsSource;
use sizel_net::frame::Opcode;
use sizel_net::wire::{
    decode_reply, decode_request, encode_apply_payload, encode_query_payload,
    encode_results_payload, encode_summarize_payload, encode_summary_payload, Reply, Request,
    WireResult,
};
use sizel_storage::codec::{put_f64, put_str, put_u16, put_u32, put_u64, put_u8};
use sizel_storage::{Epoch, RowId, TableId, TupleRef, Value};

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
    bounded_by(elem, bytes, decode)
}

/// [`decode_bounded`] for the read path, whose elements are requests and
/// results.
fn read_bounded<T>(bytes: &[u8], decode: impl FnOnce(&[u8]) -> T) -> T {
    let elem = std::mem::size_of::<WireResult>().max(std::mem::size_of::<(String, QueryOptions)>());
    bounded_by(elem, bytes, decode)
}

/// At most two `elem`-byte elements allocated at once per input byte.
fn bounded_by<T>(elem: usize, bytes: &[u8], decode: impl FnOnce(&[u8]) -> T) -> T {
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

/// Every algorithm, source, prelim flag and ranking, with `l` across the
/// valid `u32` range — 1 and `u32::MAX` often. (`l = 0` is no request:
/// the decoder rejects it, which `read_requests_and_replies_round_trip`
/// checks beside each round trip.)
fn options() -> impl Strategy<Value = QueryOptions> {
    (0u8..5, any::<bool>(), any::<bool>(), any::<bool>(), 0u8..3, any::<u32>()).prop_map(
        |(algo, db, prelim, by_summary, edge, l)| QueryOptions {
            l: [1, u32::MAX, l.max(1)][edge as usize] as usize,
            algo: [
                AlgoKind::Optimal,
                AlgoKind::OptimalNaive,
                AlgoKind::BottomUp,
                AlgoKind::TopPath,
                AlgoKind::TopPathOpt,
            ][algo as usize],
            source: if db { OsSource::Database } else { OsSource::DataGraph },
            prelim,
            ranking: if by_summary {
                ResultRanking::SummaryImportance
            } else {
                ResultRanking::DsGlobalImportance
            },
        },
    )
}

fn tuple() -> impl Strategy<Value = TupleRef> {
    (any::<u16>(), any::<u32>()).prop_map(|(t, r)| TupleRef::new(TableId(t), RowId(r)))
}

fn text() -> impl Strategy<Value = String> {
    vec(any::<u8>(), 0..10).prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

/// A summary over a random tree: node `i`'s parent is below `i`, so the
/// first `k` nodes are connected and make the selection.
fn result() -> impl Strategy<Value = QueryResult> {
    let tree = vec((any::<u32>(), any::<u64>()), 1..12);
    (tuple(), text(), any::<u64>(), any::<u32>(), tree, any::<usize>()).prop_map(
        |(tds, ds_label, global, input, tree, k)| {
            let parents: Vec<Option<usize>> =
                (0..tree.len()).map(|i| (i > 0).then(|| tree[i].0 as usize % i)).collect();
            let weights: Vec<f64> = tree.iter().map(|&(_, w)| f64::from_bits(w)).collect();
            let os = Os::synthetic(&parents, &weights);
            let selected: Vec<OsNodeId> =
                (0..=k % tree.len()).map(|i| OsNodeId(i as u32)).collect();
            let summary = os.project(&selected);
            QueryResult {
                tds,
                ds_label: ds_label.into_boxed_str(),
                global_score: f64::from_bits(global),
                input_os_size: input as usize,
                importance: SizeLResult::from_selection(&os, selected).importance,
                summary,
            }
        },
    )
}

/// Whether the decoded `w` carries every field of `q`, floats by bits.
fn same_result(w: &WireResult, q: &QueryResult) -> bool {
    w.tds == q.tds
        && *w.ds_label == *q.ds_label
        && w.global_score.to_bits() == q.global_score.to_bits()
        && w.input_os_size == q.input_os_size
        && w.selected.iter().copied().eq(q.summary.selected().map(|n| n.0))
        && w.importance.to_bits() == q.importance.to_bits()
        && w.summary.len() == q.summary.len()
        && w.summary.iter().zip(q.summary.iter()).all(|(a, (_, b))| {
            a.tuple == b.tuple
                && a.gds_node == u32::from(b.gds_node.0)
                && a.parent == b.parent.map(|p| p.0)
                && a.depth == b.depth
                && a.weight.to_bits() == b.weight.to_bits()
        })
}

/// The reply layout written from decoded values: what a decode that
/// succeeds must have read, byte for byte.
fn put_wire_result(buf: &mut Vec<u8>, w: &WireResult) {
    let put_tuple = |buf: &mut Vec<u8>, t: TupleRef| {
        put_u16(buf, t.table.0);
        put_u32(buf, t.row.0);
    };
    put_tuple(buf, w.tds);
    put_str(buf, &w.ds_label);
    put_f64(buf, w.global_score);
    put_u32(buf, w.input_os_size as u32);
    put_u32(buf, w.selected.len() as u32);
    w.selected.iter().for_each(|&id| put_u32(buf, id));
    put_f64(buf, w.importance);
    put_u32(buf, w.summary.len() as u32);
    for n in &w.summary {
        put_tuple(buf, n.tuple);
        put_u32(buf, n.gds_node);
        match n.parent {
            None => put_u8(buf, 0),
            Some(p) => {
                put_u8(buf, 1);
                put_u32(buf, p);
            }
        }
        put_u32(buf, n.depth);
        put_f64(buf, n.weight);
    }
}

fn reencode_reply(reply: &Reply) -> Vec<u8> {
    let mut buf = Vec::new();
    match reply {
        Reply::Results { epoch, results } => {
            put_u64(&mut buf, *epoch);
            put_u32(&mut buf, results.len() as u32);
            for per_request in results {
                put_u32(&mut buf, per_request.len() as u32);
                per_request.iter().for_each(|w| put_wire_result(&mut buf, w));
            }
        }
        Reply::Summary { epoch, result } => {
            put_u64(&mut buf, *epoch);
            put_wire_result(&mut buf, result);
        }
        other => panic!("a read reply decoded to {other:?}"),
    }
    buf
}

fn reencode_request(request: &Request) -> Vec<u8> {
    match request {
        Request::Query { requests } => encode_query_payload(requests),
        Request::Summarize { tds, opts } => encode_summarize_payload(*tds, *opts),
        other => panic!("a read request decoded to {other:?}"),
    }
}

const READ_REQUESTS: [Opcode; 2] = [Opcode::Query, Opcode::Summarize];
const READ_REPLIES: [Opcode; 2] = [Opcode::Results, Opcode::Summary];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn read_requests_and_replies_round_trip(
        queries in vec((text(), options()), 0..5),
        tds in tuple(),
        opts in options(),
        epoch in any::<u64>(),
        results in vec(vec(result(), 0..3), 0..3),
    ) {
        let payload = encode_query_payload(&queries);
        match read_bounded(&payload, |b| decode_request(Opcode::Query, b)).expect("decodes") {
            Request::Query { requests } => prop_assert_eq!(requests, queries),
            other => panic!("Query decoded to {other:?}"),
        }
        let payload = encode_summarize_payload(tds, opts);
        match read_bounded(&payload, |b| decode_request(Opcode::Summarize, b)).expect("decodes") {
            Request::Summarize { tds: t, opts: o } => prop_assert_eq!((t, o), (tds, opts)),
            other => panic!("Summarize decoded to {other:?}"),
        }
        // The same requests asking for a size-0 summary are typed errors.
        let zero = QueryOptions { l: 0, ..opts };
        let payload = encode_summarize_payload(tds, zero);
        prop_assert!(read_bounded(&payload, |b| decode_request(Opcode::Summarize, b)).is_err());
        if let Some((kw, _)) = queries.first() {
            let payload = encode_query_payload(&[(kw.clone(), zero)]);
            prop_assert!(read_bounded(&payload, |b| decode_request(Opcode::Query, b)).is_err());
        }

        let shared: Vec<Vec<_>> =
            results.iter().map(|rs| rs.iter().cloned().map(std::sync::Arc::new).collect()).collect();
        let payload = encode_results_payload(Epoch(epoch), &shared);
        match read_bounded(&payload, |b| decode_reply(Opcode::Results, b)).expect("decodes") {
            Reply::Results { epoch: e, results: back } => {
                prop_assert_eq!(e, epoch);
                prop_assert_eq!(back.len(), results.len());
                for (b, r) in back.iter().zip(&results) {
                    prop_assert_eq!(b.len(), r.len());
                    prop_assert!(b.iter().zip(r).all(|(w, q)| same_result(w, q)));
                }
                prop_assert!(reencode_reply(&Reply::Results { epoch, results: back }) == payload);
            }
            other => panic!("Results decoded to {other:?}"),
        }
        for q in results.iter().flatten() {
            let payload = encode_summary_payload(Epoch(epoch), q);
            match read_bounded(&payload, |b| decode_reply(Opcode::Summary, b)).expect("decodes") {
                Reply::Summary { epoch: e, result } => {
                    prop_assert_eq!(e, epoch);
                    prop_assert!(same_result(&result, q), "Summary round trip changed it");
                }
                other => panic!("Summary decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn every_truncation_of_a_read_payload_is_an_error(
        queries in vec((text(), options()), 1..4),
        tds in tuple(),
        opts in options(),
        results in vec(vec(result(), 0..2), 1..3),
    ) {
        let shared: Vec<Vec<_>> =
            results.iter().map(|rs| rs.iter().cloned().map(std::sync::Arc::new).collect()).collect();
        let first = results.iter().flatten().next();
        let payloads = [
            (Opcode::Query, encode_query_payload(&queries)),
            (Opcode::Summarize, encode_summarize_payload(tds, opts)),
            (Opcode::Results, encode_results_payload(Epoch(3), &shared)),
        ]
        .into_iter()
        .chain(first.map(|q| (Opcode::Summary, encode_summary_payload(Epoch(3), q))));
        for (op, payload) in payloads {
            for cut in 0..payload.len() {
                let bytes = &payload[..cut];
                let err = if READ_REQUESTS.contains(&op) {
                    read_bounded(bytes, |b| decode_request(op, b)).is_err()
                } else {
                    read_bounded(bytes, |b| decode_reply(op, b)).is_err()
                };
                prop_assert!(err, "{:?} payload cut at {}", op, cut);
            }
        }
    }

    #[test]
    fn corrupted_and_arbitrary_read_bytes_decode_to_canonical_bytes_or_an_error(
        queries in vec((text(), options()), 1..4),
        results in vec(vec(result(), 0..2), 1..3),
        at in any::<usize>(),
        byte in any::<u8>(),
        noise in vec(any::<u8>(), 0..96),
    ) {
        let shared: Vec<Vec<_>> =
            results.iter().map(|rs| rs.iter().cloned().map(std::sync::Arc::new).collect()).collect();
        let mut corrupted = [encode_query_payload(&queries), encode_results_payload(Epoch(9), &shared)];
        for c in &mut corrupted {
            let at = at % c.len();
            c[at] = byte;
        }
        for bytes in corrupted.iter().chain([&noise]) {
            for op in READ_REQUESTS {
                if let Ok(req) = read_bounded(bytes, |b| decode_request(op, b)) {
                    prop_assert!(reencode_request(&req) == *bytes, "{:?} not canonical", op);
                }
            }
            for op in READ_REPLIES {
                if let Ok(reply) = read_bounded(bytes, |b| decode_reply(op, b)) {
                    prop_assert!(reencode_reply(&reply) == *bytes, "{:?} not canonical", op);
                }
            }
        }
    }
}
