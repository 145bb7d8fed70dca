//! The canonical payload codec (DESIGN.md §9.2).
//!
//! Scalars, strings, counts and [`sizel_storage::Value`]s are laid out by
//! [`sizel_storage::codec`], a mutation batch by
//! [`sizel_core::batch_codec`]; this module adds the request and reply
//! schemas on top. Encoding is **deterministic and total** — the same
//! in-process value always produces the same bytes — and that
//! determinism is load-bearing: the loopback end-to-end suite proves the
//! server correct by encoding in-process
//! [`ClusterRouter`](sizel_cluster::ClusterRouter) answers with this
//! very codec and comparing *raw payload bytes* against what arrived
//! over the socket.
//!
//! Decoding is defensive: every read is bounds-checked, lengths and
//! counts are validated against the remaining buffer *before*
//! allocation, and a frame that decodes must also be fully consumed
//! (trailing garbage is a malformed payload, not ignorable padding).

use sizel_core::algo::AlgoKind;
use sizel_core::batch_codec::{get_batch, put_batch};
use sizel_core::engine::{Mutation, QueryOptions, QueryResult, ResultRanking};
use sizel_core::osgen::OsSource;
use sizel_storage::codec::{
    put_f64, put_str, put_u16, put_u32, put_u64, put_u8, CodecError, Reader,
};
use sizel_storage::{Epoch, RowId, TableId, TupleRef};

use crate::frame::BusyReason;
use crate::frame::ErrorCode;

/// A payload that failed to decode (maps to
/// [`ErrorCode::MalformedPayload`] on the wire).
#[derive(Debug)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed payload: {}", self.0)
    }
}

impl std::error::Error for WireError {}

type Result<T> = std::result::Result<T, WireError>;

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError(e.0)
    }
}

// ---------------------------------------------------------------------
// Domain scalars
// ---------------------------------------------------------------------

fn put_tuple(buf: &mut Vec<u8>, t: TupleRef) {
    put_u16(buf, t.table.0);
    put_u32(buf, t.row.0);
}

fn get_tuple(r: &mut Reader) -> Result<TupleRef> {
    Ok(TupleRef::new(TableId(r.u16()?), RowId(r.u32()?)))
}

fn algo_to_u8(a: AlgoKind) -> u8 {
    match a {
        AlgoKind::Optimal => 0,
        AlgoKind::OptimalNaive => 1,
        AlgoKind::BottomUp => 2,
        AlgoKind::TopPath => 3,
        AlgoKind::TopPathOpt => 4,
    }
}

fn algo_from_u8(b: u8) -> Result<AlgoKind> {
    Ok(match b {
        0 => AlgoKind::Optimal,
        1 => AlgoKind::OptimalNaive,
        2 => AlgoKind::BottomUp,
        3 => AlgoKind::TopPath,
        4 => AlgoKind::TopPathOpt,
        other => return Err(WireError(format!("unknown algo {other}"))),
    })
}

fn put_opts(buf: &mut Vec<u8>, o: QueryOptions) {
    put_u32(buf, o.l as u32);
    put_u8(buf, algo_to_u8(o.algo));
    put_u8(
        buf,
        match o.source {
            OsSource::DataGraph => 0,
            OsSource::Database => 1,
        },
    );
    put_u8(buf, o.prelim as u8);
    put_u8(
        buf,
        match o.ranking {
            ResultRanking::DsGlobalImportance => 0,
            ResultRanking::SummaryImportance => 1,
        },
    );
}

fn get_opts(r: &mut Reader) -> Result<QueryOptions> {
    let l = r.u32()? as usize;
    let algo = algo_from_u8(r.u8()?)?;
    let source = match r.u8()? {
        0 => OsSource::DataGraph,
        1 => OsSource::Database,
        other => return Err(WireError(format!("unknown os source {other}"))),
    };
    let prelim = match r.u8()? {
        0 => false,
        1 => true,
        other => return Err(WireError(format!("bad bool {other}"))),
    };
    let ranking = match r.u8()? {
        0 => ResultRanking::DsGlobalImportance,
        1 => ResultRanking::SummaryImportance,
        other => return Err(WireError(format!("unknown ranking {other}"))),
    };
    Ok(QueryOptions { l, algo, source, prelim, ranking })
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// A decoded request payload (the server's dispatch unit).
#[derive(Clone, Debug)]
pub enum Request {
    /// `Opcode::Ping`.
    Ping,
    /// `Opcode::Query`: a batch of keyword queries.
    Query {
        /// `(keywords, options)` per request, answered in order.
        requests: Vec<(String, QueryOptions)>,
    },
    /// `Opcode::Summarize`: one per-DS summary.
    Summarize {
        /// The data subject tuple.
        tds: TupleRef,
        /// Summary options.
        opts: QueryOptions,
    },
    /// `Opcode::ApplyBatch`: mutations applied cluster-wide as one batch.
    ApplyBatch {
        /// The mutation batch, in application order.
        mutations: Vec<Mutation>,
    },
    /// `Opcode::Stats`.
    Stats,
}

/// Encodes a `Query` request payload, appending to `buf` — the
/// zero-copy form every `encode_*_into` in this module shares: the
/// caller opens a frame (or reuses a scratch buffer) and the payload
/// bytes are written once, in place.
pub fn encode_query_into(buf: &mut Vec<u8>, requests: &[(String, QueryOptions)]) {
    put_u32(buf, requests.len() as u32);
    for (kw, opts) in requests {
        put_str(buf, kw);
        put_opts(buf, *opts);
    }
}

/// Encodes a `Query` request payload.
pub fn encode_query_payload(requests: &[(String, QueryOptions)]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_query_into(&mut buf, requests);
    buf
}

/// Encodes a `Summarize` request payload, appending to `buf`.
pub fn encode_summarize_into(buf: &mut Vec<u8>, tds: TupleRef, opts: QueryOptions) {
    put_tuple(buf, tds);
    put_opts(buf, opts);
}

/// Encodes a `Summarize` request payload.
pub fn encode_summarize_payload(tds: TupleRef, opts: QueryOptions) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_summarize_into(&mut buf, tds, opts);
    buf
}

/// Encodes an `ApplyBatch` request payload, appending to `buf`.
pub fn encode_apply_into(buf: &mut Vec<u8>, mutations: &[Mutation]) {
    put_batch(buf, mutations);
}

/// Encodes an `ApplyBatch` request payload.
pub fn encode_apply_payload(mutations: &[Mutation]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_apply_into(&mut buf, mutations);
    buf
}

/// Decodes a request payload against its opcode's schema.
pub fn decode_request(opcode: crate::frame::Opcode, payload: &[u8]) -> Result<Request> {
    use crate::frame::Opcode;
    let mut r = Reader::new(payload);
    let req = match opcode {
        Opcode::Ping => Request::Ping,
        Opcode::Stats => Request::Stats,
        Opcode::Query => {
            let n = r.count(1)?;
            let requests =
                (0..n).map(|_| Ok((r.str()?, get_opts(&mut r)?))).collect::<Result<Vec<_>>>()?;
            Request::Query { requests }
        }
        Opcode::Summarize => {
            let tds = get_tuple(&mut r)?;
            let opts = get_opts(&mut r)?;
            Request::Summarize { tds, opts }
        }
        Opcode::ApplyBatch => Request::ApplyBatch { mutations: get_batch(&mut r)? },
        reply => return Err(WireError(format!("{reply:?} is a reply, not a request"))),
    };
    r.finish()?;
    Ok(req)
}

// ---------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------

/// One OS node as decoded from the wire (a faithful mirror of
/// `sizel_core::os::OsNode` without requiring the arena).
#[derive(Clone, Debug, PartialEq)]
pub struct WireOsNode {
    /// The database tuple.
    pub tuple: TupleRef,
    /// The GDS node id (raw).
    pub gds_node: u32,
    /// Parent node index (`None` for the root).
    pub parent: Option<u32>,
    /// Depth (root = 0).
    pub depth: u32,
    /// Local importance.
    pub weight: f64,
}

/// One ranked result as decoded from the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct WireResult {
    /// The data subject tuple.
    pub tds: TupleRef,
    /// Display label of the DS tuple.
    pub ds_label: String,
    /// Global importance of `t_DS`.
    pub global_score: f64,
    /// Size of the OS the summary was computed from.
    pub input_os_size: usize,
    /// Selected node ids, ascending.
    pub selected: Vec<u32>,
    /// `Im(S)` of the selection.
    pub importance: f64,
    /// The materialized size-l OS, nodes in id order.
    pub summary: Vec<WireOsNode>,
}

/// A decoded reply payload (the client's receive unit).
#[derive(Clone, Debug)]
pub enum Reply {
    /// `Opcode::Pong`.
    Pong,
    /// `Opcode::Results`: the serving epoch plus per-request result lists.
    Results {
        /// The consistent cluster epoch the batch was served at.
        epoch: u64,
        /// One ranked result list per submitted request, in order.
        results: Vec<Vec<WireResult>>,
    },
    /// `Opcode::Summary`: the serving epoch plus one summary.
    Summary {
        /// The cluster epoch the summary was served at.
        epoch: u64,
        /// The summary.
        result: WireResult,
    },
    /// `Opcode::Applied`: the cluster's new epoch.
    Applied {
        /// The common post-apply epoch.
        epoch: u64,
    },
    /// `Opcode::StatsText`: the metrics page.
    StatsText {
        /// Text-exposition metrics, one `name{labels} value` per line.
        text: String,
    },
    /// `Opcode::Busy`: the request was shed before execution.
    Busy {
        /// Which admission gate rejected it.
        reason: BusyReason,
    },
    /// `Opcode::Error`: the request failed.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

fn put_result(buf: &mut Vec<u8>, qr: &QueryResult) {
    put_tuple(buf, qr.tds);
    put_str(buf, &qr.ds_label);
    put_f64(buf, qr.global_score);
    put_u32(buf, qr.input_os_size as u32);
    put_u32(buf, qr.result.selected.len() as u32);
    for id in &qr.result.selected {
        put_u32(buf, id.0);
    }
    put_f64(buf, qr.result.importance);
    put_u32(buf, qr.summary.len() as u32);
    for (_, node) in qr.summary.iter() {
        put_tuple(buf, node.tuple);
        put_u32(buf, node.gds_node.0);
        match node.parent {
            None => put_u8(buf, 0),
            Some(p) => {
                put_u8(buf, 1);
                put_u32(buf, p.0);
            }
        }
        put_u32(buf, node.depth);
        put_f64(buf, node.weight);
    }
}

fn get_result(r: &mut Reader) -> Result<WireResult> {
    let tds = get_tuple(r)?;
    let ds_label = r.str()?;
    let global_score = r.f64()?;
    let input_os_size = r.u32()? as usize;
    let n_sel = r.count(4)?;
    let selected = (0..n_sel).map(|_| Ok(r.u32()?)).collect::<Result<Vec<_>>>()?;
    let importance = r.f64()?;
    let n_nodes = r.count(6)?;
    let mut summary = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let tuple = get_tuple(r)?;
        let gds_node = r.u32()?;
        let parent = match r.u8()? {
            0 => None,
            1 => Some(r.u32()?),
            other => return Err(WireError(format!("bad option tag {other}"))),
        };
        let depth = r.u32()?;
        let weight = r.f64()?;
        summary.push(WireOsNode { tuple, gds_node, parent, depth, weight });
    }
    Ok(WireResult { tds, ds_label, global_score, input_os_size, selected, importance, summary })
}

/// Encodes a `Results` reply payload, appending to `buf` — on the
/// server's cache-hit path this serializes straight from the cached
/// `Arc<QueryResult>`s into a pooled frame, no intermediate buffer.
pub fn encode_results_into(
    buf: &mut Vec<u8>,
    epoch: Epoch,
    results: &[Vec<std::sync::Arc<QueryResult>>],
) {
    put_u64(buf, epoch.get());
    put_u32(buf, results.len() as u32);
    for per_request in results {
        put_u32(buf, per_request.len() as u32);
        for qr in per_request {
            put_result(buf, qr);
        }
    }
}

/// Encodes a `Results` reply payload from in-process router output —
/// the function the loopback suite also runs on its side of the
/// byte-identity check.
pub fn encode_results_payload(
    epoch: Epoch,
    results: &[Vec<std::sync::Arc<QueryResult>>],
) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_results_into(&mut buf, epoch, results);
    buf
}

/// Encodes a `Summary` reply payload, appending to `buf`.
pub fn encode_summary_into(buf: &mut Vec<u8>, epoch: Epoch, result: &QueryResult) {
    put_u64(buf, epoch.get());
    put_result(buf, result);
}

/// Encodes a `Summary` reply payload.
pub fn encode_summary_payload(epoch: Epoch, result: &QueryResult) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_summary_into(&mut buf, epoch, result);
    buf
}

/// Encodes an `Applied` reply payload, appending to `buf`.
pub fn encode_applied_into(buf: &mut Vec<u8>, epoch: Epoch) {
    put_u64(buf, epoch.get());
}

/// Encodes a `StatsText` reply payload, appending to `buf`.
pub fn encode_stats_into(buf: &mut Vec<u8>, text: &str) {
    put_str(buf, text);
}

/// Encodes a `Busy` reply payload, appending to `buf`.
pub fn encode_busy_into(buf: &mut Vec<u8>, reason: BusyReason) {
    put_u8(buf, reason as u8);
}

/// Encodes an `Error` reply payload, appending to `buf`.
pub fn encode_error_into(buf: &mut Vec<u8>, code: ErrorCode, message: &str) {
    put_u8(buf, code as u8);
    put_str(buf, message);
}

/// Decodes a reply payload against its opcode's schema.
pub fn decode_reply(opcode: crate::frame::Opcode, payload: &[u8]) -> Result<Reply> {
    use crate::frame::Opcode;
    let mut r = Reader::new(payload);
    let reply = match opcode {
        Opcode::Pong => Reply::Pong,
        Opcode::Results => {
            let epoch = r.u64()?;
            let n = r.count(4)?;
            let mut results = Vec::with_capacity(n);
            for _ in 0..n {
                let m = r.count(1)?;
                results.push((0..m).map(|_| get_result(&mut r)).collect::<Result<Vec<_>>>()?);
            }
            Reply::Results { epoch, results }
        }
        Opcode::Summary => {
            let epoch = r.u64()?;
            let result = get_result(&mut r)?;
            Reply::Summary { epoch, result }
        }
        Opcode::Applied => Reply::Applied { epoch: r.u64()? },
        Opcode::StatsText => Reply::StatsText { text: r.str()? },
        Opcode::Busy => {
            let b = r.u8()?;
            let reason = BusyReason::from_u8(b)
                .ok_or_else(|| WireError(format!("unknown busy reason {b}")))?;
            Reply::Busy { reason }
        }
        Opcode::Error => {
            let b = r.u8()?;
            let code = ErrorCode::from_u8(b)
                .ok_or_else(|| WireError(format!("unknown error code {b}")))?;
            Reply::Error { code, message: r.str()? }
        }
        request => return Err(WireError(format!("{request:?} is a request, not a reply"))),
    };
    r.finish()?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Opcode;
    use sizel_storage::Value;

    #[test]
    fn query_request_roundtrips() {
        let requests = vec![
            ("smith".to_owned(), QueryOptions::default()),
            (
                "jones keyword".to_owned(),
                QueryOptions {
                    l: 7,
                    algo: AlgoKind::BottomUp,
                    source: OsSource::Database,
                    prelim: false,
                    ranking: ResultRanking::SummaryImportance,
                },
            ),
        ];
        let payload = encode_query_payload(&requests);
        match decode_request(Opcode::Query, &payload).expect("decodes") {
            Request::Query { requests: decoded } => assert_eq!(decoded, requests),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn apply_request_roundtrips_every_mutation_kind() {
        let muts = vec![
            Mutation::insert("Author", vec![Value::Int(7), "Ada".into(), Value::Null]),
            Mutation::update("Paper", 3, vec![Value::Int(3), Value::Float(0.5)]),
            Mutation::delete("AuthorPaper", 9).exact(),
            Mutation::delete("x".repeat(70_000), 1),
        ];
        let payload = encode_apply_payload(&muts);
        match decode_request(Opcode::ApplyBatch, &payload).expect("decodes") {
            Request::ApplyBatch { mutations } => assert_eq!(mutations, muts),
            other => panic!("wrong variant: {other:?}"),
        }
        // The payload layout is protocol: these bytes are what every
        // build since `VERSION` 1 has put on the wire for this batch.
        assert_eq!(
            encode_apply_payload(&[Mutation::update("T", -2, vec![Value::Null]).exact()]),
            [&[1, 0, 0, 0, 1, 0, 0, 0, b'T', 1, 1][..], &(-2i64).to_le_bytes(), &[1, 0, 0, 0, 0]]
                .concat()
        );
    }

    #[test]
    fn error_and_busy_replies_roundtrip() {
        let mut e = Vec::new();
        encode_error_into(&mut e, ErrorCode::BadRequest, "unknown tenant `acme`");
        match decode_reply(Opcode::Error, &e).expect("decodes") {
            Reply::Error { code, message } => {
                assert_eq!(code, ErrorCode::BadRequest);
                assert!(message.contains("acme"));
            }
            other => panic!("wrong variant: {other:?}"),
        }
        for reason in [BusyReason::InflightBudget, BusyReason::QueueFull, BusyReason::OutboxFull] {
            let mut b = Vec::new();
            encode_busy_into(&mut b, reason);
            match decode_reply(Opcode::Busy, &b).expect("decodes") {
                Reply::Busy { reason: got } => assert_eq!(got, reason),
                other => panic!("wrong variant: {other:?}"),
            }
        }
    }

    #[test]
    fn into_variants_append_without_clearing() {
        // The `_into` family must append after whatever the caller
        // already wrote (a frame header, typically) — byte-identical to
        // the allocating `_payload` form from that point on.
        let requests = vec![("smith".to_owned(), QueryOptions::default())];
        let mut buf = b"header".to_vec();
        encode_query_into(&mut buf, &requests);
        assert_eq!(&buf[..6], b"header");
        assert_eq!(&buf[6..], &encode_query_payload(&requests)[..]);

        let mut buf = b"h".to_vec();
        encode_error_into(&mut buf, ErrorCode::Internal, "boom");
        assert_eq!(&buf[..1], b"h");
        assert!(matches!(
            decode_reply(Opcode::Error, &buf[1..]),
            Ok(Reply::Error { code: ErrorCode::Internal, .. })
        ));
    }

    #[test]
    fn trailing_garbage_is_malformed() {
        let mut payload = Vec::new();
        encode_applied_into(&mut payload, Epoch(4));
        payload.push(0xAB);
        assert!(decode_reply(Opcode::Applied, &payload).is_err());
    }

    #[test]
    fn truncated_and_lying_lengths_are_malformed_not_panics() {
        let requests = vec![("smith".to_owned(), QueryOptions::default())];
        let good = encode_query_payload(&requests);
        // Every strict prefix must fail cleanly.
        for cut in 0..good.len() {
            assert!(decode_request(Opcode::Query, &good[..cut]).is_err(), "prefix {cut}");
        }
        // A string length pointing past the buffer must not allocate or
        // panic. Offset 4 is the first string's length field.
        let mut lying = good.clone();
        lying[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request(Opcode::Query, &lying).is_err());
        // An element count far beyond the remaining bytes is rejected
        // before any per-element work.
        let mut big_count = good;
        big_count[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request(Opcode::Query, &big_count).is_err());
    }
}
