//! The framing layer: a length-prefixed binary envelope around every
//! request and reply (DESIGN.md §9.1 is generated from this module —
//! see [`protocol_reference_table`]).
//!
//! ## Header layout (16 bytes, little-endian)
//!
//! ```text
//! offset  size  field
//!      0     2  magic   0x534C ("SL")
//!      2     1  version currently 1; mismatches are a protocol error
//!      3     1  opcode  see [`Opcode`]
//!      4     8  req_id  caller-chosen; echoed verbatim in the reply
//!     12     4  len     payload length in bytes (may be 0)
//! ```
//!
//! `req_id` is what makes per-connection pipelining work: a client may
//! have many requests in flight and the server may answer them in any
//! order (worker pools don't preserve submission order across opcodes),
//! so every reply carries the id of the request it answers.
//!
//! The payload length is bounded by [`MAX_FRAME_LEN`]; a header
//! announcing more is rejected *before* any allocation — a four-byte
//! length field must never size a buffer on its own say-so.

use std::io::{self, Read, Write};

/// `0x534C` — "SL" in ASCII, little-endian on the wire.
pub const MAGIC: u16 = 0x534C;

/// Current protocol version; bumped on any incompatible layout change.
pub const VERSION: u8 = 1;

/// Header size in bytes.
pub const HEADER_LEN: usize = 16;

/// Upper bound on a frame's payload. Chosen far above any legitimate
/// frame (a full result set over the evaluation databases is < 1 MiB)
/// and far below anything that could be used to balloon server memory.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Every frame kind in the protocol. Requests flow client → server and
/// have the high bit clear; replies flow server → client and have it
/// set. The doc comment's first sentence is the wire-reference
/// description (see [`protocol_reference_table`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness probe; empty payload, answered with `Pong`.
    Ping = 0x01,
    /// A batch of keyword queries; answered with `Results`.
    Query = 0x02,
    /// One `(t_DS, options)` summary request; answered with `Summary`.
    Summarize = 0x03,
    /// A batch of mutations to apply cluster-wide; answered with `Applied`.
    ApplyBatch = 0x04,
    /// Metrics snapshot request; answered with `StatsText`.
    Stats = 0x05,
    /// Reply to `Ping`; empty payload.
    Pong = 0x81,
    /// Reply to `Query`: the serving epoch plus every request's ranked results.
    Results = 0x82,
    /// Reply to `Summarize`: the serving epoch plus one summary.
    Summary = 0x83,
    /// Reply to `ApplyBatch`: the cluster's new epoch.
    Applied = 0x84,
    /// Reply to `Stats`: the text-exposition metrics page.
    StatsText = 0x85,
    /// Load shed: the request was NOT executed; retry later.
    Busy = 0x86,
    /// The request failed; carries an error code and a message.
    Error = 0x87,
}

impl Opcode {
    /// Every opcode, requests first then replies, in wire order.
    pub const ALL: [Opcode; 12] = [
        Opcode::Ping,
        Opcode::Query,
        Opcode::Summarize,
        Opcode::ApplyBatch,
        Opcode::Stats,
        Opcode::Pong,
        Opcode::Results,
        Opcode::Summary,
        Opcode::Applied,
        Opcode::StatsText,
        Opcode::Busy,
        Opcode::Error,
    ];

    /// Decodes a wire byte.
    pub fn from_u8(b: u8) -> Option<Opcode> {
        Opcode::ALL.into_iter().find(|op| *op as u8 == b)
    }

    /// True for client → server frames.
    pub fn is_request(self) -> bool {
        (self as u8) & 0x80 == 0
    }

    /// The mnemonic printed in the protocol reference.
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Ping => "Ping",
            Opcode::Query => "Query",
            Opcode::Summarize => "Summarize",
            Opcode::ApplyBatch => "ApplyBatch",
            Opcode::Stats => "Stats",
            Opcode::Pong => "Pong",
            Opcode::Results => "Results",
            Opcode::Summary => "Summary",
            Opcode::Applied => "Applied",
            Opcode::StatsText => "StatsText",
            Opcode::Busy => "Busy",
            Opcode::Error => "Error",
        }
    }

    /// One-line wire-reference description (mirrors the doc comments).
    pub fn describe(self) -> &'static str {
        match self {
            Opcode::Ping => "Liveness probe; empty payload, answered with `Pong`",
            Opcode::Query => "A batch of keyword queries; answered with `Results`",
            Opcode::Summarize => "One `(t_DS, options)` summary request; answered with `Summary`",
            Opcode::ApplyBatch => {
                "A batch of mutations to apply cluster-wide; answered with `Applied`"
            }
            Opcode::Stats => "Metrics snapshot request; answered with `StatsText`",
            Opcode::Pong => "Reply to `Ping`; empty payload",
            Opcode::Results => {
                "Reply to `Query`: the serving epoch plus every request's ranked results"
            }
            Opcode::Summary => "Reply to `Summarize`: the serving epoch plus one summary",
            Opcode::Applied => "Reply to `ApplyBatch`: the cluster's new epoch",
            Opcode::StatsText => "Reply to `Stats`: the text-exposition metrics page",
            Opcode::Busy => "Load shed: the request was NOT executed; retry later",
            Opcode::Error => "The request failed; carries an error code and a message",
        }
    }
}

/// Error codes carried in an `Error` frame's payload (first byte).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The payload did not decode against the opcode's schema.
    MalformedPayload = 1,
    /// The header's opcode byte names no request.
    UnknownOpcode = 2,
    /// A well-formed request the cluster rejected (a storage validation
    /// failure, such as a dangling foreign key in an `ApplyBatch`).
    BadRequest = 3,
    /// The handler panicked or otherwise failed internally; the
    /// connection stays usable.
    Internal = 4,
    /// The envelope itself was wrong (bad magic, unsupported version,
    /// oversized length): the framing is no longer trustworthy, so the
    /// server closes the connection after this reply.
    Protocol = 5,
}

impl ErrorCode {
    /// Decodes a wire byte.
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        [
            ErrorCode::MalformedPayload,
            ErrorCode::UnknownOpcode,
            ErrorCode::BadRequest,
            ErrorCode::Internal,
            ErrorCode::Protocol,
        ]
        .into_iter()
        .find(|c| *c as u8 == b)
    }
}

/// Why a `Busy` frame was sent (first payload byte). The request was
/// rejected *before* execution — a shed request never has partial
/// effects. The server sends `OutboxFull` only; the other two name gates
/// it no longer has and are still decoded, so the wire format is
/// unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum BusyReason {
    /// The connection's in-flight budget was full (never sent).
    InflightBudget = 0,
    /// The dispatch queue was full (never sent).
    QueueFull = 1,
    /// The connection's outbox byte cap was hit (the peer has stopped
    /// reading its replies).
    OutboxFull = 2,
}

impl BusyReason {
    /// Decodes a wire byte.
    pub fn from_u8(b: u8) -> Option<BusyReason> {
        [BusyReason::InflightBudget, BusyReason::QueueFull, BusyReason::OutboxFull]
            .into_iter()
            .find(|r| *r as u8 == b)
    }
}

/// A decoded frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// The frame kind.
    pub opcode: Opcode,
    /// Caller-chosen correlation id, echoed in the reply.
    pub req_id: u64,
    /// Payload length in bytes.
    pub len: u32,
}

/// What can go wrong decoding an envelope. Everything here is a
/// *protocol* failure (the framing is broken); payload-level failures
/// are reported in-band via `Error` frames instead.
#[derive(Debug)]
pub enum FrameError {
    /// The magic bytes were wrong — this is not a sizel-net peer.
    BadMagic(u16),
    /// The version byte names a protocol we don't speak.
    BadVersion(u8),
    /// The opcode byte names no frame kind.
    UnknownOpcode(u8),
    /// The announced payload length exceeds [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// The underlying stream failed or ended mid-frame.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad magic 0x{m:04x} (want 0x{MAGIC:04x})"),
            FrameError::BadVersion(v) => write!(f, "unsupported version {v} (want {VERSION})"),
            FrameError::UnknownOpcode(b) => write!(f, "unknown opcode 0x{b:02x}"),
            FrameError::Oversized(n) => {
                write!(f, "announced payload of {n} bytes exceeds the {MAX_FRAME_LEN} cap")
            }
            FrameError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Encodes a header into its 16-byte wire form.
pub fn encode_header(h: Header) -> [u8; HEADER_LEN] {
    let mut buf = [0u8; HEADER_LEN];
    buf[0..2].copy_from_slice(&MAGIC.to_le_bytes());
    buf[2] = VERSION;
    buf[3] = h.opcode as u8;
    buf[4..12].copy_from_slice(&h.req_id.to_le_bytes());
    buf[12..16].copy_from_slice(&h.len.to_le_bytes());
    buf
}

/// Decodes a 16-byte header, validating magic, version, opcode, and the
/// length cap — all before the caller allocates anything for the payload.
pub fn decode_header(buf: &[u8; HEADER_LEN]) -> Result<Header, FrameError> {
    let magic = u16::from_le_bytes([buf[0], buf[1]]);
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    if buf[2] != VERSION {
        return Err(FrameError::BadVersion(buf[2]));
    }
    let opcode = Opcode::from_u8(buf[3]).ok_or(FrameError::UnknownOpcode(buf[3]))?;
    let req_id = u64::from_le_bytes(buf[4..12].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    Ok(Header { opcode, req_id, len })
}

/// Opens a frame in `buf` (clearing it): writes the full 16-byte header
/// with a zero length, leaving the cursor where payload bytes go. The
/// caller appends the payload with the `wire::encode_*_into` family and
/// seals the frame with [`finish_frame`]. Paired, the two write header
/// and payload exactly once into one (typically pooled) buffer — the
/// zero-copy replacement for build-payload-then-[`encode_frame`].
pub fn begin_frame(buf: &mut Vec<u8>, opcode: Opcode, req_id: u64) {
    buf.clear();
    buf.extend_from_slice(&encode_header(Header { opcode, req_id, len: 0 }));
}

/// Seals a frame opened by [`begin_frame`]: patches the opcode byte and
/// the length field in place. The opcode is patched (not just inherited
/// from `begin_frame`) because the server learns the reply kind only
/// *after* executing the request — it opens the frame with a
/// placeholder, serializes whichever reply the handler produced, and
/// stamps the real opcode here.
pub fn finish_frame(buf: &mut [u8], opcode: Opcode) {
    debug_assert!(buf.len() >= HEADER_LEN, "finish_frame on a buffer with no header");
    let payload_len = buf.len() - HEADER_LEN;
    debug_assert!(payload_len <= MAX_FRAME_LEN as usize);
    buf[3] = opcode as u8;
    buf[12..16].copy_from_slice(&(payload_len as u32).to_le_bytes());
}

/// Serializes a whole frame (header + payload) into one buffer — the
/// unit the server's outbox and the client's pipeline queue move around.
/// Implemented over [`begin_frame`]/[`finish_frame`] so the two paths
/// cannot drift; the pooled path skips this function's payload copy.
pub fn encode_frame(opcode: Opcode, req_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    begin_frame(&mut buf, opcode, req_id);
    buf.extend_from_slice(payload);
    finish_frame(&mut buf, opcode);
    buf
}

/// Blocking frame read from a stream (the client side; the server's
/// nonblocking loop accumulates bytes itself and uses
/// [`decode_header`] directly).
pub fn read_frame<R: Read>(r: &mut R) -> Result<(Header, Vec<u8>), FrameError> {
    let mut head = [0u8; HEADER_LEN];
    r.read_exact(&mut head)?;
    let header = decode_header(&head)?;
    let mut payload = vec![0u8; header.len as usize];
    r.read_exact(&mut payload)?;
    Ok((header, payload))
}

/// Blocking frame write to a stream.
pub fn write_frame<W: Write>(
    w: &mut W,
    opcode: Opcode,
    req_id: u64,
    payload: &[u8],
) -> io::Result<()> {
    w.write_all(&encode_frame(opcode, req_id, payload))
}

/// The generated protocol reference: one markdown table row per opcode,
/// derived from [`Opcode::ALL`] so the docs cannot drift from the wire
/// enum (DESIGN.md §9.1 embeds this verbatim; a test pins the two
/// together).
pub fn protocol_reference_table() -> String {
    let mut out = String::new();
    out.push_str("| opcode | byte | direction | description |\n");
    out.push_str("|--------|------|-----------|-------------|\n");
    for op in Opcode::ALL {
        let dir = if op.is_request() { "request" } else { "reply" };
        out.push_str(&format!(
            "| `{}` | `0x{:02X}` | {} | {} |\n",
            op.name(),
            op as u8,
            dir,
            op.describe()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrips() {
        for op in Opcode::ALL {
            let h = Header { opcode: op, req_id: 0xDEAD_BEEF_CAFE_F00D, len: 4242 };
            let decoded = decode_header(&encode_header(h)).expect("roundtrip");
            assert_eq!(decoded, h);
        }
    }

    #[test]
    fn envelope_validation_rejects_each_field() {
        let good = encode_header(Header { opcode: Opcode::Ping, req_id: 1, len: 0 });
        let mut bad_magic = good;
        bad_magic[0] = 0xFF;
        assert!(matches!(decode_header(&bad_magic), Err(FrameError::BadMagic(_))));
        let mut bad_version = good;
        bad_version[2] = 99;
        assert!(matches!(decode_header(&bad_version), Err(FrameError::BadVersion(99))));
        let mut bad_opcode = good;
        bad_opcode[3] = 0x7F;
        assert!(matches!(decode_header(&bad_opcode), Err(FrameError::UnknownOpcode(0x7F))));
        let mut oversized = good;
        oversized[12..16].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(decode_header(&oversized), Err(FrameError::Oversized(_))));
    }

    #[test]
    fn opcode_direction_follows_the_high_bit() {
        for op in Opcode::ALL {
            assert_eq!(op.is_request(), (op as u8) < 0x80, "{op:?}");
            assert_eq!(Opcode::from_u8(op as u8), Some(op));
        }
        assert_eq!(Opcode::from_u8(0x00), None);
        assert_eq!(Opcode::from_u8(0xFF), None);
    }

    #[test]
    fn reference_table_covers_every_opcode() {
        let table = protocol_reference_table();
        for op in Opcode::ALL {
            assert!(table.contains(op.name()), "table missing {}", op.name());
            assert!(table.contains(&format!("0x{:02X}", op as u8)));
        }
        assert_eq!(table.lines().count(), 2 + Opcode::ALL.len());
    }

    #[test]
    fn frame_read_write_roundtrips_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, Opcode::Results, 7, b"hello").expect("write");
        let (h, payload) = read_frame(&mut buf.as_slice()).expect("read");
        assert_eq!((h.opcode, h.req_id), (Opcode::Results, 7));
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn begin_finish_matches_encode_frame_bytes() {
        let mut pooled = b"stale garbage from a previous frame".to_vec();
        begin_frame(&mut pooled, Opcode::Error, 42); // worker's placeholder opcode
        pooled.extend_from_slice(b"ranked results");
        finish_frame(&mut pooled, Opcode::Results); // real reply kind, learned late
        assert_eq!(pooled, encode_frame(Opcode::Results, 42, b"ranked results"));
        let h = decode_header(pooled[..HEADER_LEN].try_into().unwrap()).expect("valid");
        assert_eq!((h.opcode, h.req_id, h.len), (Opcode::Results, 42, 14));
    }

    #[test]
    fn begin_finish_handles_empty_payloads() {
        let mut buf = Vec::new();
        begin_frame(&mut buf, Opcode::Pong, 9);
        finish_frame(&mut buf, Opcode::Pong);
        assert_eq!(buf, encode_frame(Opcode::Pong, 9, b""));
        assert_eq!(buf.len(), HEADER_LEN);
    }

    #[test]
    fn truncated_streams_surface_as_io_errors() {
        let full = encode_frame(Opcode::Query, 3, b"payload");
        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN + 2] {
            let err = read_frame(&mut &full[..cut]).expect_err("truncated");
            assert!(matches!(err, FrameError::Io(_)), "cut at {cut}: {err}");
        }
    }
}
