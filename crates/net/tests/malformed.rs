//! Adversarial framing: truncated headers, lying lengths, wrong magic,
//! unknown opcodes, garbage payloads, and a plain-HTTP scraper — the
//! server must answer each with the documented reply (or documented
//! close) and keep serving everyone else. Nothing in this file is
//! allowed to panic the server, and every scenario runs on every
//! reactor backend (`for_each_reactor`): the adversarial surface is
//! exactly where a readiness rewrite would regress first.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

use sizel_core::engine::QueryOptions;
use sizel_net::frame::{
    encode_frame, encode_header, read_frame, Header, Opcode, HEADER_LEN, MAGIC, MAX_FRAME_LEN,
    VERSION,
};
use sizel_net::wire::{decode_reply, encode_query_payload, encode_summarize_payload};
use sizel_net::{ErrorCode, NetClient, NetConfig, Reply};

mod common;
use common::{existing_keyword, for_each_reactor, serve, tiny_cluster};

fn expect_error(client: &mut NetClient, raw: &[u8], want: ErrorCode) -> String {
    client.send_raw(raw).expect("send raw");
    let (_, op, payload) = client.recv_any().expect("an in-band reply, not a hangup");
    assert_eq!(op, Opcode::Error);
    match decode_reply(op, &payload).expect("decodes") {
        Reply::Error { code, message } => {
            assert_eq!(code, want, "{message}");
            message
        }
        other => panic!("expected Error, got {other:?}"),
    }
}

/// Reads until EOF, asserting the peer closed (used after protocol-level
/// errors, where the server must hang up once the reply flushed).
fn assert_closed(client: &mut NetClient) {
    // Any further read must hit EOF (FrameError::Io) — never a frame.
    match client.recv_any() {
        Err(_) => {}
        Ok((id, op, _)) => panic!("expected close, got frame {op:?} (id {id})"),
    }
}

#[test]
fn bad_magic_gets_protocol_error_then_close() {
    for_each_reactor(|reactor| {
        let server = serve(tiny_cluster(), NetConfig { reactor, ..Default::default() });
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let mut frame = encode_frame(Opcode::Ping, 42, &[]);
        frame[0] = 0xFF; // corrupt the magic
        let msg = expect_error(&mut client, &frame, ErrorCode::Protocol);
        assert!(msg.contains("magic"), "{msg}");
        assert_closed(&mut client);
        // The server as a whole is unharmed.
        let mut fresh = NetClient::connect(server.local_addr()).expect("connect");
        fresh.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        fresh.ping().expect("server survives bad magic");
    });
}

#[test]
fn wrong_version_gets_protocol_error_then_close() {
    for_each_reactor(|reactor| {
        let server = serve(tiny_cluster(), NetConfig { reactor, ..Default::default() });
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let mut frame = encode_frame(Opcode::Ping, 1, &[]);
        frame[2] = VERSION + 9;
        expect_error(&mut client, &frame, ErrorCode::Protocol);
        assert_closed(&mut client);
    });
}

#[test]
fn oversized_length_is_rejected_before_any_allocation() {
    for_each_reactor(|reactor| {
        let server = serve(tiny_cluster(), NetConfig { reactor, ..Default::default() });
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        // A header announcing a 2 GiB payload, with no payload behind
        // it: the server must reject on the header alone.
        let mut head = encode_header(Header { opcode: Opcode::Query, req_id: 9, len: 0 });
        head[12..16].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let msg = expect_error(&mut client, &head, ErrorCode::Protocol);
        assert!(msg.contains("exceeds"), "{msg}");
        assert_closed(&mut client);
    });
}

#[test]
fn unknown_opcode_gets_an_error_and_the_connection_survives() {
    for_each_reactor(|reactor| {
        let server = serve(tiny_cluster(), NetConfig { reactor, ..Default::default() });
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        // Valid magic/version/length, nonsense opcode: the frame
        // boundary is trustworthy, so the server skips exactly this
        // frame.
        let mut head = encode_header(Header { opcode: Opcode::Ping, req_id: 77, len: 3 });
        head[3] = 0x7F;
        let mut frame = head.to_vec();
        frame.extend_from_slice(b"abc");
        client.send_raw(&frame).expect("send raw");
        let (id, op, payload) = client.recv_any().expect("reply");
        assert_eq!(id, 77, "the bogus frame's id is echoed");
        assert_eq!(op, Opcode::Error);
        match decode_reply(op, &payload).expect("decodes") {
            Reply::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownOpcode),
            other => panic!("expected Error, got {other:?}"),
        }
        // Same connection keeps serving — no close for payload-level
        // junk.
        client.ping().expect("connection survives an unknown opcode");
    });
}

#[test]
fn malformed_payload_gets_an_error_and_the_connection_survives() {
    for_each_reactor(|reactor| {
        let server = serve(tiny_cluster(), NetConfig { reactor, ..Default::default() });
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        // A Query whose payload is garbage.
        let id = client.send(Opcode::Query, b"\xDE\xAD\xBE\xEF").expect("send");
        let (op, payload) = client.recv_for(id).expect("reply");
        match decode_reply(op, &payload).expect("decodes") {
            Reply::Error { code, .. } => assert_eq!(code, ErrorCode::MalformedPayload),
            other => panic!("expected Error, got {other:?}"),
        }
        // A reply opcode used as a request is payload-level nonsense
        // too.
        let id = client.send(Opcode::Results, &[]).expect("send");
        let (op, payload) = client.recv_for(id).expect("reply");
        match decode_reply(op, &payload).expect("decodes") {
            Reply::Error { code, .. } => assert_eq!(code, ErrorCode::MalformedPayload),
            other => panic!("expected Error, got {other:?}"),
        }
        client.ping().expect("connection survives malformed payloads");
    });
}

/// `l = 0` asks for a summary without even t_DS: the codec rejects it
/// like any other out-of-range option byte, so a `Query` and a
/// `Summarize` frame carrying it each get `Error(MalformedPayload)` —
/// not the engine's panic turned `Error(Internal)` — and the connection
/// keeps answering.
#[test]
fn a_frame_with_l_zero_gets_a_malformed_payload_error_and_the_connection_survives() {
    for_each_reactor(|reactor| {
        let router = tiny_cluster();
        let server = serve(router.clone(), NetConfig { reactor, ..Default::default() });
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let kw = existing_keyword(&router.shard(0).engine());
        let tds = router.shard(0).engine().ds_hits(&kw)[0];
        let zero = QueryOptions { l: 0, ..Default::default() };
        for (opcode, payload) in [
            (Opcode::Query, encode_query_payload(&[(kw, zero)])),
            (Opcode::Summarize, encode_summarize_payload(tds, zero)),
        ] {
            let id = client.send(opcode, &payload).expect("send");
            let (op, reply) = client.recv_for(id).expect("an in-band reply");
            match decode_reply(op, &reply).expect("decodes") {
                Reply::Error { code, message } => {
                    assert_eq!(code, ErrorCode::MalformedPayload, "{opcode:?}: {message}");
                }
                other => panic!("{opcode:?}: expected Error, got {other:?}"),
            }
            client.ping().expect("the connection keeps answering");
        }
        assert_eq!(server.counters().errors_internal.load(Ordering::Relaxed), 0);
    });
}

#[test]
fn truncated_header_then_hangup_never_wedges_the_server() {
    for_each_reactor(|reactor| {
        let server = serve(tiny_cluster(), NetConfig { reactor, ..Default::default() });
        // Drip half a header, then vanish.
        {
            let mut s = TcpStream::connect(server.local_addr()).expect("connect");
            s.write_all(&encode_frame(Opcode::Ping, 5, &[])[..HEADER_LEN / 2])
                .expect("half header");
            // dropped here — RST/FIN mid-frame
        }
        // Drip a full header promising a payload that never comes.
        {
            let mut s = TcpStream::connect(server.local_addr()).expect("connect");
            s.write_all(&encode_header(Header { opcode: Opcode::Query, req_id: 6, len: 100 }))
                .expect("header only");
        }
        // The server shrugs both off.
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        client.ping().expect("server survives truncated peers");
    });
}

#[test]
fn byte_at_a_time_delivery_still_parses() {
    for_each_reactor(|reactor| {
        let server = serve(tiny_cluster(), NetConfig { reactor, ..Default::default() });
        let mut s = TcpStream::connect(server.local_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let frame = encode_frame(Opcode::Ping, 11, &[]);
        for b in frame {
            s.write_all(&[b]).expect("one byte");
            std::thread::sleep(Duration::from_millis(1));
        }
        let (h, payload) = read_frame(&mut s).expect("pong");
        assert_eq!((h.opcode, h.req_id), (Opcode::Pong, 11));
        assert!(payload.is_empty());
    });
}

#[test]
fn http_get_scrapes_the_metrics_page() {
    for_each_reactor(|reactor| {
        let server = serve(tiny_cluster(), NetConfig { reactor, ..Default::default() });
        let mut s = TcpStream::connect(server.local_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").expect("request");
        let mut resp = String::new();
        s.read_to_string(&mut resp).expect("response until close");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains("sizel_net_connections_live"), "{resp}");
        assert!(resp.contains("sizel_refresh_lag"), "{resp}");
        // And the sizel-net protocol still runs beside the scraper
        // path.
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        client.ping().expect("frames after a scrape");
    });
}

/// The two octet spaces can never collide: every valid frame starts
/// with `MAGIC` ("LS"), no HTTP method starts with those bytes.
#[test]
fn magic_and_http_prefixes_are_disjoint() {
    let magic = MAGIC.to_le_bytes();
    assert_ne!(&magic[..], &b"GE"[..]);
    assert_eq!(magic, [0x4C, 0x53]); // "LS"
}

/// Interleave garbage connections with a live pipelined workload: the
/// well-behaved client must see every reply despite the chaos peers.
#[test]
fn chaos_peers_do_not_disturb_a_pipelined_client() {
    for_each_reactor(|reactor| {
        let server = serve(tiny_cluster(), NetConfig { reactor, ..Default::default() });
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
        let ids: Vec<u64> = (0..8).map(|_| client.send(Opcode::Ping, &[]).expect("send")).collect();
        // Chaos: bad magic, truncated, oversized, instant hangups.
        for junk in [&b"\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF"[..], &b"GE"[..], &b"\x4C"[..]] {
            let mut s = TcpStream::connect(server.local_addr()).expect("connect");
            let _ = s.write_all(junk);
        }
        for id in ids {
            let (op, _) = client.recv_for(id).expect("reply despite chaos");
            assert_eq!(op, Opcode::Pong);
        }
        let opts = QueryOptions { l: 5, ..Default::default() };
        let _ = client.query(&[("anything".to_owned(), opts)]).expect("still serving");
    });
}
