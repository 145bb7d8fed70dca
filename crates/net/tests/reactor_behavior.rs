//! Behavior the readiness rewrite added and must keep: the outbox byte
//! cap (the slow-reader admission gate), idle-connection reaping, and an
//! I/O thread that never waits on a lock — each proven on every reactor
//! backend via `for_each_reactor`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use sizel_core::engine::Mutation;
use sizel_core::test_fixtures::max_pk;
use sizel_net::frame::Opcode;
use sizel_net::wire::decode_reply;
use sizel_net::{BusyReason, NetClient, NetConfig, NetCounters, Reply};
use sizel_storage::Value;

mod common;
use common::{for_each_reactor, serve, tiny_cluster};

/// A peer that fires `Stats` requests without ever reading the replies:
/// once the kernel socket buffers are full, reply bytes pile up in the
/// connection's outbox until the byte cap trips and further requests
/// shed with `Busy(OutboxFull)`. Every request still gets exactly one
/// reply (the Busy frames are small and always fit eventually), the
/// accounting identity holds, and the connection keeps serving once the
/// peer finally drains.
#[test]
fn a_never_reading_peer_trips_the_outbox_cap_not_the_server() {
    for_each_reactor(|reactor| {
        let router = tiny_cluster();
        // A tiny outbox cap so the gate trips ahead of any timing
        // accident; budget and queue large enough that the other two
        // gates stay out of the way.
        let server = serve(
            router,
            NetConfig {
                dispatch_workers: 2,
                queue_capacity: 256,
                inflight_budget: 256,
                outbox_cap_bytes: 8 * 1024,
                reactor,
                ..Default::default()
            },
        );
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
        let counters = server.counters();

        // Ramp without reading until the cap trips: the first frames
        // land in kernel buffers, so the shed point depends on socket
        // buffer sizing — the loop is the portable way to reach it.
        let mut sent = 0usize;
        let deadline = Instant::now() + Duration::from_secs(30);
        while counters.shed_outbox.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "outbox cap never tripped after {sent} stats");
            assert!(sent < 4096, "outbox cap never tripped after {sent} stats");
            for _ in 0..16 {
                client.send(Opcode::Stats, &[]).expect("send stats");
                sent += 1;
            }
            std::thread::sleep(Duration::from_millis(20));
        }

        // Drain: exactly one reply per request, a mix of StatsText and
        // Busy(OutboxFull), nothing lost, nothing duplicated.
        let mut stats = 0usize;
        let mut busy = 0usize;
        for _ in 0..sent {
            let (_, op, payload) = client.recv_any().expect("every request gets a reply");
            match decode_reply(op, &payload).expect("decodes") {
                Reply::StatsText { .. } => stats += 1,
                Reply::Busy { reason } => {
                    assert_eq!(reason, BusyReason::OutboxFull);
                    busy += 1;
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert_eq!(stats + busy, sent);
        assert!(busy >= 1, "the cap tripped, so Busy frames must be on the wire");
        assert!(stats >= 1, "replies admitted before the cap must still arrive");
        assert_eq!(counters.shed_outbox.load(Ordering::Relaxed) as usize, busy);
        assert_eq!(counters.frames_in.load(Ordering::Relaxed) as usize, sent);
        assert_eq!(counters.frames_out.load(Ordering::Relaxed) as usize, sent);

        // The shed never poisoned the connection: now that the peer
        // reads again, it serves normally.
        client.ping().expect("connection serves after draining");
    });
}

/// An idle connection is reaped once `idle_timeout` passes with no
/// complete frame; the reaper counts it and the peer observes a close.
#[test]
fn an_idle_connection_is_reaped_after_the_window() {
    for_each_reactor(|reactor| {
        let router = tiny_cluster();
        let server = serve(
            router,
            NetConfig {
                idle_timeout: Some(Duration::from_millis(150)),
                reactor,
                ..Default::default()
            },
        );
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        client.ping().expect("first ping");

        // Go silent past the window (plus sweep-tick slack).
        let counters = server.counters();
        let deadline = Instant::now() + Duration::from_secs(10);
        while counters.idle_reaped.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "idle connection never reaped");
            std::thread::sleep(Duration::from_millis(25));
        }
        // The peer sees the close: the next receive is an EOF error,
        // never a frame.
        assert!(client.recv_any().is_err(), "reaped connection must read as closed");

        // The listener is unaffected — fresh connections serve.
        let mut fresh = NetClient::connect(server.local_addr()).expect("connect");
        fresh.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        fresh.ping().expect("fresh connection after a reap");
    });
}

/// The regression the reaper must never cause: a connection that keeps
/// pipelining (or is merely waiting on its own in-flight replies) is
/// NOT idle. Activity windows slide on every complete frame, so pinging
/// at half the window across several windows' worth of wall clock must
/// survive.
#[test]
fn a_pipelining_connection_is_never_reaped() {
    for_each_reactor(|reactor| {
        let router = tiny_cluster();
        let window = Duration::from_millis(200);
        let server =
            serve(router, NetConfig { idle_timeout: Some(window), reactor, ..Default::default() });
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");

        // 12 pings at 100ms spacing: 1.2s of wall clock, six windows
        // deep — any reap of an active connection fails the ping.
        for i in 0..12 {
            client.ping().unwrap_or_else(|e| panic!("ping {i} on an active connection: {e:?}"));
            std::thread::sleep(window / 2);
        }
        assert_eq!(
            server.counters().idle_reaped.load(Ordering::Relaxed),
            0,
            "an active connection was reaped"
        );
    });
}

/// Spins (1 ms naps) until `done`, failing the test after 30 s.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The metrics page reads every shard's engine lock, so while a writer
/// is parked on one the page cannot be rendered — and must not be
/// attempted on the I/O thread, where the wait would freeze every
/// connection. `fire` sends a page request without reading the reply,
/// `arrived` tells from the server's counters that it has been cut from
/// the socket, and `finish` reads the reply once the writer is through.
/// In between, a ping on another connection must answer.
fn a_parked_writer_delays_the_metrics_page_not_the_io_thread<C>(
    fire: impl Fn(SocketAddr) -> C,
    arrived: impl Fn(&NetCounters) -> bool,
    finish: impl Fn(C),
) {
    for_each_reactor(|reactor| {
        let router = tiny_cluster();
        let server = serve(router.clone(), NetConfig { reactor, ..Default::default() });
        let mut pinger = NetClient::connect(server.local_addr()).expect("connect");
        pinger.set_read_timeout(Some(Duration::from_secs(3))).expect("timeout");
        pinger.ping().expect("the connection is up");

        // Park a writer on shard 0's engine: hold a read guard, start an
        // apply, and wait until it queues behind the guard (`try_read`
        // fails from then on — std's lock prefers writers).
        let guard = router.shard(0).engine();
        let author = max_pk(guard.db(), "Author") + 1;
        let writer = std::thread::spawn({
            let router = router.clone();
            let row = vec![Value::Int(author), "Parked Writer".into()];
            move || router.apply_batch(vec![Mutation::insert("Author", row)]).expect("apply")
        });
        wait_until("the writer parks", || router.shard(0).try_engine().is_none());

        let pending = fire(server.local_addr());
        wait_until("the page request arrives", || arrived(server.counters()));
        pinger.ping().expect("the I/O thread serves while a page request waits on a lock");

        drop(guard);
        writer.join().expect("the writer finishes");
        finish(pending);
    });
}

#[test]
fn a_stats_frame_under_a_parked_writer_does_not_freeze_other_connections() {
    a_parked_writer_delays_the_metrics_page_not_the_io_thread(
        |addr| {
            let mut client = NetClient::connect(addr).expect("connect");
            client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
            let id = client.send(Opcode::Stats, &[]).expect("send");
            (client, id)
        },
        // The pinger's warm-up is frame one.
        |counters| counters.frames_in.load(Ordering::Relaxed) >= 2,
        |(mut client, id)| {
            let (op, payload) = client.recv_for(id).expect("the page arrives");
            assert_eq!(op, Opcode::StatsText);
            assert!(String::from_utf8_lossy(&payload).contains("sizel_cluster_epoch"));
        },
    );
}

#[test]
fn an_http_scrape_under_a_parked_writer_does_not_freeze_other_connections() {
    a_parked_writer_delays_the_metrics_page_not_the_io_thread(
        |addr| {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
            s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").expect("request");
            s
        },
        |counters| counters.http_scrapes.load(Ordering::Relaxed) >= 1,
        |mut s| {
            let mut resp = String::new();
            s.read_to_string(&mut resp).expect("response until close");
            assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
            assert!(resp.contains("sizel_cluster_epoch"), "{resp}");
        },
    );
}
