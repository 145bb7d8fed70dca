//! A listener whose `accept` fails with `EMFILE` (the process is out of
//! file descriptors) must not spin the reactors: level-triggered epoll
//! reports the queued connection on every pass, so each reactor that
//! fails an accept stops watching the listener for a sweep tick. Every
//! reactor watches the one listener, so every one of them must rest it,
//! and the bounds below hold for all of them together. Once descriptors
//! free up, the queued connection is accepted and served.
//!
//! A test binary of its own: it lowers this process's `RLIMIT_NOFILE`
//! and fills the descriptor table, which would break any test running
//! beside it.

#![cfg(target_os = "linux")]

use std::fs::File;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use sizel_net::frame::{encode_frame, read_frame, Opcode};
use sizel_net::NetConfig;

mod common;
use common::{for_each_reactor, serve, tiny_cluster};

/// The kernel's `struct rlimit` (`rlim_t` is 64 bits on Linux).
#[repr(C)]
#[derive(Clone, Copy, Debug)]
struct Rlimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: i32 = 7;
const EMFILE: i32 = 24;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
}

fn nofile() -> Rlimit {
    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid, writable `struct rlimit` for the call.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }, 0, "getrlimit");
    lim
}

fn set_nofile(lim: Rlimit) {
    // SAFETY: `lim` is a valid `struct rlimit` the call only reads.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }, 0, "setrlimit {lim:?}");
}

/// The highest descriptor number this process has open.
fn highest_fd() -> u64 {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .max()
        .expect("some descriptor is open")
}

/// Opens `/dev/null` handles until the descriptor table is full.
fn fill(handles: &mut Vec<File>) {
    let err = loop {
        match File::open("/dev/null") {
            Ok(f) => handles.push(f),
            Err(e) => break e,
        }
    };
    assert_eq!(err.raw_os_error(), Some(EMFILE), "{err}");
}

/// Frees one descriptor of the full table and connects a client into
/// it, so the server's `accept` of the connection finds no descriptor.
/// Another thread of the process may take the freed slot first (the
/// client's `socket` then fails with `EMFILE`), or the table may have
/// had room elsewhere (the client's socket then gets another number, or
/// a further open succeeds): each time the table is refilled and the
/// step retried.
fn connect_into_the_last_slot(addr: SocketAddr, handles: &mut Vec<File>) -> TcpStream {
    for _ in 0..100 {
        fill(handles);
        let freed = handles.pop().expect("a handle to free");
        let fd = freed.as_raw_fd();
        drop(freed);
        match TcpStream::connect(addr) {
            Ok(client) if client.as_raw_fd() == fd => match File::open("/dev/null") {
                Err(e) if e.raw_os_error() == Some(EMFILE) => return client,
                Err(e) => panic!("open: {e}"),
                Ok(spare) => handles.push(spare),
            },
            Ok(_) => {}
            Err(e) if e.raw_os_error() == Some(EMFILE) => {}
            Err(e) => panic!("connect: {e}"),
        }
    }
    panic!("no attempt put the client into the one free descriptor");
}

#[test]
fn a_full_descriptor_table_rests_the_listener_instead_of_spinning() {
    for_each_reactor(|reactor| {
        // Several reactors, whatever the host's core count: each one
        // fails an accept per sweep tick at most, so the bounds below
        // hold for all of them together.
        let cfg = NetConfig { dispatch_workers: 4, reactor, ..Default::default() };
        let server = serve(tiny_cluster(), cfg);
        let counters = server.counters();
        let original = nofile();

        // A small table, filled with /dev/null handles; its one free
        // slot takes the client's socket, so the server's `accept` of it
        // fails.
        set_nofile(Rlimit { cur: highest_fd() + 16, ..original });
        let mut handles = Vec::new();
        let mut client = connect_into_the_last_slot(server.local_addr(), &mut handles);

        let deadline = Instant::now() + Duration::from_secs(10);
        while counters.accept_errors.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "{reactor:?}: accept never failed");
            std::thread::sleep(Duration::from_millis(1));
        }
        let before = counters.reactor_spurious.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(300));
        let spun = counters.reactor_spurious.load(Ordering::Relaxed) - before;
        let failed = counters.accept_errors.load(Ordering::Relaxed);

        // Descriptors again: the queued connection is accepted and served.
        set_nofile(original);
        drop(handles);
        assert!(spun < 50, "{reactor:?}: {spun} spurious wake-ups in 300 ms at EMFILE");
        assert!(failed < 50, "{reactor:?}: {failed} failed accepts in 300 ms");
        client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        client.write_all(&encode_frame(Opcode::Ping, 9, &[])).expect("ping");
        let (h, _) = read_frame(&mut client).expect("the queued connection answers");
        assert_eq!((h.opcode, h.req_id), (Opcode::Pong, 9));
    });
}
