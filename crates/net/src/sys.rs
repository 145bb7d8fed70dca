//! Raw Linux syscall bindings for the readiness reactor (DESIGN.md
//! §9.4): `epoll` for socket readiness and `eventfd` for the dispatch
//! workers' doorbell.
//!
//! std already links libc, so declaring the symbols `extern "C"` gives
//! the reactor real kernel readiness with **no new dependency** — the
//! same no-registry-access constraint the vendored dev-deps live under.
//! Everything here is a thin, safe wrapper: raw fds are owned by [`Fd`]
//! (closed on drop), every call converts `-1` into
//! `io::Error::last_os_error()`, and `EINTR` is retried where POSIX
//! allows it to surface.

use std::io;
use std::os::raw::{c_int, c_uint, c_void};

// -- epoll event masks -------------------------------------------------

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write half; folded into "readable" so the next
/// `read` observes the EOF.
pub const EPOLLRDHUP: u32 = 0x2000;
/// One wake-up per event among the epoll instances watching the fd
/// (Linux 4.5+), not a wake-up of each: every reactor watches the one
/// listener with it.
pub const EPOLLEXCLUSIVE: u32 = 1 << 28;

// -- epoll_ctl ops and creation flags ----------------------------------

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
/// `O_CLOEXEC` — shared by `epoll_create1` and `eventfd`.
const CLOEXEC: c_int = 0o2000000;
/// `EFD_NONBLOCK` (`O_NONBLOCK`) — the doorbell drain must never park
/// a reactor.
const EFD_NONBLOCK: c_int = 0o4000;

/// The kernel's `struct epoll_event`. The x86-64 kernel ABI packs it
/// (4-byte `events` immediately followed by the 8-byte `data`); other
/// architectures use natural C layout — mirrored here exactly as the
/// kernel UAPI declares it.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

/// An owned raw file descriptor, closed on drop (the reactor's epoll
/// instance and doorbell eventfd; sockets stay owned by their
/// `TcpStream`s).
#[derive(Debug)]
pub struct Fd(c_int);

impl Fd {
    pub fn raw(&self) -> c_int {
        self.0
    }
}

impl Drop for Fd {
    fn drop(&mut self) {
        // Nothing actionable on a failed close of an fd we own outright.
        unsafe { close(self.0) };
    }
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// A fresh epoll instance (`EPOLL_CLOEXEC`).
pub fn epoll_create() -> io::Result<Fd> {
    cvt(unsafe { epoll_create1(CLOEXEC) }).map(Fd)
}

fn epoll_op(ep: &Fd, op: c_int, fd: c_int, mask: u32, token: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events: mask, data: token };
    cvt(unsafe { epoll_ctl(ep.raw(), op, fd, &mut ev) }).map(|_| ())
}

/// Registers `fd` for `mask` with `token` carried back in every event.
pub fn epoll_add(ep: &Fd, fd: c_int, mask: u32, token: u64) -> io::Result<()> {
    epoll_op(ep, EPOLL_CTL_ADD, fd, mask, token)
}

/// Changes an existing registration's mask (the EPOLLOUT toggle).
pub fn epoll_mod(ep: &Fd, fd: c_int, mask: u32, token: u64) -> io::Result<()> {
    epoll_op(ep, EPOLL_CTL_MOD, fd, mask, token)
}

/// Removes a registration. Closing the fd deregisters it too; this is
/// the explicit form used before a socket drops.
pub fn epoll_del(ep: &Fd, fd: c_int) -> io::Result<()> {
    epoll_op(ep, EPOLL_CTL_DEL, fd, 0, 0)
}

/// Blocks up to `timeout_ms` for readiness, retrying `EINTR`. Returns
/// how many events landed in `buf`.
pub fn epoll_wait_events(ep: &Fd, buf: &mut [EpollEvent], timeout_ms: c_int) -> io::Result<usize> {
    loop {
        let n = unsafe { epoll_wait(ep.raw(), buf.as_mut_ptr(), buf.len() as c_int, timeout_ms) };
        match cvt(n) {
            Ok(n) => return Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// A fresh doorbell eventfd (counter 0, nonblocking, cloexec).
pub fn eventfd_new() -> io::Result<Fd> {
    cvt(unsafe { eventfd(0, CLOEXEC | EFD_NONBLOCK) }).map(Fd)
}

/// Rings the doorbell: adds 1 to the eventfd counter, making it
/// readable. `EAGAIN` (counter saturated at `u64::MAX - 1`) still means
/// "a wakeup is pending", so it is success here.
pub fn eventfd_ring(fd: c_int) -> io::Result<()> {
    let one = 1u64.to_ne_bytes();
    let n = unsafe { write(fd, one.as_ptr() as *const c_void, one.len()) };
    if n == one.len() as isize {
        return Ok(());
    }
    let e = io::Error::last_os_error();
    if e.kind() == io::ErrorKind::WouldBlock {
        Ok(())
    } else {
        Err(e)
    }
}

/// Drains the doorbell (resets the counter to 0), returning how many
/// rings had accumulated since the last drain. `EAGAIN` means nobody
/// rang — 0.
pub fn eventfd_drain(fd: c_int) -> u64 {
    let mut buf = [0u8; 8];
    let n = unsafe { read(fd, buf.as_mut_ptr() as *mut c_void, buf.len()) };
    if n == buf.len() as isize {
        u64::from_ne_bytes(buf)
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_rings_accumulate_and_drain_once() {
        let fd = eventfd_new().expect("eventfd");
        assert_eq!(eventfd_drain(fd.raw()), 0, "fresh doorbell is silent");
        for _ in 0..3 {
            eventfd_ring(fd.raw()).expect("ring");
        }
        assert_eq!(eventfd_drain(fd.raw()), 3, "rings accumulate in the counter");
        assert_eq!(eventfd_drain(fd.raw()), 0, "one drain resets it");
    }

    #[test]
    fn epoll_sees_a_rung_doorbell_and_goes_quiet_after_drain() {
        let ep = epoll_create().expect("epoll");
        let bell = eventfd_new().expect("eventfd");
        epoll_add(&ep, bell.raw(), EPOLLIN, 7).expect("add");

        let mut buf = [EpollEvent { events: 0, data: 0 }; 4];
        // Silent doorbell: the wait times out empty.
        assert_eq!(epoll_wait_events(&ep, &mut buf, 0).expect("wait"), 0);

        eventfd_ring(bell.raw()).expect("ring");
        let n = epoll_wait_events(&ep, &mut buf, 1000).expect("wait");
        assert_eq!(n, 1);
        let (events, data) = (buf[0].events, buf[0].data);
        assert_ne!(events & EPOLLIN, 0);
        assert_eq!(data, 7, "the registration token rides back on the event");

        // Level-triggered: still readable until drained, silent after.
        assert_eq!(epoll_wait_events(&ep, &mut buf, 0).expect("wait"), 1);
        assert_eq!(eventfd_drain(bell.raw()), 1);
        assert_eq!(epoll_wait_events(&ep, &mut buf, 0).expect("wait"), 0);
    }
}
