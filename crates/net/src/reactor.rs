//! Readiness backends for the reactor threads (DESIGN.md §9.4).
//!
//! The `Reactor` trait is the narrow waist between the event loop in
//! [`server`](crate::server) and how readiness is learned. Every
//! reactor thread owns one backend:
//!
//! * `EpollReactor` (Linux) — level-triggered `epoll` over the
//!   listener (registered `EPOLLEXCLUSIVE`, so one pending connection
//!   wakes one of the reactors watching it) and the thread's own
//!   connections, plus an `eventfd` **doorbell**.
//! * `PollReactor` (portable) — the original sweep-everything loop,
//!   retained both as the non-Linux fallback and as a differential
//!   oracle for the epoll path: every suite runs against both backends.
//!   Its doorbell is a condvar, so a ring cuts the idle sleep short.
//!
//! ## The doorbell
//!
//! Requests run to completion on the thread that read them, so nothing
//! on the request path rings a reactor. The bell wakes a reactor parked
//! in its wait for the one event readiness cannot report: server
//! shutdown. The `WakeHub` keeps the handshake that makes a ring
//! impossible to lose:
//!
//! * the reactor **arms** the flag, then checks for shutdown, and only
//!   then waits;
//! * a ring writes the physical bell only if it observes `armed` set
//!   (swapping it off) — rings while the reactor is awake coalesce into
//!   nothing (counted);
//! * the eventfd itself is level-triggered and drained only by its
//!   reactor, so even a ring that races the `epoll_wait` entry is
//!   delivered by the next wait.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::metrics::NetCounters;

#[cfg(target_os = "linux")]
use crate::sys;
#[cfg(target_os = "linux")]
use std::os::fd::RawFd;
#[cfg(not(target_os = "linux"))]
type RawFd = i32;

/// Which backend [`NetServer`](crate::NetServer) should run its
/// reactors on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReactorChoice {
    /// `SIZEL_NET_REACTOR` if set (`"poll"`/`"epoll"`), else the
    /// platform default: epoll on Linux, the portable poll loop
    /// elsewhere.
    #[default]
    Auto,
    /// The sleep-poll sweep loop (portable).
    Poll,
    /// The epoll + eventfd reactor (Linux only; `bind` fails with
    /// `Unsupported` elsewhere).
    Epoll,
}

/// The backend a server actually resolved to (reported by
/// [`NetServer::reactor_kind`](crate::NetServer::reactor_kind) and on
/// the metrics page).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ReactorKind {
    /// Sleep-poll sweep.
    Poll = 1,
    /// epoll + eventfd doorbell.
    Epoll = 2,
}

impl ReactorKind {
    /// The label used in metrics and bench ids.
    pub fn name(self) -> &'static str {
        match self {
            ReactorKind::Poll => "poll",
            ReactorKind::Epoll => "epoll",
        }
    }

    /// Decodes the `NetCounters::reactor_backend` byte.
    pub fn from_u8(b: u8) -> Option<ReactorKind> {
        match b {
            1 => Some(ReactorKind::Poll),
            2 => Some(ReactorKind::Epoll),
            _ => None,
        }
    }
}

/// Fixed token for the listening socket.
pub(crate) const TOKEN_LISTENER: usize = 0;
/// Fixed token for the doorbell (never surfaced to the event loop; the
/// reactor drains it internally).
pub(crate) const TOKEN_DOORBELL: usize = 1;
/// First token handed to a connection (slab index + `TOKEN_BASE`).
pub(crate) const TOKEN_BASE: usize = 2;

/// One readiness fact delivered to the event loop.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    pub token: usize,
    pub readable: bool,
    pub writable: bool,
}

/// The bell half of the doorbell: what a ring physically does.
enum Bell {
    /// Write 1 to an eventfd registered in the epoll set.
    #[cfg(target_os = "linux")]
    Eventfd(sys::Fd),
    /// Set a flag under a mutex and notify the condvar the poll loop
    /// sleeps on.
    Flag { state: Mutex<bool>, cv: Condvar },
}

/// Shared between one reactor thread and the server handle: the
/// wake-up bell (protocol in the module docs).
pub(crate) struct WakeHub {
    /// True only while the reactor is (about to be) asleep.
    armed: AtomicBool,
    bell: Bell,
    counters: Arc<NetCounters>,
}

impl WakeHub {
    fn new(bell: Bell, counters: Arc<NetCounters>) -> Arc<WakeHub> {
        Arc::new(WakeHub { armed: AtomicBool::new(false), bell, counters })
    }

    /// Rings the bell iff the reactor is armed — rings while it is
    /// awake coalesce (one physical write per sleep at most).
    pub fn ring(&self) {
        if self.armed.swap(false, Ordering::SeqCst) {
            NetCounters::bump(&self.counters.doorbell_rings);
            match &self.bell {
                #[cfg(target_os = "linux")]
                Bell::Eventfd(fd) => {
                    let _ = sys::eventfd_ring(fd.raw());
                }
                Bell::Flag { state, cv } => {
                    *state.lock().unwrap_or_else(|p| p.into_inner()) = true;
                    cv.notify_one();
                }
            }
        } else {
            NetCounters::bump(&self.counters.doorbell_coalesced);
        }
    }

    /// Reactor side: declare "about to sleep". Must be followed by the
    /// shutdown check before actually waiting.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Reactor side: awake again; rings need no bell.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
    }

    /// Poll backend: sleep up to `dur` unless (or until) rung. Returns
    /// whether a ring cut the sleep short.
    fn flag_wait(&self, dur: Duration) -> bool {
        let Bell::Flag { state, cv } = &self.bell else {
            return false;
        };
        let mut st = state.lock().unwrap_or_else(|p| p.into_inner());
        if !*st {
            st = match cv.wait_timeout(st, dur) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
        std::mem::replace(&mut *st, false)
    }

    /// Poll backend, no-sleep path: consume a ring if one happened.
    fn flag_consume(&self) -> bool {
        let Bell::Flag { state, .. } = &self.bell else {
            return false;
        };
        std::mem::replace(&mut *state.lock().unwrap_or_else(|p| p.into_inner()), false)
    }
}

/// What the event loop needs from a readiness backend.
pub(crate) trait Reactor: Send {
    /// Which backend this is (metrics + test labels).
    fn kind(&self) -> ReactorKind;

    /// The doorbell hub shared with the server handle.
    fn hub(&self) -> &Arc<WakeHub>;

    /// Starts watching `fd` for readability under `token`.
    fn register(&mut self, fd: RawFd, token: usize) -> io::Result<()>;

    /// Sets the readiness interest of an already registered fd: read
    /// until the connection stops reading (the peer's EOF or a scheduled
    /// close), write only while it has unflushed reply bytes.
    fn set_interest(&mut self, fd: RawFd, token: usize, read: bool, write: bool) -> io::Result<()>;

    /// Stops watching `fd` (best-effort; the fd closes right after).
    fn deregister(&mut self, fd: RawFd, token: usize);

    /// Fills `events` with ready tokens, blocking up to `timeout` (the
    /// idle/reap sweep tick). `progressed` says whether the previous
    /// pass moved bytes — the poll backend uses it to decide whether it
    /// may sleep; epoll ignores it. Returns true when woken by real
    /// readiness or the doorbell (false = plain tick expiry).
    fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration, progressed: bool) -> bool;
}

// ---------------------------------------------------------------------
// EpollReactor (Linux)
// ---------------------------------------------------------------------

/// Level-triggered epoll over every fd plus the eventfd doorbell.
#[cfg(target_os = "linux")]
pub(crate) struct EpollReactor {
    ep: sys::Fd,
    /// Raw doorbell fd (owned by the hub's `Bell::Eventfd`).
    bell_fd: RawFd,
    hub: Arc<WakeHub>,
    buf: Vec<sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollReactor {
    pub fn new(counters: Arc<NetCounters>) -> io::Result<EpollReactor> {
        let ep = sys::epoll_create()?;
        let bell = sys::eventfd_new()?;
        let bell_fd = bell.raw();
        sys::epoll_add(&ep, bell_fd, sys::EPOLLIN, TOKEN_DOORBELL as u64)?;
        let hub = WakeHub::new(Bell::Eventfd(bell), counters);
        Ok(EpollReactor {
            ep,
            bell_fd,
            hub,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; 128],
        })
    }

    fn read_mask() -> u32 {
        sys::EPOLLIN | sys::EPOLLRDHUP
    }
}

#[cfg(target_os = "linux")]
impl Reactor for EpollReactor {
    fn kind(&self) -> ReactorKind {
        ReactorKind::Epoll
    }

    fn hub(&self) -> &Arc<WakeHub> {
        &self.hub
    }

    fn register(&mut self, fd: RawFd, token: usize) -> io::Result<()> {
        if token == TOKEN_LISTENER {
            // Every reactor watches the one listener; an exclusive wait
            // wakes one reactor per pending connection, not all of them.
            // A kernel without the flag wakes them all, and the losers'
            // accepts read `WouldBlock`.
            return sys::epoll_add(&self.ep, fd, sys::EPOLLIN | sys::EPOLLEXCLUSIVE, token as u64)
                .or_else(|_| sys::epoll_add(&self.ep, fd, sys::EPOLLIN, token as u64));
        }
        sys::epoll_add(&self.ep, fd, Self::read_mask(), token as u64)
    }

    fn set_interest(&mut self, fd: RawFd, token: usize, read: bool, write: bool) -> io::Result<()> {
        let mask = if read { Self::read_mask() } else { 0 } | if write { sys::EPOLLOUT } else { 0 };
        sys::epoll_mod(&self.ep, fd, mask, token as u64)
    }

    fn deregister(&mut self, fd: RawFd, _token: usize) {
        let _ = sys::epoll_del(&self.ep, fd);
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration, _progressed: bool) -> bool {
        events.clear();
        let timeout_ms = timeout.as_millis().min(i32::MAX as u128).max(1) as i32;
        let n = sys::epoll_wait_events(&self.ep, &mut self.buf, timeout_ms).unwrap_or(0);
        let mut woke = false;
        for ev in &self.buf[..n] {
            // Copy out of the (packed) kernel struct before use.
            let (mask, token) = (ev.events, ev.data as usize);
            woke = true;
            if token == TOKEN_DOORBELL {
                sys::eventfd_drain(self.bell_fd);
                continue;
            }
            // Errors and hangups surface as readiness on both sides so
            // the next read/write observes the failure directly.
            let fail = mask & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
            events.push(Event {
                token,
                readable: fail || mask & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: fail || mask & sys::EPOLLOUT != 0,
            });
        }
        woke
    }
}

// ---------------------------------------------------------------------
// PollReactor (portable fallback + differential oracle)
// ---------------------------------------------------------------------

/// Idle sleep between sweeps when nothing moved — the retained latency
/// floor of the portable loop (PR 7's `IDLE_SLEEP`), interruptible by
/// the doorbell.
pub(crate) const POLL_IDLE_SLEEP: Duration = Duration::from_micros(300);

/// The sweep-everything loop behind the `Reactor` interface: every
/// registered token is reported ready on every pass, and "waiting" is
/// the old idle sleep (condvar-backed, so a doorbell ends it early).
pub(crate) struct PollReactor {
    hub: Arc<WakeHub>,
    tokens: Vec<usize>,
}

impl PollReactor {
    pub fn new(counters: Arc<NetCounters>) -> PollReactor {
        let bell = Bell::Flag { state: Mutex::new(false), cv: Condvar::new() };
        PollReactor { hub: WakeHub::new(bell, counters), tokens: Vec::new() }
    }
}

impl Reactor for PollReactor {
    fn kind(&self) -> ReactorKind {
        ReactorKind::Poll
    }

    fn hub(&self) -> &Arc<WakeHub> {
        &self.hub
    }

    fn register(&mut self, _fd: RawFd, token: usize) -> io::Result<()> {
        self.tokens.push(token);
        Ok(())
    }

    fn set_interest(&mut self, _: RawFd, _: usize, _: bool, _: bool) -> io::Result<()> {
        Ok(()) // the sweep always attempts both directions
    }

    fn deregister(&mut self, _fd: RawFd, token: usize) {
        self.tokens.retain(|t| *t != token);
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration, progressed: bool) -> bool {
        let woke = if progressed {
            // Bytes moved last pass: sweep again immediately (the old
            // loop's hot path), just consuming any ring.
            self.hub.flag_consume()
        } else {
            self.hub.flag_wait(POLL_IDLE_SLEEP.min(timeout))
        };
        events.clear();
        events.extend(self.tokens.iter().map(|&token| Event {
            token,
            readable: true,
            writable: true,
        }));
        woke
    }
}

// ---------------------------------------------------------------------
// Resolution
// ---------------------------------------------------------------------

/// Resolves `Auto` through `SIZEL_NET_REACTOR` / the platform default
/// and constructs the backend. Called once by `NetServer::bind`.
pub(crate) fn build_reactor(
    choice: ReactorChoice,
    counters: &Arc<NetCounters>,
) -> io::Result<Box<dyn Reactor>> {
    let env = std::env::var("SIZEL_NET_REACTOR").ok();
    let resolved = resolve_choice(choice, env.as_deref())?;
    match resolved {
        ReactorChoice::Poll => Ok(Box::new(PollReactor::new(Arc::clone(counters)))),
        #[cfg(target_os = "linux")]
        ReactorChoice::Epoll => Ok(Box::new(EpollReactor::new(Arc::clone(counters))?)),
        #[cfg(not(target_os = "linux"))]
        ReactorChoice::Epoll => Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the epoll reactor requires Linux; use ReactorChoice::Poll",
        )),
        ReactorChoice::Auto => unreachable!("Auto resolved above"),
    }
}

/// The pure half of resolution: `Auto` consults the (already read)
/// `SIZEL_NET_REACTOR` value, explicit choices ignore it; unknown env
/// values are errors, never a silent fallback.
fn resolve_choice(choice: ReactorChoice, env: Option<&str>) -> io::Result<ReactorChoice> {
    match choice {
        ReactorChoice::Auto => match env {
            Some("poll") => Ok(ReactorChoice::Poll),
            Some("epoll") => Ok(ReactorChoice::Epoll),
            Some(v) => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("SIZEL_NET_REACTOR must be `poll` or `epoll`, got `{v}`"),
            )),
            None if cfg!(target_os = "linux") => Ok(ReactorChoice::Epoll),
            None => Ok(ReactorChoice::Poll),
        },
        explicit => Ok(explicit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> Arc<NetCounters> {
        Arc::new(NetCounters::default())
    }

    /// Every backend available here, for the doorbell-protocol tests
    /// that are identical across them.
    fn backends(c: &Arc<NetCounters>) -> Vec<Box<dyn Reactor>> {
        let mut v: Vec<Box<dyn Reactor>> = vec![Box::new(PollReactor::new(Arc::clone(c)))];
        #[cfg(target_os = "linux")]
        v.push(Box::new(EpollReactor::new(Arc::clone(c)).expect("epoll reactor")));
        v
    }

    #[test]
    fn a_ring_before_the_wait_is_never_lost() {
        let c = counters();
        for mut r in backends(&c) {
            let hub = Arc::clone(r.hub());
            let mut events = Vec::new();
            // Ring lands while armed, before the wait begins: the wait
            // must return woken immediately (eventfd stays readable /
            // the flag stays set), not block out the full timeout.
            hub.arm();
            hub.ring();
            let start = std::time::Instant::now();
            let woke = r.wait(&mut events, Duration::from_secs(5), false);
            assert!(woke, "{:?} lost a pre-wait ring", r.kind());
            assert!(
                start.elapsed() < Duration::from_secs(1),
                "{:?} waited out the timeout despite a pending ring",
                r.kind()
            );
            hub.disarm();
        }
    }

    #[test]
    fn a_concurrent_ring_wakes_the_wait() {
        let c = counters();
        for mut r in backends(&c) {
            let hub = Arc::clone(r.hub());
            hub.arm();
            let ringer = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                hub.ring();
            });
            let start = std::time::Instant::now();
            let mut events = Vec::new();
            // Epoll parks the full timeout and is woken by the ring;
            // poll sweeps in 300µs ticks and must observe it on one of
            // them. Either way the ring ends the waiting well before
            // the deadline.
            let mut woke = false;
            while !woke && start.elapsed() < Duration::from_secs(10) {
                woke = r.wait(&mut events, Duration::from_secs(10), false);
            }
            ringer.join().expect("ringer");
            assert!(woke, "{:?} slept through a concurrent ring", r.kind());
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "{:?} took {:?} to observe the ring",
                r.kind(),
                start.elapsed()
            );
            r.hub().disarm();
        }
    }

    #[test]
    fn rings_coalesce_to_one_bell_write_per_sleep() {
        let c = counters();
        for r in backends(&c) {
            let hub = r.hub();
            let rings_before = NetCounters::get(&c.doorbell_rings);
            let coalesced_before = NetCounters::get(&c.doorbell_coalesced);
            hub.arm();
            // A burst of rings while the reactor sleeps: the first
            // disarms and writes the bell, the rest see the disarmed flag
            // and coalesce.
            for _ in 0..8 {
                hub.ring();
            }
            assert_eq!(
                NetCounters::get(&c.doorbell_rings) - rings_before,
                1,
                "{:?}: exactly one physical bell write per burst",
                r.kind()
            );
            assert_eq!(NetCounters::get(&c.doorbell_coalesced) - coalesced_before, 7);
            hub.disarm();
        }
    }

    #[test]
    fn a_disarmed_ring_writes_no_bell() {
        let c = counters();
        for r in backends(&c) {
            let hub = r.hub();
            let rings_before = NetCounters::get(&c.doorbell_rings);
            let coalesced_before = NetCounters::get(&c.doorbell_coalesced);
            // Reactor awake (disarmed): the ring coalesces, and the next
            // wait is not cut short by it.
            hub.ring();
            assert_eq!(NetCounters::get(&c.doorbell_rings), rings_before);
            assert_eq!(NetCounters::get(&c.doorbell_coalesced) - coalesced_before, 1);
        }
    }

    #[test]
    fn poll_wait_sleeps_only_when_nothing_progressed() {
        let c = counters();
        let mut r = PollReactor::new(Arc::clone(&c));
        r.register(0, TOKEN_LISTENER).expect("register");
        r.register(0, TOKEN_BASE).expect("register");
        let mut events = Vec::new();

        // Progressed pass: no sleep, full synthetic sweep.
        let start = std::time::Instant::now();
        let woke = r.wait(&mut events, Duration::from_secs(1), true);
        assert!(start.elapsed() < Duration::from_millis(100));
        assert!(!woke);
        let tokens: Vec<usize> = events.iter().map(|e| e.token).collect();
        assert_eq!(tokens, vec![TOKEN_LISTENER, TOKEN_BASE]);
        assert!(events.iter().all(|e| e.readable && e.writable));

        // Idle pass: sleeps the (condvar) idle tick, still sweeps.
        let woke = r.wait(&mut events, Duration::from_secs(1), false);
        assert!(!woke);
        assert_eq!(events.len(), 2);

        // Deregistered tokens leave the sweep.
        r.deregister(0, TOKEN_BASE);
        r.wait(&mut events, Duration::from_secs(1), true);
        assert_eq!(events.len(), 1);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_reports_only_ready_fds() {
        use std::io::Write;
        use std::os::fd::AsRawFd;

        let c = counters();
        let mut r = EpollReactor::new(Arc::clone(&c)).expect("epoll reactor");
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        r.register(listener.as_raw_fd(), TOKEN_LISTENER).expect("register");

        // Quiet socket: tick expiry, no events, not a wakeup.
        let mut events = Vec::new();
        let woke = r.wait(&mut events, Duration::from_millis(10), false);
        assert!(!woke);
        assert!(events.is_empty());

        // A connection attempt makes the listener readable.
        let mut peer =
            std::net::TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let woke = r.wait(&mut events, Duration::from_secs(5), false);
        assert!(woke);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, TOKEN_LISTENER);
        assert!(events[0].readable && !events[0].writable);

        // Accept, register the conn, and see EPOLLIN only when bytes land.
        let (conn, _) = listener.accept().expect("accept");
        conn.set_nonblocking(true).expect("nonblocking");
        r.register(conn.as_raw_fd(), TOKEN_BASE).expect("register conn");
        peer.write_all(b"hello").expect("write");
        let woke = r.wait(&mut events, Duration::from_secs(5), false);
        assert!(woke);
        assert!(events.iter().any(|e| e.token == TOKEN_BASE && e.readable));

        // EPOLLOUT toggling: an idle loopback socket is instantly
        // writable, but only once write interest is on.
        assert!(!events.iter().any(|e| e.token == TOKEN_BASE && e.writable));
        r.set_interest(conn.as_raw_fd(), TOKEN_BASE, true, true).expect("toggle on");
        let woke = r.wait(&mut events, Duration::from_secs(5), false);
        assert!(woke);
        assert!(events.iter().any(|e| e.token == TOKEN_BASE && e.writable));
        r.set_interest(conn.as_raw_fd(), TOKEN_BASE, true, false).expect("toggle off");

        // Without read interest the unread bytes (or a peer's EOF) stop
        // being reported: level-triggered epoll would repeat them on
        // every pass otherwise.
        r.set_interest(conn.as_raw_fd(), TOKEN_BASE, false, false).expect("reads off");
        let woke = r.wait(&mut events, Duration::from_millis(10), false);
        assert!(!woke && events.is_empty(), "a conn that stopped reading is quiet");
        r.deregister(conn.as_raw_fd(), TOKEN_BASE);
    }

    #[test]
    fn env_override_rejects_unknown_backends() {
        // The pure resolver, no process-global env mutation needed.
        assert_eq!(
            resolve_choice(ReactorChoice::Auto, Some("poll")).expect("poll"),
            ReactorChoice::Poll
        );
        assert_eq!(
            resolve_choice(ReactorChoice::Auto, Some("epoll")).expect("epoll"),
            ReactorChoice::Epoll
        );
        let err = resolve_choice(ReactorChoice::Auto, Some("kqueue")).expect_err("unknown");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // Explicit choices never consult the env — even a garbage value
        // is ignored.
        assert_eq!(
            resolve_choice(ReactorChoice::Poll, Some("garbage")).expect("explicit"),
            ReactorChoice::Poll
        );
        // And the built backends report their own kind.
        let c = counters();
        assert_eq!(build_reactor(ReactorChoice::Poll, &c).expect("poll").kind(), ReactorKind::Poll);
        #[cfg(target_os = "linux")]
        assert_eq!(
            build_reactor(ReactorChoice::Epoll, &c).expect("epoll").kind(),
            ReactorKind::Epoll
        );
    }
}
