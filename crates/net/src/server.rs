//! The TCP front-end itself (DESIGN.md §9.3–§9.4, §9.6).
//!
//! `NetConfig::dispatch_workers` **reactor threads** serve the one
//! listener. Each watches it, accepts what it is woken for, and owns the
//! connections it accepted for their whole life: it reads their bytes,
//! cuts complete frames, and runs every request **to completion** on
//! its own thread — decode, the [`ClusterRouter`] call (a cache miss is
//! computed right there), encode — before it flushes the replies back
//! to the socket. No request crosses a thread, so there is no queue, no
//! reply hand-off and no doorbell on the request path: the thread that
//! allocates a connection's summaries is the thread that reads its
//! frames.
//!
//! What a request costs its reactor is the price of that design: while
//! one request runs (a cold summary, an `ApplyBatch` and its WAL fsync,
//! a query parked behind a writer on the engine lock), the other
//! connections of the same reactor wait for it. Connections on other
//! reactors do not. The one exception is the metrics page (`Stats`, or
//! a plain-HTTP scrape), which only observes: while a writer holds or
//! waits for the engine lock, the page waits on its connection and the
//! reactor retries it every `PAGE_RETRY`, serving its other connections
//! in between (see `Page`).
//!
//! ## The zero-copy wire path (DESIGN.md §9.6)
//!
//! At steady state a request crosses the server with no allocator
//! traffic and a single payload copy (socket → `inbuf`):
//!
//! * Inbound frames are parsed **in place**: the connection's
//!   `RecvBuf` hands out borrowed payload slices, decoded where they
//!   lie, and consumed frames advance a cursor instead of shifting the
//!   tail per parse.
//! * Reply frames are built **once**, header and payload together, in a
//!   buffer from the reactor's [`BufPool`] free list
//!   ([`begin_frame`]/`encode_*_into`/[`finish_frame`]), queued as-is,
//!   flushed with one `write_vectored` syscall per batch, and recycled
//!   back to the pool the moment the kernel has taken their last byte.
//!
//! ## Readiness
//!
//! *When* a reactor runs is its `Reactor`'s business (DESIGN.md §9.4):
//! on Linux an epoll instance reports exactly which sockets have bytes
//! (or, while a connection has unflushed replies, room), and the
//! listener is registered `EPOLLEXCLUSIVE` in every reactor's instance,
//! so one connection wakes one reactor, not all of them. The portable
//! fallback (`ReactorChoice::Poll`) sweeps every socket each pass and
//! tolerates the `WouldBlock` of an accept another reactor won; it is
//! retained as a differential oracle, and every net suite runs against
//! both.
//!
//! Connections live in a per-reactor **slab** indexed by their reactor
//! token, so an event maps to its connection without hashing, and
//! tokens recycle through a free list as peers come and go.
//!
//! ## Backpressure and shedding
//!
//! One gate bounds what a client can park in the server: the
//! **per-connection outbox byte cap** (`NetConfig::outbox_cap_bytes`).
//! A peer that stops *reading* (while its kernel buffers are full)
//! cannot grow server memory without bound — once its unflushed reply
//! bytes reach the cap, further requests shed with `Busy(OutboxFull)`
//! until they drain. A shed is rejected **before** execution (no
//! partial effects) and is never silent. How many requests a
//! connection has in flight needs no gate of its own: a reactor reads
//! a connection's next frames only after answering the ones before.
//!
//! Idle peers are bounded too: with `NetConfig::idle_timeout` set, a
//! connection that completes no frame for the window — and has nothing
//! unflushed or waiting — is closed on the reactor's sweep tick.
//!
//! ## Panic containment
//!
//! Every request executes under `catch_unwind`: a handler panic becomes
//! an `Error(Internal)` reply on that request and the reactor moves on.
//! This is the stack's one panic boundary — the layers below spawn no
//! request threads, so a panic anywhere in a request unwinds to here.
//! Combined with the poison-recovering locks underneath (cache shards,
//! hot sketch), one bad request degrades one reply — it cannot take
//! down the connection, the reactor, or the shared serving state.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sizel_cluster::ClusterRouter;

use crate::buf::BufPool;
use crate::frame::{
    begin_frame, decode_header, finish_frame, BusyReason, ErrorCode, FrameError, Opcode,
    HEADER_LEN, MAX_FRAME_LEN,
};
use crate::metrics::{http_response, render_metrics, NetCounters};
use crate::reactor::{
    build_reactor, Event, Reactor, ReactorChoice, ReactorKind, WakeHub, TOKEN_BASE, TOKEN_LISTENER,
};
use crate::wire::{
    decode_request, encode_applied_into, encode_busy_into, encode_error_into, encode_results_into,
    encode_stats_into, encode_summary_into, Request,
};

#[cfg(unix)]
use std::os::fd::AsRawFd;

/// Front-end construction parameters.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Reactor threads. Each accepts from the one listener, owns the
    /// connections it accepted, and runs their requests to completion
    /// (decode, router call, encode) — the only request-serving threads
    /// in the stack, a cache miss included, so the default is one per
    /// core.
    pub dispatch_workers: usize,
    /// Per-connection cap on encoded-but-unflushed reply bytes; while
    /// reached, new requests shed with `Busy(OutboxFull)` (the
    /// slow-reader gate, the front-end's one admission gate).
    pub outbox_cap_bytes: usize,
    /// Close a connection that completes no frame for this window (and
    /// has nothing unflushed or waiting). `None` disables reaping.
    pub idle_timeout: Option<Duration>,
    /// Readiness backend; `Auto` resolves `SIZEL_NET_REACTOR` then the
    /// platform default (epoll on Linux, the sweep loop elsewhere).
    pub reactor: ReactorChoice,
    /// Pre-size hint for per-connection receive buffers and pooled frame
    /// buffers.
    pub initial_buf_bytes: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(4);
        NetConfig {
            dispatch_workers: cores,
            outbox_cap_bytes: 16 * 1024 * 1024,
            idle_timeout: None,
            reactor: ReactorChoice::Auto,
            initial_buf_bytes: 4096,
        }
    }
}

/// The per-connection receive buffer: consumed frames advance a cursor
/// (O(1)) instead of draining the vector's front (O(remaining bytes)
/// per frame); the consumed prefix is dropped at most **once per read
/// pass**, when the next socket read appends.
struct RecvBuf {
    buf: Vec<u8>,
    /// Bytes before this offset are consumed.
    start: usize,
}

impl RecvBuf {
    fn with_capacity(cap: usize) -> Self {
        RecvBuf { buf: Vec::with_capacity(cap), start: 0 }
    }

    /// The received-but-unparsed bytes.
    fn data(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Marks `n` leading bytes consumed — constant-time; no bytes move.
    fn consume(&mut self, n: usize) {
        self.start += n;
        debug_assert!(self.start <= self.buf.len());
        if self.start == self.buf.len() {
            // Fully caught up (the steady state): rewind for free.
            self.buf.clear();
            self.start = 0;
        }
    }

    /// Appends freshly read bytes, compacting the consumed prefix first
    /// — one memmove per read pass, however many frames were parsed.
    fn extend(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.start = 0;
    }
}

/// A metrics page a connection is owed while a writer holds or waits
/// for the engine lock. Rendering it reads that lock, so rendering now
/// would park the whole reactor behind the writer; instead the
/// connection waits (its later frames stay unread, so its replies keep
/// request order) and the reactor retries the page every `PAGE_RETRY`.
/// Past `PAGE_WAIT_MAX` it renders anyway, waiting in place like any
/// other request — which also answers a page on a poisoned engine,
/// where the lock never frees, with the renderer's `Error(Internal)`.
#[derive(Clone, Copy)]
struct Page {
    /// The `Stats` frame's id (unread for an HTTP scrape).
    req_id: u64,
    /// A plain-HTTP scrape: the reply is the page as an HTTP response.
    http: bool,
    /// When the page started waiting.
    since: Instant,
}

/// How often a reactor retries a waiting page.
const PAGE_RETRY: Duration = Duration::from_millis(1);

/// How long a page waits for the engine lock before it renders anyway.
const PAGE_WAIT_MAX: Duration = Duration::from_secs(2);

/// Per-connection state, owned by the reactor that accepted it.
struct Conn {
    stream: TcpStream,
    /// This connection's reactor token (slab index + `TOKEN_BASE`).
    token: usize,
    /// Received-but-unparsed bytes.
    inbuf: RecvBuf,
    /// Reply frames awaiting the kernel. The front frame is written
    /// from `wq_off`; fully written frames recycle to the pool.
    wq: VecDeque<Vec<u8>>,
    wq_off: usize,
    /// Total unwritten bytes across `wq` (what the outbox gate compares
    /// against the cap).
    wq_unwritten: usize,
    /// A metrics page waiting for the engine lock.
    page: Option<Page>,
    /// The stream failed.
    dead: bool,
    /// Stop reading/parsing; flush the outbox and close. Set by the
    /// peer's EOF, by protocol errors and by the HTTP scrape path.
    close_after_flush: bool,
    /// The connection turned out to be a plain-HTTP scraper.
    http: bool,
    /// Read-readiness interest currently registered with the reactor
    /// (on until `close_after_flush`).
    want_read: bool,
    /// Write-readiness interest currently registered with the reactor
    /// (on only while reply bytes are unflushed).
    want_write: bool,
    /// When the last complete frame was cut (idle reaping's clock;
    /// starts at accept).
    last_frame: Instant,
}

impl Conn {
    /// Queues one encoded reply frame for the next flush.
    fn push_reply(&mut self, counters: &NetCounters, frame: Vec<u8>) {
        self.wq_unwritten += frame.len();
        self.wq.push_back(frame);
        NetCounters::bump(&counters.frames_out);
    }

    #[cfg(unix)]
    fn fd(&self) -> i32 {
        self.stream.as_raw_fd()
    }

    #[cfg(not(unix))]
    fn fd(&self) -> i32 {
        -1
    }
}

/// What one reactor's handlers read: the shared router and counters,
/// the reactor's own buffer pool, and the server's knobs.
struct Ctx<'a> {
    router: &'a ClusterRouter,
    counters: &'a NetCounters,
    pool: &'a BufPool,
    outbox_cap: usize,
    idle_timeout: Option<Duration>,
    initial_buf: usize,
}

/// The running front-end. Dropping it stops and joins every reactor.
pub struct NetServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
    router: Arc<ClusterRouter>,
    /// Each reactor's wake-up bell (rung once, at shutdown).
    hubs: Vec<Arc<WakeHub>>,
    kind: ReactorKind,
    reactors: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `router` over it.
    pub fn bind(router: Arc<ClusterRouter>, addr: &str, cfg: NetConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let listener = Arc::new(listener);
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(NetCounters::default());
        let backends = (0..cfg.dispatch_workers.max(1))
            .map(|_| build_reactor(cfg.reactor, &counters))
            .collect::<io::Result<Vec<_>>>()?;
        let kind = backends[0].kind();
        counters.reactor_backend.store(kind as u8, Ordering::Relaxed);
        let hubs = backends.iter().map(|r| Arc::clone(r.hub())).collect();
        let (outbox_cap, initial_buf) =
            (cfg.outbox_cap_bytes.max(1), cfg.initial_buf_bytes.max(64));

        let reactors = backends
            .into_iter()
            .enumerate()
            .map(|(i, reactor)| {
                let listener = Arc::clone(&listener);
                let shutdown = Arc::clone(&shutdown);
                let router = Arc::clone(&router);
                let counters = Arc::clone(&counters);
                std::thread::Builder::new()
                    .name(format!("sizel-net-{i}"))
                    .spawn(move || {
                        // Each reactor recycles its own frames: the
                        // buffers it allocates are the ones it frees.
                        let pool = BufPool::new(initial_buf, Arc::clone(&counters));
                        let ctx = Ctx {
                            router: &router,
                            counters: &counters,
                            pool: &pool,
                            outbox_cap,
                            idle_timeout: cfg.idle_timeout,
                            initial_buf,
                        };
                        reactor_loop(&listener, &shutdown, &ctx, reactor)
                    })
                    .expect("spawn net reactor")
            })
            .collect();

        Ok(NetServer { addr: local, shutdown, counters, router, hubs, kind, reactors })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The front-end's live counters.
    pub fn counters(&self) -> &NetCounters {
        &self.counters
    }

    /// The served cluster (for in-process oracles in tests/benches).
    pub fn router(&self) -> &Arc<ClusterRouter> {
        &self.router
    }

    /// Which readiness backend the reactors are running on.
    pub fn reactor_kind(&self) -> ReactorKind {
        self.kind
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // A reactor may be parked in its wait: ring it out.
        for hub in &self.hubs {
            hub.ring();
        }
        for h in self.reactors.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// Request execution
// ---------------------------------------------------------------------

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("handler panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("handler panicked: {s}")
    } else {
        "handler panicked".to_owned()
    }
}

/// Decodes and executes one request, appending the reply payload to
/// `out` (which already holds the frame header) and returning the reply
/// opcode for [`finish_frame`] to stamp — the only place a [`Request`]
/// is decoded and matched.
fn handle_request_into(
    router: &ClusterRouter,
    counters: &NetCounters,
    opcode: Opcode,
    payload: &[u8],
    out: &mut Vec<u8>,
) -> Opcode {
    let request = match decode_request(opcode, payload) {
        Ok(r) => r,
        Err(e) => {
            NetCounters::bump(&counters.errors_malformed);
            encode_error_into(out, ErrorCode::MalformedPayload, &e.to_string());
            return Opcode::Error;
        }
    };
    let executed = match request {
        Request::Ping => Ok(Opcode::Pong),
        Request::Stats => {
            encode_stats_into(out, &render_metrics(counters, router));
            Ok(Opcode::StatsText)
        }
        Request::Query { requests } => router.batch_query_at(&requests).map(|(epoch, results)| {
            encode_results_into(out, epoch, &results);
            Opcode::Results
        }),
        Request::Summarize { tds, opts } => {
            router.summarize_at(tds, opts).map(|(epoch, result)| {
                encode_summary_into(out, epoch, &result);
                Opcode::Summary
            })
        }
        Request::ApplyBatch { mutations } => router.apply_batch(mutations).map(|epoch| {
            encode_applied_into(out, epoch);
            Opcode::Applied
        }),
    };
    // Well-formed but rejected by the cluster.
    executed.unwrap_or_else(|e| {
        NetCounters::bump(&counters.errors_bad_request);
        encode_error_into(out, ErrorCode::BadRequest, &e.to_string());
        Opcode::Error
    })
}

/// Runs one request to completion on this reactor and returns its
/// reply frame, built in one pooled buffer: header first (placeholder
/// opcode — the real one is known only after the handler runs), payload
/// appended in place, then sealed. A panicking handler costs exactly one
/// reply: it is caught here and answered `Error(Internal)`; the state
/// the panic touched recovers via the poison-safe locks underneath.
fn execute(ctx: &Ctx, opcode: Opcode, req_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = ctx.pool.acquire();
    begin_frame(&mut frame, Opcode::Error, req_id);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        handle_request_into(ctx.router, ctx.counters, opcode, payload, &mut frame)
    }));
    let reply_op = outcome.unwrap_or_else(|panic| {
        NetCounters::bump(&ctx.counters.errors_internal);
        // The handler may have died mid-encode: keep the header, drop
        // whatever partial payload it left.
        frame.truncate(HEADER_LEN);
        encode_error_into(&mut frame, ErrorCode::Internal, &panic_message(&panic));
        Opcode::Error
    });
    finish_frame(&mut frame, reply_op);
    NetCounters::bump(&ctx.counters.fastpath_hits);
    frame
}

/// Answers `page` now, unless a writer holds or waits for the engine
/// lock and the page has waited less than `PAGE_WAIT_MAX`. Returns
/// whether it answered.
fn try_page(conn: &mut Conn, ctx: &Ctx, page: Page) -> bool {
    // The probe's guard drops at once: holding it across the render
    // would park the render's own read behind a queued writer.
    let contended = ctx.router.shard(0).try_engine().is_none();
    if contended && page.since.elapsed() < PAGE_WAIT_MAX {
        conn.page = Some(page);
        return false;
    }
    conn.page = None;
    if !page.http {
        let frame = execute(ctx, Opcode::Stats, page.req_id, &[]);
        conn.push_reply(ctx.counters, frame);
        return true;
    }
    // A scrape is answered with the page as an HTTP response, not a
    // frame; a renderer panic costs it a 500.
    let reply = catch_unwind(AssertUnwindSafe(|| render_metrics(ctx.counters, ctx.router)))
        .map(|page| http_response("200 OK", &page))
        .unwrap_or_else(|_| {
            NetCounters::bump(&ctx.counters.errors_internal);
            http_response("500 Internal Server Error", "metrics renderer panicked\n")
        });
    conn.push_reply(ctx.counters, reply);
    true
}

// ---------------------------------------------------------------------
// The reactors
// ---------------------------------------------------------------------

/// Reactor wait bound when no idle timeout asks for a finer sweep tick:
/// a liveness backstop (shutdown rings the reactor early; this only
/// bounds how stale a missed tick can get).
const SWEEP_TICK: Duration = Duration::from_millis(100);

/// Frames batched into one `write_vectored` call. 64 is comfortably
/// under every platform's `IOV_MAX` (1024 on Linux) and already far
/// past the depth where syscall count stops mattering.
const WRITE_BATCH: usize = 64;

fn reactor_loop(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    ctx: &Ctx,
    mut reactor: Box<dyn Reactor>,
) {
    let hub = Arc::clone(reactor.hub());
    #[cfg(unix)]
    let listener_fd = listener.as_raw_fd();
    #[cfg(not(unix))]
    let listener_fd = -1;
    if reactor.register(listener_fd, TOKEN_LISTENER).is_err() {
        return; // cannot watch the listener: nothing to serve
    }

    // The connection slab: token == index + TOKEN_BASE, holes recycled
    // through the free list.
    let mut slab: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    // Slab indexes of the connections with a page waiting.
    let mut waiting: Vec<usize> = Vec::new();
    // The sweep tick: reap cadence under epoll (the poll backend sweeps
    // every pass anyway); quartered so an idle peer overstays its
    // window by at most ~25%.
    let tick = match ctx.idle_timeout {
        Some(w) => (w / 4).clamp(Duration::from_millis(1), SWEEP_TICK),
        None => SWEEP_TICK,
    };
    // When a failed accept took the listener out of the reactor: it is
    // watched again on the first pass a sweep tick later.
    let mut listener_rested: Option<Instant> = None;
    let mut progressed = true; // first pass sweeps unconditionally

    loop {
        // Arm before the last shutdown check (both sequentially
        // consistent, as are `Drop`'s store and the ring's swap): a ring
        // from `Drop` either finds the reactor armed and writes the bell,
        // or its shutdown flag is seen by the check.
        hub.arm();
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let timeout = if waiting.is_empty() { tick } else { PAGE_RETRY };
        let woke = reactor.wait(&mut events, timeout, progressed);
        hub.disarm();
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        progressed = false;
        if listener_rested.is_some_and(|at| at.elapsed() >= tick)
            && reactor.register(listener_fd, TOKEN_LISTENER).is_ok()
        {
            listener_rested = None;
        }

        // Readiness events: the listener accepts, connections move bytes.
        for &ev in &events {
            match ev.token {
                TOKEN_LISTENER => {
                    let (accepted, failed) =
                        accept_all(listener, &mut slab, &mut free, reactor.as_mut(), ctx);
                    progressed |= accepted;
                    if failed {
                        reactor.deregister(listener_fd, TOKEN_LISTENER);
                        listener_rested = Some(Instant::now());
                    }
                }
                token => {
                    let idx = token - TOKEN_BASE;
                    if let Some(Some(conn)) = slab.get_mut(idx) {
                        progressed |= poll_conn(conn, ev, reactor.as_mut(), ctx);
                        if conn.page.is_some() && !waiting.contains(&idx) {
                            waiting.push(idx);
                        }
                    }
                }
            }
        }

        // Pages waiting on the engine lock: answer what can be, then
        // serve the frames each held back.
        waiting.retain(|&idx| {
            let Some(Some(conn)) = slab.get_mut(idx) else { return false };
            let Some(page) = conn.page else { return false };
            if !try_page(conn, ctx, page) {
                return true;
            }
            serve_frames(conn, ctx);
            flush_conn(conn, reactor.as_mut(), ctx);
            progressed = true;
            conn.page.is_some()
        });

        if woke {
            NetCounters::bump(if progressed {
                &ctx.counters.reactor_wakeups
            } else {
                &ctx.counters.reactor_spurious
            });
        }

        reap(&mut slab, &mut free, reactor.as_mut(), ctx.counters, ctx.idle_timeout);
    }
    // Shutdown: connections drop here, closing their sockets.
}

/// Accepts everything pending on the listener, registering each new
/// connection with this reactor. Returns whether anything was accepted,
/// and whether `accept` failed with an error other than `WouldBlock`
/// (such as `EMFILE`) — the caller then stops watching the listener for
/// a sweep tick, since level-triggered readiness would repeat the
/// failing accept on every pass. `WouldBlock` on the first call is the
/// normal case when another reactor took the connection.
fn accept_all(
    listener: &TcpListener,
    slab: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    reactor: &mut dyn Reactor,
    ctx: &Ctx,
) -> (bool, bool) {
    let mut progressed = false;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(true);
                let _ = stream.set_nodelay(true);
                let idx = free.pop().unwrap_or_else(|| {
                    slab.push(None);
                    slab.len() - 1
                });
                let conn = Conn {
                    stream,
                    token: idx + TOKEN_BASE,
                    inbuf: RecvBuf::with_capacity(ctx.initial_buf),
                    wq: VecDeque::new(),
                    wq_off: 0,
                    wq_unwritten: 0,
                    page: None,
                    dead: false,
                    close_after_flush: false,
                    http: false,
                    want_read: true,
                    want_write: false,
                    last_frame: Instant::now(),
                };
                if reactor.register(conn.fd(), conn.token).is_err() {
                    free.push(idx);
                    continue; // stream drops: connection refused late
                }
                NetCounters::bump(&ctx.counters.connections_opened);
                NetCounters::bump(&ctx.counters.connections_live);
                slab[idx] = Some(conn);
                progressed = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return (progressed, false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                NetCounters::bump(&ctx.counters.accept_errors);
                return (progressed, true);
            }
        }
    }
}

/// Drops every connection that is dead, done with a scheduled close, or
/// idle past the reaping window.
fn reap(
    slab: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    reactor: &mut dyn Reactor,
    counters: &NetCounters,
    idle_timeout: Option<Duration>,
) {
    let now = Instant::now();
    for (idx, slot) in slab.iter_mut().enumerate() {
        let Some(conn) = slot else { continue };
        let done_flushing = conn.wq.is_empty() && conn.page.is_none();
        let mut drop_it = conn.dead || (conn.close_after_flush && done_flushing);
        // Idle reaping: no complete frame for the window AND nothing of
        // ours still owed to the peer.
        if !drop_it {
            if let Some(window) = idle_timeout {
                if done_flushing && now.duration_since(conn.last_frame) >= window {
                    NetCounters::bump(&counters.idle_reaped);
                    drop_it = true;
                }
            }
        }
        if drop_it {
            reactor.deregister(conn.fd(), conn.token);
            counters.connections_live.fetch_sub(1, Ordering::Relaxed);
            *slot = None;
            free.push(idx);
        }
    }
}

/// One readiness-driven pass over a connection: read to `WouldBlock`,
/// run every complete frame to completion, flush. Returns whether any
/// bytes moved.
fn poll_conn(conn: &mut Conn, ev: Event, reactor: &mut dyn Reactor, ctx: &Ctx) -> bool {
    let mut progressed = false;

    // Read whatever the socket has.
    let mut eof = false;
    if ev.readable && !conn.dead && !conn.close_after_flush {
        let mut chunk = [0u8; 4096];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.inbuf.extend(&chunk[..n]);
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
    }

    // A plain-HTTP scraper? The frame magic is "LS"; an ASCII "GET "
    // can't be a frame, so the first four octets decide once.
    if !conn.http
        && !conn.close_after_flush
        && conn.inbuf.len() >= 4
        && &conn.inbuf.data()[..4] == b"GET "
    {
        conn.http = true;
        conn.close_after_flush = true;
        NetCounters::bump(&ctx.counters.http_scrapes);
        conn.inbuf.clear();
        try_page(conn, ctx, Page { req_id: 0, http: true, since: Instant::now() });
    }

    progressed |= serve_frames(conn, ctx);

    // The peer shut its write half: what it sent whole is answered above
    // (or after a waiting page), a trailing partial frame can never
    // complete, and the connection closes once every reply is flushed.
    if eof {
        if conn.page.is_none() {
            conn.inbuf.clear();
        }
        conn.close_after_flush = true;
    }

    // Flush when this pass produced replies, the reactor reported room
    // for a blocked write, or the peer's EOF ends read interest; a pure
    // read event with nothing parsed has nothing to write.
    if progressed || ev.writable || eof {
        progressed |= flush_conn(conn, reactor, ctx);
    }
    progressed
}

/// Cuts the complete frames in the receive buffer and runs each to
/// completion, stopping early at a waiting page. Returns whether any
/// frame was cut.
fn serve_frames(conn: &mut Conn, ctx: &Ctx) -> bool {
    let mut progressed = false;
    // A protocol error clears the receive buffer and a scrape never
    // parses it, so a connection closing for either cuts nothing here;
    // one closing after its peer's EOF still answers what it holds.
    while !conn.http && conn.page.is_none() && conn.inbuf.len() >= HEADER_LEN {
        let head: [u8; HEADER_LEN] = conn.inbuf.data()[..HEADER_LEN].try_into().expect("16 bytes");
        // The id is at a fixed offset; even a rejected header echoes it
        // so the client can correlate the failure.
        let raw_req_id = u64::from_le_bytes(head[4..12].try_into().expect("8 bytes"));
        match decode_header(&head) {
            Ok(h) => {
                let total = HEADER_LEN + h.len as usize;
                if conn.inbuf.len() < total {
                    break; // wait for the rest of the payload
                }
                NetCounters::bump(&ctx.counters.frames_in);
                progressed = true;
                conn.last_frame = Instant::now();
                admit(conn, ctx, h.opcode, h.req_id, total);
                conn.inbuf.consume(total);
            }
            Err(FrameError::UnknownOpcode(b)) => {
                // Magic, version, and length all validated — the frame
                // boundary is trustworthy, so skip exactly this frame
                // and keep the connection.
                let len = u32::from_le_bytes(head[12..16].try_into().expect("4 bytes"));
                if len > MAX_FRAME_LEN {
                    protocol_error(conn, ctx, raw_req_id, &FrameError::Oversized(len).to_string());
                    break;
                }
                let total = HEADER_LEN + len as usize;
                if conn.inbuf.len() < total {
                    break;
                }
                conn.inbuf.consume(total);
                NetCounters::bump(&ctx.counters.frames_in);
                progressed = true;
                conn.last_frame = Instant::now();
                NetCounters::bump(&ctx.counters.errors_malformed);
                let frame = pooled_frame(ctx.pool, Opcode::Error, raw_req_id, |out| {
                    encode_error_into(
                        out,
                        ErrorCode::UnknownOpcode,
                        &format!("unknown opcode 0x{b:02x}"),
                    )
                });
                conn.push_reply(ctx.counters, frame);
            }
            Err(e) => {
                // Bad magic/version/length: the framing itself is no
                // longer trustworthy. Answer once, then close.
                protocol_error(conn, ctx, raw_req_id, &e.to_string());
                break;
            }
        }
    }
    progressed
}

/// The admission decision for one complete request frame, whose
/// payload is still in the receive buffer (`total` bytes with its
/// header): past the outbox gate it runs here and now, or — a metrics
/// page behind a writer — waits on the connection.
fn admit(conn: &mut Conn, ctx: &Ctx, opcode: Opcode, req_id: u64, total: usize) {
    // The one gate: the connection's unflushed reply bytes — a peer that
    // has stopped reading must not grow server memory without bound.
    // The `Busy` reply itself is queued (small, and bounded by the
    // peer's own send rate), so the shed is still never silent.
    if conn.wq_unwritten >= ctx.outbox_cap {
        NetCounters::bump(&ctx.counters.shed_outbox);
        let frame = pooled_frame(ctx.pool, Opcode::Busy, req_id, |out| {
            encode_busy_into(out, BusyReason::OutboxFull)
        });
        conn.push_reply(ctx.counters, frame);
        return;
    }
    if opcode == Opcode::Stats && total == HEADER_LEN {
        try_page(conn, ctx, Page { req_id, http: false, since: Instant::now() });
        return;
    }
    // Decoded in place, straight from the receive buffer.
    let frame = execute(ctx, opcode, req_id, &conn.inbuf.data()[HEADER_LEN..total]);
    conn.push_reply(ctx.counters, frame);
}

/// Builds one complete reply frame in a pooled buffer.
fn pooled_frame(
    pool: &BufPool,
    opcode: Opcode,
    req_id: u64,
    write: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut buf = pool.acquire();
    begin_frame(&mut buf, opcode, req_id);
    write(&mut buf);
    finish_frame(&mut buf, opcode);
    buf
}

/// Hands the queued reply frames to the kernel in `write_vectored`
/// batches — frames move by pointer, never re-copied into a staging
/// buffer, and each fully written frame recycles straight back to the
/// [`BufPool`]. EPOLLOUT interest stays registered exactly while bytes
/// remain unflushed (so a partial write resumes on writability, not on
/// the next sweep). Returns whether any bytes moved.
fn flush_conn(conn: &mut Conn, reactor: &mut dyn Reactor, ctx: &Ctx) -> bool {
    let mut progressed = false;
    while !conn.dead && !conn.wq.is_empty() {
        // Gather up to WRITE_BATCH frames into one vectored write (the
        // front frame resumes from its partial-write offset).
        let mut slices = [IoSlice::new(&[]); WRITE_BATCH];
        let mut n_slices = 0;
        for (i, frame) in conn.wq.iter().take(WRITE_BATCH).enumerate() {
            slices[n_slices] = IoSlice::new(if i == 0 { &frame[conn.wq_off..] } else { frame });
            n_slices += 1;
        }
        match conn.stream.write_vectored(&slices[..n_slices]) {
            Ok(0) => conn.dead = true,
            Ok(mut n) => {
                progressed = true;
                conn.wq_unwritten -= n;
                // Advance across frame boundaries, recycling every frame
                // the kernel has wholly taken.
                while n > 0 {
                    let front_left =
                        conn.wq.front().expect("bytes written imply a frame").len() - conn.wq_off;
                    if n >= front_left {
                        n -= front_left;
                        conn.wq_off = 0;
                        ctx.pool.release(conn.wq.pop_front().expect("front exists"));
                    } else {
                        conn.wq_off += n;
                        n = 0;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => conn.dead = true,
        }
    }

    // Interest toggling (a no-op on the poll backend, which always
    // sweeps): EPOLLOUT on iff the kernel couldn't take everything, and
    // read interest off once the connection stops reading — else a
    // readable EOF or unread bytes wake the reactor on every pass until
    // the close.
    let read = !conn.close_after_flush;
    let write = !conn.dead && !conn.wq.is_empty();
    if (read, write) != (conn.want_read, conn.want_write) {
        if write != conn.want_write {
            NetCounters::bump(&ctx.counters.epollout_toggles);
        }
        if reactor.set_interest(conn.fd(), conn.token, read, write).is_ok() {
            (conn.want_read, conn.want_write) = (read, write);
        }
    }
    progressed
}

/// Answers a broken envelope with `Error(Protocol)` and schedules the
/// connection for close-after-flush (the framing is untrustworthy, so
/// no further bytes are parsed).
fn protocol_error(conn: &mut Conn, ctx: &Ctx, req_id: u64, msg: &str) {
    NetCounters::bump(&ctx.counters.errors_protocol);
    let frame = pooled_frame(ctx.pool, Opcode::Error, req_id, |out| {
        encode_error_into(out, ErrorCode::Protocol, msg)
    });
    conn.push_reply(ctx.counters, frame);
    conn.inbuf.clear();
    conn.close_after_flush = true;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recv_buf_consumes_in_constant_time_and_compacts_on_extend() {
        let mut rb = RecvBuf::with_capacity(64);
        rb.extend(b"aaaabbbbcccc");
        assert_eq!(rb.len(), 12);
        rb.consume(4);
        assert_eq!(rb.data(), b"bbbbcccc");
        // Consuming advanced the cursor; the bytes did not move.
        assert_eq!(rb.start, 4);
        rb.consume(4);
        assert_eq!(rb.data(), b"cccc");
        // The next read pass compacts exactly once.
        rb.extend(b"dddd");
        assert_eq!(rb.start, 0);
        assert_eq!(rb.data(), b"ccccdddd");
        // Full consumption rewinds for free.
        rb.consume(8);
        assert_eq!((rb.len(), rb.start), (0, 0));
        assert!(rb.buf.is_empty());
    }

    #[test]
    fn default_config_runs_one_reactor_per_core() {
        let cfg = NetConfig::default();
        let cores = std::thread::available_parallelism().map_or(4, NonZeroUsize::get);
        assert_eq!(cfg.dispatch_workers, cores);
        assert!(cfg.initial_buf_bytes >= 64);
    }
}
