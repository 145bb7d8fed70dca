//! The TCP front-end itself (DESIGN.md §9.3–§9.4, §9.6).
//!
//! One I/O thread owns the listener and every connection: it accepts,
//! reads bytes into per-connection buffers, cuts complete frames, runs
//! **admission control**, and drains per-connection outboxes back to
//! the sockets. Decoding and execution happen on a pool of dispatch
//! workers fed through a `BoundedQueue` — the one request-serving pool
//! in the stack: the cluster and serve layers below run on whichever
//! worker carries the request, a cache miss included.
//!
//! ## The zero-copy wire path (DESIGN.md §9.6)
//!
//! At steady state a request crosses the server with no allocator
//! traffic and a single payload copy (socket → `inbuf`):
//!
//! * Inbound frames are parsed **in place**: the connection's
//!   [`RecvBuf`] hands out borrowed payload slices, and consumed frames
//!   advance a cursor instead of shifting the tail per parse.
//! * Reply frames are built **once**, header and payload together, in a
//!   buffer from the shared [`BufPool`] free list
//!   ([`begin_frame`]/`encode_*_into`/[`finish_frame`]), queued as-is,
//!   flushed with one `write_vectored` syscall per batch, and recycled
//!   back to the pool the moment the kernel has taken their last byte.
//! * Cheap requests skip the dispatch queue entirely: the I/O thread
//!   answers `Ping` and *cache-hit-only* `Query`/`Summarize` **inline**
//!   (see [`try_fastpath`]) through the same handler the workers run,
//!   with waiting switched off — every lock it can reach is a `try_`
//!   acquisition, so the reactor can never block, and a per-read-pass
//!   inline budget keeps one pipelined burst from starving other
//!   connections.
//!
//! ## Readiness
//!
//! *When* the I/O thread runs is the [`Reactor`]'s business
//! (DESIGN.md §9.4): on Linux an epoll instance reports exactly which
//! sockets have bytes (or, while an outbox has unflushed replies,
//! room), and an eventfd **doorbell** rung by the dispatch workers
//! wakes the thread the moment a reply lands — round-trip latency is
//! bounded by work, not by a sleep constant. The portable fallback
//! (`ReactorChoice::Poll`) is PR 7's sweep loop behind the same trait,
//! retained as a differential oracle; every net suite runs against
//! both.
//!
//! Connections live in a **slab** indexed by their reactor token, so
//! an event maps to its connection without hashing, and tokens recycle
//! through a free list as peers come and go.
//!
//! ## Backpressure and shedding
//!
//! Three gates bound the work (and memory) a client can park in the
//! server, and all reject with an explicit [`Opcode::Busy`] reply — a
//! shed request is *never* silently dropped, and it is rejected
//! **before** execution, so it has no partial effects:
//!
//! 1. **Per-connection in-flight budget** (`NetConfig::inflight_budget`):
//!    admitted-but-unanswered requests per connection. One greedy
//!    pipeliner saturates its own budget, not the server.
//! 2. **Per-connection outbox byte cap** (`NetConfig::outbox_cap_bytes`):
//!    encoded-but-unflushed reply bytes. A peer that stops *reading*
//!    (while its kernel buffers are full) cannot grow server memory
//!    without bound — once the cap is hit, further requests shed with
//!    `Busy(OutboxFull)` until the outbox drains. The inline fast path
//!    honors the same cap (it declines and lets admission shed).
//! 3. **Dispatch queue capacity** (`NetConfig::queue_capacity`): the
//!    server-wide bound, enforced by `BoundedQueue::try_push` — the
//!    I/O thread never blocks on a full queue.
//!
//! Idle peers are bounded too: with `NetConfig::idle_timeout` set, a
//! connection that completes no frame for the window — and has nothing
//! in flight or unflushed — is closed on the reactor's sweep tick.
//!
//! ## Panic containment
//!
//! Every request executes under `catch_unwind`: a handler panic becomes
//! an `Error(Internal)` reply on that request and the worker moves on.
//! This is the stack's one panic boundary — the layers below spawn no
//! request threads, so a panic anywhere in a request unwinds to here.
//! Combined with the poison-recovering locks underneath (dispatch
//! queue, cache shards, hot sketch, cluster gate), one bad request
//! degrades one reply — it cannot take down the connection, the worker
//! pool, or the shared serving state.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sizel_cluster::ClusterRouter;

use crate::buf::BufPool;
use crate::frame::{
    begin_frame, decode_header, finish_frame, BusyReason, ErrorCode, FrameError, Opcode,
    HEADER_LEN, MAX_FRAME_LEN,
};
use crate::metrics::{http_response, render_metrics, NetCounters};
use crate::queue::{BoundedQueue, TryPushError};
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
    /// Dispatch worker threads (decode + execute + encode). The only
    /// request-serving pool in the stack: a cache miss is computed on
    /// the worker that carries the request, so the default is one per
    /// core.
    pub dispatch_workers: usize,
    /// Server-wide dispatch queue bound; overflow sheds with
    /// `Busy(QueueFull)`.
    pub queue_capacity: usize,
    /// Per-connection cap on admitted-but-unanswered requests; overflow
    /// sheds with `Busy(InflightBudget)`.
    pub inflight_budget: usize,
    /// Per-connection cap on encoded-but-unflushed reply bytes; while
    /// exceeded, new requests shed with `Busy(OutboxFull)` (the
    /// slow-reader gate).
    pub outbox_cap_bytes: usize,
    /// Close a connection that completes no frame for this window (and
    /// has nothing in flight or unflushed). `None` disables reaping.
    pub idle_timeout: Option<Duration>,
    /// Readiness backend; `Auto` resolves `SIZEL_NET_REACTOR` then the
    /// platform default (epoll on Linux, the sweep loop elsewhere).
    pub reactor: ReactorChoice,
    /// Test/bench hook: every dispatch worker sleeps this long before
    /// executing a request, making queue/budget saturation deterministic
    /// on any machine. `None` (the default) in production. Setting it
    /// also disables the inline fast path: the delay declares every
    /// request expensive, and the fast path exists precisely to skip
    /// execution that costs nothing.
    pub handler_delay: Option<Duration>,
    /// Answer `Ping` and cache-hit `Query`/`Summarize` inline on
    /// the I/O thread instead of dispatching (see [`try_fastpath`]).
    pub fastpath: bool,
    /// Inline replies per connection per read pass; beyond it, requests
    /// take the dispatch queue so one pipelined burst cannot starve
    /// other connections of the I/O thread.
    pub fastpath_budget: usize,
    /// Pre-size hint for per-connection receive buffers and pooled frame
    /// buffers.
    pub initial_buf_bytes: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(4);
        NetConfig {
            dispatch_workers: cores,
            queue_capacity: 64,
            inflight_budget: 32,
            outbox_cap_bytes: 16 * 1024 * 1024,
            idle_timeout: None,
            reactor: ReactorChoice::Auto,
            handler_delay: None,
            fastpath: true,
            fastpath_budget: 32,
            initial_buf_bytes: 4096,
        }
    }
}

/// State shared between the I/O thread and dispatch workers for one
/// connection.
struct ConnShared {
    /// Encoded reply frames awaiting the I/O thread's next write pass.
    outbox: Mutex<VecDeque<Vec<u8>>>,
    /// Bytes currently queued in `outbox` (the outbox gate reads this
    /// without taking the lock).
    outbox_bytes: AtomicUsize,
    /// Admitted-but-unanswered requests (the budget gate's counter).
    in_flight: AtomicUsize,
    /// This connection's reactor token (names it in doorbell
    /// completions).
    token: usize,
    /// The doorbell back to the I/O thread.
    hub: Arc<WakeHub>,
}

impl ConnShared {
    /// Appends one encoded frame to the outbox (bytes accounted, no
    /// doorbell — the I/O thread's own paths flush in the same pass).
    fn push_frame(&self, frame: Vec<u8>) {
        self.outbox_bytes.fetch_add(frame.len(), Ordering::Relaxed);
        self.outbox.lock().unwrap_or_else(|p| p.into_inner()).push_back(frame);
    }

    /// Queues one encoded reply frame from the I/O thread itself.
    fn enqueue_reply_local(&self, counters: &NetCounters, frame: Vec<u8>) {
        self.push_frame(frame);
        NetCounters::bump(&counters.frames_out);
    }

    /// Queues one encoded reply frame from a dispatch worker and rings
    /// the doorbell so the I/O thread flushes it now, not on its next
    /// sweep.
    fn enqueue_reply(&self, counters: &NetCounters, frame: Vec<u8>) {
        self.push_frame(frame);
        NetCounters::bump(&counters.frames_out);
        self.hub.notify(self.token);
    }
}

/// One admitted request travelling to the dispatch pool. The payload
/// buffer comes from (and returns to) the [`BufPool`].
struct NetJob {
    conn: Arc<ConnShared>,
    opcode: Opcode,
    req_id: u64,
    payload: Vec<u8>,
    /// A plain-HTTP scrape: the reply is the metrics page as an HTTP
    /// response, not a frame (the three fields above go unread).
    http: bool,
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

/// Per-connection state owned by the I/O thread.
struct Conn {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    /// Received-but-unparsed bytes.
    inbuf: RecvBuf,
    /// Frames pulled from the outbox, awaiting the kernel. The front
    /// frame is written from `wq_off`; fully written frames recycle to
    /// the pool.
    wq: VecDeque<Vec<u8>>,
    wq_off: usize,
    /// Total unwritten bytes across `wq` (the outbox gate reads this
    /// plus `outbox_bytes`).
    wq_unwritten: usize,
    /// Peer hung up or the stream failed.
    dead: bool,
    /// Stop reading/parsing; flush the outbox and close. Set by
    /// protocol errors and by the HTTP scrape path.
    close_after_flush: bool,
    /// The connection turned out to be a plain-HTTP scraper.
    http: bool,
    /// Write-readiness interest currently registered with the reactor
    /// (on only while reply bytes are unflushed).
    want_write: bool,
    /// When the last complete frame was cut (idle reaping's clock;
    /// starts at accept).
    last_frame: Instant,
}

impl Conn {
    /// Reply bytes not yet handed to the kernel: queued outbox frames
    /// plus the unwritten tail of the write queue — what the outbox
    /// gate compares against the cap.
    fn unflushed_bytes(&self) -> usize {
        self.shared.outbox_bytes.load(Ordering::Relaxed) + self.wq_unwritten
    }
}

/// Immutable per-server knobs the I/O thread reads each pass.
struct IoOpts {
    budget: usize,
    outbox_cap: usize,
    idle_timeout: Option<Duration>,
    fastpath: bool,
    fastpath_budget: usize,
    initial_buf: usize,
}

/// The running front-end. Dropping it stops the I/O thread, closes the
/// dispatch queue, and joins every worker.
pub struct NetServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    queue: Arc<BoundedQueue<NetJob>>,
    counters: Arc<NetCounters>,
    router: Arc<ClusterRouter>,
    hub: Arc<WakeHub>,
    kind: ReactorKind,
    io_handle: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `router` over it.
    pub fn bind(router: Arc<ClusterRouter>, addr: &str, cfg: NetConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(BoundedQueue::new(cfg.queue_capacity.max(1)));
        let counters = Arc::new(NetCounters::default());
        let pool = Arc::new(BufPool::new(cfg.initial_buf_bytes.max(64), Arc::clone(&counters)));
        let reactor = build_reactor(cfg.reactor, &counters)?;
        let kind = reactor.kind();
        counters.reactor_backend.store(kind as u8, Ordering::Relaxed);
        let hub = Arc::clone(reactor.hub());

        let workers = (0..cfg.dispatch_workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let router = Arc::clone(&router);
                let counters = Arc::clone(&counters);
                let pool = Arc::clone(&pool);
                let delay = cfg.handler_delay;
                std::thread::Builder::new()
                    .name(format!("sizel-net-worker-{i}"))
                    .spawn(move || worker_loop(&queue, &router, &counters, &pool, delay))
                    .expect("spawn net worker")
            })
            .collect();

        let io_handle = {
            let shutdown = Arc::clone(&shutdown);
            let queue = Arc::clone(&queue);
            let router = Arc::clone(&router);
            let counters = Arc::clone(&counters);
            let opts = IoOpts {
                budget: cfg.inflight_budget.max(1),
                outbox_cap: cfg.outbox_cap_bytes.max(1),
                idle_timeout: cfg.idle_timeout,
                // handler_delay declares request execution expensive (the
                // saturation suites' knob); the fast path exists to skip
                // execution that costs nothing, so it stands down — this
                // is what keeps the delay-driven shedding tests exact.
                fastpath: cfg.fastpath && cfg.handler_delay.is_none(),
                fastpath_budget: cfg.fastpath_budget.max(1),
                initial_buf: cfg.initial_buf_bytes.max(64),
            };
            std::thread::Builder::new()
                .name("sizel-net-io".into())
                .spawn(move || {
                    io_loop(listener, &shutdown, &queue, &router, &counters, &pool, &opts, reactor)
                })
                .expect("spawn net io thread")
        };

        Ok(NetServer {
            addr: local,
            shutdown,
            queue,
            counters,
            router,
            hub,
            kind,
            io_handle: Some(io_handle),
            workers,
        })
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

    /// Which readiness backend the I/O thread is running on.
    pub fn reactor_kind(&self) -> ReactorKind {
        self.kind
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // The I/O thread may be parked in the reactor: ring it out.
        self.hub.ring();
        self.queue.close();
        if let Some(h) = self.io_handle.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// Dispatch workers
// ---------------------------------------------------------------------

fn worker_loop(
    queue: &BoundedQueue<NetJob>,
    router: &ClusterRouter,
    counters: &NetCounters,
    pool: &BufPool,
    delay: Option<Duration>,
) {
    while let Some(job) = queue.pop() {
        if let Some(d) = delay {
            std::thread::sleep(d);
        }
        let NetJob { conn, opcode, req_id, payload, http } = job;
        if http {
            // A scrape is answered with the page as an HTTP response,
            // not a frame; a renderer panic costs it a 500.
            let page =
                catch_unwind(AssertUnwindSafe(|| render_metrics(counters, queue.len(), router)))
                    .map(|page| http_response("200 OK", &page))
                    .unwrap_or_else(|_| {
                        NetCounters::bump(&counters.errors_internal);
                        http_response("500 Internal Server Error", "metrics renderer panicked\n")
                    });
            conn.push_frame(page);
            conn.hub.notify(conn.token);
            conn.in_flight.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        // The reply frame is built in one pooled buffer: header first
        // (placeholder opcode — the real one is known only after the
        // handler runs), payload appended in place, then sealed.
        let mut frame = pool.acquire();
        begin_frame(&mut frame, Opcode::Error, req_id);
        // A panicking handler must cost exactly one reply: catch it,
        // answer Error(Internal), move to the next job. The state the
        // panic touched recovers via the poison-safe locks underneath.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle_request_into(router, counters, queue, opcode, &payload, &mut frame, true)
        }));
        let reply_op = match outcome {
            Ok(op) => op.expect("a handler that may wait never declines"),
            Err(panic) => {
                NetCounters::bump(&counters.errors_internal);
                let msg = panic_message(&panic);
                // The handler may have died mid-encode: keep the header,
                // drop whatever partial payload it left.
                frame.truncate(HEADER_LEN);
                encode_error_into(&mut frame, ErrorCode::Internal, &msg);
                Opcode::Error
            }
        };
        finish_frame(&mut frame, reply_op);
        pool.release(payload);
        conn.enqueue_reply(counters, frame);
        // Budget release strictly after the reply is visible to the
        // flusher, so close-after-flush never races a missing reply.
        conn.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

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
///
/// A dispatch worker passes `wait` on and always gets an opcode. The
/// I/O thread passes it off ([`try_fastpath`]) and gets `None`, with
/// `out` untouched, for anything that would block, compute or write, or
/// that is malformed (the queued path answers, and counts, the error
/// once). The rule that keeps the reactor from ever blocking is
/// checkable here: with `wait` off, only `try_` lock acquisitions are
/// reachable.
fn handle_request_into(
    router: &ClusterRouter,
    counters: &NetCounters,
    queue: &BoundedQueue<NetJob>,
    opcode: Opcode,
    payload: &[u8],
    out: &mut Vec<u8>,
    wait: bool,
) -> Option<Opcode> {
    let request = match decode_request(opcode, payload) {
        Ok(r) => r,
        Err(_) if !wait => return None,
        Err(e) => {
            NetCounters::bump(&counters.errors_malformed);
            encode_error_into(out, ErrorCode::MalformedPayload, &e.to_string());
            return Some(Opcode::Error);
        }
    };
    let executed = match request {
        Request::Ping => Ok(Opcode::Pong),
        // The page reads every shard's engine lock and a write takes
        // every lock there is: a worker's job.
        Request::Stats | Request::ApplyBatch { .. } if !wait => return None,
        Request::Stats => {
            encode_stats_into(out, &render_metrics(counters, queue.len(), router));
            Ok(Opcode::StatsText)
        }
        Request::Query { requests } => {
            let answer = if wait {
                router.batch_query_at(&requests)
            } else {
                Ok(router.try_batch_query_cached(&requests)?)
            };
            answer.map(|(epoch, results)| {
                encode_results_into(out, epoch, &results);
                Opcode::Results
            })
        }
        Request::Summarize { tds, opts } => {
            let answer = if wait {
                router.summarize_at(tds, opts)
            } else {
                Ok(router.try_summarize_cached_at(tds, opts)?)
            };
            answer.map(|(epoch, result)| {
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
    Some(executed.unwrap_or_else(|e| {
        NetCounters::bump(&counters.errors_bad_request);
        encode_error_into(out, ErrorCode::BadRequest, &e.to_string());
        Opcode::Error
    }))
}

// ---------------------------------------------------------------------
// The I/O thread
// ---------------------------------------------------------------------

/// Reactor wait bound when no idle timeout asks for a finer sweep tick:
/// a liveness backstop (shutdown and doorbells wake the thread early;
/// this only bounds how stale a missed tick can get).
const SWEEP_TICK: Duration = Duration::from_millis(100);

/// Frames batched into one `write_vectored` call. 64 is comfortably
/// under every platform's `IOV_MAX` (1024 on Linux) and already far
/// past the depth where syscall count stops mattering.
const WRITE_BATCH: usize = 64;

#[allow(clippy::too_many_arguments)]
fn io_loop(
    listener: TcpListener,
    shutdown: &AtomicBool,
    queue: &Arc<BoundedQueue<NetJob>>,
    router: &Arc<ClusterRouter>,
    counters: &NetCounters,
    pool: &Arc<BufPool>,
    opts: &IoOpts,
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
    let mut completions: Vec<usize> = Vec::new();
    // The sweep tick: reap cadence under epoll (the poll backend sweeps
    // every pass anyway); quartered so an idle peer overstays its
    // window by at most ~25%.
    let tick = match opts.idle_timeout {
        Some(w) => (w / 4).clamp(Duration::from_millis(1), SWEEP_TICK),
        None => SWEEP_TICK,
    };
    let mut progressed = true; // first pass sweeps unconditionally

    loop {
        // Arm-then-recheck handshake (reactor module docs): a worker
        // completion can never slip between the pending check and the
        // wait.
        hub.arm();
        let woke = if shutdown.load(Ordering::Acquire) {
            hub.disarm();
            break;
        } else if hub.has_pending() {
            events.clear();
            true
        } else {
            reactor.wait(&mut events, tick, progressed)
        };
        hub.disarm();
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        progressed = false;

        // Readiness events: the listener accepts, connections move bytes.
        for &ev in &events {
            match ev.token {
                TOKEN_LISTENER => {
                    progressed |= accept_all(
                        &listener,
                        &mut slab,
                        &mut free,
                        reactor.as_mut(),
                        &hub,
                        counters,
                        opts,
                    );
                }
                token => {
                    let idx = token - TOKEN_BASE;
                    if let Some(Some(conn)) = slab.get_mut(idx) {
                        progressed |= poll_conn(
                            conn,
                            ev,
                            reactor.as_mut(),
                            queue,
                            router,
                            counters,
                            pool,
                            opts,
                        );
                    }
                }
            }
        }

        // Doorbell completions: flush exactly the connections whose
        // outboxes just gained replies (tokens may be stale after a
        // close — flushing an empty outbox is a no-op).
        hub.drain_pending(&mut completions);
        for token in completions.drain(..) {
            let idx = token.wrapping_sub(TOKEN_BASE);
            if let Some(Some(conn)) = slab.get_mut(idx) {
                progressed |= flush_conn(conn, reactor.as_mut(), counters, pool);
            }
        }

        if woke {
            NetCounters::bump(if progressed {
                &counters.reactor_wakeups
            } else {
                &counters.reactor_spurious
            });
        }

        reap(&mut slab, &mut free, reactor.as_mut(), counters, opts.idle_timeout);
    }
    // Shutdown: connections drop here, closing their sockets.
}

/// Accepts everything pending on the listener, registering each new
/// connection with the reactor. Returns whether anything was accepted.
fn accept_all(
    listener: &TcpListener,
    slab: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    reactor: &mut dyn Reactor,
    hub: &Arc<WakeHub>,
    counters: &NetCounters,
    opts: &IoOpts,
) -> bool {
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
                let token = idx + TOKEN_BASE;
                #[cfg(unix)]
                let fd = stream.as_raw_fd();
                #[cfg(not(unix))]
                let fd = -1;
                if reactor.register(fd, token).is_err() {
                    free.push(idx);
                    continue; // stream drops: connection refused late
                }
                NetCounters::bump(&counters.connections_opened);
                NetCounters::bump(&counters.connections_live);
                slab[idx] = Some(Conn {
                    stream,
                    shared: Arc::new(ConnShared {
                        outbox: Mutex::new(VecDeque::new()),
                        outbox_bytes: AtomicUsize::new(0),
                        in_flight: AtomicUsize::new(0),
                        token,
                        hub: Arc::clone(hub),
                    }),
                    inbuf: RecvBuf::with_capacity(opts.initial_buf),
                    wq: VecDeque::new(),
                    wq_off: 0,
                    wq_unwritten: 0,
                    dead: false,
                    close_after_flush: false,
                    http: false,
                    want_write: false,
                    last_frame: Instant::now(),
                });
                progressed = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
    progressed
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
        let done_flushing = conn.wq.is_empty()
            && conn.shared.outbox.lock().unwrap_or_else(|p| p.into_inner()).is_empty()
            && conn.shared.in_flight.load(Ordering::Acquire) == 0;
        let mut drop_it = conn.dead || (conn.close_after_flush && done_flushing);
        // Idle reaping: no complete frame for the window AND nothing of
        // ours still owed to the peer — a connection waiting on its own
        // pipelined replies is busy, not idle.
        if !drop_it {
            if let Some(window) = idle_timeout {
                if done_flushing && now.duration_since(conn.last_frame) >= window {
                    NetCounters::bump(&counters.idle_reaped);
                    drop_it = true;
                }
            }
        }
        if drop_it {
            #[cfg(unix)]
            let fd = conn.stream.as_raw_fd();
            #[cfg(not(unix))]
            let fd = -1;
            reactor.deregister(fd, idx + TOKEN_BASE);
            counters.connections_live.fetch_sub(1, Ordering::Relaxed);
            *slot = None;
            free.push(idx);
        }
    }
}

/// One readiness-driven pass over a connection: read to `WouldBlock`,
/// parse/admit every complete frame (answering cheap ones inline),
/// flush. Returns whether any bytes moved.
#[allow(clippy::too_many_arguments)]
fn poll_conn(
    conn: &mut Conn,
    ev: Event,
    reactor: &mut dyn Reactor,
    queue: &Arc<BoundedQueue<NetJob>>,
    router: &Arc<ClusterRouter>,
    counters: &NetCounters,
    pool: &BufPool,
    opts: &IoOpts,
) -> bool {
    let mut progressed = false;

    // Read whatever the socket has.
    if ev.readable && !conn.dead && !conn.close_after_flush {
        let mut chunk = [0u8; 4096];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.dead = true;
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
        NetCounters::bump(&counters.http_scrapes);
        conn.inbuf.clear();
        // Rendering the page reads every shard's engine lock, so a
        // worker does it; the in-flight count holds the close until its
        // reply is queued.
        conn.shared.in_flight.fetch_add(1, Ordering::AcqRel);
        let job = NetJob {
            conn: Arc::clone(&conn.shared),
            opcode: Opcode::Stats,
            req_id: 0,
            payload: Vec::new(),
            http: true,
        };
        if queue.try_push(job).is_err() {
            conn.shared.in_flight.fetch_sub(1, Ordering::AcqRel);
            NetCounters::bump(&counters.shed_queue);
            conn.shared
                .push_frame(http_response("503 Service Unavailable", "dispatch queue full\n"));
        }
    }

    // The fairness budget: inline replies this pass. When it runs out,
    // further eligible requests take the dispatch queue like everything
    // else, returning the I/O thread to other connections.
    let mut inline_budget = opts.fastpath_budget;

    // Cut complete frames and run admission.
    while !conn.http && !conn.close_after_flush && conn.inbuf.len() >= HEADER_LEN {
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
                NetCounters::bump(&counters.frames_in);
                progressed = true;
                conn.last_frame = Instant::now();
                {
                    // Borrowed straight from the receive buffer: the
                    // fast path decodes it in place; only a queued
                    // dispatch copies it (into a pooled buffer).
                    let payload = &conn.inbuf.data()[HEADER_LEN..total];
                    let eligible = opts.fastpath
                        && matches!(h.opcode, Opcode::Ping | Opcode::Query | Opcode::Summarize);
                    let inlined = eligible
                        && inline_budget > 0
                        && try_fastpath(
                            conn, router, counters, queue, pool, opts, h.opcode, h.req_id, payload,
                        );
                    if inlined {
                        NetCounters::bump(&counters.fastpath_hits);
                        inline_budget -= 1;
                    } else {
                        if eligible {
                            NetCounters::bump(&counters.fastpath_fallbacks);
                        }
                        admit(conn, queue, counters, pool, opts, h.opcode, h.req_id, payload);
                    }
                }
                conn.inbuf.consume(total);
            }
            Err(FrameError::UnknownOpcode(b)) => {
                // Magic, version, and length all validated — the frame
                // boundary is trustworthy, so skip exactly this frame
                // and keep the connection.
                let len = u32::from_le_bytes(head[12..16].try_into().expect("4 bytes"));
                if len > MAX_FRAME_LEN {
                    protocol_error(
                        conn,
                        counters,
                        pool,
                        raw_req_id,
                        &FrameError::Oversized(len).to_string(),
                    );
                    break;
                }
                let total = HEADER_LEN + len as usize;
                if conn.inbuf.len() < total {
                    break;
                }
                conn.inbuf.consume(total);
                NetCounters::bump(&counters.frames_in);
                progressed = true;
                conn.last_frame = Instant::now();
                NetCounters::bump(&counters.errors_malformed);
                let frame = pooled_frame(pool, Opcode::Error, raw_req_id, |out| {
                    encode_error_into(
                        out,
                        ErrorCode::UnknownOpcode,
                        &format!("unknown opcode 0x{b:02x}"),
                    )
                });
                conn.shared.enqueue_reply_local(counters, frame);
            }
            Err(e) => {
                // Bad magic/version/length: the framing itself is no
                // longer trustworthy. Answer once, then close.
                protocol_error(conn, counters, pool, raw_req_id, &e.to_string());
                break;
            }
        }
    }

    // Flush when this pass produced replies (inline answers, sheds,
    // errors, the HTTP page) or the reactor reported room for a blocked
    // write; a pure read event with nothing parsed has nothing to write.
    if progressed || ev.writable {
        progressed |= flush_conn(conn, reactor, counters, pool);
    }
    progressed
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

/// The I/O-thread inline fast path: answers a request without touching
/// the dispatch queue **iff** doing so cannot block and cannot compute —
/// [`handle_request_into`] with `wait` off, so the reply is the queued
/// path's byte for byte. `false` means the request goes to admission.
#[allow(clippy::too_many_arguments)]
fn try_fastpath(
    conn: &Conn,
    router: &ClusterRouter,
    counters: &NetCounters,
    queue: &BoundedQueue<NetJob>,
    pool: &BufPool,
    opts: &IoOpts,
    opcode: Opcode,
    req_id: u64,
    payload: &[u8],
) -> bool {
    // The slow-reader gate applies to inline replies too: past the cap,
    // decline so admission sheds with `Busy(OutboxFull)` as always.
    if conn.unflushed_bytes() >= opts.outbox_cap {
        return false;
    }
    let mut frame = pool.acquire();
    begin_frame(&mut frame, Opcode::Error, req_id);
    match handle_request_into(router, counters, queue, opcode, payload, &mut frame, false) {
        Some(reply_op) => {
            finish_frame(&mut frame, reply_op);
            conn.shared.enqueue_reply_local(counters, frame);
            true
        }
        None => {
            pool.release(frame);
            false
        }
    }
}

/// Moves finished reply frames from the outbox into the write queue and
/// hands them to the kernel in `write_vectored` batches — frames move
/// by pointer, never re-copied into a staging buffer, and each fully
/// written frame recycles straight back to the [`BufPool`]. EPOLLOUT
/// interest stays registered exactly while bytes remain unflushed (so a
/// partial write resumes on writability, not on the next sweep).
/// Returns whether any bytes moved.
fn flush_conn(
    conn: &mut Conn,
    reactor: &mut dyn Reactor,
    counters: &NetCounters,
    pool: &BufPool,
) -> bool {
    let mut progressed = false;
    loop {
        // Pull everything the workers have finished since the last pull
        // (frames move, not bytes).
        {
            let mut outbox = conn.shared.outbox.lock().unwrap_or_else(|p| p.into_inner());
            let mut moved = 0usize;
            while let Some(frame) = outbox.pop_front() {
                moved += frame.len();
                conn.wq_unwritten += frame.len();
                conn.wq.push_back(frame);
            }
            drop(outbox);
            conn.shared.outbox_bytes.fetch_sub(moved, Ordering::Relaxed);
        }
        if conn.wq.is_empty() {
            break; // fully drained
        }
        let mut blocked = false;
        while !conn.dead && !conn.wq.is_empty() {
            // Gather up to WRITE_BATCH frames into one vectored write
            // (the front frame resumes from its partial-write offset).
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
                    // Advance across frame boundaries, recycling every
                    // frame the kernel has wholly taken.
                    while n > 0 {
                        let front_left =
                            conn.wq.front().expect("bytes written imply a frame").len()
                                - conn.wq_off;
                        if n >= front_left {
                            n -= front_left;
                            conn.wq_off = 0;
                            pool.release(conn.wq.pop_front().expect("front exists"));
                        } else {
                            conn.wq_off += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    blocked = true;
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => conn.dead = true,
            }
        }
        if blocked || conn.dead {
            break;
        }
        // Loop: a worker may have landed more frames while we wrote.
    }

    // EPOLLOUT toggling: interest on iff the kernel couldn't take
    // everything (no-op on the poll backend, which always sweeps).
    let want = !conn.dead && !conn.wq.is_empty();
    if want != conn.want_write {
        #[cfg(unix)]
        let fd = conn.stream.as_raw_fd();
        #[cfg(not(unix))]
        let fd = -1;
        if reactor.set_writable(fd, conn.shared.token, want).is_ok() {
            conn.want_write = want;
        }
        NetCounters::bump(&counters.epollout_toggles);
    }
    progressed
}

/// The three-gate admission decision for one complete request frame.
/// The payload is still borrowed from the receive buffer here: the
/// gates run first, and only an actually-admitted request pays the copy
/// into a pooled dispatch buffer.
#[allow(clippy::too_many_arguments)]
fn admit(
    conn: &Conn,
    queue: &Arc<BoundedQueue<NetJob>>,
    counters: &NetCounters,
    pool: &BufPool,
    opts: &IoOpts,
    opcode: Opcode,
    req_id: u64,
    payload: &[u8],
) {
    // Gate 1: the connection's own in-flight budget.
    if conn.shared.in_flight.load(Ordering::Acquire) >= opts.budget {
        NetCounters::bump(&counters.shed_inflight);
        let frame = pooled_frame(pool, Opcode::Busy, req_id, |out| {
            encode_busy_into(out, BusyReason::InflightBudget)
        });
        conn.shared.enqueue_reply_local(counters, frame);
        return;
    }
    // Gate 2: the connection's unflushed reply bytes — a peer that has
    // stopped reading must not grow server memory without bound. The
    // `Busy` reply itself is queued (small, and bounded by the peer's
    // own send rate), so the shed is still never silent.
    if conn.unflushed_bytes() >= opts.outbox_cap {
        NetCounters::bump(&counters.shed_outbox);
        let frame = pooled_frame(pool, Opcode::Busy, req_id, |out| {
            encode_busy_into(out, BusyReason::OutboxFull)
        });
        conn.shared.enqueue_reply_local(counters, frame);
        return;
    }
    conn.shared.in_flight.fetch_add(1, Ordering::AcqRel);
    // Gate 3: the server-wide dispatch queue. The payload copy is the
    // request's only one past the socket read, and it lands in a pooled
    // buffer — at steady state extend_from_slice into recycled capacity.
    let mut owned = pool.acquire();
    owned.extend_from_slice(payload);
    let job =
        NetJob { conn: Arc::clone(&conn.shared), opcode, req_id, payload: owned, http: false };
    match queue.try_push(job) {
        Ok(()) => {}
        Err(TryPushError::Full(job)) => {
            job.conn.in_flight.fetch_sub(1, Ordering::AcqRel);
            pool.release(job.payload);
            NetCounters::bump(&counters.shed_queue);
            let frame = pooled_frame(pool, Opcode::Busy, req_id, |out| {
                encode_busy_into(out, BusyReason::QueueFull)
            });
            conn.shared.enqueue_reply_local(counters, frame);
        }
        Err(TryPushError::Closed(job)) => {
            job.conn.in_flight.fetch_sub(1, Ordering::AcqRel);
            pool.release(job.payload);
            NetCounters::bump(&counters.errors_internal);
            let frame = pooled_frame(pool, Opcode::Error, req_id, |out| {
                encode_error_into(out, ErrorCode::Internal, "server shutting down")
            });
            conn.shared.enqueue_reply_local(counters, frame);
        }
    }
}

/// Answers a broken envelope with `Error(Protocol)` and schedules the
/// connection for close-after-flush (the framing is untrustworthy, so
/// no further bytes are parsed).
fn protocol_error(conn: &mut Conn, counters: &NetCounters, pool: &BufPool, req_id: u64, msg: &str) {
    NetCounters::bump(&counters.errors_protocol);
    let frame = pooled_frame(pool, Opcode::Error, req_id, |out| {
        encode_error_into(out, ErrorCode::Protocol, msg)
    });
    conn.shared.enqueue_reply_local(counters, frame);
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
    fn default_config_enables_the_fast_path() {
        let cfg = NetConfig::default();
        assert!(cfg.fastpath);
        assert!(cfg.fastpath_budget >= 1);
        assert!(cfg.initial_buf_bytes >= 64);
    }
}
