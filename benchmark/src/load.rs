//! The load generators and the timed window.
//!
//! Reads are a **closed loop**: one generator thread, one connection,
//! a sliding window of eight requests in flight (one more is sent on
//! every reply) — or, for `embed_hot`, one caller making one
//! in-process call at a time. The machine has two cores, so there are
//! never more than two generator threads; only `mixed_rw` uses the
//! second, for its **open-loop** writer (one batch every 500 ms, timed
//! from the moment it was due).
//!
//! A run is warm-up, then a fixed-duration window cut into equal
//! slices. Each slice yields one value per metric and the run reports
//! the median over slices (`hist::slice_median`), so a noise episode
//! shorter than half the window leaves the figure alone. The window is
//! a fixed duration and the writer a fixed rate, so two commits see
//! the same offered mix.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sizel_cluster::ClusterRouter;
use sizel_net::{NetClient, Opcode};

use crate::counters::Counters;
use crate::hist::Histogram;
use crate::stream::ReadStream;
use crate::sys;

/// Requests in flight on the reader's connection.
pub const WINDOW_DEPTH: usize = 8;
/// The writer's period: two batches a second. A batch holds the
/// cluster's exclusive gate for 45-60 ms on the reference machine and
/// empties the summary cache, which the 64 hot queries then refill
/// through the dispatch queue, so readers are shut out about an eighth
/// of the time. Both costs grow with every slowdown of the host while
/// the period does not: at four a second a host three times slower
/// left readers 8 % of the time (43 k to 4.5 k ops/s from one run to
/// the next), at the issue's ten a second a host 1.5 times slower did.
pub const WRITE_INTERVAL: Duration = Duration::from_millis(500);
/// A batch sent later than this after it was due counts as late.
const LATE: Duration = Duration::from_millis(1);

/// Warm-up, window and slicing of one run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Untimed lead-in: caches fill, buffers grow, lazy set-up ends.
    pub warm_up: Duration,
    /// The timed window.
    pub window: Duration,
    /// Equal slices the window is cut into.
    pub slices: usize,
}

impl Plan {
    /// A `seconds`-long window in eight slices, after a warm-up as
    /// long as one slice (2 s at most): the summary cache fills in
    /// about 0.1 s on `cold_read`, the block cache faster. The writer's
    /// batches reach full size only after eight (4 s): until then they
    /// are two deletes short.
    pub fn for_seconds(seconds: f64) -> Plan {
        Plan {
            warm_up: Duration::from_secs_f64((seconds / 8.0).clamp(0.25, 2.0)),
            window: Duration::from_secs_f64(seconds),
            slices: 8,
        }
    }
}

/// What one slice of the window saw.
#[derive(Default)]
pub struct Slice {
    /// Read ops completed (correct ones).
    pub ops: u64,
    /// Their latencies.
    pub latency: Histogram,
    /// The slice's measured length.
    pub wall_ns: u64,
    /// CPU the whole process burned.
    pub process_cpu_ns: u64,
    /// Of that, CPU burned by threads that only generate load.
    pub generator_cpu_ns: u64,
}

/// What the whole window saw.
pub struct WindowResult {
    /// One entry per slice.
    pub slices: Vec<Slice>,
    /// Read ops completed inside the window, correct or not.
    pub attempted: u64,
    /// Of those, the ones with a wrong opcode, shape or length.
    pub failed: u64,
    /// Reply payload bytes received inside the window.
    pub reply_bytes: u64,
    /// Size-l summaries those replies carried.
    pub summaries: u64,
    /// Program counters at the window's two edges.
    pub counters: (Counters, Counters),
    /// `VmHWM` at the end of the window.
    pub peak_rss_mb: f64,
}

/// Slice bookkeeping shared by both read loops. Boundary `i` is at
/// `warm_up + i * slice`; a completion belongs to the slice between
/// the last boundary crossed and the next.
struct WindowLog<'a> {
    start: Instant,
    plan: Plan,
    crossed: usize,
    marks: Vec<(Instant, u64, u64)>,
    result: WindowResult,
    read_counters: &'a dyn Fn() -> Counters,
    generator_cpu: &'a dyn Fn() -> u64,
}

impl<'a> WindowLog<'a> {
    fn new(
        plan: Plan,
        read_counters: &'a dyn Fn() -> Counters,
        generator_cpu: &'a dyn Fn() -> u64,
    ) -> Self {
        WindowLog {
            start: Instant::now(),
            plan,
            crossed: 0,
            marks: Vec::with_capacity(plan.slices + 1),
            result: WindowResult {
                slices: (0..plan.slices).map(|_| Slice::default()).collect(),
                attempted: 0,
                failed: 0,
                reply_bytes: 0,
                summaries: 0,
                counters: (Counters::default(), Counters::default()),
                peak_rss_mb: 0.0,
            },
            read_counters,
            generator_cpu,
        }
    }

    fn boundary(&self, i: usize) -> Instant {
        self.start
            + self.plan.warm_up
            + self.plan.window.mul_f64(i as f64 / self.plan.slices as f64)
    }

    /// Crosses every boundary at or before `now`, marking clocks (and,
    /// at the window's edges, counters) as it goes.
    fn advance(&mut self, now: Instant) {
        while self.crossed <= self.plan.slices && now >= self.boundary(self.crossed) {
            if self.crossed == 0 {
                self.result.counters.0 = (self.read_counters)();
            }
            if self.crossed == self.plan.slices {
                self.result.counters.1 = (self.read_counters)();
                self.result.peak_rss_mb = sys::peak_rss_mb();
            }
            self.marks.push((Instant::now(), sys::process_cpu_ns(), (self.generator_cpu)()));
            self.crossed += 1;
        }
    }

    fn done(&self) -> bool {
        self.crossed > self.plan.slices
    }

    /// Records one completed read at `now`.
    fn complete(
        &mut self,
        now: Instant,
        latency: Duration,
        ok: bool,
        bytes: usize,
        summaries: u64,
    ) {
        self.advance(now);
        if self.crossed == 0 || self.done() {
            return; // warm-up, or past the window
        }
        self.result.attempted += 1;
        if !ok {
            // A failed op misses every latency figure.
            self.result.failed += 1;
            return;
        }
        let slice = &mut self.result.slices[self.crossed - 1];
        slice.ops += 1;
        slice.latency.record(latency.as_nanos() as u64);
        self.result.reply_bytes += bytes as u64;
        self.result.summaries += summaries;
    }

    fn finish(mut self) -> WindowResult {
        for (slice, w) in self.result.slices.iter_mut().zip(self.marks.windows(2)) {
            slice.wall_ns = (w[1].0 - w[0].0).as_nanos() as u64;
            slice.process_cpu_ns = w[1].1 - w[0].1;
            slice.generator_cpu_ns = w[1].2 - w[0].2;
        }
        self.result
    }
}

/// A `Results` payload starts `[epoch u64][n_requests u32][n_results u32]`;
/// every frame of the benchmark carries exactly one request.
fn summaries_in(payload: &[u8]) -> Option<u64> {
    let n_requests = u32::from_le_bytes(payload.get(8..12)?.try_into().ok()?);
    let n_results = u32::from_le_bytes(payload.get(12..16)?.try_into().ok()?);
    (n_requests == 1).then_some(u64::from(n_results))
}

/// The requests in flight on the reader's connection, found by id:
/// the server replies in completion order (inline fast-path hits beside
/// two dispatch workers), so a slow request can be overtaken by any
/// number of later ones and still has to be timed from its own send
/// and checked against its own query.
struct InFlight {
    slots: [Option<(u64, Instant, usize)>; WINDOW_DEPTH],
}

impl InFlight {
    fn new() -> InFlight {
        InFlight { slots: [None; WINDOW_DEPTH] }
    }

    /// Notes that request `id`, for query `q`, went out at `sent`.
    fn insert(&mut self, id: u64, sent: Instant, q: usize) {
        let free = self.slots.iter_mut().find(|s| s.is_none());
        *free.expect("never more than WINDOW_DEPTH requests in flight") = Some((id, sent, q));
    }

    /// Takes request `id` out: when it was sent and which query it
    /// carried, or `None` for an id that is not in flight.
    fn take(&mut self, id: u64) -> Option<(Instant, usize)> {
        let slot = self.slots.iter_mut().find(|s| s.is_some_and(|(i, _, _)| i == id))?;
        slot.take().map(|(_, sent, q)| (sent, q))
    }
}

/// The wire read loop. `expect_len[q]`, when given, is the exact reply
/// length of query `q` (static data only). `writer_cpu` is the writer
/// thread's own CPU time, published by it, so it can be kept out of
/// `cpu_us_per_op` along with this thread's.
pub fn run_wire_reader(
    client: &mut NetClient,
    stream: &ReadStream,
    expect_len: Option<&[usize]>,
    plan: Plan,
    read_counters: &dyn Fn() -> Counters,
    writer_cpu: &AtomicU64,
) -> WindowResult {
    let generator_cpu = || sys::thread_cpu_ns() + writer_cpu.load(Ordering::Relaxed);
    let mut log = WindowLog::new(plan, read_counters, &generator_cpu);
    let mut in_flight = InFlight::new();
    let mut next = 0usize;
    let mut send = |client: &mut NetClient, in_flight: &mut InFlight| {
        let q = stream.at(next);
        next += 1;
        let sent = Instant::now();
        let id = client.send(Opcode::Query, &stream.payloads[q]).expect("send a query frame");
        in_flight.insert(id, sent, q);
    };
    for _ in 0..WINDOW_DEPTH {
        send(client, &mut in_flight);
    }
    loop {
        let (id, op, payload) = client.recv_any().expect("receive a reply frame");
        let now = Instant::now();
        let (sent, q) = in_flight.take(id).expect("a reply to a request in flight");
        let summaries = if op == Opcode::Results { summaries_in(&payload) } else { None };
        let ok = summaries.is_some() && expect_len.is_none_or(|e| e[q] == payload.len());
        log.complete(now, now - sent, ok, payload.len(), summaries.unwrap_or(0));
        if log.done() {
            break;
        }
        send(client, &mut in_flight);
    }
    for _ in 1..WINDOW_DEPTH {
        client.recv_any().expect("drain the replies still in flight");
    }
    log.finish()
}

/// The in-process read loop of `embed_hot`: one caller, one
/// `batch_query_at` at a time. The caller thread runs the program's
/// own code (keyword lookup, fan-out, merge), so no thread here only
/// generates load and none is subtracted from the CPU figure.
/// `expect_summaries[q]` is the number of summaries query `q` returns.
pub fn run_embed_reader(
    router: &ClusterRouter,
    stream: &ReadStream,
    expect_summaries: &[usize],
    plan: Plan,
    read_counters: &dyn Fn() -> Counters,
) -> WindowResult {
    let mut log = WindowLog::new(plan, read_counters, &|| 0);
    let mut next = 0usize;
    while !log.done() {
        let q = stream.at(next);
        next += 1;
        let sent = Instant::now();
        let reply = router.batch_query_at(&stream.queries[q]);
        let now = Instant::now();
        let n = reply.ok().and_then(|(_, r)| (r.len() == 1).then(|| r[0].len()));
        log.complete(now, now - sent, n == Some(expect_summaries[q]), 0, n.unwrap_or(0) as u64);
    }
    log.finish()
}

/// One write the writer made.
pub struct WriteSample {
    /// When the batch was due, relative to the writer's start.
    pub due: Duration,
    /// Due time to `Applied` reply.
    pub latency: Duration,
    /// Whether it was sent more than 1 ms after it was due.
    pub late: bool,
}

/// What the writer did over its whole life (warm-up included).
#[derive(Default)]
pub struct WriterResult {
    /// Every acknowledged batch, in order.
    pub samples: Vec<WriteSample>,
    /// Batches that were not acknowledged `Applied`.
    pub failed: u64,
    /// The epoch in the last `Applied` reply.
    pub last_epoch: u64,
}

/// The open-loop writer of `mixed_rw`: sends `batches[k]` at
/// `start + k * WRITE_INTERVAL` (or as soon after as the previous
/// reply allows), until `stop` is set. Publishes its own CPU time in
/// `cpu_ns` after every batch.
pub fn run_writer(
    client: &mut NetClient,
    batches: &[Vec<u8>],
    start: Instant,
    stop: &AtomicBool,
    cpu_ns: &AtomicU64,
) -> WriterResult {
    let mut out = WriterResult::default();
    for (k, payload) in batches.iter().enumerate() {
        let due = WRITE_INTERVAL * k as u32;
        if let Some(wait) = (start + due).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        let late = start.elapsed() > due + LATE;
        match client.call(Opcode::ApplyBatch, payload) {
            Ok(sizel_net::Reply::Applied { epoch }) => {
                let latency = start.elapsed().saturating_sub(due);
                out.samples.push(WriteSample { due, latency, late });
                out.last_epoch = epoch;
            }
            _ => out.failed += 1,
        }
        cpu_ns.store(sys::thread_cpu_ns(), Ordering::Relaxed);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completions_land_in_the_slice_between_two_boundaries() {
        let plan = Plan {
            warm_up: Duration::from_millis(100),
            window: Duration::from_millis(400),
            slices: 4,
        };
        let counters = || Counters { frames_in: 1, ..Counters::default() };
        let mut log = WindowLog::new(plan, &counters, &|| 0);
        let start = log.start;
        let t = |ms: u64| start + Duration::from_millis(ms);
        let lat = Duration::from_micros(50);
        let at = [50, 100, 150, 199, 200, 420, 499, 500, 650];
        for ms in at {
            let now = t(ms);
            log.complete(now, lat, ms != 150, 10, 2);
        }
        assert!(log.done());
        let r = log.finish();
        // 50 is warm-up; 500 and 650 are past the window; 150 failed.
        assert_eq!(r.attempted, 6);
        assert_eq!(r.failed, 1);
        let ops: Vec<u64> = r.slices.iter().map(|s| s.ops).collect();
        assert_eq!(ops, vec![2, 1, 0, 2]);
        assert_eq!(r.reply_bytes, 50);
        assert_eq!(r.summaries, 10);
        assert_eq!(r.counters.0.frames_in, 1);
        assert!(r.peak_rss_mb > 0.0);
    }

    /// The server replies in completion order: request 0 stays out
    /// while thirty-nine later ones come and go, several ring lengths
    /// past it, and is still found with its own send time and query.
    #[test]
    fn a_reply_overtaken_many_times_keeps_its_own_send_time_and_query() {
        let t0 = Instant::now();
        let at = |id: u64| t0 + Duration::from_micros(id);
        let mut in_flight = InFlight::new();
        for id in 0..WINDOW_DEPTH as u64 {
            in_flight.insert(id, at(id), 100 + id as usize);
        }
        for done in 1..40u64 {
            assert_eq!(in_flight.take(done), Some((at(done), 100 + done as usize)));
            let id = done + WINDOW_DEPTH as u64 - 1;
            in_flight.insert(id, at(id), 100 + id as usize);
        }
        assert_eq!(in_flight.take(0), Some((at(0), 100)));
        assert_eq!(in_flight.take(0), None, "a reply is matched once");
        assert_eq!(in_flight.take(999), None, "an id never sent is not in flight");
    }

    #[test]
    fn results_header_is_read_without_decoding() {
        let mut p = 7u64.to_le_bytes().to_vec();
        p.extend_from_slice(&1u32.to_le_bytes());
        p.extend_from_slice(&10u32.to_le_bytes());
        assert_eq!(summaries_in(&p), Some(10));
        p[8] = 2; // two requests in one frame: not ours
        assert_eq!(summaries_in(&p), None);
        assert_eq!(summaries_in(&p[..12]), None);
    }
}
