//! Allocation-count guard for the zero-copy wire path (DESIGN.md §9.6):
//! once the server's buffer pool, receive buffers, and the client's
//! send scratch are warm, a `Ping` round trip and a warm (cache-hit)
//! `Summarize` round trip must cost a **small constant** number of heap
//! allocations — process-wide, both sides of the socket counted.
//!
//! What "warm steady state" buys, concretely: the client reuses one
//! frame-encoding buffer; the server parses requests in place from a
//! compacting receive buffer, answers both shapes on the reactor that
//! read them from pooled reply buffers, and recycles every buffer on
//! flush. The only alloc left per round trip is the client's own reply
//! payload vector (zero-length for `Pong`, so a ping round trip is
//! allocation-free).
//!
//! A counting wrapper around the system allocator is installed for this
//! test binary. Keep this file to a SINGLE `#[test]`: the counter is
//! process-global, and a concurrently running test in the same binary
//! would pollute the measured window. (The fixture also runs refresh
//! off — a background re-warm thread would allocate into the window.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sizel_cluster::{ClusterConfig, ClusterRouter};
use sizel_core::engine::QueryOptions;
use sizel_datagen::dblp::DblpConfig;
use sizel_net::frame::Opcode;
use sizel_net::wire::encode_summarize_payload;
use sizel_net::{NetClient, NetConfig};

mod common;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the counter is a relaxed
// atomic with no allocation of its own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that moves is an allocation for our purposes: a warm
        // steady state must not grow any buffer.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Per-round-trip allocation caps, process-wide. Measured on this
/// fixture: 0 for Ping (nothing on either side), 1 for warm Summarize
/// (the client's reply payload vector). The headroom guards flakiness
/// from e.g. a one-off lazy stdlib initialization, not growth — a
/// per-frame copy or a lost pooled buffer costs ≥ 1 *per round trip*
/// and blows the cap immediately.
const PING_CAP_PER_RT: u64 = 2;
const SUMMARIZE_CAP_PER_RT: u64 = 8;

#[test]
fn warm_wire_roundtrips_allocate_a_small_constant() {
    for reactor in common::reactor_choices() {
        eprintln!("--- reactor backend: {reactor:?} ---");
        // Refresh off: no background thread may allocate into the window.
        let router = Arc::new(
            ClusterRouter::partitioned(
                common::replicas(&DblpConfig::tiny(), 2),
                ClusterConfig { serve: common::small_serve(), refresh: None },
            )
            .expect("cluster builds"),
        );
        let server = common::serve(router.clone(), NetConfig { reactor, ..Default::default() });
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");

        let kw = common::existing_keyword(&router.shard(0).engine());
        let tds = router.shard(0).engine().ds_hits(&kw)[0];
        let spayload = encode_summarize_payload(tds, QueryOptions { l: 6, ..Default::default() });

        // Warm: grow every buffer to its high-water mark — the client
        // send scratch, the connection's receive buffer, the pool's free
        // list, the write queue — and populate the serve cache so the
        // measured summaries are cache hits.
        for _ in 0..64 {
            let id = client.send(Opcode::Ping, &[]).expect("send");
            let (op, _) = client.recv_for(id).expect("reply");
            assert_eq!(op, Opcode::Pong);
        }
        for _ in 0..16 {
            let id = client.send(Opcode::Summarize, &spayload).expect("send");
            let (op, _) = client.recv_for(id).expect("reply");
            assert_eq!(op, Opcode::Summary);
        }

        // Measure: ping round trips.
        const PINGS: u64 = 32;
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..PINGS {
            let id = client.send(Opcode::Ping, &[]).expect("send");
            let (op, payload) = client.recv_for(id).expect("reply");
            assert_eq!(op, Opcode::Pong);
            assert!(payload.is_empty());
        }
        let ping_delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
        eprintln!("net_alloc_guard: {ping_delta} allocations over {PINGS} ping round trips");
        assert!(
            ping_delta <= PING_CAP_PER_RT * PINGS,
            "ping round trips allocated {ping_delta} times over {PINGS} calls \
             (cap {PING_CAP_PER_RT}/call) — a per-frame copy or buffer crept back \
             into the wire path"
        );

        // Measure: warm summarize round trips (cache hits).
        const SUMS: u64 = 16;
        let mut reference: Option<Vec<u8>> = None;
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..SUMS {
            let id = client.send(Opcode::Summarize, &spayload).expect("send");
            let (op, payload) = client.recv_for(id).expect("reply");
            assert_eq!(op, Opcode::Summary);
            match &reference {
                None => reference = Some(payload),
                Some(r) => assert_eq!(&payload, r, "warm replies must not drift"),
            }
        }
        let sum_delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
        eprintln!(
            "net_alloc_guard: {sum_delta} allocations over {SUMS} warm summarize round trips"
        );
        // The first measured iteration allocates the reference clone's
        // buffer; discount it.
        assert!(
            sum_delta.saturating_sub(2) <= SUMMARIZE_CAP_PER_RT * SUMS,
            "warm summarize round trips allocated {sum_delta} times over {SUMS} calls \
             (cap {SUMMARIZE_CAP_PER_RT}/call) — the pooled reply path is leaking \
             allocations"
        );

        // The measured round trips really ran on the reactor, and the
        // summaries really were cache hits.
        let c = server.counters();
        assert!(
            c.fastpath_hits.load(Ordering::Relaxed) >= PINGS + SUMS,
            "the measured window should have run on the reactor (hits = {})",
            c.fastpath_hits.load(Ordering::Relaxed)
        );
        assert_eq!(router.stats().per_shard[0].summaries_computed, 1, "one cold summarize");
        // And the pool really recycled: flushes return buffers.
        assert!(c.buf_pool_recycled.load(Ordering::Relaxed) > 0);
    }
}
