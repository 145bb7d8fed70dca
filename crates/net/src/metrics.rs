//! Front-end observability: lock-free counters incremented on the hot
//! paths, rendered on demand into a text-exposition page (DESIGN.md
//! §9.5 lists every series).
//!
//! The page is served two ways from the same renderer: as a `StatsText`
//! reply to a `Stats` frame, and as a plain-HTTP `GET` response for
//! scrapers that speak no sizel-net (the server recognizes an ASCII
//! `GET ` where the frame magic would be — the magic bytes `"LS"` make
//! the two unambiguous on the first two octets).
//!
//! All `*_total` series are monotonic counters — *rates* (e.g. QPS) are
//! the scraper's division, which is why the page exposes raw
//! `queries_served_total` rather than a decaying gauge.
//! Gauges (`connections_live`, `refresh_lag`) are instantaneous reads
//! at render time.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use sizel_cluster::ClusterRouter;

use crate::reactor::ReactorKind;

/// The front-end's own counters (cluster/serve counters are read from
/// the router at render time, not duplicated here).
#[derive(Debug, Default)]
pub struct NetCounters {
    /// Connections ever accepted.
    pub connections_opened: AtomicU64,
    /// Connections currently open.
    pub connections_live: AtomicU64,
    /// `accept` calls that failed with anything but `WouldBlock` or
    /// `Interrupted` (e.g. `EMFILE`); each rests the listener for a
    /// sweep tick.
    pub accept_errors: AtomicU64,
    /// Request frames fully received and admitted to decode.
    pub frames_in: AtomicU64,
    /// Reply frames enqueued for write (every admitted request produces
    /// exactly one, as does every shed and every error).
    pub frames_out: AtomicU64,
    /// Always 0: the in-flight budget gate it counted is gone (requests
    /// run to completion on their reactor). Kept for the frozen
    /// benchmark package, which sums it into its shed count.
    pub shed_inflight: AtomicU64,
    /// Always 0: the dispatch queue it counted is gone. Kept for the
    /// frozen benchmark package, like `shed_inflight`.
    pub shed_queue: AtomicU64,
    /// Requests shed because the connection's outbox byte cap was hit
    /// (the slow-reader gate).
    pub shed_outbox: AtomicU64,
    /// Connections closed by the idle reaper.
    pub idle_reaped: AtomicU64,
    /// Reactor wakeups (readiness or doorbell) that moved bytes, summed
    /// over the reactors.
    pub reactor_wakeups: AtomicU64,
    /// Reactor wakeups that moved nothing (e.g. a doorbell already
    /// serviced in the previous pass).
    pub reactor_spurious: AtomicU64,
    /// Physical doorbell writes (eventfd write / condvar notify). Only
    /// shutdown rings a reactor, so this reads 0 while a server serves.
    pub doorbell_rings: AtomicU64,
    /// Rings coalesced into nothing (the reactor was awake or a ring was
    /// already in flight).
    pub doorbell_coalesced: AtomicU64,
    /// Write-interest (EPOLLOUT) registration toggles.
    pub epollout_toggles: AtomicU64,
    /// Requests run to completion on the reactor that read them: every
    /// request frame past the outbox gate. (The name is the former
    /// inline fast path's, which became the only path.)
    pub fastpath_hits: AtomicU64,
    /// Always 0: nothing falls back to a dispatch queue any more. Kept
    /// for the frozen benchmark package, which reads it.
    pub fastpath_fallbacks: AtomicU64,
    /// Frame buffers served from the pool's free list.
    pub buf_pool_hits: AtomicU64,
    /// Frame buffers freshly allocated because the free list was empty.
    pub buf_pool_misses: AtomicU64,
    /// Frame buffers returned to the free list after their frame was
    /// fully written.
    pub buf_pool_recycled: AtomicU64,
    /// Which reactor backend serves this instance (a `ReactorKind` as
    /// `u8`; 0 until `bind` resolves it).
    pub reactor_backend: AtomicU8,
    /// `Error` replies sent, by coarse class.
    pub errors_malformed: AtomicU64,
    /// `Error(Protocol)` replies: broken envelopes (connection closed after).
    pub errors_protocol: AtomicU64,
    /// `Error(Internal)` replies: a handler panicked.
    pub errors_internal: AtomicU64,
    /// `Error(BadRequest)` replies: well-formed but rejected by the cluster.
    pub errors_bad_request: AtomicU64,
    /// Plain-HTTP `/metrics` scrapes served.
    pub http_scrapes: AtomicU64,
}

impl NetCounters {
    /// Relaxed increment — every call site is a statistic, never a
    /// synchronization point.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Relaxed read.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

fn line(out: &mut String, name: &str, labels: &str, value: impl std::fmt::Display) {
    if labels.is_empty() {
        out.push_str(&format!("{name} {value}\n"));
    } else {
        out.push_str(&format!("{name}{{{labels}}} {value}\n"));
    }
}

/// Renders the whole metrics page: front-end counters, the server's
/// serve counters and cache hit ratio, and the refresh worker's epoch
/// lag.
pub fn render_metrics(counters: &NetCounters, router: &ClusterRouter) -> String {
    let mut out = String::with_capacity(2048);

    // Front-end.
    line(&mut out, "sizel_net_connections_live", "", NetCounters::get(&counters.connections_live));
    line(
        &mut out,
        "sizel_net_connections_opened_total",
        "",
        NetCounters::get(&counters.connections_opened),
    );
    line(&mut out, "sizel_net_accept_errors_total", "", NetCounters::get(&counters.accept_errors));
    line(&mut out, "sizel_net_frames_in_total", "", NetCounters::get(&counters.frames_in));
    line(&mut out, "sizel_net_frames_out_total", "", NetCounters::get(&counters.frames_out));
    line(
        &mut out,
        "sizel_net_shed_total",
        "reason=\"inflight_budget\"",
        NetCounters::get(&counters.shed_inflight),
    );
    line(
        &mut out,
        "sizel_net_shed_total",
        "reason=\"queue_full\"",
        NetCounters::get(&counters.shed_queue),
    );
    line(
        &mut out,
        "sizel_net_shed_total",
        "reason=\"outbox_full\"",
        NetCounters::get(&counters.shed_outbox),
    );
    line(&mut out, "sizel_net_idle_reaped_total", "", NetCounters::get(&counters.idle_reaped));
    let backend = ReactorKind::from_u8(counters.reactor_backend.load(Ordering::Relaxed))
        .map_or("unknown", ReactorKind::name);
    line(&mut out, "sizel_net_reactor", &format!("backend=\"{backend}\""), 1);
    line(
        &mut out,
        "sizel_net_reactor_wakeups_total",
        "",
        NetCounters::get(&counters.reactor_wakeups),
    );
    line(
        &mut out,
        "sizel_net_reactor_spurious_wakeups_total",
        "",
        NetCounters::get(&counters.reactor_spurious),
    );
    line(
        &mut out,
        "sizel_net_doorbell_rings_total",
        "",
        NetCounters::get(&counters.doorbell_rings),
    );
    line(
        &mut out,
        "sizel_net_doorbell_coalesced_total",
        "",
        NetCounters::get(&counters.doorbell_coalesced),
    );
    line(
        &mut out,
        "sizel_net_epollout_toggles_total",
        "",
        NetCounters::get(&counters.epollout_toggles),
    );
    line(
        &mut out,
        "sizel_net_fastpath_total",
        "result=\"hit\"",
        NetCounters::get(&counters.fastpath_hits),
    );
    line(
        &mut out,
        "sizel_net_fastpath_total",
        "result=\"fallback\"",
        NetCounters::get(&counters.fastpath_fallbacks),
    );
    line(
        &mut out,
        "sizel_net_buf_pool_total",
        "event=\"hit\"",
        NetCounters::get(&counters.buf_pool_hits),
    );
    line(
        &mut out,
        "sizel_net_buf_pool_total",
        "event=\"miss\"",
        NetCounters::get(&counters.buf_pool_misses),
    );
    line(
        &mut out,
        "sizel_net_buf_pool_total",
        "event=\"recycled\"",
        NetCounters::get(&counters.buf_pool_recycled),
    );
    line(
        &mut out,
        "sizel_net_errors_total",
        "code=\"malformed\"",
        NetCounters::get(&counters.errors_malformed),
    );
    line(
        &mut out,
        "sizel_net_errors_total",
        "code=\"protocol\"",
        NetCounters::get(&counters.errors_protocol),
    );
    line(
        &mut out,
        "sizel_net_errors_total",
        "code=\"internal\"",
        NetCounters::get(&counters.errors_internal),
    );
    line(
        &mut out,
        "sizel_net_errors_total",
        "code=\"bad_request\"",
        NetCounters::get(&counters.errors_bad_request),
    );
    line(&mut out, "sizel_net_http_scrapes_total", "", NetCounters::get(&counters.http_scrapes));

    // Serve and cluster state of the router's one server. Its series
    // carry `shard="0"`, the label they had when a router held several.
    let stats = router.stats();
    let server = &stats.per_shard[0];
    let labels = "shard=\"0\"";
    line(&mut out, "sizel_serve_queries_served_total", labels, server.queries_served);
    line(&mut out, "sizel_serve_summaries_computed_total", labels, server.summaries_computed);
    line(&mut out, "sizel_serve_mutations_applied_total", labels, server.mutations_applied);
    line(&mut out, "sizel_serve_rewarmed_total", labels, server.rewarmed);
    line(&mut out, "sizel_serve_cache_hits_total", labels, server.cache.hits);
    line(&mut out, "sizel_serve_cache_misses_total", labels, server.cache.misses);
    line(&mut out, "sizel_serve_cache_probe_misses_total", labels, server.cache.probe_misses);
    line(&mut out, "sizel_serve_cache_evictions_total", labels, server.cache.evictions);
    line(&mut out, "sizel_serve_cache_invalidations_total", labels, server.cache.invalidations);
    line(&mut out, "sizel_serve_cache_poison_resets_total", labels, server.cache.poison_resets);
    let ratio = server.cache.hit_ratio();
    line(&mut out, "sizel_serve_cache_hit_ratio", labels, format!("{ratio:.6}"));

    // Refresh lag: the server's epoch minus the worker's last completed
    // re-warm epoch (0 when the worker is disabled or caught up).
    let epoch = stats.epochs[0].get();
    line(&mut out, "sizel_cluster_epoch", labels, epoch);
    let last = stats.refresh.last_epoch;
    line(&mut out, "sizel_refresh_last_epoch", labels, last);
    line(&mut out, "sizel_refresh_lag", labels, epoch.saturating_sub(last));

    // Disk tier, once attached.
    if let Some(disk) = server.disk {
        line(&mut out, "sizel_disk_segment_generation", labels, disk.store.generation);
        line(&mut out, "sizel_disk_segment_lists", labels, disk.store.lists);
        line(&mut out, "sizel_disk_wal_bytes", labels, disk.wal_bytes);
        line(&mut out, "sizel_disk_wal_appends_total", labels, disk.wal_appends);
        line(&mut out, "sizel_disk_wal_syncs_total", labels, disk.wal_syncs);
    }
    line(&mut out, "sizel_refresh_passes_total", "", stats.refresh.passes);
    line(&mut out, "sizel_refresh_rewarmed_keys_total", "", stats.refresh.rewarmed_keys);
    out
}

/// A minimal plain-text HTTP/1.1 response (the scraper path wraps the
/// metrics page in one; the server closes the connection after writing it).
pub fn http_response(status: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_helpers_are_relaxed_increments() {
        let c = NetCounters::default();
        NetCounters::bump(&c.frames_in);
        NetCounters::bump(&c.frames_in);
        assert_eq!(NetCounters::get(&c.frames_in), 2);
        assert_eq!(NetCounters::get(&c.frames_out), 0);
    }
}
