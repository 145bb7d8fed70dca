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
//! All `*_total` series are monotonic counters — *rates* (e.g. QPS per
//! tenant) are the scraper's division, which is why the page exposes
//! raw `queries_served_total` per shard rather than a decaying gauge.
//! Gauges (`connections_live`, `queue_depth`, `refresh_lag`) are
//! instantaneous reads at render time.

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
    /// Request frames fully received and admitted to decode.
    pub frames_in: AtomicU64,
    /// Reply frames enqueued for write (every admitted request produces
    /// exactly one, as does every shed and every error).
    pub frames_out: AtomicU64,
    /// Requests shed because the connection's in-flight budget was full.
    pub shed_inflight: AtomicU64,
    /// Requests shed because the dispatch queue was full.
    pub shed_queue: AtomicU64,
    /// Requests shed because the connection's outbox byte cap was hit
    /// (the slow-reader gate).
    pub shed_outbox: AtomicU64,
    /// Connections closed by the idle reaper.
    pub idle_reaped: AtomicU64,
    /// Reactor wakeups (readiness or doorbell) that moved bytes.
    pub reactor_wakeups: AtomicU64,
    /// Reactor wakeups that moved nothing (e.g. a doorbell already
    /// serviced in the previous pass).
    pub reactor_spurious: AtomicU64,
    /// Physical doorbell writes (eventfd write / condvar notify).
    pub doorbell_rings: AtomicU64,
    /// Doorbell notifies coalesced into an already-pending ring (the
    /// I/O thread was awake or a ring was already in flight).
    pub doorbell_coalesced: AtomicU64,
    /// Write-interest (EPOLLOUT) registration toggles.
    pub epollout_toggles: AtomicU64,
    /// Requests answered inline on the I/O thread (Ping, or a
    /// Query/Summarize served wholly from the summary cache).
    pub fastpath_hits: AtomicU64,
    /// Fast-path-eligible requests that fell back to the dispatch queue
    /// (cache miss, lock contention, or inline budget exhausted).
    pub fastpath_fallbacks: AtomicU64,
    /// Frame buffers served from the pool's free list.
    pub buf_pool_hits: AtomicU64,
    /// Frame buffers freshly allocated because the free list was empty.
    pub buf_pool_misses: AtomicU64,
    /// Frame buffers returned to the free list after their frame was
    /// fully written (or their payload dispatched).
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

/// Renders the whole metrics page: front-end counters and the dispatch
/// queue's depth, per-shard serve counters (labelled with the tenant
/// name in multi-tenant mode), cache hit ratios, and the refresh
/// worker's per-shard epoch lag.
pub fn render_metrics(
    counters: &NetCounters,
    queue_depth: usize,
    router: &ClusterRouter,
) -> String {
    let mut out = String::with_capacity(2048);

    // Front-end.
    line(&mut out, "sizel_net_connections_live", "", NetCounters::get(&counters.connections_live));
    line(
        &mut out,
        "sizel_net_connections_opened_total",
        "",
        NetCounters::get(&counters.connections_opened),
    );
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
    line(&mut out, "sizel_net_queue_depth", "", queue_depth);
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

    // Per-shard serve and cluster state. In multi-tenant mode each shard
    // IS a tenant, so the tenant name labels its series — this is the
    // per-tenant QPS/cache view; in partitioned mode the shard index
    // alone identifies the cache partition.
    let tenants = router.tenant_names();
    let tenant_of = |shard: usize| -> Option<&str> {
        tenants.iter().find(|(_, s)| *s == shard).map(|(n, _)| n.as_str())
    };
    let stats = router.stats();
    for (i, per_shard) in stats.per_shard.iter().enumerate() {
        let labels = match tenant_of(i) {
            Some(t) => format!("shard=\"{i}\",tenant=\"{t}\""),
            None => format!("shard=\"{i}\""),
        };
        line(&mut out, "sizel_serve_queries_served_total", &labels, per_shard.queries_served);
        line(
            &mut out,
            "sizel_serve_summaries_computed_total",
            &labels,
            per_shard.summaries_computed,
        );
        line(&mut out, "sizel_serve_mutations_applied_total", &labels, per_shard.mutations_applied);
        line(&mut out, "sizel_serve_rewarmed_total", &labels, per_shard.rewarmed);
        line(&mut out, "sizel_serve_cache_hits_total", &labels, per_shard.cache.hits);
        line(&mut out, "sizel_serve_cache_misses_total", &labels, per_shard.cache.misses);
        line(
            &mut out,
            "sizel_serve_cache_probe_misses_total",
            &labels,
            per_shard.cache.probe_misses,
        );
        line(&mut out, "sizel_serve_cache_evictions_total", &labels, per_shard.cache.evictions);
        line(
            &mut out,
            "sizel_serve_cache_invalidations_total",
            &labels,
            per_shard.cache.invalidations,
        );
        line(
            &mut out,
            "sizel_serve_cache_poison_resets_total",
            &labels,
            per_shard.cache.poison_resets,
        );
        let ratio = per_shard.cache.hit_ratio();
        line(&mut out, "sizel_serve_cache_hit_ratio", &labels, format!("{ratio:.6}"));

        // Refresh lag: shard epoch minus the worker's last completed
        // re-warm epoch (0 when the worker is disabled or caught up).
        let epoch = stats.epochs[i].get();
        line(&mut out, "sizel_cluster_epoch", &labels, epoch);
        let last = stats.refresh.last_epochs.get(i).copied().unwrap_or(epoch);
        line(&mut out, "sizel_refresh_last_epoch", &labels, last);
        line(&mut out, "sizel_refresh_lag", &labels, epoch.saturating_sub(last));

        // Disk tier: on the shard that owns its engine, once attached.
        if let Some(disk) = per_shard.disk {
            let c = disk.store.cache;
            line(&mut out, "sizel_disk_cache_total", &format!("{labels},event=\"hit\""), c.hits);
            line(&mut out, "sizel_disk_cache_total", &format!("{labels},event=\"miss\""), c.misses);
            line(
                &mut out,
                "sizel_disk_cache_total",
                &format!("{labels},event=\"eviction\""),
                c.evictions,
            );
            line(
                &mut out,
                "sizel_disk_cache_total",
                &format!("{labels},event=\"recycled\""),
                c.recycled,
            );
            line(&mut out, "sizel_disk_read_errors_total", &labels, c.read_errors);
            line(&mut out, "sizel_disk_resident_pages", &labels, disk.store.resident_pages);
            line(&mut out, "sizel_disk_segment_generation", &labels, disk.store.generation);
            line(&mut out, "sizel_disk_segment_lists", &labels, disk.store.lists);
            line(&mut out, "sizel_disk_checkpoints_total", &labels, disk.store.checkpoints);
            line(&mut out, "sizel_disk_wal_bytes", &labels, disk.wal_bytes);
            line(&mut out, "sizel_disk_wal_appends_total", &labels, disk.wal_appends);
            line(&mut out, "sizel_disk_wal_syncs_total", &labels, disk.wal_syncs);
        }
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
