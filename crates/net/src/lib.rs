//! # sizel-net — the TCP front-end
//!
//! A network face for the sharded serving stack: a length-prefixed
//! binary protocol over plain TCP carrying keyword queries, per-DS
//! summaries, mutation batches, and metrics scrapes into a
//! [`ClusterRouter`](sizel_cluster::ClusterRouter), with
//! per-connection **pipelining**, explicit **load shedding** (`Busy`
//! frames — never a silent drop), and a text-exposition **metrics**
//! page served both in-band and to plain-HTTP scrapers.
//!
//! The stack, bottom to top:
//!
//! * [`frame`] — the 16-byte versioned envelope and opcode registry
//!   (the protocol reference table in DESIGN.md §9 is generated from
//!   it);
//! * [`wire`] — the canonical little-endian payload codec, whose
//!   deterministic encoding is what the loopback suite uses to prove
//!   the server **byte-identical** to in-process router calls at every
//!   epoch;
//! * [`reactor`] — the readiness backends: a raw-syscall
//!   epoll + eventfd reactor on Linux with the portable sleep-poll
//!   sweep retained behind the same trait as a fallback and
//!   differential oracle;
//! * [`buf`] — the free-list frame-buffer pool that makes the reply
//!   path allocation-free at steady state (DESIGN.md §9.6);
//! * [`server`] — one reactor thread per core, each accepting from the
//!   one listener and running its own connections' requests to
//!   completion (decode, router call, encode) under `catch_unwind`
//!   panic containment, with one admission gate (the per-connection
//!   outbox byte cap), vectored outbox flushes and idle-connection
//!   reaping;
//! * [`client`] — the blocking pipelining client (also behind the
//!   `sizel-netcat` binary);
//! * [`metrics`] — lock-free counters and the exposition renderer.

pub mod buf;
pub mod client;
pub mod frame;
pub mod metrics;
pub mod reactor;
pub mod server;
#[cfg(target_os = "linux")]
mod sys;
pub mod wire;

pub use buf::BufPool;
pub use client::{ClientError, NetClient};
pub use frame::{protocol_reference_table, BusyReason, ErrorCode, FrameError, Opcode};
pub use metrics::{render_metrics, NetCounters};
pub use reactor::{ReactorChoice, ReactorKind};
pub use server::{NetConfig, NetServer};
pub use wire::{Reply, Request, WireError, WireOsNode, WireResult};
