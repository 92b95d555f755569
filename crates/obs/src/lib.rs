//! The workspace's telemetry spine.
//!
//! Every layer of the pipeline — the serve daemon, the fleet
//! coordinator and its agents, the core analysis phases — reports through this one crate instead of growing its own
//! counter struct. Four pieces:
//!
//! 1. **Metrics** ([`Registry`]): monotonic [`Counter`]s, [`Gauge`]s,
//!    and fixed-bucket log-linear latency [`Histogram`]s. Registration
//!    takes a lock once; the handles it returns are plain atomics, so
//!    the hot path costs one `fetch_add`. Snapshots merge
//!    associatively, and the whole registry renders to Prometheus text
//!    exposition format ([`Registry::render_prometheus`]).
//!
//! 2. **Spans** ([`span`], [`SpanGuard`]): wall-clock intervals with
//!    explicit parent ids, recorded into a per-thread ring buffer and
//!    drained to Chrome trace-event JSON ([`chrome_trace_json`]) —
//!    load the file in `chrome://tracing` or Perfetto. A thread-local
//!    context stack nests spans automatically; [`set_context`] grafts
//!    a subtree under a parent that lives in another process.
//!
//! 3. **Cross-machine trace context** ([`TraceContext`]): the
//!    run-id/unit-id/span-id triple the fleet protocol carries in its
//!    NDJSON frames, so a unit's coordinator-side dispatch
//!    span, agent-side analysis span, and serve-side offload span
//!    stitch into one tree. Remote spans re-enter the local rings via
//!    [`record_remote`].
//!
//! 4. **Events** ([`event`]): the operational log of library code. Each
//!    event bumps a counter per kind; only a binary prints the lines
//!    ([`print_events_to_stderr`]).
//!
//! The build environment is offline, so the crate is dependency-free
//! by construction — the JSON and Prometheus renderings are hand
//! rolled, same discipline as the serde/rand shims.
//!
//! # Cost when you don't look
//!
//! [`set_enabled`]`(false)` turns every span and histogram record site
//! into a relaxed load and a predictable branch; the `off` cargo
//! feature makes that branch a compile-time constant. Counters and
//! gauges stay live in both modes: the serve daemon's `stats` reply is
//! *derived* from them, so disabling them would change answers, not
//! just overhead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod metrics;
mod trace;

pub use event::{event, event_count, print_events_to_stderr, EVENTS_TOTAL};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, HISTOGRAM_BUCKETS};
pub use trace::{
    chrome_trace_json, collect, current_context, drain_trace, new_run_id, record_remote,
    set_context, span, span_root, ContextGuard, SpanGuard, SpanRecord, TraceContext,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// `true` when span and histogram recording is on (the default). With
/// the `off` feature the answer is a compile-time `false` and the
/// recording paths fold away entirely.
#[inline]
pub fn enabled() -> bool {
    if cfg!(feature = "off") {
        return false;
    }
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span and histogram recording on or off at runtime — the
/// process-wide kill switch the overhead bench flips to measure what
/// telemetry costs. Counters and gauges are unaffected (see the crate
/// docs for why).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-global registry — what `bside serve`, `bside agent` and
/// `bside corpus` export. Library embedders (and tests, which share a
/// process) construct their own [`Registry`] instead so concurrent
/// instances can't bleed counts into each other.
pub fn global() -> Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Registry::new())).clone()
}

/// The enabled flag is process-global, so the one test that flips it
/// takes this lock for writing while every test that records takes it
/// for reading.
#[cfg(test)]
pub(crate) fn test_enabled_lock() -> &'static std::sync::RwLock<()> {
    static LOCK: OnceLock<std::sync::RwLock<()>> = OnceLock::new();
    LOCK.get_or_init(|| std::sync::RwLock::new(()))
}
