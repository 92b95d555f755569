//! Spans, the per-thread ring buffers they land in, and the Chrome
//! trace-event rendering.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The cross-machine correlation triple carried in fleet NDJSON
/// frames: which run, which unit, and which sender-side span
/// should parent the receiver's spans. All-zero means "no context" —
/// the receiver records orphan spans, which is the mandated
/// degradation when the triple is absent or corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Identifies one corpus run across every machine involved.
    pub run_id: u64,
    /// The unit's corpus-wide id (position in input order).
    pub unit_id: u64,
    /// The sender-side span the receiver's spans should hang under.
    pub span_id: u64,
}

/// One finished span: a named wall-clock interval with an explicit
/// parent id. `parent == 0` is a root (or orphan) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (a phase, an endpoint, a lifecycle step).
    pub name: String,
    /// Unique id — unique across processes, not just threads, so
    /// remote spans can graft in without collisions.
    pub id: u64,
    /// Parent span id, 0 for none.
    pub parent: u64,
    /// Run correlation id, 0 for none.
    pub run_id: u64,
    /// Unit correlation id (meaningful only under a run).
    pub unit_id: u64,
    /// Start time in microseconds since the recording process's trace
    /// epoch (first telemetry use). Cross-process clocks are not
    /// aligned; Chrome/Perfetto renders each track on its own line.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Recording thread id (trace-local, not the OS tid).
    pub tid: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Ctx {
    run_id: u64,
    unit_id: u64,
    parent: u64,
}

const RING_CAP: usize = 8192;

#[derive(Default)]
struct Ring {
    spans: VecDeque<SpanRecord>,
    dropped: u64,
}

fn rings() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn next_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    static CUR: Cell<Ctx> = const { Cell::new(Ctx { run_id: 0, unit_id: 0, parent: 0 }) };
    static COLLECTOR: RefCell<Option<Vec<SpanRecord>>> = const { RefCell::new(None) };
    static THREAD_RING: RefCell<Option<(u64, Arc<Mutex<Ring>>)>> = const { RefCell::new(None) };
}

/// Allocates a span id unique across concurrently tracing processes:
/// a per-process random high word (so two agents' ids can't collide
/// when their spans merge into one trace) over a counter low word
/// (never zero).
fn next_span_id() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let seed = *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0x5eed)
            ^ std::process::id() as u64;
        // splitmix64 finalizer so near-identical inputs decorrelate.
        let mut s = nanos.wrapping_add(0x9E37_79B9_7F4A_7C15);
        s = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        s = (s ^ (s >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        s ^ (s >> 31)
    });
    (seed << 32) | (NEXT.fetch_add(1, Ordering::Relaxed) & 0xFFFF_FFFF)
}

fn sink(record: SpanRecord) {
    let collected = COLLECTOR.with(|c| {
        if let Some(vec) = c.borrow_mut().as_mut() {
            vec.push(record.clone());
            true
        } else {
            false
        }
    });
    if collected {
        return;
    }
    THREAD_RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        let (_, ring) = slot.get_or_insert_with(|| {
            let ring = Arc::new(Mutex::new(Ring::default()));
            rings().lock().expect("ring registry").push(ring.clone());
            (next_tid(), ring)
        });
        let mut ring = ring.lock().expect("thread ring");
        if ring.spans.len() >= RING_CAP {
            ring.spans.pop_front();
            ring.dropped += 1;
        }
        ring.spans.push_back(record);
    });
}

fn current_tid() -> u64 {
    THREAD_RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        let (tid, _) = slot.get_or_insert_with(|| {
            let ring = Arc::new(Mutex::new(Ring::default()));
            rings().lock().expect("ring registry").push(ring.clone());
            (next_tid(), ring)
        });
        *tid
    })
}

/// An in-flight span. Ends (and records itself) on [`finish`] or on
/// drop; while alive, spans started on the same thread nest under it.
///
/// [`finish`]: SpanGuard::finish
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    id: u64,
    run_id: u64,
    unit_id: u64,
    parent: u64,
    prev: Ctx,
    start: Instant,
    start_us: u64,
    finished: bool,
}

impl SpanGuard {
    fn begin(name: &'static str, ctx: Ctx) -> SpanGuard {
        let id = next_span_id();
        let prev = CUR.with(|c| {
            let prev = c.get();
            c.set(Ctx {
                run_id: ctx.run_id,
                unit_id: ctx.unit_id,
                parent: id,
            });
            prev
        });
        let start = Instant::now();
        SpanGuard {
            name,
            id,
            run_id: ctx.run_id,
            unit_id: ctx.unit_id,
            parent: ctx.parent,
            prev,
            start,
            start_us: start.duration_since(epoch()).as_micros() as u64,
            finished: false,
        }
    }

    /// This span's id — what goes on the wire as
    /// [`TraceContext::span_id`] so remote spans parent here.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The context to stamp on outbound frames: remote spans recorded
    /// under it become this span's children.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            run_id: self.run_id,
            unit_id: self.unit_id,
            span_id: self.id,
        }
    }

    /// Ends the span, records it, and returns its wall-clock duration
    /// — the *one* measurement, which `core` also uses to fill
    /// `PhaseTimings` so phase wall-times are never taken twice. The
    /// duration is measured even when telemetry is off; only the
    /// recording is skipped.
    pub fn finish(mut self) -> Duration {
        self.complete()
    }

    fn complete(&mut self) -> Duration {
        if self.finished {
            return Duration::ZERO;
        }
        self.finished = true;
        let dur = self.start.elapsed();
        CUR.with(|c| c.set(self.prev));
        if crate::enabled() {
            sink(SpanRecord {
                name: self.name.to_string(),
                id: self.id,
                parent: self.parent,
                run_id: self.run_id,
                unit_id: self.unit_id,
                start_us: self.start_us,
                dur_us: dur.as_micros() as u64,
                tid: current_tid(),
            });
        }
        dur
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.complete();
    }
}

/// A fresh process-unique id for correlating one corpus run across
/// machines — drawn from the span-id sequence, so run ids can't
/// collide with each other or with span ids.
pub fn new_run_id() -> u64 {
    next_span_id()
}

/// Starts a span under the thread's current context: its parent is the
/// innermost live span on this thread (or the context installed by
/// [`set_context`]), and it inherits the run/unit ids.
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard::begin(name, CUR.with(|c| c.get()))
}

/// Starts a root span for a new run: no parent, fresh run/unit ids.
/// Spans started on this thread while it lives nest beneath it.
pub fn span_root(name: &'static str, run_id: u64, unit_id: u64) -> SpanGuard {
    SpanGuard::begin(
        name,
        Ctx {
            run_id,
            unit_id,
            parent: 0,
        },
    )
}

/// Restores the previous thread-local context on drop.
#[derive(Debug)]
pub struct ContextGuard {
    prev: Ctx,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CUR.with(|c| c.set(self.prev));
    }
}

/// Installs a trace context received from another process (or thread)
/// as this thread's current context: spans started while the guard
/// lives parent under `ctx.span_id` and carry its run/unit ids. An
/// all-zero context installs "no context" — subsequent spans are
/// orphans, never errors.
pub fn set_context(ctx: TraceContext) -> ContextGuard {
    let prev = CUR.with(|c| {
        let prev = c.get();
        c.set(Ctx {
            run_id: ctx.run_id,
            unit_id: ctx.unit_id,
            parent: ctx.span_id,
        });
        prev
    });
    ContextGuard { prev }
}

/// The thread's current context, if any: what a frame about to leave
/// this thread should carry so the receiver's spans stitch under the
/// innermost live span.
pub fn current_context() -> Option<TraceContext> {
    let ctx = CUR.with(|c| c.get());
    if ctx.run_id == 0 && ctx.unit_id == 0 && ctx.parent == 0 {
        None
    } else {
        Some(TraceContext {
            run_id: ctx.run_id,
            unit_id: ctx.unit_id,
            span_id: ctx.parent,
        })
    }
}

/// Runs `f` with this thread's span output redirected into a local
/// collector and returns what was recorded — how an agent gathers the
/// spans of one unit to ship back in the result frame (they are *not*
/// also recorded locally, so an in-process agent can't double-count).
pub fn collect<R>(f: impl FnOnce() -> R) -> (R, Vec<SpanRecord>) {
    let prev = COLLECTOR.with(|c| c.borrow_mut().replace(Vec::new()));
    let result = f();
    let spans = COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        let spans = slot.take().unwrap_or_default();
        *slot = prev;
        spans
    });
    (result, spans)
}

/// Records spans that arrived from another process (an agent's result
/// frame) into this thread's ring, so one drain yields the stitched
/// cross-machine trace.
pub fn record_remote(spans: Vec<SpanRecord>) {
    if !crate::enabled() {
        return;
    }
    for span in spans {
        sink(span);
    }
}

/// Drains every thread's ring buffer and returns the accumulated
/// spans, ordered by start time. Process-wide and destructive: the
/// caller owns writing them out (`bside corpus --trace-out`).
pub fn drain_trace() -> Vec<SpanRecord> {
    let rings = rings().lock().expect("ring registry");
    let mut all = Vec::new();
    for ring in rings.iter() {
        let mut ring = ring.lock().expect("thread ring");
        all.extend(ring.spans.drain(..));
    }
    all.sort_by_key(|s| s.start_us);
    all
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Renders spans as a Chrome trace-event JSON document (complete `"X"`
/// events) — load it in `chrome://tracing` or
/// <https://ui.perfetto.dev>. Span/parent/run ids ride in each event's
/// `args` as decimal strings (64-bit ids don't survive a JS number),
/// which is also what the trace-stitching tests parse.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 160);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":\"");
        escape_json(&s.name, &mut out);
        out.push_str(&format!(
            "\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"span_id\":\"{}\",\"parent_id\":\"{}\",\"run_id\":\"{}\",\"unit_id\":{}}}}}",
            s.start_us, s.dur_us, s.tid, s.id, s.parent, s.run_id, s.unit_id
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_guard() -> std::sync::RwLockReadGuard<'static, ()> {
        crate::test_enabled_lock()
            .read()
            .unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn spans_nest_under_the_innermost_live_span() {
        let _on = read_guard();
        let ((), spans) = collect(|| {
            let outer = span_root("outer", 42, 0);
            let inner = span("inner");
            let leaf = span("leaf");
            leaf.finish();
            inner.finish();
            let sibling = span("sibling");
            drop(sibling);
            outer.finish();
        });
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect(n);
        let outer = by_name("outer");
        let inner = by_name("inner");
        let leaf = by_name("leaf");
        let sibling = by_name("sibling");
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(leaf.parent, inner.id);
        assert_eq!(sibling.parent, outer.id, "drop finishes like finish()");
        assert!(spans.iter().all(|s| s.run_id == 42), "run id inherited");
        // Finish order: leaf landed first, outer last.
        assert_eq!(spans.first().map(|s| s.name.as_str()), Some("leaf"));
        assert_eq!(spans.last().map(|s| s.name.as_str()), Some("outer"));
    }

    #[test]
    fn remote_context_grafts_and_restores() {
        let _on = read_guard();
        let ((), spans) = collect(|| {
            let ctx = TraceContext {
                run_id: 7,
                unit_id: 3,
                span_id: 999,
            };
            {
                let _g = set_context(ctx);
                assert_eq!(current_context(), Some(ctx));
                span("analyze").finish();
            }
            assert_eq!(current_context(), None, "guard restores");
            span("orphan").finish();
        });
        let analyze = spans.iter().find(|s| s.name == "analyze").expect("analyze");
        assert_eq!(analyze.parent, 999);
        assert_eq!((analyze.run_id, analyze.unit_id), (7, 3));
        let orphan = spans.iter().find(|s| s.name == "orphan").expect("orphan");
        assert_eq!(orphan.parent, 0, "no context, orphan — never an error");
    }

    #[test]
    fn span_ids_are_unique_and_nonzero() {
        let _on = read_guard();
        let (ids, spans) = collect(|| {
            (0..256)
                .map(|_| span("s").finish())
                .collect::<Vec<Duration>>()
        });
        assert_eq!(spans.len(), ids.len());
        let mut seen: Vec<u64> = spans.iter().map(|s| s.id).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 256, "ids must not collide");
        assert!(spans.iter().all(|s| s.id != 0));
    }

    #[test]
    fn disabled_spans_still_measure_but_record_nothing() {
        // The switch is process-global: hold the write lock so no
        // sibling test records (or fails to) while it is off.
        let _off = crate::test_enabled_lock()
            .write()
            .unwrap_or_else(|p| p.into_inner());
        crate::set_enabled(false);
        let (dur, spans) = collect(|| {
            let s = span("ghost");
            std::thread::sleep(Duration::from_millis(2));
            s.finish()
        });
        crate::set_enabled(true);
        assert!(spans.is_empty(), "nothing recorded while off");
        assert!(
            dur >= Duration::from_millis(2),
            "duration still measured: {dur:?}"
        );
    }

    #[test]
    fn rings_drain_across_threads_and_remote_spans_join() {
        let _on = read_guard();
        let run_id = next_span_id(); // unique enough to filter by
        let handle = std::thread::spawn(move || {
            let s = span_root("worker_side", run_id, 1);
            s.finish();
        });
        handle.join().expect("worker thread");
        record_remote(vec![SpanRecord {
            name: "remote_side".to_string(),
            id: 12345,
            parent: 678,
            run_id,
            unit_id: 2,
            start_us: 10,
            dur_us: 5,
            tid: 0,
        }]);
        let drained = drain_trace();
        let mine: Vec<&SpanRecord> = drained.iter().filter(|s| s.run_id == run_id).collect();
        assert_eq!(mine.len(), 2, "one local (other thread), one remote");
        assert!(mine.iter().any(|s| s.name == "worker_side"));
        assert!(mine
            .iter()
            .any(|s| s.name == "remote_side" && s.id == 12345));
        // A second drain must not yield them again.
        let again = drain_trace();
        assert!(!again.iter().any(|s| s.run_id == run_id));
    }

    #[test]
    fn chrome_trace_json_is_parseable_shape() {
        let spans = vec![SpanRecord {
            name: "phase \"cfg\"\n".to_string(),
            id: 0xDEAD_BEEF_0000_0001,
            parent: 7,
            run_id: 9,
            unit_id: 4,
            start_us: 100,
            dur_us: 50,
            tid: 3,
        }];
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\\\"cfg\\\"\\n"), "name escaped: {json}");
        assert!(
            json.contains(&format!("\"span_id\":\"{}\"", 0xDEAD_BEEF_0000_0001u64)),
            "ids as decimal strings"
        );
        assert!(json.contains("\"parent_id\":\"7\""));
        // Balanced braces/brackets — a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
