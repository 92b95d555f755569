//! The operational event log: what library code would otherwise print
//! to stderr (a lost link, a refused hello, a degraded fetch, a failed
//! store write).
//!
//! Each [`event`] bumps `bside_events_total{kind="…"}` in the
//! [`global`](crate::global) registry, so an embedder can count what
//! happened without reading stderr. Its line reaches stderr only after
//! [`print_events_to_stderr`]: in-process users (tests, benchmarks) stay
//! quiet, and the binaries call it at start-up, so their logs keep every
//! line.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

static TO_STDERR: AtomicBool = AtomicBool::new(false);

/// The counter family every event bumps, labelled by kind.
pub const EVENTS_TOTAL: &str = "bside_events_total";

/// Records one event of `kind`: bumps its counter and, once
/// [`print_events_to_stderr`] was called, prints `line` on stderr.
pub fn event(kind: &str, line: fmt::Arguments<'_>) {
    crate::global()
        .counter_with(EVENTS_TOTAL, &[("kind", kind)])
        .inc();
    if TO_STDERR.load(Ordering::Relaxed) {
        eprintln!("{line}");
    }
}

/// How many events of `kind` this process has recorded.
pub fn event_count(kind: &str) -> u64 {
    crate::global()
        .counter_value(EVENTS_TOTAL, &[("kind", kind)])
        .unwrap_or(0)
}

/// Prints every later event's line on stderr, for the rest of the
/// process.
pub fn print_events_to_stderr() {
    TO_STDERR.store(true, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_bump_their_counter() {
        let before = event_count("event_test");
        event("event_test", format_args!("line {}", 6));
        event("event_test", format_args!("line {}", 7));
        assert_eq!(event_count("event_test"), before + 2);
        assert_eq!(event_count("event_test_unseen"), 0);
    }
}
