//! Deterministic network fault injection at the codec boundary.
//!
//! Every NDJSON protocol in the workspace — the serve daemon and the
//! analysis fleet — funnels its writes through one
//! codec ([`crate::protocol::write_message`]). That makes the codec the
//! one place where *network weather* can be injected for every layer at
//! once: a seeded [`FaultPlan`] rolls per-frame dice and delivers,
//! corrupts a byte, truncates mid-frame, resets the connection, writes
//! the frame twice, or delays it. The plan is deterministic per seed, so
//! a chaos run that found a bug is a chaos run that reproduces it.
//!
//! [`write_frame`] is also where the framing contract lives: a frame and
//! its `'\n'` terminator reach the writer in **one** `write_all` call,
//! then a flush. A line split across two writes stalls TCP: the tail
//! sits behind Nagle's algorithm until the peer's delayed ACK fires
//! (~40 ms on Linux), once per frame. Every fault that delivers bytes
//! keeps the contract (a duplicate is both copies in one buffer); only a
//! truncation writes a partial line, because that is the fault.
//!
//! Faults are **write-side**: a corrupted frame crosses the wire and the
//! *reader* deals with it, exactly like real line noise. Note what that
//! implies for integrity: a flipped byte inside a JSON string often
//! still parses — on an unauthenticated link such a frame can land a
//! wrong answer. Only the fleet's sealed frames (HMAC per frame) turn
//! every corruption into a detected failure; the chaos suites assert
//! exactly that.
//!
//! The plan is process-global and off by default ([`enabled`] is a
//! single relaxed atomic load on the hot path). Binaries opt in from
//! `main` via [`init_from_env`] (`BSIDE_NET_FAULT_PLAN`); tests install
//! plans directly with [`set_plan`] — deliberately not lazily, so a
//! library user can never trip the injector by accident.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Environment variable consulted by [`init_from_env`], e.g.
/// `BSIDE_NET_FAULT_PLAN=seed=7,corrupt=30,truncate=20,reset=20,dup=30,delay=10,delay_ms=5`.
pub const FAULT_PLAN_ENV: &str = "BSIDE_NET_FAULT_PLAN";

/// A seeded per-frame fault distribution. Each rate is **per mille**
/// (out of 1000) per written frame; the rates are cumulative and their
/// sum must stay ≤ 1000 (the remainder is clean delivery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// RNG seed: same seed, same corpus of faults.
    pub seed: u64,
    /// ‰ of frames with one byte flipped (frame still delivered).
    pub corrupt: u32,
    /// ‰ of frames cut mid-line: a prefix is flushed onto the wire,
    /// then the write fails with `ConnectionReset` (the torn-frame
    /// model — the reader sees garbage and, eventually, EOF).
    pub truncate: u32,
    /// ‰ of frames dropped entirely with `ConnectionReset` before any
    /// byte is written (the severed-link model).
    pub reset: u32,
    /// ‰ of frames written twice (the duplicate/replay model).
    pub dup: u32,
    /// ‰ of frames delayed by [`FaultPlan::delay_ms`] before delivery.
    pub delay: u32,
    /// Sleep applied to delayed frames.
    pub delay_ms: u64,
}

impl FaultPlan {
    /// A plan with a seed and no faults — the building block for
    /// `FaultPlan { corrupt: 50, ..FaultPlan::quiet(7) }`.
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            corrupt: 0,
            truncate: 0,
            reset: 0,
            dup: 0,
            delay: 0,
            delay_ms: 0,
        }
    }

    /// Parses the `key=value[,key=value…]` spec format used by
    /// [`FAULT_PLAN_ENV`]. Keys: `seed`, `corrupt`, `truncate`, `reset`,
    /// `dup`, `delay` (all ‰), `delay_ms`. Unknown keys, malformed
    /// numbers, and rate sums over 1000‰ are errors.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::quiet(0);
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault plan entry `{part}` is not key=value"))?;
            let parse_u32 = |v: &str| {
                v.parse::<u32>()
                    .map_err(|_| format!("fault plan `{key}` needs an integer, got `{v}`"))
            };
            match key.trim() {
                "seed" => {
                    plan.seed = value
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| format!("fault plan seed needs an integer, got `{value}`"))?
                }
                "corrupt" => plan.corrupt = parse_u32(value.trim())?,
                "truncate" => plan.truncate = parse_u32(value.trim())?,
                "reset" => plan.reset = parse_u32(value.trim())?,
                "dup" => plan.dup = parse_u32(value.trim())?,
                "delay" => plan.delay = parse_u32(value.trim())?,
                "delay_ms" => {
                    plan.delay_ms = value.trim().parse::<u64>().map_err(|_| {
                        format!("fault plan delay_ms needs an integer, got `{value}`")
                    })?
                }
                other => return Err(format!("unknown fault plan key `{other}`")),
            }
        }
        let total = plan.corrupt + plan.truncate + plan.reset + plan.dup + plan.delay;
        if total > 1000 {
            return Err(format!("fault rates sum to {total}‰ (> 1000‰)"));
        }
        Ok(plan)
    }
}

/// What the dice said for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Deliver,
    Corrupt(usize),
    Truncate(usize),
    Reset,
    Duplicate,
    Delay(Duration),
}

struct PlanState {
    plan: FaultPlan,
    rng: u64,
}

impl PlanState {
    fn new(plan: FaultPlan) -> PlanState {
        // splitmix64 finalizer: decorrelate adjacent seeds and clamp
        // away the all-zero state xorshift can't leave.
        let mut s = plan.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        s = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        s = (s ^ (s >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        s ^= s >> 31;
        PlanState {
            plan,
            rng: s.max(1),
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn decide(&mut self, frame_len: usize) -> Action {
        let roll = (self.next_u64() % 1000) as u32;
        let p = self.plan;
        // The byte position draw happens unconditionally so the stream
        // of outcomes for a given seed does not depend on which faults
        // are enabled — plans stay comparable across configurations.
        let pos = if frame_len == 0 {
            0
        } else {
            (self.next_u64() % frame_len as u64) as usize
        };
        let mut edge = p.corrupt;
        if roll < edge {
            return Action::Corrupt(pos);
        }
        edge += p.truncate;
        if roll < edge {
            return Action::Truncate(pos);
        }
        edge += p.reset;
        if roll < edge {
            return Action::Reset;
        }
        edge += p.dup;
        if roll < edge {
            return Action::Duplicate;
        }
        edge += p.delay;
        if roll < edge {
            return Action::Delay(Duration::from_millis(p.delay_ms));
        }
        Action::Deliver
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<PlanState>> = Mutex::new(None);

/// The injector's lifetime disturbance counter, kept in the process
/// global metrics registry so `bside agent`'s exit line and its
/// Prometheus snapshot read the same number from the same cell.
fn injected_counter() -> &'static Arc<bside_obs::Counter> {
    static COUNTER: OnceLock<Arc<bside_obs::Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| bside_obs::global().counter("bside_net_faults_injected_total"))
}

/// Lifetime count of frames the injector actually disturbed (anything
/// but a clean delivery). Chaos suites assert this moved — a chaos run
/// whose dice never fired proves nothing. Backed by the
/// `bside_net_faults_injected_total` counter in [`bside_obs::global`].
pub fn faults_injected() -> u64 {
    injected_counter().get()
}

/// `true` when a fault plan is installed — one relaxed load, so the
/// codec hot path costs nothing when chaos is off (the default).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs (or, with `None`, clears) the process-global fault plan.
/// The chaos suites serialize around this — the plan is global state.
pub fn set_plan(plan: Option<FaultPlan>) {
    let mut guard = PLAN.lock().expect("fault plan lock");
    *guard = plan.map(PlanState::new);
    ENABLED.store(guard.is_some(), Ordering::Relaxed);
}

/// Installs the plan named by [`FAULT_PLAN_ENV`], if set. Called from
/// binary `main`s only — never lazily from the codec — so library users
/// and unit tests can't trip the injector through a stray environment
/// variable. Returns an error string for a malformed spec (binaries
/// should refuse to start: a half-applied chaos plan is worse than
/// none).
pub fn init_from_env() -> Result<(), String> {
    match std::env::var(FAULT_PLAN_ENV) {
        Ok(spec) if !spec.trim().is_empty() => {
            let plan = FaultPlan::parse(&spec)?;
            set_plan(Some(plan));
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Writes one already-serialized frame (sans newline), applying the
/// installed fault plan if any. This is the single choke point
/// [`crate::protocol::write_message`] delegates to.
///
/// The frame is taken by value so its `'\n'` terminator is appended in
/// place and the line goes out in one write (the contract in the module
/// docs) without a second copy. The dice are drawn over the frame body,
/// newline excluded, so a given seed replays the same faults.
pub fn write_frame(writer: &mut impl Write, frame: impl Into<Vec<u8>>) -> std::io::Result<()> {
    let mut line = frame.into();
    let body_len = line.len();
    line.push(b'\n');
    if !enabled() {
        writer.write_all(&line)?;
        return writer.flush();
    }
    let action = {
        let mut guard = PLAN.lock().expect("fault plan lock");
        match guard.as_mut() {
            Some(state) => state.decide(body_len),
            None => Action::Deliver,
        }
    };
    if action != Action::Deliver {
        injected_counter().inc();
    }
    match action {
        Action::Deliver => {}
        Action::Corrupt(pos) => {
            if let Some(byte) = line[..body_len].get_mut(pos) {
                let flipped = *byte ^ 0x55;
                // Never fabricate a newline: that would *split* the
                // frame instead of corrupting it.
                *byte = if flipped == b'\n' {
                    *byte ^ 0x56
                } else {
                    flipped
                };
            }
        }
        Action::Truncate(pos) => {
            writer.write_all(&line[..pos])?;
            let _ = writer.flush();
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "fault injection: frame truncated mid-write",
            ));
        }
        Action::Reset => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "fault injection: connection reset before write",
            ))
        }
        Action::Duplicate => line.extend_from_within(..),
        Action::Delay(pause) => std::thread::sleep(pause),
    }
    writer.write_all(&line)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The chaos suites serialize on this: the plan is process-global.
    pub(crate) static FAULT_TEST_LOCK: Mutex<()> = Mutex::new(());

    /// RAII plan installation so a panicking test can't leak chaos into
    /// its neighbors.
    struct PlanGuard<'a>(#[allow(dead_code)] std::sync::MutexGuard<'a, ()>);
    impl<'a> PlanGuard<'a> {
        fn install(plan: FaultPlan) -> PlanGuard<'a> {
            let held = FAULT_TEST_LOCK
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            set_plan(Some(plan));
            PlanGuard(held)
        }
    }
    impl Drop for PlanGuard<'_> {
        fn drop(&mut self) {
            set_plan(None);
        }
    }

    #[test]
    fn parse_accepts_the_documented_spec_and_rejects_garbage() {
        let plan =
            FaultPlan::parse("seed=7,corrupt=30,truncate=20,reset=20,dup=30,delay=10,delay_ms=5")
                .expect("spec parses");
        assert_eq!(
            plan,
            FaultPlan {
                seed: 7,
                corrupt: 30,
                truncate: 20,
                reset: 20,
                dup: 30,
                delay: 10,
                delay_ms: 5,
            }
        );
        assert_eq!(FaultPlan::parse(""), Ok(FaultPlan::quiet(0)));
        assert!(FaultPlan::parse("seed").is_err(), "not key=value");
        assert!(FaultPlan::parse("warp=9").is_err(), "unknown key");
        assert!(FaultPlan::parse("corrupt=abc").is_err(), "not a number");
        assert!(
            FaultPlan::parse("corrupt=600,reset=600").is_err(),
            "rates over 1000‰"
        );
    }

    #[test]
    fn same_seed_same_faults_different_seed_different_faults() {
        let outcomes = |seed: u64| -> Vec<String> {
            let mut state = PlanState::new(FaultPlan {
                corrupt: 250,
                truncate: 250,
                reset: 250,
                dup: 125,
                delay: 125,
                ..FaultPlan::quiet(seed)
            });
            (0..64)
                .map(|_| format!("{:?}", state.decide(100)))
                .collect()
        };
        assert_eq!(outcomes(7), outcomes(7), "seeded plans must replay");
        assert_ne!(outcomes(7), outcomes(8), "seeds must decorrelate");
    }

    #[test]
    fn quiet_plan_delivers_everything_untouched() {
        let _guard = PlanGuard::install(FaultPlan::quiet(3));
        let mut out = Vec::new();
        for _ in 0..32 {
            write_frame(&mut out, b"{\"type\":\"heartbeat\"}").expect("clean delivery");
        }
        assert_eq!(out, b"{\"type\":\"heartbeat\"}\n".repeat(32));
    }

    #[test]
    fn corrupt_frames_never_split_and_never_match_the_original() {
        let _guard = PlanGuard::install(FaultPlan {
            corrupt: 1000,
            ..FaultPlan::quiet(11)
        });
        let frame = b"{\"type\":\"result\",\"id\":42}";
        for _ in 0..64 {
            let mut out = Vec::new();
            write_frame(&mut out, frame).expect("corrupted frames still deliver");
            assert_eq!(out.last(), Some(&b'\n'), "line framing preserved");
            let line = &out[..out.len() - 1];
            assert_eq!(line.len(), frame.len(), "corruption is in place");
            assert_ne!(line, frame, "exactly one byte must differ");
            assert!(
                !line.contains(&b'\n'),
                "corruption must never fabricate a newline"
            );
        }
    }

    #[test]
    fn truncate_flushes_a_strict_prefix_and_fails_the_write() {
        let _guard = PlanGuard::install(FaultPlan {
            truncate: 1000,
            ..FaultPlan::quiet(5)
        });
        let frame = b"{\"type\":\"result\",\"id\":7,\"analysis\":{}}";
        let mut out = Vec::new();
        let err = write_frame(&mut out, frame).expect_err("truncation fails the write");
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
        assert!(out.len() < frame.len(), "a strict prefix hit the wire");
        assert!(frame.starts_with(&out), "prefix of the original frame");
    }

    #[test]
    fn reset_writes_nothing_and_duplicate_writes_twice() {
        let _guard = PlanGuard::install(FaultPlan {
            reset: 1000,
            ..FaultPlan::quiet(5)
        });
        let mut out = Vec::new();
        let err = write_frame(&mut out, b"{}").expect_err("reset fails the write");
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
        assert!(out.is_empty(), "reset must not leak bytes");

        set_plan(Some(FaultPlan {
            dup: 1000,
            ..FaultPlan::quiet(5)
        }));
        let mut out = Vec::new();
        write_frame(&mut out, b"{\"type\":\"heartbeat\"}").expect("duplicates deliver");
        assert_eq!(out, b"{\"type\":\"heartbeat\"}\n{\"type\":\"heartbeat\"}\n");
    }

    /// A writer that keeps every `write` call as its own chunk and takes
    /// each buffer whole, so a `write_all` shows up as exactly one call.
    #[derive(Default)]
    struct CallRecorder(Vec<Vec<u8>>);
    impl Write for CallRecorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_delivered_frame_is_one_write_call() {
        let frame = b"{\"type\":\"result\",\"id\":42}";
        let line = [&frame[..], b"\n"].concat();

        // Holds the plan lock; the loop swaps plans (chaos off first).
        let _guard = PlanGuard::install(FaultPlan::quiet(1));
        let plans = [
            ("off", None),
            ("quiet", Some(FaultPlan::quiet(1))),
            (
                "corrupt",
                Some(FaultPlan {
                    corrupt: 1000,
                    ..FaultPlan::quiet(1)
                }),
            ),
            (
                "dup",
                Some(FaultPlan {
                    dup: 1000,
                    ..FaultPlan::quiet(1)
                }),
            ),
            (
                "delay",
                Some(FaultPlan {
                    delay: 1000,
                    delay_ms: 1,
                    ..FaultPlan::quiet(1)
                }),
            ),
        ];
        for (name, plan) in plans {
            set_plan(plan);
            let mut out = CallRecorder::default();
            for _ in 0..8 {
                write_frame(&mut out, frame).expect("delivering faults deliver");
            }
            assert_eq!(out.0.len(), 8, "{name}: one write call per frame");
            for call in &out.0 {
                let copies = if name == "dup" { 2 } else { 1 };
                assert_eq!(call.len(), copies * line.len(), "{name}: whole lines");
                assert!(call.ends_with(b"\n"), "{name}: call ends the line");
                let newlines = call.iter().filter(|&&b| b == b'\n').count();
                assert_eq!(newlines, copies, "{name}: no split, no merge");
            }
        }
    }

    #[test]
    fn codec_write_message_routes_through_the_injector() {
        let _guard = PlanGuard::install(FaultPlan {
            reset: 1000,
            ..FaultPlan::quiet(9)
        });
        let mut out = Vec::new();
        let err = crate::protocol::write_message(&mut out, &serde::Value::Str("ready".to_string()))
            .expect_err("the shared codec must inject");
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
    }
}
