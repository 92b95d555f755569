//! The trace-stitching acceptance suite.
//!
//! Three storylines:
//!
//! 1. **One tree across machines** — a real 2-agent TCP fleet run must
//!    drain to a single Chrome trace where the coordinator's per-unit
//!    `dispatch` span parents the agent-side `analyze` span, which in
//!    turn parents the pipeline's per-phase children. The proof parses
//!    the rendered JSON, not internal state: what `chrome://tracing`
//!    would show is what is asserted.
//! 2. **Corruption degrades to orphans** — a trace context mangled in
//!    flight (wrong JSON type, all-zero triple) must parse as `None`
//!    (the agent's spans become orphans) while the unit frame itself
//!    stays fully usable. A bad context may cost a parent link, never a
//!    unit.
//! 3. **Chaos never severs links** — under a seeded
//!    [`bside_dist::fault::FaultPlan`] on a sealed fleet, every analyze
//!    span that lands still resolves its parent to a dispatch span the
//!    coordinator recorded (or is a clean orphan); no dangling ids.

mod common;

use bside_core::AnalyzerOptions;
use bside_dist::fault::{faults_injected, set_plan, FaultPlan};
use bside_dist::Endpoint;
use bside_fleet::protocol::{seal_down, unseal_down, ToAgent, Want};
use bside_fleet::{
    analyze_corpus_fleet, run_agent_loop, AgentOptions, FleetCoordinator, FleetOptions,
};
use bside_obs as obs;
use common::{materialize, process_agent};
use serde::Value;
use std::sync::Mutex;
use std::time::Duration;

/// The span rings (and the fault plan) are process-global: the two
/// fleet-run tests each take this lock and drain the rings at the top,
/// so each asserts over exactly its own run's spans.
static RING_LOCK: Mutex<()> = Mutex::new(());

fn ring_guard() -> std::sync::MutexGuard<'static, ()> {
    RING_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn tcp0() -> Endpoint {
    Endpoint::Tcp("127.0.0.1:0".to_string())
}

/// One parsed Chrome trace event — the id triple the renderer carries
/// in `args` (as decimal strings; 64-bit ids don't survive JS numbers).
#[derive(Debug)]
struct Event {
    name: String,
    span_id: u64,
    parent_id: u64,
    run_id: u64,
    unit_id: u64,
}

fn field<'a>(obj: &'a [(String, Value)], key: &str) -> &'a Value {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing field `{key}`"))
}

fn id_of(value: &Value) -> u64 {
    match value {
        Value::Str(s) => s.parse().expect("decimal id string"),
        Value::UInt(n) => *n,
        other => panic!("not an id: {other:?}"),
    }
}

/// Parses a rendered Chrome trace document back into events — the same
/// surface a human loads into Perfetto is what the assertions walk.
fn parse_chrome_trace(json: &str) -> Vec<Event> {
    let doc: Value = serde_json::from_str(json).expect("trace JSON parses");
    let Value::Object(top) = &doc else {
        panic!("trace document is not an object");
    };
    let Value::Seq(events) = field(top, "traceEvents") else {
        panic!("traceEvents is not an array");
    };
    events
        .iter()
        .map(|event| {
            let Value::Object(ev) = event else {
                panic!("event is not an object");
            };
            let Value::Str(name) = field(ev, "name") else {
                panic!("event name is not a string");
            };
            let Value::Object(args) = field(ev, "args") else {
                panic!("event args is not an object");
            };
            Event {
                name: name.clone(),
                span_id: id_of(field(args, "span_id")),
                parent_id: id_of(field(args, "parent_id")),
                run_id: id_of(field(args, "run_id")),
                unit_id: id_of(field(args, "unit_id")),
            }
        })
        .collect()
}

/// The ISSUE's acceptance bar: two real agent *processes* over TCP, one
/// corpus run, and the drained trace stitches coordinator dispatch →
/// agent analyze → per-phase children for every unit.
#[test]
fn two_agent_fleet_run_stitches_dispatch_analyze_phase_tree() {
    let _rings = ring_guard();
    let _ = obs::drain_trace();
    let (_dir, units) = materialize("trace_two_agents", 4);
    let handle = FleetCoordinator::bind(&tcp0(), FleetOptions::default()).expect("bind");
    let mut a1 = process_agent(handle.endpoint(), 1, &[]);
    let mut a2 = process_agent(handle.endpoint(), 1, &[]);
    assert!(
        handle.wait_for_agents(2, Duration::from_secs(30)),
        "both agent processes join"
    );

    let run = analyze_corpus_fleet(&units, &handle).expect("fleet run completes");
    assert_eq!(run.stats.failures, 0, "all units land");
    assert_eq!(handle.stats().agents_joined, 2);
    handle.shutdown();
    let _ = a1.wait();
    let _ = a2.wait();

    let events = parse_chrome_trace(&obs::chrome_trace_json(&obs::drain_trace()));
    let root = events
        .iter()
        .find(|e| e.name == "fleet_run")
        .expect("the run recorded its root span");
    assert_eq!(root.parent_id, 0, "the run root has no parent");

    let dispatches: Vec<&Event> = events
        .iter()
        .filter(|e| e.name == "dispatch" && e.run_id == root.run_id)
        .collect();
    assert_eq!(
        dispatches.len(),
        units.len(),
        "healthy agents: one dispatch span per unit"
    );
    let mut unit_ids: Vec<u64> = dispatches.iter().map(|d| d.unit_id).collect();
    unit_ids.sort_unstable();
    unit_ids.dedup();
    assert_eq!(
        unit_ids.len(),
        units.len(),
        "each dispatch carries its own unit id"
    );
    for dispatch in &dispatches {
        assert_eq!(
            dispatch.parent_id, root.span_id,
            "every dispatch hangs off the run root"
        );
    }

    let analyzes: Vec<&Event> = events
        .iter()
        .filter(|e| e.name == "analyze" && e.run_id == root.run_id)
        .collect();
    assert_eq!(
        analyzes.len(),
        units.len(),
        "every agent-side analysis span crossed the wire home"
    );
    const PHASES: [&str; 3] = [
        "cfg_recovery",
        "wrapper_identification",
        "syscall_identification",
    ];
    for analyze in &analyzes {
        let dispatch = dispatches
            .iter()
            .find(|d| d.span_id == analyze.parent_id)
            .expect("analyze span is parented by a recorded dispatch span");
        assert_eq!(
            dispatch.unit_id, analyze.unit_id,
            "parent and child agree on which unit this is"
        );
        for phase in PHASES {
            assert!(
                events
                    .iter()
                    .any(|p| p.name == phase && p.parent_id == analyze.span_id),
                "phase `{phase}` child missing under analyze span {}",
                analyze.span_id
            );
        }
    }
}

/// A context mangled in flight costs the parent link, never the unit:
/// wrong-typed and all-zero trace triples parse as `None` on an
/// otherwise intact frame, in the open and through a sealed envelope.
#[test]
fn corrupted_trace_context_degrades_to_orphan_never_severed() {
    let ctx = obs::TraceContext {
        run_id: 7,
        unit_id: 3,
        span_id: 9,
    };
    let unit = ToAgent::Unit {
        id: 3,
        name: "u3".to_string(),
        path: "/corpus/u3.elf".to_string(),
        want: Want::Analysis,
        elf: vec![1, 2, 3],
        options: AnalyzerOptions::default(),
        trace: Some(ctx),
    };
    let line = serde_json::to_string(&unit).expect("unit serializes");

    // Baseline: a clean frame round-trips the context.
    match serde_json::from_str::<ToAgent>(&line).expect("clean frame parses") {
        ToAgent::Unit { trace, .. } => assert_eq!(trace, Some(ctx)),
        other => panic!("not a unit: {other:?}"),
    }

    // Wrong JSON type in one triple field: the context degrades to
    // `None`; id, name, and payload survive untouched.
    let mut doc: Value = serde_json::from_str(&line).expect("line parses as a value");
    let Value::Object(fields) = &mut doc else {
        panic!("frame is not an object");
    };
    for (key, value) in fields.iter_mut() {
        if key == "trace_span" {
            *value = Value::Str("garbage".to_string());
        }
    }
    let corrupted = serde_json::to_string(&doc).expect("corrupted frame re-serializes");
    match serde_json::from_str::<ToAgent>(&corrupted)
        .expect("a corrupted context must not sever the frame")
    {
        ToAgent::Unit {
            id,
            name,
            elf,
            trace,
            ..
        } => {
            assert_eq!((id, name.as_str(), elf.len()), (3, "u3", 3));
            assert_eq!(trace, None, "mangled context degrades to an orphan");
        }
        other => panic!("not a unit: {other:?}"),
    }

    // The sealed path: the MAC covers the body bytes, so a sealed frame
    // carrying a context round-trips it exactly...
    let key = [7u8; 32];
    let sealed = seal_down(&key, 1, &unit).expect("seals");
    let ToAgent::Sealed { seq, mac, body } = sealed else {
        panic!("seal_down returns an envelope");
    };
    match unseal_down(&key, seq, &mac, &body).expect("seal verifies") {
        ToAgent::Unit { trace, .. } => assert_eq!(trace, Some(ctx)),
        other => panic!("not a unit: {other:?}"),
    }
    // ...and a sealed body whose *context* was corrupted before sealing
    // (an old or buggy peer, not line noise — noise fails the MAC and
    // kills the whole frame) still unseals to an orphaned, usable unit.
    let mac = bside_fleet::auth::frame_mac(&key, 2, &corrupted);
    match unseal_down(&key, 2, &mac, &corrupted).expect("sealed orphan unseals") {
        ToAgent::Unit { id, trace, .. } => {
            assert_eq!(id, 3);
            assert_eq!(trace, None);
        }
        other => panic!("not a unit: {other:?}"),
    }

    // An all-zero triple is "no context", not a context of zeros.
    let zeroed = ToAgent::Unit {
        id: 4,
        name: "u4".to_string(),
        path: "/corpus/u4.elf".to_string(),
        want: Want::Analysis,
        elf: vec![9],
        options: AnalyzerOptions::default(),
        trace: Some(obs::TraceContext::default()),
    };
    let line = serde_json::to_string(&zeroed).expect("serializes");
    match serde_json::from_str::<ToAgent>(&line).expect("parses") {
        ToAgent::Unit { trace, .. } => assert_eq!(trace, None),
        other => panic!("not a unit: {other:?}"),
    }
}

const SECRET: &str = "trace-suite-secret";

/// RAII fault-plan installation: a panicking test clears its chaos.
struct PlanGuard;
impl PlanGuard {
    fn install(plan: FaultPlan) -> PlanGuard {
        set_plan(Some(plan));
        PlanGuard
    }
}
impl Drop for PlanGuard {
    fn drop(&mut self) {
        set_plan(None);
    }
}

/// Under seeded line noise on a sealed fleet, whatever spans land still
/// form a closed tree: every analyze span's parent resolves to a
/// dispatch span the coordinator recorded (retried dispatches included)
/// or is a clean orphan — never a dangling id.
#[test]
fn seeded_chaos_never_severs_trace_links() {
    let _rings = ring_guard();
    let _ = obs::drain_trace();
    let (_dir, units) = materialize("trace_chaos", 4);
    let handle = FleetCoordinator::bind(
        &tcp0(),
        FleetOptions {
            max_attempts: 64,
            unit_timeout: Duration::from_secs(20),
            heartbeat_interval: Duration::from_millis(200),
            heartbeat_timeout: Duration::from_secs(3),
            secret: Some(SECRET.to_string()),
            ..FleetOptions::default()
        },
    )
    .expect("bind");

    let chaos = PlanGuard::install(FaultPlan {
        corrupt: 30,
        truncate: 15,
        dup: 30,
        delay: 20,
        delay_ms: 1,
        ..FaultPlan::quiet(11)
    });
    let injected_before = faults_injected();
    let agent = |seed: u64| {
        let endpoint = handle.endpoint().clone();
        std::thread::spawn(move || {
            run_agent_loop(
                &endpoint,
                &AgentOptions {
                    slots: 1,
                    secret: Some(SECRET.to_string()),
                    backoff_base: Duration::from_millis(5),
                    backoff_cap: Duration::from_millis(50),
                    backoff_seed: Some(seed),
                    ..AgentOptions::default()
                },
            )
        })
    };
    let a1 = agent(31);
    let a2 = agent(32);
    assert!(
        handle.wait_for_agents(2, Duration::from_secs(30)),
        "agents join under line noise"
    );

    let run = analyze_corpus_fleet(&units, &handle).expect("chaos run completes");
    assert_eq!(run.stats.failures, 0, "every unit converges");
    assert!(
        faults_injected() > injected_before,
        "the dice never fired — this run proved nothing"
    );
    drop(chaos);
    handle.shutdown();
    let _ = a1.join();
    let _ = a2.join();

    let events = parse_chrome_trace(&obs::chrome_trace_json(&obs::drain_trace()));
    let root = events
        .iter()
        .find(|e| e.name == "fleet_run")
        .expect("root span recorded");
    let dispatch_ids: Vec<u64> = events
        .iter()
        .filter(|e| e.name == "dispatch" && e.run_id == root.run_id)
        .map(|e| e.span_id)
        .collect();
    assert!(
        dispatch_ids.len() >= units.len(),
        "at least one dispatch per unit (retries add more)"
    );
    let analyzes: Vec<&Event> = events
        .iter()
        .filter(|e| e.name == "analyze" && e.run_id == root.run_id)
        .collect();
    assert!(
        !analyzes.is_empty(),
        "agent spans crossed the sealed link home"
    );
    for analyze in &analyzes {
        assert!(
            analyze.parent_id == 0 || dispatch_ids.contains(&analyze.parent_id),
            "analyze span {} dangles from unknown parent {}",
            analyze.span_id,
            analyze.parent_id
        );
    }
}
