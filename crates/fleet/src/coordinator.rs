//! The fleet coordinator: accept loop, agent sessions, heartbeat and
//! deadline policing, dead-agent requeue, and the submission API.
//!
//! The coordinator accepts *agents* over TCP or a Unix socket and never
//! spawns anything itself — agents dial in, announce their
//! capabilities, and pull work (local runs spawn theirs from
//! [`crate::local`]). The fault model:
//!
//! * an agent that **disconnects** (killed, crashed, rebooted) is
//!   detected as EOF or a transport error on its connection; its
//!   in-flight units are requeued onto surviving agents;
//! * an agent that **goes silent** (partitioned, wedged) misses its
//!   heartbeat cadence and is declared dead by the socket read timeout —
//!   no out-of-band probe, no pinging thread;
//! * a unit that **exceeds its wall-clock budget** is expired by the
//!   reaper; since a remote process cannot be killed from here, the
//!   whole agent connection is severed and everything it held is
//!   requeued (a local agent's supervisor then kills the process);
//! * a unit that keeps failing exhausts the attempt budget carried on
//!   the unit and is recorded as a per-unit [`UnitFailure`]; a corpus
//!   run always completes.
//!
//! The coordinator is a long-lived service, not a one-shot run:
//! [`FleetSubmitter`] feeds it units from anywhere (the serve daemon's
//! analyze-on-miss leaders offload through it), and
//! [`analyze_corpus_fleet`] layers the batch corpus semantics — cache
//! pre-pass, input-ordered merge, byte-identical report — on top.

use crate::protocol::{
    read_message_capped, seal_down, write_message, FromAgent, ToAgent, Want, CACHE_FORMAT_VERSION,
    MAX_FLEET_LINE_BYTES, PROTOCOL_VERSION,
};
use crate::queue::{FleetQueue, FleetUnit, UnitDone, UnitOutput, UnitSlot};
use crate::registry::{AgentSnapshot, AgentState, Pending, Registry, ReplySlot, SlotReply};
use bside_core::{AnalyzerOptions, BinaryAnalysis};
use bside_dist::net::{cleanup, is_deadline, Listener};
use bside_dist::{
    read_error_message, Conn, CorpusRun, DistError, Endpoint, FailureKind, PolicyBundle,
    ResultCache, RunStats, UnitFailure, UnitReport,
};
use bside_obs as obs;
use std::io::BufReader;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a fleet coordinator.
#[derive(Clone)]
pub struct FleetOptions {
    /// Analyzer configuration shipped with every unit. Parallelism is
    /// forced to 1 on the wire: agent slots are the fan-out axis, and
    /// thread count is unobservable by the determinism contract anyway.
    pub analyzer: AnalyzerOptions,
    /// Wall-clock budget per unit attempt; an agent holding a unit past
    /// this is severed and everything it held is requeued.
    pub unit_timeout: Duration,
    /// Heartbeat cadence prescribed to agents in the welcome.
    pub heartbeat_interval: Duration,
    /// Silence budget: an agent connection with no frame (heartbeat or
    /// otherwise) for this long is declared dead. Must comfortably
    /// exceed `heartbeat_interval`.
    pub heartbeat_timeout: Duration,
    /// Total dispatch attempts per unit (2 = one retry).
    pub max_attempts: u32,
    /// Directory of the content-addressed result cache; `None` disables
    /// caching. Used by [`analyze_corpus_fleet`]'s pre-pass.
    pub cache_dir: Option<PathBuf>,
    /// Shared fleet secret. When set, every connection is challenged:
    /// the hello must carry the matching MAC ([`crate::auth::hello_mac`])
    /// and every subsequent agent frame must arrive sealed
    /// ([`crate::protocol::seal`]) — an unauthenticated or forged peer
    /// is rejected in band and lands nothing in the result cache.
    pub secret: Option<String>,
    /// The telemetry registry the coordinator's counters and per-agent
    /// histograms land in. `None` gives the coordinator a fresh private
    /// registry (so parallel in-process coordinators — tests — never
    /// bleed counts into each other); the `bside` binaries pass
    /// `obs::global()` so one process-wide dump covers everything.
    pub registry: Option<Arc<obs::Registry>>,
}

impl std::fmt::Debug for FleetOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetOptions")
            .field("analyzer", &self.analyzer)
            .field("unit_timeout", &self.unit_timeout)
            .field("heartbeat_interval", &self.heartbeat_interval)
            .field("heartbeat_timeout", &self.heartbeat_timeout)
            .field("max_attempts", &self.max_attempts)
            .field("cache_dir", &self.cache_dir)
            .field("secret", &self.secret.as_ref().map(|_| "…"))
            .field("registry", &self.registry.is_some())
            .finish()
    }
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            analyzer: AnalyzerOptions::default(),
            unit_timeout: Duration::from_secs(60),
            heartbeat_interval: Duration::from_secs(1),
            heartbeat_timeout: Duration::from_secs(5),
            max_attempts: 2,
            cache_dir: None,
            secret: None,
            registry: None,
        }
    }
}

/// Aggregate counters of a fleet coordinator's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Agents currently registered and alive.
    pub agents_alive: usize,
    /// Agents that ever completed the hello.
    pub agents_joined: u64,
    /// Agents declared dead (EOF, silence, deadline sever) outside
    /// shutdown.
    pub agents_lost: u64,
    /// Hellos refused in band (version/cache mismatch, bad slot count,
    /// or failed authentication).
    pub agents_rejected: u64,
    /// Live slot capacity (sum of alive agents' announced slots).
    pub slots: usize,
    /// Unit frames written to agents (retries included).
    pub dispatched: u64,
    /// Units that reached a successful terminal state.
    pub completed: u64,
    /// Units requeued after a lost or failed attempt.
    pub retries: u64,
    /// Unit attempts that expired at the deadline (or died with a
    /// silent agent).
    pub timeouts: u64,
    /// Units that ended in a permanent failure.
    pub failures: u64,
}

#[derive(Default)]
struct Counters {
    dispatched: AtomicU64,
    completed: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    failures: AtomicU64,
    rejected: AtomicU64,
}

/// The coordinator's registry-backed telemetry: the unit lifecycle
/// (queued → dispatched → landed, or requeued/failed along the way) and
/// the agent population. Pre-registered handles — the hot paths never
/// take the registry's registration lock.
struct FleetMetrics {
    registry: Arc<obs::Registry>,
    units_queued: Arc<obs::Counter>,
    units_dispatched: Arc<obs::Counter>,
    units_landed: Arc<obs::Counter>,
    units_requeued: Arc<obs::Counter>,
    units_failed: Arc<obs::Counter>,
    unit_timeouts: Arc<obs::Counter>,
    agents_joined: Arc<obs::Counter>,
    agents_lost: Arc<obs::Counter>,
    agents_rejected: Arc<obs::Counter>,
}

impl FleetMetrics {
    fn new(registry: Arc<obs::Registry>) -> FleetMetrics {
        FleetMetrics {
            units_queued: registry.counter("bside_fleet_units_queued_total"),
            units_dispatched: registry.counter("bside_fleet_units_dispatched_total"),
            units_landed: registry.counter("bside_fleet_units_landed_total"),
            units_requeued: registry.counter("bside_fleet_units_requeued_total"),
            units_failed: registry.counter("bside_fleet_units_failed_total"),
            unit_timeouts: registry.counter("bside_fleet_unit_timeouts_total"),
            agents_joined: registry.counter("bside_fleet_agents_joined_total"),
            agents_lost: registry.counter("bside_fleet_agents_lost_total"),
            agents_rejected: registry.counter("bside_fleet_agents_rejected_total"),
            registry,
        }
    }

    /// The per-agent answer-latency histogram, labeled by the peer
    /// address the agent dialed from. Registered once per session (not
    /// per unit) and cached on the [`AgentState`].
    fn unit_duration(&self, agent_addr: &str) -> Arc<obs::Histogram> {
        self.registry
            .histogram_with("bside_fleet_unit_duration_us", &[("agent", agent_addr)])
    }
}

struct FleetShared {
    queue: FleetQueue,
    registry: Registry,
    options: FleetOptions,
    /// `options.analyzer` with parallelism forced to 1 — what actually
    /// crosses the wire.
    wire_options: AnalyzerOptions,
    endpoint: Endpoint,
    shutdown: AtomicBool,
    seq: AtomicU64,
    stats: Counters,
    metrics: FleetMetrics,
}

impl FleetShared {
    fn submit(
        &self,
        name: &str,
        path: &str,
        bytes: Vec<u8>,
        want: Want,
    ) -> (Arc<UnitSlot>, Arc<AtomicBool>) {
        let done = Arc::new(UnitSlot::default());
        let abandoned = Arc::new(AtomicBool::new(false));
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        // Capture the submitter's ambient trace context (a corpus run's
        // root span, a serve daemon's offload span) so the dispatch span
        // hangs under it; stamp this unit's own id into the triple.
        let trace = obs::current_context().map(|ctx| obs::TraceContext {
            unit_id: seq,
            ..ctx
        });
        let unit = FleetUnit {
            seq,
            name: name.to_string(),
            path: path.to_string(),
            bytes: Arc::new(bytes),
            want,
            attempts: 0,
            done: Arc::clone(&done),
            abandoned: Arc::clone(&abandoned),
            trace,
        };
        if self.queue.push(unit) {
            self.metrics.units_queued.inc();
        } else {
            self.stats.failures.fetch_add(1, Ordering::Relaxed);
            self.metrics.units_failed.inc();
            done.finish(UnitDone {
                attempts: 0,
                result: Err(UnitFailure {
                    kind: FailureKind::WorkerCrash,
                    message: "fleet coordinator is shut down".to_string(),
                    attempts: 0,
                }),
            });
        }
        (done, abandoned)
    }

    /// Requeues a lost/failed unit, or records its permanent failure
    /// when the attempt budget is spent.
    fn retry_or_fail(&self, mut unit: FleetUnit, kind: FailureKind, message: String) {
        if self.queue.retry(&mut unit) {
            self.stats.retries.fetch_add(1, Ordering::Relaxed);
            self.metrics.units_requeued.inc();
        } else {
            self.stats.failures.fetch_add(1, Ordering::Relaxed);
            self.metrics.units_failed.inc();
            let attempts = unit.attempts.max(1);
            unit.done.finish(UnitDone {
                attempts,
                result: Err(UnitFailure {
                    kind,
                    message,
                    attempts,
                }),
            });
        }
    }

    fn complete(&self, agent: &AgentState, unit: &FleetUnit, output: UnitOutput) {
        self.stats.completed.fetch_add(1, Ordering::Relaxed);
        self.metrics.units_landed.inc();
        agent.completed.fetch_add(1, Ordering::Relaxed);
        unit.done.finish(UnitDone {
            attempts: unit.attempts + 1,
            result: Ok(output),
        });
    }

    /// One agent slot's dispatcher loop: pull, ship, await the routed
    /// reply, record or requeue. The agent's dead flag doubles as the
    /// pull's stop signal, so a dead agent's dispatchers drain out
    /// within one pull slice instead of lingering until the next
    /// submission.
    fn run_dispatcher(&self, agent: &Arc<AgentState>) {
        while !agent.is_dead() {
            let Some(unit) = self.queue.pull(&agent.dead) else {
                return; // coordinator shutting down, or this agent died
            };
            // Pulled just as this agent died (or while it was dying):
            // hand the unit straight back — no attempt spent — for a
            // surviving agent. register_dispatch makes the check
            // airtight: it refuses under the same lock mark_dead drains.
            let reply = Arc::new(ReplySlot::default());
            let registered = agent.register_dispatch(
                unit.seq,
                Pending {
                    reply: Arc::clone(&reply),
                    deadline: Instant::now() + self.options.unit_timeout,
                    _unit_done: Arc::clone(&unit.done),
                },
            );
            if !registered {
                if let Some(orphan) = self.queue.put_back(unit) {
                    self.retry_or_fail(
                        orphan,
                        FailureKind::WorkerCrash,
                        "fleet coordinator shut down before the unit was dispatched".to_string(),
                    );
                }
                return;
            }
            // The dispatch span covers ship → agent → reply. It opens
            // under the unit's submitted context (dropped after the span
            // closes, so the context cannot leak into the next pull) and
            // its id crosses the wire, making the agent's `analyze` span
            // this span's child in the stitched trace.
            let unit_ctx = obs::set_context(unit.trace.unwrap_or_default());
            let dispatch_span = obs::span("dispatch");
            let message = ToAgent::Unit {
                id: unit.seq,
                name: unit.name.clone(),
                path: unit.path.clone(),
                want: unit.want,
                elf: (*unit.bytes).clone(),
                options: self.wire_options.clone(),
                trace: obs::enabled().then(|| dispatch_span.context()),
            };
            self.stats.dispatched.fetch_add(1, Ordering::Relaxed);
            self.metrics.units_dispatched.inc();
            if send_to_agent(agent, &message).is_err() {
                // The connection is gone; mark_dead fills our reply
                // slot (and everyone else's) so the wait below is
                // still the single recovery path.
                self.declare_dead(agent, FailureKind::WorkerCrash);
            }
            let outcome = reply.wait();
            let elapsed = dispatch_span.finish();
            drop(unit_ctx);
            if matches!(outcome, SlotReply::Message(_)) {
                agent.unit_duration.record(elapsed.as_micros() as u64);
            }
            match outcome {
                SlotReply::Message(FromAgent::Result {
                    analysis, spans, ..
                }) if unit.want == Want::Analysis => {
                    obs::record_remote(spans);
                    self.complete(agent, &unit, UnitOutput::Analysis(analysis));
                }
                SlotReply::Message(FromAgent::Bundle { bundle, spans, .. })
                    if unit.want == Want::Bundle =>
                {
                    obs::record_remote(spans);
                    self.complete(agent, &unit, UnitOutput::Bundle(bundle));
                }
                SlotReply::Message(FromAgent::Error { message, spans, .. }) => {
                    obs::record_remote(spans);
                    // Deterministic unit failure: retried like a lost
                    // attempt (same budget), then recorded with the
                    // analysis error's own message so the merged report
                    // matches the in-process run byte-for-byte.
                    self.retry_or_fail(unit, FailureKind::Analysis, message);
                }
                SlotReply::Message(_) => {
                    // Wrong payload kind for the unit: the stream is not
                    // trustworthy; sever the agent and requeue.
                    self.declare_dead(agent, FailureKind::Protocol);
                    self.retry_or_fail(
                        unit,
                        FailureKind::Protocol,
                        "agent answered with the wrong payload kind".to_string(),
                    );
                }
                SlotReply::Lost(kind) => {
                    if kind == FailureKind::Timeout {
                        self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                        self.metrics.unit_timeouts.inc();
                    }
                    let message = match kind {
                        FailureKind::Timeout => format!(
                            "unit exceeded the {:?} deadline and its agent was severed",
                            self.options.unit_timeout
                        ),
                        FailureKind::Protocol => "agent broke protocol mid-unit".to_string(),
                        _ => "agent connection lost mid-unit".to_string(),
                    };
                    self.retry_or_fail(unit, kind, message);
                }
            }
        }
    }

    /// Declares an agent dead, attributing the loss unless the
    /// coordinator is shutting down (goodbyes are not casualties).
    fn declare_dead(&self, agent: &AgentState, kind: FailureKind) {
        agent.mark_dead(kind, || self.count_loss());
    }

    fn count_loss(&self) {
        if !self.shutdown.load(Ordering::SeqCst) {
            self.registry.lost_total.fetch_add(1, Ordering::Relaxed);
            self.metrics.agents_lost.inc();
        }
    }

    fn snapshot(&self) -> FleetStats {
        let alive = self.registry.alive();
        FleetStats {
            agents_alive: alive.len(),
            agents_joined: self.registry.joined_total.load(Ordering::Relaxed),
            agents_lost: self.registry.lost_total.load(Ordering::Relaxed),
            agents_rejected: self.stats.rejected.load(Ordering::Relaxed),
            slots: alive.iter().map(|a| a.slots).sum(),
            dispatched: self.stats.dispatched.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            retries: self.stats.retries.load(Ordering::Relaxed),
            timeouts: self.stats.timeouts.load(Ordering::Relaxed),
            failures: self.stats.failures.load(Ordering::Relaxed),
        }
    }

    fn begin_teardown(self: &Arc<Self>, goodbye: bool) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Fail whatever never got dispatched.
        for unit in self.queue.close() {
            self.stats.failures.fetch_add(1, Ordering::Relaxed);
            self.metrics.units_failed.inc();
            let attempts = unit.attempts;
            unit.done.finish(UnitDone {
                attempts,
                result: Err(UnitFailure {
                    kind: FailureKind::WorkerCrash,
                    message: "fleet coordinator shut down before the unit was dispatched"
                        .to_string(),
                    attempts,
                }),
            });
        }
        // Say goodbye, then sever. `shutdown(2)` is an orderly release:
        // the queued goodbye frame is delivered before the FIN, so
        // agents see either the frame or a clean EOF — both a clean end
        // of service — and no coordinator-side reader can stay blocked.
        // An *abort* (crash simulation) skips the goodbye: agents see a
        // bare severed link, exactly what a killed coordinator leaves
        // behind, and their reconnect loops take over.
        let agents = self.registry.alive();
        if goodbye {
            for agent in &agents {
                let _ = send_to_agent(agent, &ToAgent::Shutdown);
            }
        }
        for agent in &agents {
            self.declare_dead(agent, FailureKind::WorkerCrash);
        }
        // Wake the blocking accept; the connection is dropped on sight.
        let _ = Conn::connect(&self.endpoint);
    }
}

/// Writes one post-welcome frame to an agent, sealing it on secured
/// fleets. Downlink frames carry the unit payloads, so they need the
/// same integrity cover as the results coming back: a corrupted unit
/// would otherwise hand the agent a *different valid binary* and come
/// back as a correctly sealed wrong answer. The sequence number is
/// claimed while the writer lock is held, so stream order always
/// matches sequence order and the agent's monotonic policy never trips
/// on a healthy link.
fn send_to_agent(agent: &AgentState, message: &ToAgent) -> std::io::Result<()> {
    let mut writer = agent.writer.lock().expect("agent writer lock");
    match &agent.seal {
        Some(seal) => {
            let seq = seal.next_seq.fetch_add(1, Ordering::Relaxed);
            let sealed = seal_down(&seal.key, seq, message)?;
            write_message(&mut *writer, &sealed)
        }
        None => write_message(&mut *writer, message),
    }
}

/// How often the reaper sweeps unit deadlines.
const REAPER_TICK: Duration = Duration::from_millis(50);

fn reaper_loop(shared: &Arc<FleetShared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        let now = Instant::now();
        for agent in shared.registry.alive() {
            // A remote process cannot be killed from here; severing the
            // connection is the next best thing. Everything else the
            // agent held is failed as a lost attempt and requeued.
            agent.expire_deadlines(now, || shared.count_loss());
        }
        // Parked rather than slept, so shutdown can wake the reaper
        // instead of waiting out the tick.
        std::thread::park_timeout(REAPER_TICK);
    }
}

fn accept_loop(
    shared: &Arc<FleetShared>,
    listener: Listener,
    sessions: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        match listener.accept() {
            Ok(conn) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break; // the wake connection (or a late agent)
                }
                let shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || run_session(&shared, conn));
                let mut sessions = sessions.lock().expect("session list lock");
                // Reap finished sessions as new ones arrive, so a
                // long-lived coordinator under agent churn does not
                // accumulate one JoinHandle per connection forever.
                let (done, running): (Vec<_>, Vec<_>) =
                    sessions.drain(..).partition(|h| h.is_finished());
                *sessions = running;
                for finished in done {
                    let _ = finished.join();
                }
                sessions.push(handle);
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    cleanup(&shared.endpoint);
}

/// The id an agent message answers, if any.
fn message_id(message: &FromAgent) -> Option<u64> {
    match message {
        FromAgent::Result { id, .. }
        | FromAgent::Bundle { id, .. }
        | FromAgent::Error { id, .. } => Some(*id),
        _ => None,
    }
}

/// One agent connection's lifetime: hello/welcome handshake, dispatcher
/// fan-out, and the read loop that doubles as liveness detection.
fn run_session(shared: &Arc<FleetShared>, conn: Conn) {
    // The socket read timeout *is* the heartbeat deadline: heartbeats
    // guarantee bytes at least every `heartbeat_interval`, so a read
    // that times out means the agent went silent for the whole budget.
    if conn
        .set_read_timeout(Some(shared.options.heartbeat_timeout))
        .is_err()
    {
        return;
    }
    let Ok(sever_handle) = conn.try_clone() else {
        return;
    };
    let Ok(writer) = conn.try_clone() else {
        return;
    };
    let addr = conn.peer_label();
    let mut reader = BufReader::new(conn);

    // The challenge opens every connection — secured and open fleets
    // share one handshake shape, and the nonce is on the wire before
    // the hello is read, so neither side ever deadlocks writing first.
    let nonce = crate::auth::fresh_nonce();
    let mut writer = writer;
    if write_message(
        &mut writer,
        &ToAgent::Challenge {
            nonce: nonce.clone(),
        },
    )
    .is_err()
    {
        return;
    }

    // The capability hello, under the same deadline as any other frame.
    let hello = read_message_capped::<FromAgent>(&mut reader, MAX_FLEET_LINE_BYTES);
    let (slots, reject) = match hello {
        Ok(Some(FromAgent::Hello {
            version,
            slots,
            cache_format,
            auth,
        })) => {
            if version != PROTOCOL_VERSION {
                (
                    0,
                    Some(format!(
                        "agent speaks fleet protocol v{version}, expected v{PROTOCOL_VERSION}"
                    )),
                )
            } else if cache_format != CACHE_FORMAT_VERSION {
                (
                    0,
                    Some(format!(
                        "agent analysis semantics (cache format v{cache_format}) differ from the \
                     coordinator's (v{CACHE_FORMAT_VERSION}); its results would poison the \
                     shared result cache — rebuild the agent"
                    )),
                )
            } else if slots == 0 || slots > 1024 {
                (
                    0,
                    Some(format!(
                        "agent announced {slots} slot(s); expected between 1 and 1024"
                    )),
                )
            } else if let Some(secret) = &shared.options.secret {
                let expected = crate::auth::hello_mac(secret, &nonce, version, slots, cache_format);
                match auth {
                    Some(mac) if crate::auth::mac_matches(&expected, &mac) => (slots, None),
                    Some(_) => (
                        0,
                        Some("agent failed authentication (wrong fleet secret?)".to_string()),
                    ),
                    None => (
                        0,
                        Some(
                            "this fleet requires authentication; start the agent with \
                             --fleet-secret (or BSIDE_FLEET_SECRET)"
                                .to_string(),
                        ),
                    ),
                }
            } else {
                (slots, None)
            }
        }
        _ => (0, Some("agent did not open with a hello".to_string())),
    };
    if let Some(message) = reject {
        shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
        shared.metrics.agents_rejected.inc();
        let _ = write_message(&mut writer, &ToAgent::Reject { message });
        return;
    }

    // On a secured fleet the rest of the session arrives sealed under a
    // key derived from (secret, nonce); `last_seq` enforces the
    // strictly-increasing sequence policy.
    let session_key = shared
        .options
        .secret
        .as_deref()
        .map(|secret| crate::auth::session_key(secret, &nonce));

    let unit_duration = shared.metrics.unit_duration(&addr);
    shared.metrics.agents_joined.inc();
    let agent = shared.registry.register(
        addr,
        slots,
        sever_handle,
        writer,
        session_key,
        unit_duration,
    );
    // The welcome itself stays plaintext: it announces sealing, and the
    // agent refuses to proceed unsealed when it holds a secret, so a
    // tampered `sealed` flag fails loudly on whichever side it targets.
    {
        let mut writer = agent.writer.lock().expect("agent writer lock");
        if write_message(
            &mut *writer,
            &ToAgent::Welcome {
                version: PROTOCOL_VERSION,
                heartbeat_interval_ms: shared.options.heartbeat_interval.as_millis() as u64,
                sealed: session_key.is_some(),
            },
        )
        .is_err()
        {
            drop(writer);
            shared.declare_dead(&agent, FailureKind::WorkerCrash);
            return;
        }
    }

    let dispatchers: Vec<JoinHandle<()>> = (0..slots)
        .map(|_| {
            let shared = Arc::clone(shared);
            let agent = Arc::clone(&agent);
            std::thread::spawn(move || shared.run_dispatcher(&agent))
        })
        .collect();

    // The session thread is the read loop: route replies, absorb
    // heartbeats, and turn EOF / silence / garbage into a death verdict.
    // On a secured link every frame must arrive sealed with a fresh
    // sequence number: a bad MAC or an unsealed frame severs the agent
    // (the stream is not trustworthy), while a stale sequence number is
    // dropped silently — that is what a replayed or fault-duplicated
    // frame looks like, and it must not kill a healthy link.
    let mut last_seq: u64 = 0;
    let kind = loop {
        let message = match read_message_capped::<FromAgent>(&mut reader, MAX_FLEET_LINE_BYTES) {
            Ok(Some(FromAgent::Sealed { seq, mac, body })) => match &session_key {
                Some(key) => {
                    if seq <= last_seq {
                        continue; // replay or duplicate: drop, stay alive
                    }
                    match crate::protocol::unseal(key, seq, &mac, &body) {
                        Ok(inner) => {
                            last_seq = seq;
                            inner
                        }
                        Err(_) => break FailureKind::Protocol, // forged or corrupted
                    }
                }
                // Sealed frames at an open coordinator: a configuration
                // mismatch that must surface loudly, not parse quietly.
                None => break FailureKind::Protocol,
            },
            Ok(Some(message)) => {
                if session_key.is_some() {
                    break FailureKind::Protocol; // unsealed frame on a secured link
                }
                message
            }
            Ok(None) => break FailureKind::WorkerCrash, // clean EOF
            Err(e) if is_deadline(&e) => break FailureKind::Timeout, // silence
            Err(_) => break FailureKind::Protocol,
        };
        match message_id(&message) {
            Some(id) => agent.route_reply(id, message),
            None => match message {
                FromAgent::Heartbeat => {}
                _ => break FailureKind::Protocol, // a second hello, or a nested seal
            },
        }
    };
    shared.declare_dead(&agent, kind);
    for dispatcher in dispatchers {
        let _ = dispatcher.join();
    }
    // The session is over: unregister so months of agent churn cannot
    // accumulate dead-agent sockets and pending maps in the registry
    // (the joined/lost lifetime counters survive).
    shared.registry.remove(agent.id);
}

/// The fleet coordinator. [`FleetCoordinator::bind`] binds the listen
/// endpoint and returns a handle; agents dial in on their own schedule.
pub struct FleetCoordinator;

impl FleetCoordinator {
    /// Binds `endpoint` and starts the accept loop and the deadline
    /// reaper. For `tcp:…:0` the handle reports the resolved port.
    pub fn bind(endpoint: &Endpoint, options: FleetOptions) -> std::io::Result<FleetHandle> {
        let (listener, resolved) = Listener::bind(endpoint)?;
        let mut wire_options = options.analyzer.clone();
        wire_options.parallelism = 1;
        let max_attempts = options.max_attempts;
        let metrics = FleetMetrics::new(
            options
                .registry
                .clone()
                .unwrap_or_else(|| Arc::new(obs::Registry::new())),
        );
        let shared = Arc::new(FleetShared {
            queue: FleetQueue::new(max_attempts),
            registry: Registry::default(),
            options,
            wire_options,
            endpoint: resolved,
            shutdown: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            stats: Counters::default(),
            metrics,
        });
        let sessions = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let sessions = Arc::clone(&sessions);
            std::thread::spawn(move || accept_loop(&shared, listener, &sessions))
        };
        let reaper = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || reaper_loop(&shared))
        };
        Ok(FleetHandle {
            shared,
            accept: Some(accept),
            reaper: Some(reaper),
            sessions,
        })
    }
}

/// A handle on a running fleet coordinator.
pub struct FleetHandle {
    shared: Arc<FleetShared>,
    accept: Option<JoinHandle<()>>,
    reaper: Option<JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl FleetHandle {
    /// The endpoint the coordinator actually listens on.
    pub fn endpoint(&self) -> &Endpoint {
        &self.shared.endpoint
    }

    /// A cloneable submission handle (what the serve daemon's offload
    /// closure captures).
    pub fn submitter(&self) -> FleetSubmitter {
        FleetSubmitter {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A point-in-time copy of the coordinator's counters.
    pub fn stats(&self) -> FleetStats {
        self.shared.snapshot()
    }

    /// The coordinator's telemetry registry rendered in Prometheus text
    /// exposition format: the unit lifecycle counters, the agent
    /// population, and the per-agent answer-latency histograms.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics.registry.render_prometheus()
    }

    /// Snapshots of every agent that ever registered.
    pub fn agents(&self) -> Vec<AgentSnapshot> {
        self.shared.registry.snapshots()
    }

    /// Blocks until at least `n` agents are alive or `timeout` expires;
    /// returns whether the quorum was met. Corpus runs use this to avoid
    /// queueing a whole corpus against an empty fleet by mistake.
    pub fn wait_for_agents(&self, n: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.shared.registry.alive().len() >= n {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Initiates shutdown (goodbye frames, queue drain, socket cleanup)
    /// and waits for every thread to exit.
    pub fn shutdown(mut self) {
        self.shared.begin_teardown(true);
        self.join_threads();
    }

    /// Tears the coordinator down **without goodbyes** — the
    /// crash-simulation lever for the chaos suites. Agents see a bare
    /// severed link (exactly what a killed coordinator process leaves
    /// behind) and their reconnect loops take over; the listen port is
    /// released so a successor can bind it.
    pub fn abort(mut self) {
        self.shared.begin_teardown(false);
        self.join_threads();
    }

    /// Starts the teardown without joining: queued units fail, agents
    /// are severed. The handle's owner still calls [`Self::shutdown`].
    pub(crate) fn close(&self) {
        self.shared.begin_teardown(true);
    }

    fn join_threads(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(reaper) = self.reaper.take() {
            reaper.thread().unpark();
            let _ = reaper.join();
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut sessions = self.sessions.lock().expect("session list lock");
            sessions.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for FleetHandle {
    fn drop(&mut self) {
        self.shared.begin_teardown(true);
        self.join_threads();
    }
}

/// A cloneable handle for submitting units to a running coordinator.
#[derive(Clone)]
pub struct FleetSubmitter {
    shared: Arc<FleetShared>,
}

/// What a submitted unit resolved to.
#[derive(Debug)]
pub enum FleetOutput {
    /// A [`Want::Analysis`] unit's payload.
    Analysis(Box<BinaryAnalysis>),
    /// A [`Want::Bundle`] unit's payload.
    Bundle(Box<PolicyBundle>),
}

/// A submitted unit awaiting its terminal state.
pub struct PendingUnit {
    slot: Arc<UnitSlot>,
    abandoned: Arc<AtomicBool>,
}

impl PendingUnit {
    fn resolve(done: UnitDone) -> (u32, Result<FleetOutput, UnitFailure>) {
        let result = done.result.map(|output| match output {
            UnitOutput::Analysis(a) => FleetOutput::Analysis(a),
            UnitOutput::Bundle(b) => FleetOutput::Bundle(b),
        });
        (done.attempts, result)
    }

    /// Blocks until the unit succeeds or permanently fails; returns the
    /// attempts spent alongside the outcome. Right for corpus runs,
    /// where waiting for an agent to appear is the documented workflow.
    pub fn wait(self) -> (u32, Result<FleetOutput, UnitFailure>) {
        Self::resolve(self.slot.wait())
    }

    /// [`PendingUnit::wait`] with a budget: `None` when the unit is
    /// still not terminal at the deadline. The unit is **abandoned** —
    /// if it is still queued (e.g. no agent ever connected), no agent
    /// will ever receive it; a dispatch already in flight completes
    /// into the void. Callers that must never block forever (the serve
    /// daemon's offload leaders) use this.
    pub fn wait_for(self, budget: Duration) -> Option<(u32, Result<FleetOutput, UnitFailure>)> {
        match self.slot.wait_for(budget) {
            Some(done) => Some(Self::resolve(done)),
            None => {
                self.abandoned.store(true, Ordering::SeqCst);
                None
            }
        }
    }
}

impl FleetSubmitter {
    /// Submits one binary for analysis ([`Want::Analysis`]). `path` is
    /// display-only (error-message rendering).
    pub fn submit_analysis(&self, name: &str, path: &str, bytes: Vec<u8>) -> PendingUnit {
        let (slot, abandoned) = self.shared.submit(name, path, bytes, Want::Analysis);
        PendingUnit { slot, abandoned }
    }

    /// Submits one binary for full bundle derivation ([`Want::Bundle`])
    /// — the serve-daemon offload path.
    pub fn submit_bundle(&self, name: &str, path: &str, bytes: Vec<u8>) -> PendingUnit {
        let (slot, abandoned) = self.shared.submit(name, path, bytes, Want::Bundle);
        PendingUnit { slot, abandoned }
    }
}

/// Analyzes a corpus of on-disk static binaries across the fleet.
///
/// A cache pre-pass answers unchanged binaries without dispatching,
/// every miss is shipped in band to whichever agent pulls it first,
/// results merge back in input order, and the rendered report is
/// **byte-identical** to in-process
/// [`Analyzer::analyze_corpus`](bside_core::Analyzer::analyze_corpus)
/// — deployment mode (threads, processes, machines) is unobservable.
///
/// The run completes even when individual units fail; only run-level
/// setup problems (an unusable cache directory) return an error. If no
/// agent ever connects the submissions wait in the queue — drive the
/// run under an external `timeout` when that is a possibility.
pub fn analyze_corpus_fleet(
    units: &[(String, PathBuf)],
    handle: &FleetHandle,
) -> Result<CorpusRun, DistError> {
    let shared = &handle.shared;
    // The run root: alive on this thread through submission and the
    // merge wait, so every unit submitted below inherits its context and
    // the whole corpus stitches into one cross-machine trace.
    let _run_span = obs::span_root("fleet_run", obs::new_run_id(), 0);
    let cache = match &shared.options.cache_dir {
        Some(dir) => Some(ResultCache::open(dir).map_err(DistError::Cache)?),
        None => None,
    };
    let before = shared.snapshot();

    let mut results: Vec<Option<UnitReport>> = Vec::with_capacity(units.len());
    results.resize_with(units.len(), || None);
    let mut cache_keys: Vec<Option<String>> = vec![None; units.len()];
    let mut pending: Vec<(usize, PendingUnit)> = Vec::new();
    let mut cache_hits = 0usize;

    for (id, (name, path)) in units.iter().enumerate() {
        let display = path.to_string_lossy().into_owned();
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) => {
                // The coordinator is the only filesystem toucher, so a
                // read failure surfaces here — with the same message the
                // in-process reference renders.
                results[id] = Some(UnitReport {
                    name: name.clone(),
                    result: Err(UnitFailure {
                        kind: FailureKind::Analysis,
                        message: read_error_message(&display, &e),
                        attempts: 1,
                    }),
                    attempts: 1,
                    from_cache: false,
                });
                continue;
            }
        };
        if let Some(cache) = &cache {
            let key = ResultCache::key(&bytes, &shared.wire_options);
            if let Some(analysis) = cache.load(&key) {
                cache_hits += 1;
                results[id] = Some(UnitReport {
                    name: name.clone(),
                    result: Ok(analysis),
                    attempts: 0,
                    from_cache: true,
                });
                continue;
            }
            cache_keys[id] = Some(key);
        }
        pending.push((
            id,
            handle.submitter().submit_analysis(name, &display, bytes),
        ));
    }

    for (id, unit) in pending {
        let (attempts, outcome) = unit.wait();
        let result = match outcome {
            Ok(FleetOutput::Analysis(analysis)) => Ok(*analysis),
            Ok(FleetOutput::Bundle(_)) => Err(UnitFailure {
                kind: FailureKind::Protocol,
                message: "fleet returned a bundle for an analysis unit".to_string(),
                attempts,
            }),
            Err(failure) => Err(failure),
        };
        results[id] = Some(UnitReport {
            name: units[id].0.clone(),
            result,
            attempts,
            from_cache: false,
        });
    }

    let results: Vec<UnitReport> = results
        .into_iter()
        .map(|r| r.expect("every unit reached a terminal state"))
        .collect();

    if let Some(cache) = &cache {
        for (report, key) in results.iter().zip(&cache_keys) {
            if let (Ok(analysis), Some(key), false) = (&report.result, key, report.from_cache) {
                let _ = cache.store(key, analysis);
            }
        }
    }

    let after = shared.snapshot();
    let failures = results.iter().filter(|r| r.result.is_err()).count();
    // "Workers" for a fleet run: every agent that was part of it —
    // those alive at the end plus any that joined during the run and
    // died along the way.
    let joined_during = (after.agents_joined - before.agents_joined) as usize;
    let stats = RunStats {
        units: units.len(),
        workers: after.agents_alive.max(joined_during),
        cache_hits,
        retries: (after.retries - before.retries) as usize,
        worker_crashes: (after.agents_lost - before.agents_lost) as usize,
        timeouts: (after.timeouts - before.timeouts) as usize,
        failures,
    };
    Ok(CorpusRun { results, stats })
}
