//! The agent side: a long-lived worker process on any machine that can
//! reach the coordinator (or a local child of `bside corpus --workers`,
//! see [`crate::local`]).
//!
//! An agent is intentionally dumb — no queue knowledge, no retry logic,
//! no cache; a unit in, a message out — so an agent crashing at *any*
//! point loses at most the units it holds. It *dials* the coordinator
//! (over TCP, or a Unix socket on the same host), answers the
//! coordinator's challenge in a capability hello (protocol version,
//! slot count, cache-format fingerprint, and — on secured fleets — an
//! HMAC over the challenge nonce and those fields), receives binaries
//! in band (no shared filesystem), analyzes up to
//! `slots` units concurrently, and keeps a heartbeat flowing from a
//! dedicated thread so the coordinator can tell "busy" from "gone"
//! without probing.
//!
//! # Session endings
//!
//! A session ends one of three ways, and they are deliberately
//! distinguishable:
//!
//! * **goodbye** — the coordinator's in-band `shutdown` frame: a clean
//!   end of service. [`run_agent_loop`] exits 0; supervisors must not
//!   treat it as a crash.
//! * **link lost** — a bare EOF or transport error mid-service: the
//!   coordinator crashed, restarted, or the network dropped.
//!   [`run_agent_loop`] re-dials under a capped decorrelated backoff
//!   ([`crate::backoff`]), re-runs the handshake, and resumes pulling;
//!   in-flight units are abandoned idempotently (the coordinator's
//!   reaper requeues them onto live agents).
//! * **fatal** — an in-band reject (failed authentication, version or
//!   cache-format mismatch) or a protocol-version downgrade: retrying
//!   cannot help, so the loop surfaces the error once three handshakes
//!   in a row end that way (once may be line noise on the unsealed
//!   handshake).
//!
//! # Fault-injection hooks
//!
//! The fault-isolation tests drive real `bside-agent` processes into
//! process- and machine-level failures:
//!
//! * `BSIDE_AGENT_CRASH_UNIT=<substr>` — abort the whole agent process
//!   before analyzing any unit whose name contains `<substr>` (the
//!   "machine died mid-unit" model — every slot's in-flight unit is
//!   lost at once);
//! * `BSIDE_AGENT_HANG_UNIT=<substr>` — sleep forever instead of
//!   analyzing (exercises the per-unit deadline and, for local agents,
//!   the supervisor's kill);
//! * `BSIDE_AGENT_SEVER_UNIT=<substr>` — write *half* of the unit's
//!   result frame, flush it onto the wire, then abort: the coordinator
//!   sees a torn frame followed by EOF (the "connection severed
//!   mid-result" model);
//! * `BSIDE_AGENT_FAULT_MARKER=<path>` — make any of these one-shot:
//!   the first faulting agent creates `<path>` and later agents seeing
//!   the marker behave normally, so the retry succeeds elsewhere.

use crate::backoff::Backoff;
use crate::protocol::{
    read_message_capped, seal, write_message, FromAgent, ToAgent, Want, CACHE_FORMAT_VERSION,
    MAX_FLEET_LINE_BYTES, PROTOCOL_VERSION,
};
use bside_core::{Analyzer, AnalyzerOptions};
use bside_dist::{parse_error_message, Conn, Endpoint};
use bside_obs as obs;
use std::io::{BufReader, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The agent's registry-backed lifetime counters. The `AgentReport` a
/// library caller gets back is still counted per call (tests run
/// several agents concurrently in one process), but these feed the
/// metrics dump and the exit line, so a `bside-agent` process has one
/// source of truth for "how much did I do".
struct AgentMetrics {
    units: Arc<obs::Counter>,
    sessions: Arc<obs::Counter>,
}

fn agent_metrics() -> &'static AgentMetrics {
    static METRICS: OnceLock<AgentMetrics> = OnceLock::new();
    METRICS.get_or_init(|| AgentMetrics {
        units: obs::global().counter("bside_fleet_agent_units_total"),
        sessions: obs::global().counter("bside_fleet_agent_sessions_total"),
    })
}

/// Configuration of one agent process.
#[derive(Debug, Clone)]
pub struct AgentOptions {
    /// Units analyzed concurrently (announced in the hello; the
    /// coordinator never has more than this outstanding here).
    pub slots: usize,
    /// How long to keep redialing a coordinator that is not (yet)
    /// listening — lets the two-terminal walkthrough start either side
    /// first. `None` fails fast on the first refused connection.
    pub dial_timeout: Option<Duration>,
    /// Shared fleet secret: answer challenges with a hello MAC and seal
    /// every post-hello frame. Must match the coordinator's
    /// (`--fleet-secret` / `BSIDE_FLEET_SECRET` on both sides).
    pub secret: Option<String>,
    /// First reconnect delay of the decorrelated-jitter schedule
    /// ([`run_agent_loop`]).
    pub backoff_base: Duration,
    /// Reconnect delay ceiling.
    pub backoff_cap: Duration,
    /// Jitter seed; `None` derives one from process identity so a fleet
    /// of agents decorrelates naturally. Tests pin it for determinism.
    pub backoff_seed: Option<u64>,
    /// Agent-side heartbeat cap: beat at least this often even when the
    /// welcome prescribes a slower cadence (beating faster than required
    /// is always safe; slower never is).
    pub heartbeat_cap: Option<Duration>,
}

impl Default for AgentOptions {
    fn default() -> Self {
        AgentOptions {
            slots: 1,
            dial_timeout: Some(Duration::from_secs(10)),
            secret: None,
            backoff_base: Duration::from_millis(200),
            backoff_cap: Duration::from_secs(10),
            backoff_seed: None,
            heartbeat_cap: None,
        }
    }
}

/// What an agent did over its service lifetime.
#[derive(Debug, Clone, Copy)]
pub struct AgentReport {
    /// Units answered (results and in-band unit errors), summed across
    /// every session.
    pub units: u64,
    /// Sessions served (1 unless a reconnect loop re-dialed).
    pub sessions: u64,
}

/// Parses an agent-facing endpoint spec. Unlike the daemon's
/// [`Endpoint::parse`] (where a bare string is a Unix path), a bare
/// `HOST:PORT` here is TCP — `bside agent --connect 10.0.0.7:4711` is
/// the common case on a fleet; `unix:PATH` (or anything with a `/`)
/// still selects a Unix socket for same-host use.
pub fn connect_endpoint(spec: &str) -> Endpoint {
    if spec.starts_with("tcp:") || spec.starts_with("unix:") || spec.contains('/') {
        Endpoint::parse(spec)
    } else {
        Endpoint::Tcp(spec.to_string())
    }
}

fn fault_requested(var: &str, unit_name: &str) -> bool {
    let Ok(needle) = std::env::var(var) else {
        return false;
    };
    if !unit_name.contains(&needle) {
        return false;
    }
    match std::env::var("BSIDE_AGENT_FAULT_MARKER") {
        Ok(marker) => {
            let path = std::path::Path::new(&marker);
            if path.exists() {
                return false; // already faulted once; behave normally
            }
            let _ = std::fs::File::create(path);
            true
        }
        Err(_) => true,
    }
}

/// Analyzes one in-band unit; the error side carries the exact message
/// the in-process engine would render for the same degradation.
fn analyze_unit(
    id: u64,
    name: &str,
    path: &str,
    want: Want,
    elf_bytes: &[u8],
    options: AnalyzerOptions,
    trace: Option<obs::TraceContext>,
) -> FromAgent {
    if fault_requested("BSIDE_AGENT_CRASH_UNIT", name) {
        std::process::abort();
    }
    if fault_requested("BSIDE_AGENT_HANG_UNIT", name) {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    // Install the dispatch context (an absent/corrupted one degrades to
    // the all-zero default: the spans below become orphans) and collect
    // everything the analysis records — core's `analyze` span and its
    // per-phase children — to ship home in the reply instead of the
    // local ring.
    let _ctx = obs::set_context(trace.unwrap_or_default());
    let (mut reply, spans) = obs::collect(|| match want {
        Want::Analysis => {
            let elf = match bside_elf::Elf::parse(elf_bytes) {
                Ok(elf) => elf,
                Err(e) => {
                    return FromAgent::Error {
                        id,
                        message: parse_error_message(path, &e),
                        trace,
                        spans: Vec::new(),
                    }
                }
            };
            match Analyzer::new(options).analyze_static(&elf) {
                Ok(analysis) => FromAgent::Result {
                    id,
                    analysis: Box::new(analysis),
                    trace,
                    spans: Vec::new(),
                },
                Err(e) => FromAgent::Error {
                    id,
                    message: e.to_string(),
                    trace,
                    spans: Vec::new(),
                },
            }
        }
        // The offload path: the agent runs the *whole* derivation —
        // analysis, phase detection, BPF lowering — so the serve daemon
        // does none of it. Agents carry no shared-interface store, so a
        // dynamic binary degrades to the same guidance message the
        // daemon itself would produce without --lib-dir.
        Want::Bundle => match bside_dist::derive_bundle(name, elf_bytes, &options, None) {
            Ok(bundle) => FromAgent::Bundle {
                id,
                bundle: Box::new(bundle),
                trace,
                spans: Vec::new(),
            },
            Err(message) => FromAgent::Error {
                id,
                message,
                trace,
                spans: Vec::new(),
            },
        },
    });
    match &mut reply {
        FromAgent::Result { spans: slot, .. }
        | FromAgent::Bundle { spans: slot, .. }
        | FromAgent::Error { spans: slot, .. } => *slot = spans,
        _ => {}
    }
    reply
}

/// The sealing state of one secured session: the derived key and the
/// next frame sequence number. The number is assigned **under the
/// writer lock**, so sequence order always matches stream order and the
/// coordinator's strictly-increasing policy never trips on a healthy
/// agent.
struct SessionAuth {
    key: [u8; 32],
    next_seq: AtomicU64,
}

/// Writes one agent frame, sealing it first on secured sessions.
///
/// A failed write is a severed link: the socket is shut down in both
/// directions, so the read loop ends with a lost link and the reconnect
/// loop redials. Without that, the slot or heartbeat thread that hit
/// the error would exit while the read loop kept accepting units no
/// slot runs, leaving them to the coordinator's unit deadline.
fn send_frame(
    writer: &Mutex<Conn>,
    auth: Option<&SessionAuth>,
    frame: &FromAgent,
) -> std::io::Result<()> {
    let mut conn = writer.lock().expect("agent writer lock");
    let sent = match auth {
        Some(auth) => {
            let seq = auth.next_seq.fetch_add(1, Ordering::Relaxed);
            seal(&auth.key, seq, frame).and_then(|sealed| write_message(&mut *conn, &sealed))
        }
        None => write_message(&mut *conn, frame),
    };
    if sent.is_err() {
        let _ = conn.shutdown_both();
    }
    sent
}

/// Writes a reply under the shared writer lock — unless the sever fault
/// hook fires, in which case half the frame is flushed onto the wire and
/// the process aborts (the torn-frame fault model).
fn write_reply(
    writer: &Mutex<Conn>,
    auth: Option<&SessionAuth>,
    name: &str,
    reply: &FromAgent,
) -> std::io::Result<()> {
    if fault_requested("BSIDE_AGENT_SEVER_UNIT", name) {
        let json = serde_json::to_string(reply)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let mut conn = writer.lock().expect("agent writer lock");
        let half = &json.as_bytes()[..json.len() / 2];
        let _ = conn.write_all(half);
        let _ = conn.flush();
        std::process::abort();
    }
    send_frame(writer, auth, reply)
}

fn dial(endpoint: &Endpoint, budget: Option<Duration>) -> std::io::Result<Conn> {
    let deadline = budget.map(|b| Instant::now() + b);
    loop {
        match Conn::connect(endpoint) {
            Ok(conn) => return Ok(conn),
            Err(e) => {
                let retryable = matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionRefused
                        | std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::NotFound
                );
                match deadline {
                    Some(d) if retryable && Instant::now() < d => {
                        std::thread::sleep(Duration::from_millis(150));
                    }
                    _ => return Err(e),
                }
            }
        }
    }
}

/// How one session ended, from the agent's point of view.
enum SessionEnd {
    /// The coordinator said goodbye in band: a clean end of service.
    Goodbye,
    /// The link died without a goodbye: reconnect territory.
    LinkLost(std::io::Error),
}

/// `true` for errors that redialing cannot fix: an in-band reject
/// (`PermissionDenied`) or a protocol-level incompatibility
/// (`Unsupported`). Everything else — refused dials, resets, garbled
/// frames — is link weather the reconnect loop rides out.
fn is_fatal(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::PermissionDenied | std::io::ErrorKind::Unsupported
    )
}

/// One connection's service lifetime: dial, challenge/hello handshake,
/// units until the link ends. Returns the units served and how the
/// session ended; `Err` means the handshake itself failed (classify
/// with [`is_fatal`]).
fn run_session(
    endpoint: &Endpoint,
    options: &AgentOptions,
    dial_budget: Option<Duration>,
) -> std::io::Result<(u64, SessionEnd)> {
    let conn = dial(endpoint, dial_budget)?;
    let writer = Arc::new(Mutex::new(conn.try_clone()?));
    let mut reader = BufReader::new(conn);
    let slots = options.slots.max(1);

    // The coordinator speaks first: every connection opens with its
    // challenge, whether or not the fleet is secured.
    let nonce = match read_message_capped::<ToAgent>(&mut reader, MAX_FLEET_LINE_BYTES)? {
        Some(ToAgent::Challenge { nonce }) => nonce,
        Some(ToAgent::Reject { message }) => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                format!("coordinator rejected this agent: {message}"),
            ))
        }
        other => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("expected challenge, got {other:?}"),
            ))
        }
    };
    let auth_mac = options.secret.as_deref().map(|secret| {
        crate::auth::hello_mac(
            secret,
            &nonce,
            PROTOCOL_VERSION,
            slots,
            CACHE_FORMAT_VERSION,
        )
    });
    write_message(
        &mut *writer.lock().expect("agent writer lock"),
        &FromAgent::Hello {
            version: PROTOCOL_VERSION,
            slots,
            cache_format: CACHE_FORMAT_VERSION,
            auth: auth_mac,
        },
    )?;
    let (heartbeat_interval, sealed) =
        match read_message_capped::<ToAgent>(&mut reader, MAX_FLEET_LINE_BYTES)? {
            Some(ToAgent::Welcome {
                version,
                heartbeat_interval_ms,
                sealed,
            }) if version == PROTOCOL_VERSION => {
                (Duration::from_millis(heartbeat_interval_ms.max(50)), sealed)
            }
            Some(ToAgent::Welcome { version, .. }) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    format!(
                    "coordinator speaks fleet protocol v{version}, expected v{PROTOCOL_VERSION}"
                ),
                ))
            }
            Some(ToAgent::Reject { message }) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::PermissionDenied,
                    format!("coordinator rejected this agent: {message}"),
                ))
            }
            other => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("expected welcome, got {other:?}"),
                ))
            }
        };
    // An agent holding a secret refuses to run unsealed: a welcome
    // without sealing means the coordinator never verified the hello
    // MAC — a misconfiguration (or a downgrade) that must fail loudly
    // instead of silently dropping the integrity guarantee.
    let auth = match (&options.secret, sealed) {
        (Some(secret), true) => Some(Arc::new(SessionAuth {
            key: crate::auth::session_key(secret, &nonce),
            next_seq: AtomicU64::new(1),
        })),
        (Some(_), false) => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "a fleet secret is configured but the coordinator does not seal frames; \
                 refusing to run with authentication silently disabled",
            ))
        }
        (None, true) => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "coordinator requires sealed frames but this agent has no fleet secret",
            ))
        }
        (None, false) => None,
    };
    // The agent may beat faster than prescribed (never slower): the
    // agent-side cap is a floor on cadence for jittery links.
    let heartbeat_interval = match options.heartbeat_cap {
        Some(cap) => heartbeat_interval.min(cap.max(Duration::from_millis(50))),
        None => heartbeat_interval,
    };

    // A completed handshake is a served session, however it later ends.
    agent_metrics().sessions.inc();

    let units_done = Arc::new(AtomicU64::new(0));

    // The liveness channel: beats flow from a dedicated thread so a
    // fully busy agent (every slot mid-analysis) still reads as alive.
    // It beats until a write fails (which severs the link, see
    // `send_frame`) or the session ends (dropping `stop_beats` wakes it
    // at once).
    let (stop_beats, beats_stopped) = channel::<()>();
    let heartbeat = {
        let writer = Arc::clone(&writer);
        let auth = auth.clone();
        std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) =
                beats_stopped.recv_timeout(heartbeat_interval)
            {
                if send_frame(&writer, auth.as_deref(), &FromAgent::Heartbeat).is_err() {
                    return;
                }
            }
        })
    };

    // Slot workers drain an in-agent queue so the read loop never
    // blocks behind an analysis.
    type UnitJob = (
        u64,
        String,
        String,
        Want,
        Vec<u8>,
        AnalyzerOptions,
        Option<obs::TraceContext>,
    );
    let (tx, rx) = channel::<UnitJob>();
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<_> = (0..slots)
        .map(|_| {
            let rx: Arc<Mutex<Receiver<UnitJob>>> = Arc::clone(&rx);
            let writer = Arc::clone(&writer);
            let units_done = Arc::clone(&units_done);
            let auth = auth.clone();
            std::thread::spawn(move || loop {
                let job = {
                    let rx = rx.lock().expect("agent job queue lock");
                    rx.recv()
                };
                let Ok((id, name, path, want, elf, options, trace)) = job else {
                    return; // queue closed: clean drain
                };
                let reply = analyze_unit(id, &name, &path, want, &elf, options, trace);
                units_done.fetch_add(1, Ordering::Relaxed);
                agent_metrics().units.inc();
                if write_reply(&writer, auth.as_deref(), &name, &reply).is_err() {
                    return;
                }
            })
        })
        .collect();

    // The read loop: units in, goodbye (or a lost link) out. Only the
    // in-band shutdown frame is a clean goodbye — a bare EOF or any
    // transport/framing error is a lost link the reconnect loop may
    // ride out. On a secured session every post-welcome frame must
    // arrive sealed: a bad MAC or an unsealed frame ends the session
    // (the stream is not trustworthy), while a stale sequence number is
    // dropped silently — that is what a duplicated delivery looks like.
    let mut last_down_seq: u64 = 0;
    let end = loop {
        let frame = match read_message_capped::<ToAgent>(&mut reader, MAX_FLEET_LINE_BYTES) {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                break SessionEnd::LinkLost(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "coordinator link closed without a goodbye",
                ))
            }
            Err(e) => break SessionEnd::LinkLost(e),
        };
        let frame = match (&auth, frame) {
            (Some(auth), ToAgent::Sealed { seq, mac, body }) => {
                if seq <= last_down_seq {
                    continue; // duplicate delivery: already acted on
                }
                match crate::protocol::unseal_down(&auth.key, seq, &mac, &body) {
                    Ok(inner) => {
                        last_down_seq = seq;
                        inner
                    }
                    Err(e) => {
                        break SessionEnd::LinkLost(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            e,
                        ))
                    }
                }
            }
            (Some(_), other) => {
                break SessionEnd::LinkLost(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unsealed coordinator frame on a secured link: {other:?}"),
                ))
            }
            (None, ToAgent::Sealed { .. }) => {
                break SessionEnd::LinkLost(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "sealed coordinator frame on an open link",
                ))
            }
            (None, frame) => frame,
        };
        match frame {
            ToAgent::Unit {
                id,
                name,
                path,
                want,
                elf,
                options,
                trace,
            } => {
                if tx
                    .send((id, name, path, want, elf, options, trace))
                    .is_err()
                {
                    break SessionEnd::LinkLost(std::io::Error::new(
                        std::io::ErrorKind::BrokenPipe,
                        "agent writer died mid-session",
                    ));
                }
            }
            ToAgent::Shutdown => break SessionEnd::Goodbye,
            other => {
                break SessionEnd::LinkLost(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unexpected coordinator message: {other:?}"),
                ))
            }
        }
    };

    // Drain: close the queue, let workers finish what they hold (their
    // late results are best-effort once the coordinator is gone), stop
    // the heartbeat, and report. A slot hung in its unit never finishes,
    // so neither does this agent: the coordinator severs it at the
    // deadline, and a local agent's supervisor kills the process.
    drop(tx);
    for worker in workers {
        let _ = worker.join();
    }
    drop(stop_beats);
    let _ = heartbeat.join();
    Ok((units_done.load(Ordering::Relaxed), end))
}

/// Dials the coordinator and works units over **one** session, until
/// the coordinator says goodbye in band.
///
/// # Errors
///
/// Connection failures past the dial budget, a rejected hello (failed
/// authentication, version or cache-format mismatch — the in-band
/// `reject` message is surfaced as `PermissionDenied`), a
/// transport/protocol failure mid-service, or a link that closed
/// without a goodbye. Callers that should survive coordinator restarts
/// want [`run_agent_loop`] instead.
pub fn run_agent(endpoint: &Endpoint, options: &AgentOptions) -> std::io::Result<AgentReport> {
    let (units, end) = run_session(endpoint, options, options.dial_timeout)?;
    match end {
        SessionEnd::Goodbye => Ok(AgentReport { units, sessions: 1 }),
        SessionEnd::LinkLost(e) => Err(e),
    }
}

/// How many *consecutive* fatal handshake verdicts (an in-band reject
/// or a protocol downgrade) the reconnect loop absorbs before
/// concluding the verdict is real. A verdict is usually fatal (a wrong
/// secret cannot become right by redialing), but the handshake travels
/// before frames are sealed, so line noise can forge either once: a
/// corrupted challenge nonce fails the hello MAC (the coordinator
/// cannot tell a bad secret from a bad nonce), and a corrupted `sealed`
/// key reads as an unsealed coordinator. Three in a row is noise no
/// longer.
const VERDICT_THRESHOLD: u32 = 3;

/// [`run_agent`] under a reconnect supervisor: a lost link (coordinator
/// crash, restart, partition) is retried forever under a capped
/// decorrelated-jitter backoff that resets after every healthy session,
/// while an in-band goodbye ends service cleanly and a fatal handshake
/// verdict (a reject or a protocol downgrade) surfaces as the error it
/// is after `VERDICT_THRESHOLD` (3) consecutive tries. In-flight units
/// lost with a link are abandoned idempotently — the coordinator's
/// reaper requeues them onto live agents, so an at-most-once answer per
/// unit is preserved across reconnects.
pub fn run_agent_loop(endpoint: &Endpoint, options: &AgentOptions) -> std::io::Result<AgentReport> {
    let seed = options.backoff_seed.unwrap_or_else(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        nanos ^ ((std::process::id() as u64) << 32)
    });
    let mut backoff = Backoff::new(options.backoff_base, options.backoff_cap, seed);
    let mut units_total: u64 = 0;
    let mut sessions: u64 = 0;
    let mut verdicts: u32 = 0;
    // The first dial honors the configured budget (either side of the
    // walkthrough may start first); re-dials are paced by the backoff
    // itself, so each attempt fails fast.
    let mut dial_budget = options.dial_timeout;
    loop {
        match run_session(endpoint, options, dial_budget) {
            Ok((units, SessionEnd::Goodbye)) => {
                return Ok(AgentReport {
                    units: units_total + units,
                    sessions: sessions + 1,
                })
            }
            Ok((units, SessionEnd::LinkLost(e))) => {
                units_total += units;
                sessions += 1;
                verdicts = 0;
                // A completed handshake is a healthy session: the next
                // outage starts the schedule from the base again.
                backoff.reset();
                let delay = backoff.next();
                eprintln!(
                    "bside-agent: link lost ({e}); reconnecting in {}ms",
                    delay.as_millis()
                );
                std::thread::sleep(delay);
            }
            Err(e) if is_fatal(&e) => {
                verdicts += 1;
                if verdicts >= VERDICT_THRESHOLD {
                    return Err(e);
                }
                eprintln!("bside-agent: refused ({e}); retrying in case it was line noise");
                std::thread::sleep(backoff.next());
            }
            Err(_) => std::thread::sleep(backoff.next()),
        }
        dial_budget = Some(Duration::from_millis(250));
    }
}

/// The `bside-agent` / `bside agent` entry point: argument parsing plus
/// [`run_agent_loop`] (or single-session [`run_agent`] with
/// `--no-reconnect`). `default_slots` applies when `--slots` is absent.
/// `Ok` means the coordinator said goodbye in band; `Err` carries a
/// usage error or a fatal verdict for the caller to print.
pub fn agent_main(args: &[String], default_slots: usize) -> Result<(), String> {
    let usage = "usage: bside-agent --connect HOST:PORT [--slots N] [--dial-timeout SECS] \
                 [--fleet-secret SECRET] [--heartbeat-secs SECS] [--no-reconnect] \
                 [--metrics-dump]";
    let mut connect: Option<String> = None;
    let mut options = AgentOptions {
        slots: default_slots.max(1),
        ..AgentOptions::default()
    };
    let mut secret: Option<String> = None;
    let mut reconnect = true;
    let mut metrics_dump = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value\n{usage}"))
        };
        let number = |v: String, min: u64| {
            v.parse::<u64>()
                .ok()
                .filter(|&n| n >= min)
                .ok_or_else(|| format!("{arg} needs an integer >= {min}\n{usage}"))
        };
        match arg.as_str() {
            "--connect" => connect = Some(value()?),
            "--slots" => options.slots = number(value()?, 1)? as usize,
            "--dial-timeout" => {
                options.dial_timeout = Some(Duration::from_secs(number(value()?, 0)?));
            }
            "--fleet-secret" => secret = Some(value()?),
            "--heartbeat-secs" => {
                options.heartbeat_cap = Some(Duration::from_secs(number(value()?, 1)?));
            }
            "--no-reconnect" => reconnect = false,
            "--metrics-dump" => metrics_dump = true,
            other => return Err(format!("unexpected argument {other}\n{usage}")),
        }
    }
    let endpoint = connect_endpoint(&connect.ok_or(usage)?);
    options.secret = crate::auth::resolve_secret(secret);
    eprintln!(
        "bside-agent: dialing {endpoint} with {} slot(s){}",
        options.slots,
        if options.secret.is_some() {
            " (authenticated)"
        } else {
            ""
        }
    );
    let outcome = if reconnect {
        run_agent_loop(&endpoint, &options)
    } else {
        run_agent(&endpoint, &options)
    };
    outcome.map_err(|e| e.to_string())?;
    // The exit line reads the same registry counters the metrics dump
    // renders — one source of truth for what this process did (a process
    // runs exactly one agent loop, so the counters and the report agree).
    let metrics = agent_metrics();
    eprintln!(
        "bside-agent: coordinator said goodbye after {} unit(s) over {} session(s); exiting",
        metrics.units.get(),
        metrics.sessions.get()
    );
    if metrics_dump {
        print!("{}", obs::global().render_prometheus());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_endpoint_prefers_tcp_for_bare_host_port() {
        assert_eq!(
            connect_endpoint("10.0.0.7:4711"),
            Endpoint::Tcp("10.0.0.7:4711".to_string())
        );
        assert_eq!(
            connect_endpoint("tcp:10.0.0.7:4711"),
            Endpoint::Tcp("10.0.0.7:4711".to_string())
        );
        assert_eq!(
            connect_endpoint("unix:/run/fleet.sock"),
            Endpoint::Unix(std::path::PathBuf::from("/run/fleet.sock"))
        );
        assert_eq!(
            connect_endpoint("/run/fleet.sock"),
            Endpoint::Unix(std::path::PathBuf::from("/run/fleet.sock"))
        );
    }

    #[test]
    fn fatal_verdicts_are_exactly_reject_and_downgrade() {
        let reject = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "rejected");
        let downgrade = std::io::Error::new(std::io::ErrorKind::Unsupported, "v1");
        let refused = std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "down");
        let garbled = std::io::Error::new(std::io::ErrorKind::InvalidData, "noise");
        assert!(is_fatal(&reject));
        assert!(is_fatal(&downgrade));
        assert!(!is_fatal(&refused), "a down coordinator is retryable");
        assert!(!is_fatal(&garbled), "line noise is retryable");
    }
}
