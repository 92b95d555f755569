//! Local agents: `bside corpus DIR --workers N` on the fleet engine.
//!
//! A local run is a fleet run whose agents are child processes of the
//! coordinator. [`analyze_corpus_local`] binds an in-process
//! [`FleetCoordinator`] on a Unix socket inside a fresh `0700` temp
//! directory (no secret: only this user can dial it), spawns N
//! `bside-agent --slots 1` children against it, and runs
//! [`analyze_corpus_fleet`]. Process isolation, crash recovery and
//! per-unit deadlines are the fleet's own: a crashed child's units are
//! requeued when its connection drops, and a hung unit's agent is
//! severed at the deadline.
//!
//! What a remote fleet cannot do, the supervisor here adds: it keeps N
//! children alive for the whole run. A child that exits is replaced,
//! and a child whose session the coordinator ended (a deadline sever)
//! is killed as a process and replaced — a slot hung in its unit would
//! otherwise keep the agent alive forever.
//!
//! The supervisor learns which child is which by starting them one at
//! a time: the registration that follows a spawn is that child's (agent
//! ids are assigned in registration order, and nothing else can reach
//! the private socket).

use crate::coordinator::{analyze_corpus_fleet, FleetCoordinator, FleetHandle, FleetOptions};
use bside_dist::{CorpusRun, DistError, Endpoint};
use std::os::unix::fs::DirBuilderExt as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// What a local run needs on top of [`FleetOptions`].
#[derive(Debug, Clone, Default)]
pub struct LocalAgents {
    /// Agent processes kept alive for the run, one slot each.
    pub workers: usize,
    /// Explicit `bside-agent` path; `None` resolves it with
    /// [`resolve_agent_bin`].
    pub agent_bin: Option<PathBuf>,
    /// Extra environment for the spawned agents (the fault-hook tests;
    /// empty in production).
    pub env: Vec<(String, String)>,
}

/// Locates the `bside-agent` binary: the explicit path when given, else
/// a sibling of the current executable, else its parent directory
/// (covers test binaries under `target/<profile>/deps/`).
pub fn resolve_agent_bin(explicit: Option<&Path>) -> Result<PathBuf, DistError> {
    if let Some(path) = explicit {
        return Ok(path.to_path_buf());
    }
    let mut tried = Vec::new();
    if let Ok(exe) = std::env::current_exe() {
        for dir in [exe.parent(), exe.parent().and_then(Path::parent)]
            .into_iter()
            .flatten()
        {
            let candidate = dir.join("bside-agent");
            if candidate.is_file() {
                return Ok(candidate);
            }
            tried.push(candidate);
        }
    }
    Err(DistError::AgentBinNotFound { tried })
}

/// Analyzes a corpus of on-disk static binaries across `local.workers`
/// local agent processes.
///
/// `units` are `(name, path)` pairs; results come back in the same
/// order, and the report is byte-identical to the in-process engine's.
/// `options.secret` is ignored: the private socket needs none. The run
/// completes even when individual units fail; only setup problems (no
/// agent binary, no socket, an unusable cache directory, or agents that
/// die before their hello) return an error.
pub fn analyze_corpus_local(
    units: &[(String, PathBuf)],
    options: FleetOptions,
    local: &LocalAgents,
) -> Result<CorpusRun, DistError> {
    let agent_bin = resolve_agent_bin(local.agent_bin.as_deref())?;
    let dir = PrivateDir::create().map_err(DistError::Local)?;
    let endpoint = Endpoint::Unix(dir.0.join("fleet.sock"));
    let handle = FleetCoordinator::bind(
        &endpoint,
        FleetOptions {
            secret: None,
            ..options
        },
    )
    .map_err(DistError::Local)?;
    // More agents than units would only idle.
    let workers = local.workers.clamp(1, units.len().max(1));
    let spawn = || {
        Command::new(&agent_bin)
            .arg("--connect")
            .arg(endpoint.to_string())
            .args(["--slots", "1", "--no-reconnect"])
            .env_remove("BSIDE_FLEET_SECRET")
            .envs(local.env.iter().map(|(k, v)| (k, v)))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
    };
    // Dropping `finish` tells the supervisor the run is over.
    let (finish, done) = channel::<()>();
    let (run, supervision) = std::thread::scope(|scope| {
        let supervisor = scope.spawn(|| supervise(&handle, workers, &spawn, done));
        let run = analyze_corpus_fleet(units, &handle);
        drop(finish);
        (run, supervisor.join().expect("agent supervisor panicked"))
    });
    // The goodbye ends every agent's session; reap them after it.
    handle.shutdown();
    reap(supervision.agents);
    if let Some(e) = supervision.gave_up {
        return Err(DistError::Local(e));
    }
    let mut run = run?;
    run.stats.workers = workers;
    Ok(run)
}

/// How often the supervisor checks on its agents.
const SUPERVISE_TICK: Duration = Duration::from_millis(10);
/// How long a fresh agent may take to complete its hello.
const START_BUDGET: Duration = Duration::from_secs(10);
/// Consecutive failed starts after which the run gives up on agents.
const MAX_FAILED_STARTS: u32 = 3;

/// A supervised agent: its process and its coordinator-side id.
struct LocalAgent {
    child: Child,
    id: u64,
}

/// What the supervisor hands back when the run ends.
struct Supervision {
    agents: Vec<LocalAgent>,
    /// Set when agents kept dying before their hello; the coordinator
    /// was closed so the run could end.
    gave_up: Option<std::io::Error>,
}

/// Waits up to `tick` for the run to end; `true` once it has.
fn finished(done: &Receiver<()>, tick: Duration) -> bool {
    !matches!(done.recv_timeout(tick), Err(RecvTimeoutError::Timeout))
}

fn supervise(
    handle: &FleetHandle,
    workers: usize,
    spawn: &dyn Fn() -> std::io::Result<Child>,
    done: Receiver<()>,
) -> Supervision {
    let mut agents: Vec<LocalAgent> = Vec::with_capacity(workers);
    let mut failed_starts = 0;
    loop {
        retire(handle, &mut agents);
        if agents.len() < workers {
            match start(handle, spawn, &done) {
                Ok(Some(agent)) => {
                    failed_starts = 0;
                    agents.push(agent);
                    continue;
                }
                Ok(None) => break,
                Err(e) => {
                    failed_starts += 1;
                    if failed_starts >= MAX_FAILED_STARTS {
                        handle.close();
                        return Supervision {
                            agents,
                            gave_up: Some(std::io::Error::new(
                                e.kind(),
                                format!("no local agent could be started: {e}"),
                            )),
                        };
                    }
                    if finished(&done, Duration::from_millis(200)) {
                        break;
                    }
                    continue;
                }
            }
        }
        if finished(&done, SUPERVISE_TICK) {
            break;
        }
    }
    // A unit that hit its deadline just before the run ended left its
    // agent hung; it will not answer the goodbye.
    retire(handle, &mut agents);
    Supervision {
        agents,
        gave_up: None,
    }
}

/// Kills and drops the agents whose process exited or whose session is
/// over (crash, lost link, deadline sever). Killing an exited child is
/// a no-op; killing a severed one is the point.
fn retire(handle: &FleetHandle, agents: &mut Vec<LocalAgent>) {
    let alive: Vec<u64> = handle
        .agents()
        .iter()
        .filter(|a| a.alive)
        .map(|a| a.id)
        .collect();
    agents.retain_mut(|agent| {
        let running = matches!(agent.child.try_wait(), Ok(None));
        if running && alive.contains(&agent.id) {
            return true;
        }
        let _ = agent.child.kill();
        let _ = agent.child.wait();
        false
    });
}

/// Spawns one agent and waits for its registration. `Ok(None)` when the
/// run finished first.
fn start(
    handle: &FleetHandle,
    spawn: &dyn Fn() -> std::io::Result<Child>,
    done: &Receiver<()>,
) -> std::io::Result<Option<LocalAgent>> {
    // Ids are registration order, so the next registration gets this id.
    let id = handle.stats().agents_joined;
    let mut child = spawn()?;
    let deadline = Instant::now() + START_BUDGET;
    loop {
        if handle.stats().agents_joined > id {
            return Ok(Some(LocalAgent { child, id }));
        }
        if let Some(status) = child.try_wait()? {
            return Err(std::io::Error::other(format!(
                "agent exited before its hello ({status})"
            )));
        }
        let run_over = finished(done, Duration::from_millis(1));
        if run_over || Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            if run_over {
                return Ok(None);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("agent did not complete its hello within {START_BUDGET:?}"),
            ));
        }
    }
}

/// Waits for agents to exit after the coordinator's goodbye, killing
/// any that outlive a short grace period.
fn reap(agents: Vec<LocalAgent>) {
    let deadline = Instant::now() + Duration::from_secs(2);
    for mut agent in agents {
        while matches!(agent.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = agent.child.kill();
        let _ = agent.child.wait();
    }
}

/// A fresh `0700` directory for the private socket, removed on drop.
struct PrivateDir(PathBuf);

impl PrivateDir {
    fn create() -> std::io::Result<PrivateDir> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        loop {
            let path = std::env::temp_dir().join(format!(
                "bside-corpus-{}-{nanos:x}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            match std::fs::DirBuilder::new().mode(0o700).create(&path) {
                Ok(()) => return Ok(PrivateDir(path)),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for PrivateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
