//! # `bside-fleet`: the corpus engine
//!
//! The paper's headline evaluation is corpus-scale (557 Debian ELFs for
//! Table 2). In-process thread fan-out (`bside-core`) shares one address
//! space, so one pathological binary can take a whole run with it; this
//! crate runs corpus units in **agent processes** instead — on this
//! machine or on many. A long-lived [`agent`] dials the [`coordinator`]
//! (TCP, or a Unix socket on the same host), self-describes in a
//! versioned capability hello, and pulls `(binary, options)` units whose
//! payloads travel **in band** — no shared filesystem, no remote
//! spawning, no out-of-band probes:
//!
//! * **local runs** — [`analyze_corpus_local`] (`bside corpus --workers
//!   N`) binds a coordinator on a private Unix socket and supervises N
//!   local agent children, killing and replacing any that crash or hang;
//! * **capability hello** — protocol version, slot count, and the
//!   analysis cache-format fingerprint; the coordinator rejects agents
//!   whose results would not be comparable, so a heterogeneous fleet
//!   self-describes instead of silently poisoning the cache;
//! * **heartbeat scheduling** — a dedicated agent thread keeps beats
//!   flowing while every slot is busy, and the coordinator's socket
//!   read timeout doubles as the silence deadline: a dead or
//!   partitioned agent is detected and its in-flight units are
//!   **requeued onto surviving agents**, with the retry budget riding
//!   each unit;
//! * **byte-identical merges** — [`analyze_corpus_fleet`] answers
//!   unchanged binaries from the content-addressed
//!   [`bside_dist::cache`], merges results in input order, and renders
//!   with the shared report renderer, so a run at any agent count
//!   reproduces the in-process `analyze_corpus` report byte for byte;
//! * **serve-daemon offload** — [`serve_offload`] turns a
//!   [`FleetSubmitter`] into the hook `bside serve --fleet` installs:
//!   analyze-on-miss leaders ship the whole bundle derivation
//!   (analysis, phase detection, BPF lowering) to the fleet, composing
//!   with the serve layer's single-flight so one cold storm still costs
//!   exactly one fleet unit.
//!
//! # Example
//!
//! ```no_run
//! use bside_fleet::{analyze_corpus_fleet, FleetCoordinator, FleetOptions};
//! use bside_dist::Endpoint;
//! use std::path::PathBuf;
//!
//! let handle = FleetCoordinator::bind(
//!     &Endpoint::Tcp("0.0.0.0:4711".to_string()),
//!     FleetOptions::default(),
//! )?;
//! // … `bside agent --connect HOST:4711` on any number of machines …
//! let units = vec![("redis".to_string(), PathBuf::from("corpus/000_redis.elf"))];
//! let run = analyze_corpus_fleet(&units, &handle)?;
//! println!("{}", bside_dist::report_of_run(&run));
//! handle.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod auth;
pub mod backoff;
pub mod coordinator;
pub mod local;
pub mod protocol;
pub(crate) mod queue;
pub mod registry;

pub use agent::{
    agent_main, connect_endpoint, run_agent, run_agent_loop, AgentOptions, AgentReport,
};
pub use backoff::Backoff;
pub use coordinator::{
    analyze_corpus_fleet, FleetCoordinator, FleetHandle, FleetOptions, FleetOutput, FleetStats,
    FleetSubmitter, PendingUnit,
};
pub use local::{analyze_corpus_local, resolve_agent_bin, LocalAgents};
pub use protocol::{Want, MAX_FLEET_LINE_BYTES, PROTOCOL_VERSION};
pub use registry::AgentSnapshot;

/// Builds the serve daemon's remote-analyzer hook over a fleet: the
/// analyze-on-miss leader ships `(name, bytes)` to whichever agent pulls
/// it and blocks — at most `wait_budget` — for the derived bundle;
/// failures (no agents within the budget, retry budget spent, analysis
/// error) come back as the in-band error message the daemon relays to
/// its client. The budget is what keeps a daemon with **zero connected
/// agents** serving: without it, every cold fetch would pin a pool
/// worker on a unit no one will ever pull, wedging the daemon (and its
/// shutdown) behind an empty fleet.
///
/// The coordinator must be configured with the **same analyzer options**
/// as the daemon — the daemon's store keys fingerprint its options, and
/// a bundle derived under different options would be filed under the
/// wrong address. `bside serve --fleet` wires both from one source.
pub fn serve_offload(
    submitter: FleetSubmitter,
    wait_budget: std::time::Duration,
) -> bside_dist::RemoteAnalyzer {
    std::sync::Arc::new(move |name: &str, path: &str, bytes: &[u8]| {
        let pending = submitter.submit_bundle(name, path, bytes.to_vec());
        match pending.wait_for(wait_budget) {
            Some((_, Ok(FleetOutput::Bundle(bundle)))) => Ok(*bundle),
            Some((_, Ok(FleetOutput::Analysis(_)))) => {
                Err("fleet returned an analysis for a bundle unit".to_string())
            }
            Some((_, Err(failure))) => Err(format!(
                "fleet offload failed after {} attempt(s): {}",
                failure.attempts.max(1),
                failure.message
            )),
            None => Err(format!(
                "fleet offload timed out after {wait_budget:?} (no live agents, or the fleet \
                 is saturated); the unit was abandoned — retry once agents are connected"
            )),
        }
    })
}
