//! The agent registration table.
//!
//! Every agent that completes the capability hello is registered here
//! for its lifetime. The table is the coordinator's single source of
//! truth about the fleet: the reaper walks it to enforce unit deadlines,
//! shutdown walks it to say goodbye, and operators read it through
//! [`AgentSnapshot`]s. Death is one-way and idempotent —
//! [`AgentState::mark_dead`] severs the socket, fails every in-flight
//! dispatch, and flips the liveness flag exactly once, no matter how
//! many observers (reader EOF, heartbeat silence, deadline reaper,
//! shutdown) race to report it.

use crate::queue::UnitSlot;
use bside_dist::{Conn, FailureKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// How a dispatched unit came back to its dispatcher.
#[derive(Debug)]
pub(crate) enum SlotReply {
    /// The agent answered (routed by id from the reader thread).
    Message(crate::protocol::FromAgent),
    /// The agent was declared dead while the unit was outstanding.
    Lost(FailureKind),
}

/// A per-dispatch rendezvous between the dispatcher (waits) and the
/// reader/reaper (fills).
#[derive(Default)]
pub(crate) struct ReplySlot {
    state: Mutex<Option<SlotReply>>,
    cond: Condvar,
}

impl ReplySlot {
    pub(crate) fn fill(&self, reply: SlotReply) {
        let mut state = self.state.lock().expect("reply slot lock");
        // First writer wins: a reader's routed answer and the reaper's
        // death notice can race; the dispatcher acts on whichever landed.
        if state.is_none() {
            *state = Some(reply);
            self.cond.notify_all();
        }
    }

    pub(crate) fn wait(&self) -> SlotReply {
        let mut state = self.state.lock().expect("reply slot lock");
        loop {
            if let Some(reply) = state.take() {
                return reply;
            }
            state = self.cond.wait(state).expect("reply slot wait");
        }
    }
}

/// One outstanding dispatch on an agent connection.
pub(crate) struct Pending {
    pub reply: Arc<ReplySlot>,
    /// When the unit's wall-clock budget expires (reaper-enforced).
    pub deadline: Instant,
    /// The unit's completion slot — not used here, but keeping the Arc
    /// alive documents ownership: a pending dispatch pins its unit.
    pub _unit_done: Arc<UnitSlot>,
}

/// Downlink sealing state of one secured agent connection: the session
/// key plus the coordinator's own strictly-increasing frame sequence.
/// The number is assigned **under the writer lock** (see
/// `coordinator::send_to_agent`), so sequence order always matches
/// stream order and the agent's monotonic policy never trips.
pub(crate) struct DownlinkSeal {
    pub key: [u8; 32],
    pub next_seq: AtomicU64,
}

/// One registered agent connection.
pub(crate) struct AgentState {
    pub id: u64,
    pub addr: String,
    pub slots: usize,
    /// `Some` on a secured fleet: every post-welcome frame to this agent
    /// is wrapped in a [`crate::protocol::ToAgent::Sealed`] envelope.
    pub seal: Option<DownlinkSeal>,
    /// The write half every dispatcher and the shutdown path share.
    pub writer: Mutex<Conn>,
    /// A handle used solely to sever the socket on death (all clones of
    /// a [`Conn`] observe the shutdown at once).
    pub conn: Conn,
    pub dead: AtomicBool,
    /// Outstanding dispatches by wire id.
    pub pending: Mutex<HashMap<u64, Pending>>,
    pub completed: AtomicU64,
    /// This agent's answer-latency distribution,
    /// `bside_fleet_unit_duration_us{agent=…}` in the coordinator's
    /// telemetry registry — what a work-stealing scheduler would consume.
    pub unit_duration: Arc<bside_obs::Histogram>,
}

impl AgentState {
    /// Declares the agent dead: severs the socket (unblocking its reader
    /// thread wherever it is) and fails every outstanding dispatch with
    /// `kind`. `on_sever` runs only if this call was the one that did it,
    /// before any dispatcher wakes.
    pub(crate) fn mark_dead(&self, kind: FailureKind, on_sever: impl FnOnce()) {
        self.sever(|_| kind, on_sever);
    }

    /// Severs the agent if any outstanding dispatch is past its
    /// deadline: those fail as [`FailureKind::Timeout`], everything else
    /// it held as a lost attempt; `on_sever` runs as in
    /// [`Self::mark_dead`].
    /// The agent is dead before any dispatcher wakes, so a requeued unit
    /// can never be shipped back to the agent that just hung on it.
    pub(crate) fn expire_deadlines(&self, now: Instant, on_sever: impl FnOnce()) {
        let expired = |p: &Pending| now >= p.deadline;
        let any = self
            .pending
            .lock()
            .expect("pending lock")
            .values()
            .any(expired);
        if any {
            self.sever(
                |p| {
                    if expired(p) {
                        FailureKind::Timeout
                    } else {
                        FailureKind::WorkerCrash
                    }
                },
                on_sever,
            );
        }
    }

    fn sever(&self, kind_of: impl Fn(&Pending) -> FailureKind, on_sever: impl FnOnce()) {
        if self.dead.swap(true, Ordering::SeqCst) {
            return;
        }
        // Before the drain below wakes dispatchers: a unit whose last
        // attempt dies with this agent can end the run, and the loss must
        // already be visible to whoever reads the stats then.
        on_sever();
        let _ = self.conn.shutdown_both();
        let drained: Vec<Pending> = {
            let mut pending = self.pending.lock().expect("pending lock");
            pending.drain().map(|(_, p)| p).collect()
        };
        for p in drained {
            p.reply.fill(SlotReply::Lost(kind_of(&p)));
        }
    }

    /// Registers an outstanding dispatch. Returns `false` when the agent
    /// is already dead — the caller must not ship the unit (it hands it
    /// straight back to the queue, no attempt spent). The dead flag and
    /// the pending map are checked and updated under one lock, pairing
    /// with the drain in [`Self::mark_dead`], so a dispatch can never be
    /// registered after the drain and then wait on a slot nobody fills.
    pub(crate) fn register_dispatch(&self, seq: u64, pending: Pending) -> bool {
        let mut map = self.pending.lock().expect("pending lock");
        if self.dead.load(Ordering::SeqCst) {
            return false;
        }
        map.insert(seq, pending);
        true
    }

    /// Routes an answered id to its waiting dispatcher. An unknown id is
    /// ignored (defensively: a correctly functioning agent can only
    /// answer ids it was sent and has not answered yet).
    pub(crate) fn route_reply(&self, seq: u64, message: crate::protocol::FromAgent) {
        let taken = {
            let mut map = self.pending.lock().expect("pending lock");
            map.remove(&seq)
        };
        if let Some(p) = taken {
            p.reply.fill(SlotReply::Message(message));
        }
    }

    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }
}

/// A point-in-time view of one agent, for operators and tests.
#[derive(Debug, Clone)]
pub struct AgentSnapshot {
    /// Coordinator-assigned agent id (registration order).
    pub id: u64,
    /// The peer address the agent dialed from.
    pub addr: String,
    /// The slot count the agent announced in its hello.
    pub slots: usize,
    /// Units currently outstanding on the connection.
    pub in_flight: usize,
    /// Units this agent completed (results and in-band unit errors).
    pub completed: u64,
    /// `false` once the agent was declared dead or said goodbye.
    pub alive: bool,
}

/// The fleet-wide registration table.
#[derive(Default)]
pub(crate) struct Registry {
    agents: Mutex<Vec<Arc<AgentState>>>,
    next_id: AtomicU64,
    pub joined_total: AtomicU64,
    pub lost_total: AtomicU64,
}

impl Registry {
    pub(crate) fn register(
        &self,
        addr: String,
        slots: usize,
        conn: Conn,
        writer: Conn,
        session_key: Option<[u8; 32]>,
        unit_duration: Arc<bside_obs::Histogram>,
    ) -> Arc<AgentState> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let agent = Arc::new(AgentState {
            id,
            addr,
            slots,
            seal: session_key.map(|key| DownlinkSeal {
                key,
                next_seq: AtomicU64::new(1),
            }),
            writer: Mutex::new(writer),
            conn,
            dead: AtomicBool::new(false),
            pending: Mutex::new(HashMap::new()),
            completed: AtomicU64::new(0),
            unit_duration,
        });
        self.agents
            .lock()
            .expect("registry lock")
            .push(Arc::clone(&agent));
        // Counted only once listed: an observer that sees the count move
        // finds the agent in the table (or already gone).
        self.joined_total.fetch_add(1, Ordering::SeqCst);
        agent
    }

    /// Every currently registered agent (sessions still running —
    /// finished sessions unregister themselves via [`Registry::remove`]).
    pub(crate) fn agents(&self) -> Vec<Arc<AgentState>> {
        self.agents.lock().expect("registry lock").clone()
    }

    /// Unregisters a finished session's agent so a long-lived
    /// coordinator (e.g. inside `bside serve --fleet`) does not
    /// accumulate dead-agent state — sockets, pending maps — across
    /// months of agent churn. The lifetime counters (`joined_total`,
    /// `lost_total`) survive removal.
    pub(crate) fn remove(&self, id: u64) {
        self.agents
            .lock()
            .expect("registry lock")
            .retain(|a| a.id != id);
    }

    pub(crate) fn snapshots(&self) -> Vec<AgentSnapshot> {
        self.agents()
            .iter()
            .map(|a| AgentSnapshot {
                id: a.id,
                addr: a.addr.clone(),
                slots: a.slots,
                in_flight: a.pending.lock().expect("pending lock").len(),
                completed: a.completed.load(Ordering::Relaxed),
                alive: !a.is_dead(),
            })
            .collect()
    }

    /// Live agents only.
    pub(crate) fn alive(&self) -> Vec<Arc<AgentState>> {
        self.agents().into_iter().filter(|a| !a.is_dead()).collect()
    }
}
