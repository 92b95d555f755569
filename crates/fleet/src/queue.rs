//! The corpus engine's pull queue and per-unit completion slots.
//!
//! A fleet coordinator is a long-lived service — corpus runs *and*
//! serve-daemon offload submit units while it runs — so this queue is
//! open-ended: [`FleetQueue::pull`] blocks until a unit arrives or the
//! coordinator shuts down, and each unit carries its own completion
//! slot ([`UnitSlot`]) the submitter waits on. Agents pull instead of
//! being assigned shards, so a slow binary occupies exactly one slot.
//! Retry accounting rides the unit: its attempt counter travels with
//! it, and the budget is enforced at requeue time.

use crate::protocol::Want;
use bside_core::BinaryAnalysis;
use bside_dist::{PolicyBundle, UnitFailure};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// What a completed unit resolves to.
#[derive(Debug)]
pub(crate) enum UnitOutput {
    /// A [`Want::Analysis`] unit's payload.
    Analysis(Box<BinaryAnalysis>),
    /// A [`Want::Bundle`] unit's payload.
    Bundle(Box<PolicyBundle>),
}

/// The terminal record of one unit: attempts spent and the outcome.
#[derive(Debug)]
pub(crate) struct UnitDone {
    pub attempts: u32,
    pub result: Result<UnitOutput, UnitFailure>,
}

/// A one-shot rendezvous the submitter blocks on until the unit reaches
/// a terminal state (success, or permanent failure after the retry
/// budget).
#[derive(Default)]
pub(crate) struct UnitSlot {
    state: Mutex<Option<UnitDone>>,
    cond: Condvar,
}

impl UnitSlot {
    /// Publishes the terminal outcome; called exactly once per unit.
    pub(crate) fn finish(&self, done: UnitDone) {
        let mut state = self.state.lock().expect("unit slot lock");
        debug_assert!(state.is_none(), "unit completed twice");
        *state = Some(done);
        self.cond.notify_all();
    }

    /// Blocks until the unit is terminal and takes the outcome.
    pub(crate) fn wait(&self) -> UnitDone {
        let mut state = self.state.lock().expect("unit slot lock");
        loop {
            if let Some(done) = state.take() {
                return done;
            }
            state = self.cond.wait(state).expect("unit slot wait");
        }
    }

    /// [`UnitSlot::wait`] with a budget: `None` when the unit is still
    /// not terminal at the deadline (the caller abandons it). A late
    /// `finish` into an abandoned slot is harmless — nobody takes it.
    pub(crate) fn wait_for(&self, budget: std::time::Duration) -> Option<UnitDone> {
        let deadline = std::time::Instant::now() + budget;
        let mut state = self.state.lock().expect("unit slot lock");
        loop {
            if let Some(done) = state.take() {
                return Some(done);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _) = self
                .cond
                .wait_timeout(state, deadline - now)
                .expect("unit slot wait");
            state = next;
        }
    }
}

/// One unit of fleet work: analyze one in-band binary image.
#[derive(Clone)]
pub(crate) struct FleetUnit {
    /// Coordinator-wide dispatch sequence number (the wire `id`).
    pub seq: u64,
    /// Display name.
    pub name: String,
    /// Display-only origin path, for byte-identical error messages.
    pub path: String,
    /// The ELF image, shared across retries without copying.
    pub bytes: Arc<Vec<u8>>,
    /// What the submitter wants back.
    pub want: Want,
    /// Attempts already spent (0 on first dispatch).
    pub attempts: u32,
    /// Where the terminal outcome lands.
    pub done: Arc<UnitSlot>,
    /// Set when the submitter gave up waiting (a bounded
    /// [`UnitSlot::wait_for`] expired): dispatchers drop the unit
    /// instead of shipping work nobody will collect.
    pub abandoned: Arc<std::sync::atomic::AtomicBool>,
    /// The submitter's trace context (captured at submission, unit id
    /// stamped in) — where this unit's dispatch span hangs in the
    /// cross-machine trace. `None` when the submitter had none.
    pub trace: Option<bside_obs::TraceContext>,
}

struct QueueState {
    pending: VecDeque<FleetUnit>,
    closed: bool,
}

/// The open-ended blocking work queue agents' dispatcher threads pull
/// from.
pub(crate) struct FleetQueue {
    state: Mutex<QueueState>,
    cond: Condvar,
    max_attempts: u32,
}

impl FleetQueue {
    pub(crate) fn new(max_attempts: u32) -> Self {
        FleetQueue {
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
            max_attempts: max_attempts.max(1),
        }
    }

    /// Enqueues a fresh submission. Returns `false` (without enqueueing)
    /// when the queue is already closed — the caller fails the unit.
    pub(crate) fn push(&self, unit: FleetUnit) -> bool {
        let mut state = self.state.lock().expect("fleet queue lock");
        if state.closed {
            return false;
        }
        state.pending.push_back(unit);
        self.cond.notify_one();
        true
    }

    /// Takes the next unit, blocking while the queue is empty and open.
    /// Returns `None` once the queue is closed, or once `stop` turns
    /// true (checked in short slices, so a dispatcher whose agent died
    /// drains out promptly instead of blocking until the next
    /// submission). Abandoned units are discarded in passing — their
    /// submitter already gave up. There is no in-flight bookkeeping:
    /// completion is per-unit via [`UnitSlot`], and the queue outlives
    /// any individual run.
    pub(crate) fn pull(&self, stop: &std::sync::atomic::AtomicBool) -> Option<FleetUnit> {
        use std::sync::atomic::Ordering;
        let mut state = self.state.lock().expect("fleet queue lock");
        loop {
            while let Some(unit) = state.pending.pop_front() {
                if !unit.abandoned.load(Ordering::SeqCst) {
                    return Some(unit);
                }
            }
            if state.closed || stop.load(Ordering::SeqCst) {
                return None;
            }
            let (next, _) = self
                .cond
                .wait_timeout(state, std::time::Duration::from_millis(250))
                .expect("fleet queue lock");
            state = next;
        }
    }

    /// Returns a pulled-but-undispatched unit to the front of the queue
    /// without spending an attempt (the dispatcher's agent died before
    /// the unit ever reached it). On a closed queue the unit is handed
    /// back for the caller to fail.
    pub(crate) fn put_back(&self, unit: FleetUnit) -> Option<FleetUnit> {
        let mut state = self.state.lock().expect("fleet queue lock");
        if state.closed {
            return Some(unit);
        }
        state.pending.push_front(unit);
        self.cond.notify_one();
        None
    }

    /// Requeues a lost unit for another attempt, at the back of the
    /// queue: the attempt counter rides the unit, and the budget is
    /// enforced here. Returns `false` when the budget is spent (or the
    /// queue is closed); the caller must then record the permanent
    /// failure on the unit's slot.
    pub(crate) fn retry(&self, unit: &mut FleetUnit) -> bool {
        unit.attempts += 1;
        if unit.attempts >= self.max_attempts {
            return false;
        }
        self.push(unit.clone())
    }

    /// Closes the queue: wakes every blocked dispatcher (they drain and
    /// exit) and hands back whatever was still pending so the caller can
    /// fail those units in band.
    pub(crate) fn close(&self) -> Vec<FleetUnit> {
        let mut state = self.state.lock().expect("fleet queue lock");
        state.closed = true;
        self.cond.notify_all();
        state.pending.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bside_dist::FailureKind;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn unit(seq: u64) -> FleetUnit {
        FleetUnit {
            seq,
            name: format!("u{seq}"),
            path: format!("/corpus/u{seq}.elf"),
            bytes: Arc::new(vec![1, 2, 3]),
            want: Want::Analysis,
            attempts: 0,
            done: Arc::new(UnitSlot::default()),
            abandoned: Arc::new(AtomicBool::new(false)),
            trace: None,
        }
    }

    fn live() -> AtomicBool {
        AtomicBool::new(false)
    }

    #[test]
    fn pull_blocks_until_push_and_drains_on_close() {
        let q = Arc::new(FleetQueue::new(2));
        let puller = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let stop = live();
                let first = q.pull(&stop).expect("unit arrives");
                assert_eq!(first.seq, 1);
                q.pull(&stop).is_none()
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(q.push(unit(1)));
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(q.close().is_empty());
        assert!(puller.join().expect("puller"), "close drains the puller");
        assert!(!q.push(unit(2)), "closed queue refuses submissions");
    }

    #[test]
    fn drains_in_order_and_terminates() {
        let q = FleetQueue::new(2);
        let stop = live();
        for seq in 0..5 {
            assert!(q.push(unit(seq)));
        }
        for expect in 0..5 {
            assert_eq!(q.pull(&stop).expect("unit available").seq, expect);
        }
        assert!(q.close().is_empty());
        assert!(q.pull(&stop).is_none());
        assert!(q.pull(&stop).is_none(), "terminal state is sticky");
    }

    #[test]
    fn retry_requeues_until_budget_spent() {
        let q = FleetQueue::new(3);
        let stop = live();
        assert!(q.push(unit(0)));
        assert!(q.push(unit(1)));
        let mut u = q.pull(&stop).unwrap();
        assert!(q.retry(&mut u), "first failure requeues");
        assert_eq!(
            q.pull(&stop).unwrap().seq,
            1,
            "a retry queues behind fresh work"
        );
        let mut u = q.pull(&stop).unwrap();
        assert_eq!((u.seq, u.attempts), (0, 1));
        assert!(q.retry(&mut u), "second failure still within budget");
        let mut u = q.pull(&stop).unwrap();
        assert!(!q.retry(&mut u), "third failure exhausts the budget");
        assert_eq!(u.attempts, 3);
    }

    #[test]
    fn pull_blocks_across_inflight_retries() {
        // Two consumers over one unit that fails once: whichever did not
        // take it stays blocked in `pull` and must be woken by the
        // requeue instead of missing it.
        let q = FleetQueue::new(2);
        let processed = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let stop = live();
                    while let Some(mut u) = q.pull(&stop) {
                        if u.attempts == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(10));
                            assert!(q.retry(&mut u));
                        } else {
                            processed.fetch_add(1, Ordering::Relaxed);
                            q.close();
                        }
                    }
                });
            }
            assert!(q.push(unit(0)));
        });
        assert_eq!(processed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pull_drains_out_when_its_stop_flag_turns() {
        let q = Arc::new(FleetQueue::new(2));
        let stop = Arc::new(AtomicBool::new(false));
        let puller = {
            let q = Arc::clone(&q);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || q.pull(&stop).is_none())
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        stop.store(true, Ordering::SeqCst);
        assert!(
            puller.join().expect("puller"),
            "a stopped puller drains without a close or a push"
        );
    }

    #[test]
    fn abandoned_units_are_discarded_in_passing() {
        let q = FleetQueue::new(2);
        let ghost = unit(0);
        ghost.abandoned.store(true, Ordering::SeqCst);
        assert!(q.push(ghost));
        assert!(q.push(unit(1)));
        let stop = live();
        assert_eq!(
            q.pull(&stop).expect("live unit").seq,
            1,
            "the abandoned unit is skipped, not dispatched"
        );
    }

    #[test]
    fn retry_respects_the_budget_and_put_back_does_not_spend_attempts() {
        let q = FleetQueue::new(2);
        let stop = live();
        assert!(q.push(unit(0)));
        let u = q.pull(&stop).expect("unit");
        assert!(q.put_back(u).is_none(), "put_back requeues");
        let mut u = q.pull(&stop).expect("unit again");
        assert_eq!(u.attempts, 0, "put_back spent no attempt");
        assert!(q.retry(&mut u), "first failure requeues");
        let mut u = q.pull(&stop).expect("retried unit");
        assert_eq!(u.attempts, 1);
        assert!(!q.retry(&mut u), "budget spent");
    }

    #[test]
    fn close_returns_pending_units_for_the_caller_to_fail() {
        let q = FleetQueue::new(2);
        assert!(q.push(unit(7)));
        let orphans = q.close();
        assert_eq!(orphans.len(), 1);
        orphans[0].done.finish(UnitDone {
            attempts: 0,
            result: Err(UnitFailure {
                kind: FailureKind::WorkerCrash,
                message: "shut down".to_string(),
                attempts: 0,
            }),
        });
        let done = orphans[0].done.wait();
        assert!(done.result.is_err());
    }

    #[test]
    fn unit_slot_is_a_one_shot_rendezvous() {
        let slot = Arc::new(UnitSlot::default());
        let waiter = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || slot.wait())
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        slot.finish(UnitDone {
            attempts: 1,
            result: Err(UnitFailure {
                kind: FailureKind::Timeout,
                message: "deadline".to_string(),
                attempts: 1,
            }),
        });
        let done = waiter.join().expect("waiter");
        assert_eq!(done.attempts, 1);
    }
}
