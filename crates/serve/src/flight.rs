//! Single-flight deduplication of analyze-on-miss work.
//!
//! N concurrent cold requests for the same store key must run exactly
//! one `derive_bundle`, not N: the analysis is seconds of CPU while a
//! pod launch storms the daemon with identical requests. The table maps
//! each in-flight key to a [`Flight`] slot; the first requester becomes
//! the **leader** (and receives a [`LeaderGuard`] it must complete),
//! every later requester for the same key becomes a **follower** that
//! blocks on the slot's condvar and shares the leader's result.
//!
//! Panic safety is the point of the guard: if the leader's analysis
//! panics, the guard's `Drop` runs during unwinding, publishes an
//! in-band error to every follower, and removes the slot — followers
//! get an error reply instead of hanging forever on a condvar nobody
//! will ever signal. The leader's own connection still dies by panic
//! (the worker pool's `catch_unwind` counts it), exactly as before.

use crate::store::StoredBundle;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// What a flight resolves to: the leader's store entry — bundle and
/// encoded bytes, shared, so a follower's reply splices the same bytes
/// as the leader's — or the in-band error message every follower relays.
pub(crate) type FlightResult = Result<StoredBundle, String>;

struct Flight {
    /// `None` while the leader is working; `Some` once published.
    result: Mutex<Option<FlightResult>>,
    done: Condvar,
}

/// The in-flight table: store key → flight slot.
#[derive(Default)]
pub(crate) struct FlightTable {
    inner: Mutex<HashMap<String, Arc<Flight>>>,
}

/// The role [`FlightTable::join`] assigned to a requester.
pub(crate) enum Ticket<'a> {
    /// First requester for the key: run the analysis, then
    /// [`LeaderGuard::complete`] with the outcome.
    Leader(LeaderGuard<'a>),
    /// A later requester: the leader's published result, after blocking.
    Follower(FlightResult),
}

impl FlightTable {
    /// Joins the flight for `key`: becomes the leader when no flight is
    /// running, otherwise blocks until the running leader publishes and
    /// returns its result.
    pub(crate) fn join(&self, key: &str) -> Ticket<'_> {
        let flight = {
            let mut inner = self.inner.lock().expect("flight table lock");
            match inner.get(key) {
                Some(flight) => Arc::clone(flight),
                None => {
                    let flight = Arc::new(Flight {
                        result: Mutex::new(None),
                        done: Condvar::new(),
                    });
                    inner.insert(key.to_string(), Arc::clone(&flight));
                    return Ticket::Leader(LeaderGuard {
                        table: self,
                        key: key.to_string(),
                        flight,
                        published: false,
                    });
                }
            }
        };
        let mut result = flight.result.lock().expect("flight lock");
        while result.is_none() {
            result = flight.done.wait(result).expect("flight wait");
        }
        Ticket::Follower(result.clone().expect("published result"))
    }

    /// Number of keys currently in flight (diagnostics/tests).
    #[cfg(test)]
    fn in_flight(&self) -> usize {
        self.inner.lock().expect("flight table lock").len()
    }
}

/// Proof of leadership for one key. Must be [`LeaderGuard::complete`]d;
/// dropping it un-completed (i.e. unwinding out of the analysis)
/// publishes a panic error to every follower.
pub(crate) struct LeaderGuard<'a> {
    table: &'a FlightTable,
    key: String,
    flight: Arc<Flight>,
    published: bool,
}

impl LeaderGuard<'_> {
    /// Publishes the leader's outcome to every follower and retires the
    /// flight (the next request for this key starts fresh — by then a
    /// successful analysis is in the store).
    pub(crate) fn complete(mut self, result: FlightResult) {
        self.publish(result);
    }

    fn publish(&mut self, result: FlightResult) {
        self.published = true;
        // Retire the slot first: a requester arriving after this point
        // starts a new flight (and will hit the store if we succeeded).
        self.table
            .inner
            .lock()
            .expect("flight table lock")
            .remove(&self.key);
        let mut slot = self.flight.result.lock().expect("flight lock");
        *slot = Some(result);
        self.flight.done.notify_all();
    }
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.publish(Err(format!(
                "analysis for key {} panicked in the serving daemon",
                self.key
            )));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PolicyBundle;
    use bside_filter::bpf::BpfProgram;
    use bside_filter::{FilterPolicy, PhasePolicy};
    use bside_syscalls::SyscallSet;

    fn bundle() -> StoredBundle {
        let allowed = SyscallSet::new();
        let policy = FilterPolicy::allow_only("t", allowed);
        let bpf = BpfProgram::from_policy(&policy);
        StoredBundle::encode(PolicyBundle {
            binary: "t".to_string(),
            policy,
            phases: PhasePolicy {
                binary: "t".to_string(),
                phases: vec![allowed],
                transitions: vec![vec![]],
                initial: 0,
            },
            bpf,
        })
        .expect("encodes")
    }

    #[test]
    fn followers_share_the_leaders_result() {
        let table = Arc::new(FlightTable::default());
        let Ticket::Leader(guard) = table.join("k") else {
            panic!("first join must lead");
        };
        let followers: Vec<_> = (0..4)
            .map(|_| {
                let table = Arc::clone(&table);
                std::thread::spawn(move || match table.join("k") {
                    Ticket::Follower(result) => result,
                    Ticket::Leader(_) => panic!("flight already has a leader"),
                })
            })
            .collect();
        // Give the followers time to block before publishing.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let entry = bundle();
        guard.complete(Ok(entry.clone()));
        for follower in followers {
            let shared = follower
                .join()
                .expect("follower thread")
                .expect("shared ok");
            assert!(
                Arc::ptr_eq(&shared.json, &entry.json),
                "followers share the leader's encoded bytes, not a copy"
            );
        }
        assert_eq!(table.in_flight(), 0, "completed flight is retired");
    }

    #[test]
    fn dropping_the_guard_fails_followers_in_band() {
        let table = Arc::new(FlightTable::default());
        let guard = match table.join("k") {
            Ticket::Leader(guard) => guard,
            Ticket::Follower(_) => panic!("first join must lead"),
        };
        let follower = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || match table.join("k") {
                Ticket::Follower(result) => result,
                Ticket::Leader(_) => panic!("flight already has a leader"),
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(guard); // simulates the leader unwinding
        let err = follower
            .join()
            .expect("follower thread")
            .expect_err("panic propagates in band");
        assert!(err.contains("panicked"), "got: {err}");
        assert_eq!(table.in_flight(), 0);
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let table = FlightTable::default();
        let a = match table.join("a") {
            Ticket::Leader(guard) => guard,
            Ticket::Follower(_) => panic!("a leads"),
        };
        let b = match table.join("b") {
            Ticket::Leader(guard) => guard,
            Ticket::Follower(_) => panic!("b leads independently"),
        };
        b.complete(Ok(bundle()));
        a.complete(Err("boom".to_string()));
        // Both retired; a fresh join leads again.
        assert!(matches!(table.join("a"), Ticket::Leader(_)));
    }
}
