//! The content-addressed policy store.
//!
//! Keyed by exactly the `bside_dist::cache` scheme —
//! `SHA-256(elf bytes ‖ 0x00 ‖ semantic-options fingerprint)` — so a
//! policy's address is stable across daemons, machines, and worker
//! counts, and a store directory can be pre-populated by a batch corpus
//! run and then served read-mostly. Dynamically linked binaries extend
//! the key with a **library-set fingerprint** (the SHA-256 of every
//! loaded shared interface, see [`library_fingerprint`]): re-analyzing a
//! library yields new interfaces, hence new keys, hence no stale bundles.
//! Values are [`PolicyBundle`]s in the `bside_filter::wire` JSON.
//!
//! Two layers:
//!
//! * an **in-memory map** of entries, each an `Arc<PolicyBundle>` next to
//!   the bundle's compact JSON, encoded once — at insert, or when a disk
//!   entry is promoted. A bundle is immutable under its content address,
//!   so those bytes stay valid for the entry's lifetime: the daemon
//!   splices them into every policy reply instead of re-encoding, and a
//!   loaded daemon answers without touching disk or re-parsing JSON;
//! * an optional **directory** of `<key>.policy.json` entries written
//!   atomically (temp file + rename), shared safely between concurrent
//!   daemons and surviving restarts. A corrupt or truncated entry reads
//!   as a miss, never as an error — the daemon re-analyzes and rewrites.
//!
//! The store also owns the daemon's **generation counter**: a per-process
//! strictly monotonic `u64` bumped by every mutation ([`PolicyStore::insert`],
//! [`PolicyStore::invalidate`]) — the push half of the `watch` protocol,
//! so long-lived enforcement agents learn about re-analyzed binaries
//! without polling. Generations are not persisted: a restarted daemon
//! starts at 0 and clients re-anchor from the `hello` they receive on
//! (re)connect.
//!
//! Two notification surfaces share that counter:
//!
//! * **blocking** — [`PolicyStore::wait_newer`] parks the calling thread
//!   on a condvar until the generation moves (used by embedders and
//!   tests that own a thread per waiter);
//! * **subscription** — [`PolicyStore::subscribe`] registers a token,
//!   optionally scoped to one store key, and every mutation moves the
//!   affected tokens onto a fired list ([`PolicyStore::take_fired`]) and
//!   rings the registered waker. This is the event-loop half: thousands
//!   of parked `watch` connections cost one map entry each, a mutation
//!   of key *k* wakes exactly *k*'s subscribers (plus keyless,
//!   whole-store subscribers), and nothing polls. The per-key
//!   last-mutation index (`key_gens`) makes subscription atomic against
//!   a racing mutation: a key mutated after the subscriber's anchor is
//!   reported `Ready` immediately rather than being lost.

use crate::protocol::PolicyBundle;
use bside_core::{AnalyzerOptions, LibraryStore};
use bside_dist::cache::{options_fingerprint, sha256_hex};
use bside_dist::ResultCache;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A concurrent policy store: in-memory map over an optional directory,
/// plus the daemon's monotonic generation counter.
#[derive(Debug)]
pub struct PolicyStore {
    dir: Option<PathBuf>,
    mem: Mutex<HashMap<String, StoredBundle>>,
    /// Generation counter plus the subscription registry; one mutex so a
    /// bump, its per-key index update, and the waiter hand-off are a
    /// single atomic step (no subscribe/mutate race can lose a wakeup).
    generation: Mutex<GenState>,
    generation_cv: Condvar,
}

/// Everything guarded by the generation lock.
struct GenState {
    /// The mutation counter itself.
    value: u64,
    /// Per-key last-mutation generation. `key_gens[k] > seen` means key
    /// `k` changed after a subscriber anchored at `seen` — the check
    /// that turns a would-be lost wakeup into an immediate `Ready`.
    /// Unbounded by design: clearing entries would reintroduce the lost
    /// wakeup, and growth tracks the store's own key population.
    key_gens: HashMap<String, u64>,
    /// Parked subscriptions by caller-chosen token.
    waiters: HashMap<u64, Waiter>,
    /// Subscriptions whose condition fired, as `(token, generation at
    /// fire)`, awaiting collection via [`PolicyStore::take_fired`].
    fired: Vec<(u64, u64)>,
    /// Rung (outside the lock) whenever `fired` gains entries.
    waker: Option<Arc<dyn Fn() + Send + Sync>>,
}

#[derive(Debug)]
struct Waiter {
    /// `Some(key)` scopes the subscription to one store key; `None` is a
    /// whole-store subscription (v2 `watch` semantics). The subscriber's
    /// anchor generation is *not* kept: a parked waiter is by
    /// construction anchored at or past the current state, so any later
    /// matching mutation satisfies it.
    key: Option<String>,
}

impl std::fmt::Debug for GenState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenState")
            .field("value", &self.value)
            .field("keys", &self.key_gens.len())
            .field("waiters", &self.waiters.len())
            .field("fired", &self.fired.len())
            .field("waker", &self.waker.is_some())
            .finish()
    }
}

/// What [`PolicyStore::subscribe`] decided, atomically against mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subscribed {
    /// The anchor is ahead of the store — the subscriber's generation
    /// cannot have been issued by this process (daemon restart).
    Ahead {
        /// The store's current generation.
        current: u64,
    },
    /// The watched state already moved past the anchor; no parking
    /// needed, answer immediately with `current`.
    Ready {
        /// The generation to report to the subscriber.
        current: u64,
    },
    /// Parked: the token is registered and will appear in
    /// [`PolicyStore::take_fired`] once the condition fires.
    Parked,
}

/// One store entry: the bundle and its compact JSON, encoded once. Cheap
/// to clone (two reference counts), so single-flight followers share
/// the leader's entry rather than a copy.
#[derive(Debug, Clone)]
pub(crate) struct StoredBundle {
    /// The decoded bundle.
    pub(crate) bundle: Arc<PolicyBundle>,
    /// `serde_json::to_string(&*bundle)`: the bytes a policy reply
    /// splices in, and the bytes a directory-backed store writes.
    pub(crate) json: Arc<str>,
}

impl StoredBundle {
    /// Encodes `bundle` — the one serialization the entry ever gets.
    pub(crate) fn encode(bundle: PolicyBundle) -> std::io::Result<StoredBundle> {
        let json = serde_json::to_string(&bundle)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(StoredBundle {
            bundle: Arc::new(bundle),
            json: Arc::from(json),
        })
    }
}

/// Distinguishes concurrent writers' temp files within one process (the
/// pid alone distinguishes processes).
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl PolicyStore {
    /// Opens a store over `dir` (created if needed), or a purely
    /// in-memory store when `dir` is `None`.
    pub fn open(dir: Option<&Path>) -> std::io::Result<PolicyStore> {
        if let Some(dir) = dir {
            std::fs::create_dir_all(dir)?;
        }
        Ok(PolicyStore {
            dir: dir.map(Path::to_path_buf),
            mem: Mutex::new(HashMap::new()),
            generation: Mutex::new(GenState {
                value: 0,
                key_gens: HashMap::new(),
                waiters: HashMap::new(),
                fired: Vec::new(),
                waker: None,
            }),
            generation_cv: Condvar::new(),
        })
    }

    /// The content address of `(elf bytes, options)` for a **static**
    /// binary — delegated to the analysis cache's scheme, one key format
    /// across the workspace.
    pub fn key(elf_bytes: &[u8], options: &AnalyzerOptions) -> String {
        ResultCache::key(elf_bytes, options)
    }

    /// The content address of `(elf bytes, options, library set)`. With
    /// `lib_fingerprint == None` (a static binary, or a daemon with no
    /// libraries loaded) this is exactly [`PolicyStore::key`]; otherwise
    /// the library-set fingerprint is mixed in, so a bundle derived
    /// against one set of shared interfaces is never served for another.
    pub fn key_with_libs(
        elf_bytes: &[u8],
        options: &AnalyzerOptions,
        lib_fingerprint: Option<&str>,
    ) -> String {
        match lib_fingerprint {
            None => Self::key(elf_bytes, options),
            Some(fp) => sha256_hex(&[
                elf_bytes,
                b"\x00",
                options_fingerprint(options).as_bytes(),
                b"\x00libs:",
                fp.as_bytes(),
            ]),
        }
    }

    fn entry_path(&self, key: &str) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{key}.policy.json")))
    }

    fn sidecar_path(&self, key: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{key}.libfp")))
    }

    /// Removes every on-disk entry whose recorded library-set
    /// fingerprint differs from `current` — the startup sweep a daemon
    /// runs after loading its `--lib-dir`. Re-analyzed interfaces mean
    /// new store keys, so entries fingerprinted under the old set can
    /// never be addressed again by this daemon; without the sweep they
    /// linger until manual invalidation or eviction. Returns the number
    /// of entries removed (each also clears its in-memory copy and its
    /// sidecar). Purely in-memory stores have nothing to sweep.
    pub fn sweep_stale_lib_entries(&self, current: &str) -> usize {
        let Some(dir) = &self.dir else {
            return 0;
        };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        let mut swept_keys: Vec<String> = Vec::new();
        for entry in entries.filter_map(Result::ok) {
            let file_name = entry.file_name();
            let name = file_name.to_string_lossy();
            let Some(key) = name.strip_suffix(".libfp") else {
                continue;
            };
            let recorded = std::fs::read_to_string(entry.path()).unwrap_or_default();
            if recorded == current {
                continue;
            }
            // Same lock discipline as `invalidate`: memory and disk go
            // under one hold so a racing load cannot resurrect the
            // entry between the two removals.
            let mut mem = self.mem.lock().expect("store lock");
            if let Some(path) = self.entry_path(key) {
                if std::fs::remove_file(path).is_ok() {
                    swept_keys.push(key.to_string());
                }
            }
            mem.remove(key);
            drop(mem);
            let _ = std::fs::remove_file(entry.path());
        }
        if !swept_keys.is_empty() {
            // One bump for the whole sweep — watchers hear one mutation,
            // but every swept key's subscribers are woken.
            let keys: Vec<&str> = swept_keys.iter().map(String::as_str).collect();
            self.bump_keys(&keys);
        }
        swept_keys.len()
    }

    /// The current generation: the number of mutations this process's
    /// store has performed. Strictly monotonic; starts at 0.
    pub fn generation(&self) -> u64 {
        self.generation.lock().expect("generation lock").value
    }

    /// Bumps the generation **once** for a mutation touching `keys`,
    /// records each key's last-mutation generation, moves every affected
    /// subscription (matching keyed ones plus all keyless ones) onto the
    /// fired list, and wakes blocking waiters. Returns the new value,
    /// unique to this mutation. The registered waker, if any, is rung
    /// after the lock is released.
    fn bump_keys(&self, keys: &[&str]) -> u64 {
        let (now, waker) = {
            let mut state = self.generation.lock().expect("generation lock");
            state.value += 1;
            let now = state.value;
            for key in keys {
                state.key_gens.insert((*key).to_string(), now);
            }
            let ripe: Vec<u64> = state
                .waiters
                .iter()
                .filter(|(_, w)| match &w.key {
                    None => true,
                    Some(k) => keys.iter().any(|mutated| mutated == k),
                })
                .map(|(token, _)| *token)
                .collect();
            for token in ripe {
                state.waiters.remove(&token);
                state.fired.push((token, now));
            }
            let waker = if state.fired.is_empty() {
                None
            } else {
                state.waker.clone()
            };
            self.generation_cv.notify_all();
            (now, waker)
        };
        if let Some(waker) = waker {
            waker();
        }
        now
    }

    /// Blocks until the generation exceeds `than` or `timeout` expires;
    /// returns the generation observed at wakeup. The thread-per-waiter
    /// counterpart to [`PolicyStore::subscribe`]; kept for embedders and
    /// tests that own a thread per waiter.
    pub fn wait_newer(&self, than: u64, timeout: Duration) -> u64 {
        let state = self.generation.lock().expect("generation lock");
        let (state, _) = self
            .generation_cv
            .wait_timeout_while(state, timeout, |s| s.value <= than)
            .expect("generation wait");
        state.value
    }

    /// Registers interest in mutations after `seen`, scoped to `key`
    /// when given, under the caller-chosen `token`. Decided atomically
    /// against concurrent mutations:
    ///
    /// * `seen` ahead of the store → [`Subscribed::Ahead`] (stale anchor
    ///   from a previous daemon incarnation — the caller should error);
    /// * the watched state already moved past `seen` (for a keyed
    ///   subscription: that key was last mutated after `seen`; keyless:
    ///   any mutation after `seen`) → [`Subscribed::Ready`] — answer now,
    ///   nothing was lost;
    /// * otherwise the token parks and will surface through
    ///   [`PolicyStore::take_fired`] exactly when the condition fires.
    pub fn subscribe(&self, token: u64, key: Option<&str>, seen: u64) -> Subscribed {
        let mut state = self.generation.lock().expect("generation lock");
        if seen > state.value {
            return Subscribed::Ahead {
                current: state.value,
            };
        }
        let already = match key {
            Some(k) => state.key_gens.get(k).copied().unwrap_or(0) > seen,
            None => state.value > seen,
        };
        if already {
            return Subscribed::Ready {
                current: state.value,
            };
        }
        state.waiters.insert(
            token,
            Waiter {
                key: key.map(str::to_string),
            },
        );
        Subscribed::Parked
    }

    /// Drops the subscription under `token` (parked or already fired but
    /// uncollected). Returns whether anything was removed. Called when a
    /// watching connection goes away before its condition fires.
    pub fn unsubscribe(&self, token: u64) -> bool {
        let mut state = self.generation.lock().expect("generation lock");
        let parked = state.waiters.remove(&token).is_some();
        let before = state.fired.len();
        state.fired.retain(|(t, _)| *t != token);
        parked || state.fired.len() != before
    }

    /// Takes the fired subscriptions accumulated since the last call, as
    /// `(token, generation at fire)` pairs in firing order.
    pub fn take_fired(&self) -> Vec<(u64, u64)> {
        let mut state = self.generation.lock().expect("generation lock");
        std::mem::take(&mut state.fired)
    }

    /// Installs the waker rung (outside the generation lock) whenever a
    /// mutation moves subscriptions onto the fired list — how the serve
    /// event loop learns a parked `watch` is ready without polling.
    pub fn set_waker(&self, waker: Arc<dyn Fn() + Send + Sync>) {
        self.generation.lock().expect("generation lock").waker = Some(waker);
    }

    /// Loads the bundle under `key`: memory first, then disk (promoting
    /// a disk hit into memory). Corrupt entries are a miss.
    pub fn load(&self, key: &str) -> Option<Arc<PolicyBundle>> {
        self.load_stored(key).map(|stored| stored.bundle)
    }

    /// The in-memory entry under `key`, if any — never touches disk. The
    /// serve loop answers from this alone; anything it misses goes to a
    /// worker and [`PolicyStore::load_stored`].
    pub(crate) fn cached(&self, key: &str) -> Option<StoredBundle> {
        self.mem.lock().expect("store lock").get(key).cloned()
    }

    /// [`PolicyStore::load`] with the entry's encoded bytes. A promoted
    /// disk entry is re-encoded, so whatever formatting the file has
    /// (pretty-printed by hand, written by an older daemon) never
    /// reaches the wire.
    ///
    /// The disk promotion happens *under the memory lock*: releasing it
    /// between the disk read and the memory insert would let a
    /// concurrent [`PolicyStore::invalidate`] (mem remove, then disk
    /// remove) interleave so the stale bundle is re-inserted after the
    /// invalidation completed — resurrecting an entry the daemon just
    /// acknowledged as removed, forever. Holding the lock makes the two
    /// orders both correct: either the invalidation ran first (the disk
    /// file is gone, this is a miss) or it runs after (and removes the
    /// freshly promoted entry). Promotion is once per key per process,
    /// so the lock is not held across disk I/O on any steady-state path.
    pub(crate) fn load_stored(&self, key: &str) -> Option<StoredBundle> {
        let mut mem = self.mem.lock().expect("store lock");
        if let Some(hit) = mem.get(key) {
            return Some(hit.clone());
        }
        let path = self.entry_path(key)?;
        let text = std::fs::read_to_string(path).ok()?;
        let bundle: PolicyBundle = serde_json::from_str(&text).ok()?;
        let stored = StoredBundle::encode(bundle).ok()?;
        mem.insert(key.to_string(), stored.clone());
        Some(stored)
    }

    /// Stores `bundle` under `key` in memory and (when directory-backed)
    /// on disk via write-then-rename, so a concurrent reader never sees
    /// a partial entry. Returns the shared handle and the generation the
    /// insert landed at.
    pub fn insert(
        &self,
        key: &str,
        bundle: PolicyBundle,
    ) -> std::io::Result<(Arc<PolicyBundle>, u64)> {
        self.insert_with_libs(key, bundle, None)
    }

    /// [`PolicyStore::insert`] for a bundle whose key folds in a
    /// library-set fingerprint. The fingerprint is recorded in a
    /// `<key>.libfp` sidecar next to the entry, which is what lets a
    /// restarted daemon recognize — and proactively sweep — entries
    /// derived against shared interfaces it no longer serves (see
    /// [`PolicyStore::sweep_stale_lib_entries`]).
    pub fn insert_with_libs(
        &self,
        key: &str,
        bundle: PolicyBundle,
        lib_fingerprint: Option<&str>,
    ) -> std::io::Result<(Arc<PolicyBundle>, u64)> {
        let stored = StoredBundle::encode(bundle)?;
        let generation = self.insert_stored(key, stored.clone(), lib_fingerprint)?;
        Ok((stored.bundle, generation))
    }

    /// [`PolicyStore::insert_with_libs`] of an already encoded entry: the
    /// disk write reuses its bytes. Returns the generation the insert
    /// landed at.
    pub(crate) fn insert_stored(
        &self,
        key: &str,
        stored: StoredBundle,
        lib_fingerprint: Option<&str>,
    ) -> std::io::Result<u64> {
        // The temp-file write happens before the lock — it is private to
        // this writer. Only the rename (the publish) and the memory
        // insert run under the lock, so they are atomic relative to a
        // concurrent `invalidate`: either order leaves memory and disk
        // agreeing, and hot-path loads never stall behind a slow disk.
        let staged = match self.entry_path(key) {
            Some(path) => {
                let dir = self.dir.as_ref().expect("entry path implies dir");
                let tmp = dir.join(format!(
                    "{key}.tmp.{}.{}",
                    std::process::id(),
                    TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
                ));
                {
                    let mut file = std::fs::File::create(&tmp)?;
                    file.write_all(stored.json.as_bytes())?;
                }
                Some((tmp, path))
            }
            None => None,
        };
        {
            let mut mem = self.mem.lock().expect("store lock");
            if let Some((tmp, path)) = staged {
                if let Err(e) = std::fs::rename(&tmp, path) {
                    let _ = std::fs::remove_file(&tmp);
                    return Err(e);
                }
                // The sidecar is provenance metadata, not the entry
                // itself: best-effort, written after the entry lands
                // (a missing sidecar just means the entry is never
                // swept as stale).
                if let (Some(fp), Some(sidecar)) = (lib_fingerprint, self.sidecar_path(key)) {
                    let _ = std::fs::write(sidecar, fp);
                }
            }
            mem.insert(key.to_string(), stored);
        }
        Ok(self.bump_keys(&[key]))
    }

    /// Removes the entry under `key` from memory and disk. Returns the
    /// generation the removal landed at when an entry existed, `None`
    /// when the key was unknown (a no-op does not bump the generation —
    /// watchers only wake for real state changes).
    pub fn invalidate(&self, key: &str) -> Option<u64> {
        // Memory and disk are removed under one lock hold, pairing with
        // the locked promotion in [`PolicyStore::load`]: a concurrent
        // load either observes both layers before the removal or both
        // after — never the torn middle that would let it promote the
        // just-deleted disk entry back into memory.
        let removed = {
            let mut mem = self.mem.lock().expect("store lock");
            let mem_hit = mem.remove(key).is_some();
            match self.entry_path(key) {
                Some(path) => match std::fs::remove_file(path) {
                    Ok(()) => true,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => mem_hit,
                    Err(e) => {
                        // The disk entry survives (e.g. the directory went
                        // read-only), so a later load would re-promote it:
                        // report the invalidation as NOT performed rather
                        // than acking a removal that did not stick.
                        bside_obs::event(
                            "serve_invalidate_failed",
                            format_args!("bside-serve: invalidating {key} on disk: {e}"),
                        );
                        false
                    }
                },
                None => mem_hit,
            }
        };
        if removed {
            if let Some(sidecar) = self.sidecar_path(key) {
                let _ = std::fs::remove_file(sidecar);
            }
        }
        removed.then(|| self.bump_keys(&[key]))
    }

    /// Number of stored policies: on-disk entries when directory-backed
    /// (the durable truth), in-memory entries otherwise.
    pub fn len(&self) -> usize {
        match &self.dir {
            Some(dir) => std::fs::read_dir(dir)
                .map(|rd| {
                    rd.filter_map(Result::ok)
                        .filter(|e| e.file_name().to_string_lossy().ends_with(".policy.json"))
                        .count()
                })
                .unwrap_or(0),
            None => self.mem.lock().expect("store lock").len(),
        }
    }

    /// `true` when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The content fingerprint of a whole [`LibraryStore`]: SHA-256 over
/// every interface's `(name, JSON)` in library-name order, `None` for an
/// empty store. Mixed into dynamic-binary store keys so a policy bundle
/// is addressed by the exact interfaces it was derived against.
pub fn library_fingerprint(libs: &LibraryStore) -> Option<String> {
    if libs.is_empty() {
        return None;
    }
    let parts: Vec<String> = libs
        .interfaces()
        .map(|i| format!("{}\x00{}\x00", i.library, i.to_json()))
        .collect();
    let chunks: Vec<&[u8]> = parts.iter().map(|p| p.as_bytes()).collect();
    Some(sha256_hex(&chunks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bside_filter::bpf::BpfProgram;
    use bside_filter::{FilterPolicy, PhasePolicy};
    use bside_syscalls::{SyscallSet, Sysno};

    fn bundle(name: &str) -> PolicyBundle {
        let allowed: SyscallSet = ["read", "write"]
            .iter()
            .filter_map(|n| Sysno::from_name(n))
            .collect();
        let policy = FilterPolicy::allow_only(name, allowed);
        let bpf = BpfProgram::from_policy(&policy);
        PolicyBundle {
            binary: name.to_string(),
            policy,
            phases: PhasePolicy {
                binary: name.to_string(),
                phases: vec![allowed],
                transitions: vec![vec![]],
                initial: 0,
            },
            bpf,
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bside_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_only_store_round_trips() {
        let store = PolicyStore::open(None).unwrap();
        assert!(store.is_empty());
        assert!(store.load("k").is_none());
        store.insert("k", bundle("a")).unwrap();
        assert_eq!(store.load("k").unwrap().binary, "a");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn directory_store_survives_reopening() {
        let dir = scratch("reopen");
        {
            let store = PolicyStore::open(Some(&dir)).unwrap();
            store.insert("deadbeef", bundle("a")).unwrap();
            assert_eq!(store.len(), 1);
        }
        let store = PolicyStore::open(Some(&dir)).unwrap();
        let loaded = store.load("deadbeef").expect("disk hit");
        assert_eq!(loaded.binary, "a");
        assert_eq!(*loaded, bundle("a"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_a_miss_not_an_error() {
        let dir = scratch("corrupt");
        let store = PolicyStore::open(Some(&dir)).unwrap();
        std::fs::write(dir.join("badkey.policy.json"), b"{not json").unwrap();
        assert!(store.load("badkey").is_none());
        // And it can be overwritten with a good entry.
        store.insert("badkey", bundle("fixed")).unwrap();
        assert_eq!(store.load("badkey").unwrap().binary, "fixed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn len_counts_only_policy_entries() {
        let dir = scratch("len");
        let store = PolicyStore::open(Some(&dir)).unwrap();
        store.insert("k1", bundle("a")).unwrap();
        std::fs::write(dir.join("stray.txt"), b"x").unwrap();
        std::fs::write(dir.join("k2.tmp.999.0"), b"partial").unwrap();
        assert_eq!(store.len(), 1, "stray and temp files are not entries");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_matches_the_dist_cache_scheme() {
        let options = AnalyzerOptions::default();
        assert_eq!(
            PolicyStore::key(b"elf", &options),
            ResultCache::key(b"elf", &options),
            "one content-address scheme across analysis cache and policy store"
        );
        assert_eq!(
            PolicyStore::key_with_libs(b"elf", &options, None),
            PolicyStore::key(b"elf", &options),
            "no libraries means the plain static key"
        );
    }

    #[test]
    fn library_fingerprint_splits_keys_per_interface_set() {
        use bside_core::SharedInterface;
        let options = AnalyzerOptions::default();
        let mut libs = LibraryStore::new();
        assert!(library_fingerprint(&libs).is_none(), "empty store: no fp");
        libs.insert(SharedInterface {
            library: "liba.so".to_string(),
            exports: Default::default(),
            wrappers: vec!["w".to_string()],
            addresses_taken: vec![],
            function_cfg: Default::default(),
        });
        let fp_a = library_fingerprint(&libs).expect("one lib");
        let key_a = PolicyStore::key_with_libs(b"elf", &options, Some(&fp_a));
        assert_ne!(
            key_a,
            PolicyStore::key(b"elf", &options),
            "library set must split the key space"
        );
        // A changed interface changes the fingerprint, hence the key.
        let mut libs2 = LibraryStore::new();
        libs2.insert(SharedInterface {
            library: "liba.so".to_string(),
            exports: Default::default(),
            wrappers: vec![],
            addresses_taken: vec![],
            function_cfg: Default::default(),
        });
        let fp_b = library_fingerprint(&libs2).expect("one lib");
        assert_ne!(fp_a, fp_b);
        assert_ne!(
            key_a,
            PolicyStore::key_with_libs(b"elf", &options, Some(&fp_b))
        );
    }

    #[test]
    fn generation_bumps_on_insert_and_real_invalidation_only() {
        let store = PolicyStore::open(None).unwrap();
        assert_eq!(store.generation(), 0);
        let (_, g1) = store.insert("k", bundle("a")).unwrap();
        assert_eq!(g1, 1);
        assert!(store.invalidate("unknown").is_none(), "no-op: no bump");
        assert_eq!(store.generation(), 1);
        let g2 = store.invalidate("k").expect("entry existed");
        assert_eq!(g2, 2);
        assert!(store.load("k").is_none(), "invalidated entry is gone");
    }

    #[test]
    fn invalidate_removes_the_disk_entry_too() {
        let dir = scratch("inval");
        let store = PolicyStore::open(Some(&dir)).unwrap();
        store.insert("k", bundle("a")).unwrap();
        assert!(dir.join("k.policy.json").exists());
        store.invalidate("k").expect("existed");
        assert!(!dir.join("k.policy.json").exists());
        // A second daemon sharing the directory no longer sees it either.
        let other = PolicyStore::open(Some(&dir)).unwrap();
        assert!(other.load("k").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_removes_only_entries_from_a_different_library_set() {
        let dir = scratch("sweep");
        let store = PolicyStore::open(Some(&dir)).unwrap();
        // One static entry (no sidecar), one entry under the current
        // library set, one under a stale set.
        store
            .insert("a".repeat(64).as_str(), bundle("static"))
            .unwrap();
        store
            .insert_with_libs("b".repeat(64).as_str(), bundle("fresh"), Some("fp-now"))
            .unwrap();
        store
            .insert_with_libs("c".repeat(64).as_str(), bundle("stale"), Some("fp-old"))
            .unwrap();
        assert_eq!(store.len(), 3, "sidecars are not entries");
        let generation_before = store.generation();

        let swept = store.sweep_stale_lib_entries("fp-now");
        assert_eq!(swept, 1, "exactly the stale-set entry goes");
        assert_eq!(store.len(), 2);
        assert!(store.load(&"a".repeat(64)).is_some(), "static entry kept");
        assert!(
            store.load(&"b".repeat(64)).is_some(),
            "current-set entry kept"
        );
        assert!(store.load(&"c".repeat(64)).is_none(), "stale entry gone");
        assert!(
            !dir.join(format!("{}.libfp", "c".repeat(64))).exists(),
            "stale sidecar removed with its entry"
        );
        assert_eq!(
            store.generation(),
            generation_before + 1,
            "a real sweep is a mutation watchers hear about"
        );
        // Idempotent: nothing left to sweep, no spurious bump.
        assert_eq!(store.sweep_stale_lib_entries("fp-now"), 0);
        assert_eq!(store.generation(), generation_before + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalidate_clears_the_fingerprint_sidecar_too() {
        let dir = scratch("sidecar_inval");
        let store = PolicyStore::open(Some(&dir)).unwrap();
        let key = "d".repeat(64);
        store
            .insert_with_libs(&key, bundle("dyn"), Some("fp"))
            .unwrap();
        assert!(dir.join(format!("{key}.libfp")).exists());
        store.invalidate(&key).expect("entry existed");
        assert!(!dir.join(format!("{key}.policy.json")).exists());
        assert!(
            !dir.join(format!("{key}.libfp")).exists(),
            "sidecar must not outlive its entry"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keyed_subscription_wakes_only_on_its_key() {
        let store = PolicyStore::open(None).unwrap();
        let key_a = "a".repeat(64);
        let key_b = "b".repeat(64);
        assert_eq!(store.subscribe(1, Some(&key_a), 0), Subscribed::Parked);
        assert_eq!(store.subscribe(2, Some(&key_b), 0), Subscribed::Parked);
        assert_eq!(store.subscribe(3, None, 0), Subscribed::Parked);

        // Mutating B fires B's subscriber and the keyless one — never A's.
        let (_, g1) = store.insert(&key_b, bundle("b")).unwrap();
        let mut fired = store.take_fired();
        fired.sort_unstable();
        assert_eq!(
            fired,
            vec![(2, g1), (3, g1)],
            "key A's watcher stays parked"
        );
        assert!(store.take_fired().is_empty(), "fired list drains");

        // Now A's turn.
        let (_, g2) = store.insert(&key_a, bundle("a")).unwrap();
        assert_eq!(store.take_fired(), vec![(1, g2)]);
    }

    #[test]
    fn subscribe_is_atomic_against_prior_mutations() {
        let store = PolicyStore::open(None).unwrap();
        let key = "c".repeat(64);
        let (_, g1) = store.insert(&key, bundle("c")).unwrap();

        // Anchor ahead of the store: stale generation from a previous
        // daemon incarnation.
        assert_eq!(
            store.subscribe(1, None, g1 + 5),
            Subscribed::Ahead { current: g1 }
        );
        // Keyed anchor older than the key's last mutation: Ready, not a
        // lost wakeup.
        assert_eq!(
            store.subscribe(2, Some(&key), 0),
            Subscribed::Ready { current: g1 }
        );
        // Keyed anchor at the key's last mutation: parked (nothing newer).
        assert_eq!(store.subscribe(3, Some(&key), g1), Subscribed::Parked);
        // A key never mutated in this process parks regardless of other
        // keys' churn.
        assert_eq!(
            store.subscribe(4, Some(&"d".repeat(64)), g1),
            Subscribed::Parked
        );
        // Keyless anchor behind the store: Ready.
        assert_eq!(
            store.subscribe(5, None, 0),
            Subscribed::Ready { current: g1 }
        );
    }

    #[test]
    fn unsubscribe_removes_parked_and_uncollected_fired() {
        let store = PolicyStore::open(None).unwrap();
        assert_eq!(store.subscribe(7, None, 0), Subscribed::Parked);
        assert!(store.unsubscribe(7), "parked waiter removed");
        assert!(!store.unsubscribe(7), "second remove is a no-op");

        assert_eq!(store.subscribe(8, None, 0), Subscribed::Parked);
        store.insert("k", bundle("a")).unwrap();
        assert!(store.unsubscribe(8), "fired-but-uncollected removed");
        assert!(store.take_fired().is_empty());
    }

    #[test]
    fn waker_rings_exactly_when_subscriptions_fire() {
        use std::sync::atomic::AtomicUsize;
        let store = PolicyStore::open(None).unwrap();
        let rings = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&rings);
        store.set_waker(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }));

        // A mutation with no subscribers does not ring.
        store.insert("k1", bundle("a")).unwrap();
        assert_eq!(rings.load(Ordering::SeqCst), 0);

        // A mutation that fires a subscription rings once.
        assert_eq!(
            store.subscribe(1, Some("k2"), store.generation()),
            Subscribed::Parked
        );
        store.insert("k2", bundle("b")).unwrap();
        assert_eq!(rings.load(Ordering::SeqCst), 1);
        assert_eq!(store.take_fired().len(), 1);
    }

    #[test]
    fn one_sweep_fires_every_swept_keys_subscribers_with_one_bump() {
        let dir = scratch("sweep_subs");
        let store = PolicyStore::open(Some(&dir)).unwrap();
        let stale_x = "e".repeat(64);
        let stale_y = "f".repeat(64);
        store
            .insert_with_libs(&stale_x, bundle("x"), Some("fp-old"))
            .unwrap();
        store
            .insert_with_libs(&stale_y, bundle("y"), Some("fp-old"))
            .unwrap();
        let anchor = store.generation();
        assert_eq!(
            store.subscribe(1, Some(&stale_x), anchor),
            Subscribed::Parked
        );
        assert_eq!(
            store.subscribe(2, Some(&stale_y), anchor),
            Subscribed::Parked
        );
        assert_eq!(store.sweep_stale_lib_entries("fp-now"), 2);
        assert_eq!(store.generation(), anchor + 1, "one bump for the sweep");
        let mut fired = store.take_fired();
        fired.sort_unstable();
        assert_eq!(fired, vec![(1, anchor + 1), (2, anchor + 1)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wait_newer_wakes_on_bump_and_times_out_otherwise() {
        let store = std::sync::Arc::new(PolicyStore::open(None).unwrap());
        // Timeout path: nothing bumps, returns the unchanged generation.
        assert_eq!(store.wait_newer(0, Duration::from_millis(20)), 0);
        // Wakeup path: a concurrent insert unblocks the waiter.
        let waiter = {
            let store = std::sync::Arc::clone(&store);
            std::thread::spawn(move || store.wait_newer(0, Duration::from_secs(10)))
        };
        std::thread::sleep(Duration::from_millis(30));
        store.insert("k", bundle("a")).unwrap();
        assert_eq!(waiter.join().expect("waiter"), 1);
    }
}
