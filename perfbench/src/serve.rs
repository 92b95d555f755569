//! `serve_mixed`: a policy daemon on a Unix socket with a 2-worker pool
//! and an on-disk store. Two client threads each hold one connection and
//! own disjoint halves of the keys, so a hit is always a hit. One op in
//! 50 of a connection, drawn from a seeded generator, invalidates its key
//! and fetches it again (a store write and an analyze-on-miss); every
//! other op is a store hit.

use crate::common::{
    self, derive_on_path, policy_metrics, repeated_setup, Config, DeriveCounters, Shipped,
};
use crate::layers::{per_layer, Extras};
use crate::stats::{overhead_pct, peak_rss_mb, Metrics, Samples};
use crate::trace::SpanLog;
use crate::Outcome;
use bside::serve::protocol::{read_message, write_message};
use bside::serve::{
    derive_bundle, Endpoint, PolicyBundle, PolicyClient, PolicyServer, PolicyStore, Reply,
    ServeOptions, ServerHandle, Source,
};
use bside::syscalls::SyscallSet;
use std::time::{Duration, Instant};

/// Client connections, one thread each.
const CONNECTIONS: usize = 2;

/// One op in this many per connection, on average, is an invalidate +
/// re-fetch.
const MISS_EVERY: u64 = 50;

/// Seeded splitmix64: which ops of a connection miss.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Binary {
    name: String,
    path: String,
    bytes: Vec<u8>,
    truth: SyscallSet,
    /// The local `derive_bundle` of the same bytes.
    reference: PolicyBundle,
    /// The daemon's store key, learnt in the warm pass.
    key: String,
}

struct Setup {
    binaries: Vec<Binary>,
    server: ServerHandle,
    clients: Vec<PolicyClient>,
}

/// The static half of the seeded corpus plus the six application
/// profiles, so bundles range from a handful of syscalls to redis's 89.
fn inputs(config: &Config) -> Vec<(String, Vec<u8>, SyscallSet)> {
    let corpus = common::corpus(config);
    let mut out: Vec<(String, Vec<u8>, SyscallSet)> = corpus
        .binaries
        .iter()
        .filter(|b| b.is_static)
        .map(|b| {
            (
                b.program.spec.name.clone(),
                b.program.image.clone(),
                b.truth(&[]),
            )
        })
        .collect();
    for profile in bside::gen::profiles::all_profiles() {
        out.push((
            profile.name.to_string(),
            profile.program.image.clone(),
            profile.truth(),
        ));
    }
    out
}

/// Inputs on disk, local references, the daemon, a warm pass that
/// analyzes every binary once through it, and the two connections.
fn setup(config: &Config, rep: usize, notes: &mut Vec<String>) -> Result<Setup, String> {
    let dir = config.work.join(format!("serve-{rep}"));
    let corpus_dir = dir.join("corpus");
    std::fs::create_dir_all(&corpus_dir).map_err(|e| e.to_string())?;
    let options = common::options();
    let mut binaries = Vec::new();
    for (i, (name, bytes, truth)) in inputs(config).into_iter().enumerate() {
        let name = format!("{i:04}_{name}");
        let path = corpus_dir.join(format!("{name}.elf"));
        std::fs::write(&path, &bytes).map_err(|e| e.to_string())?;
        let reference = derive_bundle(&name, &bytes, &options, None)?;
        binaries.push(Binary {
            path: path.to_str().ok_or("non-UTF-8 path")?.to_string(),
            name,
            bytes,
            truth,
            reference,
            key: String::new(),
        });
    }
    let server = PolicyServer::spawn(
        &Endpoint::Unix(dir.join("s.sock")),
        ServeOptions {
            store_dir: Some(dir.join("store")),
            threads: 2,
            analyzer: options,
            read_timeout: Duration::from_secs(60),
            ..ServeOptions::default()
        },
    )
    .map_err(|e| format!("spawning the daemon: {e}"))?;
    let mut warm = PolicyClient::connect(server.endpoint()).map_err(|e| e.to_string())?;
    for b in &mut binaries {
        let fetch = warm.fetch_path(&b.path).map_err(|e| e.to_string())?;
        if fetch.source != Source::Analyzed || fetch.bundle != b.reference {
            notes.push(format!(
                "{}: warm pass did not analyze to the reference",
                b.name
            ));
        }
        b.key = fetch.key;
    }
    drop(warm);
    let clients = (0..CONNECTIONS)
        .map(|_| PolicyClient::connect(server.endpoint()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Setup {
        binaries,
        server,
        clients,
    })
}

/// What one client thread measured.
#[derive(Default)]
struct ClientRun<'a> {
    ops: u64,
    failures: Vec<String>,
    untraced: Samples,
    traced: Samples,
    misses: Samples,
    reply_bytes: u64,
    replies_encoded: u64,
    counters: DeriveCounters,
    log: Option<SpanLog>,
    /// Traced ops whose probes run after the window.
    pending: Vec<Pending<'a>>,
}

/// A traced op, kept for its probes.
struct Pending<'a> {
    op: u64,
    binary: &'a Binary,
    root: usize,
    /// `(invalidate, re-fetch)` round-trip spans of a miss.
    miss_spans: Option<(usize, usize)>,
    generation: u64,
}

/// The stores the probes time `PolicyStore` calls on: the daemon's hit
/// path loads from memory, its miss path writes to disk.
struct Probes<'a> {
    memory: &'a PolicyStore,
    disk: &'a PolicyStore,
}

fn client_loop<'a>(
    config: &Config,
    mut client: PolicyClient,
    binaries: &'a [Binary],
    own: &[usize],
    epoch: Instant,
    thread: u32,
) -> ClientRun<'a> {
    let mut run = ClientRun::default();
    let mut log = SpanLog::new(epoch, thread);
    let mut rng = config.seed ^ u64::from(thread + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let (mut k, mut hits, mut misses) = (0u64, 0u64, 0u64);
    while epoch.elapsed() < config.window {
        // Misses are drawn at random, not every `MISS_EVERY`th op: on a
        // fixed period the two connections' misses could keep one
        // relative phase (overlapping or not) for a whole run. They walk
        // the keys on a cycle of their own, so that every key is missed;
        // on the hits' cycle a fixed period reaches a seed-dependent
        // subset of the keys.
        let miss = splitmix64(&mut rng).is_multiple_of(MISS_EVERY);
        let counter = if miss { &mut misses } else { &mut hits };
        let turn = *counter;
        *counter += 1;
        let b = &binaries[own[(turn % own.len() as u64) as usize]];
        // Every other hit and every other miss is traced.
        let traced = config.trace && turn % 2 == 1;
        let op = u64::from(thread) << 48 | k;
        k += 1;
        run.ops += 1;

        let t0 = Instant::now();
        let mut invalidate_span = None;
        let mut fetch_span = None;
        let (root, result) = if miss {
            let root = traced.then(|| log.open("serve.miss", op, None));
            invalidate_span = root.map(|id| log.open("serve.invalidate_rt", op, Some(id)));
            let removed = client.invalidate(&b.key);
            if let Some(span) = invalidate_span {
                log.close(span);
            }
            fetch_span = root.map(|id| log.open("serve.refetch_rt", op, Some(id)));
            let fetch = client.fetch_path(&b.path);
            if let Some(span) = fetch_span {
                log.close(span);
            }
            let result = match removed {
                Ok((true, _)) => fetch.map_err(|e| e.to_string()),
                Ok((false, _)) => Err("invalidate removed nothing".to_string()),
                Err(e) => Err(e.to_string()),
            };
            (root, result)
        } else {
            let root = traced.then(|| log.open("serve.request", op, None));
            (root, client.fetch_path(&b.path).map_err(|e| e.to_string()))
        };
        let dt = match root {
            Some(id) => {
                log.close(id);
                log.dur(id)
            }
            None => t0.elapsed(),
        };
        if traced {
            run.traced.push(dt);
        } else {
            run.untraced.push(dt);
        }
        if miss {
            run.misses.push(dt);
        }

        let expected = if miss {
            Source::Analyzed
        } else {
            Source::Store
        };
        let fetch = match result {
            Ok(fetch) if fetch.source != expected => {
                run.failures.push(format!(
                    "{}: source {:?}, expected {expected:?}",
                    b.name, fetch.source
                ));
                continue;
            }
            Ok(fetch) if fetch.key != b.key || fetch.bundle != b.reference => {
                run.failures.push(format!(
                    "{}: served bundle differs from the reference",
                    b.name
                ));
                continue;
            }
            Ok(fetch) => fetch,
            Err(e) => {
                run.failures.push(format!("{}: {e}", b.name));
                continue;
            }
        };

        if let Some(root) = root {
            run.pending.push(Pending {
                op,
                binary: b,
                root,
                miss_spans: invalidate_span.zip(fetch_span),
                generation: fetch.generation,
            });
        }
    }
    run.log = Some(log);
    run
}

/// The public calls behind the steps the daemon ran for a traced op, on
/// the same inputs: a hit's `PolicyStore::load`; a miss's
/// `PolicyStore::invalidate`, derivation and `PolicyStore::insert`; and
/// the reply's encode and decode. They run after the window, when nothing
/// else does, so they neither slow the measured ops nor share the CPU.
fn probe(run: &mut ClientRun<'_>, log: &mut SpanLog, probes: &Probes<'_>) {
    for p in std::mem::take(&mut run.pending) {
        let (op, b) = (p.op, p.binary);
        let reply_parent = p.miss_spans.map_or(p.root, |(_, fetch)| fetch);
        let source = match p.miss_spans {
            Some((invalidate_span, fetch_span)) => {
                let derive = log.open_probe("serve.derive", op, fetch_span);
                let derived = derive_on_path(
                    log,
                    op,
                    Some(derive),
                    &b.name,
                    &b.bytes,
                    None,
                    &mut run.counters,
                );
                log.close(derive);
                if let Ok(derived) = derived {
                    derived.probe(log, op, None);
                }
                let inserted = log.probe("serve.store_insert", op, fetch_span, || {
                    probes.disk.insert(&b.key, b.reference.clone())
                });
                if let Err(e) = inserted {
                    run.failures
                        .push(format!("{}: probe store insert: {e}", b.name));
                }
                log.probe("serve.invalidate", op, invalidate_span, || {
                    probes.disk.invalidate(&b.key)
                });
                Source::Analyzed
            }
            None => {
                log.probe("serve.store_load", op, p.root, || {
                    probes.memory.load(&b.key)
                });
                Source::Store
            }
        };
        let stored = probes
            .memory
            .load(&b.key)
            .expect("probe store holds every key");
        let buf = log.probe("serve.encode", op, reply_parent, || {
            let reply = Reply::Policy {
                key: b.key.clone(),
                source,
                generation: p.generation,
                bundle: Box::new((*stored).clone()),
            };
            let mut buf = Vec::new();
            write_message(&mut buf, &reply).map(|()| buf)
        });
        if let Ok(buf) = buf {
            run.reply_bytes += buf.len() as u64;
            run.replies_encoded += 1;
            log.probe("serve.decode", op, reply_parent, || {
                read_message::<Reply>(&mut buf.as_slice())
            })
            .ok();
        }
    }
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let (s, setup_s) = repeated_setup(|rep| setup(config, rep, &mut notes))?;
    let mut warm_failures = std::mem::take(&mut notes);
    let mut binaries = s.binaries;
    if config.corrupt_reference {
        let first = &mut binaries[0];
        let dropped = first.reference.policy.allowed.iter().next();
        if let Some(sysno) = dropped {
            first.reference.policy.allowed.remove(sysno);
        }
    }

    // Keys are content addresses: identical images share one, and each
    // key belongs to one connection so its hits stay hits.
    let mut owners: Vec<Vec<usize>> = vec![Vec::new(); CONNECTIONS];
    let mut seen = std::collections::HashSet::new();
    for (i, b) in binaries.iter().enumerate() {
        if seen.insert(b.key.clone()) {
            owners[seen.len() % CONNECTIONS].push(i);
        }
    }
    let before = s.server.stats();
    let epoch = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .clients
            .into_iter()
            .zip(&owners)
            .enumerate()
            .map(|(t, (client, own))| {
                let binaries = &binaries;
                scope.spawn(move || client_loop(config, client, binaries, own, epoch, t as u32))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window = epoch.elapsed();
    let after = s.server.stats();
    s.server.shutdown();

    // The stores the probes call, holding what the daemon's held.
    let memory = PolicyStore::open(None).map_err(|e| e.to_string())?;
    for b in &binaries {
        memory
            .insert(&b.key, b.reference.clone())
            .map_err(|e| e.to_string())?;
    }
    let disk =
        PolicyStore::open(Some(&config.work.join("probe-store"))).map_err(|e| e.to_string())?;
    let probes = Probes {
        memory: &memory,
        disk: &disk,
    };
    let mut all = ClientRun::default();
    let mut logs = Vec::new();
    for mut run in runs {
        if let Some(mut log) = run.log.take() {
            probe(&mut run, &mut log, &probes);
            logs.push(log);
        }
        all.ops += run.ops;
        all.failures.extend(run.failures);
        all.untraced.extend(run.untraced);
        all.traced.extend(run.traced);
        all.misses.extend(run.misses);
        all.reply_bytes += run.reply_bytes;
        all.replies_encoded += run.replies_encoded;
        all.counters.merge(&run.counters);
    }
    let mut failures = std::mem::take(&mut all.failures);
    failures.append(&mut warm_failures);
    let (errors, panics) = (after.errors - before.errors, after.panics - before.panics);
    if errors + panics > 0 {
        failures.push(format!(
            "daemon counted {errors} errors and {panics} panics"
        ));
    }

    let mut e2e = Metrics::default();
    e2e.put_n("setup_s", setup_s, "s", common::SETUP_REPS);
    e2e.put_n(
        "ops_per_s",
        all.ops as f64 / window.as_secs_f64(),
        "1/s",
        all.ops as usize,
    );
    e2e.put_quantile("op_p50_ms", &all.untraced, 0.5);
    e2e.put_quantile("op_p90_ms", &all.untraced, 0.9);
    e2e.put_quantile("miss_p50_ms", &all.misses, 0.5);
    // Every served bundle equals its reference (checked per op), so the
    // references stand for what the daemon shipped.
    let shipped: Vec<Shipped> = binaries
        .iter()
        .map(|b| Shipped {
            policy: b.reference.policy.clone(),
            program: b.reference.bpf.clone(),
        })
        .collect();
    let truths: Vec<&SyscallSet> = binaries.iter().map(|b| &b.truth).collect();
    policy_metrics(&mut e2e, &shipped, &truths, config.seed, &mut failures);
    e2e.put("peak_rss_mb", peak_rss_mb(), "MiB");

    let extras = Extras {
        serve_store_hits: after.store_hits - before.store_hits,
        serve_analyses: after.analyses - before.analyses,
        serve_coalesced: after.coalesced - before.coalesced,
        serve_bytes_read: after.bytes_read - before.bytes_read,
        serve_errors: errors,
        serve_panics: panics,
        reply_bytes: all.reply_bytes as f64 / all.replies_encoded.max(1) as f64,
        trace_overhead_pct: overhead_pct(&all.traced, &all.untraced),
        ..Extras::default()
    };
    Ok(Outcome::new(
        all.ops,
        failures,
        e2e,
        per_layer(&logs, &all.counters, &extras),
        config.trace,
        logs,
    ))
}
