//! `fleet_tcp`: a fleet coordinator on loopback TCP with a shared secret
//! (challenge-authenticated agents, MAC-sealed frames) and two in-process
//! agents with one slot each. Two generator threads each keep one
//! `FleetSubmitter::submit_analysis` unit in flight over the static half
//! of the seeded corpus, so two units are always in flight and each
//! unit's latency is read the moment it lands.

use crate::common::{
    self, analyze_on_path, policy_metrics, probe_analysis, repeated_setup, Config, DeriveCounters,
    Shipped,
};
use crate::layers::{per_layer, Extras};
use crate::stats::{overhead_pct, peak_rss_mb, Metrics, Samples};
use crate::trace::SpanLog;
use crate::Outcome;
use bside::core::{Analyzer, BinaryAnalysis};
use bside::dist::protocol::{read_message, write_message};
use bside::elf::Elf;
use bside::filter::FilterPolicy;
use bside::fleet::auth::frame_mac;
use bside::fleet::protocol::{FromAgent, ToAgent};
use bside::fleet::{
    run_agent, AgentOptions, FleetCoordinator, FleetHandle, FleetOptions, FleetOutput, Want,
};
use bside::serve::Endpoint;
use bside::syscalls::SyscallSet;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SECRET: &str = "perfbench-fleet-secret";
/// The session key the codec and seal probes MAC under (any 32 bytes:
/// HMAC cost does not depend on the key).
const PROBE_KEY: [u8; 32] = [7; 32];

struct Binary {
    name: String,
    bytes: Vec<u8>,
    truth: SyscallSet,
    /// `canonical_report()` of the in-process analysis.
    reference: String,
    /// Its allow-list, which a fleet report equal to `reference` shares.
    allowed: SyscallSet,
}

struct Fleet {
    handle: Option<FleetHandle>,
    agents: Vec<JoinHandle<std::io::Result<bside::fleet::AgentReport>>>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
        for agent in self.agents.drain(..) {
            let _ = agent.join();
        }
    }
}

struct Setup {
    binaries: Vec<Binary>,
    fleet: Fleet,
}

/// The static corpus, in-process reference reports, the coordinator and
/// two registered agents.
fn setup(config: &Config) -> Result<Setup, String> {
    let corpus = common::corpus(config);
    let analyzer = Analyzer::new(common::options());
    let mut binaries = Vec::new();
    for (i, b) in corpus.binaries.iter().filter(|b| b.is_static).enumerate() {
        let analysis = analyzer
            .analyze_static(&b.program.elf)
            .map_err(|e| e.to_string())?;
        binaries.push(Binary {
            name: format!("{i:04}_{}", b.program.spec.name),
            bytes: b.program.image.clone(),
            truth: b.truth(&[]),
            reference: analysis.canonical_report(),
            allowed: analysis.syscalls,
        });
    }
    let handle = FleetCoordinator::bind(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        FleetOptions {
            analyzer: common::options(),
            secret: Some(SECRET.to_string()),
            ..FleetOptions::default()
        },
    )
    .map_err(|e| format!("binding the coordinator: {e}"))?;
    let agents = (0..2)
        .map(|_| {
            let endpoint = handle.endpoint().clone();
            std::thread::spawn(move || {
                run_agent(
                    &endpoint,
                    &AgentOptions {
                        slots: 1,
                        dial_timeout: Some(Duration::from_secs(10)),
                        secret: Some(SECRET.to_string()),
                        ..AgentOptions::default()
                    },
                )
            })
        })
        .collect();
    let fleet = Fleet {
        handle: Some(handle),
        agents,
    };
    // `wait_for_agents` polls every 25 ms; a finer poll keeps that
    // granularity out of `setup_s`.
    let handle = fleet.handle.as_ref().expect("just bound");
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.stats().agents_alive < 2 {
        if Instant::now() > deadline {
            return Err("agents did not register".to_string());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(Setup { binaries, fleet })
}

#[derive(Default)]
struct GenRun {
    ops: u64,
    failures: Vec<String>,
    untraced: Samples,
    traced: Samples,
    frame_bytes: u64,
    frames: u64,
    counters: DeriveCounters,
    log: Option<SpanLog>,
    /// Traced units `(op, root span, binary)`, probed after the window so
    /// that the probes neither slow measured units nor share their CPU.
    pending: Vec<(u64, usize, usize)>,
}

fn generator(
    config: &Config,
    handle: &FleetHandle,
    binaries: &[Binary],
    own: &[usize],
    epoch: Instant,
    thread: u32,
) -> GenRun {
    let submitter = handle.submitter();
    let mut run = GenRun::default();
    let mut log = SpanLog::new(epoch, thread);
    let mut k = 0u64;
    while epoch.elapsed() < config.window {
        let index = own[(k % own.len() as u64) as usize];
        let b = &binaries[index];
        let traced = config.trace && k % 2 == 1;
        let op = u64::from(thread) << 48 | k;
        k += 1;
        run.ops += 1;

        let bytes = b.bytes.clone();
        let t0 = Instant::now();
        let root = traced.then(|| log.open("fleet.unit", op, None));
        let (_, result) = submitter.submit_analysis(&b.name, &b.name, bytes).wait();
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
        let analysis = match result {
            Ok(FleetOutput::Analysis(a)) => a,
            Ok(FleetOutput::Bundle(_)) => {
                run.failures
                    .push(format!("{}: bundle for an analysis unit", b.name));
                continue;
            }
            Err(e) => {
                run.failures.push(format!("{}: {e:?}", b.name));
                continue;
            }
        };
        if analysis.canonical_report() != b.reference {
            run.failures.push(format!(
                "{}: fleet report differs from the in-process one",
                b.name
            ));
            continue;
        }
        if let Some(root) = root {
            run.pending.push((op, root, index));
        }
    }
    run.log = Some(log);
    run
}

/// The public calls behind one unit, on its bytes: the analysis, and
/// both frames' codec (`write_message`/`read_message`, inner frame
/// serialization with its base64) and sealing (`frame_mac`), mirroring
/// what `seal_down`/`seal` and `unseal_down`/`unseal` do on the wire.
fn probe_unit(log: &mut SpanLog, op: u64, root: usize, b: &Binary, run: &mut GenRun) {
    let analyze = log.open_probe("fleet.analyze", op, root);
    let analyzed = log
        .span("elf.parse", op, Some(analyze), || Elf::parse(&b.bytes))
        .map_err(|e| e.to_string())
        .and_then(|elf| {
            analyze_on_path(log, op, Some(analyze), &elf, None, &mut run.counters)
                .map(|(analysis, id)| (elf, analysis, id))
        });
    log.close(analyze);
    let Ok((elf, analysis, id)) = analyzed else {
        run.failures
            .push(format!("{}: in-process analysis failed", b.name));
        return;
    };
    probe_analysis(log, op, id, &elf, &analysis, None);

    let unit = ToAgent::Unit {
        id: op,
        name: b.name.clone(),
        path: b.name.clone(),
        want: Want::Analysis,
        elf: b.bytes.clone(),
        options: common::options(),
        trace: None,
    };
    let result = FromAgent::Result {
        id: op,
        analysis: Box::new(analysis),
        trace: None,
        spans: Vec::new(),
    };
    let encoded = log.probe("dist.encode", op, root, || encode(&unit, &result));
    let Ok((down_body, up_body, down_line, up_line)) = encoded else {
        run.failures
            .push(format!("{}: frame encoding failed", b.name));
        return;
    };
    let (down_mac, up_mac) = log.probe("fleet.seal", op, root, || {
        (
            frame_mac(&PROBE_KEY, 1, &down_body),
            frame_mac(&PROBE_KEY, 1, &up_body),
        )
    });
    let verified = log.probe("fleet.seal", op, root, || {
        frame_mac(&PROBE_KEY, 1, &down_body) == down_mac
            && frame_mac(&PROBE_KEY, 1, &up_body) == up_mac
    });
    let decoded = log.probe("dist.decode", op, root, || decode(&down_line, &up_line));
    if !verified || !matches!(decoded, Ok(Some(ref a)) if a.canonical_report() == b.reference) {
        run.failures
            .push(format!("{}: frames did not round-trip", b.name));
    }
    run.frame_bytes += (down_line.len() + up_line.len()) as u64;
    run.frames += 1;
}

type Encoded = (String, String, Vec<u8>, Vec<u8>);

/// Inner bodies (base64 of the ELF included) and the sealed envelope
/// lines of a unit frame and its result frame.
fn encode(unit: &ToAgent, result: &FromAgent) -> Result<Encoded, String> {
    let down_body = serde_json::to_string(unit).map_err(|e| e.to_string())?;
    let up_body = serde_json::to_string(result).map_err(|e| e.to_string())?;
    let mut down_line = Vec::new();
    let mut up_line = Vec::new();
    write_message(
        &mut down_line,
        &ToAgent::Sealed {
            seq: 1,
            mac: "0".repeat(64),
            body: down_body.clone(),
        },
    )
    .map_err(|e| e.to_string())?;
    write_message(
        &mut up_line,
        &FromAgent::Sealed {
            seq: 1,
            mac: "0".repeat(64),
            body: up_body.clone(),
        },
    )
    .map_err(|e| e.to_string())?;
    Ok((down_body, up_body, down_line, up_line))
}

/// Both envelope lines parsed and their inner frames deserialized; the
/// result frame's analysis comes back.
fn decode(down_line: &[u8], up_line: &[u8]) -> Result<Option<Box<BinaryAnalysis>>, String> {
    let Some(ToAgent::Sealed { body, .. }) =
        read_message::<ToAgent>(&mut &down_line[..]).map_err(|e| e.to_string())?
    else {
        return Ok(None);
    };
    let unit: ToAgent = serde_json::from_str(&body).map_err(|e| e.to_string())?;
    if !matches!(unit, ToAgent::Unit { .. }) {
        return Ok(None);
    }
    let Some(FromAgent::Sealed { body, .. }) =
        read_message::<FromAgent>(&mut &up_line[..]).map_err(|e| e.to_string())?
    else {
        return Ok(None);
    };
    match serde_json::from_str::<FromAgent>(&body).map_err(|e| e.to_string())? {
        FromAgent::Result { analysis, .. } => Ok(Some(analysis)),
        _ => Ok(None),
    }
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let (mut s, setup_s) = repeated_setup(|_| setup(config))?;
    if config.corrupt_reference {
        // One byte of the first reference report changed.
        let report = &mut s.binaries[0].reference;
        let last = report.pop().expect("reports are never empty");
        report.push(if last == '#' { '%' } else { '#' });
    }
    let handle = s.fleet.handle.as_ref().expect("fleet is running");
    let owners: Vec<Vec<usize>> = (0..2)
        .map(|t| (t..s.binaries.len()).step_by(2).collect())
        .collect();

    let before = handle.stats();
    let epoch = Instant::now();
    let runs: Vec<GenRun> = std::thread::scope(|scope| {
        let spawned: Vec<_> = owners
            .iter()
            .enumerate()
            .map(|(t, own)| {
                let binaries = &s.binaries;
                scope.spawn(move || generator(config, handle, binaries, own, epoch, t as u32))
            })
            .collect();
        spawned
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let window = epoch.elapsed();
    let after = handle.stats();
    drop(s.fleet);

    let mut all = GenRun::default();
    let mut logs = Vec::new();
    for mut run in runs {
        if let Some(mut log) = run.log.take() {
            for (op, root, index) in std::mem::take(&mut run.pending) {
                probe_unit(&mut log, op, root, &s.binaries[index], &mut run);
            }
            logs.push(log);
        }
        all.ops += run.ops;
        all.failures.extend(run.failures);
        all.untraced.extend(run.untraced);
        all.traced.extend(run.traced);
        all.frame_bytes += run.frame_bytes;
        all.frames += run.frames;
        all.counters.merge(&run.counters);
    }
    let mut failures = all.failures;
    if after.failures > before.failures {
        failures.push(format!(
            "coordinator counted {} failed units",
            after.failures - before.failures
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
    // Every unit is analyzed from scratch (no result cache): each op is
    // a miss.
    e2e.put_quantile("miss_p50_ms", &all.untraced, 0.5);
    // Fleet units return analyses, not bundles: the programs are those
    // the allow-lists lower to, compiled after the window. Every report
    // that passed the gate equals its reference, so the references
    // stand for the fleet's allow-lists over the whole corpus.
    let shipped: Vec<Shipped> = s
        .binaries
        .iter()
        .map(|b| {
            let policy = FilterPolicy::allow_only(b.name.clone(), b.allowed);
            let program = bside::filter::compile::compile(&policy).program;
            Shipped { policy, program }
        })
        .collect();
    let truths: Vec<&SyscallSet> = s.binaries.iter().map(|b| &b.truth).collect();
    policy_metrics(&mut e2e, &shipped, &truths, config.seed, &mut failures);
    e2e.put("peak_rss_mb", peak_rss_mb(), "MiB");

    let extras = Extras {
        frame_bytes: all.frame_bytes as f64 / all.frames.max(1) as f64,
        fleet_retries: after.retries - before.retries,
        fleet_timeouts: after.timeouts - before.timeouts,
        fleet_failures: after.failures - before.failures,
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
