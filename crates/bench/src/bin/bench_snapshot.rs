//! Perf-trajectory snapshot: times the full analysis pipeline over the
//! multi-binary profile corpus — sequentially (`parallelism = 1`), with
//! every available core (thread fan-out), and distributed across local
//! agent **processes** (`bside-fleet`) — and emits `BENCH_pipeline.json` so
//! future PRs have a recorded baseline to beat.
//!
//! ```text
//! cargo run --release -p bside-bench --bin bench_snapshot [-- <out.json>]
//! ```
//!
//! The JSON records, per configuration: end-to-end wall clock over the
//! corpus (best of `REPEATS` runs), per-phase totals aggregated across
//! binaries (`bside::core::PipelineTimings`), and the resulting
//! speedups. Phase totals are *CPU-side* sums across workers, so they
//! exceed wall clock under parallelism — wall clock is the speedup
//! metric. The distributed wall clock additionally pays process spawn +
//! JSON marshalling, so on tiny corpora it trails the thread engine;
//! its value is fault isolation and the path past one machine.
//!
//! The distributed configuration needs the `bside-agent` binary next to
//! this one (`cargo build --release --all-targets`); when it is missing
//! the snapshot records `"distributed": null` and keeps the rest.
//!
//! A fourth configuration measures the **policy service** (`bside-serve`)
//! as a load generator would: spawn the daemon on a Unix socket, warm its
//! content-addressed store, then hammer it with concurrent clients and
//! record request throughput and latency percentiles — the serving-path
//! trajectory (requests per second at the enforcement point), distinct
//! from the analysis-path trajectories above it.

use bside::core::{Analyzer, AnalyzerOptions, PipelineTimings};
use bside::gen::corpus::{corpus_with_size, DEFAULT_SEED};
use bside::gen::profiles::all_profiles;
use bside::serve::{Endpoint, PolicyClient, PolicyServer, ServeOptions, Source};
use std::time::{Duration, Instant};

const REPEATS: usize = 3;

struct ConfigResult {
    parallelism: usize,
    wall: Duration,
    phases: PipelineTimings,
    syscall_counts: Vec<(String, usize)>,
}

fn run_config(parallelism: usize, binaries: &[(String, bside::elf::Elf)]) -> ConfigResult {
    let analyzer = Analyzer::new(AnalyzerOptions {
        parallelism,
        ..AnalyzerOptions::default()
    });
    let binaries: Vec<(&str, &bside::elf::Elf)> = binaries
        .iter()
        .map(|(name, elf)| (name.as_str(), elf))
        .collect();

    let mut best_wall = Duration::MAX;
    let mut phases = PipelineTimings::new();
    let mut syscall_counts = Vec::new();
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        let results = analyzer.analyze_corpus(&binaries);
        let wall = t0.elapsed();
        if wall < best_wall {
            best_wall = wall;
            phases = PipelineTimings::new();
            syscall_counts.clear();
            for (name, result) in &results {
                let analysis = result
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{name} failed to analyze: {e}"));
                phases.record(&analysis.stats.timings);
                syscall_counts.push((name.clone(), analysis.syscalls.len()));
            }
        }
    }
    ConfigResult {
        parallelism,
        wall: best_wall,
        phases,
        syscall_counts,
    }
}

/// Times a local run (`workers` agent processes) over the corpus,
/// materialized to a scratch directory the coordinator reads from.
/// `None` when the `bside-agent` binary is not built or a unit fails.
fn run_distributed(workers: usize, images: &[(String, Vec<u8>)]) -> Option<ConfigResult> {
    bside::fleet::resolve_agent_bin(None).ok()?;
    let dir = std::env::temp_dir().join(format!("bside_bench_dist_{}", std::process::id()));
    std::fs::create_dir_all(&dir).ok()?;
    let result = run_distributed_in(workers, images, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_distributed_in(
    workers: usize,
    images: &[(String, Vec<u8>)],
    dir: &std::path::Path,
) -> Option<ConfigResult> {
    let mut units: Vec<(String, std::path::PathBuf)> = Vec::with_capacity(images.len());
    for (i, (name, bytes)) in images.iter().enumerate() {
        let path = dir.join(format!("{i:04}_{name}.elf"));
        std::fs::write(&path, bytes).ok()?;
        units.push((name.clone(), path));
    }
    let agents = bside::fleet::LocalAgents {
        workers,
        ..bside::fleet::LocalAgents::default()
    };

    let mut best_wall = Duration::MAX;
    let mut phases = PipelineTimings::new();
    let mut syscall_counts = Vec::new();
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        let run = match bside::fleet::analyze_corpus_local(
            &units,
            bside::fleet::FleetOptions::default(),
            &agents,
        ) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("  distributed config failed: {e}");
                return None;
            }
        };
        let wall = t0.elapsed();
        if run.stats.failures > 0 {
            if let Some(unit) = run.results.iter().find(|u| u.result.is_err()) {
                eprintln!(
                    "  distributed config failed: unit {} -> {}",
                    unit.name,
                    unit.result.as_ref().expect_err("failed unit")
                );
            }
            return None;
        }
        if wall < best_wall {
            best_wall = wall;
            phases = PipelineTimings::new();
            syscall_counts.clear();
            for unit in &run.results {
                let analysis = unit.result.as_ref().expect("no failures");
                phases.record(&analysis.stats.timings);
                syscall_counts.push((unit.name.clone(), analysis.syscalls.len()));
            }
        }
    }
    Some(ConfigResult {
        parallelism: workers,
        wall: best_wall,
        phases,
        syscall_counts,
    })
}

/// The fleet measurement: the corpus shipped in band over loopback TCP
/// to in-process agents — what the multi-machine path costs per unit
/// (JSON marshalling + base64 + socket hops) relative to threads.
struct FleetBenchResult {
    agents: usize,
    slots_per_agent: usize,
    units: usize,
    wall: Duration,
    retries: u64,
    timeouts: u64,
}

impl FleetBenchResult {
    fn units_per_s(&self) -> f64 {
        self.units as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Times a fleet run: bind a TCP coordinator on loopback, attach
/// `agents` in-process agents, push the whole corpus through. `None`
/// when setup or any unit fails.
fn run_fleet(
    agents: usize,
    slots_per_agent: usize,
    images: &[(String, Vec<u8>)],
) -> Option<FleetBenchResult> {
    let dir = std::env::temp_dir().join(format!("bside_bench_fleet_{}", std::process::id()));
    std::fs::create_dir_all(&dir).ok()?;
    let result = run_fleet_in(agents, slots_per_agent, images, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_fleet_in(
    agents: usize,
    slots_per_agent: usize,
    images: &[(String, Vec<u8>)],
    dir: &std::path::Path,
) -> Option<FleetBenchResult> {
    use bside::fleet::{
        analyze_corpus_fleet, run_agent, AgentOptions, FleetCoordinator, FleetOptions,
    };
    let mut units: Vec<(String, std::path::PathBuf)> = Vec::with_capacity(images.len());
    for (i, (name, bytes)) in images.iter().enumerate() {
        let path = dir.join(format!("{i:04}_{name}.elf"));
        std::fs::write(&path, bytes).ok()?;
        units.push((name.clone(), path));
    }
    let handle = FleetCoordinator::bind(
        &bside::serve::Endpoint::Tcp("127.0.0.1:0".to_string()),
        FleetOptions::default(),
    )
    .ok()?;
    let agent_threads: Vec<_> = (0..agents)
        .map(|_| {
            let endpoint = handle.endpoint().clone();
            std::thread::spawn(move || {
                run_agent(
                    &endpoint,
                    &AgentOptions {
                        slots: slots_per_agent,
                        dial_timeout: Some(Duration::from_secs(10)),
                        ..AgentOptions::default()
                    },
                )
            })
        })
        .collect();
    if !handle.wait_for_agents(agents, Duration::from_secs(30)) {
        eprintln!("  fleet config: agents failed to register");
        handle.shutdown();
        for t in agent_threads {
            let _ = t.join();
        }
        return None;
    }

    let mut best: Option<FleetBenchResult> = None;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        let run = match analyze_corpus_fleet(&units, &handle) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("  fleet config failed: {e}");
                handle.shutdown();
                for t in agent_threads {
                    let _ = t.join();
                }
                return None;
            }
        };
        let wall = t0.elapsed();
        if run.stats.failures > 0 {
            eprintln!(
                "  fleet config failed: {} unit failure(s)",
                run.stats.failures
            );
            handle.shutdown();
            for t in agent_threads {
                let _ = t.join();
            }
            return None;
        }
        if best.as_ref().is_none_or(|b| wall < b.wall) {
            best = Some(FleetBenchResult {
                agents,
                slots_per_agent,
                units: units.len(),
                wall,
                retries: run.stats.retries as u64,
                timeouts: run.stats.timeouts as u64,
            });
        }
    }
    handle.shutdown();
    for t in agent_threads {
        let _ = t.join();
    }
    best
}

/// The chaos measurement: the [`run_fleet`] shape on an *authenticated*
/// link, once with a clean wire and once under a seeded fault plan —
/// what line noise costs in throughput and retries when every frame is
/// MAC-sealed and corrupted units are retried. A third leg times the
/// serve daemon in degraded mode (fleet offload with zero agents and a
/// short budget, so every analyze-on-miss falls back to a local
/// derivation): its p99 is the degraded-mode serving figure.
struct FleetChaosResult {
    faults_off: FleetBenchResult,
    faults_on: FleetBenchResult,
    plan: bside::dist::fault::FaultPlan,
}

const CHAOS_SECRET: &str = "bench-chaos-secret";

fn chaos_plan() -> bside::dist::fault::FaultPlan {
    use bside::dist::fault::FaultPlan;
    FaultPlan {
        corrupt: 30,
        truncate: 10,
        reset: 10,
        dup: 30,
        delay: 20,
        delay_ms: 1,
        ..FaultPlan::quiet(11)
    }
}

fn run_fleet_chaos(
    slots_per_agent: usize,
    images: &[(String, Vec<u8>)],
) -> Option<FleetChaosResult> {
    let dir = std::env::temp_dir().join(format!("bside_bench_chaos_{}", std::process::id()));
    std::fs::create_dir_all(&dir).ok()?;
    let result = run_fleet_chaos_in(slots_per_agent, images, &dir);
    bside::dist::fault::set_plan(None);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_fleet_chaos_in(
    slots_per_agent: usize,
    images: &[(String, Vec<u8>)],
    dir: &std::path::Path,
) -> Option<FleetChaosResult> {
    use bside::dist::fault::{set_plan, FaultPlan};
    use bside::fleet::{
        analyze_corpus_fleet, run_agent_loop, AgentOptions, FleetCoordinator, FleetOptions,
    };
    let mut units: Vec<(String, std::path::PathBuf)> = Vec::with_capacity(images.len());
    for (i, (name, bytes)) in images.iter().enumerate() {
        let path = dir.join(format!("{i:04}_{name}.elf"));
        std::fs::write(&path, bytes).ok()?;
        units.push((name.clone(), path));
    }

    let measure = |plan: Option<FaultPlan>| -> Option<FleetBenchResult> {
        let handle = FleetCoordinator::bind(
            &bside::serve::Endpoint::Tcp("127.0.0.1:0".to_string()),
            FleetOptions {
                unit_timeout: Duration::from_secs(30),
                max_attempts: 64,
                secret: Some(CHAOS_SECRET.to_string()),
                ..FleetOptions::default()
            },
        )
        .ok()?;
        set_plan(plan);
        let agent_threads: Vec<_> = (0..2u64)
            .map(|i| {
                let endpoint = handle.endpoint().clone();
                std::thread::spawn(move || {
                    run_agent_loop(
                        &endpoint,
                        &AgentOptions {
                            slots: slots_per_agent,
                            dial_timeout: Some(Duration::from_secs(10)),
                            secret: Some(CHAOS_SECRET.to_string()),
                            backoff_base: Duration::from_millis(5),
                            backoff_cap: Duration::from_millis(50),
                            backoff_seed: Some(21 + i),
                            ..AgentOptions::default()
                        },
                    )
                })
            })
            .collect();
        let finish = |handle: bside::fleet::FleetHandle| {
            // Quiet the wire before the goodbye round so shutdown frames
            // are not themselves faulted away.
            set_plan(None);
            handle.wait_for_agents(2, Duration::from_secs(10));
            handle.shutdown();
        };
        if !handle.wait_for_agents(2, Duration::from_secs(30)) {
            eprintln!("  fleet-chaos config: agents failed to register");
            finish(handle);
            for t in agent_threads {
                let _ = t.join();
            }
            return None;
        }
        let t0 = Instant::now();
        let run = analyze_corpus_fleet(&units, &handle);
        let wall = t0.elapsed();
        finish(handle);
        for t in agent_threads {
            let _ = t.join();
        }
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                eprintln!("  fleet-chaos config failed: {e}");
                return None;
            }
        };
        if run.stats.failures > 0 {
            eprintln!(
                "  fleet-chaos config failed: {} unit failure(s)",
                run.stats.failures
            );
            return None;
        }
        Some(FleetBenchResult {
            agents: 2,
            slots_per_agent,
            units: units.len(),
            wall,
            retries: run.stats.retries as u64,
            timeouts: run.stats.timeouts as u64,
        })
    };

    let faults_off = measure(None)?;
    let plan = chaos_plan();
    let faults_on = measure(Some(plan))?;
    Some(FleetChaosResult {
        faults_off,
        faults_on,
        plan,
    })
}

/// Serve daemon in degraded mode: the fleet offload has zero agents and
/// a short budget, so every analyze-on-miss waits out the budget (until
/// the breaker opens and skips the wait) and falls back to a local
/// derivation. One client fetches every binary cold.
struct ServeDegradedResult {
    requests: usize,
    wall: Duration,
    latencies_us: Vec<u64>,
    degraded: u64,
    breaker_state: u64,
}

impl ServeDegradedResult {
    fn percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let rank = ((self.latencies_us.len() - 1) as f64 * p).round() as usize;
        self.latencies_us[rank]
    }
}

fn run_serve_degraded(images: &[(String, Vec<u8>)]) -> Option<ServeDegradedResult> {
    let dir = std::env::temp_dir().join(format!("bside_bench_degraded_{}", std::process::id()));
    std::fs::create_dir_all(&dir).ok()?;
    let result = run_serve_degraded_in(images, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_serve_degraded_in(
    images: &[(String, Vec<u8>)],
    dir: &std::path::Path,
) -> Option<ServeDegradedResult> {
    use bside::fleet::{serve_offload, FleetCoordinator, FleetOptions};
    let corpus_dir = dir.join("corpus");
    std::fs::create_dir_all(&corpus_dir).ok()?;
    let mut paths: Vec<String> = Vec::with_capacity(images.len());
    for (i, (name, bytes)) in images.iter().enumerate() {
        let path = corpus_dir.join(format!("{i:04}_{name}.elf"));
        std::fs::write(&path, bytes).ok()?;
        paths.push(path.to_str()?.to_string());
    }
    let fleet = FleetCoordinator::bind(
        &bside::serve::Endpoint::Tcp("127.0.0.1:0".to_string()),
        FleetOptions::default(),
    )
    .ok()?;
    let server = PolicyServer::spawn(
        &Endpoint::Unix(dir.join("bside.sock")),
        ServeOptions {
            store_dir: Some(dir.join("store")),
            remote_analyzer: Some(serve_offload(fleet.submitter(), Duration::from_millis(300))),
            read_timeout: Duration::from_secs(60),
            ..ServeOptions::default()
        },
    )
    .ok()?;

    let mut client = PolicyClient::connect(server.endpoint()).ok()?;
    let mut latencies_us = Vec::with_capacity(paths.len());
    let t0 = Instant::now();
    for path in &paths {
        let t = Instant::now();
        let fetch = client.fetch_path(path).ok()?;
        latencies_us.push(t.elapsed().as_micros() as u64);
        if fetch.source == Source::Store {
            eprintln!("  serve-degraded config: unexpected store hit on a cold key");
        }
    }
    let wall = t0.elapsed();
    latencies_us.sort_unstable();
    let stats = server.stats();
    server.shutdown();
    fleet.shutdown();
    if stats.degraded == 0 {
        eprintln!("  serve-degraded config: no request degraded — figure is not the degraded path");
        return None;
    }
    Some(ServeDegradedResult {
        requests: paths.len(),
        wall,
        latencies_us,
        degraded: stats.degraded,
        breaker_state: stats.breaker_state,
    })
}

fn fleet_chaos_json(
    r: &FleetChaosResult,
    degraded: Option<&ServeDegradedResult>,
    indent: &str,
) -> String {
    let leg = |f: &FleetBenchResult, pad: &str| {
        format!(
            "{{\n{pad}  \"wall_us\": {},\n{pad}  \"units_per_s\": {:.1},\n{pad}  \"retries\": {},\n{pad}  \"timeouts\": {}\n{pad}}}",
            f.wall.as_micros(),
            f.units_per_s(),
            f.retries,
            f.timeouts,
        )
    };
    let p = &r.plan;
    let plan = format!(
        "\"seed={} corrupt={} truncate={} reset={} dup={} delay={}({}ms) per-mille\"",
        p.seed, p.corrupt, p.truncate, p.reset, p.dup, p.delay, p.delay_ms
    );
    let pad = format!("{indent}  ");
    let degraded_json = match degraded {
        Some(d) => format!(
            "{{\n{pad}  \"requests\": {},\n{pad}  \"wall_us\": {},\n{pad}  \"degraded\": {},\n{pad}  \"breaker_state\": {},\n{pad}  \"latency_us\": {{ \"p50\": {}, \"p99\": {} }}\n{pad}}}",
            d.requests,
            d.wall.as_micros(),
            d.degraded,
            d.breaker_state,
            d.percentile_us(0.50),
            d.percentile_us(0.99),
        ),
        None => "null".to_string(),
    };
    format!(
        "{{\n{indent}  \"agents\": {},\n{indent}  \"slots_per_agent\": {},\n{indent}  \"units\": {},\n{indent}  \"authenticated\": true,\n{indent}  \"plan\": {plan},\n{indent}  \"faults_off\": {},\n{indent}  \"faults_on\": {},\n{indent}  \"serve_degraded\": {degraded_json}\n{indent}}}",
        r.faults_off.agents,
        r.faults_off.slots_per_agent,
        r.faults_off.units,
        leg(&r.faults_off, &pad),
        leg(&r.faults_on, &pad),
    )
}

fn fleet_json(r: &FleetBenchResult, indent: &str) -> String {
    format!(
        "{{\n{indent}  \"agents\": {},\n{indent}  \"slots_per_agent\": {},\n{indent}  \"units\": {},\n{indent}  \"wall_us\": {},\n{indent}  \"units_per_s\": {:.1},\n{indent}  \"retries\": {},\n{indent}  \"timeouts\": {}\n{indent}}}",
        r.agents,
        r.slots_per_agent,
        r.units,
        r.wall.as_micros(),
        r.units_per_s(),
        r.retries,
        r.timeouts,
    )
}

/// The serve-path measurement: store-hit request throughput and latency
/// against one daemon.
struct ServeBenchResult {
    clients: usize,
    requests_per_client: usize,
    wall: Duration,
    /// All request latencies in microseconds, sorted ascending.
    latencies_us: Vec<u64>,
    analyses: u64,
    store_hits: u64,
}

impl ServeBenchResult {
    fn total_requests(&self) -> usize {
        self.clients * self.requests_per_client
    }

    fn throughput_rps(&self) -> f64 {
        self.total_requests() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    fn percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let rank = ((self.latencies_us.len() - 1) as f64 * p).round() as usize;
        self.latencies_us[rank]
    }

    fn mean_us(&self) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        (self.latencies_us.iter().sum::<u64>()) / self.latencies_us.len() as u64
    }
}

/// Runs the policy-service load generator: `clients` concurrent
/// connections, `requests_per_client` fetches each, round-robin over the
/// corpus, after a sequential warm pass populates the store (so the
/// timed phase measures the serving path, not the analysis path).
fn run_serve(
    clients: usize,
    requests_per_client: usize,
    images: &[(String, Vec<u8>)],
) -> Option<ServeBenchResult> {
    let dir = std::env::temp_dir().join(format!("bside_bench_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).ok()?;
    let result = run_serve_in(clients, requests_per_client, images, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_serve_in(
    clients: usize,
    requests_per_client: usize,
    images: &[(String, Vec<u8>)],
    dir: &std::path::Path,
) -> Option<ServeBenchResult> {
    let corpus_dir = dir.join("corpus");
    std::fs::create_dir_all(&corpus_dir).ok()?;
    let mut paths: Vec<String> = Vec::with_capacity(images.len());
    for (i, (name, bytes)) in images.iter().enumerate() {
        let path = corpus_dir.join(format!("{i:04}_{name}.elf"));
        std::fs::write(&path, bytes).ok()?;
        paths.push(path.to_str()?.to_string());
    }
    let server = PolicyServer::spawn(
        &Endpoint::Unix(dir.join("bside.sock")),
        ServeOptions {
            store_dir: Some(dir.join("store")),
            threads: clients,
            read_timeout: Duration::from_secs(30),
            ..ServeOptions::default()
        },
    )
    .ok()?;

    // Warm pass: every binary analyzed exactly once, store populated.
    // The warm connection is dropped before the timed phase starts so it
    // does not pin one of the pool's workers (and stall shutdown by its
    // idle read timeout).
    {
        let mut warm = PolicyClient::connect(server.endpoint()).ok()?;
        for path in &paths {
            let fetch = warm.fetch_path(path).ok()?;
            if fetch.source != Source::Analyzed {
                eprintln!("  serve config: unexpected warm-pass store hit");
            }
        }
    }

    let t0 = Instant::now();
    let mut latencies_us: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let paths = &paths;
                let server = &server;
                scope.spawn(move || -> Option<Vec<u64>> {
                    let mut client = PolicyClient::connect(server.endpoint()).ok()?;
                    let mut latencies = Vec::with_capacity(requests_per_client);
                    for r in 0..requests_per_client {
                        let path = &paths[(c + r) % paths.len()];
                        let t = Instant::now();
                        let fetch = client.fetch_path(path).ok()?;
                        latencies.push(t.elapsed().as_micros() as u64);
                        if fetch.source != Source::Store {
                            return None; // the timed phase must be store-served
                        }
                    }
                    Some(latencies)
                })
            })
            .collect();
        let mut all = Vec::with_capacity(clients * requests_per_client);
        let mut ok = true;
        for handle in handles {
            match handle.join().expect("client thread") {
                Some(latencies) => all.extend(latencies),
                None => ok = false,
            }
        }
        ok.then_some(all)
    })?;
    let wall = t0.elapsed();
    latencies_us.sort_unstable();
    let stats = server.stats();
    server.shutdown();
    Some(ServeBenchResult {
        clients,
        requests_per_client,
        wall,
        latencies_us,
        analyses: stats.analyses,
        store_hits: stats.store_hits,
    })
}

/// The C10k measurement: store-hit throughput on a two-thread daemon
/// with and without a crowd of parked keyed watchers, plus the wall time
/// for one targeted invalidate to wake the whole crowd.
struct ServeC10kResult {
    idlers: usize,
    clients: usize,
    requests_per_client: usize,
    baseline: Duration,
    with_idlers: Duration,
    /// Invalidate sent → every idler's wake reply read.
    wake_all: Duration,
}

impl ServeC10kResult {
    /// With-idlers throughput as a fraction of the idle-free baseline
    /// (1.0 = parked watchers are free).
    fn throughput_ratio(&self) -> f64 {
        self.baseline.as_secs_f64() / self.with_idlers.as_secs_f64().max(1e-9)
    }
}

fn run_serve_c10k(
    idlers: usize,
    clients: usize,
    requests_per_client: usize,
    image: &(String, Vec<u8>),
) -> Option<ServeC10kResult> {
    let dir = std::env::temp_dir().join(format!("bside_bench_c10k_{}", std::process::id()));
    std::fs::create_dir_all(&dir).ok()?;
    let result = run_serve_c10k_in(idlers, clients, requests_per_client, image, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_serve_c10k_in(
    idlers: usize,
    clients: usize,
    requests_per_client: usize,
    (name, bytes): &(String, Vec<u8>),
    dir: &std::path::Path,
) -> Option<ServeC10kResult> {
    use std::io::{BufRead, Write};
    let path = dir.join(format!("{name}.elf"));
    std::fs::write(&path, bytes).ok()?;
    let path = path.to_str()?.to_string();
    let socket = dir.join("bside.sock");
    let server = PolicyServer::spawn(
        &Endpoint::Unix(socket.clone()),
        ServeOptions {
            threads: 2, // the headline: two threads, thousands of watches
            read_timeout: Duration::from_secs(30),
            ..ServeOptions::default()
        },
    )
    .ok()?;

    let mut control = PolicyClient::connect(server.endpoint()).ok()?;
    let first = control.fetch_path(&path).ok()?;

    let hammer = |threads: usize, rounds: usize| -> Option<Duration> {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let path = &path;
                    let server = &server;
                    scope.spawn(move || -> Option<()> {
                        let mut client = PolicyClient::connect(server.endpoint()).ok()?;
                        for _ in 0..rounds {
                            let fetch = client.fetch_path(path).ok()?;
                            if fetch.source != Source::Store {
                                return None;
                            }
                        }
                        Some(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("client thread"))
        })?;
        Some(t0.elapsed())
    };

    // Warm, then best-of-two on both legs so scheduler noise hits the
    // baseline and the loaded run symmetrically.
    hammer(clients, requests_per_client / 4 + 1)?;
    let baseline = hammer(clients, requests_per_client)?.min(hammer(clients, requests_per_client)?);

    // Park the idler crowd: raw keyed `watch` frames, one socket each,
    // no reply read — exactly how a fleet of enforcement agents idles.
    let mut watchers: Vec<std::io::BufReader<std::os::unix::net::UnixStream>> = (0..idlers)
        .map(|_| {
            let stream = std::os::unix::net::UnixStream::connect(&socket).expect("idler connects");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("read timeout");
            let mut reader = std::io::BufReader::new(stream);
            let mut hello = String::new();
            reader.read_line(&mut hello).expect("hello");
            let frame = format!(
                "{{\"type\":\"watch\",\"generation\":{},\"key\":\"{}\"}}\n",
                first.generation, first.key
            );
            reader.get_mut().write_all(frame.as_bytes()).expect("park");
            reader
        })
        .collect();
    let parked_by = Instant::now() + Duration::from_secs(30);
    while server.parked_watches() < idlers as u64 && Instant::now() < parked_by {
        std::thread::sleep(Duration::from_millis(5));
    }
    if server.parked_watches() < idlers as u64 {
        return None;
    }

    let with_idlers =
        hammer(clients, requests_per_client)?.min(hammer(clients, requests_per_client)?);

    // One targeted invalidate wakes the entire crowd; time to last reply.
    let t0 = Instant::now();
    let (removed, _) = control.invalidate(&first.key).ok()?;
    if !removed {
        return None;
    }
    for watcher in &mut watchers {
        let mut line = String::new();
        watcher.read_line(&mut line).ok()?;
        if !line.contains("\"generation\"") {
            return None;
        }
    }
    let wake_all = t0.elapsed();
    server.shutdown();
    Some(ServeC10kResult {
        idlers,
        clients,
        requests_per_client,
        baseline,
        with_idlers,
        wake_all,
    })
}

/// The cold-storm measurement: N clients hit one *cold* key at once and
/// the single-flight table should collapse them into one analysis.
struct ColdStormResult {
    clients: usize,
    wall: Duration,
    analyses: u64,
    coalesced: u64,
    store_hits: u64,
}

impl ColdStormResult {
    /// Analyses beyond the one the key needed — what the storm would
    /// have wasted without single-flight (up to `clients - 1`).
    fn duplicated(&self) -> u64 {
        self.analyses.saturating_sub(1)
    }
}

/// Spawns a fresh daemon (empty store), fires `clients` concurrent
/// fetches of the same cold binary, and reads the coalescing off the
/// server's counters.
fn run_cold_storm(clients: usize, image: &(String, Vec<u8>)) -> Option<ColdStormResult> {
    let dir = std::env::temp_dir().join(format!("bside_bench_storm_{}", std::process::id()));
    std::fs::create_dir_all(&dir).ok()?;
    let result = run_cold_storm_in(clients, image, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_cold_storm_in(
    clients: usize,
    (name, bytes): &(String, Vec<u8>),
    dir: &std::path::Path,
) -> Option<ColdStormResult> {
    let path = dir.join(format!("{name}.elf"));
    std::fs::write(&path, bytes).ok()?;
    let path = path.to_str()?.to_string();
    let server = PolicyServer::spawn(
        &Endpoint::Unix(dir.join("bside.sock")),
        ServeOptions {
            threads: clients + 2,
            read_timeout: Duration::from_secs(60),
            ..ServeOptions::default()
        },
    )
    .ok()?;

    let barrier = std::sync::Barrier::new(clients);
    let t0 = Instant::now();
    let ok = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let barrier = &barrier;
                let path = &path;
                let server = &server;
                scope.spawn(move || -> Option<()> {
                    // Connect before the barrier but only early-return
                    // after it: a thread bailing out pre-wait would
                    // strand the other N-1 on the barrier forever.
                    let client = PolicyClient::connect(server.endpoint());
                    barrier.wait();
                    let mut client = client.ok()?;
                    let fetch = client.fetch_path(path).ok()?;
                    matches!(
                        fetch.source,
                        Source::Analyzed | Source::Coalesced | Source::Store
                    )
                    .then_some(())
                })
            })
            .collect();
        handles
            .into_iter()
            .all(|h| h.join().expect("storm client").is_some())
    });
    let wall = t0.elapsed();
    let stats = server.stats();
    server.shutdown();
    ok.then_some(ColdStormResult {
        clients,
        wall,
        analyses: stats.analyses,
        coalesced: stats.coalesced,
        store_hits: stats.store_hits,
    })
}

/// The telemetry-overhead measurement: the serve and fleet legs timed
/// twice — once with span/histogram recording on (the default) and once
/// with [`bside_obs::set_enabled`]`(false)` turning every record site
/// into a relaxed load and a branch. The acceptance bar is the enabled
/// figure staying within a few percent of the no-op figure; the gap is
/// what observability costs on the hot paths.
struct TelemetryOverheadResult {
    serve_on: ServeBenchResult,
    serve_off: ServeBenchResult,
    fleet_on: FleetBenchResult,
    fleet_off: FleetBenchResult,
}

/// `(on - off) / off`, as a percentage: positive means the instrumented
/// run was slower.
fn overhead_pct(on_wall: Duration, off_wall: Duration) -> f64 {
    let off = off_wall.as_secs_f64().max(1e-9);
    (on_wall.as_secs_f64() - off) / off * 100.0
}

fn run_telemetry_overhead(
    fleet_slots: usize,
    images: &[(String, Vec<u8>)],
) -> Option<TelemetryOverheadResult> {
    // The serve passes are short (~200 sub-millisecond requests), so
    // the enabled and disabled runs are *interleaved* per round and the
    // best of each side kept: an on-block-then-off-block design hands
    // the second block warmed caches and settled CPU state, which on a
    // small container dwarfs what the instrumentation itself costs.
    let mut serve_on: Option<ServeBenchResult> = None;
    let mut serve_off: Option<ServeBenchResult> = None;
    let serve_ok = (|| -> Option<()> {
        for _ in 0..REPEATS {
            bside_obs::set_enabled(true);
            let on = run_serve(2, 100, images)?;
            if serve_on.as_ref().is_none_or(|b| on.wall < b.wall) {
                serve_on = Some(on);
            }
            bside_obs::set_enabled(false);
            let off = run_serve(2, 100, images)?;
            if serve_off.as_ref().is_none_or(|b| off.wall < b.wall) {
                serve_off = Some(off);
            }
        }
        Some(())
    })();
    bside_obs::set_enabled(true);
    serve_ok?;
    let fleet_on = run_fleet(2, fleet_slots, images);
    bside_obs::set_enabled(false);
    let fleet_off = run_fleet(2, fleet_slots, images);
    bside_obs::set_enabled(true);
    Some(TelemetryOverheadResult {
        serve_on: serve_on?,
        serve_off: serve_off?,
        fleet_on: fleet_on?,
        fleet_off: fleet_off?,
    })
}

fn telemetry_overhead_json(r: &TelemetryOverheadResult, indent: &str) -> String {
    format!(
        "{{\n{indent}  \"serve\": {{ \"enabled_rps\": {:.1}, \"disabled_rps\": {:.1}, \"enabled_p99_us\": {}, \"disabled_p99_us\": {}, \"overhead_pct\": {:.2} }},\n{indent}  \"fleet\": {{ \"enabled_units_per_s\": {:.1}, \"disabled_units_per_s\": {:.1}, \"overhead_pct\": {:.2} }}\n{indent}}}",
        r.serve_on.throughput_rps(),
        r.serve_off.throughput_rps(),
        r.serve_on.percentile_us(0.99),
        r.serve_off.percentile_us(0.99),
        overhead_pct(r.serve_on.wall, r.serve_off.wall),
        r.fleet_on.units_per_s(),
        r.fleet_off.units_per_s(),
        overhead_pct(r.fleet_on.wall, r.fleet_off.wall),
    )
}

fn cold_storm_json(r: &ColdStormResult, indent: &str) -> String {
    format!(
        "{{\n{indent}  \"clients\": {},\n{indent}  \"cold_keys\": 1,\n{indent}  \"wall_us\": {},\n{indent}  \"analyses\": {},\n{indent}  \"coalesced\": {},\n{indent}  \"duplicated\": {},\n{indent}  \"store_hits\": {}\n{indent}}}",
        r.clients,
        r.wall.as_micros(),
        r.analyses,
        r.coalesced,
        r.duplicated(),
        r.store_hits,
    )
}

fn serve_json(r: &ServeBenchResult, indent: &str) -> String {
    format!(
        "{{\n{indent}  \"clients\": {},\n{indent}  \"requests_per_client\": {},\n{indent}  \"total_requests\": {},\n{indent}  \"wall_us\": {},\n{indent}  \"throughput_rps\": {:.1},\n{indent}  \"latency_us\": {{ \"mean\": {}, \"p50\": {}, \"p99\": {} }},\n{indent}  \"analyses\": {},\n{indent}  \"store_hits\": {}\n{indent}}}",
        r.clients,
        r.requests_per_client,
        r.total_requests(),
        r.wall.as_micros(),
        r.throughput_rps(),
        r.mean_us(),
        r.percentile_us(0.50),
        r.percentile_us(0.99),
        r.analyses,
        r.store_hits,
    )
}

fn serve_c10k_json(r: &ServeC10kResult, indent: &str) -> String {
    format!(
        "{{\n{indent}  \"idlers\": {},\n{indent}  \"clients\": {},\n{indent}  \"requests_per_client\": {},\n{indent}  \"baseline_wall_us\": {},\n{indent}  \"with_idlers_wall_us\": {},\n{indent}  \"throughput_ratio\": {:.4},\n{indent}  \"wake_all_us\": {}\n{indent}}}",
        r.idlers,
        r.clients,
        r.requests_per_client,
        r.baseline.as_micros(),
        r.with_idlers.as_micros(),
        r.throughput_ratio(),
        r.wake_all.as_micros(),
    )
}

fn phases_json(t: &PipelineTimings, indent: &str) -> String {
    let rows: Vec<String> = t
        .phases()
        .iter()
        .map(|(name, d)| format!("{indent}  \"{name}_us\": {}", d.as_micros()))
        .collect();
    format!("{{\n{}\n{indent}}}", rows.join(",\n"))
}

// ---------------------------------------------------------------------------
// Filter-replay configuration: the per-syscall enforcement cost the
// policy compiler (`bside-filter::compile`) exists to shrink. Each leg
// drives a synthesized trace through the naive linear lowering and the
// gate-checked optimized program via the bounds-checked evaluator and
// records ns/eval plus instruction counts — flat legs for a
// representative application profile and the adversarial BST worst case,
// a phased leg for a real phase automaton.
// ---------------------------------------------------------------------------

struct FilterReplayLeg {
    name: String,
    kind: &'static str,
    gate_pieces: Option<usize>,
    report: bside::filter::replay::ThroughputReport,
}

fn run_filter_replay() -> Vec<FilterReplayLeg> {
    use bside::filter::{bpf::BpfProgram, compile, replay, FilterPolicy};
    const EVENTS: usize = 200_000;
    const SEED: u64 = 0xB51DE;
    let mut legs = Vec::new();

    let profiles = bside::gen::profiles::all_profiles();
    let fattest = profiles
        .iter()
        .max_by_key(|p| p.truth().len())
        .expect("non-empty profile set");
    let worst = bside::gen::profiles::bst_worstcase();
    for (name, set) in [
        (fattest.name.to_string(), fattest.truth()),
        (worst.name.to_string(), worst.truth()),
    ] {
        let policy = FilterPolicy::allow_only(name.clone(), set);
        let naive = BpfProgram::from_policy(&policy);
        let compiled = compile::compile(&policy);
        assert!(
            compiled.report.used_optimized,
            "equivalence gate fell back for {name}: {:?}",
            compiled.report.fallback
        );
        let trace = replay::synthesize_flat_trace(&policy, EVENTS, SEED);
        let report = replay::measure_throughput(&naive, &compiled.program, &trace, REPEATS)
            .expect("well-formed programs");
        legs.push(FilterReplayLeg {
            name,
            kind: "flat",
            gate_pieces: compiled.report.proof.as_ref().map(|p| p.pieces()),
            report,
        });
    }

    // Phased leg: a real automaton (lighttpd's), through the shared-prefix
    // layered compilation. Aggregated sizes are the bundle's total
    // instruction footprint across distinct phase programs.
    let lighttpd = bside::gen::profiles::lighttpd();
    let bundle = bside::serve::derive_bundle(
        "lighttpd",
        &lighttpd.program.image,
        &AnalyzerOptions::default(),
        None,
    )
    .expect("lighttpd derives");
    if !bundle.phases.phases.is_empty() {
        let report = replay::measure_phased_throughput(&bundle.phases, EVENTS, SEED, REPEATS)
            .expect("well-formed phase programs");
        legs.push(FilterReplayLeg {
            name: "lighttpd".to_string(),
            kind: "phased",
            gate_pieces: None,
            report,
        });
    }
    legs
}

fn filter_replay_json(legs: &[FilterReplayLeg], indent: &str) -> String {
    let entries: Vec<String> = legs
        .iter()
        .map(|l| {
            format!(
                "{{\n{indent}    \"name\": \"{}\",\n{indent}    \"kind\": \"{}\",\n{indent}    \"gate_pieces\": {},\n{indent}    \"events\": {},\n{indent}    \"repeats\": {},\n{indent}    \"naive_len\": {},\n{indent}    \"optimized_len\": {},\n{indent}    \"naive_ns_per_eval\": {:.2},\n{indent}    \"optimized_ns_per_eval\": {:.2},\n{indent}    \"speedup\": {:.4}\n{indent}  }}",
                l.name,
                l.kind,
                l.gate_pieces
                    .map_or("null".to_string(), |p| p.to_string()),
                l.report.events,
                l.report.repeats,
                l.report.naive_len,
                l.report.optimized_len,
                l.report.naive_ns_per_eval,
                l.report.optimized_ns_per_eval,
                l.report.speedup(),
            )
        })
        .collect();
    format!(
        "[\n{indent}  {}\n{indent}]",
        entries.join(&format!(",\n{indent}  "))
    )
}

fn config_json(r: &ConfigResult, indent: &str) -> String {
    let counts: Vec<String> = r
        .syscall_counts
        .iter()
        .map(|(name, n)| format!("\"{name}\": {n}"))
        .collect();
    format!(
        "{{\n{indent}  \"parallelism\": {},\n{indent}  \"wall_us\": {},\n{indent}  \"phase_totals\": {},\n{indent}  \"identified_syscalls\": {{ {} }}\n{indent}}}",
        r.parallelism,
        r.wall.as_micros(),
        phases_json(&r.phases, &format!("{indent}  ")),
        counts.join(", "),
    )
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());

    // The six application profiles plus a deterministic slice of the
    // Table 2 synthetic corpus (static binaries only — the batch API's
    // per-binary unit), so the measurement covers varied code shapes and
    // enough work to time meaningfully. Images ride along for the
    // distributed configuration, whose coordinator reads from disk.
    let mut binaries: Vec<(String, bside::elf::Elf)> = Vec::new();
    let mut images: Vec<(String, Vec<u8>)> = Vec::new();
    for p in all_profiles() {
        images.push((p.name.to_string(), p.program.image.clone()));
        binaries.push((p.name.to_string(), p.program.elf));
    }
    let corpus = corpus_with_size(DEFAULT_SEED, 48, 0, 0);
    for (i, b) in corpus.binaries.into_iter().enumerate() {
        let name = format!("{}_{i}", b.program.spec.name);
        images.push((name.clone(), b.program.image.clone()));
        binaries.push((name, b.program.elf));
    }
    eprintln!(
        "bench_snapshot: {} binaries, {} repeats per config",
        binaries.len(),
        REPEATS
    );

    // Worker count for the parallel configuration: all cores, unless
    // BSIDE_BENCH_PARALLELISM pins it (useful for scaling curves and for
    // exercising the threaded path on small machines).
    let ncpus = std::env::var("BSIDE_BENCH_PARALLELISM")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(bside::core::default_parallelism);
    let sequential = run_config(1, &binaries);
    eprintln!(
        "  sequential (parallelism=1): {:.1} ms wall | {}",
        sequential.wall.as_secs_f64() * 1e3,
        sequential.phases
    );
    let parallel = run_config(ncpus, &binaries);
    eprintln!(
        "  parallel   (parallelism={ncpus}): {:.1} ms wall | {}",
        parallel.wall.as_secs_f64() * 1e3,
        parallel.phases
    );

    let speedup = sequential.wall.as_secs_f64() / parallel.wall.as_secs_f64().max(1e-9);
    eprintln!("  end-to-end speedup: {speedup:.2}x on {ncpus} cpu(s)");

    // Distributed configuration: local agent *processes* instead of
    // threads. Same count as the thread configuration (at least 2 so the
    // multi-process path is exercised even on a 1-CPU container).
    let dist_workers = ncpus.max(2);
    let distributed = run_distributed(dist_workers, &images);
    let (dist_json, dist_speedup_json) = match &distributed {
        Some(d) => {
            eprintln!(
                "  distributed (workers={dist_workers}): {:.1} ms wall | {}",
                d.wall.as_secs_f64() * 1e3,
                d.phases
            );
            let s = sequential.wall.as_secs_f64() / d.wall.as_secs_f64().max(1e-9);
            eprintln!("  sequential→distributed speedup: {s:.2}x (includes spawn + marshalling)");
            (config_json(d, "  "), format!("{s:.4}"))
        }
        None => {
            eprintln!(
                "  distributed: skipped (cause above if a run failed; \
                 otherwise bside-agent is not built)"
            );
            ("null".to_string(), "null".to_string())
        }
    };

    // Fleet configuration: the same corpus shipped in band over
    // loopback TCP to 2 in-process agents — the multi-machine
    // trajectory. On a 1-CPU container the figure is marshalling- and
    // base64-dominated (loopback hides the one thing a fleet buys,
    // more machines); it exists so multi-machine hardware has a
    // recorded baseline slot to beat.
    let fleet_slots = dist_workers.div_ceil(2).max(1);
    let fleet = run_fleet(2, fleet_slots, &images);
    let fleet_json_str = match &fleet {
        Some(f) => {
            eprintln!(
                "  fleet      (agents={}, slots/agent={}): {:.1} ms wall | {:.1} units/s | {} retrie(s), {} timeout(s)",
                f.agents,
                f.slots_per_agent,
                f.wall.as_secs_f64() * 1e3,
                f.units_per_s(),
                f.retries,
                f.timeouts,
            );
            fleet_json(f, "  ")
        }
        None => {
            eprintln!("  fleet: skipped (cause above)");
            "null".to_string()
        }
    };

    // Policy-service configuration: the serving path (store hits over a
    // Unix socket), which is what the enforcement point pays per pod
    // launch once the corpus is analyzed.
    let serve_clients = 4usize;
    let serve_requests = 100usize;
    let serve = run_serve(serve_clients, serve_requests, &images);
    let serve_json_str = match &serve {
        Some(s) => {
            eprintln!(
                "  serve      (clients={}, store-hit requests={}): {:.1} ms wall | {:.0} req/s | mean {} us, p50 {} us, p99 {} us",
                s.clients,
                s.total_requests(),
                s.wall.as_secs_f64() * 1e3,
                s.throughput_rps(),
                s.mean_us(),
                s.percentile_us(0.50),
                s.percentile_us(0.99),
            );
            serve_json(s, "  ")
        }
        None => {
            eprintln!("  serve: skipped (daemon spawn or a request failed)");
            "null".to_string()
        }
    };

    // C10k configuration: the readiness loop's claim in one number — a
    // crowd of parked keyed watchers costs the active store-hit path
    // (two worker threads) almost nothing, and one targeted invalidate
    // wakes the whole crowd in one loop turn.
    let c10k_idlers = 1000usize;
    let c10k = run_serve_c10k(c10k_idlers, serve_clients, serve_requests, &images[0]);
    let c10k_json_str = match &c10k {
        Some(c) => {
            eprintln!(
                "  serve-c10k (idlers={}, clients={}): baseline {:.1} ms vs loaded {:.1} ms ({:.1}% throughput) | wake-all {:.1} ms",
                c.idlers,
                c.clients,
                c.baseline.as_secs_f64() * 1e3,
                c.with_idlers.as_secs_f64() * 1e3,
                c.throughput_ratio() * 100.0,
                c.wake_all.as_secs_f64() * 1e3,
            );
            serve_c10k_json(c, "  ")
        }
        None => {
            eprintln!("  serve-c10k: skipped (daemon spawn or a request failed)");
            "null".to_string()
        }
    };

    // Cold-storm configuration: 16 clients, one cold key, single-flight
    // coalescing observable as `analyses == 1, duplicated == 0` (without
    // it the storm would burn up to 16 identical analyses). The largest
    // image maximizes the analysis window followers can land in; on a
    // 1-CPU container most followers still arrive after the flight and
    // count as store hits — `duplicated == 0` is the claim either way.
    let storm_clients = 16usize;
    let storm_image = images
        .iter()
        .max_by_key(|(_, bytes)| bytes.len())
        .expect("non-empty corpus");
    let storm = run_cold_storm(storm_clients, storm_image);
    let storm_json_str = match &storm {
        Some(s) => {
            eprintln!(
                "  cold-storm (clients={}): {:.1} ms wall | {} analysis(es), {} coalesced, {} duplicated",
                s.clients,
                s.wall.as_secs_f64() * 1e3,
                s.analyses,
                s.coalesced,
                s.duplicated(),
            );
            cold_storm_json(s, "  ")
        }
        None => {
            eprintln!("  cold-storm: skipped (daemon spawn or a request failed)");
            "null".to_string()
        }
    };

    // Chaos configuration: the authenticated fleet with and without a
    // seeded fault plan on the wire, plus the serve daemon's degraded
    // mode — the robustness trajectory (what faults cost, and what the
    // service does when the fleet is gone).
    let chaos = run_fleet_chaos(fleet_slots, &images);
    let degraded = run_serve_degraded(&images);
    let chaos_json_str = match &chaos {
        Some(c) => {
            eprintln!(
                "  fleet-chaos (authenticated, faults off): {:.1} ms wall | {:.1} units/s | {} retrie(s)",
                c.faults_off.wall.as_secs_f64() * 1e3,
                c.faults_off.units_per_s(),
                c.faults_off.retries,
            );
            eprintln!(
                "  fleet-chaos (authenticated, faults on):  {:.1} ms wall | {:.1} units/s | {} retrie(s), {} timeout(s)",
                c.faults_on.wall.as_secs_f64() * 1e3,
                c.faults_on.units_per_s(),
                c.faults_on.retries,
                c.faults_on.timeouts,
            );
            if let Some(d) = &degraded {
                eprintln!(
                    "  serve-degraded (no agents, 300ms budget): {} request(s), {} degraded | p50 {} us, p99 {} us",
                    d.requests,
                    d.degraded,
                    d.percentile_us(0.50),
                    d.percentile_us(0.99),
                );
            } else {
                eprintln!("  serve-degraded: skipped (cause above)");
            }
            fleet_chaos_json(c, degraded.as_ref(), "  ")
        }
        None => {
            eprintln!("  fleet-chaos: skipped (cause above)");
            "null".to_string()
        }
    };

    // Telemetry-overhead configuration: serve and fleet timed with span
    // and histogram recording on vs off — what the observability spine
    // costs where it matters.
    let overhead = run_telemetry_overhead(fleet_slots, &images);
    let overhead_json_str = match &overhead {
        Some(o) => {
            eprintln!(
                "  telemetry-overhead (serve): {:.0} req/s enabled vs {:.0} req/s disabled ({:+.2}% wall)",
                o.serve_on.throughput_rps(),
                o.serve_off.throughput_rps(),
                overhead_pct(o.serve_on.wall, o.serve_off.wall),
            );
            eprintln!(
                "  telemetry-overhead (fleet): {:.1} units/s enabled vs {:.1} units/s disabled ({:+.2}% wall)",
                o.fleet_on.units_per_s(),
                o.fleet_off.units_per_s(),
                overhead_pct(o.fleet_on.wall, o.fleet_off.wall),
            );
            telemetry_overhead_json(o, "  ")
        }
        None => {
            eprintln!("  telemetry-overhead: skipped (cause above)");
            "null".to_string()
        }
    };

    // Filter-replay configuration: the enforcement-path cost of the
    // compiled cBPF programs, naive vs optimized.
    let filter_replay = run_filter_replay();
    for l in &filter_replay {
        eprintln!(
            "  filter-replay ({}, {}): naive {} insns @ {:.1} ns/eval | optimized {} insns @ {:.1} ns/eval | speedup {:.2}x",
            l.name,
            l.kind,
            l.report.naive_len,
            l.report.naive_ns_per_eval,
            l.report.optimized_len,
            l.report.optimized_ns_per_eval,
            l.report.speedup(),
        );
    }
    let filter_replay_json_str = filter_replay_json(&filter_replay, "  ");

    let json = format!(
        "{{\n  \"harness\": \"bench_snapshot\",\n  \"corpus\": \"gen::profiles::all_profiles + corpus_with_size(DEFAULT_SEED, 48, 0, 0)\",\n  \"binaries\": {},\n  \"repeats\": {},\n  \"num_cpus\": {},\n  \"sequential\": {},\n  \"parallel\": {},\n  \"speedup\": {:.4},\n  \"distributed\": {},\n  \"speedup_distributed\": {},\n  \"fleet\": {},\n  \"serve\": {},\n  \"serve_c10k\": {},\n  \"serve_cold_storm\": {},\n  \"fleet_chaos\": {},\n  \"telemetry_overhead\": {},\n  \"filter_replay\": {}\n}}\n",
        binaries.len(),
        REPEATS,
        ncpus,
        config_json(&sequential, "  "),
        config_json(&parallel, "  "),
        speedup,
        dist_json,
        dist_speedup_json,
        fleet_json_str,
        serve_json_str,
        c10k_json_str,
        storm_json_str,
        chaos_json_str,
        overhead_json_str,
        filter_replay_json_str,
    );
    std::fs::write(&out_path, &json).expect("write snapshot");
    eprintln!("  wrote {out_path}");
    println!("{json}");
}
