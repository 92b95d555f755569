//! Perf-trajectory snapshot: times the analysis pipeline, the corpus
//! engines, the policy daemon, the fleet under faults and the compiled
//! filters over one multi-binary corpus, plus the paper's ablations as
//! micro cases, and writes `BENCH_pipeline.json` as the baseline later
//! changes compare against.
//!
//! ```text
//! cargo run --release -p bside-bench --bin bench_snapshot [-- <out.json>]
//! ```
//!
//! Each of the eleven configurations runs [`REPEATS`] times through one
//! measurement core ([`repeat`], [`Sample`]). A timed figure (`*_us`,
//! `*_ns_per_eval`, `overhead_pct`) is the median over the runs, with
//! `<key>_range` = `[min, max]` next to it. A rate or per-run ratio is
//! the median of the per-run values; a ratio of two separately run
//! figures (`speedup`, `throughput_ratio`) is the ratio of their medians.
//! A counter (retries, timeouts, analyses, ...) is the largest any run
//! saw, so a 0 holds in every run. Phase totals are CPU-side sums across
//! workers, so they exceed wall clock under parallelism. A `sequential`
//! or `parallel` run analyzes the corpus [`IN_PROCESS_PASSES`] times and
//! reports per-pass figures, so its window is long enough to time; a
//! `micro` run times a batch of one case and reports per iteration.
//!
//! A failed configuration fails the binary, except that `distributed` is
//! `null` (stderr says why) when `bside-agent` is not built next to this
//! binary. stderr gets one progress line per configuration; the output
//! file and stdout get the full record.

use bside::core::{Analyzer, AnalyzerOptions, BinaryAnalysis, LibraryStore, PipelineTimings};
use bside::dist::fault::{set_plan, FaultPlan};
use bside::dist::RunStats;
use bside::elf::Elf;
use bside::filter::replay::{self, ThroughputReport};
use bside::fleet::{analyze_corpus_fleet, run_agent_loop, AgentOptions, AgentReport};
use bside::fleet::{FleetCoordinator, FleetHandle, FleetOptions};
use bside::gen::corpus::{corpus_with_size, DEFAULT_SEED};
use bside::gen::profiles::{all_profiles, hello_world, nginx};
use bside::gen::GeneratedProgram;
use bside::serve::{Endpoint, PolicyClient, PolicyServer, RemoteAnalyzer, Request, ServeOptions};
use bside::serve::{ServerHandle as Server, Source, StatsSnapshot};
use serde::{impl_serde_struct, Value};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Runs per configuration.
const REPEATS: usize = 5;

/// A step's outcome; the error says which step failed and why.
type Res<T> = Result<T, String>;

/// `(name, image bytes)` of corpus binaries.
type Images = [(String, Vec<u8>)];

/// Labels an error with the step that raised it.
fn ctx<E: std::fmt::Display>(step: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{step}: {e}")
}

/// `Err(what())` unless `ok`.
fn ensure(ok: bool, what: impl FnOnce() -> String) -> Res<()> {
    ok.then_some(()).ok_or_else(what)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    (f(), t0.elapsed())
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `count` events per second of `wall`.
fn per_s(count: usize, wall: Duration) -> f64 {
    count as f64 / wall.as_secs_f64().max(1e-9)
}

fn round(x: f64, places: i32) -> f64 {
    (x * 10f64.powi(places)).round() / 10f64.powi(places)
}

/// One figure over the runs of a configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sample {
    median: f64,
    min: f64,
    max: f64,
    runs: usize,
}

impl Sample {
    /// The sample of per-run values (at least one).
    fn of(values: impl IntoIterator<Item = f64>) -> Sample {
        let mut v: Vec<f64> = values.into_iter().collect();
        assert!(!v.is_empty(), "a sample needs at least one run");
        v.sort_by(f64::total_cmp);
        let n = v.len();
        Sample {
            median: (v[(n - 1) / 2] + v[n / 2]) / 2.0,
            min: v[0],
            max: v[n - 1],
            runs: n,
        }
    }

    /// `(median, (min, max))` rounded to whole units.
    fn whole(self) -> (u64, Range<u64>) {
        let r = |x: f64| x.round() as u64;
        (r(self.median), (r(self.min), r(self.max)))
    }

    /// `(median, (min, max))` rounded to `places` decimals.
    fn places(self, places: i32) -> (f64, Range<f64>) {
        let r = |x| round(x, places);
        (r(self.median), (r(self.min), r(self.max)))
    }
}

/// What each run of a configuration returned.
struct Runs<T>(Vec<T>);

impl<T> Runs<T> {
    fn sample(&self, figure: impl Fn(&T) -> f64) -> Sample {
        Sample::of(self.0.iter().map(figure))
    }

    /// The largest value of a counter over the runs.
    fn max(&self, counter: impl Fn(&T) -> u64) -> u64 {
        self.0.iter().map(counter).max().unwrap_or(0)
    }
}

/// Runs `run` [`REPEATS`] times; the first failed run fails the
/// configuration.
fn repeat<T>(mut run: impl FnMut() -> Res<T>) -> Res<Runs<T>> {
    (0..REPEATS).map(|_| run()).collect::<Res<_>>().map(Runs)
}

/// [`repeat`] with telemetry recording on, then off, in every round: a
/// second block would run on warmed caches, which dwarfs recording costs.
fn interleaved<T>(mut run: impl FnMut() -> Res<T>) -> Res<(Runs<T>, Runs<T>)> {
    let pairs = repeat(|| {
        bside_obs::set_enabled(true);
        let on = run()?;
        bside_obs::set_enabled(false);
        Ok((on, run()?))
    });
    bside_obs::set_enabled(true);
    let (on, off) = pairs?.0.into_iter().unzip();
    Ok((Runs(on), Runs(off)))
}

/// Per-pair `(on - off) / off` of interleaved walls, in percent.
fn overhead_pct<T>(on: &Runs<T>, off: &Runs<T>, wall: impl Fn(&T) -> Duration) -> Sample {
    let pct = |(a, b): (&T, &T)| (us(wall(a)) - us(wall(b))) / us(wall(b)).max(1e-9) * 100.0;
    Sample::of(on.0.iter().zip(&off.0).map(pct))
}

/// Runs `task(0..n)` on `n` scoped threads; the first failure wins.
fn in_parallel<T: Send>(n: usize, task: impl Fn(usize) -> Res<T> + Sync) -> Res<Vec<T>> {
    std::thread::scope(|scope| {
        let task = &task;
        let handles: Vec<_> = (0..n).map(|i| scope.spawn(move || task(i))).collect();
        let joined = handles.into_iter().map(|h| h.join().expect("task thread"));
        joined.collect()
    })
}

/// The `p` quantile (0..=1) of sorted values; 0 when empty.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    let rank = (sorted.len().saturating_sub(1) as f64 * p).round() as usize;
    sorted.get(rank).map_or(0.0, |&v| v as f64)
}

/// A scratch directory under the system temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Res<Scratch> {
        let dir = std::env::temp_dir().join(format!("bside_bench_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(ctx("scratch dir"))?;
        Ok(Scratch(dir))
    }

    /// Writes each image as `{i:04}_{name}.elf`; returns `(name, path)`.
    fn materialize(&self, images: &Images) -> Res<Vec<(String, PathBuf)>> {
        let write = |(i, (name, bytes)): (usize, &(String, Vec<u8>))| {
            let path = self.0.join(format!("{i:04}_{name}.elf"));
            std::fs::write(&path, bytes).map_err(ctx("write corpus"))?;
            Ok((name.clone(), path))
        };
        images.iter().enumerate().map(write).collect()
    }

    /// [`Scratch::materialize`] as the path strings serve clients send.
    fn paths(&self, images: &Images) -> Res<Vec<String>> {
        let units = self.materialize(images)?.into_iter();
        Ok(units.map(|(_, p)| p.to_string_lossy().into()).collect())
    }

    /// A policy daemon with `threads` workers on a socket here, its
    /// store here when `store`, offloading misses to `remote`.
    fn daemon(&self, threads: usize, store: bool, remote: Option<RemoteAnalyzer>) -> Res<Server> {
        let options = ServeOptions {
            threads,
            store_dir: store.then(|| self.0.join("store")),
            remote_analyzer: remote,
            read_timeout: Duration::from_secs(60),
            ..ServeOptions::default()
        };
        let endpoint = Endpoint::Unix(self.0.join("bside.sock"));
        PolicyServer::spawn(&endpoint, options).map_err(ctx("serve spawn"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One pass over the corpus.
struct Pass {
    wall: Duration,
    phases: PipelineTimings,
    counts: Vec<(String, usize)>,
}

impl Pass {
    fn new<'a, E: std::fmt::Display + 'a>(
        wall: Duration,
        results: impl Iterator<Item = (&'a str, Result<&'a BinaryAnalysis, E>)>,
    ) -> Res<Pass> {
        let mut phases = PipelineTimings::new();
        let mut counts = Vec::new();
        for (name, result) in results {
            let analysis = result.map_err(|e| format!("{name} failed to analyze: {e}"))?;
            phases.record(&analysis.stats.timings);
            counts.push((name.to_string(), analysis.syscalls.len()));
        }
        Ok(Pass {
            wall,
            phases,
            counts,
        })
    }

    /// Folds a run of `passes` identical passes over `n` binaries into
    /// per-pass figures. Fails when two passes disagree on a count.
    fn per_pass(mut self, passes: u32, n: usize) -> Res<Pass> {
        let first = &self.counts[..n];
        let agree = self.counts.chunks(n).all(|c| c == first);
        ensure(agree, || "passes disagree on syscall counts".to_string())?;
        self.counts.truncate(n);
        self.wall /= passes;
        let t = &mut self.phases;
        t.binaries = n;
        let totals = [
            &mut t.cfg_recovery,
            &mut t.wrapper_identification,
            &mut t.syscall_identification,
            &mut t.total,
        ];
        totals.into_iter().for_each(|d| *d /= passes);
        Ok(self)
    }
}

/// Passes over the corpus slice in one in-process run. One pass takes a
/// few milliseconds, too short to time the thread engine: a single slow
/// run widened the parallel range to 2x. Every figure is still per pass.
const IN_PROCESS_PASSES: u32 = 20;

fn run_in_process(parallelism: usize, binaries: &[(String, Elf)]) -> Res<Runs<Pass>> {
    let analyzer = Analyzer::new(AnalyzerOptions {
        parallelism,
        ..AnalyzerOptions::default()
    });
    let n = binaries.len();
    let work: Vec<(&str, &Elf)> = binaries
        .iter()
        .map(|(n, e)| (n.as_str(), e))
        .cycle()
        .take(n * IN_PROCESS_PASSES as usize)
        .collect();
    repeat(|| {
        let (results, wall) = timed(|| analyzer.analyze_corpus(&work));
        let rows = results.iter().map(|(n, r)| (n.as_str(), r.as_ref()));
        Pass::new(wall, rows)?.per_pass(IN_PROCESS_PASSES, n)
    })
}

/// `None` when the `bside-agent` binary is not built.
fn run_distributed(workers: usize, images: &Images) -> Res<Option<ConfigReport>> {
    if let Err(e) = bside::fleet::resolve_agent_bin(None) {
        eprintln!("  distributed: null, bside-agent is not built ({e})");
        return Ok(None);
    }
    let scratch = Scratch::new("dist")?;
    let units = scratch.materialize(images)?;
    let agents = bside::fleet::LocalAgents {
        workers,
        ..bside::fleet::LocalAgents::default()
    };
    let run = || bside::fleet::analyze_corpus_local(&units, FleetOptions::default(), &agents);
    let runs = repeat(|| {
        let (run, wall) = timed(run);
        let results = run.map_err(ctx("distributed run"))?.results;
        let rows = results.iter().map(|u| (u.name.as_str(), u.result.as_ref()));
        Pass::new(wall, rows)
    })?;
    let report = ConfigReport::of(workers, &runs)?;
    progress("distributed", &report);
    Ok(Some(report))
}

/// Agents in every fleet rig.
const FLEET_AGENTS: usize = 2;

/// A loopback TCP coordinator with [`FLEET_AGENTS`] in-thread agents
/// under the reconnect supervisor. The retry budget (64 attempts, 30 s
/// per unit) and the fast redial only come into play under faults.
struct FleetRig {
    handle: FleetHandle,
    agents: Vec<std::thread::JoinHandle<std::io::Result<AgentReport>>>,
}

/// One timed pass of the corpus through a fleet.
struct FleetPass {
    wall: Duration,
    stats: RunStats,
}

impl FleetRig {
    fn start(slots: usize, secret: Option<&str>) -> Res<FleetRig> {
        let secret = secret.map(str::to_string);
        let options = FleetOptions {
            unit_timeout: Duration::from_secs(30),
            max_attempts: 64,
            secret: secret.clone(),
            ..FleetOptions::default()
        };
        let handle = FleetCoordinator::bind(&Endpoint::Tcp("127.0.0.1:0".to_string()), options)
            .map_err(ctx("fleet bind"))?;
        let spawn = |i: u64| {
            let endpoint = handle.endpoint().clone();
            let options = AgentOptions {
                slots,
                secret: secret.clone(),
                backoff_base: Duration::from_millis(5),
                backoff_cap: Duration::from_millis(50),
                backoff_seed: Some(21 + i),
                ..AgentOptions::default()
            };
            std::thread::spawn(move || run_agent_loop(&endpoint, &options))
        };
        let agents = (0..FLEET_AGENTS as u64).map(spawn).collect();
        let rig = FleetRig { handle, agents };
        rig.full(Duration::from_secs(30))?;
        Ok(rig)
    }

    /// Waits until every agent is connected.
    fn full(&self, timeout: Duration) -> Res<()> {
        let full = self.handle.wait_for_agents(FLEET_AGENTS, timeout);
        ensure(full, || "fleet agents failed to register".to_string())
    }

    /// Pushes the units through once, starting from a full fleet.
    fn run(&self, units: &[(String, PathBuf)]) -> Res<FleetPass> {
        self.full(Duration::from_secs(10))?;
        let (run, wall) = timed(|| analyze_corpus_fleet(units, &self.handle));
        let stats = run.map_err(ctx("fleet run"))?.stats;
        ensure(stats.failures == 0, || format!("fleet: {stats:?}"))?;
        Ok(FleetPass { wall, stats })
    }

    /// Says goodbye to the agents once all are back, and joins them.
    fn stop(self) {
        let _ = self.full(Duration::from_secs(10));
        self.handle.shutdown();
        for agent in self.agents {
            let _ = agent.join();
        }
    }
}

fn chaos_plan() -> FaultPlan {
    let spec = "seed=11,corrupt=30,truncate=10,reset=10,dup=30,delay=20,delay_ms=1";
    FaultPlan::parse(spec).expect("a valid fault plan")
}

/// One pass against a fresh daemon: the timed part's wall clock, its
/// sorted request latencies (µs) and the daemon's counters after it.
struct DaemonPass {
    wall: Duration,
    latencies: Vec<u64>,
    stats: StatsSnapshot,
}

/// Runs `drive` against a fresh daemon with an empty store and the
/// images on disk; `drive` returns the timed wall clock and latencies.
fn daemon_pass(
    images: &Images,
    (threads, remote): (usize, Option<RemoteAnalyzer>),
    drive: impl FnOnce(&Server, &[String]) -> Res<(Duration, Vec<u64>)>,
) -> Res<DaemonPass> {
    let scratch = Scratch::new("daemon")?;
    let paths = scratch.paths(images)?;
    let server = scratch.daemon(threads, true, remote)?;
    let (wall, mut latencies) = drive(&server, &paths)?;
    latencies.sort_unstable();
    let stats = server.stats();
    server.shutdown();
    Ok(DaemonPass {
        wall,
        latencies,
        stats,
    })
}

/// `clients` connections, all connected before any fetch, then
/// `requests` fetches each (client `c`'s `r`-th of `paths[(c + r) % len]`,
/// a store hit if `hits`). Returns the wall clock and latencies (µs).
fn hammer(
    server: &Server,
    paths: &[String],
    (clients, requests): (usize, usize),
    hits: bool,
) -> Res<(Duration, Vec<u64>)> {
    let barrier = std::sync::Barrier::new(clients);
    let client = |c: usize| -> Res<Vec<u64>> {
        // Connect before the barrier but fail only after it: a thread
        // bailing out early would strand the others.
        let client = PolicyClient::connect(server.endpoint());
        barrier.wait();
        let mut client = client.map_err(ctx("connect"))?;
        let fetch = |r: usize| {
            let (fetch, took) = timed(|| client.fetch_path(&paths[(c + r) % paths.len()]));
            let source = fetch.map_err(ctx("fetch"))?.source;
            let hit = !hits || source == Source::Store;
            ensure(hit, || format!("expected a store hit, got {source:?}"))?;
            Ok(took.as_micros() as u64)
        };
        (0..requests).map(fetch).collect()
    };
    let (per_client, wall) = timed(|| in_parallel(clients, client));
    Ok((wall, per_client?.concat()))
}

/// A sequential warm pass that analyzes every binary once, then the
/// timed store-hit [`hammer`].
fn serve_pass(clients: usize, requests: usize, images: &Images) -> Res<DaemonPass> {
    daemon_pass(images, (clients, None), |server, paths| {
        hammer(server, paths, (1, paths.len()), false)?;
        hammer(server, paths, (clients, requests), true)
    })
}

/// `clients` concurrent fetches of one cold binary; the single-flight
/// table should run one analysis.
fn storm_pass(clients: usize, image: &(String, Vec<u8>)) -> Res<DaemonPass> {
    let storm = |server: &Server, paths: &[String]| hammer(server, paths, (clients, 1), false);
    daemon_pass(std::slice::from_ref(image), (clients + 2, None), storm)
}

/// Degraded mode: the fleet offload has no agents and a 300 ms budget, so
/// each miss waits out the budget (until the breaker opens) and falls
/// back to a local derivation. One client fetches every binary cold.
fn degraded_pass(images: &Images) -> Res<DaemonPass> {
    let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
    let fleet = FleetCoordinator::bind(&endpoint, FleetOptions::default());
    let fleet = fleet.map_err(ctx("fleet bind"))?;
    let offload = bside::fleet::serve_offload(fleet.submitter(), Duration::from_millis(300));
    let cold = |server: &Server, paths: &[String]| hammer(server, paths, (1, paths.len()), false);
    let pass = daemon_pass(images, (4, Some(offload)), cold)?;
    fleet.shutdown();
    let degraded = pass.stats.degraded > 0;
    ensure(degraded, || "no request took the degraded path".to_string())?;
    Ok(pass)
}

/// An idle keyed watcher: a raw socket past the daemon's hello.
fn idler(socket: &std::path::Path) -> Res<BufReader<UnixStream>> {
    let stream = UnixStream::connect(socket).map_err(ctx("idler connect"))?;
    let timeout = stream.set_read_timeout(Some(Duration::from_secs(30)));
    timeout.map_err(ctx("idler read timeout"))?;
    let mut reader = BufReader::new(stream);
    let hello = reader.read_line(&mut String::new());
    hello.map_err(ctx("idler hello"))?;
    Ok(reader)
}

/// C10k on a two-thread daemon: store-hit hammer runs without watchers,
/// then per run: park `idlers` keyed watches (one socket each, as idle
/// enforcement agents), hammer, and time one invalidate waking them all.
fn run_c10k(
    idlers: usize,
    clients: usize,
    requests: usize,
    image: &(String, Vec<u8>),
) -> Res<(Runs<Duration>, Runs<[Duration; 2]>)> {
    let scratch = Scratch::new("c10k")?;
    let paths = scratch.paths(std::slice::from_ref(image))?;
    let server = scratch.daemon(2, false, None)?;
    let mut control = PolicyClient::connect(server.endpoint()).map_err(ctx("connect"))?;
    control.fetch_path(&paths[0]).map_err(ctx("fetch"))?;
    hammer(&server, &paths, (clients, requests / 4 + 1), true)?;
    let baseline = repeat(|| Ok(hammer(&server, &paths, (clients, requests), true)?.0))?;

    let socket = scratch.0.join("bside.sock");
    let mut watchers: Vec<_> = (0..idlers).map(|_| idler(&socket)).collect::<Res<_>>()?;
    let loaded = repeat(|| {
        // The previous run's invalidate dropped the key; fetching it
        // again makes the hammer store hits again.
        let fetch = control.fetch_path(&paths[0]).map_err(ctx("fetch"))?;
        let watch = Request::Watch {
            generation: fetch.generation,
            key: Some(fetch.key.clone()),
        };
        let frame = serde_json::to_string(&watch).map_err(ctx("encode watch"))? + "\n";
        for watcher in &mut watchers {
            let park = watcher.get_mut().write_all(frame.as_bytes());
            park.map_err(ctx("park"))?;
        }
        let parked_by = Instant::now() + Duration::from_secs(30);
        while server.parked_watches() < idlers as u64 && Instant::now() < parked_by {
            std::thread::sleep(Duration::from_millis(5));
        }
        let parked = server.parked_watches();
        let all_parked = parked >= idlers as u64;
        ensure(all_parked, || format!("only {parked} of {idlers} parked"))?;
        let (with_idlers, _) = hammer(&server, &paths, (clients, requests), true)?;
        let t0 = Instant::now();
        let (removed, _) = control.invalidate(&fetch.key).map_err(ctx("invalidate"))?;
        ensure(removed, || "invalidate removed nothing".to_string())?;
        for watcher in &mut watchers {
            let mut line = String::new();
            watcher.read_line(&mut line).map_err(ctx("wake"))?;
            let woke = line.contains("\"generation\"");
            ensure(woke, || format!("a watcher woke with {line}"))?;
        }
        Ok([with_idlers, t0.elapsed()])
    })?;
    server.shutdown();
    Ok((baseline, loaded))
}

/// Flat legs for the fattest application profile and the adversarial
/// BST worst case, a phased leg for lighttpd's automaton (sizes summed
/// over its phase programs); each run replays the trace once.
fn run_filter_replay() -> Res<Vec<FilterLeg>> {
    use bside::filter::{bpf::BpfProgram, compile, FilterPolicy};
    const EVENTS: usize = 200_000;
    const SEED: u64 = 0xB51DE;
    let profiles = all_profiles();
    let fattest = profiles.iter().max_by_key(|p| p.truth().len());
    let fattest = fattest.expect("non-empty profile set");
    let worst = bside::gen::profiles::bst_worstcase();
    let mut legs = Vec::new();
    for (name, set) in [(fattest.name, fattest.truth()), (worst.name, worst.truth())] {
        let policy = FilterPolicy::allow_only(name.to_string(), set);
        let naive = BpfProgram::from_policy(&policy);
        let compiled = compile::compile(&policy);
        let report = &compiled.report;
        ensure(report.used_optimized, || {
            format!("{name}: {:?}", report.fallback)
        })?;
        let trace = replay::synthesize_flat_trace(&policy, EVENTS, SEED);
        let replay = || replay::measure_throughput(&naive, &compiled.program, &trace, 1);
        let runs = repeat(|| replay().map_err(ctx("replay")))?;
        let pieces = report.proof.as_ref().map(|p| p.pieces());
        legs.push(FilterLeg::of(name, "flat", pieces, &runs));
    }

    let lighttpd = bside::gen::profiles::lighttpd();
    let options = AnalyzerOptions::default();
    let bundle = bside::serve::derive_bundle("lighttpd", &lighttpd.program.image, &options, None)
        .map_err(ctx("derive lighttpd"))?;
    if !bundle.phases.phases.is_empty() {
        let replay = || replay::measure_phased_throughput(&bundle.phases, EVENTS, SEED, 1);
        let runs = repeat(|| replay().map_err(ctx("phased replay")))?;
        legs.push(FilterLeg::of("lighttpd", "phased", None, &runs));
    }
    Ok(legs)
}

/// What one micro-case run should take: the warm-up iteration sizes a
/// batch this long, so a µs case is timed over thousands of iterations
/// and a tens-of-ms case once per run.
const MICRO_BATCH: Duration = Duration::from_millis(20);

/// Per-iteration µs of `case` over [`REPEATS`] runs of one batch each,
/// after one warm-up iteration; the first error fails the case.
fn per_iteration<T>(mut case: impl FnMut() -> Res<T>) -> Res<Runs<f64>> {
    let (warm, took) = timed(&mut case);
    std::hint::black_box(warm?);
    let iters = MICRO_BATCH.as_nanos() / took.max(Duration::from_micros(1)).as_nanos();
    let iters = iters.max(1) as u32;
    repeat(|| {
        let batch = || (0..iters).try_for_each(|_| case().map(|v| drop(std::hint::black_box(v))));
        let (done, wall) = timed(batch);
        done.map(|()| us(wall) / f64::from(iters))
    })
}

/// A micro-case input: an ELF, its image and, for a dynamic binary, the
/// library store it resolves against.
struct MicroInput {
    name: String,
    image: Vec<u8>,
    elf: Elf,
    libs: Option<LibraryStore>,
}

impl MicroInput {
    fn text(&self) -> Res<(&[u8], u64)> {
        self.elf
            .text()
            .ok_or_else(|| format!("{}: no .text", self.name))
    }
}

/// `hello_world`, `nginx`, and the static and the dynamic binary of the
/// seed-1 Table 2 corpus whose `.text` is closest to the corpus median
/// (the shape `derive_debian` spends its time on).
fn micro_inputs() -> Res<Vec<MicroInput>> {
    let corpus = corpus_with_size(1, 231, 326, 59);
    let text_len = |elf: &Elf| elf.text().map_or(0, |(t, _)| t.len());
    let mut lens: Vec<usize> = corpus
        .binaries
        .iter()
        .map(|b| text_len(&b.program.elf))
        .collect();
    lens.sort_unstable();
    let median = lens[lens.len() / 2];
    let nearest = |is_static: bool| {
        let kind = corpus.binaries.iter().filter(|b| b.is_static == is_static);
        let binary = kind.min_by_key(|b| text_len(&b.program.elf).abs_diff(median));
        binary
            .map(|b| b.program.clone())
            .ok_or("corpus lacks a binary kind")
    };
    let libraries = corpus
        .libraries
        .iter()
        .map(|l| (l.spec.name.as_str(), &l.elf));
    let libraries: Vec<(&str, &Elf)> = libraries.collect();
    let libs = Analyzer::new(AnalyzerOptions::default()).analyze_libraries(&libraries);
    let libs = libs.map_err(ctx("library store"))?;
    let input = |name: &str, program: GeneratedProgram, libs| MicroInput {
        name: name.to_string(),
        image: program.image,
        elf: program.elf,
        libs,
    };
    Ok(vec![
        input("hello", hello_world().program, None),
        input("nginx", nginx().program, None),
        input("median_static", nearest(true)?, None),
        input("median_dynamic", nearest(false)?, Some(libs)),
    ])
}

/// One micro case: its per-iteration runs and, for a codec case, the
/// size in bytes of the frame it moves.
struct MicroCase {
    name: String,
    runs: Runs<f64>,
    frame_bytes: Option<usize>,
}

impl MicroCase {
    fn timed(name: impl Into<String>, runs: Runs<f64>) -> MicroCase {
        MicroCase {
            name: name.into(),
            runs,
            frame_bytes: None,
        }
    }
}

/// The micro cases, each timed per iteration by [`per_iteration`]:
/// decoder throughput, CFG recovery under each indirect-branch mode
/// (§4.3), identification with the wrapper heuristic on and off and
/// with directed search on and off (§4.4; `wrappers_on` is the directed
/// figure), the phase automaton against naive CFG navigation (§4.7),
/// and the wire codec of a fleet unit, its result and a policy reply.
fn run_micro() -> Res<Vec<MicroCase>> {
    use bside::cfg::{Cfg, CfgOptions, FunctionSym, IndirectResolution};
    use bside::core::phase::{detect_phases, detect_phases_naive, PhaseOptions};
    let mut cases = Vec::new();
    let inputs = micro_inputs()?;

    let nginx = &inputs[1];
    let (code, vaddr) = nginx.text()?;
    let decode = per_iteration(|| Ok(bside::x86::decode_all(std::hint::black_box(code), vaddr)));
    cases.push(MicroCase::timed("decode_all/nginx", decode?));

    for input in &inputs {
        let (code, vaddr) = input.text()?;
        let symbols = input.elf.function_symbols().into_iter();
        let funcs: Vec<FunctionSym> = symbols
            .map(|s| FunctionSym {
                name: s.name.clone(),
                entry: s.value,
                size: s.size,
            })
            .collect();
        let entry = [input.elf.entry_point()];
        for (label, indirect) in [
            ("active_ataken", IndirectResolution::ActiveAddressTaken),
            ("plain_ataken", IndirectResolution::AddressTaken),
            ("none", IndirectResolution::None),
        ] {
            let options = CfgOptions { indirect };
            let build = per_iteration(|| Ok(Cfg::build(code, vaddr, &entry, &funcs, &options)));
            cases.push(MicroCase::timed(
                format!("cfg_recovery/{label}/{}", input.name),
                build?,
            ));
        }
    }

    // Undirected search may exhaust its budget (the paper's timeout
    // case); the cost of reaching that verdict is the comparison, so
    // only the wrapper cases must succeed.
    let limits = |undirected| bside::symex::Limits {
        undirected,
        ..bside::symex::Limits::default()
    };
    for (label, detect_wrappers, undirected) in [
        ("wrappers_on", true, false),
        ("wrappers_off", false, false),
        ("undirected", true, true),
    ] {
        let analyzer = Analyzer::new(AnalyzerOptions {
            detect_wrappers,
            limits: limits(undirected),
            ..AnalyzerOptions::default()
        });
        let analyze = || match analyzer.analyze_static(&nginx.elf) {
            Err(e) if !undirected => Err(format!("identification/{label}: {e}")),
            result => Ok(result.is_ok()),
        };
        cases.push(MicroCase::timed(
            format!("identification/{label}"),
            per_iteration(analyze)?,
        ));
    }

    let analyzer = Analyzer::new(AnalyzerOptions::default());
    for input in &inputs {
        let analysis = match &input.libs {
            None => analyzer.analyze_static(&input.elf),
            Some(libs) => analyzer.analyze_dynamic(&input.elf, libs, &[]),
        };
        let analysis = analysis.map_err(|e| format!("{}: {e}", input.name))?;
        let sites = analysis
            .sites
            .iter()
            .map(|s| (s.site, s.syscalls))
            .collect();
        let options = PhaseOptions::default();
        let automaton = per_iteration(|| Ok(detect_phases(&analysis.cfg, &sites, &options)))?;
        let naive = per_iteration(|| Ok(detect_phases_naive(&analysis.cfg, &sites)))?;
        let name = &input.name;
        cases.push(MicroCase::timed(
            format!("phase_methods/automaton/{name}"),
            automaton,
        ));
        cases.push(MicroCase::timed(
            format!("phase_methods/naive_navigation/{name}"),
            naive,
        ));
    }

    cases.extend(codec_cases(&inputs[2], nginx)?);
    Ok(cases)
}

/// The wire codec on its own: a sealed fleet unit frame and result frame
/// of `unit` (`seal`, `write_message`, `read_message_capped`, `unseal`,
/// as one link does), and the client's decode of `policy`'s store-hit
/// reply.
fn codec_cases(unit: &MicroInput, policy: &MicroInput) -> Res<Vec<MicroCase>> {
    use bside::dist::protocol::{read_message, read_message_capped, write_message};
    use bside::fleet::protocol::{seal, seal_down, unseal, unseal_down, FromAgent, ToAgent};
    use bside::fleet::{Want, MAX_FLEET_LINE_BYTES};
    use bside::serve::Reply;
    let key = bside::fleet::auth::session_key("bench", "nonce");
    let options = AnalyzerOptions::default();
    fn frame<T: serde::Serialize>(sealed: std::io::Result<T>) -> Res<Vec<u8>> {
        let mut line = Vec::new();
        write_message(&mut line, &sealed.map_err(|e| e.to_string())?)
            .map(|()| line)
            .map_err(|e| e.to_string())
    }
    fn read<T: for<'de> serde::Deserialize<'de>>(line: &[u8]) -> Res<Option<T>> {
        read_message_capped(&mut &line[..], MAX_FLEET_LINE_BYTES).map_err(|e| e.to_string())
    }
    let down = ToAgent::Unit {
        id: 1,
        name: unit.name.clone(),
        path: unit.name.clone(),
        want: Want::Analysis,
        elf: unit.image.clone(),
        options: options.clone(),
        trace: None,
    };
    let unit_trip = || -> Res<ToAgent> {
        let line = frame(seal_down(&key, 1, &down))?;
        match read(&line)? {
            Some(ToAgent::Sealed { seq, mac, body }) => unseal_down(&key, seq, &mac, &body),
            other => Err(format!("unit frame read back as {other:?}")),
        }
    };
    let unit_bytes = frame(seal_down(&key, 1, &down))?.len();
    let unit_name = format!("codec/unit_frame/{}", unit.name);
    let unit_case = codec_case(unit_name, unit_bytes, unit_trip)?;

    let analysis = Analyzer::new(options.clone()).analyze_static(&unit.elf);
    let up = FromAgent::Result {
        id: 1,
        analysis: Box::new(analysis.map_err(|e| format!("{}: {e}", unit.name))?),
        trace: None,
        spans: Vec::new(),
    };
    let result_trip = || -> Res<FromAgent> {
        let line = frame(seal(&key, 1, &up))?;
        match read(&line)? {
            Some(FromAgent::Sealed { seq, mac, body }) => unseal(&key, seq, &mac, &body),
            other => Err(format!("result frame read back as {other:?}")),
        }
    };
    let result_bytes = frame(seal(&key, 1, &up))?.len();
    let result_name = format!("codec/result_frame/{}", unit.name);
    let result_case = codec_case(result_name, result_bytes, result_trip)?;

    let bundle = bside::serve::derive_bundle(&policy.name, &policy.image, &options, None);
    let reply = Reply::Policy {
        key: "0".repeat(64),
        source: Source::Store,
        generation: 1,
        bundle: Box::new(bundle?),
    };
    let mut line = Vec::new();
    write_message(&mut line, &reply).map_err(ctx("policy reply"))?;
    let decode = || match read_message::<Reply>(&mut &line[..]) {
        Ok(Some(Reply::Policy { bundle, .. })) => Ok(bundle),
        other => Err(format!("policy reply read back as {other:?}")),
    };
    let reply_name = format!("codec/policy_reply_decode/{}", policy.name);
    let reply_case = codec_case(reply_name, line.len(), decode)?;
    Ok(vec![unit_case, result_case, reply_case])
}

/// A codec case: `trip` timed per iteration, reported with the size of
/// the frame it moves.
fn codec_case<T>(name: String, bytes: usize, trip: impl FnMut() -> Res<T>) -> Res<MicroCase> {
    let runs = per_iteration(trip).map_err(|e| format!("{name}: {e}"))?;
    Ok(MicroCase {
        name,
        runs,
        frame_bytes: Some(bytes),
    })
}

/// Declares a report struct and its serde impls from one field list, so
/// the struct and its JSON keys cannot drift apart.
macro_rules! report {
    ($(#[$meta:meta])* $name:ident { $($(#[$doc:meta])* $field:ident: $ty:ty),+ $(,)? }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        struct $name { $($(#[$doc])* $field: $ty),+ }
        impl_serde_struct!($name { $($field),+ });
    };
}

/// `[min, max]` of a timed figure, written next to its median.
type Range<T> = (T, T);

/// A nested JSON object of a report, built key by key.
#[derive(Default)]
struct Obj(Vec<(String, Value)>);

impl Obj {
    fn put(mut self, key: &str, value: impl serde::Serialize) -> Obj {
        self.0.push((key.to_string(), serde::to_value(&value)));
        self
    }

    /// A timed figure: `key` (the median) and `key_range`.
    fn timed<T: serde::Serialize>(self, key: &str, (median, range): (T, Range<T>)) -> Obj {
        self.put(key, median).put(&format!("{key}_range"), range)
    }
}

/// `micro`: each case's per-iteration `<case>_us` median and range, and
/// a codec case's `<case>_bytes`.
fn micro_report(cases: &[MicroCase]) -> Value {
    let case = |o: Obj, case: &MicroCase| {
        let name = &case.name;
        let o = o.timed(&format!("{name}_us"), case.runs.sample(|us| *us).places(2));
        match case.frame_bytes {
            Some(bytes) => o.put(&format!("{name}_bytes"), bytes),
            None => o,
        }
    };
    Value::Object(cases.iter().fold(Obj::default(), case).0)
}

/// `latency_us` of daemon passes: mean, p50 and p99.
fn latency_us(runs: &Runs<DaemonPass>) -> Value {
    let mean = |l: &[u64]| l.iter().sum::<u64>() as f64 / l.len().max(1) as f64;
    let pct = |p: f64| runs.sample(|r| percentile(&r.latencies, p)).whole();
    let obj = Obj::default().timed("mean", runs.sample(|r| mean(&r.latencies)).whole());
    Value::Object(obj.timed("p50", pct(0.50)).timed("p99", pct(0.99)).0)
}

report!(ConfigReport {
    parallelism: usize,
    wall_us: u64,
    wall_us_range: Range<u64>,
    phase_totals: Value,
    identified_syscalls: Value,
});

impl ConfigReport {
    /// Fails when the runs disagree on any binary's syscall count: the
    /// engines are deterministic, so a disagreement is a bug.
    fn of(parallelism: usize, runs: &Runs<Pass>) -> Res<ConfigReport> {
        let first = &runs.0[0];
        let agree = runs.0.iter().all(|r| r.counts == first.counts);
        ensure(agree, || "runs disagree on syscall counts".to_string())?;
        let (wall_us, wall_us_range) = runs.sample(|r| us(r.wall)).whole();
        let phase = |i: usize| runs.sample(|r| us(r.phases.phases()[i].1)).whole();
        let names = first.phases.phases().into_iter().enumerate();
        let phases = names.fold(Obj::default(), |o, (i, (n, _))| {
            o.timed(&format!("{n}_us"), phase(i))
        });
        let counts = first.counts.iter();
        let counts = counts.map(|(n, c)| (n.clone(), Value::UInt(*c as u64)));
        Ok(ConfigReport {
            parallelism,
            wall_us,
            wall_us_range,
            phase_totals: Value::Object(phases.0),
            identified_syscalls: Value::Object(counts.collect()),
        })
    }
}

report!(FleetReport {
    agents: usize,
    slots_per_agent: usize,
    units: usize,
    wall_us: u64,
    wall_us_range: Range<u64>,
    units_per_s: f64,
    retries: u64,
    timeouts: u64,
});

impl FleetReport {
    fn of(slots_per_agent: usize, runs: &Runs<FleetPass>) -> FleetReport {
        let (wall_us, wall_us_range) = runs.sample(|r| us(r.wall)).whole();
        FleetReport {
            agents: FLEET_AGENTS,
            slots_per_agent,
            units: runs.0[0].stats.units,
            wall_us,
            wall_us_range,
            units_per_s: runs.sample(|r| per_s(r.stats.units, r.wall)).places(1).0,
            retries: runs.max(|r| r.stats.retries as u64),
            timeouts: runs.max(|r| r.stats.timeouts as u64),
        }
    }
}

report!(ServeReport {
    clients: usize,
    requests_per_client: usize,
    total_requests: usize,
    wall_us: u64,
    wall_us_range: Range<u64>,
    throughput_rps: f64,
    latency_us: Value,
    analyses: u64,
    store_hits: u64,
});

report!(C10kReport {
    idlers: usize,
    clients: usize,
    requests_per_client: usize,
    baseline_wall_us: u64,
    baseline_wall_us_range: Range<u64>,
    with_idlers_wall_us: u64,
    with_idlers_wall_us_range: Range<u64>,
    /// Baseline over loaded median wall (1.0: parked watchers are free).
    throughput_ratio: f64,
    wake_all_us: u64,
    wake_all_us_range: Range<u64>,
});

report!(ColdStormReport {
    clients: usize,
    cold_keys: usize,
    wall_us: u64,
    wall_us_range: Range<u64>,
    analyses: u64,
    coalesced: u64,
    /// Analyses beyond the one the key needed: what the storm would have
    /// wasted without single-flight (up to `clients - 1`).
    duplicated: u64,
    store_hits: u64,
});

report!(ChaosReport {
    agents: usize,
    slots_per_agent: usize,
    units: usize,
    authenticated: bool,
    plan: String,
    faults_off: FleetReport,
    faults_on: FleetReport,
    serve_degraded: Value,
});

report!(
    /// `overhead_pct` is `(on - off) / off` of each interleaved pair's
    /// wall clock, in percent: positive means recording was slower.
    TelemetryReport {
        serve: Value,
        fleet: Value,
    }
);

report!(FilterLeg {
    name: String,
    kind: String,
    gate_pieces: Option<usize>,
    events: usize,
    repeats: usize,
    naive_len: usize,
    optimized_len: usize,
    naive_ns_per_eval: f64,
    naive_ns_per_eval_range: Range<f64>,
    optimized_ns_per_eval: f64,
    optimized_ns_per_eval_range: Range<f64>,
    /// Median of the per-run naive over optimized ns/eval.
    speedup: f64,
});

impl FilterLeg {
    fn of(name: &str, kind: &str, pieces: Option<usize>, runs: &Runs<ThroughputReport>) -> Self {
        let first = &runs.0[0];
        let naive = runs.sample(|r| r.naive_ns_per_eval).places(2);
        let optimized = runs.sample(|r| r.optimized_ns_per_eval).places(2);
        FilterLeg {
            name: name.to_string(),
            kind: kind.to_string(),
            gate_pieces: pieces,
            events: first.events,
            repeats: runs.0.len(),
            naive_len: first.naive_len,
            optimized_len: first.optimized_len,
            naive_ns_per_eval: naive.0,
            naive_ns_per_eval_range: naive.1,
            optimized_ns_per_eval: optimized.0,
            optimized_ns_per_eval_range: optimized.1,
            speedup: runs.sample(|r| r.speedup()).places(4).0,
        }
    }
}

report!(
    /// The whole `BENCH_pipeline.json` record.
    Snapshot {
        harness: String,
        corpus: String,
        binaries: usize,
        repeats: usize,
        num_cpus: usize,
        sequential: ConfigReport,
        parallel: ConfigReport,
        speedup: f64,
        distributed: Option<ConfigReport>,
        speedup_distributed: Option<f64>,
        fleet: FleetReport,
        serve: ServeReport,
        serve_c10k: C10kReport,
        serve_cold_storm: ColdStormReport,
        fleet_chaos: ChaosReport,
        telemetry_overhead: TelemetryReport,
        filter_replay: Vec<FilterLeg>,
        micro: Value,
    }
);

/// Prints one stderr progress line for a configuration, every timed
/// figure of its report (a key with a `_range` sibling) as
/// `key=median [min,max]`, nested keys dotted.
fn progress(config: &str, report: &impl serde::Serialize) {
    fn figures(prefix: &str, value: &Value, out: &mut Vec<String>) {
        let Value::Object(entries) = value else {
            return;
        };
        for (key, v) in entries {
            let range = format!("{key}_range");
            match entries.iter().find(|(k, _)| *k == range) {
                Some((_, range)) => {
                    let text = |v: &Value| serde_json::to_string(v).unwrap_or_default();
                    out.push(format!("{prefix}{key}={} {}", text(v), text(range)));
                }
                None => figures(&format!("{prefix}{key}."), v, out),
            }
        }
    }
    let mut out = Vec::new();
    figures("", &serde::to_value(report), &mut out);
    eprintln!("  {config}: {}", out.join(", "));
}

fn main() {
    if let Err(e) = run() {
        eprintln!("bench_snapshot: {e}");
        std::process::exit(1);
    }
}

fn run() -> Res<()> {
    let args: Vec<String> = std::env::args().collect();
    let out_path = args.get(1).map_or("BENCH_pipeline.json", String::as_str);

    // The six application profiles plus a deterministic slice of the
    // Table 2 synthetic corpus (static binaries only), so the
    // measurement covers varied code shapes.
    let (mut images, mut binaries) = (Vec::new(), Vec::<(String, Elf)>::new());
    for p in all_profiles() {
        images.push((p.name.to_string(), p.program.image));
        binaries.push((p.name.to_string(), p.program.elf));
    }
    let corpus = corpus_with_size(DEFAULT_SEED, 48, 0, 0);
    for (i, b) in corpus.binaries.into_iter().enumerate() {
        let name = format!("{}_{i}", b.program.spec.name);
        images.push((name.clone(), b.program.image));
        binaries.push((name, b.program.elf));
    }
    let n = images.len();
    eprintln!("bench_snapshot: {n} binaries, {REPEATS} runs each");

    // Worker count for the parallel configuration: all cores, unless
    // BSIDE_BENCH_PARALLELISM pins it (scaling curves, or exercising the
    // threaded path on small machines).
    let ncpus = std::env::var("BSIDE_BENCH_PARALLELISM")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(bside::core::default_parallelism);
    let sequential = ConfigReport::of(1, &run_in_process(1, &binaries)?)?;
    progress("sequential", &sequential);
    let parallel = ConfigReport::of(ncpus, &run_in_process(ncpus, &binaries)?)?;
    progress("parallel", &parallel);
    let speedup_over = |r: &ConfigReport| round(sequential.wall_us as f64 / r.wall_us as f64, 4);

    // Local agent processes: as many as threads, at least 2 so the
    // multi-process path runs even on one CPU.
    let workers = ncpus.max(2);
    let distributed = run_distributed(workers, &images)?;

    let slots = workers.div_ceil(2);
    let scratch = Scratch::new("units")?;
    let units = scratch.materialize(&images)?;
    let rig = FleetRig::start(slots, None)?;
    let fleet = FleetReport::of(slots, &repeat(|| rig.run(&units))?);
    progress("fleet", &fleet);

    let (clients, requests) = (4, 100);
    let runs = repeat(|| serve_pass(clients, requests, &images))?;
    let (wall_us, wall_us_range) = runs.sample(|r| us(r.wall)).whole();
    let total_requests = clients * requests;
    let serve = ServeReport {
        clients,
        requests_per_client: requests,
        total_requests,
        wall_us,
        wall_us_range,
        throughput_rps: runs.sample(|r| per_s(total_requests, r.wall)).places(1).0,
        latency_us: latency_us(&runs),
        analyses: runs.max(|r| r.stats.analyses),
        store_hits: runs.max(|r| r.stats.store_hits),
    };
    progress("serve", &serve);

    let idlers = 1000;
    let (baseline, loaded) = run_c10k(idlers, clients, requests, &images[0])?;
    let (base, with) = (baseline.sample(|w| us(*w)), loaded.sample(|[w, _]| us(*w)));
    let wake_all = loaded.sample(|[_, wake]| us(*wake)).whole();
    let serve_c10k = C10kReport {
        idlers,
        clients,
        requests_per_client: requests,
        baseline_wall_us: base.whole().0,
        baseline_wall_us_range: base.whole().1,
        with_idlers_wall_us: with.whole().0,
        with_idlers_wall_us_range: with.whole().1,
        throughput_ratio: round(base.median / with.median.max(1e-9), 4),
        wake_all_us: wake_all.0,
        wake_all_us_range: wake_all.1,
    };
    progress("serve_c10k", &serve_c10k);

    // The largest image maximizes the analysis window followers can
    // land in; `duplicated == 0` is the claim either way.
    let storm_clients = 16;
    let storm_image = images.iter().max_by_key(|(_, bytes)| bytes.len());
    let storm_image = storm_image.expect("non-empty corpus");
    let runs = repeat(|| storm_pass(storm_clients, storm_image))?;
    let (wall_us, wall_us_range) = runs.sample(|r| us(r.wall)).whole();
    let serve_cold_storm = ColdStormReport {
        clients: storm_clients,
        cold_keys: 1,
        wall_us,
        wall_us_range,
        analyses: runs.max(|r| r.stats.analyses),
        coalesced: runs.max(|r| r.stats.coalesced),
        duplicated: runs.max(|r| r.stats.analyses.saturating_sub(1)),
        store_hits: runs.max(|r| r.stats.store_hits),
    };
    progress("serve_cold_storm", &serve_cold_storm);

    // The authenticated fleet with a clean wire, then under the seeded
    // fault plan: what line noise costs when every frame is MAC-sealed
    // and corrupted units are retried. The plan is installed per run,
    // once the whole fleet is connected, and cleared when the run ends.
    let chaos = FleetRig::start(slots, Some("bench-chaos-secret"))?;
    let off = repeat(|| chaos.run(&units))?;
    let on = repeat(|| {
        chaos.full(Duration::from_secs(10))?;
        set_plan(Some(chaos_plan()));
        let pass = chaos.run(&units);
        set_plan(None);
        pass
    })?;
    chaos.stop();
    let runs = repeat(|| degraded_pass(&images))?;
    let wall = runs.sample(|r| us(r.wall)).whole();
    let p = chaos_plan();
    let fleet_chaos = ChaosReport {
        agents: FLEET_AGENTS,
        slots_per_agent: slots,
        units: units.len(),
        authenticated: true,
        plan: format!(
            "seed={} corrupt={} truncate={} reset={} dup={} delay={}({}ms) per-mille",
            p.seed, p.corrupt, p.truncate, p.reset, p.dup, p.delay, p.delay_ms
        ),
        faults_off: FleetReport::of(slots, &off),
        faults_on: FleetReport::of(slots, &on),
        serve_degraded: Value::Object(
            Obj::default()
                .put("requests", images.len())
                .timed("wall_us", wall)
                .put("degraded", runs.max(|r| r.stats.degraded))
                .put("breaker_state", runs.max(|r| r.stats.breaker_state))
                .put("latency_us", latency_us(&runs))
                .0,
        ),
    };
    progress("fleet_chaos", &fleet_chaos);

    let (clients, requests) = (2, 100);
    let (serve_on, serve_off) = interleaved(|| serve_pass(clients, requests, &images))?;
    let (fleet_on, fleet_off) = interleaved(|| rig.run(&units))?;
    rig.stop();
    let rps = |runs: &Runs<DaemonPass>| runs.sample(|r| per_s(clients * requests, r.wall));
    let p99 = |runs: &Runs<DaemonPass>| runs.sample(|r| percentile(&r.latencies, 0.99)).whole();
    let rate = |runs: &Runs<FleetPass>| runs.sample(|r| per_s(r.stats.units, r.wall));
    let serve_pct = overhead_pct(&serve_on, &serve_off, |r| r.wall).places(2);
    let fleet_pct = overhead_pct(&fleet_on, &fleet_off, |r| r.wall).places(2);
    let serve_leg = Obj::default()
        .put("enabled_rps", rps(&serve_on).places(1).0)
        .put("disabled_rps", rps(&serve_off).places(1).0)
        .timed("enabled_p99_us", p99(&serve_on))
        .timed("disabled_p99_us", p99(&serve_off))
        .timed("overhead_pct", serve_pct);
    let fleet_leg = Obj::default()
        .put("enabled_units_per_s", rate(&fleet_on).places(1).0)
        .put("disabled_units_per_s", rate(&fleet_off).places(1).0)
        .timed("overhead_pct", fleet_pct);
    let telemetry_overhead = TelemetryReport {
        serve: Value::Object(serve_leg.0),
        fleet: Value::Object(fleet_leg.0),
    };
    progress("telemetry_overhead", &telemetry_overhead);

    let filter_replay = run_filter_replay()?;
    let legs = filter_replay
        .iter()
        .map(|l| (l.name.clone(), serde::to_value(l)));
    progress("filter_replay", &Value::Object(legs.collect()));

    let micro = micro_report(&run_micro()?);
    progress("micro", &micro);

    let snapshot = Snapshot {
        harness: "bench_snapshot".to_string(),
        corpus: "gen::profiles::all_profiles + corpus_with_size(DEFAULT_SEED, 48, 0, 0)".into(),
        binaries: images.len(),
        repeats: REPEATS,
        num_cpus: ncpus,
        speedup: speedup_over(&parallel),
        speedup_distributed: distributed.as_ref().map(speedup_over),
        sequential,
        parallel,
        distributed,
        fleet,
        serve,
        serve_c10k,
        serve_cold_storm,
        fleet_chaos,
        telemetry_overhead,
        filter_replay,
        micro,
    };
    let json = serde_json::to_string_pretty(&snapshot).map_err(ctx("encode snapshot"))?;
    std::fs::write(out_path, format!("{json}\n")).map_err(ctx("write snapshot"))?;
    eprintln!("  wrote {out_path}");
    println!("{json}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_takes_the_median_and_range_of_odd_even_and_single_runs() {
        let odd = Sample::of([3.0, 1.0, 2.0]);
        assert_eq!((odd.median, odd.min, odd.max, odd.runs), (2.0, 1.0, 3.0, 3));
        let even = Sample::of([4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            (even.median, even.min, even.max, even.runs),
            (2.5, 1.0, 4.0, 4)
        );
        let single = Sample::of([7.0]);
        assert_eq!(
            (single.median, single.min, single.max, single.runs),
            (7.0, 7.0, 7.0, 1)
        );
        assert_eq!(even.whole(), (3, (1, 4)));
        assert_eq!(Sample::of([1.234, 5.678]).places(1), (3.5, (1.2, 5.7)));
    }

    #[test]
    fn repeat_runs_every_repeat_and_stops_at_the_first_failure() {
        let mut calls = 0;
        let runs = repeat(|| {
            calls += 1;
            Ok(calls)
        });
        assert_eq!(
            runs.expect("no failure").0,
            (1..=REPEATS).collect::<Vec<_>>()
        );
        let mut calls = 0;
        let failed = repeat(|| {
            calls += 1;
            ensure(calls < 2, || format!("run {calls} failed"))
        });
        assert_eq!(failed.err(), Some("run 2 failed".to_string()));
        assert_eq!(calls, 2);
    }

    #[test]
    fn percentiles_and_overheads_read_sorted_runs() {
        assert_eq!(percentile(&[], 0.99), 0.0);
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 0.5), 30.0);
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 0.99), 50.0);
        let ms = |v: u64| Duration::from_millis(v);
        let on = Runs(vec![ms(110), ms(90)]);
        let off = Runs(vec![ms(100), ms(100)]);
        let pct = overhead_pct(&on, &off, |d| *d);
        assert_eq!(pct.places(2), (0.0, (-10.0, 10.0)));
    }

    fn fleet_runs() -> Runs<FleetPass> {
        let stats = RunStats {
            units: 54,
            retries: 1,
            ..RunStats::default()
        };
        let pass = |ms| FleetPass {
            wall: Duration::from_millis(ms),
            stats,
        };
        Runs(vec![pass(20), pass(30), pass(25)])
    }

    fn daemon_runs() -> Runs<DaemonPass> {
        let pass = |ms| DaemonPass {
            wall: Duration::from_millis(ms),
            latencies: vec![100, 200, 300],
            stats: StatsSnapshot::default(),
        };
        Runs(vec![pass(40), pass(50)])
    }

    /// A whole snapshot from fixed values, built through the same report
    /// constructors and object builders the binary uses.
    fn fixed_snapshot() -> Snapshot {
        let mut timings = PipelineTimings::new();
        timings.cfg_recovery = Duration::from_micros(700);
        timings.total = Duration::from_micros(900);
        let pass = |ms| Pass {
            wall: Duration::from_millis(ms),
            phases: timings,
            counts: vec![("redis".to_string(), 89), ("nginx".to_string(), 83)],
        };
        let config = ConfigReport::of(1, &Runs(vec![pass(14), pass(15), pass(13)]));
        let config = config.expect("runs agree");
        let fleet = FleetReport::of(1, &fleet_runs());
        let daemon = daemon_runs();
        let report = ThroughputReport {
            events: 1000,
            repeats: 1,
            naive_ns_per_eval: 180.0,
            optimized_ns_per_eval: 45.0,
            naive_len: 179,
            optimized_len: 58,
        };
        let leg = FilterLeg::of("redis", "flat", Some(196), &Runs(vec![report]));
        Snapshot {
            harness: "bench_snapshot".to_string(),
            corpus: "fixed".to_string(),
            binaries: 2,
            repeats: REPEATS,
            num_cpus: 2,
            sequential: config.clone(),
            parallel: config.clone(),
            speedup: 1.0,
            distributed: None,
            speedup_distributed: None,
            fleet: fleet.clone(),
            serve: ServeReport {
                clients: 4,
                requests_per_client: 100,
                total_requests: 400,
                wall_us: 40_000,
                wall_us_range: (35_000, 46_000),
                throughput_rps: 10_000.0,
                latency_us: latency_us(&daemon),
                analyses: 54,
                store_hits: 400,
            },
            serve_c10k: C10kReport {
                idlers: 1000,
                clients: 4,
                requests_per_client: 100,
                baseline_wall_us: 70_000,
                baseline_wall_us_range: (65_000, 72_000),
                with_idlers_wall_us: 64_000,
                with_idlers_wall_us_range: (57_000, 67_000),
                throughput_ratio: 1.0938,
                wake_all_us: 7_600,
                wake_all_us_range: (7_000, 9_000),
            },
            serve_cold_storm: ColdStormReport {
                clients: 16,
                cold_keys: 1,
                wall_us: 15_000,
                wall_us_range: (13_000, 17_000),
                analyses: 1,
                coalesced: 13,
                duplicated: 0,
                store_hits: 2,
            },
            fleet_chaos: ChaosReport {
                agents: 2,
                slots_per_agent: 1,
                units: 54,
                authenticated: true,
                plan: "seed=11".to_string(),
                faults_off: fleet.clone(),
                faults_on: fleet,
                serve_degraded: Value::Object(Obj::default().put("requests", 54).0),
            },
            telemetry_overhead: TelemetryReport {
                serve: Value::Object(Obj::default().timed("overhead_pct", (1.5, (-2.0, 3.0))).0),
                fleet: Value::Object(Vec::new()),
            },
            filter_replay: vec![leg],
            micro: micro_report(&[
                MicroCase::timed("decode_all/nginx", Runs(vec![12.0, 9.5, 15.25])),
                MicroCase {
                    name: "codec/unit_frame/median_static".to_string(),
                    runs: Runs(vec![40.0]),
                    frame_bytes: Some(12_700),
                },
            ]),
        }
    }

    #[test]
    fn fixed_report_round_trips_with_every_top_level_key_in_order() {
        let snapshot = fixed_snapshot();
        let json = serde_json::to_string_pretty(&snapshot).expect("serializes");
        let parsed: Snapshot = serde_json::from_str(&json).expect("parses back");
        assert_eq!(parsed, snapshot);
        let Value::Object(entries) = serde_json::from_str::<Value>(&json).expect("JSON") else {
            panic!("the snapshot is a JSON object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "harness",
                "corpus",
                "binaries",
                "repeats",
                "num_cpus",
                "sequential",
                "parallel",
                "speedup",
                "distributed",
                "speedup_distributed",
                "fleet",
                "serve",
                "serve_c10k",
                "serve_cold_storm",
                "fleet_chaos",
                "telemetry_overhead",
                "filter_replay",
                "micro",
            ]
        );
    }

    #[test]
    fn reports_write_medians_with_their_ranges() {
        let snapshot = fixed_snapshot();
        let config = &snapshot.sequential;
        assert_eq!(
            (config.wall_us, config.wall_us_range),
            (14_000, (13_000, 15_000))
        );
        let phases = serde_json::to_string(&config.phase_totals).expect("serializes");
        assert!(phases.starts_with(r#"{"cfg_recovery_us":700,"cfg_recovery_us_range":[700,700]"#));
        let counts = serde_json::to_string(&config.identified_syscalls).expect("serializes");
        assert_eq!(counts, r#"{"redis":89,"nginx":83}"#);
        let fleet = &snapshot.fleet;
        assert_eq!(
            (fleet.wall_us, fleet.wall_us_range),
            (25_000, (20_000, 30_000))
        );
        assert_eq!(
            (fleet.units_per_s, fleet.retries, fleet.timeouts),
            (2160.0, 1, 0)
        );
        let latency = serde_json::to_string(&snapshot.serve.latency_us).expect("serializes");
        assert_eq!(
            latency,
            r#"{"mean":200,"mean_range":[200,200],"p50":200,"p50_range":[200,200],"p99":300,"p99_range":[300,300]}"#
        );
        let leg = &snapshot.filter_replay[0];
        assert_eq!(
            (
                leg.naive_ns_per_eval,
                leg.optimized_ns_per_eval,
                leg.speedup
            ),
            (180.0, 45.0, 4.0)
        );
        let micro = serde_json::to_string(&snapshot.micro).expect("serializes");
        assert_eq!(
            micro,
            concat!(
                r#"{"decode_all/nginx_us":12.0,"decode_all/nginx_us_range":[9.5,15.25],"#,
                r#""codec/unit_frame/median_static_us":40.0,"#,
                r#""codec/unit_frame/median_static_us_range":[40.0,40.0],"#,
                r#""codec/unit_frame/median_static_bytes":12700}"#
            )
        );
    }

    #[test]
    fn runs_that_disagree_on_syscall_counts_fail_the_config() {
        let pass = |count| Pass {
            wall: Duration::from_millis(1),
            phases: PipelineTimings::new(),
            counts: vec![("redis".to_string(), count)],
        };
        let err = ConfigReport::of(1, &Runs(vec![pass(89), pass(88)])).expect_err("disagree");
        assert!(err.contains("disagree"), "{err}");
    }

    #[test]
    fn repeated_passes_fold_into_per_pass_figures() {
        let mut phases = PipelineTimings::new();
        phases.cfg_recovery = Duration::from_micros(600);
        phases.total = Duration::from_micros(900);
        let pass = |counts: [usize; 4]| Pass {
            wall: Duration::from_millis(30),
            phases,
            counts: ["redis", "nginx", "redis", "nginx"]
                .iter()
                .zip(counts)
                .map(|(n, c)| (n.to_string(), c))
                .collect(),
        };
        let folded = pass([89, 83, 89, 83]).per_pass(2, 2).expect("passes agree");
        assert_eq!(folded.wall, Duration::from_millis(15));
        assert_eq!(folded.counts.len(), 2);
        assert_eq!(folded.phases.phases()[0].1, Duration::from_micros(300));
        assert_eq!(folded.phases.phases()[3].1, Duration::from_micros(450));
        let err = pass([89, 83, 89, 82]).per_pass(2, 2).err();
        assert!(err.is_some_and(|e| e.contains("disagree")));
    }
}
