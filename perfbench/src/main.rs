//! The repository benchmark: what a simulation costs on the host, on the
//! serial and on the parallel engine, with and without the real-time
//! monitor, and how fast the monitor's HTTP API answers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <chain|mcm_matmul|mcm_matmul_par|mcm_matmul_live> \
//!     --seed N --seconds S --trace <0|1>
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each is there):
//!
//! - `chain`: the Fig 4 pipeline chain. Handlers are tiny, so the time goes
//!   to the event queue, dispatch and port/connection traffic.
//! - `mcm_matmul`: tiled matmul on the 4-chiplet MCM-GPU that
//!   `rtm-sim run --chiplets 4` builds, monitor detached. Handler-heavy:
//!   compute units, the memory hierarchy, RDMA and the chiplet network.
//! - `mcm_matmul_par`: the same simulations on the conservative-window
//!   parallel engine with [`PAR_THREADS`] workers, as
//!   `rtm-sim run --chiplets 4 --threads 2` runs them. That engine relays
//!   chiplet-network messages without the link's bandwidth limit, so it
//!   simulates a different machine; its reference outcome comes from its
//!   own untimed parallel run.
//! - `mcm_matmul_live`: the serial simulations with the monitor attached
//!   the way `rtm-sim run` attaches it (event-count hook, monitor, HTTP
//!   server) and one dashboard ([`PANELS`]) polling the API throughout
//!   every run.
//!
//! Every run builds and runs the simulation back to back for about
//! `--seconds` and reports medians. The host this runs on is shared, and
//! neighbours slow whole minutes of runs by up to 1.8x, so every host time
//! spent simulating is scaled to a fixed host speed: after each simulation
//! the benchmark runs [`yardstick`], a frozen CPU kernel, and multiplies
//! the simulation's times by `YARDSTICK_NOMINAL_S / yardstick time`.
//! HTTP latencies are not scaled; they are mostly waiting.
//!
//! The dashboard is open loop: each panel's requests are due at its own
//! fixed period and each is timed from its due time. In the detached
//! workloads it polls after the timed simulations, a finished simulation
//! held for inspection as `rtm-sim --hold` holds it. At one dashboard's
//! rate a run sees 130 to 160 requests, so the tail reported is the 90th
//! percentile, the highest with ten samples beyond it. The median is
//! reported per layer only: the server polls for connections every 5 ms,
//! so most of a request's time is a wait spread evenly over 0-5 ms, and
//! its middle moves by 10-20% from run to run while the 90th percentile
//! moves by under 10%.
//!
//! Correctness: every simulation must complete, drain the modelled machine
//! and commit exactly the events, end time and work of an untimed,
//! detached run of the same inputs on the same engine, so neither the
//! monitor nor tracing may perturb the simulated machine. Every request
//! must answer 200 with a well-formed body.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` prints the
//! per-layer metrics instead, from plain, profiled, monitor-attached and
//! task-traced simulations in turn, and from HTTP requests alternating
//! with in-process calls of the same route.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::net::SocketAddr;
use std::process::exit;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use akita::{
    profile, ComponentId, EventCountHook, ProgressRegistry, RunSummary, Simulation, StopReason,
};
use akita_gpu::{GpuConfig, Platform, PlatformConfig};
use akita_rtm::httpd::Request;
use akita_rtm::{client, route, Monitor, RtmServer};
use akita_workloads::{MatMul, Workload};
use rtm_bench::chain::build_chain_sim;

const USAGE: &str =
    "usage: perfbench --workload <chain|mcm_matmul|mcm_matmul_par|mcm_matmul_live> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// One open dashboard: the `setInterval` timers of
/// `crates/rtm/static/index.html` that fetch on its default tab (Profile,
/// whose collection is off, so that tab fetches nothing) with one
/// component selected in the tree. Path and period in milliseconds; about
/// 5.9 requests a second. Each panel has its own timer thread, so requests
/// that fall due together are in flight together, as a browser sends them.
const PANELS: [(&str, u64); 5] = [
    ("/api/now", 500),
    ("/api/progress", 700),
    ("/api/resources", 1000),
    ("/api/watches", 1000),
    ("/api/component", 2000),
];

/// Worker threads of the parallel workload (`rtm-sim run --threads 2`).
const PAR_THREADS: usize = 2;

/// Share of a detached workload's run spent on timed simulations; the rest
/// measures the held simulation's HTTP latency, long enough at the
/// dashboard's rate for ten requests beyond the 90th percentile.
const SIM_SHARE: f64 = 0.25;

/// Fewest timed simulations per variant and run, whatever `--seconds` says.
const MIN_SIMS: usize = 3;

/// Models are built back to back for at least this long before each timed
/// simulation, and set-up time is reported per model: a chain builds in
/// microseconds, too short to time alone.
const BUILD_BATCH_S: f64 = 0.01;

/// How far the layers of the profiled runs may add up from the plain
/// runs' wall time per event before the run counts as incorrect. The
/// profiler costs about as much as the work it measures on these
/// workloads, and its cost is estimated from empty scopes in a hot loop,
/// so the sum is good to about 20%.
const LAYER_TOLERANCE: f64 = 0.4;

/// A typical [`yardstick`] time on a 2-vCPU Xeon (Sapphire Rapids) KVM
/// guest on a lightly loaded host; scaled host times read as if measured
/// there.
const YARDSTICK_NOMINAL_S: f64 = 0.022;

/// Page size of the modelled platform (`PlatformConfig::default`).
const PAGE: u64 = 4096;

// --- Arguments and inputs --------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkloadKind {
    Chain,
    McmMatmul,
    McmMatmulPar,
    McmMatmulLive,
}

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "chain" => WorkloadKind::Chain,
                    "mcm_matmul" => WorkloadKind::McmMatmul,
                    "mcm_matmul_par" => WorkloadKind::McmMatmulPar,
                    "mcm_matmul_live" => WorkloadKind::McmMatmulLive,
                    other => usage(&format!("unknown workload `{other}`")),
                });
            }
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                let s: f64 = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                });
            }
            other => usage(&format!("unknown option {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// SplitMix64 pseudo-random numbers: the inputs come from one seeded with
/// `--seed`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// What one simulation is asked to do.
#[derive(Debug, Clone, Copy)]
enum Input {
    /// `tasks` tasks through the Fig 4 chain.
    Chain { tasks: u64 },
    /// `C[m×n] = A[m×k] × B[k×n]` on the MCM, its buffers shifted by
    /// `pad_pages` pages so the seed also moves which chiplet owns which
    /// tile; on the parallel engine when `parallel`.
    Matmul {
        m: u64,
        n: u64,
        k: u64,
        pad_pages: u64,
        parallel: bool,
    },
}

/// The matmul every seed runs. Seeds move its buffers instead of changing
/// its shape: on the MCM the other shapes of the same arithmetic commit up
/// to 12% more or fewer events, while these placements stay within 0.6%.
const MATMUL_SHAPE: (u64, u64, u64) = (128, 128, 128);

fn input_for(kind: WorkloadKind, rng: &mut Rng) -> Input {
    match kind {
        WorkloadKind::Chain => Input::Chain {
            tasks: 12_000 + rng.below(500),
        },
        WorkloadKind::McmMatmul | WorkloadKind::McmMatmulPar | WorkloadKind::McmMatmulLive => {
            let (m, n, k) = MATMUL_SHAPE;
            Input::Matmul {
                m,
                n,
                k,
                pad_pages: rng.below(4),
                parallel: kind == WorkloadKind::McmMatmulPar,
            }
        }
    }
}

// --- The simulated model -----------------------------------------------------

/// Events, end time and work of a finished simulation: what must repeat
/// exactly across runs of the same input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outcome {
    events: u64,
    end_ps: u64,
    /// Tasks that left the chain, or instructions the CUs executed.
    work: u64,
}

enum Model {
    Chain { sim: Simulation, tasks: u64 },
    Gpu { platform: Platform, workgroups: u64 },
}

impl Model {
    fn build(input: Input) -> Model {
        match input {
            Input::Chain { tasks } => Model::Chain {
                sim: build_chain_sim(tasks),
                tasks,
            },
            Input::Matmul {
                m,
                n,
                k,
                pad_pages,
                parallel,
            } => {
                // The machine `rtm-sim run --chiplets 4 [--threads 2]` builds.
                let mut platform = Platform::build(PlatformConfig::mcm(GpuConfig::default()));
                {
                    let mut driver = platform.driver.borrow_mut();
                    if pad_pages > 0 {
                        driver.alloc(pad_pages * PAGE);
                    }
                    MatMul { m, n, k }.enqueue(&mut driver);
                }
                platform.start();
                if parallel {
                    platform.enable_parallel(PAR_THREADS).unwrap_or_else(|e| {
                        eprintln!("error: cannot enable the parallel engine: {e}");
                        exit(1)
                    });
                }
                Model::Gpu {
                    platform,
                    workgroups: (m / 16) * (n / 16),
                }
            }
        }
    }

    /// Builds models back to back for at least [`BUILD_BATCH_S`]; returns
    /// the last one and the build time per model, seconds.
    fn build_timed(input: Input) -> (Model, f64) {
        let mut spare = Vec::new();
        let t0 = Instant::now();
        let mut model = Model::build(input);
        while t0.elapsed().as_secs_f64() < BUILD_BATCH_S {
            spare.push(std::mem::replace(&mut model, Model::build(input)));
        }
        let per_model = t0.elapsed().as_secs_f64() / (spare.len() + 1) as f64;
        drop(spare);
        (model, per_model)
    }

    fn sim(&mut self) -> &mut Simulation {
        match self {
            Model::Chain { sim, .. } => sim,
            Model::Gpu { platform, .. } => &mut platform.sim,
        }
    }

    fn sim_ref(&self) -> &Simulation {
        match self {
            Model::Chain { sim, .. } => sim,
            Model::Gpu { platform, .. } => &platform.sim,
        }
    }

    fn progress(&self) -> ProgressRegistry {
        match self {
            Model::Chain { .. } => ProgressRegistry::new(),
            Model::Gpu { platform, .. } => platform.progress.clone(),
        }
    }

    /// Sums a numeric state field over every component of `kind`.
    fn sum_field(&self, kind: &str, field: &str) -> u64 {
        let sim = self.sim_ref();
        (0..sim.component_count())
            .map(|i| sim.component(ComponentId::from_index(i)))
            .filter(|c| c.borrow().kind() == kind)
            .map(|c| c.borrow().state().numeric(field).unwrap_or(0.0) as u64)
            .sum()
    }

    fn component_names(&self) -> Vec<String> {
        let sim = self.sim_ref();
        (0..sim.component_count())
            .map(|i| {
                sim.component(ComponentId::from_index(i))
                    .borrow()
                    .name()
                    .to_owned()
            })
            .collect()
    }

    /// Wall time the parallel engine's workers spent running windows,
    /// averaged over the workers, seconds; `None` on the serial engine.
    fn worker_busy(&self) -> Option<f64> {
        let workers = self.sim_ref().parallel_shared()?.snapshot().workers;
        let busy_ns: u64 = workers.iter().map(|w| w.busy_ns).sum();
        Some(busy_ns as f64 * 1e-9 / workers.len().max(1) as f64)
    }

    /// Checks that the run finished the workload and drained the machine.
    fn verify(&self, summary: &RunSummary) -> Result<Outcome, String> {
        if summary.reason != StopReason::Completed {
            return Err(format!("simulation stopped early: {:?}", summary.reason));
        }
        let work = match self {
            Model::Chain { tasks, .. } => {
                let done = self.sum_field("Stage", "processed");
                // Every task passes all four stages.
                if done != 4 * tasks {
                    return Err(format!(
                        "chain processed {done} stage-tasks, expected {}",
                        4 * tasks
                    ));
                }
                *tasks
            }
            Model::Gpu {
                platform,
                workgroups,
            } => {
                if !platform.driver.borrow().finished() {
                    return Err("driver has unfinished tasks".into());
                }
                for bar in platform.progress.snapshot() {
                    if bar.finished != bar.total {
                        return Err(format!(
                            "progress bar {} at {}/{}",
                            bar.name, bar.finished, bar.total
                        ));
                    }
                }
                let wgs = self.sum_field("ComputeUnit", "wgs_completed");
                if wgs != *workgroups {
                    return Err(format!("{wgs} workgroups completed, expected {workgroups}"));
                }
                self.sum_field("ComputeUnit", "insts_executed")
            }
        };
        Ok(Outcome {
            events: summary.events,
            end_ps: summary.end_time.ps(),
            work,
        })
    }
}

/// The monitor as `rtm-sim run` attaches it: an event-count hook feeding
/// `/api/metrics`, the monitor with its 100 ms sampler, the parallel
/// engine's gauges, and the HTTP server.
struct Attached {
    monitor: Arc<Monitor>,
    server: RtmServer,
}

fn attach(model: &mut Model) -> Attached {
    let progress = model.progress();
    let sim = model.sim();
    let counts = sim.add_hook(EventCountHook::default());
    let monitor = Arc::new(Monitor::attach(sim, progress, Duration::from_millis(100)));
    monitor.set_event_counts(counts.borrow().shared());
    if let Some(par) = sim.parallel_shared() {
        monitor.set_par_stats(par);
    }
    let server = RtmServer::start_local(Arc::clone(&monitor)).unwrap_or_else(|e| {
        eprintln!("error: cannot bind the monitor server: {e}");
        exit(1)
    });
    Attached { monitor, server }
}

// --- The dashboard -------------------------------------------------------------

/// One API request of a panel.
#[derive(Debug, Clone)]
struct ApiCall {
    path: &'static str,
    /// The component `/api/component` is asked for, and its reply must
    /// name.
    component: Option<String>,
}

impl ApiCall {
    fn url(&self) -> String {
        let mut url = self.path.to_owned();
        if let Some(name) = &self.component {
            url.push_str("?name=");
            for b in name.bytes() {
                if b.is_ascii_alphanumeric() || b"-_.".contains(&b) {
                    url.push(b as char);
                } else {
                    url.push_str(&format!("%{b:02X}"));
                }
            }
        }
        url
    }

    fn request(&self) -> Request {
        Request {
            method: "GET".into(),
            path: self.path.into(),
            query: self
                .component
                .iter()
                .map(|name| ("name".to_owned(), name.clone()))
                .collect(),
            body: Vec::new(),
        }
    }

    /// Checks a 200 reply's body.
    fn check(&self, body: &[u8]) -> bool {
        let Ok(text) = std::str::from_utf8(body) else {
            return false;
        };
        let Ok(json) = serde_json::from_str::<serde_json::Value>(text) else {
            return false;
        };
        match &self.component {
            Some(name) => json["name"].as_str() == Some(name.as_str()),
            None => true,
        }
    }
}

/// One dashboard panel's timer.
struct Panel {
    path: &'static str,
    period: Duration,
    /// The component detail panel: the selection, which moves to the next
    /// component of a seed-shuffled order at every refresh.
    selections: Vec<String>,
}

impl Panel {
    fn call(&self, i: usize) -> ApiCall {
        ApiCall {
            path: self.path,
            component: self
                .selections
                .get(i % self.selections.len().max(1))
                .cloned(),
        }
    }
}

fn dashboard(names: &[String], rng: &mut Rng) -> Vec<Panel> {
    let mut order = names.to_vec();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    PANELS
        .iter()
        .map(|&(path, ms)| Panel {
            path,
            period: Duration::from_millis(ms),
            selections: if path == "/api/component" {
                order.clone()
            } else {
                Vec::new()
            },
        })
        .collect()
}

/// Where the dashboard sends requests: a simulation's server, and its
/// monitor for the in-process calls of trace mode.
#[derive(Clone)]
struct Target {
    addr: SocketAddr,
    monitor: Arc<Monitor>,
}

enum Cmd {
    Serve(Target),
    /// Stop sending; acknowledge once no request is in flight.
    Pause(Sender<()>),
    Quit,
}

#[derive(Default)]
struct ClientStats {
    /// HTTP latency from due time to the full reply, in seconds.
    http: Vec<f64>,
    /// In-process `route` time, in seconds (trace mode only).
    inproc: Vec<f64>,
    /// How late each request was sent after its due time, in seconds.
    late: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl ClientStats {
    fn merge(&mut self, other: ClientStats) {
        self.http.extend(other.http);
        self.inproc.extend(other.inproc);
        self.late.extend(other.late);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A panel's timer. Like `setInterval` it keeps one phase from the moment
/// the dashboard opens, across the back-to-back simulations; requests that
/// fall due while no simulation is served are skipped.
fn panel_loop(rx: &Receiver<Cmd>, panel: &Panel, alternate_inproc: bool) -> ClientStats {
    let mut stats = ClientStats::default();
    let mut target: Option<Target> = None;
    let mut next_due = Instant::now() + panel.period;
    let mut i = 0usize;
    loop {
        let cmd = if target.is_some() {
            match rx.recv_timeout(next_due.saturating_duration_since(Instant::now())) {
                Ok(cmd) => Some(cmd),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => return stats,
            }
        } else {
            match rx.recv() {
                Ok(cmd) => Some(cmd),
                Err(_) => return stats,
            }
        };
        match cmd {
            Some(Cmd::Serve(t)) => {
                target = Some(t);
                let now = Instant::now();
                while next_due < now {
                    next_due += panel.period;
                }
                continue;
            }
            Some(Cmd::Pause(ack)) => {
                target = None;
                let _ = ack.send(());
                continue;
            }
            Some(Cmd::Quit) => return stats,
            None => {}
        }
        let Some(t) = &target else { continue };
        let call = panel.call(i);
        let due = next_due;
        next_due += panel.period;
        stats.attempted += 1;
        let sent = Instant::now();
        let ok = if alternate_inproc && i % 2 == 1 {
            let resp = route(&t.monitor, &call.request());
            stats.inproc.push(sent.elapsed().as_secs_f64());
            resp.status == 200 && call.check(&resp.body)
        } else {
            let ok = client::get(t.addr, &call.url())
                .is_ok_and(|r| r.status == 200 && call.check(r.body.as_bytes()));
            stats.http.push(due.elapsed().as_secs_f64());
            stats.late.push((sent - due).as_secs_f64());
            ok
        };
        if !ok {
            stats.failed += 1;
            eprintln!("request {} failed", call.url());
        }
        i += 1;
    }
}

/// The dashboard: one thread per panel.
struct Client {
    txs: Vec<Sender<Cmd>>,
    threads: Vec<thread::JoinHandle<ClientStats>>,
}

/// Asks every panel to pause; each acknowledges on the returned channel.
fn request_pause(txs: &[Sender<Cmd>]) -> Receiver<()> {
    let (ack_tx, ack_rx) = mpsc::channel();
    for tx in txs {
        let _ = tx.send(Cmd::Pause(ack_tx.clone()));
    }
    ack_rx
}

impl Client {
    fn spawn(panels: Vec<Panel>, alternate_inproc: bool) -> Client {
        let (txs, threads) = panels
            .into_iter()
            .map(|panel| {
                let (tx, rx) = mpsc::channel();
                let thread = thread::Builder::new()
                    .name(format!("panel {}", panel.path))
                    .spawn(move || panel_loop(&rx, &panel, alternate_inproc))
                    .expect("spawn a dashboard panel");
                (tx, thread)
            })
            .unzip();
        Client { txs, threads }
    }

    fn serve(&self, attached: &Attached) {
        let target = Target {
            addr: attached.server.addr(),
            monitor: Arc::clone(&attached.monitor),
        };
        for tx in &self.txs {
            let _ = tx.send(Cmd::Serve(target.clone()));
        }
    }

    /// Pauses every panel, calling `serve_queries` until all acknowledge
    /// so a request waiting on the engine still gets its answer.
    fn pause(&self, mut serve_queries: impl FnMut()) {
        let acks = request_pause(&self.txs);
        let mut pending = self.txs.len();
        while pending > 0 {
            serve_queries();
            match acks.recv_timeout(Duration::from_micros(200)) {
                Ok(()) => pending -= 1,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    fn finish(self) -> ClientStats {
        for tx in &self.txs {
            let _ = tx.send(Cmd::Quit);
        }
        let mut stats = ClientStats::default();
        for thread in self.threads {
            stats.merge(thread.join().expect("dashboard panel thread"));
        }
        stats
    }
}

// --- Timed simulations ---------------------------------------------------------

/// How a simulation is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// As the workload runs it: detached, or live with the dashboard
    /// polling.
    Plain,
    /// `akita::profile` on: host time in handlers, by component kind. On
    /// the parallel engine the profiler is left off and the workers' busy
    /// time stands in for it.
    Profiled,
    /// The monitor attached and nobody polling it.
    Attached,
    /// `akita::trace` task tracing on.
    TaskTraced,
}

struct Sample {
    variant: Variant,
    /// Building one model, seconds.
    build: f64,
    /// Attaching the monitor and starting its server, seconds; 0 when
    /// detached.
    attach: f64,
    /// `Simulation::run`, seconds.
    wall: f64,
    /// The [`yardstick`] run right after this simulation, seconds.
    yardstick: f64,
    events: u64,
    /// Profiled runs: where the host time went.
    layers: Option<Layers>,
}

impl Sample {
    /// `host_seconds`, taken next to this simulation, at nominal host speed.
    fn scaled(&self, host_seconds: f64) -> f64 {
        host_seconds * YARDSTICK_NOMINAL_S / self.yardstick
    }

    /// Scaled host nanoseconds per committed event.
    fn per_event(&self, host_seconds: f64) -> f64 {
        self.scaled(host_seconds) / self.events as f64 * 1e9
    }
}

/// The profiler's own cost per scope, seconds, measured on this thread
/// with empty scopes: the part a top-level scope's `total_ns` includes,
/// the part outside it, and the whole cost of a scope nested in another,
/// which lands inside the outer scope's `total_ns`.
#[derive(Clone, Copy)]
struct ProfilerCost {
    inside: f64,
    outside: f64,
    nested: f64,
}

fn profiler_cost() -> ProfilerCost {
    const N: u32 = 50_000;
    let (mut inside, mut outside, mut nested) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        profile::reset();
        profile::set_enabled(true);
        let t0 = Instant::now();
        for _ in 0..N {
            let _scope = profile::scope("CalibrationTop");
        }
        let whole = t0.elapsed().as_secs_f64();
        {
            let _outer = profile::scope("CalibrationOuter");
            for _ in 0..N {
                let _scope = profile::scope("CalibrationNested");
            }
        }
        profile::set_enabled(false);
        let report = profile::snapshot();
        let total = |name: &str| {
            report
                .nodes
                .iter()
                .find(|n| n.name == name)
                .map_or(0.0, |n| n.total_ns as f64 * 1e-9)
        };
        let top = total("CalibrationTop");
        inside.push(top / f64::from(N));
        outside.push((whole - top) / f64::from(N));
        nested.push(total("CalibrationOuter") / f64::from(N));
    }
    profile::reset();
    ProfilerCost {
        inside: median(&inside),
        outside: median(&outside),
        nested: median(&nested),
    }
}

/// Where a profiled run's host time went, seconds.
struct Layers {
    /// In component and connection handlers, the profiler's cost removed.
    handlers: f64,
    /// The profiler's own cost, estimated from [`profiler_cost`].
    overhead: f64,
    /// Handler time per component kind, as profiled.
    kinds: Vec<(String, f64)>,
}

/// Splits a profile into layers. The engine opens a scope named by
/// component kind around every handler call; those are the top-level
/// scopes, and scopes that components open inside their handlers are
/// their callees.
fn layers(report: &profile::ProfileReport, cost: ProfilerCost) -> Layers {
    let is_top = |name: &str| !report.edges.iter().any(|e| e.to == name);
    let (mut total, mut top, mut nested) = (0.0, 0u64, 0u64);
    let mut kinds = Vec::new();
    for n in &report.nodes {
        if is_top(&n.name) {
            total += n.total_ns as f64 * 1e-9;
            top += n.count;
            kinds.push((n.name.clone(), n.total_ns as f64 * 1e-9));
        } else {
            nested += n.count;
        }
    }
    let (top, nested) = (top as f64, nested as f64);
    Layers {
        handlers: total - top * cost.inside - nested * cost.nested,
        overhead: top * (cost.inside + cost.outside) + nested * cost.nested,
        kinds,
    }
}

fn run_one(
    input: Input,
    live: Option<&Client>,
    variant: Variant,
) -> Result<(Sample, Outcome), String> {
    let (mut model, build) = Model::build_timed(input);
    let t0 = Instant::now();
    let attached = (live.is_some() || variant == Variant::Attached).then(|| attach(&mut model));
    let attach_s = if attached.is_some() {
        t0.elapsed().as_secs_f64()
    } else {
        0.0
    };
    let polled = live.filter(|_| variant != Variant::Attached);
    if let (Some(client), Some(a)) = (polled, &attached) {
        client.serve(a);
    }
    // The profiler records only on the calling thread, and the parallel
    // engine runs handlers on its workers; there the layers come from the
    // workers' own busy-time counters instead.
    let parallel = model.sim_ref().is_parallel();
    match variant {
        Variant::Profiled if !parallel => {
            profile::reset();
            profile::set_enabled(true);
        }
        Variant::TaskTraced => {
            akita::trace::reset();
            akita::trace::set_enabled(true);
        }
        _ => {}
    }
    let start = Instant::now();
    let summary = model.sim().run();
    let wall = start.elapsed().as_secs_f64();
    let mut split = None;
    match variant {
        Variant::Profiled if !parallel => {
            profile::set_enabled(false);
            let report = profile::snapshot();
            split = Some(layers(&report, profiler_cost()));
        }
        Variant::Profiled => {
            split = model.worker_busy().map(|busy| Layers {
                handlers: busy,
                overhead: 0.0,
                kinds: Vec::new(),
            });
        }
        Variant::TaskTraced => {
            akita::trace::set_enabled(false);
            akita::trace::reset();
        }
        Variant::Plain | Variant::Attached => {}
    }
    if let Some(client) = polled {
        client.pause(|| model.sim().drain_queries());
    }
    drop(attached);
    let outcome = model.verify(&summary)?;
    drop(model);
    Ok((
        Sample {
            variant,
            build,
            attach: attach_s,
            wall,
            yardstick: yardstick(),
            events: summary.events,
            layers: split,
        },
        outcome,
    ))
}

/// Serves the dashboard from a finished simulation held for inspection
/// (`rtm-sim --hold`) until `until`.
fn hold_for_inspection(input: Input, client: &Client, until: Instant) -> Result<(), String> {
    let mut model = Model::build(input);
    let summary = model.sim().run();
    model.verify(&summary)?;
    let attached = attach(&mut model);
    client.serve(&attached);
    let ctrl = model.sim().control();
    let panels = client.txs.clone();
    let stopper = thread::spawn(move || {
        thread::sleep(until.saturating_duration_since(Instant::now()));
        let acks = request_pause(&panels);
        for _ in &panels {
            if acks.recv().is_err() {
                break;
            }
        }
        ctrl.request_stop();
    });
    model.sim().run_interactive();
    stopper.join().expect("inspection stopper thread");
    drop(attached);
    Ok(())
}

// --- Host-speed yardstick ---------------------------------------------------------

/// Runs a fixed discrete-event kernel and returns its wall time, seconds.
///
/// It is the benchmark's measure of how fast the host is running right
/// now. Like the simulator it allocates messages, chases pointers through
/// a few MiB of per-node state and keeps a binary-heap event queue, so
/// neighbours that slow the simulator slow it too. It uses no code of the
/// repository, so changes to the simulator do not move it. Keep it
/// unchanged: the scaled figures are only comparable while it is.
fn yardstick() -> f64 {
    const NODES: usize = 8192;
    const EVENTS: usize = 100_000;
    struct Node {
        inbox: VecDeque<Box<[u64; 8]>>,
        state: Vec<u64>,
    }
    let t0 = Instant::now();
    let mut rng = Rng(0x5eed);
    let mut nodes: Vec<Node> = (0..NODES)
        .map(|i| Node {
            inbox: VecDeque::new(),
            state: vec![i as u64; 64],
        })
        .collect();
    let mut queue: BinaryHeap<Reverse<(u64, usize)>> =
        (0..NODES).map(|i| Reverse((rng.below(64), i))).collect();
    let mut acc = 0u64;
    for _ in 0..EVENTS {
        let Some(Reverse((t, i))) = queue.pop() else {
            break;
        };
        let r = rng.next();
        let node = &mut nodes[i];
        if let Some(msg) = node.inbox.pop_front() {
            let k = (r & 63) as usize;
            node.state[k] = node.state[k].wrapping_add(msg[(r >> 8) as usize & 7]);
            acc = acc.wrapping_add(node.state[(r >> 16) as usize & 63]);
        }
        let j = (r >> 20) as usize % NODES;
        nodes[j]
            .inbox
            .push_back(Box::new([r, t, acc, 1, 2, 3, 4, 5]));
        queue.push(Reverse((t + 1 + (r >> 40) % 16, j)));
    }
    std::hint::black_box(acc);
    drop(nodes);
    t0.elapsed().as_secs_f64()
}

// --- Statistics and output -------------------------------------------------------

/// Linear-interpolated quantile `q` in [0, 1] of `values`.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Prints the result line. A metric without samples is not a number and
/// makes the run incorrect.
fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let correct = correct && metrics.iter().all(|(_, value, _)| value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() {
    let args = parse_args();
    let mut rng = Rng(args.seed);
    let input = input_for(args.workload, &mut rng);
    let live = args.workload == WorkloadKind::McmMatmulLive;
    eprintln!(
        "perfbench: {:?} seed {} input {input:?}",
        args.workload, args.seed
    );

    // Warm-up, untimed: fills caches and the allocator, and fixes the
    // reference outcome every timed run must reproduce exactly.
    let mut warm = Model::build(input);
    let warm_summary = warm.sim().run();
    let reference = warm.verify(&warm_summary).unwrap_or_else(|e| {
        eprintln!("error: warm-up run failed: {e}");
        exit(1)
    });
    let panels = dashboard(&warm.component_names(), &mut rng);
    drop(warm);

    let variants: &[Variant] = if args.trace {
        &[
            Variant::Plain,
            Variant::Profiled,
            Variant::Attached,
            Variant::TaskTraced,
        ]
    } else {
        &[Variant::Plain]
    };
    let client = Client::spawn(panels, args.trace);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(args.seconds);
    let sims_end = if live {
        end
    } else {
        start + Duration::from_secs_f64(args.seconds * SIM_SHARE)
    };

    let mut samples = Vec::new();
    let mut errors = Vec::new();
    let mut sim_failures = 0u64;
    while samples.len() < MIN_SIMS * variants.len() || Instant::now() < sims_end {
        let variant = variants[samples.len() % variants.len()];
        match run_one(input, live.then_some(&client), variant) {
            Ok((sample, outcome)) => {
                if outcome != reference {
                    errors.push(format!(
                        "{variant:?} run diverged: {outcome:?} vs {reference:?}"
                    ));
                    sim_failures += 1;
                }
                samples.push(sample);
            }
            Err(e) => {
                errors.push(e);
                sim_failures += 1;
                if sim_failures > 3 {
                    break;
                }
            }
        }
    }
    if !live {
        let until =
            end.max(Instant::now() + Duration::from_secs_f64(args.seconds * (1.0 - SIM_SHARE)));
        if let Err(e) = hold_for_inspection(input, &client, until) {
            errors.push(e);
            sim_failures += 1;
        }
    }
    let stats = client.finish();

    let of = |v: Variant| samples.iter().filter(move |s| s.variant == v);
    let per_event =
        |v: Variant| -> f64 { median(&of(v).map(|s| s.per_event(s.wall)).collect::<Vec<_>>()) };
    let plain = per_event(Variant::Plain);
    // Per event, for the profiled runs: the engine layer (run loop, event
    // queue, dispatch and hooks; on the parallel engine also merging and
    // window barriers), the handler layer, and their sum, which must match
    // the plain runs' wall time within `LAYER_TOLERANCE`.
    let profiled = |f: fn(&Sample, &Layers) -> f64| -> f64 {
        median(
            &of(Variant::Profiled)
                .map(|s| s.layers.as_ref().map_or(f64::NAN, |l| f(s, l)))
                .collect::<Vec<_>>(),
        )
    };
    let engine = profiled(|s, l| s.per_event(s.wall - l.handlers - l.overhead));
    let handlers = profiled(|s, l| s.per_event(l.handlers));
    if args.trace {
        let layered = profiled(|s, l| s.per_event(s.wall - l.overhead));
        let closure = layered / plain - 1.0;
        eprintln!(
            "perfbench: engine {engine:.1} + handlers {handlers:.1} ns/event, profiler {:.1} ns/event removed; \
             the layers add up to {:+.1}% of the plain runs' {plain:.1} ns/event (tolerance {:.0}%)",
            profiled(|s, l| s.per_event(l.overhead)),
            closure * 100.0,
            LAYER_TOLERANCE * 100.0
        );
        if closure.is_nan() || closure.abs() > LAYER_TOLERANCE {
            errors.push(format!(
                "the layers add up to {layered:.1} ns/event, the plain runs take {plain:.1}"
            ));
        }
        print_kind_table(&samples);
    }
    for e in &errors {
        eprintln!("error: {e}");
    }

    let attempted = samples.len() as u64 + stats.attempted;
    let failed = sim_failures + stats.failed;
    let correct = errors.is_empty() && failed == 0 && !stats.http.is_empty();
    let raw: Vec<f64> = samples.iter().map(|s| s.wall).collect();
    let yardsticks: Vec<f64> = samples.iter().map(|s| s.yardstick).collect();
    eprintln!(
        "perfbench: {} simulations (unscaled wall min {:.3} ms, median {:.3} ms; yardstick median {:.3} ms), \
         {} requests ({} failed), {:.2} s",
        samples.len(),
        quantile(&raw, 0.0) * 1e3,
        median(&raw) * 1e3,
        median(&yardsticks) * 1e3,
        stats.attempted,
        failed,
        start.elapsed().as_secs_f64()
    );

    if args.trace {
        let builds: Vec<f64> = samples.iter().map(|s| s.scaled(s.build)).collect();
        let attaches: Vec<f64> = samples
            .iter()
            .filter(|s| live || s.variant == Variant::Attached)
            .map(|s| s.attach)
            .collect();
        print_result(
            correct,
            attempted,
            failed,
            &[
                ("events", reference.events as f64, "count"),
                ("ns_per_event", plain, "ns"),
                ("engine_ns_per_event", engine, "ns"),
                ("handler_ns_per_event", handlers, "ns"),
                ("attached_ns_per_event", per_event(Variant::Attached), "ns"),
                (
                    "tasktrace_ns_per_event",
                    per_event(Variant::TaskTraced),
                    "ns",
                ),
                ("build_ms", median(&builds) * 1e3, "ms"),
                ("attach_ms", median(&attaches) * 1e3, "ms"),
                ("http_us", median(&stats.http) * 1e6, "us"),
                ("inproc_us", median(&stats.inproc) * 1e6, "us"),
                ("send_late_us", quantile(&stats.late, 0.9) * 1e6, "us"),
            ],
        );
    } else {
        let walls: Vec<f64> = samples.iter().map(|s| s.scaled(s.wall)).collect();
        let setups: Vec<f64> = samples
            .iter()
            .map(|s| s.scaled(s.build + s.attach))
            .collect();
        print_result(
            correct,
            attempted,
            failed,
            &[
                ("sim_wall_ms", median(&walls) * 1e3, "ms"),
                ("setup_s", median(&setups), "s"),
                ("http_p90_ms", quantile(&stats.http, 0.9) * 1e3, "ms"),
            ],
        );
    }
}

/// Prints the profiled runs' handler time by component kind, for people.
fn print_kind_table(samples: &[Sample]) {
    let mut total: Vec<(String, f64)> = Vec::new();
    let mut events = 0u64;
    for s in samples.iter().filter(|s| s.variant == Variant::Profiled) {
        events += s.events;
        for (kind, t) in s.layers.iter().flat_map(|l| &l.kinds) {
            match total.iter_mut().find(|(k, _)| k == kind) {
                Some(e) => e.1 += t,
                None => total.push((kind.clone(), *t)),
            }
        }
    }
    total.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (kind, t) in total {
        let ns = t / events.max(1) as f64 * 1e9;
        eprintln!("  {kind:20} {ns:8.1} ns/event (profiled runs, unscaled)");
    }
}
