//! Differential determinism tests for the conservative-window parallel
//! engine: for the same topology and workload, `--threads N` must produce a
//! log of committed events that is bit-identical to `--threads 1` — same
//! `(time, seq, component, kind)` for every event, in the same order — with
//! and without an active fault plan.
//!
//! The topologies are generated from a seeded LCG so each run of the suite
//! exercises a fixed but non-trivial random graph; both simulations in a
//! pair are built from the same seed and therefore identical.
//!
//! Thread-count identity alone cannot catch a change that alters every
//! thread count the same way, so the committed logs are also pinned by
//! digest, and the run-loop control surfaces (deadlines, trace ring,
//! interactive idling, pause/resume, caught worker panics) are exercised
//! under the windowed engine.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::mpsc::channel;
use std::thread;
use std::time::{Duration, Instant};

use akita::{
    downcast_msg, impl_msg, CompBase, Component, CrashInfo, Ctx, DirectConnection, EventKind,
    FaultKind, FaultPlan, FaultRule, Hook, MsgMeta, PartitionPlan, Port, PortId, RunState,
    RunSummary, SimControl, Simulation, StopReason, VTime,
};

/// Deterministic splittable LCG (same constants as glibc's, good enough for
/// topology shuffling).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 17
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

#[derive(Debug, Clone)]
struct Packet {
    meta: MsgMeta,
    /// Remaining forwarding hops; carried state so routing decisions depend
    /// only on message content, never on engine scheduling.
    hops: u32,
    /// Per-packet RNG state used to pick the next hop.
    rng: u64,
}
impl_msg!(Packet);

/// A node in the random graph: injects a fixed burst of packets, and
/// forwards every received packet `hops` more times along an
/// LCG-determined route.
struct Node {
    base: CompBase,
    port: Port,
    /// All node ports, indexable by the packet RNG for next-hop choice.
    peers: Vec<PortId>,
    /// Packets this node still has to inject (hops, rng-seed).
    to_inject: Vec<(u32, u64)>,
    /// Packets that bounced (Busy) and await retry.
    pending: Vec<Box<dyn Msg>>,
    received: u64,
}

use akita::Msg;

impl Node {
    fn route(&self, rng: &mut Lcg) -> PortId {
        self.peers[rng.below(self.peers.len() as u64) as usize]
    }
}

impl Component for Node {
    fn base(&self) -> &CompBase {
        &self.base
    }
    fn base_mut(&mut self) -> &mut CompBase {
        &mut self.base
    }
    fn tick(&mut self, ctx: &mut Ctx) -> bool {
        let mut progress = false;
        // Retry bounced sends first, preserving order.
        let pending = std::mem::take(&mut self.pending);
        for msg in pending {
            match self.port.send(ctx, msg) {
                Ok(()) => progress = true,
                Err(m) => self.pending.push(m),
            }
        }
        // Inject one fresh packet per tick while any remain.
        if self.pending.is_empty() {
            if let Some((hops, seed)) = self.to_inject.pop() {
                let mut rng = Lcg(seed);
                let dst = self.route(&mut rng);
                let pkt = Box::new(Packet {
                    meta: MsgMeta::new(self.port.id(), dst, 64),
                    hops,
                    rng: rng.0,
                });
                match self.port.send(ctx, pkt) {
                    Ok(()) => progress = true,
                    Err(m) => self.pending.push(m),
                }
            }
        }
        // Forward received packets that still have hops left.
        while let Some(msg) = self.port.retrieve(ctx) {
            progress = true;
            self.received += 1;
            let pkt = downcast_msg::<Packet>(msg).expect("packet");
            if pkt.hops > 0 {
                let mut rng = Lcg(pkt.rng);
                let dst = self.route(&mut rng);
                let fwd = Box::new(Packet {
                    meta: MsgMeta::new(self.port.id(), dst, 64),
                    hops: pkt.hops - 1,
                    rng: rng.0,
                });
                if let Err(m) = self.port.send(ctx, fwd) {
                    self.pending.push(m);
                }
            }
        }
        progress || !self.pending.is_empty() || !self.to_inject.is_empty()
    }
}

/// A committed event as `(time_ps, seq, component, kind)`, where kind is
/// `0` for a tick and `1 + code` for a custom event.
type LogEntry = (u64, u64, String, u64);

/// Records every committed event.
#[derive(Default)]
struct LogHook {
    log: Vec<LogEntry>,
}

fn kind_code(kind: EventKind) -> u64 {
    match kind {
        EventKind::Tick => 0,
        EventKind::Custom(c) => 1 + c,
    }
}

impl Hook for LogHook {
    fn before_event(&mut self, ev: &akita::Ev, component: &dyn Component) {
        self.log.push((
            ev.time.ps(),
            ev.seq,
            component.name().to_owned(),
            kind_code(ev.kind),
        ));
    }
}

/// 64-bit FNV-1a over a hook log, each event fed as the little-endian bytes
/// of `time` and `seq`, the component name and a `0` terminator, then the
/// little-endian kind code.
fn fnv1a(log: &[LogEntry]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (time, seq, component, kind) in log {
        feed(&time.to_le_bytes());
        feed(&seq.to_le_bytes());
        feed(component.as_bytes());
        feed(&[0]);
        feed(&kind.to_le_bytes());
    }
    h
}

/// Builds `tiles` groups of `per_tile` nodes each. All node ports share one
/// "Net" connection (spanning under the tile partitioning); each tile also
/// gets a private intra-tile connection to exercise the non-relayed path.
fn build(seed: u64, tiles: usize, per_tile: usize) -> (Simulation, Rc<RefCell<LogHook>>) {
    let mut sim = Simulation::new();
    let mut rng = Lcg(seed);
    let (_, net) = sim.register(DirectConnection::new("Net", VTime::from_ns(1)).with_link_cap(4));

    // First pass: create every node (ports must all exist before routes can
    // reference them).
    let mut nodes = Vec::new();
    for t in 0..tiles {
        for i in 0..per_tile {
            let name = format!("Tile[{t}].Node[{i}]");
            let port = Port::new(&sim.buffer_registry(), format!("{name}.Port"), 2);
            nodes.push(Node {
                base: CompBase::new("Node", name),
                port,
                peers: Vec::new(),
                to_inject: Vec::new(),
                pending: Vec::new(),
                received: 0,
            });
        }
    }
    let peers: Vec<PortId> = nodes.iter().map(|n| n.port.id()).collect();
    for (idx, node) in nodes.iter_mut().enumerate() {
        node.peers = peers.clone();
        let bursts = 1 + rng.below(3);
        for _ in 0..bursts {
            let hops = rng.below(4) as u32;
            node.to_inject.push((hops, rng.next() | 1));
        }
        let _ = idx;
    }
    for node in nodes {
        let port = node.port.clone();
        let (id, _) = sim.register(node);
        sim.connect(&net, &port, id);
        sim.wake_at(id, VTime::ZERO);
    }
    let hook = sim.add_hook(LogHook::default());
    (sim, hook)
}

fn tile_key(name: &str) -> String {
    match name.split_once("].") {
        Some((tile, _)) if tile.starts_with("Tile[") => format!("{tile}]"),
        _ => "host".to_owned(),
    }
}

/// Partitions the differential mesh by tile and runs it on the windowed
/// engine, returning the hook log, the run summary and the per-rule
/// injection counts of the installed fault plan.
fn run_windowed(
    seed: u64,
    threads: usize,
    faults: Option<&FaultPlan>,
) -> (Vec<LogEntry>, RunSummary, Vec<u64>) {
    let (mut sim, hook) = build(seed, 3, 4);
    if let Some(plan) = faults {
        sim.install_faults(plan);
    }
    set_tile_parallel(&mut sim, threads);
    let summary = sim.run();
    let log = hook.borrow().log.clone();
    let injected = sim
        .fault_report()
        .rules
        .iter()
        .map(|r| r.injected)
        .collect();
    (log, summary, injected)
}

fn set_tile_parallel(sim: &mut Simulation, threads: usize) {
    let plan = PartitionPlan::from_key(sim, tile_key).expect("partition plan");
    assert!(plan.partitions() >= 3, "expected one partition per tile");
    sim.set_parallel(plan, threads).expect("set_parallel");
}

fn assert_identical(seed: u64, faults: Option<&FaultPlan>) {
    let (log1, summary1, _) = run_windowed(seed, 1, faults);
    let (log4, summary4, _) = run_windowed(seed, 4, faults);
    assert!(!log1.is_empty(), "seed {seed}: simulation did nothing");
    assert_eq!(
        summary1.events, summary4.events,
        "seed {seed}: events_total diverged"
    );
    assert_eq!(
        log1.len(),
        log4.len(),
        "seed {seed}: log length diverged ({} vs {})",
        log1.len(),
        log4.len()
    );
    for (i, (a, b)) in log1.iter().zip(log4.iter()).enumerate() {
        assert_eq!(a, b, "seed {seed}: logs diverge at event {i}");
    }
}

#[test]
fn one_vs_four_threads_bit_identical() {
    for seed in [1, 7, 42, 1234] {
        assert_identical(seed, None);
    }
}

/// One rule of each of the six fault kinds, spread over the three tiles.
fn six_kind_plan() -> FaultPlan {
    FaultPlan {
        seed: 99,
        rules: vec![
            FaultRule {
                site: "Tile[0].Node[1].Port".into(),
                kind: FaultKind::Drop { prob: 0.2 },
            },
            FaultRule {
                site: "Tile[1].Node[0].Port".into(),
                kind: FaultKind::Delay {
                    prob: 0.3,
                    delay_ps: 1500,
                },
            },
            FaultRule {
                site: "Tile[2].Node[2].Port".into(),
                kind: FaultKind::Duplicate { prob: 0.3 },
            },
            FaultRule {
                site: "Tile[0].Node[0].Port".into(),
                kind: FaultKind::Reorder { prob: 0.25 },
            },
            FaultRule {
                site: "Tile[1].Node[2]".into(),
                kind: FaultKind::Freeze {
                    from_ps: 2_000,
                    for_ps: 5_000,
                },
            },
            FaultRule {
                site: "Tile[2].Node[0]".into(),
                kind: FaultKind::Slow { factor: 3 },
            },
        ],
    }
}

#[test]
fn one_vs_four_threads_bit_identical_under_faults() {
    let plan = six_kind_plan();
    for seed in [3, 11, 77] {
        assert_identical(seed, Some(&plan));
    }
}

/// The committed logs of the differential mesh at 2 threads, pinned by
/// digest and summary. The values were recorded from the windowed engine
/// before its dispatch core was shared with the serial engine.
#[test]
fn windowed_engine_commits_the_pinned_logs() {
    let pins: [(u64, u64, u64, u64); 4] = [
        (1, 0xc137_2423_fb4b_0aac, 117, 7000),
        (7, 0xab22_565e_e796_63e2, 112, 6000),
        (42, 0xf363_9b42_1b62_5eea, 92, 6000),
        (1234, 0x7e86_4fca_3563_f850, 120, 7000),
    ];
    for (seed, digest, events, end_ps) in pins {
        let (log, summary, _) = run_windowed(seed, 2, None);
        assert_eq!(
            summary,
            RunSummary {
                events,
                end_time: VTime::from_ps(end_ps),
                reason: StopReason::Completed,
            },
            "seed {seed}"
        );
        assert_eq!(log.len() as u64, events, "seed {seed}");
        assert_eq!(fnv1a(&log), digest, "seed {seed}: event log changed");
    }
}

/// The same pins under the six-kind fault plan, plus each rule's injection
/// count (frozen events count in the summary but never reach hooks).
#[test]
fn windowed_engine_commits_the_pinned_logs_under_faults() {
    let plan = six_kind_plan();
    let pins: [(u64, u64, u64, u64, [u64; 6]); 3] = [
        (3, 0x9f46_5e93_5e8e_6519, 134, 10_000, [4, 2, 2, 1, 1, 4]),
        (11, 0x075d_b402_d1b1_1b39, 129, 10_000, [5, 3, 1, 1, 2, 6]),
        (77, 0x86fc_92d0_b33d_4eef, 113, 9000, [2, 2, 1, 2, 2, 5]),
    ];
    for (seed, digest, events, end_ps, injected) in pins {
        let (log, summary, got) = run_windowed(seed, 2, Some(&plan));
        assert_eq!(
            summary,
            RunSummary {
                events,
                end_time: VTime::from_ps(end_ps),
                reason: StopReason::Completed,
            },
            "seed {seed}"
        );
        assert_eq!(fnv1a(&log), digest, "seed {seed}: event log changed");
        assert_eq!(got, injected, "seed {seed}: injection counts changed");
    }
}

/// `threads` higher than the partition count must clamp, not crash, and
/// still merge deterministically.
#[test]
fn oversubscribed_threads_clamp_to_partitions() {
    let (log8, _, _) = run_windowed(5, 8, None);
    let (log1, _, _) = run_windowed(5, 1, None);
    assert_eq!(log1, log8);
}

/// The parallel report exposes the partition layout.
#[test]
fn parallel_report_shape() {
    let (mut sim, _hook) = build(2, 3, 2);
    let plan = PartitionPlan::from_key(&sim, tile_key).expect("plan");
    sim.set_parallel(plan, 2).expect("set_parallel");
    sim.run();
    let report = sim.parallel_report().expect("parallel report");
    // Three tile partitions plus "host" (the Net connection has no tile).
    assert_eq!(report.partitions.len(), 4);
    assert!(report.lookahead_ps >= 1000, "Net latency bounds lookahead");
    assert!(report.windows > 0);
    let total: u64 = report.partitions.iter().map(|p| p.events).sum();
    assert!(total > 0);
}

// ---------------------------------------------------------------------------
// Run-loop control surfaces under the windowed engine
// ---------------------------------------------------------------------------

/// Polls `cond` every millisecond, failing after ten seconds.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(1));
    }
}

/// Stops the simulation if the helper thread holding it panics, so a
/// failed assertion there cannot leave the engine serving queries forever.
struct StopOnPanic(std::sync::Arc<SimControl>);

impl Drop for StopOnPanic {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.request_stop();
        }
    }
}

fn parallel_mesh(seed: u64) -> (Simulation, Rc<RefCell<LogHook>>) {
    let (mut sim, hook) = build(seed, 3, 4);
    set_tile_parallel(&mut sim, 2);
    (sim, hook)
}

#[test]
fn run_until_then_run_commits_the_same_log_as_one_run() {
    let (whole, summary, _) = run_windowed(7, 2, None);
    let (mut sim, hook) = parallel_mesh(7);
    let half = VTime::from_ps(summary.end_time.ps() / 2);
    let first = sim.run_until(half);
    assert_eq!(first.reason, StopReason::DeadlineReached);
    assert_eq!(first.end_time, half);
    assert_eq!(sim.control().state(), RunState::Idle);
    let rest = sim.run();
    assert_eq!((first.events, rest.events), (80, 32));
    assert_eq!(rest.end_time, summary.end_time);
    assert_eq!(rest.reason, StopReason::Completed);
    assert_eq!(hook.borrow().log, whole);
}

#[test]
fn trace_ring_tail_matches_the_hook_log() {
    let (mut sim, hook) = parallel_mesh(7);
    let client = sim.client();
    client.set_tracing(true).expect("set_tracing");
    let ctrl = sim.control();
    let helper = thread::spawn(move || {
        let _stop = StopOnPanic(ctrl);
        wait_until("the drained run to idle", || {
            client.run_state() == RunState::Idle
        });
        let tail = client.trace(40).expect("trace");
        client.terminate().expect("terminate");
        tail
    });
    let summary = sim.run_interactive();
    let tail = helper.join().expect("helper thread");
    assert_eq!(summary.reason, StopReason::Stopped);
    let log = hook.borrow().log.clone();
    let expected: Vec<(u64, String, u64)> = log[log.len() - 40..]
        .iter()
        .map(|(time, _, comp, kind)| (*time, comp.clone(), *kind))
        .collect();
    let got: Vec<(u64, String, u64)> = tail
        .iter()
        .map(|r| (r.time.ps(), r.component.clone(), kind_code(r.kind)))
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn interactive_run_idles_runs_an_injected_tick_and_terminates() {
    let (mut sim, hook) = parallel_mesh(7);
    let client = sim.client();
    let ctrl = sim.control();
    let helper = thread::spawn(move || {
        let _stop = StopOnPanic(ctrl);
        wait_until("the drained run to idle", || {
            client.run_state() == RunState::Idle
        });
        let drained = client.events_handled();
        assert!(client.tick_component("Tile[0].Node[0]").expect("tick"));
        wait_until("the injected tick to run", || {
            client.events_handled() > drained && client.run_state() == RunState::Idle
        });
        client.terminate().expect("terminate");
        drained
    });
    let summary = sim.run_interactive();
    let drained = helper.join().expect("helper thread");
    assert_eq!(drained, 112);
    assert_eq!(summary.reason, StopReason::Stopped);
    assert_eq!(summary.events, 113);
    let log = hook.borrow().log.clone();
    let (time, _, comp, kind) = log.last().expect("log");
    assert_eq!((*time, comp.as_str(), *kind), (7000, "Tile[0].Node[0]", 0));
}

/// Holds the engine at the `at`-th committed event until another thread
/// has requested a pause.
struct PauseAt {
    at: usize,
    seen: usize,
    reached: std::sync::mpsc::Sender<()>,
    paused: std::sync::mpsc::Receiver<()>,
}

impl Hook for PauseAt {
    fn before_event(&mut self, _ev: &akita::Ev, _component: &dyn Component) {
        self.seen += 1;
        if self.seen == self.at {
            let _ = self.reached.send(());
            let _ = self.paused.recv();
        }
    }
}

#[test]
fn pause_and_resume_from_another_thread_mid_run() {
    let (whole, _, _) = run_windowed(7, 2, None);
    let (mut sim, hook) = build(7, 3, 4);
    let (reached_tx, reached_rx) = channel();
    let (paused_tx, paused_rx) = channel();
    sim.add_hook(PauseAt {
        at: 50,
        seen: 0,
        reached: reached_tx,
        paused: paused_rx,
    });
    set_tile_parallel(&mut sim, 2);
    let client = sim.client();
    let ctrl = sim.control();
    let helper = thread::spawn(move || {
        let _stop = StopOnPanic(ctrl);
        reached_rx.recv().expect("hook reached");
        client.pause();
        paused_tx.send(()).expect("hook waiting");
        wait_until("the engine to pause", || {
            client.run_state() == RunState::Paused
        });
        let held = client.events_handled();
        let status = client.status().expect("status while paused");
        assert_eq!(status.state, RunState::Paused);
        assert_eq!(status.events, held);
        thread::sleep(Duration::from_millis(20));
        assert_eq!(client.events_handled(), held, "engine ran while paused");
        client.resume();
        held
    });
    let summary = sim.run();
    let held = helper.join().expect("helper thread");
    assert!((50..112).contains(&held), "paused after {held} events");
    assert_eq!(summary.events, 112);
    assert_eq!(summary.reason, StopReason::Completed);
    assert_eq!(hook.borrow().log, whole);
}

/// Ticks every cycle and panics once virtual time reaches 3 ns.
struct Bomb {
    base: CompBase,
}

impl Component for Bomb {
    fn base(&self) -> &CompBase {
        &self.base
    }
    fn base_mut(&mut self) -> &mut CompBase {
        &mut self.base
    }
    fn tick(&mut self, ctx: &mut Ctx) -> bool {
        assert!(ctx.now() < VTime::from_ns(3), "bomb went off");
        true
    }
}

#[test]
fn worker_panic_ends_run_caught_with_crashed() {
    let (mut sim, _hook) = build(7, 3, 4);
    let (bomb, _) = sim.register(Bomb {
        base: CompBase::new("Bomb", "Tile[1].Bomb"),
    });
    sim.wake_at(bomb, VTime::ZERO);
    set_tile_parallel(&mut sim, 2);
    let summary = sim.run_caught(false);
    assert_eq!(summary.reason, StopReason::Crashed);
    assert_eq!(summary.events, 60);
    assert_eq!(sim.control().state(), RunState::Crashed);
    assert_eq!(
        sim.control().crash_info(),
        Some(CrashInfo {
            message: "bomb went off".into(),
            component: "Tile[1].Bomb".into(),
            now: VTime::from_ps(3000),
            events: 60,
        })
    );
}

/// Panics when the `at`-th event commits.
struct PanicAt {
    at: usize,
    seen: usize,
}

impl Hook for PanicAt {
    fn before_event(&mut self, _ev: &akita::Ev, _component: &dyn Component) {
        self.seen += 1;
        assert!(self.seen < self.at, "hook gave up");
    }
}

/// A panic on the engine thread — here in a hook, at a window commit —
/// must still release the parked workers, so `run_caught` returns instead
/// of waiting on them forever.
#[test]
fn engine_thread_panic_releases_the_workers() {
    let (mut sim, _hook) = build(7, 3, 4);
    sim.add_hook(PanicAt { at: 30, seen: 0 });
    set_tile_parallel(&mut sim, 2);
    let summary = sim.run_caught(false);
    assert_eq!(summary.reason, StopReason::Crashed);
    let crash = sim.control().crash_info().expect("crash info");
    assert_eq!(crash.message, "hook gave up");
}
