//! Integration tests for the akita engine: ticking and sleeping, message
//! delivery over connections, backpressure, monitor queries, pause/resume,
//! and the idle/kick-start workflow that Case Study 2 relies on.

use std::cell::RefCell;
use std::rc::Rc;
use std::thread;
use std::time::Duration;

use akita::{
    impl_msg, CompBase, Component, ComponentState, Ctx, DirectConnection, EventKind, Freq, MsgMeta,
    Port, RunState, RunSummary, Simulation, StopReason, VTime,
};

#[derive(Debug)]
struct Packet {
    meta: MsgMeta,
    seq: u64,
}
impl_msg!(Packet);

/// Sends `total` packets to a destination port, retrying on backpressure.
struct Producer {
    base: CompBase,
    out: Port,
    dst: akita::PortId,
    total: u64,
    sent: u64,
    held: Option<Box<dyn akita::Msg>>,
}

impl Producer {
    fn new(sim: &Simulation, name: &str, dst: akita::PortId, total: u64) -> Self {
        let out = Port::new(&sim.buffer_registry(), format!("{name}.Out"), 2);
        Producer {
            base: CompBase::new("Producer", name),
            out,
            dst,
            total,
            sent: 0,
            held: None,
        }
    }
}

impl Component for Producer {
    fn base(&self) -> &CompBase {
        &self.base
    }
    fn base_mut(&mut self) -> &mut CompBase {
        &mut self.base
    }

    fn tick(&mut self, ctx: &mut Ctx) -> bool {
        if self.held.is_none() && self.sent < self.total {
            let mut meta = MsgMeta::new(self.out.id(), self.dst, 64);
            meta.dst = self.dst;
            self.held = Some(Box::new(Packet {
                meta,
                seq: self.sent,
            }));
            self.sent += 1;
        }
        if let Some(msg) = self.held.take() {
            if let Err(msg) = self.out.send(ctx, msg) {
                self.held = Some(msg);
                return false; // blocked: connection will wake us
            }
            return true;
        }
        false
    }

    fn state(&self) -> ComponentState {
        ComponentState::new()
            .field("sent", self.sent)
            .field("holding", self.held.is_some())
    }
}

/// Consumes packets at a configurable rate (packets per tick <= 1, with a
/// stall period to model a slow component).
struct Consumer {
    base: CompBase,
    inp: Port,
    received: Vec<u64>,
    /// Consume one packet every `period` ticks.
    period: u32,
    phase: u32,
}

impl Consumer {
    fn new(sim: &Simulation, name: &str, buf_cap: usize, period: u32) -> Self {
        let inp = Port::new(&sim.buffer_registry(), format!("{name}.In"), buf_cap);
        Consumer {
            base: CompBase::new("Consumer", name),
            inp,
            received: Vec::new(),
            period,
            phase: 0,
        }
    }
}

impl Component for Consumer {
    fn base(&self) -> &CompBase {
        &self.base
    }
    fn base_mut(&mut self) -> &mut CompBase {
        &mut self.base
    }

    fn tick(&mut self, ctx: &mut Ctx) -> bool {
        self.phase += 1;
        if self.phase < self.period {
            // Still "working": keep ticking while input is waiting.
            return self.inp.has_incoming();
        }
        self.phase = 0;
        match self.inp.retrieve(ctx) {
            Some(msg) => {
                let pkt = akita::downcast_msg::<Packet>(msg).expect("only packets flow here");
                self.received.push(pkt.seq);
                true
            }
            None => false,
        }
    }

    fn state(&self) -> ComponentState {
        ComponentState::new().container("received", self.received.len(), None)
    }
}

struct Chain {
    sim: Simulation,
    producer: Rc<RefCell<Producer>>,
    consumer: Rc<RefCell<Consumer>>,
}

fn build_chain(total: u64, consumer_buf: usize, consumer_period: u32) -> Chain {
    let mut sim = Simulation::new();
    let consumer = Consumer::new(&sim, "C", consumer_buf, consumer_period);
    let dst = consumer.inp.id();
    let producer = Producer::new(&sim, "P", dst, total);

    let (_conn_id, conn) = sim.register(DirectConnection::new("Conn", VTime::from_ns(1)));
    let (cons_id, consumer) = {
        let port = consumer.inp.clone();
        let (id, rc) = sim.register(consumer);
        sim.connect(&conn, &port, id);
        (id, rc)
    };
    let (prod_id, producer) = {
        let port = producer.out.clone();
        let (id, rc) = sim.register(producer);
        sim.connect(&conn, &port, id);
        (id, rc)
    };
    let _ = cons_id;
    sim.wake_at(prod_id, VTime::ZERO);
    Chain {
        sim,
        producer,
        consumer,
    }
}

#[test]
fn messages_flow_end_to_end_in_order() {
    let mut chain = build_chain(20, 4, 1);
    let summary = chain.sim.run();
    assert_eq!(summary.reason, StopReason::Completed);
    assert_eq!(chain.producer.borrow().sent, 20);
    assert_eq!(
        chain.consumer.borrow().received,
        (0..20).collect::<Vec<_>>()
    );
}

#[test]
fn slow_consumer_applies_backpressure_but_all_arrive() {
    let mut chain = build_chain(50, 2, 7);
    chain.sim.run();
    assert_eq!(chain.consumer.borrow().received.len(), 50);
    // The slow consumer forces the producer to stall: the sim must take far
    // longer than the unthrottled case (50 cycles + latency).
    assert!(chain.sim.now() > VTime::from_ns(300));
}

#[test]
fn simulation_time_advances_monotonically_with_latency() {
    let mut chain = build_chain(1, 4, 1);
    chain.sim.run();
    // 1 ns connection latency: the packet cannot arrive before 1 ns.
    assert!(chain.sim.now() >= VTime::from_ns(1));
}

#[test]
fn run_until_stops_at_deadline() {
    let mut chain = build_chain(1000, 4, 1);
    let summary = chain.sim.run_until(VTime::from_ns(10));
    assert_eq!(summary.reason, StopReason::DeadlineReached);
    assert_eq!(chain.sim.now(), VTime::from_ns(10));
    let received_so_far = chain.consumer.borrow().received.len();
    assert!(received_so_far < 1000, "deadline must cut the run short");
    // Resuming completes the work.
    let summary = chain.sim.run();
    assert_eq!(summary.reason, StopReason::Completed);
    assert_eq!(chain.consumer.borrow().received.len(), 1000);
}

#[test]
fn sleeping_components_do_not_burn_events() {
    let mut chain = build_chain(5, 4, 1);
    let summary = chain.sim.run();
    // Generous bound: each packet costs a handful of events (producer tick,
    // connection tick, consumer tick, wakes). If sleeping were broken the
    // count would be proportional to simulated cycles, not packets.
    assert!(
        summary.events < 100,
        "expected event count proportional to work, got {}",
        summary.events
    );
}

#[test]
fn duplicate_component_names_panic() {
    let result = std::panic::catch_unwind(|| {
        let mut sim = Simulation::new();
        let c1 = Consumer::new(&sim, "X", 1, 1);
        let c2 = Consumer::new(&sim, "X", 1, 1);
        sim.register(c1);
        sim.register(c2);
    });
    assert!(result.is_err());
}

#[test]
fn monitor_queries_are_served_during_a_run() {
    let mut chain = build_chain(200_000, 4, 1);
    let client = chain.sim.client();
    let probe = thread::spawn(move || {
        // Wait for the run to start.
        thread::sleep(Duration::from_millis(5));
        let status = client.status().expect("status");
        let comps = client.components().expect("components");
        let buffers = client.buffers().expect("buffers");
        let state = client.component_state("P").expect("state");
        (status, comps, buffers, state)
    });
    chain.sim.run();
    let (status, comps, buffers, state) = probe.join().unwrap();
    assert!(status.components == 3);
    assert_eq!(comps.len(), 3);
    assert!(buffers.iter().any(|b| b.name == "C.In.Buf"));
    let state = state.expect("producer exists");
    assert_eq!(state.kind, "Producer");
    assert!(state.state.get("sent").is_some());
}

#[test]
fn unknown_component_state_is_none() {
    let mut chain = build_chain(100_000, 4, 1);
    let client = chain.sim.client();
    let probe = thread::spawn(move || {
        thread::sleep(Duration::from_millis(2));
        client.component_state("NoSuchThing").expect("query ok")
    });
    chain.sim.run();
    assert!(probe.join().unwrap().is_none());
}

#[test]
fn pause_and_resume_from_monitor_thread() {
    let mut chain = build_chain(500_000, 4, 1);
    let client = chain.sim.client();
    let probe = thread::spawn(move || {
        thread::sleep(Duration::from_millis(5));
        client.pause();
        // Wait until the engine acknowledges the pause.
        let mut acknowledged = false;
        for _ in 0..200 {
            if client.run_state() == RunState::Paused {
                acknowledged = true;
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        // While paused, time must not advance but queries must work.
        let t1 = client.now();
        let status = client.status().expect("status while paused");
        thread::sleep(Duration::from_millis(10));
        let t2 = client.now();
        client.resume();
        (acknowledged, t1, t2, status)
    });
    chain.sim.run();
    let (acknowledged, t1, t2, status) = probe.join().unwrap();
    assert!(acknowledged, "engine never reported Paused");
    assert_eq!(t1, t2, "virtual time advanced while paused");
    assert_eq!(status.state, RunState::Paused);
}

#[test]
fn interactive_run_idles_then_terminates() {
    let mut chain = build_chain(10, 4, 1);
    let client = chain.sim.client();
    let probe = thread::spawn(move || {
        // Wait for the sim to drain its queue and go idle.
        let mut idle = false;
        for _ in 0..500 {
            if client.run_state() == RunState::Idle {
                idle = true;
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        // While idle, queries still work (post-mortem inspection).
        let buffers = client.buffers().expect("buffers while idle");
        client.terminate().expect("terminate");
        (idle, buffers)
    });
    let summary = chain.sim.run_interactive();
    let (idle, buffers) = probe.join().unwrap();
    assert!(idle, "engine never reported Idle");
    assert!(!buffers.is_empty());
    assert_eq!(summary.reason, StopReason::Stopped);
    assert_eq!(chain.consumer.borrow().received.len(), 10);
}

#[test]
fn tick_injection_wakes_a_sleeping_component() {
    // Build a consumer-only sim: the consumer never gets a message, so it
    // never ticks on its own.
    let mut sim = Simulation::new();
    let consumer = Consumer::new(&sim, "C", 2, 1);
    let (_id, consumer) = sim.register(consumer);
    let client = sim.client();
    let probe = thread::spawn(move || {
        thread::sleep(Duration::from_millis(5));
        assert!(client.tick_component("C").expect("tick"));
        assert!(!client.tick_component("missing").expect("tick missing"));
        thread::sleep(Duration::from_millis(5));
        client.terminate().expect("terminate");
    });
    let summary = sim.run_interactive();
    probe.join().unwrap();
    // The injected tick ran exactly once: phase advanced from 0.
    assert!(summary.events >= 1);
    assert_eq!(consumer.borrow().phase, 1 % consumer.borrow().period.max(1));
}

#[test]
fn kick_start_wakes_every_component() {
    let mut chain = build_chain(0, 4, 1); // producer has nothing to send
    let client = chain.sim.client();
    let probe = thread::spawn(move || {
        thread::sleep(Duration::from_millis(5));
        let woken = client.kick_start().expect("kick start");
        thread::sleep(Duration::from_millis(5));
        client.terminate().expect("terminate");
        woken
    });
    let summary = chain.sim.run_interactive();
    let woken = probe.join().unwrap();
    assert_eq!(woken, 3, "producer, consumer, connection");
    assert!(summary.events >= 3, "each woken component ticked");
}

#[test]
fn profiling_via_query_collects_component_scopes() {
    let mut chain = build_chain(2_000, 4, 1);
    let client = chain.sim.client();
    client.set_profiling(true).expect("enable profiling");
    chain.sim.run();
    chain.sim.drain_queries();
    let client = chain.sim.client();
    let report = {
        // Serve the profile query from this thread: run() has returned, so
        // answer inline via a short interactive run.
        let probe = thread::spawn(move || {
            let r = client.profile().expect("profile");
            client.terminate().expect("terminate");
            r
        });
        chain.sim.run_interactive();
        probe.join().unwrap()
    };
    akita::profile::set_enabled(false);
    akita::profile::reset();
    assert!(report.nodes.iter().any(|n| n.name == "Producer"));
    assert!(report.nodes.iter().any(|n| n.name == "Consumer"));
    assert!(report.nodes.iter().any(|n| n.name == "DirectConnection"));
}

#[test]
fn stop_request_interrupts_a_long_run() {
    let mut chain = build_chain(u64::MAX / 2, 64, 1);
    let client = chain.sim.client();
    let probe = thread::spawn(move || {
        thread::sleep(Duration::from_millis(10));
        client.request_stop();
    });
    let summary = chain.sim.run();
    probe.join().unwrap();
    assert_eq!(summary.reason, StopReason::Stopped);
}

#[test]
fn connection_bandwidth_throttles_delivery() {
    // Two identical chains, one with a tiny-bandwidth connection: the
    // throttled one must take longer in virtual time.
    fn run_with(bandwidth: Option<u64>) -> VTime {
        let mut sim = Simulation::new();
        let consumer = Consumer::new(&sim, "C", 4, 1);
        let dst = consumer.inp.id();
        let producer = Producer::new(&sim, "P", dst, 40);
        let conn = DirectConnection::new("Conn", VTime::from_ns(1));
        let conn = match bandwidth {
            Some(bw) => conn.with_bandwidth(bw),
            None => conn,
        };
        let (_cid, conn) = sim.register(conn);
        let cport = consumer.inp.clone();
        let (cons_id, _c) = sim.register(consumer);
        sim.connect(&conn, &cport, cons_id);
        let pport = producer.out.clone();
        let (prod_id, _p) = sim.register(producer);
        sim.connect(&conn, &pport, prod_id);
        sim.wake_at(prod_id, VTime::ZERO);
        sim.run();
        sim.now()
    }
    let fast = run_with(None);
    let slow = run_with(Some(1_000_000_000)); // 1 GB/s, 64-byte packets
    assert!(
        slow > fast,
        "bandwidth limit must slow delivery: fast={fast}, slow={slow}"
    );
}

#[test]
fn custom_events_reach_handle_custom() {
    struct Alarm {
        base: CompBase,
        fired: Vec<u64>,
    }
    impl Component for Alarm {
        fn base(&self) -> &CompBase {
            &self.base
        }
        fn base_mut(&mut self) -> &mut CompBase {
            &mut self.base
        }
        fn tick(&mut self, _ctx: &mut Ctx) -> bool {
            false
        }
        fn handle_custom(&mut self, code: u64, _ctx: &mut Ctx) {
            self.fired.push(code);
        }
    }
    let mut sim = Simulation::new();
    let (id, alarm) = sim.register(Alarm {
        base: CompBase::new("Alarm", "A"),
        fired: Vec::new(),
    });
    sim.ctx().schedule_custom(id, 7, VTime::from_ns(5));
    sim.ctx().schedule_custom(id, 9, VTime::from_ns(2));
    sim.run();
    assert_eq!(alarm.borrow().fired, vec![9, 7]);
}

#[test]
fn different_clock_domains_interleave_correctly() {
    struct Count {
        base: CompBase,
        n: u64,
        limit: u64,
    }
    impl Component for Count {
        fn base(&self) -> &CompBase {
            &self.base
        }
        fn base_mut(&mut self) -> &mut CompBase {
            &mut self.base
        }
        fn tick(&mut self, _ctx: &mut Ctx) -> bool {
            self.n += 1;
            self.n < self.limit
        }
    }
    let mut sim = Simulation::new();
    let (fast_id, fast) = sim.register(Count {
        base: CompBase::new("Count", "Fast").with_freq(Freq::ghz(2)),
        n: 0,
        limit: u64::MAX,
    });
    let (slow_id, slow) = sim.register(Count {
        base: CompBase::new("Count", "Slow").with_freq(Freq::ghz(1)),
        n: 0,
        limit: u64::MAX,
    });
    sim.wake_at(fast_id, VTime::ZERO);
    sim.wake_at(slow_id, VTime::ZERO);
    sim.run_until(VTime::from_ns(100));
    let f = fast.borrow().n;
    let s = slow.borrow().n;
    assert!(
        f >= 2 * s - 2 && f <= 2 * s + 2,
        "2 GHz component must tick ~2x as often: fast={f}, slow={s}"
    );
}

#[test]
fn topology_records_the_wiring() {
    let chain = build_chain(1, 4, 1);
    let topo = chain.sim.topology();
    // Producer.Out and Consumer.In both attach to "Conn".
    assert_eq!(topo.len(), 2);
    assert!(topo.iter().all(|e| e.connection == "Conn"));
    assert!(topo.iter().any(|e| e.component == "P" && e.port == "P.Out"));
    assert!(topo.iter().any(|e| e.component == "C" && e.port == "C.In"));
}

#[test]
fn topology_and_schedule_custom_are_queryable() {
    struct Alarm {
        base: CompBase,
        fired: Vec<u64>,
    }
    impl Component for Alarm {
        fn base(&self) -> &CompBase {
            &self.base
        }
        fn base_mut(&mut self) -> &mut CompBase {
            &mut self.base
        }
        fn tick(&mut self, _ctx: &mut Ctx) -> bool {
            false
        }
        fn handle_custom(&mut self, code: u64, _ctx: &mut Ctx) {
            self.fired.push(code);
        }
    }
    let mut sim = Simulation::new();
    let (_, alarm) = sim.register(Alarm {
        base: CompBase::new("Alarm", "A"),
        fired: Vec::new(),
    });
    let client = sim.client();
    let probe = thread::spawn(move || {
        thread::sleep(Duration::from_millis(5));
        let topo = client.topology().expect("topology");
        assert!(client.schedule_custom("A", 42).expect("schedule"));
        assert!(!client.schedule_custom("missing", 1).expect("schedule"));
        thread::sleep(Duration::from_millis(10));
        client.terminate().expect("terminate");
        topo
    });
    let summary = sim.run_interactive();
    let topo = probe.join().unwrap();
    assert!(topo.is_empty(), "no connections were wired");
    assert!(summary.events >= 1);
    assert_eq!(alarm.borrow().fired, vec![42]);
}

type EvLog = Vec<(u64, u64, usize, EventKind)>;

/// Records every dispatched event verbatim: `(time, seq, component, kind)`.
/// Two runs are behaviourally identical iff their logs are equal.
struct EvRecorder {
    log: Rc<RefCell<EvLog>>,
}

impl akita::Hook for EvRecorder {
    fn before_event(&mut self, ev: &akita::Ev, _c: &dyn Component) {
        self.log
            .borrow_mut()
            .push((ev.time.ps(), ev.seq, ev.component.index(), ev.kind));
    }
}

/// Runs `sim` to completion with an [`EvRecorder`] attached.
fn run_recorded(sim: &mut Simulation) -> (EvLog, RunSummary) {
    let log = Rc::new(RefCell::new(Vec::new()));
    sim.add_hook(EvRecorder {
        log: Rc::clone(&log),
    });
    let summary = sim.run();
    (log.take(), summary)
}

/// 64-bit FNV-1a over an event log, each event fed as the little-endian
/// bytes of `time`, `seq` and `component`, then a kind tag (`0` = tick,
/// `1` + code = custom).
fn fnv1a(log: &EvLog) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &(time, seq, component, kind) in log {
        feed(&time.to_le_bytes());
        feed(&seq.to_le_bytes());
        feed(&(component as u64).to_le_bytes());
        match kind {
            EventKind::Tick => feed(&[0]),
            EventKind::Custom(code) => {
                feed(&[1]);
                feed(&code.to_le_bytes());
            }
        }
    }
    h
}

/// The hot path (per-time bucket queue, slot dedup, demand polling, batched
/// publishes) dispatches exactly the event sequence of the original
/// single-heap, hashing-dedup engine on a backpressured chain. The digest,
/// summary and delivery order were recorded from that engine.
#[test]
fn backpressured_chain_dispatches_the_pinned_event_sequence() {
    let mut chain = build_chain(300, 2, 7);
    let (log, summary) = run_recorded(&mut chain.sim);
    assert_eq!(
        summary,
        RunSummary {
            events: 3298,
            end_time: VTime::from_ps(1_803_000),
            reason: StopReason::Completed,
        }
    );
    assert_eq!(
        chain.consumer.borrow().received,
        (0..300).collect::<Vec<u64>>()
    );
    assert_eq!(log.len(), 3298);
    assert_eq!(fnv1a(&log), 0x541a_262f_1208_f093, "event sequence changed");
}

/// A component that fans ticks out to several future times, with
/// duplicates, each time it runs — more than two concurrent pending ticks
/// per component, exercising the tick dedup's overflow path.
struct Burst {
    base: CompBase,
    remaining: u32,
    ticks: u64,
}

impl Component for Burst {
    fn base(&self) -> &CompBase {
        &self.base
    }
    fn base_mut(&mut self) -> &mut CompBase {
        &mut self.base
    }
    fn tick(&mut self, ctx: &mut Ctx) -> bool {
        self.ticks += 1;
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        let id = ctx.current();
        let now = ctx.now();
        for dt in [1u64, 2, 3, 1, 2] {
            // Includes duplicates: each (component, time) may enqueue once.
            ctx.schedule_tick(id, now + VTime::from_ns(dt));
        }
        false
    }
}

/// More than two pending ticks per component take the dedup's overflow
/// path; the dispatched sequence still equals the one recorded from the
/// original hashing dedup.
#[test]
fn tick_dedup_overflow_dispatches_the_pinned_event_sequence() {
    let mut sim = Simulation::new();
    let mut handles = Vec::new();
    for i in 0..3 {
        let (id, rc) = sim.register(Burst {
            base: CompBase::new("Burst", format!("B{i}")),
            remaining: 8,
            ticks: 0,
        });
        sim.wake_at(id, VTime::ZERO);
        handles.push(rc);
    }
    let (log, summary) = run_recorded(&mut sim);
    let ticks: Vec<u64> = handles.iter().map(|h| h.borrow().ticks).collect();
    assert_eq!(
        summary,
        RunSummary {
            events: 33,
            end_time: VTime::from_ps(10_000),
            reason: StopReason::Completed,
        }
    );
    assert_eq!(ticks, [11, 11, 11]);
    // Three distinct future times per burst: the overflow path really ran.
    assert!(ticks.iter().all(|&t| t > 8), "bursts must re-tick");
    assert_eq!(log.len(), 33);
    assert_eq!(fnv1a(&log), 0x7184_ed18_fc15_b1cc, "event sequence changed");
}

/// The amortized `now`/`events` publishes must flush exactly whenever the
/// monitor actually looks: a paused engine's lock-free counters agree with
/// the served status reply, and a finished run leaves them exact.
#[test]
fn amortized_publish_is_exact_when_paused_and_queried() {
    let mut chain = build_chain(500_000, 4, 1);
    let client = chain.sim.client();
    let probe = thread::spawn(move || {
        thread::sleep(Duration::from_millis(5));
        client.pause();
        for _ in 0..500 {
            if client.run_state() == RunState::Paused {
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        let status = client.status().expect("status while paused");
        let atomic_events = client.events_handled();
        let atomic_now = client.now();
        client.resume();
        (status, atomic_events, atomic_now)
    });
    let summary = chain.sim.run();
    let (status, atomic_events, atomic_now) = probe.join().unwrap();
    assert_eq!(status.state, RunState::Paused);
    assert!(status.events > 0);
    assert_eq!(
        status.events, atomic_events,
        "flush-on-query must make the lock-free count exact"
    );
    assert_eq!(status.now, atomic_now);
    // The run's final flush leaves the atomics exact too.
    assert_eq!(chain.sim.control().events_handled(), summary.events);
}

/// After a deadline the simulation is resumable — the engine must publish
/// `Idle`, not `Finished`, so RTM doesn't report a live sim as done.
#[test]
fn deadline_publishes_idle_not_finished() {
    let mut chain = build_chain(1000, 4, 1);
    let summary = chain.sim.run_until(VTime::from_ns(10));
    assert_eq!(summary.reason, StopReason::DeadlineReached);
    assert_eq!(chain.sim.control().state(), RunState::Idle);
    let summary = chain.sim.run();
    assert_eq!(summary.reason, StopReason::Completed);
    assert_eq!(chain.sim.control().state(), RunState::Finished);
}

#[test]
fn hooks_observe_every_dispatch_in_order() {
    use std::cell::RefCell as StdRefCell;
    use std::rc::Rc as StdRc;

    /// Records (phase, component kind) pairs to verify before/after pairing.
    struct Recorder {
        log: StdRc<StdRefCell<Vec<(bool, String)>>>,
    }
    impl akita::Hook for Recorder {
        fn before_event(&mut self, _ev: &akita::Ev, c: &dyn Component) {
            self.log.borrow_mut().push((true, c.kind().to_owned()));
        }
        fn after_event(&mut self, _ev: &akita::Ev, c: &dyn Component) {
            self.log.borrow_mut().push((false, c.kind().to_owned()));
        }
    }

    let mut chain = build_chain(5, 4, 1);
    let log = StdRc::new(StdRefCell::new(Vec::new()));
    chain.sim.add_hook(Recorder {
        log: StdRc::clone(&log),
    });
    let counts = chain.sim.add_hook(akita::EventCountHook::default());
    let summary = chain.sim.run();

    let log = log.borrow();
    assert_eq!(
        log.len() as u64,
        summary.events * 2,
        "one before+after per event"
    );
    // Strict pairing: entries alternate before/after with matching kinds.
    for pair in log.chunks(2) {
        assert!(pair[0].0 && !pair[1].0, "before must precede after");
        assert_eq!(pair[0].1, pair[1].1);
    }
    let counts = counts.borrow();
    assert!(counts.count("Producer") > 0);
    assert!(counts.count("Consumer") > 0);
    assert!(counts.count("DirectConnection") > 0);
    let total: u64 = counts.all().iter().map(|(_, n)| n).sum();
    assert_eq!(total, summary.events);
}
