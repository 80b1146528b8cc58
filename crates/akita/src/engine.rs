//! The simulation engine: event loop, scheduling context, and the shared
//! control block that the monitoring thread reads and writes.
//!
//! The engine loop embodies the paper's three low-overhead design choices
//! (§VII): monitoring work happens *on demand only* (a query channel drained
//! between events), serialization is *fine-grained* (one component or one
//! buffer snapshot per request), and the monitor itself runs on a
//! *dedicated thread* — the simulation thread pays only a couple of
//! predictable branches per event.
//!
//! # Hot path (see DESIGN.md, "Engine hot path")
//!
//! Per dispatched event the engine keeps four mechanisms always on:
//!
//! - the [`EventQueue`] keeps one FIFO bucket per pending time: a push
//!   searches an ordered map of the pending *times* (about 124 on the
//!   serial MCM matmul, where 71% of accepted tick schedules are for a
//!   later time) and a pop takes the current bucket's front, with no heap
//!   sift;
//! - tick dedup ([`TickDedup`]) checks two inline slots per component;
//!   only a component with three or more pending times consults the
//!   overflow set (143,072 of 568,089 slot misses on that run), and that
//!   set hashes with one multiply per word, not SipHash;
//! - the query channel is only drained when [`SimControl`]'s pending-query
//!   counter (bumped by [`QueryClient`]) is non-zero;
//! - the `now`/`events` atomics are published every [`PUBLISH_BATCH`]
//!   events, with an *exact* flush whenever a query is served, the engine
//!   pauses/idles, or a run returns — so the monitor never observes a stale
//!   count when it actually looks.
//!
//! None of them changes the dispatched event sequence; the integration
//! tests pin that sequence by digest.
//!
//! The windowed engine ([`crate::par`]) shares this module's event path
//! ([`execute`]), commit ([`Simulation::commit`]) and run loop
//! ([`Simulation::run_loop`]); it supplies only windows, barriers and
//! relays.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use serde::{Deserialize, Serialize};
use std::sync::mpsc::{channel, Receiver, Sender};

use crate::buffer::BufferRegistry;
use crate::component::Component;
use crate::conn::Connection;
use crate::faults::{CompFaultSpec, FaultHub, FaultInstallSummary, FaultPlan, FaultReport};
use crate::hook::Hook;
use crate::ids::ComponentId;
use crate::port::Port;
use crate::profile;
use crate::query::{
    ActivityStamp, ComponentInfo, ComponentStateDto, EngineStatus, QueryClient, SimQuery,
    TopologyEdge, TraceRecord,
};
use crate::queue::{Ev, EventKind, EventQueue};
use crate::time::VTime;

/// Events dispatched between publishes of the `now`/`events` atomics.
/// Exact flushes still happen on every query, pause, idle, and run return.
const PUBLISH_BATCH: u64 = 1024;

/// Sentinel for an empty tick-dedup slot ([`VTime::MAX`] is reserved as an
/// "infinitely far" marker and never a real tick time).
const NO_TICK: u64 = u64::MAX;

/// One component's pending tick times: two inline slots, plus how many
/// more sit in [`TickDedup`]'s overflow set.
#[derive(Debug, Clone, Copy)]
struct TickSlots {
    times: [u64; 2],
    spilled: u32,
}

impl TickSlots {
    const EMPTY: TickSlots = TickSlots {
        times: [NO_TICK; 2],
        spilled: 0,
    };
}

/// Bookkeeping that guarantees at most one queued `Tick` per
/// `(component, time)` pair.
///
/// Each component's first two pending tick times live in inline slots —
/// the stamp *is* the scheduled time, so nothing needs clearing as the
/// clock advances. Further pending times spill into an overflow set, and
/// the component counts its spilled entries, so only a component that
/// really holds three or more pending times ever consults the set. On the
/// serial MCM matmul the set is almost never empty (connections schedule a
/// tick per in-flight arrival; it held up to 236 entries), so it is keyed
/// by a multiplicative hash rather than SipHash.
#[derive(Debug, Default)]
pub(crate) struct TickDedup {
    slots: Vec<TickSlots>,
    overflow: HashSet<(u32, u64), BuildHasherDefault<MulHasher>>,
}

impl TickDedup {
    /// Records a pending tick; returns `false` when one is already queued
    /// for this exact `(component, time)`.
    #[inline]
    pub(crate) fn insert(&mut self, component: ComponentId, t: VTime) -> bool {
        let i = component.index();
        let t = t.ps();
        debug_assert_ne!(t, NO_TICK, "VTime::MAX is not a schedulable tick time");
        if i >= self.slots.len() {
            self.slots.resize(i + 1, TickSlots::EMPTY);
        }
        let s = &mut self.slots[i];
        if s.times[0] == t || s.times[1] == t {
            return false;
        }
        let key = (component.as_u32(), t);
        if s.spilled != 0 && self.overflow.contains(&key) {
            return false;
        }
        if s.times[0] == NO_TICK {
            s.times[0] = t;
        } else if s.times[1] == NO_TICK {
            s.times[1] = t;
        } else {
            self.overflow.insert(key);
            s.spilled += 1;
        }
        true
    }

    /// Clears the pending record after the tick is dispatched.
    #[inline]
    pub(crate) fn remove(&mut self, component: ComponentId, t: VTime) {
        let t = t.ps();
        let Some(s) = self.slots.get_mut(component.index()) else {
            return;
        };
        if s.times[0] == t {
            s.times[0] = NO_TICK;
        } else if s.times[1] == t {
            s.times[1] = NO_TICK;
        } else if s.spilled != 0 && self.overflow.remove(&(component.as_u32(), t)) {
            s.spilled -= 1;
        }
    }
}

/// FxHash-style hasher for the tick-dedup overflow's `(u32, u64)` keys:
/// one rotate, xor and multiply per word, and a final rotate that brings
/// the product's well-mixed upper bits down to the bucket index (tick
/// times are multiples of a clock period, so their low bits are mostly
/// zero). The keys come from the engine itself, so there is nothing to
/// defend against hash flooding.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MulHasher(u64);

impl MulHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for MulHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
}

/// What the engine loop is currently doing, as published to the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
pub enum RunState {
    /// Processing events.
    Running = 0,
    /// Paused by the user; serving monitor queries only.
    Paused = 1,
    /// Event queue empty in interactive mode: the simulation has either
    /// finished or deadlocked; still serving monitor queries.
    Idle = 2,
    /// The run loop returned.
    Finished = 3,
    /// A component handler panicked under [`Simulation::run_caught`]; the
    /// engine may keep serving post-mortem queries
    /// ([`Simulation::serve_post_mortem`]).
    Crashed = 4,
}

impl RunState {
    fn from_u8(v: u8) -> RunState {
        match v {
            0 => RunState::Running,
            1 => RunState::Paused,
            2 => RunState::Idle,
            4 => RunState::Crashed,
            _ => RunState::Finished,
        }
    }
}

/// What went wrong when a handler panicked, preserved for post-mortem
/// monitoring (`GET /api/status` keeps answering after a crash).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashInfo {
    /// The panic payload, when it was a string.
    pub message: String,
    /// Name of the component whose handler panicked.
    pub component: String,
    /// Virtual time of the fatal event.
    pub now: VTime,
    /// Events dispatched before the crash.
    pub events: u64,
}

/// Lock-free state shared between the simulation thread and monitor thread.
///
/// The simulation publishes virtual time and run state; the monitor flips
/// pause/stop flags (the Simulation Controls view, paper Fig 2 C).
#[derive(Debug, Default)]
pub struct SimControl {
    pause: AtomicBool,
    stop: AtomicBool,
    state: AtomicU8,
    now_ps: AtomicU64,
    events: AtomicU64,
    /// Queries sent by [`QueryClient`]s but not yet served. The run loop
    /// skips the channel `try_recv` entirely while this is zero — the
    /// "no monitor attached" fast path.
    pending_queries: AtomicU64,
    /// Details of a handler panic caught by [`Simulation::run_caught`].
    /// Readable without the engine thread's cooperation, so a monitor can
    /// report the crash even if post-mortem serving is unavailable.
    crash: Mutex<Option<CrashInfo>>,
}

impl SimControl {
    /// Requests the engine pause at the next event boundary.
    pub fn pause(&self) {
        self.pause.store(true, Ordering::Release);
    }

    /// Lets a paused engine continue.
    pub fn resume(&self) {
        self.pause.store(false, Ordering::Release);
    }

    /// Whether a pause is requested.
    pub fn is_paused(&self) -> bool {
        self.pause.load(Ordering::Acquire)
    }

    /// Asks the run loop to return as soon as possible.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Whether a stop is requested.
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Current virtual time (updated once per event).
    pub fn now(&self) -> VTime {
        VTime::from_ps(self.now_ps.load(Ordering::Relaxed))
    }

    /// Current run state.
    pub fn state(&self) -> RunState {
        RunState::from_u8(self.state.load(Ordering::Relaxed))
    }

    /// Total events dispatched so far.
    pub fn events_handled(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    fn publish(&self, now: VTime) {
        self.now_ps.store(now.ps(), Ordering::Relaxed);
    }

    pub(crate) fn set_state(&self, s: RunState) {
        self.state.store(s as u8, Ordering::Relaxed);
    }

    /// A [`QueryClient`] is about to put a query on the channel.
    pub(crate) fn note_query_sent(&self) {
        self.pending_queries.fetch_add(1, Ordering::Release);
    }

    /// A query was served (or its send failed after being counted).
    pub(crate) fn note_query_done(&self) {
        self.pending_queries.fetch_sub(1, Ordering::Release);
    }

    pub(crate) fn has_pending_queries(&self) -> bool {
        self.pending_queries.load(Ordering::Acquire) != 0
    }

    /// Details of a caught handler panic, if one occurred. Lock-free for
    /// the engine; the monitor takes a short poison-tolerant lock.
    pub fn crash_info(&self) -> Option<CrashInfo> {
        self.crash
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn set_crashed(&self, info: CrashInfo) {
        *self.crash.lock().unwrap_or_else(PoisonError::into_inner) = Some(info);
    }
}

/// Scheduling context handed to components during [`Component::tick`].
#[derive(Debug)]
pub struct Ctx<'a> {
    pub(crate) sched: &'a mut Scheduler,
}

impl Ctx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> VTime {
        self.sched.now
    }

    /// The component currently being dispatched.
    pub fn current(&self) -> ComponentId {
        self.sched.current
    }

    /// Schedules a tick for `component` at the current time, waking it if
    /// asleep.
    pub fn wake(&mut self, component: ComponentId) {
        let t = self.sched.now;
        self.sched.schedule_tick(component, t);
    }

    /// Schedules a tick for `component` at time `t` (clamped to now).
    pub fn schedule_tick(&mut self, component: ComponentId, t: VTime) {
        self.sched.schedule_tick(component, t);
    }

    /// Schedules a custom event for `component` at time `t`.
    pub fn schedule_custom(&mut self, component: ComponentId, code: u64, t: VTime) {
        let t = t.max(self.sched.now);
        self.sched.queue.push(t, component, EventKind::Custom(code));
    }
}

/// The event queue plus tick bookkeeping.
#[derive(Debug)]
pub(crate) struct Scheduler {
    pub(crate) queue: EventQueue,
    pub(crate) now: VTime,
    pub(crate) current: ComponentId,
    pub(crate) pending_ticks: TickDedup,
}

impl Scheduler {
    pub(crate) fn new() -> Self {
        Scheduler {
            queue: EventQueue::new(),
            now: VTime::ZERO,
            current: ComponentId::from_index(0),
            pending_ticks: TickDedup::default(),
        }
    }

    pub(crate) fn schedule_tick(&mut self, component: ComponentId, t: VTime) {
        let t = t.max(self.now);
        if self.pending_ticks.insert(component, t) {
            self.queue.push(t, component, EventKind::Tick);
        }
    }
}

/// Why [`Simulation::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// The event queue drained: the simulation completed (or deadlocked —
    /// the engine cannot tell the two apart; see paper task T3).
    Completed,
    /// [`SimControl::request_stop`] or [`SimQuery::Terminate`] ended the run.
    Stopped,
    /// A `run_until` deadline was reached with events still pending.
    DeadlineReached,
    /// A component handler panicked and [`Simulation::run_caught`] caught
    /// the unwind.
    Crashed,
}

/// Statistics from one run of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Events dispatched during this call.
    pub events: u64,
    /// Virtual time when the run ended.
    pub end_time: VTime,
    /// Why the run ended.
    pub reason: StopReason,
}

/// A complete simulation: engine, component registry, and monitoring hooks.
///
/// See [`Component`] for a complete usage example.
pub struct Simulation {
    pub(crate) sched: Scheduler,
    pub(crate) components: Vec<Rc<RefCell<dyn Component>>>,
    by_name: HashMap<String, ComponentId>,
    buffers: BufferRegistry,
    pub(crate) ctrl: Arc<SimControl>,
    query_tx: Sender<SimQuery>,
    query_rx: Receiver<SimQuery>,
    /// Exact events dispatched (engine-thread view; the atomic in `ctrl`
    /// lags by at most [`PUBLISH_BATCH`] between exact flushes).
    events_total: u64,
    /// `events_total` at the last atomic flush.
    events_published: u64,
    terminate_requested: bool,
    topology: Vec<TopologyEdge>,
    /// Registered connections by component id, for topology analysis.
    connections: std::collections::BTreeMap<ComponentId, Rc<RefCell<dyn Connection>>>,
    /// Recent-event ring buffer (the trace view); empty when disabled.
    trace: std::collections::VecDeque<(VTime, ComponentId, EventKind)>,
    trace_enabled: bool,
    trace_cap: usize,
    pub(crate) hooks: Vec<Rc<RefCell<dyn Hook>>>,
    /// Handle to the fault hub carried by `buffers`; the engine publishes
    /// virtual time into it and resolves component-level rules.
    pub(crate) fhub: FaultHub,
    /// Freeze/slow rules resolved to component ids, rebuilt on every
    /// [`Simulation::install_faults`].
    comp_faults: Vec<Option<CompFaultEntry>>,
    /// True when any fault rule (site or component) is armed — the single
    /// per-event branch fault-free runs pay.
    pub(crate) faults_on: bool,
    /// Per-component last-dispatch virtual time (ps), `u64::MAX` = never;
    /// empty while stamps are off. Feeds the stall watchdog.
    activity: Vec<u64>,
    activity_on: bool,
    /// Conservative-window parallel configuration; `Some` routes every run
    /// through [`crate::par::run_windowed`].
    pub(crate) par: Option<std::rc::Rc<crate::par::ParRuntime>>,
}

#[derive(Clone)]
pub(crate) struct CompFaultEntry {
    pub(crate) name: String,
    pub(crate) spec: CompFaultSpec,
}

impl Default for Simulation {
    fn default() -> Self {
        Simulation::new()
    }
}

impl Simulation {
    /// Creates an empty simulation.
    pub fn new() -> Self {
        let (query_tx, query_rx) = channel();
        let buffers = BufferRegistry::new();
        let fhub = buffers.faults().clone();
        Simulation {
            sched: Scheduler::new(),
            components: Vec::new(),
            by_name: HashMap::new(),
            buffers,
            ctrl: Arc::new(SimControl::default()),
            query_tx,
            query_rx,
            events_total: 0,
            events_published: 0,
            terminate_requested: false,
            topology: Vec::new(),
            connections: std::collections::BTreeMap::new(),
            trace: std::collections::VecDeque::new(),
            trace_enabled: false,
            trace_cap: 1024,
            hooks: Vec::new(),
            fhub,
            comp_faults: Vec::new(),
            faults_on: false,
            activity: Vec::new(),
            activity_on: false,
            par: None,
        }
    }

    /// Registers a component, assigning its [`ComponentId`].
    ///
    /// Returns the id and a shared handle to the concrete component so
    /// builders can keep wiring it up.
    ///
    /// # Panics
    ///
    /// Panics if another component already uses the same name.
    pub fn register<C: Component + 'static>(
        &mut self,
        component: C,
    ) -> (ComponentId, Rc<RefCell<C>>) {
        let id = ComponentId::from_index(self.components.len());
        let rc = Rc::new(RefCell::new(component));
        rc.borrow_mut().base_mut().id = id;
        let name = rc.borrow().name().to_owned();
        let prev = self.by_name.insert(name.clone(), id);
        assert!(prev.is_none(), "duplicate component name: {name}");
        self.components
            .push(Rc::clone(&rc) as Rc<RefCell<dyn Component>>);
        (id, rc)
    }

    /// Attaches `port` to `conn` in both directions and records the port's
    /// owner for wake-ups.
    ///
    /// # Panics
    ///
    /// Panics if the port is already attached to a connection.
    pub fn connect<C: Connection + 'static>(
        &mut self,
        conn: &Rc<RefCell<C>>,
        port: &Port,
        owner: ComponentId,
    ) {
        port.set_owner(owner);
        let conn_id = conn.borrow().id();
        conn.borrow_mut().attach(port);
        port.attach_conn(Rc::clone(conn) as Rc<RefCell<dyn Connection>>, conn_id);
        self.connections
            .entry(conn_id)
            .or_insert_with(|| Rc::clone(conn) as Rc<RefCell<dyn Connection>>);
        self.topology.push(TopologyEdge {
            connection: conn.borrow().name().to_owned(),
            component: self.components[owner.index()].borrow().name().to_owned(),
            port: port.name(),
        });
    }

    /// The wiring recorded by [`Simulation::connect`].
    pub fn topology(&self) -> &[TopologyEdge] {
        &self.topology
    }

    /// The registry new [`crate::Buffer`]s should join to be monitorable.
    pub fn buffer_registry(&self) -> BufferRegistry {
        self.buffers.clone()
    }

    /// The shared control block (pause/stop/time/state).
    pub fn control(&self) -> Arc<SimControl> {
        Arc::clone(&self.ctrl)
    }

    /// A thread-safe client for monitor queries against this simulation.
    pub fn client(&self) -> QueryClient {
        QueryClient::new(self.query_tx.clone(), Arc::clone(&self.ctrl))
    }

    /// Current virtual time.
    pub fn now(&self) -> VTime {
        self.sched.now
    }

    /// Number of registered components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Looks up a component by hierarchical name.
    pub fn component_id(&self, name: &str) -> Option<ComponentId> {
        self.by_name.get(name).copied()
    }

    /// Shared handle to a registered component.
    pub fn component(&self, id: ComponentId) -> Rc<RefCell<dyn Component>> {
        Rc::clone(&self.components[id.index()])
    }

    /// Schedules a tick for `component` at `t` — used to kick off the
    /// initial activity after building a simulation.
    pub fn wake_at(&mut self, component: ComponentId, t: VTime) {
        self.sched.schedule_tick(component, t);
    }

    /// Installs a dispatch [`Hook`], returning a shared handle so its
    /// state stays readable after runs.
    pub fn add_hook<H: Hook + 'static>(&mut self, hook: H) -> Rc<RefCell<H>> {
        let rc = Rc::new(RefCell::new(hook));
        self.hooks.push(Rc::clone(&rc) as Rc<RefCell<dyn Hook>>);
        rc
    }

    /// A scheduling context outside event dispatch (for driver-style code
    /// that injects work between runs).
    pub fn ctx(&mut self) -> Ctx<'_> {
        Ctx {
            sched: &mut self.sched,
        }
    }

    // --- Fault injection ----------------------------------------------

    /// Installs a fault plan, arming its rules. Rules append to any plan
    /// already installed; component-level rules (freeze/slow) bind to the
    /// components registered at call time.
    pub fn install_faults(&mut self, plan: &FaultPlan) -> FaultInstallSummary {
        let known: Vec<&str> = self.by_name.keys().map(String::as_str).collect();
        let summary = self.fhub.install(plan, &known);
        self.rebind_comp_faults();
        summary
    }

    /// Disarms and removes every installed fault rule.
    pub fn clear_faults(&mut self) {
        self.fhub.clear();
        self.rebind_comp_faults();
    }

    /// Live status of the fault subsystem.
    pub fn fault_report(&self) -> FaultReport {
        self.fhub.set_now_ps(self.sched.now.ps());
        self.fhub.report()
    }

    /// The simulation's fault hub (shared with its [`BufferRegistry`]).
    pub fn fault_hub(&self) -> &FaultHub {
        &self.fhub
    }

    fn rebind_comp_faults(&mut self) {
        self.comp_faults = (0..self.components.len()).map(|_| None).collect();
        for (name, spec) in self.fhub.component_specs() {
            if !spec.is_some() {
                continue;
            }
            if let Some(id) = self.by_name.get(&name) {
                self.comp_faults[id.index()] = Some(CompFaultEntry { name, spec });
            }
        }
        self.faults_on = self.fhub.is_enabled() || self.comp_faults.iter().any(Option::is_some);
        // Keep the parallel workers' view current: a plan installed at a
        // window barrier must be visible in the very next window.
        if let Some(par) = &self.par {
            par.set_comp_faults(self.comp_faults.clone());
        }
    }

    // --- Parallel execution -------------------------------------------

    /// Switches the simulation to conservative-window parallel execution.
    ///
    /// Call after the *entire* topology is built (components registered,
    /// ports connected, initial wakes scheduled are fine before or after).
    /// Every subsequent [`Simulation::run`]-family call executes partitions
    /// on `threads` worker threads in lock-step windows; committed events
    /// are merged and hook-dispatched in global `(time, seq)` order, so the
    /// observable event log is bit-identical for every `threads` value
    /// (including 1).
    ///
    /// # Errors
    ///
    /// Returns an error when parallel mode is already configured, when the
    /// plan does not cover every component, or when a partition-spanning
    /// connection is not relayable (no
    /// [`Connection::relay_latency`](crate::Connection::relay_latency)).
    pub fn set_parallel(
        &mut self,
        plan: crate::par::PartitionPlan,
        threads: usize,
    ) -> Result<(), String> {
        if self.par.is_some() {
            return Err("parallel mode is already configured".into());
        }
        let rt = crate::par::configure(self, plan, threads)?;
        rt.set_comp_faults(self.comp_faults.clone());
        self.par = Some(std::rc::Rc::new(rt));
        Ok(())
    }

    /// Whether conservative-window parallel execution is configured.
    pub fn is_parallel(&self) -> bool {
        self.par.is_some()
    }

    /// The parallel engine's lock-free stats block, for monitors. `None`
    /// until [`Simulation::set_parallel`] succeeds.
    pub fn parallel_shared(&self) -> Option<std::sync::Arc<crate::par::ParShared>> {
        self.par.as_ref().map(|p| p.shared())
    }

    /// A detailed parallel status report (partitions, stall evidence).
    /// `None` when parallel mode is not configured.
    pub fn parallel_report(&self) -> Option<crate::par::ParReport> {
        self.par.as_ref().map(|p| crate::par::report(self, p))
    }

    // --- Activity stamps (stall-watchdog support) ---------------------

    /// Enables or disables per-component last-dispatch stamps. Costs one
    /// vector store per event while on; the watchdog turns it on to name
    /// the components that went quiet before a stall.
    pub fn set_activity_stamps(&mut self, on: bool) {
        self.activity_on = on;
        self.activity = if on {
            vec![u64::MAX; self.components.len()]
        } else {
            Vec::new()
        };
    }

    /// Per-component last-dispatch stamps (`None` = no event since stamps
    /// were enabled). Empty while stamps are off.
    pub fn activity_stamps(&self) -> Vec<ActivityStamp> {
        if !self.activity_on {
            return Vec::new();
        }
        self.components
            .iter()
            .enumerate()
            .map(|(i, c)| ActivityStamp {
                component: c.borrow().name().to_owned(),
                last_event_ps: match self.activity.get(i) {
                    Some(&ps) if ps != u64::MAX => Some(ps),
                    _ => None,
                },
            })
            .collect()
    }

    // --- Accessors for the topology/deadlock analyzer -----------------

    pub(crate) fn components_slice(&self) -> &[Rc<RefCell<dyn Component>>] {
        &self.components
    }

    pub(crate) fn connections_map(
        &self,
    ) -> &std::collections::BTreeMap<ComponentId, Rc<RefCell<dyn Connection>>> {
        &self.connections
    }

    pub(crate) fn scheduled_set(&self) -> HashSet<ComponentId> {
        let mut set: HashSet<ComponentId> = self.sched.queue.scheduled_components().collect();
        if let Some(par) = &self.par {
            set.extend(par.scheduled_components());
        }
        set
    }

    pub(crate) fn queue_is_empty(&self) -> bool {
        self.sched.queue.is_empty() && self.par.as_ref().is_none_or(|p| p.all_queues_empty())
    }

    /// Makes the lock-free monitor view (`now`, `events`) exact.
    ///
    /// Called every [`PUBLISH_BATCH`] events, and — so the monitor never
    /// observes staleness when it actually looks — before every served
    /// query, on pause/idle entry, and when a run returns.
    pub(crate) fn flush_publish(&mut self) {
        self.events_published = self.events_total;
        self.ctrl.publish(self.sched.now);
        self.ctrl.events.store(self.events_total, Ordering::Relaxed);
    }

    /// Counts an event as committed: the event counter (with its batched
    /// publish), the trace ring and the activity stamp. Both engines commit
    /// every dispatched event, frozen ones included, in global order.
    #[inline(always)]
    pub(crate) fn commit(&mut self, time: VTime, component: ComponentId, kind: EventKind) {
        self.sched.now = time;
        self.events_total += 1;
        if self.events_total - self.events_published >= PUBLISH_BATCH {
            self.flush_publish();
        }
        if self.trace_enabled {
            if self.trace.len() >= self.trace_cap {
                self.trace.pop_front();
            }
            self.trace.push_back((time, component, kind));
        }
        if self.activity_on {
            let i = component.index();
            if i >= self.activity.len() {
                self.activity.resize(i + 1, u64::MAX);
            }
            self.activity[i] = time.ps();
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        self.commit(ev.time, ev.component, ev.kind);
        let fault = if self.faults_on {
            // Publish virtual time so buffer-level stuck-full windows can
            // be evaluated without a Ctx in hand.
            self.fhub.set_now_ps(ev.time.ps());
            self.comp_faults
                .get(ev.component.index())
                .and_then(Option::as_ref)
        } else {
            None
        };
        execute(
            &mut self.sched,
            &self.components[ev.component.index()],
            &ev,
            fault,
            &self.fhub,
            &self.hooks,
        );
    }

    /// Runs until the event queue drains or a stop is requested.
    ///
    /// Monitor queries are served between events and while paused. The
    /// queue draining means the simulation completed *or* deadlocked; use
    /// [`Simulation::run_interactive`] to stay alive for post-mortem
    /// inspection instead.
    pub fn run(&mut self) -> RunSummary {
        self.run_inner(None, false)
    }

    /// Runs until virtual time `deadline`; events after the deadline stay
    /// queued.
    pub fn run_until(&mut self, deadline: VTime) -> RunSummary {
        self.run_inner(Some(deadline), false)
    }

    /// Runs like [`Simulation::run`], but when the event queue drains the
    /// engine enters the [`RunState::Idle`] state and keeps serving monitor
    /// queries (so a hang can be inspected, ticked, and kick-started —
    /// Case Study 2). Returns only on [`SimQuery::Terminate`] or
    /// [`SimControl::request_stop`].
    pub fn run_interactive(&mut self) -> RunSummary {
        self.run_inner(None, true)
    }

    /// Runs under `catch_unwind`: a panicking component handler ends the
    /// run with [`StopReason::Crashed`] instead of tearing down the thread
    /// (and with it, any attached monitor's engine access). The crash
    /// details land in [`SimControl::crash_info`] and the state becomes
    /// [`RunState::Crashed`]. Pass `interactive = true` for
    /// [`Simulation::run_interactive`] semantics on the non-crash path.
    ///
    /// Component state after a caught panic may be mid-mutation;
    /// post-mortem inspection via [`Simulation::serve_post_mortem`] is
    /// best-effort by design.
    pub fn run_caught(&mut self, interactive: bool) -> RunSummary {
        let start_events = self.events_total;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_inner(None, interactive)
        }));
        match result {
            Ok(summary) => summary,
            Err(payload) => {
                // RefCell borrow flags were reset as the unwind dropped
                // their guards, so post-mortem queries can still borrow.
                self.flush_publish();
                let component = self
                    .components
                    .get(self.sched.current.index())
                    .map(|c| c.borrow().name().to_owned())
                    .unwrap_or_default();
                self.ctrl.set_crashed(CrashInfo {
                    message: panic_message(payload.as_ref()),
                    component,
                    now: self.sched.now,
                    events: self.events_total,
                });
                self.ctrl.set_state(RunState::Crashed);
                RunSummary {
                    events: self.events_total - start_events,
                    end_time: self.sched.now,
                    reason: StopReason::Crashed,
                }
            }
        }
    }

    /// Serves monitor queries after a crash (state pinned to
    /// [`RunState::Crashed`]) until [`SimQuery::Terminate`] or
    /// [`SimControl::request_stop`]. Each query is individually caught:
    /// one query tripping over inconsistent post-crash state doesn't end
    /// post-mortem serving for the rest.
    pub fn serve_post_mortem(&mut self) {
        self.flush_publish();
        self.ctrl.set_state(RunState::Crashed);
        loop {
            if self.ctrl.stop_requested() || self.terminate_requested {
                return;
            }
            if let Ok(q) = self.query_rx.recv_timeout(Duration::from_millis(20)) {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.serve_query(q);
                }));
                self.ctrl.set_state(RunState::Crashed);
            }
        }
    }

    fn run_inner(&mut self, deadline: Option<VTime>, interactive: bool) -> RunSummary {
        // Clone the parallel runtime handle rather than take it: queries
        // served mid-run must still see `self.par`, or `/api/parallel`
        // would answer "serial" and blind the watchdog's stall classifier.
        match self.par.clone() {
            Some(par) => crate::par::run_windowed(self, &par, deadline, interactive),
            None => self.run_loop(deadline, interactive, |sim, deadline| {
                if let Some(d) = deadline {
                    if sim.sched.queue.peek_time().is_some_and(|t| t > d) {
                        return Advance::Deadline;
                    }
                }
                match sim.sched.queue.pop() {
                    Some(ev) => {
                        sim.dispatch(ev);
                        Advance::Ran
                    }
                    None => Advance::Drained,
                }
            }),
        }
    }

    /// The run loop both engines share: stop and terminate requests, pause,
    /// monitor queries, the deadline and interactive idling are handled
    /// here, between `advance` steps. The serial engine advances by one
    /// event, the windowed engine by one window.
    pub(crate) fn run_loop(
        &mut self,
        deadline: Option<VTime>,
        interactive: bool,
        mut advance: impl FnMut(&mut Simulation, Option<VTime>) -> Advance,
    ) -> RunSummary {
        let start_events = self.events_total;
        self.ctrl.set_state(RunState::Running);
        self.flush_publish();
        self.terminate_requested = false;
        let reason = loop {
            if self.ctrl.stop_requested() || self.terminate_requested {
                break StopReason::Stopped;
            }
            if self.ctrl.is_paused() {
                self.paused_loop();
                continue;
            }
            if self.ctrl.has_pending_queries() {
                self.drain_queries();
            }
            match advance(self, deadline) {
                Advance::Ran => {}
                Advance::Deadline => {
                    self.sched.now = deadline.expect("deadline set");
                    break StopReason::DeadlineReached;
                }
                Advance::Drained => {
                    if interactive {
                        if self.idle_loop() {
                            continue;
                        }
                        break StopReason::Stopped;
                    }
                    break StopReason::Completed;
                }
            }
        };
        self.flush_publish();
        // A deadline leaves the simulation resumable — report Idle, not
        // Finished, so a monitor doesn't declare a live sim done.
        self.ctrl.set_state(match reason {
            StopReason::DeadlineReached => RunState::Idle,
            StopReason::Completed | StopReason::Stopped | StopReason::Crashed => RunState::Finished,
        });
        RunSummary {
            events: self.events_total - start_events,
            end_time: self.sched.now,
            reason,
        }
    }

    /// Serves queries while paused; returns when unpaused or stopping.
    fn paused_loop(&mut self) {
        self.flush_publish();
        self.ctrl.set_state(RunState::Paused);
        while self.ctrl.is_paused() && !self.ctrl.stop_requested() && !self.terminate_requested {
            if let Ok(q) = self.query_rx.recv_timeout(Duration::from_millis(20)) {
                self.serve_query(q);
            }
        }
        self.ctrl.set_state(RunState::Running);
    }

    /// Serves queries while the queue is empty. Returns `true` when new
    /// events appeared (e.g. an injected tick) and the run should continue.
    fn idle_loop(&mut self) -> bool {
        self.flush_publish();
        self.ctrl.set_state(RunState::Idle);
        loop {
            if self.ctrl.stop_requested() || self.terminate_requested {
                return false;
            }
            if !self.sched.queue.is_empty() {
                self.ctrl.set_state(RunState::Running);
                return true;
            }
            if let Ok(q) = self.query_rx.recv_timeout(Duration::from_millis(20)) {
                self.serve_query(q);
            }
        }
    }

    /// Drains all pending monitor queries without blocking.
    pub fn drain_queries(&mut self) {
        while let Ok(q) = self.query_rx.try_recv() {
            self.serve_query(q);
        }
    }

    fn serve_query(&mut self, q: SimQuery) {
        // Exact view before any answer: flush the amortized publishes so
        // the monitor's lock-free reads agree with the reply it receives,
        // and retire the pending-query count this request contributed.
        self.flush_publish();
        self.ctrl.note_query_done();
        match q {
            SimQuery::Status(reply) => {
                let _ = reply.send(EngineStatus {
                    now: self.sched.now,
                    state: self.ctrl.state(),
                    events: self.events_total,
                    queue_len: self.sched.queue.len()
                        + self.par.as_ref().map_or(0, |p| p.queued_events() as usize),
                    components: self.components.len(),
                    live_buffers: self.buffers.len(),
                });
            }
            SimQuery::ListComponents(reply) => {
                let list = self
                    .components
                    .iter()
                    .map(|c| {
                        let c = c.borrow();
                        ComponentInfo {
                            name: c.name().to_owned(),
                            kind: c.kind().to_owned(),
                        }
                    })
                    .collect();
                let _ = reply.send(list);
            }
            SimQuery::ComponentState(name, reply) => {
                let dto = self.by_name.get(&name).map(|id| {
                    let c = self.components[id.index()].borrow();
                    ComponentStateDto {
                        name: c.name().to_owned(),
                        kind: c.kind().to_owned(),
                        state: c.state(),
                    }
                });
                let _ = reply.send(dto);
            }
            SimQuery::Buffers(reply) => {
                let _ = reply.send(self.buffers.snapshot());
            }
            SimQuery::TickComponent(name, reply) => {
                let found = self.by_name.get(&name).copied();
                if let Some(id) = found {
                    // Schedule a tick event in the next cycle, like the
                    // paper's Tick button (§V-B).
                    let next = {
                        let freq = self.components[id.index()].borrow().freq();
                        freq.cycle_after(self.sched.now)
                    };
                    self.sched.schedule_tick(id, next);
                }
                let _ = reply.send(found.is_some());
            }
            SimQuery::KickStart(reply) => {
                let n = self.components.len();
                for i in 0..n {
                    let id = ComponentId::from_index(i);
                    let next = self.components[i]
                        .borrow()
                        .freq()
                        .cycle_after(self.sched.now);
                    self.sched.schedule_tick(id, next);
                }
                let _ = reply.send(n);
            }
            SimQuery::SetProfiling(on) => {
                if on && !profile::is_enabled() {
                    profile::reset();
                }
                profile::set_enabled(on);
            }
            SimQuery::Profile(reply) => {
                let _ = reply.send(profile::snapshot());
            }
            SimQuery::Topology(reply) => {
                let _ = reply.send(self.topology.clone());
            }
            SimQuery::ScheduleCustom(name, code, reply) => {
                let found = self.by_name.get(&name).copied();
                if let Some(id) = found {
                    let next = {
                        let freq = self.components[id.index()].borrow().freq();
                        freq.cycle_after(self.sched.now)
                    };
                    self.sched.queue.push(next, id, EventKind::Custom(code));
                }
                let _ = reply.send(found.is_some());
            }
            SimQuery::SetTracing(on) => {
                self.trace_enabled = on;
                if !on {
                    self.trace.clear();
                }
            }
            SimQuery::Trace(n, reply) => {
                // Iterate the tail directly (no double reverse) and borrow
                // each component's name once via a lookup table instead of
                // once per record.
                let start = self.trace.len().saturating_sub(n);
                let mut names: Vec<Option<String>> = vec![None; self.components.len()];
                let records: Vec<TraceRecord> = self
                    .trace
                    .iter()
                    .skip(start)
                    .map(|&(time, comp, kind)| {
                        let name = names[comp.index()].get_or_insert_with(|| {
                            self.components[comp.index()].borrow().name().to_owned()
                        });
                        TraceRecord {
                            time,
                            component: name.clone(),
                            kind,
                        }
                    })
                    .collect();
                let _ = reply.send(records);
            }
            SimQuery::Analysis(reply) => {
                let _ = reply.send(self.analyze());
            }
            SimQuery::InstallFaults(plan, reply) => {
                let _ = reply.send(self.install_faults(&plan));
            }
            SimQuery::Faults(reply) => {
                let _ = reply.send(self.fault_report());
            }
            SimQuery::SetActivityStamps(on) => {
                self.set_activity_stamps(on);
            }
            SimQuery::Activity(reply) => {
                let _ = reply.send(self.activity_stamps());
            }
            SimQuery::Parallel(reply) => {
                let report = self.par.as_ref().map(|p| crate::par::report(self, p));
                let _ = reply.send(report);
            }
            SimQuery::Terminate => {
                self.terminate_requested = true;
            }
        }
    }
}

/// What one step of an engine's run loop did.
pub(crate) enum Advance {
    /// Dispatched work; the loop continues.
    Ran,
    /// The next pending event lies past the deadline.
    Deadline,
    /// No event is pending.
    Drained,
}

/// Runs one event on `comp`, the event path both engines share: clears the
/// tick-dedup slot, applies the component's freeze/slow `fault` rules,
/// calls the handler (profiled, between the `hooks`), and re-ticks the
/// component when it made progress. Returns `false` when a freeze window
/// swallowed the event; hooks never see a swallowed event.
///
/// Always inlined: it is each engine's per-event hot path.
#[inline(always)]
pub(crate) fn execute(
    sched: &mut Scheduler,
    comp: &RefCell<dyn Component>,
    ev: &Ev,
    fault: Option<&CompFaultEntry>,
    fhub: &FaultHub,
    hooks: &[Rc<RefCell<dyn Hook>>],
) -> bool {
    sched.now = ev.time;
    sched.current = ev.component;
    if ev.kind == EventKind::Tick {
        sched.pending_ticks.remove(ev.component, ev.time);
    }
    let mut slow_factor = None;
    if let Some(entry) = fault {
        if let Some((from, until)) = entry.spec.freeze {
            let t = ev.time.ps();
            if t >= from && t < until {
                // A finite freeze reschedules the tick at thaw time so the
                // component resumes.
                if ev.kind == EventKind::Tick && until != u64::MAX {
                    sched.schedule_tick(ev.component, VTime::from_ps(until));
                }
                fhub.note_comp_injections(&entry.name, true, 1);
                return false;
            }
        }
        slow_factor = entry.spec.slow_factor.filter(|f| *f > 1);
    }
    if !hooks.is_empty() {
        let comp = comp.borrow();
        for hook in hooks {
            hook.borrow_mut().before_event(ev, &*comp);
        }
    }
    let mut slow_applied = false;
    {
        let mut comp = comp.borrow_mut();
        let _prof = profile::scope(comp.kind());
        let mut ctx = Ctx { sched };
        match ev.kind {
            EventKind::Tick => {
                if comp.tick(&mut ctx) {
                    let next = match slow_factor {
                        // Stretch the tick period: the component keeps
                        // working, at 1/factor the rate.
                        Some(f) => {
                            slow_applied = true;
                            let period = comp.freq().period().ps();
                            VTime::from_ps(ev.time.ps().saturating_add(period.saturating_mul(f)))
                        }
                        None => comp.freq().cycle_after(ev.time),
                    };
                    ctx.schedule_tick(ev.component, next);
                }
            }
            EventKind::Custom(code) => comp.handle_custom(code, &mut ctx),
        }
    }
    if slow_applied {
        if let Some(entry) = fault {
            fhub.note_comp_injections(&entry.name, false, 1);
        }
    }
    if !hooks.is_empty() {
        let comp = comp.borrow();
        for hook in hooks {
            hook.borrow_mut().after_event(ev, &*comp);
        }
    }
    true
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Simulation({} components, now {}, {} queued events)",
            self.components.len(),
            self.sched.now,
            self.sched.queue.len()
        )
    }
}

#[cfg(test)]
mod tick_dedup_tests {
    use super::*;

    fn cid(i: u32) -> ComponentId {
        ComponentId::from_index(i as usize)
    }

    /// Whether the dedup holds `(c, t)`, in a slot or in the overflow.
    fn holds(d: &TickDedup, c: u32, t: u64) -> bool {
        d.slots
            .get(c as usize)
            .is_some_and(|s| s.times.contains(&t))
            || d.overflow.contains(&(c, t))
    }

    /// Each component's spill count equals its entries in the overflow.
    fn assert_spill_counts(d: &TickDedup) {
        for (c, s) in d.slots.iter().enumerate() {
            let spilled = d.overflow.iter().filter(|k| k.0 as usize == c).count();
            assert_eq!(s.spilled as usize, spilled, "component {c}");
        }
    }

    /// A time still in the overflow must not be accepted again once one of
    /// the component's inline slots frees up.
    #[test]
    fn a_spilled_time_is_not_accepted_again_after_a_slot_frees() {
        let mut d = TickDedup::default();
        let c = cid(3);
        let t = VTime::from_ns;
        assert!(d.insert(c, t(1)));
        assert!(d.insert(c, t(2)));
        assert!(d.insert(c, t(3)), "a third pending time spills");
        assert_eq!(d.slots[3].spilled, 1);
        d.remove(c, t(1));
        assert!(!d.insert(c, t(3)), "3 ns is still pending in the overflow");
        assert!(d.insert(c, t(1)));
        d.remove(c, t(3));
        assert!(d.overflow.is_empty());
        assert_eq!(d.slots[3].spilled, 0);
        assert!(
            d.insert(c, t(3)),
            "3 ns was dispatched; it may be queued again"
        );
        assert_spill_counts(&d);
    }

    /// Random inserts and removes against a reference `HashSet`: every
    /// insert answers as the set does, and the dedup holds exactly the
    /// set's pairs. Components hold 0–8 pending times, so they spill into
    /// the overflow and drain back out of it.
    #[test]
    fn tick_dedup_matches_a_reference_set() {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut rng = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let (mut spilled, mut unspilled) = (false, false);
        for case in 0..64 {
            let comps = rng(12) as u32 + 1;
            let caps: Vec<usize> = (0..comps).map(|_| rng(9) as usize).collect();
            let mut d = TickDedup::default();
            let mut r: HashSet<(u32, u64)> = HashSet::new();
            for _ in 0..2_000 {
                let c = rng(u64::from(comps)) as u32;
                let mut held: Vec<u64> = r.iter().filter(|k| k.0 == c).map(|k| k.1).collect();
                held.sort_unstable();
                let had_spill = d.slots.get(c as usize).is_some_and(|s| s.spilled > 0);
                if held.len() < caps[c as usize] && rng(2) == 0 {
                    // A small universe of times makes duplicates common.
                    let t = rng(12) * 1_000;
                    assert_eq!(
                        d.insert(cid(c), VTime::from_ps(t)),
                        r.insert((c, t)),
                        "case {case}: insert ({c}, {t})"
                    );
                } else {
                    // Dispatch a pending tick, or now and then remove a
                    // time that is not pending (a no-op).
                    let t = if held.is_empty() || rng(8) == 0 {
                        rng(12) * 1_000
                    } else {
                        held[rng(held.len() as u64) as usize]
                    };
                    d.remove(cid(c), VTime::from_ps(t));
                    r.remove(&(c, t));
                }
                let has_spill = d.slots.get(c as usize).is_some_and(|s| s.spilled > 0);
                spilled |= has_spill;
                unspilled |= had_spill && !has_spill;
                for t in 0..12 {
                    let t = t * 1_000;
                    assert_eq!(
                        holds(&d, c, t),
                        r.contains(&(c, t)),
                        "case {case}: ({c}, {t})"
                    );
                }
            }
            assert_spill_counts(&d);
        }
        assert!(spilled && unspilled, "the overflow path must be exercised");
    }
}
