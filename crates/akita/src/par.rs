//! Conservative-window parallel execution.
//!
//! The component graph is split into *partitions* (one per GPU chiplet plus
//! one for the host/driver, in the default MCM plan); each partition owns a
//! private [`Scheduler`] and is advanced by a worker thread. All partitions
//! march in lock-step *windows* `[T, T + L)` where the lookahead `L` is the
//! minimum latency of any connection that spans partitions — the classic
//! conservative-PDES bound: an event at time `t < T + L` can only influence
//! another partition at `t + L_conn ≥ T + L`, i.e. in a *future* window, so
//! partitions can execute a window concurrently without ever seeing a
//! message from their own present.
//!
//! # One engine core
//!
//! This module adds only windows, barriers and relays. Everything else is
//! the serial engine's code: workers run each event through
//! [`execute`] (tick dedup, freeze/slow rules, the profiled handler,
//! re-ticking), the barrier commits through [`Simulation::commit`] (event
//! counter, trace ring, activity stamps) and the hooks, and
//! [`Simulation::run_loop`] — stop, pause, monitor queries, deadline,
//! interactive idling — drives both engines. The windowed engine's step is
//! [`advance_window`]: migrate queued work, run one window, commit it.
//!
//! # Relays and docks
//!
//! Connections whose endpoint owners live in more than one partition are
//! *spanning*. A spanning connection never ticks; instead [`Port::send`]
//! through it is intercepted (via a thread-local relay table) and the
//! message is routed to the destination partition's **dock** — a pseudo
//! component (`__par.Dock[p]`) holding one uncapped [`Link`] per
//! destination port, the link type [`DirectConnection`](crate::DirectConnection)
//! uses, so fault verdicts and head-of-line delivery are shared code.
//! Same-partition relays insert into the local dock mid-window;
//! cross-partition relays park in per-destination outboxes that the barrier
//! drains in deterministic `(source partition, FIFO)` order. Spanning
//! connections model pure latency (`Connection::relay_latency`); their
//! bandwidth/link-cap shaping is not applied, and relayed senders never
//! observe `Busy` — identically for every thread count.
//!
//! # Determinism
//!
//! Every partition's execution is a deterministic function of its own event
//! queue (per-partition `(time, seq)` order) plus barrier inputs, and the
//! barrier itself is deterministic, so `--threads N` commits the exact same
//! merged event log as `--threads 1` — the merged log is ordered by
//! `(time, seq, partition)` and hooks, the trace ring, activity stamps, and
//! the event counter are all driven from it while workers are parked. Fault
//! verdicts are drawn at dock-insertion time (a deterministic order) and
//! stuck-full windows are evaluated at window-start granularity, so an
//! installed [`FaultPlan`](crate::faults::FaultPlan) stays bit-identical
//! across thread counts too. (The windowed log is *not* guaranteed to match
//! the plain serial engine's: relays replace connection ticks.)

// The one module in the workspace allowed to use `unsafe`: sharing the
// (thread-unsafe by construction) component registry and partition state
// across worker threads is the entire point of the parallel engine, and the
// disjointness discipline that makes it sound is documented on `PartSlot`
// and `ShareComps` below. Everything else goes through ordinary sync types.
#![allow(unsafe_code)]

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::component::{CompBase, Component};
use crate::conn::Link;
use crate::engine::{
    execute, panic_message, Advance, CompFaultEntry, Ctx, RunSummary, Scheduler, Simulation,
};
use crate::faults::{FaultHub, MsgVerdict};
use crate::ids::{ComponentId, PortId};
use crate::msg::Msg;
use crate::port::{Port, PortSnapshot};
use crate::queue::{Ev, EventKind};
use crate::state::ComponentState;
use crate::time::VTime;
use crate::trace;

// ---------------------------------------------------------------------------
// Partition plan
// ---------------------------------------------------------------------------

/// An assignment of every registered component to a partition.
///
/// Build one with [`PartitionPlan::from_key`] *after* the full topology is
/// wired and hand it to [`Simulation::set_parallel`]. Connections whose
/// endpoints all live in one partition are pulled into that partition
/// regardless of what the key function says, so only genuinely spanning
/// wires become relays.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// Partition index per component (indexed by `ComponentId::index`).
    assign: Vec<usize>,
    /// Partition display names, sorted by group key.
    names: Vec<String>,
}

impl PartitionPlan {
    /// Groups components by `key(component_name)`: every distinct key (in
    /// sorted order) becomes one partition. Connections are then re-homed
    /// to their endpoints' partition when the endpoints agree.
    ///
    /// # Errors
    ///
    /// Returns an error if the simulation has no components.
    pub fn from_key(
        sim: &Simulation,
        key: impl Fn(&str) -> String,
    ) -> Result<PartitionPlan, String> {
        let n = sim.component_count();
        if n == 0 {
            return Err("cannot partition an empty simulation".into());
        }
        let comp_keys: Vec<String> = (0..n)
            .map(|i| {
                let name = sim
                    .component(ComponentId::from_index(i))
                    .borrow()
                    .name()
                    .to_owned();
                key(&name)
            })
            .collect();
        let groups: BTreeSet<&String> = comp_keys.iter().collect();
        let index: BTreeMap<&String, usize> =
            groups.iter().enumerate().map(|(i, k)| (*k, i)).collect();
        let mut assign: Vec<usize> = comp_keys.iter().map(|k| index[k]).collect();
        let names: Vec<String> = groups.iter().map(|k| (*k).clone()).collect();

        // Re-home connections whose endpoint owners agree on a partition, so
        // a key function only has to describe *components*; wires follow.
        let snapshots = sim.buffer_registry().port_snapshots();
        for &conn_id in sim.connections_map().keys() {
            let owners = owner_partitions(&snapshots, conn_id, &assign);
            if let (Some(&only), 1) = (owners.first(), owners.len()) {
                assign[conn_id.index()] = only;
            }
        }
        Ok(PartitionPlan { assign, names })
    }

    /// Number of partitions.
    #[must_use]
    pub fn partitions(&self) -> usize {
        self.names.len()
    }

    /// Partition display names, in partition-index order.
    #[must_use]
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The partition index assigned to each component.
    #[must_use]
    pub fn assignment(&self) -> &[usize] {
        &self.assign
    }
}

/// The partitions owning the endpoints of connection `conn` under `assign`:
/// one means the connection lives inside that partition, more mean it spans.
fn owner_partitions(
    snapshots: &[PortSnapshot],
    conn: ComponentId,
    assign: &[usize],
) -> BTreeSet<usize> {
    snapshots
        .iter()
        .filter(|p| p.connection == Some(conn))
        .filter_map(|p| p.owner)
        .map(|o| assign[o.index()])
        .collect()
}

// ---------------------------------------------------------------------------
// Relay routing
// ---------------------------------------------------------------------------

struct RelayRoutes {
    /// Sending port → the spanning connection's relay latency (ps).
    latency_by_src: HashMap<PortId, u64>,
    /// Destination port → owning partition.
    dst_part: HashMap<PortId, usize>,
    /// Per-partition dock component id.
    dock_comp: Vec<ComponentId>,
}

/// Thread-local relay state, live only while a worker runs a partition
/// window. Raw pointers (into that partition's [`PartState`] and the run's
/// [`RelayRoutes`]) keep the hot-path check to one TLS read; they are set
/// and cleared by [`TlsGuard`] around each window and never outlive it.
#[derive(Clone, Copy)]
struct RelayTls {
    routes: *const RelayRoutes,
    outboxes: *const RefCell<Vec<Vec<OutMsg>>>,
    dock: *const RefCell<Dock>,
    my_part: usize,
}

thread_local! {
    static RELAY: Cell<Option<RelayTls>> = const { Cell::new(None) };
}

/// Clears the relay TLS even if the partition window panics.
struct TlsGuard;

impl TlsGuard {
    fn install(tls: RelayTls) -> TlsGuard {
        RELAY.with(|r| r.set(Some(tls)));
        TlsGuard
    }
}

impl Drop for TlsGuard {
    fn drop(&mut self) {
        RELAY.with(|r| r.set(None));
    }
}

/// Intercepts a [`Port::send`] when the sending port is attached to a
/// spanning connection. Returns the message back (`Err`) when no relay is
/// active for it, so the port falls through to the normal connection path.
/// Relayed sends always succeed: docks are unbounded, so cross-partition
/// senders never observe `Busy` (uniformly for every thread count).
#[inline]
pub(crate) fn relay_send(ctx: &mut Ctx, mut msg: Box<dyn Msg>) -> Result<(), Box<dyn Msg>> {
    let Some(tls) = RELAY.with(Cell::get) else {
        return Err(msg);
    };
    // SAFETY: the pointers were installed by `TlsGuard` for the duration of
    // the current partition window; this call happens inside that window.
    let routes = unsafe { &*tls.routes };
    let Some(&lat_ps) = routes.latency_by_src.get(&msg.meta().src) else {
        return Err(msg);
    };
    let dst = msg.meta().dst;
    let Some(&dst_part) = routes.dst_part.get(&dst) else {
        panic!(
            "relay: destination {dst} is not an endpoint of the spanning connection \
             (wiring bug — run the topology lint: `rtm-sim analyze`)"
        );
    };
    let now = ctx.now();
    msg.meta_mut().send_time = now;
    let arrive = now + VTime::from_ps(lat_ps);
    if dst_part == tls.my_part {
        // SAFETY: as above; the dock belongs to the running partition.
        let dock = unsafe { &*tls.dock };
        if let Some(eff) = dock.borrow_mut().insert(dst, arrive, msg) {
            ctx.schedule_tick(routes.dock_comp[dst_part], eff);
        }
    } else {
        // SAFETY: as above; outboxes are drained at the window barrier.
        let outboxes = unsafe { &*tls.outboxes };
        outboxes.borrow_mut()[dst_part].push(OutMsg { arrive, dst, msg });
    }
    Ok(())
}

/// When `port` receives through a spanning connection, the component that
/// must be woken after a full-buffer retrieve is the partition's dock, not
/// the (never-ticking) connection. Returns `None` outside relay windows.
#[inline]
pub(crate) fn relay_wake_target(port: PortId) -> Option<ComponentId> {
    let tls = RELAY.with(Cell::get)?;
    // SAFETY: see `relay_send`.
    let routes = unsafe { &*tls.routes };
    routes.dst_part.get(&port).map(|&p| routes.dock_comp[p])
}

// ---------------------------------------------------------------------------
// Docks
// ---------------------------------------------------------------------------

struct OutMsg {
    arrive: VTime,
    dst: PortId,
    msg: Box<dyn Msg>,
}

/// Per-partition delivery pseudo-component for relayed messages.
///
/// One [`Link`] per destination port, uncapped, so relayed messages get
/// exactly [`crate::DirectConnection`]'s fault verdicts and head-of-line
/// delivery, minus bandwidth shaping (spanning connections model pure
/// latency). Each link records `Transit` spans under its spanning
/// connection's trace site. A stalled link is retried when the destination
/// port's owner retrieves (see `relay_wake_target`).
pub(crate) struct Dock {
    base: CompBase,
    links: BTreeMap<PortId, (trace::SiteId, Link)>,
}

impl Dock {
    fn new(partition: usize) -> Dock {
        Dock {
            base: CompBase::new("ParDock", format!("__par.Dock[{partition}]")),
            links: BTreeMap::new(),
        }
    }

    fn add_link(&mut self, port: Port, conn_name: &str) {
        self.links.insert(
            port.id(),
            (trace::site(conn_name), Link::new(port, usize::MAX)),
        );
    }

    /// Queues a relayed message for `dst`, drawing the destination port's
    /// fault verdict as a `DirectConnection` would on send. Returns the
    /// arrival time to schedule a dock tick at, or `None` when the message
    /// was dropped.
    fn insert(&mut self, dst: PortId, arrive: VTime, msg: Box<dyn Msg>) -> Option<VTime> {
        let (_, link) = self.links.get_mut(&dst).expect("relay route checked");
        let verdict = link.verdict();
        (verdict != MsgVerdict::Drop).then(|| link.enqueue(verdict, arrive, msg))
    }

    fn pending(&self) -> usize {
        self.links.values().map(|(_, link)| link.len()).sum()
    }
}

impl Component for Dock {
    fn base(&self) -> &CompBase {
        &self.base
    }

    fn base_mut(&mut self) -> &mut CompBase {
        &mut self.base
    }

    fn tick(&mut self, ctx: &mut Ctx) -> bool {
        let mut delivered = 0;
        let mut next_arrival: Option<VTime> = None;
        for (site, link) in self.links.values_mut() {
            delivered += link.deliver_due(ctx, *site, &mut next_arrival);
        }
        if let Some(t) = next_arrival {
            let id = self.base.id;
            ctx.schedule_tick(id, t);
        }
        delivered > 0
    }

    fn state(&self) -> ComponentState {
        ComponentState::new()
            .field("links", self.links.len())
            .field("pending", self.pending())
    }
}

// ---------------------------------------------------------------------------
// Shared stats (the RTM surface)
// ---------------------------------------------------------------------------

/// Lock-free parallel-engine statistics shared with the monitor thread.
///
/// Workers and the coordinator store into these atomics at window barriers;
/// `/api/metrics` and the dashboard read them without touching the engine.
#[derive(Debug)]
pub struct ParShared {
    lookahead_ps: AtomicU64,
    windows: AtomicU64,
    names: Vec<String>,
    part_events: Vec<AtomicU64>,
    part_queue: Vec<AtomicU64>,
    part_dock: Vec<AtomicU64>,
    worker_busy_ns: Vec<AtomicU64>,
    worker_wait_ns: Vec<AtomicU64>,
}

impl ParShared {
    fn new(names: Vec<String>, workers: usize) -> ParShared {
        let n = names.len();
        ParShared {
            lookahead_ps: AtomicU64::new(0),
            windows: AtomicU64::new(0),
            names,
            part_events: (0..n).map(|_| AtomicU64::new(0)).collect(),
            part_queue: (0..n).map(|_| AtomicU64::new(0)).collect(),
            part_dock: (0..n).map(|_| AtomicU64::new(0)).collect(),
            worker_busy_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            worker_wait_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// A point-in-time copy of every gauge.
    #[must_use]
    pub fn snapshot(&self) -> ParSnapshot {
        ParSnapshot {
            lookahead_ps: self.lookahead_ps.load(Ordering::Relaxed),
            windows: self.windows.load(Ordering::Relaxed),
            partitions: self
                .names
                .iter()
                .enumerate()
                .map(|(i, name)| PartStat {
                    name: name.clone(),
                    events: self.part_events[i].load(Ordering::Relaxed),
                    queue_len: self.part_queue[i].load(Ordering::Relaxed),
                    dock_pending: self.part_dock[i].load(Ordering::Relaxed),
                })
                .collect(),
            workers: self
                .worker_busy_ns
                .iter()
                .zip(&self.worker_wait_ns)
                .map(|(b, w)| WorkerStat {
                    busy_ns: b.load(Ordering::Relaxed),
                    barrier_wait_ns: w.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// Serializable snapshot of [`ParShared`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParSnapshot {
    /// The conservative window lookahead, picoseconds.
    pub lookahead_ps: u64,
    /// Windows completed so far.
    pub windows: u64,
    /// Per-partition gauges.
    pub partitions: Vec<PartStat>,
    /// Per-worker utilization counters.
    pub workers: Vec<WorkerStat>,
}

/// One partition's lock-free gauges.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PartStat {
    /// Partition display name.
    pub name: String,
    /// Events committed for this partition so far.
    pub events: u64,
    /// Pending events in the partition queue at the last barrier.
    pub queue_len: u64,
    /// Relayed messages parked in the partition's dock at the last barrier.
    pub dock_pending: u64,
}

/// One worker thread's utilization counters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkerStat {
    /// Wall-clock nanoseconds spent executing partition windows.
    pub busy_ns: u64,
    /// Wall-clock nanoseconds spent waiting at window barriers.
    pub barrier_wait_ns: u64,
}

/// Detailed, engine-served parallel status (`SimQuery::Parallel`, `GET
/// /api/parallel`). Unlike [`ParSnapshot`] this includes per-partition
/// stall evidence, which the watchdog uses to name a wedged partition.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParReport {
    /// Configured worker-thread count.
    pub threads: usize,
    /// The conservative window lookahead, picoseconds.
    pub lookahead_ps: u64,
    /// Windows completed so far.
    pub windows: u64,
    /// Per-partition status, in partition order.
    pub partitions: Vec<PartitionStatus>,
}

/// One partition's detailed status.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PartitionStatus {
    /// Partition display name.
    pub name: String,
    /// Components assigned to this partition.
    pub components: usize,
    /// Events committed for this partition so far.
    pub events: u64,
    /// Pending events in the partition's queue.
    pub queue_len: usize,
    /// Relayed messages parked in the partition's dock.
    pub dock_pending: usize,
    /// Partition-local connections with a head-of-line-stalled link.
    pub stalled_conns: Vec<String>,
    /// Senders blocked on full links of partition-local connections.
    pub blocked_senders: usize,
}

impl ParReport {
    /// The partition that looks wedged during a stall: the one holding
    /// undelivered work (stalled links, parked dock messages, or blocked
    /// senders) while the rest are clean. Returns `None` when zero or
    /// several partitions show stall evidence.
    #[must_use]
    pub fn wedged_partition(&self) -> Option<&PartitionStatus> {
        // Dock-held messages are the parallel-specific wedge signal: the
        // window barrier could not deliver them, so their destination
        // partition is the one that stopped accepting. Backpressure then
        // cascades secondary stalls into *other* partitions, so prefer
        // the dock evidence and only fall back to generic stall evidence
        // when no dock is backed up.
        let mut docked = self.partitions.iter().filter(|p| p.dock_pending > 0);
        if let Some(first) = docked.next() {
            return Some(docked.fold(first, |a, b| {
                if b.dock_pending > a.dock_pending {
                    b
                } else {
                    a
                }
            }));
        }
        let mut wedged = self
            .partitions
            .iter()
            .filter(|p| !p.stalled_conns.is_empty() || p.blocked_senders > 0);
        let first = wedged.next()?;
        if wedged.next().is_some() {
            return None;
        }
        Some(first)
    }
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

/// One partition's mutable execution state. Owned by its worker during a
/// window, by the coordinator at barriers; the [`PartSlot`] mutex enforces
/// that handoff.
struct PartState {
    idx: usize,
    sched: Scheduler,
    dock: Rc<RefCell<Dock>>,
    /// Cross-partition sends made this window, per destination partition.
    /// Behind a `RefCell` so the relay TLS can reach it while the worker
    /// holds `&mut` borrows elsewhere in this struct.
    outboxes: RefCell<Vec<Vec<OutMsg>>>,
    /// Events dispatched this window, in per-partition `(time, seq)` order,
    /// each flagged when a freeze swallowed it (it commits, but hooks
    /// never see it).
    log: Vec<(Ev, bool)>,
}

/// `Send + Sync` wrapper for a partition's state.
///
/// SAFETY: `PartState` contains `Rc`/`RefCell`/`Box<dyn Msg>` values that
/// are not thread-safe by construction. The parallel engine upholds a
/// strict discipline instead: a `PartState` is only ever accessed while its
/// mutex is held, workers only touch their own partitions during a window,
/// and the coordinator only touches any of them while every worker is
/// parked at the barrier. No `Rc` in here is cloned off the owning thread
/// while another thread holds a handle to the same allocation.
struct PartSlot(Mutex<PartState>);

unsafe impl Send for PartSlot {}
unsafe impl Sync for PartSlot {}

impl PartSlot {
    fn lock(&self) -> MutexGuard<'_, PartState> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Shared, read-only view of the component registry for worker threads.
///
/// SAFETY: workers index the slice and `borrow_mut` only the `RefCell`s of
/// components assigned to their own partitions; the coordinator borrows
/// components only at barriers (hooks, queries) while workers are parked.
/// The `Vec` itself is never resized while a run is in flight, and no `Rc`
/// handle is cloned from a non-owning thread.
#[derive(Clone, Copy)]
struct ShareComps {
    ptr: *const Rc<RefCell<dyn Component>>,
    len: usize,
}

unsafe impl Send for ShareComps {}
unsafe impl Sync for ShareComps {}

impl ShareComps {
    fn new(comps: &[Rc<RefCell<dyn Component>>]) -> ShareComps {
        ShareComps {
            ptr: comps.as_ptr(),
            len: comps.len(),
        }
    }

    /// SAFETY: see the type-level contract; `i` must be in bounds.
    unsafe fn get(&self, i: usize) -> &Rc<RefCell<dyn Component>> {
        debug_assert!(i < self.len);
        unsafe { &*self.ptr.add(i) }
    }
}

/// The engine-side parallel configuration, produced by
/// [`Simulation::set_parallel`] and consumed by the windowed run loop.
pub(crate) struct ParRuntime {
    assign: Vec<usize>,
    names: Vec<String>,
    threads: usize,
    workers: usize,
    lookahead_ps: u64,
    parts: Vec<PartSlot>,
    routes: Arc<RelayRoutes>,
    /// Spanning connections: never ticked while parallel mode is active.
    spanning: BTreeSet<ComponentId>,
    shared: Arc<ParShared>,
    /// Worker-visible copy of the engine's resolved component faults,
    /// refreshed whenever a plan is (re)installed at a barrier.
    comp_faults: Mutex<Arc<Vec<Option<CompFaultEntry>>>>,
}

impl ParRuntime {
    pub(crate) fn shared(&self) -> Arc<ParShared> {
        Arc::clone(&self.shared)
    }

    pub(crate) fn set_comp_faults(&self, faults: Vec<Option<CompFaultEntry>>) {
        *self
            .comp_faults
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Arc::new(faults);
    }

    fn comp_faults(&self) -> Arc<Vec<Option<CompFaultEntry>>> {
        Arc::clone(
            &self
                .comp_faults
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    fn partition_of(&self, component: ComponentId) -> usize {
        *self.assign.get(component.index()).unwrap_or_else(|| {
            panic!(
                "{component} was registered after Simulation::set_parallel — \
                 register every component before configuring the parallel engine"
            )
        })
    }

    /// Total pending events across partition queues (monitor view).
    pub(crate) fn queued_events(&self) -> u64 {
        self.parts
            .iter()
            .map(|p| p.lock().sched.queue.len() as u64)
            .sum()
    }

    /// Whether every partition queue is empty (quiescence view).
    pub(crate) fn all_queues_empty(&self) -> bool {
        self.parts.iter().all(|p| p.lock().sched.queue.is_empty())
    }

    /// Components with pending events, across all partitions.
    pub(crate) fn scheduled_components(&self) -> Vec<ComponentId> {
        let mut out = Vec::new();
        for p in &self.parts {
            out.extend(p.lock().sched.queue.scheduled_components());
        }
        out
    }

    fn min_pending_time(&self) -> Option<VTime> {
        self.parts
            .iter()
            .filter_map(|p| p.lock().sched.queue.peek_time())
            .min()
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Builds the [`ParRuntime`] for `sim`: detects spanning connections,
/// computes the lookahead, creates relay routes and per-partition docks
/// (registered as components), and seeds per-partition schedulers.
pub(crate) fn configure(
    sim: &mut Simulation,
    plan: PartitionPlan,
    threads: usize,
) -> Result<ParRuntime, String> {
    if plan.assign.len() != sim.component_count() {
        return Err(format!(
            "partition plan covers {} components but the simulation has {} — \
             build the plan after registering every component",
            plan.assign.len(),
            sim.component_count()
        ));
    }
    let threads = threads.max(1);
    let mut assign = plan.assign;
    let names = plan.names;
    let partitions = names.len();

    let snapshots = sim.buffer_registry().port_snapshots();
    let spanning: BTreeSet<ComponentId> = sim
        .connections_map()
        .keys()
        .copied()
        .filter(|&conn| owner_partitions(&snapshots, conn, &assign).len() > 1)
        .collect();

    // Lookahead: the minimum relay latency over spanning connections. With
    // no spanning connections the single window covers the whole run.
    let mut lookahead_ps = u64::MAX;
    let mut latency_by_src: HashMap<PortId, u64> = HashMap::new();
    let mut dst_part: HashMap<PortId, usize> = HashMap::new();
    let mut dock_specs: Vec<Vec<(Port, String)>> = (0..partitions).map(|_| Vec::new()).collect();
    for &conn_id in &spanning {
        let conn = Rc::clone(&sim.connections_map()[&conn_id]);
        let conn_ref = conn.borrow();
        let name = conn_ref.name().to_owned();
        let Some(latency) = conn_ref.relay_latency() else {
            return Err(format!(
                "connection {name} spans partitions but does not implement \
                 Connection::relay_latency — keep its endpoints in one partition \
                 or make it relayable"
            ));
        };
        let lat_ps = latency.ps().max(1);
        let ports = conn_ref.endpoint_ports();
        if ports.is_empty() {
            return Err(format!(
                "connection {name} spans partitions but reports no endpoint \
                 ports (Connection::endpoint_ports) — the relay cannot deliver for it"
            ));
        }
        lookahead_ps = lookahead_ps.min(lat_ps);
        for port in ports {
            let Some(owner) = port.owner() else {
                return Err(format!(
                    "port {} on spanning connection {name} has no owner — \
                     every relayed endpoint needs one for partition routing",
                    port.name()
                ));
            };
            let part = assign[owner.index()];
            latency_by_src.insert(port.id(), lat_ps);
            dst_part.insert(port.id(), part);
            dock_specs[part].push((port, name.clone()));
        }
    }

    // One dock per partition, registered like any other component so its
    // delivery ticks flow through the ordinary event machinery and logs.
    let mut docks: Vec<Rc<RefCell<Dock>>> = Vec::with_capacity(partitions);
    let mut dock_comp: Vec<ComponentId> = Vec::with_capacity(partitions);
    for (p, spec) in dock_specs.into_iter().enumerate() {
        let mut dock = Dock::new(p);
        for (port, conn_name) in spec {
            dock.add_link(port, &conn_name);
        }
        let (id, rc) = sim.register(dock);
        assign.push(p);
        docks.push(rc);
        dock_comp.push(id);
    }

    let workers = threads.min(partitions).max(1);
    let routes = Arc::new(RelayRoutes {
        latency_by_src,
        dst_part,
        dock_comp,
    });
    let shared = Arc::new(ParShared::new(names.clone(), workers));
    shared.lookahead_ps.store(lookahead_ps, Ordering::Relaxed);
    let parts = (0..partitions)
        .map(|idx| {
            PartSlot(Mutex::new(PartState {
                idx,
                sched: Scheduler::new(),
                dock: Rc::clone(&docks[idx]),
                outboxes: RefCell::new((0..partitions).map(|_| Vec::new()).collect()),
                log: Vec::new(),
            }))
        })
        .collect();
    Ok(ParRuntime {
        assign,
        names,
        threads,
        workers,
        lookahead_ps,
        parts,
        routes,
        spanning,
        shared,
        comp_faults: Mutex::new(Arc::new(Vec::new())),
    })
}

/// Builds the detailed [`ParReport`] (serves `SimQuery::Parallel`).
pub(crate) fn report(sim: &Simulation, par: &ParRuntime) -> ParReport {
    let mut partitions: Vec<PartitionStatus> = par
        .names
        .iter()
        .map(|name| PartitionStatus {
            name: name.clone(),
            ..PartitionStatus::default()
        })
        .collect();
    for &p in &par.assign {
        partitions[p].components += 1;
    }
    for (p, status) in partitions.iter_mut().enumerate() {
        let st = par.parts[p].lock();
        status.events = par.shared.part_events[p].load(Ordering::Relaxed);
        status.queue_len = st.sched.queue.len();
        status.dock_pending = st.dock.borrow().pending();
    }
    // Partition-local connections: stalled links are the wedged-partition
    // evidence the watchdog reports on a window-barrier stall.
    for (&conn_id, conn) in sim.connections_map() {
        if par.spanning.contains(&conn_id) {
            continue;
        }
        let p = par.assign[conn_id.index()];
        let conn = conn.borrow();
        let waits = conn.link_waits();
        let stalled = waits.iter().any(|w| w.stalled);
        let blocked: usize = waits.iter().map(|w| w.blocked_senders.len()).sum();
        if stalled {
            partitions[p].stalled_conns.push(conn.name().to_owned());
        }
        partitions[p].blocked_senders += blocked;
    }
    ParReport {
        threads: par.threads,
        lookahead_ps: par.lookahead_ps,
        windows: par.shared.windows.load(Ordering::Relaxed),
        partitions,
    }
}

// ---------------------------------------------------------------------------
// Window synchronization
// ---------------------------------------------------------------------------

/// Upper bound on one window's virtual-time span (10 µs): see `advance_window`.
const MAX_WINDOW_PS: u64 = 10_000_000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum WinCmd {
    Idle,
    Run { end_ps: u64, faults_on: bool },
    Exit,
}

struct CrashNote {
    component: ComponentId,
    now: VTime,
    message: String,
}

struct SyncState {
    gen: u64,
    cmd: WinCmd,
    done: usize,
    crashed: Option<CrashNote>,
}

struct WindowSync {
    state: Mutex<SyncState>,
    work_cv: Condvar,
    done_cv: Condvar,
}

impl WindowSync {
    fn new() -> WindowSync {
        WindowSync {
            state: Mutex::new(SyncState {
                gen: 0,
                cmd: WinCmd::Idle,
                done: 0,
                crashed: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SyncState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn start_window(&self, end_ps: u64, faults_on: bool) {
        let mut g = self.lock();
        g.gen += 1;
        g.cmd = WinCmd::Run { end_ps, faults_on };
        g.done = 0;
        self.work_cv.notify_all();
    }

    fn broadcast_exit(&self) {
        let mut g = self.lock();
        g.gen += 1;
        g.cmd = WinCmd::Exit;
        self.work_cv.notify_all();
    }

    /// Worker side: waits for a new generation and returns its command.
    fn wait_for_work(&self, seen: &mut u64) -> WinCmd {
        let mut g = self.lock();
        while g.gen == *seen {
            g = self.work_cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        *seen = g.gen;
        g.cmd
    }

    /// Worker side: reports window completion (with any caught crash).
    fn window_done(&self, crash: Option<CrashNote>) {
        let mut g = self.lock();
        if g.crashed.is_none() {
            g.crashed = crash;
        }
        g.done += 1;
        self.done_cv.notify_one();
    }

    /// Coordinator side: waits until all `workers` finished the window.
    fn wait_done(&self, workers: usize) -> Option<CrashNote> {
        let mut g = self.lock();
        while g.done < workers {
            g = self.done_cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        g.crashed.take()
    }
}

// ---------------------------------------------------------------------------
// The windowed run loop
// ---------------------------------------------------------------------------

/// Runs `sim` on the windowed engine: the shared run loop
/// ([`Simulation::run_loop`]) advances one window per step while the
/// workers execute the partitions.
pub(crate) fn run_windowed(
    sim: &mut Simulation,
    par: &ParRuntime,
    deadline: Option<VTime>,
    interactive: bool,
) -> RunSummary {
    assert_eq!(
        par.assign.len(),
        sim.components.len(),
        "components were registered after Simulation::set_parallel"
    );
    let comps = ShareComps::new(&sim.components);
    let sync = WindowSync::new();
    let fhub = sim.fhub.clone();
    std::thread::scope(|scope| {
        for w in 0..par.workers {
            let (sync, fhub) = (&sync, &fhub);
            scope.spawn(move || worker_loop(w, par, sync, comps, fhub));
        }
        // Releases the parked workers however the loop ends — including a
        // worker panic resurfaced by `advance_window` — so the scope can
        // join them.
        let _exit = ExitOnDrop(&sync);
        sim.run_loop(deadline, interactive, |sim, deadline| {
            advance_window(sim, par, &sync, deadline)
        })
    })
}

struct ExitOnDrop<'a>(&'a WindowSync);

impl Drop for ExitOnDrop<'_> {
    fn drop(&mut self) {
        self.0.broadcast_exit();
    }
}

/// One step of the windowed engine: hands queued work to the partitions,
/// runs the next window on the workers and commits it.
fn advance_window(
    sim: &mut Simulation,
    par: &ParRuntime,
    sync: &WindowSync,
    deadline: Option<VTime>,
) -> Advance {
    migrate_global_queue(sim, par);
    let Some(t1) = par.min_pending_time() else {
        return Advance::Drained;
    };
    if deadline.is_some_and(|d| t1 > d) {
        return Advance::Deadline;
    }
    // Any window no larger than the lookahead is safe; the cap bounds how
    // long monitor queries can starve when the topology has no spanning
    // connections (lookahead = ∞). A fixed virtual-time cap keeps window
    // boundaries — and therefore stuck-full evaluation points — identical
    // for every thread count.
    let win = par.lookahead_ps.min(MAX_WINDOW_PS);
    let mut end_ps = t1.ps().saturating_add(win);
    if let Some(d) = deadline {
        // Dispatch nothing past the deadline; the next step ends the run
        // once every pre-deadline event has committed.
        end_ps = end_ps.min(d.ps().saturating_add(1));
    }
    if sim.faults_on {
        // Workers never republish virtual time, so stuck-full windows are
        // evaluated at the window start, identically for every thread
        // count.
        sim.fhub.set_now_ps(t1.ps());
    }
    sync.start_window(end_ps, sim.faults_on);
    if let Some(note) = sync.wait_done(par.workers) {
        // Surface the worker panic from the engine thread so `run_caught`
        // records the component that died.
        sim.sched.now = note.now;
        sim.sched.current = note.component;
        sim.flush_publish();
        std::panic::panic_any(note.message);
    }
    barrier_commit(sim, par);
    Advance::Ran
}

fn worker_loop(w: usize, par: &ParRuntime, sync: &WindowSync, comps: ShareComps, fhub: &FaultHub) {
    let mut seen = 0u64;
    loop {
        let wait_t0 = Instant::now();
        let cmd = sync.wait_for_work(&mut seen);
        par.shared.worker_wait_ns[w]
            .fetch_add(wait_t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let (end_ps, faults_on) = match cmd {
            WinCmd::Exit => return,
            WinCmd::Idle => continue,
            WinCmd::Run { end_ps, faults_on } => (end_ps, faults_on),
        };
        let comp_faults = par.comp_faults();
        let busy_t0 = Instant::now();
        let mut crash = None;
        for p in (w..par.parts.len()).step_by(par.workers) {
            let mut st = par.parts[p].lock();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_partition_window(&mut st, par, comps, &comp_faults, faults_on, fhub, end_ps);
            }));
            if let Err(payload) = result {
                crash = Some(CrashNote {
                    component: st.sched.current,
                    now: st.sched.now,
                    message: panic_message(payload.as_ref()),
                });
                break;
            }
        }
        par.shared.worker_busy_ns[w]
            .fetch_add(busy_t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        sync.window_done(crash);
    }
}

fn run_partition_window(
    st: &mut PartState,
    par: &ParRuntime,
    comps: ShareComps,
    comp_faults: &[Option<CompFaultEntry>],
    faults_on: bool,
    fhub: &FaultHub,
    end_ps: u64,
) {
    let _tls = TlsGuard::install(RelayTls {
        routes: Arc::as_ptr(&par.routes),
        outboxes: &st.outboxes,
        dock: Rc::as_ptr(&st.dock),
        my_part: st.idx,
    });
    while st.sched.queue.peek_time().is_some_and(|t| t.ps() < end_ps) {
        let ev = st.sched.queue.pop().expect("peeked");
        let fault = if faults_on {
            comp_faults
                .get(ev.component.index())
                .and_then(Option::as_ref)
        } else {
            None
        };
        // SAFETY: `ev.component` belongs to this partition, so this worker
        // is the only thread borrowing its RefCell (see `ShareComps`).
        let comp = unsafe { comps.get(ev.component.index()) };
        let ran = execute(&mut st.sched, comp, &ev, fault, fhub, &[]);
        st.log.push((ev, !ran));
    }
}

/// The barrier: exchange outboxes, then merge partition logs in global
/// `(time, seq, partition)` order and commit them through
/// [`Simulation::commit`] plus the hooks, exactly as the serial engine
/// would have, while every worker is parked.
fn barrier_commit(sim: &mut Simulation, par: &ParRuntime) {
    let partitions = par.parts.len();
    let mut logs: Vec<Vec<(Ev, bool)>> = Vec::with_capacity(partitions);
    let mut outs: Vec<Vec<Vec<OutMsg>>> = Vec::with_capacity(partitions);
    for p in 0..partitions {
        let mut st = par.parts[p].lock();
        logs.push(std::mem::take(&mut st.log));
        let fresh: Vec<Vec<OutMsg>> = (0..partitions).map(|_| Vec::new()).collect();
        outs.push(st.outboxes.replace(fresh));
    }

    // Deterministic exchange: destination partitions ascending, and within
    // one destination the sources ascending, each FIFO. Fault verdicts for
    // relayed messages are drawn here (dock insertion), so their stream
    // order is a pure function of the merged schedule.
    for (dst, slot) in par.parts.iter().enumerate() {
        let mut st = slot.lock();
        let dock_comp = par.routes.dock_comp[dst];
        for out in &mut outs {
            for m in out[dst].drain(..) {
                let eff = st.dock.borrow_mut().insert(m.dst, m.arrive, m.msg);
                if let Some(eff) = eff {
                    st.sched.schedule_tick(dock_comp, eff);
                }
            }
        }
    }

    // k-way merge by (time, seq, partition).
    let mut cursors: Vec<usize> = vec![0; partitions];
    loop {
        let mut best: Option<(u64, u64, usize)> = None;
        for (p, log) in logs.iter().enumerate() {
            if let Some((ev, _)) = log.get(cursors[p]) {
                let key = (ev.time.ps(), ev.seq, p);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        let Some((_, _, p)) = best else { break };
        let (ev, frozen) = logs[p][cursors[p]];
        cursors[p] += 1;
        sim.commit(ev.time, ev.component, ev.kind);
        if !frozen && !sim.hooks.is_empty() {
            let comp = sim.components[ev.component.index()].borrow();
            for hook in &sim.hooks {
                hook.borrow_mut().before_event(&ev, &*comp);
            }
            for hook in &sim.hooks {
                hook.borrow_mut().after_event(&ev, &*comp);
            }
        }
    }

    // Lock-free stats for the monitor.
    par.shared.windows.fetch_add(1, Ordering::Relaxed);
    for (p, slot) in par.parts.iter().enumerate() {
        let st = slot.lock();
        par.shared.part_events[p].fetch_add(logs[p].len() as u64, Ordering::Relaxed);
        par.shared.part_queue[p].store(st.sched.queue.len() as u64, Ordering::Relaxed);
        par.shared.part_dock[p].store(st.dock.borrow().pending() as u64, Ordering::Relaxed);
    }
    sim.flush_publish();
}

/// Moves events from the global queue (initial `wake_at`s, plus anything a
/// barrier-served query scheduled) into the owning partitions, preserving
/// global `(time, seq)` order so per-partition sequencing is deterministic.
fn migrate_global_queue(sim: &mut Simulation, par: &ParRuntime) {
    while let Some(ev) = sim.sched.queue.pop() {
        if ev.kind == EventKind::Tick {
            sim.sched.pending_ticks.remove(ev.component, ev.time);
        }
        let p = par.partition_of(ev.component);
        let mut st = par.parts[p].lock();
        match ev.kind {
            EventKind::Tick => st.sched.schedule_tick(ev.component, ev.time),
            EventKind::Custom(code) => {
                let t = ev.time.max(st.sched.now);
                st.sched
                    .queue
                    .push(t, ev.component, EventKind::Custom(code));
            }
        }
    }
}
