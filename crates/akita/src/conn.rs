//! Connections: the wires between ports.
//!
//! A connection is itself a ticking [`Component`]: messages accepted from a
//! source port sit in a per-destination link queue until their arrival time,
//! then move into the destination port's bounded buffer. Full buffers stall
//! the link head-of-line (backpressure); the destination port wakes the
//! connection when space frees, and the connection wakes blocked senders
//! when link space frees. This is the mechanism that turns hardware
//! bottlenecks into observable buffer fullness (paper Fig 4) and lets
//! deadlocks quiesce the simulation instead of spinning.

use std::collections::{BTreeMap, VecDeque};

use crate::component::{CompBase, Component};
use crate::engine::Ctx;
use crate::faults::MsgVerdict;
use crate::ids::{ComponentId, PortId};
use crate::msg::Msg;
use crate::port::Port;
use crate::state::ComponentState;
use crate::time::VTime;
use crate::trace;

/// Why a send was not accepted.
#[derive(Debug)]
pub enum SendError {
    /// The link toward the destination is full; the message is handed back
    /// and the sender will be woken when space frees up.
    Busy(Box<dyn Msg>),
    /// The destination port was never attached to this connection — a
    /// wiring bug, not a runtime condition. The static lint pass
    /// ([`crate::analysis`]) flags the topologies that can produce this
    /// before the first message is ever sent.
    NotAttached {
        /// Name of the connection the send went through.
        connection: String,
        /// The destination port that is not an endpoint of it.
        dst: PortId,
        /// The undeliverable message.
        msg: Box<dyn Msg>,
    },
}

/// One wait dependency observed inside a connection at runtime, used by the
/// deadlock analyzer ([`crate::analysis`]) to build the wait-for graph.
#[derive(Debug, Clone)]
pub struct LinkWait {
    /// The destination port of this link.
    pub dst_port: PortId,
    /// Messages currently queued on the link.
    pub queued: usize,
    /// Link queue capacity.
    pub cap: usize,
    /// Whether the head-of-line delivery is stalled on a full destination
    /// buffer.
    pub stalled: bool,
    /// Components whose sends were rejected and who wait for link space.
    pub blocked_senders: Vec<ComponentId>,
}

/// A wire between ports. Implemented by [`DirectConnection`] and by custom
/// fabrics such as the GPU crate's chiplet switch.
pub trait Connection: Component {
    /// Attaches `port` as an endpoint of this connection.
    fn attach(&mut self, port: &Port);

    /// Accepts `msg` for transport toward `msg.meta().dst`.
    ///
    /// # Errors
    ///
    /// [`SendError::Busy`] when the link's queue is full (the message is
    /// returned to the caller), [`SendError::NotAttached`] when the
    /// destination port is not an endpoint of this connection.
    fn push_msg(&mut self, ctx: &mut Ctx, msg: Box<dyn Msg>) -> Result<(), SendError>;

    /// The ports attached to this connection, for topology analysis.
    fn endpoints(&self) -> Vec<PortId> {
        Vec::new()
    }

    /// The current wait dependencies of every link, for the runtime
    /// deadlock analyzer. The default (no links reported) keeps custom
    /// fabrics compiling; implementing it makes them analyzable.
    fn link_waits(&self) -> Vec<LinkWait> {
        Vec::new()
    }

    /// The minimum latency this connection adds to every message, for the
    /// parallel engine's conservative lookahead. A connection that spans
    /// partitions is *relayed*: sends through it are intercepted and
    /// delivered after exactly this latency, so the value must be a hard
    /// lower bound on [`Connection::push_msg`] transport time. `None`
    /// (the default) marks the connection as non-relayable; the parallel
    /// setup rejects partitionings that would make it span.
    fn relay_latency(&self) -> Option<VTime> {
        None
    }

    /// Handles to the ports attached to this connection, so the parallel
    /// engine's relay can deliver into destination buffers directly.
    /// Required (non-empty) for any connection that spans partitions.
    fn endpoint_ports(&self) -> Vec<Port> {
        Vec::new()
    }
}

struct InFlight {
    arrive: VTime,
    msg: Box<dyn Msg>,
}

/// One destination port's in-flight queue: fault verdicts, arrival-ordered
/// queueing and head-of-line delivery. [`DirectConnection`] keeps one per
/// attached port; the parallel engine's docks keep one per relayed port.
pub(crate) struct Link {
    port: Port,
    queue: VecDeque<InFlight>,
    cap: usize,
    /// Time the (bandwidth-limited) wire toward this port frees up.
    next_free: VTime,
    /// Components whose send was rejected; woken on delivery progress.
    blocked_senders: Vec<ComponentId>,
}

impl Link {
    pub(crate) fn new(port: Port, cap: usize) -> Link {
        Link {
            port,
            queue: VecDeque::new(),
            cap,
            next_free: VTime::ZERO,
            blocked_senders: Vec::new(),
        }
    }

    /// Messages queued on the link.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    /// Draws the destination port's fault verdict for one message.
    #[inline]
    pub(crate) fn verdict(&self) -> MsgVerdict {
        let site = self.port.fault_site();
        if site.armed() {
            site.msg_verdict()
        } else {
            MsgVerdict::Pass
        }
    }

    /// Queues `msg` to arrive at `arrive`, applying a delay, reorder or
    /// duplicate `verdict` (a drop is the caller's to handle). Returns the
    /// arrival time after any delay.
    #[inline]
    pub(crate) fn enqueue(
        &mut self,
        verdict: MsgVerdict,
        mut arrive: VTime,
        msg: Box<dyn Msg>,
    ) -> VTime {
        if let MsgVerdict::Delay(extra_ps) = verdict {
            arrive += VTime::from_ps(extra_ps);
        }
        let duplicate = if verdict == MsgVerdict::Duplicate {
            // Messages that do not opt into clone_msg pass through intact.
            msg.clone_msg()
        } else {
            None
        };
        if verdict == MsgVerdict::Reorder && !self.queue.is_empty() {
            // Jump the queue: this message swaps position — and arrival
            // time, keeping per-link delivery times monotonic — with the
            // previously queued one.
            let idx = self.queue.len() - 1;
            let prev_arrive = self.queue[idx].arrive;
            self.queue[idx].arrive = arrive;
            self.queue.insert(
                idx,
                InFlight {
                    arrive: prev_arrive,
                    msg,
                },
            );
        } else {
            self.queue.push_back(InFlight { arrive, msg });
        }
        if let Some(copy) = duplicate {
            if self.queue.len() < self.cap {
                self.queue.push_back(InFlight { arrive, msg: copy });
            }
        }
        arrive
    }

    /// Delivers every message that has arrived by now, in order, stalling
    /// head-of-line on a full destination buffer (the port wakes the
    /// delivering component when space frees). Records each hop's
    /// `Transit` span under `site`, wakes blocked senders on progress, and
    /// folds the next pending arrival into `next`. Returns the number of
    /// messages delivered.
    #[inline]
    pub(crate) fn deliver_due(
        &mut self,
        ctx: &mut Ctx,
        site: trace::SiteId,
        next: &mut Option<VTime>,
    ) -> u64 {
        let now = ctx.now();
        let mut delivered = 0;
        while let Some(head) = self.queue.front() {
            if head.arrive > now {
                *next = Some(next.map_or(head.arrive, |t| t.min(head.arrive)));
                break;
            }
            let msg = self.queue.pop_front().expect("front checked").msg;
            // Captured before `deliver` consumes the message; recorded
            // only on successful delivery.
            let hop = trace::is_enabled().then(|| {
                let meta = msg.meta();
                (meta.task, meta.task_kind, meta.send_time)
            });
            match self.port.deliver(ctx, msg) {
                Ok(()) => {
                    delivered += 1;
                    if let Some((task, kind, sent)) = hop {
                        trace::complete(task, site, kind, trace::Phase::Transit, sent, now);
                    }
                }
                Err(msg) => {
                    self.queue.push_front(InFlight { arrive: now, msg });
                    break;
                }
            }
        }
        if delivered > 0 {
            for sender in self.blocked_senders.drain(..) {
                ctx.wake(sender);
            }
        }
        delivered
    }
}

/// A point-to-point connection group with fixed latency and optional
/// per-link bandwidth.
///
/// All attached ports can exchange messages with each other; each
/// destination port has its own in-flight queue (a *link*).
pub struct DirectConnection {
    base: CompBase,
    site: trace::SiteId,
    latency: VTime,
    /// Bytes per second per link; `None` models an unlimited-bandwidth wire.
    bandwidth: Option<u64>,
    link_cap: usize,
    // BTreeMap: links drain in a deterministic order, keeping whole
    // simulations reproducible run-to-run.
    links: BTreeMap<PortId, Link>,
    delivered: u64,
    rejected: u64,
}

impl DirectConnection {
    /// Default number of in-flight messages a link can hold.
    pub const DEFAULT_LINK_CAP: usize = 8;

    /// Creates a connection with the given transport `latency`.
    pub fn new(name: impl Into<String>, latency: VTime) -> Self {
        let base = CompBase::new("DirectConnection", name);
        DirectConnection {
            site: trace::site(&base.name),
            base,
            latency,
            bandwidth: None,
            link_cap: Self::DEFAULT_LINK_CAP,
            links: BTreeMap::new(),
            delivered: 0,
            rejected: 0,
        }
    }

    /// Limits each link to `bytes_per_sec`, modeling serialization delay.
    pub fn with_bandwidth(mut self, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        self.bandwidth = Some(bytes_per_sec);
        self
    }

    /// Sets how many in-flight messages each link can hold.
    pub fn with_link_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "link capacity must be positive");
        self.link_cap = cap;
        self
    }

    /// Total messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total sends rejected with busy so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    fn arrival_time(&mut self, now: VTime, dst: PortId, bytes: u32) -> VTime {
        let min_latency = self.base.freq.period();
        let latency = if self.latency > min_latency {
            self.latency
        } else {
            min_latency
        };
        match self.bandwidth {
            None => now + latency,
            Some(bw) => {
                let link = self.links.get_mut(&dst).expect("link checked by caller");
                let ser_ps = (bytes as u64).saturating_mul(crate::time::PS_PER_SEC) / bw;
                let start = link.next_free.max(now);
                let tx_end = start + VTime::from_ps(ser_ps);
                link.next_free = tx_end;
                tx_end + latency
            }
        }
    }
}

impl Component for DirectConnection {
    fn base(&self) -> &CompBase {
        &self.base
    }

    fn base_mut(&mut self) -> &mut CompBase {
        &mut self.base
    }

    fn tick(&mut self, ctx: &mut Ctx) -> bool {
        let mut delivered = 0;
        let mut next_arrival: Option<VTime> = None;
        for link in self.links.values_mut() {
            delivered += link.deliver_due(ctx, self.site, &mut next_arrival);
        }
        self.delivered += delivered;
        if let Some(t) = next_arrival {
            let id = self.base.id;
            ctx.schedule_tick(id, t);
        }
        delivered > 0
    }

    fn state(&self) -> ComponentState {
        let in_flight: usize = self.links.values().map(|l| l.queue.len()).sum();
        let blocked: usize = self.links.values().map(|l| l.blocked_senders.len()).sum();
        ComponentState::new()
            .field("latency", self.latency)
            .field("links", self.links.len())
            .container(
                "in_flight",
                in_flight,
                Some(self.link_cap * self.links.len().max(1)),
            )
            .field("blocked_senders", blocked)
            .field("delivered", self.delivered)
            .field("rejected", self.rejected)
    }
}

impl Connection for DirectConnection {
    fn attach(&mut self, port: &Port) {
        self.links
            .insert(port.id(), Link::new(port.clone(), self.link_cap));
    }

    fn push_msg(&mut self, ctx: &mut Ctx, mut msg: Box<dyn Msg>) -> Result<(), SendError> {
        let dst = msg.meta().dst;
        let now = ctx.now();
        let verdict = {
            let Some(link) = self.links.get_mut(&dst) else {
                return Err(SendError::NotAttached {
                    connection: self.base.name.clone(),
                    dst,
                    msg,
                });
            };
            if link.queue.len() >= link.cap {
                self.rejected += 1;
                link.blocked_senders.push(ctx.current());
                return Err(SendError::Busy(msg));
            }
            link.verdict()
        };
        if verdict == MsgVerdict::Drop {
            // Consumed before entering the wire: the sender believes the
            // send succeeded, the destination never hears about it.
            return Ok(());
        }
        // Stamped before `enqueue` so a duplicate carries it too.
        msg.meta_mut().send_time = now;
        let arrive = self.arrival_time(now, dst, msg.meta().traffic_bytes);
        let link = self.links.get_mut(&dst).expect("checked above");
        let arrive = link.enqueue(verdict, arrive, msg);
        let id = self.base.id;
        ctx.schedule_tick(id, arrive);
        Ok(())
    }

    fn endpoints(&self) -> Vec<PortId> {
        self.links.keys().copied().collect()
    }

    fn relay_latency(&self) -> Option<VTime> {
        // Mirrors `arrival_time`'s floor: never less than one cycle.
        Some(self.latency.max(self.base.freq.period()))
    }

    fn endpoint_ports(&self) -> Vec<Port> {
        self.links.values().map(|l| l.port.clone()).collect()
    }

    fn link_waits(&self) -> Vec<LinkWait> {
        self.links
            .iter()
            .map(|(dst, link)| LinkWait {
                dst_port: *dst,
                queued: link.queue.len(),
                cap: link.cap,
                stalled: !link.queue.is_empty() && !link.port.can_accept(),
                blocked_senders: link.blocked_senders.clone(),
            })
            .collect()
    }
}

impl std::fmt::Debug for DirectConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DirectConnection({} {} links, latency {})",
            self.base.name,
            self.links.len(),
            self.latency
        )
    }
}
