//! The engine's event queue.
//!
//! A stable priority queue: events pop in time order, and events scheduled
//! for the same time pop in the order they were scheduled (FIFO tie-break by
//! sequence number). Stability keeps simulations deterministic.
//!
//! # One FIFO bucket per pending time
//!
//! The queue is a calendar: every distinct pending time owns one FIFO
//! bucket, and a bucket keeps its events in push order. Sequence numbers
//! are assigned at push and only grow, so a bucket is always sorted by
//! `seq`, and draining the buckets in time order pops exactly the stable
//! `(time, seq)` order of a single binary heap. The `proptests` module
//! proves this differentially against a reference heap.
//!
//! - The **current bucket** ([`VecDeque`]) holds the earliest pending time.
//!   Pushes at that time append, and pops take its front: O(1), no sift.
//! - **Later buckets** live in a [`BTreeMap`] keyed by time. A push at a
//!   later time appends to that time's bucket, so the ordered map is
//!   searched once per push, over the distinct pending times rather than
//!   over the pending events. When the current bucket drains, the earliest
//!   later bucket takes its place. A push into an empty current bucket
//!   that precedes every later bucket simply becomes the current time.
//! - Emptied buckets are kept and reused, so a steady simulation stops
//!   allocating once it has seen its widest spread of pending times.
//!
//! The traffic this serves, counted on the serial 4-chiplet MCM matmul
//! (128³, 489,634 events): 71% of accepted tick schedules are for a later
//! time, not the current one (66% on the Fig 4 chain). At each of them
//! about 150 events are pending, spread over about 124 distinct later
//! times, so most buckets hold one or two events. A binary heap sifts each
//! push and each pop through `O(log n)` levels of 40-byte events, comparing
//! `(time, seq)` pairs; here a later push is one ordered-map search on
//! 8-byte keys that moves no event, and a pop is a `VecDeque` front pop,
//! plus a `pop_first` of the map when the current bucket drains.
//!
//! A push earlier than the current bucket (nothing in the engine does
//! this, since it clamps to `now`, but the queue is public) demotes the
//! current bucket into the map and opens a new one.

use std::collections::{BTreeMap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::ids::ComponentId;
use crate::time::VTime;

/// What a scheduled event asks a component to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// Run one tick of the component's state machine.
    Tick,
    /// Deliver a component-defined event code to
    /// [`Component::handle_custom`](crate::Component::handle_custom).
    Custom(u64),
}

/// A scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ev {
    /// When the event fires.
    pub time: VTime,
    /// FIFO tie-breaker among same-time events.
    pub seq: u64,
    /// The component the event is addressed to.
    pub component: ComponentId,
    /// What to do.
    pub kind: EventKind,
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A stable min-priority queue of [`Ev`]s: one FIFO bucket per pending
/// time.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Events at `cur_time`, in push (= `seq`) order.
    cur: VecDeque<Ev>,
    /// The time the current bucket serves. Every key of `later` is
    /// strictly greater.
    cur_time: VTime,
    /// One non-empty bucket per later pending time.
    later: BTreeMap<VTime, VecDeque<Ev>>,
    /// Emptied buckets, kept for reuse.
    spare: Vec<VecDeque<Ev>>,
    len: usize,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue. Allocates nothing until the first push.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules an event for `component` at `time`.
    #[inline]
    pub fn push(&mut self, time: VTime, component: ComponentId, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let ev = Ev {
            time,
            seq,
            component,
            kind,
        };
        if time != self.cur_time {
            if time < self.cur_time {
                self.demote_current();
            } else if !self.cur.is_empty()
                || self
                    .later
                    .first_key_value()
                    .is_some_and(|(&k, _)| k <= time)
            {
                let spare = &mut self.spare;
                self.later
                    .entry(time)
                    .or_insert_with(|| spare.pop().unwrap_or_default())
                    .push_back(ev);
                return;
            }
            // The current bucket is empty and `time` precedes every later
            // bucket: it becomes the current time.
            self.cur_time = time;
        }
        self.cur.push_back(ev);
    }

    /// Moves a non-empty current bucket into `later`, making room for a
    /// push earlier than `cur_time`.
    #[cold]
    fn demote_current(&mut self) {
        if !self.cur.is_empty() {
            let fresh = self.spare.pop().unwrap_or_default();
            let old = std::mem::replace(&mut self.cur, fresh);
            self.later.insert(self.cur_time, old);
        }
    }

    /// Removes and returns the earliest event (smallest `(time, seq)`).
    #[inline]
    pub fn pop(&mut self) -> Option<Ev> {
        if self.cur.is_empty() {
            let (time, bucket) = self.later.pop_first()?;
            let drained = std::mem::replace(&mut self.cur, bucket);
            self.spare.push(drained);
            self.cur_time = time;
        }
        self.len -= 1;
        self.cur.pop_front()
    }

    /// The time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<VTime> {
        if self.cur.is_empty() {
            self.later.first_key_value().map(|(&t, _)| t)
        } else {
            Some(self.cur_time)
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The components with at least one pending event, in no particular
    /// order (used by the topology analyzer's reachability pass).
    pub fn scheduled_components(&self) -> impl Iterator<Item = ComponentId> + '_ {
        self.cur
            .iter()
            .chain(self.later.values().flatten())
            .map(|ev| ev.component)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(i: usize) -> ComponentId {
        ComponentId::from_index(i)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(VTime::from_ns(3), cid(0), EventKind::Tick);
        q.push(VTime::from_ns(1), cid(1), EventKind::Tick);
        q.push(VTime::from_ns(2), cid(2), EventKind::Tick);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.ps())
            .collect();
        assert_eq!(order, [1_000, 2_000, 3_000]);
    }

    #[test]
    fn same_time_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = VTime::from_ns(1);
        for i in 0..10 {
            q.push(t, cid(i), EventKind::Tick);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| e.component.index())
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn same_time_fifo_survives_bucket_advance() {
        // Pushes before and after a later bucket becomes current must
        // interleave in seq order.
        let mut q = EventQueue::new();
        let t = VTime::from_ns(2);
        q.push(VTime::from_ns(1), cid(9), EventKind::Tick); // current bucket
        q.push(t, cid(0), EventKind::Tick); // later bucket at t
        q.push(t, cid(1), EventKind::Tick);
        assert_eq!(q.pop().unwrap().component, cid(9));
        // The bucket at t becomes current.
        assert_eq!(q.pop().unwrap().component, cid(0));
        q.push(t, cid(2), EventKind::Tick); // appends behind cid(1)
        assert_eq!(q.pop().unwrap().component, cid(1));
        assert_eq!(q.pop().unwrap().component, cid(2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_is_min() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(VTime::from_ns(5), cid(0), EventKind::Tick);
        q.push(VTime::from_ns(2), cid(0), EventKind::Custom(7));
        assert_eq!(q.peek_time(), Some(VTime::from_ns(2)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn peek_time_sees_the_current_bucket() {
        let mut q = EventQueue::new();
        q.push(VTime::ZERO, cid(0), EventKind::Tick); // current bucket
        q.push(VTime::from_ns(5), cid(1), EventKind::Tick); // later bucket
        assert_eq!(q.peek_time(), Some(VTime::ZERO));
        q.pop();
        assert_eq!(q.peek_time(), Some(VTime::from_ns(5)));
    }

    #[test]
    fn a_push_before_the_current_bucket_pops_first() {
        let mut q = EventQueue::new();
        q.push(VTime::from_ns(5), cid(0), EventKind::Tick);
        q.push(VTime::from_ns(5), cid(1), EventKind::Tick);
        q.push(VTime::from_ns(7), cid(2), EventKind::Tick);
        assert_eq!(q.pop().unwrap().component, cid(0));
        // Earlier than the current time: the bucket at 5 is demoted.
        q.push(VTime::from_ns(3), cid(3), EventKind::Tick);
        assert_eq!(q.peek_time(), Some(VTime::from_ns(3)));
        assert_eq!(q.len(), 3);
        let order: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.ps(), e.component.index()))
            .collect();
        assert_eq!(order, [(3_000, 3), (5_000, 1), (7_000, 2)]);
        assert!(q.is_empty());
    }

    #[test]
    fn new_allocates_nothing_and_emptied_buckets_are_reused() {
        let mut q = EventQueue::new();
        assert_eq!(q.cur.capacity(), 0);
        assert_eq!(q.spare.capacity(), 0);
        assert!(q.later.is_empty());
        for t in 1..=4 {
            q.push(VTime::from_ns(t), cid(0), EventKind::Tick);
        }
        while q.pop().is_some() {}
        // Three buckets were promoted, so three drained ones were kept.
        assert_eq!(q.spare.len(), 3);
        q.push(VTime::from_ns(9), cid(0), EventKind::Tick); // current
        q.push(VTime::from_ns(10), cid(0), EventKind::Tick); // reuses one
        assert_eq!(q.spare.len(), 2);
        assert!(q.later[&VTime::from_ns(10)].capacity() > 0);
    }

    #[test]
    fn custom_events_carry_codes() {
        let mut q = EventQueue::new();
        q.push(VTime::ZERO, cid(0), EventKind::Custom(42));
        assert_eq!(q.pop().unwrap().kind, EventKind::Custom(42));
    }
}

#[cfg(test)]
mod proptests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::*;

    /// Deterministic xorshift64* generator so the randomized coverage below
    /// needs no external crates and reproduces exactly across runs.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    /// The reference queue: a single stable binary heap.
    /// The bucket queue must be observationally identical to this.
    #[derive(Default)]
    struct RefQueue {
        heap: BinaryHeap<Reverse<Ev>>,
        next_seq: u64,
    }

    impl RefQueue {
        fn push(&mut self, time: VTime, component: ComponentId, kind: EventKind) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Reverse(Ev {
                time,
                seq,
                component,
                kind,
            }));
        }

        fn pop(&mut self) -> Option<Ev> {
            self.heap.pop().map(|Reverse(ev)| ev)
        }

        fn peek_time(&self) -> Option<VTime> {
            self.heap.peek().map(|Reverse(ev)| ev.time)
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

    /// Events always pop sorted by (time, insertion order).
    #[test]
    fn queue_is_a_stable_priority_queue() {
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        for _case in 0..64 {
            let len = (rng.next() % 199 + 1) as usize;
            let times: Vec<u64> = (0..len).map(|_| rng.next() % 100).collect();
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(
                    VTime::from_ps(t),
                    ComponentId::from_index(i),
                    EventKind::Tick,
                );
            }
            let mut expected: Vec<(u64, usize)> =
                times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
            expected.sort_unstable();
            let got: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop())
                .map(|e| (e.time.ps(), e.component.index()))
                .collect();
            assert_eq!(got, expected);
        }
    }

    /// Interleaved pushes and pops never yield an event earlier than one
    /// already popped.
    #[test]
    fn pop_is_monotonic_when_pushing_future_events() {
        let mut rng = XorShift(0xD1B5_4A32_D192_ED03);
        for _case in 0..64 {
            let ops = (rng.next() % 199 + 1) as usize;
            let mut q = EventQueue::new();
            let mut last = 0u64;
            for _ in 0..ops {
                let dt = rng.next() % 1000;
                let do_pop = rng.next().is_multiple_of(2);
                q.push(
                    VTime::from_ps(last + dt),
                    ComponentId::from_index(0),
                    EventKind::Tick,
                );
                if do_pop {
                    if let Some(ev) = q.pop() {
                        assert!(ev.time.ps() >= last);
                        last = ev.time.ps();
                    }
                }
            }
        }
    }

    /// The differential determinism proof: the bucket queue and the
    /// reference heap pop *identical* event sequences — same `(time, seq,
    /// component, kind)` tuples in the same order — and agree on
    /// `peek_time` and `len` after every operation, under random push/pop
    /// interleavings shaped like the engine's traffic on the MCM matmul:
    /// hundreds of pending events spread over dozens of distinct times,
    /// most pushes for a later time, some for the current one, and a few
    /// earlier than the current bucket.
    #[test]
    fn bucket_queue_matches_reference_heap_exactly() {
        let mut rng = XorShift(0xA076_1D64_78BD_642F);
        for case in 0..96 {
            let mut q = EventQueue::new();
            let mut r = RefQueue::default();
            // Small cases keep the queue near empty, where buckets are
            // opened and drained constantly; large ones hold hundreds.
            let target = if case % 4 == 0 {
                (rng.next() % 8 + 1) as usize
            } else {
                (rng.next() % 500 + 100) as usize
            };
            // The clock period; later pushes land on multiples of it, up to
            // `horizon` periods ahead, so dozens of times are pending.
            let period = [500u64, 1000, 1250][(rng.next() % 3) as usize];
            let horizon = rng.next() % 60 + 2;
            // `now` mimics the engine clock: the time of the last pop.
            let mut now = 0u64;
            let ops = 4 * target + 200;
            for _ in 0..ops {
                let pop = r.len() >= target && rng.next().is_multiple_of(2);
                let c = ComponentId::from_index((rng.next() % 64) as usize);
                let time = match rng.next() % 16 {
                    _ if pop => None,
                    // Same-cycle push: the current bucket.
                    0..=3 => Some(now),
                    // Later push, on a clock edge or (rarely) off one.
                    4..=13 => Some(now + period * (rng.next() % horizon + 1)),
                    14 => Some(now + rng.next() % (period * horizon) + 1),
                    // Earlier than the current bucket.
                    _ => Some(now.saturating_sub(rng.next() % (3 * period) + 1)),
                };
                match time {
                    Some(t) => {
                        let kind = if rng.next().is_multiple_of(4) {
                            EventKind::Custom(rng.next() % 4)
                        } else {
                            EventKind::Tick
                        };
                        q.push(VTime::from_ps(t), c, kind);
                        r.push(VTime::from_ps(t), c, kind);
                    }
                    None => {
                        let a = q.pop();
                        assert_eq!(a, r.pop(), "case {case}: queues diverged mid-interleaving");
                        if let Some(ev) = a {
                            now = ev.time.ps();
                        }
                    }
                }
                assert_eq!(q.peek_time(), r.peek_time(), "case {case}: peek_time");
                assert_eq!(q.len(), r.len(), "case {case}: len");
            }
            // Drain: the tails must be identical too.
            loop {
                let a = q.pop();
                assert_eq!(a, r.pop(), "case {case}: queues diverged while draining");
                assert_eq!(q.peek_time(), r.peek_time(), "case {case}: peek_time");
                assert_eq!(q.len(), r.len(), "case {case}: len");
                if a.is_none() {
                    break;
                }
            }
            assert!(q.is_empty());
        }
    }
}
