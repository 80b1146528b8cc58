//! The engine's event queue.
//!
//! A stable priority queue: events pop in time order, and events scheduled
//! for the same time pop in the order they were scheduled (FIFO tie-break by
//! sequence number). Stability keeps simulations deterministic.
//!
//! # Two lanes
//!
//! Cycle-level workloads schedule the overwhelming majority of events *at
//! the current virtual time* (same-cycle wakes and ticks). A binary heap
//! pays `O(log n)` sift traffic for every one of them, so the queue keeps
//! two lanes:
//!
//! - a **ring lane** ([`VecDeque`]): events pushed at the lane's current
//!   time. Sequence numbers are allocated monotonically, so appending keeps
//!   the ring FIFO-sorted and push/pop are O(1) with no hashing or sifting;
//! - a **heap lane** ([`BinaryHeap`]): events at any other time.
//!
//! [`EventQueue::pop`] takes the global `(time, seq)` minimum of the two
//! lane heads, so the pop order is *bit-identical* to a single stable heap
//! (the `proptests` module proves this differentially against a reference
//! heap). When the ring drains, the next heap pop advances the lane to its
//! time.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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

/// A stable min-priority queue of [`Ev`]s with a same-cycle fast path.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Same-cycle lane: events at `lane_time` pushed while that time was
    /// current. Seqs are monotonic, so the ring is always FIFO-sorted.
    ring: VecDeque<Ev>,
    /// The virtual time the ring lane serves.
    lane_time: VTime,
    /// Future-time (and rare out-of-lane) events.
    heap: BinaryHeap<Reverse<Ev>>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules an event for `component` at `time`.
    #[inline]
    pub fn push(&mut self, time: VTime, component: ComponentId, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = Ev {
            time,
            seq,
            component,
            kind,
        };
        if time == self.lane_time {
            self.ring.push_back(ev);
        } else {
            self.heap.push(Reverse(ev));
        }
    }

    /// Removes and returns the earliest event (smallest `(time, seq)`).
    #[inline]
    pub fn pop(&mut self) -> Option<Ev> {
        let take_heap = match (self.ring.front(), self.heap.peek()) {
            (Some(r), Some(Reverse(h))) => (h.time, h.seq) < (r.time, r.seq),
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (None, None) => return None,
        };
        if take_heap {
            let Reverse(ev) = self.heap.pop().expect("heap checked non-empty");
            if self.ring.is_empty() {
                // Advance the lane: same-time pushes that follow take the
                // O(1) ring path.
                self.lane_time = ev.time;
            }
            Some(ev)
        } else {
            self.ring.pop_front()
        }
    }

    /// The time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<VTime> {
        let ring = self.ring.front().map(|ev| ev.time);
        let heap = self.heap.peek().map(|&Reverse(ev)| ev.time);
        match (ring, heap) {
            (Some(r), Some(h)) => Some(r.min(h)),
            (r, h) => r.or(h),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring.len() + self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty() && self.heap.is_empty()
    }

    /// The components with at least one pending event, in no particular
    /// order (used by the topology analyzer's reachability pass).
    pub fn scheduled_components(&self) -> impl Iterator<Item = ComponentId> + '_ {
        self.ring
            .iter()
            .chain(self.heap.iter().map(|Reverse(ev)| ev))
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
    fn same_time_fifo_survives_lane_advance() {
        // Pushes before and after the lane reaches a time must interleave
        // in seq order: heap-resident events at t pop before ring events
        // pushed at t later.
        let mut q = EventQueue::new();
        let t = VTime::from_ns(2);
        q.push(t, cid(0), EventKind::Tick); // heap (lane at 0)
        q.push(t, cid(1), EventKind::Tick); // heap
        let first = q.pop().unwrap(); // advances lane to t
        assert_eq!(first.component, cid(0));
        q.push(t, cid(2), EventKind::Tick); // ring (lane now t)
                                            // cid(1) is in the heap with a smaller seq than cid(2) in the ring.
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
    fn peek_time_sees_the_ring_lane() {
        let mut q = EventQueue::new();
        q.push(VTime::ZERO, cid(0), EventKind::Tick); // ring lane at t=0
        q.push(VTime::from_ns(5), cid(1), EventKind::Tick); // heap
        assert_eq!(q.peek_time(), Some(VTime::ZERO));
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
    /// The two-level queue must be observationally identical to this.
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

    /// The differential determinism proof: the two-level queue and the
    /// reference heap pop *identical* event sequences — same `(time, seq,
    /// component, kind)` tuples in the same order — under random push/pop
    /// interleavings biased toward the engine's same-cycle pattern.
    #[test]
    fn two_level_queue_matches_reference_heap_exactly() {
        let mut rng = XorShift(0xA076_1D64_78BD_642F);
        for _case in 0..128 {
            let ops = (rng.next() % 499 + 1) as usize;
            let mut q = EventQueue::new();
            let mut r = RefQueue::default();
            // `now` mimics the engine clock: the time of the last pop.
            let mut now = 0u64;
            for _ in 0..ops {
                match rng.next() % 10 {
                    // Same-cycle push — the hot case the ring lane serves.
                    0..=4 => {
                        let c = ComponentId::from_index((rng.next() % 8) as usize);
                        q.push(VTime::from_ps(now), c, EventKind::Tick);
                        r.push(VTime::from_ps(now), c, EventKind::Tick);
                    }
                    // Future push.
                    5..=7 => {
                        let t = now + rng.next() % 50 + 1;
                        let c = ComponentId::from_index((rng.next() % 8) as usize);
                        let k = EventKind::Custom(rng.next() % 4);
                        q.push(VTime::from_ps(t), c, k);
                        r.push(VTime::from_ps(t), c, k);
                    }
                    // Pop from both; results must match field-for-field.
                    _ => {
                        let a = q.pop();
                        let b = r.pop();
                        assert_eq!(a, b, "queues diverged mid-interleaving");
                        if let Some(ev) = a {
                            now = ev.time.ps();
                        }
                    }
                }
            }
            // Drain: the tails must be identical too.
            loop {
                let a = q.pop();
                let b = r.pop();
                assert_eq!(a, b, "queues diverged while draining");
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
