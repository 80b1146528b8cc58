//! The benchmark's own inputs, pinned by digest: the serial and 2-thread
//! MCM matmul and the Fig 4 chain, at the sizes `perfbench` runs (seed 0's
//! matmul placement, 12,000 chain tasks).
//!
//! Each run folds every dispatched event's `(time, seq, component, kind)`
//! into a 64-bit FNV-1a digest and checks it, with the run summary,
//! against values recorded before the event queue became a calendar of
//! per-time FIFO buckets. Any change to the engine's scheduling structures
//! must leave these sequences bit-identical.

use std::cell::Cell;
use std::rc::Rc;

use akita::{Component, Ev, EventKind, Hook, RunSummary, Simulation, StopReason, VTime};
use akita_gpu::{GpuConfig, Platform, PlatformConfig};
use akita_workloads::{MatMul, Workload};
use rtm_bench::chain::build_chain_sim;

/// Folds each dispatched event into a running 64-bit FNV-1a digest: the
/// little-endian bytes of `time`, `seq` and the component index, then a
/// kind tag (`0` = tick, `1` + code = custom). The same encoding as the
/// event-log digests in `crates/akita/tests/engine_integration.rs`.
struct Digest {
    hash: Rc<Cell<u64>>,
    events: Rc<Cell<u64>>,
}

impl Digest {
    fn feed(&self, bytes: &[u8]) {
        let mut h = self.hash.get();
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.hash.set(h);
    }
}

impl Hook for Digest {
    fn before_event(&mut self, ev: &Ev, _component: &dyn Component) {
        self.feed(&ev.time.ps().to_le_bytes());
        self.feed(&ev.seq.to_le_bytes());
        self.feed(&(ev.component.index() as u64).to_le_bytes());
        match ev.kind {
            EventKind::Tick => self.feed(&[0]),
            EventKind::Custom(code) => {
                self.feed(&[1]);
                self.feed(&code.to_le_bytes());
            }
        }
        self.events.set(self.events.get() + 1);
    }
}

/// Runs `sim` to completion with a [`Digest`] hook; returns the digest,
/// the number of events the hook saw and the run summary.
fn run_digested(sim: &mut Simulation) -> (u64, u64, RunSummary) {
    let hash = Rc::new(Cell::new(0xcbf2_9ce4_8422_2325));
    let events = Rc::new(Cell::new(0));
    sim.add_hook(Digest {
        hash: Rc::clone(&hash),
        events: Rc::clone(&events),
    });
    let summary = sim.run();
    (hash.get(), events.get(), summary)
}

/// The machine `rtm-sim run --chiplets 4` builds, running the 128³ matmul
/// `perfbench --workload mcm_matmul` times; on the windowed engine with
/// `threads` workers when given.
fn mcm_matmul(threads: Option<usize>) -> Platform {
    let mut platform = Platform::build(PlatformConfig::mcm(GpuConfig::default()));
    MatMul {
        m: 128,
        n: 128,
        k: 128,
    }
    .enqueue(&mut platform.driver.borrow_mut());
    platform.start();
    if let Some(threads) = threads {
        platform
            .enable_parallel(threads)
            .expect("the MCM platform partitions");
    }
    platform
}

fn check(sim: &mut Simulation, events: u64, end_ps: u64, digest: u64) {
    let (got, seen, summary) = run_digested(sim);
    assert_eq!(
        summary,
        RunSummary {
            events,
            end_time: VTime::from_ps(end_ps),
            reason: StopReason::Completed,
        }
    );
    assert_eq!(seen, events, "every event reaches the hook");
    assert_eq!(got, digest, "event sequence changed");
}

#[test]
fn serial_mcm_matmul_dispatches_the_pinned_event_sequence() {
    let mut platform = mcm_matmul(None);
    check(
        &mut platform.sim,
        489_634,
        27_363_000,
        0x434f_66dd_5a1c_7413,
    );
    assert!(platform.driver.borrow().finished());
}

#[test]
fn two_thread_mcm_matmul_commits_the_pinned_event_sequence() {
    let mut platform = mcm_matmul(Some(2));
    check(
        &mut platform.sim,
        298_390,
        17_749_000,
        0x3e3e_48f6_7904_0ea6,
    );
    assert!(platform.driver.borrow().finished());
}

#[test]
fn fig4_chain_dispatches_the_pinned_event_sequence() {
    let mut sim = build_chain_sim(12_000);
    check(&mut sim, 347_582, 84_019_000, 0x0110_ba10_735b_1deb);
}
