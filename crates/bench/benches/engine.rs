//! Benches for the DES engine: raw event throughput, tick scheduling, and
//! the round trip of a monitor query against a busy engine.

use rtm_bench::micro::bench;

use akita::{CompBase, Component, Ctx, Simulation, VTime};

/// A component that ticks for a fixed number of cycles doing trivial work.
struct Spinner {
    base: CompBase,
    remaining: u64,
    acc: u64,
}

impl Component for Spinner {
    fn base(&self) -> &CompBase {
        &self.base
    }
    fn base_mut(&mut self) -> &mut CompBase {
        &mut self.base
    }
    fn tick(&mut self, _ctx: &mut Ctx) -> bool {
        self.acc = self.acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        self.remaining -= 1;
        self.remaining > 0
    }
}

fn build_spinners(n_components: usize, ticks_each: u64) -> Simulation {
    let mut sim = Simulation::new();
    for i in 0..n_components {
        let (id, _) = sim.register(Spinner {
            base: CompBase::new("Spinner", format!("S{i}")),
            remaining: ticks_each,
            acc: i as u64,
        });
        sim.wake_at(id, VTime::ZERO);
    }
    sim
}

fn bench_event_throughput() {
    for &n in &[1usize, 16, 256] {
        bench(&format!("engine/event_throughput/components/{n}"), || {
            let mut sim = build_spinners(n, 10_000 / n as u64);
            sim.run()
        });
    }
}

/// Cost of the monitor answering a status query while the engine runs:
/// measures the end-to-end request round-trip against a busy engine.
fn bench_status_query_latency() {
    // The simulation is !Send: build it on its own thread and hand the
    // (Send) query client back.
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let mut sim = build_spinners(4, u64::MAX / 2);
        tx.send(sim.client()).expect("hand client back");
        sim.run();
    });
    let client = rx.recv().expect("client");
    // Wait for the engine to start.
    while client.events_handled() == 0 {
        std::hint::spin_loop();
    }
    bench("engine/status_query_round_trip", || {
        client.status().expect("status")
    });
    client.request_stop();
    let _ = handle.join();
}

fn main() {
    bench_event_throughput();
    bench_status_query_latency();
}
