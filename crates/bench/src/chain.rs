//! The Figure 4 pipeline chain as a reusable workload.
//!
//! A four-stage chain `Source → A → B → C → D` where C is
//! throughput-limited, shared by the `fig4_chain` figure binary (buffer
//! fullness identifies the bottleneck) and the `perfbench` `chain`
//! workload (a backpressured, message-passing event stream — the engine
//! hot path's worst case: mixed same-cycle and future-time events).

use akita::{
    impl_msg, CompBase, Component, ComponentState, Ctx, DirectConnection, Msg, MsgMeta, Port,
    PortId, Simulation, VTime,
};

#[derive(Debug)]
struct Task {
    meta: MsgMeta,
}
impl_msg!(Task);

/// A stage that forwards tasks to the next stage at a configurable rate
/// (one task per `period` cycles).
struct Stage {
    base: CompBase,
    inp: Port,
    out: Option<Port>,
    next: Option<PortId>,
    period: u32,
    phase: u32,
    processed: u64,
    holding: Option<Box<dyn Msg>>,
    /// Peak fill level observed on the input buffer.
    peak_input: usize,
}

impl Stage {
    fn new(sim: &Simulation, name: &str, period: u32, has_out: bool) -> Self {
        let reg = sim.buffer_registry();
        Stage {
            base: CompBase::new("Stage", name),
            inp: Port::new(&reg, format!("{name}.In"), 8),
            out: has_out.then(|| Port::new(&reg, format!("{name}.Out"), 2)),
            next: None,
            period,
            phase: 0,
            processed: 0,
            holding: None,
            peak_input: 0,
        }
    }
}

impl Component for Stage {
    fn base(&self) -> &CompBase {
        &self.base
    }
    fn base_mut(&mut self) -> &mut CompBase {
        &mut self.base
    }

    fn tick(&mut self, ctx: &mut Ctx) -> bool {
        self.peak_input = self.peak_input.max(self.inp.incoming_len());
        let mut progress = false;
        // Retry a blocked forward first.
        if let (Some(msg), Some(out)) = (self.holding.take(), self.out.clone()) {
            match out.send(ctx, msg) {
                Ok(()) => progress = true,
                Err(msg) => {
                    self.holding = Some(msg);
                    return false;
                }
            }
        }
        self.phase += 1;
        if self.phase < self.period {
            return self.inp.has_incoming();
        }
        self.phase = 0;
        if let Some(msg) = self.inp.retrieve(ctx) {
            self.processed += 1;
            progress = true;
            if let (Some(out), Some(next)) = (self.out.clone(), self.next) {
                let mut task = msg;
                task.meta_mut().dst = next;
                if let Err(m) = out.send(ctx, task) {
                    self.holding = Some(m);
                }
            }
        }
        progress
    }

    fn state(&self) -> ComponentState {
        ComponentState::new()
            .field("processed", self.processed)
            .field("period", self.period)
            .container("input", self.inp.incoming_len(), Some(8))
    }
}

struct Source {
    base: CompBase,
    out: Port,
    dst: PortId,
    remaining: u64,
    period: u32,
    phase: u32,
}

impl Component for Source {
    fn base(&self) -> &CompBase {
        &self.base
    }
    fn base_mut(&mut self) -> &mut CompBase {
        &mut self.base
    }
    fn tick(&mut self, ctx: &mut Ctx) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.phase += 1;
        if self.phase < self.period {
            return true;
        }
        self.phase = 0;
        let task = Box::new(Task {
            meta: MsgMeta::new(self.out.id(), self.dst, 16),
        });
        match self.out.send(ctx, task) {
            Ok(()) => {
                self.remaining -= 1;
                true
            }
            Err(_) => false,
        }
    }
}

/// Builds the Fig 4 chain simulation, ready to run: `tasks` tasks flow
/// `Source → A(1 cy/task) → B(2) → C(8, slow) → D(1)`. The source emits
/// one task every 3 cycles — faster than C but slower than A and B, so
/// only C accumulates.
#[must_use]
pub fn build_chain_sim(tasks: u64) -> Simulation {
    let mut sim = Simulation::new();

    // Service periods: A and B fast, C slow (the bottleneck), D fast.
    let periods = [("A", 1u32), ("B", 2), ("C", 8), ("D", 1)];
    let mut stages: Vec<Stage> = periods
        .iter()
        .map(|(name, period)| Stage::new(&sim, name, *period, *name != "D"))
        .collect();
    // Chain the destinations: A→B, B→C, C→D.
    for i in 0..3 {
        let next = stages[i + 1].inp.id();
        stages[i].next = Some(next);
    }
    let a_in = stages[0].inp.id();
    let source = Source {
        base: CompBase::new("Source", "Source"),
        out: Port::new(&sim.buffer_registry(), "Source.Out", 2),
        dst: a_in,
        remaining: tasks,
        period: 3,
        phase: 0,
    };

    let (_, conn) = sim.register(DirectConnection::new("Chain", VTime::from_ps(1_000)));
    let src_out = source.out.clone();
    let (src_id, _src) = sim.register(source);
    sim.connect(&conn, &src_out, src_id);
    for stage in stages {
        let inp = stage.inp.clone();
        let out = stage.out.clone();
        let (id, _rc) = sim.register(stage);
        sim.connect(&conn, &inp, id);
        if let Some(out) = out {
            sim.connect(&conn, &out, id);
        }
    }
    sim.wake_at(src_id, VTime::ZERO);
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_runs_to_completion() {
        let mut sim = build_chain_sim(50);
        let summary = sim.run();
        assert_eq!(summary.reason, akita::StopReason::Completed);
        // Tasks fan out into many events: sends, deliveries, and the
        // backpressured retries around the slow stage.
        assert!(summary.events > 200, "got {} events", summary.events);
    }
}
