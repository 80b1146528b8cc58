//! # akita — a discrete-event simulation framework
//!
//! A Rust reproduction of the Akita simulation framework underlying
//! MGPUSim, built for the AkitaRTM paper reproduction (MICRO 2024,
//! *"Looking into the Black Box: Monitoring Computer Architecture
//! Simulations in Real-Time with AkitaRTM"*).
//!
//! Hardware is modeled as [`Component`]s that communicate only by
//! exchanging [`Msg`]s over [`Port`]s joined by [`Connection`]s. Components
//! *tick* once per clock cycle while they make progress and sleep
//! otherwise; message deliveries wake them. Every [`Buffer`] in the system
//! is observable, and a running [`Simulation`] answers monitor
//! [`SimQuery`]s between events — the substrate the `akita-rtm` crate
//! builds its real-time monitoring on.
//!
//! ## Quick start
//!
//! ```
//! use akita::{CompBase, Component, Ctx, Simulation, VTime};
//!
//! struct Blinker { base: CompBase, blinks: u32 }
//!
//! impl Component for Blinker {
//!     fn base(&self) -> &CompBase { &self.base }
//!     fn base_mut(&mut self) -> &mut CompBase { &mut self.base }
//!     fn tick(&mut self, _ctx: &mut Ctx) -> bool {
//!         self.blinks += 1;
//!         self.blinks < 3
//!     }
//! }
//!
//! let mut sim = Simulation::new();
//! let (id, blinker) = sim.register(Blinker {
//!     base: CompBase::new("Blinker", "B0"),
//!     blinks: 0,
//! });
//! sim.wake_at(id, VTime::ZERO);
//! let summary = sim.run();
//! assert_eq!(blinker.borrow().blinks, 3);
//! assert_eq!(summary.events, 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
mod buffer;
mod component;
mod conn;
mod engine;
pub mod faults;
mod hook;
mod ids;
mod msg;
mod par;
mod port;
pub mod profile;
mod progress;
mod query;
mod queue;
mod state;
mod time;
pub mod trace;

pub use analysis::{
    CycleFinding, DeadlockReport, LintFinding, LintReport, Severity, Suspect, WaitFor,
};
pub use buffer::{Buffer, BufferRegistry, BufferSnapshot};
pub use component::{CompBase, Component};
pub use conn::{Connection, DirectConnection, LinkWait, SendError};
pub use engine::{CrashInfo, Ctx, RunState, RunSummary, SimControl, Simulation, StopReason};
pub use faults::{
    FaultHub, FaultInstallSummary, FaultKind, FaultPlan, FaultReport, FaultRule, FaultRuleStatus,
};
pub use hook::{EventCountHook, EventCounts, Hook};
pub use ids::{ComponentId, MsgId, PortId};
pub use msg::{downcast_msg, Msg, MsgExt, MsgMeta};
pub use par::{
    ParReport, ParShared, ParSnapshot, PartStat, PartitionPlan, PartitionStatus, WorkerStat,
};
pub use port::{Port, PortSnapshot};
pub use profile::{ProfileEdge, ProfileNode, ProfileReport};
pub use progress::{ProgressBarId, ProgressRegistry, ProgressSnapshot};
pub use query::{
    ActivityStamp, ComponentInfo, ComponentStateDto, EngineStatus, QueryClient, QueryError,
    Replier, SimQuery, TopologyEdge, TraceRecord,
};
pub use queue::{Ev, EventKind, EventQueue};
pub use state::{ComponentState, Field, IntoValue, Value};
pub use time::{Freq, VTime, PS_PER_SEC};
pub use trace::{TaskId, TaskTraceReport};
