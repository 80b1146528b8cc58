//! Shared harness for the figure-regeneration binaries and the
//! [`micro::bench`] benches: monitored platform construction, the four
//! Figure 7 scenarios, and small table/plot printers.

#![warn(missing_docs)]

pub mod chain;
pub mod harness;
pub mod micro;
pub mod textfig;

pub use harness::{thread_cpu_time, timed_run, MonitoredSim, RunTimes, Scenario};
