//! Dispatch hooks, in the spirit of Akita's hook system.
//!
//! Akita lets tools observe a simulation by hooking event dispatch — it is
//! how tracers and visualizers (like the paper's companion Daisen) attach
//! without modifying components. Hooks here see every event immediately
//! before and after the component handles it. The engine skips all hook
//! bookkeeping when none are installed.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::component::Component;
use crate::queue::Ev;

/// An observer of event dispatch.
///
/// Hooks run on the simulation thread; keep them cheap. For monitoring
/// from *other* threads use the query protocol instead.
pub trait Hook {
    /// Called immediately before the component handles `ev`.
    fn before_event(&mut self, _ev: &Ev, _component: &dyn Component) {}

    /// Called immediately after the component handled `ev`.
    fn after_event(&mut self, _ev: &Ev, _component: &dyn Component) {}
}

/// A shipped hook counting dispatched events per component kind.
///
/// # Examples
///
/// ```
/// use akita::{CompBase, Component, Ctx, EventCountHook, Simulation, VTime};
///
/// struct Nop { base: CompBase, left: u32 }
/// impl Component for Nop {
///     fn base(&self) -> &CompBase { &self.base }
///     fn base_mut(&mut self) -> &mut CompBase { &mut self.base }
///     fn tick(&mut self, _ctx: &mut Ctx) -> bool {
///         self.left -= 1;
///         self.left > 0
///     }
/// }
///
/// let mut sim = Simulation::new();
/// let (id, _) = sim.register(Nop { base: CompBase::new("Nop", "n"), left: 5 });
/// sim.wake_at(id, VTime::ZERO);
/// let counts = sim.add_hook(EventCountHook::default());
/// sim.run();
/// assert_eq!(counts.borrow().count("Nop"), 5);
/// ```
///
/// The counts live behind an `Arc<Mutex<..>>` so a [`Send`]able
/// [`EventCounts`] handle ([`EventCountHook::shared`]) can expose them to
/// the monitoring thread (the `/api/metrics` scrape surface) while the
/// hook itself stays on the simulation thread. The lock is uncontended on
/// the hot path — the scrape thread grabs it only per HTTP request. Counts
/// are keyed by the components' `&'static str` kinds, so counting an event
/// never allocates.
#[derive(Debug, Default)]
pub struct EventCountHook {
    counts: Arc<Mutex<HashMap<&'static str, u64>>>,
}

/// A cloneable, thread-safe read handle onto an [`EventCountHook`].
#[derive(Debug, Clone, Default)]
pub struct EventCounts {
    counts: Arc<Mutex<HashMap<&'static str, u64>>>,
}

fn sorted_counts(counts: &Mutex<HashMap<&'static str, u64>>) -> Vec<(String, u64)> {
    let counts = counts
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut v: Vec<_> = counts.iter().map(|(&k, &n)| (k.to_owned(), n)).collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

impl EventCountHook {
    /// Events dispatched to components of `kind` so far.
    pub fn count(&self, kind: &str) -> u64 {
        self.counts
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(kind)
            .copied()
            .unwrap_or(0)
    }

    /// All per-kind counts, sorted descending.
    pub fn all(&self) -> Vec<(String, u64)> {
        sorted_counts(&self.counts)
    }

    /// A read handle usable from other threads (e.g. the RTM monitor).
    pub fn shared(&self) -> EventCounts {
        EventCounts {
            counts: Arc::clone(&self.counts),
        }
    }
}

impl EventCounts {
    /// Events dispatched to components of `kind` so far.
    pub fn count(&self, kind: &str) -> u64 {
        self.counts
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(kind)
            .copied()
            .unwrap_or(0)
    }

    /// All per-kind counts, sorted descending.
    pub fn all(&self) -> Vec<(String, u64)> {
        sorted_counts(&self.counts)
    }
}

impl Hook for EventCountHook {
    fn before_event(&mut self, _ev: &Ev, component: &dyn Component) {
        *self
            .counts
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry(component.kind())
            .or_insert(0) += 1;
    }
}
