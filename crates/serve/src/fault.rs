//! Deterministic fault injection for the serving engine (the `testing`
//! feature only — none of this is compiled into default builds).
//!
//! A [`FaultPlan`] describes, per model slot, which calls misbehave and
//! how: panic, report an error, stall for a fixed latency, or corrupt the
//! slot's artifact at save time. The engine consults a [`FaultInjector`]
//! (the plan plus per-slot call counters) immediately before each slot
//! call; the chaos test suite and `serve-bench --chaos` build plans that
//! exercise the circuit breakers, deadline budgets, panic isolation, and
//! crash-safe publication under every failure mode the paper's
//! periodically-retrained deployment could see.
//!
//! Latency is injected through [`Clock::sleep`](rm_util::clock::Clock),
//! so a [`FakeClock`](rm_util::clock::FakeClock) turns injected stalls
//! into instantaneous, deterministic simulated time.

use crate::engine::ModelSlot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A 1-based, half-open range of slot-call indices a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallWindow {
    /// First affected call (1-based, inclusive).
    pub from: u64,
    /// First unaffected call (exclusive; `u64::MAX` = forever).
    pub to: u64,
}

impl CallWindow {
    /// Every call, forever.
    #[must_use]
    pub fn always() -> Self {
        Self {
            from: 1,
            to: u64::MAX,
        }
    }

    /// Only the first `n` calls.
    #[must_use]
    pub fn first(n: u64) -> Self {
        Self {
            from: 1,
            to: n.saturating_add(1),
        }
    }

    /// Every call from the `n`-th (1-based) onwards.
    #[must_use]
    pub fn starting_at(n: u64) -> Self {
        Self {
            from: n,
            to: u64::MAX,
        }
    }

    /// Whether the 1-based call index falls inside the window.
    #[must_use]
    pub fn contains(&self, call: u64) -> bool {
        call >= self.from && call < self.to
    }
}

/// The faults configured for one model slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotFaults {
    /// Calls in this window panic inside the slot.
    pub panic_in: Option<CallWindow>,
    /// Calls in this window report a slot error (no answer, breaker
    /// failure) without panicking.
    pub error_in: Option<CallWindow>,
    /// Fixed stall injected before every call (simulated via the engine
    /// clock's `sleep`).
    pub latency: Option<Duration>,
    /// Corrupt this slot's artifact in
    /// [`ArtifactRegistry::corrupt_on_save`](crate::registry::ArtifactRegistry::corrupt_on_save).
    pub corrupt_on_save: bool,
}

/// A full per-slot fault schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Faults indexed by [`ModelSlot::index`].
    pub slots: [SlotFaults; ModelSlot::COUNT],
}

impl FaultPlan {
    /// A plan injecting nothing (identical to running without one).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// The faults configured for `slot`.
    #[must_use]
    pub fn slot(&self, slot: ModelSlot) -> &SlotFaults {
        &self.slots[slot.index()]
    }

    /// Panic on the calls of `slot` inside `window`.
    #[must_use]
    pub fn panic_in(mut self, slot: ModelSlot, window: CallWindow) -> Self {
        self.slots[slot.index()].panic_in = Some(window);
        self
    }

    /// Report slot errors for the calls of `slot` inside `window`.
    #[must_use]
    pub fn error_in(mut self, slot: ModelSlot, window: CallWindow) -> Self {
        self.slots[slot.index()].error_in = Some(window);
        self
    }

    /// Stall every call of `slot` by `latency`.
    #[must_use]
    pub fn latency(mut self, slot: ModelSlot, latency: Duration) -> Self {
        self.slots[slot.index()].latency = Some(latency);
        self
    }

    /// Corrupt the artifact of `slot` at save time.
    #[must_use]
    pub fn corrupt_on_save(mut self, slot: ModelSlot) -> Self {
        self.slots[slot.index()].corrupt_on_save = true;
        self
    }

    /// Preset for the overload chaos scenario: the expensive CF slot
    /// panics on every call while the content slot drags — the worst
    /// realistic storm the admission queue and brownout ladder must
    /// absorb without dropping availability.
    #[must_use]
    pub fn overload_storm() -> Self {
        Self::none()
            .panic_in(ModelSlot::Bpr, CallWindow::always())
            .latency(ModelSlot::ClosestItems, Duration::from_millis(1))
    }
}

/// What the injector decided for one slot call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFault {
    /// Stall to apply before the call (via the engine clock).
    pub latency: Option<Duration>,
    /// The call must report a slot error.
    pub error: bool,
    /// The call must panic inside the slot.
    pub panic: bool,
}

/// The runtime side of a [`FaultPlan`]: counts calls per slot and
/// resolves which faults apply to each.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    calls: [AtomicU64; ModelSlot::COUNT],
}

impl FaultInjector {
    /// An injector executing `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            calls: Default::default(),
        }
    }

    /// The plan being executed.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Calls observed so far for `slot`.
    #[must_use]
    pub fn calls(&self, slot: ModelSlot) -> u64 {
        self.calls[slot.index()].load(Ordering::SeqCst)
    }

    /// Registers one call of `slot` and returns the faults to inject.
    pub fn on_call(&self, slot: ModelSlot) -> InjectedFault {
        let call = self.calls[slot.index()].fetch_add(1, Ordering::SeqCst) + 1;
        let faults = self.plan.slot(slot);
        InjectedFault {
            latency: faults.latency,
            error: faults.error_in.is_some_and(|w| w.contains(call)),
            panic: faults.panic_in.is_some_and(|w| w.contains(call)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_windows_cover_the_right_calls() {
        assert!(CallWindow::always().contains(1));
        assert!(CallWindow::always().contains(u64::MAX - 1));
        assert!(CallWindow::first(2).contains(1));
        assert!(CallWindow::first(2).contains(2));
        assert!(!CallWindow::first(2).contains(3));
        assert!(!CallWindow::starting_at(3).contains(2));
        assert!(CallWindow::starting_at(3).contains(3));
    }

    #[test]
    fn injector_counts_calls_per_slot() {
        let plan = FaultPlan::none()
            .error_in(ModelSlot::Bpr, CallWindow::first(1))
            .panic_in(ModelSlot::MostRead, CallWindow::starting_at(2));
        let inj = FaultInjector::new(plan);

        let first = inj.on_call(ModelSlot::Bpr);
        assert!(first.error && !first.panic);
        let second = inj.on_call(ModelSlot::Bpr);
        assert!(!second.error);

        assert!(!inj.on_call(ModelSlot::MostRead).panic);
        assert!(inj.on_call(ModelSlot::MostRead).panic);
        assert_eq!(inj.calls(ModelSlot::Bpr), 2);
        assert_eq!(inj.calls(ModelSlot::MostRead), 2);
        assert_eq!(inj.calls(ModelSlot::Random), 0);
    }

    #[test]
    fn latency_applies_to_every_call() {
        let plan = FaultPlan::none().latency(ModelSlot::Bpr, Duration::from_millis(7));
        let inj = FaultInjector::new(plan);
        assert_eq!(
            inj.on_call(ModelSlot::Bpr).latency,
            Some(Duration::from_millis(7))
        );
        assert_eq!(inj.on_call(ModelSlot::ClosestItems).latency, None);
    }
}
