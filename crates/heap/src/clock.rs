//! Simulated clock.
//!
//! The paper reports wall-clock times on the authors' testbed; this
//! reproduction instead accumulates deterministic *cost units* on a shared
//! clock. Collection operations, allocation-context capture and GC cycles
//! each charge their modeled cost here, which makes the runtime figures
//! (Fig. 7, §5.4) reproducible bit-for-bit. One unit is nominally one
//! nanosecond, but only ratios are ever reported.

use std::cell::Cell;
use std::rc::Rc;

/// A shared, monotonically increasing cost counter.
///
/// Cloning a `SimClock` yields a handle to the same counter.
///
/// # Examples
///
/// ```
/// use chameleon_heap::clock::SimClock;
///
/// let clock = SimClock::new();
/// let view = clock.clone();
/// clock.charge(25);
/// assert_eq!(view.now(), 25);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    units: Rc<Cell<u64>>,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `units` of simulated cost.
    pub fn charge(&self, units: u64) {
        self.units.set(self.units.get() + units);
    }

    /// Current accumulated cost.
    pub fn now(&self) -> u64 {
        self.units.get()
    }

    /// Resets the clock to zero (e.g. between the profiling run and the
    /// measured re-run).
    pub fn reset(&self) {
        self.units.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let c = SimClock::new();
        c.charge(3);
        c.charge(4);
        assert_eq!(c.now(), 7);
    }

    #[test]
    fn clones_share_state() {
        let c = SimClock::new();
        let c2 = c.clone();
        c2.charge(10);
        assert_eq!(c.now(), 10);
        c.reset();
        assert_eq!(c2.now(), 0);
    }
}
