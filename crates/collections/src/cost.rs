//! Deterministic operation cost model.
//!
//! The paper measures wall-clock time on the authors' machine; this
//! reproduction charges deterministic cost units to the shared
//! [`SimClock`](chameleon_heap::SimClock) instead. Implementations charge
//! from *primitive* costs (an array access, a pointer chase, a hash
//! computation, an allocation) multiplied by the actual work they perform,
//! so relative orderings — `ArrayMap` beating `HashMap` at small sizes,
//! `LinkedList.get(i)` degrading linearly, context capture dominating the
//! fully-automatic mode (§5.4) — emerge from the same mechanics the paper
//! describes (§2.2: "in the realm of small sizes, constants matter").
//!
//! One unit is nominally a nanosecond on the paper's 3.8 GHz Xeon; only
//! ratios are reported. [`CostModel::CALIBRATED`], the one model every
//! runtime charges, was calibrated so the §2.3 and §5.4 overhead
//! percentages land near the paper's.

/// Primitive cost constants, in simulated units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Allocating one heap object (header setup, zeroing, TLAB bump).
    pub alloc_object: u64,
    /// One indexed array read/write (good locality).
    pub array_access: u64,
    /// Following one pointer to a random heap location (poor locality).
    pub link_hop: u64,
    /// Computing an element's hash code.
    pub hash_compute: u64,
    /// One equality check against a candidate element.
    pub eq_check: u64,
    /// Copying one element slot during a resize or shift.
    pub elem_copy: u64,
    /// Delegating through the wrapper indirection (§4.1).
    pub wrapper_indirection: u64,
    /// Capturing an allocation context by walking a `Throwable` stack
    /// (§4.2: "significantly" slower — requires allocating the Throwable
    /// and string manipulation).
    pub capture_throwable: u64,
    /// Capturing an allocation context through the JVMTI-based native path.
    pub capture_jvmti: u64,
}

impl CostModel {
    /// The calibrated model [`Runtime::cost`](crate::Runtime::cost)
    /// returns.
    pub const CALIBRATED: CostModel = CostModel {
        alloc_object: 30,
        array_access: 1,
        link_hop: 4,
        hash_compute: 10,
        eq_check: 2,
        elem_copy: 1,
        wrapper_indirection: 1,
        capture_throwable: 12_000,
        capture_jvmti: 2_000,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_orderings() {
        let c = CostModel::CALIBRATED;
        // A hash computation must cost more than a few equality checks, or
        // ArrayMap could never beat HashMap at small sizes.
        assert!(c.hash_compute > 3 * c.eq_check);
        // Pointer chases cost more than array accesses (locality).
        assert!(c.link_hop > c.array_access);
        // Throwable-based capture is far more expensive than JVMTI (§4.2).
        assert!(c.capture_throwable >= 5 * c.capture_jvmti);
        // Context capture dwarfs ordinary operations (the §5.4 bottleneck).
        assert!(c.capture_jvmti > 10 * c.alloc_object);
    }
}
