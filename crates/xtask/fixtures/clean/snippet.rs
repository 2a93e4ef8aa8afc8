//! Fixture: library code every lint accepts untouched, including the
//! justified-allow and test-module escape hatches.

/// Returns the larger demand, panic-free.
pub fn max_demand(a: u64, b: u64) -> u64 {
    a.max(b)
}

/// A documented public type.
pub struct Documented {
    demand: u64,
}

/// Compares with a tolerance, as f1 demands.
pub fn close(a: f64, b: f64, eps: f64) -> bool {
    (a - b).abs() <= eps
}

/// Returns a Solution and feeds it through the validator.
pub fn solve(instance: &Instance) -> SapSolution {
    let sol = SapSolution::empty_for(instance);
    debug_assert!(sol.validate(instance).is_ok());
    sol
}

/// A justified allow suppresses the unwrap beneath it.
pub fn first_or_default(v: &[u64]) -> u64 {
    // lint:allow(p1) — slice is checked non-empty by the caller contract
    v.first().copied().expect("non-empty by contract")
}

/// Meters one step at a budget checkpoint.
pub fn metered_step(budget: &Budget) -> SapResult<()> {
    budget.checkpoint(CheckpointClass::Driver, 1)
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwraps_are_fine_in_tests() {
        let v = vec![1u64, 2, 3];
        assert_eq!(v[0] + v[1] + v[2], Some(6u64).unwrap());
    }
}
