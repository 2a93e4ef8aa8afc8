//! The pre-sparse dense revised simplex, kept as a differential oracle.
//!
//! [`solve_dense`] is the solver this crate shipped before the sparse
//! eta-file core: an explicit dense `m × m` basis inverse rewritten on
//! every pivot, full Dantzig pricing over all `n + m` candidates, and
//! Bland's rule after a stall. It allocates freely and knows nothing of
//! budgets, scratches or traces — it exists so property tests can pin
//! the sparse core against an independent implementation of the same
//! ratio-test and extraction rules (solutions must agree in objective
//! and status; pivot sequences may differ, since partial pricing picks
//! different entering columns). It lives with the tests because no
//! release path calls it.

use lp_solver::{LpProblem, LpSolution, LpStatus};

/// The sparse core's tolerances and Bland stall limit, restated so the
/// oracle shares no code with the solver it checks.
const TOL: f64 = 1e-9;
const PIVOT_TOL: f64 = 1e-10;
const STALL_LIMIT: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq)]
enum VarState {
    Basic(usize),
    AtLower,
    AtUpper,
}

/// Solves the packing LP with the dense reference implementation.
/// `max_iters = 0` selects the same automatic `64·(n + m) + 4096`
/// pivot ceiling as the sparse solver.
pub fn solve_dense(p: &LpProblem, max_iters: usize) -> LpSolution {
    let n = p.num_vars();
    let m = p.num_rows();
    let limit = if max_iters == 0 { 64 * (n + m) + 4096 } else { max_iters };

    let mut binv = vec![0.0; m * m];
    for i in 0..m {
        binv[i * m + i] = 1.0;
    }
    let mut basis: Vec<usize> = (n..n + m).collect();
    let mut state = vec![VarState::AtLower; n + m];
    for (row, &v) in basis.iter().enumerate() {
        state[v] = VarState::Basic(row);
    }
    let mut xb: Vec<f64> = p.rhs().to_vec();

    let (c, u) = (p.obj(), p.upper());
    let obj_of = |var: usize| if var < n { c[var] } else { 0.0 };
    let upper_of = |var: usize| if var < n { u[var] } else { f64::INFINITY };

    let duals = |binv: &[f64], basis: &[usize]| -> Vec<f64> {
        let mut y = vec![0.0; m];
        for (i, &bv) in basis.iter().enumerate() {
            let cb = obj_of(bv);
            // lint:allow(f1) — exact-zero sparsity skip: objective entries
            // are 0.0 exactly for slack variables, no tolerance intended.
            if cb != 0.0 {
                for r in 0..m {
                    y[r] += cb * binv[i * m + r];
                }
            }
        }
        y
    };
    let reduced_cost = |var: usize, y: &[f64]| -> f64 {
        let mut d = obj_of(var);
        if var < n {
            for (r, a) in p.col(var) {
                d -= y[r] * a;
            }
        } else {
            d -= y[var - n];
        }
        d
    };

    let mut status = LpStatus::IterationLimit;
    let mut stall = 0usize;
    let mut last_obj = f64::NEG_INFINITY;
    for _ in 0..limit {
        let y = duals(&binv, &basis);
        let bland = stall >= STALL_LIMIT;
        let mut entering: Option<(usize, f64, bool)> = None;
        for var in 0..n + m {
            let (from_lower, sign) = match state[var] {
                VarState::AtLower => (true, 1.0),
                VarState::AtUpper => (false, -1.0),
                VarState::Basic(_) => continue,
            };
            let d = reduced_cost(var, &y);
            if d * sign > TOL {
                let score = d * sign;
                match entering {
                    Some((_, best, _)) if !bland && score <= best => {}
                    Some(_) if bland => {}
                    _ => {
                        entering = Some((var, score, from_lower));
                        if bland {
                            break;
                        }
                    }
                }
            }
        }
        let Some((evar, _, from_lower)) = entering else {
            status = LpStatus::Optimal;
            break;
        };

        // w = B⁻¹ A_evar
        let mut w = vec![0.0; m];
        if evar < n {
            for (r, a) in p.col(evar) {
                // lint:allow(f1) — exact-zero sparsity skip of a stored
                // coefficient, not a numeric convergence test.
                if a != 0.0 {
                    for i in 0..m {
                        w[i] += binv[i * m + r] * a;
                    }
                }
            }
        } else {
            let r = evar - n;
            for i in 0..m {
                w[i] = binv[i * m + r];
            }
        }
        let dir = if from_lower { 1.0 } else { -1.0 };

        let mut t_max = upper_of(evar);
        let mut leaving: Option<(usize, bool)> = None;
        for i in 0..m {
            let delta = -dir * w[i];
            if delta < -PIVOT_TOL {
                let t = xb[i] / (-delta);
                if t < t_max {
                    t_max = t.max(0.0);
                    leaving = Some((i, false));
                }
            } else if delta > PIVOT_TOL {
                let ub = upper_of(basis[i]);
                if ub.is_finite() {
                    let t = (ub - xb[i]) / delta;
                    if t < t_max {
                        t_max = t.max(0.0);
                        leaving = Some((i, true));
                    }
                }
            }
        }

        let t = t_max;
        for i in 0..m {
            xb[i] += -dir * w[i] * t;
        }
        match leaving {
            None => {
                state[evar] = if from_lower { VarState::AtUpper } else { VarState::AtLower };
            }
            Some((row, leaves_at_upper)) => {
                let lvar = basis[row];
                let pivot = w[row];
                if pivot.abs() < PIVOT_TOL {
                    stall = STALL_LIMIT;
                    continue;
                }
                for r in 0..m {
                    binv[row * m + r] /= pivot;
                }
                for i in 0..m {
                    if i != row {
                        let f = w[i];
                        // lint:allow(f1) — exact-zero sparsity skip in the
                        // B⁻¹ update; a tolerance would change numerics.
                        if f != 0.0 {
                            for r in 0..m {
                                binv[i * m + r] -= f * binv[row * m + r];
                            }
                        }
                    }
                }
                state[lvar] = if leaves_at_upper { VarState::AtUpper } else { VarState::AtLower };
                state[evar] = VarState::Basic(row);
                basis[row] = evar;
                xb[row] = if from_lower { t } else { upper_of(evar) - t };
            }
        }

        let mut obj = 0.0;
        for (i, &bv) in basis.iter().enumerate() {
            obj += obj_of(bv) * xb[i];
        }
        for var in 0..n {
            if state[var] == VarState::AtUpper {
                obj += c[var] * u[var];
            }
        }
        if obj > last_obj + TOL {
            stall = 0;
            last_obj = obj;
        } else {
            stall += 1;
        }
    }

    let mut x = vec![0.0; n];
    for var in 0..n {
        match state[var] {
            // lint:allow(p1) — var < n and basic `row` < m by the
            // VarState invariant, so all three indexes are in bounds.
            VarState::Basic(row) => x[var] = xb[row].clamp(0.0, u[var]),
            VarState::AtUpper => x[var] = u[var],
            VarState::AtLower => {}
        }
    }
    let y = duals(&binv, &basis);
    let row_duals: Vec<f64> = y.iter().map(|&v| v.max(0.0)).collect();
    let bound_duals: Vec<f64> = (0..n)
        .map(|j| {
            let mut d = c[j];
            for (r, a) in p.col(j) {
                d -= row_duals[r] * a;
            }
            d.max(0.0)
        })
        .collect();
    let objective = p.objective_of(&x);
    LpSolution { status, objective, x, row_duals, bound_duals }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_oracle_solves_a_knapsack() {
        let mut p = LpProblem::new(vec![1.0]);
        p.add_var(3.0, 1.0, &[(0, 1.0)]);
        p.add_var(2.0, 1.0, &[(0, 1.0)]);
        let s = solve_dense(&p, 0);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 3.0).abs() < 1e-9);
        assert!(s.duality_gap(&p).abs() < 1e-6);
    }
}
