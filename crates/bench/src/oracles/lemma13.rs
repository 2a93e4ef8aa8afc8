//! The paper's Lemma 13 dynamic program, implemented faithfully.
//!
//! Lemma 13: for a δ-large instance whose capacities lie in `[B, B·2^ℓ)`,
//! an **optimal** SAP solution can be computed by a DP over edges whose
//! states are *proper pairs* `(S_i, h_i)` — the selected tasks crossing
//! edge `e_i` together with their heights. Lemma 12 bounds the state
//! space: at most `L = 2^ℓ/δ` tasks cross any edge, and some optimal
//! solution uses only heights that are **sums of demands** of at most `L`
//! other selected tasks — so heights can be drawn from the subset-sum set
//! of the candidate demands.
//!
//! This module is the liberal-but-complete transcription: candidate
//! heights are *all* subset sums of the candidate tasks' demands (a
//! superset of Lemma 12's `d(H_j)` values, hence still exact), and states
//! are hashed rather than tabulated. It is exponential in `n` via the
//! subset-sum set, polynomial for constant `L` exactly as the paper
//! states, and practical for the class sizes the medium-task algorithm
//! produces. The test-suite cross-validates it against the independent
//! search-based exact solver ([`sap_algs::exact`]). It is the paper's
//! reference DP: no solve path calls it, since Elevator runs that search
//! per class.

use std::collections::BTreeMap;

use sap_core::budget::{Budget, CheckpointClass};
use sap_core::error::SapResult;
use sap_core::{Instance, Placement, SapSolution, TaskId};

/// Budget for the number of DP states (across all edges).
#[derive(Debug, Clone, Copy)]
pub struct Lemma13Config {
    /// Maximum number of states stored over the whole sweep.
    pub max_states: usize,
    /// Maximum number of distinct candidate heights (subset sums).
    pub max_heights: usize,
}

impl Default for Lemma13Config {
    fn default() -> Self {
        Lemma13Config { max_states: 2_000_000, max_heights: 4096 }
    }
}

/// A DP state: the selected tasks crossing the current edge with their
/// heights, sorted by height (canonical form).
type State = Vec<(TaskId, u64)>;

/// Computes an optimal SAP solution over `ids` by the Lemma 13 proper-pair
/// DP, charging `DpRow` work units against `budget` — one per expanded DP
/// state (pass [`Budget::unlimited`] for no limit).
///
/// `Err(BudgetExhausted)` is the cooperative budget tripping; `Ok(None)`
/// is the DP's own state/height budget giving up.
pub fn solve_lemma13_dp(
    instance: &Instance,
    ids: &[TaskId],
    config: Lemma13Config,
    budget: &Budget,
) -> SapResult<Option<SapSolution>> {
    if ids.is_empty() {
        return Ok(Some(SapSolution::empty()));
    }
    let m = instance.num_edges();

    // Candidate heights: all subset sums of the candidate demands (Lemma
    // 12(ii): some optimal solution only uses heights of the form d(H)),
    // clipped to the maximum useful height.
    let max_cap = instance.network().max_capacity();
    let mut sums: Vec<u64> = vec![0];
    {
        let mut seen = std::collections::HashSet::new();
        seen.insert(0u64);
        for &j in ids {
            let d = instance.demand(j);
            let snapshot: Vec<u64> = sums.clone();
            for s in snapshot {
                let v = s.saturating_add(d);
                if v < max_cap && seen.insert(v) {
                    sums.push(v);
                }
            }
            if sums.len() > config.max_heights {
                return Ok(None);
            }
        }
        sums.sort_unstable();
    }

    // Tasks starting at each edge.
    let mut starters: Vec<Vec<TaskId>> = vec![Vec::new(); m];
    for &j in ids {
        starters[instance.span(j).lo].push(j);
    }

    // Forward sweep. Value map: state -> (weight, parent state, newly
    // placed tasks). Parents are tracked per edge for traceback.
    // BTreeMap, not HashMap: equal-weight states tie-break by iteration
    // order in the final `max_by_key`, so the map order is part of the
    // byte-identical output contract.
    let mut prev: BTreeMap<State, (u64, State, Vec<Placement>)> = BTreeMap::new();
    prev.insert(Vec::new(), (0, Vec::new(), Vec::new()));
    let mut history: Vec<BTreeMap<State, (u64, State, Vec<Placement>)>> = Vec::with_capacity(m);
    let mut total_states = 0usize;

    for e in 0..m {
        let mut cur: BTreeMap<State, (u64, State, Vec<Placement>)> = BTreeMap::new();
        for (state, (w, _, _)) in &prev {
            budget.checkpoint(CheckpointClass::DpRow, 1)?;
            // Tasks leaving before edge e keep nothing; survivors persist.
            let survivors: State = state
                .iter()
                .copied()
                .filter(|&(j, _)| instance.span(j).contains(e))
                .collect();
            // Enumerate placements of the starters of edge e at candidate
            // heights, DFS over the starter list.
            let mut stack: Vec<(State, usize, u64, Vec<Placement>)> =
                vec![(survivors, 0, *w, Vec::new())];
            while let Some((st, si, sw, placed)) = stack.pop() {
                if si == starters[e].len() {
                    // Validate against edge e's capacity (every crossing
                    // task must fit under c_e — condition 1, edge by edge).
                    let cap = instance.network().capacity(e);
                    if st.iter().all(|&(j, h)| h + instance.demand(j) <= cap) {
                        let entry = cur.entry(st.clone());
                        match entry {
                            std::collections::btree_map::Entry::Occupied(mut o) => {
                                if o.get().0 < sw {
                                    o.insert((sw, state.clone(), placed.clone()));
                                }
                            }
                            std::collections::btree_map::Entry::Vacant(v) => {
                                v.insert((sw, state.clone(), placed.clone()));
                                total_states += 1;
                            }
                        }
                    }
                    continue;
                }
                if total_states > config.max_states {
                    return Ok(None);
                }
                let j = starters[e][si];
                // Skip j.
                stack.push((st.clone(), si + 1, sw, placed.clone()));
                // Place j at every candidate height that stays disjoint
                // from the current crossers.
                let d = instance.demand(j);
                for &h in &sums {
                    let top = h.saturating_add(d);
                    if top > instance.bottleneck(j) {
                        break; // sums are sorted
                    }
                    let disjoint = st
                        .iter()
                        .all(|&(i, hi)| top <= hi || hi + instance.demand(i) <= h);
                    if disjoint {
                        let mut st2 = st.clone();
                        st2.push((j, h));
                        st2.sort_unstable_by_key(|&(_, h)| h);
                        let mut placed2 = placed.clone();
                        placed2.push(Placement { task: j, height: h });
                        stack.push((st2, si + 1, sw + instance.weight(j), placed2));
                    }
                }
            }
        }
        history.push(prev);
        prev = cur;
        if prev.is_empty() {
            // No feasible state (cannot happen: the empty crossing set is
            // always feasible). Defensive.
            return Ok(Some(SapSolution::empty()));
        }
    }

    budget.telemetry().gauge_max("dp.states", total_states as u64);

    // Best terminal state and traceback.
    let Some((best_state, _)) = prev
        .iter()
        .max_by_key(|(_, (w, _, _))| *w)
        .map(|(s, v)| (s.clone(), v.0))
    else {
        return Ok(Some(SapSolution::empty()));
    };
    let mut placements: Vec<Placement> = Vec::new();
    let mut state = best_state;
    for e in (0..m).rev() {
        let layer = if e == m - 1 { &prev } else { &history[e + 1] };
        // Every stored state records the parent it was
        // reached from, so the traceback chain is closed by construction.
        let (_, parent, placed) = layer.get(&state).expect("traceback state exists");
        placements.extend_from_slice(placed);
        state = parent.clone();
    }
    let sol = SapSolution::new(placements);
    debug_assert!(sol.validate(instance).is_ok());
    Ok(Some(sol))
}
