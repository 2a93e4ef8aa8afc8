//! Exact dynamic program for SAP-U with small integer capacity
//! (Chen, Hassin & Tzur [18], §1.1 of the paper).
//!
//! For uniform capacity `K` and integer demands in `{1, …, K}`, SAP is
//! solvable exactly in `O(n·(nK)^K)` time: sweep the edges left to right
//! keeping, per DP state, the **column occupancy** — which selected task
//! occupies each of the `K` height units of the current edge. Tasks
//! ending at the current vertex free their units; tasks starting there
//! may claim any free contiguous block of their demand.
//!
//! This is an independent second exact solver: the test-suite
//! cross-validates it against the search-based [`sap_algs::exact`] solver,
//! so a bug in either would have to be mirrored in a completely
//! different algorithm to go unnoticed.

use std::collections::BTreeMap;

use sap_core::{Instance, Placement, SapSolution, TaskId};

/// Marker for a free height unit in a column state.
const FREE: u32 = u32::MAX;

/// Column occupancy: `state[h]` is the selected task occupying height
/// unit `h` of the current edge (or [`FREE`]).
type State = Vec<u32>;

/// Solves SAP-U exactly by the column-occupancy DP.
///
/// # Panics
///
/// Panics when the network is not uniform, or `K > 12` (the state space
/// is exponential in `K`), or more than `u32::MAX − 1` tasks.
pub fn solve_sapu_exact_dp(instance: &Instance, ids: &[TaskId]) -> SapSolution {
    let net = instance.network();
    assert!(net.is_uniform(), "the Chen et al. DP requires uniform capacities");
    let k = net.min_capacity();
    assert!(k <= 12, "column DP supported for capacity K ≤ 12");
    let k = k as usize;
    let m = instance.num_edges();
    assert!(ids.len() < (u32::MAX - 1) as usize);

    // Starters per edge.
    let mut starters: Vec<Vec<TaskId>> = vec![Vec::new(); m];
    for &j in ids {
        starters[instance.span(j).lo].push(j);
    }

    // DP over edges. Keyed by column state; value = (weight, parent index
    // into `trace`, placements added at this edge).
    #[derive(Clone)]
    struct Entry {
        weight: u64,
        parent: Option<(usize, usize)>, // (edge, index in that edge's trace)
        placed: Vec<Placement>,
    }
    let mut layers: Vec<BTreeMap<State, usize>> = Vec::with_capacity(m);
    let mut traces: Vec<Vec<Entry>> = Vec::with_capacity(m);

    let mut prev: BTreeMap<State, usize> = BTreeMap::new();
    let mut prev_trace: Vec<Entry> = vec![Entry {
        weight: 0,
        parent: None,
        placed: Vec::new(),
    }];
    prev.insert(vec![FREE; k], 0);

    for e in 0..m {
        let mut cur: BTreeMap<State, usize> = BTreeMap::new();
        let mut cur_trace: Vec<Entry> = Vec::new();
        for (state, &idx) in &prev {
            let base_weight = prev_trace[idx].weight;
            // Clear units of tasks that do not use edge e.
            let mut cleared = state.clone();
            for unit in cleared.iter_mut() {
                if *unit != FREE {
                    let j = ids[*unit as usize];
                    if !instance.span(j).contains(e) {
                        *unit = FREE;
                    }
                }
            }
            // Enumerate placements of the starters of edge e.
            let mut stack: Vec<(State, usize, u64, Vec<Placement>)> =
                vec![(cleared, 0, base_weight, Vec::new())];
            while let Some((st, next_starter, w, placed)) = stack.pop() {
                if next_starter == starters[e].len() {
                    let parent = if e == 0 { None } else { Some((e - 1, idx)) };
                    match cur.get(&st) {
                        Some(&existing) if cur_trace[existing].weight >= w => {}
                        _ => {
                            let entry = Entry { weight: w, parent, placed: placed.clone() };
                            let pos = match cur.get(&st) {
                                Some(&existing) => {
                                    cur_trace[existing] = entry;
                                    existing
                                }
                                None => {
                                    cur_trace.push(entry);
                                    cur_trace.len() - 1
                                }
                            };
                            cur.insert(st, pos);
                        }
                    }
                    continue;
                }
                let j = starters[e][next_starter];
                // Option 1: skip this starter.
                stack.push((st.clone(), next_starter + 1, w, placed.clone()));
                // Option 2: place it at each free contiguous block.
                let d = instance.demand(j) as usize;
                // `starters` partitions exactly the ids in
                // `ids`, so the lookup always succeeds.
                let pos_in_ids = ids.iter().position(|&x| x == j).expect("starter in ids") as u32;
                for h in 0..=(k.saturating_sub(d)) {
                    // `h + d <= k` by the loop bound; saturating keeps
                    // the lint's overflow proof local to this line.
                    let top = h.saturating_add(d);
                    if st[h..top].iter().all(|&u| u == FREE) {
                        let mut st2 = st.clone();
                        for unit in st2[h..top].iter_mut() {
                            *unit = pos_in_ids;
                        }
                        let mut placed2 = placed.clone();
                        placed2.push(Placement { task: j, height: h as u64 });
                        stack.push((st2, next_starter + 1, w + instance.weight(j), placed2));
                    }
                }
            }
        }
        layers.push(prev.clone());
        traces.push(prev_trace.clone());
        prev = cur;
        prev_trace = cur_trace;
    }

    // Best final state + traceback.
    let Some((_, &best_idx)) = prev
        .iter()
        .max_by_key(|(_, &idx)| prev_trace[idx].weight)
    else {
        return SapSolution::empty();
    };
    let mut placements: Vec<Placement> = Vec::new();
    let mut cursor: Option<(usize, usize)> = Some((m - 1, best_idx));
    let mut trace_ref: Vec<&Vec<Entry>> = traces.iter().collect();
    trace_ref.push(&prev_trace); // layer m-1's outgoing trace is `prev_trace`
    // Walk back: the entry at layer e's trace describes placements made at
    // edge e; parents point to layer e−1.
    let mut layer_entries: Vec<Vec<Entry>> = traces;
    layer_entries.push(prev_trace);
    while let Some((e, idx)) = cursor {
        // entries for edge e live in layer_entries[e + 1]
        let entry = &layer_entries[e + 1][idx];
        placements.extend_from_slice(&entry.placed);
        cursor = entry.parent;
    }
    let sol = SapSolution::new(placements);
    debug_assert!(sol.validate(instance).is_ok());
    sol
}
