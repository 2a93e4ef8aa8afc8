//! # knapsack
//!
//! 0/1 knapsack solvers used by the ring reduction (Lemma 18 of the paper):
//! tasks routed through the cut edge of a ring all share that edge, so
//! selecting them is exactly a knapsack over the cut edge's capacity. The
//! paper calls an FPTAS there, which is what [`fptas`] provides; the exact
//! dynamic programs are used as references in tests and on small instances.
//!
//! Knapsack is also the hardness core of SAP/UFPP (§1.1: all tasks sharing
//! one edge), so these solvers double as exact baselines for such
//! instances.

//! ## Example
//!
//! ```
//! use knapsack::{fptas, solve_exact_by_capacity, Item};
//!
//! let items = [Item { size: 10, weight: 60 }, Item { size: 20, weight: 100 },
//!              Item { size: 30, weight: 120 }];
//! assert_eq!(solve_exact_by_capacity(&items, 50).weight, 220);
//! // The FPTAS is within 1/(1+ε) of optimal.
//! let approx = fptas(&items, 50, 1, 10); // ε = 0.1
//! assert!(approx.weight * 11 >= 220 * 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A knapsack item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    /// Size (demand).
    pub size: u64,
    /// Weight (profit).
    pub weight: u64,
}

/// A solution: selected item indices and their total weight.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KnapsackSolution {
    /// Indices of selected items.
    pub chosen: Vec<usize>,
    /// Total weight.
    pub weight: u64,
}

impl KnapsackSolution {
    fn of(chosen: Vec<usize>, items: &[Item]) -> Self {
        let weight = chosen.iter().map(|&i| items[i].weight).sum();
        KnapsackSolution { chosen, weight }
    }
}

/// Exact DP over capacity, `O(n · capacity)` time and `O(n · capacity)`
/// bits of traceback. Suitable when `capacity` is small.
///
/// # Panics
///
/// Panics when `capacity` exceeds 16 Mi (use [`solve_exact_by_weight`] or
/// [`fptas`] instead).
pub fn solve_exact_by_capacity(items: &[Item], capacity: u64) -> KnapsackSolution {
    assert!(capacity <= 1 << 24, "capacity too large for the capacity-indexed DP");
    let cap = capacity as usize;
    let n = items.len();
    // best[c] = max weight using a prefix of items with size budget c.
    let mut best = vec![0u64; cap + 1];
    let mut take = vec![false; n * (cap + 1)];
    for (i, item) in items.iter().enumerate() {
        let s = item.size as usize;
        if s > cap {
            continue;
        }
        for c in (s..=cap).rev() {
            let cand = best[c - s] + item.weight;
            if cand > best[c] {
                best[c] = cand;
                take[i * (cap + 1) + c] = true;
            }
        }
    }
    // Traceback.
    let mut chosen = Vec::new();
    let mut c = cap;
    for i in (0..n).rev() {
        if take[i * (cap + 1) + c] {
            chosen.push(i);
            c -= items[i].size as usize;
        }
    }
    chosen.reverse();
    KnapsackSolution::of(chosen, items)
}

/// Exact DP over total weight: `min_size[w]` = least total size achieving
/// weight exactly `w`. `O(n · Σw)` time — suitable when weights are small,
/// and the engine underneath the FPTAS.
pub fn solve_exact_by_weight(items: &[Item], capacity: u64) -> KnapsackSolution {
    let wsum: u64 = items.iter().map(|i| i.weight).sum();
    assert!(wsum <= 1 << 24, "total weight too large for the weight-indexed DP");
    let wsum = wsum as usize;
    let n = items.len();
    const INF: u64 = u64::MAX;
    let mut min_size = vec![INF; wsum + 1];
    min_size[0] = 0;
    let mut take = vec![false; n * (wsum + 1)];
    for (i, item) in items.iter().enumerate() {
        let w = item.weight as usize;
        if w == 0 {
            continue; // zero-weight items never help
        }
        for t in (w..=wsum).rev() {
            if min_size[t - w] != INF {
                let cand = min_size[t - w] + item.size;
                if cand < min_size[t] {
                    min_size[t] = cand;
                    take[i * (wsum + 1) + t] = true;
                }
            }
        }
    }
    let best_w = (0..=wsum).rev().find(|&t| min_size[t] <= capacity).unwrap_or(0);
    let mut chosen = Vec::new();
    let mut t = best_w;
    for i in (0..n).rev() {
        if t > 0 && take[i * (wsum + 1) + t] {
            chosen.push(i);
            t -= items[i].weight as usize;
        }
    }
    chosen.reverse();
    KnapsackSolution::of(chosen, items)
}

/// FPTAS with ratio `1/(1+ε)` where `ε = eps_num / eps_den`: weights are
/// scaled down by `K = max(1, ⌊ε·w_max / n⌋)` and the weight-indexed DP is
/// run on the scaled weights. Standard analysis: the loss per item is at
/// most `K`, so the loss overall is at most `n·K ≤ ε·w_max ≤ ε·OPT`.
///
/// # Panics
///
/// Panics when `eps_num == 0` or `eps_den == 0`.
pub fn fptas(items: &[Item], capacity: u64, eps_num: u64, eps_den: u64) -> KnapsackSolution {
    assert!(eps_num > 0 && eps_den > 0, "ε must be positive");
    let n = items.len() as u64;
    if n == 0 {
        return KnapsackSolution::default();
    }
    let wmax = items
        .iter()
        .filter(|i| i.size <= capacity)
        .map(|i| i.weight)
        .max()
        .unwrap_or(0);
    if wmax == 0 {
        return KnapsackSolution::default();
    }
    // K = max(1, floor(eps * wmax / n)).
    let k = ((eps_num as u128 * wmax as u128) / (eps_den as u128 * n as u128)).max(1) as u64;
    let scaled: Vec<Item> = items
        .iter()
        .map(|i| Item { size: i.size, weight: i.weight / k })
        .collect();
    let sol = solve_exact_by_weight(&scaled, capacity);
    KnapsackSolution::of(sol.chosen, items)
}

/// Exact branch & bound with the fractional-relaxation bound — the right
/// exact solver when both the capacity and the total weight are too large
/// for the DPs. Items are explored in density order; each node is pruned
/// against the Dantzig upper bound (greedy fractional completion).
pub fn solve_exact_branch_and_bound(items: &[Item], capacity: u64) -> KnapsackSolution {
    // Density-sorted view (indices into `items`).
    let mut order: Vec<usize> = (0..items.len())
        .filter(|&i| items[i].size <= capacity && items[i].weight > 0)
        .collect();
    order.sort_by(|&a, &b| {
        let lhs = items[a].weight as u128 * items[b].size as u128;
        let rhs = items[b].weight as u128 * items[a].size as u128;
        rhs.cmp(&lhs)
    });

    struct Bb<'a> {
        items: &'a [Item],
        order: &'a [usize],
        best_w: u64,
        best: Vec<usize>,
        current: Vec<usize>,
    }

    impl Bb<'_> {
        /// Dantzig bound: greedy fractional completion from position `pos`.
        fn bound(&self, pos: usize, room: u64, weight: u64) -> f64 {
            let mut room = room as f64;
            let mut bound = weight as f64;
            for &i in &self.order[pos..] {
                let item = self.items[i];
                if item.size as f64 <= room {
                    room -= item.size as f64;
                    bound += item.weight as f64;
                } else {
                    bound += item.weight as f64 * room / item.size as f64;
                    break;
                }
            }
            bound
        }

        fn go(&mut self, pos: usize, room: u64, weight: u64) {
            if weight > self.best_w {
                self.best_w = weight;
                self.best = self.current.clone();
            }
            if pos == self.order.len() || self.bound(pos, room, weight) <= self.best_w as f64 {
                return;
            }
            let i = self.order[pos];
            if self.items[i].size <= room {
                self.current.push(i);
                self.go(pos + 1, room - self.items[i].size, weight.saturating_add(self.items[i].weight));
                self.current.pop();
            }
            self.go(pos + 1, room, weight);
        }
    }

    let mut bb = Bb { items, order: &order, best_w: 0, best: Vec::new(), current: Vec::new() };
    bb.go(0, capacity, 0);
    let mut chosen = bb.best;
    chosen.sort_unstable();
    KnapsackSolution::of(chosen, items)
}

/// Validates a solution: distinct indices, total size within capacity.
pub fn validate(items: &[Item], capacity: u64, sol: &KnapsackSolution) -> bool {
    let mut seen = vec![false; items.len()];
    let mut size = 0u64;
    let mut weight = 0u64;
    for &i in &sol.chosen {
        if i >= items.len() || seen[i] {
            return false;
        }
        seen[i] = true;
        // Overflowing totals can never equal a genuine solution weight.
        let Some(s) = size.checked_add(items[i].size) else { return false };
        let Some(w) = weight.checked_add(items[i].weight) else { return false };
        size = s;
        weight = w;
    }
    size <= capacity && weight == sol.weight
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(items: &[Item], capacity: u64) -> u64 {
        let n = items.len();
        assert!(n <= 20);
        let mut best = 0u64;
        for mask in 0u32..(1 << n) {
            let mut size = 0u64;
            let mut weight = 0u64;
            for (i, item) in items.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    size += item.size;
                    weight += item.weight;
                }
            }
            if size <= capacity {
                best = best.max(weight);
            }
        }
        best
    }

    fn rng_items(seed: u64, n: usize, max_size: u64, max_w: u64) -> Vec<Item> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        (0..n)
            .map(|_| Item { size: 1 + next() % max_size, weight: next() % (max_w + 1) })
            .collect()
    }

    #[test]
    fn trivial_cases() {
        assert_eq!(solve_exact_by_capacity(&[], 10).weight, 0);
        assert_eq!(solve_exact_by_weight(&[], 10).weight, 0);
        assert_eq!(fptas(&[], 10, 1, 10).weight, 0);
        let items = [Item { size: 5, weight: 7 }];
        assert_eq!(solve_exact_by_capacity(&items, 4).weight, 0);
        assert_eq!(solve_exact_by_capacity(&items, 5).weight, 7);
    }

    #[test]
    fn classic_example() {
        let items = [
            Item { size: 10, weight: 60 },
            Item { size: 20, weight: 100 },
            Item { size: 30, weight: 120 },
        ];
        let sol = solve_exact_by_capacity(&items, 50);
        assert_eq!(sol.weight, 220);
        assert!(validate(&items, 50, &sol));
        let sol = solve_exact_by_weight(&items, 50);
        assert_eq!(sol.weight, 220);
        assert!(validate(&items, 50, &sol));
    }

    #[test]
    fn branch_and_bound_agrees_with_bruteforce() {
        for seed in 0..40 {
            let items = rng_items(seed + 900, 14, 40, 60);
            let cap = 80 + seed % 60;
            let expect = brute_force(&items, cap);
            let sol = solve_exact_branch_and_bound(&items, cap);
            assert!(validate(&items, cap, &sol));
            assert_eq!(sol.weight, expect, "seed {seed}");
        }
    }

    #[test]
    fn branch_and_bound_handles_huge_capacity() {
        // Capacities far beyond the DP limits.
        let items: Vec<Item> = (0..30)
            .map(|i| Item { size: 1_000_000_000 + i * 7_777, weight: 100 + i * 3 })
            .collect();
        let cap = 5_000_000_000u64;
        let sol = solve_exact_branch_and_bound(&items, cap);
        assert!(validate(&items, cap, &sol));
        // Up to 5 items of ~1e9 fit; greedy-density picks the best 4..5.
        assert!(sol.chosen.len() >= 4);
    }

    #[test]
    fn both_exact_dps_agree_with_bruteforce() {
        for seed in 0..40 {
            let items = rng_items(seed, 12, 30, 40);
            let cap = 60 + seed % 40;
            let expect = brute_force(&items, cap);
            let a = solve_exact_by_capacity(&items, cap);
            let b = solve_exact_by_weight(&items, cap);
            assert!(validate(&items, cap, &a));
            assert!(validate(&items, cap, &b));
            assert_eq!(a.weight, expect, "capacity DP, seed {seed}");
            assert_eq!(b.weight, expect, "weight DP, seed {seed}");
        }
    }

    #[test]
    fn fptas_respects_ratio() {
        for seed in 0..30 {
            let items = rng_items(seed + 100, 14, 25, 1000);
            let cap = 80;
            let opt = solve_exact_by_capacity(&items, cap).weight;
            for (num, den) in [(1u64, 2u64), (1, 4), (1, 10)] {
                let sol = fptas(&items, cap, num, den);
                assert!(validate(&items, cap, &sol));
                // weight ≥ OPT / (1 + ε): cross-multiplied exact check
                // weight · (den + num) ≥ OPT · den.
                assert!(
                    sol.weight as u128 * (den + num) as u128 >= opt as u128 * den as u128,
                    "seed {seed} eps {num}/{den}: {} vs opt {opt}",
                    sol.weight
                );
            }
        }
    }

    #[test]
    fn fptas_exact_when_scaling_is_trivial() {
        // Small weights: K = 1 ⇒ FPTAS is exact.
        let items = rng_items(7, 10, 10, 15);
        let opt = solve_exact_by_capacity(&items, 40).weight;
        assert_eq!(fptas(&items, 40, 1, 3).weight, opt);
    }

    #[test]
    fn zero_weight_items_ignored_gracefully() {
        let items = [Item { size: 1, weight: 0 }, Item { size: 1, weight: 5 }];
        let sol = solve_exact_by_weight(&items, 1);
        assert_eq!(sol.weight, 5);
        assert_eq!(sol.chosen, vec![1]);
    }
}
