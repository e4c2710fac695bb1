//! Lawler-style pair-list dynamic program for the 0/1 knapsack
//! (Section 4.2.3), with multi-capacity queries in one pass
//! (Section 4.2.4).
//!
//! The DP maintains a list `L` of non-dominated pairs `(p, s)` — profit `p`
//! achievable within total size `s`. In the k-th iteration each pair spawns
//! `(p + p(i_k), s + s(i_k))` unless the new size exceeds the largest
//! capacity; dominated pairs (`p' ≤ p ∧ s' ≥ s`) are discarded. Backtracking
//! information is kept in an arena of `(item, parent)` links so solutions are
//! recovered without storing per-pair item sets.
//!
//! Solving *several* capacities `β ∈ B` in one pass is then a single sweep:
//! run the DP up to `max B` and, for each `β`, report the last pair with
//! `s ≤ β` (the list is sorted by size with strictly increasing profits).

use crate::item::{Item, Solution};
use moldable_core::types::Work;

/// One non-dominated DP state.
#[derive(Clone, Copy, Debug)]
struct Pair {
    profit: Work,
    size: u128,
    /// Index into the decision arena; `usize::MAX` = empty prefix.
    trace: usize,
}

/// Arena entry: taking `item_idx` extended the state at `parent`.
#[derive(Clone, Copy, Debug)]
struct Decision {
    item_idx: u32,
    parent: usize,
}

const NO_TRACE: usize = usize::MAX;

/// The pair-list knapsack solver.
pub struct PairListKnapsack {
    items: Vec<Item>,
    list: Vec<Pair>,
    arena: Vec<Decision>,
}

impl PairListKnapsack {
    /// Run the DP over `items` up to capacity `max_capacity`.
    pub fn run(items: &[Item], max_capacity: u64) -> Self {
        let mut solver = PairListKnapsack {
            items: items.to_vec(),
            list: vec![Pair {
                profit: 0,
                size: 0,
                trace: NO_TRACE,
            }],
            arena: Vec::new(),
        };
        for (idx, it) in items.iter().enumerate() {
            if it.size as u128 > max_capacity as u128 {
                continue;
            }
            solver.step(idx as u32, it, max_capacity);
        }
        solver
    }

    /// One DP iteration: merge the shifted copy of the list into the list,
    /// pruning dominated pairs. Both lists are sorted by size, so this is a
    /// linear merge.
    fn step(&mut self, idx: u32, it: &Item, max_capacity: u64) {
        let old = &self.list;
        let mut merged: Vec<Pair> = Vec::with_capacity(old.len() * 2);
        let (mut a, mut b) = (0usize, 0usize); // a: old, b: shifted old
        let shifted_len = old.len();
        let shift_of = |p: &Pair| (p.profit + it.profit, p.size + it.size as u128);

        let mut new_arena: Vec<Decision> = Vec::new();
        while a < old.len() || b < shifted_len {
            // Decide which candidate is next by size (ties: higher profit
            // first so the dominance prune keeps it).
            let take_shifted = if a >= old.len() {
                true
            } else if b >= shifted_len {
                false
            } else {
                let (bp, bs) = shift_of(&old[b]);
                let (ap, as_) = (old[a].profit, old[a].size);
                bs < as_ || (bs == as_ && bp > ap)
            };
            let cand = if take_shifted {
                let (p, s) = shift_of(&old[b]);
                let parent = old[b].trace;
                b += 1;
                if s > max_capacity as u128 {
                    // Shifted list is sorted: all later shifted pairs also
                    // overflow. Drain plain pairs and stop shifting.
                    b = shifted_len;
                    continue;
                }
                new_arena.push(Decision {
                    item_idx: idx,
                    parent,
                });
                Pair {
                    profit: p,
                    size: s,
                    trace: self.arena.len() + new_arena.len() - 1,
                }
            } else {
                let p = old[a];
                a += 1;
                p
            };
            match merged.last() {
                Some(last) if cand.profit <= last.profit => {} // dominated
                _ => merged.push(cand),
            }
        }
        self.arena.extend(new_arena);
        self.list = merged;
    }

    /// Best solution for capacity `β` (must be ≤ the `max_capacity` the DP
    /// ran with for the answer to be exact).
    pub fn query(&self, beta: u64) -> Solution {
        let idx = self.list.partition_point(|p| p.size <= beta as u128);
        if idx == 0 {
            return Solution::empty();
        }
        let pair = &self.list[idx - 1];
        let mut chosen = Vec::new();
        let mut t = pair.trace;
        while t != NO_TRACE {
            let d = self.arena[t];
            chosen.push(self.items[d.item_idx as usize].id);
            t = d.parent;
        }
        chosen.reverse();
        Solution {
            chosen,
            profit: pair.profit,
        }
    }

    /// Number of non-dominated states currently held (diagnostics/benches).
    pub fn state_count(&self) -> usize {
        self.list.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force;

    fn xorshift(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    #[test]
    fn matches_brute_force() {
        let mut seed = 0x1234_5678_9ABC_DEF0u64;
        for round in 0..100 {
            let n = (xorshift(&mut seed) % 11 + 1) as usize;
            let items: Vec<Item> = (0..n)
                .map(|i| {
                    Item::plain(
                        i as u32,
                        xorshift(&mut seed) % 30 + 1,
                        (xorshift(&mut seed) % 100) as u128,
                    )
                })
                .collect();
            let cap = xorshift(&mut seed) % 60;
            let solver = PairListKnapsack::run(&items, cap);
            let sol = solver.query(cap);
            let bf = brute_force(&items, cap);
            assert_eq!(sol.profit, bf.profit, "round {round}");
            // Verify the backtracked set.
            let size: u64 = sol.chosen.iter().map(|&id| items[id as usize].size).sum();
            let profit: Work = sol.chosen.iter().map(|&id| items[id as usize].profit).sum();
            assert!(size <= cap);
            assert_eq!(profit, sol.profit);
        }
    }

    #[test]
    fn one_run_answers_every_capacity() {
        // Section 4.2.4: one pass at the largest β serves every smaller β.
        let mut seed = 0xFEED_FACE_CAFE_BEEFu64;
        for _ in 0..40 {
            let n = (xorshift(&mut seed) % 10 + 1) as usize;
            let items: Vec<Item> = (0..n)
                .map(|i| {
                    Item::plain(
                        i as u32,
                        xorshift(&mut seed) % 25 + 1,
                        (xorshift(&mut seed) % 80) as u128,
                    )
                })
                .collect();
            let caps: Vec<u64> = (0..5).map(|_| xorshift(&mut seed) % 70).collect();
            let solver = PairListKnapsack::run(&items, caps.iter().copied().max().unwrap());
            for &b in &caps {
                let sol = solver.query(b);
                assert_eq!(sol.profit, brute_force(&items, b).profit);
                let size: u64 = sol.chosen.iter().map(|&id| items[id as usize].size).sum();
                assert!(size <= b);
            }
        }
    }

    #[test]
    fn dominance_keeps_list_small() {
        // Equal-profit items: list stays linear, not exponential.
        let items: Vec<Item> = (0..20).map(|i| Item::plain(i, 5, 7)).collect();
        let solver = PairListKnapsack::run(&items, 100);
        assert!(solver.state_count() <= 21);
        assert_eq!(solver.query(100).profit, 7 * 20);
        assert_eq!(solver.query(24).profit, 7 * 4);
    }

    #[test]
    fn empty_inputs() {
        let solver = PairListKnapsack::run(&[], 10);
        assert_eq!(solver.query(10), Solution::empty());
    }
}
