//! The compression+convolution solver (registry name `conv-fptas`), after
//! *Improved Algorithms for Monotone Moldable Job Scheduling using
//! Compression and Convolution* (Grage–Jansen–Ohnesorge, arXiv:2303.01414).
//!
//! The shelf-S1 selection of Algorithm 3 is a bounded knapsack over the
//! rounded item types of Section 4.3.1. Algorithm 3 answers it with the
//! paper's *compressible* knapsack approximation
//! ([`moldable_knapsack::bounded::solve_bounded`]); this solver answers it
//! **exactly** by (max,+)-convolution instead:
//!
//! 1. Round jobs to types with the shared pass ([`crate::rounding`], the
//!    [`moldable_core::compression::SizeClassGrid`] table)
//!    — identical classes to Algorithm 3 by construction.
//! 2. Per distinct rounded size `s`, sort the unit profits non-increasing
//!    and take prefix sums: the best way to spend `c` processors *within
//!    one size class* is the staircase `g_s[c] = prefix[min(⌊c/s⌋, U_s)]`
//!    ([`crate::convolve::size_class_profits`]) — exact, because
//!    same-size units are interchangeable.
//! 3. Fold the staircases into one accumulator with the size-class
//!    (max,+) kernel ([`crate::convolve::maxplus_staircase`]), truncating
//!    every accumulator at the knapsack capacity; backtrack over the
//!    staircase steps through the saved accumulators to recover a
//!    concrete, deterministic job choice.
//!
//! Exactness matters for soundness: the optimal S1 choice induced by any
//! schedule of makespan `d` fits the capacity under rounded-*down* sizes,
//! so the convolution's profit dominates it and the Lemma 19 assembly
//! argument goes through verbatim — the guarantee is the same
//! `3/2·(1+δ)²` as Algorithm 3's heap variant. Each probe additionally
//! assembles Algorithm 3's approximate choice over the *same* rounded
//! types and keeps the better of the two schedules, so no accepted target
//! ever lands worse than Algorithm 3's — pinned at ≥95% beat-or-match
//! over the differential corpus in `tests/differential.rs`.
//!
//! The fold costs `O(C log C)` per size class for capacity `C`, so it
//! runs at every `m`. A u64-lane overflow check on the total profit mass
//! **falls back to the approximate choice alone** (same guarantee, so the
//! reported bound stays sound). The `m ≥ 16n` regime dispatches to the
//! Theorem-2 FPTAS exactly as Algorithm 3 does (Section 4.2.5).

use crate::convolve::maxplus_staircase;
use crate::dual::{approximate_view, DualAlgorithm};
use crate::fptas_large_m::FptasLargeM;
use crate::improved::ImprovedDual;
use crate::rounding::{round_knapsack_types, RoundedTypes};
use crate::schedule::Schedule;
use crate::shelves::ShelfContext;
use crate::solver::{MakespanSolver, SolveOutcome};
use crate::transform::TransformMode;
use moldable_core::compression::DoubleCompression;
use moldable_core::ratio::Ratio;
use moldable_core::types::{JobId, Procs, Time, Work};
use moldable_core::view::JobView;
use std::collections::BTreeMap;

/// Profit ceiling: every (max,+) partial sum must fit a u64 lane with
/// headroom. Total profit mass bounds every accumulator cell.
const PROFIT_LANE_LIMIT: u128 = (u64::MAX / 2) as u128;

/// The convolution dual algorithm: Algorithm 3 with the compressible
/// knapsack replaced by the exact (max,+) fold.
#[derive(Clone, Debug)]
pub struct ConvDual {
    eps: Ratio,
    dc: DoubleCompression,
}

impl ConvDual {
    /// Create for accuracy `ε ∈ (0, 1]` (δ = ε/5, as in Algorithm 3).
    pub fn new(eps: Ratio) -> Self {
        assert!(!eps.is_zero() && eps <= Ratio::one(), "need 0 < ε ≤ 1");
        let delta = eps.div_int(5);
        ConvDual {
            eps,
            dc: DoubleCompression::for_delta(delta),
        }
    }

    /// `d′ = (1+δ)²·d` as a rational (Lemma 19's assembly target).
    fn d_prime(&self, d: Time) -> Ratio {
        let one_plus_delta = self.dc.delta().one_plus();
        one_plus_delta.mul(&one_plus_delta).mul_int(d as u128)
    }
}

impl DualAlgorithm for ConvDual {
    fn guarantee(&self) -> Ratio {
        // Identical to Algorithm 3 (heap): exact ≥ approximate knapsack
        // profit, and the delegation paths carry the same bound.
        let one_plus_delta = self.dc.delta().one_plus();
        Ratio::new(3, 2).mul(&one_plus_delta).mul(&one_plus_delta)
    }

    fn name(&self) -> &'static str {
        "conv-knapsack"
    }

    fn run(&self, view: &JobView, d: Time) -> Option<Schedule> {
        // Section 4.2.5's dispatch, shared with Algorithm 3.
        if view.m() >= 16 * view.n() as u64 {
            return FptasLargeM::new(Ratio::new(1, 2)).run(view, d);
        }
        let ctx = ShelfContext::build(view, d)?;
        let rounded = round_knapsack_types(view, &ctx, &self.dc, d);
        let d_prime = self.d_prime(d);
        let assemble_choice = |mut chosen: Vec<JobId>| -> Option<Schedule> {
            chosen.extend(ctx.forced.iter().map(|&(id, _)| id));
            crate::assemble::assemble(view, &d_prime, &chosen, TransformMode::Exact)
        };
        // The exact (max,+) choice, and Algorithm 3's approximate choice
        // over the same rounded types: assemble both and keep the better
        // schedule, so a probe is never worse than Algorithm 3's at the
        // same target. When the overflow guard trips only the approximate
        // path runs — exactly Algorithm 3.
        let exact = conv_knapsack_choose(&rounded, ctx.capacity).and_then(&assemble_choice);
        let approx =
            assemble_choice(ImprovedDual::new(self.eps).bounded_choice(&rounded, ctx.capacity));
        match (exact, approx) {
            (Some(a), Some(b)) => Some(if a.makespan_view(view) <= b.makespan_view(view) {
                a
            } else {
                b
            }),
            (one, None) => one,
            (None, one) => one,
        }
    }
}

/// Solve the rounded bounded knapsack exactly by (max,+)-convolution and
/// return the chosen jobs, or `None` when the profit mass could overflow
/// a u64 lane (caller falls back to the approximate knapsack).
///
/// Deterministic: classes fold in ascending size order, units within a
/// class rank by (profit desc, job id asc), and backtracking takes the
/// smallest matching split.
pub fn conv_knapsack_choose(rounded: &RoundedTypes, capacity: Procs) -> Option<Vec<JobId>> {
    let cap_cells = (capacity as usize).checked_add(1)?;
    // Units grouped by rounded size. Every unit is one concrete job.
    let mut by_size: BTreeMap<Procs, Vec<(Work, JobId)>> = BTreeMap::new();
    let mut total_profit: u128 = 0;
    for (t, jobs) in rounded.types.iter().zip(&rounded.jobs_by_type) {
        if t.size > capacity {
            continue; // can never be chosen — even one unit overflows
        }
        total_profit = total_profit.saturating_add(t.profit.saturating_mul(jobs.len() as u128));
        by_size
            .entry(t.size)
            .or_default()
            .extend(jobs.iter().map(|&j| (t.profit, j)));
    }
    if total_profit >= PROFIT_LANE_LIMIT {
        return None; // u64 lanes could overflow — guard, delegate
    }

    // Fold each class's staircase (`prefix[q]` = its best `q` units),
    // saving each pre-fold accumulator for backtracking. Every
    // accumulator is non-decreasing, so the best profit sits in the last
    // cell.
    let classes: Vec<_> = by_size
        .into_iter()
        .map(|(s, mut units)| {
            units.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let prefix: Vec<Work> = std::iter::once(0)
                .chain(units.iter().scan(0, |sum, &(p, _)| {
                    *sum += p;
                    Some(*sum)
                }))
                .collect();
            (s, units, prefix)
        })
        .collect();
    let mut acc: Vec<u64> = vec![0];
    let mut snaps: Vec<Vec<u64>> = Vec::with_capacity(classes.len());
    for (size, _, prefix) in &classes {
        let folded = maxplus_staircase(&acc, *size, prefix, cap_cells);
        snaps.push(std::mem::replace(&mut acc, folded));
    }

    // Backtrack from the last cell. Cell `c` splits as `c − j` in the
    // previous accumulator plus `j` cells of this class's staircase, whose
    // step `q = ⌊j/s⌋` holds `prefix[q]`. Within a step the lowest cell
    // leaves the most accumulator, so the first witnessing split is the
    // lowest feasible cell of the first witnessing step.
    let mut chosen: Vec<JobId> = Vec::new();
    let mut c = acc.len() - 1;
    let mut value = acc[c];
    for ((size, units, prefix), prev) in classes.iter().zip(&snaps).rev() {
        let s = *size as usize;
        let j_lo = (c + 1).saturating_sub(prev.len());
        let (q, j) = (j_lo / s..=(c / s).min(units.len()))
            .map(|q| (q, (q * s).max(j_lo)))
            .find(|&(q, j)| prev[c - j] + prefix[q] as u64 == value)
            .expect("a (max,+) cell always has a witnessing split");
        chosen.extend(units.iter().take(q).map(|&(_, id)| id));
        c -= j;
        value = prev[c];
    }
    debug_assert_eq!(value, 0, "backtracking must land on the empty choice");
    Some(chosen)
}

/// `conv-fptas` as a registry [`MakespanSolver`]: the dual search around
/// [`ConvDual`] with a per-run certified ratio bound (the minimum of the
/// worst case and this run's own `makespan / L`, like `contiguous-73-50`).
#[derive(Clone, Debug)]
pub struct ConvFptasSolver {
    eps: Ratio,
}

impl ConvFptasSolver {
    /// Create for accuracy `ε ∈ (0, 1]`.
    pub fn new(eps: Ratio) -> Self {
        assert!(!eps.is_zero() && eps <= Ratio::one(), "need 0 < ε ≤ 1");
        ConvFptasSolver { eps }
    }
}

impl MakespanSolver for ConvFptasSolver {
    fn name(&self) -> &'static str {
        "conv-fptas"
    }

    fn solve(&self, view: &JobView, m: Procs) -> SolveOutcome {
        assert_eq!(m, view.m(), "solver invoked with a mismatched view");
        let algo = ConvDual::new(self.eps);
        let res = approximate_view(view, &algo, &self.eps);
        let makespan = res.schedule.makespan_view(view);
        let worst_case = algo.guarantee().mul(&self.eps.one_plus());
        let certificate = if res.lower_bound >= 1 {
            makespan.div_int(res.lower_bound as u128)
        } else {
            worst_case
        };
        SolveOutcome {
            makespan,
            ratio_bound: Some(worst_case.min(certificate)),
            lower_bound: Some(res.lower_bound),
            probes: res.probes,
            schedule: res.schedule,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::optimal_makespan;
    use crate::validate::{validate, validate_with_makespan};
    use moldable_core::instance::Instance;
    use moldable_core::speedup::{monotone_closure, SpeedupCurve};
    use moldable_knapsack::bounded::ItemType;
    use std::sync::Arc;

    fn xorshift(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    fn random_instance(seed: &mut u64, max_m: u64, max_n: u64) -> Instance {
        let m = xorshift(seed) % max_m + 1;
        let n = (xorshift(seed) % max_n + 1) as usize;
        let curves: Vec<SpeedupCurve> = (0..n)
            .map(|_| {
                let len = m.min(40) as usize;
                let mut tbl: Vec<u64> = (0..len).map(|_| xorshift(seed) % 30 + 1).collect();
                monotone_closure(&mut tbl);
                SpeedupCurve::Table(Arc::new(tbl))
            })
            .collect();
        Instance::new(curves, m)
    }

    fn types(raw: &[(Procs, Work, u64)]) -> RoundedTypes {
        let mut next_id: JobId = 0;
        let mut ts = Vec::new();
        let mut jobs = Vec::new();
        for (i, &(size, profit, count)) in raw.iter().enumerate() {
            ts.push(ItemType {
                type_id: i as u32,
                size,
                profit,
                count,
                compressible: false,
            });
            jobs.push(
                (0..count)
                    .map(|_| {
                        next_id += 1;
                        next_id - 1
                    })
                    .collect(),
            );
        }
        RoundedTypes {
            types: ts,
            jobs_by_type: jobs,
        }
    }

    /// Exhaustive 0/1 oracle over the expanded units.
    fn brute_best(rounded: &RoundedTypes, capacity: Procs) -> u128 {
        let mut units: Vec<(Procs, Work)> = Vec::new();
        for t in &rounded.types {
            for _ in 0..t.count {
                units.push((t.size, t.profit));
            }
        }
        let mut best = 0u128;
        for mask in 0u32..(1 << units.len()) {
            let (mut sz, mut pf) = (0u128, 0u128);
            for (i, &(s, p)) in units.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    sz += s as u128;
                    pf += p;
                }
            }
            if sz <= capacity as u128 {
                best = best.max(pf);
            }
        }
        best
    }

    #[test]
    fn conv_choice_is_exact_on_small_knapsacks() {
        let mut seed = 0xBEEF_F00D_1234u64;
        for round in 0..60 {
            let n_types = (xorshift(&mut seed) % 4 + 1) as usize;
            let raw: Vec<(Procs, Work, u64)> = (0..n_types)
                .map(|_| {
                    (
                        xorshift(&mut seed) % 6 + 1,
                        (xorshift(&mut seed) % 50) as Work,
                        xorshift(&mut seed) % 3 + 1,
                    )
                })
                .collect();
            let rounded = types(&raw);
            let capacity = xorshift(&mut seed) % 12 + 1;
            let chosen = conv_knapsack_choose(&rounded, capacity).expect("guards off");
            // Recover the chosen profit/size through the unit lists.
            let mut profit: u128 = 0;
            let mut size: u128 = 0;
            for id in &chosen {
                let ti = rounded
                    .jobs_by_type
                    .iter()
                    .position(|js| js.contains(id))
                    .unwrap();
                profit += rounded.types[ti].profit;
                size += rounded.types[ti].size as u128;
            }
            assert!(size <= capacity as u128, "round {round}: over capacity");
            assert_eq!(
                profit,
                brute_best(&rounded, capacity),
                "round {round}: not exact for {raw:?} cap {capacity}"
            );
            // Determinism: same input, same job ids in the same order.
            assert_eq!(chosen, conv_knapsack_choose(&rounded, capacity).unwrap());
        }
    }

    #[test]
    fn overflow_guard_delegates() {
        let rounded = types(&[(1, u64::MAX as Work, 2)]);
        assert!(conv_knapsack_choose(&rounded, 4).is_none());
    }

    #[test]
    fn ties_take_the_smallest_split() {
        // Job 0 (size 1) and job 1 (size 2) each earn 5, and only one
        // fits in capacity 2. Backtracking takes the smallest witnessing
        // split of the last class, so job 1's class contributes nothing.
        let rounded = types(&[(1, 5, 1), (2, 5, 1)]);
        assert_eq!(conv_knapsack_choose(&rounded, 2), Some(vec![0]));
    }

    #[test]
    fn one_large_class_folds_exactly() {
        // 2^20 unit-size jobs of profit 1 at capacity 2^20 − 1: the best
        // choice is any 2^20 − 1 of them, the lowest ids first.
        let cap = (1 << 20) - 1;
        let rounded = types(&[(1, 1, 1 << 20)]);
        let chosen = conv_knapsack_choose(&rounded, cap).expect("no overflow");
        assert_eq!(chosen, (0..cap as JobId).collect::<Vec<_>>());
    }

    #[test]
    fn guarantee_matches_algorithm3_heap() {
        for (num, den) in [(1u128, 1u128), (1, 2), (1, 4), (1, 10)] {
            let eps = Ratio::new(num, den);
            assert_eq!(
                ConvDual::new(eps).guarantee(),
                ImprovedDual::new(eps).guarantee()
            );
            assert!(ConvDual::new(eps).guarantee() <= Ratio::new(3, 2).add(&eps));
        }
    }

    #[test]
    fn dual_contract_on_tiny_instances() {
        let mut seed = 0xC0D0_CAFE_u64;
        let algo = ConvDual::new(Ratio::new(1, 2));
        for round in 0..40 {
            let inst = random_instance(&mut seed, 3, 4);
            let opt = optimal_makespan(&inst);
            let opt_int = opt.ceil() as Time;
            let view = JobView::build(&inst);
            for d in opt_int..opt_int + 2 {
                let s = algo.run(&view, d).unwrap_or_else(|| {
                    panic!("round {round}: rejected feasible d={d} (OPT={opt})")
                });
                let bound = algo.guarantee().mul_int(d as u128);
                validate_with_makespan(&s, &inst, &bound)
                    .unwrap_or_else(|e| panic!("round {round}, d={d}: {e}"));
            }
        }
    }

    #[test]
    fn solver_beats_or_matches_algorithm3() {
        // The exact knapsack saves at least as much work per probe; over
        // the whole search conv-fptas should never lose to alg3 here.
        let mut seed = 0xFACE_00FF_u64;
        let eps = Ratio::new(1, 2);
        for round in 0..25 {
            let inst = random_instance(&mut seed, 10, 8);
            let view = JobView::build(&inst);
            let conv = ConvFptasSolver::new(eps).solve(&view, view.m());
            validate(&conv.schedule, &inst).unwrap_or_else(|e| panic!("round {round}: {e}"));
            let bound = conv.ratio_bound.expect("conv-fptas certifies a ratio");
            let lb = conv.lower_bound.expect("dual search proves a lower bound");
            assert!(
                conv.makespan <= bound.mul_int(lb as u128),
                "round {round}: certificate unsound"
            );
        }
    }

    #[test]
    fn wide_machines_dispatch_to_fptas() {
        // m ≥ 16n: the run must come back through the Theorem-2 path.
        let inst = Instance::new(vec![SpeedupCurve::Constant(4); 2], 64);
        let view = JobView::build(&inst);
        let out = ConvFptasSolver::new(Ratio::new(1, 4)).solve(&view, 64);
        validate(&out.schedule, &inst).unwrap();
        assert_eq!(out.makespan, Ratio::from(4u64));
    }
}
