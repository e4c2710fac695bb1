//! Algorithm 3 (Section 4.3): the improved `(3/2+ε)`-dual algorithm via
//! item-type rounding and the bounded knapsack, plus its linear-time variant
//! (Section 4.3.3).
//!
//! With `δ = ε/5` (and the rational `ρ = δ/12` of Lemma 16, see
//! `moldable_core::compression`), jobs are rounded to
//! `O(poly(1/δ)·log m)` item types:
//!
//! * processor counts `γ_j(d), γ_j(d/2)` above `b = ⌈1/(2ρ−ρ²)⌉` are rounded
//!   **down** onto `geom(b, m, 1+ρ)` (Section 4.3.1);
//! * processing times of jobs wide in a shelf are rounded **down** onto
//!   `geom(s/2, s, 1+4ρ)` — by Lemma 17 only `O(1/δ)` values occur, and by
//!   Lemma 18 wide jobs use only the top two;
//! * profits of jobs narrow in both shelves are rounded to `0` (below
//!   `δd/2`) or **up** to their top `bitlen(⌈b/δ⌉) + 1` significant bits,
//!   within the factor `1+δ/b` that Lemma 19 charges the paper's grid
//!   `geom(δd/2, bd/2, 1+δ/b)` ([`crate::rounding::ProfitRounding`]).
//!
//! Identically-rounded jobs form one bounded-knapsack type; binary container
//! splitting plus Algorithm 2 solves the whole thing in time polynomial in
//! `1/ε` and `log m` and *independent of n* (beyond the initial rounding
//! pass). The schedule is then assembled at `d′ = (1+δ)²d` (Lemma 19).

use crate::assemble::assemble;
use crate::dual::DualAlgorithm;
use crate::fptas_large_m::FptasLargeM;
use crate::rounding::{round_knapsack_types, RoundedTypes};
use crate::schedule::Schedule;
use crate::shelves::ShelfContext;
use crate::transform::TransformMode;
use moldable_core::compression::DoubleCompression;
use moldable_core::ratio::Ratio;
use moldable_core::types::{JobId, Procs, Time};
use moldable_core::view::JobView;
use moldable_knapsack::bounded::solve_bounded;
use moldable_knapsack::compressible::CompressibleParams;

/// Which transformation discipline the final assembly uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Section 4.3: exact times + heap in the transformation
    /// (`O(… + n log n)`).
    Heap,
    /// Section 4.3.3: bucketed rounded times (`O(n/δ)`), fully linear in `n`.
    Bucketed,
}

/// Algorithm 3 and its linear variant.
#[derive(Clone, Debug)]
pub struct ImprovedDual {
    eps: Ratio,
    dc: DoubleCompression,
    variant: Variant,
    dispatch_large_m: bool,
}

impl ImprovedDual {
    /// The Section 4.3 algorithm (heap transformation) for `ε ∈ (0, 1]`.
    pub fn new(eps: Ratio) -> Self {
        Self::with_variant(eps, Variant::Heap)
    }

    /// The Section 4.3.3 fully linear algorithm.
    pub fn new_linear(eps: Ratio) -> Self {
        Self::with_variant(eps, Variant::Bucketed)
    }

    /// Choose the variant explicitly.
    pub fn with_variant(eps: Ratio, variant: Variant) -> Self {
        assert!(!eps.is_zero() && eps <= Ratio::one(), "need 0 < ε ≤ 1");
        let delta = eps.div_int(5);
        let dc = DoubleCompression::for_delta(delta);
        let algo = ImprovedDual {
            eps,
            dc,
            variant,
            dispatch_large_m: true,
        };
        debug_assert!(
            algo.guarantee() <= Ratio::new(3, 2).add(&eps),
            "parameter choice must keep the guarantee within 3/2 + ε"
        );
        algo
    }

    /// The width threshold `b` of Lemma 16.
    pub fn b(&self) -> Procs {
        self.dc.b()
    }

    /// The accuracy ε this algorithm was constructed with.
    pub fn eps(&self) -> &Ratio {
        &self.eps
    }

    /// Disable the Section 4.2.5 `m ≥ 16n` dispatch to the Theorem-2
    /// FPTAS. **For benchmarking the knapsack path only** — the bounded
    /// knapsack's `βmax = m = O(n)` argument needs `m < 16n`.
    pub fn without_large_m_dispatch(mut self) -> Self {
        self.dispatch_large_m = false;
        self
    }

    fn delta(&self) -> &Ratio {
        self.dc.delta()
    }

    /// `d′ = (1+δ)²·d` as a rational.
    fn d_prime(&self, d: Time) -> Ratio {
        let one_plus_delta = self.delta().one_plus();
        one_plus_delta.mul(&one_plus_delta).mul_int(d as u128)
    }

    /// Algorithm 3's S1 choice over pre-rounded types (Section 4.3.2):
    /// the compressible bounded knapsack, expanded back to concrete jobs.
    /// Shared with [`crate::conv_fptas`], which races this choice against
    /// its exact convolution choice probe by probe.
    pub(crate) fn bounded_choice(&self, rounded: &RoundedTypes, capacity: Procs) -> Vec<JobId> {
        let b = self.b();
        let rho = self.dc.rho();
        let types = &rounded.types;
        let alpha_min = types
            .iter()
            .filter(|t| t.compressible)
            .map(|t| t.size)
            .min()
            .unwrap_or(b);
        // A solution never holds more compressible jobs than exist.
        let n_compressible: u64 = types
            .iter()
            .filter(|t| t.compressible)
            .map(|t| t.count)
            .sum();
        let params = CompressibleParams {
            rho: rho.div_int(2),
            alpha_min,
            beta_max: capacity,
            n_bar: (2 * capacity / b.max(1)).min(n_compressible.max(1)).max(1),
        };
        let bounded = solve_bounded(types, capacity, &params);

        // Expand type counts back to concrete jobs (jobs of a type are
        // interchangeable after rounding — Lemma 19 accounts for the
        // error).
        let mut chosen: Vec<JobId> = Vec::new();
        for &(type_id, units) in &bounded.counts {
            let jobs = &rounded.jobs_by_type[type_id as usize];
            chosen.extend(jobs.iter().take(units as usize));
        }
        chosen
    }
}

impl DualAlgorithm for ImprovedDual {
    fn guarantee(&self) -> Ratio {
        let one_plus_delta = self.delta().one_plus();
        let base = Ratio::new(3, 2).mul(&one_plus_delta).mul(&one_plus_delta);
        match self.variant {
            Variant::Heap => base,
            Variant::Bucketed => base.mul(&self.dc.rho().mul_int(4).one_plus()),
        }
    }

    fn name(&self) -> &'static str {
        match self.variant {
            Variant::Heap => "improved-bounded-knapsack",
            Variant::Bucketed => "linear-bounded-knapsack",
        }
    }

    fn run(&self, view: &JobView, d: Time) -> Option<Schedule> {
        // Section 4.2.5's dispatch (shared by Section 4.3): for m ≥ 16n
        // the Theorem-2 FPTAS at ε = 1/2 is already a 3/2-dual algorithm,
        // and the knapsack bounds below (βmax = m = O(n)) rely on m < 16n.
        if self.dispatch_large_m && view.m() >= 16 * view.n() as u64 {
            return FptasLargeM::new(Ratio::new(1, 2)).run(view, d);
        }
        let ctx = ShelfContext::build(view, d)?;
        let stretch = self.dc.rho().mul_int(4).one_plus(); // 1 + 4ρ

        // Round every knapsack job to a type (Section 4.3.1, shared with
        // the convolution solver — see `crate::rounding`), then pick the
        // S1 set via the compressible bounded knapsack (Section 4.3.2).
        let rounded = round_knapsack_types(view, &ctx, &self.dc, d);
        let mut chosen = self.bounded_choice(&rounded, ctx.capacity);
        chosen.extend(ctx.forced.iter().map(|&(id, _)| id));

        let d_prime = self.d_prime(d);
        let mode = match self.variant {
            Variant::Heap => TransformMode::Exact,
            Variant::Bucketed => TransformMode::Bucketed { stretch },
        };
        assemble(view, &d_prime, &chosen, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::approximate;
    use crate::exact::optimal_makespan;
    use crate::validate::{validate, validate_with_makespan};
    use moldable_core::instance::Instance;
    use moldable_core::speedup::{monotone_closure, SpeedupCurve};
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

    #[test]
    fn guarantees_within_three_halves_plus_eps() {
        for (num, den) in [(1u128, 1u128), (1, 2), (1, 4), (1, 10), (1, 100)] {
            let eps = Ratio::new(num, den);
            let bound = Ratio::new(3, 2).add(&eps);
            assert!(ImprovedDual::new(eps).guarantee() <= bound);
            assert!(ImprovedDual::new_linear(eps).guarantee() <= bound);
        }
    }

    #[test]
    fn dual_contract_on_tiny_instances_heap() {
        let mut seed = 0x600D_CAFE_600D_CAFEu64;
        let algo = ImprovedDual::new(Ratio::new(1, 2));
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
    fn dual_contract_on_tiny_instances_bucketed() {
        let mut seed = 0xB0CA_B0CA_B0CA_B0CAu64;
        let algo = ImprovedDual::new_linear(Ratio::new(1, 2));
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
    fn full_approximation_both_variants() {
        let mut seed = 0xAB1E_AB1E_AB1E_AB1Eu64;
        let eps = Ratio::new(1, 2);
        for round in 0..20 {
            let inst = random_instance(&mut seed, 4, 4);
            let opt = optimal_makespan(&inst);
            for algo in [ImprovedDual::new(eps), ImprovedDual::new_linear(eps)] {
                let res = approximate(&inst, &algo, &eps);
                validate(&res.schedule, &inst).unwrap();
                let bound = algo.guarantee().mul(&eps.one_plus()).mul(&opt);
                let mk = res.schedule.makespan(&inst);
                assert!(
                    mk <= bound,
                    "round {round} ({}): makespan {mk} > {bound} (OPT {opt})",
                    algo.name()
                );
            }
        }
    }

    #[test]
    fn wide_machines_exercise_rounding_grids() {
        // m = 4096 with wide jobs: force the proc-grid path.
        let mut seed = 0xD15E_A5ED_D15E_A5EDu64;
        let algo = ImprovedDual::new(Ratio::one());
        for _ in 0..5 {
            let n = 6;
            let m: u64 = 4096;
            let curves: Vec<SpeedupCurve> = (0..n)
                .map(|_| {
                    // Staircase dropping steeply so γ can be large.
                    let t0 = 1u64 << 14;
                    let mut steps = vec![(1u64, t0)];
                    let mut p = 2u64;
                    let mut t = t0;
                    while p < m && t > 2 {
                        let lo = moldable_core::speedup::Staircase::min_feasible_time(p, t);
                        if lo >= t {
                            break;
                        }
                        t = lo.max(t / 2).min(t - 1);
                        steps.push((p, t));
                        p *= 1 + (xorshift(&mut seed) % 3 + 1);
                    }
                    SpeedupCurve::Staircase(Arc::new(
                        moldable_core::speedup::Staircase::new(steps).unwrap(),
                    ))
                })
                .collect();
            let inst = Instance::new(curves, m);
            let d = moldable_core::bounds::upper_bound_seq(&inst);
            let s = algo
                .run(&JobView::build(&inst), d)
                .expect("d ≥ OPT accepted");
            validate(&s, &inst).unwrap();
        }
    }
}
