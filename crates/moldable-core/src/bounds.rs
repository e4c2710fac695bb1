//! Lower bounds on the optimal makespan.
//!
//! Used by tests and benchmarks to certify approximation quality on instances
//! too large for the exact solver: `ratio_vs_lower_bound ≥ ratio_vs_OPT`.

use crate::instance::Instance;
use crate::types::{JobId, Time, Work};
use crate::view::JobView;

/// `max_j t_j(m)`: no schedule can beat the most parallel execution of the
/// least parallelizable job.
pub fn critical_path_bound(inst: &Instance) -> Time {
    inst.jobs()
        .iter()
        .map(|j| j.time(inst.m()))
        .max()
        .unwrap_or(0)
}

/// `⌈Σ_j w_j(1) / m⌉` — total-work bound using each job's *minimum* work.
/// For monotone jobs the single-processor work `w_j(1) = t_j(1)` is minimal,
/// so this is a valid average-load lower bound.
pub fn area_bound(inst: &Instance) -> Time {
    let total: Work = inst.jobs().iter().map(|j| j.work(1)).sum();
    total.div_ceil(inst.m() as Work) as Time
}

/// The combined trivial lower bound `max(critical path, area)`.
pub fn trivial_lower_bound(inst: &Instance) -> Time {
    critical_path_bound(inst).max(area_bound(inst))
}

/// A stronger parametric lower bound: `d` is infeasible if
/// `Σ_j w_j(γ_j(d)) > m·d` (any schedule of makespan `d` allots each job at
/// least `γ_j(d)` processors… its work is then at least `w_j(γ_j(d))` by work
/// monotonicity), or if some `γ_j(d)` is undefined. Returns the largest
/// integer `d` that is *infeasible by this test* plus one — a valid lower
/// bound at least as strong as [`trivial_lower_bound`].
///
/// Convenience wrapper over [`parametric_lower_bound_view`] (the search
/// probes `γ` heavily, so it runs on a [`JobView`] snapshot).
pub fn parametric_lower_bound(inst: &Instance) -> Time {
    parametric_lower_bound_view(&JobView::build(inst))
}

/// Sum of sequential times — a safe upper bound on OPT (run everything on one
/// machine back to back).
pub fn upper_bound_seq(inst: &Instance) -> Time {
    let total = inst.total_seq_time();
    debug_assert!(total <= Time::MAX as u128, "instance too large");
    total as Time
}

/// [`upper_bound_seq`] from a [`JobView`] — `O(n)` over the cached
/// sequential times, no oracle calls.
pub fn upper_bound_seq_view(view: &JobView) -> Time {
    let total = view.total_seq_time();
    debug_assert!(total <= Time::MAX as u128, "instance too large");
    total as Time
}

/// [`parametric_lower_bound`] through a prebuilt [`JobView`]: each
/// probe's `n` γ-queries are served as array lookups, and no probe
/// allocates. For `n ≥ 1` this is also the factor-2 estimator's `ω`
/// (Section 3), which bisects on the same test.
pub fn parametric_lower_bound_view(view: &JobView) -> Time {
    let (mut lo, mut hi) = (0u64, upper_bound_seq_view(view).max(1));
    debug_assert!(feasible_by_test_view(view, hi));
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if feasible_by_test_view(view, mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

fn feasible_by_test_view(view: &JobView, d: Time) -> bool {
    if d == 0 {
        return view.n() == 0;
    }
    let mut total: Work = 0;
    for j in 0..view.n() as JobId {
        match view.gamma_int(j, d) {
            None => return false,
            Some(p) => total += view.work(j, p),
        }
    }
    total <= (view.m() as Work) * (d as Work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::gamma;
    use crate::ratio::Ratio;
    use crate::speedup::SpeedupCurve;

    fn two_constant_jobs() -> Instance {
        Instance::new(
            vec![SpeedupCurve::Constant(4), SpeedupCurve::Constant(6)],
            2,
        )
    }

    #[test]
    fn trivial_bounds() {
        let inst = two_constant_jobs();
        assert_eq!(critical_path_bound(&inst), 6);
        assert_eq!(area_bound(&inst), 5);
        assert_eq!(trivial_lower_bound(&inst), 6);
        assert_eq!(upper_bound_seq(&inst), 10);
    }

    #[test]
    fn parametric_at_least_trivial() {
        let inst = two_constant_jobs();
        let p = parametric_lower_bound(&inst);
        assert!(p >= trivial_lower_bound(&inst));
        // Here OPT = 6 (run in parallel), and the parametric bound reaches it:
        assert_eq!(p, 6);
    }

    #[test]
    fn parametric_bound_is_sound_on_tables() {
        use crate::speedup::monotone_closure;
        use std::sync::Arc;
        // OPT of [10,6,4] + [8,8,8] on m=3: the parametric bound must not
        // exceed any feasible makespan; the all-parallel schedule proves
        // OPT ≤ ... just check bound ≤ seq upper bound and ≥ trivial.
        let mut t1 = vec![10, 6, 4];
        let mut t2 = vec![8, 8, 8];
        monotone_closure(&mut t1);
        monotone_closure(&mut t2);
        let inst = Instance::new(
            vec![
                SpeedupCurve::Table(Arc::new(t1)),
                SpeedupCurve::Table(Arc::new(t2)),
            ],
            3,
        );
        let p = parametric_lower_bound(&inst);
        assert!(p >= trivial_lower_bound(&inst));
        assert!(p <= upper_bound_seq(&inst));
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![], 3);
        assert_eq!(trivial_lower_bound(&inst), 0);
        assert_eq!(parametric_lower_bound(&inst), 1); // smallest feasible probe
    }

    #[test]
    fn view_bounds_agree_with_oracle_bounds() {
        use crate::speedup::monotone_closure;
        use std::sync::Arc;
        let mut seed = 0x0DDB_A11D_0DDB_A11Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..40 {
            let m = next() % 12 + 1;
            let n = (next() % 7 + 1) as usize;
            let curves: Vec<SpeedupCurve> = (0..n)
                .map(|_| {
                    let mut tbl: Vec<u64> = (0..m as usize).map(|_| next() % 40 + 1).collect();
                    monotone_closure(&mut tbl);
                    SpeedupCurve::Table(Arc::new(tbl))
                })
                .collect();
            let inst = Instance::new(curves, m);
            let view = JobView::build(&inst);
            assert_eq!(upper_bound_seq_view(&view), upper_bound_seq(&inst));
            // The view path must agree with a direct oracle re-derivation.
            let oracle_parametric = {
                let feasible = |d: Time| -> bool {
                    let thr = Ratio::from(d);
                    let mut total: Work = 0;
                    for j in inst.jobs() {
                        match gamma(j, &thr, inst.m()) {
                            None => return false,
                            Some(p) => total += j.work(p),
                        }
                    }
                    total <= (inst.m() as Work) * (d as Work)
                };
                let (mut lo, mut hi) = (0u64, upper_bound_seq(&inst).max(1));
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if feasible(mid) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                hi
            };
            assert_eq!(parametric_lower_bound_view(&view), oracle_parametric);
            assert!(parametric_lower_bound(&inst) >= trivial_lower_bound(&inst));
        }
    }
}
