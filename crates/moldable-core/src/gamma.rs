//! Canonical allotments `γ_j(t)` (Section 3 of the paper).
//!
//! `γ_j(t) = min{ p ∈ [m] | t_j(p) ≤ t }` is the least number of processors
//! on which job `j` finishes within the threshold `t`. Because processing
//! times are non-increasing in `p`, `γ_j(t)` is found by binary search in
//! `O(log m)` oracle calls — this is the workhorse primitive of every
//! algorithm in the paper. For monotone jobs, `γ_j(t)` also *minimizes the
//! work* among all allotments meeting the threshold, which is what makes the
//! two-shelf knapsack argument sound.

use crate::job::Job;
use crate::ratio::Ratio;
use crate::types::{Procs, Time};

/// `γ_j(threshold)` over `p ∈ [1, m]`: the least processor count whose
/// processing time is at most `threshold`, or `None` if even `t_j(m)`
/// exceeds it.
///
/// Exactly `⌈log2 m⌉ + O(1)` oracle calls.
///
/// ```
/// use moldable_core::{gamma, Job, Ratio, SpeedupCurve};
///
/// // t(p) = ⌈1000/p⌉ + (p−1): γ(100) is the least p with t(p) ≤ 100.
/// let job = Job::new(0, SpeedupCurve::ideal_with_overhead(1000, 1, 64));
/// let p = gamma(&job, &Ratio::from(100u64), 64).unwrap();
/// assert!(job.time(p) <= 100);
/// assert!(job.time(p - 1) > 100); // minimality
/// assert_eq!(gamma(&job, &Ratio::from(1u64), 64), None); // unreachable
/// ```
pub fn gamma(job: &Job, threshold: &Ratio, m: Procs) -> Option<Procs> {
    gamma_curve(job.curve(), threshold, m)
}

/// [`gamma`] directly on a [`crate::speedup::SpeedupCurve`] — the oracle-backed binary
/// search. [`crate::view::JobView::gamma`] serves the same answer from a
/// materialized staircase in `O(log k)` with zero oracle calls; this
/// remains the fallback for non-materialized jobs.
pub fn gamma_curve(
    curve: &crate::speedup::SpeedupCurve,
    threshold: &Ratio,
    m: Procs,
) -> Option<Procs> {
    debug_assert!(m >= 1);
    if !time_le(curve.time(m), threshold) {
        return None;
    }
    if time_le(curve.time(1), threshold) {
        return Some(1);
    }
    // Invariant: t(lo) > threshold ≥ t(hi).
    let (mut lo, mut hi) = (1, m);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if time_le(curve.time(mid), threshold) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// Convenience: `γ_j(t)` for an integral threshold.
pub fn gamma_int(job: &Job, threshold: Time, m: Procs) -> Option<Procs> {
    gamma(job, &Ratio::from(threshold), m)
}

/// `t ≤ threshold` with exact rational comparison.
#[inline]
pub fn time_le(t: Time, threshold: &Ratio) -> bool {
    threshold.ge_int(t as u128)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speedup::{monotone_closure, SpeedupCurve, Staircase};
    use std::sync::Arc;

    fn table_job(times: Vec<Time>) -> Job {
        Job::new(0, SpeedupCurve::Table(Arc::new(times)))
    }

    #[test]
    fn gamma_minimal_on_table() {
        let j = table_job(vec![10, 6, 4, 4, 3]);
        let m = 5;
        assert_eq!(gamma_int(&j, 10, m), Some(1));
        assert_eq!(gamma_int(&j, 9, m), Some(2));
        assert_eq!(gamma_int(&j, 6, m), Some(2));
        assert_eq!(gamma_int(&j, 5, m), Some(3));
        assert_eq!(gamma_int(&j, 4, m), Some(3));
        assert_eq!(gamma_int(&j, 3, m), Some(5));
        assert_eq!(gamma_int(&j, 2, m), None);
    }

    #[test]
    fn gamma_rational_threshold() {
        let j = table_job(vec![10, 5]);
        // threshold 9/2 = 4.5: t(1)=10 > 4.5, t(2)=5 > 4.5 → None
        assert_eq!(gamma(&j, &Ratio::new(9, 2), 2), None);
        // threshold 11/2 = 5.5 → γ = 2
        assert_eq!(gamma(&j, &Ratio::new(11, 2), 2), Some(2));
    }

    #[test]
    fn gamma_on_huge_staircase_uses_log_m() {
        // m = 2^40; binary search must terminate fast and exactly.
        // (t0 must exceed p1 for a strict time drop to be feasible.)
        let t0: Time = 1 << 50;
        let p1: Procs = 1 << 30;
        let t1 = Staircase::min_feasible_time(p1, t0);
        let s = Staircase::new(vec![(1, t0), (p1, t1)]).unwrap();
        let j = Job::new(0, SpeedupCurve::Staircase(Arc::new(s)));
        let m: Procs = 1 << 40;
        assert_eq!(gamma_int(&j, t0, m), Some(1));
        // Exactly at t1 the minimal count is the breakpoint itself.
        assert_eq!(gamma_int(&j, t1, m), Some(p1));
        assert_eq!(gamma_int(&j, t1 - 1, m), None);
    }

    #[test]
    fn gamma_brute_force_agreement() {
        // Cross-check γ against a linear scan on many random-ish monotone tables.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..200 {
            let m = (next() % 24 + 1) as usize;
            let mut tbl: Vec<Time> = (0..m).map(|_| next() % 50 + 1).collect();
            monotone_closure(&mut tbl);
            let j = table_job(tbl.clone());
            for thr in 0..=51u64 {
                let expect = (1..=m as Procs).find(|&p| tbl[p as usize - 1] <= thr);
                assert_eq!(
                    gamma_int(&j, thr, m as Procs),
                    expect,
                    "table {tbl:?}, threshold {thr}"
                );
            }
        }
    }
}
