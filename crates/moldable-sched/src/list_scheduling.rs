//! List scheduling for a *fixed allotment* (rigid parallel jobs).
//!
//! Two disciplines:
//!
//! * [`list_schedule`] — **strict order**: a job never starts before every
//!   earlier-listed job has started. This is the semantics of Theorem 1's
//!   NP-membership procedure (guess an order, then list-schedule): ordering
//!   jobs by the start times of an optimal schedule reproduces an optimal
//!   makespan, which is what the exhaustive exact solver enumerates.
//! * [`greedy_schedule`] — **any fit**: at every event, start every job of
//!   the remaining list that fits. With the estimator's canonical allotment
//!   (`W/m ≤ ω` and `t_max ≤ ω`), Garey–Graham-style accounting bounds the
//!   greedy makespan by `2ω` (Section 3, citing \[5\]) — this realizes
//!   `OPT ≤ 2ω` and the classic 2-approximation.
//!
//! Event-driven implementations: `O(n log n)` / `O(n²)` worst case for the
//! greedy rescan (linear in practice; only used with `n` jobs at bench
//! scale).

use crate::schedule::Schedule;
use moldable_core::ratio::Ratio;
use moldable_core::types::{JobId, Procs, Time};
use moldable_core::view::JobView;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Schedule the jobs in `order` with processor counts `allotment[j]`.
///
/// `allotment` is indexed by job id; every job in `order` must have an
/// allotment in `1..=m`. Jobs not listed in `order` are not scheduled
/// (callers pass a permutation of all ids for a complete schedule).
pub fn list_schedule(view: &JobView, allotment: &[Procs], order: &[JobId]) -> Schedule {
    let m = view.m();
    let mut schedule = Schedule::new();
    // Min-heap of (end_time, procs) of running jobs.
    let mut running: BinaryHeap<Reverse<(Time, Procs)>> = BinaryHeap::new();
    let mut free = m;
    let mut now: Time = 0;
    for &j in order {
        let need = allotment[j as usize];
        debug_assert!(need >= 1 && need <= m, "allotment out of range");
        while free < need {
            let Reverse((end, procs)) = running.pop().expect("demand can always be met");
            now = now.max(end);
            free += procs;
            // Release everything else ending at the same instant.
            while let Some(&Reverse((e, p))) = running.peek() {
                if e <= now {
                    running.pop();
                    free += p;
                } else {
                    break;
                }
            }
        }
        let dur = view.time(j, need);
        schedule.push(j, Ratio::from(now), need);
        running.push(Reverse((now + dur, need)));
        free -= need;
    }
    schedule
}

/// Any-fit greedy scheduling: at every event, scan the remaining list and
/// start every job that currently fits. `order` must list each job at most
/// once; unlisted jobs are not scheduled.
pub fn greedy_schedule(view: &JobView, allotment: &[Procs], order: &[JobId]) -> Schedule {
    let m = view.m();
    let mut schedule = Schedule::new();
    let mut running: BinaryHeap<Reverse<(Time, Procs)>> = BinaryHeap::new();
    let mut free = m;
    let mut now: Time = 0;
    let mut pending: Vec<JobId> = order.to_vec();
    while !pending.is_empty() {
        // Start everything that fits, preserving list order.
        let mut started_any = false;
        pending.retain(|&j| {
            let need = allotment[j as usize];
            debug_assert!(need >= 1 && need <= m);
            if need <= free {
                let dur = view.time(j, need);
                schedule.push(j, Ratio::from(now), need);
                running.push(Reverse((now + dur, need)));
                free -= need;
                started_any = true;
                false
            } else {
                true
            }
        });
        if pending.is_empty() {
            break;
        }
        if !started_any || free == 0 {
            // Advance to the next completion event.
            let Reverse((end, procs)) = running.pop().expect("jobs must be running");
            now = now.max(end);
            free += procs;
            while let Some(&Reverse((e, p))) = running.peek() {
                if e <= now {
                    running.pop();
                    free += p;
                } else {
                    break;
                }
            }
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;
    use moldable_core::instance::Instance;
    use moldable_core::speedup::{monotone_closure, SpeedupCurve};
    use std::sync::Arc;

    fn xorshift(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    #[test]
    fn simple_two_machines() {
        let inst = Instance::new(
            vec![
                SpeedupCurve::Constant(3),
                SpeedupCurve::Constant(5),
                SpeedupCurve::Constant(2),
            ],
            2,
        );
        let allot = vec![1, 1, 1];
        let order = vec![0, 1, 2];
        let s = list_schedule(&JobView::build(&inst), &allot, &order);
        validate(&s, &inst).unwrap();
        // 0 and 1 start at 0; 2 starts when 0 ends (t=3); makespan 5.
        assert_eq!(s.makespan(&inst), Ratio::from(5u64));
    }

    #[test]
    fn wide_job_waits_for_enough_processors() {
        let inst = Instance::new(
            vec![SpeedupCurve::Constant(4), SpeedupCurve::Constant(4)],
            3,
        );
        let allot = vec![2, 2];
        let s = list_schedule(&JobView::build(&inst), &allot, &[0, 1]);
        validate(&s, &inst).unwrap();
        assert_eq!(s.makespan(&inst), Ratio::from(8u64));
    }

    #[test]
    fn greedy_respects_two_omega_bound_randomized() {
        // The estimator's contract: greedy any-fit scheduling stays within
        // 2·max(W/m, t_max) for every allotment and order.
        let mut seed = 0xC0FF_EE00_DEAD_F00Du64;
        for round in 0..300 {
            let m = xorshift(&mut seed) % 6 + 1;
            let n = (xorshift(&mut seed) % 9 + 1) as usize;
            let curves: Vec<SpeedupCurve> = (0..n)
                .map(|_| {
                    let mut tbl: Vec<u64> =
                        (0..m).map(|_| xorshift(&mut seed) % 30 + 1).collect();
                    monotone_closure(&mut tbl);
                    SpeedupCurve::Table(Arc::new(tbl))
                })
                .collect();
            let inst = Instance::new(curves, m);
            let allot: Vec<u64> = (0..n).map(|_| xorshift(&mut seed) % m + 1).collect();
            let order: Vec<u32> = (0..n as u32).collect();
            let s = greedy_schedule(&JobView::build(&inst), &allot, &order);
            validate(&s, &inst).unwrap();
            let w: u128 = inst
                .jobs()
                .iter()
                .map(|j| j.work(allot[j.id() as usize]))
                .sum();
            let tmax = inst
                .jobs()
                .iter()
                .map(|j| j.time(allot[j.id() as usize]))
                .max()
                .unwrap();
            let omega = Ratio::new(w, m as u128).max(Ratio::from(tmax));
            let bound = omega.mul_int(2);
            assert!(
                s.makespan(&inst) <= bound,
                "round {round}: makespan {} > 2ω = {}",
                s.makespan(&inst),
                bound
            );
        }
    }

    #[test]
    fn strict_order_schedules_all_jobs_validly() {
        let mut seed = 0x1020_3040_5060_7080u64;
        for _ in 0..100 {
            let m = xorshift(&mut seed) % 5 + 1;
            let n = (xorshift(&mut seed) % 8 + 1) as usize;
            let curves: Vec<SpeedupCurve> = (0..n)
                .map(|_| {
                    let mut tbl: Vec<u64> =
                        (0..m).map(|_| xorshift(&mut seed) % 20 + 1).collect();
                    monotone_closure(&mut tbl);
                    SpeedupCurve::Table(Arc::new(tbl))
                })
                .collect();
            let inst = Instance::new(curves, m);
            let allot: Vec<u64> = (0..n).map(|_| xorshift(&mut seed) % m + 1).collect();
            let order: Vec<u32> = (0..n as u32).collect();
            let s = list_schedule(&JobView::build(&inst), &allot, &order);
            validate(&s, &inst).unwrap();
            assert_eq!(s.len(), n);
        }
    }

    #[test]
    fn empty_order() {
        let inst = Instance::new(vec![SpeedupCurve::Constant(1)], 1);
        let s = list_schedule(&JobView::build(&inst), &[1], &[]);
        assert!(s.is_empty());
    }
}
