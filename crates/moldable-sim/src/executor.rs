//! Execute a planned [`Schedule`] on the simulated cluster.
//!
//! This is the "does the plan actually run" check the paper never needs
//! (its feasibility argument is aggregate: Σ procs ≤ m at all times) but a
//! real runtime does: concrete processors must be assigned, held for the
//! whole job, and returned. Because machines are interchangeable, aggregate
//! feasibility implies executability — and this module *proves* that
//! constructively for every schedule our algorithms emit, by recording an
//! explicit [`Placement`] (one row per job) that
//! [`Placement::validate`] re-checks for disjointness.
//!
//! The free processors are a [`ProcSet`] handed out by
//! [`ProcSet::take_fit`], the flat rule of the lowering in
//! `moldable_sched::place`, so a plan executes onto the same ids its
//! contiguous lowering would give it. What the executor adds is the
//! plan's own checks (every job exactly once, allotments in `1..=m`)
//! and a typed [`SimError`] naming the job that could not start.
//!
//! All times are exact rationals ([`Ratio`]): the three-shelf schedules
//! place jobs at half-integral positions, so floating-point time would
//! make release-before-start ordering flaky exactly at the shelf
//! boundaries where correctness matters most.

use crate::SimError;
use moldable_core::instance::Instance;
use moldable_core::placement::Placement;
use moldable_core::procset::ProcSet;
use moldable_core::ratio::Ratio;
use moldable_core::types::Procs;
use moldable_sched::schedule::Schedule;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The result of a successful simulation.
#[derive(Clone, Debug)]
pub struct Execution {
    /// Who ran where: one row per job, in start order.
    pub placement: Placement,
    /// Completion time observed by the simulator.
    pub makespan: Ratio,
}

/// Run `schedule` on `inst`'s cluster; fail on any oversubscription.
///
/// Every job of the instance must be placed exactly once. Jobs start in
/// `(start, job)` order; before each start, every job that has ended by
/// then returns its processors (a processor freed at `t` can be reused
/// by a job starting at `t` — the shelf construction relies on this
/// back-to-back reuse). `O(n log n)` plus the free-set bookkeeping.
///
/// ```
/// use moldable_core::{Instance, Ratio, SpeedupCurve};
/// use moldable_sched::Schedule;
/// use moldable_sim::{execute, metrics::peak_demand};
///
/// let inst = Instance::new(
///     vec![SpeedupCurve::Constant(4), SpeedupCurve::Constant(6)],
///     2,
/// );
/// let mut plan = Schedule::new();
/// plan.push(0, Ratio::zero(), 1);
/// plan.push(1, Ratio::zero(), 1);
/// let ex = execute(&inst, &plan).unwrap();
/// assert_eq!(ex.makespan, Ratio::from(6u64));
/// assert!(ex.placement.validate(inst.m()).is_ok());
/// assert_eq!(peak_demand(&ex.placement), 2);
/// ```
pub fn execute(inst: &Instance, schedule: &Schedule) -> Result<Execution, SimError> {
    let n = inst.n();
    let m = inst.m();

    // Index assignments; reject duplicates/unknown/missing up front.
    let mut assignment = vec![None; n];
    for a in &schedule.assignments {
        if (a.job as usize) >= n {
            return Err(SimError::UnknownJob { job: a.job });
        }
        if a.procs == 0 || a.procs > m {
            return Err(SimError::BadAllotment {
                job: a.job,
                procs: a.procs,
            });
        }
        let slot = &mut assignment[a.job as usize];
        if slot.is_some() {
            return Err(SimError::DuplicateJob { job: a.job });
        }
        *slot = Some((a.start, a.procs));
    }
    let missing = assignment.iter().filter(|s| s.is_none()).count();
    if missing > 0 {
        return Err(SimError::MissingJobs { count: missing });
    }
    let mut order: Vec<(Ratio, u32, Procs)> = assignment
        .into_iter()
        .enumerate()
        .map(|(job, slot)| {
            let (start, procs) = slot.expect("checked above");
            (start, job as u32, procs)
        })
        .collect();
    order.sort_unstable();

    let mut free = ProcSet::full(m);
    let mut running: BinaryHeap<Reverse<(Ratio, usize)>> = BinaryHeap::new();
    let mut placement = Placement::new();
    let mut makespan = Ratio::zero();
    for (at, job, want) in order {
        while let Some(&Reverse((end, row))) = running.peek() {
            if end > at {
                break;
            }
            free = free.union(&placement.jobs[row].procs);
            running.pop();
        }
        let procs = free
            .take_fit(want)
            .ok_or_else(|| SimError::Oversubscribed {
                job,
                at,
                wanted: want,
                free: free.size(),
            })?;
        free = free.subtract(&procs);
        let end = at.add(&Ratio::from(inst.time(job, want)));
        makespan = makespan.max(end);
        running.push(Reverse((end, placement.jobs.len())));
        placement.push(job, at, end, procs);
    }
    Ok(Execution {
        placement,
        makespan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::peak_demand;
    use moldable_core::speedup::SpeedupCurve;

    fn inst2(m: u64) -> Instance {
        Instance::new(
            vec![SpeedupCurve::Constant(4), SpeedupCurve::Constant(6)],
            m,
        )
    }

    #[test]
    fn executes_sequential_plan() {
        let inst = inst2(1);
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 1);
        s.push(1, Ratio::from(4u64), 1);
        let ex = execute(&inst, &s).unwrap();
        assert_eq!(ex.makespan, Ratio::from(10u64));
        assert_eq!(ex.placement.jobs.len(), 2);
        assert!(ex.placement.validate(1).is_ok());
    }

    #[test]
    fn executes_parallel_plan() {
        let inst = inst2(2);
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 1);
        s.push(1, Ratio::zero(), 1);
        let ex = execute(&inst, &s).unwrap();
        assert_eq!(ex.makespan, Ratio::from(6u64));
        assert_eq!(peak_demand(&ex.placement), 2);
    }

    #[test]
    fn back_to_back_reuse_at_equal_time() {
        // Job 1 starts exactly when job 0 ends on the same machine.
        let inst = inst2(1);
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 1);
        s.push(1, Ratio::from(4u64), 1);
        assert!(execute(&inst, &s).is_ok());
    }

    #[test]
    fn detects_oversubscription() {
        let inst = inst2(1);
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 1);
        s.push(1, Ratio::from(3u64), 1); // job 0 still running until 4
        let err = execute(&inst, &s).unwrap_err();
        assert_eq!(
            err,
            SimError::Oversubscribed {
                job: 1,
                at: Ratio::from(3u64),
                wanted: 1,
                free: 0
            }
        );
    }

    #[test]
    fn detects_missing_job() {
        let inst = inst2(2);
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 1);
        let err = execute(&inst, &s).unwrap_err();
        assert_eq!(err, SimError::MissingJobs { count: 1 });
    }

    #[test]
    fn detects_duplicate_and_unknown_and_bad_allotment() {
        let inst = inst2(2);
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 1);
        s.push(0, Ratio::from(9u64), 1);
        assert_eq!(
            execute(&inst, &s).unwrap_err(),
            SimError::DuplicateJob { job: 0 }
        );

        let mut s = Schedule::new();
        s.push(7, Ratio::zero(), 1);
        assert_eq!(
            execute(&inst, &s).unwrap_err(),
            SimError::UnknownJob { job: 7 }
        );

        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 3); // m = 2
        s.push(1, Ratio::zero(), 1);
        assert_eq!(
            execute(&inst, &s).unwrap_err(),
            SimError::BadAllotment { job: 0, procs: 3 }
        );
    }

    #[test]
    fn rational_start_times_execute() {
        // Three-shelf schedules start S2 jobs at 3d/2 − t; exercise a
        // half-integral start.
        let inst = inst2(2);
        let mut s = Schedule::new();
        s.push(0, Ratio::new(1, 2), 2);
        s.push(1, Ratio::new(9, 2), 2);
        let ex = execute(&inst, &s).unwrap();
        assert_eq!(ex.makespan, Ratio::new(21, 2));
    }
}
