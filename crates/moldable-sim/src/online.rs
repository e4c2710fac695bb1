//! Online list-scheduling executor.
//!
//! Given a fixed allotment (processor count per job) and an ordering, run
//! the jobs greedily: whenever processors free up, start the next job in
//! the list that fits. This is the Garey–Graham discipline behind the
//! paper's estimator analysis (`OPT ≤ 2ω`, Section 3) and behind the
//! NP-membership procedure of Theorem 1 (guess allotment + order, then
//! list-schedule).
//!
//! Unlike [`crate::executor`], no start times are given — the simulator
//! *discovers* them. The result doubles as an independent check of
//! `moldable_sched::list_scheduling`, which computes the same makespan
//! analytically without per-processor assignment.

use crate::SimError;
use moldable_core::instance::Instance;
use moldable_core::placement::Placement;
use moldable_core::procset::ProcSet;
use moldable_core::ratio::Ratio;
use moldable_core::types::{JobId, Procs};
use moldable_sched::schedule::Schedule;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of an online run.
#[derive(Clone, Debug)]
pub struct OnlineOutcome {
    /// The start times the simulator chose (a complete plan).
    pub schedule: Schedule,
    /// Who ran where: one row per job, in dispatch order.
    pub placement: Placement,
    /// The resulting makespan.
    pub makespan: Ratio,
}

/// Greedily execute jobs in `order` with fixed `allotment` processor
/// counts (FIFO: a job that does not fit blocks later jobs — this is the
/// classic list-scheduling rule, *not* backfilling, so the Garey–Graham
/// bound applies).
///
/// Returns an error if any allotment is zero or exceeds `m`, or the inputs
/// disagree in length.
pub fn online_list_schedule(
    inst: &Instance,
    allotment: &[Procs],
    order: &[u32],
) -> Result<OnlineOutcome, SimError> {
    let n = inst.n();
    let m = inst.m();
    assert_eq!(allotment.len(), n, "one allotment per job");
    assert_eq!(order.len(), n, "order must be a permutation of all jobs");

    for (j, &p) in allotment.iter().enumerate() {
        if p == 0 || p > m {
            return Err(SimError::BadAllotment {
                job: j as u32,
                procs: p,
            });
        }
    }
    let mut seen = vec![false; n];
    for &j in order {
        if (j as usize) >= n {
            return Err(SimError::UnknownJob { job: j });
        }
        if seen[j as usize] {
            return Err(SimError::DuplicateJob { job: j });
        }
        seen[j as usize] = true;
    }

    let mut free = ProcSet::full(m);
    // Completions pop in (end, job) order, one at a time: the head job
    // is retried after each release, so the order fixes which ids it gets.
    let mut running: BinaryHeap<Reverse<(Ratio, JobId, usize)>> = BinaryHeap::new();
    let mut placement = Placement::new();
    let mut schedule = Schedule::new();
    let mut makespan = Ratio::zero();
    let mut next = 0usize; // cursor into `order`
    let mut now = Ratio::zero();

    loop {
        // Start as many queued jobs as fit, in list order (FIFO head only).
        while next < order.len() {
            let job = order[next];
            let want = allotment[job as usize];
            let Some(procs) = free.take_fit(want) else {
                break;
            };
            free = free.subtract(&procs);
            let end = now.add(&Ratio::from(inst.time(job, want)));
            makespan = makespan.max(end);
            schedule.push(job, now, want);
            running.push(Reverse((end, job, placement.jobs.len())));
            placement.push(job, now, end, procs);
            next += 1;
        }
        // Advance to the next completion.
        match running.pop() {
            Some(Reverse((end, _, row))) => {
                now = end;
                free = free.union(&placement.jobs[row].procs);
            }
            None => break,
        }
    }

    debug_assert_eq!(next, order.len(), "all jobs dispatched");
    Ok(OnlineOutcome {
        schedule,
        placement,
        makespan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_core::speedup::SpeedupCurve;
    use moldable_sched::validate::validate;

    fn constant_inst(times: &[u64], m: Procs) -> Instance {
        Instance::new(
            times.iter().map(|&t| SpeedupCurve::Constant(t)).collect(),
            m,
        )
    }

    #[test]
    fn packs_unit_jobs() {
        let inst = constant_inst(&[3, 3, 3, 3], 2);
        let out = online_list_schedule(&inst, &[1, 1, 1, 1], &[0, 1, 2, 3]).unwrap();
        assert_eq!(out.makespan, Ratio::from(6u64));
        assert!(out.placement.validate(2).is_ok());
        assert!(validate(&out.schedule, &inst).is_ok());
    }

    #[test]
    fn fifo_head_blocks() {
        // Order: wide job first; narrow ones wait even though they'd fit.
        let inst = constant_inst(&[4, 1, 1], 2);
        let out = online_list_schedule(&inst, &[2, 1, 1], &[0, 1, 2]).unwrap();
        // Job 0 occupies both machines until 4, then 1 and 2 run in parallel.
        assert_eq!(out.makespan, Ratio::from(5u64));
    }

    #[test]
    fn respects_garey_graham_bound() {
        // Mixed allotments: makespan ≤ 2·max(avg load, critical path).
        let inst = constant_inst(&[5, 3, 4, 2, 6, 1], 3);
        let allot = [1, 1, 2, 1, 3, 1];
        let out = online_list_schedule(&inst, &allot, &[4, 2, 0, 1, 3, 5]).unwrap();
        let total_work: u128 = allot
            .iter()
            .enumerate()
            .map(|(j, &p)| inst.job(j as u32).work(p))
            .sum();
        let avg = Ratio::new(total_work, 3);
        let crit = allot
            .iter()
            .enumerate()
            .map(|(j, &p)| inst.time(j as u32, p))
            .max()
            .unwrap();
        let omega = if avg.ge_int(crit as u128) {
            avg
        } else {
            Ratio::from(crit)
        };
        let bound = omega.mul_int(2);
        assert!(out.makespan <= bound, "{} > {}", out.makespan, bound);
    }

    #[test]
    fn rejects_bad_inputs() {
        let inst = constant_inst(&[1, 1], 2);
        assert!(matches!(
            online_list_schedule(&inst, &[0, 1], &[0, 1]).unwrap_err(),
            SimError::BadAllotment { job: 0, procs: 0 }
        ));
        assert!(matches!(
            online_list_schedule(&inst, &[1, 1], &[0, 0]).unwrap_err(),
            SimError::DuplicateJob { job: 0 }
        ));
    }

    #[test]
    fn single_machine_is_sequential() {
        let inst = constant_inst(&[2, 3, 4], 1);
        let out = online_list_schedule(&inst, &[1, 1, 1], &[2, 0, 1]).unwrap();
        assert_eq!(out.makespan, Ratio::from(9u64));
        // One processor: every job holds it, back to back in list order.
        let runs: Vec<(JobId, Ratio, Ratio)> = out
            .placement
            .jobs
            .iter()
            .map(|p| {
                assert_eq!(p.procs, ProcSet::range(0, 0));
                (p.job, p.start, p.end)
            })
            .collect();
        assert_eq!(
            runs,
            vec![
                (2, Ratio::zero(), Ratio::from(4u64)),
                (0, Ratio::from(4u64), Ratio::from(6u64)),
                (1, Ratio::from(6u64), Ratio::from(9u64)),
            ]
        );
    }
}
