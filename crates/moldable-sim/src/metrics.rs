//! Aggregate statistics over executions.
//!
//! Used by the examples and the experiment reports to summarize a run
//! recorded as a [`Placement`]: utilization (busy area over
//! `m × makespan`), per-job response times, the demand profile, and
//! work conservation (busy area equals the plan's work — nothing is
//! lost or double-counted by the simulator).

use moldable_core::instance::Instance;
use moldable_core::placement::Placement;
use moldable_core::ratio::Ratio;
use moldable_core::types::{JobId, Procs};
use moldable_sched::schedule::Schedule;
use std::collections::BTreeMap;

/// Per-job observations extracted from a placement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobMetrics {
    /// The job.
    pub job: JobId,
    /// Observed start.
    pub start: Ratio,
    /// Observed completion.
    pub end: Ratio,
    /// Processors held.
    pub procs: u64,
}

/// Whole-cluster summary of one execution.
#[derive(Clone, Debug)]
pub struct ClusterMetrics {
    /// Cluster size.
    pub m: u64,
    /// Completion time of the last job.
    pub makespan: Ratio,
    /// `busy area / (m × makespan)` in `[0, 1]`, as an exact rational.
    pub utilization: Ratio,
    /// Mean completion time over jobs.
    pub mean_completion: Ratio,
    /// Per-job details, sorted by job id.
    pub jobs: Vec<JobMetrics>,
}

impl ClusterMetrics {
    /// Summarize a placement on an `m`-processor cluster.
    pub fn from_placement(placement: &Placement, m: Procs) -> Self {
        let mut jobs: Vec<JobMetrics> = placement
            .jobs
            .iter()
            .map(|p| JobMetrics {
                job: p.job,
                start: p.start,
                end: p.end,
                procs: p.procs.size(),
            })
            .collect();
        jobs.sort_by_key(|j| j.job);
        let makespan = jobs.iter().map(|j| j.end).max().unwrap_or_else(Ratio::zero);
        let denom = makespan.mul_int(m as u128);
        let utilization = if denom.is_zero() {
            Ratio::zero()
        } else {
            busy_area(&jobs).div(&denom)
        };
        let mean_completion = if jobs.is_empty() {
            Ratio::zero()
        } else {
            let mut acc = Ratio::zero();
            for j in &jobs {
                acc = acc.add(&j.end);
            }
            acc.div_int(jobs.len() as u128)
        };
        ClusterMetrics {
            m,
            makespan,
            utilization,
            mean_completion,
            jobs,
        }
    }

    /// Verify work conservation against the plan: the busy area must
    /// equal `Σ procs·t_j(procs)` of the schedule.
    pub fn work_conserved(&self, inst: &Instance, schedule: &Schedule) -> bool {
        busy_area(&self.jobs) == Ratio::from_int(schedule.total_work(inst))
    }
}

/// Total busy area `Σ procs × (end − start)` over the jobs.
fn busy_area(jobs: &[JobMetrics]) -> Ratio {
    let mut acc = Ratio::zero();
    for j in jobs {
        acc = acc.add(&j.end.sub(&j.start).mul_int(j.procs as u128));
    }
    acc
}

/// The demand profile: processor usage as a right-open step function.
///
/// Returns `(t_0, u_0), (t_1, u_1), …` meaning `u_i` processors are busy
/// on `[t_i, t_{i+1})`; the last entry has usage 0. Runs in
/// `O(k log k)` for `k` rows.
pub fn demand_profile(placement: &Placement) -> Vec<(Ratio, Procs)> {
    // Sweep over ±size deltas at row starts/ends.
    let mut deltas: Vec<(Ratio, i128)> = Vec::with_capacity(2 * placement.jobs.len());
    for p in &placement.jobs {
        let size = p.procs.size() as i128;
        deltas.push((p.start, size));
        deltas.push((p.end, -size));
    }
    deltas.sort_by_key(|a| a.0);
    let mut profile: Vec<(Ratio, Procs)> = Vec::new();
    let mut usage: i128 = 0;
    let mut i = 0;
    while i < deltas.len() {
        let t = deltas[i].0;
        while i < deltas.len() && deltas[i].0 == t {
            usage += deltas[i].1;
            i += 1;
        }
        debug_assert!(usage >= 0, "negative usage during sweep");
        profile.push((t, usage as Procs));
    }
    profile
}

/// Peak processor demand over the whole placement.
pub fn peak_demand(placement: &Placement) -> Procs {
    demand_profile(placement)
        .iter()
        .map(|&(_, u)| u)
        .max()
        .unwrap_or(0)
}

/// One job's observation for fairness accounting: who submitted it, when
/// it arrived and finished, its *ideal* processing time (the fastest the
/// cluster could ever run it, `t_j(m)` — the stretch denominator), and
/// its weight (sequential work `w_j(1)`, the weighted-flow weight).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobObservation {
    /// Submitting user (SWF user id; `-1` when unknown).
    pub user: i64,
    /// Release time.
    pub arrival: Ratio,
    /// Completion time (≥ arrival).
    pub completion: Ratio,
    /// `t_j(m)`: the job's fastest possible processing time.
    pub ideal_time: Ratio,
    /// `w_j(1)`: sequential work, used as the flow weight.
    pub weight: u128,
    /// The concrete processors the planner assigned the job, when its
    /// batch schedule carried a placement layer (`None` for planners
    /// that emit allotments only).
    pub placed: Option<moldable_core::procset::ProcSet>,
    /// Index of the planning epoch (re-plan) that ran the job, from 0.
    pub epoch: u64,
}

impl JobObservation {
    /// Flow (response) time `C_j − r_j`.
    pub fn flow(&self) -> Ratio {
        self.completion.sub(&self.arrival)
    }

    /// Stretch `(C_j − r_j) / t_j(m)`: how many times its ideal running
    /// time the job spent in the system. 1 is perfect service.
    pub fn stretch(&self) -> Ratio {
        debug_assert!(!self.ideal_time.is_zero());
        self.flow().div(&self.ideal_time)
    }
}

/// Per-user fairness summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UserFairness {
    /// The user.
    pub user: i64,
    /// Number of jobs the user submitted.
    pub jobs: usize,
    /// Largest stretch over the user's jobs.
    pub max_stretch: Ratio,
    /// Mean stretch over the user's jobs.
    pub mean_stretch: Ratio,
    /// Work-weighted mean flow `Σ w_j·F_j / Σ w_j`: big jobs dominate,
    /// so a user's number is not gamed by a swarm of trivial jobs.
    pub weighted_flow: Ratio,
}

/// Cluster-wide fairness report: global stretch statistics plus the
/// per-user breakdown (ROADMAP follow-up to the SWF replay pipeline —
/// max/mean stretch and per-user weighted flow).
///
/// Max statistics are exact; *sums* (means, weighted flows) accumulate
/// through [`RunningSum`], which rounds each incoming term down to a
/// 48-bit dyadic denominator — unrelated per-job denominators would
/// otherwise overflow the exact rationals on real traces. Total drift is
/// bounded by the sum of the per-term roundings (`≤ Σxᵢ·2⁻⁴⁸`), far
/// below anything a report consumer can see, and — unlike rounding the
/// running sum itself on every add — it does not compound with stream
/// length.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FairnessReport {
    /// Largest stretch over all jobs.
    pub max_stretch: Ratio,
    /// Mean stretch over all jobs.
    pub mean_stretch: Ratio,
    /// Per-user summaries, sorted by descending weighted flow (the
    /// worst-served users first).
    pub users: Vec<UserFairness>,
}

impl FairnessReport {
    /// Aggregate a set of observations. Returns all-zero statistics for
    /// an empty set. Buffered front-end over [`RunningFairness`]; the
    /// streaming engine feeds the accumulator one observation at a time
    /// instead.
    pub fn from_observations(obs: &[JobObservation]) -> Self {
        let mut acc = RunningFairness::new();
        for o in obs {
            acc.observe(o);
        }
        acc.report()
    }
}

/// Bounded-precision running sum over exact rationals.
///
/// The implementation moved to [`moldable_core::metrics`] so the
/// scheduler's fair-share engine (`moldable-sched`, which this crate
/// depends on) can accumulate decayed per-tenant usage on the same
/// drift-bounded substrate; this re-export keeps the historical
/// `moldable_sim::metrics::RunningSum` path working.
pub use moldable_core::metrics::RunningSum;

/// Per-user accumulator state of [`RunningFairness`].
#[derive(Clone, Debug)]
struct UserAcc {
    jobs: usize,
    max_stretch: Ratio,
    stretch: RunningSum,
    wf_num: RunningSum,
    wf_den: u128,
}

impl Default for UserAcc {
    fn default() -> Self {
        UserAcc {
            jobs: 0,
            max_stretch: Ratio::zero(),
            stretch: RunningSum::new(),
            wf_num: RunningSum::new(),
            wf_den: 0,
        }
    }
}

/// Online fairness accumulator: consumes [`JobObservation`]s one at a
/// time and produces a [`FairnessReport`] on demand, holding
/// `O(#users)` state — never the observations themselves. This is what
/// lets the streaming engine ([`crate::stream`]) report fairness on
/// million-job runs without buffering a `Vec<JobObservation>`.
#[derive(Clone, Debug)]
pub struct RunningFairness {
    max_stretch: Ratio,
    stretch: RunningSum,
    per_user: BTreeMap<i64, UserAcc>,
}

impl Default for RunningFairness {
    fn default() -> Self {
        RunningFairness {
            max_stretch: Ratio::zero(),
            stretch: RunningSum::new(),
            per_user: BTreeMap::new(),
        }
    }
}

impl RunningFairness {
    /// An empty accumulator.
    pub fn new() -> Self {
        RunningFairness::default()
    }

    /// Number of observations consumed so far.
    pub fn jobs(&self) -> u64 {
        self.stretch.count()
    }

    /// Fold one completed job into the statistics.
    pub fn observe(&mut self, o: &JobObservation) {
        let s = o.stretch();
        if s > self.max_stretch {
            self.max_stretch = s;
        }
        self.stretch.push(&s);
        let u = self.per_user.entry(o.user).or_default();
        u.jobs += 1;
        if s > u.max_stretch {
            u.max_stretch = s;
        }
        u.stretch.push(&s);
        u.wf_num.push(&o.flow().mul_int(o.weight));
        u.wf_den += o.weight;
    }

    /// Snapshot the report (all-zero statistics when nothing observed).
    pub fn report(&self) -> FairnessReport {
        let mut users: Vec<UserFairness> = self
            .per_user
            .iter()
            .map(|(&user, u)| UserFairness {
                user,
                jobs: u.jobs,
                max_stretch: u.max_stretch,
                mean_stretch: u.stretch.mean(),
                weighted_flow: if u.wf_den == 0 {
                    Ratio::zero()
                } else {
                    u.wf_num.value().div_int(u.wf_den)
                },
            })
            .collect();
        users.sort_by(|a, b| {
            b.weighted_flow
                .cmp(&a.weighted_flow)
                .then(a.user.cmp(&b.user))
        });
        FairnessReport {
            max_stretch: self.max_stretch,
            mean_stretch: self.stretch.mean(),
            users,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::execute;
    use moldable_core::procset::ProcSet;
    use moldable_core::speedup::SpeedupCurve;

    fn placed(rows: &[(JobId, u64, u64, u64, u64)]) -> Placement {
        let mut pl = Placement::new();
        for &(job, t0, t1, lo, hi) in rows {
            pl.push(
                job,
                Ratio::from(t0),
                Ratio::from(t1),
                ProcSet::range(lo, hi),
            );
        }
        pl
    }

    #[test]
    fn busy_area_and_makespan() {
        let pl = placed(&[(0, 0, 3, 0, 1), (1, 1, 5, 2, 2)]);
        let metrics = ClusterMetrics::from_placement(&pl, 4);
        assert_eq!(metrics.makespan, Ratio::from(5u64));
        // Busy area 2·3 + 1·4 = 10 over 4 × 5.
        assert_eq!(metrics.utilization, Ratio::new(1, 2));
    }

    #[test]
    fn demand_profile_steps() {
        let pl = placed(&[(0, 0, 4, 0, 1), (1, 2, 6, 2, 3)]);
        assert_eq!(
            demand_profile(&pl),
            vec![
                (Ratio::from(0u64), 2),
                (Ratio::from(2u64), 4),
                (Ratio::from(4u64), 2),
                (Ratio::from(6u64), 0),
            ]
        );
        assert_eq!(peak_demand(&pl), 4);
    }

    #[test]
    fn metrics_of_two_job_run() {
        let inst = Instance::new(
            vec![SpeedupCurve::Constant(4), SpeedupCurve::Constant(4)],
            2,
        );
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 1);
        s.push(1, Ratio::zero(), 1);
        let ex = execute(&inst, &s).unwrap();
        let metrics = ClusterMetrics::from_placement(&ex.placement, 2);
        assert_eq!(metrics.makespan, Ratio::from(4u64));
        assert_eq!(metrics.utilization, Ratio::one()); // both busy throughout
        assert_eq!(metrics.mean_completion, Ratio::from(4u64));
        assert_eq!(metrics.jobs.len(), 2);
        assert!(metrics.work_conserved(&inst, &s));
    }

    #[test]
    fn utilization_counts_idle_tail() {
        let inst = Instance::new(
            vec![SpeedupCurve::Constant(4), SpeedupCurve::Constant(2)],
            2,
        );
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 1);
        s.push(1, Ratio::zero(), 1);
        let ex = execute(&inst, &s).unwrap();
        let metrics = ClusterMetrics::from_placement(&ex.placement, 2);
        // Busy area 6 over 2×4 = 8.
        assert_eq!(metrics.utilization, Ratio::new(3, 4));
    }

    #[test]
    fn empty_placement_yields_zeros() {
        let metrics = ClusterMetrics::from_placement(&Placement::new(), 8);
        assert_eq!(metrics.makespan, Ratio::zero());
        assert_eq!(metrics.utilization, Ratio::zero());
        assert!(metrics.jobs.is_empty());
    }

    #[test]
    fn fairness_stretch_and_weighted_flow() {
        // Two users: user 1 submits one big job served immediately
        // (stretch 1), user 2 a small job that waits (stretch 3).
        let obs = vec![
            JobObservation {
                user: 1,
                arrival: Ratio::zero(),
                completion: Ratio::from(10u64),
                ideal_time: Ratio::from(10u64),
                weight: 100,
                placed: None,
                epoch: 0,
            },
            JobObservation {
                user: 2,
                arrival: Ratio::from(2u64),
                completion: Ratio::from(8u64),
                ideal_time: Ratio::from(2u64),
                weight: 4,
                placed: None,
                epoch: 0,
            },
        ];
        let report = FairnessReport::from_observations(&obs);
        assert_eq!(report.max_stretch, Ratio::from(3u64));
        assert_eq!(report.mean_stretch, Ratio::from(2u64));
        assert_eq!(report.users.len(), 2);
        // Sorted by descending weighted flow: user 1's flow is 10,
        // user 2's is 6.
        assert_eq!(report.users[0].user, 1);
        assert_eq!(report.users[0].weighted_flow, Ratio::from(10u64));
        assert_eq!(report.users[1].user, 2);
        assert_eq!(report.users[1].weighted_flow, Ratio::from(6u64));
        assert_eq!(report.users[1].max_stretch, Ratio::from(3u64));
    }

    // The RunningSum drift regressions (1e5-term bounded drift, huge-total
    // survival) moved with the implementation to `moldable_core::metrics`.

    #[test]
    fn running_fairness_matches_buffered_report() {
        let obs: Vec<JobObservation> = (0..50)
            .map(|i| JobObservation {
                user: i % 7,
                arrival: Ratio::from(i as u64),
                completion: Ratio::from(3 * i as u64 + 5),
                ideal_time: Ratio::from(i as u64 % 3 + 1),
                weight: (i as u128 % 11) + 1,
                placed: None,
                epoch: 0,
            })
            .collect();
        let buffered = FairnessReport::from_observations(&obs);
        let mut acc = RunningFairness::new();
        for o in &obs {
            acc.observe(o);
        }
        assert_eq!(acc.jobs(), 50);
        let online = acc.report();
        assert_eq!(online.max_stretch, buffered.max_stretch);
        assert_eq!(online.mean_stretch, buffered.mean_stretch);
        assert_eq!(online.users.len(), buffered.users.len());
        for (a, b) in online.users.iter().zip(&buffered.users) {
            assert_eq!(a.user, b.user);
            assert_eq!(a.jobs, b.jobs);
            assert_eq!(a.max_stretch, b.max_stretch);
            assert_eq!(a.mean_stretch, b.mean_stretch);
            assert_eq!(a.weighted_flow, b.weighted_flow);
        }
    }

    #[test]
    fn fairness_of_empty_set_is_zero() {
        let report = FairnessReport::from_observations(&[]);
        assert_eq!(report.max_stretch, Ratio::zero());
        assert!(report.users.is_empty());
    }

    #[test]
    fn fragmented_job_counts_every_processor() {
        // Job 1 keeps the middle pair busy, so job 3 holds two ranges.
        let inst = Instance::new(
            vec![
                SpeedupCurve::Constant(2),
                SpeedupCurve::Constant(9),
                SpeedupCurve::Constant(2),
                SpeedupCurve::Constant(9),
            ],
            6,
        );
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 2); // {0, 1} until 2
        s.push(1, Ratio::zero(), 2); // {2, 3} until 9
        s.push(2, Ratio::zero(), 2); // {4, 5} until 2
        s.push(3, Ratio::from(2u64), 4);
        let ex = execute(&inst, &s).unwrap();
        let j3 = ex.placement.get(3).unwrap();
        assert_eq!(j3.procs, ProcSet::from_ranges([(0, 1), (4, 5)]));
        let metrics = ClusterMetrics::from_placement(&ex.placement, 6);
        let j3 = metrics.jobs.iter().find(|j| j.job == 3).unwrap();
        assert_eq!(j3.procs, 4);
        assert!(metrics.work_conserved(&inst, &s));
    }
}
