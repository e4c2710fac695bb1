//! Independent schedule validation.
//!
//! Deliberately written against the *definition* of feasibility rather than
//! reusing any algorithm code, so that every algorithm's output can be
//! certified by construction-independent logic:
//!
//! 1. every job of the instance appears exactly once;
//! 2. every allotment is in `1..=m`;
//! 3. at every instant, the total processor demand is at most `m`
//!    (sufficient for realizability with interchangeable machines);
//! 4. when the schedule carries a [`Placement`] layer, that layer is
//!    consistent with the assignments (matching intervals, set sizes
//!    equal to allotments) and machine-feasible (sets inside `0..m`,
//!    no processor double-booked);
//! 5. optionally, the makespan does not exceed a target.
//!
//! [`Placement`]: moldable_core::placement::Placement

use crate::schedule::Schedule;
use moldable_core::instance::Instance;
use moldable_core::placement::PlacementError;
use moldable_core::ratio::Ratio;

/// Why a schedule is infeasible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A job appears zero or several times.
    WrongJobMultiplicity {
        /// The offending job.
        job: u32,
        /// How many times it appears.
        count: usize,
    },
    /// An allotment is 0 or exceeds `m`.
    BadAllotment {
        /// The offending job.
        job: u32,
        /// Its allotment.
        procs: u64,
        /// The machine count it violates.
        m: u64,
    },
    /// Total demand exceeds `m` over some interval (boxed report keeps
    /// the `Result` small on the non-error path).
    Overcommitted(Box<Overcommit>),
    /// The schedule's placement layer is inconsistent or infeasible
    /// (carries the detailed [`PlacementError`], surfaced verbatim).
    Placement(Box<PlacementError>),
    /// Makespan exceeds the required target.
    MakespanExceeded {
        /// The observed makespan.
        makespan: Ratio,
        /// The required bound.
        bound: Ratio,
    },
}

/// The detailed report behind [`ScheduleError::Overcommitted`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Overcommit {
    /// Start of the overcommitted interval (the violating event).
    pub at: Ratio,
    /// End of the interval (the next event), when known.
    pub until: Option<Ratio>,
    /// The demand over that interval.
    pub demand: u128,
    /// The machine count it exceeds.
    pub m: u64,
    /// The widest assignments active over the interval, as
    /// `(job, allotment)` pairs — at most [`OVERCOMMIT_WITNESSES`] of
    /// them, widest first, so batch-engine failures are debuggable
    /// straight from logs.
    pub active: Vec<(u32, u64)>,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::WrongJobMultiplicity { job, count } => {
                write!(f, "job {job} appears {count} times")
            }
            ScheduleError::BadAllotment { job, procs, m } => {
                write!(f, "job {job} allotted {procs} processors (m = {m})")
            }
            ScheduleError::Overcommitted(report) => {
                let Overcommit {
                    at,
                    until,
                    demand,
                    m,
                    active,
                } = report.as_ref();
                write!(f, "demand {demand} exceeds m = {m} over [{at}, ")?;
                match until {
                    Some(u) => write!(f, "{u})")?,
                    None => write!(f, "…)")?,
                }
                write!(f, "; widest active jobs:")?;
                for (job, procs) in active {
                    write!(f, " {job}×{procs}")?;
                }
                Ok(())
            }
            ScheduleError::Placement(err) => write!(f, "invalid placement: {err}"),
            ScheduleError::MakespanExceeded { makespan, bound } => {
                write!(f, "makespan {makespan} exceeds bound {bound}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Validate feasibility of `schedule` for `inst` (conditions 1–3).
pub fn validate(schedule: &Schedule, inst: &Instance) -> Result<(), ScheduleError> {
    // 1. multiplicities
    let mut seen = vec![0usize; inst.n()];
    for a in &schedule.assignments {
        let idx = a.job as usize;
        if idx >= inst.n() {
            return Err(ScheduleError::WrongJobMultiplicity {
                job: a.job,
                count: usize::MAX,
            });
        }
        seen[idx] += 1;
    }
    for (j, &count) in seen.iter().enumerate() {
        if count != 1 {
            return Err(ScheduleError::WrongJobMultiplicity {
                job: j as u32,
                count,
            });
        }
    }
    // 2. allotments
    for a in &schedule.assignments {
        if a.procs == 0 || a.procs > inst.m() {
            return Err(ScheduleError::BadAllotment {
                job: a.job,
                procs: a.procs,
                m: inst.m(),
            });
        }
    }
    // 3. demand sweep over start/end events.
    let mut events: Vec<(Ratio, i64, u64)> = Vec::with_capacity(schedule.len() * 2);
    for a in &schedule.assignments {
        let dur = inst.job(a.job).time(a.procs);
        let end = a.start.add(&Ratio::from(dur));
        events.push((a.start, 1, a.procs));
        events.push((end, -1, a.procs));
    }
    // Ends sort before starts at the same instant (half-open intervals).
    events.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.cmp(&y.1)));
    let mut demand: i128 = 0;
    for (i, &(at, kind, procs)) in events.iter().enumerate() {
        demand += kind as i128 * procs as i128;
        if demand > inst.m() as i128 {
            return Err(overcommit_witness(
                inst,
                schedule,
                at,
                events[i + 1..].iter().map(|&(t, _, _)| t).find(|t| *t > at),
                demand as u128,
            ));
        }
    }
    // 4. placement layer, when present.
    if let Some(placement) = &schedule.placement {
        validate_placement(placement, schedule, inst)
            .map_err(|e| ScheduleError::Placement(Box::new(e)))?;
    }
    Ok(())
}

/// Check a placement layer against the schedule's assignments: exactly
/// one row per assignment, each with the assignment's interval and a
/// processor set of exactly its allotment — then the machine-level
/// invariants (ranges inside `0..m`, no double-booking) via
/// [`moldable_core::placement::Placement::validate`].
fn validate_placement(
    placement: &moldable_core::placement::Placement,
    schedule: &Schedule,
    inst: &Instance,
) -> Result<(), PlacementError> {
    // Multiplicity already passed, so the assignments are exactly one
    // per job of `0..n`: index them by job once. A row takes its job's
    // assignment out, so a row past `n` or a second row for a job
    // matches nothing, and what is left unclaimed is unplaced.
    let mut unplaced = vec![None; inst.n()];
    for a in &schedule.assignments {
        unplaced[a.job as usize] = Some(a);
    }
    for p in &placement.jobs {
        let Some(a) = unplaced.get_mut(p.job as usize).and_then(Option::take) else {
            return Err(PlacementError::UnknownJob { job: p.job });
        };
        let expected_end = a.start.add(&Ratio::from(inst.job(a.job).time(a.procs)));
        if p.start != a.start || p.end != expected_end {
            return Err(PlacementError::IntervalMismatch(Box::new(
                moldable_core::placement::PlacementIntervalMismatch {
                    job: p.job,
                    start: p.start,
                    end: p.end,
                    expected_start: a.start,
                    expected_end,
                },
            )));
        }
        if p.procs.size() != a.procs {
            return Err(PlacementError::SizeMismatch {
                job: p.job,
                placed: p.procs.size(),
                allotment: a.procs,
            });
        }
    }
    if let Some(job) = unplaced.iter().position(Option::is_some) {
        return Err(PlacementError::MissingJob { job: job as u32 });
    }
    placement.validate(inst.m())
}

/// Number of active assignments reported in
/// [`ScheduleError::Overcommitted`].
pub const OVERCOMMIT_WITNESSES: usize = 8;

/// Build the enriched overcommit report: the violating interval plus the
/// widest assignments running through it.
fn overcommit_witness(
    inst: &Instance,
    schedule: &Schedule,
    at: Ratio,
    until: Option<Ratio>,
    demand: u128,
) -> ScheduleError {
    let mut active: Vec<(u32, u64)> = schedule
        .assignments
        .iter()
        .filter(|a| {
            let end = a.start.add(&Ratio::from(inst.job(a.job).time(a.procs)));
            a.start <= at && at < end
        })
        .map(|a| (a.job, a.procs))
        .collect();
    active.sort_by_key(|&(job, procs)| (std::cmp::Reverse(procs), job));
    active.truncate(OVERCOMMIT_WITNESSES);
    ScheduleError::Overcommitted(Box::new(Overcommit {
        at,
        until,
        demand,
        m: inst.m(),
        active,
    }))
}

/// Validate feasibility *and* a makespan bound.
pub fn validate_with_makespan(
    schedule: &Schedule,
    inst: &Instance,
    bound: &Ratio,
) -> Result<(), ScheduleError> {
    validate(schedule, inst)?;
    let mk = schedule.makespan(inst);
    if mk > *bound {
        return Err(ScheduleError::MakespanExceeded {
            makespan: mk,
            bound: *bound,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_core::speedup::SpeedupCurve;

    fn inst2() -> Instance {
        Instance::new(
            vec![SpeedupCurve::Constant(4), SpeedupCurve::Constant(4)],
            2,
        )
    }

    #[test]
    fn accepts_parallel_fit() {
        let inst = inst2();
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 1);
        s.push(1, Ratio::zero(), 1);
        assert!(validate(&s, &inst).is_ok());
    }

    #[test]
    fn rejects_overcommit() {
        let inst = inst2();
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 2);
        s.push(1, Ratio::zero(), 1);
        assert!(matches!(
            validate(&s, &inst),
            Err(ScheduleError::Overcommitted(_))
        ));
    }

    #[test]
    fn overcommit_reports_interval_and_witnesses() {
        let inst = inst2();
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 2);
        s.push(1, Ratio::from(1u64), 1); // overlaps job 0 over [1, 4)
        match validate(&s, &inst) {
            Err(ScheduleError::Overcommitted(report)) => {
                assert_eq!(report.at, Ratio::from(1u64));
                // Next event: job 0 ends at 4.
                assert_eq!(report.until, Some(Ratio::from(4u64)));
                assert_eq!(report.demand, 3);
                assert_eq!(report.m, 2);
                // Widest first: job 0 holds 2 processors, job 1 holds 1.
                assert_eq!(report.active, vec![(0, 2), (1, 1)]);
            }
            other => panic!("expected enriched overcommit, got {other:?}"),
        }
        // And the rendered message carries the context.
        let msg = validate(&s, &inst).unwrap_err().to_string();
        assert!(msg.contains("[1, 4)"), "{msg}");
        assert!(msg.contains("0×2"), "{msg}");
    }

    #[test]
    fn back_to_back_is_fine() {
        // Half-open intervals: a job ending at t and one starting at t share
        // no instant.
        let inst = inst2();
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 2);
        s.push(1, Ratio::from(4u64), 2);
        assert!(validate(&s, &inst).is_ok());
    }

    #[test]
    fn rejects_missing_and_duplicate_jobs() {
        let inst = inst2();
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 1);
        assert!(matches!(
            validate(&s, &inst),
            Err(ScheduleError::WrongJobMultiplicity { job: 1, count: 0 })
        ));
        s.push(0, Ratio::from(9u64), 1);
        assert!(matches!(
            validate(&s, &inst),
            Err(ScheduleError::WrongJobMultiplicity { job: 0, count: 2 })
        ));
    }

    #[test]
    fn rejects_bad_allotment() {
        let inst = inst2();
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 3);
        s.push(1, Ratio::zero(), 1);
        assert!(matches!(
            validate(&s, &inst),
            Err(ScheduleError::BadAllotment {
                job: 0,
                procs: 3,
                m: 2
            })
        ));
    }

    #[test]
    fn placement_layer_checked_when_present() {
        use moldable_core::placement::{Placement, PlacementError};
        use moldable_core::procset::ProcSet;
        let inst = inst2();
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 1);
        s.push(1, Ratio::zero(), 1);
        // A consistent placement passes.
        let mut good = Placement::new();
        good.push(0, Ratio::zero(), Ratio::from(4u64), ProcSet::range(0, 0));
        good.push(1, Ratio::zero(), Ratio::from(4u64), ProcSet::range(1, 1));
        s.placement = Some(good.clone());
        assert!(validate(&s, &inst).is_ok());
        // Wrong set size.
        let mut sized = good.clone();
        sized.jobs[0].procs = ProcSet::range(0, 1);
        s.placement = Some(sized);
        assert!(matches!(
            validate(&s, &inst),
            Err(ScheduleError::Placement(e))
                if matches!(*e, PlacementError::SizeMismatch { job: 0, placed: 2, allotment: 1 })
        ));
        // Wrong interval.
        let mut shifted = good.clone();
        shifted.jobs[1].end = Ratio::from(5u64);
        s.placement = Some(shifted);
        assert!(matches!(
            validate(&s, &inst),
            Err(ScheduleError::Placement(e))
                if matches!(&*e, PlacementError::IntervalMismatch(d) if d.job == 1)
        ));
        // Double-booked processor.
        let mut clash = good.clone();
        clash.jobs[1].procs = ProcSet::range(0, 0);
        s.placement = Some(clash);
        let err = validate(&s, &inst).unwrap_err();
        assert!(matches!(
            &err,
            ScheduleError::Placement(e) if matches!(**e, PlacementError::Overlap(_))
        ));
        // The Display form surfaces the inner report verbatim.
        let msg = err.to_string();
        assert!(msg.starts_with("invalid placement:"), "{msg}");
        assert!(msg.contains("double-booked"), "{msg}");
        // Missing and unknown rows.
        let mut missing = good.clone();
        missing.jobs.pop();
        s.placement = Some(missing);
        assert!(matches!(
            validate(&s, &inst),
            Err(ScheduleError::Placement(e)) if matches!(*e, PlacementError::MissingJob { job: 1 })
        ));
        let mut unknown = good.clone();
        unknown.push(7, Ratio::zero(), Ratio::one(), ProcSet::range(0, 0));
        s.placement = Some(unknown);
        assert!(matches!(
            validate(&s, &inst),
            Err(ScheduleError::Placement(e)) if matches!(*e, PlacementError::UnknownJob { job: 7 })
        ));
        // A second row for an already matched job matches nothing either.
        let mut duplicated = good;
        duplicated.push(0, Ratio::zero(), Ratio::from(4u64), ProcSet::range(0, 0));
        s.placement = Some(duplicated);
        assert!(matches!(
            validate(&s, &inst),
            Err(ScheduleError::Placement(e)) if matches!(*e, PlacementError::UnknownJob { job: 0 })
        ));
    }

    #[test]
    fn makespan_bound_enforced() {
        let inst = inst2();
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 1);
        s.push(1, Ratio::zero(), 1);
        assert!(validate_with_makespan(&s, &inst, &Ratio::from(4u64)).is_ok());
        assert!(matches!(
            validate_with_makespan(&s, &inst, &Ratio::from(3u64)),
            Err(ScheduleError::MakespanExceeded { .. })
        ));
    }
}
