//! # moldable-sim
//!
//! A cluster simulator for moldable-job schedules and arrival streams.
//!
//! The scheduling algorithms in `moldable-sched` produce *plans*: per-job
//! start times and processor counts. This crate provides the substrate the
//! paper's model abstracts away — an actual cluster of `m` identical
//! processors — and executes plans on it, recording who ran where as a
//! [`Placement`]: one row per job, a [`ProcSet`] held over `[start, end)`.
//!
//! * [`executor`] — runs a [`moldable_sched::Schedule`] on the simulated
//!   cluster, in start order over exact rational timestamps, failing on
//!   any oversubscription;
//! * [`online`] — an online list-scheduling executor: jobs with fixed
//!   allotments are dispatched greedily whenever enough processors are
//!   free (the Garey–Graham discipline used by the paper's estimator);
//! * [`stream`] — online scheduling of an arrival stream with any
//!   offline planner, in epochs (the classic online-from-offline
//!   scheme), as one loop: admit what has arrived, plan a bounded
//!   pending-queue snapshot through the [`MakespanSolver`] facade, run
//!   it to completion, repeat. Jobs are consumed lazily from an
//!   iterator and per-job observations emitted incrementally — memory
//!   `O(pending)`, not `O(stream)`, so million-job sources and recorded
//!   (e.g. SWF) traces run alike;
//! * [`metrics`] — aggregate statistics over a placement (utilization,
//!   demand profile, work conservation) plus per-user
//!   fairness reports (stretch and weighted flow), with online
//!   accumulators ([`RunningSum`], [`RunningFairness`]) used by the
//!   streaming engine, examples, the CLI, and experiment reports.
//!
//! Each of them reports a [`SimError`] when a plan or a stream cannot
//! run.
//!
//! [`MakespanSolver`]: moldable_sched::solver::MakespanSolver
//! [`Placement`]: moldable_core::placement::Placement
//! [`ProcSet`]: moldable_core::procset::ProcSet
//!
//! The simulator turns feasibility into processor ids: it hands them out
//! by the lowering's flat rule
//! ([`ProcSet::take_fit`](moldable_core::procset::ProcSet::take_fit)),
//! and [`Placement::validate`](moldable_core::placement::Placement::validate)
//! checks that no processor runs two jobs at once, which cross-checks
//! `moldable_sched::validate` (that checker reasons about aggregate demand
//! only).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use moldable_core::ratio::Ratio;
use moldable_core::types::{JobId, Procs};
use std::fmt;

pub mod executor;
pub mod metrics;
pub mod online;
pub mod stream;

pub use executor::{execute, Execution};
pub use metrics::{
    ClusterMetrics, FairnessReport, JobMetrics, JobObservation, RunningFairness, RunningSum,
    UserFairness,
};
pub use online::{online_list_schedule, OnlineOutcome};
pub use stream::{
    clairvoyant_lower_bound, run_stream, EpochRow, EpochTable, FairshareOptions, LevelTrend,
    StreamFragmentation, StreamJob, StreamOptions, StreamOutcome,
};

/// Why a simulation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A job requested more processors than were free at its start time.
    Oversubscribed {
        /// The offending job.
        job: JobId,
        /// When it tried to start.
        at: Ratio,
        /// How many processors it wanted.
        wanted: Procs,
        /// How many were free.
        free: Procs,
    },
    /// A job was scheduled with zero processors or more than `m`.
    BadAllotment {
        /// The offending job.
        job: JobId,
        /// Its requested processor count.
        procs: Procs,
    },
    /// The same job appears twice in the plan.
    DuplicateJob {
        /// The duplicated job id.
        job: JobId,
    },
    /// A job id outside the instance.
    UnknownJob {
        /// The unknown id.
        job: JobId,
    },
    /// Not every job of the instance was placed.
    MissingJobs {
        /// How many jobs the plan left out.
        count: usize,
    },
    /// An arrival stream fed to the streaming engine was not sorted by
    /// arrival time. Raw traces reach it from library callers, so this
    /// is a typed error, not a panic.
    UnsortedStream {
        /// Index of the first out-of-order job (its arrival precedes its
        /// predecessor's).
        index: usize,
    },
    /// A streaming run was given a topology whose leaves do not cover
    /// the machine (the per-epoch lowering would place jobs onto
    /// processors that don't exist, or leave real ones unreachable).
    TopologyMismatch {
        /// Processors covered by the topology's leaf level.
        topology_m: Procs,
        /// The machine size the stream is planned on.
        m: Procs,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Oversubscribed {
                job,
                at,
                wanted,
                free,
            } => write!(
                f,
                "job {job} starting at {at} wants {wanted} processors but only {free} are free"
            ),
            SimError::BadAllotment { job, procs } => {
                write!(f, "job {job} has invalid allotment {procs}")
            }
            SimError::DuplicateJob { job } => write!(f, "job {job} placed twice"),
            SimError::UnknownJob { job } => write!(f, "job {job} not in the instance"),
            SimError::MissingJobs { count } => write!(f, "{count} job(s) never placed"),
            SimError::UnsortedStream { index } => write!(
                f,
                "arrival stream not sorted: job {index} arrives before its predecessor \
                 (sort the stream by arrival first)"
            ),
            SimError::TopologyMismatch { topology_m, m } => write!(
                f,
                "topology covers {topology_m} processors but the stream runs on m = {m}"
            ),
        }
    }
}

impl std::error::Error for SimError {}
