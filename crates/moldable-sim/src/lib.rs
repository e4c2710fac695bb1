//! # moldable-sim
//!
//! A discrete-event cluster simulator for moldable-job schedules.
//!
//! The scheduling algorithms in `moldable-sched` produce *plans*: per-job
//! start times and processor counts. This crate provides the substrate the
//! paper's model abstracts away — an actual cluster of `m` identical
//! processors — and executes plans on it:
//!
//! * [`engine`] — the event-driven simulation core (event queue over exact
//!   rational timestamps, processor pool with explicit per-processor
//!   assignment);
//! * [`executor`] — runs a [`moldable_sched::Schedule`] on the simulated
//!   cluster, verifying at every event that the processor demand is
//!   satisfiable, and records a full execution [`trace`];
//! * [`online`] — an online list-scheduling executor: jobs with fixed
//!   allotments are dispatched greedily whenever enough processors are
//!   free (the Garey–Graham discipline used by the paper's estimator);
//! * [`backfill`] — conservative EASY backfilling against the head job's
//!   reservation, the production-HPC refinement of plain FIFO;
//! * [`stream`] — online scheduling of an arrival stream with any
//!   offline planner, in epochs (the classic online-from-offline
//!   scheme), as an event-driven engine: jobs consumed lazily from an
//!   iterator, bounded pending-queue snapshots planned through the
//!   [`MakespanSolver`] facade, per-job observations emitted
//!   incrementally — memory `O(pending)`, not `O(stream)`, so
//!   million-job sources and recorded (e.g. SWF) traces run alike;
//! * [`trace`] — per-processor timelines, utilization statistics, and
//!   machine-load profiles;
//! * [`metrics`] — aggregate statistics (utilization, average waiting time,
//!   work conservation) plus per-user fairness reports (stretch and
//!   weighted flow), with online accumulators ([`RunningSum`],
//!   [`RunningFairness`]) used by the streaming engine, examples, the
//!   CLI, and experiment reports.
//!
//! [`MakespanSolver`]: moldable_sched::solver::MakespanSolver
//!
//! The simulator is an *independent* implementation of feasibility: it
//! assigns concrete processor ids and verifies no processor runs two jobs
//! at once, which cross-checks `moldable_sched::validate` (that checker
//! reasons about aggregate demand only).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backfill;
pub mod engine;
pub mod executor;
pub mod metrics;
pub mod online;
pub mod stream;
pub mod trace;

pub use backfill::{backfill_schedule, BackfillOutcome};
pub use engine::{Event, EventKind, SimError};
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
pub use trace::{ProcessorTimeline, Segment, Trace};
