//! # moldable-sched
//!
//! Every scheduling algorithm of *Scheduling Monotone Moldable Jobs in
//! Linear Time* (Jansen & Land, IPDPS 2018), plus the substrates they stand
//! on:
//!
//! * [`schedule`] / [`validate`](mod@validate) — schedule representation and an
//!   independent feasibility checker;
//! * [`list_scheduling`] — rigid-allotment list scheduling (Garey–Graham);
//! * [`estimator`] — the factor-2 estimator (Ludwig–Tiwari style);
//! * [`dual`] — the dual-approximation binary-search framework;
//! * [`fptas_large_m`] — Theorem 2's FPTAS for `m ≥ 8n/ε`;
//! * [`ptas`] — the Section 3.2 dispatcher;
//! * [`shelves`] / [`transform`] / [`small_jobs`] / [`assemble`] — the
//!   two-shelf → three-shelf machinery of Section 4.1 (Lemmas 6–9);
//! * [`mrt`] — the original `O(nm)` 3/2-dual algorithm (Section 4.1);
//! * [`compressible_sched`] — Algorithm 1 via knapsack with compressible
//!   items (Section 4.2);
//! * [`improved`] — Algorithm 3 via item-type rounding + bounded knapsack
//!   (Section 4.3) and the fully linear variant (Section 4.3.3);
//! * [`rounding`] — the Section 4.3.1 item-type rounding pass, shared by
//!   every knapsack-based solver;
//! * [`convolve`] / [`conv_fptas`] — the size-class (max,+) kernel and
//!   the compression+convolution solver built on it
//!   (Grage–Jansen–Ohnesorge, arXiv:2303.01414);
//! * [`exact`] — exhaustive ground truth for tiny instances (Theorem 1's
//!   NP-membership procedure);
//! * [`baselines`] — the 2-approximation and the sequential baseline;
//! * [`place`] / [`policy`] — the lowering pipeline from allotment
//!   schedules to concrete processor sets, parameterized by a machine
//!   [`Topology`](moldable_core::hierarchy::Topology) and a
//!   [`PlacementPolicy`];
//! * [`solver`] — the [`MakespanSolver`] facade unifying all of the above
//!   behind one object-safe trait over [`moldable_core::view::JobView`]
//!   snapshots;
//! * [`batch`] — the batch-execution engine running solvers across
//!   instances (or solver rosters across one instance) with
//!   deterministic work-stealing;
//! * [`quotas`] / [`fairshare`] — the multi-tenant layer: windowed
//!   admission quotas keyed on `(user, project, class)` with typed
//!   denials, and decayed fair-share usage feeding iteratively
//!   normalized priority weights.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod assemble;
pub mod baselines;
pub mod batch;
pub mod compressible_sched;
pub mod contiguous;
pub mod conv_fptas;
pub mod convolve;
pub mod dual;
pub mod estimator;
pub mod exact;
pub mod fairshare;
pub mod fptas_large_m;
pub mod improved;
pub mod list_scheduling;
pub mod mrt;
pub mod place;
pub mod policy;
pub mod ptas;
pub mod quotas;
pub mod rounding;
pub mod schedule;
pub mod shelves;
pub mod small_jobs;
pub mod solver;
pub mod transform;
pub mod validate;

pub use batch::{race, solve_many, BatchResult};
pub use compressible_sched::CompressibleDual;
pub use contiguous::ContiguousSolver;
pub use conv_fptas::{ConvDual, ConvFptasSolver};
pub use convolve::{maxplus_ref, maxplus_staircase};
pub use dual::{approximate, approximate_view, ApproxResult, DualAlgorithm};
pub use estimator::{estimate, estimate_view, Estimate};
pub use fairshare::Fairshare;
pub use fptas_large_m::{fptas_schedule, FptasLargeM};
pub use improved::{ImprovedDual, Variant};
pub use mrt::MrtDual;
pub use place::{place_contiguous, place_with};
pub use policy::PlacementPolicy;
pub use ptas::{ptas_schedule, ptas_schedule_view, PtasBranch, PtasResult};
pub use quotas::{Demand, QuotaDenial, QuotaEngine, QuotaRule, QuotaSet, Tenant};
pub use schedule::{Assignment, Schedule};
pub use solver::{solver_by_name, MakespanSolver, SolveOutcome, UnknownSolver, SOLVER_NAMES};
pub use validate::{validate, validate_with_makespan, Overcommit, ScheduleError};
