//! # moldable
//!
//! A from-scratch Rust implementation of *Scheduling Monotone Moldable Jobs
//! in Linear Time* (Klaus Jansen & Felix Land, IPDPS 2018;
//! arXiv:1711.00103) — algorithms, substrates, hardness reduction,
//! benchmark harness, and figures.
//!
//! ## Quick start
//!
//! ```
//! use moldable::prelude::*;
//!
//! // Four moldable jobs with linear-overhead speedup on m = 1024 machines.
//! let curves: Vec<_> = (0..4)
//!     .map(|i| SpeedupCurve::ideal_with_overhead(1 << (14 + i), 2, 1 << 10))
//!     .collect();
//! let inst = Instance::new(curves, 1 << 10);
//!
//! // (3/2 + ε)-approximate schedule via the paper's linear-time algorithm.
//! let eps = Ratio::new(1, 4);
//! let algo = ImprovedDual::new_linear(eps);
//! let result = approximate(&inst, &algo, &eps);
//! validate(&result.schedule, &inst).unwrap();
//! println!("makespan = {}", result.schedule.makespan(&inst));
//! ```
//!
//! See [`design`] (rendered from `DESIGN.md`) for the paper-to-code map,
//! the substitution notes, and the experiment index.

pub use moldable_analysis as analysis;
pub use moldable_core as core;
pub use moldable_hardness as hardness;
pub use moldable_knapsack as knapsack;
pub use moldable_sched as sched;
pub use moldable_sim as sim;
pub use moldable_svc as svc;
pub use moldable_viz as viz;
pub use moldable_workloads as workloads;

#[doc = include_str!("../DESIGN.md")]
pub mod design {}

#[doc(hidden)]
pub mod args;

/// The most common imports in one place.
pub mod prelude {
    pub use moldable_core::{
        gamma, Instance, Job, Procs, Ratio, SpeedupCurve, Staircase, Time,
    };
    pub use moldable_sched::{
        approximate, estimate, fptas_schedule, ptas_schedule, validate, ApproxResult,
        CompressibleDual, DualAlgorithm, ImprovedDual, MrtDual, Schedule,
    };
    pub use moldable_workloads::{bench_instance, BenchFamily};
}
