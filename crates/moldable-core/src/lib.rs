//! # moldable-core
//!
//! Problem model and core substrates for *Scheduling Monotone Moldable Jobs
//! in Linear Time* (Jansen & Land, IPDPS 2018).
//!
//! A **moldable job** can run on any number `p ∈ {1..m}` of processors with
//! processing time `t_j(p)` given by an oracle; it is **monotone** when its
//! work `w_j(p) = p·t_j(p)` is non-decreasing. This crate provides:
//!
//! * exact rational arithmetic for thresholds ([`ratio`]),
//! * processing-time oracles incl. compact encodings ([`speedup`], [`job`]),
//! * canonical allotments `γ_j(t)` ([`gamma`](mod@gamma)),
//! * the compression technique of Lemmas 4 & 16 ([`compression`]),
//! * geometric grids & rounding of Definition 13 / Lemma 14 ([`geom`]),
//! * monotonicity verification ([`monotone`]) and makespan lower bounds
//!   ([`bounds`]),
//! * flat struct-of-arrays instance snapshots serving `t_j(p)` and
//!   `γ_j(t)` as oracle-free array lookups ([`view`]),
//! * the placement substrate: interval sets of processor indices
//!   ([`procset`]), the `job → (interval, processor set)` layer with its
//!   validator
//!   ([`placement`]), and the machine-as-a-tree model with locality and
//!   fragmentation metrics ([`hierarchy`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounds;
pub mod compression;
pub mod gamma;
pub mod geom;
pub mod hash;
pub mod hierarchy;
pub mod instance;
pub mod io;
pub mod job;
pub mod metrics;
pub mod monotone;
pub mod oracle;
pub mod placement;
pub mod procset;
pub mod ratio;
pub mod speedup;
pub mod types;
pub mod view;

pub use compression::{Compression, DoubleCompression};
pub use gamma::{gamma, gamma_int};
pub use hash::StableHasher;
pub use hierarchy::{FragmentationReport, Level, LevelFragmentation, Topology, TopologyError};
pub use instance::Instance;
pub use io::{CurveSpec, InstanceSpec};
pub use job::Job;
pub use metrics::RunningSum;
pub use oracle::{counting_instance, CountingOracle, OracleCounter};
pub use placement::{
    PlacedJob, Placement, PlacementError, PlacementIntervalMismatch, PlacementOverlap,
};
pub use procset::ProcSet;
pub use ratio::Ratio;
pub use speedup::{monotone_closure, SpeedupCurve, SpeedupModel, Staircase};
pub use types::{JobId, Procs, Time, Work};
pub use view::JobView;
