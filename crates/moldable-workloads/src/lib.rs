//! # moldable-workloads
//!
//! Workload backends for the benchmark harness, simulator, and tests.
//!
//! The paper evaluates on a cost model (oracle calls / RAM operations), not
//! on a testbed, so workloads here serve three purposes: (a) exercising
//! every algorithm across the regimes the paper distinguishes (`m ≷ 8n/ε`,
//! `m ≷ 16n`, wide vs narrow jobs), (b) realistic speedup shapes from the
//! parallel-computing literature — power-law (Downey-style), Amdahl, and
//! communication-overhead curves — projected *exactly* onto the monotone
//! feasible region (see `moldable_core::speedup::Staircase` and DESIGN.md's
//! substitution notes), and (c) **real HPC traces** in the Standard
//! Workload Format, lifted into monotone moldable jobs:
//!
//! * [`swf`] — parser for SWF headers and 18-field job records;
//! * [`moldability`] — fits Downey/Amdahl curves through each record's
//!   observed `(processors, runtime)` point (under a single admission
//!   policy for degenerate records) and projects them onto exact
//!   staircases;
//! * [`lublin`] — the Lublin–Feitelson workload *model*: hyper-gamma
//!   runtimes, two-stage uniform log₂ sizes, daily-cycle arrivals — a
//!   lazy, deterministic generator that synthesizes million-job streams
//!   without a trace file;
//! * [`source`] — the [`WorkloadSource`] backend trait: one interface
//!   over SWF traces and the Lublin–Feitelson model, each giving an
//!   offline instance and a lazy, user-tagged arrival stream
//!   ([`WorkloadSource::stream_iter`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod families;
pub mod hpc_mix;
pub mod lublin;
pub mod moldability;
pub mod source;
pub mod suite;
pub mod swf;

pub use families::{
    amdahl_staircase, comm_overhead_staircase, power_law_staircase, random_mixed_instance,
    random_table_instance, PowerLawParams,
};
pub use hpc_mix::{adversarial_instance, hpc_mix_instance, HpcMixParams};
pub use lublin::{LublinGenerator, LublinParams, LublinSource};
pub use moldability::{
    admissible_records, admit_procs, admit_submit, downey_speedup, effective_procs,
    fit_curve_through, resampled_instance, synthesize_curve, synthesize_instance,
    synthesize_stream, FitModel, SynthesisParams,
};
pub use source::{SwfSource, WorkloadSource};
pub use suite::{bench_instance, BenchFamily};
pub use swf::{SwfError, SwfHeader, SwfRecord, SwfTrace};
