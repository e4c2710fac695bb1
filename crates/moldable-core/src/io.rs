//! Serializable instance descriptions (JSON via serde).
//!
//! The oracle model itself cannot be serialized (a [`crate::speedup::SpeedupModel`]
//! is arbitrary code), so files carry *curve descriptors* for every
//! closed-form family. This is precisely the "compact encoding" the paper
//! studies: a few integers describe a curve over 2^40 processor counts.
//!
//! ```json
//! {
//!   "m": 1048576,
//!   "jobs": [
//!     { "constant": 500 },
//!     { "ideal_with_overhead": { "t1": 1000000, "c": 2, "cap": 1048576 } },
//!     { "staircase": [[1, 900], [4, 700], [64, 650]] },
//!     { "table": [70, 40, 30] },
//!     { "affine_decreasing": { "base": 4000 } }
//!   ]
//! }
//! ```

use crate::instance::Instance;
use crate::monotone::MonotoneViolation;
use crate::speedup::{SpeedupCurve, Staircase, StaircaseError};
use crate::types::{Procs, Time, Work};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A serializable speedup-curve descriptor.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
#[serde(rename_all = "snake_case")]
pub enum CurveSpec {
    /// `t(p) = t1` (sequential job).
    Constant(Time),
    /// `t(p) = base − p + 1` (the Theorem 1 family).
    AffineDecreasing {
        /// `t(1)`.
        base: Time,
    },
    /// Explicit per-processor times (index `p−1`; clamped beyond the end).
    Table(Vec<Time>),
    /// Piecewise-constant compact curve: `(first count, time)` breakpoints.
    Staircase(Vec<(Procs, Time)>),
    /// `t(p) = ⌈t1/p̂⌉ + (p̂−1)·c`, `p̂ = min(p, cap)`.
    IdealWithOverhead {
        /// Sequential time.
        t1: Time,
        /// Per-processor overhead (≥ 1).
        c: Time,
        /// Saturation cap (clamped to the provably-valid window on load).
        cap: Procs,
    },
}

/// Errors turning a spec into a curve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The staircase breakpoints were invalid.
    Staircase(StaircaseError),
    /// An empty table.
    EmptyTable,
    /// A table whose time rises, or whose work drops, from `t(p)` to
    /// `t(p+1)` — the first such `p`.
    NonMonotoneTable(MonotoneViolation),
    /// A zero time.
    ZeroTime,
    /// A machine count of zero.
    ZeroMachines,
    /// An instance without jobs.
    NoJobs,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Staircase(e) => write!(f, "invalid staircase: {e}"),
            SpecError::EmptyTable => write!(f, "table must be non-empty"),
            SpecError::NonMonotoneTable(MonotoneViolation::TimeIncreased { p }) => {
                write!(f, "table time rises from p = {p} to p = {}", p + 1)
            }
            SpecError::NonMonotoneTable(MonotoneViolation::WorkDecreased { p }) => {
                write!(f, "table work drops from p = {p} to p = {}", p + 1)
            }
            SpecError::ZeroTime => write!(f, "processing times must be positive"),
            SpecError::ZeroMachines => write!(f, "machine count must be positive"),
            SpecError::NoJobs => write!(f, "instance must have at least one job"),
        }
    }
}

impl std::error::Error for SpecError {}

impl CurveSpec {
    /// Validate and instantiate the curve.
    pub fn build(&self) -> Result<SpeedupCurve, SpecError> {
        self.clone().into_curve()
    }

    /// Validate and instantiate the curve, moving a table's or a
    /// staircase's vector into it instead of copying it.
    pub fn into_curve(self) -> Result<SpeedupCurve, SpecError> {
        match self {
            CurveSpec::Constant(t) => {
                if t == 0 {
                    return Err(SpecError::ZeroTime);
                }
                Ok(SpeedupCurve::Constant(t))
            }
            CurveSpec::AffineDecreasing { base } => {
                if base == 0 {
                    return Err(SpecError::ZeroTime);
                }
                Ok(SpeedupCurve::AffineDecreasing { base })
            }
            CurveSpec::Table(t) => {
                if t.is_empty() {
                    return Err(SpecError::EmptyTable);
                }
                if t.contains(&0) {
                    return Err(SpecError::ZeroTime);
                }
                // The staircase's two rules: time never rises, work never drops.
                for (p, w) in (1..).zip(t.windows(2)) {
                    if w[1] > w[0] {
                        return Err(SpecError::NonMonotoneTable(
                            MonotoneViolation::TimeIncreased { p },
                        ));
                    }
                    if (p as Work + 1) * (w[1] as Work) < p as Work * (w[0] as Work) {
                        return Err(SpecError::NonMonotoneTable(
                            MonotoneViolation::WorkDecreased { p },
                        ));
                    }
                }
                Ok(SpeedupCurve::Table(Arc::new(t)))
            }
            CurveSpec::Staircase(steps) => Staircase::new(steps)
                .map(|s| SpeedupCurve::Staircase(Arc::new(s)))
                .map_err(SpecError::Staircase),
            CurveSpec::IdealWithOverhead { t1, c, cap } => {
                if t1 == 0 {
                    return Err(SpecError::ZeroTime);
                }
                Ok(SpeedupCurve::ideal_with_overhead(t1, c, cap))
            }
        }
    }

    /// Describe an existing curve (fails on `Custom` oracles, which have no
    /// portable representation).
    pub fn from_curve(curve: &SpeedupCurve) -> Option<CurveSpec> {
        match curve {
            SpeedupCurve::Constant(t) => Some(CurveSpec::Constant(*t)),
            SpeedupCurve::AffineDecreasing { base } => {
                Some(CurveSpec::AffineDecreasing { base: *base })
            }
            SpeedupCurve::Table(t) => Some(CurveSpec::Table(t.as_ref().clone())),
            SpeedupCurve::Staircase(s) => Some(CurveSpec::Staircase(s.steps().to_vec())),
            SpeedupCurve::IdealWithOverhead { t1, c, cap } => {
                Some(CurveSpec::IdealWithOverhead {
                    t1: *t1,
                    c: *c,
                    cap: *cap,
                })
            }
            SpeedupCurve::Custom(_) => None,
        }
    }
}

/// A serializable instance.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct InstanceSpec {
    /// Machine count.
    pub m: Procs,
    /// One curve per job.
    pub jobs: Vec<CurveSpec>,
}

impl InstanceSpec {
    /// Validate and build the instance. An instance needs a machine and
    /// a job: the solvers assume both.
    pub fn build(&self) -> Result<Instance, SpecError> {
        self.clone().into_instance()
    }

    /// [`InstanceSpec::build`], moving each curve's vector into the
    /// instance instead of copying it.
    pub fn into_instance(self) -> Result<Instance, SpecError> {
        if self.m == 0 {
            return Err(SpecError::ZeroMachines);
        }
        if self.jobs.is_empty() {
            return Err(SpecError::NoJobs);
        }
        let curves = self
            .jobs
            .into_iter()
            .map(CurveSpec::into_curve)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Instance::new(curves, self.m))
    }

    /// Describe an existing instance (fails on `Custom` oracles).
    pub fn from_instance(inst: &Instance) -> Option<InstanceSpec> {
        let jobs = inst
            .jobs()
            .iter()
            .map(|j| CurveSpec::from_curve(j.curve()))
            .collect::<Option<Vec<_>>>()?;
        Some(InstanceSpec { m: inst.m(), jobs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_families() {
        let spec = InstanceSpec {
            m: 1 << 20,
            jobs: vec![
                CurveSpec::Constant(5),
                CurveSpec::AffineDecreasing { base: 1 << 21 },
                CurveSpec::Table(vec![9, 5, 4]),
                CurveSpec::Staircase(vec![(1, 100), (4, 80)]),
                CurveSpec::IdealWithOverhead {
                    t1: 1 << 20,
                    c: 2,
                    cap: 1 << 20,
                },
            ],
        };
        let inst = spec.build().unwrap();
        assert_eq!(inst.n(), 5);
        let back = InstanceSpec::from_instance(&inst).unwrap();
        // cap may have been clamped on load; rebuild once more and compare.
        let inst2 = back.build().unwrap();
        for (a, b) in inst.jobs().iter().zip(inst2.jobs()) {
            for p in [1u64, 2, 7, 1 << 10, 1 << 20] {
                assert_eq!(a.time(p), b.time(p));
            }
        }
    }

    #[test]
    fn rejects_invalid_specs() {
        assert_eq!(
            CurveSpec::Constant(0).build().unwrap_err(),
            SpecError::ZeroTime
        );
        assert_eq!(
            CurveSpec::Table(vec![]).build().unwrap_err(),
            SpecError::EmptyTable
        );
        assert!(matches!(
            CurveSpec::Staircase(vec![(2, 5)]).build().unwrap_err(),
            SpecError::Staircase(StaircaseError::FirstStepNotOne)
        ));
    }

    #[test]
    fn custom_curves_are_not_serializable() {
        #[derive(Debug)]
        struct Oracle;
        impl crate::speedup::SpeedupModel for Oracle {
            fn time(&self, _p: Procs) -> Time {
                1
            }
        }
        let c = SpeedupCurve::Custom(Arc::new(Oracle));
        assert!(CurveSpec::from_curve(&c).is_none());
    }
}
