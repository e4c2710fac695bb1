//! The [`WorkloadSource`] backend trait: one interface over generated and
//! recorded workloads.
//!
//! The scheduler, the simulator, and the bench harness all consume
//! workloads in two shapes — an *offline instance* (every job known at
//! time zero, the paper's model) and a *timed arrival stream* (what a
//! cluster front-end sees). A backend produces both deterministically, so
//! an experiment can swap `--model lublin` for `--trace cluster.swf`
//! without touching anything downstream:
//!
//! * [`SwfSource`] — a parsed SWF trace lifted through
//!   [`crate::moldability`], replaying the recorded submit times;
//! * [`LublinSource`](crate::lublin::LublinSource) — the
//!   Lublin–Feitelson model, synthesized one job at a time.

use crate::moldability::{synthesize_instance, synthesize_stream, SynthesisParams};
use crate::swf::SwfTrace;
use moldable_core::instance::Instance;
use moldable_core::speedup::SpeedupCurve;
use moldable_core::types::{Procs, Time};

/// A deterministic workload backend.
///
/// Implementations must be reproducible: two calls with the same
/// configuration return identical instances and streams.
pub trait WorkloadSource {
    /// Human-readable label for reports and bench ids.
    fn label(&self) -> String;

    /// The machine count this workload targets.
    fn machine_count(&self) -> Procs;

    /// The whole job set as an offline instance (all jobs at time zero).
    fn offline_instance(&self) -> Instance;

    /// The job set as a timed arrival stream: `(arrival, curve, user)`
    /// triples (user `-1` when the backend has no identities) sorted by
    /// arrival, with the first arrival at time zero. Generator backends
    /// (the Lublin–Feitelson model) synthesize one job at a time, which
    /// is what lets the streaming simulator consume million-job sources
    /// in `O(pending)` memory.
    fn stream_iter(&self) -> Box<dyn Iterator<Item = (Time, SpeedupCurve, i64)> + '_>;
}

/// An SWF-trace backend: records lifted into moldable jobs, submit times
/// replayed as the arrival process.
#[derive(Clone, Debug)]
pub struct SwfSource {
    /// The parsed trace.
    pub trace: SwfTrace,
    /// Machine count to schedule against.
    pub m: Procs,
    /// Moldability-synthesis parameters.
    pub params: SynthesisParams,
    /// Optional truncation to the first `max_jobs` usable records.
    pub max_jobs: Option<usize>,
}

impl SwfSource {
    /// Build a source from a parsed trace. `m` overrides the header's
    /// machine count; returns `None` when neither is available.
    pub fn new(trace: SwfTrace, m: Option<Procs>, params: SynthesisParams) -> Option<Self> {
        let m = m
            .or_else(|| trace.header.machine_count())
            .filter(|&m| m >= 1)?;
        Some(SwfSource {
            trace,
            m,
            params,
            max_jobs: None,
        })
    }

    /// Truncate to the first `max_jobs` usable records.
    pub fn with_max_jobs(mut self, max_jobs: usize) -> Self {
        self.max_jobs = Some(max_jobs);
        self
    }
}

impl WorkloadSource for SwfSource {
    fn label(&self) -> String {
        format!(
            "swf({} jobs, m={}, {})",
            crate::moldability::admissible_records(&self.trace)
                .count()
                .min(self.max_jobs.unwrap_or(usize::MAX)),
            self.m,
            self.params.model.name()
        )
    }

    fn machine_count(&self) -> Procs {
        self.m
    }

    fn offline_instance(&self) -> Instance {
        synthesize_instance(&self.trace, self.m, &self.params, self.max_jobs)
    }

    fn stream_iter(&self) -> Box<dyn Iterator<Item = (Time, SpeedupCurve, i64)> + '_> {
        // Materialized (the sort needs the whole trace anyway), with the
        // SWF user ids carried through for fairness accounting.
        let stream = synthesize_stream(&self.trace, self.m, &self.params, self.max_jobs);
        Box::new(stream.into_iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_core::monotone::verify_monotone;

    const TINY: &str = "\
; MaxProcs: 32
1 0 100 60 4 -1 -1 4 120 -1 1 1 1 1 1 -1 -1 -1
2 50 10 120 8 -1 -1 8 240 -1 1 2 1 1 1 -1 -1 -1
3 90 0 30 1 -1 -1 1 60 -1 1 3 1 1 1 -1 -1 -1
";

    #[test]
    fn swf_source_uses_header_machine_count() {
        let trace = SwfTrace::parse(TINY).unwrap();
        let src = SwfSource::new(trace, None, SynthesisParams::default()).unwrap();
        assert_eq!(src.machine_count(), 32);
        let inst = src.offline_instance();
        assert_eq!(inst.n(), 3);
        for j in inst.jobs() {
            verify_monotone(j, 32).unwrap();
        }
        let arrivals: Vec<Time> = src.stream_iter().map(|(a, _, _)| a).collect();
        assert_eq!(arrivals, vec![0, 50_000, 90_000]); // ticks: s × 1000
    }

    #[test]
    fn swf_source_requires_some_machine_count() {
        let headerless = "1 0 100 60 4 -1 -1 4 120 -1 1 1 1 1 1 -1 -1 -1";
        let trace = SwfTrace::parse(headerless).unwrap();
        assert!(SwfSource::new(trace.clone(), None, SynthesisParams::default()).is_none());
        let src = SwfSource::new(trace, Some(16), SynthesisParams::default()).unwrap();
        assert_eq!(src.machine_count(), 16);
    }

    #[test]
    fn stream_carries_swf_user_ids() {
        let trace = SwfTrace::parse(TINY).unwrap();
        let src = SwfSource::new(trace, None, SynthesisParams::default()).unwrap();
        // TINY's users are 1, 2, 3 in submit order.
        let users: Vec<i64> = src.stream_iter().map(|(_, _, u)| u).collect();
        assert_eq!(users, vec![1, 2, 3]);
    }

    #[test]
    fn max_jobs_truncates() {
        let trace = SwfTrace::parse(TINY).unwrap();
        let src = SwfSource::new(trace, None, SynthesisParams::default())
            .unwrap()
            .with_max_jobs(2);
        assert_eq!(src.offline_instance().n(), 2);
        assert_eq!(src.stream_iter().count(), 2);
    }
}
