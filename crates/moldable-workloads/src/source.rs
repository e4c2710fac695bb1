//! The [`WorkloadSource`] backend trait: one interface over synthetic
//! families and SWF traces.
//!
//! The scheduler, the simulator, and the bench harness all consume
//! workloads in two shapes — an *offline instance* (every job known at
//! time zero, the paper's model) and a *timed arrival stream* (what a
//! cluster front-end sees). A backend produces both deterministically, so
//! an experiment can swap `--family mixed` for `--trace cluster.swf`
//! without touching anything downstream:
//!
//! * [`SyntheticSource`] — the generator families of [`crate::suite`],
//!   with a deterministic pseudo-Poisson arrival process;
//! * [`SwfSource`] — a parsed SWF trace lifted through
//!   [`crate::moldability`], replaying the recorded submit times.

use crate::moldability::{
    synthesize_instance, synthesize_stream, synthesize_stream_tagged, SynthesisParams,
};
use crate::suite::{bench_instance, BenchFamily};
use crate::swf::SwfTrace;
use moldable_core::instance::Instance;
use moldable_core::speedup::SpeedupCurve;
use moldable_core::types::{Procs, Time};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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

    /// The job set as a timed arrival stream: `(arrival, curve)` pairs
    /// sorted by arrival, with the first arrival at time zero.
    fn arrival_stream(&self) -> Vec<(Time, SpeedupCurve)>;

    /// The stream as a **lazy** iterator of `(arrival, curve, user)`
    /// triples (user `-1` when the backend has no identities), sorted by
    /// arrival. The default materializes [`arrival_stream`] — correct
    /// for every backend, `O(n)` memory; generator backends (the
    /// Lublin–Feitelson model) override it to synthesize one job at a
    /// time, which is what lets the streaming simulator consume
    /// million-job sources in `O(pending)` memory.
    ///
    /// [`arrival_stream`]: WorkloadSource::arrival_stream
    fn stream_iter(&self) -> Box<dyn Iterator<Item = (Time, SpeedupCurve, i64)> + '_> {
        Box::new(self.arrival_stream().into_iter().map(|(a, c)| (a, c, -1)))
    }
}

/// A synthetic-family backend: the curves of [`bench_instance`] plus a
/// deterministic pseudo-Poisson arrival process.
#[derive(Clone, Debug)]
pub struct SyntheticSource {
    /// Which generator family.
    pub family: BenchFamily,
    /// Number of jobs.
    pub n: usize,
    /// Machine count.
    pub m: Procs,
    /// Generator seed (curves and arrivals).
    pub seed: u64,
    /// Mean interarrival gap of the synthetic stream (time units).
    pub mean_interarrival: Time,
}

impl SyntheticSource {
    /// A source with the default interarrival gap (64 time units).
    pub fn new(family: BenchFamily, n: usize, m: Procs, seed: u64) -> Self {
        SyntheticSource {
            family,
            n,
            m,
            seed,
            mean_interarrival: 64,
        }
    }
}

impl WorkloadSource for SyntheticSource {
    fn label(&self) -> String {
        format!(
            "{}(n={}, m={}, seed={})",
            self.family.name(),
            self.n,
            self.m,
            self.seed
        )
    }

    fn machine_count(&self) -> Procs {
        self.m
    }

    fn offline_instance(&self) -> Instance {
        bench_instance(self.family, self.n, self.m, self.seed)
    }

    fn arrival_stream(&self) -> Vec<(Time, SpeedupCurve)> {
        let inst = self.offline_instance();
        // Uniform gaps in [0, 2·mean] have the right mean and keep the
        // stream deterministic; the first job arrives at zero.
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0xA44A_11A7_5EED_5EED);
        let mut clock: Time = 0;
        inst.jobs()
            .iter()
            .enumerate()
            .map(|(i, j)| {
                if i > 0 {
                    clock += rng.gen_range(0..=2 * self.mean_interarrival.max(1));
                }
                (clock, j.curve().clone())
            })
            .collect()
    }
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

    fn arrival_stream(&self) -> Vec<(Time, SpeedupCurve)> {
        synthesize_stream(&self.trace, self.m, &self.params, self.max_jobs)
    }

    fn stream_iter(&self) -> Box<dyn Iterator<Item = (Time, SpeedupCurve, i64)> + '_> {
        // Materialized (the sort needs the whole trace anyway), but with
        // the SWF user ids carried through for fairness accounting,
        // aligned index by index with `arrival_stream`.
        let tagged = synthesize_stream_tagged(&self.trace, self.m, &self.params, self.max_jobs);
        Box::new(tagged.into_iter())
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
    fn synthetic_source_round_trip() {
        let src = SyntheticSource::new(BenchFamily::Mixed, 10, 256, 3);
        let inst = src.offline_instance();
        assert_eq!(inst.n(), 10);
        assert_eq!(src.machine_count(), 256);
        let stream = src.arrival_stream();
        assert_eq!(stream.len(), 10);
        assert_eq!(stream[0].0, 0);
        assert!(stream.windows(2).all(|w| w[0].0 <= w[1].0));
        // Same config, same stream.
        let again = SyntheticSource::new(BenchFamily::Mixed, 10, 256, 3).arrival_stream();
        for (a, b) in stream.iter().zip(&again) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.time(7), b.1.time(7));
        }
    }

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
        let stream = src.arrival_stream();
        assert_eq!(stream.len(), 3);
        assert_eq!(stream[0].0, 0);
        assert_eq!(stream[2].0, 90_000); // ticks: 90 s × 1000
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
    fn tagged_stream_aligns_with_plain_stream() {
        let trace = SwfTrace::parse(TINY).unwrap();
        let src = SwfSource::new(trace, None, SynthesisParams::default()).unwrap();
        let plain = src.arrival_stream();
        let tagged: Vec<_> = src.stream_iter().collect();
        assert_eq!(plain.len(), tagged.len());
        for ((a, c), (ta, tc, user)) in plain.iter().zip(&tagged) {
            assert_eq!(a, ta);
            assert_eq!(c.time(5), tc.time(5));
            assert!(*user >= 1, "TINY records carry user ids");
        }
        // TINY's users are 1, 2, 3 in submit order.
        let users: Vec<i64> = tagged.iter().map(|&(_, _, u)| u).collect();
        assert_eq!(users, vec![1, 2, 3]);
    }

    #[test]
    fn max_jobs_truncates() {
        let trace = SwfTrace::parse(TINY).unwrap();
        let src = SwfSource::new(trace, None, SynthesisParams::default())
            .unwrap()
            .with_max_jobs(2);
        assert_eq!(src.offline_instance().n(), 2);
        assert_eq!(src.arrival_stream().len(), 2);
    }
}
