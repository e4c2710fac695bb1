//! Lift rigid SWF records into monotone moldable jobs.
//!
//! An SWF record observes a job at a *single* point: it ran on
//! `allocated_procs` processors for `run_time` seconds. The moldable
//! scheduling problem needs the whole curve `t_j(p)`. Following the
//! standard practice of the moldable-scheduling literature, we fit a
//! parametric speedup model through the observed point:
//!
//! * **Amdahl** — `t(p) = t1·(f + (1−f)/p)` with serial fraction `f`
//!   sampled per job; the observed point pins `t1 = t_obs / (f + (1−f)/p_obs)`.
//! * **Downey** — Downey's two-parameter model (average parallelism `A`,
//!   variance `σ`): `A` is taken from the recorded allocation (the
//!   scheduler that produced the trace sized the job near its useful
//!   parallelism) and `σ` is sampled; the observed point pins
//!   `t1 = t_obs · S(p_obs)`.
//!
//! The fitted ideal curve is then sampled on the
//! [`crate::families::dense_then_geometric`] grid (kept integer-dense
//! through the observed count) and **projected exactly** onto a monotone
//! [`Staircase`](moldable_core::speedup::Staircase) via [`crate::families::project`] — monotonicity of every
//! synthesized job is a structural guarantee, not a numerical hope.
//!
//! Synthesis is deterministic: each job's model parameters come from an
//! rng seeded by `(params.seed, job index)`, so truncating or re-ordering
//! a trace never changes the curves of the jobs that remain. Times (and
//! arrivals) are denominated in integer *ticks* of
//! `1/SynthesisParams::time_scale` seconds — milliseconds by default —
//! so staircases keep integer resolution even at large processor counts.

use crate::families::{dense_then_geometric, project};
use crate::swf::{SwfRecord, SwfTrace};
use moldable_core::instance::Instance;
use moldable_core::speedup::SpeedupCurve;
use moldable_core::types::{Procs, Time};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Which parametric speedup model to fit through the observed point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FitModel {
    /// Amdahl's law with a per-job sampled serial fraction.
    Amdahl,
    /// Downey's model with `A` from the recorded allocation and sampled `σ`.
    Downey,
}

impl FitModel {
    /// Stable display name (used by the CLI's `--model` flag).
    pub fn name(&self) -> &'static str {
        match self {
            FitModel::Amdahl => "amdahl",
            FitModel::Downey => "downey",
        }
    }
}

/// Parameters of the moldability synthesis.
#[derive(Clone, Debug)]
pub struct SynthesisParams {
    /// The speedup model fitted through each observed point.
    pub model: FitModel,
    /// Seed for the per-job parameter sampling.
    pub seed: u64,
    /// Percentage (0..=100) of jobs kept rigidly sequential — real mixes
    /// contain pre/post-processing jobs that do not parallelize at all.
    pub sequential_pct: u32,
    /// Integer time units per trace second (default 1000: milliseconds).
    ///
    /// A work-monotone *integer* staircase can shed at most `t/p < 1`
    /// time unit per jump once `t < p`, so second-denominated times hit a
    /// resolution floor near `t ≈ p` — wide jobs could no longer drop to
    /// their observed runtime. Sub-second ticks keep `t ≫ m` throughout.
    /// Arrivals ([`synthesize_stream`]) use the same unit.
    pub time_scale: Time,
}

impl Default for SynthesisParams {
    fn default() -> Self {
        SynthesisParams {
            model: FitModel::Downey,
            seed: 0,
            sequential_pct: 10,
            time_scale: 1000,
        }
    }
}

/// The admission policy for degenerate SWF records — the single place
/// where raw-trace pathologies are clamped or rejected before anything
/// reaches curve synthesis or the replayed arrival stream:
///
/// * **rejected**: records that never ran (`run_time ≤ 0`) or carry no
///   positive processor count at all (`allocated_procs ≤ 0` *and*
///   `requested_procs ≤ 0`);
/// * **clamped**: a zero/unknown allocation with a positive request
///   falls back to `requested_procs` (the scheduler's sizing intent);
///   negative submit times clamp to the trace origin (time zero).
///
/// Returns the effective observed processor count, or `None` when the
/// record is rejected.
pub fn admit_procs(rec: &SwfRecord) -> Option<Procs> {
    if rec.run_time <= 0.0 {
        return None;
    }
    effective_procs(rec)
}

/// The allocation-falling-back-to-request half of the admission policy,
/// independent of whether the record ran — what
/// [`SwfRecord::procs_clamped`](crate::swf::SwfRecord::procs_clamped)
/// reads out.
pub fn effective_procs(rec: &SwfRecord) -> Option<Procs> {
    if rec.allocated_procs > 0 {
        Some(rec.allocated_procs as Procs)
    } else if rec.requested_procs > 0 {
        Some(rec.requested_procs as Procs)
    } else {
        None
    }
}

/// A record's submit time under the admission policy: clamped to the
/// non-negative timeline (archive traces occasionally carry negative
/// submits from clock skew at the recording boundary).
pub fn admit_submit(rec: &SwfRecord) -> f64 {
    rec.submit_time.max(0.0)
}

/// The records the synthesis admits, in file order (see [`admit_procs`]).
pub fn admissible_records(trace: &SwfTrace) -> impl Iterator<Item = &SwfRecord> {
    trace.jobs.iter().filter(|r| admit_procs(r).is_some())
}

/// Downey's speedup function `S(n)` for average parallelism `a ≥ 1` and
/// variance `sigma ≥ 0` (low- and high-variance branches, continuous at
/// `sigma = 1`; `S(1) = 1` and `S(n) = a` past saturation).
pub fn downey_speedup(n: f64, a: f64, sigma: f64) -> f64 {
    debug_assert!(n >= 1.0 && a >= 1.0 && sigma >= 0.0);
    let s = if sigma <= 1.0 {
        if n <= a {
            a * n / (a + sigma / 2.0 * (n - 1.0))
        } else if n <= 2.0 * a - 1.0 {
            a * n / (sigma * (a - 0.5) + n * (1.0 - sigma / 2.0))
        } else {
            a
        }
    } else if n < a + a * sigma - sigma {
        n * a * (sigma + 1.0) / (sigma * (n + a - 1.0) + a)
    } else {
        a
    };
    s.clamp(1.0, a.max(1.0))
}

/// Observed `(processors, ticks)` point of a record, under the admission
/// policy ([`admit_procs`] fallback), clamped to `1..=m` processors and
/// at least one time unit.
fn observed_point(rec: &SwfRecord, m: Procs, time_scale: Time) -> (Procs, Time) {
    let p = admit_procs(rec).unwrap_or(1).min(m).max(1);
    let t = (rec.run_time * time_scale.max(1) as f64).round().max(1.0) as Time;
    (p, t)
}

/// Synthesize the moldable curve of one record. `index` is the job's
/// position in the synthesized set and makes the sampling deterministic.
pub fn synthesize_curve(
    rec: &SwfRecord,
    m: Procs,
    params: &SynthesisParams,
    index: usize,
) -> SpeedupCurve {
    let (p_obs, t_obs) = observed_point(rec, m, params.time_scale);
    fit_curve_through(p_obs, t_obs, m, params, index)
}

/// Fit a parametric speedup model through one observed
/// `(processors, ticks)` point and project it onto an exact monotone
/// staircase — the core of the SWF lift, shared by the Lublin–Feitelson
/// model generator ([`crate::lublin`]), which synthesizes its observed
/// points instead of reading them from a trace. `index` seeds the
/// per-job parameter sampling (deterministic for a fixed
/// `(params.seed, index)`).
pub fn fit_curve_through(
    p_obs: Procs,
    t_obs: Time,
    m: Procs,
    params: &SynthesisParams,
    index: usize,
) -> SpeedupCurve {
    let mut rng = SmallRng::seed_from_u64(
        params
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index as u64),
    );
    // A share of single-processor jobs stays rigidly sequential.
    if p_obs == 1 && rng.gen_range(0..100u32) < params.sequential_pct.min(100) {
        return SpeedupCurve::Constant(t_obs);
    }
    // A staircase jump can only shed a factor `(p−1)/p` of the previous
    // step's time (work monotonicity), so the sampling grid must stay
    // *dense* — every integer — through the region where the fitted curve
    // still drops, and in particular through the observed count; the
    // geometric tail is only adequate once the curve has saturated.
    let (ideal, extent): (Box<dyn Fn(f64) -> f64>, f64) = match params.model {
        FitModel::Amdahl => {
            // Serial fraction: log-uniform so both near-perfect and poorly
            // scaling jobs occur; observed single-processor jobs lean
            // serial (they were sized at 1 for a reason).
            let f = if p_obs == 1 {
                rng.gen_range(0.1f64..0.9)
            } else {
                let lo = (0.005f64).ln();
                let hi = (0.5f64).ln();
                rng.gen_range(lo..hi).exp()
            };
            let t1 = t_obs as f64 / (f + (1.0 - f) / p_obs as f64);
            // Past p ≈ 8/f the remaining drop is under a ninth of the
            // asymptote — flat enough for geometric sampling.
            (Box::new(move |p: f64| t1 * (f + (1.0 - f) / p)), 8.0 / f)
        }
        FitModel::Downey => {
            // Average parallelism: the recorded allocation, widened a
            // little (schedulers under-allocate as often as not); σ spans
            // Downey's reported range.
            let widen = rng.gen_range(1.0f64..2.0);
            let a = (p_obs as f64 * widen).max(1.0);
            let sigma = rng.gen_range(0.0f64..2.0);
            let t1 = t_obs as f64 * downey_speedup(p_obs as f64, a, sigma);
            // The model is exactly flat past its saturation point.
            let saturation = (2.0 * a).max(a + a * sigma - sigma);
            (
                Box::new(move |p: f64| t1 / downey_speedup(p, a, sigma)),
                saturation,
            )
        }
    };
    // The model-extent component is capped to bound breakpoint counts,
    // but the grid must never go sparse below the observed count — the
    // fitted curve is still dropping there, and a sparse grid would lose
    // the observation itself.
    let dense_to = (extent.ceil() as Procs).clamp(64, 4096).max(p_obs);
    // Keep only grid points where the rounded ideal time strictly drops:
    // `project` forces a decrement at every sample it keeps, so feeding it
    // a flat stretch would push the staircase below the fitted curve.
    let mut samples: Vec<(Procs, Time)> = Vec::new();
    for p in dense_then_geometric(m, dense_to) {
        let t = ideal(p as f64).round().max(1.0) as Time;
        match samples.last() {
            None => samples.push((p, t)),
            Some(&(_, t_prev)) if t < t_prev => samples.push((p, t)),
            _ => {}
        }
    }
    SpeedupCurve::Staircase(Arc::new(project(samples)))
}

/// Synthesize an offline instance from the usable records of a trace,
/// optionally truncated to the first `max_jobs` of them.
pub fn synthesize_instance(
    trace: &SwfTrace,
    m: Procs,
    params: &SynthesisParams,
    max_jobs: Option<usize>,
) -> Instance {
    let curves = admissible_records(trace)
        .take(max_jobs.unwrap_or(usize::MAX))
        .enumerate()
        .map(|(i, rec)| synthesize_curve(rec, m, params, i))
        .collect();
    Instance::new(curves, m)
}

/// Synthesize the timed arrival stream of a trace: one
/// `(arrival, curve, user)` triple per usable record — the SWF user id is
/// the identity per-user fairness metrics aggregate by — with arrivals
/// normalized so the first submission is at time zero, sorted (stably)
/// by arrival.
pub fn synthesize_stream(
    trace: &SwfTrace,
    m: Procs,
    params: &SynthesisParams,
    max_jobs: Option<usize>,
) -> Vec<(Time, SpeedupCurve, i64)> {
    let kept = || admissible_records(trace).take(max_jobs.unwrap_or(usize::MAX));
    // Origin of the replay timeline: the earliest *clamped* submit among
    // the records that survive the `max_jobs` cut, so the stream starts
    // at zero, and negative submits (clamped by the admission policy)
    // cannot drag every other arrival later.
    let origin = kept()
        .map(admit_submit)
        .min_by(|a, b| a.total_cmp(b))
        .unwrap_or(0.0);
    let mut out: Vec<(Time, SpeedupCurve, i64)> = kept()
        .enumerate()
        .map(|(i, rec)| {
            let arrival = ((admit_submit(rec) - origin).max(0.0)
                * params.time_scale.max(1) as f64)
                .round() as Time;
            (arrival, synthesize_curve(rec, m, params, i), rec.user_id)
        })
        .collect();
    out.sort_by_key(|&(a, _, _)| a);
    out
}

/// Bootstrap-resample a trace to `n` jobs (sampling records with
/// replacement) — lets benches measure scaling on trace-shaped inputs at
/// sizes the recorded trace does not contain.
pub fn resampled_instance(
    trace: &SwfTrace,
    n: usize,
    m: Procs,
    params: &SynthesisParams,
    seed: u64,
) -> Instance {
    let records: Vec<&SwfRecord> = admissible_records(trace).collect();
    assert!(!records.is_empty(), "trace has no admissible records");
    let mut rng = SmallRng::seed_from_u64(seed);
    let curves = (0..n)
        .map(|i| {
            let rec = records[rng.gen_range(0..records.len())];
            synthesize_curve(rec, m, params, i)
        })
        .collect();
    Instance::new(curves, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_core::monotone::verify_monotone;

    fn record(submit: f64, run: f64, procs: i64) -> SwfRecord {
        SwfRecord {
            job_id: 1,
            submit_time: submit,
            wait_time: 0.0,
            run_time: run,
            allocated_procs: procs,
            avg_cpu_time: -1.0,
            used_memory: -1,
            requested_procs: procs,
            requested_time: run * 2.0,
            requested_memory: -1,
            status: 1,
            user_id: 1,
            group_id: 1,
            executable: 1,
            queue: 1,
            partition: 1,
            preceding_job: -1,
            think_time: -1.0,
        }
    }

    fn trace(records: Vec<SwfRecord>) -> SwfTrace {
        SwfTrace {
            header: Default::default(),
            jobs: records,
        }
    }

    #[test]
    fn admission_rejects_procless_and_never_ran_records() {
        // Never ran: rejected regardless of processor fields.
        let mut r = record(0.0, -1.0, 64);
        assert_eq!(admit_procs(&r), None);
        r.run_time = 0.0;
        assert_eq!(admit_procs(&r), None);
        // Ran, but no positive processor count anywhere: rejected.
        let mut r = record(0.0, 100.0, 0);
        r.requested_procs = 0;
        assert_eq!(admit_procs(&r), None);
        r.requested_procs = -1;
        assert_eq!(admit_procs(&r), None);
    }

    #[test]
    fn admission_clamps_zero_allocation_to_requested_procs() {
        let mut r = record(0.0, 100.0, 0);
        r.requested_procs = 16;
        assert_eq!(admit_procs(&r), Some(16));
        // The synthesized curve reproduces the observation at the
        // fallback count, same as a normally-allocated record.
        let params = SynthesisParams {
            sequential_pct: 0,
            ..Default::default()
        };
        let c = synthesize_curve(&r, 64, &params, 0);
        let got = c.time(16) as f64;
        let want = 100.0 * params.time_scale as f64;
        assert!((got - want).abs() / want < 0.02, "t(16) = {got}");
        // Allocation wins when both are present.
        let r = record(0.0, 100.0, 8);
        assert_eq!(admit_procs(&r), Some(8));
    }

    #[test]
    fn admission_clamps_negative_submit_times_to_the_origin() {
        // Clock skew at the recording boundary: a −50 s submit clamps to
        // zero, so the other arrivals keep their recorded offsets rather
        // than all shifting 50 s later.
        let t = trace(vec![
            record(-50.0, 100.0, 4),
            record(0.0, 50.0, 2),
            record(10.0, 10.0, 1),
        ]);
        let s = synthesize_stream(&t, 32, &SynthesisParams::default(), None);
        let arrivals: Vec<Time> = s.iter().map(|&(a, _, _)| a).collect();
        assert_eq!(arrivals, vec![0, 0, 10_000]);
        // All-negative submits: everything lands at the origin.
        let t = trace(vec![record(-9.0, 5.0, 1), record(-1.0, 5.0, 1)]);
        let s = synthesize_stream(&t, 8, &SynthesisParams::default(), None);
        assert!(s.iter().all(|&(a, _, _)| a == 0));
    }

    #[test]
    fn truncated_streams_start_at_zero() {
        // The earliest submit (10 s) lies past a one-record cut: the
        // origin is taken over the surviving record, not the whole trace.
        let t = trace(vec![record(100.0, 60.0, 1), record(10.0, 60.0, 1)]);
        let s = synthesize_stream(&t, 8, &SynthesisParams::default(), Some(1));
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, 0);
        // Without the cut the file's earliest submit is the origin.
        let s = synthesize_stream(&t, 8, &SynthesisParams::default(), None);
        let arrivals: Vec<Time> = s.iter().map(|&(a, _, _)| a).collect();
        assert_eq!(arrivals, vec![0, 90_000]);
    }

    #[test]
    fn downey_speedup_shape() {
        for &(a, sigma) in &[
            (1.0, 0.5),
            (16.0, 0.0),
            (16.0, 0.7),
            (64.0, 1.0),
            (64.0, 1.8),
        ] {
            assert!((downey_speedup(1.0, a, sigma) - 1.0).abs() < 1e-9);
            // Non-decreasing, capped at A.
            let mut last = 0.0;
            for n in 1..=300 {
                let s = downey_speedup(n as f64, a, sigma);
                assert!(
                    s + 1e-9 >= last,
                    "S not monotone at n={n} (A={a}, σ={sigma})"
                );
                assert!(s <= a + 1e-9);
                last = s;
            }
            assert!((downey_speedup(1000.0, a, sigma) - a).abs() < 1e-9);
        }
    }

    #[test]
    fn synthesized_curves_are_exactly_monotone() {
        let m: Procs = 1 << 10;
        for model in [FitModel::Amdahl, FitModel::Downey] {
            let params = SynthesisParams {
                model,
                ..Default::default()
            };
            for (i, &(run, procs)) in [
                (100.0, 1),
                (3600.0, 8),
                (42.5, 17),
                (86000.0, 512),
                (1.0, 1024),
            ]
            .iter()
            .enumerate()
            {
                let c = synthesize_curve(&record(0.0, run, procs), m, &params, i);
                let j = moldable_core::job::Job::new(0, c);
                verify_monotone(&j, m)
                    .unwrap_or_else(|e| panic!("{model:?} run={run} procs={procs}: {e:?}"));
            }
        }
    }

    #[test]
    fn observed_point_is_approximately_reproduced() {
        // The fitted curve passes through the observation, up to the
        // integer rounding of the staircase projection.
        let m: Procs = 1 << 10;
        for model in [FitModel::Amdahl, FitModel::Downey] {
            let params = SynthesisParams {
                model,
                sequential_pct: 0,
                ..Default::default()
            };
            for (i, &(run, procs)) in
                [(3600.0, 8), (7200.0, 64), (600.0, 100)].iter().enumerate()
            {
                let c = synthesize_curve(&record(0.0, run, procs), m, &params, i);
                let got = c.time(procs as Procs) as f64;
                let want = run * params.time_scale as f64;
                assert!(
                    (got - want).abs() / want < 0.02,
                    "{model:?}: t({procs}) = {got}, observed {want} ticks"
                );
            }
        }
    }

    #[test]
    fn wide_jobs_beyond_the_extent_cap_still_reproduce_their_observation() {
        // The model-extent cap (4096) must not make the grid sparse below
        // the observed count: a 10000-proc job on a 16384-proc machine
        // still has to pass through its recorded runtime.
        let m: Procs = 16_384;
        for model in [FitModel::Amdahl, FitModel::Downey] {
            let params = SynthesisParams {
                model,
                sequential_pct: 0,
                ..Default::default()
            };
            let c = synthesize_curve(&record(0.0, 3600.0, 10_000), m, &params, 0);
            let got = c.time(10_000) as f64;
            let want = 3600.0 * params.time_scale as f64;
            assert!(
                (got - want).abs() / want < 0.02,
                "{model:?}: t(10000) = {got}, observed {want} ticks"
            );
            let j = moldable_core::job::Job::new(0, c);
            verify_monotone(&j, m).unwrap();
        }
    }

    #[test]
    fn synthesis_is_deterministic_and_truncation_stable() {
        let t = trace(vec![
            record(0.0, 100.0, 4),
            record(10.0, 200.0, 8),
            record(20.0, 300.0, 16),
        ]);
        let params = SynthesisParams::default();
        let full = synthesize_instance(&t, 64, &params, None);
        let again = synthesize_instance(&t, 64, &params, None);
        let short = synthesize_instance(&t, 64, &params, Some(2));
        assert_eq!(short.n(), 2);
        for p in [1u64, 3, 16, 64] {
            for j in 0..2u32 {
                assert_eq!(full.time(j, p), again.time(j, p));
                assert_eq!(full.time(j, p), short.time(j, p));
            }
        }
    }

    #[test]
    fn stream_is_sorted_and_normalized() {
        let t = trace(vec![
            record(500.0, 100.0, 4),
            record(90.0, 50.0, 2),
            record(1000.0, 10.0, 1),
        ]);
        let s = synthesize_stream(&t, 32, &SynthesisParams::default(), None);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].0, 0); // first submission normalized to zero
        assert!(s.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(s.last().unwrap().0, 910_000); // ticks: 910 s × 1000
    }

    #[test]
    fn resampling_reaches_any_size() {
        let t = trace(vec![record(0.0, 100.0, 4), record(1.0, 200.0, 8)]);
        let inst = resampled_instance(&t, 37, 128, &SynthesisParams::default(), 5);
        assert_eq!(inst.n(), 37);
        for j in inst.jobs() {
            verify_monotone(j, 128).unwrap();
        }
    }
}
