//! The Lublin–Feitelson workload *model*: synthesize arrival streams
//! instead of replaying a recorded trace.
//!
//! Lublin & Feitelson ("The workload on parallel supercomputers:
//! modeling the characteristics of rigid jobs", JPDC 2003) fit a
//! generative model to the Parallel Workloads Archive traces. This
//! module implements its three components, each mapped to the paper's
//! parameter names (see `DESIGN.md` § "Streaming engine & workload
//! models" for the full table):
//!
//! * **Job size** — with probability [`LublinParams::serial_prob`] a job
//!   is serial; otherwise its log₂ size is drawn from the model's
//!   *two-stage uniform* distribution (`ulow`/`umed`/`uhi` with first-
//!   stage probability `uprob`, `uhi = log₂ m`), and with probability
//!   [`LublinParams::pow2_prob`] the size snaps to a power of two.
//! * **Runtime** — the *hyper-gamma* distribution: `ln(runtime)` is
//!   drawn from `Γ(a1, b1)` (the short class) with probability
//!   `p(n) = pa·n + pb` (clamped to `[0, 1]`, decreasing in the size
//!   `n` — wide jobs run longer) and from `Γ(a2, b2)` otherwise.
//! * **Arrivals** — the daily cycle: interarrival gaps are exponential
//!   with a rate modulated by an hour-of-day weight profile shaped like
//!   the model's arrival gamma (`aarr`, `barr`, peaking mid-working-day,
//!   quiet overnight).
//!
//! Each synthesized `(size, runtime)` observation is then lifted to a
//! monotone moldable curve through the same
//! [`crate::moldability::fit_curve_through`] pipeline
//! as SWF records — the generator produces the *rigid* observation, the
//! moldability layer supplies the curve, and monotonicity stays a
//! structural guarantee.
//!
//! Everything is deterministic via the vendored rand shim: a fixed
//! [`LublinParams::seed`] reproduces the identical stream, and the
//! generator is an [`Iterator`] — a million-job stream is synthesized
//! lazily, one job at a time, for the streaming engine in
//! `moldable-sim`.

use crate::moldability::{fit_curve_through, FitModel, SynthesisParams};
use crate::source::WorkloadSource;
use moldable_core::instance::Instance;
use moldable_core::speedup::SpeedupCurve;
use moldable_core::types::{Procs, Time};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of the Lublin–Feitelson model (defaults: the paper's
/// batch-job fit), plus the lift/stream knobs this repo adds on top
/// (machine count, job budget, user tagging, tick scale).
#[derive(Clone, Debug)]
pub struct LublinParams {
    /// Machine count: sizes are clamped to `1..=m` and `uhi = log₂ m`.
    pub m: Procs,
    /// How many jobs the stream holds.
    pub jobs: usize,
    /// Seed for every random draw (sizes, runtimes, gaps, fit params).
    pub seed: u64,
    /// Probability a job is serial (paper: 0.244).
    pub serial_prob: f64,
    /// Probability a parallel job's size snaps to a power of two
    /// (paper: 0.576).
    pub pow2_prob: f64,
    /// Lower bound of the log₂-size distribution (paper: 0.8).
    pub ulow: f64,
    /// Breakpoint of the two-stage uniform, as an offset *below* `uhi`
    /// (paper: `umed = uhi − 2.5`, i.e. most jobs sit well under the
    /// machine's full width).
    pub umed_offset: f64,
    /// Probability of the first (low) stage (paper: 0.86).
    pub uprob: f64,
    /// Shape of the short-class runtime gamma (paper: `a1 = 4.2`).
    pub a1: f64,
    /// Scale of the short-class runtime gamma (paper: `b1 = 0.94`).
    pub b1: f64,
    /// Shape of the long-class runtime gamma (paper: `a2 = 312`).
    pub a2: f64,
    /// Scale of the long-class runtime gamma (paper: `b2 = 0.03`).
    pub b2: f64,
    /// Slope of the short-class mixture probability in the job size
    /// (paper: `pa = −0.0054`).
    pub pa: f64,
    /// Intercept of the short-class mixture probability (paper:
    /// `pb = 0.78`).
    pub pb: f64,
    /// Mean interarrival gap in seconds at average daily load. The
    /// paper's absolute rates are per-machine fits; this repo exposes
    /// the mean directly so experiments dial utilization.
    pub mean_interarrival_s: f64,
    /// Shape of the daily-cycle gamma (paper: `aarr = 10.23`).
    pub aarr: f64,
    /// Scale of the daily-cycle gamma (paper: `barr = 0.4871`).
    pub barr: f64,
    /// Hour of day where the cycle's gamma starts rising (the paper's
    /// cycle puts the arrival peak in the late morning; with the default
    /// 5 the mode `(aarr−1)·barr ≈ 4.5 h` lands near 09:30).
    pub cycle_start_h: f64,
    /// Synthetic user pool for fairness tagging (not part of the Lublin
    /// model; jobs are tagged uniformly so per-user fairness reports
    /// have identities to aggregate by).
    pub users: u32,
    /// Power-law skew of the user tagging: user rank `r` (0-based) is
    /// drawn with probability ∝ `(r+1)^−user_skew`. `0.0` — the
    /// default — keeps the uniform draw (and the exact byte stream) of
    /// before; positive values concentrate submissions on the low
    /// ranks, the few-flooders-many-light-users asymmetry that
    /// fair-share experiments need.
    pub user_skew: f64,
    /// Integer ticks per model second (default 1000 — milliseconds, the
    /// same resolution rationale as SWF synthesis).
    pub time_scale: Time,
    /// Speedup model fitted through each synthesized observation.
    pub fit_model: FitModel,
    /// Runtime ceiling in seconds (archive queues cap wall-clock;
    /// default one day) — guards the hyper-gamma's heavy tail, whose
    /// uncapped mean `E[e^Γ(a1,b1)] = (1−b1)^{−a1} ≈ 1.3·10⁵ s` would
    /// otherwise be dominated by once-in-a-trace monsters.
    pub max_runtime_s: f64,
}

impl LublinParams {
    /// The paper's batch-partition defaults on `m` machines, `jobs` jobs.
    pub fn new(m: Procs, jobs: usize, seed: u64) -> Self {
        assert!(m >= 2, "the size model needs m ≥ 2 (uhi = log₂ m > 0)");
        LublinParams {
            m,
            jobs,
            seed,
            serial_prob: 0.244,
            pow2_prob: 0.576,
            ulow: 0.8,
            umed_offset: 2.5,
            uprob: 0.86,
            a1: 4.2,
            b1: 0.94,
            a2: 312.0,
            b2: 0.03,
            pa: -0.0054,
            pb: 0.78,
            mean_interarrival_s: 3600.0,
            aarr: 10.23,
            barr: 0.4871,
            cycle_start_h: 5.0,
            users: 16,
            user_skew: 0.0,
            time_scale: 1000,
            fit_model: FitModel::Downey,
            max_runtime_s: 86_400.0,
        }
    }

    /// Override the mean interarrival gap (seconds).
    pub fn with_mean_interarrival(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0, "interarrival gap must be positive");
        self.mean_interarrival_s = seconds;
        self
    }

    /// Override the user-tagging skew (see [`LublinParams::user_skew`]).
    pub fn with_user_skew(mut self, skew: f64) -> Self {
        assert!(skew >= 0.0 && skew.is_finite(), "user skew must be >= 0");
        self.user_skew = skew;
        self
    }
}

/// A uniform draw from the open unit interval (never exactly zero, so
/// logarithms are safe).
fn open_unit(rng: &mut SmallRng) -> f64 {
    rng.gen_range(f64::MIN_POSITIVE..1.0)
}

/// One standard normal via Box–Muller (the cosine branch; the shim has
/// no normal distribution, and one value per call keeps draws simple
/// and deterministic).
fn sample_normal(rng: &mut SmallRng) -> f64 {
    let u1 = open_unit(rng);
    let u2 = rng.gen_range(0.0f64..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// `Γ(shape, scale)` via Marsaglia–Tsang (valid for `shape ≥ 1`, which
/// covers both hyper-gamma classes).
fn sample_gamma(rng: &mut SmallRng, shape: f64, scale: f64) -> f64 {
    debug_assert!(shape >= 1.0 && scale > 0.0);
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (3.0 * d.sqrt());
    loop {
        let x = sample_normal(rng);
        let t = 1.0 + c * x;
        if t <= 0.0 {
            continue;
        }
        let v = t * t * t;
        let u = open_unit(rng);
        if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v * scale;
        }
    }
}

/// Exponential with the given mean.
fn sample_exponential(rng: &mut SmallRng, mean: f64) -> f64 {
    -mean * open_unit(rng).ln()
}

/// The lazy Lublin–Feitelson stream: yields `(arrival_ticks, curve,
/// user)` sorted by arrival, exactly [`LublinParams::jobs`] items.
/// `O(1)` state — this is what the streaming engine consumes at 10⁶
/// jobs.
#[derive(Clone, Debug)]
pub struct LublinGenerator {
    params: LublinParams,
    fit: SynthesisParams,
    rng: SmallRng,
    produced: usize,
    clock_s: f64,
    /// Hour-of-day arrival weights, normalized to mean 1 (precomputed,
    /// deterministic in the params alone).
    day_weights: [f64; 24],
    /// Largest daily weight — the majorizing rate of the thinning loop.
    peak_weight: f64,
    /// Cumulative user-rank distribution when `user_skew > 0` (empty =
    /// uniform tagging, the byte-identical legacy draw).
    user_cdf: Vec<f64>,
}

impl LublinGenerator {
    /// Build the generator for `params`.
    pub fn new(params: LublinParams) -> Self {
        let mut day_weights = [0.0f64; 24];
        for (h, w) in day_weights.iter_mut().enumerate() {
            // Hours since the cycle start, wrapped into [0, 24); the
            // gamma density (unnormalized — only relative weight
            // matters) peaks `(aarr−1)·barr` hours later.
            let x = ((h as f64 + 0.5) - params.cycle_start_h).rem_euclid(24.0);
            let density = x.powf(params.aarr - 1.0) * (-x / params.barr.max(1e-9)).exp();
            // Floor keeps overnight arrivals possible (the model's night
            // load is low, not zero).
            *w = density.max(1e-3);
        }
        let mean = day_weights.iter().sum::<f64>() / 24.0;
        for w in &mut day_weights {
            *w /= mean;
        }
        let peak_weight = day_weights.iter().cloned().fold(f64::MIN, f64::max);
        let fit = SynthesisParams {
            model: params.fit_model,
            seed: params.seed,
            // Serial jobs come from the size model, not from the SWF
            // lift's sequential share.
            sequential_pct: 0,
            time_scale: params.time_scale,
        };
        let user_cdf = if params.user_skew > 0.0 {
            let mut cdf: Vec<f64> = (0..params.users.max(1))
                .map(|r| (r as f64 + 1.0).powf(-params.user_skew))
                .collect();
            let mut running = 0.0;
            for w in &mut cdf {
                running += *w;
                *w = running;
            }
            for w in &mut cdf {
                *w /= running;
            }
            cdf
        } else {
            Vec::new()
        };
        LublinGenerator {
            rng: SmallRng::seed_from_u64(params.seed ^ 0x10B1_1FE1_7E15_0AD5),
            fit,
            params,
            produced: 0,
            clock_s: 0.0,
            day_weights,
            peak_weight,
            user_cdf,
        }
    }

    /// Two-stage uniform log₂ size, snapped to a power of two with
    /// probability `pow2_prob`, clamped to `2..=m`.
    fn sample_size(&mut self) -> Procs {
        let p = &self.params;
        if self.rng.gen_bool(p.serial_prob.clamp(0.0, 1.0)) {
            return 1;
        }
        let uhi = (p.m as f64).log2();
        let ulow = p.ulow.min(uhi - 1e-6);
        let umed = (uhi - p.umed_offset).clamp(ulow, uhi);
        let l = if self.rng.gen_bool(p.uprob.clamp(0.0, 1.0)) {
            self.rng.gen_range(ulow..=umed)
        } else {
            self.rng.gen_range(umed..=uhi)
        };
        let size = if self.rng.gen_bool(p.pow2_prob.clamp(0.0, 1.0)) {
            (2.0f64).powf(l.round())
        } else {
            (2.0f64).powf(l).round()
        };
        (size as Procs).clamp(2, p.m)
    }

    /// Hyper-gamma runtime in seconds for a job of `size` processors:
    /// `ln(runtime)` from the short class with probability `pa·n + pb`.
    fn sample_runtime_s(&mut self, size: Procs) -> f64 {
        let p = &self.params;
        let p_short = (p.pa * size as f64 + p.pb).clamp(0.0, 1.0);
        let ln_rt = if self.rng.gen_bool(p_short) {
            sample_gamma(&mut self.rng, p.a1, p.b1)
        } else {
            sample_gamma(&mut self.rng, p.a2, p.b2)
        };
        ln_rt.exp().clamp(1.0, p.max_runtime_s)
    }

    /// Advance the clock to the next arrival of the daily-cycle
    /// nonhomogeneous Poisson process, by Lewis–Shedler thinning:
    /// candidate gaps at the peak rate, accepted with probability
    /// `w(hour)/w_peak` — the clock crosses quiet hours in small steps
    /// instead of overshooting them with one giant gap.
    fn advance_clock(&mut self) {
        let mean_at_peak = self.params.mean_interarrival_s / self.peak_weight;
        loop {
            self.clock_s += sample_exponential(&mut self.rng, mean_at_peak);
            let hour = (self.clock_s / 3600.0).rem_euclid(24.0);
            let weight = self.day_weights[(hour as usize).min(23)];
            if self
                .rng
                .gen_bool((weight / self.peak_weight).clamp(0.0, 1.0))
            {
                return;
            }
        }
    }
}

impl Iterator for LublinGenerator {
    type Item = (Time, SpeedupCurve, i64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.produced >= self.params.jobs {
            return None;
        }
        if self.produced > 0 {
            self.advance_clock();
        }
        let size = self.sample_size();
        let runtime_s = self.sample_runtime_s(size);
        let scale = self.params.time_scale.max(1) as f64;
        let arrival = (self.clock_s * scale).round() as Time;
        let t_obs = ((runtime_s * scale).round() as Time).max(1);
        let curve = if size == 1 {
            // Serial jobs are rigid by construction.
            SpeedupCurve::Constant(t_obs)
        } else {
            fit_curve_through(size, t_obs, self.params.m, &self.fit, self.produced)
        };
        let user = if self.user_cdf.is_empty() {
            self.rng.gen_range(0..self.params.users.max(1)) as i64
        } else {
            // Invert the skewed rank CDF: low ranks flood, high ranks
            // trickle.
            let u = open_unit(&mut self.rng);
            let rank = self.user_cdf.partition_point(|&c| c < u);
            rank.min(self.user_cdf.len() - 1) as i64
        };
        self.produced += 1;
        Some((arrival, curve, user))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.params.jobs - self.produced;
        (left, Some(left))
    }
}

/// The model as a [`WorkloadSource`] backend: `generate`/`simulate` can
/// swap `--trace cluster.swf` for `--model lublin` without touching
/// anything downstream. The materializing
/// [`WorkloadSource::offline_instance`] is for moderate `jobs`;
/// million-job experiments go through the lazy
/// [`WorkloadSource::stream_iter`].
#[derive(Clone, Debug)]
pub struct LublinSource {
    /// Model parameters.
    pub params: LublinParams,
}

impl LublinSource {
    /// Wrap parameters as a source.
    pub fn new(params: LublinParams) -> Self {
        LublinSource { params }
    }
}

impl WorkloadSource for LublinSource {
    fn label(&self) -> String {
        format!(
            "lublin(n={}, m={}, seed={}, {})",
            self.params.jobs,
            self.params.m,
            self.params.seed,
            self.params.fit_model.name()
        )
    }

    fn machine_count(&self) -> Procs {
        self.params.m
    }

    fn offline_instance(&self) -> Instance {
        let curves = LublinGenerator::new(self.params.clone())
            .map(|(_, c, _)| c)
            .collect();
        Instance::new(curves, self.params.m)
    }

    fn stream_iter(&self) -> Box<dyn Iterator<Item = (Time, SpeedupCurve, i64)> + '_> {
        Box::new(LublinGenerator::new(self.params.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_core::job::Job;
    use moldable_core::monotone::verify_monotone;

    #[test]
    fn stream_is_sorted_deterministic_and_sized() {
        let params = LublinParams::new(256, 400, 7);
        let a: Vec<_> = LublinGenerator::new(params.clone()).collect();
        let b: Vec<_> = LublinGenerator::new(params).collect();
        assert_eq!(a.len(), 400);
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "sorted arrivals");
        for ((aa, ac, au), (ba, bc, bu)) in a.iter().zip(&b) {
            assert_eq!(aa, ba);
            assert_eq!(au, bu);
            for p in [1u64, 3, 16, 256] {
                assert_eq!(ac.time(p), bc.time(p));
            }
        }
        // Different seeds diverge.
        let c: Vec<_> = LublinGenerator::new(LublinParams::new(256, 400, 8)).collect();
        assert!(a.iter().zip(&c).any(|(x, y)| x.0 != y.0));
    }

    #[test]
    fn user_skew_concentrates_submissions_on_low_ranks() {
        let params = LublinParams::new(256, 4000, 7).with_user_skew(1.5);
        let mut counts = vec![0usize; 16];
        for (_, _, user) in LublinGenerator::new(params) {
            counts[usize::try_from(user).expect("ranks are 0-based")] += 1;
        }
        // Zipf(1.5) over 16 ranks: rank 0 holds ~47% of the mass and
        // the top two ranks a strict majority; the tail still submits.
        assert!(
            counts[0] > counts[15] * 4,
            "rank 0 should flood, rank 15 trickle: {counts:?}"
        );
        assert!(
            counts[0] + counts[1] > 2000,
            "no majority flooder: {counts:?}"
        );
        assert!(
            counts.iter().all(|&c| c > 0),
            "a rank went silent: {counts:?}"
        );
    }

    #[test]
    fn every_synthesized_curve_is_monotone() {
        let m = 512;
        for (i, (_, curve, _)) in LublinGenerator::new(LublinParams::new(m, 200, 3)).enumerate()
        {
            let j = Job::new(0, curve);
            verify_monotone(&j, m).unwrap_or_else(|e| panic!("job {i} non-monotone: {e:?}"));
        }
    }

    #[test]
    fn size_and_runtime_marginals_match_the_model_shape() {
        let n = 4000;
        let params = LublinParams::new(1024, n, 11);
        let jobs: Vec<_> = LublinGenerator::new(params.clone())
            .map(|(_, c, _)| c)
            .collect();
        // Serial share near serial_prob (Constant curves are the serial
        // jobs by construction).
        let serial = jobs
            .iter()
            .filter(|c| matches!(c, SpeedupCurve::Constant(_)))
            .count();
        let share = serial as f64 / n as f64;
        assert!(
            (share - params.serial_prob).abs() < 0.05,
            "serial share {share}"
        );
        // Hyper-gamma runtimes are bimodal: both the short class
        // (e^{a1·b1} ≈ 52 s) and the long class (e^{a2·b2} ≈ 3.2 h)
        // must be populated, in tick units.
        let t1s: Vec<u64> = jobs.iter().map(|c| c.time(1)).collect();
        let short = t1s.iter().filter(|&&t| t < 1_000_000).count(); // < 1000 s
        let long = t1s.iter().filter(|&&t| t > 3_000_000).count(); // > 3000 s
        assert!(short > n / 10, "short class missing ({short})");
        assert!(long > n / 10, "long class missing ({long})");
        // Users span the configured pool.
        let users: std::collections::BTreeSet<i64> =
            LublinGenerator::new(params).map(|(_, _, u)| u).collect();
        assert!(users.len() > 8 && users.iter().all(|&u| (0..16).contains(&u)));
    }

    #[test]
    fn daily_cycle_modulates_arrival_density() {
        // With a 60 s base gap over many jobs, the busiest 6-hour window
        // must hold measurably more arrivals than the quietest.
        let params = LublinParams::new(64, 3000, 5).with_mean_interarrival(60.0);
        let mut per_hour = [0usize; 24];
        for (arrival, _, _) in LublinGenerator::new(params) {
            let h = ((arrival as f64 / (1000.0 * 3600.0)) % 24.0) as usize;
            per_hour[h.min(23)] += 1;
        }
        let windows: Vec<usize> = (0..24)
            .map(|s| (0..6).map(|i| per_hour[(s + i) % 24]).sum())
            .collect();
        let busiest = *windows.iter().max().unwrap();
        let quietest = *windows.iter().min().unwrap();
        assert!(
            busiest as f64 > 1.5 * quietest as f64,
            "no daily cycle: busiest {busiest} vs quietest {quietest}"
        );
    }

    #[test]
    fn source_facade_round_trips() {
        let src = LublinSource::new(LublinParams::new(128, 50, 2));
        assert_eq!(src.machine_count(), 128);
        assert!(src.label().contains("lublin(n=50"));
        let inst = src.offline_instance();
        assert_eq!(inst.n(), 50);
        assert_eq!(src.stream_iter().count(), 50);
    }
}
