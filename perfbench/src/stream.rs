//! The two stream workloads: `run_stream` over seeded Lublin–Feitelson
//! sources, single-threaded, in process.
//!
//! A run's input is [`Regime::shape`]'s independent sub-streams derived
//! from the seed; together they are the *quality set* whose schedule
//! metrics are deterministic per seed. The run cycles through the set
//! until `--seconds` have passed (at least once through), and each
//! sub-stream's wall time is the median of its repetitions.

use crate::layers::{
    eps, replay_probes, Call, Clocked, LinearParams, StageCounts, TracedSolver,
};
use crate::stats::{mean, median, nearest_rank, note_support, sorted};
use crate::trace::{by_name, Tracer};
use crate::{Metrics, Outcome};
use moldable_core::hierarchy::Topology;
use moldable_core::instance::Instance;
use moldable_core::speedup::{SpeedupCurve, Staircase};
use moldable_core::view::JobView;
use moldable_sched::solver::{solver_by_name, MakespanSolver};
use moldable_sched::{place_with, PlacementPolicy};
use moldable_sim::stream::{
    run_stream, FairshareOptions, StreamJob, StreamOptions, StreamOutcome,
};
use moldable_sim::{execute, JobObservation};
use moldable_workloads::lublin::{LublinGenerator, LublinParams};
use std::sync::Arc;
use std::time::Instant;

/// Which stream regime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Regime {
    /// ROADMAP's recipe: m=256, default gap, FIFO, default batch cap —
    /// ~6-job epochs dominated by re-plan solves.
    Small,
    /// The fair-share overload recipe plus hierarchical placement:
    /// 256-job batches, a pending set growing to ~n.
    Overload,
}

/// Machine size of both regimes.
const M: u64 = 256;

impl Regime {
    /// Sub-streams per run and jobs per sub-stream.
    pub fn shape(self) -> (usize, usize) {
        match self {
            Regime::Small => (16, 5_000),
            Regime::Overload => (16, 20_000),
        }
    }

    /// Generator parameters of one sub-stream.
    pub fn params(self, jobs: usize, seed: u64) -> LublinParams {
        let mut params = LublinParams::new(M, jobs, seed);
        match self {
            Regime::Small => {
                // Tags only: FIFO never reads them and the generator
                // draws a tag the same way for any pool size, so the job
                // stream is unchanged. 256 users (not the default 16)
                // make the p95 across users a stable order statistic.
                params.users = 256;
                params
            }
            Regime::Overload => {
                params.users = 64;
                params.with_mean_interarrival(0.5).with_user_skew(3.0)
            }
        }
    }

    /// Engine options.
    pub fn options(self) -> StreamOptions {
        match self {
            // The CLI `simulate` default cap.
            Regime::Small => StreamOptions {
                max_batch: Some(8192),
                ..StreamOptions::default()
            },
            Regime::Overload => {
                let topology = Topology::parse("8*2*16").expect("valid topology spec");
                let policy =
                    PlacementPolicy::parse("packed:node", &topology).expect("valid policy");
                StreamOptions {
                    max_batch: Some(256),
                    topology: Some(topology),
                    policy,
                    fairshare: Some(FairshareOptions { half_life: 86_400 }),
                }
            }
        }
    }
}

/// Sub-stream seeds of a run (splitmix64 of the run seed).
pub fn subseeds(seed: u64, count: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|i| crate::splitmix(seed.wrapping_mul(0x9E37_79B9).wrapping_add(i)))
        .collect()
}

fn jobs_of(regime: Regime, jobs: usize, seed: u64) -> impl Iterator<Item = StreamJob> {
    LublinGenerator::new(regime.params(jobs, seed)).map(|(arrival, curve, user)| StreamJob {
        curve,
        arrival,
        user,
    })
}

/// Everything the setup probe builds before the first timed operation.
pub fn setup(regime: Regime, seed: u64) -> usize {
    let (q, n) = regime.shape();
    let seeds = subseeds(seed, q);
    let _source = jobs_of(regime, n, seeds[0]);
    let _solver = solver_by_name("linear", &eps()).expect("registry solver");
    let _opts = regime.options();
    seeds.len()
}

/// The output check of one drained stream: one observation per job,
/// completion ≥ arrival, and `jobs == n`.
struct Check {
    seen: Vec<bool>,
    bad: u64,
}

impl Check {
    fn new(n: usize) -> Self {
        Check {
            seen: vec![false; n],
            bad: 0,
        }
    }

    fn observe(&mut self, index: u64, obs: &JobObservation) {
        match self.seen.get_mut(index as usize) {
            Some(seen) if !*seen => *seen = true,
            _ => self.bad += 1,
        }
        if obs.completion < obs.arrival {
            self.bad += 1;
        }
    }

    /// Failed jobs: duplicates, out-of-range indices, early completions,
    /// and jobs that never completed.
    fn failed(&self, out: &StreamOutcome) -> u64 {
        let missing = self.seen.iter().filter(|s| !**s).count() as u64;
        let miscount = (out.jobs as i128 - self.seen.len() as i128).unsigned_abs() as u64;
        self.bad + missing + miscount
    }
}

/// One sub-stream run.
struct Drained {
    out: StreamOutcome,
    wall: f64,
    failed: u64,
}

fn drain(
    regime: Regime,
    n: usize,
    seed: u64,
    solver: &dyn MakespanSolver,
    opts: &StreamOptions,
    tracer: Option<&Tracer>,
) -> Drained {
    let mut check = Check::new(n);
    let source = jobs_of(regime, n, seed);
    let t0 = Instant::now();
    let out = match tracer {
        None => run_stream(source, M, solver, opts, |i, o| check.observe(i, o)),
        Some(tr) => {
            let pulls = TimedPulls {
                inner: source,
                tracer: tr,
            };
            tr.time("sim.run_stream", || {
                run_stream(pulls, M, solver, opts, |i, o| check.observe(i, o))
            })
        }
    }
    .expect("sorted Lublin streams always drain");
    let wall = t0.elapsed().as_secs_f64();
    let failed = check.failed(&out);
    Drained { out, wall, failed }
}

/// The source iterator with a span around every `next()`.
struct TimedPulls<'a, I> {
    inner: I,
    tracer: &'a Tracer,
}

impl<I: Iterator<Item = StreamJob>> Iterator for TimedPulls<'_, I> {
    type Item = StreamJob;

    fn next(&mut self) -> Option<StreamJob> {
        self.tracer.time("workloads.pull", || self.inner.next())
    }
}

/// Schedule-quality numbers of the quality set.
fn quality(outs: &[StreamOutcome], calls: &[Call], m: &mut Metrics) {
    let jobs: f64 = outs.iter().map(|o| o.jobs as f64).sum();
    let mean_stretch = outs
        .iter()
        .map(|o| o.fairness.mean_stretch.to_f64() * o.jobs as f64)
        .sum::<f64>()
        / jobs;
    // Per sub-stream (its users compete only with each other), then the
    // median across sub-streams: one extreme sub-stream cannot carry it.
    let p95_user_max: Vec<f64> = outs
        .iter()
        .filter_map(|o| {
            let user_max = sorted(
                o.fairness
                    .users
                    .iter()
                    .map(|u| u.max_stretch.to_f64())
                    .collect(),
            );
            nearest_rank(&user_max, 95.0)
        })
        .collect();
    let users = outs.first().map_or(0, |o| o.fairness.users.len());
    note_support("per-sub-stream user max stretch", users, 95.0);
    let cert: Vec<f64> = calls
        .iter()
        .filter_map(|c| {
            c.lower_bound
                .map(|lb| c.makespan.to_f64() / lb.max(1) as f64)
        })
        .collect();
    m.set("mean_stretch", mean_stretch);
    m.set("p95_user_max_stretch", median(&p95_user_max).unwrap_or(0.0));
    m.set("cert_ratio_mean", mean(&cert));
}

/// The untraced run: end-to-end metrics.
pub fn run(regime: Regime, seed: u64, seconds: f64) -> Outcome {
    let (q, n) = regime.shape();
    let seeds = subseeds(seed, q);
    let opts = regime.options();
    let solver = Clocked::new(solver_by_name("linear", &eps()).expect("registry solver"));
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); q];
    let mut first: Vec<StreamOutcome> = Vec::new();
    let mut first_calls = Vec::new();
    // Solve-latency percentiles of each sub-stream run: the reported p50
    // and p99 are their medians over runs, so a slow spell of the host
    // that covers a few runs does not move them.
    let (mut run_p50, mut run_p99): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut solves = 0;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let started = Instant::now();
    'passes: for pass in 0.. {
        for (i, &s) in seeds.iter().enumerate() {
            if pass > 0 && started.elapsed().as_secs_f64() >= seconds {
                break 'passes;
            }
            let d = drain(regime, n, s, &solver, &opts, None);
            let calls = solver.take();
            let ms = sorted(calls.iter().map(|c| c.secs * 1e3).collect());
            run_p50.push(nearest_rank(&ms, 50.0).unwrap_or(0.0));
            run_p99.push(nearest_rank(&ms, 99.0).unwrap_or(0.0));
            solves = solves.max(ms.len());
            attempted += n as u64;
            failed += d.failed;
            walls[i].push(d.wall);
            if pass == 0 {
                first_calls.extend(calls);
                first.push(d.out);
            } else if d.out.makespan != first[i].makespan || d.out.epochs != first[i].epochs {
                // The engine is deterministic: a repeat that diverges is
                // a failed output.
                failed += n as u64;
            }
        }
    }
    let median_walls: f64 = walls.iter().map(|w| median(w).expect("≥ 1 run")).sum();
    let jobs: u64 = first.iter().map(|o| o.jobs).sum();
    let epochs: u64 = first.iter().map(|o| o.epochs).sum();
    note_support("per-run solve latency", solves, 99.0);
    let mut m = Metrics::default();
    m.set("jobs_per_s", jobs as f64 / median_walls);
    m.set("req_per_s", epochs as f64 / median_walls);
    m.set("latency_p50_ms", median(&run_p50).unwrap_or(0.0));
    m.set("latency_p99_ms", median(&run_p99).unwrap_or(0.0));
    quality(&first, &first_calls, &mut m);
    m.set("peak_rss_mb", crate::peak_rss_mb(None).unwrap_or(0.0));
    eprintln!(
        "stream: {q} sub-streams x {n} jobs, {} runs of up to {solves} solves each",
        run_p50.len()
    );
    Outcome {
        attempted,
        failed,
        checks_ok: true,
        metrics: m,
    }
}

/// Rebuild a batch instance from its view (the engine's instance is not
/// visible at the solver boundary): every Lublin curve is a constant or
/// a staircase, so the materialized steps reproduce it exactly.
fn instance_of(view: &JobView) -> Option<Instance> {
    let curves = (0..view.n() as u32)
        .map(|j| {
            let (procs, times) = view.steps(j)?;
            let steps = procs.iter().copied().zip(times.iter().copied()).collect();
            Staircase::new(steps)
                .ok()
                .map(|s| SpeedupCurve::Staircase(Arc::new(s)))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Instance::new(curves, view.m()))
}

/// Sub-streams the traced run covers: the first of the quality set,
/// enough for every layer's totals while keeping the run (untraced
/// pass, traced pass and replays) well inside its time limit.
const TRACED_SUBSTREAMS: usize = 4;

/// The traced run: per-layer metrics over the first
/// [`TRACED_SUBSTREAMS`] sub-streams of the quality set.
pub fn traced(regime: Regime, seed: u64, spans_out: &std::path::Path) -> Outcome {
    let (q, n) = regime.shape();
    let seeds: Vec<u64> = subseeds(seed, q)
        .into_iter()
        .take(TRACED_SUBSTREAMS)
        .collect();
    let opts = regime.options();
    let params = LinearParams::new(eps());
    let (mut attempted, mut failed, mut mismatches) = (0u64, 0u64, 0u64);

    // Untraced reference pass: the tracing overhead's baseline and the
    // registry makespans the traced solver must reproduce.
    let registry = Clocked::new(solver_by_name("linear", &eps()).expect("registry solver"));
    let mut untraced_wall = 0.0;
    let mut reference = Vec::new();
    for &s in &seeds {
        let d = drain(regime, n, s, &registry, &opts, None);
        untraced_wall += d.wall;
        reference.push(registry.take());
    }

    let tracer = Arc::new(Tracer::default());
    let solver = TracedSolver::new(Arc::clone(&tracer));
    let mut counts = StageCounts::default();
    let mut traced_wall = 0.0;
    let (mut epochs, mut peak_pending) = (0u64, 0usize);
    let mut batch_sizes: Vec<f64> = Vec::new();
    for (i, &s) in seeds.iter().enumerate() {
        let first_batch = tracer.group() + 1;
        let d = drain(regime, n, s, &solver, &opts, Some(&tracer));
        traced_wall += d.wall;
        attempted += n as u64;
        failed += d.failed;
        epochs += d.out.epochs;
        peak_pending = peak_pending.max(d.out.peak_pending);
        let (captured, probes) = solver.take();
        // Cross-check 1: the wrapped solver reproduces the registry's
        // `linear` makespan on every batch.
        let same = captured.len() == reference[i].len()
            && captured
                .iter()
                .zip(&reference[i])
                .all(|(c, r)| c.outcome.makespan == r.makespan);
        if !same {
            mismatches += 1;
        }
        // Layers run inside `run_stream`, replayed on the captured
        // batches: view build, placement, execution.
        for (j, c) in captured.iter().enumerate() {
            tracer.set_group(first_batch + j as u64);
            batch_sizes.push(c.view.n() as f64);
            let Some(inst) = instance_of(&c.view) else {
                mismatches += 1;
                continue;
            };
            tracer.time("replay.batch", || {
                let view = tracer.time("core.view_build", || JobView::build(&inst));
                let mut schedule = c.outcome.schedule.clone();
                if let Some(topology) = &opts.topology {
                    let placed = tracer.time("sched.place", || {
                        place_with(&view, &schedule, topology, &opts.policy)
                    });
                    match placed {
                        Ok(p) => schedule.placement = Some(p),
                        Err(_) => mismatches += 1,
                    }
                }
                match tracer.time("sim.execute", || execute(&inst, &schedule)) {
                    Ok(ex) if ex.makespan == c.outcome.makespan => {}
                    _ => mismatches += 1,
                }
            });
        }
        // Cross-check 2: the staged probe replay reaches the wrapped
        // algorithm's verdict and makespan on every captured probe.
        mismatches += replay_probes(
            &captured,
            first_batch,
            &probes,
            &params,
            &tracer,
            &mut counts,
        );
    }

    let spans = tracer.spans();
    let stats = by_name(&spans);
    let total = |name: &str| stats.get(name).map_or(0.0, |s| s.total_s);
    let mut m = Metrics::default();
    let run_s = total("sim.run_stream");
    let solve_s = total("sched.solve");
    m.set("sim.run_stream_s", run_s);
    m.set(
        "sim.self_s",
        stats.get("sim.run_stream").map_or(0.0, |s| s.self_s),
    );
    m.set(
        "sim.solve_share",
        if run_s > 0.0 { solve_s / run_s } else { 0.0 },
    );
    m.set("sim.epochs", epochs as f64);
    m.set("sim.batch_mean", mean(&batch_sizes));
    m.set(
        "sim.batch_max",
        batch_sizes.iter().copied().fold(0.0, f64::max),
    );
    m.set("sim.peak_pending", peak_pending as f64);
    m.set("sim.execute_s", total("sim.execute"));
    m.set("workloads.pull_s", total("workloads.pull"));
    crate::sched_metrics(&stats, &counts, &mut m);
    m.set("sched.place_s", total("sched.place"));
    m.set(
        "core.view_build_us",
        stats
            .get("core.view_build")
            .map_or(0.0, |s| s.total_s / s.count as f64 * 1e6),
    );
    m.set("trace.overhead_s", traced_wall - untraced_wall);
    m.set("trace.mismatches", mismatches as f64);
    if let Err(e) = tracer.write_jsonl(spans_out) {
        eprintln!(
            "warning: could not write spans to {}: {e}",
            spans_out.display()
        );
    }
    eprintln!(
        "stream trace: {} spans, untraced {untraced_wall:.3} s, traced {traced_wall:.3} s, solver share of run_stream {:.1}%",
        spans.len(),
        100.0 * solve_s / run_s.max(f64::MIN_POSITIVE)
    );
    Outcome {
        attempted,
        failed: failed + mismatches,
        checks_ok: mismatches == 0,
        metrics: m,
    }
}
