//! Wrappers and replays at the scheduler's public boundaries.
//!
//! * [`Clocked`] — the untraced solver boundary: forwards to the registry
//!   solver and keeps one [`Call`] per solve (latency plus certificate).
//! * [`TracedSolver`] — the traced boundary:
//!   `DualSolver::new(Timed(ImprovedDual::new_linear(ε)), ε)`, the
//!   registry's `linear` rebuilt from its public parts, with a span
//!   around every solve and every dual probe and the probe inputs kept
//!   for replay.
//! * [`replay_probe`] — one dual probe re-run stage by stage
//!   (`ShelfContext::build` → `round_knapsack_types` → `solve_bounded` →
//!   `assemble`, or the large-`m` FPTAS dispatch), each stage a span.

use crate::trace::Tracer;
use moldable_core::compression::DoubleCompression;
use moldable_core::ratio::Ratio;
use moldable_core::types::{JobId, Procs, Time};
use moldable_core::view::JobView;
use moldable_knapsack::bounded::solve_bounded;
use moldable_knapsack::compressible::CompressibleParams;
use moldable_sched::assemble::assemble;
use moldable_sched::rounding::round_knapsack_types;
use moldable_sched::shelves::ShelfContext;
use moldable_sched::solver::{DualSolver, MakespanSolver, SolveOutcome};
use moldable_sched::transform::TransformMode;
use moldable_sched::{DualAlgorithm, FptasLargeM, ImprovedDual, Schedule};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// ε of every workload (the service's default and the stream recipe's).
pub fn eps() -> Ratio {
    Ratio::new(1, 4)
}

/// One solve seen at the untraced boundary.
#[derive(Clone, Debug)]
pub struct Call {
    /// Wall time of the solve, seconds.
    pub secs: f64,
    /// The makespan returned.
    pub makespan: Ratio,
    /// The certified lower bound on OPT, when the solver gives one.
    pub lower_bound: Option<Time>,
}

/// The registry solver behind a stopwatch.
pub struct Clocked {
    inner: Box<dyn MakespanSolver>,
    calls: Mutex<Vec<Call>>,
}

impl Clocked {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn MakespanSolver>) -> Self {
        Clocked {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Take the calls recorded so far.
    pub fn take(&self) -> Vec<Call> {
        std::mem::take(&mut *self.calls.lock().expect("solver log lock"))
    }
}

impl MakespanSolver for Clocked {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn solve(&self, view: &JobView, m: Procs) -> SolveOutcome {
        let t0 = Instant::now();
        let out = self.inner.solve(view, m);
        let secs = t0.elapsed().as_secs_f64();
        self.calls.lock().expect("solver log lock").push(Call {
            secs,
            makespan: out.makespan,
            lower_bound: out.lower_bound,
        });
        out
    }
}

/// One dual probe as the wrapped algorithm answered it.
#[derive(Clone, Debug)]
pub struct Probe {
    /// Solve (batch) it belongs to: the tracer group at probe time.
    pub batch: u64,
    /// The target `d`.
    pub d: Time,
    /// `Some(makespan)` on accept, `None` on reject.
    pub makespan: Option<Ratio>,
}

type ProbeLog = Arc<Mutex<Vec<Probe>>>;

/// A [`DualAlgorithm`] with a span around every probe.
pub struct Timed<A> {
    inner: A,
    tracer: Arc<Tracer>,
    probes: ProbeLog,
}

impl<A: DualAlgorithm> DualAlgorithm for Timed<A> {
    fn guarantee(&self) -> Ratio {
        self.inner.guarantee()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, view: &JobView, d: Time) -> Option<Schedule> {
        let out = self.tracer.time("sched.probe", || self.inner.run(view, d));
        self.probes.lock().expect("probe log lock").push(Probe {
            batch: self.tracer.group(),
            d,
            makespan: out.as_ref().map(|s| s.makespan_view(view)),
        });
        out
    }
}

/// What the traced boundary keeps per solve, for the replays.
pub struct Captured {
    /// The batch as the solver saw it.
    pub view: JobView,
    /// The solver's outcome.
    pub outcome: SolveOutcome,
}

/// The traced `linear` solver: spans around solve and probes, inputs
/// and outcomes captured. Each solve opens a new tracer group.
pub struct TracedSolver {
    solver: DualSolver<Timed<ImprovedDual>>,
    probes: ProbeLog,
    tracer: Arc<Tracer>,
    captured: Mutex<Vec<Captured>>,
}

impl TracedSolver {
    /// `DualSolver::new(Timed(ImprovedDual::new_linear(ε)), ε)`.
    pub fn new(tracer: Arc<Tracer>) -> Self {
        let probes: ProbeLog = Arc::new(Mutex::new(Vec::new()));
        let timed = Timed {
            inner: ImprovedDual::new_linear(eps()),
            tracer: Arc::clone(&tracer),
            probes: Arc::clone(&probes),
        };
        TracedSolver {
            solver: DualSolver::new(timed, eps()),
            probes,
            tracer,
            captured: Mutex::new(Vec::new()),
        }
    }

    /// Take the captured solves and their probes.
    pub fn take(&self) -> (Vec<Captured>, Vec<Probe>) {
        (
            std::mem::take(&mut *self.captured.lock().expect("capture lock")),
            std::mem::take(&mut *self.probes.lock().expect("probe log lock")),
        )
    }
}

impl MakespanSolver for TracedSolver {
    fn name(&self) -> &'static str {
        self.solver.name()
    }

    fn solve(&self, view: &JobView, m: Procs) -> SolveOutcome {
        self.tracer.next_group();
        let out = self
            .tracer
            .time("sched.solve", || self.solver.solve(view, m));
        // Its own span, so the copy counts against no layer's self time.
        self.tracer.time("trace.capture", || {
            self.captured.lock().expect("capture lock").push(Captured {
                view: view.clone(),
                outcome: out.clone(),
            })
        });
        out
    }
}

/// The parameters `ImprovedDual::new_linear(ε)` derives internally,
/// rebuilt from the same public constructors so the staged replay runs
/// the identical arithmetic.
pub struct LinearParams {
    dc: DoubleCompression,
    d_prime_factor: Ratio,
    stretch: Ratio,
}

impl LinearParams {
    /// For accuracy `eps` (δ = ε/5, as `ImprovedDual` does).
    pub fn new(eps: Ratio) -> Self {
        let dc = DoubleCompression::for_delta(eps.div_int(5));
        let one_plus_delta = dc.delta().one_plus();
        let stretch = dc.rho().mul_int(4).one_plus();
        LinearParams {
            d_prime_factor: one_plus_delta.mul(&one_plus_delta),
            stretch,
            dc,
        }
    }
}

/// Per-probe stage measurements of a replay.
#[derive(Clone, Debug, Default)]
pub struct StageCounts {
    /// Knapsack calls replayed.
    pub knapsack_calls: u64,
    /// Item types summed over those calls.
    pub knapsack_types: u64,
}

/// Replay one probe of the linear algorithm stage by stage under
/// `tracer`, in the order `ImprovedDual::run` performs them.
pub fn replay_probe(
    view: &JobView,
    d: Time,
    params: &LinearParams,
    tracer: &Tracer,
    counts: &mut StageCounts,
) -> Option<Schedule> {
    // Section 4.2.5's dispatch, as in `ImprovedDual::run`.
    if view.m() >= 16 * view.n() as u64 {
        return tracer.time("sched.large_m", || {
            FptasLargeM::new(Ratio::new(1, 2)).run(view, d)
        });
    }
    let ctx = tracer.time("sched.shelf", || ShelfContext::build(view, d))?;
    let rounded = tracer.time("sched.round", || {
        round_knapsack_types(view, &ctx, &params.dc, d)
    });
    counts.knapsack_calls += 1;
    counts.knapsack_types += rounded.types.len() as u64;
    let mut chosen = tracer.time("knapsack.bounded", || {
        bounded_choice(&params.dc, &rounded, ctx.capacity)
    });
    chosen.extend(ctx.forced.iter().map(|&(id, _)| id));
    let d_prime = params.d_prime_factor.mul_int(d as u128);
    let mode = TransformMode::Bucketed {
        stretch: params.stretch,
    };
    tracer.time("sched.assemble", || assemble(view, &d_prime, &chosen, mode))
}

/// Algorithm 3's S1 choice (`ImprovedDual::bounded_choice`, which is
/// crate-private): the compressible bounded knapsack over the rounded
/// types, expanded back to concrete jobs.
fn bounded_choice(
    dc: &DoubleCompression,
    rounded: &moldable_sched::rounding::RoundedTypes,
    capacity: Procs,
) -> Vec<JobId> {
    let b = dc.b();
    let types = &rounded.types;
    let alpha_min = types
        .iter()
        .filter(|t| t.compressible)
        .map(|t| t.size)
        .min()
        .unwrap_or(b);
    let n_compressible: u64 = types
        .iter()
        .filter(|t| t.compressible)
        .map(|t| t.count)
        .sum();
    let params = CompressibleParams {
        rho: dc.rho().div_int(2),
        alpha_min,
        beta_max: capacity,
        n_bar: (2 * capacity / b.max(1)).min(n_compressible.max(1)).max(1),
    };
    let bounded = solve_bounded(types, capacity, &params);
    let mut chosen: Vec<JobId> = Vec::new();
    for &(type_id, units) in &bounded.counts {
        let jobs = &rounded.jobs_by_type[type_id as usize];
        chosen.extend(jobs.iter().take(units as usize));
    }
    chosen
}

/// Replay every captured probe and check it against what the wrapped
/// algorithm answered: same accept/reject, same makespan. Returns the
/// number of mismatches.
pub fn replay_probes(
    captured: &[Captured],
    first_batch: u64,
    probes: &[Probe],
    params: &LinearParams,
    tracer: &Tracer,
    counts: &mut StageCounts,
) -> u64 {
    let mut mismatches = 0;
    for p in probes {
        let Some(c) = p
            .batch
            .checked_sub(first_batch)
            .and_then(|i| captured.get(i as usize))
        else {
            mismatches += 1;
            continue;
        };
        tracer.set_group(p.batch);
        let got = tracer.time("replay.probe", || {
            replay_probe(&c.view, p.d, params, tracer, counts)
        });
        if got.map(|s| s.makespan_view(&c.view)) != p.makespan {
            mismatches += 1;
        }
    }
    mismatches
}
