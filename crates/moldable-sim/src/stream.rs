//! Online scheduling of arrival streams: the paper's offline planner run
//! in epochs.
//!
//! The paper solves the *offline* problem: all jobs known at time zero. A
//! cluster front-end faces a stream of arrivals and periodically plans the
//! accumulated queue. The classic reduction (used by Shmoys–Wein–
//! Williamson-style arguments) runs the offline algorithm in **epochs**:
//! collect arrivals while the current batch runs, then plan the queue as a
//! fresh offline instance and run it to completion. If the offline
//! algorithm is `c`-approximate, the epoch scheme is `2c`-competitive
//! against the optimal clairvoyant schedule — each batch finishes within
//! `c·OPT_batch`, and any batch's optimum is at most the clairvoyant
//! makespan plus the previous epoch's length. [`run_stream`] is that
//! scheme, built so its memory tracks the pending set, not the stream:
//!
//! * jobs are consumed **lazily** from an iterator (one look-ahead job is
//!   held at a time), so a generator-backed source never materializes
//!   the stream;
//! * each re-plan snapshots a bounded part of the pending set
//!   ([`StreamOptions::max_batch`]: the FIFO prefix, or the fair-share
//!   top jobs picked from per-user queues), plans it through any
//!   [`MakespanSolver`] from the facade, runs it through
//!   [`execute`], completes each job at the end of its placement row,
//!   advances the clock by the batch's makespan, and discards the
//!   batch's instance, view, and execution;
//! * per-job [`JobObservation`]s are emitted **incrementally**, in
//!   completion-time order, to a caller-supplied sink, and fairness is
//!   folded online through [`RunningFairness`] — nothing accumulates
//!   with stream length. Each observation names its epoch, so a caller
//!   that wants the per-epoch batching folds it with [`EpochTable`].
//!
//! Memory is `O(pending + batch + #users)`: the pending queue, the
//! running batch, and the per-user fairness state. With an unbounded
//! `max_batch` every re-plan takes everything that has arrived by the
//! clock — the exact epoch discipline. `tests/stream_equivalence.rs`
//! keeps a direct epoch loop as the oracle and pins FIFO runs, capped or
//! not, and capped fair-share runs to it completion by completion,
//! across solvers.

use crate::executor::execute;
use crate::metrics::{FairnessReport, JobObservation, RunningFairness};
use crate::SimError;
use moldable_core::hierarchy::Topology;
use moldable_core::instance::Instance;
use moldable_core::job::Job;
use moldable_core::procset::ProcSet;
use moldable_core::ratio::Ratio;
use moldable_core::speedup::SpeedupCurve;
use moldable_core::types::{JobId, Procs, Time};
use moldable_core::view::JobView;
use moldable_sched::fairshare::Fairshare;
use moldable_sched::place_with;
use moldable_sched::solver::MakespanSolver;
use moldable_sched::PlacementPolicy;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// One job of a streaming workload: a speedup curve, an arrival time,
/// and the submitting user (`-1` when unknown) for fairness accounting.
#[derive(Clone, Debug)]
pub struct StreamJob {
    /// The job's speedup curve.
    pub curve: SpeedupCurve,
    /// When the job becomes known to the scheduler (integer ticks).
    pub arrival: Time,
    /// Submitting user, or `-1`.
    pub user: i64,
}

impl StreamJob {
    /// A job with no user identity.
    pub fn untagged(curve: SpeedupCurve, arrival: Time) -> Self {
        StreamJob {
            curve,
            arrival,
            user: -1,
        }
    }
}

/// An `(arrival, curve, user)` item of a workload source's stream.
impl From<(Time, SpeedupCurve, i64)> for StreamJob {
    fn from((arrival, curve, user): (Time, SpeedupCurve, i64)) -> Self {
        StreamJob {
            curve,
            arrival,
            user,
        }
    }
}

/// Knobs of the streaming engine.
#[derive(Clone, Debug, Default)]
pub struct StreamOptions {
    /// Largest pending-queue snapshot handed to the planner per re-plan
    /// (FIFO prefix; the rest stays queued for the next epoch). `None`
    /// plans the whole pending set — the exact epoch discipline.
    /// Overloaded streams grow their pending queue without bound either
    /// way; the cap bounds the *planner's* per-epoch cost, which is what
    /// keeps million-job runs tractable.
    pub max_batch: Option<usize>,
    /// Lower every epoch's schedule onto this processor hierarchy
    /// (leaves must cover exactly `m`). The engine then lowers each
    /// epoch's batch through [`place_with`] and folds a running
    /// [`StreamFragmentation`] tally, so a million-job replay reports
    /// how locality degrades over time in `O(levels)` memory.
    pub topology: Option<Topology>,
    /// Placement policy for the per-epoch lowering (ignored without a
    /// topology). Level indices refer to `topology`'s levels.
    pub policy: PlacementPolicy,
    /// Fair-share scheduling (`None` = FIFO, the PR 9 behavior — every
    /// byte of the outcome is unchanged). When set, each re-plan
    /// snapshot takes the `max_batch` *highest-priority* pending jobs
    /// instead of the FIFO prefix: completed work decays per user with
    /// the configured half-life ([`Fairshare`]), and users with less
    /// decayed usage win the iteratively normalized weight competition.
    /// Ties (equal weights — in particular any single-user stream)
    /// fall back to arrival order, reproducing FIFO exactly.
    pub fairshare: Option<FairshareOptions>,
}

/// Fair-share knobs of the streaming engine.
#[derive(Clone, Debug)]
pub struct FairshareOptions {
    /// Half-life of the decayed per-user usage, in stream clock ticks.
    pub half_life: u64,
}

impl Default for FairshareOptions {
    fn default() -> Self {
        // One "day" of the integer tick clock at the Lublin generator's
        // second-scale arrivals — long enough that a burst stays visible
        // across many epochs, short enough that history fades.
        FairshareOptions { half_life: 86_400 }
    }
}

/// What the streaming engine reports after draining a source. Everything
/// here is `O(#users)` or scalar — per-job data left through the sink.
#[derive(Clone, Debug)]
pub struct StreamOutcome {
    /// Jobs consumed from the source.
    pub jobs: u64,
    /// Planning epochs executed.
    pub epochs: u64,
    /// Completion time of the last job (zero for an empty source).
    pub makespan: Ratio,
    /// High-water mark of the pending queue (jobs arrived but not yet
    /// handed to a planner) — the witness that memory tracked the
    /// pending set, not the stream.
    pub peak_pending: usize,
    /// Fairness statistics folded online over every completion.
    pub fairness: FairnessReport,
    /// Running fragmentation tally over every placed epoch — `Some`
    /// exactly when [`StreamOptions::topology`] was set.
    pub fragmentation: Option<StreamFragmentation>,
}

/// Locality of a whole streaming run, folded epoch by epoch. Unlike the
/// offline [`FragmentationReport`] (one placement, full resolution),
/// this is a constant-memory trend: per level it keeps the lifetime
/// totals plus the worst single epoch, which is the "did locality decay
/// under churn" signal an operator actually reads off a replay.
///
/// [`FragmentationReport`]: moldable_core::hierarchy::FragmentationReport
#[derive(Clone, Debug)]
pub struct StreamFragmentation {
    /// Epochs whose placements fed the tally.
    pub epochs: u64,
    /// One trend per topology level, coarsest first.
    pub levels: Vec<LevelTrend>,
}

/// Per-level slice of a [`StreamFragmentation`].
#[derive(Clone, Debug)]
pub struct LevelTrend {
    /// Level name (`"node"`, `"socket"`, …).
    pub level: String,
    /// Jobs placed across the whole run.
    pub jobs: u64,
    /// Sum over all placed jobs of the blocks each spanned.
    pub total_spans: u64,
    /// Widest single placement of the run, in blocks.
    pub max_span: u64,
    /// Largest per-epoch mean span seen — the worst scheduling instant,
    /// which a lifetime mean would smooth away.
    pub peak_epoch_mean: f64,
}

impl LevelTrend {
    /// Mean blocks spanned per job over the whole run.
    pub fn mean_span(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.total_spans as f64 / self.jobs as f64
        }
    }
}

impl StreamFragmentation {
    fn new(topology: &Topology) -> Self {
        StreamFragmentation {
            epochs: 0,
            levels: topology
                .levels()
                .iter()
                .map(|level| LevelTrend {
                    level: level.name.clone(),
                    jobs: 0,
                    total_spans: 0,
                    max_span: 0,
                    peak_epoch_mean: 0.0,
                })
                .collect(),
        }
    }

    fn observe(&mut self, report: &moldable_core::hierarchy::FragmentationReport) {
        self.epochs += 1;
        for (trend, level) in self.levels.iter_mut().zip(&report.levels) {
            trend.jobs += level.jobs;
            trend.total_spans += level.total_spans;
            trend.max_span = trend.max_span.max(level.max_span);
            trend.peak_epoch_mean = trend.peak_epoch_mean.max(level.mean_span());
        }
    }
}

/// Run the epoch scheme to exhaustion.
///
/// Pulls jobs lazily from `source` (must be sorted by arrival; the first
/// out-of-order job aborts with [`SimError::UnsortedStream`]), plans
/// pending-queue snapshots on `m` machines through `solver`, and calls
/// `sink(stream_index, &observation)` once per job, in completion-time
/// order. The sink is where per-job outputs leave the engine — pass a
/// no-op closure when only the aggregate [`StreamOutcome`] matters.
///
/// A job is pulled from `source` when the re-plan that admits its
/// predecessor runs, so an out-of-order job is found at that re-plan:
/// the sink may already hold the completions of every earlier batch.
pub fn run_stream<I, F>(
    source: I,
    m: Procs,
    solver: &dyn MakespanSolver,
    opts: &StreamOptions,
    mut sink: F,
) -> Result<StreamOutcome, SimError>
where
    I: IntoIterator<Item = StreamJob>,
    F: FnMut(u64, &JobObservation),
{
    let mut fragmentation = match &opts.topology {
        Some(topology) => {
            if topology.m() != m {
                return Err(SimError::TopologyMismatch {
                    topology_m: topology.m(),
                    m,
                });
            }
            Some(StreamFragmentation::new(topology))
        }
        None => None,
    };
    let mut fairshare: Option<Fairshare<i64>> =
        opts.fairshare.as_ref().map(|f| Fairshare::new(f.half_life));
    // The fair-share clock: integer ticks, saturating (the decay
    // generation only needs the floor of the rational timestamp).
    let tick = |t: &Ratio| -> u64 { t.floor().min(u64::MAX as u128) as u64 };
    let mut src = source.into_iter();
    // One look-ahead job: the iterator is only advanced when the job
    // before it is admitted.
    let mut lookahead: Option<(u64, StreamJob)> = src.next().map(|job| (0, job));
    // Jobs arrived but not yet planned, in arrival order: one queue under
    // FIFO, one per user under fair-share.
    let mut fifo: VecDeque<(u64, StreamJob)> = VecDeque::new();
    let mut by_user: BTreeMap<i64, VecDeque<(u64, StreamJob)>> = BTreeMap::new();
    let mut pending: usize = 0;
    let mut clock = Ratio::zero();
    let mut jobs: u64 = 0;
    let mut epochs: u64 = 0;
    let mut peak_pending: usize = 0;
    let mut fairness = RunningFairness::new();

    loop {
        // Admit every job that has arrived by the clock: a job arriving
        // exactly at an epoch boundary joins the next batch.
        while let Some((index, job)) =
            lookahead.take_if(|(_, job)| Ratio::from(job.arrival) <= clock)
        {
            lookahead = match src.next() {
                Some(next) if next.arrival < job.arrival => {
                    return Err(SimError::UnsortedStream {
                        index: index as usize + 1,
                    });
                }
                next => next.map(|next| (index + 1, next)),
            };
            match &mut fairshare {
                Some(fs) => {
                    fs.touch(job.user);
                    by_user.entry(job.user).or_default().push_back((index, job));
                }
                None => fifo.push_back((index, job)),
            }
            pending += 1;
            jobs += 1;
        }
        // Pending grows only between re-plans, so its high-water mark is
        // its size here, before a batch is drawn.
        peak_pending = peak_pending.max(pending);
        if pending == 0 {
            // Idle until the next arrival — the clock jump of the epoch
            // scheme — or done.
            match &lookahead {
                Some((_, job)) => clock = Ratio::from(job.arrival),
                None => break,
            }
            continue;
        }
        // Snapshot a bounded part of the pending set and plan it as a
        // fresh offline instance: the FIFO prefix, or — under fair-share
        // — the highest-weight jobs (ties by arrival, so equal weights
        // reproduce FIFO), in arrival order.
        let take = opts.max_batch.map_or(pending, |b| b.max(1).min(pending));
        let batch: Vec<(u64, StreamJob)> = match &fairshare {
            None => fifo.drain(..take).collect(),
            Some(fs) => select_fair(&mut by_user, &fs.weights(tick(&clock)), take),
        };
        pending -= take;
        let planned: Vec<Job> = batch
            .iter()
            .enumerate()
            .map(|(i, (_, sj))| Job::new(i as JobId, sj.curve.clone()))
            .collect();
        let inst = Instance::from_jobs(planned, m);
        let view = JobView::build(&inst);
        let mut schedule = solver.solve(&view, m).schedule;
        if let Some(topology) = &opts.topology {
            // The machine is empty at every re-plan (the epoch
            // discipline runs batches to completion), so each batch is
            // lowered on its own and only the fragmentation *trend*
            // survives the epoch.
            let placement = place_with(&view, &schedule, topology, &opts.policy)
                .expect("planned batches lower onto the topology");
            if let Some(frag) = &mut fragmentation {
                frag.observe(&topology.fragmentation(&placement));
            }
            schedule.placement = Some(placement);
        }
        let ex = execute(&inst, &schedule).expect("planned batches execute");
        // Per batch position, its processor set when the planner placed.
        let mut placed: Vec<Option<ProcSet>> = vec![None; batch.len()];
        for p in schedule.placement.into_iter().flat_map(|pl| pl.jobs) {
            placed[p.job as usize] = Some(p.procs);
        }
        // Completions in (end, batch position) order. The next batch
        // starts after this one's last completion, so the sink sees the
        // whole run in completion-time order.
        let mut rows = ex.placement.jobs;
        rows.sort_by_key(|row| (row.end, row.job));
        for row in rows {
            let local = row.job as usize;
            let (index, sj) = &batch[local];
            let obs = JobObservation {
                user: sj.user,
                arrival: Ratio::from(sj.arrival),
                completion: clock.add(&row.end),
                ideal_time: Ratio::from(sj.curve.time(m).max(1)),
                weight: sj.curve.time(1) as u128,
                placed: placed[local].take(),
                epoch: epochs,
            };
            if let Some(fs) = &mut fairshare {
                // Charge the job's sequential work at completion: later
                // re-plans see the user's history decayed from here.
                fs.charge(sj.user, tick(&obs.completion), &Ratio::from_int(obs.weight));
            }
            fairness.observe(&obs);
            sink(*index, &obs);
        }
        clock = clock.add(&ex.makespan);
        epochs += 1;
    }

    Ok(StreamOutcome {
        jobs,
        epochs,
        makespan: clock,
        peak_pending,
        fairness: fairness.report(),
        fragmentation,
    })
}

/// Take the `take` pending jobs that come first by weight (descending,
/// [`f64::total_cmp`]) and then arrival index out of the per-user
/// queues, returned in arrival order: the users are walked in weight
/// order, and users of equal weight are merged by arrival index, since
/// each queue is in arrival order already. That is the sorted prefix of
/// the whole pending set under the same order, at
/// `O(users·log users + take·log take)`.
fn select_fair(
    by_user: &mut BTreeMap<i64, VecDeque<(u64, StreamJob)>>,
    weights: &BTreeMap<i64, f64>,
    take: usize,
) -> Vec<(u64, StreamJob)> {
    let mut order: Vec<(f64, i64)> = by_user
        .iter()
        .filter(|(_, queue)| !queue.is_empty())
        .map(|(&user, _)| (weights.get(&user).copied().unwrap_or(0.0), user))
        .collect();
    order.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut batch = Vec::with_capacity(take);
    for group in order.chunk_by(|a, b| a.0.total_cmp(&b.0).is_eq()) {
        if batch.len() == take {
            break;
        }
        // Heads of the group's queues, earliest arrival first.
        let mut heads: BinaryHeap<Reverse<(u64, i64)>> = group
            .iter()
            .map(|&(_, user)| Reverse((by_user[&user][0].0, user)))
            .collect();
        while batch.len() < take {
            let Some(Reverse((_, user))) = heads.pop() else {
                break;
            };
            let queue = by_user.get_mut(&user).expect("a head names its queue");
            if heads.is_empty() {
                // The group's last queue: the rest of the batch is its
                // prefix.
                let n = (take - batch.len()).min(queue.len());
                batch.extend(queue.drain(..n));
                break;
            }
            batch.push(queue.pop_front().expect("a head is a pending job"));
            if let Some(&(index, _)) = queue.front() {
                heads.push(Reverse((index, user)));
            }
        }
    }
    batch.sort_unstable_by_key(|&(index, _)| index);
    batch
}

/// One planning epoch of a [`run_stream`] run, as [`EpochTable`] folds it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochRow {
    /// Jobs the epoch planned.
    pub jobs: u64,
    /// When the batch was planned: the previous epoch's end, or the
    /// batch's earliest arrival when the machine had gone idle.
    pub start: Ratio,
    /// Completion of the epoch's last job.
    pub end: Ratio,
}

/// Per-epoch rows folded from a [`run_stream`] sink through
/// [`JobObservation::epoch`]. Holds `O(epochs)` state, so it suits trace
/// replays and examples rather than million-job streams.
#[derive(Clone, Debug, Default)]
pub struct EpochTable {
    /// Per epoch: jobs seen, earliest arrival, latest completion.
    acc: Vec<(u64, Ratio, Ratio)>,
}

impl EpochTable {
    /// An empty table.
    pub fn new() -> Self {
        EpochTable::default()
    }

    /// Fold one completed job into its epoch's row.
    pub fn observe(&mut self, obs: &JobObservation) {
        let e = obs.epoch as usize;
        if self.acc.len() <= e {
            self.acc.resize(e + 1, (0, Ratio::zero(), Ratio::zero()));
        }
        let (jobs, first, end) = &mut self.acc[e];
        if *jobs == 0 || obs.arrival < *first {
            *first = obs.arrival;
        }
        *end = (*end).max(obs.completion);
        *jobs += 1;
    }

    /// The rows in epoch order: one per [`StreamOutcome::epochs`] after a
    /// whole run, since every epoch plans at least one job.
    pub fn rows(&self) -> Vec<EpochRow> {
        let mut previous_end = Ratio::zero();
        self.acc
            .iter()
            .map(|&(jobs, first, end)| {
                let start = previous_end.max(first);
                previous_end = end;
                EpochRow { jobs, start, end }
            })
            .collect()
    }
}

/// Lower bound on the clairvoyant optimum of an arrival stream: the best
/// possible completion is at least the last arrival plus that job's
/// fastest processing time, and at least the offline bound of the whole
/// job set released at once.
pub fn clairvoyant_lower_bound(stream: &[StreamJob], m: Procs) -> Ratio {
    let release = |j: &StreamJob| Ratio::from(j.arrival).add(&Ratio::from(j.curve.time(m)));
    let Some(release_bound) = stream.iter().map(release).max() else {
        return Ratio::zero();
    };
    let jobs: Vec<Job> = stream
        .iter()
        .enumerate()
        .map(|(i, j)| Job::new(i as JobId, j.curve.clone()))
        .collect();
    let inst = Instance::from_jobs(jobs, m);
    let offline = Ratio::from(moldable_core::bounds::parametric_lower_bound(&inst));
    release_bound.max(offline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_sched::solver::{solver_by_name, DualSolver};
    use moldable_sched::{DualAlgorithm, ImprovedDual};

    fn solver() -> Box<dyn MakespanSolver> {
        solver_by_name("linear", &Ratio::new(1, 4)).unwrap()
    }

    fn jobs(spec: &[(u64, u64)]) -> Vec<StreamJob> {
        spec.iter()
            .map(|&(arrival, t1)| StreamJob::untagged(SpeedupCurve::Constant(t1), arrival))
            .collect()
    }

    /// Run `stream`, returning the outcome and the observations in
    /// stream order.
    fn observe_all(
        stream: &[StreamJob],
        m: Procs,
        solver: &dyn MakespanSolver,
        opts: &StreamOptions,
    ) -> (StreamOutcome, Vec<JobObservation>) {
        let mut obs: Vec<(u64, JobObservation)> = Vec::new();
        let out = run_stream(stream.to_vec(), m, solver, opts, |i, o| {
            obs.push((i, o.clone()))
        })
        .unwrap();
        obs.sort_by_key(|&(i, _)| i);
        (out, obs.into_iter().map(|(_, o)| o).collect())
    }

    /// Unbounded FIFO run with the linear planner.
    fn observe(stream: &[StreamJob], m: Procs) -> (StreamOutcome, Vec<JobObservation>) {
        observe_all(stream, m, solver().as_ref(), &StreamOptions::default())
    }

    fn completions(stream: &[StreamJob], m: Procs, opts: &StreamOptions) -> Vec<Ratio> {
        let (_, obs) = observe_all(stream, m, solver().as_ref(), opts);
        obs.iter().map(|o| o.completion).collect()
    }

    fn epoch_rows(obs: &[JobObservation]) -> Vec<EpochRow> {
        let mut table = EpochTable::new();
        obs.iter().for_each(|o| table.observe(o));
        table.rows()
    }

    #[test]
    fn empty_source_is_a_zero_outcome() {
        let out = run_stream(
            Vec::<StreamJob>::new(),
            4,
            solver().as_ref(),
            &StreamOptions::default(),
            |_, _| panic!("no observations expected"),
        )
        .unwrap();
        assert_eq!(out.jobs, 0);
        assert_eq!(out.epochs, 0);
        assert_eq!(out.makespan, Ratio::zero());
        assert_eq!(out.peak_pending, 0);
    }

    #[test]
    fn late_arrival_forms_second_epoch_and_keeps_user_tags() {
        // Job 0 (user 7) runs [0, 10); job 1 (user 8) arrives at 1 while
        // epoch 0 runs, waits for it, and runs [10, 13) in epoch 1.
        let mut stream = jobs(&[(0, 10), (1, 3)]);
        stream[0].user = 7;
        stream[1].user = 8;
        let (out, obs) = observe(&stream, 2);
        assert_eq!((out.epochs, out.makespan), (2, Ratio::from(13u64)));
        let rows = epoch_rows(&obs);
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].jobs, rows[1].jobs), (1, 1));
        assert_eq!(
            (rows[1].start, rows[1].end),
            (Ratio::from(10u64), Ratio::from(13u64))
        );
        assert_eq!((obs[0].epoch, obs[1].epoch), (0, 1));
        assert_eq!((obs[0].user, obs[1].user), (7, 8));
        assert_eq!(obs[0].stretch(), Ratio::one());
        // Job 1: flow = 13 − 1 = 12, ideal 3 → stretch 4.
        assert_eq!(obs[1].stretch(), Ratio::from(4u64));
        // Unknown users stay −1.
        let (_, anon) = observe(&jobs(&[(0, 10), (1, 3)]), 2);
        assert!(anon.iter().all(|o| o.user == -1));
    }

    #[test]
    fn idle_gap_jumps_to_next_arrival() {
        let (out, obs) = observe(&jobs(&[(0, 2), (100, 2)]), 2);
        let rows = epoch_rows(&obs);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].end, Ratio::from(2u64));
        assert_eq!(rows[1].start, Ratio::from(100u64));
        assert_eq!(out.makespan, Ratio::from(102u64));
    }

    #[test]
    fn competitive_envelope_on_random_streams() {
        // Epoch scheme with a (3/2+ε)(1+ε) planner: makespan within
        // 2·c·OPT of the clairvoyant lower bound (generous envelope 2c+1).
        let mut seed = 0xA881_0001u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let eps = Ratio::new(1, 4);
        let planner = ImprovedDual::new_linear(eps);
        let c = planner.guarantee().mul(&eps.one_plus());
        let solver = DualSolver::new(planner, eps);
        for trial in 0..10 {
            let n = 12 + (next() % 8) as usize;
            let mut arrivals: Vec<u64> = (0..n).map(|_| next() % 60).collect();
            arrivals.sort_unstable();
            let s: Vec<StreamJob> = arrivals
                .iter()
                .map(|&a| StreamJob::untagged(SpeedupCurve::Constant(next() % 20 + 1), a))
                .collect();
            let lb = clairvoyant_lower_bound(&s, 4);
            let (out, obs) = observe_all(&s, 4, &solver, &StreamOptions::default());
            let envelope = c.mul_int(2).add(&Ratio::one()).mul(&lb);
            assert!(
                out.makespan <= envelope,
                "trial {trial}: {} > (2c+1)·lb = {}",
                out.makespan,
                envelope
            );
            // Epochs tile the timeline without overlap.
            let rows = epoch_rows(&obs);
            assert_eq!(rows.len() as u64, out.epochs);
            for w in rows.windows(2) {
                assert!(w[0].end <= w[1].start);
            }
        }
    }

    #[test]
    fn placements_reach_the_observations() {
        // The linear planner's three-shelf construction emits a native
        // placement; every stream job must surface its processor set,
        // sized to the allotment (constant curves: always 1 machine or
        // more, never empty).
        let (_, obs) = observe(&jobs(&[(0, 6), (0, 6), (9, 3)]), 2);
        assert_eq!(obs.len(), 3);
        for o in &obs {
            let set = o.placed.as_ref().expect("every job is placed");
            assert!(!set.is_empty());
            assert!(set.max().unwrap() < 2);
        }
    }

    #[test]
    fn observations_arrive_in_completion_order() {
        let stream = jobs(&[(0, 10), (0, 2), (3, 1)]);
        let mut last = Ratio::zero();
        let mut count = 0;
        run_stream(
            stream,
            2,
            solver().as_ref(),
            &StreamOptions::default(),
            |_, o| {
                assert!(o.completion >= last);
                last = o.completion;
                count += 1;
            },
        )
        .unwrap();
        assert_eq!(count, 3);
    }

    #[test]
    fn bounded_batches_split_a_burst() {
        // Six same-instant jobs with max_batch = 2 → three epochs of two,
        // planned in FIFO arrival order.
        let stream = jobs(&[(0, 4); 6]);
        let out = run_stream(
            stream.clone(),
            2,
            solver().as_ref(),
            &StreamOptions {
                max_batch: Some(2),
                ..StreamOptions::default()
            },
            |_, _| {},
        )
        .unwrap();
        assert_eq!(out.epochs, 3);
        // Three back-to-back epochs, each at least one job long and within
        // the planner's certified envelope for a two-job batch.
        assert!(out.makespan >= Ratio::from(12u64));
        assert!(out.makespan <= Ratio::from(27u64), "{}", out.makespan);
        // Unbounded plans one epoch.
        let all = run_stream(
            stream,
            2,
            solver().as_ref(),
            &StreamOptions::default(),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(all.epochs, 1);
    }

    #[test]
    fn unsorted_source_returns_typed_error_mid_stream() {
        let stream = jobs(&[(4, 1), (9, 1), (2, 1)]);
        let err = run_stream(
            stream,
            1,
            solver().as_ref(),
            &StreamOptions::default(),
            |_, _| {},
        )
        .unwrap_err();
        assert_eq!(err, SimError::UnsortedStream { index: 2 });
        assert!(err.to_string().contains("not sorted"));
    }

    #[test]
    fn pending_stays_small_on_a_trickle_stream() {
        // 500 jobs arriving far apart: the pending queue never holds more
        // than the burst width even though the stream is long — the
        // O(pending) memory witness.
        let stream: Vec<StreamJob> = (0..500)
            .map(|i| StreamJob::untagged(SpeedupCurve::Constant(3), 10 * i))
            .collect();
        let out = run_stream(
            stream,
            2,
            solver().as_ref(),
            &StreamOptions::default(),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(out.jobs, 500);
        assert!(out.peak_pending <= 2, "peak {}", out.peak_pending);
        assert_eq!(out.fairness.users.len(), 1); // all untagged (-1)
        assert_eq!(out.fairness.mean_stretch, Ratio::one()); // never waits
    }

    #[test]
    fn topology_must_cover_the_machine() {
        let err = run_stream(
            jobs(&[(0, 1)]),
            4,
            solver().as_ref(),
            &StreamOptions {
                topology: Some(Topology::parse("2*4").unwrap()),
                ..StreamOptions::default()
            },
            |_, _| {},
        )
        .unwrap_err();
        assert_eq!(
            err,
            SimError::TopologyMismatch {
                topology_m: 8,
                m: 4
            }
        );
    }

    #[test]
    fn topology_replay_reports_fragmentation_and_places_every_job() {
        // 12 unit jobs in three bursts on 2 nodes × 4 cores: every
        // completion carries a concrete processor set and the trend
        // counts every job at every level.
        let stream = jobs(&[
            (0, 3),
            (0, 3),
            (0, 3),
            (0, 3),
            (9, 2),
            (9, 2),
            (20, 5),
            (20, 5),
        ]);
        let opts = StreamOptions {
            topology: Some(Topology::parse("2*4").unwrap()),
            policy: PlacementPolicy::Packed { level: 0 },
            ..StreamOptions::default()
        };
        let mut placed = 0;
        let out = run_stream(stream, 8, solver().as_ref(), &opts, |_, o| {
            let procs = o.placed.as_ref().expect("topology runs place every job");
            assert!(procs.size() >= 1);
            placed += 1;
        })
        .unwrap();
        assert_eq!(placed, 8);
        let frag = out.fragmentation.expect("topology set");
        assert_eq!(frag.epochs, out.epochs);
        assert_eq!(frag.levels.len(), 2);
        let nodes = &frag.levels[0];
        assert_eq!(nodes.level, "node");
        assert_eq!(nodes.jobs, 8);
        assert!(nodes.total_spans >= 8);
        assert!(nodes.max_span >= 1 && nodes.max_span <= 2);
        assert!(nodes.peak_epoch_mean >= 1.0);
        assert!(nodes.mean_span() <= nodes.peak_epoch_mean + 1e-9);
        // The lowering must not disturb the completion-time semantics.
        let plain = run_stream(
            jobs(&[
                (0, 3),
                (0, 3),
                (0, 3),
                (0, 3),
                (9, 2),
                (9, 2),
                (20, 5),
                (20, 5),
            ]),
            8,
            solver().as_ref(),
            &StreamOptions::default(),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(out.makespan, plain.makespan);
        assert_eq!(out.epochs, plain.epochs);
        assert!(plain.fragmentation.is_none());
    }

    #[test]
    fn single_user_fairshare_reproduces_fifo_exactly() {
        // One tenant ⇒ every weight ties ⇒ arrival-order selection: the
        // fair-share engine must match FIFO completion-for-completion.
        let spec: Vec<(u64, u64)> = (0..40).map(|i| (i / 8, (i % 5) + 1)).collect();
        let stream = jobs(&spec);
        let fifo = completions(&stream, 4, &StreamOptions::default());
        let fair = completions(
            &stream,
            4,
            &StreamOptions {
                max_batch: Some(3),
                fairshare: Some(FairshareOptions { half_life: 10 }),
                ..StreamOptions::default()
            },
        );
        let fifo_bounded = completions(
            &stream,
            4,
            &StreamOptions {
                max_batch: Some(3),
                ..StreamOptions::default()
            },
        );
        assert_eq!(fair, fifo_bounded);
        // Unbounded batches are FIFO-equivalent under any policy: the
        // whole pending set is planned either way.
        let fair_unbounded = completions(
            &stream,
            4,
            &StreamOptions {
                fairshare: Some(FairshareOptions::default()),
                ..StreamOptions::default()
            },
        );
        assert_eq!(fair_unbounded, fifo);
    }

    #[test]
    fn fairshare_promotes_the_light_user_past_a_monster_burst() {
        // User 0 dumps 8 long jobs at t=0; user 1's short job arrives at
        // t=1. With max_batch=1 FIFO drains user 0's whole burst first;
        // fair-share lets user 1 jump the queue as soon as user 0 has
        // history.
        let mut stream: Vec<StreamJob> = (0..8)
            .map(|_| StreamJob {
                curve: SpeedupCurve::Constant(10),
                arrival: 0,
                user: 0,
            })
            .collect();
        stream.push(StreamJob {
            curve: SpeedupCurve::Constant(1),
            arrival: 1,
            user: 1,
        });
        let run = |fairshare: Option<FairshareOptions>| {
            let opts = StreamOptions {
                max_batch: Some(1),
                fairshare,
                ..StreamOptions::default()
            };
            completions(&stream, 1, &opts)[8]
        };
        let fifo = run(None);
        let fair = run(Some(FairshareOptions { half_life: 1000 }));
        assert_eq!(fifo, Ratio::from(81u64), "FIFO serves the burst first");
        // Fair-share schedules user 1 right after the first long job
        // completes (the earliest epoch where user 0 has any history).
        assert_eq!(fair, Ratio::from(11u64));
    }
}
