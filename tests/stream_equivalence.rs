//! The streaming engine must be *observationally identical* to the
//! epoch scheme it implements: same batches, same planner calls, same
//! completion times, same fairness. The epoch scheme lives here as a
//! direct loop — the oracle, which never calls the engine — and
//! `run_stream` runs, FIFO unbounded or with a `max_batch` cap and
//! capped multi-user fair-share, are pinned to it across arrival
//! patterns and solver choices, plus the fixed corpora below.

use moldable::core::types::JobId;
use moldable::core::view::JobView;
use moldable::prelude::*;
use moldable::sched::solver::{solver_by_name, MakespanSolver};
use moldable::sched::Fairshare;
use moldable::sim::{
    execute, run_stream, EpochRow, EpochTable, FairnessReport, FairshareOptions,
    JobObservation, StreamJob, StreamOptions,
};
use proptest::prelude::*;

/// Solvers exercised as online planners (exact is rejected by design;
/// ptas/fptas fold into their dispatch branches).
const SOLVERS: &[&str] = &["linear", "alg3", "mrt", "two-approx", "sequential"];

/// What the epoch loop decides for a stream.
struct EpochRun {
    /// One observation per stream job, in stream order.
    observations: Vec<JobObservation>,
    /// One row per epoch.
    rows: Vec<EpochRow>,
    makespan: Ratio,
}

/// The epoch scheme as a plain loop over a sorted stream. Each batch is
/// everything that has arrived by the clock (on an idle machine the
/// clock first jumps to the next arrival), or `cap` of those jobs,
/// planned as a fresh offline instance with `solve` and run to
/// completion with `execute` before the next batch is planned. FIFO
/// takes the first `cap` arrivals. Fair-share (`half_life` set) orders
/// the whole pending set by the users' [`Fairshare`] weights at the
/// re-plan (descending, `total_cmp`), then by arrival, takes the first
/// `cap` and plans them in arrival order; the oracle registers a user
/// when one of its jobs arrives and charges each job's sequential work at
/// its completion, in completion order (end, then batch position).
fn epoch_oracle(
    stream: &[StreamJob],
    m: Procs,
    solver: &dyn MakespanSolver,
    cap: Option<usize>,
    half_life: Option<u64>,
) -> EpochRun {
    let mut observations: Vec<JobObservation> = stream
        .iter()
        .map(|j| JobObservation {
            user: j.user,
            arrival: Ratio::from(j.arrival),
            completion: Ratio::zero(),
            ideal_time: Ratio::from(j.curve.time(m).max(1)),
            weight: j.curve.time(1) as u128,
            placed: None,
            epoch: 0,
        })
        .collect();
    let tick = |t: &Ratio| t.floor().min(u128::from(u64::MAX)) as u64;
    let mut fairshare: Option<Fairshare<i64>> = half_life.map(Fairshare::new);
    let mut rows: Vec<EpochRow> = Vec::new();
    let mut clock = Ratio::zero();
    // Stream indices arrived but not yet planned, in arrival order.
    let mut pending: Vec<usize> = Vec::new();
    let mut arrived = 0;
    while arrived < stream.len() || !pending.is_empty() {
        if pending.is_empty() {
            clock = clock.max(Ratio::from(stream[arrived].arrival));
        }
        while arrived < stream.len() && Ratio::from(stream[arrived].arrival) <= clock {
            if let Some(fs) = &mut fairshare {
                fs.touch(stream[arrived].user);
            }
            pending.push(arrived);
            arrived += 1;
        }
        let take = cap.map_or(pending.len(), |cap| cap.min(pending.len()));
        let batch: Vec<usize> = match &fairshare {
            None => pending.drain(..take).collect(),
            Some(fs) => {
                let weights = fs.weights(tick(&clock));
                let mut order = pending.clone();
                order.sort_by(|&a, &b| {
                    weights[&stream[b].user]
                        .total_cmp(&weights[&stream[a].user])
                        .then(a.cmp(&b))
                });
                let mut batch = order[..take].to_vec();
                batch.sort_unstable();
                pending.retain(|i| !batch.contains(i));
                batch
            }
        };
        let jobs: Vec<Job> = batch
            .iter()
            .enumerate()
            .map(|(i, &j)| Job::new(i as JobId, stream[j].curve.clone()))
            .collect();
        let inst = Instance::from_jobs(jobs, m);
        let schedule = solver.solve(&JobView::build(&inst), m).schedule;
        let ex = execute(&inst, &schedule).expect("planned batches execute");
        for &j in &batch {
            observations[j].epoch = rows.len() as u64;
        }
        for p in schedule.placement.iter().flat_map(|pl| &pl.jobs) {
            observations[batch[p.job as usize]].placed = Some(p.procs.clone());
        }
        let mut done: Vec<(Ratio, usize)> = ex
            .placement
            .jobs
            .iter()
            .map(|p| (p.end, p.job as usize))
            .collect();
        done.sort();
        for (end, local) in done {
            let o = &mut observations[batch[local]];
            o.completion = clock.add(&end);
            if let Some(fs) = &mut fairshare {
                fs.charge(o.user, tick(&o.completion), &Ratio::from_int(o.weight));
            }
        }
        let end = clock.add(&ex.makespan);
        rows.push(EpochRow {
            jobs: batch.len() as u64,
            start: clock,
            end,
        });
        clock = end;
    }
    EpochRun {
        observations,
        rows,
        makespan: clock,
    }
}

/// Run `stream` through the engine with batch cap `cap` (FIFO, or
/// fair-share with `half_life` when it is set) and assert that every
/// observation, the epoch rows folded from them, the makespan, the epoch
/// count and the fairness report equal the oracle's.
fn assert_engine_matches_oracle(
    stream: &[StreamJob],
    m: Procs,
    solver: &dyn MakespanSolver,
    cap: Option<usize>,
    half_life: Option<u64>,
) {
    let want = epoch_oracle(stream, m, solver, cap, half_life);
    let mut got: Vec<(u64, JobObservation)> = Vec::new();
    let mut table = EpochTable::new();
    let out = run_stream(
        stream.to_vec(),
        m,
        solver,
        &StreamOptions {
            max_batch: cap,
            fairshare: half_life.map(|half_life| FairshareOptions { half_life }),
            ..StreamOptions::default()
        },
        |i, o| {
            table.observe(o);
            got.push((i, o.clone()));
        },
    )
    .unwrap();

    assert_eq!(out.jobs as usize, stream.len());
    assert_eq!(out.makespan, want.makespan);
    assert_eq!(out.epochs as usize, want.rows.len());
    assert_eq!(table.rows(), want.rows);
    got.sort_by_key(|(i, _)| *i);
    let got: Vec<JobObservation> = got.into_iter().map(|(_, o)| o).collect();
    assert_eq!(got, want.observations);
    // Fairness: the online accumulator over streamed observations
    // equals the buffered report over the oracle's observations.
    assert_eq!(
        out.fairness,
        FairnessReport::from_observations(&want.observations)
    );
}

fn arrival_specs() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    // (gap to previous arrival, sequential time, width hint) per job;
    // cumulative gaps keep the stream sorted by construction.
    prop::collection::vec((0u64..30, 1u64..25, 1u64..6), 1..12)
}

fn curves(spec: &[(u64, u64, u64)]) -> Vec<(u64, SpeedupCurve)> {
    let mut clock = 0u64;
    spec.iter()
        .map(|&(gap, t1, width)| {
            clock += gap;
            // Mix rigid and moldable shapes: ideal-with-overhead curves
            // give the planner real allotment choices.
            let curve = if width == 1 {
                SpeedupCurve::Constant(t1)
            } else {
                SpeedupCurve::ideal_with_overhead(t1 * 8, 2, width)
            };
            (clock, curve)
        })
        .collect()
}

/// Constant-curve jobs from `(arrival, t1)` pairs, user `i % users`.
fn constant_jobs(spec: &[(u64, u64)], users: usize) -> Vec<StreamJob> {
    spec.iter()
        .enumerate()
        .map(|(i, &(arrival, t1))| StreamJob {
            curve: SpeedupCurve::Constant(t1),
            arrival,
            user: (i % users) as i64,
        })
        .collect()
}

#[test]
fn event_engine_matches_epoch_scheme_on_fixed_corpora() {
    // Late arrivals, idle gaps, same-instant bursts — the equivalence
    // corpus of arrival patterns, checked completion by completion.
    let corpora: [&[(u64, u64)]; 5] = [
        &[(0, 4), (0, 4), (0, 4), (0, 4)],
        &[(0, 10), (1, 3)],
        &[(0, 2), (100, 2)],
        &[(5, 7), (5, 3), (5, 9), (6, 1), (40, 2), (40, 2)],
        &[(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)],
    ];
    let solver = solver_by_name("linear", &Ratio::new(1, 4)).unwrap();
    for spec in corpora {
        for m in [1u64, 2, 4] {
            assert_engine_matches_oracle(
                &constant_jobs(spec, 1),
                m,
                solver.as_ref(),
                None,
                None,
            );
        }
    }
    // Two users, one late burst: per-user fairness rows agree too.
    let two_users = constant_jobs(&[(0, 10), (1, 3), (1, 5), (20, 2)], 2);
    assert_engine_matches_oracle(&two_users, 2, solver.as_ref(), None, None);
}

#[test]
fn fairshare_engine_matches_epoch_scheme_on_fixed_corpora() {
    let solver = solver_by_name("linear", &Ratio::new(1, 4)).unwrap();
    let job = |arrival: u64, t1: u64, user: i64| StreamJob {
        curve: SpeedupCurve::Constant(t1),
        arrival,
        user,
    };
    // Three uncharged users arrive together: every weight ties, so each
    // capped batch is the arrival-order prefix across users.
    let tied: Vec<StreamJob> = (0..12)
        .map(|i| job(i / 6, 2 + i % 3, (i % 3) as i64))
        .collect();
    // User 0 runs first and is charged; users 1 and 2 then tie above it
    // and are merged by arrival, and user 0 comes last.
    let mut ranked = vec![job(0, 9, 0)];
    ranked.extend((0..9).map(|i| job(1, 1 + i % 4, [0, 2, 1][i as usize % 3])));
    // One user: fair-share is FIFO.
    let single: Vec<StreamJob> = (0..10).map(|i| job(i / 3, 1 + i % 5, 4)).collect();
    // Users charged in different generations of a short half-life.
    let generations: Vec<StreamJob> = (0..16)
        .map(|i| job(i * 3, 2 + i % 7, (i % 4) as i64))
        .collect();
    for stream in [&tied, &ranked, &single, &generations] {
        for (m, cap) in [(1, 1), (2, 2), (4, 3), (3, 5)] {
            for half_life in [1, 5, 86_400] {
                assert_engine_matches_oracle(
                    stream,
                    m,
                    solver.as_ref(),
                    Some(cap),
                    Some(half_life),
                );
            }
        }
        assert_engine_matches_oracle(stream, 2, solver.as_ref(), None, Some(10));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Event engine ≡ epoch scheme: observations, epoch rows, makespan,
    /// epoch count, and fairness agree exactly for every solver.
    #[test]
    fn event_engine_matches_epoch_scheme(
        spec in arrival_specs(),
        m in 1u64..6,
        solver_idx in 0usize..SOLVERS.len(),
    ) {
        let stream: Vec<StreamJob> = curves(&spec)
            .into_iter()
            .enumerate()
            .map(|(i, (arrival, curve))| StreamJob { curve, arrival, user: (i % 3) as i64 })
            .collect();
        let solver = solver_by_name(SOLVERS[solver_idx], &Ratio::new(1, 4)).unwrap();
        assert_engine_matches_oracle(&stream, m, solver.as_ref(), None, None);
    }

    /// Capped FIFO engine ≡ capped epoch scheme: with at most `cap` jobs
    /// per re-plan, every observation, epoch row, the makespan and
    /// fairness still agree exactly for every solver.
    #[test]
    fn capped_engine_matches_capped_epoch_scheme(
        spec in arrival_specs(),
        m in 1u64..6,
        solver_idx in 0usize..SOLVERS.len(),
        cap in 1usize..4,
    ) {
        let stream: Vec<StreamJob> = curves(&spec)
            .into_iter()
            .enumerate()
            .map(|(i, (arrival, curve))| StreamJob { curve, arrival, user: (i % 3) as i64 })
            .collect();
        let solver = solver_by_name(SOLVERS[solver_idx], &Ratio::new(1, 4)).unwrap();
        assert_engine_matches_oracle(&stream, m, solver.as_ref(), Some(cap), None);
    }

    /// Capped multi-user fair-share engine ≡ the oracle's whole-queue
    /// selection: every observation, epoch row, the makespan and
    /// fairness agree exactly for every solver, users and half-life.
    #[test]
    fn capped_fairshare_engine_matches_capped_epoch_scheme(
        spec in arrival_specs(),
        m in 1u64..6,
        solver_idx in 0usize..SOLVERS.len(),
        cap in 1usize..4,
        users in 1usize..5,
        half_life in 1u64..64,
    ) {
        let stream: Vec<StreamJob> = curves(&spec)
            .into_iter()
            .enumerate()
            .map(|(i, (arrival, curve))| StreamJob { curve, arrival, user: (i % users) as i64 })
            .collect();
        let solver = solver_by_name(SOLVERS[solver_idx], &Ratio::new(1, 4)).unwrap();
        assert_engine_matches_oracle(&stream, m, solver.as_ref(), Some(cap), Some(half_life));
    }

    /// A bounded batch cap never loses or duplicates jobs, and the
    /// engine still emits exactly one observation per stream index.
    #[test]
    fn bounded_batches_conserve_jobs(
        spec in arrival_specs(),
        m in 1u64..6,
        cap in 1usize..4,
    ) {
        let jobs = curves(&spec);
        let stream: Vec<StreamJob> = jobs
            .iter()
            .map(|(a, c)| StreamJob::untagged(c.clone(), *a))
            .collect();
        let eps = Ratio::new(1, 4);
        let solver = solver_by_name("linear", &eps).unwrap();
        let mut seen = vec![0usize; jobs.len()];
        let mut table = EpochTable::new();
        let out = run_stream(
            stream,
            m,
            solver.as_ref(),
            &StreamOptions {
                max_batch: Some(cap),
                ..StreamOptions::default()
            },
            |i, o| {
                seen[i as usize] += 1;
                assert!(o.completion >= o.arrival);
                table.observe(o);
            },
        )
        .unwrap();
        prop_assert_eq!(out.jobs as usize, jobs.len());
        prop_assert!(seen.iter().all(|&c| c == 1));
        prop_assert!(out.epochs as usize >= jobs.len().div_ceil(cap.max(1)) - 1);
        // Capped epochs still tile the timeline, at most `cap` jobs each.
        let rows = table.rows();
        prop_assert_eq!(rows.len() as u64, out.epochs);
        prop_assert!(rows.iter().all(|r| (1..=cap as u64).contains(&r.jobs)));
        prop_assert!(rows.windows(2).all(|w| w[0].end <= w[1].start));
    }

    /// `--fairshare off` is not a separate code path doing the same
    /// thing — it is `fairshare: None`, the exact options the corpus
    /// above proves equivalent to the epoch scheme. And with a single
    /// user, turning fair-share ON must change nothing either: every
    /// weight competition ties and falls back to arrival order, so
    /// completions, epoch count, makespan, and fairness reproduce the
    /// FIFO run exactly, for any half-life and batch cap.
    #[test]
    fn single_user_fairshare_reproduces_fifo(
        spec in arrival_specs(),
        m in 1u64..6,
        cap in 1usize..4,
        half_life in 1u64..64,
    ) {
        let jobs = curves(&spec);
        let stream: Vec<StreamJob> = jobs
            .iter()
            .map(|(a, c)| StreamJob { curve: c.clone(), arrival: *a, user: 7 })
            .collect();
        let eps = Ratio::new(1, 4);
        let solver = solver_by_name("linear", &eps).unwrap();
        let run = |fairshare: Option<FairshareOptions>| {
            let mut completions: Vec<(u64, Ratio)> = Vec::new();
            let out = run_stream(
                stream.clone(),
                m,
                solver.as_ref(),
                &StreamOptions { max_batch: Some(cap), fairshare, ..StreamOptions::default() },
                |i, o| completions.push((i, o.completion)),
            )
            .unwrap();
            (out, completions)
        };
        let (fifo, fifo_completions) = run(None);
        let (fair, fair_completions) = run(Some(FairshareOptions { half_life }));
        prop_assert_eq!(fair_completions, fifo_completions);
        prop_assert_eq!(fair.epochs, fifo.epochs);
        prop_assert_eq!(fair.makespan, fifo.makespan);
        prop_assert_eq!(fair.fairness.max_stretch, fifo.fairness.max_stretch);
        prop_assert_eq!(fair.fairness.mean_stretch, fifo.fairness.mean_stretch);
    }

    /// Fair-share reorders the pending queue but never the ledger:
    /// with multiple competing users every job still completes exactly
    /// once, no earlier than its arrival, and the per-user fairness
    /// rows still partition the stream.
    #[test]
    fn fairshare_conserves_jobs_across_users(
        spec in arrival_specs(),
        m in 1u64..6,
        cap in 1usize..4,
        half_life in 1u64..64,
    ) {
        let jobs = curves(&spec);
        let stream: Vec<StreamJob> = jobs
            .iter()
            .enumerate()
            .map(|(i, (a, c))| StreamJob {
                curve: c.clone(),
                arrival: *a,
                user: (i % 3) as i64,
            })
            .collect();
        let eps = Ratio::new(1, 4);
        let solver = solver_by_name("linear", &eps).unwrap();
        let mut seen = vec![0usize; jobs.len()];
        let out = run_stream(
            stream,
            m,
            solver.as_ref(),
            &StreamOptions {
                max_batch: Some(cap),
                fairshare: Some(FairshareOptions { half_life }),
                ..StreamOptions::default()
            },
            |i, o| {
                seen[i as usize] += 1;
                assert!(o.completion >= o.arrival);
            },
        )
        .unwrap();
        prop_assert_eq!(out.jobs as usize, jobs.len());
        prop_assert!(seen.iter().all(|&c| c == 1));
        let rows: usize = out.fairness.users.iter().map(|u| u.jobs).sum();
        prop_assert_eq!(rows, jobs.len());
        prop_assert!(out.fairness.users.len() <= 3);
    }
}
