//! End-to-end SWF ingestion: parse the bundled trace, synthesize monotone
//! moldable jobs, round-trip through the JSON instance format, and
//! differential-check scheduler output on the trace-derived instance.

use moldable::core::io::InstanceSpec;
use moldable::core::monotone::verify_monotone;
use moldable::prelude::*;
use moldable::sched::solver::DualSolver;
use moldable::sim::{
    clairvoyant_lower_bound, run_stream, EpochTable, StreamJob, StreamOptions,
};
use moldable::workloads::{FitModel, SwfSource, SwfTrace, SynthesisParams, WorkloadSource};

const TRACE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/sample.swf");

fn bundled_trace() -> SwfTrace {
    SwfTrace::from_path(TRACE_PATH).expect("bundled trace parses")
}

#[test]
fn swf_ingest_bundled_trace_parses_with_expected_shape() {
    let trace = bundled_trace();
    assert_eq!(trace.header.max_procs, Some(128));
    assert_eq!(trace.header.machine_count(), Some(128));
    assert_eq!(trace.header.unix_start_time, Some(1_092_213_600));
    assert_eq!(trace.jobs.len(), 203);
    // The three deliberately degenerate records are kept by the parser
    // but excluded from synthesis.
    assert_eq!(trace.usable_jobs().count(), 201);
    let cancelled = &trace.jobs[40];
    assert_eq!(cancelled.status, 5);
    assert!(!cancelled.is_usable());
    let truncated = &trace.jobs[150];
    assert_eq!(
        truncated.requested_procs, -1,
        "missing fields default to -1"
    );
    assert!(truncated.is_usable());
}

#[test]
fn swf_ingest_admission_policy_pins_degenerate_rows() {
    use moldable::workloads::{admissible_records, admit_procs, admit_submit};
    let trace = bundled_trace();
    // The two zero-processor records (the cancelled job 41 and the failed
    // job 98) also never ran — rejected by the admission policy, so the
    // admitted set matches the parser-level usable set on this trace.
    assert_eq!(admissible_records(&trace).count(), 201);
    for rec in trace.jobs.iter().filter(|r| r.allocated_procs == 0) {
        assert!(rec.run_time <= 0.0, "sample.swf zero-proc rows never ran");
        assert_eq!(admit_procs(rec), None);
        assert!(
            rec.requested_procs > 0,
            "the degenerate rows do carry a request — only the runtime \
             keeps them out"
        );
    }
    // The truncated record (job 151) is admitted through its allocation.
    let truncated = &trace.jobs[150];
    assert_eq!(admit_procs(truncated), Some(8));
    // Every admitted record reaches the replayed stream with a
    // non-negative, sorted arrival and a positive processor count.
    for rec in admissible_records(&trace) {
        assert!(admit_procs(rec).unwrap() >= 1);
        assert!(admit_submit(rec) >= 0.0);
    }
    let stream =
        moldable::workloads::synthesize_stream(&trace, 128, &SynthesisParams::default(), None);
    assert_eq!(stream.len(), 201);
    assert_eq!(stream[0].0, 0);
    assert!(stream.windows(2).all(|w| w[0].0 <= w[1].0));
}

#[test]
fn swf_ingest_every_synthesized_curve_is_monotone_under_both_models() {
    let trace = bundled_trace();
    for model in [FitModel::Amdahl, FitModel::Downey] {
        let params = SynthesisParams {
            model,
            ..SynthesisParams::default()
        };
        let source = SwfSource::new(trace.clone(), None, params).unwrap();
        let inst = source.offline_instance();
        assert_eq!(inst.n(), 201);
        for j in inst.jobs() {
            verify_monotone(j, inst.m())
                .unwrap_or_else(|e| panic!("{model:?} job {} non-monotone: {e:?}", j.id()));
        }
    }
}

#[test]
fn swf_ingest_round_trips_through_instance_spec_json() {
    let source = SwfSource::new(bundled_trace(), None, SynthesisParams::default()).unwrap();
    let inst = source.offline_instance();
    let spec = InstanceSpec::from_instance(&inst).expect("staircases serialize");
    let text = serde_json::to_string(&spec).unwrap();
    let back: InstanceSpec = serde_json::from_str(&text).unwrap();
    let inst2 = back.build().unwrap();
    assert_eq!(inst.n(), inst2.n());
    assert_eq!(inst.m(), inst2.m());
    for (a, b) in inst.jobs().iter().zip(inst2.jobs()) {
        for p in [1u64, 2, 7, 32, 100, 128] {
            assert_eq!(a.time(p), b.time(p), "job {} differs at p={p}", a.id());
        }
    }
}

#[test]
fn swf_ingest_schedulers_agree_on_the_trace_derived_instance() {
    // Differential check: three independent planners must all emit valid
    // schedules, respect the shared lower bound, and stay within their
    // certified envelopes of each other.
    let source = SwfSource::new(bundled_trace(), None, SynthesisParams::default()).unwrap();
    let inst = source.offline_instance();
    let eps = Ratio::new(1, 4);

    let linear = approximate(&inst, &ImprovedDual::new_linear(eps), &eps);
    let alg3 = approximate(&inst, &ImprovedDual::new(eps), &eps);
    let mrt = approximate(&inst, &MrtDual, &eps);
    for (name, res) in [("linear", &linear), ("alg3", &alg3), ("mrt", &mrt)] {
        validate(&res.schedule, &inst).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(res.schedule.len(), inst.n(), "{name} scheduled every job");
        assert!(
            res.schedule.makespan(&inst) >= Ratio::from(res.lower_bound),
            "{name}: makespan below its own certified lower bound"
        );
    }
    // Both (3/2+ε)(1+ε) planners sit within their guarantee of the best
    // certified lower bound, so they differ by at most that factor.
    let lb = Ratio::from(
        linear
            .lower_bound
            .max(alg3.lower_bound)
            .max(mrt.lower_bound),
    );
    let envelope = Ratio::new(3, 2).add(&eps).mul(&eps.one_plus()).mul(&lb);
    for (name, res) in [("linear", &linear), ("alg3", &alg3), ("mrt", &mrt)] {
        assert!(
            res.schedule.makespan(&inst) <= envelope,
            "{name}: {} exceeds envelope {envelope}",
            res.schedule.makespan(&inst)
        );
    }
}

#[test]
fn swf_ingest_replay_runs_the_online_pipeline() {
    let source = SwfSource::new(bundled_trace(), None, SynthesisParams::default())
        .unwrap()
        .with_max_jobs(64);
    let m = source.machine_count();
    let eps = Ratio::new(1, 4);
    let stream: Vec<StreamJob> = source.stream_iter().map(StreamJob::from).collect();
    assert_eq!(stream.len(), 64);
    assert_eq!(stream[0].arrival, 0);
    let lb = clairvoyant_lower_bound(&stream, m);
    let planner = DualSolver::new(ImprovedDual::new_linear(eps), eps);
    let mut epochs = EpochTable::new();
    let out = run_stream(stream, m, &planner, &StreamOptions::default(), |_, o| {
        epochs.observe(o)
    })
    .unwrap();
    assert!(out.makespan >= lb);
    // Epochs tile the timeline without overlap.
    let rows = epochs.rows();
    assert_eq!(rows.len() as u64, out.epochs);
    for w in rows.windows(2) {
        assert!(w[0].end <= w[1].start);
    }
    assert_eq!(rows.iter().map(|e| e.jobs).sum::<u64>(), 64);
}

#[test]
fn swf_ingest_synthesis_is_reproducible_across_processes() {
    // Fixed seed → identical curves; this is what makes `generate
    // --family swf` a reproducible experiment input.
    let mk = |seed| {
        let params = SynthesisParams {
            seed,
            ..SynthesisParams::default()
        };
        SwfSource::new(bundled_trace(), None, params)
            .unwrap()
            .offline_instance()
    };
    let (a, b, c) = (mk(0), mk(0), mk(1));
    let mut any_differs = false;
    for j in 0..a.n() as u32 {
        for p in [1u64, 16, 128] {
            assert_eq!(a.time(j, p), b.time(j, p));
            any_differs |= a.time(j, p) != c.time(j, p);
        }
    }
    assert!(any_differs, "different seeds must sample different curves");
}
