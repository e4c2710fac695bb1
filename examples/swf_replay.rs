//! Ingest a real-workload trace (Standard Workload Format) and drive the
//! full pipeline with it: parse → lift rigid records into monotone
//! moldable jobs → schedule the whole trace offline → replay the recorded
//! arrival stream through the online epoch scheme (the streaming engine
//! with no batch cap).
//!
//! Run with: `cargo run --release --example swf_replay`

use moldable::prelude::*;
use moldable::sched::solver::DualSolver;
use moldable::sim::{
    clairvoyant_lower_bound, run_stream, EpochTable, StreamJob, StreamOptions,
};
use moldable::workloads::{FitModel, SwfSource, SwfTrace, SynthesisParams, WorkloadSource};

fn main() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/sample.swf");
    let trace = SwfTrace::parse(&std::fs::read_to_string(path).expect("bundled trace exists"))
        .expect("bundled trace parses");

    println!("trace: {}", path);
    println!(
        "  header: MaxProcs = {:?}, MaxJobs = {:?}, UnixStartTime = {:?}",
        trace.header.max_procs, trace.header.max_jobs, trace.header.unix_start_time
    );
    let usable = trace.usable_jobs().count();
    println!(
        "  records: {} total, {} usable (cancelled/failed/zero-proc dropped)\n",
        trace.jobs.len(),
        usable
    );

    // Lift the rigid records into monotone moldable jobs (Downey fit).
    let source = SwfSource::new(
        trace,
        None,
        SynthesisParams {
            model: FitModel::Downey,
            ..SynthesisParams::default()
        },
    )
    .expect("header carries MaxProcs");
    let m = source.machine_count();
    let inst = source.offline_instance();
    println!("moldability synthesis ({}):", source.label());
    let steps: usize = inst
        .jobs()
        .iter()
        .map(|j| match j.curve() {
            SpeedupCurve::Staircase(s) => s.steps().len(),
            _ => 1,
        })
        .sum();
    println!(
        "  {} jobs on m = {m}, {steps} staircase breakpoints total",
        inst.n()
    );

    // Offline: schedule the whole trace as one batch.
    let eps = Ratio::new(1, 4);
    let algo = ImprovedDual::new_linear(eps);
    let res = approximate(&inst, &algo, &eps);
    validate(&res.schedule, &inst).expect("planner output must be feasible");
    println!("\noffline (all jobs at time zero, linear-time (3/2+ε) algorithm):");
    println!("  makespan : {}", res.schedule.makespan(&inst));
    println!(
        "  ω interval: [{}, {}]",
        res.lower_bound,
        res.schedule.makespan(&inst)
    );

    // Online: replay the recorded submit times through the epoch scheme.
    // The source's stream is sorted and starts at zero.
    let stream: Vec<StreamJob> = source.stream_iter().map(StreamJob::from).collect();
    let lb = clairvoyant_lower_bound(&stream, m);
    let mut epochs = EpochTable::new();
    let out = run_stream(
        stream,
        m,
        &DualSolver::new(algo, eps),
        &StreamOptions::default(),
        |_, o| epochs.observe(o),
    )
    .expect("replay streams are sorted");
    let rows = epochs.rows();
    println!("\nonline replay (recorded submit times, epoch batching):");
    println!("  epochs   : {}", rows.len());
    for (index, e) in rows.iter().enumerate().take(6) {
        println!(
            "    epoch {:>2}: {:>3} jobs  [{:>10.0}, {:>10.0})",
            index,
            e.jobs,
            e.start.to_f64(),
            e.end.to_f64()
        );
    }
    if rows.len() > 6 {
        println!("    … {} more epochs", rows.len() - 6);
    }
    println!("  makespan : {}", out.makespan);
    println!("  clairvoyant lower bound: {lb}");
    println!(
        "  online/offline-bound ratio: {:.3}",
        out.makespan.to_f64() / lb.to_f64()
    );
}
