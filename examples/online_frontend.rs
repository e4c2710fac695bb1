//! An online cluster front-end: jobs arrive over the day; the paper's
//! offline planner runs in epochs (plan the queue, run it, repeat).
//!
//! Demonstrates `moldable_sim::stream` — the classic online-from-offline
//! reduction: a `c`-approximate offline planner yields a `2c`-competitive
//! epoch scheme. We compare the epoch makespan against the clairvoyant
//! lower bound and report the per-epoch batching decisions, folded from
//! the engine's per-job observations.
//!
//! Run with: `cargo run --release --example online_frontend`

use moldable::prelude::*;
use moldable::sched::solver::DualSolver;
use moldable::sim::{
    clairvoyant_lower_bound, run_stream, EpochTable, StreamJob, StreamOptions,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let m: Procs = 32;
    let mut rng = SmallRng::seed_from_u64(0x0821);

    // A bursty arrival stream: three waves (morning, noon, evening) of
    // moldable jobs with mixed parallelizability.
    let mut stream: Vec<StreamJob> = Vec::new();
    for wave_start in [0u64, 40_000, 90_000] {
        for _ in 0..12 {
            let arrival = wave_start + rng.gen_range(0..8_000u64);
            let t1 = rng.gen_range(4_000..40_000u64);
            let curve = if rng.gen_bool(0.3) {
                SpeedupCurve::Constant(t1 / 4)
            } else {
                SpeedupCurve::ideal_with_overhead(t1, 2, m)
            };
            stream.push(StreamJob::untagged(curve, arrival));
        }
    }
    stream.sort_by_key(|a| a.arrival);

    let eps = Ratio::new(1, 8);
    let planner = ImprovedDual::new_linear(eps);
    let lb = clairvoyant_lower_bound(&stream, m);
    // No batch cap: every re-plan takes the whole queue (the epoch scheme).
    let mut epochs = EpochTable::new();
    let out = run_stream(
        stream,
        m,
        &DualSolver::new(planner.clone(), eps),
        &StreamOptions::default(),
        |_, o| epochs.observe(o),
    )
    .expect("stream is sorted");

    println!(
        "online front-end: {} jobs in 3 waves on m = {m} processors\n",
        out.jobs
    );
    println!(
        "{:>6} {:>7} {:>12} {:>12} {:>10}",
        "epoch", "jobs", "start", "end", "length"
    );
    for (index, e) in epochs.rows().iter().enumerate() {
        println!(
            "{:>6} {:>7} {:>12.0} {:>12.0} {:>10.0}",
            index,
            e.jobs,
            e.start.to_f64(),
            e.end.to_f64(),
            e.end.sub(&e.start).to_f64()
        );
    }
    println!(
        "\nepoch-scheme makespan : {:.0}\nclairvoyant lower bnd : {:.0}\ncompetitive ratio ≤   : {:.3}",
        out.makespan.to_f64(),
        lb.to_f64(),
        out.makespan.to_f64() / lb.to_f64()
    );
    println!(
        "(theory: ≤ 2·c(1+ε) ≈ {:.2} for the (3/2+ε) planner; bursty\n\
         streams with idle gaps typically sit far below)",
        2.0 * planner.guarantee().mul(&eps.one_plus()).to_f64()
    );
}
