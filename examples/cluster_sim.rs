//! Execute a planned schedule on the discrete-event cluster simulator.
//!
//! The paper's algorithms emit *plans* (start time + processor count per
//! job). This example runs such a plan on `moldable-sim`'s simulated
//! cluster — concrete processors, explicit acquire/release, recorded as
//! a `Placement` — and reports what an operator would see: utilization,
//! per-job response, and the demand profile over time. It also
//! cross-checks that the analytic validator and the simulator agree.
//!
//! Run with: `cargo run --release --example cluster_sim`

use moldable::prelude::*;
use moldable::sim::metrics::{demand_profile, peak_demand};
use moldable::sim::{execute, ClusterMetrics};
use moldable::workloads::{hpc_mix_instance, HpcMixParams};

use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let m: Procs = 64;
    let n = 48;
    let mut rng = SmallRng::seed_from_u64(0xC1_05_7E_12);
    // Narrow the sequential-time spread (one octave of heavy tail instead
    // of sixteen) so the Gantt picture has visible parallel structure.
    let params = HpcMixParams {
        t1_lo: 1 << 16,
        t1_hi: 1 << 20,
        ..HpcMixParams::default()
    };
    let inst = hpc_mix_instance(&mut rng, n, m, &params);

    println!("HPC mix: n = {n} jobs on m = {m} processors");
    println!(
        "sequential times span [{}, {}]\n",
        inst.jobs().iter().map(|j| j.seq_time()).min().unwrap(),
        inst.jobs().iter().map(|j| j.seq_time()).max().unwrap(),
    );

    let eps = Ratio::new(1, 10);
    let algo = ImprovedDual::new_linear(eps);
    let res = approximate(&inst, &algo, &eps);
    validate(&res.schedule, &inst).expect("planner output must be feasible");

    let ex = execute(&inst, &res.schedule).expect("feasible plans must execute");
    assert_eq!(
        ex.makespan,
        res.schedule.makespan(&inst),
        "simulator and analytic makespan must agree"
    );
    ex.placement
        .validate(m)
        .expect("no processor may run two jobs at once");

    let metrics = ClusterMetrics::from_placement(&ex.placement, m);
    println!("simulated execution of the (3/2+ε) linear-time plan:");
    println!("  makespan        : {}", metrics.makespan);
    println!(
        "  utilization     : {:.1} %",
        metrics.utilization.to_f64() * 100.0
    );
    println!(
        "  mean completion : {:.1}",
        metrics.mean_completion.to_f64()
    );
    println!(
        "  work conserved  : {}",
        metrics.work_conserved(&inst, &res.schedule)
    );

    // Demand profile: how many processors are busy over time.
    println!("\ndemand profile (time → busy processors):");
    let profile = demand_profile(&ex.placement);
    let peak = peak_demand(&ex.placement);
    for (t, u) in profile.iter().take(12) {
        let bar_len = (*u as f64 / m as f64 * 48.0).round() as usize;
        println!(
            "  {:>10.1} {:>6}/{m} {}",
            t.to_f64(),
            u,
            "#".repeat(bar_len)
        );
    }
    if profile.len() > 12 {
        println!("  … {} more steps", profile.len() - 12);
    }
    println!("peak demand: {peak}/{m} processors");

    // The busiest processor's timeline: every row holding processor 0.
    let mut runs: Vec<_> = ex
        .placement
        .jobs
        .iter()
        .filter(|p| p.procs.contains(0))
        .collect();
    runs.sort_by_key(|p| p.start);
    println!("\nprocessor 0 ran {} job segment(s):", runs.len());
    for p in runs.iter().take(8) {
        println!(
            "  job {:>3}: [{:.1}, {:.1})",
            p.job,
            p.start.to_f64(),
            p.end.to_f64()
        );
    }
}
