//! Cross-check the discrete-event simulator against the analytic validator:
//! every schedule any algorithm emits must execute on the simulated
//! cluster with the same makespan, with per-processor disjointness, and
//! with work conservation — onto the processor ids of its contiguous
//! lowering.

use moldable::core::view::JobView;
use moldable::prelude::*;
use moldable::sched::place_contiguous;
use moldable::sim::metrics::peak_demand;
use moldable::sim::{execute, online_list_schedule, ClusterMetrics};
use moldable::workloads::{adversarial_instance, hpc_mix_instance, HpcMixParams};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn all_algos(eps: Ratio) -> Vec<Box<dyn DualAlgorithm>> {
    vec![
        Box::new(MrtDual),
        Box::new(CompressibleDual::new(eps)),
        Box::new(ImprovedDual::new(eps)),
        Box::new(ImprovedDual::new_linear(eps)),
    ]
}

#[test]
fn every_algorithm_output_executes() {
    let eps = Ratio::new(1, 4);
    for family in BenchFamily::all() {
        for (n, m) in [(10usize, 8u64), (24, 64), (40, 512)] {
            let inst = bench_instance(family, n, m, 0x510);
            for algo in all_algos(eps) {
                let res = approximate(&inst, algo.as_ref(), &eps);
                validate(&res.schedule, &inst).unwrap();
                let ex = execute(&inst, &res.schedule).unwrap_or_else(|e| {
                    panic!("{} on {}/{n}/{m}: {e}", algo.name(), family.name())
                });
                assert_eq!(
                    ex.makespan,
                    res.schedule.makespan(&inst),
                    "{} on {}: simulator disagrees with analytic makespan",
                    algo.name(),
                    family.name()
                );
                ex.placement
                    .validate(m)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", algo.name(), family.name()));
                assert_eq!(ex.placement.jobs.len(), n);
                assert_eq!(
                    ex.placement,
                    place_contiguous(&JobView::build(&inst), &res.schedule).unwrap(),
                    "{} on {}: executor and lowering hand out different ids",
                    algo.name(),
                    family.name()
                );
                assert!(peak_demand(&ex.placement) <= m);
                let metrics = ClusterMetrics::from_placement(&ex.placement, m);
                assert!(metrics.work_conserved(&inst, &res.schedule));
            }
        }
    }
}

#[test]
fn adversarial_thresholds_execute() {
    let eps = Ratio::new(1, 8);
    for d in [16u64, 64, 256] {
        let inst = adversarial_instance(18, 32, d);
        for algo in all_algos(eps) {
            let res = approximate(&inst, algo.as_ref(), &eps);
            validate(&res.schedule, &inst).unwrap();
            let ex = execute(&inst, &res.schedule).unwrap();
            assert!(ex.placement.validate(inst.m()).is_ok());
        }
    }
}

#[test]
fn online_executor_matches_analytic_list_scheduler() {
    // The online simulator and moldable-sched's analytic list scheduler
    // implement the same FIFO discipline; their makespans must coincide.
    let mut rng = SmallRng::seed_from_u64(0x5EED_071E);
    for trial in 0..10 {
        let n = 12 + trial;
        let m = 16u64;
        let inst = hpc_mix_instance(&mut rng, n, m, &HpcMixParams::default());
        let est = moldable::sched::estimate(&inst);
        let order: Vec<u32> = (0..n as u32).collect();
        let analytic = moldable::sched::list_scheduling::list_schedule(
            &moldable::core::view::JobView::build(&inst),
            &est.allotment,
            &order,
        );
        let sim = online_list_schedule(&inst, &est.allotment, &order).unwrap();
        assert_eq!(
            sim.makespan,
            analytic.makespan(&inst),
            "trial {trial}: online simulator diverges from analytic list scheduler"
        );
        validate(&sim.schedule, &inst).unwrap();
        assert_eq!(sim.placement.jobs.len(), n);
        assert!(sim.placement.validate(m).is_ok());
    }
}

#[test]
fn utilization_bounded_and_positive() {
    let inst = bench_instance(BenchFamily::Mixed, 30, 64, 3);
    let eps = Ratio::new(1, 4);
    let res = approximate(&inst, &ImprovedDual::new_linear(eps), &eps);
    let ex = execute(&inst, &res.schedule).unwrap();
    let metrics = ClusterMetrics::from_placement(&ex.placement, 64);
    assert!(metrics.utilization > Ratio::zero());
    assert!(metrics.utilization <= Ratio::one());
    assert_eq!(metrics.jobs.len(), 30);
}
