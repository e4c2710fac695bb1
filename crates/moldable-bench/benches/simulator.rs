//! Criterion benchmarks for the discrete-event simulator: plan execution
//! and online FIFO at increasing job counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use moldable_core::ratio::Ratio;
use moldable_sched::dual::approximate;
use moldable_sched::ImprovedDual;
use moldable_sim::{execute, online_list_schedule};
use moldable_workloads::{bench_instance, BenchFamily};
use std::time::Duration;

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let eps = Ratio::new(1, 4);

    for n in [256usize, 1024, 4096] {
        let inst = bench_instance(BenchFamily::Mixed, n, 256, 5);
        let res = approximate(&inst, &ImprovedDual::new_linear(eps), &eps);
        group.bench_with_input(
            BenchmarkId::new("execute-plan", n),
            &res.schedule,
            |b, s| b.iter(|| execute(&inst, s).unwrap()),
        );

        let est = moldable_sched::estimate(&inst);
        let order: Vec<u32> = (0..n as u32).collect();
        group.bench_with_input(
            BenchmarkId::new("online-fifo", n),
            &est.allotment,
            |b, a| b.iter(|| online_list_schedule(&inst, a, &order).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
