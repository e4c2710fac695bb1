//! The compression+convolution solver end to end: `conv-fptas` at
//! n = 10^5 on a narrow machine, where every probe folds its size
//! classes with the (max,+) kernel
//! ([`moldable_sched::convolve::maxplus_staircase`]) and races the
//! result against Algorithm 3's choice. Gated by `ci/bench_gate.py`
//! against `benches/baseline.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use moldable_core::ratio::Ratio;
use moldable_core::view::JobView;
use moldable_sched::solver::solver_by_name;
use moldable_workloads::{bench_instance, BenchFamily};
use std::time::Duration;

fn bench_solver(c: &mut Criterion) {
    // End to end at n = 10^5 on a narrow machine (m < 16n keeps every
    // probe on the convolution path rather than the large-m FPTAS).
    const N: usize = 100_000;
    const M: u64 = 512;
    let inst = bench_instance(BenchFamily::Mixed, N, M, 11);
    let view = JobView::build(&inst);
    let solver = solver_by_name("conv-fptas", &Ratio::new(1, 2)).expect("registry name");
    let mut group = c.benchmark_group("convolve");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    group.bench_function(BenchmarkId::new("solver-conv-fptas", N), |b| {
        b.iter(|| solver.solve(&view, M))
    });
    group.finish();
}

criterion_group!(benches, bench_solver);
criterion_main!(benches);
