//! The `JobView` hot-path benchmark: `transform` and `assemble` (heap
//! and bucketed modes) on a 10⁵-job synthetic family (Amdahl staircases,
//! the compact encoding the paper targets), served by a materialized
//! [`JobView`], plus the one-off cost of building that view. The shim
//! reports min/median/p95 per line; compare medians.
//!
//! Outside the timed region the view is asserted to produce the same
//! three-shelf skeletons as [`JobView::passthrough`], which answers every
//! `t_j(p)`/`γ_j(t)` query through the speedup-curve oracle like the
//! pre-memoization code path — the memoization is not allowed to change
//! a single placement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use moldable_core::ratio::Ratio;
use moldable_core::types::JobId;
use moldable_core::view::JobView;
use moldable_sched::assemble::assemble;
use moldable_sched::estimator::estimate_view;
use moldable_sched::shelves::ShelfContext;
use moldable_sched::transform::{transform, ShelfJob, ThreeShelf, TransformMode};
use moldable_workloads::{bench_instance, BenchFamily};
use std::time::Duration;

const N: usize = 100_000;
const M: u64 = 1 << 20;

/// The two-shelf input the MRT/improved algorithms hand to `transform`:
/// forced jobs in S1 at γ(d), knapsack jobs in S2 at γ(d/2).
fn shelf_inputs(
    view: &JobView,
    ctx: &ShelfContext,
    d: &Ratio,
) -> (Vec<ShelfJob>, Vec<ShelfJob>) {
    let half = d.div_int(2);
    let s1: Vec<ShelfJob> = ctx
        .forced
        .iter()
        .map(|&(id, p)| ShelfJob {
            id,
            procs: p,
            time: view.time(id, p),
        })
        .collect();
    let s2: Vec<ShelfJob> = ctx
        .knapsack_jobs
        .iter()
        .map(|bj| {
            let p = view.gamma(bj.id, &half).expect("knapsack jobs reach d/2");
            ShelfJob {
                id: bj.id,
                procs: p,
                time: view.time(bj.id, p),
            }
        })
        .collect();
    (s1, s2)
}

fn same_skeleton(a: &ThreeShelf, b: &ThreeShelf) -> bool {
    a.horizon == b.horizon
        && a.s0.len() == b.s0.len()
        && a.s1.len() == b.s1.len()
        && a.s2.len() == b.s2.len()
        && a.p0() == b.p0()
        && a.p1() == b.p1()
        && a.p2() == b.p2()
}

fn bench_jobview(c: &mut Criterion) {
    let inst = bench_instance(BenchFamily::Amdahl, N, M, 7);
    let view = JobView::build(&inst);
    let oracle = JobView::passthrough(&inst);
    let d_int = 2 * estimate_view(&view).omega;
    let d = Ratio::from(d_int);
    let ctx = ShelfContext::build(&view, d_int).expect("d = 2ω is feasible");
    let (s1, s2) = shelf_inputs(&view, &ctx, &d);
    let chosen: Vec<JobId> = ctx.forced.iter().map(|&(id, _)| id).collect();
    let stretch = Ratio::new(21, 20); // a representative 1+4ρ
    let modes: [(&str, TransformMode); 2] = [
        ("heap", TransformMode::Exact),
        ("bucketed", TransformMode::Bucketed { stretch }),
    ];

    // Equivalence outside the timed region: the memoized view must not
    // change a single transform decision.
    for (_, mode) in &modes {
        let a = transform(&view, &d, s1.clone(), s2.clone(), mode.clone());
        let b = transform(&oracle, &d, s1.clone(), s2.clone(), mode.clone());
        assert!(same_skeleton(&a, &b), "view and oracle paths diverged");
    }

    let mut group = c.benchmark_group("jobview_transform");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for (mode_name, mode) in &modes {
        group.bench_function(BenchmarkId::new(*mode_name, format!("view_n{N}")), |b| {
            b.iter(|| transform(&view, &d, s1.clone(), s2.clone(), mode.clone()))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("jobview_assemble");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for (mode_name, mode) in &modes {
        group.bench_function(BenchmarkId::new(*mode_name, format!("view_n{N}")), |b| {
            b.iter(|| assemble(&view, &d, &chosen, mode.clone()))
        });
    }
    group.finish();

    // The one-off snapshot cost the memoized path pays up front.
    let mut group = c.benchmark_group("jobview_build");
    group.sample_size(10);
    group.bench_function(format!("materialize_n{N}"), |b| {
        b.iter(|| JobView::build(&inst))
    });
    group.finish();
}

criterion_group!(benches, bench_jobview);
criterion_main!(benches);
