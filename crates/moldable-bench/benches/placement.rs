//! The placement layer under load: the `place_contiguous` lowering pass
//! over a 10⁵-job linear-solver schedule — the cost of turning
//! allotments into concrete processor sets, which `/v1/solve` pays per
//! request when a client asks for `"placements": true` — and the
//! hierarchical lowering of the same scale onto a 64 nodes × 2 sockets
//! × 32 cores topology under each `PlacementPolicy` (the wire-format v3
//! `topology` path).
//!
//! The `locality-hier` row scores the packed placement the v3 wire
//! format reports: `span_blocks` for every row at every level plus the
//! `fragmentation` fold, 6 · 10⁵ locality queries over 4288 blocks.
//!
//! All rows are tracked by the CI perf-regression gate
//! (`ci/bench_gate.py` against `benches/baseline.json`); the gate's
//! `--max-ratio` bars additionally hold every hierarchical lowering row
//! within 2x of the flat `place-flat` median (same schedule, same
//! m = 4096 machine) from the same run, and the locality row below 1x
//! of it — a per-block scan (~9 · 10⁸ set tests) cannot pass that bar.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use moldable_core::hierarchy::Topology;
use moldable_core::ratio::Ratio;
use moldable_core::view::JobView;
use moldable_sched::place::{place_contiguous, place_with};
use moldable_sched::policy::PlacementPolicy;
use moldable_sched::solver::solver_by_name;
use moldable_workloads::{bench_instance, BenchFamily};

fn bench_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement");
    group.sample_size(10);

    let n = 100_000usize;
    let m = 256u64;

    // Lowering a real 10⁵-job schedule: solve once outside the timer,
    // re-run only the assignments → processor-sets pass inside it.
    let inst = bench_instance(BenchFamily::Mixed, n, m, 7);
    let view = JobView::build(&inst);
    let solver = solver_by_name("linear", &Ratio::new(1, 4)).expect("registry has linear");
    let outcome = solver.solve(&view, view.m());
    group.bench_function(BenchmarkId::new("place-contiguous", n), |b| {
        b.iter(|| {
            let placement = place_contiguous(&view, &outcome.schedule)
                .expect("schedule is demand-feasible");
            assert_eq!(placement.jobs.len(), n);
            placement
        })
    });

    // Hierarchical lowering at the same job scale, on a realistic
    // 64 × 2 × 32 machine (m = 4096): the same schedule walked through
    // `place_with` under each policy. One solve outside the timer; the
    // timed region is exactly the lowering pass the v3 wire format pays.
    let topology = Topology::uniform(&[64, 2, 32]).expect("64*2*32 = 4096 fits u64");
    let hier_inst = bench_instance(BenchFamily::Mixed, n, topology.m(), 7);
    let hier_view = JobView::build(&hier_inst);
    let hier_outcome = solver.solve(&hier_view, hier_view.m());
    // Flat lowering of the same schedule on the same m = 4096 machine —
    // the like-for-like base the gate's `--max-ratio` bars hold the
    // hierarchical rows against (the m = 256 row above keeps its own
    // absolute baseline but isn't a fair denominator at 16× the park).
    group.bench_function(BenchmarkId::new("place-flat", n), |b| {
        b.iter(|| {
            let placement = place_contiguous(&hier_view, &hier_outcome.schedule)
                .expect("schedule is demand-feasible");
            assert_eq!(placement.jobs.len(), n);
            placement
        })
    });
    let policies = [
        ("place-hier-contiguous", PlacementPolicy::Contiguous),
        ("place-hier-packed", PlacementPolicy::Packed { level: 0 }),
        ("place-hier-spread", PlacementPolicy::Spread { level: 0 }),
    ];
    for (label, policy) in policies {
        group.bench_function(BenchmarkId::new(label, n), |b| {
            b.iter(|| {
                let placement =
                    place_with(&hier_view, &hier_outcome.schedule, &topology, &policy)
                        .expect("schedule is demand-feasible");
                assert_eq!(placement.jobs.len(), n);
                placement
            })
        });
    }

    let packed = place_with(
        &hier_view,
        &hier_outcome.schedule,
        &topology,
        &PlacementPolicy::Packed { level: 0 },
    )
    .expect("schedule is demand-feasible");
    group.bench_function(BenchmarkId::new("locality-hier", n), |b| {
        b.iter(|| {
            let mut spans = 0u64;
            for p in &packed.jobs {
                for level in 0..topology.levels().len() {
                    spans += topology.span_blocks(level, &p.procs);
                }
            }
            let report = topology.fragmentation(&packed);
            assert_eq!(
                spans,
                report.levels.iter().map(|l| l.total_spans).sum::<u64>()
            );
            report
        })
    });

    group.finish();
}

criterion_group!(benches, bench_placement);
criterion_main!(benches);
