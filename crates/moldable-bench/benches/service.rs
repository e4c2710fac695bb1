//! The service request hot path, stage by stage and end to end:
//! body parse (tree and typed) → [`JobView`] build → solve →
//! serialize, plus the full [`App::respond`] router — everything
//! `POST /v1/solve` does except the socket I/O. The `respond` row runs
//! with the response cache disabled (the full compute path);
//! `respond-hit` is the same request against a warm exact-bytes memo,
//! so the pair pins both sides of the hit/miss split.
//!
//! These are the request-latency benches the CI perf-regression gate
//! tracks (`ci/bench_gate.py` against `benches/baseline.json`): the
//! small shape (n = 16, m = 256) is the loadgen smoke workload, the
//! larger one (n = 1024, m = 2²⁰) is the compact-encoding regime the
//! paper targets — a few integers per curve over a million machines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use moldable_core::io::InstanceSpec;
use moldable_core::ratio::Ratio;
use moldable_core::view::JobView;
use moldable_sched::solver::solver_by_name;
use moldable_svc::http::Request;
use moldable_svc::{App, AppConfig};
use moldable_workloads::{bench_instance, BenchFamily};
use serde::Deserialize;
use serde_json::{json, Value};
use std::time::Duration;

/// A `/v1/solve` body for a generated mixed-family instance.
fn solve_body(n: usize, m: u64) -> String {
    let inst = bench_instance(BenchFamily::Mixed, n, m, 7);
    let spec = InstanceSpec::from_instance(&inst).expect("generated curves are serializable");
    serde_json::to_string(&json!({
        "instance": serde_json::to_value(&spec),
        "algo": "linear",
        "eps": "1/4",
    }))
    .expect("shim serialization is infallible")
}

fn bench_service(c: &mut Criterion) {
    let mut group = c.benchmark_group("service");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));

    // `respond` measures the full compute path; the cached app serves
    // `respond-hit` from the exact-bytes memo.
    let app = App::new(AppConfig {
        cache_entries: 0,
        ..AppConfig::default()
    });
    let cached_app = App::new(AppConfig::default());
    let eps = Ratio::new(1, 4);
    let solver = solver_by_name("linear", &eps).expect("registry has linear");

    // Free one large mapped block first. glibc raises its mmap and trim
    // thresholds (here to 16 and 32 MiB) only after such a free; below
    // them it can hand the ~2 MB a 1024-job `JobView::build` allocates
    // back to the OS after every call, and the row then times the page
    // faults that fetch it back, by an amount that depends on what the
    // earlier rows happened to free. A long-running service sits in the
    // raised state.
    drop(std::hint::black_box(vec![1u8; 16 << 20]));
    for (n, m) in [(16usize, 256u64), (1024, 1 << 20)] {
        let body = solve_body(n, m);
        let request = Request {
            method: "POST".to_string(),
            path: "/v1/solve".to_string(),
            body: body.clone().into_bytes(),
            keep_alive: true,
        };

        // Stage 1: body text → Value → InstanceSpec → Instance.
        group.bench_with_input(BenchmarkId::new("parse", n), &body, |b, body| {
            b.iter(|| {
                let v: Value = serde_json::from_str(body).expect("body is valid JSON");
                let spec = InstanceSpec::from_value(v.get("instance").expect("instance key"))
                    .expect("spec deserializes");
                spec.build().expect("spec builds")
            })
        });

        // Stage 1 as the service runs it: one typed pass from the body
        // bytes into the curves, no JSON node per number. The row keeps
        // its old name; CI bars it against `parse` of the same body, so
        // a typed pass that quietly hands bodies to the tree fails.
        group.bench_with_input(BenchmarkId::new("parse-zerocopy", n), &body, |b, body| {
            b.iter(|| {
                moldable_svc::wire::parse_solve_body(body.as_bytes(), &eps)
                    .expect("body is valid")
            })
        });

        let v: Value = serde_json::from_str(&body).expect("body is valid JSON");
        let inst = InstanceSpec::from_value(v.get("instance").expect("instance key"))
            .expect("spec deserializes")
            .build()
            .expect("spec builds");

        // Stage 2: the per-request JobView snapshot.
        group.bench_with_input(BenchmarkId::new("view-build", n), &inst, |b, inst| {
            b.iter(|| JobView::build(inst))
        });

        // Stage 3: the solve itself on a prebuilt view.
        let view = JobView::build(&inst);
        group.bench_with_input(BenchmarkId::new("solve", n), &view, |b, view| {
            b.iter(|| solver.solve(view, view.m()))
        });

        // Stage 4: response serialization — through the same shared
        // row serializer the service and CLI use.
        let outcome = solver.solve(&view, view.m());
        group.bench_with_input(BenchmarkId::new("serialize", n), &outcome, |b, outcome| {
            b.iter(|| {
                serde_json::to_string(&json!({
                    "makespan": outcome.makespan.to_f64(),
                    "assignments": moldable_svc::app::assignment_rows(&inst, &outcome.schedule),
                }))
                .expect("shim serialization is infallible")
            })
        });

        // End to end, cache miss: everything the worker thread does per
        // request when it must compute.
        group.bench_with_input(BenchmarkId::new("respond", n), &request, |b, request| {
            b.iter(|| {
                let resp = app.respond(request);
                assert_eq!(resp.status, 200);
                resp
            })
        });

        // End to end, cache hit: the byte-identical request against a
        // warm memo — hash the body + serve the memoized bytes, no parse.
        let warm = cached_app.respond(&request);
        assert_eq!(warm.status, 200);
        group.bench_with_input(
            BenchmarkId::new("respond-hit", n),
            &request,
            |b, request| {
                b.iter(|| {
                    let resp = cached_app.respond(request);
                    assert_eq!(resp.status, 200);
                    resp
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_service);
criterion_main!(benches);
