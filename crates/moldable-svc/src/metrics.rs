//! Service-side observability: per-endpoint counters, a latency ring
//! buffer for windowed p50/p95/max, and exact service-time totals.
//!
//! Counters and the ring live behind one [`Mutex`] — the critical
//! section is a few stores per request, negligible next to a solve. The
//! exact total service time goes through
//! [`moldable_sim::metrics::RunningSum`], the same drift-bounded
//! accumulator the simulator's fairness reports use, so a service that
//! has handled days of requests still reports an exact (to `2^-48`)
//! cumulative busy time. Percentiles are computed over a sliding window
//! of the last [`LATENCY_WINDOW`] requests (nearest-rank), plus an
//! all-time maximum that never leaves the window.

use moldable_core::ratio::Ratio;
use moldable_sim::metrics::RunningSum;
use serde_json::{json, Value};
use std::sync::Mutex;
use std::time::Duration;

/// Requests kept in the sliding latency window.
pub const LATENCY_WINDOW: usize = 4096;

/// The service's routable endpoints, in display order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/solve`.
    Solve,
    /// `POST /v1/race`.
    Race,
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// Anything that did not route (404/405/parse failures).
    Other,
}

impl Endpoint {
    /// Stable label used as the JSON key.
    pub fn label(&self) -> &'static str {
        match self {
            Endpoint::Solve => "solve",
            Endpoint::Race => "race",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Other => "other",
        }
    }

    const ALL: [Endpoint; 5] = [
        Endpoint::Solve,
        Endpoint::Race,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Other,
    ];

    fn index(&self) -> usize {
        *self as usize
    }
}

#[derive(Default)]
struct Inner {
    /// Requests per endpoint, indexed by [`Endpoint::index`].
    requests: [u64; 5],
    /// Non-2xx responses per endpoint.
    errors: [u64; 5],
    /// Sliding window of recent service times (seconds), ring-indexed.
    window: Vec<f64>,
    /// Next ring slot to overwrite.
    cursor: usize,
    /// All-time maximum service time (seconds).
    max_seconds: f64,
    /// Exact cumulative service time.
    busy: RunningSum,
}

/// Shared, thread-safe request metrics.
#[derive(Default)]
pub struct ServiceMetrics {
    inner: Mutex<Inner>,
}

impl ServiceMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        ServiceMetrics::default()
    }

    /// Record one served request.
    pub fn record(&self, endpoint: Endpoint, status: u16, service_time: Duration) {
        let secs = service_time.as_secs_f64();
        let nanos = service_time.as_nanos();
        let mut inner = self.inner.lock().expect("metrics lock never poisoned");
        inner.requests[endpoint.index()] += 1;
        if !(200..300).contains(&status) {
            inner.errors[endpoint.index()] += 1;
        }
        if inner.window.len() < LATENCY_WINDOW {
            inner.window.push(secs);
        } else {
            let cursor = inner.cursor;
            inner.window[cursor] = secs;
        }
        inner.cursor = (inner.cursor + 1) % LATENCY_WINDOW;
        inner.max_seconds = inner.max_seconds.max(secs);
        inner.busy.push_quotient(nanos, 1_000_000_000);
    }

    /// Total requests recorded across all endpoints.
    pub fn total_requests(&self) -> u64 {
        let inner = self.inner.lock().expect("metrics lock never poisoned");
        inner.requests.iter().sum()
    }

    /// Snapshot as the `GET /metrics` JSON document.
    pub fn snapshot(&self) -> Value {
        let inner = self.inner.lock().expect("metrics lock never poisoned");
        let (requests, errors, max_seconds) = (inner.requests, inner.errors, inner.max_seconds);
        let (busy, pushes) = (inner.busy.value(), inner.busy.count());
        let mut window = inner.window.clone();
        drop(inner);
        window.sort_by(|a, b| a.partial_cmp(b).expect("service times are finite"));
        let total: u64 = requests.iter().sum();
        let total_errors: u64 = errors.iter().sum();
        let mean = if pushes == 0 {
            Ratio::zero()
        } else {
            busy.div_int(pushes as u128)
        };
        json!({
            "requests_total": total,
            "errors_total": total_errors,
            "endpoints": Value::Object(
                Endpoint::ALL
                    .iter()
                    .map(|e| {
                        (
                            e.label().to_string(),
                            json!({
                                "requests": requests[e.index()],
                                "errors": errors[e.index()],
                            }),
                        )
                    })
                    .collect(),
            ),
            "service_time": json!({
                "window": window.len(),
                "p50_seconds": nearest_rank(&window, 50),
                "p95_seconds": nearest_rank(&window, 95),
                "max_seconds": max_seconds,
                "busy_seconds_total": busy.to_f64(),
                "mean_seconds": mean.to_f64(),
            }),
        })
    }
}

/// Nearest-rank percentile over an ascending-sorted slice; 0 when empty.
fn nearest_rank(sorted: &[f64], pct: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() * pct).div_ceil(100)).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_split_by_endpoint_and_status() {
        let m = ServiceMetrics::new();
        m.record(Endpoint::Solve, 200, Duration::from_millis(3));
        m.record(Endpoint::Solve, 400, Duration::from_millis(1));
        m.record(Endpoint::Healthz, 200, Duration::from_micros(10));
        let snap = m.snapshot();
        assert_eq!(snap["requests_total"].as_u64(), Some(3));
        assert_eq!(snap["errors_total"].as_u64(), Some(1));
        assert_eq!(snap["endpoints"]["solve"]["requests"].as_u64(), Some(2));
        assert_eq!(snap["endpoints"]["solve"]["errors"].as_u64(), Some(1));
        assert_eq!(snap["endpoints"]["healthz"]["requests"].as_u64(), Some(1));
        assert_eq!(snap["endpoints"]["race"]["requests"].as_u64(), Some(0));
        assert_eq!(m.total_requests(), 3);
    }

    #[test]
    fn percentiles_come_from_the_window() {
        let m = ServiceMetrics::new();
        // 100 latencies: 1ms … 100ms.
        for i in 1..=100u64 {
            m.record(Endpoint::Solve, 200, Duration::from_millis(i));
        }
        let snap = m.snapshot();
        let p50 = snap["service_time"]["p50_seconds"].as_f64().unwrap();
        let p95 = snap["service_time"]["p95_seconds"].as_f64().unwrap();
        let max = snap["service_time"]["max_seconds"].as_f64().unwrap();
        assert!((p50 - 0.050).abs() < 1e-9, "p50 = {p50}");
        assert!((p95 - 0.095).abs() < 1e-9, "p95 = {p95}");
        assert!((max - 0.100).abs() < 1e-9, "max = {max}");
        // The exact busy total: Σ 1..=100 ms = 5.05 s (every term dyadic-
        // rounded at 2^-48, so the f64 readout is exact to ~1e-14).
        let busy = snap["service_time"]["busy_seconds_total"].as_f64().unwrap();
        assert!((busy - 5.05).abs() < 1e-9, "busy = {busy}");
    }

    #[test]
    fn ring_overwrites_but_alltime_max_survives() {
        let m = ServiceMetrics::new();
        m.record(Endpoint::Race, 200, Duration::from_secs(9));
        for _ in 0..LATENCY_WINDOW {
            m.record(Endpoint::Race, 200, Duration::from_millis(1));
        }
        let snap = m.snapshot();
        // The 9s outlier has been pushed out of the window…
        let p95 = snap["service_time"]["p95_seconds"].as_f64().unwrap();
        assert!(p95 < 0.01, "p95 = {p95}");
        // …but the all-time max still reports it.
        let max = snap["service_time"]["max_seconds"].as_f64().unwrap();
        assert!((max - 9.0).abs() < 1e-9, "max = {max}");
        assert_eq!(
            snap["service_time"]["window"].as_u64(),
            Some(LATENCY_WINDOW as u64)
        );
    }

    #[test]
    fn empty_metrics_snapshot_is_well_formed() {
        let snap = ServiceMetrics::new().snapshot();
        assert_eq!(snap["requests_total"].as_u64(), Some(0));
        assert_eq!(snap["service_time"]["p50_seconds"].as_f64(), Some(0.0));
    }

    #[test]
    fn snapshot_totals_window_max_and_exact_busy_sum() {
        let m = ServiceMetrics::new();
        for i in 1..=100u64 {
            m.record(Endpoint::Solve, 200, Duration::from_millis(i));
        }
        m.record(Endpoint::Healthz, 500, Duration::from_secs(9));
        let snap = m.snapshot();
        assert_eq!(snap["requests_total"].as_u64(), Some(101));
        assert_eq!(snap["errors_total"].as_u64(), Some(1));
        assert_eq!(snap["endpoints"]["solve"]["requests"].as_u64(), Some(100));
        assert_eq!(snap["endpoints"]["healthz"]["errors"].as_u64(), Some(1));
        assert_eq!(snap["service_time"]["window"].as_u64(), Some(101));
        let max = snap["service_time"]["max_seconds"].as_f64().unwrap();
        assert!((max - 9.0).abs() < 1e-9, "max = {max}");
        // Busy totals add exactly: Σ 1..=100 ms + 9 s = 14.05 s.
        let busy = snap["service_time"]["busy_seconds_total"].as_f64().unwrap();
        assert!((busy - 14.05).abs() < 1e-9, "busy = {busy}");
    }
}
