//! Closed-loop load generator for the scheduling service.
//!
//! `N` client threads each hold one keep-alive connection and fire
//! requests back to back (closed loop: the next request leaves when the
//! previous response lands), replaying a shared set of request bodies
//! round-robin with a per-thread offset. Per-request latencies are
//! collected locally (no cross-thread contention inside the loop) and
//! merged into a [`LoadReport`] with throughput and nearest-rank
//! percentiles — the end-to-end "fast as the hardware allows" witness
//! the CI smoke asserts on.

use crate::http::{read_response, write_request, HttpError};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Load-generator knobs.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Concurrent client threads (each with its own connection).
    pub threads: usize,
    /// How long to keep firing.
    pub duration: Duration,
    /// Request path (the bodies must match what the path expects).
    pub path: String,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            threads: 4,
            duration: Duration::from_secs(5),
            path: "/v1/solve".to_string(),
        }
    }
}

/// What a burst measured.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Completed requests that returned `2xx`.
    pub ok: u64,
    /// Requests that failed (non-`2xx` status, transport error, or a
    /// reconnect that did not succeed).
    pub errors: u64,
    /// Wall-clock of the whole burst.
    pub elapsed: Duration,
    /// Client threads used.
    pub threads: usize,
    /// `ok / elapsed` in requests per second.
    pub throughput: f64,
    /// Nearest-rank latency percentiles over all successful requests.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Slowest successful request.
    pub max: Duration,
}

/// One client thread's closed loop.
fn client_loop(
    addr: SocketAddr,
    path: &str,
    bodies: &[String],
    offset: usize,
    deadline: Instant,
) -> (Vec<Duration>, u64) {
    let mut latencies = Vec::new();
    let mut errors = 0u64;
    let mut conn: Option<(BufWriter<TcpStream>, BufReader<TcpStream>)> = None;
    let mut i = offset;
    while Instant::now() < deadline {
        if conn.is_none() {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                    let reader = match stream.try_clone() {
                        Ok(s) => BufReader::new(s),
                        Err(_) => {
                            errors += 1;
                            continue;
                        }
                    };
                    conn = Some((BufWriter::new(stream), reader));
                }
                Err(_) => {
                    errors += 1;
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            }
        }
        let (writer, reader) = conn.as_mut().expect("connection just established");
        let body = bodies[i % bodies.len()].as_bytes();
        i += 1;
        let t0 = Instant::now();
        let outcome: Result<u16, HttpError> = write_request(writer, "POST", path, body)
            .map_err(HttpError::Io)
            .and_then(|()| read_response(reader).map(|r| r.status));
        match outcome {
            Ok(status) if (200..300).contains(&status) => latencies.push(t0.elapsed()),
            Ok(_) => errors += 1,
            Err(_) => {
                // Transport hiccup: drop the connection and redial.
                errors += 1;
                conn = None;
            }
        }
    }
    (latencies, errors)
}

/// Run a closed-loop burst of `config.duration` against `addr`,
/// replaying `bodies` round-robin. Panics if `bodies` is empty.
pub fn run(addr: SocketAddr, bodies: &[String], config: &LoadgenConfig) -> LoadReport {
    assert!(
        !bodies.is_empty(),
        "loadgen needs at least one request body"
    );
    let threads = config.threads.max(1);
    let started = Instant::now();
    let deadline = started + config.duration;
    let results: Vec<(Vec<Duration>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let path = config.path.as_str();
                scope.spawn(move || client_loop(addr, path, bodies, t, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let mut latencies: Vec<Duration> = Vec::new();
    let mut errors = 0u64;
    for (lat, err) in results {
        latencies.extend(lat);
        errors += err;
    }
    latencies.sort();
    let ok = latencies.len() as u64;
    let pct = |p: usize| -> Duration {
        if latencies.is_empty() {
            return Duration::ZERO;
        }
        let rank = ((latencies.len() * p).div_ceil(100)).clamp(1, latencies.len());
        latencies[rank - 1]
    };
    LoadReport {
        ok,
        errors,
        elapsed,
        threads,
        throughput: ok as f64 / elapsed.as_secs_f64().max(f64::EPSILON),
        p50: pct(50),
        p95: pct(95),
        p99: pct(99),
        max: latencies.last().copied().unwrap_or(Duration::ZERO),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};

    #[test]
    fn short_burst_against_a_live_server() {
        let server = Server::bind(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let body = r#"{"instance": {"m": 16, "jobs": [{"constant": 5}, {"table": [9, 6, 4]}, {"staircase": [[1, 12], [4, 10]]}]}, "algo": "linear"}"#;
        let report = run(
            server.local_addr(),
            &[body.to_string()],
            &LoadgenConfig {
                threads: 2,
                duration: Duration::from_millis(300),
                ..LoadgenConfig::default()
            },
        );
        assert!(report.ok > 0, "no successful requests");
        assert_eq!(report.errors, 0, "errors during a clean burst");
        assert!(report.throughput > 0.0);
        assert!(report.p50 <= report.p95 && report.p95 <= report.max);
        assert_eq!(server.app().metrics().total_requests(), report.ok);
        server.shutdown();
    }

    #[test]
    #[should_panic(expected = "at least one request body")]
    fn empty_body_set_is_rejected() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        run(addr, &[], &LoadgenConfig::default());
    }
}
