//! The TCP front end: a fixed pool of worker threads accepting from one
//! shared listener and driving [`App::respond`] per connection.
//!
//! **Threading model.** `TcpListener::accept` takes `&self`, so all
//! workers block on the *same* listener (the kernel queues connections
//! and wakes one worker per accept) — no dispatcher thread, no unbounded
//! thread spawning, and backpressure is the listener backlog itself.
//! Each worker owns one connection at a time and serves HTTP/1.1
//! keep-alive requests back to back, so a closed-loop client keeps one
//! worker's cache warm. Per-request work (JSON parse → [`JobView`] build
//! → solve → serialize) happens on the worker; the workers share one
//! [`App`], whose only mutable state is its metrics, its response memo
//! and its admission ledger.
//!
//! **Limits.** Bodies beyond [`AppConfig::max_body`] are rejected with
//! `413` before buffering; an idle connection times out after
//! [`ServerConfig::idle_timeout`]; malformed framing answers `400` and
//! closes. Shutdown is cooperative: [`Server::shutdown`] flips a flag,
//! unblocks accept-parked workers with throwaway connections, shuts
//! down every registered in-flight connection socket (so a worker
//! parked in a keep-alive read returns immediately instead of waiting
//! out the idle timeout), then joins.
//!
//! [`JobView`]: moldable_core::view::JobView

use crate::app::{App, AppConfig};
use crate::http::{HttpError, RequestReader, Response};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Live-connection registry: lets [`Server::shutdown`] interrupt reads
/// blocked on idle keep-alive peers.
#[derive(Default)]
struct ConnRegistry {
    /// Connection id → a cloned handle of its socket.
    inner: Mutex<(u64, HashMap<u64, TcpStream>)>,
}

impl ConnRegistry {
    /// Track a connection; returns its id (`None` if the clone failed —
    /// the connection still works, it just cannot be interrupted).
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let mut inner = self.inner.lock().expect("registry lock never poisoned");
        inner.0 += 1;
        let id = inner.0;
        inner.1.insert(id, clone);
        Some(id)
    }

    fn unregister(&self, id: Option<u64>) {
        if let Some(id) = id {
            let mut inner = self.inner.lock().expect("registry lock never poisoned");
            inner.1.remove(&id);
        }
    }

    /// Shut down every registered socket (both directions), forcing any
    /// blocked read to return.
    fn shutdown_all(&self) {
        let inner = self.inner.lock().expect("registry lock never poisoned");
        for stream in inner.1.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// Listener + worker-pool configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Accept-pool size (clamped to ≥ 1).
    pub workers: usize,
    /// Drop a keep-alive connection after this long without a request.
    pub idle_timeout: Duration,
    /// Application limits and defaults.
    pub app: AppConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            idle_timeout: Duration::from_secs(30),
            app: AppConfig::default(),
        }
    }
}

/// A running service: the bound listener, its worker pool, and the
/// shared [`App`].
pub struct Server {
    app: Arc<App>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<ConnRegistry>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `config.addr` and spawn the worker pool. Returns once the
    /// listener is live — requests can be sent immediately.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(ConnRegistry::default());
        let listener = Arc::new(listener);
        let app = Arc::new(App::new(config.app));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let listener = Arc::clone(&listener);
                let app = Arc::clone(&app);
                let stop = Arc::clone(&stop);
                let conns = Arc::clone(&conns);
                let idle = config.idle_timeout;
                std::thread::Builder::new()
                    .name(format!("moldable-svc-{i}"))
                    .spawn(move || worker_loop(&listener, &app, &stop, &conns, idle))
                    .expect("spawning a worker thread")
            })
            .collect();
        Ok(Server {
            app,
            local_addr,
            stop,
            conns,
            workers,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared application state (metrics live here).
    pub fn app(&self) -> &Arc<App> {
        &self.app
    }

    /// Stop accepting, unblock every worker — both those parked in
    /// `accept()` and those mid-read on idle keep-alive connections —
    /// and join the pool.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // One throwaway connection per worker unblocks any accept() the
        // flag store raced with; shutting the registered sockets down
        // interrupts workers blocked reading an idle peer.
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect(self.local_addr);
        }
        self.conns.shutdown_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(
    listener: &TcpListener,
    app: &App,
    stop: &AtomicBool,
    conns: &ConnRegistry,
    idle: Duration,
) {
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                // Persistent accept errors (e.g. fd exhaustion) must not
                // busy-spin the pool; back off briefly and retry.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let id = conns.register(&stream);
        serve_connection(stream, app, stop, idle);
        conns.unregister(id);
    }
}

/// Serve keep-alive requests on one connection until the peer closes,
/// opts out, errors, idles past the timeout, or the server stops.
fn serve_connection(stream: TcpStream, app: &App, stop: &AtomicBool, idle: Duration) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(idle));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    let max_body = app.config().max_body;
    // One parser per connection: its head/body buffers are reused across
    // every keep-alive request, so the steady-state read path allocates
    // nothing.
    let mut parser = RequestReader::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match parser.read(&mut reader, max_body) {
            Ok(request) => {
                let response = app.respond_parts(request.method, request.path, request.body);
                let keep = request.keep_alive && !stop.load(Ordering::SeqCst);
                if response.write_to(&mut writer, keep).is_err() || !keep {
                    return;
                }
            }
            Err(HttpError::Closed) => return,
            Err(HttpError::BodyTooLarge { declared, limit }) => {
                // The body was never buffered; refuse and drop the
                // connection (the unread bytes make it unusable).
                let msg =
                    format!("request body of {declared} bytes exceeds the {limit}-byte limit");
                let _ = Response::error(crate::wire::ErrorKind::PayloadTooLarge, &msg)
                    .write_to(&mut writer, false);
                return;
            }
            Err(HttpError::Malformed(what)) => {
                let _ = Response::error(
                    crate::wire::ErrorKind::BadRequest,
                    &format!("malformed HTTP: {what}"),
                )
                .write_to(&mut writer, false);
                return;
            }
            Err(HttpError::Io(_)) => return, // idle timeout or reset
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_response, write_request};
    use serde_json::Value;
    use std::io::BufReader;

    fn tiny_server(workers: usize) -> Server {
        Server::bind(ServerConfig {
            workers,
            idle_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        })
        .expect("binding an ephemeral port")
    }

    fn roundtrip(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Response {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        write_request(&mut writer, method, path, body).unwrap();
        read_response(&mut reader).unwrap()
    }

    const BODY: &str = r#"{"instance": {"m": 8, "jobs": [{"constant": 4}, {"table": [9, 5, 4]}]}, "algo": "linear"}"#;

    #[test]
    fn serves_healthz_and_solve_over_tcp() {
        let server = tiny_server(2);
        let addr = server.local_addr();
        let health = roundtrip(addr, "GET", "/healthz", b"");
        assert_eq!(health.status, 200);
        let solve = roundtrip(addr, "POST", "/v1/solve", BODY.as_bytes());
        assert_eq!(
            solve.status,
            200,
            "{}",
            String::from_utf8_lossy(&solve.body)
        );
        let v: Value = serde_json::from_str(std::str::from_utf8(&solve.body).unwrap()).unwrap();
        assert!(v["makespan"].as_f64().unwrap() > 0.0);
        assert_eq!(server.app().metrics().total_requests(), 2);
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let server = tiny_server(1);
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        for _ in 0..5 {
            write_request(&mut writer, "POST", "/v1/solve", BODY.as_bytes()).unwrap();
            let resp = read_response(&mut reader).unwrap();
            assert_eq!(resp.status, 200);
        }
        // Close both halves so the worker sees EOF and returns to accept
        // before shutdown joins it (otherwise it waits out the idle timeout).
        drop(writer);
        drop(reader);
        server.shutdown();
    }

    #[test]
    fn oversized_body_gets_413() {
        let server = Server::bind(ServerConfig {
            workers: 1,
            app: AppConfig {
                max_body: 64,
                ..AppConfig::default()
            },
            ..ServerConfig::default()
        })
        .unwrap();
        let resp = roundtrip(server.local_addr(), "POST", "/v1/solve", &[b'x'; 500]);
        assert_eq!(resp.status, 413);
        server.shutdown();
    }

    #[test]
    fn shutdown_interrupts_an_idle_keep_alive_connection() {
        // A worker parked in read_request on an idle peer must be woken
        // by shutdown(), not left to wait out the (long) idle timeout.
        let server = Server::bind(ServerConfig {
            workers: 1,
            idle_timeout: Duration::from_secs(300),
            ..ServerConfig::default()
        })
        .unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        write_request(&mut writer, "GET", "/healthz", b"").unwrap();
        assert_eq!(read_response(&mut reader).unwrap().status, 200);
        // The connection now sits idle; the single worker is blocked on it.
        let t0 = std::time::Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "shutdown stalled {:?} behind an idle connection",
            t0.elapsed()
        );
    }

    /// An instance without jobs used to panic the solver and take its
    /// worker down; it is a typed 400 on both endpoints, and the one
    /// worker is still there to answer the next request.
    #[test]
    fn an_empty_instance_is_a_bad_request_and_the_worker_survives() {
        let server = tiny_server(1);
        let addr = server.local_addr();
        let empty = br#"{"instance": {"m": 2, "jobs": []}, "algo": "linear"}"#;
        for path in ["/v1/solve", "/v1/race"] {
            let resp = roundtrip(addr, "POST", path, empty);
            assert_eq!(resp.status, 400, "{path}");
            let v: Value =
                serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
            assert_eq!(v["error"]["kind"].as_str(), Some("bad-request"), "{path}");
            assert!(
                v["error"]["detail"]
                    .as_str()
                    .unwrap()
                    .contains("at least one job"),
                "{path}: {v:?}"
            );
        }
        let resp = roundtrip(addr, "POST", "/v1/solve", BODY.as_bytes());
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_all_workers() {
        let server = tiny_server(4);
        let addr = server.local_addr();
        server.shutdown();
        // The listener is gone: new connections fail or are refused.
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err()
                || TcpStream::connect(addr).is_err()
        );
    }
}
