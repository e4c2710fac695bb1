//! `moldable-svc` — serve the scheduling service over HTTP.
//!
//! ```text
//! moldable-svc [--addr HOST:PORT] [--workers N] [--eps N/D]
//!              [--max-body BYTES] [--race-threads N] [--idle-timeout SECONDS]
//!              [--cache-entries N] [--quotas FILE]
//! ```
//!
//! `--quotas FILE` loads an operator admission rule set (the same JSON
//! object grammar as the request-level `quotas` field: `{"window": N,
//! "rules": [{"user", "project", "class", "max_procs", "max_jobs",
//! "max_resource_seconds"}, …]}`); tenant-tagged requests are admitted
//! against it, over-quota solves get a typed 429.
//!
//! Prints one JSON line `{"listening": "HOST:PORT", "workers": N}` to
//! stdout once the listener is live (port 0 resolves to the actual
//! ephemeral port). Serves until killed. Endpoints: `POST /v1/solve`,
//! `POST /v1/race`, `GET /healthz`, `GET /metrics` — see DESIGN.md's
//! "Service front-end".

use moldable::args::{check_options, flag};
use moldable::sched::batch;
use moldable::svc::app::parse_eps;
use moldable::svc::{AppConfig, Server, ServerConfig};
use serde_json::json;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage:
  moldable-svc [--addr HOST:PORT] [--workers N] [--eps N/D] [--max-body BYTES]
               [--race-threads N] [--idle-timeout SECONDS] [--cache-entries N] [--quotas FILE]";

/// Every option takes a value; anything else is refused rather than
/// ignored, so a removed option cannot silently change the service.
const OPTIONS: [&str; 8] = [
    "--addr",
    "--workers",
    "--eps",
    "--max-body",
    "--race-threads",
    "--idle-timeout",
    "--cache-entries",
    "--quotas",
];

fn run(args: &[String]) -> Result<(), String> {
    check_options(args, &OPTIONS, &[])?;
    let mut config = ServerConfig {
        addr: flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".into()),
        ..ServerConfig::default()
    };
    if let Some(workers) = flag(args, "--workers") {
        config.workers = match workers.parse() {
            Ok(0) | Err(_) => return Err("bad --workers (need an integer >= 1)".into()),
            Ok(w) => w,
        };
    }
    if let Some(secs) = flag(args, "--idle-timeout") {
        let secs: u64 = secs.parse().map_err(|_| "bad --idle-timeout (seconds)")?;
        config.idle_timeout = Duration::from_secs(secs.max(1));
    }
    let mut app = AppConfig {
        race_threads: batch::default_threads(moldable::sched::SOLVER_NAMES.len()),
        ..AppConfig::default()
    };
    if let Some(eps) = flag(args, "--eps") {
        app.default_eps = parse_eps(&eps)?;
    }
    if let Some(max_body) = flag(args, "--max-body") {
        app.max_body = match max_body.parse() {
            Ok(0) | Err(_) => return Err("bad --max-body (need bytes >= 1)".into()),
            Ok(b) => b,
        };
    }
    if let Some(threads) = flag(args, "--race-threads") {
        app.race_threads = match threads.parse() {
            Ok(0) | Err(_) => return Err("bad --race-threads (need an integer >= 1)".into()),
            Ok(t) => t,
        };
    }
    if let Some(entries) = flag(args, "--cache-entries") {
        // 0 is legal: it disables the response cache entirely.
        app.cache_entries = entries
            .parse()
            .map_err(|_| "bad --cache-entries (need an integer >= 0)")?;
    }
    if let Some(path) = flag(args, "--quotas") {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read --quotas {path}: {e}"))?;
        app.quotas = Some(moldable::svc::wire::quotas_from_str(&text)?);
    }
    config.app = app;
    let workers = config.workers;
    let server = Server::bind(config).map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.local_addr().to_string();
    println!(
        "{}",
        serde_json::to_string(&json!({
            "listening": addr,
            "workers": workers,
        }))
        .expect("shim serialization is infallible")
    );
    // Flush so a pipe reader sees the address before the first request.
    use std::io::Write;
    let _ = std::io::stdout().flush();
    eprintln!(
        "moldable-svc listening on http://{addr} ({workers} workers); endpoints: POST /v1/solve, POST /v1/race, GET /healthz, GET /metrics",
    );
    // Serve until the process is killed: park this thread forever while
    // the worker pool runs.
    loop {
        std::thread::park();
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
