//! `moldable-loadgen` — closed-loop load generator for `moldable-svc`.
//!
//! ```text
//! moldable-loadgen --addr HOST:PORT [--threads N] [--seconds S]
//!                  [--family power-law|amdahl|comm-overhead|mixed] [--n N] [--m M]
//!                  [--seed S] [--count C] [--algo NAME] [--eps N/D]
//!                  [--trace FILE.swf] [--max-jobs N] [--tenants N]
//! ```
//!
//! Builds `C` distinct instances (synthetic families via the workload
//! generators, or one instance lifted from an SWF trace), wraps them as
//! `/v1/solve` bodies, fires them round-robin from `N` client threads
//! for `S` seconds, and prints a JSON report with throughput and latency
//! percentiles. `--tenants N` tags the bodies with synthetic round-robin
//! tenants (`load0`, `load1`, …) to exercise the v4 admission path; note
//! the tenant tag bypasses the service's exact-bytes memo by design.
//! Exits non-zero if every request failed.

use moldable::svc::loadgen::{run, LoadgenConfig};
use moldable::workloads::{
    bench_instance, BenchFamily, FitModel, SwfSource, SwfTrace, SynthesisParams, WorkloadSource,
};
use moldable_core::io::InstanceSpec;
use serde_json::json;
use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage:
  moldable-loadgen --addr HOST:PORT [--threads N] [--seconds S] [--family power-law|amdahl|comm-overhead|mixed]
                   [--n N] [--m M] [--seed S] [--count C] [--algo NAME] [--eps N/D] [--trace FILE.swf] [--max-jobs N]
                   [--tenants N]";

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_or<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| format!("bad {name} `{raw}`")),
    }
}

/// Build the request bodies to replay.
fn bodies(args: &[String]) -> Result<Vec<String>, String> {
    let algo = flag(args, "--algo").unwrap_or_else(|| "linear".into());
    let eps = flag(args, "--eps").unwrap_or_else(|| "1/4".into());
    let instances = if let Some(path) = flag(args, "--trace") {
        let trace = SwfTrace::from_path(&path).map_err(|e| e.to_string())?;
        let m: Option<u64> = flag(args, "--m")
            .map(|s| s.parse().map_err(|_| "bad --m"))
            .transpose()?;
        let mut source = SwfSource::new(
            trace,
            m,
            SynthesisParams {
                model: FitModel::Downey,
                ..SynthesisParams::default()
            },
        )
        .ok_or("trace header has no MaxProcs/MaxNodes; pass --m M")?;
        if let Some(max) = flag(args, "--max-jobs") {
            source = source.with_max_jobs(max.parse().map_err(|_| "bad --max-jobs")?);
        }
        vec![source.offline_instance()]
    } else {
        let family = match flag(args, "--family").as_deref() {
            Some("power-law") | None => BenchFamily::PowerLaw,
            Some("amdahl") => BenchFamily::Amdahl,
            Some("comm-overhead") => BenchFamily::CommOverhead,
            Some("mixed") => BenchFamily::Mixed,
            Some(other) => return Err(format!("unknown --family `{other}`")),
        };
        let n: usize = parse_or(args, "--n", 16)?;
        let m: u64 = parse_or(args, "--m", 256)?;
        let seed: u64 = parse_or(args, "--seed", 0)?;
        let count: usize = parse_or(args, "--count", 8)?;
        if count == 0 {
            return Err("--count must be >= 1".into());
        }
        (0..count)
            .map(|i| bench_instance(family, n, m, seed.wrapping_add(i as u64)))
            .collect()
    };
    let tenants: u64 = parse_or(args, "--tenants", 0)?;
    instances
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            let spec = InstanceSpec::from_instance(inst).ok_or("unserializable instance")?;
            let mut body = json!({
                "instance": serde_json::to_value(&spec),
                "algo": algo,
                "eps": eps,
            });
            if tenants > 0 {
                // Round-robin synthetic users over the distinct bodies.
                let user = format!("load{}", i as u64 % tenants);
                if let serde_json::Value::Object(fields) = &mut body {
                    fields.push(("tenant".into(), json!({ "user": user })));
                }
            }
            Ok(serde_json::to_string(&body).expect("shim serialization is infallible"))
        })
        .collect()
}

fn run_cli(args: &[String]) -> Result<bool, String> {
    let addr_raw = flag(args, "--addr").ok_or("missing --addr HOST:PORT")?;
    let addr: SocketAddr = addr_raw
        .to_socket_addrs()
        .map_err(|e| format!("--addr {addr_raw}: {e}"))?
        .next()
        .ok_or_else(|| format!("--addr {addr_raw}: no address resolved"))?;
    let config = LoadgenConfig {
        threads: parse_or(args, "--threads", 4)?,
        duration: Duration::from_secs_f64(parse_or(args, "--seconds", 5.0)?),
        path: "/v1/solve".to_string(),
    };
    let bodies = bodies(args)?;
    let report = run(addr, &bodies, &config);
    let out = json!({
        "addr": addr.to_string(),
        "threads": report.threads,
        "distinct_bodies": bodies.len(),
        "elapsed_seconds": report.elapsed.as_secs_f64(),
        "requests_ok": report.ok,
        "requests_failed": report.errors,
        "throughput_rps": report.throughput,
        "latency": json!({
            "p50_ms": report.p50.as_secs_f64() * 1e3,
            "p95_ms": report.p95.as_secs_f64() * 1e3,
            "p99_ms": report.p99.as_secs_f64() * 1e3,
            "max_ms": report.max.as_secs_f64() * 1e3,
        }),
    });
    println!(
        "{}",
        serde_json::to_string_pretty(&out).expect("shim serialization is infallible")
    );
    Ok(report.ok > 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run_cli(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: no request succeeded");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
