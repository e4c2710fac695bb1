//! End-to-end benchmark of the moldable scheduler.
//!
//! ```text
//! moldable-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                    --svc-bin PATH --work-dir DIR
//! ```
//!
//! Workloads: `stream-small`, `stream-overload` (the streaming engine in
//! process) and `svc-hot`, `svc-cold` (the `moldable-svc` binary over
//! TCP). The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of a
//! separate traced run. `perfbench/run.py` builds everything and calls
//! this binary; `perfbench/WORKLOADS.md` defines each workload and
//! metric.

mod layers;
mod stats;
mod stream;
mod svc;
mod trace;

use stats::reported_percentile;
use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::NameStats;

/// End-to-end metrics (`--trace 0`): name and unit. Every workload
/// reports every one of them; `BENCHMARK.json` lists the same set.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("mean_stretch", "ratio"),
    ("p95_user_max_stretch", "ratio"),
    ("cert_ratio_mean", "ratio"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload
/// never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sched.solve_s", "s"),
    ("sched.solve_calls", "count"),
    ("sched.probes", "count"),
    ("sched.probe_us_p50", "us"),
    ("sched.probe_us_p99", "us"),
    ("sched.large_m_s", "s"),
    ("sched.shelf_s", "s"),
    ("sched.round_s", "s"),
    ("knapsack.bounded_s", "s"),
    ("knapsack.types_mean", "count"),
    ("sched.assemble_s", "s"),
    ("sim.run_stream_s", "s"),
    ("sim.self_s", "s"),
    ("sim.solve_share", "ratio"),
    ("sim.epochs", "count"),
    ("sim.batch_mean", "count"),
    ("sim.batch_max", "count"),
    ("sim.peak_pending", "count"),
    ("sim.execute_s", "s"),
    ("workloads.pull_s", "s"),
    ("sched.place_s", "s"),
    ("sched.validate_s", "s"),
    ("sched.admit_us", "us"),
    ("core.view_build_us", "us"),
    ("core.canonical_hash_us", "us"),
    ("svc.read_us", "us"),
    ("svc.parse_us", "us"),
    ("svc.serialize_us", "us"),
    ("svc.respond_us", "us"),
    ("svc.unattributed_us", "us"),
    ("svc.cache_hit_ratio", "ratio"),
    ("svc.write_us", "us"),
    ("svc.memo_hit_ratio", "ratio"),
    ("svc.server_busy_us", "us"),
    ("svc.client_wait_us", "us"),
    ("loadgen.cpu_s", "s"),
    ("loadgen.threads", "count"),
    ("loadgen.connections", "count"),
    ("trace.overhead_s", "s"),
    ("trace.mismatches", "count"),
];

/// Named metric values of one run.
#[derive(Default, Debug)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `name` (must be one of the declared metrics).
    pub fn set(&mut self, name: &str, value: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .find(|&n| n == name)
            .unwrap_or_else(|| panic!("undeclared metric `{name}`"));
        self.0.insert(key, value);
    }
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    /// Operations attempted (jobs for streams, requests for services).
    pub attempted: u64,
    /// Operations failed (non-2xx, transport errors, failed checks).
    pub failed: u64,
    /// Run-level checks (replay cross-checks, byte parity) all held.
    pub checks_ok: bool,
    /// The metric values.
    pub metrics: Metrics,
}

/// splitmix64: derives independent seeds from the run seed.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Peak resident set (`VmHWM`) of this process or of `pid`, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        None => "/proc/self/status".to_string(),
        Some(p) => format!("/proc/{p}/status"),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds (user + system) this process has used so far.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 overall, 12 and 13 after the `)`.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // The kernel's USER_HZ is 100 on every Linux this runs on.
    (ticks(11) + ticks(12)) / 100.0
}

/// The solver-layer metrics shared by every traced run.
pub fn sched_metrics(
    stats: &BTreeMap<&'static str, NameStats>,
    counts: &layers::StageCounts,
    m: &mut Metrics,
) {
    let total = |name: &str| stats.get(name).map_or(0.0, |s| s.total_s);
    let count = |name: &str| stats.get(name).map_or(0, |s| s.count) as f64;
    m.set("sched.solve_s", total("sched.solve"));
    m.set("sched.solve_calls", count("sched.solve"));
    m.set("sched.probes", count("sched.probe"));
    let probe_us = stats::sorted(
        stats
            .get("sched.probe")
            .map(|s| s.durations.iter().map(|d| d * 1e6).collect())
            .unwrap_or_default(),
    );
    m.set(
        "sched.probe_us_p50",
        reported_percentile("probe time", &probe_us, 50.0),
    );
    m.set(
        "sched.probe_us_p99",
        reported_percentile("probe time", &probe_us, 99.0),
    );
    m.set("sched.large_m_s", total("sched.large_m"));
    m.set("sched.shelf_s", total("sched.shelf"));
    m.set("sched.round_s", total("sched.round"));
    m.set("knapsack.bounded_s", total("knapsack.bounded"));
    m.set(
        "knapsack.types_mean",
        if counts.knapsack_calls == 0 {
            0.0
        } else {
            counts.knapsack_types as f64 / counts.knapsack_calls as f64
        },
    );
    m.set("sched.assemble_s", total("sched.assemble"));
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Stream(stream::Regime),
    Svc(svc::Path),
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "stream-small" => Workload::Stream(stream::Regime::Small),
            "stream-overload" => Workload::Stream(stream::Regime::Overload),
            "svc-hot" => Workload::Svc(svc::Path::Hot),
            "svc-cold" => Workload::Svc(svc::Path::Cold),
            _ => return None,
        })
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    svc_bin: PathBuf,
    work_dir: PathBuf,
    setup_probe: bool,
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| {
        format!("unknown workload `{name}` (stream-small|stream-overload|svc-hot|svc-cold)")
    })?;
    let seed = flag(args, "--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|_| "bad --seed")?;
    let seconds: f64 = flag(args, "--seconds")
        .unwrap_or_else(|| "10".into())
        .parse()
        .map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match flag(args, "--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("bad --trace `{other}` (0|1)")),
    };
    let work_dir = PathBuf::from(
        flag(args, "--work-dir").unwrap_or_else(|| ".bench_build/perfbench".into()),
    );
    let svc_bin = PathBuf::from(
        flag(args, "--svc-bin").unwrap_or_else(|| ".bench_build/release/moldable-svc".into()),
    );
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
        svc_bin,
        work_dir,
        setup_probe: args.iter().any(|a| a == "--setup-probe"),
    })
}

/// Set-up repetitions per run; the reported `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Time the stream workloads' set-up: a fresh process of this binary,
/// from spawn until it has built its source, solver and options and is
/// ready for the first timed operation.
fn stream_setup_s(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--setup-probe", "--workload", &args.name, "--seed"])
            .arg(args.seed.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn setup probe: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("read setup probe: {e}"))?;
        let elapsed = t0.elapsed().as_secs_f64();
        let status = child.wait().map_err(|e| format!("wait setup probe: {e}"))?;
        if line.trim() != "ready" || !status.success() {
            return Err("setup probe failed".into());
        }
        samples.push(elapsed);
    }
    Ok(stats::median(&samples).expect("non-empty"))
}

fn render(outcome: &Outcome, declared: &[(&str, &str)]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let value = *outcome.metrics.0.get(name).unwrap_or(&0.0);
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = outcome.checks_ok && outcome.failed == 0 && outcome.attempted > 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    ))
}

fn run(args: &Args) -> Result<String, String> {
    if args.setup_probe {
        if let Workload::Stream(regime) = args.workload {
            stream::setup(regime, args.seed);
        }
        println!("ready");
        return Ok(String::new());
    }
    let spans = args
        .work_dir
        .join(format!("spans-{}-{}.jsonl", args.name, args.seed));
    let outcome = match (args.workload, args.trace) {
        (Workload::Stream(regime), false) => {
            let setup_s = stream_setup_s(args)?;
            let mut out = stream::run(regime, args.seed, args.seconds);
            out.metrics.set("setup_s", setup_s);
            out
        }
        (Workload::Stream(regime), true) => stream::traced(regime, args.seed, &spans),
        (Workload::Svc(path), trace) => {
            let cfg = svc::Config {
                path,
                seed: args.seed,
                seconds: args.seconds,
                svc_bin: args.svc_bin.clone(),
                work_dir: args.work_dir.clone(),
            };
            if trace {
                svc::traced(&cfg, &spans)?
            } else {
                svc::run(&cfg)?
            }
        }
    };
    if !args.trace {
        for &(name, _) in END_TO_END {
            if !outcome.metrics.0.contains_key(name) {
                return Err(format!("workload did not report `{name}`"));
            }
        }
    }
    eprintln!(
        "{}: attempted {}, failed {} (failed_frac {:.6}), checks {}",
        args.name,
        outcome.attempted,
        outcome.failed,
        stats::failed_frac(outcome.failed, outcome.attempted),
        if outcome.checks_ok { "ok" } else { "FAILED" }
    );
    render(&outcome, if args.trace { PER_LAYER } else { END_TO_END })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            if !line.is_empty() {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this binary declare the same metrics.
    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        for (key, declared) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().expect("name").to_string(),
                        m["unit"].as_str().expect("unit").to_string(),
                    )
                })
                .collect();
            let want: Vec<(String, String)> = declared
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, want, "{key}");
        }
    }

    #[test]
    fn render_reports_every_declared_metric() {
        let mut metrics = Metrics::default();
        metrics.set("setup_s", 0.5);
        let line = render(
            &Outcome {
                attempted: 3,
                failed: 0,
                checks_ok: true,
                metrics,
            },
            &END_TO_END[..2],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"peak_rss_mb\": {\"value\": 0, \"unit\": \"MB\"}}}"
        );
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let line = render(
            &Outcome {
                attempted: 10,
                failed: 1,
                checks_ok: true,
                metrics: Metrics::default(),
            },
            &[],
        )
        .unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1"));
    }
}
