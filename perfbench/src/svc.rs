//! The two service workloads: `moldable-svc --workers 2` driven over TCP
//! by a closed loop of `CLIENTS` threads, one keep-alive connection each.
//!
//! * `svc-hot` replays 8 tenant-free bodies, so after the first round
//!   every request is answered from the exact-bytes memo.
//! * `svc-cold` sends tenant-tagged bodies that are all semantically
//!   distinct — one of `COLD_BASES` seeded base instances plus one seeded
//!   job per request — so neither cache layer can answer, and every
//!   request runs admission, view build, solve, placement, validation and
//!   serialization. Bodies are composed per request from the base's
//!   serialized prefix; only the bases stay in memory.

use crate::layers::{eps, replay_probes, LinearParams, StageCounts, TracedSolver};
use crate::stats::{
    mean, reported_percentile, reported_windowed_percentile, sorted, windowed_rate,
};
use crate::trace::{by_name, Tracer};
use crate::{Metrics, Outcome};
use moldable_core::io::{CurveSpec, InstanceSpec};
use moldable_core::ratio::Ratio;
use moldable_core::view::JobView;
use moldable_sched::quotas::{Demand, QuotaEngine};
use moldable_sched::solver::MakespanSolver;
use moldable_sched::{place_with, validate};
use moldable_svc::app::{
    assignment_rows, fragmentation_summary, placement_rows_on, tenant_echo, topology_rows,
};
use moldable_svc::http::{read_response, write_request, RequestReader, Response};
use moldable_svc::wire::{parse_solve_body, quotas_from_str};
use moldable_svc::{App, AppConfig};
use moldable_workloads::{bench_instance, BenchFamily};
use serde_json::{json, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Cursor, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Which service path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// Memo hits: HTTP framing, the memo and the worker pool.
    Hot,
    /// Full miss path with admission and placement.
    Cold,
}

/// Client threads, each holding one keep-alive connection.
const CLIENTS: usize = 2;
/// Server worker threads.
const WORKERS: usize = 2;
/// `svc-hot`: distinct bodies and their shape.
const HOT_BODIES: usize = 8;
const HOT_N: usize = 16;
const HOT_M: u64 = 256;
/// `svc-cold`: base instances, their shape, tenants, and the topology.
const COLD_BASES: usize = 64;
const COLD_N: usize = 256;
const COLD_M: u64 = 1024;
const COLD_USERS: u64 = 64;
const COLD_TOPOLOGY: &str = "32*2*16";
const COLD_POLICY: &str = "packed:node";
/// Operator quota file of `svc-cold`: one wildcard rule whose bounds no
/// run can reach, so admission always runs and never denies.
const NEVER_DENY: &str = r#"{"window": 3600, "rules": [{"user": "*", "max_procs": 1000000000000000000, "max_jobs": 1000000000000000000, "max_resource_seconds": 1000000000000000000}]}"#;
/// Set-up repetitions (server starts) per run.
const SETUP_REPS: usize = 15;
/// `peak_rss_mb` is the server's `VmHWM` after this many answered
/// requests: the response cache keeps every distinct reply, so on
/// `svc-cold` a read at the end of the run would grow with throughput.
const RSS_AT_ANSWERED: u64 = 400;
/// Cold requests compared byte-for-byte against the in-process app.
const COLD_PARITY_SAMPLE: u64 = 64;
/// Cold bodies replayed stage by stage in the traced run.
const COLD_TRACE_SAMPLE: usize = 24;
/// Staged replays per hot body in the traced run.
const HOT_TRACE_REPS: usize = 50;

/// One service run's configuration.
pub struct Config {
    /// Which path.
    pub path: Path,
    /// The run seed.
    pub seed: u64,
    /// Closed-loop duration.
    pub seconds: f64,
    /// The `moldable-svc` binary.
    pub svc_bin: PathBuf,
    /// Scratch directory inside the checkout (quota file, spans).
    pub work_dir: PathBuf,
}

/// The request set of a run.
struct Requests {
    path: Path,
    seed: u64,
    /// Hot: full bodies. Cold: `{"instance":{…"jobs":[` prefixes.
    bodies: Vec<String>,
}

/// One request of the run, ready to send. Hot bodies are borrowed: the
/// client should not spend a body copy per request on the hot path.
struct Req<'a> {
    body: Cow<'a, str>,
    n: usize,
    user: u64,
}

impl Requests {
    fn new(path: Path, seed: u64) -> Result<Self, String> {
        let spec_of = |i: u64, n: usize, m: u64| {
            let seed = crate::splitmix(seed ^ (i << 32));
            InstanceSpec::from_instance(&bench_instance(BenchFamily::Mixed, n, m, seed))
                .ok_or_else(|| "generated instances serialize".to_string())
        };
        let bodies = match path {
            Path::Hot => (0..HOT_BODIES as u64)
                .map(|i| {
                    let body = json!({
                        "instance": serde_json::to_value(&spec_of(i, HOT_N, HOT_M)?),
                        "algo": "linear",
                        "eps": "1/4",
                    });
                    serde_json::to_string(&body).map_err(|e| e.to_string())
                })
                .collect::<Result<_, String>>()?,
            Path::Cold => (0..COLD_BASES as u64)
                .map(|k| {
                    let text = serde_json::to_string(&spec_of(k, COLD_N, COLD_M)?)
                        .map_err(|e| e.to_string())?;
                    let open = text
                        .strip_suffix("]}")
                        .ok_or("instance JSON does not end with its job array")?;
                    Ok(format!("{{\"instance\":{open},"))
                })
                .collect::<Result<_, String>>()?,
        };
        Ok(Requests { path, seed, bodies })
    }

    /// Request number `i` of the run.
    fn get(&self, i: u64) -> Req<'_> {
        match self.path {
            Path::Hot => {
                let k = (i % HOT_BODIES as u64) as usize;
                Req {
                    body: Cow::Borrowed(&self.bodies[k]),
                    n: HOT_N,
                    user: k as u64,
                }
            }
            Path::Cold => {
                let k = (i % COLD_BASES as u64) as usize;
                let extra = bench_instance(
                    BenchFamily::Mixed,
                    1,
                    COLD_M,
                    crate::splitmix(self.seed.wrapping_add(0xC01D) ^ i.rotate_left(17)),
                );
                let job = CurveSpec::from_curve(extra.jobs()[0].curve())
                    .expect("generated curves serialize");
                let user = i % COLD_USERS;
                let body = format!(
                    "{}{}]}},\"algo\":\"linear\",\"eps\":\"1/4\",\"topology\":\"{COLD_TOPOLOGY}\",\"policy\":\"{COLD_POLICY}\",\"tenant\":{{\"user\":\"u{user}\"}}}}",
                    self.bodies[k],
                    serde_json::to_string(&job).expect("shim serialization is infallible"),
                );
                Req {
                    body: Cow::Owned(body),
                    n: COLD_N + 1,
                    user,
                }
            }
        }
    }
}

/// What a checked `200` reply says about schedule quality.
#[derive(Clone, Debug)]
struct Answer {
    n: usize,
    cert_ratio: f64,
    stretch_sum: f64,
    stretch_max: f64,
}

/// Check one `200` body: it parses, echoes `n`, and its certificate
/// holds (`makespan ≤ ratio_bound · opt_lower_bound`). A job's stretch
/// here is its completion over the certified lower bound on the batch's
/// optimal makespan (the batch is released at 0): it lies in
/// `(0, ratio_bound]`, where completion over `t_j(m)` would be decided
/// by whichever job happens to have the smallest `t_j(m)`.
fn check(body: &[u8], req: &Req) -> Result<Answer, String> {
    let text = std::str::from_utf8(body).map_err(|_| "reply is not UTF-8")?;
    let root = serde_json::borrow::from_str_borrowed(text).map_err(|e| e.to_string())?;
    let n = root.get("n").and_then(|v| v.as_u64()).ok_or("no `n`")? as usize;
    if n != req.n {
        return Err(format!("reply echoes n = {n}, sent {}", req.n));
    }
    let num = |key: &str| root.get(key).and_then(|v| v.as_f64());
    let makespan = num("makespan").ok_or("no `makespan`")?;
    let bound = num("ratio_bound").ok_or("no `ratio_bound`")?;
    let lb = num("opt_lower_bound").ok_or("no `opt_lower_bound`")?;
    if !(lb > 0.0 && makespan <= bound * lb * (1.0 + 1e-12)) {
        return Err(format!(
            "certificate fails: makespan {makespan} > {bound} x {lb}"
        ));
    }
    let rows = root
        .get("assignments")
        .and_then(|v| v.as_array())
        .ok_or("no `assignments`")?;
    if rows.len() != n {
        return Err(format!("{} assignment rows for {n} jobs", rows.len()));
    }
    let (mut stretch_sum, mut stretch_max) = (0.0f64, 0.0f64);
    for row in rows {
        let field = |key: &str| row.get(key).ok_or_else(|| format!("row lacks `{key}`"));
        let start_num: f64 = field("start_num")?
            .as_str()
            .and_then(|s| s.parse().ok())
            .ok_or("bad start_num")?;
        let start_den: f64 = field("start_den")?
            .as_str()
            .and_then(|s| s.parse().ok())
            .ok_or("bad start_den")?;
        let duration = field("duration")?.as_f64().ok_or("bad duration")?;
        let stretch = (start_num / start_den + duration) / lb;
        stretch_sum += stretch;
        stretch_max = stretch_max.max(stretch);
    }
    Ok(Answer {
        n,
        cert_ratio: makespan / lb,
        stretch_sum,
        stretch_max,
    })
}

/// A running `moldable-svc`; killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Server {
    /// Start the server and wait until `/healthz` answers; returns the
    /// set-up time (spawn to first healthy reply).
    fn start(cfg: &Config) -> Result<(Server, f64), String> {
        let mut cmd = Command::new(&cfg.svc_bin);
        cmd.args(["--addr", "127.0.0.1:0", "--workers", &WORKERS.to_string()]);
        if cfg.path == Path::Cold {
            cmd.arg("--quotas").arg(quota_file(cfg)?);
        }
        let t0 = Instant::now();
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cfg.svc_bin.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        let server_addr = read
            .ok()
            .and_then(|_| serde_json::from_str::<Value>(&line).ok())
            .and_then(|v| v["listening"].as_str().and_then(|a| a.parse().ok()));
        let mut server = Server {
            child,
            addr: "127.0.0.1:1".parse().expect("literal address"),
        };
        server.addr =
            server_addr.ok_or_else(|| format!("server did not report an address: {line:?}"))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if get(server.addr, "/healthz").map(|r| r.status) == Ok(200) {
                break;
            }
            if Instant::now() > deadline {
                return Err("server never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((server, t0.elapsed().as_secs_f64()))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

fn quota_file(cfg: &Config) -> Result<PathBuf, String> {
    std::fs::create_dir_all(&cfg.work_dir).map_err(|e| e.to_string())?;
    let path = cfg.work_dir.join("quotas-never-deny.json");
    std::fs::write(&path, NEVER_DENY).map_err(|e| e.to_string())?;
    Ok(path)
}

/// One-shot GET on a fresh connection.
fn get(addr: SocketAddr, path: &str) -> Result<Response, String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut writer = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    let head = format!("GET {path} HTTP/1.1\r\nHost: moldable\r\nConnection: close\r\n\r\n");
    writer
        .write_all(head.as_bytes())
        .map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
    read_response(&mut BufReader::new(stream)).map_err(|e| e.to_string())
}

/// Set-up time: the median of `SETUP_REPS` server starts. The last
/// server is kept for the run.
fn start_measured(cfg: &Config) -> Result<(Server, f64), String> {
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let (server, secs) = Server::start(cfg)?;
        samples.push(secs);
        kept = Some(server); // the previous one is dropped (killed) here
    }
    let setup = crate::stats::median(&samples).expect("non-empty");
    Ok((kept.expect("at least one start"), setup))
}

/// What the closed loop observed.
#[derive(Default)]
struct LoopResult {
    attempted: u64,
    failed: u64,
    ok: u64,
    wall: f64,
    cpu_s: f64,
    /// `(completed at, latency)` of every answered request, seconds
    /// since the loop started and milliseconds; in completion order
    /// once the loop returns.
    latencies: Vec<(f64, f64)>,
    /// The server's `VmHWM` once `RSS_AT_ANSWERED` requests were answered.
    peak_rss_mb: Option<f64>,
    /// Checked answers of distinct bodies, keyed by request identity
    /// (hot: body index; cold: request number).
    answers: BTreeMap<u64, (u64, Answer)>,
    /// Cold requests kept for the byte-parity check.
    parity: Vec<(u64, Vec<u8>)>,
}

struct Conn {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
}

fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    Ok(Conn {
        reader: BufReader::new(stream.try_clone()?),
        writer: BufWriter::new(stream),
    })
}

/// Send one request and read the reply, timing send → full reply.
fn exchange(conn: &mut Conn, body: &[u8]) -> Result<(Response, f64), String> {
    let t0 = Instant::now();
    write_request(&mut conn.writer, "POST", "/v1/solve", body).map_err(|e| e.to_string())?;
    let resp = read_response(&mut conn.reader).map_err(|e| e.to_string())?;
    Ok((resp, t0.elapsed().as_secs_f64()))
}

/// The hot path's reference replies: each body sent once and checked
/// in full (this also fills the memo).
fn warm_hot(addr: SocketAddr, reqs: &Requests) -> Result<Vec<(Vec<u8>, Answer)>, String> {
    let mut conn = connect(addr).map_err(|e| e.to_string())?;
    (0..HOT_BODIES as u64)
        .map(|i| {
            let req = reqs.get(i);
            let (resp, _) = exchange(&mut conn, req.body.as_bytes())?;
            if resp.status != 200 {
                return Err(format!("warm-up request {i}: status {}", resp.status));
            }
            let answer = check(&resp.body, &req)?;
            Ok((resp.body, answer))
        })
        .collect()
}

/// The closed loop: `CLIENTS` threads, one connection each, for
/// `seconds`. Thread `t` sends requests `t, t + CLIENTS, …`.
fn closed_loop(
    server: &Server,
    reqs: &Requests,
    hot_refs: &[(Vec<u8>, Answer)],
    seconds: f64,
) -> LoopResult {
    let addr = server.addr;
    let merged = Mutex::new(LoopResult::default());
    let answered = AtomicU64::new(0);
    let rss = OnceLock::new();
    let cpu0 = crate::process_cpu_s();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let (merged, answered, rss) = (&merged, &answered, &rss);
            scope.spawn(move || {
                let mut local = LoopResult::default();
                let mut conn: Option<Conn> = None;
                let mut i = t as u64;
                while Instant::now() < deadline {
                    let req = reqs.get(i);
                    let id = i;
                    i += CLIENTS as u64;
                    local.attempted += 1;
                    if conn.is_none() {
                        conn = connect(addr).ok();
                    }
                    let Some(c) = conn.as_mut() else {
                        local.failed += 1;
                        continue;
                    };
                    let (resp, secs) = match exchange(c, req.body.as_bytes()) {
                        Ok(r) => r,
                        Err(_) => {
                            local.failed += 1;
                            conn = None;
                            continue;
                        }
                    };
                    if resp.status != 200 {
                        local.failed += 1;
                        continue;
                    }
                    let verdict = match reqs.path {
                        // A memo hit must be byte-identical to the
                        // checked reference reply of its body.
                        Path::Hot => {
                            let k = (id % HOT_BODIES as u64) as usize;
                            if resp.body == hot_refs[k].0 {
                                Ok(None)
                            } else {
                                Err("hot reply differs from its reference".to_string())
                            }
                        }
                        Path::Cold => check(&resp.body, &req).map(Some),
                    };
                    match verdict {
                        Ok(answer) => {
                            local.ok += 1;
                            local
                                .latencies
                                .push((started.elapsed().as_secs_f64(), secs * 1e3));
                            if answered.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT_ANSWERED {
                                let _ = rss.set(crate::peak_rss_mb(Some(server.pid())));
                            }
                            if let Some(a) = answer {
                                local.answers.insert(id, (req.user, a));
                            }
                            if reqs.path == Path::Cold
                                && crate::splitmix(reqs.seed ^ id.wrapping_mul(31))
                                    .is_multiple_of(COLD_PARITY_SAMPLE)
                            {
                                local.parity.push((id, resp.body));
                            }
                        }
                        Err(e) => {
                            eprintln!("request {id}: {e}");
                            local.failed += 1;
                        }
                    }
                }
                let mut m = merged.lock().expect("loop result lock");
                m.attempted += local.attempted;
                m.failed += local.failed;
                m.ok += local.ok;
                m.latencies.extend(local.latencies);
                m.answers.extend(local.answers);
                m.parity.extend(local.parity);
            });
        }
    });
    let mut result = merged.into_inner().expect("loop result lock");
    result.wall = started.elapsed().as_secs_f64();
    result.cpu_s = crate::process_cpu_s() - cpu0;
    result.latencies.sort_by(|a, b| a.0.total_cmp(&b.0));
    // A slow run that never got there reads the peak at its end.
    result.peak_rss_mb = rss
        .into_inner()
        .flatten()
        .or_else(|| crate::peak_rss_mb(Some(server.pid())));
    if reqs.path == Path::Hot {
        for (k, (_, answer)) in hot_refs.iter().enumerate() {
            result.answers.insert(k as u64, (k as u64, answer.clone()));
        }
    }
    result
}

/// The in-process app the byte-parity check and the replays compare
/// against, configured like the server (`cache_entries` aside).
fn in_process_app(path: Path, cache_entries: usize) -> App {
    App::new(AppConfig {
        cache_entries,
        quotas: (path == Path::Cold)
            .then(|| quotas_from_str(NEVER_DENY).expect("valid quota file")),
        ..AppConfig::default()
    })
}

/// Byte parity: the sampled replies equal `App::respond_parts` on the
/// same bodies. Returns the number of mismatches.
fn parity_mismatches(
    reqs: &Requests,
    result: &LoopResult,
    hot_refs: &[(Vec<u8>, Answer)],
) -> u64 {
    let app = in_process_app(reqs.path, 0);
    let pairs: Vec<(u64, &[u8])> = match reqs.path {
        Path::Hot => hot_refs
            .iter()
            .enumerate()
            .map(|(k, (b, _))| (k as u64, b.as_slice()))
            .collect(),
        Path::Cold => result
            .parity
            .iter()
            .map(|(i, b)| (*i, b.as_slice()))
            .collect(),
    };
    pairs
        .iter()
        .filter(|(i, served)| {
            let local = app.respond_parts("POST", "/v1/solve", reqs.get(*i).body.as_bytes());
            local.status != 200 || local.body.as_slice() != *served
        })
        .count() as u64
}

/// Schedule quality over the distinct answered bodies.
fn quality(result: &LoopResult, m: &mut Metrics) {
    let answers: Vec<&(u64, Answer)> = result.answers.values().collect();
    let jobs: f64 = answers.iter().map(|(_, a)| a.n as f64).sum();
    let stretch: f64 = answers.iter().map(|(_, a)| a.stretch_sum).sum();
    let mut per_user: BTreeMap<u64, f64> = BTreeMap::new();
    for (user, a) in &answers {
        let e = per_user.entry(*user).or_insert(0.0);
        *e = e.max(a.stretch_max);
    }
    let user_max = sorted(per_user.into_values().collect());
    let cert: Vec<f64> = answers.iter().map(|(_, a)| a.cert_ratio).collect();
    m.set(
        "mean_stretch",
        if jobs > 0.0 { stretch / jobs } else { 0.0 },
    );
    m.set(
        "p95_user_max_stretch",
        reported_percentile("user max stretch", &user_max, 95.0),
    );
    m.set("cert_ratio_mean", mean(&cert));
}

fn refuse_oversubscription() -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if CLIENTS > cores {
        return Err(format!(
            "refusing to run {CLIENTS} client threads and connections on {cores} core(s): a client-bound run would read as a server regression"
        ));
    }
    Ok(())
}

/// Start, warm, and drive the server for one run.
struct Session {
    server: Server,
    setup_s: f64,
    reqs: Requests,
    hot_refs: Vec<(Vec<u8>, Answer)>,
    result: LoopResult,
}

fn session(cfg: &Config) -> Result<Session, String> {
    refuse_oversubscription()?;
    let reqs = Requests::new(cfg.path, cfg.seed)?;
    let (server, setup_s) = start_measured(cfg)?;
    let hot_refs = match cfg.path {
        Path::Hot => warm_hot(server.addr, &reqs)?,
        Path::Cold => Vec::new(),
    };
    let mut result = closed_loop(&server, &reqs, &hot_refs, cfg.seconds);
    if cfg.path == Path::Hot {
        result.attempted += HOT_BODIES as u64;
    }
    Ok(Session {
        server,
        setup_s,
        reqs,
        hot_refs,
        result,
    })
}

/// Honest load generation: what the client side was and what it cost.
fn loadgen_line(r: &LoopResult) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "loadgen: closed loop, {CLIENTS} threads, {CLIENTS} connections, {cores} cores, {:.3} cpu-s over {:.3} s, {} requests ok",
        r.cpu_s, r.wall, r.ok
    );
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let Session {
        server,
        setup_s,
        reqs,
        hot_refs,
        result,
    } = session(cfg)?;
    drop(server);
    let mismatches = parity_mismatches(&reqs, &result, &hot_refs);
    loadgen_line(&result);
    let r = &result;
    let rss = r.peak_rss_mb.ok_or("cannot read the server's VmHWM")?;
    let lat: Vec<f64> = r.latencies.iter().map(|&(_, ms)| ms).collect();
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", rss);
    // Every request of a workload carries the same number of jobs.
    let completed_at: Vec<f64> = r.latencies.iter().map(|&(t, _)| t).collect();
    let req_per_s = windowed_rate(&completed_at, r.wall);
    m.set("req_per_s", req_per_s);
    m.set("jobs_per_s", req_per_s * reqs.get(0).n as f64);
    m.set(
        "latency_p50_ms",
        reported_windowed_percentile("request latency", &lat, 50.0),
    );
    m.set(
        "latency_p99_ms",
        reported_windowed_percentile("request latency", &lat, 99.0),
    );
    quality(r, &mut m);
    Ok(Outcome {
        attempted: r.attempted,
        failed: r.failed + mismatches,
        checks_ok: mismatches == 0,
        metrics: m,
    })
}

/// Append a field to a reply object (the shim's objects keep insertion
/// order, like the service's own helper).
fn push_field(value: &mut Value, key: &str, field: Value) {
    if let Value::Object(fields) = value {
        fields.push((key.to_string(), field));
    }
}

/// One body through the `/v1/solve` handler's stages, in handler order,
/// each stage a span. Returns the framed response bytes.
fn staged(
    body: &[u8],
    tracer: &Tracer,
    solver: &TracedSolver,
    engine: &mut QuotaEngine,
) -> Result<Vec<u8>, String> {
    let mut framed = Vec::with_capacity(body.len() + 128);
    write_request(&mut framed, "POST", "/v1/solve", body).map_err(|e| e.to_string())?;
    let mut reader = RequestReader::new();
    let mut cursor = Cursor::new(framed);
    let parts = tracer
        .time("svc.read", || reader.read(&mut cursor, usize::MAX))
        .map_err(|e| e.to_string())?;
    let (sr, instance) = tracer.time("svc.parse", || parse_solve_body(parts.body, &eps()))?;
    if let Some(tenant) = &sr.tenant {
        let demand = Demand {
            procs: instance.m(),
            jobs: 1,
            resource_seconds: instance.jobs().iter().map(|j| u128::from(j.time(1))).sum(),
        };
        let ticket = tracer
            .time("sched.admit", || engine.admit(tenant, &demand, 0))
            .map_err(|d| d.to_string())?;
        engine.release(&ticket);
    }
    tracer.time("core.canonical_hash", || instance.canonical_hash());
    let view = tracer.time("core.view_build", || JobView::build(&instance));
    let mut outcome = solver.solve(&view, view.m());
    if let Some(topology) = &sr.topology {
        let placement = tracer
            .time("sched.place", || {
                place_with(&view, &outcome.schedule, topology, &sr.policy)
            })
            .map_err(|e| e.to_string())?;
        outcome.schedule.placement = Some(placement);
    }
    tracer
        .time("sched.validate", || validate(&outcome.schedule, &instance))
        .map_err(|e| e.to_string())?;
    let text = tracer.time("svc.serialize", || {
        let mut reply = json!({
            "schema": sr.schema(),
            "algo": sr.algo,
            "solver": solver.name(),
            "n": instance.n(),
            "m": instance.m(),
            "eps": sr.eps.to_f64(),
            "makespan": outcome.makespan.to_f64(),
            "ratio_bound": outcome.ratio_bound.as_ref().map(Ratio::to_f64),
            "opt_lower_bound": outcome.lower_bound,
            "probes": outcome.probes,
            "assignments": assignment_rows(&instance, &outcome.schedule),
        });
        if sr.placements || sr.topology.is_some() {
            let placement = outcome.schedule.placement.as_ref().expect("placed above");
            push_field(
                &mut reply,
                "placements",
                placement_rows_on(placement, sr.topology.as_ref()),
            );
        }
        if let Some(topology) = &sr.topology {
            let placement = outcome.schedule.placement.as_ref().expect("placed above");
            push_field(&mut reply, "topology", topology_rows(topology));
            push_field(
                &mut reply,
                "policy",
                Value::String(sr.policy.label(topology)),
            );
            push_field(
                &mut reply,
                "fragmentation",
                fragmentation_summary(topology, placement),
            );
        }
        if let Some(tenant) = &sr.tenant {
            push_field(&mut reply, "tenant", tenant_echo(tenant));
        }
        serde_json::to_string(&reply).expect("shim serialization is infallible")
    });
    let mut out = Vec::with_capacity(text.len() + 128);
    tracer
        .time("svc.write", || {
            Response::json(text).write_to(&mut out, true)
        })
        .map_err(|e| e.to_string())?;
    Ok(out)
}

/// The framed bytes `App::respond_parts` would put on the wire.
fn framed(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(resp.body.len() + 128);
    resp.write_to(&mut out, true)
        .expect("writing to memory cannot fail");
    out
}

/// The traced run: a TCP session for the server's own counters, then a
/// seeded sample replayed in process, stage by stage and through
/// `App::respond_parts`.
pub fn traced(cfg: &Config, spans_out: &std::path::Path) -> Result<Outcome, String> {
    let Session {
        server,
        reqs,
        result,
        ..
    } = session(cfg)?;
    let metrics_doc: Value = get(server.addr, "/metrics")
        .ok()
        .and_then(|r| {
            std::str::from_utf8(&r.body)
                .ok()
                .and_then(|t| serde_json::from_str::<Value>(t).ok())
        })
        .ok_or("cannot read /metrics")?;
    drop(server);
    loadgen_line(&result);
    let r = &result;
    let mut m = Metrics::default();
    let requests = metrics_doc["requests_total"].as_f64().unwrap_or(0.0);
    let busy = metrics_doc["service_time"]["busy_seconds_total"]
        .as_f64()
        .unwrap_or(0.0);
    let ratio = |hits: &str, misses: &str| {
        let h = metrics_doc["cache"][hits].as_f64().unwrap_or(0.0);
        let x = metrics_doc["cache"][misses].as_f64().unwrap_or(0.0);
        if h + x > 0.0 {
            h / (h + x)
        } else {
            0.0
        }
    };
    let server_busy_us = if requests > 0.0 {
        busy / requests * 1e6
    } else {
        0.0
    };
    m.set("svc.server_busy_us", server_busy_us);
    m.set(
        "svc.client_wait_us",
        r.latencies.iter().map(|&(_, ms)| ms * 1e3).sum::<f64>()
            / r.latencies.len().max(1) as f64
            - server_busy_us,
    );
    m.set("svc.cache_hit_ratio", ratio("hits", "misses"));
    m.set("svc.memo_hit_ratio", ratio("body_hits", "body_misses"));
    m.set("loadgen.cpu_s", r.cpu_s);
    m.set("loadgen.threads", CLIENTS as f64);
    m.set("loadgen.connections", CLIENTS as f64);

    // The replay sample: every hot body, or a seeded draw of cold
    // requests the loop may or may not have reached.
    let sample: Vec<u64> = match cfg.path {
        Path::Hot => (0..HOT_BODIES as u64).collect(),
        Path::Cold => (0..COLD_TRACE_SAMPLE as u64)
            .map(|j| crate::splitmix(cfg.seed ^ 0x7EACE ^ j) % 1_000_000)
            .collect(),
    };
    let reps = match cfg.path {
        Path::Hot => HOT_TRACE_REPS,
        Path::Cold => 1,
    };
    let bodies: Vec<String> = sample
        .iter()
        .map(|&i| reqs.get(i).body.into_owned())
        .collect();

    // Each replayed request runs twice, in alternating order: untraced
    // (read → `respond_parts` with caches off → write: the tracing
    // overhead's baseline and the miss-path respond time) and staged
    // under the tracer, whose bytes must equal the untraced ones.
    let miss_app = in_process_app(cfg.path, 0);
    let tracer = Arc::new(Tracer::default());
    let solver = TracedSolver::new(Arc::clone(&tracer));
    let mut engine = QuotaEngine::new(quotas_from_str(NEVER_DENY).expect("valid quota file"));
    let (mut untraced_wall, mut traced_wall) = (0.0, 0.0);
    let mut miss_respond = Vec::new();
    let mut mismatches = 0u64;
    let first_batch = tracer.group() + 1;
    let mut turn = 0usize;
    for body in &bodies {
        for _ in 0..reps {
            turn += 1;
            let mut untraced = || -> Result<Vec<u8>, String> {
                let t0 = Instant::now();
                let mut framed_req = Vec::new();
                write_request(&mut framed_req, "POST", "/v1/solve", body.as_bytes())
                    .map_err(|e| e.to_string())?;
                let mut reader = RequestReader::new();
                let mut cursor = Cursor::new(framed_req);
                let parts = reader
                    .read(&mut cursor, usize::MAX)
                    .map_err(|e| e.to_string())?;
                let t1 = Instant::now();
                let resp = miss_app.respond_parts(parts.method, parts.path, parts.body);
                miss_respond.push(t1.elapsed().as_secs_f64());
                let bytes = framed(&resp);
                untraced_wall += t0.elapsed().as_secs_f64();
                Ok(bytes)
            };
            let mut traced = || {
                let t0 = Instant::now();
                let got = tracer.time("replay.request", || {
                    staged(body.as_bytes(), &tracer, &solver, &mut engine)
                });
                traced_wall += t0.elapsed().as_secs_f64();
                got
            };
            let (expected, got) = if turn.is_multiple_of(2) {
                let expected = untraced()?;
                (expected, traced())
            } else {
                let got = traced();
                (untraced()?, got)
            };
            if got.as_ref().ok() != Some(&expected) {
                mismatches += 1;
            }
        }
    }
    let (captured, probes) = solver.take();
    let mut counts = StageCounts::default();
    mismatches += replay_probes(
        &captured,
        first_batch,
        &probes,
        &LinearParams::new(eps()),
        &tracer,
        &mut counts,
    );

    // Respond time as the server's workers see it: the hit path on the
    // hot sample (memo warmed first), the miss path on the cold one.
    let respond_us = match cfg.path {
        Path::Cold => mean(&miss_respond) * 1e6,
        Path::Hot => {
            let app = in_process_app(Path::Hot, AppConfig::default().cache_entries);
            let mut times = Vec::new();
            for body in &bodies {
                app.respond_parts("POST", "/v1/solve", body.as_bytes());
                for _ in 0..reps {
                    let t0 = Instant::now();
                    let resp = app.respond_parts("POST", "/v1/solve", body.as_bytes());
                    times.push(t0.elapsed().as_secs_f64());
                    std::hint::black_box(resp);
                }
            }
            mean(&times) * 1e6
        }
    };

    let spans = tracer.spans();
    let stats = by_name(&spans);
    let per_request = (bodies.len() * reps) as f64;
    let us = |name: &str| stats.get(name).map_or(0.0, |s| s.total_s) / per_request * 1e6;
    let mean_us = |name: &str| {
        stats
            .get(name)
            .map_or(0.0, |s| s.total_s / s.count as f64 * 1e6)
    };
    crate::sched_metrics(&stats, &counts, &mut m);
    m.set(
        "sched.place_s",
        stats.get("sched.place").map_or(0.0, |s| s.total_s),
    );
    m.set(
        "sched.validate_s",
        stats.get("sched.validate").map_or(0.0, |s| s.total_s),
    );
    m.set("sched.admit_us", mean_us("sched.admit"));
    m.set("core.view_build_us", mean_us("core.view_build"));
    m.set("core.canonical_hash_us", mean_us("core.canonical_hash"));
    m.set("svc.read_us", us("svc.read"));
    m.set("svc.parse_us", us("svc.parse"));
    m.set("svc.serialize_us", us("svc.serialize"));
    m.set("svc.write_us", us("svc.write"));
    m.set("svc.respond_us", respond_us);
    // The stages `respond_parts` runs with caches off (no cache key, so
    // no canonical hash).
    let stages: f64 = [
        "svc.parse",
        "sched.admit",
        "core.view_build",
        "sched.solve",
        "sched.place",
        "sched.validate",
        "svc.serialize",
    ]
    .iter()
    .map(|n| us(n))
    .sum();
    m.set("svc.unattributed_us", mean(&miss_respond) * 1e6 - stages);
    m.set("trace.overhead_s", traced_wall - untraced_wall);
    m.set("trace.mismatches", mismatches as f64);
    if let Err(e) = tracer.write_jsonl(spans_out) {
        eprintln!(
            "warning: could not write spans to {}: {e}",
            spans_out.display()
        );
    }
    eprintln!(
        "svc trace: {} spans over {} replayed requests, untraced {untraced_wall:.3} s, traced {traced_wall:.3} s",
        spans.len(),
        per_request
    );
    Ok(Outcome {
        attempted: r.attempted + per_request as u64,
        failed: r.failed + mismatches,
        checks_ok: mismatches == 0,
        metrics: m,
    })
}
