//! `moldable` — command-line front end.
//!
//! ```text
//! moldable solve    --input inst.json [--algo NAME] [--eps N/D] [--place]
//! moldable race     --input inst.json [--eps N/D] [--place] [--check] [--threads N]
//! moldable estimate --input inst.json
//! moldable generate --family NAME --n N --m M [--seed S]    (writes JSON)
//! moldable validate --input inst.json --schedule sched.json
//! moldable simulate --input inst.json --schedule sched.json
//! moldable render   --input inst.json --schedule sched.json --out fig.svg
//! ```
//!
//! Every command refuses an option its usage lines do not list, and a
//! valued option given last without its value (exit 1, `bad-request`
//! envelope), so neither can silently take its default.
//!
//! Instance files use the compact-descriptor format of
//! [`moldable::core::io`]; schedules are exported/imported as JSON rows
//! `{job, start_num, start_den, procs}`.

use moldable::args::{check_options, flag};
use moldable::core::io::InstanceSpec;
use moldable::prelude::*;
use moldable::sched::batch;
use moldable::sched::solver::{solver_by_name, SOLVER_NAMES};
use moldable::sim::metrics::{demand_profile, peak_demand};
use moldable::sim::{
    clairvoyant_lower_bound, execute, run_stream, ClusterMetrics, EpochTable, FairnessReport,
    FairshareOptions, StreamFragmentation, StreamJob, StreamOptions,
};
use moldable::svc::app::{check_own_quotas, push_field, race_reply, solve_reply};
use moldable::svc::{Failure, SolveRequest};
use moldable::workloads::{
    FitModel, LublinParams, LublinSource, SwfSource, SwfTrace, SynthesisParams, WorkloadSource,
};
use serde_json::{json, Value};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `solve` and `race` run the service pipeline, whose stages set each
    // failure's kind; every other command fails only on its own input.
    let result = match cmd.as_str() {
        "solve" => cmd_solve(&args[1..]),
        "race" => cmd_race(&args[1..]),
        "estimate" => cmd_estimate(&args[1..]).map_err(Failure::bad_request),
        "generate" => cmd_generate(&args[1..]).map_err(Failure::bad_request),
        "validate" => cmd_validate(&args[1..]).map_err(Failure::bad_request),
        "simulate" => cmd_simulate(&args[1..]).map_err(Failure::bad_request),
        "render" => cmd_render(&args[1..]).map_err(Failure::bad_request),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(Failure::bad_request(format!(
            "unknown command `{other}`\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            // The typed envelope the service puts in HTTP error bodies —
            // scripts parse one error shape from either front end.
            eprintln!("{}", failure.envelope());
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  moldable solve    --input FILE [--algo mrt|alg1|alg3|linear|contiguous-73-50|conv-fptas|fptas|ptas|two-approx|sequential|exact] [--eps N/D] [--place] [--topology SPEC] [--policy P] [--tenant SPEC] [--quotas JSON]
  moldable race     --input FILE [--algo NAME] [--eps N/D] [--place] [--check] [--threads N] [--topology SPEC] [--policy P] [--tenant SPEC] [--quotas JSON]
  moldable estimate --input FILE
  moldable generate --family power-law|amdahl|comm-overhead|mixed --n N --m M [--seed S]
  moldable generate --family swf --trace FILE.swf [--m M] [--model amdahl|downey] [--seed S] [--max-jobs N]
  moldable validate --input FILE --schedule FILE
  moldable simulate --input FILE --schedule FILE
  moldable simulate --trace FILE.swf [--m M] [--model amdahl|downey] [--seed S] [--max-jobs N] [STREAM]
  moldable simulate --model lublin --n N [--m M] [--seed S] [--gap SECONDS] [--users U] [--user-skew S] [--fit amdahl|downey] [STREAM]
  moldable render   --input FILE --schedule FILE --out FILE.svg [--width W] [--height H]

eps N/D is a fraction in (0, 1] whose reduced denominator is at most 1000.
solve and race take one request shape; race runs every solver and ignores
--algo, as /v1/race ignores \"algo\".
STREAM is [--max-batch B] [--eps N/D] [--algo NAME] [--topology SPEC]
[--policy P] [--fairshare on|off] [--half-life TICKS] [--report-users N];
--max-batch defaults to 8192, and 0 plans the whole queue at every
re-plan (the exact epoch discipline). --report-users defaults to 16.
topology SPEC is an arity product (\"64*2*32\" = nodes*sockets*cores) or
explicit block lists (\"0-3|4-7;0-1|2-3|4-5|6-7\"); policy P is
contiguous, packed[:LEVEL], or spread[:LEVEL] (default contiguous).
tenant SPEC is user[/project[/class]] (missing parts default to
\"default\"); --quotas takes the wire-format v4 quota-set object,
e.g. '{\"rules\": [{\"user\": \"alice\", \"max_procs\": 8}]}'.";

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn load_instance(args: &[String]) -> Result<Instance, String> {
    let path = flag(args, "--input").ok_or("missing --input FILE")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // One typed pass into the curves; the tree reads a file it refuses
    // again, to name the error.
    if let Some(inst) = moldable::svc::wire::typed::instance(&text) {
        return Ok(inst);
    }
    let spec: InstanceSpec = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    spec.into_instance().map_err(|e| e.to_string())
}

/// `--eps` flag through the service's shared `(0, 1]` fraction grammar
/// ([`moldable::svc::app::parse_eps`]) so CLI and HTTP front ends accept
/// and reject identically.
fn parse_eps(args: &[String]) -> Result<Ratio, String> {
    let raw = flag(args, "--eps").unwrap_or_else(|| "1/4".into());
    moldable::svc::app::parse_eps(&raw)
}

/// The `solve`/`race` request: the instance file plus the shared wire
/// knobs, parsed and cross-checked like a `/v1/*` body.
fn solve_request(args: &[String]) -> Result<(SolveRequest, Instance), Failure> {
    let inst = load_instance(args).map_err(Failure::bad_request)?;
    let req = SolveRequest::from_args(args, &Ratio::new(1, 4)).map_err(Failure::bad_request)?;
    req.check_topology(inst.m()).map_err(Failure::bad_request)?;
    Ok((req, inst))
}

/// `solve`: any registry solver through the service's own stages, in
/// its order (request → solver → in-request quotas → [`solve_reply`]),
/// printing the `/v1/solve` body. `--place` adds the wire-format v2
/// `placements` rows, `--topology SPEC [--policy P]` the v3 fields, and
/// `--tenant` the v4 echo.
fn cmd_solve(args: &[String]) -> Result<(), Failure> {
    check_options(
        args,
        &[
            "--input",
            "--algo",
            "--eps",
            "--place",
            "--topology",
            "--policy",
            "--tenant",
            "--quotas",
        ],
        &["--place"],
    )
    .map_err(Failure::bad_request)?;
    let (req, inst) = solve_request(args)?;
    let solver = solver_by_name(&req.algo, &req.eps)?;
    check_own_quotas(&req, &inst, 0)?;
    let reply = solve_reply(&req, &inst, solver.as_ref())?;
    println!("{}", serde_json::to_string_pretty(&reply).unwrap());
    Ok(())
}

/// `race`: every applicable registry solver through [`race_reply`],
/// printing the `/v1/race` body. With `--check`, fail when
/// `all_bounds_hold` is false, naming the rows whose makespan exceeds
/// their proven ratio bound against the factor-2 estimator — the CI
/// solver-parity gate.
fn cmd_race(args: &[String]) -> Result<(), Failure> {
    check_options(
        args,
        &[
            "--input",
            "--algo",
            "--eps",
            "--place",
            "--check",
            "--threads",
            "--topology",
            "--policy",
            "--tenant",
            "--quotas",
        ],
        &["--place", "--check"],
    )
    .map_err(Failure::bad_request)?;
    let (req, inst) = solve_request(args)?;
    let threads = match flag(args, "--threads") {
        Some(s) => s
            .parse()
            .map_err(|_| Failure::bad_request("bad --threads"))?,
        None => batch::default_threads(SOLVER_NAMES.len()),
    };
    check_own_quotas(&req, &inst, 0)?;
    let reply = race_reply(&req, &inst, threads)?;
    println!("{}", serde_json::to_string_pretty(&reply).unwrap());
    if has_flag(args, "--check") && reply["all_bounds_hold"] == Value::Bool(false) {
        let over: Vec<String> = reply["results"]
            .as_array()
            .expect("race replies carry results")
            .iter()
            .filter(|row| row["bound_holds_vs_2omega"] == Value::Bool(false))
            .map(|row| {
                format!(
                    "{}: makespan {} exceeds {} · 2ω (ω = {})",
                    row["solver"].as_str().unwrap_or_default(),
                    row["makespan"].as_f64().unwrap_or_default(),
                    row["ratio_bound"].as_f64().unwrap_or_default(),
                    reply["omega"].as_u64().unwrap_or_default(),
                )
            })
            .collect();
        return Err(Failure::bad_request(format!(
            "solver-parity check failed:\n  {}",
            over.join("\n  ")
        )));
    }
    Ok(())
}

fn cmd_estimate(args: &[String]) -> Result<(), String> {
    check_options(args, &["--input"], &[])?;
    let inst = load_instance(args)?;
    let est = estimate(&inst);
    let out = json!({
        "omega": est.omega,
        "opt_lower_bound": est.omega,
        "opt_upper_bound": 2 * est.omega,
        "parametric_lower_bound": moldable::core::bounds::parametric_lower_bound(&inst),
    });
    println!("{}", serde_json::to_string_pretty(&out).unwrap());
    Ok(())
}

/// Build an [`SwfSource`] from the `--trace`/`--m`/`--model`/`--seed`/
/// `--max-jobs` flags (shared by `generate --family swf` and
/// `simulate --trace`).
fn swf_source(args: &[String]) -> Result<SwfSource, String> {
    let path = flag(args, "--trace").ok_or("missing --trace FILE.swf")?;
    let trace = SwfTrace::from_path(&path).map_err(|e| e.to_string())?;
    let m: Option<u64> = flag(args, "--m")
        .map(|s| match s.parse() {
            Ok(0) | Err(_) => Err("bad --m (need an integer ≥ 1)"),
            Ok(v) => Ok(v),
        })
        .transpose()?;
    let model = match flag(args, "--model").as_deref() {
        Some("amdahl") => FitModel::Amdahl,
        Some("downey") | None => FitModel::Downey,
        Some(other) => return Err(format!("unknown --model `{other}`")),
    };
    let seed: u64 = flag(args, "--seed")
        .map(|s| s.parse().map_err(|_| "bad --seed"))
        .transpose()?
        .unwrap_or(0);
    let params = SynthesisParams {
        model,
        seed,
        ..SynthesisParams::default()
    };
    let mut source = SwfSource::new(trace, m, params)
        .ok_or("trace header has no MaxProcs/MaxNodes; pass --m M")?;
    if let Some(max) = flag(args, "--max-jobs") {
        source = source.with_max_jobs(max.parse().map_err(|_| "bad --max-jobs")?);
    }
    Ok(source)
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    check_options(
        args,
        &[
            "--family",
            "--n",
            "--m",
            "--seed",
            "--trace",
            "--model",
            "--max-jobs",
        ],
        &[],
    )?;
    let inst = match flag(args, "--family").as_deref() {
        Some("swf") => swf_source(args)?.offline_instance(),
        family => {
            let family = match family {
                Some("power-law") | None => BenchFamily::PowerLaw,
                Some("amdahl") => BenchFamily::Amdahl,
                Some("comm-overhead") => BenchFamily::CommOverhead,
                Some("mixed") => BenchFamily::Mixed,
                Some(other) => return Err(format!("unknown family `{other}`")),
            };
            let n: usize = flag(args, "--n")
                .ok_or("missing --n")?
                .parse()
                .map_err(|_| "bad --n")?;
            if n == 0 {
                // Every command that loads an instance refuses an empty one.
                return Err("--n must be at least 1".into());
            }
            let m: u64 = flag(args, "--m")
                .ok_or("missing --m")?
                .parse()
                .map_err(|_| "bad --m")?;
            let seed: u64 = flag(args, "--seed")
                .map(|s| s.parse().map_err(|_| "bad --seed"))
                .transpose()?
                .unwrap_or(0);
            bench_instance(family, n, m, seed)
        }
    };
    if inst.n() == 0 {
        // A trace window can be empty too (`--max-jobs 0`).
        return Err("the instance has no jobs".into());
    }
    let spec = InstanceSpec::from_instance(&inst).ok_or("unserializable instance")?;
    // Compact: an instance file is read back by programs, and at 10⁴–10⁵
    // jobs loading it is most of `solve`, `validate` and plan `simulate`.
    println!("{}", serde_json::to_string(&spec).unwrap());
    Ok(())
}

fn load_schedule(args: &[String]) -> Result<Schedule, String> {
    let path = flag(args, "--schedule").ok_or("missing --schedule FILE")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let value: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let rows = value
        .get("assignments")
        .and_then(Value::as_array)
        .or_else(|| value.as_array())
        .ok_or("schedule file must be an array or contain `assignments`")?;
    let mut s = Schedule::new();
    for row in rows {
        let job = row["job"].as_u64().ok_or("row missing job")?;
        let job = u32::try_from(job).map_err(|_| format!("job {job} is not a job index"))?;
        // Starts are u64 over a positive u64, the range of every time an
        // instance holds: a u128 start overflowed the first `Ratio` sum.
        let num: u64 = row["start_num"]
            .as_str()
            .ok_or("row missing start_num")?
            .parse()
            .map_err(|_| format!("job {job}: start_num must be a u64"))?;
        let den: u64 = row["start_den"]
            .as_str()
            .ok_or("row missing start_den")?
            .parse()
            .map_err(|_| format!("job {job}: start_den must be a u64"))?;
        if den == 0 {
            return Err(format!("job {job}: start_den must be positive"));
        }
        let procs = row["procs"].as_u64().ok_or("row missing procs")?;
        s.push(job, Ratio::new(num.into(), den.into()), procs);
    }
    Ok(s)
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    check_options(args, &["--input", "--schedule"], &[])?;
    let inst = load_instance(args)?;
    let s = load_schedule(args)?;
    validate(&s, &inst).map_err(|e| e.to_string())?;
    println!(
        "valid schedule: makespan = {}, work = {}",
        s.makespan(&inst),
        s.total_work(&inst)
    );
    Ok(())
}

/// Resolve the `--algo` flag to a facade solver, rejecting `exact`
/// (stream batch sizes are workload-dependent and unbounded; the
/// exhaustive solver's search-space guard would abort mid-run).
fn online_solver(
    args: &[String],
    eps: &Ratio,
) -> Result<(String, Box<dyn moldable::sched::solver::MakespanSolver>), String> {
    let algo_name = flag(args, "--algo").unwrap_or_else(|| "linear".into());
    if algo_name == "exact" {
        return Err(
            "--algo exact cannot plan online batches (batch sizes are unbounded); \
             use `solve` on an offline instance instead"
                .into(),
        );
    }
    let solver = solver_by_name(&algo_name, eps).map_err(|e| e.to_string())?;
    Ok((algo_name, solver))
}

/// Fairness block of a simulate report (top `cap` users by weighted flow).
fn fairness_json(fairness: &FairnessReport, cap: usize) -> Value {
    json!({
        "max_stretch": fairness.max_stretch.to_f64(),
        "mean_stretch": fairness.mean_stretch.to_f64(),
        "users_reported": fairness.users.len().min(cap),
        "users_total": fairness.users.len(),
        "users": fairness
            .users
            .iter()
            .take(cap)
            .map(|u| json!({
                "user": u.user,
                "jobs": u.jobs,
                "max_stretch": u.max_stretch.to_f64(),
                "mean_stretch": u.mean_stretch.to_f64(),
                "weighted_flow": u.weighted_flow.to_f64(),
            }))
            .collect::<Vec<_>>(),
    })
}

/// `--topology SPEC [--policy P]` for the streaming engine: parse the
/// hierarchy, reject a machine-size mismatch up front (the engine would
/// too, but the CLI error names the flag), and resolve the policy
/// against the topology's level names.
fn stream_topology(
    args: &[String],
    m: u64,
) -> Result<
    (
        Option<moldable::core::hierarchy::Topology>,
        moldable::sched::PlacementPolicy,
    ),
    String,
> {
    let Some(spec) = flag(args, "--topology") else {
        if flag(args, "--policy").is_some() {
            return Err("--policy requires --topology".into());
        }
        return Ok((None, moldable::sched::PlacementPolicy::default()));
    };
    let topology = moldable::core::hierarchy::Topology::parse(&spec)
        .map_err(|e| format!("bad --topology: {e}"))?;
    if topology.m() != m {
        return Err(format!(
            "--topology covers {} processors but the workload runs on m = {m}",
            topology.m()
        ));
    }
    let policy = match flag(args, "--policy") {
        Some(raw) => moldable::sched::PlacementPolicy::parse(&raw, &topology)
            .map_err(|e| format!("bad --policy: {e}"))?,
        None => moldable::sched::PlacementPolicy::default(),
    };
    Ok((Some(topology), policy))
}

/// `--fairshare on|off [--half-life TICKS]` for the streaming engine:
/// `off` (the default) is the FIFO snapshot discipline, byte-identical
/// to earlier releases; `on` orders re-plan snapshots by the decayed
/// fair-share weights.
fn stream_fairshare(args: &[String]) -> Result<Option<FairshareOptions>, String> {
    let on = match flag(args, "--fairshare").as_deref() {
        None | Some("off") => false,
        Some("on") => true,
        Some(other) => return Err(format!("unknown --fairshare `{other}` (on|off)")),
    };
    if !on {
        if flag(args, "--half-life").is_some() {
            return Err("--half-life requires --fairshare on".into());
        }
        return Ok(None);
    }
    let half_life = match flag(args, "--half-life") {
        Some(s) => match s.parse::<u64>() {
            Ok(v) if v > 0 => v,
            _ => return Err("bad --half-life (need an integer ≥ 1)".into()),
        },
        None => FairshareOptions::default().half_life,
    };
    Ok(Some(FairshareOptions { half_life }))
}

/// Fragmentation block of a streaming simulate report: one row per
/// topology level with the run-lifetime locality trend.
fn stream_fragmentation_json(frag: &StreamFragmentation) -> Value {
    json!({
        "epochs": frag.epochs,
        "levels": frag
            .levels
            .iter()
            .map(|l| json!({
                "level": l.level,
                "jobs": l.jobs,
                "mean_span": l.mean_span(),
                "max_span": l.max_span,
                "peak_epoch_mean": l.peak_epoch_mean,
            }))
            .collect::<Vec<_>>(),
    })
}

/// `simulate --model lublin` / `simulate --trace`: drive a lazily
/// generated or recorded arrival stream through the streaming engine.
/// Metrics are computed online; a trace, which is in memory anyway, also
/// reports its clairvoyant lower bound and the per-epoch table folded
/// from the engine's observations.
fn cmd_simulate_stream(args: &[String]) -> Result<(), String> {
    let eps = parse_eps(args)?;
    let (algo_name, solver) = online_solver(args, &eps)?;
    // Fairness rows in the report, capped at the top `--report-users` by
    // weighted flow; the fair-share overload experiment passes 64 to see
    // every user of its 64-user stream.
    let report_users: usize = flag(args, "--report-users")
        .map(|s| s.parse().map_err(|_| "bad --report-users"))
        .transpose()?
        .unwrap_or(16);

    // The workload source: the Lublin–Feitelson model, or an SWF trace.
    let source: Box<dyn WorkloadSource> = if flag(args, "--model").as_deref() == Some("lublin")
    {
        if flag(args, "--trace").is_some() {
            return Err("--model lublin and --trace are mutually exclusive".into());
        }
        let n: usize = flag(args, "--n")
            .ok_or("missing --n (jobs to synthesize)")?
            .parse()
            .map_err(|_| "bad --n")?;
        let m: u64 = flag(args, "--m")
            .map(|s| match s.parse() {
                Ok(v) if v >= 2 => Ok(v),
                _ => Err("bad --m (lublin needs an integer ≥ 2)"),
            })
            .transpose()?
            .unwrap_or(256);
        let seed: u64 = flag(args, "--seed")
            .map(|s| s.parse().map_err(|_| "bad --seed"))
            .transpose()?
            .unwrap_or(0);
        let mut params = LublinParams::new(m, n, seed);
        if let Some(gap) = flag(args, "--gap") {
            let gap: f64 = gap.parse().map_err(|_| "bad --gap (seconds)")?;
            if gap <= 0.0 {
                return Err("--gap must be positive".into());
            }
            params = params.with_mean_interarrival(gap);
        }
        if let Some(users) = flag(args, "--users") {
            params.users = users.parse().map_err(|_| "bad --users")?;
        }
        if let Some(skew) = flag(args, "--user-skew") {
            let skew: f64 = skew.parse().map_err(|_| "bad --user-skew")?;
            if !(skew >= 0.0 && skew.is_finite()) {
                return Err("--user-skew must be a finite number >= 0".into());
            }
            params = params.with_user_skew(skew);
        }
        params.fit_model = match flag(args, "--fit").as_deref() {
            Some("amdahl") => FitModel::Amdahl,
            Some("downey") | None => FitModel::Downey,
            Some(other) => return Err(format!("unknown --fit `{other}`")),
        };
        Box::new(LublinSource::new(params))
    } else if flag(args, "--trace").is_some() {
        Box::new(swf_source(args)?)
    } else {
        return Err("streaming simulate needs --model lublin or --trace FILE.swf".into());
    };
    let m = source.machine_count();
    let label = source.label();

    let max_batch = match flag(args, "--max-batch") {
        Some(s) => match s.parse::<usize>().map_err(|_| "bad --max-batch")? {
            0 => None, // 0 = unbounded (the exact epoch discipline)
            b => Some(b),
        },
        None => Some(8192),
    };
    let (topology, policy) = stream_topology(args, m)?;
    let fairshare = stream_fairshare(args)?;
    let opts = StreamOptions {
        max_batch,
        topology,
        policy,
        fairshare: fairshare.clone(),
    };

    let started = std::time::Instant::now();
    let jobs = source.stream_iter().map(StreamJob::from);
    let mut epochs = EpochTable::new();
    let (out, lower_bound) = if flag(args, "--trace").is_some() {
        let stream: Vec<StreamJob> = jobs.collect();
        let lb = clairvoyant_lower_bound(&stream, m);
        let out = run_stream(stream, m, solver.as_ref(), &opts, |_, o| epochs.observe(o));
        (out, Some(lb))
    } else {
        (run_stream(jobs, m, solver.as_ref(), &opts, |_, _| {}), None)
    };
    let out = out.map_err(|e| e.to_string())?;
    let mut report = json!({
        "source": label,
        "m": m,
        "algo": algo_name,
        "jobs": out.jobs,
        "epochs": out.epochs,
        "max_batch": max_batch,
        "makespan": out.makespan.to_f64(),
        "peak_pending": out.peak_pending,
        "wall_seconds": started.elapsed().as_secs_f64(),
        "fairness": fairness_json(&out.fairness, report_users),
    });
    if let Some(frag) = &out.fragmentation {
        push_field(
            &mut report,
            "fragmentation",
            stream_fragmentation_json(frag),
        );
    }
    if let Some(fs) = &fairshare {
        // Additive: `--fairshare off` reports stay byte-identical.
        push_field(
            &mut report,
            "fairshare",
            json!({ "half_life": fs.half_life }),
        );
    }
    if let Some(lb) = lower_bound {
        push_field(&mut report, "clairvoyant_lower_bound", json!(lb.to_f64()));
        let rows = epochs.rows().into_iter().enumerate().map(|(index, e)| {
            json!({
                "index": index,
                "jobs": e.jobs,
                "start": e.start.to_f64(),
                "end": e.end.to_f64(),
            })
        });
        push_field(&mut report, "epoch_table", Value::Array(rows.collect()));
    }
    println!("{}", serde_json::to_string_pretty(&report).unwrap());
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    if has_flag(args, "--engine") {
        // Refused rather than ignored: an old `--engine epoch` command
        // must not silently run under a different batch cap.
        return Err(
            "--engine is gone: simulate has one engine; pass --max-batch 0 \
                    for the exact epoch discipline"
                .into(),
        );
    }
    // Plan mode, trace and model streams, and STREAM in [`USAGE`].
    check_options(
        args,
        &[
            "--input",
            "--schedule",
            "--trace",
            "--m",
            "--model",
            "--seed",
            "--max-jobs",
            "--n",
            "--gap",
            "--users",
            "--user-skew",
            "--fit",
            "--max-batch",
            "--eps",
            "--algo",
            "--topology",
            "--policy",
            "--fairshare",
            "--half-life",
            "--report-users",
        ],
        &[],
    )?;
    // Streaming paths: the Lublin–Feitelson model, an SWF trace, or a
    // topology-aware replay.
    if flag(args, "--model").as_deref() == Some("lublin")
        || flag(args, "--trace").is_some()
        || flag(args, "--topology").is_some()
    {
        return cmd_simulate_stream(args);
    }
    let inst = load_instance(args)?;
    let s = load_schedule(args)?;
    let ex = execute(&inst, &s).map_err(|e| e.to_string())?;
    ex.placement.validate(inst.m()).map_err(|e| e.to_string())?;
    let metrics = ClusterMetrics::from_placement(&ex.placement, inst.m());
    let out = json!({
        "makespan": metrics.makespan.to_f64(),
        "utilization": metrics.utilization.to_f64(),
        "mean_completion": metrics.mean_completion.to_f64(),
        "peak_demand": peak_demand(&ex.placement),
        "jobs_run": ex.placement.jobs.len(),
        "work_conserved": metrics.work_conserved(&inst, &s),
        "demand_profile": demand_profile(&ex.placement)
            .iter()
            .map(|(t, u)| json!([t.to_f64(), u]))
            .collect::<Vec<_>>(),
    });
    println!("{}", serde_json::to_string_pretty(&out).unwrap());
    Ok(())
}

fn cmd_render(args: &[String]) -> Result<(), String> {
    check_options(
        args,
        &["--input", "--schedule", "--out", "--width", "--height"],
        &[],
    )?;
    let inst = load_instance(args)?;
    let s = load_schedule(args)?;
    validate(&s, &inst).map_err(|e| e.to_string())?;
    let out_path = flag(args, "--out").ok_or("missing --out FILE.svg")?;
    let width: u32 = flag(args, "--width")
        .map(|v| v.parse().map_err(|_| "bad --width"))
        .transpose()?
        .unwrap_or(800);
    let height: u32 = flag(args, "--height")
        .map(|v| v.parse().map_err(|_| "bad --height"))
        .transpose()?
        .unwrap_or(400);
    let svg = moldable::viz::schedule_svg(&inst, &s, width, height)
        .ok_or("schedule is demand-infeasible")?;
    std::fs::write(&out_path, svg).map_err(|e| format!("{out_path}: {e}"))?;
    println!("wrote {out_path}");
    Ok(())
}
