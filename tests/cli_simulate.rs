//! `moldable simulate` end to end: the built binary replays the bundled
//! SWF trace through the streaming engine. The pinned numbers are the
//! epoch scheme's answer on this trace; the knob checks prove that a
//! trace run honours the same options as a Lublin run. Plan mode
//! (`--input --schedule`) is pinned on a seeded `generate` → `solve`
//! round trip.

use serde_json::{json, Value};
use std::process::{Command, Output};

const TRACE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/sample.swf");

fn moldable(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_moldable"))
        .args(args)
        .output()
        .expect("the moldable binary runs")
}

/// `simulate --trace sample.swf --max-jobs 64` plus `extra`, parsed.
fn simulate_trace(extra: &[&str]) -> Value {
    let mut args = vec!["simulate", "--trace", TRACE, "--max-jobs", "64"];
    args.extend_from_slice(extra);
    let out = moldable(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap())
        .expect("simulate prints JSON")
}

#[test]
fn trace_replay_reports_the_epoch_scheme_numbers() {
    let report = simulate_trace(&["--report-users", "64"]);
    assert_eq!(report["jobs"].as_u64(), Some(64));
    assert_eq!(report["epochs"].as_u64(), Some(3));
    assert_eq!(report["makespan"].as_f64(), Some(257_683_326.0));
    assert_eq!(
        report["clairvoyant_lower_bound"].as_f64(),
        Some(118_916_146.0)
    );
    assert_eq!(
        report["epoch_table"],
        json!([
            json!({"index": 0, "jobs": 1, "start": 0.0, "end": 6_510_129.0}),
            json!({"index": 1, "jobs": 32, "start": 6_510_129.0, "end": 165_421_058.0}),
            json!({"index": 2, "jobs": 31, "start": 165_421_058.0, "end": 257_683_326.0}),
        ])
    );
    let fairness = &report["fairness"];
    assert_eq!(fairness["users_total"].as_u64(), Some(32));
    assert_eq!(fairness["users"].as_array().unwrap().len(), 32);
    assert_eq!(fairness["max_stretch"].as_f64(), Some(2489.599754176819));
    assert_eq!(fairness["mean_stretch"].as_f64(), Some(134.03335451691325));
}

#[test]
fn trace_replay_honours_the_stream_knobs() {
    // One job per re-plan: one epoch per job.
    let capped = simulate_trace(&["--max-batch", "1"]);
    assert_eq!(capped["epochs"].as_u64(), Some(64));
    assert_eq!(capped["epoch_table"].as_array().unwrap().len(), 64);

    let fair = simulate_trace(&["--fairshare", "on", "--half-life", "10"]);
    assert_eq!(fair["fairshare"]["half_life"].as_u64(), Some(10));

    let two = simulate_trace(&["--report-users", "2"]);
    assert_eq!(two["fairness"]["users"].as_array().unwrap().len(), 2);
    assert_eq!(two["fairness"]["users_total"].as_u64(), Some(32));

    // The default caps the fairness rows at 16.
    let default = simulate_trace(&[]);
    assert_eq!(default["fairness"]["users_reported"].as_u64(), Some(16));
    assert_eq!(default["max_batch"].as_u64(), Some(8192));
}

#[test]
fn engine_option_is_refused() {
    for engine in ["epoch", "event"] {
        let out = moldable(&["simulate", "--engine", engine, "--trace", TRACE]);
        assert!(!out.status.success(), "--engine {engine} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--max-batch 0"), "{stderr}");
    }
}

#[test]
fn plan_mode_reports_the_executed_plan() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_simulate_plan");
    std::fs::create_dir_all(&dir).unwrap();
    let run = |args: &[&str], path: &std::path::Path| {
        let out = moldable(args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::write(path, &out.stdout).unwrap();
    };
    let inst = dir.join("inst.json");
    let plan = dir.join("plan.json");
    run(
        &[
            "generate", "--family", "mixed", "--n", "10", "--m", "4", "--seed", "11",
        ],
        &inst,
    );
    let inst = inst.to_str().unwrap();
    run(&["solve", "--input", inst, "--algo", "linear"], &plan);
    let out = moldable(&[
        "simulate",
        "--input",
        inst,
        "--schedule",
        plan.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: Value = serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap())
        .expect("simulate prints JSON");
    assert_eq!(report["makespan"].as_f64(), Some(30_595_498.0));
    assert_eq!(report["utilization"].as_f64(), Some(0.4921508141491928));
    assert_eq!(report["mean_completion"].as_f64(), Some(17_283_893.1));
    assert_eq!(report["peak_demand"].as_u64(), Some(3));
    assert_eq!(report["jobs_run"].as_u64(), Some(10));
    assert_eq!(report["work_conserved"].as_bool(), Some(true));
    let profile: Vec<(f64, u64)> = report["demand_profile"]
        .as_array()
        .expect("a demand profile")
        .iter()
        .map(|step| (step[0].as_f64().unwrap(), step[1].as_u64().unwrap()))
        .collect();
    assert_eq!(
        profile,
        vec![
            (0.0, 3),
            (6_093_677.0, 2),
            (9_791_881.0, 2),
            (11_372_862.0, 2),
            (12_184_358.0, 2),
            (15_593_114.0, 2),
            (20_315_429.0, 2),
            (21_010_559.0, 2),
            (22_340_331.0, 2),
            (23_541_222.0, 1),
            (30_595_498.0, 0),
        ]
    );
}
