//! `moldable simulate` end to end: the built binary replays the bundled
//! SWF trace through the streaming engine. The pinned numbers are the
//! epoch scheme's answer on this trace; the knob checks prove that a
//! trace run honours the same options as a Lublin run. A 16-user
//! fair-share Lublin run lowered onto a topology is pinned whole. Plan mode
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
fn multi_user_fairshare_replay_is_pinned() {
    // Sixteen skewed users competing for 32-job batches under fair-share,
    // lowered onto nodes: the whole report but its wall time. A change in
    // when the weights are read, or in which jobs a re-plan picks, moves
    // the per-user rows.
    let out = moldable(&[
        "simulate",
        "--model",
        "lublin",
        "--n",
        "1000",
        "--m",
        "256",
        "--seed",
        "3",
        "--gap",
        "1",
        "--users",
        "16",
        "--user-skew",
        "2",
        "--max-batch",
        "32",
        "--fairshare",
        "on",
        "--half-life",
        "600",
        "--topology",
        "8*2*16",
        "--policy",
        "packed:node",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: Value = serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap())
        .expect("simulate prints JSON");
    let Value::Object(mut fields) = report else {
        panic!("the report is an object");
    };
    fields.retain(|(key, _)| key != "wall_seconds");
    let user = |user: u64, jobs: u64, max: f64, mean: f64, flow: f64| {
        json!({
            "user": user,
            "jobs": jobs,
            "max_stretch": max,
            "mean_stretch": mean,
            "weighted_flow": flow,
        })
    };
    let level = |name: &str, mean: f64, max: u64, peak: f64| {
        json!({
            "level": name,
            "jobs": 1000,
            "mean_span": mean,
            "max_span": max,
            "peak_epoch_mean": peak,
        })
    };
    let want = json!({
        "source": "lublin(n=1000, m=256, seed=3, downey)",
        "m": 256,
        "algo": "linear",
        "jobs": 1000,
        "epochs": 39,
        "max_batch": 32,
        "makespan": 1_836_708_608.0,
        "peak_pending": 993,
        "fairness": json!({
            "max_stretch": 1744019.6306818181,
            "mean_stretch": 62644.17464323758,
            "users_reported": 16,
            "users_total": 16,
            "users": json!([
                user(13, 3, 23223.47338532781, 12415.760135895242, 1310155467.8631606),
                user(9, 6, 80027.12370633894, 27035.741185465944, 1121106924.0972059),
                user(0, 624, 1410042.759622938, 70995.41032963169, 1068109293.4770727),
                user(15, 5, 42500.962797666485, 12998.152713374504, 1031195567.4074637),
                user(1, 151, 1744019.6306818181, 55853.25369088529, 878909608.6455718),
                user(10, 2, 91237.94516746412, 51268.75282625844, 863736942.6876105),
                user(5, 27, 964462.8575042159, 83911.56526723986, 850836145.3937783),
                user(4, 31, 138943.2777051324, 23273.939412871576, 703181244.5576234),
                user(11, 4, 20862.63480326143, 9885.691309552232, 702896844.6155673),
                user(8, 4, 92973.01014729952, 41450.052660424706, 609536833.9431078),
                user(2, 74, 1050654.437352246, 55603.126692769416, 585028118.8016137),
                user(14, 1, 1499.6593020236733, 1499.6593020236733, 490_950_964.0),
                user(3, 45, 293985.0898760331, 28469.55455094929, 359243448.7756212),
                user(6, 13, 208652.12165112124, 30475.84497158167, 285826123.13327163),
                user(7, 8, 115332.9599812412, 43641.465683755494, 220191221.40137067),
                user(12, 2, 207151.7152016197, 103590.617064589, 211922079.84576833),
            ]),
        }),
        "fragmentation": json!({
            "epochs": 39,
            "levels": json!([
                level("node", 1.075, 5, 3.0),
                level("socket", 1.209, 9, 5.0),
                level("core", 5.034, 130, 73.0),
            ]),
        }),
        "fairshare": json!({ "half_life": 600 }),
    });
    assert_eq!(Value::Object(fields), want);
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
