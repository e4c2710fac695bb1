//! `moldable simulate` end to end: the built binary replays the bundled
//! SWF trace through the streaming engine. The pinned numbers are the
//! epoch scheme's answer on this trace; the knob checks prove that a
//! trace run honours the same options as a Lublin run.

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
