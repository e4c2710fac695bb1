//! `moldable` options end to end: the help text names every registry
//! solver, and `--eps` takes exactly the fractions the service's `"eps"`
//! field takes — N/D in (0, 1] with a reduced denominator of at most
//! 1000 — failing with the typed `bad-request` envelope otherwise.

use moldable::sched::SOLVER_NAMES;
use serde_json::Value;
use std::process::{Command, Output};

fn moldable(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_moldable"))
        .args(args)
        .output()
        .expect("the moldable binary runs")
}

#[test]
fn help_lists_every_registry_solver() {
    let out = moldable(&["--help"]);
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).unwrap();
    let solve = help
        .lines()
        .find(|l| l.trim_start().starts_with("moldable solve"))
        .expect("a solve usage line");
    let algos = solve
        .split("[--algo ")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("solve lists its --algo values");
    assert_eq!(algos.split('|').collect::<Vec<_>>(), SOLVER_NAMES);
}

#[test]
fn eps_is_bounded_below_by_one_thousandth() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_options_eps");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("inst.json");
    // m < 16n keeps `linear` on the knapsack path, where exact rational
    // arithmetic meets ε's denominator.
    let inst = moldable(&[
        "generate", "--family", "mixed", "--n", "24", "--m", "64", "--seed", "7",
    ]);
    assert!(inst.status.success());
    std::fs::write(&input, &inst.stdout).unwrap();
    let input = input.to_str().unwrap();

    for eps in ["1/1000000000", "500000001/1000000000", "1/1001"] {
        let out = moldable(&["solve", "--input", input, "--algo", "linear", "--eps", eps]);
        assert_eq!(out.status.code(), Some(1), "eps {eps} must be refused");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let envelope: Value = serde_json::from_str(&stderr).expect("a typed error");
        assert_eq!(envelope["error"]["kind"].as_str(), Some("bad-request"));
        assert!(
            envelope["error"]["detail"]
                .as_str()
                .unwrap()
                .contains("too fine"),
            "{stderr}"
        );
    }
    for eps in ["1/1000", "999/1000", "1/4"] {
        let out = moldable(&["solve", "--input", input, "--algo", "linear", "--eps", eps]);
        assert!(
            out.status.success(),
            "eps {eps}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
