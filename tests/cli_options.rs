//! `moldable` options end to end: the help text names every registry
//! solver, and `--eps` takes exactly the fractions the service's `"eps"`
//! field takes — N/D in (0, 1] with a reduced denominator of at most
//! 1000 — failing with the typed `bad-request` envelope otherwise.
//! `moldable-svc` refuses an option it does not know, such as the removed
//! `--shards`, instead of serving without it, and so do every `moldable`
//! command and `moldable-loadgen`: a misspelled option fails instead of
//! silently taking its default, while every option of the usage text is
//! still taken. A valued option given last, with no value after it, is
//! refused by all three binaries too. `generate` refuses to write an
//! instance without jobs.

use moldable::sched::SOLVER_NAMES;
use serde_json::Value;
use std::process::{Command, Output};

fn moldable(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_moldable"))
        .args(args)
        .output()
        .expect("the moldable binary runs")
}

fn loadgen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_moldable-loadgen"))
        .args(args)
        .output()
        .expect("the moldable-loadgen binary runs")
}

/// The `bad-request` envelope a failed command prints, with its detail.
fn bad_request(out: &Output) -> String {
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let envelope: Value = serde_json::from_str(&stderr).expect("a typed error");
    assert_eq!(envelope["error"]["kind"].as_str(), Some("bad-request"));
    envelope["error"]["detail"].as_str().unwrap().to_string()
}

/// Every `--option` of a usage fragment and whether it takes a value: one
/// written `[--name]` is a switch, any other takes the token after it.
fn usage_options(text: &str) -> Vec<(String, bool)> {
    text.split_whitespace()
        .map(|t| t.trim_start_matches('['))
        .filter(|t| t.starts_with("--"))
        .map(|t| (t.trim_end_matches(']').to_string(), !t.ends_with(']')))
        .collect()
}

/// Arguments passing every option of `options`, each with the value `x`:
/// enough to get past option checking, and bad enough to fail right after.
fn with_dummy_values(options: &[(String, bool)]) -> Vec<String> {
    let mut args = Vec::new();
    for (name, takes_value) in options {
        args.push(name.clone());
        if *takes_value {
            args.push("x".into());
        }
    }
    args
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

#[test]
fn svc_refuses_unknown_options() {
    for removed in ["--shards", "--cache-shards"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_moldable-svc"))
            .args(["--addr", "127.0.0.1:0", removed, "2"])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("the moldable-svc binary runs");
        // A server that started anyway would never exit: stop it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let status = loop {
            if let Some(status) = child.try_wait().unwrap() {
                break status;
            }
            if std::time::Instant::now() > deadline {
                child.kill().unwrap();
                child.wait().unwrap();
                panic!("moldable-svc started with {removed}");
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        assert_eq!(status.code(), Some(1), "{removed}");
        let mut stderr = String::new();
        std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
        assert!(
            stderr.contains(&format!("unknown option `{removed}`")),
            "{stderr}"
        );
    }
}

#[test]
fn a_misspelled_option_is_refused() {
    let out = moldable(&[
        "solve",
        "--input",
        "inst.json",
        "--algo",
        "linear",
        "--esp",
        "1/8",
    ]);
    let detail = bad_request(&out);
    assert!(detail.contains("unknown option `--esp`"), "{detail}");
    for cmd in [
        "race", "estimate", "generate", "validate", "simulate", "render",
    ] {
        let detail = bad_request(&moldable(&[cmd, "--inptu", "inst.json"]));
        assert!(
            detail.contains("unknown option `--inptu`"),
            "{cmd}: {detail}"
        );
    }
    // The loadgen refuses before it connects anywhere.
    let out = loadgen(&["--addr", "127.0.0.1:9", "--thread", "2"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option `--thread`"), "{stderr}");
}

#[test]
fn every_usage_option_is_accepted() {
    let out = moldable(&["--help"]);
    let help = String::from_utf8(out.stdout).unwrap();
    let stream = help
        .split("STREAM is ")
        .nth(1)
        .and_then(|rest| rest.split(';').next())
        .expect("the usage defines STREAM");
    let stream = usage_options(stream);
    assert_eq!(stream.len(), 8, "{stream:?}");
    let mut lines = 0;
    for line in help.lines() {
        let Some(rest) = line.trim_start().strip_prefix("moldable ") else {
            continue;
        };
        let cmd = rest.split_whitespace().next().unwrap();
        let mut options = usage_options(rest);
        if rest.contains("[STREAM]") {
            options.extend(stream.iter().cloned());
        }
        let mut args = vec![cmd.to_string()];
        args.extend(with_dummy_values(&options));
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = moldable(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("unknown option"), "{line}: {stderr}");
        lines += 1;
    }
    assert_eq!(lines, 10, "every usage line was tried");

    let out = loadgen(&["--help"]);
    let options = usage_options(&String::from_utf8(out.stdout).unwrap());
    assert_eq!(options.len(), 13, "{options:?}");
    let args = with_dummy_values(&options);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let out = loadgen(&args);
    assert_eq!(out.status.code(), Some(1), "`--addr x` cannot resolve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("unknown option"), "{stderr}");
}

#[test]
fn generate_refuses_an_instance_without_jobs() {
    for family in ["power-law", "amdahl", "comm-overhead", "mixed"] {
        let out = moldable(&[
            "generate", "--family", family, "--n", "0", "--m", "4", "--seed", "1",
        ]);
        let detail = bad_request(&out);
        assert!(
            detail.contains("--n must be at least 1"),
            "{family}: {detail}"
        );
        assert!(out.stdout.is_empty(), "{family}: no instance is written");
    }
    let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/sample.swf");
    let out = moldable(&[
        "generate",
        "--family",
        "swf",
        "--trace",
        trace,
        "--max-jobs",
        "0",
    ]);
    let detail = bad_request(&out);
    assert!(detail.contains("no jobs"), "{detail}");
}

#[test]
fn a_valued_option_given_last_without_its_value_is_refused() {
    let cases: [(&[&str], &str); 7] = [
        (&["solve", "--input", "inst.json", "--algo"], "--algo"),
        (&["race", "--input", "inst.json", "--eps"], "--eps"),
        (&["estimate", "--input"], "--input"),
        (
            &[
                "generate", "--family", "mixed", "--n", "3", "--m", "8", "--seed",
            ],
            "--seed",
        ),
        (
            &["validate", "--input", "inst.json", "--schedule"],
            "--schedule",
        ),
        (
            &[
                "simulate", "--model", "lublin", "--n", "50", "--m", "16", "--seed",
            ],
            "--seed",
        ),
        (
            &[
                "render",
                "--input",
                "inst.json",
                "--schedule",
                "s.json",
                "--out",
            ],
            "--out",
        ),
    ];
    for (args, option) in cases {
        let detail = bad_request(&moldable(args));
        assert_eq!(detail, format!("{option} needs a value"), "{args:?}");
    }

    // The loadgen refuses before it connects anywhere.
    let out = loadgen(&["--addr", "127.0.0.1:9", "--seconds", "1", "--threads"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--threads needs a value"), "{stderr}");

    // The service refuses instead of starting with its default workers;
    // one that starts anyway never exits, so it is stopped after a while.
    let mut child = Command::new(env!("CARGO_BIN_EXE_moldable-svc"))
        .args(["--addr", "127.0.0.1:0", "--workers"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("the moldable-svc binary runs");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if std::time::Instant::now() > deadline {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("moldable-svc started without a --workers value");
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    assert_eq!(status.code(), Some(1));
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    assert!(stderr.contains("--workers needs a value"), "{stderr}");
}
