#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

    python3 ci/perf_pairs.py --rev REV --workload W --seeds 1-10 \\
        [--seconds 20] [--out FILE]
    python3 ci/perf_pairs.py --self-test

Compares the revision REV (normally the parent commit) with this
checkout, working tree included. REV is exported with `git archive` into
a temporary directory that is removed on exit; an export, unlike a
`git worktree`, leaves nothing registered in the repository when a run
is interrupted. Each tree runs its own `perfbench/run.py`, which builds
into that tree's own `.bench_build`, so the first pair of a fresh export
waits for one release build before its runs start.

For every seed, one pair: both sides run `--workload W --seed N
--seconds S --trace 0`, the parent first on even pairs and the change
first on odd ones, so neither side always runs on a warmer host.
`--workload` may be given more than once; each workload gets its own
pairs from one export. The script stops, printing the run's output, as
soon as a run exits non-zero, its last stdout line is not a result
object, or it reports `failed` > 0.

For each metric it prints the paired medians, the quartiles of each
side, the ratio of the medians (change / parent) and the number of pairs
the change wins, in the direction `BENCHMARK.json` gives the metric
(ties win nothing). `--out FILE` writes the per-pair rows and that
summary as JSON, in the shape of the `pairs` records of `BENCH_<PR>.json`.
Quartiles interpolate linearly between order statistics
(`statistics.quantiles(..., method="inclusive")`).

`--self-test` checks the arithmetic and the failure checks on synthetic
rows; it builds and runs nothing.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class RunError(Exception):
    """A benchmark run that cannot count: its output explains why."""


def parse_seeds(spec):
    """`1-10`, `3`, `1,4,7` or `1-3,8` as a list of seeds."""
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        lo, hi = int(lo), int(hi or lo)
        if hi < lo:
            raise ValueError(f"empty seed range `{part}`")
        seeds.extend(range(lo, hi + 1))
    return seeds


def directions(benchmark_path):
    """Metric name -> "higher" or "lower", as BENCHMARK.json declares."""
    with open(benchmark_path) as f:
        spec = json.load(f)
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec.get("per_layer", [])}


def read_result(code, stdout, stderr, label):
    """The metric values of one run, or RunError with its output."""
    def fail(why):
        return RunError(f"{label}: {why}\n--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}")

    if code != 0:
        raise fail(f"exit status {code}")
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: float(m["value"]) for name, m in result["metrics"].items()}
        failed = int(result["failed"])
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        raise fail("the last stdout line is not a result object") from None
    if failed > 0:
        raise fail(f"failed = {failed}")
    return metrics


def run_side(tree, workload, seed, seconds, label, runner):
    """Run one side's benchmark once; returns its metric values."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    code, stdout, stderr = runner(cmd, tree, env)
    return read_result(code, stdout, stderr, label)


def subprocess_runner(cmd, cwd, env):
    done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def run_pairs(parent, change, workload, seeds, seconds, runner=subprocess_runner, log=print):
    """One alternating pair per seed: a list of per-pair rows."""
    rows = []
    for k, seed in enumerate(seeds):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        trees = {"parent": parent, "change": change}
        row = {"seed": seed, "first": order[0]}
        for side in order:
            row[side] = run_side(trees[side], workload, seed, seconds,
                                 f"{workload} seed {seed} {side}", runner)
        rows.append(row)
        log(f"{workload} seed {seed}: " + ", ".join(
            f"{side} {row[side].get('jobs_per_s') or row[side].get('req_per_s'):.6g}"
            for side in ("parent", "change")))
    return rows


def quartiles(xs):
    """(q1, median, q3) of `xs`."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarize(rows, better):
    """Per metric: both sides' quartiles, the median ratio and the wins."""
    names = [n for n in better if all(n in r["parent"] and n in r["change"] for r in rows)]
    summary = {}
    for name in names:
        parent = [r["parent"][name] for r in rows]
        change = [r["change"][name] for r in rows]
        p, c = quartiles(parent), quartiles(change)
        if better[name] == "higher":
            wins = sum(b > a for a, b in zip(parent, change))
        else:
            wins = sum(b < a for a, b in zip(parent, change))
        summary[name] = {
            "better": better[name],
            "parent_q1": p[0], "parent_median": p[1], "parent_q3": p[2],
            "change_q1": c[0], "change_median": c[1], "change_q3": c[2],
            "ratio": c[1] / p[1] if p[1] else None,
            "wins": wins,
            "pairs": len(rows),
        }
    return summary


def format_summary(workload, summary):
    lines = [f"{workload}: metric, parent median [q1, q3], change median [q1, q3], "
             "ratio change/parent, pairs won"]
    for name, s in summary.items():
        ratio = "n/a" if s["ratio"] is None else f"{s['ratio']:.4f}"
        lines.append(
            f"  {name:<22} {s['parent_median']:.6g} [{s['parent_q1']:.6g}, {s['parent_q3']:.6g}]"
            f"  {s['change_median']:.6g} [{s['change_q1']:.6g}, {s['change_q3']:.6g}]"
            f"  {ratio}  {s['wins']}/{s['pairs']} ({s['better']} is better)")
    return "\n".join(lines)


def export(rev, dest):
    """Write the tree of `rev` into `dest/tree` (`git archive | tar -x`)."""
    tree = os.path.join(dest, "tree")
    os.mkdir(tree)
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                               cwd=ROOT, stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RunError(f"cannot export `{rev}`")
    return tree


def self_test():
    better = {"jobs_per_s": "higher", "latency_p99_ms": "lower", "setup_s": "lower"}
    assert parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert parse_seeds("5") == [5]
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)

    def result(jobs, p99, setup, failed=0):
        return json.dumps({"correct": True, "attempted": 10, "failed": failed, "metrics": {
            "jobs_per_s": {"value": jobs, "unit": "1/s"},
            "latency_p99_ms": {"value": p99, "unit": "ms"},
            "setup_s": {"value": setup, "unit": "s"}}})

    # Synthetic runs keyed by (tree, seed); the runner records the order.
    runs = {
        ("P", 1): result(100, 0.6, 1e-3), ("C", 1): result(150, 0.2, 1e-3),
        ("P", 2): result(110, 0.5, 1e-3), ("C", 2): result(160, 0.3, 2e-3),
        ("P", 3): result(90, 0.7, 1e-3), ("C", 3): result(80, 0.7, 1e-3),
        ("P", 4): result(105, 0.4, 1e-3), ("C", 4): result(140, 0.1, 1e-3),
    }
    order = []

    def runner(cmd, tree, env):
        seed = int(cmd[cmd.index("--seed") + 1])
        assert env["CARGO_TARGET_DIR"] == os.path.join(tree, ".bench_build")
        assert cmd[1] == os.path.join(tree, "perfbench", "run.py")
        order.append(tree)
        return 0, "building...\n" + runs[(tree, seed)] + "\n", ""

    rows = run_pairs("P", "C", "stream-small", [1, 2, 3, 4], 20, runner, log=lambda _: None)
    assert order == ["P", "C", "C", "P", "P", "C", "C", "P"], order
    assert [r["first"] for r in rows] == ["parent", "change", "parent", "change"]
    s = summarize(rows, better)
    jobs = s["jobs_per_s"]
    assert (jobs["parent_q1"], jobs["parent_median"], jobs["parent_q3"]) == (97.5, 102.5, 106.25)
    assert (jobs["change_q1"], jobs["change_median"], jobs["change_q3"]) == (125.0, 145.0, 152.5)
    assert abs(jobs["ratio"] - 145.0 / 102.5) < 1e-12
    assert jobs["wins"] == 3 and jobs["pairs"] == 4
    # Lower is better; a tie (seed 3) wins nothing.
    assert s["latency_p99_ms"]["wins"] == 3
    assert s["setup_s"]["wins"] == 0
    assert "jobs_per_s" in format_summary("stream-small", s)

    # Each kind of unusable run stops the pairs with its output.
    bad = {
        "exit status 101": (101, result(1, 1, 1), "thread panicked"),
        "not a result object": (0, "no json here\n", ""),
        "failed = 2": (0, result(1, 1, 1, failed=2), ""),
    }
    for why, outcome in bad.items():
        try:
            run_pairs("P", "C", "svc-hot", [1], 20, lambda *_: outcome, log=lambda _: None)
        except RunError as e:
            assert why in str(e) and outcome[1] in str(e), str(e)
        else:
            raise AssertionError(f"a run with {why} was accepted")
    print("perf_pairs self-test ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", help="revision to compare against (e.g. HEAD~1)")
    parser.add_argument("--workload", action="append", help="BENCHMARK.json workload")
    parser.add_argument("--seeds", default="1-10", help="seeds, e.g. 1-10 or 1,3,5")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", help="write the pairs and summary as JSON here")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return 0
    if not args.rev or not args.workload:
        parser.error("--rev and --workload are required")
    seeds = parse_seeds(args.seeds)
    better = directions(os.path.join(ROOT, "BENCHMARK.json"))
    seconds = int(args.seconds) if args.seconds == int(args.seconds) else args.seconds
    # A terminated run still removes its export.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    scratch = tempfile.mkdtemp(prefix="perf-pairs-")
    report = {"rev": args.rev, "seconds": seconds, "seeds": seeds, "workloads": {}}
    try:
        parent = export(args.rev, scratch)
        for workload in args.workload:
            rows = run_pairs(parent, ROOT, workload, seeds, seconds)
            summary = summarize(rows, better)
            print(format_summary(workload, summary), flush=True)
            report["workloads"][workload] = {"pairs": rows, "summary": summary}
    except RunError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
