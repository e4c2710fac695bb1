#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the moldable scheduler.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `moldable-svc` binary and the
benchmark binary `moldable-perfbench` (release, offline: every dependency is
a local path) into $CARGO_TARGET_DIR (default `.bench_build`), then runs it
and relays its output. Build logs and diagnostics go to stderr; the last
stdout line is the JSON result. Workloads and metrics are described in
perfbench/WORKLOADS.md.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Longer than any run needs, shorter than the 180 s a run may take.
RUN_TIMEOUT_S = 170


def main() -> int:
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "moldable-svc"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print(f"error: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "moldable-perfbench"), *sys.argv[1:],
           "--svc-bin", os.path.join(release, "moldable-svc"),
           "--work-dir", os.path.join(target, "perfbench")]
    # Its own process group, so a timeout also stops the server it runs.
    bench = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        print(f"error: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
