#!/usr/bin/env python3
"""Assertions for the streaming-scale CI smoke.

Reads the JSON report `moldable simulate --model lublin` wrote and
checks the run's shape: all jobs streamed, and the pending-queue
high-water mark stayed below a bound (on an unsaturated stream, a tiny
fraction of it: the O(pending) memory witness). A capped run can also be
held to a floor on its epochs, and a fair-share or topology run to the
report blocks those options add.

Usage: python3 ci/lublin_smoke.py REPORT.json [--jobs N] [--max-pending P]
           [--min-epochs E] [--require-block NAME ...]
"""

import argparse
import json
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="JSON report from `moldable simulate --model lublin`")
    parser.add_argument("--jobs", type=int, default=100_000,
                        help="expected job count (default: 100000)")
    parser.add_argument("--max-pending", type=int, default=10_000,
                        help="max allowed pending-queue high-water mark (default: 10000)")
    parser.add_argument("--min-epochs", type=int, default=0,
                        help="least number of epochs the run must report (default: 0)")
    parser.add_argument("--require-block", action="append", default=[], metavar="NAME",
                        help="a top-level report block that must be present (repeatable)")
    args = parser.parse_args()

    with open(args.report) as f:
        report = json.load(f)

    assert report["jobs"] == args.jobs, f"jobs: {report['jobs']} != {args.jobs}"
    assert report["peak_pending"] < args.max_pending, \
        f"peak_pending {report['peak_pending']} >= {args.max_pending}"
    assert report["epochs"] >= args.min_epochs, \
        f"epochs {report['epochs']} < {args.min_epochs}"
    for block in args.require_block:
        assert isinstance(report.get(block), dict), f"no `{block}` block in the report"
    print("streamed", report["jobs"], "jobs in", report["wall_seconds"], "s;",
          "epochs:", report["epochs"], "peak pending:", report["peak_pending"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
