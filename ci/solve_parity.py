#!/usr/bin/env python3
"""Service/CLI parity check for the CI smoke.

Builds a `/v1/solve` body from an instance file, POSTs it to a running
`moldable-svc`, and asserts the service's answer equals the CLI `solve`
output for the same instance/algo/eps: the parsed bodies are equal as a
whole (the CLI pretty-prints the service body), and the serialized
makespan token is byte-identical.

With --placements, the request asks for wire-format v2 placement rows
(the body gains `"placements": true`, the CLI run must have used
`--place`) and the script additionally validates them structurally:
every job's processor-set size equals its allotment, the ranges are
within [0, m), and no two jobs overlapping in time share a processor.

With --topology SPEC (plus optional --policy P), the request carries
the wire-format v3 topology fields (the CLI run must have used the same
--topology/--policy flags), the expected schema becomes 3, and the
placements are validated the same way. --max-level-span LEVEL:N
additionally bounds every placement row's locality at LEVEL (e.g.
`node:1` asserts a packed placement never crosses a node).

Usage: python3 ci/solve_parity.py ADDR INSTANCE.json CLI_SOLVE_OUTPUT.json
       [--algo linear] [--eps 1/4] [--placements]
       [--topology SPEC] [--policy P] [--max-level-span LEVEL:N]
"""

import argparse
import json
import re
import sys
import urllib.request
from fractions import Fraction


def makespan_token(text):
    """The raw serialized makespan value, for byte-level comparison."""
    match = re.search(r'"makespan"\s*:\s*([^,}\s]+)', text)
    assert match, f"no makespan field in: {text[:200]}"
    return match.group(1)


def check_placements(reply, m):
    """Structural validity of a v2 `placements` array."""
    placements = reply["placements"]
    assignments = {row["job"]: row for row in reply["assignments"]}
    assert len(placements) == len(assignments), \
        f"{len(placements)} placement rows for {len(assignments)} assignments"
    spans = []
    for row in placements:
        procs = set()
        for lo, hi in row["procs"]:
            assert 0 <= lo <= hi < m, f"job {row['job']}: range [{lo}, {hi}] outside [0, {m})"
            procs |= set(range(lo, hi + 1))
        assigned = assignments[row["job"]]
        assert len(procs) == assigned["procs"], \
            f"job {row['job']}: {len(procs)} processors placed, allotment {assigned['procs']}"
        start = Fraction(int(row["start_num"]), int(row["start_den"]))
        end = Fraction(int(row["end_num"]), int(row["end_den"]))
        assert start < end, f"job {row['job']}: empty interval"
        spans.append((row["job"], start, end, procs))
    for i, (job_a, start_a, end_a, procs_a) in enumerate(spans):
        for job_b, start_b, end_b, procs_b in spans[i + 1:]:
            if start_a < end_b and start_b < end_a:
                shared = procs_a & procs_b
                assert not shared, \
                    f"jobs {job_a} and {job_b} share processors {sorted(shared)[:8]}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("addr", help="service address, HOST:PORT")
    parser.add_argument("instance", help="instance JSON file (CLI `generate` output)")
    parser.add_argument("cli_output", help="CLI `solve` JSON output for the same instance")
    parser.add_argument("--algo", default="linear")
    parser.add_argument("--eps", default="1/4")
    parser.add_argument("--placements", action="store_true",
                        help="request and validate wire-format v2 placement rows")
    parser.add_argument("--topology", default=None,
                        help="wire-format v3 topology spec (e.g. 4*2*32)")
    parser.add_argument("--policy", default=None,
                        help="placement policy sent with --topology")
    parser.add_argument("--max-level-span", default=None, metavar="LEVEL:N",
                        help="assert every placement's locality at LEVEL is <= N")
    args = parser.parse_args()

    with open(args.instance) as f:
        instance = json.load(f)
    request_body = {"instance": instance, "algo": args.algo, "eps": args.eps}
    if args.placements:
        request_body["placements"] = True
    if args.topology:
        request_body["topology"] = args.topology
        if args.policy:
            request_body["policy"] = args.policy
    body = json.dumps(request_body).encode()
    request = urllib.request.Request(
        f"http://{args.addr}/v1/solve", data=body,
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=30) as resp:
        assert resp.status == 200, f"/v1/solve returned {resp.status}"
        svc_text = resp.read().decode()
    svc = json.loads(svc_text)

    with open(args.cli_output) as f:
        cli_text = f.read()
    cli = json.loads(cli_text)

    svc_token, cli_token = makespan_token(svc_text), makespan_token(cli_text)
    assert svc_token == cli_token, \
        f"serialized makespans differ: service {svc_token} vs CLI {cli_token}"
    differing = sorted(k for k in set(svc) | set(cli) if svc.get(k) != cli.get(k))
    assert not differing, f"CLI output differs from the service reply in {differing}"
    expected_schema = 3 if args.topology else 2
    assert svc["schema"] == expected_schema, f"unexpected schema: {svc.get('schema')}"
    if args.topology or args.placements:
        check_placements(svc, instance["m"])
        print(f"placements ok: {len(svc['placements'])} rows validated "
              f"(disjoint, sized, in range)")
    else:
        assert "placements" not in svc, "placements present without being requested"
    if args.max_level_span:
        level, bound = args.max_level_span.rsplit(":", 1)
        bound = int(bound)
        for row in svc["placements"]:
            span = row["locality"][level]
            assert span <= bound, \
                f"job {row['job']} spans {span} {level} blocks (bound {bound})"
        print(f"locality ok: every placement within {bound} {level} block(s)")
    print(f"parity ok: whole body equal, makespan {svc_token}, "
          f"{len(svc['assignments'])} assignments (algo {args.algo}, eps {args.eps})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
