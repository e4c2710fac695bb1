#!/usr/bin/env bash
# End-to-end service smoke for CI (also runnable locally):
#   1. start `moldable-svc` in the background on one ephemeral port with
#      two workers,
#   2. hit /healthz,
#   3. POST a generated instance to /v1/solve and assert the answer
#      equals CLI `solve` on the same instance as a whole body — once in
#      the v1 shape, once requesting wire-format v2 placement rows (which
#      are also validated structurally: disjoint, sized, in range), and
#      once in the v3 topology shape (packed policy on a 4x2x32
#      hierarchy; every job must stay inside one node) — and that
#      /v1/race equals CLI `race --place`,
#   4. cache consistency: POST the same body twice and assert the
#      responses are byte-identical and /metrics counted a memo hit,
#   5. wire-format v4 admission: an over-quota tenant-tagged solve gets
#      a typed 429 naming the violated rule, the same request under a
#      generous cap answers 200 with bytes identical to the untagged
#      reply modulo the schema bump + tenant echo, and /metrics carries
#      the per-tenant admit/deny counters; a tenant-tagged body POSTed
#      twice answers identical bytes and is admitted both times (the
#      memo never answers a tagged body),
#   6. run a short closed-loop `moldable-loadgen` burst on a
#      repeated-instance (memo-hit) workload and assert zero errors and
#      sustained throughput,
#   7. read /metrics back.
#
# Usage: ci/service_smoke.sh [BURST_SECONDS] [MIN_RPS]
# Expects release binaries in target/release (cargo build --release first).
# Leaves the loadgen report at /tmp/loadgen_report.json for artifact upload.
set -euo pipefail

BURST_SECONDS="${1:-5}"
MIN_RPS="${2:-10000}"
BIN=target/release

$BIN/moldable generate --family mixed --n 12 --m 256 --seed 21 > /tmp/svc_inst.json

$BIN/moldable-svc --addr 127.0.0.1:0 --workers 2 > /tmp/svc_addr.json 2>/tmp/svc_err.log &
SVC_PID=$!
trap 'kill "$SVC_PID" 2>/dev/null || true' EXIT

# The first stdout line is {"listening": "HOST:PORT", "workers": N}.
for _ in $(seq 1 100); do
    [ -s /tmp/svc_addr.json ] && break
    sleep 0.1
done
[ -s /tmp/svc_addr.json ] || { echo "service never came up"; cat /tmp/svc_err.log; exit 1; }
ADDR=$(python3 -c "import json; print(json.load(open('/tmp/svc_addr.json'))['listening'])")
echo "service listening on $ADDR"

curl -fsS "http://$ADDR/healthz"
echo

$BIN/moldable solve --input /tmp/svc_inst.json --algo linear --eps 1/4 > /tmp/cli_solve.json
python3 ci/solve_parity.py "$ADDR" /tmp/svc_inst.json /tmp/cli_solve.json --algo linear --eps 1/4

# Wire-format v2: ask the contiguous solver for concrete processor sets
# and validate the placement rows (CLI/service parity + disjointness).
$BIN/moldable solve --input /tmp/svc_inst.json --algo contiguous-73-50 --eps 1/4 --place > /tmp/cli_place.json
python3 ci/solve_parity.py "$ADDR" /tmp/svc_inst.json /tmp/cli_place.json \
    --algo contiguous-73-50 --eps 1/4 --placements

# Compression+convolution solver: CLI/service parity with placements, so
# the (max,+) kernel path is exercised end-to-end through the wire format.
$BIN/moldable solve --input /tmp/svc_inst.json --algo conv-fptas --eps 1/4 --place > /tmp/cli_conv.json
python3 ci/solve_parity.py "$ADDR" /tmp/svc_inst.json /tmp/cli_conv.json \
    --algo conv-fptas --eps 1/4 --placements

# Wire-format v3: topology-aware lowering. CLI `solve --topology` and
# `/v1/solve` with a topology must agree on every v3 field, and the
# packed policy must keep every job inside one node of the 4x2x32
# hierarchy (the locality contract the policy exists for).
$BIN/moldable solve --input /tmp/svc_inst.json --algo linear --eps 1/4 \
    --topology "4*2*32" --policy packed > /tmp/cli_topo.json
python3 ci/solve_parity.py "$ADDR" /tmp/svc_inst.json /tmp/cli_topo.json \
    --algo linear --eps 1/4 --topology "4*2*32" --policy packed --max-level-span node:1

# Race parity: CLI `race --place` prints the /v1/race body. Race rows do
# not depend on the worker count, so the whole bodies must be equal.
$BIN/moldable race --input /tmp/svc_inst.json --eps 1/4 --place > /tmp/cli_race.json
python3 - "$ADDR" <<'EOF'
import json, sys, urllib.request
addr = sys.argv[1]
inst = json.load(open("/tmp/svc_inst.json"))
body = json.dumps({"instance": inst, "eps": "1/4", "placements": True}).encode()
req = urllib.request.Request(f"http://{addr}/v1/race", data=body, method="POST")
with urllib.request.urlopen(req, timeout=60) as resp:
    svc = json.load(resp)
cli = json.load(open("/tmp/cli_race.json"))
differing = sorted(k for k in set(svc) | set(cli) if svc.get(k) != cli.get(k))
assert not differing, f"CLI race differs from /v1/race in {differing}"
assert svc["all_bounds_hold"], "a solver exceeded its proven bound"
print(f"race parity ok: whole body equal, {len(svc['results'])} solver rows")
EOF

# Cache consistency: the same body served twice must be byte-identical,
# and /metrics must show the repeat was answered from the memo.
python3 - "$ADDR" <<'EOF'
import json, urllib.request
addr = __import__("sys").argv[1]
inst = json.load(open("/tmp/svc_inst.json"))
body = json.dumps({"instance": inst, "algo": "linear", "eps": "1/4"}).encode()

def post(path):
    req = urllib.request.Request(f"http://{addr}{path}", data=body, method="POST")
    with urllib.request.urlopen(req) as resp:
        return resp.read()

first, second = post("/v1/solve"), post("/v1/solve")
assert first == second, "repeated body produced different response bytes"
with urllib.request.urlopen(f"http://{addr}/metrics") as resp:
    cache = json.load(resp)["cache"]
assert cache["enabled"], "response cache is disabled in the smoke"
assert cache["body_hits"] >= 1, f"no memo hit after a repeated body: {cache}"
print(f"cache consistency ok: identical bytes, {cache['body_hits']} memo hit(s)")
EOF

# Wire-format v4 admission: a tenant-tagged request carrying a quota set
# far below the instance's demand must get a typed 429 naming the rule;
# the same request under a generous cap must answer 200 with a body that
# is the untagged reply plus only the schema bump and the tenant echo.
python3 - "$ADDR" <<'EOF'
import json, urllib.error, urllib.request
addr = __import__("sys").argv[1]
inst = json.load(open("/tmp/svc_inst.json"))

def post(payload):
    body = json.dumps(payload).encode()
    req = urllib.request.Request(f"http://{addr}/v1/solve", data=body, method="POST")
    with urllib.request.urlopen(req) as resp:
        return resp.status, json.loads(resp.read())

base = {"instance": inst, "algo": "linear", "eps": "1/4"}
tight = dict(base, tenant={"user": "smoke"},
             quotas={"rules": [{"user": "smoke", "max_procs": 1}]})
try:
    post(tight)
    raise SystemExit("over-quota request was admitted")
except urllib.error.HTTPError as e:
    assert e.code == 429, f"expected 429, got {e.code}"
    envelope = json.loads(e.read())["error"]
    assert envelope["kind"] == "quota-denied", envelope
    assert "smoke/*/*{procs<=1}" in envelope["detail"], envelope

generous = dict(base, tenant={"user": "smoke"},
                quotas={"rules": [{"user": "smoke", "max_procs": inst["m"]}]})
status, tagged = post(generous)
assert status == 200 and tagged["schema"] == 4, tagged
assert tagged["tenant"] == {"user": "smoke", "project": "default", "class": "default"}
_, untagged = post(base)
stripped = {k: v for k, v in tagged.items() if k not in ("schema", "tenant")}
assert stripped == {k: v for k, v in untagged.items() if k != "schema"}, \
    "tenant tag changed the solve beyond schema+echo"
with urllib.request.urlopen(f"http://{addr}/metrics") as resp:
    tenants = json.load(resp)["tenants"]
row = tenants["smoke/default/default"]
assert row["admitted"] >= 1 and row["denied"] >= 1, tenants
print(f"admission ok: typed 429 then identical 200; per-tenant counters {row}")
EOF

# Tenant-tagged repeats: the memo never answers a tagged body, so the
# same tagged body POSTed twice answers identical bytes and is admitted
# both times.
python3 - "$ADDR" <<'EOF'
import json, urllib.request
addr = __import__("sys").argv[1]
inst = json.load(open("/tmp/svc_inst.json"))
body = json.dumps({"instance": inst, "algo": "linear", "eps": "1/4",
                   "tenant": {"user": "repeat"}}).encode()

def post():
    req = urllib.request.Request(f"http://{addr}/v1/solve", data=body, method="POST")
    with urllib.request.urlopen(req) as resp:
        return resp.read()

def admitted():
    with urllib.request.urlopen(f"http://{addr}/metrics") as resp:
        row = json.load(resp)["tenants"].get("repeat/default/default", {})
    return row.get("admitted", 0)

before = admitted()
first, second = post(), post()
assert first == second, "a repeated tagged body produced different bytes"
grown = admitted() - before
assert grown == 2, f"admitted grew by {grown}, not 2: the memo answered a tagged body"
print("tenant repeats ok: identical bytes, admitted twice")
EOF

# Repeated-instance burst (--count 1): after the first request every body
# is a byte-identical repeat, so this measures the memo-hit serving path.
$BIN/moldable-loadgen --addr "$ADDR" --threads 2 --seconds "$BURST_SECONDS" \
    --family mixed --n 16 --m 256 --count 1 > /tmp/loadgen_report.json
python3 ci/loadgen_assert.py /tmp/loadgen_report.json --min-rps "$MIN_RPS"

echo "service metrics after the burst:"
curl -fsS "http://$ADDR/metrics"
echo
