//! The service's request router and handlers, as a pure function from
//! [`Request`] to [`Response`].
//!
//! [`App::respond`] is transport-free: the TCP server drives it per
//! connection, `benches/service.rs` times it directly (parse → view
//! build → solve → serialize, no sockets), and the concurrency tests
//! compare its responses byte-for-byte. Everything nondeterministic
//! (wall-clock measurements) is confined to `GET /metrics`, so `/v1/*`
//! responses are pure functions of the request body — the property the
//! CI parity gate and the concurrent-client test both lean on.
//!
//! `POST /v1/solve` and `POST /v1/race` share one staged pipeline: a
//! tenant-free body first probes the exact-bytes memo, then a miss runs
//! parse → resolve the solver → admit → [`solve_reply`] / [`race_reply`].
//! The CLI `solve` and `race` commands run the same public stages in the
//! same order, so both front ends print one body, and every failure
//! leaves the stage that raised it as a typed [`Failure`].
//!
//! | Endpoint | Body | Reply |
//! |---|---|---|
//! | `POST /v1/solve` | `{"instance": spec, "algo"?, "eps"?}` | one [`SolveOutcome`] |
//! | `POST /v1/race` | `{"instance": spec, "eps"?}` | roster results + parity verdict |
//! | `GET /healthz` | — | `{"status":"ok", "solvers":[…]}` |
//! | `GET /metrics` | — | counters + latency percentiles |
//!
//! [`SolveOutcome`]: moldable_sched::solver::SolveOutcome

use crate::cache::ResponseCache;
use crate::http::{Request, Response};
use crate::metrics::{Endpoint, ServiceMetrics};
use crate::wire::{parse_solve_body, ErrorKind, Failure, SolveRequest};
use moldable_core::hierarchy::Topology;
use moldable_core::instance::Instance;
use moldable_core::placement::Placement;
use moldable_core::ratio::Ratio;
use moldable_core::view::JobView;
use moldable_sched::batch;
use moldable_sched::exact::{EXACT_M_LIMIT, EXACT_N_LIMIT};
use moldable_sched::place::{place_contiguous, place_with};
use moldable_sched::quotas::{Demand, QuotaEngine, QuotaSet, Tenant, Ticket};
use moldable_sched::solver::{race_roster, solver_by_name, ExactSolver, MakespanSolver};
use moldable_sched::{validate, Schedule, SOLVER_NAMES};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Service-level limits and defaults.
#[derive(Clone, Debug)]
pub struct AppConfig {
    /// ε used when a request omits `"eps"`.
    pub default_eps: Ratio,
    /// Request-body cap in bytes (enforced before buffering).
    pub max_body: usize,
    /// Worker threads handed to the batch engine for `/v1/race`.
    pub race_threads: usize,
    /// Response-cache capacity in entries (0 disables caching).
    pub cache_entries: usize,
    /// Operator-configured admission quotas (`--quotas FILE` on the
    /// binary). `None` admits everything; tenant-tagged requests are
    /// still accounted and may carry their own in-request rule sets.
    pub quotas: Option<QuotaSet>,
}

impl Default for AppConfig {
    fn default() -> Self {
        AppConfig {
            default_eps: Ratio::new(1, 4),
            max_body: 8 * 1024 * 1024,
            race_threads: 1,
            cache_entries: 4096,
            quotas: None,
        }
    }
}

/// Lock shards inside the response cache.
const CACHE_SHARDS: usize = 8;

/// Shared application state: config, metrics, the response cache and
/// admission control. One per server; safe to share across worker
/// threads (`&self` handlers only).
pub struct App {
    config: AppConfig,
    metrics: ServiceMetrics,
    /// Exact-bytes memo: endpoint tag + raw request body → served
    /// response. A repeated byte-identical body (the loadgen cache-hit
    /// workload, a client retry) short-circuits *before* JSON parsing —
    /// the whole request costs one hash of the body plus one LRU probe.
    /// Sound because `/v1/*` responses are pure functions of the body.
    cache: Option<ResponseCache>,
    /// Admission control: the operator quota engine plus per-tenant
    /// accounting.
    admission: Mutex<AdmissionState>,
}

/// Per-tenant admission counters surfaced under `/metrics`.
#[derive(Clone, Debug, Default)]
struct TenantCounters {
    admitted: u64,
    denied: u64,
    resource_seconds: u128,
}

/// The shared admission side of the app: the stateful engine enforcing
/// the operator's [`QuotaSet`] and the per-tenant counters. One mutex
/// for both — admission is two counter bumps and an `O(rules)` scan,
/// orders of magnitude cheaper than the solve it gates.
struct AdmissionState {
    engine: QuotaEngine,
    started: Instant,
    tenants: BTreeMap<String, TenantCounters>,
}

impl AdmissionState {
    fn new(quotas: Option<QuotaSet>) -> Self {
        AdmissionState {
            engine: QuotaEngine::new(quotas.unwrap_or_else(QuotaSet::empty)),
            started: Instant::now(),
            tenants: BTreeMap::new(),
        }
    }

    /// The engine's tick clock: whole seconds since the service started.
    fn tick(&self) -> u64 {
        self.started.elapsed().as_secs()
    }
}

/// RAII holder for an admission ticket: the in-flight procs/jobs charges
/// are returned on drop (window charges expire by clock), so a panicking
/// solver unwinding through the handler cannot permanently shrink the
/// tenant's quota. `None` — a tenant-free request — releases nothing.
struct TicketGuard<'a> {
    app: &'a App,
    ticket: Option<Ticket>,
}

impl Drop for TicketGuard<'_> {
    fn drop(&mut self) {
        if let Some(ticket) = &self.ticket {
            // A poisoned lock means another thread died while charging;
            // skipping the release beats a double panic mid-unwind.
            if let Ok(mut state) = self.app.admission.lock() {
                state.engine.release(ticket);
            }
        }
    }
}

/// 128-bit digest of an exact request body, keying the memo.
///
/// The digest never leaves the process and carries no cross-version
/// stability contract, so it uses a 16-bytes-per-step multiply–xor
/// rather than a byte-at-a-time FNV: on the tight CPU budget of a
/// cache-hit request, hashing a ~10 KiB body byte-wise would cost more
/// than the rest of the hit path combined. A collision
/// would serve the wrong cached response, but at 128 bits of state the
/// chance is negligible for any realistic cache population.
fn body_hash(tag: u64, bytes: &[u8]) -> u128 {
    const K: u128 = 0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835;
    // Fold the endpoint tag and the length in up front: equal prefixes
    // of different lengths (zero-padded tails) stay distinct.
    let mut h = (u128::from(tag).rotate_left(64) ^ (bytes.len() as u128)).wrapping_mul(K);
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        let v = u128::from_le_bytes(chunk.try_into().expect("16-byte chunk"));
        h = (h ^ v).wrapping_mul(K);
        h ^= h >> 64;
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 16];
        tail[..rem.len()].copy_from_slice(rem);
        h = (h ^ u128::from_le_bytes(tail)).wrapping_mul(K);
        h ^= h >> 64;
    }
    h.wrapping_mul(K)
}

impl App {
    /// Build the application state.
    pub fn new(config: AppConfig) -> App {
        App {
            cache: (config.cache_entries > 0)
                .then(|| ResponseCache::new(config.cache_entries, CACHE_SHARDS)),
            admission: Mutex::new(AdmissionState::new(config.quotas.clone())),
            metrics: ServiceMetrics::new(),
            config,
        }
    }

    /// The configured limits.
    pub fn config(&self) -> &AppConfig {
        &self.config
    }

    /// The request metrics (exposed for the server and for tests).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The exact-bytes response memo, when enabled (exposed for tests).
    pub fn cache(&self) -> Option<&ResponseCache> {
        self.cache.as_ref()
    }

    /// Route one request, record its metrics, and produce the response.
    pub fn respond(&self, req: &Request) -> Response {
        self.respond_parts(&req.method, &req.path, &req.body)
    }

    /// [`App::respond`] over borrowed request pieces — the entry point
    /// the server's connection loop uses so a keep-alive connection's
    /// reused read buffers ([`RequestReader`]) never get copied into an
    /// owned [`Request`].
    ///
    /// [`RequestReader`]: crate::http::RequestReader
    pub fn respond_parts(&self, method: &str, path: &str, body: &[u8]) -> Response {
        let t0 = Instant::now();
        let (endpoint, result) = self.route(method, path, body);
        let response = match result {
            Ok(body) => Response::json(body),
            Err(failure) => Response::error(failure.kind, &failure.detail),
        };
        self.metrics.record(endpoint, response.status, t0.elapsed());
        response
    }

    fn route(
        &self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> (Endpoint, Result<String, Failure>) {
        match (method, path) {
            ("POST", "/v1/solve") => (
                Endpoint::Solve,
                self.body_memoized(1, body, |body| self.handle(Endpoint::Solve, body)),
            ),
            ("POST", "/v1/race") => (
                Endpoint::Race,
                self.body_memoized(2, body, |body| self.handle(Endpoint::Race, body)),
            ),
            ("GET", "/healthz") => (Endpoint::Healthz, Ok(serialize(&self.handle_healthz()))),
            ("GET", "/metrics") => (Endpoint::Metrics, Ok(serialize(&self.handle_metrics()))),
            (_, "/v1/solve" | "/v1/race" | "/healthz" | "/metrics") => (
                Endpoint::Other,
                Err(Failure::new(
                    ErrorKind::MethodNotAllowed,
                    format!("method {method} not allowed here"),
                )),
            ),
            (_, path) => (
                Endpoint::Other,
                Err(Failure::new(
                    ErrorKind::NotFound,
                    format!("no route for {path}"),
                )),
            ),
        }
    }

    fn handle_healthz(&self) -> Value {
        json!({ "status": "ok", "solvers": SOLVER_NAMES })
    }

    /// `GET /metrics`: the request metrics plus the memo's counters.
    fn handle_metrics(&self) -> Value {
        let mut snap = self.metrics.snapshot();
        let (body_hits, body_misses, body_evictions) = self
            .cache
            .as_ref()
            .map(|c| c.counters())
            .unwrap_or((0, 0, 0));
        push_field(
            &mut snap,
            "cache",
            json!({
                "enabled": self.cache.is_some(),
                "body_hits": body_hits,
                "body_misses": body_misses,
                "body_evictions": body_evictions,
                "body_entries": self.cache.as_ref().map(|c| c.len()).unwrap_or(0),
            }),
        );
        let admission = self.admission.lock().expect("admission lock poisoned");
        push_field(
            &mut snap,
            "admission",
            json!({
                "enabled": !admission.engine.set().rules.is_empty(),
                "window": admission.engine.set().window,
                "rules": admission.engine.set().rules.len(),
            }),
        );
        let tenants: Vec<(String, Value)> = admission
            .tenants
            .iter()
            .map(|(tenant, c)| {
                (
                    tenant.clone(),
                    json!({
                        "admitted": c.admitted,
                        "denied": c.denied,
                        "resource_seconds": c.resource_seconds,
                    }),
                )
            })
            .collect();
        push_field(&mut snap, "tenants", Value::Object(tenants));
        snap
    }

    /// Run a parsed request through admission control. Tenant-free
    /// requests bypass it entirely (`Ok(None)`). A tenant-tagged request
    /// passes [`check_own_quotas`] first, then its demand is charged to
    /// the operator engine (stateful — concurrency plus windowed
    /// history). Either denial is a 429 carrying the
    /// [`QuotaDenial`](moldable_sched::quotas::QuotaDenial) verbatim, and
    /// charges nothing.
    fn admit(&self, sr: &SolveRequest, instance: &Instance) -> Result<Option<Ticket>, Failure> {
        let Some(tenant) = &sr.tenant else {
            return Ok(None);
        };
        let mut state = self.admission.lock().expect("admission lock poisoned");
        let now = state.tick();
        let outcome = check_own_quotas(sr, instance, now).and_then(|demand| {
            let ticket = state.engine.admit(tenant, &demand, now)?;
            Ok((ticket, demand.resource_seconds))
        });
        let counters = state.tenants.entry(tenant.to_string()).or_default();
        match outcome {
            Ok((ticket, resource_seconds)) => {
                counters.admitted += 1;
                counters.resource_seconds += resource_seconds;
                Ok(Some(ticket))
            }
            Err(denial) => {
                counters.denied += 1;
                Err(denial)
            }
        }
    }

    /// Serve a byte-identical repeat of an earlier request straight from
    /// the exact-bytes memo — no JSON parse at all — or run `fill` (the
    /// full handler) and remember the served bytes under the body hash.
    /// The key covers the endpoint tag and every request byte, so two
    /// bodies that differ in any way (even whitespace) take the miss
    /// path and are computed afresh. Error responses are never memoized.
    ///
    /// Tenant-tagged bodies bypass the memo in both directions: serving
    /// them from remembered bytes would skip admission control (quota
    /// state changes between identical requests). The authoritative gate
    /// is the *parsed* request — `fill` reports whether it carried a
    /// tenant, and tagged responses are never inserted, so no replay
    /// (however the tag was spelled, `\uXXXX` key escapes included) can
    /// ever be served from remembered bytes. The `"tenant"` byte scan on
    /// top is only a fast path: bodies that obviously carry the tag skip
    /// the probe and the miss accounting entirely, keeping tenant-free
    /// bodies on the exact old fast path.
    fn body_memoized(
        &self,
        endpoint_tag: u64,
        body: &[u8],
        fill: impl FnOnce(&[u8]) -> Result<(String, bool), Failure>,
    ) -> Result<String, Failure> {
        let cache = match self.cache.as_ref() {
            Some(cache) if !contains_bytes(body, b"\"tenant\"") => cache,
            _ => return fill(body).map(|(served, _)| served),
        };
        let key = body_hash(endpoint_tag, body);
        if let Some(served) = cache.get(key) {
            return Ok(served.to_string());
        }
        let (served, memoizable) = fill(body)?;
        if memoizable {
            cache.insert(key, Arc::from(served.as_str()));
        }
        Ok(served)
    }

    /// `POST /v1/solve` and `POST /v1/race`, one staged pipeline: parse
    /// the body, resolve `algo` (solve only — a race runs the whole
    /// roster and ignores it), admit, then build the reply with
    /// [`solve_reply`] / [`race_reply`].
    /// The `bool` tells [`App::body_memoized`] whether the served bytes
    /// may enter the exact-bytes memo: only tenant-free requests may,
    /// since admission has to run on every tagged repeat.
    fn handle(&self, endpoint: Endpoint, body: &[u8]) -> Result<(String, bool), Failure> {
        let (sr, instance) =
            parse_solve_body(body, &self.config.default_eps).map_err(Failure::bad_request)?;
        let solver = match endpoint {
            Endpoint::Solve => Some(solver_by_name(&sr.algo, &sr.eps)?),
            _ => None,
        };
        let _ticket = TicketGuard {
            app: self,
            ticket: self.admit(&sr, &instance)?,
        };
        let reply = match &solver {
            Some(solver) => solve_reply(&sr, &instance, solver.as_ref())?,
            None => race_reply(&sr, &instance, self.config.race_threads)?,
        };
        Ok((serialize(&reply), sr.tenant.is_none()))
    }
}

/// Substring search over raw bytes (`memmem` without the dependency).
/// It runs on every memo hit over the whole body, so it scans eight bytes
/// per step: the SWAR zero-byte test marks the bytes equal to the
/// needle's first byte, and only those are compared against the whole
/// needle. The test may mark extra bytes, never too few, so the answer is
/// that of `haystack.windows(needle.len()).any(|w| w == needle)`.
fn contains_bytes(haystack: &[u8], needle: &[u8]) -> bool {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let Some(&first) = needle.first() else {
        return true;
    };
    let Some(last_start) = haystack.len().checked_sub(needle.len()) else {
        return false;
    };
    let matches_at = |i: usize| haystack[i..].starts_with(needle);
    let pattern = ONES * u64::from(first);
    let mut i = 0;
    while i <= last_start && i + 8 <= haystack.len() {
        let word = u64::from_le_bytes(haystack[i..i + 8].try_into().expect("8-byte word"));
        let x = word ^ pattern;
        let mut marks = x.wrapping_sub(ONES) & !x & HIGHS;
        while marks != 0 {
            let at = i + (marks.trailing_zeros() / 8) as usize;
            if at <= last_start && matches_at(at) {
                return true;
            }
            marks &= marks - 1;
        }
        i += 8;
    }
    (i..=last_start).any(matches_at)
}

/// The in-request quota check, shared by the service's admission and
/// the CLI: a tenant-tagged request's demand — the instance's `m`
/// processors, one job, and `Σ tⱼ(1)` resource-seconds — checked
/// against the request's own `quotas`, when it carries any. The check is
/// stateless ("would this request fit these rules on an idle cluster")
/// and a denial is `quota-denied`. Returns the demand, which the service
/// then charges to its operator engine.
pub fn check_own_quotas(
    sr: &SolveRequest,
    instance: &Instance,
    now: u64,
) -> Result<Demand, Failure> {
    let demand = Demand {
        procs: instance.m(),
        jobs: 1,
        resource_seconds: instance.jobs().iter().map(|j| u128::from(j.time(1))).sum(),
    };
    if let (Some(tenant), Some(set)) = (&sr.tenant, &sr.quotas) {
        QuotaEngine::new(set.clone()).admit(tenant, &demand, now)?;
    }
    Ok(demand)
}

/// The `/v1/solve` reply, which is also CLI `solve`'s output: one
/// [`JobView`] build, `solver`'s schedule, the lowering stage (placement
/// as requested — `placement` on failure — then validation,
/// `invalid-schedule`), and the wire-format body. The exact solver is
/// refused (`bad-request`) on instances beyond its branch-and-bound
/// caps, which it would blow mid-request.
pub fn solve_reply(
    sr: &SolveRequest,
    instance: &Instance,
    solver: &dyn MakespanSolver,
) -> Result<Value, Failure> {
    let view = JobView::build(instance);
    if sr.algo == "exact" && !ExactSolver::fits(&view) {
        return Err(Failure::bad_request(format!(
            "instance too large for the exact solver (n ≤ {EXACT_N_LIMIT}, m ≤ {EXACT_M_LIMIT})"
        )));
    }
    let mut outcome = solver.solve(&view, view.m());
    lower(sr, &view, instance, &mut outcome.schedule)?;
    let mut reply = json!({
        "schema": sr.schema(),
        "algo": sr.algo,
        "solver": solver.name(),
        "n": instance.n(),
        "m": instance.m(),
        "eps": sr.eps.to_f64(),
        "makespan": outcome.makespan.to_f64(),
        "ratio_bound": outcome.ratio_bound.as_ref().map(Ratio::to_f64),
        "opt_lower_bound": outcome.lower_bound,
        "probes": outcome.probes,
    });
    // Pushed, not nested in `json!`, which would clone every row.
    let assignments = assignment_rows(instance, &outcome.schedule);
    push_field(&mut reply, "assignments", assignments);
    push_placements(&mut reply, sr, &outcome.schedule);
    push_topology(&mut reply, sr);
    push_fragmentation(&mut reply, sr, &outcome.schedule);
    push_tenant(&mut reply, sr);
    Ok(reply)
}

/// The `/v1/race` reply, which is also CLI `race`'s output: every
/// applicable registry solver through the batch engine on `threads`
/// workers (the rows do not depend on the count), each schedule through
/// [`solve_reply`]'s lowering stage, plus the parity verdict.
/// `all_bounds_hold` is false when some solver's makespan exceeds its
/// proven ratio bound against the factor-2 estimator — makespan ≤
/// bound · 2ω must hold, because OPT ≤ 2ω. A failing row's detail leads
/// with its label.
pub fn race_reply(
    sr: &SolveRequest,
    instance: &Instance,
    threads: usize,
) -> Result<Value, Failure> {
    let view = JobView::build(instance);
    let omega = moldable_sched::estimate_view(&view).omega;
    let results = batch::race(&race_roster(&view, &sr.eps), &view, threads);
    let mut all_bounds_hold = true;
    let mut rows = Vec::with_capacity(results.len());
    for mut r in results {
        lower(sr, &view, instance, &mut r.outcome.schedule)
            .map_err(|f| Failure::new(f.kind, format!("{}: {}", r.label, f.detail)))?;
        let bound_ok = r
            .outcome
            .ratio_bound
            .as_ref()
            .map(|b| r.outcome.makespan <= b.mul_int(2 * omega as u128));
        all_bounds_hold &= bound_ok != Some(false);
        let mut row = json!({
            "solver": r.label,
            "makespan": r.outcome.makespan.to_f64(),
            "ratio_bound": r.outcome.ratio_bound.as_ref().map(Ratio::to_f64),
            "bound_holds_vs_2omega": bound_ok,
            "probes": r.outcome.probes,
        });
        push_placements(&mut row, sr, &r.outcome.schedule);
        push_fragmentation(&mut row, sr, &r.outcome.schedule);
        rows.push(row);
    }
    let mut reply = json!({
        "schema": sr.schema(),
        "n": instance.n(),
        "m": instance.m(),
        "eps": sr.eps.to_f64(),
        "omega": omega,
        "all_bounds_hold": all_bounds_hold,
    });
    push_topology(&mut reply, sr);
    push_field(&mut reply, "results", Value::Array(rows));
    push_tenant(&mut reply, sr);
    Ok(reply)
}

/// The lowering stage both replies share: place `schedule` onto
/// processors as `sr` asks, then validate it against `instance`. A
/// topology re-lowers even a solver's native placement through
/// [`place_with`], so the policy holds uniformly across the registry;
/// `placements` alone keeps a native placement (the `contiguous-73-50`
/// layout) and lowers any other schedule through [`place_contiguous`].
/// Both lowerings are total on demand-feasible schedules, so either
/// failure means a solver bug.
fn lower(
    sr: &SolveRequest,
    view: &JobView,
    instance: &Instance,
    schedule: &mut Schedule,
) -> Result<(), Failure> {
    let placement = match &sr.topology {
        Some(topology) => Some(place_with(view, schedule, topology, &sr.policy)),
        None if sr.placements && schedule.placement.is_none() => {
            Some(place_contiguous(view, schedule))
        }
        None => None,
    };
    if let Some(placement) = placement {
        let placement = placement.map_err(|e| {
            Failure::new(ErrorKind::Placement, format!("placement failed: {e}"))
        })?;
        schedule.placement = Some(placement);
    }
    validate(schedule, instance).map_err(|e| {
        Failure::new(
            ErrorKind::InvalidSchedule,
            format!("solver produced an invalid schedule: {e}"),
        )
    })
}

/// Append the `placements` rows when the request asked for them (a
/// topology implies them).
fn push_placements(reply: &mut Value, sr: &SolveRequest, schedule: &Schedule) {
    if sr.placements || sr.topology.is_some() {
        let placement = schedule.placement.as_ref().expect("lowered");
        let rows = placement_rows_on(placement, sr.topology.as_ref());
        push_field(reply, "placements", rows);
    }
}

/// Append the v3 `topology` and `policy` echoes.
fn push_topology(reply: &mut Value, sr: &SolveRequest) {
    if let Some(topology) = &sr.topology {
        push_field(reply, "topology", topology_rows(topology));
        push_field(reply, "policy", Value::String(sr.policy.label(topology)));
    }
}

/// Append the v3 `fragmentation` summary.
fn push_fragmentation(reply: &mut Value, sr: &SolveRequest, schedule: &Schedule) {
    if let Some(topology) = &sr.topology {
        let placement = schedule.placement.as_ref().expect("lowered");
        push_field(
            reply,
            "fragmentation",
            fragmentation_summary(topology, placement),
        );
    }
}

/// Append the v4 `tenant` echo.
fn push_tenant(reply: &mut Value, sr: &SolveRequest) {
    if let Some(tenant) = &sr.tenant {
        push_field(reply, "tenant", tenant_echo(tenant));
    }
}

/// The wire-format v4 response echo of the request's tenant, with the
/// defaulted parts made explicit.
pub fn tenant_echo(tenant: &Tenant) -> Value {
    json!({
        "user": tenant.user,
        "project": tenant.project,
        "class": tenant.class,
    })
}

/// Compact-serialize a reply tree (the shim is infallible for its own
/// data model; the `Result` only exists for signature compatibility).
fn serialize(value: &Value) -> String {
    serde_json::to_string(value).expect("shim serialization is infallible")
}

/// Append one field to a JSON object reply (the shim's `Value::Object`
/// keeps insertion order, so optional fields always serialize last).
pub fn push_field(value: &mut Value, key: &str, field: Value) {
    match value {
        Value::Object(fields) => fields.push((key.to_string(), field)),
        _ => unreachable!("replies are built as objects"),
    }
}

/// Largest reduced denominator [`parse_eps`] accepts, so `ε ≥ 1/1000`.
/// Finer fractions overflow the solvers' exact rational arithmetic
/// (a panic in the dual search at `1/10⁹`, and at `500000001/10⁹`) or
/// hold a worker for minutes.
const MAX_EPS_DEN: u128 = 1000;

/// Parse `"N/D"` into a ratio in `(0, 1]` whose reduced denominator is at
/// most 1000 — shared by the service's `"eps"` field, the CLI `--eps` flag
/// and `moldable-svc --eps`, so every front end accepts exactly the same
/// grammar.
pub fn parse_eps(raw: &str) -> Result<Ratio, String> {
    let (num, den) = raw
        .split_once('/')
        .ok_or_else(|| format!("eps must be N/D, got `{raw}`"))?;
    let num: u128 = num.parse().map_err(|_| "bad eps numerator".to_string())?;
    let den: u128 = den.parse().map_err(|_| "bad eps denominator".to_string())?;
    if num == 0 || den == 0 || Ratio::new(num, den) > Ratio::one() {
        return Err("need 0 < eps <= 1".to_string());
    }
    let eps = Ratio::new(num, den);
    if eps.den() > MAX_EPS_DEN {
        return Err(format!(
            "eps `{raw}` is too fine: its reduced denominator must be at most {MAX_EPS_DEN}"
        ));
    }
    Ok(eps)
}

/// Assignment rows in the `solve` JSON shape — the **single** serializer
/// behind the service, the CLI `solve`/`schedule` output, and
/// `benches/service.rs`, so the CI byte-parity gate
/// (`ci/solve_parity.py`) can never be diverged by a drifted copy.
pub fn assignment_rows(inst: &Instance, s: &moldable_sched::Schedule) -> Value {
    Value::Array(
        s.assignments
            .iter()
            .map(|a| {
                row([
                    ("job", a.job.into()),
                    ("start_num", a.start.num().to_string().into()),
                    ("start_den", a.start.den().to_string().into()),
                    ("procs", a.procs.into()),
                    ("duration", inst.job(a.job).time(a.procs).into()),
                ])
            })
            .collect(),
    )
}

/// Placement rows — like [`assignment_rows`], the single serializer
/// behind the service and the CLI `--place` output. Each row carries the
/// exact rational interval (numerator/denominator strings, same
/// convention as assignment starts) and the processor set as inclusive
/// `[lo, hi]` ranges: the wire-format v2 shape. When a topology is given
/// (v3), each row gains a trailing `"locality"` object mapping every
/// level name to the number of blocks the job's set spans there.
pub fn placement_rows_on(placement: &Placement, topology: Option<&Topology>) -> Value {
    Value::Array(
        placement
            .jobs
            .iter()
            .map(|p| {
                let procs = p.procs.ranges().iter().map(|&(lo, hi)| json!([lo, hi]));
                let mut row = row([
                    ("job", p.job.into()),
                    ("start_num", p.start.num().to_string().into()),
                    ("start_den", p.start.den().to_string().into()),
                    ("end_num", p.end.num().to_string().into()),
                    ("end_den", p.end.den().to_string().into()),
                    ("procs", procs.collect()),
                ]);
                if let Some(t) = topology {
                    let locality: Vec<(String, Value)> = t
                        .levels()
                        .iter()
                        .enumerate()
                        .map(|(i, level)| {
                            (level.name.clone(), json!(t.span_blocks(i, &p.procs)))
                        })
                        .collect();
                    push_field(&mut row, "locality", Value::Object(locality));
                }
                row
            })
            .collect(),
    )
}

/// One reply row from owned values. `json!` renders every value through
/// a reference, cloning each string and array it is handed; the per-job
/// rows move theirs in instead.
fn row<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// The topology echo in v3 replies: one row per level, coarsest first,
/// carrying the level name and its block count.
pub fn topology_rows(topology: &Topology) -> Value {
    Value::Array(
        topology
            .levels()
            .iter()
            .map(|level| {
                json!({
                    "name": level.name,
                    "blocks": level.blocks.len() as u64,
                })
            })
            .collect(),
    )
}

/// The v3 fragmentation summary: per level (keyed by name, coarsest
/// first), the block count and the placement's mean/max blocks-spanned.
pub fn fragmentation_summary(topology: &Topology, placement: &Placement) -> Value {
    let report = topology.fragmentation(placement);
    Value::Object(
        report
            .levels
            .iter()
            .map(|l| {
                (
                    l.level.clone(),
                    json!({
                        "blocks": l.blocks,
                        "jobs": l.jobs,
                        "mean_span": l.mean_span(),
                        "max_span": l.max_span,
                    }),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_sched::solver::UnknownSolver;

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            body: Vec::new(),
            keep_alive: true,
        }
    }

    fn app() -> App {
        App::new(AppConfig::default())
    }

    const INSTANCE: &str = r#"{"m": 64, "jobs": [
        {"constant": 9},
        {"staircase": [[1, 100], [2, 60], [4, 50]]},
        {"ideal_with_overhead": {"t1": 500, "c": 2, "cap": 64}},
        {"table": [70, 40, 30]}
    ]}"#;

    fn body_text(resp: &Response) -> String {
        String::from_utf8(resp.body.clone()).unwrap()
    }

    fn json_of(resp: &Response) -> Value {
        serde_json::from_str(&body_text(resp)).unwrap()
    }

    #[test]
    fn solve_returns_certificates_and_assignments() {
        let app = app();
        let req = post(
            "/v1/solve",
            &format!(r#"{{"instance": {INSTANCE}, "algo": "linear", "eps": "1/4"}}"#),
        );
        let resp = app.respond(&req);
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        let v = json_of(&resp);
        assert_eq!(v["algo"].as_str(), Some("linear"));
        assert_eq!(v["n"].as_u64(), Some(4));
        assert_eq!(v["m"].as_u64(), Some(64));
        assert!(v["makespan"].as_f64().unwrap() > 0.0);
        assert_eq!(v["assignments"].as_array().unwrap().len(), 4);
        // The dual search's bound at ε=1/4 is at most (3/2+ε)(1+ε).
        let bound = v["ratio_bound"].as_f64().unwrap();
        assert!(bound > 1.0 && bound <= 2.1875 + 1e-12, "bound = {bound}");
    }

    #[test]
    fn solve_default_algo_and_eps() {
        let app = app();
        let resp = app.respond(&post(
            "/v1/solve",
            &format!(r#"{{"instance": {INSTANCE}}}"#),
        ));
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        let v = json_of(&resp);
        assert_eq!(v["algo"].as_str(), Some("linear"));
        assert_eq!(v["eps"].as_f64(), Some(0.25));
    }

    #[test]
    fn unknown_solver_error_surfaces_registry_names_verbatim() {
        let app = app();
        let resp = app.respond(&post(
            "/v1/solve",
            &format!(r#"{{"instance": {INSTANCE}, "algo": "quantum"}}"#),
        ));
        assert_eq!(resp.status, 400);
        let expected = UnknownSolver {
            name: "quantum".into(),
        }
        .to_string();
        let envelope = json_of(&resp);
        assert_eq!(envelope["error"]["kind"].as_str(), Some("unknown-solver"));
        assert_eq!(
            envelope["error"]["detail"].as_str(),
            Some(expected.as_str())
        );
    }

    #[test]
    fn exact_guard_mirrors_the_cli() {
        let app = app();
        // 64 machines ≫ EXACT_M_LIMIT: the service must refuse, not hang.
        let resp = app.respond(&post(
            "/v1/solve",
            &format!(r#"{{"instance": {INSTANCE}, "algo": "exact"}}"#),
        ));
        assert_eq!(resp.status, 400);
        assert!(body_text(&resp).contains("too large for the exact solver"));
        // A tiny instance goes through.
        let resp = app.respond(&post(
            "/v1/solve",
            r#"{"instance": {"m": 2, "jobs": [{"constant": 3}, {"table": [8, 5]}]}, "algo": "exact"}"#,
        ));
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        assert_eq!(json_of(&resp)["ratio_bound"].as_f64(), Some(1.0));
    }

    #[test]
    fn race_reports_roster_and_parity_verdict() {
        let app = app();
        let resp = app.respond(&post("/v1/race", &format!(r#"{{"instance": {INSTANCE}}}"#)));
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        let v = json_of(&resp);
        assert_eq!(v["all_bounds_hold"].as_bool(), Some(true));
        let results = v["results"].as_array().unwrap();
        // m = 64 > EXACT_M_LIMIT, so the roster is everything but `exact`.
        assert_eq!(results.len(), SOLVER_NAMES.len() - 1);
        for row in results {
            assert!(row["makespan"].as_f64().unwrap() > 0.0);
        }
    }

    #[test]
    fn malformed_bodies_are_bad_requests() {
        let app = app();
        for (body, needle) in [
            ("{", "invalid JSON body"),
            ("{}", "missing `instance`"),
            (
                r#"{"instance": {"m": 0, "jobs": []}}"#,
                "invalid `instance`",
            ),
            (
                r#"{"instance": {"m": 2, "jobs": []}}"#,
                "instance must have at least one job",
            ),
            (
                &format!(r#"{{"instance": {INSTANCE}, "eps": "0/4"}}"#),
                "eps",
            ),
            (
                &format!(r#"{{"instance": {INSTANCE}, "eps": "3/2"}}"#),
                "eps",
            ),
            (
                &format!(r#"{{"instance": {INSTANCE}, "eps": "1/1000000000"}}"#),
                "eps `1/1000000000` is too fine",
            ),
            (
                &format!(r#"{{"instance": {INSTANCE}, "eps": "500000001/1000000000"}}"#),
                "eps `500000001/1000000000` is too fine",
            ),
            (
                &format!(r#"{{"instance": {INSTANCE}, "eps": "1/1001"}}"#),
                "eps `1/1001` is too fine",
            ),
            (
                r#"{"instance": {"m": 3, "jobs": [{"table": [10, 12, 5]}]}}"#,
                "table time rises from p = 1 to p = 2",
            ),
            (&format!(r#"{{"instance": {INSTANCE}, "algo": 7}}"#), "algo"),
            (
                &format!(r#"{{"instance": {INSTANCE}, "placements": "yes"}}"#),
                "placements",
            ),
        ] {
            let resp = app.respond(&post("/v1/solve", body));
            assert_eq!(resp.status, 400, "body {body} -> {}", body_text(&resp));
            assert!(
                body_text(&resp).contains(needle),
                "body {body} -> {}",
                body_text(&resp)
            );
            assert_eq!(
                json_of(&resp)["error"]["kind"].as_str(),
                Some("bad-request"),
                "body {body}"
            );
        }
    }

    #[test]
    fn eps_down_to_one_thousandth_is_served() {
        let app = app();
        for eps in ["1/1000", "2/2000", "999/1000", "1/4"] {
            let resp = app.respond(&post(
                "/v1/solve",
                &format!(r#"{{"instance": {INSTANCE}, "algo": "linear", "eps": "{eps}"}}"#),
            ));
            assert_eq!(resp.status, 200, "eps {eps}: {}", body_text(&resp));
        }
    }

    #[test]
    fn routing_404_405_and_healthz() {
        let app = app();
        assert_eq!(app.respond(&get("/nope")).status, 404);
        assert_eq!(app.respond(&get("/v1/solve")).status, 405);
        assert_eq!(app.respond(&post("/healthz", "")).status, 405);
        let health = app.respond(&get("/healthz"));
        assert_eq!(health.status, 200);
        let v = json_of(&health);
        assert_eq!(v["status"].as_str(), Some("ok"));
        assert_eq!(v["solvers"].as_array().unwrap().len(), SOLVER_NAMES.len());
    }

    #[test]
    fn metrics_count_prior_requests() {
        let app = app();
        app.respond(&get("/healthz"));
        app.respond(&get("/nope"));
        let resp = app.respond(&get("/metrics"));
        assert_eq!(resp.status, 200);
        let v = json_of(&resp);
        assert_eq!(v["requests_total"].as_u64(), Some(2));
        assert_eq!(v["errors_total"].as_u64(), Some(1));
        assert_eq!(v["endpoints"]["healthz"]["requests"].as_u64(), Some(1));
        assert_eq!(v["endpoints"]["other"]["requests"].as_u64(), Some(1));
    }

    #[test]
    fn solve_placements_consistent_with_assignments() {
        let app = app();
        let req = post(
            "/v1/solve",
            &format!(r#"{{"instance": {INSTANCE}, "placements": true}}"#),
        );
        let resp = app.respond(&req);
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        let v = json_of(&resp);
        assert_eq!(v["schema"].as_u64(), Some(2));
        let assignments = v["assignments"].as_array().unwrap();
        let placements = v["placements"].as_array().unwrap();
        assert_eq!(placements.len(), assignments.len());
        for row in placements {
            let job = row["job"].as_u64().unwrap();
            // Set size equals the allotment of the matching assignment.
            let procs: u64 = row["procs"]
                .as_array()
                .unwrap()
                .iter()
                .map(|r| r[1].as_u64().unwrap() - r[0].as_u64().unwrap() + 1)
                .sum();
            let assigned = assignments
                .iter()
                .find(|a| a["job"].as_u64() == Some(job))
                .unwrap();
            assert_eq!(procs, assigned["procs"].as_u64().unwrap(), "job {job}");
            // The interval matches start + duration.
            assert_eq!(row["start_num"], assigned["start_num"]);
            assert_eq!(row["start_den"], assigned["start_den"]);
        }
        // Placement responses are as deterministic as plain ones.
        assert_eq!(app.respond(&req), app.respond(&req));
    }

    #[test]
    fn solve_without_placements_keeps_v1_shape() {
        let app = app();
        let resp = app.respond(&post(
            "/v1/solve",
            &format!(r#"{{"instance": {INSTANCE}}}"#),
        ));
        let v = json_of(&resp);
        assert_eq!(v["schema"].as_u64(), Some(2));
        assert!(v.get("placements").is_none());
    }

    #[test]
    fn race_placements_cover_every_solver_row() {
        let app = app();
        let resp = app.respond(&post(
            "/v1/race",
            &format!(r#"{{"instance": {INSTANCE}, "placements": true}}"#),
        ));
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        let v = json_of(&resp);
        assert_eq!(v["schema"].as_u64(), Some(2));
        for row in v["results"].as_array().unwrap() {
            let placements = row["placements"].as_array().unwrap();
            assert_eq!(placements.len(), 4, "{}", row["solver"].as_str().unwrap());
        }
        // Without the flag the rows stay v1-shaped.
        let resp = app.respond(&post("/v1/race", &format!(r#"{{"instance": {INSTANCE}}}"#)));
        for row in json_of(&resp)["results"].as_array().unwrap() {
            assert!(row.get("placements").is_none());
        }
    }

    #[test]
    fn solve_topology_switches_to_v3_with_locality_and_fragmentation() {
        let app = app();
        let req = post(
            "/v1/solve",
            &format!(r#"{{"instance": {INSTANCE}, "topology": "8*2*4", "policy": "packed"}}"#),
        );
        let resp = app.respond(&req);
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        let v = json_of(&resp);
        assert_eq!(v["schema"].as_u64(), Some(3));
        assert_eq!(v["policy"].as_str(), Some("packed:node"));
        let topo = v["topology"].as_array().unwrap();
        assert_eq!(topo.len(), 3);
        assert_eq!(topo[0]["name"].as_str(), Some("node"));
        assert_eq!(topo[0]["blocks"].as_u64(), Some(8));
        assert_eq!(topo[2]["blocks"].as_u64(), Some(64));
        // Placements come without asking: a topology implies them, and
        // every row carries a per-level locality object.
        let placements = v["placements"].as_array().unwrap();
        assert_eq!(placements.len(), v["assignments"].as_array().unwrap().len());
        for row in placements {
            let loc = &row["locality"];
            for level in ["node", "socket", "core"] {
                assert!(loc[level].as_u64().unwrap() >= 1, "{row:?}");
            }
        }
        let frag = &v["fragmentation"];
        assert_eq!(frag["node"]["blocks"].as_u64(), Some(8));
        assert!(frag["node"]["mean_span"].as_f64().unwrap() >= 1.0);
        assert!(frag["core"]["max_span"].as_u64().unwrap() >= 1);
        // Deterministic like every other response.
        assert_eq!(app.respond(&req), app.respond(&req));
    }

    #[test]
    fn topology_must_match_the_instance_m() {
        let app = app();
        let resp = app.respond(&post(
            "/v1/solve",
            &format!(r#"{{"instance": {INSTANCE}, "topology": "2*2"}}"#),
        ));
        assert_eq!(resp.status, 400, "{}", body_text(&resp));
        assert!(body_text(&resp).contains("covers 4 processors"));
        assert!(body_text(&resp).contains("m = 64"));
    }

    #[test]
    fn huge_topology_specs_cannot_take_a_worker_down() {
        let app = app();
        let solve = |spec: &str| {
            let body = format!(r#"{{"instance": {INSTANCE}, "topology": "{spec}"}}"#);
            let t0 = std::time::Instant::now();
            let resp = app.respond_parts("POST", "/v1/solve", body.as_bytes());
            (resp, t0.elapsed())
        };
        // 2^28 × 2 asks for ~8 · 10^8 blocks in a ~100-byte body, and
        // 65536 × 16 for ~1.1 · 10^6: both are refused as a typed 400
        // before a single block is allocated. 2^20 levels of one block
        // pass the block cap, but every placement row would carry 2^20
        // locality entries: the depth cap refuses that 2 MB spec before
        // a level is built.
        let deep = vec!["1"; 1 << 20].join("*");
        for (spec, want) in [
            (
                "268435456*2",
                "805306368 blocks, more than the 1048576 allowed",
            ),
            ("65536*16", "1114112 blocks, more than the 1048576 allowed"),
            (&deep, "1048576 levels, more than the 64 allowed"),
        ] {
            let (resp, took) = solve(spec);
            assert_eq!(resp.status, 400, "{}", body_text(&resp));
            let v = json_of(&resp);
            assert_eq!(v["error"]["kind"].as_str(), Some("bad-request"));
            assert!(
                v["error"]["detail"].as_str().unwrap().contains(want),
                "{v:?}"
            );
            assert!(took < std::time::Duration::from_secs(30), "took {took:?}");
        }
        // A 7-byte spec exactly at the cap builds 2^20 blocks, validates
        // in linear time, and is then refused for not covering the
        // instance. The bound turns a return to a per-block scan into a
        // failure instead of a hang.
        let (resp, took) = solve("1048576");
        assert_eq!(resp.status, 400, "{}", body_text(&resp));
        assert!(body_text(&resp).contains("covers 1048576 processors"));
        assert!(took < std::time::Duration::from_secs(30), "took {took:?}");
        // 64 levels are still answered, one locality entry per level.
        let (resp, _) = solve(&format!("64{}", "*1".repeat(63)));
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        for row in json_of(&resp)["placements"].as_array().unwrap() {
            assert_eq!(row["locality"].as_object().unwrap().len(), 64);
        }
    }

    #[test]
    fn race_topology_rows_carry_fragmentation() {
        let app = app();
        let resp = app.respond(&post(
            "/v1/race",
            &format!(r#"{{"instance": {INSTANCE}, "topology": "8*8", "policy": "spread"}}"#),
        ));
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        let v = json_of(&resp);
        assert_eq!(v["schema"].as_u64(), Some(3));
        assert_eq!(v["policy"].as_str(), Some("spread:node"));
        for row in v["results"].as_array().unwrap() {
            assert!(!row["placements"].as_array().unwrap().is_empty());
            assert!(row["fragmentation"]["node"]["mean_span"].as_f64().is_some());
        }
    }

    #[test]
    fn packed_policy_beats_contiguous_on_node_spans() {
        // Width-3 jobs on 2×4: contiguous lowering straddles nodes,
        // packed never does.
        let app = app();
        let instance = r#"{"m": 8, "jobs": [{"constant": 5}, {"constant": 5}]}"#;
        let spans = |policy: &str| -> Vec<u64> {
            let resp = app.respond(&post(
                "/v1/solve",
                &format!(
                    r#"{{"instance": {instance}, "algo": "two-approx", "topology": "2*4", "policy": "{policy}"}}"#
                ),
            ));
            assert_eq!(resp.status, 200, "{}", body_text(&resp));
            json_of(&resp)["placements"]
                .as_array()
                .unwrap()
                .iter()
                .map(|row| row["locality"]["node"].as_u64().unwrap())
                .collect()
        };
        for span in spans("packed") {
            assert_eq!(span, 1, "packed placement crossed a node");
        }
    }

    #[test]
    fn solve_responses_are_deterministic() {
        // The property the concurrency parity test scales up: same body,
        // byte-identical response.
        let app = app();
        let req = post("/v1/solve", &format!(r#"{{"instance": {INSTANCE}}}"#));
        let a = app.respond(&req);
        let b = app.respond(&req);
        assert_eq!(a, b);
    }

    #[test]
    fn tenant_requests_get_schema_4_and_an_echo() {
        let app = app();
        // The tenant block is additive: same bytes as the untagged
        // response except `schema` and the trailing `tenant` echo.
        let untagged = app.respond(&post(
            "/v1/solve",
            &format!(r#"{{"instance": {INSTANCE}}}"#),
        ));
        let resp = app.respond(&post(
            "/v1/solve",
            &format!(r#"{{"instance": {INSTANCE}, "tenant": {{"user": "alice"}}}}"#),
        ));
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        let v = json_of(&resp);
        assert_eq!(v["schema"].as_u64(), Some(4));
        assert_eq!(v["tenant"]["user"].as_str(), Some("alice"));
        assert_eq!(v["tenant"]["project"].as_str(), Some("default"));
        assert_eq!(v["tenant"]["class"].as_str(), Some("default"));
        let (mut tagged_fields, untagged_v) = match (v, json_of(&untagged)) {
            (Value::Object(t), Value::Object(u)) => (t, u),
            _ => panic!("object replies"),
        };
        tagged_fields.retain(|(k, _)| k != "schema" && k != "tenant");
        let untagged_fields: Vec<(String, Value)> = untagged_v
            .into_iter()
            .filter(|(k, _)| k != "schema")
            .collect();
        assert_eq!(tagged_fields, untagged_fields);
    }

    #[test]
    fn in_request_quotas_deny_with_429_and_admit_under_the_cap() {
        let app = app();
        // INSTANCE has m = 64; a 8-processor ceiling denies it.
        let resp = app.respond(&post(
            "/v1/solve",
            &format!(
                r#"{{"instance": {INSTANCE}, "tenant": {{"user": "alice"}}, "quotas": {{"rules": [{{"user": "alice", "max_procs": 8}}]}}}}"#
            ),
        ));
        assert_eq!(resp.status, 429, "{}", body_text(&resp));
        let v = json_of(&resp);
        assert_eq!(v["error"]["kind"].as_str(), Some("quota-denied"));
        let detail = v["error"]["detail"].as_str().unwrap();
        assert_eq!(
            detail,
            "quota rule alice/*/*{procs<=8} denies procs: in use 0 + requested 64 > 8"
        );
        // Raising the ceiling admits the identical solve.
        let resp = app.respond(&post(
            "/v1/solve",
            &format!(
                r#"{{"instance": {INSTANCE}, "tenant": {{"user": "alice"}}, "quotas": {{"rules": [{{"user": "alice", "max_procs": 64}}]}}}}"#
            ),
        ));
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
    }

    #[test]
    fn operator_quotas_charge_the_window_and_count_per_tenant() {
        use moldable_sched::quotas::QuotaRule;
        // One job of t(1) = 10 ⇒ 10 resource-seconds per solve; a cap of
        // 15 admits one solve per window, denies the second.
        let config = AppConfig {
            quotas: Some(QuotaSet {
                window: 3600,
                rules: vec![QuotaRule {
                    max_resource_seconds: Some(15),
                    ..QuotaRule::any()
                }],
            }),
            ..AppConfig::default()
        };
        let app = App::new(config);
        let body = r#"{"instance": {"m": 2, "jobs": [{"constant": 10}]}, "tenant": {"user": "bob", "project": "render"}}"#;
        let first = app.respond(&post("/v1/solve", body));
        assert_eq!(first.status, 200, "{}", body_text(&first));
        // The byte-identical retry must NOT be served from the body
        // memo: admission has to run again, and the window charge from
        // the first solve now trips the cap.
        let second = app.respond(&post("/v1/solve", body));
        assert_eq!(second.status, 429, "{}", body_text(&second));
        let v = json_of(&second);
        assert!(
            v["error"]["detail"]
                .as_str()
                .unwrap()
                .contains("denies resource-seconds: in use 10 + requested 10 > 15"),
            "{}",
            body_text(&second)
        );
        // An untagged request bypasses admission entirely.
        let free = app.respond(&post(
            "/v1/solve",
            r#"{"instance": {"m": 2, "jobs": [{"constant": 10}]}}"#,
        ));
        assert_eq!(free.status, 200);
        // Per-tenant counters surface under /metrics.
        let metrics = json_of(&app.respond(&get("/metrics")));
        assert_eq!(metrics["admission"]["enabled"].as_bool(), Some(true));
        assert_eq!(metrics["admission"]["rules"].as_u64(), Some(1));
        let bob = &metrics["tenants"]["bob/render/default"];
        assert_eq!(bob["admitted"].as_u64(), Some(1));
        assert_eq!(bob["denied"].as_u64(), Some(1));
        assert_eq!(bob["resource_seconds"].as_u64(), Some(10));
    }

    #[test]
    fn in_flight_concurrency_is_released_between_sequential_requests() {
        use moldable_sched::quotas::QuotaRule;
        // max_jobs = 1 bounds *concurrent* solves: sequential requests
        // each release before the next admits, so both pass.
        let config = AppConfig {
            quotas: Some(QuotaSet {
                window: 3600,
                rules: vec![QuotaRule {
                    max_jobs: Some(1),
                    ..QuotaRule::any()
                }],
            }),
            ..AppConfig::default()
        };
        let app = App::new(config);
        let body = format!(r#"{{"instance": {INSTANCE}, "tenant": {{"user": "carol"}}}}"#);
        assert_eq!(app.respond(&post("/v1/solve", &body)).status, 200);
        assert_eq!(app.respond(&post("/v1/solve", &body)).status, 200);
    }

    /// Failure kinds are set where they are raised: a schedule that
    /// overcommits the machines fails in the lowering when placements
    /// are asked for (`place_contiguous` rejects overcommit), and in the
    /// validator otherwise.
    #[test]
    fn overcommit_fails_with_the_kind_of_the_stage_that_catches_it() {
        use moldable_sched::solver::SolveOutcome;
        struct Overcommit;
        impl MakespanSolver for Overcommit {
            fn name(&self) -> &'static str {
                "overcommit"
            }
            fn solve(&self, _view: &JobView, _m: u64) -> SolveOutcome {
                // Two width-2 jobs at t = 0 on m = 3 processors.
                let mut schedule = Schedule::new();
                schedule.push(0, Ratio::zero(), 2);
                schedule.push(1, Ratio::zero(), 2);
                SolveOutcome {
                    schedule,
                    makespan: Ratio::from(4u64),
                    ratio_bound: None,
                    lower_bound: None,
                    probes: 0,
                }
            }
        }
        let (mut sr, instance) = parse_solve_body(
            br#"{"instance": {"m": 3, "jobs": [{"constant": 4}, {"constant": 4}]}}"#,
            &Ratio::new(1, 4),
        )
        .unwrap();
        let kind =
            |sr: &SolveRequest| solve_reply(sr, &instance, &Overcommit).unwrap_err().kind;
        assert_eq!(kind(&sr), ErrorKind::InvalidSchedule);
        sr.placements = true;
        assert_eq!(kind(&sr), ErrorKind::Placement);
    }
}

/// The memo-hit path's `"tenant"` scan: the word-at-a-time
/// [`contains_bytes`] gives the answer of the byte-window scan it replaced
/// on every body, wherever the needle sits relative to the 8-byte words.
#[cfg(test)]
mod contains_bytes_tests {
    use super::contains_bytes;
    use proptest::prelude::*;

    const NEEDLE: &[u8] = b"\"tenant\"";

    /// The scan it replaced: one needle-length window per byte.
    fn windows_oracle(haystack: &[u8], needle: &[u8]) -> bool {
        haystack.windows(needle.len()).any(|w| w == needle)
    }

    /// Bytes drawn mostly from the needle's own letters and dense in `"`,
    /// so near-misses and candidate positions abound.
    fn dense_bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(0usize..10, 0..max_len)
            .prop_map(|picks| picks.into_iter().map(|i| b"\"\"\"tenant\x00"[i]).collect())
    }

    /// The needle at every offset of a filler body of every length up to
    /// 40, so it starts in each lane of a word, straddles word boundaries
    /// and ends in the last 7 bytes; bodies shorter than 8 bytes included.
    #[test]
    fn needle_found_at_every_offset() {
        for len in 0..=40usize {
            for filler in [b'x', b'"', b't'] {
                let body = vec![filler; len];
                assert_eq!(contains_bytes(&body, NEEDLE), windows_oracle(&body, NEEDLE));
                for at in 0..(len + 1).saturating_sub(NEEDLE.len()) {
                    let mut body = body.clone();
                    body[at..at + NEEDLE.len()].copy_from_slice(NEEDLE);
                    assert!(contains_bytes(&body, NEEDLE), "len={len} at={at}");
                    // One byte short of the needle: found only where the
                    // filler completes it elsewhere.
                    let cut = &body[..at + NEEDLE.len() - 1];
                    assert_eq!(
                        contains_bytes(cut, NEEDLE),
                        windows_oracle(cut, NEEDLE),
                        "len={len} at={at}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Random bodies dense in `"`, against random short needles and
        /// the service's `"tenant"`.
        #[test]
        fn scan_matches_the_windows_oracle(
            body in dense_bytes(96),
            needle in dense_bytes(10),
        ) {
            prop_assert_eq!(contains_bytes(&body, NEEDLE), windows_oracle(&body, NEEDLE));
            if !needle.is_empty() {
                prop_assert_eq!(contains_bytes(&body, &needle), windows_oracle(&body, &needle));
            }
        }

        /// Arbitrary bytes, including every byte value above `"` that a
        /// wrong zero-byte test would confuse with it.
        #[test]
        fn scan_matches_the_oracle_on_arbitrary_bytes(
            body in prop::collection::vec(0u8..=255, 0..64),
            at in 0usize..64,
        ) {
            prop_assert_eq!(contains_bytes(&body, NEEDLE), windows_oracle(&body, NEEDLE));
            let mut planted = body.clone();
            let at = at.min(planted.len());
            planted.splice(at..at, NEEDLE.iter().copied());
            prop_assert!(contains_bytes(&planted, NEEDLE));
        }
    }
}
