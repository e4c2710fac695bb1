//! The exact-bytes response memo must be invisible in the response
//! bytes: for every registry solver, both wire-format shapes (with and
//! without `placements`), and both endpoints, a memo hit and a
//! reformatted body (a memo miss, computed afresh) are byte-identical to
//! what a cache-disabled app serves. Also pins response properties that
//! hold with or without caching — equivalent encodings and default
//! spellings answer equal bytes, a tenant tag changes only `schema` and
//! the echo, in-request quotas never change a 200 body — and that the
//! memo never serves a tenant-tagged body or an error.

use moldable::sched::SOLVER_NAMES;
use moldable::svc::http::{Request, Response};
use moldable::svc::{App, AppConfig};

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

fn cached_app() -> App {
    App::new(AppConfig::default())
}

fn uncached_app() -> App {
    App::new(AppConfig {
        cache_entries: 0,
        ..AppConfig::default()
    })
}

fn body_text(resp: &Response) -> String {
    String::from_utf8(resp.body.clone()).unwrap()
}

fn metrics(app: &App) -> serde_json::Value {
    serde_json::from_str(&body_text(&app.respond(&get("/metrics")))).unwrap()
}

/// Small enough for the exact solver (n ≤ 6, m ≤ 6) so every registry
/// name answers 200, with all curve families the wire speaks.
const SMALL: &str = r#"{"m": 4, "jobs": [
    {"constant": 9},
    {"staircase": [[1, 20], [2, 12]]},
    {"table": [15, 9, 7]},
    {"ideal_with_overhead": {"t1": 24, "c": 1, "cap": 4}}
]}"#;

#[test]
fn cached_responses_match_uncached_for_every_solver_and_shape() {
    let cached = cached_app();
    let uncached = uncached_app();
    assert!(cached.cache().is_some());
    assert!(uncached.cache().is_none());
    for algo in SOLVER_NAMES {
        for placements in [false, true] {
            let body = format!(
                r#"{{"instance": {SMALL}, "algo": "{algo}", "eps": "1/4", "placements": {placements}}}"#
            );
            let req = post("/v1/solve", &body);
            let reference = uncached.respond(&req);
            assert_eq!(reference.status, 200, "{algo}: {}", body_text(&reference));
            let miss = cached.respond(&req);
            // Byte-identical repeat: served by the exact-bytes memo.
            let body_hit = cached.respond(&req);
            // Same request with extra whitespace: misses the memo and is
            // computed afresh.
            let reformatted = cached.respond(&post("/v1/solve", &format!(" {body}")));
            assert_eq!(
                miss, reference,
                "{algo} (placements={placements}): miss diverged"
            );
            assert_eq!(
                body_hit, reference,
                "{algo} (placements={placements}): body hit diverged"
            );
            assert_eq!(
                reformatted, reference,
                "{algo} (placements={placements}): reformatted body diverged"
            );
        }
    }
    // Per (algo, placements) pair the memo scored one hit (the repeat)
    // and two misses (two distinct byte strings).
    let pairs = (SOLVER_NAMES.len() * 2) as u64;
    let (body_hits, body_misses, body_evictions) = cached.cache().unwrap().counters();
    assert_eq!(
        (body_hits, body_misses, body_evictions),
        (pairs, 2 * pairs, 0)
    );
}

#[test]
fn race_responses_cache_and_match_uncached() {
    let cached = cached_app();
    let uncached = uncached_app();
    for placements in [false, true] {
        let body = format!(r#"{{"instance": {SMALL}, "placements": {placements}}}"#);
        let req = post("/v1/race", &body);
        let reference = uncached.respond(&req);
        assert_eq!(reference.status, 200, "{}", body_text(&reference));
        let miss = cached.respond(&req);
        let hit = cached.respond(&req);
        assert_eq!(miss, reference, "placements={placements}: miss diverged");
        assert_eq!(hit, reference, "placements={placements}: hit diverged");
    }
    // `/v1/race` ignores `algo`, so bodies differing only in `algo`
    // answer equal bytes (both are memo misses: the memo only serves
    // byte-identical repeats).
    let body = format!(r#"{{"instance": {SMALL}, "algo": "dual-fptas"}}"#);
    let with_algo = cached.respond(&post("/v1/race", &body));
    let plain = cached.respond(&post("/v1/race", &format!(r#"{{"instance": {SMALL}}}"#)));
    assert_eq!(with_algo, plain);
    // Memo: 2 hits from the loop's repeats, 4 distinct byte strings.
    let (body_hits, body_misses, _) = cached.cache().unwrap().counters();
    assert_eq!((body_hits, body_misses), (2, 4));
}

#[test]
fn equivalent_encodings_answer_equal_bytes() {
    let app = uncached_app();
    // A non-increasing table and its canonical staircase are the same
    // curve on [1, m], so they answer the same bytes.
    let table = r#"{"instance": {"m": 8, "jobs": [{"table": [10, 6, 6, 5, 5, 5, 5, 5]}]}, "algo": "linear"}"#;
    let stair = r#"{"instance": {"m": 8, "jobs": [{"staircase": [[1, 10], [2, 6], [4, 5]]}]}, "algo": "linear"}"#;
    let a = app.respond(&post("/v1/solve", table));
    let b = app.respond(&post("/v1/solve", stair));
    assert_eq!(a.status, 200, "{}", body_text(&a));
    assert_eq!(a.body, b.body, "equivalent encodings answered differently");
    // A different ε is a different answer even on the same instance.
    let other_eps = r#"{"instance": {"m": 8, "jobs": [{"table": [10, 6, 6, 5, 5, 5, 5, 5]}]}, "algo": "linear", "eps": "1/8"}"#;
    let c = app.respond(&post("/v1/solve", other_eps));
    assert_eq!(c.status, 200, "{}", body_text(&c));
    assert_ne!(a.body, c.body, "eps did not reach the answer");
}

/// A field that is omitted and a field set to its default (or to an
/// equivalent spelling) must answer the same bytes, and the v2/v3 shapes
/// stay apart.
#[test]
fn omitted_and_default_fields_answer_equal_bytes() {
    let app = uncached_app();
    let solve = |extra: &str| {
        let resp = app.respond(&post(
            "/v1/solve",
            &format!(r#"{{"instance": {SMALL}, "algo": "linear"{extra}}}"#),
        ));
        assert_eq!(resp.status, 200, "{extra}: {}", body_text(&resp));
        resp.body
    };
    // v2 shape: explicit `"placements": false` ≡ omitted.
    let plain = solve("");
    assert_eq!(plain, solve(r#", "placements": false"#));
    // v3 shape: omitted policy ≡ explicit default `"contiguous"`.
    let topo = solve(r#", "topology": "2*2""#);
    assert_eq!(
        topo,
        solve(r#", "topology": "2*2", "policy": "contiguous""#)
    );
    // Equivalent topology spellings (arity spec vs explicit blocks)
    // and policy spellings (`packed` vs `packed:node`) answer equally.
    assert_eq!(
        solve(r#", "topology": "2*2", "policy": "packed""#),
        solve(r#", "topology": "0-1|2-3;0|1|2|3", "policy": "packed:node""#)
    );
    // And the v2/v3 shapes never collide: the flat response stayed v2.
    let schema = |bytes: &[u8]| {
        let v: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(bytes).unwrap()).unwrap();
        v["schema"].as_u64()
    };
    assert_eq!(schema(&plain), Some(2));
    assert_eq!(schema(&topo), Some(3));
}

/// A tenant tag changes only `schema` and the trailing echo; two tenants
/// get their own echoes, the defaulted project/class spellings answer
/// like the omitted ones, and the request-level `quotas` object never
/// changes a 200 body — admission is a gate, not a response input.
#[test]
fn tenant_changes_only_schema_and_echo_and_quotas_change_nothing() {
    let app = uncached_app();
    let solve = |extra: &str| {
        let body = format!(r#"{{"instance": {SMALL}, "algo": "linear"{extra}}}"#);
        let resp = app.respond(&post("/v1/solve", &body));
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        body_text(&resp)
    };
    let plain = solve("");
    let alice = solve(r#", "tenant": {"user": "alice"}"#);
    assert_eq!(solve(r#", "tenant": {"user": "alice"}"#), alice);
    let bob = solve(r#", "tenant": {"user": "bob"}"#);
    assert_ne!(bob, alice, "tenant echo must name the caller");
    let alice_explicit =
        solve(r#", "tenant": {"user": "alice", "project": "default", "class": "default"}"#);
    assert_eq!(alice_explicit, alice);
    let alice_quotas = solve(
        r#", "tenant": {"user": "alice"}, "quotas": {"rules": [{"user": "alice", "max_procs": 64}]}"#,
    );
    assert_eq!(alice_quotas, alice, "quotas changed a 200 body");
    // The untagged body stayed v2 while tagged replies are v4, and
    // nothing else differs.
    let plain: serde_json::Value = serde_json::from_str(&plain).unwrap();
    let alice: serde_json::Value = serde_json::from_str(&alice).unwrap();
    assert_eq!(plain["schema"].as_u64(), Some(2));
    assert_eq!(alice["schema"].as_u64(), Some(4));
    assert_eq!(alice["tenant"]["user"].as_str(), Some("alice"));
    let fields = |v: serde_json::Value| match v {
        serde_json::Value::Object(fields) => fields
            .into_iter()
            .filter(|(k, _)| k != "schema" && k != "tenant")
            .collect::<Vec<_>>(),
        other => panic!("object reply expected, got {other:?}"),
    };
    assert_eq!(fields(alice), fields(plain));
}

/// Tenant-tagged bodies skip the memo in both directions: every
/// byte-identical repeat is computed again and admitted again, and the
/// memo never counts it.
#[test]
fn tenant_tagged_repeats_skip_the_memo_and_run_admission() {
    let app = cached_app();
    let body =
        format!(r#"{{"instance": {SMALL}, "algo": "linear", "tenant": {{"user": "carol"}}}}"#);
    let first = app.respond(&post("/v1/solve", &body));
    assert_eq!(first.status, 200, "{}", body_text(&first));
    for _ in 0..2 {
        assert_eq!(app.respond(&post("/v1/solve", &body)), first);
    }
    let memo = app.cache().unwrap();
    assert!(memo.is_empty(), "a tenant-tagged response was memoized");
    assert_eq!(memo.counters(), (0, 0, 0), "a tagged body reached the memo");
    let m = metrics(&app);
    assert_eq!(
        m["tenants"]["carol/default/default"]["admitted"].as_u64(),
        Some(3),
        "admission skipped on a repeat: {m:?}"
    );
}

/// Regression: a tenant tag whose key is spelled with a `\uXXXX` escape
/// (`{"\u0074enant": …}`) parses as tenant-tagged but slips past the
/// memo's `"tenant"` byte scan. The memo's insert gate keys on the
/// *parsed* request, so the served bytes are never remembered and every
/// byte-identical replay still runs admission — the counters prove it.
#[test]
fn escaped_tenant_key_cannot_ride_the_exact_bytes_memo() {
    let app = cached_app();
    let body = format!(
        r#"{{"instance": {SMALL}, "algo": "linear", "\u0074enant": {{"user": "alice"}}}}"#
    );
    let first = app.respond(&post("/v1/solve", &body));
    assert_eq!(first.status, 200, "{}", body_text(&first));
    let v: serde_json::Value = serde_json::from_str(&body_text(&first)).unwrap();
    assert_eq!(
        v["schema"].as_u64(),
        Some(4),
        "escaped key must still parse as a tenant tag"
    );
    let second = app.respond(&post("/v1/solve", &body));
    assert_eq!(second.status, 200);
    assert_eq!(body_text(&second), body_text(&first));
    // The replay must not have been served from remembered bytes …
    let memo = app.cache().unwrap();
    assert!(
        memo.is_empty(),
        "a tenant-tagged response was memoized by body"
    );
    assert_eq!(
        memo.counters().0,
        0,
        "a tenant-tagged replay scored a memo hit"
    );
    // … and admission must have charged the tenant both times.
    let m = metrics(&app);
    assert_eq!(
        m["tenants"]["alice/default/default"]["admitted"].as_u64(),
        Some(2),
        "admission skipped on a byte-identical replay: {m:?}"
    );
}

#[test]
fn errors_are_never_cached() {
    let app = cached_app();
    for _ in 0..2 {
        for bad in [
            r#"{"instance": {"m": 0, "jobs": []}}"#.to_string(),
            r#"{"instance": {"m": 2, "jobs": []}}"#.to_string(),
            format!(r#"{{"instance": {SMALL}, "algo": "quantum"}}"#),
        ] {
            let resp = app.respond(&post("/v1/solve", &bad));
            assert_eq!(resp.status, 400, "{bad}");
        }
    }
    let memo = app.cache().unwrap();
    assert!(memo.is_empty(), "a failed request was memoized by body");
    assert_eq!(memo.counters().0, 0, "a failed repeat scored a memo hit");
}

#[test]
fn metrics_expose_cache_counters() {
    let app = cached_app();
    let req = post("/v1/solve", &format!(r#"{{"instance": {SMALL}}}"#));
    app.respond(&req);
    app.respond(&req);
    let v = metrics(&app);
    assert_eq!(v["cache"]["enabled"].as_bool(), Some(true));
    // The byte-identical repeat is a memo hit.
    assert_eq!(v["cache"]["body_hits"].as_u64(), Some(1));
    assert_eq!(v["cache"]["body_misses"].as_u64(), Some(1));
    assert_eq!(v["cache"]["body_evictions"].as_u64(), Some(0));
    assert_eq!(v["cache"]["body_entries"].as_u64(), Some(1));
    // The memo is the only cache: no second layer's counters.
    for gone in ["hits", "misses", "evictions", "entries"] {
        assert!(v["cache"].get(gone).is_none(), "`cache.{gone}` is back");
    }
    let v = metrics(&uncached_app());
    assert_eq!(v["cache"]["enabled"].as_bool(), Some(false));
}

#[test]
fn tiny_cache_evicts_but_stays_correct() {
    let app = App::new(AppConfig {
        cache_entries: 2,
        ..AppConfig::default()
    });
    let uncached = uncached_app();
    let bodies: Vec<String> = (1..=6u64)
        .map(|t| {
            format!(
                r#"{{"instance": {{"m": 4, "jobs": [{{"constant": {t}}}]}}, "algo": "linear"}}"#
            )
        })
        .collect();
    // Two passes over 6 distinct bodies through 2 slots: constant
    // eviction churn, every response still byte-exact.
    for _ in 0..2 {
        for body in &bodies {
            let req = post("/v1/solve", body);
            assert_eq!(app.respond(&req), uncached.respond(&req));
        }
    }
    let memo = app.cache().unwrap();
    let (_, misses, evictions) = memo.counters();
    assert!(evictions > 0, "no eviction despite 6 keys in 2 slots");
    assert!(misses >= 6, "second pass should keep missing under churn");
    assert!(memo.len() <= 2, "capacity bound violated: {}", memo.len());
}
