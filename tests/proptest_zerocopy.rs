//! Property test: the `/v1/solve` body parser the service runs (one
//! typed pass into the instance's curves, with the tree naming every
//! error) and the tree-building oracle are *extensionally equal* — on
//! any byte string, valid or not, they return the same parsed request
//! (algo, ε, placements flag, instance semantics) or the same error
//! text. This is the guarantee that lets the service run the typed
//! pass.

use moldable::core::io::InstanceSpec;
use moldable::prelude::*;
use moldable::svc::wire::{parse_solve_body, parse_solve_body_tree};
use proptest::prelude::*;
use serde_json::json;

/// Compare both parsers on one body: full `Result` agreement, with
/// instances compared through their canonical spec serialization.
fn assert_parsers_agree(body: &[u8]) {
    let eps = Ratio::new(1, 4);
    let zero_copy = parse_solve_body(body, &eps);
    let tree = parse_solve_body_tree(body, &eps);
    match (zero_copy, tree) {
        (Ok((a, inst_a)), Ok((b, inst_b))) => {
            // Whole-struct equality: algo, ε, placements, topology,
            // policy, and the v4 tenant/quotas fields all agree.
            assert_eq!(a, b, "parsed requests diverged");
            let spec_a = InstanceSpec::from_instance(&inst_a).expect("parsed curves serialize");
            let spec_b = InstanceSpec::from_instance(&inst_b).expect("parsed curves serialize");
            assert_eq!(
                serde_json::to_string(&serde_json::to_value(&spec_a)).unwrap(),
                serde_json::to_string(&serde_json::to_value(&spec_b)).unwrap(),
                "instance semantics diverged"
            );
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "error texts diverged"),
        (a, b) => panic!(
            "parsers disagree on validity for {:?}:\n zero-copy: {:?}\n tree: {:?}",
            String::from_utf8_lossy(body),
            a.map(|(sr, _)| sr),
            b.map(|(sr, _)| sr),
        ),
    }
}

/// One curve spec as JSON text, spanning every wire family. Some draws
/// are deliberately invalid (empty tables, work-dropping staircases):
/// the property is parser *agreement*, not body validity.
fn curve_json() -> impl Strategy<Value = String> {
    (0usize..6, 1u64..60, 1u64..8, 0u64..6).prop_map(|(kind, t, c, cap)| match kind {
        0 => format!(r#"{{"constant": {t}}}"#),
        1 => format!(r#"{{"table": [{}, {}, {}]}}"#, t + 20, t + 10, t),
        2 => format!(
            r#"{{"table": [{t}, {}, {}]}}"#,
            t + 7,
            t.saturating_sub(1).max(1)
        ),
        3 => format!(r#"{{"staircase": [[1, {}], [{}, {t}]]}}"#, t + 10, c + 1),
        4 => format!(r#"{{"affine_decreasing": {{"base": {t}}}}}"#),
        _ => format!(
            r#"{{"ideal_with_overhead": {{"t1": {}, "c": {c}, "cap": {cap}}}}}"#,
            t * 10
        ),
    })
}

/// A solve-request body assembled from generated parts; optional fields
/// appear probabilistically, and `eps`/`algo` draws include malformed
/// values.
fn body_json() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(curve_json(), 0..5),
        0u64..20,
        0usize..5,
        0usize..4,
        0usize..3,
        0usize..7,
    )
        .prop_map(|(curves, m, algo_pick, eps_pick, flag_pick, tenant_pick)| {
            let mut fields = vec![format!(
                r#""instance": {{"m": {m}, "jobs": [{}]}}"#,
                curves.join(", ")
            )];
            match algo_pick {
                0 => {}
                1 => fields.push(r#""algo": "linear""#.to_string()),
                2 => fields.push(r#""algo": "dual-fptas""#.to_string()),
                3 => fields.push(r#""algo": "quantum""#.to_string()),
                _ => fields.push(r#""algo": 7"#.to_string()),
            }
            match eps_pick {
                0 => {}
                1 => fields.push(r#""eps": "1/4""#.to_string()),
                2 => fields.push(r#""eps": "3/2""#.to_string()),
                _ => fields.push(r#""eps": 0.25"#.to_string()),
            }
            match flag_pick {
                0 => {}
                1 => fields.push(r#""placements": true"#.to_string()),
                _ => fields.push(r#""placements": "yes""#.to_string()),
            }
            // v4 fields: valid tenants (bare and fully spelled), a
            // tenant plus a quota set, and the rejection paths (wrong
            // types, quotas without a tenant, bad bounds).
            match tenant_pick {
                0 | 1 => {}
                2 => fields.push(r#""tenant": {"user": "alice"}"#.to_string()),
                3 => fields.push(
                    r#""tenant": {"user": "alice", "project": "render", "class": "batch"}"#
                        .to_string(),
                ),
                4 => fields.push(
                    r#""tenant": {"user": "alice"}, "quotas": {"window": 60, "rules": [{"user": "alice", "max_procs": 8, "max_resource_seconds": 100}]}"#
                        .to_string(),
                ),
                5 => fields.push(r#""tenant": 7"#.to_string()),
                _ => fields.push(
                    r#""quotas": {"rules": [{"max_jobs": "many"}]}"#.to_string(),
                ),
            }
            format!("{{{}}}", fields.join(", "))
        })
}

/// A body shaped like the `svc-cold` workload's: a generated mixed
/// instance on m = 1024 (many-step staircases, tables, closed forms)
/// with every knob that workload sends, compact or pretty-printed.
fn cold_body_json() -> impl Strategy<Value = String> {
    (0u64..1 << 32, 1usize..24, 0usize..2).prop_map(|(seed, n, pretty)| {
        let inst = bench_instance(BenchFamily::Mixed, n, 1024, seed);
        let spec = InstanceSpec::from_instance(&inst).expect("generated curves serialize");
        let body = json!({
            "instance": serde_json::to_value(&spec),
            "algo": "linear",
            "eps": "1/4",
            "topology": "32*2*16",
            "policy": "packed:node",
            "tenant": json!({"user": "u3"}),
        });
        if pretty == 1 {
            serde_json::to_string_pretty(&body).unwrap()
        } else {
            serde_json::to_string(&body).unwrap()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Structured bodies — mostly valid, some rejected by spec/eps/flag
    /// validation — parse identically down the two pipelines.
    #[test]
    fn zerocopy_matches_tree_on_structured_bodies(body in body_json()) {
        assert_parsers_agree(body.as_bytes());
    }

    /// Mutilated bodies (truncated, byte-flipped, or byte-inserted valid
    /// bodies) still produce byte-identical outcomes — this is where
    /// tokenizer error paths diverge if anything does.
    #[test]
    fn zerocopy_matches_tree_on_mutated_bodies(
        body in body_json(),
        at in 0usize..512,
        byte in 0u8..=255,
        op in 0usize..3,
    ) {
        let mut bytes = body.into_bytes();
        let at = at % (bytes.len() + 1);
        match op {
            0 => bytes.truncate(at),
            1 => bytes.insert(at, byte),
            _ if at < bytes.len() => bytes[at] = byte,
            _ => {}
        }
        assert_parsers_agree(&bytes);
    }

    /// Raw byte soup — overwhelmingly invalid JSON, often invalid UTF-8:
    /// both parsers must refuse with the same message.
    #[test]
    fn zerocopy_matches_tree_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..160),
    ) {
        assert_parsers_agree(&bytes);
    }

    /// `svc-cold`-shaped bodies, whole and with one byte truncated,
    /// inserted or flipped: the staircase pairs are where the typed
    /// pass reads most of a body.
    #[test]
    fn zerocopy_matches_tree_on_cold_shaped_bodies(
        body in cold_body_json(),
        at in 0usize..1 << 20,
        byte in 0u8..=255,
        op in 0usize..4,
    ) {
        assert_parsers_agree(body.as_bytes());
        let mut bytes = body.into_bytes();
        let at = at % (bytes.len() + 1);
        match op {
            0 => bytes.truncate(at),
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => bytes[at] = byte,
            _ => {}
        }
        assert_parsers_agree(&bytes);
    }
}

/// Corners of the grammar the typed pass must read as the tree does.
#[test]
fn zerocopy_matches_tree_on_a_grammar_corpus() {
    let inst = r#"{"m": 4, "jobs": [{"staircase": [[1, 90], [2, 60]]}]}"#;
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let bodies = [
        // Escaped keys decode before they are matched.
        format!(r#"{{"\u0069nstance": {inst}}}"#),
        format!(r#"{{"instance": {inst}, "\u0074enant": {{"\u0075ser": "alice"}}}}"#),
        r#"{"instance": {"\u006d": 4, "j\u006fbs": [{"t\u0061ble": [5, 4]}]}}"#.to_string(),
        // Duplicate keys: the first counts, later ones must still parse.
        format!(r#"{{"instance": {inst}, "instance": {{"m": 0, "jobs": []}}}}"#),
        format!(r#"{{"instance": {{"m": 0, "jobs": []}}, "instance": {inst}}}"#),
        format!(r#"{{"instance": {inst}, "instance": [1, }}"#),
        format!(r#"{{"instance": {inst}, "instance": {{"m": 8, "jobs": [{{"constant": 5}}]}}}}"#),
        r#"{"instance": {"m": 4, "m": 8, "jobs": [{"constant": 5}], "jobs": [{"constant": 6}]}}"#
            .to_string(),
        r#"{"instance": {"m": 4, "m": "four", "jobs": [{"constant": 5}]}}"#.to_string(),
        r#"{"instance": {"m": "four", "m": 4, "jobs": [{"constant": 5}]}}"#.to_string(),
        r#"{"instance": {"m": 4, "jobs": [{"constant": 5}], "jobs": null}}"#.to_string(),
        r#"{"instance": {"m": 4, "jobs": 7, "jobs": [{"constant": 5}]}}"#.to_string(),
        r#"{"instance": {"m": 4, "jobs": [{"constant": 5, "constant": 6}]}}"#.to_string(),
        // Unknown fields inside the instance and inside curve objects.
        r#"{"instance": {"m": 4, "x": {"y": [1, "z"]}, "jobs": [{"constant": 5}]}}"#
            .to_string(),
        r#"{"instance": {"m": 4, "jobs": [{"affine_decreasing": {"x": [], "base": 9}}]}}"#
            .to_string(),
        r#"{"instance": {"m": 4, "jobs": [{"ideal_with_overhead": {"t1": 90, "c": 1, "cap": 4, "t2": 0}}]}}"#
            .to_string(),
        r#"{"instance": {"m": 4, "jobs": [{"constant": 5, "note": "x"}]}}"#.to_string(),
        // Number forms.
        r#"{"instance": {"m": 18446744073709551615, "jobs": [{"constant": 5}]}}"#.to_string(),
        r#"{"instance": {"m": 18446744073709551616, "jobs": [{"constant": 5}]}}"#.to_string(),
        r#"{"instance": {"m": 99999999999999999999, "jobs": [{"constant": 5}]}}"#.to_string(),
        r#"{"instance": {"m": 4, "jobs": [{"constant": 18446744073709551621}]}}"#.to_string(),
        r#"{"instance": {"m": 5.0, "jobs": [{"constant": 5.0}]}}"#.to_string(),
        r#"{"instance": {"m": 5.5, "jobs": [{"constant": 5}]}}"#.to_string(),
        r#"{"instance": {"m": -0, "jobs": [{"constant": 5}]}}"#.to_string(),
        r#"{"instance": {"m": 4, "jobs": [{"constant": -0}]}}"#.to_string(),
        r#"{"instance": {"m": 0004, "jobs": [{"table": [009, 08, 1e0]}]}}"#.to_string(),
        r#"{"instance": {"m": -4, "jobs": [{"constant": 5}]}}"#.to_string(),
        r#"{"instance": {"m": .4e1, "jobs": [{"constant": 5}]}}"#.to_string(),
        // Nesting at the limit and one past it, in a skipped member.
        format!(r#"{{"instance": {inst}, "x": {}}}"#, nested(127)),
        format!(r#"{{"instance": {inst}, "x": {}}}"#, nested(128)),
        format!(r#"{{"instance": {{"m": 4, "x": {}, "jobs": []}}}}"#, nested(126)),
        format!(r#"{{"instance": {{"m": 4, "x": {}, "jobs": []}}}}"#, nested(127)),
        format!(r#"{{"instance": {}}}"#, "[".repeat(10_000)),
    ];
    for body in &bodies {
        assert_parsers_agree(body.as_bytes());
    }
}
