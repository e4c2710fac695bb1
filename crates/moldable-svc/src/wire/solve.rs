//! The shared solve-request shape: one struct, read from argv, from a
//! JSON tree, and in one typed pass from body bytes.
//!
//! The CLI (`solve`/`race` flags) and the HTTP service (`/v1/solve`/
//! `/v1/race` JSON bodies) accept the same knobs — solver name,
//! accuracy, whether to return a placement layer, since wire-format v3
//! an optional machine topology plus placement policy, and since v4 an
//! optional tenant identity plus in-request quota rules. [`SolveRequest`]
//! is the single source of truth for their names, defaults, and
//! grammars: [`SolveRequest::from_json`] reads a parsed request body,
//! [`SolveRequest::from_args`] reads an argv slice, and both produce the
//! identical struct (the unit tests pin them field for field), so the
//! front ends can never drift apart.
//!
//! A whole `{"instance": …, "algo"?, "eps"?, "placements"?,
//! "topology"?, "policy"?, "tenant"?, "quotas"?}` body is read by
//! [`parse_solve_body`]: the [`typed`] pass reads
//! the instance's numbers straight into its curves and hands the knobs
//! to [`SolveRequest::from_json`]. [`parse_solve_body_tree`] is the same
//! pipeline over the tree parser and the derived `InstanceSpec`
//! deserializer. It names every error: the typed pass only ever
//! accepts, and a body it refuses goes to the tree
//! (`tests/proptest_zerocopy.rs` pins the two to byte-identical
//! `Result`s on arbitrary bodies).

use crate::app::parse_eps;
use crate::wire::tenant::{quotas_from, quotas_from_str, tenant_from};
use crate::wire::typed;
use moldable_core::hierarchy::Topology;
use moldable_core::instance::Instance;
use moldable_core::io::InstanceSpec;
use moldable_core::ratio::Ratio;
use moldable_sched::policy::PlacementPolicy;
use moldable_sched::quotas::{QuotaSet, Tenant};
use serde::Deserialize;
use serde_json::Value;

/// What a solve-shaped request asks for, front-end independent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SolveRequest {
    /// Registry solver name (JSON `"algo"` / CLI `--algo`); defaults to
    /// `linear` in both front ends.
    pub algo: String,
    /// Accuracy `ε ∈ (0, 1]` (JSON `"eps"` / CLI `--eps`, both in the
    /// `N/D` grammar of [`parse_eps`]).
    pub eps: Ratio,
    /// Return the concrete-processor placement layer (JSON
    /// `"placements": true` / CLI `--place`); off by default — the
    /// wire-format v1 shape.
    pub placements: bool,
    /// Machine hierarchy to lower onto (JSON `"topology"` / CLI
    /// `--topology`, both the [`Topology::parse`] spec grammar). `None`
    /// keeps the flat machine and the v2 wire shape; `Some` switches
    /// the response to wire-format v3 (placements with locality rows
    /// plus a fragmentation summary) and must cover exactly the
    /// instance's `m` ([`SolveRequest::check_topology`]).
    pub topology: Option<Topology>,
    /// Placement strategy (JSON `"policy"` / CLI `--policy`, the
    /// [`PlacementPolicy::parse`] grammar resolved against `topology`);
    /// only meaningful — and only accepted — alongside a topology.
    /// Defaults to [`PlacementPolicy::Contiguous`].
    pub policy: PlacementPolicy,
    /// Who is asking (JSON `"tenant"` object / CLI `--tenant SPEC`).
    /// `None` keeps the tenant-free v2/v3 wire shape byte-for-byte;
    /// `Some` switches the response to wire-format v4 (a `tenant` echo
    /// plus `"schema": 4`) and makes the request subject to admission
    /// control.
    pub tenant: Option<Tenant>,
    /// In-request quota rules (JSON `"quotas"` object / CLI
    /// `--quotas JSON`), checked by the admission layer *in addition*
    /// to any operator-configured set; only accepted alongside a
    /// `tenant` (there is nobody to account them to otherwise).
    pub quotas: Option<QuotaSet>,
}

impl SolveRequest {
    /// Read the shared fields from a parsed JSON request body. Unknown
    /// fields are ignored (the instance itself is parsed separately).
    pub fn from_json(request: &Value, default_eps: &Ratio) -> Result<SolveRequest, String> {
        knobs_from(request, default_eps)
    }

    /// Read the shared fields from CLI arguments: `--algo NAME`,
    /// `--eps N/D`, the boolean `--place`, `--topology SPEC`,
    /// `--policy P`, `--tenant user[/project[/class]]`, and
    /// `--quotas JSON` (the same object grammar the service accepts).
    pub fn from_args(args: &[String], default_eps: &Ratio) -> Result<SolveRequest, String> {
        let value_of = |name: &str| -> Result<Option<&String>, String> {
            match args.iter().position(|a| a == name) {
                None => Ok(None),
                Some(i) => args
                    .get(i + 1)
                    .map(Some)
                    .ok_or_else(|| format!("{name} needs a value")),
            }
        };
        let algo = value_of("--algo")?
            .cloned()
            .unwrap_or_else(|| "linear".to_string());
        let eps = match value_of("--eps")? {
            None => *default_eps,
            Some(raw) => parse_eps(raw)?,
        };
        let placements = args.iter().any(|a| a == "--place");
        let topology = match value_of("--topology")? {
            None => None,
            Some(raw) => Some(parse_topology(raw)?),
        };
        let policy = match value_of("--policy")? {
            None => PlacementPolicy::Contiguous,
            Some(raw) => parse_policy(raw, topology.as_ref())?,
        };
        let tenant = match value_of("--tenant")? {
            None => None,
            Some(raw) => Some(Tenant::parse(raw)?),
        };
        let quotas = match value_of("--quotas")? {
            None => None,
            Some(raw) => Some(check_quotas(quotas_from_str(raw)?, tenant.as_ref())?),
        };
        Ok(SolveRequest {
            algo,
            eps,
            placements,
            topology,
            policy,
            tenant,
            quotas,
        })
    }

    /// The wire-format version this request elicits: 4 with a tenant,
    /// 3 with a topology, 2 otherwise (see the [`crate::wire`] marker
    /// modules).
    pub fn schema(&self) -> u64 {
        if self.tenant.is_some() {
            crate::wire::v4::SCHEMA
        } else if self.topology.is_some() {
            crate::wire::v3::SCHEMA
        } else {
            crate::wire::v2::SCHEMA
        }
    }

    /// Cross-field check both front ends run once the instance is known:
    /// a requested topology must cover exactly the instance's machine
    /// park, or every lowered index would be meaningless.
    pub fn check_topology(&self, instance_m: u64) -> Result<(), String> {
        match &self.topology {
            Some(t) if t.m() != instance_m => Err(format!(
                "`topology` covers {} processors but the instance has m = {}",
                t.m(),
                instance_m
            )),
            _ => Ok(()),
        }
    }
}

/// Error text for a non-string `topology` field, shared by every parser.
const TOPOLOGY_TYPE_ERROR: &str =
    "`topology` must be a string spec like \"64*2*32\" or \"0-3|4-7\"";

/// Error text for a non-string `policy` field, shared by every parser.
const POLICY_TYPE_ERROR: &str = "`policy` must be a string like \"packed:node\"";

/// Parse a `topology` value through [`Topology::parse`], wrapping the
/// error with the field name — identical text on every front end.
fn parse_topology(raw: &str) -> Result<Topology, String> {
    Topology::parse(raw).map_err(|e| format!("invalid `topology`: {e}"))
}

/// Parse a `policy` value against the request's topology; a policy
/// without a topology is rejected (there is nothing to resolve level
/// names against, and the flat pass is always `contiguous`).
fn parse_policy(raw: &str, topology: Option<&Topology>) -> Result<PlacementPolicy, String> {
    let topology = topology.ok_or_else(|| "`policy` requires `topology`".to_string())?;
    PlacementPolicy::parse(raw, topology).map_err(|e| format!("invalid `policy`: {e}"))
}

/// A quota set without a tenant is rejected (there is no identity to
/// account the rules against) — the v4 twin of the policy/topology
/// cross-check, identical text on every front end.
fn check_quotas(quotas: QuotaSet, tenant: Option<&Tenant>) -> Result<QuotaSet, String> {
    if tenant.is_none() {
        return Err("`quotas` requires `tenant`".to_string());
    }
    Ok(quotas)
}

/// The request-knob walk behind [`SolveRequest::from_json`]. Knobs are
/// read in a fixed order, so the first bad one names the error.
fn knobs_from(request: &Value, default_eps: &Ratio) -> Result<SolveRequest, String> {
    let algo = str_knob(request, "algo", "`algo` must be a string")?
        .unwrap_or("linear")
        .to_string();
    let eps = match str_knob(request, "eps", "`eps` must be a string like \"1/4\"")? {
        None => *default_eps,
        Some(raw) => parse_eps(raw)?,
    };
    let placements = match request.get("placements") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| "`placements` must be a boolean".to_string())?,
    };
    let topology = str_knob(request, "topology", TOPOLOGY_TYPE_ERROR)?
        .map(parse_topology)
        .transpose()?;
    let policy = match str_knob(request, "policy", POLICY_TYPE_ERROR)? {
        None => PlacementPolicy::Contiguous,
        Some(raw) => parse_policy(raw, topology.as_ref())?,
    };
    let tenant = request.get("tenant").map(tenant_from).transpose()?;
    let quotas = request
        .get("quotas")
        .map(|v| check_quotas(quotas_from(v)?, tenant.as_ref()))
        .transpose()?;
    Ok(SolveRequest {
        algo,
        eps,
        placements,
        topology,
        policy,
        tenant,
        quotas,
    })
}

/// A string-valued knob: `None` when absent, `error` when not a string.
fn str_knob<'a>(request: &'a Value, key: &str, error: &str) -> Result<Option<&'a str>, String> {
    request
        .get(key)
        .map(|v| v.as_str().ok_or_else(|| error.to_string()))
        .transpose()
}

/// Parse a complete `/v1/solve`-shaped body: the UTF-8 check, then the
/// [`typed`] pass straight into the instance's
/// curves, with the knobs read through [`SolveRequest::from_json`].
///
/// A body the typed pass refuses goes to [`parse_solve_body_tree`],
/// which names the error, so error strings are the tree's byte for
/// byte, in its stage order: body syntax, `instance` presence,
/// instance validity, the request knobs, then the topology-vs-`m`
/// cross-check.
pub fn parse_solve_body(
    body: &[u8],
    default_eps: &Ratio,
) -> Result<(SolveRequest, Instance), String> {
    match std::str::from_utf8(body)
        .ok()
        .and_then(|text| typed::solve_body(text, default_eps))
    {
        Some(parsed) => Ok(parsed),
        None => parse_solve_body_tree(body, default_eps),
    }
}

/// The tree-parser twin of [`parse_solve_body`]: same body grammar, same
/// stage order, same error strings, but through `serde_json::from_str`
/// and the derived `InstanceSpec` deserializer. It names the error of
/// every body the typed pass refuses, and is the oracle the typed pass
/// is tested against — it must stay the straightforward spelling.
pub fn parse_solve_body_tree(
    body: &[u8],
    default_eps: &Ratio,
) -> Result<(SolveRequest, Instance), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let root: Value =
        serde_json::from_str(text).map_err(|e| format!("invalid JSON body: {e}"))?;
    let spec_value = root
        .get("instance")
        .ok_or_else(|| "missing `instance`".to_string())?;
    let instance = InstanceSpec::from_value(spec_value)
        .map_err(|e| e.to_string())
        .and_then(|spec| spec.into_instance().map_err(|e| e.to_string()))
        .map_err(|e| format!("invalid `instance`: {e}"))?;
    let request = SolveRequest::from_json(&root, default_eps)?;
    request.check_topology(instance.m())?;
    Ok((request, instance))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn strings(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn both_parsers_agree_field_for_field() {
        let default_eps = Ratio::new(1, 4);
        // (json body, argv) pairs that must produce identical requests.
        let cases: Vec<(Value, Vec<String>)> = vec![
            (json!({}), strings(&[])),
            (
                json!({"algo": "contiguous-73-50"}),
                strings(&["--algo", "contiguous-73-50"]),
            ),
            (json!({"eps": "1/8"}), strings(&["--eps", "1/8"])),
            (json!({"placements": true}), strings(&["--place"])),
            (
                json!({"algo": "mrt", "eps": "1/2", "placements": true}),
                strings(&["--algo", "mrt", "--eps", "1/2", "--place"]),
            ),
            (json!({"placements": false}), strings(&[])),
            (
                json!({"topology": "2*2*2"}),
                strings(&["--topology", "2*2*2"]),
            ),
            (
                json!({"topology": "0-3|4-7", "policy": "packed:node"}),
                strings(&["--topology", "0-3|4-7", "--policy", "packed:node"]),
            ),
            (
                json!({"topology": "2*4", "policy": "spread:socket"}),
                strings(&["--topology", "2*4", "--policy", "spread:socket"]),
            ),
            (
                json!({"tenant": serde_json::json!({"user": "alice"})}),
                strings(&["--tenant", "alice"]),
            ),
            (
                json!({"tenant": serde_json::json!({
                    "user": "alice", "project": "phys", "class": "batch",
                })}),
                strings(&["--tenant", "alice/phys/batch"]),
            ),
            (
                json!({
                    "tenant": serde_json::json!({"user": "bob"}),
                    "quotas": serde_json::json!({
                        "window": 60u64,
                        "rules": vec![serde_json::json!({"user": "bob", "max_jobs": 2u64})],
                    }),
                }),
                strings(&[
                    "--tenant",
                    "bob",
                    "--quotas",
                    r#"{"window": 60, "rules": [{"user": "bob", "max_jobs": 2}]}"#,
                ]),
            ),
        ];
        for (body, argv) in cases {
            let a = SolveRequest::from_json(&body, &default_eps).unwrap();
            let b = SolveRequest::from_args(&argv, &default_eps).unwrap();
            assert_eq!(a, b, "{body:?}");
        }
    }

    #[test]
    fn topology_and_policy_defaults_and_errors() {
        let default_eps = Ratio::new(1, 4);
        let r = SolveRequest::from_json(&json!({}), &default_eps).unwrap();
        assert!(r.topology.is_none());
        assert_eq!(r.policy, PlacementPolicy::Contiguous);
        assert!(r.check_topology(64).is_ok());
        // A topology must cover the instance's m exactly.
        let r = SolveRequest::from_json(&json!({"topology": "2*2*2"}), &default_eps).unwrap();
        assert!(r.check_topology(8).is_ok());
        let err = r.check_topology(64).unwrap_err();
        assert!(err.contains("covers 8 processors"), "{err}");
        assert!(err.contains("m = 64"), "{err}");
        // Field-level rejections, identical across front ends.
        for (body, needle) in [
            (json!({"topology": 7}), "`topology` must be a string"),
            (json!({"topology": "2*0"}), "invalid `topology`"),
            (
                json!({"policy": true, "topology": "2*2"}),
                "`policy` must be a string",
            ),
            (json!({"policy": "packed"}), "`policy` requires `topology`"),
            (
                json!({"topology": "2*2", "policy": "packed:rack"}),
                "unknown topology level",
            ),
            (
                json!({"topology": "2*2", "policy": "scatter"}),
                "unknown placement policy",
            ),
        ] {
            let err = SolveRequest::from_json(&body, &default_eps).unwrap_err();
            assert!(err.contains(needle), "{body:?} -> {err}");
        }
        let err = SolveRequest::from_args(&strings(&["--policy", "packed"]), &default_eps)
            .unwrap_err();
        assert_eq!(err, "`policy` requires `topology`");
        let err = SolveRequest::from_args(&strings(&["--topology", "nope*2"]), &default_eps)
            .unwrap_err();
        assert!(err.contains("invalid `topology`"), "{err}");
    }

    #[test]
    fn tenant_and_quotas_defaults_and_errors() {
        let default_eps = Ratio::new(1, 4);
        // Tenant-free requests stay tenant-free (the v2/v3 shapes).
        let r = SolveRequest::from_json(&json!({}), &default_eps).unwrap();
        assert!(r.tenant.is_none() && r.quotas.is_none());
        assert_eq!(r.schema(), 2);
        let r = SolveRequest::from_json(&json!({"topology": "2*2"}), &default_eps).unwrap();
        assert_eq!(r.schema(), 3);
        // A tenant bumps the schema to 4; omitted parts default.
        let r = SolveRequest::from_json(
            &json!({"tenant": serde_json::json!({"user": "alice"})}),
            &default_eps,
        )
        .unwrap();
        assert_eq!(r.schema(), 4);
        assert_eq!(r.tenant.unwrap().to_string(), "alice/default/default");
        // Field-level rejections, identical across front ends.
        for (body, needle) in [
            (json!({"tenant": "alice"}), "`tenant` must be an object"),
            (
                json!({"tenant": serde_json::json!({"project": "p"})}),
                "`tenant` requires a `user` string",
            ),
            (
                json!({"quotas": serde_json::json!({"rules": Vec::<Value>::new()})}),
                "`quotas` requires `tenant`",
            ),
            (
                json!({
                    "tenant": serde_json::json!({"user": "a"}),
                    "quotas": serde_json::json!({"window": 1u64}),
                }),
                "`quotas` requires a `rules` array",
            ),
        ] {
            let err = SolveRequest::from_json(&body, &default_eps).unwrap_err();
            assert!(err.contains(needle), "{body:?} -> {err}");
        }
        let err =
            SolveRequest::from_args(&strings(&["--quotas", r#"{"rules": []}"#]), &default_eps)
                .unwrap_err();
        assert_eq!(err, "`quotas` requires `tenant`");
        let err =
            SolveRequest::from_args(&strings(&["--tenant", "a//c"]), &default_eps).unwrap_err();
        assert!(err.contains("tenant must be"), "{err}");
        let err = SolveRequest::from_args(
            &strings(&["--tenant", "a", "--quotas", "{nope"]),
            &default_eps,
        )
        .unwrap_err();
        assert!(err.contains("invalid `quotas`"), "{err}");
    }

    #[test]
    fn defaults_are_linear_quarter_no_placements() {
        let r = SolveRequest::from_json(&json!({}), &Ratio::new(1, 4)).unwrap();
        assert_eq!(r.algo, "linear");
        assert_eq!(r.eps, Ratio::new(1, 4));
        assert!(!r.placements);
    }

    #[test]
    fn type_errors_name_the_field() {
        let default_eps = Ratio::new(1, 4);
        for (body, needle) in [
            (json!({"algo": 7}), "algo"),
            (json!({"eps": 0.25}), "eps"),
            (json!({"eps": "3/2"}), "eps"),
            (json!({"placements": "yes"}), "placements"),
        ] {
            let err = SolveRequest::from_json(&body, &default_eps).unwrap_err();
            assert!(err.contains(needle), "{body:?} -> {err}");
        }
        // Argv forms fail the same way.
        let err = SolveRequest::from_args(&strings(&["--eps"]), &default_eps).unwrap_err();
        assert!(err.contains("--eps"), "{err}");
        let err =
            SolveRequest::from_args(&strings(&["--eps", "0/4"]), &default_eps).unwrap_err();
        assert!(err.contains("eps"), "{err}");
    }

    /// Both body parsers must agree `Result`-for-`Result`: identical
    /// requests and instances on accept, identical error strings on
    /// reject. `tests/proptest_zerocopy.rs` widens this to arbitrary
    /// bodies; this corpus pins the interesting shapes deterministically.
    #[test]
    fn typed_and_tree_parsers_agree() {
        let default_eps = Ratio::new(1, 4);
        let bodies: Vec<Vec<u8>> = vec![
            // Every curve family, all knobs.
            br#"{"instance": {"m": 64, "jobs": [
                {"constant": 9},
                {"affine_decreasing": {"base": 4000}},
                {"table": [70, 40, 30]},
                {"staircase": [[1, 100], [2, 60], [4, 50]]},
                {"ideal_with_overhead": {"t1": 500, "c": 2, "cap": 64}}
            ]}, "algo": "linear", "eps": "1/8", "placements": true}"#
                .to_vec(),
            // Defaults only; duplicate keys (first wins).
            br#"{"instance": {"m": 2, "jobs": [{"constant": 3}]}}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": [{"constant": 3}]}, "algo": "mrt", "algo": "linear"}"#.to_vec(),
            // Escapes and unicode in strings.
            br#"{"instance": {"m": 2, "jobs": [{"constant": 3}]}, "algo": "linear"}"#.to_vec(),
            // Rejections: syntax, missing/invalid instance, bad knobs.
            b"{".to_vec(),
            b"{}".to_vec(),
            br#"{"instance": null}"#.to_vec(),
            br#"{"instance": {"m": 0, "jobs": []}}"#.to_vec(),
            br#"{"instance": {"jobs": []}}"#.to_vec(),
            br#"{"instance": {"m": 2}}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": [{"constant": 0}]}}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": [{"table": []}]}}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": [{"staircase": [[2, 5]]}]}}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": [{"staircase": [[1]]}]}}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": [{"warp": 1}]}}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": ["constant"]}}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": [{"constant": 1, "table": [1]}]}}"#.to_vec(),
            br#"{"instance": {"m": 1.5, "jobs": []}}"#.to_vec(),
            br#"{"instance": {"m": 340282366920938463463374607431768211455, "jobs": []}}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": [{"constant": 3}]}, "eps": "3/2"}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": [{"constant": 3}]}, "algo": 7}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": [{"constant": 3}]}, "placements": "yes"}"#.to_vec(),
            // Wire-format v3 knobs: accepted shapes and every rejection.
            br#"{"instance": {"m": 8, "jobs": [{"constant": 3}]}, "topology": "2*2*2"}"#.to_vec(),
            br#"{"instance": {"m": 8, "jobs": [{"constant": 3}]}, "topology": "0-3|4-7", "policy": "spread:node"}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": [{"constant": 3}]}, "topology": "2*2*2"}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": [{"constant": 3}]}, "topology": 7}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": [{"constant": 3}]}, "topology": "2*0"}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": [{"constant": 3}]}, "policy": "packed"}"#.to_vec(),
            br#"{"instance": {"m": 4, "jobs": [{"constant": 3}]}, "topology": "2*2", "policy": "packed:rack"}"#.to_vec(),
            br#"{"instance": {"m": 4, "jobs": [{"constant": 3}]}, "topology": "2*2", "policy": false}"#.to_vec(),
            // Wire-format v4 knobs: tenants, quotas, and every rejection.
            br#"{"instance": {"m": 2, "jobs": [{"constant": 3}]}, "tenant": {"user": "alice"}}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": [{"constant": 3}]}, "tenant": {"user": "alice", "project": "phys", "class": "batch"}}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": [{"constant": 3}]}, "tenant": {"user": "a"}, "quotas": {"window": 9, "rules": [{"user": "*", "max_procs": 4, "max_jobs": 1, "max_resource_seconds": 100}]}}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": [{"constant": 3}]}, "tenant": 7}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": [{"constant": 3}]}, "tenant": {}}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": [{"constant": 3}]}, "tenant": {"user": ""}}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": [{"constant": 3}]}, "quotas": {"rules": []}}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": [{"constant": 3}]}, "tenant": {"user": "a"}, "quotas": []}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": [{"constant": 3}]}, "tenant": {"user": "a"}, "quotas": {"rules": [{"max_procs": "lots"}]}}"#.to_vec(),
            br#"{"instance": {"m": 2, "jobs": [{"constant": 3}]}, "tenant": {"user": "a"}, "quotas": {"window": 0, "rules": []}}"#.to_vec(),
            vec![0xff, 0xfe, b'{', b'}'],
        ];
        for body in &bodies {
            let fast = parse_solve_body(body, &default_eps);
            let tree = parse_solve_body_tree(body, &default_eps);
            match (&fast, &tree) {
                (Ok((fr, fi)), Ok((tr, ti))) => {
                    assert_eq!(fr, tr, "{}", String::from_utf8_lossy(body));
                    assert_eq!(
                        InstanceSpec::from_instance(fi),
                        InstanceSpec::from_instance(ti),
                        "{}",
                        String::from_utf8_lossy(body)
                    );
                }
                (Err(fe), Err(te)) => {
                    assert_eq!(fe, te, "{}", String::from_utf8_lossy(body));
                }
                _ => panic!(
                    "parsers disagree on {}: fast {:?}, tree {:?}",
                    String::from_utf8_lossy(body),
                    fast.as_ref().map(|_| "ok"),
                    tree.as_ref().map(|_| "ok"),
                ),
            }
        }
    }
}
