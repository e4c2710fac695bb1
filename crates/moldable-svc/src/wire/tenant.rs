//! Wire grammar for the v4 multi-tenant fields: `tenant` and `quotas`.
//!
//! A request identifies its submitter with a `tenant` object —
//!
//! ```json
//! {"tenant": {"user": "alice", "project": "phys", "class": "batch"}}
//! ```
//!
//! — where `project` and `class` default to `"default"`, mirroring the
//! CLI spec grammar `user[/project[/class]]` of
//! [`Tenant::parse`]. A request (or the service operator, via
//! `--quotas FILE`) may also carry a `quotas` rule set:
//!
//! ```json
//! {"quotas": {"window": 3600, "rules": [
//!     {"user": "alice", "max_procs": 64},
//!     {"user": "*", "class": "batch", "max_jobs": 4, "max_resource_seconds": 100000}
//! ]}}
//! ```
//!
//! Selectors are strings with `"*"` (or omission) meaning *any*; bounds
//! are unsigned integers and each may be omitted; `window` defaults to
//! [`DEFAULT_WINDOW`] ticks. Both shapes are read from a [`Value`]
//! tree: request bodies, the CLI `--quotas` flag and the service's
//! `--quotas FILE` share one walk, so they share fields, defaults and
//! error texts.

use moldable_sched::quotas::{QuotaRule, QuotaSet, Tenant};
use serde_json::{Number, Value};

/// Sliding-window length (ticks) when `quotas.window` is omitted: one
/// hour of wall-clock seconds, the usual accounting granularity.
pub const DEFAULT_WINDOW: u64 = 3600;

/// Error text for a non-object `tenant` field, shared by every parser.
const TENANT_TYPE_ERROR: &str = "`tenant` must be an object like {\"user\": \"alice\"}";

/// Error text for a non-object `quotas` field, shared by every parser.
const QUOTAS_TYPE_ERROR: &str = "`quotas` must be an object with a `rules` array";

/// Parse a `quotas` object from JSON text — the CLI `--quotas` flag and
/// the service's `--quotas FILE` both land here, so operator files and
/// request bodies share one grammar.
pub fn quotas_from_str(text: &str) -> Result<QuotaSet, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| format!("invalid `quotas`: {e}"))?;
    quotas_from(&v)
}

/// Parse a `tenant` object.
pub(crate) fn tenant_from(v: &Value) -> Result<Tenant, String> {
    if v.as_object().is_none() {
        return Err(TENANT_TYPE_ERROR.to_string());
    }
    let part = |key: &str, value: &Value| -> Result<String, String> {
        match value.as_str() {
            Some(s) if !s.is_empty() && !s.contains('/') => Ok(s.to_string()),
            _ => Err(format!(
                "`tenant.{key}` must be a non-empty string without `/`"
            )),
        }
    };
    let user = match v.get("user") {
        None => return Err("`tenant` requires a `user` string".to_string()),
        Some(u) => part("user", u)?,
    };
    let project = match v.get("project") {
        None => "default".to_string(),
        Some(p) => part("project", p)?,
    };
    let class = match v.get("class") {
        None => "default".to_string(),
        Some(c) => part("class", c)?,
    };
    Ok(Tenant {
        user,
        project,
        class,
    })
}

/// Parse a `quotas` object.
pub(crate) fn quotas_from(v: &Value) -> Result<QuotaSet, String> {
    if v.as_object().is_none() {
        return Err(QUOTAS_TYPE_ERROR.to_string());
    }
    let window = match v.get("window") {
        None => DEFAULT_WINDOW,
        Some(w) => w
            .as_number()
            .and_then(Number::as_u128)
            .and_then(|n| u64::try_from(n).ok())
            .filter(|&n| n >= 1)
            .ok_or_else(|| "`quotas.window` must be an integer >= 1".to_string())?,
    };
    let rules = v
        .get("rules")
        .ok_or_else(|| "`quotas` requires a `rules` array".to_string())?
        .as_array()
        .ok_or_else(|| "`quotas.rules` must be an array".to_string())?
        .iter()
        .enumerate()
        .map(|(i, row)| rule_from(row, i))
        .collect::<Result<_, _>>()?;
    Ok(QuotaSet { window, rules })
}

fn rule_from(v: &Value, i: usize) -> Result<QuotaRule, String> {
    if v.as_object().is_none() {
        return Err(format!("`quotas.rules[{i}]` must be an object"));
    }
    let selector = |key: &str| -> Result<Option<String>, String> {
        match v.get(key) {
            None => Ok(None),
            Some(s) => match s.as_str() {
                Some("*") => Ok(None),
                Some(x) if !x.is_empty() => Ok(Some(x.to_string())),
                _ => Err(format!(
                    "`quotas.rules[{i}].{key}` must be a non-empty string (`*` matches any)"
                )),
            },
        }
    };
    let bound = |key: &str| -> Result<Option<u128>, String> {
        match v.get(key) {
            None => Ok(None),
            Some(b) => b
                .as_number()
                .and_then(Number::as_u128)
                .map(Some)
                .ok_or_else(|| {
                    format!("`quotas.rules[{i}].{key}` must be an unsigned integer")
                }),
        }
    };
    let cap_u64 = |key: &str| -> Result<Option<u64>, String> {
        bound(key)?
            .map(|n| {
                u64::try_from(n).map_err(|_| {
                    format!("`quotas.rules[{i}].{key}` must be an unsigned integer")
                })
            })
            .transpose()
    };
    Ok(QuotaRule {
        user: selector("user")?,
        project: selector("project")?,
        class: selector("class")?,
        max_procs: cap_u64("max_procs")?,
        max_jobs: cap_u64("max_jobs")?,
        max_resource_seconds: bound("max_resource_seconds")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant_of(text: &str) -> Result<Tenant, String> {
        tenant_from(&serde_json::from_str::<Value>(text).unwrap())
    }

    /// The tree walk and the text entry point give identical `Result`s.
    fn both_quotas(text: &str) -> Result<QuotaSet, String> {
        let a = quotas_from(&serde_json::from_str::<Value>(text).unwrap());
        assert_eq!(quotas_from_str(text), a, "{text}");
        a
    }

    #[test]
    fn tenant_defaults_mirror_the_cli_grammar() {
        let t = tenant_of(r#"{"user": "alice"}"#).unwrap();
        assert_eq!(t, Tenant::parse("alice").unwrap());
        let t = tenant_of(r#"{"user": "alice", "project": "phys", "class": "batch"}"#).unwrap();
        assert_eq!(t, Tenant::parse("alice/phys/batch").unwrap());
    }

    #[test]
    fn tenant_rejections_name_the_field() {
        for (text, needle) in [
            (r#"[]"#, "`tenant` must be an object"),
            (r#"{}"#, "`tenant` requires a `user` string"),
            (r#"{"user": 7}"#, "`tenant.user` must be a non-empty string"),
            (
                r#"{"user": ""}"#,
                "`tenant.user` must be a non-empty string",
            ),
            (
                r#"{"user": "a/b"}"#,
                "`tenant.user` must be a non-empty string",
            ),
            (r#"{"user": "a", "class": null}"#, "`tenant.class`"),
        ] {
            let err = tenant_of(text).unwrap_err();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn quota_rules_parse_selectors_bounds_and_window() {
        let set = both_quotas(
            r#"{"window": 60, "rules": [
                {"user": "alice", "max_procs": 64},
                {"user": "*", "class": "batch", "max_jobs": 4, "max_resource_seconds": 100000}
            ]}"#,
        )
        .unwrap();
        assert_eq!(set.window, 60);
        assert_eq!(set.rules.len(), 2);
        assert_eq!(set.rules[0].to_string(), "alice/*/*{procs<=64}");
        assert_eq!(set.rules[1].to_string(), "*/*/batch{jobs<=4,rs<=100000}");
        // Window defaults; empty rule lists are legal (admit everything).
        let set = both_quotas(r#"{"rules": []}"#).unwrap();
        assert_eq!(set.window, DEFAULT_WINDOW);
        assert!(set.rules.is_empty());
    }

    #[test]
    fn quota_rejections_name_the_rule_index() {
        for (text, needle) in [
            (r#"7"#, "`quotas` must be an object"),
            (r#"{}"#, "`quotas` requires a `rules` array"),
            (r#"{"rules": 3}"#, "`quotas.rules` must be an array"),
            (r#"{"rules": [], "window": 0}"#, "`quotas.window`"),
            (r#"{"rules": [], "window": "1h"}"#, "`quotas.window`"),
            (
                r#"{"rules": [true]}"#,
                "`quotas.rules[0]` must be an object",
            ),
            (
                r#"{"rules": [{}, {"user": ""}]}"#,
                "`quotas.rules[1].user` must be a non-empty string",
            ),
            (
                r#"{"rules": [{"max_procs": -2}]}"#,
                "`quotas.rules[0].max_procs` must be an unsigned integer",
            ),
            (
                r#"{"rules": [{"max_jobs": 18446744073709551616}]}"#,
                "`quotas.rules[0].max_jobs` must be an unsigned integer",
            ),
        ] {
            let err = both_quotas(text).unwrap_err();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }
}
