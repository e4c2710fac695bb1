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
//! [`DEFAULT_WINDOW`] ticks. Both shapes parse through one generic
//! walk shared by the owned-tree and zero-copy paths, so the two body
//! parsers cannot drift — same fields, same defaults, same error texts
//! by construction.

use crate::wire::JsonView;
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

/// Parse a `tenant` object from either JSON tree.
pub(crate) fn tenant_from<V: JsonView>(v: &V) -> Result<Tenant, String> {
    if !v.is_object() {
        return Err(TENANT_TYPE_ERROR.to_string());
    }
    let part = |key: &str, value: &V| -> Result<String, String> {
        match value.str_value() {
            Some(s) if !s.is_empty() && !s.contains('/') => Ok(s.to_string()),
            _ => Err(format!(
                "`tenant.{key}` must be a non-empty string without `/`"
            )),
        }
    };
    let user = match v.get_field("user") {
        None => return Err("`tenant` requires a `user` string".to_string()),
        Some(u) => part("user", u)?,
    };
    let project = match v.get_field("project") {
        None => "default".to_string(),
        Some(p) => part("project", p)?,
    };
    let class = match v.get_field("class") {
        None => "default".to_string(),
        Some(c) => part("class", c)?,
    };
    Ok(Tenant {
        user,
        project,
        class,
    })
}

/// Parse a `quotas` object from either JSON tree.
pub(crate) fn quotas_from<V: JsonView>(v: &V) -> Result<QuotaSet, String> {
    if !v.is_object() {
        return Err(QUOTAS_TYPE_ERROR.to_string());
    }
    let window = match v.get_field("window") {
        None => DEFAULT_WINDOW,
        Some(w) => w
            .number_value()
            .and_then(Number::as_u128)
            .and_then(|n| u64::try_from(n).ok())
            .filter(|&n| n >= 1)
            .ok_or_else(|| "`quotas.window` must be an integer >= 1".to_string())?,
    };
    let rows = v
        .get_field("rules")
        .ok_or_else(|| "`quotas` requires a `rules` array".to_string())?;
    let len = rows
        .array_len()
        .ok_or_else(|| "`quotas.rules` must be an array".to_string())?;
    let mut rules = Vec::with_capacity(len);
    for i in 0..len {
        rules.push(rule_from(rows.array_item(i), i)?);
    }
    Ok(QuotaSet { window, rules })
}

fn rule_from<V: JsonView>(v: &V, i: usize) -> Result<QuotaRule, String> {
    if !v.is_object() {
        return Err(format!("`quotas.rules[{i}]` must be an object"));
    }
    let selector = |key: &str| -> Result<Option<String>, String> {
        match v.get_field(key) {
            None => Ok(None),
            Some(s) => match s.str_value() {
                Some("*") => Ok(None),
                Some(x) if !x.is_empty() => Ok(Some(x.to_string())),
                _ => Err(format!(
                    "`quotas.rules[{i}].{key}` must be a non-empty string (`*` matches any)"
                )),
            },
        }
    };
    let bound = |key: &str| -> Result<Option<u128>, String> {
        match v.get_field(key) {
            None => Ok(None),
            Some(b) => b
                .number_value()
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
    use serde_json::borrow::from_str_borrowed;

    /// Parse the same text through both trees and require identical
    /// `Result`s — the zero-copy contract, at the field level.
    fn both_tenant(text: &str) -> Result<Tenant, String> {
        let owned: Value = serde_json::from_str(text).unwrap();
        let borrowed = from_str_borrowed(text).unwrap();
        let a = tenant_from(&owned);
        let b = tenant_from(&borrowed);
        assert_eq!(a, b, "{text}");
        a
    }

    fn both_quotas(text: &str) -> Result<QuotaSet, String> {
        let owned: Value = serde_json::from_str(text).unwrap();
        let borrowed = from_str_borrowed(text).unwrap();
        let a = quotas_from(&owned);
        let b = quotas_from(&borrowed);
        assert_eq!(a, b, "{text}");
        assert_eq!(quotas_from_str(text), a, "{text}");
        a
    }

    #[test]
    fn tenant_defaults_mirror_the_cli_grammar() {
        let t = both_tenant(r#"{"user": "alice"}"#).unwrap();
        assert_eq!(t, Tenant::parse("alice").unwrap());
        let t =
            both_tenant(r#"{"user": "alice", "project": "phys", "class": "batch"}"#).unwrap();
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
            let err = both_tenant(text).unwrap_err();
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
