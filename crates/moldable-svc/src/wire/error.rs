//! The typed JSON error envelope, rendered identically everywhere.
//!
//! Every failure leaves the system in one shape:
//!
//! ```json
//! {"error": {"kind": "quota-denied", "detail": "quota rule …"}}
//! ```
//!
//! The HTTP service uses it as the body of every non-2xx response and
//! the CLI prints the same object to stderr, so scripts can switch on
//! `kind` without parsing prose on either front end. [`ErrorKind`]
//! enumerates the kinds, fixes their kebab-case wire names
//! ([`Display`](std::fmt::Display)) and HTTP status codes
//! ([`ErrorKind::status`]); `detail` stays the human-readable message,
//! verbatim (e.g. a [`QuotaDenial`] rendering or the solver registry
//! listing). A [`Failure`] carries both from the stage that raised it to
//! the front end that renders it, so no kind is ever re-derived from
//! the message text.
//!
//! [`QuotaDenial`]: moldable_sched::quotas::QuotaDenial

use std::fmt;

/// Machine-readable failure class carried as `error.kind`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed or invalid request (syntax, types, cross-field checks).
    BadRequest,
    /// `algo` names no registered solver.
    UnknownSolver,
    /// Request body over the configured size limit.
    PayloadTooLarge,
    /// Admission control rejected the request ([`QuotaDenial`] detail).
    ///
    /// [`QuotaDenial`]: moldable_sched::quotas::QuotaDenial
    QuotaDenied,
    /// No route at the requested path.
    NotFound,
    /// Route exists, method does not.
    MethodNotAllowed,
    /// The placement lowering failed on a valid schedule.
    Placement,
    /// A solver returned a schedule the validator rejected.
    InvalidSchedule,
    /// Any other server-side failure.
    Internal,
}

/// Every kind, for exhaustive tests and documentation tables.
pub const ERROR_KINDS: [ErrorKind; 9] = [
    ErrorKind::BadRequest,
    ErrorKind::UnknownSolver,
    ErrorKind::PayloadTooLarge,
    ErrorKind::QuotaDenied,
    ErrorKind::NotFound,
    ErrorKind::MethodNotAllowed,
    ErrorKind::Placement,
    ErrorKind::InvalidSchedule,
    ErrorKind::Internal,
];

impl ErrorKind {
    /// The HTTP status code this kind travels under.
    pub fn status(self) -> u16 {
        match self {
            ErrorKind::BadRequest | ErrorKind::UnknownSolver => 400,
            ErrorKind::NotFound => 404,
            ErrorKind::MethodNotAllowed => 405,
            ErrorKind::PayloadTooLarge => 413,
            ErrorKind::QuotaDenied => 429,
            ErrorKind::Placement | ErrorKind::InvalidSchedule | ErrorKind::Internal => 500,
        }
    }

    /// Render the envelope body: `{"error":{"kind":…,"detail":…}}`.
    pub fn envelope(self, detail: &str) -> String {
        serde_json::to_string(&serde_json::json!({
            "error": serde_json::json!({
                "kind": self.to_string(),
                "detail": detail,
            }),
        }))
        .expect("shim serialization is infallible")
    }
}

/// A failure on its way to the envelope: the [`ErrorKind`] set by the
/// stage that raised it, plus the verbatim detail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// The failure class; fixes the HTTP status and the envelope `kind`.
    pub kind: ErrorKind,
    /// The human-readable message.
    pub detail: String,
}

impl Failure {
    /// A failure of `kind` carrying `detail`.
    pub fn new(kind: ErrorKind, detail: impl Into<String>) -> Failure {
        Failure {
            kind,
            detail: detail.into(),
        }
    }

    /// A malformed or invalid request: the kind of every parse and
    /// cross-field check.
    pub fn bad_request(detail: impl Into<String>) -> Failure {
        Failure::new(ErrorKind::BadRequest, detail)
    }

    /// The rendered `{"error": {"kind", "detail"}}` envelope.
    pub fn envelope(&self) -> String {
        self.kind.envelope(&self.detail)
    }
}

/// Admission refused the request: `quota-denied`, the denial verbatim.
impl From<Box<moldable_sched::quotas::QuotaDenial>> for Failure {
    fn from(denial: Box<moldable_sched::quotas::QuotaDenial>) -> Failure {
        Failure::new(ErrorKind::QuotaDenied, denial.to_string())
    }
}

/// `algo` names no solver: `unknown-solver`, listing every registry name.
impl From<moldable_sched::solver::UnknownSolver> for Failure {
    fn from(unknown: moldable_sched::solver::UnknownSolver) -> Failure {
        Failure::new(ErrorKind::UnknownSolver, unknown.to_string())
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::UnknownSolver => "unknown-solver",
            ErrorKind::PayloadTooLarge => "payload-too-large",
            ErrorKind::QuotaDenied => "quota-denied",
            ErrorKind::NotFound => "not-found",
            ErrorKind::MethodNotAllowed => "method-not-allowed",
            ErrorKind::Placement => "placement",
            ErrorKind::InvalidSchedule => "invalid-schedule",
            ErrorKind::Internal => "internal",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kind's wire name and status code, pinned — the wire names
    /// are API, scripts switch on them.
    #[test]
    fn every_kind_displays_its_wire_name_and_status() {
        let expected: [(&str, u16); 9] = [
            ("bad-request", 400),
            ("unknown-solver", 400),
            ("payload-too-large", 413),
            ("quota-denied", 429),
            ("not-found", 404),
            ("method-not-allowed", 405),
            ("placement", 500),
            ("invalid-schedule", 500),
            ("internal", 500),
        ];
        for (kind, (name, status)) in ERROR_KINDS.iter().zip(expected) {
            assert_eq!(kind.to_string(), name);
            assert_eq!(kind.status(), status);
        }
    }

    #[test]
    fn envelope_bytes_are_pinned() {
        assert_eq!(
            ErrorKind::QuotaDenied.envelope("no capacity"),
            r#"{"error":{"kind":"quota-denied","detail":"no capacity"}}"#
        );
        // The detail travels verbatim, escapes included.
        assert_eq!(
            ErrorKind::BadRequest.envelope(r#"bad `eps`: "3/2""#),
            r#"{"error":{"kind":"bad-request","detail":"bad `eps`: \"3/2\""}}"#
        );
    }
}
