//! The versioned wire format: one typed parse+validate layer for every
//! front end.
//!
//! The CLI (`solve`/`race` flags) and the HTTP service (`/v1/solve`,
//! `/v1/race` bodies) accept the same request shape and emit the same
//! response shape; this module is the single place both are defined.
//! [`solve`] holds the request side ([`SolveRequest`], parsed
//! identically from argv and from a JSON tree, and whole bodies through
//! [`parse_solve_body`]), [`typed`] the one-pass reader that takes a
//! body or an instance file straight to an
//! [`Instance`](moldable_core::instance::Instance), [`tenant`] the
//! multi-tenant grammar (`tenant` blocks and `quotas` rule sets), and
//! [`error`] the typed failure envelope every front end renders.
//!
//! Responses carry a `"schema"` field naming their version; versions
//! are strictly additive, so a vN reader can parse a vN+1 body by
//! ignoring the new fields, and a request that uses no vN+1 feature
//! gets a byte-identical vN body. The marker modules [`v1`]–[`v4`]
//! document what each version added; [`SolveRequest::schema`] computes
//! the version a request elicits.

pub mod error;
pub mod solve;
pub mod tenant;
pub mod typed;

pub use error::{ErrorKind, Failure};
pub use solve::{parse_solve_body, parse_solve_body_tree, SolveRequest};
pub use tenant::{quotas_from_str, DEFAULT_WINDOW};

/// Wire-format v1: the original solve response — `algo`, `eps`,
/// `makespan`, `lower_bound`, `ratio_bound`, `n`, `m`, and the
/// assignment rows. No `schema` field (v1 predates versioning).
pub mod v1 {
    /// The version number.
    pub const SCHEMA: u64 = 1;
}

/// Wire-format v2: adds `"schema": 2` and the optional placement layer
/// (`placements` rows with concrete processor ids) behind the
/// `placements` request knob.
pub mod v2 {
    /// The version number.
    pub const SCHEMA: u64 = 2;
}

/// Wire-format v3: adds the machine-topology layer — `topology` /
/// `policy` request knobs, locality columns on placement rows, and the
/// `fragmentation` summary. Elicited by sending `topology`.
pub mod v3 {
    /// The version number.
    pub const SCHEMA: u64 = 3;
}

/// Wire-format v4: adds multi-tenancy — the `tenant` identity block and
/// the optional in-request `quotas` rule set on the request side, and a
/// `tenant` echo on the response side. Elicited by sending `tenant`;
/// tenant-free requests keep their v2/v3 bytes exactly.
pub mod v4 {
    /// The version number.
    pub const SCHEMA: u64 = 4;
}
