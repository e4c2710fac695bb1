//! A stable, dependency-free 128-bit hash: the hasher behind
//! [`Instance::canonical_hash`](crate::instance::Instance::canonical_hash).
//!
//! `std::hash` deliberately refuses stability guarantees (and
//! `DefaultHasher` is randomly seeded per process), so a digest meant to
//! mean the same thing in every process goes through this explicit
//! hasher instead: **FNV-1a over 128 bits**, a fixed published algorithm
//! whose output is identical across runs, platforms, and compiler
//! versions.
//!
//! Collisions: at 2^128 the birthday bound puts any realistic corpus
//! (even 2^40 distinct instances) below 2^-47 collision probability —
//! the same trust placed in content-hash stores. Digests are *not*
//! adversary-proof (FNV is not cryptographic).

/// FNV-1a offset basis for the 128-bit variant.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV prime for the 128-bit variant.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// An incremental FNV-1a/128 hasher with length-prefixed writes.
///
/// Multi-value writes are framed (each `write_*` folds in a fixed-width
/// encoding, and [`StableHasher::write_bytes`] prefixes the length), so
/// `("ab", "c")` and `("a", "bc")` hash differently.
///
/// ```
/// use moldable_core::hash::StableHasher;
///
/// let mut h = StableHasher::new();
/// h.write_u64(42);
/// h.write_str("linear");
/// let a = h.finish();
/// // Deterministic: the same writes always produce the same key.
/// let mut h = StableHasher::new();
/// h.write_u64(42);
/// h.write_str("linear");
/// assert_eq!(a, h.finish());
/// ```
#[derive(Clone, Debug)]
pub struct StableHasher {
    state: u128,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> StableHasher {
        StableHasher { state: FNV_OFFSET }
    }

    /// Fold one byte into the state.
    #[inline]
    fn byte(&mut self, b: u8) {
        self.state ^= b as u128;
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Fold raw bytes, prefixed with their length (framing).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for &b in bytes {
            self.byte(b);
        }
    }

    /// Fold a `u64` (fixed-width little-endian).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Fold a `u128` (fixed-width little-endian).
    #[inline]
    pub fn write_u128(&mut self, v: u128) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Fold a string (length-prefixed UTF-8 bytes).
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// The 128-bit digest.
    pub fn finish(&self) -> u128 {
        self.state
    }

    /// The digest folded to 64 bits (XOR of the halves).
    pub fn finish64(&self) -> u64 {
        (self.state as u64) ^ ((self.state >> 64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a/128 of the bytes "a" (no framing): published test vector
        // basis — computed by the reference fold.
        let mut h = StableHasher::new();
        h.byte(b'a');
        assert_eq!(
            h.finish(),
            (FNV_OFFSET ^ (b'a' as u128)).wrapping_mul(FNV_PRIME)
        );
    }

    #[test]
    fn framing_distinguishes_splits() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn deterministic_across_instances() {
        let digest = |vals: &[u64]| {
            let mut h = StableHasher::new();
            for &v in vals {
                h.write_u64(v);
            }
            (h.finish(), h.finish64())
        };
        assert_eq!(digest(&[1, 2, 3]), digest(&[1, 2, 3]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[1, 2, 4]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[3, 2, 1]));
    }

    #[test]
    fn stable_across_releases() {
        // Pinned digest: changing the algorithm (or its framing) breaks
        // every persisted cache key, so it must be deliberate.
        let mut h = StableHasher::new();
        h.write_u64(64);
        h.write_str("linear");
        h.write_u128(u128::MAX);
        assert_eq!(h.finish(), 0x65f948c574122ec366198150aef69906u128);
    }
}
