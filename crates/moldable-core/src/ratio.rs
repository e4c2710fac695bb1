//! Exact non-negative rational numbers over `u128`.
//!
//! Every threshold the paper manipulates — `d/2`, `(1+ε)d`, `3d/2`,
//! `(1+4ρ)t_j(b)` — is a rational with a small denominator. Using exact
//! rationals means the dual-feasibility arguments (Lemmas 4–9, 16–19) carry
//! over to the implementation verbatim: a test failure is an algorithmic bug,
//! never floating-point noise.
//!
//! Comparisons use a widening 128×128→256-bit multiply so they are exact for
//! all representable values. Arithmetic (`+`, `*`) reduces by gcd first and
//! panics on irreducible overflow — in the scheduling algorithms all
//! denominators are tiny (products of 2, 3 and the denominator of ε), so an
//! overflow indicates a logic error. Geometric grids, which *do* compound
//! factors, round each step down onto a dyadic fixed point
//! ([`crate::geom::FixedGrid`]) and read their thresholds through the
//! widening [`Ratio::floor_mul_int`] / [`Ratio::ceil_mul_int`].

use std::cmp::Ordering;
use std::fmt;

/// An exact non-negative rational number `num/den` with `den > 0`,
/// always stored in lowest terms.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: u128,
    den: u128,
}

const fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Widening multiply: `a * b` as `(hi, lo)` 256-bit value.
pub fn wide_mul(a: u128, b: u128) -> (u128, u128) {
    const MASK: u128 = (1u128 << 64) - 1;
    let (a_hi, a_lo) = (a >> 64, a & MASK);
    let (b_hi, b_lo) = (b >> 64, b & MASK);

    let ll = a_lo * b_lo;
    let lh = a_lo * b_hi;
    let hl = a_hi * b_lo;
    let hh = a_hi * b_hi;

    let mid = (ll >> 64) + (lh & MASK) + (hl & MASK);
    let lo = (ll & MASK) | (mid << 64);
    let hi = hh + (lh >> 64) + (hl >> 64) + (mid >> 64);
    (hi, lo)
}

impl Ratio {
    /// Create `num/den`, reduced. Panics if `den == 0`.
    pub fn new(num: u128, den: u128) -> Self {
        assert!(den != 0, "Ratio denominator must be non-zero");
        if num == 0 {
            return Ratio { num: 0, den: 1 };
        }
        let g = gcd(num, den);
        Ratio {
            num: num / g,
            den: den / g,
        }
    }

    /// The integer `v` as a ratio.
    pub fn from_int(v: u128) -> Self {
        Ratio { num: v, den: 1 }
    }

    /// Zero.
    pub fn zero() -> Self {
        Ratio { num: 0, den: 1 }
    }

    /// One.
    pub fn one() -> Self {
        Ratio { num: 1, den: 1 }
    }

    /// Numerator in lowest terms.
    pub fn num(&self) -> u128 {
        self.num
    }

    /// Denominator in lowest terms.
    pub fn den(&self) -> u128 {
        self.den
    }

    /// Is this exactly zero?
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// `⌊self⌋`.
    pub fn floor(&self) -> u128 {
        self.num / self.den
    }

    /// `⌈self⌉`.
    pub fn ceil(&self) -> u128 {
        self.num.div_ceil(self.den)
    }

    /// Exact sum. Panics on irreducible overflow (see module docs).
    pub fn add(&self, other: &Ratio) -> Ratio {
        let g = gcd(self.den, other.den);
        let (d1, d2) = (self.den / g, other.den / g);
        // lcm = self.den * d2
        let num = self
            .num
            .checked_mul(d2)
            .and_then(|a| other.num.checked_mul(d1).and_then(|b| a.checked_add(b)))
            .expect("Ratio::add overflow — renormalize operands first");
        let den = self
            .den
            .checked_mul(d2)
            .expect("Ratio::add overflow — renormalize operands first");
        Ratio::new(num, den)
    }

    /// Exact difference; panics if `other > self` or on overflow.
    pub fn sub(&self, other: &Ratio) -> Ratio {
        assert!(
            self >= other,
            "Ratio::sub would underflow (ratios are non-negative)"
        );
        let g = gcd(self.den, other.den);
        let (d1, d2) = (self.den / g, other.den / g);
        let a = self
            .num
            .checked_mul(d2)
            .expect("Ratio::sub overflow — renormalize operands first");
        let b = other
            .num
            .checked_mul(d1)
            .expect("Ratio::sub overflow — renormalize operands first");
        let den = self
            .den
            .checked_mul(d2)
            .expect("Ratio::sub overflow — renormalize operands first");
        Ratio::new(a - b, den)
    }

    /// Exact product. Cross-reduces before multiplying to delay overflow.
    pub fn mul(&self, other: &Ratio) -> Ratio {
        let g1 = gcd(self.num, other.den);
        let g2 = gcd(other.num, self.den);
        let num = (self.num / g1)
            .checked_mul(other.num / g2)
            .expect("Ratio::mul overflow — renormalize operands first");
        let den = (self.den / g2)
            .checked_mul(other.den / g1)
            .expect("Ratio::mul overflow — renormalize operands first");
        Ratio::new(num, den)
    }

    /// Exact quotient. Panics if `other` is zero.
    pub fn div(&self, other: &Ratio) -> Ratio {
        assert!(!other.is_zero(), "Ratio::div by zero");
        self.mul(&Ratio {
            num: other.den,
            den: other.num,
        })
    }

    /// Multiply by an integer.
    pub fn mul_int(&self, v: u128) -> Ratio {
        let g = gcd(v, self.den);
        let num = self
            .num
            .checked_mul(v / g)
            .expect("Ratio::mul_int overflow");
        Ratio::new(num, self.den / g)
    }

    /// `⌊self·v⌋`, through a widening product: exact for every `v`, no
    /// `gcd`. Panics if the result exceeds `u128`.
    pub fn floor_mul_int(&self, v: u128) -> u128 {
        mul_div_rem(self.num, v, self.den).0
    }

    /// `⌈self·v⌉`, through a widening product like
    /// [`Ratio::floor_mul_int`]. Panics if the result exceeds `u128`.
    pub fn ceil_mul_int(&self, v: u128) -> u128 {
        let (q, r) = mul_div_rem(self.num, v, self.den);
        q + u128::from(r != 0)
    }

    /// Divide by an integer. Panics if `v == 0`.
    pub fn div_int(&self, v: u128) -> Ratio {
        assert!(v != 0, "Ratio::div_int by zero");
        let g = gcd(self.num, v);
        let den = self
            .den
            .checked_mul(v / g)
            .expect("Ratio::div_int overflow");
        Ratio::new(self.num / g, den)
    }

    /// Reciprocal `1/self`. Panics if zero.
    pub fn recip(&self) -> Ratio {
        assert!(!self.is_zero(), "Ratio::recip of zero");
        Ratio {
            num: self.den,
            den: self.num,
        }
    }

    /// `1 - self`; panics if `self > 1`. Common in compression factors `(1-ρ)`.
    pub fn one_minus(&self) -> Ratio {
        Ratio::one().sub(self)
    }

    /// `1 + self`. Common in `(1+ε)` thresholds.
    pub fn one_plus(&self) -> Ratio {
        Ratio::one().add(self)
    }

    /// Multiply by `other` and round the result **down** onto a dyadic grid
    /// `k/2^bits` (denominator at most `2^bits`), using 256-bit intermediate
    /// arithmetic so it never overflows regardless of operand sizes.
    ///
    /// The result `r` satisfies `r ≤ self·other` and
    /// `r ≥ self·other − 2^-k` where `k = min(bits, 126 − ⌈log2 value⌉)`;
    /// for values `≥ 1` this is a relative error of at most `2^-k`. Used by
    /// geometric-grid generation where factors compound: shrinking a grid
    /// value slightly only makes the grid denser, preserving every guarantee
    /// that depends on consecutive grid ratios being **at most** the step
    /// factor.
    pub fn mul_round_down(&self, other: &Ratio, bits: u32) -> Ratio {
        debug_assert!((2..=126).contains(&bits));
        if self.is_zero() || other.is_zero() {
            return Ratio::zero();
        }
        // Exact numerator product as 256 bits.
        let (mut hi, mut lo) = wide_mul(self.num, other.num);
        let den = self
            .den
            .checked_mul(other.den)
            .expect("mul_round_down: denominator product exceeds 128 bits");
        // Value bits ≈ bits(num_product) − bits(den); cap k so the scaled
        // quotient fits in 127 bits.
        let num_bits = if hi == 0 {
            128 - lo.leading_zeros()
        } else {
            256 - hi.leading_zeros()
        };
        let den_bits = 128 - den.leading_zeros();
        let value_bits = num_bits.saturating_sub(den_bits) + 1;
        let k = bits.min(126u32.saturating_sub(value_bits));
        // Shift the 256-bit numerator left by k (guaranteed not to overflow:
        // num_bits + k ≤ den_bits + 127 ≤ 255).
        for _ in 0..k {
            hi = (hi << 1) | (lo >> 127);
            lo <<= 1;
        }
        let (q, _) = div_256_by_128(hi, lo, den);
        if q == 0 {
            return Ratio::zero(); // value below 2^-k
        }
        Ratio::new(q, 1u128 << k)
    }

    /// Round so the denominator fits in `bits` bits; `r ≤ self`, relative
    /// error `≤ 2^-bits` for values ≥ 1.
    pub fn round_down_bits(&self, bits: u32) -> Ratio {
        if self.den <= (1u128 << bits.min(127)) {
            return *self;
        }
        self.mul_round_down(&Ratio::one(), bits)
    }

    /// Exact comparison against an integer.
    pub fn cmp_int(&self, v: u128) -> Ordering {
        // self.num / self.den <=> v  ⇔  self.num <=> v * self.den
        match v.checked_mul(self.den) {
            Some(rhs) => self.num.cmp(&rhs),
            None => {
                let (hi, lo) = wide_mul(v, self.den);
                (0u128, self.num).cmp(&(hi, lo))
            }
        }
    }

    /// `self ≥ v` for integer `v`.
    pub fn ge_int(&self, v: u128) -> bool {
        self.cmp_int(v) != Ordering::Less
    }

    /// Approximate `f64` value, for display and logging only.
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

/// `⌊a·b/d⌋` through a widening product, with no `gcd`. Panics if the
/// quotient exceeds `u128` (in particular if `d == 0`).
pub(crate) fn mul_div_floor(a: u128, b: u128, d: u128) -> u128 {
    mul_div_rem(a, b, d).0
}

/// `a·b` divided by `d`: quotient and remainder. Panics like
/// [`mul_div_floor`].
fn mul_div_rem(a: u128, b: u128, d: u128) -> (u128, u128) {
    let (hi, lo) = wide_mul(a, b);
    assert!(hi < d, "mul_div overflow: the quotient exceeds u128");
    div_256_by_128(hi, lo, d)
}

/// Long division of a 256-bit value `(hi, lo)` by a 128-bit divisor,
/// returning `(quotient, remainder)`. Panics (debug) if the quotient would
/// not fit in 128 bits (`hi ≥ d`).
fn div_256_by_128(hi: u128, lo: u128, d: u128) -> (u128, u128) {
    debug_assert!(d != 0);
    debug_assert!(hi < d, "div_256_by_128 quotient overflow");
    if hi == 0 {
        let q = lo / d;
        return (q, lo - q * d);
    }
    let mut q: u128 = 0;
    let mut rem = hi;
    for i in (0..128u32).rev() {
        // rem = rem·2 + bit_i(lo); rem may conceptually reach 2^129 − 1, so
        // track the carry bit explicitly.
        let carry = rem >> 127;
        rem = (rem << 1) | ((lo >> i) & 1);
        if carry == 1 || rem >= d {
            rem = rem.wrapping_sub(d);
            q |= 1 << i;
        }
    }
    (q, rem)
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b <=> c/d  ⇔  a·d <=> c·b, with widening multiplies.
        let left = wide_mul(self.num, other.den);
        let right = wide_mul(other.num, self.den);
        left.cmp(&right)
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<u64> for Ratio {
    fn from(v: u64) -> Self {
        Ratio::from_int(v as u128)
    }
}

impl From<u128> for Ratio {
    fn from(v: u128) -> Self {
        Ratio::from_int(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_on_construction() {
        let r = Ratio::new(6, 4);
        assert_eq!(r.num(), 3);
        assert_eq!(r.den(), 2);
    }

    #[test]
    fn zero_normalizes_denominator() {
        let r = Ratio::new(0, 7);
        assert_eq!(r.den(), 1);
        assert!(r.is_zero());
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_panics() {
        let _ = Ratio::new(1, 0);
    }

    #[test]
    fn arithmetic_basics() {
        let half = Ratio::new(1, 2);
        let third = Ratio::new(1, 3);
        assert_eq!(half.add(&third), Ratio::new(5, 6));
        assert_eq!(half.sub(&third), Ratio::new(1, 6));
        assert_eq!(half.mul(&third), Ratio::new(1, 6));
        assert_eq!(half.div(&third), Ratio::new(3, 2));
        assert_eq!(half.mul_int(6), Ratio::from_int(3));
        assert_eq!(half.div_int(2), Ratio::new(1, 4));
    }

    #[test]
    fn floor_and_ceil() {
        let r = Ratio::new(7, 2);
        assert_eq!(r.floor(), 3);
        assert_eq!(r.ceil(), 4);
        let i = Ratio::from_int(5);
        assert_eq!(i.floor(), 5);
        assert_eq!(i.ceil(), 5);
    }

    #[test]
    fn ordering_large_values_is_exact() {
        // These cross-products overflow u128; the widening compare must
        // still be exact.
        let a = Ratio::new(u128::MAX - 1, u128::MAX);
        let b = Ratio::new(u128::MAX - 2, u128::MAX - 1);
        // a = 1 - 1/MAX, b = 1 - 1/(MAX-1) < a
        assert!(b < a);
        assert!(a < Ratio::one());
    }

    #[test]
    fn cmp_int_large() {
        // u128::MAX = 2^128 − 1 ≡ 0 (mod 3): exactly an integer.
        let r = Ratio::new(u128::MAX, 3);
        assert_eq!(r.cmp_int(u128::MAX / 3), Ordering::Equal);
        // u128::MAX − 1 ≡ 2 (mod 3): strictly above its floor.
        let r2 = Ratio::new(u128::MAX - 1, 3);
        assert_eq!(r2.cmp_int((u128::MAX - 1) / 3), Ordering::Greater);
        assert!(r2.ge_int(1));
        let s = Ratio::new(10, 3);
        assert!(s.ge_int(3));
        assert!(!s.ge_int(4));
    }

    #[test]
    fn one_plus_minus() {
        let e = Ratio::new(1, 5);
        assert_eq!(e.one_plus(), Ratio::new(6, 5));
        assert_eq!(e.one_minus(), Ratio::new(4, 5));
    }

    #[test]
    fn round_down_bits_bounds() {
        let big = Ratio::new((1u128 << 100) + 12345, (1u128 << 99) + 7);
        let r = big.round_down_bits(64);
        assert!(r <= big);
        // Relative error below 2⁻⁶⁰: r·2⁶⁰/(2⁶⁰−1) ≥ big. Multiply the
        // rounded (small-operand) side to stay within u128.
        let boosted = r.mul(&Ratio::new(1u128 << 60, (1u128 << 60) - 1));
        assert!(boosted >= big, "rounded too far down: {r:?} vs {big:?}");
        assert!(r.num() < (1u128 << 64) && r.den() < (1u128 << 64));
    }

    #[test]
    fn round_down_bits_small_noop() {
        let r = Ratio::new(3, 2);
        assert_eq!(r.round_down_bits(32), r);
    }

    #[test]
    fn wide_mul_matches_checked() {
        let cases = [
            (0u128, 0u128),
            (1, u128::MAX),
            (u128::MAX, u128::MAX),
            (1u128 << 64, 1u128 << 64),
            (12345678901234567890, 98765432109876543210),
        ];
        for (a, b) in cases {
            let (hi, lo) = wide_mul(a, b);
            if let Some(p) = a.checked_mul(b) {
                assert_eq!((hi, lo), (0, p));
            } else {
                assert!(hi > 0);
            }
        }
        // (2^64)^2 = 2^128 → hi = 1, lo = 0
        assert_eq!(wide_mul(1u128 << 64, 1u128 << 64), (1, 0));
    }

    #[test]
    fn div_256_by_128_cases() {
        // (2^128 + 6) / 7
        let (q, r) = div_256_by_128(1, 6, 7);
        // 2^128 ≡ 4 (mod 7) since 2^3 ≡ 1 → 2^128 = 2^(3·42+2) ≡ 4.
        assert_eq!(r, (4 + 6) % 7);
        let (hi, lo) = wide_mul(q, 7);
        // q·7 + r == 2^128 + 6
        let (sum_lo, carry) = lo.overflowing_add(r);
        assert_eq!((hi + u128::from(carry), sum_lo), (1, 6));
        // hi == 0 fast path
        assert_eq!(div_256_by_128(0, 100, 7), (14, 2));
    }

    #[test]
    fn mul_div_floor_is_exact_past_u128_products() {
        assert_eq!(mul_div_floor(7, 4, 3), 9);
        // (2¹²⁷)·(2⁴⁸)/(2¹²⁷ + 1): the product needs 175 bits.
        let d = (1u128 << 127) + 1;
        assert_eq!(mul_div_floor(1 << 127, 1 << 48, d), (1 << 48) - 1);
        assert_eq!(mul_div_floor(u128::MAX, u128::MAX, u128::MAX), u128::MAX);
    }

    #[test]
    fn mul_round_down_exact_when_small() {
        let a = Ratio::new(3, 2);
        let b = Ratio::new(5, 3);
        // 5/2 has dyadic denominator, value small → k large enough that the
        // dyadic approximation is exact here: 5/2 = 2.5 representable.
        let r = a.mul_round_down(&b, 64);
        assert_eq!(r, Ratio::new(5, 2));
    }

    #[test]
    fn mul_round_down_huge_operands() {
        // value ≈ 2^90 · (101/100); exact product overflows nothing here but
        // denominators are capped.
        let v = Ratio::new((1u128 << 90) + 991, (1u128 << 20) + 3);
        let x = Ratio::new(101, 100);
        let r = v.mul_round_down(&x, 64);
        assert!(r <= v.mul(&x));
        // relative error ≤ 2^-50 comfortably: r·(2^50/(2^50−1)) ≥ v·x, even
        // after rounding that product down in turn.
        let boost = Ratio::new(1u128 << 50, (1u128 << 50) - 1);
        assert!(r.mul_round_down(&boost, 80) >= v.mul(&x));
        assert!(r.den() <= 1u128 << 64);
    }

    #[test]
    fn mul_round_zero_and_tiny() {
        assert_eq!(
            Ratio::zero().mul_round_down(&Ratio::one(), 32),
            Ratio::zero()
        );
        // A value below 2^-k floors to zero.
        let tiny = Ratio::new(1, u128::MAX);
        assert_eq!(tiny.mul_round_down(&Ratio::one(), 32), Ratio::zero());
    }

    #[test]
    fn floor_and_ceil_of_products_are_exact() {
        let r = Ratio::new(7, 3);
        assert_eq!(r.floor_mul_int(4), 9); // 28/3
        assert_eq!(r.ceil_mul_int(4), 10);
        assert_eq!(r.floor_mul_int(3), 7);
        assert_eq!(r.ceil_mul_int(3), 7);
        // num·v overflows u128, the result does not.
        let big = Ratio::new(u128::MAX - 1, u128::MAX);
        assert_eq!(big.floor_mul_int(1 << 100), (1 << 100) - 1);
        assert_eq!(big.ceil_mul_int(1 << 100), 1 << 100);
        assert_eq!(Ratio::zero().ceil_mul_int(u128::MAX), 0);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn floor_mul_int_refuses_results_past_u128() {
        let _ = Ratio::from_int(3).floor_mul_int(u128::MAX / 2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Ratio::new(3, 2)), "3/2");
        assert_eq!(format!("{}", Ratio::from_int(4)), "4");
    }
}
