//! Property tests of the Section 4.3.1 rounding: profits rounded to their
//! top bits stay within the factor `1+δ/b` that Lemma 19 charges and fall
//! into `O((b/δ)·log(b/δ))` classes.

use moldable::core::compression::DoubleCompression;
use moldable::core::ratio::Ratio;
use moldable::sched::rounding::ProfitRounding;
use proptest::prelude::*;

/// ε = 1/k for each k here.
const EPS_DENOMINATORS: [u128; 5] = [1, 2, 4, 16, 100];

/// The knapsack solvers' parameters at ε = 1/k (δ = ε/5).
fn params(k: u128) -> DoubleCompression {
    DoubleCompression::for_delta(Ratio::new(1, 5 * k))
}

/// `v ≤ r` and `r·b ≤ v·(b+δ)`, the latter as the equivalent
/// `(r−v)·b ≤ v·δ`, which stays exact in `u128` up to `u128::MAX`.
fn within_lemma19(v: u128, r: u128, dc: &DoubleCompression) -> bool {
    v <= r && Ratio::from_int(r - v).mul_int(u128::from(dc.b())) <= dc.delta().mul_int(v)
}

/// `⌈log₂ x⌉` of a rational `x ≥ 1`.
fn ceil_log2(x: &Ratio) -> u32 {
    (0..128)
        .find(|&k| !x.cmp_int(1 << k).is_gt())
        .expect("x < 2^127")
}

/// `b/δ`, and the bits a rounded profit keeps, `B = bitlen(⌈b/δ⌉) + 1`,
/// worked out here from their definitions.
fn b_over_delta_and_bits(dc: &DoubleCompression) -> (Ratio, u32) {
    let b_over_delta = Ratio::from_int(u128::from(dc.b())).div(dc.delta());
    let bitlen = u128::BITS - b_over_delta.ceil().leading_zeros();
    (b_over_delta, bitlen + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every profit from 0 past `bd/2`, drawn with a uniform bit length:
    /// below `δd/2` it rounds to 0, otherwise up by at most `1+δ/b`, and
    /// a profit of at most `B` bits is kept exact.
    #[test]
    fn profits_round_up_by_at_most_one_plus_delta_over_b(
        pick in 0usize..5,
        d in 1u64..=(1 << 40),
        len in 0u32..=56,
        raw in 0u128..(1 << 56),
    ) {
        let dc = params(EPS_DENOMINATORS[pick]);
        let rounding = ProfitRounding::new(&dc, d);
        let (_, bits) = b_over_delta_and_bits(&dc);
        let v = raw >> (56 - len);
        let r = rounding.round(v);
        let half_delta_d = dc.delta().mul_int(u128::from(d)).div_int(2);
        if Ratio::from_int(v) < half_delta_d {
            prop_assert_eq!(r, 0);
        } else {
            prop_assert!(within_lemma19(v, r, &dc), "v={v} r={r} d={d}");
            if v >> bits == 0 {
                prop_assert_eq!(r, v);
            }
        }
        // At the threshold: the last integer below δd/2 rounds to 0, the
        // first one at or above it does not.
        let first = half_delta_d.ceil();
        prop_assert_eq!(rounding.round(first - 1), 0);
        prop_assert!(within_lemma19(first, rounding.round(first), &dc));
    }
}

/// The rounded profits in `[a, z]`, walked from one to the next: each
/// step rounds the integer just past the last one found, and checks that
/// rounding goes up and keeps a rounded value. `a` must be at least the
/// zero threshold `⌈δd/2⌉`.
fn walk_classes(rounding: &ProfitRounding, a: u128, z: u128) -> u128 {
    let (mut classes, mut v) = (0, a);
    loop {
        let r = rounding.round(v);
        assert!(r >= v && rounding.round(r) == r, "v={v} r={r}");
        if r > z {
            return classes;
        }
        classes += 1;
        v = r + 1;
    }
}

/// Rounded profits in the binary octave `[2^(L−1), 2^L)`: every value of
/// at most `B` bits is its own class, and above that the classes are the
/// `2^(B−1)` multiples of `2^(L−B)` in the octave.
fn octave_classes(l: u32, bits: u32) -> u128 {
    1 << (l.min(bits) - 1)
}

/// [`octave_classes`], walked class by class on every octave up to two
/// past `B` bits and on one far above. Above the zero threshold the
/// rounding does not depend on `d`, so `d = 1` (threshold 1) reaches
/// every octave.
#[test]
fn full_octaves_hold_their_closed_form_class_count() {
    for k in EPS_DENOMINATORS {
        let dc = params(k);
        let rounding = ProfitRounding::new(&dc, 1);
        let (_, bits) = b_over_delta_and_bits(&dc);
        for l in (1..=bits + 2).chain([100]) {
            let walked = walk_classes(&rounding, 1 << (l - 1), (1 << l) - 1);
            assert_eq!(walked, octave_classes(l, bits), "ε=1/{k} L={l}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The distinct rounded profits over `[δd/2, bd/2]`, at every ε and a
    /// `d` of uniform bit length, number at most
    /// `2^(B−1)·(⌈log₂(b/δ)⌉ + 2)`: one binary octave holds at most
    /// `2^(B−1)` of them, the range spans at most `⌈log₂(b/δ)⌉ + 1`
    /// octaves, and the last class may carry into the next octave. They
    /// are the rounded values from the rounded `⌈δd/2⌉` to the rounded
    /// `⌊bd/2⌋`. The partial octaves at the two ends are walked class by
    /// class and the full ones between are counted by [`octave_classes`],
    /// so a case walks at most two octaves (≈4·10⁶ classes at ε = 1/100)
    /// instead of all of them (≈4·10⁷).
    #[test]
    fn profit_classes_are_bounded(len in 0u32..=40, raw in 1u64..=(1 << 40)) {
        let d = (raw >> (40 - len)).max(1);
        for k in EPS_DENOMINATORS {
            let dc = params(k);
            let rounding = ProfitRounding::new(&dc, d);
            let (b_over_delta, bits) = b_over_delta_and_bits(&dc);
            let bound = (1u128 << (bits - 1)) * u128::from(ceil_log2(&b_over_delta) + 2);
            let lo = rounding.round(dc.delta().mul_int(u128::from(d)).div_int(2).ceil());
            let hi = rounding.round(u128::from(dc.b()) * u128::from(d) / 2);
            let octave = |v: u128| u128::BITS - v.leading_zeros();
            let (first, last) = (octave(lo), octave(hi));
            let classes = if first == last {
                walk_classes(&rounding, lo, hi)
            } else {
                walk_classes(&rounding, lo, (1 << first) - 1)
                    + (first + 1..last).map(|l| octave_classes(l, bits)).sum::<u128>()
                    + walk_classes(&rounding, 1 << (last - 1), hi)
            };
            prop_assert!(classes <= bound, "{classes} classes > {bound} at ε=1/{k} d={d}");
        }
    }
}

/// Profits near `u128::MAX` round without overflow or panic: a round-up
/// past the top saturates at `u128::MAX`, and every result keeps both
/// bounds.
#[test]
fn rounding_near_u128_max_saturates() {
    for k in EPS_DENOMINATORS {
        let dc = params(k);
        let rounding = ProfitRounding::new(&dc, 1 << 40);
        let shift = u128::BITS - b_over_delta_and_bits(&dc).1;
        let cases = [
            (u128::MAX, u128::MAX),
            (u128::MAX - 1, u128::MAX),
            (1 << 127, 1 << 127),
            ((1 << 127) + 1, (1 << 127) + (1 << shift)),
            (u128::MAX << shift, u128::MAX << shift),
            ((u128::MAX << shift) + 1, u128::MAX),
        ];
        for (v, expect) in cases {
            let r = rounding.round(v);
            assert_eq!(r, expect, "ε=1/{k} v={v:#x}");
            assert!(within_lemma19(v, r, &dc), "ε=1/{k} v={v:#x} r={r:#x}");
        }
    }
}
