//! The fixed-point geometric grid against its exact-rational oracle.
//!
//! `FixedGrid` builds `geom(lo, hi, x)` with integer numerators over
//! `2^48`. Its values must be exactly those of [`rgeom`] below, the grid
//! the solvers used to build with one `Ratio::mul_round_down` per step,
//! and its queries (ceilings, counts of values `≤` an integer or a
//! rational) must agree with the same queries run on the oracle's
//! values. The grids are the solvers' own: `lo` is `(1+δ)²d/4` (the
//! bucketed transform at the stretched target), `d/2` or `d/4` (the two
//! Lemma 17 time grids), and `x = 1 + ε/15` (the stretch `1 + 4ρ` with
//! `δ = ε/5`, `ρ = δ/12`). The integer grids `igeom_covering` and
//! `capacity_grid` are held to their `Ratio::mul_int` step formulas.

use moldable::core::geom::{capacity_grid, igeom_covering, FixedGrid, GRID_BITS};
use moldable::core::ratio::Ratio;
use proptest::prelude::*;

/// The exact-rational grid: `lo`, then each value rounded down onto
/// `k/2^48` after multiplying by `x`, up to the first value `≥ hi`.
fn rgeom(lo: &Ratio, hi: &Ratio, x: &Ratio) -> Vec<Ratio> {
    let mut out = vec![*lo];
    let mut cur = *lo;
    while cur < *hi {
        cur = cur.mul_round_down(x, GRID_BITS);
        out.push(cur);
    }
    out
}

/// Number of oracle values `≤ v`.
fn count_le(oracle: &[Ratio], v: &Ratio) -> usize {
    oracle.partition_point(|g| g <= v)
}

/// The three grids a probe builds at target `d` and accuracy `ε`:
/// `(lo, hi, x)` for the transform and the two Lemma 17 time grids.
fn probe_grids(d: u64, eps: &Ratio) -> [(Ratio, Ratio, Ratio); 3] {
    let delta = eps.div_int(5);
    let x = eps.div_int(15).one_plus();
    let d = Ratio::from(d);
    let d_prime = d.mul(&delta.one_plus()).mul(&delta.one_plus());
    [
        (d_prime.div_int(4), d_prime.mul(&Ratio::new(3, 2)), x),
        (d.div_int(2), d, x),
        (d.div_int(4), d.div_int(2), x),
    ]
}

/// `FixedGrid::new(lo, hi, x)` equals `rgeom(lo, hi, x)` value for value,
/// and answers every query as the oracle's values do. `probes` are
/// extra rationals to count against.
fn check_grid(lo: &Ratio, hi: &Ratio, x: &Ratio, probes: &[Ratio]) {
    let oracle = rgeom(lo, hi, x);
    let grid = FixedGrid::new(lo, hi, x);
    let ctx = format!("geom({lo}, {hi}, {x})");
    assert_eq!(grid.len(), oracle.len(), "{ctx}: length");
    for (k, g) in oracle.iter().enumerate() {
        assert_eq!(grid.value(k), *g, "{ctx}: value {k}");
        assert_eq!(grid.ceiling(k), g.ceil(), "{ctx}: ceiling {k}");
    }
    // Counts at, just below and just above sampled values: a threshold
    // off by one numerator moves the count. `lo` is only probed at
    // itself (it need not be dyadic).
    let half_ulp = Ratio::new(1, 1 << (GRID_BITS + 1));
    let stride = (oracle.len() / 64).max(1);
    for g in oracle.iter().step_by(stride).chain(oracle.last()) {
        let nearby = if g == lo {
            vec![*g]
        } else {
            vec![*g, g.sub(&half_ulp), g.add(&half_ulp)]
        };
        for v in nearby {
            assert_eq!(
                grid.count_le(&v),
                count_le(&oracle, &v),
                "{ctx}: count ≤ {v}"
            );
        }
        for t in [g.floor(), g.ceil(), g.ceil() + 1] {
            let t = u64::try_from(t).unwrap_or(u64::MAX);
            assert_eq!(
                grid.count_le_int(t),
                count_le(&oracle, &Ratio::from(t)),
                "{ctx}: count ≤ {t}"
            );
        }
    }
    for v in probes {
        assert_eq!(grid.count_le(v), count_le(&oracle, v), "{ctx}: count ≤ {v}");
    }
    assert_eq!(grid.count_le_int(0), count_le(&oracle, &Ratio::zero()));
    assert_eq!(
        grid.count_le_int(u64::MAX),
        count_le(&oracle, &Ratio::from(u64::MAX))
    );
}

/// A probe's three grids at `(d, ε)`, counted against the transform's
/// thresholds `¾d′`, `5d′/4` and `3d′/2` as well.
fn check_probe(d: u64, eps: &Ratio) {
    for (lo, hi, x) in probe_grids(d, eps) {
        let d_prime = lo.mul_int(4);
        let thresholds = [
            d_prime.mul(&Ratio::new(3, 4)),
            d_prime.mul(&Ratio::new(5, 4)),
            d_prime.mul(&Ratio::new(3, 2)),
        ];
        check_grid(&lo, &hi, &x, &thresholds);
    }
}

/// A `u64` of bit length `len ∈ 1..=64` from the bits of `raw`.
fn with_bit_length(raw: u64, len: u32) -> u64 {
    (raw >> (64 - len)) | (1 << (len - 1))
}

/// The Ratio step formulas the integer grids had before they stepped in
/// integers: `⌊x·cur⌋` (or `⌈x·cur⌉`), forced to progress.
fn integer_oracle(start: u64, hi: u64, x: &Ratio, ceil: bool) -> Vec<u64> {
    let step = |cur: u64| {
        let v = x.mul_int(cur as u128);
        (if ceil { v.ceil() } else { v.floor() }) as u64
    };
    let mut out = vec![start];
    let mut cur = start;
    while cur < hi {
        cur = step(cur).max(cur + 1);
        out.push(cur);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The solvers' grids: `d` log-uniform over `1..=u64::MAX`, `ε = p/q`
    /// with `q ≤ 1000` (the finest ε a request may ask for).
    #[test]
    fn probe_grids_match_the_rational_oracle(
        len in 1u32..=64,
        raw in 0u64..=u64::MAX,
        q in 1u128..=1000,
        p_raw in 0u128..1000,
    ) {
        let eps = Ratio::new(1 + p_raw % q, q);
        check_probe(with_bit_length(raw, len), &eps);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary small step factors `x = a/b > 1` over arbitrary
    /// rational ranges.
    #[test]
    fn small_step_factors_match_the_rational_oracle(
        b in 1u128..=40,
        extra in 1u128..=60,
        lo in (1u128..=1 << 40, 1u128..=1000),
        span in 0u128..=1 << 20,
        v in (0u128..=1 << 60, 1u128..=1 << 20),
    ) {
        let x = Ratio::new(b + extra, b);
        let lo = Ratio::new(lo.0, lo.1);
        let hi = lo.mul_int(span + 1).add(&Ratio::new(span, 7));
        check_grid(&lo, &hi, &x, &[Ratio::new(v.0, v.1)]);
    }

    /// `igeom_covering` steps `⌊cur·x⌋` and `capacity_grid` `⌈cur/(1−ρ)⌉`,
    /// both forced to progress, exactly as the `Ratio::mul_int` formulas.
    #[test]
    fn integer_grids_match_their_ratio_formulas(
        lo in 1u64..=1 << 20,
        span in 0u64..=1 << 20,
        rho in (1u128..=3, 6u128..=6000),
        big in 0u64..=1,
    ) {
        // ρ ∈ [1/6000, 1/2]; `big` moves the range up to 2^62, where a
        // step of at most 2x still fits in u64.
        let rho = Ratio::new(rho.0, rho.1);
        let shift = if big == 1 { 40 } else { 0 };
        let (lo, hi) = (lo << shift, (lo + span) << shift);
        let x = rho.one_plus();
        prop_assert_eq!(igeom_covering(lo, hi, &x), integer_oracle(lo, hi, &x, false));
        let inv = rho.one_minus().recip();
        let start = inv.mul_int(lo as u128).ceil() as u64;
        prop_assert_eq!(capacity_grid(lo, hi, &rho), integer_oracle(start, hi, &inv, true));
    }
}

/// Every `d` of the table at every `ε` of the table: the extremes of
/// the range (`d = 1`, `u64::MAX`), a `d` just past `2^62` where a
/// narrow `v·2^48` threshold overflows at `ε = 1/1000`, and the coarsest
/// and finest ε a request may ask for. No cell is skipped: the slowest,
/// `ε = 1/1000` at the three large `d` (26,879 transform grid values
/// each, every oracle step a 256-bit division), take under a second
/// together in a debug build.
#[test]
fn probe_grids_match_at_the_table_extremes() {
    let ds = [1u64, 3, 1 << 40, (1 << 62) + 12345, u64::MAX];
    let eps = [
        Ratio::one(),
        Ratio::new(999, 1000),
        Ratio::new(1, 4),
        Ratio::new(1, 16),
        Ratio::new(1, 1000),
    ];
    for d in ds {
        for e in &eps {
            check_probe(d, e);
        }
    }
}
