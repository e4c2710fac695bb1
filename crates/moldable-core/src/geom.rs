//! Geometric grids and geometric rounding (Definition 13, Lemma 14).
//!
//! `geom(L, U, x) = { L·xⁱ | i = 0, …, ⌈log_x(U/L)⌉ }` — the paper uses these
//! grids to (a) enumerate candidate capacities for the compressible-items
//! knapsack (Section 4.2.5) and (b) round processor counts, processing times
//! and profits to `O(poly(1/ε)·log m)` many *types* (Section 4.3).
//!
//! Two variants are provided:
//!
//! * [`FixedGrid`] — rational grids in fixed point. Compounding `xⁱ`
//!   exactly would overflow `u128` for small ε, so every step rounds
//!   **down** onto the dyadic grid `k/2^48` ([`GRID_BITS`]): the grid is
//!   `lo`, then `n_i/2^48` with `n_1 = ⌊lo·x·2^48⌋` and
//!   `n_{i+1} = ⌊n_i·x⌋`. Rounding a grid value down never hurts:
//!   consecutive ratios stay `≤ x` (the property all approximation bounds
//!   use, Lemma 12/Eq. 15) and, for values `≥ 1`, `≥ x·(1−2⁻⁴⁸)`, so
//!   Lemma 14's cardinality bound `O(log(U/L)/(x−1))` still holds. A
//!   step is one integer multiply-divide on the `u128` numerator, and a
//!   query compares numerators against `⌊v·2^48⌋` ([`fixed_floor`]), so
//!   the per-probe grids of Sections 4.3.1 and 4.3.3 cost no `gcd`.
//! * [`igeom_covering`] — integer grids for *capacities*: every integer
//!   `α ∈ [L, U]` has a grid value `α̃` with `α ≤ α̃ ≤ ⌈α·x⌉ₓ`… precisely, the
//!   grid satisfies Eq. 15's step condition `α_i − α_{i−1} ≤ (1 − 1/x)·α_i`
//!   (equivalently `α_{i-1} ≥ α_i/x`).

use crate::ratio::Ratio;
use std::cmp::Ordering;

/// Denominator bits of the fixed-point grid values: per-step relative
/// error `≤ 2⁻⁴⁸` for values `≥ 1`, negligible against every ρ the
/// algorithms use.
pub const GRID_BITS: u32 = 48;

/// `2^GRID_BITS`, the common denominator of every value after `lo`.
const ONE: u128 = 1 << GRID_BITS;

/// Grid values stay below `2^MAX_VALUE_BITS`, so numerators stay below
/// `2^(MAX_VALUE_BITS + GRID_BITS) = 2^118`: a `u64` target `d` keeps
/// every per-probe grid (up to `3d′/2` with `d′ < 4d`) below `2^67`.
const MAX_VALUE_BITS: u32 = 70;

/// `⌊v·2^GRID_BITS⌋`, saturating at `u128::MAX`: a numerator `n` of a
/// [`FixedGrid`] value satisfies `n/2^48 ≤ v` iff `n ≤ fixed_floor(v)`.
/// The product widens, so no `v` overflows.
pub fn fixed_floor(v: &Ratio) -> u128 {
    if v.cmp_int(1 << (128 - GRID_BITS - 1)) == Ordering::Less {
        v.floor_mul_int(ONE)
    } else {
        u128::MAX
    }
}

/// The geometric grid `geom(lo, hi, x)` in fixed point: `lo` exactly,
/// then ascending values `n_i/2^48` up to the first value `≥ hi` (the
/// paper's `⌈log_x(U/L)⌉` exponent range). See the module docs for the
/// step rule.
#[derive(Clone, Debug)]
pub struct FixedGrid {
    lo: Ratio,
    /// Numerators over `2^GRID_BITS` of the values after `lo`.
    nums: Vec<u128>,
}

impl FixedGrid {
    /// Build `geom(lo, hi, x)` with step factor `x > 1`.
    ///
    /// Panics if `lo` is zero, `x ≤ 1`, `x`'s numerator exceeds 64 bits,
    /// the grid stops making progress, or a value reaches `2^70`.
    pub fn new(lo: &Ratio, hi: &Ratio, x: &Ratio) -> Self {
        assert!(!lo.is_zero(), "geometric grid needs a positive lower bound");
        assert!(*x > Ratio::one(), "step factor must exceed 1");
        // Keeps `(n mod x_d)·x_n < x_d·x_n` inside u128 in `step`.
        assert!(x.num() >> 64 == 0, "step factor needs a 64-bit numerator");
        let mut nums = Vec::new();
        if *lo < *hi {
            assert!(
                hi.cmp_int(1 << MAX_VALUE_BITS) == Ordering::Less,
                "grid values must stay below 2^{MAX_VALUE_BITS}"
            );
            // A value is `≥ hi` iff its numerator is `≥ ⌈hi·2^48⌉`.
            let stop = hi.ceil_mul_int(ONE);
            // The first step rounds the exact product `lo·x` (the only
            // one whose left operand may not be dyadic).
            let first = lo.mul_round_down(x, GRID_BITS);
            assert!(first > *lo, "grid failed to make progress");
            assert!(
                first.cmp_int(1 << MAX_VALUE_BITS) == Ordering::Less,
                "grid values must stay below 2^{MAX_VALUE_BITS}"
            );
            let mut n = first.num() << (GRID_BITS - first.den().trailing_zeros());
            nums.push(n);
            let (xn, xd) = (x.num(), x.den());
            while n < stop {
                let next = step(n, xn, xd);
                assert!(next > n, "grid failed to make progress");
                nums.push(next);
                n = next;
            }
            assert!(
                n >> (MAX_VALUE_BITS + GRID_BITS) == 0,
                "grid values must stay below 2^{MAX_VALUE_BITS}"
            );
        }
        FixedGrid { lo: *lo, nums }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        1 + self.nums.len()
    }

    /// Always `false`: the grid holds at least `lo`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Numerators over `2^GRID_BITS` of the values after `lo`, ascending:
    /// value `k ≥ 1` is `numerators()[k − 1] / 2^48`.
    pub fn numerators(&self) -> &[u128] {
        &self.nums
    }

    /// Value `k` as an exact rational (for the rare paths that need one).
    pub fn value(&self, k: usize) -> Ratio {
        match k {
            0 => self.lo,
            _ => Ratio::new(self.nums[k - 1], ONE),
        }
    }

    /// `⌈value k⌉`.
    pub fn ceiling(&self, k: usize) -> u128 {
        match k {
            0 => self.lo.ceil(),
            _ => self.nums[k - 1].div_ceil(ONE),
        }
    }

    /// Number of values `≤ t`.
    pub fn count_le_int(&self, t: u64) -> usize {
        if self.lo.cmp_int(u128::from(t)) == Ordering::Greater {
            return 0;
        }
        let v = u128::from(t) << GRID_BITS;
        1 + self.nums.partition_point(|&n| n <= v)
    }

    /// Number of values `≤ v`.
    pub fn count_le(&self, v: &Ratio) -> usize {
        if self.lo > *v {
            return 0;
        }
        let f = fixed_floor(v);
        1 + self.nums.partition_point(|&n| n <= f)
    }
}

/// `⌊n·x_n/x_d⌋` without forming `n·x_n`: `n = q·x_d + r` gives
/// `q·x_n + ⌊r·x_n/x_d⌋`, where `r·x_n < x_d·x_n < 2^128`.
#[inline]
fn step(n: u128, xn: u128, xd: u128) -> u128 {
    let q = n / xd;
    let r = n - q * xd;
    q.checked_mul(xn)
        .and_then(|a| a.checked_add(r * xn / xd))
        .expect("grid values must stay below 2^70")
}

/// Integer geometric grid `lo = g_0 < g_1 < … ≤` first value `≥ hi`, with
/// step factor `x > 1`, guaranteeing for consecutive values
/// `g_{i+1} ≤ max(g_i + 1, ⌊g_i · x⌋)` — i.e. the relative gap never exceeds
/// the factor `x` — while still making progress even when `g_i·(x−1) < 1`.
///
/// This is the capacity grid of Section 4.2.5 (`A = geom(αmin/(1−ρ), C,
/// 1/(1−ρ))` materialized over integers) and the processor-count rounding
/// grid of Section 4.3 (`geom(b, m, 1+ρ)`). Cardinality is
/// `O(lo… + log(hi/lo)/(x−1))` as in Lemma 14 (the `+lo…` burn-in appears
/// only while `g·(x−1) < 1`, bounded by `1/(x−1)`).
pub fn igeom_covering(lo: u64, hi: u64, x: &Ratio) -> Vec<u64> {
    assert!(lo >= 1, "integer geometric grid needs lo ≥ 1");
    assert!(*x > Ratio::one(), "step factor must exceed 1");
    let mut out = vec![lo];
    let mut cur = lo;
    while cur < hi {
        let nxt = (x.floor_mul_int(cur as u128) as u64).max(cur + 1);
        out.push(nxt);
        cur = nxt;
    }
    out
}

/// Largest value of an ascending integer grid that is `≤ v` (the paper's
/// `gˇr(v, L, U, x)`), or `None` when `v` is below the whole grid — used on
/// processor-count grids (the Lemma-14 rounding of Section 4.3.1), where
/// both the grid and the query are plain `u64`s and no rational arithmetic
/// is needed.
#[inline]
pub fn round_down_u64(v: u64, grid: &[u64]) -> Option<u64> {
    let idx = grid.partition_point(|&g| g <= v);
    idx.checked_sub(1).map(|i| grid[i])
}

/// For a *capacity* grid per Section 4.2.5: values `α̃` such that every
/// `α ∈ [lo, hi]` has some `α̃ ∈ A` with `α ≤ α̃ ≤ α/(1−ρ)`.
/// Constructed as the integer grid from `⌈lo/(1−ρ)⌉` with factor `1/(1−ρ)`,
/// capped so the last value is `≥ hi` (the paper allows `α̃ ≤ C/(1−ρ)`; we
/// keep values as generated — callers translate to β via `C − (1−ρ)α̃ ≥ 0`,
/// which our construction preserves by stopping at the first value `≥ hi`).
pub fn capacity_grid(lo: u64, hi: u64, rho: &Ratio) -> Vec<u64> {
    assert!(lo >= 1 && !rho.is_zero() && *rho < Ratio::one());
    let x = rho.one_minus().recip();
    let start = x.ceil_mul_int(lo as u128) as u64;
    let mut out = vec![start];
    let mut cur = start;
    while cur < hi {
        // Next value: ⌈cur / (1−ρ)⌉, forced to progress.
        let nxt = (x.ceil_mul_int(cur as u128) as u64).max(cur + 1);
        out.push(nxt);
        cur = nxt;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_grid_small_grid() {
        let g = FixedGrid::new(
            &Ratio::from_int(1),
            &Ratio::from_int(8),
            &Ratio::from_int(2),
        );
        let values: Vec<Ratio> = (0..g.len()).map(|k| g.value(k)).collect();
        assert_eq!(
            values,
            vec![
                Ratio::from_int(1),
                Ratio::from_int(2),
                Ratio::from_int(4),
                Ratio::from_int(8)
            ]
        );
        assert_eq!(g.numerators(), &[2 * ONE, 4 * ONE, 8 * ONE]);
        assert_eq!(g.count_le_int(0), 0);
        assert_eq!(g.count_le_int(3), 2);
        assert_eq!(g.count_le_int(8), 4);
        assert_eq!(g.count_le(&Ratio::new(15, 2)), 3);
        assert_eq!(g.count_le(&Ratio::new(1, 2)), 0);
        assert_eq!(g.count_le(&Ratio::from_int(u128::MAX)), 4);
        // A grid that starts at or above `hi` is just `lo`.
        let one = FixedGrid::new(&Ratio::new(9, 7), &Ratio::one(), &Ratio::new(3, 2));
        assert_eq!((one.len(), one.ceiling(0)), (1, 2));
    }

    #[test]
    fn fixed_grid_cardinality_matches_lemma14() {
        // |geom(L,U,x)| = ⌈log_x(U/L)⌉ + 1: for x = 1+1/100, U/L = 2^20,
        // expect ≈ 20/log2(1.01) ≈ 1394 entries; allow slack for the
        // downward rounding making the grid slightly denser.
        let x = Ratio::new(101, 100);
        let g = FixedGrid::new(&Ratio::from_int(1), &Ratio::from_int(1 << 20), &x);
        let bound = (20.0 / f64::log2(1.01)).ceil() as usize;
        assert!(g.len() <= bound + 3, "{} > {}", g.len(), bound + 3);
        // Consecutive ratios ≤ x (exact requirement used by Lemma 12), and
        // ≥ x·(1−2⁻⁴⁰) (cardinality): verified without overflowing by
        // multiplying the *smaller-operand* sides.
        let slack = Ratio::new(1u128 << 40, (1u128 << 40) - 1);
        for k in 1..g.len() {
            let (a, b) = (g.value(k - 1), g.value(k));
            assert!(b <= a.mul(&x));
            assert!(b.mul(&slack) >= a.mul(&x));
            assert_eq!(g.ceiling(k), b.ceil());
        }
        // covers hi
        assert!(g.value(g.len() - 1) >= Ratio::from_int(1 << 20));
    }

    #[test]
    #[should_panic(expected = "below 2^70")]
    fn fixed_grid_refuses_values_past_its_range() {
        let _ = FixedGrid::new(&Ratio::one(), &Ratio::from_int(1 << 70), &Ratio::new(3, 2));
    }

    #[test]
    fn fixed_floor_saturates() {
        assert_eq!(fixed_floor(&Ratio::new(3, 2)), 3 * ONE / 2);
        assert_eq!(fixed_floor(&Ratio::new(1, 3)), ONE / 3);
        assert_eq!(fixed_floor(&Ratio::from_int(1 << 90)), u128::MAX);
    }

    #[test]
    fn rounding_to_grid() {
        let g = [2u64, 4, 8];
        assert_eq!(round_down_u64(5, &g), Some(4));
        assert_eq!(round_down_u64(4, &g), Some(4));
        assert_eq!(round_down_u64(9, &g), Some(8));
        assert_eq!(round_down_u64(1, &g), None);
    }

    #[test]
    fn igeom_progresses_and_covers() {
        let x = Ratio::new(3, 2);
        let g = igeom_covering(1, 100, &x);
        assert_eq!(g[0], 1);
        assert!(*g.last().unwrap() >= 100);
        for w in g.windows(2) {
            assert!(w[1] > w[0]);
            // Gap condition: g_{i+1} ≤ max(g_i+1, ⌊g_i·3/2⌋)
            let cap = (w[0] + 1).max(x.mul_int(w[0] as u128).floor() as u64);
            assert!(w[1] <= cap);
        }
    }

    #[test]
    fn capacity_grid_covers_every_alpha() {
        // Property from Theorem 15's proof: for every α ∈ [lo, hi] there is
        // α̃ in the grid with α ≤ α̃ ≤ α/(1−ρ) — allow the integer ceil slack
        // of one unit used in the implementation.
        let rho = Ratio::new(1, 7);
        let (lo, hi) = (3u64, 500u64);
        let grid = capacity_grid(lo, hi, &rho);
        let x = rho.one_minus().recip();
        for alpha in lo..=hi {
            let ub = x.mul_int(alpha as u128).ceil() as u64;
            let ok = grid.iter().any(|&a| a >= alpha && a <= ub);
            assert!(ok, "α={alpha} not covered by {grid:?}");
        }
    }

    #[test]
    fn capacity_grid_small_rho_progress() {
        // ρ tiny: steps of +1 at the start must still terminate.
        let rho = Ratio::new(1, 1000);
        let grid = capacity_grid(1, 50, &rho);
        assert!(*grid.last().unwrap() >= 50);
        assert!(grid.len() < 2000);
    }
}
