//! Geometric grids and geometric rounding (Definition 13, Lemma 14).
//!
//! `geom(L, U, x) = { L·xⁱ | i = 0, …, ⌈log_x(U/L)⌉ }` — the paper uses these
//! grids to (a) enumerate candidate capacities for the compressible-items
//! knapsack (Section 4.2.5) and (b) round processor counts, processing times
//! and profits to `O(poly(1/ε)·log m)` many *types* (Section 4.3).
//!
//! Two variants are provided:
//!
//! * [`rgeom`] — exact rational grids. Because compounding `xⁱ` exactly would
//!   overflow `u128` for small ε, each step is rounded **down** to 96-bit
//!   operands ([`crate::ratio::Ratio::round_down_bits`]). Rounding a grid
//!   value down never hurts: consecutive ratios stay `≤ x` (the property all
//!   approximation bounds use, Lemma 12/Eq. 15) and stay `≥ x·(1−2⁻⁹⁵)` so
//!   Lemma 14's cardinality bound `O(log(U/L)/(x−1))` still holds.
//! * [`igeom_covering`] — integer grids for *capacities*: every integer
//!   `α ∈ [L, U]` has a grid value `α̃` with `α ≤ α̃ ≤ ⌈α·x⌉ₓ`… precisely, the
//!   grid satisfies Eq. 15's step condition `α_i − α_{i−1} ≤ (1 − 1/x)·α_i`
//!   (equivalently `α_{i-1} ≥ α_i/x`).

use crate::ratio::Ratio;

/// Working precision for compounded grid factors (denominator bits).
/// Per-step relative error `≤ 2⁻⁴⁸`, negligible against every ρ the
/// algorithms use, while leaving enough `u128` headroom for callers to
/// multiply grid values by small rationals exactly.
const GRID_BITS: u32 = 48;

/// Exact-rational geometric grid from `lo` up to at least `hi`
/// (the last element is the first grid value `≥ hi`, matching the paper's
/// `⌈log_x(U/L)⌉` exponent range), with step factor `x > 1`.
///
/// Panics if `lo` is zero or `x ≤ 1`.
pub fn rgeom(lo: &Ratio, hi: &Ratio, x: &Ratio) -> Vec<Ratio> {
    assert!(!lo.is_zero(), "geometric grid needs a positive lower bound");
    assert!(*x > Ratio::one(), "step factor must exceed 1");
    let mut out = vec![*lo];
    let mut cur = *lo;
    while cur < *hi {
        // Round down so operands stay small; see module docs.
        cur = cur.mul_round_down(x, GRID_BITS);
        debug_assert!(cur > *out.last().unwrap(), "grid failed to make progress");
        out.push(cur);
    }
    out
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
        let nxt = (x.mul_int(cur as u128).floor() as u64).max(cur + 1);
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
    let start = x.mul_int(lo as u128).ceil() as u64;
    let mut out = vec![start];
    let mut cur = start;
    while cur < hi {
        // Next value: ⌈cur / (1−ρ)⌉, forced to progress.
        let nxt = (x.mul_int(cur as u128).ceil() as u64).max(cur + 1);
        out.push(nxt);
        cur = nxt;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rgeom_small_grid() {
        let g = rgeom(
            &Ratio::from_int(1),
            &Ratio::from_int(8),
            &Ratio::from_int(2),
        );
        assert_eq!(
            g,
            vec![
                Ratio::from_int(1),
                Ratio::from_int(2),
                Ratio::from_int(4),
                Ratio::from_int(8)
            ]
        );
    }

    #[test]
    fn rgeom_cardinality_matches_lemma14() {
        // |geom(L,U,x)| = ⌈log_x(U/L)⌉ + 1: for x = 1+1/100, U/L = 2^20,
        // expect ≈ 20/log2(1.01) ≈ 1394 entries; allow slack for the
        // downward rounding making the grid slightly denser.
        let x = Ratio::new(101, 100);
        let g = rgeom(&Ratio::from_int(1), &Ratio::from_int(1 << 20), &x);
        let bound = (20.0 / f64::log2(1.01)).ceil() as usize;
        assert!(g.len() <= bound + 3, "{} > {}", g.len(), bound + 3);
        // Consecutive ratios ≤ x (exact requirement used by Lemma 12), and
        // ≥ x·(1−2⁻⁴⁰) (cardinality): verified without overflowing by
        // multiplying the *smaller-operand* sides.
        let slack = Ratio::new(1u128 << 40, (1u128 << 40) - 1);
        for w in g.windows(2) {
            assert!(w[1] <= w[0].mul(&x));
            assert!(w[1].mul(&slack) >= w[0].mul(&x));
        }
        // covers hi
        assert!(*g.last().unwrap() >= Ratio::from_int(1 << 20));
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
