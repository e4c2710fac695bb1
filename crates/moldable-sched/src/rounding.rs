//! Section 4.3.1 rounding, shared by the knapsack-based solvers.
//!
//! Both Algorithm 3 ([`crate::improved`]) and the compression+convolution
//! solver ([`crate::conv_fptas`]) reduce the shelf-S1 selection to a
//! knapsack over *item types*: jobs whose rounded size, rounded profit and
//! compressibility coincide are interchangeable (Lemma 19 accounts for the
//! rounding error at assembly). This module holds the single
//! implementation of that reduction so the two solvers round identically
//! by construction:
//!
//! * processor counts round **down** onto the
//!   [`SizeClassGrid`]
//!   (exact below `b`, geometric `1+ρ` steps above);
//! * times of jobs wide in a shelf round **down** onto
//!   `geom(s/2, s, 1+4ρ)` per shelf height `s ∈ {d, d/2}` (Lemma 17).
//!   Both grids start at the dyadic values `d/2` and `d/4`, so as
//!   [`FixedGrid`]s every value is an integer over `2^48`: a time rounds
//!   by one integer search, and the saved work of a job wide in S2 is
//!   `⌊(n_half·p_half − n_d·p_d)/2^48⌋` through a widening product;
//! * profits of jobs narrow in both shelves round to `0` (below `δd/2`)
//!   or **up** to their top `B = bitlen(⌈b/δ⌉) + 1` significant bits
//!   ([`ProfitRounding`]). As `2^(B−1) ≥ b/δ`, no profit grows by more
//!   than the factor `1+δ/b` that Lemma 19 charges the paper's grid
//!   `geom(δd/2, bd/2, 1+δ/b)`, and `[δd/2, bd/2]` holds
//!   `O((b/δ)·log(b/δ))` classes, the order of Lemma 14's grid (DESIGN
//!   §Substitution notes). A profit costs one shift and add; no profit
//!   grid is built.

use crate::shelves::ShelfContext;
use moldable_core::compression::{DoubleCompression, SizeClassGrid};
use moldable_core::geom::{FixedGrid, GRID_BITS};
use moldable_core::ratio::{wide_mul, Ratio};
use moldable_core::types::{JobId, Time, Work};
use moldable_core::view::JobView;
use moldable_knapsack::bounded::ItemType;
use std::collections::BTreeMap;

/// The rounded knapsack instance: item types plus, per type, the concrete
/// jobs that rounded onto it (any `count` of them are interchangeable).
#[derive(Clone, Debug)]
pub struct RoundedTypes {
    /// One entry per distinct `(size, profit, compressible)` class.
    pub types: Vec<ItemType>,
    /// `jobs_by_type[i]` lists the jobs of `types[i]`
    /// (`types[i].count == jobs_by_type[i].len()`).
    pub jobs_by_type: Vec<Vec<JobId>>,
}

/// The profit rounding of Section 4.3.1 at one target `d`: profits below
/// `δd/2` become `0`, the rest round **up** to their top `B` significant
/// bits, `B = bitlen(⌈b/δ⌉) + 1`.
#[derive(Clone, Copy, Debug)]
pub struct ProfitRounding {
    /// `⌈δd/2⌉`: an integer profit is below `δd/2` iff it is below this.
    floor: Work,
    /// `B`, so that `2^(B−1) > ⌈b/δ⌉ ≥ b/δ`.
    bits: u32,
}

impl ProfitRounding {
    /// The rounding under `dc`'s parameters at target `d`.
    pub fn new(dc: &DoubleCompression, d: Time) -> Self {
        let b_over_delta = Ratio::from_int(u128::from(dc.b())).div(dc.delta()).ceil();
        ProfitRounding {
            floor: dc.delta().mul_int(u128::from(d)).div_int(2).ceil(),
            bits: u128::BITS - b_over_delta.leading_zeros() + 1,
        }
    }

    /// Round one profit. A profit `v ≥ δd/2` of at most `B` bits comes
    /// back unchanged; a longer one has its low bits rounded up, so
    /// `v ≤ r < v·(1 + 2^−(B−1)) ≤ v·(1 + δ/b)`. A round-up past
    /// `u128::MAX` saturates there, which keeps both bounds.
    pub fn round(&self, v: Work) -> Work {
        if v < self.floor {
            return 0;
        }
        let shift = (u128::BITS - v.leading_zeros()).saturating_sub(self.bits);
        let unit = 1u128 << shift;
        let top = (v >> shift) + u128::from(v & (unit - 1) != 0);
        top.saturating_mul(unit)
    }
}

/// A Lemma 17 time grid `geom(lo, 2·lo, 1+4ρ)` whose `lo` is dyadic, so
/// every value is a numerator over `2^GRID_BITS`.
struct TimeGrid {
    /// `lo·2^48`.
    lo: u128,
    grid: FixedGrid,
}

impl TimeGrid {
    fn new(lo: &Ratio, hi: &Ratio, stretch: &Ratio) -> Self {
        TimeGrid {
            lo: lo.floor_mul_int(1 << GRID_BITS),
            grid: FixedGrid::new(lo, hi, stretch),
        }
    }

    /// The numerator of `t` rounded down onto the grid, or of `lo` when
    /// `t` lies below it.
    fn round(&self, t: Time) -> u128 {
        let nums = self.grid.numerators();
        match nums.partition_point(|&n| n <= u128::from(t) << GRID_BITS) {
            0 => self.lo,
            k => nums[k - 1],
        }
    }
}

/// Round the knapsack jobs of `ctx` (classified at target `d`) to item
/// types under `dc`'s parameters.
pub fn round_knapsack_types(
    view: &JobView,
    ctx: &ShelfContext,
    dc: &DoubleCompression,
    d: Time,
) -> RoundedTypes {
    let b = dc.b();
    let rho = dc.rho();
    let d_ratio = Ratio::from(d);
    let half_d = d_ratio.div_int(2);

    // Rounding grids (Section 4.3.1).
    let sizes = SizeClassGrid::build(dc, view.m());
    let stretch = rho.mul_int(4).one_plus(); // 1 + 4ρ
    let time_grid_d = TimeGrid::new(&half_d, &d_ratio, &stretch);
    let time_grid_half = TimeGrid::new(&d_ratio.div_int(4), &half_d, &stretch);
    let profits = ProfitRounding::new(dc, d);

    // Round every knapsack job to a type.
    let mut groups: BTreeMap<(u64, Work, bool), Vec<JobId>> = BTreeMap::new();
    for bj in &ctx.knapsack_jobs {
        let gamma_half = bj.gamma_half_d.expect("knapsack jobs have γ(d/2)");
        let size = sizes.round_down(bj.gamma_d);
        let compressible = bj.gamma_d >= b;
        let rounded_half = sizes.round_down(gamma_half);
        let profit: Work = if rounded_half < b {
            // Narrow in S2: round the original profit.
            profits.round(bj.profit)
        } else {
            // Wide in S2: saved work according to rounded values,
            // ⌊(t̃_half·p̃_half − t̃_d·p̃_d)⌋ over numerators of 2^48.
            let t_d = time_grid_d.round(view.time(bj.id, bj.gamma_d));
            let t_half = time_grid_half.round(view.time(bj.id, gamma_half));
            let (ah, al) = wide_mul(t_half, u128::from(rounded_half));
            let (bh, bl) = wide_mul(t_d, u128::from(size));
            if (ah, al) > (bh, bl) {
                let (lo, borrow) = al.overflowing_sub(bl);
                let hi = ah - bh - u128::from(borrow);
                (hi << (128 - GRID_BITS)) | (lo >> GRID_BITS)
            } else {
                0
            }
        };
        groups
            .entry((size, profit, compressible))
            .or_default()
            .push(bj.id);
    }

    let types: Vec<ItemType> = groups
        .iter()
        .enumerate()
        .map(|(i, (&(size, profit, compressible), jobs))| ItemType {
            type_id: i as u32,
            size,
            profit,
            count: jobs.len() as u64,
            compressible,
        })
        .collect();
    let jobs_by_type: Vec<Vec<JobId>> = groups.into_values().collect();
    RoundedTypes {
        types,
        jobs_by_type,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_core::instance::Instance;
    use moldable_core::speedup::{monotone_closure, SpeedupCurve};
    use std::sync::Arc;

    #[test]
    fn types_partition_the_knapsack_jobs() {
        let mut seed = 0x5EED_0F20_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let dc = DoubleCompression::for_delta(Ratio::new(1, 5));
        for _ in 0..30 {
            let m = next() % 20 + 1;
            let n = (next() % 10 + 1) as usize;
            let curves: Vec<SpeedupCurve> = (0..n)
                .map(|_| {
                    let mut tbl: Vec<u64> = (0..m as usize).map(|_| next() % 50 + 1).collect();
                    monotone_closure(&mut tbl);
                    SpeedupCurve::Table(Arc::new(tbl))
                })
                .collect();
            let inst = Instance::new(curves, m);
            let view = JobView::build(&inst);
            let d = next() % 60 + 2;
            let Some(ctx) = ShelfContext::build(&view, d) else {
                continue;
            };
            let rt = round_knapsack_types(&view, &ctx, &dc, d);
            assert_eq!(rt.types.len(), rt.jobs_by_type.len());
            let mut seen: Vec<JobId> = rt.jobs_by_type.concat();
            seen.sort_unstable();
            let mut expect: Vec<JobId> = ctx.knapsack_jobs.iter().map(|b| b.id).collect();
            expect.sort_unstable();
            assert_eq!(seen, expect, "types must partition the knapsack jobs");
            for (t, jobs) in rt.types.iter().zip(&rt.jobs_by_type) {
                assert_eq!(t.count as usize, jobs.len());
                assert!(t.size >= 1);
            }
        }
    }

    #[test]
    fn types_partition_the_knapsack_jobs_at_eps_1_16() {
        // δ = ε/5 at ε = 1/16 (b = 481) on machines wider than b, with
        // near-linear speedups so profits run past the B = 17 kept bits.
        // Each job's type carries its own rounded size and, when it is
        // narrow in S2, its own profit rounded by `ProfitRounding`.
        let mut seed = 0x5EED_1616_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let dc = DoubleCompression::for_delta(Ratio::new(1, 80));
        let mut rounded_profits = 0;
        for _ in 0..60 {
            let m = next() % 2000 + 1;
            let n = (next() % 12 + 1) as usize;
            let curves: Vec<SpeedupCurve> = (0..n)
                .map(|_| {
                    let (t1, c) = (next() % 1_000_000 + 1, next() % 4000 + 1);
                    let mut tbl: Vec<u64> = (0..m).map(|p| (t1 * c).div_ceil(c + p)).collect();
                    monotone_closure(&mut tbl);
                    SpeedupCurve::Table(Arc::new(tbl))
                })
                .collect();
            let inst = Instance::new(curves, m);
            let view = JobView::build(&inst);
            let d = next() % 1_000_000 + 2;
            let Some(ctx) = ShelfContext::build(&view, d) else {
                continue;
            };
            let rt = round_knapsack_types(&view, &ctx, &dc, d);
            let mut seen: Vec<JobId> = rt.jobs_by_type.concat();
            seen.sort_unstable();
            let mut expect: Vec<JobId> = ctx.knapsack_jobs.iter().map(|b| b.id).collect();
            expect.sort_unstable();
            assert_eq!(seen, expect, "types must partition the knapsack jobs");
            let sizes = SizeClassGrid::build(&dc, m);
            let profits = ProfitRounding::new(&dc, d);
            for (t, jobs) in rt.types.iter().zip(&rt.jobs_by_type) {
                assert_eq!(t.count as usize, jobs.len());
                for &j in jobs {
                    let bj = ctx.knapsack_jobs.iter().find(|b| b.id == j).unwrap();
                    assert_eq!(t.size, sizes.round_down(bj.gamma_d));
                    assert_eq!(t.compressible, bj.gamma_d >= dc.b());
                    if bj.gamma_half_d.unwrap() < dc.b() {
                        assert_eq!(t.profit, profits.round(bj.profit));
                        rounded_profits += usize::from(t.profit != bj.profit && t.profit != 0);
                    }
                }
            }
        }
        assert!(rounded_profits > 0, "no profit was rounded up");
    }
}
