//! Bounded-precision accumulators shared by the simulator's fairness
//! reports and the scheduler's fair-share engine.
//!
//! [`RunningSum`] used to live in `moldable-sim::metrics`; it moved here
//! so `moldable-sched` (which `moldable-sim` depends on — the dependency
//! cannot point the other way) can accumulate decayed per-tenant usage
//! on the same drift-bounded substrate. `moldable_sim::metrics` keeps a
//! re-export, so existing imports are unaffected.

use crate::ratio::{mul_div_floor, Ratio};

/// Dyadic grid every incoming term is rounded down onto: the fraction
/// lane counts units of `2^-48`.
const TERM_BITS: u32 = 48;

/// One whole unit of the fraction lane.
const FRAC_ONE: u64 = 1 << TERM_BITS;

/// Value threshold past which `whole + frac` no longer fits next to a
/// 48-bit denominator in a `u128` numerator; beyond it [`RunningSum`]
/// reports the integer part alone (relative error under `2^-78`).
const EXACT_WHOLE_LIMIT: u128 = 1 << 78;

/// Terms below this value add `⌊x·2^48⌋/2^48` whatever the form of `x`
/// ([`RunningSum::push_quotient`]); larger ones take the [`Ratio`] path.
const QUOTIENT_LIMIT: u128 = 1 << 76;

/// Bounded-precision running sum over exact rationals.
///
/// Each incoming term is rounded **down** onto the `2^-48` dyadic grid
/// and split into two integer lanes: its integer part accumulates in a
/// `u128`, its fraction (in units of `2^-48`) in a `u64` that carries
/// into the integer lane on every push. The running sum is never
/// re-rounded per add, so truncation does not compound with stream
/// length: total drift is at most the sum of per-term roundings,
/// `Σ xᵢ·2⁻⁴⁸`, plus — only once the total exceeds `2^78` — a dropped
/// fraction under one unit (relative `< 2^-78`). The old `accumulate`
/// helper instead re-rounded the full running sum on every add, which
/// re-quantized an ever-growing value onto an ever-coarser grid once
/// totals left the 78-bit range — error compounding with stream length —
/// and overflowed the `u128` numerator outright on work-weighted flows
/// of `10^4`-job streams.
///
/// A term `x < 2^76` adds exactly `⌊x·2^48⌋/2^48` through either entry
/// point; [`RunningSum::push_quotient`] computes it from any numerator
/// and denominator with two integer divisions, no `gcd`.
#[derive(Clone, Debug, Default)]
pub struct RunningSum {
    /// Integer lane: `⌊Σ⌋`.
    whole: u128,
    /// Fraction lane: `Σ − ⌊Σ⌋` in units of `2^-48`, below `2^48`.
    frac: u64,
    count: u64,
}

impl RunningSum {
    /// An empty sum.
    pub fn new() -> Self {
        RunningSum::default()
    }

    /// Add one term (rounded down to the term grid; see the type docs).
    pub fn push(&mut self, x: &Ratio) {
        // First cap the denominator (`round_down_bits` leaves small
        // denominators untouched; for `x < 2^77` it rounds to
        // `⌊x·2^48⌋/2^48`, above that to a coarser dyadic grid), then
        // take the sub-one remainder in units of `2^-48` — exact, as the
        // capped denominator divides `2^48`.
        let x = x.round_down_bits(TERM_BITS);
        let whole = x.floor();
        let rem = x.num() - whole * x.den();
        debug_assert!(rem < x.den() && x.den() <= 1 << TERM_BITS);
        self.add(whole, ((rem << TERM_BITS) / x.den()) as u64);
    }

    /// Add the term `num/den`, reduced or not: for `num/den < 2^76` this
    /// adds `⌊num·2^48/den⌋/2^48`, which is what [`RunningSum::push`]
    /// adds for the same value, and larger terms go through `push`.
    /// Panics if `den == 0`.
    pub fn push_quotient(&mut self, num: u128, den: u128) {
        let whole = num / den;
        if whole >= QUOTIENT_LIMIT {
            return self.push(&Ratio::new(num, den));
        }
        let rem = num - whole * den;
        let frac = if rem >> (128 - TERM_BITS) == 0 {
            (rem << TERM_BITS) / den
        } else {
            mul_div_floor(rem, 1 << TERM_BITS, den)
        };
        self.add(whole, frac as u64);
    }

    /// Add one rounded term: `whole + frac·2^-48`, `frac < 2^48`.
    fn add(&mut self, whole: u128, frac: u64) {
        let frac = self.frac + frac;
        self.whole += whole + u128::from(frac >> TERM_BITS);
        self.frac = frac & (FRAC_ONE - 1);
        self.count += 1;
    }

    /// The accumulated sum. Exact over the rounded terms while the total
    /// is below `2^78`; beyond that the sub-one fraction is dropped
    /// (relative error `< 2^-78` — the `u128` numerator cannot carry a
    /// 48-bit denominator next to a larger value).
    pub fn value(&self) -> Ratio {
        if self.frac == 0 || self.whole >= EXACT_WHOLE_LIMIT {
            Ratio::from_int(self.whole)
        } else {
            Ratio::new(
                (self.whole << TERM_BITS) | u128::from(self.frac),
                u128::from(FRAC_ONE),
            )
        }
    }

    /// Number of terms pushed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean over the pushed terms; zero for an empty sum.
    pub fn mean(&self) -> Ratio {
        if self.count == 0 {
            Ratio::zero()
        } else {
            self.value().div_int(self.count as u128)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The accumulator as it stood before the integer lanes, kept as the
    /// oracle: each term is rounded by the `Ratio` chain
    /// `round_down_bits` → `floor` → `sub`, its fraction snapped onto
    /// `2^-48` and added to an exact dyadic `Ratio` lane whose integer
    /// part carries over every 2¹² pushes.
    struct CadenceSum {
        whole: u128,
        frac: Ratio,
        count: u64,
    }

    impl CadenceSum {
        const NORMALIZE_EVERY: u64 = 1 << 12;

        fn new() -> Self {
            CadenceSum {
                whole: 0,
                frac: Ratio::zero(),
                count: 0,
            }
        }

        fn push(&mut self, x: &Ratio) {
            let x = x.round_down_bits(TERM_BITS);
            let w = x.floor();
            self.whole += w;
            let f = x.sub(&Ratio::from_int(w));
            let dyadic = Ratio::new((f.num() << TERM_BITS) / f.den(), 1u128 << TERM_BITS);
            self.frac = self.frac.add(&dyadic);
            self.count += 1;
            if self.count.is_multiple_of(Self::NORMALIZE_EVERY) {
                let w = self.frac.floor();
                self.whole += w;
                self.frac = self.frac.sub(&Ratio::from_int(w));
            }
        }

        fn value(&self) -> Ratio {
            let whole = self.whole + self.frac.floor();
            if whole < EXACT_WHOLE_LIMIT {
                let frac = self.frac.sub(&Ratio::from_int(self.frac.floor()));
                Ratio::from_int(whole).add(&frac)
            } else {
                Ratio::from_int(whole)
            }
        }

        fn mean(&self) -> Ratio {
            if self.count == 0 {
                Ratio::zero()
            } else {
                self.value().div_int(self.count as u128)
            }
        }
    }

    /// xorshift64: a seeded stream of test inputs.
    fn rng(mut seed: u64) -> impl FnMut() -> u64 {
        move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        }
    }

    /// Push every `(num, den)` term three ways — the oracle on the reduced
    /// value, `push` on it, `push_quotient` on the pair as given — and
    /// require the same value, mean and count after every push.
    fn assert_matches_oracle(terms: &[(u128, u128)]) {
        let mut oracle = CadenceSum::new();
        let (mut by_ratio, mut by_quotient) = (RunningSum::new(), RunningSum::new());
        for (i, &(num, den)) in terms.iter().enumerate() {
            let x = Ratio::new(num, den);
            oracle.push(&x);
            by_ratio.push(&x);
            by_quotient.push_quotient(num, den);
            for sum in [&by_ratio, &by_quotient] {
                assert_eq!(sum.value(), oracle.value(), "term {i}: {num}/{den}");
                assert_eq!(sum.mean(), oracle.mean(), "term {i}: {num}/{den}");
                assert_eq!(sum.count(), oracle.count, "term {i}");
            }
        }
    }

    #[test]
    fn integer_and_small_denominator_terms_match_the_cadence_oracle() {
        let mut next = rng(0x5EED_0001);
        // Unreduced pairs too: the quotient path must not care.
        let terms: Vec<(u128, u128)> = (0..10_000u32)
            .map(|i| {
                let den = u128::from(next() % 12 + 1) * u128::from(i % 3 + 1);
                (u128::from(next() % 1_000_000), den)
            })
            .collect();
        assert_matches_oracle(&terms);
        // Past the oracle's 2¹²-push cadence with a sub-one carry pending.
        assert_matches_oracle(&vec![(2, 3); 3 * 4096 + 7]);
    }

    #[test]
    fn denominators_above_the_term_grid_match_the_cadence_oracle() {
        let mut next = rng(0x5EED_0002);
        let terms: Vec<(u128, u128)> = (0..4_000u32)
            .map(|i| {
                // Denominators of 49 to 127 bits, values up to ~2⁴⁰.
                let bits = 49 + i % 79;
                let den = (1u128 << (bits - 1)) | u128::from(next()) | 1;
                let value = u128::from(next() >> 24);
                let num = den
                    .checked_mul(value)
                    .unwrap_or(u128::MAX / 2)
                    .saturating_add(u128::from(next()));
                (num, den)
            })
            .collect();
        assert_matches_oracle(&terms);
    }

    #[test]
    fn values_straddling_the_quotient_limit_match_the_cadence_oracle() {
        let mut next = rng(0x5EED_0003);
        let mut terms: Vec<(u128, u128)> = Vec::new();
        for k in 74..81u32 {
            for den in [1u128, 3, 7 << 20, (1 << 49) + 3, (1 << 50) - 1] {
                let base = (1u128 << k).checked_mul(den);
                for delta in [0u128, 1, u128::from(next() >> 40)] {
                    if let Some(num) = base.and_then(|b| b.checked_sub(delta)) {
                        terms.push((num, den));
                    }
                    if let Some(num) = base.and_then(|b| b.checked_add(delta)) {
                        terms.push((num, den));
                    }
                }
            }
        }
        // One term per sum: each lands on a fresh accumulator too.
        for &term in &terms {
            assert_matches_oracle(&[term]);
        }
        assert_matches_oracle(&terms);
    }

    #[test]
    fn totals_past_the_exact_limit_match_the_cadence_oracle() {
        // Terms just under the quotient limit, with fractions, until the
        // total passes 2⁷⁸ and the fraction is dropped from `value`.
        let term = ((1u128 << 75) * 3 + 1, 3);
        assert_matches_oracle(&vec![term; 12]);
        let mut sum = RunningSum::new();
        for _ in 0..12 {
            sum.push_quotient(term.0, term.1);
        }
        assert!(sum.value().den() == 1 && sum.value().floor() >= EXACT_WHOLE_LIMIT);
    }

    #[test]
    fn running_sum_drift_bounded_on_1e5_term_sum() {
        // Regression for the old `accumulate` helper, which re-rounded the
        // *running sum* on every add: total drift must stay within the sum
        // of per-term roundings, n·2⁻⁴⁸, not compound with stream length.
        let n: u128 = 100_000;
        let term = Ratio::new(1, 3); // non-dyadic: every push rounds
        let mut acc = RunningSum::new();
        for _ in 0..n {
            acc.push(&term);
        }
        assert_eq!(acc.count(), n as u64);
        let exact = Ratio::new(n, 3);
        assert!(acc.value() <= exact, "rounding is downward");
        let drift = exact.sub(&acc.value());
        let bound = Ratio::new(n, 1u128 << 48);
        assert!(drift <= bound, "drift {} exceeds n·2⁻⁴⁸ = {}", drift, bound);
        // Mean inherits the bound.
        let mean_drift = Ratio::new(1, 3).sub(&acc.mean());
        assert!(mean_drift <= Ratio::new(1, 1u128 << 48));
    }

    #[test]
    fn running_sum_survives_huge_totals() {
        // Work-weighted flow sums on million-job traces leave the range
        // where value·2⁴⁸ fits in u128; the integer lane must keep adding
        // (no overflow panic) with bounded relative drift.
        let n: u128 = 20_000;
        let term = Ratio::from_int(1u128 << 70).add(&Ratio::new(1, 3));
        let mut acc = RunningSum::new();
        for _ in 0..n {
            acc.push(&term);
        }
        let exact = Ratio::new(n * 3 * (1u128 << 70) + n, 3);
        let drift = exact.sub(&acc.value());
        // Per-term roundings ≤ Σxᵢ·2⁻⁴⁸ plus the dropped fraction of the
        // (huge) total: comfortably under 10⁻⁹.
        assert!(drift.div(&exact) <= Ratio::new(1, 1_000_000_000));
    }
}
