//! `(max,+)`-convolution by size class — the inner loop of the
//! compression+convolution solver ([`crate::conv_fptas`], after
//! Grage–Jansen–Ohnesorge, arXiv:2303.01414).
//!
//! The `(max,+)` (tropical) convolution of two profit arrays is
//!
//! ```text
//! out[k] = max { a[i] + b[j] : i + j = k },   0 ≤ k < la + lb − 1,
//! ```
//!
//! truncated to a capacity cap (the knapsack never asks about capacities
//! beyond `m`). The solver only ever convolves a non-decreasing
//! accumulator with one size class's profit staircase
//! `g[c] = prefix[min(⌊c/s⌋, U)]` ([`size_class_profits`]), where
//! `prefix` sums the class's `U` unit profits sorted non-increasing, so
//! `prefix` is concave. Two functions share one contract:
//!
//! * [`maxplus_ref`] — the textbook output-major loop over the dense
//!   staircase, `O(la·lb)`: the test oracle.
//! * [`maxplus_staircase`] — the kernel the solver runs. A split inside
//!   one staircase step never beats the step's first cell (the
//!   accumulator does not decrease), so `out[r + k·s]` is a `(max,+)`
//!   product of the residue-`r` subsequence of the accumulator with the
//!   concave `prefix`. Concavity makes the row argmax into the
//!   accumulator non-decreasing in `k`, and a divide-and-conquer
//!   row-maxima pass finds every row in `O(L log L)` for `L` rows —
//!   `O(C log C)` per class for capacity `C`, whatever the unit count
//!   (the bounded knapsack with few distinct sizes of Axiotis & Tzamos,
//!   ICALP 2019, up to the logarithm).
//!
//! The two are equal on every valid input, pinned by
//! `tests/proptest_convolve.rs`.
//!
//! **Overflow contract.** Entries are plain `u64` lanes; callers must
//! guarantee `a[i] + b[j]` cannot overflow (the solver checks total
//! profit mass before folding — see [`crate::conv_fptas`]). Debug builds
//! assert it.

use moldable_core::types::Work;

/// Output length of a `(max,+)` convolution truncated at `cap` entries.
#[inline]
pub fn maxplus_len(la: usize, lb: usize, cap: usize) -> usize {
    if la == 0 || lb == 0 {
        return 0;
    }
    (la + lb - 1).min(cap)
}

/// Reference scalar `(max,+)` convolution, truncated to `cap` entries.
///
/// Output-major: `out[k] = max_{i+j=k} a[i] + b[j]` computed cell by
/// cell. `O(la·lb)` adds. Empty inputs (or `cap == 0`) give an empty
/// output.
pub fn maxplus_ref(a: &[u64], b: &[u64], cap: usize) -> Vec<u64> {
    let out_len = maxplus_len(a.len(), b.len(), cap);
    let mut out = Vec::with_capacity(out_len);
    for k in 0..out_len {
        // Valid i range: 0 ≤ i < la and 0 ≤ k − i < lb.
        let ilo = (k + 1).saturating_sub(b.len());
        let ihi = k.min(a.len() - 1);
        let mut best = 0u64;
        for i in ilo..=ihi {
            let v = a[i] + b[k - i];
            debug_assert!(v >= a[i], "maxplus overflow at i={i}, k={k}");
            if v > best {
                best = v;
            }
        }
        out.push(best);
    }
    out
}

/// Length of the staircase of `units` units of `size` processors,
/// truncated to `cap` cells: `min(units·size + 1, cap)`.
fn staircase_len(size: u64, units: usize, cap: usize) -> usize {
    let full = (units as u128 * size as u128).saturating_add(1);
    full.min(cap as u128) as usize
}

/// Greedy per-size profit staircase: `out[c] = prefix[min(c / size, K)]`
/// for `c ≤ cap − 1`, where `prefix[k]` is the best total profit of any
/// `k` units (`prefix` must be a prefix-sum of unit profits sorted
/// non-increasing — taking the top `k` units of one size is exact
/// because equal-size units are interchangeable). The dense operand of
/// the [`maxplus_ref`] oracle for one size class.
pub fn size_class_profits(size: u64, prefix: &[Work], cap: usize) -> Vec<u64> {
    debug_assert!(size >= 1, "size classes start at one processor");
    debug_assert!(!prefix.is_empty() && prefix[0] == 0, "prefix[0] must be 0");
    let units = prefix.len() - 1;
    let len = staircase_len(size, units, cap);
    let mut out = Vec::with_capacity(len);
    for c in 0..len as u64 {
        let k = ((c / size) as usize).min(units);
        let p = prefix[k];
        debug_assert!(u64::try_from(p).is_ok(), "profit exceeds the u64 lane");
        out.push(p as u64);
    }
    out
}

/// `(max,+)` fold of `acc` with the staircase of one size class:
/// exactly `maxplus_ref(acc, &size_class_profits(size, prefix, cap), cap)`
/// whenever `acc` is non-decreasing and `prefix` sums non-increasing unit
/// profits (`prefix[0] == 0`). `O(L log L)` per residue class of `size`
/// for `L ≈ cap / size` rows; see the module docs.
///
/// With `Ā[i] = acc[min(i, la − 1)]` (the lowest cell of each step,
/// clamped to the end of `acc`),
/// `out[c] = max_{0 ≤ q ≤ min(U, ⌊c/s⌋)} Ā[c − q·s] + prefix[q]`.
pub fn maxplus_staircase(acc: &[u64], size: u64, prefix: &[Work], cap: usize) -> Vec<u64> {
    debug_assert!(size >= 1, "size classes start at one processor");
    debug_assert!(!prefix.is_empty() && prefix[0] == 0, "prefix[0] must be 0");
    debug_assert!(
        acc.windows(2).all(|w| w[0] <= w[1]),
        "acc must not decrease"
    );
    let units = prefix.len() - 1;
    let out_len = maxplus_len(acc.len(), staircase_len(size, units, cap), cap);
    let mut out = vec![0u64; out_len];
    let s = size as usize;
    let last = acc.len().saturating_sub(1);
    for r in 0..s.min(out_len) {
        // Past `i_cap` the residue's accumulator cells are all clamped to
        // `acc[last]`, and a smaller `i` leaves more units for the same
        // accumulator value: no row's argmax lies beyond it.
        let i_cap = last.saturating_sub(r).div_ceil(s);
        let fold = ResidueFold {
            acc,
            prefix,
            r,
            s,
            units,
        };
        fold.rows(&mut out, 0, (out_len - 1 - r) / s + 1, 0, i_cap);
    }
    out
}

/// One residue class `r` of [`maxplus_staircase`]: row `k` is output cell
/// `r + k·s`, and column `i` pairs accumulator cell `r + i·s` with `k − i`
/// units. Rows may use columns `max(0, k − U) ..= k`; both ends and the
/// row argmax are non-decreasing in `k`.
struct ResidueFold<'a> {
    acc: &'a [u64],
    prefix: &'a [Work],
    r: usize,
    s: usize,
    units: usize,
}

impl ResidueFold<'_> {
    /// Row maxima for rows `klo..khi`, each of which has an argmax in
    /// columns `ilo..=ihi`: solve the middle row by a scan, then split the
    /// columns at its argmax.
    fn rows(&self, out: &mut [u64], klo: usize, khi: usize, ilo: usize, ihi: usize) {
        if klo >= khi {
            return;
        }
        let k = klo + (khi - klo) / 2;
        let lo = ilo.max(k.saturating_sub(self.units));
        let hi = ihi.min(k);
        debug_assert!(lo <= hi, "row {k} has no admissible column");
        let (mut arg, mut best) = (lo, self.cell(k, lo));
        for i in lo + 1..=hi {
            let v = self.cell(k, i);
            if v > best {
                (arg, best) = (i, v);
            }
        }
        out[self.r + k * self.s] = best;
        self.rows(out, klo, k, ilo, arg);
        self.rows(out, k + 1, khi, arg, ihi);
    }

    #[inline]
    fn cell(&self, k: usize, i: usize) -> u64 {
        let a = self.acc[(self.r + i * self.s).min(self.acc.len() - 1)];
        let p = self.prefix[k - i];
        debug_assert!(u64::try_from(p).is_ok(), "profit exceeds the u64 lane");
        a + p as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_small_convolution() {
        // out[k] = max(a[i] + b[k-i]): hand-checked.
        let a = [0, 5, 6];
        let b = [0, 3];
        assert_eq!(maxplus_ref(&a, &b, usize::MAX), vec![0, 5, 8, 9]);
        assert_eq!(maxplus_ref(&a, &b, 2), vec![0, 5]);
    }

    #[test]
    fn empty_inputs_give_empty_output() {
        assert!(maxplus_ref(&[], &[1, 2], usize::MAX).is_empty());
        assert!(maxplus_ref(&[1], &[1], 0).is_empty());
        assert!(maxplus_staircase(&[], 2, &[0, 4], usize::MAX).is_empty());
        assert!(maxplus_staircase(&[0, 1], 2, &[0, 4], 0).is_empty());
    }

    #[test]
    fn known_small_staircase_fold() {
        // acc [0,5,6] ⊕ two units of size 2 with profits 4 ≥ 3:
        // staircase [0,0,4,4,7] (prefix [0,4,7]).
        let acc = [0, 5, 6];
        let prefix = [0, 4, 7];
        assert_eq!(
            maxplus_staircase(&acc, 2, &prefix, usize::MAX),
            vec![0, 5, 6, 9, 10, 12, 13]
        );
        assert_eq!(maxplus_staircase(&acc, 2, &prefix, 4), vec![0, 5, 6, 9]);
        // A size beyond the cap: only the empty step fits, and the last
        // accumulator cell carries on to the cap.
        assert_eq!(maxplus_staircase(&acc, 9, &prefix, 5), vec![0, 5, 6, 6, 6]);
    }

    #[test]
    fn size_class_profit_staircase() {
        // 3 units of size 4, profits 10 ≥ 7 ≥ 1 → prefix [0,10,17,18].
        let stairs = size_class_profits(4, &[0, 10, 17, 18], usize::MAX);
        assert_eq!(stairs.len(), 13);
        assert_eq!(&stairs[0..4], &[0, 0, 0, 0]);
        assert_eq!(&stairs[4..8], &[10, 10, 10, 10]);
        assert_eq!(stairs[8], 17);
        assert_eq!(stairs[12], 18);
        // Truncation keeps only capacities below the cap.
        assert_eq!(
            size_class_profits(4, &[0, 10, 17, 18], 5),
            vec![0, 0, 0, 0, 10]
        );
    }
}
