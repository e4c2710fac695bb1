//! Property-based tests of the size-class (max,+) kernel: folding a
//! non-decreasing accumulator with one size class's profit staircase must
//! equal the dense reference convolution on arbitrary lengths, sizes and
//! caps — including caps that cut a step short or fall inside the
//! accumulator — and must preserve the monotonicity the solver's
//! backtracking relies on.

use moldable::core::types::Work;
use moldable::sched::convolve::{maxplus_ref, maxplus_staircase, size_class_profits};
use proptest::prelude::*;

fn monotone_lane() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..10_000, 0..300).prop_map(|deltas| {
        deltas
            .into_iter()
            .scan(0u64, |acc, d| {
                *acc += d;
                Some(*acc)
            })
            .collect()
    })
}

/// Prefix sums of unit profits sorted non-increasing: `prefix[q]` is the
/// best profit of `q` units of one size.
fn prefix() -> impl Strategy<Value = Vec<Work>> {
    prop::collection::vec(0u64..1000, 0..60).prop_map(|mut units| {
        units.sort_unstable_by(|a, b| b.cmp(a));
        std::iter::once(0)
            .chain(units.iter().scan(0, |sum, &p| {
                *sum += p as Work;
                Some(*sum)
            }))
            .collect()
    })
}

/// The oracle: the dense staircase through the reference convolution.
fn reference(acc: &[u64], size: u64, prefix: &[Work], cap: usize) -> Vec<u64> {
    maxplus_ref(acc, &size_class_profits(size, prefix, cap), cap)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The kernel is exact: identical output to the reference for every
    /// length, size and cap, capped or not.
    #[test]
    fn staircase_matches_reference(
        acc in monotone_lane(),
        prefix in prefix(),
        size in 1u64..48,
        cap in 0usize..4000,
    ) {
        prop_assert_eq!(maxplus_staircase(&acc, size, &prefix, cap), reference(&acc, size, &prefix, cap));
        prop_assert_eq!(
            maxplus_staircase(&acc, size, &prefix, usize::MAX),
            reference(&acc, size, &prefix, usize::MAX)
        );
    }

    /// Caps that end inside a staircase step, where the last step is
    /// truncated, and caps shorter than the accumulator itself.
    #[test]
    fn staircase_matches_reference_at_truncated_steps(
        acc in monotone_lane(),
        prefix in prefix(),
        size in 2u64..48,
        step in 0usize..60,
        into in 1u64..48,
    ) {
        let units = prefix.len() - 1;
        let q = step.min(units);
        let mid_step = acc.len() + q * size as usize + (into % size) as usize;
        for cap in [mid_step, acc.len() / 2, acc.len().saturating_sub(1), 1] {
            prop_assert_eq!(
                maxplus_staircase(&acc, size, &prefix, cap),
                reference(&acc, size, &prefix, cap),
                "cap {}", cap
            );
        }
    }

    /// Folding a non-decreasing accumulator with a staircase gives a
    /// non-decreasing accumulator — the structure the solver relies on
    /// when it reads the best profit from the last cell.
    #[test]
    fn monotone_inputs_give_monotone_output(acc in monotone_lane(), prefix in prefix(), size in 1u64..48) {
        let out = maxplus_staircase(&acc, size, &prefix, usize::MAX);
        prop_assert!(out.windows(2).all(|w| w[0] <= w[1]), "non-monotone: {out:?}");
    }

    /// Truncation by `cap` is a pure prefix: the capped result equals the
    /// leading `cap` entries of the uncapped one.
    #[test]
    fn cap_is_a_prefix(acc in monotone_lane(), prefix in prefix(), size in 1u64..48, cap in 0usize..3000) {
        let full = maxplus_staircase(&acc, size, &prefix, usize::MAX);
        let capped = maxplus_staircase(&acc, size, &prefix, cap);
        prop_assert_eq!(capped.len(), full.len().min(cap));
        prop_assert_eq!(&capped[..], &full[..capped.len()]);
    }

    /// (max,+) convolution commutes, so folding two classes in either
    /// order gives the same accumulator.
    #[test]
    fn class_order_does_not_matter(
        a in prefix(),
        b in prefix(),
        sizes in (1u64..24, 1u64..24),
        cap in 1usize..800,
    ) {
        let ab = maxplus_staircase(&maxplus_staircase(&[0], sizes.0, &a, cap), sizes.1, &b, cap);
        let ba = maxplus_staircase(&maxplus_staircase(&[0], sizes.1, &b, cap), sizes.0, &a, cap);
        prop_assert_eq!(ab, ba);
    }
}
