//! The benchmark's own arithmetic: percentiles, medians, self time, and
//! failure accounting. Every reported number goes through here, so the
//! unit tests at the bottom pin the conventions.

/// Nearest-rank percentile of an ascending-sorted slice: the
/// `⌈p/100 · n⌉`-th smallest value (1-based), `None` when empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// How many samples lie strictly beyond the nearest-rank `p`-th
/// percentile position of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// A percentile is reportable only with at least ten samples beyond it;
/// fewer and its value is decided by a handful of outliers.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// Smallest window of [`windowed_percentile`]: p99 keeps ten samples
/// beyond it.
pub const MIN_WINDOW: usize = 1000;
/// Most windows [`windowed_percentile`] cuts a run into.
pub const MAX_WINDOWS: usize = 10;

/// A latency percentile that a burst of interference from outside the
/// benchmark cannot move: the samples, in the order they completed, are
/// cut into at most [`MAX_WINDOWS`] consecutive windows of at least
/// [`MIN_WINDOW`] samples, and the result is the median over windows of
/// each window's nearest-rank percentile. Fewer than `2·MIN_WINDOW`
/// samples form one window — the plain percentile. Returns the value
/// and the window size.
pub fn windowed_percentile(ordered: &[f64], p: f64) -> Option<(f64, usize)> {
    if ordered.is_empty() {
        return None;
    }
    let windows = (ordered.len() / MIN_WINDOW).clamp(1, MAX_WINDOWS);
    let size = ordered.len() / windows;
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                ordered.len()
            } else {
                (w + 1) * size
            };
            let window = sorted(ordered[w * size..end].to_vec());
            nearest_rank(&window, p).expect("windows are non-empty")
        })
        .collect();
    Some((median(&per_window).expect("at least one window"), size))
}

/// Completions per second that a burst of interference from outside the
/// benchmark cannot move: `[0, wall)` is cut into [`MAX_WINDOWS`] equal
/// windows and the result is the median of the windows' rates.
/// `completed_at` holds completion times in seconds since the start.
pub fn windowed_rate(completed_at: &[f64], wall: f64) -> f64 {
    if wall.is_nan() || wall <= 0.0 {
        return 0.0;
    }
    let width = wall / MAX_WINDOWS as f64;
    let mut counts = [0u64; MAX_WINDOWS];
    for &t in completed_at {
        counts[((t / width) as usize).min(MAX_WINDOWS - 1)] += 1;
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
    eprintln!(
        "rate per {width:.1} s window: {}",
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    median(&rates).expect("MAX_WINDOWS > 0")
}

/// Note on stderr when a `p`-th percentile of `n` samples has fewer than
/// ten samples beyond it.
pub fn note_support(label: &str, n: usize, p: f64) {
    if !percentile_supported(n, p) {
        eprintln!(
            "note: {label} p{p} over {n} samples has only {} beyond it",
            samples_beyond(n, p)
        );
    }
}

/// The nearest-rank percentile of an ascending-sorted set for a report
/// (0 when empty), with a note on stderr when fewer than ten samples lie
/// beyond it.
pub fn reported_percentile(label: &str, sorted: &[f64], p: f64) -> f64 {
    note_support(label, sorted.len(), p);
    nearest_rank(sorted, p).unwrap_or(0.0)
}

/// [`windowed_percentile`] for a report (0 when empty), with the same
/// note per window.
pub fn reported_windowed_percentile(label: &str, ordered: &[f64], p: f64) -> f64 {
    let Some((value, size)) = windowed_percentile(ordered, p) else {
        return 0.0;
    };
    note_support(label, size, p);
    value
}

/// Sort a sample set ascending (NaN-free by construction: every sample
/// is a measured duration or a finite ratio).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    values
}

/// Median (mean of the two middle values for even counts), `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let s = sorted(values.to_vec());
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Arithmetic mean, 0 for an empty set.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Failed operations as a share of those attempted (0 when nothing was
/// attempted — the caller reports `attempted` alongside).
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// One finished span as the self-time computation sees it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Index of the parent span in the same slice, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the trace epoch.
    pub start: u64,
    /// End, in nanoseconds since the trace epoch (`end >= start`).
    pub end: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children. Overlapping children (several
/// threads under one parent) are merged first, so no instant is
/// subtracted twice, and a child sticking out of its parent only
/// subtracts the overlapping part.
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start;
            for &(start, end) in kids.iter() {
                let lo = start.max(cursor);
                let hi = end.min(span.end);
                if hi > lo {
                    covered += hi - lo;
                }
                cursor = cursor.max(end);
            }
            (span.end - span.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_order_statistic() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(100.0));
        // ⌈0.95·10⌉ = 10: the p95 of ten samples is the maximum.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&ten, 95.0), Some(10.0));
        assert_eq!(nearest_rank(&ten, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&[7.0], 1.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 leaves exactly 10 beyond; of 999, only 9.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(percentile_supported(1000, 99.0));
        assert!(!percentile_supported(999, 99.0));
        // p50 needs 20 samples.
        assert!(percentile_supported(20, 50.0));
        assert!(!percentile_supported(19, 50.0));
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn windowed_percentile_ignores_a_burst() {
        // 10 000 samples of 1.0 with one window-sized burst of 50.0: the
        // plain p99 is 50, the windowed one stays at 1.
        let mut v = vec![1.0; 10_000];
        for x in &mut v[3_000..4_000] {
            *x = 50.0;
        }
        assert_eq!(nearest_rank(&sorted(v.clone()), 99.0), Some(50.0));
        assert_eq!(windowed_percentile(&v, 99.0), Some((1.0, 1_000)));
        // Small sets are one window: the plain percentile.
        let small: Vec<f64> = (1..=1_999).map(f64::from).collect();
        assert_eq!(windowed_percentile(&small, 50.0), Some((1_000.0, 1_999)));
        // Large sets cap at MAX_WINDOWS windows; the tail joins the last.
        let large: Vec<f64> = (0..25_005).map(f64::from).collect();
        let (_, size) = windowed_percentile(&large, 50.0).unwrap();
        assert_eq!(size, 2_500);
        assert_eq!(windowed_percentile(&[], 50.0), None);
    }

    #[test]
    fn windowed_rate_ignores_a_stalled_window() {
        // 10 s at 100/s, except second 4 where nothing completes.
        let times: Vec<f64> = (0..1_000)
            .map(|i| i as f64 / 100.0)
            .filter(|t| !(4.0..5.0).contains(t))
            .collect();
        assert_eq!(times.len(), 900);
        assert_eq!(windowed_rate(&times, 10.0), 100.0);
        assert_eq!(windowed_rate(&[], 10.0), 0.0);
        assert_eq!(windowed_rate(&[0.5], 0.0), 0.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn failed_frac_counts_against_attempted() {
        assert_eq!(failed_frac(0, 500), 0.0);
        assert_eq!(failed_frac(5, 500), 0.01);
        assert_eq!(failed_frac(3, 0), 0.0);
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        // root [0,100) with children [10,30) and [20,50) (overlapping,
        // covered together = [10,50) = 40) and a grandchild inside the
        // first child, which must not count against the root.
        let spans = [
            Interval {
                parent: None,
                start: 0,
                end: 100,
            },
            Interval {
                parent: Some(0),
                start: 10,
                end: 30,
            },
            Interval {
                parent: Some(0),
                start: 20,
                end: 50,
            },
            Interval {
                parent: Some(1),
                start: 12,
                end: 18,
            },
        ];
        assert_eq!(self_times(&spans), vec![60, 14, 30, 6]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = [
            Interval {
                parent: None,
                start: 10,
                end: 20,
            },
            Interval {
                parent: Some(0),
                start: 5,
                end: 15,
            },
            Interval {
                parent: Some(0),
                start: 18,
                end: 40,
            },
        ];
        assert_eq!(self_times(&spans)[0], 3);
    }
}
