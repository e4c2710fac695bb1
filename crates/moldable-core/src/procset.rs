//! Interval sets of processor indices.
//!
//! A [`ProcSet`] is a set of processor ids in `0..m`, stored as sorted,
//! disjoint, non-adjacent **inclusive** ranges `[lo, hi]` — the
//! representation used by production resource managers (OAR's
//! `ProcSet`, Slurm's bitmaps-of-blocks) and the only one that scales
//! to this codebase's compact-encoding regime, where `m` may be `2^40`:
//! every operation is linear in the number of *ranges*, never in `m`.
//!
//! Set algebra ([`union`](ProcSet::union), [`intersect`](ProcSet::intersect),
//! [`subtract`](ProcSet::subtract)) works by merging range walks;
//! [`first_fit`](ProcSet::first_fit) finds the lowest contiguous run of a
//! given width and [`take_first`](ProcSet::take_first) the lowest `k`
//! processors regardless of contiguity. The `Display` form is the
//! conventional hyphen/comma notation: `0-3,7,9-12`.

use std::fmt;

/// A set of processor indices as sorted disjoint inclusive ranges.
///
/// The normal form merges adjacent ranges (`[0,3],[4,6]` becomes
/// `[0,6]`), so structural equality is set equality.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct ProcSet {
    /// Sorted, disjoint, non-adjacent inclusive ranges.
    ranges: Vec<(u64, u64)>,
}

impl ProcSet {
    /// The empty set.
    pub fn new() -> Self {
        ProcSet::default()
    }

    /// The full machine `{0, …, m−1}` (empty when `m = 0`).
    pub fn full(m: u64) -> Self {
        if m == 0 {
            ProcSet::new()
        } else {
            ProcSet {
                ranges: vec![(0, m - 1)],
            }
        }
    }

    /// The inclusive range `{lo, …, hi}` (empty when `lo > hi`).
    pub fn range(lo: u64, hi: u64) -> Self {
        if lo > hi {
            ProcSet::new()
        } else {
            ProcSet {
                ranges: vec![(lo, hi)],
            }
        }
    }

    /// Build from arbitrary inclusive ranges (normalizes: sorts, merges
    /// overlapping and adjacent ranges, drops empty ones).
    pub fn from_ranges<I: IntoIterator<Item = (u64, u64)>>(ranges: I) -> Self {
        let mut rs: Vec<(u64, u64)> = ranges.into_iter().filter(|&(lo, hi)| lo <= hi).collect();
        rs.sort_unstable();
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(rs.len());
        for (lo, hi) in rs {
            match out.last_mut() {
                // Merge when overlapping or exactly adjacent.
                Some(last) if lo <= last.1.saturating_add(1) => last.1 = last.1.max(hi),
                _ => out.push((lo, hi)),
            }
        }
        ProcSet { ranges: out }
    }

    /// The sorted disjoint inclusive ranges.
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Number of processors in the set (saturating at `u64::MAX`).
    pub fn size(&self) -> u64 {
        self.ranges
            .iter()
            .map(|&(lo, hi)| (hi - lo + 1) as u128)
            .sum::<u128>()
            .min(u64::MAX as u128) as u64
    }

    /// Is `p` a member?
    pub fn contains(&self, p: u64) -> bool {
        self.ranges
            .binary_search_by(|&(lo, hi)| {
                if p < lo {
                    std::cmp::Ordering::Greater
                } else if p > hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// One single range (or empty)? Contiguous placements are what the
    /// 73/50 solver certifies.
    pub fn is_contiguous(&self) -> bool {
        self.ranges.len() <= 1
    }

    /// Smallest member, if any.
    pub fn min(&self) -> Option<u64> {
        self.ranges.first().map(|&(lo, _)| lo)
    }

    /// Largest member, if any.
    pub fn max(&self) -> Option<u64> {
        self.ranges.last().map(|&(_, hi)| hi)
    }

    /// Set union.
    pub fn union(&self, other: &ProcSet) -> ProcSet {
        ProcSet::from_ranges(self.ranges.iter().chain(other.ranges.iter()).copied())
    }

    /// Set intersection.
    pub fn intersect(&self, other: &ProcSet) -> ProcSet {
        let (mut i, mut j) = (0usize, 0usize);
        let mut out: Vec<(u64, u64)> = Vec::new();
        while i < self.ranges.len() && j < other.ranges.len() {
            let (a_lo, a_hi) = self.ranges[i];
            let (b_lo, b_hi) = other.ranges[j];
            let lo = a_lo.max(b_lo);
            let hi = a_hi.min(b_hi);
            if lo <= hi {
                out.push((lo, hi));
            }
            if a_hi <= b_hi {
                i += 1;
            } else {
                j += 1;
            }
        }
        ProcSet { ranges: out }
    }

    /// Set difference `self \ other`.
    pub fn subtract(&self, other: &ProcSet) -> ProcSet {
        let mut out: Vec<(u64, u64)> = Vec::new();
        let mut j = 0usize;
        for &(lo, hi) in &self.ranges {
            let mut cur = lo;
            while j < other.ranges.len() && other.ranges[j].1 < cur {
                j += 1;
            }
            let mut k = j;
            while k < other.ranges.len() && other.ranges[k].0 <= hi {
                let (b_lo, b_hi) = other.ranges[k];
                if b_lo > cur {
                    out.push((cur, b_lo - 1));
                }
                if b_hi >= hi {
                    cur = hi + 1; // may momentarily pass hi; loop exits
                    break;
                }
                cur = b_hi + 1;
                k += 1;
            }
            if cur <= hi {
                out.push((cur, hi));
            }
        }
        ProcSet { ranges: out }
    }

    /// Does `self` contain every member of `other`?
    pub fn is_superset(&self, other: &ProcSet) -> bool {
        other.subtract(self).is_empty()
    }

    /// Are the two sets disjoint?
    pub fn is_disjoint(&self, other: &ProcSet) -> bool {
        self.intersect(other).is_empty()
    }

    /// Lowest start of a contiguous run of `width` processors fully
    /// inside the set, if one exists. `width = 0` has no meaningful
    /// answer and returns `None`.
    pub fn first_fit(&self, width: u64) -> Option<u64> {
        if width == 0 {
            return None;
        }
        self.ranges
            .iter()
            .find(|&&(lo, hi)| hi - lo + 1 >= width)
            .map(|&(lo, _)| lo)
    }

    /// The lowest `k` processors of the set (fragmented across ranges if
    /// needed), or `None` when the set holds fewer than `k`. `k = 0`
    /// yields the empty set.
    pub fn take_first(&self, k: u64) -> Option<ProcSet> {
        let mut left = k;
        let mut out: Vec<(u64, u64)> = Vec::new();
        for &(lo, hi) in &self.ranges {
            if left == 0 {
                break;
            }
            let len = hi - lo + 1;
            if len >= left {
                out.push((lo, lo + left - 1));
                left = 0;
            } else {
                out.push((lo, hi));
                left -= len;
            }
        }
        if left == 0 {
            Some(ProcSet { ranges: out })
        } else {
            None
        }
    }

    /// The flat allocation rule shared by the lowering and the
    /// simulator: the lowest contiguous run of `width` processors
    /// ([`first_fit`](Self::first_fit)), else the lowest `width` across
    /// ranges ([`take_first`](Self::take_first)). `None` exactly when
    /// the set holds fewer than `width`. The set itself is untouched.
    pub fn take_fit(&self, width: u64) -> Option<ProcSet> {
        match self.first_fit(width) {
            Some(lo) => Some(ProcSet::range(lo, lo + width - 1)),
            None => self.take_first(width),
        }
    }
}

/// Why a [`ProcSet`] string failed to parse — see the
/// [`FromStr`](std::str::FromStr) impl for the grammar.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseProcSetError {
    /// The offending piece of the input.
    piece: String,
}

impl fmt::Display for ParseProcSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid processor set piece `{}`", self.piece)
    }
}

impl std::error::Error for ParseProcSetError {}

impl std::str::FromStr for ProcSet {
    type Err = ParseProcSetError;

    /// Parse the `Display` notation back: comma-separated pieces, each
    /// a single index (`7`) or an inclusive range (`0-3`); `∅` (or the
    /// empty string) is the empty set. Whitespace around pieces is
    /// tolerated; reversed ranges (`5-3`) are rejected rather than
    /// silently dropped so typos in `--topology` specs surface.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() || s == "∅" {
            return Ok(ProcSet::new());
        }
        let err = |piece: &str| ParseProcSetError {
            piece: piece.to_string(),
        };
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for piece in s.split(',') {
            let piece = piece.trim();
            let (lo, hi) = match piece.split_once('-') {
                None => {
                    let p: u64 = piece.parse().map_err(|_| err(piece))?;
                    (p, p)
                }
                Some((lo, hi)) => {
                    let lo: u64 = lo.trim().parse().map_err(|_| err(piece))?;
                    let hi: u64 = hi.trim().parse().map_err(|_| err(piece))?;
                    if lo > hi {
                        return Err(err(piece));
                    }
                    (lo, hi)
                }
            };
            ranges.push((lo, hi));
        }
        Ok(ProcSet::from_ranges(ranges))
    }
}

impl fmt::Display for ProcSet {
    /// The conventional notation: `0-3,7,9-12`; the empty set prints
    /// as `∅`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ranges.is_empty() {
            return write!(f, "∅");
        }
        for (i, &(lo, hi)) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            if lo == hi {
                write!(f, "{lo}")?;
            } else {
                write!(f, "{lo}-{hi}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalizes() {
        let s = ProcSet::from_ranges([(4, 6), (0, 2), (3, 3), (9, 9), (8, 7)]);
        // 0-2, 3, 4-6 merge (adjacent); (8,7) is empty and dropped.
        assert_eq!(s.ranges(), &[(0, 6), (9, 9)]);
        assert_eq!(s.size(), 8);
        assert_eq!(s.to_string(), "0-6,9");
        assert_eq!(ProcSet::new().to_string(), "∅");
        assert_eq!(ProcSet::range(5, 4), ProcSet::new());
        assert_eq!(ProcSet::full(0), ProcSet::new());
        assert_eq!(ProcSet::full(3).ranges(), &[(0, 2)]);
    }

    #[test]
    fn membership_and_bounds() {
        let s = ProcSet::from_ranges([(2, 4), (8, 8)]);
        assert!(s.contains(2) && s.contains(4) && s.contains(8));
        assert!(!s.contains(0) && !s.contains(5) && !s.contains(9));
        assert_eq!(s.min(), Some(2));
        assert_eq!(s.max(), Some(8));
        assert!(!s.is_contiguous());
        assert!(ProcSet::range(3, 7).is_contiguous());
        assert!(ProcSet::new().is_contiguous());
    }

    #[test]
    fn union_intersect_subtract() {
        let a = ProcSet::from_ranges([(0, 4), (10, 14)]);
        let b = ProcSet::from_ranges([(3, 11), (20, 20)]);
        assert_eq!(a.union(&b).ranges(), &[(0, 14), (20, 20)]);
        assert_eq!(a.intersect(&b).ranges(), &[(3, 4), (10, 11)]);
        assert_eq!(a.subtract(&b).ranges(), &[(0, 2), (12, 14)]);
        assert_eq!(b.subtract(&a).ranges(), &[(5, 9), (20, 20)]);
        assert!(a.intersect(&ProcSet::new()).is_empty());
        assert_eq!(a.subtract(&ProcSet::new()), a);
        assert_eq!(a.union(&ProcSet::new()), a);
    }

    #[test]
    fn subtract_splits_interior_holes() {
        let a = ProcSet::range(0, 9);
        let b = ProcSet::from_ranges([(2, 3), (6, 6)]);
        assert_eq!(a.subtract(&b).ranges(), &[(0, 1), (4, 5), (7, 9)]);
        // Round trip: (a \ b) ∪ (a ∩ b) = a.
        assert_eq!(a.subtract(&b).union(&a.intersect(&b)), a);
    }

    #[test]
    fn superset_and_disjoint() {
        let a = ProcSet::from_ranges([(0, 4), (8, 9)]);
        assert!(a.is_superset(&ProcSet::range(1, 3)));
        assert!(a.is_superset(&ProcSet::from_ranges([(0, 0), (9, 9)])));
        assert!(!a.is_superset(&ProcSet::range(3, 5)));
        assert!(a.is_disjoint(&ProcSet::range(5, 7)));
        assert!(!a.is_disjoint(&ProcSet::range(4, 5)));
    }

    #[test]
    fn first_fit_picks_the_lowest_wide_enough_run() {
        let s = ProcSet::from_ranges([(0, 1), (4, 9), (20, 40)]);
        assert_eq!(s.first_fit(1), Some(0));
        assert_eq!(s.first_fit(2), Some(0));
        assert_eq!(s.first_fit(3), Some(4));
        assert_eq!(s.first_fit(6), Some(4));
        assert_eq!(s.first_fit(7), Some(20));
        assert_eq!(s.first_fit(22), None);
        assert_eq!(s.first_fit(0), None);
    }

    #[test]
    fn take_first_fragments_across_ranges() {
        let s = ProcSet::from_ranges([(0, 1), (4, 5), (9, 9)]);
        assert_eq!(s.take_first(0), Some(ProcSet::new()));
        assert_eq!(s.take_first(2), Some(ProcSet::range(0, 1)));
        assert_eq!(
            s.take_first(3),
            Some(ProcSet::from_ranges([(0, 1), (4, 4)]))
        );
        assert_eq!(s.take_first(5), Some(s.clone()));
        assert_eq!(s.take_first(6), None);
        let taken = s.take_first(3).unwrap();
        assert!(s.is_superset(&taken));
        assert_eq!(taken.size(), 3);
    }

    #[test]
    fn take_fit_prefers_one_run_else_the_lowest_ids() {
        // The lowest run that holds the request, not the tightest one.
        let mut free = ProcSet::from_ranges([(2, 3), (6, 9), (12, 13)]);
        assert_eq!(free.take_fit(2), Some(ProcSet::range(2, 3)));
        assert_eq!(free.take_fit(3), Some(ProcSet::range(6, 8)));
        // No run holds 7: the lowest seven ids, across all three runs.
        assert_eq!(
            free.take_fit(7),
            Some(ProcSet::from_ranges([(2, 3), (6, 9), (12, 12)]))
        );
        assert_eq!(free.take_fit(9), None);
        // Taking and giving back coalesces into the original runs.
        let held = free.take_fit(3).unwrap();
        free = free.subtract(&held);
        assert_eq!(free, ProcSet::from_ranges([(2, 3), (9, 9), (12, 13)]));
        free = free.union(&held);
        assert_eq!(free.ranges(), &[(2, 3), (6, 9), (12, 13)]);
    }

    #[test]
    fn from_str_parses_display_notation() {
        let cases: Vec<ProcSet> = vec![
            ProcSet::new(),
            ProcSet::range(0, 0),
            ProcSet::range(0, 3),
            ProcSet::from_ranges([(0, 3), (7, 7), (9, 12)]),
            ProcSet::full(1 << 40),
        ];
        for s in cases {
            assert_eq!(s.to_string().parse::<ProcSet>(), Ok(s.clone()), "{s}");
        }
        // Tolerated inputs that normalize.
        assert_eq!(" 3 , 1-2 ".parse::<ProcSet>(), Ok(ProcSet::range(1, 3)));
        assert_eq!("".parse::<ProcSet>(), Ok(ProcSet::new()));
        assert_eq!("∅".parse::<ProcSet>(), Ok(ProcSet::new()));
        assert_eq!("5,5,5".parse::<ProcSet>(), Ok(ProcSet::range(5, 5)));
    }

    #[test]
    fn from_str_rejects_malformed_pieces() {
        for bad in ["x", "1-", "-1", "1-2-3", "5-3", "1,,2", "1;2", "1.5"] {
            let err = bad.parse::<ProcSet>().unwrap_err();
            assert!(
                err.to_string().contains("invalid processor set piece"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn astronomical_machine_counts_stay_cheap() {
        // m = 2^40: everything is range arithmetic, nothing scales with m.
        let m = 1u64 << 40;
        let full = ProcSet::full(m);
        assert_eq!(full.size(), m);
        let hole = ProcSet::range(7, m - 2);
        let rim = full.subtract(&hole);
        assert_eq!(rim.ranges(), &[(0, 6), (m - 1, m - 1)]);
        assert_eq!(rim.size(), 8);
        assert_eq!(full.first_fit(m), Some(0));
        assert_eq!(hole.first_fit(m), None);
        assert_eq!(full.take_fit(m / 2), Some(ProcSet::range(0, m / 2 - 1)));
        assert_eq!(rim.take_fit(8), Some(rim.clone()));
    }
}
