//! The transformation rules (i)–(iii) of Section 4.1.1 (Lemmas 7 & 8):
//! turn an (infeasible) two-shelf schedule into a feasible three-shelf
//! schedule by moving jobs into a new shelf S0 that runs concurrently with
//! S1 and S2 for the whole horizon.
//!
//! * **(i)** a job in S1 with processing time ≤ ¾d and more than one
//!   processor moves to S0 on one processor fewer (work monotonicity bounds
//!   the new time by twice the old, hence ≤ 3d/2);
//! * **(ii)** two one-processor jobs in S1 with times ≤ ¾d stack on a single
//!   S0 processor; a single leftover may stack on top of a one-processor job
//!   with time > ¾d when the pair fits in 3d/2 (the *special case*, selected
//!   through a min-heap);
//! * **(iii)** a job in S2 that fits within 3d/2 on the `q` currently free
//!   processors is re-allotted `γ_j(3d/2)` processors and moves to S0 (time
//!   > d) or S1 (time ≤ d), where rules (i)/(ii) apply to it again.
//!
//! The module supports two selection disciplines:
//! [`TransformMode::Exact`] uses exact processing times and a binary heap —
//! the `O(n log n)` variant of Sections 4.1/4.2 — while
//! [`TransformMode::Bucketed`] keys jobs by geometrically rounded times in
//! `O(1/δ)` buckets (Section 4.3.3), trading a `(1+4ρ)` horizon stretch for
//! linear time.
//!
//! The bucket grid `geom(d/4, 3d/2, 1+4ρ)` is a [`FixedGrid`]: every value
//! after `d/4` is an integer over `2^48`, so a job's bucket is an integer
//! search, the number of keys `≤ ¾d` and the rule-(ii) pair limits are
//! read off the numerators once per call, and no key is an exact rational
//! except on the below-grid path of the special case.

use moldable_core::geom::{fixed_floor, FixedGrid};
use moldable_core::ratio::Ratio;
use moldable_core::types::{JobId, Procs, Time};
use moldable_core::view::JobView;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A job sitting in a shelf with its current allotment.
#[derive(Clone, Copy, Debug)]
pub struct ShelfJob {
    /// The job.
    pub id: JobId,
    /// Current allotment.
    pub procs: Procs,
    /// `t_j(procs)`.
    pub time: Time,
}

/// A column of shelf S0: `width` processors running its jobs back to
/// back. The rules only ever stack one or two jobs per column, so the
/// jobs live inline (no per-column heap allocation — S0 can hold tens of
/// thousands of columns on large instances).
#[derive(Clone, Debug)]
pub struct S0Column {
    /// Processors used by every job in this column.
    pub width: Procs,
    buf: [ShelfJob; 2],
    len: u8,
}

impl S0Column {
    /// A column holding one job.
    pub fn single(width: Procs, job: ShelfJob) -> Self {
        S0Column {
            width,
            buf: [job, job],
            len: 1,
        }
    }

    /// A column stacking `top` on `bottom`.
    pub fn pair(width: Procs, bottom: ShelfJob, top: ShelfJob) -> Self {
        S0Column {
            width,
            buf: [bottom, top],
            len: 2,
        }
    }

    /// Stacked jobs, bottom first.
    pub fn jobs(&self) -> &[ShelfJob] {
        &self.buf[..self.len as usize]
    }

    /// Total height (sum of stacked processing times).
    pub fn height(&self) -> Time {
        self.jobs().iter().map(|j| j.time).sum()
    }
}

/// The result: a three-shelf schedule skeleton.
#[derive(Clone, Debug)]
pub struct ThreeShelf {
    /// Columns running for the whole horizon next to S1/S2.
    pub s0: Vec<S0Column>,
    /// Jobs of shelf S1 (start at 0).
    pub s1: Vec<ShelfJob>,
    /// Jobs of shelf S2 (finish at the horizon).
    pub s2: Vec<ShelfJob>,
    /// The horizon: `3d/2` in exact mode, `(1+4ρ)·3d/2` in bucketed mode.
    pub horizon: Ratio,
}

impl ThreeShelf {
    /// Processors used by S0.
    pub fn p0(&self) -> u128 {
        self.s0.iter().map(|c| c.width as u128).sum()
    }
    /// Processors used by S1.
    pub fn p1(&self) -> u128 {
        self.s1.iter().map(|j| j.procs as u128).sum()
    }
    /// Processors used by S2.
    pub fn p2(&self) -> u128 {
        self.s2.iter().map(|j| j.procs as u128).sum()
    }
}

/// Selection discipline for the rules.
#[derive(Clone, Debug)]
pub enum TransformMode {
    /// Exact times, binary heap (`O(n log n)` — Sections 4.1/4.2).
    Exact,
    /// Times rounded down onto a geometric grid with factor `1+4ρ`
    /// (`O(n/δ)` — Section 4.3.3). The horizon stretches by `1+4ρ`.
    Bucketed {
        /// The rounding factor `1+4ρ` (must be > 1).
        stretch: Ratio,
    },
}

/// Bucketed mode's keys: the grid `geom(d/4, 3d/2, 1+4ρ)` and the rule
/// thresholds read off it.
struct BucketKeys {
    grid: FixedGrid,
    /// Number of grid values `≤ ¾d`.
    k34: usize,
    /// `pair_limit[k]` is the number of grid values `g'` with
    /// `grid[k] + g' ≤ 3d/2` — the rule-(ii) special-case check as one
    /// index comparison.
    pair_limit: Vec<usize>,
}

impl BucketKeys {
    /// Keys at target `d` with rounding factor `stretch`.
    fn new(d: &Ratio, stretch: &Ratio) -> Self {
        let three_halves_d = d.mul(&Ratio::new(3, 2));
        // Covers every key we can see: (0, 3d/2].
        let grid = FixedGrid::new(&d.div_int(4), &three_halves_d, stretch);
        let k34 = grid.count_le(&d.mul(&Ratio::new(3, 4)));
        // Values after d/4 pair when their numerators sum to at most
        // ⌊(3d/2)·2^48⌋. With d/4 (not dyadic) a value pairs iff it is at
        // most 3d/2 − d/4 = 5d/4; the pairs of any value form a prefix
        // of the grid, found by a two-pointer pass over the numerators.
        let five_quarters_d = d.mul(&Ratio::new(5, 4));
        let (pair_sum, pairs_lo) =
            (fixed_floor(&three_halves_d), fixed_floor(&five_quarters_d));
        let nums = grid.numerators();
        let mut pair_limit = Vec::with_capacity(grid.len());
        pair_limit.push(grid.count_le(&five_quarters_d));
        let mut limit = nums.len();
        for &n in nums {
            while limit > 0 && n + nums[limit - 1] > pair_sum {
                limit -= 1;
            }
            pair_limit.push(usize::from(n <= pairs_lo) + limit);
        }
        BucketKeys {
            grid,
            k34,
            pair_limit,
        }
    }
}

/// Candidate pool of one-processor, long (time > ¾d) S1 jobs for the
/// special case of rule (ii): retrieve the one with the smallest (keyed)
/// processing time.
enum LongSingles {
    Exact(BinaryHeap<Reverse<(Time, JobId)>>),
    /// `buckets[k]` holds jobs whose time rounds down to `keys.grid[k]`.
    Bucketed {
        keys: BucketKeys,
        buckets: Vec<Vec<(Time, JobId)>>,
        min_nonempty: usize,
    },
}

impl LongSingles {
    fn push(&mut self, time: Time, id: JobId) {
        match self {
            LongSingles::Exact(h) => h.push(Reverse((time, id))),
            LongSingles::Bucketed {
                keys,
                buckets,
                min_nonempty,
            } => {
                let k = keys.grid.count_le_int(time).saturating_sub(1);
                buckets[k].push((time, id));
                *min_nonempty = (*min_nonempty).min(k);
            }
        }
    }

    /// Smallest-keyed candidate, if any (removing it).
    fn pop_min(&mut self) -> Option<(Time, JobId)> {
        match self {
            LongSingles::Exact(h) => h.pop().map(|Reverse(x)| x),
            LongSingles::Bucketed {
                buckets,
                min_nonempty,
                ..
            } => {
                while *min_nonempty < buckets.len() {
                    if let Some(x) = buckets[*min_nonempty].pop() {
                        return Some(x);
                    }
                    *min_nonempty += 1;
                }
                None
            }
        }
    }

    fn drain_to(&mut self, out: &mut Vec<ShelfJob>) {
        while let Some((time, id)) = self.pop_min() {
            out.push(ShelfJob { id, procs: 1, time });
        }
    }
}

/// State machine applying the rules exhaustively.
struct Transformer<'a> {
    view: &'a JobView,
    three_halves_d: Ratio,
    /// Integer thresholds: job times are integers, so `t ≤ x` for
    /// rational `x` reduces to `t ≤ ⌊x⌋` and `t > x` to `t > ⌊x⌋` —
    /// the rule conditions run on plain `u64` comparisons.
    d_floor: Time,
    three_quarters_floor: Time,
    three_halves_floor: Time,
    s0: Vec<S0Column>,
    /// S1 jobs that are definitely staying (multi-proc long jobs).
    s1_rest: Vec<ShelfJob>,
    long_singles: LongSingles,
    /// The unpaired rule-(ii) candidate, if any.
    narrow_pending: Option<ShelfJob>,
    p0: u128,
    p1: u128,
}

impl<'a> Transformer<'a> {
    /// Is the (keyed) time at most `¾d`? Exact mode compares the integer
    /// time against `⌊¾d⌋`; bucketed mode compares the *bucket index*
    /// against `k34` (the number of grid values `≤ ¾d`, computed exactly
    /// once up front) — no rational arithmetic on the per-job path.
    fn keyed_le_three_quarters(&self, t: Time) -> bool {
        match &self.long_singles {
            LongSingles::Exact(_) => t <= self.three_quarters_floor,
            LongSingles::Bucketed { keys, .. } => match keys.grid.count_le_int(t) {
                // Below the grid: key is the raw integer time.
                0 => t <= self.three_quarters_floor,
                k => k <= keys.k34,
            },
        }
    }

    fn move_to_s0(&mut self, column: S0Column, freed_from_s1: u128) {
        self.p0 += column.width as u128;
        self.p1 -= freed_from_s1;
        self.s0.push(column);
    }

    /// Classify an S1 job and apply rules (i)/(ii) to it. The job's `procs`
    /// are already counted in `p1`.
    fn process_s1_job(&mut self, job: ShelfJob) {
        if self.keyed_le_three_quarters(job.time) {
            if job.procs > 1 {
                // Rule (i): one processor fewer, time at most doubles.
                let new_procs = job.procs - 1;
                let new_time = self.view.time(job.id, new_procs);
                self.move_to_s0(
                    S0Column::single(
                        new_procs,
                        ShelfJob {
                            id: job.id,
                            procs: new_procs,
                            time: new_time,
                        },
                    ),
                    job.procs as u128,
                );
            } else if let Some(partner) = self.narrow_pending.take() {
                // Rule (ii): stack the two narrow singles.
                self.move_to_s0(S0Column::pair(1, partner, job), 2);
            } else {
                self.narrow_pending = Some(job);
            }
        } else if job.procs == 1 {
            self.long_singles.push(job.time, job.id);
        } else {
            self.s1_rest.push(job);
        }
    }

    /// Rule (ii) special case: try to stack the pending narrow single on top
    /// of the shortest long single.
    fn try_special_pairing(&mut self) {
        let Some(narrow) = self.narrow_pending else {
            return;
        };
        let Some((t_long, id_long)) = self.long_singles.pop_min() else {
            return;
        };
        let fits = match &self.long_singles {
            // Integer times: sum ≤ 3d/2 ⇔ sum ≤ ⌊3d/2⌋.
            LongSingles::Exact(_) => {
                narrow.time as u128 + t_long as u128 <= self.three_halves_floor as u128
            }
            LongSingles::Bucketed { keys, .. } => {
                let (kn, kl) = (
                    keys.grid.count_le_int(narrow.time),
                    keys.grid.count_le_int(t_long),
                );
                if kn == 0 || kl == 0 {
                    // A below-grid key is the raw time (no big job's time
                    // is below d/4); compare exactly.
                    let key = |k: usize, t: Time| match k {
                        0 => Ratio::from(t),
                        _ => keys.grid.value(k - 1),
                    };
                    key(kn, narrow.time).add(&key(kl, t_long)) <= self.three_halves_d
                } else {
                    kl <= keys.pair_limit[kn - 1]
                }
            }
        };
        if fits {
            self.narrow_pending = None;
            let bottom = ShelfJob {
                id: id_long,
                procs: 1,
                time: t_long,
            };
            self.move_to_s0(S0Column::pair(1, bottom, narrow), 2);
        } else {
            // The shortest candidate fails ⇒ every candidate fails.
            self.long_singles.push(t_long, id_long);
        }
    }
}

/// Apply the transformation rules exhaustively (Lemma 7's procedure).
///
/// `s1`/`s2` are the two shelves with their allotments at target `d`
/// (the stretched `d′`); the result's invariants (`p0+p1 ≤ m`,
/// `p0+p2 ≤ m` — Lemma 8) are *not* checked here; callers verify and
/// reject.
pub fn transform(
    view: &JobView,
    d: &Ratio,
    s1: Vec<ShelfJob>,
    s2: Vec<ShelfJob>,
    mode: TransformMode,
) -> ThreeShelf {
    let three_quarters_d = d.mul(&Ratio::new(3, 4));
    let three_halves_d = d.mul(&Ratio::new(3, 2));
    let horizon = match &mode {
        TransformMode::Exact => three_halves_d,
        TransformMode::Bucketed { stretch } => three_halves_d.mul(stretch),
    };
    let long_singles = match &mode {
        TransformMode::Exact => LongSingles::Exact(BinaryHeap::new()),
        TransformMode::Bucketed { stretch } => {
            let keys = BucketKeys::new(d, stretch);
            let len = keys.grid.len();
            LongSingles::Bucketed {
                keys,
                buckets: vec![Vec::new(); len],
                min_nonempty: len,
            }
        }
    };
    let p1_init: u128 = s1.iter().map(|j| j.procs as u128).sum();
    let mut tr = Transformer {
        view,
        three_halves_d,
        d_floor: d.floor() as Time,
        three_quarters_floor: three_quarters_d.floor() as Time,
        three_halves_floor: three_halves_d.floor() as Time,
        s0: Vec::new(),
        s1_rest: Vec::new(),
        long_singles,
        narrow_pending: None,
        p0: 0,
        p1: p1_init,
    };

    // Phase 1: scan S1.
    for job in s1 {
        tr.process_s1_job(job);
    }
    tr.try_special_pairing();

    // Phase 2: scan S2 (rule iii). q only shrinks, and t_j(q) grows as q
    // shrinks, so one pass is exhaustive.
    let m = view.m() as u128;
    let mut s2_rest: Vec<ShelfJob> = Vec::new();
    for job in s2 {
        let q = m.saturating_sub(tr.p0 + tr.p1);
        // Integer times: `t ≤ 3d/2 ⇔ t ≤ ⌊3d/2⌋` and `γ(3d/2) = γ(⌊3d/2⌋)`.
        let fits = q >= 1
            && q <= view.m() as u128
            && view.time(job.id, q as Procs) <= tr.three_halves_floor;
        if !fits {
            s2_rest.push(job);
            continue;
        }
        let p = view
            .gamma_int(job.id, tr.three_halves_floor)
            .expect("t_j(q) ≤ 3d/2 implies γ_j(3d/2) exists");
        debug_assert!(p as u128 <= q, "γ_j(3d/2) must fit in the free processors");
        let t = view.time(job.id, p);
        if t > tr.d_floor {
            // Straight to S0.
            tr.move_to_s0(
                S0Column::single(
                    p,
                    ShelfJob {
                        id: job.id,
                        procs: p,
                        time: t,
                    },
                ),
                0,
            );
        } else {
            // To S1, where rules (i)/(ii) may strike again.
            tr.p1 += p as u128;
            tr.process_s1_job(ShelfJob {
                id: job.id,
                procs: p,
                time: t,
            });
            tr.try_special_pairing();
        }
    }

    // Collect what stayed in S1.
    let mut s1_out = std::mem::take(&mut tr.s1_rest);
    tr.long_singles.drain_to(&mut s1_out);
    if let Some(j) = tr.narrow_pending.take() {
        s1_out.push(j);
    }
    ThreeShelf {
        s0: tr.s0,
        s1: s1_out,
        s2: s2_rest,
        horizon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_core::instance::Instance;
    use moldable_core::speedup::SpeedupCurve;
    use moldable_core::view::JobView;
    use std::sync::Arc;

    fn sj(id: JobId, procs: Procs, time: Time) -> ShelfJob {
        ShelfJob { id, procs, time }
    }

    #[test]
    fn rule_i_moves_wide_short_jobs() {
        // Job 0: t(2) = 6 ≤ ¾·10, t(1) = 12 ≤ 15 → S0 column of width 1.
        let inst = Instance::new(vec![SpeedupCurve::Table(Arc::new(vec![12, 6]))], 4);
        let d = Ratio::from(10u64);
        let out = transform(
            &JobView::build(&inst),
            &d,
            vec![sj(0, 2, 6)],
            vec![],
            TransformMode::Exact,
        );
        assert_eq!(out.s0.len(), 1);
        assert_eq!(out.s0[0].width, 1);
        assert_eq!(out.s0[0].jobs()[0].time, 12);
        assert!(out.s1.is_empty());
        assert!(Ratio::from(out.s0[0].height()) <= out.horizon);
    }

    #[test]
    fn rule_ii_pairs_narrow_singles() {
        let inst = Instance::new(
            vec![SpeedupCurve::Constant(7), SpeedupCurve::Constant(6)],
            4,
        );
        let d = Ratio::from(10u64); // ¾d = 7.5 ≥ both
        let out = transform(
            &JobView::build(&inst),
            &d,
            vec![sj(0, 1, 7), sj(1, 1, 6)],
            vec![],
            TransformMode::Exact,
        );
        assert_eq!(out.s0.len(), 1);
        assert_eq!(out.s0[0].width, 1);
        assert_eq!(out.s0[0].jobs().len(), 2);
        assert_eq!(out.s0[0].height(), 13);
        assert!(out.s1.is_empty());
    }

    #[test]
    fn rule_ii_special_case_stacks_on_long_single() {
        // One narrow single (6 ≤ 7.5) + one long single (8 > 7.5);
        // 6 + 8 = 14 ≤ 15 → stacked column, S1 empty.
        let inst = Instance::new(
            vec![SpeedupCurve::Constant(6), SpeedupCurve::Constant(8)],
            4,
        );
        let d = Ratio::from(10u64);
        let out = transform(
            &JobView::build(&inst),
            &d,
            vec![sj(0, 1, 6), sj(1, 1, 8)],
            vec![],
            TransformMode::Exact,
        );
        assert_eq!(out.s0.len(), 1);
        assert_eq!(out.s0[0].jobs()[0].id, 1, "long job at the bottom");
        assert_eq!(out.s0[0].jobs()[1].id, 0);
        assert!(out.s1.is_empty());
    }

    #[test]
    fn special_case_picks_shortest_long_single() {
        // Narrow 7; long singles 9 and 8; 7+8 = 15 ≤ 15 works but 7+9 = 16
        // does not — the heap must pick 8.
        let inst = Instance::new(
            vec![
                SpeedupCurve::Constant(7),
                SpeedupCurve::Constant(9),
                SpeedupCurve::Constant(8),
            ],
            4,
        );
        let d = Ratio::from(10u64);
        let out = transform(
            &JobView::build(&inst),
            &d,
            vec![sj(0, 1, 7), sj(1, 1, 9), sj(2, 1, 8)],
            vec![],
            TransformMode::Exact,
        );
        assert_eq!(out.s0.len(), 1);
        assert_eq!(out.s0[0].jobs()[0].id, 2);
        assert_eq!(out.s1.len(), 1);
        assert_eq!(out.s1[0].id, 1);
    }

    #[test]
    fn rule_iii_pulls_s2_job_when_processors_free() {
        // S2 job: t = [14, 9, 5]; q = m = 4 free, t(4) = 5 ≤ 15 → p =
        // γ(15) = 1 (t(1) = 14 ≤ 15), time 14 > d = 10 → S0 single.
        let inst = Instance::new(vec![SpeedupCurve::Table(Arc::new(vec![14, 9, 5]))], 4);
        let d = Ratio::from(10u64);
        let out = transform(
            &JobView::build(&inst),
            &d,
            vec![],
            vec![sj(0, 3, 5)],
            TransformMode::Exact,
        );
        assert_eq!(out.s0.len(), 1);
        assert_eq!(out.s0[0].width, 1);
        assert!(out.s2.is_empty());
    }

    #[test]
    fn rule_iii_respects_free_processor_budget() {
        // No free processors: a fat S1 job occupies everything; S2 stays.
        let inst = Instance::new(
            vec![
                SpeedupCurve::Constant(9),
                SpeedupCurve::Table(Arc::new(vec![14, 9, 5])),
            ],
            2,
        );
        let d = Ratio::from(10u64);
        let out = transform(
            &JobView::build(&inst),
            &d,
            vec![sj(0, 2, 9)], // 9 > ¾d = 7.5, wide → stays in S1
            vec![sj(1, 2, 5)],
            TransformMode::Exact,
        );
        assert_eq!(out.s1.len(), 1);
        assert_eq!(out.s2.len(), 1);
        assert!(out.s0.is_empty());
    }

    /// `BucketKeys` against the definitions on the grid's own values:
    /// `k34` counts values `≤ ¾d`, `pair_limit[k]` the values `g'` with
    /// `grid[k] + g' ≤ 3d/2` (exact rational sums). `d = 8` with `x = 2`
    /// puts two grid values exactly on `3d/2` (4 + 8), and with `x = 5` a
    /// value exactly on `5d/4` (10, paired with `d/4 = 2`).
    #[test]
    fn bucket_keys_match_exact_rational_sums() {
        let mut cases = vec![
            (Ratio::from(8u64), Ratio::from(2u64)),
            (Ratio::from(24u64), Ratio::from(2u64)),
            (Ratio::from(8u64), Ratio::from(5u64)),
            (Ratio::from(8u64), Ratio::new(3, 2)),
        ];
        // Stretched targets d′ = (1+δ)²d at ε = 1/4 and 1/16.
        for (delta, x) in [
            (Ratio::new(1, 20), Ratio::new(61, 60)),
            (Ratio::new(1, 80), Ratio::new(241, 240)),
        ] {
            for d in [1u64, 2, 7, 1000, 123_456_789, 1 << 62] {
                let d_prime = delta
                    .one_plus()
                    .mul(&delta.one_plus())
                    .mul_int(u128::from(d));
                cases.push((d_prime, x));
            }
        }
        for (d, x) in cases {
            let keys = BucketKeys::new(&d, &x);
            let grid: Vec<Ratio> = (0..keys.grid.len()).map(|k| keys.grid.value(k)).collect();
            let three_quarters_d = d.mul(&Ratio::new(3, 4));
            let three_halves_d = d.mul(&Ratio::new(3, 2));
            assert_eq!(
                keys.k34,
                grid.iter().filter(|g| **g <= three_quarters_d).count()
            );
            for (k, g) in grid.iter().enumerate() {
                let pairs = grid.iter().filter(|h| g.add(h) <= three_halves_d).count();
                assert_eq!(keys.pair_limit[k], pairs, "d = {d}, x = {x}, k = {k}");
                for t in [g.ceil() - 1, g.ceil()] {
                    let below = grid.iter().filter(|h| **h <= Ratio::from_int(t)).count();
                    assert_eq!(
                        keys.grid.count_le_int(t as Time),
                        below,
                        "d = {d}, x = {x}, t = {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn bucketed_mode_stretches_horizon() {
        let inst = Instance::new(
            vec![SpeedupCurve::Constant(7), SpeedupCurve::Constant(6)],
            4,
        );
        let d = Ratio::from(10u64);
        let stretch = Ratio::new(11, 10);
        let out = transform(
            &JobView::build(&inst),
            &d,
            vec![sj(0, 1, 7), sj(1, 1, 6)],
            vec![],
            TransformMode::Bucketed { stretch },
        );
        assert_eq!(out.horizon, Ratio::from(15u64).mul(&stretch));
        // Pairing still happens (keys underestimate).
        assert_eq!(out.s0.len(), 1);
        // All column heights within the stretched horizon.
        for c in &out.s0 {
            assert!(Ratio::from(c.height()) <= out.horizon);
        }
    }
}
