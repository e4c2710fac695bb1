//! Scheduling instances: a set of jobs plus a machine count.

use crate::hash::StableHasher;
use crate::job::Job;
use crate::speedup::SpeedupCurve;
use crate::types::{JobId, Procs, Time};

/// An instance of the moldable-job scheduling problem.
#[derive(Clone, Debug)]
pub struct Instance {
    jobs: Vec<Job>,
    m: Procs,
}

impl Instance {
    /// Build an instance from speedup curves; job ids are assigned 0..n.
    ///
    /// Panics if `m == 0` or there are more than `u32::MAX` jobs.
    pub fn new(curves: Vec<SpeedupCurve>, m: Procs) -> Self {
        assert!(m >= 1, "need at least one machine");
        assert!(curves.len() <= u32::MAX as usize);
        let jobs = curves
            .into_iter()
            .enumerate()
            .map(|(i, c)| Job::new(i as JobId, c))
            .collect();
        Instance { jobs, m }
    }

    /// Build directly from jobs (ids must equal positions).
    pub fn from_jobs(jobs: Vec<Job>, m: Procs) -> Self {
        assert!(m >= 1, "need at least one machine");
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id() as usize, i, "job ids must equal their positions");
        }
        Instance { jobs, m }
    }

    /// Number of jobs `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.jobs.len()
    }

    /// Number of machines `m`.
    #[inline]
    pub fn m(&self) -> Procs {
        self.m
    }

    /// All jobs.
    #[inline]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Job by id.
    #[inline]
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id as usize]
    }

    /// `t_j(p)` convenience accessor.
    #[inline]
    pub fn time(&self, id: JobId, p: Procs) -> Time {
        self.jobs[id as usize].time(p)
    }

    /// Largest sequential time, `max_j t_j(1)` — a crude upper bound anchor.
    pub fn max_seq_time(&self) -> Time {
        self.jobs.iter().map(|j| j.seq_time()).max().unwrap_or(0)
    }

    /// Sum of sequential times — makespan of the trivial one-machine schedule,
    /// an upper bound on OPT.
    pub fn total_seq_time(&self) -> u128 {
        self.jobs.iter().map(|j| j.seq_time() as u128).sum()
    }

    /// A stable 128-bit digest of the instance's *semantics on `[1, m]`*:
    /// equal digests guarantee `t_j(p)` agrees for every job and every
    /// `p ≤ m`, the bar any cache keyed on it must meet, since solvers
    /// evaluate `inst.time` at arbitrary allotments.
    ///
    /// The service no longer keys a cache on it (its one response cache
    /// keys exact request bytes); the benchmark's traced `svc-cold`
    /// replay (`perfbench/`) still times it as the `core.canonical_hash`
    /// stage.
    ///
    /// Each curve is normalized exactly as far as faithfulness allows:
    /// constants, staircases, and *non-increasing* tables all reduce to
    /// the same canonical staircase (strictly-decreasing breakpoints,
    /// truncated at `m`), so `{"table": [9,5,5]}` and
    /// `{"staircase": [[1,9],[2,5]]}` hash equal. A
    /// non-monotone table is **not** front-reducible (its between-
    /// breakpoint times differ from the front's), so it hashes raw —
    /// truncated at `m` and stripped of trailing repeats, which is the
    /// part of normalization that stays sound. Closed-form families
    /// (`affine_decreasing`, `ideal_with_overhead`) hash by parameters
    /// with `cap`/extent clamped to `m`. Returns `None` for
    /// [`SpeedupCurve::Custom`] oracles: arbitrary code has no finite
    /// canonical form.
    pub fn canonical_hash(&self) -> Option<u128> {
        let mut h = StableHasher::new();
        h.write_u64(self.m);
        h.write_u64(self.n() as u64);
        for job in &self.jobs {
            match job.curve() {
                SpeedupCurve::Constant(t) => {
                    hash_front(&mut h, [(1, *t)].iter().copied());
                }
                SpeedupCurve::Staircase(s) => {
                    hash_front(
                        &mut h,
                        s.steps().iter().copied().take_while(|&(p, _)| p <= self.m),
                    );
                }
                SpeedupCurve::Table(tbl) => {
                    let upto = tbl.len().min(self.m as usize);
                    let eff = &tbl[..upto];
                    if eff.windows(2).all(|w| w[1] <= w[0]) {
                        // Faithful: flat between breakpoints, so the
                        // strict-decrease front determines t(p) everywhere.
                        hash_front(
                            &mut h,
                            eff.iter().enumerate().filter_map(|(i, &t)| {
                                (i == 0 || t < eff[i - 1]).then_some((i as Procs + 1, t))
                            }),
                        );
                    } else {
                        // Non-monotone: hash the raw profile (trailing
                        // repeats clamp anyway, so strip them).
                        let mut len = eff.len();
                        while len > 1 && eff[len - 1] == eff[len - 2] {
                            len -= 1;
                        }
                        h.write_u64(1); // raw-table tag
                        h.write_u64(len as u64);
                        for &t in &eff[..len] {
                            h.write_u64(t);
                        }
                    }
                }
                SpeedupCurve::AffineDecreasing { base } => {
                    h.write_u64(2);
                    h.write_u64(*base);
                }
                SpeedupCurve::IdealWithOverhead { t1, c, cap } => {
                    h.write_u64(3);
                    h.write_u64(*t1);
                    h.write_u64(*c);
                    h.write_u64((*cap).min(self.m));
                }
                SpeedupCurve::Custom(_) => return None,
            }
        }
        Some(h.finish())
    }
}

/// Fold a canonical staircase (tag 0) into the instance digest.
fn hash_front(h: &mut StableHasher, steps: impl Iterator<Item = (Procs, Time)>) {
    h.write_u64(0);
    let mut count = 0u64;
    let mut body = StableHasher::new();
    for (p, t) in steps {
        body.write_u64(p);
        body.write_u64(t);
        count += 1;
    }
    h.write_u64(count);
    h.write_u128(body.finish());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_indexes() {
        let inst = Instance::new(
            vec![SpeedupCurve::Constant(3), SpeedupCurve::Constant(8)],
            4,
        );
        assert_eq!(inst.n(), 2);
        assert_eq!(inst.m(), 4);
        assert_eq!(inst.time(1, 2), 8);
        assert_eq!(inst.max_seq_time(), 8);
        assert_eq!(inst.total_seq_time(), 11);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn rejects_zero_machines() {
        let _ = Instance::new(vec![], 0);
    }

    #[test]
    #[should_panic(expected = "positions")]
    fn rejects_misnumbered_jobs() {
        let j = Job::new(5, SpeedupCurve::Constant(1));
        let _ = Instance::from_jobs(vec![j], 1);
    }

    #[test]
    fn canonical_hash_unifies_equivalent_encodings() {
        use crate::speedup::Staircase;
        use std::sync::Arc;
        let m = 8;
        let stair = |steps: Vec<(Procs, Time)>| {
            SpeedupCurve::Staircase(Arc::new(Staircase::new(steps).unwrap()))
        };
        let key =
            |curve: SpeedupCurve, m| Instance::new(vec![curve], m).canonical_hash().unwrap();
        // table ≡ staircase ≡ trailing-clamped table when monotone.
        let front = key(stair(vec![(1, 10), (2, 6), (4, 5)]), m);
        assert_eq!(
            key(
                SpeedupCurve::Table(Arc::new(vec![10, 6, 6, 5, 5, 5, 5, 5])),
                m
            ),
            front
        );
        assert_eq!(
            key(SpeedupCurve::Table(Arc::new(vec![10, 6, 6, 5])), m),
            front
        );
        // constant ≡ one-entry table ≡ one-step staircase.
        assert_eq!(
            key(SpeedupCurve::Constant(7), m),
            key(SpeedupCurve::Table(Arc::new(vec![7])), m)
        );
        assert_eq!(
            key(SpeedupCurve::Constant(7), m),
            key(stair(vec![(1, 7)]), m)
        );
        // Breakpoints beyond m are invisible.
        assert_eq!(
            key(stair(vec![(1, 10), (2, 6)]), 3),
            key(stair(vec![(1, 10), (2, 6), (4, 5)]), 3)
        );
        // Any semantic difference on [1, m] changes the key.
        assert_ne!(key(stair(vec![(1, 10), (2, 6), (3, 5)]), m), front);
        assert_ne!(key(stair(vec![(1, 10), (2, 6), (4, 5)]), m + 1), front);
    }

    #[test]
    fn canonical_hash_keeps_non_monotone_tables_apart() {
        use std::sync::Arc;
        let key = |tbl: Vec<Time>, m| {
            Instance::new(vec![SpeedupCurve::Table(Arc::new(tbl))], m)
                .canonical_hash()
                .unwrap()
        };
        // Same strict-decrease front (1,10),(3,5), different t(2): the
        // unsound reduction a view-row hash would make. Must differ.
        assert_ne!(key(vec![10, 12, 5], 3), key(vec![10, 11, 5], 3));
        // Trailing clamp is still canonicalized for raw tables…
        assert_eq!(key(vec![10, 12, 5], 5), key(vec![10, 12, 5, 5, 5], 5));
        // …and truncation at m hides the non-monotone tail entirely.
        assert_eq!(key(vec![10, 6, 12], 2), key(vec![10, 6], 2));
    }

    #[test]
    fn canonical_hash_params_and_custom() {
        use std::sync::Arc;
        let m = 1 << 9;
        let mk = || {
            Instance::new(
                vec![SpeedupCurve::ideal_with_overhead(1 << 16, 2, 1 << 9)],
                m,
            )
        };
        assert_eq!(mk().canonical_hash(), mk().canonical_hash());
        // cap clamps at m: a larger declared cap is the same curve.
        let a = Instance::new(
            vec![SpeedupCurve::IdealWithOverhead {
                t1: 100,
                c: 1,
                cap: m,
            }],
            m,
        );
        let b = Instance::new(
            vec![SpeedupCurve::IdealWithOverhead {
                t1: 100,
                c: 1,
                cap: 4 * m,
            }],
            m,
        );
        assert_eq!(a.canonical_hash(), b.canonical_hash());

        #[derive(Debug)]
        struct Oracle;
        impl crate::speedup::SpeedupModel for Oracle {
            fn time(&self, _p: Procs) -> Time {
                1
            }
        }
        let inst = Instance::new(vec![SpeedupCurve::Custom(Arc::new(Oracle))], 4);
        assert_eq!(inst.canonical_hash(), None);
    }
}
