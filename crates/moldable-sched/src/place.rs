//! Lowering an allotment schedule onto concrete processors.
//!
//! The paper's algorithms emit `job → (start, processor count)`; this
//! pass assigns each job an actual [`ProcSet`] by an event sweep over
//! the claims in start order — an instantaneous free set plus a
//! min-heap of running jobs, one union per job end and one subtract
//! per job start. Jobs are placed in start order under a
//! [`PlacementPolicy`]: the flat [`Contiguous`] strategy takes the
//! lowest contiguous run and falls back to the lowest free indices
//! ([`ProcSet::take_fit`]); [`Packed`] first
//! tries to fit the whole job inside one block of a [`Topology`] level,
//! and [`Spread`] splits it round-robin across the level's blocks. Both
//! hierarchical strategies fall back to the flat one, so the pass stays
//! **total for demand-feasible schedules**: placing in start order,
//! every already-placed job overlapping `[start, end)` is already
//! running at `start`, so the free set over the window equals the free
//! set at the start instant — whose size is at least the job's
//! allotment whenever demand never exceeds `m`. An overcommitted
//! schedule instead surfaces as [`PlacementError::Overlap`] naming the
//! window and the placements crowding it out.
//!
//! [`Contiguous`]: PlacementPolicy::Contiguous
//! [`Packed`]: PlacementPolicy::Packed
//! [`Spread`]: PlacementPolicy::Spread

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use moldable_core::hierarchy::Topology;
use moldable_core::placement::{
    Placement, PlacementError, PlacementOverlap, OVERLAP_WITNESSES,
};
use moldable_core::procset::ProcSet;
use moldable_core::ratio::Ratio;
use moldable_core::view::JobView;

use crate::policy::PlacementPolicy;
use crate::schedule::Schedule;

/// Lower `schedule` onto the flat machine park — the PR 6 entry point,
/// now a thin wrapper over [`place_with`] with the one-level topology
/// and the [`PlacementPolicy::Contiguous`] strategy. Byte-for-byte the
/// same placements as before the hierarchy existed.
pub fn place_contiguous(
    view: &JobView,
    schedule: &Schedule,
) -> Result<Placement, PlacementError> {
    place_with(
        view,
        schedule,
        &Topology::flat(view.m()),
        &PlacementPolicy::Contiguous,
    )
}

/// Lower `schedule` onto concrete processors of `topology` (which must
/// cover the `view`'s machine park: `topology.m() == view.m()`) under
/// `policy`. Returns one placed row per assignment, pairwise disjoint
/// per instant, each row's set exactly as wide as the job's allotment.
///
/// Fails with [`PlacementError::Overlap`] only when the schedule itself
/// overcommits the machines (the schedule validator's `Overcommitted`
/// case); any demand-feasible schedule lowers successfully under every
/// policy, because both hierarchical strategies fall back to the
/// fragmented flat take when no block-shaped choice exists.
pub fn place_with(
    view: &JobView,
    schedule: &Schedule,
    topology: &Topology,
    policy: &PlacementPolicy,
) -> Result<Placement, PlacementError> {
    let m = view.m();
    debug_assert_eq!(topology.m(), m, "topology must cover the machine park");
    let mut order: Vec<usize> = (0..schedule.assignments.len()).collect();
    order.sort_by(|&x, &y| {
        let (a, b) = (&schedule.assignments[x], &schedule.assignments[y]);
        a.start.cmp(&b.start).then(a.job.cmp(&b.job))
    });
    // Event sweep over the start-ordered claims: `free` is the
    // instantaneous free set, `running` a min-heap of (end, placed row)
    // for in-flight jobs. Placing in start order, every placed job
    // overlapping the next window is already running at its start, so
    // the instantaneous free set *is* the free set over the whole
    // window: one union per job end and one subtract per job start.
    let mut free = ProcSet::full(m);
    let mut running: BinaryHeap<Reverse<(Ratio, usize)>> = BinaryHeap::new();
    let mut placement = Placement::new();
    // Rotating start block for the spread strategy, advanced per job so
    // consecutive jobs open different blocks.
    let mut cursor = 0usize;
    let mut spread = match policy {
        PlacementPolicy::Spread { level } => Some(SpreadState::new(topology, *level)),
        _ => None,
    };
    for i in order {
        let a = &schedule.assignments[i];
        let end = a.start.add(&Ratio::from(view.time(a.job, a.procs)));
        while let Some(&Reverse((done, row))) = running.peek() {
            if done > a.start {
                break;
            }
            let released = &placement.jobs[row].procs;
            match spread.as_mut() {
                Some(state) => state.release(released),
                None => free = free.union(released),
            }
            running.pop();
        }
        let chosen = match policy {
            PlacementPolicy::Contiguous => free.take_fit(a.procs),
            PlacementPolicy::Packed { level } => {
                choose_packed(&free, a.procs, topology, *level)
            }
            PlacementPolicy::Spread { .. } => {
                let state = spread.as_ref().expect("built for spread above");
                let c = choose_spread(a.procs, state, cursor);
                cursor += 1;
                c
            }
        };
        let procs = match chosen {
            Some(set) => set,
            None => return Err(overcommit_report(&placement, a.start, end, m)),
        };
        match spread.as_mut() {
            Some(state) => state.claim(&procs),
            None => free = free.subtract(&procs),
        }
        running.push(Reverse((end, placement.jobs.len())));
        placement.push(a.job, a.start, end, procs);
    }
    Ok(placement)
}

/// Packed: the first block at `level` whose free portion holds the
/// whole job hosts it (contiguous inside the block when possible).
/// Jobs wider than any block's free portion fall back to the flat
/// strategy over the whole free set.
fn choose_packed(
    free: &ProcSet,
    width: u64,
    topology: &Topology,
    level: usize,
) -> Option<ProcSet> {
    for block in &topology.levels()[level].blocks {
        let portion = free.intersect(block);
        if portion.size() >= width {
            return portion.take_fit(width);
        }
    }
    free.take_fit(width)
}

/// The spread strategy's view of the free set: one [`ProcSet`] per
/// block of the level, maintained in lockstep with the sweep (one
/// [`Topology::split_by_block`] walk per claim and release). Spread's
/// round-robin holes fragment a *global* free set into one range per
/// busy processor — O(busy) work per union/subtract — while each
/// block-local set stays compact, so claims and releases cost
/// O(local fragments) and empty blocks are skipped in O(1).
struct SpreadState<'t> {
    topology: &'t Topology,
    /// The level whose blocks jobs are spread across.
    level: usize,
    /// Free processors inside each block; `free ∩ block`, exactly.
    per_block: Vec<ProcSet>,
    /// Total free processors across all blocks.
    free_total: u64,
    /// Blocks with any free processor — the even-split divisor.
    nonzero: usize,
}

impl<'t> SpreadState<'t> {
    fn new(topology: &'t Topology, level: usize) -> SpreadState<'t> {
        let per_block = topology.levels()[level].blocks.to_vec();
        SpreadState {
            topology,
            level,
            nonzero: per_block.iter().filter(|p| !p.is_empty()).count(),
            free_total: per_block.iter().map(|p| p.size()).sum(),
            per_block,
        }
    }

    fn release(&mut self, procs: &ProcSet) {
        let SpreadState {
            topology,
            level,
            per_block,
            free_total,
            nonzero,
        } = self;
        topology.split_by_block(*level, procs, |b, lo, hi| {
            if per_block[b].is_empty() {
                *nonzero += 1;
            }
            per_block[b] = per_block[b].union(&ProcSet::range(lo, hi));
            *free_total += hi - lo + 1;
        });
    }

    fn claim(&mut self, procs: &ProcSet) {
        let SpreadState {
            topology,
            level,
            per_block,
            free_total,
            nonzero,
        } = self;
        topology.split_by_block(*level, procs, |b, lo, hi| {
            per_block[b] = per_block[b].subtract(&ProcSet::range(lo, hi));
            if per_block[b].is_empty() {
                *nonzero -= 1;
            }
            *free_total -= hi - lo + 1;
        });
    }
}

/// Spread: split the job as evenly as possible across the level's
/// blocks with free capacity, starting from the rotating `cursor`. Two
/// passes — an even-quota pass, then a greedy top-up for blocks whose
/// capacity fell short of their quota — so any free set with `width`
/// processors total succeeds.
fn choose_spread(width: u64, state: &SpreadState, cursor: usize) -> Option<ProcSet> {
    if state.free_total < width {
        return None;
    }
    let k = state.per_block.len();
    let mut need = width;
    let mut chosen_ranges: Vec<(u64, u64)> = Vec::new();
    let mut leftovers: Vec<ProcSet> = Vec::new();
    // Blocks in rotated order, skipping empty ones in O(1); the early
    // break means a narrow job touches one block's set no matter how
    // many blocks the machine has.
    let mut remaining = state.nonzero as u64;
    for i in 0..k {
        if need == 0 {
            break;
        }
        let portion = &state.per_block[(cursor + i) % k];
        if portion.is_empty() {
            continue;
        }
        let quota = need.div_ceil(remaining).min(portion.size());
        let taken = portion.take_first(quota).expect("quota bounded by size");
        if quota < portion.size() {
            leftovers.push(portion.subtract(&taken));
        }
        chosen_ranges.extend(taken.ranges().iter().copied());
        need -= quota;
        remaining -= 1;
    }
    // Top-up: small early blocks may have left part of the even share
    // unplaced; the leftovers hold the slack (total free ≥ width).
    for portion in leftovers {
        if need == 0 {
            break;
        }
        let take = need.min(portion.size());
        let taken = portion.take_first(take).expect("bounded");
        chosen_ranges.extend(taken.ranges().iter().copied());
        need -= take;
    }
    debug_assert_eq!(need, 0, "free.size() >= width guarantees completion");
    Some(ProcSet::from_ranges(chosen_ranges))
}

/// Build the [`PlacementError::Overlap`] report for a job that found
/// fewer free processors than its allotment: the placements already
/// holding machines over its window, widest sets first.
fn overcommit_report(placed: &Placement, start: Ratio, end: Ratio, m: u64) -> PlacementError {
    let mut jobs: Vec<_> = placed
        .jobs
        .iter()
        .filter(|p| p.start < end && start < p.end)
        .map(|p| (p.job, p.procs.clone()))
        .collect();
    jobs.sort_by_key(|(job, procs)| (std::cmp::Reverse(procs.size()), *job));
    jobs.truncate(OVERLAP_WITNESSES);
    PlacementError::Overlap(Box::new(PlacementOverlap {
        at: start,
        until: Some(end),
        m,
        jobs,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;
    use moldable_core::instance::Instance;
    use moldable_core::speedup::SpeedupCurve;

    fn constant_instance(times: &[u64], m: u64) -> Instance {
        Instance::new(
            times.iter().map(|&t| SpeedupCurve::Constant(t)).collect(),
            m,
        )
    }

    #[test]
    fn lowers_a_feasible_schedule_and_validates() {
        let inst = constant_instance(&[6, 6, 4, 4, 2], 4);
        let view = JobView::build(&inst);
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 2); // [0,6) × 2
        s.push(1, Ratio::zero(), 2); // [0,6) × 2
        s.push(2, Ratio::from(6u64), 3); // [6,10) × 3
        s.push(3, Ratio::from(6u64), 1); // [6,10) × 1
        s.push(4, Ratio::from(10u64), 4); // [10,12) × 4
        let placement = place_contiguous(&view, &s).expect("feasible schedule lowers");
        assert_eq!(placement.jobs.len(), 5);
        // Every set is contiguous here (free sets never fragment).
        for p in &placement.jobs {
            assert!(p.procs.is_contiguous(), "job {} got {}", p.job, p.procs);
        }
        // The lowered schedule passes the full validator, placement and all.
        let s = s.with_placement(placement);
        assert!(validate(&s, &inst).is_ok());
    }

    #[test]
    fn falls_back_to_fragmented_sets_when_needed() {
        // Jobs 0 and 2 pin processors 0-1 and 3 over [0,4); job 3 then
        // needs two machines over [2,6) and only {2, 4} remain.
        let inst = constant_instance(&[4, 2, 4, 4], 5);
        let view = JobView::build(&inst);
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 2);
        s.push(1, Ratio::zero(), 1);
        s.push(2, Ratio::zero(), 1);
        s.push(3, Ratio::from(2u64), 2);
        let placement = place_contiguous(&view, &s).expect("demand never exceeds m");
        // Job 1 ends at 2 releasing processor 2; job 3 must bridge the
        // hole between jobs 0 (0-1) and 2 (3) — {2, 4} is fragmented.
        let p3 = placement.get(3).unwrap();
        assert_eq!(p3.procs, ProcSet::from_ranges([(2, 2), (4, 4)]));
        assert!(!p3.procs.is_contiguous());
        let s = s.with_placement(placement);
        assert!(validate(&s, &inst).is_ok());
    }

    #[test]
    fn overcommitted_schedule_reports_the_window() {
        let inst = constant_instance(&[4, 4], 3);
        let view = JobView::build(&inst);
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 2);
        s.push(1, Ratio::zero(), 2); // 4 > m = 3
        match place_contiguous(&view, &s) {
            Err(PlacementError::Overlap(report)) => {
                assert_eq!(report.at, Ratio::zero());
                assert_eq!(report.m, 3);
                assert_eq!(report.jobs, vec![(0, ProcSet::range(0, 1))]);
            }
            other => panic!("expected overlap, got {other:?}"),
        }
    }

    #[test]
    fn rational_starts_place_exactly() {
        // Half-integral starts (the three-shelf S2 shape).
        let inst = constant_instance(&[3, 3], 2);
        let view = JobView::build(&inst);
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 1);
        s.push(1, Ratio::new(3, 2), 1);
        let placement = place_contiguous(&view, &s).unwrap();
        assert_eq!(placement.get(0).unwrap().procs, ProcSet::range(0, 0));
        assert_eq!(placement.get(1).unwrap().procs, ProcSet::range(1, 1));
        assert_eq!(placement.get(1).unwrap().end, Ratio::new(9, 2));
        let s = s.with_placement(placement);
        assert!(validate(&s, &inst).is_ok());
    }

    #[test]
    fn packed_prefers_one_block_per_job() {
        // 2 nodes × 4 cores; two width-3 jobs at t=0. Contiguous would
        // give 0-2 and 3-5 (job 1 straddling nodes); packed gives each
        // job its own node.
        let inst = constant_instance(&[4, 4], 8);
        let view = JobView::build(&inst);
        let topo = Topology::uniform(&[2, 4]).unwrap();
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 3);
        s.push(1, Ratio::zero(), 3);
        let packed =
            place_with(&view, &s, &topo, &PlacementPolicy::Packed { level: 0 }).unwrap();
        assert_eq!(packed.get(0).unwrap().procs, ProcSet::range(0, 2));
        assert_eq!(packed.get(1).unwrap().procs, ProcSet::range(4, 6));
        assert_eq!(topo.span_blocks(0, &packed.get(1).unwrap().procs), 1);
        let flat = place_with(&view, &s, &topo, &PlacementPolicy::Contiguous).unwrap();
        assert_eq!(flat.get(1).unwrap().procs, ProcSet::range(3, 5));
        assert_eq!(topo.span_blocks(0, &flat.get(1).unwrap().procs), 2);
    }

    #[test]
    fn packed_falls_back_for_jobs_wider_than_a_block() {
        let inst = constant_instance(&[4], 8);
        let view = JobView::build(&inst);
        let topo = Topology::uniform(&[2, 4]).unwrap();
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 6); // wider than any 4-wide node
        let p = place_with(&view, &s, &topo, &PlacementPolicy::Packed { level: 0 }).unwrap();
        assert_eq!(p.get(0).unwrap().procs, ProcSet::range(0, 5));
    }

    #[test]
    fn spread_splits_across_blocks() {
        let inst = constant_instance(&[4], 8);
        let view = JobView::build(&inst);
        let topo = Topology::uniform(&[2, 4]).unwrap();
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 4);
        let p = place_with(&view, &s, &topo, &PlacementPolicy::Spread { level: 0 }).unwrap();
        // Two from each node, not four from one.
        assert_eq!(
            p.get(0).unwrap().procs,
            ProcSet::from_ranges([(0, 1), (4, 5)])
        );
        assert_eq!(topo.span_blocks(0, &p.get(0).unwrap().procs), 2);
    }

    #[test]
    fn spread_tops_up_when_blocks_run_short() {
        // Uneven blocks 0-5 | 6-7: a width-7 job's even split asks the
        // 2-wide block for more than it holds (quota ⌈3/1⌉ = 3 > 2); the
        // top-up pass must reclaim the slack from the wide block.
        let inst = constant_instance(&[4], 8);
        let view = JobView::build(&inst);
        let topo = Topology::parse("0-5|6-7").unwrap();
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 7);
        let p = place_with(&view, &s, &topo, &PlacementPolicy::Spread { level: 0 }).unwrap();
        let procs = &p.get(0).unwrap().procs;
        assert_eq!(procs.size(), 7);
        assert_eq!(topo.span_blocks(0, procs), 2);
        let s = s.with_placement(p);
        assert!(validate(&s, &inst).is_ok());
    }

    #[test]
    fn every_policy_is_total_for_feasible_schedules() {
        let inst = constant_instance(&[6, 6, 4, 4, 2, 3, 3, 5], 8);
        let view = JobView::build(&inst);
        let topo = Topology::uniform(&[2, 2, 2]).unwrap();
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 3);
        s.push(1, Ratio::zero(), 5);
        s.push(2, Ratio::from(6u64), 2);
        s.push(3, Ratio::from(6u64), 6);
        s.push(4, Ratio::from(10u64), 8);
        s.push(5, Ratio::from(12u64), 1);
        s.push(6, Ratio::from(12u64), 7);
        s.push(7, Ratio::from(15u64), 4);
        for policy in [
            PlacementPolicy::Contiguous,
            PlacementPolicy::Packed { level: 0 },
            PlacementPolicy::Packed { level: 1 },
            PlacementPolicy::Spread { level: 0 },
            PlacementPolicy::Spread { level: 2 },
        ] {
            let placement = place_with(&view, &s, &topo, &policy)
                .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
            let checked = s.clone().with_placement(placement);
            assert!(validate(&checked, &inst).is_ok(), "{policy:?}");
        }
    }

    #[test]
    fn flat_topology_makes_all_policies_agree() {
        let inst = constant_instance(&[4, 2, 4, 4], 5);
        let view = JobView::build(&inst);
        let topo = Topology::flat(5);
        let mut s = Schedule::new();
        s.push(0, Ratio::zero(), 2);
        s.push(1, Ratio::zero(), 1);
        s.push(2, Ratio::zero(), 1);
        s.push(3, Ratio::from(2u64), 2);
        let flat = place_contiguous(&view, &s).unwrap();
        let packed =
            place_with(&view, &s, &topo, &PlacementPolicy::Packed { level: 0 }).unwrap();
        assert_eq!(flat, packed);
    }
}
