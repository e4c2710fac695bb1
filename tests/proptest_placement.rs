//! Property-based tests of the placement layer: every registry solver's
//! schedule lowers to a valid placement (pairwise-disjoint processor
//! sets per time slot, set size equal to the allotment), and the
//! `contiguous-73-50` solver's native placement is contiguous.

use moldable::core::hierarchy::Topology;
use moldable::core::procset::ProcSet;
use moldable::core::speedup::monotone_closure;
use moldable::core::view::JobView;
use moldable::prelude::*;
use moldable::sched::solver::{solver_by_name, ExactSolver, SOLVER_NAMES};
use moldable::sched::{place_contiguous, place_with, PlacementPolicy};
use proptest::prelude::*;
use std::sync::Arc;

/// Random monotone table instances, sized so every registry solver
/// (including `exact`) applies.
fn table_instance() -> impl Strategy<Value = Instance> {
    (1usize..=5, 1u64..=4).prop_flat_map(|(n, m)| {
        prop::collection::vec(
            prop::collection::vec(1u64..40, m as usize..=m as usize),
            n..=n,
        )
        .prop_map(move |tables| {
            let curves = tables
                .into_iter()
                .map(|mut t| {
                    monotone_closure(&mut t);
                    SpeedupCurve::Table(Arc::new(t))
                })
                .collect();
            Instance::new(curves, m)
        })
    })
}

/// Pairwise disjointness, spelled out independently of
/// `Placement::validate`'s event sweep: any two placements whose time
/// intervals overlap must use disjoint processor sets.
fn assert_pairwise_disjoint(placement: &moldable::core::placement::Placement) {
    for (i, a) in placement.jobs.iter().enumerate() {
        for b in &placement.jobs[i + 1..] {
            if a.start < b.end && b.start < a.end {
                assert!(
                    a.procs.is_disjoint(&b.procs),
                    "jobs {} and {} share processors over an overlapping interval",
                    a.job,
                    b.job
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every registry solver's schedule admits a placement (native or via
    /// `place_contiguous`) that passes full validation: one row per job,
    /// `ProcSet` size equal to the allotment, sets within `[0, m)`, and
    /// no processor double-booked — `validate` checks the join against
    /// the assignments, and the pairwise sweep here re-proves
    /// disjointness from scratch.
    #[test]
    fn every_solver_lowers_to_a_valid_placement(inst in table_instance()) {
        let view = JobView::build(&inst);
        let eps = Ratio::new(1, 4);
        for name in SOLVER_NAMES {
            if *name == "exact" && !ExactSolver::fits(&view) {
                continue;
            }
            let solver = solver_by_name(name, &eps).expect("registry name");
            let mut outcome = solver.solve(&view, view.m());
            if outcome.schedule.placement.is_none() {
                let placement = place_contiguous(&view, &outcome.schedule)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                outcome.schedule.placement = Some(placement);
            }
            prop_assert!(
                validate(&outcome.schedule, &inst).is_ok(),
                "{name}: {:?}",
                validate(&outcome.schedule, &inst)
            );
            let placement = outcome.schedule.placement.as_ref().unwrap();
            prop_assert_eq!(placement.jobs.len(), inst.n(), "{}", name);
            for p in &placement.jobs {
                let a = outcome
                    .schedule
                    .assignments
                    .iter()
                    .find(|a| a.job == p.job)
                    .expect("placement rows mirror assignments");
                prop_assert_eq!(p.procs.size(), a.procs, "{} job {}", name, p.job);
            }
            assert_pairwise_disjoint(placement);
        }
    }

    /// The `contiguous-73-50` solver always returns a native placement
    /// in which every job occupies one contiguous machine interval.
    #[test]
    fn contiguous_solver_placements_are_contiguous(inst in table_instance()) {
        let view = JobView::build(&inst);
        let solver = solver_by_name("contiguous-73-50", &Ratio::new(1, 4)).unwrap();
        let outcome = solver.solve(&view, view.m());
        prop_assert!(validate(&outcome.schedule, &inst).is_ok());
        let placement = outcome.schedule.placement.as_ref().expect("native placement");
        prop_assert_eq!(placement.jobs.len(), inst.n());
        for p in &placement.jobs {
            prop_assert!(
                p.procs.is_contiguous(),
                "job {} placed on fragmented set {}",
                p.job,
                p.procs
            );
        }
        assert_pairwise_disjoint(placement);
    }

    /// Every registry solver's schedule lowers onto a non-trivial
    /// two-level topology under every placement policy: full validation
    /// passes, every job's set has exactly its allotted size, and the
    /// pairwise sweep re-proves disjointness from scratch.
    #[test]
    fn every_solver_lowers_onto_a_topology(inst in table_instance()) {
        let view = JobView::build(&inst);
        let m = view.m();
        // Blocks of uneven sizes whenever m allows: [0, ceil(m/2)) and
        // the rest — non-trivial for every m ≥ 2, flat for m = 1.
        let topology = if m >= 2 {
            Topology::from_levels(
                m,
                vec![moldable::core::hierarchy::Level {
                    name: "node".into(),
                    blocks: vec![
                        ProcSet::range(0, m.div_ceil(2) - 1),
                        ProcSet::range(m.div_ceil(2), m - 1),
                    ],
                }],
            )
            .expect("two blocks partition [0, m)")
        } else {
            Topology::flat(m)
        };
        let policies = [
            PlacementPolicy::Contiguous,
            PlacementPolicy::Packed { level: 0 },
            PlacementPolicy::Spread { level: 0 },
        ];
        let eps = Ratio::new(1, 4);
        for name in SOLVER_NAMES {
            if *name == "exact" && !ExactSolver::fits(&view) {
                continue;
            }
            let solver = solver_by_name(name, &eps).expect("registry name");
            let mut outcome = solver.solve(&view, view.m());
            for policy in &policies {
                let placement = place_with(&view, &outcome.schedule, &topology, policy)
                    .unwrap_or_else(|e| panic!("{name}/{policy:?}: {e}"));
                prop_assert_eq!(placement.jobs.len(), inst.n(), "{} {:?}", name, policy);
                for p in &placement.jobs {
                    let a = outcome
                        .schedule
                        .assignments
                        .iter()
                        .find(|a| a.job == p.job)
                        .expect("placement rows mirror assignments");
                    prop_assert_eq!(
                        p.procs.size(), a.procs,
                        "{} {:?} job {}", name, policy, p.job
                    );
                }
                assert_pairwise_disjoint(&placement);
                outcome.schedule.placement = Some(placement);
                prop_assert!(
                    validate(&outcome.schedule, &inst).is_ok(),
                    "{} {:?}: {:?}",
                    name, policy, validate(&outcome.schedule, &inst)
                );
            }
        }
    }
}

/// Packed locality beats Spread where it is supposed to: lowering the
/// same schedule corpus onto the same topology, Packed's mean
/// node-blocks-spanned is *strictly* below Spread's (Spread buys its
/// even load by splitting jobs across blocks; Packed pays load balance
/// for single-block placements).
#[test]
fn packed_has_strictly_fewer_mean_spans_than_spread() {
    let topology = Topology::uniform(&[4, 16]).unwrap(); // 4 nodes × 16 cores
    let mut packed_total = 0.0;
    let mut spread_total = 0.0;
    for seed in 0..4u64 {
        let inst = bench_instance(BenchFamily::PowerLaw, 24, 64, seed);
        let view = JobView::build(&inst);
        let solver = solver_by_name("linear", &Ratio::new(1, 4)).unwrap();
        let schedule = solver.solve(&view, view.m()).schedule;
        let mean = |policy: &PlacementPolicy| -> f64 {
            let placement = place_with(&view, &schedule, &topology, policy).unwrap();
            topology.fragmentation(&placement).levels[0].mean_span()
        };
        let packed = mean(&PlacementPolicy::Packed { level: 0 });
        let spread = mean(&PlacementPolicy::Spread { level: 0 });
        assert!(
            packed <= spread,
            "seed {seed}: packed {packed} > spread {spread}"
        );
        packed_total += packed;
        spread_total += spread;
    }
    assert!(
        packed_total < spread_total,
        "packed mean {packed_total} not strictly below spread mean {spread_total} over the corpus"
    );
}
