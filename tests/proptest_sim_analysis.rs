//! Property-based tests for the simulator, the knapsack FPTAS, and the
//! analysis helpers — the components added on top of the paper's core.

use moldable::analysis::{fit, loglog_fit, Summary};
use moldable::knapsack::{brute::brute_force, solve_fptas, Item};
use moldable::prelude::*;
use moldable::sim::metrics::peak_demand;
use moldable::sim::{execute, online_list_schedule, ClusterMetrics};
use moldable::workloads::{hpc_mix_instance, HpcMixParams};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

fn table_instance() -> impl Strategy<Value = Instance> {
    (1usize..=8, 1u64..=6).prop_flat_map(|(n, m)| {
        prop::collection::vec(
            prop::collection::vec(1u64..50, m as usize..=m as usize),
            n..=n,
        )
        .prop_map(move |tables| {
            let curves = tables
                .into_iter()
                .map(|mut t| {
                    moldable::core::speedup::monotone_closure(&mut t);
                    SpeedupCurve::Table(Arc::new(t))
                })
                .collect();
            Instance::new(curves, m)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any planner output executes on the simulated cluster with identical
    /// makespan and a valid placement (no processor held twice at once).
    #[test]
    fn planner_output_always_executes(inst in table_instance()) {
        let eps = Ratio::new(1, 3);
        let res = approximate(&inst, &ImprovedDual::new_linear(eps), &eps);
        prop_assert!(validate(&res.schedule, &inst).is_ok());
        let ex = execute(&inst, &res.schedule).expect("validated plans execute");
        prop_assert_eq!(ex.makespan, res.schedule.makespan(&inst));
        prop_assert!(ex.placement.validate(inst.m()).is_ok());
        prop_assert_eq!(ex.placement.jobs.len(), inst.n());
        prop_assert!(peak_demand(&ex.placement) <= inst.m());
        // Work conservation: busy area equals plan work.
        let metrics = ClusterMetrics::from_placement(&ex.placement, inst.m());
        prop_assert!(metrics.work_conserved(&inst, &res.schedule));
    }

    /// The online list-scheduling simulator agrees with the analytic list
    /// scheduler for every allotment and order.
    #[test]
    fn online_sim_matches_analytic(
        inst in table_instance(),
        seed in 0u64..1000,
    ) {
        let n = inst.n();
        let m = inst.m();
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || { s ^= s << 13; s ^= s >> 7; s ^= s << 17; s };
        let allot: Vec<u64> = (0..n).map(|_| next() % m + 1).collect();
        let mut order: Vec<u32> = (0..n as u32).collect();
        // Fisher–Yates with the xorshift stream.
        for i in (1..n).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let analytic = moldable::sched::list_scheduling::list_schedule(
            &moldable::core::view::JobView::build(&inst),
            &allot,
            &order,
        );
        let sim = online_list_schedule(&inst, &allot, &order).unwrap();
        prop_assert_eq!(sim.makespan, analytic.makespan(&inst));
        prop_assert!(sim.placement.validate(m).is_ok());
    }

    /// FPTAS guarantee on arbitrary instances: profit ≥ (1−ε)·OPT and the
    /// chosen set fits.
    #[test]
    fn fptas_guarantee(
        sizes in prop::collection::vec(1u64..25, 1..10),
        profits in prop::collection::vec(0u128..10_000, 10),
        cap in 1u64..60,
        eps_den in 2u64..16,
    ) {
        let items: Vec<Item> = sizes
            .iter()
            .zip(&profits)
            .enumerate()
            .map(|(i, (&s, &p))| Item::plain(i as u32, s, p))
            .collect();
        let opt = brute_force(&items, cap).profit;
        let sol = solve_fptas(&items, cap, (1, eps_den));
        // profit ≥ (1−1/eps_den)·OPT  ⇔  profit·den ≥ (den−1)·OPT
        prop_assert!(sol.profit * eps_den as u128 >= opt * (eps_den - 1) as u128);
        let size: u128 = sol
            .chosen
            .iter()
            .map(|&id| items[id as usize].size as u128)
            .sum();
        prop_assert!(size <= cap as u128);
    }

    /// Summary statistics are order-invariant and internally consistent.
    #[test]
    fn summary_invariants(mut sample in prop::collection::vec(-1e6f64..1e6, 1..40)) {
        let a = Summary::of(&sample).unwrap();
        sample.reverse();
        let b = Summary::of(&sample).unwrap();
        prop_assert_eq!(a, b);
        prop_assert!(a.min <= a.median && a.median <= a.max);
        prop_assert!(a.min <= a.mean && a.mean <= a.max + 1e-9);
        prop_assert!(a.stddev >= 0.0);
    }

    /// OLS recovers exact affine relationships.
    #[test]
    fn fit_recovers_lines(
        slope in -50.0f64..50.0,
        intercept in -50.0f64..50.0,
        xs in prop::collection::hash_set(-1000i32..1000, 3..20),
    ) {
        let pts: Vec<(f64, f64)> = xs
            .iter()
            .map(|&x| (x as f64, intercept + slope * x as f64))
            .collect();
        let f = fit(&pts).unwrap();
        prop_assert!((f.slope - slope).abs() < 1e-6, "slope {} vs {}", f.slope, slope);
        prop_assert!((f.intercept - intercept).abs() < 1e-3);
    }

    /// loglog_fit recovers power-law exponents from exact samples.
    #[test]
    fn loglog_recovers_exponents(k in 0u32..4, scale in 1u64..100) {
        let pts: Vec<(f64, f64)> = (1..=24u64)
            .map(|x| (x as f64, scale as f64 * (x as f64).powi(k as i32)))
            .collect();
        let f = loglog_fit(&pts).unwrap();
        prop_assert!((f.slope - k as f64).abs() < 1e-6);
    }
}

#[test]
fn hpc_mix_spot_checked_monotone_at_scale() {
    // Deterministic non-proptest check at compact-encoding scale.
    let mut rng = SmallRng::seed_from_u64(2026);
    let m = 1u64 << 36;
    let inst = hpc_mix_instance(&mut rng, 64, m, &HpcMixParams::default());
    for j in inst.jobs() {
        moldable::core::monotone::spot_check_monotone(j, m, 64).unwrap();
    }
}
