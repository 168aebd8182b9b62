//! Property tests of the configuration solver on the golden
//! [`MachineProfile::paper`] fixture.
//!
//! Three families of invariants:
//!
//! * **Feasibility** — whatever plan `solve` returns must actually meet
//!   the request it was handed (margin, accuracy, geometry bounds) and
//!   materialize as a runnable [`instameasure_core::InstaMeasureConfig`].
//! * **Monotonicity** — loosening any axis of the request (higher
//!   epsilon, lower pps, lower margin) never turns a feasible problem
//!   infeasible, and a uniformly slower memory never makes a problem
//!   *more* solvable.
//! * **Golden fixture** — the paper profile at the documented default
//!   request solves to one pinned geometry, so solver regressions show
//!   up as a diff instead of silent drift.

use instameasure_autotune::{
    solve, zipf_sizes, LatencyPoint, MachineProfile, TunePlan, TuneRequest,
};
use proptest::prelude::*;

/// A profile uniformly `factor`× slower than the paper fixture.
fn scaled_profile(factor: f64) -> MachineProfile {
    let paper = MachineProfile::paper();
    let points = paper
        .points()
        .iter()
        .map(|p| LatencyPoint { bytes: p.bytes, nanos: p.nanos * factor })
        .collect();
    MachineProfile::from_parts(points, paper.hash_ns() * factor, paper.seq_ns() * factor, 0, false)
        .expect("scaled fixture is valid")
}

/// Every structural bound a returned plan must satisfy, plus the parts
/// of the request the plan's own predictions encode.
fn assert_plan_well_formed(plan: &TunePlan, req: &TuneRequest) {
    assert!(
        [4, 8, 16, 32].contains(&plan.vector_bits),
        "vector width {} outside the supported set",
        plan.vector_bits
    );
    assert!((1..=2).contains(&plan.layers), "layer count {}", plan.layers);
    assert!(
        plan.l1_memory_bytes.is_power_of_two()
            && (32 * 1024..=1024 * 1024).contains(&plan.l1_memory_bytes),
        "L1 size {} outside [32 KB, 1 MB]",
        plan.l1_memory_bytes
    );
    assert!(
        (14..=26).contains(&plan.wsaf_entries_log2),
        "WSAF log2 {} outside [14, 26]",
        plan.wsaf_entries_log2
    );
    assert!(
        plan.margin >= req.min_margin,
        "margin {} below the requested {}",
        plan.margin,
        req.min_margin
    );
    if let instameasure_autotune::TuneTarget::Accuracy { epsilon, .. } = req.target {
        assert!(
            plan.predicted_epsilon <= epsilon,
            "predicted epsilon {} exceeds the {} target",
            plan.predicted_epsilon,
            epsilon
        );
    }
    assert!((0.0..=1.0).contains(&plan.predicted_regulation), "{}", plan.predicted_regulation);
    assert!(plan.probes_per_insert >= 1.0, "{}", plan.probes_per_insert);
    assert!(plan.access_nanos > 0.0, "{}", plan.access_nanos);
    plan.to_config(1).expect("every returned plan materializes as a runnable config");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn feasible_plans_honour_the_request(
        pps_m in 0.1f64..40.0,
        eps_pm in 35u32..300,
        flows in 1_000u64..200_000,
        heaviest in 1_000u64..1_000_000,
    ) {
        let profile = MachineProfile::paper();
        let req = TuneRequest::accuracy(pps_m * 1e6, f64::from(eps_pm) / 1000.0, 0.05);
        let sizes = zipf_sizes(flows, heaviest);
        if let Some(plan) = solve(&profile, &req, &sizes) {
            assert_plan_well_formed(&plan, &req);
        }
    }

    #[test]
    fn loosening_epsilon_preserves_feasibility(
        pps_m in 0.1f64..40.0,
        eps_pm in 35u32..200,
        slack_pm in 1u32..300,
        flows in 1_000u64..200_000,
    ) {
        let profile = MachineProfile::paper();
        let sizes = zipf_sizes(flows, 1_000_000);
        let tight = TuneRequest::accuracy(pps_m * 1e6, f64::from(eps_pm) / 1000.0, 0.05);
        let loose =
            TuneRequest::accuracy(pps_m * 1e6, f64::from(eps_pm + slack_pm) / 1000.0, 0.05);
        if solve(&profile, &tight, &sizes).is_some() {
            prop_assert!(
                solve(&profile, &loose, &sizes).is_some(),
                "feasible at epsilon {} but infeasible at the looser {}",
                f64::from(eps_pm) / 1000.0,
                f64::from(eps_pm + slack_pm) / 1000.0
            );
        }
    }

    #[test]
    fn lowering_the_load_preserves_feasibility(
        pps_m in 0.5f64..60.0,
        shrink in 0.05f64..1.0,
        eps_pm in 35u32..300,
        flows in 1_000u64..200_000,
    ) {
        let profile = MachineProfile::paper();
        let sizes = zipf_sizes(flows, 1_000_000);
        let heavy = TuneRequest::accuracy(pps_m * 1e6, f64::from(eps_pm) / 1000.0, 0.05);
        let light = TuneRequest::accuracy(pps_m * 1e6 * shrink, f64::from(eps_pm) / 1000.0, 0.05);
        if solve(&profile, &heavy, &sizes).is_some() {
            prop_assert!(
                solve(&profile, &light, &sizes).is_some(),
                "feasible at {pps_m} Mpps but infeasible at {} Mpps",
                pps_m * shrink
            );
        }
    }

    #[test]
    fn a_slower_memory_never_rescues_an_infeasible_problem(
        pps_m in 0.5f64..80.0,
        eps_pm in 35u32..300,
        factor in 1.0f64..6.0,
        flows in 1_000u64..200_000,
    ) {
        let fast = MachineProfile::paper();
        let slow = scaled_profile(factor);
        let req = TuneRequest::accuracy(pps_m * 1e6, f64::from(eps_pm) / 1000.0, 0.05);
        let sizes = zipf_sizes(flows, 1_000_000);
        if solve(&fast, &req, &sizes).is_none() {
            prop_assert!(
                solve(&slow, &req, &sizes).is_none(),
                "infeasible on the paper machine but solvable on one {factor}x slower"
            );
        }
    }

    #[test]
    fn throughput_requests_solve_whenever_accuracy_ones_do(
        pps_m in 0.1f64..40.0,
        eps_pm in 35u32..300,
        flows in 1_000u64..200_000,
    ) {
        let profile = MachineProfile::paper();
        let sizes = zipf_sizes(flows, 1_000_000);
        let acc = TuneRequest::accuracy(pps_m * 1e6, f64::from(eps_pm) / 1000.0, 0.05);
        let thr = TuneRequest::throughput(pps_m * 1e6, acc.min_margin);
        if let Some(plan) = solve(&profile, &acc, &sizes) {
            let relaxed = solve(&profile, &thr, &sizes);
            prop_assert!(
                relaxed.is_some(),
                "dropping the accuracy target lost feasibility at {pps_m} Mpps"
            );
            assert_plan_well_formed(&relaxed.unwrap(), &thr);
            assert_plan_well_formed(&plan, &acc);
        }
    }

    #[test]
    fn plan_files_roundtrip_for_any_solved_plan(
        pps_m in 0.1f64..40.0,
        eps_pm in 35u32..300,
        flows in 1_000u64..200_000,
    ) {
        let profile = MachineProfile::paper();
        let req = TuneRequest::accuracy(pps_m * 1e6, f64::from(eps_pm) / 1000.0, 0.05);
        if let Some(plan) = solve(&profile, &req, &zipf_sizes(flows, 1_000_000)) {
            let back = TunePlan::from_text(&plan.to_text()).expect("plan text parses back");
            prop_assert!(back.same_geometry(&plan));
            prop_assert!((back.predicted_epsilon - plan.predicted_epsilon).abs() < 1e-12);
        }
    }
}

/// The pinned golden solve: the paper machine, the documented default
/// request (1 Mpps, epsilon 0.05, delta 0.05) and the default synthetic
/// workload. If the solver's model changes, this diff is the reviewable
/// evidence.
#[test]
fn golden_profile_solves_to_the_pinned_geometry() {
    let profile = MachineProfile::paper();
    let req = TuneRequest::accuracy(1.0e6, 0.05, 0.05);
    let plan = solve(&profile, &req, &zipf_sizes(100_000, 1_000_000))
        .expect("the documented default request is feasible on the paper machine");
    assert_eq!(
        (plan.l1_memory_bytes, plan.vector_bits, plan.layers, plan.wsaf_entries_log2),
        (GOLDEN.0, GOLDEN.1, GOLDEN.2, GOLDEN.3),
        "golden geometry moved: {plan}"
    );
    assert!(plan.predicted_epsilon <= 0.05, "{plan}");
    assert!(plan.margin >= 2.0, "{plan}");
}

/// `(l1_memory_bytes, vector_bits, layers, wsaf_entries_log2)` of the
/// golden solve above.
const GOLDEN: (u64, u32, u32, u32) = (32_768, 16, 1, 19);
