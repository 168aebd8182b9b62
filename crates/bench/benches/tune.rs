//! Auto-tuner bench: calibrate this host, solve the documented default
//! target, and check the plan's promise against a real replay.
//!
//! Four gates, each printing a `TUNE-REGRESSION` line on failure:
//!
//! * the calibrated latency ladder must be monotone — a rung that gets
//!   *faster* as the working set grows means the microbenchmark broke;
//! * the documented default request must stay feasible on the golden
//!   paper profile (solver regressions show up here first);
//! * the solved plan's delivered relative error on a synthetic Zipf
//!   trace must stay inside the stated epsilon;
//! * one solve must stay interactive (the daemon re-solves every epoch
//!   rotation, so a slow solver eats the detection budget).
//!
//! Writes `BENCH_tune.json`. Smoke mode switches the calibrator to its
//! bounded sweep and shrinks the replay.

use instameasure_autotune::{
    calibrate, measured_epsilon, solve, zipf_sizes, CalibrationOptions, MachineProfile, TuneRequest,
};
use instameasure_bench::harness::{self, Gate, Timer};

fn main() {
    let smoke = harness::smoke();
    let mut gate = Gate::new("TUNE");

    // --- Gate 1: calibrate this host; the ladder must be monotone. ---
    let opts = if smoke { CalibrationOptions::smoke() } else { CalibrationOptions::from_env() };
    let host = calibrate(&opts);
    println!(
        "tune: calibrated {} rungs in {:.2} s — {:.1} ns cache-resident, {:.1} ns DRAM, \
         hash {:.1} ns, seq {:.2} ns",
        host.points().len(),
        host.calibration_nanos() as f64 / 1e9,
        host.sram_ns(),
        host.dram_ns(),
        host.hash_ns(),
        host.seq_ns()
    );
    // Shared CI cores jitter individual rungs; only a clear inversion
    // (next rung measurably faster than a smaller working set) is a
    // broken calibrator rather than noise.
    let tolerance = 0.8;
    for w in host.points().windows(2) {
        gate.fail_if(
            w[1].nanos < w[0].nanos * tolerance,
            format_args!(
                "latency ladder inverted — {} B at {:.2} ns but {} B at {:.2} ns",
                w[0].bytes, w[0].nanos, w[1].bytes, w[1].nanos
            ),
        );
    }

    // --- Gate 2: the documented default solves on the golden profile. ---
    let paper = MachineProfile::paper();
    let epsilon = 0.1;
    let req = TuneRequest::accuracy(1.0e6, epsilon, 0.05);
    let flows = if smoke { 50_000 } else { 400_000 };
    let sizes = zipf_sizes(flows, 10_000);
    let Some(plan) = solve(&paper, &req, &sizes) else {
        gate.fail_if(
            true,
            format_args!("epsilon {epsilon} at 1 Mpps became infeasible on the paper profile"),
        );
        std::process::exit(1);
    };
    println!("{plan}");

    // --- Gate 3: the plan delivers its epsilon on a real replay. ---
    let mut replay = Timer::default();
    let measured = replay.time(|| measured_epsilon(&plan, &sizes, 50, 0xBE7C));
    let replay_s = replay.quantile_secs(0.0);
    println!(
        "tune: {flows} flows replayed in {replay_s:.2} s — measured epsilon {measured:.4} \
         (predicted {:.4}, target {epsilon})",
        plan.predicted_epsilon
    );
    gate.fail_if(
        measured > epsilon,
        format_args!("delivered error {measured:.4} exceeds the stated {epsilon} target"),
    );

    // --- Gate 4: a solve stays interactive (the daemon re-solves every
    // epoch rotation). ---
    let host_sizes = zipf_sizes(100_000, 1_000_000);
    let reps = if smoke { 5 } else { 20 };
    let (solves, feasible_on_host) =
        Timer::repeat(reps, || solve(&host, &req, &host_sizes).is_some());
    let solve_ms = solves.mean_secs() * 1e3;
    let solve_budget_ms = if smoke { 500.0 } else { 250.0 };
    println!(
        "tune: one solve takes {solve_ms:.2} ms on this host's profile \
         (feasible here: {feasible_on_host}, budget {solve_budget_ms:.0} ms)"
    );
    gate.fail_if(
        solve_ms > solve_budget_ms,
        format_args!("{solve_ms:.2} ms per solve exceeds the {solve_budget_ms:.0} ms budget"),
    );

    harness::record("tune")
        .with("host_sram_ns", host.sram_ns())
        .with("host_dram_ns", host.dram_ns())
        .with("host_hash_ns", host.hash_ns())
        .with("calibration_s", host.calibration_nanos() as f64 / 1e9)
        .with("workload_flows", flows)
        .with("plan_l1_bytes", plan.l1_memory_bytes)
        .with("plan_vector_bits", plan.vector_bits)
        .with("plan_layers", plan.layers)
        .with("plan_wsaf_log2", plan.wsaf_entries_log2)
        .with("predicted_epsilon", plan.predicted_epsilon)
        .with("measured_epsilon", measured)
        .with("epsilon_target", epsilon)
        .with("solve_ms", solve_ms)
        .with("regressions", gate.failures())
        .write("tune");
}
