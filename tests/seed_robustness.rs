//! Seed sweeps: the headline invariants must hold across many independent
//! hash/workload seeds, not just the one the figures happen to use.

use instameasure::core::metrics::standard_error;
use instameasure::core::{InstaMeasure, InstaMeasureConfig};
use instameasure::sketch::{analysis, FlowFilter, FlowRegulator, SketchConfig};
use instameasure::traffic::presets::caida_like;
use instameasure::wsaf::WsafConfig;

fn sketch(seed: u64) -> SketchConfig {
    SketchConfig::builder().memory_bytes(16 * 1024).vector_bits(8).seed(seed).build().unwrap()
}

#[test]
fn regulation_rates_stable_across_seeds() {
    // FR ~1-3%, RCC ~11-16%, ratio > 4x — for every seed.
    for seed in 0..8u64 {
        let trace = caida_like(0.02, seed);
        let mut fr = FlowRegulator::new(sketch(seed));
        let mut rcc = FlowRegulator::single_layer(sketch(seed ^ 0xFF));
        for r in &trace.records {
            fr.process(r);
            rcc.process(r);
        }
        let fr_rate = fr.stats().regulation_rate();
        let rcc_rate = rcc.stats().regulation_rate();
        assert!((0.005..0.05).contains(&fr_rate), "seed {seed}: FR {fr_rate}");
        assert!((0.08..0.20).contains(&rcc_rate), "seed {seed}: RCC {rcc_rate}");
        assert!(rcc_rate / fr_rate > 4.0, "seed {seed}: ratio {}", rcc_rate / fr_rate);
    }
}

#[test]
fn elephant_standard_error_bounded_across_seeds() {
    for seed in 0..6u64 {
        let trace = caida_like(0.02, seed);
        let cfg = InstaMeasureConfig::default()
            .with_sketch(sketch(seed))
            .with_wsaf(WsafConfig::builder().entries_log2(16).seed(seed).build().unwrap());
        let mut im = InstaMeasure::new(cfg);
        for r in &trace.records {
            im.process(r);
        }
        let pairs: Vec<(f64, f64)> = trace
            .stats
            .truth
            .flows_at_least(500)
            .iter()
            .map(|(k, t)| (im.estimate_packets(k), *t as f64))
            .collect();
        assert!(pairs.len() >= 10, "seed {seed}: too few elephants");
        let se = standard_error(&pairs).unwrap();
        assert!(se < 0.12, "seed {seed}: SE {se}");
        // And the estimator is roughly unbiased (mean signed error ~0).
        let bias: f64 = pairs.iter().map(|(e, t)| (e - t) / t).sum::<f64>() / pairs.len() as f64;
        assert!(bias.abs() < 0.06, "seed {seed}: bias {bias}");
    }
}

#[test]
fn analytic_model_tracks_simulation_across_seeds() {
    // The chain model is seed-free; simulations with different hash seeds
    // must all land near it.
    let trace = caida_like(0.02, 123);
    let sizes: Vec<u64> = trace.stats.truth.packets.values().copied().collect();
    let analytic = analysis::expected_regulation_rate(&sketch(0), &sizes, 2);
    for seed in 0..6u64 {
        let mut fr = FlowRegulator::new(sketch(seed));
        for r in &trace.records {
            fr.process(r);
        }
        let rate = fr.stats().regulation_rate();
        let rel = (rate - analytic).abs() / analytic;
        assert!(rel < 0.35, "seed {seed}: simulated {rate} vs analytic {analytic}");
    }
}
