//! Exact analytic model of RCC/FlowRegulator saturation behaviour.
//!
//! The decode module gives the closed-form *expectations* (coupon-collector
//! epochs). This module computes the exact distribution-level quantities by
//! evolving the underlying Markov chain — the state is the number of own
//! vector bits set — packet by packet:
//!
//! * how many saturations a flow of size `s` produces in expectation
//!   ([`SaturationChain::expected_saturations`]);
//! * the probability a mouse of size `s` leaks through a layer at all
//!   ([`SaturationChain::saturation_probability`]);
//! * the expected WSAF insertion rate for a whole workload
//!   ([`expected_regulation_rate`]) — the analytic counterpart of the
//!   Figs. 1/7 measurements, with no noise terms (single-flow chain).
//!
//! Every prediction is validated against simulation in the test suite.

use crate::config::SketchConfig;

/// The single-flow saturation Markov chain of one RCC layer.
///
/// State `k` = own vector bits set (`0..=b-noise_max-1`); each packet moves
/// `k → k+1` with probability `(b-k)/b` (it hit a still-zero position) and
/// stays with probability `k/b`. Reaching `b - noise_max` set bits is a
/// saturation, which resets the state to 0.
///
/// # Example
///
/// ```
/// use instameasure_sketch::analysis::SaturationChain;
/// use instameasure_sketch::SketchConfig;
///
/// let chain = SaturationChain::new(&SketchConfig::default()); // b=8, z*=3
/// // A 3-packet mouse almost never saturates…
/// assert!(chain.saturation_probability(3) < 0.05);
/// // …and the mean packets-per-saturation matches the coupon epoch.
/// let per_sat = 100_000.0 / chain.expected_saturations(100_000);
/// assert!((per_sat - 7.076).abs() < 0.05, "{per_sat}");
/// ```
#[derive(Debug, Clone)]
pub struct SaturationChain {
    /// Vector size `b`.
    b: u32,
    /// Set-bit count that triggers saturation (`b - noise_max`).
    threshold: u32,
}

impl SaturationChain {
    /// Builds the chain for a layer geometry.
    #[must_use]
    pub fn new(cfg: &SketchConfig) -> Self {
        SaturationChain { b: cfg.vector_bits(), threshold: cfg.vector_bits() - cfg.noise_max() }
    }

    /// Expected number of saturations a flow of exactly `s` packets
    /// produces (noise-free). `O(s·b)` exact dynamic program.
    #[must_use]
    pub fn expected_saturations(&self, s: u64) -> f64 {
        let b = self.b as usize;
        let thr = self.threshold as usize;
        // probs[k] = P(state == k); saturations accumulates expected resets.
        let mut probs = vec![0.0f64; thr];
        probs[0] = 1.0;
        let mut saturations = 0.0;
        let bf = self.b as f64;
        let mut next = vec![0.0f64; thr];
        for _ in 0..s {
            next.fill(0.0);
            let mut newly_saturated = 0.0;
            for (k, &p) in probs.iter().enumerate() {
                if p == 0.0 {
                    continue;
                }
                let hit_zero = (b - k) as f64 / bf;
                let stay = 1.0 - hit_zero;
                next[k] += p * stay;
                if k + 1 == thr {
                    newly_saturated += p * hit_zero;
                } else {
                    next[k + 1] += p * hit_zero;
                }
            }
            // A saturation resets to state 0.
            next[0] += newly_saturated;
            saturations += newly_saturated;
            std::mem::swap(&mut probs, &mut next);
        }
        saturations
    }

    /// Probability a flow of exactly `s` packets saturates at least once —
    /// the leak-through probability of a mouse.
    #[must_use]
    pub fn saturation_probability(&self, s: u64) -> f64 {
        let b = self.b as usize;
        let thr = self.threshold as usize;
        if s < thr as u64 {
            return 0.0;
        }
        // Absorbing version of the chain: saturation is absorbing.
        let mut probs = vec![0.0f64; thr + 1];
        probs[0] = 1.0;
        let bf = self.b as f64;
        for _ in 0..s {
            let mut next = vec![0.0f64; thr + 1];
            next[thr] = probs[thr]; // absorbed stays absorbed
            for (k, &p) in probs.iter().take(thr).enumerate() {
                if p == 0.0 {
                    continue;
                }
                let hit_zero = (b - k) as f64 / bf;
                next[k] += p * (1.0 - hit_zero);
                next[k + 1] += p * hit_zero;
            }
            probs = next;
        }
        probs[thr]
    }
}

/// Expected WSAF updates a flow of size `s` produces through an `layers`-
/// layer FlowRegulator (noise-free): the L1 chain's expected saturations
/// are fed, in expectation, through each subsequent layer's chain.
///
/// The expectation-of-composition approximation is exact in the fluid
/// limit and accurate to a few percent for elephants; mice are dominated
/// by the leak-through probability which the chain captures exactly at
/// layer 1.
///
/// # Panics
///
/// Panics if `layers` is zero.
#[must_use]
pub fn expected_updates(cfg: &SketchConfig, s: u64, layers: u32) -> f64 {
    assert!(layers > 0, "need at least one layer");
    let chain = SaturationChain::new(cfg);
    let mut count = chain.expected_saturations(s);
    for _ in 1..layers {
        // Feed the (fractional) expected saturations through the next
        // layer: interpolate the DP between floor and ceil.
        let lo = count.floor() as u64;
        let frac = count - lo as f64;
        let at_lo = chain.expected_saturations(lo);
        let at_hi = chain.expected_saturations(lo + 1);
        count = at_lo + frac * (at_hi - at_lo);
    }
    count
}

/// Analytic regulation rate (WSAF updates per packet) for a workload given
/// as flow sizes — the noise-free counterpart of the Figs. 1/7 curves.
///
/// # Panics
///
/// Panics if `layers` is zero.
#[must_use]
pub fn expected_regulation_rate(cfg: &SketchConfig, sizes: &[u64], layers: u32) -> f64 {
    let total: u64 = sizes.iter().sum();
    if total == 0 {
        return 0.0;
    }
    // Group identical sizes (Zipf tails are mostly 1s and 2s).
    let mut by_size: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for &s in sizes {
        *by_size.entry(s).or_insert(0) += 1;
    }
    let updates: f64 =
        by_size.into_iter().map(|(s, n)| n as f64 * expected_updates(cfg, s, layers)).sum();
    updates / total as f64
}

/// Memory accesses a WSAF insertion itself costs: one hash probe plus one
/// write into the open-addressed table.
pub const WSAF_ACCESSES_PER_INSERT: f64 = 2.0;

/// Expected slow-memory accesses per WSAF insertion for an `layers`-layer
/// FlowRegulator over the given workload — the honest replacement for the
/// historical "every insertion is exactly two accesses" constant.
///
/// Deployment model (paper Fig. 2): only layer 1 lives in fast on-chip
/// memory; layers 2..=L sit in the same slow memory as the WSAF. Every
/// saturation of layer `k` therefore costs one slow access to layer `k+1`,
/// and each final-layer saturation additionally pays
/// [`WSAF_ACCESSES_PER_INSERT`] for the table itself. Amortized over the
/// insertions that actually reach the WSAF:
///
/// ```text
/// probes_per_insert = (Σ_{k=1}^{L-1} rate_k + 2·rate_L) / rate_L
/// ```
///
/// where `rate_k` is the expected per-packet release rate out of layer `k`
/// ([`expected_regulation_rate`] with `k` layers). For a single layer this
/// collapses to exactly [`WSAF_ACCESSES_PER_INSERT`] — the old constant
/// was only ever right for plain RCC. Deeper cascades grow *more*
/// expensive per insertion (the layer-2 feed rate dominates), which is why
/// the tuner cannot buy margin with depth alone when the intermediate
/// layers share the WSAF's memory.
///
/// Returns [`WSAF_ACCESSES_PER_INSERT`] when the workload produces no
/// insertions at all (the chain is never walked).
///
/// # Panics
///
/// Panics if `layers` is zero.
#[must_use]
pub fn expected_probes_per_insert(cfg: &SketchConfig, sizes: &[u64], layers: u32) -> f64 {
    assert!(layers > 0, "need at least one layer");
    let final_rate = expected_regulation_rate(cfg, sizes, layers);
    if final_rate <= 0.0 {
        return WSAF_ACCESSES_PER_INSERT;
    }
    let feed: f64 = (1..layers).map(|k| expected_regulation_rate(cfg, sizes, k)).sum();
    (feed + WSAF_ACCESSES_PER_INSERT * final_rate) / final_rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode;
    use crate::filter::FlowFilter;
    use crate::FlowRegulator;
    use instameasure_packet::{FlowKey, PacketRecord, Protocol};

    fn cfg() -> SketchConfig {
        SketchConfig::builder().memory_bytes(64 * 1024).vector_bits(8).seed(4).build().unwrap()
    }

    #[test]
    fn chain_period_matches_coupon_epoch() {
        let chain = SaturationChain::new(&cfg());
        let s = 1_000_000u64;
        let per_sat = s as f64 / chain.expected_saturations(s);
        let coupon = decode::saturation_period(8, 3);
        assert!((per_sat - coupon).abs() / coupon < 0.001, "{per_sat} vs {coupon}");
    }

    #[test]
    fn mice_rarely_saturate() {
        let chain = SaturationChain::new(&cfg());
        assert_eq!(chain.saturation_probability(0), 0.0);
        assert_eq!(chain.saturation_probability(4), 0.0, "needs at least 5 set bits");
        assert!(chain.saturation_probability(5) < 0.3);
        assert!(chain.saturation_probability(3) < 0.05);
        // A 50-packet flow almost surely saturates.
        assert!(chain.saturation_probability(50) > 0.999);
        // Monotone in s.
        let mut prev = 0.0;
        for s in 0..60 {
            let p = chain.saturation_probability(s);
            assert!(p >= prev - 1e-12);
            prev = p;
        }
    }

    #[test]
    fn chain_matches_simulated_rcc_for_single_flow() {
        let key = FlowKey::new([1, 2, 3, 4], [4, 3, 2, 1], 9, 9, Protocol::Udp);
        for s in [10u64, 100, 10_000] {
            let mut reg = FlowRegulator::single_layer(cfg());
            for t in 0..s {
                reg.process(&PacketRecord::new(key, 100, t));
            }
            let simulated = reg.stats().updates as f64;
            let analytic = SaturationChain::new(&cfg()).expected_saturations(s);
            // Single runs are integer-valued; compare within ±1 + 10%.
            assert!(
                (simulated - analytic).abs() <= 1.0 + 0.1 * analytic,
                "s={s}: simulated {simulated} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn two_layer_updates_match_simulation() {
        let key = FlowKey::new([9, 9, 9, 9], [1, 1, 1, 1], 2, 2, Protocol::Tcp);
        let s = 200_000u64;
        let mut fr = FlowRegulator::new(cfg());
        for t in 0..s {
            fr.process(&PacketRecord::new(key, 100, t));
        }
        let simulated = fr.stats().updates as f64;
        let analytic = expected_updates(&cfg(), s, 2);
        let rel = (simulated - analytic).abs() / analytic;
        assert!(rel < 0.10, "simulated {simulated} vs analytic {analytic}");
    }

    #[test]
    fn regulation_rate_predicts_zipf_workload() {
        // Analytic vs simulated regulation on a small Zipf workload.
        let sizes: Vec<u64> =
            (1..=2000u64).map(|i| ((20_000.0 / i as f64).round() as u64).max(1)).collect();
        let analytic = expected_regulation_rate(&cfg(), &sizes, 2);

        let mut fr = FlowRegulator::new(cfg());
        let mut packets = 0u64;
        for (i, &s) in sizes.iter().enumerate() {
            let key = FlowKey::new((i as u32).to_be_bytes(), [5, 5, 5, 5], 7, 8, Protocol::Tcp);
            for t in 0..s {
                fr.process(&PacketRecord::new(key, 100, t));
                packets += 1;
            }
        }
        let simulated = fr.stats().updates as f64 / packets as f64;
        // Noise in the shared words makes the simulation slightly hotter;
        // the analytic (noise-free) value must be within ~35%.
        let rel = (simulated - analytic).abs() / analytic.max(1e-9);
        assert!(rel < 0.35, "simulated {simulated:.5} vs analytic {analytic:.5} (rel {rel:.2})");
    }

    #[test]
    fn deeper_layers_regulate_geometrically_in_theory_too() {
        let sizes = vec![100_000u64; 4];
        let r1 = expected_regulation_rate(&cfg(), &sizes, 1);
        let r2 = expected_regulation_rate(&cfg(), &sizes, 2);
        let r3 = expected_regulation_rate(&cfg(), &sizes, 3);
        assert!(r2 < r1 / 4.0, "{r2} vs {r1}");
        assert!(r3 < r2 / 4.0, "{r3} vs {r2}");
        // Ratios follow the coupon epoch.
        let epoch = decode::saturation_period(8, 3);
        assert!((r1 / r2 - epoch).abs() / epoch < 0.05, "{}", r1 / r2);
    }

    #[test]
    fn zero_and_empty_inputs() {
        assert_eq!(expected_regulation_rate(&cfg(), &[], 2), 0.0);
        assert_eq!(SaturationChain::new(&cfg()).expected_saturations(0), 0.0);
        assert_eq!(expected_updates(&cfg(), 0, 3), 0.0);
    }

    #[test]
    fn single_layer_probe_chain_is_the_bare_insert_cost() {
        let sizes = vec![100_000u64; 4];
        assert_eq!(expected_probes_per_insert(&cfg(), &sizes, 1), WSAF_ACCESSES_PER_INSERT);
        // No insertions at all → the chain is never walked.
        assert_eq!(expected_probes_per_insert(&cfg(), &[], 3), WSAF_ACCESSES_PER_INSERT);
        assert_eq!(expected_probes_per_insert(&cfg(), &[1, 1, 1], 2), WSAF_ACCESSES_PER_INSERT);
    }

    #[test]
    fn two_layer_probe_chain_matches_the_rate_ratio() {
        let sizes = vec![100_000u64; 4];
        let r1 = expected_regulation_rate(&cfg(), &sizes, 1);
        let r2 = expected_regulation_rate(&cfg(), &sizes, 2);
        let probes = expected_probes_per_insert(&cfg(), &sizes, 2);
        assert!((probes - (r1 / r2 + WSAF_ACCESSES_PER_INSERT)).abs() < 1e-9, "{probes}");
        // The layer-2 feed dominates: far more than 2 accesses per insert,
        // roughly one coupon epoch's worth.
        let epoch = decode::saturation_period(8, 3);
        assert!((probes - (epoch + 2.0)).abs() / epoch < 0.05, "{probes} vs epoch {epoch}");
    }

    #[test]
    fn probe_chain_grows_with_depth() {
        let sizes = vec![100_000u64; 4];
        let p1 = expected_probes_per_insert(&cfg(), &sizes, 1);
        let p2 = expected_probes_per_insert(&cfg(), &sizes, 2);
        let p3 = expected_probes_per_insert(&cfg(), &sizes, 3);
        assert!(p1 < p2 && p2 < p3, "{p1} {p2} {p3}");
    }
}
