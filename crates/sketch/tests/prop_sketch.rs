//! Property tests on the sketch invariants.

use instameasure_packet::{FlowKey, PacketRecord, Protocol};
use instameasure_sketch::{decode, FlowFilter, FlowRegulator, Rcc, SketchConfig};
use proptest::prelude::*;

fn key(i: u32) -> FlowKey {
    FlowKey::new(i.to_be_bytes(), (i ^ 0xFFFF).to_be_bytes(), 20, 30, Protocol::Tcp)
}

proptest! {
    #[test]
    fn decode_monotone_in_zeros(b in 2u32..=64, f in 0.0f64..0.9) {
        let mut prev = f64::INFINITY;
        for z in 0..=b {
            let e = decode::estimate_own_packets(b, z, f);
            prop_assert!(e.is_finite() && e >= 0.0);
            prop_assert!(e <= prev + 1e-9, "b={} z={} f={}: {} > prev {}", b, z, f, e, prev);
            prev = e;
        }
    }

    #[test]
    fn decode_monotone_in_noise(b in 2u32..=64, z in 1u32..8) {
        prop_assume!(z <= b);
        let mut prev = f64::INFINITY;
        for step in 0..10 {
            let f = f64::from(step) * 0.1;
            let e = decode::estimate_own_packets(b, z, f);
            prop_assert!(e <= prev + 1e-9);
            prev = e;
        }
    }

    #[test]
    fn harmonic_matches_partial_sums(n in 1u32..200) {
        let exact: f64 = (1..=n).map(|i| 1.0 / f64::from(i)).sum();
        let approx = decode::harmonic_cont(f64::from(n));
        prop_assert!((exact - approx).abs() < 1e-8, "H({n}) {exact} vs {approx}");
    }

    #[test]
    fn conservation_single_flow(
        n in 100u64..20_000,
        seed in 0u64..1000,
        vector_bits in prop::sample::select(vec![4u32, 8, 16]),
    ) {
        // Released + residual must track the true count of an isolated
        // elephant flow within a generous bound.
        let cfg = SketchConfig::builder()
            .memory_bytes(16 * 1024)
            .vector_bits(vector_bits)
            .seed(seed)
            .build()
            .unwrap();
        let mut fr = FlowRegulator::new(cfg);
        let k = key(seed as u32);
        let mut released = 0.0;
        for t in 0..n {
            if let Some(u) = fr.process(&PacketRecord::new(k, 700, t)) {
                prop_assert!(u.est_pkts > 0.0);
                released += u.est_pkts;
            }
        }
        let total = released + fr.residual_packets(&k);
        let rel = (total - n as f64).abs() / n as f64;
        // Small n is dominated by quantization of one retention cycle.
        let capacity = 2.0 * decode::coupon_expected(vector_bits, 0).powi(2);
        let bound = (0.35f64).max(3.0 * capacity / n as f64);
        prop_assert!(rel < bound, "n={} est={} rel={} bound={}", n, total, rel, bound);
    }

    #[test]
    fn rcc_saturation_count_scales(n in 1000u64..50_000, seed in 0u64..100) {
        let cfg = SketchConfig::builder()
            .memory_bytes(4096)
            .vector_bits(8)
            .seed(seed)
            .build()
            .unwrap();
        let mut rcc = Rcc::new(cfg);
        let k = key(7);
        for _ in 0..n {
            rcc.encode(&k);
        }
        let period = n as f64 / rcc.saturations().max(1) as f64;
        let model = decode::saturation_period(8, 3);
        prop_assert!(
            (period - model).abs() / model < 0.25,
            "period {} vs model {}", period, model
        );
    }

    #[test]
    fn regulator_stats_are_consistent(flows in 1u32..50, pkts_per_flow in 1u64..200) {
        let cfg = SketchConfig::builder().memory_bytes(8192).vector_bits(8).build().unwrap();
        for reg in [&mut FlowRegulator::new(cfg) as &mut dyn FlowFilter,
                    &mut FlowRegulator::single_layer(cfg) as &mut dyn FlowFilter] {
            let mut updates = 0u64;
            for i in 0..flows {
                for t in 0..pkts_per_flow {
                    if reg.process(&PacketRecord::new(key(i), 64, t)).is_some() {
                        updates += 1;
                    }
                }
            }
            let s = reg.stats();
            prop_assert_eq!(s.packets, u64::from(flows) * pkts_per_flow);
            prop_assert_eq!(s.updates, updates);
            prop_assert!(s.mem_accesses >= s.packets);
            prop_assert!(s.mem_accesses <= 2 * s.packets, "at most 2 accesses per packet");
            prop_assert_eq!(s.hashes, s.packets, "one hash per packet");
        }
    }

    #[test]
    fn residual_never_negative_or_nan(ops in prop::collection::vec((0u32..20, 40u16..1500), 1..500)) {
        let cfg = SketchConfig::builder().memory_bytes(512).vector_bits(8).build().unwrap();
        let mut fr = FlowRegulator::new(cfg);
        for (t, (i, len)) in ops.iter().enumerate() {
            fr.process(&PacketRecord::new(key(*i), *len, t as u64));
        }
        for i in 0..20 {
            let r = fr.residual_packets(&key(i));
            prop_assert!(r.is_finite() && r >= 0.0);
        }
    }
}
