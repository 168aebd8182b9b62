//! The single-layer RCC baseline filter (the paper's Figs. 1/7/8
//! baseline). The filter abstraction lives in [`crate::filter`] as
//! [`FlowFilter`].

use instameasure_packet::{FlowDigest, PacketRecord};
use instameasure_telemetry::{Instrumented, Snapshot};

use crate::config::SketchConfig;
use crate::filter::{FilterStats, FlowFilter, FlowUpdate};
use crate::rcc::Rcc;

/// Single-layer RCC used as the paper's baseline regulator (Figs. 1, 7, 8):
/// every L1 saturation goes straight to the WSAF.
#[derive(Debug, Clone)]
pub struct SingleLayerRcc {
    rcc: Rcc,
    stats: FilterStats,
    /// Recycled per-batch scratch: one digest and one lane hash per packet.
    digest_scratch: Vec<FlowDigest>,
    lane_scratch: Vec<u64>,
}

impl SingleLayerRcc {
    /// Creates the baseline regulator.
    #[must_use]
    pub fn new(cfg: SketchConfig) -> Self {
        SingleLayerRcc {
            rcc: Rcc::new(cfg),
            stats: FilterStats::default(),
            digest_scratch: Vec::new(),
            lane_scratch: Vec::new(),
        }
    }

    /// Access to the underlying RCC layer.
    #[must_use]
    pub fn rcc(&self) -> &Rcc {
        &self.rcc
    }
}

impl FlowFilter for SingleLayerRcc {
    fn process(&mut self, pkt: &PacketRecord) -> Option<FlowUpdate> {
        self.stats.packets += 1;
        self.stats.hashes += 1;
        self.stats.mem_accesses += 1;
        let digest = FlowDigest::of(&pkt.key);
        let sat = self.rcc.encode_hashed(self.rcc.hash_digest(digest))?;
        self.stats.updates += 1;
        Some(FlowUpdate {
            key: pkt.key,
            digest,
            est_pkts: sat.estimate,
            est_bytes: sat.estimate * f64::from(pkt.wire_len),
            ts_nanos: pkt.ts_nanos,
        })
    }

    /// Batched baseline: digest + lane every packet up front (AVX2, four
    /// keys per step, where available), then drive [`Rcc::encode_batch`]
    /// (vectorized placement derivation + counter-word prefetch across
    /// the batch). Bit-identical to the scalar path.
    fn process_batch(&mut self, pkts: &[PacketRecord], out: &mut Vec<FlowUpdate>) {
        let mut digests = core::mem::take(&mut self.digest_scratch);
        let mut lanes = core::mem::take(&mut self.lane_scratch);
        instameasure_packet::simd::digest_lanes_into(
            pkts,
            self.rcc.config().seed(),
            &mut digests,
            &mut lanes,
        );

        self.stats.packets += pkts.len() as u64;
        self.stats.hashes += pkts.len() as u64;
        self.stats.mem_accesses += pkts.len() as u64;

        // Split borrows: the encode loop mutates the RCC while the sink
        // mutates the statistics and output buffer.
        let SingleLayerRcc { rcc, stats, .. } = self;
        rcc.encode_batch(&lanes, |i, sat| {
            stats.updates += 1;
            out.push(FlowUpdate {
                key: pkts[i].key,
                digest: digests[i],
                est_pkts: sat.estimate,
                est_bytes: sat.estimate * f64::from(pkts[i].wire_len),
                ts_nanos: pkts[i].ts_nanos,
            });
        });

        self.digest_scratch = digests;
        self.lane_scratch = lanes;
    }

    fn estimate_packets(&self, digest: FlowDigest) -> f64 {
        self.rcc.residual_hashed(self.rcc.hash_digest(digest))
    }

    fn stats(&self) -> FilterStats {
        self.stats
    }

    fn memory_bytes(&self) -> usize {
        self.rcc.config().memory_bytes()
    }

    fn reset(&mut self) {
        self.rcc.reset();
        self.stats = FilterStats::default();
    }
}

impl Instrumented for SingleLayerRcc {
    /// Exports the baseline regulator's counters under the `rcc.` prefix,
    /// mirroring the names [`crate::FlowRegulator`] uses under
    /// `regulator.` so the two are comparable side by side.
    fn telemetry(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        snap.set_counter("rcc.packets", self.stats.packets);
        snap.set_counter("rcc.updates", self.stats.updates);
        snap.set_counter("rcc.hashes", self.stats.hashes);
        snap.set_counter("rcc.mem_accesses", self.stats.mem_accesses);
        snap.set_gauge("rcc.regulation_rate", self.stats.regulation_rate());
        snap.set_gauge("rcc.fill_ratio", self.rcc.fill_ratio());
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instameasure_packet::{FlowKey, Protocol};

    fn key(i: u32) -> FlowKey {
        FlowKey::new(i.to_be_bytes(), [9, 9, 9, 9], 10, 20, Protocol::Udp)
    }

    fn pkt(i: u32, t: u64) -> PacketRecord {
        PacketRecord::new(key(i), 500, t)
    }

    #[test]
    fn stats_rates() {
        let s = FilterStats { packets: 200, updates: 25, mem_accesses: 210, hashes: 200 };
        assert!((s.regulation_rate() - 0.125).abs() < 1e-12);
        assert!((s.accesses_per_packet() - 1.05).abs() < 1e-12);
        assert_eq!(FilterStats::default().regulation_rate(), 0.0);
        assert_eq!(FilterStats::default().accesses_per_packet(), 0.0);
    }

    #[test]
    fn single_layer_regulation_rate_matches_fig1() {
        // Paper Fig. 1: 8-bit RCC passes 12–19% of packets through to the
        // WSAF. For a single elephant flow the rate is 1/coupon ≈ 14%.
        let cfg = SketchConfig::builder().memory_bytes(4096).vector_bits(8).build().unwrap();
        let mut reg = SingleLayerRcc::new(cfg);
        for t in 0..100_000u64 {
            reg.process(&pkt(1, t));
        }
        let rate = reg.stats().regulation_rate();
        assert!((0.10..0.20).contains(&rate), "RCC regulation rate {rate}");
    }

    #[test]
    fn single_layer_one_access_one_hash_per_packet() {
        let mut reg = SingleLayerRcc::new(SketchConfig::default());
        for t in 0..1000 {
            reg.process(&pkt(t as u32 % 10, t));
        }
        let s = reg.stats();
        assert_eq!(s.mem_accesses, 1000);
        assert_eq!(s.hashes, 1000);
    }

    #[test]
    fn updates_carry_byte_estimates() {
        let cfg = SketchConfig::builder().memory_bytes(4096).vector_bits(8).build().unwrap();
        let mut reg = SingleLayerRcc::new(cfg);
        let mut saw_update = false;
        for t in 0..1000u64 {
            if let Some(u) = reg.process(&PacketRecord::new(key(1), 1500, t)) {
                assert!((u.est_bytes - u.est_pkts * 1500.0).abs() < 1e-9);
                assert_eq!(u.ts_nanos, t);
                saw_update = true;
            }
        }
        assert!(saw_update);
    }

    #[test]
    fn batch_is_bit_identical_to_scalar() {
        let trace: Vec<PacketRecord> = (0..5_000u64)
            .map(|t| PacketRecord::new(key((t % 23) as u32), 200 + (t % 1300) as u16, t))
            .collect();
        for chunk in [1usize, 7, 64, 333, 5_000] {
            let cfg = SketchConfig::builder().memory_bytes(2048).vector_bits(8).build().unwrap();
            let mut scalar = SingleLayerRcc::new(cfg);
            let mut batched = SingleLayerRcc::new(cfg);

            let mut scalar_out = Vec::new();
            for pkt in &trace {
                if let Some(u) = scalar.process(pkt) {
                    scalar_out.push(u);
                }
            }
            let mut batch_out = Vec::new();
            for pkts in trace.chunks(chunk) {
                batched.process_batch(pkts, &mut batch_out);
            }

            assert_eq!(scalar_out, batch_out, "chunk={chunk}");
            assert_eq!(scalar.stats(), batched.stats(), "chunk={chunk}");
            for i in 0..23 {
                let a = scalar.residual_packets(&key(i));
                let b = batched.residual_packets(&key(i));
                assert_eq!(a.to_bits(), b.to_bits(), "chunk={chunk} flow={i}");
            }
        }
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut reg = SingleLayerRcc::new(SketchConfig::default());
        for t in 0..100 {
            reg.process(&pkt(1, t));
        }
        reg.reset();
        assert_eq!(reg.stats(), FilterStats::default());
        assert_eq!(reg.residual_packets(&key(1)), 0.0);
    }

    #[test]
    fn digest_estimate_matches_key_residual() {
        let mut reg = SingleLayerRcc::new(SketchConfig::default());
        for t in 0..500 {
            reg.process(&pkt(3, t));
        }
        let by_key = reg.residual_packets(&key(3));
        let by_digest = reg.estimate_packets(FlowDigest::of(&key(3)));
        assert_eq!(by_key.to_bits(), by_digest.to_bits());
    }
}
