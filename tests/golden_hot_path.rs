//! Golden checksums of the probabilistic front ends and the system built
//! on them, pinned to values recorded before the hot path was last
//! optimized.
//!
//! The differential suites (`filter_conformance`, `batched_hot_path`,
//! `prop_simd_differential`) compare two paths of the *same* build — the
//! scalar oracle against the batched one — so a change that both paths
//! share (a decode table, a reused placement) would slip past them. These
//! checksums compare against the recorded output instead: every
//! [`FlowUpdate`] the [`FlowRegulator`] (all four ablation combinations)
//! and the flat depth-1 [`FlowRegulator`] release on a seeded CAIDA-like trace,
//! through `process_batch` and through scalar `process`, and the WSAF
//! top-k plus the point estimates of [`InstaMeasure`] on the same trace.
//!
//! If one of these fails, the measurement itself changed: either the
//! change is a bug, or it is a deliberate change of the algorithm and the
//! constants must be re-recorded with the reason in the changelog.

use instameasure::core::{InstaMeasure, InstaMeasureConfig};
use instameasure::packet::PacketRecord;
use instameasure::sketch::{
    FilterKind, FlowFilter, FlowRegulator, FlowRegulatorOptions, FlowUpdate, SketchConfig,
};
use instameasure::traffic::presets::caida_like;

/// Packets per `process_batch` call (the service's dispatch batch).
const BATCH: usize = 256;

/// FNV-1a over a stream of words: order-sensitive and stable across
/// platforms and releases.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn update(&mut self, u: &FlowUpdate) {
        self.bytes(&u.key.to_bytes());
        self.word(u.digest.raw());
        self.word(u.est_pkts.to_bits());
        self.word(u.est_bytes.to_bits());
        self.word(u.ts_nanos);
    }
}

fn trace(seed: u64) -> Vec<PacketRecord> {
    caida_like(0.02, seed).records
}

fn sketch(vector_bits: u32) -> SketchConfig {
    SketchConfig::builder()
        .memory_bytes(8 * 1024)
        .vector_bits(vector_bits)
        .seed(0x5EED)
        .build()
        .expect("static test geometry is valid")
}

/// Checksum of the updates `filter` releases on `records`, batched or
/// scalar, plus its final work counters and residuals for a sample of
/// the trace's flows.
fn filter_checksum(mut filter: impl FlowFilter, records: &[PacketRecord], batched: bool) -> u64 {
    let mut h = Fnv::new();
    let mut updates = Vec::new();
    if batched {
        for chunk in records.chunks(BATCH) {
            updates.clear();
            filter.process_batch(chunk, &mut updates);
            updates.iter().for_each(|u| h.update(u));
        }
    } else {
        for pkt in records {
            if let Some(u) = filter.process(pkt) {
                h.update(&u);
            }
        }
    }
    let stats = filter.stats();
    for w in [stats.packets, stats.updates, stats.hashes, stats.mem_accesses] {
        h.word(w);
    }
    for pkt in records.iter().step_by(97) {
        h.word(filter.estimate_packets(instameasure::packet::FlowDigest::of(&pkt.key)).to_bits());
    }
    h.0
}

fn regulator(vector_bits: u32, shared_l2: bool, independent_l2_hash: bool) -> FlowRegulator {
    FlowRegulator::with_options(
        sketch(vector_bits),
        FlowRegulatorOptions { shared_l2, independent_l2_hash },
    )
}

/// `(vector_bits, shared_l2, independent_l2_hash, checksum)`, recorded
/// on trace seed 11. Batched and scalar must both reproduce it.
const REGULATOR_GOLDEN: [(u32, bool, bool, u64); 5] = [
    (8, false, false, 0x00a8_f177_44fc_d393),
    (8, true, false, 0x41cf_aed7_6bf2_3526),
    (8, false, true, 0xa7c8_a219_0407_1c7d),
    (8, true, true, 0x6d91_1b95_75f8_1d5a),
    (16, false, false, 0x3426_1333_a0ef_1485),
];

/// `(vector_bits, checksum)` of the flat RCC on trace seed 11.
const RCC_GOLDEN: [(u32, u64); 2] = [(8, 0x1a30_7f1d_10cd_a9c9), (16, 0x56ff_8bca_258a_6b41)];

/// Checksum of `InstaMeasure`'s WSAF top-100 and point estimates on
/// trace seed 11, at the default geometry (regulator front end).
const SYSTEM_GOLDEN: u64 = 0xcc71_29fb_4e28_f185;

#[test]
fn flow_regulator_updates_match_the_recorded_checksums() {
    let records = trace(11);
    for (bits, shared, indep, golden) in REGULATOR_GOLDEN {
        for batched in [true, false] {
            let got = filter_checksum(regulator(bits, shared, indep), &records, batched);
            assert_eq!(
                got, golden,
                "regulator b={bits} shared_l2={shared} independent_l2_hash={indep} \
                 batched={batched}: {got:#018x}"
            );
        }
    }
}

#[test]
fn single_layer_rcc_updates_match_the_recorded_checksums() {
    let records = trace(11);
    for (bits, golden) in RCC_GOLDEN {
        for batched in [true, false] {
            let got = filter_checksum(FlowRegulator::single_layer(sketch(bits)), &records, batched);
            assert_eq!(got, golden, "rcc b={bits} batched={batched}: {got:#018x}");
        }
    }
}

#[test]
fn system_top_k_and_estimates_match_the_recorded_checksum() {
    let records = trace(11);
    let cfg = InstaMeasureConfig::default().with_filter(FilterKind::Regulator);
    let mut batched = InstaMeasure::new(cfg);
    for chunk in records.chunks(BATCH) {
        batched.process_batch(chunk);
    }
    let mut scalar = InstaMeasure::new(cfg);
    for pkt in &records {
        scalar.process(pkt);
    }
    for (path, system) in [("batched", &batched), ("scalar", &scalar)] {
        let mut h = Fnv::new();
        let top = system.wsaf().top_k_by_packets(100);
        assert!(top.len() >= 50, "{path}: the trace must overflow into the WSAF");
        for e in &top {
            h.bytes(&e.key.to_bytes());
            h.word(e.packets.to_bits());
            h.word(e.bytes.to_bits());
            h.word(e.first_ts);
            h.word(e.last_ts);
            h.word(system.estimate_packets(&e.key).to_bits());
            h.word(system.estimate_bytes(&e.key).to_bits());
        }
        for pkt in records.iter().step_by(101) {
            h.word(system.estimate_packets(&pkt.key).to_bits());
        }
        assert_eq!(h.0, SYSTEM_GOLDEN, "{path}: {:#018x}", h.0);
    }
}
