//! Determinism battery for the streaming detectors: the per-shard
//! feature capture must be an *exact* decomposition of the epoch.
//!
//! The popcount dispatch rule keys every flow of one source to one
//! shard, so per-shard [`EpochFeatures`] partition the epoch's flow set
//! and fan sets. This suite pins the consequences:
//!
//! * merging per-shard features is order-invariant, bit-for-bit;
//! * detector verdicts over the merged features are identical for every
//!   batch size and merge order, for every filter front end;
//! * the verdict *set* (kind + subject) matches the single-shard run at
//!   every worker count — sketch collision patterns shift with
//!   sharding, so estimates may wiggle in low bits, but who gets
//!   flagged for what may not change;
//! * the features the live engine's workers capture at rotation are
//!   bit-identical to an offline replay of the same per-shard streams.

mod support;

use std::collections::BTreeSet;

use instameasure::core::detect::{
    Anomaly, AnomalyKind, DetectorConfig, DetectorSuite, EpochFeatures, Subject,
};
use instameasure::core::{InstaMeasure, InstaMeasureConfig};
use instameasure::packet::{FlowKey, PacketRecord, Protocol};
use instameasure::service::engine::{Engine, EngineConfig};
use instameasure::sketch::{FilterKind, ALL_FILTER_KINDS};
use instameasure::telemetry::SharedRegistry;
use instameasure::traffic::adversarial::{horizontal_scan, syn_flood};
use instameasure::traffic::{merge_records, SyntheticTraceBuilder};
use support::oracle::{replay, replay_batched, shard_records, test_worker_counts};

fn cfg(kind: FilterKind) -> InstaMeasureConfig {
    InstaMeasureConfig::default().small_for_tests().with_filter(kind)
}

fn features_of(im: &InstaMeasure) -> EpochFeatures {
    let mut f = EpochFeatures::default();
    f.absorb(im.wsaf());
    f
}

/// Benign background plus a scan, a flood and one elephant — every
/// detector has something to say about this epoch.
fn attack_mix() -> Vec<PacketRecord> {
    let benign = SyntheticTraceBuilder::new().num_flows(800).seed(13).build().records;
    let (flood, _) = syn_flood(120, 300, 0);
    let (scan, _) = horizontal_scan(150, 300, 0);
    let elephant_key = FlowKey::new([198, 51, 100, 9], [203, 0, 113, 7], 40_009, 80, Protocol::Udp);
    let elephant = (0..20_000u64).map(|t| PacketRecord::new(elephant_key, 1400, t)).collect();
    merge_records(vec![benign, flood, scan, elephant])
}

/// The stable projection of a verdict list: who was flagged for what.
fn flagged(verdicts: &[Anomaly]) -> BTreeSet<(AnomalyKind, Subject)> {
    verdicts.iter().map(|a| (a.kind, a.subject)).collect()
}

fn bits(f: &EpochFeatures) -> (usize, u64, u64) {
    (f.flows(), f.total_packets().to_bits(), f.normalized_entropy().to_bits())
}

#[test]
fn shard_merged_verdicts_are_deterministic_for_every_filter() {
    let records = attack_mix();
    let suite = DetectorSuite::standard(DetectorConfig::default());
    for kind in ALL_FILTER_KINDS {
        // Pressure-fed front ends (swing, hashflow) release flows to the
        // WSAF on eviction, so *which* flows surface shifts with shard
        // pressure — only admission-local filters promise the same
        // flagged set at every worker count.
        let shard_invariant = matches!(kind, FilterKind::Regulator | FilterKind::Rcc);
        let single = features_of(&replay(&records, cfg(kind)));
        let single_verdicts = suite.evaluate(1, None, &single);
        if shard_invariant {
            assert!(
                flagged(&single_verdicts).iter().any(|(k, _)| *k == AnomalyKind::SuperSpreader),
                "{kind:?}: the scan must flag in the reference run"
            );
            assert!(
                flagged(&single_verdicts).iter().any(|(k, _)| *k == AnomalyKind::DdosVictim),
                "{kind:?}: the flood must flag in the reference run"
            );
        }

        for workers in test_worker_counts() {
            let shards = shard_records(&records, workers);
            let mut reference: Option<Vec<Anomaly>> = None;
            for batch in [1usize, 7, 256] {
                let per_shard: Vec<EpochFeatures> = shards
                    .iter()
                    .map(|s| features_of(&replay_batched(s, cfg(kind), batch)))
                    .collect();

                // Merge order must not matter, down to the bit.
                let mut fwd = EpochFeatures::default();
                for f in &per_shard {
                    fwd.merge(f);
                }
                let mut rev = EpochFeatures::default();
                for f in per_shard.iter().rev() {
                    rev.merge(f);
                }
                assert_eq!(bits(&fwd), bits(&rev), "{kind:?}/{workers}w/b{batch}: merge order");
                let fwd_verdicts = suite.evaluate(1, None, &fwd);
                assert_eq!(
                    fwd_verdicts,
                    suite.evaluate(1, None, &rev),
                    "{kind:?}/{workers}w/b{batch}: verdicts depend on merge order"
                );

                // Batch size must not matter at all.
                match &reference {
                    None => reference = Some(fwd_verdicts),
                    Some(r) => assert_eq!(
                        r, &fwd_verdicts,
                        "{kind:?}/{workers}w/b{batch}: verdicts depend on batch size"
                    ),
                }
            }

            // Across worker counts, sketch collision sets shift, so
            // scores may wiggle — but the flagged set is the verdict.
            let sharded = reference.expect("at least one batch size ran");
            if shard_invariant {
                assert_eq!(
                    flagged(&sharded),
                    flagged(&single_verdicts),
                    "{kind:?}/{workers}w: sharding changed who was flagged"
                );
            }
        }
    }
}

#[test]
fn two_epoch_windows_are_deterministic_across_batch_and_merge_order() {
    // Differential detectors (entropy shift, heavy change) read a
    // (prev, cur) window; both sides come from merged shard captures,
    // so the window verdict must be as deterministic as each side.
    let benign = SyntheticTraceBuilder::new().num_flows(800).seed(13).build().records;
    let attack = attack_mix();
    let suite = DetectorSuite::standard(DetectorConfig::default());
    let kind = FilterKind::Regulator;

    let prev_single = features_of(&replay(&benign, cfg(kind)));
    let cur_single = features_of(&replay(&attack, cfg(kind)));
    let single = suite.evaluate(2, Some(&prev_single), &cur_single);
    assert!(
        flagged(&single).iter().any(|(k, _)| *k == AnomalyKind::HeavyChange),
        "the elephant must register as a heavy change in the reference window"
    );

    for workers in test_worker_counts() {
        let mut reference: Option<Vec<Anomaly>> = None;
        for batch in [1usize, 7, 256] {
            let merged = |records: &[PacketRecord]| {
                let mut out = EpochFeatures::default();
                for s in &shard_records(records, workers) {
                    out.merge(&features_of(&replay_batched(s, cfg(kind), batch)));
                }
                out
            };
            let verdicts = suite.evaluate(2, Some(&merged(&benign)), &merged(&attack));
            match &reference {
                None => reference = Some(verdicts),
                Some(r) => {
                    assert_eq!(r, &verdicts, "{workers}w/b{batch}: window verdicts diverged");
                }
            }
        }
        let sharded = reference.expect("at least one batch size ran");
        assert_eq!(
            flagged(&sharded),
            flagged(&single),
            "{workers}w: sharding changed the window's flagged set"
        );
    }
}

#[test]
fn live_rotation_snapshots_match_offline_shard_replay_features() {
    // The detection runtime reads the features each worker captures at
    // rotation; those must equal what an offline replay of each shard's
    // stream yields — otherwise the batteries above prove nothing about
    // the daemon.
    let records = attack_mix();
    for workers in test_worker_counts() {
        let registry = std::sync::Arc::new(SharedRegistry::new());
        let config = EngineConfig {
            workers,
            batch_size: 64,
            queue_batches: 8,
            pin: false,
            per_worker: cfg(FilterKind::Regulator),
        };
        let engine = Engine::start(&config, std::sync::Arc::clone(&registry));
        let mut lane = engine.lane().expect("engine is open");
        for slice in records.chunks(997) {
            lane.submit(slice).expect("engine is open");
        }
        drop(lane); // flush-on-drop ships the ragged tail
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while engine.packets_processed() < records.len() as u64 {
            assert!(std::time::Instant::now() < deadline, "workers never caught up");
            std::thread::yield_now();
        }

        let outcome = engine.rotate_with_snapshots();
        assert_eq!(outcome.features.len(), workers);
        let mut live = EpochFeatures::default();
        for f in &outcome.features {
            live.merge(f);
        }
        let mut offline = EpochFeatures::default();
        for s in &shard_records(&records, workers) {
            offline.merge(&features_of(&replay(s, cfg(FilterKind::Regulator))));
        }
        assert_eq!(bits(&live), bits(&offline), "{workers}w: live capture != offline replay");
        let suite = DetectorSuite::standard(DetectorConfig::default());
        assert_eq!(
            suite.evaluate(1, None, &live),
            suite.evaluate(1, None, &offline),
            "{workers}w: live verdicts != offline verdicts"
        );
        engine.drain();
    }
}
