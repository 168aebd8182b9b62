//! Epoch-windowed anomaly detectors over WSAF feature summaries.
//!
//! [`apps`](crate::apps) answers one-shot questions over a single WSAF
//! snapshot. Streaming detection needs more structure: the service
//! engine closes a measurement epoch, every shard contributes its
//! retiring WSAF state, and detectors compare the closed epoch against
//! the previous one. This module holds the pure, engine-agnostic half
//! of that pipeline:
//!
//! * [`EpochFeatures`] — a mergeable summary extracted from any number
//!   of WSAF shards, held as sorted runs: per-flow packet counts sorted
//!   by the full 5-tuple, and the distinct `(src, dst)` and `(dst, src)`
//!   host pairs. Merging per-shard summaries is *exactly* the summary
//!   of the union: a linear merge sums a key found on both sides (flows
//!   never straddle shards under popcount routing, and `+` is the safe
//!   merge even if they did) and keeps each host pair once. Every
//!   derived quantity (entropy, totals) is computed over a sorted
//!   order, so the answer is independent of shard count, merge order
//!   and WSAF slot order.
//! * [`Detector`] — the verdict contract: given the window
//!   `(previous epoch, closed epoch)`, return the [`Anomaly`] list.
//! * Four standard implementations matching the follow-up paper's
//!   detection suite: [`EntropyShiftDetector`], [`SuperSpreaderDetector`],
//!   [`DdosVictimDetector`] and [`HeavyChangeDetector`], assembled by
//!   [`DetectorSuite::standard`].
//!
//! Determinism is a contract here, not an accident: the service-level
//! property tests assert that verdicts are identical across shard
//! counts and batch sizes, which only holds because every detector
//! sorts its candidates and every float reduction runs in value order.

use std::cmp::Ordering;
use std::sync::OnceLock;

use instameasure_packet::FlowKey;
use instameasure_wsaf::WsafTable;

/// The anomaly classes the standard suite can raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AnomalyKind {
    /// The normalized flow-size entropy moved by more than the
    /// configured threshold between consecutive epochs (traffic mix
    /// upheaval: a flood of uniform mice, or one flow eating the link).
    EntropyShift,
    /// A source talking to an anomalous number of distinct
    /// destinations (scan / worm fan-out).
    SuperSpreader,
    /// A destination contacted by an anomalous number of distinct
    /// sources (DDoS fan-in).
    DdosVictim,
    /// A single flow's packet count changed by more than the configured
    /// factor/floor between consecutive epochs.
    HeavyChange,
}

/// Every anomaly kind, in wire-code order.
pub const ALL_ANOMALY_KINDS: [AnomalyKind; 4] = [
    AnomalyKind::EntropyShift,
    AnomalyKind::SuperSpreader,
    AnomalyKind::DdosVictim,
    AnomalyKind::HeavyChange,
];

impl AnomalyKind {
    /// Stable wire code (`0..=3`).
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            AnomalyKind::EntropyShift => 0,
            AnomalyKind::SuperSpreader => 1,
            AnomalyKind::DdosVictim => 2,
            AnomalyKind::HeavyChange => 3,
        }
    }

    /// Inverse of [`AnomalyKind::code`].
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        ALL_ANOMALY_KINDS.get(code as usize).copied()
    }

    /// This kind's bit in a subscription mask.
    #[must_use]
    pub fn bit(self) -> u8 {
        1 << self.code()
    }

    /// Stable lowercase label (telemetry suffixes, CLI output).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AnomalyKind::EntropyShift => "entropy_shift",
            AnomalyKind::SuperSpreader => "super_spreader",
            AnomalyKind::DdosVictim => "ddos_victim",
            AnomalyKind::HeavyChange => "heavy_change",
        }
    }
}

impl core::fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// What an anomaly is about: a host (spreader source, DDoS victim) or a
/// single flow (heavy change, entropy-shift dominant flow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Subject {
    /// An IPv4 host (big-endian bytes).
    Host([u8; 4]),
    /// A full 5-tuple.
    Flow(FlowKey),
}

impl core::fmt::Display for Subject {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Subject::Host(ip) => {
                write!(f, "{}.{}.{}.{}", ip[0], ip[1], ip[2], ip[3])
            }
            Subject::Flow(key) => write!(f, "{key}"),
        }
    }
}

/// One detector verdict for one closed epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Anomaly {
    /// Which detector fired.
    pub kind: AnomalyKind,
    /// What it fired about.
    pub subject: Subject,
    /// The measured quantity (fan count, entropy delta, packet delta).
    /// Signed where direction matters: a negative entropy shift means
    /// the mix collapsed toward one flow.
    pub score: f64,
    /// The threshold the score was compared against (always positive;
    /// `score.abs() >= threshold` held when the anomaly was emitted).
    pub threshold: f64,
}

/// Thresholds for the standard detector suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Both epochs must hold at least this many sampled flows before
    /// the entropy detector speaks (tiny samples have noisy entropy).
    pub min_flows: usize,
    /// Absolute change in normalized entropy (`[0, 1]` scale) that
    /// counts as a shift.
    pub entropy_shift: f64,
    /// Distinct-destination count that makes a source a super-spreader.
    pub spreader_fanout: usize,
    /// Distinct-source count that makes a destination a DDoS victim.
    pub victim_fanin: usize,
    /// A flow's epoch-over-epoch packet change must exceed
    /// `factor x previous` (relative part of the heavy-change test).
    pub heavy_change_factor: f64,
    /// ... and this absolute packet floor (so small flows can't fire on
    /// ratios over tiny baselines).
    pub heavy_change_floor: f64,
    /// Per-kind verdict cap per epoch (alerts are sorted by severity
    /// before truncation, so the cap drops the least severe).
    pub max_alerts_per_kind: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            min_flows: 32,
            entropy_shift: 0.25,
            spreader_fanout: 64,
            victim_fanin: 64,
            heavy_change_factor: 4.0,
            heavy_change_floor: 2_000.0,
            max_alerts_per_kind: 8,
        }
    }
}

/// A mergeable feature summary of one measurement epoch, extracted from
/// one or more WSAF shards.
///
/// The merge is exact: `merge`-ing the summaries of any partition of a
/// set of WSAF entries equals one [`EpochFeatures::absorb`] pass over
/// the whole set. That is what lets per-shard extraction at rotation
/// time stand in for a global pass.
///
/// The summary is three sorted runs, so absorbing a shard is one gather
/// and a sort, a merge is a linear walk, and every lookup is a binary
/// search.
#[derive(Debug, Clone, Default)]
pub struct EpochFeatures {
    /// `(key, packets)`, ascending by key, one entry per flow.
    flows: Vec<(FlowKey, f64)>,
    /// Distinct `src ‖ dst` host pairs, ascending.
    fanout: Vec<u64>,
    /// Distinct `dst ‖ src` host pairs, ascending.
    fanin: Vec<u64>,
    /// [`EpochFeatures::normalized_entropy`], computed on first use: a
    /// closed epoch is evaluated again as the next epoch's baseline.
    entropy: OnceLock<f64>,
}

impl EpochFeatures {
    /// Folds every entry of a WSAF shard into the summary.
    pub fn absorb(&mut self, table: &WsafTable) {
        // `0.0 + p` is what a new key's sum holds after its first add.
        let mut flows: Vec<(FlowKey, f64)> =
            table.iter().map(|e| (e.key, 0.0 + e.packets)).collect();
        // A table holds each key once, so an unstable sort loses no order.
        flows.sort_unstable_by_key(|&(key, _)| key);
        // Key order is `src ‖ dst` order: the fan-out run needs no sort.
        let mut fanout: Vec<u64> =
            flows.iter().map(|(key, _)| host_pair(key.src_ip, key.dst_ip)).collect();
        fanout.dedup();
        let mut fanin: Vec<u64> = fanout.iter().map(|pair| pair.rotate_left(32)).collect();
        fanin.sort_unstable();
        let part = EpochFeatures { flows, fanout, fanin, entropy: OnceLock::new() };
        if self.is_empty() {
            *self = part;
        } else {
            self.merge(&part);
        }
    }

    /// Folds another summary in: per-key sums and host-pair unions, each
    /// one linear merge of sorted runs.
    pub fn merge(&mut self, other: &EpochFeatures) {
        // `existing + incoming` for a key on both sides and `0.0 +
        // incoming` for a new one: the order of adds that keeps merged
        // and single-pass summaries bit-identical.
        self.flows = join(&self.flows, &other.flows)
            .map(|(key, existing, incoming)| {
                let existing = existing.unwrap_or(0.0);
                (key, incoming.map_or(existing, |incoming| existing + incoming))
            })
            .collect();
        self.fanout = union(&self.fanout, &other.fanout);
        self.fanin = union(&self.fanin, &other.fanin);
        self.entropy = OnceLock::new();
    }

    /// Distinct sampled flows in the epoch.
    #[must_use]
    pub fn flows(&self) -> usize {
        self.flows.len()
    }

    /// True when the epoch saw no sampled flows at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Per-flow packet counts (rounded to whole packets, zero-flows
    /// dropped), sorted descending so the result is independent of the
    /// merge order. This is the observed-workload shape the epoch
    /// re-tuner feeds back into the config solver.
    #[must_use]
    pub fn flow_sizes(&self) -> Vec<u64> {
        let mut sizes: Vec<u64> =
            self.packets().map(|p| p.round() as u64).filter(|&s| s > 0).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }

    /// Total accumulated packets, summed in sorted value order so the
    /// result is bit-stable across shard counts and merge orders.
    #[must_use]
    pub fn total_packets(&self) -> f64 {
        sorted_sum(self.packets())
    }

    /// Normalized flow-size entropy in `[0, 1]` (1.0 for ≤1 flow),
    /// matching [`crate::apps::normalized_entropy`] semantics but
    /// computed order-independently from the summary.
    #[must_use]
    pub fn normalized_entropy(&self) -> f64 {
        *self.entropy.get_or_init(|| {
            let n = self.flows();
            if n <= 1 {
                return 1.0;
            }
            let values = sorted(self.packets());
            let total: f64 = values.iter().sum(); // `total_packets`, from one sort
            if total <= 0.0 {
                return 1.0;
            }
            // H = -Σ (p/P) log2(p/P) = log2(P) - (Σ p·log2 p) / P. For
            // p ≥ 1 the terms ascend with p, so the sort in `sorted_sum`
            // finds them in order when every flow holds a packet or more.
            let plogp = sorted_sum(values.iter().filter(|p| **p > 0.0).map(|p| p * p.log2()));
            ((total.log2() - plogp / total) / (n as f64).log2()).clamp(0.0, 1.0)
        })
    }

    /// Distinct destinations this source touched (0 if unseen).
    #[must_use]
    pub fn fanout_of(&self, src: [u8; 4]) -> usize {
        peers_of(&self.fanout, src)
    }

    /// Distinct sources that touched this destination (0 if unseen).
    #[must_use]
    pub fn fanin_of(&self, dst: [u8; 4]) -> usize {
        peers_of(&self.fanin, dst)
    }

    /// Accumulated packets of one flow (0 if unseen).
    #[must_use]
    pub fn packets_of(&self, key: &FlowKey) -> f64 {
        self.flows.binary_search_by(|(k, _)| k.cmp(key)).map_or(0.0, |i| self.flows[i].1)
    }

    /// The heaviest sampled flow (ties broken by key order), if any.
    #[must_use]
    pub fn dominant_flow(&self) -> Option<FlowKey> {
        // `max_by` keeps the last of equal maxima: on the reversed run,
        // the smallest key.
        self.flows.iter().rev().max_by(|a, b| a.1.total_cmp(&b.1)).map(|&(key, _)| key)
    }

    fn packets(&self) -> impl Iterator<Item = f64> + '_ {
        self.flows.iter().map(|&(_, p)| p)
    }
}

/// `a ‖ b` as one integer, ordered as the pair `(a, b)` is.
fn host_pair(a: [u8; 4], b: [u8; 4]) -> u64 {
    u64::from(u32::from_be_bytes(a)) << 32 | u64::from(u32::from_be_bytes(b))
}

/// Walks two key-sorted flow runs in key order, yielding every key with
/// its packets on the left and on the right (`None` where absent).
fn join<'a>(
    left: &'a [(FlowKey, f64)],
    right: &'a [(FlowKey, f64)],
) -> impl Iterator<Item = (FlowKey, Option<f64>, Option<f64>)> + 'a {
    let (mut left, mut right) = (left.iter().peekable(), right.iter().peekable());
    std::iter::from_fn(move || {
        let order = match (left.peek(), right.peek()) {
            (None, None) => return None,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(a), Some(b)) => a.0.cmp(&b.0),
        };
        let l = left.next_if(|_| order.is_le());
        let r = right.next_if(|_| order.is_ge());
        Some((l.or(r)?.0, l.map(|e| e.1), r.map(|e| e.1)))
    })
}

/// The union of two ascending, duplicate-free runs.
fn union(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Distinct peers of `host` in a host-pair run: the length of its run.
fn peers_of(pairs: &[u64], host: [u8; 4]) -> usize {
    let host = u64::from(u32::from_be_bytes(host));
    let start = pairs.partition_point(|&pair| pair >> 32 < host);
    pairs[start..].partition_point(|&pair| pair >> 32 == host)
}

/// Sums in ascending value order: independent of the caller's iteration
/// order, so merged and single-pass summaries agree to the last bit.
fn sorted_sum(values: impl Iterator<Item = f64>) -> f64 {
    sorted(values).iter().sum()
}

/// The values in ascending order. Values equal under `total_cmp` are
/// bit-identical, so the unstable sort yields what a stable one would.
fn sorted(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.collect();
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// The `(previous, closed)` epoch pair a detector evaluates.
#[derive(Debug, Clone, Copy)]
pub struct EpochWindow<'a> {
    /// The epoch that just closed (alerts carry this number).
    pub epoch: u64,
    /// The epoch before it; `None` on the first rotation, when
    /// differential detectors stay silent for lack of a baseline.
    pub prev: Option<&'a EpochFeatures>,
    /// The closed epoch's merged summary.
    pub cur: &'a EpochFeatures,
}

/// An epoch-windowed detector: pure function from a window to verdicts.
///
/// Contract: the verdict list must be deterministic in the window
/// contents alone — sorted by severity, capped at
/// [`DetectorConfig::max_alerts_per_kind`], no dependence on map
/// iteration order or wall-clock time. The service property suite
/// enforces this across shard counts and batch sizes.
pub trait Detector: Send + Sync {
    /// The anomaly class this detector raises.
    fn kind(&self) -> AnomalyKind;

    /// Evaluates one closed epoch against its predecessor.
    fn evaluate(&self, cfg: &DetectorConfig, win: &EpochWindow<'_>) -> Vec<Anomaly>;
}

/// Fires when normalized entropy moves by more than
/// [`DetectorConfig::entropy_shift`] between consecutive epochs. The
/// subject is the closed epoch's dominant flow — the most useful single
/// lead for a collapse, and a representative sample for a flood.
#[derive(Debug, Default, Clone, Copy)]
pub struct EntropyShiftDetector;

impl Detector for EntropyShiftDetector {
    fn kind(&self) -> AnomalyKind {
        AnomalyKind::EntropyShift
    }

    fn evaluate(&self, cfg: &DetectorConfig, win: &EpochWindow<'_>) -> Vec<Anomaly> {
        let Some(prev) = win.prev else { return Vec::new() };
        if win.cur.flows() < cfg.min_flows || prev.flows() < cfg.min_flows {
            return Vec::new();
        }
        let delta = win.cur.normalized_entropy() - prev.normalized_entropy();
        if delta.abs() < cfg.entropy_shift {
            return Vec::new();
        }
        let Some(dominant) = win.cur.dominant_flow() else { return Vec::new() };
        vec![Anomaly {
            kind: AnomalyKind::EntropyShift,
            subject: Subject::Flow(dominant),
            score: delta,
            threshold: cfg.entropy_shift,
        }]
    }
}

/// Fires for every source whose distinct-destination fan-out reaches
/// [`DetectorConfig::spreader_fanout`] in the closed epoch.
#[derive(Debug, Default, Clone, Copy)]
pub struct SuperSpreaderDetector;

impl Detector for SuperSpreaderDetector {
    fn kind(&self) -> AnomalyKind {
        AnomalyKind::SuperSpreader
    }

    fn evaluate(&self, cfg: &DetectorConfig, win: &EpochWindow<'_>) -> Vec<Anomaly> {
        rank_fans(&win.cur.fanout, cfg.spreader_fanout, cfg.max_alerts_per_kind)
            .into_iter()
            .map(|(host, peers)| Anomaly {
                kind: AnomalyKind::SuperSpreader,
                subject: Subject::Host(host),
                score: peers as f64,
                threshold: cfg.spreader_fanout as f64,
            })
            .collect()
    }
}

/// Fires for every destination whose distinct-source fan-in reaches
/// [`DetectorConfig::victim_fanin`] in the closed epoch.
#[derive(Debug, Default, Clone, Copy)]
pub struct DdosVictimDetector;

impl Detector for DdosVictimDetector {
    fn kind(&self) -> AnomalyKind {
        AnomalyKind::DdosVictim
    }

    fn evaluate(&self, cfg: &DetectorConfig, win: &EpochWindow<'_>) -> Vec<Anomaly> {
        rank_fans(&win.cur.fanin, cfg.victim_fanin, cfg.max_alerts_per_kind)
            .into_iter()
            .map(|(host, peers)| Anomaly {
                kind: AnomalyKind::DdosVictim,
                subject: Subject::Host(host),
                score: peers as f64,
                threshold: cfg.victim_fanin as f64,
            })
            .collect()
    }
}

/// Hosts whose peer-set size reaches `threshold`, sorted by (count
/// desc, host asc) and truncated to `cap` — the deterministic core both
/// fan detectors share.
fn rank_fans(pairs: &[u64], threshold: usize, cap: usize) -> Vec<([u8; 4], usize)> {
    let mut hits: Vec<([u8; 4], usize)> = pairs
        .chunk_by(|a, b| a >> 32 == b >> 32)
        .filter(|run| run.len() >= threshold)
        .map(|run| (((run[0] >> 32) as u32).to_be_bytes(), run.len()))
        .collect();
    hits.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    hits.truncate(cap);
    hits
}

/// Fires for every flow whose packet count moved by more than
/// `max(heavy_change_floor, heavy_change_factor x previous)` between
/// consecutive epochs — in either direction (a flow vanishing is as
/// anomalous as one appearing). Silent on the first epoch: there is no
/// baseline to diff against.
#[derive(Debug, Default, Clone, Copy)]
pub struct HeavyChangeDetector;

impl Detector for HeavyChangeDetector {
    fn kind(&self) -> AnomalyKind {
        AnomalyKind::HeavyChange
    }

    fn evaluate(&self, cfg: &DetectorConfig, win: &EpochWindow<'_>) -> Vec<Anomaly> {
        let Some(prev) = win.prev else { return Vec::new() };
        let mut changes: Vec<(FlowKey, f64, f64)> = Vec::new();
        for (key, before, after) in join(&prev.flows, &win.cur.flows) {
            let (before, after) = (before.unwrap_or(0.0), after.unwrap_or(0.0));
            let delta = after - before;
            // Relative to the *persisting* baseline (the smaller count),
            // so a vanished flow is judged against the floor, not
            // against its own former size.
            let threshold = cfg.heavy_change_floor.max(cfg.heavy_change_factor * before.min(after));
            if delta.abs() >= threshold {
                changes.push((key, delta, threshold));
            }
        }
        changes.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then_with(|| a.0.cmp(&b.0)));
        changes.truncate(cfg.max_alerts_per_kind);
        changes
            .into_iter()
            .map(|(key, delta, threshold)| Anomaly {
                kind: AnomalyKind::HeavyChange,
                subject: Subject::Flow(key),
                score: delta,
                threshold,
            })
            .collect()
    }
}

/// A fixed, ordered set of detectors sharing one config.
pub struct DetectorSuite {
    cfg: DetectorConfig,
    detectors: Vec<Box<dyn Detector>>,
}

impl DetectorSuite {
    /// The standard four-detector suite in wire-code order.
    #[must_use]
    pub fn standard(cfg: DetectorConfig) -> Self {
        DetectorSuite {
            cfg,
            detectors: vec![
                Box::new(EntropyShiftDetector),
                Box::new(SuperSpreaderDetector),
                Box::new(DdosVictimDetector),
                Box::new(HeavyChangeDetector),
            ],
        }
    }

    /// The shared thresholds.
    #[must_use]
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// Evaluates every detector over one closed epoch; verdicts come
    /// back in detector order, each internally sorted by severity.
    #[must_use]
    pub fn evaluate(
        &self,
        epoch: u64,
        prev: Option<&EpochFeatures>,
        cur: &EpochFeatures,
    ) -> Vec<Anomaly> {
        let win = EpochWindow { epoch, prev, cur };
        self.detectors.iter().flat_map(|d| d.evaluate(&self.cfg, &win)).collect()
    }
}

impl core::fmt::Debug for DetectorSuite {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DetectorSuite")
            .field("cfg", &self.cfg)
            .field("detectors", &self.detectors.iter().map(|d| d.kind()).collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InstaMeasure, InstaMeasureConfig};
    use instameasure_packet::{PacketRecord, Protocol};

    fn flow(src: [u8; 4], dst: [u8; 4], port: u16) -> FlowKey {
        FlowKey::new(src, dst, port, 80, Protocol::Tcp)
    }

    fn feed(im: &mut InstaMeasure, key: FlowKey, pkts: u64) {
        for t in 0..pkts {
            im.process(&PacketRecord::new(key, 300, t));
        }
    }

    fn features_of(im: &InstaMeasure) -> EpochFeatures {
        let mut f = EpochFeatures::default();
        f.absorb(im.wsaf());
        f
    }

    fn balanced_epoch(seed: u8) -> EpochFeatures {
        let mut im = InstaMeasure::new(InstaMeasureConfig::default().small_for_tests());
        for i in 0..40u8 {
            feed(&mut im, flow([10, seed, 0, i], [20, seed, 0, i], 1000), 1_500);
        }
        features_of(&im)
    }

    #[test]
    fn kind_codes_roundtrip_and_bits_are_distinct() {
        let mut mask = 0u8;
        for kind in ALL_ANOMALY_KINDS {
            assert_eq!(AnomalyKind::from_code(kind.code()), Some(kind));
            assert_eq!(mask & kind.bit(), 0, "bits must not collide");
            mask |= kind.bit();
        }
        assert_eq!(mask, 0x0F);
        assert_eq!(AnomalyKind::from_code(4), None);
    }

    #[test]
    fn merged_partition_features_equal_single_pass() {
        // Three disjoint measurement shards vs one pass over all three
        // tables: identical flow counts, totals and entropy to the bit.
        let mut ims: Vec<InstaMeasure> = (0..3)
            .map(|_| InstaMeasure::new(InstaMeasureConfig::default().small_for_tests()))
            .collect();
        for (s, im) in ims.iter_mut().enumerate() {
            for i in 0..20u8 {
                feed(im, flow([10, s as u8, 0, i], [20, s as u8, 0, i], 1000), 800);
            }
        }
        let mut merged = EpochFeatures::default();
        for im in &ims {
            let mut part = EpochFeatures::default();
            part.absorb(im.wsaf());
            merged.merge(&part);
        }
        let mut single = EpochFeatures::default();
        for im in &ims {
            single.absorb(im.wsaf());
        }
        assert_eq!(merged.flows(), single.flows());
        assert_eq!(merged.total_packets().to_bits(), single.total_packets().to_bits());
        assert_eq!(merged.normalized_entropy().to_bits(), single.normalized_entropy().to_bits());
    }

    #[test]
    fn entropy_matches_apps_reference() {
        let mut im = InstaMeasure::new(InstaMeasureConfig::default().small_for_tests());
        feed(&mut im, flow([10, 0, 0, 1], [20, 0, 0, 1], 1000), 100_000);
        for i in 2..12u8 {
            feed(&mut im, flow([10, 0, 0, i], [20, 0, 0, i], 1000), 700);
        }
        let features = features_of(&im);
        let reference = crate::apps::normalized_entropy(im.wsaf());
        assert!(
            (features.normalized_entropy() - reference).abs() < 1e-9,
            "summary entropy {} vs reference {}",
            features.normalized_entropy(),
            reference
        );
    }

    #[test]
    fn entropy_shift_fires_on_collapse_and_respects_min_flows() {
        let prev = balanced_epoch(1);
        assert!(prev.flows() >= 32, "need a meaningful baseline sample");
        let mut skewed = InstaMeasure::new(InstaMeasureConfig::default().small_for_tests());
        let elephant = flow([66, 0, 0, 1], [77, 0, 0, 1], 9000);
        feed(&mut skewed, elephant, 300_000);
        for i in 0..40u8 {
            feed(&mut skewed, flow([10, 2, 0, i], [20, 2, 0, i], 1000), 400);
        }
        let cur = features_of(&skewed);
        let cfg = DetectorConfig::default();
        let win = EpochWindow { epoch: 1, prev: Some(&prev), cur: &cur };
        let alerts = EntropyShiftDetector.evaluate(&cfg, &win);
        assert_eq!(alerts.len(), 1, "collapse must fire: {alerts:?}");
        assert!(alerts[0].score < 0.0, "collapse direction is negative");
        assert_eq!(alerts[0].subject, Subject::Flow(elephant));

        // No baseline, or a tiny one, keeps the detector silent.
        let silent = EpochWindow { epoch: 0, prev: None, cur: &cur };
        assert!(EntropyShiftDetector.evaluate(&cfg, &silent).is_empty());
        let tiny = EpochFeatures::default();
        let tiny_win = EpochWindow { epoch: 1, prev: Some(&tiny), cur: &cur };
        assert!(EntropyShiftDetector.evaluate(&cfg, &tiny_win).is_empty());
    }

    #[test]
    fn spreader_and_victim_fire_on_fans_and_stay_quiet_on_balance() {
        let mut im = InstaMeasure::new(InstaMeasureConfig::default().small_for_tests());
        for d in 0..150u8 {
            feed(&mut im, flow([66, 6, 6, 6], [30, 0, 0, d], 3000), 300);
        }
        for b in 0..150u8 {
            feed(&mut im, flow([40, 0, 0, b], [99, 9, 9, 9], 4000), 300);
        }
        let cur = features_of(&im);
        let cfg = DetectorConfig::default();
        let win = EpochWindow { epoch: 0, prev: None, cur: &cur };

        let spread = SuperSpreaderDetector.evaluate(&cfg, &win);
        assert_eq!(spread.len(), 1, "{spread:?}");
        assert_eq!(spread[0].subject, Subject::Host([66, 6, 6, 6]));
        assert!(spread[0].score >= cfg.spreader_fanout as f64);

        let victims = DdosVictimDetector.evaluate(&cfg, &win);
        assert_eq!(victims.len(), 1, "{victims:?}");
        assert_eq!(victims[0].subject, Subject::Host([99, 9, 9, 9]));

        let benign = balanced_epoch(3);
        let benign_win = EpochWindow { epoch: 0, prev: None, cur: &benign };
        assert!(SuperSpreaderDetector.evaluate(&cfg, &benign_win).is_empty());
        assert!(DdosVictimDetector.evaluate(&cfg, &benign_win).is_empty());
    }

    #[test]
    fn heavy_change_fires_both_directions_and_needs_a_baseline() {
        let quiet = balanced_epoch(4);
        let mut im = InstaMeasure::new(InstaMeasureConfig::default().small_for_tests());
        let surge = flow([50, 0, 0, 1], [60, 0, 0, 1], 7000);
        feed(&mut im, surge, 80_000);
        for i in 0..40u8 {
            feed(&mut im, flow([10, 4, 0, i], [20, 4, 0, i], 1000), 1_500);
        }
        let cur = features_of(&im);
        let cfg = DetectorConfig { max_alerts_per_kind: 64, ..DetectorConfig::default() };

        let win = EpochWindow { epoch: 1, prev: Some(&quiet), cur: &cur };
        let ups = HeavyChangeDetector.evaluate(&cfg, &win);
        assert!(
            ups.iter().any(|a| a.subject == Subject::Flow(surge) && a.score > 0.0),
            "surge must register as an upward change: {ups:?}"
        );
        // The surge is the largest |delta|, so it sorts first.
        assert_eq!(ups[0].subject, Subject::Flow(surge));

        let rev = EpochWindow { epoch: 2, prev: Some(&cur), cur: &quiet };
        let downs = HeavyChangeDetector.evaluate(&cfg, &rev);
        assert!(
            downs.iter().any(|a| a.subject == Subject::Flow(surge) && a.score < 0.0),
            "a vanished surge must register as a downward change: {downs:?}"
        );

        let first = EpochWindow { epoch: 0, prev: None, cur: &cur };
        assert!(HeavyChangeDetector.evaluate(&cfg, &first).is_empty());
    }

    #[test]
    fn heavy_change_is_quiet_on_a_steady_epoch_pair() {
        let a = balanced_epoch(5);
        let b = balanced_epoch(5);
        let cfg = DetectorConfig::default();
        let win = EpochWindow { epoch: 1, prev: Some(&a), cur: &b };
        assert!(HeavyChangeDetector.evaluate(&cfg, &win).is_empty());
    }

    #[test]
    fn suite_runs_every_detector_and_caps_verdicts() {
        let mut im = InstaMeasure::new(InstaMeasureConfig::default().small_for_tests());
        for d in 0..200u8 {
            feed(&mut im, flow([66, 6, 6, 6], [30, 0, 0, d], 3000), 300);
        }
        let cur = features_of(&im);
        let cfg = DetectorConfig { max_alerts_per_kind: 2, ..DetectorConfig::default() };
        let suite = DetectorSuite::standard(cfg);
        let alerts = suite.evaluate(0, None, &cur);
        assert!(alerts.iter().any(|a| a.kind == AnomalyKind::SuperSpreader));
        for kind in ALL_ANOMALY_KINDS {
            assert!(
                alerts.iter().filter(|a| a.kind == kind).count() <= 2,
                "per-kind cap violated for {kind}"
            );
        }
        // Determinism: the same inputs give the same verdict list.
        assert_eq!(alerts, suite.evaluate(0, None, &cur));
    }
}
