//! Differential oracle for the epoch feature summary.
//!
//! [`EpochFeatures`] keeps an epoch as sorted runs: per-flow packet
//! counts sorted by key, and the distinct `(src, dst)` and `(dst, src)`
//! host pairs. [`Reference`] below is the summary it replaced, built
//! from hash maps and hash sets, with its absorb, merge, accessors and
//! the four detectors' logic. The property test feeds both the same
//! WSAF shards, split and merged in random ways over two epochs, and
//! requires every accessor and every verdict to agree to the last bit.
//!
//! The inputs are drawn to reach the corners where the two could part:
//! a small host pool, so fan runs form; a small port and protocol pool,
//! so keys differ only in their protocol; packet values with exact ties,
//! so tie-breaks by key order decide verdict order; and entries split
//! across tables both by the popcount dispatch and arbitrarily, so one
//! key can land in two parts and merges sum duplicates.

use std::collections::{HashMap, HashSet};

use instameasure::core::detect::{
    Anomaly, AnomalyKind, DetectorConfig, DetectorSuite, EpochFeatures, Subject,
};
use instameasure::core::multicore::worker_for;
use instameasure::packet::{FlowKey, Protocol};
use instameasure::wsaf::{WsafConfig, WsafTable};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// The hash-map summary: `*entry.or_insert(0.0) += packets` per flow and
/// one peer set per host.
#[derive(Debug, Clone, Default)]
struct Reference {
    flow_packets: HashMap<FlowKey, f64>,
    fanout: HashMap<[u8; 4], HashSet<[u8; 4]>>,
    fanin: HashMap<[u8; 4], HashSet<[u8; 4]>>,
}

impl Reference {
    fn absorb(&mut self, table: &WsafTable) {
        for e in table.iter() {
            *self.flow_packets.entry(e.key).or_insert(0.0) += e.packets;
            self.fanout.entry(e.key.src_ip).or_default().insert(e.key.dst_ip);
            self.fanin.entry(e.key.dst_ip).or_default().insert(e.key.src_ip);
        }
    }

    fn merge(&mut self, other: &Reference) {
        for (key, pkts) in &other.flow_packets {
            *self.flow_packets.entry(*key).or_insert(0.0) += pkts;
        }
        for (host, peers) in &other.fanout {
            self.fanout.entry(*host).or_default().extend(peers.iter().copied());
        }
        for (host, peers) in &other.fanin {
            self.fanin.entry(*host).or_default().extend(peers.iter().copied());
        }
    }

    fn flows(&self) -> usize {
        self.flow_packets.len()
    }

    fn flow_sizes(&self) -> Vec<u64> {
        let mut sizes: Vec<u64> =
            self.flow_packets.values().map(|p| p.round() as u64).filter(|&s| s > 0).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }

    fn total_packets(&self) -> f64 {
        sorted_sum(self.flow_packets.values().copied())
    }

    fn normalized_entropy(&self) -> f64 {
        let n = self.flows();
        if n <= 1 {
            return 1.0;
        }
        let total = self.total_packets();
        if total <= 0.0 {
            return 1.0;
        }
        let plogp =
            sorted_sum(self.flow_packets.values().filter(|p| **p > 0.0).map(|p| p * p.log2()));
        ((total.log2() - plogp / total) / (n as f64).log2()).clamp(0.0, 1.0)
    }

    fn fanout_of(&self, src: [u8; 4]) -> usize {
        self.fanout.get(&src).map_or(0, HashSet::len)
    }

    fn fanin_of(&self, dst: [u8; 4]) -> usize {
        self.fanin.get(&dst).map_or(0, HashSet::len)
    }

    fn packets_of(&self, key: &FlowKey) -> f64 {
        self.flow_packets.get(key).copied().unwrap_or(0.0)
    }

    fn dominant_flow(&self) -> Option<FlowKey> {
        self.flow_packets
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1).then_with(|| b.0.cmp(a.0)))
            .map(|(key, _)| *key)
    }
}

fn sorted_sum(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v.iter().sum()
}

fn rank_fans(
    fans: &HashMap<[u8; 4], HashSet<[u8; 4]>>,
    threshold: usize,
    cap: usize,
) -> Vec<([u8; 4], usize)> {
    let mut hits: Vec<([u8; 4], usize)> = fans
        .iter()
        .filter(|(_, peers)| peers.len() >= threshold)
        .map(|(host, peers)| (*host, peers.len()))
        .collect();
    hits.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    hits.truncate(cap);
    hits
}

/// The standard suite's verdicts over the reference summaries: entropy
/// shift, super-spreader, DDoS victim and heavy change, in that order.
fn reference_verdicts(
    cfg: &DetectorConfig,
    prev: Option<&Reference>,
    cur: &Reference,
) -> Vec<Anomaly> {
    let mut out = Vec::new();
    if let Some(prev) = prev {
        if cur.flows() >= cfg.min_flows && prev.flows() >= cfg.min_flows {
            let delta = cur.normalized_entropy() - prev.normalized_entropy();
            if delta.abs() >= cfg.entropy_shift {
                if let Some(dominant) = cur.dominant_flow() {
                    out.push(Anomaly {
                        kind: AnomalyKind::EntropyShift,
                        subject: Subject::Flow(dominant),
                        score: delta,
                        threshold: cfg.entropy_shift,
                    });
                }
            }
        }
    }
    let fans = [
        (AnomalyKind::SuperSpreader, &cur.fanout, cfg.spreader_fanout),
        (AnomalyKind::DdosVictim, &cur.fanin, cfg.victim_fanin),
    ];
    for (kind, fans, threshold) in fans {
        for (host, peers) in rank_fans(fans, threshold, cfg.max_alerts_per_kind) {
            out.push(Anomaly {
                kind,
                subject: Subject::Host(host),
                score: peers as f64,
                threshold: threshold as f64,
            });
        }
    }
    if let Some(prev) = prev {
        let mut changes: Vec<(FlowKey, f64, f64)> = Vec::new();
        let mut consider = |key: FlowKey, before: f64, after: f64| {
            let delta = after - before;
            let threshold = cfg.heavy_change_floor.max(cfg.heavy_change_factor * before.min(after));
            if delta.abs() >= threshold {
                changes.push((key, delta, threshold));
            }
        };
        for (key, &pkts) in &cur.flow_packets {
            consider(*key, prev.packets_of(key), pkts);
        }
        for (key, &pkts) in &prev.flow_packets {
            if !cur.flow_packets.contains_key(key) {
                consider(*key, pkts, 0.0);
            }
        }
        changes.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then_with(|| a.0.cmp(&b.0)));
        changes.truncate(cfg.max_alerts_per_kind);
        out.extend(changes.into_iter().map(|(key, delta, threshold)| Anomaly {
            kind: AnomalyKind::HeavyChange,
            subject: Subject::Flow(key),
            score: delta,
            threshold,
        }));
    }
    out
}

const HOSTS: [[u8; 4]; 3] = [[10, 0, 0, 1], [10, 0, 0, 2], [192, 168, 7, 9]];
const PORTS: [u16; 2] = [0, 80];
const PROTOCOLS: [Protocol; 6] = [
    Protocol::Tcp,
    Protocol::Udp,
    Protocol::Icmp,
    Protocol::Other(0),
    Protocol::Other(47),
    Protocol::Other(255),
];
/// Packet values drawn often, so keys tie exactly. Every other value is
/// drawn below the two largest, so ties lead the heavy-change ranking.
const TIED_PACKETS: [f64; 4] = [1.0, 3.0, 2_500.0, 9_000.0];

/// Every key the generator can draw.
fn key_universe() -> Vec<FlowKey> {
    let mut keys = Vec::new();
    for src in HOSTS {
        for dst in HOSTS {
            for sport in PORTS {
                for dport in PORTS {
                    for proto in PROTOCOLS {
                        keys.push(FlowKey::new(src, dst, sport, dport, proto));
                    }
                }
            }
        }
    }
    keys
}

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

/// One epoch's WSAF deposits: keys from the small pools, positive
/// finite packet counts with exact ties, and repeated keys.
fn epoch_entries(rng: &mut TestRng) -> Vec<(FlowKey, f64)> {
    let n = rng.below(120) as usize;
    (0..n)
        .map(|_| {
            let key = FlowKey::new(
                pick(rng, &HOSTS),
                pick(rng, &HOSTS),
                pick(rng, &PORTS),
                pick(rng, &PORTS),
                pick(rng, &PROTOCOLS),
            );
            let packets = if rng.below(2) == 0 {
                pick(rng, &TIED_PACKETS)
            } else {
                0.5 + rng.unit_f64() * 2_000.0
            };
            (key, packets)
        })
        .collect()
}

/// Splits the entries across 1–4 WSAF tables, by the popcount dispatch
/// (every flow in one table) or arbitrarily (a repeated key can land in
/// two tables).
fn split(rng: &mut TestRng, entries: &[(FlowKey, f64)]) -> Vec<WsafTable> {
    let parts = 1 + rng.below(4) as usize;
    let by_popcount = rng.below(2) == 0;
    let cfg = WsafConfig::builder().entries_log2(10).build().expect("static WSAF config");
    let mut tables: Vec<WsafTable> = (0..parts).map(|_| WsafTable::new(cfg)).collect();
    for (ts, (key, packets)) in entries.iter().enumerate() {
        let part =
            if by_popcount { worker_for(key, parts) } else { rng.below(parts as u64) as usize };
        tables[part].accumulate(key, *packets, packets * 100.0, ts as u64);
    }
    tables
}

/// A random permutation of `0..n`.
fn shuffled(rng: &mut TestRng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// One epoch through both summaries, the way the runtime builds it:
/// each table absorbed into its own part, the parts merged in random
/// order. One epoch in three, drawn at random, absorbs all tables into
/// one summary instead, which absorbs into a non-empty summary.
fn epoch_summaries(rng: &mut TestRng) -> (EpochFeatures, Reference) {
    let entries = epoch_entries(rng);
    let tables = split(rng, &entries);
    let order = shuffled(rng, tables.len());
    let (mut fast, mut reference) = (EpochFeatures::default(), Reference::default());
    if rng.below(3) == 0 {
        for &i in &order {
            fast.absorb(&tables[i]);
            reference.absorb(&tables[i]);
        }
        return (fast, reference);
    }
    let parts: Vec<(EpochFeatures, Reference)> = tables
        .iter()
        .map(|table| {
            let (mut f, mut r) = (EpochFeatures::default(), Reference::default());
            f.absorb(table);
            r.absorb(table);
            (f, r)
        })
        .collect();
    for &i in &order {
        fast.merge(&parts[i].0);
        reference.merge(&parts[i].1);
    }
    (fast, reference)
}

/// A verdict with its floats as bits, so `==` means bit-identical.
fn verdict_bits(verdicts: &[Anomaly]) -> Vec<(AnomalyKind, Subject, u64, u64)> {
    verdicts.iter().map(|a| (a.kind, a.subject, a.score.to_bits(), a.threshold.to_bits())).collect()
}

fn assert_same_summary(fast: &EpochFeatures, reference: &Reference) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.flows(), reference.flows());
    prop_assert_eq!(fast.is_empty(), reference.flows() == 0);
    prop_assert_eq!(fast.flow_sizes(), reference.flow_sizes());
    prop_assert_eq!(fast.dominant_flow(), reference.dominant_flow());
    prop_assert_eq!(fast.total_packets().to_bits(), reference.total_packets().to_bits());
    prop_assert_eq!(fast.normalized_entropy().to_bits(), reference.normalized_entropy().to_bits());
    // A second call answers from the summary's cache: same bits.
    prop_assert_eq!(fast.normalized_entropy().to_bits(), reference.normalized_entropy().to_bits());
    for host in HOSTS.iter().chain(&[[10, 0, 0, 3]]) {
        prop_assert_eq!(fast.fanout_of(*host), reference.fanout_of(*host));
        prop_assert_eq!(fast.fanin_of(*host), reference.fanin_of(*host));
    }
    for key in key_universe() {
        prop_assert_eq!(fast.packets_of(&key).to_bits(), reference.packets_of(&key).to_bits());
    }
    Ok(())
}

/// Thresholds low enough that every detector speaks on the small pools,
/// and a cap high enough that every tied heavy change is listed in key
/// order. The default config covers the cap cutting through ties.
fn eager_config() -> DetectorConfig {
    DetectorConfig {
        min_flows: 4,
        entropy_shift: 0.02,
        spreader_fanout: 2,
        victim_fanin: 2,
        heavy_change_factor: 2.0,
        heavy_change_floor: 1_000.0,
        max_alerts_per_kind: 64,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn sorted_runs_match_the_hash_map_summary(seed in any::<u64>()) {
        let mut rng = TestRng::from_name(&format!("detect_differential/{seed}"));
        let (prev, prev_ref) = epoch_summaries(&mut rng);
        let (cur, cur_ref) = epoch_summaries(&mut rng);
        assert_same_summary(&prev, &prev_ref)?;
        assert_same_summary(&cur, &cur_ref)?;
        for cfg in [eager_config(), DetectorConfig::default()] {
            let suite = DetectorSuite::standard(cfg);
            prop_assert_eq!(
                verdict_bits(&suite.evaluate(0, None, &prev)),
                verdict_bits(&reference_verdicts(&cfg, None, &prev_ref))
            );
            prop_assert_eq!(
                verdict_bits(&suite.evaluate(1, Some(&prev), &cur)),
                verdict_bits(&reference_verdicts(&cfg, Some(&prev_ref), &cur_ref))
            );
        }
    }
}
