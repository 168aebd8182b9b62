//! Measurement applications on top of the WSAF.
//!
//! §III-B of the paper argues that the WSAF must keep *samples of mice
//! flows* precisely because applications beyond heavy hitters need them:
//! "it is essential for some applications to have samples of mice flows
//! (e.g., DDoS attack, SuperSpreader and entropy etc.)". This module
//! implements those three applications as pure queries over a WSAF
//! snapshot — no extra per-packet state:
//!
//! * [`flow_size_entropy`] — Shannon entropy of the traffic's flow-size
//!   distribution (a classic anomaly signal: entropy collapses when one
//!   flow dominates, spikes during scans).
//! * [`top_fanout_sources`] — super-spreader detection: sources talking
//!   to unusually many distinct destinations (scans, worms).
//! * [`top_fanin_destinations`] — DDoS victim detection: destinations
//!   contacted by unusually many distinct sources.
//!
//! Fan-out/fan-in are computed over the WSAF's flow *samples*; because the
//! FlowRegulator forwards mice probabilistically, a scanning source's many
//! one-packet flows appear in the table in proportion to their number,
//! which is all a ranking needs.

use std::collections::HashMap;

use instameasure_wsaf::WsafTable;

/// Shannon entropy (bits) of the per-flow packet-share distribution in the
/// WSAF: `H = -Σ pᵢ log₂ pᵢ` with `pᵢ` = flow i's share of accumulated
/// packets. Returns 0 for an empty table.
///
/// Anomaly semantics: a link dominated by one elephant has near-zero
/// entropy; a flat scan pushes it toward `log₂(flows)`.
///
/// # Example
///
/// ```
/// use instameasure_core::apps::flow_size_entropy;
/// use instameasure_wsaf::{WsafConfig, WsafTable};
/// let table = WsafTable::new(WsafConfig::builder().entries_log2(8).build()?);
/// assert_eq!(flow_size_entropy(&table), 0.0);
/// # Ok::<(), instameasure_wsaf::WsafConfigError>(())
/// ```
#[must_use]
pub fn flow_size_entropy(table: &WsafTable) -> f64 {
    let total: f64 = table.iter().map(|e| e.packets).sum();
    if total <= 0.0 {
        return 0.0;
    }
    table
        .iter()
        .filter(|e| e.packets > 0.0)
        .map(|e| {
            let p = e.packets / total;
            -p * p.log2()
        })
        .sum()
}

/// Normalized entropy in `[0, 1]`: [`flow_size_entropy`] divided by
/// `log₂(flows)`. Returns 1.0 for ≤1 flow (a degenerate distribution is
/// "as flat as it can be").
#[must_use]
pub fn normalized_entropy(table: &WsafTable) -> f64 {
    let n = table.len();
    if n <= 1 {
        return 1.0;
    }
    (flow_size_entropy(table) / (n as f64).log2()).clamp(0.0, 1.0)
}

/// A host ranked by its distinct-peer count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FanReport {
    /// The host (IPv4, big-endian bytes).
    pub host: [u8; 4],
    /// Number of distinct peers observed in the WSAF sample.
    pub distinct_peers: usize,
    /// Total packets across this host's sampled flows.
    pub packets: u64,
}

fn rank_by_fan(
    table: &WsafTable,
    k: usize,
    host_of: impl Fn(&instameasure_wsaf::FlowEntry) -> [u8; 4],
    peer_of: impl Fn(&instameasure_wsaf::FlowEntry) -> [u8; 4],
) -> Vec<FanReport> {
    let mut fans: HashMap<[u8; 4], (std::collections::HashSet<[u8; 4]>, f64)> = HashMap::new();
    for e in table.iter() {
        let entry = fans.entry(host_of(e)).or_default();
        entry.0.insert(peer_of(e));
        entry.1 += e.packets;
    }
    let mut out: Vec<FanReport> = fans
        .into_iter()
        .map(|(host, (peers, pkts))| FanReport {
            host,
            distinct_peers: peers.len(),
            packets: pkts as u64,
        })
        .collect();
    out.sort_by(|a, b| {
        b.distinct_peers
            .cmp(&a.distinct_peers)
            .then(b.packets.cmp(&a.packets))
            .then(a.host.cmp(&b.host))
    });
    out.truncate(k);
    out
}

/// The `k` sources with the largest distinct-destination fan-out —
/// super-spreader candidates. Ties go to more packets, then to the lower
/// address.
#[must_use]
pub fn top_fanout_sources(table: &WsafTable, k: usize) -> Vec<FanReport> {
    rank_by_fan(table, k, |e| e.key.src_ip, |e| e.key.dst_ip)
}

/// The `k` destinations with the largest distinct-source fan-in — DDoS
/// victim candidates. Ties go to more packets, then to the lower address.
#[must_use]
pub fn top_fanin_destinations(table: &WsafTable, k: usize) -> Vec<FanReport> {
    rank_by_fan(table, k, |e| e.key.dst_ip, |e| e.key.src_ip)
}

/// Aggregated traffic of one IPv4 prefix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefixReport {
    /// Network address of the prefix (host bits zeroed).
    pub network: [u8; 4],
    /// Prefix length used for the aggregation.
    pub prefix_len: u8,
    /// Flows sampled under this prefix.
    pub flows: usize,
    /// Accumulated packet estimate.
    pub packets: f64,
    /// Accumulated byte estimate.
    pub bytes: f64,
}

/// Aggregates the WSAF by source prefix (`prefix_len` in `0..=32`) and
/// returns the `k` heaviest prefixes by packets — subnet-level accounting,
/// the operator view most traffic-engineering actions key on. Ties go to
/// the lower network address.
///
/// # Panics
///
/// Panics if `prefix_len > 32`.
///
/// # Example
///
/// ```
/// use instameasure_core::apps::top_source_prefixes;
/// use instameasure_wsaf::{WsafConfig, WsafTable};
/// let table = WsafTable::new(WsafConfig::builder().entries_log2(8).build()?);
/// assert!(top_source_prefixes(&table, 24, 5).is_empty());
/// # Ok::<(), instameasure_wsaf::WsafConfigError>(())
/// ```
#[must_use]
pub fn top_source_prefixes(table: &WsafTable, prefix_len: u8, k: usize) -> Vec<PrefixReport> {
    assert!(prefix_len <= 32, "prefix length must be 0..=32");
    let mask: u32 = if prefix_len == 0 { 0 } else { u32::MAX << (32 - u32::from(prefix_len)) };
    let mut agg: HashMap<u32, (usize, f64, f64)> = HashMap::new();
    for e in table.iter() {
        let net = e.key.src_ip_u32() & mask;
        let entry = agg.entry(net).or_default();
        entry.0 += 1;
        entry.1 += e.packets;
        entry.2 += e.bytes;
    }
    let mut out: Vec<PrefixReport> = agg
        .into_iter()
        .map(|(net, (flows, packets, bytes))| PrefixReport {
            network: net.to_be_bytes(),
            prefix_len,
            flows,
            packets,
            bytes,
        })
        .collect();
    out.sort_by(|a, b| b.packets.total_cmp(&a.packets).then(a.network.cmp(&b.network)));
    out.truncate(k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InstaMeasure, InstaMeasureConfig};
    use instameasure_packet::{FlowKey, PacketRecord, Protocol};
    use instameasure_wsaf::WsafConfig;

    fn system() -> InstaMeasure {
        InstaMeasure::new(InstaMeasureConfig::default().small_for_tests())
    }

    fn flow(src: [u8; 4], dst: [u8; 4], port: u16) -> FlowKey {
        FlowKey::new(src, dst, port, 80, Protocol::Tcp)
    }

    /// Feed `pkts` packets of a flow (enough to likely reach the WSAF when
    /// pkts is large).
    fn feed(im: &mut InstaMeasure, key: FlowKey, pkts: u64) {
        for t in 0..pkts {
            im.process(&PacketRecord::new(key, 300, t));
        }
    }

    #[test]
    fn entropy_collapses_under_an_elephant() {
        let mut balanced = system();
        for i in 0..20u8 {
            feed(&mut balanced, flow([10, 0, 0, i], [20, 0, 0, i], 1000), 2_000);
        }
        let mut skewed = system();
        feed(&mut skewed, flow([10, 0, 0, 1], [20, 0, 0, 1], 1000), 200_000);
        for i in 2..6u8 {
            feed(&mut skewed, flow([10, 0, 0, i], [20, 0, 0, i], 1000), 500);
        }
        let h_bal = normalized_entropy(balanced.wsaf());
        let h_skew = normalized_entropy(skewed.wsaf());
        assert!(h_bal > 0.9, "balanced entropy {h_bal}");
        assert!(h_skew < 0.5, "skewed entropy {h_skew}");
    }

    #[test]
    fn entropy_of_empty_and_single() {
        let im = system();
        assert_eq!(flow_size_entropy(im.wsaf()), 0.0);
        assert_eq!(normalized_entropy(im.wsaf()), 1.0);
    }

    #[test]
    fn super_spreader_tops_fanout() {
        let mut im = system();
        // Background: normal hosts with 2-3 peers each.
        for i in 0..30u8 {
            for d in 0..3u8 {
                feed(&mut im, flow([10, 0, 1, i], [20, 0, d, i], 2000), 400);
            }
        }
        // The scanner: one source, 150 destinations, enough packets per
        // destination that a good fraction of the flows reach the WSAF.
        for d in 0..150u8 {
            feed(&mut im, flow([66, 6, 6, 6], [30, 0, 0, d], 3000), 300);
            feed(&mut im, flow([66, 6, 6, 6], [30, 0, 1, d], 3001), 300);
        }
        let top = top_fanout_sources(im.wsaf(), 3);
        assert_eq!(top[0].host, [66, 6, 6, 6], "scanner must rank first: {top:?}");
        assert!(top[0].distinct_peers > 3 * top[1].distinct_peers.max(1));
    }

    #[test]
    fn ddos_victim_tops_fanin() {
        let mut im = system();
        for i in 0..30u8 {
            feed(&mut im, flow([10, 0, 2, i], [20, 0, 2, i], 2000), 400);
        }
        // 200 bots hammering one victim.
        for b in 0..200u8 {
            feed(&mut im, flow([40, 0, 0, b], [99, 9, 9, 9], 4000), 300);
        }
        let top = top_fanin_destinations(im.wsaf(), 3);
        assert_eq!(top[0].host, [99, 9, 9, 9], "victim must rank first: {top:?}");
        assert!(top[0].distinct_peers > 50);
    }

    #[test]
    fn fan_reports_are_sorted_and_truncated() {
        let mut im = system();
        for i in 0..10u8 {
            for d in 0..=i {
                feed(&mut im, flow([10, 9, 0, i], [20, 9, 0, d], 5000), 600);
            }
        }
        let top = top_fanout_sources(im.wsaf(), 4);
        assert_eq!(top.len(), 4);
        for pair in top.windows(2) {
            assert!(pair[0].distinct_peers >= pair[1].distinct_peers);
        }
    }

    #[test]
    fn prefix_aggregation_groups_by_network() {
        let mut im = system();
        // Two /24s: 10.1.1.0/24 heavy, 10.2.2.0/24 light.
        for h in 0..10u8 {
            feed(&mut im, flow([10, 1, 1, h], [99, 0, 0, h], 6000), 2_000);
        }
        feed(&mut im, flow([10, 2, 2, 1], [99, 0, 0, 99], 6001), 500);
        let top = top_source_prefixes(im.wsaf(), 24, 2);
        assert_eq!(top[0].network, [10, 1, 1, 0]);
        assert_eq!(top[0].prefix_len, 24);
        assert!(top[0].flows >= 8, "most /24 members sampled: {}", top[0].flows);
        assert!(top[0].packets > top[1].packets * 5.0);
    }

    #[test]
    fn prefix_zero_aggregates_everything() {
        let mut im = system();
        feed(&mut im, flow([1, 1, 1, 1], [2, 2, 2, 2], 6002), 1_000);
        feed(&mut im, flow([200, 1, 1, 1], [2, 2, 2, 2], 6003), 1_000);
        let all = top_source_prefixes(im.wsaf(), 0, 10);
        assert_eq!(all.len(), 1, "/0 collapses to one bucket");
        assert_eq!(all[0].network, [0, 0, 0, 0]);
        assert_eq!(all[0].flows, im.wsaf().len());
    }

    #[test]
    fn prefix_32_is_per_host() {
        let mut im = system();
        feed(&mut im, flow([8, 8, 8, 8], [2, 2, 2, 2], 6004), 1_000);
        let hosts = top_source_prefixes(im.wsaf(), 32, 10);
        assert_eq!(hosts[0].network, [8, 8, 8, 8]);
    }

    #[test]
    fn rankings_order_ties_by_host_then_network() {
        // A hub source sends one same-sized flow to each of eight hosts,
        // and each of eight other sources sends one to a hub destination:
        // behind each hub, every ranking ties on all its counts.
        let mut table = WsafTable::new(WsafConfig::builder().entries_log2(8).build().unwrap());
        for h in (0..8u8).rev() {
            table.accumulate(&flow([10, h, 0, 1], [20, 0, 0, 1], 7000), 5.0, 500.0, 0);
            table.accumulate(&flow([30, 0, 0, 1], [40, h, 0, 1], 7001), 5.0, 500.0, 0);
        }
        let ranked = |hub: [u8; 4], first: u8, last: u8| {
            std::iter::once(hub).chain((0..8u8).map(|h| [first, h, 0, last])).collect::<Vec<_>>()
        };
        for _ in 0..16 {
            let sources: Vec<[u8; 4]> =
                top_fanout_sources(&table, 9).iter().map(|r| r.host).collect();
            assert_eq!(sources, ranked([30, 0, 0, 1], 10, 1));
            let victims: Vec<[u8; 4]> =
                top_fanin_destinations(&table, 9).iter().map(|r| r.host).collect();
            assert_eq!(victims, ranked([20, 0, 0, 1], 40, 1));
            let networks: Vec<[u8; 4]> =
                top_source_prefixes(&table, 16, 9).iter().map(|r| r.network).collect();
            assert_eq!(networks, ranked([30, 0, 0, 0], 10, 0));
        }
    }

    #[test]
    #[should_panic(expected = "prefix length must be 0..=32")]
    fn prefix_rejects_bad_length() {
        let im = system();
        let _ = top_source_prefixes(im.wsaf(), 33, 1);
    }
}
