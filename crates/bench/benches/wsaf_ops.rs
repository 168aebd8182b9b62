//! Micro-bench: WSAF accumulate/lookup cost at varying load factors —
//! the DRAM-side cost of the `{ips = pps}` relaxation argument — and
//! top-k on a serve-sized table.
//!
//! Top-k runs `top_k_by_packets(100)` on a 2^20-slot table holding 15,000
//! (the live `caida_query` daemon's count) and 500,000 flows, against a
//! reference ranking built from `iter()`: the walk of one 56-byte entry
//! per live flow across the arena that the table's rank rows replaced.
//! A `WSAF-REGRESSION:` line means the rows are no longer at least 2×
//! (1.2× in smoke mode) faster than that walk at 15,000 flows.

use instameasure_bench::harness::{self, Gate, Timer};
use instameasure_packet::{FlowKey, Protocol};
use instameasure_wsaf::{FlowEntry, WsafConfig, WsafTable};
use rand::{Rng, SeedableRng};

fn key(i: u32) -> FlowKey {
    FlowKey::new(i.to_be_bytes(), (i ^ 0x5A5A).to_be_bytes(), 80, 443, Protocol::Tcp)
}

/// The ranking the table's rows replaced: every live entry read from the
/// arena, the best `k` selected, then sorted, ties by slot as the table
/// breaks them.
fn top_k_from_iter(t: &WsafTable, k: usize) -> Vec<FlowEntry> {
    let rank = |a: &(f64, usize, &FlowEntry), b: &(f64, usize, &FlowEntry)| {
        b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
    };
    let mut ranked: Vec<_> = t.iter().enumerate().map(|(i, e)| (e.packets, i, e)).collect();
    if k < ranked.len() {
        ranked.select_nth_unstable_by(k, rank);
        ranked.truncate(k);
    }
    ranked.sort_unstable_by(rank);
    ranked.into_iter().map(|(_, _, e)| *e).collect()
}

/// `top_k_by_packets(100)` against [`top_k_from_iter`] on a 2^20-slot
/// table holding `flows` flows of random size; returns the speedup of the
/// best samples.
fn top_k(flows: u32, samples: usize) -> f64 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(u64::from(flows));
    let mut t = WsafTable::new(WsafConfig::builder().entries_log2(20).build().unwrap());
    for i in 0..flows {
        let packets = rng.gen_range(1.0..10_000.0);
        t.accumulate(&key(i), packets, packets * 700.0, 0);
    }
    assert_eq!(t.top_k_by_packets(100), top_k_from_iter(&t, 100), "the two rankings differ");
    let (rows, _) = Timer::repeat(samples, || t.top_k_by_packets(100));
    rows.print(&format!("wsaf/top_k_100/{flows}_flows/rows"), t.len());
    let (walk, _) = Timer::repeat(samples, || top_k_from_iter(&t, 100));
    walk.print(&format!("wsaf/top_k_100/{flows}_flows/iter_reference"), t.len());
    walk.quantile_secs(0.0) / rows.quantile_secs(0.0)
}

fn main() {
    let samples = if harness::smoke() { 1 } else { 10 };
    let ops = 10_000u32;
    for load_pct in [25u32, 75] {
        let cfg = WsafConfig::builder().entries_log2(16).probe_limit(16).build().unwrap();
        let n = (1u32 << 16) * load_pct / 100;
        let fill = || {
            let mut t = WsafTable::new(cfg);
            for i in 0..n {
                t.accumulate(&key(i), 1.0, 64.0, 0);
            }
            t
        };

        let (timer, _) = Timer::repeat(samples, || {
            let mut t = fill();
            for i in 0..ops {
                t.accumulate(&key(i % n.max(1)), 1.0, 64.0, 1);
            }
            t.len()
        });
        timer.print(&format!("wsaf/accumulate/{load_pct}pct"), ops as usize);

        let t = fill();
        let (timer, _) = Timer::repeat(samples, || {
            (0..ops).filter(|i| t.get(&key(i % n.max(1))).is_some()).count()
        });
        timer.print(&format!("wsaf/lookup/{load_pct}pct"), ops as usize);
    }

    let top_k_samples = if harness::smoke() { 5 } else { 20 };
    let speedup = top_k(15_000, top_k_samples);
    let at_500k = top_k(500_000, top_k_samples);
    println!("wsaf/top_k_100 speedup over the iter() ranking: {speedup:.2}x at 15000 flows, {at_500k:.2}x at 500000");
    let floor = if harness::smoke() { 1.2 } else { 2.0 };
    Gate::new("WSAF").fail_if(
        speedup < floor,
        format_args!("top-k at 15000 flows is {speedup:.2}x the iter() ranking, below {floor}x"),
    );
}
