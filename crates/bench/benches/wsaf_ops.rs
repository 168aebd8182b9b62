//! Micro-bench: WSAF accumulate/lookup cost at varying load factors —
//! the DRAM-side cost of the `{ips = pps}` relaxation argument.

use instameasure_bench::harness::{self, Timer};
use instameasure_packet::{FlowKey, Protocol};
use instameasure_wsaf::{WsafConfig, WsafTable};

fn key(i: u32) -> FlowKey {
    FlowKey::new(i.to_be_bytes(), (i ^ 0x5A5A).to_be_bytes(), 80, 443, Protocol::Tcp)
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
}
