//! Detection-latency bench: the paper's "instant" claim as a number.
//!
//! InstaMeasure's pitch is per-flow state fresh enough that anomaly
//! verdicts land within ~10 ms of the triggering epoch closing. This
//! bench runs the real daemon over loopback TCP at `serve`'s default
//! geometry (a 2^20-slot WSAF per shard), makes an attack resident, and
//! times the full client-observed path per epoch: rotate request →
//! per-shard feature capture → feature merge → detector suite → alert
//! frame back on the subscriber's socket.
//!
//! Two cases:
//!
//! * **attack only** — a 200-destination horizontal scan per epoch on 2
//!   shards, a few hundred resident flows. Gated on p99.
//! * **CAIDA scale** — the same scan inside `caida_like(0.1, 1)`
//!   replayed [`CAIDA_REPLAYS`] times per epoch, which leaves ~15 k
//!   flows WSAF-resident, on 1 and 4 shards. Gated on p50: every
//!   epoch's features scale with the live flows.
//!
//! The run writes `BENCH_detect.json` with p50/p99/max onset→alert
//! latency for each case. If a gated percentile exceeds the budget it
//! prints a `DETECT-REGRESSION` line.
//!
//! Smoke mode shrinks the epoch counts and relaxes the budget.

use std::time::Duration;

use instameasure_bench::harness::{self, Gate, Obj, Timer};
use instameasure_core::detect::{AnomalyKind, DetectorConfig};
use instameasure_core::InstaMeasureConfig;
use instameasure_packet::PacketRecord;
use instameasure_service::server::{Server, ServiceConfig};
use instameasure_service::{DetectionConfig, ServiceClient};
use instameasure_traffic::adversarial::horizontal_scan;
use instameasure_traffic::merge_records;
use instameasure_traffic::presets::caida_like;

/// Times the CAIDA-like trace is pushed per epoch: enough that nearly
/// every one of its 15 k flows leaves the regulator for the WSAF.
const CAIDA_REPLAYS: usize = 40;

/// One case's rotate→alert latencies, in milliseconds.
struct Latencies {
    shards: usize,
    epochs: usize,
    resident_flows: u64,
    p50: f64,
    p99: f64,
    max: f64,
}

impl Latencies {
    fn json(&self) -> Obj {
        Obj::default()
            .with("shards", self.shards)
            .with("epochs", self.epochs)
            .with("resident_flows", self.resident_flows)
            .with("p50_ms", self.p50)
            .with("p99_ms", self.p99)
            .with("max_ms", self.max)
    }
}

/// Boots a daemon with `shards` workers at `serve`'s per-shard
/// geometry, pushes every slice of `epoch` once per epoch, and times
/// rotate → the scanner's super-spreader alert in each of `epochs`
/// epochs.
fn rotate_to_alert(shards: usize, epoch: &[&[PacketRecord]], epochs: usize) -> Latencies {
    let cfg = ServiceConfig::builder()
        .addr("127.0.0.1:0")
        .workers(shards)
        .batch_size(512)
        .read_timeout(Duration::from_secs(5))
        .per_worker(InstaMeasureConfig::default())
        .detect(DetectionConfig { interval: None, detectors: DetectorConfig::default() })
        .build()
        .expect("static bench config is valid");
    let server = Server::start(cfg).expect("loopback bind");
    let mut tap = ServiceClient::connect(server.local_addr()).expect("tap connect");
    // Short read timeout: the per-epoch straggler drain costs one
    // timeout tick, not the default 10 s.
    let mut sub =
        ServiceClient::connect_with_timeout(server.local_addr(), Duration::from_millis(100))
            .expect("subscriber connect");
    sub.subscribe(0).expect("detection is enabled");

    let mut timer = Timer::default();
    let mut resident_flows = 0;
    for _ in 0..epochs {
        // Make the epoch resident, outside the timed region: the
        // measured path is epoch close → alert on the wire, not ingest.
        for records in epoch {
            tap.push_records(records).expect("push over loopback");
        }
        loop {
            let s = sub.status().expect("status");
            if s.packets_processed == s.packets_submitted {
                resident_flows = s.flows;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }

        timer.time(|| {
            sub.rotate().expect("rotate closes the epoch");
            loop {
                match sub.next_alert().expect("alert stream") {
                    Some((_, a)) if a.kind == AnomalyKind::SuperSpreader => break,
                    Some(_) => continue,
                    None => panic!("scan epoch closed without a spreader alert"),
                }
            }
        });
        // Drain stragglers so the next epoch starts clean.
        while sub.next_alert().expect("alert stream").is_some() {}
    }

    drop(sub); // a live subscriber would hold the shutdown's drain grace
    tap.shutdown().expect("daemon drains clean");
    server.join();

    let [p50, p99, max] = [0.5, 0.99, 1.0].map(|p| timer.quantile_secs(p) * 1e3);
    println!(
        "detect: {shards} shard(s), {resident_flows} resident flows, {epochs} epochs, \
         onset->alert p50 {p50:.3} ms, p99 {p99:.3} ms, max {max:.3} ms"
    );
    Latencies { shards, epochs, resident_flows, p50, p99, max }
}

fn main() {
    let smoke = harness::smoke();
    // The paper's detection target for the full run, a shared-core
    // allowance for smoke.
    let budget = if smoke { 25.0 } else { 10.0 };
    let (scan, _) = horizontal_scan(200, 300, 0);
    let attack = rotate_to_alert(2, &[&scan], if smoke { 20 } else { 200 });

    // The scan rides in one replay of the trace, so every epoch alerts.
    let trace = caida_like(0.1, 1).records;
    let with_scan = merge_records(vec![trace.clone(), scan]);
    let mut epoch: Vec<&[PacketRecord]> = vec![&trace; CAIDA_REPLAYS - 1];
    epoch.push(&with_scan);
    let caida = [1, 4].map(|shards| rotate_to_alert(shards, &epoch, if smoke { 3 } else { 30 }));

    harness::record("detect")
        .with("epochs", attack.epochs)
        .with("wsaf_entries", InstaMeasureConfig::default().wsaf.num_entries())
        .with("attack", "horizontal_scan(200, 300)")
        .with("p50_ms", attack.p50)
        .with("p99_ms", attack.p99)
        .with("max_ms", attack.max)
        .with("budget_ms", budget)
        .with("caida", format!("caida_like(0.1, 1) x {CAIDA_REPLAYS} + horizontal_scan(200, 300)"))
        .with("caida_rows", caida.iter().map(Latencies::json).collect::<Vec<_>>())
        .write("detect");

    let mut gate = Gate::new("DETECT");
    gate.fail_if(
        attack.p99 > budget,
        format_args!("p99 alert latency {:.3} ms exceeds the {budget:.0} ms budget", attack.p99),
    );
    for r in &caida {
        gate.fail_if(
            r.p50 > budget,
            format_args!(
                "caida-scale p50 alert latency {:.3} ms on {} shard(s) exceeds the {budget:.0} ms \
                 budget",
                r.p50, r.shards
            ),
        );
    }
}
