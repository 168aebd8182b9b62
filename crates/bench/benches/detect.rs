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
//! A manual timing pass writes `BENCH_detect.json` at the repo root
//! (override with `INSTAMEASURE_BENCH_JSON`) with p50/p99/max
//! onset→alert latency for each case. If a gated percentile exceeds the
//! budget the run prints a `DETECT-REGRESSION` marker, which the CI
//! bench-smoke job greps for.
//!
//! `INSTAMEASURE_BENCH_SMOKE=1` shrinks the epoch counts and relaxes the
//! budget — CI shares cores; the full run enforces the paper's number.

use std::time::{Duration, Instant};

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

/// Alert-latency budget in milliseconds: the paper's detection target
/// for the full run, a shared-core allowance for smoke.
fn budget_ms(smoke: bool) -> f64 {
    if smoke {
        25.0
    } else {
        10.0
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// One case's rotate→alert latencies.
struct Latencies {
    epochs: usize,
    resident_flows: u64,
    p50: f64,
    p99: f64,
    max: f64,
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

    let mut samples_ms = Vec::with_capacity(epochs);
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

        let t0 = Instant::now();
        sub.rotate().expect("rotate closes the epoch");
        loop {
            match sub.next_alert().expect("alert stream") {
                Some((_, a)) if a.kind == AnomalyKind::SuperSpreader => break,
                Some(_) => continue,
                None => panic!("scan epoch closed without a spreader alert"),
            }
        }
        samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        // Drain stragglers so the next epoch starts clean.
        while sub.next_alert().expect("alert stream").is_some() {}
    }

    drop(sub); // a live subscriber would hold the shutdown's drain grace
    tap.shutdown().expect("daemon drains clean");
    server.join();

    samples_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    Latencies {
        epochs,
        resident_flows,
        p50: percentile(&samples_ms, 0.50),
        p99: percentile(&samples_ms, 0.99),
        max: *samples_ms.last().expect("at least one epoch ran"),
    }
}

fn main() {
    let smoke = std::env::var("INSTAMEASURE_BENCH_SMOKE").is_ok();
    let budget = budget_ms(smoke);
    let wsaf_entries = InstaMeasureConfig::default().wsaf.num_entries();
    let (scan, _) = horizontal_scan(200, 300, 0);

    let attack = rotate_to_alert(2, &[&scan], if smoke { 20 } else { 200 });
    println!(
        "detect: {} epochs, onset->alert p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms \
         (budget {budget:.0} ms)",
        attack.epochs, attack.p50, attack.p99, attack.max
    );

    // The scan rides in one replay of the trace, so every epoch alerts.
    let trace = caida_like(0.1, 1).records;
    let with_scan = merge_records(vec![trace.clone(), scan]);
    let caida_epochs = if smoke { 3 } else { 30 };
    let mut epoch: Vec<&[PacketRecord]> = vec![&trace; CAIDA_REPLAYS - 1];
    epoch.push(&with_scan);
    let caida: Vec<(usize, Latencies)> = [1, 4]
        .into_iter()
        .map(|shards| {
            let row = rotate_to_alert(shards, &epoch, caida_epochs);
            println!(
                "detect: caida scale, {shards} shard(s), {} resident flows, {} epochs, \
                 onset->alert p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms (budget {budget:.0} ms)",
                row.resident_flows, row.epochs, row.p50, row.p99, row.max
            );
            (shards, row)
        })
        .collect();

    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let caida_rows: Vec<String> = caida
        .iter()
        .map(|(shards, r)| {
            format!(
                "    {{\"shards\": {shards}, \"epochs\": {}, \"resident_flows\": {}, \
                 \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"max_ms\": {:.3}}}",
                r.epochs, r.resident_flows, r.p50, r.p99, r.max
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"detect\",\n  \"smoke\": {smoke},\n  \"cpus\": {cpus},\n  \
         \"epochs\": {},\n  \"wsaf_entries\": {wsaf_entries},\n  \
         \"attack\": \"horizontal_scan(200, 300)\",\n  \
         \"p50_ms\": {:.3},\n  \"p99_ms\": {:.3},\n  \"max_ms\": {:.3},\n  \
         \"budget_ms\": {budget:.1},\n  \
         \"caida\": \"caida_like(0.1, 1) x {CAIDA_REPLAYS} + horizontal_scan(200, 300)\",\n  \
         \"caida_rows\": [\n{}\n  ]\n}}\n",
        attack.epochs,
        attack.p50,
        attack.p99,
        attack.max,
        caida_rows.join(",\n")
    );
    let path = std::env::var("INSTAMEASURE_BENCH_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_detect.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&path, json).expect("write BENCH_detect.json");
    println!("detect: wrote {path}");

    if attack.p99 > budget {
        println!(
            "DETECT-REGRESSION: p99 alert latency {:.3} ms exceeds the {budget:.0} ms budget",
            attack.p99
        );
    }
    for (shards, r) in &caida {
        if r.p50 > budget {
            println!(
                "DETECT-REGRESSION: caida-scale p50 alert latency {:.3} ms on {shards} shard(s) \
                 exceeds the {budget:.0} ms budget",
                r.p50
            );
        }
    }
}
