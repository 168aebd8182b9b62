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
//! A manual timing pass writes `BENCH_detect.json` at the repo root
//! (override with `INSTAMEASURE_BENCH_JSON`) with p50/p99/max
//! onset→alert latency. If p99 exceeds the budget the run prints a
//! `DETECT-REGRESSION` marker, which the CI bench-smoke job greps for.
//!
//! `INSTAMEASURE_BENCH_SMOKE=1` shrinks the epoch count and relaxes the
//! budget — CI shares cores; the full run enforces the paper's number.

use std::time::{Duration, Instant};

use instameasure_core::detect::{AnomalyKind, DetectorConfig};
use instameasure_core::InstaMeasureConfig;
use instameasure_service::server::{Server, ServiceConfig};
use instameasure_service::{DetectionConfig, ServiceClient};
use instameasure_traffic::adversarial::horizontal_scan;

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

fn main() {
    let smoke = std::env::var("INSTAMEASURE_BENCH_SMOKE").is_ok();
    let epochs = if smoke { 20 } else { 200 };

    let per_worker = InstaMeasureConfig::default();
    let wsaf_entries = per_worker.wsaf.num_entries();
    let cfg = ServiceConfig::builder()
        .addr("127.0.0.1:0")
        .workers(2)
        .batch_size(512)
        .read_timeout(Duration::from_secs(5))
        .per_worker(per_worker)
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

    let (records, _) = horizontal_scan(200, 300, 0);
    let mut samples_ms = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        // Make the attack resident, outside the timed region: the
        // measured path is epoch close → alert on the wire, not ingest.
        tap.push_records(&records).expect("push over loopback");
        loop {
            let s = sub.status().expect("status");
            if s.packets_processed == s.packets_submitted {
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

    samples_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let (p50, p99) = (percentile(&samples_ms, 0.50), percentile(&samples_ms, 0.99));
    let max = *samples_ms.last().expect("at least one epoch ran");
    let budget = budget_ms(smoke);
    println!(
        "detect: {epochs} epochs, onset->alert p50 {p50:.3} ms, p99 {p99:.3} ms, max {max:.3} ms \
         (budget {budget:.0} ms)"
    );

    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        "{{\n  \"bench\": \"detect\",\n  \"smoke\": {smoke},\n  \"cpus\": {cpus},\n  \
         \"epochs\": {epochs},\n  \"wsaf_entries\": {wsaf_entries},\n  \
         \"attack\": \"horizontal_scan(200, 300)\",\n  \
         \"p50_ms\": {p50:.3},\n  \"p99_ms\": {p99:.3},\n  \"max_ms\": {max:.3},\n  \
         \"budget_ms\": {budget:.1}\n}}\n"
    );
    let path = std::env::var("INSTAMEASURE_BENCH_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_detect.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&path, json).expect("write BENCH_detect.json");
    println!("detect: wrote {path}");

    if p99 > budget {
        println!(
            "DETECT-REGRESSION: p99 alert latency {p99:.3} ms exceeds the {budget:.0} ms budget"
        );
    }

    drop(sub); // a live subscriber would hold the shutdown's drain grace
    tap.shutdown().expect("daemon drains clean");
    server.join();
}
