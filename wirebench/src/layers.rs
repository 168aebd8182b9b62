//! Per-layer timings for the traced run: the public functions of each
//! layer called from outside, with no socket in between, on the
//! workload's own inputs and at the daemon's geometry.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use instameasure::core::detect::{DetectorConfig, DetectorSuite, EpochFeatures};
use instameasure::core::InstaMeasure;
use instameasure::packet::chunk::read_records_mmap;
use instameasure::packet::{FlowKey, PacketRecord};
use instameasure::service::client::PUSH_CHUNK_RECORDS;
use instameasure::service::wire::HEADER_BYTES;
use instameasure::service::{Engine, EngineConfig, Request};
use instameasure::sketch::{FilterKind, FlowFilter, FlowUpdate};
use instameasure::telemetry::SharedRegistry;
use instameasure::wsaf::{WsafDeposit, WsafTable};

use crate::live::{per_worker, serve_config, SHARDS, TAIL, TOP_K};
use crate::stats::{median, percentile, samples_needed};

/// Packets each per-packet timing covers at least (the input is
/// replayed as often as needed).
const MIN_PACKETS: usize = 1_000_000;
/// Repetitions of the short whole-structure timings (clone, top-k,
/// absorb, evaluate, rotate); the median is reported.
const REPS: usize = 7;

/// One per-layer metric: name and value (`main` holds the units).
pub type Metric = (&'static str, f64);

fn passes(records: &[PacketRecord]) -> usize {
    MIN_PACKETS.div_ceil(records.len().max(1)).clamp(1, 64)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median_ms(mut f: impl FnMut() -> Duration) -> f64 {
    let samples: Vec<f64> = (0..REPS).map(|_| ms(f())).collect();
    median(&samples)
}

fn engine_config() -> EngineConfig {
    let cfg = serve_config(false);
    EngineConfig {
        workers: SHARDS,
        batch_size: cfg.batch_size,
        queue_batches: cfg.queue_batches,
        pin: cfg.pin,
        per_worker: cfg.per_worker,
    }
}

/// `read_records_mmap` over the workload's pcap.
fn packet_layer(pcap: &Path, out: &mut Vec<Metric>) -> Result<(), String> {
    let mut per_pkt = Vec::new();
    let mut skipped = 0;
    let deadline = Instant::now() + Duration::from_millis(500);
    while per_pkt.len() < 3 || Instant::now() < deadline {
        let t = Instant::now();
        let (records, s) =
            read_records_mmap(pcap).map_err(|e| format!("read_records_mmap: {e}"))?;
        per_pkt.push(t.elapsed().as_nanos() as f64 / records.len().max(1) as f64);
        skipped = s;
        black_box(records);
    }
    out.push(("packet.parse_ns_per_pkt", median(&per_pkt)));
    out.push(("packet.skipped", skipped as f64));
    Ok(())
}

/// `Request::IngestBatch` encode (as `push_batch` builds it) and decode
/// on `PUSH_CHUNK_RECORDS` frames.
fn wire_layer(records: &[PacketRecord], out: &mut Vec<Metric>) -> Result<(), String> {
    let (mut enc, mut dec, mut pkts, mut bytes) = (Duration::ZERO, Duration::ZERO, 0usize, 0usize);
    for _ in 0..passes(records) {
        for chunk in records.chunks(PUSH_CHUNK_RECORDS) {
            let t = Instant::now();
            let frame = Request::IngestBatch(chunk.to_vec()).encode();
            enc += t.elapsed();
            let t = Instant::now();
            let back = Request::decode(&frame).map_err(|e| format!("decode: {e}"))?;
            dec += t.elapsed();
            match back {
                Request::IngestBatch(r) if r.len() == chunk.len() => {}
                _ => return Err("an ingest frame decoded to something else".into()),
            }
            pkts += chunk.len();
            bytes += HEADER_BYTES + frame.payload.len();
        }
    }
    let n = pkts.max(1) as f64;
    out.push(("wire.encode_ns_per_pkt", enc.as_nanos() as f64 / n));
    out.push(("wire.decode_ns_per_pkt", dec.as_nanos() as f64 / n));
    out.push(("wire.bytes_per_pkt", bytes as f64 / n));
    Ok(())
}

/// `Engine::lane` + `IngestLane::submit` + `Engine::drain`, no socket.
fn engine_ingest(records: &[PacketRecord], out: &mut Vec<Metric>) -> Result<(), String> {
    let engine = Engine::start(&engine_config(), Arc::new(SharedRegistry::new()));
    let reps = passes(records);
    let t = Instant::now();
    let mut lane = engine.lane().ok_or("a fresh engine refused a lane")?;
    for _ in 0..reps {
        for chunk in records.chunks(PUSH_CHUNK_RECORDS) {
            lane.submit(chunk).map_err(|e| e.to_string())?;
        }
    }
    lane.flush().map_err(|e| e.to_string())?;
    drop(lane);
    let report = engine.drain();
    let elapsed = t.elapsed();
    let n = (reps * records.len()) as u64;
    if report.processed != n || report.submitted != n {
        return Err(format!("engine drain: {} of {n} processed", report.processed));
    }
    out.push(("engine.ingest_ns_per_pkt", elapsed.as_nanos() as f64 / n as f64));
    Ok(())
}

/// `Engine::estimate` / `Engine::top_k` while a lane ingests, then
/// `Engine::rotate_with_snapshots` with a pass of ingest between
/// rotations.
fn engine_queries(
    records: &[PacketRecord],
    keys: &[FlowKey],
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let registry = Arc::new(SharedRegistry::new());
    let engine = Engine::start(&engine_config(), Arc::clone(&registry));
    let stop = AtomicBool::new(false);
    let n = records.len() as u64;
    let (estimates, top_ks) = std::thread::scope(|s| {
        let feeder = s.spawn(|| {
            let mut lane = engine.lane().expect("a fresh engine opens a lane");
            while !stop.load(Ordering::SeqCst) {
                for chunk in records.chunks(PUSH_CHUNK_RECORDS) {
                    lane.submit(chunk).expect("the engine stays open while the feeder runs");
                }
            }
            lane.flush().expect("the engine stays open while the feeder runs");
        });
        // Each call first waits for the worker to process past the last
        // answer, so every one finds a stale view, as paced live queries
        // do.
        let mut fresh_after = n;
        let mut timed = |call: &mut dyn FnMut()| {
            while engine.packets_processed() < fresh_after {
                std::thread::sleep(Duration::from_micros(200));
            }
            let t = Instant::now();
            call();
            let took = ms(t.elapsed());
            fresh_after = engine.packets_processed() + 1;
            took
        };
        let estimates: Vec<f64> = (0..samples_needed(TAIL))
            .map(|i| {
                timed(&mut || {
                    black_box(engine.estimate(&keys[i % keys.len()]));
                })
            })
            .collect();
        let top_ks: Vec<f64> = (0..REPS)
            .map(|_| {
                timed(&mut || {
                    black_box(engine.top_k(TOP_K as usize));
                })
            })
            .collect();
        stop.store(true, Ordering::SeqCst);
        feeder.join().expect("the feeder thread does not panic");
        (estimates, top_ks)
    });
    let p50 = percentile(&estimates, 50.0).ok_or("too few estimate samples")?;
    let p90 = percentile(&estimates, TAIL).ok_or("too few estimate samples")?;
    out.push(("engine.estimate_ms.p50", p50));
    out.push(("engine.estimate_ms.p90", p90));
    out.push(("engine.top_k_ms", median(&top_ks)));
    let retries = registry.snapshot().counter("service.snapshot.retries").unwrap_or(0);
    out.push(("engine.snapshot_retries", retries as f64));

    let rotate_ms = median_ms(|| {
        let before = engine.packets_processed();
        let mut lane = engine.lane().expect("the engine stays open until the drain below");
        for chunk in records.chunks(PUSH_CHUNK_RECORDS) {
            lane.submit(chunk).expect("the engine stays open until the drain below");
        }
        // Dropping the lane flushes its partial batches.
        drop(lane);
        while engine.packets_processed() < before + n {
            std::thread::sleep(Duration::from_micros(200));
        }
        let t = Instant::now();
        black_box(engine.rotate_with_snapshots());
        t.elapsed()
    });
    out.push(("engine.rotate_ms", rotate_ms));
    engine.drain();
    Ok(())
}

/// `InstaMeasure`, `FlowFilter`, `WsafTable` and the detectors, offline.
fn core_sketch_wsaf_detect(records: &[PacketRecord], keys: &[FlowKey], out: &mut Vec<Metric>) {
    let cfg = per_worker();
    let reps = passes(records);
    let n = (reps * records.len()) as f64;

    // core: the whole per-shard pipeline.
    let mut im = InstaMeasure::new(cfg);
    let t = Instant::now();
    for _ in 0..reps {
        for batch in records.chunks(256) {
            im.process_batch(batch);
        }
    }
    out.push(("core.process_ns_per_pkt", t.elapsed().as_nanos() as f64 / n));
    out.push((
        "core.clone_ms",
        median_ms(|| {
            let t = Instant::now();
            black_box(im.clone());
            t.elapsed()
        }),
    ));
    let lookups = 100_000;
    let t = Instant::now();
    for i in 0..lookups {
        black_box(im.estimate(&keys[i % keys.len()]));
    }
    out.push(("core.estimate_ns", t.elapsed().as_nanos() as f64 / lookups as f64));
    drop(im);

    // sketch: the configured filter alone; its releases become the WSAF
    // layer's input, batch by batch.
    let mut filter = FilterKind::Regulator.build(cfg.sketch);
    let mut updates: Vec<FlowUpdate> = Vec::new();
    let mut batches: Vec<Vec<WsafDeposit>> = Vec::new();
    let mut filter_time = Duration::ZERO;
    for _ in 0..reps {
        for batch in records.chunks(256) {
            updates.clear();
            let t = Instant::now();
            filter.process_batch(batch, &mut updates);
            filter_time += t.elapsed();
            batches.push(
                updates
                    .iter()
                    .map(|u| WsafDeposit {
                        key: u.key,
                        digest: u.digest,
                        est_pkts: u.est_pkts,
                        est_bytes: u.est_bytes,
                        ts: u.ts_nanos,
                    })
                    .collect(),
            );
        }
    }
    let stats = filter.stats();
    out.push(("sketch.filter_ns_per_pkt", filter_time.as_nanos() as f64 / n));
    out.push(("sketch.regulation_rate", stats.regulation_rate()));
    out.push(("sketch.updates", stats.updates as f64));
    out.push(("sketch.packets", stats.packets as f64));

    // wsaf: the filter's deposits, in the batches they were released in.
    let mut table = WsafTable::new(cfg.wsaf);
    let half = batches.len() / 2;
    let mut prev = EpochFeatures::default();
    let mut accumulate = Duration::ZERO;
    for (i, deposits) in batches.iter().enumerate() {
        if i == half {
            prev.absorb(&table);
        }
        let t = Instant::now();
        table.accumulate_batch(deposits);
        accumulate += t.elapsed();
    }
    let deposits: usize = batches.iter().map(Vec::len).sum();
    out.push((
        "wsaf.accumulate_ns_per_update",
        accumulate.as_nanos() as f64 / deposits.max(1) as f64,
    ));
    out.push(("wsaf.resident_flows", table.len() as f64));
    out.push((
        "wsaf.top_k_ms",
        median_ms(|| {
            let t = Instant::now();
            black_box(table.top_k_by_packets(TOP_K as usize));
            t.elapsed()
        }),
    ));

    // detect: one epoch's features and the suite over (half, whole).
    let mut cur = EpochFeatures::default();
    out.push((
        "detect.absorb_ms",
        median_ms(|| {
            cur = EpochFeatures::default();
            let t = Instant::now();
            cur.absorb(&table);
            t.elapsed()
        }),
    ));
    let suite = DetectorSuite::standard(DetectorConfig::default());
    out.push((
        "detect.evaluate_ms",
        median_ms(|| {
            let t = Instant::now();
            black_box(suite.evaluate(1, Some(&prev), &cur));
            t.elapsed()
        }),
    ));
}

/// Every offline per-layer metric for one workload's inputs.
///
/// # Errors
///
/// Returns what failed if a layer call errors or miscounts.
pub fn measure(
    records: &[PacketRecord],
    pcap: &Path,
    keys: &[FlowKey],
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    packet_layer(pcap, &mut out)?;
    wire_layer(records, &mut out)?;
    engine_ingest(records, &mut out)?;
    engine_queries(records, keys, &mut out)?;
    core_sketch_wsaf_detect(records, keys, &mut out);
    Ok(out)
}
