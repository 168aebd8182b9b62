//! `instameasure` — command-line per-flow measurement.
//!
//! Run `instameasure --help` for the full usage text. Offline commands
//! (`generate`, `analyze`, `report`) work on pcap files and flow-record
//! exports; live commands (`serve`, `push`, `query`) run and talk to the
//! streaming measurement daemon in `instameasure-service`.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::process::ExitCode;
use std::time::Duration;

use instameasure::autotune::{
    calibrate, solve, zipf_sizes, CalibrationOptions, MachineProfile, TunePlan, TuneRequest,
};
use instameasure::core::apps::{normalized_entropy, top_fanin_destinations, top_fanout_sources};
use instameasure::core::detect::{DetectorConfig, Subject, ALL_ANOMALY_KINDS};
use instameasure::core::export::{decode_records, encode_records, snapshot};
use instameasure::core::ingest::{run_multicore_pcap, IngestMode};
use instameasure::core::multicore::{run_multicore, MultiCoreConfig};
use instameasure::core::windowed::WindowedMeasurement;
use instameasure::core::{InstaMeasure, InstaMeasureConfig, InstaMeasureConfigError};
use instameasure::packet::pcap::{read_records, PcapWriter, TsResolution};
use instameasure::packet::synth::synthesize_frame;
use instameasure::packet::{FlowKey, Protocol};
use instameasure::service::server::{Server, ServiceConfig};
use instameasure::service::tune::TuneState;
use instameasure::service::wire::{PlanReport, StatusReport};
use instameasure::service::{ClientError, DetectionConfig, ServiceClient};
use instameasure::sketch::FilterKind;
use instameasure::telemetry::Instrumented;
use instameasure::traffic::presets::{caida_like, campus_like};

/// Where `push` and `query` look for a daemon when `--addr` is absent,
/// and where `serve` binds when `--listen` is absent.
const DEFAULT_ADDR: &str = "127.0.0.1:9901";

const USAGE: &str = "\
instameasure — instant per-flow measurement (InstaMeasure, ICDCS 2019)

USAGE:
    instameasure <COMMAND> [ARGS] [FLAGS]
    instameasure --help

OFFLINE COMMANDS:
    generate <out.pcap>     synthesize a Zipf trace as a standard pcap file
        --preset caida|campus   traffic mix preset               [caida]
        --scale F               trace scale factor               [0.02]
        --seed N                deterministic RNG seed           [42]

    analyze <in.pcap>       run the full pipeline over a capture, offline
        --top K                 flows to print per ranking       [10]
        --hh-threshold PKTS     also list flows >= PKTS packets  [off]
        --window-ms MS          per-epoch windowed reports       [off]
        --export FILE           write flow records (.imfr)       [off]
        --workers N             batched multi-core replay        [off]
        --batch-size B          packets per dispatch batch       [256]
        --mmap                  zero-copy mmap ingest path       [off]
        --filter KIND           front-end filter: regulator,
                                rcc, swing or hashflow           [regulator]
        --config FILE           boot from a `tune --apply` plan
                                file (overrides --filter)        [off]
        --metrics-json FILE     write telemetry snapshot JSON    [off]
        --no-simd               force the scalar hot path (also
                                INSTAMEASURE_NO_SIMD=1)          [off]

    report <flows.imfr>     summarize a flow-record export from analyze
        --top K                 flows to print                   [10]

    tune                    calibrate this host and solve a configuration
        --pps N                 offered load, packets/second     [1e6]
        --epsilon E             relative-error target            [0.05]
        --delta D               allowed violation probability    [0.05]
        --throughput            pps budget only (drops the
                                accuracy target)                 [off]
        --margin M              required capacity margin         [2.0]
        --flows N               synthetic workload: active flows [100000]
        --heaviest N            synthetic workload: top flow pkts[1000000]
        --trace FILE            derive the workload from a pcap  [off]
        --profile FILE          machine-profile cache path       [temp dir]
        --recalibrate           re-run the microbenchmarks even
                                if a cached profile exists       [off]
        --apply FILE            write the plan file for
                                `analyze --config` / review      [off]

LIVE COMMANDS (instameasure-service):
    serve                   run the streaming measurement daemon
        --listen ADDR           bind address                     [127.0.0.1:9901]
        --shards N              shard-owning worker threads      [4]
        --workers N             alias for --shards
        --pin                   pin each shard worker to a CPU   [off]
        --batch-size B          packets per dispatch batch       [256]
        --queue-batches Q       in-flight batches per shard ring [16]
        --max-frame-bytes N     reject larger wire frames        [1048576]
        --read-timeout-secs S   per-connection idle timeout      [30]
        --max-connections N     concurrent connection cap        [64]
        --filter KIND           front-end filter: regulator,
                                rcc, swing or hashflow           [regulator]
        --no-simd               force the scalar hot path (also
                                INSTAMEASURE_NO_SIMD=1)          [off]
        --detect                streaming anomaly detection      [off]
        --detect-epoch-ms MS    self-clocked epoch close; without
                                it epochs close on `query rotate`
                                (implies --detect)               [off]
        --auto-tune             size the shards from this host's
                                machine profile and the tune
                                flags above (--pps, --epsilon,
                                --delta, --margin, --flows,
                                --heaviest, --profile,
                                --recalibrate); serves the plan
                                to `query plan` and re-solves it
                                every epoch (implies --detect)   [off]

    push <in.pcap>          stream a capture into a running daemon
        --addr ADDR             daemon address                   [127.0.0.1:9901]
        --mmap                  zero-copy mmap pcap reader       [off]

    query <SUBCOMMAND>      ask a running daemon (online; never stops ingest)
        flow <SRC:SPORT> <DST:DPORT> <tcp|udp|icmp|NUM>
                                one flow's estimated packets and bytes
        top-k [--k K]           heaviest flows by packets        [k=10]
        status                  live packet-exact accounting summary
        telemetry               full telemetry snapshot as JSON
        plan                    the auto-tuned configuration plan
                                (daemon must run --auto-tune)
        rotate                  start a new measurement epoch
        shutdown                drain the pipeline and stop the daemon
        --addr ADDR             daemon address                   [127.0.0.1:9901]

    watch                   subscribe to streaming anomaly alerts
        --addr ADDR             daemon address                   [127.0.0.1:9901]
        --kinds LIST            comma list of entropy_shift,
                                super_spreader, ddos_victim,
                                heavy_change                     [all]

The wire protocol, frame layout and deployment examples are documented in
DESIGN.md; `examples/live_gateway.rs` is a runnable serve+push+query demo.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().skip(1).any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match args.get(1).map(String::as_str) {
        Some("generate") => generate(&args[2..]),
        Some("analyze") => analyze(&args[2..]),
        Some("report") => report(&args[2..]),
        Some("tune") => tune(&args[2..]),
        Some("serve") => serve(&args[2..]),
        Some("push") => push(&args[2..]),
        Some("query") => query(&args[2..]),
        Some("watch") => watch(&args[2..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("instameasure: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Fetches the value following `--name`, parsed, or `default`.
fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn flag_str<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// Stamps the hot-path dispatch facts (SIMD tier, prefetch distance,
/// detected CPU features) into a telemetry snapshot so `--metrics-json`
/// output records which kernel actually ran, whichever pipeline
/// produced the snapshot.
fn stamp_hotpath_gauges(snap: &mut instameasure::telemetry::Snapshot) {
    use instameasure::packet::{prefetch, simd};
    snap.set_gauge(
        "hotpath.prefetch_enabled",
        if prefetch::prefetch_enabled() { 1.0 } else { 0.0 },
    );
    snap.set_gauge("hotpath.prefetch_distance", prefetch::prefetch_distance() as f64);
    snap.set_gauge("hotpath.simd_enabled", if simd::simd_enabled() { 1.0 } else { 0.0 });
    for feature in simd::cpu_features() {
        snap.set_gauge(format!("hotpath.cpu.{feature}"), 1.0);
    }
}

/// Parses `--filter KIND` into a [`FilterKind`], surfacing unknown names
/// as a classified [`InstaMeasureConfigError`] rather than a panic.
fn filter_flag(args: &[String]) -> Result<FilterKind, InstaMeasureConfigError> {
    match flag_str(args, "--filter") {
        None => Ok(FilterKind::default()),
        Some(name) => name.parse().map_err(InstaMeasureConfigError::from),
    }
}

fn generate(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.first().ok_or("generate: missing output path")?;
    let preset = flag_str(args, "--preset").unwrap_or("caida");
    let scale = flag(args, "--scale", 0.02f64);
    let seed = flag(args, "--seed", 42u64);
    let trace = match preset {
        "caida" => caida_like(scale, seed),
        "campus" => campus_like(scale, seed),
        other => return Err(format!("unknown preset '{other}' (caida|campus)").into()),
    };
    let mut w = PcapWriter::new(BufWriter::new(File::create(path)?), TsResolution::Nano)?;
    for pkt in &trace.records {
        w.write_packet(pkt.ts_nanos, &synthesize_frame(pkt))?;
    }
    w.into_inner()?;
    println!(
        "wrote {} packets / {} flows ({} preset, scale {scale}, seed {seed}) to {path}",
        trace.stats.packets, trace.stats.flows, preset
    );
    Ok(())
}

fn analyze(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    if args.iter().any(|a| a == "--no-simd") {
        instameasure::packet::simd::set_simd_disabled(true);
    }
    let path = args.first().ok_or("analyze: missing pcap path")?;
    let top = flag(args, "--top", 10usize);
    let hh_threshold = flag(args, "--hh-threshold", 0.0f64);
    let metrics_json = flag_str(args, "--metrics-json");
    let write_metrics = |snap: &instameasure::telemetry::Snapshot| -> std::io::Result<()> {
        if let Some(p) = metrics_json {
            let mut snap = snap.clone();
            stamp_hotpath_gauges(&mut snap);
            std::fs::write(p, snap.to_json())?;
            println!("\nmetrics JSON written to {p}");
        }
        Ok(())
    };

    let use_mmap = args.iter().any(|a| a == "--mmap");
    let window_ms = flag(args, "--window-ms", 0u64);
    let workers = flag(args, "--workers", 0usize);
    // `--config` boots the pipeline from a `tune --apply` plan file
    // (which fixes the filter too); `--filter` covers the default
    // geometry.
    let measure_cfg = match flag_str(args, "--config") {
        Some(path) => {
            let plan = TunePlan::load(std::path::Path::new(path))?;
            println!(
                "configured from {path}: {} KB L1, b={}, 2^{} WSAF entries, {} front end",
                plan.l1_memory_bytes / 1024,
                plan.vector_bits,
                plan.wsaf_entries_log2,
                plan.filter_kind()
            );
            plan.to_config(flag(args, "--seed", 42u64))?
        }
        None => InstaMeasureConfig::default().with_filter(filter_flag(args)?),
    };

    // Zero-copy multi-core mode: stream the capture straight from the
    // mapped file into the recycled dispatch batches, never materialising
    // the record vector in between.
    if use_mmap && workers > 0 && window_ms == 0 {
        let batch_size = flag(args, "--batch-size", 256usize);
        let cfg = MultiCoreConfig::builder()
            .workers(workers)
            .batch_size(batch_size)
            .per_worker(measure_cfg)
            .build()?;
        let (sys, mc, ingest) = run_multicore_pcap(path, IngestMode::Mmap, &cfg)?;
        if mc.packets == 0 {
            return Err("no parseable IPv4 packets in capture".into());
        }
        let span = ingest.last_ts_nanos as f64 / 1e9;
        println!(
            "capture: {} packets ({} skipped), {span:.2}s span [zero-copy ingest: \
             {} chunk fills, {} bytes mapped, {} copy fallbacks]",
            ingest.records,
            ingest.skipped_frames,
            ingest.stats.chunk_fills,
            ingest.stats.bytes_mapped,
            ingest.stats.copy_fallbacks
        );
        println!(
            "multicore: {workers} workers, batch size {batch_size}, {} batches sent \
             ({} partial flushes), {:.2} Mpps replay",
            mc.batches_sent,
            mc.batch_flushes,
            mc.throughput_pps / 1e6
        );
        println!("\ntop {top} flows by packets (merged across shards):");
        for (key, pkts) in sys.top_k_by_packets(top) {
            println!("  {:<46} {:>12.0} pkts", key.to_string(), pkts);
        }
        let mut snap = mc.telemetry.clone();
        snap.merge(&sys.telemetry());
        write_metrics(&snap)?;
        return Ok(());
    }

    let (records, skipped) = if use_mmap {
        instameasure::packet::chunk::read_records_mmap(path)?
    } else {
        read_records(BufReader::new(File::open(path)?))?
    };
    if records.is_empty() {
        return Err("no parseable IPv4 packets in capture".into());
    }

    // Optional windowed mode: per-epoch Top-K reports instead of one
    // whole-capture summary.
    if window_ms > 0 {
        let mut wm = WindowedMeasurement::new(measure_cfg, window_ms * 1_000_000, top);
        let print_window = |r: &instameasure::core::windowed::WindowReport| {
            println!(
                "window {:.3}s..{:.3}s: {} pkts, {} WSAF updates, entropy {:.3}",
                r.start_nanos as f64 / 1e9,
                r.end_nanos as f64 / 1e9,
                r.packets,
                r.wsaf_updates,
                r.entropy
            );
            for (key, pkts) in &r.top_by_packets {
                println!("    {key}  {pkts:.0} pkts");
            }
        };
        for pkt in &records {
            if let Some(report) = wm.process(pkt) {
                print_window(&report);
            }
        }
        print_window(&wm.finish());
        write_metrics(&wm.telemetry())?;
        return Ok(());
    }

    // Optional multi-core mode: replay through the sharded runtime and
    // report the merged shard view.
    if workers > 0 {
        let batch_size = flag(args, "--batch-size", 256usize);
        let cfg = MultiCoreConfig::builder()
            .workers(workers)
            .batch_size(batch_size)
            .per_worker(measure_cfg)
            .build()?;
        let (sys, mc) = run_multicore(&records, &cfg);
        let span = records.last().map_or(0, |r| r.ts_nanos) as f64 / 1e9;
        println!("capture: {} packets ({skipped} skipped), {span:.2}s span", records.len());
        println!(
            "multicore: {workers} workers, batch size {batch_size}, {} batches sent \
             ({} partial flushes), {:.2} Mpps replay",
            mc.batches_sent,
            mc.batch_flushes,
            mc.throughput_pps / 1e6
        );
        for w in 0..workers {
            let stats = sys.shard(w).filter_stats();
            println!(
                "  worker {w}: {} pkts ({} dropped), {} WSAF updates ({:.2}% regulated)",
                mc.per_worker_packets[w],
                mc.per_worker_dropped[w],
                stats.updates,
                stats.regulation_rate() * 100.0
            );
        }
        println!("\ntop {top} flows by packets (merged across shards):");
        for (key, pkts) in sys.top_k_by_packets(top) {
            println!("  {:<46} {:>12.0} pkts", key.to_string(), pkts);
        }
        let mut snap = mc.telemetry.clone();
        snap.merge(&sys.telemetry());
        write_metrics(&snap)?;
        return Ok(());
    }

    let mut im = InstaMeasure::new(measure_cfg);
    for r in &records {
        im.process(r);
    }

    let span = records.last().map_or(0, |r| r.ts_nanos) as f64 / 1e9;
    let stats = im.filter_stats();
    println!("capture: {} packets ({skipped} skipped), {span:.2}s span", records.len());
    println!(
        "pipeline: {} WSAF updates ({:.2}% of packets), {} table entries",
        stats.updates,
        stats.regulation_rate() * 100.0,
        im.wsaf().len()
    );

    println!("\ntop {top} flows by packets:");
    for e in im.wsaf().top_k_by_packets(top) {
        println!("  {:<46} {:>12.0} pkts {:>14.0} B", e.key.to_string(), e.packets, e.bytes);
    }
    println!("\ntop {top} flows by bytes:");
    for e in im.wsaf().top_k_by_bytes(top) {
        println!("  {:<46} {:>12.0} pkts {:>14.0} B", e.key.to_string(), e.packets, e.bytes);
    }

    if hh_threshold > 0.0 {
        let hh: Vec<_> = im.wsaf().iter().filter(|e| e.packets >= hh_threshold).collect();
        println!("\nheavy hitters (>= {hh_threshold} pkts): {}", hh.len());
        for e in hh.iter().take(top) {
            println!("  {:<46} {:>12.0} pkts", e.key.to_string(), e.packets);
        }
    }

    println!("\nanomaly signals:");
    println!("  normalized flow-size entropy: {:.3}", normalized_entropy(im.wsaf()));
    if let Some(f) = top_fanout_sources(im.wsaf(), 1).first() {
        println!(
            "  widest fan-out source: {}.{}.{}.{} -> {} peers",
            f.host[0], f.host[1], f.host[2], f.host[3], f.distinct_peers
        );
    }
    if let Some(f) = top_fanin_destinations(im.wsaf(), 1).first() {
        println!(
            "  widest fan-in destination: {}.{}.{}.{} <- {} peers",
            f.host[0], f.host[1], f.host[2], f.host[3], f.distinct_peers
        );
    }

    if let Some(export_path) = flag_str(args, "--export") {
        let recs = snapshot(im.wsaf());
        let bytes = encode_records(&recs);
        File::create(export_path)?.write_all(&bytes)?;
        println!("\nexported {} flow records to {export_path}", recs.len());
    }
    write_metrics(&im.telemetry())?;
    Ok(())
}

/// Loads the cached machine profile, calibrating (and caching) when the
/// cache is absent or `--recalibrate` is given.
fn obtain_profile(args: &[String]) -> Result<MachineProfile, Box<dyn std::error::Error>> {
    let path = match flag_str(args, "--profile") {
        Some(p) => std::path::PathBuf::from(p),
        None => MachineProfile::default_cache_path(),
    };
    if !args.iter().any(|a| a == "--recalibrate") {
        if let Ok(profile) = MachineProfile::load(&path) {
            println!("machine profile: {} (cached)", path.display());
            return Ok(profile);
        }
    }
    println!("calibrating this host's memory hierarchy (one-time, cached to {})", path.display());
    let profile = calibrate(&CalibrationOptions::from_env());
    match profile.save(&path) {
        Ok(()) => println!(
            "calibration took {:.1} s; profile cached",
            profile.calibration_nanos() as f64 / 1e9
        ),
        Err(e) => eprintln!("warning: could not cache the profile: {e}"),
    }
    Ok(profile)
}

/// Builds the operator's tuning target from the shared `tune` flags.
fn tune_request(args: &[String]) -> TuneRequest {
    let pps = flag(args, "--pps", 1.0e6f64);
    let mut req = if args.iter().any(|a| a == "--throughput") {
        TuneRequest::throughput(pps, 2.0)
    } else {
        TuneRequest::accuracy(pps, flag(args, "--epsilon", 0.05f64), flag(args, "--delta", 0.05f64))
    };
    req.min_margin = flag(args, "--margin", req.min_margin);
    req
}

/// The flow-size sample the solver tunes against: per-flow packet counts
/// of `--trace`, else the synthetic Zipf shape of `--flows`/`--heaviest`.
fn tune_workload(args: &[String]) -> Result<Vec<u64>, Box<dyn std::error::Error>> {
    match flag_str(args, "--trace") {
        Some(path) => {
            let (records, _skipped) = read_records(BufReader::new(File::open(path)?))?;
            if records.is_empty() {
                return Err("no parseable IPv4 packets in capture".into());
            }
            let mut counts = std::collections::HashMap::new();
            for r in &records {
                *counts.entry(r.key).or_insert(0u64) += 1;
            }
            let mut sizes: Vec<u64> = counts.into_values().collect();
            sizes.sort_unstable_by(|a, b| b.cmp(a));
            println!("workload from {path}: {} flows, {} packets", sizes.len(), records.len());
            Ok(sizes)
        }
        None => Ok(zipf_sizes(
            flag(args, "--flows", 100_000u64),
            flag(args, "--heaviest", 1_000_000u64),
        )),
    }
}

fn tune(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let profile = obtain_profile(args)?;
    println!(
        "  latency ladder: {:.1} ns cache-resident .. {:.1} ns DRAM, hash {:.1} ns{}",
        profile.sram_ns(),
        profile.dram_ns(),
        profile.hash_ns(),
        if profile.smoke() { " (smoke sweep)" } else { "" }
    );
    let req = tune_request(args);
    let sizes = tune_workload(args)?;
    let plan = solve(&profile, &req, &sizes).ok_or_else(|| {
        format!(
            "no feasible configuration: {:?} at {:.2} Mpps cannot be met on this host \
             (loosen --epsilon, lower --pps, or reduce --margin)",
            req.target,
            req.pps / 1e6
        )
    })?;
    println!("{plan}");
    if let Some(out) = flag_str(args, "--apply") {
        plan.save(std::path::Path::new(out))?;
        println!("plan written to {out} (boot it with `analyze --config {out}` or review it)");
    }
    Ok(())
}

fn print_plan_report(p: &PlanReport) {
    println!(
        "plan: {} KB L1, b={}, {} layer(s), 2^{} WSAF entries",
        p.l1_memory_bytes / 1024,
        p.vector_bits,
        p.layers,
        p.wsaf_entries_log2
    );
    println!(
        "  predicted regulation {:.4}% ({:.1} probes/insert), margin {:.1}x at {:.1} ns",
        p.predicted_regulation * 100.0,
        p.probes_per_insert,
        p.margin,
        p.access_nanos
    );
    println!("  predicted epsilon {:.4}, hash {:.1} ns", p.predicted_epsilon, p.hash_ns);
}

fn serve(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    if args.iter().any(|a| a == "--no-simd") {
        instameasure::packet::simd::set_simd_disabled(true);
    }
    let listen = flag_str(args, "--listen").unwrap_or(DEFAULT_ADDR);
    // `--shards` names the thread-per-shard model; `--workers` stays as
    // the historical alias.
    let workers = flag(args, "--shards", flag(args, "--workers", 4usize));
    let batch_size = flag(args, "--batch-size", 256usize);
    let pin = args.iter().any(|a| a == "--pin");
    let filter = filter_flag(args)?;
    let detect_epoch_ms = flag(args, "--detect-epoch-ms", 0u64);
    let auto_tune = args.iter().any(|a| a == "--auto-tune");
    // Auto-tune implies detection: the epoch re-tuner runs off the same
    // rotation clock the detectors do.
    let detect = args.iter().any(|a| a == "--detect") || detect_epoch_ms > 0 || auto_tune;

    let mut per_worker = InstaMeasureConfig::default().with_filter(filter);
    let mut tune_state = None;
    if auto_tune {
        let profile = obtain_profile(args)?;
        let mut req = tune_request(args);
        let sizes = tune_workload(args)?;
        // Each popcount-routed shard owns its own sketch and WSAF, so
        // the solve runs per shard: the offered load divides evenly and
        // every `workers`-th flow size approximates one shard's share
        // of the distribution.
        req.pps /= workers as f64;
        let shard_sizes: Vec<u64> = sizes.iter().step_by(workers.max(1)).copied().collect();
        let plan = solve(&profile, &req, &shard_sizes).ok_or_else(|| {
            format!(
                "auto-tune: no feasible per-shard configuration for {:?} at {:.2} Mpps/shard \
                 (loosen --epsilon, lower --pps, or add --shards)",
                req.target,
                req.pps / 1e6
            )
        })?;
        println!("auto-tuned per-shard configuration ({:.2} Mpps per shard):", req.pps / 1e6);
        println!("{plan}");
        per_worker = plan.to_config(flag(args, "--seed", 42u64))?;
        tune_state = Some(TuneState { profile, request: req, plan, shards: workers });
    }

    let mut builder = ServiceConfig::builder()
        .addr(listen)
        .workers(workers)
        .batch_size(batch_size)
        .queue_batches(flag(args, "--queue-batches", 16usize))
        .pin(pin)
        .max_frame_bytes(flag(args, "--max-frame-bytes", 1u32 << 20))
        .read_timeout(Duration::from_secs(flag(args, "--read-timeout-secs", 30u64)))
        .max_connections(flag(args, "--max-connections", 64usize))
        .per_worker(per_worker);
    if let Some(state) = tune_state {
        builder = builder.auto_tune(state);
    }
    if detect {
        builder = builder.detect(DetectionConfig {
            interval: (detect_epoch_ms > 0).then(|| Duration::from_millis(detect_epoch_ms)),
            detectors: DetectorConfig::default(),
        });
    }
    let cfg = builder.build()?;
    let server = Server::start(cfg)?;
    println!(
        "instameasure daemon listening on {} ({workers} shard workers{}, batch size {batch_size})",
        server.local_addr(),
        if pin { ", pinned" } else { "" }
    );
    println!(
        "hot path: {} dispatch (cpu: {}), prefetch distance {}",
        instameasure::packet::simd::dispatch_tier().label(),
        instameasure::packet::simd::cpu_features_label(),
        instameasure::packet::prefetch::prefetch_distance()
    );
    if detect {
        match detect_epoch_ms {
            0 => println!("detection: on, epochs close on `instameasure query rotate`"),
            ms => println!("detection: on, self-clocked epochs every {ms} ms"),
        }
        println!("follow alerts with `instameasure watch --addr {}`", server.local_addr());
    }
    if auto_tune {
        println!("inspect the plan with `instameasure query plan --addr {}`", server.local_addr());
    }
    println!("stop with `instameasure query shutdown --addr {}`", server.local_addr());
    let report = server.join();
    print_status(&report);
    if report.packets_submitted != report.packets_processed {
        return Err(format!(
            "drain lost packets: {} submitted vs {} processed",
            report.packets_submitted, report.packets_processed
        )
        .into());
    }
    Ok(())
}

fn push(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.first().ok_or("push: missing pcap path")?;
    let addr = flag_str(args, "--addr").unwrap_or(DEFAULT_ADDR);
    let (records, skipped) = if args.iter().any(|a| a == "--mmap") {
        instameasure::packet::chunk::read_records_mmap(path)?
    } else {
        read_records(BufReader::new(File::open(path)?))?
    };
    if records.is_empty() {
        return Err("no parseable IPv4 packets in capture".into());
    }
    let mut client = ServiceClient::connect(addr)?;
    let accepted = client.push_records(&records)?;
    println!(
        "pushed {} packets ({skipped} skipped) from {path} to {addr}: {accepted} accepted",
        records.len()
    );
    if accepted != records.len() as u64 {
        return Err(format!("daemon accepted {accepted} of {} packets", records.len()).into());
    }
    Ok(())
}

fn query(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let sub = args
        .first()
        .map(String::as_str)
        .ok_or("query: missing subcommand (flow|top-k|status|telemetry|plan|rotate|shutdown)")?;
    let addr = flag_str(args, "--addr").unwrap_or(DEFAULT_ADDR);
    let mut client = ServiceClient::connect(addr)?;
    match sub {
        "flow" => {
            let (src, sport) =
                parse_endpoint(args.get(1).ok_or("query flow: missing <SRC:SPORT>")?)?;
            let (dst, dport) =
                parse_endpoint(args.get(2).ok_or("query flow: missing <DST:DPORT>")?)?;
            let proto = parse_protocol(args.get(3).ok_or("query flow: missing protocol")?)?;
            let key = FlowKey::new(src, dst, sport, dport, proto);
            let (pkts, bytes) = client.query_flow(&key)?;
            println!("  {:<46} {pkts:>12.0} pkts {bytes:>14.0} B", key.to_string());
        }
        "top-k" => {
            let k = flag(args, "--k", 10u32);
            let flows = client.top_k(k)?;
            println!("top {k} flows by packets:");
            for f in &flows {
                println!(
                    "  {:<46} {:>12.0} pkts {:>14.0} B",
                    f.key.to_string(),
                    f.packets,
                    f.bytes
                );
            }
        }
        "status" => print_status(&client.status()?),
        "telemetry" => println!("{}", client.telemetry_json()?),
        "plan" => print_plan_report(&client.query_plan()?),
        "rotate" => {
            let (epoch, retired) = client.rotate()?;
            println!("rotated to epoch {epoch} ({retired} flows retired)");
        }
        "shutdown" => {
            let report = client.shutdown()?;
            println!("daemon drained and stopped");
            print_status(&report);
        }
        other => {
            return Err(format!(
                "query: unknown subcommand '{other}' \
                 (flow|top-k|status|telemetry|plan|rotate|shutdown)"
            )
            .into())
        }
    }
    Ok(())
}

/// `instameasure watch`: subscribe to the daemon's alert stream and
/// print verdicts as they arrive, one line per anomaly.
fn watch(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let addr = flag_str(args, "--addr").unwrap_or(DEFAULT_ADDR);
    let mask = match flag_str(args, "--kinds") {
        None => 0, // the daemon expands 0 to "all kinds"
        Some(list) => {
            let mut mask = 0u8;
            for name in list.split(',') {
                let kind = ALL_ANOMALY_KINDS
                    .iter()
                    .find(|k| k.label() == name.trim())
                    .ok_or_else(|| format!("watch: unknown anomaly kind '{name}'"))?;
                mask |= kind.bit();
            }
            mask
        }
    };
    let mut client = ServiceClient::connect_with_timeout(addr, Duration::from_secs(1))?;
    let (epoch, kinds) = client.subscribe(mask)?;
    let labels: Vec<&str> =
        ALL_ANOMALY_KINDS.iter().filter(|k| k.bit() & kinds != 0).map(|k| k.label()).collect();
    println!("watching {addr} from epoch {epoch} for: {}", labels.join(", "));
    loop {
        match client.next_alert() {
            Ok(Some((epoch, a))) => {
                let subject = match a.subject {
                    Subject::Host(ip) => format!("host {}.{}.{}.{}", ip[0], ip[1], ip[2], ip[3]),
                    Subject::Flow(key) => format!("flow {key}"),
                };
                println!(
                    "epoch {epoch}: {} on {subject} (score {:.3}, threshold {:.3})",
                    a.kind.label(),
                    a.score,
                    a.threshold
                );
            }
            Ok(None) => {} // timeout tick: keep listening
            Err(ClientError::Disconnected) => {
                println!("daemon closed the connection");
                return Ok(());
            }
            // A stopping daemon tells each connection it is draining,
            // then closes it.
            Err(ClientError::Remote { class, .. }) if class == "draining" => {
                println!("daemon closed the connection (shutting down)");
                return Ok(());
            }
            Err(e) => return Err(e.into()),
        }
    }
}

fn print_status(s: &StatusReport) {
    println!(
        "status: {} packets submitted, {} processed, {} ingest frames, \
         {} connections, {} resident flows, epoch {}, {} workers",
        s.packets_submitted,
        s.packets_processed,
        s.ingest_frames,
        s.connections,
        s.flows,
        s.epoch,
        s.workers
    );
}

/// Parses `A.B.C.D:PORT` into octets and port.
fn parse_endpoint(s: &str) -> Result<([u8; 4], u16), Box<dyn std::error::Error>> {
    let (ip, port) =
        s.rsplit_once(':').ok_or_else(|| format!("bad endpoint '{s}' (want A.B.C.D:PORT)"))?;
    let mut octets = [0u8; 4];
    let mut parts = ip.split('.');
    for o in &mut octets {
        *o = parts
            .next()
            .ok_or_else(|| format!("bad IPv4 address '{ip}'"))?
            .parse()
            .map_err(|_| format!("bad IPv4 address '{ip}'"))?;
    }
    if parts.next().is_some() {
        return Err(format!("bad IPv4 address '{ip}'").into());
    }
    Ok((octets, port.parse().map_err(|_| format!("bad port '{port}'"))?))
}

fn parse_protocol(s: &str) -> Result<Protocol, Box<dyn std::error::Error>> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "tcp" => Protocol::Tcp,
        "udp" => Protocol::Udp,
        "icmp" => Protocol::Icmp,
        num => Protocol::from_number(
            num.parse().map_err(|_| format!("bad protocol '{s}' (tcp|udp|icmp|NUM)"))?,
        ),
    })
}

fn report(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.first().ok_or("report: missing records path")?;
    let top = flag(args, "--top", 10usize);
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    let mut records = decode_records(&buf)?;
    let pkts: u64 = records.iter().map(|r| r.packets).sum();
    let bytes: u64 = records.iter().map(|r| r.bytes).sum();
    println!("{}: {} flow records, {pkts} packets, {bytes} bytes", path, records.len());
    records.sort_by_key(|r| std::cmp::Reverse(r.packets));
    println!("\ntop {top} flows:");
    for r in records.iter().take(top) {
        println!(
            "  {:<46} {:>10} pkts {:>14} B  active {:.2}s",
            r.key.to_string(),
            r.packets,
            r.bytes,
            r.duration_nanos() as f64 / 1e9
        );
    }
    Ok(())
}
