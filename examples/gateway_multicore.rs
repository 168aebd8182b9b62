//! Multi-core gateway monitoring (paper Fig. 5 / §IV-C).
//!
//! Replays a campus-like trace through the sharded runtime: packets are
//! dispatched by popcount(source IP) to workers owning
//! exclusive FlowRegulators and WSAF shards; results are merged for
//! queries.
//!
//! ```text
//! cargo run --release --example gateway_multicore
//! ```

use instameasure::core::ingest::{run_multicore_pcap, IngestMode};
use instameasure::core::multicore::{run_multicore, MultiCoreConfig};
use instameasure::core::InstaMeasureConfig;
use instameasure::packet::pcap::{PcapWriter, TsResolution};
use instameasure::packet::synth::synthesize_frame;
use instameasure::sketch::SketchConfig;
use instameasure::telemetry::Instrumented;
use instameasure::traffic::presets::campus_like;
use instameasure::wsaf::WsafConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = campus_like(0.03, 42);
    println!(
        "campus-like trace: {} packets, {} flows over {:.1} virtual hours",
        trace.stats.packets,
        trace.stats.flows,
        trace.stats.duration_nanos as f64 / 1e8
    );

    let cfg = MultiCoreConfig::builder()
        .workers(4)
        .queue_capacity(8192)
        .batch_size(256)
        .per_worker(
            InstaMeasureConfig::default()
                .with_sketch(
                    SketchConfig::builder().memory_bytes(32 * 1024).vector_bits(8).build()?,
                )
                .with_wsaf(WsafConfig::builder().entries_log2(18).build()?),
        )
        .build()?;
    let (system, report) = run_multicore(&trace.records, &cfg);

    println!(
        "\nprocessed {} packets in {:.1} ms -> {:.2} Mpps end-to-end",
        report.packets,
        report.wall_nanos as f64 / 1e6,
        report.throughput_pps / 1e6
    );
    println!(
        "dispatch: {} batches of <= {} packets ({} partial flushes at end-of-stream)",
        report.batches_sent, cfg.batch_size, report.batch_flushes
    );
    println!("dispatch balance (max/min): {:.2}", report.imbalance());
    for (w, (pkts, stats)) in
        report.per_worker_packets.iter().zip(system.filter_stats()).enumerate()
    {
        println!(
            "  worker {w}: {pkts} packets, {:.2}% passed to its WSAF shard ({} entries)",
            stats.regulation_rate() * 100.0,
            system.shard(w).wsaf().len()
        );
    }

    println!("\nglobal top-5 flows (merged across shards):");
    for (key, pkts) in system.top_k_by_packets(5) {
        let truth = trace.stats.truth.packets.get(&key).copied().unwrap_or(0);
        println!("  {key}  est {pkts:.0} (true {truth})");
    }

    let max_queue = report.queue_depth_samples.iter().map(|&(_, d)| d).max().unwrap_or(0);
    println!("\npeak total queue depth observed: {max_queue} packets");

    // The unified telemetry view: run-level counters from the dispatch
    // loop merged with every shard's regulator + WSAF metrics.
    let mut snap = report.telemetry.clone();
    snap.merge(&system.telemetry());
    println!("\nmerged telemetry snapshot ({} metrics):", snap.len());
    print!("{}", snap.to_tsv());

    // Same trace again, but as a gateway would really see it: a pcap file
    // replayed through the zero-copy mmap ingest path straight into the
    // pipeline's recycled batches.
    let pcap_path =
        std::env::temp_dir().join(format!("instameasure_gateway_{}.pcap", std::process::id()));
    let mut w = PcapWriter::new(std::fs::File::create(&pcap_path)?, TsResolution::Nano)?;
    for pkt in &trace.records {
        w.write_packet(pkt.ts_nanos, &synthesize_frame(pkt))?;
    }
    w.into_inner()?;
    let (zc_system, zc_report, ingest) = run_multicore_pcap(&pcap_path, IngestMode::Mmap, &cfg)?;
    println!(
        "\nzero-copy pcap replay: {} packets in {:.1} ms -> {:.2} Mpps \
         ({} chunk fills, {} bytes mapped, {} copy fallbacks, {} frames skipped)",
        zc_report.packets,
        zc_report.wall_nanos as f64 / 1e6,
        zc_report.throughput_pps / 1e6,
        ingest.stats.chunk_fills,
        ingest.stats.bytes_mapped,
        ingest.stats.copy_fallbacks,
        ingest.skipped_frames
    );
    let direct: Vec<_> = system.top_k_by_packets(5);
    let replayed: Vec<_> = zc_system.top_k_by_packets(5);
    assert_eq!(direct, replayed, "pcap replay must reproduce the in-memory run exactly");
    println!("top-5 flows identical to the in-memory run — ingest is bit-faithful");
    std::fs::remove_file(&pcap_path).ok();
    Ok(())
}
