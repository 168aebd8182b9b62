//! Long-haul stress run: streams tens of millions of packets through the
//! single-core pipeline with O(flows) memory and checks throughput,
//! regulation and top-flow accuracy against analytic ground truth — then
//! pushes a second stream through the batched multi-core pipeline at batch
//! sizes 1/64/256/1024 so the dispatch-amortization speedup lands in the
//! metrics JSON.
//!
//! ```text
//! cargo run --release -p instameasure-bench --bin stress [--scale F] [--seed N]
//! ```
//! `--scale 1.0` streams ~20M packets (a few seconds); scale up at will —
//! memory stays flat.

use std::time::Instant;

use instameasure_bench::{
    fmt_count, main_entry, print_checks, BenchArgs, Instrumented, PaperCheck, Snapshot,
};
use instameasure_core::multicore::{run_multicore_stream, MultiCoreConfig};
use instameasure_core::{InstaMeasure, InstaMeasureConfig};
use instameasure_packet::chunk::{PcapChunkReader, RecordStream};
use instameasure_packet::pcap::{read_records, PcapWriter, TsResolution};
use instameasure_packet::synth::synthesize_frame;
use instameasure_sketch::SketchConfig;
use instameasure_traffic::stream::{StreamConfig, StreamingTrace};
use instameasure_wsaf::WsafConfig;

fn main() {
    main_entry(run);
}

fn run(args: &BenchArgs) -> Snapshot {
    let cfg = StreamConfig {
        flows: (400_000.0 * args.scale) as usize,
        alpha: 1.05,
        max_flow_size: (1_500_000.0 * args.scale) as u64,
        duration_nanos: 60_000_000_000, // one virtual minute
        seed: args.seed,
    };
    let stream = StreamingTrace::new(cfg);
    let total = stream.total_packets();
    println!(
        "# stress: streaming {} packets / {} flows (one virtual minute)",
        fmt_count(total as f64),
        fmt_count(cfg.flows as f64)
    );

    let im_cfg = InstaMeasureConfig::default()
        .with_sketch(
            SketchConfig::builder()
                .memory_bytes(32 * 1024)
                .vector_bits(8)
                .seed(args.seed)
                .build()
                .unwrap(),
        )
        .with_wsaf(WsafConfig::builder().entries_log2(20).build().unwrap());
    let mut im = InstaMeasure::new(im_cfg);

    let start = Instant::now();
    for pkt in stream {
        im.process(&pkt);
    }
    let secs = start.elapsed().as_secs_f64();
    let mpps = total as f64 / secs / 1e6;
    let stats = im.filter_stats();
    println!(
        "processed in {secs:.2}s -> {mpps:.2} Mpps; regulation {:.3}%; WSAF {} entries (load {:.3})",
        stats.regulation_rate() * 100.0,
        im.wsaf().len(),
        im.wsaf().load_factor()
    );

    // Accuracy against analytic truth on the top 20 flows.
    let probe = StreamingTrace::new(cfg);
    println!("rank\ttruth\test\trel_err");
    let mut worst: f64 = 0.0;
    for rank in 0..20usize {
        let key = probe.flow_key(rank);
        let truth = probe.flow_size(rank) as f64;
        let est = im.estimate_packets(&key);
        let rel = (est - truth).abs() / truth;
        worst = worst.max(rel);
        println!("{}\t{:.0}\t{:.0}\t{:.4}", rank + 1, truth, est, rel);
    }

    // Batched multi-core leg: the same streaming generator feeds the
    // sharded runtime (O(batch × workers) lane memory — no pre-loaded
    // trace), swept over batch sizes so the dispatch
    // amortization is visible in the metrics JSON.
    let sweep_cfg = StreamConfig {
        flows: (60_000.0 * args.scale) as usize,
        alpha: 1.05,
        max_flow_size: (220_000.0 * args.scale) as u64,
        duration_nanos: 60_000_000_000,
        seed: args.seed,
    };
    let sweep_total = StreamingTrace::new(sweep_cfg).total_packets();
    println!(
        "\n# batched multicore ingest: {} packets / 4 workers, batch size sweep",
        fmt_count(sweep_total as f64)
    );
    println!("batch_size\tthroughput_mpps\tbatches_sent\tdropped");
    let mut batch_mpps = Vec::new();
    for batch_size in [1usize, 64, 256, 1024] {
        let mc = MultiCoreConfig::builder()
            .workers(4)
            .queue_capacity(8192)
            .batch_size(batch_size)
            .per_worker(im_cfg)
            .build()
            .unwrap();
        let (_, report) = run_multicore_stream(StreamingTrace::new(sweep_cfg), &mc);
        let batch_pps = report.throughput_pps / 1e6;
        println!("{batch_size}\t{batch_pps:.2}\t{}\t{}", report.batches_sent, report.dropped);
        batch_mpps.push(batch_pps);
    }

    // Zero-copy pcap leg: a fixed slice of the stream written to disk once,
    // then drained by the owned-buffer reader (the pre-zero-copy CLI path)
    // and by the mmap-backed chunk reader, so the ingest speedup shows up
    // in the metrics JSON next to the pipeline numbers.
    let pcap_packets = (1_000_000.0 * args.scale) as usize;
    let path =
        std::env::temp_dir().join(format!("instameasure_stress_{}.pcap", std::process::id()));
    {
        let out = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        let mut w = PcapWriter::new(out, TsResolution::Nano).unwrap();
        for pkt in StreamingTrace::new(sweep_cfg).take(pcap_packets) {
            w.write_packet(pkt.ts_nanos, &synthesize_frame(&pkt)).unwrap();
        }
        w.into_inner().unwrap().into_inner().unwrap();
    }
    let file_bytes = std::fs::metadata(&path).unwrap().len();
    println!(
        "\n# zero-copy pcap ingest: {} packets / {} MiB on disk",
        fmt_count(pcap_packets as f64),
        file_bytes >> 20
    );

    let start = Instant::now();
    let (owned_records, _) =
        read_records(std::io::BufReader::new(std::fs::File::open(&path).unwrap())).unwrap();
    let owned_mpps = owned_records.len() as f64 / start.elapsed().as_secs_f64() / 1e6;
    drop(owned_records);

    let start = Instant::now();
    let mut zc_stream = RecordStream::new(PcapChunkReader::open(&path).unwrap());
    let mut zc_packets = 0u64;
    let mut zc_acc = 0u64;
    for rec in zc_stream.by_ref() {
        zc_packets += 1;
        zc_acc ^= u64::from(rec.key.src_port);
    }
    std::hint::black_box(zc_acc);
    let zc_mpps = zc_packets as f64 / start.elapsed().as_secs_f64() / 1e6;
    let (_, ingest_stats) = zc_stream.finish().unwrap();
    assert_eq!(zc_packets as usize, pcap_packets, "zero-copy drain lost packets");
    println!(
        "owned {owned_mpps:.2} Mpps vs zero-copy {zc_mpps:.2} Mpps ({} chunk fills, {} bytes mapped, {} copy fallbacks)",
        ingest_stats.chunk_fills, ingest_stats.bytes_mapped, ingest_stats.copy_fallbacks
    );
    std::fs::remove_file(&path).ok();

    print_checks(
        "stress",
        &[
            PaperCheck {
                name: "sustained throughput".into(),
                paper: "18.9 Mpps single Atom core".into(),
                measured: format!("{mpps:.2} Mpps (host-dependent)"),
                holds: mpps > 1.0,
            },
            PaperCheck {
                name: "regulation at scale".into(),
                paper: "~1%".into(),
                measured: format!("{:.3}%", stats.regulation_rate() * 100.0),
                holds: stats.regulation_rate() < 0.05,
            },
            PaperCheck {
                name: "top-20 accuracy after tens of millions of packets".into(),
                paper: "sub-percent for 1000K+ flows".into(),
                measured: format!("worst {:.2}%", worst * 100.0),
                holds: worst < 0.10,
            },
            PaperCheck {
                name: "batched dispatch speedup under streaming ingest".into(),
                paper: "per-packet queue ops dominate at batch 1".into(),
                measured: format!(
                    "batch 1 -> 256: {:.2} -> {:.2} Mpps",
                    batch_mpps[0], batch_mpps[2]
                ),
                holds: batch_mpps[2] > batch_mpps[0],
            },
            PaperCheck {
                name: "zero-copy pcap ingest keeps pace with owned reads".into(),
                paper: "line-rate ingest without per-packet allocation".into(),
                measured: format!("owned {owned_mpps:.2} vs zero-copy {zc_mpps:.2} Mpps"),
                // Allow scheduler noise, but a zero-copy path meaningfully
                // slower than the copying baseline is a regression.
                holds: zc_mpps >= 0.9 * owned_mpps,
            },
        ],
    );

    let mut snap = im.telemetry();
    snap.set_gauge("fig.throughput_mpps", mpps);
    snap.set_gauge("fig.worst_top20_err", worst);
    for (batch_size, batch_pps) in [1usize, 64, 256, 1024].into_iter().zip(&batch_mpps) {
        snap.set_gauge(format!("fig.batch{batch_size}_mpps"), *batch_pps);
    }
    snap.set_gauge("fig.ingest_owned_mpps", owned_mpps);
    snap.set_gauge("fig.ingest_zerocopy_mpps", zc_mpps);
    snap.set_gauge("fig.ingest_chunk_fills", ingest_stats.chunk_fills as f64);
    snap.set_gauge("fig.ingest_copy_fallbacks", ingest_stats.copy_fallbacks as f64);
    snap
}
