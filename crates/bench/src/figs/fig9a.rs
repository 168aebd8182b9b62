//! Fig. 9(a) — processing speed vs number of worker cores, plus the
//! batched-dispatch sweep that makes the multi-core numbers honest.
//!
//! The paper pre-loads the CAIDA trace into memory and measures pure
//! encode/dispatch throughput on an 8-core Atom (18.9 → 46.3 Mpps for
//! 1 → 4 cores). We do the same over the pre-loaded synthetic trace.
//! Absolute Mpps depends on the host CPU; the reproduced claim is the
//! *scaling shape* — which requires as many physical cores as workers, so
//! the footer also reports per-worker busy time (the work-partitioning
//! view that is meaningful even on a smaller host).
//!
//! The batch sweep (batch sizes 1/64/256/1024 at a fixed worker count)
//! shows why dispatch is batched at all: at batch 1 every packet pays a
//! queue synchronization, and dispatch — not the sketch — is the
//! bottleneck. The differential test suite guarantees the sweep changes
//! only speed, never results.

use instameasure_core::multicore::{run_multicore, MultiCoreConfig};
use instameasure_core::InstaMeasureConfig;
use instameasure_sketch::SketchConfig;
use instameasure_traffic::presets::caida_like;
use instameasure_wsaf::WsafConfig;

use crate::{fmt_count, print_checks, BenchArgs, Instrumented, PaperCheck, Snapshot};

fn per_worker_cfg(seed: u64) -> InstaMeasureConfig {
    InstaMeasureConfig::default()
        .with_sketch(
            SketchConfig::builder()
                .memory_bytes(32 * 1024)
                .vector_bits(8)
                .seed(seed)
                .build()
                .unwrap(),
        )
        .with_wsaf(WsafConfig::builder().entries_log2(18).build().unwrap())
}

/// Runs the Fig. 9a experiment: worker sweep at the default batch size,
/// then the batch-size sweep at a fixed worker count.
pub fn run(args: &BenchArgs) -> Snapshot {
    let trace = caida_like(0.1 * args.scale, args.seed);
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("# Fig 9a: processing speed vs cores");
    println!(
        "# trace: {} packets (pre-loaded); host has {host_cores} core(s)",
        fmt_count(trace.stats.packets as f64)
    );
    println!("workers\tthroughput_mpps\tper_worker_mpps_busy\timbalance");

    let mut single = 0.0f64;
    let mut best = 0.0f64;
    let mut snap = Snapshot::new();
    for workers in 1..=4usize {
        let cfg = MultiCoreConfig::builder()
            .workers(workers)
            .queue_capacity(8192)
            .per_worker(per_worker_cfg(args.seed))
            .build()
            .unwrap();
        let (sys, report) = run_multicore(&trace.records, &cfg);
        if workers == 4 {
            // Keep the deepest run's live telemetry plus the merged shard
            // view for --metrics-json.
            snap = report.telemetry.clone();
            snap.merge(&sys.telemetry());
        }
        let mpps = report.throughput_pps / 1e6;
        // Work-partitioning view: packets per second of *busy worker time*
        // summed over workers — how the system would scale with enough
        // physical cores.
        let busy_total: u64 = report.worker_busy_nanos.iter().sum();
        let busy_mpps = if busy_total == 0 {
            0.0
        } else {
            report.packets as f64 * 1e9 / (busy_total as f64 / workers as f64) / 1e6
        };
        println!("{workers}\t{mpps:.2}\t{busy_mpps:.2}\t{:.2}", report.imbalance());
        if workers == 1 {
            single = mpps;
        }
        best = best.max(mpps);
    }

    // Batch-size sweep at the full worker count: the dispatch-cost view.
    let sweep_workers = 4usize;
    println!("\n# batched dispatch: throughput vs batch size ({sweep_workers} workers)");
    println!("batch_size\tthroughput_mpps\tbatches_sent");
    let batch_sizes = [1usize, 64, 256, 1024];
    let mut batch_mpps = Vec::with_capacity(batch_sizes.len());
    for &batch_size in &batch_sizes {
        let cfg = MultiCoreConfig::builder()
            .workers(sweep_workers)
            .queue_capacity(8192)
            .batch_size(batch_size)
            .per_worker(per_worker_cfg(args.seed))
            .build()
            .unwrap();
        let (_, report) = run_multicore(&trace.records, &cfg);
        let mpps = report.throughput_pps / 1e6;
        println!("{batch_size}\t{mpps:.2}\t{}", report.batches_sent);
        snap.set_gauge(format!("fig.batch{batch_size}_mpps"), mpps);
        batch_mpps.push(mpps);
    }
    let monotone_to_256 = batch_mpps.windows(2).take(2).all(|w| w[1] >= w[0]);

    print_checks(
        "fig9a",
        &[
            PaperCheck {
                name: "single-core throughput".into(),
                paper: "18.88 Mpps (Atom C2758)".into(),
                measured: format!("{single:.2} Mpps (host-dependent)"),
                holds: single > 1.0,
            },
            PaperCheck {
                name: "multi-core scaling (needs >= 4 host cores)".into(),
                paper: "46.32 Mpps @ 4 cores (~2.5x)".into(),
                measured: format!(
                    "best {best:.2} Mpps on {host_cores}-core host{}",
                    if host_cores < 4 { " — scaling not observable here" } else { "" }
                ),
                holds: host_cores < 4 || best > 1.5 * single,
            },
            PaperCheck {
                name: "batched dispatch amortizes queue synchronization".into(),
                paper: "per-packet sends bottleneck dispatch (cf. PriMe's front buffer)".into(),
                measured: format!(
                    "batch 1 -> 64 -> 256: {:.2} -> {:.2} -> {:.2} Mpps{}",
                    batch_mpps[0],
                    batch_mpps[1],
                    batch_mpps[2],
                    if monotone_to_256 { " (monotone)" } else { "" }
                ),
                holds: monotone_to_256 && batch_mpps[2] > batch_mpps[0],
            },
        ],
    );

    snap.set_gauge("fig.single_core_mpps", single);
    snap.set_gauge("fig.best_mpps", best);
    snap.set_gauge("fig.batch_speedup_1_to_256", batch_mpps[2] / batch_mpps[0].max(1e-9));
    snap
}
