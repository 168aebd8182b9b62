//! Service-path throughput: the live thread-per-shard engine (SPSC
//! rings + snapshot queries) against the offline batched hot path on
//! the harness's cache-hostile workload. The lock-free refactor exists
//! so that going *live* costs almost nothing: the engine adds a ring hop
//! and a worker thread per shard, and this bench holds one shard to
//! within ~10% of the offline batched replay on one core.
//!
//! It also times the daemon's waits on loopback: a boot (`Server::start`
//! until two connections have answered `status`, the boot wirebench
//! times for `setup_s`) and a `Shutdown` sent while an idle client stays
//! attached. A wait that polled a timer again would show in both.
//!
//! `BENCH_service.json` records packets/sec for the offline baseline and
//! every engine shape swept, with each ratio, and the two daemon times.
//! A `SERVICE-REGRESSION` line prints when the best one-shard shape falls
//! below the floor or a daemon time exceeds its bound. Smoke mode
//! shrinks the run to a few seconds and loosens the bounds (CI shares
//! cores; the full run enforces the real targets).

use std::sync::Arc;

use instameasure_bench::harness::{self, Gate, Obj, Timer};
use instameasure_core::InstaMeasure;
use instameasure_packet::PacketRecord;
use instameasure_service::engine::{Engine, EngineConfig};
use instameasure_service::server::{Server, ServiceConfig};
use instameasure_service::ServiceClient;
use instameasure_telemetry::SharedRegistry;

/// Engine shapes swept: `(workers, batch_size, queue_batches)`. Batch
/// and queue sizes amortize ring hops and context switches; more shards
/// only help with real spare cores, so the sweep stays small.
const CONFIGS: [(usize, usize, usize); 3] = [(1, 1024, 256), (1, 4096, 64), (2, 2048, 64)];

/// Offline reference batch size (the hot-path bench's sweet spot).
const OFFLINE_BATCH: usize = 1024;

/// Daemon boots timed, each ended by a timed shutdown.
const BOOTS: usize = 20;

/// Throughput floor (service pps / offline pps) below which the
/// regression line prints.
///
/// The ~0.9 target assumes the pusher and the shard workers get their
/// own hardware threads so the ring actually pipelines. On a single-CPU
/// host the two sides *serialize* — every packet is paid for twice
/// (dispatch copy + processing) plus a context switch per queue-full —
/// so the achievable ceiling is roughly half; the floor halves with it
/// rather than crying wolf. Smoke mode is additionally lenient: one bad
/// timeslice on a shared CI core dominates its short run.
fn floor(smoke: bool) -> f64 {
    let base = if smoke { 0.40 } else { 0.90 };
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    base * if cpus == 1 { 0.5 } else { 1.0 }
}

/// Bounds on the median boot and idle-client shutdown, in seconds. Even
/// the smoke bounds sit below what the timers these waits replaced cost:
/// a 2 ms accept poll on each connection and the 5 s drain grace.
fn daemon_bounds(smoke: bool) -> (f64, f64) {
    if smoke {
        (1.5e-3, 1.0)
    } else {
        (1.0e-3, 0.1)
    }
}

fn shape(workers: usize, batch_size: usize, queue_batches: usize) -> Obj {
    Obj::default()
        .with("workers", workers)
        .with("batch_size", batch_size)
        .with("queue_batches", queue_batches)
}

/// Offline baseline: the batched single-core hot path. Construction is
/// outside the timed region on both sides — the comparison is ingest
/// throughput, not arena zeroing.
fn offline_pps(records: &[PacketRecord], reps: usize) -> f64 {
    let (timer, _) = Timer::repeat_with(
        reps,
        || InstaMeasure::new(harness::cache_hostile_config()),
        |mut im| {
            records.chunks(OFFLINE_BATCH).for_each(|chunk| im.process_batch(chunk));
            im
        },
    );
    timer.rate(records.len())
}

/// One full service pass: push the whole trace down a lane, then drain.
/// The engine (worker threads, rings, arenas) is constructed outside the
/// timed region; the drain — which processes every ring remainder and
/// publishes the final snapshot — is inside it, so the number is honest
/// end-of-stream throughput. Packet-exact accounting is asserted every
/// rep: a bench that loses packets is measuring a bug.
fn service_pps(
    records: &[PacketRecord],
    reps: usize,
    (workers, batch, queue): (usize, usize, usize),
) -> f64 {
    let cfg = EngineConfig {
        workers,
        batch_size: batch,
        queue_batches: queue,
        pin: false,
        per_worker: harness::cache_hostile_config(),
    };
    let (timer, _) = Timer::repeat_with(
        reps,
        || Engine::start(&cfg, Arc::new(SharedRegistry::new())),
        |engine| {
            let mut lane = engine.lane().expect("engine is open");
            lane.submit(records).expect("engine is open");
            drop(lane);
            let report = engine.drain();
            assert_eq!(report.processed, records.len() as u64, "engine dropped packets");
        },
    );
    timer.rate(records.len())
}

/// Boots `serve`'s defaults with one shard [`BOOTS`] times. Each boot is
/// timed until two connections have answered `status`; then a `Shutdown`
/// on the first is timed while the second stays attached, idle. Returns
/// the boot and shutdown timings.
fn daemon_waits() -> (Timer, Timer) {
    let (mut boots, mut shutdowns) = (Timer::default(), Timer::default());
    for _ in 0..BOOTS {
        let cfg = ServiceConfig::builder().workers(1).build().expect("serve's defaults are valid");
        let (server, mut tap, _idle) = boots.time(|| {
            let server = Server::start(cfg).expect("loopback bind");
            let mut tap = ServiceClient::connect(server.local_addr()).expect("connect");
            tap.status().expect("status");
            let mut idle = ServiceClient::connect(server.local_addr()).expect("connect");
            idle.status().expect("status");
            (server, tap, idle)
        });
        shutdowns.time(|| tap.shutdown().expect("shutdown"));
        server.join();
    }
    (boots, shutdowns)
}

fn main() {
    let smoke = harness::smoke();
    let (packets, flows, reps) =
        if smoke { (400_000, 100_000, 2) } else { (4_000_000, 400_000, 3) };
    let records = harness::cache_hostile_workload(packets, flows, 42);

    let offline_pps = offline_pps(&records, reps);
    let mut rows = Vec::new();
    // Only one-shard shapes are gated: a second shard runs on a second
    // core, which the one-core offline baseline does not have.
    let (mut best_ratio, mut best_cfg) = (0.0f64, CONFIGS[0]);
    for (workers, batch, queue) in CONFIGS {
        let pps = service_pps(&records, reps, (workers, batch, queue));
        let ratio = pps / offline_pps;
        if workers == 1 && ratio > best_ratio {
            (best_ratio, best_cfg) = (ratio, (workers, batch, queue));
        }
        println!(
            "service_engine: {workers}w/b{batch}/q{queue}: {:.2} Mpps vs offline {:.2} Mpps \
             ({ratio:.2}x)",
            pps / 1e6,
            offline_pps / 1e6
        );
        rows.push(shape(workers, batch, queue).with("pps", pps).with("ratio_vs_offline", ratio));
    }
    let (workers, batch, queue) = best_cfg;
    println!(
        "service_engine: best one-shard ratio {best_ratio:.2}x ({workers}w/b{batch}/q{queue})"
    );
    let floor = floor(smoke);

    let (boots, shutdowns) = daemon_waits();
    let (boot_s, shutdown_s) = (boots.quantile_secs(0.5), shutdowns.quantile_secs(0.5));
    let (boot_bound, shutdown_bound) = daemon_bounds(smoke);
    println!(
        "service_engine: daemon boot p50 {:.3} ms, shutdown beside an idle client p50 {:.3} ms \
         ({BOOTS} boots)",
        boot_s * 1e3,
        shutdown_s * 1e3
    );

    harness::record("service_engine")
        .with("packets", records.len())
        .with("flows", flows)
        .with("offline_batch_size", OFFLINE_BATCH)
        .with("offline_pps", offline_pps)
        .with("service", rows)
        .with("best_one_shard_config", shape(workers, batch, queue))
        .with("best_one_shard_ratio", best_ratio)
        .with("floor", floor)
        .with("boots", BOOTS)
        .with("boot_ms_p50", boot_s * 1e3)
        .with("boot_ms_bound", boot_bound * 1e3)
        .with("shutdown_idle_client_ms_p50", shutdown_s * 1e3)
        .with("shutdown_idle_client_ms_bound", shutdown_bound * 1e3)
        .write("service");

    let mut gate = Gate::new("SERVICE");
    gate.fail_if(
        best_ratio < floor,
        format_args!(
            "one-shard service path at {best_ratio:.2}x of offline hot path (floor {floor:.2}x)"
        ),
    );
    gate.fail_if(
        boot_s > boot_bound,
        format_args!("daemon boot p50 {:.3} ms (bound {:.3} ms)", boot_s * 1e3, boot_bound * 1e3),
    );
    gate.fail_if(
        shutdown_s > shutdown_bound,
        format_args!(
            "shutdown beside an idle client p50 {:.1} ms (bound {:.1} ms)",
            shutdown_s * 1e3,
            shutdown_bound * 1e3
        ),
    );
}
