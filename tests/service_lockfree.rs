//! Concurrency battery for the lock-free thread-per-shard engine.
//!
//! The engine replaced per-batch mutexes with shard-owning worker
//! threads fed by SPSC rings and queried through each worker's control
//! mailbox. That buys throughput only if it costs *nothing* in
//! accuracy, so this suite proves the strongest property available:
//! under N concurrent pushers and M concurrent queriers, the final
//! per-shard measurement is **bit-identical** to a single-threaded
//! offline replay of the same per-shard packet stream — for every
//! filter front end, every worker count, and ragged final batches.
//!
//! Determinism argument: the popcount dispatch rule sends all packets
//! of a flow to one shard, and the battery partitions whole *shards*
//! among pushers, so each shard's ring sequence is a fixed FIFO stream
//! regardless of thread interleaving. Any divergence is therefore a
//! bug in the ring, the drain handshake, or the mailbox protocol — not
//! scheduling noise.

mod support;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use instameasure::core::InstaMeasureConfig;
use instameasure::packet::{FlowKey, PacketRecord, Protocol};
use instameasure::service::engine::{Engine, EngineConfig};
use instameasure::sketch::{FilterKind, ALL_FILTER_KINDS};
use instameasure::telemetry::SharedRegistry;
use instameasure::traffic::presets::caida_like;
use support::oracle::{assert_identical_measurement, replay, shard_records, test_worker_counts};

fn cfg(kind: FilterKind) -> InstaMeasureConfig {
    InstaMeasureConfig::default().small_for_tests().with_filter(kind)
}

fn start_engine(
    workers: usize,
    per_worker: InstaMeasureConfig,
    batch_size: usize,
) -> (Engine, Arc<SharedRegistry>) {
    let registry = Arc::new(SharedRegistry::new());
    let config = EngineConfig { workers, batch_size, queue_batches: 8, pin: false, per_worker };
    (Engine::start(&config, Arc::clone(&registry)), registry)
}

/// Pushes `shards[w]` for every shard index in `mine` through one lane,
/// in odd-sized submit slices so ship points never align with batch
/// boundaries and the final flush is ragged.
fn push_shards(engine: &Engine, shards: &[Vec<PacketRecord>], mine: &[usize]) {
    let mut lane = engine.lane().expect("engine is open");
    for &w in mine {
        for slice in shards[w].chunks(997) {
            lane.submit(slice).expect("engine is open while pushers run");
        }
    }
    lane.flush().expect("engine is open while pushers run");
}

/// Hammers the query surface until `stop` is raised; returns how many
/// queries completed. Every call is a job in the shard workers' control
/// mailboxes, so this is the query side of the mailbox under load.
fn hammer_queries(engine: &Engine, probe: FlowKey, stop: &AtomicBool) -> u64 {
    let mut queries = 0u64;
    while !stop.load(Ordering::Acquire) {
        let (p, b) = engine.estimate(&probe);
        assert!(p.is_finite() && b.is_finite(), "estimates are always finite");
        let top = engine.top_k(8);
        assert!(top.len() <= 8);
        let _ = engine.flows();
        queries += 3;
    }
    queries
}

#[test]
fn concurrent_pushers_are_bit_identical_to_offline_replay_for_every_filter() {
    let trace = caida_like(0.004, 23);
    let probe = trace.records[0].key;
    for kind in ALL_FILTER_KINDS {
        for workers in test_worker_counts() {
            let shards = shard_records(&trace.records, workers);
            let (engine, _registry) = start_engine(workers, cfg(kind), 64);

            // Partition whole shards round-robin among up to 3 pushers:
            // each shard's stream comes from exactly one lane, in order.
            let pushers = workers.min(3);
            let stop = AtomicBool::new(false);
            thread::scope(|s| {
                for p in 0..pushers {
                    let mine: Vec<usize> = (p..workers).step_by(pushers).collect();
                    let (engine, shards) = (&engine, &shards);
                    s.spawn(move || push_shards(engine, shards, &mine));
                }
                for _ in 0..2 {
                    let (engine, stop) = (&engine, &stop);
                    s.spawn(move || hammer_queries(engine, probe, stop));
                }
                // Scope join order: pushers finish, then we release the
                // queriers. Spawned closures own their handles; raising
                // the flag after a short live window is enough.
                thread::sleep(Duration::from_millis(10));
                stop.store(true, Ordering::Release);
            });

            let report = engine.drain();
            assert_eq!(report.submitted, trace.records.len() as u64, "{kind:?}/{workers}");
            assert_eq!(
                report.processed, report.submitted,
                "{kind:?}/{workers}: drain lost packets"
            );

            for (w, shard) in shards.iter().enumerate() {
                let offline = replay(shard, cfg(kind));
                let live = engine.debug_shard_measurement(w);
                assert_identical_measurement(
                    &live,
                    &offline,
                    &format!("{kind:?}, {workers} workers, shard {w}"),
                );
            }
        }
    }
}

#[test]
fn mid_stream_rotation_is_bit_identical_to_offline_replay_of_the_new_epoch() {
    let trace = caida_like(0.004, 41);
    let half = trace.records.len() / 2;
    let (phase1, phase2) = trace.records.split_at(half);
    for workers in test_worker_counts() {
        let (engine, _registry) = start_engine(workers, cfg(FilterKind::Regulator), 64);

        // Phase 1, then quiesce so the rotation lands at a point where
        // the offline reference is well-defined (no packets in flight).
        let shards1 = shard_records(phase1, workers);
        push_shards(&engine, &shards1, &(0..workers).collect::<Vec<_>>());
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.packets_processed() < phase1.len() as u64 {
            assert!(Instant::now() < deadline, "workers never caught up before rotate");
            thread::yield_now();
        }

        // Live, pre-drain answers come from the workers' live state.
        for (w, shard) in shards1.iter().enumerate() {
            let offline = replay(shard, cfg(FilterKind::Regulator));
            let live = engine.debug_shard_measurement(w);
            assert_identical_measurement(
                &live,
                &offline,
                &format!("pre-rotate, {workers} workers, shard {w}"),
            );
        }

        let before = engine.epoch();
        let (epoch, _retired) = engine.rotate();
        assert_eq!(epoch, before + 1, "rotate bumps the epoch exactly once");

        // Phase 2 lands entirely in the new epoch; the final state must
        // equal an offline replay of phase 2 alone.
        let shards2 = shard_records(phase2, workers);
        push_shards(&engine, &shards2, &(0..workers).collect::<Vec<_>>());
        let report = engine.drain();
        assert_eq!(report.submitted, trace.records.len() as u64);
        assert_eq!(report.processed, report.submitted);

        for (w, shard) in shards2.iter().enumerate() {
            let offline = replay(shard, cfg(FilterKind::Regulator));
            let live = engine.debug_shard_measurement(w);
            assert_identical_measurement(
                &live,
                &offline,
                &format!("post-rotate, {workers} workers, shard {w}"),
            );
        }
    }
}

#[test]
fn queries_after_drain_match_offline_replay() {
    // Post-drain the workers are gone; queries must serve the exact
    // end-of-stream state the workers handed back. Queriers racing the
    // drain must all return, whichever side of it they land on.
    let trace = caida_like(0.004, 57);
    let probe = trace.records[0].key;
    let workers = 2;
    let shards = shard_records(&trace.records, workers);
    let (engine, _registry) = start_engine(workers, cfg(FilterKind::Regulator), 128);
    push_shards(&engine, &shards, &[0, 1]);
    let stop = AtomicBool::new(false);
    let live = Barrier::new(3);
    thread::scope(|s| {
        for _ in 0..2 {
            let (engine, stop, live) = (&engine, &stop, &live);
            s.spawn(move || {
                let _ = engine.estimate(&probe);
                live.wait();
                hammer_queries(engine, probe, stop)
            });
        }
        // Both queriers have been answered live and keep querying while
        // the drain closes the mailboxes underneath them.
        live.wait();
        engine.drain();
        stop.store(true, Ordering::Release);
    });
    for (w, shard) in shards.iter().enumerate() {
        let offline = replay(shard, cfg(FilterKind::Regulator));
        let live = engine.debug_shard_measurement(w);
        assert_identical_measurement(&live, &offline, &format!("post-drain shard {w}"));
    }
}

#[test]
fn engine_shutdown_is_idempotent_from_many_threads() {
    // Satellite fix regression: shutdown must be callable any number of
    // times from any thread, with every later call returning the first
    // call's exact accounting. Rings are deliberately left non-empty by
    // stalling the workers before the racing drains.
    let records: Vec<PacketRecord> = (0..30_000u64)
        .map(|t| {
            let k = FlowKey::new(
                ((t % 257) as u32).to_be_bytes(),
                [10, 0, 0, 1],
                4242,
                443,
                Protocol::Udp,
            );
            PacketRecord::new(k, 100, t)
        })
        .collect();
    let (engine, registry) = start_engine(3, cfg(FilterKind::Regulator), 64);
    engine.debug_set_worker_stall(100_000); // hold batches in the rings
    let mut lane = engine.lane().expect("engine is open");
    lane.submit(&records).expect("engine is open");
    drop(lane); // flush-on-drop ships the ragged tail

    let reports: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = (0..4).map(|_| s.spawn(|| engine.drain())).collect();
        handles.into_iter().map(|h| h.join().expect("drain must not panic")).collect()
    });
    for r in &reports {
        assert_eq!(r, &reports[0], "every racing drain sees the first report");
    }
    assert_eq!(reports[0].submitted, 30_000);
    assert_eq!(reports[0].processed, 30_000, "drain left packets in the rings");
    assert_eq!(
        registry.counter("service.ingest.rejected_packets").get(),
        0,
        "nothing was rejected, so nothing may be counted as rejected"
    );
    // And once more after the races settled.
    assert_eq!(engine.drain(), reports[0]);
}

#[test]
fn racing_rotations_never_expose_mixed_epoch_merged_views() {
    // Ordering oracle for the control mailbox: a reader merging shards
    // mid-rotation must never pair one shard's new epoch with another's
    // retiring state, and the detection capture must never lose retired
    // flows. Multi-shard requests are queued to every shard in one
    // order, so under continuous ingest plus racing rotations every
    // merged view must carry one epoch, and every capturing rotation
    // must account for exactly the flows it retired.
    let trace = caida_like(0.008, 97);
    let workers = 4;
    let shards = shard_records(&trace.records, workers);
    let (engine, _registry) = start_engine(workers, cfg(FilterKind::Regulator), 64);

    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        for p in 0..2 {
            let mine: Vec<usize> = (p..workers).step_by(2).collect();
            let (engine, shards) = (&engine, &shards);
            s.spawn(move || push_shards(engine, shards, &mine));
        }
        let (engine, stop) = (&engine, &stop);
        s.spawn(move || {
            // The rotator: each feature capture must be a complete
            // decomposition of what the rotation retired.
            let mut rotations = 0u64;
            while !stop.load(Ordering::Acquire) {
                let outcome = engine.rotate_with_snapshots();
                assert_eq!(outcome.features.len(), workers);
                let captured: u64 = outcome.features.iter().map(|f| f.flows() as u64).sum();
                assert_eq!(
                    captured, outcome.retired,
                    "rotation {rotations}: captures lost retired flows"
                );
                rotations += 1;
            }
            assert!(rotations > 0, "the rotator never ran");
        });
        for _ in 0..2 {
            s.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let views = engine.debug_consistent_view();
                    let epoch0 = views[0].0;
                    assert!(
                        views.iter().all(|(e, _)| *e == epoch0),
                        "merged view mixes epochs: {views:?}"
                    );
                    let _ = engine.top_k(16);
                }
            });
        }
        // Pushers finish first (scope join order); give the rotator and
        // readers a live window over steady ingest, then release them.
        thread::sleep(Duration::from_millis(50));
        stop.store(true, Ordering::Release);
    });

    let report = engine.drain();
    assert_eq!(report.submitted, trace.records.len() as u64);
    assert_eq!(report.processed, report.submitted, "drain lost packets");
}
