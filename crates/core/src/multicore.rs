//! Offline replays on the sharded runtime of paper Fig. 5.
//!
//! [`run_multicore_stream`] boots a fresh [`Engine`] from a
//! [`MultiCoreConfig`], feeds the whole packet stream through one ingest
//! lane, drains the engine and keeps every shard's final state as a
//! [`MultiCoreSystem`]. The workers, the popcount dispatch, the batching
//! and the buffer recycling are the engine's, so `analyze --workers`,
//! the figure benches and the daemon all run the same runtime code.
//!
//! The contract, which the differential test suite pins down exactly:
//!
//! * **Order** — batching never reorders packets within a worker's stream,
//!   so the per-worker measurement state is bit-identical to a single-core
//!   replay of that worker's shard of the trace, at any batch size.
//! * **Flush** — partial batches are flushed at end-of-stream; under
//!   [`BackpressurePolicy::Block`] no packet is ever lost.
//! * **Drop accounting** — under [`BackpressurePolicy::Drop`] the lane
//!   sheds: a full ring drops the *whole batch* (a mirror-port overrun
//!   loses a burst, not one frame) and every dropped packet is counted
//!   exactly, per worker: `processed + dropped == offered` always holds.

use std::sync::Arc;
use std::time::Instant;

use instameasure_packet::{FlowKey, PacketRecord};
use instameasure_sketch::FilterStats;
use instameasure_telemetry::{
    bucket_index, HistogramSnapshot, Instrumented, LogHistogram, SharedRegistry, Snapshot,
};

use crate::engine::{merge_top_k, shard_top_k, Engine, EngineConfig};
use crate::{InstaMeasure, InstaMeasureConfig};

/// Packets submitted between two queue-depth samples.
const SAMPLE_EVERY: usize = 8192;

/// Largest accepted batch size; beyond this a batch costs more cache than
/// the ring synchronization it amortizes.
pub const MAX_BATCH_SIZE: usize = 65_536;

/// What the ingest lane does when a worker's ring is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Block until the worker drains (lossless; offline replay mode).
    #[default]
    Block,
    /// Drop the batch and count its packets — how a real tap behaves when
    /// overrun (the paper's mirror port "starts to drop packets when
    /// port capacity is exceeded", §IV-B).
    Drop,
}

/// Configuration of the multi-core system.
///
/// Construct via [`MultiCoreConfig::builder`] for validated parameters, or
/// as a struct literal when the values are known-good constants.
#[derive(Debug, Clone, Copy)]
pub struct MultiCoreConfig {
    /// Number of worker threads (the paper evaluates 1–4).
    pub workers: usize,
    /// Capacity of each worker's ring, in packets: rounded up to a whole
    /// number of batches, and that batch count up to a power of two, with
    /// a minimum of 2.
    pub queue_capacity: usize,
    /// Packets per dispatch batch. 1 degenerates to per-packet sends;
    /// the default 256 amortizes ring synchronization ~256×.
    pub batch_size: usize,
    /// Per-worker measurement configuration (each worker gets its own
    /// sketch and WSAF shard of this size).
    pub per_worker: InstaMeasureConfig,
    /// Full-queue behaviour.
    pub backpressure: BackpressurePolicy,
}

impl Default for MultiCoreConfig {
    fn default() -> Self {
        MultiCoreConfig {
            workers: 4,
            queue_capacity: 4096,
            batch_size: 256,
            per_worker: InstaMeasureConfig::default(),
            backpressure: BackpressurePolicy::Block,
        }
    }
}

impl MultiCoreConfig {
    /// Starts building a validated config from the defaults.
    #[must_use]
    pub fn builder() -> MultiCoreConfigBuilder {
        MultiCoreConfigBuilder::default()
    }

    /// Per-worker ring capacity in whole batches (at least one), before
    /// the ring rounds it up.
    #[must_use]
    pub(crate) fn queue_batches(&self) -> usize {
        self.queue_capacity.div_ceil(self.batch_size).max(1)
    }
}

/// Rejected [`MultiCoreConfigBuilder`] parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MultiCoreConfigError {
    /// `workers` was zero.
    NoWorkers,
    /// `queue_capacity` was zero.
    ZeroQueueCapacity,
    /// `batch_size` was zero or above [`MAX_BATCH_SIZE`].
    BatchSize {
        /// The rejected value.
        got: usize,
    },
}

impl core::fmt::Display for MultiCoreConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MultiCoreConfigError::NoWorkers => write!(f, "need at least one worker"),
            MultiCoreConfigError::ZeroQueueCapacity => {
                write!(f, "queue capacity must be at least one packet")
            }
            MultiCoreConfigError::BatchSize { got } => {
                write!(f, "batch size must be in 1..={MAX_BATCH_SIZE}, got {got}")
            }
        }
    }
}

impl std::error::Error for MultiCoreConfigError {}

/// Validating builder for [`MultiCoreConfig`].
///
/// ```
/// use instameasure_core::multicore::MultiCoreConfig;
/// use instameasure_core::InstaMeasureConfig;
///
/// let cfg = MultiCoreConfig::builder()
///     .workers(2)
///     .batch_size(64)
///     .per_worker(InstaMeasureConfig::default().small_for_tests())
///     .build()?;
/// assert_eq!(cfg.batch_size, 64);
/// assert!(MultiCoreConfig::builder().batch_size(0).build().is_err());
/// # Ok::<(), instameasure_core::multicore::MultiCoreConfigError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct MultiCoreConfigBuilder {
    cfg: MultiCoreConfig,
}

impl MultiCoreConfigBuilder {
    /// Sets the worker count (default 4).
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n;
        self
    }

    /// Sets the per-worker queue capacity in packets (default 4096).
    #[must_use]
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.cfg.queue_capacity = n;
        self
    }

    /// Sets the dispatch batch size in packets (default 256).
    #[must_use]
    pub fn batch_size(mut self, n: usize) -> Self {
        self.cfg.batch_size = n;
        self
    }

    /// Sets the per-worker measurement configuration.
    #[must_use]
    pub fn per_worker(mut self, cfg: InstaMeasureConfig) -> Self {
        self.cfg.per_worker = cfg;
        self
    }

    /// Sets the full-queue behaviour (default [`BackpressurePolicy::Block`]).
    #[must_use]
    pub fn backpressure(mut self, policy: BackpressurePolicy) -> Self {
        self.cfg.backpressure = policy;
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    ///
    /// Returns [`MultiCoreConfigError`] naming the rejected parameter.
    pub fn build(self) -> Result<MultiCoreConfig, MultiCoreConfigError> {
        if self.cfg.workers == 0 {
            return Err(MultiCoreConfigError::NoWorkers);
        }
        if self.cfg.queue_capacity == 0 {
            return Err(MultiCoreConfigError::ZeroQueueCapacity);
        }
        if self.cfg.batch_size == 0 || self.cfg.batch_size > MAX_BATCH_SIZE {
            return Err(MultiCoreConfigError::BatchSize { got: self.cfg.batch_size });
        }
        Ok(self.cfg)
    }
}

/// Routes a flow to its worker: popcount of the source address mod `N`
/// (paper §IV-C: "the number of 1 bits of source IP address is used to
/// determine which queue the packet goes into").
///
/// # Panics
///
/// Panics if `workers` is zero.
#[inline]
#[must_use]
pub fn worker_for(key: &FlowKey, workers: usize) -> usize {
    assert!(workers > 0, "need at least one worker");
    key.src_ip_u32().count_ones() as usize % workers
}

/// The merged view over all worker shards after a run.
#[derive(Debug)]
pub struct MultiCoreSystem {
    shards: Vec<InstaMeasure>,
}

impl MultiCoreSystem {
    /// Number of workers/shards.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Per-flow packet estimate (routed to the owning shard).
    #[must_use]
    pub fn estimate_packets(&self, key: &FlowKey) -> f64 {
        self.shards[worker_for(key, self.shards.len())].estimate_packets(key)
    }

    /// Per-flow byte estimate (routed to the owning shard).
    #[must_use]
    pub fn estimate_bytes(&self, key: &FlowKey) -> f64 {
        self.shards[worker_for(key, self.shards.len())].estimate_bytes(key)
    }

    /// Read access to one shard.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn shard(&self, idx: usize) -> &InstaMeasure {
        &self.shards[idx]
    }

    /// Filter work counters for each worker.
    #[must_use]
    pub fn filter_stats(&self) -> Vec<FilterStats> {
        self.shards.iter().map(InstaMeasure::filter_stats).collect()
    }

    /// Telemetry of one shard (its `regulator.*` + `wsaf.*` metrics).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn shard_telemetry(&self, idx: usize) -> Snapshot {
        self.shards[idx].telemetry()
    }

    /// Global Top-K by packets, merged across shards the way
    /// [`Engine::top_k`] merges them (ties by key).
    #[must_use]
    pub fn top_k_by_packets(&self, k: usize) -> Vec<(FlowKey, f64)> {
        let merged = merge_top_k(self.shards.iter().map(|s| shard_top_k(s, k)), k);
        merged.into_iter().map(|f| (f.key, f.packets)).collect()
    }
}

impl Instrumented for MultiCoreSystem {
    /// The shards' snapshots merged into one aggregate view: `regulator.*`
    /// and `wsaf.*` counters sum across workers, histograms sum bucket-wise,
    /// gauges keep the worst shard.
    fn telemetry(&self) -> Snapshot {
        let mut merged = Snapshot::new();
        for shard in &self.shards {
            merged.merge(&shard.telemetry());
        }
        merged
    }
}

/// Timing and load metrics of one multi-core run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall-clock processing time in nanoseconds (engine boot, dispatch
    /// and drain).
    pub wall_nanos: u64,
    /// Packets processed (offered minus dropped).
    pub packets: u64,
    /// End-to-end throughput in packets/second of wall time.
    pub throughput_pps: f64,
    /// Packets handled by each worker (dispatch balance).
    pub per_worker_packets: Vec<u64>,
    /// Packets dropped at each worker's full ring (always all-zero under
    /// [`BackpressurePolicy::Block`]).
    pub per_worker_dropped: Vec<u64>,
    /// Batches successfully handed to worker rings, including end-of-stream
    /// flushes.
    pub batches_sent: u64,
    /// Partial batches flushed at end-of-stream (at most one per worker).
    pub batch_flushes: u64,
    /// Queue depth samples taken between submits of 8,192 packets, as the
    /// paper plots in Fig. 12(c): `(timestamp of the next packet, queued
    /// packets)`. Depth is counted in whole batches, so it is an upper
    /// bound on the exact packet count.
    pub queue_depth_samples: Vec<(u64, usize)>,
    /// Each worker's wall time from start to exit in nanoseconds (CPU-work
    /// proxy; meaningful even on a host with fewer physical cores than
    /// workers).
    pub worker_busy_nanos: Vec<u64>,
    /// Packets dropped at full rings, summed over workers (always 0 under
    /// [`BackpressurePolicy::Block`]).
    pub dropped: u64,
    /// Run-level telemetry: the engine's own registry (`service.*`, the
    /// `ingest.batch_fill` histogram of every batch a worker drained and
    /// the `hotpath.*` gauges: prefetch, SIMD tier and CPU features) plus
    /// the run's accounting: `multicore.worker{w}.packets` and
    /// `.busy_nanos` per worker, the `multicore.packets`/`dropped`
    /// counters, the `multicore.queue_depth` histogram over the depth
    /// samples, a `multicore.throughput_pps` gauge, and the batched-ingest
    /// counters `ingest.batches_sent`, `ingest.batch_flushes`,
    /// `ingest.dropped_pkts` (total and per worker as
    /// `ingest.worker{w}.dropped_pkts`) plus the `ingest.batch_occupancy`
    /// histogram over every assembled batch, shipped or dropped.
    pub telemetry: Snapshot,
}

impl RunReport {
    /// Dispatch imbalance: max over min per-worker packet share (1.0 is
    /// perfectly balanced).
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let max = self.per_worker_packets.iter().copied().max().unwrap_or(0);
        let min = self.per_worker_packets.iter().copied().min().unwrap_or(0);
        if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }
}

/// Runs a pre-loaded packet stream through the sharded runtime (the paper
/// pre-loads the CAIDA trace into memory for its speed tests, §V-B) and
/// returns the merged measurement plus the run report.
///
/// # Panics
///
/// Panics if the config is invalid (would be rejected by
/// [`MultiCoreConfig::builder`]) or a worker thread panics.
#[must_use]
pub fn run_multicore(
    records: &[PacketRecord],
    cfg: &MultiCoreConfig,
) -> (MultiCoreSystem, RunReport) {
    run_multicore_stream(records.iter().copied(), cfg)
}

/// Streaming variant of [`run_multicore`]: ingests packets from any
/// iterator, so arbitrarily long traces flow through the pipeline with
/// O(batch × workers) lane memory (the `stress` bench streams tens of
/// millions of packets this way).
///
/// It boots an [`Engine`] with the config's geometry, submits the stream
/// through one lane — a shedding lane under [`BackpressurePolicy::Drop`]
/// — drains the engine and keeps its shards.
///
/// # Panics
///
/// Panics if the config is invalid (would be rejected by
/// [`MultiCoreConfig::builder`]) or a worker thread panics.
#[must_use]
pub fn run_multicore_stream<I>(packets: I, cfg: &MultiCoreConfig) -> (MultiCoreSystem, RunReport)
where
    I: IntoIterator<Item = PacketRecord>,
{
    assert!(
        cfg.batch_size > 0 && cfg.batch_size <= MAX_BATCH_SIZE,
        "batch size must be in 1..={MAX_BATCH_SIZE}"
    );
    assert!(cfg.queue_capacity > 0, "queue capacity must be at least one packet");
    let registry = Arc::new(SharedRegistry::new());
    let start = Instant::now();
    let engine = Engine::start(
        &EngineConfig {
            workers: cfg.workers,
            batch_size: cfg.batch_size,
            queue_batches: cfg.queue_batches(),
            pin: false,
            per_worker: cfg.per_worker,
        },
        Arc::clone(&registry),
    );
    let lane = match cfg.backpressure {
        BackpressurePolicy::Block => engine.lane(),
        BackpressurePolicy::Drop => engine.shedding_lane(),
    };
    let mut lane = lane.expect("a fresh engine opens a lane");

    let mut queue_depth = LogHistogram::new();
    let mut queue_depth_samples = Vec::new();
    let mut packets = packets.into_iter();
    while let Some(first) = packets.next() {
        let depth = lane.queued_batches() * cfg.batch_size;
        queue_depth.observe(depth as u64);
        queue_depth_samples.push((first.ts_nanos, depth));
        let chunk = std::iter::once(first).chain(packets.by_ref().take(SAMPLE_EVERY - 1));
        lane.submit_iter(chunk).expect("nothing drains the engine before this lane is done");
    }
    lane.flush().expect("nothing drains the engine before this lane is done");
    let shed = lane.shed().to_vec();
    drop(lane);
    let (drained, shards) = engine.into_shards();
    let wall_nanos = start.elapsed().as_nanos() as u64;

    let packets = drained.processed;
    let dropped: u64 = shed.iter().sum();
    let throughput_pps =
        if wall_nanos == 0 { 0.0 } else { packets as f64 * 1e9 / wall_nanos as f64 };
    let mut telemetry = registry.snapshot();
    let batches_sent = telemetry.counter("service.ingest.batches").unwrap_or(0);
    // The lane ships or sheds a batch only when it holds `batch_size`
    // packets, except for each worker's end-of-stream partial.
    let batch = cfg.batch_size as u64;
    let offered = drained.per_worker.iter().zip(&shed).map(|(p, s)| p + s);
    let batch_flushes = offered.filter(|n| n % batch != 0).count() as u64;
    let mut occupancy = telemetry.histogram("ingest.batch_fill").cloned().unwrap_or_default();
    for &n in &shed {
        observe_times(&mut occupancy, batch, n / batch);
        observe_times(&mut occupancy, n % batch, u64::from(n % batch != 0));
    }
    for (w, (&n, &busy)) in drained.per_worker.iter().zip(&drained.busy_nanos).enumerate() {
        telemetry.set_counter(format!("multicore.worker{w}.packets"), n);
        telemetry.set_counter(format!("multicore.worker{w}.busy_nanos"), busy);
        telemetry.set_counter(format!("ingest.worker{w}.dropped_pkts"), shed[w]);
    }
    telemetry.set_counter("multicore.packets", packets);
    telemetry.set_counter("multicore.dropped", dropped);
    telemetry.set_counter("ingest.dropped_pkts", dropped);
    telemetry.set_counter("ingest.batches_sent", batches_sent);
    telemetry.set_counter("ingest.batch_flushes", batch_flushes);
    telemetry.set_histogram("ingest.batch_occupancy", occupancy);
    telemetry.set_histogram("multicore.queue_depth", queue_depth.snapshot());
    telemetry.set_gauge("multicore.throughput_pps", throughput_pps);
    let report = RunReport {
        wall_nanos,
        packets,
        throughput_pps,
        per_worker_packets: drained.per_worker,
        per_worker_dropped: shed,
        batches_sent,
        batch_flushes,
        queue_depth_samples,
        worker_busy_nanos: drained.busy_nanos,
        dropped,
        telemetry,
    };
    (MultiCoreSystem { shards }, report)
}

/// Adds `times` observations of `value` to `hist`.
fn observe_times(hist: &mut HistogramSnapshot, value: u64, times: u64) {
    if times > 0 {
        hist.buckets[bucket_index(value)] += times;
        hist.count += times;
        hist.sum += value * times;
        hist.max = hist.max.max(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instameasure_packet::Protocol;

    fn key(i: u32) -> FlowKey {
        FlowKey::new(i.to_be_bytes(), [5, 5, 5, 5], 1000, 80, Protocol::Tcp)
    }

    fn cfg(workers: usize) -> MultiCoreConfig {
        MultiCoreConfig {
            workers,
            queue_capacity: 1024,
            batch_size: 256,
            per_worker: InstaMeasureConfig::default().small_for_tests(),
            backpressure: BackpressurePolicy::Block,
        }
    }

    #[test]
    fn dispatch_is_deterministic_and_in_range() {
        for i in 0..1000 {
            let w = worker_for(&key(i), 4);
            assert!(w < 4);
            assert_eq!(w, worker_for(&key(i), 4));
        }
    }

    #[test]
    fn builder_validates_every_knob() {
        assert!(MultiCoreConfig::builder().build().is_ok());
        assert_eq!(
            MultiCoreConfig::builder().workers(0).build().unwrap_err(),
            MultiCoreConfigError::NoWorkers
        );
        assert_eq!(
            MultiCoreConfig::builder().queue_capacity(0).build().unwrap_err(),
            MultiCoreConfigError::ZeroQueueCapacity
        );
        assert_eq!(
            MultiCoreConfig::builder().batch_size(0).build().unwrap_err(),
            MultiCoreConfigError::BatchSize { got: 0 }
        );
        assert_eq!(
            MultiCoreConfig::builder().batch_size(MAX_BATCH_SIZE + 1).build().unwrap_err(),
            MultiCoreConfigError::BatchSize { got: MAX_BATCH_SIZE + 1 }
        );
        let cfg = MultiCoreConfig::builder()
            .workers(2)
            .queue_capacity(100)
            .batch_size(64)
            .backpressure(BackpressurePolicy::Drop)
            .build()
            .unwrap();
        assert_eq!((cfg.workers, cfg.queue_capacity, cfg.batch_size), (2, 100, 64));
        assert_eq!(cfg.backpressure, BackpressurePolicy::Drop);
        assert_eq!(cfg.queue_batches(), 2, "100 packets round up to 2 batches of 64");
    }

    #[test]
    fn all_packets_of_a_flow_meet_one_worker() {
        let records: Vec<PacketRecord> =
            (0..1000u64).map(|t| PacketRecord::new(key(7), 100, t)).collect();
        let (_, report) = run_multicore(&records, &cfg(4));
        let nonzero = report.per_worker_packets.iter().filter(|&&c| c > 0).count();
        assert_eq!(nonzero, 1, "a single flow lands on a single worker");
        assert_eq!(report.packets, 1000);
    }

    #[test]
    fn elephants_measured_accurately_through_the_pipeline() {
        let mut records = Vec::new();
        for t in 0..50_000u64 {
            records.push(PacketRecord::new(key(1), 700, t));
            if t % 5 == 0 {
                records.push(PacketRecord::new(key(t as u32 + 10), 64, t));
            }
        }
        let (sys, report) = run_multicore(&records, &cfg(3));
        let est = sys.estimate_packets(&key(1));
        assert!((est - 50_000.0).abs() / 50_000.0 < 0.15, "estimate {est}");
        assert_eq!(report.per_worker_packets.iter().sum::<u64>(), records.len() as u64);
        assert!(report.throughput_pps > 0.0);
        // The elephant appears in the merged Top-K.
        let top = sys.top_k_by_packets(1);
        assert_eq!(top[0].0, key(1));
    }

    #[test]
    fn popcount_dispatch_is_roughly_balanced_for_random_sources() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let records: Vec<PacketRecord> = (0..20_000u64)
            .map(|t| {
                let k =
                    FlowKey::new(rng.gen::<u32>().to_be_bytes(), [1, 1, 1, 1], 1, 2, Protocol::Udp);
                PacketRecord::new(k, 64, t)
            })
            .collect();
        let (_, report) = run_multicore(&records, &cfg(2));
        // popcount parity of random u32s is a fair coin.
        assert!(report.imbalance() < 1.15, "imbalance {}", report.imbalance());
    }

    #[test]
    fn queue_depths_stay_bounded() {
        let records: Vec<PacketRecord> =
            (0..30_000u64).map(|t| PacketRecord::new(key(t as u32 % 64), 64, t)).collect();
        let (_, report) = run_multicore(&records, &cfg(2));
        assert!(!report.queue_depth_samples.is_empty());
        // Each worker holds at most queue_batches whole batches.
        let bound = 2 * cfg(2).queue_batches() * cfg(2).batch_size;
        assert!(report.queue_depth_samples.iter().all(|&(_, d)| d <= bound));
        // Sample timestamps are non-decreasing (trace order).
        assert!(report.queue_depth_samples.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn single_worker_multicore_matches_single_core_system() {
        let records: Vec<PacketRecord> =
            (0..20_000u64).map(|t| PacketRecord::new(key(3), 500, t)).collect();
        let (sys, _) = run_multicore(&records, &cfg(1));
        let mut single = InstaMeasure::new(InstaMeasureConfig::default().small_for_tests());
        for r in &records {
            single.process(r);
        }
        let a = sys.estimate_packets(&key(3));
        let b = single.estimate_packets(&key(3));
        assert!((a - b).abs() < 1e-9, "identical config+stream => identical estimate: {a} vs {b}");
    }

    #[test]
    fn batch_size_does_not_change_what_is_measured() {
        let records: Vec<PacketRecord> =
            (0..40_000u64).map(|t| PacketRecord::new(key(t as u32 % 300), 120, t)).collect();
        let (reference, _) = run_multicore(&records, &cfg(3));
        for batch_size in [1usize, 7, 255, 1024] {
            let mut c = cfg(3);
            c.batch_size = batch_size;
            let (sys, report) = run_multicore(&records, &c);
            assert_eq!(report.packets, records.len() as u64);
            for i in 0..300u32 {
                let a = sys.estimate_packets(&key(i));
                let b = reference.estimate_packets(&key(i));
                assert!((a - b).abs() < 1e-12, "batch {batch_size} flow {i}: {a} vs reference {b}");
            }
        }
    }

    #[test]
    fn partial_batches_are_flushed_at_end_of_stream() {
        // 10 packets with batch_size 256: nothing ever fills a batch, so
        // everything arrives via the end-of-stream flush.
        let records: Vec<PacketRecord> =
            (0..10u64).map(|t| PacketRecord::new(key(t as u32), 64, t)).collect();
        let (_, report) = run_multicore(&records, &cfg(4));
        assert_eq!(report.packets, 10);
        assert_eq!(report.dropped, 0);
        assert!(report.batch_flushes >= 1);
        assert_eq!(report.batches_sent, report.telemetry.counter("ingest.batches_sent").unwrap());
        assert_eq!(report.batch_flushes, report.telemetry.counter("ingest.batch_flushes").unwrap());
        let occ = report.telemetry.histogram("ingest.batch_occupancy").unwrap();
        assert_eq!(occ.sum, 10, "occupancy histogram sums to the packets shipped");
    }

    #[test]
    fn empty_stream_is_fine() {
        let (sys, report) = run_multicore(&[], &cfg(2));
        assert_eq!(report.packets, 0);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.batches_sent, 0);
        assert_eq!(report.batch_flushes, 0);
        assert_eq!(sys.workers(), 2);
    }

    #[test]
    fn run_telemetry_reconciles_with_report() {
        let records: Vec<PacketRecord> =
            (0..30_000u64).map(|t| PacketRecord::new(key(t as u32 % 97), 64, t)).collect();
        let (sys, report) = run_multicore(&records, &cfg(3));
        // Per-worker live counters match the report's dispatch accounting
        // and sum to the trace size.
        for (w, &n) in report.per_worker_packets.iter().enumerate() {
            assert_eq!(report.telemetry.counter(&format!("multicore.worker{w}.packets")), Some(n));
        }
        let worker_pkts: u64 = (0..3)
            .map(|w| report.telemetry.counter(&format!("multicore.worker{w}.packets")).unwrap())
            .sum();
        assert_eq!(worker_pkts, records.len() as u64);
        assert_eq!(report.telemetry.counter("multicore.packets"), Some(report.packets));
        assert_eq!(report.telemetry.counter("multicore.dropped"), Some(0));
        assert_eq!(report.telemetry.counter("ingest.dropped_pkts"), Some(0));
        assert!(report.telemetry.histogram("multicore.queue_depth").unwrap().count > 0);
        // Every shipped packet appears in exactly one occupancy-histogram
        // batch.
        let occ = report.telemetry.histogram("ingest.batch_occupancy").unwrap();
        assert_eq!(occ.sum, records.len() as u64);
        assert_eq!(occ.count, report.batches_sent);
        // Workers drained the same packets through the batched hot path.
        let fill = report.telemetry.histogram("ingest.batch_fill").unwrap();
        assert_eq!(fill.sum, records.len() as u64);
        assert_eq!(fill.count, report.batches_sent);
        let expected_prefetch =
            if instameasure_packet::prefetch::prefetch_enabled() { 1.0 } else { 0.0 };
        assert_eq!(report.telemetry.gauge("hotpath.prefetch_enabled"), Some(expected_prefetch));
        let expected_simd = if instameasure_packet::simd::simd_enabled() { 1.0 } else { 0.0 };
        assert_eq!(report.telemetry.gauge("hotpath.simd_enabled"), Some(expected_simd));
        assert_eq!(
            report.telemetry.gauge("hotpath.prefetch_distance"),
            Some(instameasure_packet::prefetch::prefetch_distance() as f64)
        );
        for feature in instameasure_packet::simd::cpu_features() {
            assert_eq!(report.telemetry.gauge(&format!("hotpath.cpu.{feature}")), Some(1.0));
        }
        // The merged shard snapshot sees every packet exactly once.
        let merged = sys.telemetry();
        assert_eq!(merged.counter("regulator.packets"), Some(records.len() as u64));
        assert_eq!(merged.counter("wsaf.accumulates"), merged.counter("regulator.updates"));
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_workers_rejected() {
        let _ = run_multicore(&[], &cfg(0));
    }

    #[test]
    #[should_panic(expected = "batch size must be in 1..=")]
    fn zero_batch_size_rejected() {
        let mut c = cfg(1);
        c.batch_size = 0;
        let _ = run_multicore(&[], &c);
    }
}

#[cfg(test)]
mod backpressure_tests {
    use super::*;
    use instameasure_packet::Protocol;

    fn key(i: u32) -> FlowKey {
        FlowKey::new(i.to_be_bytes(), [3, 3, 3, 3], 1, 2, Protocol::Tcp)
    }

    #[test]
    fn block_policy_never_drops() {
        let records: Vec<PacketRecord> =
            (0..50_000u64).map(|t| PacketRecord::new(key(t as u32 % 128), 64, t)).collect();
        let cfg = MultiCoreConfig {
            workers: 4,
            queue_capacity: 2,
            batch_size: 1,
            per_worker: InstaMeasureConfig::default().small_for_tests(),
            backpressure: BackpressurePolicy::Block,
        };
        let (_, report) = run_multicore(&records, &cfg);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.packets, 50_000);
    }

    #[test]
    fn drop_policy_conserves_packet_accounting() {
        // Tiny queues + bursty dispatch: some drops are likely, but
        // processed + dropped must always equal the input — at batch
        // granularity, since an overrun loses the whole batch.
        let records: Vec<PacketRecord> =
            (0..200_000u64).map(|t| PacketRecord::new(key(t as u32 % 512), 64, t)).collect();
        let cfg = MultiCoreConfig {
            workers: 4,
            queue_capacity: 1,
            batch_size: 16,
            per_worker: InstaMeasureConfig::default().small_for_tests(),
            backpressure: BackpressurePolicy::Drop,
        };
        let (_, report) = run_multicore(&records, &cfg);
        assert_eq!(report.packets + report.dropped, 200_000);
        assert_eq!(report.per_worker_packets.iter().sum::<u64>(), report.packets);
        assert_eq!(report.per_worker_dropped.iter().sum::<u64>(), report.dropped);
        // Per-worker drop counters reconcile report vs live telemetry.
        for (w, &d) in report.per_worker_dropped.iter().enumerate() {
            assert_eq!(
                report.telemetry.counter(&format!("ingest.worker{w}.dropped_pkts")),
                Some(d)
            );
        }
        assert_eq!(report.telemetry.counter("ingest.dropped_pkts"), Some(report.dropped));
    }

    #[test]
    fn drop_policy_still_measures_what_it_saw() {
        // Even with drops, an elephant's estimate must be what the packets
        // that actually reached a worker give (the paper compares against
        // the same dropped stream for exactly this reason). Every record is
        // the same flow and length and whole batches drop, so the delivered
        // stream is fixed by its count: a single-core replay of that many
        // records is the oracle, bit for bit.
        let records: Vec<PacketRecord> =
            (0..100_000u64).map(|t| PacketRecord::new(key(1), 64, t)).collect();
        let cfg = MultiCoreConfig {
            workers: 2,
            queue_capacity: 4,
            batch_size: 4,
            per_worker: InstaMeasureConfig::default().small_for_tests(),
            backpressure: BackpressurePolicy::Drop,
        };
        let (sys, report) = run_multicore(&records, &cfg);
        let delivered = report.per_worker_packets.iter().sum::<u64>() as usize;
        let mut replay = InstaMeasure::new(cfg.per_worker);
        replay.process_batch(&records[..delivered]);
        let est = sys.estimate_packets(&key(1));
        let expected = replay.estimate_packets(&key(1));
        assert_eq!(est.to_bits(), expected.to_bits(), "{est} vs {expected}, {delivered} delivered");
    }
}
