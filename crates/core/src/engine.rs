//! The sharded runtime of paper Fig. 5: thread-per-shard ownership,
//! lock-free batched ingest, queries answered inside the owning shard.
//!
//! Each packet goes to shard `popcount(src IP) mod N` ([`worker_for`]),
//! so all packets of a flow meet one shard, and each shard's worker owns
//! its FlowRegulator and WSAF memory outright — the paper's "memory
//! blocks exclusively to each worker core". The `serve` daemon runs an
//! engine for as long as an operator wants, fed by one lane per
//! connection; [`crate::multicore`] runs one over a finite stream through
//! a single lane and keeps the drained shards.
//!
//! * **Thread-per-shard ownership.** Each shard's sketch state is a plain
//!   (unshared) [`InstaMeasure`] owned by one worker thread, optionally
//!   pinned to a CPU ([`EngineConfig::pin`]) so megabytes of regulator
//!   and WSAF arrays stay cache-resident.
//! * **Batched SPSC ring ingest.** Moving one record per queue operation
//!   makes synchronization the hot path long before the sketch is (the
//!   economics behind PriMe's SRAM front buffer), so an [`IngestLane`]
//!   fills per-shard buffers of [`EngineConfig::batch_size`] records and
//!   ships whole batches. It holds a bounded [`crate::ring`] pair per
//!   shard: a forward ring carrying filled batches and a return ring
//!   carrying drained buffers back, so the steady state allocates nothing
//!   and neither enqueue nor drain takes a lock. Batching never reorders
//!   packets within a shard's stream, so each shard's state is
//!   bit-identical to a single-core replay of its share of the trace, at
//!   any batch size. Workers discover new lanes through a mailbox guarded
//!   by a mutex plus a generation counter, so the per-batch path costs one
//!   relaxed atomic load, not a lock.
//! * **Backpressure is a lane policy.** A full ring stalls the pusher of a
//!   blocking lane ([`Engine::lane`], counted in
//!   `service.ring.full_stalls`): it yields, then sleeps in short steps so
//!   a stalled pusher does not take the CPU from the worker it waits for.
//!   That is the backpressure that ultimately closes the remote tap's TCP
//!   window. A shedding lane, which [`crate::multicore`] opens for
//!   [`crate::multicore::BackpressurePolicy::Drop`], drops the whole batch
//!   instead and counts its packets against the shard, as an overrun
//!   mirror port loses a burst (§IV-B): per shard,
//!   `processed + shed == offered`.
//! * **Queries through the control mailbox.** Nothing copies a shard to
//!   answer a query. A query posts a job carrying a one-shot reply
//!   channel to the owning worker's control mailbox; the worker runs it
//!   on its live state at the next batch boundary, so an answer covers
//!   every packet processed before the call. Epoch rotations travel the
//!   same mailbox and ship each shard's [`EpochFeatures`]. Multi-shard
//!   requests (top-k, telemetry, rotation) are posted to every shard
//!   under one engine-wide lock, so all shards queue them in one order
//!   and a merged answer never spans two epochs. After a drain the
//!   workers hand their final state back through their join handles and
//!   the engine answers from it, bit-identical to an offline replay of
//!   the same per-shard stream.
//! * **Packet-exact accounting.** `service.ingest.packets` counts what
//!   lanes shipped, per-worker counters count what shards processed, and
//!   [`Engine::drain`] proves `submitted == processed`: shutdown closes
//!   every ring through the handshake in [`crate::ring`], so a push
//!   racing the drain is either processed-and-counted or
//!   rejected-and-uncounted (`service.ingest.rejected_packets`), never
//!   lost. A lane flushes its partial batches when dropped, so an
//!   abruptly closed connection loses nothing that was decoded. `drain`
//!   is idempotent; concurrent calls all return the first report.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use instameasure_packet::{FlowKey, PacketRecord};
use instameasure_telemetry::{
    AtomicCell, Counter, Histogram, Instrumented, SharedRegistry, Snapshot,
};

use crate::affinity;
use crate::detect::EpochFeatures;
use crate::multicore::{worker_for, MAX_BATCH_SIZE};
use crate::ring::{ring, PushError, RingConsumer, RingProducer};
use crate::{InstaMeasure, InstaMeasureConfig};

/// Batches a worker drains from one lane before giving others a turn.
const DRAIN_QUANTUM: usize = 8;
/// Yields before a waiting thread blocks: an idle worker then parks on its
/// condvar, a lane at a full ring sleeps.
const SPIN_ROUNDS: u32 = 64;
/// Parked workers re-check their flags at least this often, so a lost
/// wakeup costs bounded latency, never liveness.
const PARK_TIMEOUT: Duration = Duration::from_micros(200);
/// How long a blocking lane sleeps per retry once a full ring has
/// outlasted its spin rounds.
const STALL_SLEEP: Duration = Duration::from_micros(50);

/// Geometry of the live engine.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker shard count.
    pub workers: usize,
    /// Packets per dispatch batch, at most [`MAX_BATCH_SIZE`].
    pub batch_size: usize,
    /// Per-shard ring capacity in whole batches (rounded up to a power of
    /// two, minimum 2).
    pub queue_batches: usize,
    /// Pin worker `w` to CPU `w mod available` ([`affinity`]); off by
    /// default because it is an optimization that a best-effort failure
    /// silently skips.
    pub pin: bool,
    /// Per-shard measurement configuration.
    pub per_worker: InstaMeasureConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            batch_size: 256,
            queue_batches: 16,
            pin: false,
            per_worker: InstaMeasureConfig::default(),
        }
    }
}

/// The ingest side is closed (the daemon is draining); the submitted
/// records were not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineClosed;

impl core::fmt::Display for EngineClosed {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "engine is draining; ingest is closed")
    }
}

impl std::error::Error for EngineClosed {}

/// Final accounting of a drained engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Packets lanes shipped into shard rings over the engine's life.
    pub submitted: u64,
    /// Packets workers fully processed (equals `submitted` after a clean
    /// drain — every ring was drained through the close handshake).
    pub processed: u64,
    /// Per-worker processed counts.
    pub per_worker: Vec<u64>,
    /// Per-worker wall time from worker start to worker exit, in
    /// nanoseconds.
    pub busy_nanos: Vec<u64>,
}

/// One merged heavy-hitter entry in a top-K answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopFlow {
    /// The flow.
    pub key: FlowKey,
    /// Estimated packets.
    pub packets: f64,
    /// Estimated bytes.
    pub bytes: f64,
}

/// One shard's top-`k` flows by packets, read from its WSAF.
pub(crate) fn shard_top_k(im: &InstaMeasure, k: usize) -> Vec<TopFlow> {
    let top = im.wsaf().top_k_by_packets(k).into_iter();
    top.map(|e| TopFlow { key: e.key, packets: e.packets, bytes: e.bytes }).collect()
}

/// Merges per-shard top-`k` lists into the global top-`k`: packets
/// descending, ties by key, so every caller lists tied flows in one
/// order.
pub(crate) fn merge_top_k(
    per_shard: impl IntoIterator<Item = Vec<TopFlow>>,
    k: usize,
) -> Vec<TopFlow> {
    let mut all: Vec<TopFlow> = per_shard.into_iter().flatten().collect();
    all.sort_by(|a, b| b.packets.total_cmp(&a.packets).then_with(|| a.key.cmp(&b.key)));
    all.truncate(k);
    all
}

/// One shard's measurement state and the epoch it belongs to. The
/// worker owns it while running; after a drain the engine does.
struct ShardState {
    im: InstaMeasure,
    epoch: u64,
}

/// A query or rotation against one shard's state, run by its worker at
/// a batch boundary or by the engine on the drained state. The job
/// sends its own reply.
type Job = Box<dyn FnOnce(&Shard, &mut ShardState) + Send>;

/// Builds a job running `f`, plus the receiver its answer arrives on.
/// The job refreshes the shard's resident-flow count before replying,
/// so a caller holding the reply also sees the count it left behind.
fn job<R: Send + 'static>(
    f: impl FnOnce(&mut ShardState) -> R + Send + 'static,
) -> (Job, Receiver<R>) {
    let (tx, rx) = mpsc::channel();
    let job: Job = Box::new(move |shard, state| {
        let answer = f(state);
        shard.flows_resident.store(state.im.wsaf().len() as u64, Ordering::Release);
        let _ = tx.send(answer);
    });
    (job, rx)
}

/// Every answer that arrives. A job dropped unanswered (its worker died)
/// drops its reply sender, which ends that wait instead of hanging it.
fn answers<R>(replies: Vec<Receiver<R>>) -> impl Iterator<Item = R> {
    replies.into_iter().filter_map(|reply| reply.recv().ok())
}

/// Worker-side endpoints of one lane's ring pair.
struct LaneRings {
    fwd: RingConsumer<Vec<PacketRecord>>,
    ret: RingProducer<Vec<PacketRecord>>,
}

/// Lane-side endpoints of one lane's ring pair.
struct LanePort {
    fwd: RingProducer<Vec<PacketRecord>>,
    ret: RingConsumer<Vec<PacketRecord>>,
}

/// What one epoch rotation produced.
#[derive(Debug)]
pub struct RotateOutcome {
    /// The epoch the rotation opened (old epoch + 1).
    pub epoch: u64,
    /// WSAF-resident flows retired across all shards.
    pub retired: u64,
    /// Each shard's feature summary of the closed epoch, absorbed by its
    /// worker just before the reset and indexed by shard — populated
    /// only by [`Engine::rotate_with_snapshots`].
    pub features: Vec<EpochFeatures>,
}

/// Everything shared between one worker thread, the lanes feeding it and
/// the query side. Note what is *not* here: the shard's `InstaMeasure`,
/// which the worker owns outright.
struct Shard {
    /// Hand-off point for newly opened lanes' ring endpoints. Locked by
    /// lane creation and by the worker only when `reg_gen` moves — never
    /// on the per-batch path.
    mailbox: Mutex<Vec<LaneRings>>,
    reg_gen: AtomicU64,
    /// Final-sweep latch: once set (under `mailbox`), no lane may
    /// register here again, which bounds shutdown.
    reg_closed: AtomicBool,
    /// Jobs waiting for the worker's next batch boundary; `None` once the
    /// worker's final sweep closed it (under this lock, the way
    /// `reg_closed` closes lane registration).
    control: Mutex<Option<Vec<Job>>>,
    control_flag: AtomicBool,
    draining: AtomicBool,
    /// Worker is (about to be) blocked on `wake_cv`; producers skip the
    /// notify entirely while this is false, keeping the hot path
    /// lock-free.
    parked: AtomicBool,
    wake: Mutex<bool>,
    wake_cv: Condvar,
    /// WSAF-resident flow count, maintained per batch so `status` polls
    /// never bother the worker.
    flows_resident: AtomicU64,
    /// Test hook: nanoseconds the worker dawdles per batch.
    worker_stall: AtomicU64,
}

impl Shard {
    /// Queues `job` for the worker's next batch boundary, or hands it
    /// back if the final sweep has closed the mailbox.
    fn post(&self, job: Job) -> Result<(), Job> {
        match lock(&self.control).as_mut() {
            Some(queue) => queue.push(job),
            None => return Err(job),
        }
        self.control_flag.store(true, Ordering::Release);
        wake(self);
        Ok(())
    }
}

/// Closes a shard's control mailbox however its worker exits, panics
/// included: the jobs still queued drop with their reply senders.
struct CloseOnExit<'a>(&'a Shard);

impl Drop for CloseOnExit<'_> {
    fn drop(&mut self) {
        lock(&self.0.control).take();
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wakes a shard's worker if (and only if) it is parked.
fn wake(shard: &Shard) {
    if shard.parked.load(Ordering::Relaxed) {
        let mut pending = lock(&shard.wake);
        *pending = true;
        shard.wake_cv.notify_all();
    }
}

/// What a worker hands back when it exits.
struct WorkerExit {
    processed: u64,
    busy_nanos: u64,
    state: ShardState,
}

/// Where the shard states live: on the running workers, or — once
/// drained — in the engine itself.
enum Phase {
    Live(Vec<thread::JoinHandle<WorkerExit>>),
    Drained { report: DrainReport, states: Vec<ShardState> },
}

/// The live measurement engine: shard-owning workers and the lock-free
/// ingest fabric.
pub struct Engine {
    shards: Vec<Arc<Shard>>,
    batch_size: usize,
    queue_batches: usize,
    open: Arc<AtomicBool>,
    registry: Arc<SharedRegistry>,
    submitted: Counter<AtomicCell>,
    batches: Counter<AtomicCell>,
    batch_fill: Histogram<AtomicCell>,
    ring_occupancy: Histogram<AtomicCell>,
    ring_stalls: Counter<AtomicCell>,
    rejected: Counter<AtomicCell>,
    /// `service.worker{w}.packets`, one per shard.
    worker_packets: Vec<Counter<AtomicCell>>,
    epoch: AtomicU64,
    /// The engine-wide lock. Multi-shard requests are posted under it, so
    /// every shard queues them in the same order; rotations and drains
    /// hold it throughout.
    phase: Mutex<Phase>,
}

/// Per-worker context moved into the worker thread.
struct WorkerCtx {
    shard: Arc<Shard>,
    per_worker: InstaMeasureConfig,
    packets_ctr: Counter<AtomicCell>,
    pinned_ctr: Counter<AtomicCell>,
    pin_cpu: Option<usize>,
}

impl Engine {
    /// Boots the engine: spawns one worker thread per shard, which builds
    /// its shard's state.
    /// Metrics are registered in `registry` under `service.*`.
    ///
    /// # Panics
    ///
    /// Panics if `workers`, `batch_size` or `queue_batches` is zero, or
    /// `batch_size` exceeds [`MAX_BATCH_SIZE`] (server configs are
    /// validated before they get here).
    #[must_use]
    pub fn start(cfg: &EngineConfig, registry: Arc<SharedRegistry>) -> Self {
        assert!(cfg.workers > 0, "need at least one worker");
        assert!(
            cfg.batch_size > 0 && cfg.batch_size <= MAX_BATCH_SIZE,
            "batch size must be in 1..={MAX_BATCH_SIZE}"
        );
        assert!(cfg.queue_batches > 0, "ring must hold at least one batch");

        let shards: Vec<Arc<Shard>> = (0..cfg.workers)
            .map(|_| {
                Arc::new(Shard {
                    mailbox: Mutex::new(Vec::new()),
                    reg_gen: AtomicU64::new(0),
                    reg_closed: AtomicBool::new(false),
                    control: Mutex::new(Some(Vec::new())),
                    control_flag: AtomicBool::new(false),
                    draining: AtomicBool::new(false),
                    parked: AtomicBool::new(false),
                    wake: Mutex::new(false),
                    wake_cv: Condvar::new(),
                    flows_resident: AtomicU64::new(0),
                    worker_stall: AtomicU64::new(0),
                })
            })
            .collect();

        let submitted = registry.counter("service.ingest.packets");
        let batches = registry.counter("service.ingest.batches");
        let batch_fill = registry.histogram("ingest.batch_fill");
        let ring_occupancy = registry.histogram("service.ring.occupancy");
        let ring_stalls = registry.counter("service.ring.full_stalls");
        let rejected = registry.counter("service.ingest.rejected_packets");
        let pinned = registry.counter("service.workers.pinned");
        let worker_packets: Vec<_> = (0..cfg.workers)
            .map(|w| registry.counter(&format!("service.worker{w}.packets")))
            .collect();
        registry
            .gauge("hotpath.prefetch_enabled")
            .set(if instameasure_packet::prefetch::prefetch_enabled() { 1.0 } else { 0.0 });
        registry
            .gauge("hotpath.prefetch_distance")
            .set(instameasure_packet::prefetch::prefetch_distance() as f64);
        registry.gauge("hotpath.simd_enabled").set(if instameasure_packet::simd::simd_enabled() {
            1.0
        } else {
            0.0
        });
        for feature in instameasure_packet::simd::cpu_features() {
            registry.gauge(&format!("hotpath.cpu.{feature}")).set(1.0);
        }

        let cpus = affinity::available_cpus();
        let mut handles = Vec::with_capacity(cfg.workers);
        for (w, shard) in shards.iter().enumerate() {
            let ctx = WorkerCtx {
                shard: Arc::clone(shard),
                per_worker: cfg.per_worker,
                packets_ctr: worker_packets[w].clone(),
                pinned_ctr: pinned.clone(),
                pin_cpu: cfg.pin.then_some(w % cpus),
            };
            handles.push(
                thread::Builder::new()
                    .name(format!("im-shard-{w}"))
                    .spawn(move || worker_loop(&ctx))
                    .expect("spawning a shard worker thread"),
            );
        }

        Engine {
            shards,
            batch_size: cfg.batch_size,
            queue_batches: cfg.queue_batches,
            open: Arc::new(AtomicBool::new(true)),
            registry,
            submitted,
            batches,
            batch_fill,
            ring_occupancy,
            ring_stalls,
            rejected,
            worker_packets,
            epoch: AtomicU64::new(0),
            phase: Mutex::new(Phase::Live(handles)),
        }
    }

    /// Opens a blocking ingest lane for one connection, or `None` if the
    /// engine is draining. A full shard ring stalls the lane until the
    /// worker frees a slot.
    #[must_use]
    pub fn lane(&self) -> Option<IngestLane> {
        self.open_lane(false)
    }

    /// Opens a shedding ingest lane, or `None` if the engine is draining.
    /// A full shard ring drops the whole batch instead of stalling; the
    /// lane counts the dropped packets per shard ([`IngestLane::shed`]).
    #[must_use]
    pub(crate) fn shedding_lane(&self) -> Option<IngestLane> {
        self.open_lane(true)
    }

    fn open_lane(&self, shedding: bool) -> Option<IngestLane> {
        if !self.open.load(Ordering::SeqCst) {
            return None;
        }
        let workers = self.shards.len();
        let mut ports = Vec::with_capacity(workers);
        let mut endpoints = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (fwd_tx, fwd_rx) = ring::<Vec<PacketRecord>>(self.queue_batches);
            // The return ring holds every buffer that can be in flight.
            let (ret_tx, ret_rx) = ring::<Vec<PacketRecord>>(self.queue_batches + 2);
            ports.push(LanePort { fwd: fwd_tx, ret: ret_rx });
            endpoints.push(LaneRings { fwd: fwd_rx, ret: ret_tx });
        }
        for (shard, ep) in self.shards.iter().zip(endpoints) {
            let mut mb = lock(&shard.mailbox);
            if shard.reg_closed.load(Ordering::SeqCst) {
                // Drain won the race: abort the lane. Endpoints already
                // registered are reaped by their workers once the ports
                // drop (right now, via this early return).
                return None;
            }
            mb.push(ep);
            drop(mb);
            shard.reg_gen.fetch_add(1, Ordering::Release);
            wake(shard);
        }
        Some(IngestLane {
            ports,
            shards: self.shards.clone(),
            open: Arc::clone(&self.open),
            pending: (0..workers).map(|_| Vec::with_capacity(self.batch_size)).collect(),
            batch_size: self.batch_size,
            accepted: 0,
            shedding,
            shed: vec![0; workers],
            submitted_ctr: self.submitted.clone(),
            batches_ctr: self.batches.clone(),
            batch_fill: self.batch_fill.clone(),
            ring_occupancy: self.ring_occupancy.clone(),
            ring_stalls: self.ring_stalls.clone(),
            rejected_ctr: self.rejected.clone(),
        })
    }

    /// Number of worker shards.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Current measurement epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Packets shipped into shard rings so far.
    #[must_use]
    pub fn packets_submitted(&self) -> u64 {
        self.submitted.get()
    }

    /// Packets fully processed by shards so far.
    #[must_use]
    pub fn packets_processed(&self) -> u64 {
        self.worker_packets.iter().map(Counter::get).sum()
    }

    /// Runs `f` on shard `w`'s state — live on its worker at the next
    /// batch boundary, or on the drained state once the worker's final
    /// sweep has closed its mailbox (waiting out a drain in progress).
    /// `None` only if the worker died with the job unanswered.
    fn ask<R: Send + 'static>(
        &self,
        w: usize,
        f: impl FnOnce(&mut ShardState) -> R + Send + 'static,
    ) -> Option<R> {
        let (job, reply) = job(f);
        if let Err(job) = self.shards[w].post(job) {
            if let Phase::Drained { states, .. } = &mut *lock(&self.phase) {
                job(&self.shards[w], &mut states[w]);
            }
        }
        reply.recv().ok()
    }

    /// Posts one job per shard running `f`, or runs them right away on
    /// the drained states. The caller holds the phase lock, so every
    /// shard queues the jobs in one order. Replies come in shard order.
    fn post_all<R, F>(&self, phase: &mut Phase, f: F) -> Vec<Receiver<R>>
    where
        R: Send + 'static,
        F: Fn(&mut ShardState) -> R + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let mut replies = Vec::with_capacity(self.shards.len());
        for (w, shard) in self.shards.iter().enumerate() {
            let f = Arc::clone(&f);
            let (job, reply) = job(move |state| f(state));
            match phase {
                // Under the phase lock a live shard's mailbox is open
                // unless its worker died; then the job drops unanswered.
                Phase::Live(_) => drop(shard.post(job)),
                Phase::Drained { states, .. } => job(shard, &mut states[w]),
            }
            replies.push(reply);
        }
        replies
    }

    /// One answer per shard to the same request, all from one epoch.
    fn ask_all<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(&mut ShardState) -> R + Send + Sync + 'static,
    {
        let replies = self.post_all(&mut lock(&self.phase), f);
        answers(replies).collect()
    }

    /// Per-flow estimate `(packets, bytes)` from the owning shard's live
    /// state — WSAF accumulation plus sketch residual, the paper's
    /// instant query. The key is digested once; both halves of the answer
    /// derive from that single hash ([`InstaMeasure::estimate`]).
    #[must_use]
    pub fn estimate(&self, key: &FlowKey) -> (f64, f64) {
        let key = *key;
        self.ask(worker_for(&key, self.shards.len()), move |state| state.im.estimate(&key))
            .unwrap_or_default()
    }

    /// Merged top-`k` flows by packets across all shards (WSAF view, the
    /// same merge the offline CLI prints). Each shard answers its own
    /// top-`k`; the answers all come from one epoch — a merge racing a
    /// rotation sees every shard's retiring state or every shard's fresh
    /// state, never a mix. Ingest never pauses.
    #[must_use]
    pub fn top_k(&self, k: usize) -> Vec<TopFlow> {
        merge_top_k(self.ask_all(move |state| shard_top_k(&state.im, k)), k)
    }

    /// Distinct flows currently resident across all WSAF shards. Served
    /// from per-batch counters, so status polls cost a few atomic loads
    /// and never reach a worker.
    #[must_use]
    pub fn flows(&self) -> u64 {
        self.shards.iter().map(|s| s.flows_resident.load(Ordering::Acquire)).sum()
    }

    /// Rotates the measurement epoch: resets every shard and bumps the
    /// epoch counter. Returns `(new_epoch, flows_retired)`. Live shards
    /// rotate at a batch boundary inside their owning worker; packets
    /// racing the rotation land entirely in the old or entirely in the
    /// new epoch of their one shard.
    pub fn rotate(&self) -> (u64, u64) {
        let outcome = self.rotate_inner(false);
        (outcome.epoch, outcome.retired)
    }

    /// Rotates the epoch and additionally returns every shard's
    /// [`EpochFeatures`] of the closed epoch — the per-shard epoch
    /// capture streaming detection consumes. Each worker absorbs its
    /// WSAF at its own rotation boundary, before the reset, so the
    /// captured shards jointly form exactly the closed epoch.
    pub fn rotate_with_snapshots(&self) -> RotateOutcome {
        self.rotate_inner(true)
    }

    fn rotate_inner(&self, want_features: bool) -> RotateOutcome {
        // Holding the phase lock until every shard has answered
        // serializes rotations (the epoch arithmetic below is race-free)
        // and keeps a drain from starting halfway through one.
        let mut phase = lock(&self.phase);
        let new_epoch = self.epoch.load(Ordering::Relaxed) + 1;
        let replies = self.post_all(&mut phase, move |state| {
            let retired = state.im.wsaf().len() as u64;
            let features = want_features.then(|| {
                let mut features = EpochFeatures::default();
                features.absorb(state.im.wsaf());
                features
            });
            state.im.reset();
            state.epoch = new_epoch;
            (retired, features)
        });
        let mut outcome = RotateOutcome { epoch: new_epoch, retired: 0, features: Vec::new() };
        for (retired, features) in answers(replies) {
            outcome.retired += retired;
            outcome.features.extend(features);
        }
        self.epoch.store(new_epoch, Ordering::Relaxed);
        drop(phase);
        self.registry.gauge("service.epoch").set(new_epoch as f64);
        outcome
    }

    /// The service registry (`service.*` metrics) merged with every
    /// shard's measurement telemetry (`regulator.*`, `wsaf.*`), each
    /// shard's read by its worker from live state.
    #[must_use]
    pub fn full_telemetry(&self) -> Snapshot {
        let mut snap = self.registry.snapshot();
        for shard in self.ask_all(|state| state.im.telemetry()) {
            snap.merge(&shard);
        }
        snap
    }

    /// Closes ingest, drains every ring and joins the workers, returning
    /// the final accounting. Idempotent and safe to race: later or
    /// concurrent calls return the first call's report. Every batch a
    /// lane successfully shipped is processed and counted — the ring
    /// close handshake resolves pushes racing the drain to exactly one
    /// side — and a lane racing the drain gets [`EngineClosed`] for
    /// anything after. The workers' final states stay in the engine,
    /// which answers every later query and rotation from them.
    pub fn drain(&self) -> DrainReport {
        let mut phase = lock(&self.phase);
        let handles = match &mut *phase {
            Phase::Drained { report, .. } => return report.clone(),
            Phase::Live(handles) => std::mem::take(handles),
        };
        self.open.store(false, Ordering::SeqCst);
        for shard in &self.shards {
            shard.draining.store(true, Ordering::SeqCst);
            wake(shard);
        }
        let exits: Vec<WorkerExit> =
            handles.into_iter().map(|h| h.join().expect("worker thread must not panic")).collect();
        let report = DrainReport {
            submitted: self.submitted.get(),
            processed: exits.iter().map(|e| e.processed).sum(),
            per_worker: exits.iter().map(|e| e.processed).collect(),
            busy_nanos: exits.iter().map(|e| e.busy_nanos).collect(),
        };
        let states = exits.into_iter().map(|e| e.state).collect();
        *phase = Phase::Drained { report: report.clone(), states };
        report
    }

    /// Drains the engine and hands over every shard's final measurement
    /// state, in shard order.
    pub(crate) fn into_shards(self) -> (DrainReport, Vec<InstaMeasure>) {
        let report = self.drain();
        let states = match &mut *lock(&self.phase) {
            Phase::Drained { states, .. } => std::mem::take(states),
            Phase::Live(_) => unreachable!("drain leaves the engine drained"),
        };
        (report, states.into_iter().map(|s| s.im).collect())
    }

    /// Test hook: make every worker dawdle `nanos` per batch (0 disarms),
    /// so tests can hold rings non-empty deterministically.
    #[doc(hidden)]
    pub fn debug_set_worker_stall(&self, nanos: u64) {
        for shard in &self.shards {
            shard.worker_stall.store(nanos, Ordering::Relaxed);
        }
    }

    /// Test hook: a full clone of shard `w`'s measurement state, taken
    /// the way queries read it (live on the worker, or from the drained
    /// state). The differential suites diff this against an offline
    /// replay of the shard's exact packet stream.
    ///
    /// # Panics
    ///
    /// Panics if the shard's worker died.
    #[doc(hidden)]
    #[must_use]
    pub fn debug_shard_measurement(&self, w: usize) -> InstaMeasure {
        self.ask(w, |state| state.im.clone()).expect("shard worker died")
    }

    /// Test hook: one merged read, returning the epoch and WSAF-resident
    /// flow count of every shard. The epoch-boundary regression test
    /// hammers this against racing rotations: the epochs must always
    /// agree, and the per-shard states must be all-retiring or all-fresh,
    /// never mixed.
    #[doc(hidden)]
    #[must_use]
    pub fn debug_consistent_view(&self) -> Vec<(u64, usize)> {
        self.ask_all(|state| (state.epoch, state.im.wsaf().len()))
    }
}

impl Drop for Engine {
    /// A dropped engine still joins its workers (via the idempotent
    /// drain), so no shard thread outlives the fabric it serves.
    fn drop(&mut self) {
        self.drain();
    }
}

impl Instrumented for Engine {
    fn telemetry(&self) -> Snapshot {
        self.full_telemetry()
    }
}

/// The owning worker: drains its lanes' rings, applies batches to its
/// private `InstaMeasure`, runs queued jobs at batch boundaries, and
/// exits only after the drain handshake has emptied and closed every
/// ring, handing back its count, its lifetime and its final state. The
/// worker builds its shard's state itself, after pinning, so the shards
/// build in parallel and each first touches its memory from its own CPU.
fn worker_loop(ctx: &WorkerCtx) -> WorkerExit {
    if let Some(cpu) = ctx.pin_cpu {
        if affinity::pin_current_thread(cpu) {
            ctx.pinned_ctr.inc();
        }
    }
    let shard = &*ctx.shard;
    let _close = CloseOnExit(shard);
    let mut state = ShardState { im: InstaMeasure::new(ctx.per_worker), epoch: 0 };
    let started = Instant::now();
    let mut lanes: Vec<LaneRings> = Vec::new();
    let mut seen_gen = 0u64;
    let mut processed = 0u64;
    let mut idle_rounds = 0u32;

    loop {
        let mut busy = false;

        // Absorb newly registered lanes; one relaxed-ish load when quiet.
        let gen = shard.reg_gen.load(Ordering::Acquire);
        if gen != seen_gen {
            lanes.extend(lock(&shard.mailbox).drain(..));
            seen_gen = gen;
            busy = true;
        }

        // Drain a bounded quantum per lane (fairness across connections),
        // then reap lanes whose producer side is gone.
        lanes.retain_mut(|lane| {
            for _ in 0..DRAIN_QUANTUM {
                match lane.fwd.pop() {
                    Some(batch) => {
                        busy = true;
                        process_one(shard, &mut state.im, &batch, &mut processed, &ctx.packets_ctr);
                        recycle(lane, batch);
                    }
                    None => break,
                }
            }
            !(lane.fwd.producer_closed() && lane.fwd.is_drained())
        });

        // Queries and rotations land at batch boundaries, in the order
        // they were posted.
        if shard.control_flag.swap(false, Ordering::AcqRel) {
            busy = true;
            let jobs = lock(&shard.control).as_mut().map(std::mem::take).unwrap_or_default();
            for job in jobs {
                job(shard, &mut state);
            }
        }

        if busy {
            idle_rounds = 0;
            continue;
        }

        if shard.draining.load(Ordering::Acquire) {
            final_sweep(shard, &mut state.im, &mut lanes, &mut processed, &ctx.packets_ctr);
            // Close the mailbox and answer what it still holds from the
            // exact end-of-stream state; later jobs find it closed and
            // run on the state this returns to the engine.
            let pending = lock(&shard.control).take().unwrap_or_default();
            for job in pending {
                job(shard, &mut state);
            }
            let busy_nanos = started.elapsed().as_nanos() as u64;
            return WorkerExit { processed, busy_nanos, state };
        }

        idle_rounds += 1;
        if idle_rounds < SPIN_ROUNDS {
            thread::yield_now();
        } else {
            park(shard);
        }
    }
}

/// Applies one batch to the worker's private state and maintains the
/// shard's occupancy counter.
fn process_one(
    shard: &Shard,
    im: &mut InstaMeasure,
    batch: &[PacketRecord],
    processed: &mut u64,
    packets_ctr: &Counter<AtomicCell>,
) {
    let stall = shard.worker_stall.load(Ordering::Relaxed);
    if stall > 0 {
        thread::sleep(Duration::from_nanos(stall));
    }
    if batch.is_empty() {
        return;
    }
    im.process_batch(batch);
    *processed += batch.len() as u64;
    packets_ctr.add(batch.len() as u64);
    shard.flows_resident.store(im.wsaf().len() as u64, Ordering::Release);
}

/// Hands a drained buffer back through the return ring; if the lane is
/// gone or the ring full, the allocation just drops.
fn recycle(lane: &mut LaneRings, mut batch: Vec<PacketRecord>) {
    batch.clear();
    let _ = lane.ret.push(batch);
}

/// Shutdown sweep: latch registration closed, then empty and close every
/// ring through the handshake in [`crate::ring`]. After this returns, no
/// packet is in flight for this shard anywhere.
fn final_sweep(
    shard: &Shard,
    im: &mut InstaMeasure,
    lanes: &mut Vec<LaneRings>,
    processed: &mut u64,
    packets_ctr: &Counter<AtomicCell>,
) {
    let stragglers: Vec<LaneRings> = {
        let mut mb = lock(&shard.mailbox);
        // Under the mailbox lock: every racing `Engine::lane()` either
        // registered before this (absorbed below) or observes the latch
        // and aborts. Registration is therefore finished for good.
        shard.reg_closed.store(true, Ordering::SeqCst);
        mb.drain(..).collect()
    };
    lanes.extend(stragglers);
    for lane in lanes.iter_mut() {
        while let Some(batch) = lane.fwd.pop() {
            process_one(shard, im, &batch, processed, packets_ctr);
            recycle(lane, batch);
        }
        lane.fwd.close();
        // The close bound admits at most the one racing push; drain it.
        while let Some(batch) = lane.fwd.pop() {
            process_one(shard, im, &batch, processed, packets_ctr);
            recycle(lane, batch);
        }
    }
    lanes.clear();
}

/// Parks the worker until a producer, control request or timeout wakes
/// it. The `parked` flag keeps producers off the mutex while the worker
/// runs; the timeout turns any lost wakeup into bounded latency.
fn park(shard: &Shard) {
    shard.parked.store(true, Ordering::SeqCst);
    {
        let mut pending = lock(&shard.wake);
        if !*pending {
            let (guard, _timeout) = shard
                .wake_cv
                .wait_timeout(pending, PARK_TIMEOUT)
                .unwrap_or_else(PoisonError::into_inner);
            pending = guard;
        }
        *pending = false;
    }
    shard.parked.store(false, Ordering::SeqCst);
}

/// One connection's private ingest path: per-shard batch buffers plus the
/// producing ends of the per-shard ring pairs. Dropping a lane flushes
/// its partial batches, so every decoded record is delivered exactly once
/// (or, on a shedding lane, shed and counted) even when the connection
/// dies mid-stream.
pub struct IngestLane {
    ports: Vec<LanePort>,
    shards: Vec<Arc<Shard>>,
    open: Arc<AtomicBool>,
    pending: Vec<Vec<PacketRecord>>,
    batch_size: usize,
    accepted: u64,
    /// Drop batches at a full ring instead of stalling.
    shedding: bool,
    /// Packets shed per shard (all zero on a blocking lane).
    shed: Vec<u64>,
    submitted_ctr: Counter<AtomicCell>,
    batches_ctr: Counter<AtomicCell>,
    batch_fill: Histogram<AtomicCell>,
    ring_occupancy: Histogram<AtomicCell>,
    ring_stalls: Counter<AtomicCell>,
    rejected_ctr: Counter<AtomicCell>,
}

impl IngestLane {
    /// Routes a decoded batch into the per-shard buffers, shipping every
    /// buffer that fills. When a shard ring is full, a blocking lane spins
    /// (with yields) — that is the backpressure propagating to the socket
    /// — and a shedding lane drops the batch.
    ///
    /// # Errors
    ///
    /// Returns [`EngineClosed`] if the engine drained underneath the
    /// lane; records of the failed call are not counted as accepted.
    pub fn submit(&mut self, records: &[PacketRecord]) -> Result<(), EngineClosed> {
        self.submit_iter(records.iter().copied())
    }

    /// [`IngestLane::submit`] for records produced on the fly: the
    /// server decodes an ingest frame's records from its socket buffer
    /// straight into the per-shard buffers, with no intermediate batch.
    ///
    /// # Errors
    ///
    /// The errors of [`IngestLane::submit`].
    pub fn submit_iter(
        &mut self,
        records: impl IntoIterator<Item = PacketRecord>,
    ) -> Result<(), EngineClosed> {
        let workers = self.ports.len();
        let mut n = 0u64;
        for pkt in records {
            let w = worker_for(&pkt.key, workers);
            self.pending[w].push(pkt);
            n += 1;
            if self.pending[w].len() == self.batch_size {
                self.ship(w)?;
            }
        }
        self.accepted += n;
        Ok(())
    }

    /// Ships every non-empty partial buffer (end-of-stream flush).
    ///
    /// # Errors
    ///
    /// Returns [`EngineClosed`] if the engine drained underneath the lane.
    pub fn flush(&mut self) -> Result<(), EngineClosed> {
        for w in 0..self.ports.len() {
            if !self.pending[w].is_empty() {
                self.ship(w)?;
            }
        }
        Ok(())
    }

    /// Packets accepted on this lane so far (what the fin-ack reports),
    /// shed packets included.
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Packets this lane shed at full rings, per shard.
    #[must_use]
    pub(crate) fn shed(&self) -> &[u64] {
        &self.shed
    }

    /// Batches waiting in this lane's shard rings (racy by nature).
    #[must_use]
    pub(crate) fn queued_batches(&self) -> usize {
        self.ports.iter().map(|p| p.fwd.len()).sum()
    }

    fn ship(&mut self, w: usize) -> Result<(), EngineClosed> {
        if !self.open.load(Ordering::SeqCst) {
            // Fail fast while draining; the records of this batch are
            // rejected (counted, never half-processed).
            let n = self.pending[w].len() as u64;
            self.pending[w].clear();
            self.rejected_ctr.add(n);
            return Err(EngineClosed);
        }
        let full = std::mem::take(&mut self.pending[w]);
        let n = full.len() as u64;
        let mut item = full;
        let mut stalls = 0u32;
        loop {
            match self.ports[w].fwd.push(item) {
                Ok(()) => {
                    self.submitted_ctr.add(n);
                    self.batches_ctr.inc();
                    self.batch_fill.observe(n);
                    self.ring_occupancy.observe(self.ports[w].fwd.len() as u64);
                    wake(&self.shards[w]);
                    // Reuse a drained buffer if one came back.
                    self.pending[w] = self.ports[w]
                        .ret
                        .pop()
                        .unwrap_or_else(|| Vec::with_capacity(self.batch_size));
                    return Ok(());
                }
                Err(PushError::Full(mut back)) if self.shedding => {
                    back.clear();
                    self.pending[w] = back;
                    self.shed[w] += n;
                    return Ok(());
                }
                Err(PushError::Full(back)) => {
                    if stalls == 0 {
                        self.ring_stalls.inc();
                    }
                    stalls += 1;
                    wake(&self.shards[w]);
                    if stalls < SPIN_ROUNDS {
                        thread::yield_now();
                    } else {
                        thread::sleep(STALL_SLEEP);
                    }
                    item = back;
                }
                Err(PushError::Closed(back)) => {
                    // Engine drained mid-push. Either the buffer came
                    // back (never entered the ring) or it is orphaned
                    // past the close bound; both mean "not processed".
                    let mut buf = back.unwrap_or_default();
                    buf.clear();
                    self.pending[w] = buf;
                    self.rejected_ctr.add(n);
                    return Err(EngineClosed);
                }
            }
        }
    }
}

impl Drop for IngestLane {
    /// Flush-on-drop: an abruptly closed connection still delivers every
    /// record that was decoded from complete frames. Dropping the ports
    /// marks the rings producer-closed, so the worker reaps them.
    fn drop(&mut self) {
        let _ = self.flush();
        for shard in &self.shards {
            wake(shard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instameasure_packet::Protocol;

    fn key(i: u32) -> FlowKey {
        FlowKey::new(i.to_be_bytes(), [9, 9, 9, 9], 40000, 443, Protocol::Tcp)
    }

    fn records(n: u64, flows: u32) -> Vec<PacketRecord> {
        (0..n).map(|t| PacketRecord::new(key(t as u32 % flows), 100, t)).collect()
    }

    fn test_engine(workers: usize) -> Engine {
        let cfg = EngineConfig {
            workers,
            batch_size: 64,
            queue_batches: 4,
            pin: false,
            per_worker: InstaMeasureConfig::default().small_for_tests(),
        };
        Engine::start(&cfg, Arc::new(SharedRegistry::new()))
    }

    #[test]
    fn submit_flush_drain_accounts_for_every_packet() {
        let engine = test_engine(3);
        let mut lane = engine.lane().unwrap();
        lane.submit(&records(10_007, 91)).unwrap();
        lane.flush().unwrap();
        assert_eq!(lane.accepted(), 10_007);
        drop(lane);
        let report = engine.drain();
        assert_eq!(report.submitted, 10_007);
        assert_eq!(report.processed, 10_007);
        assert_eq!(report.per_worker.iter().sum::<u64>(), 10_007);
    }

    #[test]
    fn dropped_lane_flushes_partials() {
        let engine = test_engine(2);
        let mut lane = engine.lane().unwrap();
        // 10 packets with batch_size 64: nothing ships until the drop.
        lane.submit(&records(10, 10)).unwrap();
        drop(lane);
        let report = engine.drain();
        assert_eq!(report.processed, 10);
    }

    #[test]
    fn estimates_match_offline_single_core_when_one_worker() {
        let recs = records(30_000, 50);
        let engine = test_engine(1);
        let mut lane = engine.lane().unwrap();
        lane.submit(&recs).unwrap();
        drop(lane);
        engine.drain();

        let mut offline = InstaMeasure::new(InstaMeasureConfig::default().small_for_tests());
        for r in &recs {
            offline.process(r);
        }
        for i in 0..50 {
            let (pkts, _) = engine.estimate(&key(i));
            let want = offline.estimate_packets(&key(i));
            assert!((pkts - want).abs() < 1e-12, "flow {i}: {pkts} vs {want}");
        }
    }

    #[test]
    fn top_k_merges_across_shards() {
        let engine = test_engine(4);
        let mut lane = engine.lane().unwrap();
        // Eight heavy flows of strictly decreasing size; all are large
        // enough to saturate the regulator and land in the WSAF, and
        // popcount sharding spreads them over several shards.
        let mut recs = Vec::new();
        let mut t = 0u64;
        for i in 0..8u32 {
            for _ in 0..(40_000 - 4_000 * u64::from(i)) {
                recs.push(PacketRecord::new(key(i + 1), 700, t));
                t += 1;
            }
        }
        lane.submit(&recs).unwrap();
        drop(lane);
        engine.drain();
        let top = engine.top_k(5);
        assert_eq!(top.len(), 5, "all heavy flows must be WSAF-resident");
        assert_eq!(top[0].key, key(1));
        assert!(top[0].packets > top[1].packets);
        for w in top.windows(2) {
            assert!(w[0].packets >= w[1].packets, "top-k must be sorted");
        }
    }

    #[test]
    fn queries_work_while_ingest_runs() {
        let engine = Arc::new(test_engine(2));
        let e2 = Arc::clone(&engine);
        let pusher = thread::spawn(move || {
            let mut lane = e2.lane().unwrap();
            for chunk in records(200_000, 128).chunks(1000) {
                lane.submit(chunk).unwrap();
            }
            lane.flush().unwrap();
        });
        // Interleave queries with the live ingest.
        for _ in 0..50 {
            let _ = engine.top_k(5);
            let _ = engine.estimate(&key(3));
            let _ = engine.flows();
        }
        pusher.join().unwrap();
        let report = engine.drain();
        assert_eq!(report.submitted, 200_000);
        assert_eq!(report.processed, 200_000);
    }

    #[test]
    fn rotate_resets_shards_and_bumps_epoch() {
        let engine = test_engine(2);
        let mut lane = engine.lane().unwrap();
        lane.submit(&records(50_000, 40)).unwrap();
        lane.flush().unwrap();
        drop(lane);
        engine.drain();
        let resident = engine.flows();
        assert!(resident > 0, "elephants must be resident before rotate");
        let (epoch, retired) = engine.rotate();
        assert_eq!(epoch, 1);
        assert_eq!(retired, resident);
        assert_eq!(engine.flows(), 0);
        let (pkts, bytes) = engine.estimate(&key(1));
        assert_eq!((pkts, bytes), (0.0, 0.0));
    }

    #[test]
    fn rotate_while_live_resets_at_batch_boundary() {
        let engine = test_engine(2);
        let mut lane = engine.lane().unwrap();
        lane.submit(&records(50_000, 40)).unwrap();
        lane.flush().unwrap();
        // Quiesce (processed == submitted) without draining.
        while engine.packets_processed() < 50_000 {
            thread::yield_now();
        }
        assert!(engine.flows() > 0);
        let (epoch, retired) = engine.rotate();
        assert_eq!(epoch, 1);
        assert!(retired > 0, "live rotate must retire resident flows");
        assert_eq!(engine.flows(), 0);
        // The engine is still ingesting after a live rotate.
        lane.submit(&records(1_000, 8)).unwrap();
        lane.flush().unwrap();
        drop(lane);
        let report = engine.drain();
        assert_eq!(report.submitted, 51_000);
        assert_eq!(report.processed, 51_000);
    }

    #[test]
    fn rotate_with_snapshots_captures_the_complete_closed_epoch() {
        let engine = test_engine(2);
        let mut lane = engine.lane().unwrap();
        lane.submit(&records(50_000, 40)).unwrap();
        lane.flush().unwrap();
        while engine.packets_processed() < 50_000 {
            thread::yield_now();
        }
        let resident = engine.flows();
        assert!(resident > 0, "elephants must be resident before rotate");
        let outcome = engine.rotate_with_snapshots();
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.features.len(), 2, "one capture per shard");
        let captured: u64 = outcome.features.iter().map(|f| f.flows() as u64).sum();
        assert_eq!(captured, resident, "captures hold the complete retiring epoch");
        assert_eq!(outcome.retired, resident);
        assert_eq!(engine.flows(), 0, "live state was reset");
        drop(lane);
        engine.drain();
        // The drained path (the engine holds the final states) captures too.
        let outcome = engine.rotate_with_snapshots();
        assert_eq!(outcome.epoch, 2);
        assert_eq!(outcome.features.len(), 2);
        assert_eq!(outcome.retired, 0, "nothing resident after the first rotate");
    }

    #[test]
    fn hot_path_telemetry_is_surfaced() {
        let engine = test_engine(2);
        let mut lane = engine.lane().unwrap();
        lane.submit(&records(1_000, 16)).unwrap();
        lane.flush().unwrap();
        drop(lane);
        engine.drain();
        let snap = engine.full_telemetry();
        let fill = snap.histogram("ingest.batch_fill").unwrap();
        assert_eq!(fill.sum, 1_000, "every shipped packet lands in one fill bucket");
        assert_eq!(fill.count, snap.counter("service.ingest.batches").unwrap());
        let occupancy = snap.histogram("service.ring.occupancy").unwrap();
        assert_eq!(occupancy.count, fill.count, "every ship observes ring occupancy");
        let expected = if instameasure_packet::prefetch::prefetch_enabled() { 1.0 } else { 0.0 };
        assert_eq!(snap.gauge("hotpath.prefetch_enabled"), Some(expected));
        assert_eq!(
            snap.gauge("hotpath.prefetch_distance"),
            Some(instameasure_packet::prefetch::prefetch_distance() as f64)
        );
        let expected_simd = if instameasure_packet::simd::simd_enabled() { 1.0 } else { 0.0 };
        assert_eq!(snap.gauge("hotpath.simd_enabled"), Some(expected_simd));
        for feature in instameasure_packet::simd::cpu_features() {
            assert_eq!(snap.gauge(&format!("hotpath.cpu.{feature}")), Some(1.0));
        }
    }

    #[test]
    fn drain_closes_ingest_and_is_idempotent() {
        let engine = test_engine(2);
        let mut lane = engine.lane().unwrap();
        lane.submit(&records(100, 7)).unwrap();
        drop(lane);
        let a = engine.drain();
        let b = engine.drain();
        assert_eq!(a, b);
        assert!(engine.lane().is_none(), "no lanes after drain");
    }

    #[test]
    fn double_shutdown_with_nonempty_rings_drains_packet_exactly() {
        let engine = Arc::new(test_engine(2));
        // Dawdle per batch so rings are still populated when the drain
        // lands mid-stream.
        engine.debug_set_worker_stall(200_000);
        let mut lane = engine.lane().unwrap();
        lane.submit(&records(20_000, 64)).unwrap();
        lane.flush().unwrap();
        drop(lane);
        // Two concurrent shutdowns must agree on one packet-exact report.
        let e2 = Arc::clone(&engine);
        let racer = thread::spawn(move || e2.drain());
        let a = engine.drain();
        let b = racer.join().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.submitted, 20_000);
        assert_eq!(a.processed, 20_000, "nonempty rings must drain before workers exit");
        // Nothing the lane shipped was silently dropped.
        let snap = engine.full_telemetry();
        assert_eq!(snap.counter("service.ingest.rejected_packets").unwrap_or(0), 0);
        // A third shutdown still returns the same report.
        assert_eq!(engine.drain(), a);
    }

    #[test]
    fn shedding_lane_drops_whole_batches_and_counts_them_per_shard() {
        let engine = test_engine(2);
        // Dawdle 1 ms per batch: the lane ships hundreds of batches in far
        // less time, so the 4-batch rings fill and stay full.
        engine.debug_set_worker_stall(1_000_000);
        let offered_per_shard = |recs: &[PacketRecord]| {
            let mut offered = [0u64; 2];
            for r in recs {
                offered[worker_for(&r.key, 2)] += 1;
            }
            offered
        };
        let shed_recs = records(20_000, 64);
        let mut shedding = engine.shedding_lane().unwrap();
        shedding.submit(&shed_recs).unwrap();
        shedding.flush().unwrap();
        let shed = shedding.shed().to_vec();
        let shed_accepted = shedding.accepted();
        drop(shedding);
        let shed_total: u64 = shed.iter().sum();
        assert!(shed_total > 0, "full rings must make the lane shed");
        assert_eq!(shed_total, shed_accepted - engine.packets_submitted());

        // A blocking lane on the same stalled engine waits instead.
        let block_recs = records(1_000, 16);
        let mut blocking = engine.lane().unwrap();
        blocking.submit(&block_recs).unwrap();
        blocking.flush().unwrap();
        assert_eq!(blocking.shed(), &[0, 0], "a blocking lane never sheds");
        drop(blocking);

        engine.debug_set_worker_stall(0);
        let report = engine.drain();
        assert_eq!(report.processed, report.submitted);
        assert_eq!(report.submitted + shed_total, shed_accepted + 1_000);
        let (a, b) = (offered_per_shard(&shed_recs), offered_per_shard(&block_recs));
        for w in 0..2 {
            assert_eq!(report.per_worker[w] + shed[w], a[w] + b[w], "shard {w}");
            // Whole batches shed: full ones, plus at most the flushed tail.
            assert!(
                shed[w].is_multiple_of(64) || shed[w] % 64 == a[w] % 64,
                "shard {w}: {}",
                shed[w]
            );
        }
    }

    #[test]
    fn submit_after_drain_is_classified_and_counted() {
        let engine = test_engine(1);
        let mut lane = engine.lane().unwrap();
        engine.drain();
        let err = lane.submit(&records(256, 1)).unwrap_err();
        assert_eq!(err, EngineClosed);
        // The rejected batch shows up in telemetry, not in thin air.
        let snap = engine.full_telemetry();
        assert!(snap.counter("service.ingest.rejected_packets").unwrap_or(0) > 0);
        assert_eq!(engine.packets_submitted(), engine.packets_processed());
    }
}
