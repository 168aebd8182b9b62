//! Streaming anomaly detection wired into the live engine.
//!
//! At every epoch rotation each shard's worker absorbs its complete
//! closed epoch into an [`EpochFeatures`] summary just before its reset
//! ([`crate::engine::Engine::rotate_with_snapshots`]). This module turns
//! those captures into verdicts and pushes them to the network:
//!
//! * [`DetectionRuntime`] merges the per-shard summaries into one, keeps
//!   the previous epoch's summary as the comparison window, and runs the
//!   [`instameasure_core::detect::DetectorSuite`] over the pair. The
//!   shard merge is exact — the popcount dispatch keys all flows of a
//!   source to one shard, so per-shard features partition the epoch and
//!   their union is bit-identical to a single-shard run (the
//!   `prop_detect` battery pins this).
//! * [`AlertHub`] is the subscriber registry: connections that sent
//!   [`crate::wire::Request::Subscribe`] register their write half here
//!   and receive unsolicited [`crate::wire::Response::Alert`] frames.
//!   The write half is the *same* mutex-guarded stream the connection
//!   handler replies on, so alert frames and reply frames serialize at
//!   frame granularity and never interleave mid-frame.
//!
//! The paper's claim under test is the ~10 ms detection budget: the
//! `detect.alert_latency` histogram records rotation-start to
//! alerts-on-the-wire nanoseconds for every alert-producing epoch, and
//! `tests/anomaly_e2e.rs` gates the client-observed onset→alert time.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use instameasure_core::detect::{
    Anomaly, DetectorConfig, DetectorSuite, EpochFeatures, ALL_ANOMALY_KINDS,
};
use instameasure_telemetry::{AtomicCell, Counter, Gauge, Histogram, SharedRegistry};

use crate::engine::{Engine, RotateOutcome};
use crate::tune::TuneRuntime;
use crate::wire::{write_frame, Response, SUBSCRIBE_MASK_ALL};

/// How long one alert write may block on a slow subscriber before the
/// subscriber is reaped. Keeps a stalled `watch` client from delaying
/// every other subscriber past the detection budget.
const ALERT_WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Configuration of the streaming detection layer.
#[derive(Debug, Clone, Default)]
pub struct DetectionConfig {
    /// When set, a dedicated `im-detect` thread rotates the engine and
    /// evaluates detectors every `interval` — the paper's epoch clock.
    /// When `None`, epochs close only on protocol
    /// [`crate::wire::Request::Rotate`] frames (the mode the e2e battery
    /// uses to time onset→alert precisely).
    pub interval: Option<Duration>,
    /// Detector thresholds, forwarded to
    /// [`instameasure_core::detect::DetectorSuite::standard`].
    pub detectors: DetectorConfig,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One registered alert consumer: the connection's shared write half
/// plus its subscription mask.
struct Subscriber {
    id: u64,
    kinds: u8,
    writer: Arc<Mutex<TcpStream>>,
}

/// Registry of live alert subscribers.
///
/// Broadcast is best effort per subscriber: a write failure (or a write
/// that would block past [`ALERT_WRITE_TIMEOUT`]) reaps that subscriber
/// without disturbing the others; the connection itself stays open and
/// its reply lane keeps working.
pub struct AlertHub {
    subs: Mutex<Vec<Subscriber>>,
    next_id: AtomicU64,
    subscribers_gauge: Gauge<AtomicCell>,
}

impl AlertHub {
    fn new(registry: &SharedRegistry) -> Self {
        AlertHub {
            subs: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            subscribers_gauge: registry.gauge("detect.subscribers"),
        }
    }

    /// Registers a connection's write half for the anomaly kinds in
    /// `kinds` (a mask of [`instameasure_core::detect::AnomalyKind::bit`]
    /// values; `0` means all). Returns the subscription id for
    /// [`AlertHub::unsubscribe`].
    pub fn subscribe(&self, writer: Arc<Mutex<TcpStream>>, kinds: u8) -> u64 {
        let kinds = if kinds == 0 { SUBSCRIBE_MASK_ALL } else { kinds & SUBSCRIBE_MASK_ALL };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut subs = lock(&self.subs);
        subs.push(Subscriber { id, kinds, writer });
        self.subscribers_gauge.set(subs.len() as f64);
        id
    }

    /// Drops one subscription (connection closed or re-subscribed).
    pub fn unsubscribe(&self, id: u64) {
        let mut subs = lock(&self.subs);
        subs.retain(|s| s.id != id);
        self.subscribers_gauge.set(subs.len() as f64);
    }

    /// Current subscriber count.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        lock(&self.subs).len()
    }

    /// Pushes every matching alert to every subscriber, reaping the
    /// ones whose sockets fail. Returns the number of alert frames that
    /// made it onto the wire.
    fn broadcast(&self, epoch: u64, alerts: &[Anomaly]) -> u64 {
        if alerts.is_empty() {
            return 0;
        }
        let mut sent = 0u64;
        let mut subs = lock(&self.subs);
        subs.retain(|sub| {
            let wanted: Vec<&Anomaly> =
                alerts.iter().filter(|a| sub.kinds & a.kind.bit() != 0).collect();
            if wanted.is_empty() {
                return true;
            }
            let mut stream = lock(&sub.writer);
            let _ = stream.set_write_timeout(Some(ALERT_WRITE_TIMEOUT));
            for anomaly in wanted {
                let frame = Response::Alert { epoch, anomaly: *anomaly }.encode();
                if write_frame(&mut *stream, frame.opcode, &frame.payload).is_err() {
                    return false;
                }
                sent += 1;
            }
            use std::io::Write as _;
            stream.flush().is_ok()
        });
        self.subscribers_gauge.set(subs.len() as f64);
        sent
    }
}

impl core::fmt::Debug for AlertHub {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AlertHub").field("subscribers", &self.subscriber_count()).finish()
    }
}

/// What one [`DetectionRuntime::run_epoch`] call produced.
#[derive(Debug, Clone)]
pub struct EpochVerdict {
    /// The epoch the engine advanced *to* (the closed epoch is one
    /// less).
    pub epoch: u64,
    /// Flows retired from the WSAF shards by the rotation.
    pub retired: u64,
    /// The suite's verdicts over the closed epoch, severity-sorted per
    /// kind.
    pub alerts: Vec<Anomaly>,
}

/// The per-server detection state machine: rotate → absorb → evaluate →
/// broadcast, serialized so concurrent rotate requests cannot tear the
/// previous-epoch window.
pub struct DetectionRuntime {
    engine: Arc<Engine>,
    suite: DetectorSuite,
    hub: AlertHub,
    /// `(closed_epoch, features)` of the newest completed epoch; the
    /// comparison window for the next one. The mutex also serializes
    /// whole `run_epoch` calls.
    prev: Mutex<Option<(u64, EpochFeatures)>>,
    /// When armed (`serve --auto-tune`), every closed epoch's observed
    /// flow sizes are re-solved against the operator's tuning target.
    tuner: Option<Arc<TuneRuntime>>,
    epochs_ctr: Counter<AtomicCell>,
    alerts_ctr: Counter<AtomicCell>,
    alert_kind_ctrs: Vec<Counter<AtomicCell>>,
    alert_latency: Histogram<AtomicCell>,
}

impl DetectionRuntime {
    /// Builds the runtime over a running engine, registering the
    /// `detect.*` instruments.
    #[must_use]
    pub fn new(engine: Arc<Engine>, cfg: DetectorConfig, registry: &SharedRegistry) -> Self {
        DetectionRuntime {
            engine,
            suite: DetectorSuite::standard(cfg),
            hub: AlertHub::new(registry),
            prev: Mutex::new(None),
            tuner: None,
            epochs_ctr: registry.counter("detect.epochs"),
            alerts_ctr: registry.counter("detect.alerts"),
            alert_kind_ctrs: ALL_ANOMALY_KINDS
                .iter()
                .map(|k| registry.counter(&format!("detect.alerts.{}", k.label())))
                .collect(),
            alert_latency: registry.histogram("detect.alert_latency"),
        }
    }

    /// Arms the epoch re-tuner: after each rotation the closed epoch's
    /// observed flow sizes are fed to [`TuneRuntime::retune`], keeping
    /// the served plan and the `tune.*` gauges tracking live traffic.
    #[must_use]
    pub fn with_tuner(mut self, tuner: Arc<TuneRuntime>) -> Self {
        self.tuner = Some(tuner);
        self
    }

    /// The subscriber registry (the server hands connections here).
    #[must_use]
    pub fn hub(&self) -> &AlertHub {
        &self.hub
    }

    /// The thresholds in force.
    #[must_use]
    pub fn detector_config(&self) -> &DetectorConfig {
        self.suite.config()
    }

    /// Closes the current epoch and evaluates it: rotates the engine
    /// with per-shard feature capture, merges the shard features,
    /// runs every detector against the previous epoch's features, and
    /// pushes matching [`crate::wire::Response::Alert`] frames to the
    /// subscribers **before** returning — the caller's reply (e.g. the
    /// `Rotated` ack) therefore lands after the alerts it caused.
    ///
    /// Calls are serialized; the rotation-start→alerts-written time of
    /// every alert-producing epoch lands in `detect.alert_latency`.
    pub fn run_epoch(&self) -> EpochVerdict {
        let mut prev = lock(&self.prev);
        let start = Instant::now();
        let RotateOutcome { epoch, retired, features } = self.engine.rotate_with_snapshots();
        let closed_epoch = epoch.saturating_sub(1);

        let mut shards = features.into_iter();
        let mut cur = shards.next().unwrap_or_default();
        for shard in shards {
            cur.merge(&shard);
        }
        let prev_features = prev.as_ref().map(|(_, f)| f);
        let alerts = self.suite.evaluate(closed_epoch, prev_features, &cur);

        self.epochs_ctr.inc();
        for a in &alerts {
            self.alerts_ctr.inc();
            self.alert_kind_ctrs[a.kind.code() as usize].inc();
        }
        let _sent = self.hub.broadcast(closed_epoch, &alerts);
        if !alerts.is_empty() {
            self.alert_latency.observe(start.elapsed().as_nanos() as u64);
        }

        // Re-solve the tuning target from what this epoch actually
        // carried — after the alerts are on the wire, so the solver
        // (milliseconds) never eats into the detection budget.
        if let Some(tuner) = &self.tuner {
            let _ = tuner.retune(&cur.flow_sizes());
        }

        *prev = Some((closed_epoch, cur));
        EpochVerdict { epoch, retired, alerts }
    }
}

impl core::fmt::Debug for DetectionRuntime {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DetectionRuntime")
            .field("suite", &self.suite)
            .field("hub", &self.hub)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use instameasure_core::detect::AnomalyKind;
    use instameasure_core::InstaMeasureConfig;
    use instameasure_packet::{FlowKey, PacketRecord, Protocol};

    fn start_engine(workers: usize) -> (Arc<Engine>, Arc<SharedRegistry>) {
        let registry = Arc::new(SharedRegistry::new());
        let cfg = EngineConfig {
            workers,
            batch_size: 64,
            queue_batches: 8,
            pin: false,
            per_worker: InstaMeasureConfig::default().small_for_tests(),
        };
        (Arc::new(Engine::start(&cfg, Arc::clone(&registry))), registry)
    }

    fn push_scan(engine: &Arc<Engine>, dsts: u16) {
        let mut records = Vec::new();
        for d in 0..dsts {
            let key = FlowKey::new(
                [66, 6, 6, 6],
                [10, 1, (d >> 8) as u8, d as u8],
                4000,
                80,
                Protocol::Tcp,
            );
            records.extend((0..300u64).map(|t| PacketRecord::new(key, 60, t)));
        }
        let mut lane = engine.lane().expect("engine is live");
        for chunk in records.chunks(997) {
            lane.submit(chunk).unwrap();
        }
        lane.flush().unwrap();
    }

    #[test]
    fn run_epoch_detects_a_scan_and_advances_the_window() {
        let (engine, registry) = start_engine(2);
        let runtime = DetectionRuntime::new(
            Arc::clone(&engine),
            DetectorConfig::default(),
            registry.as_ref(),
        );

        push_scan(&engine, 200);
        engine.drain();
        let verdict = runtime.run_epoch();
        assert_eq!(verdict.epoch, 1);
        assert!(
            verdict.alerts.iter().any(|a| a.kind == AnomalyKind::SuperSpreader),
            "a 200-destination scan must trip the spreader detector: {:?}",
            verdict.alerts
        );

        // Nothing in the next epoch: the scan vanishing is a heavy
        // change against the stored window, but no spreader remains.
        let verdict = runtime.run_epoch();
        assert_eq!(verdict.epoch, 2);
        assert!(
            !verdict.alerts.iter().any(|a| a.kind == AnomalyKind::SuperSpreader),
            "an empty epoch has no spreader: {:?}",
            verdict.alerts
        );

        let snap = registry.snapshot();
        assert_eq!(snap.counter("detect.epochs"), Some(2));
        assert!(snap.counter("detect.alerts").unwrap() >= 1);
        assert!(snap.counter("detect.alerts.super_spreader").unwrap() >= 1);
        assert!(snap.histogram("detect.alert_latency").is_some());
    }

    #[test]
    fn hub_masks_and_unsubscribe_update_the_gauge() {
        let registry = SharedRegistry::new();
        let hub = AlertHub::new(&registry);
        // A dead socket stands in for a writer; broadcast reaps it.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let id = hub.subscribe(Arc::new(Mutex::new(stream)), 0);
        assert_eq!(hub.subscriber_count(), 1);
        assert_eq!(registry.snapshot().gauge("detect.subscribers"), Some(1.0));
        hub.unsubscribe(id);
        assert_eq!(hub.subscriber_count(), 0);
        assert_eq!(registry.snapshot().gauge("detect.subscribers"), Some(0.0));
    }
}
