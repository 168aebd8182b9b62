//! The network-facing daemon: accept loop, per-connection protocol
//! handlers, and the shutdown/drain choreography.
//!
//! One listener accepts TCP connections; each gets its own handler
//! thread. A connection may mix ingest and query frames freely — taps
//! stream [`crate::wire::Request::IngestBatch`] frames, operators open a
//! second connection for queries, and neither blocks the other: ingest
//! backpressure is per-connection (bounded worker queues block that
//! lane's socket only), and queries read shards one at a time.
//!
//! Robustness rules, each of which the adversarial test suite exercises:
//!
//! * every malformed frame (bad magic, unknown opcode, oversized length
//!   prefix, truncated stream, mismatched payload) yields one classified
//!   error reply where possible, a `service.rejects.<class>` count, and a
//!   closed connection — never a panic;
//! * a peer that goes silent is cut off by the read timeout
//!   ([`ServiceConfig::read_timeout`]) so dead taps cannot pin
//!   connections forever;
//! * a connection that dies mid-batch loses only the frame that did not
//!   arrive completely — decoded records are flushed to the pipeline by
//!   the lane's drop;
//! * [`crate::wire::Request::Shutdown`] stops the accept loop, waits for
//!   peer connections to finish (bounded by
//!   [`ServiceConfig::drain_grace`]), drains the engine, and only then
//!   acks with the final packet-exact [`StatusReport`].
//!
//! No daemon wait polls. The accept thread blocks in `accept`.
//! Stopping (the `Shutdown` frame or [`Server::request_stop`]) wakes each
//! wait with its own event: the accept thread with one loopback connect
//! to the bound port, each connection reader by shutting its socket's
//! read side (the reader sees end of stream, answers `draining` and
//! closes), and the shutdown grace, [`Server::join`] and the epoch clock
//! through one condition variable over the live connections, which every
//! connection close also signals. Each of those three waits has a
//! deadline: the drain grace for the first two, the next epoch for the
//! clock.

use std::io::{BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use instameasure_core::multicore::MAX_BATCH_SIZE;
use instameasure_core::InstaMeasureConfig;
use instameasure_telemetry::{AtomicCell, Counter, Histogram, SharedRegistry};

use crate::detect::{DetectionConfig, DetectionRuntime};
use crate::engine::{Engine, EngineConfig, IngestLane};
use crate::tune::{TuneRuntime, TuneState};
use crate::wire::{
    decode_ingest_payload, frame_wire_len, read_frame_into, write_frame, Opcode, Request, Response,
    StatusReport, WireError, DEFAULT_MAX_PAYLOAD, SUBSCRIBE_MASK_ALL,
};
use instameasure_packet::PacketRecord;

/// Configuration of the daemon. Build via [`ServiceConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral loopback port;
    /// read the bound address back from [`Server::local_addr`]).
    pub addr: String,
    /// Worker shard count.
    pub workers: usize,
    /// Packets per dispatch batch into the worker queues.
    pub batch_size: usize,
    /// Per-worker queue capacity in whole batches.
    pub queue_batches: usize,
    /// Pin each shard worker to a CPU (`serve --pin`); best effort.
    pub pin: bool,
    /// Per-shard measurement configuration.
    pub per_worker: InstaMeasureConfig,
    /// Ceiling on one frame's payload; larger length prefixes are
    /// rejected before allocation.
    pub max_frame_bytes: u32,
    /// Idle cutoff: a connection with no complete frame for this long is
    /// closed (`service.timeouts` counts them).
    pub read_timeout: Duration,
    /// Maximum simultaneous connections; excess accepts are refused with
    /// a classified error frame.
    pub max_connections: usize,
    /// How long a shutdown waits for other connections to finish before
    /// draining anyway.
    pub drain_grace: Duration,
    /// Streaming anomaly detection (`None` disables it; `Subscribe`
    /// frames are then rejected as `unsupported`).
    pub detect: Option<DetectionConfig>,
    /// Auto-tuning state from a pre-boot solve (`serve --auto-tune`).
    /// `None` rejects [`Request::QueryPlan`] as `unsupported`.
    pub tune: Option<TuneState>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            batch_size: 256,
            queue_batches: 16,
            pin: false,
            per_worker: InstaMeasureConfig::default(),
            max_frame_bytes: DEFAULT_MAX_PAYLOAD,
            read_timeout: Duration::from_secs(30),
            max_connections: 64,
            drain_grace: Duration::from_secs(5),
            detect: None,
            tune: None,
        }
    }
}

/// Rejected [`ServiceConfigBuilder`] parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServiceConfigError {
    /// `workers` was zero.
    NoWorkers,
    /// `batch_size` was zero or above [`MAX_BATCH_SIZE`].
    BatchSize {
        /// The rejected value.
        got: usize,
    },
    /// `queue_batches` was zero.
    ZeroQueueBatches,
    /// `max_frame_bytes` cannot hold even a one-record ingest frame.
    FrameTooSmall {
        /// The rejected value.
        got: u32,
    },
    /// `max_connections` was zero.
    NoConnections,
    /// `read_timeout` was zero (a zero timeout means "block forever" to
    /// the socket layer, which defeats the idle cutoff).
    ZeroReadTimeout,
    /// A detection interval of zero would spin the rotation loop.
    ZeroDetectInterval,
}

impl core::fmt::Display for ServiceConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServiceConfigError::NoWorkers => write!(f, "need at least one worker"),
            ServiceConfigError::BatchSize { got } => {
                write!(f, "batch size must be in 1..={MAX_BATCH_SIZE}, got {got}")
            }
            ServiceConfigError::ZeroQueueBatches => {
                write!(f, "queue must hold at least one batch")
            }
            ServiceConfigError::FrameTooSmall { got } => {
                write!(f, "max frame bytes {got} below the one-record minimum")
            }
            ServiceConfigError::NoConnections => {
                write!(f, "need at least one connection slot")
            }
            ServiceConfigError::ZeroReadTimeout => {
                write!(f, "read timeout must be non-zero")
            }
            ServiceConfigError::ZeroDetectInterval => {
                write!(f, "detection interval must be non-zero")
            }
        }
    }
}

impl std::error::Error for ServiceConfigError {}

/// Validating builder for [`ServiceConfig`].
#[derive(Debug, Clone, Default)]
pub struct ServiceConfigBuilder {
    cfg: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Sets the listen address (default `127.0.0.1:0`).
    #[must_use]
    pub fn addr(mut self, addr: &str) -> Self {
        self.cfg.addr = addr.to_string();
        self
    }

    /// Sets the worker shard count (default 4).
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n;
        self
    }

    /// Sets the dispatch batch size in packets (default 256).
    #[must_use]
    pub fn batch_size(mut self, n: usize) -> Self {
        self.cfg.batch_size = n;
        self
    }

    /// Sets the per-worker queue capacity in batches (default 16).
    #[must_use]
    pub fn queue_batches(mut self, n: usize) -> Self {
        self.cfg.queue_batches = n;
        self
    }

    /// Sets the per-shard measurement configuration.
    #[must_use]
    pub fn per_worker(mut self, cfg: InstaMeasureConfig) -> Self {
        self.cfg.per_worker = cfg;
        self
    }

    /// Pins each shard worker to a CPU (default off; best effort).
    #[must_use]
    pub fn pin(mut self, pin: bool) -> Self {
        self.cfg.pin = pin;
        self
    }

    /// Sets the frame payload ceiling (default 1 MiB).
    #[must_use]
    pub fn max_frame_bytes(mut self, n: u32) -> Self {
        self.cfg.max_frame_bytes = n;
        self
    }

    /// Sets the idle read timeout (default 30 s).
    #[must_use]
    pub fn read_timeout(mut self, t: Duration) -> Self {
        self.cfg.read_timeout = t;
        self
    }

    /// Sets the connection-slot ceiling (default 64).
    #[must_use]
    pub fn max_connections(mut self, n: usize) -> Self {
        self.cfg.max_connections = n;
        self
    }

    /// Sets the shutdown drain grace period (default 5 s).
    #[must_use]
    pub fn drain_grace(mut self, t: Duration) -> Self {
        self.cfg.drain_grace = t;
        self
    }

    /// Enables streaming anomaly detection (default off).
    #[must_use]
    pub fn detect(mut self, detect: DetectionConfig) -> Self {
        self.cfg.detect = Some(detect);
        self
    }

    /// Attaches a pre-boot auto-tuning solve (default off). The caller
    /// remains responsible for booting the engine with the plan's
    /// geometry ([`instameasure_autotune::TunePlan::to_config`] →
    /// [`ServiceConfigBuilder::per_worker`]); this only arms the live
    /// side: `QueryPlan` service and epoch re-solves.
    #[must_use]
    pub fn auto_tune(mut self, state: TuneState) -> Self {
        self.cfg.tune = Some(state);
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceConfigError`] naming the rejected parameter.
    pub fn build(self) -> Result<ServiceConfig, ServiceConfigError> {
        let c = &self.cfg;
        if c.workers == 0 {
            return Err(ServiceConfigError::NoWorkers);
        }
        if c.batch_size == 0 || c.batch_size > MAX_BATCH_SIZE {
            return Err(ServiceConfigError::BatchSize { got: c.batch_size });
        }
        if c.queue_batches == 0 {
            return Err(ServiceConfigError::ZeroQueueBatches);
        }
        let min_frame = 4 + instameasure_packet::PacketRecord::WIRE_BYTES as u32;
        if c.max_frame_bytes < min_frame {
            return Err(ServiceConfigError::FrameTooSmall { got: c.max_frame_bytes });
        }
        if c.max_connections == 0 {
            return Err(ServiceConfigError::NoConnections);
        }
        if c.read_timeout.is_zero() {
            return Err(ServiceConfigError::ZeroReadTimeout);
        }
        if let Some(detect) = &c.detect {
            if detect.interval.is_some_and(|i| i.is_zero()) {
                return Err(ServiceConfigError::ZeroDetectInterval);
            }
        }
        Ok(self.cfg)
    }
}

impl ServiceConfig {
    /// Starts building a validated config from the defaults.
    #[must_use]
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder::default()
    }
}

/// The refusal every connection gets once the daemon is stopping.
const CLOSED: &str = "daemon is shutting down; ingest is closed";
/// Pause after a failed `accept` (out of descriptors, say), so a
/// persistent error does not spin the accept thread.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);
/// Deadline of the loopback connect that wakes the accept thread.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// The live connections, each with the handle stop wakes its reader by.
#[derive(Default)]
struct Conns {
    next_id: u64,
    live: Vec<(u64, TcpStream)>,
}

/// Shared per-server state each handler thread clones.
struct Shared {
    engine: Arc<Engine>,
    detection: Option<Arc<DetectionRuntime>>,
    tune: Option<Arc<TuneRuntime>>,
    registry: Arc<SharedRegistry>,
    stop: AtomicBool,
    conns: Mutex<Conns>,
    /// Signalled by every connection close and by stop.
    conns_changed: Condvar,
    /// Where stop connects to wake the blocked accept.
    wake_addr: SocketAddr,
    final_report: Mutex<Option<StatusReport>>,
    cfg: ServiceConfig,
    accept_errors: Counter<AtomicCell>,
    conns_opened: Counter<AtomicCell>,
    conns_closed: Counter<AtomicCell>,
    frames_ingest: Counter<AtomicCell>,
    frames_query: Counter<AtomicCell>,
    bytes_rx: Counter<AtomicCell>,
    bytes_tx: Counter<AtomicCell>,
    rejects: Counter<AtomicCell>,
    timeouts: Counter<AtomicCell>,
    query_nanos: QueryNanos,
}

/// How long each kind of request took to answer, one histogram per kind
/// under `service.query_nanos.<kind>`, so the cost of a top-k does not
/// hide among status polls.
struct QueryNanos {
    flow: Histogram<AtomicCell>,
    top_k: Histogram<AtomicCell>,
    status: Histogram<AtomicCell>,
    telemetry: Histogram<AtomicCell>,
    rotate: Histogram<AtomicCell>,
    plan: Histogram<AtomicCell>,
}

impl QueryNanos {
    fn register(registry: &SharedRegistry) -> QueryNanos {
        let kind = |name: &str| registry.histogram(&format!("service.query_nanos.{name}"));
        QueryNanos {
            flow: kind("flow"),
            top_k: kind("top_k"),
            status: kind("status"),
            telemetry: kind("telemetry"),
            rotate: kind("rotate"),
            plan: kind("plan"),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn status(&self) -> StatusReport {
        StatusReport {
            packets_submitted: self.engine.packets_submitted(),
            packets_processed: self.engine.packets_processed(),
            ingest_frames: self.frames_ingest.get(),
            connections: self.conns_opened.get(),
            flows: self.engine.flows(),
            epoch: self.engine.epoch(),
            workers: self.engine.workers() as u32,
        }
    }

    fn count_reject(&self, class: &str) {
        self.rejects.inc();
        self.registry.counter(&format!("service.rejects.{class}")).inc();
    }

    /// Latches the stop flag and wakes every wait that ends on it: each
    /// connection reader (its socket's read side shuts, so an idle reader
    /// sees end of stream and a busy one does after its current frame),
    /// the waits on `conns_changed`, and the blocked accept (one loopback
    /// connect). Later calls do nothing.
    fn stop(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            // Under the lock: a connection admitted after this sees the
            // flag and is refused instead.
            let conns = lock(&self.conns);
            for (_, stream) in &conns.live {
                let _ = stream.shutdown(Shutdown::Read);
            }
            self.conns_changed.notify_all();
        }
        let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_CONNECT_TIMEOUT);
    }

    /// Blocks until `done` holds or `deadline` passes. `done` is checked
    /// under the connection lock, so a close or a stop that makes it true
    /// cannot slip past the wait.
    fn wait_until(&self, deadline: Instant, done: impl Fn(&Conns) -> bool) {
        let mut conns = lock(&self.conns);
        while !done(&conns) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            conns = self
                .conns_changed
                .wait_timeout(conns, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Forgets a finished connection and signals the waits on the count.
    fn close(&self, id: u64) {
        let mut conns = lock(&self.conns);
        conns.live.retain(|(c, _)| *c != id);
        self.conns_changed.notify_all();
        drop(conns);
        self.conns_closed.inc();
    }
}

/// The address stop connects to: the bound one, or loopback of its
/// family when it is unspecified.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`Server::join`] to wait for a protocol-initiated shutdown, or
/// [`Server::request_stop`] + [`Server::join`] to stop it locally.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_handle: Option<thread::JoinHandle<()>>,
    detect_handle: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, boots the engine and starts accepting.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the address cannot be bound.
    pub fn start(cfg: ServiceConfig) -> std::io::Result<Server> {
        let registry = Arc::new(SharedRegistry::new());
        let engine_cfg = EngineConfig {
            workers: cfg.workers,
            batch_size: cfg.batch_size,
            queue_batches: cfg.queue_batches,
            pin: cfg.pin,
            per_worker: cfg.per_worker,
        };
        let engine = Arc::new(Engine::start(&engine_cfg, Arc::clone(&registry)));
        let tune =
            cfg.tune.clone().map(|state| Arc::new(TuneRuntime::new(state, registry.as_ref())));
        let detection = cfg.detect.as_ref().map(|d| {
            let mut runtime =
                DetectionRuntime::new(Arc::clone(&engine), d.detectors, registry.as_ref());
            if let Some(tuner) = &tune {
                // Detection owns the epoch clock, so it also drives the
                // re-tuner: every closed epoch's observed flow sizes are
                // re-solved against the operator's target.
                runtime = runtime.with_tuner(Arc::clone(tuner));
            }
            Arc::new(runtime)
        });
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            engine,
            detection,
            tune,
            accept_errors: registry.counter("service.accept_errors"),
            conns_opened: registry.counter("service.connections.opened"),
            conns_closed: registry.counter("service.connections.closed"),
            frames_ingest: registry.counter("service.frames.ingest"),
            frames_query: registry.counter("service.frames.query"),
            bytes_rx: registry.counter("service.bytes.rx"),
            bytes_tx: registry.counter("service.bytes.tx"),
            rejects: registry.counter("service.rejects"),
            timeouts: registry.counter("service.timeouts"),
            query_nanos: QueryNanos::register(&registry),
            registry,
            stop: AtomicBool::new(false),
            conns: Mutex::new(Conns::default()),
            conns_changed: Condvar::new(),
            wake_addr: wake_addr(addr),
            final_report: Mutex::new(None),
            cfg,
        });

        let accept_shared = Arc::clone(&shared);
        let accept_handle = thread::Builder::new()
            .name("im-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawning the accept thread");

        // The epoch clock: with a configured interval, detection runs on
        // its own thread; otherwise epochs close on protocol rotates.
        let interval = shared.cfg.detect.as_ref().and_then(|d| d.interval);
        let detect_handle = match (interval, &shared.detection) {
            (Some(every), Some(runtime)) => {
                let runtime = Arc::clone(runtime);
                let stop_shared = Arc::clone(&shared);
                Some(
                    thread::Builder::new()
                        .name("im-detect".to_string())
                        .spawn(move || detect_loop(&runtime, &stop_shared, every))
                        .expect("spawning the detection thread"),
                )
            }
            _ => None,
        };

        Ok(Server { shared, addr, accept_handle: Some(accept_handle), detect_handle })
    }

    /// The address the listener actually bound (resolves `:0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine, for in-process queries (examples, embedded use).
    #[must_use]
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// The server's metric registry (`service.*`).
    #[must_use]
    pub fn registry(&self) -> &Arc<SharedRegistry> {
        &self.shared.registry
    }

    /// The streaming detection runtime, when the config enabled one.
    #[must_use]
    pub fn detection(&self) -> Option<&Arc<DetectionRuntime>> {
        self.shared.detection.as_ref()
    }

    /// The auto-tuning runtime, when the config armed one.
    #[must_use]
    pub fn tuner(&self) -> Option<&Arc<TuneRuntime>> {
        self.shared.tune.as_ref()
    }

    /// True once a shutdown (protocol or local) has been requested.
    #[must_use]
    pub fn is_stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Requests a local shutdown (equivalent to receiving a
    /// [`Request::Shutdown`] frame, minus the reply).
    pub fn request_stop(&self) {
        self.shared.stop();
    }

    /// Waits for shutdown to complete and returns the final packet-exact
    /// accounting. Blocks until a shutdown is requested via the protocol
    /// or [`Server::request_stop`], then waits for the connection
    /// handlers (stop woke each of them; the wait is bounded by
    /// [`ServiceConfig::drain_grace`]) and drains the engine.
    pub fn join(mut self) -> StatusReport {
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.detect_handle.take() {
            let _ = h.join();
        }
        let deadline = Instant::now() + self.shared.cfg.drain_grace;
        self.shared.wait_until(deadline, |conns| conns.live.is_empty());
        self.shared.engine.drain();
        let mut report = lock(&self.shared.final_report);
        *report.get_or_insert_with(|| self.shared.status())
    }
}

/// The periodic epoch clock: closes and evaluates an epoch every
/// `every`. Between epochs it sleeps on the connection condvar until the
/// next epoch is due, so stop ends the wait at once.
fn detect_loop(runtime: &DetectionRuntime, shared: &Shared, every: Duration) {
    let mut next = Instant::now() + every;
    loop {
        shared.wait_until(next, |_| shared.stop.load(Ordering::SeqCst));
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let _ = runtime.run_epoch();
        next += every;
    }
}

/// Blocks in `accept` until a client or stop's wake-up connection
/// arrives. Failed accepts are counted (`service.accept_errors`) and
/// backed off.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => admit(stream, shared),
            Err(_) => {
                shared.accept_errors.inc();
                thread::sleep(ACCEPT_BACKOFF);
            }
        }
    }
}

/// Registers an accepted connection and spawns its handler, or refuses
/// it when the daemon is full or stopping.
fn admit(stream: TcpStream, shared: &Arc<Shared>) {
    // Alert pushes and query acks are small frames written back-to-back;
    // Nagle + delayed ACK would park the second one for ~40 ms, blowing
    // the detection budget.
    let _ = stream.set_nodelay(true);
    let Ok(handle) = stream.try_clone() else {
        shared.count_reject("io");
        return;
    };
    let id = {
        let mut conns = lock(&shared.conns);
        if shared.stop.load(Ordering::SeqCst) {
            drop(conns);
            return refuse(stream, shared, "draining", CLOSED.to_string());
        }
        if conns.live.len() >= shared.cfg.max_connections {
            drop(conns);
            let message = format!("connection limit {} reached", shared.cfg.max_connections);
            return refuse(stream, shared, "busy", message);
        }
        let id = conns.next_id;
        conns.next_id += 1;
        conns.live.push((id, handle));
        id
    };
    shared.conns_opened.inc();
    let conn_shared = Arc::clone(shared);
    let spawned = thread::Builder::new().name("im-conn".to_string()).spawn(move || {
        handle_connection(stream, &conn_shared);
        conn_shared.close(id);
    });
    if spawned.is_err() {
        shared.close(id);
        shared.count_reject("spawn");
    }
}

/// Counts a connection refused at the accept stage and sends it a
/// best-effort error reply.
fn refuse(mut stream: TcpStream, shared: &Shared, class: &str, message: String) {
    shared.count_reject(class);
    let frame = Response::Error { class: class.to_string(), message }.encode();
    let _ = write_frame(&mut stream, frame.opcode, &frame.payload);
}

/// Sends one response frame, counting its bytes. Returns false if the
/// peer is unreachable (the handler then closes). The stream mutex is
/// shared with the [`crate::detect::AlertHub`] once the connection
/// subscribes, so replies and alert pushes never interleave mid-frame.
fn send(writer: &Mutex<TcpStream>, shared: &Arc<Shared>, resp: &Response) -> bool {
    let frame = resp.encode();
    let mut stream = lock(writer);
    match write_frame(&mut *stream, frame.opcode, &frame.payload) {
        Ok(()) => {
            shared.bytes_tx.add(frame_wire_len(frame.payload.len()));
            stream.flush().is_ok()
        }
        Err(_) => false,
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    if stream.set_read_timeout(Some(shared.cfg.read_timeout)).is_err() {
        shared.count_reject("io");
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        shared.count_reject("io");
        return;
    };
    let mut reader = BufReader::new(read_half);
    let writer = Arc::new(Mutex::new(stream));
    let mut lane: Option<IngestLane> = None;
    let mut sub_id: Option<u64> = None;
    // Every frame of the connection is read into this one buffer; it
    // grows to the largest payload seen, at most `max_frame_bytes`.
    let mut frame_buf = Vec::new();

    loop {
        let max = shared.cfg.max_frame_bytes;
        let (opcode, len) = match read_frame_into(&mut reader, max, &mut frame_buf) {
            Ok(Some((opcode, len))) => {
                shared.bytes_rx.add(frame_wire_len(len));
                (opcode, len)
            }
            // Stop shut the read side: the reader woke at end of stream
            // (or mid-frame) and answers as a frame read after stop does.
            _ if shared.stop.load(Ordering::SeqCst) => {
                refuse_draining(&writer, shared, CLOSED.to_string());
                break;
            }
            Ok(None) => break, // clean disconnect at a frame boundary
            Err(WireError::Io(e)) if is_timeout(&e) => {
                // An alert subscriber is *supposed* to sit quietly and
                // listen, so the idle cutoff does not apply to it; a
                // dead one is reaped by the hub when a broadcast write
                // fails. Other idle peers are counted and cut.
                if sub_id.is_some() {
                    continue;
                }
                shared.timeouts.inc();
                break;
            }
            Err(e) => {
                shared.count_reject(e.class());
                let _ = send(
                    &writer,
                    shared,
                    &Response::Error { class: e.class().to_string(), message: e.to_string() },
                );
                break;
            }
        };
        let payload = &frame_buf[..len];
        // Ingest records go from the frame buffer straight into the lane.
        let keep_open = match opcode {
            Opcode::IngestBatch => decode_ingest_payload(payload)
                .map(|records| ingest(records, &writer, &mut lane, shared)),
            _ => Request::decode_payload(opcode, payload)
                .map(|request| dispatch(request, &writer, &mut lane, &mut sub_id, shared)),
        };
        match keep_open {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => {
                shared.count_reject(e.class());
                let _ = send(
                    &writer,
                    shared,
                    &Response::Error { class: e.class().to_string(), message: e.to_string() },
                );
                break;
            }
        }
    }
    // A closed connection takes its subscription with it.
    if let (Some(id), Some(runtime)) = (sub_id, &shared.detection) {
        runtime.hub().unsubscribe(id);
    }
    // Lane drop flushes partial batches — no decoded record is lost.
}

/// Handles one request; returns false when the connection should close.
fn dispatch(
    request: Request,
    writer: &Arc<Mutex<TcpStream>>,
    lane: &mut Option<IngestLane>,
    sub_id: &mut Option<u64>,
    shared: &Arc<Shared>,
) -> bool {
    match request {
        Request::IngestBatch(records) => ingest(records, writer, lane, shared),
        Request::IngestFin => {
            shared.frames_ingest.inc();
            let accepted = match lane {
                Some(l) => match l.flush() {
                    Ok(()) => l.accepted(),
                    Err(e) => return refuse_draining(writer, shared, e.to_string()),
                },
                None => 0,
            };
            send(writer, shared, &Response::FinAck { packets: accepted })
        }
        Request::QueryFlow(key) => {
            let (packets, bytes) =
                timed_query(shared, &shared.query_nanos.flow, || shared.engine.estimate(&key));
            send(writer, shared, &Response::Flow { packets, bytes })
        }
        Request::QueryTopK(k) => {
            let flows =
                timed_query(shared, &shared.query_nanos.top_k, || shared.engine.top_k(k as usize));
            send(writer, shared, &Response::TopK(flows))
        }
        Request::QueryStatus => {
            let status = timed_query(shared, &shared.query_nanos.status, || shared.status());
            send(writer, shared, &Response::Status(status))
        }
        Request::QueryTelemetry => {
            let json = timed_query(shared, &shared.query_nanos.telemetry, || {
                shared.engine.full_telemetry().to_json()
            });
            send(writer, shared, &Response::Telemetry(json))
        }
        Request::Rotate => {
            // With detection enabled the rotation routes through the
            // runtime, so the closed epoch is evaluated and alert frames
            // reach subscribers *before* this `Rotated` ack — the e2e
            // battery times onset→alert against exactly that ordering.
            let rotate = &shared.query_nanos.rotate;
            let (epoch, flows_retired) = timed_query(shared, rotate, || match &shared.detection {
                Some(runtime) => {
                    let verdict = runtime.run_epoch();
                    (verdict.epoch, verdict.retired)
                }
                None => shared.engine.rotate(),
            });
            send(writer, shared, &Response::Rotated { epoch, flows_retired })
        }
        Request::QueryPlan => {
            let Some(tuner) = &shared.tune else {
                shared.count_reject("unsupported");
                let _ = send(
                    writer,
                    shared,
                    &Response::Error {
                        class: "unsupported".to_string(),
                        message: "auto-tuning is disabled; start the daemon with serve --auto-tune"
                            .to_string(),
                    },
                );
                return false;
            };
            let report = timed_query(shared, &shared.query_nanos.plan, || tuner.report());
            send(writer, shared, &Response::Plan(report))
        }
        Request::Subscribe { kinds } => {
            let Some(runtime) = &shared.detection else {
                shared.count_reject("unsupported");
                let _ = send(
                    writer,
                    shared,
                    &Response::Error {
                        class: "unsupported".to_string(),
                        message: "detection is disabled; start the daemon with --detect"
                            .to_string(),
                    },
                );
                return false;
            };
            let kinds = if kinds == 0 { SUBSCRIBE_MASK_ALL } else { kinds };
            if let Some(old) = sub_id.take() {
                runtime.hub().unsubscribe(old);
            }
            *sub_id = Some(runtime.hub().subscribe(Arc::clone(writer), kinds));
            send(writer, shared, &Response::Subscribed { epoch: shared.engine.epoch(), kinds })
        }
        Request::Shutdown => {
            shared.stop();
            // Wait (bounded) for the other connections, each woken by the
            // stop, to finish so the drain below sees every lane closed.
            let deadline = Instant::now() + shared.cfg.drain_grace;
            shared.wait_until(deadline, |conns| conns.live.len() <= 1);
            shared.engine.drain();
            let status = shared.status();
            *lock(&shared.final_report) = Some(status);
            let _ = send(writer, shared, &Response::Status(status));
            false
        }
    }
}

/// Submits one ingest frame's records to the connection's lane, opening
/// the lane on first use; returns false when the connection should close.
fn ingest(
    records: impl IntoIterator<Item = PacketRecord>,
    writer: &Arc<Mutex<TcpStream>>,
    lane: &mut Option<IngestLane>,
    shared: &Arc<Shared>,
) -> bool {
    shared.frames_ingest.inc();
    if shared.stop.load(Ordering::SeqCst) {
        return refuse_draining(writer, shared, CLOSED.to_string());
    }
    let open = match lane {
        Some(l) => l,
        None => match shared.engine.lane() {
            Some(l) => lane.insert(l),
            None => return refuse_draining(writer, shared, CLOSED.to_string()),
        },
    };
    match open.submit_iter(records) {
        Ok(()) => true,
        Err(e) => refuse_draining(writer, shared, e.to_string()),
    }
}

/// Counts a `draining` rejection and sends its error reply; returns false
/// (the connection closes).
fn refuse_draining(writer: &Mutex<TcpStream>, shared: &Arc<Shared>, message: String) -> bool {
    shared.count_reject("draining");
    let _ = send(writer, shared, &Response::Error { class: "draining".to_string(), message });
    false
}

/// Counts a query frame and times its answer into `nanos`, the
/// histogram of its kind.
fn timed_query<T>(shared: &Shared, nanos: &Histogram<AtomicCell>, f: impl FnOnce() -> T) -> T {
    shared.frames_query.inc();
    let start = Instant::now();
    let out = f();
    nanos.observe(start.elapsed().as_nanos() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_every_knob() {
        assert!(ServiceConfig::builder().build().is_ok());
        assert_eq!(
            ServiceConfig::builder().workers(0).build().unwrap_err(),
            ServiceConfigError::NoWorkers
        );
        assert_eq!(
            ServiceConfig::builder().batch_size(0).build().unwrap_err(),
            ServiceConfigError::BatchSize { got: 0 }
        );
        assert_eq!(
            ServiceConfig::builder().batch_size(MAX_BATCH_SIZE + 1).build().unwrap_err(),
            ServiceConfigError::BatchSize { got: MAX_BATCH_SIZE + 1 }
        );
        assert_eq!(
            ServiceConfig::builder().queue_batches(0).build().unwrap_err(),
            ServiceConfigError::ZeroQueueBatches
        );
        assert_eq!(
            ServiceConfig::builder().max_frame_bytes(8).build().unwrap_err(),
            ServiceConfigError::FrameTooSmall { got: 8 }
        );
        assert_eq!(
            ServiceConfig::builder().max_connections(0).build().unwrap_err(),
            ServiceConfigError::NoConnections
        );
        assert_eq!(
            ServiceConfig::builder().read_timeout(Duration::ZERO).build().unwrap_err(),
            ServiceConfigError::ZeroReadTimeout
        );
    }

    #[test]
    fn each_query_kind_is_timed_in_its_own_histogram() {
        let cfg = ServiceConfig::builder()
            .workers(2)
            .per_worker(InstaMeasureConfig::default().small_for_tests())
            .build()
            .unwrap();
        let server = Server::start(cfg).unwrap();
        let mut client = crate::ServiceClient::connect(server.local_addr()).unwrap();
        let key = instameasure_packet::FlowKey::new(
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            1234,
            80,
            instameasure_packet::Protocol::Tcp,
        );
        for _ in 0..7 {
            client.query_flow(&key).unwrap();
        }
        for _ in 0..3 {
            client.top_k(10).unwrap();
        }
        let snap = server.registry().snapshot();
        let count =
            |kind: &str| snap.histogram(&format!("service.query_nanos.{kind}")).map(|h| h.count);
        assert_eq!((count("flow"), count("top_k")), (Some(7), Some(3)));
        for kind in ["status", "telemetry", "rotate", "plan"] {
            assert_eq!(count(kind), Some(0), "{kind}");
        }
        assert!(snap.histogram("service.query_nanos").is_none(), "the mixed histogram is gone");
        server.request_stop();
        server.join();
    }

    #[test]
    fn server_binds_ephemeral_port_and_stops_locally() {
        let cfg = ServiceConfig::builder()
            .workers(1)
            .per_worker(InstaMeasureConfig::default().small_for_tests())
            .read_timeout(Duration::from_millis(100))
            .build()
            .unwrap();
        let server = Server::start(cfg).unwrap();
        assert_ne!(server.local_addr().port(), 0);
        server.request_stop();
        let report = server.join();
        assert_eq!(report.packets_submitted, 0);
        assert_eq!(report.packets_processed, 0);
        assert_eq!(report.workers, 1);
    }
}
