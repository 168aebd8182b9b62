//! The live side: boots of the real daemon on loopback and the three
//! workloads driven through the public `ServiceClient`, with their
//! correctness checks.
//!
//! The daemon runs `serve`'s defaults except for one shard. At most two
//! generator threads and two connections talk to it. A run boots
//! [`SEGMENTS`] daemons in turn and splits its window across them: one
//! daemon's memory placement is one draw, and pooling several draws
//! keeps one unlucky placement from moving the whole run.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use instameasure::core::detect::{AnomalyKind, DetectorConfig, Subject};
use instameasure::core::{InstaMeasure, InstaMeasureConfig};
use instameasure::packet::chunk::read_records_mmap;
use instameasure::packet::{FlowKey, PacketRecord};
use instameasure::service::client::PUSH_CHUNK_RECORDS;
use instameasure::service::server::{Server, ServiceConfig};
use instameasure::service::{DetectionConfig, ServiceClient, StatusReport, TopFlow};
use instameasure::sketch::FilterKind;

use crate::inputs::{scan_epoch, PcapShape};
use crate::spans::{Open, Recorder};
use crate::stats::{median, samples_needed, OpenLoop, Tally};

/// Shards the benchmark boots (the only departure from `serve`'s
/// defaults: one shard keeps the numbers about one worker's pipeline on
/// a two-CPU host).
pub const SHARDS: usize = 1;
/// Daemons booted (and timed for `setup_s`) per run, each measuring an
/// equal share of the window.
pub const SEGMENTS: usize = 4;
/// Further boots per run timed for `setup_s` only (stopped right away).
const SETUP_ONLY_BOOTS: usize = 6;
/// Point queries per second in `caida_query` (open loop).
pub const QUERY_RATE_HZ: f64 = 10.0;
/// Every this-many-th query is a `top_k` instead of a point query.
pub const TOP_K_EVERY: u64 = 10;
/// Flows a `top_k` query asks for.
pub const TOP_K: u32 = 100;
/// The tail percentile reported for answer latency.
pub const TAIL: f64 = 90.0;
/// Pause between `status()` polls while waiting for a drain.
const POLL: Duration = Duration::from_micros(100);
/// A drain that takes longer than this is a failure, not a slow answer.
const SETTLE_DEADLINE: Duration = Duration::from_secs(20);
/// Reply timeout for the query and subscriber connections; a reply that
/// misses it fails the operation.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// However few samples it has, a segment stops measuring after this long.
const SEGMENT_CAP: Duration = Duration::from_secs(25);

/// The per-shard measurement configuration `serve` boots with.
#[must_use]
pub fn per_worker() -> InstaMeasureConfig {
    InstaMeasureConfig::default().with_filter(FilterKind::Regulator)
}

/// `serve`'s daemon configuration with [`SHARDS`] shards; `detect` adds
/// what `serve --detect` adds (epochs close on `rotate`).
#[must_use]
pub fn serve_config(detect: bool) -> ServiceConfig {
    let mut builder = ServiceConfig::builder()
        .addr("127.0.0.1:0")
        .workers(SHARDS)
        .batch_size(256)
        .queue_batches(16)
        .pin(false)
        .max_frame_bytes(1 << 20)
        .read_timeout(Duration::from_secs(30))
        .max_connections(64)
        .per_worker(per_worker());
    if detect {
        builder = builder
            .detect(DetectionConfig { interval: None, detectors: DetectorConfig::default() });
    }
    builder.build().expect("serve's defaults are a valid configuration")
}

/// A booted daemon and the benchmark's two connections to it: `a` is the
/// tap, `b` the operator (queries, status polls, subscription).
pub struct Daemon {
    /// The in-process daemon.
    pub server: Server,
    /// Tap connection.
    pub a: ServiceClient,
    /// Operator connection.
    pub b: ServiceClient,
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Boots one daemon and opens both connections; returns it with the
/// setup time (`Server::start` until both connections answered).
///
/// # Errors
///
/// Returns a description of the first boot step that failed.
pub fn boot(detect: bool) -> Result<(Daemon, f64), String> {
    let cfg = serve_config(detect);
    let t0 = Instant::now();
    let server = Server::start(cfg).map_err(|e| err("Server::start", e))?;
    let addr = server.local_addr();
    let mut a = ServiceClient::connect(addr).map_err(|e| err("tap connect", e))?;
    a.status().map_err(|e| err("tap status", e))?;
    let mut b = ServiceClient::connect_with_timeout(addr, REPLY_TIMEOUT)
        .map_err(|e| err("operator connect", e))?;
    if detect {
        b.subscribe(0).map_err(|e| err("subscribe", e))?;
    } else {
        b.status().map_err(|e| err("operator status", e))?;
    }
    let setup = t0.elapsed().as_secs_f64();
    Ok((Daemon { server, a, b }, setup))
}

/// Drains and stops a daemon; returns its final packet-exact report.
///
/// # Errors
///
/// Returns the shutdown failure.
pub fn stop(d: Daemon) -> Result<StatusReport, String> {
    let Daemon { server, mut a, b } = d;
    // A connection still open would hold the shutdown for its grace
    // period; close the operator side first.
    drop(b);
    let report = a.shutdown().map_err(|e| err("shutdown", e));
    drop(a);
    let joined = server.join();
    report.map(|_| joined)
}

/// Resident set size of this process in MiB (Linux `VmRSS`).
#[must_use]
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Polls `status()` until `expected` packets are processed. Returns the
/// final report; the poll loop's worst oversleep goes to `late`.
fn settle(
    client: &mut ServiceClient,
    expected: u64,
    late: &mut Duration,
) -> Result<StatusReport, String> {
    let deadline = Instant::now() + SETTLE_DEADLINE;
    loop {
        let s = client.status().map_err(|e| err("status", e))?;
        if s.packets_processed >= expected {
            return Ok(s);
        }
        if Instant::now() > deadline {
            return Err(format!(
                "drain stalled: {} of {expected} packets processed ({} submitted)",
                s.packets_processed, s.packets_submitted
            ));
        }
        let before = Instant::now();
        std::thread::sleep(POLL);
        *late = (*late).max(before.elapsed().saturating_sub(POLL));
    }
}

/// Pushes `records` in `PUSH_CHUNK_RECORDS` frames and finishes the
/// stream (what `ServiceClient::push_records` does, one span per call).
/// Returns the fin-ack: packets the connection's lane accepted so far.
fn push(
    client: &mut ServiceClient,
    records: &[PacketRecord],
    rec: &mut Recorder,
    req: u64,
    parent: Option<&Open>,
) -> Result<u64, String> {
    let span = rec.enter("client.push_records", req, parent);
    for chunk in records.chunks(PUSH_CHUNK_RECORDS) {
        rec.time("client.push_batch", req, span.as_ref(), || client.push_batch(chunk))
            .map_err(|e| err("push_batch", e))?;
    }
    let acked = rec.time("client.finish", req, span.as_ref(), || client.finish());
    rec.exit(span);
    acked.map_err(|e| err("finish", e))
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed boots (s): the set-up-only boots and one per segment.
    pub setup_s: Vec<f64>,
    /// Ingest rate of every timed pass or epoch (Mpps), pooled over
    /// segments; the median is robust to the odd descheduled pass.
    pub rates_mpps: Vec<f64>,
    /// Per-operation answer latencies (ms), pooled over segments.
    pub answers_ms: Vec<f64>,
    /// Median over segments of the RSS growth from just before the
    /// segment's boot to the end of its window (MiB).
    pub rss_mb: f64,
    /// Operations attempted/failed.
    pub tally: Tally,
    /// Correctness problems, each reported as it happens.
    pub problems: Vec<String>,
    /// The worst lateness of the benchmark's own paced loops.
    pub late: Duration,
    /// Packets and seconds of passes run with spans on (traced run).
    pub traced: (u64, f64),
    /// Packets and seconds of passes run with spans off.
    pub untraced: (u64, f64),
    /// Median `status()` round trip on the idle daemon (µs), traced run.
    pub status_rtt_us: f64,
    /// `service.ring.full_stalls` summed over the segments' daemons.
    pub ring_stalls: u64,
    /// Next request id for spans (0 marks untimed work).
    next_req: u64,
    /// RSS at the end of the current segment's window (MiB).
    rss_end: f64,
}

impl Outcome {
    fn note(&mut self, problem: String) {
        eprintln!("wirebench: FAILURE: {problem}");
        self.problems.push(problem);
    }

    /// Counts `n` failed operations and reports why.
    fn fail(&mut self, n: u64, problem: String) {
        self.tally.fail(n, problem.clone());
        self.note(problem);
    }

    /// A fresh request id, and whether a traced run records its spans
    /// (traced and untraced requests alternate, so the traced run
    /// measures its own overhead on the same daemon).
    fn request(&mut self, traced_run: bool) -> (u64, bool) {
        let req = self.next_req;
        self.next_req += 1;
        (req, traced_run && req % 2 == 1)
    }

    /// Records one timed pass: `packets` ingested in `secs`.
    fn pass_rate(&mut self, traced: bool, packets: u64, secs: f64) {
        self.rates_mpps.push(packets as f64 / secs / 1e6);
        let slot = if traced { &mut self.traced } else { &mut self.untraced };
        slot.0 += packets;
        slot.1 += secs;
    }

    /// Closes a segment's measured window: memory and ring stalls are
    /// read here, before any verification allocates.
    fn window_done(&mut self, d: &Daemon) {
        self.rss_end = rss_mb();
        self.ring_stalls +=
            d.server.registry().snapshot().counter("service.ring.full_stalls").unwrap_or(0);
    }

    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.tally.failed() == 0
    }
}

/// Answer-latency samples a run collects before it may stop: enough for
/// the reported tail, with room for a few failures.
#[must_use]
pub fn min_samples() -> usize {
    samples_needed(TAIL) + 10
}

/// One segment's share of the window.
#[derive(Debug, Clone, Copy)]
struct Window {
    start: Instant,
    seconds: f64,
    need: usize,
}

impl Window {
    /// Opens the window now, for `seconds` and at least `need` samples.
    fn open(seconds: f64, need: usize) -> Self {
        Window { start: Instant::now(), seconds, need }
    }

    /// The same share, starting now (after a segment's warm-up).
    fn restart(self) -> Self {
        Window { start: Instant::now(), ..self }
    }

    /// Whether the segment should measure another operation, having
    /// `samples` answers so far.
    fn more(&self, samples: usize) -> bool {
        let elapsed = self.start.elapsed();
        elapsed < SEGMENT_CAP && (elapsed.as_secs_f64() < self.seconds || samples < self.need)
    }
}

fn idle_status_rtt_us(client: &mut ServiceClient) -> f64 {
    let mut rtts = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        if client.status().is_ok() {
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    median(&rtts)
}

/// Stops the daemon and checks the final packet-exact accounting.
fn finish(d: Daemon, total: u64, out: &mut Outcome) {
    match stop(d) {
        Ok(report) => {
            if report.packets_submitted != total || report.packets_processed != total {
                out.note(format!(
                    "final accounting: {} submitted / {} processed, {total} pushed",
                    report.packets_submitted, report.packets_processed
                ));
            }
        }
        Err(e) => out.note(e),
    }
}

/// Runs a workload: one untimed warm-up boot, then [`SEGMENTS`] timed
/// boots, each handed to `segment` with its share of the window. The
/// segment returns the packets it pushed, for the final accounting.
fn run_segments(
    detect: bool,
    seconds: f64,
    rec: &mut Recorder,
    mut segment: impl FnMut(&mut Daemon, &mut Outcome, &mut Recorder, Window) -> u64,
) -> Outcome {
    let mut out = Outcome { next_req: 1, ..Outcome::default() };
    let traced_run = rec.enabled();
    // One untimed boot, then boots timed for set-up alone: booting is
    // cheap next to the window, and more samples steady its median.
    for timed in std::iter::once(false).chain([true; SETUP_ONLY_BOOTS]) {
        match boot(detect).and_then(|(d, secs)| stop(d).map(|_| secs)) {
            Ok(secs) if timed => out.setup_s.push(secs),
            Ok(_) => {}
            Err(e) => {
                out.note(e);
                return out;
            }
        }
    }
    let mut rss = Vec::with_capacity(SEGMENTS);
    for s in 0..SEGMENTS {
        let rss0 = rss_mb();
        let (mut d, setup) = match boot(detect) {
            Ok(x) => x,
            Err(e) => {
                out.note(e);
                break;
            }
        };
        out.setup_s.push(setup);
        if traced_run && s == 0 {
            out.status_rtt_us = idle_status_rtt_us(&mut d.b);
        }
        let share = Window::open(seconds / SEGMENTS as f64, min_samples().div_ceil(SEGMENTS));
        out.rss_end = f64::NAN;
        let total = segment(&mut d, &mut out, rec, share);
        rec.set_enabled(traced_run);
        rss.push(out.rss_end - rss0);
        finish(d, total, &mut out);
        if !out.problems.is_empty() {
            break;
        }
    }
    out.rss_mb = median(&rss);
    out
}

/// Top-`k` of an offline pipeline, merged and ordered exactly like the
/// engine's `top_k`.
#[must_use]
pub fn offline_top_k(im: &InstaMeasure, k: usize) -> Vec<TopFlow> {
    let mut all: Vec<TopFlow> = im
        .wsaf()
        .top_k_by_packets(k)
        .into_iter()
        .map(|e| TopFlow { key: e.key, packets: e.packets, bytes: e.bytes })
        .collect();
    all.sort_by(|a, b| b.packets.total_cmp(&a.packets).then_with(|| a.key.cmp(&b.key)));
    all.truncate(k);
    all
}

/// Replays `records` offline through one `InstaMeasure` at the daemon's
/// geometry, in the daemon's batch size.
#[must_use]
pub fn offline_replay(records: &[PacketRecord]) -> InstaMeasure {
    let mut im = InstaMeasure::new(per_worker());
    for batch in records.chunks(256) {
        im.process_batch(batch);
    }
    im
}

/// The pcap `caida_ingest` replays and what it holds.
#[derive(Debug, Clone, Copy)]
pub struct Capture<'a> {
    /// The file.
    pub path: &'a Path,
    /// Its frame counts.
    pub shape: PcapShape,
}

/// One `caida_ingest` pass: parse the pcap, push it, wait until the
/// daemon processed all of it. Returns the parsed records and the
/// pass's wall time (s).
fn ingest_pass(
    d: &mut Daemon,
    pcap: Capture<'_>,
    rec: &mut Recorder,
    req: u64,
    total: &mut u64,
    out: &mut Outcome,
) -> Result<(Vec<PacketRecord>, f64), String> {
    let t0 = Instant::now();
    let pass = rec.enter("ingest.pass", req, None);
    let parent = pass.as_ref();
    let parsed = rec.time("packet.read_records_mmap", req, parent, || read_records_mmap(pcap.path));
    let (records, skipped) = parsed.map_err(|e| err("read_records_mmap", e))?;
    if records.len() as u64 != pcap.shape.ip_frames || skipped != pcap.shape.non_ip_frames {
        return Err(format!(
            "pcap parse: {} records + {skipped} skipped, expected {} + {}",
            records.len(),
            pcap.shape.ip_frames,
            pcap.shape.non_ip_frames
        ));
    }
    let n = records.len() as u64;
    let accepted = push(&mut d.a, &records, rec, req, parent)?;
    let drain = rec.enter("client.drain_wait", req, parent);
    let status = settle(&mut d.b, *total + n, &mut out.late)?;
    rec.exit(drain);
    rec.exit(pass);
    let secs = t0.elapsed().as_secs_f64();
    *total += n;
    if accepted == *total
        && status.packets_submitted == *total
        && status.packets_processed == *total
    {
        out.tally.ok(n);
    } else {
        out.fail(
            n,
            format!(
                "pass {req}: {accepted} accepted, {} submitted / {} processed of {total} pushed",
                status.packets_submitted, status.packets_processed
            ),
        );
    }
    Ok((records, secs))
}

/// `caida_ingest`: closed-loop passes of the pcap through
/// `read_records_mmap` → `push_batch`… → `finish` → drain. Each pass's
/// parse-to-drained time is one answer-latency sample. Every segment
/// ends with a fresh epoch, one more pass, and the daemon's top-k
/// compared against an offline replay of the same records.
pub fn caida_ingest(pcap: Capture<'_>, seconds: f64, rec: &mut Recorder) -> Outcome {
    let traced_run = rec.enabled();
    run_segments(false, seconds, rec, |d, out, rec, share| {
        let mut total = 0u64;
        // Warm-up: one untimed pass (WSAF population, allocator state).
        if let Err(e) = ingest_pass(d, pcap, rec, 0, &mut total, out) {
            out.note(e);
        }
        let window = share.restart();
        let mut samples = 0;
        while out.correct() && window.more(samples) {
            let (req, traced) = out.request(traced_run);
            rec.set_enabled(traced);
            match ingest_pass(d, pcap, rec, req, &mut total, out) {
                Ok((records, secs)) => {
                    out.answers_ms.push(secs * 1e3);
                    out.pass_rate(traced, records.len() as u64, secs);
                    samples += 1;
                }
                Err(e) => out.note(e),
            }
        }
        rec.set_enabled(traced_run);
        out.window_done(d);
        if out.correct() {
            let verified = d.b.rotate().map_err(|e| err("rotate", e)).and_then(|_| {
                let (records, _) = ingest_pass(d, pcap, rec, 0, &mut total, out)?;
                let live = d.b.top_k(TOP_K).map_err(|e| err("top_k", e))?;
                Ok((records, live))
            });
            match verified {
                Ok((records, live)) => {
                    let offline = offline_top_k(&offline_replay(&records), TOP_K as usize);
                    if live != offline || live.is_empty() {
                        out.fail(
                            records.len() as u64,
                            format!(
                                "daemon top_k({TOP_K}) ({} flows) differs from the offline \
                                 replay ({} flows)",
                                live.len(),
                                offline.len()
                            ),
                        );
                    }
                }
                Err(e) => out.note(e),
            }
        }
        total
    })
}

/// What the open-loop querier measured.
#[derive(Debug, Default)]
struct QuerierReport {
    latencies_ms: Vec<f64>,
    tally: Tally,
    max_late: Duration,
}

/// The open-loop querier: point queries over `keys`, every
/// [`TOP_K_EVERY`]-th request a `top_k`, each timed from its due time.
fn querier(
    client: &mut ServiceClient,
    addr: std::net::SocketAddr,
    keys: &[FlowKey],
    start: Instant,
    stop: &AtomicBool,
    rec: &mut Recorder,
) -> QuerierReport {
    let mut report = QuerierReport::default();
    let mut schedule = OpenLoop::new(start, QUERY_RATE_HZ);
    while !stop.load(Ordering::SeqCst) {
        let due = schedule.next_due();
        let now = Instant::now();
        if now < due {
            std::thread::sleep((due - now).min(Duration::from_millis(5)));
            continue;
        }
        let due = schedule.claim(Instant::now());
        let i = schedule.claimed() - 1;
        let req = i + 1;
        let result = if i % TOP_K_EVERY == TOP_K_EVERY - 1 {
            rec.time("client.top_k", req, None, || client.top_k(TOP_K)).map(|_| ())
        } else {
            let key = keys[i as usize % keys.len()];
            rec.time("client.query_flow", req, None, || client.query_flow(&key)).map(|_| ())
        };
        match result {
            Ok(()) => {
                report.latencies_ms.push(due.elapsed().as_secs_f64() * 1e3);
                report.tally.ok(1);
            }
            Err(e) => {
                report.tally.fail(1, format!("query {i}: {e}"));
                // A timed-out reply may still arrive; a fresh connection
                // keeps later replies in step.
                match ServiceClient::connect_with_timeout(addr, REPLY_TIMEOUT) {
                    Ok(c) => *client = c,
                    Err(e) => {
                        report.tally.fail(1, format!("reconnect: {e}"));
                        break;
                    }
                }
            }
        }
    }
    report.max_late = schedule.max_late();
    report
}

/// `caida_query`: the trace pushed from memory pass after pass while an
/// open-loop querier runs on the second connection.
pub fn caida_query(
    records: &[PacketRecord],
    keys: &[FlowKey],
    seconds: f64,
    rec: &mut Recorder,
) -> Outcome {
    let traced_run = rec.enabled();
    let n = records.len() as u64;
    run_segments(false, seconds, rec, |d, out, rec, share| {
        let mut total = 0u64;
        // Warm-up pass, untimed and without queries.
        let mut late = Duration::ZERO;
        let warm = push(&mut d.a, records, rec, 0, None);
        total += n;
        match warm.and_then(|acc| settle(&mut d.a, total, &mut late).map(|_| acc)) {
            Ok(acc) if acc == total => {}
            Ok(acc) => out.note(format!("warm-up pass: {acc} of {n} accepted")),
            Err(e) => out.note(e),
        }

        let addr = d.server.local_addr();
        let stop_flag = AtomicBool::new(false);
        let mut qrec = rec.fork(traced_run);
        let window = share.restart();
        let (report, last_req) = std::thread::scope(|s| {
            let (tap, ops) = (&mut d.a, &mut d.b);
            let qrec = &mut qrec;
            let stop_ref = &stop_flag;
            let handle = s.spawn(move || querier(ops, addr, keys, window.start, stop_ref, qrec));
            // The querier's sample count follows from its fixed rate.
            let due = || (window.start.elapsed().as_secs_f64() * QUERY_RATE_HZ) as usize;
            while out.problems.is_empty() && !handle.is_finished() && window.more(due()) {
                let (req, traced) = out.request(traced_run);
                rec.set_enabled(traced);
                let t0 = Instant::now();
                match push(tap, records, rec, req, None) {
                    Ok(acc) => {
                        out.pass_rate(traced, n, t0.elapsed().as_secs_f64());
                        total += n;
                        if acc != total {
                            out.note(format!("pass {req}: {acc} accepted of {total} pushed"));
                        }
                    }
                    Err(e) => out.note(e),
                }
            }
            stop_flag.store(true, Ordering::SeqCst);
            (handle.join().expect("the querier thread does not panic"), out.next_req)
        });
        rec.set_enabled(traced_run);
        // The window's one drain wait: after its last pass.
        let drain = rec.enter("client.drain_wait", last_req, None);
        match settle(&mut d.a, total, &mut late) {
            Ok(s) if s.packets_submitted == total => {}
            Ok(s) => out.note(format!("{} submitted, {total} pushed", s.packets_submitted)),
            Err(e) => out.note(e),
        }
        rec.exit(drain);
        out.next_req += 1;
        out.window_done(d);
        for r in report.tally.reasons() {
            out.note(r.clone());
        }
        out.tally.absorb(report.tally);
        out.answers_ms.extend(report.latencies_ms);
        out.late = out.late.max(report.max_late).max(late);
        rec.absorb(qrec);
        total
    })
}

/// One `scan_detect` epoch: push background + scan and wait until it is
/// processed (untimed), then time `rotate()` → the scanner's
/// super-spreader alert. Returns `(packets, ingest s, alert s)`.
fn scan_epoch_run(
    d: &mut Daemon,
    background: &[PacketRecord],
    rec: &mut Recorder,
    e: u64,
    total: &mut u64,
    late: &mut Duration,
) -> Result<(u64, f64, f64), String> {
    let (records, scanner) = scan_epoch(background, e);
    let n = records.len() as u64;
    let t0 = Instant::now();
    let span = rec.enter("detect.epoch", e, None);
    let parent = span.as_ref();
    let accepted = push(&mut d.a, &records, rec, e, parent)?;
    let drain = rec.enter("client.drain_wait", e, parent);
    let status = settle(&mut d.b, *total + n, late)?;
    rec.exit(drain);
    let ingest_s = t0.elapsed().as_secs_f64();
    *total += n;
    if accepted != *total || status.packets_submitted != *total {
        return Err(format!(
            "epoch {e}: {accepted} accepted, {} submitted of {total} pushed",
            status.packets_submitted
        ));
    }
    let t1 = Instant::now();
    let open = rec.enter("client.rotate_to_alert", e, parent);
    let (new_epoch, _) = d.b.rotate().map_err(|e| err("rotate", e))?;
    loop {
        match d.b.next_alert().map_err(|e| err("alert stream", e))? {
            Some((closed, a))
                if closed + 1 == new_epoch
                    && a.kind == AnomalyKind::SuperSpreader
                    && a.subject == Subject::Host(scanner) =>
            {
                break
            }
            Some(_) => {}
            None => return Err(format!("epoch {e}: no spreader alert on the scanner")),
        }
    }
    rec.exit(open);
    rec.exit(span);
    Ok((n, ingest_s, t1.elapsed().as_secs_f64()))
}

/// `scan_detect`: closed-loop epochs of [`scan_epoch_run`].
pub fn scan_detect(background: &[PacketRecord], seconds: f64, rec: &mut Recorder) -> Outcome {
    let traced_run = rec.enabled();
    run_segments(true, seconds, rec, |d, out, rec, share| {
        let mut total = 0u64;
        let mut late = Duration::ZERO;
        // Warm-up epoch: gives the detectors a previous epoch to compare.
        if let Err(e) = scan_epoch_run(d, background, rec, 0, &mut total, &mut late) {
            out.note(e);
        }
        let window = share.restart();
        let mut samples = 0;
        while out.problems.len() < 3 && window.more(samples) {
            let (e, traced) = out.request(traced_run);
            rec.set_enabled(traced);
            match scan_epoch_run(d, background, rec, e, &mut total, &mut late) {
                Ok((n, ingest_s, alert_s)) => {
                    out.tally.ok(1);
                    // Ingest rate over the push-and-drain phase only: the
                    // timed alert path does no ingest.
                    out.answers_ms.push(alert_s * 1e3);
                    out.pass_rate(traced, n, ingest_s);
                    samples += 1;
                }
                Err(msg) => out.fail(1, msg),
            }
        }
        out.late = out.late.max(late);
        out.window_done(d);
        total
    })
}
