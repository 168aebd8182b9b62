//! Every daemon wait ends on its own event. A stop wakes the accept
//! thread, each connection reader and the epoch clock, so a shutdown
//! replies and joins in milliseconds at `ServiceConfig::default()`
//! timeouts (5 s drain grace, 30 s idle cutoff) with idle peers attached,
//! and an idle daemon's accept thread, epoch clock and shard workers
//! never wake on a timer.
//!
//! The tests take one lock, so one daemon runs at a time: the thread
//! checks read every thread of this process from `/proc/self/task`, and
//! the timing checks should not share the CPU with another test's daemon.
#![cfg(not(loom))]

use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use instameasure_core::detect::DetectorConfig;
use instameasure_core::InstaMeasureConfig;
use instameasure_packet::{FlowKey, PacketRecord, Protocol};
use instameasure_service::server::{Server, ServiceConfig};
use instameasure_service::wire::{read_frame, write_frame, Request, Response, DEFAULT_MAX_PAYLOAD};
use instameasure_service::{ClientError, DetectionConfig, ServiceClient};

/// What a stop must finish in with peers attached.
const PROMPT: Duration = Duration::from_millis(200);

static ONE_DAEMON_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_daemon_at_a_time() -> MutexGuard<'static, ()> {
    ONE_DAEMON_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `ServiceConfig::default()`'s timeouts and connection limit on a small
/// one-shard engine; `epoch` arms detection (`Some(None)`: epochs close
/// on `rotate`).
fn config(epoch: Option<Option<Duration>>) -> ServiceConfig {
    let mut builder = ServiceConfig::builder()
        .workers(1)
        .per_worker(InstaMeasureConfig::default().small_for_tests());
    if let Some(interval) = epoch {
        builder =
            builder.detect(DetectionConfig { interval, detectors: DetectorConfig::default() });
    }
    let cfg = builder.build().expect("static test config is valid");
    let defaults = ServiceConfig::default();
    assert_eq!((cfg.drain_grace, cfg.read_timeout), (defaults.drain_grace, defaults.read_timeout));
    cfg
}

/// Who is attached when the daemon stops.
#[derive(Clone, Copy)]
enum Peers {
    Idle(usize),
    Subscriber,
}

/// Connects the peers, each served (one round trip) before this returns.
fn attach(server: &Server, peers: Peers) -> Vec<ServiceClient> {
    let connect = || ServiceClient::connect(server.local_addr()).expect("connect");
    match peers {
        Peers::Idle(n) => (0..n)
            .map(|_| {
                let mut peer = connect();
                peer.status().expect("an admitted peer is served");
                peer
            })
            .collect(),
        Peers::Subscriber => {
            let mut sub = connect();
            sub.subscribe(0).expect("detection is on");
            vec![sub]
        }
    }
}

fn start(peers: Peers) -> Server {
    let epoch = matches!(peers, Peers::Subscriber).then_some(None);
    Server::start(config(epoch)).expect("loopback bind")
}

/// A peer woken by the stop reads one `draining` refusal, then the close.
fn assert_told_draining(peer: &mut ServiceClient) {
    match peer.next_alert() {
        Err(ClientError::Remote { class, .. }) => assert_eq!(class, "draining"),
        other => panic!("expected a draining refusal, got {other:?}"),
    }
    assert!(matches!(peer.next_alert(), Err(ClientError::Disconnected)));
}

/// A `Shutdown` frame sent beside `peers`: the reply and the join.
fn shutdown_frame(peers: Peers) {
    let server = start(peers);
    let mut attached = attach(&server, peers);
    let mut ops = ServiceClient::connect(server.local_addr()).expect("connect");
    let started = Instant::now();
    let report = ops.shutdown().expect("shutdown replies");
    let replied = started.elapsed();
    assert_eq!(server.join(), report, "join returns the drained report");
    let joined = started.elapsed();
    assert!(replied < PROMPT, "shutdown replied after {replied:?}");
    assert!(joined < PROMPT, "join returned after {joined:?}");
    for peer in &mut attached {
        assert_told_draining(peer);
    }
}

/// `request_stop` + `join` beside `peers`.
fn stop_and_join(peers: Peers) {
    let server = start(peers);
    let mut attached = attach(&server, peers);
    let started = Instant::now();
    server.request_stop();
    let report = server.join();
    let joined = started.elapsed();
    assert_eq!(report.packets_submitted, report.packets_processed);
    assert!(joined < PROMPT, "request_stop + join took {joined:?}");
    for peer in &mut attached {
        assert_told_draining(peer);
    }
}

#[test]
fn stop_is_prompt_with_no_clients() {
    let _one = one_daemon_at_a_time();
    shutdown_frame(Peers::Idle(0));
    stop_and_join(Peers::Idle(0));
}

#[test]
fn stop_is_prompt_with_three_idle_clients() {
    let _one = one_daemon_at_a_time();
    shutdown_frame(Peers::Idle(3));
    stop_and_join(Peers::Idle(3));
}

#[test]
fn stop_is_prompt_with_a_quiet_subscriber() {
    let _one = one_daemon_at_a_time();
    shutdown_frame(Peers::Subscriber);
    stop_and_join(Peers::Subscriber);
}

#[test]
fn stop_is_prompt_with_every_connection_slot_taken() {
    let _one = one_daemon_at_a_time();
    let slots = ServiceConfig::default().max_connections;
    // The shutdown frame's own connection takes the last slot.
    shutdown_frame(Peers::Idle(slots - 1));
    stop_and_join(Peers::Idle(slots));
}

#[test]
fn a_tap_frame_after_stop_is_refused_as_draining() {
    let _one = one_daemon_at_a_time();
    let server = start(Peers::Idle(0));
    let key = FlowKey::new([10, 1, 1, 1], [10, 1, 1, 2], 5000, 80, Protocol::Tcp);
    let records: Vec<PacketRecord> = (0..1000).map(|t| PacketRecord::new(key, 64, t)).collect();
    let frame = Request::IngestBatch(records).encode();
    let fin = Request::IngestFin.encode();
    let mut tap = TcpStream::connect(server.local_addr()).expect("connect");
    tap.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    for f in [&frame, &fin] {
        write_frame(&mut tap, f.opcode, &f.payload).unwrap();
    }
    let ack = read_frame(&mut tap, DEFAULT_MAX_PAYLOAD).unwrap().expect("fin-ack");
    assert!(matches!(Response::decode(&ack).unwrap(), Response::FinAck { packets: 1000 }));

    server.request_stop();
    // The frame may race the stop's wake-up of the tap's reader; either
    // way the tap reads one classified refusal. The write may fail once
    // the daemon has closed its side.
    let _ = write_frame(&mut tap, frame.opcode, &frame.payload);
    let reply = read_frame(&mut tap, DEFAULT_MAX_PAYLOAD).unwrap().expect("a refusal frame");
    match Response::decode(&reply).unwrap() {
        Response::Error { class, .. } => assert_eq!(class, "draining"),
        other => panic!("expected a draining refusal, got {other:?}"),
    }
    let snap = server.registry().snapshot();
    assert_eq!(snap.counter("service.rejects.draining"), Some(1));
    let report = server.join();
    assert_eq!((report.packets_submitted, report.packets_processed), (1000, 1000));
}

#[test]
fn a_daemon_bound_to_every_interface_stops_promptly() {
    let _one = one_daemon_at_a_time();
    let cfg = ServiceConfig { addr: "0.0.0.0:0".to_string(), ..config(None) };
    let server = Server::start(cfg).expect("bind");
    let started = Instant::now();
    server.request_stop();
    server.join();
    assert!(started.elapsed() < PROMPT, "stop took {:?}", started.elapsed());
}

/// Per-thread scheduler counters from `/proc/self/task`.
#[cfg(target_os = "linux")]
mod threads {
    use std::fs;

    /// Thread ids of this process.
    pub fn ids() -> Vec<u32> {
        let tasks = fs::read_dir("/proc/self/task").expect("read /proc/self/task");
        tasks.filter_map(|t| t.ok()?.file_name().to_str()?.parse().ok()).collect()
    }

    /// The thread's name (`comm`).
    pub fn name(tid: u32) -> String {
        fs::read_to_string(format!("/proc/self/task/{tid}/comm")).unwrap_or_default().trim().into()
    }

    /// Times the thread blocked: its `voluntary_ctxt_switches`.
    pub fn voluntary_switches(tid: u32) -> u64 {
        let status = fs::read_to_string(format!("/proc/self/task/{tid}/status")).unwrap();
        let line = status.lines().find(|l| l.starts_with("voluntary_ctxt_switches:")).unwrap();
        line.split_whitespace().nth(1).and_then(|n| n.parse().ok()).unwrap()
    }
}

/// Starts a daemon on `cfg` and returns how often each thread named in
/// `names` blocked over 250 ms of idleness, once the daemon's threads
/// have reached their waits.
#[cfg(target_os = "linux")]
fn idle_blocks(cfg: ServiceConfig, names: &[String]) -> Vec<(String, u64)> {
    let before = threads::ids();
    let server = Server::start(cfg).expect("loopback bind");
    thread::sleep(Duration::from_millis(50));
    let fresh: Vec<u32> = threads::ids().into_iter().filter(|t| !before.contains(t)).collect();
    let watched: Vec<(String, u32)> = names
        .iter()
        .map(|name| {
            let mut found = fresh.iter().copied().filter(|&t| threads::name(t) == *name);
            let tid = found.next().unwrap_or_else(|| panic!("no {name} thread"));
            assert!(found.next().is_none(), "two {name} threads");
            (name.clone(), tid)
        })
        .collect();
    let at_start: Vec<u64> =
        watched.iter().map(|&(_, tid)| threads::voluntary_switches(tid)).collect();
    thread::sleep(Duration::from_millis(250));
    let blocks = watched
        .into_iter()
        .zip(at_start)
        .map(|((name, tid), start)| (name, threads::voluntary_switches(tid) - start))
        .collect();
    server.request_stop();
    server.join();
    blocks
}

#[cfg(target_os = "linux")]
#[test]
fn an_idle_daemon_does_not_wake_its_accept_thread_or_epoch_clock() {
    let _one = one_daemon_at_a_time();
    // The first epoch is 1 s away.
    let cfg = config(Some(Some(Duration::from_secs(1))));
    for (name, blocks) in idle_blocks(cfg, &["im-accept".into(), "im-detect".into()]) {
        assert!(blocks <= 2, "{name} blocked {blocks} times in 250 ms");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn an_idle_default_daemon_does_not_wake_its_shard_workers() {
    let _one = one_daemon_at_a_time();
    let cfg = ServiceConfig::default();
    let names: Vec<String> = (0..cfg.workers).map(|w| format!("im-shard-{w}")).collect();
    for (name, blocks) in idle_blocks(cfg, &names) {
        assert!(blocks <= 2, "{name} blocked {blocks} times in 250 ms");
    }
}
