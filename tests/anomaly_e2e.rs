//! Adversarial traffic + alert-latency battery for the streaming
//! detection suite in the live daemon.
//!
//! Each scenario pushes a labeled attack trace from
//! `instameasure_traffic::adversarial` over loopback TCP, closes the
//! epoch, and asserts the *right* alert reaches a subscribed client —
//! right kind, right subject (the ground-truth attacker or victim), and
//! within the paper's detection budget: onset→alert is client-timed
//! from the rotate request to the alert frame's arrival and gated at
//! [`alert_budget`] (10 ms unless `INSTAMEASURE_DETECT_BUDGET_MS`
//! overrides it — CI machines differ, the default is the paper's
//! number). The benign baseline proves the other half: replaying the
//! same unremarkable trace across epochs raises **zero** alerts.

use std::time::{Duration, Instant};

use instameasure::core::detect::{Anomaly, AnomalyKind, DetectorConfig, Subject};
use instameasure::core::InstaMeasureConfig;
use instameasure::packet::{FlowKey, PacketRecord, Protocol};
use instameasure::service::server::{Server, ServiceConfig};
use instameasure::service::{DetectionConfig, ServiceClient};
use instameasure::traffic::adversarial::{collision_flood, horizontal_scan, pulse_wave, syn_flood};
use instameasure::traffic::{merge_records, SyntheticTraceBuilder};

/// The onset→alert budget: the paper's ~10 ms instant-detection claim,
/// overridable for slow CI via `INSTAMEASURE_DETECT_BUDGET_MS`.
fn alert_budget() -> Duration {
    let ms = std::env::var("INSTAMEASURE_DETECT_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    Duration::from_millis(ms)
}

fn start_detect_with(
    workers: usize,
    per_worker: InstaMeasureConfig,
    interval: Option<Duration>,
    detectors: DetectorConfig,
) -> Server {
    let cfg = ServiceConfig::builder()
        .addr("127.0.0.1:0")
        .workers(workers)
        .batch_size(256)
        .read_timeout(Duration::from_secs(5))
        .per_worker(per_worker)
        .detect(DetectionConfig { interval, detectors })
        .build()
        .expect("static test config is valid");
    Server::start(cfg).expect("loopback bind")
}

fn start_detect(workers: usize) -> Server {
    start_detect_with(
        workers,
        InstaMeasureConfig::default().small_for_tests(),
        None,
        DetectorConfig::default(),
    )
}

/// A subscriber connection with a short read timeout, so "no alert"
/// checks return quickly instead of hanging for the default 10 s.
fn subscriber(server: &Server, kinds: u8) -> ServiceClient {
    let mut sub = ServiceClient::connect_with_timeout(server.local_addr(), Duration::from_secs(1))
        .expect("loopback connect");
    let (_epoch, mask) = sub.subscribe(kinds).expect("detection is enabled");
    assert_ne!(mask, 0, "effective mask is never empty");
    sub
}

/// Pushes a trace and waits until the shards have processed every
/// packet, so the following rotate closes an epoch that contains the
/// whole scenario.
fn push_and_settle(tap: &mut ServiceClient, ops: &mut ServiceClient, records: &[PacketRecord]) {
    // The fin ack reports the connection's cumulative accepted packets.
    let accepted = tap.push_records(records).expect("push over loopback");
    assert!(accepted >= records.len() as u64, "fin ack covers this push");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = ops.status().expect("status query");
        if s.packets_processed == s.packets_submitted {
            return;
        }
        assert!(Instant::now() < deadline, "shards never caught up");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Drains every buffered/incoming alert until the read timeout lapses.
fn drain_alerts(sub: &mut ServiceClient) -> Vec<(u64, Anomaly)> {
    let mut out = Vec::new();
    while let Some(hit) = sub.next_alert().expect("alert stream stays classified") {
        out.push(hit);
    }
    out
}

fn stop(server: Server, clients: Vec<ServiceClient>) {
    drop(clients); // closed sockets let handler threads exit immediately
    server.request_stop();
    server.join();
}

#[test]
fn benign_baseline_raises_zero_alerts_across_epochs() {
    let server = start_detect(2);
    let mut tap = ServiceClient::connect(server.local_addr()).unwrap();
    let mut sub = subscriber(&server, 0);

    // The same unremarkable Zipf trace in two consecutive epochs: the
    // absolute detectors see no fan anomaly, and the differential
    // detectors see a bit-identical window — nothing may fire.
    let trace = SyntheticTraceBuilder::new().num_flows(2_000).seed(7).build();
    push_and_settle(&mut tap, &mut sub, &trace.records);
    let (epoch, retired) = sub.rotate().unwrap();
    assert_eq!(epoch, 1);
    assert!(retired > 0, "the benign epoch was not empty");
    push_and_settle(&mut tap, &mut sub, &trace.records);
    sub.rotate().unwrap();

    let alerts = drain_alerts(&mut sub);
    assert!(alerts.is_empty(), "benign baseline must stay silent, got {alerts:?}");
    stop(server, vec![tap, sub]);
}

#[test]
fn syn_flood_raises_a_ddos_victim_alert_within_budget() {
    // `serve`'s default geometry (a 2^20-slot WSAF per shard): the budget
    // must hold at the table size a daemon boots with, where an epoch
    // close that walked every slot would blow it.
    let server =
        start_detect_with(2, InstaMeasureConfig::default(), None, DetectorConfig::default());
    let mut tap = ServiceClient::connect(server.local_addr()).unwrap();
    let mut sub = subscriber(&server, 0);

    let (records, truth) = syn_flood(200, 300, 0);
    let victim = truth.victim.expect("syn flood has a victim");
    let budget = alert_budget();

    // Best-of-N: the budget gates the detection path itself, not one
    // unlucky scheduler hiccup on a loaded CI machine.
    let mut best = Duration::MAX;
    for round in 0..5u32 {
        push_and_settle(&mut tap, &mut sub, &records);
        let t0 = Instant::now();
        let (epoch, _) = sub.rotate().unwrap();
        // The daemon writes alert frames before the Rotated ack, so the
        // verdict is already buffered client-side here.
        let hit = loop {
            match sub.next_alert().unwrap() {
                Some((alert_epoch, a)) if a.kind == AnomalyKind::DdosVictim => {
                    break (alert_epoch, a);
                }
                Some(_) => continue,
                None => panic!("round {round}: flood epoch closed but no victim alert arrived"),
            }
        };
        best = best.min(t0.elapsed());

        let (alert_epoch, alert) = hit;
        assert_eq!(alert_epoch, epoch - 1, "the alert names the closed epoch");
        assert_eq!(
            alert.subject,
            Subject::Host(victim),
            "the alert must name the ground-truth victim"
        );
        assert!(alert.score >= alert.threshold, "score clears the threshold: {alert:?}");
    }
    assert!(
        best <= budget,
        "onset->alert latency {best:?} exceeds the {budget:?} detection budget"
    );
    stop(server, vec![tap, sub]);
}

#[test]
fn horizontal_scan_raises_a_super_spreader_alert_on_the_scanner() {
    let server = start_detect(2);
    let mut tap = ServiceClient::connect(server.local_addr()).unwrap();
    let mut sub = subscriber(&server, 0);

    let (records, truth) = horizontal_scan(200, 300, 0);
    let scanner = truth.attacker.expect("scan has a scanner");
    push_and_settle(&mut tap, &mut sub, &records);
    sub.rotate().unwrap();

    let alerts = drain_alerts(&mut sub);
    assert!(
        alerts
            .iter()
            .any(|(_, a)| a.kind == AnomalyKind::SuperSpreader
                && a.subject == Subject::Host(scanner)),
        "scan must be pinned on the scanner: {alerts:?}"
    );
    assert!(
        !alerts.iter().any(|(_, a)| a.kind == AnomalyKind::DdosVictim),
        "every scanned destination has fan-in 1; no victim alert is justified: {alerts:?}"
    );
    stop(server, vec![tap, sub]);
}

#[test]
fn collision_flood_is_detected_despite_probe_chain_stress() {
    // The WSAF-collision flood caps its own resident fan-out at the
    // table's probe window (16 under the test config), so this daemon
    // runs a tuned spreader threshold below that — the scenario proves
    // detection keeps working while the table's probe chains are
    // maximally stressed, not that default thresholds cover it.
    let detectors = DetectorConfig { spreader_fanout: 12, ..DetectorConfig::default() };
    let server =
        start_detect_with(2, InstaMeasureConfig::default().small_for_tests(), None, detectors);
    let mut tap = ServiceClient::connect(server.local_addr()).unwrap();
    let mut sub = subscriber(&server, 0);

    let wsaf_cfg = InstaMeasureConfig::default().small_for_tests().wsaf;
    let (records, truth) = collision_flood(&wsaf_cfg, 96, 300, 0);
    let attacker = truth.attacker.expect("collision flood has an attacker");
    push_and_settle(&mut tap, &mut sub, &records);
    sub.rotate().unwrap();

    let alerts = drain_alerts(&mut sub);
    assert!(
        alerts
            .iter()
            .any(|(_, a)| a.kind == AnomalyKind::SuperSpreader
                && a.subject == Subject::Host(attacker)),
        "collision flood must surface as a spreader on the attacker: {alerts:?}"
    );
    stop(server, vec![tap, sub]);
}

#[test]
fn pulse_wave_alerts_fire_at_pulse_epochs_and_clear_at_quiet_ones() {
    let server = start_detect(2);
    let mut tap = ServiceClient::connect(server.local_addr()).unwrap();
    let mut sub = subscriber(&server, 0);

    let (bursts, truth) = pulse_wave(2, 150, 300, 1_000_000);
    let victim = truth.victim.expect("pulse wave has a victim");
    let is_victim_alert = |(_, a): &(u64, Anomaly)| {
        a.kind == AnomalyKind::DdosVictim && a.subject == Subject::Host(victim)
    };

    // Pulse 1 → alert.
    push_and_settle(&mut tap, &mut sub, &bursts[0]);
    sub.rotate().unwrap();
    let alerts = drain_alerts(&mut sub);
    assert!(alerts.iter().any(is_victim_alert), "pulse epoch must alert: {alerts:?}");

    // Quiet epoch → the alert clears (nothing resident, nothing fires).
    sub.rotate().unwrap();
    let alerts = drain_alerts(&mut sub);
    assert!(alerts.is_empty(), "quiet epoch must stay silent: {alerts:?}");

    // Pulse 2 → the alert returns.
    push_and_settle(&mut tap, &mut sub, &bursts[1]);
    sub.rotate().unwrap();
    let alerts = drain_alerts(&mut sub);
    assert!(alerts.iter().any(is_victim_alert), "second pulse must re-alert: {alerts:?}");
    stop(server, vec![tap, sub]);
}

#[test]
fn elephant_swing_raises_heavy_change_and_entropy_shift() {
    let server = start_detect(2);
    let mut tap = ServiceClient::connect(server.local_addr()).unwrap();
    let mut sub = subscriber(&server, 0);

    // Epoch 1: forty uniform flows (distinct endpoints, equal sizes) —
    // normalized entropy is ~1 and nothing is anomalous.
    let uniform: Vec<PacketRecord> = (0..40u16)
        .flat_map(|f| {
            let key = FlowKey::new(
                [20, 0, (f >> 8) as u8, f as u8],
                [30, 0, (f >> 8) as u8, f as u8],
                5000,
                5001,
                Protocol::Udp,
            );
            (0..300u64).map(move |t| PacketRecord::new(key, 200, u64::from(f) * 300 + t))
        })
        .collect();
    push_and_settle(&mut tap, &mut sub, &uniform);
    sub.rotate().unwrap();
    let alerts = drain_alerts(&mut sub);
    assert!(alerts.is_empty(), "the uniform epoch is unremarkable: {alerts:?}");

    // Epoch 2: the same mix plus one overwhelming elephant — packet
    // mass concentrates, entropy collapses, and the elephant itself is
    // a heavy change against the empty baseline.
    let elephant_key = FlowKey::new([198, 51, 100, 9], [203, 0, 113, 7], 40_009, 80, Protocol::Udp);
    let elephant: Vec<PacketRecord> =
        (0..300_000u64).map(|t| PacketRecord::new(elephant_key, 1400, t)).collect();
    let swung = merge_records(vec![uniform.clone(), elephant]);
    push_and_settle(&mut tap, &mut sub, &swung);
    sub.rotate().unwrap();

    let alerts = drain_alerts(&mut sub);
    let heavy = alerts
        .iter()
        .find(|(_, a)| a.kind == AnomalyKind::HeavyChange)
        .unwrap_or_else(|| panic!("the elephant must register as a heavy change: {alerts:?}"));
    assert_eq!(heavy.1.subject, Subject::Flow(elephant_key), "heavy change names the elephant");
    assert!(heavy.1.score > 0.0, "the swing was upward");
    let entropy = alerts
        .iter()
        .find(|(_, a)| a.kind == AnomalyKind::EntropyShift)
        .unwrap_or_else(|| panic!("entropy collapse must raise a shift alert: {alerts:?}"));
    assert_eq!(
        entropy.1.subject,
        Subject::Flow(elephant_key),
        "the shift's lead subject is the dominant flow"
    );
    assert!(entropy.1.score < 0.0, "mass concentration lowers entropy");
    stop(server, vec![tap, sub]);
}

#[test]
fn subscription_mask_filters_delivery_without_silencing_detection() {
    let server = start_detect(2);
    let mut tap = ServiceClient::connect(server.local_addr()).unwrap();
    // Subscribed to DDoS-victim alerts only; the scenario is a scan.
    let mut sub = subscriber(&server, AnomalyKind::DdosVictim.bit());

    let (records, _) = horizontal_scan(200, 300, 0);
    push_and_settle(&mut tap, &mut sub, &records);
    sub.rotate().unwrap();

    assert!(
        drain_alerts(&mut sub).is_empty(),
        "a victim-only subscriber must not receive spreader alerts"
    );
    // …but the daemon still detected and counted the spreader.
    let snap = server.registry().snapshot();
    assert!(
        snap.counter("detect.alerts.super_spreader").unwrap_or(0) >= 1,
        "the verdict itself must still be produced and counted"
    );
    stop(server, vec![tap, sub]);
}

#[test]
fn subscribe_is_rejected_when_detection_is_disabled() {
    let cfg = ServiceConfig::builder()
        .addr("127.0.0.1:0")
        .workers(1)
        .read_timeout(Duration::from_secs(2))
        .per_worker(InstaMeasureConfig::default().small_for_tests())
        .build()
        .unwrap();
    let server = Server::start(cfg).unwrap();
    let mut client = ServiceClient::connect(server.local_addr()).unwrap();
    match client.subscribe(0) {
        Err(instameasure::service::ClientError::Remote { class, .. }) => {
            assert_eq!(class, "unsupported");
        }
        other => panic!("subscribe without detection must be classified, got {other:?}"),
    }
    stop(server, vec![client]);
}

#[test]
fn periodic_interval_delivers_alerts_without_protocol_rotates() {
    // The daemon's own epoch clock closes epochs; nobody sends Rotate.
    // A rotation may land mid-push and split the scan across epochs, so
    // the push retries until an epoch holds the whole scan.
    let server = start_detect_with(
        2,
        InstaMeasureConfig::default().small_for_tests(),
        Some(Duration::from_millis(200)),
        DetectorConfig::default(),
    );
    let mut sub = subscriber(&server, 0);
    let mut tap = ServiceClient::connect(server.local_addr()).unwrap();

    let (records, truth) = horizontal_scan(300, 300, 0);
    let scanner = truth.attacker.expect("scan has a scanner");
    let mut found = None;
    'attempts: for _ in 0..5 {
        tap.push_records(&records).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline {
            if let Some((epoch, a)) = sub.next_alert().unwrap() {
                if a.kind == AnomalyKind::SuperSpreader && a.subject == Subject::Host(scanner) {
                    found = Some((epoch, a));
                    break 'attempts;
                }
            }
        }
    }
    let (_, alert) = found.expect("the periodic clock never surfaced the scan");
    assert!(alert.score >= alert.threshold);
    stop(server, vec![tap, sub]);
}
