//! End-to-end acceptance of the auto-tuner: a solved plan must deliver
//! its stated accuracy and predicted regulation on a real replay at every
//! depth the solver emits, an auto-tuned daemon must serve its plan over
//! the wire (and re-solve it at rotation), and the `tune --apply` →
//! `analyze --config` CLI path must boot from a plan file.

use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use instameasure::autotune::{
    measured_epsilon, replay, solve, zipf_sizes, MachineProfile, TuneRequest,
};
use instameasure::core::InstaMeasureConfig;
use instameasure::packet::{FlowKey, PacketRecord, Protocol};
use instameasure::service::server::{Server, ServiceConfig};
use instameasure::service::tune::TuneState;
use instameasure::service::{ClientError, DetectionConfig, ServiceClient};

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("im_tune_e2e_{}_{name}", std::process::id()));
    p
}

/// The headline acceptance check: solve an accuracy target on the
/// golden machine, replay a 400k-flow synthetic trace through the
/// materialized pipeline, and require the delivered packet-weighted
/// relative error to stay inside the stated epsilon.
#[test]
fn solved_plan_meets_its_stated_epsilon_on_a_400k_flow_trace() {
    let profile = MachineProfile::paper();
    let epsilon = 0.1;
    let req = TuneRequest::accuracy(1.0e6, epsilon, 0.05);
    // 400k concurrent flows, Zipf sizes with a 10k-packet elephant —
    // small enough per flow that the replay stays test-sized, large
    // enough that the WSAF sizing rule is genuinely exercised.
    let sizes = zipf_sizes(400_000, 10_000);
    let plan = solve(&profile, &req, &sizes).expect("0.1 epsilon at 1 Mpps is feasible");
    assert!(plan.predicted_epsilon <= epsilon, "{plan}");

    let measured = measured_epsilon(&plan, &sizes, 50, 0xE2E);
    assert!(
        measured <= epsilon,
        "plan delivered {measured:.4} relative error against the stated {epsilon} target: {plan}"
    );
}

/// An accuracy target at a rate only a depth-2 plan can absorb. The
/// error model is far too optimistic at depth 2 (a b = 32 plan predicted
/// at 0.023 delivers ~0.13 here), so the solver must either find a plan
/// that meets the target or refuse.
#[test]
fn line_rate_accuracy_plans_meet_their_epsilon_or_are_refused() {
    let epsilon = 0.1;
    let sizes = zipf_sizes(20_000, 100_000);
    let req = TuneRequest::accuracy(1.0e9, epsilon, 0.05);
    if let Some(plan) = solve(&MachineProfile::paper(), &req, &sizes) {
        let measured = measured_epsilon(&plan, &sizes, 50, 0xE2E);
        assert!(
            measured <= epsilon,
            "plan delivered {measured:.4} relative error against the stated {epsilon}: {plan}"
        );
    }
}

/// For each depth the solver emits, the materialized pipeline runs that
/// depth and regulates within 15% of the plan's prediction.
#[test]
fn materialized_plans_regulate_as_predicted_at_each_depth() {
    let sizes = zipf_sizes(2_000, 20_000);
    for (req, depth) in
        [(TuneRequest::throughput(150e3, 2.0), 1), (TuneRequest::throughput(1.2e9, 2.0), 2)]
    {
        let plan = solve(&MachineProfile::paper(), &req, &sizes).expect("throughput target solves");
        assert_eq!(plan.layers, depth, "{plan}");
        let (im, _) = replay(&plan, &sizes, 0xE2E).expect("plan materializes");
        assert_eq!(im.filter_kind(), plan.filter_kind());
        assert_eq!(im.filter_kind().regulator_depth(), Some(depth));
        let stats = im.filter_stats();
        assert_eq!(stats.packets, sizes.iter().sum::<u64>());
        let ratio = stats.regulation_rate() / plan.predicted_regulation;
        assert!(
            (0.85..=1.15).contains(&ratio),
            "depth {depth}: measured regulation {:.5} vs predicted {:.5} (ratio {ratio:.3}): {plan}",
            stats.regulation_rate(),
            plan.predicted_regulation
        );
    }
}

/// The infeasible direction must fail loudly, not return a plan that
/// silently misses the target.
#[test]
fn impossible_targets_are_refused_not_approximated() {
    let profile = MachineProfile::paper();
    let req = TuneRequest::accuracy(1.0e6, 0.001, 0.01);
    assert!(solve(&profile, &req, &zipf_sizes(50_000, 100_000)).is_none());
}

#[test]
fn auto_tuned_daemon_serves_and_retunes_the_plan_over_the_wire() {
    let profile = MachineProfile::paper();
    let request = TuneRequest::accuracy(0.5e6, 0.2, 0.1);
    let sizes = zipf_sizes(10_000, 50_000);
    let plan = solve(&profile, &request, &sizes).expect("loose target solves");
    let per_worker = plan.to_config(7).expect("plan materializes");

    let cfg = ServiceConfig::builder()
        .workers(1)
        .per_worker(per_worker)
        .read_timeout(Duration::from_secs(5))
        .detect(DetectionConfig::default())
        .auto_tune(TuneState { profile, request, plan, shards: 1 })
        .build()
        .expect("valid service config");
    let server = Server::start(cfg).expect("server starts");
    let addr = server.local_addr();

    // The handshake: the served report is the boot plan, verbatim.
    let mut ops = ServiceClient::connect(addr).expect("client connects");
    let report = ops.query_plan().expect("auto-tuned daemon answers QueryPlan");
    assert_eq!(report.l1_memory_bytes, plan.l1_memory_bytes);
    assert_eq!(report.vector_bits, plan.vector_bits);
    assert_eq!(report.layers, plan.layers);
    assert_eq!(report.wsaf_entries_log2, plan.wsaf_entries_log2);
    assert!((report.predicted_epsilon - plan.predicted_epsilon).abs() < 1e-12);

    // Push one epoch of traffic and rotate: the rotation drives the
    // epoch re-tuner, and the served plan must still be a live reply
    // (same geometry here — the traffic is tiny, so the re-solve lands
    // on the smallest feasible candidate again or is simply recorded).
    let records: Vec<PacketRecord> = (0..200u32)
        .flat_map(|f| {
            let key = FlowKey::new(
                f.to_be_bytes(),
                (f ^ 0xABCD).to_be_bytes(),
                (f % 65_535) as u16,
                443,
                Protocol::Udp,
            );
            (0..40u64).map(move |t| PacketRecord::new(key, 120, t * 1000 + u64::from(f)))
        })
        .collect();
    let mut tap = ServiceClient::connect(addr).expect("tap connects");
    assert_eq!(tap.push_records(&records).expect("push succeeds"), records.len() as u64);
    let (epoch, _retired) = ops.rotate().expect("rotate succeeds");
    assert_eq!(epoch, 1);

    let retuned = ops.query_plan().expect("plan still served after rotation");
    assert!(retuned.vector_bits > 0 && retuned.wsaf_entries_log2 >= 14);

    // The tuner saw the epoch: its telemetry recorded the re-solve.
    let telemetry = ops.telemetry_json().expect("telemetry");
    assert!(
        telemetry.contains("tune.resolves") || telemetry.contains("tune.infeasible"),
        "tune.* instruments missing from telemetry: {telemetry}"
    );

    ops.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn a_daemon_without_auto_tune_rejects_plan_queries_as_unsupported() {
    let cfg = ServiceConfig::builder()
        .workers(1)
        .per_worker(InstaMeasureConfig::default().small_for_tests())
        .read_timeout(Duration::from_secs(5))
        .build()
        .expect("valid service config");
    let server = Server::start(cfg).expect("server starts");
    let server = Arc::new(server);

    let mut ops = ServiceClient::connect(server.local_addr()).expect("client connects");
    match ops.query_plan() {
        Err(ClientError::Remote { class, .. }) => assert_eq!(class, "unsupported"),
        other => panic!("expected an unsupported rejection, got {other:?}"),
    }

    server.request_stop();
    match Arc::try_unwrap(server) {
        Ok(s) => {
            s.join();
        }
        Err(_) => panic!("server handle still shared"),
    }
}

/// The CLI loop: `tune --apply` writes a plan file from a cached
/// profile, and `analyze --config` boots the offline pipeline from it.
#[test]
fn tune_apply_then_analyze_config_runs_the_planned_pipeline() {
    let bin = env!("CARGO_BIN_EXE_instameasure");
    let profile_path = tmp("profile.txt");
    let plan_path = tmp("plan.txt");
    let pcap = tmp("trace.pcap");

    // Deterministic: pre-seed the profile cache with the golden fixture
    // so the test never depends on this host's actual latencies.
    MachineProfile::paper().save(&profile_path).expect("profile cache written");

    let out = Command::new(bin)
        .args([
            "tune",
            "--pps",
            "1e6",
            "--epsilon",
            "0.1",
            "--profile",
            profile_path.to_str().unwrap(),
            "--apply",
            plan_path.to_str().unwrap(),
        ])
        .output()
        .expect("tune runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(cached)"), "tune recalibrated despite the cache: {stdout}");
    assert!(stdout.contains("plan:"), "{stdout}");
    assert!(plan_path.exists(), "tune --apply did not write the plan file");

    let out = Command::new(bin)
        .args(["generate", pcap.to_str().unwrap(), "--scale", "0.004", "--seed", "11"])
        .output()
        .expect("generate runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = Command::new(bin)
        .args([
            "analyze",
            pcap.to_str().unwrap(),
            "--config",
            plan_path.to_str().unwrap(),
            "--top",
            "3",
        ])
        .output()
        .expect("analyze runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("configured from"), "{stdout}");
    assert!(stdout.contains("top 3 flows by packets"), "{stdout}");

    std::fs::remove_file(&profile_path).ok();
    std::fs::remove_file(&plan_path).ok();
    std::fs::remove_file(&pcap).ok();
}
