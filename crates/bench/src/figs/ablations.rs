//! Ablation studies of the design choices DESIGN.md calls out.
//!
//! Not a paper figure — these quantify *why* the paper's design decisions
//! matter by toggling each one:
//!
//! A. number of layers (1 = RCC, 2 = the paper's design; the two depths
//!    the pipeline runs)
//! B. per-noise-class L2 counters vs one shared L2
//! C. hash reuse across layers vs independent L2 hashing
//! D. WSAF probe limit
//! E. WSAF eviction policy (second-chance vs min-packets vs oldest)

use std::collections::HashMap;

use instameasure_packet::FlowKey;
use instameasure_sketch::{decode, FlowFilter, FlowRegulator, FlowRegulatorOptions, SketchConfig};
use instameasure_traffic::presets::caida_like;
use instameasure_traffic::Trace;
use instameasure_wsaf::{EvictionPolicy, WsafConfig, WsafTable};

use crate::{fmt_count, BenchArgs, Instrumented, Snapshot};

/// Mean relative error over the trace's elephants for any regulator.
fn elephant_error(reg: &mut dyn FlowFilter, trace: &Trace, min_size: u64) -> f64 {
    let mut released: HashMap<FlowKey, f64> = HashMap::new();
    for r in &trace.records {
        if let Some(u) = reg.process(r) {
            *released.entry(u.key).or_insert(0.0) += u.est_pkts;
        }
    }
    let flows = trace.stats.truth.flows_at_least(min_size);
    let mut err = 0.0;
    for (key, truth) in &flows {
        let est = released.get(key).copied().unwrap_or(0.0) + reg.residual_packets(key);
        err += (est - *truth as f64).abs() / *truth as f64;
    }
    err / flows.len().max(1) as f64
}

fn sketch_cfg(seed: u64) -> SketchConfig {
    SketchConfig::builder().memory_bytes(8 * 1024).vector_bits(8).seed(seed).build().unwrap()
}

fn study_layers(trace: &Trace, min_size: u64, seed: u64) {
    println!("# A. layer count (8 KB/layer): regulation rate vs accuracy");
    println!("layers\tregulation\tretention_model\telephant_err\tmemory_kb");
    let cfg = sketch_cfg(seed);
    // Packets one release stands for: one saturation period per layer.
    let period = decode::saturation_period(cfg.vector_bits(), cfg.noise_max());
    for mut reg in [FlowRegulator::single_layer(cfg), FlowRegulator::new(cfg)] {
        let err = elephant_error(&mut reg, trace, min_size);
        println!(
            "{}\t{:.5}\t{:.0}\t{:.4}\t{}",
            reg.depth(),
            reg.stats().regulation_rate(),
            period.powi(reg.depth() as i32),
            err,
            reg.memory_bytes() / 1024
        );
    }
}

fn study_classes(trace: &Trace, min_size: u64, seed: u64) {
    println!("# B. per-class L2 vs shared L2");
    println!("design\tregulation\telephant_err\tmemory_kb");
    for (name, shared) in [("per_class", false), ("shared", true)] {
        let mut reg = FlowRegulator::with_options(
            sketch_cfg(seed),
            FlowRegulatorOptions { shared_l2: shared, ..Default::default() },
        );
        let err = elephant_error(&mut reg, trace, min_size);
        println!(
            "{name}\t{:.5}\t{:.4}\t{}",
            reg.stats().regulation_rate(),
            err,
            reg.memory_bytes() / 1024
        );
    }
}

fn study_hash_reuse(trace: &Trace, min_size: u64, seed: u64) {
    println!("# C. hash reuse vs independent L2 hash");
    println!("design\thashes_per_pkt\telephant_err");
    for (name, indep) in [("reuse", false), ("independent", true)] {
        let mut reg = FlowRegulator::with_options(
            sketch_cfg(seed),
            FlowRegulatorOptions { independent_l2_hash: indep, ..Default::default() },
        );
        let err = elephant_error(&mut reg, trace, min_size);
        let s = reg.stats();
        println!("{name}\t{:.4}\t{:.4}", s.hashes as f64 / s.packets as f64, err);
    }
}

fn study_probe_limit(trace: &Trace, seed: u64) {
    println!("# D. WSAF probe limit (2^9-entry table, overloaded on purpose)");
    println!("probe_limit\tfinal_entries\tload_factor\tprobes_per_op");
    for probe in [4usize, 8, 16, 32, 64] {
        let mut table = WsafTable::new(
            WsafConfig::builder()
                .entries_log2(9)
                .probe_limit(probe)
                .expiry_nanos(u64::MAX / 2)
                .seed(seed)
                .build()
                .unwrap(),
        );
        let mut reg = FlowRegulator::new(sketch_cfg(seed));
        for r in &trace.records {
            if let Some(u) = reg.process(r) {
                table.accumulate(&u.key, u.est_pkts, u.est_bytes, u.ts_nanos);
            }
        }
        println!(
            "{probe}\t{}\t{:.3}\t{:.2}",
            table.len(),
            table.load_factor(),
            table.stats().probes_per_op()
        );
    }
}

/// Study E; its tables' telemetry is the `--metrics-json` payload.
fn study_eviction(trace: &Trace, seed: u64) -> Snapshot {
    println!("# E. WSAF eviction policy under overload: true-top-100 retention");
    println!("policy\ttop100_retained\tevictions");
    let truth_top: Vec<FlowKey> =
        trace.stats.truth.top_k(100, false).into_iter().map(|(k, _)| k).collect();
    let mut snap = Snapshot::new();
    for (name, policy) in [
        ("second_chance", EvictionPolicy::SecondChance),
        ("min_packets", EvictionPolicy::MinPackets),
        ("oldest", EvictionPolicy::Oldest),
    ] {
        let mut table = WsafTable::new(
            WsafConfig::builder()
                .entries_log2(9) // 512 entries — heavy overload
                .probe_limit(16)
                .expiry_nanos(u64::MAX / 2)
                .eviction(policy)
                .seed(seed)
                .build()
                .unwrap(),
        );
        let mut reg = FlowRegulator::new(sketch_cfg(seed));
        for r in &trace.records {
            if let Some(u) = reg.process(r) {
                table.accumulate(&u.key, u.est_pkts, u.est_bytes, u.ts_nanos);
            }
        }
        let retained = truth_top.iter().filter(|k| table.get(k).is_some()).count();
        println!("{name}\t{retained}\t{}", table.stats().evictions);
        snap.merge(&table.telemetry().prefixed(name));
        snap.set_gauge(format!("fig.{name}_top100_retained"), retained as f64);
    }
    snap
}

/// Runs all ablation studies.
pub fn run(args: &BenchArgs) -> Snapshot {
    let trace = caida_like(0.1 * args.scale, args.seed);
    let min_size = 500;
    println!(
        "# Ablations on a {}-packet / {}-flow CAIDA-like trace; elephants = flows >= {min_size} pkts",
        fmt_count(trace.stats.packets as f64),
        fmt_count(trace.stats.flows as f64)
    );
    study_layers(&trace, min_size, args.seed);
    study_classes(&trace, min_size, args.seed);
    study_hash_reuse(&trace, min_size, args.seed);
    study_probe_limit(&trace, args.seed);
    study_eviction(&trace, args.seed)
}
