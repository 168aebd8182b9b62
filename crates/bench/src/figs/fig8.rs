//! Fig. 8 — retention capacity (a), saturation frequency (b) and accuracy
//! cost (c) of FlowRegulator vs RCC across virtual-vector sizes.

use instameasure_packet::{FlowKey, PacketRecord, Protocol};
use instameasure_sketch::{decode, FlowFilter, FlowRegulator, SketchConfig};
use instameasure_traffic::presets::caida_like;

use crate::{print_checks, BenchArgs, PaperCheck, Snapshot};

fn lone_flow_key() -> FlowKey {
    FlowKey::new([10, 1, 2, 3], [10, 4, 5, 6], 7777, 443, Protocol::Tcp)
}

/// Simulated retention capacity and saturation frequency of a regulator
/// for a single isolated flow: (mean packets between WSAF updates,
/// updates per packet).
fn simulate_single_flow(reg: &mut dyn FlowFilter, packets: u64) -> (f64, f64) {
    let key = lone_flow_key();
    for t in 0..packets {
        reg.process(&PacketRecord::new(key, 600, t));
    }
    let s = reg.stats();
    let updates = s.updates.max(1);
    (s.packets as f64 / updates as f64, s.updates as f64 / s.packets as f64)
}

/// Mean relative error of a regulator over the elephants of a small
/// CAIDA-like trace (released + residual vs truth) — panel (c).
fn accuracy_on_trace(reg: &mut dyn FlowFilter, args: &BenchArgs) -> f64 {
    use std::collections::HashMap;
    let trace = caida_like(0.01 * args.scale, args.seed);
    let mut released: HashMap<FlowKey, f64> = HashMap::new();
    for r in &trace.records {
        if let Some(u) = reg.process(r) {
            *released.entry(u.key).or_insert(0.0) += u.est_pkts;
        }
    }
    let min_size = (trace.stats.packets / 1000).max(100);
    let mut errs = Vec::new();
    for (key, truth) in trace.stats.truth.flows_at_least(min_size) {
        let est = released.get(&key).copied().unwrap_or(0.0) + reg.residual_packets(&key);
        errs.push((est - truth as f64).abs() / truth as f64);
    }
    errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

/// Runs the Fig. 8 experiment across total vector sizes 8–64 bits.
pub fn run(args: &BenchArgs) -> Snapshot {
    println!("# Fig 8: retention capacity / saturation frequency / accuracy vs vector size");
    println!("# total_bits: FR splits bits across its two layers; RCC uses them in one layer");
    println!(
        "total_bits\trcc_retention\tfr_retention\trcc_sat_freq\tfr_sat_freq\trcc_err\tfr_err\trcc_model\tfr_model"
    );

    let packets = (500_000.0 * args.scale) as u64;
    let mut checks: Vec<PaperCheck> = Vec::new();
    let mut fr16_retention = 0.0;
    let mut rcc16_retention = 0.0;
    let mut rcc64_retention = 0.0;
    let mut fr16_err = 0.0;
    let mut rcc16_err = 0.0;

    for total_bits in [8u32, 16, 32, 64] {
        let rcc_cfg = SketchConfig::builder()
            .memory_bytes(64 * 1024)
            .vector_bits(total_bits)
            .seed(args.seed)
            .build()
            .unwrap();
        let fr_bits = total_bits / 2;
        let fr_cfg = SketchConfig::builder()
            .memory_bytes(64 * 1024)
            .vector_bits(fr_bits)
            .seed(args.seed)
            .build()
            .unwrap();

        let mut rcc = FlowRegulator::single_layer(rcc_cfg);
        let (rcc_ret, rcc_freq) = simulate_single_flow(&mut rcc, packets);
        let mut fr = FlowRegulator::new(fr_cfg);
        let (fr_ret, fr_freq) = simulate_single_flow(&mut fr, packets);

        let mut rcc_acc = FlowRegulator::single_layer(rcc_cfg);
        let rcc_err = accuracy_on_trace(&mut rcc_acc, args);
        let mut fr_acc = FlowRegulator::new(fr_cfg);
        let fr_err = accuracy_on_trace(&mut fr_acc, args);

        // Analytical models: RCC retains one coupon epoch; FR retains the
        // product of its two layers' epochs.
        let rcc_model = decode::saturation_period(total_bits, (3 * total_bits / 8).max(1));
        let e1 = decode::saturation_period(fr_bits, (3 * fr_bits / 8).max(1));
        let fr_model = e1 * e1;

        println!(
            "{total_bits}\t{rcc_ret:.1}\t{fr_ret:.1}\t{rcc_freq:.4}\t{fr_freq:.4}\t{rcc_err:.4}\t{fr_err:.4}\t{rcc_model:.1}\t{fr_model:.1}"
        );

        if total_bits == 16 {
            fr16_retention = fr_ret;
            rcc16_retention = rcc_ret;
            fr16_err = fr_err;
            rcc16_err = rcc_err;
        }
        if total_bits == 64 {
            rcc64_retention = rcc_ret;
        }
    }

    checks.push(PaperCheck {
        name: "FR(16-bit) retention ~100 pkts, ~10x RCC(16-bit)".into(),
        paper: "FR ~100; RCC 8-bit only ~9".into(),
        measured: format!("FR {fr16_retention:.0}, RCC {rcc16_retention:.0}"),
        holds: fr16_retention > 3.0 * rcc16_retention && fr16_retention > 30.0,
    });
    checks.push(PaperCheck {
        name: "RCC grows additively: 64-bit retains only ~77".into(),
        paper: "77 pkts @ 64-bit".into(),
        measured: format!("{rcc64_retention:.0} pkts"),
        holds: (30.0..120.0).contains(&rcc64_retention),
    });
    checks.push(PaperCheck {
        name: "FR pays small accuracy penalty vs RCC".into(),
        paper: "small except 8-bit total (Fig. 8c)".into(),
        measured: format!("FR {:.2}% vs RCC {:.2}% @16-bit", fr16_err * 100.0, rcc16_err * 100.0),
        holds: fr16_err < 0.25,
    });
    print_checks("fig8", &checks);

    let mut snap = Snapshot::new();
    snap.set_gauge("fig.fr16.retention", fr16_retention);
    snap.set_gauge("fig.rcc16.retention", rcc16_retention);
    snap.set_gauge("fig.rcc64.retention", rcc64_retention);
    snap.set_gauge("fig.fr16.elephant_err", fr16_err);
    snap.set_gauge("fig.rcc16.elephant_err", rcc16_err);
    snap
}
