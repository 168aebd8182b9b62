//! Fig. 7 — WSAF ips relaxation: FlowRegulator passes ~1% of packets to
//! the WSAF where RCC passes ~12%, leaving DRAM ample margin.

use instameasure_autotune::MachineProfile;
use instameasure_memmodel::{MarginAnalysis, MemoryTechnology};
use instameasure_sketch::{FlowFilter, FlowRegulator, SketchConfig};
use instameasure_traffic::presets::caida_like;

use crate::{fmt_count, print_checks, BenchArgs, Instrumented, PaperCheck, Snapshot};

/// Runs the Fig. 7 experiment: pps vs RCC-ips vs FlowRegulator-ips over
/// the CAIDA-like trace (128 KB sketches, the paper's real-world config).
pub fn run(args: &BenchArgs) -> Snapshot {
    let trace = caida_like(0.15 * args.scale, args.seed);
    println!("# Fig 7: WSAF insertion-rate relaxation (FR vs RCC)");
    println!(
        "# trace: {} packets, {} flows",
        fmt_count(trace.stats.packets as f64),
        fmt_count(trace.stats.flows as f64)
    );

    // Paper: FlowRegulator with 128 KB DRAM total => 32 KB per layer.
    let fr_cfg = SketchConfig::builder()
        .memory_bytes(32 * 1024)
        .vector_bits(8)
        .seed(args.seed)
        .build()
        .unwrap();
    let rcc_cfg = SketchConfig::builder()
        .memory_bytes(128 * 1024)
        .vector_bits(8)
        .seed(args.seed)
        .build()
        .unwrap();
    let mut fr = FlowRegulator::new(fr_cfg);
    let mut rcc = FlowRegulator::single_layer(rcc_cfg);

    let bin = 1_000_000_000u64;
    println!("bin_s\tpps\trcc_ips\tfr_ips\trcc_rate\tfr_rate");
    let mut rows: Vec<(u64, u64, u64, u64)> = Vec::new();
    let mut bin_start = 0u64;
    let (mut p, mut ur, mut uf) = (0u64, 0u64, 0u64);
    let (mut prev_r, mut prev_f) = (0u64, 0u64);
    for r in &trace.records {
        while r.ts_nanos >= bin_start + bin {
            rows.push((bin_start, p, ur, uf));
            bin_start += bin;
            p = 0;
            ur = 0;
            uf = 0;
        }
        p += 1;
        rcc.process(r);
        fr.process(r);
        let sr = rcc.stats().updates;
        let sf = fr.stats().updates;
        ur += sr - prev_r;
        uf += sf - prev_f;
        prev_r = sr;
        prev_f = sf;
    }
    rows.push((bin_start, p, ur, uf));
    for (t, p, ur, uf) in &rows {
        if *p == 0 {
            continue;
        }
        println!(
            "{:.0}\t{}\t{}\t{}\t{:.4}\t{:.4}",
            *t as f64 / 1e9,
            p,
            ur,
            uf,
            *ur as f64 / *p as f64,
            *uf as f64 / *p as f64
        );
    }

    let fr_rate = fr.stats().regulation_rate();
    let rcc_rate = rcc.stats().regulation_rate();
    // Cross-check against the noise-free analytic model (sketch::analysis).
    let sizes: Vec<u64> = trace.stats.truth.packets.values().copied().collect();
    let fr_analytic = instameasure_sketch::analysis::expected_regulation_rate(&fr_cfg, &sizes, 2);
    let rcc_analytic = instameasure_sketch::analysis::expected_regulation_rate(&rcc_cfg, &sizes, 1);
    println!("# analytic (noise-free) rates: FR {:.4}, RCC {:.4}", fr_analytic, rcc_analytic);
    let pps = trace.stats.mean_pps();
    // Accesses per insertion follow the configured probe chain (2 layers
    // for FR, 1 for RCC), not the old blanket two-access constant; the
    // access latency is the paper's 80 ns DRAM figure unless a calibrated
    // profile (INSTAMEASURE_PROFILE, written by `instameasure tune`)
    // supplies this host's measured number.
    let fr_probes = instameasure_sketch::analysis::expected_probes_per_insert(&fr_cfg, &sizes, 2);
    let rcc_probes = instameasure_sketch::analysis::expected_probes_per_insert(&rcc_cfg, &sizes, 1);
    let measured_ns = std::env::var_os(instameasure_autotune::PROFILE_PATH_ENV)
        .map(std::path::PathBuf::from)
        .and_then(|p| MachineProfile::load(&p).ok())
        .map(|p| p.dram_ns());
    match measured_ns {
        Some(ns) => println!("# WSAF access latency: {ns:.1} ns (calibrated profile)"),
        None => println!(
            "# WSAF access latency: 80.0 ns (paper DRAM constant; point \
             INSTAMEASURE_PROFILE at a calibrated profile to use this host's)"
        ),
    }
    let margin_for = |rate: f64, probes: f64| {
        let mut m = MarginAnalysis::new(pps, rate, MemoryTechnology::Dram)
            .with_probes_per_insert(probes.max(1.0));
        if let Some(ns) = measured_ns {
            m = m.with_access_nanos(ns);
        }
        m.margin()
    };
    let fr_margin = margin_for(fr_rate, fr_probes);
    let rcc_margin = margin_for(rcc_rate, rcc_probes);
    println!("# DRAM margin at trace pps: FR {fr_margin:.1}x, RCC {rcc_margin:.1}x");

    print_checks(
        "fig7",
        &[
            PaperCheck {
                name: "FlowRegulator regulation rate".into(),
                paper: "1.02% (128 KB DRAM)".into(),
                measured: format!("{:.2}%", fr_rate * 100.0),
                holds: fr_rate < 0.05,
            },
            PaperCheck {
                name: "RCC regulation rate".into(),
                paper: "~12% (112 kips @ ~1 Mpps)".into(),
                measured: format!("{:.2}%", rcc_rate * 100.0),
                holds: (0.05..0.30).contains(&rcc_rate),
            },
            PaperCheck {
                name: "FR vs RCC improvement factor".into(),
                paper: "~12x".into(),
                measured: format!("{:.1}x", rcc_rate / fr_rate.max(1e-9)),
                holds: rcc_rate / fr_rate.max(1e-9) > 4.0,
            },
            PaperCheck {
                name: "measured rates match the analytic chain model".into(),
                paper: "(model, not in paper)".into(),
                measured: format!(
                    "FR {:.2}% vs model {:.2}%; RCC {:.2}% vs model {:.2}%",
                    fr_rate * 100.0,
                    fr_analytic * 100.0,
                    rcc_rate * 100.0,
                    rcc_analytic * 100.0
                ),
                holds: (fr_rate - fr_analytic).abs() / fr_analytic < 0.5
                    && (rcc_rate - rcc_analytic).abs() / rcc_analytic < 0.5,
            },
        ],
    );

    // The FlowRegulator's full regulator.* telemetry (including the
    // regulation_rate gauge this figure is about), the baseline RCC's
    // rcc.* metrics, and the figure-level margin gauges.
    let mut snap = fr.telemetry();
    snap.merge(&rcc.telemetry());
    snap.set_gauge("fig.fr_dram_margin", fr_margin);
    snap.set_gauge("fig.rcc_dram_margin", rcc_margin);
    snap.set_gauge("fig.fr_analytic_rate", fr_analytic);
    snap.set_gauge("fig.rcc_analytic_rate", rcc_analytic);
    snap
}
