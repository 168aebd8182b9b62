//! Fig. 1 — RCC's saturation (WSAF insertion) rate is 12–19% of the packet
//! arrival rate, too high for an in-DRAM WSAF.

use instameasure_sketch::{FlowFilter, FlowRegulator, SketchConfig};
use instameasure_traffic::presets::caida_like;

use crate::{fmt_count, print_checks, BenchArgs, Instrumented, PaperCheck, Snapshot};

/// Runs the Fig. 1 experiment: replay the CAIDA-like trace through
/// single-layer RCC with 8- and 16-bit virtual vectors and print the
/// per-second pps/ips series.
pub fn run(args: &BenchArgs) -> Snapshot {
    let trace = caida_like(0.15 * args.scale, args.seed);
    println!("# Fig 1: RCC saturation rate vs packet arrival rate");
    println!(
        "# trace: {} packets, {} flows, {:.1}s",
        fmt_count(trace.stats.packets as f64),
        fmt_count(trace.stats.flows as f64),
        trace.stats.duration_nanos as f64 / 1e9
    );

    let mem = 128 * 1024;
    let mut rcc8 = FlowRegulator::single_layer(
        SketchConfig::builder().memory_bytes(mem).vector_bits(8).seed(args.seed).build().unwrap(),
    );
    let mut rcc16 = FlowRegulator::single_layer(
        SketchConfig::builder().memory_bytes(mem).vector_bits(16).seed(args.seed).build().unwrap(),
    );

    let bin = 1_000_000_000u64; // 1 s bins
    println!("bin_s\tpps\trcc8_ips\trcc8_rate\trcc16_ips\trcc16_rate");
    let mut bin_start = 0u64;
    let (mut p, mut u8_, mut u16_) = (0u64, 0u64, 0u64);
    let (mut prev8, mut prev16) = (0u64, 0u64);
    let mut rows = Vec::new();
    for r in &trace.records {
        while r.ts_nanos >= bin_start + bin {
            rows.push((bin_start, p, u8_, u16_));
            bin_start += bin;
            p = 0;
            u8_ = 0;
            u16_ = 0;
        }
        p += 1;
        rcc8.process(r);
        rcc16.process(r);
        let s8 = rcc8.stats().updates;
        let s16 = rcc16.stats().updates;
        u8_ += s8 - prev8;
        u16_ += s16 - prev16;
        prev8 = s8;
        prev16 = s16;
    }
    rows.push((bin_start, p, u8_, u16_));

    for (t, p, u8_, u16_) in &rows {
        let (p, u8_, u16_) = (*p as f64, *u8_ as f64, *u16_ as f64);
        if p == 0.0 {
            continue;
        }
        println!(
            "{:.0}\t{:.0}\t{:.0}\t{:.3}\t{:.0}\t{:.3}",
            *t as f64 / 1e9,
            p,
            u8_,
            u8_ / p,
            u16_,
            u16_ / p
        );
    }

    let rate8 = rcc8.stats().regulation_rate();
    let rate16 = rcc16.stats().regulation_rate();
    print_checks(
        "fig1",
        &[
            PaperCheck {
                name: "RCC 8-bit saturation rate".into(),
                paper: "~19% of pps".into(),
                measured: format!("{:.1}%", rate8 * 100.0),
                holds: (0.08..0.30).contains(&rate8),
            },
            PaperCheck {
                name: "RCC 16-bit saturation rate".into(),
                paper: "~12% of pps".into(),
                measured: format!("{:.1}%", rate16 * 100.0),
                holds: (0.04..0.20).contains(&rate16) && rate16 < rate8,
            },
            PaperCheck {
                name: "rate exceeds SRAM/DRAM speed margin (5-10%)".into(),
                paper: "yes -> RCC unusable for In-DRAM WSAF".into(),
                measured: format!("8-bit {:.1}% > 10%", rate8 * 100.0),
                holds: rate8 > 0.10,
            },
        ],
    );

    let mut snap = rcc8.telemetry().prefixed("rcc8");
    snap.merge(&rcc16.telemetry().prefixed("rcc16"));
    snap
}
