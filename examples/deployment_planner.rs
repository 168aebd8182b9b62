//! Deployment planning: which FlowRegulator configuration does a link
//! need? (The paper's §V-B margin discussion, operationalized.)
//!
//! ```text
//! cargo run --release --example deployment_planner
//! ```
//!
//! Each row asks the auto-tuner's solver for the cheapest regulator (depth
//! 1 or 2, the depths the pipeline runs) that absorbs the link's packet
//! rate at a 3x margin. By default the WSAF memory is a one-point profile
//! at the technology's paper latency (DRAM 80 ns, SRAM 5 ns, TCAM 2 ns).
//! Pass `--profile PATH` (a profile written by `instameasure tune`) to
//! re-plan the DRAM rows against this host's *measured* latency curve:
//!
//! ```text
//! instameasure tune            # calibrates and caches the profile
//! cargo run --release --example deployment_planner -- --profile /tmp/instameasure-profile-v1.txt
//! ```

use instameasure::autotune::{solve, LatencyPoint, MachineProfile, TuneRequest};
use instameasure::memmodel::MemoryTechnology;
use instameasure::traffic::presets::caida_like;

/// A WSAF in `tech` at its paper latency: a one-point profile, flat at
/// every working-set size.
fn technology_profile(tech: MemoryTechnology) -> MachineProfile {
    let paper = MachineProfile::paper();
    MachineProfile::from_parts(
        vec![LatencyPoint { bytes: 1, nanos: tech.access_nanos() }],
        paper.hash_ns(),
        paper.seq_ns(),
        0,
        false,
    )
    .expect("a technology's paper latency is a valid one-point profile")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let profile =
        args.iter().position(|a| a == "--profile").and_then(|i| args.get(i + 1)).map(|path| {
            MachineProfile::load(std::path::Path::new(path)).unwrap_or_else(|e| {
                eprintln!("cannot load profile {path}: {e}");
                std::process::exit(2);
            })
        });

    // Workload sample: flow sizes from a prior measurement window.
    let trace = caida_like(0.02, 7);
    let sizes: Vec<u64> = trace.stats.truth.packets.values().copied().collect();
    println!(
        "workload sample: {} flows, mean size {:.0} pkts",
        sizes.len(),
        sizes.iter().sum::<u64>() as f64 / sizes.len() as f64
    );
    match &profile {
        Some(p) => println!(
            "DRAM latency: measured curve, {:.1} ns plateau (calibrated profile; SRAM/TCAM rows keep paper constants)",
            p.dram_ns()
        ),
        None => println!("DRAM latency: 80.0 ns (paper constant; pass --profile to use a calibrated one)"),
    }

    println!(
        "\n{:<26} {:>10} {:>8} {:>8} {:>12} {:>9}",
        "link / WSAF memory", "pps", "vector", "layers", "regulation", "margin"
    );
    for (name, pps, tech) in [
        ("1 GbE / DRAM", 1.488e6, MemoryTechnology::Dram),
        ("10 GbE / DRAM", 14.88e6, MemoryTechnology::Dram),
        ("40 GbE / DRAM", 59.5e6, MemoryTechnology::Dram),
        ("100 GbE / DRAM", 148.8e6, MemoryTechnology::Dram),
        ("100 GbE / SRAM", 148.8e6, MemoryTechnology::Sram),
        ("100 GbE / TCAM", 148.8e6, MemoryTechnology::Tcam),
    ] {
        // The calibrated profile only replaces the DRAM rows: the measured
        // ladder describes this host's cache/DRAM hierarchy, not an SRAM
        // or TCAM part it doesn't have.
        let memory = match (&profile, tech) {
            (Some(p), MemoryTechnology::Dram) => p.clone(),
            _ => technology_profile(tech),
        };
        match solve(&memory, &TuneRequest::throughput(pps, 3.0), &sizes) {
            Some(p) => println!(
                "{:<26} {:>10.2e} {:>7}b {:>8} {:>11.3}% {:>8.1}x",
                name,
                pps,
                p.vector_bits,
                p.layers,
                p.predicted_regulation * 100.0,
                p.margin
            ),
            None => println!("{name:<26} {pps:>10.2e}  -- no feasible plan --"),
        }
    }
    println!("\n(the paper's design point — 8-bit vectors, 2 layers — covers 10-100 GbE in DRAM)");
}
