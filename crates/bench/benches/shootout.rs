//! Filter shootout: every [`FilterKind`] front end at the *same* total
//! memory budget on the same trace, measuring what the redesign is for —
//! can an alternate filter beat the paper's FlowRegulator on any axis?
//!
//! Per kind the run reports:
//!
//! * **ARE** — average relative error over the top-1000 true flows,
//!   queried through the full pipeline (WSAF + filter residual);
//! * **throughput** — end-to-end replay Mpps through
//!   [`InstaMeasure::process_batch`] in 256-packet chunks, best of a few
//!   replays, construction outside the timed region;
//! * **ips reduction** — `1 − updates/packets`, the fraction of packets
//!   the filter absorbed instead of inserting into the WSAF (paper Fig. 7
//!   territory: the regulator's whole purpose).
//!
//! Results land in `BENCH_shootout.json`; a failed sanity check prints
//! a `SHOOTOUT-REGRESSION` line. Smoke mode shrinks the trace to a few
//! seconds of wall time — a compile-and-sanity gate, not a measurement.

use instameasure_bench::harness::{self, Gate, Obj, Timer};
use instameasure_core::{InstaMeasure, InstaMeasureConfig};
use instameasure_sketch::{FilterKind, SketchConfig, ALL_FILTER_KINDS};
use instameasure_traffic::presets::caida_like;
use instameasure_wsaf::WsafConfig;

const CHUNK: usize = 256;

/// The shared geometry every kind is sized against: a 32 KiB L1 sketch
/// (so [`FilterKind::build`]'s equal-memory anchor gives each filter the
/// same ~128 KiB total) over a 64 Ki-entry WSAF.
fn config(kind: FilterKind, seed: u64) -> InstaMeasureConfig {
    InstaMeasureConfig::default()
        .with_sketch(
            SketchConfig::builder()
                .memory_bytes(32 * 1024)
                .vector_bits(8)
                .seed(seed)
                .build()
                .unwrap(),
        )
        .with_wsaf(WsafConfig::builder().entries_log2(16).build().unwrap())
        .with_filter(kind)
}

fn main() {
    let smoke = harness::smoke();
    let (scale, reps) = if smoke { (0.02, 1) } else { (0.3, 3) };
    let seed = 42u64;
    let trace = caida_like(scale, seed);
    let top: Vec<_> = trace.stats.truth.top_k(1000, false);
    println!(
        "shootout: {} packets, {} flows, {} ranked flows, {} kinds",
        trace.records.len(),
        trace.stats.flows,
        top.len(),
        ALL_FILTER_KINDS.len()
    );

    // Sanity gates: every kind must actually run, keep to the shared
    // budget, and the paper's own design must stay accurate and keep
    // suppressing WSAF insertions.
    let budget = 32 * 1024 * 4; // memory_bytes × (1 + noise_classes) for b=8
    let mut gate = Gate::new("SHOOTOUT");
    let mut rows = Vec::new();
    for kind in ALL_FILTER_KINDS {
        // Every rep builds an identical system; the last one is scored.
        let (timer, im) = Timer::repeat_with(
            reps,
            || InstaMeasure::new(config(kind, seed)),
            |mut im| {
                trace.records.chunks(CHUNK).for_each(|chunk| im.process_batch(chunk));
                im
            },
        );
        let are = top
            .iter()
            .map(|(k, t)| (im.estimate_packets(k) - *t as f64).abs() / *t as f64)
            .sum::<f64>()
            / top.len().max(1) as f64;
        let stats = im.filter_stats();
        let ips_reduction = 1.0 - stats.updates as f64 / stats.packets.max(1) as f64;
        let (name, memory_bytes) = (kind.name(), im.filter().memory_bytes());
        let mpps = timer.rate(trace.records.len()) / 1e6;
        println!(
            "shootout: {name:<10} {memory_bytes:>7} B  {mpps:>7.2} Mpps  ARE {are:.4}  \
             ips-reduction {ips_reduction:.4}"
        );
        rows.push(
            Obj::default()
                .with("kind", name)
                .with("memory_bytes", memory_bytes)
                .with("mpps", mpps)
                .with("are_top1000", are)
                .with("ips_reduction", ips_reduction),
        );

        gate.fail_if(
            !(mpps.is_finite() && mpps > 0.0),
            format_args!("{name} produced no throughput"),
        );
        gate.fail_if(
            memory_bytes > budget,
            format_args!("{name} exceeds the shared budget: {memory_bytes} > {budget} bytes"),
        );
        gate.fail_if(!are.is_finite(), format_args!("{name} ARE is not finite"));
        if kind == FilterKind::Regulator {
            gate.fail_if(are > 0.35, format_args!("regulator ARE {are:.4} above 0.35"));
            gate.fail_if(
                ips_reduction < 0.5,
                format_args!("regulator ips reduction {ips_reduction:.4} below 0.5"),
            );
        }
    }
    harness::record("shootout")
        .with("packets", trace.records.len())
        .with("flows", trace.stats.flows)
        .with("ranked_flows", top.len())
        .with("budget_bytes", budget)
        .with("filters", rows)
        .write("shootout");
}
