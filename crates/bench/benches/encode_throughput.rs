//! Micro-bench: per-packet encode cost of the regulators — the substrate
//! of paper Fig. 9(a)'s Mpps numbers.

use instameasure_bench::harness::{self, Timer};
use instameasure_sketch::{FlowFilter, FlowRegulator, SketchConfig};
use instameasure_traffic::presets::caida_like;

fn main() {
    let samples = if harness::smoke() { 1 } else { 10 };
    let trace = caida_like(0.01, 7);
    let records = &trace.records;
    let cfg = SketchConfig::builder().memory_bytes(32 * 1024).vector_bits(8).build().unwrap();

    for (name, build) in [
        ("flow_regulator", FlowRegulator::new as fn(SketchConfig) -> FlowRegulator),
        ("single_layer_rcc", FlowRegulator::single_layer),
    ] {
        let (timer, _) = Timer::repeat(samples, || {
            let mut filter = build(cfg);
            records.iter().filter(|r| filter.process(r).is_some()).count()
        });
        timer.print(&format!("encode_throughput/{name}/{}", records.len()), records.len());
    }
}
