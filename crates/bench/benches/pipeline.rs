//! Micro-bench: the full single-core InstaMeasure pipeline
//! (FlowRegulator + WSAF) vs the baselines on the same trace slice.

use instameasure_baselines::{CsmConfig, CsmSketch, PerFlowCounter, SampledNetflow};
use instameasure_bench::harness::{self, Timer};
use instameasure_core::{InstaMeasure, InstaMeasureConfig};
use instameasure_sketch::SketchConfig;
use instameasure_traffic::presets::caida_like;
use instameasure_wsaf::WsafConfig;

fn main() {
    let samples = if harness::smoke() { 1 } else { 10 };
    let trace = caida_like(0.01, 11);
    let records = &trace.records;
    let print = |name: &str, (timer, _): (Timer, usize)| {
        timer.print(&format!("full_pipeline/{name}"), records.len());
    };

    let cfg = InstaMeasureConfig::default()
        .with_sketch(
            SketchConfig::builder().memory_bytes(32 * 1024).vector_bits(8).build().unwrap(),
        )
        .with_wsaf(WsafConfig::builder().entries_log2(16).build().unwrap());
    let instameasure = Timer::repeat(samples, || {
        let mut im = InstaMeasure::new(cfg);
        for r in records {
            im.process(r);
        }
        im.wsaf().len()
    });
    print("instameasure", instameasure);

    let csm = Timer::repeat(samples, || {
        let mut csm = CsmSketch::new(CsmConfig { num_counters: 1 << 18, vector_len: 100, seed: 3 });
        records.iter().for_each(|r| csm.record(r));
        csm.total_packets() as usize
    });
    print("csm_encode", csm);

    let netflow = Timer::repeat(samples, || {
        let mut nf = SampledNetflow::new(100);
        records.iter().for_each(|r| nf.record(r));
        nf.num_entries()
    });
    print("sampled_netflow_1in100", netflow);
}
