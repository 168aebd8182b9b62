//! Criterion micro-bench: per-packet encode cost of the regulators —
//! the substrate of paper Fig. 9(a)'s Mpps numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use instameasure_sketch::{FlowFilter, FlowRegulator, SketchConfig};
use instameasure_traffic::presets::caida_like;

fn encode_throughput(c: &mut Criterion) {
    let trace = caida_like(0.01, 7);
    let records = &trace.records;
    let cfg = SketchConfig::builder().memory_bytes(32 * 1024).vector_bits(8).build().unwrap();

    let mut group = c.benchmark_group("encode_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records.len() as u64));

    group.bench_function(BenchmarkId::new("flow_regulator", records.len()), |b| {
        b.iter(|| {
            let mut fr = FlowRegulator::new(cfg);
            let mut updates = 0u64;
            for r in records {
                if fr.process(r).is_some() {
                    updates += 1;
                }
            }
            updates
        });
    });

    group.bench_function(BenchmarkId::new("single_layer_rcc", records.len()), |b| {
        b.iter(|| {
            let mut rcc = FlowRegulator::single_layer(cfg);
            let mut updates = 0u64;
            for r in records {
                if rcc.process(r).is_some() {
                    updates += 1;
                }
            }
            updates
        });
    });

    group.finish();
}

criterion_group!(benches, encode_throughput);
criterion_main!(benches);
