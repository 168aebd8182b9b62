//! Hot-path dispatch matrix: the per-packet scalar oracle
//! ([`InstaMeasure::process`]) against the batched pipeline
//! ([`InstaMeasure::process_batch`]) under both dispatch tiers
//! (forced-scalar kernels vs AVX2 where the host supports it) across a
//! sweep of batch sizes × software-prefetch distances, on the harness's
//! cache-hostile workload — a multi-megabyte L1 arena and hundreds of
//! thousands of flows, so every packet's counter word is a likely DRAM
//! miss that prefetching can hide and the hash/placement arithmetic the
//! SIMD kernels vectorize is what's left on the critical path.
//!
//! Each cell is the best of a few replays, `InstaMeasure::new` included.
//! `BENCH_hotpath.json` records packets/sec for every cell and the
//! winner. A `HOTPATH-REGRESSION` line prints when:
//!
//! * the best batched configuration is slower than scalar;
//! * AVX2 is available but the best SIMD cell does not beat the best
//!   forced-scalar batched cell;
//! * the batch-64 dip returns — mid-size batches must hold at least a
//!   fixed fraction of the throughput of their 16/256 neighbours (the
//!   dip was a fixed prefetch distance overshooting the batch; the
//!   distance sweep plus runtime clamping keeps it fixed).
//!
//! Smoke mode shrinks the trace and rep count to a few seconds — a
//! compile-and-sanity gate, not a measurement.

use instameasure_bench::harness::{self, Gate, Obj, Timer};
use instameasure_core::InstaMeasure;
use instameasure_packet::PacketRecord;
use instameasure_packet::{prefetch, simd};

/// Batch sizes the comparison sweeps; spans well below and above every
/// prefetch distance in the sweep.
const BATCH_SIZES: [usize; 4] = [16, 64, 256, 1024];
/// Prefetch distances the matrix sweeps around the compiled default.
const DISTANCES: [usize; 4] = [4, 8, 16, 32];

/// One measured cell of the dispatch matrix.
struct Cell {
    tier: &'static str,
    batch_size: usize,
    distance: usize,
    pps: f64,
    speedup: f64,
}

impl Cell {
    fn json(&self) -> Obj {
        Obj::default()
            .with("tier", self.tier)
            .with("batch_size", self.batch_size)
            .with("prefetch_distance", self.distance)
            .with("pps", self.pps)
            .with("speedup", self.speedup)
    }
}

/// Best-of-`reps` packets/second of replaying `records` into a fresh
/// system, `batch_size` packets at a time (`None`: per packet).
fn best_pps(records: &[PacketRecord], reps: usize, batch_size: Option<usize>) -> f64 {
    let (timer, _) = Timer::repeat(reps, || {
        let mut im = InstaMeasure::new(harness::cache_hostile_config());
        if let Some(n) = batch_size {
            records.chunks(n).for_each(|chunk| im.process_batch(chunk));
        } else {
            for r in records {
                im.process(r);
            }
        }
        im.wsaf().len()
    });
    timer.rate(records.len())
}

/// Times every (tier × batch size × prefetch distance) cell. The batched
/// tiers are forced-scalar kernels always, plus AVX2 dispatch when this
/// host can run it. Restores the process-global dispatch tier and
/// prefetch distance afterwards.
fn run_matrix(records: &[PacketRecord], reps: usize, scalar_pps: f64) -> Vec<Cell> {
    let mut tiers = vec![("batched", true)];
    if simd::simd_supported() {
        tiers.push(("batched+avx2", false));
    }
    let mut cells = Vec::new();
    for (tier, disable_simd) in tiers {
        simd::set_simd_disabled(disable_simd);
        for &distance in &DISTANCES {
            prefetch::set_prefetch_distance(distance);
            for &batch_size in &BATCH_SIZES {
                let pps = best_pps(records, reps, Some(batch_size));
                let speedup = pps / scalar_pps;
                println!(
                    "hot_path: {tier:>13} batch {batch_size:>5} dist {distance:>2}: \
                     {:.2} Mpps ({speedup:.2}x scalar)",
                    pps / 1e6
                );
                cells.push(Cell { tier, batch_size, distance, pps, speedup });
            }
        }
    }
    simd::set_simd_disabled(false);
    prefetch::set_prefetch_distance(prefetch::PREFETCH_DISTANCE);
    cells
}

/// Best speedup among cells matching `pred`, or 0 when none do.
fn best_where(cells: &[Cell], pred: impl Fn(&Cell) -> bool) -> f64 {
    cells.iter().filter(|c| pred(c)).map(|c| c.speedup).fold(0.0, f64::max)
}

fn main() {
    let smoke = harness::smoke();
    let (packets, flows, reps) =
        if smoke { (200_000, 100_000, 1) } else { (4_000_000, 400_000, 3) };
    let records = harness::cache_hostile_workload(packets, flows, 42);

    let scalar_pps = best_pps(&records, reps, None);
    println!("hot_path: scalar {:.2} Mpps baseline", scalar_pps / 1e6);
    let cells = run_matrix(&records, reps, scalar_pps);

    let best = cells.iter().max_by(|a, b| a.pps.total_cmp(&b.pps)).expect("matrix is non-empty");
    let best_batched_scalar = best_where(&cells, |c| c.tier == "batched");
    let best_simd = best_where(&cells, |c| c.tier == "batched+avx2");
    println!(
        "hot_path: best {:.2}x ({} batch {} dist {})",
        best.speedup, best.tier, best.batch_size, best.distance
    );
    harness::record("hot_path")
        .with("packets", records.len())
        .with("flows", flows)
        .with("prefetch_enabled", prefetch::prefetch_enabled())
        .with("simd_supported", simd::simd_supported())
        .with("scalar_pps", scalar_pps)
        .with("matrix", cells.iter().map(Cell::json).collect::<Vec<_>>())
        .with("best", best.json())
        .with("best_batch_size", best.batch_size)
        .with("best_speedup", best.speedup)
        .with("best_batched_scalar_speedup", best_batched_scalar)
        .with("best_simd_speedup", best_simd)
        .write("hotpath");

    let mut gate = Gate::new("HOTPATH");
    // Gate 1: batching must never lose to the per-packet path.
    let speedup = best.speedup;
    gate.fail_if(
        speedup < 1.0,
        format_args!("batched hot path slower than scalar ({speedup:.2}x)"),
    );
    // Gate 2: when the host has AVX2, the vector kernels must beat the
    // best the forced-scalar batched path can do at any distance.
    gate.fail_if(
        simd::simd_supported() && best_simd <= best_batched_scalar,
        format_args!(
            "AVX2 dispatch ({best_simd:.2}x) did not beat batched-scalar \
             ({best_batched_scalar:.2}x)"
        ),
    );
    // Gate 3: the batch-64 dip must stay fixed. With the distance swept
    // rather than pinned at the compiled default, a mid-size batch has a
    // distance that suits it — its best cell must hold near its 16/256
    // neighbours' best. The smoke threshold is looser because a 200k
    // packet replay is noisy.
    let floor = if smoke { 0.70 } else { 0.85 };
    let best_at = |bs: usize| best_where(&cells, |c| c.batch_size == bs);
    let (mid, neighbours) = (best_at(64), best_at(16).min(best_at(256)));
    gate.fail_if(
        mid < neighbours * floor,
        format_args!(
            "batch-64 dip returned ({mid:.2}x vs {neighbours:.2}x at 16/256, floor {floor})"
        ),
    );
}
