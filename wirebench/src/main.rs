//! `wirebench` — the wire-to-answer benchmark.
//!
//! Boots the real daemon in-process on loopback (`serve`'s defaults, one
//! shard) and drives one workload through the public `ServiceClient`:
//!
//! * `caida_ingest` — a header-truncated CAIDA-like pcap, parsed with
//!   `read_records_mmap` and pushed closed-loop, pass after pass (the
//!   path `push --mmap` runs);
//! * `caida_query` — the same trace pushed from memory while an
//!   open-loop querier sends point queries and every tenth a `top_k`;
//! * `scan_detect` — per epoch, background traffic plus a horizontal
//!   scan, then `rotate()` timed until the super-spreader alert arrives.
//!
//! ```text
//! cargo run --release --manifest-path wirebench/Cargo.toml -- \
//!     --workload caida_ingest --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around every layer call (written to
//! `.wirebench/`), times each layer's public functions offline on the
//! same inputs and prints the per-layer metrics. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod inputs;
mod layers;
mod live;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use instameasure::packet::PacketRecord;

use crate::inputs::{caida_trace, query_keys, scan_epoch, write_truncated_pcap, PcapShape};
use crate::layers::Metric;
use crate::live::Outcome;
use crate::spans::Recorder;
use crate::stats::{median, summarize};

/// Where inputs, spans and result files go, relative to the working
/// directory (the repository root).
const WORK_DIR: &str = ".wirebench";

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["caida_ingest", "caida_query", "scan_detect"];

/// A declared metric: name and unit.
type Spec = (&'static str, &'static str);

/// End-to-end metrics (untraced run).
const END_TO_END: [Spec; 5] = [
    ("setup_s", "s"),
    ("ingest_mpps", "Mpps"),
    ("answer_p50_ms", "ms"),
    ("answer_p90_ms", "ms"),
    ("daemon_rss_mb", "MB"),
];

/// Per-layer metrics (traced run).
const PER_LAYER: [Spec; 30] = [
    ("packet.parse_ns_per_pkt", "ns"),
    ("packet.skipped", "count"),
    ("wire.encode_ns_per_pkt", "ns"),
    ("wire.decode_ns_per_pkt", "ns"),
    ("wire.bytes_per_pkt", "B"),
    ("client.push_ns_per_pkt", "ns"),
    ("client.drain_wait_ms", "ms"),
    ("server.status_rtt_us", "us"),
    ("engine.ingest_ns_per_pkt", "ns"),
    ("engine.ring_stalls", "count"),
    ("engine.estimate_ms.p50", "ms"),
    ("engine.estimate_ms.p90", "ms"),
    ("engine.top_k_ms", "ms"),
    ("engine.snapshot_retries", "count"),
    ("engine.rotate_ms", "ms"),
    ("core.process_ns_per_pkt", "ns"),
    ("core.clone_ms", "ms"),
    ("core.estimate_ns", "ns"),
    ("sketch.filter_ns_per_pkt", "ns"),
    ("sketch.regulation_rate", "ratio"),
    ("sketch.updates", "count"),
    ("sketch.packets", "count"),
    ("wsaf.accumulate_ns_per_update", "ns"),
    ("wsaf.resident_flows", "count"),
    ("wsaf.top_k_ms", "ms"),
    ("detect.absorb_ms", "ms"),
    ("detect.evaluate_ms", "ms"),
    ("gen.late_ms", "ms"),
    ("trace.ingest_mpps", "Mpps"),
    ("trace.overhead_pct", "%"),
];

const USAGE: &str =
    "usage: wirebench --workload caida_ingest|caida_query|scan_detect --seed N --seconds S --trace 0|1";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next().map(str::to_string))
                })
                .unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn provenance(args: &Args, trace_packets: u64, trace_flows: usize) -> String {
    let cfg = live::per_worker();
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map_or_else(|_| "unknown".into(), |h| h.trim().to_string());
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let geometry = format!(
        "filter=regulator l1_bytes={} vector_bits={} wsaf_entries={} batch=256 queue_batches=16",
        cfg.sketch.memory_bytes(),
        cfg.sketch.vector_bits(),
        cfg.wsaf.num_entries()
    );
    format!(
        "{{\"commit\":{},\"host\":{},\"cpus\":{cpus},\"cpu_features\":{},\"tier\":{},\
         \"shards\":{},\"geometry\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"trace_packets\":{trace_packets},\"trace_flows\":{trace_flows}}}",
        json_str(&commit()),
        json_str(&host),
        json_str(&instameasure::packet::simd::cpu_features_label()),
        json_str(instameasure::packet::simd::dispatch_tier().label()),
        live::SHARDS,
        json_str(&geometry),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

fn end_to_end(out: &Outcome) -> Result<Vec<Metric>, String> {
    let answers = summarize(&out.answers_ms, live::TAIL).ok_or_else(|| {
        format!(
            "{} answer samples cannot support p{} (need {})",
            out.answers_ms.len(),
            live::TAIL,
            live::min_samples()
        )
    })?;
    if out.rates_mpps.is_empty() || out.setup_s.is_empty() {
        return Err("the run measured no ingest".into());
    }
    println!(
        "answer latency: {} samples, p50 {:.3} ms, p{} {:.3} ms",
        answers.count,
        answers.p50,
        live::TAIL,
        answers.tail
    );
    Ok(vec![
        ("setup_s", median(&out.setup_s)),
        ("ingest_mpps", median(&out.rates_mpps)),
        ("answer_p50_ms", answers.p50),
        ("answer_p90_ms", answers.tail),
        ("daemon_rss_mb", out.rss_mb),
    ])
}

fn per_layer(out: &Outcome, rec: &Recorder, mut metrics: Vec<Metric>) -> Vec<Metric> {
    let push_ns: u64 = rec.timed_durations("client.push_batch").iter().sum();
    let drains: Vec<f64> =
        rec.timed_durations("client.drain_wait").iter().map(|&n| n as f64 / 1e6).collect();
    let rate = |(p, s): (u64, f64)| if s > 0.0 { p as f64 / s / 1e6 } else { f64::NAN };
    let (traced, untraced) = (rate(out.traced), rate(out.untraced));
    metrics.extend([
        ("client.push_ns_per_pkt", push_ns as f64 / out.traced.0.max(1) as f64),
        ("client.drain_wait_ms", median(&drains)),
        ("server.status_rtt_us", out.status_rtt_us),
        ("engine.ring_stalls", out.ring_stalls as f64),
        ("gen.late_ms", out.late.as_secs_f64() * 1e3),
        ("trace.ingest_mpps", traced),
        ("trace.overhead_pct", (1.0 - traced / untraced) * 100.0),
    ]);
    metrics
}

/// The records the traced run's offline layer timings replay: the trace
/// for the CAIDA workloads, one epoch's mix for `scan_detect`.
fn layer_inputs(workload: &str, trace: &[PacketRecord]) -> Vec<PacketRecord> {
    if workload == "scan_detect" {
        scan_epoch(trace, 1).0
    } else {
        trace.to_vec()
    }
}

fn run(args: &Args) -> Result<String, String> {
    let work = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {WORK_DIR}: {e}"))?;
    let trace = caida_trace(args.seed);
    let (trace_packets, trace_flows) = match args.workload.as_str() {
        "scan_detect" => {
            let (epoch, _) = scan_epoch(&trace.records, 1);
            let flows = instameasure::traffic::stats::TraceStats::from_records(&epoch).flows;
            (epoch.len() as u64, flows)
        }
        _ => (trace.stats.packets, trace.stats.flows),
    };
    let prov = provenance(args, trace_packets, trace_flows);
    println!("provenance {prov}");

    let keys = query_keys(&trace, args.seed, 4096);
    let pcap = work.join(format!("{}-seed{}.pcap", args.workload, args.seed));
    let layer_records = layer_inputs(&args.workload, &trace.records);
    // The pcap is the caida_ingest input and, in traced runs, the parse
    // layer's input for every workload.
    let mut shape = PcapShape::default();
    if args.trace || args.workload == "caida_ingest" {
        shape = write_truncated_pcap(&pcap, &layer_records, args.seed)
            .map_err(|e| format!("write {}: {e}", pcap.display()))?;
        // One untimed pass over the pcap so the page cache holds it.
        instameasure::packet::chunk::read_records_mmap(&pcap)
            .map_err(|e| format!("warm-up read of {}: {e}", pcap.display()))?;
    }

    let mut rec = Recorder::new(args.trace);
    let outcome = match args.workload.as_str() {
        "caida_ingest" => {
            live::caida_ingest(live::Capture { path: &pcap, shape }, args.seconds, &mut rec)
        }
        "caida_query" => live::caida_query(&trace.records, &keys, args.seconds, &mut rec),
        _ => live::scan_detect(&trace.records, args.seconds, &mut rec),
    };

    let (metrics, specs): (Vec<Metric>, &[Spec]) = if args.trace {
        let offline = layers::measure(&layer_records, &pcap, &keys)?;
        (per_layer(&outcome, &rec, offline), &PER_LAYER)
    } else {
        (end_to_end(&outcome)?, &END_TO_END)
    };
    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    if args.trace {
        let path = work.join(format!("{stem}.spans.jsonl"));
        std::fs::write(&path, rec.to_jsonl()).map_err(|e| format!("write spans: {e}"))?;
        println!("spans: {} written to {}", rec.spans().len(), path.display());
    }
    std::fs::remove_file(&pcap).ok();

    let mut body = String::new();
    for (name, unit) in specs {
        let value = metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or(format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        println!("{name:<32} {value:>16.6} {unit}");
        if !body.is_empty() {
            body.push(',');
        }
        let _ =
            write!(body, "{}:{{\"value\":{value},\"unit\":{}}}", json_str(name), json_str(unit));
    }
    let tally = &outcome.tally;
    let (attempted, failed) = (tally.attempted().max(1), tally.failed());
    println!(
        "failed_ratio {} ({failed} of {attempted} operations){}",
        tally.ratio(),
        if outcome.correct() { "" } else { " -- CORRECTNESS CHECKS FAILED" }
    );
    let result = format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{body}}}}}",
        outcome.correct()
    );
    let path = work.join(format!("{stem}.json"));
    std::fs::write(&path, format!("{{\"provenance\":{prov},\"result\":{result}}}\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(result)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wirebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wirebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let a =
            parse_args(&argv("--workload scan_detect --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a, Args { workload: "scan_detect".into(), seed: 7, seconds: 12.0, trace: true });
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload caida_query --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload caida_query --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload caida_query --seed 1 --seconds 5")).is_err());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    /// The metric and workload names here are the ones `BENCHMARK.json`
    /// declares, so a run always reports exactly the declared metrics.
    #[test]
    fn names_match_benchmark_json() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let declared = |key: &str| -> Vec<String> {
            let start = spec.find(&format!("\"{key}\"")).expect("key present");
            let section = &spec[start..];
            let end = section.find(']').expect("array closes");
            section[..end]
                .split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let names =
            |list: &[Spec]| -> Vec<String> { list.iter().map(|(n, _)| (*n).to_string()).collect() };
        assert_eq!(declared("workloads"), WORKLOADS.map(str::to_string).to_vec());
        assert_eq!(declared("end_to_end"), names(&END_TO_END));
        assert_eq!(declared("per_layer"), names(&PER_LAYER));
    }
}
