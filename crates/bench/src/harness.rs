//! The crate benches' shared harness: a best-of-N [`Timer`], a
//! [`record`] writer that stamps each `BENCH_*.json` with its provenance,
//! and a [`Gate`] that prints the regression lines CI greps for.
//!
//! `cargo bench -p instameasure-bench` runs every bench and rewrites the
//! five records at the repository root. With `INSTAMEASURE_BENCH_SMOKE=1`
//! ([`smoke`]) each bench shrinks to a few-second sanity run and writes
//! under `target/bench-smoke/`, so a smoke run never overwrites a record.

use std::fmt::{Display, Write as _};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use instameasure_core::InstaMeasureConfig;
use instameasure_packet::{simd, FlowKey, PacketRecord, Protocol};
use instameasure_sketch::SketchConfig;
use instameasure_wsaf::WsafConfig;
use rand::{Rng, SeedableRng};

/// Whether `INSTAMEASURE_BENCH_SMOKE` asks for the quick sanity run.
#[must_use]
pub fn smoke() -> bool {
    std::env::var_os("INSTAMEASURE_BENCH_SMOKE").is_some()
}

/// The workload `hot_path` and `service_engine` replay: uniform random
/// flows over a large key universe, so every packet's counter word is a
/// likely DRAM miss and cache luck stays out of the comparison.
#[must_use]
pub fn cache_hostile_workload(packets: usize, flows: usize, seed: u64) -> Vec<PacketRecord> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..packets as u64)
        .map(|t| {
            let i = rng.gen_range(0..flows as u32);
            let key = FlowKey::new(
                i.to_be_bytes(),
                (i ^ 0xA5A5_A5A5).to_be_bytes(),
                (i % 60_000) as u16,
                443,
                Protocol::Udp,
            );
            PacketRecord::new(key, 64 + (t % 1400) as u16, t)
        })
        .collect()
}

/// The geometry that workload runs against: an 8 MB L1 word array and a
/// 2^18-slot WSAF, both far bigger than a last-level cache.
#[must_use]
pub fn cache_hostile_config() -> InstaMeasureConfig {
    let sketch = SketchConfig::builder().memory_bytes(8 << 20).vector_bits(8).build();
    let wsaf = WsafConfig::builder().entries_log2(18).build();
    InstaMeasureConfig::default()
        .with_sketch(sketch.expect("valid geometry"))
        .with_wsaf(wsaf.expect("valid geometry"))
}

/// Wall times of one repeated timed region.
#[derive(Debug, Default)]
pub struct Timer(Vec<Duration>);

impl Timer {
    /// Times `reps` runs of `run`; returns the timings and the last output.
    pub fn repeat<T>(reps: usize, mut run: impl FnMut() -> T) -> (Timer, T) {
        Timer::repeat_with(reps, || (), |()| run())
    }

    /// Times `reps` (at least one) runs of `run`, each on the output of an
    /// untimed `setup()`. Each output is dropped untimed before the next
    /// setup; the last one is returned with the timings.
    pub fn repeat_with<S, T>(
        reps: usize,
        mut setup: impl FnMut() -> S,
        mut run: impl FnMut(S) -> T,
    ) -> (Timer, T) {
        let mut timer = Timer::default();
        let mut last = None;
        for _ in 0..reps {
            drop(last.take());
            let input = setup();
            last = Some(std::hint::black_box(timer.time(|| run(input))));
        }
        (timer, last.expect("at least one rep"))
    }

    /// Runs `f` as one timed sample and returns its output.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.0.push(start.elapsed());
        out
    }

    /// The nearest-rank `p` quantile of the samples in seconds: 0 is the
    /// best, 1 the worst.
    #[must_use]
    pub fn quantile_secs(&self, p: f64) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        sorted[((sorted.len() - 1) as f64 * p).round() as usize].as_secs_f64()
    }

    /// The mean sample in seconds.
    #[must_use]
    pub fn mean_secs(&self) -> f64 {
        self.0.iter().sum::<Duration>().as_secs_f64() / self.0.len() as f64
    }

    /// Items per second in the best sample.
    #[must_use]
    pub fn rate(&self, items: usize) -> f64 {
        items as f64 / self.quantile_secs(0.0)
    }

    /// Prints the best and mean sample and the best sample's rate.
    pub fn print(&self, name: &str, items: usize) {
        let (best, mean) = (self.quantile_secs(0.0) * 1e3, self.mean_secs() * 1e3);
        let rate = self.rate(items) / 1e6;
        println!("{name:<44} best {best:>9.3} ms  mean {mean:>9.3} ms  {rate:>8.2} Melem/s");
    }
}

/// A value a record can hold, rendered as JSON.
pub trait ToJson {
    /// The JSON text.
    fn to_json(&self) -> String;
}

macro_rules! plain_json {
    ($($t:ty),*) => {$(impl ToJson for $t {
        fn to_json(&self) -> String { self.to_string() }
    })*};
}
plain_json!(bool, u32, u64, usize);

impl ToJson for f64 {
    /// Six significant digits, no exponent, no trailing zeros; `null`
    /// when not finite.
    fn to_json(&self) -> String {
        if !self.is_finite() {
            return "null".into();
        }
        let digits = (5.0 - self.abs().log10().floor()).clamp(0.0, 17.0) as usize;
        let s = format!("{self:.digits$}");
        if digits == 0 {
            s
        } else {
            s.trim_end_matches('0').trim_end_matches('.').into()
        }
    }
}

impl ToJson for &str {
    fn to_json(&self) -> String {
        let mut out = String::from('"');
        for c in self.chars() {
            match c {
                '"' | '\\' => out.extend(['\\', c]),
                c if c < ' ' => write!(out, "\\u{:04x}", c as u32).expect("String write"),
                c => out.push(c),
            }
        }
        out + "\""
    }
}

impl ToJson for String {
    fn to_json(&self) -> String {
        self.as_str().to_json()
    }
}

/// A JSON object whose fields keep their order; each key is set once.
#[derive(Debug, Default)]
pub struct Obj(Vec<(&'static str, String)>);

impl Obj {
    /// Adds `key`; panics if it is already set, provenance included.
    #[must_use]
    pub fn with(mut self, key: &'static str, value: impl ToJson) -> Obj {
        assert!(self.0.iter().all(|(k, _)| *k != key), "field {key:?} is set twice");
        self.0.push((key, value.to_json()));
        self
    }

    fn fields(&self, sep: &str) -> String {
        let fields: Vec<String> =
            self.0.iter().map(|(k, v)| format!("{}: {v}", k.to_json())).collect();
        fields.join(sep)
    }

    /// Writes this record as `BENCH_<file>.json`, one field per line, at
    /// the repository root for a full run and under `target/bench-smoke/`
    /// for a smoke run, and says where.
    pub fn write(&self, file: &str) {
        let path = record_path(repo_root(), file, smoke());
        let json = format!("{{\n  {}\n}}\n", self.fields(",\n  "));
        std::fs::create_dir_all(path.parent().expect("a record sits in a directory"))
            .and_then(|()| std::fs::write(&path, json))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}

impl ToJson for Obj {
    fn to_json(&self) -> String {
        format!("{{{}}}", self.fields(", "))
    }
}

impl ToJson for Vec<Obj> {
    /// One element per line, as a record's field.
    fn to_json(&self) -> String {
        let rows: Vec<String> = self.iter().map(|o| format!("    {}", o.to_json())).collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    }
}

/// Starts bench `bench`'s record: `bench`, `smoke`, then the run's
/// provenance — `commit` (`-dirty` when the checkout differs from it in
/// more than the records), `host`, `cpus`, `cpu_features` and the
/// dispatch `tier`.
#[must_use]
pub fn record(bench: &'static str) -> Obj {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname");
    Obj::default()
        .with("bench", bench)
        .with("smoke", smoke())
        .with("commit", commit())
        .with("host", host.map_or_else(|_| "unknown".into(), |h| h.trim().to_owned()))
        .with("cpus", std::thread::available_parallelism().map_or(1, usize::from))
        .with("cpu_features", simd::cpu_features_label())
        .with("tier", simd::dispatch_tier().label())
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("crates/bench sits two deep")
}

/// Full runs write `<root>/BENCH_<file>.json`, smoke runs
/// `<root>/target/bench-smoke/BENCH_<file>.json`.
fn record_path(root: &Path, file: &str, smoke: bool) -> PathBuf {
    let dir = if smoke { root.join("target/bench-smoke") } else { root.to_path_buf() };
    dir.join(format!("BENCH_{file}.json"))
}

/// `HEAD`, suffixed `-dirty` when anything but the `BENCH_*.json` records
/// differs from it; `unknown` without git.
fn commit() -> String {
    let git = |args: &[&str]| {
        let out = std::process::Command::new("git").current_dir(repo_root()).args(args).output();
        out.ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
    };
    let (Some(head), Some(changes)) =
        (git(&["rev-parse", "HEAD"]), git(&["status", "--porcelain", ".", ":!BENCH_*.json"]))
    else {
        return "unknown".into();
    };
    format!("{}{}", head.trim(), if changes.is_empty() { "" } else { "-dirty" })
}

/// A bench's regression checks under one CI marker.
#[derive(Debug)]
pub struct Gate {
    marker: &'static str,
    failures: u32,
}

impl Gate {
    /// A gate whose failed checks print `<marker>-REGRESSION: <message>`.
    #[must_use]
    pub fn new(marker: &'static str) -> Gate {
        Gate { marker, failures: 0 }
    }

    /// Fails the check when `failed`, printing its line; a pass prints
    /// nothing.
    pub fn fail_if(&mut self, failed: bool, message: impl Display) {
        self.fail_if_to(&mut io::stdout(), failed, message);
    }

    fn fail_if_to(&mut self, out: &mut impl Write, failed: bool, message: impl Display) {
        if failed {
            self.failures += 1;
            writeln!(out, "{}-REGRESSION: {message}", self.marker).expect("print the gate line");
        }
    }

    /// How many checks failed so far.
    #[must_use]
    pub fn failures(&self) -> u32 {
        self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_records_stay_out_of_the_repo_root() {
        let root = Path::new("/r");
        assert_eq!(record_path(root, "t", false), Path::new("/r/BENCH_t.json"));
        assert_eq!(record_path(root, "t", true), Path::new("/r/target/bench-smoke/BENCH_t.json"));
    }

    #[test]
    fn a_record_carries_every_provenance_field_once() {
        let rows = vec![Obj::default().with("n", 1u32).with("s", "a\"\n")];
        let json = record("hot_path").with("rows", rows).fields(",\n  ");
        for field in ["bench", "smoke", "commit", "host", "cpus", "cpu_features", "tier", "rows"] {
            assert_eq!(json.matches(&format!("\"{field}\": ")).count(), 1, "{field}: {json}");
        }
        assert!(json.starts_with("\"bench\": \"hot_path\",\n  \"smoke\": "), "{json}");
        assert!(
            json.ends_with("\"rows\": [\n    {\"n\": 1, \"s\": \"a\\\"\\u000a\"}\n  ]"),
            "{json}"
        );
    }

    #[test]
    #[should_panic(expected = "\"cpu_features\" is set twice")]
    fn a_bench_cannot_restamp_provenance() {
        let _ = record("hot_path").with("cpu_features", "avx2");
    }

    #[test]
    fn numbers_keep_six_significant_digits() {
        let cases = [(16_237_862.3, "16237862"), (2.970_234_5, "2.97023"), (1.312e-4, "0.0001312")];
        for (v, s) in cases.into_iter().chain([(10.0, "10"), (0.0, "0"), (f64::NAN, "null")]) {
            assert_eq!(v.to_json(), s);
        }
    }

    #[test]
    fn a_failed_check_prints_exactly_its_line_and_a_pass_prints_nothing() {
        let (mut gate, mut out) = (Gate::new("HOTPATH"), Vec::new());
        gate.fail_if_to(&mut out, false, "never shown");
        assert!(out.is_empty());
        gate.fail_if_to(&mut out, true, format_args!("batched {:.2}x", 0.5));
        assert_eq!(String::from_utf8(out).unwrap(), "HOTPATH-REGRESSION: batched 0.50x\n");
        assert_eq!(gate.failures(), 1);
    }
}
