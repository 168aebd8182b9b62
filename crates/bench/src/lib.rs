//! Benchmark harness for the InstaMeasure reproduction.
//!
//! Every figure and table of the paper's evaluation has a module under
//! [`figs`] with a `run(&BenchArgs)` entry point, and a thin binary in
//! `src/bin/` wrapping it. All binaries accept:
//!
//! ```text
//! --scale <f64>          workload scale factor (default per figure)
//! --seed <u64>           RNG seed (default 42)
//! --metrics-json <path>  write the run's telemetry Snapshot as JSON
//! ```
//!
//! Output is TSV on stdout plus a `# paper-vs-measured` footer comparing
//! the reproduced numbers with the paper's. Every figure's `run` returns a
//! telemetry [`Snapshot`] (its systems' [`Instrumented`] output plus
//! figure-level gauges); the binaries write it to `--metrics-json` via
//! [`main_entry`]. `run_all` executes every figure in sequence (as
//! `cargo run -rp instameasure-bench --bin run_all`) and merges the
//! snapshots, prefixing each by its section name.
//!
//! The `cargo bench` targets share [`harness`]: one best-of-N timer, one
//! provenance-stamped `BENCH_*.json` writer and one regression-gate
//! printer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use instameasure_telemetry::{Instrumented, Snapshot};

pub mod figs;
pub mod harness;

/// Common command-line arguments of the figure binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Workload scale factor (1.0 = each figure's default size).
    pub scale: f64,
    /// RNG seed shared by trace generation and sketches.
    pub seed: u64,
    /// Where to write the run's telemetry snapshot as JSON (`None` = don't).
    pub metrics_json: Option<String>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs { scale: 1.0, seed: 42, metrics_json: None }
    }
}

impl BenchArgs {
    /// Parses `--scale`, `--seed` and `--metrics-json` from the process
    /// arguments, falling back to defaults. Unknown arguments are ignored
    /// so the binaries stay composable with cargo's own flags.
    #[must_use]
    pub fn parse() -> Self {
        let mut args = BenchArgs::default();
        let argv: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < argv.len() {
            match argv[i].as_str() {
                "--scale" => {
                    if let Some(v) = argv.get(i + 1).and_then(|s| s.parse().ok()) {
                        args.scale = v;
                        i += 1;
                    }
                }
                "--seed" => {
                    if let Some(v) = argv.get(i + 1).and_then(|s| s.parse().ok()) {
                        args.seed = v;
                        i += 1;
                    }
                }
                "--metrics-json" => {
                    if let Some(v) = argv.get(i + 1) {
                        args.metrics_json = Some(v.clone());
                        i += 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        args
    }
}

/// Writes `snap` to `args.metrics_json` as JSON, if the flag was given.
///
/// # Panics
///
/// Panics if the file cannot be written — a bench run asked to persist its
/// metrics must not silently drop them.
pub fn write_metrics(args: &BenchArgs, snap: &Snapshot) {
    if let Some(path) = &args.metrics_json {
        std::fs::write(path, snap.to_json())
            .unwrap_or_else(|e| panic!("cannot write metrics JSON to {path}: {e}"));
        eprintln!("# metrics JSON written to {path}");
    }
}

/// Standard `fn main` body of a figure binary: parse the arguments, run
/// the figure, persist its telemetry snapshot if requested.
pub fn main_entry(run: impl FnOnce(&BenchArgs) -> Snapshot) {
    let args = BenchArgs::parse();
    let snap = run(&args);
    write_metrics(&args, &snap);
}

/// One paper-vs-measured comparison line for a figure's footer.
#[derive(Debug, Clone)]
pub struct PaperCheck {
    /// What is being compared.
    pub name: String,
    /// The paper's reported value (free text, e.g. "12-19%").
    pub paper: String,
    /// Our measured value.
    pub measured: String,
    /// Whether the measured value matches the paper's *shape* (who wins,
    /// rough factor, trend direction).
    pub holds: bool,
}

/// Prints the standard figure footer.
pub fn print_checks(figure: &str, checks: &[PaperCheck]) {
    println!("#");
    println!("# paper-vs-measured ({figure})");
    for c in checks {
        println!(
            "#   {:<44} paper: {:<22} measured: {:<22} [{}]",
            c.name,
            c.paper,
            c.measured,
            if c.holds { "OK" } else { "DIVERGES" }
        );
    }
}

/// Formats a count tersely (`1.23M`, `45.6k`).
#[must_use]
pub fn fmt_count(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_args() {
        let a = BenchArgs::default();
        assert_eq!(a.scale, 1.0);
        assert_eq!(a.seed, 42);
    }

    #[test]
    fn fmt_count_ranges() {
        assert_eq!(fmt_count(12.0), "12");
        assert_eq!(fmt_count(4_500.0), "4.5k");
        assert_eq!(fmt_count(2_500_000.0), "2.50M");
        assert_eq!(fmt_count(3.2e9), "3.20G");
    }
}
