//! Analytic memory-technology model behind InstaMeasure's motivation.
//!
//! The paper's argument (§II, Figs. 1 and 7): the WSAF table lives in DRAM,
//! whose random access time is 10–20× slower than SRAM's; therefore the
//! regulator in front of it must pass at most ~5–10% of packets — RCC's
//! 12–19% is not enough, FlowRegulator's ~1% is. This crate encodes that
//! arithmetic so the figures can print explicit feasibility margins.
//!
//! # Example
//!
//! ```
//! use instameasure_memmodel::{MemoryTechnology, MarginAnalysis};
//!
//! // 1 Mpps arriving, FlowRegulator passing 1.02% to a DRAM WSAF:
//! let m = MarginAnalysis::new(1_000_000.0, 0.0102, MemoryTechnology::Dram);
//! assert!(m.is_feasible());
//! // RCC passing 19% would not be:
//! let rcc = MarginAnalysis::new(1_000_000.0, 0.19, MemoryTechnology::Dram);
//! assert!(rcc.margin() < m.margin());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;

/// A memory technology with a characteristic random-access latency.
///
/// Default latencies follow the paper's qualitative ordering: TCAM is the
/// fastest (and most expensive), SRAM is 10–20× faster than DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryTechnology {
    /// Commodity DRAM (default 80 ns random access).
    Dram,
    /// On-chip SRAM (default 5 ns).
    Sram,
    /// Ternary CAM (default 2 ns lookup).
    Tcam,
}

impl MemoryTechnology {
    /// Random access latency in nanoseconds.
    #[must_use]
    pub fn access_nanos(self) -> f64 {
        match self {
            MemoryTechnology::Dram => 80.0,
            MemoryTechnology::Sram => 5.0,
            MemoryTechnology::Tcam => 2.0,
        }
    }

    /// Maximum sustainable random accesses per second.
    #[must_use]
    pub fn accesses_per_second(self) -> f64 {
        1e9 / self.access_nanos()
    }

    /// Approximate cost per megabyte in USD, for the cost-effectiveness
    /// argument of §I (order-of-magnitude 2019 figures).
    #[must_use]
    pub fn dollars_per_mb(self) -> f64 {
        match self {
            MemoryTechnology::Dram => 0.01,
            MemoryTechnology::Sram => 25.0,
            MemoryTechnology::Tcam => 350.0,
        }
    }
}

impl fmt::Display for MemoryTechnology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryTechnology::Dram => write!(f, "DRAM"),
            MemoryTechnology::Sram => write!(f, "SRAM"),
            MemoryTechnology::Tcam => write!(f, "TCAM"),
        }
    }
}

/// Feasibility analysis: can a WSAF in the given technology absorb the
/// insertion rate a regulator produces?
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarginAnalysis {
    pps: f64,
    regulation_rate: f64,
    technology: MemoryTechnology,
    /// Average table slots probed per insertion (each probe is one memory
    /// access); 1.0 models an ideal table.
    probes_per_insert: f64,
    /// Measured random-access latency overriding the technology's paper
    /// constant (`None` = use the constant). Set from a calibrated
    /// machine profile so margins reflect the host actually running.
    access_nanos: Option<f64>,
}

impl MarginAnalysis {
    /// Creates an analysis for `pps` packets/second entering a regulator
    /// that passes `regulation_rate` (ips/pps) to a WSAF in `technology`,
    /// assuming one probe per insertion.
    ///
    /// # Panics
    ///
    /// Panics if `pps` is negative or `regulation_rate` is outside
    /// `[0, 1]`.
    #[must_use]
    pub fn new(pps: f64, regulation_rate: f64, technology: MemoryTechnology) -> Self {
        assert!(pps >= 0.0, "pps must be non-negative");
        assert!((0.0..=1.0).contains(&regulation_rate), "regulation rate must be in [0,1]");
        MarginAnalysis {
            pps,
            regulation_rate,
            technology,
            probes_per_insert: 1.0,
            access_nanos: None,
        }
    }

    /// Sets the average probes per insertion (≥ 1).
    ///
    /// Historically every call site passed a blanket `2.0` (probe +
    /// write); pass the workload's actual probe-chain length from
    /// `instameasure_sketch::analysis::expected_probes_per_insert`
    /// instead, which accounts for the regulator layers co-resident with
    /// the WSAF.
    #[must_use]
    pub fn with_probes_per_insert(mut self, probes: f64) -> Self {
        assert!(probes >= 1.0, "probes per insert must be >= 1");
        self.probes_per_insert = probes;
        self
    }

    /// Overrides the technology's paper-constant latency with a measured
    /// random-access latency in nanoseconds (from a calibrated machine
    /// profile). Must be finite and positive.
    #[must_use]
    pub fn with_access_nanos(mut self, nanos: f64) -> Self {
        assert!(nanos.is_finite() && nanos > 0.0, "access latency must be positive");
        self.access_nanos = Some(nanos);
        self
    }

    /// The random-access latency the analysis uses: the measured override
    /// when set, else the technology's paper constant.
    #[must_use]
    pub fn access_nanos(&self) -> f64 {
        self.access_nanos.unwrap_or_else(|| self.technology.access_nanos())
    }

    /// Maximum sustainable random accesses per second at
    /// [`MarginAnalysis::access_nanos`].
    #[must_use]
    pub fn capacity_accesses_per_second(&self) -> f64 {
        1e9 / self.access_nanos()
    }

    /// Insertions per second arriving at the WSAF.
    #[must_use]
    pub fn ips(&self) -> f64 {
        self.pps * self.regulation_rate
    }

    /// Memory accesses per second the WSAF must serve.
    #[must_use]
    pub fn accesses_per_second_required(&self) -> f64 {
        self.ips() * self.probes_per_insert
    }

    /// Capacity over demand; ≥ 1 means the WSAF keeps up.
    #[must_use]
    pub fn margin(&self) -> f64 {
        let req = self.accesses_per_second_required();
        if req == 0.0 {
            f64::INFINITY
        } else {
            self.capacity_accesses_per_second() / req
        }
    }

    /// Whether the WSAF can absorb the insertion stream.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.margin() >= 1.0
    }

    /// The largest regulation rate this technology tolerates at this
    /// packet rate (the paper's "<5%" rule of thumb for DRAM at ~1 Mpps
    /// with SRAM 10–20× faster).
    #[must_use]
    pub fn max_feasible_regulation(&self) -> f64 {
        if self.pps == 0.0 {
            return 1.0;
        }
        (self.capacity_accesses_per_second() / (self.pps * self.probes_per_insert)).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn technology_ordering_matches_paper() {
        // SRAM is 10–20× faster than DRAM; TCAM faster still.
        let ratio = MemoryTechnology::Dram.access_nanos() / MemoryTechnology::Sram.access_nanos();
        assert!((10.0..=20.0).contains(&ratio), "SRAM/DRAM ratio {ratio}");
        assert!(MemoryTechnology::Tcam.access_nanos() < MemoryTechnology::Sram.access_nanos());
        assert!(MemoryTechnology::Dram.dollars_per_mb() < MemoryTechnology::Sram.dollars_per_mb());
        assert!(MemoryTechnology::Sram.dollars_per_mb() < MemoryTechnology::Tcam.dollars_per_mb());
    }

    #[test]
    fn flowregulator_rate_is_feasible_in_dram_rcc_is_not() {
        // The paper's headline argument at a 40 GbE worst-case line rate
        // (~59.5 Mpps of 64-byte packets): DRAM absorbs FlowRegulator's
        // ~1% insertion stream but not RCC's 12–19%.
        let line_rate = 59.5e6;
        let fr = MarginAnalysis::new(line_rate, 0.0102, MemoryTechnology::Dram)
            .with_probes_per_insert(2.0);
        assert!(fr.is_feasible(), "FR margin {}", fr.margin());
        let rcc = MarginAnalysis::new(line_rate, 0.12, MemoryTechnology::Dram)
            .with_probes_per_insert(2.0);
        assert!(!rcc.is_feasible(), "RCC margin {}", rcc.margin());
    }

    #[test]
    fn ips_and_margin_arithmetic() {
        let m = MarginAnalysis::new(2.0e6, 0.05, MemoryTechnology::Sram);
        assert_eq!(m.ips(), 100_000.0);
        assert_eq!(m.accesses_per_second_required(), 100_000.0);
        let cap = MemoryTechnology::Sram.accesses_per_second();
        assert!((m.margin() - cap / 100_000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_traffic_is_trivially_feasible() {
        let m = MarginAnalysis::new(0.0, 0.5, MemoryTechnology::Dram);
        assert!(m.is_feasible());
        assert_eq!(m.margin(), f64::INFINITY);
        assert_eq!(m.max_feasible_regulation(), 1.0);
    }

    #[test]
    fn max_feasible_regulation_for_dram_near_one_percent_at_line_rate() {
        // At 100 Gbps minimum-size packets (~148.8 Mpps) DRAM tolerates
        // well under 10% regulation.
        let m = MarginAnalysis::new(148.8e6, 0.0, MemoryTechnology::Dram);
        let max = m.max_feasible_regulation();
        assert!(max < 0.10, "max regulation {max}");
    }

    #[test]
    #[should_panic(expected = "regulation rate must be in [0,1]")]
    fn rejects_bad_regulation_rate() {
        let _ = MarginAnalysis::new(1.0, 1.5, MemoryTechnology::Dram);
    }

    #[test]
    fn measured_latency_overrides_the_paper_constant() {
        let paper = MarginAnalysis::new(1.0e6, 0.05, MemoryTechnology::Dram);
        assert_eq!(paper.access_nanos(), 80.0);
        // A host whose DRAM measures 100 ns has proportionally less margin.
        let measured = paper.with_access_nanos(100.0);
        assert_eq!(measured.access_nanos(), 100.0);
        assert!((measured.margin() - paper.margin() * 0.8).abs() < 1e-9);
        // At 1 Mpps either latency could absorb every packet: the tolerable
        // regulation rate is a fraction, so both sit at the 1.0 clamp.
        assert_eq!(measured.max_feasible_regulation(), 1.0);
        assert_eq!(paper.max_feasible_regulation(), 1.0);
        // At a line rate where the clamp does not bind, the slower memory
        // tolerates proportionally less regulation.
        let line = MarginAnalysis::new(59.5e6, 0.05, MemoryTechnology::Dram);
        let slower = line.with_access_nanos(100.0);
        assert!(line.max_feasible_regulation() < 1.0);
        assert!(slower.max_feasible_regulation() < line.max_feasible_regulation());
        let ratio = slower.max_feasible_regulation() / line.max_feasible_regulation();
        assert!((ratio - 0.8).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "access latency must be positive")]
    fn rejects_nonpositive_latency() {
        let _ = MarginAnalysis::new(1.0, 0.5, MemoryTechnology::Dram).with_access_nanos(0.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(MemoryTechnology::Dram.to_string(), "DRAM");
        assert_eq!(MemoryTechnology::Sram.to_string(), "SRAM");
        assert_eq!(MemoryTechnology::Tcam.to_string(), "TCAM");
    }
}
