//! The profile-driven configuration search.
//!
//! Given a [`MachineProfile`] (calibrated on this host, the paper fixture,
//! or a one-point profile at a memory technology's latency), an operator
//! target (an `(epsilon, delta)` accuracy statement or a raw pps budget)
//! and a sample of the workload's flow sizes, [`solve`] searches vector
//! bits × regulator depth × WSAF capacity and returns the cheapest
//! [`TunePlan`] that fits. The depths searched are the ones the pipeline
//! runs ([`REGULATOR_KINDS`]: 1 = `rcc`, 2 = `regulator`), so every plan
//! boots exactly the cascade it was priced on.
//!
//! # The models
//!
//! **Regulation / probe chain** — the exact single-flow saturation Markov
//! chain (`instameasure_sketch::analysis`), evaluated through a per-level
//! lookup table with a linear steady-state extension so 400k-flow
//! workloads solve in milliseconds rather than re-running the `O(s·b)` DP
//! per candidate. Feasibility margins use the measured latency at the
//! WSAF's *resident size* (table + the L2 layers co-resident with it),
//! and the probe chain accesses of the configured depth: every L1
//! saturation of a depth-2 plan costs a slow access to L2.
//!
//! **Accuracy** — a first-order error model: every release quantizes a
//! flow's count at the saturation-period granularity with up to
//! `noise_max` packets of interference, so the expected relative estimate
//! error scales as `0.5·√layers / period(b)`. Wider vectors lengthen the
//! period (lower error). The `delta` half of the target tightens the
//! effective epsilon by a `ln(1/δ)` headroom factor (Chernoff-style), so
//! rarer allowed violations demand larger configurations. Replays confirm
//! the model at depth 1 only, so accuracy targets are solved at depth 1
//! ([`TunePlan::predicted_epsilon`] quotes the depth-2 misses); throughput
//! targets search both depths.
//!
//! **WSAF capacity** — sized from the workload's flow count at a load
//! factor that *shrinks with epsilon* (`min(0.7, 7ε)`), independent of
//! the front-end candidate. That separability is what makes the solver
//! monotone: a tighter epsilon can never yield a smaller WSAF, and a
//! lighter pps demand can never yield a costlier front end (both are
//! property-tested).

use instameasure_core::{InstaMeasure, InstaMeasureConfig, InstaMeasureConfigError};
use instameasure_memmodel::{MarginAnalysis, MemoryTechnology};
use instameasure_packet::{FlowKey, PacketRecord, Protocol};
use instameasure_sketch::{FilterKind, SketchConfig, REGULATOR_KINDS};

use crate::profile::{MachineProfile, ProfileError};

/// What the operator asked the tuner to guarantee.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TuneTarget {
    /// Per-flow estimates within relative error `epsilon` except with
    /// probability `delta` (both in `(0, 1)`).
    Accuracy {
        /// Relative-error target.
        epsilon: f64,
        /// Allowed violation probability.
        delta: f64,
    },
    /// Feasibility only: absorb the stated packet rate at the requested
    /// margin, accuracy best-effort.
    Throughput,
}

/// A tuning request: the offered load, the required headroom and the
/// operator target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneRequest {
    /// Packets per second the deployment must sustain.
    pub pps: f64,
    /// Required capacity/demand margin (≥ 1).
    pub min_margin: f64,
    /// The operator-stated goal.
    pub target: TuneTarget,
}

impl TuneRequest {
    /// An accuracy-targeted request with the default 2× margin.
    #[must_use]
    pub fn accuracy(pps: f64, epsilon: f64, delta: f64) -> Self {
        TuneRequest { pps, min_margin: 2.0, target: TuneTarget::Accuracy { epsilon, delta } }
    }

    /// A throughput-budget request.
    #[must_use]
    pub fn throughput(pps: f64, min_margin: f64) -> Self {
        TuneRequest { pps, min_margin, target: TuneTarget::Throughput }
    }

    fn validate(&self) -> bool {
        let target_ok = match self.target {
            TuneTarget::Accuracy { epsilon, delta } => {
                (0.0..1.0).contains(&epsilon)
                    && epsilon > 0.0
                    && (0.0..1.0).contains(&delta)
                    && delta > 0.0
            }
            TuneTarget::Throughput => true,
        };
        self.pps.is_finite() && self.pps >= 0.0 && self.min_margin >= 1.0 && target_ok
    }
}

/// A solved deployment: the configuration plus every prediction it was
/// chosen on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunePlan {
    /// Layer-1 sketch memory in bytes (sized by the occupancy rule).
    pub l1_memory_bytes: u64,
    /// Per-layer virtual-vector size in bits.
    pub vector_bits: u32,
    /// Regulator depth (1 = plain RCC, 2 = the paper's FlowRegulator; see
    /// [`REGULATOR_KINDS`]).
    pub layers: u32,
    /// log₂ of the WSAF slot count.
    pub wsaf_entries_log2: u32,
    /// Predicted WSAF insertion rate (ips/pps) from the chain model.
    pub predicted_regulation: f64,
    /// Expected slow-memory accesses per insertion (probe chain).
    pub probes_per_insert: f64,
    /// Capacity/demand margin at the measured latency.
    pub margin: f64,
    /// Predicted relative estimate error of the accuracy model,
    /// `0.5·√layers / period(b)`.
    ///
    /// Replays check this model at depth 1 only, which is why accuracy
    /// targets are solved at depth 1: every depth-1 plan probed delivered
    /// ≤ 0.028 on six workloads. At depth 2 it is far too
    /// optimistic: the b = 32 plans it predicted at 0.0231 delivered
    /// 0.085–0.19 (0.127 on `zipf_sizes(20_000, 100_000)`). A depth-2
    /// (throughput) plan's value is a floor, not a promise.
    pub predicted_epsilon: f64,
    /// The measured random-access latency (ns) the margin ran on — the
    /// profile curve at the plan's resident working-set size.
    pub access_nanos: f64,
}

/// First line of the plan file format.
const PLAN_HEADER: &str = "instameasure-tune-plan v1";

impl TunePlan {
    /// The front-end filter this plan runs: the kind that runs its depth
    /// ([`FilterKind::for_regulator_depth`]) — plain RCC for one layer,
    /// the paper's FlowRegulator for two.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is a depth no kind runs. [`solve`] and
    /// [`TunePlan::from_text`] never produce one; only a plan built by
    /// hand can.
    #[must_use]
    pub fn filter_kind(&self) -> FilterKind {
        FilterKind::for_regulator_depth(self.layers)
            .unwrap_or_else(|| panic!("no filter kind runs a {}-layer regulator", self.layers))
    }

    /// Total modeled memory of the plan in paper terms: the filter at its
    /// equal-memory budget plus 33-byte WSAF entries.
    #[must_use]
    pub fn paper_memory_bytes(&self) -> u64 {
        let noise_classes = SketchConfig::builder()
            .memory_bytes(self.l1_memory_bytes as usize)
            .vector_bits(self.vector_bits)
            .build()
            .map(|c| c.noise_classes() as u64)
            .unwrap_or(3);
        self.l1_memory_bytes * (1 + noise_classes) + (1u64 << self.wsaf_entries_log2) * 33
    }

    /// Materializes the plan as a runnable pipeline configuration, with
    /// the [`TunePlan::filter_kind`] that runs the plan's depth.
    ///
    /// # Errors
    ///
    /// Returns the underlying config validation error if the plan's
    /// values are out of range (only possible for hand-edited plan
    /// files).
    ///
    /// # Panics
    ///
    /// As [`TunePlan::filter_kind`], for a hand-built plan whose depth
    /// no kind runs.
    pub fn to_config(&self, seed: u64) -> Result<InstaMeasureConfig, InstaMeasureConfigError> {
        Ok(InstaMeasureConfig::builder()
            .l1_memory_bytes(self.l1_memory_bytes as usize)
            .vector_bits(self.vector_bits)
            .wsaf_entries_log2(self.wsaf_entries_log2)
            .seed(seed)
            .build()?
            .with_filter(self.filter_kind()))
    }

    /// Whether two plans select the same configuration (ignoring the
    /// float predictions, which vary with the workload they were solved
    /// against) — the drift test the epoch re-tuner runs.
    #[must_use]
    pub fn same_geometry(&self, other: &TunePlan) -> bool {
        (self.l1_memory_bytes, self.vector_bits, self.layers, self.wsaf_entries_log2)
            == (other.l1_memory_bytes, other.vector_bits, other.layers, other.wsaf_entries_log2)
    }

    /// Serializes to the plan file format (`tune --apply` output).
    #[must_use]
    pub fn to_text(&self) -> String {
        format!(
            "{PLAN_HEADER}\n# filter {}\nl1_memory_bytes {}\nvector_bits {}\nlayers {}\n\
             wsaf_entries_log2 {}\npredicted_regulation {}\nprobes_per_insert {}\nmargin {}\n\
             predicted_epsilon {}\naccess_nanos {}\n",
            self.filter_kind(),
            self.l1_memory_bytes,
            self.vector_bits,
            self.layers,
            self.wsaf_entries_log2,
            self.predicted_regulation,
            self.probes_per_insert,
            self.margin,
            self.predicted_epsilon,
            self.access_nanos,
        )
    }

    /// Parses the plan file format.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Parse`] on a bad header or malformed line,
    /// including a `layers` line naming a depth the pipeline does not run
    /// (anything outside `1..=2`).
    pub fn from_text(text: &str) -> Result<Self, ProfileError> {
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h.trim() == PLAN_HEADER => {}
            other => {
                return Err(ProfileError::Parse(format!(
                    "bad plan header {:?} (expected {PLAN_HEADER:?})",
                    other.unwrap_or("")
                )))
            }
        }
        let mut plan = TunePlan {
            l1_memory_bytes: 0,
            vector_bits: 0,
            layers: 0,
            wsaf_entries_log2: 0,
            predicted_regulation: 0.0,
            probes_per_insert: 0.0,
            margin: 0.0,
            predicted_epsilon: 0.0,
            access_nanos: 0.0,
        };
        for (idx, line) in lines.enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            let key = it.next().unwrap_or("");
            let val = it.next();
            let bad = || ProfileError::Parse(format!("plan line {}: bad value: {line:?}", idx + 2));
            macro_rules! parse {
                () => {
                    val.and_then(|v| v.parse().ok()).ok_or_else(bad)?
                };
            }
            match key {
                "l1_memory_bytes" => plan.l1_memory_bytes = parse!(),
                "vector_bits" => plan.vector_bits = parse!(),
                "layers" => {
                    plan.layers = parse!();
                    if FilterKind::for_regulator_depth(plan.layers).is_none() {
                        return Err(ProfileError::Parse(format!(
                            "plan line {}: no filter runs {} layers (expected 1..={}): {line:?}",
                            idx + 2,
                            plan.layers,
                            REGULATOR_KINDS.len()
                        )));
                    }
                }
                "wsaf_entries_log2" => plan.wsaf_entries_log2 = parse!(),
                "predicted_regulation" => plan.predicted_regulation = parse!(),
                "probes_per_insert" => plan.probes_per_insert = parse!(),
                "margin" => plan.margin = parse!(),
                "predicted_epsilon" => plan.predicted_epsilon = parse!(),
                "access_nanos" => plan.access_nanos = parse!(),
                _ => {}
            }
        }
        if plan.l1_memory_bytes == 0 || plan.vector_bits == 0 || plan.layers == 0 {
            return Err(ProfileError::Parse("plan missing a geometry field".into()));
        }
        Ok(plan)
    }

    /// Writes the plan to a file (`tune --apply <path>`).
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Io`] when the file cannot be written.
    pub fn save(&self, path: &std::path::Path) -> Result<(), ProfileError> {
        std::fs::write(path, self.to_text())?;
        Ok(())
    }

    /// Loads a plan file.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Io`] when the file cannot be read and
    /// [`ProfileError::Parse`] when its contents are not a plan.
    pub fn load(path: &std::path::Path) -> Result<Self, ProfileError> {
        let text = std::fs::read_to_string(path)?;
        TunePlan::from_text(&text)
    }
}

impl core::fmt::Display for TunePlan {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "plan: {} front end, {} KB L1, b={}, {} layer(s), 2^{} WSAF entries",
            self.filter_kind(),
            self.l1_memory_bytes / 1024,
            self.vector_bits,
            self.layers,
            self.wsaf_entries_log2
        )?;
        writeln!(
            f,
            "  predicted regulation {:.4}% ({:.1} probes/insert), margin {:.1}x at {:.1} ns",
            self.predicted_regulation * 100.0,
            self.probes_per_insert,
            self.margin,
            self.access_nanos
        )?;
        write!(
            f,
            "  predicted epsilon {:.4}, modeled memory {:.1} MB",
            self.predicted_epsilon,
            self.paper_memory_bytes() as f64 / (1024.0 * 1024.0)
        )
    }
}

/// A Zipf-ish synthetic flow-size sample: `flows` flows where flow `i`
/// carries `max(heaviest/i, 1)` packets — the default workload shape the
/// CLI and benches tune against when no trace is supplied.
#[must_use]
pub fn zipf_sizes(flows: u64, heaviest: u64) -> Vec<u64> {
    (1..=flows.max(1)).map(|i| (heaviest / i).max(1)).collect()
}

/// The fast per-vector-size chain model: a cumulative expected-saturation
/// table for `s = 0..=TABLE_MAX` plus the steady-state rate for linear
/// extension beyond it.
struct ChainModel {
    table: Vec<f64>,
    steady_rate: f64,
}

const TABLE_MAX: usize = 1024;

impl ChainModel {
    /// Builds the table with the same recurrence as
    /// `analysis::SaturationChain` (state = own set bits, saturation at
    /// `b - noise_max` resets to zero); validated against the exact DP in
    /// the tests below.
    fn new(b: u32, noise_max: u32) -> Self {
        let threshold = (b - noise_max) as usize;
        let bf = f64::from(b);
        let mut probs = vec![0.0f64; threshold];
        probs[0] = 1.0;
        let mut next = vec![0.0f64; threshold];
        let mut cumulative = 0.0;
        let mut table = Vec::with_capacity(TABLE_MAX + 1);
        table.push(0.0);
        for _ in 1..=TABLE_MAX {
            next.fill(0.0);
            let mut newly = 0.0;
            for (k, &p) in probs.iter().enumerate() {
                if p == 0.0 {
                    continue;
                }
                let hit_zero = (b as usize - k) as f64 / bf;
                next[k] += p * (1.0 - hit_zero);
                if k + 1 == threshold {
                    newly += p * hit_zero;
                } else {
                    next[k + 1] += p * hit_zero;
                }
            }
            next[0] += newly;
            cumulative += newly;
            table.push(cumulative);
            std::mem::swap(&mut probs, &mut next);
        }
        let steady_rate = table[TABLE_MAX] - table[TABLE_MAX - 1];
        ChainModel { table, steady_rate }
    }

    /// Expected saturations of a (possibly fractional, from layer
    /// composition) input count `x`.
    fn saturations(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let max = TABLE_MAX as f64;
        if x >= max {
            return self.table[TABLE_MAX] + (x - max) * self.steady_rate;
        }
        let lo = x.floor() as usize;
        let frac = x - lo as f64;
        let hi = (lo + 1).min(TABLE_MAX);
        self.table[lo] + frac * (self.table[hi] - self.table[lo])
    }

    /// Expected releases of a size-`s` flow out of layer `layers`.
    fn updates(&self, s: u64, layers: u32) -> f64 {
        let mut count = self.saturations(s as f64);
        for _ in 1..layers {
            count = self.saturations(count);
        }
        count
    }

    /// Steady-state packets per saturation.
    fn period(&self) -> f64 {
        if self.steady_rate > 0.0 {
            1.0 / self.steady_rate
        } else {
            f64::INFINITY
        }
    }
}

/// Groups a workload into (size, count) pairs, quantizing large sizes to
/// three significant bits so Zipf-shaped 400k-flow samples stay a few
/// hundred distinct entries.
fn group_sizes(sizes: &[u64]) -> Vec<(u64, u64)> {
    let mut by_size = std::collections::HashMap::new();
    for &s in sizes {
        let q = if s <= 256 {
            s
        } else {
            // Round to the nearest 3-significant-bit value (floor would
            // bias the modeled saturation rate low by several percent).
            let shift = 63 - s.leading_zeros() as u64 - 2;
            ((s >> (shift - 1)).div_ceil(2)) << shift
        };
        *by_size.entry(q).or_insert(0u64) += 1;
    }
    let mut grouped: Vec<(u64, u64)> = by_size.into_iter().collect();
    grouped.sort_unstable();
    grouped
}

/// The layer-1 occupancy rule: enough L1 bits that at most ~8 concurrent
/// flows share a vector's worth of bits, floored at the paper's 32 KB and
/// capped at 1 MB. Monotone in both the flow count and the vector size.
fn l1_bytes_for(flows: u64, vector_bits: u32) -> u64 {
    let bits_needed = flows.saturating_mul(u64::from(vector_bits)) / 8;
    let bytes = (bits_needed / 8).max(32 * 1024);
    bytes.next_power_of_two().min(1 << 20)
}

/// The WSAF sizing rule: hold the workload's flow count at a load factor
/// of `min(0.7, 7ε)` (0.7 for throughput-only targets), clamped to
/// `2^14..=2^26` slots. Tighter epsilon → lower load → never a smaller
/// table.
fn wsaf_log2_for(flows: u64, target: &TuneTarget) -> Option<u32> {
    let load_cap = match *target {
        TuneTarget::Accuracy { epsilon, .. } => (7.0 * epsilon).min(0.7),
        TuneTarget::Throughput => 0.7,
    };
    // The float-to-int cast saturates, so a huge flow count can need a
    // table beyond 2^63 slots: no power of two fits, and that refuses.
    let required = (flows.max(1) as f64 / load_cap).ceil() as u64;
    let log2 = required.checked_next_power_of_two()?.trailing_zeros();
    if log2 > 26 {
        return None;
    }
    Some(log2.max(14))
}

/// The Chernoff-style delta headroom: the effective epsilon the model
/// must beat, shrinking as the allowed violation probability does.
fn effective_epsilon(epsilon: f64, delta: f64) -> f64 {
    epsilon / (1.0 + (1.0 / delta).ln() / 10.0)
}

/// The deepest regulator an accuracy target is solved at: the depth whose
/// error model replays confirm (see [`TunePlan::predicted_epsilon`]).
const ACCURACY_MAX_DEPTH: u32 = 1;

/// Searches for the cheapest configuration meeting the request on the
/// measured machine, `None` when nothing in the space fits (or the
/// request itself is malformed). Candidates are ordered
/// shallowest-then-smallest-vectors over the depths the pipeline runs
/// (accuracy targets: depth 1 only); the first feasible one wins, which
/// (with the separable WSAF rule) gives the monotonicity guarantees the
/// property tests pin.
///
/// A one-point profile prices the WSAF at one memory technology's
/// latency, which is how `examples/deployment_planner.rs` plans for DRAM,
/// SRAM and TCAM alike.
#[must_use]
pub fn solve(
    profile: &MachineProfile,
    req: &TuneRequest,
    workload_sizes: &[u64],
) -> Option<TunePlan> {
    if !req.validate() {
        return None;
    }
    let flows = workload_sizes.len() as u64;
    let total_packets: u64 = workload_sizes.iter().sum();
    let grouped = group_sizes(workload_sizes);
    let wsaf_log2 = wsaf_log2_for(flows, &req.target)?;
    let wsaf_bytes = (1u64 << wsaf_log2) * 33;

    let (eps_budget, max_depth) = match req.target {
        TuneTarget::Accuracy { epsilon, delta } => {
            (Some(effective_epsilon(epsilon, delta)), ACCURACY_MAX_DEPTH)
        }
        TuneTarget::Throughput => (None, REGULATOR_KINDS.len() as u32),
    };

    for layers in 1..=max_depth {
        for vector_bits in [4u32, 8, 16, 32] {
            let l1_memory_bytes = l1_bytes_for(flows, vector_bits);
            let cfg = SketchConfig::builder()
                .memory_bytes(l1_memory_bytes as usize)
                .vector_bits(vector_bits)
                .build()
                .expect("search space configs are valid");
            let model = ChainModel::new(vector_bits, cfg.noise_max());

            let predicted_epsilon = 0.5 * f64::from(layers).sqrt() / model.period();
            if let Some(budget) = eps_budget {
                if predicted_epsilon > budget {
                    continue;
                }
            }

            // Per-layer release rates over the workload.
            let rate_at = |l: u32| -> f64 {
                if total_packets == 0 {
                    return 0.0;
                }
                let updates: f64 =
                    grouped.iter().map(|&(s, n)| n as f64 * model.updates(s, l)).sum();
                updates / total_packets as f64
            };
            let rate = rate_at(layers);
            let l1_rate = if layers == 1 { rate } else { rate_at(1) };
            // A cascade that truncates real traffic to zero insertions
            // is a model artifact, not a plan.
            if rate <= 0.0 && l1_rate > 0.0 {
                continue;
            }
            let probes_per_insert = if rate > 0.0 {
                let feed: f64 = (1..layers).map(rate_at).sum();
                (feed + 2.0 * rate) / rate
            } else {
                2.0
            };

            // The slow-memory working set: the WSAF plus the L2 layers
            // co-resident with it (everything beyond layer 1).
            let noise_classes = cfg.noise_classes() as u64;
            let deep_bytes = l1_memory_bytes * noise_classes * u64::from(layers - 1);
            let access_nanos = profile.latency_ns(wsaf_bytes + deep_bytes);

            let margin = MarginAnalysis::new(req.pps, rate.min(1.0), MemoryTechnology::Dram)
                .with_probes_per_insert(probes_per_insert.max(1.0))
                .with_access_nanos(access_nanos)
                .margin();
            if margin >= req.min_margin {
                return Some(TunePlan {
                    l1_memory_bytes,
                    vector_bits,
                    layers,
                    wsaf_entries_log2: wsaf_log2,
                    predicted_regulation: rate,
                    probes_per_insert,
                    margin,
                    predicted_epsilon,
                    access_nanos,
                });
            }
        }
    }
    None
}

/// Replays synthetic packets of the given flow sizes through the plan's
/// pipeline, flows interleaved round-robin so concurrent sketch occupancy
/// is realistic rather than one-flow-at-a-time best case. Returns the
/// pipeline and the flows' keys in `sizes` order, or `None` when the plan
/// does not materialize.
#[must_use]
pub fn replay(plan: &TunePlan, sizes: &[u64], seed: u64) -> Option<(InstaMeasure, Vec<FlowKey>)> {
    let mut im = InstaMeasure::new(plan.to_config(seed).ok()?);
    let keys: Vec<FlowKey> = (0..sizes.len() as u32)
        .map(|i| {
            FlowKey::new(
                i.to_be_bytes(),
                i.wrapping_mul(2_654_435_761).to_be_bytes(),
                (i % 65_536) as u16,
                443,
                Protocol::Udp,
            )
        })
        .collect();
    let mut remaining: Vec<u64> = sizes.to_vec();
    let mut ts = 0u64;
    let mut active = true;
    while active {
        active = false;
        for (i, rem) in remaining.iter_mut().enumerate() {
            if *rem == 0 {
                continue;
            }
            *rem -= 1;
            active = true;
            im.process(&PacketRecord::new(keys[i], 200, ts));
            ts += 20;
        }
    }
    Some((im, keys))
}

/// Measures a plan's delivered relative error on a labeled workload: the
/// [`replay`] of the given flow sizes, scored as the packet-weighted mean
/// relative error over flows of at least `min_size` packets (the flows an
/// epsilon target is about — sub-period mice are measured exactly by the
/// residual).
///
/// This is the oracle the e2e tests and the tune bench compare
/// [`TunePlan::predicted_epsilon`] against.
#[must_use]
pub fn measured_epsilon(plan: &TunePlan, sizes: &[u64], min_size: u64, seed: u64) -> f64 {
    let Some((im, keys)) = replay(plan, sizes, seed) else {
        return f64::INFINITY;
    };
    let mut err_weighted = 0.0;
    let mut weight = 0.0;
    for (i, &truth) in sizes.iter().enumerate() {
        if truth < min_size {
            continue;
        }
        let est = im.estimate_packets(&keys[i]);
        let w = truth as f64;
        err_weighted += w * (est - w).abs() / w;
        weight += w;
    }
    if weight > 0.0 {
        err_weighted / weight
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatencyPoint;
    use instameasure_sketch::analysis;

    fn paper() -> MachineProfile {
        MachineProfile::paper()
    }

    fn workload() -> Vec<u64> {
        zipf_sizes(20_000, 100_000)
    }

    /// A one-point profile: every working set costs `nanos`.
    fn flat(nanos: f64) -> MachineProfile {
        MachineProfile::from_parts(vec![LatencyPoint { bytes: 1, nanos }], 3.5, 0.5, 0, false)
            .unwrap()
    }

    /// A WSAF in one memory technology at its paper latency.
    fn technology(tech: MemoryTechnology) -> MachineProfile {
        flat(tech.access_nanos())
    }

    /// A Zipf-ish elephant-heavy workload sample.
    fn heavy_sizes() -> Vec<u64> {
        zipf_sizes(5_000, 200_000)
    }

    fn geometry(plan: &TunePlan) -> (u32, u32) {
        (plan.layers, plan.vector_bits)
    }

    #[test]
    fn chain_model_matches_the_exact_dp() {
        for b in [4u32, 8, 16, 32] {
            let cfg =
                SketchConfig::builder().memory_bytes(32 * 1024).vector_bits(b).build().unwrap();
            let model = ChainModel::new(b, cfg.noise_max());
            let chain = analysis::SaturationChain::new(&cfg);
            for s in [1u64, 7, 50, 500, 1000] {
                let fast = model.saturations(s as f64);
                let exact = chain.expected_saturations(s);
                assert!(
                    (fast - exact).abs() <= 1e-9 + 1e-9 * exact,
                    "b={b} s={s}: fast {fast} vs exact {exact}"
                );
            }
            // The linear extension tracks the DP within a percent at 4x
            // the table horizon.
            let fast = model.saturations(4096.0);
            let exact = chain.expected_saturations(4096);
            assert!((fast - exact).abs() / exact < 0.01, "b={b}: {fast} vs {exact}");
        }
    }

    #[test]
    fn fast_regulation_matches_analysis_model() {
        let sizes = zipf_sizes(2_000, 20_000);
        let cfg = SketchConfig::builder().memory_bytes(32 * 1024).vector_bits(8).build().unwrap();
        let model = ChainModel::new(8, cfg.noise_max());
        let total: u64 = sizes.iter().sum();
        for layers in 1..=3u32 {
            let grouped = group_sizes(&sizes);
            let fast: f64 =
                grouped.iter().map(|&(s, n)| n as f64 * model.updates(s, layers)).sum::<f64>()
                    / total as f64;
            let exact = analysis::expected_regulation_rate(&cfg, &sizes, layers);
            let rel = (fast - exact).abs() / exact.max(1e-12);
            assert!(rel < 0.05, "layers={layers}: fast {fast} vs exact {exact} (rel {rel})");
        }
    }

    #[test]
    fn accuracy_target_solves_and_predictions_are_consistent() {
        let req = TuneRequest::accuracy(1.0e6, 0.1, 0.05);
        let plan = solve(&paper(), &req, &workload()).unwrap();
        assert!(plan.margin >= req.min_margin, "{plan}");
        assert!(plan.predicted_epsilon <= 0.1, "{plan}");
        assert!(plan.predicted_regulation > 0.0 && plan.predicted_regulation < 1.0);
        assert!(plan.probes_per_insert >= 2.0);
        // The WSAF must hold 20k flows comfortably.
        assert!(u64::from(plan.wsaf_entries_log2) >= 14);
        // The margin ran at the profile curve evaluated at the plan's
        // working set — somewhere strictly inside the curve's range (a
        // ~1 MB WSAF lands between the 256 KB and 8 MB rungs).
        assert!(plan.access_nanos > paper().sram_ns(), "{plan}");
        assert!(plan.access_nanos <= paper().dram_ns(), "{plan}");
    }

    #[test]
    fn tighter_epsilon_buys_wider_vectors() {
        let sizes = workload();
        let loose = solve(&paper(), &TuneRequest::accuracy(1.0e6, 0.2, 0.05), &sizes).unwrap();
        let tight = solve(&paper(), &TuneRequest::accuracy(1.0e6, 0.03, 0.05), &sizes).unwrap();
        assert!(tight.vector_bits > loose.vector_bits, "loose {loose} tight {tight}");
        assert!(tight.predicted_epsilon < loose.predicted_epsilon);
        assert!(tight.wsaf_entries_log2 >= loose.wsaf_entries_log2);
    }

    #[test]
    fn throughput_pressure_buys_layers() {
        // Campus rate over a Zipf mix: a single layer suffices.
        let calm = solve(&paper(), &TuneRequest::throughput(150e3, 2.0), &workload()).unwrap();
        assert_eq!(calm.layers, 1, "{calm}");
        // An all-elephant workload at a brutal packet rate: every flow
        // saturates at the steady period, so a single layer (even b=32)
        // feeds the WSAF too fast — only cascading, which squares the
        // release period away, fits. (Mice-heavy mixes self-regulate and
        // legitimately solve single-layer even at 100 GbE.)
        let elephants = vec![10_000u64; 50_000];
        let stress = solve(&paper(), &TuneRequest::throughput(600e6, 2.0), &elephants).unwrap();
        assert_eq!(stress.layers, 2, "{stress}");
        assert_eq!(stress.filter_kind(), FilterKind::Regulator);
        assert!(stress.predicted_regulation < calm.predicted_regulation);
    }

    #[test]
    fn plans_stay_within_the_depths_the_pipeline_runs() {
        let elephants = vec![10_000u64; 50_000];
        for pps in [1e6, 1e8, 6e8, 1e9, 2e9, 4e9] {
            for profile in [paper(), flat(80.0), flat(2.0)] {
                let Some(plan) = solve(&profile, &TuneRequest::throughput(pps, 2.0), &elephants)
                else {
                    continue;
                };
                assert!((1..=2).contains(&plan.layers), "{plan}");
                let cfg = plan.to_config(1).unwrap();
                assert_eq!(cfg.filter.regulator_depth(), Some(plan.layers), "{plan}");
            }
            let acc = solve(&paper(), &TuneRequest::accuracy(pps, 0.1, 0.05), &workload());
            assert!(acc.is_none_or(|p| p.layers == 1), "{acc:?}");
        }
    }

    #[test]
    fn line_rate_dram_needs_the_two_layer_design() {
        // 100 GbE worst case (~148.8 Mpps): no single-layer vector in the
        // search space suffices in DRAM; the paper's two-layer design with
        // the widest vectors does. The layer-2 feed rate is itself a DRAM
        // cost, so the margin is a hard-won 2x.
        let dram = technology(MemoryTechnology::Dram);
        let req = TuneRequest::throughput(148.8e6, 2.0);
        let plan = solve(&dram, &req, &heavy_sizes()).unwrap();
        assert_eq!(plan.layers, 2, "{plan}");
        assert!(plan.vector_bits >= 16, "{plan}");
        assert!(plan.predicted_regulation < 0.01, "{plan}");
    }

    #[test]
    fn line_rate_dram_cannot_promise_deep_margins_but_tcam_can() {
        // Every L2 layer lives in the same memory as the WSAF, so depth
        // cannot buy a 5x DRAM margin at 148.8 Mpps...
        let req = TuneRequest::throughput(148.8e6, 5.0);
        let dram = solve(&technology(MemoryTechnology::Dram), &req, &heavy_sizes());
        assert!(dram.is_none(), "{dram:?}");
        // ...while a TCAM WSAF reaches it at depth 1.
        let tcam = solve(&technology(MemoryTechnology::Tcam), &req, &heavy_sizes()).unwrap();
        assert_eq!(tcam.layers, 1, "{tcam}");
    }

    #[test]
    fn faster_memory_never_yields_a_deeper_plan() {
        let sizes = heavy_sizes();
        for pps in [1.488e6, 14.88e6, 59.5e6, 148.8e6] {
            let req = TuneRequest::throughput(pps, 2.0);
            let plans = [MemoryTechnology::Dram, MemoryTechnology::Sram, MemoryTechnology::Tcam]
                .map(|tech| solve(&technology(tech), &req, &sizes));
            for pair in plans.windows(2) {
                let (Some(slower), Some(faster)) = (&pair[0], &pair[1]) else {
                    assert!(pair[0].is_none(), "{pps}: slower memory solved, faster did not");
                    continue;
                };
                assert!(geometry(faster) <= geometry(slower), "{pps}: {faster} vs {slower}");
            }
        }
    }

    #[test]
    fn a_slower_measured_latency_never_yields_a_cheaper_plan() {
        let sizes = heavy_sizes();
        let req = TuneRequest::throughput(59.5e6, 2.0);
        let paper_dram = solve(&technology(MemoryTechnology::Dram), &req, &sizes).unwrap();
        // A host whose DRAM measures twice the paper constant.
        let slow = solve(&flat(160.0), &req, &sizes).unwrap();
        assert!(geometry(&slow) >= geometry(&paper_dram), "slow {slow} vs paper {paper_dram}");
        // A measured 80 ns is the paper constant.
        let same = solve(&flat(80.0), &req, &sizes).unwrap();
        assert_eq!(geometry(&same), geometry(&paper_dram));
    }

    #[test]
    fn impossible_targets_return_none() {
        let sizes = workload();
        // An epsilon no vector in the space can promise.
        assert!(solve(&paper(), &TuneRequest::accuracy(1.0e6, 0.001, 0.05), &sizes).is_none());
        // A margin no config reaches at an absurd rate.
        assert!(solve(&paper(), &TuneRequest::throughput(1e12, 100.0), &sizes).is_none());
        // Malformed requests never panic.
        assert!(solve(&paper(), &TuneRequest::accuracy(1.0e6, 0.0, 0.05), &sizes).is_none());
        assert!(solve(&paper(), &TuneRequest::accuracy(f64::NAN, 0.1, 0.05), &sizes).is_none());
        // No depth promises a 10^6x margin on elephant-only traffic.
        let elephants = vec![1_000_000u64; 10];
        let dram = technology(MemoryTechnology::Dram);
        assert!(solve(&dram, &TuneRequest::throughput(1e9, 1e6), &elephants).is_none());
    }

    #[test]
    fn slower_memory_never_cheapens_the_plan() {
        let sizes = workload();
        let req = TuneRequest::throughput(59.5e6, 2.0);
        let fast_host = solve(&paper(), &req, &sizes).unwrap();
        // A host measuring 3x the paper's DRAM latency everywhere.
        let slow_points = paper()
            .points()
            .iter()
            .map(|p| LatencyPoint { bytes: p.bytes, nanos: p.nanos * 3.0 })
            .collect();
        let slow = MachineProfile::from_parts(slow_points, 3.5, 0.5, 0, false).unwrap();
        let slow_host = solve(&slow, &req, &sizes).unwrap();
        assert!(
            (slow_host.layers, slow_host.vector_bits) >= (fast_host.layers, fast_host.vector_bits),
            "slow {slow_host} vs fast {fast_host}"
        );
    }

    #[test]
    fn wsaf_rule_is_monotone_and_bounded() {
        let acc = |e| TuneTarget::Accuracy { epsilon: e, delta: 0.05 };
        let l1 = wsaf_log2_for(400_000, &acc(0.1)).unwrap();
        let l2 = wsaf_log2_for(400_000, &acc(0.05)).unwrap();
        let l3 = wsaf_log2_for(400_000, &acc(0.01)).unwrap();
        assert!(l1 <= l2 && l2 <= l3, "{l1} {l2} {l3}");
        assert_eq!(wsaf_log2_for(0, &TuneTarget::Throughput).unwrap(), 14);
        // A workload too large for the clamp refuses rather than lies.
        assert!(wsaf_log2_for(u64::MAX / 2, &TuneTarget::Throughput).is_none());
    }

    #[test]
    fn plan_text_roundtrip() {
        let req = TuneRequest::accuracy(1.0e6, 0.1, 0.05);
        let plan = solve(&paper(), &req, &workload()).unwrap();
        let back = TunePlan::from_text(&plan.to_text()).unwrap();
        assert_eq!(back, plan);
        assert!(back.same_geometry(&plan));
        assert!(TunePlan::from_text("nope").is_err());
        assert!(TunePlan::from_text(PLAN_HEADER).is_err(), "geometry fields required");

        // A file naming a depth the pipeline does not run is refused on
        // its `layers` line, never booted as some other depth.
        for layers in [1u32, 2] {
            let text = TunePlan { layers, ..plan }.to_text();
            assert_eq!(TunePlan::from_text(&text).unwrap().layers, layers);
        }
        for layers in ["3", "0"] {
            let text = plan.to_text().replace("\nlayers 1\n", &format!("\nlayers {layers}\n"));
            assert!(text.contains(&format!("layers {layers}")), "{text}");
            match TunePlan::from_text(&text) {
                Err(ProfileError::Parse(msg)) => {
                    assert!(msg.contains("plan line 5"), "{msg}");
                    assert!(msg.contains(&format!("layers {layers}")), "{msg}");
                }
                other => panic!("layers {layers} parsed: {other:?}"),
            }
        }
    }

    #[test]
    fn plan_materializes_as_a_runnable_config() {
        let plan = solve(&paper(), &TuneRequest::accuracy(1.0e6, 0.1, 0.05), &workload()).unwrap();
        let cfg = plan.to_config(42).unwrap();
        assert_eq!(cfg.sketch.memory_bytes() as u64, plan.l1_memory_bytes);
        assert_eq!(cfg.sketch.vector_bits(), plan.vector_bits);
        assert_eq!(cfg.wsaf.entries_log2(), plan.wsaf_entries_log2);
        assert_eq!(cfg.filter, plan.filter_kind());
    }

    #[test]
    fn measured_epsilon_honours_the_prediction_on_a_small_trace() {
        // The e2e battery runs the big version; this keeps the oracle
        // itself honest at unit-test scale.
        let sizes = zipf_sizes(2_000, 20_000);
        let plan = solve(&paper(), &TuneRequest::accuracy(1.0e6, 0.15, 0.1), &sizes).unwrap();
        let eps = measured_epsilon(&plan, &sizes, 100, 7);
        assert!(eps < 0.15, "measured epsilon {eps} vs target 0.15 for {plan}");
    }
}
