//! The [`FlowFilter`] front-end abstraction: anything that sits between
//! the packet stream and the WSAF table, retaining mice flows and emitting
//! occasional accumulated updates for elephants.
//!
//! InstaMeasure's core claim is architectural — a small front-end filter
//! plus a large in-DRAM store beats a monolithic sketch — and several
//! sibling designs share that filter-then-store split (PriMe's SRAM front
//! end, HashFlow's main/ancillary tables). [`FlowFilter`] is the seam that
//! lets the pipeline swap front ends and compare them honestly at equal
//! memory: the paper's [`FlowRegulator`] is the reference implementation,
//! [`SwingFilter`] and [`HashFlowFilter`] are the alternates, and
//! [`FilterKind`] names them all for configs, CLIs, and benches.
//!
//! The contract, in one paragraph: `process` consumes a packet and returns
//! the filter *decision* — `None` means the packet was retained inside the
//! filter, `Some(update)` means an accumulated count was released toward
//! the WSAF. `estimate_packets` reports what the filter currently retains
//! for a flow (the *residual*), so a query layer can always answer
//! `store + residual` without waiting for a release. `process_batch` must
//! be bit-identical to scalar processing; `memory_bytes` is the total the
//! filter actually holds, which the equal-memory shootout pins against a
//! shared budget.

use core::str::FromStr;

use instameasure_packet::{FlowDigest, FlowKey, PacketRecord};
use instameasure_telemetry::{Instrumented, Snapshot};

use crate::config::SketchConfig;
use crate::flow_regulator::FlowRegulator;
use crate::hashflow::HashFlowFilter;
use crate::swing::SwingFilter;

/// An accumulated count released by a front-end filter toward the WSAF
/// table (`ACC_WSAF(f, est_pkt, est_byte)` in the paper's Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowUpdate {
    /// The flow being credited.
    pub key: FlowKey,
    /// The flow's hash-once digest, carried along so the WSAF can derive
    /// its probe hash without rehashing the key bytes.
    pub digest: FlowDigest,
    /// Estimated packets accumulated since the flow's previous update.
    pub est_pkts: f64,
    /// Estimated bytes. Probabilistic filters use the saturation-sampling
    /// rule `est_pkts × len(trigger packet)` (§III-C); exact-counting
    /// filters carry the true accumulated byte count.
    pub est_bytes: f64,
    /// Timestamp of the packet that triggered the update.
    pub ts_nanos: u64,
}

/// Work counters of a front-end filter; the basis of the rate-regulation
/// figures (paper Figs. 1 and 7) and of the cost claims of §III-A.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Packets processed.
    pub packets: u64,
    /// WSAF updates emitted (insertion requests; "ips" numerator).
    pub updates: u64,
    /// Filter memory accesses performed (counter words or table slots).
    pub mem_accesses: u64,
    /// Flow-hash computations performed.
    pub hashes: u64,
}

impl FilterStats {
    /// Output-updates-per-input-packet: the paper's *rate regulation*
    /// (`ips / pps`); lower is better for the WSAF.
    #[must_use]
    pub fn regulation_rate(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.updates as f64 / self.packets as f64
        }
    }

    /// Average filter memory accesses per packet.
    #[must_use]
    pub fn accesses_per_packet(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.mem_accesses as f64 / self.packets as f64
        }
    }
}

/// A pluggable front-end flow filter: encodes packets, retains mice flows,
/// and emits accumulated [`FlowUpdate`]s for elephants.
///
/// Implementations must keep queries *instant*: at any point,
/// `sum(released est_pkts) + estimate_packets(digest)` tracks the flow's
/// true packet count, so `InstaMeasure` can answer `WSAF + residual`
/// without waiting for the filter to release.
pub trait FlowFilter: core::fmt::Debug + Send + Instrumented {
    /// Feeds one packet through the filter. The return value is the filter
    /// decision: `None` when the packet was retained inside the filter,
    /// `Some(update)` exactly when an accumulated count is released toward
    /// the WSAF.
    fn process(&mut self, pkt: &PacketRecord) -> Option<FlowUpdate>;

    /// Feeds a batch of packets, appending released updates to `out` in
    /// packet order. Must be bit-identical (filter state, statistics and
    /// emitted updates) to calling [`FlowFilter::process`] on each packet
    /// in order; implementations override it to hash once per packet up
    /// front and prefetch memory across the batch.
    fn process_batch(&mut self, pkts: &[PacketRecord], out: &mut Vec<FlowUpdate>) {
        for pkt in pkts {
            if let Some(u) = self.process(pkt) {
                out.push(u);
            }
        }
    }

    /// Estimated packets currently retained for the flow with this digest
    /// (not yet released to the WSAF) — the residual a query layer adds to
    /// the WSAF's accumulation. The caller has already hashed the key
    /// bytes once; implementations derive their lanes from the digest.
    fn estimate_packets(&self, digest: FlowDigest) -> f64;

    /// Estimated bytes currently retained for the flow with this digest,
    /// or `None` when the filter cannot attribute bytes to a flow it still
    /// retains (probabilistic filters share counter bits across flows, so
    /// their byte residual has no per-flow owner). Callers fall back to
    /// scaling [`FlowFilter::estimate_packets`] by an observed mean packet
    /// length.
    fn estimate_bytes(&self, digest: FlowDigest) -> Option<f64> {
        let _ = digest;
        None
    }

    /// [`FlowFilter::estimate_packets`] from the key bytes: hashes the key
    /// once and queries by digest.
    fn residual_packets(&self, key: &FlowKey) -> f64 {
        self.estimate_packets(FlowDigest::of(key))
    }

    /// Work-counter snapshot.
    fn stats(&self) -> FilterStats;

    /// Total filter memory in bytes (all layers / tables).
    fn memory_bytes(&self) -> usize;

    /// Clears all filter state and statistics.
    fn reset(&mut self);
}

/// The front-end filter designs the pipeline can be configured with.
///
/// All kinds built through [`FilterKind::build`] share one total memory
/// budget — the [`FlowRegulator`]'s paper accounting
/// `memory_bytes × (1 + noise_classes)` (32 KB L1 → 128 KB total) — so a
/// shootout across kinds is an equal-memory comparison by construction.
///
/// The enum is `#[non_exhaustive]`: later PRs add kinds without breaking
/// matches, so always keep a wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FilterKind {
    /// The paper's two-layer [`FlowRegulator`] (the default).
    #[default]
    Regulator,
    /// A single flat [`Rcc`](crate::Rcc) spending the whole budget on one
    /// layer (a depth-1 [`FlowRegulator`]) — the paper's Fig. 1/7
    /// baseline.
    Rcc,
    /// [`SwingFilter`]: an exact fingerprint stage in front of a keyed
    /// store, split 1/3 filter – 2/3 store.
    Swing,
    /// [`HashFlowFilter`]: HashFlow's multi-way main table plus ancillary
    /// table with promotion, exporting evicted records as updates.
    HashFlow,
}

/// Every filter kind currently defined, in a stable order (configs, CLI
/// help, and the shootout bench iterate this).
pub const ALL_FILTER_KINDS: [FilterKind; 4] =
    [FilterKind::Regulator, FilterKind::Rcc, FilterKind::Swing, FilterKind::HashFlow];

/// The [`FlowRegulator`] depths the pipeline runs and the kind that runs
/// each: entry `d - 1` runs a `d`-layer cascade. Depth 1 is L1 alone over
/// the whole budget (`rcc`); depth 2 is the paper's design (`regulator`).
/// This is the one place depth meets kind: [`FilterKind::regulator_depth`]
/// and [`FilterKind::for_regulator_depth`] read it, and through them the
/// tuner's search bound, its plan → kind mapping and its plan-file check.
pub const REGULATOR_KINDS: [FilterKind; 2] = [FilterKind::Rcc, FilterKind::Regulator];

/// A filter name that [`FilterKind::from_str`] did not recognize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownFilterError {
    name: String,
}

impl UnknownFilterError {
    /// The rejected name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl core::fmt::Display for UnknownFilterError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "unknown filter kind '{}' (expected one of:", self.name)?;
        for k in ALL_FILTER_KINDS {
            write!(f, " {k}")?;
        }
        write!(f, ")")
    }
}

impl std::error::Error for UnknownFilterError {}

impl FilterKind {
    /// The kind's canonical lowercase name (what [`FilterKind::from_str`]
    /// parses and the CLI accepts).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FilterKind::Regulator => "regulator",
            FilterKind::Rcc => "rcc",
            FilterKind::Swing => "swing",
            FilterKind::HashFlow => "hashflow",
        }
    }

    /// The [`FlowRegulator`] depth this kind runs (see
    /// [`REGULATOR_KINDS`]), `None` for the table filters.
    #[must_use]
    pub fn regulator_depth(self) -> Option<u32> {
        REGULATOR_KINDS.iter().position(|&k| k == self).map(|i| i as u32 + 1)
    }

    /// The kind that runs a `depth`-layer [`FlowRegulator`], `None` for a
    /// depth no kind runs.
    #[must_use]
    pub fn for_regulator_depth(depth: u32) -> Option<FilterKind> {
        REGULATOR_KINDS.get(usize::try_from(depth).ok()?.checked_sub(1)?).copied()
    }

    /// Builds the filter, sizing it to the equal-memory anchor: the total
    /// budget is `cfg.memory_bytes() × (1 + cfg.noise_classes())`, exactly
    /// what a [`FlowRegulator`] over `cfg` occupies (the paper's 32 KB →
    /// 128 KB accounting). Every kind's [`FlowFilter::memory_bytes`] comes
    /// out ≤ that budget (alternates may round down to whole slots).
    #[must_use]
    pub fn build(self, cfg: SketchConfig) -> AnyFilter {
        let budget = cfg.memory_bytes() * (1 + cfg.noise_classes() as usize);
        match self {
            FilterKind::Regulator => AnyFilter::Regulator(FlowRegulator::new(cfg)),
            FilterKind::Rcc => {
                let flat =
                    cfg.with_memory_bytes(budget).expect("scaling a valid geometry up stays valid");
                AnyFilter::Rcc(FlowRegulator::single_layer(flat))
            }
            FilterKind::Swing => AnyFilter::Swing(SwingFilter::new(budget, cfg.seed())),
            FilterKind::HashFlow => AnyFilter::HashFlow(HashFlowFilter::new(budget, cfg.seed())),
        }
    }
}

impl core::fmt::Display for FilterKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for FilterKind {
    type Err = UnknownFilterError;

    /// Parses a kind by its canonical name, case-insensitively
    /// (`"HashFlow"` and `"hashflow"` both work).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.trim().to_ascii_lowercase();
        ALL_FILTER_KINDS
            .into_iter()
            .find(|k| k.name() == lower)
            .ok_or(UnknownFilterError { name: s.to_string() })
    }
}

/// A concrete front-end filter, dispatched by kind.
///
/// The pipeline holds this closed enum instead of a `Box<dyn FlowFilter>`:
/// the hot path keeps static dispatch (one match, then inlined calls), the
/// container stays `Clone` + `Debug`, and [`AnyFilter::kind`] stays
/// answerable. It still *is* a `FlowFilter`, so query layers that only
/// need the trait take `&dyn FlowFilter`.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum AnyFilter {
    /// The paper's two-layer regulator.
    Regulator(FlowRegulator),
    /// The flat single-layer RCC baseline: a depth-1 regulator.
    Rcc(FlowRegulator),
    /// The swing filter alternate.
    Swing(SwingFilter),
    /// The HashFlow alternate.
    HashFlow(HashFlowFilter),
}

macro_rules! delegate {
    ($self:ident, $f:ident => $body:expr) => {
        match $self {
            AnyFilter::Regulator($f) | AnyFilter::Rcc($f) => $body,
            AnyFilter::Swing($f) => $body,
            AnyFilter::HashFlow($f) => $body,
        }
    };
}

impl AnyFilter {
    /// Which [`FilterKind`] this filter is.
    #[must_use]
    pub fn kind(&self) -> FilterKind {
        match self {
            AnyFilter::Regulator(_) => FilterKind::Regulator,
            AnyFilter::Rcc(_) => FilterKind::Rcc,
            AnyFilter::Swing(_) => FilterKind::Swing,
            AnyFilter::HashFlow(_) => FilterKind::HashFlow,
        }
    }
}

impl FlowFilter for AnyFilter {
    fn process(&mut self, pkt: &PacketRecord) -> Option<FlowUpdate> {
        delegate!(self, f => f.process(pkt))
    }

    fn process_batch(&mut self, pkts: &[PacketRecord], out: &mut Vec<FlowUpdate>) {
        delegate!(self, f => f.process_batch(pkts, out));
    }

    fn estimate_packets(&self, digest: FlowDigest) -> f64 {
        delegate!(self, f => f.estimate_packets(digest))
    }

    fn estimate_bytes(&self, digest: FlowDigest) -> Option<f64> {
        delegate!(self, f => f.estimate_bytes(digest))
    }

    fn residual_packets(&self, key: &FlowKey) -> f64 {
        delegate!(self, f => f.residual_packets(key))
    }

    fn stats(&self) -> FilterStats {
        delegate!(self, f => f.stats())
    }

    fn memory_bytes(&self) -> usize {
        delegate!(self, f => f.memory_bytes())
    }

    fn reset(&mut self) {
        delegate!(self, f => f.reset());
    }
}

impl Instrumented for AnyFilter {
    /// The inner filter's telemetry, verbatim (each implementation keeps
    /// its own metric prefix, so dashboards can tell designs apart).
    fn telemetry(&self) -> Snapshot {
        delegate!(self, f => f.telemetry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instameasure_packet::Protocol;

    fn key(i: u32) -> FlowKey {
        FlowKey::new(i.to_be_bytes(), [6, 6, 6, 6], 80, 443, Protocol::Tcp)
    }

    fn cfg() -> SketchConfig {
        SketchConfig::builder().memory_bytes(4096).vector_bits(8).seed(7).build().unwrap()
    }

    #[test]
    fn stats_rates() {
        let s = FilterStats { packets: 200, updates: 25, mem_accesses: 210, hashes: 200 };
        assert!((s.regulation_rate() - 0.125).abs() < 1e-12);
        assert!((s.accesses_per_packet() - 1.05).abs() < 1e-12);
        assert_eq!(FilterStats::default().regulation_rate(), 0.0);
        assert_eq!(FilterStats::default().accesses_per_packet(), 0.0);
    }

    #[test]
    fn regulator_depths_map_one_to_one_onto_the_kinds_that_build_them() {
        assert_eq!(FilterKind::Rcc.regulator_depth(), Some(1));
        assert_eq!(FilterKind::Regulator.regulator_depth(), Some(2));
        for kind in ALL_FILTER_KINDS {
            let depth = match kind.build(cfg()) {
                AnyFilter::Regulator(fr) | AnyFilter::Rcc(fr) => Some(fr.depth()),
                _ => None,
            };
            assert_eq!(kind.regulator_depth(), depth, "{kind}");
            if let Some(d) = depth {
                assert_eq!(FilterKind::for_regulator_depth(d), Some(kind));
            }
        }
        for depth in [0, 3, 4, u32::MAX] {
            assert_eq!(FilterKind::for_regulator_depth(depth), None, "depth {depth}");
        }
    }

    #[test]
    fn kind_names_roundtrip_through_from_str() {
        for kind in ALL_FILTER_KINDS {
            assert_eq!(kind.name().parse::<FilterKind>().unwrap(), kind);
            assert_eq!(kind.name().to_uppercase().parse::<FilterKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        let err = "bogus".parse::<FilterKind>().unwrap_err();
        assert_eq!(err.name(), "bogus");
        let msg = err.to_string();
        for kind in ALL_FILTER_KINDS {
            assert!(msg.contains(kind.name()), "{msg}");
        }
    }

    #[test]
    fn default_kind_is_the_regulator() {
        assert_eq!(FilterKind::default(), FilterKind::Regulator);
    }

    #[test]
    fn built_filters_respect_the_equal_memory_budget() {
        let cfg = cfg();
        let budget = cfg.memory_bytes() * (1 + cfg.noise_classes() as usize);
        for kind in ALL_FILTER_KINDS {
            let filter = kind.build(cfg);
            assert_eq!(filter.kind(), kind);
            let mem = filter.memory_bytes();
            assert!(mem <= budget, "{kind}: {mem} > budget {budget}");
            // No kind may squander the budget either: at least 7/8 used.
            assert!(mem * 8 >= budget * 7, "{kind}: {mem} wastes budget {budget}");
        }
    }

    #[test]
    fn regulator_kind_matches_a_plain_flow_regulator() {
        let mut via_kind = FilterKind::Regulator.build(cfg());
        let mut direct = FlowRegulator::new(cfg());
        for t in 0..20_000u64 {
            let pkt = PacketRecord::new(key((t % 9) as u32), 700, t);
            assert_eq!(via_kind.process(&pkt), direct.process(&pkt));
        }
        assert_eq!(via_kind.stats(), FlowFilter::stats(&direct));
        for i in 0..9 {
            let a = via_kind.estimate_packets(FlowDigest::of(&key(i)));
            let b = direct.estimate_packets(FlowDigest::of(&key(i)));
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // The rcc kind is a depth-1 regulator over the whole budget, and
        // exports exactly its six `rcc.` metrics.
        let mut rcc = FilterKind::Rcc.build(cfg());
        let flat = cfg().with_memory_bytes(rcc.memory_bytes()).unwrap();
        let mut direct = FlowRegulator::single_layer(flat);
        for t in 0..20_000u64 {
            let pkt = PacketRecord::new(key((t % 9) as u32), 700, t);
            assert_eq!(rcc.process(&pkt), direct.process(&pkt));
        }
        let stats = rcc.stats();
        assert_eq!(stats, FlowFilter::stats(&direct));
        assert!(stats.updates > 0);
        let snap = rcc.telemetry();
        assert_eq!(snap.len(), 6, "{snap:?}");
        assert_eq!(snap.counter("rcc.packets"), Some(stats.packets));
        assert_eq!(snap.counter("rcc.updates"), Some(stats.updates));
        assert_eq!(snap.counter("rcc.hashes"), Some(stats.hashes));
        assert_eq!(snap.counter("rcc.mem_accesses"), Some(stats.mem_accesses));
        assert_eq!(snap.gauge("rcc.regulation_rate"), Some(stats.regulation_rate()));
        let fill = direct.l1().fill_ratio();
        assert!(fill > 0.0);
        assert_eq!(snap.gauge("rcc.fill_ratio"), Some(fill));
    }

    #[test]
    fn every_kind_conserves_packets_through_release_plus_residual() {
        // Filters may misattribute between flows, but released + retained
        // totals must track the stream (the regulator probabilistically,
        // the table filters exactly).
        for kind in ALL_FILTER_KINDS {
            let mut filter = kind.build(cfg());
            let n = 60_000u64;
            let mut released = 0.0;
            for t in 0..n {
                if let Some(u) = filter.process(&PacketRecord::new(key((t % 40) as u32), 600, t)) {
                    assert!(u.est_pkts > 0.0, "{kind}: empty update");
                    released += u.est_pkts;
                }
            }
            let retained: f64 =
                (0..40).map(|i| filter.estimate_packets(FlowDigest::of(&key(i)))).sum();
            let total = released + retained;
            let rel = (total - n as f64).abs() / n as f64;
            assert!(rel < 0.15, "{kind}: released {released} + retained {retained} vs {n}");
        }
    }

    #[test]
    fn batch_matches_scalar_for_every_kind() {
        let trace: Vec<PacketRecord> = (0..6_000u64)
            .map(|t| PacketRecord::new(key((t % 17) as u32), 100 + (t % 1200) as u16, t))
            .collect();
        for kind in ALL_FILTER_KINDS {
            for chunk in [1usize, 13, 256] {
                let mut scalar = kind.build(cfg());
                let mut batched = kind.build(cfg());
                let mut scalar_out = Vec::new();
                for pkt in &trace {
                    if let Some(u) = scalar.process(pkt) {
                        scalar_out.push(u);
                    }
                }
                let mut batch_out = Vec::new();
                for pkts in trace.chunks(chunk) {
                    batched.process_batch(pkts, &mut batch_out);
                }
                assert_eq!(scalar_out, batch_out, "{kind} chunk={chunk}");
                assert_eq!(scalar.stats(), batched.stats(), "{kind} chunk={chunk}");
            }
        }
    }

    #[test]
    fn reset_restores_every_kind() {
        for kind in ALL_FILTER_KINDS {
            let mut filter = kind.build(cfg());
            for t in 0..5_000u64 {
                filter.process(&PacketRecord::new(key((t % 11) as u32), 500, t));
            }
            filter.reset();
            assert_eq!(filter.stats(), FilterStats::default(), "{kind}");
            for i in 0..11 {
                assert_eq!(filter.estimate_packets(FlowDigest::of(&key(i))), 0.0, "{kind}");
            }
        }
    }
}
