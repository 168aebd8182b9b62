//! The single-core InstaMeasure pipeline.

use instameasure_packet::PerFlowCounter;
use instameasure_packet::{FlowDigest, FlowKey, PacketRecord};
use instameasure_sketch::{
    AnyFilter, FilterKind, FilterStats, FlowFilter, FlowRegulator, FlowUpdate, SketchConfig,
    UnknownFilterError,
};
use instameasure_telemetry::{Instrumented, Snapshot};
use instameasure_wsaf::{WsafConfig, WsafDeposit, WsafStats, WsafTable};

/// Configuration of an [`InstaMeasure`] instance: the front-end filter
/// kind and geometry plus the WSAF table geometry.
///
/// Paper defaults (§IV-D): the [`FilterKind::Regulator`] front end over a
/// 32 KB L1 (→128 KB filter total) and a 2²⁰-entry WSAF. Construct via
/// [`InstaMeasureConfig::builder`] (validating) or from `Default` with
/// [`InstaMeasureConfig::with_sketch`] / [`InstaMeasureConfig::with_wsaf`]
/// / [`InstaMeasureConfig::with_filter`] when the parts are already built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct InstaMeasureConfig {
    /// Sketch (L1) geometry; for alternate filter kinds this sets the
    /// shared equal-memory budget (see [`FilterKind::build`]).
    pub sketch: SketchConfig,
    /// WSAF table geometry and policy.
    pub wsaf: WsafConfig,
    /// Which front-end filter design to run.
    pub filter: FilterKind,
}

/// Errors from [`InstaMeasureConfig::builder`]: whichever half of the
/// system rejected its parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum InstaMeasureConfigError {
    /// The sketch geometry was invalid.
    Sketch(instameasure_sketch::ConfigError),
    /// The WSAF geometry was invalid.
    Wsaf(instameasure_wsaf::WsafConfigError),
    /// The front-end filter kind was not recognized.
    Filter(UnknownFilterError),
}

impl core::fmt::Display for InstaMeasureConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InstaMeasureConfigError::Sketch(e) => write!(f, "sketch: {e}"),
            InstaMeasureConfigError::Wsaf(e) => write!(f, "wsaf: {e}"),
            InstaMeasureConfigError::Filter(e) => write!(f, "filter: {e}"),
        }
    }
}

impl std::error::Error for InstaMeasureConfigError {}

impl From<instameasure_sketch::ConfigError> for InstaMeasureConfigError {
    fn from(e: instameasure_sketch::ConfigError) -> Self {
        InstaMeasureConfigError::Sketch(e)
    }
}

impl From<instameasure_wsaf::WsafConfigError> for InstaMeasureConfigError {
    fn from(e: instameasure_wsaf::WsafConfigError) -> Self {
        InstaMeasureConfigError::Wsaf(e)
    }
}

impl From<UnknownFilterError> for InstaMeasureConfigError {
    fn from(e: UnknownFilterError) -> Self {
        InstaMeasureConfigError::Filter(e)
    }
}

/// Validating builder for [`InstaMeasureConfig`]: forwards the common
/// knobs of both halves and runs each half's own validation on
/// [`InstaMeasureConfigBuilder::build`].
///
/// ```
/// use instameasure_core::InstaMeasureConfig;
/// let cfg = InstaMeasureConfig::builder()
///     .l1_memory_bytes(32 * 1024)
///     .vector_bits(8)
///     .wsaf_entries_log2(20)
///     .seed(42)
///     .build()?;
/// assert_eq!(cfg.sketch.memory_bytes(), 32 * 1024);
/// assert_eq!(cfg.wsaf.num_entries(), 1 << 20);
/// # Ok::<(), instameasure_core::InstaMeasureConfigError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct InstaMeasureConfigBuilder {
    sketch: instameasure_sketch::SketchConfigBuilder,
    wsaf: instameasure_wsaf::WsafConfigBuilder,
    filter: FilterKind,
}

impl InstaMeasureConfigBuilder {
    /// Sets the L1 sketch memory in bytes (default 32 KB, the paper's
    /// 128 KB-total configuration).
    #[must_use]
    pub fn l1_memory_bytes(mut self, bytes: usize) -> Self {
        self.sketch = self.sketch.memory_bytes(bytes);
        self
    }

    /// Sets the virtual-vector size in bits (default 8).
    #[must_use]
    pub fn vector_bits(mut self, bits: u32) -> Self {
        self.sketch = self.sketch.vector_bits(bits);
        self
    }

    /// Sets log₂ of the WSAF slot count (default 20).
    #[must_use]
    pub fn wsaf_entries_log2(mut self, n: u32) -> Self {
        self.wsaf = self.wsaf.entries_log2(n);
        self
    }

    /// Sets the WSAF probe limit (default 16).
    #[must_use]
    pub fn wsaf_probe_limit(mut self, p: usize) -> Self {
        self.wsaf = self.wsaf.probe_limit(p);
        self
    }

    /// Sets the WSAF idle expiry in nanoseconds (default 60 s).
    #[must_use]
    pub fn wsaf_expiry_nanos(mut self, t: u64) -> Self {
        self.wsaf = self.wsaf.expiry_nanos(t);
        self
    }

    /// Selects the front-end filter design (default
    /// [`FilterKind::Regulator`], the paper's design). Alternate kinds are
    /// sized to the same total memory the regulator would occupy, so
    /// swapping kinds never changes the memory story. Parse user-facing
    /// names with [`FilterKind::from_str`](core::str::FromStr), whose
    /// error converts into [`InstaMeasureConfigError::Filter`].
    #[must_use]
    pub fn with_filter(mut self, kind: FilterKind) -> Self {
        self.filter = kind;
        self
    }

    /// Seeds both halves from one value (the WSAF seed is decorrelated so
    /// the sketch and table never share a hash family).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.sketch = self.sketch.seed(seed);
        self.wsaf = self.wsaf.seed(seed ^ 0x57AF_57AF_57AF_57AF);
        self
    }

    /// Validates both halves and returns the config.
    ///
    /// # Errors
    ///
    /// Returns [`InstaMeasureConfigError`] naming the half whose
    /// parameters were rejected.
    pub fn build(self) -> Result<InstaMeasureConfig, InstaMeasureConfigError> {
        Ok(InstaMeasureConfig {
            sketch: self.sketch.build()?,
            wsaf: self.wsaf.build()?,
            filter: self.filter,
        })
    }
}

impl InstaMeasureConfig {
    /// Starts building a config with the paper's defaults.
    #[must_use]
    pub fn builder() -> InstaMeasureConfigBuilder {
        InstaMeasureConfigBuilder::default()
    }

    /// A small configuration for unit tests and doctests (4 KB L1,
    /// 2¹⁴-entry WSAF) — fast to construct, still accurate for a handful
    /// of flows.
    #[must_use]
    pub fn small_for_tests(mut self) -> Self {
        self.sketch = SketchConfig::builder()
            .memory_bytes(4 * 1024)
            .vector_bits(8)
            .build()
            .expect("static test config is valid");
        self.wsaf =
            WsafConfig::builder().entries_log2(14).build().expect("static test config is valid");
        self
    }

    /// Replaces the sketch geometry.
    #[must_use]
    pub fn with_sketch(mut self, sketch: SketchConfig) -> Self {
        self.sketch = sketch;
        self
    }

    /// Replaces the WSAF geometry.
    #[must_use]
    pub fn with_wsaf(mut self, wsaf: WsafConfig) -> Self {
        self.wsaf = wsaf;
        self
    }

    /// Replaces the front-end filter kind.
    #[must_use]
    pub fn with_filter(mut self, filter: FilterKind) -> Self {
        self.filter = filter;
        self
    }
}

/// The InstaMeasure measurement pipeline: a pluggable front-end
/// [`FlowFilter`] in front of an in-DRAM WSAF table (paper Fig. 2a). The
/// default filter is the paper's [`FlowRegulator`]; alternates are chosen
/// via [`InstaMeasureConfig::filter`].
///
/// Packets are fed to [`InstaMeasure::process`]; per-flow queries combine
/// the WSAF's accumulated counters with the packets still retained inside
/// the filter (the residual), which is what makes query results *instant*
/// rather than waiting for a collector round-trip.
///
/// The live service's engine never clones it to answer a query: each
/// shard's worker owns its pipeline and answers queries against it
/// between batches. `Clone` serves tests and tools that need a
/// point-in-time copy, such as the engine's `debug_shard_measurement`
/// hook, which the differential suites diff against an offline replay.
#[derive(Debug, Clone)]
pub struct InstaMeasure {
    filter: AnyFilter,
    wsaf: WsafTable,
    last_ts: u64,
    /// Recycled buffers for [`InstaMeasure::process_batch`]: released
    /// updates and the deposits handed to the WSAF.
    update_buf: Vec<FlowUpdate>,
    deposit_buf: Vec<WsafDeposit>,
}

impl InstaMeasure {
    /// Creates an empty system.
    #[must_use]
    pub fn new(cfg: InstaMeasureConfig) -> Self {
        InstaMeasure {
            filter: cfg.filter.build(cfg.sketch),
            wsaf: WsafTable::new(cfg.wsaf),
            last_ts: 0,
            update_buf: Vec::new(),
            deposit_buf: Vec::new(),
        }
    }

    /// Feeds one packet. Returns the [`FlowUpdate`] if the filter released
    /// an accumulated count into the WSAF on this packet (callers like the
    /// heavy-hitter detector hook on this).
    pub fn process(&mut self, pkt: &PacketRecord) -> Option<FlowUpdate> {
        self.last_ts = pkt.ts_nanos;
        let update = self.filter.process(pkt)?;
        self.wsaf.accumulate_hashed(
            &update.key,
            self.wsaf.hash_digest(update.digest),
            update.est_pkts,
            update.est_bytes,
            update.ts_nanos,
        );
        Some(update)
    }

    /// Feeds a batch of packets through the batched hot path: the filter
    /// hashes every packet once up front and (where the design allows)
    /// prefetches memory across the batch, then the released updates are
    /// accumulated into the WSAF as one prefetch-pipelined pass.
    ///
    /// Bit-identical to calling [`InstaMeasure::process`] on each packet
    /// in order: the filter and the WSAF share no state, so draining the
    /// filter's updates after the whole batch (in release order) leaves
    /// both structures in exactly the state the interleaved scalar path
    /// produces.
    pub fn process_batch(&mut self, pkts: &[PacketRecord]) {
        let Some(last) = pkts.last() else { return };
        self.last_ts = last.ts_nanos;

        let mut updates = core::mem::take(&mut self.update_buf);
        updates.clear();
        self.filter.process_batch(pkts, &mut updates);

        let mut deposits = core::mem::take(&mut self.deposit_buf);
        deposits.clear();
        deposits.extend(updates.iter().map(|u| WsafDeposit {
            key: u.key,
            digest: u.digest,
            est_pkts: u.est_pkts,
            est_bytes: u.est_bytes,
            ts: u.ts_nanos,
        }));
        self.wsaf.accumulate_batch(&deposits);

        self.update_buf = updates;
        self.deposit_buf = deposits;
    }

    /// Estimated packet count of a flow: WSAF accumulation + filter
    /// residual. The key bytes are hashed once; both structures derive
    /// their lanes from the digest.
    #[must_use]
    pub fn estimate_packets(&self, key: &FlowKey) -> f64 {
        let digest = FlowDigest::of(key);
        let table =
            self.wsaf.get_hashed(key, self.wsaf.hash_digest(digest)).map_or(0.0, |e| e.packets);
        table + self.filter.estimate_packets(digest)
    }

    /// Estimated byte count of a flow: WSAF accumulation plus the filter's
    /// byte residual. Filters that cannot attribute retained bytes to a
    /// flow (the probabilistic kinds) report no byte residual; the packet
    /// residual is then scaled by the flow's observed mean packet size
    /// (falling back to zero for flows the WSAF has never seen — their
    /// byte residual cannot be attributed a size yet).
    #[must_use]
    pub fn estimate_bytes(&self, key: &FlowKey) -> f64 {
        let digest = FlowDigest::of(key);
        let entry = self.wsaf.get_hashed(key, self.wsaf.hash_digest(digest));
        match (entry, self.filter.estimate_bytes(digest)) {
            (Some(e), Some(fb)) => e.bytes + fb,
            (None, Some(fb)) => fb,
            (Some(e), None) => {
                let mean_len = if e.packets > 0.0 { e.bytes / e.packets } else { 0.0 };
                e.bytes + self.filter.estimate_packets(digest) * mean_len
            }
            (None, None) => 0.0,
        }
    }

    /// Both per-flow estimates with a single hash of the key bytes:
    /// `(packets, bytes)`. Query layers answering both halves of one
    /// request (e.g. the service engine) use this instead of two
    /// [`InstaMeasure::estimate_packets`]/[`InstaMeasure::estimate_bytes`]
    /// calls, which would digest the key twice.
    #[must_use]
    pub fn estimate(&self, key: &FlowKey) -> (f64, f64) {
        let digest = FlowDigest::of(key);
        let residual = self.filter.estimate_packets(digest);
        let entry = self.wsaf.get_hashed(key, self.wsaf.hash_digest(digest));
        match (entry, self.filter.estimate_bytes(digest)) {
            (Some(e), Some(fb)) => (e.packets + residual, e.bytes + fb),
            (None, Some(fb)) => (residual, fb),
            (Some(e), None) => {
                let mean_len = if e.packets > 0.0 { e.bytes / e.packets } else { 0.0 };
                (e.packets + residual, e.bytes + residual * mean_len)
            }
            (None, None) => (residual, 0.0),
        }
    }

    /// The front-end filter, behind the trait (residual queries, memory
    /// accounting, design-agnostic diagnostics).
    #[must_use]
    pub fn filter(&self) -> &dyn FlowFilter {
        &self.filter
    }

    /// Which front-end filter design this instance runs.
    #[must_use]
    pub fn filter_kind(&self) -> FilterKind {
        self.filter.kind()
    }

    /// The filter's work counters (regulation rate, accesses, hashes).
    #[must_use]
    pub fn filter_stats(&self) -> FilterStats {
        self.filter.stats()
    }

    /// The filter's work counters.
    #[deprecated(since = "0.6.0", note = "renamed to `filter_stats`")]
    #[must_use]
    pub fn regulator_stats(&self) -> FilterStats {
        self.filter.stats()
    }

    /// The WSAF table's operation counters.
    #[must_use]
    pub fn wsaf_stats(&self) -> WsafStats {
        self.wsaf.stats()
    }

    /// Read access to the WSAF (Top-K queries, iteration).
    #[must_use]
    pub fn wsaf(&self) -> &WsafTable {
        &self.wsaf
    }

    /// Mutable access to the WSAF.
    #[deprecated(
        since = "0.6.0",
        note = "use `drain_expired` for maintenance instead of reaching into the table"
    )]
    pub fn wsaf_mut(&mut self) -> &mut WsafTable {
        &mut self.wsaf
    }

    /// Drains WSAF entries idle past their expiry at time `now` into
    /// export records ([`crate::export::drain_expired`]) — the periodic
    /// maintenance pass, without handing out the whole mutable table.
    pub fn drain_expired(&mut self, now: u64) -> Vec<crate::export::FlowRecord> {
        crate::export::drain_expired(&mut self.wsaf, now)
    }

    /// The underlying [`FlowRegulator`] when this instance runs the
    /// regulator kind (regulator-specific diagnostics).
    #[deprecated(
        since = "0.6.0",
        note = "use `filter()` / `filter_stats()`; returns None for non-regulator filter kinds"
    )]
    #[must_use]
    pub fn regulator(&self) -> Option<&FlowRegulator> {
        self.filter.as_regulator()
    }

    /// Timestamp of the most recently processed packet.
    #[must_use]
    pub fn last_ts(&self) -> u64 {
        self.last_ts
    }

    /// Total filter + WSAF memory modeled in paper terms (filter bytes +
    /// 33-byte WSAF entries).
    #[must_use]
    pub fn paper_memory_bytes(&self) -> usize {
        self.filter.memory_bytes() + self.wsaf.config().paper_dram_bytes()
    }

    /// Clears all measurement state.
    pub fn reset(&mut self) {
        self.filter.reset();
        self.wsaf.clear();
        self.last_ts = 0;
    }
}

impl Instrumented for InstaMeasure {
    /// The union of the filter's metrics (each design keeps its own
    /// prefix, e.g. `regulator.*` or `swing.*`) and the table's `wsaf.*`
    /// metrics — the single-core pipeline's complete operational view.
    fn telemetry(&self) -> Snapshot {
        let mut snap = self.filter.telemetry();
        snap.merge(&self.wsaf.telemetry());
        snap
    }
}

impl PerFlowCounter for InstaMeasure {
    fn record(&mut self, pkt: &PacketRecord) {
        self.process(pkt);
    }

    fn estimate_packets(&self, key: &FlowKey) -> f64 {
        InstaMeasure::estimate_packets(self, key)
    }

    fn estimate_bytes(&self, key: &FlowKey) -> f64 {
        InstaMeasure::estimate_bytes(self, key)
    }

    fn memory_bytes(&self) -> usize {
        self.paper_memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instameasure_packet::Protocol;

    fn key(i: u32) -> FlowKey {
        FlowKey::new(i.to_be_bytes(), [1, 2, 3, 4], 100, 200, Protocol::Tcp)
    }

    fn system() -> InstaMeasure {
        InstaMeasure::new(InstaMeasureConfig::default().small_for_tests())
    }

    #[test]
    fn elephant_estimate_tracks_truth() {
        let mut im = system();
        let n = 100_000u64;
        for t in 0..n {
            im.process(&PacketRecord::new(key(1), 800, t));
        }
        let pkts = im.estimate_packets(&key(1));
        assert!((pkts - n as f64).abs() / (n as f64) < 0.12, "packets {pkts}");
        let bytes = im.estimate_bytes(&key(1));
        let truth_bytes = n as f64 * 800.0;
        assert!((bytes - truth_bytes).abs() / truth_bytes < 0.12, "bytes {bytes}");
    }

    #[test]
    fn mice_stay_in_the_sketch() {
        let mut im = system();
        for i in 0..500u32 {
            for t in 0..3u64 {
                im.process(&PacketRecord::new(key(i), 100, t));
            }
        }
        // Almost no WSAF entries for 3-packet mice...
        assert!(im.wsaf().len() < 25, "wsaf holds {} mice", im.wsaf().len());
        // ...but estimates still see them via the residual.
        let est = im.estimate_packets(&key(7));
        assert!(est > 0.0, "mice visible through residual");
    }

    #[test]
    fn unseen_flow_estimates_zero_bytes_and_no_panic() {
        let im = system();
        assert_eq!(im.estimate_bytes(&key(9)), 0.0);
        assert_eq!(im.estimate_packets(&key(9)), 0.0);
    }

    #[test]
    fn process_returns_updates_only_on_saturation() {
        let mut im = system();
        let mut updates = 0u64;
        let n = 50_000u64;
        for t in 0..n {
            if im.process(&PacketRecord::new(key(2), 1000, t)).is_some() {
                updates += 1;
            }
        }
        assert_eq!(updates, im.filter_stats().updates);
        let rate = im.filter_stats().regulation_rate();
        assert!((0.005..0.04).contains(&rate), "regulation rate {rate}");
        assert_eq!(im.wsaf_stats().accumulates, updates);
    }

    #[test]
    fn last_ts_and_reset() {
        let mut im = system();
        im.process(&PacketRecord::new(key(1), 64, 99));
        assert_eq!(im.last_ts(), 99);
        im.reset();
        assert_eq!(im.last_ts(), 0);
        assert_eq!(im.estimate_packets(&key(1)), 0.0);
        assert!(im.wsaf().is_empty());
    }

    #[test]
    fn paper_memory_accounting() {
        let im = InstaMeasure::new(InstaMeasureConfig::default());
        // 128 KB sketch + 33 MB WSAF.
        assert_eq!(im.paper_memory_bytes(), 128 * 1024 + 33 * (1 << 20));
    }

    #[test]
    fn per_flow_counter_trait_roundtrip() {
        let mut im = system();
        let pkt = PacketRecord::new(key(3), 500, 0);
        for _ in 0..1000 {
            PerFlowCounter::record(&mut im, &pkt);
        }
        let est = PerFlowCounter::estimate_packets(&im, &key(3));
        assert!((est - 1000.0).abs() / 1000.0 < 0.3, "{est}");
        assert!(PerFlowCounter::memory_bytes(&im) > 0);
    }

    #[test]
    fn builder_defaults_match_default() {
        let built = InstaMeasureConfig::builder().build().unwrap();
        let dflt = InstaMeasureConfig::default();
        assert_eq!(built.sketch, dflt.sketch);
        // Seeds are the only half the builder's default shares with
        // Default; the rest of the WSAF geometry must agree too.
        assert_eq!(built.wsaf.entries_log2(), dflt.wsaf.entries_log2());
        assert_eq!(built.wsaf.probe_limit(), dflt.wsaf.probe_limit());
        assert_eq!(built.wsaf.expiry_nanos(), dflt.wsaf.expiry_nanos());
    }

    #[test]
    fn builder_rejects_bad_halves() {
        let err = InstaMeasureConfig::builder().vector_bits(1).build().unwrap_err();
        assert!(matches!(err, InstaMeasureConfigError::Sketch(_)), "{err}");
        let err = InstaMeasureConfig::builder().wsaf_entries_log2(31).build().unwrap_err();
        assert!(matches!(err, InstaMeasureConfigError::Wsaf(_)), "{err}");
        assert!(err.to_string().contains("wsaf"));
    }

    #[test]
    fn builder_decorrelates_seeds() {
        let cfg = InstaMeasureConfig::builder().seed(7).build().unwrap();
        assert_eq!(cfg.sketch.seed(), 7);
        assert_ne!(cfg.wsaf.seed(), 7);
    }
}
