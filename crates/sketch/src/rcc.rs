//! The Recyclable Counter with Confinement (RCC) layer.

use instameasure_packet::hash::mix64;
use instameasure_packet::{prefetch, FlowDigest, FlowKey};

use crate::config::{SketchConfig, WORD_BITS};
use crate::decode;
use crate::simd::{self, PlacementScratch};

/// Emitted when a flow's virtual vector saturates: the online decode of the
/// cycle that just ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaturationEvent {
    /// Zero bits remaining in the vector at saturation (the raw noise
    /// level; can be 0 under heavy cross-flow noise).
    pub zeros: u32,
    /// Noise class in `1..=noise_max`, i.e. `zeros` clamped into the valid
    /// class range. Selects the L2 counter in a [`crate::FlowRegulator`].
    pub noise_class: u32,
    /// Decoded estimate of the flow's own packets in the finished cycle.
    pub estimate: f64,
}

/// One RCC layer: an arena of confinement words, each holding many
/// overlapping virtual vectors.
///
/// Every flow is hashed to one word and to `b` distinct bit positions
/// inside it. Encoding a packet is a single word access: set one randomly
/// chosen position, then check the zero count. When the zero count drops
/// to `noise_max` or below the vector *saturates* — the finished cycle is
/// decoded from its zero count and the vector's bits are cleared so the
/// memory is recycled. The *residual* decode of a still-running cycle is
/// additionally noise-corrected using the occupancy of the word bits
/// outside the vector (the confinement trick: those bits are a local,
/// same-exposure noise sample).
///
/// # Example
///
/// ```
/// use instameasure_packet::{FlowKey, Protocol};
/// use instameasure_sketch::{Rcc, SketchConfig};
///
/// let mut rcc = Rcc::new(SketchConfig::default());
/// let key = FlowKey::new([1, 1, 1, 1], [2, 2, 2, 2], 5, 5, Protocol::Udp);
/// let mut decoded = 0.0;
/// for _ in 0..1000 {
///     if let Some(sat) = rcc.encode(&key) {
///         decoded += sat.estimate;
///     }
/// }
/// decoded += rcc.residual(&key);
/// assert!((decoded - 1000.0).abs() / 1000.0 < 0.25, "{decoded}");
/// ```
#[derive(Debug, Clone)]
pub struct Rcc {
    cfg: SketchConfig,
    words: Vec<u64>,
    draw_counter: u64,
    encodes: u64,
    saturations: u64,
    /// `decode::estimate_own_packets(b, z, 0.0)` for every saturating
    /// zero count `z` in `0..=noise_max`, evaluated once at construction:
    /// a saturation indexes this instead of recomputing the decode.
    saturation_estimates: Vec<f64>,
    /// Per-batch placement scratch (word index / mask / position SoA),
    /// recycled across [`Rcc::prepare_batch`] calls.
    scratch: PlacementScratch,
}

/// A flow's location inside the arena: word index and vector bit mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    word_idx: usize,
    vector_mask: u64,
}

impl Rcc {
    /// Creates an empty RCC layer with the given geometry.
    #[must_use]
    pub fn new(cfg: SketchConfig) -> Self {
        let b = cfg.vector_bits();
        Rcc {
            cfg,
            words: vec![0; cfg.num_words().max(1)],
            draw_counter: 0,
            encodes: 0,
            saturations: 0,
            saturation_estimates: (0..=cfg.noise_max())
                .map(|z| decode::estimate_own_packets(b, z, 0.0))
                .collect(),
            scratch: PlacementScratch::default(),
        }
    }

    /// The layer's configuration.
    #[must_use]
    pub fn config(&self) -> &SketchConfig {
        &self.cfg
    }

    /// Hashes a flow key for this layer: one [`FlowDigest`] of the key
    /// bytes, then this layer's seed-derived lane. A
    /// [`crate::FlowRegulator`] computes the digest once per packet and
    /// shares it across layers (the paper's "hash function reuse").
    #[inline]
    #[must_use]
    pub fn hash_key(&self, key: &FlowKey) -> u64 {
        self.hash_digest(FlowDigest::of(key))
    }

    /// Derives this layer's hash lane from a precomputed digest — the
    /// hash-once hot path (no key bytes touched).
    #[inline]
    #[must_use]
    pub fn hash_digest(&self, digest: FlowDigest) -> u64 {
        digest.lane(self.cfg.seed())
    }

    /// Locates the flow's word and virtual-vector mask from its hash.
    #[inline]
    pub(crate) fn slot(&self, h: u64) -> Slot {
        let word_idx = simd::word_index(h, self.words.len() as u64);
        let vector_mask = simd::mask_for_hash(h, self.cfg.vector_bits());
        Slot { word_idx, vector_mask }
    }

    /// Encodes one packet of the flow identified by hash `h` (single word
    /// access). Returns a [`SaturationEvent`] if this packet saturated the
    /// vector.
    #[inline]
    pub fn encode_hashed(&mut self, h: u64) -> Option<SaturationEvent> {
        self.encode_in_slot(h, self.slot(h))
    }

    /// [`Rcc::encode_hashed`] with the placement already derived:
    /// `slot` must be `self.slot(h)`, or the slot of `h` in a layer of the
    /// same geometry and seed (a [`crate::FlowRegulator`]'s L2 under hash
    /// reuse takes L1's).
    #[inline]
    pub(crate) fn encode_in_slot(&mut self, h: u64, slot: Slot) -> Option<SaturationEvent> {
        self.encodes += 1;
        self.draw_counter = self.draw_counter.wrapping_add(1);
        let b = self.cfg.vector_bits();

        // Choose one of the b vector positions uniformly.
        let draw = mix64(h ^ self.draw_counter.wrapping_mul(simd::DRAW_SALT));
        let nth = ((u128::from(draw) * u128::from(b)) >> 64) as u32;
        let pos = simd::nth_set_bit(slot.vector_mask, nth);
        self.set_and_check(slot.word_idx, slot.vector_mask, pos as u8)
    }

    /// The memory-touching half of an encode: set the drawn position,
    /// check for saturation, decode and recycle if so. Shared by the
    /// scalar path ([`Rcc::encode_hashed`]) and the prepared batch path
    /// ([`Rcc::encode_prepared`]), which is what keeps them bit-identical
    /// once their `(word_idx, mask, pos)` triples agree.
    #[inline]
    fn set_and_check(&mut self, word_idx: usize, mask: u64, pos: u8) -> Option<SaturationEvent> {
        let b = self.cfg.vector_bits();
        let word = &mut self.words[word_idx];
        *word |= 1u64 << pos;

        let set_in_vector = (*word & mask).count_ones();
        let zeros = b - set_in_vector;
        if zeros > self.cfg.noise_max() {
            return None;
        }

        // Saturated: decode and recycle. No noise correction here: a
        // saturation cycle is short (one coupon epoch of *own* packets),
        // so the noise that matters is only what landed on the vector
        // during the cycle — and that is already visible as the depressed
        // zero count `zeros` (the noise class). The cumulative occupancy
        // of the never-recycled outside bits would grossly overstate
        // per-cycle noise and bias elephants low (it is the right sample
        // for the long-exposure residual decode below, not for this one).
        let estimate = self.saturation_estimates[zeros as usize];
        *word &= !mask;
        self.saturations += 1;
        Some(SaturationEvent { zeros, noise_class: zeros.clamp(1, self.cfg.noise_max()), estimate })
    }

    /// Derives the placement (word index, vector mask, drawn position) of
    /// every hash in the batch into the internal SoA scratch — the
    /// vectorizable, memory-free half of [`Rcc::encode_hashed`]. Each
    /// prepared packet must then be consumed exactly once, in order, by
    /// [`Rcc::encode_prepared`]; preparing again invalidates the scratch.
    pub(crate) fn prepare_batch(&mut self, hashes: &[u64]) {
        simd::derive_placements(
            hashes,
            self.words.len() as u64,
            self.cfg.vector_bits(),
            self.draw_counter,
            &mut self.scratch,
        );
    }

    /// Encodes prepared packet `i` (see [`Rcc::prepare_batch`]).
    ///
    /// Bit-identical to [`Rcc::encode_hashed`] on the same hash at the
    /// same draw-counter value: the placement was precomputed from
    /// exactly the counter value this call advances to.
    #[inline]
    pub(crate) fn encode_prepared(&mut self, i: usize) -> Option<SaturationEvent> {
        self.encodes += 1;
        self.draw_counter = self.draw_counter.wrapping_add(1);
        let word_idx = self.scratch.word_idx[i];
        let mask = self.scratch.mask[i];
        let pos = self.scratch.pos[i];
        self.set_and_check(word_idx, mask, pos)
    }

    /// The placement of prepared packet `i` (see [`Rcc::prepare_batch`]).
    #[inline]
    pub(crate) fn prepared_slot(&self, i: usize) -> Slot {
        Slot { word_idx: self.scratch.word_idx[i], vector_mask: self.scratch.mask[i] }
    }

    /// The decode of a saturation that left `zeros` of the vector's bits
    /// clear (`zeros <= noise_max`), from the table built at construction.
    #[inline]
    pub(crate) fn saturation_estimate(&self, zeros: u32) -> f64 {
        self.saturation_estimates[zeros as usize]
    }

    /// Prefetches the counter word of prepared packet `i` (purely
    /// advisory, no state change); out-of-range indices are ignored
    /// (ragged batch tails need no guard).
    #[inline]
    pub(crate) fn prefetch_prepared(&self, i: usize) {
        if let Some(&word_idx) = self.scratch.word_idx.get(i) {
            prefetch::prefetch_read_index(&self.words, word_idx);
        }
    }

    /// Encodes one packet of `key`. See [`Rcc::encode_hashed`].
    pub fn encode(&mut self, key: &FlowKey) -> Option<SaturationEvent> {
        self.encode_hashed(self.hash_key(key))
    }

    /// Decodes, without modifying state, the packets currently retained in
    /// the flow's vector (the *residual* of the running cycle). This is the
    /// "packet-arrival-based decoding" primitive of §II.
    #[inline]
    #[must_use]
    pub fn residual_hashed(&self, h: u64) -> f64 {
        let slot = self.slot(h);
        let word = self.words[slot.word_idx];
        let b = self.cfg.vector_bits();
        let zeros = b - (word & slot.vector_mask).count_ones();
        if zeros == b {
            return 0.0;
        }
        let f = outside_occupancy(word, slot.vector_mask);
        decode::estimate_own_packets(b, zeros, f)
    }

    /// Residual of `key`'s running cycle. See [`Rcc::residual_hashed`].
    #[must_use]
    pub fn residual(&self, key: &FlowKey) -> f64 {
        self.residual_hashed(self.hash_key(key))
    }

    /// Total packets encoded so far.
    #[must_use]
    pub fn encodes(&self) -> u64 {
        self.encodes
    }

    /// Total saturation events so far.
    #[must_use]
    pub fn saturations(&self) -> u64 {
        self.saturations
    }

    /// Fraction of all arena bits currently set — a load indicator.
    #[must_use]
    pub fn fill_ratio(&self) -> f64 {
        let set: u64 = self.words.iter().map(|w| u64::from(w.count_ones())).sum();
        set as f64 / (self.words.len() as u64 * u64::from(WORD_BITS)) as f64
    }

    /// Clears all counter memory and statistics.
    pub fn reset(&mut self) {
        self.words.fill(0);
        self.draw_counter = 0;
        self.encodes = 0;
        self.saturations = 0;
    }
}

/// Occupancy of the word bits outside the vector — the local noise sample.
/// Returns 0 when the vector covers the whole word (no sample available).
#[inline]
fn outside_occupancy(word: u64, vector_mask: u64) -> f64 {
    let outside = !vector_mask;
    let total = outside.count_ones();
    if total == 0 {
        return 0.0;
    }
    f64::from((word & outside).count_ones()) / f64::from(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use instameasure_packet::Protocol;

    fn key(i: u32) -> FlowKey {
        FlowKey::new(i.to_be_bytes(), (!i).to_be_bytes(), 100, 200, Protocol::Tcp)
    }

    fn small_cfg() -> SketchConfig {
        SketchConfig::builder().memory_bytes(1024).vector_bits(8).seed(7).build().unwrap()
    }

    #[test]
    fn slot_is_deterministic_and_has_b_bits() {
        let rcc = Rcc::new(small_cfg());
        for i in 0..100 {
            let h = rcc.hash_key(&key(i));
            let s1 = rcc.slot(h);
            let s2 = rcc.slot(h);
            assert_eq!(s1, s2);
            assert_eq!(s1.vector_mask.count_ones(), 8);
            assert!(s1.word_idx < rcc.words.len());
        }
    }

    #[test]
    fn decode_table_is_bit_identical_to_the_decode_for_every_width() {
        // The config accepts exactly the widths 2..=WORD_BITS.
        for bad in [0, 1, WORD_BITS + 1] {
            assert!(SketchConfig::builder().vector_bits(bad).build().is_err(), "b={bad}");
        }
        for b in 2..=WORD_BITS {
            let cfg = SketchConfig::builder().memory_bytes(1024).vector_bits(b).build().unwrap();
            let rcc = Rcc::new(cfg);
            assert_eq!(rcc.saturation_estimates.len() as u32, cfg.noise_max() + 1, "b={b}");
            for z in 0..=cfg.noise_max() {
                assert_eq!(
                    rcc.saturation_estimate(z).to_bits(),
                    decode::estimate_own_packets(b, z, 0.0).to_bits(),
                    "b={b} z={z}"
                );
            }
        }
    }

    #[test]
    fn full_word_vector_uses_whole_word() {
        let cfg = SketchConfig::builder().memory_bytes(1024).vector_bits(64).build().unwrap();
        let rcc = Rcc::new(cfg);
        let s = rcc.slot(rcc.hash_key(&key(1)));
        assert_eq!(s.vector_mask, u64::MAX);
    }

    #[test]
    fn saturation_cycle_for_isolated_flow() {
        // One flow alone: zero noise, so it must saturate exactly when
        // zeros hit noise_max, and the decode must be near the coupon
        // value.
        let mut rcc = Rcc::new(small_cfg());
        let k = key(42);
        let mut first_sat = None;
        for n in 1..=100u32 {
            if let Some(sat) = rcc.encode(&k) {
                first_sat = Some((n, sat));
                break;
            }
        }
        let (n, sat) = first_sat.expect("flow must saturate within 100 packets");
        assert_eq!(sat.zeros, 3, "isolated flow saturates exactly at noise_max");
        assert_eq!(sat.noise_class, 3);
        assert!((4..=25).contains(&n), "saturation after {n} packets");
        assert!((3.0..=14.0).contains(&sat.estimate), "decode {}", sat.estimate);
    }

    #[test]
    fn vector_recycles_after_saturation() {
        let mut rcc = Rcc::new(small_cfg());
        let k = key(9);
        let mut sats = 0;
        for _ in 0..10_000 {
            if rcc.encode(&k).is_some() {
                sats += 1;
            }
        }
        assert!(sats > 10_000 / 20, "must keep saturating after recycling: {sats}");
        assert_eq!(rcc.saturations(), sats);
        assert_eq!(rcc.encodes(), 10_000);
    }

    #[test]
    fn isolated_flow_count_estimate_is_accurate() {
        let mut rcc = Rcc::new(small_cfg());
        let k = key(3);
        let true_count = 50_000u64;
        let mut est = 0.0;
        for _ in 0..true_count {
            if let Some(s) = rcc.encode(&k) {
                est += s.estimate;
            }
        }
        est += rcc.residual(&k);
        let rel = (est - true_count as f64).abs() / true_count as f64;
        assert!(rel < 0.10, "estimate {est} vs {true_count} (rel {rel})");
    }

    #[test]
    fn residual_is_nondestructive_and_bounded() {
        let mut rcc = Rcc::new(small_cfg());
        let k = key(5);
        for _ in 0..3 {
            assert!(rcc.encode(&k).is_none(), "3 packets cannot saturate an 8-bit vector");
        }
        let r1 = rcc.residual(&k);
        let r2 = rcc.residual(&k);
        assert_eq!(r1, r2);
        assert!(r1 > 0.0 && r1 < 10.0, "residual {r1}");
    }

    #[test]
    fn residual_of_unseen_flow_is_zero() {
        let rcc = Rcc::new(small_cfg());
        assert_eq!(rcc.residual(&key(777)), 0.0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut rcc = Rcc::new(small_cfg());
        for i in 0..100 {
            rcc.encode(&key(i));
        }
        assert!(rcc.fill_ratio() > 0.0);
        rcc.reset();
        assert_eq!(rcc.fill_ratio(), 0.0);
        assert_eq!(rcc.encodes(), 0);
        assert_eq!(rcc.saturations(), 0);
    }

    #[test]
    fn noise_classes_appear_under_contention() {
        // Many flows share words in a tiny arena; cross-flow noise makes
        // saturations land on classes below noise_max too.
        let cfg = SketchConfig::builder().memory_bytes(64).vector_bits(8).build().unwrap();
        let mut rcc = Rcc::new(cfg);
        let mut classes_seen = std::collections::HashSet::new();
        for round in 0..2000u32 {
            for i in 0..50 {
                if let Some(s) = rcc.encode(&key(i)) {
                    classes_seen.insert(s.noise_class);
                }
            }
            if classes_seen.len() >= 3 {
                let _ = round;
                break;
            }
        }
        assert!(
            classes_seen.len() >= 2,
            "contention should produce multiple noise classes: {classes_seen:?}"
        );
        assert!(classes_seen.iter().all(|&c| (1..=3).contains(&c)));
    }

    #[test]
    fn hash_digest_matches_hash_key() {
        let rcc = Rcc::new(small_cfg());
        for i in 0..100 {
            let k = key(i);
            assert_eq!(rcc.hash_key(&k), rcc.hash_digest(FlowDigest::of(&k)));
        }
    }

    #[test]
    fn saturation_frequency_matches_coupon_model() {
        // Single flow: average packets per saturation ≈ coupon_expected.
        let mut rcc = Rcc::new(small_cfg());
        let k = key(11);
        let n = 200_000u64;
        for _ in 0..n {
            rcc.encode(&k);
        }
        let period = n as f64 / rcc.saturations() as f64;
        let model = crate::decode::saturation_period(8, 3);
        let rel = (period - model).abs() / model;
        assert!(rel < 0.05, "period {period} vs model {model}");
    }
}
