//! Runtime-dispatched AVX2 kernels for the batched hot path.
//!
//! The batched pipeline spends its per-packet arithmetic in exactly two
//! places this module vectorizes: mixing the 13-byte flow key into a
//! [`FlowDigest`] and deriving per-structure lanes from that digest
//! ([`crate::hash::lane_hash`]). Both are chains of the splitmix64
//! finalizer, which AVX2 computes four packets at a time — 64-bit lane
//! xors/shifts map directly onto `__m256i` operations and the wrapping
//! 64-bit multiply is emulated exactly with three 32x32→64 partial
//! products (see [`x4::mullo64`]).
//!
//! # Dispatch rules
//!
//! [`dispatch_tier`] picks the widest kernel the machine and the operator
//! allow, once, and caches the answer:
//!
//! * [`DispatchTier::Avx2`] — x86_64 with AVX2 detected via
//!   `is_x86_feature_detected!` and not disabled.
//! * [`DispatchTier::Scalar`] — everything else, or when the
//!   `INSTAMEASURE_NO_SIMD` environment variable is set (any value), or
//!   after [`set_simd_disabled`]`(true)` (the `--no-simd` CLI switch).
//!
//! The scalar path is not a degraded approximation: it is the oracle. The
//! vector kernels are bit-identical to it for every input (differential
//! tests and fuzz bodies in this crate and `instameasure-sketch` prove
//! this), so flipping the kill switch changes throughput and nothing else.

use crate::digest::FlowDigest;
use crate::hash::lane_hash;
use crate::key::PacketRecord;
use std::sync::atomic::{AtomicU8, Ordering};

/// How many 64-bit lanes one AVX2 kernel step processes.
pub const LANE_WIDTH: usize = 4;

/// The kernel family the hot path dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchTier {
    /// Portable scalar path — the bit-identity oracle.
    Scalar,
    /// 4-wide AVX2 kernels with scalar tails for ragged batches.
    Avx2,
}

impl DispatchTier {
    /// Human-readable tier name, as printed by `serve` and the benches.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            DispatchTier::Scalar => "scalar",
            DispatchTier::Avx2 => "avx2",
        }
    }
}

// 0 = undecided, 1 = simd allowed (env consulted), 2 = forced scalar.
const MODE_UNSET: u8 = 0;
const MODE_AUTO: u8 = 1;
const MODE_FORCED_SCALAR: u8 = 2;
static SIMD_MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

fn simd_mode() -> u8 {
    match SIMD_MODE.load(Ordering::Relaxed) {
        MODE_UNSET => {
            let mode = if std::env::var_os("INSTAMEASURE_NO_SIMD").is_some() {
                MODE_FORCED_SCALAR
            } else {
                MODE_AUTO
            };
            SIMD_MODE.store(mode, Ordering::Relaxed);
            mode
        }
        m => m,
    }
}

/// Forces (or un-forces) the scalar fallback at runtime.
///
/// This is the programmatic form of the `--no-simd` CLI switch and of the
/// `INSTAMEASURE_NO_SIMD` environment variable; the bench matrix uses it
/// to time both dispatch tiers in one process. Takes effect on the next
/// batch — kernels are chosen per batch, not per process.
pub fn set_simd_disabled(disabled: bool) {
    SIMD_MODE.store(if disabled { MODE_FORCED_SCALAR } else { MODE_AUTO }, Ordering::Relaxed);
}

/// Whether the vector kernels are compiled in and the CPU supports them
/// (ignoring the kill switch).
#[must_use]
pub fn simd_supported() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        false
    }
}

/// The kernel family batched calls will dispatch to right now.
#[must_use]
pub fn dispatch_tier() -> DispatchTier {
    if simd_mode() == MODE_FORCED_SCALAR || !simd_supported() {
        DispatchTier::Scalar
    } else {
        DispatchTier::Avx2
    }
}

/// Whether the vector tier is active (surfaced as the
/// `hotpath.simd_enabled` telemetry gauge).
#[must_use]
pub fn simd_enabled() -> bool {
    dispatch_tier() == DispatchTier::Avx2
}

/// Hot-path-relevant CPU features detected at runtime, for telemetry.
///
/// Each name is surfaced as a `hotpath.cpu.<name>` gauge and joined into
/// the serve startup log; the list is intentionally short — only features
/// a dispatch decision could key on.
#[must_use]
pub fn cpu_features() -> Vec<&'static str> {
    let mut features = Vec::new();
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        if std::arch::is_x86_feature_detected!("sse4.2") {
            features.push("sse4.2");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            features.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("bmi2") {
            features.push("bmi2");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            features.push("avx512f");
        }
    }
    features
}

/// `cpu_features()` joined for log lines, `"none"` when empty.
#[must_use]
pub fn cpu_features_label() -> String {
    let features = cpu_features();
    if features.is_empty() {
        "none".to_owned()
    } else {
        features.join("+")
    }
}

/// Digests a batch of packet records, four keys per AVX2 step.
///
/// `out` is cleared and refilled with `FlowDigest::of(&records[i].key)`
/// for every `i` — bit-identical to the scalar loop on every tier, with a
/// scalar tail for `records.len() % LANE_WIDTH != 0`.
pub fn digest_records_into(records: &[PacketRecord], out: &mut Vec<FlowDigest>) {
    out.clear();
    out.reserve(records.len());
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if dispatch_tier() == DispatchTier::Avx2 {
        // SAFETY: dispatch_tier() == Avx2 implies AVX2 was detected.
        unsafe { x4::digest_records_avx2(records, out) };
        return;
    }
    for r in records {
        out.push(FlowDigest::of(&r.key));
    }
}

/// Derives one lane per digest under `seed`, four digests per AVX2 step.
///
/// `out` is cleared and refilled with `digests[i].lane(seed)`; ragged
/// tails fall back to the scalar oracle.
pub fn lane_hashes_into(digests: &[FlowDigest], seed: u64, out: &mut Vec<u64>) {
    out.clear();
    out.reserve(digests.len());
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if dispatch_tier() == DispatchTier::Avx2 {
        // SAFETY: dispatch_tier() == Avx2 implies AVX2 was detected.
        unsafe { x4::lane_hashes_avx2(digests, seed, out) };
        return;
    }
    for d in digests {
        out.push(lane_hash(d.raw(), seed));
    }
}

/// Digests a batch and derives one lane per packet in a single pass.
///
/// Equivalent to [`digest_records_into`] followed by [`lane_hashes_into`]
/// but keeps each digest in registers for its lane mix. This is the
/// front-end kernel of the batched filters: `digests[i]` feeds the WSAF /
/// L2 derivations and `lanes[i]` is the structure's own probe hash.
pub fn digest_lanes_into(
    records: &[PacketRecord],
    seed: u64,
    digests: &mut Vec<FlowDigest>,
    lanes: &mut Vec<u64>,
) {
    digests.clear();
    digests.reserve(records.len());
    lanes.clear();
    lanes.reserve(records.len());
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if dispatch_tier() == DispatchTier::Avx2 {
        // SAFETY: dispatch_tier() == Avx2 implies AVX2 was detected.
        unsafe { x4::digest_lanes_avx2(records, seed, digests, lanes) };
        return;
    }
    for r in records {
        let d = FlowDigest::of(&r.key);
        digests.push(d);
        lanes.push(d.lane(seed));
    }
}

/// The 4-wide AVX2 kernel primitives.
///
/// Exposed (x86_64, non-Miri builds only) so `instameasure-sketch` can
/// build its placement-derivation kernel from the same mixing steps.
/// Everything here is `unsafe` only because of the `target_feature`
/// contract; no pointers are involved beyond slice iteration.
#[cfg(all(target_arch = "x86_64", not(miri)))]
pub mod x4 {
    use super::{FlowDigest, PacketRecord, LANE_WIDTH};
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_mul_epu32, _mm256_or_si256, _mm256_set1_epi64x,
        _mm256_setr_epi64x, _mm256_slli_epi64, _mm256_srli_epi64, _mm256_storeu_si256,
        _mm256_xor_si256,
    };

    // Same constants as crate::hash; duplicated here because the scalar
    // module keeps them private and the kernels must match them bit for
    // bit (the golden-value tests below pin both sides).
    const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
    const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
    const MIX_M1: u64 = 0xBF58_476D_1CE4_E5B9;
    const MIX_M2: u64 = 0x94D0_49BB_1331_11EB;

    #[inline]
    fn splat(x: u64) -> __m256i {
        // SAFETY: set1 is available under AVX (implied by the avx2 callers).
        unsafe { _mm256_set1_epi64x(x as i64) }
    }

    /// Reads four u64 lanes out of a vector register.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn to_array(v: __m256i) -> [u64; LANE_WIDTH] {
        let mut out = [0u64; LANE_WIDTH];
        _mm256_storeu_si256(out.as_mut_ptr().cast(), v);
        out
    }

    /// Packs four u64 values into a vector register.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn from_array(v: [u64; LANE_WIDTH]) -> __m256i {
        _mm256_setr_epi64x(v[0] as i64, v[1] as i64, v[2] as i64, v[3] as i64)
    }

    /// Lane-wise wrapping 64-bit multiply (low half), exactly
    /// `a[i].wrapping_mul(b[i])`.
    ///
    /// AVX2 has no 64x64→64 multiply, so compose it from 32x32→64 partial
    /// products: `lo32(a)*lo32(b) + ((lo32(a)*hi32(b) + hi32(a)*lo32(b)) << 32)`.
    /// The `hi*hi` term only affects bits ≥ 64 and is dropped, which is
    /// precisely what wrapping semantics discard too.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn mullo64(a: __m256i, b: __m256i) -> __m256i {
        let lo = _mm256_mul_epu32(a, b);
        let a_hi = _mm256_srli_epi64::<32>(a);
        let b_hi = _mm256_srli_epi64::<32>(b);
        let cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b), _mm256_mul_epu32(a, b_hi));
        _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(cross))
    }

    /// Lane-wise splitmix64 finalizer, exactly [`crate::hash::mix64`].
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn mix64(mut x: __m256i) -> __m256i {
        x = _mm256_xor_si256(x, _mm256_srli_epi64::<30>(x));
        x = mullo64(x, splat(MIX_M1));
        x = _mm256_xor_si256(x, _mm256_srli_epi64::<27>(x));
        x = mullo64(x, splat(MIX_M2));
        _mm256_xor_si256(x, _mm256_srli_epi64::<31>(x))
    }

    /// Lane-wise `rotate_left(31)`.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn rotl31(x: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi64::<31>(x), _mm256_srli_epi64::<33>(x))
    }

    /// Four flow hashes at once from pre-gathered key lanes, exactly
    /// [`crate::hash::flow_hash64`] per lane.
    ///
    /// `lo`/`hi` carry the two overlapping little-endian 8-byte windows of
    /// each 13-byte key (bytes 0..8 and 5..13).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn flow_hash4(lo: __m256i, hi: __m256i, seed: u64) -> __m256i {
        let mut acc = splat(seed.wrapping_mul(PRIME_1) ^ PRIME_3);
        acc = mix64(_mm256_xor_si256(acc, mullo64(lo, splat(PRIME_2))));
        acc = mix64(_mm256_xor_si256(rotl31(acc), mullo64(hi, splat(PRIME_1))));
        mix64(_mm256_xor_si256(acc, splat(13u64.wrapping_mul(PRIME_3))))
    }

    /// Four lane hashes at once, exactly [`crate::hash::lane_hash`] per
    /// lane.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn lane_hash4(digests: __m256i, seed: u64) -> __m256i {
        mix64(_mm256_xor_si256(digests, splat(seed.wrapping_mul(PRIME_2) ^ PRIME_1)))
    }

    /// Gathers the two overlapping key lanes ([`crate::FlowKey::hash_windows`])
    /// of four consecutive records, computed in registers. Always inlined,
    /// so the kernels build their vectors from those registers.
    #[inline(always)]
    fn gather_key_lanes(chunk: &[PacketRecord]) -> ([u64; LANE_WIDTH], [u64; LANE_WIDTH]) {
        let [r0, r1, r2, r3]: &[PacketRecord; LANE_WIDTH] =
            chunk.try_into().expect("LANE_WIDTH records");
        let (w0, w1, w2, w3) = (
            r0.key.hash_windows(),
            r1.key.hash_windows(),
            r2.key.hash_windows(),
            r3.key.hash_windows(),
        );
        ([w0.0, w1.0, w2.0, w3.0], [w0.1, w1.1, w2.1, w3.1])
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn digest_records_avx2(records: &[PacketRecord], out: &mut Vec<FlowDigest>) {
        let mut chunks = records.chunks_exact(LANE_WIDTH);
        for chunk in &mut chunks {
            let (lo, hi) = gather_key_lanes(chunk);
            let d = flow_hash4(from_array(lo), from_array(hi), crate::digest::DIGEST_SEED);
            out.extend(to_array(d).into_iter().map(FlowDigest::from_raw));
        }
        for r in chunks.remainder() {
            out.push(FlowDigest::of(&r.key));
        }
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lane_hashes_avx2(digests: &[FlowDigest], seed: u64, out: &mut Vec<u64>) {
        let mut chunks = digests.chunks_exact(LANE_WIDTH);
        for chunk in &mut chunks {
            let mut raw = [0u64; LANE_WIDTH];
            for (i, d) in chunk.iter().enumerate() {
                raw[i] = d.raw();
            }
            out.extend_from_slice(&to_array(lane_hash4(from_array(raw), seed)));
        }
        for d in chunks.remainder() {
            out.push(super::lane_hash(d.raw(), seed));
        }
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn digest_lanes_avx2(
        records: &[PacketRecord],
        seed: u64,
        digests: &mut Vec<FlowDigest>,
        lanes: &mut Vec<u64>,
    ) {
        let mut chunks = records.chunks_exact(LANE_WIDTH);
        for chunk in &mut chunks {
            let (lo, hi) = gather_key_lanes(chunk);
            let d = flow_hash4(from_array(lo), from_array(hi), crate::digest::DIGEST_SEED);
            digests.extend(to_array(d).into_iter().map(FlowDigest::from_raw));
            lanes.extend_from_slice(&to_array(lane_hash4(d, seed)));
        }
        for r in chunks.remainder() {
            let d = FlowDigest::of(&r.key);
            digests.push(d);
            lanes.push(d.lane(seed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::mix64 as scalar_mix64;
    use crate::{FlowKey, Protocol};

    fn record(i: u64) -> PacketRecord {
        let key = FlowKey::new(
            (i as u32).to_be_bytes(),
            ((i as u32).wrapping_mul(2_654_435_761)).to_be_bytes(),
            (i % 60000) as u16,
            443,
            if i.is_multiple_of(3) { Protocol::Udp } else { Protocol::Tcp },
        );
        PacketRecord::new(key, 64, i)
    }

    #[test]
    fn tier_label_is_stable() {
        assert_eq!(DispatchTier::Scalar.label(), "scalar");
        assert_eq!(DispatchTier::Avx2.label(), "avx2");
    }

    #[test]
    fn kill_switch_forces_scalar_and_back() {
        let before = dispatch_tier();
        set_simd_disabled(true);
        assert_eq!(dispatch_tier(), DispatchTier::Scalar);
        assert!(!simd_enabled());
        set_simd_disabled(false);
        assert_eq!(
            dispatch_tier(),
            if simd_supported() { DispatchTier::Avx2 } else { DispatchTier::Scalar }
        );
        // Leave the process-global switch the way the process started.
        set_simd_disabled(before == DispatchTier::Scalar && simd_supported());
    }

    #[test]
    fn features_label_joins_or_none() {
        let label = cpu_features_label();
        if cpu_features().is_empty() {
            assert_eq!(label, "none");
        } else {
            assert!(label.split('+').count() == cpu_features().len());
        }
    }

    #[test]
    fn batch_entry_points_match_scalar_oracle_on_every_length() {
        // Covers all tail residues 0..LANE_WIDTH plus longer ragged runs.
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 13, 64, 100] {
            let records: Vec<PacketRecord> = (0..len as u64).map(record).collect();
            let mut digests = Vec::new();
            digest_records_into(&records, &mut digests);
            let expected: Vec<FlowDigest> =
                records.iter().map(|r| FlowDigest::of(&r.key)).collect();
            assert_eq!(digests, expected, "digest mismatch at len {len}");

            let seed = 0x5EED_0000_0000_0001 ^ len as u64;
            let mut lanes = Vec::new();
            lane_hashes_into(&digests, seed, &mut lanes);
            let expected_lanes: Vec<u64> = digests.iter().map(|d| d.lane(seed)).collect();
            assert_eq!(lanes, expected_lanes, "lane mismatch at len {len}");

            let (mut d2, mut l2) = (Vec::new(), Vec::new());
            digest_lanes_into(&records, seed, &mut d2, &mut l2);
            assert_eq!(d2, expected, "fused digest mismatch at len {len}");
            assert_eq!(l2, expected_lanes, "fused lane mismatch at len {len}");
        }
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn avx2_kernels_match_scalar_bit_for_bit() {
        if !simd_supported() {
            return;
        }
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut next = move || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            state
        };
        for _ in 0..256 {
            let vals = [next(), next(), next(), next()];
            let muls = [next(), next(), next(), next()];
            let seed = next();
            // SAFETY: simd_supported() checked AVX2 above.
            unsafe {
                let v = x4::from_array(vals);
                assert_eq!(x4::to_array(v), vals);
                let m = x4::to_array(x4::mullo64(v, x4::from_array(muls)));
                let x = x4::to_array(x4::mix64(v));
                let r = x4::to_array(x4::rotl31(v));
                let l = x4::to_array(x4::lane_hash4(v, seed));
                for i in 0..LANE_WIDTH {
                    assert_eq!(m[i], vals[i].wrapping_mul(muls[i]));
                    assert_eq!(x[i], scalar_mix64(vals[i]));
                    assert_eq!(r[i], vals[i].rotate_left(31));
                    assert_eq!(l[i], crate::hash::lane_hash(vals[i], seed));
                }
            }
        }
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn avx2_mix64_golden_value() {
        if !simd_supported() {
            return;
        }
        // mix64(1) is pinned in hash.rs; the vector kernel must agree.
        // SAFETY: simd_supported() checked AVX2 above.
        unsafe {
            let out = x4::to_array(x4::mix64(x4::from_array([1, 1, 1, 1])));
            assert_eq!(out, [0x5692_161D_100B_05E5u64; 4]);
        }
    }
}
