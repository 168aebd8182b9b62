//! Seedable 64-bit flow hashing.
//!
//! The sketches need a hash with good avalanche behaviour (every output bit
//! flips with probability ~1/2 on any input bit flip) because a single
//! 64-bit digest is split into a word index, virtual-vector bit positions
//! and a per-packet position draw. We implement a compact xxh3-style mixer
//! over the 13-byte flow key — no external dependencies, deterministic
//! across platforms, seedable so every structure (L1, WSAF, dispatcher) can
//! use an independent hash function.

use crate::FlowKey;

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;

/// Finalizing mixer with full avalanche (splitmix64 finalizer).
#[inline]
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Hashes a flow key into 64 bits under the given seed.
///
/// Different seeds yield (for practical purposes) independent hash
/// functions; the measurement structures each derive their own seed.
///
/// # Example
///
/// ```
/// use instameasure_packet::{hash, FlowKey, Protocol};
/// let k = FlowKey::new([1, 2, 3, 4], [5, 6, 7, 8], 80, 443, Protocol::Tcp);
/// let a = hash::flow_hash64(&k, 7);
/// let b = hash::flow_hash64(&k, 7);
/// let c = hash::flow_hash64(&k, 8);
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
#[inline]
#[must_use]
pub fn flow_hash64(key: &FlowKey, seed: u64) -> u64 {
    // The 13 key bytes as two overlapping 64-bit lanes (bytes 0..8 and
    // 5..13) so every byte influences at least one lane.
    let (lo, hi) = key.hash_windows();
    let mut acc = seed.wrapping_mul(PRIME_1) ^ PRIME_3;
    acc = mix64(acc ^ lo.wrapping_mul(PRIME_2));
    acc = mix64(acc.rotate_left(31) ^ hi.wrapping_mul(PRIME_1));
    mix64(acc ^ (13u64).wrapping_mul(PRIME_3))
}

/// Derives a per-structure hash lane from a precomputed 64-bit digest.
///
/// The hot path hashes each packet's key bytes exactly once (see
/// [`crate::FlowDigest`]); every measurement structure then derives its own
/// hash from that digest with a single finalizing mix instead of rehashing
/// the 13 key bytes. The seed is spread by an odd-constant multiply (a
/// bijection over `u64`), so distinct structure seeds select distinct,
/// avalanche-independent lanes.
#[inline]
#[must_use]
pub fn lane_hash(digest: u64, seed: u64) -> u64 {
    mix64(digest ^ seed.wrapping_mul(PRIME_2) ^ PRIME_1)
}

/// Hashes an arbitrary byte slice under the given seed (used for pcap
/// self-tests and auxiliary structures).
#[must_use]
pub fn bytes_hash64(data: &[u8], seed: u64) -> u64 {
    let mut acc = seed.wrapping_mul(PRIME_1) ^ PRIME_3 ^ (data.len() as u64);
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lane = u64::from_le_bytes(ch.try_into().expect("chunk is 8 bytes"));
        acc = mix64(acc.rotate_left(31) ^ lane.wrapping_mul(PRIME_2));
    }
    let mut tail = [0u8; 8];
    let rem = chunks.remainder();
    tail[..rem.len()].copy_from_slice(rem);
    let lane = u64::from_le_bytes(tail);
    mix64(acc ^ lane.wrapping_mul(PRIME_1))
}

/// A cheap deterministic counter-mode pseudo-random stream derived from
/// `mix64`, used where the sketches need reproducible per-packet draws.
///
/// Not cryptographic; statistically strong enough for position selection.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a stream seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit value in the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// Returns a value uniform in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift bounded draw (Lemire); bias < 2^-64 * bound.
        let x = self.next_u64();
        ((u128::from(x) * u128::from(bound)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Protocol;

    fn key(i: u32) -> FlowKey {
        FlowKey::new(
            i.to_be_bytes(),
            (i.wrapping_mul(2654435761)).to_be_bytes(),
            (i % 65536) as u16,
            443,
            Protocol::Tcp,
        )
    }

    #[test]
    fn deterministic() {
        let k = key(42);
        assert_eq!(flow_hash64(&k, 1), flow_hash64(&k, 1));
    }

    #[test]
    fn seed_independence() {
        let k = key(42);
        assert_ne!(flow_hash64(&k, 1), flow_hash64(&k, 2));
    }

    #[test]
    fn no_collisions_on_small_universe() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..100_000u32 {
            seen.insert(flow_hash64(&key(i), 0));
        }
        // 100k keys into 64 bits: expected collisions ~ 2.7e-10.
        assert_eq!(seen.len(), 100_000);
    }

    #[test]
    fn avalanche_quality() {
        // Flipping one input bit should flip roughly half the output bits.
        let base = key(12345);
        let h0 = flow_hash64(&base, 9);
        let mut total_bits = 0u32;
        let mut samples = 0u32;
        for byte in 0..13 {
            for bit in 0..8 {
                let mut b = base.to_bytes();
                b[byte] ^= 1 << bit;
                let flipped = FlowKey::from_bytes(b);
                total_bits += (h0 ^ flow_hash64(&flipped, 9)).count_ones();
                samples += 1;
            }
        }
        let avg = f64::from(total_bits) / f64::from(samples);
        assert!((24.0..40.0).contains(&avg), "avalanche average {avg} out of range");
    }

    #[test]
    fn low_bits_uniform() {
        // The sketches use the low bits for word indexing; check rough
        // uniformity over 256 buckets.
        let mut counts = [0u32; 256];
        for i in 0..256_000u32 {
            counts[(flow_hash64(&key(i), 3) & 0xFF) as usize] += 1;
        }
        let (min, max) = counts.iter().fold((u32::MAX, 0), |(lo, hi), &c| (lo.min(c), hi.max(c)));
        assert!(min > 800 && max < 1200, "bucket spread {min}..{max}");
    }

    #[test]
    fn bytes_hash_distinguishes_lengths() {
        assert_ne!(bytes_hash64(b"", 0), bytes_hash64(b"\0", 0));
        assert_ne!(bytes_hash64(b"abc", 0), bytes_hash64(b"abd", 0));
        assert_eq!(bytes_hash64(b"abcdefgh12345", 7), bytes_hash64(b"abcdefgh12345", 7));
    }

    #[test]
    fn splitmix_bounded_draws() {
        let mut rng = SplitMix64::new(99);
        let mut histogram = [0u32; 8];
        for _ in 0..80_000 {
            histogram[rng.next_below(8) as usize] += 1;
        }
        for &c in &histogram {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn splitmix_zero_bound_panics() {
        SplitMix64::new(1).next_below(0);
    }
}

#[cfg(test)]
mod golden_tests {
    use super::*;
    use crate::{FlowKey, Protocol};

    /// Golden values pin the hash across refactors: flow records exported
    /// by one build must stay readable (and sketch placements comparable)
    /// by the next. If this test fails, the change broke on-disk/between-
    /// version compatibility — bump the export format version.
    #[test]
    fn flow_hash_golden_values() {
        let k = FlowKey::new([192, 168, 1, 1], [10, 0, 0, 1], 443, 51234, Protocol::Tcp);
        assert_eq!(flow_hash64(&k, 0), 0xCFFC_3D41_2781_0851);
        assert_eq!(flow_hash64(&k, 1), 0x3702_FE54_4A89_D99C);
        assert_eq!(flow_hash64(&k, 0x57AF), 0x09B8_771F_4975_3155);
        assert_eq!(bytes_hash64(b"instameasure", 7), 0x1A9F_6E47_5E80_B7D4);
    }

    #[test]
    fn mixer_golden_values() {
        assert_eq!(mix64(0), 0);
        assert_eq!(mix64(1), 0x5692_161D_100B_05E5);
        assert_eq!(mix64(0x9E37_79B9_7F4A_7C15), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn splitmix_stream_golden_values() {
        let mut s = SplitMix64::new(42);
        assert_eq!(s.next_u64(), 0xBDD7_3226_2FEB_6E95);
        assert_eq!(s.next_u64(), 0x28EF_E333_B266_F103);
        assert_eq!(s.next_u64(), 0x4752_6757_130F_9F52);
    }
}
