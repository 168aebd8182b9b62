//! Vectorized placement derivation for the batched RCC encode.
//!
//! Encoding a packet needs three values derived from its hash lane `h`:
//! the confinement word index ([`word_index`]), the flow's `b`-bit
//! vector mask (a rejection-sampled subset of the word's 64 bit
//! positions) and the position draw for this packet (the `nth` set bit of
//! the mask under a counter-keyed mix). All three are pure functions of
//! `(h, draw_counter)` — no sketch memory is read — so a batch's worth
//! can be derived up front into a structure-of-arrays scratch
//! ([`PlacementScratch`]) and the memory-touching encode loop then runs
//! with every address already known, feeding the software-prefetch
//! pipeline without recomputing a word index per hint.
//!
//! The AVX2 kernel derives eight placements per round, as two
//! independent four-lane chains: each chain's rejection loop for the mask
//! keeps four `SplitMix64` states in one register and gates per-lane
//! acceptance with compare masks (a finished lane's extra draws are
//! discarded, exactly like the scalar loop simply not drawing). One chain
//! is a serial run of `mix64` multiplies; stepping two at once lets the
//! second fill the first's multiply latency. The position draw is the
//! same counter mix with the batch's counter values laid out linearly.
//! The `nth`-set-bit selection uses BMI2
//! `pdep`, which is definitionally the same bit the scalar scan picks.
//! Dispatch requires AVX2 + BMI2 (they co-ship on every AVX2 CPU since
//! Haswell/Zen) and honours the `INSTAMEASURE_NO_SIMD` kill switch via
//! [`instameasure_packet::simd::simd_enabled`]; everything else — and
//! the fewer than eight packets of a ragged tail — funnels to the scalar
//! oracle
//! [`derive_placements_scalar`], which differential tests hold
//! bit-identical to the kernel.

use instameasure_packet::hash::{mix64, SplitMix64};

use crate::config::WORD_BITS;

/// Salt folded into the hash before seeding the mask-position stream.
pub(crate) const MASK_SALT: u64 = 0xD6E8_FEB8_6659_FD93;

/// Salt multiplying the draw counter for the per-packet position draw.
pub(crate) const DRAW_SALT: u64 = 0xA24B_AED4_963E_E407;

/// Per-batch placement scratch, structure-of-arrays so each derived
/// stream is written (and later read) sequentially.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlacementScratch {
    /// Confinement word index per packet ([`word_index`]).
    pub word_idx: Vec<usize>,
    /// Virtual-vector bit mask per packet.
    pub mask: Vec<u64>,
    /// Bit position (0..64) this packet's encode sets.
    pub pos: Vec<u8>,
}

impl PlacementScratch {
    /// Number of prepared placements.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.word_idx.len()
    }

    fn clear_and_reserve(&mut self, n: usize) {
        self.word_idx.clear();
        self.word_idx.reserve(n);
        self.mask.clear();
        self.mask.reserve(n);
        self.pos.clear();
        self.pos.reserve(n);
    }
}

/// The confinement word of hash lane `h` in an arena of `num_words`
/// words: `h % num_words`. A power-of-two count (the paper's and `serve`'s
/// 4096-word L1) takes the low bits with a mask instead of paying a 64-bit
/// division per packet; other counts keep the modulus.
#[inline]
pub(crate) fn word_index(h: u64, num_words: u64) -> usize {
    if num_words.is_power_of_two() {
        (h & (num_words - 1)) as usize
    } else {
        (h % num_words) as usize
    }
}

/// Derives the flow's `b`-bit vector mask from its hash lane.
#[inline]
pub(crate) fn mask_for_hash(h: u64, vector_bits: u32) -> u64 {
    if vector_bits >= WORD_BITS {
        return u64::MAX;
    }
    // Derive b distinct positions deterministically from the hash.
    let mut rng = SplitMix64::new(mix64(h ^ MASK_SALT));
    let mut mask = 0u64;
    let mut picked = 0;
    while picked < vector_bits {
        let pos = rng.next_below(u64::from(WORD_BITS));
        let bit = 1u64 << pos;
        if mask & bit == 0 {
            mask |= bit;
            picked += 1;
        }
    }
    mask
}

/// Index of the `n`-th set bit of `mask` (0-based).
///
/// `n` must be less than `mask.count_ones()`.
#[inline]
pub(crate) fn nth_set_bit(mask: u64, n: u32) -> u32 {
    debug_assert!(n < mask.count_ones());
    let mut remaining = n;
    let mut m = mask;
    loop {
        let pos = m.trailing_zeros();
        if remaining == 0 {
            return pos;
        }
        remaining -= 1;
        m &= m - 1;
    }
}

/// Derives word index, mask and set-position for every hash in the batch.
///
/// `draw_counter` is the encoder's counter value *before* the batch:
/// packet `i` is derived for counter value `draw_counter + i + 1`, the
/// sequence a scalar encode loop would consume. Dispatches to the AVX2
/// kernel when available and allowed, with the scalar oracle as tail and
/// fallback; the outputs are bit-identical either way.
pub(crate) fn derive_placements(
    hashes: &[u64],
    num_words: u64,
    vector_bits: u32,
    draw_counter: u64,
    scratch: &mut PlacementScratch,
) {
    scratch.clear_and_reserve(hashes.len());
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if vector_bits < WORD_BITS && placements_kernel_available() {
        // SAFETY: placements_kernel_available() checked AVX2 + BMI2.
        unsafe {
            x4::derive_placements_avx2(hashes, num_words, vector_bits, draw_counter, scratch)
        };
        return;
    }
    fill_placements_scalar(hashes, num_words, vector_bits, draw_counter, scratch);
}

/// The scalar oracle for [`derive_placements`] (always clears `scratch`).
#[cfg(test)]
pub(crate) fn derive_placements_scalar(
    hashes: &[u64],
    num_words: u64,
    vector_bits: u32,
    draw_counter: u64,
    scratch: &mut PlacementScratch,
) {
    scratch.clear_and_reserve(hashes.len());
    fill_placements_scalar(hashes, num_words, vector_bits, draw_counter, scratch);
}

fn fill_placements_scalar(
    hashes: &[u64],
    num_words: u64,
    vector_bits: u32,
    draw_counter: u64,
    scratch: &mut PlacementScratch,
) {
    for (i, &h) in hashes.iter().enumerate() {
        let dc = draw_counter.wrapping_add(i as u64).wrapping_add(1);
        let mask = mask_for_hash(h, vector_bits);
        let draw = mix64(h ^ dc.wrapping_mul(DRAW_SALT));
        let nth = ((u128::from(draw) * u128::from(vector_bits)) >> 64) as u32;
        scratch.word_idx.push(word_index(h, num_words));
        scratch.mask.push(mask);
        scratch.pos.push(nth_set_bit(mask, nth) as u8);
    }
}

/// Whether the AVX2+BMI2 placement kernel is compiled in, supported by
/// the CPU and not disabled by the kill switch.
#[cfg(all(target_arch = "x86_64", not(miri)))]
fn placements_kernel_available() -> bool {
    instameasure_packet::simd::simd_enabled() && std::arch::is_x86_feature_detected!("bmi2")
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod x4 {
    use super::{word_index, PlacementScratch, DRAW_SALT, MASK_SALT};
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_and_si256, _mm256_cmpeq_epi64, _mm256_cmpgt_epi64,
        _mm256_movemask_epi8, _mm256_mul_epu32, _mm256_or_si256, _mm256_set1_epi64x,
        _mm256_setr_epi64x, _mm256_setzero_si256, _mm256_sllv_epi64, _mm256_srli_epi64,
        _mm256_sub_epi64, _mm256_xor_si256, _pdep_u64,
    };
    use instameasure_packet::simd::{x4 as pkt, LANE_WIDTH};

    // SplitMix64's additive constant (see instameasure_packet::hash).
    const SM64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Packets per round: two independent four-lane chains.
    const ROUND: usize = 2 * LANE_WIDTH;

    /// `nth_set_bit` via BMI2: deposit bit `n` into the mask's set
    /// positions and read off where it landed. Bit-identical to the
    /// scalar scan for every `n < mask.count_ones()`.
    ///
    /// # Safety
    ///
    /// Caller must ensure BMI2 is available.
    #[inline]
    #[target_feature(enable = "bmi2")]
    unsafe fn nth_set_bit_pdep(mask: u64, n: u32) -> u32 {
        _pdep_u64(1u64 << n, mask).trailing_zeros()
    }

    /// One four-lane chain of the mask kernel: four SplitMix64 rejection
    /// streams in lockstep, and the `b`-bit masks they have picked so far.
    struct MaskChain {
        state: __m256i,
        mask: __m256i,
        picked: __m256i,
    }

    impl MaskChain {
        /// Seeds the four streams from the hash lanes `h`.
        ///
        /// # Safety
        ///
        /// Caller must ensure AVX2 is available.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn new(h: __m256i) -> Self {
            let state = pkt::mix64(_mm256_xor_si256(h, _mm256_set1_epi64x(MASK_SALT as i64)));
            MaskChain { state, mask: _mm256_setzero_si256(), picked: _mm256_setzero_si256() }
        }

        /// Draws one position per lane. `unfinished` marks the lanes that
        /// have not picked their `b` positions yet; a finished lane keeps
        /// drawing with the others but `unfinished` gates every update
        /// off, so its mask is exactly what the scalar loop (which stops
        /// drawing) produces.
        ///
        /// # Safety
        ///
        /// Caller must ensure AVX2 is available.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn step(&mut self, unfinished: __m256i) {
            let zero = _mm256_setzero_si256();
            self.state = _mm256_add_epi64(self.state, _mm256_set1_epi64x(SM64_GAMMA as i64));
            let x = pkt::mix64(self.state);
            // next_below(64) is a multiply-shift by 64: the top 6 bits.
            let bit = _mm256_sllv_epi64(_mm256_set1_epi64x(1), _mm256_srli_epi64::<58>(x));
            let is_new = _mm256_cmpeq_epi64(_mm256_and_si256(self.mask, bit), zero);
            let take = _mm256_and_si256(unfinished, is_new);
            self.mask = _mm256_or_si256(self.mask, _mm256_and_si256(bit, take));
            // Compare results are all-ones (-1): subtracting adds 1.
            self.picked = _mm256_sub_epi64(self.picked, take);
        }
    }

    /// The position draw of four packets whose counter values are
    /// `first_dc .. first_dc + 4`: `nth = (u128(draw) * b) >> 64`, the
    /// index among the mask's set bits.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn draw_nth(h: __m256i, first_dc: u64, b_vec: __m256i) -> [u64; LANE_WIDTH] {
        let dc =
            _mm256_add_epi64(_mm256_set1_epi64x(first_dc as i64), _mm256_setr_epi64x(0, 1, 2, 3));
        let draw_salt = _mm256_set1_epi64x(DRAW_SALT as i64);
        let draw = pkt::mix64(_mm256_xor_si256(h, pkt::mullo64(dc, draw_salt)));
        // The 128-bit product decomposed into 32-bit products:
        // hi32(draw)*b + (lo32(draw)*b >> 32), all shifted down 32.
        let lo_prod = _mm256_mul_epu32(draw, b_vec);
        let hi_prod = _mm256_mul_epu32(_mm256_srli_epi64::<32>(draw), b_vec);
        pkt::to_array(_mm256_srli_epi64::<32>(_mm256_add_epi64(
            hi_prod,
            _mm256_srli_epi64::<32>(lo_prod),
        )))
    }

    /// Eight placements per round; see the module docs for the lane layout.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and BMI2 are available, and
    /// `vector_bits < 64` (the full-word case has no mask stream).
    #[target_feature(enable = "avx2", enable = "bmi2")]
    pub(super) unsafe fn derive_placements_avx2(
        hashes: &[u64],
        num_words: u64,
        vector_bits: u32,
        draw_counter: u64,
        scratch: &mut PlacementScratch,
    ) {
        debug_assert!(vector_bits < 64);
        let b_vec = _mm256_set1_epi64x(i64::from(vector_bits));

        let mut rounds = hashes.chunks_exact(ROUND);
        let mut base = 0u64;
        for round in &mut rounds {
            let (lanes_a, lanes_b) = round.split_at(LANE_WIDTH);
            let h_a = pkt::from_array(lanes_a.try_into().expect("LANE_WIDTH hashes"));
            let h_b = pkt::from_array(lanes_b.try_into().expect("LANE_WIDTH hashes"));

            let (mut a, mut b) = (MaskChain::new(h_a), MaskChain::new(h_b));
            loop {
                let todo_a = _mm256_cmpgt_epi64(b_vec, a.picked);
                let todo_b = _mm256_cmpgt_epi64(b_vec, b.picked);
                if _mm256_movemask_epi8(_mm256_or_si256(todo_a, todo_b)) == 0 {
                    break;
                }
                a.step(todo_a);
                b.step(todo_b);
            }

            // Packet i of the batch draws with counter value
            // draw_counter + i + 1.
            let first_dc = draw_counter.wrapping_add(base).wrapping_add(1);
            let masks = [pkt::to_array(a.mask), pkt::to_array(b.mask)];
            let nths = [
                draw_nth(h_a, first_dc, b_vec),
                draw_nth(h_b, first_dc.wrapping_add(LANE_WIDTH as u64), b_vec),
            ];
            let lanes = round.iter().zip(masks.as_flattened()).zip(nths.as_flattened());
            for ((&h, &mask), &nth) in lanes {
                scratch.word_idx.push(word_index(h, num_words));
                scratch.mask.push(mask);
                scratch.pos.push(nth_set_bit_pdep(mask, nth as u32) as u8);
            }
            base += ROUND as u64;
        }

        super::fill_placements_scalar(
            rounds.remainder(),
            num_words,
            vector_bits,
            draw_counter.wrapping_add(base),
            scratch,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hashes(n: usize) -> Vec<u64> {
        let mut rng = SplitMix64::new(0xC0FF_EE00_1234_5678);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn mask_has_exactly_b_bits() {
        for &b in &[2u32, 3, 8, 16, 63] {
            for &h in hashes(50).iter() {
                assert_eq!(mask_for_hash(h, b).count_ones(), b);
            }
        }
        assert_eq!(mask_for_hash(42, 64), u64::MAX);
    }

    #[test]
    fn nth_set_bit_selects_correctly() {
        let mask = 0b1011_0100u64;
        assert_eq!(nth_set_bit(mask, 0), 2);
        assert_eq!(nth_set_bit(mask, 1), 4);
        assert_eq!(nth_set_bit(mask, 2), 5);
        assert_eq!(nth_set_bit(mask, 3), 7);
        assert_eq!(nth_set_bit(u64::MAX, 63), 63);
    }

    #[test]
    fn dispatch_matches_scalar_oracle_on_every_length_and_geometry() {
        // Several vector widths; an odd word count (num_words is
        // memory/8, never forced to a power of two) and serve's 4096-word
        // L1, which takes the masked word index; a nonzero starting draw
        // counter; and lengths that cover whole eight-packet rounds and
        // every tail residue after them.
        let lens = [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 13, 15, 16, 17, 23, 100, 256];
        for num_words in [12_289u64, 4096] {
            for &b in &[2u32, 3, 8, 16, 63, 64] {
                for len in lens {
                    let hs = hashes(len);
                    let ctx = format!("num_words={num_words} b={b} len={len}");
                    let dc = 0xFFFF_FFFF_FFFF_FFF0;
                    let mut via_dispatch = PlacementScratch::default();
                    let mut via_scalar = PlacementScratch::default();
                    derive_placements(&hs, num_words, b, dc, &mut via_dispatch);
                    derive_placements_scalar(&hs, num_words, b, dc, &mut via_scalar);
                    assert_eq!(via_dispatch.word_idx, via_scalar.word_idx, "{ctx}");
                    assert_eq!(via_dispatch.mask, via_scalar.mask, "{ctx}");
                    assert_eq!(via_dispatch.pos, via_scalar.pos, "{ctx}");
                    assert_eq!(via_dispatch.len(), len, "{ctx}");
                    for (i, &h) in hs.iter().enumerate() {
                        assert_eq!(via_dispatch.word_idx[i] as u64, h % num_words, "{ctx} i={i}");
                    }
                }
            }
        }
    }

    #[test]
    fn scalar_placements_match_single_packet_derivation() {
        // The batched oracle must consume counter values exactly like a
        // per-packet encode loop: dc+1, dc+2, ...
        let hs = hashes(9);
        let dc0 = 41u64;
        let mut scratch = PlacementScratch::default();
        derive_placements_scalar(&hs, 997, 8, dc0, &mut scratch);
        for (i, &h) in hs.iter().enumerate() {
            let dc = dc0 + i as u64 + 1;
            let mask = mask_for_hash(h, 8);
            let draw = mix64(h ^ dc.wrapping_mul(DRAW_SALT));
            let nth = ((u128::from(draw) * 8u128) >> 64) as u32;
            assert_eq!(scratch.word_idx[i], (h % 997) as usize);
            assert_eq!(scratch.mask[i], mask);
            assert_eq!(u32::from(scratch.pos[i]), nth_set_bit(mask, nth));
        }
    }
}
