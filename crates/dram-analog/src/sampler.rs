//! Bit-sliced sampling of QUAC outcomes.
//!
//! The steady-state TRNG loop samples every sense amplifier of the chosen
//! segment once per QUAC operation. Doing that with one `f64` RNG draw and a
//! `Vec<bool>` round-trip per bitline (the obvious implementation) costs far
//! more than the modelled hardware does, so this module precomputes a
//! *quantised threshold* per bitline:
//!
//! * each probability `p` is quantised to `t = round(p · 2⁶⁴)`, and a bit
//!   resolves to 1 with probability exactly `t / 2⁶⁴`;
//! * bitlines whose probability quantises to exactly 0 or 1 are
//!   *deterministic* — they draw no noise at all and are prefilled into
//!   packed base words;
//! * only the remaining *metastable* bitlines cost anything per iteration.
//!
//! [`BitSlicedSampler`] is the one row sampler, shared by the QUAC pipeline
//! and the D-RaNGe and retention baselines. Metastable bitlines become
//! *lanes* of 64-wide comparison blocks, and each block consumes just eight
//! noise words (one per bit-plane of the threshold's top byte) for all 64
//! lanes. A lane whose noise byte *equals* its threshold byte (probability
//! 2⁻⁸) escalates to one full-resolution draw, so the resolve-to-1
//! probability stays exactly `t / 2⁶⁴` at about an eighth of a noise word
//! per bitline and with word-parallel comparisons. Its scalar twin,
//! [`sample_bitsliced_reference`], is the readable specification and the
//! property-test oracle it is pinned bit-identical to.

use qt_dram_core::BitVec;
use rand::RngCore;

/// Mask selecting the low 56 bits of a threshold (the part compared only
/// when the top-byte comparison ties).
const LO56_MASK: u64 = (1u64 << 56) - 1;

/// The quantised resolve-to-1 behaviour of one sense amplifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitThreshold {
    /// The bitline always resolves to 0 (probability quantised to 0).
    AlwaysZero,
    /// The bitline always resolves to 1 (probability quantised to 1).
    AlwaysOne,
    /// The bitline resolves to 1 iff a fresh uniform `u64` noise word is
    /// strictly below the threshold.
    Metastable(u64),
}

impl BitThreshold {
    /// Quantises a probability to a 64-bit threshold. Probabilities below
    /// 2⁻⁶⁴ (including NaN and negatives) become [`BitThreshold::AlwaysZero`];
    /// probabilities that round to 1 become [`BitThreshold::AlwaysOne`].
    pub fn quantize(p: f64) -> Self {
        if p.is_nan() || p <= 0.0 {
            return BitThreshold::AlwaysZero;
        }
        if p >= 1.0 {
            return BitThreshold::AlwaysOne;
        }
        // 2^64 as f64 is exact; the product is in [0, 2^64] and the cast to
        // u128 is therefore lossless in range.
        let t = (p * 18_446_744_073_709_551_616.0) as u128;
        if t == 0 {
            BitThreshold::AlwaysZero
        } else if t >= 1u128 << 64 {
            BitThreshold::AlwaysOne
        } else {
            BitThreshold::Metastable(t as u64)
        }
    }

    /// Samples one outcome, drawing one RNG word iff the bit is metastable.
    pub fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> bool {
        match self {
            BitThreshold::AlwaysZero => false,
            BitThreshold::AlwaysOne => true,
            BitThreshold::Metastable(t) => rng.next_u64() < t,
        }
    }

    /// `true` if the bit never draws noise.
    pub fn is_deterministic(self) -> bool {
        !matches!(self, BitThreshold::Metastable(_))
    }
}

/// Bulk-drawn bit-sliced sampler: the steady-state hot path.
///
/// Metastable bitlines are compacted into *lanes*, 64 per comparison block.
/// Per iteration each block draws eight noise words — noise word `j` holds
/// bit `7−j` of every lane's fresh 8-bit noise byte — and resolves all 64
/// lanes with ~4 word ops per plane:
///
/// * a lane whose noise byte differs from the top byte of its threshold is
///   decided at the first differing bit (MSB-first comparison);
/// * a lane whose noise byte *equals* its threshold byte (probability 2⁻⁸)
///   escalates: one full noise word `v` is drawn and the lane resolves to
///   `v >> 8 < t & LO56`, restoring full 64-bit threshold resolution.
///
/// The resolve-to-1 probability is exactly `t / 2⁶⁴`: the top byte decides
/// with probability `1 − 2⁻⁸` and the escalation path supplies the remaining
/// 56 bits of resolution. Expected noise cost is one word per eight
/// metastable bitlines plus one word per ~256 lanes for escalations.
///
/// Noise-word consumption order (the stream contract shared with
/// [`sample_bitsliced_reference`]): blocks in ascending lane order; per
/// block, the eight plane words MSB-first, then one escalation word per
/// tied lane in ascending lane order.
#[derive(Debug, Clone)]
pub struct BitSlicedSampler {
    len: usize,
    /// Prefilled row storage holding every deterministic logic-1 bitline.
    base: Vec<u64>,
    /// Number of metastable lanes.
    lanes: usize,
    /// Per block: bit-planes of the thresholds' top bytes, MSB first
    /// (`planes[b][j]` bit `l` = bit `7−j` of lane `b·64+l`'s top byte).
    planes: Vec<[u64; 8]>,
    /// Per block: mask of populated lanes (all-ones except the last block).
    active: Vec<u64>,
    /// Per lane: low 56 bits of the threshold (escalation comparand).
    lo56: Vec<u64>,
    /// Per lane: the bitline (row bit position) it samples, ascending.
    positions: Vec<u32>,
}

impl BitSlicedSampler {
    /// Builds a sampler from per-bitline one-probabilities.
    pub fn new(probs: &[f64]) -> Self {
        let len = probs.len();
        let mut base = vec![0u64; len.div_ceil(64)];
        let mut lo56 = Vec::new();
        let mut positions = Vec::new();
        let mut planes: Vec<[u64; 8]> = Vec::new();
        let mut active = Vec::new();
        for (i, &p) in probs.iter().enumerate() {
            match BitThreshold::quantize(p) {
                BitThreshold::AlwaysZero => {}
                BitThreshold::AlwaysOne => base[i / 64] |= 1u64 << (i % 64),
                BitThreshold::Metastable(t) => {
                    let lane = positions.len();
                    let (block, slot) = (lane / 64, lane % 64);
                    if block == planes.len() {
                        planes.push([0u64; 8]);
                        active.push(0u64);
                    }
                    active[block] |= 1u64 << slot;
                    let hi = (t >> 56) as u8;
                    for (j, plane) in planes[block].iter_mut().enumerate() {
                        *plane |= u64::from((hi >> (7 - j)) & 1) << slot;
                    }
                    lo56.push(t & LO56_MASK);
                    positions.push(i as u32);
                }
            }
        }
        let lanes = positions.len();
        BitSlicedSampler { len, base, lanes, planes, active, lo56, positions }
    }

    /// Number of bitlines.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the sampler covers zero bitlines.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of metastable bitlines (= compact lanes).
    pub fn metastable_bits(&self) -> usize {
        self.lanes
    }

    /// The row bit positions of the metastable lanes, ascending.
    pub fn lane_positions(&self) -> &[u32] {
        &self.positions
    }

    /// The half-open lane interval whose bitlines fall inside the row bit
    /// range `[start_bit, end_bit)`.
    pub fn lane_range(&self, start_bit: usize, end_bit: usize) -> (usize, usize) {
        let lo = self.positions.partition_point(|&p| (p as usize) < start_bit);
        let hi = self.positions.partition_point(|&p| (p as usize) < end_bit);
        (lo, hi)
    }

    /// Samples the metastable lanes only, into a compact bit vector of
    /// [`BitSlicedSampler::metastable_bits`] bits (lane `l` = outcome of the
    /// `l`-th metastable bitline). This is the hot-path entry: deterministic
    /// bitlines cost nothing and the output feeds the conditioner directly.
    pub fn sample_compact_into<R: RngCore + ?Sized>(&self, out: &mut BitVec, rng: &mut R) {
        if out.len() != self.lanes {
            *out = BitVec::zeros(self.lanes);
        }
        let words = out.words_mut();
        for (block, (planes, &active)) in self.planes.iter().zip(&self.active).enumerate() {
            // MSB-first bit-serial comparison of all 64 lanes' noise bytes
            // against their threshold top bytes.
            let mut undecided = active;
            let mut result = 0u64;
            for plane in planes {
                let noise = rng.next_u64();
                let diff = (noise ^ plane) & undecided;
                result |= diff & plane;
                undecided &= !diff;
            }
            // Tied lanes escalate to one full-resolution draw each.
            let mut ties = undecided;
            while ties != 0 {
                let slot = ties.trailing_zeros() as usize;
                ties &= ties - 1;
                let v = rng.next_u64() >> 8;
                result |= u64::from(v < self.lo56[block * 64 + slot]) << slot;
            }
            words[block] = result;
        }
    }

    /// Expands a compact lane sample into the full row: deterministic
    /// bitlines from the prefilled base words, metastable bitlines scattered
    /// from `compact`. Draws no noise.
    pub fn expand_compact_into(&self, compact: &BitVec, out: &mut BitVec) {
        assert_eq!(compact.len(), self.lanes, "compact sample has wrong lane count");
        if out.len() != self.len {
            *out = BitVec::zeros(self.len);
        }
        let words = out.words_mut();
        words.copy_from_slice(&self.base);
        for (block, &w) in compact.words().iter().enumerate() {
            let mut ones = w;
            while ones != 0 {
                let slot = ones.trailing_zeros() as usize;
                ones &= ones - 1;
                let pos = self.positions[block * 64 + slot] as usize;
                words[pos / 64] |= 1u64 << (pos % 64);
            }
        }
    }
}

/// Scalar reference for the bit-sliced scheme: one bitline at a time, with
/// the *same* quantisation, the same plane-wise noise consumption order, and
/// the same escalation rule as [`BitSlicedSampler`]. Bit-identical to it for
/// any noise stream (property-tested below); kept as the readable
/// specification of the bulk-drawn stream contract.
pub fn sample_bitsliced_reference<R: RngCore + ?Sized>(probs: &[f64], rng: &mut R) -> BitVec {
    let mut out = BitVec::zeros(probs.len());
    // Deterministic bitlines resolve without noise; metastable ones queue up.
    let mut metastable: Vec<(usize, u64)> = Vec::new();
    for (i, &p) in probs.iter().enumerate() {
        match BitThreshold::quantize(p) {
            BitThreshold::AlwaysZero => {}
            BitThreshold::AlwaysOne => out.set(i, true),
            BitThreshold::Metastable(t) => metastable.push((i, t)),
        }
    }
    for block in metastable.chunks(64) {
        // Eight plane words, MSB first; lane `l` of the block reads bit `l`
        // of each plane as bit `7−j` of its fresh noise byte.
        let planes: [u64; 8] = std::array::from_fn(|_| rng.next_u64());
        let mut tied = Vec::new();
        for (slot, &(pos, t)) in block.iter().enumerate() {
            let mut noise_byte = 0u8;
            for (j, plane) in planes.iter().enumerate() {
                noise_byte |= (((plane >> slot) & 1) as u8) << (7 - j);
            }
            let hi = (t >> 56) as u8;
            match noise_byte.cmp(&hi) {
                std::cmp::Ordering::Less => out.set(pos, true),
                std::cmp::Ordering::Greater => {}
                std::cmp::Ordering::Equal => tied.push((pos, t)),
            }
        }
        // Escalations, ascending lane order within the block.
        for (pos, t) in tied {
            let v = rng.next_u64() >> 8;
            if v < (t & LO56_MASK) {
                out.set(pos, true);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn quantize_endpoints_and_midpoint() {
        assert_eq!(BitThreshold::quantize(0.0), BitThreshold::AlwaysZero);
        assert_eq!(BitThreshold::quantize(-1.0), BitThreshold::AlwaysZero);
        assert_eq!(BitThreshold::quantize(f64::NAN), BitThreshold::AlwaysZero);
        assert_eq!(BitThreshold::quantize(1.0), BitThreshold::AlwaysOne);
        assert_eq!(BitThreshold::quantize(2.0), BitThreshold::AlwaysOne);
        assert_eq!(BitThreshold::quantize(0.5), BitThreshold::Metastable(1u64 << 63));
        // Probabilities below the 64-bit resolution are deterministic zeros.
        assert_eq!(BitThreshold::quantize(1e-30), BitThreshold::AlwaysZero);
        assert!(!BitThreshold::quantize(1e-9).is_deterministic());
    }

    /// One full row outcome through the hot-path pair: compact lanes, then
    /// the noise-free expansion over the deterministic base.
    fn sample_row<R: RngCore + ?Sized>(sampler: &BitSlicedSampler, rng: &mut R) -> BitVec {
        let (mut compact, mut row) = (BitVec::zeros(0), BitVec::zeros(0));
        sampler.sample_compact_into(&mut compact, rng);
        sampler.expand_compact_into(&compact, &mut row);
        row
    }

    #[test]
    fn compact_sample_and_expansion_reshape_reused_storage() {
        let probs: Vec<f64> = (0..200).map(|i| (i as f64) / 199.0).collect();
        let sampler = BitSlicedSampler::new(&probs);
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let fresh = sample_row(&sampler, &mut rng_a);
        // Wrong lengths: both buffers must be re-shaped.
        let (mut compact, mut reused) = (BitVec::zeros(3), BitVec::zeros(7));
        sampler.sample_compact_into(&mut compact, &mut rng_b);
        sampler.expand_compact_into(&compact, &mut reused);
        assert_eq!(compact.len(), sampler.metastable_bits());
        assert_eq!(fresh, reused);
        // Second use keeps the same shapes and stays consistent.
        sampler.sample_compact_into(&mut compact, &mut rng_b);
        sampler.expand_compact_into(&compact, &mut reused);
        assert_eq!(reused.len(), 200);
        assert_eq!(reused, sample_row(&sampler, &mut rng_a));
    }

    #[test]
    fn bitsliced_deterministic_bits_draw_no_noise() {
        let probs = [0.0, 1.0, 0.0, 1.0];
        let sampler = BitSlicedSampler::new(&probs);
        assert_eq!(sampler.metastable_bits(), 0);
        let mut rng = crate::NoiseRng::new(1);
        let s = sample_row(&sampler, &mut rng);
        assert!(!s.get(0) && s.get(1) && !s.get(2) && s.get(3));
        assert_eq!(rng.words_drawn(), 0, "deterministic rows must not draw noise");
    }

    #[test]
    fn bitsliced_frequencies_respect_probabilities() {
        let probs = [0.0, 1.0, 0.5, 0.1, 0.9];
        let sampler = BitSlicedSampler::new(&probs);
        let mut rng = crate::NoiseRng::new(4);
        let mut ones = [0u32; 5];
        for _ in 0..4000 {
            let s = sample_row(&sampler, &mut rng);
            for (i, one) in ones.iter_mut().enumerate() {
                *one += s.get(i) as u32;
            }
        }
        assert_eq!(ones[0], 0);
        assert_eq!(ones[1], 4000);
        for (i, expect) in [(2, 0.5), (3, 0.1), (4, 0.9)] {
            let frac = ones[i] as f64 / 4000.0;
            assert!((frac - expect).abs() < 0.03, "bit {i}: {frac} vs {expect}");
        }
    }

    #[test]
    fn bitsliced_lane_range_maps_bit_ranges_to_lane_intervals() {
        // Bitlines 0..10: even ones deterministic, odd ones metastable.
        let probs: Vec<f64> = (0..10).map(|i| if i % 2 == 0 { 1.0 } else { 0.4 }).collect();
        let sampler = BitSlicedSampler::new(&probs);
        assert_eq!(sampler.metastable_bits(), 5);
        assert_eq!(sampler.lane_positions(), &[1, 3, 5, 7, 9]);
        assert_eq!(sampler.lane_range(0, 10), (0, 5));
        assert_eq!(sampler.lane_range(2, 6), (1, 3));
        assert_eq!(sampler.lane_range(4, 4), (2, 2));
    }

    proptest! {
        #[test]
        fn prop_bitsliced_is_bit_identical_to_scalar_reference(
            probs in proptest::collection::vec(0.0f64..=1.0, 0..300),
            seed in any::<u64>(),
        ) {
            let sampler = BitSlicedSampler::new(&probs);
            let mut fast_rng = crate::NoiseRng::new(seed);
            let mut scalar_rng = crate::NoiseRng::new(seed);
            let fast = sample_row(&sampler, &mut fast_rng);
            let scalar = sample_bitsliced_reference(&probs, &mut scalar_rng);
            prop_assert_eq!(fast, scalar);
            // Both consumed the same number of noise words.
            prop_assert_eq!(fast_rng.next_u64(), scalar_rng.next_u64());
        }

        #[test]
        fn prop_bitsliced_scheme_is_noise_source_agnostic(
            probs in proptest::collection::vec(0.0f64..=1.0, 0..200),
            seed in any::<u64>(),
        ) {
            // The stream contract is defined over any word source, not just
            // the counter-mode noise generator.
            let sampler = BitSlicedSampler::new(&probs);
            let mut fast_rng = StdRng::seed_from_u64(seed);
            let mut scalar_rng = StdRng::seed_from_u64(seed);
            let fast = sample_row(&sampler, &mut fast_rng);
            let scalar = sample_bitsliced_reference(&probs, &mut scalar_rng);
            prop_assert_eq!(fast, scalar);
            prop_assert_eq!(fast_rng.next_u64(), scalar_rng.next_u64());
        }

        #[test]
        fn prop_compact_and_row_samples_agree(
            probs in proptest::collection::vec(0.0f64..=1.0, 0..300),
            seed in any::<u64>(),
        ) {
            let sampler = BitSlicedSampler::new(&probs);
            let mut compact_rng = crate::NoiseRng::new(seed);
            let mut row_rng = crate::NoiseRng::new(seed);
            let mut compact = BitVec::zeros(0);
            sampler.sample_compact_into(&mut compact, &mut compact_rng);
            let row = sample_row(&sampler, &mut row_rng);
            // Same noise consumption, and the expansion is exactly the
            // scatter of compact lanes over the deterministic base.
            prop_assert_eq!(compact_rng.words_drawn(), row_rng.words_drawn());
            let mut expanded = BitVec::zeros(0);
            sampler.expand_compact_into(&compact, &mut expanded);
            prop_assert_eq!(&expanded, &row);
            for (lane, &pos) in sampler.lane_positions().iter().enumerate() {
                prop_assert_eq!(compact.get(lane), row.get(pos as usize));
            }
        }

        #[test]
        fn prop_bitsliced_and_packed_share_deterministic_bits(
            bits in proptest::collection::vec(any::<bool>(), 1..200),
            seed in any::<u64>(),
        ) {
            // Deterministic rows come out as their base bits, from the
            // sampler and from the scalar reference alike, over any word
            // source.
            let probs: Vec<f64> = bits.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
            let sampler = BitSlicedSampler::new(&probs);
            prop_assert_eq!(sampler.metastable_bits(), 0);
            let mut rng = StdRng::seed_from_u64(seed);
            let out = sample_row(&sampler, &mut rng);
            let mut scalar_rng = StdRng::seed_from_u64(seed);
            prop_assert_eq!(&sample_bitsliced_reference(&probs, &mut scalar_rng), &out);
            prop_assert_eq!(out, BitVec::from_bits(bits));
        }

        #[test]
        fn prop_extreme_probabilities_are_deterministic(
            bits in proptest::collection::vec(any::<bool>(), 1..200),
            seed in any::<u64>(),
        ) {
            let probs: Vec<f64> = bits.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
            let sampler = BitSlicedSampler::new(&probs);
            prop_assert_eq!(sampler.metastable_bits(), 0);
            let mut rng = crate::NoiseRng::new(seed);
            let out = sample_row(&sampler, &mut rng);
            prop_assert_eq!(rng.words_drawn(), 0);
            prop_assert_eq!(out, BitVec::from_bits(bits));
        }
    }
}
