//! The runtime QUAC-TRNG pipeline (Section 5.2, Figure 6).
//!
//! After the one-time characterisation has picked a high-entropy segment and
//! its 256-bit-entropy cache-block ranges, the steady-state loop is:
//! initialise the segment from the reserved all-0/all-1 rows (in-DRAM copy),
//! QUAC it, read the high-entropy blocks from the sense amplifiers, and hash
//! each block with SHA-256 to emit 256 random bits. Conditioning, buffering
//! and delivery are the shared [`ConditionedStream`]'s; this module is the
//! QUAC source that feeds it.

use crate::characterize::{characterize_module, CharacterizationConfig, ModuleCharacterization};
use crate::stream::{ConditionedStream, RawMessages};
use qt_crypto::{Sha256, Sha256Digest, VonNeumannCorrector, DIGEST_BITS};
use qt_dram_analog::{
    BitSlicedSampler, BitThreshold, ModuleProfile, NoiseRng, OperatingConditions, QuacAnalogModel,
};
use qt_dram_core::{BitVec, DataPattern, CACHE_BLOCK_BITS};

/// Upper bound on QUAC iterations whose conditioning is batched through one
/// multi-lane SHA-256 pass in [`QuacTrng::fill_bytes`]. Sixteen iterations
/// of a single-range module fill every lane of
/// [`qt_crypto::BATCH_LANES`]-wide compression exactly once.
const MAX_BATCH_ITERATIONS: usize = qt_crypto::BATCH_LANES;

/// Projects full-row cache-block bit ranges onto the sampler's compact
/// metastable-lane indices. Deterministic bitlines inside a range contribute
/// a constant to every SHA input, so dropping them preserves the digest
/// stream's entropy while shrinking the hashed bytes by ~5× on typical
/// modules. A degenerate (low-entropy) module with no ranges hashes the
/// whole compact row.
fn lane_ranges(sampler: &BitSlicedSampler, block_ranges: &[(usize, usize)]) -> Vec<(usize, usize)> {
    if block_ranges.is_empty() {
        return vec![(0, sampler.metastable_bits())];
    }
    block_ranges
        .iter()
        .map(|&(start_block, end_block)| {
            sampler.lane_range(start_block * CACHE_BLOCK_BITS, end_block * CACHE_BLOCK_BITS)
        })
        .collect()
}

/// The raw QUAC source: the chosen segment's bit-sliced sampler, the
/// thermal-noise stream, and the reused compact row. Kept apart from the
/// [`ConditionedStream`] so a harvest can borrow it while the stream fills.
#[derive(Debug, Clone)]
struct QuacSource {
    sampler: BitSlicedSampler,
    /// The SHA inputs of one iteration, as half-open compact-lane ranges.
    range_lanes: Vec<(usize, usize)>,
    noise: NoiseRng,
    /// Reused compact row holding the latest QUAC outcome's metastable bits.
    compact: BitVec,
    /// Reused packed-byte buffer for one scalar SHA-256 input.
    block_bytes: Vec<u8>,
    iterations: u64,
}

impl QuacSource {
    /// Rebuilds the sampler and message ranges for new probabilities; the
    /// noise stream and the iteration count carry on.
    fn reprofile(&mut self, probabilities: &[f64], block_ranges: &[(usize, usize)]) {
        self.sampler = BitSlicedSampler::new(probabilities);
        self.range_lanes = lane_ranges(&self.sampler, block_ranges);
    }

    /// One QUAC operation: every metastable bitline resolves once into the
    /// compact row, which *is* the fresh entropy the iteration harvests.
    /// Returns the fresh bits drawn.
    fn advance(&mut self) -> u64 {
        self.iterations += 1;
        self.sampler
            .sample_compact_into(&mut self.compact, &mut self.noise);
        self.sampler.metastable_bits() as u64
    }

    /// The hot-path harvest: enough iterations to cover `owed` output bytes
    /// (capped, so scratch stays small and short reads stay cheap), each
    /// SHA input appended straight from the compact row's words.
    fn harvest(&mut self, messages: &mut RawMessages, owed: usize) -> u64 {
        let per_iteration = DIGEST_BITS / 8 * self.range_lanes.len();
        let batch = owed.div_ceil(per_iteration).clamp(1, MAX_BATCH_ITERATIONS);
        let mut fresh = 0;
        for _ in 0..batch {
            fresh += self.advance();
            for &(start, end) in &self.range_lanes {
                messages.push_bits(&self.compact, start, end);
            }
        }
        fresh
    }

    /// Hands each SHA input of the latest iteration to `f`, packed through
    /// [`BitVec::extract_bytes_into`]: the scalar packing of the twins.
    fn for_each_message_reference(&mut self, mut f: impl FnMut(&[u8])) {
        for &(start, end) in &self.range_lanes {
            self.compact
                .extract_bytes_into(start, end, &mut self.block_bytes);
            f(&self.block_bytes);
        }
    }
}

/// A ready-to-run QUAC-TRNG instance bound to one module.
///
/// The generator models the *memory-controller view* of the mechanism: it
/// holds the chosen segment's per-bitline one-probabilities (the physics)
/// pre-quantised into a bit-sliced threshold sampler, draws fresh thermal
/// noise per QUAC iteration, and post-processes exactly as the hardware
/// would.
///
/// The steady-state hot path never touches the full row: the sampler emits a
/// *compact* row holding only the metastable bitlines (deterministic
/// bitlines contribute zero entropy and a constant prefix/suffix to every
/// SHA input, so hashing the compact projection preserves all entropy), and
/// [`QuacTrng::fill_bytes`] conditions up to [`qt_crypto::BATCH_LANES`]
/// iterations at once through the [`ConditionedStream`]'s multi-lane
/// SHA-256. Scratch buffers are reused, so sustained generation performs no
/// per-iteration heap allocation.
#[derive(Debug, Clone)]
pub struct QuacTrng {
    model: QuacAnalogModel,
    characterization: ModuleCharacterization,
    probabilities: Vec<f64>,
    source: QuacSource,
    pub(crate) stream: ConditionedStream,
}

impl QuacTrng {
    /// Builds a generator for one of the paper's modules, running the fast
    /// characterisation configuration.
    pub fn for_module(profile: &ModuleProfile, noise_seed: u64) -> Self {
        let model = profile.analog_model();
        Self::from_model(model, CharacterizationConfig::fast(), noise_seed)
    }

    /// Builds a generator from an explicit analog model and characterisation
    /// configuration.
    pub fn from_model(
        model: QuacAnalogModel,
        cfg: CharacterizationConfig,
        noise_seed: u64,
    ) -> Self {
        let characterization = characterize_module(&model, DataPattern::best_average(), &cfg);
        Self::with_characterization(model, characterization, noise_seed)
    }

    /// Builds a generator from an existing characterisation (e.g. one loaded
    /// from the monthly re-characterisation, Section 8).
    pub fn with_characterization(
        model: QuacAnalogModel,
        characterization: ModuleCharacterization,
        noise_seed: u64,
    ) -> Self {
        let mut trng = QuacTrng {
            model,
            characterization,
            probabilities: Vec::new(),
            source: QuacSource {
                sampler: BitSlicedSampler::new(&[]),
                range_lanes: Vec::new(),
                noise: NoiseRng::new(noise_seed),
                compact: BitVec::zeros(0),
                block_bytes: Vec::new(),
                iterations: 0,
            },
            stream: ConditionedStream::new(),
        };
        trng.reprofile();
        trng
    }

    /// Re-derives the per-bitline probabilities, the sampler and the SHA
    /// input ranges from the stored characterisation.
    fn reprofile(&mut self) {
        let ch = &self.characterization;
        self.probabilities = self
            .model
            .bitline_probabilities(ch.best_segment, ch.pattern, ch.conditions);
        self.source
            .reprofile(&self.probabilities, &ch.entropy_block_ranges());
    }

    /// Builds `count` independent per-channel generator shards that share one
    /// characterisation (the paper's controller characterises a module once
    /// and then drives every channel from the stored result, Section 8).
    ///
    /// Shard `i` draws its thermal noise from [`shard_seed`]`(base_seed, i)`,
    /// so the set of per-shard streams is a pure function of `base_seed`:
    /// a multi-threaded service built on these shards is reproducible against
    /// single-threaded per-shard reference runs. Every shard owns its state
    /// (`QuacTrng` is `Send`), so each can move onto its own worker thread.
    pub fn shards(
        model: &QuacAnalogModel,
        characterization: &ModuleCharacterization,
        base_seed: u64,
        count: usize,
    ) -> Vec<QuacTrng> {
        (0..count)
            .map(|i| {
                Self::with_characterization(
                    model.clone(),
                    characterization.clone(),
                    shard_seed(base_seed, i),
                )
            })
            .collect()
    }

    /// The characterisation backing this generator.
    pub fn characterization(&self) -> &ModuleCharacterization {
        &self.characterization
    }

    /// Number of QUAC iterations performed so far.
    pub fn iterations(&self) -> u64 {
        self.source.iterations
    }

    /// Number of 256-bit random numbers produced per QUAC iteration.
    pub fn numbers_per_iteration(&self) -> usize {
        self.source.range_lanes.len()
    }

    /// Performs one QUAC iteration and returns the raw sense-amplifier
    /// contents (before post-processing), expanding the compact outcome back
    /// onto the full row.
    pub fn raw_iteration(&mut self) -> BitVec {
        let fresh = self.source.advance();
        self.stream.record_fresh_bits(fresh);
        let mut raw = BitVec::zeros(self.probabilities.len());
        self.source
            .sampler
            .expand_compact_into(&self.source.compact, &mut raw);
        raw
    }

    /// Performs one QUAC iteration and post-processes each 256-bit-entropy
    /// block with SHA-256 into `out` (cleared first) — the allocation-free
    /// core of [`QuacTrng::iteration`]. The digests are the ones the
    /// iteration contributes to the [`QuacTrng::fill_bytes`] stream.
    pub fn iteration_into(&mut self, out: &mut Vec<Sha256Digest>) {
        let fresh = self.source.advance();
        self.stream.record_fresh_bits(fresh);
        out.clear();
        self.source
            .for_each_message_reference(|message| out.push(Sha256::digest(message)));
    }

    /// Performs one QUAC iteration and post-processes each 256-bit-entropy
    /// block with SHA-256, returning `numbers_per_iteration()` random
    /// 256-bit numbers (Figure 6, steps 1–4).
    pub fn iteration(&mut self) -> Vec<Sha256Digest> {
        let mut out = Vec::with_capacity(self.numbers_per_iteration());
        self.iteration_into(&mut out);
        out
    }

    /// Generates `count` bytes of random output, buffering any excess.
    pub fn generate_bytes(&mut self, count: usize) -> Vec<u8> {
        let mut out = vec![0u8; count];
        self.fill_bytes(&mut out);
        out
    }

    /// Fills `out` with random bytes, drawing from the output buffer first
    /// and running batched QUAC iterations for the remainder — the
    /// allocation-free equivalent of [`QuacTrng::generate_bytes`] for
    /// callers that reuse one delivery buffer (e.g. the sharded RNG
    /// service). The emitted stream is identical no matter how reads are
    /// sliced across the two entry points.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        self.stream
            .fill(out, |messages, owed| self.source.harvest(messages, owed));
    }

    /// Frozen reference twin of [`QuacTrng::fill_bytes`]: one iteration at
    /// a time, packed by [`BitVec::extract_bytes_into`] and hashed by the
    /// scalar [`Sha256`], through the same stream bookkeeping. The
    /// equivalence tests pin the batched hot path byte-identical to this
    /// twin across arbitrary read slicings; it is not intended for
    /// production use.
    pub fn fill_bytes_reference(&mut self, out: &mut [u8]) {
        self.stream.fill_reference(out, |messages, _| {
            let fresh = self.source.advance();
            self.source
                .for_each_message_reference(|message| messages.push(message));
            fresh
        });
    }

    /// Generates a bitstream of `bits` random bits (SHA-256 post-processed),
    /// as used for the NIST STS experiments of Section 7.1.
    pub fn generate_bits(&mut self, bits: usize) -> BitVec {
        let bytes = self.generate_bytes(bits.div_ceil(8));
        BitVec::from_bytes(&bytes, bits)
    }

    /// Generates a Von-Neumann-corrected raw bitstream from the most
    /// metastable sense amplifier of the chosen segment (the "VNC" column of
    /// Table 1): collects `iterations` raw samples of that bitline and
    /// de-biases them.
    pub fn generate_vnc_bits(&mut self, iterations: usize) -> BitVec {
        // Pick the bitline whose one-probability is closest to 0.5.
        let best = self
            .probabilities
            .iter()
            .enumerate()
            .min_by(|a, b| (a.1 - 0.5).abs().partial_cmp(&(b.1 - 0.5).abs()).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0);
        // One quantised threshold, one RNG word per raw sample.
        let threshold = BitThreshold::quantize(self.probabilities[best]);
        let rng = &mut self.source.noise;
        let raw = BitVec::from_bits((0..iterations).map(|_| threshold.sample(rng)));
        self.source.iterations += iterations as u64;
        self.stream.record_fresh_bits(iterations as u64);
        VonNeumannCorrector::correct(&raw)
    }

    /// Updates the operating conditions (e.g. a temperature change reported
    /// by the DIMM sensor) by re-deriving the per-bitline probabilities and
    /// block ranges from the stored characterisation for those conditions
    /// (Section 8's temperature-range handling).
    pub fn set_conditions(&mut self, conditions: OperatingConditions) {
        // Re-profile only the reserved segment (cheap), keeping its identity.
        let ch = &mut self.characterization;
        ch.best_segment_cache_blocks = (0..self.model.geometry().cache_blocks_per_row())
            .map(|cb| {
                self.model
                    .cache_block_entropy(ch.best_segment, cb, ch.pattern, conditions)
            })
            .collect();
        ch.best_segment_entropy = ch.best_segment_cache_blocks.iter().sum();
        ch.conditions = conditions;
        self.reprofile();
    }

    /// Re-runs the full characterisation on the stored analog model and
    /// rebuilds the runtime state from the fresh result — the controller's
    /// response to a shard failing in-service validation (Section 8's
    /// periodic re-characterisation, triggered on demand). The stream
    /// [restarts](ConditionedStream::restart): buffered output from the old
    /// configuration is discarded (a requalifying shard must not serve
    /// stale bytes), and a transient fault is cleared — modelling damage
    /// the re-selected segment routes around.
    ///
    /// Returns the fresh characterisation.
    pub fn recharacterize(&mut self, cfg: &CharacterizationConfig) -> &ModuleCharacterization {
        let pattern = self.characterization.pattern;
        self.characterization = characterize_module(&self.model, pattern, cfg);
        self.reprofile();
        self.stream.restart();
        &self.characterization
    }
}

/// The per-shard noise seed used by [`QuacTrng::shards`]: a SplitMix64-style
/// finalizer over `(base_seed, shard)`, so shard streams are decorrelated
/// even for adjacent base seeds yet fully determined by them.
pub fn shard_seed(base_seed: u64, shard: usize) -> u64 {
    let mut z = base_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::EntropyBackend;
    use qt_dram_analog::sampler::sample_bitsliced_reference;
    use qt_dram_analog::{ModuleVariation, PAPER_MODULES};
    use qt_dram_core::DramGeometry;

    fn tiny_trng() -> QuacTrng {
        let geom = DramGeometry::tiny_test();
        let model = QuacAnalogModel::new(geom, ModuleVariation::generate(&geom, 8));
        QuacTrng::from_model(
            model,
            CharacterizationConfig {
                segment_stride: 1,
                bitline_stride: 1,
                conditions: OperatingConditions::nominal(),
            },
            77,
        )
    }

    #[test]
    fn generates_requested_byte_counts() {
        let mut t = tiny_trng();
        let a = t.generate_bytes(10);
        let b = t.generate_bytes(100);
        assert_eq!(a.len(), 10);
        assert_eq!(b.len(), 100);
        assert!(t.iterations() > 0);
    }

    #[test]
    fn output_is_balanced_and_non_repeating() {
        let mut t = tiny_trng();
        let bits = t.generate_bits(40_000);
        let frac = bits.ones_fraction();
        assert!((frac - 0.5).abs() < 0.02, "ones fraction {frac}");
        // Two consecutive draws differ.
        let a = t.generate_bytes(32);
        let b = t.generate_bytes(32);
        assert_ne!(a, b);
    }

    #[test]
    fn same_seed_reproduces_the_stream() {
        let geom = DramGeometry::tiny_test();
        let model = QuacAnalogModel::new(geom, ModuleVariation::generate(&geom, 8));
        let cfg = CharacterizationConfig {
            segment_stride: 1,
            bitline_stride: 1,
            conditions: OperatingConditions::nominal(),
        };
        let mut a = QuacTrng::from_model(model.clone(), cfg, 5);
        let mut b = QuacTrng::from_model(model, cfg, 5);
        assert_eq!(a.generate_bytes(64), b.generate_bytes(64));
    }

    #[test]
    fn chunked_reads_equal_one_bulk_read() {
        // The deque-backed output buffer must deliver the same stream no
        // matter how reads are sliced (and without O(n²) tail shifting).
        let geom = DramGeometry::tiny_test();
        let model = QuacAnalogModel::new(geom, ModuleVariation::generate(&geom, 8));
        let cfg = CharacterizationConfig {
            segment_stride: 1,
            bitline_stride: 1,
            conditions: OperatingConditions::nominal(),
        };
        let mut chunked = QuacTrng::from_model(model.clone(), cfg, 13);
        let mut bulk = QuacTrng::from_model(model, cfg, 13);
        let mut stream = Vec::new();
        for size in [1, 7, 32, 100, 3, 257, 64] {
            stream.extend(chunked.generate_bytes(size));
        }
        assert_eq!(stream, bulk.generate_bytes(stream.len()));
    }

    #[test]
    fn bitsliced_iteration_matches_scalar_reference_sampling() {
        // The pipeline's bit-sliced sampler must produce exactly the stream
        // the scalar reference path defines for the same seed.
        let geom = DramGeometry::tiny_test();
        let model = QuacAnalogModel::new(geom, ModuleVariation::generate(&geom, 21));
        let cfg = CharacterizationConfig {
            segment_stride: 1,
            bitline_stride: 1,
            conditions: OperatingConditions::nominal(),
        };
        let mut t = QuacTrng::from_model(model.clone(), cfg, 99);
        let ch = t.characterization().clone();
        let probs = model.bitline_probabilities(ch.best_segment, ch.pattern, ch.conditions);
        let mut reference_rng = NoiseRng::new(99);
        for _ in 0..5 {
            let raw = t.raw_iteration();
            let reference = sample_bitsliced_reference(&probs, &mut reference_rng);
            assert_eq!(raw, reference);
        }
    }

    #[test]
    fn batched_fill_matches_scalar_reference_fill_across_slicings() {
        // The batched multi-lane fill path must be byte-identical to the
        // frozen one-iteration-at-a-time scalar twin, no matter how reads
        // are sliced (slicings chosen to hit batch sizes 1, the cap, and
        // partial-digest carries).
        let geom = DramGeometry::tiny_test();
        let model = QuacAnalogModel::new(geom, ModuleVariation::generate(&geom, 8));
        let cfg = CharacterizationConfig {
            segment_stride: 1,
            bitline_stride: 1,
            conditions: OperatingConditions::nominal(),
        };
        let mut fast = QuacTrng::from_model(model.clone(), cfg, 77);
        let mut reference = QuacTrng::from_model(model, cfg, 77);
        for size in [1usize, 31, 32, 33, 512, 4096, 5, 1000, 64] {
            let mut a = vec![0u8; size];
            let mut b = vec![0u8; size];
            fast.fill_bytes(&mut a);
            reference.fill_bytes_reference(&mut b);
            assert_eq!(a, b, "diverged at read of {size} bytes");
        }
        assert_eq!(fast.stream().delivered_bytes(), reference.stream().delivered_bytes());
    }

    #[test]
    fn batched_fill_matches_reference_under_fault_injection() {
        use crate::fault::FaultInjector;
        let geom = DramGeometry::tiny_test();
        let model = QuacAnalogModel::new(geom, ModuleVariation::generate(&geom, 8));
        let cfg = CharacterizationConfig {
            segment_stride: 1,
            bitline_stride: 1,
            conditions: OperatingConditions::nominal(),
        };
        let mut fast = QuacTrng::from_model(model.clone(), cfg, 3);
        let mut reference = QuacTrng::from_model(model, cfg, 3);
        let fault = FaultInjector::burst(50, 17);
        fast.stream_mut().inject_fault(fault);
        reference.stream_mut().inject_fault(fault);
        for size in [200usize, 3, 999, 128] {
            let mut a = vec![0u8; size];
            let mut b = vec![0u8; size];
            fast.fill_bytes(&mut a);
            reference.fill_bytes_reference(&mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn transient_fault_survives_exactly_one_recharacterization() {
        // Back-to-back recharacterisations must be idempotent on the fault
        // seam: the first clears a transient fault, the second finds nothing
        // to clear and must not disturb a freshly injected persistent one.
        use crate::fault::FaultInjector;
        let geom = DramGeometry::tiny_test();
        let model = QuacAnalogModel::new(geom, ModuleVariation::generate(&geom, 8));
        let cfg = CharacterizationConfig {
            segment_stride: 1,
            bitline_stride: 1,
            conditions: OperatingConditions::nominal(),
        };
        let mut trng = QuacTrng::from_model(model, cfg, 9);
        trng.stream_mut().inject_fault(FaultInjector::stuck_at(0, true).transient());
        assert!(trng.stream().fault().is_some());
        trng.recharacterize(&cfg);
        assert!(
            trng.stream().fault().is_none(),
            "first recharacterisation clears a transient fault"
        );
        trng.recharacterize(&cfg);
        assert!(trng.stream().fault().is_none(), "second pass stays clear");
        // A persistent fault survives any number of recharacterisations.
        trng.stream_mut().inject_fault(FaultInjector::stuck_at(1, false));
        trng.recharacterize(&cfg);
        trng.recharacterize(&cfg);
        assert_eq!(
            trng.stream().fault().map(|f| f.cleared_on_recharacterize),
            Some(false)
        );
        // And the healthy stream really is clean: recharacterisation after
        // clearing leaves no residual corruption.
        trng.stream_mut().clear_fault();
        let mut buf = vec![0u8; 512];
        trng.fill_bytes(&mut buf);
        assert!(
            buf.iter().any(|&b| b & 0b10 != 0),
            "bit 1 is no longer stuck low"
        );
    }

    #[test]
    fn paper_module_batched_fill_matches_reference() {
        // Multi-range module (several SHA blocks per iteration): the
        // iteration-major, block-minor digest order must survive batching.
        let mut fast = QuacTrng::for_module(&PAPER_MODULES[0], 11);
        let mut reference = QuacTrng::for_module(&PAPER_MODULES[0], 11);
        for size in [100usize, 4096, 1, 700] {
            let mut a = vec![0u8; size];
            let mut b = vec![0u8; size];
            fast.fill_bytes(&mut a);
            reference.fill_bytes_reference(&mut b);
            assert_eq!(a, b, "diverged at read of {size} bytes");
        }
    }

    #[test]
    fn fill_bytes_and_generate_bytes_share_one_stream() {
        // Interleaving the slice-filling and Vec-returning entry points must
        // walk the same underlying stream as one bulk read.
        let geom = DramGeometry::tiny_test();
        let model = QuacAnalogModel::new(geom, ModuleVariation::generate(&geom, 8));
        let cfg = CharacterizationConfig {
            segment_stride: 1,
            bitline_stride: 1,
            conditions: OperatingConditions::nominal(),
        };
        let mut mixed = QuacTrng::from_model(model.clone(), cfg, 42);
        let mut bulk = QuacTrng::from_model(model, cfg, 42);
        let mut stream = Vec::new();
        for (i, size) in [3usize, 64, 1, 200, 31, 128].into_iter().enumerate() {
            if i % 2 == 0 {
                let mut buf = vec![0u8; size];
                mixed.fill_bytes(&mut buf);
                stream.extend(buf);
            } else {
                stream.extend(mixed.generate_bytes(size));
            }
        }
        assert_eq!(stream, bulk.generate_bytes(stream.len()));
    }

    #[test]
    fn fill_bytes_empty_slice_is_a_no_op() {
        let mut t = tiny_trng();
        let before = t.iterations();
        t.fill_bytes(&mut []);
        assert_eq!(t.iterations(), before);
        assert_eq!(t.stream().buffered_bytes(), 0);
    }

    #[test]
    fn shards_are_independent_deterministic_and_sendable() {
        fn assert_send<T: Send>(_: &T) {}
        let geom = DramGeometry::tiny_test();
        let model = QuacAnalogModel::new(geom, ModuleVariation::generate(&geom, 8));
        let cfg = CharacterizationConfig {
            segment_stride: 1,
            bitline_stride: 1,
            conditions: OperatingConditions::nominal(),
        };
        let ch = characterize_module(&model, DataPattern::best_average(), &cfg);
        let mut shards = QuacTrng::shards(&model, &ch, 7, 3);
        assert_send(&shards[0]);
        assert_eq!(shards.len(), 3);
        // Distinct shards emit distinct streams; the same (base_seed, index)
        // always reproduces the same stream.
        let streams: Vec<Vec<u8>> = shards.iter_mut().map(|s| s.generate_bytes(64)).collect();
        assert_ne!(streams[0], streams[1]);
        assert_ne!(streams[1], streams[2]);
        let mut again = QuacTrng::shards(&model, &ch, 7, 3);
        for (shard, stream) in again.iter_mut().zip(&streams) {
            assert_eq!(&shard.generate_bytes(64), stream);
        }
        // A shard equals a directly-seeded generator with the derived seed.
        let mut direct =
            QuacTrng::with_characterization(model.clone(), ch.clone(), shard_seed(7, 1));
        let mut shard1 = QuacTrng::shards(&model, &ch, 7, 2).pop().unwrap();
        assert_eq!(direct.generate_bytes(96), shard1.generate_bytes(96));
    }

    #[test]
    fn shard_seeds_do_not_collide_across_nearby_bases() {
        let mut seen = std::collections::HashSet::new();
        for base in 0..64u64 {
            for shard in 0..16usize {
                assert!(
                    seen.insert(shard_seed(base, shard)),
                    "collision at ({base}, {shard})"
                );
            }
        }
    }

    #[test]
    fn vnc_stream_is_unbiased() {
        let mut t = tiny_trng();
        let bits = t.generate_vnc_bits(50_000);
        assert!(!bits.is_empty());
        assert!((bits.ones_fraction() - 0.5).abs() < 0.05);
    }

    #[test]
    fn paper_module_produces_multiple_numbers_per_iteration() {
        let mut t = QuacTrng::for_module(&PAPER_MODULES[0], 3);
        // The best segment of M1 holds several SHA input blocks.
        assert!(
            t.numbers_per_iteration() >= 4,
            "blocks {}",
            t.numbers_per_iteration()
        );
        let numbers = t.iteration();
        assert_eq!(numbers.len(), t.numbers_per_iteration());
    }

    #[test]
    fn injected_fault_corrupts_delivery_but_not_the_underlying_stream() {
        use crate::fault::FaultInjector;
        let geom = DramGeometry::tiny_test();
        let model = QuacAnalogModel::new(geom, ModuleVariation::generate(&geom, 8));
        let cfg = CharacterizationConfig {
            segment_stride: 1,
            bitline_stride: 1,
            conditions: OperatingConditions::nominal(),
        };
        let mut clean = QuacTrng::from_model(model.clone(), cfg, 5);
        let mut faulty = QuacTrng::from_model(model, cfg, 5);
        faulty.stream_mut().inject_fault(FaultInjector::bias(0.85, 99));
        let reference = clean.generate_bytes(8192);
        let corrupted = faulty.generate_bytes(8192);
        assert_ne!(reference, corrupted);
        // Corruption is an OR mask over the same underlying stream.
        for (c, d) in reference.iter().zip(&corrupted) {
            assert_eq!(c | d, *d);
        }
        let ones: u32 = corrupted.iter().map(|b| b.count_ones()).sum();
        let frac = ones as f64 / (corrupted.len() * 8) as f64;
        assert!((frac - 0.85).abs() < 0.02, "biased delivery, got {frac}");
        assert_eq!(faulty.stream().delivered_bytes(), 8192);
    }

    #[test]
    fn fault_corruption_is_invariant_to_read_slicing() {
        use crate::fault::FaultInjector;
        let geom = DramGeometry::tiny_test();
        let model = QuacAnalogModel::new(geom, ModuleVariation::generate(&geom, 8));
        let cfg = CharacterizationConfig {
            segment_stride: 1,
            bitline_stride: 1,
            conditions: OperatingConditions::nominal(),
        };
        let mut chunked = QuacTrng::from_model(model.clone(), cfg, 31);
        let mut bulk = QuacTrng::from_model(model, cfg, 31);
        let fault = FaultInjector::burst(100, 30);
        chunked.stream_mut().inject_fault(fault);
        bulk.stream_mut().inject_fault(fault);
        let mut stream = Vec::new();
        for size in [3usize, 64, 1, 200, 31, 500] {
            stream.extend(chunked.generate_bytes(size));
        }
        assert_eq!(stream, bulk.generate_bytes(stream.len()));
    }

    #[test]
    fn recharacterize_refreshes_state_and_clears_transient_faults() {
        use crate::fault::FaultInjector;
        let mut t = tiny_trng();
        t.stream_mut().inject_fault(FaultInjector::bias(0.9, 1).transient());
        let _ = t.generate_bytes(512);
        assert!(t.stream().fault().is_some());
        let cfg = CharacterizationConfig {
            segment_stride: 1,
            bitline_stride: 1,
            conditions: OperatingConditions::nominal(),
        };
        let before = t.characterization().clone();
        let fresh = t.recharacterize(&cfg).clone();
        // Same model, same config: the fresh characterisation agrees with
        // the original (recharacterisation is a pure function of the model).
        assert_eq!(fresh.best_segment, before.best_segment);
        assert!(
            t.stream().fault().is_none(),
            "transient fault cleared by recharacterisation"
        );
        assert_eq!(t.stream().buffered_bytes(), 0, "stale buffered output discarded");
        assert_eq!(t.generate_bytes(64).len(), 64);
        // A persistent fault survives recharacterisation.
        t.stream_mut().inject_fault(FaultInjector::stuck_at(0, true));
        t.recharacterize(&cfg);
        assert!(t.stream().fault().is_some(), "persistent fault survives");
    }

    #[test]
    fn temperature_update_reprofiles_the_segment() {
        let mut t = tiny_trng();
        let before = t.characterization().best_segment_entropy;
        t.set_conditions(OperatingConditions::at_temperature(85.0));
        let after = t.characterization().best_segment_entropy;
        assert!(
            (before - after).abs() > 1e-9,
            "temperature change should shift entropy"
        );
        // The generator still works.
        assert_eq!(t.generate_bytes(16).len(), 16);
    }
}
