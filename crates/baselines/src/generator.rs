//! Sampling **generators** for the baseline mechanisms — not just the
//! analytic throughput models of Table 2, but seeded byte-stream sources
//! that plug into the RNG service as [`EntropyBackend`] tiers next to the
//! QUAC pipeline.
//!
//! Both generators follow the same shape as `QuacTrng`:
//!
//! * a per-bitline one-probability vector derived from the characterised
//!   analog model ([`FailureModel`] activation-latency failures for
//!   [`DRangeTrng`], [`RetentionModel`] pause failures for
//!   [`RetentionTrng`]),
//! * the [`BitSlicedSampler`] QUAC samples with, over a seeded
//!   [`NoiseRng`], pinned bit-identical to the scalar
//!   [`sample_bitsliced_reference`] walk,
//! * SHA-256 2:1 conditioning of each harvested row image (64-byte raw
//!   blocks → 32-byte digests) through the shared [`ConditionedStream`],
//!   which also owns the output buffer, the delivery-boundary fault seam,
//!   the delivered offset and the fresh-bit counter — so chaos campaigns
//!   drive every tier with the same machinery.
//!
//! Each generator carries a frozen `fill_bytes_reference` twin (scalar
//! sampling + scalar hashing) and the stream contract is: same
//! construction, same bytes, regardless of how reads slice the stream.
//!
//! ## Construction: choosing the harvest rows
//!
//! Both generators pick their rows once, at construction, by scoring up to
//! 16 candidate rows on their count of metastable bitlines (cells whose
//! probability quantizes to a [`BitThreshold::Metastable`] threshold).
//!
//! * [`DRangeTrng::new`] scores rows with the classify-first
//!   [`TrcdClassifier`](qt_dram_analog::TrcdClassifier): the row hash
//!   prefix is taken once per row, each bitline is placed by integer range
//!   checks on its hashed uniform, and only a thin band of cells near the
//!   CDF's saturation edge (about 3%) runs the exact probability chain.
//!   The chosen row's full probabilities are built once, running the chain
//!   only for its metastable cells; the analytic class model skips
//!   deterministic cells, whose entropy is exactly 0. This is exact, not
//!   an approximation — the argument is in `qt_dram_analog::failures` —
//!   and the tests pin the chosen row's probabilities to the frozen
//!   cell-by-cell scan to the bit.
//! * [`RetentionTrng::new`] scores each candidate row once, keeps the
//!   `RETENTION_BURST_ROWS` best with their probabilities (ties in
//!   ascending row order, as a stable sort gives), and reuses them as the
//!   harvest image, pinned to the frozen sort-based scan.

use crate::drange::DRange;
use crate::talukder::Talukder;
use qt_dram_analog::sampler::sample_bitsliced_reference;
use qt_dram_analog::{BitSlicedSampler, BitThreshold, FailureModel, NoiseRng, RetentionModel};
use qt_dram_core::{BitVec, DramGeometry, RowAddr, TransferRate};
use quac_trng::backend::{BackendClass, BackendKind, EntropyBackend};
use quac_trng::characterize::CharacterizationConfig;
use quac_trng::stream::{ConditionedStream, RawMessages};

/// tRCD fraction the D-RaNGe generator reads at — matches the operating
/// point `DRange::enhanced_from_characterisation` scans entropy at.
const TRCD_FRACTION: f64 = 0.3;

/// Worst-case operating temperature the retention generator harvests at
/// (retention times halve every ~10 °C, so the hot corner fails fastest).
const RETENTION_TEMP_C: f64 = 85.0;

/// Row-candidate scan: stride and cap, mirroring the characterised-baseline
/// scan in `DRange::enhanced_from_characterisation`.
const CANDIDATE_ROW_STRIDE: usize = 512;
const MAX_CANDIDATE_ROWS: usize = 16;

/// Rows harvested per retention pause — one "burst" of the slow tier.
const RETENTION_BURST_ROWS: usize = 4;

/// The rows `0, 512, 1024, …` a generator considers when picking its
/// harvest rows (always at least row 0).
fn candidate_rows(geom: &DramGeometry) -> impl Iterator<Item = usize> {
    (0..geom.rows_per_bank().max(1))
        .step_by(CANDIDATE_ROW_STRIDE)
        .take(MAX_CANDIDATE_ROWS)
}

/// Bits per SHA-256 input: a 64-byte block of the row image.
const BLOCK_BITS: usize = 512;

/// The raw source both generators share: the harvest rows' per-bitline
/// one-probabilities, sampled through a [`BitSlicedSampler`].
#[derive(Debug)]
struct RowSource {
    /// The per-bit one-probabilities — kept for the scalar reference twin.
    probs: Vec<f64>,
    sampler: BitSlicedSampler,
    noise: NoiseRng,
    /// Reused compact sample of the metastable bits.
    compact: BitVec,
    /// Reused full row image, expanded from `compact`.
    row: BitVec,
}

impl RowSource {
    fn new(probs: Vec<f64>, seed: u64) -> Self {
        let sampler = BitSlicedSampler::new(&probs);
        assert!(
            sampler.metastable_bits() > 0,
            "harvest rows carry no metastable bits; the stream would be constant"
        );
        RowSource {
            probs,
            sampler,
            noise: NoiseRng::new(seed),
            compact: BitVec::zeros(0),
            row: BitVec::zeros(0),
        }
    }

    /// One harvest on the hot path: sample the metastable bits, expand them
    /// onto the row image, and append each 64-byte block as a message.
    /// Returns the fresh bits drawn: the row image's metastable bits.
    fn harvest(&mut self, messages: &mut RawMessages) -> u64 {
        self.sampler
            .sample_compact_into(&mut self.compact, &mut self.noise);
        self.sampler.expand_compact_into(&self.compact, &mut self.row);
        for start in (0..self.row.len()).step_by(BLOCK_BITS) {
            messages.push_bits(&self.row, start, (start + BLOCK_BITS).min(self.row.len()));
        }
        self.sampler.metastable_bits() as u64
    }

    /// The frozen scalar twin of [`RowSource::harvest`]: a per-bit
    /// threshold walk, packed to bytes and cut into 64-byte blocks.
    fn harvest_reference(&mut self, messages: &mut RawMessages) -> u64 {
        let row = sample_bitsliced_reference(&self.probs, &mut self.noise);
        for block in row.to_bytes().chunks(BLOCK_BITS / 8) {
            messages.push(block);
        }
        self.sampler.metastable_bits() as u64
    }
}

/// Counts the bits of a probability row that quantize to a metastable
/// threshold — the row-selection score of the retention generator.
fn metastable_count(probs: &[f64]) -> usize {
    probs.iter().filter(|&&p| !BitThreshold::quantize(p).is_deterministic()).count()
}

/// A D-RaNGe-style generator (Kim et al., HPCA 2019): reads a chosen row
/// with a sharply reduced tRCD and harvests the activation-latency failure
/// pattern, one row image per harvest, SHA-256 conditioned 2:1.
///
/// Low latency (one reduced-tRCD read per number), lower throughput than
/// QUAC — the latency-sensitive tier of the entropy mesh.
#[derive(Debug)]
pub struct DRangeTrng {
    source: RowSource,
    stream: ConditionedStream,
    class: BackendClass,
}

impl DRangeTrng {
    /// Builds the generator on a characterised failure model: scans the
    /// candidate rows for the one with the most metastable bitlines at
    /// `TRCD_FRACTION` (the last such row on a tie), and advertises the
    /// throughput/latency class of the characterised Enhanced D-RaNGe
    /// analytic model.
    ///
    /// The scan counts metastable bitlines with one classify-first
    /// [`TrcdClassifier`](qt_dram_analog::TrcdClassifier) pass per row and
    /// builds full probabilities for the chosen row only, bit-identical to
    /// evaluating `trcd_read_one_probability` on every bitline of every
    /// candidate (the frozen reference in the tests).
    pub fn new(failures: &FailureModel, geom: &DramGeometry, seed: u64) -> Self {
        let classifier = failures.trcd_classifier(TRCD_FRACTION);
        let best = candidate_rows(geom)
            .max_by_key(|&row| classifier.metastable_count(RowAddr::new(row), 0..geom.row_bits))
            .expect("at least one candidate row");
        let probs = classifier.row_probabilities(RowAddr::new(best), 0..geom.row_bits);
        let rate = TransferRate::ddr4_2400();
        let analytic = DRange::enhanced_from_characterisation(failures, geom);
        DRangeTrng {
            source: RowSource::new(probs, seed),
            stream: ConditionedStream::new(),
            class: BackendClass {
                kind: BackendKind::DRange,
                throughput_gbps: analytic.throughput_gbps_per_channel(rate),
                latency_256bit_ns: analytic.latency_256bit_ns(rate),
            },
        }
    }

    /// Fills `out` with the next bytes of the deterministic stream (the
    /// word-parallel hot path), applying any injected fault.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        self.stream.fill(out, |messages, _| self.source.harvest(messages));
    }

    /// The frozen scalar twin of [`DRangeTrng::fill_bytes`] — same stream,
    /// bit for bit, for the same construction.
    pub fn fill_bytes_reference(&mut self, out: &mut [u8]) {
        self.stream
            .fill_reference(out, |messages, _| self.source.harvest_reference(messages));
    }

    /// Convenience wrapper: the next `count` stream bytes.
    pub fn generate_bytes(&mut self, count: usize) -> Vec<u8> {
        let mut out = vec![0u8; count];
        self.fill_bytes(&mut out);
        out
    }
}

impl EntropyBackend for DRangeTrng {
    fn fill_bytes(&mut self, out: &mut [u8]) {
        DRangeTrng::fill_bytes(self, out);
    }

    fn recharacterize(&mut self, _cfg: &CharacterizationConfig) {
        self.stream.restart();
    }

    fn class(&self) -> BackendClass {
        self.class
    }

    fn stream(&self) -> &ConditionedStream {
        &self.stream
    }

    fn stream_mut(&mut self) -> &mut ConditionedStream {
        &mut self.stream
    }
}

/// A retention-based generator in the style of Talukder+ (ICCE 2019):
/// pauses refresh on a set of harvest rows, reads back the retention
/// failure pattern, and conditions it with SHA-256. Each harvest models one
/// multi-row pause burst — very slow and bursty, the last-resort tier of
/// the entropy mesh.
#[derive(Debug)]
pub struct RetentionTrng {
    source: RowSource,
    stream: ConditionedStream,
    class: BackendClass,
    /// The simulated refresh pause per burst, in seconds (chosen at the
    /// median cell retention time so the failure pattern is maximally
    /// undetermined).
    pause_s: f64,
}

impl RetentionTrng {
    /// Builds the generator on a retention model: picks the pause at the
    /// median retention time of the candidate rows' cells (centering the
    /// per-cell failure probabilities around 1/2), then harvests the
    /// `RETENTION_BURST_ROWS` rows with the most metastable cells.
    pub fn new(retention: &RetentionModel, geom: &DramGeometry, seed: u64) -> Self {
        let mut times: Vec<f64> = candidate_rows(geom)
            .flat_map(|row| {
                (0..geom.row_bits)
                    .step_by(64)
                    .map(move |bl| (row, bl))
                    .collect::<Vec<_>>()
            })
            .map(|(row, bl)| retention.retention_time_s(RowAddr::new(row), bl, RETENTION_TEMP_C))
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("retention times are finite"));
        let pause_s = times[times.len() / 2];
        let row_probs = |row: usize| -> Vec<f64> {
            (0..geom.row_bits)
                .map(|bl| {
                    retention.failure_probability(RowAddr::new(row), bl, pause_s, RETENTION_TEMP_C)
                })
                .collect()
        };
        // Score every candidate once, keeping the best rows with their
        // probabilities: descending count, ties in ascending row order
        // (the order of a stable sort by descending count).
        let burst = RETENTION_BURST_ROWS.max(1);
        let mut winners: Vec<(usize, usize, Vec<f64>)> = Vec::with_capacity(burst + 1);
        for row in candidate_rows(geom) {
            let probs = row_probs(row);
            let count = metastable_count(&probs);
            let at = winners.partition_point(|&(best, _, _)| best >= count);
            if at < burst {
                winners.insert(at, (count, row, probs));
                winners.truncate(burst);
            }
        }
        // Deterministic harvest order: ascending row within the winner set.
        winners.sort_unstable_by_key(|&(_, row, _)| row);
        let probs: Vec<f64> = winners.into_iter().flat_map(|(_, _, probs)| probs).collect();
        let rate = TransferRate::ddr4_2400();
        let analytic = Talukder::enhanced_default();
        RetentionTrng {
            source: RowSource::new(probs, seed),
            stream: ConditionedStream::new(),
            class: BackendClass {
                kind: BackendKind::Retention,
                throughput_gbps: analytic.throughput_gbps_per_channel(rate),
                latency_256bit_ns: analytic.latency_256bit_ns(rate),
            },
            pause_s,
        }
    }

    /// The simulated refresh pause per harvest burst, in seconds.
    pub fn pause_s(&self) -> f64 {
        self.pause_s
    }

    /// Fills `out` with the next bytes of the deterministic stream (the
    /// word-parallel hot path), applying any injected fault.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        self.stream.fill(out, |messages, _| self.source.harvest(messages));
    }

    /// The frozen scalar twin of [`RetentionTrng::fill_bytes`] — same
    /// stream, bit for bit, for the same construction.
    pub fn fill_bytes_reference(&mut self, out: &mut [u8]) {
        self.stream
            .fill_reference(out, |messages, _| self.source.harvest_reference(messages));
    }

    /// Convenience wrapper: the next `count` stream bytes.
    pub fn generate_bytes(&mut self, count: usize) -> Vec<u8> {
        let mut out = vec![0u8; count];
        self.fill_bytes(&mut out);
        out
    }
}

impl EntropyBackend for RetentionTrng {
    fn fill_bytes(&mut self, out: &mut [u8]) {
        RetentionTrng::fill_bytes(self, out);
    }

    fn recharacterize(&mut self, _cfg: &CharacterizationConfig) {
        self.stream.restart();
    }

    fn class(&self) -> BackendClass {
        self.class
    }

    fn stream(&self) -> &ConditionedStream {
        &self.stream
    }

    fn stream_mut(&mut self) -> &mut ConditionedStream {
        &mut self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qt_dram_analog::{ModuleVariation, OperatingConditions, QuacAnalogModel};
    use quac_trng::fault::FaultInjector;
    use quac_trng::pipeline::QuacTrng;

    fn tiny_failures() -> (FailureModel, DramGeometry) {
        let geom = DramGeometry::tiny_test();
        (FailureModel::new(ModuleVariation::generate(&geom, 5)), geom)
    }

    fn tiny_retention() -> (RetentionModel, DramGeometry) {
        let geom = DramGeometry::tiny_test();
        (
            RetentionModel::new(ModuleVariation::generate(&geom, 5)),
            geom,
        )
    }

    /// Tiny rows, 4096 rows per bank: eight candidate rows to scan.
    fn scan_geometry() -> DramGeometry {
        DramGeometry { subarrays_per_bank: 64, ..DramGeometry::tiny_test() }
    }

    fn bits(probs: &[f64]) -> Vec<u64> {
        probs.iter().map(|p| p.to_bits()).collect()
    }

    /// The cell-by-cell row scan `DRangeTrng::new` replaced, frozen as its
    /// oracle: the chosen row's probabilities.
    fn drange_probs_reference(failures: &FailureModel, geom: &DramGeometry) -> Vec<f64> {
        let row_probs = |row: usize| -> Vec<f64> {
            (0..geom.row_bits)
                .map(|bl| failures.trcd_read_one_probability(RowAddr::new(row), bl, TRCD_FRACTION))
                .collect()
        };
        let best = candidate_rows(geom)
            .max_by_key(|&row| BitSlicedSampler::new(&row_probs(row)).metastable_bits())
            .expect("at least one candidate row");
        row_probs(best)
    }

    /// The sort-based row scan `RetentionTrng::new` replaced (rebuilding a
    /// row's probabilities on every comparison), frozen as its oracle: the
    /// harvested probabilities.
    fn retention_probs_reference(
        retention: &RetentionModel,
        geom: &DramGeometry,
        pause_s: f64,
    ) -> Vec<f64> {
        let row_probs = |row: usize| -> Vec<f64> {
            (0..geom.row_bits)
                .map(|bl| {
                    retention.failure_probability(RowAddr::new(row), bl, pause_s, RETENTION_TEMP_C)
                })
                .collect()
        };
        let mut rows: Vec<usize> = candidate_rows(geom).collect();
        rows.sort_by_key(|&row| std::cmp::Reverse(BitSlicedSampler::new(&row_probs(row)).metastable_bits()));
        rows.truncate(RETENTION_BURST_ROWS.max(1));
        rows.sort_unstable();
        rows.iter().flat_map(|&row| row_probs(row)).collect()
    }

    #[test]
    fn drange_row_scan_matches_the_cell_by_cell_reference() {
        for geom in [DramGeometry::tiny_test(), scan_geometry()] {
            for seed in [5, 8, 21] {
                let failures = FailureModel::new(ModuleVariation::generate(&geom, seed));
                let d = DRangeTrng::new(&failures, &geom, 1);
                assert_eq!(bits(&d.source.probs), bits(&drange_probs_reference(&failures, &geom)));
            }
        }
    }

    #[test]
    fn retention_row_scan_matches_the_sort_based_reference() {
        for geom in [DramGeometry::tiny_test(), scan_geometry()] {
            for seed in [5, 8, 21] {
                let retention = RetentionModel::new(ModuleVariation::generate(&geom, seed));
                let r = RetentionTrng::new(&retention, &geom, 1);
                let reference = retention_probs_reference(&retention, &geom, r.pause_s());
                assert_eq!(bits(&r.source.probs), bits(&reference));
            }
        }
    }

    #[test]
    fn drange_stream_is_deterministic_and_slicing_invariant() {
        let (failures, geom) = tiny_failures();
        let mut a = DRangeTrng::new(&failures, &geom, 77);
        let mut b = DRangeTrng::new(&failures, &geom, 77);
        let one = a.generate_bytes(1024);
        let mut many = vec![0u8; 1024];
        for chunk in many.chunks_mut(100) {
            b.fill_bytes(chunk);
        }
        assert_eq!(one, many);
        assert_eq!(a.stream().delivered_bytes(), 1024);
        let mut c = DRangeTrng::new(&failures, &geom, 78);
        assert_ne!(one, c.generate_bytes(1024), "seeds decorrelate streams");
    }

    #[test]
    fn retention_stream_is_deterministic_and_bursty() {
        let (retention, geom) = tiny_retention();
        let mut a = RetentionTrng::new(&retention, &geom, 9);
        let mut b = RetentionTrng::new(&retention, &geom, 9);
        assert!(a.pause_s() > 0.0);
        assert_eq!(a.generate_bytes(4096), b.generate_bytes(4096));
        // One burst conditions half the multi-row image: 32 bytes per
        // 64-byte block of RETENTION_BURST_ROWS rows — 1024 bytes on the
        // tiny geometry, so 4096 delivered bytes drain exactly 4 bursts.
        let burst = RETENTION_BURST_ROWS * geom.row_bits / 16;
        assert_eq!(4096 % burst, 0);
        assert_eq!(a.stream.buffered_bytes(), 0);
    }

    #[test]
    fn classes_rank_the_tiers_like_table_2() {
        let (failures, geom) = tiny_failures();
        let (retention, _) = tiny_retention();
        let d = DRangeTrng::new(&failures, &geom, 1);
        let r = RetentionTrng::new(&retention, &geom, 1);
        assert_eq!(d.class().kind, BackendKind::DRange);
        assert_eq!(r.class().kind, BackendKind::Retention);
        assert!(d.class().throughput_gbps > r.class().throughput_gbps);
        assert!(d.class().latency_256bit_ns < r.class().latency_256bit_ns);
    }

    #[test]
    fn fault_seam_is_slicing_invariant_and_transient_faults_clear() {
        let (failures, geom) = tiny_failures();
        let mut a = DRangeTrng::new(&failures, &geom, 3);
        let mut b = DRangeTrng::new(&failures, &geom, 3);
        a.stream_mut().inject_fault(FaultInjector::stuck_at(0, true));
        b.stream_mut().inject_fault(FaultInjector::stuck_at(0, true));
        let one = a.generate_bytes(512);
        let mut many = vec![0u8; 512];
        for chunk in many.chunks_mut(37) {
            b.fill_bytes(chunk);
        }
        assert_eq!(one, many);
        assert!(one.iter().all(|byte| byte & 1 == 1));
        a.stream_mut().inject_fault(FaultInjector::stuck_at(0, true).transient());
        EntropyBackend::recharacterize(&mut a, &CharacterizationConfig::fast());
        assert!(a.generate_bytes(512).iter().any(|byte| byte & 1 == 0));
    }

    fn tiny_cfg() -> CharacterizationConfig {
        CharacterizationConfig {
            segment_stride: 1,
            bitline_stride: 1,
            conditions: OperatingConditions::nominal(),
        }
    }

    fn tiny_quac(seed: u64) -> QuacTrng {
        let geom = DramGeometry::tiny_test();
        let model = QuacAnalogModel::new(geom, ModuleVariation::generate(&geom, 8));
        QuacTrng::from_model(model, tiny_cfg(), seed)
    }

    fn tiny_drange(seed: u64) -> DRangeTrng {
        let (failures, geom) = tiny_failures();
        DRangeTrng::new(&failures, &geom, seed)
    }

    fn tiny_retention_trng(seed: u64) -> RetentionTrng {
        let (retention, geom) = tiny_retention();
        RetentionTrng::new(&retention, &geom, seed)
    }

    /// Fresh bits and conditioned bytes of one row-source harvest.
    fn per_harvest(source: &RowSource) -> (u64, u64) {
        let blocks = source.probs.len().div_ceil(BLOCK_BITS);
        (source.sampler.metastable_bits() as u64, (blocks * 32) as u64)
    }

    /// One row of the backend contract table.
    struct Contract {
        name: &'static str,
        /// A fresh backend drawing noise from the given seed.
        build: fn(u64) -> Box<dyn EntropyBackend>,
        /// The first `len` bytes of a fresh backend's stream through its
        /// scalar reference twin.
        reference: fn(u64, usize) -> Vec<u8>,
        /// `(fresh bits, conditioned bytes)` per harvest, where a harvest
        /// has a fixed size.
        harvest: Option<fn() -> (u64, u64)>,
    }

    /// Reads `cuts.iter().sum()` bytes in reads of the given sizes.
    fn read(backend: &mut dyn EntropyBackend, cuts: &[usize]) -> Vec<u8> {
        let mut out = vec![0u8; cuts.iter().sum()];
        let mut at = 0;
        for &cut in cuts {
            backend.fill_bytes(&mut out[at..at + cut]);
            at += cut;
        }
        out
    }

    #[test]
    fn backend_contract_holds_for_every_backend() {
        const LEN: usize = 3000;
        const CUTS: &[usize] = &[1, 7, 32, 100, 3, 257, 64, 1000, 31, 1505];
        let contracts = [
            Contract {
                name: "quac",
                build: |seed| Box::new(tiny_quac(seed)),
                reference: |seed, len| {
                    let mut out = vec![0u8; len];
                    tiny_quac(seed).fill_bytes_reference(&mut out);
                    out
                },
                harvest: None,
            },
            Contract {
                name: "drange",
                build: |seed| Box::new(tiny_drange(seed)),
                reference: |seed, len| {
                    let mut out = vec![0u8; len];
                    tiny_drange(seed).fill_bytes_reference(&mut out);
                    out
                },
                harvest: Some(|| per_harvest(&tiny_drange(0).source)),
            },
            Contract {
                name: "retention",
                build: |seed| Box::new(tiny_retention_trng(seed)),
                reference: |seed, len| {
                    let mut out = vec![0u8; len];
                    tiny_retention_trng(seed).fill_bytes_reference(&mut out);
                    out
                },
                harvest: Some(|| per_harvest(&tiny_retention_trng(0).source)),
            },
        ];
        for c in contracts {
            let name = c.name;
            // One stream, however reads slice it, and equal to the twin's.
            let whole = read(&mut *(c.build)(3), &[LEN]);
            let mut sliced = (c.build)(3);
            assert_eq!(read(&mut *sliced, CUTS), whole, "{name}: slicing");
            assert_eq!(sliced.stream().delivered_bytes(), LEN as u64, "{name}: offset");
            assert_eq!((c.reference)(3, LEN), whole, "{name}: hot vs reference");
            assert_ne!(read(&mut *(c.build)(4), &[LEN]), whole, "{name}: seeds");

            // The fault seam corrupts delivery by absolute offset only.
            let faulted = |cuts: &[usize]| {
                let mut backend = (c.build)(3);
                backend.stream_mut().inject_fault(FaultInjector::burst(100, 30));
                read(&mut *backend, cuts)
            };
            let corrupted = faulted(&[LEN]);
            assert_eq!(faulted(CUTS), corrupted, "{name}: fault slicing");
            for (i, (&bad, &good)) in corrupted.iter().zip(&whole).enumerate() {
                assert_eq!(bad, if i % 100 < 30 { 0 } else { good }, "{name}: byte {i}");
            }

            // Recharacterisation restarts the stream: buffered bytes go, a
            // transient fault clears, a persistent one stays, and the
            // fresh-bit counter never rewinds.
            let mut b = (c.build)(5);
            b.stream_mut().inject_fault(FaultInjector::stuck_at(0, true).transient());
            assert_eq!(read(&mut *b, &[1])[0] & 1, 1, "{name}: stuck bit");
            assert!(b.stream().buffered_bytes() > 0, "{name}: partial read buffers");
            let drawn = b.stream().fresh_bits_drawn();
            assert!(drawn > 0, "{name}: a harvest draws fresh bits");
            b.recharacterize(&tiny_cfg());
            assert_eq!(b.stream().buffered_bytes(), 0, "{name}: restart drops the buffer");
            assert!(b.stream().fault().is_none(), "{name}: transient fault clears");
            assert_eq!(b.stream().fresh_bits_drawn(), drawn, "{name}: no rewind");
            assert!(read(&mut *b, &[512]).iter().any(|byte| byte & 1 == 0));
            assert!(b.stream().fresh_bits_drawn() > drawn, "{name}: monotone");
            b.stream_mut().inject_fault(FaultInjector::stuck_at(0, true));
            b.recharacterize(&tiny_cfg());
            assert!(b.stream().fault().is_some(), "{name}: persistent fault stays");
            assert!(read(&mut *b, &[512]).iter().all(|byte| byte & 1 == 1));
            assert_eq!(b.stream().delivered_bytes(), 1025, "{name}: offset");

            // The ledger counts metastable bits once per harvest.
            if let Some(per_harvest) = c.harvest {
                let (bits, bytes) = per_harvest();
                let mut b = (c.build)(6);
                read(&mut *b, &[LEN]);
                let conditioned = b.stream().delivered_bytes() + b.stream().buffered_bytes() as u64;
                assert_eq!(conditioned % bytes, 0, "{name}: whole harvests");
                assert_eq!(b.stream().fresh_bits_drawn(), bits * (conditioned / bytes), "{name}");
            }
        }
    }

    proptest! {
        /// The tentpole pin: the word-parallel hot path and the frozen
        /// scalar reference twin emit bit-identical streams for the same
        /// seed, under arbitrary read slicing.
        #[test]
        fn prop_drange_hot_path_matches_scalar_reference(
            seed in any::<u64>(),
            cuts in proptest::collection::vec(1usize..512, 1..6),
        ) {
            let (failures, geom) = tiny_failures();
            let mut fast = DRangeTrng::new(&failures, &geom, seed);
            let mut reference = DRangeTrng::new(&failures, &geom, seed);
            let total: usize = cuts.iter().sum();
            let mut sliced = vec![0u8; total];
            let mut at = 0;
            for cut in &cuts {
                fast.fill_bytes(&mut sliced[at..at + cut]);
                at += cut;
            }
            let mut whole = vec![0u8; total];
            reference.fill_bytes_reference(&mut whole);
            prop_assert_eq!(sliced, whole);
        }

        /// Same pin for the retention tier.
        #[test]
        fn prop_retention_hot_path_matches_scalar_reference(seed in any::<u64>()) {
            let (retention, geom) = tiny_retention();
            let mut fast = RetentionTrng::new(&retention, &geom, seed);
            let mut reference = RetentionTrng::new(&retention, &geom, seed);
            let mut a = vec![0u8; 3000];
            let mut b = vec![0u8; 3000];
            fast.fill_bytes(&mut a);
            reference.fill_bytes_reference(&mut b);
            prop_assert_eq!(a, b);
        }
    }
}
