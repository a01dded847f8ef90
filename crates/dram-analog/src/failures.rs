//! Failure mechanisms exploited by prior DRAM-based TRNGs, modelled on the
//! same process-variation substrate as QUAC.
//!
//! * **Reduced-tRCD read failures** (D-RaNGe, Kim et al., HPCA 2019): reading
//!   a cache block before the activation latency elapses makes a small number
//!   of cells per block resolve randomly.
//! * **Reduced-tRP activation failures** (Talukder et al., ICCE 2019):
//!   activating a row before the bitlines finish precharging flips a small
//!   fraction of cells per row randomly.
//! * **Retention failures** (D-PUF, Keller+): pausing refresh lets the
//!   leakiest cells lose their charge over tens of seconds.
//!
//! These models feed the "Enhanced" baselines of Section 7.4, which the paper
//! builds by characterising the same 136 chips used for QUAC.
//!
//! ## Classify-first row scans
//!
//! Picking a D-RaNGe harvest row and characterising its analytic model only
//! needs to know which cells are *metastable* (their read-one probability
//! quantises to a [`BitThreshold::Metastable`] threshold) — most cells are
//! deterministic, with a probability of exactly 0.0 or 1.0. A
//! [`TrcdClassifier`] decides that for whole rows without running the
//! probability chain (hash → Acklam Φ⁻¹ → `exp`-based erf) on every cell:
//!
//! * The row's [`CoordHasher`] prefix is taken once per row; each bitline
//!   then costs two SplitMix rounds.
//! * The normalised bias `z = spread · Φ⁻¹(u) / depth` is monotone in the
//!   53-bit mantissa `m = hash >> 11` behind the hashed uniform `u`. Four
//!   mantissa bounds, found once per tRCD fraction by bisection on the
//!   exact chain, split the mantissa range into: `z ≤ −8.6` (always 0),
//!   `|z| ≤ 8.0` (metastable), `z ≥ 8.6` (always 1), and two thin bands in
//!   between. Integer range checks on the mantissa place a cell, without
//!   a branch.
//! * Only cells in the bands — about 3% at the generator's operating point
//!   — run the exact chain (`std_normal_cdf` → [`BitThreshold::quantize`])
//!   to be classified. Probabilities and entropies still run it for the
//!   metastable cells, but skip the deterministic majority, whose
//!   probability is exactly 0.0 or 1.0 and entropy exactly 0.
//!
//! **Why it is exact.** The CDF is strictly inside (0, 1) for
//! `|z| ≤ CDF_INTERIOR_Z` (8.0) and exactly 0.0/1.0 for
//! `|z| ≥ ENTROPY_SATURATION_Z` (8.6); both are pinned by dense tests in
//! `math`. Its saturation edges (z ≈ 8.245 and z ≈ −8.376) lie inside the
//! band with over 0.2 to spare. The computed bias is monotone in `m` up to
//! rounding wobble (products and quotients by positive constants round
//! monotonically, and Acklam's Φ⁻¹ deviates from the monotone Φ⁻¹ by a
//! relative 1.15e-9), many orders of magnitude below that margin. So every
//! cell outside the bands has the class the exact chain would give it.
//! A margin spread that is not a positive finite number has no such
//! monotone map: the bounds then put every cell in the band, and the
//! exact chain decides them all. The proptests pin the per-cell class to
//! `BitThreshold::quantize(trcd_read_one_probability(..))` on random cells
//! and on both sides of every bound, and the row probabilities and block
//! entropies to the bit.

use crate::math::{
    binary_entropy_bits, hash_to_std_normal, normal_at, std_normal_cdf, uniform_at, CoordHasher,
    CDF_INTERIOR_Z, ENTROPY_SATURATION_Z,
};
use crate::sampler::BitThreshold;
use crate::variation::ModuleVariation;
use qt_dram_core::{RowAddr, CACHE_BLOCK_BITS};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Calibration of the reduced-timing failure mechanisms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureParams {
    /// Spread (in noise-sigma units) of the per-cell tRCD margin. Larger
    /// spread means fewer cells land in the metastable window when tRCD is
    /// violated. Calibrated so the average maximum cache-block entropy is
    /// ≈ 46.5 bits (D-RaNGe-Enhanced, Section 7.4.1).
    pub trcd_margin_spread: f64,
    /// Fraction of the nominal tRCD below which reads become unreliable.
    pub trcd_critical_fraction: f64,
    /// Spread of the per-cell tRP margin. Calibrated so the average maximum
    /// row entropy is ≈ 1024 bits out of 64 K (Talukder+-Enhanced,
    /// Section 7.4.2).
    pub trp_margin_spread: f64,
    /// Fraction of the nominal tRP below which activations become unreliable.
    pub trp_critical_fraction: f64,
    /// Median cell retention time at 50 °C, in seconds.
    pub retention_median_s: f64,
    /// Log-space standard deviation of cell retention times.
    pub retention_log_sigma: f64,
    /// Retention times halve roughly every this many °C.
    pub retention_halving_c: f64,
}

impl FailureParams {
    /// Parameters calibrated to the entropy statistics quoted in Section 7.4.
    pub fn calibrated() -> Self {
        FailureParams {
            trcd_margin_spread: 7.5,
            trcd_critical_fraction: 0.55,
            trp_margin_spread: 43.0,
            trp_critical_fraction: 0.45,
            retention_median_s: 20_000.0,
            retention_log_sigma: 2.4,
            retention_halving_c: 10.0,
        }
    }
}

impl Default for FailureParams {
    fn default() -> Self {
        Self::calibrated()
    }
}

/// Reduced-timing failure model bound to one module's variation profile.
#[derive(Debug, Clone)]
pub struct FailureModel {
    variation: ModuleVariation,
    params: FailureParams,
}

/// Domain-separation tags.
mod tag {
    pub const TRCD: u64 = 0x41;
    pub const TRP: u64 = 0x42;
    pub const RETENTION: u64 = 0x43;
}

impl FailureModel {
    /// Creates a failure model for a module using calibrated parameters.
    pub fn new(variation: ModuleVariation) -> Self {
        Self::with_params(variation, FailureParams::calibrated())
    }

    /// Creates a failure model with explicit parameters.
    pub fn with_params(variation: ModuleVariation, params: FailureParams) -> Self {
        FailureModel { variation, params }
    }

    /// The failure parameters.
    pub fn params(&self) -> &FailureParams {
        &self.params
    }

    /// Probability that a cell reads as logic-1 when its cache block is read
    /// with tRCD reduced to `trcd_fraction` of nominal after the row was
    /// initialised with all-zeros (the data pattern D-RaNGe found most
    /// effective). At nominal timing the cell reads back its stored zero
    /// deterministically.
    pub fn trcd_read_one_probability(
        &self,
        row: RowAddr,
        bitline: usize,
        trcd_fraction: f64,
    ) -> f64 {
        match self.trcd_depth(trcd_fraction) {
            Some(depth) => {
                std_normal_cdf(self.trcd_bias(self.trcd_hasher(row).hash(bitline as u64, 0), depth))
            }
            None => 0.0,
        }
    }

    /// The per-row prefix of the tRCD cell hash.
    fn trcd_hasher(&self, row: RowAddr) -> CoordHasher {
        CoordHasher::new(self.variation.seed() ^ tag::TRCD, row.index() as u64)
    }

    /// How deep into the unreliable region a reduction to `trcd_fraction`
    /// goes (clamped away from zero), or `None` when it is not reduced
    /// enough to matter and every read is reliable.
    fn trcd_depth(&self, trcd_fraction: f64) -> Option<f64> {
        if trcd_fraction >= 1.0 {
            return None;
        }
        let depth = (self.params.trcd_critical_fraction - trcd_fraction)
            / self.params.trcd_critical_fraction;
        if depth <= 0.0 {
            return None;
        }
        Some(depth.max(1e-3))
    }

    /// Normalised bias of the cell with tRCD hash `hash`: its access speed
    /// margin over the reduction depth. Most cells are far from the
    /// critical window; the metastable ones sit near zero margin.
    fn trcd_bias(&self, hash: u64, depth: f64) -> f64 {
        self.params.trcd_margin_spread * hash_to_std_normal(hash) / depth
    }

    /// The classify-first scanner of reduced-tRCD reads at `trcd_fraction`
    /// (see the module docs): its set-up costs a few hundred evaluations
    /// of the probability chain, so build it once per fraction and reuse
    /// it across rows.
    pub fn trcd_classifier(&self, trcd_fraction: f64) -> TrcdClassifier<'_> {
        TrcdClassifier::new(self, trcd_fraction)
    }

    /// Shannon entropy harvested from one cell under a reduced-tRCD read.
    pub fn trcd_cell_entropy(&self, row: RowAddr, bitline: usize, trcd_fraction: f64) -> f64 {
        binary_entropy_bits(self.trcd_read_one_probability(row, bitline, trcd_fraction))
    }

    /// Entropy of one cache block under reduced-tRCD reads (sum over its 512
    /// cells), the quantity characterised for D-RaNGe-Enhanced.
    pub fn trcd_cache_block_entropy(
        &self,
        row: RowAddr,
        cache_block: usize,
        trcd_fraction: f64,
    ) -> f64 {
        let start = cache_block * CACHE_BLOCK_BITS;
        (start..start + CACHE_BLOCK_BITS)
            .map(|b| self.trcd_cell_entropy(row, b, trcd_fraction))
            .sum()
    }

    /// Number of high-entropy "TRNG cells" (entropy above 0.9 bits) in a
    /// cache block under reduced-tRCD reads — D-RaNGe-Basic observes up to
    /// four such cells per block.
    pub fn trcd_rng_cells_in_block(
        &self,
        row: RowAddr,
        cache_block: usize,
        trcd_fraction: f64,
    ) -> usize {
        let start = cache_block * CACHE_BLOCK_BITS;
        (start..start + CACHE_BLOCK_BITS)
            .filter(|&b| self.trcd_cell_entropy(row, b, trcd_fraction) > 0.9)
            .count()
    }

    /// Probability that a cell flips when its row is activated with tRP
    /// reduced to `trp_fraction` of nominal (Talukder+'s mechanism).
    pub fn trp_flip_probability(&self, row: RowAddr, bitline: usize, trp_fraction: f64) -> f64 {
        if trp_fraction >= 1.0 {
            return 0.0;
        }
        let margin = self.params.trp_margin_spread
            * normal_at(self.variation.seed() ^ tag::TRP, row.index() as u64, bitline as u64, 0);
        let depth =
            (self.params.trp_critical_fraction - trp_fraction) / self.params.trp_critical_fraction;
        if depth <= 0.0 {
            return 0.0;
        }
        std_normal_cdf(margin / depth.max(1e-3))
    }

    /// Entropy of a whole row under reduced-tRP activation, with optional
    /// bitline striding for fast sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `bitline_stride` is zero.
    pub fn trp_row_entropy(&self, row: RowAddr, trp_fraction: f64, bitline_stride: usize) -> f64 {
        assert!(bitline_stride > 0, "bitline_stride must be non-zero");
        let row_bits = self.variation.row_bits();
        let mut sum = 0.0;
        let mut count = 0;
        let mut b = 0;
        while b < row_bits {
            sum += binary_entropy_bits(self.trp_flip_probability(row, b, trp_fraction));
            count += 1;
            b += bitline_stride;
        }
        sum * row_bits as f64 / count as f64
    }
}

/// One past the largest unit-interval mantissa `hash >> 11` (see
/// [`crate::math::hash_to_unit`]).
const MANTISSA_END: u64 = 1 << 53;

/// The smallest mantissa in `from..MANTISSA_END` satisfying a predicate
/// that is monotone over that range, or `MANTISSA_END` if none does.
fn first_mantissa(from: u64, pred: impl Fn(u64) -> bool) -> u64 {
    let (mut lo, mut hi) = (from, MANTISSA_END);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Exact classify-first scanner of reduced-tRCD reads at one tRCD
/// fraction, built by [`FailureModel::trcd_classifier`]. Every result is
/// bit-identical to evaluating [`FailureModel::trcd_read_one_probability`]
/// cell by cell; the module docs give the argument.
#[derive(Debug, Clone, Copy)]
pub struct TrcdClassifier<'a> {
    model: &'a FailureModel,
    /// `None` when the fraction is too mild to matter (every cell reads 0).
    depth: Option<f64>,
    /// Mantissa bounds `[zero_end, interior_start, interior_end, one_start]`:
    /// below `zero_end` a cell always reads 0, in
    /// `interior_start..interior_end` it is metastable, from `one_start` on
    /// it always reads 1, and in between the exact chain decides.
    bounds: [u64; 4],
}

impl<'a> TrcdClassifier<'a> {
    fn new(model: &'a FailureModel, trcd_fraction: f64) -> Self {
        let depth = model.trcd_depth(trcd_fraction);
        let spread = model.params.trcd_margin_spread;
        let bounds = match depth {
            None => [MANTISSA_END; 4],
            // No monotone map from mantissa to bias: the exact chain
            // decides every cell.
            Some(_) if !(spread > 0.0 && spread.is_finite()) => [0, 0, 0, MANTISSA_END],
            Some(depth) => {
                let bias = |m: u64| model.trcd_bias(m << 11, depth);
                let zero_end = first_mantissa(0, |m| bias(m) > -ENTROPY_SATURATION_Z);
                let interior_start = first_mantissa(zero_end, |m| bias(m) >= -CDF_INTERIOR_Z);
                let interior_end = first_mantissa(interior_start, |m| bias(m) > CDF_INTERIOR_Z);
                let one_start = first_mantissa(interior_end, |m| bias(m) >= ENTROPY_SATURATION_Z);
                [zero_end, interior_start, interior_end, one_start]
            }
        };
        TrcdClassifier { model, depth, bounds }
    }

    /// Number of metastable cells among `bitlines` of `row` — the
    /// row-selection score of the D-RaNGe generator.
    pub fn metastable_count(&self, row: RowAddr, bitlines: Range<usize>) -> usize {
        let hasher = self.model.trcd_hasher(row);
        let mut count = 0;
        for bitline in bitlines {
            let hash = hasher.hash(bitline as u64, 0);
            let (metastable, edge) = self.zone(hash);
            count += usize::from(metastable);
            if edge {
                count += usize::from(self.chain_is_metastable(hash));
            }
        }
        count
    }

    /// The read-one probabilities of `bitlines` of `row`, bit-identical to
    /// [`FailureModel::trcd_read_one_probability`]: the chain runs for
    /// metastable and band cells only; the rest read exactly 0.0 or 1.0.
    pub fn row_probabilities(&self, row: RowAddr, bitlines: Range<usize>) -> Vec<f64> {
        let hasher = self.model.trcd_hasher(row);
        bitlines
            .map(|bitline| {
                let hash = hasher.hash(bitline as u64, 0);
                match self.zone(hash) {
                    (false, false) => f64::from(u8::from(self.always_one(hash))),
                    _ => self.probability(hash),
                }
            })
            .collect()
    }

    /// Shannon entropy of `bitlines` of `row` (sum over the cells in
    /// ascending order), bit-identical to summing
    /// [`FailureModel::trcd_cell_entropy`] over a non-empty range: a cell
    /// outside the metastable zone and the bands has entropy exactly 0,
    /// so it is skipped.
    pub fn entropy(&self, row: RowAddr, bitlines: Range<usize>) -> f64 {
        let hasher = self.model.trcd_hasher(row);
        let mut sum = 0.0;
        for bitline in bitlines {
            let hash = hasher.hash(bitline as u64, 0);
            if self.zone(hash) != (false, false) {
                sum += binary_entropy_bits(self.probability(hash));
            }
        }
        sum
    }

    /// The kernel: the zone of the cell with tRCD hash `hash`, as
    /// `(metastable, edge)` — `metastable` if the cell is certainly
    /// metastable, `edge` if it lies in a band where the exact chain must
    /// decide. A cell in neither always reads the same value, 1 if
    /// [`TrcdClassifier::always_one`]. Integer range checks on the
    /// mantissa, no branch.
    #[inline]
    fn zone(&self, hash: u64) -> (bool, bool) {
        let [zero_end, interior_start, interior_end, one_start] = self.bounds;
        let m = hash >> 11;
        let metastable = m.wrapping_sub(interior_start) < interior_end - interior_start;
        // Each band is its own range check: deriving the bands from the
        // metastable zone lets the compiler branch on it, which costs
        // twice the scan on this unpredictable ~40% split.
        let edge = (m.wrapping_sub(zero_end) < interior_start - zero_end)
            | (m.wrapping_sub(interior_end) < one_start - interior_end);
        (metastable, edge)
    }

    /// Whether a cell outside the metastable zone and the bands always
    /// reads 1 (else it always reads 0).
    #[inline]
    fn always_one(&self, hash: u64) -> bool {
        hash >> 11 >= self.bounds[3]
    }

    /// The exact class of a band cell.
    fn chain_is_metastable(&self, hash: u64) -> bool {
        !BitThreshold::quantize(self.probability(hash)).is_deterministic()
    }

    /// The exact chain for the cell with tRCD hash `hash`.
    fn probability(&self, hash: u64) -> f64 {
        self.depth.map_or(0.0, |depth| std_normal_cdf(self.model.trcd_bias(hash, depth)))
    }
}

/// Retention-failure model (D-PUF and Keller+ baselines).
#[derive(Debug, Clone)]
pub struct RetentionModel {
    variation: ModuleVariation,
    params: FailureParams,
}

impl RetentionModel {
    /// Creates a retention model for a module.
    pub fn new(variation: ModuleVariation) -> Self {
        RetentionModel { variation, params: FailureParams::calibrated() }
    }

    /// The retention time of a cell at the given temperature, in seconds.
    /// Retention times are log-normally distributed and halve every
    /// ~10 °C, consistent with the DRAM retention literature the paper cites.
    pub fn retention_time_s(&self, row: RowAddr, bitline: usize, temperature_c: f64) -> f64 {
        let n = normal_at(
            self.variation.seed() ^ tag::RETENTION,
            row.index() as u64,
            bitline as u64,
            0,
        );
        let base = self.params.retention_median_s * (self.params.retention_log_sigma * n).exp();
        base * 0.5f64.powf((temperature_c - 50.0) / self.params.retention_halving_c)
    }

    /// Probability that a cell has failed after refresh is paused for
    /// `pause_s` seconds (1 if its retention time is exceeded, with a small
    /// probabilistic transition band).
    pub fn failure_probability(
        &self,
        row: RowAddr,
        bitline: usize,
        pause_s: f64,
        temperature_c: f64,
    ) -> f64 {
        let t_ret = self.retention_time_s(row, bitline, temperature_c);
        if pause_s <= 0.0 {
            return 0.0;
        }
        // Smooth transition around the retention threshold.
        std_normal_cdf((pause_s / t_ret).ln() / 0.25)
    }

    /// Expected number of failed cells in a region of `region_bits` cells
    /// after a `pause_s`-second refresh pause, using a sampled estimate over
    /// `sample` cells of the first row of the region.
    pub fn expected_failures(
        &self,
        base_row: RowAddr,
        region_bits: usize,
        pause_s: f64,
        temperature_c: f64,
        sample: usize,
    ) -> f64 {
        let sample = sample.max(1).min(region_bits.max(1));
        let mut sum = 0.0;
        for i in 0..sample {
            let bitline = i * self.variation.row_bits().max(1) / sample % self.variation.row_bits().max(1);
            sum += self.failure_probability(base_row, bitline, pause_s, temperature_c);
        }
        sum / sample as f64 * region_bits as f64
    }

    /// Fraction of uniformly random variation cells that fail within the
    /// pause window; the entropy source rate of retention-based TRNGs.
    pub fn failure_fraction(&self, pause_s: f64, temperature_c: f64, sample: usize) -> f64 {
        let sample = sample.max(1);
        let mut sum = 0.0;
        for i in 0..sample {
            let row = RowAddr::new(i * 37 % 4096);
            let bitline = uniform_at(self.variation.seed() ^ 0x99, i as u64, 1, 2);
            let bitline = (bitline * self.variation.row_bits() as f64) as usize;
            sum += self.failure_probability(row, bitline, pause_s, temperature_c);
        }
        sum / sample as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qt_dram_core::DramGeometry;

    fn variation() -> ModuleVariation {
        ModuleVariation::generate(&DramGeometry::ddr4_4gb_x8_module(), 77)
    }

    fn quantized_metastable(p: f64) -> bool {
        !BitThreshold::quantize(p).is_deterministic()
    }

    /// Checks every classify-first answer on `bitlines` of `row` against
    /// the cell-by-cell chain.
    fn assert_classifier_exact(m: &FailureModel, row: RowAddr, bitlines: Range<usize>, f: f64) {
        let classifier = m.trcd_classifier(f);
        let exact: Vec<f64> =
            bitlines.clone().map(|b| m.trcd_read_one_probability(row, b, f)).collect();
        for (b, &p) in bitlines.clone().zip(&exact) {
            let metastable = classifier.metastable_count(row, b..b + 1) == 1;
            assert_eq!(metastable, quantized_metastable(p), "bitline {b}");
        }
        let count = exact.iter().filter(|&&p| quantized_metastable(p)).count();
        assert_eq!(classifier.metastable_count(row, bitlines.clone()), count);
        let probs = classifier.row_probabilities(row, bitlines.clone());
        let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&probs), bits(&exact));
        let entropy: f64 = bitlines.clone().map(|b| m.trcd_cell_entropy(row, b, f)).sum();
        assert_eq!(classifier.entropy(row, bitlines).to_bits(), entropy.to_bits());
    }

    #[test]
    fn trcd_classifier_is_exact_at_the_generator_operating_point() {
        let m = FailureModel::new(variation());
        for row in [0, 512, 7_680] {
            assert_classifier_exact(&m, RowAddr::new(row), 0..4096, 0.3);
        }
        // Ranges that start past bitline 0, down to a single cell.
        assert_classifier_exact(&m, RowAddr::new(9), 37..1000, 0.3);
        assert_classifier_exact(&m, RowAddr::new(9), 5..6, 0.3);
    }

    #[test]
    fn trcd_classifier_handles_degenerate_parameters() {
        for spread in [7.5, 0.0, -7.5, 1e-3, 1e6, f64::MAX] {
            let params = FailureParams { trcd_margin_spread: spread, ..FailureParams::calibrated() };
            let m = FailureModel::with_params(variation(), params);
            for f in [0.3, 0.0, -0.5, 0.549, 0.55, 0.6, 1.0, 1.5] {
                assert_classifier_exact(&m, RowAddr::new(3), 0..300, f);
            }
        }
    }

    #[test]
    fn trcd_classifier_runs_the_chain_everywhere_without_a_monotone_map() {
        // A non-finite spread puts every cell in the band (and makes the
        // chain return NaN for some, which the bit comparison covers).
        for spread in [f64::NAN, f64::INFINITY, -0.0] {
            let params = FailureParams { trcd_margin_spread: spread, ..FailureParams::calibrated() };
            let m = FailureModel::with_params(variation(), params);
            assert_eq!(m.trcd_classifier(0.3).bounds, [0, 0, 0, MANTISSA_END]);
            assert_classifier_exact(&m, RowAddr::new(3), 0..300, 0.3);
        }
    }

    #[test]
    fn trcd_classifier_band_is_thin_at_the_generator_operating_point() {
        // About 3% of the mantissa range needs the exact chain at 0.3.
        let m = FailureModel::new(variation());
        let [zero_end, interior_start, interior_end, one_start] = m.trcd_classifier(0.3).bounds;
        assert!(zero_end < interior_start && interior_start < interior_end);
        assert!(interior_end < one_start && one_start < MANTISSA_END);
        let band = (interior_start - zero_end) + (one_start - interior_end);
        let share = band as f64 / MANTISSA_END as f64;
        assert!(share > 0.01 && share < 0.05, "band share {share}");
    }

    proptest! {
        /// The per-cell class equals the quantized exact probability on
        /// random modules, rows, cells and fractions below the critical
        /// one; counts, probabilities and entropies agree to the bit.
        #[test]
        fn prop_trcd_classifier_matches_the_exact_chain(
            seed in any::<u64>(),
            row in 0usize..32_768,
            start in 0usize..65_000,
            f in 0.0f64..0.55,
        ) {
            prop_assume!(f > 0.0);
            let m = FailureModel::new(ModuleVariation::generate(&DramGeometry::tiny_test(), seed));
            assert_classifier_exact(&m, RowAddr::new(row), start..start + 130, f);
        }

        /// Pinned cases on both sides of each mantissa bound: the two
        /// mantissas below and above every bound, with random low hash
        /// bits, classify as the exact chain does.
        #[test]
        fn prop_trcd_classifier_is_exact_around_every_bound(
            seed in any::<u64>(),
            f in 0.0f64..0.55,
            low in any::<u64>(),
        ) {
            prop_assume!(f > 0.0);
            let m = FailureModel::new(ModuleVariation::generate(&DramGeometry::tiny_test(), seed));
            let classifier = m.trcd_classifier(f);
            let depth = m.trcd_depth(f).expect("below the critical fraction");
            for bound in classifier.bounds {
                for mantissa in bound.saturating_sub(2)..(bound + 2).min(MANTISSA_END) {
                    let hash = (mantissa << 11) | (low & 0x7ff);
                    let class = BitThreshold::quantize(std_normal_cdf(m.trcd_bias(hash, depth)));
                    let (metastable, edge) = classifier.zone(hash);
                    let metastable = metastable || edge && classifier.chain_is_metastable(hash);
                    prop_assert_eq!(metastable, !class.is_deterministic());
                    if !metastable && !edge {
                        let one = class == BitThreshold::AlwaysOne;
                        prop_assert_eq!(classifier.always_one(hash), one);
                    }
                }
            }
        }
    }

    #[test]
    fn nominal_timing_produces_no_trcd_failures() {
        let m = FailureModel::new(variation());
        for b in 0..256 {
            let e = m.trcd_cell_entropy(RowAddr::new(10), b, 1.0);
            assert!(e < 1e-6, "bitline {b}: entropy {e}");
        }
    }

    #[test]
    fn reduced_trcd_produces_a_few_rng_cells_per_block() {
        let m = FailureModel::new(variation());
        let mut total_cells = 0usize;
        let mut total_entropy = 0.0;
        let blocks = 32;
        for cb in 0..blocks {
            total_cells += m.trcd_rng_cells_in_block(RowAddr::new(100), cb, 0.3);
            total_entropy += m.trcd_cache_block_entropy(RowAddr::new(100), cb, 0.3);
        }
        let avg_cells = total_cells as f64 / blocks as f64;
        let avg_entropy = total_entropy / blocks as f64;
        // D-RaNGe: a handful of TRNG cells per block; tens of bits of entropy
        // per block when post-processed.
        assert!(avg_cells > 0.5 && avg_cells < 40.0, "avg RNG cells {avg_cells}");
        assert!(avg_entropy > 10.0 && avg_entropy < 120.0, "avg block entropy {avg_entropy}");
    }

    #[test]
    fn trcd_entropy_grows_as_timing_shrinks() {
        let m = FailureModel::new(variation());
        let e_mild = m.trcd_cache_block_entropy(RowAddr::new(5), 3, 0.5);
        let e_severe = m.trcd_cache_block_entropy(RowAddr::new(5), 3, 0.2);
        assert!(e_severe >= e_mild);
    }

    #[test]
    fn trp_row_entropy_is_around_a_thousand_bits() {
        let m = FailureModel::new(variation());
        let e = m.trp_row_entropy(RowAddr::new(1000), 0.2, 16);
        // Talukder+-Enhanced harnesses ≈ 1024 bits from a high-entropy row.
        assert!(e > 300.0 && e < 3000.0, "row entropy {e}");
    }

    #[test]
    fn trp_nominal_timing_is_safe() {
        let m = FailureModel::new(variation());
        assert!(m.trp_row_entropy(RowAddr::new(0), 1.0, 64) < 1.0);
    }

    #[test]
    fn retention_failures_accumulate_slowly() {
        let m = RetentionModel::new(variation());
        let frac_1s = m.failure_fraction(1.0, 50.0, 2000);
        let frac_40s = m.failure_fraction(40.0, 50.0, 2000);
        let frac_320s = m.failure_fraction(320.0, 50.0, 2000);
        assert!(frac_1s < frac_40s);
        assert!(frac_40s < frac_320s);
        // Retention failures are rare at these pause times (the reason these
        // TRNGs are slow): well below 1% at 40 s.
        assert!(frac_40s < 0.01, "40 s failure fraction {frac_40s}");
        assert!(frac_40s > 0.0);
    }

    #[test]
    fn retention_time_shrinks_with_temperature() {
        let m = RetentionModel::new(variation());
        let cold = m.retention_time_s(RowAddr::new(3), 17, 50.0);
        let hot = m.retention_time_s(RowAddr::new(3), 17, 85.0);
        assert!(hot < cold);
        assert!((cold / hot - 2f64.powf(35.0 / 10.0)).abs() / (cold / hot) < 0.01);
    }

    #[test]
    fn expected_failures_scales_with_region_size() {
        let m = RetentionModel::new(variation());
        let small = m.expected_failures(RowAddr::new(0), 1 << 20, 40.0, 50.0, 500);
        let large = m.expected_failures(RowAddr::new(0), 1 << 22, 40.0, 50.0, 500);
        assert!((large / small - 4.0).abs() < 0.5);
    }
}
