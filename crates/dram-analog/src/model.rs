//! The QUAC metastability model: per-bitline probabilities, entropies, and
//! sampled entropy estimates for one DRAM module.

use crate::conditions::OperatingConditions;
use crate::math::{entropy_of_normal_bias, std_normal_cdf};
use crate::sampler::BitThreshold;
use crate::variation::ModuleVariation;
use qt_dram_core::{DataPattern, DramGeometry, Segment, SubarrayAddr, CACHE_BLOCK_BITS};
use rand::Rng;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Bumped whenever the physics changes — the bias/noise formulas, the
/// entropy evaluation path, or the meaning of any [`crate::AnalogParams`]
/// field — so persistent characterisation stores keyed on
/// [`QuacAnalogModel::physics_fingerprint`] invalidate stale entries.
pub const ANALOG_MODEL_VERSION: u32 = 2;

/// Cache key for per-bitline static offsets: `(segment, stride, age bits)`.
/// Temperature and data pattern do not enter — they shift the noise scale and
/// the bias respectively, not the per-device offsets.
type OffsetKey = (usize, usize, u64);

/// Bounded store of per-bitline static-offset grids. Characterisation sweeps
/// revisit the same `(segment, stride)` grid once per data pattern (Figure 8
/// evaluates 8 patterns) and once per temperature point (Figure 14 evaluates
/// 3), so caching the offsets — the only per-bitline random quantities —
/// removes the dominant hashing + inverse-CDF cost from every revisit.
#[derive(Debug, Default)]
struct OffsetCacheInner {
    map: HashMap<OffsetKey, Arc<Vec<f64>>>,
    order: VecDeque<OffsetKey>,
}

/// Number of offset grids kept alive. Scales with the machine's parallelism
/// so thread-sharded sweeps (one segment in flight per worker) don't evict
/// each other's grids mid-walk; a full-row stride-1 grid of the paper's
/// 65 536-bit rows is 512 KiB, so even 2× a large core count stays modest.
fn offset_cache_cap() -> usize {
    std::thread::available_parallelism().map(|n| n.get() * 2).unwrap_or(8).max(8)
}

/// Electrical model of QUAC operations on one DRAM module.
///
/// The model answers one question: *given that all four rows of `segment`
/// were initialised with `pattern` and a QUAC operation was performed under
/// `conditions`, what is the probability that the sense amplifier on
/// `bitline` resolves to logic-1?* Everything else (entropies, sampled
/// bitstreams, characterisation maps) derives from that probability.
///
/// All probability and entropy queries funnel through [`SegmentProber`], the
/// single canonical computation, so bit-sliced sampling, strided entropy
/// sweeps, and one-off queries can never disagree on the physics.
#[derive(Debug, Clone)]
pub struct QuacAnalogModel {
    geom: DramGeometry,
    variation: ModuleVariation,
    offsets: Arc<Mutex<OffsetCacheInner>>,
}

impl QuacAnalogModel {
    /// Creates a model for a module with the given geometry and variation
    /// profile.
    pub fn new(geom: DramGeometry, variation: ModuleVariation) -> Self {
        QuacAnalogModel { geom, variation, offsets: Arc::default() }
    }

    /// The module geometry.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geom
    }

    /// The module's process-variation profile.
    pub fn variation(&self) -> &ModuleVariation {
        &self.variation
    }

    /// A fingerprint of everything that determines this model's *physics*
    /// beyond the module identity: the calibration parameters, the module
    /// entropy scale, and [`ANALOG_MODEL_VERSION`]. Two models with equal
    /// fingerprints (and equal variation seed + geometry) produce identical
    /// probabilities and entropies, so persistent characterisation stores
    /// fold this into their keys to never serve results computed under a
    /// different calibration or model revision.
    pub fn physics_fingerprint(&self) -> u64 {
        let repr = format!(
            "v{ANALOG_MODEL_VERSION}|{:?}|scale={:?}",
            self.variation.params(),
            self.variation.entropy_scale(),
        );
        // FNV-1a over the debug representation: stable, dependency-free.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for byte in repr.bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// The signed charge-sharing imbalance of a pattern on a segment, in
    /// units of one "late row" charge contribution: the first-activated row
    /// contributes `first_row_weight(segment)`, the other three contribute
    /// 1.0 each, with the sign given by the stored data (Section 5.1).
    pub fn pattern_imbalance(&self, segment: Segment, pattern: DataPattern) -> f64 {
        let w0 = self.variation.first_row_weight(segment);
        let fills = pattern.fills();
        let mut d = w0 * fills[0].charge_sign();
        for fill in &fills[1..] {
            d += fill.charge_sign();
        }
        // Design-induced variation: some segments keep the bitline metastable
        // even under imbalanced patterns (Section 6.1.3).
        if let Some(attenuation) = self.variation.favored_attenuation(segment, pattern) {
            d *= attenuation;
        }
        d
    }

    /// The deterministic bias of a bitline (pattern imbalance converted to a
    /// voltage plus sense-amplifier offset, cell offset and aging drift), in
    /// noise-sigma units at nominal conditions.
    pub fn bitline_bias(
        &self,
        segment: Segment,
        bitline: usize,
        pattern: DataPattern,
        conditions: OperatingConditions,
    ) -> f64 {
        let params = self.variation.params();
        let subarray = self.variation.subarray_of_segment(segment);
        let pattern_term = self.pattern_imbalance(segment, pattern) * params.share_voltage;
        pattern_term
            + self.variation.sa_offset(subarray, bitline)
            + self.variation.cell_offset(segment, bitline)
            + self.variation.aging_drift(segment, bitline, conditions.age_days)
    }

    /// The effective thermal-noise scale for a bitline of a segment under the
    /// given conditions (favored segments get an additional boost).
    pub fn noise_scale(
        &self,
        segment: Segment,
        bitline: usize,
        pattern: DataPattern,
        conditions: OperatingConditions,
    ) -> f64 {
        let mut scale = self.variation.noise_scale(segment, bitline, conditions.temperature_c);
        if self.variation.favored_attenuation(segment, pattern).is_some() {
            scale *= self.variation.params().favored_noise_boost;
        }
        scale
    }

    /// Builds the hoisted per-segment probe for `(segment, pattern,
    /// conditions)`: every segment-level quantity (pattern imbalance, spatial
    /// noise factor, favored-pattern attenuation) is computed once, and
    /// per-bitline queries touch only the per-device offsets and the
    /// entropy/CDF evaluation. All probability and entropy APIs of this model
    /// delegate here.
    pub fn prober(
        &self,
        segment: Segment,
        pattern: DataPattern,
        conditions: OperatingConditions,
    ) -> SegmentProber<'_> {
        let params = self.variation.params();
        let pattern_term = self.pattern_imbalance(segment, pattern) * params.share_voltage;
        let boost = if self.variation.favored_attenuation(segment, pattern).is_some() {
            params.favored_noise_boost
        } else {
            1.0
        };
        SegmentProber {
            model: self,
            segment,
            conditions,
            subarray: self.variation.subarray_of_segment(segment),
            pattern_term,
            noise_seg: self.variation.entropy_scale()
                * self.variation.segment_noise_factor(segment),
            boost,
            blocks: self.geom.cache_blocks_per_row(),
        }
    }

    /// The per-device static offset of one bitline (sense-amplifier offset +
    /// cell offset + aging drift) — everything in the bias that does not
    /// depend on the stored data pattern or the temperature.
    fn static_offset(
        &self,
        segment: Segment,
        subarray: SubarrayAddr,
        bitline: usize,
        age_days: f64,
    ) -> f64 {
        self.variation.sa_offset(subarray, bitline)
            + self.variation.cell_offset(segment, bitline)
            + self.variation.aging_drift(segment, bitline, age_days)
    }

    /// Cached static offsets of a segment on the grid `0, stride, 2·stride…`
    /// (up to `row_bits`). The grid is the only per-bitline randomness, so
    /// pattern and temperature sweeps over the same segment reuse it.
    fn static_offsets(&self, segment: Segment, stride: usize, age_days: f64) -> Arc<Vec<f64>> {
        let key: OffsetKey = (segment.index(), stride, age_days.to_bits());
        if let Some(grid) = self.offsets.lock().expect("offset cache poisoned").map.get(&key) {
            return Arc::clone(grid);
        }
        // Compute outside the lock so concurrent workers filling *different*
        // segments never serialise; a rare double-compute of the same grid
        // yields bit-identical values, and the first insertion wins.
        let grid: Arc<Vec<f64>> = Arc::new(self.static_offset_grid(segment, stride, age_days));
        let mut cache = self.offsets.lock().expect("offset cache poisoned");
        if let Some(existing) = cache.map.get(&key) {
            return Arc::clone(existing);
        }
        cache.map.insert(key, Arc::clone(&grid));
        cache.order.push_back(key);
        let cap = offset_cache_cap();
        while cache.order.len() > cap {
            if let Some(old) = cache.order.pop_front() {
                cache.map.remove(&old);
            }
        }
        grid
    }

    /// The per-device static offsets of a segment on the grid `0, stride,
    /// 2·stride…` (up to `row_bits`), computed directly — no shared-cache
    /// lock or `Arc` bookkeeping. Sweeps that visit one segment under
    /// several data patterns (the offsets depend on neither pattern nor
    /// temperature) compute this once and pass it to
    /// [`SegmentProber::cache_block_entropy_sums_with_grid`], which is what
    /// makes the Figure 8 pattern sweep one grid derivation per segment
    /// instead of one per `(pattern, segment)` probe.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn static_offset_grid(&self, segment: Segment, stride: usize, age_days: f64) -> Vec<f64> {
        assert!(stride > 0, "bitline stride must be non-zero");
        let subarray = self.variation.subarray_of_segment(segment);
        let prober = self.variation.offset_prober(segment, subarray, age_days);
        (0..self.geom.row_bits).step_by(stride).map(|b| prober.static_offset(b)).collect()
    }

    /// Probability that the sense amplifier on `bitline` resolves to logic-1
    /// after a QUAC operation on `segment` initialised with `pattern`.
    pub fn one_probability(
        &self,
        segment: Segment,
        bitline: usize,
        pattern: DataPattern,
        conditions: OperatingConditions,
    ) -> f64 {
        self.prober(segment, pattern, conditions).one_probability(bitline)
    }

    /// Shannon entropy of one bitline (Equation 1).
    pub fn bitline_entropy(
        &self,
        segment: Segment,
        bitline: usize,
        pattern: DataPattern,
        conditions: OperatingConditions,
    ) -> f64 {
        self.prober(segment, pattern, conditions).bitline_entropy(bitline)
    }

    /// Probabilities of logic-1 for every bitline of a segment row, in
    /// bitline order.
    pub fn bitline_probabilities(
        &self,
        segment: Segment,
        pattern: DataPattern,
        conditions: OperatingConditions,
    ) -> Vec<f64> {
        self.prober(segment, pattern, conditions).probabilities()
    }

    /// Entropy of one cache block: the sum of its 512 bitline entropies
    /// (Section 6.1.3).
    pub fn cache_block_entropy(
        &self,
        segment: Segment,
        cache_block: usize,
        pattern: DataPattern,
        conditions: OperatingConditions,
    ) -> f64 {
        let start = cache_block * CACHE_BLOCK_BITS;
        self.prober(segment, pattern, conditions)
            .entropy_sum_strided(start, start + CACHE_BLOCK_BITS, 1)
            .0
    }

    /// Entropy of every cache block of a segment, in cache-block order.
    pub fn cache_block_entropies(
        &self,
        segment: Segment,
        pattern: DataPattern,
        conditions: OperatingConditions,
    ) -> Vec<f64> {
        self.prober(segment, pattern, conditions)
            .cache_block_entropy_sums(1)
            .into_iter()
            .map(|(sum, _)| sum)
            .collect()
    }

    /// Entropy of a whole segment: the sum of all bitline entropies
    /// (Section 6.1.4). `bitline_stride` samples every n-th bitline and
    /// scales the result, trading accuracy for speed during large
    /// characterisation sweeps; use 1 for the exact value.
    ///
    /// # Panics
    ///
    /// Panics if `bitline_stride` is zero.
    pub fn segment_entropy(
        &self,
        segment: Segment,
        pattern: DataPattern,
        conditions: OperatingConditions,
        bitline_stride: usize,
    ) -> f64 {
        assert!(bitline_stride > 0, "bitline_stride must be non-zero");
        let (sum, count) = self
            .prober(segment, pattern, conditions)
            .entropy_sum_strided(0, self.geom.row_bits, bitline_stride);
        sum * self.geom.row_bits as f64 / count as f64
    }

    /// Entropy contributed by the bitlines owned by one chip of the module
    /// (used by the per-chip temperature study of Figure 14).
    pub fn chip_segment_entropy(
        &self,
        segment: Segment,
        chip: usize,
        pattern: DataPattern,
        conditions: OperatingConditions,
        bitline_stride: usize,
    ) -> f64 {
        assert!(bitline_stride > 0, "bitline_stride must be non-zero");
        let per_chip = self.geom.row_bits / self.variation.chip_count();
        let start = chip * per_chip;
        let (sum, count) = self
            .prober(segment, pattern, conditions)
            .entropy_sum_strided(start, start + per_chip, bitline_stride);
        sum * per_chip as f64 / count as f64
    }

    /// Estimates a bitline's entropy the way the paper does (Section 6.1.2):
    /// repeat the QUAC operation `trials` times, record the sense-amplifier
    /// value each time, and compute the entropy of the resulting bitstream.
    pub fn estimate_bitline_entropy_sampled<R: Rng + ?Sized>(
        &self,
        segment: Segment,
        bitline: usize,
        pattern: DataPattern,
        conditions: OperatingConditions,
        trials: usize,
        rng: &mut R,
    ) -> f64 {
        let threshold =
            BitThreshold::quantize(self.one_probability(segment, bitline, pattern, conditions));
        let ones = (0..trials).filter(|_| threshold.sample(rng)).count();
        crate::entropy::entropy_from_counts((trials - ones) as u64, ones as u64)
    }
}

/// A per-segment probe with every segment-level quantity hoisted out of the
/// per-bitline loop — the canonical (and only) evaluation path for QUAC
/// probabilities and entropies. Create one per `(segment, pattern,
/// conditions)` and query it for as many bitlines as needed.
#[derive(Debug, Clone)]
pub struct SegmentProber<'a> {
    model: &'a QuacAnalogModel,
    segment: Segment,
    conditions: OperatingConditions,
    subarray: SubarrayAddr,
    /// Pattern imbalance converted to a voltage (shared by all bitlines).
    pattern_term: f64,
    /// Module entropy scale × spatial segment noise factor.
    noise_seg: f64,
    /// Favored-pattern noise boost (1.0 when the segment is not favored).
    boost: f64,
    /// Cache blocks per row, for the per-block position factor.
    blocks: usize,
}

impl SegmentProber<'_> {
    /// The segment this probe is bound to.
    pub fn segment(&self) -> Segment {
        self.segment
    }

    /// Normalised bias `z = bias / noise` of one bitline given its
    /// precomputed static offset.
    #[inline]
    fn z(&self, bitline: usize, static_offset: f64) -> f64 {
        (self.pattern_term + static_offset) / self.noise_at(bitline)
    }

    /// The effective noise scale of one bitline.
    #[inline]
    fn noise_at(&self, bitline: usize) -> f64 {
        let v = self.model.variation();
        let cb_factor = v.cb_position_factor(bitline / CACHE_BLOCK_BITS, self.blocks);
        let temp_factor =
            v.temperature_factor(v.chip_of_bitline(bitline), self.conditions.temperature_c);
        ((self.noise_seg * cb_factor) * temp_factor) * self.boost
    }

    /// Probability that `bitline` resolves to logic-1.
    pub fn one_probability(&self, bitline: usize) -> f64 {
        let offset = self.model.static_offset(
            self.segment,
            self.subarray,
            bitline,
            self.conditions.age_days,
        );
        std_normal_cdf(self.z(bitline, offset))
    }

    /// Shannon entropy of `bitline` in bits (Equation 1), through the fast
    /// interpolated entropy-of-bias path.
    pub fn bitline_entropy(&self, bitline: usize) -> f64 {
        let offset = self.model.static_offset(
            self.segment,
            self.subarray,
            bitline,
            self.conditions.age_days,
        );
        entropy_of_normal_bias(self.z(bitline, offset))
    }

    /// Sums the entropy of bitlines `start, start+stride, …` below `end`,
    /// returning `(sum, evaluated count)`. This is the characterisation hot
    /// loop: per-block and per-chip noise factors are recomputed only at
    /// block/chip boundaries, and static offsets come from the shared grid
    /// cache whenever the walk is aligned to it.
    pub fn entropy_sum_strided(&self, start: usize, end: usize, stride: usize) -> (f64, usize) {
        assert!(stride > 0, "bitline stride must be non-zero");
        let grid = (start % stride == 0).then(|| {
            self.model.static_offsets(self.segment, stride, self.conditions.age_days)
        });
        self.entropy_sum_with(grid.as_ref().map(|g| g.as_slice()), start, end, stride)
    }

    /// Sums the entropy of bitlines `start, start+stride, …` below `end`
    /// with the static offsets computed inline — no shared-cache lock, no
    /// grid allocation, one fused pass. Bit-identical to
    /// [`SegmentProber::entropy_sum_strided`] (same offset function, same
    /// fold order); this is the fastest path when the segment is visited
    /// exactly once, which is what the `characterize_module` sweep does.
    pub fn entropy_sum_fused(&self, start: usize, end: usize, stride: usize) -> (f64, usize) {
        assert!(stride > 0, "bitline stride must be non-zero");
        self.entropy_sum_with(None, start, end, stride)
    }

    /// The entropy of every cache block of the segment at the given bitline
    /// stride, as `(sum over sampled bitlines, sampled count)` per block —
    /// one grid fetch for the whole row, so sweeping all blocks (the
    /// pattern-sweep hot path) touches the shared offset cache once instead
    /// of once per block.
    pub fn cache_block_entropy_sums(&self, stride: usize) -> Vec<(f64, usize)> {
        assert!(stride > 0, "bitline stride must be non-zero");
        let grid = self.model.static_offsets(self.segment, stride, self.conditions.age_days);
        self.cache_block_entropy_sums_with_grid(grid.as_slice(), stride)
    }

    /// [`SegmentProber::cache_block_entropy_sums`] with a caller-provided
    /// offsets grid (from [`QuacAnalogModel::static_offset_grid`] for this
    /// probe's segment, `stride`, and age). Pattern sweeps that revisit one
    /// segment under several patterns share one grid across all of them —
    /// the offsets depend on neither pattern nor temperature.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or the grid does not cover the row at this
    /// stride.
    pub fn cache_block_entropy_sums_with_grid(
        &self,
        grid: &[f64],
        stride: usize,
    ) -> Vec<(f64, usize)> {
        assert!(stride > 0, "bitline stride must be non-zero");
        let row_bits = self.model.geometry().row_bits;
        assert!(
            grid.len() == row_bits.div_ceil(stride),
            "grid of {} offsets does not cover {row_bits} bitlines at stride {stride}",
            grid.len()
        );
        (0..self.blocks)
            .map(|cb| {
                let start = cb * CACHE_BLOCK_BITS;
                // The grid holds offsets at multiples of `stride`; a block
                // whose start is off-grid walks its own phase directly.
                let aligned = (start % stride == 0).then_some(grid);
                self.entropy_sum_with(aligned, start, start + CACHE_BLOCK_BITS, stride)
            })
            .collect()
    }

    /// The strided entropy walk with an optional pre-fetched offset grid.
    /// The walk advances in spans of constant noise (between cache-block and
    /// chip boundaries), so the inner loop is only the per-bitline offset
    /// (hoisted [`crate::variation::OffsetProber`] when no grid was given)
    /// and the entropy interpolation — bit-identical to the per-bitline
    /// recomputation it replaced (same values, same fold order).
    fn entropy_sum_with(
        &self,
        grid: Option<&[f64]>,
        start: usize,
        end: usize,
        stride: usize,
    ) -> (f64, usize) {
        let v = self.model.variation();
        let prober = match grid {
            Some(_) => None,
            None => {
                Some(v.offset_prober(self.segment, self.subarray, self.conditions.age_days))
            }
        };
        // chip_of_bitline's mapping, hoisted to span boundaries.
        let per_chip = (v.row_bits() / v.chip_count()).max(1);
        let mut sum = 0.0;
        let mut count = 0usize;
        let mut b = start;
        while b < end {
            let block = b / CACHE_BLOCK_BITS;
            let chip = v.chip_of_bitline(b);
            let cb_factor = v.cb_position_factor(block, self.blocks);
            let temp_factor = v.temperature_factor(chip, self.conditions.temperature_c);
            let noise = ((self.noise_seg * cb_factor) * temp_factor) * self.boost;
            let chip_end =
                if chip + 1 < v.chip_count() { (chip + 1) * per_chip } else { usize::MAX };
            let span_end = end.min((block + 1) * CACHE_BLOCK_BITS).min(chip_end);
            while b < span_end {
                let offset = match (&prober, grid) {
                    (Some(p), _) => p.static_offset(b),
                    (None, Some(g)) => g[b / stride],
                    (None, None) => unreachable!("either a grid or a prober exists"),
                };
                sum += entropy_of_normal_bias((self.pattern_term + offset) / noise);
                count += 1;
                b += stride;
            }
        }
        (sum, count)
    }

    /// Writes the one-probability of every bitline of the row into `out`
    /// (cleared first), reusing its allocation.
    pub fn probabilities_into(&self, out: &mut Vec<f64>) {
        let row_bits = self.model.geometry().row_bits;
        let grid = self.model.static_offsets(self.segment, 1, self.conditions.age_days);
        out.clear();
        out.reserve(row_bits);
        out.extend((0..row_bits).map(|b| std_normal_cdf(self.z(b, grid[b]))));
    }

    /// The one-probability of every bitline of the row, in bitline order.
    pub fn probabilities(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.probabilities_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::binary_entropy_bits;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> QuacAnalogModel {
        let geom = DramGeometry::tiny_test();
        let variation = ModuleVariation::generate(&geom, 2024);
        QuacAnalogModel::new(geom, variation)
    }

    fn nominal() -> OperatingConditions {
        OperatingConditions::nominal()
    }

    #[test]
    fn conflicting_pattern_beats_imbalanced_pattern() {
        let m = model();
        let best = DataPattern::best_average();
        let worst: DataPattern = "1011".parse().unwrap();
        let seg = Segment::new(3);
        let e_best = m.segment_entropy(seg, best, nominal(), 1);
        let e_worst = m.segment_entropy(seg, worst, nominal(), 1);
        assert!(
            e_best > 4.0 * e_worst,
            "best {e_best} should dominate worst {e_worst}"
        );
    }

    #[test]
    fn uniform_patterns_have_negligible_entropy() {
        let m = model();
        let seg = Segment::new(1);
        for p in ["0000", "1111"] {
            let pattern: DataPattern = p.parse().unwrap();
            let e = m.segment_entropy(seg, pattern, nominal(), 1);
            assert!(e < 1.0, "pattern {p} entropy {e}");
        }
    }

    #[test]
    fn pattern_imbalance_is_near_zero_for_best_patterns() {
        let m = model();
        let seg = Segment::new(0);
        let d_best = m.pattern_imbalance(seg, DataPattern::best_average()).abs();
        let d_comp = m.pattern_imbalance(seg, "1000".parse().unwrap()).abs();
        let d_bad = m.pattern_imbalance(seg, "1011".parse().unwrap()).abs();
        assert!(d_best < 1.0);
        assert!(d_comp < 1.0);
        assert!(d_bad > 3.0);
    }

    #[test]
    fn probabilities_are_valid_and_deterministic() {
        let m = model();
        let seg = Segment::new(2);
        let probs = m.bitline_probabilities(seg, DataPattern::best_average(), nominal());
        assert_eq!(probs.len(), m.geometry().row_bits);
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
        let probs2 = m.bitline_probabilities(seg, DataPattern::best_average(), nominal());
        assert_eq!(probs, probs2);
    }

    #[test]
    fn segment_entropy_equals_sum_of_cache_blocks() {
        let m = model();
        let seg = Segment::new(5);
        let pattern = DataPattern::best_average();
        let total = m.segment_entropy(seg, pattern, nominal(), 1);
        let by_blocks: f64 = m.cache_block_entropies(seg, pattern, nominal()).iter().sum();
        assert!((total - by_blocks).abs() < 1e-6);
    }

    #[test]
    fn strided_segment_entropy_approximates_exact() {
        let m = model();
        let seg = Segment::new(4);
        let pattern = DataPattern::best_average();
        let exact = m.segment_entropy(seg, pattern, nominal(), 1);
        let approx = m.segment_entropy(seg, pattern, nominal(), 4);
        // The strided estimate should be within ~40% of the exact value for
        // the tiny geometry (it converges much tighter for full-size rows).
        assert!((approx - exact).abs() / exact.max(1e-9) < 0.4, "exact {exact} approx {approx}");
    }

    #[test]
    fn sampled_estimate_matches_analytic_entropy_for_metastable_bitline() {
        let m = model();
        let seg = Segment::new(3);
        let pattern = DataPattern::best_average();
        // Find the most metastable bitline of this segment.
        let probs = m.bitline_probabilities(seg, pattern, nominal());
        let (best_bitline, p) = probs
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| (a.1 - 0.5).abs().partial_cmp(&(b.1 - 0.5).abs()).unwrap())
            .unwrap();
        let analytic = binary_entropy_bits(p);
        let mut rng = StdRng::seed_from_u64(9);
        let sampled =
            m.estimate_bitline_entropy_sampled(seg, best_bitline, pattern, nominal(), 1000, &mut rng);
        assert!((analytic - sampled).abs() < 0.15, "analytic {analytic} sampled {sampled}");
    }

    #[test]
    fn prober_agrees_with_single_bitline_queries() {
        // The prober is the canonical path; the convenience APIs and the
        // cached-grid sweep must agree with it exactly, bit for bit.
        let m = model();
        let seg = Segment::new(3);
        let pattern = DataPattern::best_average();
        let cond = OperatingConditions::at_temperature(63.0).aged(12.0);
        let prober = m.prober(seg, pattern, cond);
        let probs = m.bitline_probabilities(seg, pattern, cond);
        for b in (0..m.geometry().row_bits).step_by(17) {
            assert_eq!(prober.one_probability(b), probs[b], "bitline {b}");
            assert_eq!(
                prober.one_probability(b),
                m.one_probability(seg, b, pattern, cond),
                "bitline {b}"
            );
            assert_eq!(
                prober.bitline_entropy(b),
                m.bitline_entropy(seg, b, pattern, cond),
                "bitline {b}"
            );
        }
        // A strided walk equals the per-bitline sum exactly (same fold order,
        // cached offsets and fresh offsets agree bit for bit).
        let (sum, count) = prober.entropy_sum_strided(0, m.geometry().row_bits, 5);
        let by_hand: f64 =
            (0..m.geometry().row_bits).step_by(5).map(|b| prober.bitline_entropy(b)).sum();
        assert_eq!(sum, by_hand);
        assert_eq!(count, m.geometry().row_bits.div_ceil(5));
    }

    #[test]
    fn fused_and_grid_paths_are_bit_identical_to_the_cached_walk() {
        let m = model();
        let pattern = DataPattern::best_average();
        let cond = OperatingConditions::at_temperature(57.0).aged(3.0);
        for seg in [Segment::new(1), Segment::new(9)] {
            for stride in [1usize, 3, 16] {
                let prober = m.prober(seg, pattern, cond);
                let cached = prober.entropy_sum_strided(0, m.geometry().row_bits, stride);
                let fused = prober.entropy_sum_fused(0, m.geometry().row_bits, stride);
                assert_eq!(cached, fused, "segment {seg:?} stride {stride}");
                let grid = m.static_offset_grid(seg, stride, cond.age_days);
                assert_eq!(
                    prober.cache_block_entropy_sums(stride),
                    prober.cache_block_entropy_sums_with_grid(&grid, stride),
                    "segment {seg:?} stride {stride}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn short_grid_is_rejected() {
        let m = model();
        let prober = m.prober(Segment::new(0), DataPattern::best_average(), nominal());
        let _ = prober.cache_block_entropy_sums_with_grid(&[0.0; 3], 1);
    }

    #[test]
    fn offset_cache_is_transparent_across_clones() {
        let m = model();
        let seg = Segment::new(2);
        let pattern = DataPattern::best_average();
        // Clones share the cache; a fresh model recomputes — all identical.
        let warm = m.segment_entropy(seg, pattern, nominal(), 4);
        let via_clone = m.clone().segment_entropy(seg, pattern, nominal(), 4);
        let cold = model().segment_entropy(seg, pattern, nominal(), 4);
        assert_eq!(warm, via_clone);
        assert_eq!(warm, cold);
    }

    #[test]
    fn temperature_changes_entropy() {
        let m = model();
        let seg = Segment::new(7);
        let pattern = DataPattern::best_average();
        let e50 = m.segment_entropy(seg, pattern, OperatingConditions::at_temperature(50.0), 1);
        let e85 = m.segment_entropy(seg, pattern, OperatingConditions::at_temperature(85.0), 1);
        assert!((e50 - e85).abs() > 1e-6, "temperature should shift entropy");
    }

    #[test]
    fn aging_changes_entropy_slightly() {
        let m = model();
        let seg = Segment::new(6);
        let pattern = DataPattern::best_average();
        let fresh = m.segment_entropy(seg, pattern, nominal(), 1);
        let aged = m.segment_entropy(seg, pattern, nominal().aged(30.0), 1);
        let rel = (fresh - aged).abs() / fresh.max(1e-9);
        assert!(rel < 0.25, "aging drift should be small, got {rel}");
    }

    #[test]
    #[should_panic(expected = "bitline_stride")]
    fn zero_stride_panics() {
        let m = model();
        let _ = m.segment_entropy(Segment::new(0), DataPattern::best_average(), nominal(), 0);
    }
}
