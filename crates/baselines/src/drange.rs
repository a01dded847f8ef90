//! D-RaNGe (Kim et al., HPCA 2019): TRNG from reduced-tRCD read failures.

use crate::TrngComparison;
use qt_crypto::Sha256HardwareCost;
use qt_dram_analog::failures::FailureModel;
use qt_dram_core::{
    DramGeometry, RowAddr, TimingParams, TransferRate, CACHE_BLOCK_BITS, RANDOM_NUMBER_BITS,
};
use serde::{Deserialize, Serialize};

/// Throughput/latency model of D-RaNGe on a DDR4 channel.
///
/// D-RaNGe repeatedly reads a chosen cache block with violated tRCD; the
/// failed read returns a handful of random bits. The access is bound by the
/// DRAM core cycle (tRC), not the bus, so its throughput barely scales with
/// transfer rate (Figure 13).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DRange {
    /// Random bits harvested per cache-block access.
    pub bits_per_access: f64,
    /// Whether SHA-256 post-processing is applied (the "Enhanced" variant).
    pub post_processed: bool,
    /// Banks (in different bank groups) accessed in parallel.
    pub banks: usize,
}

impl DRange {
    /// D-RaNGe-Basic: the four TRNG cells per cache block reported in the
    /// original paper, no post-processing.
    pub fn basic() -> Self {
        DRange { bits_per_access: 4.0, post_processed: false, banks: 4 }
    }

    /// D-RaNGe-Enhanced with the paper's characterised average of 46.55 bits
    /// of entropy per cache block and SHA-256 post-processing.
    pub fn enhanced_default() -> Self {
        DRange { bits_per_access: 46.55, post_processed: true, banks: 4 }
    }

    /// D-RaNGe-Enhanced with the per-block entropy characterised on a
    /// simulated module (the Section 7.4.1 methodology): the maximum
    /// cache-block entropy under a deeply reduced tRCD, averaged over a
    /// sample of rows.
    ///
    /// The block entropies come from one classify-first
    /// [`TrcdClassifier`](qt_dram_analog::TrcdClassifier) scan, which skips
    /// the deterministic cells (their entropy is exactly 0): bit-identical
    /// to summing `FailureModel::trcd_cache_block_entropy` per block.
    pub fn enhanced_from_characterisation(failures: &FailureModel, geom: &DramGeometry) -> Self {
        let classifier = failures.trcd_classifier(0.3);
        let mut best = 0.0f64;
        for row in (0..geom.rows_per_bank().min(4096)).step_by(512) {
            for cb in 0..geom.cache_blocks_per_row().min(16) {
                let start = cb * CACHE_BLOCK_BITS;
                let block = start..start + CACHE_BLOCK_BITS;
                best = best.max(classifier.entropy(RowAddr::new(row), block));
            }
        }
        DRange { bits_per_access: best.max(1.0), post_processed: true, banks: 4 }
    }

    /// The cell-by-cell scan [`DRange::enhanced_from_characterisation`]
    /// replaced, frozen as its equivalence oracle.
    #[cfg(test)]
    fn enhanced_from_characterisation_reference(
        failures: &FailureModel,
        geom: &DramGeometry,
    ) -> Self {
        let mut best = 0.0f64;
        for row in (0..geom.rows_per_bank().min(4096)).step_by(512) {
            for cb in 0..geom.cache_blocks_per_row().min(16) {
                best = best.max(failures.trcd_cache_block_entropy(RowAddr::new(row), cb, 0.3));
            }
        }
        DRange { bits_per_access: best.max(1.0), post_processed: true, banks: 4 }
    }

    /// Duration of one reduced-tRCD access to one bank: the bank must still
    /// complete a full row cycle plus the data burst and the rewrite of the
    /// disturbed block.
    fn access_interval_ns(&self, timing: &TimingParams, rate: TransferRate) -> f64 {
        timing.t_rc + timing.t_rcd + 2.0 * timing.burst_ns(rate)
    }

    /// Per-channel throughput in Gb/s.
    pub fn throughput_gbps_per_channel(&self, rate: TransferRate) -> f64 {
        let timing = TimingParams::for_speed_grade(qt_dram_core::SpeedGrade::Projected(rate.mts()));
        let interval = self.access_interval_ns(&timing, rate);
        // With bank-group parallelism the channel sustains `banks` accesses
        // per bank-cycle, bounded by the four-activate window.
        let accesses_per_ns =
            (self.banks as f64 / interval).min(4.0 / timing.t_faw);
        let useful_bits = if self.post_processed {
            // SHA post-processing lets every entropy bit become an output bit.
            self.bits_per_access
        } else {
            self.bits_per_access
        };
        useful_bits * accesses_per_ns
    }

    /// Latency of one 256-bit random number, in nanoseconds.
    pub fn latency_256bit_ns(&self, rate: TransferRate) -> f64 {
        let timing = TimingParams::for_speed_grade(qt_dram_core::SpeedGrade::Projected(rate.mts()));
        let accesses_needed = (RANDOM_NUMBER_BITS as f64 / self.bits_per_access).ceil();
        let rounds = (accesses_needed / self.banks as f64).ceil();
        let access = 0.4 * timing.t_rcd + timing.burst_ns(rate) + timing.t_cl;
        let sha = if self.post_processed { Sha256HardwareCost::paper_reference().latency_ns() } else { 0.0 };
        rounds * access + sha
    }

    /// The Table 2 row for this configuration at the given rate (per
    /// channel).
    pub fn comparison_row(&self, rate: TransferRate) -> TrngComparison {
        TrngComparison {
            name: if self.post_processed { "D-RaNGe-Enhanced".into() } else { "D-RaNGe-Basic".into() },
            entropy_source: "Activation (tRCD) failure",
            throughput_gbps_per_channel: self.throughput_gbps_per_channel(rate),
            latency_256bit_ns: self.latency_256bit_ns(rate),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_dram_analog::ModuleVariation;

    #[test]
    fn basic_and_enhanced_magnitudes_match_section_7_4_1() {
        let rate = TransferRate::ddr4_2400();
        let basic_4ch = 4.0 * DRange::basic().throughput_gbps_per_channel(rate);
        let enhanced_4ch = 4.0 * DRange::enhanced_default().throughput_gbps_per_channel(rate);
        // Paper: 0.92 Gb/s and 9.73 Gb/s on the four-channel system.
        assert!(basic_4ch > 0.4 && basic_4ch < 2.0, "basic {basic_4ch}");
        assert!(enhanced_4ch > 6.0 && enhanced_4ch < 14.0, "enhanced {enhanced_4ch}");
        assert!(enhanced_4ch > 8.0 * basic_4ch);
    }

    #[test]
    fn throughput_is_latency_bound_and_barely_scales() {
        let d = DRange::enhanced_default();
        let slow = d.throughput_gbps_per_channel(TransferRate::ddr4_2400());
        let fast = d.throughput_gbps_per_channel(TransferRate::from_mts(12_000).unwrap());
        assert!(fast < 1.5 * slow, "slow {slow} fast {fast}");
        assert!(fast >= slow);
    }

    #[test]
    fn latency_is_tens_of_ns_enhanced_and_hundreds_basic() {
        let rate = TransferRate::ddr4_2400();
        let enhanced = DRange::enhanced_default().latency_256bit_ns(rate);
        let basic = DRange::basic().latency_256bit_ns(rate);
        assert!(enhanced > 15.0 && enhanced < 90.0, "enhanced latency {enhanced}");
        assert!(basic > 150.0 && basic < 500.0, "basic latency {basic}");
    }

    #[test]
    fn characterised_enhanced_variant_is_same_order_as_default() {
        let geom = DramGeometry::ddr4_4gb_x8_module();
        let failures = FailureModel::new(ModuleVariation::generate(&geom, 12));
        let d = DRange::enhanced_from_characterisation(&failures, &geom);
        assert!(d.bits_per_access > 10.0 && d.bits_per_access < 150.0, "bits {}", d.bits_per_access);
    }

    #[test]
    fn characterised_enhanced_variant_matches_the_cell_by_cell_reference() {
        let paper = DramGeometry::ddr4_4gb_x8_module();
        let tiny = DramGeometry::tiny_test();
        for (geom, seed) in [(paper, 12), (paper, 40), (tiny, 8), (tiny, 9)] {
            let failures = FailureModel::new(ModuleVariation::generate(&geom, seed));
            let fast = DRange::enhanced_from_characterisation(&failures, &geom);
            let reference = DRange::enhanced_from_characterisation_reference(&failures, &geom);
            assert_eq!(fast.bits_per_access.to_bits(), reference.bits_per_access.to_bits());
            assert_eq!(fast, reference);
        }
    }
}
