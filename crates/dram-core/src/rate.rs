//! DRAM transfer rates and bandwidth math.
//!
//! The paper evaluates throughput at standard DDR4 transfer rates
//! (2133–3200 MT/s) and projects it to future rates up to 12 GT/s
//! (Figure 13). A [`TransferRate`] captures the MT/s value and provides the
//! derived clock period, burst duration, and peak bandwidth used by the
//! command scheduler and throughput models.

use crate::DramCoreError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A DRAM data transfer rate in mega-transfers per second (MT/s).
///
/// DDR transfers two beats per clock, so the command-bus clock frequency is
/// half the transfer rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TransferRate {
    mts: u32,
}

impl TransferRate {
    /// Minimum supported rate (DDR4-1600).
    pub const MIN_MTS: u32 = 1600;
    /// Maximum supported (projected) rate, 12 GT/s as in Figure 13.
    pub const MAX_MTS: u32 = 12_800;

    /// Creates a transfer rate from an MT/s value.
    ///
    /// # Errors
    ///
    /// Returns [`DramCoreError::UnsupportedTransferRate`] for rates outside
    /// `[1600, 12800]` MT/s.
    pub fn from_mts(mts: u32) -> Result<Self, DramCoreError> {
        if !(Self::MIN_MTS..=Self::MAX_MTS).contains(&mts) {
            return Err(DramCoreError::UnsupportedTransferRate { mts });
        }
        Ok(TransferRate { mts })
    }

    /// DDR4-2400, the baseline rate of the paper's comparison (Section 7.4).
    pub fn ddr4_2400() -> Self {
        TransferRate { mts: 2400 }
    }

    /// DDR4-2666.
    pub fn ddr4_2666() -> Self {
        TransferRate { mts: 2666 }
    }

    /// DDR4-3200.
    pub fn ddr4_3200() -> Self {
        TransferRate { mts: 3200 }
    }

    /// The transfer rate in MT/s.
    pub fn mts(self) -> u32 {
        self.mts
    }

    /// The I/O clock frequency in MHz (half the transfer rate for DDR).
    pub fn clock_mhz(self) -> f64 {
        self.mts as f64 / 2.0
    }

    /// The clock period in nanoseconds.
    pub fn clock_period_ns(self) -> f64 {
        1000.0 / self.clock_mhz()
    }

    /// Duration of one BL8 burst in nanoseconds (8 beats = 4 clocks).
    pub fn burst_duration_ns(self) -> f64 {
        4.0 * self.clock_period_ns()
    }

    /// Peak bandwidth of one channel in bytes per second for the given bus
    /// width in bits.
    pub fn peak_bandwidth_bytes_per_s(self, bus_width_bits: usize) -> f64 {
        self.mts as f64 * 1.0e6 * bus_width_bits as f64 / 8.0
    }

    /// Peak bandwidth of one channel in gigabits per second for the given bus
    /// width in bits.
    pub fn peak_bandwidth_gbps(self, bus_width_bits: usize) -> f64 {
        self.mts as f64 * 1.0e6 * bus_width_bits as f64 / 1.0e9
    }

    /// Converts a cycle count (command-bus clocks) to nanoseconds.
    pub fn cycles_to_ns(self, cycles: u32) -> f64 {
        cycles as f64 * self.clock_period_ns()
    }

    /// Converts nanoseconds to command-bus clock cycles, rounding up.
    pub fn ns_to_cycles(self, ns: f64) -> u32 {
        (ns / self.clock_period_ns()).ceil() as u32
    }

    /// The set of transfer rates swept in Figure 13 of the paper:
    /// 2400, 3600, 4800, 7200, 9600, and 12 000 MT/s.
    pub fn figure13_sweep() -> Vec<TransferRate> {
        [2400, 3600, 4800, 7200, 9600, 12_000]
            .iter()
            .map(|&m| TransferRate { mts: m })
            .collect()
    }
}

impl Default for TransferRate {
    fn default() -> Self {
        Self::ddr4_2400()
    }
}

impl fmt::Display for TransferRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DDR4-{}", self.mts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_math_for_2400() {
        let r = TransferRate::ddr4_2400();
        assert_eq!(r.mts(), 2400);
        assert!((r.clock_mhz() - 1200.0).abs() < 1e-9);
        assert!((r.clock_period_ns() - 0.8333).abs() < 1e-3);
        assert!((r.burst_duration_ns() - 3.333).abs() < 1e-2);
    }

    #[test]
    fn peak_bandwidth_for_64_bit_bus() {
        let r = TransferRate::ddr4_2400();
        // 2400 MT/s * 8 bytes = 19.2 GB/s.
        assert!((r.peak_bandwidth_bytes_per_s(64) - 19.2e9).abs() < 1e6);
        assert!((r.peak_bandwidth_gbps(64) - 153.6).abs() < 1e-6);
    }

    #[test]
    fn cycle_conversions_round_trip() {
        let r = TransferRate::ddr4_3200();
        let ns = r.cycles_to_ns(10);
        assert_eq!(r.ns_to_cycles(ns), 10);
        // Rounding up: slightly more than 1 cycle takes 2 cycles.
        assert_eq!(r.ns_to_cycles(r.clock_period_ns() * 1.01), 2);
    }

    #[test]
    fn out_of_range_rates_rejected() {
        assert!(TransferRate::from_mts(800).is_err());
        assert!(TransferRate::from_mts(20_000).is_err());
        assert!(TransferRate::from_mts(2400).is_ok());
        assert!(TransferRate::from_mts(12_000).is_ok());
    }

    #[test]
    fn figure13_sweep_is_monotonic_and_starts_at_2400() {
        let sweep = TransferRate::figure13_sweep();
        assert_eq!(sweep.first().unwrap().mts(), 2400);
        assert_eq!(sweep.last().unwrap().mts(), 12_000);
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", TransferRate::ddr4_2666()), "DDR4-2666");
    }
}
