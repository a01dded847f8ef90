//! JEDEC DDR4 timing parameters.
//!
//! The memory controller must respect these parameters for reliable
//! operation (Section 2.1, Figure 2); QUAC and the baseline TRNGs work by
//! deliberately *violating* specific parameters (tRAS, tRP, tRCD). The core
//! analog latencies are set by the DRAM array and are essentially constant in
//! nanoseconds across transfer rates, which is why latency-bound mechanisms
//! do not benefit from faster buses (Figure 13).

use crate::rate::TransferRate;
use serde::{Deserialize, Serialize};

/// A named DDR4 speed grade, or a projected future rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpeedGrade {
    /// DDR4-2133 (modules M1–M5 in Table 3).
    Ddr4_2133,
    /// DDR4-2400 (the comparison baseline of Section 7.4).
    Ddr4_2400,
    /// DDR4-2666 (modules M6–M12).
    Ddr4_2666,
    /// DDR4-3200 (modules M15–M17).
    Ddr4_3200,
    /// A projected rate beyond the DDR4 standard (Figure 13), in MT/s.
    Projected(u32),
}

impl SpeedGrade {
    /// The transfer rate of this speed grade.
    pub fn transfer_rate(self) -> TransferRate {
        let mts = match self {
            SpeedGrade::Ddr4_2133 => 2133,
            SpeedGrade::Ddr4_2400 => 2400,
            SpeedGrade::Ddr4_2666 => 2666,
            SpeedGrade::Ddr4_3200 => 3200,
            SpeedGrade::Projected(mts) => mts,
        };
        TransferRate::from_mts(mts).expect("speed grade rates are always in range")
    }
}

/// DDR4 timing parameters in nanoseconds.
///
/// All values are expressed in nanoseconds; cycle counts can be derived via
/// [`TransferRate`]. Defaults correspond to a typical DDR4-2400 CL17 part.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingParams {
    /// ACT to internal read/write delay (row activation latency).
    pub t_rcd: f64,
    /// ACT to PRE minimum (row active time, charge-restoration window).
    pub t_ras: f64,
    /// PRE to ACT minimum (precharge latency, bitline settling to VDD/2).
    pub t_rp: f64,
    /// ACT to ACT (same bank) minimum; usually `t_ras + t_rp`.
    pub t_rc: f64,
    /// ACT to ACT, different bank group.
    pub t_rrd_s: f64,
    /// ACT to ACT, same bank group.
    pub t_rrd_l: f64,
    /// Column-to-column delay, different bank group.
    pub t_ccd_s: f64,
    /// Column-to-column delay, same bank group.
    pub t_ccd_l: f64,
    /// Four-activate window.
    pub t_faw: f64,
    /// CAS (read) latency.
    pub t_cl: f64,
    /// CAS write latency.
    pub t_cwl: f64,
    /// Write recovery time (end of write burst to PRE).
    pub t_wr: f64,
    /// Read to PRE delay.
    pub t_rtp: f64,
    /// Write-to-read turnaround, different bank group.
    pub t_wtr_s: f64,
    /// Write-to-read turnaround, same bank group.
    pub t_wtr_l: f64,
    /// Average refresh interval.
    pub t_refi: f64,
    /// Refresh cycle time.
    pub t_rfc: f64,
    /// Burst length in beats (BL8 for DDR4).
    pub burst_length: u32,
    /// Refresh window within which all rows must be refreshed (64 ms).
    pub t_refw_ms: f64,
}

impl TimingParams {
    /// Timing parameters for a typical DDR4-2400 CL17 device.
    pub fn ddr4_2400() -> Self {
        TimingParams {
            t_rcd: 14.16,
            t_ras: 32.0,
            t_rp: 14.16,
            t_rc: 46.16,
            t_rrd_s: 3.3,
            t_rrd_l: 4.9,
            t_ccd_s: 3.33,
            t_ccd_l: 5.0,
            t_faw: 21.0,
            t_cl: 14.16,
            t_cwl: 10.0,
            t_wr: 15.0,
            t_rtp: 7.5,
            t_wtr_s: 2.5,
            t_wtr_l: 7.5,
            t_refi: 7800.0,
            t_rfc: 350.0,
            burst_length: 8,
            t_refw_ms: 64.0,
        }
    }

    /// Timing parameters for a DDR4-2666 device (tRRD values quoted in
    /// Section 2.1 of the paper).
    pub fn ddr4_2666() -> Self {
        TimingParams {
            t_rcd: 14.25,
            t_ras: 32.0,
            t_rp: 14.25,
            t_rc: 46.25,
            t_rrd_s: 3.0,
            t_rrd_l: 4.9,
            t_ccd_s: 3.0,
            t_ccd_l: 5.0,
            t_faw: 21.0,
            t_cl: 14.25,
            t_cwl: 10.0,
            t_wr: 15.0,
            t_rtp: 7.5,
            t_wtr_s: 2.5,
            t_wtr_l: 7.5,
            t_refi: 7800.0,
            t_rfc: 350.0,
            burst_length: 8,
            t_refw_ms: 64.0,
        }
    }

    /// Timing parameters appropriate for the given speed grade. Core analog
    /// latencies stay constant; only bus-clock-derived column timings shrink
    /// with the faster clock, floored at the analog array limits.
    pub fn for_speed_grade(grade: SpeedGrade) -> Self {
        match grade {
            SpeedGrade::Ddr4_2400 => Self::ddr4_2400(),
            SpeedGrade::Ddr4_2666 => Self::ddr4_2666(),
            SpeedGrade::Ddr4_2133 | SpeedGrade::Ddr4_3200 | SpeedGrade::Projected(_) => {
                let mut p = Self::ddr4_2400();
                let rate = grade.transfer_rate();
                // Column-to-column timings are clock-derived (4 / 6 clocks),
                // but never faster than the internal prefetch limit.
                p.t_ccd_s = (4.0 * rate.clock_period_ns()).max(2.0);
                p.t_ccd_l = (6.0 * rate.clock_period_ns()).max(3.0);
                p.t_rrd_s = p.t_rrd_s.max(4.0 * rate.clock_period_ns());
                p.t_rrd_l = p.t_rrd_l.max(6.0 * rate.clock_period_ns());
                p
            }
        }
    }

    /// The "greatly violated" timing used by Algorithm 1 for both the
    /// ACT→PRE gap (violated tRAS) and the PRE→ACT gap (violated tRP):
    /// 2.5 ns.
    pub fn quac_violated_gap_ns() -> f64 {
        2.5
    }

    /// Duration of one BL8 data burst at the given transfer rate.
    pub fn burst_ns(&self, rate: TransferRate) -> f64 {
        self.burst_length as f64 / 2.0 * rate.clock_period_ns()
    }

    /// Returns `true` if a PRE issued `gap_ns` after an ACT violates tRAS.
    pub fn violates_t_ras(&self, gap_ns: f64) -> bool {
        gap_ns < self.t_ras
    }

    /// Returns `true` if an ACT issued `gap_ns` after a PRE violates tRP.
    pub fn violates_t_rp(&self, gap_ns: f64) -> bool {
        gap_ns < self.t_rp
    }

    /// Returns `true` if a column command issued `gap_ns` after an ACT
    /// violates tRCD.
    pub fn violates_t_rcd(&self, gap_ns: f64) -> bool {
        gap_ns < self.t_rcd
    }

    /// Basic sanity checks: all latencies positive, tRC consistent.
    pub fn validate(&self) -> Result<(), String> {
        let fields = [
            ("t_rcd", self.t_rcd),
            ("t_ras", self.t_ras),
            ("t_rp", self.t_rp),
            ("t_rc", self.t_rc),
            ("t_rrd_s", self.t_rrd_s),
            ("t_rrd_l", self.t_rrd_l),
            ("t_ccd_s", self.t_ccd_s),
            ("t_ccd_l", self.t_ccd_l),
            ("t_faw", self.t_faw),
            ("t_cl", self.t_cl),
            ("t_cwl", self.t_cwl),
            ("t_wr", self.t_wr),
            ("t_rtp", self.t_rtp),
            ("t_refi", self.t_refi),
            ("t_rfc", self.t_rfc),
        ];
        for (name, v) in fields {
            if v <= 0.0 || !v.is_finite() {
                return Err(format!("timing parameter {name} must be positive, got {v}"));
            }
        }
        if self.t_rc + 1e-9 < self.t_ras + self.t_rp {
            return Err(format!(
                "t_rc ({}) must be at least t_ras + t_rp ({})",
                self.t_rc,
                self.t_ras + self.t_rp
            ));
        }
        if self.burst_length == 0 {
            return Err("burst_length must be non-zero".to_string());
        }
        Ok(())
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::ddr4_2400()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_parameters_are_valid() {
        TimingParams::ddr4_2400().validate().unwrap();
        TimingParams::ddr4_2666().validate().unwrap();
        for grade in [
            SpeedGrade::Ddr4_2133,
            SpeedGrade::Ddr4_2400,
            SpeedGrade::Ddr4_2666,
            SpeedGrade::Ddr4_3200,
            SpeedGrade::Projected(12_000),
        ] {
            TimingParams::for_speed_grade(grade).validate().unwrap();
        }
    }

    #[test]
    fn quac_gap_violates_both_t_ras_and_t_rp() {
        let p = TimingParams::ddr4_2400();
        let gap = TimingParams::quac_violated_gap_ns();
        assert!(p.violates_t_ras(gap));
        assert!(p.violates_t_rp(gap));
        assert!(!p.violates_t_ras(p.t_ras));
        assert!(!p.violates_t_rp(p.t_rp + 0.1));
    }

    #[test]
    fn t_rcd_violation_check() {
        let p = TimingParams::ddr4_2400();
        assert!(p.violates_t_rcd(5.0));
        assert!(!p.violates_t_rcd(p.t_rcd));
    }

    #[test]
    fn burst_duration_scales_with_rate() {
        let p = TimingParams::ddr4_2400();
        let slow = p.burst_ns(TransferRate::ddr4_2400());
        let fast = p.burst_ns(TransferRate::from_mts(4800).unwrap());
        assert!((slow - 3.333).abs() < 0.01);
        assert!((fast - slow / 2.0).abs() < 1e-9);
    }

    #[test]
    fn faster_grades_keep_analog_latencies() {
        let base = TimingParams::ddr4_2400();
        let fast = TimingParams::for_speed_grade(SpeedGrade::Projected(12_000));
        assert_eq!(fast.t_rcd, base.t_rcd);
        assert_eq!(fast.t_ras, base.t_ras);
        assert_eq!(fast.t_rp, base.t_rp);
        // Column timings shrink but stay above the internal floor.
        assert!(fast.t_ccd_l <= base.t_ccd_l);
        assert!(fast.t_ccd_s >= 2.0);
    }

    #[test]
    fn invalid_timing_rejected() {
        let mut p = TimingParams::ddr4_2400();
        p.t_rcd = -1.0;
        assert!(p.validate().is_err());
        let mut p = TimingParams::ddr4_2400();
        p.t_rc = 10.0;
        assert!(p.validate().is_err());
        let mut p = TimingParams::ddr4_2400();
        p.burst_length = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn speed_grade_transfer_rates() {
        assert_eq!(SpeedGrade::Ddr4_2133.transfer_rate().mts(), 2133);
        assert_eq!(SpeedGrade::Projected(9600).transfer_rate().mts(), 9600);
    }
}
