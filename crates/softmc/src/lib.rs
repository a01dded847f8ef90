//! # qt-softmc
//!
//! A SoftMC-like programmable host memory controller (Hassan et al.,
//! HPCA 2017): the experimental infrastructure the paper uses to issue DDR4
//! command sequences with precise — and deliberately violated — timings
//! (Section 6.1.1).
//!
//! A [`Program`] is an ordered list of timed DDR4 commands built with
//! [`ProgramBuilder`]; the [`HostController`] executes it against a simulated
//! module ([`qt_dram_sim::DramModuleSim`]) and returns every cache block read
//! plus a log of the timing violations the program committed — exactly the
//! picture an experimenter gets from the FPGA prototype.
//!
//! ## Example: Algorithm 1
//!
//! ```
//! use qt_softmc::{HostController, experiments};
//! use qt_dram_core::{DramGeometry, DataPattern, Segment};
//! use qt_dram_sim::DramModuleSim;
//!
//! let sim = DramModuleSim::with_seed(DramGeometry::tiny_test(), 3);
//! let mut host = HostController::new(sim);
//! let bank = host.module().bank_ref(0, 0);
//! let bits = experiments::quac_randomness_test(
//!     &mut host, bank, Segment::new(1), DataPattern::best_average()).unwrap();
//! assert_eq!(bits.len(), host.module().geometry().row_bits);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod program;

pub use program::{Program, ProgramBuilder, ProgramStep, TimingViolation};

use qt_dram_core::BitVec;
use qt_dram_sim::{BankRef, DramModuleSim, DramSimError};

/// Result of running one program: the data returned by every read, in
/// program order, plus the timing violations the schedule committed.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionResult {
    /// One entry per `RD` step, in issue order.
    pub read_data: Vec<BitVec>,
    /// Every DDR4 timing violation detected in the schedule.
    pub violations: Vec<TimingViolation>,
    /// Total duration of the program in nanoseconds.
    pub duration_ns: f64,
}

impl ExecutionResult {
    /// Concatenates all read bursts into one bitstream.
    pub fn concatenated_reads(&self) -> BitVec {
        let mut out = BitVec::zeros(0);
        for block in &self.read_data {
            out.extend_from(block);
        }
        out
    }
}

/// The programmable host controller driving one DRAM module.
#[derive(Debug)]
pub struct HostController {
    module: DramModuleSim,
}

impl HostController {
    /// Wraps a simulated module for experimentation.
    pub fn new(module: DramModuleSim) -> Self {
        HostController { module }
    }

    /// Immutable access to the module under test.
    pub fn module(&self) -> &DramModuleSim {
        &self.module
    }

    /// Mutable access to the module under test (for state setup between
    /// programs).
    pub fn module_mut(&mut self) -> &mut DramModuleSim {
        &mut self.module
    }

    /// Executes a program against one bank, starting at the bank's current
    /// local time.
    ///
    /// # Errors
    ///
    /// Returns the underlying simulator error if a step is ill-formed (e.g. a
    /// column command with no open row).
    pub fn run(&mut self, bank: BankRef, program: &Program) -> Result<ExecutionResult, DramSimError> {
        let base = self.module.bank_time(bank)?;
        let mut read_data = Vec::new();
        let mut end = base;
        for timed in program.steps() {
            let at = base + timed.offset_ns;
            end = end.max(at);
            match &timed.step {
                ProgramStep::Activate { row } => {
                    self.module.activate_at(bank, *row, at)?;
                }
                ProgramStep::Precharge => {
                    self.module.precharge_at(bank, at)?;
                }
                ProgramStep::Read { column } => {
                    let (data, _) = self.module.read_at(bank, *column, at)?;
                    read_data.push(data);
                }
                ProgramStep::Write { column, data } => {
                    self.module.write_at(bank, *column, data, at)?;
                }
                ProgramStep::Wait => {}
            }
        }
        self.module.advance_bank_time(bank, end)?;
        Ok(ExecutionResult {
            read_data,
            violations: program.violations(self.module.timing()),
            duration_ns: end - base,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_dram_core::{ColumnAddr, DataPattern, DramGeometry, RowAddr, Segment, TimingParams};

    fn host() -> HostController {
        HostController::new(DramModuleSim::with_seed(DramGeometry::tiny_test(), 5))
    }

    #[test]
    fn nominal_program_reads_back_written_data() {
        let mut h = host();
        let bank = h.module().bank_ref(0, 0);
        let row = RowAddr::new(4);
        let data = BitVec::from_bits((0..h.module().geometry().row_bits).map(|i| i % 2 == 0));
        h.module_mut().fill_row(bank, row, &data).unwrap();

        let t = TimingParams::ddr4_2400();
        let program = ProgramBuilder::new()
            .activate(row)
            .wait_ns(t.t_rcd)
            .read(ColumnAddr::new(0))
            .wait_ns(t.t_ras)
            .precharge()
            .build();
        let result = h.run(bank, &program).unwrap();
        assert_eq!(result.read_data.len(), 1);
        assert_eq!(result.read_data[0], data.slice(0, 512));
        assert!(result.violations.is_empty(), "violations: {:?}", result.violations);
    }

    #[test]
    fn quac_program_reports_t_ras_and_t_rp_violations() {
        let mut h = host();
        let bank = h.module().bank_ref(0, 1);
        let seg = Segment::new(2);
        h.module_mut().fill_segment(bank, seg, DataPattern::best_average()).unwrap();
        let program = Program::quac_sequence(seg, h.module().timing());
        let result = h.run(bank, &program).unwrap();
        assert!(result.violations.iter().any(|v| matches!(v, TimingViolation::TRas { .. })));
        assert!(result.violations.iter().any(|v| matches!(v, TimingViolation::TRp { .. })));
        // The module now has all four rows open.
        assert_eq!(h.module().bank(bank).unwrap().open_rows().len(), 4);
    }

    #[test]
    fn concatenated_reads_joins_blocks() {
        let r = ExecutionResult {
            read_data: vec![BitVec::ones(8), BitVec::zeros(8)],
            violations: vec![],
            duration_ns: 1.0,
        };
        let all = r.concatenated_reads();
        assert_eq!(all.len(), 16);
        assert_eq!(all.count_ones(), 8);
    }
}
