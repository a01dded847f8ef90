//! A whole DRAM module: a grid of banks sharing one process-variation
//! profile, an analog QUAC model, failure models, and operating conditions.

use crate::bank::{BankSim, CommandEffect};
use crate::error::DramSimError;
use qt_dram_analog::failures::{FailureModel, RetentionModel};
use qt_dram_analog::{ModuleVariation, OperatingConditions, QuacAnalogModel};
use qt_dram_core::{
    BitVec, ColumnAddr, DataPattern, DramGeometry, RowAddr, Segment, TimingParams,
    CACHE_BLOCK_BITS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Identifies one bank within the module (bank group × bank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BankRef {
    /// Bank-group index.
    pub bank_group: usize,
    /// Bank index within the group.
    pub bank: usize,
}

/// The result of a QUAC operation driven through the module interface.
#[derive(Debug, Clone, PartialEq)]
pub struct QuacOutcome {
    /// The segment the operation targeted.
    pub segment: Segment,
    /// The rows that ended up simultaneously open.
    pub opened_rows: Vec<RowAddr>,
    /// The sense-amplifier contents after the operation (one bit per
    /// bitline) — the raw entropy source of QUAC-TRNG.
    pub sense_amps: BitVec,
}

/// Behavioural simulator of one DRAM module (single rank).
#[derive(Debug)]
pub struct DramModuleSim {
    geom: DramGeometry,
    timing: TimingParams,
    analog: QuacAnalogModel,
    failures: FailureModel,
    retention: RetentionModel,
    banks: Vec<BankSim>,
    conditions: OperatingConditions,
    rng: StdRng,
    /// Per-bank local time cursor used by the convenience operations.
    cursors: Vec<f64>,
}

impl DramModuleSim {
    /// Creates a module simulator from an explicit variation profile.
    pub fn new(geom: DramGeometry, variation: ModuleVariation) -> Self {
        let timing = TimingParams::ddr4_2400();
        let bank_count = geom.banks_per_rank();
        let banks = (0..bank_count).map(|_| BankSim::new(geom, timing)).collect();
        DramModuleSim {
            geom,
            timing,
            analog: QuacAnalogModel::new(geom, variation.clone()),
            failures: FailureModel::new(variation.clone()),
            retention: RetentionModel::new(variation),
            banks,
            conditions: OperatingConditions::nominal(),
            rng: StdRng::seed_from_u64(0x514A_C0DE),
            cursors: vec![0.0; bank_count],
        }
    }

    /// Creates a module simulator with a freshly generated variation profile.
    pub fn with_seed(geom: DramGeometry, seed: u64) -> Self {
        Self::new(geom, ModuleVariation::generate(&geom, seed))
    }

    /// The module geometry.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geom
    }

    /// The analog QUAC model backing this module.
    pub fn analog_model(&self) -> &QuacAnalogModel {
        &self.analog
    }

    /// The DDR4 timing parameters the module expects.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// The current operating conditions.
    pub fn conditions(&self) -> OperatingConditions {
        self.conditions
    }

    /// Sets the operating conditions (temperature, age).
    pub fn set_conditions(&mut self, conditions: OperatingConditions) {
        self.conditions = conditions;
    }

    /// Returns the reference of a bank.
    ///
    /// # Panics
    ///
    /// Panics if the indices are outside the geometry.
    pub fn bank_ref(&self, bank_group: usize, bank: usize) -> BankRef {
        assert!(bank_group < self.geom.bank_groups && bank < self.geom.banks_per_group);
        BankRef { bank_group, bank }
    }

    fn bank_index(&self, bank: BankRef) -> Result<usize, DramSimError> {
        if bank.bank_group >= self.geom.bank_groups || bank.bank >= self.geom.banks_per_group {
            return Err(DramSimError::NoSuchBank { bank_group: bank.bank_group, bank: bank.bank });
        }
        Ok(bank.bank_group * self.geom.banks_per_group + bank.bank)
    }

    /// Immutable access to a bank's state.
    pub fn bank(&self, bank: BankRef) -> Result<&BankSim, DramSimError> {
        let idx = self.bank_index(bank)?;
        Ok(&self.banks[idx])
    }

    // ------------------------------------------------------------------
    // Raw command interface (explicit timestamps)
    // ------------------------------------------------------------------

    /// Issues an `ACT` to a bank at an explicit time.
    pub fn activate_at(
        &mut self,
        bank: BankRef,
        row: RowAddr,
        at_ns: f64,
    ) -> Result<CommandEffect, DramSimError> {
        let idx = self.bank_index(bank)?;
        self.banks[idx].activate(row, at_ns, &self.analog, &self.failures, self.conditions, &mut self.rng)
    }

    /// Issues a `PRE` to a bank at an explicit time.
    pub fn precharge_at(&mut self, bank: BankRef, at_ns: f64) -> Result<CommandEffect, DramSimError> {
        let idx = self.bank_index(bank)?;
        self.banks[idx].precharge(at_ns)
    }

    /// Issues a `RD` of one cache block at an explicit time.
    pub fn read_at(
        &mut self,
        bank: BankRef,
        column: ColumnAddr,
        at_ns: f64,
    ) -> Result<(BitVec, CommandEffect), DramSimError> {
        let idx = self.bank_index(bank)?;
        self.banks[idx].read(column, at_ns, &self.failures, &mut self.rng)
    }

    /// Issues a `WR` of one cache block at an explicit time.
    pub fn write_at(
        &mut self,
        bank: BankRef,
        column: ColumnAddr,
        data: &BitVec,
        at_ns: f64,
    ) -> Result<CommandEffect, DramSimError> {
        let idx = self.bank_index(bank)?;
        self.banks[idx].write(column, data, at_ns)
    }

    // ------------------------------------------------------------------
    // Convenience operations with an internally managed timeline
    // ------------------------------------------------------------------

    fn cursor(&mut self, bank: BankRef) -> Result<(usize, f64), DramSimError> {
        let idx = self.bank_index(bank)?;
        Ok((idx, self.cursors[idx].max(self.banks[idx].now_ns())))
    }

    /// The bank-local time cursor used by the convenience operations: the
    /// later of the last issued command and the completion time of the last
    /// convenience operation. External drivers (e.g. the SoftMC host) should
    /// start their schedules at this time.
    pub fn bank_time(&self, bank: BankRef) -> Result<f64, DramSimError> {
        let idx = self.bank_index(bank)?;
        Ok(self.cursors[idx].max(self.banks[idx].now_ns()))
    }

    /// Advances a bank's time cursor to at least `to_ns` (used by external
    /// drivers after running their own schedules).
    pub fn advance_bank_time(&mut self, bank: BankRef, to_ns: f64) -> Result<(), DramSimError> {
        let idx = self.bank_index(bank)?;
        self.cursors[idx] = self.cursors[idx].max(to_ns);
        Ok(())
    }

    fn bump_cursor(&mut self, idx: usize, to: f64) {
        self.cursors[idx] = to;
    }

    /// Fills a whole row with the given data using nominal-timing commands.
    pub fn fill_row(&mut self, bank: BankRef, row: RowAddr, data: &BitVec) -> Result<(), DramSimError> {
        let (idx, mut t) = self.cursor(bank)?;
        self.banks[idx].activate(row, t, &self.analog, &self.failures, self.conditions, &mut self.rng)?;
        t += self.timing.t_rcd;
        for col in 0..self.geom.columns_per_row() {
            let start = col * CACHE_BLOCK_BITS;
            let block = data.slice(start, start + CACHE_BLOCK_BITS);
            self.banks[idx].write(ColumnAddr::new(col), &block, t)?;
            t += self.timing.t_ccd_l;
        }
        t += self.timing.t_wr;
        self.banks[idx].precharge(t.max(self.timing.t_ras))?;
        let done = t.max(self.timing.t_ras) + self.timing.t_rp;
        self.bump_cursor(idx, done);
        Ok(())
    }

    /// Initialises all four rows of a segment according to a data pattern
    /// (step 1 of the QUAC-TRNG iteration, Figure 6).
    pub fn fill_segment(
        &mut self,
        bank: BankRef,
        segment: Segment,
        pattern: DataPattern,
    ) -> Result<(), DramSimError> {
        self.check_segment(segment)?;
        for (i, row) in segment.rows().iter().enumerate() {
            let data = pattern.fill(i).to_row(self.geom.row_bits);
            self.fill_row(bank, *row, &data)?;
        }
        Ok(())
    }

    fn check_segment(&self, segment: Segment) -> Result<(), DramSimError> {
        if !segment.is_valid(&self.geom) {
            return Err(DramSimError::SegmentOutOfRange {
                segment,
                segments_per_bank: self.geom.segments_per_bank(),
            });
        }
        Ok(())
    }

    /// Performs one QUAC operation (ACT → PRE → ACT with violated tRAS and
    /// tRP, Algorithm 1) on a segment and returns the resulting
    /// sense-amplifier contents.
    pub fn quac(&mut self, bank: BankRef, segment: Segment) -> Result<QuacOutcome, DramSimError> {
        self.check_segment(segment)?;
        let (idx, t) = self.cursor(bank)?;
        let gap = TimingParams::quac_violated_gap_ns();
        let (first, last) = segment.quac_act_pair();

        self.banks[idx].activate(first, t, &self.analog, &self.failures, self.conditions, &mut self.rng)?;
        self.banks[idx].precharge(t + gap)?;
        let effect = self.banks[idx].activate(
            last,
            t + 2.0 * gap,
            &self.analog,
            &self.failures,
            self.conditions,
            &mut self.rng,
        )?;
        let opened = match effect {
            CommandEffect::QuacActivate { opened, .. } => opened,
            other => panic!("QUAC command sequence produced unexpected effect {other:?}"),
        };
        let sense_amps = self.banks[idx]
            .sense_amps()
            .expect("QUAC leaves sense amplifiers latched")
            .data
            .clone();
        self.bump_cursor(idx, t + 2.0 * gap + self.timing.t_rcd);
        Ok(QuacOutcome { segment, opened_rows: opened, sense_amps })
    }

    /// Reads back the full row buffer after an operation, obeying nominal
    /// column timings (step 3 of the QUAC-TRNG iteration).
    pub fn read_row_buffer(&mut self, bank: BankRef) -> Result<BitVec, DramSimError> {
        let (idx, mut t) = self.cursor(bank)?;
        let mut out = BitVec::zeros(0);
        for col in 0..self.geom.columns_per_row() {
            let (block, _) = self.banks[idx].read(ColumnAddr::new(col), t, &self.failures, &mut self.rng)?;
            out.extend_from(&block);
            t += self.timing.t_ccd_l;
        }
        self.bump_cursor(idx, t);
        Ok(out)
    }

    /// Closes the bank (nominal precharge) and advances its cursor past tRP.
    pub fn close_bank(&mut self, bank: BankRef) -> Result<(), DramSimError> {
        let (idx, t) = self.cursor(bank)?;
        let at = t.max(self.timing.t_ras);
        self.banks[idx].precharge(at)?;
        self.bump_cursor(idx, at + self.timing.t_rp);
        Ok(())
    }

    /// Reads a row's stored contents with nominal timing (activate, read all
    /// columns, precharge).
    pub fn read_row(&mut self, bank: BankRef, row: RowAddr) -> Result<BitVec, DramSimError> {
        let (idx, t) = self.cursor(bank)?;
        self.banks[idx].activate(row, t, &self.analog, &self.failures, self.conditions, &mut self.rng)?;
        self.bump_cursor(idx, t + self.timing.t_rcd);
        let data = self.read_row_buffer(bank)?;
        self.close_bank(bank)?;
        Ok(data)
    }

    /// Copies one row onto another using the in-DRAM copy command sequence
    /// (ACT → PRE → ACT with violated timings to a non-QUAC-pair row), as
    /// used by QUAC-TRNG to initialise segments quickly (Section 7.2).
    pub fn rowclone(
        &mut self,
        bank: BankRef,
        source: RowAddr,
        destination: RowAddr,
    ) -> Result<(), DramSimError> {
        let (idx, t) = self.cursor(bank)?;
        let gap = TimingParams::quac_violated_gap_ns();
        self.banks[idx].activate(source, t, &self.analog, &self.failures, self.conditions, &mut self.rng)?;
        self.banks[idx].precharge(t + gap)?;
        let effect = self.banks[idx].activate(
            destination,
            t + 2.0 * gap,
            &self.analog,
            &self.failures,
            self.conditions,
            &mut self.rng,
        )?;
        debug_assert!(
            matches!(effect, CommandEffect::RowCloneCopy { .. }),
            "row-clone sequence produced {effect:?}"
        );
        // Allow the destination row to restore, then precharge.
        let done = t + 2.0 * gap + self.timing.t_ras;
        self.banks[idx].precharge(done)?;
        self.bump_cursor(idx, done + self.timing.t_rp);
        Ok(())
    }

    /// Performs one full Algorithm-1 iteration: initialise the segment with a
    /// data pattern, QUAC it, and read back every sense amplifier.
    pub fn quac_randomness_iteration(
        &mut self,
        bank: BankRef,
        segment: Segment,
        pattern: DataPattern,
    ) -> Result<BitVec, DramSimError> {
        self.fill_segment(bank, segment, pattern)?;
        self.quac(bank, segment)?;
        let data = self.read_row_buffer(bank)?;
        self.close_bank(bank)?;
        Ok(data)
    }

    /// Pauses refresh for `pause_s` seconds on the given rows, letting
    /// retention failures accumulate (the D-PUF / Keller+ entropy source).
    /// Returns the total number of flipped cells.
    pub fn pause_refresh(
        &mut self,
        bank: BankRef,
        rows: &[RowAddr],
        pause_s: f64,
    ) -> Result<usize, DramSimError> {
        let idx = self.bank_index(bank)?;
        let mut flipped = 0usize;
        for &row in rows {
            let mut data = self.banks[idx].row_data(row);
            for b in 0..self.geom.row_bits {
                // Retention failures discharge cells: only stored ones decay.
                if data.get(b) {
                    let p = self.retention.failure_probability(row, b, pause_s, self.conditions.temperature_c);
                    if self.rng.gen::<f64>() < p {
                        data.set(b, false);
                        flipped += 1;
                    }
                }
            }
            self.banks[idx].set_row_data(row, data);
        }
        Ok(flipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> DramModuleSim {
        DramModuleSim::with_seed(DramGeometry::tiny_test(), 99)
    }

    #[test]
    fn fill_and_read_round_trip() {
        let mut s = sim();
        let bank = s.bank_ref(0, 1);
        let row = RowAddr::new(9);
        let data = BitVec::from_bits((0..s.geometry().row_bits).map(|i| i % 5 == 0));
        s.fill_row(bank, row, &data).unwrap();
        let back = s.read_row(bank, row).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn quac_outcome_has_four_rows_and_row_width_data() {
        let mut s = sim();
        let bank = s.bank_ref(1, 0);
        let seg = Segment::new(4);
        s.fill_segment(bank, seg, DataPattern::best_average()).unwrap();
        let out = s.quac(bank, seg).unwrap();
        assert_eq!(out.opened_rows.len(), 4);
        assert_eq!(out.sense_amps.len(), s.geometry().row_bits);
        assert_eq!(out.segment, seg);
    }

    #[test]
    fn algorithm1_iteration_returns_row_buffer() {
        let mut s = sim();
        let bank = s.bank_ref(0, 0);
        let seg = Segment::new(7);
        let data = s.quac_randomness_iteration(bank, seg, DataPattern::best_average()).unwrap();
        assert_eq!(data.len(), s.geometry().row_bits);
        let ones = data.count_ones();
        assert!(ones > 0 && ones < data.len());
    }

    #[test]
    fn rowclone_copies_row_contents() {
        let mut s = sim();
        let bank = s.bank_ref(0, 0);
        let src = RowAddr::new(32);
        let dst = RowAddr::new(37); // different segment, same subarray
        let data = BitVec::from_bits((0..s.geometry().row_bits).map(|i| i % 3 == 1));
        s.fill_row(bank, src, &data).unwrap();
        s.rowclone(bank, src, dst).unwrap();
        assert_eq!(s.read_row(bank, dst).unwrap(), data);
        // Source keeps its data.
        assert_eq!(s.read_row(bank, src).unwrap(), data);
    }

    #[test]
    fn banks_are_independent() {
        let mut s = sim();
        let a = s.bank_ref(0, 0);
        let b = s.bank_ref(1, 1);
        let row = RowAddr::new(3);
        let ones = BitVec::ones(s.geometry().row_bits);
        s.fill_row(a, row, &ones).unwrap();
        // Bank B's same row is untouched.
        assert_eq!(s.read_row(b, row).unwrap().count_ones(), 0);
        assert_eq!(s.read_row(a, row).unwrap().count_ones(), s.geometry().row_bits);
    }

    #[test]
    fn refresh_pause_flips_only_charged_cells() {
        let mut s = sim();
        let bank = s.bank_ref(0, 0);
        let row = RowAddr::new(20);
        s.fill_row(bank, row, &BitVec::ones(s.geometry().row_bits)).unwrap();
        // A very long pause flips a noticeable number of cells; a zero pause
        // flips none.
        let none = s.pause_refresh(bank, &[RowAddr::new(21)], 0.0).unwrap();
        assert_eq!(none, 0);
        let flipped = s.pause_refresh(bank, &[row], 100_000.0).unwrap();
        assert!(flipped > 0);
        let back = s.read_row(bank, row).unwrap();
        assert_eq!(back.count_zeros(), flipped);
    }

    #[test]
    fn invalid_bank_and_segment_are_rejected() {
        let mut s = sim();
        let bad_bank = BankRef { bank_group: 9, bank: 0 };
        assert!(matches!(
            s.quac(bad_bank, Segment::new(0)),
            Err(DramSimError::NoSuchBank { .. })
        ));
        let bank = s.bank_ref(0, 0);
        assert!(matches!(
            s.quac(bank, Segment::new(1 << 20)),
            Err(DramSimError::SegmentOutOfRange { .. })
        ));
    }

    #[test]
    fn conditions_can_be_changed() {
        let mut s = sim();
        assert_eq!(s.conditions().temperature_c, 50.0);
        s.set_conditions(OperatingConditions::at_temperature(85.0));
        assert_eq!(s.conditions().temperature_c, 85.0);
    }
}
