//! Deterministic fault injection for the generator's *output* path — the
//! test seam behind continuous in-service validation.
//!
//! A DRAM TRNG can fail in the field in ways the one-time characterisation
//! never saw: a weakening sense amplifier biasing its bitline, a stuck DQ
//! pin on the channel, a marginal connector dropping bursts of transfers.
//! DR-STRaNGe's system argument is that such a source must be *detected in
//! service* and fenced off. To test that machinery without touching the
//! production sampling path, [`FaultInjector`] corrupts the generator's
//! post-processed output bytes instead: SHA-256 whitens any raw-side bias
//! into statistically perfect output (that is the paper's whole point), so
//! only a delivery-side fault is visible to the NIST battery — exactly the
//! class of fault the in-service validator exists to catch.
//!
//! Every mode is a pure function of `(seed, absolute output byte offset)`,
//! so corruption is reproducible and independent of how reads are sliced:
//! corrupting a stream in chunks equals corrupting it in one pass, which
//! keeps the service's determinism contract testable even for faulty
//! shards.
//!
//! Attach an injector to any backend's shared output stream with
//! [`ConditionedStream::inject_fault`](crate::stream::ConditionedStream::inject_fault)
//! (through [`EntropyBackend::stream_mut`](crate::backend::EntropyBackend::stream_mut));
//! a stream without one (the default) pays a single `Option` check per
//! `fill_bytes` call.

use qt_dram_analog::{TemperatureRamp, TemperatureTrend};
use serde::{Deserialize, Serialize};

/// Time-varying environmental drift: an output-side bias whose strength
/// follows a temperature excursion across the delivered stream.
///
/// Section 8 of the paper shows per-module temperature sensitivity in two
/// trends (entropy rising or falling with temperature) and prescribes
/// re-characterisation when conditions drift. This injector turns that into
/// a testable fault: "time" is the *absolute delivered byte offset*, a
/// [`TemperatureRamp`] maps offset to temperature, the module's
/// [`TemperatureTrend`] decides which direction of excursion is adverse, and
/// each degree of adverse excursion adds `sensitivity` to the stream's ones
/// fraction (clamped to `[0.5, 1.0]` like [`FaultMode::Bias`]).
///
/// Because the temperature is a pure function of the offset, drift
/// corruption stays a pure function of `(seed, absolute offset)` — slicing
/// the stream differently yields identical corruption — yet the corruption
/// *changes over the stream*: benign at the edges of the pulse, worst at its
/// midpoint, and gone for good once the stream passes `period_bytes` (the
/// ramp is one-shot). That shape is what the chaos campaigns need: a shard
/// that degrades gradually, trips quarantine near the peak, and — with
/// probation windows marching its offset past the pulse — genuinely
/// *recovers* without the fault being cleared.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftInjector {
    /// The temperature excursion, mapped over `[0, period_bytes]`.
    pub ramp: TemperatureRamp,
    /// Which direction of excursion degrades this module (Section 8).
    pub trend: TemperatureTrend,
    /// Stream length the full excursion spans; offsets at or beyond it sit
    /// at `ramp.base_c` forever.
    pub period_bytes: u64,
    /// Added ones fraction per °C of adverse excursion (e.g. 0.002 ⇒ a
    /// 35 °C adverse peak biases the stream to 57% ones).
    pub sensitivity: f64,
    /// Offset quantisation step: the temperature (and therefore the mask
    /// density) is held constant within each `step_bytes`-aligned block, so
    /// the float path runs once per block instead of once per byte.
    pub step_bytes: u64,
}

impl DriftInjector {
    /// Temperature drifts are slow against byte rates; a 64-byte step keeps
    /// the density error far below the battery's resolution.
    const DEFAULT_STEP_BYTES: u64 = 64;

    /// A one-shot excursion of the given ramp over `period_bytes` of stream.
    ///
    /// # Panics
    ///
    /// Panics if `period_bytes == 0` or `sensitivity < 0`.
    pub fn excursion(
        ramp: TemperatureRamp,
        trend: TemperatureTrend,
        period_bytes: u64,
        sensitivity: f64,
    ) -> Self {
        assert!(period_bytes > 0, "a drift excursion needs a nonzero period");
        assert!(sensitivity >= 0.0, "sensitivity is a density per °C, got {sensitivity}");
        DriftInjector {
            ramp,
            trend,
            period_bytes,
            sensitivity,
            step_bytes: Self::DEFAULT_STEP_BYTES,
        }
    }

    /// Temperature the module sees at the given absolute stream offset
    /// (quantised to `step_bytes`).
    pub fn temperature_at(&self, offset: u64) -> f64 {
        let step = self.step_bytes.max(1);
        let quantised = (offset / step) * step;
        self.ramp.at(quantised as f64 / self.period_bytes as f64)
    }

    /// Target ones fraction of the corrupted stream at the given offset:
    /// `0.5 + sensitivity · adverse_excursion`, clamped to `[0.5, 1.0]`.
    pub fn ones_fraction_at(&self, offset: u64) -> f64 {
        let adverse = self.trend.adverse_excursion(self.ramp.base_c, self.temperature_at(offset));
        (0.5 + self.sensitivity * adverse).clamp(0.5, 1.0)
    }

    /// The per-bit OR-mask threshold at this offset (same quantisation as
    /// [`FaultMode::Bias`]: density `2f − 1` scaled to a byte compare).
    fn mask_threshold_at(&self, offset: u64) -> u8 {
        let d = (2.0 * self.ones_fraction_at(offset) - 1.0).clamp(0.0, 1.0);
        (d * 256.0).round().min(255.0) as u8
    }
}

/// What kind of corruption the injector applies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultMode {
    /// Biases the delivered bits toward one: each output bit is forced to 1
    /// with probability `2·ones_fraction − 1`, so an unbiased input stream
    /// leaves with the given ones fraction. Models a weak sense amplifier /
    /// reference-voltage drift. `ones_fraction` is clamped to `[0.5, 1.0]`.
    Bias {
        /// Target fraction of one bits in the corrupted stream.
        ones_fraction: f64,
    },
    /// Forces one bit position of every byte to a constant — a stuck DQ
    /// line. One bit in eight is deterministic, which both biases the
    /// stream (monobit) and imprints an 8-bit period (serial/DFT).
    StuckAt {
        /// Which bit of each byte is stuck (0–7).
        bit: u8,
        /// The stuck value.
        value: bool,
    },
    /// Zeroes `burst_bytes` consecutive bytes out of every `period_bytes` —
    /// a marginal bus dropping whole transfers. Long all-zero runs fail the
    /// runs/longest-run/cusum tests.
    Burst {
        /// Length of the corruption cycle in bytes.
        period_bytes: u64,
        /// Bytes zeroed at the start of each cycle.
        burst_bytes: u64,
    },
    /// Environmental drift: a bias whose strength follows a temperature
    /// excursion across the delivered stream — benign at the pulse edges,
    /// worst at its midpoint, gone once the stream outlives the pulse. See
    /// [`DriftInjector`].
    Drift {
        /// The drift model.
        drift: DriftInjector,
    },
}

/// A seeded, reproducible output-byte corrupter — the `FlakySource` shim the
/// quarantine integration tests inject behind the generation seam.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultInjector {
    /// The corruption mode.
    pub mode: FaultMode,
    /// Seed of the per-byte corruption hash ([`FaultMode::Bias`] and
    /// [`FaultMode::Drift`] draw randomness; the other modes are
    /// offset-deterministic).
    pub seed: u64,
    /// If `true`, a stream [restart](crate::stream::ConditionedStream::restart)
    /// (every backend's `recharacterize`) removes the injector — modelling
    /// a fault the controller routes around by re-selecting the segment
    /// (the monthly re-characterisation of Section 8). If `false`, the fault is
    /// persistent and a quarantined shard can never requalify.
    pub cleared_on_recharacterize: bool,
}

impl FaultInjector {
    /// A bias fault targeting the given ones fraction.
    pub fn bias(ones_fraction: f64, seed: u64) -> Self {
        FaultInjector {
            mode: FaultMode::Bias { ones_fraction },
            seed,
            cleared_on_recharacterize: false,
        }
    }

    /// A stuck-at fault on one bit line of every byte.
    pub fn stuck_at(bit: u8, value: bool) -> Self {
        assert!(bit < 8, "a byte has bit positions 0-7, got {bit}");
        FaultInjector { mode: FaultMode::StuckAt { bit, value }, seed: 0, cleared_on_recharacterize: false }
    }

    /// A periodic burst-erasure fault.
    ///
    /// # Panics
    ///
    /// Panics if `burst_bytes > period_bytes` or `period_bytes == 0`.
    pub fn burst(period_bytes: u64, burst_bytes: u64) -> Self {
        assert!(
            period_bytes > 0 && burst_bytes <= period_bytes,
            "burst {burst_bytes} must fit its period {period_bytes}"
        );
        FaultInjector {
            mode: FaultMode::Burst { period_bytes, burst_bytes },
            seed: 0,
            cleared_on_recharacterize: false,
        }
    }

    /// A time-varying environmental-drift fault (see [`DriftInjector`]).
    /// Usually *not* marked [`transient`](Self::transient): the point of
    /// drift is that recharacterisation alone does not fix it — the shard
    /// recovers only when the environment does (the stream outlives the
    /// pulse).
    pub fn drift(drift: DriftInjector, seed: u64) -> Self {
        FaultInjector { mode: FaultMode::Drift { drift }, seed, cleared_on_recharacterize: false }
    }

    /// Marks this fault as transient: recharacterisation clears it (the
    /// re-selected segment / refreshed thresholds route around the damage).
    pub fn transient(mut self) -> Self {
        self.cleared_on_recharacterize = true;
        self
    }

    /// Corrupts `out`, which holds the output bytes at absolute stream
    /// offset `offset` (bytes delivered before this call). Pure in
    /// `(self, offset)`: slicing the stream differently yields identical
    /// corruption.
    pub fn corrupt(&self, offset: u64, out: &mut [u8]) {
        match self.mode {
            FaultMode::Bias { ones_fraction } => {
                // Per-bit Bernoulli(2f−1) OR mask from a per-byte hash:
                // P(bit = 1) = 0.5·(1−d) + d = f for unbiased input.
                let d = (2.0 * ones_fraction.clamp(0.5, 1.0) - 1.0).clamp(0.0, 1.0);
                let threshold = (d * 256.0).round().min(255.0) as u8;
                for (i, byte) in out.iter_mut().enumerate() {
                    let h = splitmix64(self.seed ^ (offset + i as u64));
                    *byte |= bernoulli_or_mask(h, threshold);
                }
            }
            FaultMode::StuckAt { bit, value } => {
                let mask = 1u8 << bit;
                for byte in out.iter_mut() {
                    if value {
                        *byte |= mask;
                    } else {
                        *byte &= !mask;
                    }
                }
            }
            FaultMode::Burst { period_bytes, burst_bytes } => {
                for (i, byte) in out.iter_mut().enumerate() {
                    if (offset + i as u64) % period_bytes < burst_bytes {
                        *byte = 0;
                    }
                }
            }
            FaultMode::Drift { drift } => {
                // Same OR-mask construction as Bias, but the threshold is a
                // function of the (step-quantised) offset — purity in
                // (seed, absolute offset) is preserved because the threshold
                // depends on the step index alone. The slice is processed
                // one threshold step at a time, so the quantisation
                // arithmetic runs per step while the inner run is the same
                // tight hash + mask loop as Bias.
                let step = drift.step_bytes.max(1);
                let mut i = 0usize;
                while i < out.len() {
                    let at = offset + i as u64;
                    let threshold = drift.mask_threshold_at(at);
                    let run = ((step - at % step) as usize).min(out.len() - i);
                    if threshold != 0 {
                        for (j, byte) in out[i..i + run].iter_mut().enumerate() {
                            let h = splitmix64(self.seed ^ (at + j as u64));
                            *byte |= bernoulli_or_mask(h, threshold);
                        }
                    }
                    i += run;
                }
            }
        }
    }
}

/// The SplitMix64 finalizer — one well-mixed word per output byte index.
fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-bit Bernoulli OR mask: bit `i` is set iff byte `i` of `h` is below
/// `threshold`, so each bit is independently 1 with probability
/// `threshold / 256` when `h` is uniform.
///
/// SWAR formulation of the eight byte-compares (per-lane unsigned `<` via a
/// borrow-isolated subtract, then a multiply-gather of the lane verdicts),
/// bit-identical to the scalar loop it replaced — `corrupt` runs this once
/// per output byte, and the scalar version dominated the fault path's cost
/// (the `rng_service_under_drift` bench gates the result). Lane `i`'s
/// verdict is `(h_i < t)`: lanes differing in their high bit are decided by
/// it alone (`!h & t`), equal-high-bit lanes by the borrow of the low
/// 7-bit subtract (`z`'s high bit is set iff `h_i^low ≥ t^low`, the `| H`
/// keeping every lane's subtract from borrowing into its neighbour).
fn bernoulli_or_mask(h: u64, threshold: u8) -> u8 {
    const H: u64 = 0x8080_8080_8080_8080;
    let t = 0x0101_0101_0101_0101u64.wrapping_mul(threshold as u64);
    let z = (h | H).wrapping_sub(t & !H);
    let lt = ((!h & t) | (!(h ^ t) & !z)) & H;
    (lt.wrapping_mul(0x0002_0408_1020_4081) >> 56) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn unbiased_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (rng.gen::<u64>() & 0xFF) as u8).collect()
    }

    #[test]
    fn bernoulli_or_mask_matches_the_scalar_byte_compares() {
        // The SWAR lanes must agree with the definition — bit i set iff
        // byte i of the hash is below the threshold — for every threshold
        // (0 and 255 are the borrow edge cases) over well-mixed hashes plus
        // the all-lanes-equal corner words.
        let mut rng = StdRng::seed_from_u64(0x5A5A);
        for threshold in 0..=255u8 {
            let corners =
                [0u64, u64::MAX, 0x8080_8080_8080_8080, 0x7F7F_7F7F_7F7F_7F7F];
            for h in corners.into_iter().chain((0..64).map(|_| rng.gen::<u64>())) {
                let mut reference = 0u8;
                for bit in 0..8 {
                    if (((h >> (8 * bit)) & 0xFF) as u8) < threshold {
                        reference |= 1 << bit;
                    }
                }
                assert_eq!(
                    bernoulli_or_mask(h, threshold),
                    reference,
                    "h={h:#018x} threshold={threshold}"
                );
            }
        }
    }

    fn ones_fraction(bytes: &[u8]) -> f64 {
        let ones: u32 = bytes.iter().map(|b| b.count_ones()).sum();
        ones as f64 / (bytes.len() * 8) as f64
    }

    #[test]
    fn bias_mode_hits_its_target_ones_fraction() {
        for target in [0.55, 0.6, 0.75, 0.9] {
            let mut bytes = unbiased_bytes(64 * 1024, 1);
            FaultInjector::bias(target, 7).corrupt(0, &mut bytes);
            let got = ones_fraction(&bytes);
            assert!(
                (got - target).abs() < 0.01,
                "target {target}, got {got} (quantised mask density)"
            );
        }
    }

    #[test]
    fn bias_never_clears_bits() {
        let clean = unbiased_bytes(4096, 2);
        let mut corrupted = clean.clone();
        FaultInjector::bias(0.7, 3).corrupt(100, &mut corrupted);
        for (c, d) in clean.iter().zip(&corrupted) {
            assert_eq!(c & d, *c, "bias is an OR mask: every clean one survives");
        }
    }

    #[test]
    fn corruption_is_slicing_invariant_and_seed_deterministic() {
        for injector in [
            FaultInjector::bias(0.8, 42),
            FaultInjector::stuck_at(3, true),
            FaultInjector::burst(64, 16),
        ] {
            let clean = unbiased_bytes(3000, 4);
            let mut whole = clean.clone();
            injector.corrupt(500, &mut whole);
            // Same seed and offsets, arbitrary chunking: identical bytes.
            let mut chunked = clean.clone();
            let mut offset = 500u64;
            for chunk in chunked.chunks_mut(17) {
                injector.corrupt(offset, chunk);
                offset += chunk.len() as u64;
            }
            assert_eq!(whole, chunked, "{:?}", injector.mode);
            // Replays exactly.
            let mut again = clean.clone();
            injector.corrupt(500, &mut again);
            assert_eq!(whole, again);
        }
        // A different seed produces a different bias mask.
        let clean = unbiased_bytes(3000, 4);
        let (mut a, mut b) = (clean.clone(), clean);
        FaultInjector::bias(0.8, 1).corrupt(0, &mut a);
        FaultInjector::bias(0.8, 2).corrupt(0, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn stuck_at_pins_exactly_one_bit_per_byte() {
        let mut bytes = unbiased_bytes(4096, 5);
        let clean = bytes.clone();
        FaultInjector::stuck_at(5, false).corrupt(0, &mut bytes);
        for (c, d) in clean.iter().zip(&bytes) {
            assert_eq!(d & (1 << 5), 0, "bit 5 stuck low");
            assert_eq!(c & !(1 << 5), d & !(1 << 5), "other bits untouched");
        }
        // The induced bias is the analytic 1/16.
        let frac = ones_fraction(&bytes);
        assert!((frac - (0.5 - 1.0 / 16.0)).abs() < 0.01, "ones fraction {frac}");
    }

    #[test]
    fn burst_zeroes_the_expected_fraction_at_the_expected_offsets() {
        let mut bytes = vec![0xFFu8; 1000];
        FaultInjector::burst(100, 25).corrupt(50, &mut bytes);
        let zeroed = bytes.iter().filter(|&&b| b == 0).count();
        // Offsets 50..1050: each 100-byte period zeroes its first 25.
        assert_eq!(zeroed, 250);
        assert_eq!(bytes[49], 0xFF, "stream offset 99 is outside every burst");
        assert_eq!(bytes[50], 0, "stream offset 100 opens a burst");
        assert_eq!(bytes[74], 0, "stream offset 124 is the burst's last byte");
        assert_eq!(bytes[75], 0xFF, "stream offset 125 is past the burst");
    }

    #[test]
    fn zero_length_burst_corrupts_nothing() {
        // burst(n, 0) is legal and must be the identity — the degenerate
        // configuration a sweep over burst lengths naturally produces.
        let clean = unbiased_bytes(4096, 9);
        let mut bytes = clean.clone();
        FaultInjector::burst(64, 0).corrupt(123, &mut bytes);
        assert_eq!(bytes, clean);
    }

    #[test]
    fn burst_spanning_a_slice_boundary_is_seamless() {
        // A burst that opens in one fill_bytes slice and closes in the next
        // must zero exactly the same bytes as a single-slice pass.
        let mut whole = vec![0xFFu8; 200];
        FaultInjector::burst(100, 30).corrupt(80, &mut whole);
        let mut sliced = vec![0xFFu8; 200];
        // Stream offsets 80..280; the burst at period offsets 100..130 spans
        // the cut between the two slices (stream offset 180 = buffer 100).
        let (a, b) = sliced.split_at_mut(105);
        let injector = FaultInjector::burst(100, 30);
        injector.corrupt(80, a);
        injector.corrupt(80 + 105, b);
        assert_eq!(sliced, whole);
        // The burst spanning the cut: stream 100..130 → buffer 20..50.
        assert!(whole[20..50].iter().all(|&b| b == 0));
        assert_eq!(whole[19], 0xFF);
        assert_eq!(whole[50], 0xFF);
    }

    fn test_drift() -> DriftInjector {
        // 35 °C adverse peak × 0.004/°C = 64% ones at the midpoint. The
        // period is step-aligned (1600 × 64) so the boundary phases are
        // exact under the step quantisation.
        DriftInjector::excursion(
            qt_dram_analog::TemperatureRamp::nominal_to(85.0),
            qt_dram_analog::TemperatureTrend::Decreasing,
            102_400,
            0.004,
        )
    }

    #[test]
    fn drift_is_benign_at_pulse_edges_and_worst_at_the_peak() {
        let drift = test_drift();
        assert_eq!(drift.ones_fraction_at(0), 0.5, "pulse start is at base temperature");
        assert!((drift.ones_fraction_at(51_200) - 0.64).abs() < 1e-12, "peak adversity at midpoint");
        assert_eq!(drift.ones_fraction_at(102_400), 0.5, "pulse end returns to base");
        assert_eq!(drift.ones_fraction_at(u64::MAX / 2), 0.5, "one-shot: benign forever after");
        // Quarter points are halfway up/down the triangle.
        assert!((drift.ones_fraction_at(25_600) - 0.57).abs() < 1e-12);
        assert!((drift.ones_fraction_at(76_800) - 0.57).abs() < 1e-12);
    }

    #[test]
    fn drift_trend_decides_which_excursions_hurt() {
        // A Trend-1 (Increasing) module is *helped* by a heat pulse: no bias
        // anywhere along the same ramp.
        let benign = DriftInjector::excursion(
            qt_dram_analog::TemperatureRamp::nominal_to(85.0),
            qt_dram_analog::TemperatureTrend::Increasing,
            100_000,
            0.004,
        );
        for offset in [0, 25_000, 50_000, 75_000] {
            assert_eq!(benign.ones_fraction_at(offset), 0.5);
        }
        let clean = unbiased_bytes(4096, 10);
        let mut bytes = clean.clone();
        FaultInjector::drift(benign, 3).corrupt(48_000, &mut bytes);
        assert_eq!(bytes, clean, "a favourable excursion corrupts nothing");
        // The same module cooled instead of heated degrades.
        let cold = DriftInjector::excursion(
            qt_dram_analog::TemperatureRamp { base_c: 50.0, peak_c: 15.0 },
            qt_dram_analog::TemperatureTrend::Increasing,
            102_400,
            0.004,
        );
        assert!((cold.ones_fraction_at(51_200) - 0.64).abs() < 1e-12);
    }

    #[test]
    fn drift_corruption_tracks_the_local_ones_fraction() {
        let injector = FaultInjector::drift(test_drift(), 11);
        // 16 KiB straddling the peak: measured density ≈ the peak target.
        let mut peak = unbiased_bytes(16 * 1024, 12);
        injector.corrupt(51_200 - 8 * 1024, &mut peak);
        let got = ones_fraction(&peak);
        assert!((got - 0.64).abs() < 0.01, "peak-region ones fraction {got}");
        // The same bytes past the pulse stay unbiased.
        let clean = unbiased_bytes(16 * 1024, 12);
        let mut after = clean.clone();
        injector.corrupt(200_000, &mut after);
        assert_eq!(after, clean);
    }

    #[test]
    fn drift_corruption_is_slicing_invariant() {
        // Mirrors corruption_is_slicing_invariant_and_seed_deterministic for
        // the offset-dependent mode: chunk cuts also cross step boundaries.
        let injector = FaultInjector::drift(test_drift(), 42);
        let clean = unbiased_bytes(3000, 13);
        let mut whole = clean.clone();
        injector.corrupt(49_000, &mut whole);
        let mut chunked = clean.clone();
        let mut offset = 49_000u64;
        for chunk in chunked.chunks_mut(17) {
            injector.corrupt(offset, chunk);
            offset += chunk.len() as u64;
        }
        assert_eq!(whole, chunked);
        let mut again = clean.clone();
        injector.corrupt(49_000, &mut again);
        assert_eq!(whole, again, "replays exactly");
        // Drift is an OR mask: every clean one survives.
        for (c, d) in clean.iter().zip(&whole) {
            assert_eq!(c & d, *c);
        }
    }

    #[test]
    fn transient_flag_round_trips() {
        assert!(!FaultInjector::bias(0.6, 1).cleared_on_recharacterize);
        assert!(FaultInjector::bias(0.6, 1).transient().cleared_on_recharacterize);
    }

    #[test]
    #[should_panic(expected = "bit positions")]
    fn stuck_at_rejects_out_of_range_bits() {
        let _ = FaultInjector::stuck_at(8, true);
    }
}
