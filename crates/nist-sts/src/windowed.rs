//! Streaming, buffer-reusing windows over a served byte stream.
//!
//! The continuous-validation loop of the RNG service (DR-STRaNGe's
//! system argument: validate what you serve, fence off what fails) taps
//! delivered bytes and runs the word-parallel battery on fixed-size
//! windows. This module owns the windowing: bytes are accumulated into a
//! reused byte buffer, and every time a full window is available it is
//! packed into a reused [`BitVec`] and run through
//! [`crate::run_all_tests_serial`] — no per-window allocation beyond the
//! battery's own internals.
//!
//! A window is graded on the pushing thread, one test after another: a
//! 50 kb window's battery is too short to pay for spawning workers per
//! window. Parallelism belongs across streams instead — the RNG service
//! gives each shard its own battery on its own long-lived grader thread.
//!
//! Windows are defined purely by arrival order: bytes `[k·W, (k+1)·W)` of
//! everything pushed form window `k` (`W` = window bytes). A partial tail
//! window stays pending until enough bytes arrive (or [`WindowedBattery::
//! reset`] discards it, e.g. when a quarantined shard's stale bytes must
//! not leak into its post-readmission health).

use crate::{run_all_tests_serial, Significance, TestResult};
use qt_dram_core::BitVec;

/// The verdict of one completed validation window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// Zero-based index of the window within this battery's stream.
    pub index: u64,
    /// The full 15-test battery results for the window, in
    /// [`TEST_NAMES`](crate::TEST_NAMES) order.
    pub results: Vec<TestResult>,
}

impl WindowReport {
    /// `true` if every (applicable) test passes at `alpha` — the window-level
    /// pass bit the shard-health EWMA folds in.
    pub fn passes(&self, alpha: Significance) -> bool {
        self.results.iter().all(|r| r.passes(alpha))
    }

    /// The smallest p-value among the applicable tests (`1.0` if none ran).
    pub fn min_p_value(&self) -> f64 {
        self.results
            .iter()
            .filter(|r| r.is_applicable())
            .map(|r| r.p_value)
            .fold(1.0, f64::min)
    }
}

/// A streaming NIST SP 800-22 battery over fixed-size bit windows.
///
/// Feed it served bytes with [`WindowedBattery::push`]; each time a full
/// window accumulates, the battery runs and the caller's closure receives a
/// [`WindowReport`]. The byte buffer and the packed [`BitVec`] are both
/// reused across windows, so steady-state validation performs no per-window
/// heap allocation in the windowing layer.
#[derive(Debug)]
pub struct WindowedBattery {
    window_bits: usize,
    /// Accumulated bytes of the (partial) current window.
    pending: Vec<u8>,
    /// Reused packed window, always `window_bits` long.
    bits: BitVec,
    windows_completed: u64,
}

impl WindowedBattery {
    /// Creates a battery over `window_bits`-bit windows (the service default
    /// is the battery bench's 50 kb), grading each window serially on the
    /// pushing thread.
    ///
    /// # Panics
    ///
    /// Panics if `window_bits` is zero or not a multiple of 8 (windows are
    /// carved from a byte stream).
    pub fn new(window_bits: usize) -> Self {
        assert!(
            window_bits > 0 && window_bits % 8 == 0,
            "window must be a positive whole number of bytes, got {window_bits} bits"
        );
        WindowedBattery {
            window_bits,
            pending: Vec::with_capacity(window_bits / 8),
            bits: BitVec::zeros(window_bits),
            windows_completed: 0,
        }
    }

    /// The configured window length in bits.
    pub fn window_bits(&self) -> usize {
        self.window_bits
    }

    /// Bits accumulated toward the next (incomplete) window.
    pub fn pending_bits(&self) -> usize {
        self.pending.len() * 8
    }

    /// Number of full windows validated so far.
    pub fn windows_completed(&self) -> u64 {
        self.windows_completed
    }

    /// Discards the pending partial window (the window index keeps
    /// counting). Used when the stream is known to be discontinuous — e.g.
    /// a shard re-entering service after recharacterisation must not have
    /// pre-quarantine bytes grading its fresh stream.
    pub fn reset(&mut self) {
        self.pending.clear();
    }

    /// Appends served bytes; invokes `on_window` once per window completed
    /// by this push (zero or more times), in stream order.
    pub fn push(&mut self, mut bytes: &[u8], mut on_window: impl FnMut(WindowReport)) {
        let window_bytes = self.window_bits / 8;
        while !bytes.is_empty() {
            let take = (window_bytes - self.pending.len()).min(bytes.len());
            self.pending.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if self.pending.len() < window_bytes {
                return;
            }
            // Pack the window into the reused BitVec word-by-word (LSB-first
            // bytes, little-endian words — the `BitVec::from_bytes` layout).
            for (word, chunk) in
                self.bits.words_mut().iter_mut().zip(self.pending.chunks(8))
            {
                let mut le = [0u8; 8];
                le[..chunk.len()].copy_from_slice(chunk);
                *word = u64::from_le_bytes(le);
            }
            self.bits.clear_tail();
            let results = run_all_tests_serial(&self.bits);
            let report = WindowReport { index: self.windows_completed, results };
            self.windows_completed += 1;
            self.pending.clear();
            on_window(report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (rng.gen::<u64>() & 0xFF) as u8).collect()
    }

    /// Every window report must equal a from-scratch serial battery over the
    /// corresponding byte range, regardless of how the stream is chunked.
    #[test]
    fn windows_match_from_scratch_batteries_for_any_chunking() {
        const WINDOW_BITS: usize = 16_000;
        let stream = random_bytes(3 * WINDOW_BITS / 8 + 100, 7);
        let expected: Vec<Vec<TestResult>> = stream
            .chunks(WINDOW_BITS / 8)
            .filter(|c| c.len() == WINDOW_BITS / 8)
            .map(|c| run_all_tests_serial(&BitVec::from_bytes(c, WINDOW_BITS)))
            .collect();
        assert_eq!(expected.len(), 3);
        for chunking in [1usize, 7, 64, 1999, stream.len()] {
            let mut battery = WindowedBattery::new(WINDOW_BITS);
            let mut seen = Vec::new();
            for chunk in stream.chunks(chunking) {
                battery.push(chunk, |w| seen.push(w));
            }
            assert_eq!(seen.len(), 3, "chunking {chunking}");
            for (report, expected) in seen.iter().zip(&expected) {
                assert_eq!(report.results.len(), expected.len());
                for (a, b) in report.results.iter().zip(expected) {
                    assert_eq!(a.name, b.name);
                    assert_eq!(a.applicability, b.applicability);
                    assert_eq!(a.p_value.to_bits(), b.p_value.to_bits(), "{}", a.name);
                }
            }
            assert_eq!(seen[0].index, 0);
            assert_eq!(seen[2].index, 2);
            assert_eq!(battery.windows_completed(), 3);
            assert_eq!(battery.pending_bits(), 100 * 8);
        }
    }

    #[test]
    fn one_push_can_complete_multiple_windows() {
        let mut battery = WindowedBattery::new(8_000);
        let mut indices = Vec::new();
        battery.push(&random_bytes(3500, 3), |w| indices.push(w.index));
        assert_eq!(indices, vec![0, 1, 2]);
        assert_eq!(battery.pending_bits(), 500 * 8);
    }

    #[test]
    fn reset_discards_the_partial_window_only() {
        let mut battery = WindowedBattery::new(8_000);
        let mut windows = 0;
        battery.push(&random_bytes(1200, 5), |_| windows += 1);
        assert_eq!(windows, 1);
        assert_eq!(battery.pending_bits(), 200 * 8);
        battery.reset();
        assert_eq!(battery.pending_bits(), 0);
        assert_eq!(battery.windows_completed(), 1);
        // The next full window starts clean.
        battery.push(&random_bytes(1000, 6), |w| {
            assert_eq!(w.index, 1);
            windows += 1;
        });
        assert_eq!(windows, 2);
    }

    #[test]
    fn good_windows_pass_and_constant_windows_fail() {
        let mut battery = WindowedBattery::new(16_000);
        let mut verdicts = Vec::new();
        battery.push(&random_bytes(2000, 11), |w| verdicts.push(w.passes(Significance::PAPER)));
        battery.push(&vec![0xFFu8; 2000], |w| {
            assert!(w.min_p_value() < 1e-6);
            verdicts.push(w.passes(Significance::PAPER));
        });
        assert_eq!(verdicts, vec![true, false]);
    }

    #[test]
    #[should_panic(expected = "whole number of bytes")]
    fn non_byte_windows_are_rejected() {
        let _ = WindowedBattery::new(50_001);
    }
}
