//! Continuous in-service validation: the per-shard tap that grades served
//! bytes with the NIST SP 800-22 battery, off the delivery path.
//!
//! ## How the loop closes
//!
//! ```text
//!  worker (shard i)                          grader (shard i)
//!  ────────────────                          ────────────────
//!  generate batch ──▶ deliver completions    recv (epoch, bytes)
//!        │                                      │ accumulate into the
//!        └── tap: copy batch bytes ───────────▶ │ shard's 50 kb window
//!            (shard i's own bounded             ▼
//!             queue; never blocks        window full → serial battery →
//!             delivery unless lossless)  pass/fail →
//!                                        ShardHealth::record_window
//!                                                  │ bound crossed
//!                                                  ▼
//!                                            quarantine: shard leaves
//!                                            placement; its queued requests
//!                                            FAIL OVER to healthy shards;
//!                                            its worker recharacterises,
//!                                            probations, readmits
//!                                            (see `health`)
//! ```
//!
//! Every shard has one long-lived grader thread next to its worker, so the
//! shards' windows are graded in parallel while each window's 15 tests run
//! serially on its grader — no thread is spawned per window, and the
//! spectral test's FFT plan is built once per process. With correlation
//! monitoring on, the graders share one
//! [`CorrelationMonitor`](crate::correlation::CorrelationMonitor) behind a
//! lock; the check is one cheap step of the same loop, not a second path.
//!
//! Quarantine composes with the rest of the degraded-mode machinery like
//! this (the full state machine is in [`crate::health`]):
//!
//! ```text
//!   trip, ≥1 healthy shard │ queued requests re-placed least-loaded
//!                          │ (stats.failed_over_requests)
//!   trip, 0 healthy shards │ queue waits; new admissions follow
//!                          │ DegradedPolicy (FailFast / Park)
//!   readmission            │ epoch bump + stranded fenced queues re-placed
//!   deadline passes        │ expiry sweep completes the ticket as Expired
//!   drain (shutdown)       │ fenced shards may serve their own stranded
//!                          │ queue — the documented last resort
//! ```
//!
//! The tap is a **copy**, so validation never perturbs the served streams —
//! the bit-identical-reassembly determinism contract holds with validation
//! on or off. In the default lossy mode each shard's tap queue is bounded
//! and a full queue skips the batch (counted in
//! [`ValidationStats::bytes_dropped`](crate::stats::ValidationStats)):
//! a grader grades roughly 15–30 Mb/s (one 50 kb window per 1.7–3.5 ms,
//! depending on the host) while a shard can generate several times that, and sampled coverage that never stalls delivery is
//! the right trade for a production service. On a core-constrained host,
//! [`ValidationConfig::target_coverage`] further budgets the graders' CPU
//! share by byte-quota sampling (grading costs several times generation per
//! byte). Tests set [`ValidationConfig::lossless_tap`] instead, which parks
//! the worker — including that batch's completions, delivered after the
//! tap — until its grader catches up, making window composition (and
//! therefore every quarantine decision) a deterministic function of the
//! served streams at the cost of coupling delivery latency to validation
//! rate.
//!
//! A shard's windows are graded in stream order by construction: one
//! worker feeds one FIFO queue drained by one grader, so a shard's verdict
//! sequence is exactly what a serial [`WindowedBattery`] reading its
//! stream would produce.

use crate::health::HealthPolicy;
use qt_nist_sts::{Significance, WindowReport, WindowedBattery};
use quac_trng::characterize::CharacterizationConfig;

/// Tuning of the continuous-validation loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationConfig {
    /// Master switch. Off by default: the service behaves exactly as the
    /// pre-validation service (no tap copies, no grader threads).
    pub enabled: bool,
    /// Bits per validation window (must be a whole number of bytes).
    /// Default 50 kb — the battery-bench window, a few milliseconds to grade
    /// serially on one core (3.5 ms median on a 2-vCPU Xeon KVM guest,
    /// release build).
    pub window_bits: usize,
    /// Significance level windows are graded at (default: the paper's
    /// α = 0.001).
    pub alpha: Significance,
    /// Quarantine/readmission thresholds.
    pub policy: HealthPolicy,
    /// `false` (default): a full tap queue skips the batch and counts the
    /// bytes as dropped. `true`: the worker parks until its grader catches
    /// up — full coverage and deterministic window composition, at
    /// the cost of coupling delivery rate to validation rate.
    pub lossless_tap: bool,
    /// Total capacity of the tap, in batches, split evenly across the
    /// shards' grader queues (at least one batch per shard).
    pub tap_queue_batches: usize,
    /// Fraction of served bytes the lossy tap aims to grade (clamped to
    /// `[0, 1]`; ignored in lossless mode, which always grades everything).
    /// Default 1.0: tap whatever the queue admits. Grading costs several
    /// times more CPU per byte than generation in this simulation, so a
    /// core-constrained host budgets validation by sampling — e.g. 0.005
    /// keeps the graders' CPU share in the low single digits while still
    /// grading a window every few MB per shard; a host with spare cores can
    /// leave it at 1.0.
    pub target_coverage: f64,
    /// Characterisation configuration a quarantined shard requalifies with.
    pub recharacterization: CharacterizationConfig,
    /// Cross-correlation monitoring across shards (off by default). When
    /// enabled, the graders compare same-index windows of different
    /// shards and force-quarantines both members of a pair whose streams
    /// are measurably coupled — the common-mode fault individual-stream
    /// validation cannot see. See [`crate::correlation`].
    pub correlation: crate::correlation::CorrelationConfig,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig {
            enabled: false,
            window_bits: 50_000,
            alpha: Significance::PAPER,
            policy: HealthPolicy::default(),
            lossless_tap: false,
            tap_queue_batches: 64,
            target_coverage: 1.0,
            recharacterization: CharacterizationConfig::fast(),
            correlation: crate::correlation::CorrelationConfig::default(),
        }
    }
}

/// The lossy tap's coverage budget: may this batch be tapped, given that
/// `taken` of `served` bytes (both *excluding* this batch) were tapped so
/// far and the target is `coverage` of the stream? Pure, so the quota rule
/// is unit-testable: admitting the batch must not push tapped bytes beyond
/// the budget earned by the stream served so far (batch included).
pub(crate) fn tap_quota_allows(taken: u64, served: u64, batch: u64, coverage: f64) -> bool {
    let coverage = coverage.clamp(0.0, 1.0);
    (taken + batch) as f64 <= coverage * (served + batch) as f64
}

impl ValidationConfig {
    /// Validation on with the default window/policy.
    pub fn enabled() -> Self {
        ValidationConfig { enabled: true, ..ValidationConfig::default() }
    }

    /// Capacity of each shard's grader queue, in batches:
    /// [`tap_queue_batches`](Self::tap_queue_batches) split evenly across
    /// `shards`, at least one each — so total tap buffering stays within
    /// `max(tap_queue_batches, shards)` batches however many shards run.
    pub(crate) fn tap_queue_per_shard(&self, shards: usize) -> usize {
        (self.tap_queue_batches / shards).max(1)
    }
}

/// One tapped delivery: a copy of the bytes a shard just served, tagged
/// with the shard's stream epoch at serving time (epochs bump at
/// readmission, so fenced-era bytes lingering in the tap queue can never
/// grade a freshly requalified shard).
#[derive(Debug)]
pub(crate) struct TapChunk {
    pub epoch: u64,
    pub bytes: Vec<u8>,
}

/// One shard's grading engine, owned by that shard's grader thread: a
/// serial [`WindowedBattery`] fed in stream order, plus the stream epoch
/// its pending partial window belongs to.
#[derive(Debug)]
pub(crate) struct ShardGrader {
    battery: WindowedBattery,
    epoch: u64,
}

impl ShardGrader {
    pub fn new(window_bits: usize) -> Self {
        ShardGrader { battery: WindowedBattery::new(window_bits), epoch: 0 }
    }

    /// Accumulates a chunk of the shard's current stream; calls `on_window`
    /// for every window it completes, in stream order. A chunk from a newer
    /// epoch than the pending partial window starts a fresh window: the
    /// stream restarted at readmission, so pre-quarantine bytes must not
    /// grade it.
    pub fn ingest(&mut self, chunk: &TapChunk, on_window: impl FnMut(WindowReport)) {
        if chunk.epoch != self.epoch {
            self.battery.reset();
            self.epoch = chunk.epoch;
        }
        self.battery.push(&chunk.bytes, on_window);
    }

    /// Discards the pending partial window (the stream is discontinuous:
    /// quarantined, about to be recharacterised).
    pub fn reset(&mut self) {
        self.battery.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_nist_sts::Significance;

    #[test]
    fn default_is_disabled_and_sane() {
        let cfg = ValidationConfig::default();
        assert!(!cfg.enabled);
        assert_eq!(cfg.window_bits % 8, 0);
        assert!(cfg.policy.max_consecutive_failures >= 1);
        assert!((cfg.target_coverage - 1.0).abs() < 1e-12);
        assert!(ValidationConfig::enabled().enabled);
    }

    #[test]
    fn tap_quota_tracks_the_coverage_target() {
        // Full coverage: every batch is within budget.
        assert!(tap_quota_allows(0, 0, 100, 1.0));
        assert!(tap_quota_allows(1000, 1000, 100, 1.0));
        // Zero coverage: nothing is.
        assert!(!tap_quota_allows(0, 0, 100, 0.0));
        // Half coverage: alternating admit/skip stays near the target.
        let mut taken = 0u64;
        let mut served = 0u64;
        let mut admitted = 0u64;
        for _ in 0..1000 {
            if tap_quota_allows(taken, served, 100, 0.5) {
                taken += 100;
                admitted += 1;
            }
            served += 100;
        }
        assert_eq!(admitted, 500);
        // Out-of-range coverage clamps instead of misbehaving.
        assert!(tap_quota_allows(0, 1000, 10, 7.5));
        assert!(!tap_quota_allows(0, 1000, 10, -1.0));
    }

    #[test]
    fn tap_queue_splits_across_shards() {
        let cfg = ValidationConfig { tap_queue_batches: 64, ..ValidationConfig::default() };
        assert_eq!(cfg.tap_queue_per_shard(1), 64);
        assert_eq!(cfg.tap_queue_per_shard(2), 32);
        assert_eq!(cfg.tap_queue_per_shard(3), 21);
        // Every shard gets at least one slot, even past the total.
        assert_eq!(cfg.tap_queue_per_shard(100), 1);
        let empty = ValidationConfig { tap_queue_batches: 0, ..cfg };
        assert_eq!(empty.tap_queue_per_shard(2), 1);
    }

    #[test]
    fn shard_grader_windows_in_order_and_restarts_on_reset_or_epoch() {
        let chunk = |epoch, len| TapChunk { epoch, bytes: vec![0xA5; len] };
        let mut g = ShardGrader::new(8_000);
        let mut windows = Vec::new();
        // 999 bytes: no window yet; one more completes window 0.
        g.ingest(&chunk(0, 999), |w| windows.push(w.index));
        assert!(windows.is_empty());
        g.ingest(&chunk(0, 1), |w| windows.push(w.index));
        assert_eq!(windows, vec![0]);
        // Reset drops the partial accumulation.
        g.ingest(&chunk(0, 999), |_| panic!("no window"));
        g.reset();
        g.ingest(&chunk(0, 999), |_| panic!("still partial"));
        // A new epoch drops it too: the stream restarted.
        g.ingest(&chunk(1, 1), |_| panic!("the epoch-0 partial window was kept"));
        g.ingest(&chunk(1, 998), |_| panic!("still partial"));
        g.ingest(&chunk(1, 1), |w| windows.push(w.index));
        assert_eq!(windows, vec![0, 1], "window indices keep counting across resets");
    }

    #[test]
    fn constant_windows_fail_random_windows_pass() {
        let mut g = ShardGrader::new(16_000);
        let mut verdicts = Vec::new();
        g.ingest(
            &TapChunk { epoch: 0, bytes: vec![0u8; 2000] },
            |w| verdicts.push(w.passes(Significance::PAPER)),
        );
        // A battery-grade "good" stream from the workspace PRNG.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let good: Vec<u8> = (0..2000).map(|_| (rng.gen::<u64>() & 0xFF) as u8).collect();
        g.ingest(&TapChunk { epoch: 0, bytes: good }, |w| verdicts.push(w.passes(Significance::PAPER)));
        assert_eq!(verdicts, vec![false, true]);
    }
}
