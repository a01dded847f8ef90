//! Cross-correlation health check: the windowed inter-backend statistic
//! that catches **common-mode** faults individual-stream validation cannot.
//!
//! A single shard's NIST battery grades each stream in isolation; two
//! backends corrupted by the same fault (shared voltage rail, common clock,
//! a bug replicating one stream) can both emit individually plausible bytes
//! that are *mutually* dependent. The monitor compares same-index windows of
//! different shards with a plain bit-agreement statistic: independent
//! streams agree on ~half their bits (for `w` window bits the agreement
//! fraction concentrates within ~`1/√w` of 0.5), so a sustained excursion
//! beyond [`CorrelationConfig::max_deviation`] is overwhelming evidence of
//! coupling. After [`CorrelationConfig::trip_windows`] *consecutive*
//! deviating windows a pair trips, and the graders force-quarantine
//! **both** shards — with a common-mode fault there is no telling which
//! stream is the corrupted one.
//!
//! Everything here is pure data: the monitor is a deterministic function of
//! the per-shard byte sequences it ingests, so trip behaviour is
//! property-testable without threads (see the correlation proptests).

use std::collections::VecDeque;

/// Tuning of the cross-correlation monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelationConfig {
    /// Master switch (off by default — the monitor costs one window buffer
    /// per shard and a popcount pass per window pair).
    pub enabled: bool,
    /// Bytes per comparison window. Default 1024 (8192 bits: independent
    /// streams deviate from 0.5 agreement by ~0.0055 σ, so the default
    /// deviation bound sits ~36σ out).
    pub window_bytes: usize,
    /// A window pair deviates when `|agreement − 0.5|` exceeds this.
    pub max_deviation: f64,
    /// Consecutive deviating windows after which a shard pair trips.
    pub trip_windows: u32,
    /// Completed windows retained per shard awaiting a slower peer's
    /// same-index window; older ones are dropped (bounded memory — a pair
    /// whose streams drift further apart than this simply isn't compared).
    pub max_pending_windows: usize,
}

impl Default for CorrelationConfig {
    fn default() -> Self {
        CorrelationConfig {
            enabled: false,
            window_bytes: 1024,
            max_deviation: 0.2,
            trip_windows: 3,
            max_pending_windows: 8,
        }
    }
}

impl CorrelationConfig {
    /// Correlation monitoring on with the default window/thresholds.
    pub fn enabled() -> Self {
        CorrelationConfig { enabled: true, ..CorrelationConfig::default() }
    }
}

/// Fraction of bit positions on which `a` and `b` agree (both slices must
/// have equal length; 1.0 for identical, ~0.5 for independent streams).
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn bit_agreement(a: &[u8], b: &[u8]) -> f64 {
    assert_eq!(a.len(), b.len(), "agreement needs equal-length windows");
    assert!(!a.is_empty(), "agreement of an empty window is undefined");
    let differing: u32 = a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum();
    1.0 - f64::from(differing) / (8.0 * a.len() as f64)
}

/// What one ingest call observed: windows compared and shard pairs tripped.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct CorrelationOutcome {
    /// Same-index window pairs compared by this call.
    pub compared: u64,
    /// Shard pairs `(a, b)` with `a < b` whose deviation streak reached the
    /// trip bound during this call. A pair reports at most once until one
    /// of its shards is reset.
    pub tripped: Vec<(usize, usize)>,
}

/// The monitor: per-shard window assembly plus per-pair deviation streaks.
#[derive(Debug)]
pub struct CorrelationMonitor {
    cfg: CorrelationConfig,
    shard_count: usize,
    /// Bytes accumulated toward each shard's next window.
    partial: Vec<Vec<u8>>,
    /// Index of the next window each shard will complete (since its last
    /// reset).
    next_index: Vec<u64>,
    /// Completed windows retained per shard, oldest first, as
    /// `(window_index, bytes)`.
    pending: Vec<VecDeque<(u64, Vec<u8>)>>,
    /// Per-pair consecutive-deviation streak, indexed `a * shards + b`.
    streaks: Vec<u32>,
    /// Pairs already reported (suppressed until a reset).
    tripped: Vec<bool>,
}

impl CorrelationMonitor {
    /// A monitor over `shard_count` shards.
    pub fn new(shard_count: usize, cfg: CorrelationConfig) -> Self {
        assert!(cfg.window_bytes > 0, "correlation windows need at least one byte");
        CorrelationMonitor {
            cfg,
            shard_count,
            partial: vec![Vec::new(); shard_count],
            next_index: vec![0; shard_count],
            pending: vec![VecDeque::new(); shard_count],
            streaks: vec![0; shard_count * shard_count],
            tripped: vec![false; shard_count * shard_count],
        }
    }

    fn pair(&self, a: usize, b: usize) -> usize {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        lo * self.shard_count + hi
    }

    /// Feeds served bytes of one shard; completes windows and compares each
    /// against every peer's same-index window still pending.
    pub fn ingest(&mut self, shard: usize, mut bytes: &[u8]) -> CorrelationOutcome {
        let mut outcome = CorrelationOutcome::default();
        while !bytes.is_empty() {
            let room = self.cfg.window_bytes - self.partial[shard].len();
            let take = room.min(bytes.len());
            self.partial[shard].extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if self.partial[shard].len() < self.cfg.window_bytes {
                break;
            }
            let window = std::mem::take(&mut self.partial[shard]);
            let index = self.next_index[shard];
            self.next_index[shard] += 1;
            self.compare_window(shard, index, &window, &mut outcome);
            self.pending[shard].push_back((index, window));
            while self.pending[shard].len() > self.cfg.max_pending_windows.max(1) {
                self.pending[shard].pop_front();
            }
        }
        outcome
    }

    fn compare_window(
        &mut self,
        shard: usize,
        index: u64,
        window: &[u8],
        outcome: &mut CorrelationOutcome,
    ) {
        for peer in 0..self.shard_count {
            if peer == shard {
                continue;
            }
            let Some((_, peer_window)) =
                self.pending[peer].iter().find(|(i, _)| *i == index)
            else {
                continue;
            };
            outcome.compared += 1;
            let deviates =
                (bit_agreement(window, peer_window) - 0.5).abs() > self.cfg.max_deviation;
            let pair = self.pair(shard, peer);
            if deviates {
                self.streaks[pair] += 1;
                if self.streaks[pair] >= self.cfg.trip_windows.max(1) && !self.tripped[pair] {
                    self.tripped[pair] = true;
                    outcome.tripped.push((shard.min(peer), shard.max(peer)));
                }
            } else {
                self.streaks[pair] = 0;
            }
        }
    }

    /// Forgets one shard's accumulation and every streak involving it — its
    /// stream is discontinuous (quarantined, about to be recharacterised),
    /// so pre-fence windows must not convict the post-readmission stream.
    pub fn reset_shard(&mut self, shard: usize) {
        self.partial[shard].clear();
        self.pending[shard].clear();
        self.next_index[shard] = 0;
        for peer in 0..self.shard_count {
            if peer != shard {
                let pair = self.pair(shard, peer);
                self.streaks[pair] = 0;
                self.tripped[pair] = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn cfg() -> CorrelationConfig {
        CorrelationConfig { enabled: true, window_bytes: 64, ..CorrelationConfig::default() }
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| (rng.gen::<u64>() & 0xFF) as u8).collect()
    }

    #[test]
    fn agreement_statistic_is_sane() {
        assert!((bit_agreement(&[0xFF; 8], &[0xFF; 8]) - 1.0).abs() < 1e-12);
        assert!(bit_agreement(&[0xFF; 8], &[0x00; 8]).abs() < 1e-12);
        let a = random_bytes(1, 4096);
        let b = random_bytes(2, 4096);
        assert!((bit_agreement(&a, &b) - 0.5).abs() < 0.05);
    }

    #[test]
    fn identical_streams_trip_within_the_bound() {
        let c = cfg();
        let mut m = CorrelationMonitor::new(2, c);
        let stream = random_bytes(3, c.window_bytes * c.trip_windows as usize);
        let mut trips = Vec::new();
        for chunk in stream.chunks(c.window_bytes) {
            m.ingest(0, chunk);
            trips.extend(m.ingest(1, chunk).tripped);
        }
        assert_eq!(trips, vec![(0, 1)], "identical streams must trip exactly once");
        // Once tripped, the pair stays silent until a reset.
        m.ingest(0, &stream[..c.window_bytes]);
        let again = m.ingest(1, &stream[..c.window_bytes]);
        assert_eq!(again.tripped, vec![]);
        assert_eq!(again.compared, 1);
    }

    #[test]
    fn independent_streams_never_trip_and_resets_clear_streaks() {
        let c = cfg();
        let mut m = CorrelationMonitor::new(2, c);
        for i in 0..32 {
            let out0 = m.ingest(0, &random_bytes(100 + i, c.window_bytes));
            let out1 = m.ingest(1, &random_bytes(200 + i, c.window_bytes));
            assert!(out0.tripped.is_empty() && out1.tripped.is_empty());
        }
        // Two deviating windows, then a reset: the streak must restart, so
        // a single further deviating window cannot trip.
        let shared = random_bytes(7, c.window_bytes);
        m.ingest(0, &shared);
        m.ingest(1, &shared);
        m.ingest(0, &shared);
        m.ingest(1, &shared);
        m.reset_shard(1);
        m.ingest(0, &shared);
        let out = m.ingest(1, &shared);
        assert!(out.tripped.is_empty(), "reset must clear the deviation streak");
    }

    #[test]
    fn window_alignment_survives_uneven_chunking() {
        let c = cfg();
        let mut m = CorrelationMonitor::new(2, c);
        let stream = random_bytes(9, c.window_bytes * 4);
        // Shard 0 receives the stream in awkward slices, shard 1 in whole
        // windows: same windows, so the pair still trips.
        let mut trips = Vec::new();
        for chunk in stream.chunks(17) {
            trips.extend(m.ingest(0, chunk).tripped);
        }
        for chunk in stream.chunks(c.window_bytes) {
            trips.extend(m.ingest(1, chunk).tripped);
        }
        assert_eq!(trips, vec![(0, 1)]);
    }

    proptest! {
        /// Satellite property: two shards fed one shared seeded stream trip
        /// within `trip_windows` comparisons; independently seeded streams
        /// never trip (the agreement statistic concentrates at 0.5).
        #[test]
        fn prop_shared_streams_trip_and_independent_streams_do_not(
            seed in any::<u64>(),
            windows in 4usize..12,
        ) {
            let c = cfg();
            let mut shared = CorrelationMonitor::new(2, c);
            let mut independent = CorrelationMonitor::new(2, c);
            let mut first_trip = None;
            for w in 0..windows {
                let common = random_bytes(seed ^ w as u64, c.window_bytes);
                shared.ingest(0, &common);
                let out = shared.ingest(1, &common);
                if first_trip.is_none() && !out.tripped.is_empty() {
                    first_trip = Some(w + 1);
                }
                independent.ingest(0, &random_bytes(seed ^ (w as u64) << 1, c.window_bytes));
                let ind = independent.ingest(
                    1,
                    &random_bytes(!seed ^ (w as u64) << 1, c.window_bytes),
                );
                prop_assert!(ind.tripped.is_empty(), "independent streams tripped");
            }
            prop_assert_eq!(first_trip, Some(c.trip_windows as usize));
        }
    }
}
