//! Observability: log₂ histograms, validation counters, and the service's
//! aggregate [`ServiceStats`] snapshot.
//!
//! Everything here is plain data guarded by the service's one state lock —
//! recording is a couple of integer ops, cheap enough for the submit and
//! delivery paths — and a [`RngService::stats`](crate::RngService::stats)
//! call clones a consistent snapshot out, so tests and operators can assert
//! on queue depths, latencies, and per-shard health without stopping the
//! service.

use crate::health::ShardHealth;
use quac_trng::BackendKind;

/// Number of log₂ buckets; values at or above 2³⁰ land in the last bucket.
const BUCKETS: usize = 32;

/// A log₂-bucketed histogram of non-negative integer samples (queue depths
/// in requests, latencies in microseconds). Bucket 0 holds zeros; bucket
/// `i ≥ 1` holds values in `[2^(i−1), 2^i)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(value: u64) -> usize {
        ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples recorded (saturating — exact until ~18 exabytes
    /// of accumulated value).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// An upper bound on the `q`-quantile (0 ≤ q ≤ 1): the inclusive upper
    /// edge of the first bucket whose cumulative count reaches `q·count`,
    /// clamped to the observed maximum. Returns 0 for an empty histogram.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // The final bucket is open-ended ([2^30, u64::MAX]), so its
                // only honest upper bound is the observed maximum.
                let edge = if i == 0 {
                    0
                } else if i == BUCKETS - 1 {
                    self.max
                } else {
                    (1u64 << i) - 1
                };
                return edge.min(self.max);
            }
        }
        self.max
    }

    /// The per-bucket counts (bucket 0 = zeros, bucket `i` = `[2^(i−1), 2^i)`).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// The samples recorded since `earlier` (an older snapshot of the same
    /// histogram): per-bucket counts, count, and sum subtract; `max` is the
    /// lifetime maximum of `self` — a histogram does not remember when its
    /// max was recorded, so the window's true max is unrecoverable and this
    /// reports the honest upper bound instead.
    pub fn delta_since(&self, earlier: &Histogram) -> Histogram {
        let mut buckets = [0u64; BUCKETS];
        for (i, slot) in buckets.iter_mut().enumerate() {
            *slot = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        Histogram {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }
}

/// Counters of the continuous-validation loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ValidationStats {
    /// Served bytes copied into the shards' grader queues.
    pub bytes_tapped: u64,
    /// Served bytes that bypassed validation because their shard's tap
    /// queue was full or over its coverage budget (lossy mode only) — the
    /// coverage validation knowingly gave up.
    pub bytes_dropped: u64,
    /// Served windows the battery graded (all shards).
    pub windows_validated: u64,
    /// Served windows that failed the battery.
    pub windows_failed: u64,
    /// Quarantine transitions.
    pub quarantines: u64,
    /// Recharacterisations run by quarantined shards.
    pub recharacterizations: u64,
    /// Probation windows generated and graded during requalification.
    pub probation_windows: u64,
    /// Readmissions after a passed probation.
    pub readmissions: u64,
    /// Shard pairs whose windows the cross-correlation monitor compared.
    pub correlation_windows: u64,
    /// Common-mode trips: correlated shard pairs force-quarantined by the
    /// cross-correlation monitor (each trip fences two shards).
    pub correlation_trips: u64,
}

impl ValidationStats {
    /// The counter increments since `earlier` (an older snapshot).
    pub fn delta_since(&self, earlier: &ValidationStats) -> ValidationStats {
        ValidationStats {
            bytes_tapped: self.bytes_tapped.saturating_sub(earlier.bytes_tapped),
            bytes_dropped: self.bytes_dropped.saturating_sub(earlier.bytes_dropped),
            windows_validated: self
                .windows_validated
                .saturating_sub(earlier.windows_validated),
            windows_failed: self.windows_failed.saturating_sub(earlier.windows_failed),
            quarantines: self.quarantines.saturating_sub(earlier.quarantines),
            recharacterizations: self
                .recharacterizations
                .saturating_sub(earlier.recharacterizations),
            probation_windows: self
                .probation_windows
                .saturating_sub(earlier.probation_windows),
            readmissions: self.readmissions.saturating_sub(earlier.readmissions),
            correlation_windows: self
                .correlation_windows
                .saturating_sub(earlier.correlation_windows),
            correlation_trips: self
                .correlation_trips
                .saturating_sub(earlier.correlation_trips),
        }
    }
}

/// One shard's entropy accounting: raw fresh bits drawn from the physical
/// mechanism vs conditioned bytes served out of them. The ledger is the
/// ground truth the typed [`contract`](crate::contract) responses enforce
/// their MUST-consume-≥N-fresh-bits clause against, with the pinned
/// invariant `fresh_bits_claimed ≤ fresh_bits_drawn`: the delivery path
/// attributes each batch's draw across its completions pro-rata and flushes
/// drawn and claimed atomically, so no snapshot ever shows responses
/// claiming bits the shard has not consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EntropyLedger {
    /// Raw fresh entropy bits drawn from the mechanism — metastable cells
    /// sampled across served batches *and* probation windows (drawn,
    /// graded, never served).
    pub fresh_bits_drawn: u64,
    /// Fresh bits attributed to delivered completions (the sum of
    /// [`Completion::fresh_bits`](crate::Completion::fresh_bits) over this
    /// shard's deliveries). Never exceeds
    /// [`fresh_bits_drawn`](Self::fresh_bits_drawn).
    pub fresh_bits_claimed: u64,
    /// Conditioned output bytes delivered by this shard.
    pub conditioned_bytes_served: u64,
}

impl EntropyLedger {
    /// The counter increments since `earlier` (an older snapshot).
    pub fn delta_since(&self, earlier: &EntropyLedger) -> EntropyLedger {
        EntropyLedger {
            fresh_bits_drawn: self
                .fresh_bits_drawn
                .saturating_sub(earlier.fresh_bits_drawn),
            fresh_bits_claimed: self
                .fresh_bits_claimed
                .saturating_sub(earlier.fresh_bits_claimed),
            conditioned_bytes_served: self
                .conditioned_bytes_served
                .saturating_sub(earlier.conditioned_bytes_served),
        }
    }
}

/// Counters the service maintains while running and reports at shutdown.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceStats {
    /// Requests completed (delivered to their tickets).
    pub completed_requests: u64,
    /// Random bytes delivered.
    pub completed_bytes: u64,
    /// High-water mark of in-flight bytes — never exceeds
    /// [`RngServiceConfig::max_inflight_bytes`](crate::RngServiceConfig::max_inflight_bytes).
    pub peak_in_flight_bytes: usize,
    /// Bytes delivered by each shard.
    pub per_shard_bytes: Vec<u64>,
    /// Per-shard entropy accounting: fresh bits drawn vs claimed vs
    /// conditioned bytes served (see [`EntropyLedger`]).
    pub per_shard_ledger: Vec<EntropyLedger>,
    /// Requests completed with a typed `Expired` outcome — by the deadline
    /// sweep, or at admission for a deadline already in the past (their
    /// bytes were never generated).
    pub expired_requests: u64,
    /// Scans the expiry-sweep thread actually ran. The sweeper sleeps
    /// indefinitely while no queued request carries a deadline, so this
    /// stays 0 under deadline-free load.
    pub expiry_sweeps: u64,
    /// Queued requests re-placed from a quarantined shard onto a healthy one
    /// by the failover path (at quarantine trip or at the next readmission).
    pub failed_over_requests: u64,
    /// Submissions rejected with
    /// [`SubmitError::Degraded`](crate::SubmitError::Degraded) because every
    /// shard was quarantined (fail-fast rejections, non-blocking submissions,
    /// and parking that timed out all count here).
    pub degraded_rejections: u64,
    /// Submissions rejected with
    /// [`SubmitError::RateLimited`](crate::SubmitError::RateLimited) by the
    /// configured [`QosPolicy`](crate::QosPolicy) (always 0 under the
    /// default [`NoQos`](crate::control::NoQos)).
    pub rate_limited_rejections: u64,
    /// Halves of a mixed submission whose bytes were generated and then
    /// discarded because the *other* half failed (expired or canceled):
    /// entropy drawn with nothing delivered. Bumped once per abandoned
    /// half when a [`MixedTicket`](crate::MixedTicket) resolves.
    pub mixed_halves_abandoned: u64,
    /// Queue depth (requests already waiting on the chosen shard) sampled at
    /// each admission.
    pub queue_depth: Histogram,
    /// Request latency (submission to delivery) in microseconds.
    pub latency_us: Histogram,
    /// Deadline slack — microseconds left until the deadline at delivery —
    /// of every served request that carried one (a request delivered at or
    /// past its deadline records 0). Expired requests are not delivered and
    /// appear in [`expired_requests`](Self::expired_requests) instead.
    pub deadline_slack_us: Histogram,
    /// Continuous-validation counters (all zero when validation is off).
    pub validation: ValidationStats,
    /// Per-shard health records (empty until snapshot; filled by
    /// [`RngService::stats`](crate::RngService::stats) and at shutdown).
    pub shard_health: Vec<ShardHealth>,
    /// The entropy-backend kind behind each shard (empty until snapshot,
    /// like [`shard_health`](Self::shard_health)). Shards of a
    /// [`RngService::start`](crate::RngService::start) instance are all
    /// [`BackendKind::Quac`]; a mesh records each backend's own kind, and
    /// the Prometheus export labels shard series with it.
    pub backend_kinds: Vec<BackendKind>,
}

impl ServiceStats {
    /// The activity between `earlier` (an older snapshot of the same
    /// service) and `self` — a stable rate window for operators and tests:
    /// counters and histograms subtract; `peak_in_flight_bytes` and
    /// histogram maxima stay at the lifetime value of `self` (peaks are not
    /// invertible); `shard_health` is the *current* record (a state, not a
    /// counter). Shards added between snapshots (never happens today) keep
    /// their full count.
    pub fn delta_since(&self, earlier: &ServiceStats) -> ServiceStats {
        ServiceStats {
            completed_requests: self
                .completed_requests
                .saturating_sub(earlier.completed_requests),
            completed_bytes: self.completed_bytes.saturating_sub(earlier.completed_bytes),
            peak_in_flight_bytes: self.peak_in_flight_bytes,
            per_shard_bytes: self
                .per_shard_bytes
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    b.saturating_sub(earlier.per_shard_bytes.get(i).copied().unwrap_or(0))
                })
                .collect(),
            per_shard_ledger: self
                .per_shard_ledger
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    l.delta_since(&earlier.per_shard_ledger.get(i).copied().unwrap_or_default())
                })
                .collect(),
            expired_requests: self
                .expired_requests
                .saturating_sub(earlier.expired_requests),
            expiry_sweeps: self.expiry_sweeps.saturating_sub(earlier.expiry_sweeps),
            failed_over_requests: self
                .failed_over_requests
                .saturating_sub(earlier.failed_over_requests),
            degraded_rejections: self
                .degraded_rejections
                .saturating_sub(earlier.degraded_rejections),
            rate_limited_rejections: self
                .rate_limited_rejections
                .saturating_sub(earlier.rate_limited_rejections),
            mixed_halves_abandoned: self
                .mixed_halves_abandoned
                .saturating_sub(earlier.mixed_halves_abandoned),
            queue_depth: self.queue_depth.delta_since(&earlier.queue_depth),
            latency_us: self.latency_us.delta_since(&earlier.latency_us),
            deadline_slack_us: self
                .deadline_slack_us
                .delta_since(&earlier.deadline_slack_us),
            validation: self.validation.delta_since(&earlier.validation),
            shard_health: self.shard_health.clone(),
            backend_kinds: self.backend_kinds.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_with_zero_bucket() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_bound_the_samples() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 2, 3, 5, 8, 13, 900] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.max(), 900);
        assert_eq!(h.quantile_upper_bound(0.0), 0);
        // Median of 9 samples is the 5th (value 3): its bucket [2,4) has
        // upper edge 3.
        assert_eq!(h.quantile_upper_bound(0.5), 3);
        assert!(h.quantile_upper_bound(1.0) >= 900);
        assert_eq!(
            h.quantile_upper_bound(1.0),
            900,
            "clamped to the observed max"
        );
        assert_eq!(Histogram::new().quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn open_ended_final_bucket_reports_the_observed_max() {
        // Values beyond 2^31 land in the open-ended last bucket; its edge
        // must be the observed max, not the (1 << 31) - 1 boundary.
        let mut h = Histogram::new();
        h.record(10_000_000_000); // ~2.8 hours in microseconds
        h.record(5);
        assert_eq!(h.quantile_upper_bound(1.0), 10_000_000_000);
        assert!(h.quantile_upper_bound(0.25) <= 7);
    }

    #[test]
    fn record_accumulates_counts() {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(7);
        }
        assert_eq!(h.buckets()[Histogram::bucket_of(7)], 10);
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 70);
    }

    #[test]
    fn histogram_delta_subtracts_buckets_count_and_sum() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(100);
        let earlier = h.clone();
        h.record(3);
        h.record(5000);
        let delta = h.delta_since(&earlier);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum(), 5003);
        assert_eq!(delta.buckets()[Histogram::bucket_of(3)], 1);
        assert_eq!(delta.buckets()[Histogram::bucket_of(100)], 0);
        assert_eq!(delta.buckets()[Histogram::bucket_of(5000)], 1);
        assert_eq!(delta.max(), 5000, "max is the lifetime upper bound");
        // A snapshot diffed against itself is empty.
        let zero = h.delta_since(&h);
        assert_eq!(zero.count(), 0);
        assert_eq!(zero.sum(), 0);
        assert!(zero.buckets().iter().all(|&b| b == 0));
    }

    #[test]
    fn service_stats_delta_subtracts_counters_and_keeps_health() {
        let mut earlier = ServiceStats {
            per_shard_bytes: vec![10, 20],
            ..Default::default()
        };
        earlier.completed_requests = 5;
        earlier.completed_bytes = 30;
        earlier.expiry_sweeps = 2;
        earlier.validation.windows_validated = 4;
        earlier.rate_limited_rejections = 1;
        earlier.mixed_halves_abandoned = 1;
        earlier.per_shard_ledger = vec![
            EntropyLedger {
                fresh_bits_drawn: 100,
                fresh_bits_claimed: 40,
                conditioned_bytes_served: 5,
            },
            EntropyLedger::default(),
        ];
        let mut later = earlier.clone();
        later.completed_requests = 9;
        later.completed_bytes = 75;
        later.expiry_sweeps = 7;
        later.per_shard_bytes = vec![25, 50];
        later.validation.windows_validated = 6;
        later.rate_limited_rejections = 4;
        later.mixed_halves_abandoned = 3;
        later.per_shard_ledger[0] = EntropyLedger {
            fresh_bits_drawn: 260,
            fresh_bits_claimed: 90,
            conditioned_bytes_served: 11,
        };
        later.shard_health = vec![ShardHealth::new(); 2];
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.completed_requests, 4);
        assert_eq!(delta.completed_bytes, 45);
        assert_eq!(delta.expiry_sweeps, 5);
        assert_eq!(delta.per_shard_bytes, vec![15, 30]);
        assert_eq!(delta.validation.windows_validated, 2);
        assert_eq!(delta.rate_limited_rejections, 3);
        assert_eq!(delta.mixed_halves_abandoned, 2);
        assert_eq!(
            delta.per_shard_ledger[0],
            EntropyLedger {
                fresh_bits_drawn: 160,
                fresh_bits_claimed: 50,
                conditioned_bytes_served: 6,
            }
        );
        assert_eq!(delta.per_shard_ledger[1], EntropyLedger::default());
        assert_eq!(
            delta.shard_health.len(),
            2,
            "health is current state, not a diff"
        );
    }
}
