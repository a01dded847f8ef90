//! Configuration and shared mutable state of the service: the one
//! `Mutex<State>` + condvar set that both planes meet through, and the
//! [`RngServiceConfig`] tuning knobs.
//!
//! Everything control-plane loops and data-plane workers observe or mutate
//! lives behind [`Shared`]: the per-shard schedulers, loads, health records,
//! stream epochs, the in-flight budget, and the running [`ServiceStats`].
//! Keeping it in one lock is what makes every placement/admission decision a
//! pure function of a consistent snapshot — the property the
//! replay-determinism tests pin.

use crate::control::{DegradedPolicy, ServicePolicies};
use crate::correlation::CorrelationMonitor;
use crate::health::ShardHealth;
use crate::placement::PlacementPolicy;
use crate::queue::ShardScheduler;
use crate::stats::ServiceStats;
use crate::ticket::TicketSender;
use crate::validate::ValidationConfig;
use qt_memctrl::IdleBudget;
use std::collections::HashMap;
use std::sync::atomic::AtomicUsize;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Tuning knobs of the service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RngServiceConfig {
    /// Backpressure budget: the maximum number of requested-but-undelivered
    /// bytes (queued plus being generated). `try_submit` rejects and
    /// `submit` parks while admitting a request would exceed it.
    pub max_inflight_bytes: usize,
    /// Coalescing target: a worker keeps dequeuing requests until the batch
    /// reaches this many bytes (small reads ride along in whole QUAC
    /// iterations instead of paying one wakeup each).
    pub max_batch_bytes: usize,
    /// Hard cap on requests coalesced into one batch.
    pub max_batch_requests: usize,
    /// Anti-starvation window of the per-shard scheduler: at most this many
    /// consecutive high-priority dispatches while normal work waits.
    pub fairness_window: u32,
    /// Per-shard delivery-rate budget (idle DRAM cycles of the channel).
    /// [`IdleBudget::unlimited`] disables pacing.
    pub pacing: IdleBudget,
    /// Continuous in-service validation (off by default). See
    /// [`crate::validate`] for the loop and [`crate::health`] for the
    /// quarantine state machine.
    pub validation: ValidationConfig,
    /// Admission behaviour while every shard is quarantined.
    pub degraded: DegradedPolicy,
    /// Period of the expiry sweep that completes overdue queued requests
    /// with [`Expired`](crate::Expired) — the upper bound on how long past its deadline a
    /// still-queued request lingers.
    pub expiry_sweep_interval: Duration,
}

impl Default for RngServiceConfig {
    fn default() -> Self {
        RngServiceConfig {
            max_inflight_bytes: 1 << 20,
            max_batch_bytes: 16 << 10,
            max_batch_requests: 64,
            fairness_window: 4,
            pacing: IdleBudget::unlimited(),
            validation: ValidationConfig::default(),
            degraded: DegradedPolicy::default(),
            expiry_sweep_interval: Duration::from_millis(5),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lifecycle {
    Running,
    /// Serve everything already queued, then stop.
    Draining,
    /// Discard queued work and stop as soon as possible.
    Aborting,
}

#[derive(Debug)]
pub(crate) struct State {
    pub(crate) shards: Vec<ShardScheduler>,
    /// Resolution-cell handle of each queued request, keyed by sequence
    /// number. Dropping a sender cancels its ticket (and wakes its
    /// waiters, blocking and async alike).
    pub(crate) senders: HashMap<u64, TicketSender>,
    pub(crate) in_flight_bytes: usize,
    /// Admitted-but-undelivered bytes per shard — the load metric
    /// least-loaded placement minimises (unlike the scheduler's queued
    /// bytes, it still counts a batch being generated).
    pub(crate) shard_load: Vec<usize>,
    /// Per-shard validation health; placement skips shards that are not
    /// [`ShardState::Healthy`](crate::health::ShardState::Healthy).
    pub(crate) health: Vec<ShardHealth>,
    /// Per-shard stream epoch, bumped at readmission. Tap chunks carry the
    /// epoch of the batch they were served in, so bytes served while the
    /// shard was fenced (stale stream content, possibly still faulty) can
    /// never fold into the fresh post-readmission health record even if
    /// they linger in the tap queue across the whole requalification.
    pub(crate) shard_epoch: Vec<u64>,
    /// The entropy-backend kind behind each shard (all `Quac` for a
    /// homogeneous [`RngService::start`](crate::RngService::start) instance)
    /// — what tier-aware placement routes across and what the Prometheus
    /// export labels shard series with.
    pub(crate) backend_kinds: Vec<quac_trng::BackendKind>,
    /// Rotation point for placement tie-breaking (advanced past each pick,
    /// so equal loads degrade to round-robin).
    pub(crate) next_shard: usize,
    pub(crate) next_seq: u64,
    pub(crate) lifecycle: Lifecycle,
    pub(crate) stats: ServiceStats,
}

impl State {
    /// A consistent stats snapshot including per-shard health and backend
    /// kinds.
    pub(crate) fn snapshot(&self) -> ServiceStats {
        let mut stats = self.stats.clone();
        stats.shard_health = self.health.clone();
        stats.backend_kinds = self.backend_kinds.clone();
        stats
    }

    /// Queued requests carrying a deadline, across all shards — the expiry
    /// sweep parks indefinitely while this is 0.
    pub(crate) fn queued_deadline_count(&self) -> usize {
        self.shards
            .iter()
            .map(ShardScheduler::queued_deadlines)
            .sum()
    }

    /// Asks `placement` for a shard under the current view and advances the
    /// tie-break rotation past the pick.
    ///
    /// # Panics
    ///
    /// Panics if the policy returns an out-of-range shard index.
    pub(crate) fn place(
        &mut self,
        placement: &dyn PlacementPolicy,
        priority: crate::request::Priority,
    ) -> usize {
        let shard = placement.place(&crate::placement::PlacementView {
            loads: &self.shard_load,
            health: &self.health,
            kinds: &self.backend_kinds,
            priority,
            rotation: self.next_shard,
        });
        assert!(
            shard < self.shards.len(),
            "placement policy picked shard {shard} of {}",
            self.shards.len()
        );
        self.next_shard = (shard + 1) % self.shards.len();
        shard
    }
}

#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) cfg: RngServiceConfig,
    /// The control-plane policy set (placement, degraded admission,
    /// requalification) this instance runs with.
    pub(crate) policies: ServicePolicies,
    /// Approximate occupancy of each shard's tap queue (incremented by the
    /// worker on a successful send, decremented by the shard's grader on
    /// receive). Lets the lossy tap skip building a batch copy it would
    /// immediately drop.
    pub(crate) tap_fill: Vec<AtomicUsize>,
    /// Capacity of each shard's tap queue, in batches
    /// ([`ValidationConfig::tap_queue_per_shard`]).
    pub(crate) tap_capacity: usize,
    /// The cross-correlation monitor every grader feeds, when
    /// [`CorrelationConfig::enabled`](crate::CorrelationConfig::enabled).
    pub(crate) correlation: Option<Mutex<CorrelationMonitor>>,
    pub(crate) state: Mutex<State>,
    /// Signalled when work arrives or the lifecycle changes (workers wait
    /// here, both for requests and during pacing sleeps), and when a shard
    /// is quarantined (its idle worker must wake to requalify it).
    pub(crate) work: Condvar,
    /// Signalled when in-flight bytes are released (parked submitters wait
    /// here).
    pub(crate) space: Condvar,
    /// Signalled only by deadline-carrying admissions and lifecycle changes
    /// — the expiry sweep waits here, so deadline-free load never wakes it.
    pub(crate) deadlines: Condvar,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_default_disables_validation() {
        let cfg = RngServiceConfig::default();
        assert!(!cfg.validation.enabled);
    }
}
