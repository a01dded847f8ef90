//! Control plane: the policy seams ([`AdmissionPolicy`], [`RequalifyPolicy`],
//! plus [`PlacementPolicy`] in
//! [`crate::placement`]) and the orchestration loops that steer membership —
//! the per-shard graders folding verdicts into [`ShardHealth`], quarantine
//! failover, requalification, and the deadline-expiry sweep.
//!
//! Everything here decides *which* shard serves and *whether* a request is
//! still worth serving; none of it generates a byte. The data plane — queue,
//! worker batch loop, pacing, tap, delivery — lives in `crate::worker` and
//! [`crate::queue`], and the two sides meet only through the service's one
//! state lock, which is what keeps every control decision a pure function of
//! observable state and the replay-determinism contract intact.

use crate::correlation::CorrelationMonitor;
use crate::health::{ShardHealth, ShardState};
use crate::placement::{PlacementPolicy, TieredPlacement};
use crate::request::{ClientId, RngRequest};
use crate::state::{Lifecycle, RngServiceConfig, Shared, State};
use crate::ticket::{Expired, ExpiryStage, Outcome};
use crate::validate::{ShardGrader, TapChunk};
use qt_dram_core::BitVec;
use quac_trng::EntropyBackend;
use std::collections::HashMap;
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// What admission does while *every* shard is quarantined (the service is
/// degraded: nothing can be placed, and parking submitters indefinitely
/// would look like a deadlock).
///
/// Requests accepted *before* the last shard tripped stay queued either way:
/// they are served at the next readmission, expired by their deadlines, or
/// drained at shutdown — the policy only governs new admissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradedPolicy {
    /// Reject immediately with
    /// [`SubmitError::Degraded`](crate::SubmitError::Degraded) — the
    /// brownout is visible to clients the moment it starts, and no caller
    /// ever parks on a service that may never recover.
    #[default]
    FailFast,
    /// Park blocking submissions up to `max_wait` for a readmission, then
    /// reject with [`SubmitError::Degraded`](crate::SubmitError::Degraded).
    /// A parked submission whose own request deadline is earlier gives up at
    /// that deadline instead. Non-blocking `try_submit` never parks and
    /// rejects immediately under either policy.
    Park {
        /// Longest a blocking submission waits for a shard to be readmitted.
        max_wait: Duration,
    },
}

/// The degraded-admission seam of the control plane: what a *blocking*
/// submission does when it finds every shard quarantined.
pub trait AdmissionPolicy: std::fmt::Debug + Send + Sync {
    /// `None` rejects the submission now (fail-fast); `Some(bound)` parks it
    /// until `bound` waiting for a readmission, then rejects. The service
    /// pins the bound at the submission's *first* degraded observation (so
    /// repeated park/wake rounds share one bound) and additionally caps it
    /// by the request's own deadline when that is earlier.
    fn degraded_park_bound(&self, now: Instant) -> Option<Instant>;
}

impl AdmissionPolicy for DegradedPolicy {
    fn degraded_park_bound(&self, now: Instant) -> Option<Instant> {
        match self {
            DegradedPolicy::FailFast => None,
            DegradedPolicy::Park { max_wait } => Some(now + *max_wait),
        }
    }
}

/// The requalification seam of the control plane: how a quarantined shard's
/// worker paces its way back to service.
pub trait RequalifyPolicy: std::fmt::Debug + Send + Sync {
    /// Whether the next requalification round must recharacterise the module
    /// before probation windows count, given the shard's current state.
    fn needs_recharacterization(&self, state: ShardState) -> bool;
    /// Backoff between requalification attempts after a failed probation
    /// window (a permanently faulty shard cycles instead of pegging a core).
    fn retry_backoff(&self) -> Duration;
}

/// The stock requalification policy: recharacterise from the `Quarantined`
/// state (fresh quarantine, or a failed probation window dropped back to
/// it); a shard still in `Probation` — requalification yielded to queued
/// work between windows — resumes its run instead of repeating the expensive
/// sweep, so steady fallback traffic cannot defer readmission indefinitely.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecharacterizeOnQuarantine;

impl RequalifyPolicy for RecharacterizeOnQuarantine {
    fn needs_recharacterization(&self, state: ShardState) -> bool {
        state != ShardState::Probation
    }

    fn retry_backoff(&self) -> Duration {
        Duration::from_millis(50)
    }
}

/// The per-tenant QoS seam of the control plane: whether one client may
/// submit `len` more bytes *right now*. Layered in front of the priority
/// bands and the fairness window — those schedule admitted work fairly; the
/// QoS policy decides what gets admitted at all, so one greedy tenant cannot
/// monopolise the in-flight budget before scheduling even starts.
///
/// The service consults it once per submission, after every other
/// admission check (lifecycle, serving shards, deadline, in-flight budget)
/// has passed, so a refused or expired submission never spends tokens and a
/// blocking call may park on the budget before it is charged. A rejection
/// is a typed policy outcome
/// ([`SubmitError::RateLimited`](crate::SubmitError::RateLimited)), not
/// backpressure: blocking submission does not park on it.
pub trait QosPolicy: std::fmt::Debug + Send + Sync {
    /// Charges `len` bytes against `client`'s allowance at `now`. `Ok(())`
    /// admits (the charge is consumed); `Err(retry_after)` rejects with the
    /// policy's estimate of when the same request could be covered
    /// ([`Duration::ZERO`] when it never can be).
    fn try_charge(&self, client: ClientId, len: usize, now: Instant) -> Result<(), Duration>;
}

/// The default QoS policy: every submission is admitted (rate limiting
/// opt-in via [`TokenBucketQos`] in a custom [`ServicePolicies`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoQos;

impl QosPolicy for NoQos {
    fn try_charge(&self, _client: ClientId, _len: usize, _now: Instant) -> Result<(), Duration> {
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Per-tenant token-bucket rate limiting: each client owns a bucket holding
/// up to `burst_bytes` tokens that refills at `rate_bytes_per_sec`; a
/// submission consumes its length in tokens or is rejected with the refill
/// time it would need. Buckets start full, so a quiet client keeps its
/// burst.
///
/// `burst_bytes` must cover the largest request a client legitimately
/// makes: a request larger than the burst can never be covered and is
/// rejected with a zero `retry_after` (mirroring how
/// [`SubmitError::TooLarge`](crate::SubmitError::TooLarge) refuses what the
/// in-flight budget could never admit).
#[derive(Debug)]
pub struct TokenBucketQos {
    rate_bytes_per_sec: f64,
    burst_bytes: f64,
    buckets: Mutex<HashMap<ClientId, Bucket>>,
}

impl TokenBucketQos {
    /// A bucket set refilling at `rate_bytes_per_sec` with capacity
    /// `burst_bytes` per client.
    ///
    /// # Panics
    ///
    /// Panics if `rate_bytes_per_sec` is not finite and positive, or
    /// `burst_bytes` is zero.
    pub fn new(rate_bytes_per_sec: f64, burst_bytes: usize) -> Self {
        assert!(
            rate_bytes_per_sec.is_finite() && rate_bytes_per_sec > 0.0,
            "refill rate must be finite and positive, got {rate_bytes_per_sec}"
        );
        assert!(burst_bytes > 0, "burst must be non-zero");
        TokenBucketQos {
            rate_bytes_per_sec,
            burst_bytes: burst_bytes as f64,
            buckets: Mutex::new(HashMap::new()),
        }
    }
}

impl QosPolicy for TokenBucketQos {
    fn try_charge(&self, client: ClientId, len: usize, now: Instant) -> Result<(), Duration> {
        let need = len as f64;
        if need > self.burst_bytes {
            // Could never be covered: reject immediately rather than have
            // the client back off forever in refill-sized steps.
            return Err(Duration::ZERO);
        }
        let mut buckets = self.buckets.lock().expect("QoS buckets poisoned");
        let bucket = buckets.entry(client).or_insert(Bucket {
            tokens: self.burst_bytes,
            last: now,
        });
        let elapsed = now.saturating_duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.rate_bytes_per_sec).min(self.burst_bytes);
        bucket.last = now;
        if bucket.tokens >= need {
            bucket.tokens -= need;
            Ok(())
        } else {
            Err(Duration::from_secs_f64(
                (need - bucket.tokens) / self.rate_bytes_per_sec,
            ))
        }
    }
}

/// The control-plane policy set one service instance runs with, injected at
/// [`RngService::start_with_policies`](crate::RngService::start_with_policies).
/// [`RngService::start`](crate::RngService::start) and
/// [`RngService::start_mesh`](crate::RngService::start_mesh) use
/// [`ServicePolicies::for_config`]; override single fields with struct
/// update syntax.
#[derive(Debug)]
pub struct ServicePolicies {
    /// Shard assignment at admission and at failover re-placement.
    pub placement: Box<dyn PlacementPolicy>,
    /// Blocking-admission behaviour while every shard is quarantined.
    pub admission: Box<dyn AdmissionPolicy>,
    /// Requalification pacing of quarantined shards.
    pub requalify: Box<dyn RequalifyPolicy>,
    /// Per-tenant admission rate limiting ([`NoQos`] by default).
    pub qos: Box<dyn QosPolicy>,
}

impl ServicePolicies {
    /// The stock policies: [`TieredPlacement`] (routing by backend kind and
    /// priority; on a fleet of one kind it is exactly
    /// [`least_loaded_shard`](crate::least_loaded_shard)), the config's
    /// [`DegradedPolicy`], [`RecharacterizeOnQuarantine`], and no rate
    /// limiting.
    pub fn for_config(cfg: &RngServiceConfig) -> Self {
        ServicePolicies {
            placement: Box::new(TieredPlacement),
            admission: Box::new(cfg.degraded),
            requalify: Box::new(RecharacterizeOnQuarantine),
            qos: Box::new(NoQos),
        }
    }
}

/// What the requalification loop should do next, checked between its
/// expensive unlocked steps.
enum RequalifyGate {
    /// Keep requalifying.
    Continue,
    /// The service is draining and requests are still queued on this shard
    /// (stranded from a total-quarantine interval no readmission resolved):
    /// go back and serve them — shutdown's serve-everything-accepted
    /// contract outranks the fence, as the documented last resort.
    ServeQueue,
    /// The service is stopping.
    Stop,
}

fn requalify_gate(shared: &Shared, shard_idx: usize) -> RequalifyGate {
    let st = shared.state.lock().expect("service state poisoned");
    match st.lifecycle {
        Lifecycle::Aborting => RequalifyGate::Stop,
        Lifecycle::Draining if !st.shards[shard_idx].is_empty() => RequalifyGate::ServeQueue,
        Lifecycle::Draining => RequalifyGate::Stop,
        // While running, a fenced shard never serves — queued work here (it
        // exists only while no shard is healthy) waits for a readmission
        // failover, its deadline, or a drain.
        Lifecycle::Running => RequalifyGate::Continue,
    }
}

/// Requalifies a quarantined shard: recharacterise (when the
/// [`RequalifyPolicy`] says the state demands it), generate probation
/// windows that are graded but never served, and readmit after
/// [`HealthPolicy::probation_windows`](crate::health::HealthPolicy) pass in
/// a row; a failing window loops back to recharacterisation (after the
/// policy's backoff). Readmission re-places any requests stranded on
/// still-fenced peers (see [`failover_fenced_queues`]). Returns `false` only
/// when the service stopped mid-requalification (the worker exits); `true`
/// hands control back to the serving loop — during a drain, also to serve
/// requests stranded on this shard as the last resort.
pub(crate) fn requalify_shard(
    shared: &Shared,
    shard_idx: usize,
    trng: &mut dyn EntropyBackend,
    scratch: &mut Vec<u8>,
) -> bool {
    let vcfg = &shared.cfg.validation;
    let window_bytes = vcfg.window_bits / 8;
    loop {
        match requalify_gate(shared, shard_idx) {
            RequalifyGate::Stop => return false,
            RequalifyGate::ServeQueue => return true,
            RequalifyGate::Continue => {}
        }
        let needs_recharacterization = {
            let st = shared.state.lock().expect("service state poisoned");
            shared
                .policies
                .requalify
                .needs_recharacterization(st.health[shard_idx].state)
        };
        if needs_recharacterization {
            // The sweep runs unlocked, so healthy shards keep serving.
            trng.recharacterize(&vcfg.recharacterization);
            let mut st = shared.state.lock().expect("service state poisoned");
            st.health[shard_idx].begin_probation();
            st.stats.validation.recharacterizations += 1;
        }
        loop {
            match requalify_gate(shared, shard_idx) {
                RequalifyGate::Stop => return false,
                RequalifyGate::ServeQueue => return true,
                RequalifyGate::Continue => {}
            }
            scratch.resize(window_bytes, 0);
            trng.fill_bytes(scratch);
            let bits = BitVec::from_bytes(scratch, vcfg.window_bits);
            // Graded serially on this worker, like served windows on the
            // graders: no threads spawned per probation window.
            let pass = qt_nist_sts::run_all_tests_serial(&bits)
                .iter()
                .all(|r| r.passes(vcfg.alpha));
            let mut st = shared.state.lock().expect("service state poisoned");
            st.stats.validation.probation_windows += 1;
            if st.health[shard_idx].record_probation_window(pass, &vcfg.policy) {
                st.stats.validation.readmissions += 1;
                // A new stream epoch: any tap chunk from before this point
                // (fenced-era bytes still queued at the grader) is stale
                // and must not grade the fresh record.
                st.shard_epoch[shard_idx] += 1;
                // With a healthy shard back, re-place any work stranded on
                // still-fenced peers during a total-quarantine interval.
                failover_fenced_queues(&mut st, &*shared.policies.placement);
                // Back in placement: wake submitters and peers.
                shared.work.notify_all();
                shared.space.notify_all();
                return true;
            }
            if !pass {
                break; // recharacterise again, after the backoff below
            }
        }
        // Backoff between requalification attempts. Waiting on the work
        // condvar keeps shutdown prompt.
        let st = shared.state.lock().expect("service state poisoned");
        if st.lifecycle == Lifecycle::Running {
            let _ = shared
                .work
                .wait_timeout(st, shared.policies.requalify.retry_backoff())
                .expect("service state poisoned");
        }
    }
}

fn lock_monitor(monitor: &Mutex<CorrelationMonitor>) -> MutexGuard<'_, CorrelationMonitor> {
    monitor.lock().expect("correlation monitor poisoned")
}

/// One shard's grader thread: drains the shard's tapped chunks in stream
/// order, grades full windows with the serial battery, and folds verdicts
/// into the shard's health — quarantining it the moment a bound trips.
/// Graders of different shards run in parallel; each folds only its own
/// shard's windows, and with correlation monitoring on they share the one
/// monitor. Exits when the shard's worker (the queue's only sender) exits.
pub(crate) fn grader_loop(shared: &Shared, shard: usize, rx: &mpsc::Receiver<TapChunk>) {
    let vcfg = &shared.cfg.validation;
    let mut grader = ShardGrader::new(vcfg.window_bits);
    while let Ok(chunk) = rx.recv() {
        if !vcfg.lossless_tap {
            // Mirror of the worker-side increment: the occupancy estimate
            // lets a lossy worker skip copies its full queue would drop.
            shared.tap_fill[shard].fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
        }
        // Skip grading while aborting (but keep draining so a lossless
        // worker never blocks on a dead grader), while the shard is fenced
        // off (its tapped bytes predate the quarantine and are stale), and
        // for chunks from a previous stream epoch (fenced-era bytes that sat
        // in this queue across a readmission). Each drops the partial
        // window too, whoever fenced the shard — its own window, or another
        // grader's correlation trip.
        let skip = {
            let st = shared.state.lock().expect("service state poisoned");
            st.lifecycle == Lifecycle::Aborting
                || !st.health[shard].is_serving()
                || st.shard_epoch[shard] != chunk.epoch
        };
        if skip {
            grader.reset();
            if let Some(monitor) = &shared.correlation {
                lock_monitor(monitor).reset_shard(shard);
            }
            continue;
        }
        // Cross-correlation first: a common-mode conviction fences both
        // members of the pair, and the chunk's own battery grading is then
        // skipped (its shard just stopped serving).
        if let Some(monitor) = &shared.correlation {
            let outcome = lock_monitor(monitor).ingest(shard, &chunk.bytes);
            if outcome.compared > 0 || !outcome.tripped.is_empty() {
                let mut st = shared.state.lock().expect("service state poisoned");
                st.stats.validation.correlation_windows += outcome.compared;
                for &(a, b) in &outcome.tripped {
                    st.stats.validation.correlation_trips += 1;
                    // Neither stream can be presumed sound: fence both and
                    // re-place their queued work, exactly like a windowed
                    // quarantine trip.
                    for fenced in [a, b] {
                        if st.health[fenced].is_serving() {
                            st.health[fenced].force_quarantine();
                            st.stats.validation.quarantines += 1;
                            failover_shard_queue(&mut st, &*shared.policies.placement, fenced);
                        }
                    }
                    shared.work.notify_all();
                    shared.space.notify_all();
                }
                drop(st);
                // The peer's grader drops its own partial window at its
                // next chunk (its shard is no longer serving).
                let mut monitor = lock_monitor(monitor);
                for fenced in outcome.tripped.iter().flat_map(|&(a, b)| [a, b]) {
                    monitor.reset_shard(fenced);
                }
            }
        }
        {
            // The correlation pass may have fenced this chunk's own shard.
            let st = shared.state.lock().expect("service state poisoned");
            if !st.health[shard].is_serving() {
                drop(st);
                grader.reset();
                continue;
            }
        }
        let mut fenced = false;
        grader.ingest(&chunk, |report| {
            let mut st = shared.state.lock().expect("service state poisoned");
            if !st.health[shard].is_serving() {
                // Fenced by an earlier window of this push, or by another
                // grader's correlation trip.
                fenced = true;
                return;
            }
            let pass = report.passes(vcfg.alpha);
            let quarantine = st.health[shard].record_window(pass, &vcfg.policy);
            st.stats.validation.windows_validated += 1;
            if !pass {
                st.stats.validation.windows_failed += 1;
            }
            if quarantine {
                fenced = true;
                st.stats.validation.quarantines += 1;
                // Re-place the fenced shard's queued (not-yet-generated)
                // requests onto healthy shards: accepted work is not served
                // through a suspect generator. No-op when no shard is
                // healthy — the requests then wait for readmission, their
                // deadlines, or a drain.
                failover_shard_queue(&mut st, &*shared.policies.placement, shard);
                // Wake the fenced shard's worker (to requalify), the
                // failover targets (new work), and any parked submitter
                // (which must observe the degraded state).
                shared.work.notify_all();
                shared.space.notify_all();
            }
        });
        if fenced {
            // Whatever partial window followed the quarantine decision is
            // stale stream content.
            grader.reset();
        }
    }
}

/// Completes every queued request of `shard` whose deadline is at or before
/// `now` with a typed [`Expired`] outcome, releasing its budget and load.
/// Returns the bytes released (the caller notifies `space` when non-zero).
pub(crate) fn sweep_shard_expired(
    st: &mut State,
    shard: usize,
    now: Instant,
    scratch: &mut Vec<RngRequest>,
) -> usize {
    scratch.clear();
    st.shards[shard].remove_expired(now, scratch);
    let mut released = 0;
    for req in scratch.drain(..) {
        st.in_flight_bytes -= req.len;
        st.shard_load[shard] -= req.len;
        released += req.len;
        st.stats.expired_requests += 1;
        if let Some(tx) = st.senders.remove(&req.seq) {
            tx.send(Outcome::Expired(Expired {
                seq: req.seq,
                deadline: req.deadline.expect("expired requests carry a deadline"),
                expired_at: now,
                stage: ExpiryStage::Sweep,
            }));
        }
    }
    released
}

/// The expiry sweep thread: completes overdue queued requests on every shard
/// — including fenced and idle shards, whose workers never reach the
/// pop-time sweep — at most once per
/// [`expiry_sweep_interval`](RngServiceConfig::expiry_sweep_interval).
///
/// The sweeper waits on the dedicated `deadlines` condvar, signalled only by
/// deadline-carrying admissions and lifecycle changes: while no queued
/// request carries a deadline it parks indefinitely, so deadline-free load
/// never wakes it (it used to share the `work` condvar, which admission
/// notifies on *every* submission — a wake storm scanning all shards under
/// the state lock for nothing). While deadlines are queued, it rests a full
/// interval between scans, absorbing admission notifies without extra scans,
/// so a still-queued request lingers at most one interval past its deadline.
/// Exits when the service leaves `Running` (a drain serves the remaining
/// queue; an abort cancels it).
pub(crate) fn expiry_loop(shared: &Shared) {
    let mut scratch: Vec<RngRequest> = Vec::new();
    let mut st = shared.state.lock().expect("service state poisoned");
    loop {
        if st.lifecycle != Lifecycle::Running {
            return;
        }
        if st.queued_deadline_count() == 0 {
            st = shared.deadlines.wait(st).expect("service state poisoned");
            continue;
        }
        // Rest toward a fixed due instant: spurious and admission-storm
        // wakes re-wait for the remainder instead of rescanning early.
        let due = Instant::now() + shared.cfg.expiry_sweep_interval;
        loop {
            if st.lifecycle != Lifecycle::Running {
                return;
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            let (guard, _) = shared
                .deadlines
                .wait_timeout(st, due - now)
                .expect("service state poisoned");
            st = guard;
        }
        st.stats.expiry_sweeps += 1;
        let now = Instant::now();
        let mut released = 0;
        for shard in 0..st.shards.len() {
            released += sweep_shard_expired(&mut st, shard, now, &mut scratch);
        }
        if released > 0 {
            shared.space.notify_all();
        }
    }
}

/// Re-places the queued (not-yet-generated) requests of shard `from` onto
/// healthy shards via the placement policy, preserving their dispatch order.
/// The in-flight budget stays charged (the requests are still admitted);
/// only the per-shard load moves. No-op while no shard is healthy. Returns
/// how many requests moved.
pub(crate) fn failover_shard_queue(
    st: &mut State,
    placement: &dyn PlacementPolicy,
    from: usize,
) -> u64 {
    if st.shards[from].is_empty() || !st.health.iter().any(ShardHealth::is_serving) {
        return 0;
    }
    let mut moved: Vec<RngRequest> = Vec::new();
    st.shards[from].drain_ordered(&mut moved);
    let count = moved.len() as u64;
    for req in moved {
        // Re-placement consults the policy with the request's own priority,
        // so tier-aware failover sends latency-sensitive work to the fast
        // tier and bulk work to the throughput tier, deterministically.
        let target = st.place(placement, req.priority);
        st.shard_load[from] -= req.len;
        st.shard_load[target] += req.len;
        st.shards[target].push(req);
    }
    st.stats.failed_over_requests += count;
    count
}

/// Failover sweep at readmission: re-places every still-fenced shard's queue
/// (work stranded during a total-quarantine interval, when the trip-time
/// failover had no healthy target) onto the shards now serving.
pub(crate) fn failover_fenced_queues(st: &mut State, placement: &dyn PlacementPolicy) -> u64 {
    let mut total = 0;
    for shard in 0..st.shards.len() {
        if !st.health[shard].is_serving() {
            total += failover_shard_queue(st, placement, shard);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn stock_policies_match_the_config() {
        let cfg = RngServiceConfig {
            degraded: DegradedPolicy::Park {
                max_wait: Duration::from_millis(10),
            },
            ..RngServiceConfig::default()
        };
        let policies = ServicePolicies::for_config(&cfg);
        let now = Instant::now();
        let bound = policies.admission.degraded_park_bound(now);
        assert_eq!(bound, Some(now + Duration::from_millis(10)));
        let fail_fast = ServicePolicies::for_config(&RngServiceConfig::default());
        assert_eq!(fail_fast.admission.degraded_park_bound(now), None);
    }

    #[test]
    fn recharacterize_policy_skips_probation() {
        let p = RecharacterizeOnQuarantine;
        assert!(p.needs_recharacterization(crate::health::ShardState::Quarantined));
        assert!(!p.needs_recharacterization(crate::health::ShardState::Probation));
    }

    #[test]
    fn token_bucket_charges_refills_and_isolates_clients() {
        let qos = TokenBucketQos::new(1000.0, 100);
        let t0 = Instant::now();
        // A full bucket covers the burst exactly once.
        assert_eq!(qos.try_charge(ClientId(1), 100, t0), Ok(()));
        let retry = qos.try_charge(ClientId(1), 50, t0).unwrap_err();
        assert_eq!(retry, Duration::from_millis(50), "50 B short at 1000 B/s");
        // Another tenant's bucket is untouched by client 1's spend.
        assert_eq!(qos.try_charge(ClientId(2), 100, t0), Ok(()));
        // Refill is continuous: 60 ms later, 60 tokens are back.
        let t1 = t0 + Duration::from_millis(60);
        assert_eq!(qos.try_charge(ClientId(1), 50, t1), Ok(()));
        assert!(
            qos.try_charge(ClientId(1), 50, t1).is_err(),
            "only 10 tokens left"
        );
        // Refill caps at the burst: a long sleep does not bank extra.
        let t2 = t1 + Duration::from_secs(3600);
        assert_eq!(qos.try_charge(ClientId(1), 100, t2), Ok(()));
        assert!(qos.try_charge(ClientId(1), 1, t2).is_err());
    }

    #[test]
    fn token_bucket_rejects_over_burst_requests_outright() {
        let qos = TokenBucketQos::new(1e9, 64);
        assert_eq!(
            qos.try_charge(ClientId(0), 65, Instant::now()),
            Err(Duration::ZERO),
            "a request over the burst can never be covered"
        );
    }

    #[test]
    fn no_qos_admits_everything() {
        assert_eq!(
            NoQos.try_charge(ClientId(9), usize::MAX, Instant::now()),
            Ok(())
        );
    }
}
