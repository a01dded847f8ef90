//! Lifecycle glue of the service: admission and thread start/stop. The
//! configuration and shared state live in `crate::state`; the control
//! plane (placement, health, degraded admission, requalification,
//! expiry/failover) in [`crate::control`] and [`crate::placement`]; the
//! data plane (batch loop, pacing, tap, delivery) in `crate::worker` and
//! [`crate::queue`]; the client-side receipt in [`crate::ticket`].

use crate::control::{expiry_loop, grader_loop, ServicePolicies};
use crate::correlation::CorrelationMonitor;
use crate::health::ShardHealth;
use crate::mixer::{self, MixedTicket};
use crate::queue::ShardScheduler;
use crate::request::{ClientId, Priority, RngRequest, SubmitError};
use crate::state::{Lifecycle, RngServiceConfig, Shared, State};
use crate::stats::{EntropyLedger, ServiceStats};
use crate::ticket::{ticket_channel, Expired, ExpiryStage, Ticket};
use crate::validate::TapChunk;
use crate::worker::worker_loop;
use quac_trng::pipeline::QuacTrng;
use quac_trng::{BackendKind, EntropyBackend};
use std::collections::HashMap;
use std::sync::atomic::AtomicUsize;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// A sharded, batching, backpressured random-number service: one worker
/// thread per [`QuacTrng`] shard (channel), a priority/round-robin scheduler
/// per shard, tiered least-loaded quarantine-aware placement, a service-wide
/// in-flight byte budget, and (optionally) continuous validation: one grader
/// thread per shard grading that shard's served windows with the NIST
/// battery.
///
/// See the [crate docs](crate) for the architecture and the determinism
/// contract, [`crate::validate`] for the validation loop, and
/// [`crate::health`] for the quarantine state machine.
#[derive(Debug)]
pub struct RngService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    graders: Vec<JoinHandle<()>>,
    sweeper: Option<JoinHandle<()>>,
}

impl RngService {
    /// Starts the service over the given per-channel generator shards
    /// (usually built with [`QuacTrng::shards`]) with the stock policies
    /// ([`ServicePolicies::for_config`]): a homogeneous
    /// [`RngService::start_mesh`].
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty, or if validation is enabled with a
    /// window that is not a whole number of bytes.
    pub fn start(shards: Vec<QuacTrng>, cfg: RngServiceConfig) -> Self {
        let backends = shards
            .into_iter()
            .map(|shard| Box::new(shard) as Box<dyn EntropyBackend>)
            .collect();
        Self::start_mesh(backends, cfg)
    }

    /// Starts the service over a heterogeneous set of entropy backends — the
    /// **entropy mesh** — with the stock policies
    /// ([`ServicePolicies::for_config`]): tiered placement routes
    /// latency-sensitive ([`Priority::High`]) requests to D-RaNGe shards and
    /// bulk ([`Priority::Normal`]) to QUAC shards, with retention the last
    /// resort, and quarantine failover re-places a fenced shard's queue
    /// across the remaining tiers by the same rule. Each shard's
    /// [`BackendKind`] is taken from its
    /// [`class`](quac_trng::EntropyBackend::class), and the per-backend
    /// metric labels in [`export`](crate::export) follow it.
    ///
    /// # Panics
    ///
    /// As [`RngService::start`].
    pub fn start_mesh(backends: Vec<Box<dyn EntropyBackend>>, cfg: RngServiceConfig) -> Self {
        let policies = ServicePolicies::for_config(&cfg);
        Self::start_with_policies(backends, cfg, policies)
    }

    /// Like [`RngService::start_mesh`], with an explicit control-plane policy
    /// set — the seam where custom placement, degraded-admission,
    /// requalification or QoS rules plug in without touching the service's
    /// state machine. A placement policy that is a pure function of its view
    /// preserves the replay-determinism contract.
    ///
    /// # Panics
    ///
    /// As [`RngService::start`].
    pub fn start_with_policies(
        backends: Vec<Box<dyn EntropyBackend>>,
        cfg: RngServiceConfig,
        policies: ServicePolicies,
    ) -> Self {
        assert!(
            !backends.is_empty(),
            "the RNG service needs at least one shard"
        );
        if cfg.validation.enabled {
            // Fail here, in the caller's thread — a malformed window would
            // otherwise panic the grader/worker threads at first use,
            // silently disabling validation (their join errors are dropped).
            assert!(
                cfg.validation.window_bits > 0 && cfg.validation.window_bits % 8 == 0,
                "validation windows must be a positive whole number of bytes, got {} bits",
                cfg.validation.window_bits
            );
        }
        let shard_count = backends.len();
        let backend_kinds: Vec<BackendKind> = backends
            .iter()
            .map(|backend| backend.class().kind)
            .collect();
        let vcfg = cfg.validation;
        let tap_capacity = vcfg.tap_queue_per_shard(shard_count);
        let shared = Arc::new(Shared {
            cfg,
            policies,
            tap_fill: (0..shard_count).map(|_| AtomicUsize::new(0)).collect(),
            tap_capacity,
            correlation: (vcfg.enabled && vcfg.correlation.enabled)
                .then(|| Mutex::new(CorrelationMonitor::new(shard_count, vcfg.correlation))),
            state: Mutex::new(State {
                shards: (0..shard_count)
                    .map(|_| ShardScheduler::new(cfg.fairness_window))
                    .collect(),
                senders: HashMap::new(),
                in_flight_bytes: 0,
                shard_load: vec![0; shard_count],
                health: vec![ShardHealth::new(); shard_count],
                backend_kinds,
                shard_epoch: vec![0; shard_count],
                next_shard: 0,
                next_seq: 0,
                lifecycle: Lifecycle::Running,
                stats: ServiceStats {
                    per_shard_bytes: vec![0; shard_count],
                    per_shard_ledger: vec![EntropyLedger::default(); shard_count],
                    ..ServiceStats::default()
                },
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            deadlines: Condvar::new(),
        });
        // One grader per shard, fed only by that shard's worker: the
        // worker holds the queue's sole sender, so the grader exits once
        // its worker has exited and the queue is drained.
        let (taps, graders): (Vec<_>, Vec<_>) = (0..shard_count)
            .map(|idx| {
                if !vcfg.enabled {
                    return (None, None);
                }
                let (tx, rx) = mpsc::sync_channel::<TapChunk>(tap_capacity);
                let shared = Arc::clone(&shared);
                let grader = std::thread::Builder::new()
                    .name(format!("rng-grader-{idx}"))
                    .spawn(move || grader_loop(&shared, idx, &rx))
                    .expect("spawning an RNG shard grader");
                (Some(tx), Some(grader))
            })
            .unzip();
        let workers = backends
            .into_iter()
            .zip(taps)
            .enumerate()
            .map(|(idx, (trng, tap))| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rng-shard-{idx}"))
                    .spawn(move || worker_loop(&shared, idx, trng, tap))
                    .expect("spawning an RNG shard worker")
            })
            .collect();
        let sweeper = {
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("rng-expiry".into())
                    .spawn(move || expiry_loop(&shared))
                    .expect("spawning the RNG expiry sweep"),
            )
        };
        RngService {
            shared,
            workers,
            graders: graders.into_iter().flatten().collect(),
            sweeper,
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &RngServiceConfig {
        &self.shared.cfg
    }

    /// Submits a request, parking the caller while the in-flight byte budget
    /// is exhausted (backpressure).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Empty`] and [`SubmitError::TooLarge`] for requests that
    /// can never be served; [`SubmitError::ShuttingDown`] once shutdown has
    /// begun (including while parked); [`SubmitError::Degraded`] while every
    /// shard is quarantined, per the configured [`DegradedPolicy`](crate::DegradedPolicy).
    pub fn submit(
        &self,
        client: ClientId,
        priority: Priority,
        len: usize,
    ) -> Result<Ticket, SubmitError> {
        self.admission(client, priority, len, None, Wait::Park, Shape::Plain)
            .map(|(t, _)| t)
    }

    /// Like [`RngService::submit`], with a completion deadline: if the
    /// request is still queued (generation not started) when `deadline`
    /// passes, the expiry sweep completes its ticket with
    /// [`WaitError::Expired`](crate::WaitError::Expired) within one
    /// [`expiry_sweep_interval`](RngServiceConfig::expiry_sweep_interval)
    /// instead of leaving the client parked. A deadline already in the past
    /// returns an immediately-[`Expired`] ticket without admitting or
    /// charging the request, and a submission parked on the in-flight
    /// budget gives up with the same typed outcome when its deadline passes
    /// — no submit path blocks past `max(deadline, policy bound)`.
    ///
    /// # Errors
    ///
    /// Everything [`RngService::submit`] returns. Under
    /// [`DegradedPolicy::Park`](crate::DegradedPolicy::Park), degraded
    /// parking additionally gives up at
    /// `deadline` if that is earlier than the policy's bound (returning
    /// [`SubmitError::Degraded`], since the request was never admitted for
    /// a shard to expire).
    pub fn submit_with_deadline(
        &self,
        client: ClientId,
        priority: Priority,
        len: usize,
        deadline: Instant,
    ) -> Result<Ticket, SubmitError> {
        self.admission(
            client,
            priority,
            len,
            Some(deadline),
            Wait::Park,
            Shape::Plain,
        )
        .map(|(t, _)| t)
    }

    /// Submits a request without blocking.
    ///
    /// # Errors
    ///
    /// Everything [`RngService::submit`] returns, plus
    /// [`SubmitError::Saturated`] when the request does not fit the in-flight
    /// budget right now. While every shard is quarantined this rejects with
    /// [`SubmitError::Degraded`] immediately, under either policy (a
    /// non-blocking call never parks).
    pub fn try_submit(
        &self,
        client: ClientId,
        priority: Priority,
        len: usize,
    ) -> Result<Ticket, SubmitError> {
        self.admission(client, priority, len, None, Wait::Try, Shape::Plain)
            .map(|(t, _)| t)
    }

    /// Like [`RngService::try_submit`], with a completion deadline (see
    /// [`RngService::submit_with_deadline`]). A deadline already in the past
    /// returns an immediately-[`Expired`] ticket without admitting the
    /// request.
    ///
    /// # Errors
    ///
    /// Everything [`RngService::try_submit`] returns.
    pub fn try_submit_with_deadline(
        &self,
        client: ClientId,
        priority: Priority,
        len: usize,
        deadline: Instant,
    ) -> Result<Ticket, SubmitError> {
        self.admission(
            client,
            priority,
            len,
            Some(deadline),
            Wait::Try,
            Shape::Plain,
        )
        .map(|(t, _)| t)
    }

    /// Submits a request that demands **multi-source independence**: one
    /// half is placed on each of two serving shards with *distinct* backend
    /// kinds (chosen deterministically — see
    /// [`MixedTicket`]), and redeeming the ticket
    /// XOR-folds the two streams and SHA-256-conditions the fold
    /// ([`mixer::mix`]), so the output stays unpredictable unless both
    /// sources fail together. Each source contributes
    /// [`mixer::source_len`]`(len)` bytes; the caller receives exactly `len`.
    /// Parks on the in-flight budget like [`RngService::submit`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::NoIndependentSources`] when fewer than two backend
    /// kinds have a serving shard (a mesh degraded to one tier serves plain
    /// submissions but cannot vouch for independence — this fails fast
    /// rather than parking); otherwise everything [`RngService::submit`]
    /// returns, with the budget checks applied to the *combined* source
    /// bytes.
    pub fn submit_mixed(
        &self,
        client: ClientId,
        priority: Priority,
        len: usize,
    ) -> Result<MixedTicket, SubmitError> {
        let (a, b) = self.admission(client, priority, len, None, Wait::Park, Shape::Mixed)?;
        let b = b.expect("a mixed admission places two sources");
        Ok(MixedTicket::new(a, b, len, Arc::clone(&self.shared)))
    }

    /// The one admission path behind every submit variant: under the state
    /// lock it runs the same ordered checks, again after each park.
    ///
    /// 1. Lifecycle: [`SubmitError::ShuttingDown`] once shutdown has begun.
    /// 2. Serving: a plain request with no serving shard goes to the
    ///    degraded policy, which parks it only when blocking; a mixed request
    ///    without two serving backend kinds gets
    ///    [`SubmitError::NoIndependentSources`] at once.
    /// 3. Deadline: a past deadline resolves to an [`Expired`] ticket, with
    ///    stage `Parked` if the call has parked on the budget and `Admission`
    ///    otherwise.
    /// 4. Budget: a request that does not fit parks (bounded by its deadline)
    ///    when blocking, or is refused with [`SubmitError::Saturated`].
    /// 5. QoS charge, then placement: `admit_to` once per source.
    ///
    /// Only a request that reaches step 5 is charged to its client's QoS
    /// allowance, so a refused or expired submission costs no tokens.
    /// Returns the plain ticket, or a mixed request's two source tickets.
    fn admission(
        &self,
        client: ClientId,
        priority: Priority,
        len: usize,
        deadline: Option<Instant>,
        wait: Wait,
        shape: Shape,
    ) -> Result<(Ticket, Option<Ticket>), SubmitError> {
        if len == 0 {
            return Err(SubmitError::Empty);
        }
        let budget = self.shared.cfg.max_inflight_bytes;
        // In-flight bytes the request occupies: both halves of a mixed one.
        let cost = match shape {
            Shape::Plain => len,
            Shape::Mixed => 2 * mixer::source_len(len),
        };
        if let Some(requested) = [len, cost].into_iter().find(|&bytes| bytes > budget) {
            return Err(SubmitError::TooLarge { requested, budget });
        }
        let mut st = self.lock();
        // Pinned at the first degraded observation of this call, so repeated
        // park/wake rounds share one bound instead of restarting it.
        let mut degraded_bound: Option<Instant> = None;
        // Whether this submission has parked on the in-flight budget — the
        // expiry stage a deadline crossed mid-park is attributed to.
        let mut parked = false;
        let sources = loop {
            if st.lifecycle != Lifecycle::Running {
                return Err(SubmitError::ShuttingDown);
            }
            let sources = match shape {
                Shape::Mixed => {
                    let pair =
                        pick_independent_sources(&st.backend_kinds, &st.health, &st.shard_load);
                    if pair.is_none() {
                        let serving_kinds = serving_kind_count(&st.backend_kinds, &st.health);
                        st.stats.degraded_rejections += 1;
                        return Err(SubmitError::NoIndependentSources { serving_kinds });
                    }
                    pair
                }
                Shape::Plain if st.health.iter().any(ShardHealth::is_serving) => None,
                Shape::Plain => {
                    let now = Instant::now();
                    let bound = match wait {
                        Wait::Park => self.shared.policies.admission.degraded_park_bound(now),
                        Wait::Try => None,
                    }
                    .map(|policy_bound| {
                        let bound = *degraded_bound.get_or_insert(policy_bound);
                        deadline.map_or(bound, |d| bound.min(d))
                    });
                    match bound {
                        Some(bound) if now < bound => {
                            st = self.park(st, Some(bound));
                            continue;
                        }
                        _ => {
                            st.stats.degraded_rejections += 1;
                            return Err(SubmitError::Degraded {
                                quarantined: st.health.len(),
                            });
                        }
                    }
                }
            };
            // A deadline already behind us — at first admission, or after a
            // round parked on the in-flight budget — resolves with the typed
            // outcome immediately: the request is never placed or charged,
            // and no submit path blocks past its own deadline.
            if let Some(d) = deadline {
                let now = Instant::now();
                if now >= d {
                    let stage = if parked {
                        ExpiryStage::Parked
                    } else {
                        ExpiryStage::Admission
                    };
                    return Ok((self.admit_expired(&mut st, d, now, stage), None));
                }
            }
            if st.in_flight_bytes + cost <= budget {
                break sources;
            }
            if wait == Wait::Try {
                return Err(SubmitError::Saturated {
                    requested: cost,
                    in_flight: st.in_flight_bytes,
                    budget,
                });
            }
            parked = true;
            // Bounded by the deadline: wake then and fall through to the
            // expiry check above.
            st = self.park(st, deadline);
        };
        self.charge_qos(&mut st, client, len)?;
        Ok(match sources {
            None => {
                let shard = st.place(&*self.shared.policies.placement, priority);
                (
                    self.admit_to(&mut st, client, priority, len, deadline, shard),
                    None,
                )
            }
            Some((first, second)) => {
                let half = cost / 2;
                let a = self.admit_to(&mut st, client, priority, half, deadline, first);
                let b = self.admit_to(&mut st, client, priority, half, deadline, second);
                (a, Some(b))
            }
        })
    }

    /// Parks a submitter on the `space` condvar until in-flight bytes are
    /// released or the lifecycle changes, and at most until `until`.
    fn park<'a>(
        &'a self,
        st: MutexGuard<'a, State>,
        until: Option<Instant>,
    ) -> MutexGuard<'a, State> {
        let space = &self.shared.space;
        match until {
            None => space.wait(st).expect("service state poisoned"),
            Some(t) => {
                let timeout = t.saturating_duration_since(Instant::now());
                space
                    .wait_timeout(st, timeout)
                    .expect("service state poisoned")
                    .0
            }
        }
    }

    /// A snapshot of the running counters, including per-shard health.
    /// Diff two snapshots with
    /// [`ServiceStats::delta_since`](crate::ServiceStats::delta_since) for a
    /// rate window, or render one with
    /// [`export::prometheus_text`](crate::export::prometheus_text).
    pub fn stats(&self) -> ServiceStats {
        self.lock().snapshot()
    }

    /// Bytes currently in flight (queued plus being generated).
    pub fn in_flight_bytes(&self) -> usize {
        self.lock().in_flight_bytes
    }

    /// Serves everything already queued, then stops the workers and returns
    /// the final counters. Parked submitters are released with
    /// [`SubmitError::ShuttingDown`], and delivery pacing is lifted for the
    /// drain, so shutdown completes promptly even under a near-zero idle
    /// budget. A shard mid-requalification abandons it (no readmission
    /// survives shutdown anyway).
    pub fn shutdown(self) -> ServiceStats {
        self.stop(Lifecycle::Draining)
    }

    /// Stops as soon as possible, discarding queued work; the discarded
    /// requests' tickets report [`Canceled`](crate::Canceled).
    pub fn abort(self) -> ServiceStats {
        self.stop(Lifecycle::Aborting)
    }

    fn stop(mut self, how: Lifecycle) -> ServiceStats {
        self.halt(how);
        self.lock().snapshot()
    }

    /// Moves the lifecycle to `how` and joins every thread: the workers
    /// first (each one's tap sender dies with it), then the graders, which
    /// drain their queues and exit on disconnect, then the expiry sweep,
    /// which saw the lifecycle change on its condvar.
    fn halt(&mut self, how: Lifecycle) {
        {
            let mut st = self.lock();
            st.lifecycle = how;
            if how == Lifecycle::Aborting {
                // Cancel every queued ticket by dropping its sender.
                st.senders.clear();
            }
            self.shared.work.notify_all();
            self.shared.space.notify_all();
            self.shared.deadlines.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        for grader in self.graders.drain(..) {
            let _ = grader.join();
        }
        if let Some(sweeper) = self.sweeper.take() {
            let _ = sweeper.join();
        }
    }

    /// Charges `len` bytes against the client's QoS allowance, once per
    /// submission, after every other admission check has passed — so a
    /// blocking call may park on the budget before it is charged, but a
    /// rate-limit rejection itself is typed and immediate for blocking and
    /// non-blocking paths alike: rate limiting is policy, not backpressure,
    /// so nothing parks on it. A mixed request is charged the
    /// client-visible length, not its amplified source bytes.
    fn charge_qos(
        &self,
        st: &mut MutexGuard<'_, State>,
        client: ClientId,
        len: usize,
    ) -> Result<(), SubmitError> {
        match self
            .shared
            .policies
            .qos
            .try_charge(client, len, Instant::now())
        {
            Ok(()) => Ok(()),
            Err(retry_after) => {
                st.stats.rate_limited_rejections += 1;
                Err(SubmitError::RateLimited {
                    client,
                    retry_after,
                })
            }
        }
    }

    /// Queues an admitted, budget-fitting request on `shard`: assigns its
    /// sequence number, charges the budget, records the queue-depth sample,
    /// and wakes a worker.
    fn admit_to(
        &self,
        st: &mut MutexGuard<'_, State>,
        client: ClientId,
        priority: Priority,
        len: usize,
        deadline: Option<Instant>,
        shard: usize,
    ) -> Ticket {
        let seq = st.next_seq;
        st.next_seq += 1;
        st.in_flight_bytes += len;
        st.shard_load[shard] += len;
        st.stats.peak_in_flight_bytes = st.stats.peak_in_flight_bytes.max(st.in_flight_bytes);
        let depth = st.shards[shard].len() as u64;
        st.stats.queue_depth.record(depth);
        let (tx, ticket) = ticket_channel(seq, shard);
        st.senders.insert(seq, tx);
        st.shards[shard].push(RngRequest {
            client,
            priority,
            len,
            seq,
            submitted_at: Instant::now(),
            deadline,
        });
        self.shared.work.notify_all();
        if deadline.is_some() {
            // Only deadline-carrying admissions wake the expiry sweep.
            self.shared.deadlines.notify_all();
        }
        ticket
    }

    /// Completes a submission whose deadline already passed — at admission,
    /// or while parked on the in-flight budget — with the typed [`Expired`]
    /// outcome: a sequence number is consumed and the expiry counted, but
    /// the request is never placed, charged, or queued.
    fn admit_expired(
        &self,
        st: &mut MutexGuard<'_, State>,
        deadline: Instant,
        now: Instant,
        stage: ExpiryStage,
    ) -> Ticket {
        let seq = st.next_seq;
        st.next_seq += 1;
        st.stats.expired_requests += 1;
        Ticket::expired(
            seq,
            Expired {
                seq,
                deadline,
                expired_at: now,
                stage,
            },
        )
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.shared.state.lock().expect("service state poisoned")
    }
}

/// Deterministically selects two serving shards with distinct backend kinds
/// for a mixed submission: kinds are scanned in the fixed order QUAC →
/// D-RaNGe → retention, each contributing its least-loaded serving shard
/// (lowest index breaking ties), and the first two kinds with one win. Pure
/// function of the snapshot, so mixed placement replays deterministically.
fn pick_independent_sources(
    kinds: &[BackendKind],
    health: &[ShardHealth],
    loads: &[usize],
) -> Option<(usize, usize)> {
    let mut picks = [
        BackendKind::Quac,
        BackendKind::DRange,
        BackendKind::Retention,
    ]
    .into_iter()
    .filter_map(|kind| {
        (0..kinds.len())
            .filter(|&i| kinds[i] == kind && health[i].is_serving())
            .min_by_key(|&i| (loads[i], i))
    });
    let first = picks.next()?;
    let second = picks.next()?;
    Some((first, second))
}

/// Number of distinct backend kinds with at least one serving shard.
fn serving_kind_count(kinds: &[BackendKind], health: &[ShardHealth]) -> usize {
    [
        BackendKind::Quac,
        BackendKind::DRange,
        BackendKind::Retention,
    ]
    .into_iter()
    .filter(|kind| {
        kinds
            .iter()
            .zip(health)
            .any(|(k, h)| k == kind && h.is_serving())
    })
    .count()
}

/// Whether a submission that cannot be admitted right now parks (the
/// blocking variants) or is refused at once (the `try_` variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    Park,
    Try,
}

/// What an admission places: one request on the placement policy's shard,
/// or a mixed request's two halves on a pair of independent sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Plain,
    Mixed,
}

impl Drop for RngService {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.halt(Lifecycle::Aborting);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh_health(serving: &[bool]) -> Vec<ShardHealth> {
        serving
            .iter()
            .map(|&up| {
                let mut h = ShardHealth::new();
                if !up {
                    h.force_quarantine();
                }
                h
            })
            .collect()
    }

    #[test]
    fn independent_sources_require_two_distinct_serving_kinds() {
        let kinds = [BackendKind::Quac, BackendKind::Quac, BackendKind::DRange];
        let all_up = mesh_health(&[true, true, true]);
        // Least-loaded QUAC shard first (kind order), then the D-RaNGe one.
        assert_eq!(
            pick_independent_sources(&kinds, &all_up, &[50, 10, 0]),
            Some((1, 2))
        );
        assert_eq!(serving_kind_count(&kinds, &all_up), 2);
        // With the D-RaNGe shard fenced only one kind serves: no pair.
        let drange_down = mesh_health(&[true, true, false]);
        assert_eq!(
            pick_independent_sources(&kinds, &drange_down, &[50, 10, 0]),
            None
        );
        assert_eq!(serving_kind_count(&kinds, &drange_down), 1);
        // A quarantined shard never sources a mixed request even when its
        // kind would otherwise be picked.
        let quac0_down = mesh_health(&[false, true, true]);
        assert_eq!(
            pick_independent_sources(&kinds, &quac0_down, &[0, 10, 0]),
            Some((1, 2))
        );
    }
}
