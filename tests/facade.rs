//! Integration suite for the **async front door** and its companions: the
//! waker-at-delivery contract of [`AsyncTicket`]/[`AsyncMixedTicket`]
//! (resolution wakes the task — serve, expiry sweep, and abort alike — with
//! zero spurious wakes and no polling thread), the typed entropy contract
//! ([`Trng32`]/[`Trng128`]/[`TrngRaw32`] enforcing their
//! MUST-consume-fresh-bits floors against live completions), the per-shard
//! entropy ledger invariant under proptest, per-tenant token-bucket QoS,
//! and the [`ExpiryStage`] satellite (every expiry names the lifecycle
//! stage that killed it).

use proptest::prelude::*;
use quac_trng_repro::baselines::DRangeTrng;
use quac_trng_repro::dram_analog::{
    FailureModel, ModuleVariation, OperatingConditions, QuacAnalogModel,
};
use quac_trng_repro::dram_core::{DataPattern, DramGeometry};
use quac_trng_repro::memctrl::IdleBudget;
use quac_trng_repro::rng_service::facade::{block_on, AsyncMixedTicket, AsyncTicket};
use quac_trng_repro::rng_service::mixer::mix_reference;
use quac_trng_repro::rng_service::{
    ClientId, Completion, ContractError, ExpiryStage, Priority, RngService, RngServiceConfig,
    ServicePolicies, SubmitError, TokenBucketQos, Trng128, Trng32, TrngRaw32, WaitError,
};
use quac_trng_repro::trng::characterize::{characterize_module, CharacterizationConfig};
use quac_trng_repro::trng::pipeline::{shard_seed, QuacTrng};
use quac_trng_repro::trng::EntropyBackend;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

const BASE_SEED: u64 = 0xFACA_DE01;

/// Characterise the tiny module once for the whole suite: the proptest
/// properties spin up a fresh service per case, and recharacterising each
/// time would dominate the run.
fn characterized() -> &'static (
    QuacAnalogModel,
    quac_trng_repro::trng::characterize::ModuleCharacterization,
) {
    static CH: std::sync::OnceLock<(
        QuacAnalogModel,
        quac_trng_repro::trng::characterize::ModuleCharacterization,
    )> = std::sync::OnceLock::new();
    CH.get_or_init(|| {
        let geom = DramGeometry::tiny_test();
        let model = QuacAnalogModel::new(geom, ModuleVariation::generate(&geom, 8));
        let cfg = CharacterizationConfig {
            segment_stride: 1,
            bitline_stride: 1,
            conditions: OperatingConditions::nominal(),
        };
        let ch = characterize_module(&model, DataPattern::best_average(), &cfg);
        (model, ch)
    })
}

fn tiny_shards(count: usize) -> Vec<QuacTrng> {
    let (model, ch) = characterized();
    QuacTrng::shards(model, ch, BASE_SEED, count)
}

/// [`tiny_shards`] boxed for [`RngService::start_with_policies`].
fn tiny_backends(count: usize) -> Vec<Box<dyn EntropyBackend>> {
    tiny_shards(count)
        .into_iter()
        .map(|shard| Box::new(shard) as Box<dyn EntropyBackend>)
        .collect()
}

/// A two-kind mesh (QUAC + D-RaNGe), the minimum for mixed submissions.
fn two_kind_mesh() -> Vec<Box<dyn EntropyBackend>> {
    let (model, ch) = characterized();
    let geom = DramGeometry::tiny_test();
    let quac = QuacTrng::with_characterization(model.clone(), ch.clone(), shard_seed(BASE_SEED, 0));
    let failures = FailureModel::new(ModuleVariation::generate(&geom, 8));
    let drange = DRangeTrng::new(&failures, &geom, 0xD7A6);
    vec![Box::new(quac), Box::new(drange)]
}

/// A waker that counts its wakes: the spurious-wake probe.
#[derive(Debug, Default)]
struct CountingWaker(AtomicUsize);

impl Wake for CountingWaker {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

// ---- the waker-at-delivery contract against a live service ----

#[test]
fn a_live_serve_wakes_the_future_exactly_once() {
    let service = RngService::start(tiny_shards(1), RngServiceConfig::default());
    let ticket = service.submit(ClientId(0), Priority::Normal, 256).unwrap();
    let mut future = std::pin::pin!(AsyncTicket::from(ticket));
    let counter = Arc::new(CountingWaker::default());
    let waker = Waker::from(Arc::clone(&counter));
    let mut cx = Context::from_waker(&waker);
    // Poll until pending registration or immediate readiness; a fast worker
    // may have served the request before the first poll.
    if future.as_mut().poll(&mut cx).is_pending() {
        // Resolution is the only thing that may wake us — wait for it.
        let patience = Instant::now() + Duration::from_secs(30);
        while counter.0.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < patience, "delivery never woke the future");
            std::thread::yield_now();
        }
        assert_eq!(
            counter.0.load(Ordering::SeqCst),
            1,
            "exactly one wake per outcome"
        );
        let Poll::Ready(Ok(completion)) = future.as_mut().poll(&mut cx) else {
            panic!("woken future must be ready with its completion");
        };
        assert_eq!(completion.bytes.len(), 256);
        // The terminal state never wakes again.
        assert!(future.as_mut().poll(&mut cx).is_ready());
        assert_eq!(
            counter.0.load(Ordering::SeqCst),
            1,
            "no wake after resolution"
        );
    }
    service.shutdown();
}

#[test]
fn block_on_redeems_tickets_like_the_blocking_wait() {
    // Same sequential-submission determinism contract as the blocking path:
    // the async front door is a different *wait*, not a different stream.
    let sizes = [5usize, 64, 301, 32, 128];
    let run = |use_async: bool| -> Vec<Vec<u8>> {
        let service = RngService::start(tiny_shards(2), RngServiceConfig::default());
        let bytes = sizes
            .iter()
            .map(|&len| {
                let t = service.submit(ClientId(0), Priority::Normal, len).unwrap();
                if use_async {
                    block_on(AsyncTicket::from(t)).unwrap().bytes
                } else {
                    t.wait().unwrap().bytes
                }
            })
            .collect();
        service.shutdown();
        bytes
    };
    assert_eq!(
        run(true),
        run(false),
        "await and wait must redeem identical streams"
    );
}

#[test]
fn the_expiry_sweep_wakes_async_waiters_with_the_sweep_stage() {
    // One shard paced to a crawl: a sacrificial request commits in pacing,
    // the deadline-carrying one behind it stays queued, expires, and the
    // sweep's resolution must wake the parked executor.
    const LEN: usize = 256;
    let cfg = RngServiceConfig {
        max_batch_requests: 1,
        max_batch_bytes: LEN,
        pacing: IdleBudget::from_gbps(1e-5),
        expiry_sweep_interval: Duration::from_millis(2),
        ..RngServiceConfig::default()
    };
    let service = RngService::start(tiny_shards(1), cfg);
    let _sacrificial = service.submit(ClientId(0), Priority::Normal, LEN).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let deadline = Instant::now() + Duration::from_millis(30);
    let doomed = service
        .submit_with_deadline(ClientId(1), Priority::Normal, LEN, deadline)
        .expect("admitted while queue has space");
    let expired = match block_on(AsyncTicket::from(doomed)) {
        Err(WaitError::Expired(e)) => e,
        other => panic!("the sweep must expire the queued request, got {other:?}"),
    };
    assert_eq!(expired.stage, ExpiryStage::Sweep);
    assert!(
        expired.to_string().contains("while still queued"),
        "sweep expiry must render its stage: {expired}"
    );
    service.abort();
}

#[test]
fn abort_wakes_async_waiters_with_canceled() {
    const LEN: usize = 256;
    let cfg = RngServiceConfig {
        max_batch_requests: 1,
        max_batch_bytes: LEN,
        pacing: IdleBudget::from_gbps(1e-5),
        ..RngServiceConfig::default()
    };
    let service = RngService::start(tiny_shards(1), cfg);
    // Both requests are stuck: the first committed in pacing, the second
    // queued behind it. Abort must wake the async waiter on either.
    let first = service.submit(ClientId(0), Priority::Normal, LEN).unwrap();
    let second = service.submit(ClientId(0), Priority::Normal, LEN).unwrap();
    let waiter = std::thread::spawn(move || {
        (
            block_on(AsyncTicket::from(first)),
            block_on(AsyncTicket::from(second)),
        )
    });
    std::thread::sleep(Duration::from_millis(30));
    service.abort();
    let (first, second) = waiter.join().expect("waiter thread");
    assert!(
        matches!(first, Err(WaitError::Canceled(_)))
            && matches!(second, Err(WaitError::Canceled(_))),
        "abort must cancel both: {first:?} / {second:?}"
    );
}

#[test]
fn mixed_tickets_resolve_async_with_the_reference_mix() {
    let service = RngService::start_mesh(two_kind_mesh(), RngServiceConfig::default());
    let mixed = service
        .submit_mixed(ClientId(0), Priority::Normal, 96)
        .unwrap();
    let out = block_on(AsyncMixedTicket::from(mixed)).expect("both halves served");
    assert_eq!(out.bytes.len(), 96);
    assert_ne!(
        out.first.backend, out.second.backend,
        "mixed halves must come from distinct backend kinds"
    );
    let mut expected = mix_reference(&out.first.bytes, &out.second.bytes);
    expected.truncate(96);
    assert_eq!(
        out.bytes, expected,
        "async mix must equal the scalar reference twin"
    );
    service.shutdown();
}

#[test]
fn one_ticket_is_shared_consistently_across_threads() {
    // Tickets are Sync: a try_wait poller and a wait_deadline blocker on
    // *other* threads must observe the same terminal outcome as the owner.
    let service = RngService::start(tiny_shards(1), RngServiceConfig::default());
    let ticket = service.submit(ClientId(0), Priority::Normal, 512).unwrap();
    let (polled, waited) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let patience = Instant::now() + Duration::from_secs(30);
            loop {
                match ticket.try_wait().expect("never fails here") {
                    Some(c) => return c,
                    None => assert!(Instant::now() < patience, "poller starved"),
                }
                std::thread::yield_now();
            }
        });
        let blocker = scope.spawn(|| {
            ticket
                .wait_deadline(Instant::now() + Duration::from_secs(30))
                .expect("served, not failed")
                .expect("served within patience")
        });
        (
            poller.join().expect("poller"),
            blocker.join().expect("blocker"),
        )
    });
    assert_eq!(polled, waited, "every thread must see the same completion");
    service.shutdown();
}

// ---- the typed entropy contract on live completions ----

#[test]
fn contract_frames_build_from_live_completions_with_matching_telemetry() {
    let service = RngService::start(tiny_shards(1), RngServiceConfig::default());
    // 2 KiB from the tiny QUAC module banks far more than 128 fresh bits.
    let completion = service
        .submit(ClientId(0), Priority::Normal, 2048)
        .unwrap()
        .wait()
        .unwrap();
    assert!(
        completion.fresh_bits >= 128,
        "tiny QUAC is ~22 fresh bits/byte: {completion:?}"
    );
    let t32 = Trng32::from_completion(&completion).expect("≥32 fresh bits");
    let t128 = Trng128::from_completion(&completion).expect("≥128 fresh bits");
    let raw = TrngRaw32::from_completion(&completion).expect("≥32 fresh bits");
    assert_eq!(t32.value.to_le_bytes(), completion.bytes[..4]);
    assert_eq!(t128.value, completion.bytes[..16]);
    assert_eq!(raw.value, completion.bytes[..32]);
    for telemetry in [t32.telemetry, t128.telemetry, raw.telemetry] {
        assert_eq!(telemetry.shard, completion.shard);
        assert_eq!(telemetry.backend, completion.backend);
        assert_eq!(telemetry.epoch, completion.epoch);
        assert_eq!(telemetry.stream_offset, completion.stream_offset);
        assert_eq!(telemetry.fresh_bits, completion.fresh_bits);
    }
    service.shutdown();
}

// ---- per-tenant QoS ----

#[test]
fn token_bucket_qos_sheds_a_greedy_tenant_without_touching_its_peer() {
    let cfg = RngServiceConfig::default();
    let mut policies = ServicePolicies::for_config(&cfg);
    // 1 KiB burst, trickle refill: the third 512 B request in a tight loop
    // must bounce with the typed error while the other tenant is untouched.
    policies.qos = Box::new(TokenBucketQos::new(64.0, 1024));
    let service = RngService::start_with_policies(tiny_backends(1), cfg, policies);
    for _ in 0..2 {
        let t = service.submit(ClientId(7), Priority::Normal, 512).unwrap();
        t.wait().expect("within burst");
    }
    match service.submit(ClientId(7), Priority::Normal, 512) {
        Err(SubmitError::RateLimited {
            client,
            retry_after,
        }) => {
            assert_eq!(client, ClientId(7));
            assert!(
                retry_after > Duration::ZERO,
                "refill time must be estimated"
            );
        }
        other => panic!("the drained bucket must rate-limit: {other:?}"),
    }
    // Rejection is per tenant, and it is policy, not backpressure: the
    // sibling client's own bucket is full.
    let t = service
        .submit(ClientId(8), Priority::Normal, 512)
        .expect("peer unaffected");
    t.wait().expect("served");
    let stats = service.shutdown();
    assert_eq!(stats.rate_limited_rejections, 1);
}

#[test]
fn refused_submissions_spend_no_qos_tokens() {
    const BUDGET: usize = 1024;
    let cfg = RngServiceConfig {
        max_inflight_bytes: BUDGET,
        max_batch_requests: 1,
        max_batch_bytes: BUDGET,
        pacing: IdleBudget::from_gbps(4e-5),
        ..RngServiceConfig::default()
    };
    let mut policies = ServicePolicies::for_config(&cfg);
    // A 1 KiB burst that refills about one byte over the whole test.
    policies.qos = Box::new(TokenBucketQos::new(1.0, BUDGET));
    let service = RngService::start_with_policies(tiny_backends(1), cfg, policies);
    // Another tenant fills the in-flight budget, and pacing holds it there
    // for about 200 ms.
    let hog = service
        .submit(ClientId(0), Priority::Normal, BUDGET)
        .unwrap();
    // A client retrying under backpressure is refused as Saturated every
    // time: the refusals must not drain its bucket into RateLimited.
    for _ in 0..4 {
        match service.try_submit(ClientId(7), Priority::Normal, 512) {
            Err(SubmitError::Saturated { .. }) => {}
            other => panic!("a full budget must refuse with Saturated: {other:?}"),
        }
    }
    hog.wait().expect("served");
    // The budget is free and the bucket still full: the whole burst is
    // admitted.
    let ticket = service
        .submit(ClientId(7), Priority::Normal, BUDGET)
        .expect("refused submissions spent no tokens");
    let stats = service.shutdown();
    assert_eq!(ticket.wait().expect("served").bytes.len(), BUDGET);
    assert_eq!(stats.rate_limited_rejections, 0);
}

// ---- satellite regressions ----

#[test]
fn an_already_past_deadline_expires_at_admission_with_its_stage() {
    let service = RngService::start(tiny_shards(1), RngServiceConfig::default());
    let past = Instant::now() - Duration::from_millis(10);
    let ticket = service
        .submit_with_deadline(ClientId(0), Priority::Normal, 64, past)
        .expect("admission-expiry is a resolved ticket, not a submit error");
    let expired = match ticket.wait() {
        Err(WaitError::Expired(e)) => e,
        other => panic!("expected admission expiry, got {other:?}"),
    };
    assert_eq!(expired.stage, ExpiryStage::Admission);
    assert!(
        expired.to_string().contains("at admission"),
        "admission expiry must not blame the queue: {expired}"
    );
    let stats = service.shutdown();
    assert_eq!(stats.expired_requests, 1);
}

#[test]
fn a_budget_parked_submission_expires_with_the_parked_stage() {
    const LEN: usize = 256;
    let cfg = RngServiceConfig {
        max_inflight_bytes: LEN,
        max_batch_requests: 1,
        max_batch_bytes: LEN,
        pacing: IdleBudget::from_gbps(1e-5),
        expiry_sweep_interval: Duration::from_millis(2),
        ..RngServiceConfig::default()
    };
    let service = RngService::start(tiny_shards(1), cfg);
    // Fill the budget; the next submission parks, and its own deadline
    // passes before space frees.
    let _hog = service.submit(ClientId(0), Priority::Normal, LEN).unwrap();
    let deadline = Instant::now() + Duration::from_millis(40);
    let ticket = service
        .submit_with_deadline(ClientId(1), Priority::Normal, LEN, deadline)
        .expect("parked submissions resolve as expired tickets");
    let expired = match ticket.wait() {
        Err(WaitError::Expired(e)) => e,
        other => panic!("expected parked expiry, got {other:?}"),
    };
    assert_eq!(expired.stage, ExpiryStage::Parked);
    assert!(
        expired
            .to_string()
            .contains("parked on the in-flight budget"),
        "parked expiry must name the budget, not the queue: {expired}"
    );
    service.abort();
}

#[test]
fn empty_mixed_submissions_are_rejected_as_empty() {
    // Regression guard: submit_mixed must validate the *client-visible*
    // length up front, exactly like submit/try_submit.
    let service = RngService::start_mesh(two_kind_mesh(), RngServiceConfig::default());
    assert_eq!(
        service
            .submit_mixed(ClientId(0), Priority::Normal, 0)
            .unwrap_err(),
        SubmitError::Empty
    );
    service.shutdown();
}

// ---- the entropy-ledger invariant ----

/// Sum of ledger-attributed fresh bits per shard, from the completions.
fn claimed_per_shard(completions: &[Completion], shards: usize) -> Vec<u64> {
    let mut claimed = vec![0u64; shards];
    for c in completions {
        claimed[c.shard] += c.fresh_bits;
    }
    claimed
}

proptest! {
    /// The tentpole ledger property: across arbitrary request mixes, no
    /// shard's completions ever claim more fresh bits than its ledger shows
    /// drawn — and the exported ledger agrees with the per-completion
    /// attribution. The contract layer then composes for free: a frame's
    /// floor is checked against attribution that is itself conservative.
    #[test]
    fn prop_no_shard_overclaims_its_ledger(
        lens in proptest::collection::vec(1usize..500, 2..7),
        shards in 1usize..3,
    ) {
        let service = RngService::start(tiny_shards(shards), RngServiceConfig::default());
        let completions: Vec<Completion> = lens
            .iter()
            .map(|&len| {
                let t = service.submit(ClientId(0), Priority::Normal, len).unwrap();
                t.wait().expect("served")
            })
            .collect();
        let stats = service.shutdown();
        let claimed = claimed_per_shard(&completions, shards);
        prop_assert_eq!(stats.per_shard_ledger.len(), shards);
        for (shard, ledger) in stats.per_shard_ledger.iter().enumerate() {
            // Ledger and completions must agree per shard.
            prop_assert_eq!(ledger.fresh_bits_claimed, claimed[shard]);
            prop_assert!(
                ledger.fresh_bits_claimed <= ledger.fresh_bits_drawn,
                "shard {} claims {} fresh bits of {} drawn",
                shard, ledger.fresh_bits_claimed, ledger.fresh_bits_drawn
            );
            let served: u64 = completions
                .iter()
                .filter(|c| c.shard == shard)
                .map(|c| c.bytes.len() as u64)
                .sum();
            prop_assert_eq!(ledger.conditioned_bytes_served, served);
        }
    }

    /// The contract constructors and the ledger attribution compose: every
    /// live completion either satisfies a frame's floor or gets the typed
    /// insufficiency error — never a frame backed by unaccounted entropy.
    #[test]
    fn prop_contract_floors_match_the_attributed_fresh_bits(
        lens in proptest::collection::vec(16usize..256, 1..5),
    ) {
        let service = RngService::start(tiny_shards(1), RngServiceConfig::default());
        for &len in &lens {
            let c = service.submit(ClientId(0), Priority::Normal, len).unwrap().wait().unwrap();
            match Trng128::from_completion(&c) {
                Ok(frame) => prop_assert!(frame.telemetry.fresh_bits >= 128),
                Err(ContractError::InsufficientFreshBits { claimed, required }) => {
                    prop_assert_eq!(required, 128);
                    prop_assert_eq!(claimed, c.fresh_bits);
                    prop_assert!(claimed < 128);
                }
                Err(e) => prop_assert!(false, "unexpected contract error: {e}"),
            }
        }
        service.shutdown();
    }
}

// ---- the async facade end-to-end under thread-count matrix ----

/// A compound future joining several async tickets — exercises re-polling
/// and waker re-registration across many pending tickets, as a real
/// executor with a task joining a batch would.
struct JoinAll {
    pending: Vec<AsyncTicket>,
    done: Vec<Result<Completion, WaitError>>,
}

impl Future for JoinAll {
    type Output = Vec<Result<Completion, WaitError>>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        let mut still_pending = Vec::new();
        for mut ticket in this.pending.drain(..) {
            match Pin::new(&mut ticket).poll(cx) {
                Poll::Ready(out) => this.done.push(out),
                Poll::Pending => still_pending.push(ticket),
            }
        }
        this.pending = still_pending;
        if this.pending.is_empty() {
            Poll::Ready(std::mem::take(&mut this.done))
        } else {
            Poll::Pending
        }
    }
}

#[test]
fn a_joined_batch_of_async_tickets_all_resolve() {
    let service = RngService::start(tiny_shards(2), RngServiceConfig::default());
    let pending: Vec<AsyncTicket> = (0..16u32)
        .map(|i| {
            let len = 32 + (i as usize * 37) % 400;
            AsyncTicket::from(
                service
                    .submit(ClientId(i % 3), Priority::Normal, len)
                    .unwrap(),
            )
        })
        .collect();
    let outcomes = block_on(JoinAll {
        pending,
        done: Vec::new(),
    });
    assert_eq!(outcomes.len(), 16);
    for out in outcomes {
        out.expect("every batched request is served");
    }
    service.shutdown();
}
