//! Seeded chaos campaigns against the live threaded service: environmental
//! drift, burst erasures, stuck pins, and multi-shard loss, each asserting
//! the degraded-mode SLOs end to end —
//!
//! * no deadlock: every submitted ticket reaches a terminal state
//!   (served, expired, or typed-rejected) and shutdown/abort return;
//! * a fenced shard never serves while the service runs: queued work fails
//!   over to healthy shards, and post-fence placements avoid the suspect;
//! * failover preserves the determinism contract: healthy shards'
//!   completions still reassemble bit-identically to their serial
//!   single-threaded references;
//! * the configured [`DegradedPolicy`] is honoured during total
//!   quarantine — FailFast rejects immediately, bounded parking unblocks on
//!   readmission or gives up at its bound / the request's own deadline.
//!
//! Every fault is a seeded pure function of the delivered stream offset, so
//! the campaigns replay deterministically up to thread interleaving — and
//! the assertions only use interleaving-independent facts.

use quac_trng_repro::baselines::{DRangeTrng, RetentionTrng};
use quac_trng_repro::dram_analog::{
    FailureModel, ModuleVariation, OperatingConditions, QuacAnalogModel, RetentionModel,
    TemperatureRamp, TemperatureTrend,
};
use quac_trng_repro::dram_core::{DataPattern, DramGeometry};
use quac_trng_repro::rng_service::{
    ClientId, Completion, DegradedPolicy, HealthPolicy, Priority, RngService, RngServiceConfig,
    ServiceStats, ShardState, SubmitError, ValidationConfig, WaitError,
};
use quac_trng_repro::trng::characterize::{characterize_module, CharacterizationConfig};
use quac_trng_repro::trng::fault::{DriftInjector, FaultInjector};
use quac_trng_repro::trng::pipeline::{shard_seed, QuacTrng};
use quac_trng_repro::trng::EntropyBackend;
use std::time::{Duration, Instant};

const BASE_SEED: u64 = 0xC4A0_5EED;

fn tiny_shards(count: usize) -> (QuacAnalogModel, Vec<QuacTrng>) {
    let geom = DramGeometry::tiny_test();
    let model = QuacAnalogModel::new(geom, ModuleVariation::generate(&geom, 8));
    let cfg = CharacterizationConfig {
        segment_stride: 1,
        bitline_stride: 1,
        conditions: OperatingConditions::nominal(),
    };
    let ch = characterize_module(&model, DataPattern::best_average(), &cfg);
    let shards = QuacTrng::shards(&model, &ch, BASE_SEED, count);
    (model, shards)
}

fn reference_stream(model: &QuacAnalogModel, idx: usize, len: usize) -> Vec<u8> {
    let cfg = CharacterizationConfig {
        segment_stride: 1,
        bitline_stride: 1,
        conditions: OperatingConditions::nominal(),
    };
    let ch = characterize_module(model, DataPattern::best_average(), &cfg);
    QuacTrng::with_characterization(model.clone(), ch, shard_seed(BASE_SEED, idx))
        .generate_bytes(len)
}

/// Reassembles one shard's epoch-0 stream from its completions and checks
/// the gapless-tiling invariant.
fn reassemble_shard(completions: &[Completion], shard: usize) -> Vec<u8> {
    let mut chunks: Vec<&Completion> =
        completions.iter().filter(|c| c.shard == shard && c.epoch == 0).collect();
    chunks.sort_by_key(|c| c.stream_offset);
    let mut stream = Vec::new();
    for c in chunks {
        assert_eq!(
            c.stream_offset as usize,
            stream.len(),
            "shard {shard}: completions must tile the stream with no gap or overlap"
        );
        stream.extend_from_slice(&c.bytes);
    }
    stream
}

/// Small lossless windows and a streak-only bound: two consecutive failing
/// 2000 B windows fence a shard, two passing probation windows readmit it.
fn chaos_validation() -> ValidationConfig {
    ValidationConfig {
        enabled: true,
        window_bits: 16_000,
        lossless_tap: true,
        policy: HealthPolicy {
            ewma_alpha: 0.1,
            min_pass_ewma: 0.0,
            max_consecutive_failures: 2,
            probation_windows: 2,
        },
        recharacterization: CharacterizationConfig {
            segment_stride: 1,
            bitline_stride: 1,
            conditions: OperatingConditions::nominal(),
        },
        ..ValidationConfig::default()
    }
}

fn wait_for(
    service: &RngService,
    timeout: Duration,
    what: &str,
    predicate: impl Fn(&ServiceStats) -> bool,
) -> ServiceStats {
    let deadline = Instant::now() + timeout;
    loop {
        let stats = service.stats();
        if predicate(&stats) {
            return stats;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}: {stats:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Feeds sequential deadline-carrying probes until `predicate` holds.
/// Served, expired, and degraded-rejected probes are all acceptable ends —
/// the fence may land at any point of a probe's life — so this loop can
/// never hang on a stranded ticket. Served completions are pushed to `out`.
fn probe_until(
    service: &RngService,
    out: &mut Vec<Completion>,
    what: &str,
    predicate: impl Fn(&ServiceStats) -> bool,
) -> ServiceStats {
    let give_up = Instant::now() + Duration::from_secs(120);
    loop {
        let stats = service.stats();
        if predicate(&stats) {
            return stats;
        }
        assert!(Instant::now() < give_up, "campaign never reached {what}: {stats:?}");
        // A short probe deadline bounds each iteration: a probe stranded by
        // a fence resolves within ~one sweep of this, so the loop re-polls
        // the stats long before a concurrent requalification can finish —
        // campaigns that must observe the degraded interval after this
        // returns would otherwise race the self-heal.
        let deadline = Instant::now() + Duration::from_millis(50);
        match service.submit_with_deadline(ClientId(0), Priority::Normal, 2048, deadline) {
            Ok(ticket) => match ticket.wait() {
                Ok(c) => out.push(c),
                Err(WaitError::Expired(_)) => {}
                Err(WaitError::Canceled(c)) => panic!("service still running: {c}"),
            },
            Err(SubmitError::Degraded { .. }) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => panic!("unexpected admission failure: {e}"),
        }
    }
}

/// Campaign 1 — gradual environmental drift with genuine recovery.
///
/// Shard 1 carries a *non-transient* drift fault: a one-shot 50→85 °C
/// excursion over its first 60 kB on a Trend-2 module. The service must
/// fence the shard as the bias grows past the battery's sensitivity, cycle
/// recharacterisation (which cannot clear this fault) and probation — each
/// probation window marching the shard's stream offset through the pulse —
/// and readmit once the environment has genuinely recovered, all while the
/// healthy shard serves bit-identically.
#[test]
fn campaign_gradual_drift_fences_then_recovers_with_the_environment() {
    const DRIFTY: usize = 1;
    let (model, mut shards) = tiny_shards(2);
    let drift = DriftInjector::excursion(
        TemperatureRamp::nominal_to(85.0),
        TemperatureTrend::Decreasing,
        60_000,
        0.004,
    );
    shards[DRIFTY].stream_mut().inject_fault(FaultInjector::drift(drift, 0xD21F));
    let cfg = RngServiceConfig { validation: chaos_validation(), ..RngServiceConfig::default() };
    let service = RngService::start(shards, cfg);

    // Phase 1: drive traffic until the growing bias fences the shard.
    let mut completions = Vec::new();
    let tripped =
        probe_until(&service, &mut completions, "drift quarantine", |s| {
            s.validation.quarantines >= 1
        });
    assert_ne!(tripped.shard_health[DRIFTY].state, ShardState::Healthy);
    assert_eq!(tripped.shard_health[1 - DRIFTY].state, ShardState::Healthy);

    // Phase 2: recovery. Recharacterisation never clears the fault, but
    // probation windows advance the stream past the pulse, after which the
    // bias is gone for good and the shard requalifies.
    let recovered = wait_for(&service, Duration::from_secs(120), "drift readmission", |s| {
        s.validation.readmissions >= 1
    });
    assert!(recovered.validation.recharacterizations >= 1);
    assert!(
        recovered.validation.probation_windows >= 2,
        "recovery must have graded probation windows: {recovered:?}"
    );

    // Phase 3: the recovered shard re-enters placement and serves again,
    // now in epoch 1.
    let give_up = Instant::now() + Duration::from_secs(60);
    loop {
        let ticket = service.submit(ClientId(0), Priority::Normal, 2048).unwrap();
        let c = ticket.wait().expect("served after recovery");
        let shard = c.shard;
        let epoch = c.epoch;
        completions.push(c);
        if shard == DRIFTY {
            assert_eq!(epoch, 1, "post-readmission completions carry the bumped epoch");
            break;
        }
        assert!(Instant::now() < give_up, "recovered shard never placed again");
    }

    let stats = service.shutdown();
    assert!(stats.validation.quarantines >= 1);
    assert!(stats.validation.readmissions >= 1);
    // The healthy shard's epoch-0 stream stayed bit-identical through the
    // whole drift episode.
    let healthy = reassemble_shard(&completions, 1 - DRIFTY);
    assert!(!healthy.is_empty());
    assert_eq!(healthy, reference_stream(&model, 1 - DRIFTY, healthy.len()));
}

/// Campaign 2 — burst erasures with queued-work failover.
///
/// Three shards, one dropping whole transfers (persistent burst fault). A
/// flood of outstanding requests guarantees the faulty shard has queued,
/// not-yet-generated work when the fence lands; that work must be re-placed
/// onto the healthy shards (counted by `failed_over_requests`), every ticket
/// must still be served, and the healthy shards must stay bit-identical.
#[test]
fn campaign_burst_fault_fails_over_queued_work_bit_identically() {
    const SHARDS: usize = 3;
    const FAULTY: usize = 1;
    const FLOOD: usize = 60;
    let (model, mut shards) = tiny_shards(SHARDS);
    shards[FAULTY].stream_mut().inject_fault(FaultInjector::burst(64, 48));
    let cfg = RngServiceConfig {
        // A tap queue of one batch per shard makes the lossless tap a real
        // gate: each worker serves at most one batch past what its grader
        // has graded, so the fence deterministically lands while the faulty
        // shard still holds queued work. (The default queue of 64 batches
        // exceeds the whole flood — whether the fence caught anything was a
        // CPU-contention race.)
        validation: ValidationConfig { tap_queue_batches: 1, ..chaos_validation() },
        // One request per batch: the faulty shard's queue stays deep while
        // its first windows are graded, so the fence catches queued work.
        max_batch_requests: 1,
        max_batch_bytes: 2048,
        max_inflight_bytes: FLOOD * 2048,
        ..RngServiceConfig::default()
    };
    let service = RngService::start(shards, cfg);

    let tickets: Vec<_> = (0..FLOOD)
        .map(|i| service.submit(ClientId(i as u32 % 4), Priority::Normal, 2048).unwrap())
        .collect();
    // Every flooded ticket is served — requests stranded on the fenced
    // shard were re-placed, not lost (no deadline, so a hang here is the
    // deadlock the campaign exists to rule out).
    let mut completions: Vec<Completion> =
        tickets.into_iter().map(|t| t.wait().expect("flood served")).collect();

    let stats = wait_for(&service, Duration::from_secs(60), "burst quarantine", |s| {
        s.validation.quarantines >= 1
    });
    assert_ne!(stats.shard_health[FAULTY].state, ShardState::Healthy);
    assert!(
        stats.failed_over_requests >= 1,
        "the fence must have re-placed queued work: {stats:?}"
    );

    // Post-fence wave: a persistent fault never readmits, so none of these
    // may be served by the suspect shard.
    let wave: Vec<_> = (0..12)
        .map(|_| service.submit(ClientId(9), Priority::Normal, 1024).unwrap())
        .collect();
    for t in wave {
        let c = t.wait().expect("served by a healthy shard");
        assert_ne!(c.shard, FAULTY, "a fenced shard must never serve while the service runs");
        completions.push(c);
    }

    let stats = service.shutdown();
    assert_eq!(stats.validation.readmissions, 0, "a persistent fault cannot requalify");
    assert_eq!(stats.completed_requests as usize, FLOOD + 12);
    for shard in (0..SHARDS).filter(|&s| s != FAULTY) {
        let stream = reassemble_shard(&completions, shard);
        assert!(!stream.is_empty(), "healthy shard {shard} served nothing");
        assert_eq!(
            stream,
            reference_stream(&model, shard, stream.len()),
            "failover perturbed healthy shard {shard}'s stream"
        );
    }
}

/// Campaign 3 — stuck-at pin, total quarantine, fail-fast, self-heal.
///
/// A single shard with a *transient* stuck DQ line: the fence leaves zero
/// healthy shards, so FailFast must reject new work with the typed Degraded
/// error while requalification runs; recharacterisation clears the fault, so
/// the service must then readmit the shard and serve again — the full
/// degrade → reject → self-heal → recover arc with no operator involved.
#[test]
fn campaign_stuck_at_fail_fast_rejects_then_self_heals() {
    let (_, mut shards) = tiny_shards(1);
    shards[0].stream_mut().inject_fault(FaultInjector::stuck_at(0, true).transient());
    // Enough probation windows (≈0.5 MB of probation generation + grading)
    // that the degraded interval lasts far longer than one probe_until
    // iteration (bounded by the 50 ms probe deadline) — smaller streaks
    // healed inside the final probe's expiry wait, before the rejection
    // loop below ever polled.
    let mut validation = chaos_validation();
    validation.policy.probation_windows = 250;
    let cfg = RngServiceConfig { validation, ..RngServiceConfig::default() };
    let service = RngService::start(shards, cfg);

    let mut completions = Vec::new();
    probe_until(&service, &mut completions, "stuck-at quarantine", |s| {
        s.validation.quarantines >= 1
    });

    // Degraded: fail-fast on both admission paths, until the shard heals.
    let mut rejections = 0u32;
    while service.stats().validation.readmissions == 0 {
        match service.try_submit(ClientId(1), Priority::Normal, 512) {
            Err(SubmitError::Degraded { quarantined }) => {
                assert_eq!(quarantined, 1);
                rejections += 1;
            }
            Ok(ticket) => {
                // Readmitted between the stats poll and the submit: served.
                completions.push(ticket.wait().expect("served after readmission"));
                break;
            }
            Err(e) => panic!("unexpected admission failure: {e}"),
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let healed = wait_for(&service, Duration::from_secs(120), "self-heal", |s| {
        s.validation.readmissions >= 1
    });
    assert!(rejections >= 1, "the degraded interval was never observed");
    assert!(healed.degraded_rejections >= u64::from(rejections), "{healed:?}");

    // Healed: submissions are admitted and served again.
    let give_up = Instant::now() + Duration::from_secs(60);
    loop {
        match service.submit(ClientId(2), Priority::Normal, 1024) {
            Ok(t) => {
                assert_eq!(t.wait().expect("served after self-heal").bytes.len(), 1024);
                break;
            }
            // A post-heal window may re-trip before our submit lands; the
            // transient fault is gone, so the next heal is coming.
            Err(SubmitError::Degraded { .. }) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => panic!("unexpected admission failure: {e}"),
        }
        assert!(Instant::now() < give_up, "service never served after self-heal");
    }
    let stats = service.shutdown();
    assert!(stats.validation.readmissions >= 1);
    assert!(stats.degraded_rejections >= 1);
}

/// Campaign 4 — multi-shard loss with parked submissions resuming.
///
/// Both shards fail (transient bias faults) and are fenced; under a
/// generous Park policy a blocking submission issued during the total
/// quarantine must park — not error — and complete once a shard readmits.
#[test]
fn campaign_multi_shard_loss_parked_submission_resumes_on_readmission() {
    const SHARDS: usize = 2;
    let (_, mut shards) = tiny_shards(SHARDS);
    shards[0].stream_mut().inject_fault(FaultInjector::bias(0.75, 11).transient());
    shards[1].stream_mut().inject_fault(FaultInjector::bias(0.75, 13).transient());
    let mut validation = chaos_validation();
    validation.policy.probation_windows = 50;
    let cfg = RngServiceConfig {
        validation,
        degraded: DegradedPolicy::Park { max_wait: Duration::from_secs(120) },
        ..RngServiceConfig::default()
    };
    let service = std::sync::Arc::new(RngService::start(shards, cfg));

    let mut completions = Vec::new();
    probe_until(&service, &mut completions, "total quarantine", |s| {
        s.shard_health.iter().all(|h| h.state != ShardState::Healthy)
    });

    // Submit from another thread while every shard is fenced: under Park it
    // must block until a readmission, then be served normally.
    let parked = {
        let service = std::sync::Arc::clone(&service);
        std::thread::spawn(move || {
            let ticket = service.submit(ClientId(7), Priority::High, 512).expect("parked, not rejected");
            ticket.wait().expect("served after readmission")
        })
    };
    let healed = wait_for(&service, Duration::from_secs(120), "first readmission", |s| {
        s.validation.readmissions >= 1
    });
    assert!(healed.validation.quarantines >= 2, "both shards were lost: {healed:?}");
    let completion = parked.join().expect("parked submitter thread");
    assert_eq!(completion.bytes.len(), 512);
    assert_eq!(completion.client, ClientId(7));

    let stats =
        std::sync::Arc::try_unwrap(service).expect("submitter joined").shutdown();
    assert!(stats.validation.quarantines >= 2);
    assert!(stats.validation.readmissions >= 1);
}

/// Campaign 5 — bounded parking gives up at the request's own deadline.
///
/// Total quarantine that never heals (persistent fault), a Park policy with
/// an effectively unbounded wait: a deadline-carrying submission must stop
/// parking at *its* deadline and return the typed Degraded error — the
/// request-level bound wins over the policy-level one.
#[test]
fn campaign_parked_submission_honours_its_own_deadline() {
    let (_, mut shards) = tiny_shards(1);
    shards[0].stream_mut().inject_fault(FaultInjector::stuck_at(3, false));
    let cfg = RngServiceConfig {
        validation: chaos_validation(),
        degraded: DegradedPolicy::Park { max_wait: Duration::from_secs(3600) },
        ..RngServiceConfig::default()
    };
    let service = RngService::start(shards, cfg);
    let mut completions = Vec::new();
    probe_until(&service, &mut completions, "persistent quarantine", |s| {
        s.validation.quarantines >= 1
    });

    let started = Instant::now();
    let err = service
        .submit_with_deadline(
            ClientId(1),
            Priority::Normal,
            256,
            Instant::now() + Duration::from_millis(300),
        )
        .unwrap_err();
    let waited = started.elapsed();
    assert_eq!(err, SubmitError::Degraded { quarantined: 1 });
    assert!(waited >= Duration::from_millis(250), "gave up before the deadline: {waited:?}");
    assert!(waited < Duration::from_secs(60), "parked far beyond the request deadline");

    let stats = service.abort();
    assert!(stats.degraded_rejections >= 1);
    assert_eq!(stats.validation.readmissions, 0);
}

/// Campaign 6 — whole-tier loss in the entropy mesh.
///
/// Four shards: two QUAC (both carrying one-shot drift excursions), one
/// D-RaNGe, one retention. The drift fences the *entire* QUAC tier; the
/// mesh must keep serving every submitted request from the non-QUAC
/// backends — zero `Degraded` rejections, zero parked submissions, no lost
/// ticket — at reduced throughput. Once probation marches the QUAC streams
/// past the pulse, both shards readmit and Normal-priority placement shifts
/// back to the QUAC tier. The D-RaNGe shard's epoch-0 stream must stay
/// bit-identical to its serial reference through the whole episode.
#[test]
fn campaign_quac_tier_loss_mesh_serves_from_other_backends() {
    const QUAC_SHARDS: usize = 2;
    let (_, mut quac) = tiny_shards(QUAC_SHARDS);
    for (i, shard) in quac.iter_mut().enumerate() {
        let drift = DriftInjector::excursion(
            TemperatureRamp::nominal_to(85.0),
            TemperatureTrend::Decreasing,
            60_000,
            0.004,
        );
        shard.stream_mut().inject_fault(FaultInjector::drift(drift, 0xD21F + i as u64));
    }
    let geom = DramGeometry::tiny_test();
    const DRANGE_SEED: u64 = 0xD7A6;
    let failures = FailureModel::new(ModuleVariation::generate(&geom, 8));
    let retention = RetentionModel::new(ModuleVariation::generate(&geom, 8));
    let mut backends: Vec<Box<dyn EntropyBackend>> =
        quac.into_iter().map(|s| Box::new(s) as Box<dyn EntropyBackend>).collect();
    backends.push(Box::new(DRangeTrng::new(&failures, &geom, DRANGE_SEED)));
    backends.push(Box::new(RetentionTrng::new(&retention, &geom, 0x7A1D)));
    const DRANGE: usize = QUAC_SHARDS;
    let cfg = RngServiceConfig { validation: chaos_validation(), ..RngServiceConfig::default() };
    let service = RngService::start_mesh(backends, cfg);

    // Phase 1: Normal-priority traffic routes to the QUAC tier and marches
    // both drifting shards into quarantine. Every probe is submitted
    // without a deadline and *must* be served — a probe queued on a QUAC
    // shard when its fence lands fails over to the D-RaNGe tier instead of
    // parking or being rejected.
    let mut completions = Vec::new();
    let give_up = Instant::now() + Duration::from_secs(120);
    loop {
        let stats = service.stats();
        if (0..QUAC_SHARDS).all(|s| stats.shard_health[s].state != ShardState::Healthy) {
            break;
        }
        assert!(Instant::now() < give_up, "QUAC tier never fully fenced: {stats:?}");
        let t = service.submit(ClientId(0), Priority::Normal, 2048).unwrap();
        completions.push(t.wait().expect("the mesh serves every submission"));
    }

    // Phase 2: the whole QUAC tier is down. A mixed-priority wave must be
    // served entirely by the non-QUAC backends, with no degraded admission.
    let wave: Vec<_> = (0..16)
        .map(|i| {
            let priority = if i % 2 == 0 { Priority::High } else { Priority::Normal };
            service.submit(ClientId(1 + i % 3), priority, 1024).unwrap()
        })
        .collect();
    for t in wave {
        let c = t.wait().expect("served during whole-tier loss");
        assert!(c.shard >= DRANGE, "a fenced QUAC shard served during tier loss");
        completions.push(c);
    }
    let stats = service.stats();
    assert_eq!(stats.degraded_rejections, 0, "the mesh never degrades while a tier serves");

    // Phase 3: probation marches both QUAC streams past the pulse; the tier
    // readmits and Normal-priority placement shifts back to QUAC (now in a
    // bumped epoch).
    wait_for(&service, Duration::from_secs(120), "QUAC tier readmission", |s| {
        s.validation.readmissions >= QUAC_SHARDS as u64
    });
    let give_up = Instant::now() + Duration::from_secs(60);
    loop {
        let t = service.submit(ClientId(0), Priority::Normal, 2048).unwrap();
        let c = t.wait().expect("served after readmission");
        let (shard, epoch) = (c.shard, c.epoch);
        completions.push(c);
        if shard < QUAC_SHARDS {
            assert!(epoch >= 1, "post-readmission QUAC completions carry a bumped epoch");
            break;
        }
        assert!(Instant::now() < give_up, "placement never shifted back to the QUAC tier");
    }

    let stats = service.shutdown();
    assert_eq!(stats.degraded_rejections, 0);
    assert!(stats.validation.quarantines >= QUAC_SHARDS as u64);
    assert!(stats.validation.readmissions >= QUAC_SHARDS as u64);
    // The D-RaNGe shard carried the service through the tier loss, and its
    // epoch-0 stream stayed bit-identical to the serial reference.
    let drange_stream = reassemble_shard(&completions, DRANGE);
    assert!(!drange_stream.is_empty(), "the D-RaNGe tier never served");
    assert_eq!(
        drange_stream,
        DRangeTrng::new(&failures, &geom, DRANGE_SEED).generate_bytes(drange_stream.len()),
        "tier failover perturbed the D-RaNGe stream"
    );
}
