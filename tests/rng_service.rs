//! Integration tests of the sharded RNG service: concurrent serial
//! equivalence, deterministic replay, backpressure, and fairness — the
//! test-first contract of the service layer.
//!
//! The determinism strategy: each shard's generator is seeded from
//! `(base_seed, shard index)`, so a single-threaded `QuacTrng` with the same
//! derived seed defines each shard's reference byte stream. Completions carry
//! `(shard, stream_offset)`, which lets these tests reassemble exactly what
//! each shard handed out — independent of thread interleaving.

use quac_trng_repro::dram_analog::{ModuleVariation, OperatingConditions, QuacAnalogModel};
use quac_trng_repro::dram_core::{DataPattern, DramGeometry};
use quac_trng_repro::memctrl::IdleBudget;
use quac_trng_repro::rng_service::{
    ClientId, Completion, DegradedPolicy, HealthPolicy, Priority, RngService, RngServiceConfig,
    ServiceStats, ShardState, SubmitError, Ticket, ValidationConfig, WaitError,
};
use quac_trng_repro::trng::characterize::{characterize_module, CharacterizationConfig};
use quac_trng_repro::trng::fault::FaultInjector;
use quac_trng_repro::trng::pipeline::{shard_seed, QuacTrng};
use quac_trng_repro::trng::EntropyBackend;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BASE_SEED: u64 = 0xDEAD_BEEF;

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

/// The serial reference: what shard `idx` must emit, byte for byte.
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

/// Reassembles what one shard handed out: sort its completions by stream
/// offset, check contiguity, concatenate.
fn reassemble_shard(completions: &[Completion], shard: usize) -> Vec<u8> {
    let mut chunks: Vec<&Completion> =
        completions.iter().filter(|c| c.shard == shard).collect();
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

#[test]
fn concurrent_clients_reproduce_the_serial_per_shard_streams() {
    // 4 clients × 2 shards, submissions racing from 4 threads: whatever the
    // interleaving, each shard must hand out exactly its serial stream.
    const CLIENTS: u32 = 4;
    const SHARDS: usize = 2;
    const REQUESTS_PER_CLIENT: usize = 24;
    let (model, shards) = tiny_shards(SHARDS);
    let service = Arc::new(RngService::start(shards, RngServiceConfig::default()));

    let mut handles = Vec::new();
    for client in 0..CLIENTS {
        let service = Arc::clone(&service);
        handles.push(std::thread::spawn(move || {
            let mut completions = Vec::new();
            for i in 0..REQUESTS_PER_CLIENT {
                // Vary sizes across and within clients, including reads much
                // smaller than one QUAC iteration's output (batching fodder).
                let len = 1 + (client as usize * 97 + i * 31) % 500;
                let priority =
                    if (client + i as u32) % 3 == 0 { Priority::High } else { Priority::Normal };
                let ticket = service
                    .submit(ClientId(client), priority, len)
                    .expect("submission accepted");
                let completion = ticket.wait().expect("request served");
                assert_eq!(completion.bytes.len(), len);
                assert_eq!(completion.client, ClientId(client));
                completions.push(completion);
            }
            completions
        }));
    }
    let completions: Vec<Completion> =
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect();

    let stats = Arc::try_unwrap(service).expect("all clients joined").shutdown();
    let total: usize = completions.iter().map(|c| c.bytes.len()).sum();
    assert_eq!(stats.completed_bytes as usize, total);
    assert_eq!(stats.completed_requests as usize, (CLIENTS as usize) * REQUESTS_PER_CLIENT);

    // Every shard served something (round-robin assignment cannot starve a
    // shard with this many requests)...
    for shard in 0..SHARDS {
        let stream = reassemble_shard(&completions, shard);
        assert!(!stream.is_empty(), "shard {shard} served nothing");
        // ...and what it served is exactly the serial reference stream.
        assert_eq!(
            stream,
            reference_stream(&model, shard, stream.len()),
            "shard {shard} diverged from its single-threaded reference"
        );
    }
}

#[test]
fn sequential_submission_is_fully_deterministic_per_request() {
    // One submitter, one request outstanding at a time: not just the shard
    // streams but each request's bytes are a pure function of the seeds.
    const SHARDS: usize = 2;
    let sizes = [5usize, 64, 301, 32, 7, 128, 90, 1];
    let run = || {
        let (_, shards) = tiny_shards(SHARDS);
        let service = RngService::start(shards, RngServiceConfig::default());
        let bytes: Vec<Vec<u8>> = sizes
            .iter()
            .map(|&len| {
                let t = service.submit(ClientId(0), Priority::Normal, len).unwrap();
                t.wait().unwrap().bytes
            })
            .collect();
        service.shutdown();
        bytes
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same seeds + same submission order must replay exactly");

    // And each request's bytes are the next chunk of its shard's reference
    // stream (round-robin assignment: request k -> shard k % SHARDS).
    let (model, _) = tiny_shards(SHARDS);
    let mut offsets = [0usize; SHARDS];
    for (k, (len, bytes)) in sizes.iter().zip(&first).enumerate() {
        let shard = k % SHARDS;
        let reference = reference_stream(&model, shard, offsets[shard] + len);
        assert_eq!(
            bytes.as_slice(),
            &reference[offsets[shard]..],
            "request {k} is not the next chunk of shard {shard}'s stream"
        );
        offsets[shard] += len;
    }
}

#[test]
fn backpressure_caps_in_flight_bytes_and_rejects_oversize() {
    const BUDGET: usize = 4096;
    let (_, shards) = tiny_shards(2);
    let cfg = RngServiceConfig { max_inflight_bytes: BUDGET, ..RngServiceConfig::default() };
    let service = Arc::new(RngService::start(shards, cfg));

    // Requests that can never fit are refused outright rather than parking
    // the caller forever.
    assert_eq!(
        service.try_submit(ClientId(0), Priority::Normal, BUDGET + 1).unwrap_err(),
        SubmitError::TooLarge { requested: BUDGET + 1, budget: BUDGET }
    );
    assert_eq!(
        service.submit(ClientId(0), Priority::Normal, BUDGET + 1).unwrap_err(),
        SubmitError::TooLarge { requested: BUDGET + 1, budget: BUDGET }
    );
    assert_eq!(
        service.try_submit(ClientId(0), Priority::Normal, 0).unwrap_err(),
        SubmitError::Empty
    );

    // Hammer the service from several blocking clients; admission control
    // must keep the in-flight high-water mark within the budget.
    let mut handles = Vec::new();
    for client in 0..6u32 {
        let service = Arc::clone(&service);
        handles.push(std::thread::spawn(move || {
            let mut tickets = Vec::new();
            for i in 0..40usize {
                let len = 64 + (client as usize * 131 + i * 53) % 1024;
                tickets.push(service.submit(ClientId(client), Priority::Normal, len).unwrap());
            }
            for t in tickets {
                t.wait().unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let stats = Arc::try_unwrap(service).expect("clients joined").shutdown();
    assert!(stats.peak_in_flight_bytes > 0);
    assert!(
        stats.peak_in_flight_bytes <= BUDGET,
        "peak in-flight {} exceeded the {BUDGET} B budget",
        stats.peak_in_flight_bytes
    );
}

#[test]
fn saturated_queue_rejects_nonblocking_submissions() {
    // Pace the single shard to a crawl (~1 KB/s): the first batch parks in
    // the worker for far longer than this test runs, so admitted bytes stay
    // in flight and try_submit must observe saturation deterministically.
    const BUDGET: usize = 2048;
    let (_, shards) = tiny_shards(1);
    let cfg = RngServiceConfig {
        max_inflight_bytes: BUDGET,
        pacing: IdleBudget::from_gbps(1e-5),
        ..RngServiceConfig::default()
    };
    let service = RngService::start(shards, cfg);

    let mut admitted = 0usize;
    let mut saturated = None;
    for _ in 0..(BUDGET / 512 + 1) {
        match service.try_submit(ClientId(0), Priority::Normal, 512) {
            Ok(_) => admitted += 512,
            Err(e) => {
                saturated = Some(e);
                break;
            }
        }
    }
    assert_eq!(admitted, BUDGET, "exactly the budget's worth of bytes is admitted");
    assert_eq!(
        saturated,
        Some(SubmitError::Saturated { requested: 512, in_flight: BUDGET, budget: BUDGET })
    );
    // Abort discards the parked work instead of waiting out the pacing delay.
    let stats = service.abort();
    assert_eq!(stats.completed_bytes, 0);
}

#[test]
fn starved_low_priority_client_still_completes() {
    // One shard, a flood of high-priority traffic from three clients, one
    // normal-priority request in the middle: the fairness window guarantees
    // the normal request is dispatched long before the flood drains.
    const FLOOD: usize = 120;
    const WINDOW: u32 = 4;
    const LEN: usize = 256;
    let (_, shards) = tiny_shards(1);
    let cfg = RngServiceConfig {
        fairness_window: WINDOW,
        // Deep enough that the whole flood queues without parking.
        max_inflight_bytes: (FLOOD + 1) * LEN,
        // One request per batch so dispatch order is visible in stream
        // offsets, and ~2 ms of pacing per batch so the queue stays deep
        // while submissions race ahead of the worker.
        max_batch_requests: 1,
        max_batch_bytes: LEN,
        pacing: IdleBudget::from_gbps(0.001),
        ..RngServiceConfig::default()
    };
    let service = RngService::start(shards, cfg);

    // Fill the queue: the whole high-priority flood first…
    let flood: Vec<_> = (0..FLOOD)
        .map(|i| {
            service
                .submit(ClientId(1 + (i % 3) as u32), Priority::High, LEN)
                .expect("flood admitted")
        })
        .collect();
    // …then the one low-priority request, last into the queue.
    let low = service.submit(ClientId(9), Priority::Normal, LEN).expect("admitted");

    let low_offset = low.wait().expect("the low-priority request completes").stream_offset;
    // Dispatch order is stream_offset / LEN (one request per batch). Once
    // the normal request is queued, at most `fairness_window` highs may pass
    // it; submission outpaces the ~2 ms/batch worker by orders of magnitude,
    // so only a few batches can have been dispatched before it queued. A
    // 4× margin on top of that still catches real starvation (which would
    // put it near position FLOOD).
    let position = low_offset as usize / LEN;
    assert!(
        position <= 4 * (WINDOW as usize + 1),
        "low-priority request starved: dispatched at position {position} of {}",
        FLOOD + 1
    );
    for t in flood {
        t.wait().expect("flood request served");
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed_requests as usize, FLOOD + 1);
}

#[test]
fn shutdown_drains_queued_requests_and_then_refuses_work() {
    let (_, shards) = tiny_shards(2);
    let service = RngService::start(shards, RngServiceConfig::default());
    let tickets: Vec<_> = (0..20)
        .map(|i| service.submit(ClientId(i % 4), Priority::Normal, 100).unwrap())
        .collect();
    let stats = service.shutdown();
    assert_eq!(stats.completed_requests, 20);
    assert_eq!(stats.completed_bytes, 2000);
    assert_eq!(stats.per_shard_bytes.iter().sum::<u64>(), 2000);
    // Every ticket was served before the workers stopped.
    for t in tickets {
        assert_eq!(t.wait().unwrap().bytes.len(), 100);
    }
}

#[test]
fn shutdown_lifts_pacing_and_drains_promptly() {
    // At ~1 KB/s pacing the queued work owes minutes of delivery delay, but
    // a drain must lift pacing and complete in wall-clock seconds.
    let (_, shards) = tiny_shards(1);
    let cfg = RngServiceConfig {
        pacing: IdleBudget::from_gbps(1e-5),
        ..RngServiceConfig::default()
    };
    let service = RngService::start(shards, cfg);
    let tickets: Vec<_> = (0..4)
        .map(|_| service.submit(ClientId(0), Priority::Normal, 4096).unwrap())
        .collect();
    let started = std::time::Instant::now();
    let stats = service.shutdown();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "drain took {:?} — pacing was not lifted",
        started.elapsed()
    );
    assert_eq!(stats.completed_requests, 4);
    for t in tickets {
        assert_eq!(t.wait().unwrap().bytes.len(), 4096);
    }
}

// ---- continuous in-service validation: quarantine and readmission ----

/// A validation config tuned for test speed: small windows, lossless tap
/// (deterministic coverage), streak-only quarantine (EWMA disabled so a
/// healthy shard can only be fenced by two *consecutive* unlucky windows,
/// which the fixed seeds rule out), stride-1 recharacterisation of the tiny
/// model.
fn test_validation() -> ValidationConfig {
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

/// Polls `stats()` until `predicate` holds, failing after `timeout`.
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

/// Feeds a persistently-faulty single-shard service one request at a time
/// until the validator fences its only shard. The fence can land while a
/// request is still queued — with no healthy target it stays queued forever
/// (the degraded-mode contract), so every probe carries a deadline and a
/// typed `Expired` (or a `Degraded` rejection, under either policy) is an
/// acceptable end of a probe.
fn drive_until_total_quarantine(service: &RngService) {
    let give_up = Instant::now() + Duration::from_secs(60);
    loop {
        if service.stats().validation.quarantines >= 1 {
            return;
        }
        assert!(Instant::now() < give_up, "persistent fault never quarantined");
        let deadline = Instant::now() + Duration::from_secs(2);
        match service.submit_with_deadline(ClientId(0), Priority::Normal, 2048, deadline) {
            Ok(ticket) => match ticket.wait() {
                Ok(c) => assert_eq!(c.bytes.len(), 2048),
                Err(WaitError::Expired(_)) => {}
                Err(WaitError::Canceled(c)) => panic!("service still running: {c}"),
            },
            Err(SubmitError::Degraded { .. }) => return,
            Err(e) => panic!("unexpected admission failure: {e}"),
        }
    }
}

#[test]
fn biased_shard_is_quarantined_within_bounded_windows_and_readmitted() {
    const SHARDS: usize = 2;
    const FAULTY: usize = 1;
    const REQ: usize = 2048;
    let (model, mut shards) = tiny_shards(SHARDS);
    // A transient delivery-side bias on shard 1: every served window fails
    // monobit decisively, and recharacterisation routes around the fault.
    shards[FAULTY].stream_mut().inject_fault(FaultInjector::bias(0.75, 7).transient());
    let cfg = RngServiceConfig { validation: test_validation(), ..RngServiceConfig::default() };
    let service = RngService::start(shards, cfg);

    // Drive traffic until the validator fences the faulty shard. Each poll
    // round pushes 8 × 2 KiB; least-loaded placement spreads it over both
    // shards, so the faulty shard accumulates windows quickly.
    let mut completions: Vec<Completion> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    let quarantine_stats = loop {
        let tickets: Vec<_> = (0..8)
            .map(|i| service.submit(ClientId(i % 4), Priority::Normal, REQ).unwrap())
            .collect();
        completions.extend(tickets.into_iter().map(|t| t.wait().expect("served")));
        let stats = service.stats();
        if stats.validation.quarantines >= 1 {
            break stats;
        }
        assert!(Instant::now() < deadline, "faulty shard never quarantined: {stats:?}");
    };

    // Bounded detection: with every faulty window failing and a streak
    // bound of 2, the shard is fenced the moment its second window is
    // graded (allow one in-flight window of slack for the poll).
    let health = &quarantine_stats.shard_health[FAULTY];
    assert!(health.windows_failed >= 2, "{health:?}");
    assert!(
        health.windows_validated <= 3,
        "detection took {} windows, expected ≤ K=3: {health:?}",
        health.windows_validated
    );
    assert_eq!(quarantine_stats.validation.quarantines, 1);
    assert!(health.state == ShardState::Quarantined || health.state == ShardState::Probation);

    // The loop closes on its own: recharacterisation clears the transient
    // fault, probation passes the battery twice, the shard is readmitted.
    let readmitted = wait_for(&service, Duration::from_secs(120), "readmission", |s| {
        s.validation.readmissions >= 1
    });
    assert!(readmitted.validation.recharacterizations >= 1);
    assert!(readmitted.validation.probation_windows >= 2);
    assert_eq!(readmitted.shard_health[FAULTY].state, ShardState::Healthy);

    // A readmitted shard re-enters placement and serves again.
    let before = service.stats().per_shard_bytes[FAULTY];
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let tickets: Vec<_> = (0..4)
            .map(|_| service.submit(ClientId(0), Priority::Normal, REQ).unwrap())
            .collect();
        completions.extend(tickets.into_iter().map(|t| t.wait().expect("served")));
        if service.stats().per_shard_bytes[FAULTY] > before {
            break;
        }
        assert!(Instant::now() < deadline, "readmitted shard never placed again");
    }

    // Completions served after readmission carry the bumped stream epoch,
    // and each epoch's offsets are gapless from zero on their own.
    let mut epoch1: Vec<&Completion> =
        completions.iter().filter(|c| c.shard == FAULTY && c.epoch == 1).collect();
    assert!(!epoch1.is_empty(), "post-readmission completions must carry epoch 1");
    epoch1.sort_by_key(|c| c.stream_offset);
    let mut expected_offset = 0u64;
    for c in &epoch1 {
        assert_eq!(c.stream_offset, expected_offset, "epoch-1 stream must be gapless");
        expected_offset += c.bytes.len() as u64;
    }
    assert!(completions.iter().all(|c| c.shard != (1 - FAULTY) || c.epoch == 0));

    let stats = service.shutdown();
    // Validation was lossless: everything delivered was tapped.
    assert_eq!(stats.validation.bytes_tapped, stats.completed_bytes);
    assert_eq!(stats.validation.bytes_dropped, 0);
    assert!(stats.validation.windows_validated >= 3);
    assert_eq!(stats.latency_us.count(), stats.completed_requests);
    assert_eq!(stats.queue_depth.count(), stats.completed_requests);

    // The healthy shard's stream is untouched by the whole episode: its
    // completions still reassemble bit-identically to the single-threaded
    // reference — validation taps copies, never the stream.
    let healthy = reassemble_shard(&completions, 1 - FAULTY);
    assert!(!healthy.is_empty());
    assert_eq!(
        healthy,
        reference_stream(&model, 1 - FAULTY, healthy.len()),
        "healthy shard diverged while the faulty one was handled"
    );
}

#[test]
fn shutdown_during_endless_requalification_terminates_cleanly() {
    const SHARDS: usize = 2;
    const FAULTY: usize = 1;
    let (model, mut shards) = tiny_shards(SHARDS);
    // A *persistent* stuck-at fault: probation can never pass, so the shard
    // cycles recharacterise → probation-fail forever. Shutdown must still
    // drain queued work and return promptly.
    shards[FAULTY].stream_mut().inject_fault(FaultInjector::stuck_at(0, true));
    let cfg = RngServiceConfig { validation: test_validation(), ..RngServiceConfig::default() };
    let service = RngService::start(shards, cfg);

    let mut completions = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    while service.stats().validation.quarantines == 0 {
        let tickets: Vec<_> = (0..8)
            .map(|_| service.submit(ClientId(0), Priority::Normal, 2048).unwrap())
            .collect();
        completions.extend(tickets.into_iter().map(|t| t.wait().expect("served")));
        assert!(Instant::now() < deadline, "persistent fault never quarantined");
    }
    // Queue more work while the shard is fenced: it must be served by the
    // healthy shard (placement skips the quarantined one).
    let tickets: Vec<_> = (0..6)
        .map(|_| service.submit(ClientId(1), Priority::Normal, 1024).unwrap())
        .collect();
    for t in tickets {
        let c = t.wait().expect("served during quarantine");
        assert_eq!(c.shard, 1 - FAULTY, "quarantined shard must not be placed");
        completions.push(c);
    }

    let started = Instant::now();
    let stats = service.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "drain mid-requalification took {:?}",
        started.elapsed()
    );
    assert!(stats.validation.quarantines >= 1);
    assert_eq!(stats.validation.readmissions, 0, "a persistent fault can never requalify");
    assert_ne!(stats.shard_health[FAULTY].state, ShardState::Healthy);
    // Healthy shard output stayed bit-identical throughout.
    let healthy = reassemble_shard(&completions, 1 - FAULTY);
    assert_eq!(healthy, reference_stream(&model, 1 - FAULTY, healthy.len()));
}

#[test]
fn all_quarantined_fail_fast_rejects_new_work_and_drains_cleanly() {
    // A single shard with a persistent fault: once quarantined there is no
    // healthy shard left. Under the default FailFast policy the service must
    // *refuse* new work with a typed Degraded error — a fenced shard never
    // serves while the service runs — and shutdown must still terminate
    // despite the endless requalification loop.
    let (_, mut shards) = tiny_shards(1);
    shards[0].stream_mut().inject_fault(FaultInjector::stuck_at(0, true));
    let cfg = RngServiceConfig { validation: test_validation(), ..RngServiceConfig::default() };
    let service = RngService::start(shards, cfg);

    // Serve one request at a time: two 2048 B requests complete two failing
    // 2000 B windows, which is the streak bound. The fence can land between
    // admission and dispatch, stranding the request on the only shard — the
    // deadline turns that into a typed expiry instead of an eternal wait.
    drive_until_total_quarantine(&service);

    // Degraded: both the blocking and the non-blocking paths reject
    // immediately with the typed error and count the rejection.
    for _ in 0..3 {
        assert_eq!(
            service.submit(ClientId(1), Priority::Normal, 1024).unwrap_err(),
            SubmitError::Degraded { quarantined: 1 }
        );
        assert_eq!(
            service.try_submit(ClientId(1), Priority::Normal, 1024).unwrap_err(),
            SubmitError::Degraded { quarantined: 1 }
        );
    }
    let stats = service.stats();
    assert!(stats.degraded_rejections >= 6, "{stats:?}");
    assert_ne!(stats.shard_health[0].state, ShardState::Healthy);

    let started = Instant::now();
    let stats = service.shutdown();
    assert!(started.elapsed() < Duration::from_secs(30), "drain hung while degraded");
    assert!(stats.validation.quarantines >= 1);
    assert_eq!(stats.validation.readmissions, 0);
    assert_eq!(stats.failed_over_requests, 0, "no healthy target ever existed");
}

#[test]
#[should_panic(expected = "whole number of bytes")]
fn misaligned_validation_window_fails_fast_at_start() {
    let (_, shards) = tiny_shards(1);
    let cfg = RngServiceConfig {
        validation: ValidationConfig { window_bits: 50_001, ..test_validation() },
        ..RngServiceConfig::default()
    };
    let _ = RngService::start(shards, cfg);
}

#[test]
fn abort_during_quarantine_terminates_cleanly() {
    const FAULTY: usize = 0;
    let (_, mut shards) = tiny_shards(2);
    shards[FAULTY].stream_mut().inject_fault(FaultInjector::burst(64, 48));
    let cfg = RngServiceConfig { validation: test_validation(), ..RngServiceConfig::default() };
    let service = RngService::start(shards, cfg);
    let deadline = Instant::now() + Duration::from_secs(60);
    while service.stats().validation.quarantines == 0 {
        let tickets: Vec<_> = (0..8)
            .map(|_| service.submit(ClientId(0), Priority::Normal, 2048).unwrap())
            .collect();
        for t in tickets {
            t.wait().expect("served");
        }
        assert!(Instant::now() < deadline, "burst fault never quarantined");
    }
    let started = Instant::now();
    let stats = service.abort();
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "abort mid-requalification took {:?}",
        started.elapsed()
    );
    assert!(stats.validation.quarantines >= 1);
}

const FLOOD: usize = 90;
const FLOOD_WINDOW_BYTES: u64 = 6250;

/// A lossless three-shard service flooded with more work than its graders
/// keep up with. Grading costs far more per byte than generating, and each
/// shard's tap queue holds one batch, so the workers spend the flood parked
/// on their taps. 999-byte requests never fill a 6250-byte window exactly
/// (the two are coprime), so every shard that served anything holds a
/// partial window. The policy never fences: these tests are about the
/// lifecycle, not verdicts.
fn flooded_lossless_service() -> (RngService, Vec<Ticket>) {
    let (_, shards) = tiny_shards(3);
    let validation = ValidationConfig {
        window_bits: FLOOD_WINDOW_BYTES as usize * 8,
        tap_queue_batches: 1,
        policy: HealthPolicy {
            min_pass_ewma: 0.0,
            max_consecutive_failures: u32::MAX,
            ..HealthPolicy::default()
        },
        ..test_validation()
    };
    let cfg = RngServiceConfig { validation, max_batch_requests: 4, ..RngServiceConfig::default() };
    let service = RngService::start(shards, cfg);
    let tickets = (0..FLOOD)
        .map(|i| service.submit(ClientId(i as u32 % 3), Priority::Normal, 999).unwrap())
        .collect();
    wait_for(&service, Duration::from_secs(60), "first completions", |s| {
        s.completed_requests >= 3
    });
    assert!(service.in_flight_bytes() > 0, "the flood must still be queued");
    (service, tickets)
}

#[test]
fn shutdown_with_parked_lossless_workers_grades_everything_and_joins() {
    let (service, tickets) = flooded_lossless_service();
    let started = Instant::now();
    let stats = service.shutdown();
    assert!(started.elapsed() < Duration::from_secs(60), "drain took {:?}", started.elapsed());
    // The drain served every accepted request...
    for t in tickets {
        assert_eq!(t.wait().expect("drained").bytes.len(), 999);
    }
    assert_eq!(stats.completed_requests, FLOOD as u64);
    assert_eq!(stats.validation.bytes_tapped, stats.completed_bytes);
    // ...and every grader graded every full window of its shard before it
    // was joined; what is left of each stream is a partial window.
    assert!(stats.per_shard_bytes.iter().all(|&b| b > 0 && b % FLOOD_WINDOW_BYTES != 0));
    let full: u64 = stats.per_shard_bytes.iter().map(|b| b / FLOOD_WINDOW_BYTES).sum();
    assert_eq!(stats.validation.windows_validated, full);
    assert_eq!(stats.validation.quarantines, 0);
}

#[test]
fn abort_and_drop_with_parked_lossless_workers_return_promptly() {
    let (service, tickets) = flooded_lossless_service();
    let started = Instant::now();
    let stats = service.abort();
    assert!(started.elapsed() < Duration::from_secs(30), "abort took {:?}", started.elapsed());
    // Every ticket resolves — served (its batch was already generated) or
    // canceled — and no grader grades past what was served.
    let served = tickets.into_iter().filter_map(|t| t.wait().ok()).count();
    assert_eq!(served as u64, stats.completed_requests);
    let full: u64 = stats.per_shard_bytes.iter().map(|b| b / FLOOD_WINDOW_BYTES).sum();
    assert!(stats.validation.windows_validated <= full);

    // Dropping a running service takes the same path.
    let (service, tickets) = flooded_lossless_service();
    let started = Instant::now();
    drop(service);
    assert!(started.elapsed() < Duration::from_secs(30), "drop took {:?}", started.elapsed());
    for t in tickets {
        let _ = t.wait();
    }
}

#[test]
fn abort_cancels_unserved_tickets() {
    // Pace near zero so nothing completes, then abort: tickets must report
    // cancellation rather than hanging.
    let (_, shards) = tiny_shards(1);
    let cfg = RngServiceConfig {
        pacing: IdleBudget::from_gbps(1e-5),
        ..RngServiceConfig::default()
    };
    let service = RngService::start(shards, cfg);
    let tickets: Vec<_> = (0..5)
        .map(|_| service.submit(ClientId(0), Priority::Normal, 64).unwrap())
        .collect();
    service.abort();
    for t in tickets {
        // Non-blocking pollers must see the cancellation too, not an
        // eternal "pending" — and repeated polls must agree (the terminal
        // state is cached, never re-derived from a dead channel).
        assert!(
            matches!(t.try_wait(), Err(WaitError::Canceled(_))),
            "try_wait must report cancellation after abort"
        );
        assert!(matches!(t.try_wait(), Err(WaitError::Canceled(_))), "cancellation is sticky");
        assert!(
            matches!(t.wait(), Err(WaitError::Canceled(_))),
            "aborted request must cancel its ticket"
        );
    }
}

#[test]
fn served_ticket_polls_idempotently_even_after_abort() {
    // Regression: try_wait used to consume the completion from the channel,
    // so a second poll saw a disconnected channel and misreported a *served*
    // request as canceled once the service stopped. The terminal state must
    // be cached: every poll after service abort still returns the bytes.
    let (_, shards) = tiny_shards(1);
    let service = RngService::start(shards, RngServiceConfig::default());
    let ticket = service.submit(ClientId(0), Priority::Normal, 128).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let first = loop {
        match ticket.try_wait().expect("never canceled while running") {
            Some(c) => break c,
            None => {
                assert!(Instant::now() < deadline, "request never served");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    };
    assert_eq!(first.bytes.len(), 128);
    // Abort tears down the channels; the served outcome must survive it.
    service.abort();
    let again = ticket.try_wait().expect("served outcome is sticky").expect("still resolved");
    assert_eq!(again.bytes, first.bytes);
    let wd = ticket
        .wait_deadline(Instant::now() + Duration::from_millis(1))
        .expect("still served")
        .expect("still resolved");
    assert_eq!(wd.bytes, first.bytes);
    assert_eq!(ticket.wait().expect("wait agrees with try_wait").bytes, first.bytes);
}

// ---- deadlines, expiry, and degraded-mode admission ----

#[test]
fn queued_requests_expire_within_a_sweep_period_and_committed_work_does_not() {
    // One shard paced to a crawl with single-request batches: the first
    // (deadline-free) request is popped and parks in pacing — *committed*.
    // Everything behind it stays queued; their deadlines pass; the sweep
    // must complete them as Expired without generating a byte.
    const LEN: usize = 256;
    const EXPIRING: usize = 4;
    let (_, shards) = tiny_shards(1);
    let cfg = RngServiceConfig {
        max_batch_requests: 1,
        max_batch_bytes: LEN,
        pacing: IdleBudget::from_gbps(1e-5),
        expiry_sweep_interval: Duration::from_millis(2),
        ..RngServiceConfig::default()
    };
    let service = RngService::start(shards, cfg);
    let sacrificial = service.submit(ClientId(0), Priority::Normal, LEN).unwrap();
    // Give the worker time to pop the sacrificial request into its batch.
    std::thread::sleep(Duration::from_millis(50));
    let deadline = Instant::now() + Duration::from_millis(30);
    let doomed: Vec<_> = (0..EXPIRING)
        .map(|_| {
            service
                .submit_with_deadline(ClientId(1), Priority::Normal, LEN, deadline)
                .expect("admitted while queue has space")
        })
        .collect();
    // wait_deadline bounds its own blocking: while the requests are still
    // queued and unexpired it reports "pending", not an error.
    assert!(
        doomed[0]
            .wait_deadline(Instant::now() + Duration::from_millis(5))
            .expect("still pending, not failed")
            .is_none(),
        "a queued, unexpired request polls as pending"
    );
    for t in &doomed {
        let err = loop {
            match t.wait_deadline(Instant::now() + Duration::from_millis(20)) {
                Ok(Some(_)) => panic!("an expired request must never deliver bytes"),
                Ok(None) => continue,
                Err(e) => break e,
            }
        };
        let expired = match err {
            WaitError::Expired(e) => e,
            WaitError::Canceled(c) => panic!("expired, not canceled: {c}"),
        };
        assert_eq!(expired.deadline, deadline);
        assert!(expired.expired_at >= deadline);
        assert!(
            expired.expired_at - deadline < Duration::from_secs(5),
            "sweep latency {:?} is far beyond the sweep interval",
            expired.expired_at - deadline
        );
        // The terminal state is sticky for expiry too.
        assert!(matches!(t.try_wait(), Err(WaitError::Expired(_))));
    }
    let stats = service.stats();
    assert_eq!(stats.expired_requests, EXPIRING as u64, "{stats:?}");
    // The committed request was popped before its peers expired; it still
    // owes bytes and abort (not expiry) is what ends it here.
    service.abort();
    assert!(sacrificial.wait().is_err());
}

#[test]
fn served_requests_with_deadlines_record_slack_and_never_expire() {
    let (_, shards) = tiny_shards(2);
    let service = RngService::start(shards, RngServiceConfig::default());
    let generous = Instant::now() + Duration::from_secs(3600);
    let tickets: Vec<_> = (0..10)
        .map(|_| {
            service.submit_with_deadline(ClientId(0), Priority::Normal, 512, generous).unwrap()
        })
        .collect();
    for t in tickets {
        assert_eq!(t.wait().expect("a generous deadline never expires").bytes.len(), 512);
    }
    let stats = service.shutdown();
    assert_eq!(stats.expired_requests, 0);
    assert_eq!(stats.completed_requests, 10);
    assert_eq!(
        stats.deadline_slack_us.count(),
        10,
        "every served deadline-carrying request records its slack"
    );
    assert!(stats.deadline_slack_us.max() > 0, "an hour of slack cannot round to zero");
}

#[test]
fn degraded_parking_unblocks_on_policy_timeout() {
    // Park policy with a short bound and a persistent fault: a blocking
    // submit during total quarantine parks, then gives up with the typed
    // Degraded error once the bound passes (readmission never comes).
    let (_, mut shards) = tiny_shards(1);
    shards[0].stream_mut().inject_fault(FaultInjector::stuck_at(0, true));
    let cfg = RngServiceConfig {
        validation: test_validation(),
        degraded: DegradedPolicy::Park { max_wait: Duration::from_millis(200) },
        ..RngServiceConfig::default()
    };
    let service = RngService::start(shards, cfg);
    drive_until_total_quarantine(&service);
    let started = Instant::now();
    let err = service.submit(ClientId(1), Priority::Normal, 512).unwrap_err();
    let parked = started.elapsed();
    assert_eq!(err, SubmitError::Degraded { quarantined: 1 });
    assert!(parked >= Duration::from_millis(150), "gave up after only {parked:?}");
    assert!(parked < Duration::from_secs(30), "parking must respect the policy bound");
    // The non-blocking path never parks, even under the Park policy.
    let quick = Instant::now();
    assert!(service.try_submit(ClientId(1), Priority::Normal, 512).is_err());
    assert!(quick.elapsed() < Duration::from_millis(100));
    let stats = service.abort();
    assert!(stats.degraded_rejections >= 2, "{stats:?}");
}

// ---- deadline-path regressions (parked submits, sweep economy, past deadlines) ----

/// Regression: a blocking submit parked on the in-flight budget must honour
/// its own deadline. Before the fix it waited on the `space` condvar with no
/// timeout, so a budget held by committed work parked the caller forever —
/// long past the deadline it asked for.
#[test]
fn budget_parked_submission_expires_at_its_own_deadline() {
    const LEN: usize = 256;
    let (_, shards) = tiny_shards(1);
    let cfg = RngServiceConfig {
        // The budget admits exactly one request; crawl pacing keeps the
        // worker parked mid-batch with that request's bytes charged, so the
        // budget never frees.
        max_inflight_bytes: LEN,
        max_batch_requests: 1,
        max_batch_bytes: LEN,
        pacing: IdleBudget::from_gbps(1e-5),
        expiry_sweep_interval: Duration::from_millis(2),
        ..RngServiceConfig::default()
    };
    let service = RngService::start(shards, cfg);
    let sacrificial = service.submit(ClientId(0), Priority::Normal, LEN).unwrap();
    // Let the worker pop the sacrificial request and park in pacing.
    std::thread::sleep(Duration::from_millis(50));

    let deadline = Instant::now() + Duration::from_millis(40);
    let started = Instant::now();
    let parked = service
        .submit_with_deadline(ClientId(1), Priority::Normal, LEN, deadline)
        .expect("a parked submission resolves through its ticket, not an error");
    let gave_up_after = started.elapsed();
    assert!(
        gave_up_after < Duration::from_secs(30),
        "submit parked {gave_up_after:?} past its 40ms deadline"
    );
    let expired = match parked.wait() {
        Err(WaitError::Expired(e)) => e,
        other => panic!("a deadline that passed while parked must expire: {other:?}"),
    };
    assert_eq!(expired.deadline, deadline);
    assert!(expired.expired_at >= deadline);

    let stats = service.stats();
    assert_eq!(stats.expired_requests, 1, "{stats:?}");
    // The expired request was never admitted: the budget still holds only
    // the sacrificial request's bytes.
    assert_eq!(service.in_flight_bytes(), LEN);
    service.abort();
    assert!(sacrificial.wait().is_err());
}

/// Regression: the expiry sweep must not wake on general work traffic.
/// Before the fix it waited on the shared `work` condvar, so every
/// admission and batch completion woke it — a wake storm under
/// deadline-free load. It now parks on a dedicated condvar until a
/// deadline-carrying request is admitted.
#[test]
fn expiry_sweep_sleeps_under_deadline_free_load() {
    let (_, shards) = tiny_shards(2);
    let cfg = RngServiceConfig {
        expiry_sweep_interval: Duration::from_millis(2),
        ..RngServiceConfig::default()
    };
    let service = RngService::start(shards, cfg);
    // Plenty of deadline-free traffic: lots of work-condvar notifies.
    for _ in 0..50 {
        let t = service.submit(ClientId(0), Priority::Normal, 512).unwrap();
        t.wait().expect("served");
    }
    std::thread::sleep(Duration::from_millis(50));
    let quiet = service.stats();
    assert_eq!(
        quiet.expiry_sweeps, 0,
        "the sweeper scanned {} times without a deadline in sight",
        quiet.expiry_sweeps
    );

    // A deadline-carrying admission wakes it; the sweep is counted.
    let doomed = service
        .submit_with_deadline(
            ClientId(1),
            Priority::Normal,
            512,
            Instant::now() + Duration::from_millis(5),
        )
        .unwrap();
    // Served or expired — either way the sweeper ran at least once for it,
    // unless the worker served it before the first sweep fired.
    let _ = doomed.wait();
    let after = wait_for(&service, Duration::from_secs(10), "first sweep", |s| {
        s.expiry_sweeps > 0 || s.completed_requests == 51
    });
    // Once no deadlines remain queued, the sweeper parks again: the scan
    // counter settles instead of ticking every interval.
    std::thread::sleep(Duration::from_millis(20));
    let settled = service.stats().expiry_sweeps;
    std::thread::sleep(Duration::from_millis(100));
    let later = service.stats().expiry_sweeps;
    assert!(
        later <= settled + 1,
        "sweeper kept scanning an empty deadline set: {settled} -> {later} (after: {after:?})"
    );
    service.shutdown();
}

/// Regression: a deadline already in the past must resolve at admission —
/// typed, immediate, never charged. Before the fix the request was
/// admitted, placed, and budget-charged, then waited one full sweep to be
/// unwound.
#[test]
fn already_past_deadlines_resolve_at_admission_without_being_charged() {
    let (_, shards) = tiny_shards(2);
    let service = RngService::start(shards, RngServiceConfig::default());
    let stale = Instant::now() - Duration::from_millis(10);

    for attempt in 0..2u8 {
        let started = Instant::now();
        let ticket = if attempt == 0 {
            service.submit_with_deadline(ClientId(0), Priority::Normal, 1024, stale).unwrap()
        } else {
            service.try_submit_with_deadline(ClientId(0), Priority::Normal, 1024, stale).unwrap()
        };
        let expired = match ticket.wait() {
            Err(WaitError::Expired(e)) => e,
            other => panic!("a stale deadline must expire at admission: {other:?}"),
        };
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "resolution must not wait for a sweep"
        );
        assert_eq!(expired.deadline, stale);
        assert!(expired.expired_at >= stale);
    }

    let stats = service.stats();
    assert_eq!(stats.expired_requests, 2, "{stats:?}");
    assert_eq!(stats.completed_requests, 0);
    assert_eq!(service.in_flight_bytes(), 0, "a stale request must never be charged");
    // The service still serves: the rejections left no residue behind.
    let served = service.submit(ClientId(0), Priority::Normal, 64).unwrap();
    assert_eq!(served.wait().expect("served").bytes.len(), 64);
    service.shutdown();
}

/// Control-plane seam: a custom placement policy injected through
/// `start_with_policies` owns shard assignment — and placement stays a pure
/// function of the view it is handed.
#[test]
fn custom_placement_policy_owns_shard_assignment() {
    use quac_trng_repro::rng_service::placement::{PlacementPolicy, PlacementView};
    use quac_trng_repro::rng_service::ServicePolicies;

    #[derive(Debug)]
    struct PinToZero;
    impl PlacementPolicy for PinToZero {
        fn place(&self, _view: &PlacementView<'_>) -> usize {
            0
        }
    }

    let (model, shards) = tiny_shards(3);
    let cfg = RngServiceConfig::default();
    let mut policies = ServicePolicies::for_config(&cfg);
    policies.placement = Box::new(PinToZero);
    let backends = shards
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn EntropyBackend>)
        .collect();
    let service = RngService::start_with_policies(backends, cfg, policies);
    let completions: Vec<Completion> = (0..12)
        .map(|_| {
            let t = service.submit(ClientId(0), Priority::Normal, 512).unwrap();
            t.wait().expect("served")
        })
        .collect();
    assert!(completions.iter().all(|c| c.shard == 0), "every request pinned to shard 0");
    // The pinned shard's stream is still the bit-identical reference.
    let mut sorted = completions;
    sorted.sort_by_key(|c| c.stream_offset);
    let stream: Vec<u8> = sorted.into_iter().flat_map(|c| c.bytes).collect();
    assert_eq!(stream, reference_stream(&model, 0, stream.len()));
    let stats = service.shutdown();
    assert_eq!(stats.per_shard_bytes[0], 12 * 512);
    assert_eq!(stats.per_shard_bytes[1], 0);
    assert_eq!(stats.per_shard_bytes[2], 0);
}

mod deadline_props {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// One service shared by all proptest cases: a single shard parked in
    /// crawl pacing on a sacrificial request, so every deadline-carrying
    /// submission behind it must resolve through the expiry machinery —
    /// whether it queues (sweep) or parks on the budget (bounded wait).
    fn parked_service() -> &'static RngService {
        static SERVICE: OnceLock<RngService> = OnceLock::new();
        SERVICE.get_or_init(|| {
            let (_, shards) = tiny_shards(1);
            let cfg = RngServiceConfig {
                max_inflight_bytes: 64 << 10,
                max_batch_requests: 1,
                max_batch_bytes: 256,
                // ~2000s per 256-byte batch: parks the worker for the whole
                // 256-case run (1e-5 would resume it after only 0.2s).
                pacing: IdleBudget::from_gbps(1e-9),
                expiry_sweep_interval: Duration::from_millis(2),
                ..RngServiceConfig::default()
            };
            let service = RngService::start(shards, cfg);
            let _sacrificial = service.submit(ClientId(0), Priority::Normal, 256).unwrap();
            std::thread::sleep(Duration::from_millis(50));
            service
        })
    }

    proptest! {
        /// No deadline-carrying submission outlives its bound by more than
        /// one sweep interval (plus scheduling slop): not the queued-then-
        /// swept path, not the budget-parked path, and not `wait_deadline`
        /// itself.
        #[test]
        fn prop_deadlines_bound_every_blocking_path(
            len in 1usize..2048,
            offset_ms in 0u64..10,
        ) {
            // Generous CI slop on top of the 2ms sweep interval; the
            // pre-fix failure modes were unbounded (a forever-parked
            // submit) or a full extra sweep cycle, both far beyond this.
            let slop = Duration::from_millis(500);
            let service = parked_service();
            let deadline = Instant::now() + Duration::from_millis(offset_ms);
            let submitted = Instant::now();
            let ticket = service
                .submit_with_deadline(ClientId(1), Priority::Normal, len, deadline)
                .expect("nothing in this setup rejects an admission");
            prop_assert!(
                submitted.elapsed() <= Duration::from_millis(offset_ms) + slop,
                "submit blocked {:?} against a {offset_ms}ms deadline",
                submitted.elapsed()
            );
            // wait_deadline returns by its own bound even while pending.
            let poll_bound = Instant::now() + Duration::from_millis(3);
            let poll = Instant::now();
            let first = ticket.wait_deadline(poll_bound);
            prop_assert!(
                poll.elapsed() <= Duration::from_millis(3) + slop,
                "wait_deadline blocked {:?} past its bound",
                poll.elapsed()
            );
            let expired = match first {
                Err(WaitError::Expired(e)) => e,
                Ok(_) | Err(WaitError::Canceled(_)) => {
                    // Still pending (or resolved Served — impossible with a
                    // parked worker): wait out the terminal state.
                    match ticket.wait() {
                        Err(WaitError::Expired(e)) => e,
                        other => {
                            return Err(TestCaseError::Fail(format!(
                                "parked worker cannot serve: {other:?}"
                            )))
                        }
                    }
                }
            };
            prop_assert!(
                submitted.elapsed()
                    <= Duration::from_millis(offset_ms + 2) + slop,
                "resolution took {:?} for a {offset_ms}ms deadline",
                submitted.elapsed()
            );
            prop_assert!(expired.expired_at >= deadline);
            prop_assert!(
                expired.expired_at - deadline <= Duration::from_millis(2) + slop,
                "expiry overshot its deadline by {:?}",
                expired.expired_at - deadline
            );
        }
    }
}
