//! Integration suite for the **entropy mesh**: heterogeneous backends
//! ([`QuacTrng`], [`DRangeTrng`], [`RetentionTrng`]) behind one service,
//! tiered placement by priority, cross-source mixing, and the
//! cross-correlation health check — each pinned to the replay-determinism
//! contract (per-backend streams bit-identical to serial references).

use quac_trng_repro::baselines::{DRangeTrng, RetentionTrng};
use quac_trng_repro::dram_analog::{
    FailureModel, ModuleVariation, OperatingConditions, QuacAnalogModel, RetentionModel,
};
use quac_trng_repro::dram_core::{DataPattern, DramGeometry};
use quac_trng_repro::rng_service::mixer::mix_reference;
use quac_trng_repro::nist_sts::WindowedBattery;
use quac_trng_repro::rng_service::{
    ClientId, Completion, CorrelationConfig, HealthPolicy, Priority, RequalifyPolicy,
    RngService, RngServiceConfig, ServicePolicies, ServiceStats, ShardHealth, ShardState,
    SubmitError, ValidationConfig,
};
use quac_trng_repro::trng::fault::FaultInjector;
use quac_trng_repro::trng::characterize::{characterize_module, CharacterizationConfig};
use quac_trng_repro::trng::pipeline::{shard_seed, QuacTrng};
use quac_trng_repro::trng::{BackendKind, EntropyBackend};
use std::time::{Duration, Instant};

const BASE_SEED: u64 = 0x3E5E_00D0;
const DRANGE_SEED: u64 = 0xD7A6;
const RETENTION_SEED: u64 = 0x7A1D;

fn characterization() -> CharacterizationConfig {
    CharacterizationConfig {
        segment_stride: 1,
        bitline_stride: 1,
        conditions: OperatingConditions::nominal(),
    }
}

fn quac_model() -> QuacAnalogModel {
    let geom = DramGeometry::tiny_test();
    QuacAnalogModel::new(geom, ModuleVariation::generate(&geom, 8))
}

fn quac_backend(model: &QuacAnalogModel) -> QuacTrng {
    let ch = characterize_module(model, DataPattern::best_average(), &characterization());
    QuacTrng::with_characterization(model.clone(), ch, shard_seed(BASE_SEED, 0))
}

fn drange_backend() -> DRangeTrng {
    let geom = DramGeometry::tiny_test();
    let failures = FailureModel::new(ModuleVariation::generate(&geom, 8));
    DRangeTrng::new(&failures, &geom, DRANGE_SEED)
}

fn retention_backend() -> RetentionTrng {
    let geom = DramGeometry::tiny_test();
    let retention = RetentionModel::new(ModuleVariation::generate(&geom, 8));
    RetentionTrng::new(&retention, &geom, RETENTION_SEED)
}

/// The standard three-tier mesh: shard 0 QUAC, shard 1 D-RaNGe, shard 2
/// retention — all seeded, so every shard has a serial reference twin.
fn mesh_backends(model: &QuacAnalogModel) -> Vec<Box<dyn EntropyBackend>> {
    vec![
        Box::new(quac_backend(model)),
        Box::new(drange_backend()),
        Box::new(retention_backend()),
    ]
}

/// Reassembles one shard's epoch-0 stream from its completions, checking
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

#[test]
fn mesh_routes_by_priority_across_tiers() {
    let model = quac_model();
    let service = RngService::start_mesh(mesh_backends(&model), RngServiceConfig::default());
    let stats = service.stats();
    assert_eq!(
        stats.backend_kinds,
        vec![BackendKind::Quac, BackendKind::DRange, BackendKind::Retention],
        "the snapshot must carry each shard's backend kind"
    );
    // One request at a time, so placement always sees a settled load view:
    // latency-sensitive work goes to the D-RaNGe shard, bulk to QUAC; the
    // retention tier is the last resort and serves neither.
    for _ in 0..4 {
        let c = service.submit(ClientId(0), Priority::High, 512).unwrap().wait().unwrap();
        assert_eq!(c.shard, 1, "High priority must route to the D-RaNGe tier");
        let c = service.submit(ClientId(0), Priority::Normal, 512).unwrap().wait().unwrap();
        assert_eq!(c.shard, 0, "Normal priority must route to the QUAC tier");
    }
    let stats = service.shutdown();
    assert_eq!(stats.per_shard_bytes[2], 0, "retention is last-resort only");
}

#[test]
fn mesh_streams_stay_bit_identical_to_per_backend_serial_references() {
    let model = quac_model();
    let service = RngService::start_mesh(mesh_backends(&model), RngServiceConfig::default());
    let mut completions = Vec::new();
    for i in 0..24 {
        let priority = if i % 2 == 0 { Priority::High } else { Priority::Normal };
        let t = service.submit(ClientId(i % 3), priority, 640 + (i as usize % 5) * 64).unwrap();
        completions.push(t.wait().expect("served"));
    }
    service.shutdown();
    // Each serving backend's reassembled epoch-0 stream is exactly the
    // prefix its identically-seeded serial twin emits.
    let quac = reassemble_shard(&completions, 0);
    assert!(!quac.is_empty());
    assert_eq!(quac, quac_backend(&model).generate_bytes(quac.len()));
    let drange = reassemble_shard(&completions, 1);
    assert!(!drange.is_empty());
    assert_eq!(drange, drange_backend().generate_bytes(drange.len()));
}

#[test]
fn a_retention_only_mesh_serves_through_the_last_tier() {
    // Both faster tiers absent: tiered placement falls through to the
    // retention shard, which must serve (slow and bursty, but correct) and
    // stay bit-identical to its serial reference.
    let service = RngService::start_mesh(
        vec![Box::new(retention_backend())],
        RngServiceConfig::default(),
    );
    let mut completions = Vec::new();
    for _ in 0..8 {
        let t = service.submit(ClientId(0), Priority::High, 768).unwrap();
        completions.push(t.wait().expect("served by the retention tier"));
    }
    service.shutdown();
    let stream = reassemble_shard(&completions, 0);
    assert_eq!(stream.len(), 8 * 768);
    assert_eq!(stream, retention_backend().generate_bytes(stream.len()));
}

#[test]
fn submit_mixed_conditions_two_independent_sources() {
    let model = quac_model();
    let service = RngService::start_mesh(mesh_backends(&model), RngServiceConfig::default());
    for len in [1usize, 100, 256, 1000] {
        let ticket = service.submit_mixed(ClientId(5), Priority::Normal, len).unwrap();
        let mixed = ticket.wait().expect("both halves served");
        assert_eq!(mixed.bytes.len(), len);
        // Distinct backend kinds, by the fixed QUAC → D-RaNGe order.
        assert_eq!(mixed.first.shard, 0);
        assert_eq!(mixed.second.shard, 1);
        // The reference twin: XOR-fold + scalar SHA-256 over the two source
        // streams reproduces the mixed bytes bit for bit.
        let mut reference = mix_reference(&mixed.first.bytes, &mixed.second.bytes);
        reference.truncate(len);
        assert_eq!(mixed.bytes, reference);
    }
    service.shutdown();
}

#[test]
fn submit_mixed_requires_two_distinct_serving_kinds() {
    // A homogeneous QUAC mesh serves plain submissions but cannot vouch for
    // multi-source independence.
    let model = quac_model();
    let ch = characterize_module(&model, DataPattern::best_average(), &characterization());
    let backends: Vec<Box<dyn EntropyBackend>> = QuacTrng::shards(&model, &ch, BASE_SEED, 2)
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn EntropyBackend>)
        .collect();
    let service = RngService::start_mesh(backends, RngServiceConfig::default());
    assert_eq!(
        service.submit_mixed(ClientId(0), Priority::Normal, 64).unwrap_err(),
        SubmitError::NoIndependentSources { serving_kinds: 1 }
    );
    // Plain submission still works.
    let c = service.submit(ClientId(0), Priority::Normal, 64).unwrap().wait().unwrap();
    assert_eq!(c.bytes.len(), 64);
    service.shutdown();
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

#[test]
fn correlation_check_quarantines_common_mode_backends() {
    // Two QUAC shards with the *same* seed: a common-mode fault no
    // individual-stream battery can see (each stream passes on its own).
    // The cross-correlation monitor must trip and fence both.
    let model = quac_model();
    let ch = characterize_module(&model, DataPattern::best_average(), &characterization());
    let twin = || {
        Box::new(QuacTrng::with_characterization(model.clone(), ch.clone(), 0xC0_11E1))
            as Box<dyn EntropyBackend>
    };
    let validation = ValidationConfig {
        enabled: true,
        lossless_tap: true,
        // A forgiving battery policy: only the correlation check may fence.
        policy: HealthPolicy { min_pass_ewma: 0.0, max_consecutive_failures: 1000, ..HealthPolicy::default() },
        recharacterization: characterization(),
        correlation: CorrelationConfig::enabled(),
        ..ValidationConfig::default()
    };
    let cfg = RngServiceConfig { validation, ..RngServiceConfig::default() };
    let service = RngService::start_mesh(vec![twin(), twin()], cfg);
    // Alternating submissions feed both shards the same stream.
    let give_up = Instant::now() + Duration::from_secs(120);
    loop {
        let stats = service.stats();
        if stats.validation.correlation_trips >= 1 {
            break;
        }
        assert!(Instant::now() < give_up, "correlation check never tripped: {stats:?}");
        match service.try_submit(ClientId(0), Priority::Normal, 2048) {
            // Dropping the ticket is safe: the request is still served (and
            // tapped) without anyone blocking on a fence-stranded reply.
            Ok(t) => drop(t),
            // Both fenced (or budget-full) between poll and submit: re-poll.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    let stats = wait_for(&service, Duration::from_secs(60), "both twins fenced", |s| {
        s.validation.quarantines >= 2
    });
    assert!(stats.validation.correlation_windows >= 1);
    assert!(stats.validation.correlation_trips >= 1);
    service.abort();
}

#[test]
fn independent_backends_never_trip_the_correlation_check() {
    let model = quac_model();
    let validation = ValidationConfig {
        enabled: true,
        lossless_tap: true,
        recharacterization: characterization(),
        correlation: CorrelationConfig::enabled(),
        ..ValidationConfig::default()
    };
    let cfg = RngServiceConfig { validation, ..RngServiceConfig::default() };
    let service = RngService::start_mesh(mesh_backends(&model), cfg);
    for i in 0..32 {
        let priority = if i % 2 == 0 { Priority::High } else { Priority::Normal };
        let t = service.submit(ClientId(0), priority, 2048).unwrap();
        t.wait().expect("served");
    }
    let stats = service.shutdown();
    assert!(stats.validation.correlation_windows >= 1, "windows must have been compared");
    assert_eq!(stats.validation.correlation_trips, 0, "independent streams must not trip");
    assert_eq!(stats.validation.quarantines, 0);
}

/// Requalification that waits a minute between rounds: a persistently
/// faulty shard makes one attempt and then rests, so the verdict-order test
/// below is not competing with an endless recharacterisation loop.
#[derive(Debug)]
struct RestAfterOneAttempt;

impl RequalifyPolicy for RestAfterOneAttempt {
    fn needs_recharacterization(&self, state: ShardState) -> bool {
        state != ShardState::Probation
    }

    fn retry_backoff(&self) -> Duration {
        Duration::from_secs(60)
    }
}

/// What a serial validator reading `stream` from the start would record:
/// one [`WindowedBattery`] fed the whole stream, its verdicts folded into a
/// fresh [`ShardHealth`] until the first quarantine (later windows of a
/// fenced shard are stale and never fold).
fn serial_health(stream: &[u8], validation: &ValidationConfig) -> (ShardHealth, Vec<bool>) {
    let mut battery = WindowedBattery::new(validation.window_bits);
    let mut health = ShardHealth::new();
    let mut verdicts = Vec::new();
    battery.push(stream, |report| {
        if health.is_serving() {
            let pass = report.passes(validation.alpha);
            verdicts.push(pass);
            health.record_window(pass, &validation.policy);
        }
    });
    (health, verdicts)
}

#[test]
fn per_shard_verdicts_match_serial_batteries_over_the_served_streams() {
    const FAULTY: usize = 0;
    const REQUESTS: usize = 48;
    let model = quac_model();
    let ch = characterize_module(&model, DataPattern::best_average(), &characterization());
    let quac = |seed_idx: usize, fault: Option<FaultInjector>| {
        let mut trng =
            QuacTrng::with_characterization(model.clone(), ch.clone(), shard_seed(BASE_SEED, seed_idx));
        if let Some(fault) = fault {
            trng.stream_mut().inject_fault(fault);
        }
        trng
    };
    // A mild persistent bias: some windows of the faulty stream pass and
    // some fail, so the verdict sequence (and the order-sensitive EWMA it
    // folds into) pins the grading order, not just the window count.
    let fault = FaultInjector::bias(0.5135, 3);
    let validation = ValidationConfig {
        enabled: true,
        window_bits: 16_000,
        lossless_tap: true,
        tap_queue_batches: 3,
        policy: HealthPolicy {
            ewma_alpha: 0.3,
            min_pass_ewma: 0.45,
            max_consecutive_failures: 3,
            probation_windows: 2,
        },
        recharacterization: characterization(),
        ..ValidationConfig::default()
    };
    let cfg = RngServiceConfig { validation, ..RngServiceConfig::default() };
    let backends: Vec<Box<dyn EntropyBackend>> = vec![
        Box::new(quac(FAULTY, Some(fault))),
        Box::new(quac(1, None)),
        Box::new(drange_backend()),
    ];
    let policies = ServicePolicies {
        requalify: Box::new(RestAfterOneAttempt),
        ..ServicePolicies::for_config(&cfg)
    };
    let service = RngService::start_with_policies(backends, cfg, policies);
    // One request outstanding at a time: bulk work alternates between the
    // two QUAC shards (the healthy one alone once the faulty one is
    // fenced), latency-sensitive work goes to D-RaNGe.
    let mut completions = Vec::new();
    for i in 0..REQUESTS {
        let priority = if i % 3 == 2 { Priority::High } else { Priority::Normal };
        let t = service.submit(ClientId(0), priority, 1500).unwrap();
        completions.push(t.wait().expect("served"));
    }
    // The drain grades every tapped byte before the graders are joined.
    let stats = service.shutdown();
    assert_eq!(stats.validation.bytes_tapped, stats.completed_bytes);

    let mut windows = 0;
    for shard in 0..3 {
        let served = reassemble_shard(&completions, shard);
        assert!(!served.is_empty(), "shard {shard} served nothing");
        let reference = match shard {
            FAULTY => quac(FAULTY, Some(fault)).generate_bytes(served.len()),
            1 => quac(1, None).generate_bytes(served.len()),
            _ => drange_backend().generate_bytes(served.len()),
        };
        assert_eq!(served, reference, "shard {shard} diverged from its serial reference");
        let (expected, verdicts) = serial_health(&served, &cfg.validation);
        if shard == FAULTY {
            // The faulty stream mixes passing and failing windows before
            // its EWMA trips, so only in-order grading reproduces it.
            assert!(verdicts.contains(&true) && verdicts.contains(&false), "{verdicts:?}");
            assert_eq!(expected.quarantines, 1, "{verdicts:?}");
        } else {
            assert!(verdicts.iter().all(|&pass| pass), "shard {shard}: {verdicts:?}");
        }
        let got = &stats.shard_health[shard];
        assert_eq!(got.windows_validated, expected.windows_validated, "shard {shard}");
        assert_eq!(got.windows_failed, expected.windows_failed, "shard {shard}");
        assert_eq!(got.quarantines, expected.quarantines, "shard {shard}");
        assert_eq!(got.consecutive_failures, expected.consecutive_failures, "shard {shard}");
        assert_eq!(got.pass_ewma.to_bits(), expected.pass_ewma.to_bits(), "shard {shard}");
        windows += expected.windows_validated;
    }
    assert_eq!(stats.validation.windows_validated, windows);
    assert_eq!(stats.validation.quarantines, 1);
}
