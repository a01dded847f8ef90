//! Golden-format test of the Prometheus text exposition
//! (`qt_rng_service::export`): the rendered snapshot is pinned byte for
//! byte, so any drift in metric names, label syntax, HELP text, or the
//! log2-bucket cumulative-edge scheme fails here before it breaks a
//! scrape pipeline downstream. A live-service test then checks that a
//! real snapshot renders consistently with its own counters.

use quac_trng_repro::dram_analog::{ModuleVariation, OperatingConditions, QuacAnalogModel};
use quac_trng_repro::dram_core::{DataPattern, DramGeometry};
use quac_trng_repro::rng_service::export::prometheus_text;
use quac_trng_repro::rng_service::{
    ClientId, EntropyLedger, Priority, RngService, RngServiceConfig, ServiceStats, ShardHealth,
    ShardState, ValidationStats,
};
use quac_trng_repro::trng::characterize::{characterize_module, CharacterizationConfig};
use quac_trng_repro::trng::pipeline::QuacTrng;
use quac_trng_repro::trng::BackendKind;

/// A snapshot with every counter family populated, built by hand so the
/// expected exposition is a constant.
fn golden_stats() -> ServiceStats {
    let mut stats = ServiceStats {
        completed_requests: 3,
        completed_bytes: 768,
        peak_in_flight_bytes: 4096,
        per_shard_bytes: vec![512, 256],
        expired_requests: 1,
        expiry_sweeps: 2,
        failed_over_requests: 4,
        degraded_rejections: 5,
        rate_limited_rejections: 6,
        mixed_halves_abandoned: 2,
        per_shard_ledger: vec![
            EntropyLedger {
                fresh_bits_drawn: 20000,
                fresh_bits_claimed: 11520,
                conditioned_bytes_served: 512,
            },
            EntropyLedger {
                fresh_bits_drawn: 10000,
                fresh_bits_claimed: 4096,
                conditioned_bytes_served: 256,
            },
        ],
        validation: ValidationStats {
            bytes_tapped: 700,
            bytes_dropped: 68,
            windows_validated: 6,
            windows_failed: 1,
            quarantines: 1,
            recharacterizations: 1,
            probation_windows: 2,
            readmissions: 1,
            correlation_windows: 9,
            correlation_trips: 1,
        },
        ..Default::default()
    };
    stats.queue_depth.record(0);
    stats.queue_depth.record(1);
    stats.queue_depth.record(2);
    stats.latency_us.record(10);
    stats.latency_us.record(700);
    stats.deadline_slack_us.record(250);
    let mut fenced = ShardHealth::new();
    fenced.state = ShardState::Quarantined;
    fenced.quarantines = 1;
    fenced.pass_ewma = 0.5;
    stats.shard_health = vec![ShardHealth::new(), fenced];
    stats.backend_kinds = vec![BackendKind::Quac, BackendKind::DRange];
    stats
}

const GOLDEN: &str = r#"# HELP qt_rng_completed_requests_total Requests completed (delivered to their tickets).
# TYPE qt_rng_completed_requests_total counter
qt_rng_completed_requests_total 3
# HELP qt_rng_completed_bytes_total Random bytes delivered.
# TYPE qt_rng_completed_bytes_total counter
qt_rng_completed_bytes_total 768
# HELP qt_rng_expired_requests_total Requests completed with a typed Expired outcome (bytes never generated).
# TYPE qt_rng_expired_requests_total counter
qt_rng_expired_requests_total 1
# HELP qt_rng_expiry_sweeps_total Scans the expiry-sweep thread ran (0 under deadline-free load).
# TYPE qt_rng_expiry_sweeps_total counter
qt_rng_expiry_sweeps_total 2
# HELP qt_rng_failed_over_requests_total Queued requests re-placed from a quarantined shard onto a healthy one.
# TYPE qt_rng_failed_over_requests_total counter
qt_rng_failed_over_requests_total 4
# HELP qt_rng_degraded_rejections_total Submissions rejected because every shard was quarantined.
# TYPE qt_rng_degraded_rejections_total counter
qt_rng_degraded_rejections_total 5
# HELP qt_rng_rate_limited_rejections_total Submissions rejected by the per-tenant QoS policy (token bucket empty).
# TYPE qt_rng_rate_limited_rejections_total counter
qt_rng_rate_limited_rejections_total 6
# HELP qt_rng_mixed_halves_abandoned_total Mixed-submission halves that delivered bytes while their sibling failed (generated, then discarded).
# TYPE qt_rng_mixed_halves_abandoned_total counter
qt_rng_mixed_halves_abandoned_total 2
# HELP qt_rng_peak_in_flight_bytes High-water mark of in-flight bytes.
# TYPE qt_rng_peak_in_flight_bytes gauge
qt_rng_peak_in_flight_bytes 4096
# HELP qt_rng_shard_delivered_bytes_total Bytes delivered by each shard.
# TYPE qt_rng_shard_delivered_bytes_total counter
qt_rng_shard_delivered_bytes_total{shard="0",backend="quac"} 512
qt_rng_shard_delivered_bytes_total{shard="1",backend="drange"} 256
# HELP qt_rng_shard_fresh_bits_drawn_total Raw fresh entropy bits the shard's backend drew from its physical source.
# TYPE qt_rng_shard_fresh_bits_drawn_total counter
qt_rng_shard_fresh_bits_drawn_total{shard="0",backend="quac"} 20000
qt_rng_shard_fresh_bits_drawn_total{shard="1",backend="drange"} 10000
# HELP qt_rng_shard_fresh_bits_claimed_total Fresh bits attributed to completions served by the shard (never exceeds the drawn total).
# TYPE qt_rng_shard_fresh_bits_claimed_total counter
qt_rng_shard_fresh_bits_claimed_total{shard="0",backend="quac"} 11520
qt_rng_shard_fresh_bits_claimed_total{shard="1",backend="drange"} 4096
# HELP qt_rng_shard_conditioned_bytes_served_total Conditioned bytes the shard's worker generated into completions.
# TYPE qt_rng_shard_conditioned_bytes_served_total counter
qt_rng_shard_conditioned_bytes_served_total{shard="0",backend="quac"} 512
qt_rng_shard_conditioned_bytes_served_total{shard="1",backend="drange"} 256
# HELP qt_rng_validation_bytes_tapped_total Served bytes copied into the per-shard grader queues.
# TYPE qt_rng_validation_bytes_tapped_total counter
qt_rng_validation_bytes_tapped_total 700
# HELP qt_rng_validation_bytes_dropped_total Served bytes that bypassed validation (lossy tap).
# TYPE qt_rng_validation_bytes_dropped_total counter
qt_rng_validation_bytes_dropped_total 68
# HELP qt_rng_validation_windows_validated_total Served windows the battery graded.
# TYPE qt_rng_validation_windows_validated_total counter
qt_rng_validation_windows_validated_total 6
# HELP qt_rng_validation_windows_failed_total Served windows that failed the battery.
# TYPE qt_rng_validation_windows_failed_total counter
qt_rng_validation_windows_failed_total 1
# HELP qt_rng_validation_quarantines_total Quarantine transitions.
# TYPE qt_rng_validation_quarantines_total counter
qt_rng_validation_quarantines_total 1
# HELP qt_rng_validation_recharacterizations_total Recharacterisations run by quarantined shards.
# TYPE qt_rng_validation_recharacterizations_total counter
qt_rng_validation_recharacterizations_total 1
# HELP qt_rng_validation_probation_windows_total Probation windows generated and graded during requalification.
# TYPE qt_rng_validation_probation_windows_total counter
qt_rng_validation_probation_windows_total 2
# HELP qt_rng_validation_readmissions_total Readmissions after a passed probation.
# TYPE qt_rng_validation_readmissions_total counter
qt_rng_validation_readmissions_total 1
# HELP qt_rng_validation_correlation_windows_total Same-index window pairs compared by the cross-correlation monitor.
# TYPE qt_rng_validation_correlation_windows_total counter
qt_rng_validation_correlation_windows_total 9
# HELP qt_rng_validation_correlation_trips_total Shard pairs force-quarantined for inter-backend correlation.
# TYPE qt_rng_validation_correlation_trips_total counter
qt_rng_validation_correlation_trips_total 1
# HELP qt_rng_shard_serving 1 while the shard is in placement (healthy), 0 while fenced.
# TYPE qt_rng_shard_serving gauge
qt_rng_shard_serving{shard="0",backend="quac"} 1
qt_rng_shard_serving{shard="1",backend="drange"} 0
# HELP qt_rng_shard_pass_ewma Pass-rate EWMA of the shard's validated windows.
# TYPE qt_rng_shard_pass_ewma gauge
qt_rng_shard_pass_ewma{shard="0",backend="quac"} 1
qt_rng_shard_pass_ewma{shard="1",backend="drange"} 0.5
# HELP qt_rng_shard_quarantines_total Times the shard was quarantined.
# TYPE qt_rng_shard_quarantines_total counter
qt_rng_shard_quarantines_total{shard="0",backend="quac"} 0
qt_rng_shard_quarantines_total{shard="1",backend="drange"} 1
# HELP qt_rng_shard_readmissions_total Times the shard was readmitted after probation.
# TYPE qt_rng_shard_readmissions_total counter
qt_rng_shard_readmissions_total{shard="0",backend="quac"} 0
qt_rng_shard_readmissions_total{shard="1",backend="drange"} 0
# HELP qt_rng_queue_depth Queue depth (requests waiting on the chosen shard) sampled at each admission.
# TYPE qt_rng_queue_depth histogram
qt_rng_queue_depth_bucket{le="0"} 1
qt_rng_queue_depth_bucket{le="1"} 2
qt_rng_queue_depth_bucket{le="3"} 3
qt_rng_queue_depth_bucket{le="+Inf"} 3
qt_rng_queue_depth_sum 3
qt_rng_queue_depth_count 3
# HELP qt_rng_latency_us Request latency (submission to delivery) in microseconds.
# TYPE qt_rng_latency_us histogram
qt_rng_latency_us_bucket{le="0"} 0
qt_rng_latency_us_bucket{le="1"} 0
qt_rng_latency_us_bucket{le="3"} 0
qt_rng_latency_us_bucket{le="7"} 0
qt_rng_latency_us_bucket{le="15"} 1
qt_rng_latency_us_bucket{le="31"} 1
qt_rng_latency_us_bucket{le="63"} 1
qt_rng_latency_us_bucket{le="127"} 1
qt_rng_latency_us_bucket{le="255"} 1
qt_rng_latency_us_bucket{le="511"} 1
qt_rng_latency_us_bucket{le="1023"} 2
qt_rng_latency_us_bucket{le="+Inf"} 2
qt_rng_latency_us_sum 710
qt_rng_latency_us_count 2
# HELP qt_rng_deadline_slack_us Microseconds left until the deadline at delivery, for served requests that carried one.
# TYPE qt_rng_deadline_slack_us histogram
qt_rng_deadline_slack_us_bucket{le="0"} 0
qt_rng_deadline_slack_us_bucket{le="1"} 0
qt_rng_deadline_slack_us_bucket{le="3"} 0
qt_rng_deadline_slack_us_bucket{le="7"} 0
qt_rng_deadline_slack_us_bucket{le="15"} 0
qt_rng_deadline_slack_us_bucket{le="31"} 0
qt_rng_deadline_slack_us_bucket{le="63"} 0
qt_rng_deadline_slack_us_bucket{le="127"} 0
qt_rng_deadline_slack_us_bucket{le="255"} 1
qt_rng_deadline_slack_us_bucket{le="+Inf"} 1
qt_rng_deadline_slack_us_sum 250
qt_rng_deadline_slack_us_count 1
"#;

#[test]
fn exposition_format_is_pinned_byte_for_byte() {
    assert_eq!(prometheus_text(&golden_stats()), GOLDEN);
}

#[test]
fn live_service_snapshot_renders_consistently() {
    let geom = DramGeometry::tiny_test();
    let model = QuacAnalogModel::new(geom, ModuleVariation::generate(&geom, 8));
    let ccfg = CharacterizationConfig {
        segment_stride: 1,
        bitline_stride: 1,
        conditions: OperatingConditions::nominal(),
    };
    let ch = characterize_module(&model, DataPattern::best_average(), &ccfg);
    let service = RngService::start(
        QuacTrng::shards(&model, &ch, 7, 2),
        RngServiceConfig::default(),
    );
    for _ in 0..5 {
        let t = service.submit(ClientId(0), Priority::Normal, 512).unwrap();
        t.wait().expect("served");
    }
    let stats = service.stats();
    let text = prometheus_text(&stats);

    // Scalar series match the snapshot they were rendered from.
    let value = |name: &str| -> f64 {
        text.lines()
            .find(|l| !l.starts_with('#') && l.split(' ').next() == Some(name))
            .unwrap_or_else(|| panic!("missing series {name}"))
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .expect("numeric value")
    };
    assert_eq!(
        value("qt_rng_completed_requests_total") as u64,
        stats.completed_requests
    );
    assert_eq!(
        value("qt_rng_completed_bytes_total") as u64,
        stats.completed_bytes
    );
    assert_eq!(
        value("qt_rng_expiry_sweeps_total"),
        0.0,
        "deadline-free load never sweeps"
    );
    assert_eq!(
        value("qt_rng_latency_us_count") as u64,
        stats.latency_us.count()
    );
    assert_eq!(
        value("qt_rng_latency_us_sum") as u64,
        stats.latency_us.sum()
    );
    // Per-shard delivered bytes cover both shards and sum to the total; a
    // homogeneous QUAC service labels every shard backend="quac".
    let shard_total: u64 = (0..2)
        .map(|s| {
            value(&format!(
                "qt_rng_shard_delivered_bytes_total{{shard=\"{s}\",backend=\"quac\"}}"
            )) as u64
        })
        .sum();
    assert_eq!(shard_total, stats.completed_bytes);
    // The entropy ledger exports per shard, and a live snapshot never
    // claims more fresh bits than it drew.
    for s in 0..2 {
        let drawn = value(&format!(
            "qt_rng_shard_fresh_bits_drawn_total{{shard=\"{s}\",backend=\"quac\"}}"
        ));
        let claimed = value(&format!(
            "qt_rng_shard_fresh_bits_claimed_total{{shard=\"{s}\",backend=\"quac\"}}"
        ));
        assert!(
            claimed <= drawn,
            "shard {s}: claimed {claimed} fresh bits of {drawn} drawn"
        );
    }
    // A live snapshot carries health records, so the per-shard gauges are on.
    assert_eq!(
        value("qt_rng_shard_serving{shard=\"0\",backend=\"quac\"}"),
        1.0
    );
    assert_eq!(
        value("qt_rng_shard_serving{shard=\"1\",backend=\"quac\"}"),
        1.0
    );
    // The +Inf bucket of every histogram equals its _count line.
    for name in [
        "qt_rng_queue_depth",
        "qt_rng_latency_us",
        "qt_rng_deadline_slack_us",
    ] {
        assert_eq!(
            value(&format!("{name}_bucket{{le=\"+Inf\"}}")),
            value(&format!("{name}_count")),
            "{name}: +Inf bucket must carry the full count"
        );
    }
    service.shutdown();
}
