//! Structured stats export: renders a [`ServiceStats`] snapshot in the
//! Prometheus text exposition format, so operators can scrape the service
//! (or diff two snapshots with
//! [`ServiceStats::delta_since`](crate::ServiceStats::delta_since) and
//! export the rate window) without any new dependency.
//!
//! Layout choices, pinned by the golden-format test:
//!
//! * Counters end in `_total`; per-shard series carry a `shard="N"` label
//!   plus a `backend="quac|drange|retention"` label naming the shard's
//!   [`BackendKind`](quac_trng::BackendKind) (from the snapshot's
//!   `backend_kinds`; a snapshot
//!   without kinds — e.g. a bare `ServiceStats::default()` — labels every
//!   shard `quac`, the homogeneous pre-mesh reading).
//! * The log₂ [`Histogram`]s export as cumulative
//!   `_bucket{le="..."}` series: bucket 0 (zeros) has edge `0`, bucket `i`
//!   covers `[2^(i−1), 2^i)` so its inclusive integer edge is `2^i − 1`,
//!   and the open-ended final bucket folds into `+Inf`. Trailing all-zero
//!   buckets are truncated — the `+Inf` line always carries the full count,
//!   so the series stays a valid cumulative histogram and the output stays
//!   stable as load grows.
//! * Per-shard health gauges are emitted only when the snapshot carries
//!   health records (i.e. came from [`RngService::stats`](crate::RngService::stats)
//!   or shutdown, not a bare `ServiceStats::default()`).

use crate::stats::{Histogram, ServiceStats};
use std::fmt::Write as _;

/// The `backend="..."` label value for one shard: its recorded
/// [`BackendKind`](quac_trng::BackendKind), defaulting to `quac` for
/// snapshots that predate the mesh (or were built by hand without kinds).
fn backend_label(stats: &ServiceStats, shard: usize) -> &'static str {
    stats
        .backend_kinds
        .get(shard)
        .map_or("quac", |kind| kind.label())
}

/// Renders `stats` as Prometheus text exposition (version 0.0.4). The
/// output is a deterministic function of the snapshot: same stats, same
/// bytes — which is what makes the golden test and snapshot-diff workflows
/// stable.
pub fn prometheus_text(stats: &ServiceStats) -> String {
    let mut out = String::with_capacity(4096);
    counter(
        &mut out,
        "qt_rng_completed_requests_total",
        "Requests completed (delivered to their tickets).",
        stats.completed_requests,
    );
    counter(
        &mut out,
        "qt_rng_completed_bytes_total",
        "Random bytes delivered.",
        stats.completed_bytes,
    );
    counter(
        &mut out,
        "qt_rng_expired_requests_total",
        "Requests completed with a typed Expired outcome (bytes never generated).",
        stats.expired_requests,
    );
    counter(
        &mut out,
        "qt_rng_expiry_sweeps_total",
        "Scans the expiry-sweep thread ran (0 under deadline-free load).",
        stats.expiry_sweeps,
    );
    counter(
        &mut out,
        "qt_rng_failed_over_requests_total",
        "Queued requests re-placed from a quarantined shard onto a healthy one.",
        stats.failed_over_requests,
    );
    counter(
        &mut out,
        "qt_rng_degraded_rejections_total",
        "Submissions rejected because every shard was quarantined.",
        stats.degraded_rejections,
    );
    counter(
        &mut out,
        "qt_rng_rate_limited_rejections_total",
        "Submissions rejected by the per-tenant QoS policy (token bucket empty).",
        stats.rate_limited_rejections,
    );
    counter(
        &mut out,
        "qt_rng_mixed_halves_abandoned_total",
        "Mixed-submission halves that delivered bytes while their sibling failed (generated, then discarded).",
        stats.mixed_halves_abandoned,
    );
    gauge(
        &mut out,
        "qt_rng_peak_in_flight_bytes",
        "High-water mark of in-flight bytes.",
        stats.peak_in_flight_bytes as u64,
    );
    help_type(
        &mut out,
        "qt_rng_shard_delivered_bytes_total",
        "Bytes delivered by each shard.",
        "counter",
    );
    for (shard, bytes) in stats.per_shard_bytes.iter().enumerate() {
        let backend = backend_label(stats, shard);
        let _ = writeln!(
            out,
            "qt_rng_shard_delivered_bytes_total{{shard=\"{shard}\",backend=\"{backend}\"}} {bytes}"
        );
    }
    help_type(
        &mut out,
        "qt_rng_shard_fresh_bits_drawn_total",
        "Raw fresh entropy bits the shard's backend drew from its physical source.",
        "counter",
    );
    for (shard, ledger) in stats.per_shard_ledger.iter().enumerate() {
        let backend = backend_label(stats, shard);
        let _ = writeln!(
            out,
            "qt_rng_shard_fresh_bits_drawn_total{{shard=\"{shard}\",backend=\"{backend}\"}} {}",
            ledger.fresh_bits_drawn
        );
    }
    help_type(
        &mut out,
        "qt_rng_shard_fresh_bits_claimed_total",
        "Fresh bits attributed to completions served by the shard (never exceeds the drawn total).",
        "counter",
    );
    for (shard, ledger) in stats.per_shard_ledger.iter().enumerate() {
        let backend = backend_label(stats, shard);
        let _ = writeln!(
            out,
            "qt_rng_shard_fresh_bits_claimed_total{{shard=\"{shard}\",backend=\"{backend}\"}} {}",
            ledger.fresh_bits_claimed
        );
    }
    help_type(
        &mut out,
        "qt_rng_shard_conditioned_bytes_served_total",
        "Conditioned bytes the shard's worker generated into completions.",
        "counter",
    );
    for (shard, ledger) in stats.per_shard_ledger.iter().enumerate() {
        let backend = backend_label(stats, shard);
        let _ = writeln!(
            out,
            "qt_rng_shard_conditioned_bytes_served_total{{shard=\"{shard}\",backend=\"{backend}\"}} {}",
            ledger.conditioned_bytes_served
        );
    }
    counter(
        &mut out,
        "qt_rng_validation_bytes_tapped_total",
        "Served bytes copied into the per-shard grader queues.",
        stats.validation.bytes_tapped,
    );
    counter(
        &mut out,
        "qt_rng_validation_bytes_dropped_total",
        "Served bytes that bypassed validation (lossy tap).",
        stats.validation.bytes_dropped,
    );
    counter(
        &mut out,
        "qt_rng_validation_windows_validated_total",
        "Served windows the battery graded.",
        stats.validation.windows_validated,
    );
    counter(
        &mut out,
        "qt_rng_validation_windows_failed_total",
        "Served windows that failed the battery.",
        stats.validation.windows_failed,
    );
    counter(
        &mut out,
        "qt_rng_validation_quarantines_total",
        "Quarantine transitions.",
        stats.validation.quarantines,
    );
    counter(
        &mut out,
        "qt_rng_validation_recharacterizations_total",
        "Recharacterisations run by quarantined shards.",
        stats.validation.recharacterizations,
    );
    counter(
        &mut out,
        "qt_rng_validation_probation_windows_total",
        "Probation windows generated and graded during requalification.",
        stats.validation.probation_windows,
    );
    counter(
        &mut out,
        "qt_rng_validation_readmissions_total",
        "Readmissions after a passed probation.",
        stats.validation.readmissions,
    );
    counter(
        &mut out,
        "qt_rng_validation_correlation_windows_total",
        "Same-index window pairs compared by the cross-correlation monitor.",
        stats.validation.correlation_windows,
    );
    counter(
        &mut out,
        "qt_rng_validation_correlation_trips_total",
        "Shard pairs force-quarantined for inter-backend correlation.",
        stats.validation.correlation_trips,
    );
    if !stats.shard_health.is_empty() {
        help_type(
            &mut out,
            "qt_rng_shard_serving",
            "1 while the shard is in placement (healthy), 0 while fenced.",
            "gauge",
        );
        for (shard, h) in stats.shard_health.iter().enumerate() {
            let _ = writeln!(
                out,
                "qt_rng_shard_serving{{shard=\"{shard}\",backend=\"{}\"}} {}",
                backend_label(stats, shard),
                u8::from(h.is_serving())
            );
        }
        help_type(
            &mut out,
            "qt_rng_shard_pass_ewma",
            "Pass-rate EWMA of the shard's validated windows.",
            "gauge",
        );
        for (shard, h) in stats.shard_health.iter().enumerate() {
            let _ = writeln!(
                out,
                "qt_rng_shard_pass_ewma{{shard=\"{shard}\",backend=\"{}\"}} {}",
                backend_label(stats, shard),
                h.pass_ewma
            );
        }
        help_type(
            &mut out,
            "qt_rng_shard_quarantines_total",
            "Times the shard was quarantined.",
            "counter",
        );
        for (shard, h) in stats.shard_health.iter().enumerate() {
            let _ = writeln!(
                out,
                "qt_rng_shard_quarantines_total{{shard=\"{shard}\",backend=\"{}\"}} {}",
                backend_label(stats, shard),
                h.quarantines
            );
        }
        help_type(
            &mut out,
            "qt_rng_shard_readmissions_total",
            "Times the shard was readmitted after probation.",
            "counter",
        );
        for (shard, h) in stats.shard_health.iter().enumerate() {
            let _ = writeln!(
                out,
                "qt_rng_shard_readmissions_total{{shard=\"{shard}\",backend=\"{}\"}} {}",
                backend_label(stats, shard),
                h.readmissions
            );
        }
    }
    histogram(
        &mut out,
        "qt_rng_queue_depth",
        "Queue depth (requests waiting on the chosen shard) sampled at each admission.",
        &stats.queue_depth,
    );
    histogram(
        &mut out,
        "qt_rng_latency_us",
        "Request latency (submission to delivery) in microseconds.",
        &stats.latency_us,
    );
    histogram(
        &mut out,
        "qt_rng_deadline_slack_us",
        "Microseconds left until the deadline at delivery, for served requests that carried one.",
        &stats.deadline_slack_us,
    );
    out
}

fn help_type(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    help_type(out, name, help, "counter");
    let _ = writeln!(out, "{name} {value}");
}

fn gauge(out: &mut String, name: &str, help: &str, value: u64) {
    help_type(out, name, help, "gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// Writes one log₂ histogram as cumulative `_bucket`/`_sum`/`_count` series.
/// Bucket `i`'s inclusive upper edge is `2^i − 1` (bucket 0 holds zeros);
/// the final, open-ended bucket only appears in the `+Inf` line. Trailing
/// all-zero buckets are truncated.
fn histogram(out: &mut String, name: &str, help: &str, h: &Histogram) {
    help_type(out, name, help, "histogram");
    let buckets = h.buckets();
    let last_nonzero = buckets.iter().rposition(|&b| b != 0).unwrap_or(0);
    // The open-ended final bucket has no finite edge: its count is only
    // representable in the +Inf line.
    let last_finite = last_nonzero.min(buckets.len() - 2);
    let mut cumulative = 0u64;
    for (i, &b) in buckets.iter().enumerate().take(last_finite + 1) {
        cumulative += b;
        if i == 0 {
            let _ = writeln!(out, "{name}_bucket{{le=\"0\"}} {cumulative}");
        } else {
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{}\"}} {cumulative}",
                (1u64 << i) - 1
            );
        }
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{name}_sum {}", h.sum());
    let _ = writeln!(out, "{name}_count {}", h.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_export_is_well_formed() {
        let text = prometheus_text(&ServiceStats::default());
        assert!(text.contains("qt_rng_completed_requests_total 0\n"));
        assert!(text.contains("# TYPE qt_rng_latency_us histogram\n"));
        // An empty histogram still carries its le="0" floor, +Inf, sum, count.
        assert!(text.contains("qt_rng_latency_us_bucket{le=\"0\"} 0\n"));
        assert!(text.contains("qt_rng_latency_us_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("qt_rng_latency_us_sum 0\n"));
        assert!(text.contains("qt_rng_latency_us_count 0\n"));
        // No health records in a bare default snapshot → no per-shard gauges.
        assert!(!text.contains("qt_rng_shard_serving"));
        // Every non-comment line is "name[{labels}] value".
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable value in {line:?}"
            );
            assert!(parts.next().is_some(), "no metric name in {line:?}");
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_log2_edges() {
        let mut stats = ServiceStats::default();
        stats.latency_us.record(0);
        stats.latency_us.record(1);
        stats.latency_us.record(2);
        stats.latency_us.record(3);
        stats.latency_us.record(900);
        let text = prometheus_text(&stats);
        assert!(text.contains("qt_rng_latency_us_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("qt_rng_latency_us_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("qt_rng_latency_us_bucket{le=\"3\"} 4\n"));
        // 900 lands in [512, 1024) — inclusive edge 1023 — and truncation
        // stops there.
        assert!(text.contains("qt_rng_latency_us_bucket{le=\"1023\"} 5\n"));
        assert!(!text.contains("qt_rng_latency_us_bucket{le=\"2047\"}"));
        assert!(text.contains("qt_rng_latency_us_bucket{le=\"+Inf\"} 5\n"));
        assert!(text.contains("qt_rng_latency_us_sum 906\n"));
        assert!(text.contains("qt_rng_latency_us_count 5\n"));
    }

    #[test]
    fn open_ended_samples_appear_only_in_the_inf_bucket() {
        let mut stats = ServiceStats::default();
        stats.latency_us.record(u64::MAX); // lands in the final bucket
        let text = prometheus_text(&stats);
        // No finite edge claims the sample; +Inf carries it.
        assert!(text.contains("qt_rng_latency_us_bucket{le=\"0\"} 0\n"));
        assert!(text.contains("qt_rng_latency_us_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("qt_rng_latency_us_count 1\n"));
    }

    #[test]
    fn shard_health_exports_with_labels() {
        use crate::health::{ShardHealth, ShardState};
        use quac_trng::BackendKind;
        let mut stats = ServiceStats {
            per_shard_bytes: vec![64, 128],
            ..Default::default()
        };
        let mut fenced = ShardHealth::new();
        fenced.state = ShardState::Quarantined;
        fenced.quarantines = 3;
        stats.shard_health = vec![ShardHealth::new(), fenced];
        stats.backend_kinds = vec![BackendKind::Quac, BackendKind::DRange];
        let text = prometheus_text(&stats);
        assert!(
            text.contains("qt_rng_shard_delivered_bytes_total{shard=\"0\",backend=\"quac\"} 64\n")
        );
        assert!(text
            .contains("qt_rng_shard_delivered_bytes_total{shard=\"1\",backend=\"drange\"} 128\n"));
        assert!(text.contains("qt_rng_shard_serving{shard=\"0\",backend=\"quac\"} 1\n"));
        assert!(text.contains("qt_rng_shard_serving{shard=\"1\",backend=\"drange\"} 0\n"));
        assert!(text.contains("qt_rng_shard_quarantines_total{shard=\"1\",backend=\"drange\"} 3\n"));
        assert!(text.contains("qt_rng_shard_pass_ewma{shard=\"0\",backend=\"quac\"} 1\n"));
        assert!(text.contains("qt_rng_validation_correlation_windows_total 0\n"));
        assert!(text.contains("qt_rng_validation_correlation_trips_total 0\n"));
    }

    #[test]
    fn a_snapshot_without_kinds_labels_every_shard_quac() {
        let stats = ServiceStats {
            per_shard_bytes: vec![7],
            ..Default::default()
        };
        let text = prometheus_text(&stats);
        assert!(
            text.contains("qt_rng_shard_delivered_bytes_total{shard=\"0\",backend=\"quac\"} 7\n")
        );
    }
}
