//! Perf-regression gate over `BENCH_RESULTS.json`.
//!
//! ```text
//! bench_check <fresh.json> <committed-baseline.json>
//! ```
//!
//! Compares every benchmark present in both reports and exits non-zero if
//! any named hot path regressed by more than the threshold (default 25%,
//! override with `BENCH_REGRESSION_THRESHOLD`, e.g. `0.25`).
//!
//! The two reports are usually measured on *different machines* (a dev box
//! committed the baseline, CI measured the fresh run), so raw ns ratios
//! would flag a uniformly slower runner as a regression of everything.
//! Ratios are therefore normalised by their median: a real regression is a
//! hot path that got slower *relative to the rest of the suite*, which is
//! machine-independent to first order. A wide absolute raw-ratio bound
//! (default 4×, `BENCH_ABS_RATIO_BOUND`) backstops the median against
//! suite-majority regressions it would otherwise absorb.

use criterion::{json_number, json_string};
use std::process::ExitCode;

/// One `(name, ns_per_iter)` pair per entry of a report, parsed with the
/// writer's own helpers (vendored criterion).
///
/// `include_carried` controls whether entries tagged `"carried":true` — the
/// JSON merge's copied-forward-not-measured marker — count. The *fresh*
/// report must exclude them: a deleted benchmark would otherwise reappear
/// with ratio exactly 1.0, dodging the MISSING check and skewing the median
/// normalisation. The *baseline* must include them: a carried entry there
/// still holds a real historical measurement, and dropping it would
/// silently remove that hot path from the gate after a filtered run is
/// committed.
fn parse_results(text: &str, include_carried: bool) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name) = json_string(line, "name") else {
            continue;
        };
        let Some(ns) = json_number(line, "ns_per_iter") else {
            continue;
        };
        if ns > 0.0 && (include_carried || !line.contains("\"carried\":true")) {
            out.push((name, ns));
        }
    }
    out
}

/// How far a *raw* fresh/baseline ratio may drift before it fails even when
/// the median normalisation would absorb it. The median cancels uniform
/// machine-speed differences (runners rarely differ by more than ~3×), but
/// it is blind to a regression that hits the majority of the suite — e.g. a
/// slowed shared primitive shifts the median itself. The absolute bound
/// closes that blind spot; override with `BENCH_ABS_RATIO_BOUND`.
const DEFAULT_ABS_RATIO_BOUND: f64 = 4.0;

/// The benchmark the absolute-throughput floor gates: sustained steady-state
/// generation, the headline number of the reproduction.
const GBPS_GATED_BENCH: &str = "generate_bytes_64KiB";

/// Fraction of the committed baseline's Gb/s the fresh run must reach. The
/// floor is *relative to the committed baseline* so it ratchets forward when
/// a faster baseline is committed, yet tolerates slower CI runners; override
/// the whole floor with an absolute `BENCH_GBPS_FLOOR` (e.g. `0.8`).
const DEFAULT_GBPS_FLOOR_FRACTION: f64 = 0.75;

/// Extracts the `gbps` field of the named benchmark from a raw report.
fn gbps_of(text: &str, bench: &str) -> Option<f64> {
    text.lines()
        .find(|line| json_string(line, "name").as_deref() == Some(bench))
        .and_then(|line| json_number(line, "gbps"))
}

/// The generation-throughput floor: fails when the fresh run's sustained
/// Gb/s drops below `floor_override`, or — absent an override — below
/// `fraction` of the committed baseline's Gb/s. Unlike the median-normalised
/// ratios this is an *absolute* bound: a stream generator that silently
/// halves its throughput is broken even if the whole suite slowed in
/// lockstep. Returns `Some((fresh_gbps, floor, failed?))` when a verdict is
/// possible. Pure so the rule is unit-testable.
fn gbps_floor_verdict(
    fresh_gbps: Option<f64>,
    baseline_gbps: Option<f64>,
    fraction: f64,
    floor_override: Option<f64>,
) -> Option<(f64, f64, bool)> {
    let fresh = fresh_gbps?;
    let floor = floor_override.or_else(|| Some(baseline_gbps? * fraction))?;
    Some((fresh, floor, fresh < floor))
}

/// A paired overhead gate: two benches measured in the *same* fresh run
/// (same machine, same build), whose ns ratio must stay within a budget.
struct PairedGate {
    /// The bench that pays the overhead.
    on: &'static str,
    /// The bench it is measured against.
    off: &'static str,
    /// Environment variable overriding the budget (a fraction, e.g. `0.10`).
    env: &'static str,
    /// Default budget: `on / off` may exceed 1 by at most this fraction.
    budget: f64,
    /// Row label in the report.
    label: &'static str,
}

/// Every paired gate, with the acceptance bound each one holds.
const PAIRED_GATES: [PairedGate; 4] = [
    // The continuous-validation tap: "validation-on overhead < 10%".
    PairedGate {
        on: "rng_service_continuous_validation_on",
        off: "rng_service_continuous_validation_off",
        env: "BENCH_VALIDATION_OVERHEAD",
        budget: 0.10,
        label: "validation-on / validation-off:",
    },
    // Degraded mode: "serving through an active drift pulse costs < 15%".
    PairedGate {
        on: "rng_service_under_drift",
        off: "rng_service_drift_off",
        env: "BENCH_DRIFT_OVERHEAD",
        budget: 0.15,
        label: "under-drift / drift-off:",
    },
    // Stats export: "a Prometheus render per round trip costs < 5%".
    PairedGate {
        on: "rng_service_export_on",
        off: "rng_service_export_off",
        env: "BENCH_EXPORT_OVERHEAD",
        budget: 0.05,
        label: "export-on / export-off:",
    },
    // The front door: "redeeming a ticket through `block_on(AsyncTicket)`
    // costs < 10% over `Ticket::wait`".
    PairedGate {
        on: "rng_service_async_facade",
        off: "rng_service_async_blocking",
        env: "BENCH_FACADE_OVERHEAD",
        budget: 0.10,
        label: "async-facade / blocking-wait:",
    },
];

/// One paired gate's verdict: `Some((on_over_off_ratio, over_budget?))`
/// when both benches are in the fresh run, `None` otherwise (e.g. a
/// filtered run). Pure so the rule is unit-testable.
fn paired_overhead(fresh: &[(String, f64)], gate: &PairedGate, budget: f64) -> Option<(f64, bool)> {
    let ns = |name: &str| fresh.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    let ratio = ns(gate.on)? / ns(gate.off)?;
    Some((ratio, ratio > 1.0 + budget))
}

/// Per-benchmark verdicts: `(name, fresh/baseline ratio normalised by the
/// suite median, regressed?)`, plus the median itself (printed so a
/// suite-wide shift is visible to humans even when no entry fails). An
/// entry regresses if its normalised ratio exceeds `1 + threshold` *or*
/// its raw ratio exceeds `abs_bound`. Pure so the decision rule is
/// unit-testable.
fn verdicts(
    fresh: &[(String, f64)],
    baseline: &[(String, f64)],
    threshold: f64,
    abs_bound: f64,
) -> (Vec<(String, f64, bool)>, f64) {
    let mut ratios: Vec<(String, f64)> = Vec::new();
    for (name, base_ns) in baseline {
        if let Some((_, fresh_ns)) = fresh.iter().find(|(n, _)| n == name) {
            ratios.push((name.clone(), fresh_ns / base_ns));
        }
    }
    if ratios.is_empty() {
        return (Vec::new(), 1.0);
    }
    let mut sorted: Vec<f64> = ratios.iter().map(|(_, r)| *r).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let median = sorted[sorted.len() / 2];
    let rows = ratios
        .into_iter()
        .map(|(name, ratio)| {
            let normalised = ratio / median;
            (
                name,
                normalised,
                normalised > 1.0 + threshold || ratio > abs_bound,
            )
        })
        .collect();
    (rows, median)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, fresh_path, baseline_path] = &args[..] else {
        eprintln!("usage: bench_check <fresh.json> <committed-baseline.json>");
        return ExitCode::from(2);
    };
    let threshold = std::env::var("BENCH_REGRESSION_THRESHOLD")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.25);
    let abs_bound = std::env::var("BENCH_ABS_RATIO_BOUND")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(DEFAULT_ABS_RATIO_BOUND);
    let read = |path: &str| -> Option<String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Some(text),
            Err(e) => {
                eprintln!("bench_check: cannot read {path}: {e}");
                None
            }
        }
    };
    let (Some(fresh_text), Some(baseline_text)) = (read(fresh_path), read(baseline_path)) else {
        return ExitCode::from(2);
    };
    let fresh = parse_results(&fresh_text, false);
    let baseline = parse_results(&baseline_text, true);
    let (rows, median) = verdicts(&fresh, &baseline, threshold, abs_bound);
    if rows.is_empty() {
        eprintln!("bench_check: no common benchmarks between {fresh_path} and {baseline_path}");
        return ExitCode::from(2);
    }
    // Names in the committed baseline but missing from the fresh run mean a
    // hot path silently disappeared — fail loudly.
    let mut failed = false;
    for (name, _) in &baseline {
        if !fresh.iter().any(|(n, _)| n == name) {
            eprintln!("MISSING   {name} (in baseline but not measured)");
            failed = true;
        }
    }
    println!("suite median fresh/baseline ratio: {median:.3} (normalisation factor)");
    println!("{:<42}{:>18}", "benchmark", "normalised ratio");
    for (name, ratio, regressed) in &rows {
        let flag = if *regressed { "  <-- REGRESSION" } else { "" };
        println!("{name:<42}{ratio:>18.3}{flag}");
        failed |= regressed;
    }
    // Paired bounds, fresh-run only (same machine on both sides).
    for gate in &PAIRED_GATES {
        let budget = std::env::var(gate.env)
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(gate.budget);
        if let Some((ratio, over)) = paired_overhead(&fresh, gate, budget) {
            let flag = if over { "  <-- OVER BUDGET" } else { "" };
            println!(
                "{:<41}{ratio:>18.3}{flag} (budget {:.0}%)",
                gate.label,
                budget * 100.0
            );
            failed |= over;
        }
    }
    // Absolute generation-throughput floor, fresh-run only: sustained Gb/s
    // must not fall below 75% of the committed baseline (or the explicit
    // BENCH_GBPS_FLOOR).
    let floor_override = std::env::var("BENCH_GBPS_FLOOR")
        .ok()
        .and_then(|v| v.parse::<f64>().ok());
    if let Some((fresh_gbps, floor, under)) = gbps_floor_verdict(
        gbps_of(&fresh_text, GBPS_GATED_BENCH),
        gbps_of(&baseline_text, GBPS_GATED_BENCH),
        DEFAULT_GBPS_FLOOR_FRACTION,
        floor_override,
    ) {
        let flag = if under { "  <-- UNDER FLOOR" } else { "" };
        println!(
            "{GBPS_GATED_BENCH} throughput:     {fresh_gbps:>14.3} Gb/s{flag} (floor {floor:.3} Gb/s)",
        );
        failed |= under;
    }
    if failed {
        eprintln!(
            "bench_check: regression beyond {:.0}% (median-normalised) — investigate or refresh \
             the committed BENCH_RESULTS.json with `just bench-json`",
            threshold * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!(
            "bench_check: all hot paths within {:.0}% of the committed baseline",
            threshold * 100.0
        );
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|(n, v)| (n.to_string(), *v)).collect()
    }

    #[test]
    fn parses_report_lines_with_carried_entries_fresh_vs_baseline() {
        let text = r#"{
  "results": [
    {"name":"a","ns_per_iter":100.0,"samples":10},
    {"name":"b","ns_per_iter":250.5,"samples":10,"gbps":1.0},
    {"name":"stale","ns_per_iter":99.0,"samples":10,"carried":true}
  ]
}"#;
        // Fresh side: the carried entry was not measured this run and must
        // not count (a deleted benchmark would otherwise reappear with
        // ratio exactly 1.0 and dodge the MISSING check).
        assert_eq!(
            parse_results(text, false),
            results(&[("a", 100.0), ("b", 250.5)])
        );
        // Baseline side: a carried entry is still a real historical
        // measurement — dropping it would un-gate that hot path after a
        // filtered `just nist-bench` refresh is committed.
        assert_eq!(
            parse_results(text, true),
            results(&[("a", 100.0), ("b", 250.5), ("stale", 99.0)])
        );
    }

    #[test]
    fn uniform_machine_slowdown_is_not_a_regression() {
        // Fresh run measured on a runner uniformly 2x slower: the median
        // normalisation cancels it.
        let base = results(&[("a", 100.0), ("b", 200.0), ("c", 300.0)]);
        let fresh = results(&[("a", 200.0), ("b", 400.0), ("c", 600.0)]);
        let (rows, median) = verdicts(&fresh, &base, 0.25, DEFAULT_ABS_RATIO_BOUND);
        assert!((median - 2.0).abs() < 1e-12);
        assert!(rows.iter().all(|(_, _, r)| !r));
    }

    #[test]
    fn suite_majority_regression_trips_the_absolute_bound() {
        // A slowed shared primitive regresses most of the suite; the median
        // absorbs it (normalised ratios ~1) but the raw 5x exceeds the
        // absolute bound, so the gate still fails.
        let base = results(&[("a", 100.0), ("b", 200.0), ("c", 300.0)]);
        let fresh = results(&[("a", 500.0), ("b", 1000.0), ("c", 1500.0)]);
        let (rows, _) = verdicts(&fresh, &base, 0.25, DEFAULT_ABS_RATIO_BOUND);
        assert!(
            rows.iter().all(|(_, _, r)| *r),
            "5x across the board must fail"
        );
    }

    #[test]
    fn single_hot_path_regression_is_flagged() {
        let base = results(&[("a", 100.0), ("b", 200.0), ("c", 300.0)]);
        let fresh = results(&[("a", 100.0), ("b", 200.0), ("c", 600.0)]);
        let (rows, _) = verdicts(&fresh, &base, 0.25, DEFAULT_ABS_RATIO_BOUND);
        assert!(!rows.iter().find(|(n, _, _)| n == "a").unwrap().2);
        assert!(
            rows.iter().find(|(n, _, _)| n == "c").unwrap().2,
            "2x on c must flag"
        );
    }

    /// The paired gate whose overhead-paying bench is `on`.
    fn gate(on: &str) -> &'static PairedGate {
        PAIRED_GATES.iter().find(|g| g.on == on).expect("a gate row")
    }

    #[test]
    fn validation_overhead_gate_pairs_the_on_off_benches() {
        let g = gate("rng_service_continuous_validation_on");
        assert_eq!(g.off, "rng_service_continuous_validation_off");
        let fresh = results(&[
            ("rng_service_continuous_validation_off", 1000.0),
            ("rng_service_continuous_validation_on", 1050.0),
        ]);
        let (ratio, over) = paired_overhead(&fresh, g, 0.10).unwrap();
        assert!((ratio - 1.05).abs() < 1e-12);
        assert!(!over, "5% overhead is within the 10% budget");
        let fresh = results(&[
            ("rng_service_continuous_validation_off", 1000.0),
            ("rng_service_continuous_validation_on", 1200.0),
        ]);
        assert!(
            paired_overhead(&fresh, g, 0.10).unwrap().1,
            "20% overhead must fail"
        );
        // Missing either side (e.g. a filtered `-- nist` run): no verdict.
        assert!(paired_overhead(&results(&[("a", 1.0)]), g, 0.10).is_none());
    }

    #[test]
    fn export_overhead_gate_pairs_the_on_off_benches() {
        let g = gate("rng_service_export_on");
        assert_eq!(g.off, "rng_service_export_off");
        let fresh = results(&[
            ("rng_service_export_off", 1000.0),
            ("rng_service_export_on", 1030.0),
        ]);
        let (ratio, over) = paired_overhead(&fresh, g, 0.05).unwrap();
        assert!((ratio - 1.03).abs() < 1e-12);
        assert!(!over, "3% overhead is within the 5% budget");
        let fresh = results(&[
            ("rng_service_export_off", 1000.0),
            ("rng_service_export_on", 1100.0),
        ]);
        assert!(
            paired_overhead(&fresh, g, 0.05).unwrap().1,
            "10% overhead must fail"
        );
        // Missing either side (e.g. a filtered run): no verdict.
        assert!(paired_overhead(&results(&[("a", 1.0)]), g, 0.05).is_none());
    }

    #[test]
    fn facade_overhead_gate_pairs_the_async_blocking_benches() {
        let g = gate("rng_service_async_facade");
        assert_eq!(g.off, "rng_service_async_blocking");
        let fresh = results(&[
            ("rng_service_async_blocking", 1000.0),
            ("rng_service_async_facade", 1060.0),
        ]);
        let (ratio, over) = paired_overhead(&fresh, g, 0.10).unwrap();
        assert!((ratio - 1.06).abs() < 1e-12);
        assert!(!over, "6% overhead is within the 10% budget");
        let fresh = results(&[
            ("rng_service_async_blocking", 1000.0),
            ("rng_service_async_facade", 1150.0),
        ]);
        assert!(
            paired_overhead(&fresh, g, 0.10).unwrap().1,
            "15% overhead must fail"
        );
        // Missing either side (e.g. a filtered run): no verdict.
        assert!(paired_overhead(&results(&[("a", 1.0)]), g, 0.10).is_none());
    }

    #[test]
    fn drift_overhead_gate_pairs_the_off_under_benches() {
        let g = gate("rng_service_under_drift");
        assert_eq!(g.off, "rng_service_drift_off");
        let fresh = results(&[
            ("rng_service_drift_off", 1000.0),
            ("rng_service_under_drift", 1100.0),
        ]);
        let (ratio, over) = paired_overhead(&fresh, g, 0.15).unwrap();
        assert!((ratio - 1.10).abs() < 1e-12);
        assert!(!over, "10% overhead is within the 15% budget");
        let fresh = results(&[
            ("rng_service_drift_off", 1000.0),
            ("rng_service_under_drift", 1300.0),
        ]);
        assert!(
            paired_overhead(&fresh, g, 0.15).unwrap().1,
            "30% overhead must fail"
        );
        // Missing either side (e.g. a filtered run): no verdict.
        assert!(paired_overhead(&results(&[("a", 1.0)]), g, 0.15).is_none());
    }

    #[test]
    fn every_paired_gate_holds_its_budget_and_needs_both_benches() {
        for gate in &PAIRED_GATES {
            // Just inside the default budget passes, just over it fails.
            for (scale, over) in [(0.9, false), (1.1, true)] {
                let fresh = results(&[
                    (gate.off, 1000.0),
                    (gate.on, 1000.0 * (1.0 + gate.budget * scale)),
                ]);
                let (ratio, flagged) = paired_overhead(&fresh, gate, gate.budget).unwrap();
                assert!(
                    (ratio - (1.0 + gate.budget * scale)).abs() < 1e-12,
                    "{}",
                    gate.label
                );
                assert_eq!(flagged, over, "{} at {scale} of its budget", gate.label);
            }
            // Missing either side (e.g. a filtered run): no verdict.
            assert!(paired_overhead(&results(&[(gate.on, 1.0)]), gate, gate.budget).is_none());
            assert!(paired_overhead(&results(&[(gate.off, 1.0)]), gate, gate.budget).is_none());
        }
        let envs: Vec<_> = PAIRED_GATES.iter().map(|g| (g.env, g.budget)).collect();
        assert_eq!(
            envs,
            [
                ("BENCH_VALIDATION_OVERHEAD", 0.10),
                ("BENCH_DRIFT_OVERHEAD", 0.15),
                ("BENCH_EXPORT_OVERHEAD", 0.05),
                ("BENCH_FACADE_OVERHEAD", 0.10),
            ]
        );
    }

    #[test]
    fn gbps_floor_tracks_the_committed_baseline() {
        // Fresh at 0.8 Gb/s against a 1.0 Gb/s baseline: floor is 0.75, ok.
        let (fresh, floor, under) = gbps_floor_verdict(Some(0.8), Some(1.0), 0.75, None).unwrap();
        assert!((fresh - 0.8).abs() < 1e-12 && (floor - 0.75).abs() < 1e-12);
        assert!(!under);
        // Fresh at 0.5 Gb/s: under the floor, must fail.
        assert!(
            gbps_floor_verdict(Some(0.5), Some(1.0), 0.75, None)
                .unwrap()
                .2
        );
        // An explicit override wins over the baseline-derived floor.
        let (_, floor, under) = gbps_floor_verdict(Some(0.7), Some(1.0), 0.75, Some(0.6)).unwrap();
        assert!((floor - 0.6).abs() < 1e-12 && !under);
        // No fresh measurement (filtered run) or no baseline gbps: no verdict.
        assert!(gbps_floor_verdict(None, Some(1.0), 0.75, None).is_none());
        assert!(gbps_floor_verdict(Some(0.8), None, 0.75, None).is_none());
        // ... unless the override supplies the floor without a baseline.
        assert!(
            gbps_floor_verdict(Some(0.8), None, 0.75, Some(0.9))
                .unwrap()
                .2
        );
    }

    #[test]
    fn gbps_is_extracted_from_the_named_entry_only() {
        let text = r#"{
  "results": [
    {"name":"other","ns_per_iter":10.0,"samples":10,"gbps":99.0},
    {"name":"generate_bytes_64KiB","ns_per_iter":650004.0,"samples":10,"bits_per_iter":524288,"gbps":0.8066}
  ]
}"#;
        assert!((gbps_of(text, GBPS_GATED_BENCH).unwrap() - 0.8066).abs() < 1e-12);
        assert!(gbps_of(text, "missing").is_none());
        // An entry without a gbps field yields no measurement.
        assert!(gbps_of(
            "{\"name\":\"generate_bytes_64KiB\",\"ns_per_iter\":1.0}",
            GBPS_GATED_BENCH
        )
        .is_none());
    }

    #[test]
    fn benchmarks_missing_from_either_side_are_ignored_in_ratios() {
        let base = results(&[("a", 100.0), ("gone", 50.0)]);
        let fresh = results(&[("a", 110.0), ("new", 10.0)]);
        let (rows, _) = verdicts(&fresh, &base, 0.25, DEFAULT_ABS_RATIO_BOUND);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "a");
        assert!(!rows[0].2);
    }
}
