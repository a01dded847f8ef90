//! End-to-end benchmark of the QUAC-TRNG reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bulk|frames|validated --seed N --seconds S --trace 0|1
//! ```
//!
//! Each invocation runs one workload in its own process. The last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics and the waterfall with `--trace 1`. Lines before it are a human
//! summary. The exit code is 1 when any output check failed. See
//! `perfbench/README.md` for the workloads and what each metric should move.
//!
//! `--probe 1` is the set-up probe the benchmark spawns to time each set-up
//! in a fresh process; it prints two status lines and no metrics.

mod hist;
mod layers;
mod workloads;

use quac_trng::ThroughputModel;
use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::{module, Outcome, Phase, Workload};

/// Median of a non-empty sample.
pub fn median_of(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if seconds < 2 {
                    return Err("--seconds must be at least 2".into());
                }
            }
            "--trace" | "--probe" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("{flag} takes 0 or 1, got {value}")),
                };
                if flag == "--trace" {
                    trace = on;
                } else {
                    probe = on;
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        probe,
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may run from an exported tree that has none.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown (no .git)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn end_to_end(outcome: &Outcome, phase: &Phase) -> Vec<Metric> {
    vec![
        metric("setup_s", median_of(&outcome.setup_s), "s"),
        metric(
            "throughput_gbps",
            phase.bytes as f64 * 8.0 / phase.elapsed_s / 1e9,
            "Gb/s",
        ),
        metric(
            "requests_per_s",
            phase.requests as f64 / phase.elapsed_s,
            "1/s",
        ),
        metric("latency_p50_us", phase.sliced_p50_ns() / 1e3, "us"),
        metric("peak_rss_mib", outcome.peak_rss_mib, "MiB"),
    ]
}

fn per_layer(
    args: &Args,
    outcome: &Outcome,
    untraced: &Phase,
    traced: &Phase,
    out: &mut String,
) -> Vec<Metric> {
    let timings = outcome
        .timings
        .as_ref()
        .expect("a traced run times the layers");
    let l = layers::measure(timings, outcome, traced);
    let t = l.timings;
    let w = layers::waterfall(args.workload, &l, traced);
    let untraced_us = untraced.elapsed_s * 1e6 / untraced.requests.max(1) as f64;
    let overhead = w.end_to_end_us / untraced_us - 1.0;
    let _ = writeln!(
        out,
        "# waterfall ({}), µs per request:",
        args.workload.name()
    );
    let _ = writeln!(
        out,
        "#   end to end (traced)      {:>12.3}",
        w.end_to_end_us
    );
    for (stage, us) in &w.stages {
        let _ = writeln!(out, "#   {stage:<28} {us:>12.3}");
    }
    let _ = writeln!(out, "#   sum of stages            {:>12.3}", w.stages_us());
    let _ = writeln!(
        out,
        "#   remainder                {:>12.3}  ({:+.1}% of end to end)",
        w.remainder_us(),
        100.0 * w.remainder_us() / w.end_to_end_us
    );
    let _ = writeln!(
        out,
        "#   tracing overhead: {:.3} µs traced vs {:.3} µs untraced per request ({:+.1}%), over alternating slices",
        w.end_to_end_us,
        untraced_us,
        100.0 * overhead
    );
    vec![
        metric("quac_trng.characterize_s", l.characterize_s, "s"),
        metric("dram_analog.sample_ns_per_iter", t.sample_ns_per_iter, "ns"),
        metric("crypto.sha_ns_per_digest", t.sha_ns_per_digest, "ns"),
        metric(
            "crypto.sha_input_bytes_per_output_byte",
            t.sha_input_bytes_per_output_byte,
            "ratio",
        ),
        metric("quac_trng.fill_ns_per_kib", t.fill_ns_per_kib, "ns"),
        metric(
            "quac_trng.iterations_per_mib",
            t.iterations_per_mib,
            "count",
        ),
        metric(
            "baselines.drange_fill_ns_per_kib",
            t.drange_fill_ns_per_kib,
            "ns",
        ),
        metric("rng_service.submit_ns", l.submit_ns, "ns"),
        metric("rng_service.wait_us", l.wait_us, "us"),
        metric("rng_service.overhead_us", l.overhead_us, "us"),
        metric("rng_service.contract_ns", t.contract_ns, "ns"),
        metric("rng_service.mix_ns_per_kib", t.mix_ns_per_kib, "ns"),
        metric("rng_service.tap_coverage", l.tap_coverage, "ratio"),
        metric(
            "rng_service.quarantines",
            outcome.quarantines as f64,
            "count",
        ),
        metric("nist_sts.window_ms", t.window_ms, "ms"),
        metric("nist_sts.windows_per_s", l.windows_per_s, "1/s"),
        metric(
            "nist_sts.windows_failed_share",
            l.windows_failed_share,
            "ratio",
        ),
        metric("waterfall.end_to_end_us", w.end_to_end_us, "us"),
        metric("waterfall.stages_us", w.stages_us(), "us"),
        metric(
            "waterfall.remainder_share",
            w.remainder_us() / w.end_to_end_us,
            "ratio",
        ),
        metric("trace.overhead_share", overhead, "ratio"),
    ]
}

fn json_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    let correct = outcome.failed == 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    json
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: qt_perfbench --workload bulk|frames|validated --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if args.probe {
        let served = workloads::probe(args.workload, args.seed);
        return if served {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }
    let outcome = workloads::run(args.workload, args.seed, args.seconds, args.trace);

    let mut out = String::new();
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let _ = writeln!(
        out,
        "# env: workload={} seed={} seconds={} trace={} nproc={threads} cpu=\"{}\" rev={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cpu_model(),
        git_revision()
    );
    let _ = writeln!(
        out,
        "# set-up from process start, {} fresh processes: median {:.6} s, range {:.6}..{:.6} s",
        outcome.setup_s.len(),
        median_of(&outcome.setup_s),
        outcome
            .setup_s
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min),
        outcome.setup_s.iter().copied().fold(0.0, f64::max)
    );
    let untraced = &outcome.phases[0];
    let _ = writeln!(
        out,
        "# untraced phase: {} requests in {:.3} s",
        untraced.requests, untraced.elapsed_s
    );
    for q in [0.5, 0.9, 0.99, 0.999] {
        let _ = writeln!(
            out,
            "#   latency q{q}: {:.3} us ({} samples beyond)",
            untraced.latency.quantile(q) / 1e3,
            untraced.latency.beyond(q)
        );
    }
    let _ = writeln!(
        out,
        "#   latency q0.5, mean over {} one-second slices: {:.3} us",
        untraced.slice_p50_ns.len(),
        untraced.sliced_p50_ns() / 1e3
    );
    if args.workload == Workload::Bulk {
        let model = ThroughputModel::new(
            module().geometry(),
            outcome.characterization.best_segment_entropy,
        );
        let rc_bgp = &model.figure11()[2];
        let _ = writeln!(
            out,
            "# bulk host-time {:.4} Gb/s on one core; modelled (simulated DDR4-2400 {}) {:.3} Gb/s per channel",
            untraced.bytes as f64 * 8.0 / untraced.elapsed_s / 1e9,
            rc_bgp.name,
            rc_bgp.throughput_gbps
        );
    }
    if args.workload == Workload::Validated {
        let _ = writeln!(
            out,
            "# health: {} quarantines with the default policy; {} mixed requests served plain while one backend kind was out of placement",
            outcome.quarantines, outcome.mixed_fallbacks
        );
    }
    for check in &outcome.checks {
        let verdict = if check.ok { "ok" } else { "FAILED" };
        let _ = writeln!(out, "# check {}: {verdict}", check.name);
    }
    let metrics = if args.trace {
        per_layer(&args, &outcome, untraced, &outcome.phases[1], &mut out)
    } else {
        end_to_end(&outcome, untraced)
    };
    for m in &metrics {
        let _ = writeln!(out, "# {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    print!("{out}");
    println!("{}", json_line(&outcome, &metrics));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
