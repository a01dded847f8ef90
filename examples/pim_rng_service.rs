//! The paper's system scenario as a running service: a memory controller
//! answers random-number requests from several applications while regular
//! memory traffic runs, stealing only idle DRAM cycles (Sections 3, 7.3, 9).
//!
//! Four concurrent clients submit requests to a [`RngService`] sharded over
//! two channels of (a simulation of) module M1. The service batches small
//! reads into whole QUAC iterations, applies backpressure through an
//! in-flight byte budget, and — in the paced runs — throttles each channel
//! to the random-byte rate its idle cycles can sustain under a co-running
//! SPEC2006 workload.
//!
//! The burst run's output is then validated *inline* with the full NIST
//! SP 800-22 battery (the paper's α = 0.001, Section 6.2): shard 0's
//! channel stream is reassembled from the completions' provenance and run
//! through all 15 tests. The word-parallel battery runs ~19× faster than
//! the bit-at-a-time one, so "validate what we serve" fits in the serving
//! loop instead of being an offline step (the DR-STRaNGe system argument).
//!
//! Run with: `cargo run --release --example pim_rng_service`

use quac_trng_repro::dram_analog::PAPER_MODULES;
use quac_trng_repro::dram_core::{BitVec, DataPattern, TransferRate};
use quac_trng_repro::memctrl::system::{idle_injection_throughput_gbps, MemorySystem, MemorySystemConfig};
use quac_trng_repro::memctrl::IdleBudget;
use quac_trng_repro::nist_sts::{run_all_tests, Significance};
use quac_trng_repro::rng_service::{
    ClientId, Priority, RngService, RngServiceConfig, ServiceStats, ValidationConfig,
};
use quac_trng_repro::trng::characterize::CharacterizationConfig;
use quac_trng_repro::trng::pipeline::QuacTrng;
use quac_trng_repro::trng::throughput::ThroughputModel;
use quac_trng_repro::trng::CharacterizationCache;
use quac_trng_repro::workloads::{TraceGenerator, SPEC2006_WORKLOADS};
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 2;
const CLIENTS: u32 = 4;
const REQUESTS_PER_CLIENT: usize = 16;
const REQUEST_BYTES: usize = 16 << 10;
const INJECTION_EFFICIENCY: f64 = 0.95;
/// How much of the delivered stream the inline battery validates — the
/// paper's per-sequence length (1 Mb, Section 6.2).
const VALIDATED_BITS: usize = 1_000_000;

/// Drives `CLIENTS` concurrent client threads through the service and
/// returns the aggregate delivered rate in Gb/s (of simulation wall-clock —
/// the simulated electrical model generates far slower than real DRAM, so
/// rates are meaningful relative to each other, not to the paper's 3.44)
/// plus every completion's `(shard, stream_offset, bytes)` provenance.
fn drive_clients(service: &Arc<RngService>) -> (f64, Vec<(usize, u64, Vec<u8>)>) {
    let started = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let service = Arc::clone(service);
            std::thread::spawn(move || {
                let mut delivered = Vec::with_capacity(REQUESTS_PER_CLIENT);
                for i in 0..REQUESTS_PER_CLIENT {
                    // One client mixes priorities, the rest are bulk readers.
                    let priority =
                        if client == 0 && i % 4 == 0 { Priority::High } else { Priority::Normal };
                    let ticket = service
                        .submit(ClientId(client), priority, REQUEST_BYTES)
                        .expect("request admitted");
                    let completion = ticket.wait().expect("request served");
                    assert_eq!(completion.bytes.len(), REQUEST_BYTES);
                    delivered.push((completion.shard, completion.stream_offset, completion.bytes));
                }
                delivered
            })
        })
        .collect();
    let mut chunks = Vec::new();
    for h in handles {
        chunks.extend(h.join().expect("client thread"));
    }
    let total: usize = chunks.iter().map(|(_, _, b)| b.len()).sum();
    let rate = total as f64 * 8.0 / 1e9 / started.elapsed().as_secs_f64();
    (rate, chunks)
}

/// Validates served output inline: reassembles shard 0's output stream from
/// the completions' `(shard, stream_offset)` provenance — *which* client got
/// which chunk is scheduling-dependent, but a shard's stream content is
/// deterministic (the service's serial-equivalence tests pin this) — and
/// runs the first `VALIDATED_BITS` of it through the full 15-test battery
/// at the paper's α = 0.001. Prints a one-line verdict per failing test
/// (none can occur: the stream is identical on every run and passes).
fn validate_served_stream(chunks: &[(usize, u64, Vec<u8>)]) {
    let mut shard0: Vec<(u64, &[u8])> =
        chunks.iter().filter(|(s, _, _)| *s == 0).map(|(_, o, b)| (*o, b.as_slice())).collect();
    shard0.sort_by_key(|(offset, _)| *offset);
    let mut bytes = Vec::new();
    for (offset, chunk) in shard0 {
        assert_eq!(offset as usize, bytes.len(), "shard stream must be gapless");
        bytes.extend_from_slice(chunk);
    }
    let n = VALIDATED_BITS.min(bytes.len() * 8);
    let started = Instant::now();
    let stream = BitVec::from_bytes(&bytes, n);
    let results = run_all_tests(&stream);
    let alpha = Significance::PAPER;
    let passed = results.iter().filter(|r| r.passes(alpha)).count();
    println!(
        "  inline NIST SP 800-22 on shard 0's stream: {passed}/{} tests pass on the \
         first {:.1} Mb (alpha = {}, {:.0} ms)",
        results.len(),
        n as f64 / 1e6,
        alpha.0,
        started.elapsed().as_secs_f64() * 1e3,
    );
    for r in results.iter().filter(|r| !r.passes(alpha)) {
        println!("    FAILED {}: p = {}", r.name, r.display_p_value());
    }
    assert_eq!(passed, results.len(), "served bits must pass the battery");
}

/// Prints what the in-service validation loop observed during the burst
/// run: window verdicts, tap coverage, per-shard health, and the service's
/// queue-depth/latency histograms.
fn report_continuous_validation(stats: &ServiceStats) {
    let v = &stats.validation;
    println!(
        "  continuous validation: {} windows graded ({} failed), {} KiB tapped, {} KiB skipped",
        v.windows_validated,
        v.windows_failed,
        v.bytes_tapped >> 10,
        v.bytes_dropped >> 10,
    );
    for (shard, health) in stats.shard_health.iter().enumerate() {
        println!(
            "  shard {shard} health: {:?}, pass EWMA {:.3}, {} quarantines, {} readmissions",
            health.state, health.pass_ewma, health.quarantines, health.readmissions
        );
    }
    println!(
        "  latency p50 <= {} us, p99 <= {} us, max {} us; queue depth p99 <= {} requests",
        stats.latency_us.quantile_upper_bound(0.5),
        stats.latency_us.quantile_upper_bound(0.99),
        stats.latency_us.max(),
        stats.queue_depth.quantile_upper_bound(0.99),
    );
}

fn main() {
    // One-time characterisation of M1, shared by both shards (and cached in
    // .quac-cache/ across runs, like the figure binaries).
    let module = &PAPER_MODULES[0];
    let model = module.analog_model();
    let cfg = CharacterizationConfig::fast();
    let ch = CharacterizationCache::load_or_characterize_env(
        module.name,
        &model,
        DataPattern::best_average(),
        &cfg,
    );

    // The hardware-model peak: what a real channel would sustain (Figure 11).
    let hw_peak =
        ThroughputModel::new(module.geometry(), ch.best_segment_entropy)
            .scaled_throughput_gbps(TransferRate::ddr4_2400());
    println!("module {}: best segment entropy {:.0} bits", module.name, ch.best_segment_entropy);
    println!("hardware-model peak per channel (RC+BGP): {hw_peak:.2} Gb/s\n");

    // Burst capacity of the *simulation*: 4 clients, 2 shards, no pacing —
    // with the continuous-validation loop on: each shard's grader thread
    // grades 50 kb windows of its served bytes off the delivery path and
    // would quarantine the shard if its health crossed the failure bounds.
    let service_cfg = RngServiceConfig {
        max_inflight_bytes: 1 << 20,
        max_batch_bytes: 64 << 10,
        validation: ValidationConfig::enabled(),
        ..RngServiceConfig::default()
    };
    let service =
        Arc::new(RngService::start(QuacTrng::shards(&model, &ch, 2024, SHARDS), service_cfg));
    let (sim_peak, delivered_chunks) = drive_clients(&service);
    let stats = Arc::try_unwrap(service).expect("clients joined").shutdown();
    println!(
        "burst (no pacing): {CLIENTS} clients x {REQUESTS_PER_CLIENT} x {} KiB over {SHARDS} shards",
        REQUEST_BYTES >> 10
    );
    println!(
        "  delivered {sim_peak:.3} Gb/s (simulation); peak in-flight {} KiB of {} KiB budget",
        stats.peak_in_flight_bytes >> 10,
        service_cfg.max_inflight_bytes >> 10,
    );
    for (shard, bytes) in stats.per_shard_bytes.iter().enumerate() {
        println!("  shard {shard}: {} KiB delivered", bytes >> 10);
    }
    report_continuous_validation(&stats);
    validate_served_stream(&delivered_chunks);
    // `QUAC_METRICS=1` dumps the burst run's final snapshot in Prometheus
    // text exposition — what a scrape of the service would return
    // (`just metrics-demo`).
    if std::env::var_os("QUAC_METRICS").is_some_and(|v| v != "0") {
        println!("\n--- metrics export (Prometheus text) ---");
        print!("{}", quac_trng_repro::rng_service::export::prometheus_text(&stats));
        println!("--- end metrics export ---");
    }

    // Idle-cycle budgets under SPEC2006 traffic (Figure 12's model), then the
    // same budgets applied to the service — scaled into simulation time so
    // the pacing ratio matches what the hardware would see.
    let sys_cfg = MemorySystemConfig::paper_system();
    println!("\nworkload     idle%   hw TRNG Gb/s   paced sim Gb/s (predicted)");
    for w in SPEC2006_WORKLOADS.iter().filter(|w| ["mcf", "namd", "gcc"].contains(&w.name)) {
        let trace = TraceGenerator::new(w.clone(), sys_cfg.geom, 7).generate_for_cycles(300_000);
        let report = MemorySystem::new(sys_cfg).run_trace(&trace, 300_000);
        let hw_budget = idle_injection_throughput_gbps(&report, hw_peak, INJECTION_EFFICIENCY);
        // Scale the idle fraction onto the simulation's own peak rate.
        let sim_budget = report.idle_fraction() * sim_peak * INJECTION_EFFICIENCY;
        let paced_cfg = RngServiceConfig {
            // Per-shard budget: the service shares the channel budget evenly.
            pacing: IdleBudget::from_gbps(sim_budget / SHARDS as f64),
            ..service_cfg
        };
        let service =
            Arc::new(RngService::start(QuacTrng::shards(&model, &ch, 2024, SHARDS), paced_cfg));
        let (delivered, _) = drive_clients(&service);
        Arc::try_unwrap(service).expect("clients joined").shutdown();
        println!(
            "{:<12}{:>6.1}{:>13.2}{:>11.3} ({:.3})",
            w.name,
            report.idle_fraction() * 100.0,
            hw_budget,
            delivered,
            sim_budget,
        );
    }

    let costs = quac_trng_repro::trng::integration::integration_costs(&module.geometry());
    println!(
        "\nintegration cost: {} KiB of reserved DRAM, {} bits of controller state, {:.4} mm^2",
        costs.reserved_bytes / 1024,
        costs.controller_storage_bits,
        costs.controller_area_mm2
    );
}
