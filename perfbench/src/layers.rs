//! Per-layer measurements, taken from outside through each layer's public
//! functions, and the waterfall that compares their sum with the
//! end-to-end cost of a request.

use crate::median_of;
use crate::workloads::{drange_backend, module, Outcome, Phase, Workload};
use qt_crypto::{digest_many_into, Sha256Digest, BATCH_LANES, DIGEST_BITS};
use qt_dram_analog::{BitSlicedSampler, NoiseRng, QuacAnalogModel};
use qt_dram_core::{BitVec, CACHE_BLOCK_BITS};
use qt_nist_sts::WindowedBattery;
use qt_rng_service::mixer::{mix, source_len};
use qt_rng_service::{ClientId, Completion, Trng128, Trng32};
use quac_trng::pipeline::QuacTrng;
use quac_trng::{BackendKind, ModuleCharacterization};
use std::hint::black_box;
use std::time::Instant;

/// Window length the service validates with.
const WINDOW_BITS: usize = 50_000;
/// Bytes generated per repetition of the fill measurements.
const FILL_BYTES: usize = 1 << 20;

/// Time per unit of work of one call to `f` (which returns its units), ns.
fn ns_per_unit(f: &mut dyn FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let units = f();
    start.elapsed().as_nanos() as f64 / units
}

/// Layer costs timed from outside through each layer's public functions,
/// medians over the rounds of a traced run.
pub struct Timings {
    pub sample_ns_per_iter: f64,
    pub sha_ns_per_digest: f64,
    pub sha_input_bytes_per_output_byte: f64,
    pub digests_per_iteration: f64,
    pub fill_ns_per_kib: f64,
    pub iterations_per_mib: f64,
    pub drange_fill_ns_per_kib: f64,
    pub contract_ns: f64,
    pub mix_ns_per_kib: f64,
    pub window_ms: f64,
}

/// Per-layer figures of one run: the layer timings plus what the traced
/// slices and the service's counters show.
pub struct Layers<'a> {
    pub timings: &'a Timings,
    pub characterize_s: f64,
    pub submit_ns: f64,
    pub wait_us: f64,
    pub overhead_us: f64,
    pub tap_coverage: f64,
    pub windows_per_s: f64,
    pub windows_failed_share: f64,
}

/// Times every layer for `workload`. `drive` runs the workload and calls
/// the round function it is given whenever the service is idle; each call
/// times every layer once, and the medians over the rounds are reported.
/// Spreading the rounds over the run lets them see the same host speeds
/// as the traced slices they are compared with in the waterfall.
pub fn time_layers(
    workload: Workload,
    seed: u64,
    model: &QuacAnalogModel,
    ch: &ModuleCharacterization,
    drive: impl FnOnce(&mut dyn FnMut()),
) -> Timings {
    // dram_analog: the workload's sampler, built as the pipeline builds it.
    let probabilities = model.bitline_probabilities(ch.best_segment, ch.pattern, ch.conditions);
    let sampler = BitSlicedSampler::new(&probabilities);
    let mut compact = BitVec::zeros(sampler.metastable_bits());
    let mut noise = NoiseRng::new(seed);
    let mut sample = || {
        for _ in 0..256 {
            sampler.sample_compact_into(&mut compact, &mut noise);
            black_box(&compact);
        }
        256.0
    };

    // crypto: one batch of the pipeline's compact message shapes — each
    // 256-bit-entropy block range projected onto metastable lanes.
    let mut ranges: Vec<(usize, usize)> = ch
        .entropy_block_ranges()
        .iter()
        .map(|&(s, e)| sampler.lane_range(s * CACHE_BLOCK_BITS, e * CACHE_BLOCK_BITS))
        .collect();
    if ranges.is_empty() {
        ranges.push((0, sampler.metastable_bits()));
    }
    let mut twin = QuacTrng::shards(model, ch, seed ^ 0x5EED, 1)
        .pop()
        .expect("one twin shard");
    let content = twin.generate_bytes(sampler.metastable_bits().div_ceil(8));
    let one_iteration: Vec<Vec<u8>> = ranges
        .iter()
        .map(|&(s, e)| content[s / 8..s / 8 + (e - s).div_ceil(8)].to_vec())
        .collect();
    let message_bytes: usize = one_iteration.iter().map(Vec::len).sum();
    let digests_per_iteration = one_iteration.len() as f64;
    let sha_input_bytes_per_output_byte =
        message_bytes as f64 / (one_iteration.len() * DIGEST_BITS / 8) as f64;
    let messages: Vec<&[u8]> = (0..BATCH_LANES)
        .flat_map(|_| one_iteration.iter().map(Vec::as_slice))
        .collect();
    let mut digests: Vec<Sha256Digest> = Vec::new();
    let mut sha = || {
        for _ in 0..16 {
            digest_many_into(black_box(&messages), &mut digests);
            black_box(&digests);
        }
        (16 * messages.len()) as f64
    };

    // quac_trng: fill_bytes at the request sizes the worker serves.
    let sizes = workload.request_sizes();
    let fill_sizes: Vec<usize> = match workload {
        // A mixed request draws `source_len` bytes from each source.
        Workload::Validated => vec![sizes[0], source_len(sizes[0])],
        _ => sizes.to_vec(),
    };
    let source = source_len(Workload::Validated.request_sizes()[0]);
    let mix_a = twin.generate_bytes(source);
    let mix_b = twin.generate_bytes(source);
    let window = twin.generate_bytes(WINDOW_BITS / 8);
    let mut buf = vec![0u8; *fill_sizes.iter().max().expect("sizes")];
    let mut fill_once = |trng: &mut QuacTrng| {
        let mut done = 0;
        let mut i = 0;
        while done < FILL_BYTES {
            let len = fill_sizes[i % fill_sizes.len()];
            trng.fill_bytes(&mut buf[..len]);
            done += len;
            i += 1;
        }
        done
    };
    let iterations_before = twin.iterations();
    let filled = fill_once(&mut twin);
    let iterations_per_mib =
        (twin.iterations() - iterations_before) as f64 * (1 << 20) as f64 / filled as f64;
    let mut fill = || fill_once(&mut twin) as f64 / 1024.0;

    // baselines: D-RaNGe fill in the mixed request's source size.
    let mut drange = drange_backend(module(), seed);
    let mut dbuf = vec![0u8; source];
    let mut drange_fill = || {
        for _ in 0..32 {
            drange.fill_bytes(&mut dbuf);
            black_box(&dbuf);
        }
        (32 * source) as f64 / 1024.0
    };

    // rng_service: the contract and mixer functions called directly.
    let completions: Vec<Completion> = (0..64u64)
        .map(|i| Completion {
            client: ClientId(0),
            seq: i,
            shard: 0,
            epoch: 0,
            stream_offset: i * 16,
            fresh_bits: 1024,
            backend: BackendKind::Quac,
            bytes: content[i as usize..i as usize + 16].to_vec(),
        })
        .collect();
    let mut contract = || {
        for c in &completions {
            black_box(Trng32::from_completion(black_box(c)).is_ok());
            black_box(Trng128::from_completion(black_box(c)).is_ok());
        }
        (2 * completions.len()) as f64
    };
    let mut mixer = || {
        for _ in 0..16 {
            black_box(mix(black_box(&mix_a), black_box(&mix_b)));
        }
        (16 * source / 2) as f64 / 1024.0
    };

    // nist_sts: the windowed battery on 50 kb windows of generator output.
    let mut battery = WindowedBattery::new(WINDOW_BITS);
    let mut grade = || {
        let mut windows = 0;
        battery.push(&window, |report| {
            black_box(report);
            windows += 1;
        });
        windows as f64
    };

    let mut rounds: [Vec<f64>; 7] = Default::default();
    drive(&mut || {
        let round: [&mut dyn FnMut() -> f64; 7] = [
            &mut sample,
            &mut sha,
            &mut fill,
            &mut drange_fill,
            &mut contract,
            &mut mixer,
            &mut grade,
        ];
        for (samples, f) in rounds.iter_mut().zip(round) {
            samples.push(ns_per_unit(f));
        }
    });
    let [sample_ns_per_iter, sha_ns_per_digest, fill_ns_per_kib, drange_fill_ns_per_kib, contract_ns, mix_ns_per_kib, window_ns] =
        rounds.map(|samples| median_of(&samples));
    Timings {
        sample_ns_per_iter,
        sha_ns_per_digest,
        sha_input_bytes_per_output_byte,
        digests_per_iteration,
        fill_ns_per_kib,
        iterations_per_mib,
        drange_fill_ns_per_kib,
        contract_ns,
        mix_ns_per_kib,
        window_ms: window_ns / 1e6,
    }
}

/// Combines the layer timings with the traced slices' spans and the
/// service's validation counters.
pub fn measure<'a>(timings: &'a Timings, outcome: &Outcome, traced: &Phase) -> Layers<'a> {
    // rng_service: the benchmark's own spans around its calls.
    let submit_ns = traced.spans.submit.mean_ns();
    let wait_us = traced.spans.wait.mean_ns() / 1e3;
    let mean_request = traced.bytes as f64 / traced.requests.max(1) as f64;
    let overhead_us = wait_us - timings.fill_ns_per_kib * mean_request / 1024.0 / 1e3;
    Layers {
        timings,
        characterize_s: median_of(&outcome.characterize_s),
        submit_ns,
        wait_us,
        overhead_us,
        tap_coverage: traced.bytes_tapped as f64 / traced.served_bytes.max(1) as f64,
        windows_per_s: traced.windows_validated as f64 / traced.elapsed_s,
        windows_failed_share: traced.windows_failed as f64 / traced.windows_validated.max(1) as f64,
    }
}

/// The cost of one request split into layer stages, µs.
pub struct Waterfall {
    /// End-to-end wall time per request in the traced phase.
    pub end_to_end_us: f64,
    /// `(stage, µs per request)`.
    pub stages: Vec<(&'static str, f64)>,
}

impl Waterfall {
    /// Sum of the stage costs.
    pub fn stages_us(&self) -> f64 {
        self.stages.iter().map(|s| s.1).sum()
    }

    /// What no stage accounts for; negative when stages on different
    /// threads overlap.
    pub fn remainder_us(&self) -> f64 {
        self.end_to_end_us - self.stages_us()
    }
}

/// Builds the waterfall of one request of `workload` from the per-layer
/// figures and the traced phase.
pub fn waterfall(workload: Workload, layers: &Layers, traced: &Phase) -> Waterfall {
    let t = layers.timings;
    let requests = traced.requests.max(1) as f64;
    let end_to_end_us = traced.elapsed_s * 1e6 / requests;
    let kib = |bytes: f64| bytes / 1024.0;
    let mean_request = traced.bytes as f64 / requests;
    let mut stages = Vec::new();
    // Bytes each backend generates per request. In `validated` every
    // second request is mixed and draws a source of twice its length from
    // both QUAC and D-RaNGe; the others draw the request from QUAC.
    let (quac_bytes, drange_bytes) = match workload {
        Workload::Validated => {
            let source = source_len(Workload::Validated.request_sizes()[0]) as f64;
            ((mean_request + source) / 2.0, source / 2.0)
        }
        _ => (mean_request, 0.0),
    };
    let iterations = t.iterations_per_mib * quac_bytes / (1 << 20) as f64;
    let sample_us = iterations * t.sample_ns_per_iter / 1e3;
    let sha_us = iterations * t.digests_per_iteration * t.sha_ns_per_digest / 1e3;
    let fill_us = t.fill_ns_per_kib * kib(quac_bytes) / 1e3;
    stages.push(("dram_analog.sample", sample_us));
    stages.push(("crypto.sha256", sha_us));
    stages.push(("quac_trng.pack_deliver", fill_us - sample_us - sha_us));
    stages.push(("rng_service.submit", layers.submit_ns / 1e3));
    // The in-loop check span: frame construction for `frames`, the
    // sampled `mix_reference` recomputation for `validated`.
    let check_us = traced.spans.check.total_ns as f64 / requests / 1e3;
    match workload {
        Workload::Bulk => {}
        Workload::Frames => stages.push(("rng_service.contract", check_us)),
        Workload::Validated => {
            stages.push((
                "baselines.drange_fill",
                t.drange_fill_ns_per_kib * kib(drange_bytes) / 1e3,
            ));
            stages.push((
                "rng_service.mix",
                t.mix_ns_per_kib * kib(mean_request) / 2.0 / 1e3,
            ));
            let graded_bits = (quac_bytes + drange_bytes) * 8.0;
            stages.push((
                "nist_sts.battery",
                graded_bits / WINDOW_BITS as f64 * t.window_ms * 1e3,
            ));
            stages.push(("benchmark.mix_reference_check", check_us));
        }
    }
    Waterfall {
        end_to_end_us,
        stages,
    }
}
