//! Golden-stream regression tests: SHA-256 digests of the generator's
//! output, pinned for fixed `(module, noise seed)` pairs.
//!
//! The generator's byte stream is a versioned contract: replay determinism
//! across machines and releases is what makes the sharded service's
//! validation and fault attribution reproducible. These digests pin the
//! stream produced by the bit-sliced sampling + batched-SHA pipeline; any
//! change to noise consumption order, lane packing, or digest batching shows
//! up here as a one-line diff. The D-RaNGe and retention baseline backends
//! are pinned the same way (first 64 KiB through both the hot path and the
//! scalar reference fill, plus the f64 bits of their advertised class),
//! which also pins the scans that choose their rows. If a stream change is
//! *intentional* (it is a breaking change — say so in the changelog),
//! regenerate the constants by hashing the first MiB / 64 KiB per
//! configuration below.

use quac_trng_repro::baselines::{DRangeTrng, RetentionTrng};
use quac_trng_repro::crypto::Sha256;
use quac_trng_repro::dram_analog::{
    FailureModel, ModuleVariation, OperatingConditions, QuacAnalogModel, RetentionModel,
    PAPER_MODULES,
};
use quac_trng_repro::dram_core::{DataPattern, DramGeometry};
use quac_trng_repro::trng::characterize::{characterize_module, CharacterizationConfig};
use quac_trng_repro::trng::pipeline::QuacTrng;
use quac_trng_repro::trng::{BackendClass, EntropyBackend};

fn hex(digest: &[u8]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

fn tiny_cfg() -> CharacterizationConfig {
    CharacterizationConfig {
        segment_stride: 1,
        bitline_stride: 1,
        conditions: OperatingConditions::nominal(),
    }
}

fn tiny_trng(variation_seed: u64, noise_seed: u64) -> QuacTrng {
    let geom = DramGeometry::tiny_test();
    let model = QuacAnalogModel::new(geom, ModuleVariation::generate(&geom, variation_seed));
    QuacTrng::from_model(model, tiny_cfg(), noise_seed)
}

/// Hashes the first `len` bytes of the generator's stream.
fn stream_digest(trng: &mut QuacTrng, len: usize) -> String {
    hex(&Sha256::digest(&trng.generate_bytes(len)))
}

const MIB: usize = 1 << 20;

#[test]
fn golden_first_mib_tiny_module_seed_13() {
    let mut t = tiny_trng(8, 13);
    assert_eq!(
        stream_digest(&mut t, MIB),
        "4d4bd08a8eab937f40f5e1f0292f035a4510eb84102fb0b9dfb663f3391bb4b4",
    );
}

#[test]
fn golden_first_mib_tiny_module_seed_99() {
    let mut t = tiny_trng(21, 99);
    assert_eq!(
        stream_digest(&mut t, MIB),
        "baae97ad5eb63e82e69ed0a06a1b6d9ecb774f373fc9119a896a952fe56ffd51",
    );
}

#[test]
fn golden_first_mib_paper_module_m1() {
    let mut t = QuacTrng::for_module(&PAPER_MODULES[0], 3);
    assert_eq!(
        stream_digest(&mut t, MIB),
        "4ea30f017fdcbdf64ab16a2217418b8eb3b31dee44eaf4d12c23dabd14c67224",
    );
}

#[test]
fn golden_first_mib_paper_module_m2() {
    let mut t = QuacTrng::for_module(&PAPER_MODULES[1], 7);
    assert_eq!(
        stream_digest(&mut t, MIB),
        "8d6d54757b3d7151c5a1a41511f3fab41bdfdf81d2fa58e76758e5113264766f",
    );
}

#[test]
fn golden_per_shard_service_streams() {
    // The sharded service serves each client from one shard; shard streams
    // are a pure function of (module, base_seed, shard index). 64 KiB each.
    let geom = DramGeometry::tiny_test();
    let model = QuacAnalogModel::new(geom, ModuleVariation::generate(&geom, 8));
    let ch = characterize_module(&model, DataPattern::best_average(), &tiny_cfg());
    let shards = QuacTrng::shards(&model, &ch, 7, 4);
    let expected = [
        "867ca881869d7be1e2da484782f1d9f7b3276e0fdbade63b20fbcf1c8e59c039",
        "36c514469d3e27fd42770ac2ddb733e0f98ff1c892738b616d32016469753e88",
        "bd8e8c19734ef665b5a9d55df613c93852aef706ef1d8f4588e496d6b2c08ea2",
        "40a58d0f176d96a65665e7f9735fd01c4ec49ef0c3f55b7f4fc320838b0ce2b0",
    ];
    for (i, mut shard) in shards.into_iter().enumerate() {
        assert_eq!(stream_digest(&mut shard, 64 << 10), expected[i], "shard {i}");
    }
}

#[test]
fn golden_streams_are_identical_through_the_reference_fill_path() {
    // The batched hot path and the frozen scalar twin must both reproduce
    // the pinned stream (the digests above pin the *contract*, not one
    // implementation).
    let mut reference = tiny_trng(8, 13);
    let mut bytes = vec![0u8; 64 << 10];
    reference.fill_bytes_reference(&mut bytes);
    let mut fast = tiny_trng(8, 13);
    assert_eq!(fast.generate_bytes(64 << 10), bytes);
}

// ---- baseline generators (the D-RaNGe and retention tiers of the mesh) ----

/// Hashes the first 64 KiB of a baseline backend's stream, asserting that
/// `twin`, built the same way, emits the same bytes through its scalar
/// `reference` fill.
fn backend_digest<B: EntropyBackend>(
    backend: &mut B,
    twin: &mut B,
    reference: fn(&mut B, &mut [u8]),
) -> String {
    let mut hot = vec![0u8; 64 << 10];
    backend.fill_bytes(&mut hot);
    let mut scalar = vec![0u8; 64 << 10];
    reference(twin, &mut scalar);
    assert!(hot == scalar, "the reference fill diverges from the hot path");
    hex(&Sha256::digest(&hot))
}

/// The advertised class, as the raw bits of its two figures.
fn class_bits(class: BackendClass) -> (u64, u64) {
    (class.throughput_gbps.to_bits(), class.latency_256bit_ns.to_bits())
}

#[test]
fn golden_drange_tiny_module() {
    let geom = DramGeometry::tiny_test();
    let failures = FailureModel::new(ModuleVariation::generate(&geom, 8));
    let build = || DRangeTrng::new(&failures, &geom, 0xD7A6);
    let mut d = build();
    assert_eq!(class_bits(d.class()), (4613536615873793604, 4633491325566898022));
    assert_eq!(
        backend_digest(&mut d, &mut build(), DRangeTrng::fill_bytes_reference),
        "9d9103f9e2298ec95eac273188c59c2ea466c2c7adc5ca9299f5bc9aeabc2d46",
    );
}

#[test]
fn golden_drange_paper_module_m1() {
    let profile = &PAPER_MODULES[0];
    let failures = FailureModel::new(profile.variation());
    let build = || DRangeTrng::new(&failures, &profile.geometry(), 0xD7A6);
    let mut d = build();
    assert_eq!(class_bits(d.class()), (4613075045672173236, 4633491325566898022));
    assert_eq!(
        backend_digest(&mut d, &mut build(), DRangeTrng::fill_bytes_reference),
        "820f8e72d3e2d0ac5da05019bc9dce93bedddbd1e580e542fe0ad842c5b62668",
    );
}

#[test]
fn golden_retention_tiny_module() {
    let geom = DramGeometry::tiny_test();
    let retention = RetentionModel::new(ModuleVariation::generate(&geom, 8));
    let build = || RetentionTrng::new(&retention, &geom, 0x7A1D);
    let mut r = build();
    assert_eq!(r.pause_s().to_bits(), 4655430540549784157);
    assert_eq!(class_bits(r.class()), (4610785298501913804, 4643284915805844576));
    assert_eq!(
        backend_digest(&mut r, &mut build(), RetentionTrng::fill_bytes_reference),
        "871c566994770f528374a3afc853673499f34bbcd7c7a21d327a333c1a2b8a6c",
    );
}

#[test]
fn golden_retention_row_scan() {
    // 4096 rows per bank: eight candidate rows compete for the four burst
    // rows, so the stream pins the row-selection scan, not only the
    // sampling (the tiny geometry has a single candidate row).
    let geom = DramGeometry { subarrays_per_bank: 64, ..DramGeometry::tiny_test() };
    let retention = RetentionModel::new(ModuleVariation::generate(&geom, 8));
    let build = || RetentionTrng::new(&retention, &geom, 0x7A1D);
    let mut r = build();
    assert_eq!(r.pause_s().to_bits(), 4653768110129252013);
    assert_eq!(class_bits(r.class()), (4610785298501913804, 4643284915805844576));
    assert_eq!(
        backend_digest(&mut r, &mut build(), RetentionTrng::fill_bytes_reference),
        "b2e64c7c4752765a1470a8d3cbb5ff436e1a0378a4504b5e3938984825d42716",
    );
}
