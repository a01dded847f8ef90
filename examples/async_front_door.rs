//! The async front door end to end: `await` tickets instead of blocking,
//! frame the bytes through the typed entropy contract, rate-limit a greedy
//! tenant with the token-bucket QoS, and read the per-shard entropy ledger
//! off the final stats snapshot.
//!
//! Run with: `cargo run --release --example async_front_door`

use quac_trng_repro::dram_analog::{ModuleVariation, OperatingConditions, QuacAnalogModel};
use quac_trng_repro::dram_core::{DataPattern, DramGeometry};
use quac_trng_repro::rng_service::facade::{block_on, AsyncTicket};
use quac_trng_repro::rng_service::{
    ClientId, Priority, RngService, RngServiceConfig, ServicePolicies, SubmitError, TokenBucketQos,
    Trng128, Trng32,
};
use quac_trng_repro::trng::characterize::{characterize_module, CharacterizationConfig};
use quac_trng_repro::trng::pipeline::QuacTrng;
use quac_trng_repro::trng::EntropyBackend;

fn main() {
    // A small simulated module keeps the example instant; the service API is
    // identical on the full paper modules.
    let geom = DramGeometry::tiny_test();
    let model = QuacAnalogModel::new(geom, ModuleVariation::generate(&geom, 21));
    let cfg = CharacterizationConfig {
        segment_stride: 1,
        bitline_stride: 1,
        conditions: OperatingConditions::nominal(),
    };
    let ch = characterize_module(&model, DataPattern::best_average(), &cfg);

    // Per-tenant QoS rides along as a policy: a 4 KiB burst per client,
    // refilled at 1 KiB/s.
    let service_cfg = RngServiceConfig::default();
    let mut policies = ServicePolicies::for_config(&service_cfg);
    policies.qos = Box::new(TokenBucketQos::new(1024.0, 4096));
    let backends = QuacTrng::shards(&model, &ch, 0xA5F0, 2)
        .into_iter()
        .map(|shard| Box::new(shard) as Box<dyn EntropyBackend>)
        .collect();
    let service = RngService::start_with_policies(backends, service_cfg, policies);

    // Submit first, await later: the tickets resolve concurrently while this
    // thread is free to do other work. `block_on` is the shipped no-runtime
    // executor; any executor that drives a plain `Future` works the same.
    let tickets: Vec<AsyncTicket> = (0..3)
        .map(|i| {
            let ticket = service.submit(ClientId(i), Priority::Normal, 512).unwrap();
            AsyncTicket::from(ticket)
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let completion = block_on(ticket).expect("served");
        println!(
            "client {i}: {} bytes from shard {} ({} fresh bits banked)",
            completion.bytes.len(),
            completion.shard,
            completion.fresh_bits
        );
    }

    // The typed contract: frames carry their value, a SHA-256-derived
    // checksum, and source telemetry — and the constructor refuses any
    // completion whose attributed fresh bits sit below the frame's floor.
    let completion = block_on(AsyncTicket::from(
        service.submit(ClientId(0), Priority::Normal, 64).unwrap(),
    ))
    .expect("served");
    let t32 = Trng32::from_completion(&completion).expect("≥32 fresh bits");
    let t128 = Trng128::from_completion(&completion).expect("≥128 fresh bits");
    println!(
        "Trng32 frame: value {:#010x}, checksum {:02x?}, shard {} epoch {}",
        t32.value, t32.checksum, t32.telemetry.shard, t32.telemetry.epoch
    );
    println!("Trng128 frame: value {:02x?}", t128.value);

    // Drain one tenant's bucket: the rejection is typed and carries a
    // refill estimate, and no other tenant is touched.
    let greedy = ClientId(9);
    while let Ok(t) = service.submit(greedy, Priority::Normal, 2048) {
        block_on(AsyncTicket::from(t)).expect("within burst");
    }
    match service.submit(greedy, Priority::Normal, 2048) {
        Err(SubmitError::RateLimited {
            client,
            retry_after,
        }) => {
            // Whole seconds: the exact estimate shifts with wall-clock
            // elapsed time, and example stdout must stay run-to-run stable.
            println!(
                "client {} rate-limited, retry in ~{}s",
                client.0,
                retry_after.as_secs_f64().ceil()
            );
        }
        other => println!("unexpected: {other:?}"),
    }

    // The shutdown snapshot carries the per-shard entropy ledger: raw fresh
    // bits drawn from the array, the share attributed to served requests,
    // and the conditioned bytes that left the front door.
    let stats = service.shutdown();
    for (shard, ledger) in stats.per_shard_ledger.iter().enumerate() {
        println!(
            "shard {shard}: drew {} fresh bits, claimed {}, served {} conditioned bytes",
            ledger.fresh_bits_drawn, ledger.fresh_bits_claimed, ledger.conditioned_bytes_served
        );
        assert!(ledger.fresh_bits_claimed <= ledger.fresh_bits_drawn);
    }
    println!("rate-limited rejections: {}", stats.rate_limited_rejections);
}
