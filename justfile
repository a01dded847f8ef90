# Developer entry points; CI runs `just ci` equivalents. `just --list` to see all.

# Build everything in release mode.
build:
    cargo build --release

# Run the full test suite: unit, integration, doc tests, and bench smoke tests.
test:
    cargo test -q

# Generate API documentation for the workspace (must be warning-free).
doc:
    cargo doc --no-deps

# Lint everything; warnings are errors, matching CI.
clippy:
    cargo clippy --all-targets -- -D warnings

# Check formatting without rewriting.
fmt-check:
    cargo fmt --all --check

# The RNG-service integration + adversarial-scheduling suites under the
# same QUAC_THREADS matrix CI runs (serial and 4-worker validation paths).
service-tests:
    QUAC_THREADS=1 cargo test -q --test rng_service --test adversarial_scheduling
    QUAC_THREADS=4 cargo test -q --test rng_service --test adversarial_scheduling

# The degraded-mode chaos campaigns (drift, burst, stuck-at, multi-shard
# loss) against the live threaded service, under the same QUAC_THREADS
# matrix as CI.
chaos-tests:
    QUAC_THREADS=1 cargo test -q --test chaos_campaigns
    QUAC_THREADS=4 cargo test -q --test chaos_campaigns

# The async-front-door suite: futures woken by the delivery side, typed
# contract frames, the per-shard entropy ledger properties, and per-tenant
# QoS — under the same QUAC_THREADS matrix as CI.
facade-tests:
    QUAC_THREADS=1 cargo test -q --test facade
    QUAC_THREADS=4 cargo test -q --test facade

# The entropy-mesh suite: heterogeneous backends, tiered placement,
# cross-source mixing, and the correlation check — under the same
# QUAC_THREADS matrix as CI. The QUAC-tier-loss campaign runs with the
# other chaos campaigns (`just chaos-tests`).
mesh-tests:
    QUAC_THREADS=1 cargo test -q --test mesh
    QUAC_THREADS=4 cargo test -q --test mesh

# The end-to-end benchmark (the BENCHMARK.json command) on one workload:
# `just perfbench w=validated` (or bulk / frames). `w=` may be omitted;
# seconds, seed and trace default to a 35 s untraced run with seed 1.
perfbench w="validated" seconds="35" seed="1" trace="0":
    w='{{w}}'; cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "${w#w=}" --seconds {{seconds}} --seed {{seed}} --trace {{trace}}

# The system demo with the Prometheus metrics exposition of the burst run
# appended — what scraping the service would return.
metrics-demo:
    QUAC_METRICS=1 cargo run --release --example pim_rng_service

# Run the criterion micro-benchmarks in measuring mode.
bench:
    cargo bench

# Measure the benches and refresh the machine-readable perf trajectory
# (BENCH_RESULTS.json at the repo root; baselines are carried forward).
bench-json:
    BENCH_JSON="$(pwd)/BENCH_RESULTS.json" cargo bench -p qt_bench

# Measure only the NIST battery benches (name filter); the JSON merge keeps
# every other benchmark's entry intact.
nist-bench:
    BENCH_JSON="$(pwd)/BENCH_RESULTS.json" cargo bench -p qt_bench -- nist

# Re-measure and fail if any hot path regressed >25% (median-normalised)
# against the committed BENCH_RESULTS.json, or if sustained generation fell
# under the Gb/s floor (75% of the committed baseline) — the same gate CI
# runs. The fresh run goes to a temp file, so the committed baseline is
# never touched (refresh it deliberately with `just bench-json`).
bench-check:
    cp BENCH_RESULTS.json /tmp/quac-bench-fresh.json
    BENCH_JSON=/tmp/quac-bench-fresh.json cargo bench -p qt_bench
    cargo run --release -p qt_bench --bin bench_check -- /tmp/quac-bench-fresh.json BENCH_RESULTS.json

# The throughput-acceptance suite: golden-stream digests (the byte-stream
# contract), the batched-vs-reference equivalence pins in the generation
# crates, and a fresh bench measurement gated by bench-check (regressions +
# the generation Gb/s floor).
perf-tests:
    cargo test -q --test golden_streams
    cargo test -q -p qt_dram_analog -p qt_crypto -p quac_trng -p qt_baselines -p qt_nist_sts
    just bench-check

# Full-density reproduction: seed .quac-cache once with the population-wide
# characterisation (table3 sweeps all modules at QUAC_FULL=1 density), then
# reproduce every figure/table from the cached characterisations. The first
# run is the expensive one; later runs load from .quac-cache instantly.
figures-full:
    QUAC_FULL=1 QUAC_CACHE_DIR="$(pwd)/.quac-cache" cargo run --release --bin table3_modules
    for bin in fig08_data_patterns fig09_segment_entropy fig10_cache_blocks \
               fig11_throughput fig12_spec_idle fig13_scaling fig14_temperature \
               table1_nist_sts table2_prior_work section9_integration; do \
        QUAC_FULL=1 QUAC_CACHE_DIR="$(pwd)/.quac-cache" \
            cargo run --release --bin $bin || exit 1; echo; \
    done

# Reproduce every paper figure/table (sampled resolution).
figures:
    for bin in fig08_data_patterns fig09_segment_entropy fig10_cache_blocks \
               fig11_throughput fig12_spec_idle fig13_scaling fig14_temperature \
               table1_nist_sts table2_prior_work table3_modules section9_integration; do \
        cargo run --release --bin $bin || exit 1; echo; \
    done

# Everything CI checks, in CI's order.
ci: build test doc clippy
