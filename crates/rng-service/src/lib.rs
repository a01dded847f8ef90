//! # qt-rng-service
//!
//! A sharded, asynchronous random-number **service** in front of the
//! QUAC-TRNG pipeline — the system layer of the paper's end-to-end story
//! (Sections 3, 7.3 and 9): a memory controller answering random-number
//! requests from many applications out of idle DRAM cycles. DR-STRaNGe
//! (arXiv:2201.01385) shows that the system value of a DRAM TRNG hinges on
//! exactly this layer — request scheduling, buffering, and fairness between
//! RNG traffic and regular traffic — and D-RaNGe (arXiv:1808.04286) frames
//! the same multi-client throughput question.
//!
//! ## Architecture: control plane / data plane
//!
//! The crate is split along the classic control/data seam. The **data
//! plane** moves bytes: queue → worker batch loop → pacing → tap →
//! completion delivery. The **control plane** decides *which* shard serves
//! and *whether* a request is still worth serving: placement, shard health
//! and quarantine, degraded admission, requalification, expiry, failover.
//! The two meet only through one state lock, so every control decision is a
//! pure function of observable state.
//!
//! ```text
//!                         CONTROL PLANE
//!   ┌────────────────────────────────────────────────────────────┐
//!   │ placement  — PlacementPolicy (TieredPlacement: tier, then  │
//!   │              least-loaded + rotation)                      │
//!   │ control    — AdmissionPolicy (DegradedPolicy),             │
//!   │              RequalifyPolicy, per-shard graders,           │
//!   │              quarantine failover, deadline-expiry sweep    │
//!   │ health     — ShardHealth EWMA/streak state machine         │
//!   └──────────────▲─────────────────────────────▲───────────────┘
//!                  │ one Mutex<State> + condvars │
//!   ┌──────────────▼─────────────────────────────▼───────────────┐
//!   │ service    — config, one admission path, lifecycle glue    │
//!   │ queue      — per-shard ShardScheduler (bands, round-robin, │
//!   │              fairness window)                              │
//!   │ worker     — batch loop: fill_bytes → pace (IdleBudget)    │
//!   │              → tap → release budget → deliver              │
//!   │ ticket     — client-side receipt (Served/Expired/Canceled) │
//!   └────────────────────────────────────────────────────────────┘
//!          DATA PLANE           stats/export — snapshots, deltas,
//!                                              Prometheus text
//! ```
//!
//! Module map and seams:
//!
//! * [`service`] — [`RngServiceConfig`], admission, thread lifecycle. Every
//!   submit variant runs one admission path with one order of checks:
//!   lifecycle, a serving shard (else the [`DegradedPolicy`]; a mixed
//!   request needs two serving kinds), the deadline, the in-flight budget
//!   (park or [`SubmitError::Saturated`]), then the QoS charge and
//!   placement. [`RngService::start`] boxes its QUAC shards and calls
//!   [`RngService::start_mesh`], which runs any set of boxed
//!   [`EntropyBackend`](quac_trng::EntropyBackend)s (QUAC, D-RaNGe,
//!   retention — the **entropy mesh**) with the stock
//!   [`ServicePolicies::for_config`]; [`RngService::start_with_policies`]
//!   is the injection point for a custom [`ServicePolicies`] set.
//! * [`placement`] — [`PlacementPolicy`] and the one stock policy,
//!   [`TieredPlacement`]: it routes by priority across backend kinds, falls
//!   through tiers as quarantine empties them, and within a tier applies
//!   the [`least_loaded_shard`] rule — least-loaded serving shard, rotation
//!   tie-break (so an idle service degrades to round-robin), quarantined
//!   shards skipped while any healthy shard exists. On a fleet of one kind
//!   it is exactly that rule.
//! * [`mixer`] — cross-source conditioning: XOR-fold + batched SHA-256 over
//!   two independent backends' streams ([`RngService::submit_mixed`],
//!   [`MixedTicket`]), pinned bit-for-bit to the scalar
//!   [`mix_reference`](mixer::mix_reference) twin.
//! * [`correlation`] — the cross-correlation health check: windowed
//!   inter-shard bit-agreement statistic; a correlated pair is
//!   force-quarantined whole (catches common-mode faults per-stream
//!   batteries cannot see).
//! * [`control`] — [`AdmissionPolicy`] (what a blocking submission does
//!   while *every* shard is fenced, stock impl [`DegradedPolicy`]),
//!   [`RequalifyPolicy`] (recharacterise-on-quarantine pacing),
//!   [`QosPolicy`] (per-tenant token-bucket admission, stock impls
//!   [`NoQos`] / [`TokenBucketQos`], rejection via
//!   [`SubmitError::RateLimited`]), and the orchestration loops: validation
//!   verdict folding, quarantine failover, requalification, and the
//!   deadline-expiry sweep (which waits on its own condvar, so
//!   deadline-free load never wakes it).
//! * [`health`] — the per-shard window → EWMA/streak → quarantine →
//!   probation → readmission state machine.
//! * [`queue`] / `worker` — the data plane: priority bands with
//!   round-robin per client and a bounded anti-starvation window
//!   ([`RngServiceConfig::fairness_window`]); batch coalescing up to
//!   [`RngServiceConfig::max_batch_bytes`]; delivery pacing against an
//!   [`IdleBudget`](qt_memctrl::IdleBudget) (Figure 12's injection model);
//!   backpressure against [`RngServiceConfig::max_inflight_bytes`].
//! * [`ticket`] — the client-side receipt: [`Ticket::wait`],
//!   [`Ticket::try_wait`], [`Ticket::wait_deadline`]; typed terminal
//!   outcomes [`Expired`] (stamped with the [`ExpiryStage`] it died at) and
//!   [`Canceled`]. Tickets are `Sync`: the resolution cell is shared with
//!   the delivery side, so waits from several threads agree.
//! * [`facade`] — the async front door: [`AsyncTicket`] /
//!   [`AsyncMixedTicket`] implement [`Future`](std::future::Future) with the
//!   waker registered at the completion-delivery boundary (worker, expiry
//!   sweep, abort — no polling thread, no runtime dependency), plus the
//!   minimal [`block_on`] executor.
//! * [`contract`] — typed Spinel-shaped responses ([`Trng32`], [`Trng128`],
//!   [`TrngRaw32`]): payload + checksum + [`SourceTelemetry`] in one frame,
//!   each constructor enforcing its MUST-consume-≥N-fresh-bits clause
//!   against the completion's ledger-attributed
//!   [`fresh_bits`](Completion::fresh_bits).
//! * [`validate`] — the continuous-validation tap and the per-shard
//!   windowing in front of the word-parallel NIST SP 800-22 battery.
//! * [`stats`] / [`export`] — [`ServiceStats`] snapshots, log₂
//!   [`Histogram`]s, the per-shard [`EntropyLedger`] (raw fresh bits drawn
//!   vs conditioned bytes served, per backend), rate windows via
//!   [`ServiceStats::delta_since`], and Prometheus text exposition via
//!   [`export::prometheus_text`].
//!
//! ## Deadlines and degraded operation
//!
//! Requests may carry a completion deadline
//! ([`RngService::submit_with_deadline`]): a request still queued when it
//! passes is completed with a typed [`Expired`] outcome within one
//! [`RngServiceConfig::expiry_sweep_interval`]; a deadline already in the
//! past resolves at admission without being charged; and a submission
//! parked on the in-flight budget gives up with the same typed outcome at
//! its deadline — no submit path blocks past `max(deadline, policy bound)`.
//! While *every* shard is quarantined, admission follows the configured
//! [`DegradedPolicy`] — fail-fast rejection with [`SubmitError::Degraded`],
//! or parking bounded by the policy (and by the request's own deadline).
//! [`Ticket::wait_deadline`] bounds the wait itself. With
//! [`ValidationConfig::enabled`], each shard's grader thread grades its
//! served windows and quarantines the shard when its health trips a bound;
//! its queued requests fail over to healthy shards, and readmission
//! requires a probation streak (see [`health`]).
//!
//! ## Determinism contract
//!
//! Shard `i` seeded via `QuacTrng::shards(.., base_seed, ..)` emits one fixed
//! byte stream. Every [`Completion`] carries `(shard, epoch, stream_offset)`,
//! and a shard's epoch-0 completions — sorted by `stream_offset` —
//! concatenate to exactly the prefix an identically-seeded, single-threaded
//! `QuacTrng` produces. A quarantine→readmission cycle restarts the shard's
//! stream and bumps the epoch (offsets restart at 0), so each `(shard,
//! epoch)` stream is gapless on its own; shards that never fail validation
//! stay in epoch 0 forever.
//! Thread interleaving can change *which request* receives *which chunk*,
//! but never the bytes each shard hands out; under a fixed submission order
//! (single submitter, one request outstanding) even the per-request bytes
//! are reproducible. The integration suite (`tests/rng_service.rs` at the
//! workspace root) pins both properties — and thereby the whole
//! control-plane/data-plane split: any placement or scheduling change that
//! breaks replay shows up there as a stream mismatch. A custom
//! [`PlacementPolicy`] keeps the contract iff it is a pure function of its
//! [`PlacementView`](placement::PlacementView).
//!
//! ## Quickstart
//!
//! ```
//! use qt_rng_service::{ClientId, Priority, RngService, RngServiceConfig};
//! use quac_trng::characterize::{characterize_module, CharacterizationConfig};
//! use quac_trng::pipeline::QuacTrng;
//! use qt_dram_analog::{ModuleVariation, QuacAnalogModel};
//! use qt_dram_core::{DataPattern, DramGeometry};
//!
//! // Characterise once, then shard the generator across two channels.
//! let geom = DramGeometry::tiny_test();
//! let model = QuacAnalogModel::new(geom, ModuleVariation::generate(&geom, 1));
//! let cfg = CharacterizationConfig { segment_stride: 1, bitline_stride: 1, ..Default::default() };
//! let ch = characterize_module(&model, DataPattern::best_average(), &cfg);
//! let service = RngService::start(
//!     QuacTrng::shards(&model, &ch, 42, 2),
//!     RngServiceConfig::default(),
//! );
//! let ticket = service.submit(ClientId(0), Priority::Normal, 64).unwrap();
//! let completion = ticket.wait().unwrap();
//! assert_eq!(completion.bytes.len(), 64);
//! println!("{}", qt_rng_service::export::prometheus_text(&service.stats()));
//! service.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contract;
pub mod control;
pub mod correlation;
pub mod export;
pub mod facade;
pub mod health;
pub mod mixer;
pub mod placement;
pub mod queue;
pub mod request;
pub mod service;
pub(crate) mod state;
pub mod stats;
pub mod ticket;
pub mod validate;
pub(crate) mod worker;

pub use contract::{ContractError, SourceTelemetry, Trng128, Trng32, TrngRaw32};
pub use control::{
    AdmissionPolicy, DegradedPolicy, NoQos, QosPolicy, RequalifyPolicy, ServicePolicies,
    TokenBucketQos,
};
pub use correlation::{bit_agreement, CorrelationConfig, CorrelationMonitor};
pub use facade::{block_on, AsyncMixedTicket, AsyncTicket};
pub use health::{HealthPolicy, ShardHealth, ShardState};
pub use mixer::{MixedCompletion, MixedTicket};
pub use placement::{least_loaded_shard, PlacementPolicy, TieredPlacement};
pub use queue::ShardScheduler;
pub use request::{ClientId, Completion, Priority, RngRequest, SubmitError};
pub use service::RngService;
pub use state::RngServiceConfig;
pub use stats::{EntropyLedger, Histogram, ServiceStats, ValidationStats};
pub use ticket::{Canceled, Expired, ExpiryStage, Ticket, WaitError};
pub use validate::ValidationConfig;
