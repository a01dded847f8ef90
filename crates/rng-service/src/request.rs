//! Request, completion, and error types of the RNG service.

use std::fmt;

/// Identifies one client (application) of the RNG service. The scheduler
/// round-robins between clients of the same priority, so the id is part of
/// the fairness contract, not just a label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u32);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client{}", self.0)
    }
}

/// Scheduling priority of a request (DR-STRaNGe's RNG-aware scheduler
/// distinguishes latency-critical RNG consumers from bulk ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Served first, subject to the anti-starvation fairness window.
    High,
    /// Served round-robin whenever no `High` request is eligible, and at
    /// least once per fairness window under sustained `High` load.
    #[default]
    Normal,
}

/// One queued random-byte request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngRequest {
    /// The requesting client.
    pub client: ClientId,
    /// Scheduling priority.
    pub priority: Priority,
    /// Number of random bytes requested.
    pub len: usize,
    /// Service-wide submission sequence number (assigned by the service;
    /// ties completions back to submission order).
    pub seq: u64,
    /// When the request was admitted — the start of the latency the
    /// delivery path records into
    /// [`ServiceStats::latency_us`](crate::ServiceStats::latency_us).
    pub submitted_at: std::time::Instant,
    /// Optional completion deadline. A request still *queued* (not yet
    /// popped into a generation batch) when its deadline passes is completed
    /// with a typed [`Expired`](crate::Expired) outcome by the expiry sweep instead of
    /// leaving its client parked; a request whose generation has already
    /// started is committed and delivered (possibly late — the slack
    /// histogram records 0 for it).
    pub deadline: Option<std::time::Instant>,
}

/// A served request: the random bytes plus enough provenance to reconstruct
/// exactly where they came from in the per-shard deterministic stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The client that requested the bytes.
    pub client: ClientId,
    /// Submission sequence number of the request.
    pub seq: u64,
    /// The shard (channel) that generated the bytes.
    pub shard: usize,
    /// The shard's stream epoch. Epoch 0 is the seed-determined stream; a
    /// quarantine→recharacterisation→readmission cycle restarts the shard's
    /// stream and bumps the epoch, so offsets are only comparable within
    /// one `(shard, epoch)` pair.
    pub epoch: u64,
    /// Byte offset of this chunk within the shard's deterministic output
    /// stream *for this epoch*: a shard's completions with equal `epoch`,
    /// sorted by this offset, concatenate to a contiguous prefix of that
    /// epoch's stream — for epoch 0, the stream an identically-seeded
    /// serial `QuacTrng` emits (a shard that is never quarantined stays in
    /// epoch 0 forever).
    pub stream_offset: u64,
    /// Raw fresh entropy bits this completion is backed by, attributed from
    /// the serving shard's [`EntropyLedger`](crate::EntropyLedger):
    /// the worker divides each batch's banked fresh-bit draw across the
    /// requests it served, pro-rata by length, never attributing the same
    /// bit twice. The per-shard ledger invariant — the sum of `fresh_bits`
    /// over a shard's completions never exceeds the fresh bits its ledger
    /// shows drawn — is what the typed [`contract`](crate::contract)
    /// responses enforce their MUST-consume-≥N clause against.
    pub fresh_bits: u64,
    /// The entropy-backend kind that generated the bytes — `Quac` for a
    /// homogeneous service, and the serving tier for a mesh.
    pub backend: quac_trng::BackendKind,
    /// The random bytes.
    pub bytes: Vec<u8>,
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Admitting the request would exceed the in-flight byte budget right
    /// now (backpressure). Blocking submission parks instead.
    Saturated {
        /// Bytes requested.
        requested: usize,
        /// Bytes currently in flight (queued + being generated).
        in_flight: usize,
        /// The configured budget.
        budget: usize,
    },
    /// The request alone exceeds the in-flight byte budget and could never
    /// be admitted; blocking submission refuses it too (it would deadlock).
    TooLarge {
        /// Bytes requested.
        requested: usize,
        /// The configured budget.
        budget: usize,
    },
    /// The request was for zero bytes.
    Empty,
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
    /// Every shard is quarantined and a plain submission was refused:
    /// immediately for a non-blocking (`try_`) call under either
    /// [`DegradedPolicy`](crate::DegradedPolicy); for a blocking call,
    /// immediately under `FailFast`, or under `Park` once the parking bound
    /// (capped by the request's own deadline) elapsed without a
    /// readmission.
    Degraded {
        /// Number of shards, all of which are currently out of placement.
        quarantined: usize,
    },
    /// A mixed submission
    /// ([`submit_mixed`](crate::RngService::submit_mixed)) needs two serving
    /// shards with *distinct* backend kinds, and fewer kinds are currently
    /// serving — a mesh degraded to a single tier still serves plain
    /// submissions but cannot vouch for multi-source independence.
    NoIndependentSources {
        /// Distinct backend kinds with at least one serving shard.
        serving_kinds: usize,
    },
    /// The configured [`QosPolicy`](crate::QosPolicy) rejected the
    /// submission: the client's token bucket cannot cover the request right
    /// now. A policy rejection, not backpressure — blocking submission does
    /// *not* park on it (parking would let one greedy client occupy
    /// submitter threads instead of being shed).
    RateLimited {
        /// The rate-limited client.
        client: ClientId,
        /// The policy's estimate of how long until the bucket could cover
        /// the same request ([`Duration::ZERO`](std::time::Duration::ZERO)
        /// if the request exceeds the burst and can never be covered).
        retry_after: std::time::Duration,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Saturated { requested, in_flight, budget } => write!(
                f,
                "queue saturated: {requested} B requested with {in_flight}/{budget} B in flight"
            ),
            SubmitError::TooLarge { requested, budget } => {
                write!(f, "request of {requested} B exceeds the {budget} B in-flight budget")
            }
            SubmitError::Empty => write!(f, "zero-byte request"),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
            SubmitError::Degraded { quarantined } => {
                write!(f, "service degraded: all {quarantined} shards are quarantined")
            }
            SubmitError::NoIndependentSources { serving_kinds } => write!(
                f,
                "mixed submission needs two distinct serving backend kinds, only {serving_kinds} serving"
            ),
            SubmitError::RateLimited { client, retry_after } => write!(
                f,
                "{client} rate-limited by the QoS policy; retry in {} µs",
                retry_after.as_micros()
            ),
        }
    }
}

impl std::error::Error for SubmitError {}
