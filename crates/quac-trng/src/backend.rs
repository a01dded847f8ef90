//! The heterogeneous entropy-backend seam: one trait every DRAM TRNG
//! mechanism in the workspace implements, so the RNG service can put
//! QUAC, D-RaNGe-style, and retention-based generators behind the same
//! shard/health/quarantine/placement machinery.
//!
//! A backend is a **seeded, deterministic** byte-stream generator: for a
//! fixed construction (module, characterisation, seed) `fill_bytes` emits
//! one fixed stream regardless of how reads slice it. That is the
//! replay-determinism contract the service's serial-equivalence tests pin,
//! and it is what makes cross-tier failover testable — a request re-placed
//! onto another backend still receives bytes from *that* backend's one
//! deterministic stream.
//!
//! A backend is a raw source plus one shared [`ConditionedStream`], which
//! owns conditioning, the output buffer, the fault seam, the delivered
//! offset and the fresh-bit counter. The trait exposes that stream instead
//! of forwarding each piece: the service's ledger reads
//! [`fresh_bits_drawn`](ConditionedStream::fresh_bits_drawn) and
//! [`buffered_bytes`](ConditionedStream::buffered_bytes) off
//! [`stream`](EntropyBackend::stream), and the chaos campaigns inject a
//! [`FaultInjector`](crate::fault::FaultInjector) through
//! [`stream_mut`](EntropyBackend::stream_mut) into every tier alike.

use crate::characterize::CharacterizationConfig;
use crate::pipeline::QuacTrng;
use crate::stream::ConditionedStream;

/// Which physical mechanism a backend harvests entropy from. The service
/// uses the kind for tier-aware placement (latency-sensitive → D-RaNGe,
/// bulk → QUAC, last-resort → retention) and for per-backend metric labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Quadruple-row-activation TRNG — the paper's pipeline: high
    /// throughput, moderate latency.
    Quac,
    /// D-RaNGe-style activation-latency-failure sampling (arXiv:1808.04286):
    /// lower throughput than QUAC but the lowest per-number latency.
    DRange,
    /// Talukder-style retention-failure harvesting: very slow and bursty
    /// (each harvest waits out a refresh pause) — the last-resort tier.
    Retention,
}

impl BackendKind {
    /// Stable lowercase label used in Prometheus `backend="..."` series.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Quac => "quac",
            BackendKind::DRange => "drange",
            BackendKind::Retention => "retention",
        }
    }
}

/// The throughput/latency class a backend advertises — the numbers
/// tier-aware placement and the README's mesh table are built from
/// (per-channel figures, matching `qt_baselines::TrngComparison`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendClass {
    /// The mechanism.
    pub kind: BackendKind,
    /// Sustained per-channel throughput in Gbps.
    pub throughput_gbps: f64,
    /// Latency to produce one 256-bit number, in nanoseconds.
    pub latency_256bit_ns: f64,
}

/// A seeded, deterministic entropy source the RNG service can shard.
///
/// Implementations must uphold the stream contract: a freshly constructed
/// backend with the same inputs emits the same byte stream through
/// [`fill_bytes`](EntropyBackend::fill_bytes) no matter how calls slice it,
/// and [`recharacterize`](EntropyBackend::recharacterize) restarts the
/// stream deterministically (the service bumps the shard's epoch around it).
pub trait EntropyBackend: Send + std::fmt::Debug {
    /// Fills `out` with the next bytes of this backend's deterministic
    /// stream (applying any injected fault at the delivery boundary).
    fn fill_bytes(&mut self, out: &mut [u8]);

    /// Re-runs the mechanism's characterisation/selection step and
    /// [restarts](ConditionedStream::restart) the output stream — the
    /// requalification path after a quarantine: buffered bytes are dropped
    /// and a transient injected fault is cleared.
    fn recharacterize(&mut self, cfg: &CharacterizationConfig);

    /// The backend's mechanism and advertised throughput/latency class.
    fn class(&self) -> BackendClass;

    /// The backend's conditioned output stream: buffer, fault seam,
    /// delivered offset and fresh-bit counter.
    fn stream(&self) -> &ConditionedStream;

    /// Mutable access to the stream, e.g. to inject a fault.
    fn stream_mut(&mut self) -> &mut ConditionedStream;
}

impl EntropyBackend for QuacTrng {
    fn fill_bytes(&mut self, out: &mut [u8]) {
        QuacTrng::fill_bytes(self, out);
    }

    fn recharacterize(&mut self, cfg: &CharacterizationConfig) {
        QuacTrng::recharacterize(self, cfg);
    }

    fn class(&self) -> BackendClass {
        // Paper headline figures (Table 2 / Section 7): ~3.44 Gbps per
        // channel sustained, ~1.9 µs per RC+BGP iteration producing four
        // 256-bit numbers.
        BackendClass {
            kind: BackendKind::Quac,
            throughput_gbps: 3.44,
            latency_256bit_ns: 1940.0,
        }
    }

    fn stream(&self) -> &ConditionedStream {
        &self.stream
    }

    fn stream_mut(&mut self) -> &mut ConditionedStream {
        &mut self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_are_stable_and_distinct() {
        let labels = [
            BackendKind::Quac,
            BackendKind::DRange,
            BackendKind::Retention,
        ]
        .map(BackendKind::label);
        assert_eq!(labels, ["quac", "drange", "retention"]);
    }

    #[test]
    fn quac_backend_delegates_to_the_pipeline() {
        use qt_dram_analog::PAPER_MODULES;
        let mut a = QuacTrng::for_module(&PAPER_MODULES[0], 99);
        let mut b = QuacTrng::for_module(&PAPER_MODULES[0], 99);
        let mut via_trait = vec![0u8; 128];
        EntropyBackend::fill_bytes(&mut a, &mut via_trait);
        let direct = b.generate_bytes(128);
        assert_eq!(via_trait, direct, "trait path shares the pipeline stream");
        assert_eq!(a.stream().delivered_bytes(), 128);
        assert_eq!(a.class().kind, BackendKind::Quac);
        assert!(a.class().throughput_gbps > a.class().latency_256bit_ns / 1e6);
    }
}
