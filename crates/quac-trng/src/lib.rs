//! # quac-trng
//!
//! The paper's primary contribution: a high-throughput true random number
//! generator built on QUadruple row ACtivation (QUAC) in commodity DDR4
//! DRAM (Olgun et al., ISCA 2021).
//!
//! The crate ties the substrates together:
//!
//! * [`characterize`] — the one-time characterisation step (Section 6):
//!   data-pattern sweeps, per-segment and per-cache-block entropy maps, and
//!   selection of the highest-entropy segment and its SHA-256 input blocks,
//!   sharded across scoped worker threads.
//! * [`cache`] — a persistent, exactly-round-tripping store for
//!   characterisations, so figure binaries re-running the same module and
//!   configuration load instead of re-sweeping.
//! * [`pipeline`] — the runtime generator (Section 5.2): initialise the
//!   reserved segment with in-DRAM copies, QUAC it, read the sense
//!   amplifiers, split them into 256-bit-entropy blocks, and post-process
//!   with SHA-256 (or the Von Neumann corrector for raw streams).
//! * [`stream`] — the [`ConditionedStream`] every backend delivers through:
//!   batched SHA-256 conditioning, the output buffer, the fault seam, the
//!   delivered offset and the fresh-bit counter, defined once.
//! * [`throughput`] — the analytic throughput/latency models behind
//!   Figures 11 and 13 and Table 2.
//! * [`integration`] — the system-integration cost accounting of Section 9.
//! * [`backend`] — the [`EntropyBackend`] trait that puts this pipeline and
//!   the alternative DRAM TRNG mechanisms (`qt_baselines`) behind one
//!   seeded, deterministic, fault-injectable interface for the RNG service.
//!
//! ## Quickstart
//!
//! ```
//! use quac_trng::pipeline::QuacTrng;
//! use qt_dram_analog::PAPER_MODULES;
//!
//! // Build a generator on (a simulation of) module M1 and draw random bytes.
//! let mut trng = QuacTrng::for_module(&PAPER_MODULES[0], 1234);
//! let bytes = trng.generate_bytes(64);
//! assert_eq!(bytes.len(), 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod characterize;
pub mod fault;
pub mod integration;
pub mod pipeline;
pub mod stream;
pub mod throughput;

pub use backend::{BackendClass, BackendKind, EntropyBackend};
pub use cache::CharacterizationCache;
pub use characterize::{CharacterizationConfig, ModuleCharacterization, PatternStats};
pub use fault::{FaultInjector, FaultMode};
pub use pipeline::QuacTrng;
pub use stream::{ConditionedStream, RawMessages};
pub use throughput::{ConfigurationThroughput, ThroughputModel};
