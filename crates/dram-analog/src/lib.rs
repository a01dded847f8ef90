//! # qt-dram-analog
//!
//! Electrical and process-variation model of DRAM cells, bitlines, and sense
//! amplifiers, built to reproduce the QUAC phenomenon (quadruple row
//! activation, Section 4 of the paper) and the failure mechanisms used by
//! prior DRAM-based TRNGs (reduced-tRCD reads, reduced-tRP activations,
//! retention failures).
//!
//! ## Physical story
//!
//! A QUAC operation opens all four rows of a segment while the bitline is
//! mid-precharge. Every cell on the bitline shares charge with it, so the net
//! deviation from VDD/2 is the *signed sum* of the four cells' contributions,
//! with the first-activated row contributing more because its cell has more
//! time to share charge (Section 6.1.3). When the rows store conflicting
//! data, the net deviation lands inside the sense amplifier's unreliable
//! sensing margin and the amplifier resolves non-deterministically, seeded by
//! thermal noise but biased by its per-device offset (manufacturing process
//! variation, footnote 2).
//!
//! The model in this crate expresses exactly that: a deterministic,
//! per-device *bias* (charge-sharing imbalance + sense-amplifier offset +
//! systematic spatial variation) divided by a *thermal-noise scale* yields the
//! per-bitline probability of sampling logic-1, from which Shannon entropy
//! and sampled bitstreams follow.
//!
//! ## Example
//!
//! ```
//! use qt_dram_analog::{ModuleVariation, QuacAnalogModel, OperatingConditions};
//! use qt_dram_core::{DramGeometry, DataPattern, Segment};
//!
//! let geom = DramGeometry::tiny_test();
//! let variation = ModuleVariation::generate(&geom, 7);
//! let model = QuacAnalogModel::new(geom, variation);
//! let env = OperatingConditions::default();
//!
//! // The paper's best pattern produces far more entropy than a
//! // heavily-imbalanced one.
//! let best = model.segment_entropy(qt_dram_core::Segment::new(0), DataPattern::best_average(), env, 1);
//! let worst = model.segment_entropy(Segment::new(0), "1011".parse().unwrap(), env, 1);
//! assert!(best > worst);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conditions;
pub mod entropy;
pub mod failures;
pub mod math;
pub mod model;
pub mod noise;
pub mod params;
pub mod profiles;
pub mod sampler;
pub mod variation;

pub use conditions::{OperatingConditions, TemperatureRamp};
pub use entropy::{binary_entropy, bitstream_entropy, entropy_from_counts};
pub use failures::{FailureModel, RetentionModel, TrcdClassifier};
pub use model::{QuacAnalogModel, SegmentProber};
pub use noise::NoiseRng;
pub use params::AnalogParams;
pub use profiles::{ModuleProfile, TemperatureTrend, PAPER_MODULES};
pub use sampler::{BitSlicedSampler, BitThreshold};
pub use variation::{ModuleVariation, OffsetProber};
