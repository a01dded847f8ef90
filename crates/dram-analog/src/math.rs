//! Numerical helpers: error function, normal CDF, deterministic hashing to
//! uniform and normal variates, and the binary entropy function.
//!
//! Process variation must be *deterministic per device*: the same module seed
//! must always yield the same per-bitline offsets, otherwise characterisation
//! (Section 6.1.2) and later random-number generation (Section 5.2) would not
//! agree on which segments are high-entropy. All per-component variation is
//! therefore derived from counter-mode hashing (SplitMix64) rather than a
//! streaming RNG.

/// Abramowitz–Stegun style rational approximation of the error function
/// (maximum absolute error ≈ 1.5e-7), sufficient for probability modelling.
pub fn erf(x: f64) -> f64 {
    // Constants for the A&S 7.1.26 approximation.
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;

    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function Φ(x).
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Inverse of the standard normal CDF (Acklam's algorithm, relative error
/// below 1.15e-9 over the open unit interval).
///
/// # Panics
///
/// Panics if `p` is not strictly between 0 and 1.
pub fn std_normal_inv_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "inverse normal CDF requires 0 < p < 1, got {p}");

    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Binary (Shannon) entropy of a Bernoulli(p) source in bits (Equation 1 of
/// the paper). Returns 0 for p outside (0, 1).
pub fn binary_entropy_bits(p: f64) -> f64 {
    if p <= 0.0 || p >= 1.0 || !p.is_finite() {
        return 0.0;
    }
    let q = 1.0 - p;
    -(p * p.log2() + q * q.log2())
}

/// Normalised bias magnitude beyond which `std_normal_cdf` saturates to
/// exactly 0.0/1.0 in `f64` arithmetic, making the bitline entropy exactly
/// zero. Verified by `cdf_saturates_beyond_the_entropy_cutoff`.
pub const ENTROPY_SATURATION_Z: f64 = 8.6;

/// Normalised bias magnitude up to which `std_normal_cdf` stays strictly
/// inside (0, 1) in `f64` arithmetic. The CDF reaches exactly 1.0 at
/// z ≈ 8.245 and exactly 0.0 at z ≈ −8.376, so the band between this and
/// [`ENTROPY_SATURATION_Z`] holds both saturation edges with a margin of
/// over 0.2 on each side — far above any rounding wobble of the chain.
/// Classify-first scans (see `failures`) decide cells outside the band
/// without evaluating the CDF. Verified by `cdf_is_interior_inside_the_band`.
pub(crate) const CDF_INTERIOR_Z: f64 = 8.0;

/// Resolution of the [`entropy_of_normal_bias`] interpolation table.
const ENTROPY_TABLE_SIZE: usize = 1 << 16;

fn entropy_table() -> &'static [f64] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let step = ENTROPY_SATURATION_Z / ENTROPY_TABLE_SIZE as f64;
        (0..=ENTROPY_TABLE_SIZE)
            .map(|i| binary_entropy_bits(std_normal_cdf(i as f64 * step)))
            .collect()
    })
}

/// Shannon entropy (bits) of a sense amplifier whose normalised bias is `z`:
/// `H(Φ(z))`, evaluated through a 64 Ki-entry linear interpolation table.
///
/// This is the characterisation hot path — per-bitline entropy sweeps call it
/// millions of times — so the table trades a bounded approximation error
/// (absolute error below 1e-6, verified by `entropy_of_normal_bias_is_accurate`)
/// for an order-of-magnitude speedup over `erf` + two `log2` calls. `H` is
/// symmetric in `z` and exactly zero beyond [`ENTROPY_SATURATION_Z`], where
/// the CDF saturates in `f64`.
pub fn entropy_of_normal_bias(z: f64) -> f64 {
    let az = z.abs();
    if az >= ENTROPY_SATURATION_Z {
        return 0.0;
    }
    let table = entropy_table();
    let x = az * (ENTROPY_TABLE_SIZE as f64 / ENTROPY_SATURATION_Z);
    let i = x as usize; // < ENTROPY_TABLE_SIZE because az < ENTROPY_SATURATION_Z
    let frac = x - i as f64;
    table[i] + (table[i + 1] - table[i]) * frac
}

/// SplitMix64 finalizer: a fast, well-mixed 64-bit hash used as a
/// counter-mode PRF for deterministic per-component variation.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combines a seed with up to three coordinates into a single hash.
pub fn hash_coords(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    CoordHasher::new(seed, a).hash(b, c)
}

/// The `(seed, a)` prefix of [`hash_coords`], hoisted: the first two of the
/// four SplitMix rounds depend only on the seed and the first coordinate
/// (the segment or subarray in every per-bitline use), so loops that hash
/// thousands of bitlines of one segment pay two rounds per call instead of
/// four. `CoordHasher::new(seed, a).hash(b, c)` is the same function
/// composition as [`hash_coords`]`(seed, a, b, c)` — bit-identical, which
/// the tests pin.
#[derive(Debug, Clone, Copy)]
pub struct CoordHasher {
    prefix: u64,
}

impl CoordHasher {
    /// Folds the seed and first coordinate into the hash prefix.
    pub fn new(seed: u64, a: u64) -> Self {
        let h = splitmix64(seed ^ 0xA076_1D64_78BD_642F);
        CoordHasher { prefix: splitmix64(h ^ a.wrapping_mul(0xE703_7ED1_A0B4_28DB)) }
    }

    /// Finishes the hash with the remaining two coordinates.
    #[inline]
    pub fn hash(&self, b: u64, c: u64) -> u64 {
        let h = splitmix64(self.prefix ^ b.wrapping_mul(0x8EBC_6AF0_9C88_C6E3));
        splitmix64(h ^ c.wrapping_mul(0x5897_89E6_C6B1_DC97))
    }

    /// A standard normal variate for the remaining coordinates, through the
    /// same unit-interval mapping as [`normal_at`].
    #[inline]
    pub fn normal(&self, b: u64, c: u64) -> f64 {
        hash_to_std_normal(self.hash(b, c))
    }
}

/// Maps a 64-bit hash to the open unit interval (0, 1), excluding endpoints.
pub fn hash_to_unit(h: u64) -> f64 {
    // 53 significant bits, shifted into (0, 1). For the top mantissa,
    // `2^53 − 1 + 0.5` rounds to 2^53 and the quotient to exactly 1.0, so
    // that one input is clamped to the largest double below 1.0.
    let mantissa = (h >> 11) as f64;
    ((mantissa + 0.5) / (1u64 << 53) as f64).min(1.0 - f64::EPSILON / 2.0)
}

/// Maps a 64-bit hash to a standard normal variate via the inverse CDF.
pub fn hash_to_std_normal(h: u64) -> f64 {
    std_normal_inv_cdf(hash_to_unit(h))
}

/// Deterministic uniform variate in `(0, 1)` for the given seed/coordinates.
pub fn uniform_at(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    hash_to_unit(hash_coords(seed, a, b, c))
}

/// Deterministic standard normal variate for the given seed/coordinates.
pub fn normal_at(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    hash_to_std_normal(hash_coords(seed, a, b, c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-5);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-5);
        assert!((erf(2.0) - 0.9953222650).abs() < 1e-5);
        assert!(erf(6.0) > 0.999999);
    }

    #[test]
    fn normal_cdf_is_symmetric_and_monotonic() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!((std_normal_cdf(1.96) - 0.975).abs() < 2e-4);
        assert!((std_normal_cdf(-1.96) - 0.025).abs() < 2e-4);
        let mut prev = 0.0;
        for i in -40..=40 {
            let v = std_normal_cdf(i as f64 / 10.0);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn inverse_cdf_round_trips() {
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let x = std_normal_inv_cdf(p);
            assert!((std_normal_cdf(x) - p).abs() < 1e-4, "p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "requires 0 < p < 1")]
    fn inverse_cdf_rejects_endpoints() {
        let _ = std_normal_inv_cdf(0.0);
    }

    #[test]
    fn binary_entropy_extremes() {
        assert_eq!(binary_entropy_bits(0.0), 0.0);
        assert_eq!(binary_entropy_bits(1.0), 0.0);
        assert!((binary_entropy_bits(0.5) - 1.0).abs() < 1e-12);
        assert!((binary_entropy_bits(0.11) - binary_entropy_bits(0.89)).abs() < 1e-12);
    }

    #[test]
    fn cdf_saturates_beyond_the_entropy_cutoff() {
        // Beyond the cutoff the CDF must be *exactly* 0.0/1.0 so that the
        // fast entropy path's early exit matches the exact computation.
        let mut z = ENTROPY_SATURATION_Z;
        while z < 60.0 {
            assert_eq!(std_normal_cdf(z), 1.0, "z = {z}");
            assert_eq!(std_normal_cdf(-z), 0.0, "z = {z}");
            assert_eq!(binary_entropy_bits(std_normal_cdf(z)), 0.0);
            z += 0.0371;
        }
    }

    #[test]
    fn cdf_saturates_densely_past_the_band() {
        // The classify-first scans rely on saturation from the band's
        // outer edge on, so check its first stretch at fine resolution.
        let mut z = ENTROPY_SATURATION_Z;
        while z < ENTROPY_SATURATION_Z + 0.05 {
            assert_eq!(std_normal_cdf(z), 1.0, "z = {z}");
            assert_eq!(std_normal_cdf(-z), 0.0, "z = {z}");
            z += 1e-6;
        }
    }

    #[test]
    fn cdf_is_interior_inside_the_band() {
        let interior = |z: f64| {
            for x in [z, -z] {
                let p = std_normal_cdf(x);
                assert!(p > 0.0 && p < 1.0, "z = {x}: p = {p}");
            }
        };
        let mut z = 0.0;
        while z < CDF_INTERIOR_Z - 0.05 {
            interior(z);
            z += 1e-4;
        }
        while z <= CDF_INTERIOR_Z {
            interior(z);
            z += 1e-6;
        }
        interior(CDF_INTERIOR_Z);
    }

    #[test]
    fn entropy_of_normal_bias_is_accurate() {
        let mut z = -12.0;
        let mut max_err = 0.0f64;
        while z < 12.0 {
            let fast = entropy_of_normal_bias(z);
            let exact = binary_entropy_bits(std_normal_cdf(z));
            max_err = max_err.max((fast - exact).abs());
            z += 0.000_873;
        }
        assert!(max_err < 1e-6, "interpolation error {max_err}");
        assert_eq!(entropy_of_normal_bias(0.0), 1.0);
        assert_eq!(entropy_of_normal_bias(100.0), 0.0);
        assert_eq!(entropy_of_normal_bias(f64::INFINITY), 0.0);
    }

    #[test]
    fn coord_hasher_is_bit_identical_to_hash_coords() {
        for seed in [0u64, 7, u64::MAX] {
            for a in [0u64, 3, 1 << 40] {
                let hasher = CoordHasher::new(seed, a);
                for b in [0u64, 1, 511, 65_535] {
                    for c in [0u64, 2] {
                        assert_eq!(hasher.hash(b, c), hash_coords(seed, a, b, c));
                        assert_eq!(
                            hasher.normal(b, c).to_bits(),
                            normal_at(seed, a, b, c).to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_diffuse() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(42), splitmix64(43));
        // Flipping one input bit flips roughly half the output bits.
        let d = (splitmix64(1234) ^ splitmix64(1235)).count_ones();
        assert!(d > 16 && d < 48, "poor diffusion: {d} bits");
    }

    #[test]
    fn hashed_normals_have_reasonable_moments() {
        let n = 20_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for i in 0..n {
            let x = normal_at(99, i, 0, 0);
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn hashed_uniforms_cover_the_unit_interval() {
        let n = 10_000;
        let mut min: f64 = 1.0;
        let mut max: f64 = 0.0;
        let mut mean = 0.0;
        for i in 0..n {
            let u = uniform_at(5, i, 7, 3);
            assert!(u > 0.0 && u < 1.0);
            min = min.min(u);
            max = max.max(u);
            mean += u;
        }
        mean /= n as f64;
        assert!(min < 0.01 && max > 0.99);
        assert!((mean - 0.5).abs() < 0.02);
    }

    #[test]
    fn extreme_hashes_map_strictly_inside_the_unit_interval() {
        for h in [0, u64::MAX, u64::MAX << 11, ((u64::MAX >> 11) - 1) << 11] {
            let u = hash_to_unit(h);
            assert!(u > 0.0 && u < 1.0, "hash {h:#x} mapped to {u}");
            assert!(hash_to_std_normal(h).is_finite(), "hash {h:#x}");
        }
        // Only the top mantissa is clamped: it lands on the largest double
        // below 1.0, still above its neighbour.
        assert_eq!(hash_to_unit(u64::MAX), 1.0 - f64::EPSILON / 2.0);
        assert!(hash_to_unit(u64::MAX) > hash_to_unit(u64::MAX - (1 << 11)));
        assert_eq!(hash_to_unit(0), 0.5 / (1u64 << 53) as f64);
    }

    proptest! {
        #[test]
        fn prop_entropy_bounded(p in 0.0f64..=1.0) {
            let h = binary_entropy_bits(p);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&h));
        }

        #[test]
        fn prop_cdf_bounded(x in -50.0f64..50.0) {
            let c = std_normal_cdf(x);
            prop_assert!((0.0..=1.0).contains(&c));
        }

        #[test]
        fn prop_uniform_in_open_interval(seed in any::<u64>(), a in any::<u64>()) {
            let u = uniform_at(seed, a, 1, 2);
            prop_assert!(u > 0.0 && u < 1.0);
        }
    }
}
