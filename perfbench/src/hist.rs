//! Fixed-size log-linear latency histogram.
//!
//! Latencies are recorded into a constant number of buckets instead of a
//! per-sample `Vec`, so the benchmark's own memory does not grow with the
//! rate it achieves: a faster program must not read as a memory regression
//! in `peak_rss_mib`.
//!
//! Values below `2^SUB_BITS` get one bucket each. Above that, every
//! power-of-two octave is split into `2^SUB_BITS` equal-width buckets, and a
//! quantile is reported as the midpoint of its bucket, so its relative error
//! is at most `1 / 2^(SUB_BITS + 1)` (0.78 %).

/// Sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Octaves above the exact range: enough for any `u64`.
const OCTAVES: usize = 64 - SUB_BITS as usize;
const BUCKETS: usize = SUB + OCTAVES * SUB;

/// Largest relative error of [`LogHistogram::quantile`] for a value of at
/// least `2^SUB_BITS`; smaller values are exact.
#[cfg(test)]
const MAX_RELATIVE_ERROR: f64 = 1.0 / (2 * SUB) as f64;

/// A histogram of `u64` values (nanoseconds here) in a fixed array.
#[derive(Clone)]
pub struct LogHistogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
        }
    }
}

fn bucket_of(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let shift = msb - SUB_BITS;
    let top = (value >> shift) as usize; // in [SUB, 2 * SUB)
    SUB + shift as usize * SUB + (top - SUB)
}

/// Midpoint of a bucket's value range.
fn bucket_mid(index: usize) -> f64 {
    if index < SUB {
        return index as f64;
    }
    let shift = (index - SUB) / SUB;
    let top = SUB + (index - SUB) % SUB;
    let low = (top as u64) << shift;
    low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl LogHistogram {
    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.total += 1;
    }

    /// The `q`-quantile (`0 < q <= 1`) under the nearest-rank definition:
    /// the value with rank `ceil(q * count)`, reported as its bucket's
    /// midpoint. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_mid(index);
            }
        }
        unreachable!("rank {rank} is at most the total count {}", self.total)
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds every value recorded in `other`.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Values strictly above the `q`-quantile's rank — the sample support
    /// behind a reported percentile.
    pub fn beyond(&self, q: f64) -> u64 {
        self.total - ((q * self.total as f64).ceil() as u64).min(self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: a dependency-free seeded generator for test inputs.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn quantile_error_is_bounded() {
        for seed in 0..8u64 {
            let mut state = seed;
            let mut hist = LogHistogram::default();
            // Log-uniform over ~1 ns .. ~17 s, the span latencies can take.
            let mut values: Vec<u64> = (0..20_000)
                .map(|_| {
                    let octave = splitmix(&mut state) % 34;
                    (1u64 << octave) + splitmix(&mut state) % (1u64 << octave)
                })
                .collect();
            for &v in &values {
                hist.record(v);
            }
            values.sort_unstable();
            for q in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let exact = exact_quantile(&values, q) as f64;
                let got = hist.quantile(q);
                let err = (got - exact).abs() / exact;
                assert!(
                    err <= MAX_RELATIVE_ERROR,
                    "seed {seed} q {q}: {got} vs exact {exact}, error {err}"
                );
            }
        }
    }

    #[test]
    fn small_values_are_exact_and_buckets_cover_u64() {
        let mut hist = LogHistogram::default();
        for v in 0..SUB as u64 {
            hist.record(v);
        }
        assert_eq!(hist.quantile(1.0), (SUB - 1) as f64);
        assert_eq!(hist.quantile(1.0 / SUB as f64), 0.0);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(hist.beyond(0.5), SUB as u64 / 2);
    }

    #[test]
    fn merged_histograms_equal_one_recording() {
        let mut state = 7;
        let values: Vec<u64> = (0..5_000).map(|_| splitmix(&mut state) >> 40).collect();
        let mut whole = LogHistogram::default();
        let mut first = LogHistogram::default();
        let mut second = LogHistogram::default();
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            let part = if i % 3 == 0 { &mut first } else { &mut second };
            part.record(v);
        }
        first.merge(&second);
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(first.quantile(q), whole.quantile(q));
        }
        assert_eq!(first.beyond(0.9), whole.beyond(0.9));
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let hist = LogHistogram::default();
        assert_eq!(hist.quantile(0.99), 0.0);
        assert_eq!(hist.beyond(0.99), 0);
    }
}
