//! The fifteen SP 800-22 statistical tests, word-parallel.
//!
//! Each function returns a [`TestResult`] whose `p_value` is the (minimum)
//! p-value of the test. When a sequence fails a test's preconditions (too
//! few bits, too few zero-crossing cycles for the excursion tests) the
//! result is explicitly [`Applicability::NotApplicable`] — carrying the
//! failed requirement and the observed value, with `p_value = NaN` — rather
//! than a misleading `p = 0`.
//!
//! ## Word-parallel implementations and the `*_reference` convention
//!
//! The battery is the validation hot path of the reproduction (the paper
//! runs the full suite on every evaluated stream at α = 0.001, Section 6.2),
//! so every test that used to walk the stream bit-at-a-time now scans the
//! packed `u64` storage words of [`BitVec`] instead:
//!
//! * **monobit / cumulative sums** — per-word `count_ones`; the cusum walk
//!   folds a byte-at-a-time lookup table of `(Δ, max-prefix, min-prefix)` of
//!   the ±1 walk, so the running extreme advances 8 positions per step.
//! * **runs** — transitions counted as `count_ones(w ^ (w >> 1))` with the
//!   successor word's first bit injected at each boundary
//!   ([`BitVec::transitions`]).
//! * **frequency within a block** — per-block ones via the masked word scan
//!   [`BitVec::count_ones_range`].
//! * **longest run of ones** — per 64-bit chunk: all-ones fast path, prefix
//!   and suffix run lengths from trailing/leading-zero counts, and the
//!   in-chunk maximum via the `w &= w >> 1` erosion trick.
//! * **template matchers** — 64 candidate offsets per step: an accumulator
//!   word ANDs `word_at(start + j)` (or its complement) across the template
//!   bits, so surviving lanes are exact matches. For the non-overlapping
//!   matcher's `0…01` template this equals the specification's greedy skip
//!   count because two matches can never overlap (a match ends in a 1 that
//!   would have to be a 0 inside any overlapping later match).
//! * **serial / approximate entropy** — one O(n) pass maintains the m-bit
//!   window index incrementally (`idx = ((idx << 1) | bit) & mask`) fed
//!   word-at-a-time; ψ²(m−1)/ψ²(m−2) (and φ(m) from the φ(m+1) pass) are
//!   derived by pairwise-summing the counts, because the (m−1)-bit window at
//!   `i` is the m-bit window's prefix.
//! * **Maurer's universal** — L-bit blocks are extracted with one
//!   [`BitVec::word_at`] load + bit-reverse instead of L `get` calls.
//! * **linear complexity** — Berlekamp–Massey bit-sliced across blocks: up
//!   to 64 blocks are transposed into bit-planes (bit `k` of plane `t` is bit
//!   `t` of block `k`), and one run advances all 64 lanes per AND/XOR. The
//!   discrepancy is a forward reduction over the reversed planes, bounded by
//!   the largest lane length; the `C ^= d & P` update and the shifted
//!   `P = x^(i−m)·B` refresh are bounded by `max_k (i + 1 − L_k)`.
//! * **binary matrix rank** — rows are one 32-bit load + `reverse_bits`.
//!
//! * **dft (spectral)** — the production path runs a *real-input* FFT
//!   ([`crate::special::RealFftPlan`]): even/odd packing into a half-length
//!   complex transform with precomputed twiddles, plans cached per length
//!   once per process and shared by every thread (batteries hit the same
//!   length repeatedly, often from freshly spawned threads). About half the
//!   butterfly work and no per-call trigonometry.
//!
//! Every rewritten test keeps its original bit-at-a-time implementation as a
//! public `*_reference` twin. The references are the executable
//! specification: property tests pin the word-parallel paths **bit-identical
//! to the last ulp of the p-value** against them over biased, constant,
//! alternating, and random streams with lengths crossing word boundaries.
//! The spectral test's twin is [`dft_reference`] (the frozen complex-FFT
//! implementation); its p-value is pinned to the real-FFT path through the
//! integer below-threshold count, which absorbs ulp-level magnitude
//! differences. The excursion tests first count the walk's cycles `J` with
//! a byte-skipping pass (a byte cannot return the walk to zero while
//! `|S| > 8`); below the `J ≥ 500` gate they are inapplicable without the
//! full counting scan. On random input `J ≈ √(2n/π)` (about 180 at 50 kb),
//! so that is the usual outcome for windows well below 1 Mb.

use crate::special::{erfc, fft, igamc, std_normal_cdf, RealFftPlan};
use crate::{Applicability, TestResult};
use qt_dram_core::BitVec;
use std::sync::{Arc, Mutex, PoisonError};

fn result(name: &'static str, p_value: f64) -> TestResult {
    TestResult {
        name,
        p_value: p_value.clamp(0.0, 1.0),
        applicability: Applicability::Applicable,
    }
}

/// An explicit "not applicable" result: the sequence failed the named
/// precondition, so no p-value exists (`NaN`, not a fake 0).
fn not_applicable(
    name: &'static str,
    requirement: &'static str,
    required: usize,
    actual: usize,
) -> TestResult {
    TestResult {
        name,
        p_value: f64::NAN,
        applicability: Applicability::NotApplicable { requirement, required, actual },
    }
}

/// 2.1 Frequency (monobit) test, via per-word `count_ones`.
pub fn monobit(bits: &BitVec) -> TestResult {
    let n = bits.len();
    if n == 0 {
        return not_applicable("monobit", "bits", 1, n);
    }
    // Σ(2·bit − 1) = 2·ones − n, same integer the reference accumulates.
    let sum = 2 * bits.count_ones() as i64 - n as i64;
    let s_obs = (sum.abs() as f64) / (n as f64).sqrt();
    result("monobit", erfc(s_obs / std::f64::consts::SQRT_2))
}

/// Bit-at-a-time reference for [`monobit`] (kept as the executable
/// specification; property-tested identical).
pub fn monobit_reference(bits: &BitVec) -> TestResult {
    let n = bits.len();
    if n == 0 {
        return not_applicable("monobit", "bits", 1, n);
    }
    let sum: i64 = bits.iter().map(|b| if b { 1i64 } else { -1 }).sum();
    let s_obs = (sum.abs() as f64) / (n as f64).sqrt();
    result("monobit", erfc(s_obs / std::f64::consts::SQRT_2))
}

/// 2.2 Frequency test within a block, via masked word scans.
pub fn frequency_within_block(bits: &BitVec, block_len: usize) -> TestResult {
    let n = bits.len();
    let m = block_len.max(2);
    let blocks = n / m;
    if blocks == 0 {
        return not_applicable("frequency_within_block", "bits", m, n);
    }
    let mut chi2 = 0.0;
    for b in 0..blocks {
        let ones = bits.count_ones_range(b * m, (b + 1) * m);
        let pi = ones as f64 / m as f64;
        chi2 += (pi - 0.5).powi(2);
    }
    chi2 *= 4.0 * m as f64;
    result("frequency_within_block", igamc(blocks as f64 / 2.0, chi2 / 2.0))
}

/// Bit-at-a-time reference for [`frequency_within_block`].
pub fn frequency_within_block_reference(bits: &BitVec, block_len: usize) -> TestResult {
    let n = bits.len();
    let m = block_len.max(2);
    let blocks = n / m;
    if blocks == 0 {
        return not_applicable("frequency_within_block", "bits", m, n);
    }
    let mut chi2 = 0.0;
    for b in 0..blocks {
        let ones = (0..m).filter(|i| bits.get(b * m + i)).count();
        let pi = ones as f64 / m as f64;
        chi2 += (pi - 0.5).powi(2);
    }
    chi2 *= 4.0 * m as f64;
    result("frequency_within_block", igamc(blocks as f64 / 2.0, chi2 / 2.0))
}

/// 2.3 Runs test, via word-wise transition counting.
pub fn runs(bits: &BitVec) -> TestResult {
    let n = bits.len();
    if n < 100 {
        return not_applicable("runs", "bits", 100, n);
    }
    let pi = bits.ones_fraction();
    if (pi - 0.5).abs() >= 2.0 / (n as f64).sqrt() {
        // Prerequisite frequency test fails decisively.
        return result("runs", 0.0);
    }
    let v = (bits.transitions() + 1) as f64;
    let num = (v - 2.0 * n as f64 * pi * (1.0 - pi)).abs();
    let den = 2.0 * (2.0 * n as f64).sqrt() * pi * (1.0 - pi);
    result("runs", erfc(num / den))
}

/// Bit-at-a-time reference for [`runs`].
pub fn runs_reference(bits: &BitVec) -> TestResult {
    let n = bits.len();
    if n < 100 {
        return not_applicable("runs", "bits", 100, n);
    }
    let pi = bits.ones_fraction();
    if (pi - 0.5).abs() >= 2.0 / (n as f64).sqrt() {
        return result("runs", 0.0);
    }
    let mut v = 1usize;
    for i in 1..n {
        if bits.get(i) != bits.get(i - 1) {
            v += 1;
        }
    }
    let num = (v as f64 - 2.0 * n as f64 * pi * (1.0 - pi)).abs();
    let den = 2.0 * (2.0 * n as f64).sqrt() * pi * (1.0 - pi);
    result("runs", erfc(num / den))
}

/// The SP 800-22 Table 2-3 parameters for the longest-run test: block
/// length, bucket bounds, and bucket probabilities for a given n.
#[allow(clippy::type_complexity)]
fn longest_run_params(n: usize) -> Option<(usize, Vec<usize>, Vec<f64>)> {
    if n >= 750_000 {
        Some((
            10_000,
            vec![10, 11, 12, 13, 14, 15, 16],
            vec![0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727],
        ))
    } else if n >= 6272 {
        Some((128, vec![4, 5, 6, 7, 8, 9], vec![0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124]))
    } else if n >= 128 {
        Some((8, vec![1, 2, 3, 4], vec![0.2148, 0.3672, 0.2305, 0.1875]))
    } else {
        None
    }
}

/// Longest run of consecutive ones in bits `[start, end)`, scanned one
/// storage word at a time: an all-ones chunk extends the carried run in one
/// step, otherwise the prefix/suffix run lengths come from trailing/leading
/// zero counts and the in-chunk maximum from the `w &= w >> 1` erosion loop.
fn longest_ones_run_in_range(bits: &BitVec, start: usize, end: usize) -> usize {
    let mut longest = 0usize;
    let mut current = 0usize;
    let mut pos = start;
    while pos < end {
        let nbits = (end - pos).min(64);
        let mask = if nbits == 64 { u64::MAX } else { (1u64 << nbits) - 1 };
        let w = bits.word_at(pos) & mask;
        if w == mask {
            current += nbits;
            longest = longest.max(current);
        } else {
            // Run continuing from the previous chunk into this one.
            let prefix = (!w).trailing_zeros() as usize;
            longest = longest.max(current + prefix);
            // Longest run fully inside the chunk: erode runs one bit per step.
            let mut t = w;
            let mut k = 0usize;
            while t != 0 {
                t &= t >> 1;
                k += 1;
            }
            longest = longest.max(k);
            // Run leaving the chunk (ones ending at bit nbits−1).
            let inv = !w & mask;
            current = nbits - 1 - (63 - inv.leading_zeros() as usize);
        }
        pos += nbits;
    }
    longest
}

/// 2.4 Test for the longest run of ones in a block, via word scans.
pub fn longest_run_of_ones(bits: &BitVec) -> TestResult {
    let n = bits.len();
    let Some((m, v_bounds, pi)) = longest_run_params(n) else {
        return not_applicable("longest_run_ones_in_a_block", "bits", 128, n);
    };
    let blocks = n / m;
    let k = pi.len() - 1;
    let mut counts = vec![0usize; pi.len()];
    for b in 0..blocks {
        let longest = longest_ones_run_in_range(bits, b * m, (b + 1) * m);
        let bucket = if longest <= v_bounds[0] {
            0
        } else if longest >= v_bounds[k] {
            k
        } else {
            longest - v_bounds[0]
        };
        counts[bucket] += 1;
    }
    let mut chi2 = 0.0;
    for i in 0..pi.len() {
        let expected = blocks as f64 * pi[i];
        chi2 += (counts[i] as f64 - expected).powi(2) / expected;
    }
    result("longest_run_ones_in_a_block", igamc(k as f64 / 2.0, chi2 / 2.0))
}

/// Bit-at-a-time reference for [`longest_run_of_ones`].
pub fn longest_run_of_ones_reference(bits: &BitVec) -> TestResult {
    let n = bits.len();
    let Some((m, v_bounds, pi)) = longest_run_params(n) else {
        return not_applicable("longest_run_ones_in_a_block", "bits", 128, n);
    };
    let blocks = n / m;
    let k = pi.len() - 1;
    let mut counts = vec![0usize; pi.len()];
    for b in 0..blocks {
        let mut longest = 0usize;
        let mut current = 0usize;
        for i in 0..m {
            if bits.get(b * m + i) {
                current += 1;
                longest = longest.max(current);
            } else {
                current = 0;
            }
        }
        let bucket = if longest <= v_bounds[0] {
            0
        } else if longest >= v_bounds[k] {
            k
        } else {
            longest - v_bounds[0]
        };
        counts[bucket] += 1;
    }
    let mut chi2 = 0.0;
    for i in 0..pi.len() {
        let expected = blocks as f64 * pi[i];
        chi2 += (counts[i] as f64 - expected).powi(2) / expected;
    }
    result("longest_run_ones_in_a_block", igamc(k as f64 / 2.0, chi2 / 2.0))
}

/// GF(2) rank of a 32×32 matrix by leading-bit basis insertion: each row
/// is reduced against the basis vectors indexed by their leading bit until
/// it vanishes (dependent) or leads with a free bit (a new basis vector).
/// No row swaps, no full elimination sweep — the hot path of
/// [`binary_matrix_rank`]; [`gf2_rank`], a different algorithm, serves the
/// reference.
fn gf2_rank_basis(rows: &[u32; 32]) -> usize {
    let mut basis = [0u32; 32];
    let mut rank = 0;
    for &row in rows {
        let mut v = row;
        while v != 0 {
            let lead = 31 - v.leading_zeros() as usize;
            if basis[lead] == 0 {
                basis[lead] = v;
                rank += 1;
                break;
            }
            v ^= basis[lead];
        }
    }
    rank
}

/// GF(2) rank by Gauss–Jordan elimination with row swaps (the reference).
fn gf2_rank(rows: &mut [u32], size: usize) -> usize {
    let mut rank = 0;
    for col in (0..size).rev() {
        let mask = 1u32 << col;
        if let Some(pivot) = (rank..size).find(|&r| rows[r] & mask != 0) {
            rows.swap(rank, pivot);
            for r in 0..size {
                if r != rank && rows[r] & mask != 0 {
                    rows[r] ^= rows[rank];
                }
            }
            rank += 1;
        }
    }
    rank
}

fn matrix_rank_p_value(f_full: usize, f_minus1: usize, f_rest: usize, matrices: usize) -> f64 {
    let (p_full, p_minus1) = (0.2888, 0.5776);
    let p_rest = 1.0 - p_full - p_minus1;
    let nm = matrices as f64;
    let chi2 = (f_full as f64 - p_full * nm).powi(2) / (p_full * nm)
        + (f_minus1 as f64 - p_minus1 * nm).powi(2) / (p_minus1 * nm)
        + (f_rest as f64 - p_rest * nm).powi(2) / (p_rest * nm);
    (-chi2 / 2.0).exp()
}

/// 2.5 Binary matrix rank test (32×32 matrices); each row is one 32-bit
/// word load + `reverse_bits` instead of 32 `get` calls.
pub fn binary_matrix_rank(bits: &BitVec) -> TestResult {
    const M: usize = 32;
    let n = bits.len();
    let matrices = n / (M * M);
    if matrices == 0 {
        return not_applicable("binary_matrix_rank", "bits", M * M, n);
    }
    let (mut f_full, mut f_minus1, mut f_rest) = (0usize, 0usize, 0usize);
    for mi in 0..matrices {
        let mut rows = [0u32; M];
        for (r, row) in rows.iter_mut().enumerate() {
            // Stream bit c of the row maps to matrix column bit M−1−c.
            let v = bits.word_at(mi * M * M + r * M) as u32;
            *row = v.reverse_bits();
        }
        match gf2_rank_basis(&rows) {
            r if r == M => f_full += 1,
            r if r == M - 1 => f_minus1 += 1,
            _ => f_rest += 1,
        }
    }
    result("binary_matrix_rank", matrix_rank_p_value(f_full, f_minus1, f_rest, matrices))
}

/// Bit-at-a-time reference for [`binary_matrix_rank`], ranking with the
/// elimination algorithm rather than basis insertion.
pub fn binary_matrix_rank_reference(bits: &BitVec) -> TestResult {
    const M: usize = 32;
    let n = bits.len();
    let matrices = n / (M * M);
    if matrices == 0 {
        return not_applicable("binary_matrix_rank", "bits", M * M, n);
    }
    let (mut f_full, mut f_minus1, mut f_rest) = (0usize, 0usize, 0usize);
    for mi in 0..matrices {
        let mut rows = [0u32; M];
        for (r, row) in rows.iter_mut().enumerate() {
            for c in 0..M {
                if bits.get(mi * M * M + r * M + c) {
                    *row |= 1 << (M - 1 - c);
                }
            }
        }
        match gf2_rank(&mut rows, M) {
            r if r == M => f_full += 1,
            r if r == M - 1 => f_minus1 += 1,
            _ => f_rest += 1,
        }
    }
    result("binary_matrix_rank", matrix_rank_p_value(f_full, f_minus1, f_rest, matrices))
}

/// Process-wide per-length [`RealFftPlan`] cache for the spectral test.
/// Building a plan's twiddle tables and bit-reversal permutation costs
/// more than the transform itself, so each length is planned once
/// per process and every thread shares it — a battery running on a freshly
/// spawned thread (a per-shard grader, a `pass_rate` worker) finds the plan
/// already built. Plans are keyed by power-of-two length, so the cache
/// holds at most one entry per bit width.
static DFT_PLANS: Mutex<Vec<Arc<RealFftPlan>>> = Mutex::new(Vec::new());

fn dft_plan(n: usize) -> Arc<RealFftPlan> {
    let mut plans = DFT_PLANS.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(plan) = plans.iter().find(|plan| plan.len() == n) {
        return Arc::clone(plan);
    }
    // Built under the lock: a second thread asking for the same length
    // waits for this plan instead of building its own. A panic in the
    // build leaves the list untouched, so a poisoned lock is still sound.
    let plan = Arc::new(RealFftPlan::new(n));
    plans.push(Arc::clone(&plan));
    plan
}

/// 2.6 Discrete Fourier transform (spectral) test, via the cached
/// real-input FFT plan ([`RealFftPlan`]): half the butterfly work of the
/// complex transform and no per-call trigonometry. The p-value is pinned to
/// [`dft_reference`] — magnitudes may differ by ulps, but the statistic is
/// the integer count of peaks below the threshold, which absorbs them.
pub fn dft(bits: &BitVec) -> TestResult {
    let n_full = bits.len();
    if n_full < 1000 {
        return not_applicable("dft", "bits", 1000, n_full);
    }
    // Use the largest power-of-two prefix for the radix-2 FFT.
    let n = 1usize << (usize::BITS - 1 - n_full.leading_zeros());
    let input: Vec<f64> = (0..n).map(|i| if bits.get(i) { 1.0 } else { -1.0 }).collect();
    let mut magnitudes = Vec::new();
    dft_plan(n).magnitudes_into(&input, &mut magnitudes);
    let threshold = ((1.0f64 / 0.05).ln() * n as f64).sqrt();
    let half = n / 2;
    let below = magnitudes.iter().filter(|&&m| m < threshold).count();
    let n0 = 0.95 * half as f64;
    let d = (below as f64 - n0) / (n as f64 * 0.95 * 0.05 / 4.0).sqrt();
    result("dft", erfc(d.abs() / std::f64::consts::SQRT_2))
}

/// Frozen reference twin of [`dft`]: the original full-length complex-FFT
/// implementation, kept as the executable specification the real-input
/// rewrite is pinned against.
pub fn dft_reference(bits: &BitVec) -> TestResult {
    let n_full = bits.len();
    if n_full < 1000 {
        return not_applicable("dft", "bits", 1000, n_full);
    }
    let n = 1usize << (usize::BITS - 1 - n_full.leading_zeros());
    let mut re: Vec<f64> = (0..n).map(|i| if bits.get(i) { 1.0 } else { -1.0 }).collect();
    let mut im = vec![0.0; n];
    fft(&mut re, &mut im);
    let threshold = ((1.0f64 / 0.05).ln() * n as f64).sqrt();
    let half = n / 2;
    let below = (0..half).filter(|&k| (re[k] * re[k] + im[k] * im[k]).sqrt() < threshold).count();
    let n0 = 0.95 * half as f64;
    let d = (below as f64 - n0) / (n as f64 * 0.95 * 0.05 / 4.0).sqrt();
    result("dft", erfc(d.abs() / std::f64::consts::SQRT_2))
}

/// Counts exact template matches over 64 candidate offsets at a time: lane
/// `i` of the accumulator survives iff the window starting at
/// `start + off + i` equals the template. `template_bit(j)` gives the
/// template's j-th bit; candidate windows may read past `positions` (the
/// number of valid start offsets) — those lanes are masked out up front.
fn bitsliced_template_count<F: Fn(usize) -> bool>(
    bits: &BitVec,
    start: usize,
    positions: usize,
    m: usize,
    template_bit: F,
) -> usize {
    let mut count = 0usize;
    let mut off = 0usize;
    while off < positions {
        let lanes = (positions - off).min(64);
        let mut acc = if lanes == 64 { u64::MAX } else { (1u64 << lanes) - 1 };
        for j in 0..m {
            let w = bits.word_at(start + off + j);
            acc &= if template_bit(j) { w } else { !w };
            if acc == 0 {
                break;
            }
        }
        count += acc.count_ones() as usize;
        off += 64;
    }
    count
}

/// 2.7 Non-overlapping template matching test (template `0…01` of length m),
/// via 64-offset-at-a-time bit-sliced matching.
///
/// The specification's greedy scan (skip m positions after a match) counts
/// exactly the set of all match positions for this template, because two
/// matches can never overlap: a match ends in a 1, and every stream position
/// inside a hypothetical overlapping later match (other than its last) must
/// be 0. The bit-sliced scan therefore simply counts all match positions.
///
/// # Panics
///
/// Panics if `m == 0` (the reference implementation would loop forever).
pub fn non_overlapping_template_matching(bits: &BitVec, m: usize) -> TestResult {
    assert!(m >= 1, "template length must be at least 1");
    let n = bits.len();
    let blocks = 8usize;
    let block_len = n / blocks;
    if block_len < 2 * m {
        return not_applicable("non_overlapping_template_matching", "bits", 2 * m * blocks, n);
    }
    let mu = (block_len - m + 1) as f64 / 2f64.powi(m as i32);
    let sigma2 = block_len as f64
        * (1.0 / 2f64.powi(m as i32) - (2.0 * m as f64 - 1.0) / 2f64.powi(2 * m as i32));
    let mut chi2 = 0.0;
    for b in 0..blocks {
        let count = bitsliced_template_count(
            bits,
            b * block_len,
            block_len - m + 1,
            m,
            |j| j == m - 1, // m−1 zeros followed by a one
        );
        chi2 += (count as f64 - mu).powi(2) / sigma2;
    }
    result(
        "non_overlapping_template_matching",
        igamc(blocks as f64 / 2.0, chi2 / 2.0),
    )
}

/// Bit-at-a-time greedy-scan reference for
/// [`non_overlapping_template_matching`].
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn non_overlapping_template_matching_reference(bits: &BitVec, m: usize) -> TestResult {
    assert!(m >= 1, "template length must be at least 1");
    let n = bits.len();
    let blocks = 8usize;
    let block_len = n / blocks;
    if block_len < 2 * m {
        return not_applicable("non_overlapping_template_matching", "bits", 2 * m * blocks, n);
    }
    // Template: m-1 zeros followed by a one.
    let template: Vec<bool> = (0..m).map(|i| i == m - 1).collect();
    let mu = (block_len - m + 1) as f64 / 2f64.powi(m as i32);
    let sigma2 = block_len as f64
        * (1.0 / 2f64.powi(m as i32) - (2.0 * m as f64 - 1.0) / 2f64.powi(2 * m as i32));
    let mut chi2 = 0.0;
    for b in 0..blocks {
        let start = b * block_len;
        let mut count = 0usize;
        let mut i = 0usize;
        while i + m <= block_len {
            let matched = (0..m).all(|j| bits.get(start + i + j) == template[j]);
            if matched {
                count += 1;
                i += m;
            } else {
                i += 1;
            }
        }
        chi2 += (count as f64 - mu).powi(2) / sigma2;
    }
    result(
        "non_overlapping_template_matching",
        igamc(blocks as f64 / 2.0, chi2 / 2.0),
    )
}

/// 2.8 Overlapping template matching test (all-ones template of length m),
/// via 64-offset-at-a-time bit-sliced matching.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn overlapping_template_matching(bits: &BitVec, m: usize) -> TestResult {
    assert!(m >= 1, "template length must be at least 1");
    let n = bits.len();
    let block_len = 1032usize;
    let blocks = n / block_len;
    if blocks < 5 {
        return not_applicable("overlapping_template_matching", "blocks", 5, blocks);
    }
    const PI: [f64; 6] = [0.364091, 0.185659, 0.139381, 0.100571, 0.0704323, 0.139865];
    let mut counts = [0usize; 6];
    for b in 0..blocks {
        let hits =
            bitsliced_template_count(bits, b * block_len, block_len - m + 1, m, |_| true);
        counts[hits.min(5)] += 1;
    }
    let mut chi2 = 0.0;
    for i in 0..6 {
        let expected = blocks as f64 * PI[i];
        chi2 += (counts[i] as f64 - expected).powi(2) / expected;
    }
    result("overlapping_template_matching", igamc(2.5, chi2 / 2.0))
}

/// Bit-at-a-time reference for [`overlapping_template_matching`].
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn overlapping_template_matching_reference(bits: &BitVec, m: usize) -> TestResult {
    assert!(m >= 1, "template length must be at least 1");
    let n = bits.len();
    let block_len = 1032usize;
    let blocks = n / block_len;
    if blocks < 5 {
        return not_applicable("overlapping_template_matching", "blocks", 5, blocks);
    }
    const PI: [f64; 6] = [0.364091, 0.185659, 0.139381, 0.100571, 0.0704323, 0.139865];
    let mut counts = [0usize; 6];
    for b in 0..blocks {
        let start = b * block_len;
        let mut hits = 0usize;
        for i in 0..=(block_len - m) {
            if (0..m).all(|j| bits.get(start + i + j)) {
                hits += 1;
            }
        }
        counts[hits.min(5)] += 1;
    }
    let mut chi2 = 0.0;
    for i in 0..6 {
        let expected = blocks as f64 * PI[i];
        chi2 += (counts[i] as f64 - expected).powi(2) / expected;
    }
    result("overlapping_template_matching", igamc(2.5, chi2 / 2.0))
}

/// (L, minimum n, expected value, variance) per SP 800-22 Table 2-4;
/// Q = 10·2^L initialisation blocks.
const MAURER_TABLE: [(usize, usize, f64, f64); 6] = [
    (6, 387_840, 5.2177052, 2.954),
    (7, 904_960, 6.1962507, 3.125),
    (8, 2_068_480, 7.1836656, 3.238),
    (9, 4_654_080, 8.1764248, 3.311),
    (10, 10_342_400, 9.1723243, 3.356),
    (11, 22_753_280, 10.170032, 3.384),
];

fn maurers_p_value(fn_stat: f64, l: usize, k: usize, expected: f64, variance: f64) -> f64 {
    let c = 0.7 - 0.8 / l as f64 + (4.0 + 32.0 / l as f64) * (k as f64).powf(-3.0 / l as f64) / 15.0;
    let sigma = c * (variance / k as f64).sqrt();
    erfc(((fn_stat - expected) / (std::f64::consts::SQRT_2 * sigma)).abs())
}

/// 2.9 Maurer's "universal statistical" test, with word-at-a-time block
/// extraction.
pub fn maurers_universal(bits: &BitVec) -> TestResult {
    let n = bits.len();
    let Some(&(l, _, expected, variance)) =
        MAURER_TABLE.iter().rev().find(|&&(_, min_n, _, _)| n >= min_n)
    else {
        // Below the smallest tabulated length the statistic's reference
        // distribution is unknown — the spec marks the test inapplicable.
        return not_applicable("maurers_universal", "bits", MAURER_TABLE[0].1, n);
    };
    let q = 10 * (1usize << l);
    let k = n / l - q;
    let fn_stat = maurers_fn_statistic(bits, l, q, k);
    result("maurers_universal", maurers_p_value(fn_stat, l, k, expected, variance))
}

/// Bit-at-a-time reference for [`maurers_universal`].
pub fn maurers_universal_reference(bits: &BitVec) -> TestResult {
    let n = bits.len();
    let Some(&(l, _, expected, variance)) =
        MAURER_TABLE.iter().rev().find(|&&(_, min_n, _, _)| n >= min_n)
    else {
        return not_applicable("maurers_universal", "bits", MAURER_TABLE[0].1, n);
    };
    let q = 10 * (1usize << l);
    let k = n / l - q;
    let fn_stat = maurers_fn_statistic_reference(bits, l, q, k);
    result("maurers_universal", maurers_p_value(fn_stat, l, k, expected, variance))
}

/// Maurer's fₙ statistic over `q` initialisation and `k` test blocks of `l`
/// bits, extracting each block with one word load + bit-reverse. Split out so
/// the SP 800-22 §2.9.8 worked example (which uses toy parameters far below
/// the tabulated lengths) can be checked exactly.
fn maurers_fn_statistic(bits: &BitVec, l: usize, q: usize, k: usize) -> f64 {
    let mut last_seen = vec![0usize; 1 << l];
    // The reference builds the block MSB-first (stream bit i·l is the high
    // bit); `word_at` is LSB-first, so reverse into the same value.
    let word = |i: usize| -> usize { (bits.word_at(i * l).reverse_bits() >> (64 - l)) as usize };
    for i in 0..q {
        last_seen[word(i)] = i + 1;
    }
    let mut sum = 0.0;
    for i in q..q + k {
        let w = word(i);
        sum += ((i + 1 - last_seen[w]) as f64).log2();
        last_seen[w] = i + 1;
    }
    sum / k as f64
}

/// Bit-at-a-time reference for [`maurers_fn_statistic`].
fn maurers_fn_statistic_reference(bits: &BitVec, l: usize, q: usize, k: usize) -> f64 {
    let mut last_seen = vec![0usize; 1 << l];
    let word = |i: usize| -> usize {
        (0..l).fold(0usize, |acc, j| (acc << 1) | bits.get(i * l + j) as usize)
    };
    for i in 0..q {
        last_seen[word(i)] = i + 1;
    }
    let mut sum = 0.0;
    for i in q..q + k {
        let w = word(i);
        sum += ((i + 1 - last_seen[w]) as f64).log2();
        last_seen[w] = i + 1;
    }
    sum / k as f64
}

fn berlekamp_massey(bits: &[bool]) -> usize {
    let n = bits.len();
    let mut c = vec![false; n];
    let mut b = vec![false; n];
    c[0] = true;
    b[0] = true;
    let (mut l, mut m) = (0usize, -1isize);
    for i in 0..n {
        let mut d = bits[i];
        for j in 1..=l {
            d ^= c[j] && bits[i - j];
        }
        if d {
            let t = c.clone();
            let shift = (i as isize - m) as usize;
            for j in 0..n - shift {
                if b[j] {
                    c[j + shift] ^= true;
                }
            }
            if l <= i / 2 {
                l = i + 1 - l;
                m = i as isize;
                b = t;
            }
        }
    }
    l
}

/// Transposes a 64×64 bit matrix in place (row `r` = `square[r]`, column
/// `c` = bit `c`): afterwards bit `c` of row `r` is the former bit `r` of
/// row `c`. Six rounds of block swaps, halving the block size each round.
fn transpose_64x64(square: &mut [u64; 64]) {
    let mut width = 32;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while width != 0 {
        // Swap the upper-right and lower-left `width`-blocks of each
        // 2·width square on the diagonal.
        let mut row = 0;
        while row < 64 {
            let t = ((square[row] >> width) ^ square[row + width]) & mask;
            square[row] ^= t << width;
            square[row + width] ^= t;
            row = (row + width + 1) & !width;
        }
        width >>= 1;
        mask ^= mask << width;
    }
}

/// Berlekamp–Massey over up to 64 blocks at once, bit-sliced: lane `k` of
/// every `u64` belongs to block `k`, so one AND/XOR step advances all
/// blocks. Per lane it performs exactly the updates of the bit-at-a-time
/// [`berlekamp_massey`] (`C ^= d·x^(i−m)·B`; on a length change `B ← C_old`,
/// `m ← i`, `L ← i + 1 − L`) and returns the same linear complexities.
///
/// The state is allocated once per block length and reused for every batch.
struct SlicedBerlekampMassey {
    /// The batch transposed and reversed: bit `k` of `planes[M − 1 − t]` is
    /// bit `t` of block `k`. With the stream reversed, the discrepancy
    /// `⊕_j C[j] & s[i − j]` is a forward AND/XOR reduction over
    /// `planes[M − 1 − i..]`.
    planes: Vec<u64>,
    /// Connection polynomials: bit `k` of `c[j]` is coefficient `j` of lane
    /// `k`'s C. Invariant: `deg C_k ≤ L_k`.
    c: Vec<u64>,
    /// `P = x^(i−m)·B`, kept shifted: coefficient `j` of step `i`'s P sits
    /// at `p[M − i + j]`, so the per-step `P ← x·P` is a move of the window
    /// base. Invariant: `deg P_k ≤ i + 1 − L_k`.
    p: Vec<u64>,
    /// Per-lane linear complexity `L_k`.
    lengths: [usize; 64],
    /// `eligible_at[t]`: lanes that may change length again from step `t`
    /// on (`t = 2·L_k` after their last change).
    eligible_at: Vec<u64>,
}

impl SlicedBerlekampMassey {
    fn new(block_len: usize) -> Self {
        SlicedBerlekampMassey {
            planes: vec![0; block_len],
            c: vec![0; block_len + 1],
            p: vec![0; 2 * block_len + 2],
            lengths: [0; 64],
            eligible_at: vec![0; block_len],
        }
    }

    /// Linear complexities of the `lanes ≤ 64` consecutive blocks of
    /// `planes.len()` bits starting at bit `start` of `bits`.
    fn run(&mut self, bits: &BitVec, start: usize, lanes: usize) -> &[usize] {
        debug_assert!((1..=64).contains(&lanes));
        let m = self.planes.len();
        let planes = &mut self.planes;
        // Transpose 64 bits of every block at a time: row k of the square
        // is block k's chunk, so after the transpose row t holds bit t of
        // every lane. Bits past the block are masked off (they belong to the
        // next block).
        let mut square = [0u64; 64];
        for chunk in (0..m).step_by(64) {
            let width = (m - chunk).min(64);
            let mask = if width == 64 { !0 } else { (1u64 << width) - 1 };
            for (k, row) in square.iter_mut().enumerate() {
                *row = if k < lanes { bits.word_at(start + k * m + chunk) & mask } else { 0 };
            }
            transpose_64x64(&mut square);
            for (t, &row) in square[..width].iter().enumerate() {
                planes[m - 1 - chunk - t] = row;
            }
        }
        let (c, p, lengths) = (&mut self.c, &mut self.p, &mut self.lengths);
        c.fill(0);
        c[0] = !0;
        p.fill(0);
        let mut base = m;
        p[base + 1] = !0; // step 0: P = x^(0−(−1))·1 = x
        lengths.fill(0);
        let eligible_at = &mut self.eligible_at;
        eligible_at.fill(0);
        // Lanes whose length may change at this step (2·L_k ≤ i): all at
        // first, then a changed lane rejoins at step 2·L_k, since it cannot
        // change again before.
        let mut eligible = !0u64;
        let (mut max_len, mut min_len) = (0usize, 0usize);
        for i in 0..m {
            eligible |= eligible_at[i];
            // Lanes with L_k < j have C_k[j] = 0, so the max L bounds the sum.
            let d = c[..=max_len]
                .iter()
                .zip(&planes[m - 1 - i..])
                .fold(0u64, |acc, (&cj, &sj)| acc ^ (cj & sj));
            if d != 0 {
                let changed = d & eligible;
                // C ^= d & P, and P ← (changed ? C_old : P) before the shift.
                // Changed lanes have L_k ≤ i/2, so deg C_old ≤ i + 1 − L_k
                // too: the P bound covers both polynomials.
                let hi = i + 1 - min_len;
                for (cj, pj) in c[..=hi].iter_mut().zip(&mut p[base..=base + hi]) {
                    let (old_c, old_p) = (*cj, *pj);
                    *cj = old_c ^ (d & old_p);
                    *pj = (changed & old_c) | (!changed & old_p);
                }
                eligible &= !changed;
                let mut pending = changed;
                let mut min_changed = false;
                while pending != 0 {
                    let k = pending.trailing_zeros() as usize;
                    pending &= pending - 1;
                    min_changed |= lengths[k] == min_len;
                    lengths[k] = i + 1 - lengths[k];
                    max_len = max_len.max(lengths[k]);
                    if let Some(slot) = eligible_at.get_mut(2 * lengths[k]) {
                        *slot |= 1 << k;
                    }
                }
                if min_changed {
                    min_len = lengths[..lanes].iter().copied().min().unwrap_or(0);
                }
            }
            // P ← x·P: p[base − 1] was never written, so the new x⁰ term is 0.
            base -= 1;
        }
        &lengths[..lanes]
    }
}

const LINEAR_COMPLEXITY_PI: [f64; 7] = [0.010417, 0.03125, 0.125, 0.5, 0.25, 0.0625, 0.020833];

fn linear_complexity_p_value(counts: &[usize; 7], blocks: usize) -> f64 {
    let mut chi2 = 0.0;
    for i in 0..7 {
        let expected = blocks as f64 * LINEAR_COMPLEXITY_PI[i];
        chi2 += (counts[i] as f64 - expected).powi(2) / expected;
    }
    igamc(3.0, chi2 / 2.0)
}

fn linear_complexity_bucket(l: f64, m: usize, mu: f64) -> usize {
    let sign_m = if m % 2 == 0 { 1.0 } else { -1.0 };
    let t = sign_m * (l - mu) + 2.0 / 9.0;
    if t <= -2.5 {
        0
    } else if t <= -1.5 {
        1
    } else if t <= -0.5 {
        2
    } else if t <= 0.5 {
        3
    } else if t <= 1.5 {
        4
    } else if t <= 2.5 {
        5
    } else {
        6
    }
}

fn linear_complexity_mu(m: usize) -> f64 {
    // sign_m = (-1)^M; the specification's mean uses (-1)^(M+1) = -sign_m.
    let sign_m = if m % 2 == 0 { 1.0 } else { -1.0 };
    m as f64 / 2.0 + (9.0 - sign_m) / 36.0 - (m as f64 / 3.0 + 2.0 / 9.0) / 2f64.powi(m as i32)
}

/// 2.10 Linear complexity test (block length M, typically 500), with one
/// bit-sliced Berlekamp–Massey run per 64 blocks.
pub fn linear_complexity(bits: &BitVec, block_len: usize) -> TestResult {
    let n = bits.len();
    let m = block_len;
    let blocks = n / m;
    if blocks < 10 {
        return not_applicable("linear_complexity", "blocks", 10, blocks);
    }
    let mu = linear_complexity_mu(m);
    let mut bm = SlicedBerlekampMassey::new(m);
    let mut counts = [0usize; 7];
    for first in (0..blocks).step_by(64) {
        for &l in bm.run(bits, first * m, (blocks - first).min(64)) {
            counts[linear_complexity_bucket(l as f64, m, mu)] += 1;
        }
    }
    result("linear_complexity", linear_complexity_p_value(&counts, blocks))
}

/// Bit-at-a-time reference for [`linear_complexity`].
pub fn linear_complexity_reference(bits: &BitVec, block_len: usize) -> TestResult {
    let n = bits.len();
    let m = block_len;
    let blocks = n / m;
    if blocks < 10 {
        return not_applicable("linear_complexity", "blocks", 10, blocks);
    }
    let mu = linear_complexity_mu(m);
    let mut counts = [0usize; 7];
    for b in 0..blocks {
        let block: Vec<bool> = (0..m).map(|i| bits.get(b * m + i)).collect();
        let l = berlekamp_massey(&block) as f64;
        counts[linear_complexity_bucket(l, m, mu)] += 1;
    }
    result("linear_complexity", linear_complexity_p_value(&counts, blocks))
}

/// Occurrence counts of all 2^m cyclic m-bit windows of the stream (window
/// at `i` covers bits `i..i+m−1` mod n, stream bit `i` as the MSB), via a
/// sliding index (`idx = ((idx << 1) | bit) & mask`) fed one storage word at
/// a time. O(n + m) instead of the reference's O(n·m).
fn window_counts(bits: &BitVec, m: usize) -> Vec<u64> {
    let n = bits.len();
    debug_assert!(m >= 1 && n >= 1);
    let mask = (1usize << m) - 1;
    let mut counts = vec![0u64; 1 << m];
    // Seed with the m−1 bits preceding the first incoming bit (bits 0..m−1).
    let mut idx = 0usize;
    for j in 0..m - 1 {
        idx = ((idx << 1) | bits.get(j % n) as usize) & mask;
    }
    // Window i is completed by incoming bit (i+m−1) mod n: feed stream
    // positions m−1..n−1 and then the wrap-around 0..m−2, word-at-a-time.
    {
        let mut feed = |from: usize, to: usize| {
            let mut pos = from;
            while pos < to {
                let nbits = (to - pos).min(64);
                let w = bits.word_at(pos);
                for k in 0..nbits {
                    idx = ((idx << 1) | ((w >> k) & 1) as usize) & mask;
                    counts[idx] += 1;
                }
                pos += nbits;
            }
        };
        let split = (m - 1).min(n);
        feed(split, n);
        feed(0, split);
    }
    counts
}

/// Sums adjacent pairs: the (m−1)-bit window at `i` is the m-bit window's
/// high m−1 bits, so `counts_{m−1}[v] = counts_m[2v] + counts_m[2v+1]`.
fn halve_window_counts(counts: &[u64]) -> Vec<u64> {
    counts.chunks(2).map(|pair| pair[0] + pair[1]).collect()
}

/// ψ²_m from a window-count table (SP 800-22 §2.11.4 step 3); `mm == 0`
/// short-circuits to 0 exactly like the reference.
fn psi_squared_from_counts(counts: &[u64], n: usize, mm: usize) -> f64 {
    if mm == 0 {
        return 0.0;
    }
    let sum_sq: f64 = counts.iter().map(|&c| (c as f64).powi(2)).sum();
    2f64.powi(mm as i32) / n as f64 * sum_sq - n as f64
}

/// Bit-at-a-time ψ²_m (the reference path's helper).
fn psi_squared(bits: &BitVec, m: usize) -> f64 {
    if m == 0 {
        return 0.0;
    }
    let n = bits.len();
    let mut counts = vec![0u64; 1 << m];
    for i in 0..n {
        let mut idx = 0usize;
        for j in 0..m {
            idx = (idx << 1) | bits.get((i + j) % n) as usize;
        }
        counts[idx] += 1;
    }
    let sum_sq: f64 = counts.iter().map(|&c| (c as f64).powi(2)).sum();
    2f64.powi(m as i32) / n as f64 * sum_sq - n as f64
}

fn serial_effective_m(n: usize, m: usize) -> usize {
    // Keep m well below log2(n) as the specification requires; the floor of
    // 1 keeps a caller's m = 0 well-defined (ψ² of the empty pattern is 0,
    // so the deltas degenerate cleanly) instead of underflowing.
    let max_m = ((n as f64).log2() as usize).saturating_sub(3).max(3);
    m.clamp(1, max_m)
}

fn serial_p_values(psi_m: f64, psi_m1: f64, psi_m2: f64, m: usize) -> (f64, f64) {
    let d1 = psi_m - psi_m1;
    let d2 = psi_m - 2.0 * psi_m1 + psi_m2;
    let p1 = igamc(2f64.powi(m as i32 - 2), d1 / 2.0);
    let p2 = igamc(2f64.powi(m as i32 - 3), d2 / 2.0);
    (p1, p2)
}

/// 2.11 Serial test (pattern length m; returns the smaller of the two
/// p-values). One word-fed counting pass produces ψ²(m); ψ²(m−1) and
/// ψ²(m−2) are derived from the same counts by pairwise summing.
pub fn serial(bits: &BitVec, m: usize) -> TestResult {
    let n = bits.len();
    let m = serial_effective_m(n, m);
    if n < 1 << (m + 2) {
        return not_applicable("serial", "bits", 1 << (m + 2), n);
    }
    let counts_m = window_counts(bits, m);
    let counts_m1 = halve_window_counts(&counts_m);
    let psi_m = psi_squared_from_counts(&counts_m, n, m);
    let psi_m1 = psi_squared_from_counts(&counts_m1, n, m - 1);
    let psi_m2 = if m >= 2 {
        psi_squared_from_counts(&halve_window_counts(&counts_m1), n, m - 2)
    } else {
        0.0
    };
    let (p1, p2) = serial_p_values(psi_m, psi_m1, psi_m2, m);
    result("serial", p1.min(p2))
}

/// Bit-at-a-time reference for [`serial`].
pub fn serial_reference(bits: &BitVec, m: usize) -> TestResult {
    let n = bits.len();
    let m = serial_effective_m(n, m);
    if n < 1 << (m + 2) {
        return not_applicable("serial", "bits", 1 << (m + 2), n);
    }
    let psi_m = psi_squared(bits, m);
    let psi_m1 = psi_squared(bits, m - 1);
    let psi_m2 = psi_squared(bits, m.saturating_sub(2));
    let (p1, p2) = serial_p_values(psi_m, psi_m1, psi_m2, m);
    result("serial", p1.min(p2))
}

/// φ(m) from a window-count table (SP 800-22 §2.12.4 step 5); `mm == 0`
/// short-circuits to 0 exactly like the reference.
fn phi_from_counts(counts: &[u64], n: usize, mm: usize) -> f64 {
    if mm == 0 {
        return 0.0;
    }
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n as f64;
            p * p.ln()
        })
        .sum()
}

fn approximate_entropy_effective_m(n: usize, m: usize) -> usize {
    let max_m = ((n as f64).log2() as usize).saturating_sub(6).max(2);
    m.min(max_m)
}

/// 2.12 Approximate entropy test (pattern length m). One word-fed counting
/// pass produces the (m+1)-window counts; the m-window counts for φ(m) are
/// derived from it by pairwise summing.
pub fn approximate_entropy(bits: &BitVec, m: usize) -> TestResult {
    let n = bits.len();
    let m = approximate_entropy_effective_m(n, m);
    if n < 1 << (m + 5) {
        return not_applicable("approximate_entropy", "bits", 1 << (m + 5), n);
    }
    let counts_m1 = window_counts(bits, m + 1);
    let counts_m = halve_window_counts(&counts_m1);
    let ap_en = phi_from_counts(&counts_m, n, m) - phi_from_counts(&counts_m1, n, m + 1);
    let chi2 = 2.0 * n as f64 * (std::f64::consts::LN_2 - ap_en);
    result("approximate_entropy", igamc(2f64.powi(m as i32 - 1), chi2 / 2.0))
}

/// Bit-at-a-time reference for [`approximate_entropy`].
pub fn approximate_entropy_reference(bits: &BitVec, m: usize) -> TestResult {
    let n = bits.len();
    let m = approximate_entropy_effective_m(n, m);
    if n < 1 << (m + 5) {
        return not_applicable("approximate_entropy", "bits", 1 << (m + 5), n);
    }
    let phi = |mm: usize| -> f64 {
        if mm == 0 {
            return 0.0;
        }
        let mut counts = vec![0u64; 1 << mm];
        for i in 0..n {
            let mut idx = 0usize;
            for j in 0..mm {
                idx = (idx << 1) | bits.get((i + j) % n) as usize;
            }
            counts[idx] += 1;
        }
        counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / n as f64;
                p * p.ln()
            })
            .sum()
    };
    let ap_en = phi(m) - phi(m + 1);
    let chi2 = 2.0 * n as f64 * (std::f64::consts::LN_2 - ap_en);
    result("approximate_entropy", igamc(2f64.powi(m as i32 - 1), chi2 / 2.0))
}

/// `(Δ, max prefix, min prefix)` of the ±1 walk of each byte value,
/// LSB-first — the per-byte step of the word-parallel cumulative-sums walk.
const fn cusum_byte_table() -> [(i8, i8, i8); 256] {
    let mut table = [(0i8, 0i8, 0i8); 256];
    let mut byte = 0usize;
    while byte < 256 {
        let (mut s, mut max, mut min) = (0i8, -9i8, 9i8);
        let mut k = 0;
        while k < 8 {
            s += if (byte >> k) & 1 == 1 { 1 } else { -1 };
            if s > max {
                max = s;
            }
            if s < min {
                min = s;
            }
            k += 1;
        }
        table[byte] = (s, max, min);
        byte += 1;
    }
    table
}

static CUSUM_TABLE: [(i8, i8, i8); 256] = cusum_byte_table();

fn cumulative_sums_p_value(z: i64, n: usize) -> f64 {
    let z = z as f64;
    let n_f = n as f64;
    let sqrt_n = n_f.sqrt();
    let mut p = 1.0;
    let k_lo = ((-n_f / z + 1.0) / 4.0).floor() as i64;
    let k_hi = ((n_f / z - 1.0) / 4.0).floor() as i64;
    for k in k_lo..=k_hi {
        p -= std_normal_cdf((4.0 * k as f64 + 1.0) * z / sqrt_n)
            - std_normal_cdf((4.0 * k as f64 - 1.0) * z / sqrt_n);
    }
    let k_lo = ((-n_f / z - 3.0) / 4.0).floor() as i64;
    for k in k_lo..=k_hi {
        p += std_normal_cdf((4.0 * k as f64 + 3.0) * z / sqrt_n)
            - std_normal_cdf((4.0 * k as f64 + 1.0) * z / sqrt_n);
    }
    p
}

/// 2.13 Cumulative sums (forward) test: the running-extreme walk advances a
/// byte per step through a 256-entry `(Δ, max prefix, min prefix)` table;
/// the maximum |S| over a byte is attained at the byte's max or min prefix,
/// so only those two candidates are checked against the running extreme.
pub fn cumulative_sums(bits: &BitVec) -> TestResult {
    let n = bits.len();
    if n < 100 {
        return not_applicable("cumulative_sums", "bits", 100, n);
    }
    let mut s = 0i64;
    let mut z = 0i64;
    let full_words = n / 64;
    for &w in &bits.words()[..full_words] {
        for byte in w.to_le_bytes() {
            let (delta, max, min) = CUSUM_TABLE[byte as usize];
            z = z.max((s + max as i64).abs()).max((s + min as i64).abs());
            s += delta as i64;
        }
    }
    for i in full_words * 64..n {
        s += if bits.get(i) { 1 } else { -1 };
        z = z.max(s.abs());
    }
    result("cumulative_sums", cumulative_sums_p_value(z, n))
}

/// Bit-at-a-time reference for [`cumulative_sums`].
pub fn cumulative_sums_reference(bits: &BitVec) -> TestResult {
    let n = bits.len();
    if n < 100 {
        return not_applicable("cumulative_sums", "bits", 100, n);
    }
    let mut s = 0i64;
    let mut z = 0i64;
    for b in bits.iter() {
        s += if b { 1 } else { -1 };
        z = z.max(s.abs());
    }
    result("cumulative_sums", cumulative_sums_p_value(z, n))
}

/// One counting pass of the ±1 random walk: everything the two excursion
/// tests need — the cycle count `J`, the per-cycle visit-count buckets for
/// the eight excursion states (|x| ≤ 4, bucketed at `min(visits, 5)`), and
/// the whole-walk visit totals for the 18 variant states (|x| ≤ 9) — without
/// materialising per-cycle state vectors. The reference implementations
/// allocate one `Vec<i64>` per cycle (O(n) heap churn over the walk); this
/// scan keeps O(1) state and produces the *same integers*, so the derived
/// χ²/p-values are bit-identical (pinned by proptest against the references).
struct ExcursionScan {
    /// Number of zero-crossing cycles (a non-empty tail counts as one).
    j: usize,
    /// `bucketed[state][k]` = cycles that visited excursion state
    /// `EXCURSION_STATES[state]` exactly `k` times (`k = 5` means ≥ 5).
    bucketed: [[usize; 6]; 8],
    /// Total visits to variant state `x` over the whole walk, indexed by
    /// [`variant_state_index`].
    totals: [usize; 18],
}

/// The eight states of the random excursions test, in SP 800-22 §2.14 order.
const EXCURSION_STATES: [i64; 8] = [-4, -3, -2, -1, 1, 2, 3, 4];

/// Index of excursion state `x ∈ {±1..±4}` in [`EXCURSION_STATES`].
fn excursion_state_index(x: i64) -> usize {
    if x < 0 { (x + 4) as usize } else { (x + 3) as usize }
}

/// Index of variant state `x ∈ {±1..±9}` (ascending, zero skipped).
fn variant_state_index(x: i64) -> usize {
    if x < 0 { (x + 9) as usize } else { (x + 8) as usize }
}

fn excursion_scan(bits: &BitVec) -> ExcursionScan {
    let mut scan = ExcursionScan { j: 0, bucketed: [[0; 6]; 8], totals: [0; 18] };
    let mut visits = [0usize; 8];
    let mut s = 0i64;
    let mut steps_since_zero = 0usize;
    fn flush(visits: &mut [usize; 8], scan: &mut ExcursionScan) {
        for (state, v) in visits.iter_mut().enumerate() {
            scan.bucketed[state][(*v).min(5)] += 1;
            *v = 0;
        }
        scan.j += 1;
    }
    for b in bits.iter() {
        s += if b { 1 } else { -1 };
        steps_since_zero += 1;
        if s == 0 {
            flush(&mut visits, &mut scan);
            steps_since_zero = 0;
        } else {
            if s.abs() <= 4 {
                visits[excursion_state_index(s)] += 1;
            }
            if s.abs() <= 9 {
                scan.totals[variant_state_index(s)] += 1;
            }
        }
    }
    if steps_since_zero > 0 {
        flush(&mut visits, &mut scan);
    }
    scan
}

/// The cycle count `J` of the ±1 walk — the same integer
/// [`excursion_scan`] produces — without the per-state bookkeeping. While
/// `|S| > 8` the walk cannot return to zero within the next byte, so the
/// byte is applied with one popcount (a whole word while `|S| > 64`); only
/// bytes that start near zero are walked bit by bit. Both excursion tests run it first, so a stream below
/// the `J` gate (the usual case well under 1 Mb) skips the full scan.
fn excursion_cycle_count(bits: &BitVec) -> usize {
    let n = bits.len();
    let mut s = 0i64;
    let mut zeros = 0usize;
    for (index, &word) in bits.words().iter().enumerate() {
        let mut w = word;
        let mut left = n.saturating_sub(64 * index).min(64);
        if s.abs() > 64 {
            // Far from zero, a whole word cannot return either.
            s += 2 * i64::from(w.count_ones()) - left as i64;
            continue;
        }
        while left > 0 {
            let take = left.min(8);
            let byte = w & ((1u64 << take) - 1);
            if s.abs() > 8 {
                s += 2 * i64::from(byte.count_ones()) - take as i64;
            } else {
                for t in 0..take {
                    s += if (byte >> t) & 1 == 1 { 1 } else { -1 };
                    zeros += usize::from(s == 0);
                }
            }
            w >>= 8;
            left -= take;
        }
    }
    // A non-empty tail after the last return is one more cycle.
    zeros + usize::from(s != 0)
}

fn excursion_cycles(bits: &BitVec) -> (Vec<Vec<i64>>, usize) {
    // Partition the random walk into zero-crossing cycles; each cycle records
    // the walk states visited.
    let mut cycles: Vec<Vec<i64>> = Vec::new();
    let mut current: Vec<i64> = Vec::new();
    let mut s = 0i64;
    for b in bits.iter() {
        s += if b { 1 } else { -1 };
        current.push(s);
        if s == 0 {
            cycles.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        cycles.push(current);
    }
    let j = cycles.len();
    (cycles, j)
}

/// SP 800-22 §2.14.4: the excursion tests require `J ≥ max(0.005·√n, 500)`
/// zero-crossing cycles; with fewer, the per-cycle visit distribution is not
/// trustworthy and the tests are inapplicable.
fn excursion_min_cycles(n: usize) -> usize {
    (0.005 * (n as f64).sqrt()).ceil().max(500.0) as usize
}

/// χ² of the random excursions test for one state `x` from its per-cycle
/// visit-count buckets (SP 800-22 §2.14.4, step 5). Both the counting scan
/// and the cycle-vector reference funnel through this, so identical counts
/// yield bit-identical statistics.
fn excursion_state_chi2_from_counts(counts: &[usize; 6], j: usize, x: i64) -> f64 {
    let pi = |k: usize| -> f64 {
        let ax = x.abs() as f64;
        match k {
            0 => 1.0 - 1.0 / (2.0 * ax),
            1..=4 => (1.0 / (4.0 * ax * ax)) * (1.0 - 1.0 / (2.0 * ax)).powi(k as i32 - 1),
            _ => (1.0 / (2.0 * ax)) * (1.0 - 1.0 / (2.0 * ax)).powi(4),
        }
    };
    let mut chi2 = 0.0;
    for (k, &c) in counts.iter().enumerate() {
        let expected = j as f64 * pi(k);
        if expected > 0.0 {
            chi2 += (c as f64 - expected).powi(2) / expected;
        }
    }
    chi2
}

/// χ² statistic of the random excursions test for one state `x`, from the
/// reference cycle vectors.
fn excursion_state_chi2(cycles: &[Vec<i64>], j: usize, x: i64) -> f64 {
    let mut counts = [0usize; 6];
    for cycle in cycles {
        let visits = cycle.iter().filter(|&&s| s == x).count();
        counts[visits.min(5)] += 1;
    }
    excursion_state_chi2_from_counts(&counts, j, x)
}

/// p-value of the random excursions *variant* test for one state `x` from
/// its whole-walk visit total (SP 800-22 §2.15.4:
/// `erfc(|ξ(x) − J| / √(2J(4|x| − 2)))`).
fn excursion_variant_state_p_from_total(visits: usize, j: usize, x: i64) -> f64 {
    let denom = (2.0 * j as f64 * (4.0 * x.abs() as f64 - 2.0)).sqrt();
    erfc((visits as f64 - j as f64).abs() / denom)
}

/// p-value of the variant test for one state `x`, from the reference cycle
/// vectors.
fn excursion_variant_state_p(cycles: &[Vec<i64>], j: usize, x: i64) -> f64 {
    let visits: usize = cycles.iter().map(|c| c.iter().filter(|&&s| s == x).count()).sum();
    excursion_variant_state_p_from_total(visits, j, x)
}

/// 2.14 Random excursions test (minimum p-value over the eight states),
/// in counting form: one O(1)-state pass buckets per-cycle visit counts
/// directly, with no per-cycle state vectors. Identical to
/// [`random_excursion_reference`] to the last ulp (proptest-pinned).
pub fn random_excursion(bits: &BitVec) -> TestResult {
    let required = excursion_min_cycles(bits.len());
    let j = excursion_cycle_count(bits);
    if j < required {
        return not_applicable("random_excursion", "cycles", required, j);
    }
    let scan = excursion_scan(bits);
    let mut min_p = 1.0f64;
    for &x in &EXCURSION_STATES {
        let counts = &scan.bucketed[excursion_state_index(x)];
        min_p = min_p.min(igamc(2.5, excursion_state_chi2_from_counts(counts, scan.j, x) / 2.0));
    }
    result("random_excursion", min_p)
}

/// Cycle-vector reference for [`random_excursion`] (materialises the walk's
/// zero-crossing cycles, as the spec describes the procedure).
pub fn random_excursion_reference(bits: &BitVec) -> TestResult {
    let (cycles, j) = excursion_cycles(bits);
    let required = excursion_min_cycles(bits.len());
    if j < required {
        return not_applicable("random_excursion", "cycles", required, j);
    }
    let mut min_p = 1.0f64;
    for &x in &EXCURSION_STATES {
        min_p = min_p.min(igamc(2.5, excursion_state_chi2(&cycles, j, x) / 2.0));
    }
    result("random_excursion", min_p)
}

/// 2.15 Random excursions variant test (minimum p-value over the 18
/// states), in counting form — the variant statistic only needs whole-walk
/// visit totals, so no cycle structure is stored at all. Identical to
/// [`random_excursion_variant_reference`] to the last ulp (proptest-pinned).
pub fn random_excursion_variant(bits: &BitVec) -> TestResult {
    let required = excursion_min_cycles(bits.len());
    let j = excursion_cycle_count(bits);
    if j < required {
        return not_applicable("random_excursion_variant", "cycles", required, j);
    }
    let scan = excursion_scan(bits);
    let mut min_p = 1.0f64;
    for x in (-9i64..=9).filter(|&x| x != 0) {
        let visits = scan.totals[variant_state_index(x)];
        min_p = min_p.min(excursion_variant_state_p_from_total(visits, scan.j, x));
    }
    result("random_excursion_variant", min_p)
}

/// Cycle-vector reference for [`random_excursion_variant`].
pub fn random_excursion_variant_reference(bits: &BitVec) -> TestResult {
    let (cycles, j) = excursion_cycles(bits);
    let required = excursion_min_cycles(bits.len());
    if j < required {
        return not_applicable("random_excursion_variant", "cycles", required, j);
    }
    let mut min_p = 1.0f64;
    for x in (-9i64..=9).filter(|&x| x != 0) {
        min_p = min_p.min(excursion_variant_state_p(&cycles, j, x));
    }
    result("random_excursion_variant", min_p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_bits(n: usize, seed: u64) -> BitVec {
        let mut rng = StdRng::seed_from_u64(seed);
        BitVec::from_bits((0..n).map(|_| rng.gen::<bool>()))
    }

    /// The four stream families the equivalence proptests sweep: random,
    /// biased, constant, and alternating.
    fn stream(kind: u8, n: usize, seed: u64) -> BitVec {
        let mut rng = StdRng::seed_from_u64(seed);
        match kind % 4 {
            0 => BitVec::from_bits((0..n).map(|_| rng.gen::<bool>())),
            1 => BitVec::from_bits((0..n).map(|_| rng.gen::<f64>() < 0.8)),
            2 => BitVec::filled(n, seed % 2 == 0),
            _ => BitVec::from_bits((0..n).map(|i| i % 2 == 0)),
        }
    }

    /// Bit-exact comparison of two test results: same name, same
    /// applicability, and p-values identical to the last ulp (NaN == NaN).
    fn assert_identical(word: &TestResult, reference: &TestResult) {
        assert_eq!(word.name, reference.name);
        assert_eq!(word.applicability, reference.applicability);
        assert_eq!(
            word.p_value.to_bits(),
            reference.p_value.to_bits(),
            "{}: word {} vs reference {}",
            word.name,
            word.p_value,
            reference.p_value
        );
    }

    #[test]
    fn sp80022_monobit_example() {
        // SP 800-22 §2.1.8: the 100-bit first-100-digits-of-e example has
        // p-value 0.109599.
        let eps = "1100100100001111110110101010001000100001011010001100001000110100\
                   110001001100011001100010100010111000";
        let bits = BitVec::from_bit_str(eps).unwrap();
        let r = monobit(&bits);
        assert!((r.p_value - 0.109599).abs() < 0.01, "p = {}", r.p_value);
        assert_identical(&r, &monobit_reference(&bits));
    }

    #[test]
    fn sp80022_runs_example() {
        // SP 800-22 §2.3.8 uses the same ε with p-value 0.500798.
        let eps = "1100100100001111110110101010001000100001011010001100001000110100\
                   110001001100011001100010100010111000";
        let bits = BitVec::from_bit_str(eps).unwrap();
        let r = runs(&bits);
        assert!((r.p_value - 0.500798).abs() < 0.02, "p = {}", r.p_value);
        assert_identical(&r, &runs_reference(&bits));
    }

    #[test]
    fn sp80022_cumulative_sums_example() {
        // SP 800-22 §2.13.8: forward cusum p-value 0.219194 for the same ε.
        let eps = "1100100100001111110110101010001000100001011010001100001000110100\
                   110001001100011001100010100010111000";
        let bits = BitVec::from_bit_str(eps).unwrap();
        let r = cumulative_sums(&bits);
        assert!((r.p_value - 0.219194).abs() < 0.03, "p = {}", r.p_value);
        assert_identical(&r, &cumulative_sums_reference(&bits));
    }

    #[test]
    fn sp80022_serial_example() {
        // SP 800-22 §2.11.4 / §2.11.8 example 1: ε = 0011011101, n = 10,
        // m = 3. The cyclic window counts give ψ²₃ = 2.8, ψ²₂ = 1.2,
        // ψ²₁ = 0.4, so ∇ψ²₃ = 1.6 and ∇²ψ²₃ = 0.8, and the p-values are
        // igamc(2, 0.8) = 0.808792 and igamc(1, 0.4) = 0.670320.
        let bits = BitVec::from_bit_str("0011011101").unwrap();
        let n = bits.len();
        // Both the reference helper and the shared-counts path must hit the
        // worked values exactly.
        let counts3 = window_counts(&bits, 3);
        let counts2 = halve_window_counts(&counts3);
        let counts1 = halve_window_counts(&counts2);
        let psi3 = psi_squared_from_counts(&counts3, n, 3);
        let psi2 = psi_squared_from_counts(&counts2, n, 2);
        let psi1 = psi_squared_from_counts(&counts1, n, 1);
        for (word, reference, expected) in [
            (psi3, psi_squared(&bits, 3), 2.8),
            (psi2, psi_squared(&bits, 2), 1.2),
            (psi1, psi_squared(&bits, 1), 0.4),
        ] {
            assert_eq!(word.to_bits(), reference.to_bits());
            assert!((word - expected).abs() < 1e-12, "ψ² = {word}, expected {expected}");
        }
        let (p1, p2) = serial_p_values(psi3, psi2, psi1, 3);
        assert!((p1 - 0.808792).abs() < 1e-4, "p1 = {p1}");
        assert!((p2 - 0.670320).abs() < 1e-4, "p2 = {p2}");
    }

    #[test]
    fn sp80022_approximate_entropy_example() {
        // SP 800-22 §2.12.4 / §2.12.8 example 1: ε = 0100110101, n = 10,
        // m = 3: φ(3) = −1.643418, φ(4) = −1.834372, so ApEn(3) = 0.190954,
        // χ² = 2n(ln 2 − ApEn) = 10.043859, and
        // P-value = igamc(2^(m−1), χ²/2) = 0.261961.
        let bits = BitVec::from_bit_str("0100110101").unwrap();
        let n = bits.len();
        let counts4 = window_counts(&bits, 4);
        let counts3 = halve_window_counts(&counts4);
        let phi3 = phi_from_counts(&counts3, n, 3);
        let phi4 = phi_from_counts(&counts4, n, 4);
        assert!((phi3 - -1.643418).abs() < 1e-6, "phi3 = {phi3}");
        assert!((phi4 - -1.834372).abs() < 1e-6, "phi4 = {phi4}");
        let ap_en = phi3 - phi4;
        assert!((ap_en - 0.190954).abs() < 1e-6, "ApEn = {ap_en}");
        let chi2 = 2.0 * n as f64 * (std::f64::consts::LN_2 - ap_en);
        assert!((chi2 - 10.043859).abs() < 1e-5, "chi2 = {chi2}");
        let p = igamc(2f64.powi(2), chi2 / 2.0);
        assert!((p - 0.261961).abs() < 1e-4, "p = {p}");
    }

    #[test]
    fn alternating_sequence_fails_runs_and_serial() {
        let bits = BitVec::from_bits((0..20_000).map(|i| i % 2 == 0));
        assert!(runs(&bits).p_value < 0.001);
        assert!(serial(&bits, 8).p_value < 0.001);
        assert!(approximate_entropy(&bits, 6).p_value < 0.001);
        // But it is perfectly balanced, so monobit passes.
        assert!(monobit(&bits).p_value > 0.9);
    }

    #[test]
    fn periodic_pattern_fails_spectral_and_template_tests() {
        let bits = BitVec::from_bits((0..30_000).map(|i| (i / 3) % 2 == 0));
        assert!(dft(&bits).p_value < 0.01);
        assert!(frequency_within_block(&bits, 128).p_value > 0.01);
    }

    #[test]
    fn random_stream_passes_each_individual_test() {
        let bits = random_bits(120_000, 9);
        for r in [
            monobit(&bits),
            frequency_within_block(&bits, 128),
            runs(&bits),
            longest_run_of_ones(&bits),
            binary_matrix_rank(&bits),
            dft(&bits),
            non_overlapping_template_matching(&bits, 9),
            overlapping_template_matching(&bits, 9),
            linear_complexity(&bits, 500),
            serial(&bits, 14),
            approximate_entropy(&bits, 8),
            cumulative_sums(&bits),
        ] {
            assert!(r.p_value >= 0.001, "{} failed with p = {}", r.name, r.p_value);
        }
    }

    #[test]
    fn excursion_tests_apply_only_to_long_sequences() {
        let short = random_bits(20_000, 4);
        assert!(!random_excursion(&short).is_applicable() || random_excursion(&short).p_value >= 0.0);
        let long = random_bits(600_000, 4);
        let re = random_excursion(&long);
        let rev = random_excursion_variant(&long);
        if re.is_applicable() {
            assert!(re.p_value >= 0.0005, "excursion p {}", re.p_value);
        }
        if rev.is_applicable() {
            assert!(rev.p_value >= 0.0005, "variant p {}", rev.p_value);
        }
        // The counting form must match the cycle-vector reference on an
        // *applicable* stream (J ≈ √(2n/π) ≈ 618 ≥ 500 here), not just on
        // the short-stream skip path the proptests mostly exercise.
        assert_identical(&re, &random_excursion_reference(&long));
        assert_identical(&rev, &random_excursion_variant_reference(&long));
    }

    /// An anti-correlated walk (each bit flips the previous one with
    /// probability `flip`) crosses zero every few steps, so even short
    /// streams reach the excursion tests' J ≥ 500 gate while still visiting
    /// a spread of ±states — the applicable-path fodder for the equivalence
    /// proptest below.
    fn anticorrelated_bits(n: usize, flip: f64, seed: u64) -> BitVec {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut prev = false;
        BitVec::from_bits((0..n).map(|_| {
            if rng.gen::<f64>() < flip {
                prev = !prev;
            }
            prev
        }))
    }

    #[test]
    fn berlekamp_massey_known_values() {
        // A maximal-length LFSR sequence of degree 4 has linear complexity 4.
        let seq = [
            true, false, false, false, true, false, false, true, true, false, true, false, true,
            true, true,
        ];
        assert_eq!(berlekamp_massey(&seq), 4);
        // An alternating sequence has linear complexity 2.
        let alt: Vec<bool> = (0..32).map(|i| i % 2 == 0).collect();
        assert!(berlekamp_massey(&alt) <= 2);
    }

    #[test]
    fn sliced_berlekamp_massey_matches_scalar_per_lane() {
        let mut rng = StdRng::seed_from_u64(41);
        for n in [1usize, 2, 13, 63, 64, 65, 500, 777] {
            // One state per block length, reused across batches: a narrower
            // batch must not see the previous batch's lanes.
            let mut bm = SlicedBerlekampMassey::new(n);
            for lanes in [64usize, 36, 1] {
                // Mixed lane families (random, biased, constant, alternating)
                // cover low and high complexities in one batch; the odd
                // offset puts block starts mid-word.
                let offset = 5;
                let blocks: Vec<BitVec> =
                    (0..lanes).map(|k| stream(k as u8, n, rng.gen())).collect();
                let mut bits = BitVec::zeros(offset);
                for block in &blocks {
                    bits.extend_from(block);
                }
                let sliced = bm.run(&bits, offset, lanes);
                assert_eq!(sliced.len(), lanes);
                for (k, (&l, block)) in sliced.iter().zip(&blocks).enumerate() {
                    let scalar: Vec<bool> = block.iter().collect();
                    assert_eq!(l, berlekamp_massey(&scalar), "n = {n}, lanes = {lanes}, lane {k}");
                }
            }
        }
    }

    #[test]
    fn linear_complexity_and_excursions_match_reference_at_window_and_megabit_sizes() {
        // The service's 50 kb window at M = 500: 100 blocks, so one full
        // and one partial sliced batch; the excursion tests are
        // inapplicable there (J ≈ 180), through the cycle-count pre-check.
        let window = random_bits(50_000, 21);
        assert!(linear_complexity(&window, 500).is_applicable());
        assert!(!random_excursion(&window).is_applicable());
        // 1 Mb (2000 blocks) with J = 621 ≥ 500: both excursion tests applicable.
        let long = random_bits(1_000_000, 2);
        assert!(random_excursion(&long).is_applicable());
        assert!(random_excursion_variant(&long).is_applicable());
        for bits in [&window, &long] {
            assert_identical(&linear_complexity(bits, 500), &linear_complexity_reference(bits, 500));
            assert_identical(&random_excursion(bits), &random_excursion_reference(bits));
            assert_identical(
                &random_excursion_variant(bits),
                &random_excursion_variant_reference(bits),
            );
        }
    }

    #[test]
    fn excursion_cycle_count_matches_the_full_scan() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000, 4099, 50_000] {
            for kind in 0..5u8 {
                let bits = if kind == 4 {
                    anticorrelated_bits(n, 0.7, n as u64)
                } else {
                    stream(kind, n, n as u64 + 1)
                };
                assert_eq!(
                    excursion_cycle_count(&bits),
                    excursion_scan(&bits).j,
                    "n = {n}, kind = {kind}"
                );
            }
        }
    }

    #[test]
    fn sp80022_maurers_universal_example() {
        // SP 800-22 §2.9.8: ε = 01011010011101010111 with L = 2, Q = 4,
        // K = 6 gives fn = 1.1949875 and (with the illustration's
        // σ = √variance) a p-value of 0.767189.
        let bits = BitVec::from_bit_str("01011010011101010111").unwrap();
        let fn_stat = maurers_fn_statistic(&bits, 2, 4, 6);
        assert_eq!(fn_stat.to_bits(), maurers_fn_statistic_reference(&bits, 2, 4, 6).to_bits());
        assert!((fn_stat - 1.194_987_5).abs() < 1e-6, "fn = {fn_stat}");
        let expected = 1.537_438_3;
        let variance = 1.338f64;
        let p = erfc(((fn_stat - expected) / (std::f64::consts::SQRT_2 * variance.sqrt())).abs());
        assert!((p - 0.767_189).abs() < 1e-4, "p = {p}");
    }

    #[test]
    fn maurers_universal_word_path_matches_reference_on_a_long_stream() {
        let bits = random_bits(400_000, 17);
        assert_identical(&maurers_universal(&bits), &maurers_universal_reference(&bits));
    }

    #[test]
    fn longest_run_matches_reference_on_the_large_block_table() {
        // n >= 750 000 selects the m = 10 000 table (blocks spanning 157
        // chunks); run-of-ones bursts stress the cross-chunk carry.
        let mut rng = StdRng::seed_from_u64(23);
        let bits = BitVec::from_bits((0..750_128).map(|_| rng.gen::<f64>() < 0.9));
        assert_identical(&longest_run_of_ones(&bits), &longest_run_of_ones_reference(&bits));
    }

    #[test]
    fn sp80022_random_excursion_example() {
        // SP 800-22 §2.14.8: ε = 0110110101 has J = 3 cycles and, for state
        // x = +1, χ² = 4.333033 and p-value 0.502529.
        let bits = BitVec::from_bit_str("0110110101").unwrap();
        let (cycles, j) = excursion_cycles(&bits);
        assert_eq!(j, 3);
        let chi2 = excursion_state_chi2(&cycles, j, 1);
        assert!((chi2 - 4.333_033).abs() < 1e-3, "chi2 = {chi2}");
        let p = igamc(2.5, chi2 / 2.0);
        assert!((p - 0.502_529).abs() < 1e-4, "p = {p}");
        // The counting scan reproduces the worked example exactly: same J,
        // same visit buckets, same χ².
        let scan = excursion_scan(&bits);
        assert_eq!(scan.j, 3);
        let counting_chi2 = excursion_state_chi2_from_counts(
            &scan.bucketed[excursion_state_index(1)],
            scan.j,
            1,
        );
        assert_eq!(counting_chi2.to_bits(), chi2.to_bits());
    }

    #[test]
    fn sp80022_random_excursion_variant_example() {
        // SP 800-22 §2.15.8: same ε, state x = +1 visited 4 times over J = 3
        // cycles gives p-value erfc(1/√12) = 0.683091.
        let bits = BitVec::from_bit_str("0110110101").unwrap();
        let (cycles, j) = excursion_cycles(&bits);
        let p = excursion_variant_state_p(&cycles, j, 1);
        assert!((p - 0.683_091).abs() < 1e-4, "p = {p}");
        let scan = excursion_scan(&bits);
        assert_eq!(scan.totals[variant_state_index(1)], 4);
        let counting_p =
            excursion_variant_state_p_from_total(scan.totals[variant_state_index(1)], scan.j, 1);
        assert_eq!(counting_p.to_bits(), p.to_bits());
    }

    #[test]
    fn counting_excursions_match_reference_on_applicable_streams() {
        // Anti-correlated walks cross zero often and visit many ±states.
        // J still depends on the slow drift component, so applicability is
        // asserted only for tuples verified to clear the J ≥ 500 gate
        // (seeded, so the verdict is stable); the rest pin the equivalence
        // on rich near-applicable walks.
        for (n, flip, seed, applicable) in [
            (40_000usize, 0.97, 3u64, true),
            (20_000, 0.995, 4, true),
            (4096, 0.9, 1, false),
            (4095, 0.8, 2, false),
            (10_000, 0.6, 5, false),
        ] {
            let bits = anticorrelated_bits(n, flip, seed);
            let counting = random_excursion(&bits);
            assert_identical(&counting, &random_excursion_reference(&bits));
            assert_identical(
                &random_excursion_variant(&bits),
                &random_excursion_variant_reference(&bits),
            );
            if applicable {
                assert!(counting.is_applicable(), "n={n} flip={flip} seed={seed} crosses often");
            }
        }
    }

    #[test]
    fn inapplicable_results_name_the_failed_requirement() {
        let short = random_bits(1000, 3);
        let r = maurers_universal(&short);
        assert!(r.p_value.is_nan(), "no p-value exists for inapplicable tests");
        assert!(r.passes(crate::Significance::PAPER), "inapplicable passes vacuously");
        match r.applicability {
            Applicability::NotApplicable { requirement, required, actual } => {
                assert_eq!(requirement, "bits");
                assert_eq!(required, 387_840);
                assert_eq!(actual, 1000);
            }
            Applicability::Applicable => panic!("1 kb stream cannot drive Maurer's test"),
        }
        assert!(r.display_p_value().starts_with("n/a"));
        // The excursion gate scales with n per §2.14.4 (0.005·√n caps the
        // constant floor only beyond 10¹⁰ bits).
        assert_eq!(excursion_min_cycles(1_000_000), 500);
        assert_eq!(excursion_min_cycles(100_000_000), 500);
        assert_eq!(excursion_min_cycles(40_000_000_000), 1000);
    }

    #[test]
    fn maurers_universal_needs_long_sequences() {
        assert!(!maurers_universal(&random_bits(50_000, 1)).is_applicable());
        let long = random_bits(400_000, 1);
        let r = maurers_universal(&long);
        assert!(r.is_applicable());
        assert!(r.p_value > 0.001, "universal p {}", r.p_value);
    }

    #[test]
    fn dft_matches_reference_across_stream_families() {
        // The real-input FFT path must reproduce the frozen complex-FFT
        // reference's p-value exactly: the statistic is an integer peak
        // count, so ulp-level magnitude differences must not leak through.
        for (kind, n, seed) in [
            (0u8, 1000usize, 1u64),
            (0, 1024, 2),
            (0, 4096, 3),
            (0, 100_000, 4),
            (1, 30_000, 5),
            (3, 30_000, 6),
        ] {
            let bits = stream(kind, n, seed);
            assert_identical(&dft(&bits), &dft_reference(&bits));
        }
    }

    #[test]
    fn dft_short_input_is_not_applicable_in_both_paths() {
        for n in [0usize, 1, 63, 64, 65, 512, 999] {
            let bits = random_bits(n, 7);
            let word = dft(&bits);
            assert!(!word.is_applicable(), "n={n} should be NotApplicable");
            assert!(word.p_value.is_nan());
            assert_identical(&word, &dft_reference(&bits));
        }
        // The 1000-bit boundary itself is applicable (uses the 512-prefix).
        assert!(dft(&random_bits(1000, 7)).is_applicable());
    }

    #[test]
    fn dft_constant_streams_fail_spectacularly_in_both_paths() {
        // All-zeros and all-ones map to constant ±1 input: all spectral
        // energy in the DC bin, every other peak below threshold.
        for value in [false, true] {
            let bits = BitVec::filled(4096, value);
            let word = dft(&bits);
            assert_identical(&word, &dft_reference(&bits));
        }
    }

    #[test]
    fn dft_plan_cache_serves_repeated_lengths() {
        // Two same-length calls share one cached plan, and the answers stay
        // deterministic per input.
        let a = random_bits(2048, 11);
        let b = random_bits(2048, 12);
        let first = dft(&a);
        let _ = dft(&b);
        let again = dft(&a);
        assert_identical(&first, &again);
    }

    #[test]
    fn dft_plan_is_shared_across_threads() {
        // Two threads asking for the same length get one plan, built once
        // per process; a different length gets its own.
        const N: usize = 1 << 13;
        let [a, b] = [0, 1].map(|_| std::thread::spawn(|| dft_plan(N)));
        let (a, b) = (a.join().unwrap(), b.join().unwrap());
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &dft_plan(N)));
        assert_eq!(a.len(), N);
        assert!(!Arc::ptr_eq(&a, &dft_plan(N / 2)));
    }

    // ---- word-parallel vs reference equivalence (bit-identical p-values) ----

    proptest! {
        /// Basis insertion and elimination agree on every 32×32 matrix:
        /// random ones (mostly full rank or one short) and ones built from
        /// `k` random generator rows, so every rank 0..=32 is exercised.
        #[test]
        fn prop_gf2_rank_basis_matches_elimination(
            seed in any::<u64>(),
            k in 0usize..=32,
            combine in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let generators: Vec<u32> = (0..k).map(|_| rng.gen::<u32>()).collect();
            let mut rows = [0u32; 32];
            for row in rows.iter_mut() {
                *row = if combine {
                    generators.iter().filter(|_| rng.gen::<bool>()).fold(0, |acc, g| acc ^ g)
                } else {
                    rng.gen::<u32>()
                };
            }
            let fast = gf2_rank_basis(&rows);
            prop_assert_eq!(fast, gf2_rank(&mut rows, 32));
            if combine {
                prop_assert!(fast <= k);
            }
        }

        #[test]
        fn prop_counting_tests_match_reference(
            kind in 0u8..4,
            len in 0usize..2500,
            delta in 0usize..3,
            seed in any::<u64>(),
        ) {
            // Lengths crossing word boundaries ±1: snap to a multiple of 64,
            // then offset by −1, 0, +1.
            let n = (len / 64 * 64 + delta).saturating_sub(1).min(2500);
            let bits = stream(kind, n, seed);
            assert_identical(&monobit(&bits), &monobit_reference(&bits));
            assert_identical(&runs(&bits), &runs_reference(&bits));
            assert_identical(&cumulative_sums(&bits), &cumulative_sums_reference(&bits));
            for block_len in [8, 100, 128] {
                assert_identical(
                    &frequency_within_block(&bits, block_len),
                    &frequency_within_block_reference(&bits, block_len),
                );
            }
            assert_identical(&longest_run_of_ones(&bits), &longest_run_of_ones_reference(&bits));
            assert_identical(&binary_matrix_rank(&bits), &binary_matrix_rank_reference(&bits));
        }

        #[test]
        fn prop_longest_run_matches_reference_across_chunk_boundaries(
            kind in 0u8..4,
            len in 6272usize..9000,
            seed in any::<u64>(),
        ) {
            // n >= 6272 selects the m = 128 table, so every block spans
            // three 64-bit chunks — exercising the all-ones fast path, the
            // cross-chunk run carry, and the prefix/suffix counts that the
            // short-stream proptest (m = 8 blocks inside one chunk) never
            // reaches. Runs of length ~64k around chunk edges come from the
            // biased and constant stream kinds.
            let bits = stream(kind, len, seed);
            assert_identical(&longest_run_of_ones(&bits), &longest_run_of_ones_reference(&bits));
        }

        #[test]
        fn prop_template_tests_match_reference(
            kind in 0u8..4,
            len in 100usize..9000,
            m in 1usize..13,
            seed in any::<u64>(),
        ) {
            let bits = stream(kind, len, seed);
            assert_identical(
                &non_overlapping_template_matching(&bits, m),
                &non_overlapping_template_matching_reference(&bits, m),
            );
            assert_identical(
                &overlapping_template_matching(&bits, m),
                &overlapping_template_matching_reference(&bits, m),
            );
        }

        #[test]
        fn prop_window_tests_match_reference(
            kind in 0u8..4,
            len in 16usize..4000,
            m in 0usize..16,
            seed in any::<u64>(),
        ) {
            let bits = stream(kind, len, seed);
            assert_identical(&serial(&bits, m), &serial_reference(&bits, m));
            assert_identical(
                &approximate_entropy(&bits, m),
                &approximate_entropy_reference(&bits, m),
            );
        }

        #[test]
        fn prop_linear_complexity_matches_reference(
            kind in 0u8..4,
            len in 0usize..6000,
            block_len in 13usize..530,
            seed in any::<u64>(),
        ) {
            let bits = stream(kind, len, seed);
            assert_identical(
                &linear_complexity(&bits, block_len),
                &linear_complexity_reference(&bits, block_len),
            );
        }

        #[test]
        fn prop_excursion_tests_match_reference(
            kind in 0u8..5,
            len in 0usize..4000,
            delta in 0usize..3,
            seed in any::<u64>(),
        ) {
            // Kinds 0..4 are the standard families (mostly the inapplicable
            // path: a random 4 kb walk has J ≈ 50 ≪ 500, constant/biased
            // walks almost never cross zero; alternating crosses every two
            // steps and IS applicable). Kind 4 is the anti-correlated walk:
            // applicable with a spread of visited states.
            let n = (len / 64 * 64 + delta).saturating_sub(1).min(4000);
            let bits = if kind == 4 {
                anticorrelated_bits(n, 0.6 + (seed % 4) as f64 * 0.1, seed)
            } else {
                stream(kind, n, seed)
            };
            prop_assert_eq!(excursion_cycle_count(&bits), excursion_scan(&bits).j);
            assert_identical(&random_excursion(&bits), &random_excursion_reference(&bits));
            assert_identical(
                &random_excursion_variant(&bits),
                &random_excursion_variant_reference(&bits),
            );
        }

        #[test]
        fn prop_maurers_statistic_matches_reference(
            kind in 0u8..4,
            l in 2usize..7,
            k in 1usize..200,
            seed in any::<u64>(),
        ) {
            // The full test needs ≥ 387 840 bits; pin the split-out statistic
            // on toy parameters instead (the table lookup is shared).
            let q = 2 << l;
            let bits = stream(kind, l * (q + k), seed);
            let word = maurers_fn_statistic(&bits, l, q, k);
            let reference = maurers_fn_statistic_reference(&bits, l, q, k);
            prop_assert_eq!(word.to_bits(), reference.to_bits());
        }
    }
}
