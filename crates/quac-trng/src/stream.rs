//! The conditioned output stream every entropy backend delivers through
//! (Section 5.2, Figure 6: sample → SHA-256 → buffer → deliver).
//!
//! A backend pairs a raw source (the QUAC sampler, a D-RaNGe row read, a
//! retention burst) with one [`ConditionedStream`]. On each harvest the
//! source appends raw messages, one SHA-256 input each, to the stream's
//! reused [`RawMessages`] arena and reports the fresh bits it drew. The
//! stream conditions, buffers and delivers. All delivery bookkeeping is
//! defined here, once:
//!
//! * the output buffer (Section 9's controller-side buffer);
//! * the [`FaultInjector`] seam, applied at the delivery boundary as a pure
//!   function of the absolute delivered offset;
//! * that delivered offset;
//! * the fresh-bit counter the RNG service's entropy ledger takes deltas of;
//! * [`restart`](ConditionedStream::restart), the requalification reset.
//!
//! Two fill paths share that bookkeeping. The hot path,
//! [`ConditionedStream::fill`], hashes a harvest's messages with the
//! multi-lane [`digest_many_into`] and copies digests straight into the
//! caller's buffer; only the final partial digest goes to the deque. The
//! reference path, [`ConditionedStream::fill_reference`], hashes each
//! message with scalar [`Sha256::digest`] and routes every byte through
//! the buffer. For the same message sequence both emit the same bytes,
//! however the reads are sliced.

use crate::fault::FaultInjector;
use qt_crypto::{digest_many_into, Sha256, Sha256Digest};
use qt_dram_core::BitVec;
use std::collections::VecDeque;

/// The raw messages of one harvest, concatenated in one reused arena.
#[derive(Debug, Clone, Default)]
pub struct RawMessages {
    arena: Vec<u8>,
    /// End offset of each message inside `arena`.
    ends: Vec<usize>,
}

impl RawMessages {
    /// Appends one message.
    pub fn push(&mut self, message: &[u8]) {
        self.arena.extend_from_slice(message);
        self.ends.push(self.arena.len());
    }

    /// Appends the bits `[start, end)` of `src` as one message, packed
    /// LSB-first: little-endian words, then a masked tail. Byte for byte
    /// the layout of [`BitVec::extract_bytes_into`], without the
    /// intermediate buffer.
    pub fn push_bits(&mut self, src: &BitVec, start: usize, end: usize) {
        debug_assert!(start <= end && end <= src.len());
        let n = end - start;
        for k in 0..n / 64 {
            self.arena.extend_from_slice(&src.word_at(start + 64 * k).to_le_bytes());
        }
        let rem = n % 64;
        if rem > 0 {
            let tail = src.word_at(start + 64 * (n / 64)) & ((1u64 << rem) - 1);
            self.arena.extend_from_slice(&tail.to_le_bytes()[..rem.div_ceil(8)]);
        }
        self.ends.push(self.arena.len());
    }

    fn clear(&mut self) {
        self.arena.clear();
        self.ends.clear();
    }

    fn iter(&self) -> impl Iterator<Item = &[u8]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let message = &self.arena[start..end];
            start = end;
            message
        })
    }
}

/// SHA-256 conditioning, output buffering and delivery bookkeeping for one
/// backend's byte stream (see the [module docs](self)).
///
/// A harvest callback receives the cleared message arena and the number of
/// output bytes still owed to the current read, appends at least one
/// message, and returns the fresh bits it drew from the source.
#[derive(Debug, Clone, Default)]
pub struct ConditionedStream {
    /// Conditioned bytes awaiting delivery. A deque: delivery pops from the
    /// front without shifting the tail.
    buffer: VecDeque<u8>,
    messages: RawMessages,
    digests: Vec<Sha256Digest>,
    /// Test/fault-injection seam; `None` in production.
    fault: Option<FaultInjector>,
    delivered: u64,
    fresh_bits: u64,
}

impl ConditionedStream {
    /// An empty stream: nothing buffered, delivered or drawn, no fault.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fills `out` with the next stream bytes on the hot path: buffered
    /// bytes first, then harvests conditioned through the multi-lane
    /// SHA-256, each digest copied straight into `out`.
    pub fn fill(
        &mut self,
        out: &mut [u8],
        mut harvest: impl FnMut(&mut RawMessages, usize) -> u64,
    ) {
        let mut filled = self.drain_into(out, 0);
        while filled < out.len() {
            self.next_harvest(&mut harvest, out.len() - filled);
            let messages: Vec<&[u8]> = self.messages.iter().collect();
            self.digests.clear();
            digest_many_into(&messages, &mut self.digests);
            for digest in &self.digests {
                let take = (out.len() - filled).min(digest.len());
                out[filled..filled + take].copy_from_slice(&digest[..take]);
                filled += take;
                self.buffer.extend(&digest[take..]);
            }
        }
        self.deliver(out);
    }

    /// The scalar reference twin of [`ConditionedStream::fill`]: each
    /// message hashed with [`Sha256::digest`], every byte through the
    /// buffer. Same bytes, same bookkeeping; not for production use.
    pub fn fill_reference(
        &mut self,
        out: &mut [u8],
        mut harvest: impl FnMut(&mut RawMessages, usize) -> u64,
    ) {
        let mut filled = self.drain_into(out, 0);
        while filled < out.len() {
            self.next_harvest(&mut harvest, out.len() - filled);
            for message in self.messages.iter() {
                self.buffer.extend(&Sha256::digest(message));
            }
            filled = self.drain_into(out, filled);
        }
        self.deliver(out);
    }

    /// Runs one harvest into the cleared arena and credits its fresh bits.
    fn next_harvest(
        &mut self,
        harvest: &mut impl FnMut(&mut RawMessages, usize) -> u64,
        owed: usize,
    ) {
        self.messages.clear();
        self.fresh_bits += harvest(&mut self.messages, owed);
        debug_assert!(!self.messages.ends.is_empty(), "a harvest must append a message");
    }

    /// Copies buffered bytes into `out[filled..]` as (at most) two slice
    /// copies, the deque's two halves, and returns the new fill level.
    fn drain_into(&mut self, out: &mut [u8], filled: usize) -> usize {
        let take = self.buffer.len().min(out.len() - filled);
        let (front, back) = self.buffer.as_slices();
        let from_front = take.min(front.len());
        out[filled..filled + from_front].copy_from_slice(&front[..from_front]);
        out[filled + from_front..filled + take].copy_from_slice(&back[..take - from_front]);
        self.buffer.drain(..take);
        filled + take
    }

    /// The delivery boundary: the fault seam corrupts against the absolute
    /// offset, so the buffer always holds clean stream bytes.
    fn deliver(&mut self, out: &mut [u8]) {
        if let Some(fault) = &self.fault {
            fault.corrupt(self.delivered, out);
        }
        self.delivered += out.len() as u64;
    }

    /// Credits fresh bits a source drew outside a fill (a raw read that
    /// bypasses conditioning still consumed the physics).
    pub(crate) fn record_fresh_bits(&mut self, bits: u64) {
        self.fresh_bits += bits;
    }

    /// The requalification restart: drops buffered bytes from the old
    /// configuration and clears a [`transient`](FaultInjector::transient)
    /// fault. The delivered offset and the fresh-bit counter carry on.
    pub fn restart(&mut self) {
        self.buffer.clear();
        if self.fault.is_some_and(|f| f.cleared_on_recharacterize) {
            self.fault = None;
        }
    }

    /// Installs a fault injector at the delivery seam, replacing any
    /// previous one. See [`crate::fault`] for why corruption applies
    /// post-SHA.
    pub fn inject_fault(&mut self, fault: FaultInjector) {
        self.fault = Some(fault);
    }

    /// Removes any injected fault.
    pub fn clear_fault(&mut self) {
        self.fault = None;
    }

    /// The currently injected fault, if any.
    pub fn fault(&self) -> Option<&FaultInjector> {
        self.fault.as_ref()
    }

    /// Bytes delivered so far: the stream offset the fault seam corrupts
    /// against.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered
    }

    /// Raw fresh entropy bits drawn from the source over the stream's
    /// whole life, whether the output was served, buffered, or discarded
    /// by a restart. Monotone: the RNG service's entropy ledger takes
    /// deltas of this counter.
    pub fn fresh_bits_drawn(&self) -> u64 {
        self.fresh_bits
    }

    /// Conditioned bytes already generated (and counted under
    /// [`fresh_bits_drawn`](Self::fresh_bits_drawn)) but not yet delivered.
    /// Lets the ledger attribute a draw across everything it conditions
    /// instead of over-crediting the read that triggered it.
    pub fn buffered_bytes(&self) -> usize {
        self.buffer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_push_bits_matches_extract_bytes(
            bits in proptest::collection::vec(any::<bool>(), 0..400),
            a in 0usize..400,
            b in 0usize..400,
        ) {
            let src = BitVec::from_bits(bits.iter().copied());
            let (start, end) = (a.min(b).min(src.len()), a.max(b).min(src.len()));
            let mut messages = RawMessages::default();
            messages.push_bits(&src, start, end);
            let mut expected = Vec::new();
            src.extract_bytes_into(start, end, &mut expected);
            prop_assert_eq!(messages.iter().next(), Some(expected.as_slice()));
        }
    }
}
