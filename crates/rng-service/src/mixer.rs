//! Cross-source mixer: combine two *independent* backend streams so the
//! output stays unpredictable unless **both** sources fail together.
//!
//! The construction is the classic two-stage conditioner:
//!
//! 1. **XOR-fold** — bitwise XOR of the two equal-length source streams.
//!    XOR of an adversarially known stream with an unpredictable one is
//!    still unpredictable, so the fold inherits the entropy of whichever
//!    source is sound.
//! 2. **SHA-256 2:1 conditioning** — each 64-byte folded block hashes to a
//!    32-byte digest (the paper's post-processing ratio, batched through
//!    the word-parallel `qt_crypto::batch` lanes), concentrating the
//!    folded entropy and breaking any residual structure.
//!
//! [`mix`] is the hot path; [`mix_reference`] is the frozen scalar twin
//! (per-block `Sha256::digest`), proptest-pinned bit-identical — the same
//! fast/reference discipline every generator in the workspace follows.
//! [`RngService::submit_mixed`](crate::RngService::submit_mixed) drives the
//! mixer end-to-end: it places one request on each of two serving shards
//! with *distinct* backend kinds and mixes their completions.

use crate::request::Completion;
use crate::state::Shared;
use crate::ticket::{Ticket, WaitError};
use qt_crypto::batch::digest_many_into;
use qt_crypto::sha256::Sha256;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Bytes each source must contribute so [`mix`] can emit at least
/// `out_len` conditioned bytes: `2 · out_len`, rounded up to the 64-byte
/// conditioning block.
pub fn source_len(out_len: usize) -> usize {
    (2 * out_len).div_ceil(64).max(1) * 64
}

/// Bitwise XOR of two equal-length streams.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn xor_fold(a: &[u8], b: &[u8]) -> Vec<u8> {
    assert_eq!(a.len(), b.len(), "xor-fold needs equal-length sources");
    a.iter().zip(b).map(|(x, y)| x ^ y).collect()
}

/// XOR-fold then SHA-256 2:1 conditioning (the batched hot path). Emits
/// `a.len() / 2` bytes.
///
/// # Panics
///
/// Panics if the sources differ in length or the length is not a positive
/// multiple of the 64-byte conditioning block.
pub fn mix(a: &[u8], b: &[u8]) -> Vec<u8> {
    let folded = xor_fold(a, b);
    assert!(
        !folded.is_empty() && folded.len() % 64 == 0,
        "mixer input must be a positive multiple of 64 bytes, got {}",
        folded.len()
    );
    let blocks: Vec<&[u8]> = folded.chunks(64).collect();
    let mut digests = Vec::new();
    digest_many_into(&blocks, &mut digests);
    let mut out = Vec::with_capacity(folded.len() / 2);
    for digest in &digests {
        out.extend_from_slice(digest);
    }
    out
}

/// The frozen scalar twin of [`mix`]: per-block fold + one-message
/// [`Sha256::digest`]. Bit-identical to the hot path (the crypto batch
/// tests pin `digest_many` ≡ scalar digesting).
pub fn mix_reference(a: &[u8], b: &[u8]) -> Vec<u8> {
    assert_eq!(a.len(), b.len(), "xor-fold needs equal-length sources");
    assert!(
        !a.is_empty() && a.len() % 64 == 0,
        "mixer input must be 64-byte blocks"
    );
    let mut out = Vec::with_capacity(a.len() / 2);
    for (block_a, block_b) in a.chunks(64).zip(b.chunks(64)) {
        let folded: Vec<u8> = block_a.iter().zip(block_b).map(|(x, y)| x ^ y).collect();
        out.extend_from_slice(&Sha256::digest(&folded));
    }
    out
}

/// The receipt for a mixed submission: one [`Ticket`] per independent
/// source. Redeem with [`MixedTicket::wait`], poll with
/// [`MixedTicket::try_wait`], or bound the wait with
/// [`MixedTicket::wait_deadline`] — the same surface plain tickets offer.
/// Every variant **joins both halves** before reporting: on failure the
/// first error is returned, and a half that completed while its sibling
/// failed is recorded in
/// [`ServiceStats::mixed_halves_abandoned`](crate::ServiceStats::mixed_halves_abandoned)
/// (its bytes were generated and discarded) rather than vanishing silently.
#[derive(Debug)]
pub struct MixedTicket {
    first: Ticket,
    second: Ticket,
    len: usize,
    /// Back-reference for the abandoned-half counter.
    shared: Arc<Shared>,
    /// Ensures one mixed ticket bumps the counter at most once, however
    /// many poll variants observe the mixed-outcome failure.
    abandoned: OnceLock<()>,
}

/// A served mixed request: the conditioned bytes plus both source
/// completions, so provenance (and the reference twin) stays checkable —
/// `mix_reference(&first.bytes, &second.bytes)` truncated to the requested
/// length reproduces `bytes` bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixedCompletion {
    /// Completion of the first source (earlier backend kind in the fixed
    /// QUAC → D-RaNGe → retention order).
    pub first: Completion,
    /// Completion of the second source.
    pub second: Completion,
    /// The mixed, conditioned bytes — exactly the requested length.
    pub bytes: Vec<u8>,
}

impl MixedTicket {
    pub(crate) fn new(first: Ticket, second: Ticket, len: usize, shared: Arc<Shared>) -> Self {
        MixedTicket {
            first,
            second,
            len,
            shared,
            abandoned: OnceLock::new(),
        }
    }

    /// The shards the two halves were placed on at admission (failover may
    /// re-place them; the completions are authoritative).
    pub fn sources(&self) -> (Option<usize>, Option<usize>) {
        (self.first.shard(), self.second.shard())
    }

    /// The two halves, for the async facade
    /// ([`AsyncMixedTicket`](crate::facade::AsyncMixedTicket)).
    pub(crate) fn halves(&self) -> (&Ticket, &Ticket) {
        (&self.first, &self.second)
    }

    /// Combines the two halves' terminal outcomes: both served → mix and
    /// truncate; one failed → the *first* half's error wins (admission
    /// order), and a sibling that *did* deliver bytes is recorded as an
    /// abandoned half — its entropy was drawn and discarded.
    pub(crate) fn finish(
        &self,
        first: Result<Completion, WaitError>,
        second: Result<Completion, WaitError>,
    ) -> Result<MixedCompletion, WaitError> {
        match (first, second) {
            (Ok(first), Ok(second)) => {
                let mut bytes = mix(&first.bytes, &second.bytes);
                bytes.truncate(self.len);
                Ok(MixedCompletion {
                    first,
                    second,
                    bytes,
                })
            }
            (Err(e), Ok(_)) | (Ok(_), Err(e)) => {
                self.record_abandoned_half();
                Err(e)
            }
            // Both failed: nothing was generated, nothing abandoned. The
            // first half's error is reported either way.
            (Err(e), Err(_)) => Err(e),
        }
    }

    fn record_abandoned_half(&self) {
        // Terminal outcomes are sticky, so every poll variant that reaches
        // the mixed outcome sees the same abandonment — count it once.
        if self.abandoned.set(()).is_ok() {
            let mut st = self.shared.state.lock().expect("service state poisoned");
            st.stats.mixed_halves_abandoned += 1;
        }
    }

    /// Blocks until **both** halves resolve, then mixes and truncates to
    /// the requested length.
    ///
    /// # Errors
    ///
    /// The first half's error if it failed, else the second's (see
    /// [`Ticket::wait`]). Both halves are always joined first: a half that
    /// completed while its sibling failed is counted in
    /// [`ServiceStats::mixed_halves_abandoned`](crate::ServiceStats::mixed_halves_abandoned),
    /// never silently dropped.
    pub fn wait(self) -> Result<MixedCompletion, WaitError> {
        let first = self.first.wait_ref();
        let second = self.second.wait_ref();
        self.finish(first, second)
    }

    /// Non-blocking poll: `Ok(Some)` once both halves have served,
    /// `Ok(None)` while either is still pending — a mixed ticket is
    /// terminal only when *both* halves are (even after one has already
    /// failed, the sibling's outcome decides whether a half was abandoned).
    ///
    /// # Errors
    ///
    /// As [`MixedTicket::wait`], once both halves are terminal.
    pub fn try_wait(&self) -> Result<Option<MixedCompletion>, WaitError> {
        let first = match self.first.try_wait() {
            Ok(None) => return Ok(None),
            Ok(Some(c)) => Ok(c),
            Err(e) => Err(e),
        };
        let second = match self.second.try_wait() {
            Ok(None) => return Ok(None),
            Ok(Some(c)) => Ok(c),
            Err(e) => Err(e),
        };
        self.finish(first, second).map(Some)
    }

    /// Blocks until both halves resolve or `deadline` passes: `Ok(Some)`
    /// with the mix, or `Ok(None)` if either half is still pending at the
    /// deadline (the halves stay queued — this bounds the *wait*, like
    /// [`Ticket::wait_deadline`]).
    ///
    /// # Errors
    ///
    /// As [`MixedTicket::wait`], once both halves are terminal.
    pub fn wait_deadline(&self, deadline: Instant) -> Result<Option<MixedCompletion>, WaitError> {
        let first = match self.first.wait_deadline(deadline) {
            Ok(None) => return Ok(None),
            Ok(Some(c)) => Ok(c),
            Err(e) => Err(e),
        };
        let second = match self.second.wait_deadline(deadline) {
            Ok(None) => return Ok(None),
            Ok(Some(c)) => Ok(c),
            Err(e) => Err(e),
        };
        self.finish(first, second).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ServicePolicies;
    use crate::request::ClientId;
    use crate::state::{Lifecycle, RngServiceConfig, State};
    use crate::stats::ServiceStats;
    use crate::ticket::{ticket_channel, Expired, ExpiryStage, Outcome};
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::{Condvar, Mutex};

    #[test]
    fn source_len_covers_the_request_and_rounds_to_blocks() {
        for out_len in [0usize, 1, 31, 32, 33, 64, 100, 4096] {
            let src = source_len(out_len);
            assert_eq!(src % 64, 0);
            assert!(src >= 64);
            assert!(src / 2 >= out_len, "source {src} too small for {out_len}");
            assert!(
                src < 2 * out_len + 128,
                "source {src} wastes bytes for {out_len}"
            );
        }
    }

    #[test]
    fn xor_fold_is_an_involution() {
        let a = vec![0xA5u8; 64];
        let b: Vec<u8> = (0..64u8).collect();
        let folded = xor_fold(&a, &b);
        assert_eq!(xor_fold(&folded, &b), a);
    }

    #[test]
    fn mix_halves_the_length_and_depends_on_both_sources() {
        let a = vec![0x11u8; 128];
        let b = vec![0x22u8; 128];
        let mixed = mix(&a, &b);
        assert_eq!(mixed.len(), 64);
        assert_ne!(
            mix(&a, &a),
            mixed,
            "changing one source must change the mix"
        );
        // Order independence: XOR commutes, so the conditioned mix does too.
        assert_eq!(mix(&b, &a), mixed);
    }

    /// A minimal [`Shared`] for ticket-level tests: no shards, no threads,
    /// just the stats the abandoned-half counter lands in.
    fn bare_shared() -> Arc<Shared> {
        let cfg = RngServiceConfig::default();
        Arc::new(Shared {
            policies: ServicePolicies::for_config(&cfg),
            cfg,
            tap_fill: Vec::new(),
            tap_capacity: 1,
            correlation: None,
            state: Mutex::new(State {
                shards: Vec::new(),
                senders: HashMap::new(),
                in_flight_bytes: 0,
                shard_load: Vec::new(),
                health: Vec::new(),
                shard_epoch: Vec::new(),
                backend_kinds: Vec::new(),
                next_shard: 0,
                next_seq: 0,
                lifecycle: Lifecycle::Running,
                stats: ServiceStats::default(),
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            deadlines: Condvar::new(),
        })
    }

    fn served(seq: u64, shard: usize, len: usize) -> Completion {
        Completion {
            client: ClientId(0),
            seq,
            shard,
            epoch: 0,
            stream_offset: 0,
            fresh_bits: 0,
            backend: quac_trng::BackendKind::Quac,
            bytes: (0..len)
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seq as u8))
                .collect(),
        }
    }

    fn expired(seq: u64) -> Outcome {
        Outcome::Expired(Expired {
            seq,
            deadline: Instant::now(),
            expired_at: Instant::now(),
            stage: ExpiryStage::Sweep,
        })
    }

    fn abandoned_count(shared: &Arc<Shared>) -> u64 {
        shared.state.lock().unwrap().stats.mixed_halves_abandoned
    }

    /// Regression (the original bug): `wait` returned the first half's
    /// error without joining the second half, silently dropping its bytes.
    /// Now the surviving half is joined and recorded as abandoned.
    #[test]
    fn wait_joins_both_halves_and_records_the_abandoned_one() {
        let shared = bare_shared();
        let (tx_a, a) = ticket_channel(1, 0);
        let (tx_b, b) = ticket_channel(2, 1);
        let mixed = MixedTicket::new(a, b, 32, Arc::clone(&shared));
        tx_a.send(expired(1));
        tx_b.send(Outcome::Served(served(2, 1, 64)));
        match mixed.wait() {
            Err(WaitError::Expired(e)) => assert_eq!(e.seq, 1, "the first half's error wins"),
            other => panic!("expected the first half's expiry, got {other:?}"),
        }
        assert_eq!(
            abandoned_count(&shared),
            1,
            "the served sibling was abandoned"
        );
    }

    /// The error priority is admission order, not resolution order: a
    /// served first half with a failed second half reports the second's
    /// error — and still counts the abandoned (first) half.
    #[test]
    fn second_half_failure_reports_its_error_and_abandons_the_first() {
        let shared = bare_shared();
        let (tx_a, a) = ticket_channel(3, 0);
        let (tx_b, b) = ticket_channel(4, 1);
        let mixed = MixedTicket::new(a, b, 32, Arc::clone(&shared));
        tx_a.send(Outcome::Served(served(3, 0, 64)));
        drop(tx_b); // cancels the second half
        assert_eq!(
            mixed.wait().unwrap_err(),
            WaitError::Canceled(crate::ticket::Canceled)
        );
        assert_eq!(abandoned_count(&shared), 1);
    }

    /// Both halves failing means nothing was generated: the first error is
    /// reported and no half is counted abandoned.
    #[test]
    fn double_failure_abandons_nothing() {
        let shared = bare_shared();
        let (tx_a, a) = ticket_channel(5, 0);
        let (tx_b, b) = ticket_channel(6, 1);
        let mixed = MixedTicket::new(a, b, 32, Arc::clone(&shared));
        tx_a.send(expired(5));
        drop(tx_b);
        match mixed.wait() {
            Err(WaitError::Expired(e)) => assert_eq!(e.seq, 5),
            other => panic!("expected the first half's expiry, got {other:?}"),
        }
        assert_eq!(
            abandoned_count(&shared),
            0,
            "nothing delivered, nothing abandoned"
        );
    }

    /// The polling surface: `try_wait` stays `Ok(None)` while *either* half
    /// is pending — even after the first has already failed — and the
    /// abandoned half is counted exactly once across repeated polls.
    #[test]
    fn try_wait_and_wait_deadline_join_both_halves_and_count_once() {
        let shared = bare_shared();
        let (tx_a, a) = ticket_channel(7, 0);
        let (tx_b, b) = ticket_channel(8, 1);
        let mixed = MixedTicket::new(a, b, 32, Arc::clone(&shared));
        assert!(matches!(mixed.try_wait(), Ok(None)), "both pending");
        tx_a.send(expired(7));
        assert!(
            matches!(mixed.try_wait(), Ok(None)),
            "a failed first half is not terminal while the second is pending"
        );
        assert!(
            matches!(
                mixed.wait_deadline(Instant::now() + std::time::Duration::from_millis(1)),
                Ok(None)
            ),
            "wait_deadline times out rather than dropping the pending half"
        );
        assert_eq!(
            abandoned_count(&shared),
            0,
            "no abandonment before the sibling resolves"
        );
        tx_b.send(Outcome::Served(served(8, 1, 64)));
        for _ in 0..3 {
            assert!(matches!(mixed.try_wait(), Err(WaitError::Expired(_))));
        }
        assert!(matches!(
            mixed.wait_deadline(Instant::now() + std::time::Duration::from_millis(1)),
            Err(WaitError::Expired(_))
        ));
        assert_eq!(
            abandoned_count(&shared),
            1,
            "one abandoned half, counted once"
        );
    }

    /// Both halves served: the mixed bytes are the reference mix truncated
    /// to the requested length, whichever wait variant redeems the ticket.
    #[test]
    fn served_halves_mix_to_the_reference_and_truncate() {
        let shared = bare_shared();
        let (tx_a, a) = ticket_channel(9, 0);
        let (tx_b, b) = ticket_channel(10, 1);
        let mixed = MixedTicket::new(a, b, 20, Arc::clone(&shared));
        let (first, second) = (served(9, 0, 64), served(10, 1, 64));
        tx_a.send(Outcome::Served(first.clone()));
        tx_b.send(Outcome::Served(second.clone()));
        let out = mixed.wait().expect("both halves served");
        let mut expected = mix_reference(&first.bytes, &second.bytes);
        expected.truncate(20);
        assert_eq!(out.bytes, expected);
        assert_eq!(out.first, first);
        assert_eq!(out.second, second);
        assert_eq!(abandoned_count(&shared), 0);
    }

    proptest! {
        /// Satellite pin: the batched hot path and the scalar reference
        /// twin agree bit for bit on arbitrary block-aligned sources.
        #[test]
        fn prop_mix_matches_the_scalar_reference(
            seed_a in any::<u64>(),
            seed_b in any::<u64>(),
            blocks in 1usize..9,
        ) {
            use rand::{Rng, SeedableRng};
            let gen = |seed: u64| -> Vec<u8> {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                (0..blocks * 64).map(|_| (rng.gen::<u64>() & 0xFF) as u8).collect()
            };
            let (a, b) = (gen(seed_a), gen(seed_b));
            prop_assert_eq!(mix(&a, &b), mix_reference(&a, &b));
        }
    }
}
