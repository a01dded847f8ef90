//! Data plane: the per-shard worker — dequeue a coalesced batch, generate,
//! pace, tap, deliver. Nothing here decides placement, health, or admission;
//! those are control-plane concerns ([`crate::control`],
//! [`crate::placement`]) the worker only observes through the shared state.

use crate::control::{requalify_shard, sweep_shard_expired};
use crate::request::{Completion, RngRequest};
use crate::state::{Lifecycle, Shared};
use crate::ticket::{Outcome, TicketSender};
use crate::validate::{tap_quota_allows, TapChunk};
use quac_trng::EntropyBackend;
use std::sync::mpsc;
use std::time::Instant;

/// One shard's worker: dequeue a coalesced batch, generate all its bytes
/// with a single buffer-reusing [`EntropyBackend::fill_bytes`] call, pace
/// delivery against the idle-cycle budget, deliver per-request completions,
/// tap a copy for the shard's grader, release the budget. When the shard is
/// quarantined and its queue has drained, the worker switches to
/// requalification: recharacterise, generate probation windows, grade them,
/// and readmit on a passing streak (see [`crate::control`]).
///
/// The worker is backend-agnostic: any [`EntropyBackend`] — the QUAC
/// pipeline, a D-RaNGe generator, a retention harvester — serves through the
/// same batch/pace/tap/deliver loop.
pub(crate) fn worker_loop(
    shared: &Shared,
    shard_idx: usize,
    mut trng: Box<dyn EntropyBackend>,
    tap: Option<mpsc::SyncSender<TapChunk>>,
) {
    // Token-bucket pacing deadline: each batch owes `time_for_bytes` of
    // wall-clock on top of the previous deadline (or of "now" after an idle
    // gap — idle time is not banked into a later burst). Accumulating per
    // batch keeps every single wait within `time_for_bytes`' saturation
    // bound, no matter how much has been delivered in total.
    let mut pace_deadline = Instant::now();
    let mut batch: Vec<RngRequest> = Vec::new();
    let mut senders: Vec<Option<TicketSender>> = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut expired_scratch: Vec<RngRequest> = Vec::new();
    // Entropy-ledger accounting. `fresh_seen` is the backend's cumulative
    // fresh-bit counter at the last observation; the delta since then splits
    // into `banked_fresh` (drawn for *serving* — attributable to
    // completions) and the rest (probation windows: drawn, graded, never
    // served). `pending_drawn` carries both toward the next locked stats
    // flush. Attribution divides the bank pro-rata over the bytes it
    // conditions (this batch + what the backend still buffers), so the sum
    // of per-completion claims can never exceed the bank — the ledger
    // property the contract layer enforces.
    let backend_kind = trng.class().kind;
    let mut fresh_seen: u64 = trng.stream().fresh_bits_drawn();
    let mut banked_fresh: u64 = 0;
    let mut pending_drawn: u64 = 0;
    let mut claims: Vec<u64> = Vec::new();
    // Delivered-byte offset within the current stream epoch: readmission
    // restarts the shard's stream (recharacterisation rebuilds the
    // sampler), so offsets restart with it — completions stay gapless per
    // `(shard, epoch)`.
    let mut stream_offset: u64 = 0;
    let mut current_epoch: u64 = 0;
    // Coverage accounting of the lossy tap (bytes served vs bytes tapped by
    // this worker), enforcing `ValidationConfig::target_coverage`.
    let mut tap_served: u64 = 0;
    let mut tap_taken: u64 = 0;
    loop {
        // Phase 1 (locked): wait for work, dequeue a batch and its tickets —
        // or detect that this shard is fenced off with an empty queue and
        // must requalify instead.
        batch.clear();
        senders.clear();
        let mut requalify = false;
        let mut batch_epoch = 0u64;
        let batch_bytes = {
            let mut st = shared.state.lock().expect("service state poisoned");
            loop {
                match st.lifecycle {
                    Lifecycle::Aborting => return,
                    Lifecycle::Draining if st.shards[shard_idx].is_empty() => return,
                    // A drain serves everything accepted, even through a
                    // fenced shard — the documented last resort when no
                    // healthy shard could take its queue over.
                    Lifecycle::Draining => break,
                    // While running, a fenced shard never serves: its queued
                    // work was failed over to healthy shards at the
                    // quarantine trip (or waits for readmission, expiry, or
                    // a drain when none was healthy). Requalify instead.
                    Lifecycle::Running if !st.health[shard_idx].is_serving() => {
                        requalify = true;
                        break;
                    }
                    Lifecycle::Running if !st.shards[shard_idx].is_empty() => break,
                    Lifecycle::Running => {
                        st = shared.work.wait(st).expect("service state poisoned");
                    }
                }
            }
            if requalify {
                0
            } else {
                // Complete overdue requests before composing the batch, so a
                // request whose deadline already passed is never generated —
                // the sweep thread bounds the idle case, this bounds the
                // busy one.
                let released =
                    sweep_shard_expired(&mut st, shard_idx, Instant::now(), &mut expired_scratch);
                if released > 0 {
                    shared.space.notify_all();
                }
                if st.shards[shard_idx].is_empty() {
                    continue; // everything queued here had expired
                }
                batch_epoch = st.shard_epoch[shard_idx];
                let bytes = st.shards[shard_idx].pop_batch(
                    shared.cfg.max_batch_bytes,
                    shared.cfg.max_batch_requests,
                    &mut batch,
                );
                senders.extend(batch.iter().map(|r| st.senders.remove(&r.seq)));
                bytes
            }
        };
        if requalify {
            let keep_going = requalify_shard(shared, shard_idx, trng.as_mut(), &mut buf);
            // Probation windows drew fresh bits that were graded, never
            // served: they enter the ledger as drawn but are not bankable
            // for completion claims. The pre-probation bank dies with the
            // old stream too — recharacterisation rebuilt the sampler.
            pending_drawn += trng.stream().fresh_bits_drawn() - fresh_seen;
            fresh_seen = trng.stream().fresh_bits_drawn();
            banked_fresh = 0;
            if !keep_going {
                let mut st = shared.state.lock().expect("service state poisoned");
                st.stats.per_shard_ledger[shard_idx].fresh_bits_drawn += pending_drawn;
                return;
            }
            continue;
        }
        if batch_epoch != current_epoch {
            current_epoch = batch_epoch;
            stream_offset = 0;
        }

        // Phase 2 (unlocked): one generation pass covers the whole batch.
        buf.resize(batch_bytes, 0);
        trng.fill_bytes(&mut buf);
        pending_drawn += trng.stream().fresh_bits_drawn() - fresh_seen;
        banked_fresh += trng.stream().fresh_bits_drawn() - fresh_seen;
        fresh_seen = trng.stream().fresh_bits_drawn();
        // Attribute the bank across this batch's requests pro-rata by
        // length. The divisor counts every byte the bank still has to
        // condition — this batch plus the backend's internal buffer (fresh
        // bits drawn for a whole iteration but not yet served) — so claims
        // are conservative and Σ claims ≤ bank by construction.
        claims.clear();
        let mut unattributed = batch_bytes as u64 + trng.stream().buffered_bytes() as u64;
        for req in &batch {
            let claim = if unattributed == 0 {
                0
            } else {
                ((banked_fresh as u128 * req.len as u128) / unattributed as u128) as u64
            };
            claims.push(claim);
            banked_fresh -= claim;
            unattributed -= req.len as u64;
        }

        // Phase 3: pace delivery against the channel's idle-cycle budget.
        // The batch's bytes stay charged against the in-flight budget while
        // the worker is parked, which is what makes backpressure reflect the
        // *delivered* rate, not the simulation's generation speed.
        if !shared.cfg.pacing.is_unlimited() {
            pace_deadline =
                pace_deadline.max(Instant::now()) + shared.cfg.pacing.time_for_bytes(batch_bytes);
            let mut st = shared.state.lock().expect("service state poisoned");
            loop {
                match st.lifecycle {
                    Lifecycle::Aborting => return,
                    // A drain lifts pacing: queued work is delivered
                    // promptly instead of making `shutdown()` wait out the
                    // budget (which saturates at an hour per batch).
                    Lifecycle::Draining => break,
                    Lifecycle::Running => {}
                }
                let now = Instant::now();
                if now >= pace_deadline {
                    break;
                }
                let (guard, _) = shared
                    .work
                    .wait_timeout(st, pace_deadline - now)
                    .expect("service state poisoned");
                st = guard;
            }
        }

        // Phase 4: tap a copy of the served bytes for the grader,
        // release the budget, then deliver completions. The budget and
        // per-shard load are released *before* any completion becomes
        // visible: a sequential client that saw its reply and immediately
        // submits again must observe the load already settled, or placement
        // (and with it the per-request replay determinism the tests pin)
        // would race the release.
        let mut tapped = 0u64;
        let mut dropped = 0u64;
        if let Some(tap) = &tap {
            use std::sync::atomic::Ordering;
            if shared.cfg.validation.lossless_tap {
                // Parks this worker until its grader catches up: full,
                // deterministic coverage for tests (and backpressure stays
                // charged meanwhile, coupling admission to validation).
                let chunk = TapChunk {
                    epoch: batch_epoch,
                    bytes: buf[..batch_bytes].to_vec(),
                };
                if tap.send(chunk).is_ok() {
                    tapped = batch_bytes as u64;
                }
            } else if !tap_quota_allows(
                tap_taken,
                tap_served,
                batch_bytes as u64,
                shared.cfg.validation.target_coverage,
            ) || shared.tap_fill[shard_idx].load(Ordering::Relaxed) >= shared.tap_capacity
            {
                // Over the coverage budget, or the queue is (approximately)
                // full — the expected steady state when generation outpaces
                // grading. Skip without paying the batch copy a try_send
                // would immediately discard.
                dropped = batch_bytes as u64;
            } else {
                let chunk = TapChunk {
                    epoch: batch_epoch,
                    bytes: buf[..batch_bytes].to_vec(),
                };
                match tap.try_send(chunk) {
                    Ok(()) => {
                        shared.tap_fill[shard_idx].fetch_add(1, Ordering::Relaxed);
                        tapped = batch_bytes as u64;
                    }
                    Err(_) => dropped = batch_bytes as u64,
                }
            }
            tap_served += batch_bytes as u64;
            tap_taken += tapped;
        }
        {
            let now = Instant::now();
            let mut st = shared.state.lock().expect("service state poisoned");
            st.in_flight_bytes -= batch_bytes;
            st.shard_load[shard_idx] -= batch_bytes;
            st.stats.completed_requests += batch.len() as u64;
            st.stats.completed_bytes += batch_bytes as u64;
            st.stats.per_shard_bytes[shard_idx] += batch_bytes as u64;
            st.stats.validation.bytes_tapped += tapped;
            st.stats.validation.bytes_dropped += dropped;
            // Ledger flush: drawn (incl. any probation draw since the last
            // flush) and this batch's claims land atomically, *before* any
            // completion carrying a claim becomes visible — so no snapshot
            // can ever show completions claiming more than the ledger drew.
            let ledger = &mut st.stats.per_shard_ledger[shard_idx];
            ledger.fresh_bits_drawn += pending_drawn;
            ledger.fresh_bits_claimed += claims.iter().sum::<u64>();
            ledger.conditioned_bytes_served += batch_bytes as u64;
            pending_drawn = 0;
            for req in &batch {
                st.stats
                    .latency_us
                    .record(now.duration_since(req.submitted_at).as_micros() as u64);
                if let Some(deadline) = req.deadline {
                    // Slack left at delivery; a late delivery (deadline
                    // passed mid-generation, too late to expire) records 0.
                    st.stats
                        .deadline_slack_us
                        .record(deadline.saturating_duration_since(now).as_micros() as u64);
                }
            }
            shared.space.notify_all();
        }
        let mut offset_in_batch = 0usize;
        for ((req, sender), &fresh_bits) in batch.iter().zip(&senders).zip(&claims) {
            let bytes = buf[offset_in_batch..offset_in_batch + req.len].to_vec();
            if let Some(sender) = sender {
                // Resolving wakes the ticket's waiters — blocking waits and
                // any async task parked on its waker — at this boundary.
                sender.send(Outcome::Served(Completion {
                    client: req.client,
                    seq: req.seq,
                    shard: shard_idx,
                    epoch: batch_epoch,
                    stream_offset: stream_offset + offset_in_batch as u64,
                    fresh_bits,
                    backend: backend_kind,
                    bytes,
                }));
            }
            offset_in_batch += req.len;
        }
        stream_offset += batch_bytes as u64;
    }
}
