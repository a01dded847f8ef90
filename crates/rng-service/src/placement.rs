//! Control plane: shard placement — the pure decision rule that assigns an
//! admitted request to a shard, and the [`PlacementPolicy`] trait seam that
//! lets alternative rules (pinning, locality, DR-STRaNGe-style interference
//! avoidance) plug into the service without touching its state machine.
//!
//! There is one stock policy, [`TieredPlacement`], for every service: it
//! routes by request priority across backend kinds and, within the chosen
//! tier, applies [`least_loaded_shard`] (least-loaded serving shard,
//! rotation tie-break). On a fleet of one backend kind — every
//! [`RngService::start`](crate::RngService::start) instance — no tier
//! choice is left, and it picks exactly what [`least_loaded_shard`] picks.
//!
//! Placement runs under the service's state lock with a read-only
//! [`PlacementView`] of the moment's loads and health, so a policy is a pure
//! function: deterministic placement is what the serial-equivalence and
//! placement-property tests replay, and any policy substituted through
//! [`RngService::start_with_policies`](crate::RngService::start_with_policies)
//! inherits the same replay guarantee if it is deterministic in the view.

use crate::health::ShardHealth;
use crate::request::Priority;
use quac_trng::BackendKind;

/// A read-only snapshot of what placement may consult, taken under the
/// service state lock at one admission (or failover re-placement).
#[derive(Debug)]
pub struct PlacementView<'a> {
    /// Admitted-but-undelivered bytes per shard (queued plus being
    /// generated) — the load metric the default rule minimises.
    pub loads: &'a [usize],
    /// Per-shard validation health; the default rule never places on a
    /// shard that is not serving while any serving shard exists.
    pub health: &'a [ShardHealth],
    /// The entropy-backend kind behind each shard — what
    /// [`TieredPlacement`] routes across (all `Quac` for a homogeneous
    /// [`RngService::start`](crate::RngService::start) instance).
    pub kinds: &'a [BackendKind],
    /// Priority of the request being placed, for policies that route
    /// latency-sensitive work differently from bulk work.
    pub priority: Priority,
    /// Rotation point for tie-breaking, advanced past each pick by the
    /// service so equal loads degrade to round-robin.
    pub rotation: usize,
}

/// The placement seam of the control plane: given the moment's view, pick
/// the shard an admitted request is queued on.
///
/// The returned index must be `< view.loads.len()`; the service panics on an
/// out-of-range pick rather than corrupting its load accounting. A policy
/// that is a pure function of the view preserves the replay-determinism
/// contract (see the [crate docs](crate)); a stateful or randomized one
/// trades that away knowingly.
pub trait PlacementPolicy: std::fmt::Debug + Send + Sync {
    /// Picks the shard for the next request.
    fn place(&self, view: &PlacementView<'_>) -> usize;
}

/// The stock placement policy: route each request to its preferred backend
/// tier, falling through to slower tiers when the preferred one has no
/// serving shard.
///
/// The tier preference is a pure function of the request priority:
///
/// * [`Priority::High`] (latency-sensitive) → D-RaNGe, then QUAC, then
///   retention — D-RaNGe produces one number in a single reduced-tRCD
///   read, the lowest-latency mechanism in the mesh.
/// * [`Priority::Normal`] (bulk) → QUAC, then D-RaNGe, then retention —
///   QUAC has ~10× the per-channel throughput.
///
/// Retention is always the last resort (slow, bursty). Within the chosen
/// tier the rule is exactly [`least_loaded_shard`] with non-tier shards
/// masked out, so the policy inherits its round-robin tie-break and the
/// replay-determinism contract; on a fleet of one kind it is exactly
/// [`least_loaded_shard`]. When *no* shard in any tier is serving (the
/// degraded state) it falls back to plain least-loaded over all shards,
/// keeping the rule total.
#[derive(Debug, Clone, Copy, Default)]
pub struct TieredPlacement;

impl TieredPlacement {
    /// The backend-tier preference order for a request priority.
    pub fn tier_order(priority: Priority) -> [BackendKind; 3] {
        match priority {
            Priority::High => [BackendKind::DRange, BackendKind::Quac, BackendKind::Retention],
            Priority::Normal => [BackendKind::Quac, BackendKind::DRange, BackendKind::Retention],
        }
    }
}

impl PlacementPolicy for TieredPlacement {
    fn place(&self, view: &PlacementView<'_>) -> usize {
        let count = view.loads.len();
        let serving_kind = |i: usize, kind: BackendKind| {
            view.health[i].is_serving() && view.kinds.get(i).copied() == Some(kind)
        };
        // The first tier with a serving shard. There is none when every
        // shard of every tier is fenced (or kinds are unknown): the rule
        // then degrades to plain least-loaded so the pick stays total.
        let tier = Self::tier_order(view.priority)
            .into_iter()
            .find(|&kind| (0..count).any(|i| serving_kind(i, kind)));
        least_loaded_shard(count, view.rotation, |i| view.loads[i], |i| match tier {
            Some(kind) => !serving_kind(i, kind),
            None => !view.health[i].is_serving(),
        })
    }
}

/// Least-loaded, quarantine-aware shard placement — the pure decision rule
/// [`TieredPlacement`] applies within a tier, split out so placement
/// properties can be tested without threads.
///
/// Scans the `count` shards starting from `start` (the rotation point the
/// service advances past each pick) and returns the first non-quarantined
/// shard with the strictly smallest load. Consequences of that rule:
///
/// * **Quarantine-aware** — while at least one shard is healthy, a
///   quarantined shard is never selected. If *every* shard is quarantined,
///   placement falls back to all shards — the service layer normally never
///   asks in that state (admission is governed by
///   [`DegradedPolicy`](crate::DegradedPolicy) instead), so the fallback
///   only keeps the pure rule total.
/// * **Round-robin at equal load** — ties go to the first candidate in
///   rotation order from `start`, so an otherwise idle service degrades to
///   exactly the round-robin assignment the serial-equivalence tests replay.
///
/// # Panics
///
/// Panics if `count` is zero.
pub fn least_loaded_shard(
    count: usize,
    start: usize,
    load: impl Fn(usize) -> usize,
    quarantined: impl Fn(usize) -> bool,
) -> usize {
    assert!(count > 0, "placement needs at least one shard");
    let any_healthy = (0..count).any(|i| !quarantined(i));
    let mut best: Option<usize> = None;
    for k in 0..count {
        let i = (start + k) % count;
        if any_healthy && quarantined(i) {
            continue;
        }
        match best {
            Some(b) if load(i) >= load(b) => {}
            _ => best = Some(i),
        }
    }
    best.expect("some shard is always eligible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn placement_is_round_robin_at_equal_load() {
        // All loads zero: rotation from `start` degrades to round-robin,
        // the behaviour the serial-equivalence integration tests replay.
        let mut start = 0;
        let mut picks = Vec::new();
        for _ in 0..6 {
            let s = least_loaded_shard(3, start, |_| 0, |_| false);
            picks.push(s);
            start = (s + 1) % 3;
        }
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn placement_prefers_the_least_loaded_shard() {
        let loads = [500usize, 20, 300];
        assert_eq!(least_loaded_shard(3, 0, |i| loads[i], |_| false), 1);
        // Strictly smallest wins regardless of rotation start.
        for start in 0..3 {
            assert_eq!(least_loaded_shard(3, start, |i| loads[i], |_| false), 1);
        }
    }

    #[test]
    fn placement_never_selects_a_quarantined_shard_while_any_is_healthy() {
        let loads = [0usize, 10, 20];
        // Shard 0 is idle but quarantined: the busier healthy shard wins.
        assert_eq!(least_loaded_shard(3, 0, |i| loads[i], |i| i == 0), 1);
        for start in 0..3 {
            let pick = least_loaded_shard(3, start, |i| loads[i], |i| i != 2);
            assert_eq!(pick, 2, "only healthy shard must be picked (start {start})");
        }
    }

    #[test]
    fn placement_falls_back_when_every_shard_is_quarantined() {
        let loads = [7usize, 3, 9];
        assert_eq!(least_loaded_shard(3, 0, |i| loads[i], |_| true), 1);
    }

    #[test]
    fn tiered_placement_routes_by_priority_and_falls_through_tiers() {
        use crate::health::ShardState;
        fn place(health: &[ShardHealth], priority: Priority) -> usize {
            let kinds = [BackendKind::Quac, BackendKind::DRange, BackendKind::Retention];
            TieredPlacement.place(&PlacementView {
                loads: &[0, 100, 0],
                health,
                kinds: &kinds,
                priority,
                rotation: 0,
            })
        }
        let mut health = vec![ShardHealth::new(); 3];
        // Bulk work goes to the (idle) QUAC shard; latency-sensitive work
        // goes to the D-RaNGe shard even though it is busier.
        assert_eq!(place(&health, Priority::Normal), 0);
        assert_eq!(place(&health, Priority::High), 1);
        // QUAC fenced: bulk falls through to D-RaNGe, never to retention
        // while D-RaNGe serves.
        health[0].state = ShardState::Quarantined;
        assert_eq!(place(&health, Priority::Normal), 1);
        // D-RaNGe also fenced: both priorities land on the retention tier.
        health[1].state = ShardState::Quarantined;
        assert_eq!(place(&health, Priority::Normal), 2);
        assert_eq!(place(&health, Priority::High), 2);
        // Everything fenced: total fallback, least-loaded over all shards.
        health[2].state = ShardState::Quarantined;
        assert_eq!(place(&health, Priority::Normal), 0);
    }

    #[test]
    fn tiered_placement_is_least_loaded_within_a_tier() {
        let kinds = [BackendKind::Quac, BackendKind::Quac, BackendKind::DRange];
        let loads = [50usize, 10, 0];
        let health = vec![ShardHealth::new(); 3];
        let view = PlacementView {
            loads: &loads,
            health: &health,
            kinds: &kinds,
            priority: Priority::Normal,
            rotation: 0,
        };
        // The idle D-RaNGe shard is outside the preferred tier: the less
        // loaded of the two QUAC shards wins.
        assert_eq!(TieredPlacement.place(&view), 1);
    }

    proptest! {
        /// Placement safety under arbitrary load/quarantine vectors: never a
        /// quarantined shard while a healthy one exists, always a (healthy)
        /// load minimum.
        #[test]
        fn prop_placement_is_safe_and_minimal(
            loads in proptest::collection::vec(0usize..1000, 1..9),
            mask in proptest::collection::vec(any::<bool>(), 1..9),
            start in 0usize..9,
        ) {
            let n = loads.len().min(mask.len());
            let loads = &loads[..n];
            let mask = &mask[..n];
            let pick = least_loaded_shard(n, start % n, |i| loads[i], |i| mask[i]);
            prop_assert!(pick < n);
            let any_healthy = mask.iter().any(|q| !q);
            if any_healthy {
                prop_assert!(!mask[pick], "picked a quarantined shard");
                let min_healthy =
                    (0..n).filter(|&i| !mask[i]).map(|i| loads[i]).min().unwrap();
                prop_assert_eq!(loads[pick], min_healthy);
            } else {
                let min_all = loads.iter().copied().min().unwrap();
                prop_assert_eq!(loads[pick], min_all);
            }
        }

        /// On a fleet of one backend kind — any of the three — tiered
        /// placement is the plain least-loaded rule, for every load vector,
        /// health mask, rotation and priority: the one stock policy places
        /// a homogeneous service exactly as the pure rule does.
        #[test]
        fn prop_tiered_placement_is_least_loaded_on_one_kind(
            loads in proptest::collection::vec(0usize..1000, 1..9),
            mask in proptest::collection::vec(any::<bool>(), 1..9),
            start in 0usize..9,
            kind in 0usize..3,
            high in any::<bool>(),
        ) {
            let n = loads.len().min(mask.len());
            let loads = &loads[..n];
            let health: Vec<ShardHealth> = mask[..n]
                .iter()
                .map(|&fenced| {
                    let mut h = ShardHealth::new();
                    if fenced {
                        h.force_quarantine();
                    }
                    h
                })
                .collect();
            let kind = [BackendKind::Quac, BackendKind::DRange, BackendKind::Retention][kind];
            let view = PlacementView {
                loads,
                health: &health,
                kinds: &vec![kind; n],
                priority: if high { Priority::High } else { Priority::Normal },
                rotation: start % n,
            };
            let expected =
                least_loaded_shard(n, start % n, |i| loads[i], |i| !health[i].is_serving());
            prop_assert_eq!(TieredPlacement.place(&view), expected);
        }
    }
}
