//! Lane sharding: splitting an oversized ATC-CL cluster into balanced
//! sub-lanes.
//!
//! Section 6.1's clustering caps *over-sharing*, but it does nothing for
//! *under-parallelism*: one dominant cluster serializes most of the work
//! on a single lane no matter how many worker threads exist. This module
//! is the planner for the engine's lane-sharding layer: when a cluster's
//! estimated work exceeds a configured threshold, its UQ bitset is
//! partitioned by greedy cost-balanced bin-packing (LPT — longest
//! processing time first) into up to `max_shards` shards, each of which
//! the engine routes to its own lane and re-plans through the warm
//! optimizer path.
//!
//! Sharding trades *sharing* for *balance*: two shards of one cluster no
//! longer share subexpression state, so total work can grow — but the
//! maximum lane wall shrinks, which is what bounds parallel speedup. It
//! must never trade *results*: the union of per-UQ result multisets
//! across shards is identical to the unsharded run (pinned by
//! `tests/shard_identity.rs`).
//!
//! Everything here is deterministic given the config and the input
//! weights: ties in the LPT ordering break on the dense UQ index, ties in
//! bin loads break on the lowest bin index.

use crate::adaptive::ObservedStats;
use crate::warm::WarmStore;
use qsys_query::cqset::{CqIdx, CqSet};
use qsys_query::{SigInterner, SubExprSig, UserQuery};
use std::collections::BTreeSet;

/// Sharding knobs, carried by `EngineConfig::sharding`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardConfig {
    /// Estimated-work threshold above which a cluster is split, in
    /// *UQ-equivalents*: per-UQ weights are normalized to mean 1.0, so a
    /// cluster's work estimate degrades gracefully to its UQ count when
    /// no warm cost inputs resolve. `None` (the default) disables
    /// sharding entirely — lane topology and goldens are byte-identical
    /// to the pre-sharding engine.
    pub threshold: Option<f64>,
    /// Maximum sub-lanes one cluster may split into.
    pub max_shards: usize,
}

impl ShardConfig {
    /// The shard cap of [`ShardConfig::off`] and [`ShardConfig::at`].
    pub const DEFAULT_MAX_SHARDS: usize = 8;

    /// Sharding disabled (the default).
    pub fn off() -> ShardConfig {
        ShardConfig {
            threshold: None,
            max_shards: ShardConfig::DEFAULT_MAX_SHARDS,
        }
    }

    /// Sharding enabled at `threshold` UQ-equivalents.
    pub fn at(threshold: f64) -> ShardConfig {
        ShardConfig {
            threshold: Some(threshold),
            ..ShardConfig::off()
        }
    }

    /// Whether any cluster can ever be split under this config.
    pub fn enabled(&self) -> bool {
        self.threshold.is_some() && self.max_shards > 1
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig::off()
    }
}

/// Weight floor: keeps every UQ's weight strictly positive so LPT fills
/// `k` bins with `k` distinct first picks (a zero-weight item would pile
/// onto bin 0 and leave bins empty).
const MIN_WEIGHT: f64 = 1e-6;

/// Per-UQ cost a shard planner falls back to when a UQ has no stream
/// leaves at all: 1.0, one UQ-equivalent.
pub const FALLBACK_UQ_COST: f64 = 1.0;

/// Cost charged for a stream leaf whose cardinality the warm store does
/// not know. One unit per unknown leaf makes a cold engine shard by
/// *structure* — a UQ touching 12 distinct leaves weighs 12× one
/// touching a single relation — instead of degenerating to a flat count.
const DEFAULT_LEAF_COST: f64 = 1.0;

/// Estimate one UQ's stream-leaf cost from the warm store's cost inputs:
/// the summed cardinality of its distinct stream leaves (relation +
/// selection signatures), looked up without interning anything. When the
/// lane has runtime observations ([`ObservedStats`]), they refine the
/// frozen facts — an exhausted leaf's observed count is *exact* and
/// overrides, a live leaf's archive is a lower bound and only raises —
/// so shard packing of warm lanes weighs by what the executor actually
/// saw instead of the catalog's guess. A leaf with neither a fact nor an
/// observation charges [`DEFAULT_LEAF_COST`], so a cold engine weighs
/// UQs by their distinct-leaf count; a leafless UQ falls back to
/// [`FALLBACK_UQ_COST`].
pub fn estimate_uq_cost(
    uq: &UserQuery,
    state: Option<(&SigInterner, &WarmStore)>,
    observed: Option<&ObservedStats>,
) -> f64 {
    let mut seen: BTreeSet<SubExprSig> = BTreeSet::new();
    let mut total = 0.0;
    for (cq, _) in &uq.cqs {
        for atom in &cq.atoms {
            let sig = SubExprSig::relation(atom.rel, atom.selection.clone());
            if !seen.insert(sig.clone()) {
                continue;
            }
            let card = state.and_then(|(interner, warm)| {
                interner.get(&sig).and_then(|id| {
                    let fact = warm.peek_fact(id).map(|fact| fact.card.max(0.0));
                    let obs = observed.and_then(|o| o.card(id));
                    match (fact, obs) {
                        (_, Some(oc)) if oc.exhausted => Some(oc.tuples as f64),
                        (Some(card), Some(oc)) => Some(card.max(oc.tuples as f64)),
                        (Some(card), None) => Some(card),
                        (None, Some(oc)) => Some((oc.tuples as f64).max(DEFAULT_LEAF_COST)),
                        (None, None) => None,
                    }
                })
            });
            total += card.unwrap_or(DEFAULT_LEAF_COST);
        }
    }
    if total > 0.0 {
        total.max(MIN_WEIGHT)
    } else {
        FALLBACK_UQ_COST
    }
}

/// Normalize raw per-UQ costs to mean 1.0 (UQ-equivalents), so the shard
/// threshold means the same thing whether the estimator resolved warm
/// cardinalities or fell back to unit costs. Degenerate inputs (empty,
/// all-zero) normalize to unit weights.
pub fn normalize_weights(raw: &[f64]) -> Vec<f64> {
    let n = raw.len();
    if n == 0 {
        return Vec::new();
    }
    let mean = raw.iter().map(|c| c.max(0.0)).sum::<f64>() / n as f64;
    if !mean.is_finite() || mean <= 0.0 {
        return vec![FALLBACK_UQ_COST; n];
    }
    raw.iter()
        .map(|c| (c.max(0.0) / mean).max(MIN_WEIGHT))
        .collect()
}

/// Partition one cluster's UQ bitset into cost-balanced shards.
///
/// `weight[i]` is the work estimate of dense UQ index `i` (indices not in
/// `cluster` are ignored). The cluster splits only when its summed weight
/// exceeds `threshold` and it has at least two members; the shard count
/// is `ceil(total / threshold)` capped by `max_shards` and by the member
/// count. Packing is LPT: members in descending weight order (ties on the
/// dense index) each go to the least-loaded bin (ties on the lowest bin
/// index) — deterministic, and never worse than 4/3 · OPT on makespan.
///
/// The returned shards are disjoint, non-empty, and their union is
/// exactly `cluster` (the proptest in `tests/proptest_invariants.rs`
/// pins this for arbitrary weights).
pub fn shard_cluster(
    cluster: &CqSet,
    weight: &[f64],
    threshold: f64,
    max_shards: usize,
) -> Vec<CqSet> {
    shard_cluster_affine(cluster, weight, None, threshold, max_shards)
}

/// [`shard_cluster`] with an interaction term: `pairwise(a, b)` is the
/// *extra* work co-locating members `a` and `b` costs on top of their
/// individual weights. Clustered UQs share relations by construction,
/// and shared stream state makes a lane's cost superlinear in how much
/// its members overlap — so the packer charges each bin the interaction
/// of every co-located pair, and the greedy step places each member
/// where (load + weight + interactions) is smallest. With `None` this
/// is plain load-only LPT.
pub fn shard_cluster_affine(
    cluster: &CqSet,
    weight: &[f64],
    pairwise: Option<&dyn Fn(CqIdx, CqIdx) -> f64>,
    threshold: f64,
    max_shards: usize,
) -> Vec<CqSet> {
    let w = |idx: CqIdx| {
        weight
            .get(idx.index())
            .copied()
            .unwrap_or(FALLBACK_UQ_COST)
            .max(MIN_WEIGHT)
    };
    let mut members: Vec<CqIdx> = cluster.iter().collect();
    let total: f64 = members.iter().map(|i| w(*i)).sum();
    let wanted = if threshold > 0.0 && total.is_finite() {
        (total / threshold).ceil() as usize
    } else {
        1
    };
    let k = wanted.min(max_shards.max(1)).min(members.len());
    if members.len() < 2 || total <= threshold || k < 2 {
        return vec![cluster.clone()];
    }

    // LPT: heaviest first, ties on the dense index keep the order total.
    members.sort_by(|a, b| {
        w(*b)
            .partial_cmp(&w(*a))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    let mut bins: Vec<(f64, Vec<CqIdx>, CqSet)> =
        (0..k).map(|_| (0.0, Vec::new(), CqSet::new())).collect();
    for idx in members {
        let loaded = |bin: &(f64, Vec<CqIdx>, CqSet)| {
            let interact: f64 = match pairwise {
                Some(p) => bin.1.iter().map(|other| p(idx, *other).max(0.0)).sum(),
                None => 0.0,
            };
            bin.0 + w(idx) + interact
        };
        let (target, new_load) = bins
            .iter()
            .enumerate()
            .map(|(i, bin)| (i, loaded(bin)))
            .min_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            })
            .expect("k ≥ 2 bins");
        bins[target].0 = new_load;
        bins[target].1.push(idx);
        bins[target].2.insert(idx);
    }
    bins.into_iter()
        .map(|(_, _, set)| set)
        .filter(|set| !set.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(indices: &[u16]) -> CqSet {
        CqSet::from_indices(indices.iter().map(|i| CqIdx(*i)))
    }

    fn members(s: &CqSet) -> Vec<u16> {
        s.iter().map(|i| i.0).collect()
    }

    #[test]
    fn below_threshold_stays_whole() {
        let cluster = set(&[0, 1, 2]);
        let shards = shard_cluster(&cluster, &[1.0, 1.0, 1.0], 5.0, 8);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0], cluster);
    }

    #[test]
    fn singleton_never_splits() {
        let cluster = set(&[3]);
        let shards = shard_cluster(&cluster, &[0.0, 0.0, 0.0, 100.0], 1.0, 8);
        assert_eq!(shards.len(), 1);
        assert_eq!(members(&shards[0]), vec![3]);
    }

    #[test]
    fn oversized_cluster_splits_balanced() {
        // Σ = 12, threshold 6 → 2 shards; LPT puts 8 alone against 2+1+1.
        let cluster = set(&[0, 1, 2, 3]);
        let shards = shard_cluster(&cluster, &[8.0, 2.0, 1.0, 1.0], 6.0, 8);
        assert_eq!(shards.len(), 2);
        assert_eq!(members(&shards[0]), vec![0]);
        assert_eq!(members(&shards[1]), vec![1, 2, 3]);
    }

    #[test]
    fn shard_count_capped_by_max_and_members() {
        let cluster = set(&[0, 1, 2, 3, 4]);
        let weights = [10.0; 5];
        // Threshold 1 asks for 50 shards; the member count caps at 5…
        assert_eq!(shard_cluster(&cluster, &weights, 1.0, 64).len(), 5);
        // …and max_shards caps below that.
        assert_eq!(shard_cluster(&cluster, &weights, 1.0, 3).len(), 3);
    }

    #[test]
    fn partition_is_disjoint_and_total() {
        let cluster = set(&[1, 2, 5, 7, 9, 10]);
        let weights = [0.0, 4.0, 1.0, 0.0, 0.0, 9.0, 0.0, 2.0, 0.0, 2.0, 6.0];
        let shards = shard_cluster(&cluster, &weights, 5.0, 4);
        assert!(shards.len() > 1);
        let mut union = CqSet::new();
        let mut count = 0;
        for shard in &shards {
            assert!(!shard.is_empty());
            count += shard.len();
            union.union_with(shard);
        }
        assert_eq!(union, cluster, "shards cover the cluster exactly");
        assert_eq!(count, cluster.len(), "shards are disjoint");
    }

    #[test]
    fn packing_is_deterministic() {
        let cluster = set(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let weights = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let a = shard_cluster(&cluster, &weights, 8.0, 4);
        let b = shard_cluster(&cluster, &weights, 8.0, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn equal_weights_round_robin_by_index() {
        // All ties: LPT order is the dense index, bins fill lowest-first.
        let cluster = set(&[0, 1, 2, 3]);
        let shards = shard_cluster(&cluster, &[1.0; 4], 1.5, 2);
        assert_eq!(shards.len(), 2);
        assert_eq!(members(&shards[0]), vec![0, 2]);
        assert_eq!(members(&shards[1]), vec![1, 3]);
    }

    #[test]
    fn affinity_separates_expensive_pairs() {
        // Equal weights, but co-locating 0 with 2 (or 1 with 3) costs 10×
        // extra. Load-only LPT round-robins to {0,2} | {1,3} — exactly the
        // expensive pairs; the interaction term steers around them.
        let cluster = set(&[0, 1, 2, 3]);
        let expensive = |a: CqIdx, b: CqIdx| {
            let pair = (a.0.min(b.0), a.0.max(b.0));
            if pair == (0, 2) || pair == (1, 3) {
                10.0
            } else {
                0.0
            }
        };
        let plain = shard_cluster(&cluster, &[1.0; 4], 1.5, 2);
        assert_eq!(members(&plain[0]), vec![0, 2]);
        let shards = shard_cluster_affine(&cluster, &[1.0; 4], Some(&expensive), 1.5, 2);
        assert_eq!(shards.len(), 2);
        assert_eq!(members(&shards[0]), vec![0, 3]);
        assert_eq!(members(&shards[1]), vec![1, 2]);
    }

    #[test]
    fn normalize_targets_mean_one() {
        let w = normalize_weights(&[2.0, 4.0, 6.0]);
        let mean = w.iter().sum::<f64>() / w.len() as f64;
        assert!((mean - 1.0).abs() < 1e-9);
        assert!(w[0] < w[1] && w[1] < w[2]);
        // Degenerate inputs normalize to unit weights, never NaN.
        assert_eq!(normalize_weights(&[0.0, 0.0]), vec![1.0, 1.0]);
        assert_eq!(normalize_weights(&[]), Vec::<f64>::new());
    }

    #[test]
    fn cost_estimator_falls_back_without_state() {
        use qsys_query::ScoreFn;
        use qsys_types::{CqId, RelId, UqId, UserId};
        let cq = qsys_query::ConjunctiveQuery {
            id: CqId::new(0),
            uq: UqId::new(0),
            user: UserId::new(0),
            atoms: vec![qsys_query::CqAtom {
                rel: RelId::new(7),
                selection: None,
            }],
            joins: vec![],
        };
        let uq = UserQuery {
            id: UqId::new(0),
            user: UserId::new(0),
            keywords: "x".into(),
            cqs: vec![(cq, ScoreFn::discover(UserId::new(0), 1))],
        };
        assert_eq!(estimate_uq_cost(&uq, None, None), FALLBACK_UQ_COST);
        // An empty interner/warm pair also resolves nothing.
        let interner = SigInterner::new();
        let warm = WarmStore::default();
        assert_eq!(
            estimate_uq_cost(&uq, Some((&interner, &warm)), None),
            FALLBACK_UQ_COST
        );
    }

    #[test]
    fn cost_estimator_reads_warm_cards() {
        use crate::warm::WarmFact;
        use qsys_query::ScoreFn;
        use qsys_types::{CqId, RelId, UqId, UserId};
        let mut interner = SigInterner::new();
        let sig = interner.relation(RelId::new(7), None);
        let mut warm = WarmStore::default();
        warm.set_fact(
            sig,
            WarmFact {
                card: 250.0,
                streamed: true,
                size: 40,
            },
        );
        let cq = qsys_query::ConjunctiveQuery {
            id: CqId::new(0),
            uq: UqId::new(0),
            user: UserId::new(0),
            atoms: vec![qsys_query::CqAtom {
                rel: RelId::new(7),
                selection: None,
            }],
            joins: vec![],
        };
        let uq = UserQuery {
            id: UqId::new(0),
            user: UserId::new(0),
            keywords: "x".into(),
            cqs: vec![(cq, ScoreFn::discover(UserId::new(0), 1))],
        };
        assert_eq!(estimate_uq_cost(&uq, Some((&interner, &warm)), None), 250.0);
    }

    #[test]
    fn cost_estimator_prefers_observed_cards() {
        use crate::warm::WarmFact;
        use qsys_query::ScoreFn;
        use qsys_types::{CqId, RelId, UqId, UserId};
        let mut interner = SigInterner::new();
        let sig = interner.relation(RelId::new(7), None);
        let mut warm = WarmStore::default();
        warm.set_fact(
            sig,
            WarmFact {
                card: 250.0,
                streamed: true,
                size: 40,
            },
        );
        let cq = qsys_query::ConjunctiveQuery {
            id: CqId::new(0),
            uq: UqId::new(0),
            user: UserId::new(0),
            atoms: vec![qsys_query::CqAtom {
                rel: RelId::new(7),
                selection: None,
            }],
            joins: vec![],
        };
        let uq = UserQuery {
            id: UqId::new(0),
            user: UserId::new(0),
            keywords: "x".into(),
            cqs: vec![(cq, ScoreFn::discover(UserId::new(0), 1))],
        };
        // An exhausted observation is exact: it overrides the frozen
        // fact in either direction.
        let mut observed = ObservedStats::new();
        observed.note_stream(sig, 40, true);
        assert_eq!(
            estimate_uq_cost(&uq, Some((&interner, &warm)), Some(&observed)),
            40.0
        );
        // A live observation is a lower bound: it raises a stale fact…
        let mut live = ObservedStats::new();
        live.note_stream(sig, 900, false);
        assert_eq!(
            estimate_uq_cost(&uq, Some((&interner, &warm)), Some(&live)),
            900.0
        );
        // …but never lowers one that may still be right.
        let mut small = ObservedStats::new();
        small.note_stream(sig, 10, false);
        assert_eq!(
            estimate_uq_cost(&uq, Some((&interner, &warm)), Some(&small)),
            250.0
        );
        // Observation without a warm fact still weighs the leaf.
        let bare = SigInterner::new();
        let mut bare_interner = bare;
        let bare_sig = bare_interner.relation(RelId::new(7), None);
        let cold = WarmStore::default();
        let mut obs_only = ObservedStats::new();
        obs_only.note_stream(bare_sig, 33, false);
        assert_eq!(
            estimate_uq_cost(&uq, Some((&bare_interner, &cold)), Some(&obs_only)),
            33.0
        );
    }
}
