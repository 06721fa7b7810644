//! Cache eviction (Section 6.3).
//!
//! "Two types of objects are considered 'cacheable': the contents of
//! ranking queues that hold pending tuples to be output to the user, and
//! hash tables corresponding to specific query subexpressions. Such items
//! can be fully evicted if unreferenced by running or pending queries ...
//! We found that LRU, with size as a tie-breaker, worked quite well in
//! practice."
//!
//! Candidates are *detached* operator nodes: no children (no running query
//! consumes them), not rank-merges, not pinned. Removing a node may detach
//! its parents, which become candidates in later rounds. A node's recency
//! is its `Node::last_used` stamp, and its size is its term of the
//! graph's resident bytes (`QueryPlanGraph::node_approx_bytes`): a victim
//! is ranked by exactly what its removal releases.

use crate::{NodeId, NodeKind, QueryPlanGraph};
use qsys_query::SigId;
use qsys_types::Epoch;
use std::collections::BTreeSet;

/// Replacement policies (the paper compared several; LRU+size won).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Least-recently-used, larger state evicted first among ties.
    #[default]
    LruSizeTieBreak,
    /// Pure least-recently-used.
    Lru,
    /// Largest state first (size-greedy).
    SizeGreedy,
}

/// Cumulative eviction accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvictionStats {
    /// Nodes evicted.
    pub evicted_nodes: usize,
    /// Approximate bytes reclaimed: the drop in
    /// [`QueryPlanGraph::approx_bytes`] that the evictions made.
    pub reclaimed_bytes: usize,
}

/// Evict detached state until `graph` fits `budget` bytes, given that it
/// holds `resident` ([`QueryPlanGraph::approx_bytes`]) now. Pinned
/// signatures are skipped.
pub(crate) fn evict_to_budget(
    graph: &mut QueryPlanGraph,
    mut resident: usize,
    budget: usize,
    policy: EvictionPolicy,
    pinned: &BTreeSet<SigId>,
    stats: &mut EvictionStats,
) {
    // A running total: removing a victim takes exactly its own term off
    // the graph's sum (`QueryPlanGraph::node_approx_bytes`).
    debug_assert_eq!(resident, graph.approx_bytes());
    while resident > budget {
        let candidates: Vec<(NodeId, usize, Epoch)> = graph
            .node_ids()
            .filter(|id| {
                let node = graph.node(*id);
                if node.has_consumers() || matches!(node.kind, NodeKind::RankMerge(_)) {
                    return false;
                }
                if let Some(sig) = node.sig {
                    if pinned.contains(&sig) {
                        return false;
                    }
                }
                true
            })
            .map(|id| (id, graph.node_approx_bytes(id), graph.node(id).last_used))
            .collect();
        let victim = match policy {
            EvictionPolicy::LruSizeTieBreak => candidates
                .iter()
                .min_by(|a, b| a.2.cmp(&b.2).then(b.1.cmp(&a.1)))
                .copied(),
            EvictionPolicy::Lru => candidates.iter().min_by_key(|c| c.2).copied(),
            EvictionPolicy::SizeGreedy => candidates.iter().max_by_key(|c| c.1).copied(),
        };
        let Some((victim, bytes, _)) = victim else {
            break; // nothing evictable (all pinned or referenced)
        };
        resident -= bytes;
        let parents: Vec<NodeId> = graph.node(victim).parents.clone();
        for p in parents {
            graph.disconnect(p, victim);
        }
        graph.remove_node(victim);
        debug_assert_eq!(resident, graph.approx_bytes(), "running total drifted");
        stats.evicted_nodes += 1;
        stats.reclaimed_bytes += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RetryPolicy, SourceGovernor, StreamBacking};
    use qsys_source::{Sources, Table};
    use qsys_types::{BaseTuple, RelId, SimClock, Tuple};
    use std::sync::Arc;

    /// `n` single tuples of relation `rel`.
    fn tuples(rel: u32, n: usize) -> Vec<Arc<BaseTuple>> {
        (0..n)
            .map(|j| Arc::new(BaseTuple::new(RelId::new(rel), j as u64, vec![], 0.5)))
            .collect()
    }

    /// Build a graph of three detached replay-stream nodes with different
    /// sizes, each stamped with its last-use epoch (node 0 oldest).
    fn detached_graph() -> (QueryPlanGraph, Vec<NodeId>) {
        let mut g = QueryPlanGraph::new();
        let mut ids = Vec::new();
        for (i, n_tuples) in [4usize, 32, 8].iter().enumerate() {
            let tuples = tuples(i as u32, *n_tuples).into_iter().map(Tuple::single);
            let backing = StreamBacking::Replay {
                tuples: tuples.collect(),
                pos: 0,
            };
            let id = g.add_stream(backing, None);
            g.node_mut(id).last_used = Epoch(i as u32);
            ids.push(id);
        }
        (g, ids)
    }

    /// Evict `g` to `budget` under `policy`, nothing pinned.
    fn evict(g: &mut QueryPlanGraph, budget: usize, policy: EvictionPolicy) -> EvictionStats {
        let mut stats = EvictionStats::default();
        let resident = g.approx_bytes();
        evict_to_budget(g, resident, budget, policy, &BTreeSet::new(), &mut stats);
        stats
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let (mut g, ids) = detached_graph();
        // Budget forces exactly one eviction round at a time; evict until
        // one node remains (graph bytes of a single node ≤ 600).
        let stats = evict(&mut g, 600, EvictionPolicy::Lru);
        // The oldest (epoch 0) node goes first.
        assert!(g.try_node(ids[0]).is_none(), "oldest evicted");
        assert!(stats.evicted_nodes >= 1);
    }

    #[test]
    fn size_greedy_evicts_biggest_first() {
        let (mut g, ids) = detached_graph();
        evict(&mut g, 900, EvictionPolicy::SizeGreedy);
        assert!(g.try_node(ids[1]).is_none(), "largest (32 tuples) evicted");
        assert!(g.try_node(ids[0]).is_some());
    }

    #[test]
    fn unlimited_budget_evicts_nothing() {
        let (mut g, _) = detached_graph();
        let before = g.len();
        let stats = evict(&mut g, usize::MAX, EvictionPolicy::LruSizeTieBreak);
        assert_eq!(g.len(), before);
        assert_eq!(stats.evicted_nodes, 0);
    }

    #[test]
    fn consumers_protect_nodes() {
        let (mut g, ids) = detached_graph();
        // Give every node a consumer rooted in a rank-merge (rank-merges
        // are never evicted, so the chain stays protected even at budget 0).
        let sink = g.add_rank_merge(crate::RankMerge::new(
            qsys_types::UqId::new(0),
            qsys_types::UserId::new(0),
            1,
        ));
        for id in &ids {
            g.connect(*id, sink, 0);
        }
        evict(&mut g, 0, EvictionPolicy::LruSizeTieBreak);
        for id in &ids {
            assert!(g.try_node(*id).is_some());
        }
    }

    /// What eviction reports reclaiming is what the graph's resident
    /// bytes lost: a replay leaf's tuples and a remote leaf's stored reads
    /// count exactly as `approx_bytes` counts them.
    #[test]
    fn reclaimed_bytes_are_what_the_graph_released() {
        let (mut g, _) = detached_graph();
        let sources = Sources::new(SimClock::new(), 7);
        sources.register(Table::new(RelId::new(9), tuples(9, 12)));
        let leaf = g.add_stream(
            StreamBacking::Remote(sources.open_stream(RelId::new(9), None)),
            None,
        );
        let governor = SourceGovernor::new(RetryPolicy::default());
        for _ in 0..5 {
            g.read_stream_governed(leaf, &sources, &governor);
        }
        assert!(g.stored_len(leaf).is_some_and(|n| n > 0));
        for budget in [usize::MAX, 1_000, 300, 0] {
            let before = g.approx_bytes();
            let stats = evict(&mut g, budget, EvictionPolicy::LruSizeTieBreak);
            assert_eq!(stats.reclaimed_bytes, before - g.approx_bytes());
        }
        assert!(g.is_empty(), "budget 0 evicts every detached leaf");
    }
}
