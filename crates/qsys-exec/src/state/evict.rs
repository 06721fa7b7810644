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
//! its parents, which become candidates in later rounds.

use crate::{NodeId, NodeKind, QueryPlanGraph};
use qsys_query::SigId;
use qsys_types::Epoch;
use std::collections::{BTreeSet, HashMap};

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
    /// Approximate bytes reclaimed.
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
    last_used: &HashMap<NodeId, Epoch>,
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
            .map(|id| {
                let bytes = node_bytes(graph, id);
                let used = last_used.get(&id).copied().unwrap_or(Epoch::ZERO);
                (id, bytes, used)
            })
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
        resident -= graph.node_approx_bytes(victim);
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

fn node_bytes(graph: &QueryPlanGraph, id: NodeId) -> usize {
    match &graph.node(id).kind {
        NodeKind::MJoin(mj) => mj.approx_bytes(graph.modules()),
        NodeKind::RankMerge(rm) => rm.approx_bytes(),
        NodeKind::Stream(_) => graph.stored_len(id).unwrap_or(0) * 16 + 64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamBacking;
    use qsys_types::{BaseTuple, RelId, Tuple};
    use std::sync::Arc;

    /// Build a graph of three detached replay-stream nodes with different
    /// sizes, plus recorded last-use epochs.
    fn detached_graph() -> (QueryPlanGraph, Vec<NodeId>, HashMap<NodeId, Epoch>) {
        let mut g = QueryPlanGraph::new();
        let mut ids = Vec::new();
        let mut used = HashMap::new();
        for (i, n_tuples) in [4usize, 32, 8].iter().enumerate() {
            let tuples: Vec<Tuple> = (0..*n_tuples)
                .map(|j| {
                    Tuple::single(Arc::new(BaseTuple::new(
                        RelId::new(i as u32),
                        j as u64,
                        vec![],
                        0.5,
                    )))
                })
                .collect();
            let id = g.add_stream(StreamBacking::Replay { tuples, pos: 0 }, None);
            used.insert(id, Epoch(i as u32)); // node 0 oldest
            ids.push(id);
        }
        (g, ids, used)
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let (mut g, ids, used) = detached_graph();
        let mut stats = EvictionStats::default();
        // Budget forces exactly one eviction round at a time; evict until
        // one node remains (graph bytes of a single node ≤ 600).
        let resident = g.approx_bytes();
        evict_to_budget(
            &mut g,
            resident,
            600,
            EvictionPolicy::Lru,
            &BTreeSet::new(),
            &used,
            &mut stats,
        );
        // The oldest (epoch 0) node goes first.
        assert!(g.try_node(ids[0]).is_none(), "oldest evicted");
        assert!(stats.evicted_nodes >= 1);
    }

    #[test]
    fn size_greedy_evicts_biggest_first() {
        let (mut g, ids, used) = detached_graph();
        let mut stats = EvictionStats::default();
        let resident = g.approx_bytes();
        evict_to_budget(
            &mut g,
            resident,
            900,
            EvictionPolicy::SizeGreedy,
            &BTreeSet::new(),
            &used,
            &mut stats,
        );
        assert!(g.try_node(ids[1]).is_none(), "largest (32 tuples) evicted");
        assert!(g.try_node(ids[0]).is_some());
    }

    #[test]
    fn unlimited_budget_evicts_nothing() {
        let (mut g, _, used) = detached_graph();
        let before = g.len();
        let mut stats = EvictionStats::default();
        let resident = g.approx_bytes();
        evict_to_budget(
            &mut g,
            resident,
            usize::MAX,
            EvictionPolicy::LruSizeTieBreak,
            &BTreeSet::new(),
            &used,
            &mut stats,
        );
        assert_eq!(g.len(), before);
        assert_eq!(stats.evicted_nodes, 0);
    }

    #[test]
    fn consumers_protect_nodes() {
        let (mut g, ids, used) = detached_graph();
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
        let mut stats = EvictionStats::default();
        let resident = g.approx_bytes();
        evict_to_budget(
            &mut g,
            resident,
            0,
            EvictionPolicy::LruSizeTieBreak,
            &BTreeSet::new(),
            &used,
            &mut stats,
        );
        for id in &ids {
            assert!(g.try_node(*id).is_some());
        }
    }
}
