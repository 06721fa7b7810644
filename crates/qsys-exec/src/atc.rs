//! The ATC: the execution coordinator.
//!
//! "The ATC module has the task of 'looking across' the set of rank-merge
//! operators' thresholds, and using this information to choose the next
//! source to fetch from. We explored a variety of scheduling schemes, and
//! found that a round-robin scheme worked best. Here we look at each
//! rank-merge operator in every round, and we read from its preferred
//! stream before moving on to the next query." (Section 4.2)
//!
//! The greedy-threshold alternative the paper explored is kept as an
//! ablation ([`SchedulingPolicy::GreedyThreshold`]).

use crate::govern::SourceGovernor;
use crate::graph::QueryPlanGraph;
use crate::node::NodeId;
use crate::stats::ExecStats;
use qsys_source::Sources;

/// How the ATC orders service across rank-merge operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchedulingPolicy {
    /// Serve every rank-merge once per round (the paper's choice; prevents
    /// starvation of sources).
    #[default]
    RoundRobin,
    /// Serve only the rank-merge with the highest overall threshold each
    /// round (the "voting" alternative; starves low-threshold queries).
    GreedyThreshold,
}

/// The coordinator. Owns no plan state — it drives a [`QueryPlanGraph`].
#[derive(Debug, Default)]
pub struct Atc {
    policy: SchedulingPolicy,
    rr_offset: usize,
}

impl Atc {
    /// New coordinator with the given policy.
    pub fn new(policy: SchedulingPolicy) -> Atc {
        Atc {
            policy,
            rr_offset: 0,
        }
    }

    /// Drive the graph until every rank-merge is done, fetching through
    /// `governor`'s retry/timeout/breaker loop. A stream whose fetch gives
    /// up is quarantined (only the user queries reading that relation
    /// degrade; the rest of the batch completes normally), and each
    /// completion records which of its relations failed.
    pub fn run_governed(
        &mut self,
        graph: &mut QueryPlanGraph,
        sources: &Sources,
        governor: &SourceGovernor,
        stats: &mut ExecStats,
    ) {
        governor.begin_batch();
        while self.round(graph, sources, governor, stats) {}
    }

    /// One scheduling round. Returns `false` when no rank-merge made
    /// progress (all done).
    pub fn round(
        &mut self,
        graph: &mut QueryPlanGraph,
        sources: &Sources,
        governor: &SourceGovernor,
        stats: &mut ExecStats,
    ) -> bool {
        let n = graph.rank_merge_ids().len();
        if n == 0 {
            return false;
        }
        match self.policy {
            SchedulingPolicy::RoundRobin => {
                // Serve the resident list rotated left by the offset.
                // Servicing never adds or removes a rank-merge, so the
                // list is stable across the loop.
                let start = self.rr_offset % n;
                self.rr_offset = (self.rr_offset + 1) % n;
                let mut progress = false;
                for i in 0..n {
                    let rm = graph.rank_merge_ids()[(start + i) % n];
                    progress |= Self::service(graph, sources, governor, stats, rm);
                }
                progress
            }
            SchedulingPolicy::GreedyThreshold => {
                // Completed operators keep a residual threshold; serving
                // them forever would starve the rest. Ties go to the
                // lowest id.
                let mut best: Option<(f64, NodeId)> = None;
                for i in 0..n {
                    let id = graph.rank_merge_ids()[i];
                    if graph.rank_merge(id).is_done() {
                        continue;
                    }
                    let thr = graph.overall_threshold(id);
                    if best.is_none_or(|(t, _)| thr.total_cmp(&t).is_gt()) {
                        best = Some((thr, id));
                    }
                }
                best.is_some_and(|(_, rm)| Self::service(graph, sources, governor, stats, rm))
            }
        }
    }

    /// Serve one rank-merge: run its maintenance cycle, read from its
    /// preferred stream, and record completion. Returns whether any work
    /// happened. A failed governed read quarantines the stream (its bound
    /// drops to zero), so the immediate re-maintenance below lets the
    /// operator finish degraded instead of waiting on a dead source.
    fn service(
        graph: &mut QueryPlanGraph,
        sources: &Sources,
        governor: &SourceGovernor,
        stats: &mut ExecStats,
        rm_id: NodeId,
    ) -> bool {
        if graph.rank_merge(rm_id).is_done() {
            return false;
        }
        let now = sources.clock().now_us();
        graph.maintain_rank_merge(rm_id, now);
        if graph.rank_merge(rm_id).is_done() {
            Self::record_completion(graph, sources, governor, stats, rm_id);
            return true;
        }
        let Some(stream) = graph.choose_read(rm_id) else {
            // Nothing readable: either done (caught next round) or every
            // stream this UQ wants is exhausted; maintenance above already
            // drained what it could.
            graph.maintain_rank_merge(rm_id, now);
            if graph.rank_merge(rm_id).is_done() {
                Self::record_completion(graph, sources, governor, stats, rm_id);
                return true;
            }
            return false;
        };
        graph.read_stream_governed(stream, sources, governor);
        let now = sources.clock().now_us();
        graph.maintain_rank_merge(rm_id, now);
        if graph.rank_merge(rm_id).is_done() {
            Self::record_completion(graph, sources, governor, stats, rm_id);
        }
        true
    }

    /// Record a completion in `stats`, and mark the operator degraded if a
    /// relation it reads failed this batch (a degraded top-k is never
    /// retained by the QS manager).
    fn record_completion(
        graph: &mut QueryPlanGraph,
        sources: &Sources,
        governor: &SourceGovernor,
        stats: &mut ExecStats,
        rm_id: NodeId,
    ) {
        let rm = graph.rank_merge_mut(rm_id);
        let missing = if governor.any_batch_failures() {
            governor.failed_among(&rm.rels())
        } else {
            Vec::new()
        };
        if !missing.is_empty() {
            rm.mark_degraded();
        }
        stats.complete(
            rm.uq(),
            sources.clock().now_us(),
            rm.results().len(),
            rm.activated(),
            missing,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessModule, AccessModuleArena, StoredModule};
    use crate::govern::RetryPolicy;
    use crate::mjoin::{MJoin, MJoinInput};
    use crate::node::StreamBacking;
    use crate::rank_merge::{CqRegistration, RankMerge, StreamingInput};
    use qsys_query::{ScoreFn, SigInterner};
    use qsys_source::Table;
    use qsys_types::{BaseTuple, CqId, JoinCond, RelId, SimClock, UqId, UserId, Value};
    use std::sync::Arc;

    /// Two relations, 20 rows each, alternating join keys.
    fn sources() -> Sources {
        let s = Sources::new(SimClock::new(), 3);
        for rel in 0..2u32 {
            let id = RelId::new(rel);
            let rows = (0..20)
                .map(|i| {
                    Arc::new(BaseTuple::new(
                        id,
                        i,
                        vec![Value::Int((i % 4) as i64)],
                        1.0 - 0.04 * i as f64,
                    ))
                })
                .collect();
            s.register(Table::new(id, rows));
        }
        s
    }

    /// The pass-through governor of a fault-free run.
    fn governor() -> SourceGovernor {
        SourceGovernor::new(RetryPolicy::default())
    }

    fn stored_input(rel: u32, modules: &mut AccessModuleArena) -> MJoinInput {
        MJoinInput {
            rels: vec![RelId::new(rel)],
            module: modules.alloc(AccessModule::Stored(StoredModule::new([]))),
            epoch_cap: None,
            store_arrivals: true,
            selection: None,
        }
    }

    /// One UQ with one CQ: R0 ⋈ R1 on col 0, top-k.
    fn build(graph: &mut QueryPlanGraph, sources: &Sources, uq: u32, k: usize) {
        let mut interner = SigInterner::new();
        let s0 = graph.add_stream(
            StreamBacking::Remote(sources.open_stream(RelId::new(0), None)),
            Some(interner.relation(RelId::new(0), None)),
        );
        let s1 = graph.add_stream(
            StreamBacking::Remote(sources.open_stream(RelId::new(1), None)),
            Some(interner.relation(RelId::new(1), None)),
        );
        let inputs = vec![
            stored_input(0, graph.modules_mut()),
            stored_input(1, graph.modules_mut()),
        ];
        let mj = MJoin::new(
            inputs,
            vec![JoinCond {
                left: RelId::new(0),
                left_col: 0,
                right: RelId::new(1),
                right_col: 0,
            }],
            graph.modules(),
        );
        let mjn = graph.add_mjoin(mj, None);
        let mut rm = RankMerge::new(UqId::new(uq), UserId::new(0), k);
        let slot = rm.register(CqRegistration {
            cq: CqId::new(uq),
            reports_as: CqId::new(uq),
            score_fn: ScoreFn::discover(UserId::new(0), 2),
            streaming: vec![
                StreamingInput {
                    node: s0,
                    rels: vec![RelId::new(0)],
                    max_bound: 1.0,
                },
                StreamingInput {
                    node: s1,
                    rels: vec![RelId::new(1)],
                    max_bound: 1.0,
                },
            ],
            probed: vec![],
        });
        let rmn = graph.add_rank_merge(rm);
        graph.connect(s0, mjn, 0);
        graph.connect(s1, mjn, 1);
        graph.connect(mjn, rmn, slot);
    }

    #[test]
    fn atc_completes_a_topk_query() {
        let sources = sources();
        let mut graph = QueryPlanGraph::new();
        build(&mut graph, &sources, 0, 5);
        let mut stats = ExecStats::new();
        stats.submit(UqId::new(0), 0);
        let mut atc = Atc::new(SchedulingPolicy::RoundRobin);
        atc.run_governed(&mut graph, &sources, &governor(), &mut stats);
        let s = stats.uq(UqId::new(0)).unwrap();
        assert_eq!(s.results, 5);
        assert!(s.completed_us.is_some());
        // Top-k execution must NOT read everything: 40 total rows exist.
        assert!(
            sources.tuples_streamed() < 40,
            "read {} tuples",
            sources.tuples_streamed()
        );
    }

    #[test]
    fn topk_scores_match_exhaustive_join() {
        let sources_a = sources();
        let mut graph = QueryPlanGraph::new();
        build(&mut graph, &sources_a, 0, 8);
        let mut stats = ExecStats::new();
        stats.submit(UqId::new(0), 0);
        Atc::new(SchedulingPolicy::RoundRobin).run_governed(
            &mut graph,
            &sources_a,
            &governor(),
            &mut stats,
        );
        let rm_id = graph.rank_merge_ids()[0];
        let got: Vec<f64> = graph
            .rank_merge(rm_id)
            .results()
            .iter()
            .map(|r| r.score.get())
            .collect();

        // Exhaustive reference.
        let sources_b = sources();
        let ta = sources_b.table(RelId::new(0));
        let tb = sources_b.table(RelId::new(1));
        let f = ScoreFn::discover(UserId::new(0), 2);
        let mut all: Vec<f64> = Vec::new();
        for a in ta.rows() {
            for b in tb.rows() {
                if a.value(0).joins_with(b.value(0)) {
                    let t = qsys_types::Tuple::from_parts(vec![a.clone(), b.clone()]);
                    all.push(f.score(&t).get());
                }
            }
        }
        all.sort_by(|x, y| y.total_cmp(x));
        all.truncate(8);
        for (g, e) in got.iter().zip(all.iter()) {
            assert!((g - e).abs() < 1e-12, "got {g}, want {e}");
        }
        assert_eq!(got.len(), 8);
    }

    #[test]
    fn round_robin_serves_multiple_uqs() {
        let sources = sources();
        let mut graph = QueryPlanGraph::new();
        build(&mut graph, &sources, 0, 3);
        build(&mut graph, &sources, 1, 3);
        let mut stats = ExecStats::new();
        stats.submit(UqId::new(0), 0);
        stats.submit(UqId::new(1), 0);
        let mut atc = Atc::new(SchedulingPolicy::RoundRobin);
        atc.run_governed(&mut graph, &sources, &governor(), &mut stats);
        assert!(stats.all_complete());
        assert_eq!(stats.uq(UqId::new(0)).unwrap().results, 3);
        assert_eq!(stats.uq(UqId::new(1)).unwrap().results, 3);
    }

    #[test]
    fn greedy_policy_also_terminates() {
        let sources = sources();
        let mut graph = QueryPlanGraph::new();
        build(&mut graph, &sources, 0, 3);
        build(&mut graph, &sources, 1, 3);
        let mut stats = ExecStats::new();
        stats.submit(UqId::new(0), 0);
        stats.submit(UqId::new(1), 0);
        let mut atc = Atc::new(SchedulingPolicy::GreedyThreshold);
        atc.run_governed(&mut graph, &sources, &governor(), &mut stats);
        assert!(stats.all_complete());
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let sources = sources();
        let mut graph = QueryPlanGraph::new();
        let mut stats = ExecStats::new();
        let mut atc = Atc::new(SchedulingPolicy::RoundRobin);
        atc.run_governed(&mut graph, &sources, &governor(), &mut stats);
        assert!(graph.is_empty());
    }
}
