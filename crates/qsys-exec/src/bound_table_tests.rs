//! Property test for the plan graph's resident executor caches.
//!
//! The ATC reads stream bounds from a dense table the graph writes in
//! place (stream creation, every read, quarantine, removal) and serves
//! rank-merges from a resident id list, instead of rescanning the arena
//! per tuple. Both are pure caches of arena state; this drives small random
//! shared graphs round by round and checks, after every round, that each
//! equals what a fresh scan of the arena would produce.

use crate::rank_merge::{CqRegistration, StreamingInput};
use crate::{
    Atc, ExecStats, MJoin, MJoinInput, NodeId, NodeKind, QueryPlanGraph, RankMerge, RetryPolicy,
    SchedulingPolicy, SourceGovernor, StreamBacking,
};
use proptest::prelude::*;
use qsys_query::ScoreFn;
use qsys_source::{FaultInjector, FaultSpec, Sources, Table};
use qsys_types::{BaseTuple, CqId, JoinCond, RelId, SimClock, Tuple, UqId, UserId, Value};
use std::sync::Arc;

const RELS: u32 = 4;
/// The relation whose source goes into a hard outage mid-run.
const FAULTED: u32 = 2;
/// The relation served from an in-memory replay instead of a source.
const REPLAYED: u32 = 3;

/// Both caches, and the live-node counter, against a fresh arena scan.
fn assert_caches_match_arena(graph: &QueryPlanGraph) {
    let table = graph.bound_table();
    for (slot, cached) in table.iter().enumerate() {
        let want = match graph.try_node(NodeId(slot as u32)).map(|n| &n.kind) {
            Some(NodeKind::Stream(leaf)) => leaf.effective_bound(),
            _ => 0.0,
        };
        assert_eq!(cached.to_bits(), want.to_bits(), "bound table slot {slot}");
    }
    assert!(graph.node_ids().all(|id| id.index() < table.len()));
    let scan: Vec<NodeId> = graph
        .node_ids()
        .filter(|id| matches!(graph.node(*id).kind, NodeKind::RankMerge(_)))
        .collect();
    assert_eq!(graph.rank_merge_ids(), scan);
    assert_eq!(graph.len(), graph.node_ids().count());
}

fn sources(rows: u64, outage_at_us: u64) -> Sources {
    let mut s = Sources::new(SimClock::new(), 23);
    for rel in 0..RELS {
        let id = RelId::new(rel);
        let t = (0..rows)
            .map(|i| {
                Arc::new(BaseTuple::new(
                    id,
                    i,
                    vec![Value::Int((i % 3) as i64)],
                    1.0 - i as f64 / (rows + 1) as f64,
                ))
            })
            .collect();
        s.register(Table::new(id, t));
    }
    let spec = FaultSpec::new(0).outage(FAULTED, outage_at_us, None);
    s.set_injector(FaultInjector::new(spec, 0));
    s
}

/// One stream leaf per relation, which every consumer of the relation
/// shares.
fn shared_leaves(graph: &mut QueryPlanGraph, sources: &Sources) -> Vec<NodeId> {
    (0..RELS)
        .map(|rel| {
            let id = RelId::new(rel);
            let backing = if rel == REPLAYED {
                let tuples = sources
                    .table(id)
                    .rows()
                    .iter()
                    .map(|r| Tuple::single(r.clone()))
                    .collect();
                StreamBacking::Replay { tuples, pos: 0 }
            } else {
                StreamBacking::Remote(sources.open_stream(id, None))
            };
            graph.add_stream(backing, None)
        })
        .collect()
}

/// Graft one user query: a rank-merge over one two-way join per `(a, b)`
/// pair, each join fed by the shared leaves and storing into their modules.
fn add_uq(
    graph: &mut QueryPlanGraph,
    leaves: &[NodeId],
    uq: u32,
    k: usize,
    cqs: &[(u32, u32)],
) -> NodeId {
    let mut rm = RankMerge::new(UqId::new(uq), UserId::new(0), k);
    let mut joins = Vec::new();
    for (n, &(a, b)) in cqs.iter().enumerate() {
        let inputs = [a, b]
            .iter()
            .map(|&rel| MJoinInput {
                rels: vec![RelId::new(rel)],
                module: {
                    let module = graph.stream_leaf(leaves[rel as usize]).module;
                    graph.modules_mut().retain(module)
                },
                epoch_cap: None,
                store_arrivals: true,
                selection: None,
            })
            .collect();
        let pred = JoinCond {
            left: RelId::new(a),
            left_col: 0,
            right: RelId::new(b),
            right_col: 0,
        };
        let mj = MJoin::new(inputs, vec![pred], graph.modules());
        let mjn = graph.add_mjoin(mj, None);
        let cq = CqId::new(uq * 16 + n as u32);
        let streaming = [a, b]
            .iter()
            .map(|&rel| {
                let leaf = leaves[rel as usize];
                StreamingInput {
                    node: leaf,
                    rels: vec![RelId::new(rel)],
                    max_bound: graph.stream_leaf(leaf).initial_bound,
                }
            })
            .collect();
        let slot = rm.register(CqRegistration {
            cq,
            reports_as: cq,
            score_fn: ScoreFn::discover(UserId::new(0), 2),
            streaming,
            probed: vec![],
        });
        joins.push((mjn, a, b, slot));
    }
    let rmn = graph.add_rank_merge(rm);
    for (mjn, a, b, slot) in joins {
        graph.connect(leaves[a as usize], mjn, 0);
        graph.connect(leaves[b as usize], mjn, 1);
        graph.connect(mjn, rmn, slot);
    }
    rmn
}

/// Unlink a finished user query the way the QS manager does: the
/// rank-merge goes, then every join left without a consumer.
fn remove_uq(graph: &mut QueryPlanGraph, rmn: NodeId) {
    let joins = graph.node(rmn).parents.clone();
    for mj in &joins {
        graph.disconnect(*mj, rmn);
    }
    graph.remove_node(rmn);
    for mj in joins {
        for leaf in graph.node(mj).parents.clone() {
            graph.disconnect(leaf, mj);
        }
        graph.remove_node(mj);
    }
}

/// Drive one batch to completion, checking the caches after every round.
fn run_batch(
    atc: &mut Atc,
    graph: &mut QueryPlanGraph,
    sources: &Sources,
    governor: &SourceGovernor,
    stats: &mut ExecStats,
) {
    governor.begin_batch();
    let mut rounds = 0;
    while atc.round(graph, sources, governor, stats) {
        assert_caches_match_arena(graph);
        rounds += 1;
        assert!(rounds < 10_000, "batch does not terminate");
    }
    assert_caches_match_arena(graph);
    assert!(graph
        .rank_merge_ids()
        .iter()
        .all(|id| graph.rank_merge(*id).is_done()));
}

/// A CQ joins two distinct relations.
fn cq_pairs(picks: &[(u32, u32)]) -> Vec<(u32, u32)> {
    picks
        .iter()
        .map(|&(a, step)| (a, (a + step) % RELS))
        .collect()
}

/// Two batches over one shared graph under `policy`, with a finished query
/// unlinked and a new one grafted in between.
fn drive(
    policy: SchedulingPolicy,
    (rows, outage_at_us, k): (u64, u64, usize),
    first: &[Vec<(u32, u32)>],
    second: &[(u32, u32)],
    victim: usize,
) {
    let sources = sources(rows, outage_at_us);
    let governor = SourceGovernor::new(RetryPolicy::default());
    let mut graph = QueryPlanGraph::new();
    let mut stats = ExecStats::new();
    let mut atc = Atc::new(policy);
    let leaves = shared_leaves(&mut graph, &sources);
    let rms: Vec<NodeId> = first
        .iter()
        .enumerate()
        .map(|(uq, picks)| add_uq(&mut graph, &leaves, uq as u32, k, &cq_pairs(picks)))
        .collect();
    assert_caches_match_arena(&graph);
    run_batch(&mut atc, &mut graph, &sources, &governor, &mut stats);

    // Between batches: one finished query is unlinked, a new one is
    // grafted onto the same (partly consumed, possibly quarantined)
    // leaves, and the epoch moves on.
    remove_uq(&mut graph, rms[victim % rms.len()]);
    assert_caches_match_arena(&graph);
    graph.bump_epoch();
    add_uq(&mut graph, &leaves, 9, k, &cq_pairs(second));
    assert_caches_match_arena(&graph);
    run_batch(&mut atc, &mut graph, &sources, &governor, &mut stats);

    // A quarantine can only have come from the governed read's error arm.
    let faulted = leaves[FAULTED as usize];
    if graph.stream_leaf(faulted).quarantined {
        assert_eq!(graph.bound_table()[faulted.index()], 0.0);
        assert!(governor.snapshot().quarantined_streams >= 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn caches_track_the_arena_round_by_round(
        rows in 4u64..24,
        outage_at_us in 0u64..60_000,
        k in 1usize..7,
        first in prop::collection::vec(prop::collection::vec((0u32..RELS, 1u32..RELS), 1..=3), 2..=4),
        second in prop::collection::vec((0u32..RELS, 1u32..RELS), 1..=3),
        victim in 0usize..4,
    ) {
        for policy in [SchedulingPolicy::RoundRobin, SchedulingPolicy::GreedyThreshold] {
            drive(policy, (rows, outage_at_us, k), &first, &second, victim);
        }
    }
}
