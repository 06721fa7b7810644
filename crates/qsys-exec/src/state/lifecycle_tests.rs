//! Lifecycle tests: graft → execute → re-graft with reuse → recover.
//!
//! These exercise the full Section 6 machinery against brute-force ground
//! truth: grafting onto a warm graph must return exactly the same top-k as
//! a cold execution, while reading strictly less from the network.

use super::manager::QsManager;
use super::recover::node_history;
use crate::{
    Atc, ExecStats, ExecWork, ModuleId, NodeId, NodeKind, QueryPlanGraph, RetryPolicy,
    SchedulingPolicy, SourceGovernor,
};
use qsys_catalog::{Catalog, CatalogBuilder, ColumnStats, EdgeKind, RelationStats};
use qsys_opt::plan::{CqPlan, PlanSpec, SpecNode, SpecNodeKind};
use qsys_opt::{Optimizer, OptimizerConfig};
use qsys_query::{ConjunctiveQuery, CqAtom, CqJoin, ScoreFn, SigId};
use qsys_source::{FaultInjector, FaultSpec, Sources, Table};
use qsys_types::{
    BaseTuple, CqId, Epoch, JoinCond, RelId, Selection, SimClock, Tuple, UqId, UserId, Value,
};
use std::sync::Arc;

const N_ROWS: u64 = 40;
const N_KEYS: i64 = 8;

/// Chain A(0) - B(1) - C(2), all scored, key-joined on column 0/1.
fn catalog() -> Catalog {
    let mut b = CatalogBuilder::default();
    let mut ids = Vec::new();
    for i in 0..3 {
        let mut stats = RelationStats::with_cardinality(N_ROWS);
        stats.columns = vec![
            ColumnStats {
                distinct: N_KEYS as u64,
            },
            ColumnStats {
                distinct: N_KEYS as u64,
            },
        ];
        ids.push(b.relation(
            format!("T{i}"),
            qsys_types::SourceId::new(0),
            vec!["k".into(), "j".into(), "score".into()],
            Some(2),
            1.0,
            stats,
        ));
    }
    for w in ids.windows(2) {
        b.edge(w[0], 1, w[1], 0, EdgeKind::ForeignKey, 1.0, 2.0);
    }
    b.build()
}

fn sources() -> Sources {
    let s = Sources::new(SimClock::new(), 77);
    for rel in 0..3u32 {
        let id = RelId::new(rel);
        let rows = (0..N_ROWS)
            .map(|i| {
                // Deterministic but varied keys and scores.
                let k = ((i * 7 + rel as u64 * 3) % N_KEYS as u64) as i64;
                let j = ((i * 5 + rel as u64) % N_KEYS as u64) as i64;
                let score = 1.0 - (i as f64) / (N_ROWS as f64 + 5.0);
                Arc::new(BaseTuple::new(
                    id,
                    i,
                    vec![Value::Int(k), Value::Int(j), Value::float(score)],
                    score,
                ))
            })
            .collect();
        s.register(Table::new(id, rows));
    }
    s
}

fn path_cq(id: u32, uq: u32, catalog: &Catalog, len: u32) -> ConjunctiveQuery {
    let rels: Vec<RelId> = (0..len).map(RelId::new).collect();
    let atoms = rels
        .iter()
        .map(|&rel| CqAtom {
            rel,
            selection: None,
        })
        .collect();
    let joins = rels
        .windows(2)
        .map(|w| {
            let e = catalog.edge_between(w[0], w[1]).unwrap();
            CqJoin {
                edge: e.id,
                on: JoinCond {
                    left: e.from,
                    left_col: e.from_col,
                    right: e.to,
                    right_col: e.to_col,
                },
            }
        })
        .collect();
    ConjunctiveQuery::new(CqId::new(id), UqId::new(uq), UserId::new(0), atoms, joins)
}

/// Exhaustive reference: all join results of a chain CQ, scored, top-k.
fn brute_force(sources: &Sources, cq: &ConjunctiveQuery, f: &ScoreFn, k: usize) -> Vec<f64> {
    let tables: Vec<_> = cq.rels().iter().map(|r| sources.table(*r)).collect();
    let mut partials: Vec<Tuple> = tables[0]
        .rows()
        .iter()
        .map(|r| Tuple::single(Arc::clone(r)))
        .collect();
    for (i, t) in tables.iter().enumerate().skip(1) {
        let mut next = Vec::new();
        for p in &partials {
            let left = p
                .value_of(RelId::new(i as u32 - 1), 1)
                .expect("left col")
                .clone();
            for row in t.rows() {
                if left.joins_with(row.value(0)) {
                    next.push(p.join(&Tuple::single(Arc::clone(row))));
                }
            }
        }
        partials = next;
    }
    let mut scores: Vec<f64> = partials.iter().map(|t| f.score(t).get()).collect();
    scores.sort_by(|a, b| b.total_cmp(a));
    scores.truncate(k);
    scores
}

fn optimize_and_graft(
    manager: &mut QsManager,
    catalog: &Catalog,
    batch: &[(&ConjunctiveQuery, &ScoreFn)],
    sources: &Sources,
    k: usize,
) -> super::manager::GraftOutcome {
    let config = OptimizerConfig {
        k,
        ..OptimizerConfig::default()
    };
    let optimizer = Optimizer::new(catalog, config);
    let interner = manager.shared_interner();
    let oracle = manager.reuse_oracle();
    let (spec, _) = optimizer.optimize(batch, &oracle, Some(sources.clock()), &interner);
    manager.graft(&spec, sources, k)
}

fn run(manager: &mut QsManager, sources: &Sources, uqs: &[UqId]) -> ExecStats {
    let mut stats = ExecStats::new();
    for uq in uqs {
        stats.submit(*uq, sources.clock().now_us());
    }
    let mut atc = Atc::new(SchedulingPolicy::RoundRobin);
    let governor = SourceGovernor::new(RetryPolicy::default());
    atc.run_governed(manager.graph_mut(), sources, &governor, &mut stats);
    stats
}

fn results_of(manager: &QsManager, uq: UqId) -> Vec<f64> {
    let rm = manager.rank_merge_of(uq).expect("rank merge exists");
    manager
        .graph()
        .rank_merge(rm)
        .results()
        .iter()
        .map(|r| r.score.get())
        .collect()
}

#[test]
fn fresh_graft_matches_brute_force() {
    let cat = catalog();
    let src = sources();
    let mut manager = QsManager::new(usize::MAX);
    let cq = path_cq(0, 0, &cat, 2);
    let f = ScoreFn::discover(UserId::new(0), 2);
    let k = 10;
    let outcome = optimize_and_graft(&mut manager, &cat, &[(&cq, &f)], &src, k);
    assert_eq!(outcome.new_uqs, vec![UqId::new(0)]);
    assert_eq!(outcome.recovery_queries, 0, "cold graph needs no recovery");
    run(&mut manager, &src, &[UqId::new(0)]);
    let got = results_of(&manager, UqId::new(0));
    let want = brute_force(&src, &cq, &f, k);
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want.iter()) {
        assert!((g - w).abs() < 1e-12, "got {g}, want {w}");
    }
}

#[test]
fn warm_regraft_recovers_missed_results() {
    let cat = catalog();
    let src = sources();
    let mut manager = QsManager::new(usize::MAX);
    let k = 10;

    // UQ0: A ⋈ B. Run to completion — streams are now partially read.
    let cq0 = path_cq(0, 0, &cat, 2);
    let f = ScoreFn::discover(UserId::new(0), 2);
    optimize_and_graft(&mut manager, &cat, &[(&cq0, &f)], &src, k);
    run(&mut manager, &src, &[UqId::new(0)]);
    let streamed_after_uq0 = src.tuples_streamed();
    assert!(streamed_after_uq0 > 0);

    // UQ1: A ⋈ B ⋈ C — overlaps UQ0. Graft onto the warm graph.
    let cq1 = path_cq(1, 1, &cat, 3);
    let f3 = ScoreFn::discover(UserId::new(0), 3);
    let outcome = optimize_and_graft(&mut manager, &cat, &[(&cq1, &f3)], &src, k);
    assert!(
        outcome.reused_nodes > 0,
        "warm graph must be reused: {outcome:?}"
    );
    run(&mut manager, &src, &[UqId::new(1)]);
    let got = results_of(&manager, UqId::new(1));
    let want = brute_force(&src, &cq1, &f3, k);
    assert_eq!(got.len(), want.len(), "got {got:?}\nwant {want:?}");
    for (g, w) in got.iter().zip(want.iter()) {
        assert!((g - w).abs() < 1e-12, "got {g}, want {w}");
    }

    // Reuse must beat a cold engine on network reads for the second query.
    let cold_src = sources();
    let mut cold = QsManager::new(usize::MAX);
    optimize_and_graft(&mut cold, &cat, &[(&cq1, &f3)], &cold_src, k);
    run(&mut cold, &cold_src, &[UqId::new(1)]);
    let warm_reads = src.tuples_streamed() - streamed_after_uq0;
    assert!(
        warm_reads < cold_src.tuples_streamed(),
        "warm {warm_reads} vs cold {}",
        cold_src.tuples_streamed()
    );
}

#[test]
fn identical_requery_is_nearly_free() {
    let cat = catalog();
    let src = sources();
    let mut manager = QsManager::new(usize::MAX);
    let k = 10;
    let f = ScoreFn::discover(UserId::new(0), 2);

    let cq0 = path_cq(0, 0, &cat, 2);
    optimize_and_graft(&mut manager, &cat, &[(&cq0, &f)], &src, k);
    run(&mut manager, &src, &[UqId::new(0)]);
    let want = results_of(&manager, UqId::new(0));
    let reads_before = src.tuples_streamed();

    // The same query again, as a new UQ from another user session.
    let cq1 = path_cq(1, 1, &cat, 2);
    let outcome = optimize_and_graft(&mut manager, &cat, &[(&cq1, &f)], &src, k);
    assert!(outcome.recovery_queries >= 1, "{outcome:?}");
    run(&mut manager, &src, &[UqId::new(1)]);
    let got = results_of(&manager, UqId::new(1));
    assert_eq!(got, want, "identical query, identical answers");
    // Almost everything comes from the recovered state.
    let extra_reads = src.tuples_streamed() - reads_before;
    assert!(
        extra_reads * 2 <= reads_before.max(1),
        "extra {extra_reads} vs original {reads_before}"
    );
}

#[test]
fn unlink_detaches_but_retains_state() {
    let cat = catalog();
    let src = sources();
    let mut manager = QsManager::new(usize::MAX);
    let cq = path_cq(0, 0, &cat, 2);
    let f = ScoreFn::discover(UserId::new(0), 2);
    optimize_and_graft(&mut manager, &cat, &[(&cq, &f)], &src, 5);
    run(&mut manager, &src, &[UqId::new(0)]);
    let nodes_before = manager.graph().len();
    manager.unlink_completed();
    assert!(manager.rank_merge_of(UqId::new(0)).is_none());
    // Rank-merge gone; operator state retained for reuse.
    assert_eq!(manager.graph().len(), nodes_before - 1);
    assert!(manager.graph().rank_merge_ids().is_empty());
}

#[test]
fn eviction_respects_pins_and_budget() {
    let cat = catalog();
    let src = sources();
    // A tiny budget forces eviction of detached state after unlinking.
    let mut manager = QsManager::new(1);
    let cq = path_cq(0, 0, &cat, 2);
    let f = ScoreFn::discover(UserId::new(0), 2);
    optimize_and_graft(&mut manager, &cat, &[(&cq, &f)], &src, 5);
    run(&mut manager, &src, &[UqId::new(0)]);
    manager.unlink_completed();
    manager.evict_to_budget();
    assert!(
        manager.eviction_stats().evicted_nodes > 0,
        "detached state must be reclaimed under a 1-byte budget"
    );
    // A pinned-everything manager cannot evict anything new after re-graft.
    let src2 = sources();
    let mut pinned_mgr = QsManager::new(1);
    let cq2 = path_cq(1, 1, &cat, 2);
    optimize_and_graft(&mut pinned_mgr, &cat, &[(&cq2, &f)], &src2, 5);
    run(&mut pinned_mgr, &src2, &[UqId::new(1)]);
    // Pin every signature present.
    let sigs: Vec<_> = pinned_mgr
        .graph()
        .node_ids()
        .filter_map(|id| pinned_mgr.graph().node(id).sig)
        .collect();
    for sig in sigs {
        pinned_mgr.pin(sig);
    }
    pinned_mgr.unlink_completed();
    let before = pinned_mgr.eviction_stats().evicted_nodes;
    pinned_mgr.evict_to_budget();
    // Only unpinned recovery/replay scaffolding (sig = None) may go.
    let evicted_signed = pinned_mgr
        .graph()
        .node_ids()
        .filter_map(|id| pinned_mgr.graph().node(id).sig)
        .count();
    assert!(evicted_signed > 0, "pinned nodes survive");
    let _ = before;
}

/// `module` holds `want`, tuple for tuple and epoch for epoch.
fn module_holds(graph: &QueryPlanGraph, module: ModuleId, want: &[(Tuple, Epoch)]) {
    let module = graph.modules().module(module).expect("live").borrow();
    let stored = module
        .as_stored()
        .expect("streaming inputs store their arrivals");
    assert_eq!(stored.entries(), want);
}

/// A shared stream over `sig`, in a hand-written plan spec.
fn stream_node(sig: SigId) -> SpecNode {
    SpecNode {
        sig,
        kind: SpecNodeKind::Stream,
        share: true,
    }
}

/// A two-input m-join over spec nodes `inputs`, joining relation `left`'s
/// column 1 to relation `left + 1`'s column 0.
fn join_node(sig: SigId, inputs: [usize; 2], left: u32, share: bool) -> SpecNode {
    SpecNode {
        sig,
        kind: SpecNodeKind::Join {
            inputs: inputs.to_vec(),
            probes: Vec::new(),
            preds: vec![JoinCond {
                left: RelId::new(left),
                left_col: 1,
                right: RelId::new(left + 1),
                right_col: 0,
            }],
        },
        share,
    }
}

/// `cq`'s plan, rooted at spec node `root`.
fn cq_plan(cq: &ConjunctiveQuery, sig: SigId, root: usize) -> CqPlan {
    CqPlan {
        cq: cq.id,
        uq: cq.uq,
        user: cq.user,
        score_fn: ScoreFn::discover(cq.user, cq.atoms.len()),
        sig,
        root,
        probed: Vec::new(),
    }
}

/// `cq`'s answers equal the exhaustive reference's.
fn answers_brute_force(manager: &QsManager, src: &Sources, cq: &ConjunctiveQuery, k: usize) {
    let f = ScoreFn::discover(cq.user, cq.atoms.len());
    assert_eq!(results_of(manager, cq.uq), brute_force(src, cq, &f, k));
}

/// One graft giving one reused m-join two new consumers derives its output
/// history once, into one module both attach to — holding, tuple for tuple
/// and epoch for epoch, what `node_history` produces — and counts one
/// reconstruction's probes and joins. A later graft with a third consumer
/// finds the module the first two filled in emission order, so it gets a
/// fresh one in reconstruction order; its input from a stream leaf that
/// was read meanwhile attaches to the leaf's module, as every stream
/// consumer does.
#[test]
fn graft_derives_a_shared_producers_history_once() {
    let cat = catalog();
    let src = sources();
    let mut manager = QsManager::new(usize::MAX);
    let k = 10;
    let (ab, abc1, abc2) = (
        path_cq(0, 0, &cat, 2),
        path_cq(1, 1, &cat, 3),
        path_cq(2, 2, &cat, 3),
    );
    let interner = manager.shared_interner();
    let [a_sig, b_sig, c_sig] =
        [0, 1, 2].map(|rel| interner.borrow_mut().relation(RelId::new(rel), None));
    let ab_sig = interner.borrow_mut().of_cq(&ab);
    let abc_sig = interner.borrow_mut().of_cq(&abc1);

    // UQ0: A ⋈ B as a middleware m-join, run to completion.
    let first = PlanSpec {
        nodes: vec![
            stream_node(a_sig),
            stream_node(b_sig),
            join_node(ab_sig, [0, 1], 0, true),
        ],
        cq_plans: vec![cq_plan(&ab, ab_sig, 2)],
    };
    manager.graft(&first, &src, k);
    run(&mut manager, &src, &[UqId::new(0)]);
    let ab_node = manager.graph().find_sig(ab_sig).expect("A ⋈ B is resident");

    // UQ1 and UQ2: (A ⋈ B) ⋈ C twice over the reused m-join — one shared
    // node, one private — so two new inputs take its history in one graft.
    let second = PlanSpec {
        nodes: vec![
            stream_node(a_sig),
            stream_node(b_sig),
            join_node(ab_sig, [0, 1], 0, true),
            stream_node(c_sig),
            join_node(abc_sig, [2, 3], 1, true),
            join_node(abc_sig, [2, 3], 1, false),
        ],
        cq_plans: vec![cq_plan(&abc1, abc_sig, 4), cq_plan(&abc2, abc_sig, 5)],
    };
    let before = *manager.graph().work();
    let outcome = manager.graft(&second, &src, k);
    let after = *manager.graph().work();
    assert_eq!((outcome.reused_nodes, outcome.created_nodes), (1, 3));

    let mut once = ExecWork::default();
    let want = node_history(manager.graph(), ab_node, outcome.epoch, &mut once);
    let mut twice = once;
    let again = node_history(manager.graph(), ab_node, outcome.epoch, &mut twice);
    assert!(!want.is_empty() && want == again);
    assert!(once.recovery_probes > 0 && once.recovery_joins > 0);
    assert_eq!(twice.recovery_probes, 2 * once.recovery_probes);
    // Both A ⋈ B inputs share one new module, the second attaching to the
    // first's; both C inputs attach to the C leaf's (empty) module.
    assert_eq!(
        ExecWork {
            recovery_probes: before.recovery_probes + once.recovery_probes,
            recovery_joins: before.recovery_joins + once.recovery_joins,
            inputs_prefilled: before.inputs_prefilled + 1,
            inputs_attached: before.inputs_attached + 3,
            ..before
        },
        after,
        "one reconstruction, and no other counter moves at graft"
    );

    // The (module of A ⋈ B, module of C) of every m-join consuming A ⋈ B.
    let consumers = |manager: &QsManager| -> Vec<(NodeId, [crate::ModuleId; 2])> {
        let graph = manager.graph();
        graph
            .node_ids()
            .filter(|id| graph.node(*id).parents.contains(&ab_node))
            .filter_map(|id| match &graph.node(id).kind {
                NodeKind::MJoin(mj) => Some((id, [0, 1].map(|i| mj.inputs()[i].module))),
                _ => None,
            })
            .collect()
    };
    let pair = consumers(&manager);
    assert_eq!(pair.len(), 2, "both new m-joins consume A ⋈ B");
    let [shared_ab, shared_c] = pair[0].1;
    assert_eq!(pair[1].1, [shared_ab, shared_c], "one module per producer");
    module_holds(manager.graph(), shared_ab, &want);

    // The grafted plans still answer correctly.
    run(&mut manager, &src, &[UqId::new(1), UqId::new(2)]);
    for cq in [&abc1, &abc2] {
        answers_brute_force(&manager, &src, cq, k);
    }

    // UQ3: (A ⋈ B) ⋈ C once more, unshared, at a later epoch.
    let abc3 = path_cq(3, 3, &cat, 3);
    let third = PlanSpec {
        nodes: vec![
            stream_node(a_sig),
            stream_node(b_sig),
            join_node(ab_sig, [0, 1], 0, true),
            stream_node(c_sig),
            join_node(abc_sig, [2, 3], 1, false),
        ],
        cq_plans: vec![cq_plan(&abc3, abc_sig, 4)],
    };
    let before = *manager.graph().work();
    let outcome = manager.graft(&third, &src, k);
    let after = *manager.graph().work();
    assert_eq!(
        (after.inputs_prefilled, after.inputs_attached),
        (before.inputs_prefilled + 1, before.inputs_attached + 1)
    );
    let c_node = manager.graph().find_sig(c_sig).expect("C is resident");
    let triple = consumers(&manager);
    let &(_, [fresh_ab, attached_c]) = triple
        .iter()
        .find(|(id, _)| !pair.iter().any(|(old, _)| old == id))
        .expect("the new m-join consumes A ⋈ B");
    assert_ne!(fresh_ab, shared_ab, "emission order is not history order");
    let mut work = ExecWork::default();
    let history = node_history(manager.graph(), ab_node, outcome.epoch, &mut work);
    module_holds(manager.graph(), fresh_ab, &history);
    assert_eq!(
        [attached_c, shared_c],
        [manager.graph().stream_leaf(c_node).module; 2],
        "a stream's consumers share its module"
    );
    let delivered = node_history(manager.graph(), c_node, outcome.epoch, &mut work);
    assert!(!delivered.is_empty(), "C was read before this graft");
    module_holds(manager.graph(), attached_c, &delivered);

    run(&mut manager, &src, &[UqId::new(3)]);
    answers_brute_force(&manager, &src, &abc3, k);
}

/// A stream first read only by a stream-rooted CQ — no m-join consumer
/// stores what it delivers — later gets an m-join consumer. The new input
/// attaches to the leaf's module, which holds every tuple the leaf
/// delivered with the epoch it was read in: nothing is prefilled or
/// reconstructed, and the joined query still answers exactly.
#[test]
fn a_stream_read_before_its_first_join_is_attached() {
    let cat = catalog();
    let src = sources();
    let mut manager = QsManager::new(usize::MAX);
    let k = 10;
    let (a, ab) = (path_cq(0, 0, &cat, 1), path_cq(1, 1, &cat, 2));
    let interner = manager.shared_interner();
    let [a_sig, b_sig] = [0, 1].map(|rel| interner.borrow_mut().relation(RelId::new(rel), None));
    let ab_sig = interner.borrow_mut().of_cq(&ab);

    // UQ0: A alone, its stream the CQ's root, run to completion.
    let first = PlanSpec {
        nodes: vec![stream_node(a_sig)],
        cq_plans: vec![cq_plan(&a, a_sig, 0)],
    };
    manager.graft(&first, &src, k);
    run(&mut manager, &src, &[UqId::new(0)]);
    answers_brute_force(&manager, &src, &a, k);
    let a_node = manager.graph().find_sig(a_sig).expect("A is resident");
    let a_module = manager.graph().stream_leaf(a_node).module;

    // UQ1: A ⋈ B over the same A stream.
    let second = PlanSpec {
        nodes: vec![
            stream_node(a_sig),
            stream_node(b_sig),
            join_node(ab_sig, [0, 1], 0, true),
        ],
        cq_plans: vec![cq_plan(&ab, ab_sig, 2)],
    };
    let before = *manager.graph().work();
    let outcome = manager.graft(&second, &src, k);
    let after = *manager.graph().work();
    assert_eq!(
        ExecWork {
            inputs_attached: before.inputs_attached + 2,
            ..before
        },
        after,
        "both stream inputs attach; nothing is prefilled or reconstructed"
    );
    let ab_node = manager.graph().find_sig(ab_sig).expect("A ⋈ B is resident");
    let NodeKind::MJoin(mj) = &manager.graph().node(ab_node).kind else {
        panic!("A ⋈ B is an m-join");
    };
    assert_eq!(mj.inputs()[0].module, a_module);
    let mut work = ExecWork::default();
    let delivered = node_history(manager.graph(), a_node, outcome.epoch, &mut work);
    assert!(!delivered.is_empty(), "A was read before this graft");
    module_holds(manager.graph(), a_module, &delivered);

    run(&mut manager, &src, &[UqId::new(1)]);
    answers_brute_force(&manager, &src, &ab, k);
}

/// What one batch did on a manager, posed as a lane poses it: submission
/// stamped before the optimizer charges the clock, graft, run, harvest,
/// then unlink and evict.
struct Posed {
    outcome: super::manager::GraftOutcome,
    /// States the optimizer explored (15 µs of virtual time each).
    explored: usize,
    /// Tuples the sources streamed during the batch.
    reads: u64,
    /// Per user query, in batch order: (response µs, CQs executed,
    /// missing relations, result score bits).
    uqs: Vec<(u64, usize, usize, Vec<u64>)>,
}

fn pose_with(
    manager: &mut QsManager,
    config: OptimizerConfig,
    batch: &[(&ConjunctiveQuery, &ScoreFn)],
    src: &Sources,
    isolate: bool,
) -> Posed {
    let k = config.k;
    let reads = src.tuples_streamed();
    let submitted = src.clock().now_us();
    let cat = catalog();
    let optimizer = Optimizer::new(&cat, config);
    let (spec, opt) = {
        let interner = manager.shared_interner();
        let oracle = manager.reuse_oracle();
        optimizer.optimize(batch, &oracle, Some(src.clock()), &interner)
    };
    let outcome = manager.graft(&spec, src, k);
    if isolate {
        manager.isolate();
    }
    let mut stats = ExecStats::new();
    for (cq, _) in batch {
        stats.submit(cq.uq, submitted);
    }
    let governor = SourceGovernor::new(RetryPolicy::default());
    Atc::new(SchedulingPolicy::RoundRobin).run_governed(
        manager.graph_mut(),
        src,
        &governor,
        &mut stats,
    );
    let uqs = batch
        .iter()
        .map(|(cq, _)| {
            let s = stats.uq(cq.uq).expect("submitted");
            let scores = results_of(manager, cq.uq)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let response = s.response_us().expect("completed");
            (response, s.cqs_executed.len(), s.missing_rels.len(), scores)
        })
        .collect();
    manager.unlink_completed();
    manager.evict_to_budget();
    Posed {
        outcome,
        explored: opt.explored,
        reads: src.tuples_streamed() - reads,
        uqs,
    }
}

/// [`pose_with`] under ATC-FULL's optimizer with `k` results.
fn pose(
    manager: &mut QsManager,
    batch: &[(&ConjunctiveQuery, &ScoreFn)],
    src: &Sources,
    k: usize,
) -> Posed {
    let config = OptimizerConfig {
        k,
        ..OptimizerConfig::default()
    };
    pose_with(manager, config, batch, src, false)
}

/// An identical re-pose publishes the retained top-k: same answers, no
/// stream read, no CQ grafted, executed or recovered, and a response of
/// exactly the optimizer's charge.
#[test]
fn a_reposed_query_publishes_its_retained_answer() {
    let cat = catalog();
    let src = sources();
    let mut manager = QsManager::new(usize::MAX);
    let k = 10;
    let f = ScoreFn::discover(UserId::new(0), 3);
    let (cq0, cq1) = (path_cq(0, 0, &cat, 3), path_cq(1, 1, &cat, 3));
    let first = pose(&mut manager, &[(&cq0, &f)], &src, k);
    assert!(first.outcome.sealed_uqs.is_empty() && first.reads > 0);
    assert_eq!(first.uqs[0].3.len(), k);
    assert_eq!(manager.retained_len(), 1);
    let nodes = manager.graph().len();

    let again = pose(&mut manager, &[(&cq1, &f)], &src, k);
    assert_eq!(again.outcome.sealed_uqs, vec![UqId::new(1)]);
    assert_eq!(again.outcome.new_uqs, vec![UqId::new(1)]);
    assert_eq!(
        (again.outcome.reused_nodes, again.outcome.created_nodes),
        (0, 0)
    );
    assert!(again.outcome.recovered_uqs.is_empty());
    assert_eq!(again.reads, 0);
    let (response, executed, missing, scores) = &again.uqs[0];
    assert_eq!((*executed, *missing), (0, 0));
    assert_eq!(*response, again.explored as u64 * 15);
    assert_eq!(*scores, first.uqs[0].3, "identical answers");
    assert_eq!(manager.graph().len(), nodes, "nothing was grafted");
    assert_eq!(manager.retained_len(), 1);
}

/// A top-k shorter than k is retained and re-published as it is — and so
/// is an empty one.
#[test]
fn short_and_empty_answers_are_retained() {
    let cat = catalog();
    let src = sources();
    let mut manager = QsManager::new(usize::MAX);
    let k = 2 * N_ROWS as usize;
    let f = ScoreFn::discover(UserId::new(0), 1);
    // A alone: N_ROWS < k results. C under a selection no row meets: none.
    let (a0, a1) = (path_cq(0, 0, &cat, 1), path_cq(1, 1, &cat, 1));
    let none = |id| {
        let atom = CqAtom {
            rel: RelId::new(2),
            selection: Some(Selection::eq(0, Value::Int(N_KEYS))),
        };
        ConjunctiveQuery::new(
            CqId::new(id),
            UqId::new(id),
            UserId::new(0),
            vec![atom],
            Vec::new(),
        )
    };
    let (c2, c3) = (none(2), none(3));
    let first = pose(&mut manager, &[(&a0, &f), (&c2, &f)], &src, k);
    assert_eq!(first.uqs[0].3.len(), N_ROWS as usize);
    assert!(first.uqs[1].3.is_empty());
    assert_eq!(manager.retained_len(), 2);

    let again = pose(&mut manager, &[(&a1, &f), (&c3, &f)], &src, k);
    assert_eq!(again.outcome.sealed_uqs, vec![UqId::new(1), UqId::new(3)]);
    assert_eq!(again.reads, 0);
    assert_eq!(again.uqs[0].3, first.uqs[0].3);
    assert!(again.uqs[1].3.is_empty());
}

/// A completion that lost a relation to a failed source is not the
/// query's answer and is never retained; a batch-mate that read nothing
/// from that source is.
#[test]
fn a_degraded_completion_is_never_retained() {
    let cat = catalog();
    let mut src = sources();
    src.set_injector(FaultInjector::new(FaultSpec::new(7).outage(1, 0, None), 0));
    let mut manager = QsManager::new(usize::MAX);
    let k = 10;
    let (f1, f2) = (
        ScoreFn::discover(UserId::new(0), 1),
        ScoreFn::discover(UserId::new(0), 2),
    );
    let (a, ab) = (path_cq(0, 0, &cat, 1), path_cq(1, 1, &cat, 2));
    let first = pose(&mut manager, &[(&a, &f1), (&ab, &f2)], &src, k);
    assert_eq!(first.uqs[0].2, 0, "A alone completes");
    assert!(first.uqs[1].2 > 0, "A ⋈ B lost B");
    assert_eq!(manager.retained_len(), 1, "only A's answer is retained");

    let (a2, ab3) = (path_cq(2, 2, &cat, 1), path_cq(3, 3, &cat, 2));
    let again = pose(&mut manager, &[(&a2, &f1), (&ab3, &f2)], &src, k);
    assert_eq!(again.outcome.sealed_uqs, vec![UqId::new(2)]);
    assert!(again.uqs[1].2 > 0, "A ⋈ B runs, and degrades, again");
}

/// ATC-CQ's roots carry no signature and ATC-UQ's `isolate` forgets
/// them, so neither mode ever retains an answer.
#[test]
fn unshared_modes_never_retain() {
    let cat = catalog();
    let k = 10;
    let f = ScoreFn::discover(UserId::new(0), 2);
    for (share, isolate) in [(false, false), (true, true)] {
        let src = sources();
        let mut manager = QsManager::new(usize::MAX);
        let config = OptimizerConfig {
            k,
            share_subexpressions: share,
            ..OptimizerConfig::default()
        };
        for id in 0..2 {
            let cq = path_cq(id, id, &cat, 2);
            let posed = pose_with(&mut manager, config.clone(), &[(&cq, &f)], &src, isolate);
            assert!(posed.outcome.sealed_uqs.is_empty());
            assert_eq!(manager.retained_len(), 0, "share {share} isolate {isolate}");
        }
    }
}

/// A retained answer is published only while every CQ root it summarises
/// is resident: once the root is evicted, the re-pose runs (and answers
/// the same), and its completion retains the answer again.
#[test]
fn an_evicted_root_kills_its_retained_answer() {
    let cat = catalog();
    let src = sources();
    let mut manager = QsManager::new(usize::MAX);
    let k = 10;
    let f = ScoreFn::discover(UserId::new(0), 2);
    let cq0 = path_cq(0, 0, &cat, 2);
    let first = pose(&mut manager, &[(&cq0, &f)], &src, k);
    assert_eq!(manager.retained_len(), 1);

    let sig = manager.shared_interner().borrow_mut().of_cq(&cq0);
    let root = manager.graph().find_sig(sig).expect("A ⋈ B is resident");
    let graph = manager.graph_mut();
    for p in graph.node(root).parents.clone() {
        graph.disconnect(p, root);
    }
    graph.remove_node(root);

    let cq1 = path_cq(1, 1, &cat, 2);
    let again = pose(&mut manager, &[(&cq1, &f)], &src, k);
    assert!(again.outcome.sealed_uqs.is_empty());
    assert!(again.outcome.created_nodes > 0, "the root is grafted anew");
    assert!(again.uqs[0].1 > 0, "its CQ runs");
    assert_eq!(again.uqs[0].3, first.uqs[0].3);

    let cq2 = path_cq(2, 2, &cat, 2);
    let third = pose(&mut manager, &[(&cq2, &f)], &src, k);
    assert_eq!(third.outcome.sealed_uqs, vec![UqId::new(2)]);
}

/// Over budget, retained answers are evicted before any node, least
/// recently used first, and the manager then fits its budget.
#[test]
fn a_budget_evicts_retained_answers_before_nodes() {
    let cat = catalog();
    let k = 10;
    let (f2, f3) = (
        ScoreFn::discover(UserId::new(0), 2),
        ScoreFn::discover(UserId::new(0), 3),
    );
    let (ab, abc) = (path_cq(0, 0, &cat, 2), path_cq(1, 1, &cat, 3));
    let retained = k * 96;
    // Unbudgeted reference: the graph's bytes after each query.
    let mut reference = QsManager::new(usize::MAX);
    let src = sources();
    pose(&mut reference, &[(&ab, &f2)], &src, k);
    pose(&mut reference, &[(&abc, &f3)], &src, k);
    assert_eq!(reference.retained_len(), 2);
    let graph = reference.resident_bytes() - 2 * retained;

    // Room for the graph and one answer: the older answer goes.
    let budget = graph + retained;
    let mut manager = QsManager::new(budget);
    let src = sources();
    pose(&mut manager, &[(&ab, &f2)], &src, k);
    assert_eq!(manager.retained_len(), 1);
    pose(&mut manager, &[(&abc, &f3)], &src, k);
    assert_eq!(manager.retained_len(), 1);
    assert_eq!(manager.eviction_stats().evicted_nodes, 0);
    assert!(manager.resident_bytes() <= budget);
    let (ab2, abc3) = (path_cq(2, 2, &cat, 2), path_cq(3, 3, &cat, 3));
    let again = pose(&mut manager, &[(&abc3, &f3)], &src, k);
    assert_eq!(again.outcome.sealed_uqs, vec![UqId::new(3)]);
    let again = pose(&mut manager, &[(&ab2, &f2)], &src, k);
    assert!(again.outcome.sealed_uqs.is_empty(), "the LRU answer went");

    // Room for the graph alone: every answer goes, and still no node.
    let mut manager = QsManager::new(graph);
    let src = sources();
    pose(&mut manager, &[(&ab, &f2)], &src, k);
    pose(&mut manager, &[(&abc, &f3)], &src, k);
    assert_eq!(manager.retained_len(), 0);
    assert_eq!(manager.eviction_stats().evicted_nodes, 0);
    assert_eq!(manager.resident_bytes(), graph);
}

/// A retained answer answers one key exactly: the same conjunctive query
/// under another score function, or with another `k`, runs.
#[test]
fn another_scoring_or_k_is_not_the_retained_answer() {
    let cat = catalog();
    let src = sources();
    let mut manager = QsManager::new(usize::MAX);
    let k = 10;
    let discover = ScoreFn::discover(UserId::new(0), 2);
    let banks = ScoreFn::banks(UserId::new(0), 0.5, [(RelId::new(0), 0.5)]);
    pose(
        &mut manager,
        &[(&path_cq(0, 0, &cat, 2), &discover)],
        &src,
        k,
    );
    let rescored = pose(&mut manager, &[(&path_cq(1, 1, &cat, 2), &banks)], &src, k);
    assert!(rescored.outcome.sealed_uqs.is_empty());
    assert!(rescored.uqs[0].1 > 0, "its CQ runs");
    let deeper = pose(
        &mut manager,
        &[(&path_cq(2, 2, &cat, 2), &discover)],
        &src,
        k + 1,
    );
    assert!(deeper.outcome.sealed_uqs.is_empty());
    assert_eq!(deeper.uqs[0].3.len(), k + 1);
    // Each completion retained its own answer.
    assert_eq!(manager.retained_len(), 3);
    let again = pose(&mut manager, &[(&path_cq(3, 3, &cat, 2), &banks)], &src, k);
    assert_eq!(again.outcome.sealed_uqs, vec![UqId::new(3)]);
    assert_eq!(again.uqs[0].3, rescored.uqs[0].3);
}

/// Nor is an answer published over a root a quarantined stream feeds: the
/// re-pose is grafted onto fresh streams instead, and answers the same.
#[test]
fn a_quarantined_stream_under_a_root_blocks_publication() {
    let cat = catalog();
    let src = sources();
    let mut manager = QsManager::new(usize::MAX);
    let k = 10;
    let f = ScoreFn::discover(UserId::new(0), 2);
    let cq0 = path_cq(0, 0, &cat, 2);
    let first = pose(&mut manager, &[(&cq0, &f)], &src, k);
    let sig = manager.shared_interner().borrow_mut().of_cq(&cq0);
    // A stream leaf at or under the root.
    let mut leaf = manager.graph().find_sig(sig).expect("A ⋈ B is resident");
    while !matches!(manager.graph().node(leaf).kind, NodeKind::Stream(_)) {
        leaf = manager.graph().node(leaf).parents[0];
    }
    manager.graph_mut().quarantine_stream(leaf);

    let again = pose(&mut manager, &[(&path_cq(1, 1, &cat, 2), &f)], &src, k);
    assert!(again.outcome.sealed_uqs.is_empty());
    assert!(again.outcome.created_nodes > 0, "fresh streams");
    assert_eq!(again.uqs[0].3, first.uqs[0].3);
}
