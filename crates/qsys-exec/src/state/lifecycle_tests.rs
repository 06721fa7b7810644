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
use qsys_source::{Sources, Table};
use qsys_types::{
    BaseTuple, CostProfile, CqId, Epoch, JoinCond, RelId, SimClock, Tuple, UqId, UserId, Value,
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
    let s = Sources::new(SimClock::new(), CostProfile::default(), 77);
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
