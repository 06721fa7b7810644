//! Mutation tests for the `qsys-verify` whole-system checker.
//!
//! Two halves:
//!
//! 1. **Seeded corruption, one per invariant family** — build a structure
//!    that verifies clean, apply exactly one class of damage (a refcount
//!    skew, a plan-graph node naming a signature past its interner's end,
//!    a stream bound changed behind the executor's bound table, a
//!    shared stored module out of step with one of its consumers, a
//!    stream-fed input storing outside its leaf's module), and require
//!    that the verifier reports *that* class and nothing else. A verifier
//!    that misses the damage is useless; one that mislabels it sends
//!    whoever reads the report to the wrong subsystem.
//! 2. **Clean passes** — the standard GUS seeds driven through every
//!    arm whose machinery the phase hooks guard (clustered lanes at 1 and
//!    4 threads, fault quarantine) must produce zero violations from
//!    [`Engine::verify`]. (These runs also execute the phase-boundary
//!    hooks themselves: tests build with `debug_assertions`, so every
//!    post-cluster / post-graft check fires along the way.)

use proptest::prelude::*;
use qsys::prelude::*;
use qsys::verify as qv;
use qsys_exec::access::{AccessModule, StoredModule};
use qsys_exec::graph::QueryPlanGraph;
use qsys_exec::mjoin::{MJoin, MJoinInput};
use qsys_exec::state::QsManager;
use qsys_exec::{NodeKind, SourceGovernor, StreamBacking, StreamRead};
use qsys_opt::cluster::ClusterConfig;
use qsys_query::SigId;
use qsys_source::{Sources, Table};
use qsys_types::{BaseTuple, RelId, SimClock};
use qsys_workload::gus::{self, GusConfig};
use std::sync::Arc;

fn classes(violations: &[qv::Violation]) -> Vec<ViolationClass> {
    violations.iter().map(|v| v.class).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Corruption class 1: an arena refcount that disagrees with how many
    /// live plan-graph slots (plus external probe refs) actually name the
    /// module is reported as `RefcountSkew`.
    #[test]
    fn refcount_skew_is_caught(extra in 1u32..4) {
        let mut graph = QueryPlanGraph::new();
        let module = graph
            .modules_mut()
            .alloc(AccessModule::Stored(StoredModule::new([])));
        let mj = MJoin::new(
            vec![MJoinInput {
                rels: vec![RelId::new(0)],
                module,
                epoch_cap: None,
                store_arrivals: true,
                selection: None,
            }],
            Vec::new(),
            graph.modules(),
        );
        graph.add_mjoin(mj, None);
        prop_assert!(qv::verify_graph(&graph, &[], "t").is_empty());
        for _ in 0..extra {
            graph.modules_mut().retain(module); // ref without a holder
        }
        let violations = qv::verify_graph(&graph, &[], "t");
        prop_assert!(!violations.is_empty());
        for class in classes(&violations) {
            prop_assert_eq!(class, ViolationClass::RefcountSkew);
        }
    }

    /// Corruption class 2: a plan-graph node carrying a signature id past
    /// the end of its lane's interner is reported as `IdOutOfRange`; the
    /// same manager with only an interned leaf verifies clean.
    #[test]
    fn dangling_node_sig_is_caught(beyond in 0u32..100) {
        let rel = RelId::new(0);
        let sources = Sources::new(SimClock::new(), 7);
        let rows = (0..4)
            .map(|i| Arc::new(BaseTuple::new(rel, i, vec![], 1.0 - 0.1 * i as f64)))
            .collect();
        sources.register(Table::new(rel, rows));
        let mut manager = QsManager::new(usize::MAX);
        let interner = manager.shared_interner();
        let interned = interner.borrow_mut().relation(rel, None);
        let stream = || StreamBacking::Remote(sources.open_stream(rel, None));
        manager.graph_mut().add_stream(stream(), Some(interned));
        let clean = qv::verify_manager(&manager, "lane/graph");
        prop_assert!(clean.is_empty(), "{:?}", clean);

        let dangling = SigId(interner.borrow().len() as u32 + beyond);
        manager.graph_mut().add_stream(stream(), Some(dangling));
        let violations = qv::verify_manager(&manager, "lane/graph");
        prop_assert!(!violations.is_empty());
        for class in classes(&violations) {
            prop_assert_eq!(class, ViolationClass::IdOutOfRange);
        }
    }

    /// Corruption class 3: a stream leaf's bound changed without going
    /// through the graph's read/quarantine paths leaves the executor's
    /// bound table stale — the thresholds would keep steering reads at a
    /// dead leaf — and is reported as `GraphMalformed`. The sanctioned
    /// mutator on an identical graph stays clean.
    #[test]
    fn bound_table_skew_is_caught(reads in 0usize..7) {
        let rel = RelId::new(0);
        let sources = Sources::new(SimClock::new(), 7);
        let rows = (0..8)
            .map(|i| Arc::new(BaseTuple::new(rel, i, vec![], 1.0 - 0.1 * i as f64)))
            .collect();
        sources.register(Table::new(rel, rows));
        let governor = SourceGovernor::new(Default::default());
        let build = || {
            let mut graph = QueryPlanGraph::new();
            let leaf = graph.add_stream(StreamBacking::Remote(sources.open_stream(rel, None)), None);
            for _ in 0..reads {
                let read = graph.read_stream_governed(leaf, &sources, &governor);
                assert_eq!(read, StreamRead::Delivered);
            }
            assert!(qv::verify_graph(&graph, &[], "t").is_empty());
            (graph, leaf)
        };

        let (mut graph, leaf) = build();
        if let NodeKind::Stream(l) = &mut graph.node_mut(leaf).kind {
            l.quarantined = true; // the table still holds the live bound
        }
        let violations = qv::verify_graph(&graph, &[], "t");
        prop_assert!(!violations.is_empty());
        for class in classes(&violations) {
            prop_assert_eq!(class, ViolationClass::GraphMalformed);
        }

        let (mut graph, leaf) = build();
        graph.quarantine_stream(leaf);
        prop_assert!(qv::verify_graph(&graph, &[], "t").is_empty());
    }

    /// Corruption class 4: a stored module several m-join inputs share
    /// holds one producer's output, each tuple once, so every sharer is
    /// fed by that producer and, between routing passes, has seen every
    /// entry. Two sharers of a stream leaf's module, driven by the leaf's
    /// reads: one whose cursor lags — `lag` reads reached only its sibling
    /// — or that another stream feeds is reported as `GraphMalformed`;
    /// sharers kept in step stay clean.
    #[test]
    fn shared_module_out_of_step_is_caught(reads in 0usize..5, lag in 0usize..3) {
        let rel = RelId::new(0);
        let sources = Sources::new(SimClock::new(), 7);
        let rows: Vec<Arc<BaseTuple>> = (0..8)
            .map(|i| Arc::new(BaseTuple::new(rel, i, vec![], 1.0 - 0.1 * i as f64)))
            .collect();
        sources.register(Table::new(rel, rows));
        let governor = SourceGovernor::new(Default::default());
        let build = |stray: bool| {
            let mut graph = QueryPlanGraph::new();
            let leaves = [0, 1].map(|_| {
                graph.add_stream(StreamBacking::Remote(sources.open_stream(rel, None)), None)
            });
            let module = graph.stream_leaf(leaves[0]).module;
            let [ahead, behind] = [0, 1].map(|_| {
                let input = MJoinInput {
                    rels: vec![rel],
                    module: graph.modules_mut().retain(module),
                    epoch_cap: None,
                    store_arrivals: true,
                    selection: None,
                };
                let mj = MJoin::new(vec![input], Vec::new(), graph.modules());
                graph.add_mjoin(mj, None)
            });
            let read = |graph: &mut QueryPlanGraph| {
                let read = graph.read_stream_governed(leaves[0], &sources, &governor);
                assert_eq!(read, StreamRead::Delivered);
            };
            // The first leaf routes its first `reads` tuples to both
            // sharers and the next `lag` to `ahead` alone; then `behind`
            // is wired to its producer, that leaf or the stray one.
            graph.connect(leaves[0], ahead, 0);
            graph.node_mut(leaves[0]).children.push((behind, 0));
            for _ in 0..reads {
                read(&mut graph);
            }
            graph.node_mut(leaves[0]).children.retain(|&(child, _)| child != behind);
            for _ in 0..lag {
                read(&mut graph);
            }
            graph.connect(leaves[usize::from(stray)], behind, 0);
            qv::verify_graph(&graph, &[], "t")
        };
        let one_producer = build(false);
        prop_assert_eq!(one_producer.is_empty(), lag == 0, "{:?}", one_producer);
        let two_producers = build(true);
        prop_assert!(!two_producers.is_empty());
        for class in classes(&one_producer).into_iter().chain(classes(&two_producers)) {
            prop_assert_eq!(class, ViolationClass::GraphMalformed);
        }
    }

    /// Corruption class 5: a stream leaf's module is the one record of
    /// what it delivered, so every storing input the leaf feeds stores
    /// into it. An input pointed at a private module — holding the very
    /// same tuples — is reported as `GraphMalformed`; the input attached
    /// to the leaf's module stays clean.
    #[test]
    fn stream_fed_private_module_is_caught(reads in 0usize..5) {
        let rel = RelId::new(0);
        let sources = Sources::new(SimClock::new(), 7);
        let rows = (0..8)
            .map(|i| Arc::new(BaseTuple::new(rel, i, vec![], 1.0 - 0.1 * i as f64)))
            .collect();
        sources.register(Table::new(rel, rows));
        let governor = SourceGovernor::new(Default::default());
        let build = |private: bool| {
            let mut graph = QueryPlanGraph::new();
            let leaf = graph.add_stream(StreamBacking::Remote(sources.open_stream(rel, None)), None);
            let module = if private {
                graph.modules_mut().alloc(AccessModule::Stored(StoredModule::new([])))
            } else {
                let module = graph.stream_leaf(leaf).module;
                graph.modules_mut().retain(module)
            };
            let input = MJoinInput {
                rels: vec![rel],
                module,
                epoch_cap: None,
                store_arrivals: true,
                selection: None,
            };
            let mj = MJoin::new(vec![input], Vec::new(), graph.modules());
            let mj = graph.add_mjoin(mj, None);
            graph.connect(leaf, mj, 0);
            for _ in 0..reads {
                let read = graph.read_stream_governed(leaf, &sources, &governor);
                assert_eq!(read, StreamRead::Delivered);
            }
            qv::verify_graph(&graph, &[], "t")
        };
        let attached = build(false);
        prop_assert!(attached.is_empty(), "{:?}", attached);
        let private = build(true);
        prop_assert!(!private.is_empty());
        for class in classes(&private) {
            prop_assert_eq!(class, ViolationClass::GraphMalformed);
        }
    }
}

// ---------------------------------------------------------------------------
// Clean passes: the standard arms verify with zero violations.
// ---------------------------------------------------------------------------

/// A trimmed GUS instance: full schema, small cardinalities — enough to
/// exercise clustering and quarantine without the
/// release-scale run times (the full-scale audit is `reproduce verify`).
fn small_gus(seed: u64) -> qsys_workload::Workload {
    let mut cfg = GusConfig::small(seed);
    cfg.min_rows = 60;
    cfg.max_rows = 160;
    cfg.user_queries = 10;
    gus::generate(&cfg)
}

fn drive(workload: &qsys_workload::Workload, config: EngineConfig) -> Engine {
    let mut engine = Engine::for_workload(workload, config);
    engine.submit_script(workload).expect("the config is valid");
    engine.run_until_idle();
    engine
}

fn base_config(mode: SharingMode) -> EngineConfig {
    EngineConfig {
        k: 20,
        batch_size: 5,
        sharing: mode,
        ..EngineConfig::default()
    }
}

#[test]
fn gus_seeds_verify_clean_across_lane_threads() {
    // The benchmark's `gus-cl-par` clustering: tight enough that seeds 41
    // and 48 run two lanes each, so the sweep covers several lanes per
    // engine (the default clustering keeps every seed on one).
    let clustering = SharingMode::AtcCl(ClusterConfig { t_m: 2, t_c: 0.9 });
    let mut most_lanes = 0;
    for seed in [41, 48, 55] {
        let w = small_gus(seed);
        for threads in [1usize, 4] {
            let mut cfg = base_config(clustering.clone());
            cfg.lane_threads = threads;
            let engine = drive(&w, cfg);
            most_lanes = most_lanes.max(engine.lanes());
            let report = engine.verify();
            assert!(
                report.is_clean(),
                "seed {seed} threads {threads}:\n{report}"
            );
        }
    }
    assert!(most_lanes > 1, "no seed split into several lanes");
}

#[test]
fn chaos_run_verifies_clean() {
    for seed in [41, 48, 55] {
        let w = small_gus(seed);
        let mut cfg = base_config(SharingMode::AtcFull);
        cfg.faults = Some(qsys::source::FaultSpec::new(1009).transient(0.05));
        let engine = drive(&w, cfg);
        let report = engine.verify();
        assert!(report.is_clean(), "seed {seed} chaos:\n{report}");
    }
}
