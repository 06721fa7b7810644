//! Mutation tests for the `qsys-verify` whole-system checker.
//!
//! Two halves:
//!
//! 1. **Seeded corruption, one per invariant family** — build a structure
//!    that verifies clean, apply exactly one class of damage (a refcount
//!    skew, an overlapping shard split, a cross-section snapshot dangler,
//!    a stream bound changed behind the executor's bound table, a shared
//!    stored module out of step with one of its consumers, a stream-fed
//!    input storing outside its leaf's module), and require
//!    that the verifier reports *that* class and nothing else. A verifier that
//!    misses the damage is useless; one that mislabels it sends whoever
//!    reads the report to the wrong subsystem.
//! 2. **Clean passes** — the standard GUS seeds driven through every
//!    arm whose machinery the phase hooks guard (parallel lanes, shard
//!    splits, fault quarantine, mid-flight replans) must produce zero
//!    violations from [`Engine::verify`]. (These runs also execute the
//!    phase-boundary hooks themselves: tests build with
//!    `debug_assertions`, so every post-cluster / post-graft /
//!    post-replan / pre-publish check fires along the way.)

use proptest::prelude::*;
use qsys::prelude::*;
use qsys::verify as qv;
use qsys_exec::access::{AccessModule, StoredModule};
use qsys_exec::graph::QueryPlanGraph;
use qsys_exec::mjoin::{MJoin, MJoinInput};
use qsys_exec::{NodeKind, SourceGovernor, StreamBacking, StreamRead};
use qsys_opt::adaptive::ObservedCard;
use qsys_opt::warm::WarmExport;
use qsys_query::{CqIdx, CqSet, SigId, SubExprSig};
use qsys_snapshot::{LaneImage, SnapshotImage};
use qsys_source::{Sources, Table};
use qsys_types::{BaseTuple, CostProfile, Epoch, RelId, SimClock, Tuple};
use qsys_workload::gus::{self, GusConfig};
use std::sync::Arc;

/// A leaf signature over the given relations (sorted, no joins).
fn sig(rels: &[u32]) -> SubExprSig {
    SubExprSig {
        atoms: rels.iter().map(|&r| (RelId::new(r), None)).collect(),
        joins: Vec::new(),
    }
}

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

    /// Corruption class 2: two shards of one cluster claiming the same
    /// member is reported as `ShardOverlap` (and only that — the union
    /// still covers the cluster, so no gap is invented).
    #[test]
    fn shard_overlap_is_caught(m in 4usize..32, dup in 0usize..31) {
        let members = CqSet::from_indices((0..m).map(|i| CqIdx(i as u16)));
        let split = m / 2;
        let mut a = CqSet::from_indices((0..split).map(|i| CqIdx(i as u16)));
        let b = CqSet::from_indices((split..m).map(|i| CqIdx(i as u16)));
        prop_assert!(qv::verify_shards(&members, &[a.clone(), b.clone()], 8, "t").is_empty());
        // Duplicate one of b's members into a.
        a.insert(CqIdx((split + dup % (m - split)) as u16));
        let violations = qv::verify_shards(&members, &[a, b], 8, "t");
        prop_assert!(!violations.is_empty());
        for class in classes(&violations) {
            prop_assert_eq!(class, ViolationClass::ShardOverlap);
        }
    }

    /// Corruption class 3: a snapshot section referencing a signature id
    /// beyond its own lane's interner section is a cross-section break,
    /// reported as `SectionMismatch` (not a generic out-of-range id).
    #[test]
    fn cross_section_dangler_is_caught(beyond in 0u32..100) {
        let entries = vec![sig(&[0]), sig(&[1]), sig(&[0, 1])];
        let dangler = SigId(entries.len() as u32 + beyond);
        let lane = LaneImage {
            interner: entries,
            warm: WarmExport {
                fingerprint: None,
                facts: Vec::new(),
                expensive: Vec::new(),
                cq_candidates: Vec::new(),
                canon_order: vec![dangler],
            },
            observed: vec![(dangler, ObservedCard { tuples: 1, exhausted: false })],
        };
        let image = SnapshotImage {
            engine_fingerprint: "test".into(),
            catalog_fingerprint: 1,
            lanes: vec![lane],
        };
        let report = qv::verify_snapshot(&image);
        prop_assert!(!report.is_clean());
        for class in classes(&report.violations) {
            prop_assert_eq!(class, ViolationClass::SectionMismatch);
        }
    }

    /// Corruption class 4: a stream leaf's bound changed without going
    /// through the graph's read/quarantine paths leaves the executor's
    /// bound table stale — the thresholds would keep steering reads at a
    /// dead leaf — and is reported as `GraphMalformed`. The sanctioned
    /// mutator on an identical graph stays clean.
    #[test]
    fn bound_table_skew_is_caught(reads in 0usize..7) {
        let rel = RelId::new(0);
        let sources = Sources::new(SimClock::new(), CostProfile::default(), 7);
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

    /// Corruption class 5: a stored module several m-join inputs share
    /// holds one producer's output, each tuple once, so every sharer is
    /// fed by that producer and, between routing passes, has seen every
    /// entry. Two sharers of a stream leaf's module: one whose cursor lags
    /// — `lag` arrivals reached only its sibling — or that another stream
    /// feeds is reported as `GraphMalformed`; sharers kept in step stay
    /// clean.
    #[test]
    fn shared_module_out_of_step_is_caught(reads in 0usize..5, lag in 0usize..3) {
        let rel = RelId::new(0);
        let sources = Sources::new(SimClock::new(), CostProfile::default(), 7);
        let rows: Vec<Arc<BaseTuple>> = (0..8)
            .map(|i| Arc::new(BaseTuple::new(rel, i, vec![], 1.0 - 0.1 * i as f64)))
            .collect();
        sources.register(Table::new(rel, rows.clone()));
        let build = |stray: bool| {
            let mut graph = QueryPlanGraph::new();
            let leaves = [0, 1].map(|_| {
                graph.add_stream(StreamBacking::Remote(sources.open_stream(rel, None)), None)
            });
            let module = graph.stream_leaf(leaves[0]).module;
            let [mut ahead, mut behind] = [0, 1].map(|_| {
                let input = MJoinInput {
                    rels: vec![rel],
                    module: graph.modules_mut().retain(module),
                    epoch_cap: None,
                    store_arrivals: true,
                    selection: None,
                };
                MJoin::new(vec![input], Vec::new(), graph.modules())
            });
            for (i, row) in rows.iter().take(reads + lag).enumerate() {
                let t = Tuple::single(Arc::clone(row));
                ahead.insert(0, t.clone(), Epoch(0), &sources, graph.modules());
                if i < reads {
                    behind.insert(0, t, Epoch(0), &sources, graph.modules());
                }
            }
            let [a, b] = [ahead, behind].map(|mj| graph.add_mjoin(mj, None));
            graph.connect(leaves[0], a, 0);
            graph.connect(leaves[usize::from(stray)], b, 0);
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

    /// Corruption class 6: a stream leaf's module is the one record of
    /// what it delivered, so every storing input the leaf feeds stores
    /// into it. An input pointed at a private module — holding the very
    /// same tuples — is reported as `GraphMalformed`; the input attached
    /// to the leaf's module stays clean.
    #[test]
    fn stream_fed_private_module_is_caught(reads in 0usize..5) {
        let rel = RelId::new(0);
        let sources = Sources::new(SimClock::new(), CostProfile::default(), 7);
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
/// exercise clustering, sharding, quarantine, and replans without the
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
    engine.submit_script(workload);
    engine.run_until_idle();
    engine
}

fn base_config(mode: SharingMode) -> EngineConfig {
    EngineConfig {
        k: 20,
        batch_size: 5,
        sharing: mode,
        sharding: ShardConfig::off(),
        // Each arm injects the schedule it is about; an ambient
        // `QSYS_FAULTS` (the snapshot-chaos leg's torn write) would fail
        // the on-disk audit for a reason the arm does not test.
        faults: None,
        ..EngineConfig::default()
    }
}

#[test]
fn gus_seeds_verify_clean_across_lane_threads() {
    for seed in [41, 48, 55] {
        let w = small_gus(seed);
        for threads in [1usize, 4] {
            let mut cfg = base_config(SharingMode::AtcCl(Default::default()));
            cfg.lane_threads = threads;
            let engine = drive(&w, cfg);
            let report = engine.verify();
            assert!(
                report.is_clean(),
                "seed {seed} threads {threads}:\n{report}"
            );
        }
    }
}

#[test]
fn sharded_run_verifies_clean() {
    for seed in [41, 48, 55] {
        let w = small_gus(seed);
        let mut cfg = base_config(SharingMode::AtcCl(Default::default()));
        let mut sharding = ShardConfig::at(1.0);
        sharding.max_shards = 4;
        cfg.sharding = sharding;
        let engine = drive(&w, cfg);
        let report = engine.verify();
        assert!(report.is_clean(), "seed {seed} sharded:\n{report}");
    }
}

#[test]
fn chaos_run_verifies_clean() {
    for seed in [41, 48, 55] {
        let w = small_gus(seed);
        let mut cfg = base_config(SharingMode::AtcFull);
        cfg.faults = qsys::source::FaultSpec::parse(
            &qsys_workload::faults::FaultPlan::new(1009)
                .transient(0.05)
                .build(),
        )
        .ok();
        let engine = drive(&w, cfg);
        let report = engine.verify();
        assert!(report.is_clean(), "seed {seed} chaos:\n{report}");
    }
}

#[test]
fn adaptive_run_verifies_clean() {
    // The drift-regime instance: catalog priors skewed so mid-flight
    // replans genuinely fire, covering the post-replan hook with a
    // re-grafted graph.
    let mut cfg = GusConfig::small(81);
    cfg.min_rows = 100;
    cfg.max_rows = 240;
    cfg.user_queries = 15;
    cfg.stats_error = 0.25;
    let w = gus::generate(&cfg);
    let mut config = base_config(SharingMode::AtcFull);
    config.lane_threads = 1;
    config.adaptive = qsys::opt::AdaptiveConfig::at(1.25);
    let engine = drive(&w, config);
    let report = engine.verify();
    assert!(report.is_clean(), "adaptive:\n{report}");
}

#[test]
fn snapshot_round_trip_audits_clean() {
    let w = small_gus(41);
    let dir = std::env::temp_dir().join(format!("qsys-verify-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut cfg = base_config(SharingMode::AtcCl(Default::default()));
    cfg.snapshot_dir = Some(dir.clone());
    cfg.snapshot_every = usize::MAX;
    let mut engine = drive(&w, cfg);
    engine.snapshot().expect("publish");
    let report = engine.audit_snapshot().expect("reload");
    assert!(report.is_clean(), "on-disk audit:\n{report}");
    let _ = std::fs::remove_dir_all(&dir);
}
