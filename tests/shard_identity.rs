//! Lane-sharding identity: splitting an oversized ATC-CL cluster into
//! sub-lanes is a *physical* routing decision and must be invisible in
//! results.
//!
//! The contract, pinned across GUS instance seeds 41 / 48 / 55:
//!
//! - every user query resolves with the same outcome and the same answer
//!   multiset whether its cluster ran on one lane or was sharded — up to
//!   ties at the k-th score, where the top-k set is inherently non-unique
//!   (a different lane composition may surface a different, equally
//!   ranked, tied boundary subset);
//! - under a deterministic fault schedule the same holds for the
//!   surviving queries, and a query degraded by a hard outage blames
//!   exactly the same missing relations sharded as unsharded.
//!
//! The partition invariants themselves (disjoint, total, capped) are
//! property-tested in `proptest_invariants.rs`; this file pins the
//! end-to-end engine behaviour the partition feeds.

use qsys::opt::cluster::ClusterConfig;
use qsys::prelude::*;
use qsys::query::CandidateConfig;
use qsys::source::FaultSpec;
use qsys_workload::faults::FaultPlan;
use qsys_workload::gus::{self, GusConfig};
use qsys_workload::Workload;

mod common;
use common::{assert_equivalent, run};

fn workload(seed: u64) -> Workload {
    let mut cfg = GusConfig::small(seed);
    cfg.min_rows = 150;
    cfg.max_rows = 400;
    cfg.user_queries = 12;
    gus::generate(&cfg)
}

/// Clustering tight enough that clusters form and hold several UQs each —
/// the shape sharding exists for.
fn engine_cfg(sharding: ShardConfig, faults: Option<&str>) -> EngineConfig {
    EngineConfig {
        k: 10,
        batch_size: 3,
        sharing: SharingMode::AtcCl(ClusterConfig { t_m: 1, t_c: 0.9 }),
        candidate: CandidateConfig {
            max_cqs: 6,
            max_atoms: 5,
            matches_per_keyword: 2,
            ..CandidateConfig::default()
        },
        lane_threads: 1,
        sharding,
        faults: faults.map(|s| FaultSpec::parse(s).expect("valid fault spec")),
        ..EngineConfig::default()
    }
}

/// An aggressive shard config: every multi-UQ cluster splits up to `cap`.
fn sharded(cap: usize) -> ShardConfig {
    let mut cfg = ShardConfig::at(1.0);
    cfg.max_shards = cap;
    cfg
}

/// Sharding must actually engage for the identity claim to mean anything.
fn assert_sharded(report: &RunReport, context: &str) {
    assert!(
        report
            .lane_summaries
            .iter()
            .any(|lane| lane.shard_of.is_some()),
        "{context}: no cluster split — the workload no longer exercises sharding"
    );
}

/// Per-UQ result multisets are identical sharded vs unsharded, across
/// three GUS instance seeds and two shard caps.
#[test]
fn sharded_results_identical_across_seeds() {
    for seed in [41, 48, 55] {
        let w = workload(seed);
        let (base_report, base) = run(&w, engine_cfg(ShardConfig::off(), None));
        assert!(
            base.values().all(|(o, _)| o.is_complete()),
            "seed {seed}: fault-free baseline must be all-Complete"
        );
        for cap in [2, 4] {
            let context = format!("seed {seed}, max_shards {cap}");
            let (report, arm) = run(&w, engine_cfg(sharded(cap), None));
            assert_sharded(&report, &context);
            assert!(
                report.lanes > base_report.lanes,
                "{context}: sharding must add lanes ({} vs {})",
                report.lanes,
                base_report.lanes
            );
            assert_equivalent(&base, &arm, &context);
        }
    }
}

/// Under a deterministic hard outage on the most-shared relation, sharding
/// keeps degradation strictly per-query (the contract is
/// `common::assert_blames_same_relations`; sharding changes lane schedules,
/// so which readers degrade may differ).
#[test]
fn sharded_chaos_blames_same_relations() {
    let w = workload(41);
    let (victim, victim_readers) = common::outage_victim(&w, &engine_cfg(ShardConfig::off(), None));
    let spec = FaultPlan::new(7).outage(victim, 0, None).build();

    let (_, base) = run(&w, engine_cfg(ShardConfig::off(), Some(&spec)));
    let (report, arm) = run(&w, engine_cfg(sharded(4), Some(&spec)));
    assert_sharded(&report, "chaos arm");
    common::assert_blames_same_relations(&base, &arm, victim, &victim_readers);
}
