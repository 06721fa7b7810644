//! Adaptive re-planning identity: a mid-flight re-optimization is a
//! *physical* decision — it may change which streams are read and how
//! much, never which answers come back.
//!
//! The contract, pinned across GUS instance seeds 41 / 48 / 55 on a
//! drift-heavy catalog (priors skewed to 25% / 400% of the truth, the
//! regime re-planning exists for):
//!
//! - every user query returns the same answer multiset with adaptive
//!   re-planning on as with the static plan — up to ties at the k-th
//!   score, where the top-k set is inherently non-unique — at
//!   `lane_threads` 1 and 4, and the matrix genuinely re-plans at least
//!   once (otherwise the identity claim is vacuous);
//! - any drift threshold and `min_remaining` fraction whatsoever keeps
//!   that identity (property-tested: the knobs change *when* a lane
//!   re-plans, never *what* it answers);
//! - under a deterministic hard outage the same holds for the surviving
//!   queries, and a degraded query blames exactly the same missing
//!   relations adaptive as static.

use proptest::prelude::*;
use qsys::opt::cluster::ClusterConfig;
use qsys::opt::AdaptiveConfig;
use qsys::prelude::*;
use qsys::query::CandidateConfig;
use qsys::source::FaultSpec;
use qsys_workload::faults::FaultPlan;
use qsys_workload::gus::{self, GusConfig};
use qsys_workload::Workload;

mod common;
use common::{assert_equivalent, run, Outcomes};

/// The drift-heavy instance: same generated data as the other identity
/// suites' seeds, but the catalog's reported cardinalities are skewed
/// (deterministically per relation, both directions) so the optimizer's
/// starting beliefs are wrong and the executor's observations contradict
/// them early — without drift the adaptive path never engages and this
/// file would test nothing.
fn workload(seed: u64) -> Workload {
    let mut cfg = GusConfig::small(seed);
    cfg.min_rows = 150;
    cfg.max_rows = 400;
    cfg.user_queries = 12;
    cfg.stats_error = 0.25;
    gus::generate(&cfg)
}

/// Clustering tight enough that every seed splits into several lanes, so
/// the `lane_threads` axis of the matrix is meaningful.
fn engine_cfg(lane_threads: usize, adaptive: AdaptiveConfig, faults: Option<&str>) -> EngineConfig {
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
        lane_threads,
        adaptive,
        // Explicit, not inherited from the environment: each arm pins its
        // own adaptive/fault/shard knobs even under the CI matrix legs.
        sharding: qsys::ShardConfig::off(),
        faults: faults.map(|s| FaultSpec::parse(s).expect("valid fault spec")),
        // The corrections live in the warm store: the loop is inert without
        // it, so the `warm_opt=0` CI leg must not reach these arms either.
        warm_opt: true,
        ..EngineConfig::default()
    }
}

/// Per-UQ result multisets are identical adaptive vs static, across three
/// GUS seeds, two thread caps, and two drift thresholds — and the matrix
/// as a whole must re-plan at least once, or the claim is vacuous.
#[test]
fn adaptive_results_identical_across_seeds_and_threads() {
    let mut total_replans = 0;
    for seed in [41, 48, 55] {
        let w = workload(seed);
        for lane_threads in [1usize, 4] {
            let (_, base) = run(&w, engine_cfg(lane_threads, AdaptiveConfig::off(), None));
            assert!(
                base.values().all(|(o, _)| o.is_complete()),
                "seed {seed}: fault-free static baseline must be all-Complete"
            );
            for drift in [1.25, 2.0] {
                let context = format!("seed {seed}, lane_threads {lane_threads}, drift>{drift}x");
                let (report, arm) = run(
                    &w,
                    engine_cfg(lane_threads, AdaptiveConfig::at(drift), None),
                );
                assert!(
                    report.adaptive.drift_checks > 0,
                    "{context}: the adaptive loop never engaged"
                );
                total_replans += report.adaptive.replans;
                assert_equivalent(&base, &arm, &context);
            }
        }
    }
    assert!(
        total_replans >= 1,
        "no arm in the whole matrix re-planned — the workload no longer \
         drifts and the identity above is vacuous"
    );
}

/// Under a deterministic hard outage on the most-shared relation, adaptive
/// re-planning keeps degradation strictly per-query (the contract is
/// `common::assert_blames_same_relations`; re-planning changes schedules, so
/// which readers degrade may differ).
#[test]
fn adaptive_chaos_blames_same_relations() {
    let w = workload(41);
    let (victim, victim_readers) =
        common::outage_victim(&w, &engine_cfg(1, AdaptiveConfig::off(), None));
    let spec = FaultPlan::new(7).outage(victim, 0, None).build();

    let (_, base) = run(&w, engine_cfg(1, AdaptiveConfig::off(), Some(&spec)));
    let (report, arm) = run(&w, engine_cfg(1, AdaptiveConfig::at(1.25), Some(&spec)));
    assert!(
        report.adaptive.drift_checks > 0,
        "chaos arm: the adaptive loop never engaged"
    );
    common::assert_blames_same_relations(&base, &arm, victim, &victim_readers);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any drift threshold and `min_remaining` fraction whatsoever: the
    /// knobs move *when* a lane re-plans (from "almost every drift
    /// check" at 1.01 to "never" at high thresholds), never *what* it
    /// answers. The static baseline is computed once per process — the
    /// runs are the slow part.
    #[test]
    fn prop_replan_knobs_never_change_answers(
        drift in 1.01f64..4.0,
        min_remaining in 0.0f64..0.95,
    ) {
        thread_local! {
            static BASE: (Workload, Outcomes) = {
                let w = workload(41);
                let (_, base) = run(&w, engine_cfg(1, AdaptiveConfig::off(), None));
                (w, base)
            };
        }
        BASE.with(|(w, base)| {
            let adaptive = AdaptiveConfig {
                drift: Some(drift),
                min_remaining,
            };
            let (_, arm) = run(w, engine_cfg(1, adaptive, None));
            let context = format!("drift>{drift}x, min_remaining {min_remaining}");
            assert_equivalent(base, &arm, &context);
        });
    }
}
