//! The paper's running example as an integration test: a user refines a
//! keyword query (KQ1 → KQ3 of Examples 1–3), and the system answers the
//! refinement largely from state retained after the first execution.

use qsys::{Engine, EngineConfig, SharingMode};
use qsys_query::CandidateConfig;
use qsys_types::UserId;
use qsys_workload::gus::{self, GusConfig};

mod common;
use common::search;

fn config() -> EngineConfig {
    EngineConfig {
        k: 8,
        sharing: SharingMode::AtcFull,
        candidate: CandidateConfig {
            max_cqs: 5,
            max_atoms: 5,
            matches_per_keyword: 2,
            ..CandidateConfig::default()
        },
        ..EngineConfig::default()
    }
}

fn system(seed: u64) -> Engine {
    let mut cfg = GusConfig::small(seed);
    cfg.min_rows = 150;
    cfg.max_rows = 400;
    Engine::for_workload(&gus::generate(&cfg), config())
}

#[test]
fn refinement_reuses_prior_state() {
    // Whether two refinements share subexpressions depends on the random
    // schema; assert that reuse shows up across a handful of instances
    // (the paper's premise: related queries overlap often).
    let mut reused_somewhere = false;
    for seed in [1u64, 3, 5, 9] {
        let mut sys = system(seed);
        let (first, _) = search(&mut sys, "protein gene", UserId::new(0)).unwrap();
        assert!(first.cqs_generated >= 1);
        assert!(sys.sources().tuples_streamed() > 0);
        // Refinement sharing a keyword: overlapping candidate networks.
        let (refined, _) = search(&mut sys, "gene membrane", UserId::new(0)).unwrap();
        if refined.reused_nodes > 0 {
            reused_somewhere = true;
            break;
        }
    }
    assert!(
        reused_somewhere,
        "no refinement reused plan state in any instance"
    );
}

#[test]
fn identical_search_returns_identical_answers() {
    let mut sys = system(5);
    let (_, a) = search(&mut sys, "protein metabolism", UserId::new(0)).unwrap();
    let reads = sys.sources().tuples_streamed();
    let (second, b) = search(&mut sys, "protein metabolism", UserId::new(1)).unwrap();
    assert_eq!(a.len(), b.len());
    for ((sa, _), (sb, _)) in a.iter().zip(b.iter()) {
        assert_eq!(sa, sb, "same query, same ranking");
    }
    // The whole answer is retained state: the second run publishes it.
    assert!(second.sealed, "second run reuses state: {second:?}");
    assert_eq!(sys.sources().tuples_streamed(), reads);
}

#[test]
fn warm_system_answers_match_cold_system() {
    // Warm path: search X, then Y. Cold path: search only Y.
    let mut warm = system(9);
    search(&mut warm, "protein gene", UserId::new(0)).unwrap();
    let (_, warm_y) = search(&mut warm, "gene expression", UserId::new(0)).unwrap();

    let mut cold = system(9);
    let (_, cold_y) = search(&mut cold, "gene expression", UserId::new(7)).unwrap();

    assert_eq!(
        warm_y.len(),
        cold_y.len(),
        "reuse must not change the answer set size"
    );
    for ((sa, _), (sb, _)) in warm_y.iter().zip(cold_y.iter()) {
        assert!(
            (sa.get() - sb.get()).abs() < 1e-9,
            "score mismatch: warm {sa} vs cold {sb}"
        );
    }
}

#[test]
fn cqs_activate_lazily() {
    let mut sys = system(11);
    let (r, _) = search(&mut sys, "protein gene", UserId::new(0)).unwrap();
    // Table 4's core claim: the rank-merge activates only the CQs it needs.
    assert!(
        r.cqs_executed <= r.cqs_generated,
        "never more than generated"
    );
}

#[test]
fn unknown_keywords_error_cleanly() {
    let mut sys = system(13);
    let err = search(&mut sys, "zzzunknownzzz", UserId::new(0)).unwrap_err();
    assert!(matches!(err, qsys_types::QsysError::NoMatches(_)));
}
