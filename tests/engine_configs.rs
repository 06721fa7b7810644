//! Cross-configuration integration tests.
//!
//! The four sharing configurations of Section 7.1 are different *execution
//! strategies* for the same queries — they must return the same top-k
//! answers (same scores), while doing measurably different amounts of
//! work. These tests pin both properties.

use qsys::state::EvictionPolicy;
use qsys::types::{QsysError, UserId};
use qsys::{run_workload, Engine, EngineConfig, SharingMode};
use qsys_opt::cluster::ClusterConfig;
use qsys_query::CandidateConfig;
use qsys_workload::gus::{self, GusConfig};
use qsys_workload::Workload;

fn small_workload(seed: u64) -> Workload {
    let mut cfg = GusConfig::small(seed);
    cfg.min_rows = 150;
    cfg.max_rows = 400;
    cfg.user_queries = 6;
    gus::generate(&cfg)
}

fn engine(mode: SharingMode) -> EngineConfig {
    EngineConfig {
        k: 8,
        batch_size: 3,
        sharing: mode,
        candidate: CandidateConfig {
            max_cqs: 5,
            max_atoms: 5,
            matches_per_keyword: 2,
            ..CandidateConfig::default()
        },
        ..EngineConfig::default()
    }
}

fn all_modes() -> Vec<SharingMode> {
    vec![
        SharingMode::AtcCq,
        SharingMode::AtcUq,
        SharingMode::AtcFull,
        SharingMode::AtcCl(ClusterConfig::default()),
    ]
}

#[test]
fn all_configs_complete_every_user_query() {
    let w = small_workload(5);
    for mode in all_modes() {
        let report = run_workload(&w, &engine(mode.clone()), None).unwrap();
        assert_eq!(
            report.per_uq.len() + report.skipped.len(),
            6,
            "{}",
            mode.label()
        );
        for uq in &report.per_uq {
            assert!(
                uq.response_us > 0,
                "{}: {uq:?} has no response time",
                mode.label()
            );
            assert!(uq.cqs_executed >= 1, "{}: {uq:?}", mode.label());
            assert!(
                uq.cqs_executed <= uq.cqs_generated,
                "{}: executed more CQs than generated: {uq:?}",
                mode.label()
            );
        }
    }
}

#[test]
fn result_counts_agree_across_configs() {
    let w = small_workload(7);
    let reports: Vec<_> = all_modes()
        .into_iter()
        .map(|m| run_workload(&w, &engine(m), None).unwrap())
        .collect();
    let reference = &reports[0];
    for other in &reports[1..] {
        for (a, b) in reference.per_uq.iter().zip(other.per_uq.iter()) {
            assert_eq!(a.uq, b.uq);
            assert_eq!(
                a.results, b.results,
                "{} vs {}: UQ {} returned different result counts",
                reference.config, other.config, a.uq
            );
        }
    }
}

#[test]
fn sharing_reduces_stream_reads() {
    let w = small_workload(11);
    let cq = run_workload(&w, &engine(SharingMode::AtcCq), None).unwrap();
    let full = run_workload(&w, &engine(SharingMode::AtcFull), None).unwrap();
    assert!(
        full.tuples_streamed < cq.tuples_streamed,
        "ATC-FULL ({}) must stream fewer tuples than ATC-CQ ({})",
        full.tuples_streamed,
        cq.tuples_streamed
    );
}

#[test]
fn optimizer_runs_once_per_batch_under_full() {
    let w = small_workload(13);
    let full = run_workload(&w, &engine(SharingMode::AtcFull), None).unwrap();
    let n = full.per_uq.len();
    // Batches of 3 → ceil(n / 3) optimizer invocations.
    assert_eq!(full.opt_events.len(), n.div_ceil(3));
    let per_uq = run_workload(&w, &engine(SharingMode::AtcUq), None).unwrap();
    assert_eq!(per_uq.opt_events.len(), n);
}

#[test]
fn clustered_mode_uses_multiple_lanes_when_workload_splits() {
    let w = small_workload(17);
    let cl = run_workload(
        &w,
        &engine(SharingMode::AtcCl(ClusterConfig { t_m: 1, t_c: 0.5 })),
        None,
    )
    .unwrap();
    assert!(cl.lanes >= 1);
    // Every UQ is served by exactly one lane.
    for uq in &cl.per_uq {
        assert!(uq.lane < cl.lanes);
    }
}

#[test]
fn limit_truncates_the_script() {
    let w = small_workload(19);
    let r = run_workload(&w, &engine(SharingMode::AtcFull), Some(2)).unwrap();
    assert_eq!(r.per_uq.len(), 2);
}

/// The eviction policy is an engine-config knob (wired through to each
/// lane's `QsManager::with_policy`): every policy must complete the same
/// workload under memory pressure and return the same answers — eviction
/// changes what is *recomputed*, never what is *returned*.
#[test]
fn eviction_policy_is_selectable_per_config() {
    let w = small_workload(29);
    let reference = run_workload(&w, &engine(SharingMode::AtcFull), None).unwrap();
    for policy in [
        EvictionPolicy::LruSizeTieBreak,
        EvictionPolicy::Lru,
        EvictionPolicy::SizeGreedy,
    ] {
        let mut cfg = engine(SharingMode::AtcFull);
        cfg.eviction = policy;
        cfg.memory_budget = 1 << 18; // tight enough to force eviction
        let report = run_workload(&w, &cfg, None).unwrap();
        assert_eq!(
            report.per_uq.len(),
            reference.per_uq.len(),
            "{policy:?}: every UQ completes"
        );
        for (a, b) in reference.per_uq.iter().zip(report.per_uq.iter()) {
            assert_eq!(a.uq, b.uq);
            assert_eq!(
                a.results, b.results,
                "{policy:?}: UQ {} returned different result counts",
                a.uq
            );
        }
    }
}

#[test]
fn time_breakdown_is_consistent() {
    let w = small_workload(23);
    let r = run_workload(&w, &engine(SharingMode::AtcFull), None).unwrap();
    let b = r.breakdown;
    assert!(b.stream_read_us > 0, "streams were read");
    assert!(b.join_us > 0, "joins happened");
    assert!(b.optimize_us > 0, "optimizer charged");
    let (s, ra, j) = b.exec_fractions();
    assert!((s + ra + j - 1.0).abs() < 1e-9);
}

/// An engine built from a config that fails validation refuses its first
/// submission — and `submit_script` and `run_workload` a whole script —
/// with a structured
/// `InvalidConfig` naming the field, never a panic and never a silent run.
/// A candidate-generation limit of 0 is refused the same way, not reported
/// as `NoMatches` for every query, and so is a `max_cqs` above the 64 one
/// search's query set holds. The default config serves.
#[test]
fn invalid_configs_refuse_submission_without_panicking() {
    let w = small_workload(5);
    let (uqs, _) = qsys::generate_user_queries(&w, &EngineConfig::default()).unwrap();
    let keywords = &uqs[0].keywords;
    let invalid = [
        (
            "snapshot_dir",
            EngineConfig {
                snapshot_dir: Some("warm".into()),
                ..EngineConfig::default()
            },
        ),
        (
            "shard_debug",
            EngineConfig {
                shard_debug: true,
                ..EngineConfig::default()
            },
        ),
        (
            "k",
            EngineConfig {
                k: 0,
                ..EngineConfig::default()
            },
        ),
        (
            "faults",
            EngineConfig {
                faults: Some(qsys::source::FaultSpec::new(1).transient(2.0)),
                ..EngineConfig::default()
            },
        ),
        (
            "candidate.max_cqs",
            EngineConfig {
                candidate: CandidateConfig {
                    max_cqs: 0,
                    ..CandidateConfig::default()
                },
                ..EngineConfig::default()
            },
        ),
        (
            "candidate.max_cqs",
            EngineConfig {
                candidate: CandidateConfig {
                    max_cqs: 65,
                    ..CandidateConfig::default()
                },
                ..EngineConfig::default()
            },
        ),
        (
            "candidate.max_atoms",
            EngineConfig {
                candidate: CandidateConfig {
                    max_atoms: 0,
                    ..CandidateConfig::default()
                },
                ..EngineConfig::default()
            },
        ),
        (
            "candidate.matches_per_keyword",
            EngineConfig {
                candidate: CandidateConfig {
                    matches_per_keyword: 0,
                    ..CandidateConfig::default()
                },
                ..EngineConfig::default()
            },
        ),
    ];
    for (field, cfg) in invalid {
        let mut engine = Engine::for_workload(&w, cfg.clone());
        let refusal = engine
            .session(UserId::new(0))
            .submit(keywords, 0)
            .expect_err(field);
        let QsysError::InvalidConfig(why) = &refusal else {
            panic!("{field}: refused with {refusal:?}");
        };
        assert!(why.contains(field), "{field}: {why}");
        assert_eq!(engine.submit_script(&w).err(), Some(refusal.clone()));
        assert_eq!(engine.pending(), 0, "{field}: nothing was admitted");
        assert_eq!(run_workload(&w, &cfg, None).err(), Some(refusal));
    }
    let mut engine = Engine::for_workload(&w, EngineConfig::default());
    let ticket = engine
        .session(UserId::new(0))
        .submit(keywords, 0)
        .expect("the default config serves");
    engine.run_until_idle();
    assert!(ticket.outcome().is_some_and(|o| o.is_complete()));
}
