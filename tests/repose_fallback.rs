//! A re-posed batch skips the push-down search only when every one of its
//! conjunctive queries is resident whole (`Optimizer::optimize`).
//! Here a root stops being mergeable in the two ways the engine has: a
//! fault schedule quarantined a stream leaf below it (the reuse oracle
//! never advertises quarantined state), or a memory budget evicted it. A
//! batch meeting either searches again, and every query that completes
//! answers what the unbudgeted, fault-free re-pose answers.

use qsys::prelude::*;
use qsys::query::CandidateConfig;
use qsys::source::FaultSpec;
use qsys_workload::faults::FaultPlan;
use qsys_workload::gus::{self, GusConfig};
use qsys_workload::Workload;

mod common;

fn workload() -> Workload {
    gus::generate(&GusConfig {
        user_queries: 10,
        min_rows: 100,
        max_rows: 300,
        ..GusConfig::small(41)
    })
}

/// `tests/repose_identity.rs`'s engine: ATC-FULL, five queries a batch.
fn config() -> EngineConfig {
    EngineConfig {
        k: 50,
        batch_size: 5,
        sharing: SharingMode::AtcFull,
        candidate: CandidateConfig {
            max_cqs: 20,
            max_atoms: 6,
            matches_per_keyword: 3,
            ..CandidateConfig::default()
        },
        lane_threads: 1,
        ..EngineConfig::default()
    }
}

/// One pose of the script: the states each batch explored, and each
/// query's outcome with an FNV-1a digest of its ascending score bits.
struct Pose {
    explored: Vec<usize>,
    answers: Vec<(QueryOutcome, u64)>,
}

/// Pose `w`'s script twice on one engine, five queries a batch.
fn two_poses(w: &Workload, cfg: EngineConfig) -> [Pose; 2] {
    let mut engine = Engine::for_workload(w, cfg);
    [(); 2].map(|()| {
        let mut pose = Pose {
            explored: Vec::new(),
            answers: Vec::new(),
        };
        for window in w.queries.chunks(5) {
            let tickets: Vec<QueryTicket> = window
                .iter()
                .map(|q| {
                    let mut session = engine.session(q.user);
                    if let Some(costs) = &q.edge_costs {
                        session = session.with_edge_costs(costs.clone());
                    }
                    session.submit(&q.keywords, q.arrival_us).expect("matches")
                })
                .collect();
            engine.flush();
            assert_eq!(engine.step(), 1, "one batch per window");
            pose.explored
                .push(tickets[0].opt_stats().expect("batch ran").explored);
            for t in &tickets {
                let outcome = t.report().expect("report published").outcome;
                let mut bits: Vec<u64> = (t.take_results().unwrap_or_default().iter())
                    .map(|(s, _)| s.get().to_bits())
                    .collect();
                bits.sort_unstable();
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for b in bits.iter().flat_map(|w| w.to_le_bytes()) {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
                }
                pose.answers.push((outcome, h));
            }
        }
        pose
    })
}

/// The reference: on the fault-free, unbudgeted engine every re-posed
/// batch is resident whole and explores its one default state.
fn reference(w: &Workload) -> Pose {
    let [_, repose] = two_poses(w, config());
    assert_eq!(repose.explored, [1, 1]);
    assert!(repose.answers.iter().all(|(o, _)| o.is_complete()));
    repose
}

#[test]
fn repose_over_a_quarantined_leaf_searches() {
    let w = workload();
    let want = reference(&w);
    // The relation most queries read that some query avoids: its outage
    // quarantines the leaf the first pose reads it through.
    let readers = common::rel_readers(&w, &config());
    let (victim, _) = readers
        .iter()
        .filter(|(_, r)| r.len() < w.queries.len())
        .max_by_key(|(_, r)| r.len())
        .expect("a relation read by some but not all queries");
    let spec = FaultPlan::new(7).outage(*victim, 0, None).build();
    let cfg = EngineConfig {
        faults: Some(FaultSpec::parse(&spec).expect("valid fault spec")),
        ..config()
    };
    let [_, got] = two_poses(&w, cfg);
    assert!(got.explored.iter().any(|&e| e > 1), "{:?}", got.explored);
    assert!(got.answers.iter().any(|(o, _)| !o.is_complete()));
    let mut complete = 0;
    for (i, ((outcome, digest), (_, want))) in got.answers.iter().zip(&want.answers).enumerate() {
        if outcome.is_complete() {
            complete += 1;
            assert_eq!(digest, want, "query {i} drifted");
        }
    }
    assert!(complete > 0, "every query degraded — vacuous comparison");
}

#[test]
fn repose_after_roots_were_evicted_searches() {
    let w = workload();
    let want = reference(&w);
    let cfg = EngineConfig {
        memory_budget: 64 << 10,
        ..config()
    };
    let [_, got] = two_poses(&w, cfg);
    assert!(got.explored.iter().any(|&e| e > 1), "{:?}", got.explored);
    assert_eq!(got.answers, want.answers);
}
