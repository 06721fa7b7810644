//! A re-posed user query skips the push-down search only when every one of
//! its conjunctive queries is resident whole (`Optimizer::optimize`), and
//! publishes its retained top-k only while every root is resident and no
//! quarantined stream feeds it (`qsys_exec::state`). Here a root stops
//! being mergeable in the two ways the engine has: a fault schedule
//! quarantined a stream leaf below it (the reuse oracle never advertises
//! quarantined state), or a memory budget evicted it. A user query meeting
//! either searches again and runs instead of publishing, and every query
//! that completes answers what the unbudgeted, fault-free re-pose answers.
//! A batch of re-poses only is sealed at admission, unplanned; one that
//! mixes a re-pose with a new query is planned, and graft publishes the
//! re-pose's answer.

use qsys::opt::Optimizer;
use qsys::prelude::*;
use qsys::query::CandidateConfig;
use qsys::source::FaultSpec;
use qsys::types::clock::OPT_STEP_US;
use qsys_workload::gus::{self, GusConfig};
use qsys_workload::{Workload, WorkloadQuery};

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
/// query's outcome with an FNV-1a digest of its ascending score bits, and
/// whether it published a retained answer.
#[derive(Default)]
struct Pose {
    explored: Vec<usize>,
    answers: Vec<(QueryOutcome, u64)>,
    sealed: Vec<bool>,
}

/// Run `window` on `engine` as one batch, and append what it did to `pose`.
fn pose_batch(engine: &mut Engine, window: &[&WorkloadQuery], pose: &mut Pose) {
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
        let report = t.report().expect("report published");
        pose.sealed.push(report.sealed);
        let outcome = report.outcome;
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

/// Pose `w`'s script twice on one engine, five queries a batch.
fn two_poses(w: &Workload, cfg: EngineConfig) -> [Pose; 2] {
    let mut engine = Engine::for_workload(w, cfg);
    let script: Vec<&WorkloadQuery> = w.queries.iter().collect();
    [(); 2].map(|()| {
        let mut pose = Pose::default();
        for window in script.chunks(5) {
            pose_batch(&mut engine, window, &mut pose);
        }
        pose
    })
}

/// The reference: on the fault-free, unbudgeted engine every re-posed
/// user query is resident whole, explores its one default state, five a
/// batch, and publishes its retained answer.
fn reference(w: &Workload) -> Pose {
    let [_, repose] = two_poses(w, config());
    assert_eq!(repose.explored, [5, 5]);
    assert!(repose.answers.iter().all(|(o, _)| o.is_complete()));
    assert!(repose.sealed.iter().all(|&s| s));
    repose
}

/// Whether some batch of `got` explored more than its default states.
fn searched(got: &Pose, want: &Pose) -> bool {
    got.explored.iter().zip(&want.explored).any(|(g, w)| g > w)
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
    let cfg = EngineConfig {
        faults: Some(FaultSpec::new(7).outage(*victim, 0, None)),
        ..config()
    };
    let [_, got] = two_poses(&w, cfg);
    assert!(searched(&got, &want), "{:?}", got.explored);
    assert!(got.answers.iter().any(|(o, _)| !o.is_complete()));
    let mut complete = 0;
    for (i, ((outcome, digest), (_, want))) in got.answers.iter().zip(&want.answers).enumerate() {
        if outcome.is_complete() {
            complete += 1;
            assert_eq!(digest, want, "query {i} drifted");
        }
    }
    assert!(complete > 0, "every query degraded — vacuous comparison");
    // Queries whose roots the outage never reached publish their
    // retained answers; the rest run again.
    assert!(got.sealed.iter().any(|&s| s) && !got.sealed.iter().all(|&s| s));
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
    assert!(searched(&got, &want), "{:?}", got.explored);
    assert!(
        !got.sealed.iter().any(|&s| s),
        "the budget evicted every answer"
    );
    assert_eq!(got.answers, want.answers);
}

/// A batch that mixes a re-pose with a query never asked is planned: the
/// optimizer searches the new query's push-downs, and graft publishes the
/// re-pose's retained answer, the one its first pose found. A batch of
/// re-poses only is answered at admission, unplanned, and its optimizer
/// event is the closed form of the search it skips (one default state a
/// query, no candidate, the optimizer step's charge for each state).
#[test]
fn a_mixed_batch_is_planned_and_an_all_sealed_one_is_not() {
    let w = workload();
    let mut engine = Engine::for_workload(&w, config());
    let queries: Vec<&WorkloadQuery> = w.queries.iter().collect();
    let (script, fresh) = queries.split_at(queries.len() - 1);
    let mut first = Pose::default();
    for window in script.chunks(5) {
        pose_batch(&mut engine, window, &mut first);
    }

    let mut mixed = Pose::default();
    pose_batch(&mut engine, &[script[0], fresh[0]], &mut mixed);
    assert!(mixed.explored[0] > 2, "{:?}", mixed.explored);
    assert_eq!(mixed.sealed, [true, false]);
    assert_eq!(mixed.answers[0], first.answers[0]);

    let window = &script[5..];
    let mut sealed = Pose::default();
    pose_batch(&mut engine, window, &mut sealed);
    assert!(sealed.sealed.iter().all(|&s| s));
    assert_eq!(sealed.answers, first.answers[5..]);
    let report = engine.report();
    let event = report.opt_events.last().expect("an event a batch");
    let closed = Optimizer::all_resident(window.len(), None);
    assert_eq!(sealed.explored, [closed.explored]);
    let cqs: usize = report.per_uq[report.per_uq.len() - window.len()..]
        .iter()
        .map(|uq| uq.cqs_generated)
        .sum();
    assert_eq!(
        (
            event.batch_cqs,
            event.candidates,
            event.explored,
            event.opt_us
        ),
        (
            cqs,
            closed.candidates,
            closed.explored,
            closed.explored as u64 * OPT_STEP_US
        )
    );
}
