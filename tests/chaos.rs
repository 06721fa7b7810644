//! Chaos acceptance tests for the fault-tolerant source layer.
//!
//! The contract under a deterministic fault schedule:
//!
//! - queries reading no faulted relation produce **bit-identical** tuples
//!   to the fault-free run — degradation is strictly per-query;
//! - queries reading a relation lost to a hard outage resolve as
//!   `Degraded { missing_rels }` (or complete untouched if the ATC never
//!   needed that source);
//! - a lane panic poisons only that lane: its tickets resolve as
//!   `Failed`, the engine keeps stepping, and other lanes keep serving;
//! - cancellation and deadlines resolve tickets without (or despite)
//!   execution, leaving batch peers untouched.
//!
//! All schedules here are seeded, so every run of this file sees the same
//! faults at the same virtual times.

use proptest::prelude::*;
use qsys::opt::cluster::ClusterConfig;
use qsys::prelude::*;
use qsys::query::CandidateConfig;
use qsys::source::FaultSpec;
use qsys::types::UqId;
use qsys_workload::faults::FaultPlan;
use qsys_workload::gus::{self, GusConfig};
use qsys_workload::Workload;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

mod common;
use common::{run, Outcomes};

fn workload() -> Workload {
    let mut cfg = GusConfig::small(41);
    cfg.min_rows = 150;
    cfg.max_rows = 400;
    cfg.user_queries = 10;
    gus::generate(&cfg)
}

fn engine_cfg(faults: Option<&str>) -> EngineConfig {
    EngineConfig {
        k: 10,
        batch_size: 3,
        sharing: SharingMode::AtcFull,
        candidate: CandidateConfig {
            max_cqs: 6,
            max_atoms: 5,
            matches_per_keyword: 2,
            ..CandidateConfig::default()
        },
        lane_threads: 1,
        faults: faults.map(|s| FaultSpec::parse(s).expect("valid fault spec")),
        ..EngineConfig::default()
    }
}

/// Which user queries read each relation, under this file's engine.
fn rel_readers(w: &Workload) -> BTreeMap<u32, BTreeSet<UqId>> {
    common::rel_readers(w, &engine_cfg(None))
}

/// Fault-free baseline, computed once for the whole file.
fn baseline() -> &'static (RunReport, Outcomes) {
    static BASE: OnceLock<(RunReport, Outcomes)> = OnceLock::new();
    BASE.get_or_init(|| {
        let w = workload();
        let out = run(&w, engine_cfg(None));
        assert!(
            out.1.values().all(|(o, _)| o.is_complete()),
            "fault-free run must be all-Complete"
        );
        assert!(!out.0.faults.any(), "fault-free run reports no faults");
        out
    })
}

#[test]
fn faults_default_off() {
    assert!(EngineConfig::default().faults.is_none());
    assert!(engine_cfg(None).faults.is_none());
}

/// ISSUE acceptance: under a seeded hard outage of one relation, every
/// ticket not reading it completes with tuples identical to the clean run.
#[test]
fn hard_outage_degrades_only_readers() {
    let w = workload();
    let (_, base) = baseline();
    let readers = rel_readers(&w);
    let total = base.len();
    // The most-read relation that some queries still avoid: guaranteed to
    // be fetched (so the outage actually fires) while leaving bystanders.
    let (victim, victim_readers) = readers
        .iter()
        .filter(|(_, r)| r.len() < total)
        .max_by_key(|(_, r)| r.len())
        .map(|(rel, r)| (*rel, r.clone()))
        .expect("a relation read by some but not all queries");

    let spec = FaultPlan::new(7).outage(victim, 0, None).build();
    let (report, faulted) = run(&w, engine_cfg(Some(&spec)));

    assert!(
        report.faults.source.outage_errors > 0,
        "the outage was never hit: {:?}",
        report.faults
    );
    let mut degraded = 0;
    for (uq, (outcome, tuples)) in &faulted {
        let (_, base_tuples) = &base[uq];
        if victim_readers.contains(uq) {
            match outcome {
                QueryOutcome::Complete => {
                    // The ATC never needed the dead source for this query.
                    assert_eq!(tuples, base_tuples, "{uq}: untouched reader drifted");
                }
                QueryOutcome::Degraded { missing_rels } => {
                    degraded += 1;
                    assert!(
                        missing_rels.iter().any(|r| r.0 == victim),
                        "{uq}: degraded without naming rel{victim}: {missing_rels:?}"
                    );
                }
                other => panic!("{uq}: unexpected outcome {other:?}"),
            }
        } else {
            assert_eq!(
                outcome,
                &QueryOutcome::Complete,
                "{uq} reads no faulted relation"
            );
            assert_eq!(tuples, base_tuples, "{uq}: non-reader tuples drifted");
        }
    }
    assert!(degraded > 0, "no query was degraded — vacuous outage");
    assert_eq!(report.faults.degraded, degraded);
}

/// A panicking lane poisons only its own tickets; the engine survives and
/// the remaining lanes keep serving to completion.
#[test]
fn lane_panic_is_contained() {
    let w = workload();
    let readers = rel_readers(&w);
    let total = baseline().1.len();
    let (victim, _) = readers
        .iter()
        .filter(|(_, r)| r.len() < total)
        .max_by_key(|(_, r)| r.len())
        .map(|(rel, r)| (*rel, r.clone()))
        .expect("a relation read by some but not all queries");
    let spec = FaultPlan::new(3).panic_on(victim).build();
    let cfg = EngineConfig {
        // Clustered lanes so the blast radius is visible: the paper's
        // ATC-CL setup from the parallel-identity goldens (2 lanes).
        sharing: SharingMode::AtcCl(ClusterConfig { t_m: 1, t_c: 0.9 }),
        lane_threads: 4,
        ..engine_cfg(Some(&spec))
    };
    let (report, outcomes) = run(&w, cfg);

    let failed: Vec<_> = outcomes
        .iter()
        .filter(|(_, (o, _))| matches!(o, QueryOutcome::Failed { .. }))
        .map(|(uq, _)| *uq)
        .collect();
    assert!(!failed.is_empty(), "the panic hook never fired");
    assert_eq!(report.faults.failed, failed.len());
    // Failed tickets carry the panic reason and no results.
    for uq in &failed {
        let (outcome, tuples) = &outcomes[uq];
        assert!(tuples.is_empty(), "{uq}: failed ticket kept results");
        if let QueryOutcome::Failed { reason } = outcome {
            assert!(!reason.is_empty(), "{uq}: empty failure reason");
        }
    }
    // Containment: lanes without the poisoned relation finished their
    // queries normally — the engine did not die with the lane.
    if failed.len() < outcomes.len() {
        assert!(
            outcomes.values().any(|(o, _)| *o == QueryOutcome::Complete),
            "surviving lanes should have completed their queries"
        );
    }
}

/// A ticket resolves exactly once: a member cancelled before dispatch stays
/// `Cancelled` when its lane panics under the batch, and so does one
/// cancelled in a later batch on the poisoned lane.
#[test]
fn cancelled_members_stay_cancelled_when_their_lane_panics() {
    let w = workload();
    // The relation most of the first member's candidate networks read —
    // fetched the moment its best CQ runs, so the hook is sure to fire.
    let (uqs, _) = qsys::generate_user_queries(&w, &engine_cfg(None)).unwrap();
    let mut reads: BTreeMap<u32, usize> = BTreeMap::new();
    for rel in uqs[0].cqs.iter().flat_map(|(cq, _)| cq.rels()) {
        *reads.entry(rel.0).or_default() += 1;
    }
    let (victim, _) = reads
        .into_iter()
        .max_by_key(|(rel, n)| (*n, std::cmp::Reverse(*rel)))
        .expect("the first member reads something");
    let spec = FaultPlan::new(3).panic_on(victim).build();

    let mut engine = Engine::for_workload(&w, engine_cfg(Some(&spec)));
    let mut script = w.queries.iter();
    let mut admit = |engine: &mut Engine| loop {
        let q = script.next().expect("script has enough live queries");
        let costs = q.edge_costs.clone().unwrap_or_default();
        let mut session = engine.session(q.user).with_edge_costs(costs);
        if let Ok(t) = session.submit(&q.keywords, 0) {
            return t;
        }
    };
    // Every ticket carries one outcome, and the report counts those.
    let check = |engine: &Engine, tickets: &[QueryTicket], cancelled: &[&QueryTicket]| {
        let report = engine.report();
        for t in tickets {
            let outcome = t.outcome().expect("a drained engine resolved the ticket");
            assert_eq!(report.per_ticket(t).map(|l| &l.outcome), Some(&outcome));
            assert!(t.take_results().is_none(), "{t:?} never ran");
            if cancelled.iter().any(|c| c.id() == t.id()) {
                assert_eq!(outcome, QueryOutcome::Cancelled, "{t:?}");
            } else {
                assert!(matches!(outcome, QueryOutcome::Failed { .. }), "{t:?}");
            }
        }
        assert_eq!(report.per_uq.len(), tickets.len(), "one line per ticket");
        assert_eq!(report.faults.cancelled, cancelled.len());
        assert_eq!(report.faults.failed, tickets.len() - cancelled.len());
    };

    // One full batch (batch_size 3), its middle member cancelled: the
    // first member's fetch panics the lane under the other two.
    let mut tickets: Vec<QueryTicket> = (0..3).map(|_| admit(&mut engine)).collect();
    assert!(engine.cancel(tickets[1].id()));
    engine.run_until_idle();
    assert_eq!(engine.poisoned_lanes(), 1, "the panic hook never fired");
    check(&engine, &tickets, &[&tickets[1]]);

    // The poisoned lane fails its later batches fast — except a member
    // that was cancelled, which resolves as on a healthy lane.
    tickets.extend((0..2).map(|_| admit(&mut engine)));
    assert!(engine.cancel(tickets[3].id()));
    engine.run_until_idle();
    check(&engine, &tickets, &[&tickets[1], &tickets[3]]);
}

/// Cancellation and deadlines: resolved without execution (or despite it),
/// batch peers untouched.
#[test]
fn cancel_and_deadline_resolve_tickets() {
    let w = workload();
    let (_, base) = baseline();
    // Not every script query matches a candidate network; work with the
    // first three that do (their UqIds are their script indices).
    let (uqs, _) = qsys::generate_user_queries(&w, &engine_cfg(None)).unwrap();
    let sub: Vec<usize> = uqs.iter().take(3).map(|u| u.id.0 as usize).collect();
    assert_eq!(sub.len(), 3, "need three submittable script queries");
    let q = |i: usize| &w.queries[sub[i]];

    let mut engine = Engine::for_workload(&w, engine_cfg(None));
    // First batch (batch_size 3): keep q0, expire q1 at dispatch, cancel q2.
    let t0 = engine.session(q(0).user).submit(&q(0).keywords, 0).unwrap();
    let t1 = engine
        .session(q(1).user)
        .submit_with_deadline(&q(1).keywords, 0, 0)
        .unwrap();
    let t2 = engine.session(q(2).user).submit(&q(2).keywords, 0).unwrap();
    assert!(engine.cancel(t2.id()), "first cancel succeeds");
    assert!(!engine.cancel(t2.id()), "second cancel is a no-op");
    engine.run_until_idle();

    assert_eq!(t1.outcome(), Some(QueryOutcome::DeadlineExceeded));
    assert!(t1.take_results().is_none(), "expired member never ran");
    assert_eq!(t2.outcome(), Some(QueryOutcome::Cancelled));
    assert!(t2.take_results().is_none(), "cancelled member never ran");
    assert!(!engine.cancel(t0.id()), "cannot cancel a completed query");

    // The survivor ran alone but still answers; a forgotten slot reclaims.
    assert_eq!(t0.outcome(), Some(QueryOutcome::Complete));
    assert!(t0.take_results().is_some());
    let report = engine.report();
    assert_eq!(report.faults.cancelled, 1);
    assert_eq!(report.faults.deadline_exceeded, 1);
    assert!(engine.forget(t2.id()));
    assert!(!engine.forget(t2.id()));

    // A deadline that passes *during* execution: results are retained —
    // the answer is late, not wrong.
    // Attempt every script query in order (failed attempts still consume a
    // UqId, keeping ticket ids aligned with the baseline's script indices)
    // until one full batch of three is admitted.
    let mut engine = Engine::for_workload(&w, engine_cfg(None));
    let mut tickets = Vec::new();
    for q in &w.queries {
        // The baseline poses each query under its user's learned costs.
        let costs = q.edge_costs.clone().unwrap_or_default();
        let mut session = engine.session(q.user).with_edge_costs(costs);
        if let Ok(t) = session.submit_with_deadline(&q.keywords, 0, 1) {
            tickets.push(t);
        }
        if tickets.len() == 3 {
            break;
        }
    }
    engine.run_until_idle();
    for t in &tickets {
        assert_eq!(t.outcome(), Some(QueryOutcome::DeadlineExceeded));
        let mut tuples: Vec<(u64, String)> = t
            .take_results()
            .expect("late results are retained")
            .into_iter()
            .map(|(s, tu)| (s.get().to_bits(), format!("{tu:?}")))
            .collect();
        tuples.sort_unstable();
        assert_eq!(tuples, base[&t.id()].1, "late answers match the clean run");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Chaos invariant: whatever seeded transient/slow faults hit one
    /// relation, queries reading other relations deliver bit-identical
    /// tuple sets, and faulted readers either match the clean run (retries
    /// absorbed every error) or degrade naming the faulted relation.
    #[test]
    fn unfaulted_relations_are_bit_identical(
        victim_pick in 0usize..16,
        rate_decile in 3u32..10,
        slow_pick in 0u32..2,
        fault_seed in 1u64..1024,
    ) {
        let w = workload();
        let (_, base) = baseline();
        let readers = rel_readers(&w);
        let rels: Vec<u32> = readers.keys().copied().collect();
        let victim = rels[victim_pick % rels.len()];
        let victim_readers = &readers[&victim];
        let rate = rate_decile as f64 / 10.0;
        let mut plan = FaultPlan::new(fault_seed).rel_transient(victim, rate);
        if slow_pick == 1 {
            plan = plan.slow(victim, 0.5, 8.0);
        }
        let spec = plan.build();
        let (_, faulted) = run(&w, engine_cfg(Some(&spec)));
        for (uq, (outcome, tuples)) in &faulted {
            let (_, base_tuples) = &base[uq];
            if victim_readers.contains(uq) {
                match outcome {
                    QueryOutcome::Complete => prop_assert_eq!(tuples, base_tuples),
                    QueryOutcome::Degraded { missing_rels } => {
                        prop_assert!(missing_rels.iter().any(|r| r.0 == victim));
                    }
                    other => prop_assert!(false, "{}: unexpected {:?}", uq, other),
                }
            } else {
                prop_assert_eq!(outcome, &QueryOutcome::Complete, "{} drifted", uq);
                prop_assert_eq!(tuples, base_tuples, "{}: tuples drifted", uq);
            }
        }
    }
}
