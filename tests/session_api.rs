//! Sessionized-API goldens: incremental admission must be a *scheduling*
//! freedom, never a semantic one.
//!
//! The same workload driven three ways — scripted (`run_workload`),
//! submit-all-then-run, and submit-one-step-one — must produce
//! bit-identical result tuples, scores, response times, and optimizer
//! decisions: admission windows seal at the same boundaries regardless of
//! when `step()` is called, and each lane's virtual clock and plan-graph
//! state evolve identically. Golden totals per GUS seed make a silent
//! workload re-shape fail loudly, and the acceptance matrix runs the whole
//! equivalence at `lane_threads` 1 and 4, and on one seed with faults
//! switched on.

use qsys::prelude::*;
use qsys::query::CandidateConfig;
use qsys::types::UqId;
use qsys_workload::gus::{self, GusConfig};
use qsys_workload::Workload;

mod common;
use common::Arm;

fn workload(seed: u64) -> Workload {
    let mut cfg = GusConfig::small(seed);
    cfg.min_rows = 150;
    cfg.max_rows = 400;
    cfg.user_queries = 10;
    gus::generate(&cfg)
}

fn engine_cfg(lane_threads: usize) -> EngineConfig {
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
        lane_threads,
        ..EngineConfig::default()
    }
}

/// How the driver interleaves submission and execution.
#[derive(Clone, Copy)]
enum Drive {
    /// Admit the whole script, then drain — the scripted driver's shape.
    SubmitAllThenRun,
    /// `step()` after every submission: batches execute the moment their
    /// admission window seals, interleaved with later submissions.
    SubmitOneStepOne,
}

/// Exact per-query answer fingerprint: every (score bits, join tuple).
type Fingerprint = Vec<(UqId, Vec<(u64, String)>)>;

fn run_session(w: &Workload, cfg: EngineConfig, drive: Drive) -> (RunReport, Fingerprint) {
    let mut engine = Engine::for_workload(w, cfg);
    let mut tickets: Vec<QueryTicket> = Vec::new();
    for q in &w.queries {
        let mut session = engine.session(q.user);
        if let Some(costs) = &q.edge_costs {
            session = session.with_edge_costs(costs.clone());
        }
        if let Ok(ticket) = session.submit(&q.keywords, q.arrival_us) {
            tickets.push(ticket);
        }
        if matches!(drive, Drive::SubmitOneStepOne) {
            engine.step();
        }
    }
    engine.run_until_idle();
    let fp: Fingerprint = tickets
        .iter()
        .map(|t| {
            assert_eq!(t.poll(), TicketStatus::Completed, "{:?} unfinished", t);
            let results = t
                .take_results()
                .expect("drained engine published results")
                .into_iter()
                .map(|(score, tuple)| (score.get().to_bits(), format!("{tuple:?}")))
                .collect();
            (t.id(), results)
        })
        .collect();
    (engine.report(), fp)
}

/// Every reported quantity except host wall times must match.
fn assert_reports_identical(a: &RunReport, b: &RunReport, label: &str) {
    assert_eq!(a.lanes, b.lanes, "{label}: lane count");
    assert_eq!(a.tuples_consumed, b.tuples_consumed, "{label}: tuples");
    assert_eq!(a.tuples_streamed, b.tuples_streamed, "{label}: streamed");
    assert_eq!(a.stream_rounds, b.stream_rounds, "{label}: rounds");
    assert_eq!(a.probes, b.probes, "{label}: probes");
    assert_eq!(a.breakdown, b.breakdown, "{label}: virtual time");
    assert_eq!(a.per_uq.len(), b.per_uq.len(), "{label}: UQ count");
    for (x, y) in a.per_uq.iter().zip(b.per_uq.iter()) {
        assert_eq!(x.uq, y.uq, "{label}");
        assert_eq!(x.user, y.user, "{label}: {} user", x.uq);
        assert_eq!(x.lane, y.lane, "{label}: {} lane", x.uq);
        assert_eq!(x.response_us, y.response_us, "{label}: {} response", x.uq);
        assert_eq!(x.results, y.results, "{label}: {} results", x.uq);
        assert_eq!(x.cqs_executed, y.cqs_executed, "{label}: {} CQs", x.uq);
        assert_eq!(x.reused_nodes, y.reused_nodes, "{label}: {} reuse", x.uq);
    }
    assert_eq!(a.opt_events.len(), b.opt_events.len(), "{label}: opt count");
    for (x, y) in a.opt_events.iter().zip(b.opt_events.iter()) {
        assert_eq!(x.batch_cqs, y.batch_cqs, "{label}: batch CQs");
        assert_eq!(x.candidates, y.candidates, "{label}: candidates");
        assert_eq!(x.explored, y.explored, "{label}: explored");
        assert_eq!(x.opt_us, y.opt_us, "{label}: opt cost");
    }
}

/// Drive `w` under `arm` three ways — scripted, submit-all-then-run and
/// submit-one-step-one — and check all three agree. Returns the
/// submit-all run.
fn drives_identical(w: &Workload, cfg: EngineConfig, arm: Arm, label: &str) -> RunReport {
    let cfg = arm.apply(cfg);
    let scripted = run_workload(w, &cfg, None).expect("workload runs");
    assert!(arm.engaged(&scripted), "{label}: the arm never engaged");
    let (all, fp_all) = run_session(w, cfg.clone(), Drive::SubmitAllThenRun);
    let (one, fp_one) = run_session(w, cfg, Drive::SubmitOneStepOne);
    assert_reports_identical(&scripted, &all, &format!("{label}: scripted vs all"));
    assert_reports_identical(&all, &one, &format!("{label}: all vs stepped"));
    assert_eq!(
        fp_all, fp_one,
        "{label}: interleaving changed an answer tuple or score"
    );
    all
}

#[test]
fn interleaved_submission_is_bit_identical_to_scripted_runs() {
    // Golden (tuples_consumed, total results) per seed: pinned so a
    // change that re-shapes the workload — while staying self-consistent
    // across drive modes — still fails loudly.
    let goldens = [(41u64, GOLDEN_41), (48, GOLDEN_48), (55, GOLDEN_55)];
    for (seed, (tuples, results)) in goldens {
        let w = workload(seed);
        for lane_threads in [1usize, 4] {
            let label = format!("seed {seed}, lane_threads {lane_threads}");
            let all = drives_identical(&w, engine_cfg(lane_threads), Arm::Plain, &label);
            assert_eq!(all.tuples_consumed, tuples, "{label}: golden tuples");
            let total: usize = all.per_uq.iter().map(|u| u.results).sum();
            assert_eq!(total, results, "{label}: golden result count");
        }
    }
    // Faults move tuples, so the chaos arm checks the identity only.
    let w = workload(41);
    drives_identical(&w, engine_cfg(4), Arm::Chaos, "seed 41, Chaos");
}

#[test]
fn tickets_report_lifecycle_and_windows_hold_until_sealed() {
    let w = workload(41);
    let mut engine = Engine::for_workload(&w, engine_cfg(1));
    // The script may contain un-connectable keyword queries (skipped, like
    // a service answering "no results"); drive with the ones that admit.
    let mut queries = w.queries.iter();
    let mut admit = |engine: &mut Engine| loop {
        let q = queries.next().expect("script has enough live queries");
        if let Ok(t) = engine.session(q.user).submit(&q.keywords, q.arrival_us) {
            return t;
        }
    };

    // Two submissions: below batch_size = 3, the window stays open and
    // step() must refuse to dispatch it.
    let t0 = admit(&mut engine);
    let t1 = admit(&mut engine);
    assert_eq!(t0.poll(), TicketStatus::Queued);
    assert_eq!(engine.pending(), 2);
    assert_eq!(engine.step(), 0, "an open window never dispatches");
    assert_eq!(t0.poll(), TicketStatus::Queued);
    // A queued query's slot is still owed to its batch: not forgettable.
    assert!(
        !engine.forget(t0.id()),
        "forget drops only resolved queries"
    );
    assert_eq!(engine.pending(), 2);

    // The third arrival seals the window; one step executes the batch.
    let t2 = admit(&mut engine);
    assert_eq!(engine.pending(), 3);
    assert_eq!(engine.step(), 1);
    assert!(engine.is_idle());
    for t in [&t0, &t1, &t2] {
        assert_eq!(t.poll(), TicketStatus::Completed);
        let report = t.report().expect("report published");
        assert!(report.response_us > 0, "{report:?}");
        assert_eq!(report.user, t.user());
    }
    let answers = t0.take_results().expect("results published");
    assert!(answers.len() <= engine.config().k);
    assert_eq!(t0.poll(), TicketStatus::Drained);
    assert!(t0.take_results().is_none(), "results are taken once");
    assert!(t0.report().is_some(), "the report remains readable");

    // Engine report: per-user and per-ticket accessors agree with per_uq.
    let report = engine.report();
    assert_eq!(report.per_uq.len(), 3);
    let line = report.per_ticket(&t1).expect("t1 ran");
    assert_eq!(line.uq, t1.id());
    assert_eq!(
        report.per_user(t1.user()).len(),
        report.per_uq.iter().filter(|u| u.user == t1.user()).count()
    );

    // Retention ack for long-lived services: a finished query's ledger
    // slot can be dropped once it has been observed.
    assert!(engine.forget(t0.id()));
    assert!(!engine.forget(t0.id()), "forget is idempotent");
    let report = engine.report();
    assert_eq!(report.per_uq.len(), 2);
    assert!(report.per_uq_id(t0.id()).is_none(), "forgotten for good");
}

#[test]
fn run_workload_limit_counts_admitted_queries() {
    // Seed 41's third script entry matches no candidate network: it
    // consumes a UqId and is reported as skipped, but does not count
    // towards the limit.
    let w = workload(41);
    let n = 4;
    let (uqs, skipped) = qsys::generate_user_queries(&w, &engine_cfg(1)).unwrap();
    let admitted: Vec<UqId> = uqs.iter().take(n).map(|uq| uq.id).collect();
    assert!(
        admitted[n - 1].index() >= n && !skipped.is_empty(),
        "an unmatched query sits among the first {n} that admit: {admitted:?}"
    );
    let scripted = run_workload(&w, &engine_cfg(1), Some(n)).expect("workload runs");

    // By hand: submit the script up to its n-th admitting entry, drain.
    let mut prefix = workload(41);
    prefix.queries.truncate(admitted[n - 1].index() + 1);
    let (by_hand, _) = run_session(&prefix, engine_cfg(1), Drive::SubmitAllThenRun);

    assert_reports_identical(&scripted, &by_hand, "limit vs submit-until-admitted");
    let ran: Vec<UqId> = scripted.per_uq.iter().map(|u| u.uq).collect();
    assert_eq!(ran, admitted, "the first {n} queries that admit, no others");
    assert_eq!(scripted.skipped, skipped);
    assert_eq!(by_hand.skipped, skipped);
}

#[test]
fn atc_cl_step_clusters_once_a_window_fills() {
    use qsys::opt::cluster::ClusterConfig;
    let w = workload(48);
    let mut cfg = engine_cfg(1);
    cfg.sharing = SharingMode::AtcCl(ClusterConfig { t_m: 1, t_c: 0.9 });
    let mut engine = Engine::for_workload(&w, cfg);

    // The plain submit/step service loop must not stall on ATC-CL's
    // deferred clustering: once a full window's worth (batch_size = 3)
    // of queries has accumulated, a step clusters and routes them.
    let mut submitted = 0;
    for q in &w.queries {
        if engine
            .session(q.user)
            .submit(&q.keywords, q.arrival_us)
            .is_ok()
        {
            submitted += 1;
        }
        engine.step();
        if submitted == 3 {
            break;
        }
    }
    assert!(
        engine.lanes() >= 1,
        "a full window's worth of arrivals clusters on step"
    );
    engine.run_until_idle();
    assert!(engine.is_idle());
    assert_eq!(engine.report().per_uq.len(), submitted);
}

#[test]
fn arrival_window_seals_partial_batches() {
    let w = workload(48);
    // Counts optimizer events as a proxy for sealed batches.
    let mut cfg = engine_cfg(1);
    cfg.batch_size = 100; // count-sealing out of the picture
    cfg.arrival_window_us = Some(1_000_000); // 1 virtual second
    let mut engine = Engine::for_workload(&w, cfg);
    let mut queries = w.queries.iter();
    let mut admit = |engine: &mut Engine, arrival: u64| loop {
        let q = queries.next().expect("script has enough live queries");
        if engine.session(q.user).submit(&q.keywords, arrival).is_ok() {
            return;
        }
    };

    admit(&mut engine, 0);
    admit(&mut engine, 400_000);
    assert_eq!(engine.step(), 0, "both inside the window");
    // 2.5 virtual seconds later: outside the window → the open batch
    // seals, the new arrival starts the next window.
    admit(&mut engine, 2_500_000);
    assert_eq!(engine.step(), 1, "the sealed 2-query batch dispatches");
    assert_eq!(engine.pending(), 1, "the late arrival waits in its window");
    engine.run_until_idle();
    assert!(engine.is_idle());
    let report = engine.report();
    assert_eq!(report.per_uq.len(), 3);
    assert_eq!(
        report.opt_events.len(),
        2,
        "two batches: the sealed window and the flushed remainder"
    );
}

#[test]
fn atc_cl_routes_late_arrivals_onto_live_lanes() {
    use qsys::opt::cluster::ClusterConfig;
    let w = workload(55);
    let mut cfg = engine_cfg(1);
    cfg.sharing = SharingMode::AtcCl(ClusterConfig { t_m: 1, t_c: 0.9 });
    let mut engine = Engine::for_workload(&w, cfg);

    // First half of the script: admitted unrouted, clustered at the first
    // drain (exactly what the scripted driver does with a full script).
    let mut tickets = Vec::new();
    for q in &w.queries[..5] {
        if let Ok(t) = engine.session(q.user).submit(&q.keywords, q.arrival_us) {
            tickets.push(t);
        }
    }
    assert_eq!(engine.lanes(), 0, "ATC-CL lanes wait for clustering");
    engine.run_until_idle();
    let lanes_after_cluster = engine.lanes();
    assert!(lanes_after_cluster >= 1);

    // Second half arrives after the service is live: routed incrementally
    // onto existing lanes (or fresh ones), never re-clustered.
    for q in &w.queries[5..] {
        if let Ok(t) = engine.session(q.user).submit(&q.keywords, q.arrival_us) {
            tickets.push(t);
        }
        engine.step();
    }
    engine.run_until_idle();
    assert!(engine.is_idle());
    assert!(engine.lanes() >= lanes_after_cluster);
    let report = engine.report();
    assert_eq!(report.per_uq.len(), tickets.len());
    for t in &tickets {
        assert_eq!(t.poll(), TicketStatus::Completed, "{t:?}");
        let line = report.per_ticket(t).expect("served");
        assert!(line.lane < engine.lanes(), "{line:?}");
        assert!(line.response_us > 0, "{line:?}");
    }
}

// Golden totals (tuples_consumed, Σ results) — captured from the scripted
// driver at the pinned seeds; all three drive modes must reproduce them.
// The tuples were 3,233, 4,967 and 4,604 until each user query of a batch
// was planned alone; the result counts held.
const GOLDEN_41: (u64, usize) = (3128, 90);
const GOLDEN_48: (u64, usize) = (4395, 80);
const GOLDEN_55: (u64, usize) = (4758, 91);
