//! What the integration suites share: the session-driven run that
//! fingerprints every ticket and the tie-aware equivalence an arm's
//! answers owe the baseline's when only a physical decision changed
//! (`chaos`, `adaptive_identity`); the one-query
//! `search` (`state_reuse`, `pfam_integration`); and the feature arms an
//! identity must also hold under (`parallel_identity`, `session_api`).

// Each suite is its own crate and uses its own subset.
#![allow(dead_code)]

use qsys::opt::AdaptiveConfig;
use qsys::prelude::*;
use qsys::source::FaultSpec;
use qsys::types::{QsysResult, UqId};
use qsys_workload::Workload;
use std::collections::{BTreeMap, BTreeSet};

/// One feature switched on over a suite's own engine. An identity between
/// two runs of the plain engine (two thread counts, two drive shapes) must
/// hold between the same two runs under each arm: the fault injector is
/// seeded per lane index, and re-plans follow statistics that identical
/// batches observe identically. Goldens are recorded on [`Arm::Plain`]
/// only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arm {
    /// The suite's engine as it is.
    Plain,
    /// Seeded transient fetch errors and slow rounds, no outages or
    /// panics: the retry path absorbs every error.
    Chaos,
    /// Mid-batch re-planning at a drift ratio low enough that it fires.
    Adaptive,
}

impl Arm {
    /// `cfg` with this arm's feature on.
    pub fn apply(self, cfg: EngineConfig) -> EngineConfig {
        match self {
            Arm::Plain => cfg,
            Arm::Chaos => EngineConfig {
                faults: Some(
                    FaultSpec::parse("seed=1009; transient=0.02; slow=0.05x4")
                        .expect("a valid fault schedule"),
                ),
                ..cfg
            },
            Arm::Adaptive => EngineConfig {
                adaptive: AdaptiveConfig::at(1.25),
                ..cfg
            },
        }
    }

    /// Whether a run under this arm shows its feature at work, so an arm
    /// that silently did nothing cannot pass as an identity.
    pub fn engaged(self, report: &RunReport) -> bool {
        match self {
            Arm::Plain => true,
            Arm::Chaos => report.faults.source.transient_errors > 0,
            Arm::Adaptive => report.adaptive.replans > 0,
        }
    }
}

/// Pose one keyword query and run it to completion, reusing whatever
/// state earlier searches left in the engine: its report line and its
/// ranked answers, best first.
pub fn search(
    engine: &mut Engine,
    keywords: &str,
    user: UserId,
) -> QsysResult<(UqReport, Vec<(Score, Tuple)>)> {
    let ticket = engine.session(user).submit_now(keywords)?;
    engine.run_until_idle();
    let report = ticket
        .report()
        .expect("a drained engine resolved the ticket");
    Ok((report, ticket.take_results().unwrap_or_default()))
}

/// Per-query outcome + answer multiset (score bits, tuple text), sorted:
/// equality means identical *multisets*. Equal-score ties may legitimately
/// arrive in a different order (a mid-batch re-plan, a fault schedule),
/// and no suite here pins tie order.
pub type Outcomes = BTreeMap<UqId, (QueryOutcome, Vec<(u64, String)>)>;

/// Submit `w`'s whole script (each user's learned edge costs attached),
/// drain the engine, and fingerprint every ticket.
pub fn run(w: &Workload, cfg: EngineConfig) -> (RunReport, Outcomes) {
    let mut engine = Engine::for_workload(w, cfg);
    let tickets = engine.submit_script(w);
    engine.run_until_idle();
    let outcomes = tickets
        .iter()
        .map(|t| {
            let outcome = t.outcome().expect("drained engine resolved every ticket");
            let mut tuples: Vec<(u64, String)> = t
                .take_results()
                .unwrap_or_default()
                .into_iter()
                .map(|(score, tuple)| (score.get().to_bits(), format!("{tuple:?}")))
                .collect();
            tuples.sort_unstable();
            (t.id(), (outcome, tuples))
        })
        .collect();
    (engine.report(), outcomes)
}

/// Which user queries read each relation (streamed or probed), from the
/// candidate networks `cfg` generates — the ground truth for "reader of".
pub fn rel_readers(w: &Workload, cfg: &EngineConfig) -> BTreeMap<u32, BTreeSet<UqId>> {
    let (uqs, _) = qsys::generate_user_queries(w, cfg).expect("workload generates");
    let mut readers: BTreeMap<u32, BTreeSet<UqId>> = BTreeMap::new();
    for uq in &uqs {
        for (cq, _) in &uq.cqs {
            for rel in cq.rels() {
                readers.entry(rel.0).or_default().insert(uq.id);
            }
        }
    }
    readers
}

/// Tie-aware answer equivalence: score multisets bit-identical, and every
/// tuple scored strictly above the minimum returned score identical.
/// Tuples *at* the boundary score only need matching counts — when more
/// candidates tie at the top-k cut than fit, which tied tuples are kept
/// legitimately depends on lane composition and read order.
pub fn answers_equivalent(want: &[(u64, String)], got: &[(u64, String)]) -> bool {
    if want.len() != got.len() {
        return false;
    }
    let scores = |v: &[(u64, String)]| {
        let mut s: Vec<u64> = v.iter().map(|(b, _)| *b).collect();
        s.sort_unstable();
        s
    };
    if scores(want) != scores(got) {
        return false;
    }
    let boundary = want
        .iter()
        .map(|(b, _)| f64::from_bits(*b))
        .fold(f64::INFINITY, f64::min);
    fn above(v: &[(u64, String)], boundary: f64) -> Vec<&(u64, String)> {
        let mut s: Vec<&(u64, String)> = v
            .iter()
            .filter(|(b, _)| f64::from_bits(*b) > boundary)
            .collect();
        s.sort();
        s
    }
    above(want, boundary) == above(got, boundary)
}

/// Every query resolved with the baseline's outcome and an
/// [`answers_equivalent`] answer.
pub fn assert_equivalent(base: &Outcomes, arm: &Outcomes, context: &str) {
    assert_eq!(base.len(), arm.len(), "{context}: ticket count");
    for (uq, want) in base {
        let got = &arm[uq];
        assert_eq!(want.0, got.0, "{context}: outcome of {uq:?}");
        assert!(
            answers_equivalent(&want.1, &got.1),
            "{context}: answer multiset of {uq:?} diverged \
             ({} vs {} answers)",
            want.1.len(),
            got.1.len(),
        );
    }
}

/// The outage victim of the blame tests: the most-read relation that still
/// has non-readers (lowest id on ties), so the outage both bites and leaves
/// bystanders to check — with the queries that read it.
pub fn outage_victim(w: &Workload, cfg: &EngineConfig) -> (u32, BTreeSet<UqId>) {
    let readers = rel_readers(w, cfg);
    // Every generated query reads something; skipped ones read nothing.
    let total = readers.values().flatten().collect::<BTreeSet<_>>().len();
    readers
        .into_iter()
        .filter(|(_, r)| r.len() < total)
        .max_by_key(|(rel, r)| (r.len(), std::cmp::Reverse(*rel)))
        .expect("a relation read by some but not all queries")
}

/// Two runs under the same hard outage of `victim`, differing in one
/// physical decision, keep degradation strictly per-query: each degrades at
/// least one query, a degraded query blames exactly the outaged relation in
/// either run, a query that never reads it is untouched (Complete, same
/// outcome), and a query Complete in both runs answers equivalently.
/// Whether a *reader* degrades at all is legitimately schedule-dependent —
/// the source-layer contract lets a reader complete untouched when the ATC
/// never needed the lost source, and the physical decision moves schedules.
pub fn assert_blames_same_relations(
    base: &Outcomes,
    arm: &Outcomes,
    victim: u32,
    victim_readers: &BTreeSet<UqId>,
) {
    for outcomes in [base, arm] {
        assert!(
            outcomes
                .values()
                .any(|(o, _)| matches!(o, QueryOutcome::Degraded { .. })),
            "outage must degrade at least one query in each run"
        );
    }
    for (uq, (want_outcome, want_answers)) in base {
        let (got_outcome, got_answers) = &arm[uq];
        for outcome in [want_outcome, got_outcome] {
            if let QueryOutcome::Degraded { missing_rels } = outcome {
                let blamed: BTreeSet<u32> = missing_rels.iter().map(|r| r.0).collect();
                assert_eq!(
                    blamed,
                    BTreeSet::from([victim]),
                    "degraded {uq:?} must blame exactly the outaged relation"
                );
            }
        }
        if !victim_readers.contains(uq) {
            assert_eq!(want_outcome, got_outcome, "non-reader {uq:?} outcome");
            assert!(
                want_outcome.is_complete(),
                "non-reader {uq:?} must complete"
            );
        }
        if want_outcome.is_complete() && got_outcome.is_complete() {
            assert!(
                answers_equivalent(want_answers, got_answers),
                "chaos: answer multiset of {uq:?} diverged"
            );
        }
    }
}
