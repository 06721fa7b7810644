//! What the integration suites share: the session-driven run that
//! fingerprints every ticket (`chaos`); the one-query `search`
//! (`state_reuse`, `pfam_integration`); and the feature arms an identity
//! must also hold under (`parallel_identity`, `session_api`).

// Each suite is its own crate and uses its own subset.
#![allow(dead_code)]

use qsys::prelude::*;
use qsys::source::FaultSpec;
use qsys::types::{QsysResult, UqId};
use qsys_workload::Workload;
use std::collections::{BTreeMap, BTreeSet};

/// One feature switched on over a suite's own engine. An identity between
/// two runs of the plain engine (two thread counts, two drive shapes) must
/// hold between the same two runs under each arm: the fault injector is
/// seeded per lane index. Goldens are recorded on [`Arm::Plain`] only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arm {
    /// The suite's engine as it is.
    Plain,
    /// Seeded transient fetch errors and slow rounds, no outages or
    /// panics: the retry path absorbs every error.
    Chaos,
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
        }
    }

    /// Whether a run under this arm shows its feature at work, so an arm
    /// that silently did nothing cannot pass as an identity.
    pub fn engaged(self, report: &RunReport) -> bool {
        match self {
            Arm::Plain => true,
            Arm::Chaos => report.faults.source.transient_errors > 0,
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
/// arrive in a different order (a fault schedule), and no suite here
/// pins tie order.
pub type Outcomes = BTreeMap<UqId, (QueryOutcome, Vec<(u64, String)>)>;

/// Submit `w`'s whole script (each user's learned edge costs attached),
/// drain the engine, and fingerprint every ticket.
pub fn run(w: &Workload, cfg: EngineConfig) -> (RunReport, Outcomes) {
    let mut engine = Engine::for_workload(w, cfg);
    let tickets = engine.submit_script(w).expect("the config is valid");
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
