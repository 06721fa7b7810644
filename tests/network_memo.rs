//! An engine searches the schema graph once per keyword query and ranks the
//! networks afresh for every user who poses it (`qsys::query::NetworkMemo`).
//! A generation served from the memo must equal a fresh
//! `CandidateGenerator::generate` started from the same CQ counter: the
//! same `CqId`s, atoms, joins, order and score functions, and the same
//! counter advance. On the GUS scripts every query is first posed by
//! another user with other edge costs, so a memo that kept a user's scored
//! queries instead of the networks would hand back that user's scores.

use qsys::prelude::*;
use qsys::query::{CandidateConfig, CandidateGenerator, NetworkMemo, UserQuery};
use qsys::types::{QsysError, QsysResult, UqId, UserId};
use qsys_workload::gus::{self, GusConfig};

/// Everything a generation decides, for comparing two of them exactly.
fn fingerprint(result: &QsysResult<UserQuery>) -> impl PartialEq + std::fmt::Debug {
    result.as_ref().map_err(Clone::clone).map(|uq| {
        let cqs: Vec<_> = uq
            .cqs
            .iter()
            .map(|(cq, f)| {
                let (id, atoms, joins) = (cq.id, cq.atoms.clone(), cq.joins.clone());
                (id, cq.uq, cq.user, atoms, joins, f.exact_key())
            })
            .collect();
        (uq.id, uq.user, uq.keywords.clone(), cqs)
    })
}

/// The score functions alone, which is all another user's costs change.
fn score_keys(result: &QsysResult<UserQuery>) -> Option<Vec<impl PartialEq>> {
    let uq = result.as_ref().ok()?;
    Some(uq.cqs.iter().map(|(_, f)| f.exact_key()).collect())
}

#[test]
fn a_memo_hit_ranks_like_a_fresh_generation() {
    // Section 7's candidate settings, and a cap of 3 that truncates
    // nearly every query (the counter still advances past what it drops).
    let configs = [
        qsys_bench::gus_engine(SharingMode::AtcFull, 5).candidate,
        CandidateConfig {
            max_cqs: 3,
            ..CandidateConfig::default()
        },
    ];
    for seed in [41, 48, 55] {
        let w = qsys_bench::gus_workload(seed, qsys_bench::Scale::Small);
        for config in &configs {
            let generator = CandidateGenerator::new(&w.catalog, &w.index, config.clone());
            let mut memo = NetworkMemo::default();
            let mut next_cq = 0;
            let (mut hits, mut rescored) = (0, 0);
            for (i, q) in w.queries.iter().enumerate() {
                let other = &w.queries[(i + 1) % w.queries.len()];
                assert_ne!(other.edge_costs, q.edge_costs, "seed {seed}: query {i}");
                let first_user = UserId::new(q.user.index() as u32 + 1_000);
                let uq = |n: usize| UqId::new((2 * i + n) as u32);
                let first = memo.generate(
                    &generator,
                    &q.keywords,
                    uq(0),
                    first_user,
                    &mut next_cq,
                    other.edge_costs.as_ref(),
                );
                let start = next_cq;
                let hit = memo.generate(
                    &generator,
                    &q.keywords,
                    uq(1),
                    q.user,
                    &mut next_cq,
                    q.edge_costs.as_ref(),
                );
                let mut fresh_next = start;
                let fresh = generator.generate(
                    &q.keywords,
                    uq(1),
                    q.user,
                    &mut fresh_next,
                    q.edge_costs.as_ref(),
                );
                assert_eq!(fingerprint(&hit), fingerprint(&fresh), "seed {seed}: {q:?}");
                assert_eq!(next_cq, fresh_next, "seed {seed}: {q:?}");
                hits += usize::from(hit.is_ok());
                rescored += usize::from(score_keys(&first) != score_keys(&hit));
            }
            assert!(hits > 0, "seed {seed}: no query generated networks");
            // The check has teeth: the first user's costs score differently.
            assert!(rescored > 0, "seed {seed}: every rescoring was a no-op");
        }
    }
}

#[test]
fn a_query_that_matches_nothing_is_refused_alike_and_spends_a_uq_id() {
    let mut cfg = GusConfig::small(41);
    cfg.min_rows = 150;
    cfg.max_rows = 400;
    let w = gus::generate(&cfg);
    let mut engine = Engine::for_workload(&w, EngineConfig::default());
    let q = &w.queries[0];
    let mut session = engine.session(q.user);
    assert_eq!(session.submit(&q.keywords, 0).unwrap().id(), UqId::new(0));
    let unmatched = "frobnicate zyzzyva";
    let refusals: Vec<QsysError> = (0..2)
        .map(|_| session.submit(unmatched, 0).unwrap_err())
        .collect();
    assert!(matches!(refusals[0], QsysError::NoMatches(_)));
    assert_eq!(refusals[0], refusals[1]);
    // The same keywords, spelled apart: one search, each text kept.
    let respelled = q.keywords.to_uppercase().replace(' ', "  ");
    assert_eq!(session.submit(&respelled, 0).unwrap().id(), UqId::new(3));
    engine.run_until_idle();
    let report = engine.report();
    assert_eq!(report.skipped, [unmatched; 2]);
    let keywords: Vec<&str> = report.per_uq.iter().map(|u| u.keywords.as_str()).collect();
    assert_eq!(keywords, [q.keywords.as_str(), respelled.as_str()]);
    let cqs: Vec<usize> = report.per_uq.iter().map(|u| u.cqs_generated).collect();
    assert_eq!(cqs[0], cqs[1]);
}

#[test]
fn a_phrase_ranks_alike_however_its_whitespace_is_typed() {
    // A quoted phrase is trimmed and reads each whitespace run as one
    // space, so these spellings name one keyword query (GUS seed 54 once
    // refused all but the first): the same CQs, fresh or from the memo.
    let w = gus::generate(&GusConfig::small(54));
    let generator = CandidateGenerator::new(&w.catalog, &w.index, CandidateConfig::default());
    let mut memo = NetworkMemo::default();
    let spellings = [
        "'plasma membrane' metabolism",
        "'plasma  membrane' metabolism",
        "' plasma membrane' metabolism",
        "\"plasma membrane \" ' ' metabolism",
    ];
    let cqs = |result: &QsysResult<UserQuery>| {
        let uq = result.as_ref().expect("the phrase matches");
        let cqs = uq.cqs.iter();
        cqs.map(|(cq, f)| (cq.id, cq.atoms.clone(), cq.joins.clone(), f.exact_key()))
            .collect::<Vec<_>>()
    };
    let mut first = None;
    for keywords in spellings {
        let (mut fresh_next, mut memo_next) = (0, 0);
        let fresh = generator.generate(
            keywords,
            UqId::new(0),
            UserId::new(0),
            &mut fresh_next,
            None,
        );
        let hit = memo.generate(
            &generator,
            keywords,
            UqId::new(0),
            UserId::new(0),
            &mut memo_next,
            None,
        );
        assert_eq!(fingerprint(&hit), fingerprint(&fresh), "{keywords:?}");
        assert_eq!(memo_next, fresh_next);
        let first = first.get_or_insert_with(|| cqs(&fresh));
        assert!(!first.is_empty());
        assert_eq!(&cqs(&fresh), first, "{keywords:?}");
    }
}
