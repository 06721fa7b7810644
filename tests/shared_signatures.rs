//! A conjunctive query's whole-query signature is built once per candidate
//! network (`ConjunctiveQuery::whole_sig`) and shared by every query ranked
//! from that network; a lane's interner stores that handle itself and
//! finds it by cached hash, then address. These tests hold that path to a
//! fresh deep build of each signature, the way every lookup went before.
//!
//! The lanes are built as the engine builds them: the GUS seed-41, 48 and
//! 55 scripts are ranked through one `NetworkMemo`, split into lanes (one
//! under ATC-FULL; `cluster_user_queries`' clusters under ATC-CL, run on
//! two threads), and each lane's batches of five are optimized on its own
//! interner. The script is posed three times: once, again after the memo
//! has emptied at its cap (so every network is regenerated under a new
//! handle), and again from the regenerated networks.

use qsys::opt::{cluster_user_queries, ClusterConfig, NoReuse, Optimizer, OptimizerConfig};
use qsys::query::{
    CandidateGenerator, ConjunctiveQuery, NetworkMemo, ScoreFn, SigCell, SigInterner, SubExprSig,
    UserQuery,
};
use qsys::types::{RelId, UqId};
use qsys::SharingMode;
use qsys_bench::{gus_engine, gus_workload, Scale};
use qsys_workload::Workload;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Every distinct keyword of the script, in first-seen order.
fn keywords_of(w: &Workload) -> Vec<String> {
    let mut terms: Vec<String> = Vec::new();
    for q in &w.queries {
        for t in qsys::catalog::KeywordIndex::tokenize(&q.keywords) {
            if !terms.contains(&t) {
                terms.push(t);
            }
        }
    }
    terms
}

/// A keyword query of `terms`, phrases quoted.
fn query_of(terms: &[&String]) -> String {
    let quoted: Vec<String> = terms
        .iter()
        .map(|t| match t.contains(' ') {
            true => format!("'{t}'"),
            false => t.to_string(),
        })
        .collect();
    quoted.join(" ")
}

/// Rank the whole script through `memo`, user queries numbered from
/// `first_uq`.
fn pose(
    memo: &mut NetworkMemo,
    generator: &CandidateGenerator<'_>,
    w: &Workload,
    first_uq: u32,
    next_cq: &mut u32,
) -> Vec<UserQuery> {
    let queries = w.queries.iter().enumerate();
    queries
        .map(|(i, q)| {
            let uq = UqId::new(first_uq + i as u32);
            let costs = q.edge_costs.as_ref();
            memo.generate(generator, &q.keywords, uq, q.user, next_cq, costs)
                .expect("the GUS scripts match candidate networks")
        })
        .collect()
}

/// Fill `memo` with other keyword queries until it has emptied at its cap:
/// the script's next pose finds none of its networks there. `was` is the
/// script's first query as first ranked.
fn clear(
    memo: &mut NetworkMemo,
    generator: &CandidateGenerator<'_>,
    w: &Workload,
    next_cq: &mut u32,
    was: &ConjunctiveQuery,
) {
    let terms = keywords_of(w);
    let first = &w.queries[0];
    let pairs = terms.iter().flat_map(|a| terms.iter().map(move |b| [a, b]));
    for (i, [a, b]) in pairs.filter(|[a, b]| a != b).enumerate() {
        for c in terms.iter().filter(|c| *c != a && *c != b) {
            let keywords = query_of(&[a, b, c]);
            let uq = UqId::new(10_000 + i as u32);
            // A combination that matches nothing is not kept; the rest are.
            let _ = memo.generate(generator, &keywords, uq, first.user, next_cq, None);
        }
        // Ranking the first query again re-stores it if it was dropped, so
        // compare its handles with the ones it was first ranked with.
        let again = memo
            .generate(
                generator,
                &first.keywords,
                UqId::new(0),
                first.user,
                next_cq,
                None,
            )
            .expect("the script's first query matches");
        if !Arc::ptr_eq(was.whole_sig(), again.cqs[0].0.whole_sig()) {
            return;
        }
    }
    panic!("the memo never reached its cap");
}

/// The script's queries split into lanes, as the engine routes them.
fn lanes(uqs: &[UserQuery], sharing: &SharingMode) -> Vec<Vec<usize>> {
    let SharingMode::AtcCl(config) = sharing else {
        return vec![(0..uqs.len()).collect()];
    };
    let refs: BTreeMap<UqId, Vec<RelId>> = uqs
        .iter()
        .map(|uq| (uq.id, uq.cqs.iter().flat_map(|(cq, _)| cq.rels()).collect()))
        .collect();
    let clusters = cluster_user_queries(&refs, *config);
    let at = |id: &UqId| uqs.iter().position(|uq| uq.id == *id).expect("clustered");
    clusters
        .iter()
        .map(|c| c.iter().map(at).collect())
        .collect()
}

/// A query with `cq`'s content under a handle of its own.
fn rebuilt(cq: &ConjunctiveQuery) -> ConjunctiveQuery {
    let (atoms, joins) = (cq.atoms().to_vec(), cq.joins().to_vec());
    ConjunctiveQuery::new(cq.id, cq.uq, cq.user, atoms, joins)
}

/// Optimize one lane's batches, each pose's members five at a time, on a
/// lane interner fed the ranked queries and on one fed rebuilt copies:
/// the specs, signature ids included, must agree, and every query's id
/// through its shared handle must be the one a fresh deep build finds.
/// Returns each query's whole-signature id, pose by pose.
fn run_lane(
    w: &Workload,
    config: &OptimizerConfig,
    poses: &[Vec<UserQuery>],
    members: &[usize],
) -> Vec<Vec<qsys::query::SigId>> {
    let optimizer = Optimizer::new(&w.catalog, config.clone());
    let (shared, fresh) = (
        SigCell::new(SigInterner::new()),
        SigCell::new(SigInterner::new()),
    );
    let mut ids = Vec::new();
    for uqs in poses {
        let mut pose_ids = Vec::new();
        for batch in members.chunks(5) {
            let ranked: Vec<(&ConjunctiveQuery, &ScoreFn)> = batch
                .iter()
                .flat_map(|&i| uqs[i].cqs.iter().map(|(cq, f)| (cq, f)))
                .collect();
            let copies: Vec<(ConjunctiveQuery, &ScoreFn)> =
                ranked.iter().map(|(cq, f)| (rebuilt(cq), *f)).collect();
            let copies: Vec<(&ConjunctiveQuery, &ScoreFn)> =
                copies.iter().map(|(cq, f)| (cq, *f)).collect();
            let (spec, _) = optimizer.optimize(&ranked, &NoReuse, None, &shared);
            let (reference, _) = optimizer.optimize(&copies, &NoReuse, None, &fresh);
            assert_eq!(format!("{spec:?}"), format!("{reference:?}"));
            let interner = shared.borrow();
            for (cq, _) in &ranked {
                let id = interner.find_cq(cq).expect("interned by optimize");
                assert_eq!(interner.get(&SubExprSig::of_cq(cq)), Some(id), "{cq:?}");
                let plan = spec.cq_plans.iter().find(|p| p.cq == cq.id);
                assert_eq!(plan.map(|p| p.sig), Some(id), "{cq:?}");
                pose_ids.push(id);
            }
        }
        ids.push(pose_ids);
    }
    ids
}

#[test]
fn shared_handles_intern_like_fresh_builds() {
    // The benchmark's ATC-CL clustering: every seed splits into lanes.
    let cl = SharingMode::AtcCl(ClusterConfig { t_m: 2, t_c: 0.9 });
    for seed in [41, 48, 55] {
        let w = gus_workload(seed, Scale::Small);
        for sharing in [SharingMode::AtcFull, cl.clone()] {
            let engine = gus_engine(sharing.clone(), 5);
            let generator = CandidateGenerator::new(&w.catalog, &w.index, engine.candidate.clone());
            let mut memo = NetworkMemo::default();
            let mut next_cq = 0;
            let n = w.queries.len() as u32;
            let first = pose(&mut memo, &generator, &w, 0, &mut next_cq);
            clear(&mut memo, &generator, &w, &mut next_cq, &first[0].cqs[0].0);
            let regenerated = pose(&mut memo, &generator, &w, n, &mut next_cq);
            let again = pose(&mut memo, &generator, &w, 2 * n, &mut next_cq);
            let handles = |uqs: &[UserQuery]| -> Vec<_> {
                let cqs = uqs.iter().flat_map(|uq| &uq.cqs);
                cqs.map(|(cq, _)| Arc::clone(cq.whole_sig())).collect()
            };
            let (a, b, c) = (handles(&first), handles(&regenerated), handles(&again));
            assert_eq!((a.len(), b.len()), (b.len(), c.len()));
            for ((a, b), c) in a.iter().zip(&b).zip(&c) {
                assert!(!Arc::ptr_eq(a, b), "seed {seed}: regenerated after the cap");
                assert!(
                    Arc::ptr_eq(b, c),
                    "seed {seed}: a memo hit shares the handle"
                );
            }

            let config = OptimizerConfig {
                k: engine.k,
                heuristics: engine.heuristics.clone(),
                share_subexpressions: true,
                ..OptimizerConfig::default()
            };
            let poses = [first, regenerated, again];
            let lanes = lanes(&poses[0], &sharing);
            let threads = lanes.len().min(2);
            let ids: Vec<_> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads)
                    .map(|t| {
                        let (w, config, poses, lanes) = (&w, &config, &poses, &lanes);
                        scope.spawn(move || {
                            let mine = lanes.iter().skip(t).step_by(threads);
                            mine.map(|members| run_lane(w, config, poses, members))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                let joined = workers.into_iter().map(|h| h.join().expect("lane thread"));
                joined.flatten().collect()
            });
            if matches!(sharing, SharingMode::AtcCl(_)) {
                assert!(lanes.len() > 1, "seed {seed}: ATC-CL runs one lane");
            }
            // Each pose names every signature by the id the first gave it.
            for lane in &ids {
                assert_eq!(lane[1], lane[0], "seed {seed}: regenerated networks");
                assert_eq!(lane[2], lane[0], "seed {seed}: a memo hit");
            }
        }
    }
}
