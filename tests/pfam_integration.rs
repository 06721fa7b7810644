//! Integration over the Pfam/InterPro-style workload (Section 7.5): the
//! cross-database mapping table, the publication-year score attribute, and
//! the clustering behaviour on larger data.

use qsys::{run_workload, EngineConfig, SharingMode};
use qsys_opt::cluster::ClusterConfig;
use qsys_query::CandidateConfig;
use qsys_workload::pfam::{self, PfamConfig};
use qsys_workload::Workload;

mod common;

fn workload(seed: u64) -> Workload {
    let mut cfg = PfamConfig::small(seed);
    cfg.scale = 0.05; // keep debug-mode tests quick
    cfg.user_queries = 5;
    pfam::generate(&cfg)
}

fn engine(mode: SharingMode) -> EngineConfig {
    EngineConfig {
        k: 10,
        batch_size: 3,
        sharing: mode,
        candidate: CandidateConfig {
            max_cqs: 4,
            matches_per_keyword: 2,
            ..CandidateConfig::default()
        },
        ..EngineConfig::default()
    }
}

#[test]
fn pfam_queries_answer_under_all_configs() {
    let w = workload(1);
    let mut counts: Option<Vec<usize>> = None;
    for mode in [
        SharingMode::AtcCq,
        SharingMode::AtcUq,
        SharingMode::AtcFull,
        SharingMode::AtcCl(ClusterConfig::default()),
    ] {
        let r = run_workload(&w, &engine(mode.clone()), None).unwrap();
        assert!(!r.per_uq.is_empty(), "{}", mode.label());
        // ≤ 4 CQs per user query, per the paper's Pfam setup.
        for u in &r.per_uq {
            assert!(u.cqs_generated <= 4, "{u:?}");
        }
        let c: Vec<usize> = r.per_uq.iter().map(|u| u.results).collect();
        match &counts {
            None => counts = Some(c),
            Some(reference) => {
                assert_eq!(reference, &c, "{} disagrees on result counts", mode.label())
            }
        }
    }
}

#[test]
fn cross_database_joins_appear_in_answers() {
    let w = workload(2);
    let pfam_db = w.catalog.relation_by_name("pfamA").unwrap().source_db;
    let interpro_db = w
        .catalog
        .relation_by_name("interpro_entry")
        .unwrap()
        .source_db;
    assert_ne!(pfam_db, interpro_db);
    // Run and check that at least one answer joins relations from both
    // databases (the data-integration point of the paper).
    let mut sys = qsys::Engine::for_workload(&w, engine(SharingMode::AtcFull));
    let mut saw_cross = false;
    for q in ["kinase domain", "binding receptor", "domain membrane"] {
        let Ok((_, answers)) = common::search(&mut sys, q, qsys_types::UserId::new(0)) else {
            continue;
        };
        for (_, tuple) in &answers {
            let dbs: std::collections::BTreeSet<_> = tuple
                .parts()
                .iter()
                .map(|p| sys.catalog().relation(p.rel).source_db)
                .collect();
            if dbs.len() > 1 {
                saw_cross = true;
            }
        }
    }
    assert!(saw_cross, "expected at least one cross-database answer");
}

#[test]
fn publication_year_scores_participate() {
    let w = workload(3);
    let lit = w.catalog.relation_by_name("literature_ref").unwrap().id;
    let table = w.tables.table(lit);
    // Publication-year scores are dense in (0.25, 1.0]; the top row is a
    // recent publication.
    assert!(table.max_score() > 0.9);
    assert!(table.rows().last().unwrap().raw_score >= 0.2);
}

#[test]
fn clustering_splits_pfam_workload_or_not_gracefully() {
    let w = workload(4);
    let r = run_workload(
        &w,
        &engine(SharingMode::AtcCl(ClusterConfig { t_m: 1, t_c: 0.6 })),
        None,
    )
    .unwrap();
    // With only 9 relations the workload may or may not split; either way
    // every query completes and lanes are consistent.
    assert!(r.lanes >= 1);
    for u in &r.per_uq {
        assert!(u.lane < r.lanes);
        assert!(u.response_us > 0);
    }
}
