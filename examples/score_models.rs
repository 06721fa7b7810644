//! The three scoring models of Section 2.1 — DISCOVER, the Q System, and
//! BANKS — answering the same keyword query. All are instances of the
//! monotone product normal form, so the same shared streams serve all
//! three; they just rank candidate networks (and hence answers)
//! differently.
//!
//! ```sh
//! cargo run --release --example score_models
//! ```

use qsys::prelude::*;
use qsys_query::{CandidateConfig, ScoreModel};
use qsys_workload::gus::{self, GusConfig};

fn main() {
    let mut cfg = GusConfig::small(21);
    cfg.min_rows = 400;
    cfg.max_rows = 1_200;
    let keywords = "protein gene";

    for model in [ScoreModel::Discover, ScoreModel::QSystem, ScoreModel::Banks] {
        // Fresh engine per model so rankings are directly comparable.
        let workload = gus::generate(&cfg);
        let mut engine = Engine::for_workload(
            &workload,
            EngineConfig {
                k: 5,
                sharing: SharingMode::AtcFull,
                candidate: CandidateConfig {
                    max_cqs: 6,
                    model,
                    ..CandidateConfig::default()
                },
                ..EngineConfig::default()
            },
        );
        let ticket = engine
            .session(UserId::new(0))
            .submit_now(keywords)
            .expect("answers");
        engine.run_until_idle();
        let report = ticket.report().expect("the drained engine ran the query");
        let answers = ticket.take_results().unwrap_or_default();
        println!("model {model:?}: \"{keywords}\"");
        println!(
            "  {} CQs generated, {} executed, {} answers",
            report.cqs_generated,
            report.cqs_executed,
            answers.len()
        );
        for (rank, (score, tuple)) in answers.iter().enumerate() {
            let rels: Vec<String> = tuple
                .parts()
                .iter()
                .map(|p| engine.catalog().relation(p.rel).name.clone())
                .collect();
            println!(
                "  {:1}. {:.6}  [{} rels] {}",
                rank + 1,
                score.get(),
                tuple.arity(),
                rels.join(" ⋈ ")
            );
        }
        println!();
    }
    println!(
        "DISCOVER penalizes size with 1/|CQ|; the Q System exponentiates \
         learned edge+node costs; BANKS multiplies prestige weights. All \
         three remain monotone in each source's raw score, which is what \
         lets one shared stream serve users with different models."
    );
}
