//! A multi-user bioinformatics portal (the paper's motivating scenario):
//! many biologists pose overlapping keyword queries over time, and the
//! middleware's job is to share work among them.
//!
//! The first half drives the portal the way a service would: per-user
//! sessions submit queries at their arrival times, batches dispatch as
//! admission windows seal, and tickets stream each user's answers back.
//! The second half runs the same 8-query script under all four sharing
//! configurations through the scripted driver and prints the paper's
//! headline comparison.
//!
//! ```sh
//! cargo run --release --example bio_portal
//! ```

use qsys::prelude::*;
use qsys_opt::cluster::ClusterConfig;
use qsys_query::CandidateConfig;
use qsys_workload::gus::{self, GusConfig};

fn main() {
    let mut cfg = GusConfig::small(7);
    cfg.min_rows = 500;
    cfg.max_rows = 2_000;
    cfg.user_queries = 8;
    let workload = gus::generate(&cfg);

    println!("8 users, queries posed over time:");
    for (i, q) in workload.queries.iter().enumerate() {
        println!(
            "  UQ{i} @ {:5.1}s  user {}  \"{}\"",
            q.arrival_us as f64 / 1e6,
            q.user,
            q.keywords
        );
    }

    let engine_cfg = |mode: SharingMode| EngineConfig {
        k: 25,
        batch_size: 4,
        sharing: mode,
        candidate: CandidateConfig {
            max_cqs: 8,
            ..CandidateConfig::default()
        },
        ..EngineConfig::default()
    };

    // ---- The portal, served incrementally -------------------------------
    let mut engine = Engine::for_workload(&workload, engine_cfg(SharingMode::AtcFull));
    let mut tickets = Vec::new();
    println!("\nServing incrementally (batches of 4):");
    for q in &workload.queries {
        let mut session = engine.session(q.user);
        if let Some(costs) = &q.edge_costs {
            session = session.with_edge_costs(costs.clone());
        }
        match session.submit(&q.keywords, q.arrival_us) {
            Ok(ticket) => tickets.push(ticket),
            Err(_) => println!("  \"{}\" → no results (skipped)", q.keywords),
        }
        // Dispatch whatever sealed; tickets complete as their batch runs.
        let ran = engine.step();
        if ran > 0 {
            println!(
                "  [{} pending] dispatched {ran} batch(es); completed so far: {}",
                engine.pending(),
                tickets
                    .iter()
                    .filter(|t| t.poll() != TicketStatus::Queued)
                    .count()
            );
        }
    }
    engine.run_until_idle(); // flush the final partial window
    for t in &tickets {
        let line = t.report().expect("portal drained");
        println!(
            "  user {} \"{}\" → {} answers in {:.3}s ({} nodes reused, {} CQs recovered)",
            line.user,
            line.keywords,
            line.results,
            line.response_us as f64 / 1e6,
            line.reused_nodes,
            line.recovered_cqs
        );
    }

    // ---- The paper's configuration comparison ---------------------------
    println!(
        "\n{:10} {:>9} {:>10} {:>8} {:>10} {:>8} {:>6}",
        "config", "mean(s)", "streamed", "rounds", "probes", "opt(ms)", "lanes"
    );
    for mode in [
        SharingMode::AtcCq,
        SharingMode::AtcUq,
        SharingMode::AtcFull,
        SharingMode::AtcCl(ClusterConfig::default()),
    ] {
        let report = run_workload(&workload, &engine_cfg(mode), None).expect("workload runs");
        println!(
            "{:10} {:>9.3} {:>10} {:>8} {:>10} {:>8.1} {:>6}",
            report.config,
            report.mean_response_us() / 1e6,
            report.tuples_streamed,
            report.tuples_streamed, // rounds: one per tuple streamed
            report.probes,
            report.opt_us() as f64 / 1e3,
            report.lanes,
        );
    }

    println!("\nPer-query response times (seconds):");
    let reports: Vec<_> = [
        SharingMode::AtcCq,
        SharingMode::AtcFull,
        SharingMode::AtcCl(ClusterConfig::default()),
    ]
    .into_iter()
    .map(|m| run_workload(&workload, &engine_cfg(m), None).unwrap())
    .collect();
    print!("{:>6}", "UQ");
    for r in &reports {
        print!(" {:>10}", r.config);
    }
    println!();
    for i in 0..reports[0].per_uq.len() {
        print!("{:>6}", format!("UQ{i}"));
        for r in &reports {
            print!(" {:>10.3}", r.per_uq[i].response_us as f64 / 1e6);
        }
        println!();
    }
}
