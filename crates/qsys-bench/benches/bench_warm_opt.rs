//! Micro-benchmark: cold vs warm-started batch optimization.
//!
//! Streams of 8 / 40 / 128 user queries are optimized in 5-UQ batches, (a)
//! cold — a fresh manager per iteration, no warm store — and (b) warm — one
//! live manager whose warm store saw the stream on a priming pass, so every
//! batch searches from cached cost inputs, candidate enumerations and
//! canonical ranks. Before timing anything, the
//! bench asserts the two arms' plans and statistics are bit-identical —
//! the decision-identity check the CI bench smoke runs on every push.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsys::generate_user_queries;
use qsys::opt::{Optimizer, OptimizerConfig};
use qsys::query::{ConjunctiveQuery, ScoreFn};
use qsys::state::QsManager;
use qsys::SharingMode;
use qsys_bench::{gus_engine, optimize_decision_stream};
use qsys_workload::gus::{self, GusConfig};
use std::hint::black_box;

type Batch<'a> = Vec<(&'a ConjunctiveQuery, &'a ScoreFn)>;

fn bench_warm_opt(c: &mut Criterion) {
    let mut group = c.benchmark_group("warm_opt");
    group.sample_size(10);
    for &n_uqs in &[8usize, 40, 128] {
        let mut cfg = GusConfig::small(41);
        cfg.user_queries = n_uqs;
        let workload = gus::generate(&cfg);
        let engine = gus_engine(SharingMode::AtcFull, 5);
        let (uqs, _) = generate_user_queries(&workload, &engine).expect("generates");
        let batches: Vec<Batch> = uqs
            .chunks(5)
            .map(|chunk| {
                chunk
                    .iter()
                    .flat_map(|uq| uq.cqs.iter().map(|(cq, f)| (cq, f)))
                    .collect()
            })
            .collect();
        let opt_config = OptimizerConfig {
            k: engine.k,
            heuristics: engine.heuristics.clone(),
            cost_profile: engine.cost_profile,
            share_subexpressions: true,
            ..OptimizerConfig::default()
        };
        let optimizer = Optimizer::new(&workload.catalog, opt_config.clone());

        // One full pass per arm through the shared identity harness,
        // compared batch by batch: the warm store must never change a
        // decision or a statistic.
        let warm_rows = optimize_decision_stream(&workload.catalog, &opt_config, &batches, true);
        let cold_rows = optimize_decision_stream(&workload.catalog, &opt_config, &batches, false);
        for (w, c) in warm_rows.iter().zip(cold_rows.iter()) {
            assert_eq!(
                w, c,
                "warm-started decisions diverged from cold at {n_uqs} UQs"
            );
        }

        group.bench_with_input(BenchmarkId::new("cold", n_uqs), &n_uqs, |b, _| {
            b.iter(|| {
                let manager = QsManager::new(usize::MAX);
                let interner = manager.shared_interner();
                for batch in &batches {
                    let oracle = manager.reuse_oracle();
                    black_box(optimizer.optimize_warm(batch, &oracle, None, &interner, None));
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("warm", n_uqs), &n_uqs, |b, _| {
            // Live manager + primed store: the measured passes search warm.
            let manager = QsManager::new(usize::MAX);
            let interner = manager.shared_interner();
            let warm = manager.warm_cell();
            for batch in &batches {
                let oracle = manager.reuse_oracle();
                optimizer.optimize_warm(batch, &oracle, None, &interner, Some(&warm));
            }
            b.iter(|| {
                for batch in &batches {
                    let oracle = manager.reuse_oracle();
                    black_box(optimizer.optimize_warm(
                        batch,
                        &oracle,
                        None,
                        &interner,
                        Some(&warm),
                    ));
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_warm_opt);
criterion_main!(benches);
