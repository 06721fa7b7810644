//! Micro-benchmarks where the per-layer table said the planning time was:
//! one BestPlan search over Figure 11's user query (the largest push-down
//! pool among the GUS seed-41 script's first five), with the candidate cap
//! swept from 0 to that pool's size — the optimizer searches each user
//! query alone, so one search is its unit of work — and candidate-network
//! generation for one GUS script against a cold and a warmed schema-path
//! table. Before timing anything, the bench asserts that the uncapped
//! search is the one recorded — states named, memo hits and the bits of the
//! winning cost — so a faster loop that decides differently fails the CI
//! bench smoke instead of posting a number.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use qsys::catalog::Catalog;
use qsys::opt::cost::NoReuse;
use qsys::query::CandidateGenerator;
use qsys::types::UqId;
use qsys::SharingMode;
use qsys_bench::{fig11_optimizer, fig11_query, gus_engine, gus_workload, Scale};
use std::hint::black_box;

fn bench_optimizer(c: &mut Criterion) {
    let workload = gus_workload(41, Scale::Small);
    let engine = gus_engine(SharingMode::AtcFull, 5);
    let (uq, sweep) = fig11_query(&workload);
    let pool = sweep.last().map_or(0, |point| point.0);
    let batch: Vec<_> = uq.cqs.iter().map(|(cq, f)| (cq, f)).collect();
    let fresh_interner = || qsys::query::SigCell::new(qsys::query::SigInterner::new());

    let (_, stats) = fig11_optimizer(&workload.catalog, pool).optimize(
        &batch,
        &NoReuse,
        None,
        &fresh_interner(),
    );
    assert_eq!(
        (
            pool,
            stats.explored,
            stats.memo_hits,
            stats.best_cost.to_bits()
        ),
        (11, 3_071, 2_015, 0x4186_09e8_1c8f_84e5),
        "the uncapped search is not the one recorded: {stats:?}"
    );

    let mut group = c.benchmark_group("bestplan");
    group.sample_size(10);
    for cap in 0..=pool {
        group.bench_with_input(BenchmarkId::new("candidates", cap), &cap, |b, &cap| {
            let optimizer = fig11_optimizer(&workload.catalog, cap);
            let interner = fresh_interner();
            b.iter(|| black_box(optimizer.optimize(&batch, &NoReuse, None, &interner)));
        });
    }
    group.finish();

    // The script's 10 keyword queries → candidate networks. `cold` runs on
    // a catalog rebuilt for each sample, so every shortest-path search the
    // script asks for starts and advances inside it; `warm` finds each
    // search already past the relations the script asks about.
    let cqgen = |catalog: &Catalog| {
        let generator = CandidateGenerator::new(catalog, &workload.index, engine.candidate.clone());
        let mut next_cq = 0u32;
        let uqs: Vec<_> = workload
            .queries
            .iter()
            .enumerate()
            .filter_map(|(i, q)| {
                let uq = UqId::new(i as u32);
                generator
                    .generate(&q.keywords, uq, q.user, &mut next_cq, q.edge_costs.as_ref())
                    .ok()
            })
            .collect();
        black_box(uqs)
    };
    let mut group = c.benchmark_group("cqgen");
    group.sample_size(10);
    group.bench_function("gus41_cold_table", |b| {
        b.iter_batched(
            || rebuilt(&workload.catalog),
            |fresh| cqgen(&fresh),
            BatchSize::PerIteration,
        )
    });
    group.bench_function("gus41_warm_table", |b| b.iter(|| cqgen(&workload.catalog)));
    group.finish();
}

/// A copy of `catalog` through the builder: same relations and edges, none
/// of the state a catalog accumulates while it is queried.
fn rebuilt(catalog: &Catalog) -> Catalog {
    let mut b = Catalog::builder();
    for r in catalog.relations() {
        b.relation(
            r.name.clone(),
            r.source_db,
            r.columns.clone(),
            r.score_col,
            r.node_cost,
            r.stats.clone(),
        );
    }
    for e in catalog.edges() {
        b.edge(e.from, e.from_col, e.to, e.to_col, e.kind, e.cost, e.fanout);
    }
    b.build()
}

criterion_group!(benches, bench_optimizer);
criterion_main!(benches);
