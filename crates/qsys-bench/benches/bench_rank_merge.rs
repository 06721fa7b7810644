//! Micro-benchmark: rank-merge accept/maintain cycle — the operator on the
//! ATC's critical path — and one full ATC round over a `gus-full`-shaped
//! plan graph.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use qsys::exec::rank_merge::{CqRegistration, RankMerge, StreamingInput};
use qsys::exec::{
    Atc, ExecStats, MJoin, MJoinInput, NodeId, QueryPlanGraph, RetryPolicy, SchedulingPolicy,
    SourceGovernor, StreamBacking,
};
use qsys::query::ScoreFn;
use qsys::source::{Sources, Table};
use qsys::types::{BaseTuple, CqId, JoinCond, RelId, SimClock, Tuple, UqId, UserId, Value};
use std::hint::black_box;
use std::sync::Arc;

fn reg(cq: u32, node: u32) -> CqRegistration {
    CqRegistration {
        cq: CqId::new(cq),
        reports_as: CqId::new(cq),
        score_fn: ScoreFn::discover(UserId::new(0), 2),
        streaming: vec![StreamingInput {
            node: NodeId(node),
            rels: vec![RelId::new(0)],
            max_bound: 1.0,
        }],
        probed: vec![],
    }
}

fn tup(id: u64, score: f64) -> Tuple {
    Tuple::single(Arc::new(BaseTuple::new(RelId::new(0), id, vec![], score)))
}

fn bench_rank_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("rank_merge");
    group.sample_size(30);

    group.bench_function("accept_maintain_k50_1k_tuples", |b| {
        b.iter_batched(
            || {
                let mut rm = RankMerge::new(UqId::new(0), UserId::new(0), 50);
                for i in 0..4 {
                    rm.register(reg(i, i));
                }
                rm
            },
            |mut rm| {
                for i in 0..1000u64 {
                    let slot = (i % 4) as usize;
                    let score = 1.0 - (i as f64) / 1100.0;
                    rm.accept(slot, tup(i, score));
                    if i % 16 == 0 {
                        rm.maintain(&[1.0 - (i as f64) / 1000.0; 4], i, i);
                    }
                }
                rm.maintain(&[0.0; 4], 2000, 2000);
                black_box(rm.results().len())
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("choose_read_16cqs", |b| {
        let mut rm = RankMerge::new(UqId::new(0), UserId::new(0), 50);
        let mut bounds = [0.0; 16];
        for i in 0..16 {
            rm.register(reg(i, i));
            bounds[i as usize] = 1.0 - i as f64 / 40.0;
        }
        rm.maintain(&bounds, 0, 0);
        b.iter(|| black_box(rm.choose_read(&bounds, 0)));
    });

    // What `Atc::service` asks of one operator: maintain, choose a read,
    // maintain again — 10 CQs of 3 streaming inputs each over 30 leaves,
    // with one bound moving (and the generation with it) every fourth
    // iteration. The other three find the thresholds computed and the
    // operator clean.
    group.bench_function("service_loop_10cqs_3inputs", |b| {
        let mut rm = RankMerge::new(UqId::new(0), UserId::new(0), 50);
        for cq in 0..10u32 {
            rm.register(CqRegistration {
                streaming: (0..3)
                    .map(|j| StreamingInput {
                        node: NodeId(3 * cq + j),
                        rels: vec![RelId::new(j)],
                        max_bound: 1.0,
                    })
                    .collect(),
                ..reg(cq, 0)
            });
        }
        let mut bounds = [1.0f64; 30];
        let (mut generation, mut i) = (0u64, 0usize);
        b.iter(|| {
            if i % 4 == 0 {
                let slot = &mut bounds[(i / 4) % 30];
                *slot = (*slot * 0.999).max(0.5);
                generation += 1;
            }
            i += 1;
            rm.maintain(&bounds, generation, i as u64);
            let read = rm.choose_read(&bounds, generation);
            rm.maintain(&bounds, generation, i as u64);
            black_box(read)
        });
    });

    // The shape `gus-full` ends an instance with (perf/README.md,
    // `state.graph_nodes_end`): 5 rank-merges over ~100 leaves and their
    // joins. One sample is one round — five services, each a maintain, a
    // choice, a read routed through two joins, and a maintain.
    group.sample_size(200);
    group.bench_function("atc_round_205_nodes", |b| {
        let sources = round_sources();
        let mut graph = round_graph(&sources);
        assert_eq!(graph.len(), 205);
        let governor = SourceGovernor::new(RetryPolicy::default());
        let mut stats = ExecStats::new();
        let mut atc = Atc::new(SchedulingPolicy::RoundRobin);
        for _ in 0..64 {
            atc.round(&mut graph, &sources, &governor, &mut stats);
        }
        b.iter(|| atc.round(&mut graph, &sources, &governor, &mut stats));
        // Every timed round did real work: the queries are still running.
        assert!(atc.round(&mut graph, &sources, &governor, &mut stats));
    });

    group.finish();
}

const ROUND_UQS: u32 = 5;
const ROUND_LEAVES_PER_UQ: u32 = 20;

/// Ring neighbours have opposite parity, and a row's key is offset by half
/// the key space on odd relations: the best rows of two joined relations
/// never match each other, so a top-50 takes several hundred reads.
fn round_sources() -> Sources {
    let sources = Sources::new(SimClock::new(), 31);
    for rel in 0..ROUND_UQS * ROUND_LEAVES_PER_UQ {
        let id = RelId::new(rel);
        let rows = (0..512u64)
            .map(|i| {
                Arc::new(BaseTuple::new(
                    id,
                    i,
                    vec![Value::Int(((i + 32 * (rel as u64 % 2)) % 64) as i64)],
                    1.0 - i as f64 / 513.0,
                ))
            })
            .collect();
        sources.register(Table::new(id, rows));
    }
    sources
}

/// 100 stream leaves, 100 two-way joins (leaf `j` with its ring neighbour
/// inside the same user query) storing into the leaves' modules, 5
/// rank-merges of 20 conjunctive queries each.
fn round_graph(sources: &Sources) -> QueryPlanGraph {
    let mut graph = QueryPlanGraph::new();
    let leaves: Vec<NodeId> = (0..ROUND_UQS * ROUND_LEAVES_PER_UQ)
        .map(|rel| {
            let stream = sources.open_stream(RelId::new(rel), None);
            graph.add_stream(StreamBacking::Remote(stream), None)
        })
        .collect();
    for uq in 0..ROUND_UQS {
        let mut rm = RankMerge::new(UqId::new(uq), UserId::new(0), 50);
        let mut joins = Vec::new();
        for j in 0..ROUND_LEAVES_PER_UQ {
            let pair = [
                uq * ROUND_LEAVES_PER_UQ + j,
                uq * ROUND_LEAVES_PER_UQ + (j + 1) % ROUND_LEAVES_PER_UQ,
            ];
            let inputs = pair
                .iter()
                .map(|&rel| MJoinInput {
                    rels: vec![RelId::new(rel)],
                    module: {
                        let module = graph.stream_leaf(leaves[rel as usize]).module;
                        graph.modules_mut().retain(module)
                    },
                    epoch_cap: None,
                    store_arrivals: true,
                    selection: None,
                })
                .collect();
            let pred = JoinCond {
                left: RelId::new(pair[0]),
                left_col: 0,
                right: RelId::new(pair[1]),
                right_col: 0,
            };
            let mj = MJoin::new(inputs, vec![pred], graph.modules());
            let mjn = graph.add_mjoin(mj, None);
            let cq = CqId::new(uq * ROUND_LEAVES_PER_UQ + j);
            let slot = rm.register(CqRegistration {
                cq,
                reports_as: cq,
                score_fn: ScoreFn::discover(UserId::new(0), 2),
                streaming: pair
                    .iter()
                    .map(|&rel| StreamingInput {
                        node: leaves[rel as usize],
                        rels: vec![RelId::new(rel)],
                        max_bound: 1.0,
                    })
                    .collect(),
                probed: vec![],
            });
            joins.push((mjn, pair, slot));
        }
        let rmn = graph.add_rank_merge(rm);
        for (mjn, pair, slot) in joins {
            graph.connect(leaves[pair[0] as usize], mjn, 0);
            graph.connect(leaves[pair[1] as usize], mjn, 1);
            graph.connect(mjn, rmn, slot);
        }
    }
    graph
}

criterion_group!(benches, bench_rank_merge);
criterion_main!(benches);
