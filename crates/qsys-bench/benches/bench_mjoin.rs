//! Micro-benchmark: m-join insert/probe throughput, fixed vs adaptive
//! probe ordering (the ablation of the STeM eddy's runtime adaptivity),
//! early rejection into a full rank-merge, and one stream fanned out to
//! three consumers sharing its stored module.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use qsys::exec::access::{AccessModule, AccessModuleArena, ModuleId, StoredModule};
use qsys::exec::mjoin::{MJoin, MJoinInput};
use qsys::exec::rank_merge::{CqRegistration, RankMerge, StreamingInput};
use qsys::exec::{QueryPlanGraph, RetryPolicy, SourceGovernor, StreamBacking, StreamRead};
use qsys::query::ScoreFn;
use qsys::source::{Sources, Table};
use qsys::types::{BaseTuple, CqId, Epoch, JoinCond, RelId, SimClock, Tuple, UqId, UserId, Value};
use std::hint::black_box;
use std::sync::Arc;

fn stored_input(rel: u32, modules: &mut AccessModuleArena) -> MJoinInput {
    input_over(
        rel,
        modules.alloc(AccessModule::Stored(StoredModule::new([]))),
    )
}

fn input_over(rel: u32, module: ModuleId) -> MJoinInput {
    MJoinInput {
        rels: vec![RelId::new(rel)],
        module,
        epoch_cap: None,
        store_arrivals: true,
        selection: None,
    }
}

/// One R0 stream into three consumers — R0 ⋈ R1 and R0 ⋈ R3 on R0's
/// first column, R0 ⋈ R2 on its second — with R1..R3 already stored.
/// `shared`: the three R0 inputs store into one module (one per producer,
/// as grafting builds them); otherwise each has its own.
fn fanout(shared: bool, others: &[Vec<Tuple>]) -> (Vec<MJoin>, AccessModuleArena, ModuleId) {
    let mut modules = AccessModuleArena::new();
    let r0 = modules.alloc(AccessModule::Stored(StoredModule::new([])));
    let sources = Sources::new(SimClock::new(), 0);
    let governor = SourceGovernor::new(RetryPolicy::default());
    let joins = (1..=3u32)
        .zip(others)
        .map(|(rel, stored)| {
            let module = match (shared, rel) {
                (_, 1) => r0,
                (true, _) => modules.retain(r0),
                (false, _) => modules.alloc(AccessModule::Stored(StoredModule::new([]))),
            };
            let inputs = vec![input_over(0, module), stored_input(rel, &mut modules)];
            let mut mj = MJoin::new(inputs, vec![pred(0, (rel == 2).into(), rel, 0)], &modules);
            for t in stored {
                mj.insert(1, t.clone(), Epoch(0), &sources, &governor, &modules);
            }
            mj
        })
        .collect();
    (joins, modules, r0)
}

/// Every R0 tuple arrives at each consumer in turn, as a routing pass
/// delivers it; `sink` gets each consumer's results.
fn fan_in_r0(
    joins: &mut [MJoin],
    modules: &AccessModuleArena,
    r0: &[Tuple],
    mut sink: impl FnMut(usize, Vec<Tuple>),
) {
    let sources = Sources::new(SimClock::new(), 0);
    let governor = SourceGovernor::new(RetryPolicy::default());
    for t in r0 {
        for (i, mj) in joins.iter_mut().enumerate() {
            sink(
                i,
                mj.insert(0, t.clone(), Epoch(0), &sources, &governor, modules),
            );
        }
    }
}

fn pred(l: u32, lc: usize, r: u32, rc: usize) -> JoinCond {
    JoinCond {
        left: RelId::new(l),
        left_col: lc,
        right: RelId::new(r),
        right_col: rc,
    }
}

fn tuples(rel: u32, n: u64, keys: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            Tuple::single(Arc::new(BaseTuple::new(
                RelId::new(rel),
                i,
                vec![
                    Value::Int((i as i64) % keys),
                    Value::Int((i as i64 * 7) % keys),
                ],
                1.0 - i as f64 / (n + 1) as f64,
            )))
        })
        .collect()
}

fn bench_mjoin(c: &mut Criterion) {
    let mut group = c.benchmark_group("mjoin");
    group.sample_size(20);

    // Three-way join: R0(probe col0→R1, col1→R2).
    group.bench_function("three_way_insert_1k", |b| {
        let t0 = tuples(0, 400, 32);
        let t1 = tuples(1, 300, 32);
        let t2 = tuples(2, 300, 32);
        b.iter_batched(
            || {
                let mut modules = AccessModuleArena::new();
                let inputs = vec![
                    stored_input(0, &mut modules),
                    stored_input(1, &mut modules),
                    stored_input(2, &mut modules),
                ];
                let mj = MJoin::new(inputs, vec![pred(0, 0, 1, 0), pred(0, 1, 2, 0)], &modules);
                (mj, modules)
            },
            |(mut mj, modules)| {
                let sources = Sources::new(SimClock::new(), 0);
                let governor = SourceGovernor::new(RetryPolicy::default());
                let mut out = 0usize;
                for t in &t1 {
                    out += mj
                        .insert(1, t.clone(), Epoch(0), &sources, &governor, &modules)
                        .len();
                }
                for t in &t2 {
                    out += mj
                        .insert(2, t.clone(), Epoch(0), &sources, &governor, &modules)
                        .len();
                }
                for t in &t0 {
                    out += mj
                        .insert(0, t.clone(), Epoch(0), &sources, &governor, &modules)
                        .len();
                }
                black_box(out)
            },
            BatchSize::SmallInput,
        );
    });

    // Adaptivity payoff: one dead-end input (zero matches). The adaptive
    // sequence probes it first and prunes everything.
    group.bench_function("adaptive_dead_end", |b| {
        let t0 = tuples(0, 500, 16);
        let t1 = tuples(1, 500, 16);
        b.iter_batched(
            || {
                let mut modules = AccessModuleArena::new();
                let inputs = vec![
                    stored_input(0, &mut modules),
                    stored_input(1, &mut modules),
                    stored_input(2, &mut modules),
                ];
                let mut mj = MJoin::new(inputs, vec![pred(0, 0, 1, 0), pred(0, 1, 2, 0)], &modules);
                let sources = Sources::new(SimClock::new(), 0);
                let governor = SourceGovernor::new(RetryPolicy::default());
                // R2 stays empty; warm up R1.
                for t in &t1 {
                    mj.insert(1, t.clone(), Epoch(0), &sources, &governor, &modules);
                }
                (mj, modules)
            },
            |(mut mj, modules)| {
                let sources = Sources::new(SimClock::new(), 0);
                let governor = SourceGovernor::new(RetryPolicy::default());
                let mut out = 0usize;
                for t in &t0 {
                    out += mj
                        .insert(0, t.clone(), Epoch(0), &sources, &governor, &modules)
                        .len();
                }
                black_box(out)
            },
            BatchSize::SmallInput,
        );
    });

    // The m-join's sink is a rank-merge whose queue is full: R1 is read
    // dry (nothing joins yet), then R0 in score order — the first rows
    // fill the top-10. Of the 390 timed reads, the first 7 still place
    // results in the queue; the other 383, scoring no better with R1's
    // best row than the queue's tenth, are bounded out before they probe.
    // So what is timed is mostly the per-tuple floor of a full operator —
    // a stream read, storing the tuple and one bound check — where before
    // m-joins bounded partial results each read found 25 matches and had
    // them judged unbuilt.
    group.bench_function("rank_merge_sink_full_queue", |b| {
        b.iter_batched(
            || {
                let sources = Sources::new(SimClock::new(), 0);
                for rel in 0..2u32 {
                    let rows = tuples(rel, 400, 16)
                        .iter()
                        .map(|t| t.parts()[0].clone())
                        .collect();
                    sources.register(Table::new(RelId::new(rel), rows));
                }
                let mut graph = QueryPlanGraph::new();
                let leaves = [0u32, 1].map(|rel| {
                    let stream = sources.open_stream(RelId::new(rel), None);
                    graph.add_stream(StreamBacking::Remote(stream), None)
                });
                let inputs = vec![
                    stored_input(0, graph.modules_mut()),
                    stored_input(1, graph.modules_mut()),
                ];
                let mj = MJoin::new(inputs, vec![pred(0, 0, 1, 0)], graph.modules());
                let mjn = graph.add_mjoin(mj, None);
                let mut rm = RankMerge::new(UqId::new(0), UserId::new(0), 10);
                let slot = rm.register(CqRegistration {
                    cq: CqId::new(0),
                    reports_as: CqId::new(0),
                    score_fn: ScoreFn::discover(UserId::new(0), 2),
                    streaming: leaves
                        .iter()
                        .zip(0u32..)
                        .map(|(&node, rel)| StreamingInput {
                            node,
                            rels: vec![RelId::new(rel)],
                            max_bound: 1.0,
                        })
                        .collect(),
                    probed: vec![],
                });
                let rmn = graph.add_rank_merge(rm);
                graph.connect(leaves[0], mjn, 0);
                graph.connect(leaves[1], mjn, 1);
                graph.connect(mjn, rmn, slot);
                let governor = SourceGovernor::new(RetryPolicy::default());
                while graph.read_stream_governed(leaves[1], &sources, &governor)
                    == StreamRead::Delivered
                {}
                for _ in 0..10 {
                    graph.read_stream_governed(leaves[0], &sources, &governor);
                }
                assert_eq!(graph.rank_merge(rmn).pending(), 10);
                (graph, sources, governor, leaves[0])
            },
            |(mut graph, sources, governor, r0)| {
                while graph.read_stream_governed(r0, &sources, &governor) == StreamRead::Delivered {
                }
                let work = *graph.work();
                assert_eq!(work.partials_bounded_out, 383, "{work:?}");
                black_box(work.mjoin_outputs)
            },
            BatchSize::SmallInput,
        );
    });

    // One stream into three consumers that share its module: 400 R0
    // arrivals at each, one stored entry per tuple. Checked first against
    // three private-module m-joins: the same results, each tuple stored
    // once.
    group.bench_function("shared_fanout", |b| {
        let r0 = tuples(0, 400, 32);
        let others: Vec<Vec<Tuple>> = (1..=3).map(|rel| tuples(rel, 300, 32)).collect();
        let results = |shared: bool| {
            let (mut joins, modules, r0_module) = fanout(shared, &others);
            let mut found = vec![Vec::new(); joins.len()];
            fan_in_r0(&mut joins, &modules, &r0, |i, out| {
                found[i].extend(out.iter().map(Tuple::provenance));
            });
            let stored = modules.module(r0_module).unwrap().borrow();
            (found, stored.as_stored().unwrap().len())
        };
        let (shared, stored_once) = results(true);
        let (private, _) = results(false);
        assert_eq!(shared, private, "sharing a module changed a result");
        assert!(shared.iter().all(|found| !found.is_empty()));
        assert_eq!(stored_once, r0.len(), "each R0 tuple stored once");
        b.iter_batched(
            || fanout(true, &others),
            |(mut joins, modules, _)| {
                let mut out = 0usize;
                fan_in_r0(&mut joins, &modules, &r0, |_, found| out += found.len());
                black_box(out)
            },
            BatchSize::SmallInput,
        );
    });

    group.finish();
}

criterion_group!(benches, bench_mjoin);
criterion_main!(benches);
