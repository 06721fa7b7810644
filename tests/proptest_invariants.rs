//! Property-based tests on the core invariants.
//!
//! - the pipelined engine's top-k equals the brute-force top-k on random
//!   database instances;
//! - a warm (two-session) execution returns exactly what a cold execution
//!   returns — RecoverState loses nothing and duplicates nothing;
//! - score upper bounds really bound every emitted result.

use proptest::prelude::*;
use qsys_catalog::{Catalog, CatalogBuilder, ColumnStats, EdgeKind, RelationStats};
use qsys_exec::state::QsManager;
use qsys_exec::{Atc, ExecStats, RetryPolicy, SchedulingPolicy, SourceGovernor};
use qsys_opt::{Optimizer, OptimizerConfig};
use qsys_query::{ConjunctiveQuery, CqAtom, CqJoin, ScoreFn};
use qsys_source::{Sources, Table};
use qsys_types::{BaseTuple, CqId, JoinCond, RelId, SimClock, Tuple, UqId, UserId, Value};
use std::sync::Arc;

/// A randomly generated relation instance: (key, score) rows.
#[derive(Clone, Debug)]
struct RelData {
    rows: Vec<(i64, f64)>,
}

fn rel_data(max_rows: usize, key_range: i64) -> impl Strategy<Value = RelData> {
    prop::collection::vec((0..key_range, 0.0f64..=1.0), 1..=max_rows)
        .prop_map(|rows| RelData { rows })
}

fn build_sources(data: &[RelData]) -> Sources {
    let s = Sources::new(SimClock::new(), 1);
    for (i, rel) in data.iter().enumerate() {
        let id = RelId::new(i as u32);
        let rows = rel
            .rows
            .iter()
            .enumerate()
            .map(|(rid, (k, score))| {
                Arc::new(BaseTuple::new(
                    id,
                    rid as u64,
                    vec![Value::Int(*k), Value::Int(*k), Value::float(*score)],
                    *score,
                ))
            })
            .collect();
        s.register(Table::new(id, rows));
    }
    s
}

fn chain_catalog(data: &[RelData], key_range: i64) -> Catalog {
    let mut b = CatalogBuilder::default();
    let mut ids = Vec::new();
    for (i, rel) in data.iter().enumerate() {
        let mut stats = RelationStats::with_cardinality(rel.rows.len() as u64);
        stats.columns = vec![
            ColumnStats {
                distinct: key_range as u64,
            },
            ColumnStats {
                distinct: key_range as u64,
            },
        ];
        ids.push(b.relation(
            format!("P{i}"),
            qsys_types::SourceId::new(0),
            vec!["k".into(), "j".into(), "score".into()],
            Some(2),
            1.0,
            stats,
        ));
    }
    for w in ids.windows(2) {
        b.edge(w[0], 1, w[1], 0, EdgeKind::ForeignKey, 1.0, 1.5);
    }
    b.build()
}

fn chain_cq(id: u32, uq: u32, catalog: &Catalog, len: usize) -> ConjunctiveQuery {
    let rels: Vec<RelId> = (0..len as u32).map(RelId::new).collect();
    let atoms = rels
        .iter()
        .map(|&rel| CqAtom {
            rel,
            selection: None,
        })
        .collect();
    let joins = rels
        .windows(2)
        .map(|w| {
            let e = catalog.edge_between(w[0], w[1]).unwrap();
            CqJoin {
                edge: e.id,
                on: JoinCond {
                    left: e.from,
                    left_col: e.from_col,
                    right: e.to,
                    right_col: e.to_col,
                },
            }
        })
        .collect();
    ConjunctiveQuery::new(CqId::new(id), UqId::new(uq), UserId::new(0), atoms, joins)
}

/// Brute-force top-k scores for a chain CQ over the raw data.
fn brute_force_scores(data: &[RelData], f: &ScoreFn, k: usize) -> Vec<f64> {
    let mut partials: Vec<(i64, f64)> = data[0].rows.clone();
    for rel in &data[1..] {
        let mut next = Vec::new();
        for (k1, s1) in &partials {
            for (k2, s2) in &rel.rows {
                if k1 == k2 {
                    next.push((*k2, s1 * s2));
                }
            }
        }
        partials = next;
    }
    let mut scores: Vec<f64> = partials.iter().map(|(_, s)| f.static_factor * s).collect();
    scores.sort_by(|a, b| b.total_cmp(a));
    scores.truncate(k);
    scores
}

/// Drive the manager's plan graph to completion, fault-free.
fn run_atc(manager: &mut QsManager, sources: &Sources, stats: &mut ExecStats) {
    let governor = SourceGovernor::new(RetryPolicy::default());
    Atc::new(SchedulingPolicy::RoundRobin).run_governed(
        manager.graph_mut(),
        sources,
        &governor,
        stats,
    );
}

fn run_engine(data: &[RelData], key_range: i64, k: usize) -> (Vec<f64>, f64) {
    let catalog = chain_catalog(data, key_range);
    let sources = build_sources(data);
    let cq = chain_cq(0, 0, &catalog, data.len());
    let f = ScoreFn::discover(UserId::new(0), data.len());
    let upper = f.upper_bound(&cq, &catalog).get();
    let mut manager = QsManager::new(usize::MAX);
    let optimizer = Optimizer::new(
        &catalog,
        OptimizerConfig {
            k,
            ..OptimizerConfig::default()
        },
    );
    let (spec, _) = {
        let interner = manager.shared_interner();
        let oracle = manager.reuse_oracle();
        optimizer.optimize(&[(&cq, &f)], &oracle, None, &interner)
    };
    manager.graft(&spec, &sources, k);
    let mut stats = ExecStats::new();
    stats.submit(UqId::new(0), 0);
    run_atc(&mut manager, &sources, &mut stats);
    let rm = manager.rank_merge_of(UqId::new(0)).unwrap();
    let scores = manager
        .graph()
        .rank_merge(rm)
        .results()
        .iter()
        .map(|r| r.score.get())
        .collect();
    (scores, upper)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// End-to-end top-k == brute force, for random 2-chain instances.
    #[test]
    fn engine_topk_matches_brute_force_2chain(
        a in rel_data(24, 6),
        b in rel_data(24, 6),
        k in 1usize..12,
    ) {
        let data = vec![a, b];
        // NB: the catalog stats say max_score = 1.0, which is ≥ any actual
        // score — bounds stay sound even when the data's true max is lower.
        let (got, upper) = run_engine(&data, 6, k);
        let f = ScoreFn::discover(UserId::new(0), 2);
        let want = brute_force_scores(&data, &f, k);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            prop_assert!((g - w).abs() < 1e-12, "got {} want {}", g, w);
        }
        for g in &got {
            prop_assert!(*g <= upper + 1e-12, "score {} exceeds U {}", g, upper);
        }
    }

    /// Same for 3-chains (deeper plans, possible pushdowns).
    #[test]
    fn engine_topk_matches_brute_force_3chain(
        a in rel_data(12, 4),
        b in rel_data(12, 4),
        c in rel_data(12, 4),
        k in 1usize..8,
    ) {
        let data = vec![a, b, c];
        let (got, _) = run_engine(&data, 4, k);
        let f = ScoreFn::discover(UserId::new(0), 3);
        let want = brute_force_scores(&data, &f, k);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            prop_assert!((g - w).abs() < 1e-12, "got {} want {}", g, w);
        }
    }

    /// `Tuple::join`'s one-pass merge equals the sort-based construction:
    /// for up to `max_atoms` (6) distinct relations and *every* split of
    /// them into two sides, both join orders give the tuple
    /// `Tuple::from_parts` builds from the concatenation — same parts,
    /// strictly sorted, bit-identical raw product and score.
    #[test]
    fn tuple_join_equals_sorted_construction(
        parts in prop::collection::vec((0u32..40, 0.0f64..=1.0, 0.25f64..4.0), 2..=6),
        static_factor in 0.1f64..2.0,
    ) {
        // Distinct relations, in the (arbitrary) order they were drawn.
        let mut rows: Vec<Arc<BaseTuple>> = Vec::new();
        let mut weights = Vec::new();
        for (i, (rel, score, weight)) in parts.iter().enumerate() {
            let rel = RelId::new(*rel);
            if rows.iter().all(|r| r.rel != rel) {
                rows.push(Arc::new(BaseTuple::new(rel, i as u64, vec![], *score)));
                // Every other relation stays at the implicit weight 1.0.
                if i % 2 == 0 {
                    weights.push((rel, *weight));
                }
            }
        }
        let f = ScoreFn::banks(UserId::new(0), static_factor, weights);
        let whole = Tuple::from_parts(rows.clone());
        // The score walk itself: static · ∏ (w_r · s_r) in relation order.
        let by_lookup = whole
            .parts()
            .iter()
            .fold(static_factor, |s, p| s * (f.weight(p.rel) * p.raw_score));
        prop_assert_eq!(f.score(&whole).get().to_bits(), by_lookup.to_bits());
        for mask in 0u32..(1 << rows.len()) {
            let side = |want: bool| -> Vec<Arc<BaseTuple>> {
                rows.iter()
                    .enumerate()
                    .filter(|(i, _)| (mask >> i & 1 == 1) == want)
                    .map(|(_, r)| Arc::clone(r))
                    .collect()
            };
            let (a, b) = (Tuple::from_parts(side(true)), Tuple::from_parts(side(false)));
            let ab = a.join(&b);
            prop_assert_eq!(&ab, &b.join(&a));
            prop_assert_eq!(&ab, &whole);
            prop_assert!(ab.parts().windows(2).all(|w| w[0].rel < w[1].rel));
            prop_assert_eq!(
                ab.raw_score_product().to_bits(),
                whole.raw_score_product().to_bits()
            );
            prop_assert_eq!(
                f.score(&ab).get().to_bits(),
                f.score(&whole).get().to_bits()
            );
        }
    }

    /// Warm two-session execution == cold execution (RecoverState is
    /// lossless and duplicate-free).
    #[test]
    fn warm_session_equals_cold_session(
        a in rel_data(20, 5),
        b in rel_data(20, 5),
        c in rel_data(20, 5),
        k in 2usize..8,
    ) {
        let data = vec![a, b, c];
        let catalog = chain_catalog(&data, 5);
        let f2 = ScoreFn::discover(UserId::new(0), 2);
        let f3 = ScoreFn::discover(UserId::new(0), 3);

        // Warm: run the 2-chain, then graft the 3-chain onto the same graph.
        let sources = build_sources(&data);
        let mut manager = QsManager::new(usize::MAX);
        let optimizer = Optimizer::new(&catalog, OptimizerConfig { k, ..OptimizerConfig::default() });
        let cq2 = chain_cq(0, 0, &catalog, 2);
        let (spec, _) = {
            let interner = manager.shared_interner();
            let oracle = manager.reuse_oracle();
            optimizer.optimize(&[(&cq2, &f2)], &oracle, None, &interner)
        };
        manager.graft(&spec, &sources, k);
        let mut stats = ExecStats::new();
        stats.submit(UqId::new(0), 0);
        run_atc(&mut manager, &sources, &mut stats);

        let cq3 = chain_cq(1, 1, &catalog, 3);
        let (spec, _) = {
            let interner = manager.shared_interner();
            let oracle = manager.reuse_oracle();
            optimizer.optimize(&[(&cq3, &f3)], &oracle, None, &interner)
        };
        manager.graft(&spec, &sources, k);
        stats.submit(UqId::new(1), 0);
        run_atc(&mut manager, &sources, &mut stats);
        let rm = manager.rank_merge_of(UqId::new(1)).unwrap();
        let warm: Vec<f64> = manager.graph().rank_merge(rm).results()
            .iter().map(|r| r.score.get()).collect();

        // Cold reference.
        let want = brute_force_scores(&data, &f3, k);
        prop_assert_eq!(warm.len(), want.len(), "warm {:?} want {:?}", warm, want);
        for (g, w) in warm.iter().zip(want.iter()) {
            prop_assert!((g - w).abs() < 1e-12, "got {} want {}", g, w);
        }
    }
}

proptest! {
    /// Over a shuffled multi-batch stream of conjunctive queries on one
    /// interner, the first batch recurring at the end reproduces its first
    /// pose's plan spec, cost, explored-state count and memo hits bit for
    /// bit: a batch's decisions depend on the batch alone, not on what the
    /// lane saw in between.
    #[test]
    fn recurring_batch_replays_its_first_pose(
        lens in prop::collection::vec(2usize..=4, 6..=9),
        shuffle_seed in 0u64..1000,
    ) {
        use qsys_opt::cost::NoReuse;
        use qsys_query::shared_interner;

        // A fixed 4-relation chain catalog; only its statistics matter to
        // the optimizer, the rows are never read here.
        let data: Vec<RelData> = (0..4)
            .map(|r| RelData {
                rows: (0..60).map(|i| ((i * (r + 3)) % 7, 0.5)).collect(),
            })
            .collect();
        let catalog = chain_catalog(&data, 7);
        // One chain CQ per length, ids in arrival order; chains share
        // prefixes, so multi-relation candidates exist and the search has
        // real decisions to make.
        let cqs: Vec<ConjunctiveQuery> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| chain_cq(i as u32, i as u32, &catalog, len))
            .collect();
        // Shuffle the stream (Fisher-Yates over an LCG), batch it, and
        // repeat the first batch.
        let mut order: Vec<usize> = (0..cqs.len()).collect();
        let mut state = shuffle_seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let mut batches: Vec<Vec<usize>> = order.chunks(3).map(|c| c.to_vec()).collect();
        batches.push(batches[0].clone());
        let f = ScoreFn::discover(UserId::new(0), 4);

        let interner = shared_interner();
        let optimizer = Optimizer::new(&catalog, OptimizerConfig::default());
        let poses: Vec<_> = batches
            .iter()
            .map(|batch| {
                let b: Vec<_> = batch.iter().map(|&i| (&cqs[i], &f)).collect();
                let (spec, stats) = optimizer.optimize(&b, &NoReuse, None, &interner);
                (
                    format!("{spec:?}"),
                    stats.explored,
                    stats.memo_hits,
                    stats.candidates,
                    stats.best_cost.to_bits(),
                )
            })
            .collect();
        prop_assert_eq!(poses.last().expect("nonempty"), &poses[0], "re-pose diverged");
    }

    /// Every stream read is one network round: read to exhaustion, a
    /// stream delivers its table in score order, the registry counts one
    /// round per tuple delivered, and `read` (the delegate kept for the
    /// benchmark) charges exactly what `try_read` charges.
    #[test]
    fn stream_reads_are_one_round_each(a in rel_data(40, 6)) {
        let table = build_sources(&[a]).table(RelId::new(0));
        let read_all = |fallible: bool| {
            let sources = Sources::new(SimClock::new(), 7);
            sources.register_shared(Arc::clone(&table));
            let mut stream = sources.open_stream(RelId::new(0), None);
            let mut seq = Vec::new();
            loop {
                let t = if fallible {
                    sources.try_read(&mut stream).expect("no injector, no fault")
                } else {
                    sources.read(&mut stream)
                };
                let Some(t) = t else { break };
                seq.push(t.parts()[0].row_id);
            }
            prop_assert_eq!(sources.stream_rounds(), sources.tuples_streamed());
            prop_assert_eq!(sources.tuples_streamed(), stream.delivered() as u64);
            (seq, sources.clock().breakdown().stream_read_us)
        };
        let (seq, us) = read_all(false);
        let in_score_order: Vec<u64> = table.rows().iter().map(|r| r.row_id).collect();
        prop_assert_eq!(&seq, &in_score_order);
        prop_assert_eq!(read_all(true), (seq, us), "read and try_read must charge alike");
    }
}
