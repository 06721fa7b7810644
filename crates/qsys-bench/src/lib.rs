//! Experiment drivers regenerating every table and figure of the paper's
//! evaluation (Section 7), plus ablations of this reproduction's own
//! choices (ATC scheduling, recovery, eviction, probe-cache sharing).
//!
//! Each `table4` / `fig7` / … function runs the experiment and returns
//! printable data; the `reproduce` binary is a thin argument parser over
//! them. All numbers are *simulated* (virtual-clock) quantities — the
//! sources are in-process tables charged on a virtual clock, not MySQL
//! over a WAN — so the claims under reproduction are about relative
//! behaviour between configurations, not absolute seconds.

use qsys::opt::cluster::ClusterConfig;
use qsys::opt::cost::NoReuse;
use qsys::opt::{HeuristicConfig, Optimizer, OptimizerConfig};
use qsys::query::CandidateConfig;
use qsys::types::SimClock;
use qsys::{run_workload, EngineConfig, RunReport, SharingMode};
use qsys_workload::gus::{self, GusConfig};
use qsys_workload::pfam::{self, PfamConfig};
use qsys_workload::Workload;

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-scale rows (full schema, reduced cardinalities).
    Small,
    /// The paper's cardinalities (20k–100k rows/relation) — slow.
    Paper,
}

/// Process-wide lane-thread override, set once by the `--lane-threads`
/// flag before any experiment runs; every engine the drivers build picks
/// it up (the config equivalent of `QSYS_LANE_THREADS`).
static LANE_THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();

/// Install the `--lane-threads` override (first call wins).
pub fn set_lane_threads(n: usize) {
    let _ = LANE_THREADS.set(n.max(1));
}

/// The lane-thread count experiments run under: the `--lane-threads`
/// override if given, else the engine default (env var / parallelism).
pub fn lane_threads() -> usize {
    LANE_THREADS
        .get()
        .copied()
        .unwrap_or_else(|| EngineConfig::default().lane_threads)
}

/// The four configurations of Section 7.1, in the paper's order.
pub fn all_modes() -> Vec<SharingMode> {
    vec![
        SharingMode::AtcCq,
        SharingMode::AtcUq,
        SharingMode::AtcFull,
        SharingMode::AtcCl(ClusterConfig::default()),
    ]
}

/// GUS workload for one instance seed.
pub fn gus_workload(seed: u64, scale: Scale) -> Workload {
    let cfg = match scale {
        Scale::Small => GusConfig::small(seed),
        Scale::Paper => GusConfig::paper(seed),
    };
    gus::generate(&cfg)
}

/// Pfam workload for one seed.
pub fn pfam_workload(seed: u64, scale: Scale) -> Workload {
    let cfg = match scale {
        Scale::Small => PfamConfig::small(seed),
        Scale::Paper => PfamConfig::paper(seed),
    };
    pfam::generate(&cfg)
}

/// The engine configuration used by the synthetic experiments: k = 50,
/// batches of 5, ≤ 20 CQs per user query — Section 7's setup.
pub fn gus_engine(mode: SharingMode, batch_size: usize) -> EngineConfig {
    EngineConfig {
        k: 50,
        batch_size,
        sharing: mode,
        candidate: CandidateConfig {
            max_cqs: 20,
            max_atoms: 6,
            matches_per_keyword: 3,
            ..CandidateConfig::default()
        },
        lane_threads: lane_threads(),
        // Explicit, not inherited from the environment: the shard sweep
        // opts in per arm, every other experiment stays unsharded.
        sharding: qsys::ShardConfig::off(),
        ..EngineConfig::default()
    }
}

/// The engine configuration for the Pfam experiments: "each user query
/// here resulted in 4 conjunctive queries" (Section 7.5).
pub fn pfam_engine(mode: SharingMode) -> EngineConfig {
    EngineConfig {
        k: 50,
        batch_size: 5,
        sharing: mode,
        candidate: CandidateConfig {
            max_cqs: 4,
            max_atoms: 6,
            matches_per_keyword: 2,
            ..CandidateConfig::default()
        },
        lane_threads: lane_threads(),
        sharding: qsys::ShardConfig::off(),
        ..EngineConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Perf snapshot: the repo's benchmark trajectory (BENCH_*.json).
// ---------------------------------------------------------------------------

/// One measured point of the hot path, plus the plan shape it produced.
///
/// `spec_*` pin the optimizer's *sharing decisions* (PlanSpec node / edge /
/// leaf counts) so that representation changes — like rekeying the sharing
/// structures on interned signature ids — can be verified decision-neutral.
#[derive(Clone, Debug)]
pub struct PerfSnapshot {
    /// Mean wall-clock µs per `Optimizer::optimize` call (reference batch).
    pub optimize_us: f64,
    /// Mean wall-clock µs per `QsManager::graft` of the resulting spec.
    pub graft_us: f64,
    /// Mean wall-clock µs per combined optimize+graft cycle over a warm
    /// manager (includes reuse-oracle and sig-index lookups).
    pub opt_graft_warm_us: f64,
    /// PlanSpec node count for the reference batch.
    pub spec_nodes: usize,
    /// PlanSpec edge count (join-input edges + one root edge per CQ).
    pub spec_edges: usize,
    /// Shared stream-leaf count in the reference spec.
    pub spec_stream_leaves: usize,
    /// CQ count of the reference batch.
    pub batch_cqs: usize,
    /// BestPlan states explored for the reference batch (search-space
    /// shape, independent of wall time — the trajectory should show the
    /// state count holding steady while µs/state falls).
    pub explored: usize,
    /// BestPlan memo hits for the reference batch.
    pub memo_hits: usize,
    /// Wall-clock ms for the full GUS workload end to end (ATC-FULL).
    pub end_to_end_ms: f64,
    /// Input tuples consumed by the end-to-end run.
    pub tuples_consumed: u64,
    /// Tuples consumed per wall-clock second end to end.
    pub tuples_per_sec: f64,
    /// Host threads available to the measurement (`available_parallelism`);
    /// a 1 here means the parallel arm below could only time-slice.
    pub host_parallelism: usize,
    /// Lane-thread cap the parallel ATC-CL arm ran under.
    pub lane_threads: usize,
    /// Lanes (clustered plan graphs) of the multi-cluster ATC-CL workload.
    pub atc_cl_lanes: usize,
    /// Wall-clock ms for the multi-cluster ATC-CL workload, lanes strictly
    /// sequential (`lane_threads = 1`).
    pub atc_cl_seq_ms: f64,
    /// Same workload with lanes on `lane_threads` worker threads.
    pub atc_cl_par_ms: f64,
    /// Upper bound on lane-parallel speedup for this workload, from the
    /// sequential arm's per-lane wall times (Σ / max): what
    /// `lane_threads ≥ lanes` approaches on a host with at least that many
    /// cores. On a single-core host the measured `atc_cl_par_ms` cannot
    /// reach this — compare it with `host_parallelism` when reading.
    pub atc_cl_speedup_bound: f64,
    /// Whether the parallel arm consumed bit-identical tuples and produced
    /// identical per-UQ statistics to the sequential arm (must be true —
    /// threading changes wall time, never results).
    pub atc_cl_identical: bool,
    /// Whether driving the figure workload incrementally through the
    /// sessionized `Engine`/`Session` API (submit one, step one) produced
    /// bit-identical per-UQ statistics and optimizer decisions to the
    /// scripted `run_workload` driver (must be true — admission timing is
    /// a scheduling freedom, never a semantic one).
    pub session_api_identical: bool,
    /// Tuples consumed by the ATC-CL workload (same in both arms).
    pub atc_cl_tuples: u64,
    /// Host wall-clock µs per lane in the parallel arm, by lane index.
    pub lane_wall_us: Vec<u64>,
    /// Whether a warm-started optimizer produced bit-identical plans and
    /// statistics to a cold optimizer over a multi-batch GUS stream (must
    /// be true — the warm store is a cache, never a policy change).
    pub warm_identical: bool,
    /// Simulated stream-read network rounds of the end-to-end run
    /// (`Sources::stream_rounds`, summed over lanes).
    pub stream_rounds: u64,
    /// Fetch-ahead sweep over the figure workload: how response time and
    /// network rounds shift with `CostProfile::fetch_batch`.
    pub fetch_batch_sweep: Vec<FetchBatchPoint>,
}

/// One point of the fetch-ahead sweep: the GUS figure workload run with
/// `CostProfile::fetch_batch` set to `fetch_batch`. Tuple sequences are
/// provably unchanged by batching (property-tested), so `tuples_consumed`
/// must agree across points; rounds and response time shift.
#[derive(Clone, Debug)]
pub struct FetchBatchPoint {
    /// `CostProfile::fetch_batch` for this run.
    pub fetch_batch: usize,
    /// Mean virtual response time across UQs, µs.
    pub mean_response_us: f64,
    /// Simulated stream-read network rounds.
    pub stream_rounds: u64,
    /// Input tuples consumed (identical across the sweep).
    pub tuples_consumed: u64,
}

/// Run the fetch-ahead sweep: the seed-`seed` GUS workload under ATC-FULL
/// (optionally truncated to `limit` UQs) at each `fetch_batch` value.
pub fn sweep_fetch_batch(
    seed: u64,
    scale: Scale,
    batches: &[usize],
    limit: Option<usize>,
) -> Vec<FetchBatchPoint> {
    batches
        .iter()
        .map(|&fetch_batch| {
            let w = gus_workload(seed, scale);
            let mut engine = gus_engine(SharingMode::AtcFull, 5);
            engine.cost_profile.fetch_batch = fetch_batch;
            let r = run_workload(&w, &engine, limit).expect("runs");
            FetchBatchPoint {
                fetch_batch,
                mean_response_us: r.mean_response_us(),
                stream_rounds: r.stream_rounds,
                tuples_consumed: r.tuples_consumed,
            }
        })
        .collect()
}

/// Print the fetch-ahead sweep.
pub fn print_fetch_batch_sweep(points: &[FetchBatchPoint]) {
    println!("Fetch-ahead sweep: response-time shift from stream fetch batching");
    println!(
        "{:>11} {:>12} {:>12} {:>12} {:>9}",
        "fetch_batch", "mean resp(s)", "rounds", "tuples", "resp Δ%"
    );
    let base = points.first().map(|p| p.mean_response_us).unwrap_or(0.0);
    for p in points {
        println!(
            "{:>11} {:>12.3} {:>12} {:>12} {:>+9.1}",
            p.fetch_batch,
            p.mean_response_us / 1e6,
            p.stream_rounds,
            p.tuples_consumed,
            100.0 * (p.mean_response_us - base) / base.max(1e-9),
        );
    }
}

/// One batch's decision fingerprint, as produced by
/// [`optimize_decision_stream`]: everything the optimizer decided.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecisionRow {
    /// Full `PlanSpec` debug dump (pins plan shape and signatures).
    pub spec_debug: String,
    /// BestPlan states explored.
    pub explored: usize,
    /// BestPlan memo hits.
    pub memo_hits: usize,
    /// Multi-relation candidates entering the search.
    pub candidates: usize,
    /// Winning cost, bit-exact.
    pub best_cost_bits: u64,
}

/// Optimize a stream of batches against one live QS manager — warm-started
/// or cold — and fingerprint every batch's decisions. This is **the**
/// warm-vs-cold identity harness: [`warm_cold_identity`] (the `reproduce
/// bench` gate) and `bench_warm_opt` (the CI micro-bench smoke) both
/// compare its warm and cold outputs, so the two gates enforce one
/// invariant by construction.
pub fn optimize_decision_stream(
    catalog: &qsys::catalog::Catalog,
    opt_config: &OptimizerConfig,
    batches: &[Vec<(&qsys::query::ConjunctiveQuery, &qsys::query::ScoreFn)>],
    warm: bool,
) -> Vec<DecisionRow> {
    use qsys::state::QsManager;

    let manager = QsManager::new(usize::MAX);
    let optimizer = Optimizer::new(catalog, opt_config.clone());
    let interner = manager.shared_interner();
    let warm_cell = warm.then(|| manager.warm_cell());
    batches
        .iter()
        .map(|batch| {
            let oracle = manager.reuse_oracle();
            let (spec, stats) =
                optimizer.optimize_warm(batch, &oracle, None, &interner, warm_cell.as_deref());
            DecisionRow {
                spec_debug: format!("{spec:?}"),
                explored: stats.explored,
                memo_hits: stats.memo_hits,
                candidates: stats.candidates,
                best_cost_bits: stats.best_cost.to_bits(),
            }
        })
        .collect()
}

/// Drive the first three 5-UQ batches of the seed-41 GUS stream — plus a
/// repeat of the first batch, which the warm lane searches entirely from
/// cached inputs — through two lanes: one warm-started, one cold. Whether
/// plans, costs, explored-state counts, and memo hits are all bit-identical
/// per batch; this is the check the CI bench smoke gate enforces.
pub fn warm_cold_identity() -> bool {
    let workload = gus_workload(41, Scale::Small);
    let engine = gus_engine(SharingMode::AtcFull, 5);
    let (uqs, _) = qsys::generate_user_queries(&workload, &engine).expect("generates");
    let opt_config = OptimizerConfig {
        k: engine.k,
        heuristics: engine.heuristics.clone(),
        cost_profile: engine.cost_profile,
        share_subexpressions: true,
        ..OptimizerConfig::default()
    };
    let mut batches: Vec<Vec<(&qsys::query::ConjunctiveQuery, &qsys::query::ScoreFn)>> = uqs
        .chunks(5)
        .take(3)
        .map(|chunk| {
            chunk
                .iter()
                .flat_map(|uq| uq.cqs.iter().map(|(cq, f)| (cq, f)))
                .collect()
        })
        .collect();
    let repeat = batches[0].clone();
    batches.push(repeat);

    let warm_side = optimize_decision_stream(&workload.catalog, &opt_config, &batches, true);
    let cold_side = optimize_decision_stream(&workload.catalog, &opt_config, &batches, false);
    warm_side == cold_side
}

/// The multi-cluster ATC-CL reference workload: the seed-41 GUS instance
/// with a longer script (40 UQs) and clustering thresholds that actually
/// split it (several plan graphs with real work in each) — the shape the
/// lane-threading tentpole exists for.
pub fn atc_cl_reference_engine(lane_threads_cap: usize) -> EngineConfig {
    let mut engine = gus_engine(SharingMode::AtcCl(ClusterConfig { t_m: 2, t_c: 0.9 }), 5);
    engine.lane_threads = lane_threads_cap;
    engine
}

/// The workload for [`atc_cl_reference_engine`].
pub fn atc_cl_reference_workload() -> Workload {
    let mut cfg = GusConfig::small(41);
    cfg.user_queries = 40;
    gus::generate(&cfg)
}

/// The optimizer+graft shape of one batch: node/edge/leaf counts.
pub fn spec_shape(spec: &qsys::opt::PlanSpec) -> (usize, usize, usize) {
    use qsys::opt::SpecNodeKind;
    let nodes = spec.nodes.len();
    let mut edges = spec.cq_plans.len(); // one root edge per CQ
    let mut leaves = 0;
    for node in &spec.nodes {
        match &node.kind {
            SpecNodeKind::Stream => leaves += 1,
            SpecNodeKind::Join { inputs, .. } => edges += inputs.len(),
        }
    }
    (nodes, edges, leaves)
}

/// Measure the optimizer+graft hot path, an end-to-end workload run, and
/// the sequential-vs-threaded multi-cluster ATC-CL comparison.
///
/// `iters` controls how many optimize/graft cycles are averaged; the
/// reference batch is the first `batch_size`-UQ batch of the seed-41 GUS
/// workload — the same inputs `bench_optimizer` uses. `lane_threads_cap`
/// sets the parallel ATC-CL arm's thread count (defaults to the host's
/// parallelism, min 2 so the threaded path is exercised even on one core).
pub fn perf_snapshot(iters: usize, lane_threads_cap: Option<usize>) -> PerfSnapshot {
    use qsys::state::QsManager;
    use std::time::Instant;

    let workload = gus_workload(41, Scale::Small);
    let engine = gus_engine(SharingMode::AtcFull, 5);
    let (uqs, _) = qsys::generate_user_queries(&workload, &engine).expect("generates");
    let batch: Vec<_> = uqs
        .iter()
        .take(5)
        .flat_map(|uq| uq.cqs.iter().map(|(cq, f)| (cq, f)))
        .collect();
    let opt_config = OptimizerConfig {
        k: engine.k,
        heuristics: engine.heuristics.clone(),
        cost_profile: engine.cost_profile,
        share_subexpressions: true,
        ..OptimizerConfig::default()
    };

    // Cold optimize (fresh manager each cycle) and the graft of its spec.
    let mut optimize_us = 0.0;
    let mut graft_us = 0.0;
    let mut shape = (0, 0, 0);
    let mut opt_stats = qsys::opt::OptStats::default();
    for _ in 0..iters {
        let mut manager = QsManager::new(usize::MAX);
        let optimizer = Optimizer::new(&workload.catalog, opt_config.clone());
        let sources = qsys::source::Sources::with_provider(
            SimClock::new(),
            engine.cost_profile,
            engine.seed,
            workload.tables.provider(),
        );
        let t0 = Instant::now();
        let (spec, stats) = {
            let interner = manager.shared_interner();
            let oracle = manager.reuse_oracle();
            optimizer.optimize(&batch, &oracle, None, &interner)
        };
        let t1 = Instant::now();
        manager.graft(&spec, &sources, engine.k);
        let t2 = Instant::now();
        optimize_us += (t1 - t0).as_secs_f64() * 1e6;
        graft_us += (t2 - t1).as_secs_f64() * 1e6;
        shape = spec_shape(&spec);
        opt_stats = stats;
    }

    // Warm cycles: successive batches grafted onto one live manager, so
    // reuse-oracle probes and sig-index hits are on the measured path.
    let mut warm_us = 0.0;
    for _ in 0..iters {
        let mut manager = QsManager::new(usize::MAX);
        let optimizer = Optimizer::new(&workload.catalog, opt_config.clone());
        let sources = qsys::source::Sources::with_provider(
            SimClock::new(),
            engine.cost_profile,
            engine.seed,
            workload.tables.provider(),
        );
        let t0 = Instant::now();
        for chunk in uqs.chunks(5).take(3) {
            let batch: Vec<_> = chunk
                .iter()
                .flat_map(|uq| uq.cqs.iter().map(|(cq, f)| (cq, f)))
                .collect();
            let (spec, _) = {
                let interner = manager.shared_interner();
                let oracle = manager.reuse_oracle();
                optimizer.optimize(&batch, &oracle, None, &interner)
            };
            manager.graft(&spec, &sources, engine.k);
        }
        warm_us += t0.elapsed().as_secs_f64() * 1e6;
    }

    let warm_identical = warm_cold_identity();

    // Fetch-ahead sweep: the response-time shift stream batching buys on
    // the figure workload (10 UQs keep the sweep to seconds).
    let fetch_batch_sweep = sweep_fetch_batch(41, Scale::Small, &[1, 8, 32], Some(10));

    // End to end: the full workload under ATC-FULL, wall-clocked.
    let t0 = std::time::Instant::now();
    let report = run_workload(&workload, &engine, None).expect("runs");
    let end_to_end = t0.elapsed();

    // Multi-cluster ATC-CL: the same lanes strictly sequential, then on
    // worker threads. Everything except wall time must be identical.
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = lane_threads_cap.unwrap_or(host_parallelism).max(2);
    let cl_workload = atc_cl_reference_workload();
    let t0 = std::time::Instant::now();
    let seq = run_workload(&cl_workload, &atc_cl_reference_engine(1), None).expect("runs");
    let atc_cl_seq_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = std::time::Instant::now();
    let par = run_workload(&cl_workload, &atc_cl_reference_engine(threads), None).expect("runs");
    let atc_cl_par_ms = t0.elapsed().as_secs_f64() * 1e3;
    let seq_total: u64 = seq.lane_wall_us.iter().sum();
    let seq_max: u64 = seq.lane_wall_us.iter().copied().max().unwrap_or(1);
    let atc_cl_speedup_bound = seq_total as f64 / seq_max.max(1) as f64;
    let atc_cl_identical = seq.tuples_consumed == par.tuples_consumed
        && seq.tuples_streamed == par.tuples_streamed
        && seq.probes == par.probes
        && seq.per_uq.len() == par.per_uq.len()
        && seq.per_uq.iter().zip(par.per_uq.iter()).all(|(a, b)| {
            a.uq == b.uq
                && a.response_us == b.response_us
                && a.results == b.results
                && a.cqs_executed == b.cqs_executed
                && a.lane == b.lane
        });

    // Sessionized-API arm: the same figure workload submitted one query
    // at a time through per-user sessions, stepping after every arrival —
    // the service-shaped drive must reproduce the scripted driver's
    // decisions and statistics bit for bit.
    let session_api_identical = {
        let mut session_engine = qsys::Engine::for_workload(&workload, engine.clone());
        for q in &workload.queries {
            let mut session = session_engine.session(q.user);
            if let Some(costs) = &q.edge_costs {
                session = session.with_edge_costs(costs.clone());
            }
            let _ = session.submit(&q.keywords, q.arrival_us);
            session_engine.step();
        }
        session_engine.run_until_idle();
        let stepped = session_engine.report();
        stepped.tuples_consumed == report.tuples_consumed
            && stepped.tuples_streamed == report.tuples_streamed
            && stepped.probes == report.probes
            && stepped.breakdown == report.breakdown
            && stepped.per_uq.len() == report.per_uq.len()
            && stepped
                .per_uq
                .iter()
                .zip(report.per_uq.iter())
                .all(|(a, b)| {
                    a.uq == b.uq
                        && a.response_us == b.response_us
                        && a.results == b.results
                        && a.cqs_executed == b.cqs_executed
                })
            && stepped.opt_events.len() == report.opt_events.len()
            && stepped
                .opt_events
                .iter()
                .zip(report.opt_events.iter())
                .all(|(a, b)| {
                    a.batch_cqs == b.batch_cqs
                        && a.candidates == b.candidates
                        && a.explored == b.explored
                })
    };

    let secs = end_to_end.as_secs_f64().max(1e-9);
    PerfSnapshot {
        optimize_us: optimize_us / iters.max(1) as f64,
        graft_us: graft_us / iters.max(1) as f64,
        opt_graft_warm_us: warm_us / iters.max(1) as f64,
        spec_nodes: shape.0,
        spec_edges: shape.1,
        spec_stream_leaves: shape.2,
        batch_cqs: batch.len(),
        explored: opt_stats.explored,
        memo_hits: opt_stats.memo_hits,
        end_to_end_ms: secs * 1e3,
        tuples_consumed: report.tuples_consumed,
        tuples_per_sec: report.tuples_consumed as f64 / secs,
        host_parallelism,
        lane_threads: threads,
        atc_cl_lanes: par.lanes,
        atc_cl_seq_ms,
        atc_cl_par_ms,
        atc_cl_speedup_bound,
        atc_cl_identical,
        session_api_identical,
        atc_cl_tuples: par.tuples_consumed,
        lane_wall_us: par.lane_wall_us,
        warm_identical,
        stream_rounds: report.stream_rounds,
        fetch_batch_sweep,
    }
}

impl PerfSnapshot {
    /// Combined optimize+graft µs (the headline hot-path number).
    pub fn opt_graft_us(&self) -> f64 {
        self.optimize_us + self.graft_us
    }

    /// Lane speedup of the parallel ATC-CL arm over sequential, percent.
    pub fn atc_cl_speedup_pct(&self) -> f64 {
        100.0 * (1.0 - self.atc_cl_par_ms / self.atc_cl_seq_ms.max(1e-9))
    }

    /// Render as a JSON object (no external dependencies available).
    pub fn to_json(&self) -> String {
        let lane_wall: Vec<String> = self.lane_wall_us.iter().map(u64::to_string).collect();
        let sweep: Vec<String> = self
            .fetch_batch_sweep
            .iter()
            .map(|p| {
                format!(
                    "{{\"fetch_batch\": {}, \"mean_response_us\": {:.1}, \
                     \"stream_rounds\": {}, \"tuples_consumed\": {}}}",
                    p.fetch_batch, p.mean_response_us, p.stream_rounds, p.tuples_consumed
                )
            })
            .collect();
        format!(
            "{{\n    \"optimize_us\": {:.1},\n    \"graft_us\": {:.1},\n    \
             \"opt_graft_us\": {:.1},\n    \"opt_graft_warm_us\": {:.1},\n    \
             \"warm_identical\": {},\n    \
             \"spec_nodes\": {},\n    \"spec_edges\": {},\n    \
             \"spec_stream_leaves\": {},\n    \"batch_cqs\": {},\n    \
             \"explored\": {},\n    \"memo_hits\": {},\n    \
             \"end_to_end_ms\": {:.1},\n    \"tuples_consumed\": {},\n    \
             \"tuples_per_sec\": {:.0},\n    \"stream_rounds\": {},\n    \
             \"host_parallelism\": {},\n    \"lane_threads\": {},\n    \
             \"atc_cl_lanes\": {},\n    \"atc_cl_seq_ms\": {:.1},\n    \
             \"atc_cl_par_ms\": {:.1},\n    \"atc_cl_speedup_pct\": {:.1},\n    \
             \"atc_cl_speedup_bound\": {:.2},\n    \
             \"atc_cl_identical\": {},\n    \"session_api_identical\": {},\n    \
             \"atc_cl_tuples\": {},\n    \
             \"lane_wall_us\": [{}],\n    \"fetch_batch_sweep\": [{}]\n  }}",
            self.optimize_us,
            self.graft_us,
            self.opt_graft_us(),
            self.opt_graft_warm_us,
            self.warm_identical,
            self.spec_nodes,
            self.spec_edges,
            self.spec_stream_leaves,
            self.batch_cqs,
            self.explored,
            self.memo_hits,
            self.end_to_end_ms,
            self.tuples_consumed,
            self.tuples_per_sec,
            self.stream_rounds,
            self.host_parallelism,
            self.lane_threads,
            self.atc_cl_lanes,
            self.atc_cl_seq_ms,
            self.atc_cl_par_ms,
            self.atc_cl_speedup_pct(),
            self.atc_cl_speedup_bound,
            self.atc_cl_identical,
            self.session_api_identical,
            self.atc_cl_tuples,
            lane_wall.join(", "),
            sweep.join(", "),
        )
    }
}

// ---------------------------------------------------------------------------
// Table 4: average number of conjunctive queries executed per user query.
// ---------------------------------------------------------------------------

/// Average CQs executed to return top-50, per UQ, across instance seeds.
pub fn table4(seeds: &[u64], scale: Scale) -> Vec<f64> {
    let mut sums: Vec<f64> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    for &seed in seeds {
        let w = gus_workload(seed, scale);
        let report = run_workload(&w, &gus_engine(SharingMode::AtcFull, 5), None).expect("runs");
        for u in &report.per_uq {
            let i = u.uq.index();
            if sums.len() <= i {
                sums.resize(i + 1, 0.0);
                counts.resize(i + 1, 0);
            }
            sums[i] += u.cqs_executed as f64;
            counts[i] += 1;
        }
    }
    sums.iter()
        .zip(counts.iter())
        .map(|(s, c)| if *c == 0 { 0.0 } else { s / *c as f64 })
        .collect()
}

/// Pretty-print Table 4.
pub fn print_table4(avgs: &[f64]) {
    println!("Table 4: average # conjunctive queries executed per user query (top-50)");
    print!("UQ     ");
    for i in 0..avgs.len() {
        print!(" {:>6}", i + 1);
    }
    println!();
    print!("Queries");
    for v in avgs {
        print!(" {v:>6.2}");
    }
    println!();
}

// ---------------------------------------------------------------------------
// Figures 7 & 8: per-UQ running times and execution-time breakdown.
// ---------------------------------------------------------------------------

/// One configuration's outcome over the GUS workload, averaged over seeds.
pub struct ConfigRun {
    /// Configuration label.
    pub label: String,
    /// Per-UQ mean response times (seconds).
    pub per_uq_secs: Vec<f64>,
    /// Mean normalized (stream, probe, join) execution fractions.
    pub fractions: (f64, f64, f64),
    /// Total tuples consumed (summed over seeds).
    pub tuples_consumed: u64,
    /// Raw reports (one per seed).
    pub reports: Vec<RunReport>,
}

/// Run the GUS workload under every configuration.
pub fn fig7_runs(seeds: &[u64], scale: Scale, limit: Option<usize>) -> Vec<ConfigRun> {
    all_modes()
        .into_iter()
        .map(|mode| {
            let label = mode.label().to_string();
            let mut reports = Vec::new();
            for &seed in seeds {
                let w = gus_workload(seed, scale);
                reports.push(run_workload(&w, &gus_engine(mode.clone(), 5), limit).expect("runs"));
            }
            summarize(label, reports)
        })
        .collect()
}

fn summarize(label: String, reports: Vec<RunReport>) -> ConfigRun {
    let n_uq = reports.iter().map(|r| r.per_uq.len()).max().unwrap_or(0);
    let mut per_uq_secs = vec![0.0; n_uq];
    let mut counts = vec![0u32; n_uq];
    let mut fractions = (0.0, 0.0, 0.0);
    let mut tuples = 0;
    for r in &reports {
        for u in &r.per_uq {
            let i = u.uq.index();
            if i < n_uq {
                per_uq_secs[i] += u.response_us as f64 / 1e6;
                counts[i] += 1;
            }
        }
        let f = r.breakdown.exec_fractions();
        fractions.0 += f.0;
        fractions.1 += f.1;
        fractions.2 += f.2;
        tuples += r.tuples_consumed;
    }
    for (v, c) in per_uq_secs.iter_mut().zip(counts.iter()) {
        if *c > 0 {
            *v /= *c as f64;
        }
    }
    let n = reports.len().max(1) as f64;
    ConfigRun {
        label,
        per_uq_secs,
        fractions: (fractions.0 / n, fractions.1 / n, fractions.2 / n),
        tuples_consumed: tuples,
        reports,
    }
}

/// Print Figure 7 (running time per UQ, per configuration).
pub fn print_fig7(runs: &[ConfigRun]) {
    println!("Figure 7: running times (virtual s) to return top-50 per user query");
    print!("{:>4}", "UQ");
    for r in runs {
        print!(" {:>9}", r.label);
    }
    println!();
    let n = runs.iter().map(|r| r.per_uq_secs.len()).max().unwrap_or(0);
    for i in 0..n {
        print!("{:>4}", i + 1);
        for r in runs {
            match r.per_uq_secs.get(i) {
                Some(v) => print!(" {v:>9.3}"),
                None => print!(" {:>9}", "-"),
            }
        }
        println!();
    }
    print!("mean");
    for r in runs {
        let m: f64 = r.per_uq_secs.iter().sum::<f64>() / r.per_uq_secs.len().max(1) as f64;
        print!(" {m:>9.3}");
    }
    println!();
    // End-of-run source accounting: network rounds spent on stream reads
    // (the quantity fetch-ahead amortizes).
    print!("rnds");
    for r in runs {
        let rounds: u64 = r.reports.iter().map(|rep| rep.stream_rounds).sum();
        print!(" {rounds:>9}");
    }
    println!();
    // Adaptive accounting, only when any run engaged the adaptive path —
    // the default (adaptive off) footer stays byte-identical.
    let engaged = runs
        .iter()
        .any(|r| r.reports.iter().any(|rep| rep.adaptive.any()));
    if engaged {
        print!("adpt");
        for r in runs {
            let (checks, replans, corrected) = r.reports.iter().fold((0, 0, 0), |acc, rep| {
                let a = &rep.adaptive;
                (
                    acc.0 + a.drift_checks,
                    acc.1 + a.replans,
                    acc.2 + a.cards_corrected,
                )
            });
            print!(" {:>9}", format!("{checks}/{replans}/{corrected}"));
        }
        println!("  (drift checks / replans / cards corrected)");
    }
}

/// Print Figure 8 (normalized execution-time breakdown).
pub fn print_fig8(runs: &[ConfigRun]) {
    println!("Figure 8: breakdown of execution time (fractions of total)");
    println!(
        "{:>10} {:>12} {:>14} {:>10}",
        "config", "stream read", "random access", "join"
    );
    for r in runs {
        println!(
            "{:>10} {:>12.3} {:>14.3} {:>10.3}",
            r.label, r.fractions.0, r.fractions.1, r.fractions.2
        );
    }
}

// ---------------------------------------------------------------------------
// Figure 9: SINGLE-OPT (batch = 1) vs BATCH-OPT (batch = 5), ATC-CL.
// ---------------------------------------------------------------------------

/// One arm of the Figure 9 comparison.
pub struct Fig9Arm {
    /// Per-UQ response times (s).
    pub per_uq_secs: Vec<f64>,
    /// Total execution time for the whole workload (s, summed over lanes).
    pub total_exec_secs: f64,
    /// Total input tuples consumed.
    pub tuples_consumed: u64,
}

/// SINGLE-OPT (batch = 1) vs BATCH-OPT (batch = 5), both under ATC-CL.
pub fn fig9(seeds: &[u64], scale: Scale) -> (Fig9Arm, Fig9Arm) {
    let mode = || SharingMode::AtcCl(ClusterConfig::default());
    let run = |batch: usize| {
        let mut reports = Vec::new();
        for &seed in seeds {
            let w = gus_workload(seed, scale);
            reports.push(run_workload(&w, &gus_engine(mode(), batch), None).expect("runs"));
        }
        let total_exec_secs = reports
            .iter()
            .map(|r| r.breakdown.exec_us() as f64 / 1e6)
            .sum::<f64>()
            / reports.len().max(1) as f64;
        let summary = summarize(format!("batch={batch}"), reports);
        Fig9Arm {
            per_uq_secs: summary.per_uq_secs,
            total_exec_secs,
            tuples_consumed: summary.tuples_consumed,
        }
    };
    (run(1), run(5))
}

/// Print Figure 9.
pub fn print_fig9(single: &Fig9Arm, batch: &Fig9Arm) {
    println!("Figure 9: individually (SINGLE-OPT) vs batch-optimized (BATCH-OPT) queries");
    println!("{:>4} {:>12} {:>12}", "UQ", "SINGLE-OPT", "BATCH-OPT");
    let (s, b) = (&single.per_uq_secs, &batch.per_uq_secs);
    for i in 0..s.len().max(b.len()) {
        println!(
            "{:>4} {:>12.3} {:>12.3}",
            i + 1,
            s.get(i).copied().unwrap_or(f64::NAN),
            b.get(i).copied().unwrap_or(f64::NAN)
        );
    }
    let ms: f64 = s.iter().sum::<f64>() / s.len().max(1) as f64;
    let mb: f64 = b.iter().sum::<f64>() / b.len().max(1) as f64;
    println!("mean {ms:>11.3} {mb:>12.3}");
    println!(
        "workload total exec time (s): SINGLE-OPT {:.1} vs BATCH-OPT {:.1}",
        single.total_exec_secs, batch.total_exec_secs
    );
    println!(
        "tuples consumed:              SINGLE-OPT {} vs BATCH-OPT {}",
        single.tuples_consumed, batch.tuples_consumed
    );
    println!(
        "(per-UQ latency under batching includes co-batched queries' work — \
         the sharing gain shows in workload totals)"
    );
}

// ---------------------------------------------------------------------------
// Figure 10: total work (tuples consumed), 5 UQs vs 15 UQs.
// ---------------------------------------------------------------------------

/// Per configuration: `(label, tuples after 5 UQs, tuples after 15 UQs)`.
pub fn fig10(seeds: &[u64], scale: Scale) -> Vec<(String, u64, u64)> {
    all_modes()
        .into_iter()
        .map(|mode| {
            let label = mode.label().to_string();
            let mut five = 0;
            let mut fifteen = 0;
            for &seed in seeds {
                let w = gus_workload(seed, scale);
                five += run_workload(&w, &gus_engine(mode.clone(), 5), Some(5))
                    .expect("runs")
                    .tuples_consumed;
                fifteen += run_workload(&w, &gus_engine(mode.clone(), 5), None)
                    .expect("runs")
                    .tuples_consumed;
            }
            (label, five, fifteen)
        })
        .collect()
}

/// Print Figure 10.
pub fn print_fig10(rows: &[(String, u64, u64)]) {
    println!("Figure 10: total work done (input tuples consumed), 5 vs 15 UQs");
    println!(
        "{:>10} {:>12} {:>12} {:>8}",
        "config", "5-UQ", "15-UQ", "ratio"
    );
    for (label, five, fifteen) in rows {
        println!(
            "{:>10} {:>12} {:>12} {:>8.2}",
            label,
            five,
            fifteen,
            *fifteen as f64 / (*five).max(1) as f64
        );
    }
}

// ---------------------------------------------------------------------------
// Figure 11: optimization time vs number of candidate inputs.
// ---------------------------------------------------------------------------

/// Sweep the candidate cap over one batch of 5 user queries; returns
/// `(candidates, explored states, virtual µs, wall µs)` per point.
pub fn fig11(seed: u64, scale: Scale) -> Vec<(usize, usize, u64, u128)> {
    let w = gus_workload(seed, scale);
    let engine = gus_engine(SharingMode::AtcFull, 5);
    let (uqs, _) = qsys::generate_user_queries(&w, &engine).expect("generates");
    let batch: Vec<_> = uqs
        .iter()
        .take(5)
        .flat_map(|uq| uq.cqs.iter().map(|(cq, f)| (cq, f)))
        .collect();
    let mut out = Vec::new();
    for cap in 0..=14 {
        let config = OptimizerConfig {
            k: 50,
            heuristics: HeuristicConfig {
                max_candidates: cap,
                min_sharing: 1,
                low_cardinality: f64::MAX, // admit everything up to the cap
                ..HeuristicConfig::default()
            },
            ..OptimizerConfig::default()
        };
        let optimizer = Optimizer::new(&w.catalog, config);
        let clock = SimClock::new();
        let wall = std::time::Instant::now();
        let interner = qsys::query::SigCell::new(qsys::query::SigInterner::new());
        let (_, stats) = optimizer.optimize(&batch, &NoReuse, Some(&clock), &interner);
        let wall_us = wall.elapsed().as_micros();
        out.push((
            stats.candidates,
            stats.explored,
            clock.breakdown().optimize_us,
            wall_us,
        ));
    }
    out.sort();
    out.dedup_by_key(|p| p.0);
    out
}

/// Print Figure 11.
pub fn print_fig11(points: &[(usize, usize, u64, u128)]) {
    println!("Figure 11: optimization times vs candidate inputs (one batch of 5 UQs)");
    println!(
        "{:>11} {:>10} {:>12} {:>10}",
        "candidates", "explored", "virtual(ms)", "wall(ms)"
    );
    for (cands, explored, virt, wall) in points {
        println!(
            "{:>11} {:>10} {:>12.2} {:>10.2}",
            cands,
            explored,
            *virt as f64 / 1e3,
            *wall as f64 / 1e3
        );
    }
}

// ---------------------------------------------------------------------------
// Figure 12: the Pfam/InterPro workload.
// ---------------------------------------------------------------------------

/// Per-configuration runs over the Pfam workload. The clustering
/// thresholds are tightened (`T_m` = 2) so the denser per-UQ relation
/// references of the 9-relation schema can still split into multiple plan
/// graphs, as the paper's manual clustering did (3 graphs).
pub fn fig12(seeds: &[u64], scale: Scale) -> Vec<ConfigRun> {
    let modes = vec![
        SharingMode::AtcCq,
        SharingMode::AtcUq,
        SharingMode::AtcFull,
        SharingMode::AtcCl(ClusterConfig { t_m: 3, t_c: 0.4 }),
    ];
    modes
        .into_iter()
        .map(|mode| {
            let label = mode.label().to_string();
            let mut reports = Vec::new();
            for &seed in seeds {
                let w = pfam_workload(seed, scale);
                reports.push(run_workload(&w, &pfam_engine(mode.clone()), None).expect("runs"));
            }
            summarize(label, reports)
        })
        .collect()
}

/// Print Figure 12.
pub fn print_fig12(runs: &[ConfigRun]) {
    println!("Figure 12: execution times over the Pfam/InterPro dataset (virtual s)");
    print!("{:>4}", "UQ");
    for r in runs {
        print!(" {:>9}", r.label);
    }
    println!(
        "  (lanes used by ATC-CL: {})",
        runs.last().map(|r| r.reports[0].lanes).unwrap_or(1)
    );
    let n = runs.iter().map(|r| r.per_uq_secs.len()).max().unwrap_or(0);
    for i in 0..n {
        print!("{:>4}", i + 1);
        for r in runs {
            match r.per_uq_secs.get(i) {
                Some(v) => print!(" {v:>9.3}"),
                None => print!(" {:>9}", "-"),
            }
        }
        println!();
    }
    print!("mean");
    for r in runs {
        let m: f64 = r.per_uq_secs.iter().sum::<f64>() / r.per_uq_secs.len().max(1) as f64;
        print!(" {m:>9.3}");
    }
    println!();
}

// ---------------------------------------------------------------------------
// Ablations.
// ---------------------------------------------------------------------------

/// ATC scheduling ablation: round-robin vs greedy-threshold mean response.
pub fn ablation_atc(seed: u64, scale: Scale) -> Vec<(String, f64)> {
    use qsys::exec::SchedulingPolicy;
    [
        SchedulingPolicy::RoundRobin,
        SchedulingPolicy::GreedyThreshold,
    ]
    .into_iter()
    .map(|policy| {
        let w = gus_workload(seed, scale);
        let mut engine = gus_engine(SharingMode::AtcFull, 5);
        engine.scheduling = policy;
        let r = run_workload(&w, &engine, Some(8)).expect("runs");
        (format!("{policy:?}"), r.mean_response_us() / 1e6)
    })
    .collect()
}

/// Recovery ablation: answering a repeated query warm (RecoverState) vs
/// cold (fresh engine). Returns (warm stream reads, cold stream reads).
pub fn ablation_recovery(seed: u64, scale: Scale) -> (u64, u64) {
    let w = gus_workload(seed, scale);
    let engine = gus_engine(SharingMode::AtcFull, 1);
    // Warm: run UQ0 twice by duplicating the first query.
    let mut twice = gus_workload(seed, scale);
    let first = twice.queries[0].clone();
    twice.queries = vec![first.clone(), first.clone()];
    let warm = run_workload(&twice, &engine, None).expect("runs");
    // Cold: the query once, fresh.
    let mut once = w;
    once.queries = vec![first];
    let cold = run_workload(&once, &engine, None).expect("runs");
    let warm_second = warm.tuples_streamed.saturating_sub(cold.tuples_streamed);
    (warm_second, cold.tuples_streamed)
}

/// Probe-cache-sharing ablation: total probes and mean response under
/// ATC-FULL with shared vs private probe caches. Sharing probe results is
/// the load-bearing half of "we cache tuples from random probes" (§7.1);
/// without it, a stream fanning out to N consumers re-probes every key N
/// times.
pub fn ablation_probe_cache(seed: u64, scale: Scale) -> Vec<(String, u64, f64)> {
    [true, false]
        .into_iter()
        .map(|share| {
            let w = gus_workload(seed, scale);
            let mut engine = gus_engine(SharingMode::AtcFull, 5);
            engine.share_probe_caches = share;
            let r = run_workload(&w, &engine, Some(10)).expect("runs");
            let label = if share { "shared" } else { "private" };
            (label.to_string(), r.probes, r.mean_response_us() / 1e6)
        })
        .collect()
}

/// Eviction ablation: total stream reads for a 10-query session, first
/// across memory budgets (how much reuse a tight budget destroys), then
/// across replacement policies at the tightest budget — the policy is an
/// [`EngineConfig`] knob wired through to every lane's QS manager. (The
/// paper found LRU with size tie-break best; differences are modest,
/// Section 6.3.)
pub fn ablation_eviction(seed: u64, scale: Scale) -> Vec<(String, u64)> {
    use qsys::state::EvictionPolicy;
    let run = |budget: usize, policy: EvictionPolicy| {
        let w = gus_workload(seed, scale);
        let mut engine = gus_engine(SharingMode::AtcFull, 5);
        engine.memory_budget = budget;
        engine.eviction = policy;
        run_workload(&w, &engine, Some(10))
            .expect("runs")
            .tuples_streamed
    };
    let fmt_budget = |budget: usize| {
        if budget == usize::MAX {
            "unlimited".to_string()
        } else if budget >= 1 << 20 {
            format!("{} MiB", budget >> 20)
        } else {
            format!("{} KiB", budget >> 10)
        }
    };
    let mut out: Vec<(String, u64)> = [usize::MAX, 1 << 22, 1 << 16]
        .into_iter()
        .map(|budget| (fmt_budget(budget), run(budget, EvictionPolicy::default())))
        .collect();
    for policy in [EvictionPolicy::Lru, EvictionPolicy::SizeGreedy] {
        out.push((
            format!("{policy:?}@{}", fmt_budget(1 << 16)),
            run(1 << 16, policy),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Chaos sweep: resilience under deterministic fault schedules (BENCH_5.json).
// ---------------------------------------------------------------------------

/// Per-query outcome + exact answer fingerprint (score bits, tuple text).
type ChaosAnswers =
    std::collections::BTreeMap<qsys::types::UqId, (qsys::QueryOutcome, Vec<(u64, String)>)>;

/// One arm of the chaos sweep: a fault schedule, the run's resilience
/// counters, and its tuple-loss gate result.
pub struct ChaosArm {
    /// Arm name ("fault-free", "transient-1pct", …).
    pub label: &'static str,
    /// The `QSYS_FAULTS` schedule string (`None` = fault-free baseline).
    pub spec: Option<String>,
    /// Full run report (resilience counters under `report.faults`).
    pub report: RunReport,
    /// Gate failures: queries that resolved `Complete` with answers
    /// drifted from the fault-free run, or — for relation-scoped arms —
    /// degraded/failed without reading the faulted relation.
    pub gate_violations: usize,
}

/// The full sweep: one fault-free baseline plus transient-rate and
/// hard-outage arms over the same workload.
pub struct ChaosSweep {
    /// The relation the outage arm takes dark at t = 0.
    pub victim: u32,
    /// How many of the workload's user queries read the victim.
    pub victim_readers: usize,
    /// Arms in sweep order (index 0 is the fault-free baseline).
    pub arms: Vec<ChaosArm>,
}

/// Session-driven run capturing per-ticket outcomes and answers (the
/// scripted driver discards payloads, and the gate needs them).
fn chaos_run(w: &Workload, spec: Option<&str>) -> (RunReport, ChaosAnswers) {
    let mut cfg = gus_engine(SharingMode::AtcFull, 5);
    cfg.faults = spec.map(|s| qsys::source::FaultSpec::parse(s).expect("valid fault spec"));
    let mut engine = qsys::Engine::for_workload(w, cfg);
    let mut tickets = Vec::new();
    for q in &w.queries {
        let mut session = engine.session(q.user);
        if let Some(costs) = &q.edge_costs {
            session = session.with_edge_costs(costs.clone());
        }
        if let Ok(t) = session.submit(&q.keywords, q.arrival_us) {
            tickets.push(t);
        }
    }
    engine.run_until_idle();
    let answers = tickets
        .iter()
        .map(|t| {
            let outcome = t.outcome().expect("drained engine resolves every ticket");
            let tuples = t
                .take_results()
                .unwrap_or_default()
                .into_iter()
                .map(|(s, tu)| (s.get().to_bits(), format!("{tu:?}")))
                .collect();
            (t.id(), (outcome, tuples))
        })
        .collect();
    (engine.report(), answers)
}

/// The outage victim: the most-read relation that still has non-readers,
/// so the arm both bites and leaves bystanders to check.
fn chaos_victim(w: &Workload) -> (u32, std::collections::BTreeSet<qsys::types::UqId>) {
    let (uqs, _) = qsys::generate_user_queries(w, &gus_engine(SharingMode::AtcFull, 5))
        .expect("workload generates");
    let mut readers: std::collections::BTreeMap<
        u32,
        std::collections::BTreeSet<qsys::types::UqId>,
    > = std::collections::BTreeMap::new();
    for uq in &uqs {
        for (cq, _) in &uq.cqs {
            for rel in cq.rels() {
                readers.entry(rel.0).or_default().insert(uq.id);
            }
        }
    }
    readers
        .into_iter()
        .filter(|(_, r)| r.len() < uqs.len())
        .max_by_key(|(rel, r)| (r.len(), std::cmp::Reverse(*rel)))
        .expect("some relation has a minority of readers")
}

/// The sweep's gate — "no tuple loss on unfaulted relations": a query the
/// engine reports `Complete` must answer bit-identically to the fault-free
/// run, and under a relation-scoped schedule a query that never reads the
/// faulted relation must resolve `Complete`.
fn chaos_gate(
    base: &ChaosAnswers,
    arm: &ChaosAnswers,
    faulted_readers: Option<&std::collections::BTreeSet<qsys::types::UqId>>,
) -> usize {
    let mut violations = 0;
    for (uq, (outcome, tuples)) in arm {
        let clean = &base[uq];
        match outcome {
            qsys::QueryOutcome::Complete => {
                if tuples != &clean.1 {
                    violations += 1;
                }
            }
            _ => {
                if faulted_readers.is_some_and(|r| !r.contains(uq)) {
                    violations += 1;
                }
            }
        }
    }
    violations
}

/// Run the chaos sweep: fault-free baseline, 1% and 5% transient-error
/// rates, and a hard outage of one relation from t = 0. All schedules are
/// seeded, so the sweep replays identically.
pub fn chaos_sweep(seed: u64, scale: Scale) -> ChaosSweep {
    use qsys_workload::faults::FaultPlan;
    let w = gus_workload(seed, scale);
    let (victim, victim_readers) = chaos_victim(&w);
    let (base_report, base) = chaos_run(&w, None);
    let mut arms = vec![ChaosArm {
        label: "fault-free",
        spec: None,
        report: base_report,
        gate_violations: 0,
    }];
    let cases: [(&'static str, String, bool); 3] = [
        (
            "transient-1pct",
            FaultPlan::new(1009).transient(0.01).build(),
            false,
        ),
        (
            "transient-5pct",
            FaultPlan::new(1009).transient(0.05).build(),
            false,
        ),
        (
            "hard-outage",
            FaultPlan::new(1009).outage(victim, 0, None).build(),
            true,
        ),
    ];
    for (label, spec, scoped) in cases {
        let (report, answers) = chaos_run(&w, Some(&spec));
        let gate_violations = chaos_gate(&base, &answers, scoped.then_some(&victim_readers));
        arms.push(ChaosArm {
            label,
            spec: Some(spec),
            report,
            gate_violations,
        });
    }
    ChaosSweep {
        victim,
        victim_readers: victim_readers.len(),
        arms,
    }
}

/// Print the sweep as a table.
pub fn print_chaos(sweep: &ChaosSweep) {
    println!(
        "Chaos sweep: fault-rate vs resilience (GUS; outage victim R{}, {} readers)",
        sweep.victim, sweep.victim_readers
    );
    println!(
        "{:>15} {:>9} {:>8} {:>7} {:>8} {:>7} {:>9} {:>10} {:>10} {:>5}",
        "arm",
        "complete",
        "degraded",
        "failed",
        "retries",
        "breaker",
        "exhausted",
        "p50(ms)",
        "p99(ms)",
        "gate"
    );
    for arm in &sweep.arms {
        let f = &arm.report.faults;
        let complete = arm.report.per_uq.len() - f.degraded - f.failed;
        println!(
            "{:>15} {:>9} {:>8} {:>7} {:>8} {:>7} {:>9} {:>10.1} {:>10.1} {:>5}",
            arm.label,
            complete,
            f.degraded,
            f.failed,
            f.source.retries,
            f.source.breaker_trips,
            f.source.exhausted_fetches,
            arm.report.response_percentile_us(50.0) as f64 / 1e3,
            arm.report.response_percentile_us(99.0) as f64 / 1e3,
            if arm.gate_violations == 0 {
                "ok"
            } else {
                "FAIL"
            },
        );
    }
}

/// Render the sweep as the repo's `BENCH_5.json` trajectory point.
pub fn chaos_json(sweep: &ChaosSweep) -> String {
    let mut arms = String::new();
    for (i, arm) in sweep.arms.iter().enumerate() {
        if i > 0 {
            arms.push_str(",\n");
        }
        let f = &arm.report.faults;
        let spec = match &arm.spec {
            Some(s) => format!("\"{s}\""),
            None => "null".to_string(),
        };
        arms.push_str(&format!(
            "    {{\n      \"arm\": \"{}\",\n      \"spec\": {spec},\n      \"queries\": {},\n      \"degraded\": {},\n      \"failed\": {},\n      \"retries\": {},\n      \"transient_errors\": {},\n      \"outage_errors\": {},\n      \"timeouts\": {},\n      \"breaker_trips\": {},\n      \"breaker_fast_fails\": {},\n      \"exhausted_fetches\": {},\n      \"quarantined_streams\": {},\n      \"failed_probes\": {},\n      \"p50_response_us\": {},\n      \"p99_response_us\": {},\n      \"gate_violations\": {}\n    }}",
            arm.label,
            arm.report.per_uq.len(),
            f.degraded,
            f.failed,
            f.source.retries,
            f.source.transient_errors,
            f.source.outage_errors,
            f.source.timeouts,
            f.source.breaker_trips,
            f.source.breaker_fast_fails,
            f.source.exhausted_fetches,
            f.source.quarantined_streams,
            f.source.failed_probes,
            arm.report.response_percentile_us(50.0),
            arm.report.response_percentile_us(99.0),
            arm.gate_violations,
        ));
    }
    let gate_ok = sweep.arms.iter().all(|a| a.gate_violations == 0);
    format!(
        "{{\n  \"bench\": \"chaos sweep: deterministic fault injection vs per-query degradation (ATC-FULL)\",\n  \"gate\": \"no tuple loss on unfaulted relations; Complete answers bit-identical to the fault-free run\",\n  \"outage_victim_rel\": {},\n  \"outage_victim_readers\": {},\n  \"gate_ok\": {gate_ok},\n  \"arms\": [\n{arms}\n  ]\n}}\n",
        sweep.victim, sweep.victim_readers,
    )
}

// ---------------------------------------------------------------------------
// Two-process restart gate.
// ---------------------------------------------------------------------------

/// Decision-level equality of two runs: per-query outcomes and the
/// optimizer's work/decision counters (host wall time excluded).
pub fn reports_identical(a: &RunReport, b: &RunReport) -> bool {
    a.tuples_consumed == b.tuples_consumed
        && a.per_uq.len() == b.per_uq.len()
        && a.per_uq.iter().zip(&b.per_uq).all(|(x, y)| {
            x.uq == y.uq
                && x.response_us == y.response_us
                && x.results == y.results
                && x.cqs_executed == y.cqs_executed
                && x.reused_nodes == y.reused_nodes
        })
        && a.opt_events.len() == b.opt_events.len()
        && a.opt_events.iter().zip(&b.opt_events).all(|(x, y)| {
            x.batch_cqs == y.batch_cqs && x.candidates == y.candidates && x.explored == y.explored
        })
}

/// One half of the cross-process restart check: CI runs `--phase prime`
/// and `--phase reload` as *separate processes* over the same directory,
/// so the reload genuinely starts from nothing but the snapshot file.
pub struct RestartPhase {
    /// Snapshots this run published.
    pub writes: usize,
    /// Size of the snapshot file on disk after the run.
    pub bytes_on_disk: u64,
    /// (reload only) the engine rehydrated from the snapshot.
    pub loaded: bool,
    /// (reload only) lanes that came back warm.
    pub lanes_loaded: usize,
    /// Warm-store cache hits feeding this run's first batch.
    pub first_batch_warm_fact_hits: usize,
    /// (reload only) the same count in the persistence-off run. A cold
    /// first batch is not 0 (verdicts cached earlier in the same search
    /// count when re-read), so the reload proves it read rehydrated state
    /// by exceeding this, not by exceeding 0.
    pub cold_first_batch_warm_fact_hits: usize,
    /// (reload only) run bit-identical to a cold run with persistence off.
    pub identical: bool,
    /// (reload only) the loader's rejection reason, if any.
    pub reason: Option<String>,
}

/// Run the seed-`seed` GUS workload with warm-state persistence rooted at
/// `dir`. With `reload` the run is expected to rehydrate from a snapshot a
/// *previous process* published there, and is compared against a fresh
/// persistence-off run for decision identity.
pub fn restart_phase(seed: u64, scale: Scale, dir: &std::path::Path, reload: bool) -> RestartPhase {
    let workload = gus_workload(seed, scale);
    let mut cfg = gus_engine(SharingMode::AtcFull, 5);
    cfg.snapshot_dir = Some(dir.to_path_buf());
    let report = run_workload(&workload, &cfg, Some(15)).expect("persistence run");
    let bytes_on_disk = std::fs::metadata(dir.join("qsys.snapshot"))
        .map(|m| m.len())
        .unwrap_or(0);
    let first_batch_hits = |r: &RunReport| r.opt_events.first().map_or(0, |e| e.warm_fact_hits);
    let (identical, cold_first_batch_warm_fact_hits) = if reload {
        let mut cold_cfg = gus_engine(SharingMode::AtcFull, 5);
        cold_cfg.snapshot_dir = None;
        let baseline = run_workload(&workload, &cold_cfg, Some(15)).expect("baseline run");
        (
            reports_identical(&report, &baseline),
            first_batch_hits(&baseline),
        )
    } else {
        (true, 0)
    };
    RestartPhase {
        writes: report.snapshot.writes,
        bytes_on_disk,
        loaded: report.snapshot.loaded,
        lanes_loaded: report.snapshot.lanes_loaded,
        first_batch_warm_fact_hits: first_batch_hits(&report),
        cold_first_batch_warm_fact_hits,
        identical,
        reason: report.snapshot.reason.clone(),
    }
}

// ---------------------------------------------------------------------------
// Shard sweep: oversized-cluster sharding vs lane balance (BENCH_7.json).
// ---------------------------------------------------------------------------

/// One arm of the shard sweep: a shard cap, the run, and the identity
/// gate against the unsharded baseline.
pub struct ShardArm {
    /// Arm name ("unsharded", "shards<=2", …).
    pub label: &'static str,
    /// `max_shards` for the arm (0 = sharding off).
    pub max_shards: usize,
    /// Full run report (per-lane ancestry under `report.lane_summaries`).
    pub report: RunReport,
    /// Lanes that are shards of a split cluster.
    pub sharded_lanes: usize,
    /// Queries whose answer multiset drifted from the unsharded run.
    pub gate_violations: usize,
}

/// The full sweep: the unsharded baseline plus shard caps 2 / 4 / 8 at a
/// threshold of one UQ-equivalent (every multi-UQ cluster splits).
pub struct ShardSweep {
    /// Arms in sweep order (index 0 is the unsharded baseline).
    pub arms: Vec<ShardArm>,
    /// Σ/max of per-lane walls without sharding — the parallel speedup
    /// the unsharded lane topology can ever reach.
    pub bound_unsharded: f64,
    /// The best post-sharding Σ/max across arms — the same bound after
    /// splitting oversized clusters (comparable before/after).
    pub bound_sharded: f64,
}

/// Session-driven run of the ATC-CL reference workload under `sharding`,
/// capturing per-ticket answers as *sorted* multisets (the correctness
/// bar is multiset identity; shard interleaving may reorder equal-score
/// answers).
fn shard_run(w: &Workload, sharding: qsys::ShardConfig) -> (RunReport, ChaosAnswers) {
    let mut cfg = atc_cl_reference_engine(1);
    cfg.sharding = sharding;
    let mut engine = qsys::Engine::for_workload(w, cfg);
    let mut tickets = Vec::new();
    for q in &w.queries {
        let mut session = engine.session(q.user);
        if let Some(costs) = &q.edge_costs {
            session = session.with_edge_costs(costs.clone());
        }
        if let Ok(t) = session.submit(&q.keywords, q.arrival_us) {
            tickets.push(t);
        }
    }
    engine.run_until_idle();
    let answers = tickets
        .iter()
        .map(|t| {
            let outcome = t.outcome().expect("drained engine resolves every ticket");
            let mut tuples: Vec<(u64, String)> = t
                .take_results()
                .unwrap_or_default()
                .into_iter()
                .map(|(s, tu)| (s.get().to_bits(), format!("{tu:?}")))
                .collect();
            tuples.sort();
            (t.id(), (outcome, tuples))
        })
        .collect();
    (engine.report(), answers)
}

/// The sweep's gate — sharding must be invisible in results: every query
/// resolves with the same outcome and the same answer multiset as the
/// unsharded run.
/// Tie-aware answer equivalence: outcomes match, score multisets match
/// bit-for-bit, and every tuple scored strictly above the k-th (minimum
/// returned) score matches exactly. Tuples *at* the boundary score only
/// need matching counts: when more than k-boundary candidates tie at the
/// cut, the top-k set is inherently non-unique, and a different lane
/// composition may surface a different — equally ranked — tied subset.
pub fn answers_equivalent(want: &[(u64, String)], got: &[(u64, String)]) -> bool {
    if want.len() != got.len() {
        return false;
    }
    let scores = |v: &[(u64, String)]| {
        let mut s: Vec<u64> = v.iter().map(|(b, _)| *b).collect();
        s.sort_unstable();
        s
    };
    if scores(want) != scores(got) {
        return false;
    }
    let boundary = want
        .iter()
        .map(|(b, _)| f64::from_bits(*b))
        .fold(f64::INFINITY, f64::min);
    fn above(v: &[(u64, String)], boundary: f64) -> Vec<&(u64, String)> {
        let mut s: Vec<&(u64, String)> = v
            .iter()
            .filter(|(b, _)| f64::from_bits(*b) > boundary)
            .collect();
        s.sort();
        s
    }
    above(want, boundary) == above(got, boundary)
}

fn shard_gate(base: &ChaosAnswers, arm: &ChaosAnswers) -> usize {
    arm.iter()
        .filter(|(uq, got)| match base.get(uq) {
            Some(want) => want.0 != got.0 || !answers_equivalent(&want.1, &got.1),
            None => true,
        })
        .count()
}

/// Run the shard sweep on the multi-cluster ATC-CL reference workload:
/// unsharded baseline, then shard caps 2 / 4 / 8 at threshold 1.0 (one
/// UQ-equivalent, so every multi-UQ cluster splits up to the cap). Lanes
/// run sequentially (`lane_threads = 1`) so per-lane walls attribute
/// cleanly and Σ/max is the achievable parallel speedup bound.
pub fn shard_sweep() -> ShardSweep {
    let w = atc_cl_reference_workload();
    let (base_report, base) = shard_run(&w, qsys::ShardConfig::off());
    let bound_unsharded = base_report.lane_balance();
    let mut arms = vec![ShardArm {
        label: "unsharded",
        max_shards: 0,
        report: base_report,
        sharded_lanes: 0,
        gate_violations: 0,
    }];
    let cases: [(&'static str, usize); 3] = [("shards<=2", 2), ("shards<=4", 4), ("shards<=8", 8)];
    for (label, cap) in cases {
        let mut sharding = qsys::ShardConfig::at(1.0);
        sharding.max_shards = cap;
        let (report, answers) = shard_run(&w, sharding);
        let gate_violations = shard_gate(&base, &answers);
        let sharded_lanes = report
            .lane_summaries
            .iter()
            .filter(|l| l.shard_of.is_some())
            .count();
        arms.push(ShardArm {
            label,
            max_shards: cap,
            report,
            sharded_lanes,
            gate_violations,
        });
    }
    let bound_sharded = arms
        .iter()
        .skip(1)
        .map(|a| a.report.lane_balance())
        .fold(bound_unsharded, f64::max);
    ShardSweep {
        arms,
        bound_unsharded,
        bound_sharded,
    }
}

/// Print the sweep as a table.
pub fn print_shard(sweep: &ShardSweep) {
    println!(
        "Shard sweep: oversized-cluster sharding vs lane balance \
         (ATC-CL reference workload, lane_threads = 1)"
    );
    println!(
        "{:>11} {:>6} {:>7} {:>12} {:>12} {:>9} {:>10} {:>5}",
        "arm", "lanes", "shards", "max-wall(ms)", "sum-wall(ms)", "balance", "tuples", "gate"
    );
    for arm in &sweep.arms {
        let walls = &arm.report.lane_wall_us;
        let max = walls.iter().copied().max().unwrap_or(0);
        let sum: u64 = walls.iter().sum();
        println!(
            "{:>11} {:>6} {:>7} {:>12.1} {:>12.1} {:>9.2} {:>10} {:>5}",
            arm.label,
            arm.report.lanes,
            arm.sharded_lanes,
            max as f64 / 1e3,
            sum as f64 / 1e3,
            arm.report.lane_balance(),
            arm.report.tuples_consumed,
            if arm.gate_violations == 0 {
                "ok"
            } else {
                "FAIL"
            },
        );
    }
    println!(
        "speedup bound: {:.2}x unsharded -> {:.2}x best sharded",
        sweep.bound_unsharded, sweep.bound_sharded
    );
}

/// Render the sweep as the repo's `BENCH_7.json` trajectory point.
pub fn shard_json(sweep: &ShardSweep) -> String {
    let mut arms = String::new();
    for (i, arm) in sweep.arms.iter().enumerate() {
        if i > 0 {
            arms.push_str(",\n");
        }
        let walls: Vec<String> = arm.report.lane_wall_us.iter().map(u64::to_string).collect();
        let lanes: Vec<String> = arm
            .report
            .lane_summaries
            .iter()
            .map(|l| {
                let shard = match l.shard_of {
                    Some((i, n)) => format!("\"{}/{}\"", i + 1, n),
                    None => "null".to_string(),
                };
                format!(
                    "        {{\"lane\": {}, \"cluster\": {}, \"shard\": {shard}, \"wall_us\": {}, \"uqs\": {}, \"tuples_consumed\": {}}}",
                    l.lane, l.cluster, l.wall_us, l.uqs, l.tuples_consumed,
                )
            })
            .collect();
        arms.push_str(&format!(
            "    {{\n      \"arm\": \"{}\",\n      \"max_shards\": {},\n      \"lanes\": {},\n      \"sharded_lanes\": {},\n      \"lane_wall_us\": [{}],\n      \"lane_balance\": {:.2},\n      \"tuples_consumed\": {},\n      \"tuples_streamed\": {},\n      \"gate_violations\": {},\n      \"lane_summaries\": [\n{}\n      ]\n    }}",
            arm.label,
            arm.max_shards,
            arm.report.lanes,
            arm.sharded_lanes,
            walls.join(", "),
            arm.report.lane_balance(),
            arm.report.tuples_consumed,
            arm.report.tuples_streamed,
            arm.gate_violations,
            lanes.join(",\n"),
        ));
    }
    let gate_ok = sweep.arms.iter().all(|a| a.gate_violations == 0);
    format!(
        "{{\n  \"bench\": \"shard sweep: oversized-cluster sharding vs lane balance (ATC-CL)\",\n  \"gate\": \"per-UQ answer multisets identical to the unsharded run at every shard cap (up to ties at the k-th score)\",\n  \"shard_threshold\": 1.0,\n  \"gate_ok\": {gate_ok},\n  \"atc_cl_speedup_bound_unsharded\": {:.2},\n  \"atc_cl_speedup_bound_sharded\": {:.2},\n  \"arms\": [\n{arms}\n  ]\n}}\n",
        sweep.bound_unsharded, sweep.bound_sharded,
    )
}

// ---------------------------------------------------------------------------
// Adaptive sweep: mid-flight re-optimization under drifting statistics
// (BENCH_8.json).
// ---------------------------------------------------------------------------

/// How hard the adaptive bench's catalog lies: each relation's reported
/// cardinality is `×0.25` or `×4` the truth (deterministic per-relation
/// spread — see `GusConfig::stats_error`), so the optimizer's relative
/// cost ordering is wrong and the executor's observations contradict the
/// frozen facts early.
pub const ADAPTIVE_STATS_ERROR: f64 = 0.25;

/// The GUS instance the adaptive bench runs: chosen (by scanning seeds)
/// so the skewed priors genuinely mislead the plan search *and keep
/// misleading it in later batches* — the static arm reads ~2.5k more
/// tuples than truthful priors would, most of it in batches after the
/// first, which is exactly the part runtime corrections can recover
/// (the first batch's plan is decided before any observation exists).
/// Most small GUS instances are insensitive to the skew (any plan reads
/// roughly the same streams), which would leave re-optimization nothing
/// to recover.
pub const ADAPTIVE_SEED: u64 = 81;

/// One arm of the adaptive sweep: a drift threshold (0.0 = the static
/// baseline), the run, and the identity gate against that baseline.
pub struct AdaptiveArm {
    /// Arm name ("static", "drift>1.5x", …).
    pub label: String,
    /// The arm's `QSYS_ADAPT_DRIFT` ratio (0.0 = adaptive off).
    pub drift: f64,
    /// Full run report (adaptive counters under `report.adaptive`).
    pub report: RunReport,
    /// Queries whose answer multiset drifted from the static run.
    pub gate_violations: usize,
}

/// The full sweep: a static baseline plus adaptive arms at a spread of
/// drift thresholds, all over the same drift-heavy workload.
pub struct AdaptiveSweep {
    /// The catalog's stats-error multiplier (see [`ADAPTIVE_STATS_ERROR`]).
    pub stats_error: f64,
    /// Arms in sweep order (index 0 is the static baseline).
    pub arms: Vec<AdaptiveArm>,
}

impl AdaptiveSweep {
    /// Mean virtual response of the static baseline, µs.
    pub fn mean_static_us(&self) -> f64 {
        self.arms[0].report.mean_response_us()
    }

    /// The best adaptive arm's mean response, µs (the baseline's if no
    /// adaptive arm beats it).
    pub fn mean_best_us(&self) -> f64 {
        self.arms
            .iter()
            .skip(1)
            .map(|a| a.report.mean_response_us())
            .fold(self.mean_static_us(), f64::min)
    }

    /// Total mid-batch replans across adaptive arms.
    pub fn total_replans(&self) -> u64 {
        self.arms.iter().map(|a| a.report.adaptive.replans).sum()
    }
}

/// The drift-heavy GUS workload: the figure-scale script over a catalog
/// whose priors are skewed to [`ADAPTIVE_STATS_ERROR`] × the truth. The
/// *data* is identical to a truthful-catalog run — only the optimizer's
/// starting beliefs are wrong, which is exactly the regime mid-flight
/// re-optimization exists for.
pub fn adaptive_workload(seed: u64) -> Workload {
    let mut cfg = GusConfig::small(seed);
    // Rows stay under the optimizer's probe threshold even at the ×4
    // over-report, so the skew misleads *cardinalities* (which runtime
    // observation can correct) without flipping stream-vs-probe
    // modality (which it cannot — a probed relation never exhausts a
    // stream, so its true count is unobservable).
    cfg.min_rows = 100;
    cfg.max_rows = 240;
    cfg.user_queries = 15;
    cfg.stats_error = ADAPTIVE_STATS_ERROR;
    gus::generate(&cfg)
}

/// Session-driven run under an adaptive config, capturing per-ticket
/// answers for the identity gate (sorted multisets — a re-planned lane
/// may surface equal-score ties in a different order).
fn adaptive_run(w: &Workload, adaptive: qsys::opt::AdaptiveConfig) -> (RunReport, ChaosAnswers) {
    let mut cfg = gus_engine(SharingMode::AtcFull, 5);
    cfg.lane_threads = 1;
    cfg.adaptive = adaptive;
    let mut engine = qsys::Engine::for_workload(w, cfg);
    let mut tickets = Vec::new();
    for q in &w.queries {
        let mut session = engine.session(q.user);
        if let Some(costs) = &q.edge_costs {
            session = session.with_edge_costs(costs.clone());
        }
        if let Ok(t) = session.submit(&q.keywords, q.arrival_us) {
            tickets.push(t);
        }
    }
    engine.run_until_idle();
    let answers = tickets
        .iter()
        .map(|t| {
            let outcome = t.outcome().expect("drained engine resolves every ticket");
            let mut tuples: Vec<(u64, String)> = t
                .take_results()
                .unwrap_or_default()
                .into_iter()
                .map(|(s, tu)| (s.get().to_bits(), format!("{tu:?}")))
                .collect();
            tuples.sort();
            (t.id(), (outcome, tuples))
        })
        .collect();
    (engine.report(), answers)
}

/// Run the adaptive sweep: static baseline, then drift thresholds 1.25 /
/// 1.5 / 2.0, gated on per-UQ answer-multiset identity with the static
/// run (re-planning is a physical decision; the top-k must not move).
pub fn adaptive_sweep(seed: u64) -> AdaptiveSweep {
    let w = adaptive_workload(seed);
    let (base_report, base) = adaptive_run(&w, qsys::opt::AdaptiveConfig::off());
    let mut arms = vec![AdaptiveArm {
        label: "static".into(),
        drift: 0.0,
        report: base_report,
        gate_violations: 0,
    }];
    for drift in [1.25, 1.5, 2.0] {
        let (report, answers) = adaptive_run(&w, qsys::opt::AdaptiveConfig::at(drift));
        let gate_violations = shard_gate(&base, &answers);
        arms.push(AdaptiveArm {
            label: format!("drift>{drift}x"),
            drift,
            report,
            gate_violations,
        });
    }
    AdaptiveSweep {
        stats_error: ADAPTIVE_STATS_ERROR,
        arms,
    }
}

/// Print the sweep as a table.
pub fn print_adaptive(sweep: &AdaptiveSweep) {
    println!(
        "Adaptive sweep: mid-flight re-optimization vs static plans \
         (GUS, catalog priors at {:.0}% of true cardinality)",
        sweep.stats_error * 100.0
    );
    println!(
        "{:>11} {:>12} {:>7} {:>8} {:>10} {:>10} {:>10} {:>5}",
        "arm", "mean(ms)", "checks", "replans", "corrected", "replan(us)", "tuples", "gate"
    );
    for arm in &sweep.arms {
        let a = &arm.report.adaptive;
        println!(
            "{:>11} {:>12.3} {:>7} {:>8} {:>10} {:>10} {:>10} {:>5}",
            arm.label,
            arm.report.mean_response_us() / 1e3,
            a.drift_checks,
            a.replans,
            a.cards_corrected,
            a.replan_us,
            arm.report.tuples_consumed,
            if arm.gate_violations == 0 {
                "ok"
            } else {
                "FAIL"
            },
        );
    }
    let static_us = sweep.mean_static_us();
    let best_us = sweep.mean_best_us();
    println!(
        "mean response: {:.3}ms static -> {:.3}ms best adaptive ({:+.1}%)",
        static_us / 1e3,
        best_us / 1e3,
        100.0 * (best_us / static_us.max(1e-9) - 1.0),
    );
}

/// Render the sweep as the repo's `BENCH_8.json` trajectory point.
pub fn adaptive_json(sweep: &AdaptiveSweep) -> String {
    let mut arms = String::new();
    for (i, arm) in sweep.arms.iter().enumerate() {
        if i > 0 {
            arms.push_str(",\n");
        }
        let a = &arm.report.adaptive;
        arms.push_str(&format!(
            "    {{\n      \"arm\": \"{}\",\n      \"drift_threshold\": {},\n      \"mean_response_us\": {:.1},\n      \"p99_response_us\": {},\n      \"drift_checks\": {},\n      \"replans\": {},\n      \"replan_us\": {},\n      \"cards_corrected\": {},\n      \"tuples_consumed\": {},\n      \"tuples_streamed\": {},\n      \"gate_violations\": {}\n    }}",
            arm.label,
            arm.drift,
            arm.report.mean_response_us(),
            arm.report.response_percentile_us(99.0),
            a.drift_checks,
            a.replans,
            a.replan_us,
            a.cards_corrected,
            arm.report.tuples_consumed,
            arm.report.tuples_streamed,
            arm.gate_violations,
        ));
    }
    let gate_ok = sweep.arms.iter().all(|a| a.gate_violations == 0);
    let static_us = sweep.mean_static_us();
    let best_us = sweep.mean_best_us();
    format!(
        "{{\n  \"bench\": \"adaptive sweep: mid-flight re-optimization vs static plans (GUS, drift-heavy priors)\",\n  \"gate\": \"per-UQ answer multisets identical to the static run at every drift threshold (up to ties at the k-th score)\",\n  \"stats_error\": {},\n  \"gate_ok\": {gate_ok},\n  \"mean_static_us\": {static_us:.1},\n  \"mean_best_adaptive_us\": {best_us:.1},\n  \"mean_improvement_pct\": {:.1},\n  \"total_replans\": {},\n  \"arms\": [\n{arms}\n  ]\n}}\n",
        sweep.stats_error,
        100.0 * (1.0 - best_us / static_us.max(1e-9)),
        sweep.total_replans(),
    )
}

// ---------------------------------------------------------------------------
// Invariant audit: the `reproduce verify` subcommand.
// ---------------------------------------------------------------------------

/// One audited engine run: an (arm × seed × lane-thread) combination, the
/// verifier's findings over the live engine, and the findings over its
/// reloaded on-disk snapshot.
pub struct VerifyArm {
    /// e.g. `"seed 41 / atc-cl / threads 4"`.
    pub label: String,
    /// Lanes the engine ended the run with.
    pub lanes: usize,
    /// Rendered violations from `Engine::verify` (empty = clean).
    pub live: Vec<String>,
    /// Rendered violations from the snapshot publish → reload → audit
    /// round trip (empty = clean).
    pub disk: Vec<String>,
    /// Bytes the published snapshot occupied on disk.
    pub snapshot_bytes: u64,
}

impl VerifyArm {
    pub fn is_clean(&self) -> bool {
        self.live.is_empty() && self.disk.is_empty()
    }
}

/// The whole audit: every arm of `reproduce verify`.
pub struct VerifyAudit {
    pub arms: Vec<VerifyArm>,
}

impl VerifyAudit {
    pub fn is_clean(&self) -> bool {
        self.arms.iter().all(VerifyArm::is_clean)
    }

    pub fn total_violations(&self) -> usize {
        self.arms.iter().map(|a| a.live.len() + a.disk.len()).sum()
    }
}

/// Drive one engine over `w` under `cfg`, then audit it twice: the live
/// structures via [`qsys::Engine::verify`], and the on-disk image via a
/// snapshot publish → reload → verify round trip rooted at `dir`.
fn audited_run(
    label: String,
    w: &Workload,
    mut cfg: EngineConfig,
    dir: &std::path::Path,
) -> VerifyArm {
    let snap_dir = dir.join(label.replace([' ', '/'], "_"));
    let _ = std::fs::create_dir_all(&snap_dir);
    // Publish only when asked: the audit wants exactly one image, written
    // after the drain, not the auto-cadence mid-run partials.
    cfg.snapshot_dir = Some(snap_dir);
    cfg.snapshot_every = usize::MAX;
    let mut engine = qsys::Engine::for_workload(w, cfg);
    for q in &w.queries {
        let mut session = engine.session(q.user);
        if let Some(costs) = &q.edge_costs {
            session = session.with_edge_costs(costs.clone());
        }
        let _ = session.submit(&q.keywords, q.arrival_us);
    }
    engine.run_until_idle();
    let live: Vec<String> = engine
        .verify()
        .violations
        .iter()
        .map(ToString::to_string)
        .collect();
    let (disk, snapshot_bytes) = match engine.snapshot() {
        Ok(bytes) => {
            let disk = match engine.audit_snapshot() {
                Ok(report) => report.violations.iter().map(ToString::to_string).collect(),
                Err(why) => vec![format!("snapshot reload failed: {why}")],
            };
            (disk, bytes)
        }
        Err(why) => (vec![format!("snapshot publish failed: {why}")], 0),
    };
    VerifyArm {
        label,
        lanes: engine.report().lane_summaries.len(),
        live,
        disk,
        snapshot_bytes,
    }
}

/// Run the invariant audit across the repo's standard arms: the default
/// ATC-CL configuration on each seed at 1 and 4 lane threads, plus one
/// sharded, one chaos (5% transient faults), and one adaptive arm — the
/// configurations whose phase machinery (shard split, fault quarantine,
/// mid-flight replans) exercises every invariant family the verifier
/// checks. Snapshots round-trip through `dir`.
pub fn verify_audit(seeds: &[u64], scale: Scale, dir: &std::path::Path) -> VerifyAudit {
    let mut arms = Vec::new();
    for &seed in seeds {
        let w = gus_workload(seed, scale);
        for threads in [1usize, 4] {
            let mut cfg = gus_engine(SharingMode::AtcCl(ClusterConfig::default()), 5);
            cfg.lane_threads = threads;
            arms.push(audited_run(
                format!("seed {seed} / atc-cl / threads {threads}"),
                &w,
                cfg,
                dir,
            ));
        }
        // Sharded arm: force clusters past the one-UQ-equivalent
        // threshold so the shard-partition invariants actually fire.
        let mut cfg = gus_engine(SharingMode::AtcCl(ClusterConfig::default()), 5);
        let mut sharding = qsys::ShardConfig::at(1.0);
        sharding.max_shards = 4;
        cfg.sharding = sharding;
        arms.push(audited_run(format!("seed {seed} / shard<=4"), &w, cfg, dir));
        // Chaos arm: 5% transient faults — quarantine/degradation paths.
        let mut cfg = gus_engine(SharingMode::AtcFull, 5);
        cfg.faults = qsys::source::FaultSpec::parse(
            &qsys_workload::faults::FaultPlan::new(1009)
                .transient(0.05)
                .build(),
        )
        .ok();
        arms.push(audited_run(
            format!("seed {seed} / chaos-5pct"),
            &w,
            cfg,
            dir,
        ));
    }
    // Adaptive arm: the drift-regime instance where replans genuinely
    // fire, so post-replan verification runs on a re-grafted graph.
    let w = adaptive_workload(ADAPTIVE_SEED);
    let mut cfg = gus_engine(SharingMode::AtcFull, 5);
    cfg.lane_threads = 1;
    cfg.adaptive = qsys::opt::AdaptiveConfig::at(1.25);
    arms.push(audited_run("adaptive drift>1.25x".into(), &w, cfg, dir));
    VerifyAudit { arms }
}

/// Print the audit as a table.
pub fn print_verify(audit: &VerifyAudit) {
    println!("Invariant audit: live engine state and reloaded snapshots, per arm");
    println!("{:>34}  lanes  snapshot  live  disk", "arm");
    for arm in &audit.arms {
        println!(
            "{:>34}  {:>5}  {:>7}B  {:>4}  {:>4}",
            arm.label,
            arm.lanes,
            arm.snapshot_bytes,
            arm.live.len(),
            arm.disk.len(),
        );
    }
    for arm in &audit.arms {
        for v in arm.live.iter().chain(&arm.disk) {
            println!("  VIOLATION [{}] {v}", arm.label);
        }
    }
}
