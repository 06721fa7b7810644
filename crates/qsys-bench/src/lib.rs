//! Experiment drivers regenerating every table and figure of the paper's
//! evaluation (Section 7), plus what this reproduction adds beside them:
//! ablations of its own choices (ATC scheduling, recovery, eviction,
//! probe-cache sharing), the print-only, self-gated `chaos` sweep, and
//! the `verify` invariant audit.
//!
//! Each `table4` / `fig7` / … function runs the experiment and returns
//! printable data; the `reproduce` binary is a thin argument parser over
//! them. All numbers are *simulated* (virtual-clock) quantities — the
//! sources are in-process tables charged on a virtual clock, not MySQL
//! over a WAN — so the claims under reproduction are about relative
//! behaviour between configurations, not absolute seconds. Nothing here
//! times the host for the record: host-clock measurement is `perf/run.sh`
//! (`BENCHMARK.json`, `perf/README.md`), and the few host walls printed
//! here (Figure 11's wall column) are observations of one run.
//!
//! The chaos sweep and the audit share one shape: [`drive`] submits a
//! script through `Engine::submit_script`, drains the engine and
//! fingerprints every ticket; [`answer_gate`] compares an arm's answers
//! with the baseline's. The sweep adds only its arm table and its column
//! printer.

use qsys::opt::cluster::ClusterConfig;
use qsys::opt::cost::NoReuse;
use qsys::opt::{HeuristicConfig, Optimizer, OptimizerConfig};
use qsys::query::CandidateConfig;
use qsys::source::FaultSpec;
use qsys::types::{SimClock, UqId};
use qsys::{run_workload, Engine, EngineConfig, QueryOutcome, RunReport, SharingMode};
use qsys_workload::gus::{self, GusConfig};
use qsys_workload::pfam::{self, PfamConfig};
use qsys_workload::{Workload, WorkloadQuery};
use std::collections::{BTreeMap, BTreeSet};

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
/// it up as `EngineConfig::lane_threads`.
static LANE_THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();

/// Install the `--lane-threads` override (first call wins).
pub fn set_lane_threads(n: usize) {
    let _ = LANE_THREADS.set(n.max(1));
}

/// The lane-thread count experiments run under: the `--lane-threads`
/// override if given, else the machine's parallelism (the engine default).
pub fn lane_threads() -> usize {
    LANE_THREADS
        .get()
        .copied()
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
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
        ..EngineConfig::default()
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
    // (one per tuple streamed), then where the tuples consumed came from —
    // stream reads, or the results of remote probes.
    let footer = |label: &str, count: fn(&RunReport) -> u64| {
        print!("{label}");
        for r in runs {
            print!(" {:>9}", r.reports.iter().map(count).sum::<u64>());
        }
        println!();
    };
    footer("rnds", |rep| rep.tuples_streamed);
    footer("tups", |rep| rep.tuples_consumed);
    footer("prbs", |rep| rep.probes);
    footer("prbt", probe_tuples);
    println!(
        "(rnds stream-read rounds; tups input tuples consumed, = tuples streamed + prbt; \
         prbs remote probes; prbt tuples those probes returned)"
    );
}

/// Tuples returned by a run's remote probes: what it consumed beyond the
/// tuples its streams delivered.
fn probe_tuples(report: &RunReport) -> u64 {
    report.tuples_consumed - report.tuples_streamed
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
    /// Remote probes issued.
    pub probes: u64,
    /// Tuples those probes returned (the rest of `tuples_consumed` was
    /// streamed).
    pub probe_tuples: u64,
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
            probes: summary.reports.iter().map(|r| r.probes).sum(),
            probe_tuples: summary.reports.iter().map(probe_tuples).sum(),
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
        "  of which probe results:     SINGLE-OPT {} vs BATCH-OPT {} ({} vs {} remote probes)",
        single.probe_tuples, batch.probe_tuples, single.probes, batch.probes
    );
    let change = batch.tuples_consumed as f64 / single.tuples_consumed.max(1) as f64 - 1.0;
    let (direction, verdict) = if change > 0.0 {
        ("more", "the paper's sharing gain runs the other way here")
    } else {
        ("fewer", "the sharing gain the paper reports")
    };
    println!(
        "(per-UQ latency under batching includes co-batched queries' work; in the totals \
         BATCH-OPT reads {:.0}% {direction} tuples than SINGLE-OPT: {verdict})",
        100.0 * change.abs()
    );
}

// ---------------------------------------------------------------------------
// Figure 10: total work (tuples consumed), 5 UQs vs 15 UQs.
// ---------------------------------------------------------------------------

/// One configuration's row of Figure 10, summed over seeds.
pub struct Fig10Row {
    /// Configuration label.
    pub label: String,
    /// Input tuples consumed after 5 UQs.
    pub five: u64,
    /// Input tuples consumed after 15 UQs.
    pub fifteen: u64,
    /// Remote probes issued by the 15-UQ runs.
    pub probes: u64,
    /// Tuples those probes returned (part of `fifteen`).
    pub probe_tuples: u64,
}

/// Figure 10 under every configuration.
pub fn fig10(seeds: &[u64], scale: Scale) -> Vec<Fig10Row> {
    all_modes()
        .into_iter()
        .map(|mode| {
            let mut row = Fig10Row {
                label: mode.label().to_string(),
                five: 0,
                fifteen: 0,
                probes: 0,
                probe_tuples: 0,
            };
            for &seed in seeds {
                let w = gus_workload(seed, scale);
                row.five += run_workload(&w, &gus_engine(mode.clone(), 5), Some(5))
                    .expect("runs")
                    .tuples_consumed;
                let all = run_workload(&w, &gus_engine(mode.clone(), 5), None).expect("runs");
                row.fifteen += all.tuples_consumed;
                row.probes += all.probes;
                row.probe_tuples += probe_tuples(&all);
            }
            row
        })
        .collect()
}

/// Print Figure 10.
pub fn print_fig10(rows: &[Fig10Row]) {
    println!("Figure 10: total work done (input tuples consumed), 5 vs 15 UQs");
    println!(
        "{:>10} {:>12} {:>12} {:>8} {:>12} {:>12}",
        "config", "5-UQ", "15-UQ", "ratio", "15-UQ prbs", "15-UQ prbt"
    );
    for r in rows {
        println!(
            "{:>10} {:>12} {:>12} {:>8.2} {:>12} {:>12}",
            r.label,
            r.five,
            r.fifteen,
            r.fifteen as f64 / r.five.max(1) as f64,
            r.probes,
            r.probe_tuples
        );
    }
    println!(
        "(prbs remote probes; prbt tuples they returned, part of the tuples consumed — \
         the rest were streamed)"
    );
}

// ---------------------------------------------------------------------------
// Figure 11: optimization time vs number of candidate inputs.
// ---------------------------------------------------------------------------

/// One point of Figure 11: `(candidates, explored states, virtual µs,
/// wall µs)` of one search.
pub type Fig11Point = (usize, usize, u64, u128);

/// Figure 11's optimizer: every push-down candidate is admitted (no
/// sharing minimum, no cardinality bar) up to `cap`.
pub fn fig11_optimizer(catalog: &qsys::catalog::Catalog, cap: usize) -> Optimizer<'_> {
    let config = OptimizerConfig {
        k: 50,
        heuristics: HeuristicConfig {
            max_candidates: cap,
            min_sharing: 1,
            low_cardinality: f64::MAX,
        },
        ..OptimizerConfig::default()
    };
    Optimizer::new(catalog, config)
}

/// Figure 11's user query: of the script's first five, the one with the
/// largest push-down candidate pool (the first on a tie), with its sweep
/// of the candidate cap from 0 up to that pool's size. The optimizer
/// searches each user query alone, so one search is what the figure
/// charts.
pub fn fig11_query(w: &Workload) -> (qsys::query::UserQuery, Vec<Fig11Point>) {
    let engine = gus_engine(SharingMode::AtcFull, 5);
    let (uqs, _) = qsys::generate_user_queries(w, &engine).expect("generates");
    // Each query's sweep ends at the first cap that no longer binds, whose
    // point holds the whole pool.
    let sweep = |uq: &qsys::query::UserQuery| {
        let batch: Vec<_> = uq.cqs.iter().map(|(cq, f)| (cq, f)).collect();
        let mut out = Vec::new();
        for cap in 0..=HeuristicConfig::MAX_CANDIDATES_LIMIT {
            let optimizer = fig11_optimizer(&w.catalog, cap);
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
            if stats.candidates < cap {
                break;
            }
        }
        out.dedup_by_key(|p| p.0);
        out
    };
    uqs.into_iter()
        .take(5)
        .map(|uq| {
            let points = sweep(&uq);
            (uq, points)
        })
        .reduce(|best, next| {
            if next.1.len() > best.1.len() {
                next
            } else {
                best
            }
        })
        .expect("the script has a user query")
}

/// Figure 11 over the seed's script: [`fig11_query`]'s sweep.
pub fn fig11(seed: u64, scale: Scale) -> Vec<Fig11Point> {
    fig11_query(&gus_workload(seed, scale)).1
}

/// Print Figure 11.
pub fn print_fig11(points: &[Fig11Point]) {
    println!("Figure 11: optimization times vs candidate inputs (one UQ, the largest pool of 5)");
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

/// Recovery ablation: a repeated query answered warm (RecoverState) vs
/// cold (fresh engine). Returns (warm stream reads, cold stream reads).
///
/// The repeat is the first query's keywords posed by the second query's
/// user, whose learned edge costs re-weigh the score functions: the same
/// conjunctive queries over the same streams, so RecoverState replays
/// them. (A repeat with identical scoring would publish the first pose's
/// retained top-k and read nothing.)
pub fn ablation_recovery(seed: u64, scale: Scale) -> (u64, u64) {
    let mut w = gus_workload(seed, scale);
    let engine = gus_engine(SharingMode::AtcFull, 1);
    let first = w.queries[0].clone();
    let repeat = WorkloadQuery {
        keywords: first.keywords.clone(),
        ..w.queries[1].clone()
    };
    let mut pose = |queries: Vec<WorkloadQuery>| {
        w.queries = queries;
        run_workload(&w, &engine, None)
            .expect("runs")
            .tuples_streamed
    };
    let warm = pose(vec![first.clone(), repeat.clone()]).saturating_sub(pose(vec![first]));
    (warm, pose(vec![repeat]))
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
// The session-driven run and the answer gate the chaos sweep and the audit share.
// ---------------------------------------------------------------------------

/// Per-query outcome + answer fingerprint (score bits, tuple text), in
/// delivery order.
pub type Answers = BTreeMap<UqId, (QueryOutcome, Vec<(u64, String)>)>;

/// Drive `w`'s whole script through a fresh engine under `cfg`: submit
/// everything, drain, fingerprint every ticket (`run_workload` returns
/// only the report, and the gates need the answers). The engine comes
/// back drained — for its report or its verifier.
pub fn drive(w: &Workload, cfg: EngineConfig) -> (Engine, Answers) {
    let mut engine = Engine::for_workload(w, cfg);
    let tickets = engine.submit_script(w).expect("the config is valid");
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
    (engine, answers)
}

/// How many of `arm`'s queries fail the answer gate against `base`. Faults
/// may degrade a query but never corrupt one — "no tuple loss on unfaulted
/// relations": a `Complete` answer is the baseline's exact sequence, and
/// under a relation-scoped schedule (`faulted_readers` = the queries
/// reading the faulted relation) every other query must resolve
/// `Complete`.
pub fn answer_gate(
    base: &Answers,
    arm: &Answers,
    faulted_readers: Option<&BTreeSet<UqId>>,
) -> usize {
    arm.iter()
        .filter(|(uq, (outcome, tuples))| {
            let Some((_, want)) = base.get(uq) else {
                return true;
            };
            match outcome {
                QueryOutcome::Complete => tuples != want,
                _ => faulted_readers.is_some_and(|r| !r.contains(uq)),
            }
        })
        .count()
}

/// One arm of a sweep: its run, and how many queries failed the sweep's
/// answer gate against the baseline arm.
pub struct SweepArm {
    /// Arm name ("fault-free", "transient-5pct", …).
    pub label: String,
    /// Full run report.
    pub report: RunReport,
    /// [`answer_gate`] failures (0 for the baseline itself).
    pub gate_violations: usize,
}

impl SweepArm {
    /// The printed gate column.
    fn gate(&self) -> &'static str {
        if self.gate_violations == 0 {
            "ok"
        } else {
            "FAIL"
        }
    }
}

/// The one sweep driver: [`drive`] every arm over `w`. The first arm is the
/// baseline; each later arm's answers are gated against it with that arm's
/// faulted readers. A sweep is its arm table plus a printer.
fn run_arms<'a>(
    w: &Workload,
    arms: impl IntoIterator<Item = (String, EngineConfig, Option<&'a BTreeSet<UqId>>)>,
) -> Vec<SweepArm> {
    let mut base: Option<Answers> = None;
    arms.into_iter()
        .map(|(label, cfg, faulted_readers)| {
            let (engine, answers) = drive(w, cfg);
            let gate_violations = match &base {
                Some(base) => answer_gate(base, &answers, faulted_readers),
                None => {
                    base = Some(answers);
                    0
                }
            };
            SweepArm {
                label,
                report: engine.report(),
                gate_violations,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Chaos sweep: resilience under deterministic fault schedules.
// ---------------------------------------------------------------------------

/// One fault-free baseline plus transient-rate and hard-outage arms over the
/// same workload.
pub struct ChaosSweep {
    /// The relation the outage arm takes dark at t = 0.
    pub victim: u32,
    /// How many of the workload's user queries read the victim.
    pub victim_readers: usize,
    /// Arms in sweep order (index 0 is the fault-free baseline).
    pub arms: Vec<SweepArm>,
}

/// The outage victim: the most-read relation that still has non-readers,
/// so the arm both bites and leaves bystanders to check.
fn chaos_victim(w: &Workload) -> (u32, BTreeSet<UqId>) {
    let (uqs, _) = qsys::generate_user_queries(w, &gus_engine(SharingMode::AtcFull, 5))
        .expect("workload generates");
    let mut readers: BTreeMap<u32, BTreeSet<UqId>> = BTreeMap::new();
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

/// Run the chaos sweep: fault-free baseline, 1% and 5% transient-error
/// rates, and a hard outage of one relation from t = 0. All schedules are
/// seeded, so the sweep replays identically.
pub fn chaos_sweep(seed: u64, scale: Scale) -> ChaosSweep {
    let w = gus_workload(seed, scale);
    let (victim, victim_readers) = chaos_victim(&w);
    let arm = |label: &str, faults: Option<FaultSpec>, faulted_readers| {
        let mut cfg = gus_engine(SharingMode::AtcFull, 5);
        cfg.faults = faults;
        (label.to_string(), cfg, faulted_readers)
    };
    let spec = || FaultSpec::new(1009);
    let arms = run_arms(
        &w,
        [
            arm("fault-free", None, None),
            arm("transient-1pct", Some(spec().transient(0.01)), None),
            arm("transient-5pct", Some(spec().transient(0.05)), None),
            arm(
                "hard-outage",
                Some(spec().outage(victim, 0, None)),
                Some(&victim_readers),
            ),
        ],
    );
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
            arm.gate(),
        );
    }
}

// ---------------------------------------------------------------------------
// Invariant audit: the `reproduce verify` subcommand.
// ---------------------------------------------------------------------------

/// One audited engine run: an (arm × seed × lane-thread) combination and
/// the verifier's findings over the live engine.
pub struct VerifyArm {
    /// e.g. `"seed 41 / atc-cl / threads 4"`.
    pub label: String,
    /// Lanes the engine ended the run with.
    pub lanes: usize,
    /// Rendered violations from `Engine::verify` (empty = clean).
    pub violations: Vec<String>,
}

/// The whole audit: every arm of `reproduce verify`.
pub struct VerifyAudit {
    pub arms: Vec<VerifyArm>,
}

impl VerifyAudit {
    pub fn is_clean(&self) -> bool {
        self.arms.iter().all(|a| a.violations.is_empty())
    }

    pub fn total_violations(&self) -> usize {
        self.arms.iter().map(|a| a.violations.len()).sum()
    }
}

/// [`drive`] one engine over `w` under `cfg`, then audit its live
/// structures via [`qsys::Engine::verify`].
fn audited_run(label: String, w: &Workload, cfg: EngineConfig) -> VerifyArm {
    let (engine, _) = drive(w, cfg);
    VerifyArm {
        label,
        lanes: engine.lanes(),
        violations: engine
            .verify()
            .violations
            .iter()
            .map(ToString::to_string)
            .collect(),
    }
}

/// Run the invariant audit across the repo's standard arms: ATC-CL on each
/// seed at 1 and 4 lane threads, clustered as the benchmark's `gus-cl-par`
/// is so that every seed runs several lanes (the multi-lane coverage),
/// plus one chaos arm (5% transient faults) — the configurations whose
/// phase machinery (clustering, fault quarantine) exercises every
/// invariant family the verifier checks.
pub fn verify_audit(seeds: &[u64], scale: Scale) -> VerifyAudit {
    let mut arms = Vec::new();
    for &seed in seeds {
        let w = gus_workload(seed, scale);
        for threads in [1usize, 4] {
            let mut cfg = gus_engine(SharingMode::AtcCl(ClusterConfig { t_m: 2, t_c: 0.9 }), 5);
            cfg.lane_threads = threads;
            arms.push(audited_run(
                format!("seed {seed} / atc-cl / threads {threads}"),
                &w,
                cfg,
            ));
        }
        // Chaos arm: 5% transient faults — quarantine/degradation paths.
        let mut cfg = gus_engine(SharingMode::AtcFull, 5);
        cfg.faults = Some(FaultSpec::new(1009).transient(0.05));
        arms.push(audited_run(format!("seed {seed} / chaos-5pct"), &w, cfg));
    }
    VerifyAudit { arms }
}

/// Print the audit as a table.
pub fn print_verify(audit: &VerifyAudit) {
    println!("Invariant audit: live engine state, per arm");
    println!("{:>34}  lanes  violations", "arm");
    for arm in &audit.arms {
        println!(
            "{:>34}  {:>5}  {:>10}",
            arm.label,
            arm.lanes,
            arm.violations.len(),
        );
    }
    for arm in &audit.arms {
        for v in &arm.violations {
            println!("  VIOLATION [{}] {v}", arm.label);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two queries' answers: query 0 as given, query 1 one fixed tuple
    /// (or nothing, when it did not complete).
    fn answers(q0: &[(f64, &str)], q1: QueryOutcome) -> Answers {
        let fingerprint = |tuples: &[(f64, &str)]| -> Vec<(u64, String)> {
            tuples
                .iter()
                .map(|(score, text)| (score.to_bits(), text.to_string()))
                .collect()
        };
        let q1_tuples: &[(f64, &str)] = if q1.is_complete() { &[(5.0, "x")] } else { &[] };
        BTreeMap::from([
            (UqId::new(0), (QueryOutcome::Complete, fingerprint(q0))),
            (UqId::new(1), (q1, fingerprint(q1_tuples))),
        ])
    }

    #[test]
    fn answer_gate_counts_failures() {
        use QueryOutcome::Complete;
        let readers = BTreeSet::from([UqId::new(0)]);
        let scopes = [None, Some(&readers)];
        let q0 = [(3.0, "a"), (2.0, "b"), (2.0, "c"), (1.0, "d")];
        let base = answers(&q0, Complete);
        for scope in scopes {
            assert_eq!(answer_gate(&base, &base, scope), 0);
        }

        // A flipped score bit is a wrong answer under any schedule.
        let mut flipped = q0;
        flipped[0].0 = f64::from_bits(3.0f64.to_bits() ^ 1);
        for scope in scopes {
            assert_eq!(answer_gate(&base, &answers(&flipped, Complete), scope), 1);
        }

        // Equal-score answers delivered in another order: a `Complete`
        // answer must be the baseline's exact sequence.
        let mut reordered = q0;
        reordered.swap(1, 2);
        assert_eq!(answer_gate(&base, &answers(&reordered, Complete), None), 1);

        // A degraded query: allowed under faults unless the schedule was
        // scoped to a relation it never reads.
        let degraded = QueryOutcome::Degraded {
            missing_rels: vec![qsys::types::RelId::new(2)],
        };
        let arm = answers(&q0, degraded);
        assert_eq!(answer_gate(&base, &arm, None), 0);
        assert_eq!(answer_gate(&base, &arm, Some(&readers)), 1);
    }

    /// Figure 11's uncapped BestPlan search on GUS seed 41, as recorded:
    /// the pool [`fig11_query`] picks, the states it names, its memo hits
    /// and the bits of the winning cost. A search that prunes, orders or
    /// prices differently moves one of them.
    #[test]
    fn fig11_uncapped_search_is_the_recorded_one() {
        let workload = gus_workload(41, Scale::Small);
        let (uq, sweep) = fig11_query(&workload);
        let pool = sweep.last().map_or(0, |point| point.0);
        let batch: Vec<_> = uq.cqs.iter().map(|(cq, f)| (cq, f)).collect();
        let interner = qsys::query::SigCell::new(qsys::query::SigInterner::new());
        let (_, stats) =
            fig11_optimizer(&workload.catalog, pool).optimize(&batch, &NoReuse, None, &interner);
        assert_eq!(
            (
                pool,
                stats.explored,
                stats.memo_hits,
                stats.best_cost.to_bits()
            ),
            (11, 3_071, 2_015, 0x4186_09e8_1c8f_84e5),
            "{stats:?}"
        );
    }
}
