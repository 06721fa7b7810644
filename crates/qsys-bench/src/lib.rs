//! The experiments regenerating every table and figure of the paper's
//! evaluation (Section 7), plus what this reproduction adds beside them:
//! ablations of its own choices (ATC scheduling, recovery, eviction,
//! probe-cache sharing), the print-only, self-gated `chaos` sweep, and
//! the `verify` invariant audit.
//!
//! Every engine run an experiment reads is a [`Run`] of one [`Matrix`]:
//! what makes a run distinct (dataset, seed, how much of the script,
//! sharing mode, batch size, the one setting an ablation varies) is its
//! key, the first experiment to read it builds it, and every later reader
//! shares its report — Table 4, Figure 7's ATC-FULL column and Figure 10's
//! 15-UQ cell are one run per seed. [`EXPERIMENTS`] is the one ordered
//! table of named experiments, each a printer over the matrix; the
//! `reproduce` binary parses its flags and walks that table. All numbers
//! are *simulated* (virtual-clock) quantities — the sources are
//! in-process tables charged on a virtual clock, not MySQL over a WAN — so
//! the claims under reproduction are about relative behaviour between
//! configurations, not absolute seconds. Nothing here times the host for
//! the record: host-clock measurement is `perf/run.sh` (`BENCHMARK.json`,
//! `perf/README.md`), and the one host wall printed here (Figure 11's
//! wall column) is an observation of one run.
//!
//! The chaos sweep and the audit gate on answers and live engine state,
//! which a run's report does not hold, so they drive their own engines:
//! [`drive`] submits a script through `Engine::submit_script`, drains the
//! engine and fingerprints every ticket; [`answer_gate`] compares an arm's
//! answers with the baseline's.

use qsys::opt::cluster::ClusterConfig;
use qsys::opt::cost::NoReuse;
use qsys::opt::{HeuristicConfig, Optimizer, OptimizerConfig};
use qsys::query::CandidateConfig;
use qsys::source::FaultSpec;
use qsys::types::{SimClock, UqId};
use qsys::{run_workload, Engine, EngineConfig, QueryOutcome, RunReport, SharingMode, UqReport};
use qsys_workload::gus::{self, GusConfig};
use qsys_workload::pfam::{self, PfamConfig};
use qsys_workload::{Workload, WorkloadQuery};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-scale rows (full schema, reduced cardinalities).
    Small,
    /// The paper's cardinalities (20k–100k rows/relation) — slow.
    Paper,
}

/// Process-wide lane-thread override, set once by the `--lane-threads`
/// flag before any experiment runs; every engine the experiments build
/// picks it up as `EngineConfig::lane_threads` (else the engine default,
/// the machine's parallelism).
static LANE_THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();

/// Install the `--lane-threads` override (first call wins).
pub fn set_lane_threads(n: usize) {
    let _ = LANE_THREADS.set(n.max(1));
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
    let default = EngineConfig::default();
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
        lane_threads: LANE_THREADS.get().copied().unwrap_or(default.lane_threads),
        ..default
    }
}

/// The engine configuration for the Pfam experiments: "each user query
/// here resulted in 4 conjunctive queries" (Section 7.5).
pub fn pfam_engine(mode: SharingMode) -> EngineConfig {
    let mut config = gus_engine(mode, 5);
    config.candidate.max_cqs = 4;
    config.candidate.matches_per_keyword = 2;
    config
}

// ---------------------------------------------------------------------------
// The run matrix: every engine run the experiments read, each built once.
// ---------------------------------------------------------------------------

/// Which generator a run's instance comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// The synthetic GUS instances (Table 4, Figures 7–11, the ablations).
    Gus,
    /// The Pfam/InterPro instances (Figure 12).
    Pfam,
}

/// What a run poses of its instance's script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Script {
    /// The script, stopped once `Some(n)` user queries have admitted.
    Prefix(Option<usize>),
    /// The recovery ablation's repeat: query 0's keywords posed by query
    /// 1's user, whose learned edge costs re-weigh the score functions —
    /// the same conjunctive queries over the same streams — after query 0
    /// itself when `after_first`.
    Repeat { after_first: bool },
}

/// One run of the matrix: an instance, what is posed of its script, and
/// the engine it runs on. Two runs are one when every field is equal.
#[derive(Clone, Debug)]
pub struct Run {
    /// The instance's generator.
    pub dataset: Dataset,
    /// The instance seed.
    pub seed: u64,
    /// What is posed.
    pub script: Script,
    /// The engine: the experiment's config ([`gus_engine`],
    /// [`pfam_engine`]) with the one setting an ablation varies.
    pub config: EngineConfig,
}

impl Run {
    /// The whole GUS script of `seed` on Section 7's engine.
    pub fn gus(seed: u64, mode: SharingMode, batch_size: usize) -> Run {
        Run {
            dataset: Dataset::Gus,
            seed,
            script: Script::Prefix(None),
            config: gus_engine(mode, batch_size),
        }
    }

    /// The whole Pfam script of `seed` on Section 7.5's engine.
    pub fn pfam(seed: u64, mode: SharingMode) -> Run {
        Run {
            dataset: Dataset::Pfam,
            seed,
            script: Script::Prefix(None),
            config: pfam_engine(mode),
        }
    }

    /// This run stopped after `n` user queries.
    pub fn first(self, n: usize) -> Run {
        Run {
            script: Script::Prefix(Some(n)),
            ..self
        }
    }

    fn build(&self, scale: Scale) -> RunReport {
        let mut w = match self.dataset {
            Dataset::Gus => gus_workload(self.seed, scale),
            Dataset::Pfam => pfam_workload(self.seed, scale),
        };
        let limit = match self.script {
            Script::Prefix(limit) => limit,
            Script::Repeat { after_first } => {
                let first = w.queries[0].clone();
                let repeat = WorkloadQuery {
                    keywords: first.keywords.clone(),
                    ..w.queries[1].clone()
                };
                w.queries = if after_first {
                    vec![first, repeat]
                } else {
                    vec![repeat]
                };
                None
            }
        };
        run_workload(&w, &self.config, limit).expect("runs")
    }
}

/// The runs of one `reproduce` invocation: the first experiment to read a
/// run builds it, and every later reader gets the same report.
pub struct Matrix {
    /// Instance seeds the experiments average over.
    pub seeds: Vec<u64>,
    /// Instance scale.
    pub scale: Scale,
    /// Built runs, keyed by their `Debug` text: `EngineConfig` has no
    /// `PartialEq`, and a run's text spells out every field of it.
    runs: RefCell<Vec<(String, Rc<RunReport>)>>,
    /// Every run built, in build order.
    #[cfg(test)]
    built: RefCell<Vec<Run>>,
}

impl Matrix {
    pub fn new(seeds: Vec<u64>, scale: Scale) -> Matrix {
        Matrix {
            seeds,
            scale,
            runs: RefCell::default(),
            #[cfg(test)]
            built: RefCell::default(),
        }
    }

    /// `run`'s report, built on its first read.
    pub fn report(&self, run: &Run) -> Rc<RunReport> {
        let key = format!("{run:?}");
        if let Some((_, report)) = self.runs.borrow().iter().find(|(k, _)| *k == key) {
            return Rc::clone(report);
        }
        let report = Rc::new(run.build(self.scale));
        #[cfg(test)]
        self.built.borrow_mut().push(run.clone());
        self.runs.borrow_mut().push((key, Rc::clone(&report)));
        report
    }

    /// `run(seed)`'s report for every seed, in seed order.
    pub fn per_seed(&self, run: impl Fn(u64) -> Run) -> Vec<Rc<RunReport>> {
        self.seeds.iter().map(|&s| self.report(&run(s))).collect()
    }
}

/// One named experiment of `reproduce`: it reads its runs from the matrix
/// and prints itself; `Err` is a failed gate.
pub struct Experiment {
    /// The subcommand.
    pub name: &'static str,
    /// Whether `reproduce all` prints it.
    pub in_all: bool,
    pub print: fn(&Matrix) -> Result<(), String>,
}

impl Experiment {
    const fn in_all(name: &'static str, print: fn(&Matrix) -> Result<(), String>) -> Experiment {
        Experiment {
            name,
            in_all: true,
            print,
        }
    }

    const fn alone(name: &'static str, print: fn(&Matrix) -> Result<(), String>) -> Experiment {
        Experiment {
            name,
            in_all: false,
            print,
        }
    }
}

/// Every experiment; `reproduce all` prints those `in_all`, in this order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment::alone("chaos", chaos),
    Experiment::alone("verify", verify),
    Experiment::in_all("table4", table4),
    Experiment::in_all("fig7", fig7),
    Experiment::in_all("fig8", fig8),
    Experiment::in_all("fig9", fig9),
    Experiment::in_all("fig10", fig10),
    Experiment::in_all("fig11", fig11),
    Experiment::in_all("fig12", fig12),
    Experiment::in_all("ablation-atc", ablation_atc),
    Experiment::in_all("ablation-recovery", ablation_recovery),
    Experiment::in_all("ablation-eviction", ablation_eviction),
    Experiment::in_all("ablation-probe-cache", ablation_probe_cache),
];

/// Mean of `value` per user query over `reports`, indexed by UQ id.
fn per_uq_mean(reports: &[Rc<RunReport>], value: impl Fn(&UqReport) -> f64) -> Vec<f64> {
    let mut sums: Vec<(f64, u32)> = Vec::new();
    for u in reports.iter().flat_map(|r| &r.per_uq) {
        let i = u.uq.index();
        if sums.len() <= i {
            sums.resize(i + 1, (0.0, 0));
        }
        sums[i].0 += value(u);
        sums[i].1 += 1;
    }
    sums.into_iter()
        .map(|(s, c)| if c == 0 { 0.0 } else { s / c as f64 })
        .collect()
}

/// One configuration over the seeds: a column of Figures 7, 8, 9 and 12.
struct Column {
    label: &'static str,
    reports: Vec<Rc<RunReport>>,
}

impl Column {
    /// `mode`'s runs, `run(seed, mode)` for every seed.
    fn over(m: &Matrix, mode: SharingMode, run: impl Fn(u64, SharingMode) -> Run) -> Column {
        Column {
            label: mode.label(),
            reports: m.per_seed(|s| run(s, mode.clone())),
        }
    }

    /// Per-UQ mean response times (virtual s).
    fn per_uq_secs(&self) -> Vec<f64> {
        per_uq_mean(&self.reports, |u| u.response_us as f64 / 1e6)
    }

    fn sum(&self, count: fn(&RunReport) -> u64) -> u64 {
        self.reports.iter().map(|r| count(r)).sum()
    }

    fn mean(&self, value: impl Fn(&RunReport) -> f64) -> f64 {
        self.reports.iter().map(|r| value(r)).sum::<f64>() / self.reports.len().max(1) as f64
    }
}

/// Tuples returned by a run's remote probes: what it consumed beyond the
/// tuples its streams delivered.
fn probe_tuples(report: &RunReport) -> u64 {
    report.tuples_consumed - report.tuples_streamed
}

/// Section 7.1's four configurations over the GUS scripts, batches of 5.
fn gus_columns(m: &Matrix) -> Vec<Column> {
    all_modes()
        .into_iter()
        .map(|mode| Column::over(m, mode, |s, mode| Run::gus(s, mode, 5)))
        .collect()
}

/// The per-UQ response table of Figures 7 and 12, one column per
/// configuration; `note` ends the header line.
fn print_per_uq(title: &str, columns: &[Column], note: &str) {
    println!("{title}");
    print!("{:>4}", "UQ");
    for c in columns {
        print!(" {:>9}", c.label);
    }
    println!("{note}");
    let secs: Vec<Vec<f64>> = columns.iter().map(Column::per_uq_secs).collect();
    for i in 0..secs.iter().map(Vec::len).max().unwrap_or(0) {
        print!("{:>4}", i + 1);
        for s in &secs {
            match s.get(i) {
                Some(v) => print!(" {v:>9.3}"),
                None => print!(" {:>9}", "-"),
            }
        }
        println!();
    }
    print!("mean");
    for s in &secs {
        print!(" {:>9.3}", s.iter().sum::<f64>() / s.len().max(1) as f64);
    }
    println!();
}

/// Table 4: average conjunctive queries executed to return top-50, per UQ.
fn table4(m: &Matrix) -> Result<(), String> {
    let reports = m.per_seed(|s| Run::gus(s, SharingMode::AtcFull, 5));
    let avgs = per_uq_mean(&reports, |u| u.cqs_executed as f64);
    println!("Table 4: average # conjunctive queries executed per user query (top-50)");
    print!("UQ     ");
    for i in 0..avgs.len() {
        print!(" {:>6}", i + 1);
    }
    println!();
    print!("Queries");
    for v in &avgs {
        print!(" {v:>6.2}");
    }
    println!();
    Ok(())
}

/// Figure 7: running time per UQ, per configuration, with the runs'
/// source accounting.
fn fig7(m: &Matrix) -> Result<(), String> {
    let columns = gus_columns(m);
    print_per_uq(
        "Figure 7: running times (virtual s) to return top-50 per user query",
        &columns,
        "",
    );
    // Network rounds spent on stream reads (one per tuple streamed), then
    // where the tuples consumed came from — stream reads, or the results
    // of remote probes.
    let footer = |label: &str, count: fn(&RunReport) -> u64| {
        print!("{label}");
        for c in &columns {
            print!(" {:>9}", c.sum(count));
        }
        println!();
    };
    footer("rnds", |r| r.tuples_streamed);
    footer("tups", |r| r.tuples_consumed);
    footer("prbs", |r| r.probes);
    footer("prbt", probe_tuples);
    println!(
        "(rnds stream-read rounds; tups input tuples consumed, = tuples streamed + prbt; \
         prbs remote probes; prbt tuples those probes returned)"
    );
    Ok(())
}

/// Figure 8: normalized execution-time breakdown of Figure 7's runs.
fn fig8(m: &Matrix) -> Result<(), String> {
    println!("Figure 8: breakdown of execution time (fractions of total)");
    println!(
        "{:>10} {:>12} {:>14} {:>10}",
        "config", "stream read", "random access", "join"
    );
    for c in gus_columns(m) {
        let f = |part: fn((f64, f64, f64)) -> f64| c.mean(|r| part(r.breakdown.exec_fractions()));
        println!(
            "{:>10} {:>12.3} {:>14.3} {:>10.3}",
            c.label,
            f(|f| f.0),
            f(|f| f.1),
            f(|f| f.2)
        );
    }
    Ok(())
}

/// Figure 9: SINGLE-OPT (batch = 1) vs BATCH-OPT (batch = 5), both ATC-CL.
fn fig9(m: &Matrix) -> Result<(), String> {
    let atc_cl = SharingMode::AtcCl(ClusterConfig::default());
    let [single, batch] =
        [1, 5].map(|b| Column::over(m, atc_cl.clone(), |s, mode| Run::gus(s, mode, b)));
    println!("Figure 9: individually (SINGLE-OPT) vs batch-optimized (BATCH-OPT) queries");
    println!("{:>4} {:>12} {:>12}", "UQ", "SINGLE-OPT", "BATCH-OPT");
    let (s, b) = (single.per_uq_secs(), batch.per_uq_secs());
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
    let exec = |c: &Column| c.mean(|r| r.breakdown.exec_us() as f64 / 1e6);
    println!(
        "workload total exec time (s): SINGLE-OPT {:.1} vs BATCH-OPT {:.1}",
        exec(&single),
        exec(&batch)
    );
    let tuples = |c: &Column| c.sum(|r| r.tuples_consumed);
    let (ts, tb) = (tuples(&single), tuples(&batch));
    println!("tuples consumed:              SINGLE-OPT {ts} vs BATCH-OPT {tb}");
    println!(
        "  of which probe results:     SINGLE-OPT {} vs BATCH-OPT {} ({} vs {} remote probes)",
        single.sum(probe_tuples),
        batch.sum(probe_tuples),
        single.sum(|r| r.probes),
        batch.sum(|r| r.probes)
    );
    let change = tb as f64 / ts.max(1) as f64 - 1.0;
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
    Ok(())
}

/// Figure 10: total work (tuples consumed) after 5 and after 15 UQs.
fn fig10(m: &Matrix) -> Result<(), String> {
    println!("Figure 10: total work done (input tuples consumed), 5 vs 15 UQs");
    println!(
        "{:>10} {:>12} {:>12} {:>8} {:>12} {:>12}",
        "config", "5-UQ", "15-UQ", "ratio", "15-UQ prbs", "15-UQ prbt"
    );
    for mode in all_modes() {
        let five = Column::over(m, mode.clone(), |s, mode| Run::gus(s, mode, 5).first(5));
        let all = Column::over(m, mode, |s, mode| Run::gus(s, mode, 5));
        let (five, fifteen) = (
            five.sum(|r| r.tuples_consumed),
            all.sum(|r| r.tuples_consumed),
        );
        println!(
            "{:>10} {:>12} {:>12} {:>8.2} {:>12} {:>12}",
            all.label,
            five,
            fifteen,
            fifteen as f64 / five.max(1) as f64,
            all.sum(|r| r.probes),
            all.sum(probe_tuples)
        );
    }
    println!(
        "(prbs remote probes; prbt tuples they returned, part of the tuples consumed — \
         the rest were streamed)"
    );
    Ok(())
}

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

/// Figure 11: optimization time vs candidate inputs, over one UQ.
fn fig11(m: &Matrix) -> Result<(), String> {
    let (_, points) = fig11_query(&gus_workload(m.seeds[0], m.scale));
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
            virt as f64 / 1e3,
            wall as f64 / 1e3
        );
    }
    Ok(())
}

/// Figure 12: per-UQ running times over the Pfam workload. ATC-CL's
/// clustering thresholds are tightened (`T_m` = 3, `T_c` = 0.4) so the
/// denser per-UQ relation references of the 9-relation schema can still
/// split into several plan graphs, as the paper's manual clustering did
/// (3 graphs).
fn fig12(m: &Matrix) -> Result<(), String> {
    let modes = [
        SharingMode::AtcCq,
        SharingMode::AtcUq,
        SharingMode::AtcFull,
        SharingMode::AtcCl(ClusterConfig { t_m: 3, t_c: 0.4 }),
    ];
    let columns: Vec<Column> = modes
        .into_iter()
        .map(|mode| Column::over(m, mode, Run::pfam))
        .collect();
    let lanes = columns.last().map_or(1, |c| c.reports[0].lanes);
    print_per_uq(
        "Figure 12: execution times over the Pfam/InterPro dataset (virtual s)",
        &columns,
        &format!("  (lanes used by ATC-CL: {lanes})"),
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Ablations of this reproduction's own choices, on the first seed.
// ---------------------------------------------------------------------------

/// ATC scheduling: round-robin vs greedy-threshold mean response, 8 UQs.
fn ablation_atc(m: &Matrix) -> Result<(), String> {
    use qsys::exec::SchedulingPolicy;
    println!("Ablation: ATC scheduling policy (mean response, virtual s)");
    for policy in [
        SchedulingPolicy::RoundRobin,
        SchedulingPolicy::GreedyThreshold,
    ] {
        let mut run = Run::gus(m.seeds[0], SharingMode::AtcFull, 5).first(8);
        run.config.scheduling = policy;
        let mean = m.report(&run).mean_response_us() / 1e6;
        println!("{:>16}: {mean:.3}", format!("{policy:?}"));
    }
    Ok(())
}

/// RecoverState: stream reads for a repeated query answered warm (after
/// its first pose, on the same engine) vs cold (a fresh engine). The
/// repeat is re-weighted ([`Script::Repeat`]): a repeat with identical
/// scoring would publish the first pose's retained top-k and read nothing.
fn ablation_recovery(m: &Matrix) -> Result<(), String> {
    let streamed = |script| {
        let run = Run {
            script,
            ..Run::gus(m.seeds[0], SharingMode::AtcFull, 1)
        };
        m.report(&run).tuples_streamed
    };
    let warm = streamed(Script::Repeat { after_first: true })
        .saturating_sub(streamed(Script::Prefix(Some(1))));
    let cold = streamed(Script::Repeat { after_first: false });
    println!(
        "Ablation: RecoverState vs re-execution (stream reads for a repeated query, \
         re-weighted by another user's edge costs)"
    );
    println!("  warm (recovered): {warm}");
    println!("  cold (fresh)    : {cold}");
    Ok(())
}

/// Eviction: stream reads for a 10-query session, first across memory
/// budgets (how much reuse a tight budget destroys), then across
/// replacement policies at the tightest budget. (The paper found LRU with
/// size tie-break best; differences are modest, Section 6.3.)
fn ablation_eviction(m: &Matrix) -> Result<(), String> {
    use qsys::state::EvictionPolicy::{self, Lru, SizeGreedy};
    let (default, tight) = (EvictionPolicy::default(), 1 << 16);
    println!("Ablation: memory budget / eviction pressure (stream reads, 10 UQs)");
    for (budget, policy) in [
        (usize::MAX, default),
        (1 << 22, default),
        (tight, default),
        (tight, Lru),
        (tight, SizeGreedy),
    ] {
        let mut label = match budget {
            usize::MAX => "unlimited".to_string(),
            b if b >= 1 << 20 => format!("{} MiB", b >> 20),
            b => format!("{} KiB", b >> 10),
        };
        if policy != default {
            label = format!("{policy:?}@{label}");
        }
        let mut run = Run::gus(m.seeds[0], SharingMode::AtcFull, 5).first(10);
        run.config.memory_budget = budget;
        run.config.eviction = policy;
        println!("{label:>12}: {}", m.report(&run).tuples_streamed);
    }
    Ok(())
}

/// Probe-cache sharing: remote probes and mean response under ATC-FULL
/// with shared vs private probe caches, 10 UQs. Sharing probe results is
/// the load-bearing half of "we cache tuples from random probes" (§7.1);
/// without it, a stream fanning out to N consumers re-probes every key N
/// times.
fn ablation_probe_cache(m: &Matrix) -> Result<(), String> {
    println!("Ablation: probe-cache sharing (ATC-FULL, 10 UQs)");
    for (label, share) in [("shared", true), ("private", false)] {
        let mut run = Run::gus(m.seeds[0], SharingMode::AtcFull, 5).first(10);
        run.config.share_probe_caches = share;
        let r = m.report(&run);
        println!(
            "{label:>8}: {} remote probes, mean response {:.3}s",
            r.probes,
            r.mean_response_us() / 1e6
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The self-gated experiments: the chaos sweep and the invariant audit. They
// drive their own engines, because they gate on answers and on live engine
// state, which a `RunReport` does not hold.
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

/// The chaos sweep on the first seed: a fault-free baseline, 1% and 5%
/// transient-error rates, and a hard outage of one relation from t = 0,
/// every schedule seeded so the sweep replays identically. Each faulted
/// arm's answers are gated against the baseline's ([`answer_gate`]).
fn chaos(m: &Matrix) -> Result<(), String> {
    let w = gus_workload(m.seeds[0], m.scale);
    let (victim, victim_readers) = chaos_victim(&w);
    let spec = || FaultSpec::new(1009);
    let arms = [
        ("fault-free", None, None),
        ("transient-1pct", Some(spec().transient(0.01)), None),
        ("transient-5pct", Some(spec().transient(0.05)), None),
        (
            "hard-outage",
            Some(spec().outage(victim, 0, None)),
            Some(&victim_readers),
        ),
    ];
    println!(
        "Chaos sweep: fault-rate vs resilience (GUS; outage victim R{victim}, {} readers)",
        victim_readers.len()
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
    let (mut base, mut failed) = (None, false);
    for (label, faults, faulted_readers) in arms {
        let mut cfg = gus_engine(SharingMode::AtcFull, 5);
        cfg.faults = faults;
        let (engine, answers) = drive(&w, cfg);
        let violations = match &base {
            Some(base) => answer_gate(base, &answers, faulted_readers),
            None => {
                base = Some(answers);
                0
            }
        };
        failed |= violations > 0;
        let report = engine.report();
        let f = &report.faults;
        println!(
            "{:>15} {:>9} {:>8} {:>7} {:>8} {:>7} {:>9} {:>10.1} {:>10.1} {:>5}",
            label,
            report.per_uq.len() - f.degraded - f.failed,
            f.degraded,
            f.failed,
            f.source.retries,
            f.source.breaker_trips,
            f.source.exhausted_fetches,
            report.response_percentile_us(50.0) as f64 / 1e3,
            report.response_percentile_us(99.0) as f64 / 1e3,
            if violations == 0 { "ok" } else { "FAIL" },
        );
    }
    if failed {
        return Err(
            "tuple loss on unfaulted relations (degradation must be strictly per-query: \
                    Complete answers bit-identical to the fault-free run, non-readers of the \
                    outaged relation untouched)"
                .into(),
        );
    }
    eprintln!("gate ok: no tuple loss on unfaulted relations");
    Ok(())
}

/// The invariant audit: on each seed, ATC-CL at 1 and 4 lane threads,
/// clustered as the benchmark's `gus-cl-par` is so that every seed runs
/// several lanes, plus one chaos arm (5% transient faults) — the
/// configurations whose phase machinery (clustering, fault quarantine)
/// exercises every invariant family the verifier checks. Each drained
/// engine is audited through [`Engine::verify`]; the gate is zero
/// violations.
fn verify(m: &Matrix) -> Result<(), String> {
    let mut arms: Vec<(String, usize, Vec<String>)> = Vec::new();
    for &seed in &m.seeds {
        let w = gus_workload(seed, m.scale);
        let mut audit = |label: String, cfg| {
            let (engine, _) = drive(&w, cfg);
            let violations = engine.verify().violations;
            let violations = violations.iter().map(ToString::to_string).collect();
            arms.push((label, engine.lanes(), violations));
        };
        for threads in [1usize, 4] {
            let mut cfg = gus_engine(SharingMode::AtcCl(ClusterConfig { t_m: 2, t_c: 0.9 }), 5);
            cfg.lane_threads = threads;
            audit(format!("seed {seed} / atc-cl / threads {threads}"), cfg);
        }
        let mut cfg = gus_engine(SharingMode::AtcFull, 5);
        cfg.faults = Some(FaultSpec::new(1009).transient(0.05));
        audit(format!("seed {seed} / chaos-5pct"), cfg);
    }
    println!("Invariant audit: live engine state, per arm");
    println!("{:>34}  lanes  violations", "arm");
    for (label, lanes, violations) in &arms {
        println!("{label:>34}  {lanes:>5}  {:>10}", violations.len());
    }
    for (label, _, violations) in &arms {
        for v in violations {
            println!("  VIOLATION [{label}] {v}");
        }
    }
    let total: usize = arms.iter().map(|(_, _, v)| v.len()).sum();
    if total > 0 {
        return Err(format!(
            "{total} invariant violation(s) — every arm must verify clean"
        ));
    }
    eprintln!("gate ok: {} arms verified clean", arms.len());
    Ok(())
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

    /// `reproduce all` on seeds 41 and 48 builds each distinct run once,
    /// 37 engines. Table 4 and Figures 7, 9 and 10 read 10 whole-script
    /// GUS runs where a run loop per figure built 22 (each printed alone,
    /// on a fresh matrix, they still do): Table 4's ATC-FULL runs are
    /// Figure 7's column and Figure 10's 15-UQ cell, Figure 7's ATC-CL
    /// runs are Figure 9's BATCH-OPT arm, and the probe-cache ablation's
    /// `shared` row is the eviction ablation's `unlimited` row.
    #[test]
    fn all_builds_each_run_once() {
        let matrix = || Matrix::new(vec![41, 48], Scale::Small);
        let whole_gus = |r: &Run| r.dataset == Dataset::Gus && r.script == Script::Prefix(None);
        let m = matrix();
        let mut built = Vec::new();
        for e in EXPERIMENTS.iter().filter(|e| e.in_all) {
            let before = m.built.borrow().len();
            (e.print)(&m).expect("`all` has no gate");
            built.push((e.name, m.built.borrow()[before..].to_vec()));
        }
        let counts: Vec<_> = built.iter().map(|(e, runs)| (*e, runs.len())).collect();
        assert_eq!(
            counts,
            [
                ("table4", 2),
                ("fig7", 6),
                ("fig8", 0),
                ("fig9", 2),
                ("fig10", 8),
                ("fig11", 0),
                ("fig12", 8),
                ("ablation-atc", 2),
                ("ablation-recovery", 3),
                ("ablation-eviction", 5),
                ("ablation-probe-cache", 1),
            ]
        );
        assert_eq!(m.runs.borrow().len(), 37, "a run was built twice");
        let runs = || built.iter().flat_map(|(_, runs)| runs);
        assert_eq!(runs().filter(|r| whole_gus(r)).count(), 10);
        let alone: usize = ["table4", "fig7", "fig9", "fig10"]
            .map(|name| {
                let m = matrix();
                let e = EXPERIMENTS.iter().find(|e| e.name == name).unwrap();
                (e.print)(&m).expect("no gate");
                let whole = m.built.borrow().iter().filter(|r| whole_gus(r)).count();
                whole
            })
            .iter()
            .sum();
        assert_eq!(alone, 22);

        // Table 4 built ATC-FULL's batch-5 runs, one per seed, and no later
        // experiment built them again. Figure 9 built only its SINGLE-OPT
        // arm, and Figure 10 only its 5-UQ prefixes.
        let atc_full = |r: &Run| {
            whole_gus(r) && r.config.sharing == SharingMode::AtcFull && r.config.batch_size == 5
        };
        let table4 = built[0].1.iter().filter(|r| atc_full(r)).map(|r| r.seed);
        assert_eq!(table4.collect::<Vec<_>>(), [41, 48]);
        assert_eq!(runs().filter(|r| atc_full(r)).count(), 2);
        assert!(built[3].1.iter().all(|r| r.config.batch_size == 1));
        assert!(built[4]
            .1
            .iter()
            .all(|r| r.script == Script::Prefix(Some(5))));
        // The probe-cache ablation built only its `private` row.
        assert!(matches!(&built[10].1[..], [r] if !r.config.share_probe_caches));
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
