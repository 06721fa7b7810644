//! One benchmark run: one workload, one seed, one process.
//!
//! The run visits suite instances one after another. Each visit sets the
//! instance up (untimed for the drive, timed into `setup_s`), poses its
//! script to a fresh engine (the timed drive) and checks every answer. A
//! traced run also poses the script to the shadow lane with spans on, and
//! asserts that the shadow lane and the engine did the same work.

use crate::digest::Golden;
use crate::drive::{pose_burst, pose_closed_loop, Pose};
use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, REPORTED};
use crate::shadow::{LayerCounters, ShadowLane, ShadowPose, SourceCounters};
use crate::stats::{highest_supported_percentile, median, percentile, samples_beyond};
use crate::suite::{
    build_instance, reference_config, refuse_qsys_env, Instance, Scenario, QUERIES_PER_INSTANCE,
    SUITE_FIRST_SEED, SUITE_LEN,
};
use crate::trace::{Layer, Tracer, NO_SPAN};
use qsys::source::Sources;
use qsys::types::SimClock;
use qsys::{Engine, EngineConfig, RunReport};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Builds per instance in one set-up; `setup_s` sums the per-instance
/// medians, so one slow build does not move it.
const SETUP_REPS: usize = 3;

pub struct RunArgs {
    pub scenario: Scenario,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Traced runs: write every span of the shadow lane to this file.
    pub spans: Option<PathBuf>,
}

/// The outcome the last line of standard output carries.
pub struct RunResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// Every metric measured: `END_TO_END` then `REPORTED`, or `PER_LAYER`.
    /// `NaN` marks a metric that is undefined on this workload.
    pub metrics: Vec<(&'static MetricDef, f64)>,
}

impl RunResult {
    fn outcome(&self) -> [(&'static str, Json); 3] {
        [
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
        ]
    }

    /// The driver's result line:
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
    /// Exactly the metrics `BENCHMARK.json` lists (the `REPORTED` ones stay
    /// out), and a number for each: an undefined per-layer metric reads 0
    /// here (the table above says n/a).
    pub fn to_json(&self) -> Json {
        let listed = self.metrics.iter().filter(|(def, _)| !reported_only(def));
        let metrics = listed.map(|(def, v)| {
            let value = if v.is_finite() { *v } else { 0.0 };
            let entry = [("value", Json::Num(value)), ("unit", Json::str(def.unit))];
            (def.name, Json::obj(entry))
        });
        Json::obj(
            self.outcome()
                .into_iter()
                .chain([("metrics", Json::obj(metrics))]),
        )
    }

    /// The run as a result-set file records it: what identifies it, the
    /// outcome, and every metric measured with its clock — `null`, not 0,
    /// where one is undefined.
    pub fn record(&self, args: &RunArgs) -> Json {
        let metrics = self.metrics.iter().map(|(def, v)| {
            let entry = [
                ("value", Json::num(*v)),
                ("unit", Json::str(def.unit)),
                ("clock", Json::str(def.clock.name())),
            ];
            (def.name, Json::obj(entry))
        });
        let run = [
            ("workload", Json::str(args.scenario.name())),
            ("seed", Json::Num(args.seed as f64)),
            ("trace", Json::Num(f64::from(u8::from(args.trace)))),
        ];
        Json::obj(
            run.into_iter()
                .chain(self.outcome())
                .chain([("metrics", Json::obj(metrics))]),
        )
    }
}

fn reported_only(def: &MetricDef) -> bool {
    REPORTED.iter().any(|r| r.name == def.name)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `VmHWM` of this process, MB: the most memory it has ever had resident.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn source_counters(report: &RunReport) -> SourceCounters {
    SourceCounters {
        tuples_consumed: report.tuples_consumed,
        tuples_streamed: report.tuples_streamed,
        probes: report.probes,
        stream_rounds: report.stream_rounds,
    }
}

/// Generate and materialise the instance and construct its engine,
/// `SETUP_REPS` times; keep the last build and the median time.
fn set_up(
    instance_seed: u64,
    run_seed: u64,
    config: &EngineConfig,
) -> (Instance, Engine, Duration) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let started = Instant::now();
        let instance = build_instance(instance_seed, Some(run_seed), config);
        let engine = Engine::for_workload(&instance.workload, config.clone());
        times.push(started.elapsed().as_secs_f64());
        built = Some((instance, engine));
    }
    let (instance, engine) = built.expect("SETUP_REPS >= 1");
    let setup = Duration::from_secs_f64(median(&times).expect("SETUP_REPS >= 1"));
    (instance, engine, setup)
}

/// Isolated replay of the source layer: a fresh `Sources`, one base stream
/// per relation of the script, read round-robin for as many tuples as the
/// traced pose streamed. Bounds what the executor can owe to source access.
fn replay_reads(instance: &Instance, config: &EngineConfig, tuples: u64) -> (Duration, u64) {
    let sources = Sources::with_provider(
        SimClock::new(),
        config.cost_profile,
        config.seed,
        instance.workload.tables.provider(),
    );
    let mut streams: Vec<_> = instance
        .rels
        .iter()
        .map(|rel| sources.open_stream(*rel, None))
        .collect();
    let started = Instant::now();
    let mut read = 0;
    while read < tuples && !streams.is_empty() {
        streams.retain_mut(|stream| {
            if read == tuples {
                return true;
            }
            let tuple = sources.read(stream);
            read += u64::from(tuple.is_some());
            std::hint::black_box(tuple).is_some()
        });
    }
    (started.elapsed(), read)
}

/// Everything the visits of one run add up to.
#[derive(Default)]
struct Totals {
    setup: Duration,
    materialize_ns: u64,
    tables_materialized: usize,
    drive_wall: Duration,
    latency_ms: Vec<f64>,
    response_ms: Vec<f64>,
    lifetime_tuples: u64,
    lifetime_queries: usize,
    attempted: usize,
    failed: usize,
    complaints: Vec<String>,
    cqs_executed: usize,
    lanes: usize,
    lane_wall_sum_us: u64,
    lane_wall_max_us: u64,
    /// What `RunReport` says the timed poses did.
    engine_sources: SourceCounters,
    engine_layers: LayerCounters,
    // Traced runs only.
    shadow_sources: SourceCounters,
    shadow_layers: LayerCounters,
    resident_bytes_end: usize,
    graph_nodes_end: usize,
    evicted_nodes: usize,
    reclaimed_bytes: usize,
    replay: Duration,
    replay_tuples: u64,
    seq_wall: Duration,
    identity_broken: bool,
}

impl Totals {
    fn complain(&mut self, what: String) {
        if self.complaints.len() < 8 {
            self.complaints.push(what);
        }
    }

    /// Throughput, latency, virtual responses and work of one timed pose;
    /// `before` is the engine's report when the pose began (gus-recur: after
    /// the prime). Returns what the sources did during the pose alone.
    fn add_pose(&mut self, pose: &Pose, before: Option<&RunReport>) -> SourceCounters {
        self.drive_wall += pose.wall;
        self.latency_ms.extend(pose.latency.iter().map(|d| ms(*d)));
        self.response_ms
            .extend(pose.answers.iter().map(|a| a.response_us as f64 / 1e3));
        self.lifetime_tuples += pose.report.tuples_consumed;
        self.lifetime_queries += pose.report.per_uq.len();
        self.cqs_executed += pose.answers.iter().map(|a| a.cqs_executed).sum::<usize>();

        let lane_wall: Vec<u64> = pose
            .report
            .lane_wall_us
            .iter()
            .enumerate()
            .map(|(i, us)| us - before.and_then(|b| b.lane_wall_us.get(i)).unwrap_or(&0))
            .collect();
        self.lanes += pose.report.lanes;
        self.lane_wall_sum_us += lane_wall.iter().sum::<u64>();
        self.lane_wall_max_us += lane_wall.iter().max().copied().unwrap_or(0);
        let events = &pose.report.opt_events[before.map_or(0, |b| b.opt_events.len())..];
        self.engine_layers.add(LayerCounters {
            batches: events.len(),
            explored: events.iter().map(|e| e.explored).sum(),
            candidates: events.iter().map(|e| e.candidates).sum(),
            warm_hits: events.iter().map(|e| e.warm_hits).sum(),
            ..LayerCounters::default()
        });
        let sources =
            source_counters(&pose.report).since(before.map(source_counters).unwrap_or_default());
        self.engine_sources.add(sources);
        sources
    }

    /// The answer check: every timed query must have completed with the
    /// answer the sharing-free arm gave; on gus-recur it must also repeat
    /// the answer of the first pass.
    fn check_answers(
        &mut self,
        scenario: Scenario,
        instance_seed: u64,
        golden: &Golden,
        pose: &Pose,
        first_pass: Option<&Pose>,
    ) {
        self.attempted += pose.answers.len() + pose.submit_errors;
        self.failed += pose.submit_errors;
        for answer in &pose.answers {
            let at = format!(
                "{} seed {instance_seed} query {}",
                scenario.name(),
                answer.script_idx
            );
            let mut bad = !answer.complete;
            if bad {
                self.complain(format!("{at}: did not complete"));
            }
            match golden.get(instance_seed, answer.script_idx) {
                Some(want) if want == answer.digest => {}
                Some(want) => {
                    bad = true;
                    self.complain(format!("{at}: answer {:?}, golden {want:?}", answer.digest));
                }
                None => {
                    bad = true;
                    self.complain(format!("{at}: no golden (run `perf golden --write`)"));
                }
            }
            let repeats = first_pass.is_none_or(|first| {
                first
                    .answers
                    .iter()
                    .any(|f| f.script_idx == answer.script_idx && f.digest == answer.digest)
            });
            if !repeats {
                bad = true;
                self.complain(format!("{at}: re-posed answer differs from the first pass"));
            }
            self.failed += usize::from(bad);
        }
    }

    /// What the traced shadow lane did on one visit, and where it ended.
    fn add_shadow(&mut self, shadow: &ShadowPose, lane: &ShadowLane) {
        self.shadow_sources.add(shadow.sources);
        self.shadow_layers.add(shadow.layers);
        self.resident_bytes_end += lane.manager().resident_bytes();
        self.graph_nodes_end += lane.manager().graph().len();
        self.evicted_nodes += lane.manager().eviction_stats().evicted_nodes;
        self.reclaimed_bytes += lane.manager().eviction_stats().reclaimed_bytes;
    }
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    refuse_qsys_env()?;
    run_against(args, &Golden::committed()?)
}

fn run_against(args: &RunArgs, golden: &Golden) -> Result<RunResult, String> {
    let scenario = args.scenario;
    let config = scenario.engine_config(scenario.lane_threads());
    let visits = scenario.visits(args.seconds);
    let single_lane = scenario != Scenario::ClPar;
    let mut totals = Totals::default();
    let mut shadow_trace = Tracer::new();
    let mut facade_trace = if args.trace {
        Tracer::new()
    } else {
        Tracer::disabled()
    };

    if !args.trace {
        // Let the allocator and the code paths warm on a throwaway pose; a
        // traced run is warmed by its shadow lane instead.
        let (instance, mut engine, _) = set_up(SUITE_FIRST_SEED, args.seed, &config);
        match scenario {
            Scenario::ClPar => pose_burst(&mut engine, &instance, &mut Tracer::disabled()),
            _ => pose_closed_loop(&mut engine, &instance, 0, &mut Tracer::disabled()),
        };
    }

    for visit in 0..visits {
        let instance_seed = SUITE_FIRST_SEED + visit as u64;
        let (instance, mut engine, setup) = set_up(instance_seed, args.seed, &config);
        totals.setup += setup;
        totals.materialize_ns += instance.materialize_ns;
        totals.tables_materialized += instance.rels.len();

        // gus-recur: the first pose is set-up; the timed pose repeats it
        // with later arrival stamps.
        let mut first_pass = None;
        let mut offset_us = 0;
        if scenario == Scenario::Recur {
            let prime = pose_closed_loop(&mut engine, &instance, 0, &mut Tracer::disabled());
            totals.setup += prime.wall;
            offset_us = instance.workload.queries.last().map_or(0, |q| q.arrival_us) + 1;
            first_pass = Some(prime);
        }

        // Traced: shadow lane and engine take turns going first, so neither
        // always finds the instance's tables warm in cache.
        let mut lane = (args.trace && single_lane).then(|| ShadowLane::new(&instance, &config));
        let trace_shadow = |lane: &mut Option<ShadowLane>, tracer: &mut Tracer| {
            lane.as_mut().map(|lane| {
                if scenario == Scenario::Recur {
                    lane.pose(&mut Tracer::disabled());
                }
                tracer.visit = visit as u32;
                lane.pose(tracer)
            })
        };
        let mut shadow = None;
        if visit % 2 == 0 {
            shadow = trace_shadow(&mut lane, &mut shadow_trace);
        }
        facade_trace.visit = visit as u32;
        let pose = match scenario {
            Scenario::ClPar => pose_burst(&mut engine, &instance, &mut facade_trace),
            _ => pose_closed_loop(&mut engine, &instance, offset_us, &mut facade_trace),
        };
        drop(engine);
        if visit % 2 == 1 {
            shadow = trace_shadow(&mut lane, &mut shadow_trace);
        }

        let before = first_pass.as_ref().map(|p| &p.report);
        let engine_sources = totals.add_pose(&pose, before);
        totals.check_answers(scenario, instance_seed, golden, &pose, first_pass.as_ref());

        // Traced: the shadow lane must have done what the engine did.
        if let (Some(shadow), Some(lane)) = (&shadow, &lane) {
            if let Err(what) = same_work(shadow, &pose, engine_sources) {
                totals.identity_broken = true;
                totals.complain(format!(
                    "{} seed {instance_seed}: shadow lane diverged from the engine: {what}",
                    scenario.name()
                ));
            }
            totals.add_shadow(shadow, lane);
            let (took, read) = replay_reads(&instance, &config, shadow.sources.tuples_streamed);
            totals.replay += took;
            totals.replay_tuples += read;
        }
        drop(lane);

        // Traced gus-cl-par: the same burst on one lane thread.
        if args.trace && !single_lane {
            let mut seq = Engine::for_workload(&instance.workload, scenario.engine_config(1));
            let seq_pose = pose_burst(&mut seq, &instance, &mut Tracer::disabled());
            totals.seq_wall += seq_pose.wall;
            if seq_pose.answers != pose.answers {
                totals.identity_broken = true;
                totals.complain(format!(
                    "{} seed {instance_seed}: 1 and {} lane threads answered differently",
                    scenario.name(),
                    scenario.lane_threads()
                ));
            }
        }
    }

    for complaint in &totals.complaints {
        eprintln!("FAILED {complaint}");
    }
    let metrics = if args.trace {
        per_layer(&totals, &shadow_trace, &facade_trace, scenario)
    } else {
        end_to_end(&totals)
    };
    print_table(args, visits, &totals, &metrics, &shadow_trace);
    if let Some(path) = &args.spans {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        shadow_trace
            .write_csv(&mut std::io::BufWriter::new(file))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(RunResult {
        correct: totals.failed == 0 && !totals.identity_broken,
        attempted: totals.attempted,
        failed: totals.failed,
        metrics,
    })
}

/// The whole suite answered by the sharing-free ATC-CQ arm, in script order:
/// what `perf/golden/suite.txt` holds.
pub fn reference_answers() -> Golden {
    let config = reference_config();
    let mut golden = Golden::default();
    for seed in (SUITE_FIRST_SEED..).take(SUITE_LEN) {
        let instance = build_instance(seed, None, &config);
        let mut engine = Engine::for_workload(&instance.workload, config.clone());
        let pose = pose_closed_loop(&mut engine, &instance, 0, &mut Tracer::disabled());
        assert!(
            pose.submit_errors == 0 && pose.answers.iter().all(|a| a.complete),
            "the reference arm must answer every query of seed {seed}"
        );
        for answer in pose.answers {
            golden.insert(seed, answer.script_idx, answer.digest);
        }
    }
    golden
}

/// Shadow lane against engine: same answers, same virtual responses, same
/// source counters.
fn same_work(
    shadow: &ShadowPose,
    engine: &Pose,
    engine_sources: SourceCounters,
) -> Result<(), String> {
    if shadow.sources != engine_sources {
        return Err(format!(
            "sources {:?} vs {engine_sources:?}",
            shadow.sources
        ));
    }
    if shadow.answers == engine.answers {
        return Ok(());
    }
    let differ = shadow
        .answers
        .iter()
        .zip(&engine.answers)
        .find(|(s, e)| s != e);
    Err(match differ {
        Some((s, e)) => format!("{s:?} vs {e:?}"),
        None => format!(
            "{} vs {} answers",
            shadow.answers.len(),
            engine.answers.len()
        ),
    })
}

fn lookup(
    defs: impl Iterator<Item = &'static MetricDef>,
    values: BTreeMap<&str, f64>,
) -> Vec<(&'static MetricDef, f64)> {
    let found: Vec<_> = defs.map(|def| (def, values[def.name])).collect();
    assert_eq!(values.len(), found.len(), "every listed metric is computed");
    found
}

fn end_to_end(t: &Totals) -> Vec<(&'static MetricDef, f64)> {
    let pct = |v: &[f64], p| percentile(v, p).unwrap_or(f64::NAN);
    let mean = t.response_ms.iter().sum::<f64>() / t.response_ms.len() as f64;
    lookup(
        END_TO_END.iter().chain(REPORTED),
        BTreeMap::from([
            ("setup_s", t.setup.as_secs_f64()),
            (
                "uq_per_s",
                t.latency_ms.len() as f64 / t.drive_wall.as_secs_f64(),
            ),
            ("uq_host_ms_p50", pct(&t.latency_ms, 50.0)),
            ("uq_host_ms_p90", pct(&t.latency_ms, 90.0)),
            ("virt_response_ms_mean", mean),
            ("virt_response_ms_p50", pct(&t.response_ms, 50.0)),
            ("virt_response_ms_p90", pct(&t.response_ms, 90.0)),
            // Over the engine's lifetime, so the prime counts on gus-recur:
            // re-posed queries that consume nothing halve it.
            (
                "tuples_per_uq",
                t.lifetime_tuples as f64 / t.lifetime_queries as f64,
            ),
            ("peak_rss_mb", peak_rss_mb()),
        ]),
    )
}

/// Where a per-layer metric cannot be measured from outside the engine.
fn undefined(name: &str, scenario: Scenario) -> bool {
    match scenario {
        // No shadow lane: nothing inside `step()` can be timed, and of the
        // counters only those `RunReport` carries exist.
        Scenario::ClPar => {
            let inside_step = ["query.", "state.", "exec.", "trace."]
                .iter()
                .any(|layer| name.starts_with(layer));
            (inside_step && name != "exec.cqs_executed_per_uq")
                || matches!(
                    name,
                    "opt.optimize_ms"
                        | "opt.optimize_ms_batch_p50"
                        | "opt.memo_hits"
                        | "session.overhead_ms"
                )
        }
        // One lane: nothing to run in parallel. And gus-recur's sources are
        // idle (under one tuple a query), so time per tuple means nothing.
        _ => {
            matches!(name, "session.seq_run_ms" | "session.par_speedup")
                || (scenario == Scenario::Recur && name == "exec.us_per_tuple")
        }
    }
}

fn per_layer(
    t: &Totals,
    shadow: &Tracer,
    facade: &Tracer,
    scenario: Scenario,
) -> Vec<(&'static MetricDef, f64)> {
    let queries = t.attempted as f64;
    let n_visits = (t.attempted / QUERIES_PER_INSTANCE).max(1) as f64;
    let traced_wall = shadow.total_ns("visit") as f64;
    let span_ms = |name: &str| ns_to_ms(shadow.total_ns(name));
    let facade_ms = |name: &str| ns_to_ms(facade.total_ns(name));
    let pct_ms = |ns: &[u64], pct: f64| {
        let ms: Vec<f64> = ns.iter().map(|n| ns_to_ms(*n)).collect();
        percentile(&ms, pct).unwrap_or(f64::NAN)
    };
    let (sources, layers) = match scenario {
        // No shadow lane: the counters `RunReport` gives.
        Scenario::ClPar => (t.engine_sources, t.engine_layers),
        _ => (t.shadow_sources, t.shadow_layers),
    };
    let rounds = shadow.durations_ns("exec.round");
    let covered: u64 = shadow
        .spans()
        .iter()
        .zip(shadow.self_times_ns())
        .filter(|(s, _)| s.parent != NO_SPAN)
        .map(|(_, own)| own)
        .sum();
    let span_cost_ns = Tracer::calibrate_ns_per_span() * shadow.spans().len() as f64;
    let mb = |bytes: usize| bytes as f64 / 1048576.0;
    let values = BTreeMap::from([
        ("query.cqgen_ms", span_ms("query.cqgen")),
        (
            "query.cqgen_us_per_uq",
            span_ms("query.cqgen") * 1e3 / queries,
        ),
        ("query.cqs_per_uq", layers.cqs_generated as f64 / queries),
        ("opt.optimize_ms", span_ms("opt.optimize")),
        (
            "opt.optimize_ms_batch_p50",
            pct_ms(&shadow.durations_ns("opt.optimize"), 50.0),
        ),
        ("opt.explored", layers.explored as f64),
        ("opt.memo_hits", layers.memo_hits as f64),
        ("opt.candidates", layers.candidates as f64),
        (
            "opt.warm_hit_ratio",
            layers.warm_hits as f64 / layers.batches as f64,
        ),
        ("state.graft_ms", span_ms("state.graft")),
        (
            "state.graft_ms_batch_p50",
            pct_ms(&shadow.durations_ns("state.graft"), 50.0),
        ),
        ("state.reused_nodes", layers.reused_nodes as f64),
        ("state.recovered_cqs", layers.recovered_cqs as f64),
        ("state.unlink_ms", span_ms("state.unlink")),
        ("state.evict_ms", span_ms("state.evict")),
        ("state.evicted_nodes", t.evicted_nodes as f64),
        ("state.reclaimed_mb", mb(t.reclaimed_bytes)),
        ("state.resident_mb_end", mb(t.resident_bytes_end) / n_visits),
        ("state.graph_nodes_end", t.graph_nodes_end as f64 / n_visits),
        ("exec.run_ms", span_ms("exec.run")),
        (
            "exec.share_pct",
            100.0 * shadow.total_ns("exec.run") as f64 / traced_wall,
        ),
        (
            "exec.run_ms_batch_max",
            pct_ms(&shadow.per_batch_ns("exec.run"), 100.0),
        ),
        ("exec.rounds", layers.rounds as f64),
        ("exec.us_per_round_p50", pct_ms(&rounds, 50.0) * 1e3),
        ("exec.us_per_round_p99", pct_ms(&rounds, 99.0) * 1e3),
        (
            "exec.us_per_tuple",
            span_ms("exec.run") * 1e3 / sources.tuples_consumed as f64,
        ),
        ("exec.cqs_executed_per_uq", t.cqs_executed as f64 / queries),
        ("source.tuples_consumed", sources.tuples_consumed as f64),
        ("source.tuples_streamed", sources.tuples_streamed as f64),
        ("source.probes", sources.probes as f64),
        ("source.stream_rounds", sources.stream_rounds as f64),
        (
            "source.read_us_per_tuple",
            t.replay.as_secs_f64() * 1e6 / t.replay_tuples as f64,
        ),
        ("source.materialize_ms", ns_to_ms(t.materialize_ns)),
        ("source.tables_materialized", t.tables_materialized as f64),
        ("session.submit_ms", facade_ms("session.submit")),
        ("session.step_ms", facade_ms("session.step")),
        ("session.take_results_ms", facade_ms("session.take_results")),
        ("session.report_ms", facade_ms("session.report")),
        // Engine drive minus the shadow lane's total: admission, ledger,
        // publish, result clones.
        ("session.overhead_ms", ms(t.drive_wall) - traced_wall / 1e6),
        ("session.flush_ms", facade_ms("session.flush")),
        ("session.lanes", t.lanes as f64 / n_visits),
        ("session.lane_wall_sum_ms", t.lane_wall_sum_us as f64 / 1e3),
        ("session.lane_wall_max_ms", t.lane_wall_max_us as f64 / 1e3),
        (
            "session.lane_balance",
            t.lane_wall_sum_us as f64 / t.lane_wall_max_us as f64,
        ),
        ("session.seq_run_ms", ms(t.seq_wall)),
        (
            "session.par_speedup",
            t.seq_wall.as_secs_f64() / t.drive_wall.as_secs_f64(),
        ),
        ("trace.coverage_pct", 100.0 * covered as f64 / traced_wall),
        ("trace.overhead_pct", 100.0 * span_cost_ns / traced_wall),
    ]);
    lookup(PER_LAYER.iter(), values)
        .into_iter()
        .map(|(def, v)| {
            (
                def,
                if undefined(def.name, scenario) {
                    f64::NAN
                } else {
                    v
                },
            )
        })
        .collect()
}

fn print_table(
    args: &RunArgs,
    visits: usize,
    t: &Totals,
    metrics: &[(&'static MetricDef, f64)],
    shadow: &Tracer,
) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {}  seed {}  seconds {}  trace {}  instances {visits}  queries {}  nproc {nproc}",
        args.scenario.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        t.attempted,
    );
    for (def, value) in metrics {
        let samples = match def.name {
            "uq_host_ms_p50" | "uq_host_ms_p90" => Some(t.latency_ms.len()),
            "virt_response_ms_p50" | "virt_response_ms_p90" => Some(t.response_ms.len()),
            _ => None,
        };
        let note = match samples {
            Some(n) if reported_only(def) => format!("  ({n} samples; reported, not gated)"),
            Some(n) => format!("  ({n} samples)"),
            None if value.is_nan() => "  (undefined on this workload)".to_string(),
            None if reported_only(def) => "  (reported, not gated)".to_string(),
            None => String::new(),
        };
        let shown = if value.is_nan() {
            "n/a".to_string()
        } else {
            format!("{value:.4}")
        };
        println!(
            "  {:<28} {shown:>14} {:<7} {:<8}{note}",
            def.name,
            def.unit,
            def.clock.name()
        );
    }
    if !args.trace {
        let n = t.latency_ms.len();
        if let Some(p) = highest_supported_percentile(n) {
            println!(
                "  highest percentile {n} latency samples support: p{p} ({} beyond) = {:.4} ms",
                samples_beyond(n, p),
                percentile(&t.latency_ms, p).unwrap_or(f64::NAN)
            );
        }
    } else if !shadow.spans().is_empty() {
        // Where the traced wall went, by layer: self times, so the rows
        // add up to the total.
        let own = shadow.self_times_ns();
        let total: u64 = shadow.total_ns("visit");
        println!("  layer table (shadow lane, self time)");
        for layer in Layer::ALL {
            let ns: u64 = shadow
                .spans()
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.layer == layer && s.parent != NO_SPAN)
                .map(|(_, own)| *own)
                .sum();
            println!(
                "    {:<12} {:>12.3} ms {:>6.2} %",
                layer.name(),
                ns_to_ms(ns),
                100.0 * ns as f64 / total as f64
            );
        }
        let uncovered: u64 = shadow
            .spans()
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.parent == NO_SPAN)
            .map(|(_, own)| *own)
            .sum();
        println!(
            "    {:<12} {:>12.3} ms {:>6.2} %",
            "(no span)",
            ns_to_ms(uncovered),
            100.0 * uncovered as f64 / total as f64
        );
        println!(
            "    {:<12} {:>12.3} ms   engine drive {:.3} ms",
            "total",
            ns_to_ms(total),
            ms(t.drive_wall)
        );
    }
    println!(
        "  attempted {}  failed {}  failed_share {:.4}",
        t.attempted,
        t.failed,
        t.failed as f64 / t.attempted.max(1) as f64
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::Digest;

    /// The smallest run: `--seconds 0` visits two suite instances.
    fn args(scenario: Scenario, trace: bool) -> RunArgs {
        RunArgs {
            scenario,
            seed: 7,
            seconds: 0,
            trace,
            spans: None,
        }
    }

    /// The traced numbers are only a measurement of the engine if the shadow
    /// lane is the same computation — cold, re-posed and under eviction.
    #[test]
    fn shadow_lane_does_what_the_engine_does() {
        for scenario in [Scenario::Full, Scenario::Evict] {
            let config = scenario.engine_config(1);
            let instance = build_instance(SUITE_FIRST_SEED, Some(7), &config);
            let mut engine = Engine::for_workload(&instance.workload, config.clone());
            let mut lane = ShadowLane::new(&instance, &config);
            let mut tracer = Tracer::new();

            let cold = pose_closed_loop(&mut engine, &instance, 0, &mut Tracer::disabled());
            let shadow = lane.pose(&mut tracer);
            same_work(&shadow, &cold, source_counters(&cold.report)).expect("cold pose");
            assert!(shadow.sources.tuples_consumed > 0);

            let again = pose_closed_loop(&mut engine, &instance, 1 << 40, &mut Tracer::disabled());
            let shadow_again = lane.pose(&mut tracer);
            let timed = source_counters(&again.report).since(source_counters(&cold.report));
            same_work(&shadow_again, &again, timed).expect("re-pose");

            // One root span per pose, and the spans inside account for it.
            assert_eq!(tracer.durations_ns("visit").len(), 2);
            assert_eq!(
                tracer.durations_ns("opt.optimize").len(),
                4,
                "two batches a pose"
            );
            let covered: u64 = tracer
                .spans()
                .iter()
                .zip(tracer.self_times_ns())
                .filter(|(s, _)| s.parent != NO_SPAN)
                .map(|(_, own)| own)
                .sum();
            assert!(covered as f64 >= 0.95 * tracer.total_ns("visit") as f64);
        }
    }

    #[test]
    fn a_corrupted_golden_fails_the_run() {
        let mut golden = Golden::committed().unwrap();
        let clean = run_against(&args(Scenario::Full, false), &golden).unwrap();
        assert!(clean.correct);
        assert_eq!(
            (clean.attempted, clean.failed),
            (2 * QUERIES_PER_INSTANCE, 0)
        );

        let seed = SUITE_FIRST_SEED + 1;
        let was = golden.get(seed, 3).unwrap();
        golden.insert(
            seed,
            3,
            Digest {
                hash: was.hash ^ 1,
                ..was
            },
        );
        let broken = run_against(&args(Scenario::Full, false), &golden).unwrap();
        assert!(!broken.correct);
        assert_eq!(broken.failed, 1);
        let line = broken.to_json().render();
        assert!(line.starts_with("{\"correct\":false,\"attempted\":20,\"failed\":1,\"metrics\":{"));
    }

    #[test]
    fn every_workload_answers_correctly_and_reports_every_metric() {
        let golden = Golden::committed().unwrap();
        let mut cold_tuples = f64::NAN;
        for scenario in Scenario::ALL {
            let e2e = run_against(&args(scenario, false), &golden).unwrap();
            assert!(e2e.correct, "{}", scenario.name());
            assert_eq!(e2e.attempted, 2 * QUERIES_PER_INSTANCE);
            assert_eq!(e2e.metrics.len(), END_TO_END.len() + REPORTED.len());
            for (def, value) in &e2e.metrics {
                assert!(
                    value.is_finite() && *value > 0.0,
                    "{} @ {} = {value}",
                    def.name,
                    scenario.name()
                );
            }

            let traced = run_against(&args(scenario, true), &golden).unwrap();
            assert!(traced.correct, "{} traced", scenario.name());
            let value = |name: &str| {
                traced
                    .metrics
                    .iter()
                    .find(|(def, _)| def.name == name)
                    .map(|(_, v)| *v)
                    .unwrap()
            };
            // Defined exactly where the layer can be seen from outside.
            let single_lane = scenario != Scenario::ClPar;
            assert_eq!(value("exec.run_ms").is_finite(), single_lane);
            assert_eq!(value("session.par_speedup").is_finite(), !single_lane);
            assert_eq!(
                value("exec.us_per_tuple").is_finite(),
                matches!(scenario, Scenario::Full | Scenario::Evict)
            );
            assert!(value("session.step_ms") > 0.0);
            assert!(value("source.tables_materialized") > 0.0);
            if single_lane {
                assert!(value("trace.coverage_pct") >= 95.0);
            }
            if scenario == Scenario::Full {
                cold_tuples = value("source.tuples_consumed");
            }
            if scenario == Scenario::Evict {
                assert!(value("state.evicted_nodes") > 0.0);
            }
            if scenario == Scenario::Recur {
                // Answered from retained state: a sliver of the cold reads.
                assert!(value("source.tuples_consumed") < cold_tuples / 20.0);
            }
        }
    }
}
