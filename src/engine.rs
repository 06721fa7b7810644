//! Engine configuration and the execution lane.
//!
//! The pipeline of Figure 3 — keyword query → candidate networks →
//! batcher → optimizer (consulting the QS manager's reuse oracle) →
//! graft → ATC execution → top-k answers — is served by the sessionized
//! [`Engine`](crate::Engine) in [`crate::session`], which generates the
//! candidate networks and batches them; this module holds its
//! configuration vocabulary ([`EngineConfig`], [`SharingMode`] selecting
//! Section 7.1's experimental systems) and the lane a sealed batch runs
//! on, whose `run_batch` is the rest of the figure: admit → plan →
//! execute → publish → retire.

use crate::report::{OptEvent, QueryOutcome, UqReport};
use crate::session::{ledger_lock, Admitted, Ledger, TicketSlot};
use qsys_catalog::Catalog;
use qsys_exec::state::{EvictionPolicy, GraftOutcome, QsManager};
use qsys_exec::{Atc, ExecStats, RetryPolicy, SchedulingPolicy, SourceGovernor};
use qsys_opt::{
    AdaptiveConfig, ClusterConfig, HeuristicConfig, OptStats, Optimizer, OptimizerConfig,
    ShardConfig,
};
use qsys_query::{CandidateConfig, ScoreFn, UserQuery};
use qsys_source::{FaultInjector, FaultSpec, Sources, TableProvider};
use qsys_types::{CostProfile, RelId, Score, SimClock, Tuple, UqId};
use qsys_verify::VerifyReport;
use std::collections::{BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Which sharing configuration to run (Section 7.1's four systems).
#[derive(Clone, Debug, Default, PartialEq)]
pub enum SharingMode {
    /// Baseline: each user query optimized separately, no subexpression
    /// sharing at all.
    AtcCq,
    /// Sharing within a user query, none across user queries or time.
    AtcUq,
    /// One plan graph for everything: full sharing and reuse.
    #[default]
    AtcFull,
    /// Clustered plan graphs, one ATC each (Section 6.1).
    AtcCl(ClusterConfig),
}

impl SharingMode {
    /// Short label used in reports (matches the paper's legend).
    pub fn label(&self) -> &'static str {
        match self {
            SharingMode::AtcCq => "ATC-CQ",
            SharingMode::AtcUq => "ATC-UQ",
            SharingMode::AtcFull => "ATC-FULL",
            SharingMode::AtcCl(_) => "ATC-CL",
        }
    }
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Results per user query (paper: 50).
    pub k: usize,
    /// User queries per optimization batch (paper: 5). An admission
    /// window seals into a dispatchable batch once it holds this many
    /// queries.
    pub batch_size: usize,
    /// Maximum virtual-time width of an admission window, µs: a query
    /// arriving more than this long after the window's first query seals
    /// the window early (a partially filled batch dispatches rather than
    /// waiting forever). `None` (the default, and the paper's setup) seals
    /// by count only.
    pub arrival_window_us: Option<u64>,
    /// Sharing configuration.
    pub sharing: SharingMode,
    /// QS manager memory budget in bytes.
    pub memory_budget: usize,
    /// Cache replacement policy under that budget (Section 6.3; the paper
    /// found LRU with size tie-break best — the others exist for the
    /// eviction ablation, which needs policy selection per engine config).
    pub eviction: EvictionPolicy,
    /// Candidate-network generation knobs.
    pub candidate: CandidateConfig,
    /// Optimizer pruning heuristics.
    pub heuristics: HeuristicConfig,
    /// Retired: the simulation's costs are constants of
    /// `qsys_types::clock` (Section 7's 2 ms mean network delay per read
    /// and per probe), so this field has one value. It remains only because
    /// the benchmark's config literal names every field; ROADMAP item 1(b)
    /// removes it.
    pub cost_profile: CostProfile,
    /// ATC scheduling policy (paper: round-robin).
    pub scheduling: SchedulingPolicy,
    /// Share random-access probe caches across operators of a plan graph
    /// (§7.1's "we cache tuples from random probes"); `false` only for the
    /// ablation.
    pub share_probe_caches: bool,
    /// Base RNG seed for network delays.
    pub seed: u64,
    /// Maximum lanes executing concurrently on OS threads. Only ATC-CL
    /// produces multiple lanes (one per query cluster); they share no
    /// mutable state, so running them in parallel changes wall time but
    /// no result, statistic, or sharing decision. `1` preserves strictly
    /// sequential lane order. Defaults to the machine's available
    /// parallelism.
    pub lane_threads: usize,
    /// Retired: the optimizer's warm store is gone and every batch derives
    /// its search inputs afresh, so nothing reads this field and both
    /// values are accepted. It remains only because the benchmark's config
    /// literal names every field; ROADMAP item 1(b) removes it.
    pub warm_opt: bool,
    /// Deterministic fault schedule for the source layer (chaos testing),
    /// built with `FaultSpec::new(seed)` and its methods.
    /// [`EngineConfig::validate_all`] checks the schedule. `None` — the
    /// default — leaves every fetch infallible and execution
    /// byte-identical to a build without the fault machinery.
    pub faults: Option<FaultSpec>,
    /// Retired: the retry, backoff, jitter and circuit-breaker values are
    /// constants of the executor's fetch governor, and the per-fetch
    /// timeout is a constant of `qsys_source::fault`; they act only when
    /// `faults` is set. This field has one value and remains only because
    /// the benchmark's config literal names every field; ROADMAP item 1(b)
    /// removes it.
    pub retry: RetryPolicy,
    /// Retired: warm-state snapshots are gone and a lane's warm state
    /// lives only as long as the engine, so `None` is the only value
    /// [`EngineConfig::validate`] accepts. The field remains only because
    /// the benchmark's config literal names every field; ROADMAP item 1(b)
    /// removes it.
    pub snapshot_dir: Option<std::path::PathBuf>,
    /// Retired: lane sharding is gone and ATC-CL runs one lane per
    /// cluster, so [`ShardConfig::off`] is the only value. The field
    /// remains only because the benchmark's config literal names every
    /// field; ROADMAP item 1(b) removes it.
    pub sharding: ShardConfig,
    /// Retired: adaptive mid-flight re-planning is gone and a batch runs
    /// the plan it was grafted with, so [`AdaptiveConfig::off`] is the
    /// only value. The field remains only because the benchmark's config
    /// literal names every field; ROADMAP item 1(b) removes it.
    pub adaptive: AdaptiveConfig,
    /// Retired with warm-state snapshots: there is no publish cadence, so
    /// nothing reads this field. It remains only because the benchmark's
    /// config literal names every field; ROADMAP item 1(b) removes it.
    pub snapshot_every: usize,
    /// Run the `qsys-verify` invariant verifier at every phase boundary
    /// (post-cluster, post-graft).
    /// Always on in debug builds (`debug_assertions`); this knob turns it
    /// on for release builds too. A violation panics the offending lane
    /// with the full structured report: a broken sharing invariant means
    /// later answers cannot be trusted, so the engine fails loudly at the
    /// boundary that broke it.
    pub verify: bool,
    /// Retired with lane sharding: there is no shard plan to print, so
    /// [`EngineConfig::validate`] rejects `true`. The field remains only
    /// because the benchmark's config literal names every field; ROADMAP
    /// item 1(b) removes it.
    pub shard_debug: bool,
    /// Errors a caller attaches to the config it hands over;
    /// [`EngineConfig::validate_all`] reports them before any field
    /// check. The engine never writes this field. It remains only because
    /// the benchmark's config literal names every field; ROADMAP item
    /// 1(b) removes it.
    pub env_errors: Vec<ConfigError>,
}

/// A structured configuration error: which field is bad and why.
///
/// Produced by [`EngineConfig::validate`] for invariant violations of a
/// config's fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The `EngineConfig` field at fault.
    pub field: &'static str,
    /// Human-readable reason.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid engine config ({}): {}",
            self.field, self.message
        )
    }
}

impl std::error::Error for ConfigError {}

/// Section 7's set-up with every feature beyond the paper off. A plain
/// value: nothing here reads the process environment, so two engines built
/// from `EngineConfig::default()` on one machine are configured alike.
impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            k: 50,
            batch_size: 5,
            arrival_window_us: None,
            sharing: SharingMode::AtcFull,
            memory_budget: usize::MAX,
            eviction: EvictionPolicy::default(),
            candidate: CandidateConfig::default(),
            heuristics: HeuristicConfig::default(),
            cost_profile: CostProfile::default(),
            scheduling: SchedulingPolicy::RoundRobin,
            share_probe_caches: true,
            seed: 0,
            lane_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            warm_opt: true,
            faults: None,
            retry: RetryPolicy::default(),
            snapshot_dir: None,
            sharding: ShardConfig::off(),
            adaptive: AdaptiveConfig::off(),
            snapshot_every: 1,
            verify: false,
            shard_debug: false,
            env_errors: Vec::new(),
        }
    }
}

impl EngineConfig {
    /// Validate the configuration, surfacing the first problem as a
    /// structured [`ConfigError`]: basic invariants of the numeric knobs.
    /// The full aggregated list is [`EngineConfig::validate_all`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self.validate_all().into_iter().next() {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Every problem with this configuration, aggregated: the caller's
    /// `env_errors` first (in order), then field-invariant violations in
    /// declaration order. Empty means the config is sound.
    /// Unlike [`EngineConfig::validate`] this does not stop at the first
    /// error, so an operator fixing a broken deployment sees the whole
    /// list at once instead of one knob per restart.
    pub fn validate_all(&self) -> Vec<ConfigError> {
        let mut errors = self.env_errors.clone();
        let mut invariant = |ok: bool, field: &'static str, message: &str| {
            if !ok {
                errors.push(ConfigError {
                    field,
                    message: message.into(),
                });
            }
        };
        invariant(self.k >= 1, "k", "top-k must be ≥ 1");
        invariant(
            self.batch_size >= 1,
            "batch_size",
            "batches hold at least one query",
        );
        // Each of these at 0 leaves candidate generation nothing to
        // combine, so every query would fail as if its keywords matched
        // nothing.
        invariant(
            self.candidate.max_cqs >= 1,
            "candidate.max_cqs",
            "a user query needs at least one candidate network",
        );
        invariant(
            self.candidate.max_cqs <= HeuristicConfig::MAX_CQS_LIMIT,
            "candidate.max_cqs",
            &format!(
                "BestPlan keeps one user query's CQs as one bit each: at most {}",
                HeuristicConfig::MAX_CQS_LIMIT
            ),
        );
        invariant(
            self.candidate.max_atoms >= 1,
            "candidate.max_atoms",
            "a candidate network holds at least one atom",
        );
        invariant(
            self.candidate.matches_per_keyword >= 1,
            "candidate.matches_per_keyword",
            "each keyword needs at least one match considered",
        );
        invariant(
            self.heuristics.max_candidates <= HeuristicConfig::MAX_CANDIDATES_LIMIT,
            "heuristics.max_candidates",
            &format!(
                "BestPlan memoizes a state as one bit per candidate: at most {}",
                HeuristicConfig::MAX_CANDIDATES_LIMIT
            ),
        );
        invariant(
            self.lane_threads >= 1,
            "lane_threads",
            "at least one lane thread",
        );
        for problem in self.faults.iter().flat_map(FaultSpec::problems) {
            invariant(false, "faults", &problem);
        }
        invariant(
            self.snapshot_dir.is_none(),
            "snapshot_dir",
            "warm-state snapshots were removed: there is nothing to persist or reload",
        );
        invariant(
            !self.shard_debug,
            "shard_debug",
            "lane sharding was removed: there is no shard plan to print",
        );
        errors
    }

    /// Whether phase-boundary invariant verification is active: always in
    /// debug builds, or per the `verify` knob.
    pub(crate) fn verify_phases(&self) -> bool {
        cfg!(debug_assertions) || self.verify
    }
}

/// One execution lane: a plan graph, its ATC, its gateway to the sources,
/// and its admission state — the open arrival window, the queue of sealed
/// batches awaiting dispatch, and what the lane has produced so far.
/// ATC-CL runs several lanes; the other modes run one.
///
/// A lane is `Send` (checked below) and internally single-threaded: all
/// state sharing happens *within* a lane (the plan graph's module arena,
/// the shared interner), never across lanes — so the engine may move
/// lanes onto worker threads and run them concurrently with no locks on
/// the execution path.
///
/// Lanes are an implementation detail of the [`Engine`](crate::Engine)
/// facade, which is why neither the type nor its constructor is public:
/// queries reach a lane only through admission.
pub(crate) struct Lane {
    /// This lane's index in the engine: seeds its sources and fault
    /// injector, and is the `UqReport::lane` of every query it serves.
    pub(crate) idx: usize,
    /// The QS manager owning this lane's plan graph.
    pub(crate) manager: QsManager,
    /// This lane's source gateway (own clock, own counters).
    pub(crate) sources: Sources,
    /// The coordinator.
    pub(crate) atc: Atc,
    /// Retry/breaker state for this lane's fetches. A strict pass-through
    /// while the lane's sources carry no fault injector.
    pub(crate) governor: SourceGovernor,
    /// The open admission window (seals into `ready`).
    pub(crate) open: Vec<Admitted>,
    /// Sealed batches, dispatched in order by `Engine::step`.
    pub(crate) ready: VecDeque<Vec<Admitted>>,
    /// Optimizer invocations, in this lane's batch order.
    pub(crate) opt_events: Vec<OptEvent>,
    /// Host wall-clock µs spent executing on this lane.
    pub(crate) wall_us: u64,
    /// Relations referenced by queries routed here (ATC-CL's cluster
    /// footprint; drives incremental routing of late arrivals).
    pub(crate) footprint: BTreeSet<RelId>,
    /// Set when a batch panicked on this lane: its plan graph and clocks
    /// can no longer be trusted, so later batches routed here fail fast
    /// with [`QueryOutcome::Failed`] instead of executing on poisoned
    /// state. Other lanes — and the engine — keep serving.
    pub(crate) poisoned: Option<String>,
}

/// Compile-time guarantee that lanes can move onto worker threads; if a
/// thread-pinning type (`Rc`, bare `Cell` sharing, …) sneaks back into the
/// executor, this is the line that fails to compile.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Lane>();
};

/// What a batch needs from the engine that owns its lane.
pub(crate) struct BatchCx<'a> {
    pub(crate) catalog: &'a Catalog,
    pub(crate) config: &'a EngineConfig,
    pub(crate) ledger: &'a Mutex<Ledger>,
}

/// A batch member that survived admission, with its ticket's deadline.
type Live<'b> = (&'b Admitted, Option<u64>);

/// One optimize + graft of a batch: its outcome (whose `new_uqs` are the
/// members it covered) and the optimizer's stats.
type Graft = (GraftOutcome, OptStats);

impl Lane {
    pub(crate) fn new(config: &EngineConfig, provider: TableProvider, idx: usize) -> Lane {
        let mut manager = QsManager::new(config.memory_budget).with_policy(config.eviction);
        if !config.share_probe_caches {
            manager = manager.with_private_probe_caches();
        }
        let mut sources = Sources::with_provider(
            SimClock::new(),
            config.cost_profile,
            config.seed ^ ((idx as u64).wrapping_mul(0x517c_c1b7_2722_0a95)),
            provider,
        );
        if let Some(spec) = &config.faults {
            sources.set_injector(FaultInjector::new(spec.clone(), idx));
        }
        Lane {
            idx,
            manager,
            sources,
            atc: Atc::new(config.scheduling),
            governor: SourceGovernor::new(config.retry),
            open: Vec::new(),
            ready: VecDeque::new(),
            opt_events: Vec::new(),
            wall_us: 0,
            footprint: BTreeSet::new(),
            poisoned: None,
        }
    }

    /// Seal the open admission window into a dispatchable batch.
    pub(crate) fn seal(&mut self) {
        if !self.open.is_empty() {
            self.ready.push_back(std::mem::take(&mut self.open));
        }
    }

    /// Run sealed batches in order: the next one, or all of them when
    /// `drain`. A batch that panics resolves its members as failed and
    /// poisons the lane; the lane's later batches then fail fast — its
    /// graph/clock state is unknown, and silently wrong answers would be
    /// worse than loud failures.
    pub(crate) fn run_ready(&mut self, cx: &BatchCx, drain: bool) {
        while let Some(batch) = self.ready.pop_front() {
            if let Some(earlier) = &self.poisoned {
                let reason = format!("lane poisoned by an earlier panic: {earlier}");
                self.fail_batch(cx, &batch, &reason);
            } else if let Err(payload) =
                catch_unwind(AssertUnwindSafe(|| self.run_batch(cx, &batch)))
            {
                let reason = panic_reason(payload);
                self.fail_batch(cx, &batch, &reason);
                self.poisoned = Some(reason);
            }
            if !drain {
                break;
            }
        }
    }

    /// Resolve the members of a batch this lane could not run — it
    /// panicked under them, or was already poisoned. A member resolves
    /// once: one the batch had already resolved keeps that outcome, and a
    /// cancelled one is [`QueryOutcome::Cancelled`], as it would have been
    /// on a healthy lane; the rest are [`QueryOutcome::Failed`].
    fn fail_batch(&self, cx: &BatchCx, batch: &[Admitted], reason: &str) {
        let mut ledger = ledger_lock(cx.ledger);
        for admitted in batch {
            let id = admitted.uq.id;
            let (completed, cancelled) = ledger
                .slots
                .get(&id)
                .map_or((false, false), |s| (s.completed, s.cancelled));
            if completed {
                continue;
            }
            let outcome = if cancelled {
                QueryOutcome::Cancelled
            } else {
                QueryOutcome::Failed {
                    reason: reason.to_string(),
                }
            };
            ledger
                .slots
                .insert(id, TicketSlot::unran(admitted, self.idx, outcome));
        }
    }

    /// Execute one sealed batch — Figure 3, left to right. This is *the*
    /// execution path: scripted runs and incremental stepping both come
    /// through here. The per-query ledger lives for the batch: `publish`
    /// copies what each ticket reports out of it.
    fn run_batch(&mut self, cx: &BatchCx, batch: &[Admitted]) {
        let wall = std::time::Instant::now();
        let (live, mut stats) = self.admit(cx, batch);
        if !live.is_empty() {
            let grafts = self.plan(cx, &live);
            self.execute(&mut stats);
            self.publish(cx, &live, &grafts, &stats);
            self.retire();
        }
        self.wall_us += wall.elapsed().as_micros() as u64;
    }

    /// Members cancelled (or already past their deadline) before dispatch
    /// drop out here: their slots resolve immediately and the survivors,
    /// stamped with the batch's submission time in a fresh per-query
    /// ledger, run exactly as if the batch had been admitted without them.
    fn admit<'b>(&mut self, cx: &BatchCx, batch: &'b [Admitted]) -> (Vec<Live<'b>>, ExecStats) {
        let submit = self.sources.clock().now_us();
        let mut live = Vec::with_capacity(batch.len());
        let mut ledger = ledger_lock(cx.ledger);
        for admitted in batch {
            let id = admitted.uq.id;
            let (cancelled, deadline) = ledger
                .slots
                .get(&id)
                .map_or((false, None), |s| (s.cancelled, s.deadline_us));
            let outcome = if cancelled {
                QueryOutcome::Cancelled
            } else if deadline.is_some_and(|d| submit >= d) {
                QueryOutcome::DeadlineExceeded
            } else {
                live.push((admitted, deadline));
                continue;
            };
            ledger
                .slots
                .insert(id, TicketSlot::unran(admitted, self.idx, outcome));
        }
        drop(ledger);
        let mut stats = ExecStats::new();
        for (admitted, _) in &live {
            stats.submit(admitted.uq.id, submit);
        }
        (live, stats)
    }

    /// Optimize and graft the batch as its sharing mode prescribes,
    /// remembering which queries each graft covered so reuse/recovery
    /// status can be attributed per ticket.
    fn plan(&mut self, cx: &BatchCx, live: &[Live]) -> Vec<Graft> {
        let mut grafts = Vec::new();
        match cx.config.sharing {
            // ATC-CQ / ATC-UQ: optimize each user query separately.
            SharingMode::AtcCq | SharingMode::AtcUq => {
                for (admitted, _) in live {
                    let uq = &admitted.uq;
                    grafts.push(self.graft_batch(cx, &[uq]));
                    if matches!(cx.config.sharing, SharingMode::AtcUq) {
                        // Sharing stays within the user query.
                        self.manager.isolate();
                    }
                }
            }
            // ATC-FULL / ATC-CL: one multi-query optimization per batch.
            SharingMode::AtcFull | SharingMode::AtcCl(_) => {
                let uqs: Vec<&UserQuery> = live.iter().map(|(a, _)| &a.uq).collect();
                grafts.push(self.graft_batch(cx, &uqs));
            }
        }
        if cx.config.verify_phases() {
            // Post-graft boundary: the freshly grafted plan graph must
            // satisfy every structural invariant, and — before execution
            // starts — no rank-merge may be bound into a quarantined
            // subtree (execution later drains *around* quarantined leaves,
            // so this second check is only valid here).
            qsys_verify::verify_lane(&self.manager).assert_clean("post-graft");
            VerifyReport::from(qsys_verify::verify_no_quarantined_grafts(
                &self.manager,
                "lane/graph",
            ))
            .assert_clean("post-graft");
        }
        grafts
    }

    /// Optimize and graft a set of user queries as one batch onto this
    /// lane, recording the optimizer invocation in `opt_events`. A batch
    /// whose every member has a retained answer is sealed instead
    /// ([`QsManager::seal`]): it is neither optimized nor grafted, and is
    /// charged and reported as the search it skips
    /// ([`Optimizer::all_resident`]).
    fn graft_batch(&mut self, cx: &BatchCx, uqs: &[&UserQuery]) -> (GraftOutcome, OptStats) {
        let batch: Vec<(&qsys_query::ConjunctiveQuery, &ScoreFn)> = uqs
            .iter()
            .flat_map(|uq| uq.cqs.iter().map(|(cq, f)| (cq, f)))
            .collect();
        let clock = Some(self.sources.clock());
        let (outcome, opt_stats) = if let Some(outcome) = self.manager.seal(uqs, cx.config.k) {
            (outcome, Optimizer::all_resident(uqs.len(), clock))
        } else {
            let opt_config = OptimizerConfig {
                k: cx.config.k,
                heuristics: cx.config.heuristics.clone(),
                share_subexpressions: batch_share(&cx.config.sharing),
                ..OptimizerConfig::default()
            };
            let optimizer = Optimizer::new(cx.catalog, opt_config);
            let (spec, opt_stats) = {
                // The lane's shared interner: the spec's signature ids must be
                // the ones the manager's reuse index is keyed on.
                let interner = self.manager.shared_interner();
                let oracle = self.manager.reuse_oracle();
                optimizer.optimize(&batch, &oracle, clock, &interner)
            };
            let outcome = self.manager.graft(&spec, &self.sources, cx.config.k);
            (outcome, opt_stats)
        };
        self.opt_events.push(OptEvent::new(batch.len(), &opt_stats));
        (outcome, opt_stats)
    }

    /// Drive the ATC until every rank-merge of the batch is done: the one
    /// drive loop.
    fn execute(&mut self, stats: &mut ExecStats) {
        self.atc.run_governed(
            self.manager.graph_mut(),
            &self.sources,
            &self.governor,
            stats,
        );
        self.manager.unpin_all();
    }

    /// Harvest each member's ranked answers and report line into the
    /// ledger, before completed rank-merges are unlinked. The per-query
    /// slots are assembled outside the ledger lock — concurrent lanes
    /// contend only on the final inserts, not on the O(k) clones.
    fn publish(&self, cx: &BatchCx, live: &[Live], grafts: &[Graft], stats: &ExecStats) {
        let published: Vec<(UqId, TicketSlot)> = live
            .iter()
            .map(|&(admitted, deadline)| {
                let id = admitted.uq.id;
                let (outcome, opt) = grafts
                    .iter()
                    .find(|(o, _)| o.new_uqs.contains(&id))
                    .map(|(o, s)| (o, *s))
                    // lint:allow(panic-path): each live member has a CQ, so its graft lists it in `new_uqs`
                    .expect("every batch member was grafted");
                let results: Vec<(Score, Tuple)> = self
                    .manager
                    .rank_merge_of(id)
                    .map(|rm| {
                        self.manager
                            .graph()
                            .rank_merge(rm)
                            .results()
                            .iter()
                            .map(|r| (r.score, r.tuple.clone()))
                            .collect()
                    })
                    .unwrap_or_default();
                // lint:allow(panic-path): `admit` ran stats.submit for every live member
                let stats = stats.uq(id).expect("submitted at admission");
                // Outcome, worst first: finishing past a deadline trumps
                // degradation (the results are retained either way), and any
                // relation lost mid-batch marks the top-k degraded.
                let completed_us = stats.completed_us.unwrap_or(stats.submitted_us);
                let query_outcome = if deadline.is_some_and(|d| completed_us > d) {
                    QueryOutcome::DeadlineExceeded
                } else if !stats.missing_rels.is_empty() {
                    QueryOutcome::Degraded {
                        missing_rels: stats.missing_rels.clone(),
                    }
                } else {
                    QueryOutcome::Complete
                };
                let report = UqReport {
                    uq: id,
                    user: admitted.uq.user,
                    keywords: admitted.uq.keywords.clone(),
                    arrival_us: admitted.arrival_us,
                    response_us: stats.response_us().unwrap_or(0),
                    results: stats.results,
                    cqs_generated: admitted.uq.cqs.len(),
                    cqs_executed: stats.cqs_executed.len(),
                    lane: self.idx,
                    reused_nodes: outcome.reused_nodes,
                    recovered_cqs: outcome.recovered_uqs.iter().filter(|u| **u == id).count(),
                    sealed: outcome.sealed_uqs.contains(&id),
                    outcome: query_outcome,
                };
                (
                    id,
                    TicketSlot {
                        completed: true,
                        cancelled: false,
                        deadline_us: None,
                        results: Some(results),
                        report: Some(report),
                        opt: Some(opt),
                    },
                )
            })
            .collect();
        let mut ledger = ledger_lock(cx.ledger);
        for (id, slot) in published {
            ledger.slots.insert(id, slot);
        }
    }

    /// Release what the batch completed and enforce the memory budget.
    fn retire(&mut self) {
        self.manager.unlink_completed();
        self.manager.evict_to_budget();
    }
}

/// Render a panic payload for [`QueryOutcome::Failed`] reporting.
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "lane panicked".to_string()
    }
}

/// Whether the optimizer shares subexpressions within a batch, per mode.
pub(crate) fn batch_share(mode: &SharingMode) -> bool {
    !matches!(mode, SharingMode::AtcCq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsys_source::fault::RelFaults;

    #[test]
    fn sharing_labels_match_paper() {
        assert_eq!(SharingMode::AtcCq.label(), "ATC-CQ");
        assert_eq!(SharingMode::AtcUq.label(), "ATC-UQ");
        assert_eq!(SharingMode::AtcFull.label(), "ATC-FULL");
        assert_eq!(
            SharingMode::AtcCl(ClusterConfig::default()).label(),
            "ATC-CL"
        );
    }

    #[test]
    fn batch_share_only_disabled_for_cq() {
        assert!(!batch_share(&SharingMode::AtcCq));
        assert!(batch_share(&SharingMode::AtcUq));
        assert!(batch_share(&SharingMode::AtcFull));
        assert!(batch_share(&SharingMode::AtcCl(ClusterConfig::default())));
    }

    #[test]
    fn default_config_matches_paper_setup() {
        let c = EngineConfig::default();
        assert_eq!(c.k, 50);
        assert_eq!(c.batch_size, 5);
        assert_eq!(c.arrival_window_us, None, "paper setup seals by count");
        assert_eq!(c.sharing, SharingMode::AtcFull);
        assert_eq!(c.memory_budget, usize::MAX);
        assert_eq!(c.scheduling, SchedulingPolicy::RoundRobin);
        assert_eq!(c.eviction, EvictionPolicy::LruSizeTieBreak);
        assert!(c.share_probe_caches);
        assert_eq!(
            c.lane_threads,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        // Every feature beyond the paper is off, and nothing is inherited
        // from the process environment.
        assert!(c.faults.is_none());
        assert_eq!(c.snapshot_dir, None);
        assert_eq!(c.sharding, ShardConfig::off());
        assert_eq!(c.adaptive, AdaptiveConfig::off());
        assert_eq!(c.snapshot_every, 1);
        assert!(!c.verify);
        assert!(!c.shard_debug);
        assert!(c.env_errors.is_empty());
        assert_eq!(c.validate_all(), Vec::new(), "the default is sound");
    }

    #[test]
    fn validate_rejects_retired_shard_fields() {
        let mut config = EngineConfig {
            shard_debug: true,
            ..EngineConfig::default()
        };
        let err = config
            .validate()
            .expect_err("there is no shard plan to print");
        assert_eq!(err.field, "shard_debug");
        config.shard_debug = false;
        config.validate().expect("a default config validates");
    }

    #[test]
    fn validate_surfaces_env_errors_first() {
        let mut config = EngineConfig {
            env_errors: vec![ConfigError {
                field: "faults",
                message: "bad clause".into(),
            }],
            ..EngineConfig::default()
        };
        // A caller-attached error outranks field checks…
        config.snapshot_dir = Some("warm".into());
        let err = config
            .validate()
            .expect_err("an attached error fails validation");
        assert_eq!(err.field, "faults");
        assert!(err.to_string().contains("bad clause"));
        // …and once it is cleared, the field invariant reports.
        config.env_errors.clear();
        let err = config.validate().expect_err("snapshots are retired");
        assert_eq!(err.field, "snapshot_dir");
        config.snapshot_dir = None;
        config.validate().expect("clean config validates");
    }

    #[test]
    fn validate_all_aggregates_every_failure() {
        let mut config = EngineConfig {
            env_errors: vec![ConfigError {
                field: "faults",
                message: "bad clause".into(),
            }],
            ..EngineConfig::default()
        };
        config.k = 0;
        config.batch_size = 0;
        config.candidate.max_cqs = 0;
        config.candidate.max_atoms = 0;
        config.candidate.matches_per_keyword = 0;
        config.heuristics.max_candidates = 65;
        // A schedule written as a literal is checked like a built one: an
        // out-of-range rate and an unscoped panic hook on the defaults, an
        // empty outage window, a slow multiplier below 1.
        config.faults = Some(
            FaultSpec {
                default_faults: RelFaults {
                    transient: 2.0,
                    panic_on_fetch: true,
                    ..RelFaults::default()
                },
                ..FaultSpec::default()
            }
            .outage(1, 5, Some(5))
            .rel_slow(2, 0.5, 0.5),
        );
        config.snapshot_dir = Some("warm".into());
        let errors = config.validate_all();
        let fields: Vec<&str> = errors.iter().map(|e| e.field).collect();
        // Every failure reported at once, attached errors first, then the
        // invariants in declaration order — and validate() stays the
        // first-error view of the same list.
        assert_eq!(
            fields,
            [
                "faults",
                "k",
                "batch_size",
                "candidate.max_cqs",
                "candidate.max_atoms",
                "candidate.matches_per_keyword",
                "heuristics.max_candidates",
                "faults",
                "faults",
                "faults",
                "faults",
                "snapshot_dir"
            ]
        );
        assert_eq!(
            config.validate().expect_err("same first error").field,
            "faults"
        );
        config.env_errors.clear();
        config.k = 1;
        config.batch_size = 1;
        config.candidate = CandidateConfig::default();
        config.heuristics.max_candidates = 64;
        config.faults = Some(FaultSpec::new(0).transient(1.0).rel_slow(2, 0.5, 1.0));
        config.snapshot_dir = None;
        assert!(
            config.validate_all().is_empty(),
            "clean config aggregates to nothing"
        );
        // One user query's CQs must fit one 64-bit query set.
        config.candidate.max_cqs = 65;
        let fields: Vec<&str> = config.validate_all().iter().map(|e| e.field).collect();
        assert_eq!(fields, ["candidate.max_cqs"]);
        config.candidate.max_cqs = 64;
        assert!(config.validate_all().is_empty());
    }

    #[test]
    fn verify_phases_follows_build_and_flag() {
        let mut config = EngineConfig {
            verify: true,
            ..EngineConfig::default()
        };
        assert!(config.verify_phases(), "explicit opt-in always verifies");
        config.verify = false;
        // Without the flag, phase hooks track the build profile.
        assert_eq!(config.verify_phases(), cfg!(debug_assertions));
    }

    #[test]
    fn eviction_policy_reaches_the_lane_manager() {
        for policy in [
            EvictionPolicy::LruSizeTieBreak,
            EvictionPolicy::Lru,
            EvictionPolicy::SizeGreedy,
        ] {
            let config = EngineConfig {
                eviction: policy,
                ..EngineConfig::default()
            };
            let provider: TableProvider = Box::new(|_| unreachable!("no table access here"));
            let lane = Lane::new(&config, provider, 0);
            assert_eq!(lane.manager.policy(), policy);
        }
    }
}
