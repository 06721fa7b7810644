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
use qsys_exec::{Atc, ExecStats, RetryPolicy, SchedulingPolicy, SourceGovernor};
use qsys_opt::adaptive::{AdaptiveConfig, AdaptiveSummary, ObservedStats};
use qsys_opt::cluster::ClusterConfig;
use qsys_opt::shard::ShardConfig;
use qsys_opt::{HeuristicConfig, OptStats, Optimizer, OptimizerConfig};
use qsys_query::{CandidateConfig, ScoreFn, UserQuery};
use qsys_source::{FaultInjector, FaultSpec, Sources, TableProvider};
use qsys_state::{EvictionPolicy, GraftOutcome, QsManager};
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
    /// Simulation cost constants.
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
    /// sequential lane order. Defaults to the `QSYS_LANE_THREADS`
    /// environment variable if set, else the machine's available
    /// parallelism.
    pub lane_threads: usize,
    /// Feed each batch's search from the lane's cross-batch caches of its
    /// batch-invariant inputs (`qsys_opt::warm`: cost facts, candidate
    /// enumerations, canonical rank). Every batch searches either way and
    /// decisions are bit-identical — the store is a cache, never a policy
    /// change — so this knob only trades host time. Defaults to on;
    /// `QSYS_WARM_OPT=0` disables it (the CI leg keeping the cold path
    /// exercised).
    pub warm_opt: bool,
    /// Deterministic fault schedule for the source layer (chaos testing).
    /// `None` — the default when `QSYS_FAULTS` is unset — leaves every
    /// fetch infallible and execution byte-identical to a build without
    /// the fault machinery. See `qsys_source::fault::FaultSpec` for the
    /// schedule grammar.
    pub faults: Option<FaultSpec>,
    /// Retry / timeout / circuit-breaker policy applied when `faults` is
    /// active (inert otherwise).
    pub retry: RetryPolicy,
    /// Directory holding the lane warm-state snapshot (crash-safe
    /// persistence of the interner arena + warm store, `qsys_snapshot`).
    /// When set, the engine rehydrates from `<dir>/qsys.snapshot` at
    /// construction and re-publishes on batch boundaries (see
    /// [`EngineConfig::snapshot_every`]). `None` — the default when
    /// `QSYS_SNAPSHOT_DIR` is unset — disables persistence entirely.
    pub snapshot_dir: Option<std::path::PathBuf>,
    /// Oversized-cluster sharding (ATC-CL only): when a cluster's
    /// estimated work exceeds `sharding.threshold` UQ-equivalents at lane
    /// birth, its UQ bitset is split by cost-balanced bin-packing into up
    /// to `sharding.max_shards` sub-lanes, each re-planned through the
    /// warm optimizer path; late arrivals route to the least-loaded live
    /// shard of their cluster. Sharding trades intra-cluster *sharing*
    /// for lane-wall *balance* but never changes any query's result
    /// multiset. Off by default (`threshold: None`) — lane topology is
    /// then byte-identical to the pre-sharding engine. Environment knobs:
    /// `QSYS_SHARD_THRESHOLD` (a work estimate ≥ 1, or `off`/`0`) and
    /// `QSYS_SHARD_MAX` (shard cap, default 8).
    pub sharding: ShardConfig,
    /// Adaptive mid-flight re-optimization: when enabled
    /// (`adaptive.drift` set), each sharing lane periodically compares
    /// runtime observations (per-leaf delivered cardinality, m-join
    /// state growth) against the frozen warm-store cost inputs during
    /// batch execution; past the drift ratio it folds the observed
    /// cards back into the warm store and re-plans the *remaining*
    /// queries (those that have emitted nothing yet) through the warm
    /// path, re-grafting them onto the live state. The result multiset
    /// per query is identical to the static plan's
    /// (`tests/adaptive_identity.rs`). Off by default — no observation,
    /// no drift checks, goldens byte-identical. Environment knobs:
    /// `QSYS_ADAPT_DRIFT` (a ratio > 1, or `off`/`0`) and
    /// `QSYS_ADAPT_MIN_REMAINING` (fraction of the batch that must
    /// still be re-plannable, default 0.25). Requires `warm_opt` (the
    /// corrected facts live in the warm store) — inert without it.
    pub adaptive: AdaptiveConfig,
    /// Auto-snapshot cadence when [`EngineConfig::snapshot_dir`] is set:
    /// publish a fresh snapshot after every this-many dispatched batches
    /// (callers can force one any time with `Engine::snapshot()`).
    /// Defaults to 1 — every batch boundary — overridable via
    /// `QSYS_SNAPSHOT_EVERY`. Must be ≥ 1.
    pub snapshot_every: usize,
    /// Run the `qsys-verify` invariant verifier at every phase boundary
    /// (post-cluster, post-graft, post-replan, pre-snapshot-publish).
    /// Always on in debug builds (`debug_assertions`); this knob —
    /// `QSYS_VERIFY=1` — turns it on for release builds too. A violation
    /// panics the offending lane with the full structured report: a
    /// broken sharing invariant means later answers cannot be trusted,
    /// so the engine fails loudly at the boundary that broke it.
    pub verify: bool,
    /// Print the shard plan (`SHARD cluster … shard …` lines to stderr)
    /// whenever an oversized cluster splits. `QSYS_SHARD_DEBUG` (any
    /// value) enables it; purely diagnostic, never changes routing.
    pub shard_debug: bool,
    /// Environment parse failures captured by `Default` (a malformed
    /// `QSYS_FAULTS` or `QSYS_SNAPSHOT_EVERY`). `Default` must stay
    /// infallible, so instead of panicking mid-construction the errors are
    /// recorded here, [`EngineConfig::validate`] surfaces them as
    /// structured [`ConfigError`]s, and an engine built from an
    /// un-validated bad config runs with the offending knob disabled and
    /// reports the error in its `RunReport` rather than ignoring it.
    pub env_errors: Vec<ConfigError>,
}

/// A structured configuration error: which field is bad and why.
///
/// Produced by [`EngineConfig::validate`] — both for environment parse
/// failures captured at `Default` time (`QSYS_FAULTS`,
/// `QSYS_SNAPSHOT_EVERY`) and for invariant violations in
/// programmatically-built configs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The `EngineConfig` field (or environment variable) at fault.
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

/// Default lane-thread count: `QSYS_LANE_THREADS` override (the CI knob
/// exercising the threaded path) or the machine's parallelism.
fn default_lane_threads() -> usize {
    if let Some(n) = std::env::var("QSYS_LANE_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Default warm-start gate: on unless `QSYS_WARM_OPT=0` (the env knob CI
/// uses to keep the cold optimizer path exercised by the whole suite).
fn default_warm_opt() -> bool {
    std::env::var("QSYS_WARM_OPT").map_or(true, |v| v != "0")
}

/// Parse a `QSYS_SNAPSHOT_EVERY` value (unset = the default cadence of 1).
/// Split out from the environment read so malformed values are unit-testable
/// without mutating process state.
pub(crate) fn parse_snapshot_every(value: Option<String>) -> Result<usize, String> {
    match value {
        None => Ok(1),
        Some(v) if v.trim().is_empty() => Ok(1),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            Ok(n) => Err(format!("QSYS_SNAPSHOT_EVERY: cadence {n} must be ≥ 1")),
            Err(_) => Err(format!("QSYS_SNAPSHOT_EVERY: `{v}` is not a batch count")),
        },
    }
}

/// Parse a `QSYS_SHARD_THRESHOLD` value: unset, empty, `off`, or `0`
/// disable sharding; anything else must be a finite work estimate ≥ 1
/// (in UQ-equivalents). Split out like [`parse_snapshot_every`] so
/// malformed values are unit-testable without mutating process state.
pub(crate) fn parse_shard_threshold(value: Option<String>) -> Result<Option<f64>, String> {
    let Some(v) = value else { return Ok(None) };
    let v = v.trim();
    if v.is_empty() || v == "off" || v == "0" {
        return Ok(None);
    }
    match v.parse::<f64>() {
        Ok(t) if t.is_finite() && t >= 1.0 => Ok(Some(t)),
        Ok(t) => Err(format!(
            "QSYS_SHARD_THRESHOLD: {t} must be a finite work estimate ≥ 1 (or `off`)"
        )),
        Err(_) => Err(format!(
            "QSYS_SHARD_THRESHOLD: `{v}` is not a work estimate"
        )),
    }
}

/// Parse a `QSYS_ADAPT_DRIFT` value: unset, empty, `off`, or `0`
/// disable adaptive re-optimization; anything else must be a finite
/// drift ratio > 1 (an observation/estimate divergence factor).
pub(crate) fn parse_adapt_drift(value: Option<String>) -> Result<Option<f64>, String> {
    let Some(v) = value else { return Ok(None) };
    let v = v.trim();
    if v.is_empty() || v == "off" || v == "0" {
        return Ok(None);
    }
    match v.parse::<f64>() {
        Ok(t) if t.is_finite() && t > 1.0 => Ok(Some(t)),
        Ok(t) => Err(format!(
            "QSYS_ADAPT_DRIFT: {t} must be a finite drift ratio > 1 (or `off`)"
        )),
        Err(_) => Err(format!("QSYS_ADAPT_DRIFT: `{v}` is not a drift ratio")),
    }
}

/// Parse a `QSYS_ADAPT_MIN_REMAINING` value (unset = the default
/// fraction): how much of a batch must still be re-plannable for a
/// mid-batch replan to pay, as a fraction in [0, 1].
pub(crate) fn parse_adapt_min_remaining(value: Option<String>) -> Result<f64, String> {
    match value {
        None => Ok(AdaptiveConfig::DEFAULT_MIN_REMAINING),
        Some(v) if v.trim().is_empty() => Ok(AdaptiveConfig::DEFAULT_MIN_REMAINING),
        Some(v) => match v.trim().parse::<f64>() {
            Ok(f) if f.is_finite() && (0.0..=1.0).contains(&f) => Ok(f),
            Ok(f) => Err(format!(
                "QSYS_ADAPT_MIN_REMAINING: {f} must be a fraction in [0, 1]"
            )),
            Err(_) => Err(format!("QSYS_ADAPT_MIN_REMAINING: `{v}` is not a fraction")),
        },
    }
}

/// Parse a `QSYS_SHARD_MAX` value (unset = the default cap).
pub(crate) fn parse_shard_max(value: Option<String>) -> Result<usize, String> {
    match value {
        None => Ok(ShardConfig::DEFAULT_MAX_SHARDS),
        Some(v) if v.trim().is_empty() => Ok(ShardConfig::DEFAULT_MAX_SHARDS),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            Ok(n) => Err(format!("QSYS_SHARD_MAX: cap {n} must be ≥ 1 shard")),
            Err(_) => Err(format!("QSYS_SHARD_MAX: `{v}` is not a shard count")),
        },
    }
}

/// Parse a `QSYS_VERIFY` value: unset, empty, or `0` leave phase-boundary
/// verification to the `debug_assertions` default; anything else turns it
/// on. Never an error — there is no way to misspell "on" dangerously.
pub(crate) fn parse_verify(value: Option<String>) -> bool {
    value.is_some_and(|v| !v.trim().is_empty() && v.trim() != "0")
}

impl Default for EngineConfig {
    fn default() -> Self {
        let mut env_errors = Vec::new();
        // The environment reads for every engine knob live here, and only
        // here (enforced by `qsys-lint`'s `env-read` rule): `Default`
        // captures the raw values, the `parse_*` helpers keep the parsing
        // testable without process-global state, and `validate_all`
        // surfaces whatever was malformed.
        let faults =
            FaultSpec::from_env_value(std::env::var("QSYS_FAULTS").ok()).unwrap_or_else(|e| {
                env_errors.push(ConfigError {
                    field: "faults",
                    message: e,
                });
                None
            });
        let snapshot_every = parse_snapshot_every(std::env::var("QSYS_SNAPSHOT_EVERY").ok())
            .unwrap_or_else(|e| {
                env_errors.push(ConfigError {
                    field: "snapshot_every",
                    message: e,
                });
                1
            });
        // A malformed shard knob disables sharding (the conservative
        // topology) and reports, mirroring the other env knobs.
        let shard_threshold = parse_shard_threshold(std::env::var("QSYS_SHARD_THRESHOLD").ok())
            .unwrap_or_else(|e| {
                env_errors.push(ConfigError {
                    field: "sharding.threshold",
                    message: e,
                });
                None
            });
        let shard_max = parse_shard_max(std::env::var("QSYS_SHARD_MAX").ok()).unwrap_or_else(|e| {
            env_errors.push(ConfigError {
                field: "sharding.max_shards",
                message: e,
            });
            ShardConfig::DEFAULT_MAX_SHARDS
        });
        // A malformed adaptive knob disables re-planning (the
        // conservative, static behaviour) and reports.
        let adapt_drift =
            parse_adapt_drift(std::env::var("QSYS_ADAPT_DRIFT").ok()).unwrap_or_else(|e| {
                env_errors.push(ConfigError {
                    field: "adaptive.drift",
                    message: e,
                });
                None
            });
        let adapt_min_remaining =
            parse_adapt_min_remaining(std::env::var("QSYS_ADAPT_MIN_REMAINING").ok())
                .unwrap_or_else(|e| {
                    env_errors.push(ConfigError {
                        field: "adaptive.min_remaining",
                        message: e,
                    });
                    AdaptiveConfig::DEFAULT_MIN_REMAINING
                });
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
            lane_threads: default_lane_threads(),
            warm_opt: default_warm_opt(),
            faults,
            retry: RetryPolicy::default(),
            snapshot_dir: std::env::var("QSYS_SNAPSHOT_DIR")
                .ok()
                .filter(|d| !d.trim().is_empty())
                .map(std::path::PathBuf::from),
            sharding: ShardConfig {
                threshold: shard_threshold,
                max_shards: shard_max,
            },
            adaptive: AdaptiveConfig {
                drift: adapt_drift,
                min_remaining: adapt_min_remaining,
            },
            snapshot_every,
            verify: parse_verify(std::env::var("QSYS_VERIFY").ok()),
            shard_debug: std::env::var_os("QSYS_SHARD_DEBUG").is_some(),
            env_errors,
        }
    }
}

impl EngineConfig {
    /// Validate the configuration, surfacing the first problem as a
    /// structured [`ConfigError`]: environment parse failures captured at
    /// `Default` time (a malformed `QSYS_FAULTS` schedule no longer
    /// panics — it lands here) and basic invariants of the numeric knobs.
    /// The full aggregated list is [`EngineConfig::validate_all`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self.validate_all().into_iter().next() {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Every problem with this configuration, aggregated: environment
    /// parse failures first (in capture order), then field-invariant
    /// violations in declaration order. Empty means the config is sound.
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
        invariant(
            self.snapshot_every >= 1,
            "snapshot_every",
            "snapshot cadence must be ≥ 1 batch",
        );
        if let Some(t) = self.sharding.threshold {
            invariant(
                t.is_finite() && t >= 1.0,
                "sharding.threshold",
                "shard threshold must be a finite work estimate ≥ 1 UQ-equivalent",
            );
        }
        invariant(
            self.sharding.max_shards >= 1,
            "sharding.max_shards",
            "a cluster splits into at least one shard",
        );
        if let Some(d) = self.adaptive.drift {
            invariant(
                d.is_finite() && d > 1.0,
                "adaptive.drift",
                "drift ratio must be finite and > 1",
            );
        }
        invariant(
            self.adaptive.min_remaining.is_finite()
                && (0.0..=1.0).contains(&self.adaptive.min_remaining),
            "adaptive.min_remaining",
            "remaining-work fraction must be in [0, 1]",
        );
        errors
    }

    /// Whether phase-boundary invariant verification is active: always in
    /// debug builds, or per the `verify` knob (`QSYS_VERIFY=1`).
    pub(crate) fn verify_phases(&self) -> bool {
        cfg!(debug_assertions) || self.verify
    }

    /// The optimizer-configuration fingerprint warm state computed under
    /// this engine config carries (stamped into snapshot headers; a
    /// mismatch at load time rejects the snapshot before any state is
    /// admitted).
    pub(crate) fn warm_fingerprint(&self) -> String {
        OptimizerConfig {
            k: self.k,
            heuristics: self.heuristics.clone(),
            cost_profile: self.cost_profile,
            share_subexpressions: batch_share(&self.sharing),
            ..OptimizerConfig::default()
        }
        .warm_fingerprint()
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
    /// Per-UQ statistics.
    pub(crate) stats: ExecStats,
    /// Retry/breaker state for this lane's fetches. A strict pass-through
    /// while the lane's sources carry no fault injector.
    pub(crate) governor: SourceGovernor,
    /// Adaptive-execution state: accumulated runtime observations plus
    /// the lane's drift/replan counters. Untouched (default-empty) when
    /// `EngineConfig::adaptive` is off.
    pub(crate) adaptive: AdaptiveState,
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
    /// The logical ATC-CL cluster this lane serves. Lanes born by
    /// sharding one oversized cluster share the id, which is what groups
    /// them for least-loaded routing of late arrivals.
    pub(crate) cluster: usize,
    /// Shard ancestry: `(shard index, shard count)` when this lane was
    /// born by splitting an oversized cluster; `None` for unsharded
    /// lanes.
    pub(crate) shard: Option<(usize, usize)>,
    /// Σ estimated work (raw per-UQ stream-leaf cost) routed here —
    /// the load metric shard-aware routing balances on. Tracked only
    /// when sharding is enabled.
    pub(crate) routed_cost: f64,
    /// Set when a batch panicked on this lane: its plan graph and clocks
    /// can no longer be trusted, so later batches routed here fail fast
    /// with [`QueryOutcome::Failed`] instead of executing on poisoned
    /// state. Other lanes — and the engine — keep serving.
    pub(crate) poisoned: Option<String>,
}

/// A lane's adaptive-execution state (see [`EngineConfig::adaptive`]).
#[derive(Debug, Default)]
pub(crate) struct AdaptiveState {
    /// Runtime observations, monotone across the lane's lifetime (and
    /// rehydrated from a snapshot's observed-stats section).
    pub(crate) observed: ObservedStats,
    /// Drift/replan counters, reported per lane and merged into the run.
    pub(crate) summary: AdaptiveSummary,
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

/// One optimize + graft of a batch: its outcome, the optimizer's stats,
/// and the members it covered.
type Graft = (GraftOutcome, OptStats, Vec<UqId>);

/// Rounds between drift checks in the drive loop: frequent enough to catch
/// drift while most of a batch is still ahead, rare enough that
/// observation never dominates a round.
const DRIFT_CHECK_INTERVAL: u64 = 4;

/// Mid-batch replans one batch may perform. Corrections persist in the
/// warm store (and are re-applied wholesale at batch end), so one
/// surgery per batch captures nearly all of the correction's value;
/// every further replan re-pays the optimize charge for marginal
/// fact deltas — churn, not adaptation.
const MAX_REPLANS_PER_BATCH: u64 = 1;

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
            sources.set_fetch_timeout(config.retry.fetch_timeout_us);
        }
        Lane {
            idx,
            manager,
            sources,
            atc: Atc::new(config.scheduling),
            stats: ExecStats::new(),
            governor: SourceGovernor::new(config.retry),
            adaptive: AdaptiveState::default(),
            open: Vec::new(),
            ready: VecDeque::new(),
            opt_events: Vec::new(),
            wall_us: 0,
            footprint: BTreeSet::new(),
            cluster: 0,
            shard: None,
            routed_cost: 0.0,
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
    /// through here.
    fn run_batch(&mut self, cx: &BatchCx, batch: &[Admitted]) {
        let wall = std::time::Instant::now();
        let live = self.admit(cx, batch);
        if !live.is_empty() {
            let grafts = self.plan(cx, &live);
            self.execute(cx, &live);
            self.publish(cx, &live, &grafts);
            self.retire();
        }
        self.wall_us += wall.elapsed().as_micros() as u64;
    }

    /// Members cancelled (or already past their deadline) before dispatch
    /// drop out here: their slots resolve immediately and the survivors,
    /// stamped with the batch's submission time, run exactly as if the
    /// batch had been admitted without them.
    fn admit<'b>(&mut self, cx: &BatchCx, batch: &'b [Admitted]) -> Vec<Live<'b>> {
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
        for (admitted, _) in &live {
            self.stats.submit(admitted.uq.id, submit);
        }
        live
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
                    let (outcome, opt) = self.graft_batch(cx, &[uq], false);
                    grafts.push((outcome, opt, vec![uq.id]));
                    if matches!(cx.config.sharing, SharingMode::AtcUq) {
                        // Sharing stays within the user query.
                        self.manager.isolate();
                    }
                }
            }
            // ATC-FULL / ATC-CL: one multi-query optimization per batch.
            SharingMode::AtcFull | SharingMode::AtcCl(_) => {
                let uqs: Vec<&UserQuery> = live.iter().map(|(a, _)| &a.uq).collect();
                let (outcome, opt) = self.graft_batch(cx, &uqs, false);
                grafts.push((outcome, opt, uqs.iter().map(|uq| uq.id).collect()));
            }
        }
        if cx.config.verify_phases() {
            // Post-graft boundary: the freshly grafted plan graph must
            // satisfy every structural invariant, and — before execution
            // starts — no rank-merge may be bound into a quarantined
            // subtree (execution later drains *around* quarantined leaves,
            // so this second check is only valid here, not after replans).
            qsys_verify::verify_lane(&self.manager, &self.adaptive.observed)
                .assert_clean("post-graft");
            VerifyReport::from(qsys_verify::verify_no_quarantined_grafts(
                &self.manager,
                "lane/graph",
            ))
            .assert_clean("post-graft");
        }
        grafts
    }

    /// Optimize and graft a set of user queries as one batch onto this
    /// lane, recording the optimizer invocation in `opt_events`. `replan`
    /// marks an adaptive mid-batch re-graft: the manager then instantiates
    /// CQ roots fresh instead of merging them back onto the abandoned
    /// plan's roots (whose signatures they necessarily share).
    fn graft_batch(
        &mut self,
        cx: &BatchCx,
        uqs: &[&UserQuery],
        replan: bool,
    ) -> (GraftOutcome, OptStats) {
        let batch: Vec<(&qsys_query::ConjunctiveQuery, &ScoreFn)> = uqs
            .iter()
            .flat_map(|uq| uq.cqs.iter().map(|(cq, f)| (cq, f)))
            .collect();
        let opt_config = OptimizerConfig {
            k: cx.config.k,
            heuristics: cx.config.heuristics.clone(),
            cost_profile: cx.config.cost_profile,
            share_subexpressions: batch_share(&cx.config.sharing),
            ..OptimizerConfig::default()
        };
        let step_us = opt_config.opt_step_us;
        let optimizer = Optimizer::new(cx.catalog, opt_config);
        let (spec, opt_stats) = {
            // The lane's shared interner: the spec's signature ids must be the
            // ones the manager's reuse index is keyed on. The warm store rides
            // along (same ids) unless the config runs the optimizer cold.
            let interner = self.manager.shared_interner();
            let warm = cx.config.warm_opt.then(|| self.manager.warm_cell());
            let oracle = self.manager.reuse_oracle();
            optimizer.optimize_warm(
                &batch,
                &oracle,
                Some(self.sources.clock()),
                &interner,
                warm.as_deref(),
            )
        };
        let outcome = if replan {
            self.manager.graft_replan(&spec, &self.sources, cx.config.k)
        } else {
            self.manager.graft(&spec, &self.sources, cx.config.k)
        };
        self.opt_events
            .push(OptEvent::new(batch.len(), &opt_stats, step_us));
        (outcome, opt_stats)
    }

    /// Drive the ATC until every rank-merge of the batch is done: the one
    /// drive loop. Where mid-batch re-planning runs (see [`replan_drift`]),
    /// every [`DRIFT_CHECK_INTERVAL`] rounds it may re-plan the members
    /// that have emitted nothing, and the batch's observations are folded
    /// into the warm store at the end.
    fn execute(&mut self, cx: &BatchCx, live: &[Live]) {
        let drift = replan_drift(cx.config);
        self.governor.begin_batch();
        let mut rounds: u64 = 0;
        let mut replans: u64 = 0;
        while self.atc.round(
            self.manager.graph_mut(),
            &self.sources,
            &self.governor,
            &mut self.stats,
        ) {
            rounds += 1;
            if let Some(drift) = drift {
                if rounds.is_multiple_of(DRIFT_CHECK_INTERVAL) && replans < MAX_REPLANS_PER_BATCH {
                    replans += u64::from(self.maybe_replan(cx, live, drift));
                }
            }
        }
        if drift.is_some() {
            self.adaptive.observed.add_rounds(rounds);
            // Final tap: later batches' shard routing, live estimates, and
            // snapshots should see end-of-batch truth even if no check fired.
            self.manager.observe_into(&mut self.adaptive.observed);
            // Fold the batch's full observations into the warm store now
            // that every stream has settled — exhausted leaves are exact
            // counts and their relation-level factors re-cost the whole
            // candidate space. Unlike the mid-batch surgery this charges
            // nothing: the next batch was going to optimize anyway.
            self.adaptive.summary.cards_corrected += self.apply_observed();
        }
        self.manager.unpin_all();
    }

    /// Fold the lane's runtime observations into its warm store,
    /// returning how many cardinalities changed.
    fn apply_observed(&mut self) -> u64 {
        let interner_cell = self.manager.shared_interner();
        let interner = interner_cell.borrow();
        let warm_cell = self.manager.warm_cell();
        let mut warm = warm_cell.borrow_mut();
        qsys_opt::adaptive::apply_observed(&mut warm, &self.adaptive.observed, &interner)
    }

    /// One drift check of the drive loop: tap the live graph's observed
    /// cardinalities and compare them against the frozen warm-store facts.
    /// When drift exceeds the configured ratio and enough of the batch is
    /// still re-plannable, fold the observations into the warm store,
    /// detach every member that has emitted nothing, and re-graft those
    /// members through the warm optimizer path — their fresh rank-merges
    /// rebuild from the archived state via `RecoverState` (the same
    /// machinery a late-arriving query uses), so no tuple is lost and, with
    /// nothing yet emitted, none can be duplicated. Returns whether it
    /// re-planned.
    fn maybe_replan(&mut self, cx: &BatchCx, live: &[Live], drift: f64) -> bool {
        self.adaptive.summary.drift_checks += 1;
        self.manager.observe_into(&mut self.adaptive.observed);
        let drifted = {
            let warm_cell = self.manager.warm_cell();
            let warm = warm_cell.borrow();
            qsys_opt::adaptive::detect_drift(&warm, &self.adaptive.observed, drift).any()
        };
        if !drifted {
            return false;
        }
        // Only members that have emitted nothing are safely re-plannable;
        // a replan must also still be worth it (enough of the batch left).
        let remaining: Vec<&UserQuery> = live
            .iter()
            .map(|(a, _)| &a.uq)
            .filter(|uq| self.manager.replannable(uq.id))
            .collect();
        if remaining.is_empty()
            || (remaining.len() as f64) < cx.config.adaptive.min_remaining * live.len() as f64
        {
            return false;
        }
        // Correct the warm store from what was observed. If nothing
        // actually changed, the re-plan would re-derive the same plan —
        // skip the surgery.
        let corrected = self.apply_observed();
        self.adaptive.summary.cards_corrected += corrected;
        if corrected == 0 {
            return false;
        }
        let replanned: Vec<&UserQuery> = remaining
            .into_iter()
            .filter(|uq| self.manager.detach_for_replan(uq.id))
            .collect();
        if replanned.is_empty() {
            return false;
        }
        let opt_before = self.sources.clock().breakdown().optimize_us;
        self.graft_batch(cx, &replanned, true);
        if cx.config.verify_phases() {
            // Post-replan boundary: structural invariants only. The
            // quarantine check is deliberately absent — mid-execution the
            // legal degradation path drains around quarantined leaves.
            qsys_verify::verify_lane(&self.manager, &self.adaptive.observed)
                .assert_clean("post-replan");
        }
        self.adaptive.summary.replan_us += self
            .sources
            .clock()
            .breakdown()
            .optimize_us
            .saturating_sub(opt_before);
        self.adaptive.summary.replans += 1;
        true
    }

    /// Harvest each member's ranked answers and report line into the
    /// ledger, before completed rank-merges are unlinked. The per-query
    /// slots are assembled outside the ledger lock — concurrent lanes
    /// contend only on the final inserts, not on the O(k) clones.
    fn publish(&self, cx: &BatchCx, live: &[Live], grafts: &[Graft]) {
        let published: Vec<(UqId, TicketSlot)> = live
            .iter()
            .map(|&(admitted, deadline)| {
                let id = admitted.uq.id;
                let (outcome, opt) = grafts
                    .iter()
                    .find(|(_, _, ids)| ids.contains(&id))
                    .map(|(o, s, _)| (o, *s))
                    // lint:allow(panic-path): `plan` pushes an entry covering every live member
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
                let stats = self.stats.uq(id).expect("submitted at admission");
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

/// The drift ratio mid-batch re-planning runs at, or `None` where it does
/// not run: it needs a configured ratio, the warm store (corrections live
/// there) and cross-query sharing (a re-graft must merge back onto the
/// live leaves) — ATC-CQ shares nothing and ATC-UQ isolates its signature
/// index between queries, so both always run the static plan.
fn replan_drift(config: &EngineConfig) -> Option<f64> {
    let shares_across_queries =
        matches!(config.sharing, SharingMode::AtcFull | SharingMode::AtcCl(_));
    config
        .adaptive
        .drift
        .filter(|_| config.warm_opt && shares_across_queries)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(c.scheduling, SchedulingPolicy::RoundRobin);
        assert_eq!(c.eviction, EvictionPolicy::LruSizeTieBreak);
        assert!(c.lane_threads >= 1, "at least one lane thread");
    }

    #[test]
    fn snapshot_every_parses_or_explains() {
        assert_eq!(parse_snapshot_every(None), Ok(1));
        assert_eq!(parse_snapshot_every(Some("".into())), Ok(1));
        assert_eq!(parse_snapshot_every(Some(" 8 ".into())), Ok(8));
        for bad in ["0", "-1", "five", "1.5"] {
            let err = parse_snapshot_every(Some(bad.into())).expect_err(bad);
            assert!(
                err.contains("QSYS_SNAPSHOT_EVERY"),
                "error for '{bad}' must name the knob: {err}"
            );
        }
    }

    #[test]
    fn shard_knobs_parse_or_explain() {
        // Threshold: unset / empty / off / 0 disable; ≥ 1 enables.
        assert_eq!(parse_shard_threshold(None), Ok(None));
        assert_eq!(parse_shard_threshold(Some("".into())), Ok(None));
        assert_eq!(parse_shard_threshold(Some("off".into())), Ok(None));
        assert_eq!(parse_shard_threshold(Some("0".into())), Ok(None));
        assert_eq!(parse_shard_threshold(Some(" 4 ".into())), Ok(Some(4.0)));
        assert_eq!(parse_shard_threshold(Some("1.5".into())), Ok(Some(1.5)));
        for bad in ["0.5", "-3", "NaN", "inf", "many"] {
            let err = parse_shard_threshold(Some(bad.into())).expect_err(bad);
            assert!(
                err.contains("QSYS_SHARD_THRESHOLD"),
                "error for '{bad}' must name the knob: {err}"
            );
        }
        // Max shards: unset/empty default, ≥ 1 required.
        assert_eq!(parse_shard_max(None), Ok(ShardConfig::DEFAULT_MAX_SHARDS));
        assert_eq!(
            parse_shard_max(Some(" ".into())),
            Ok(ShardConfig::DEFAULT_MAX_SHARDS)
        );
        assert_eq!(parse_shard_max(Some("4".into())), Ok(4));
        for bad in ["0", "-2", "2.5", "lots"] {
            let err = parse_shard_max(Some(bad.into())).expect_err(bad);
            assert!(
                err.contains("QSYS_SHARD_MAX"),
                "error for '{bad}' must name the knob: {err}"
            );
        }
    }

    #[test]
    fn adaptive_knobs_parse_or_explain() {
        // Drift: unset / empty / off / 0 disable; > 1 enables.
        assert_eq!(parse_adapt_drift(None), Ok(None));
        assert_eq!(parse_adapt_drift(Some("".into())), Ok(None));
        assert_eq!(parse_adapt_drift(Some("off".into())), Ok(None));
        assert_eq!(parse_adapt_drift(Some("0".into())), Ok(None));
        assert_eq!(parse_adapt_drift(Some(" 2 ".into())), Ok(Some(2.0)));
        assert_eq!(parse_adapt_drift(Some("1.5".into())), Ok(Some(1.5)));
        for bad in ["1", "0.5", "-3", "NaN", "inf", "lots"] {
            let err = parse_adapt_drift(Some(bad.into())).expect_err(bad);
            assert!(
                err.contains("QSYS_ADAPT_DRIFT"),
                "error for '{bad}' must name the knob: {err}"
            );
        }
        // Min remaining: unset/empty default, fraction in [0, 1].
        assert_eq!(
            parse_adapt_min_remaining(None),
            Ok(AdaptiveConfig::DEFAULT_MIN_REMAINING)
        );
        assert_eq!(
            parse_adapt_min_remaining(Some(" ".into())),
            Ok(AdaptiveConfig::DEFAULT_MIN_REMAINING)
        );
        assert_eq!(parse_adapt_min_remaining(Some("0".into())), Ok(0.0));
        assert_eq!(parse_adapt_min_remaining(Some("0.5".into())), Ok(0.5));
        assert_eq!(parse_adapt_min_remaining(Some("1".into())), Ok(1.0));
        for bad in ["1.5", "-0.1", "NaN", "half"] {
            let err = parse_adapt_min_remaining(Some(bad.into())).expect_err(bad);
            assert!(
                err.contains("QSYS_ADAPT_MIN_REMAINING"),
                "error for '{bad}' must name the knob: {err}"
            );
        }
    }

    #[test]
    fn validate_checks_adaptive_invariants() {
        let mut config = EngineConfig {
            env_errors: Vec::new(),
            ..EngineConfig::default()
        };
        config.adaptive = AdaptiveConfig::at(1.0);
        let err = config.validate().expect_err("ratio 1 never drifts");
        assert_eq!(err.field, "adaptive.drift");
        config.adaptive = AdaptiveConfig {
            drift: Some(f64::INFINITY),
            ..AdaptiveConfig::off()
        };
        assert!(config.validate().is_err(), "infinite ratio invalid");
        config.adaptive = AdaptiveConfig {
            drift: Some(2.0),
            min_remaining: 1.5,
        };
        let err = config.validate().expect_err("fraction above 1 invalid");
        assert_eq!(err.field, "adaptive.min_remaining");
        config.adaptive = AdaptiveConfig::at(2.0);
        config.validate().expect("sane adaptive validates");
        config.adaptive = AdaptiveConfig::off();
        config.validate().expect("default-off adaptive validates");
    }

    #[test]
    fn validate_checks_shard_invariants() {
        let mut config = EngineConfig {
            env_errors: Vec::new(),
            ..EngineConfig::default()
        };
        config.sharding = ShardConfig::at(0.25);
        let err = config.validate().expect_err("sub-unit threshold invalid");
        assert_eq!(err.field, "sharding.threshold");
        config.sharding = ShardConfig {
            threshold: Some(f64::NAN),
            max_shards: 4,
        };
        assert!(config.validate().is_err(), "NaN threshold invalid");
        config.sharding = ShardConfig {
            threshold: Some(8.0),
            max_shards: 0,
        };
        let err = config.validate().expect_err("zero shard cap invalid");
        assert_eq!(err.field, "sharding.max_shards");
        config.sharding = ShardConfig::at(8.0);
        config.validate().expect("sane sharding validates");
        config.sharding = ShardConfig::off();
        config.validate().expect("default-off sharding validates");
    }

    #[test]
    fn validate_surfaces_env_errors_first() {
        let mut config = EngineConfig {
            env_errors: vec![ConfigError {
                field: "faults",
                message: "QSYS_FAULTS: bad clause".into(),
            }],
            ..EngineConfig::default()
        };
        // A captured environment error outranks field checks…
        config.snapshot_every = 0;
        let err = config.validate().expect_err("env error fails validation");
        assert_eq!(err.field, "faults");
        assert!(err.to_string().contains("bad clause"));
        // …and once it is cleared, the field invariant reports.
        config.env_errors.clear();
        let err = config.validate().expect_err("cadence 0 is invalid");
        assert_eq!(err.field, "snapshot_every");
        config.snapshot_every = 1;
        config.validate().expect("clean config validates");
    }

    #[test]
    fn validate_all_aggregates_every_failure() {
        let mut config = EngineConfig {
            env_errors: vec![ConfigError {
                field: "faults",
                message: "QSYS_FAULTS: bad clause".into(),
            }],
            ..EngineConfig::default()
        };
        config.k = 0;
        config.batch_size = 0;
        config.heuristics.max_candidates = 65;
        config.snapshot_every = 0;
        let errors = config.validate_all();
        let fields: Vec<&str> = errors.iter().map(|e| e.field).collect();
        // Every failure reported at once, env capture first, then the
        // invariants in declaration order — and validate() stays the
        // first-error view of the same list.
        assert_eq!(
            fields,
            [
                "faults",
                "k",
                "batch_size",
                "heuristics.max_candidates",
                "snapshot_every"
            ]
        );
        assert_eq!(
            config.validate().expect_err("same first error").field,
            "faults"
        );
        config.env_errors.clear();
        config.k = 1;
        config.batch_size = 1;
        config.heuristics.max_candidates = 64;
        config.snapshot_every = 1;
        assert!(
            config.validate_all().is_empty(),
            "clean config aggregates to nothing"
        );
    }

    #[test]
    fn parse_verify_reads_like_a_feature_flag() {
        // Any non-empty value other than "0" opts in.
        assert!(parse_verify(Some("1".into())));
        assert!(parse_verify(Some("true".into())));
        assert!(parse_verify(Some(" 1 ".into())));
        // Unset, empty, and the explicit zero stay off.
        assert!(!parse_verify(None));
        assert!(!parse_verify(Some(String::new())));
        assert!(!parse_verify(Some("  ".into())));
        assert!(!parse_verify(Some("0".into())));
    }

    #[test]
    fn verify_phases_follows_build_and_flag() {
        let mut config = EngineConfig {
            env_errors: Vec::new(),
            ..EngineConfig::default()
        };
        config.verify = true;
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
