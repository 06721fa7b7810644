//! Experiment reporting, and the scripted workload driver.
//!
//! [`RunReport`] carries the quantities the paper's evaluation section
//! plots: per-user-query response times (Figures 7, 9, 12), time
//! breakdowns (Figure 8), conjunctive queries executed (Table 4), total
//! tuples consumed (Figure 10), and optimizer statistics (Figure 11).
//!
//! [`run_workload`] runs a scripted [`Workload`] to completion on a fresh
//! [`Engine`] and returns its report: the one call every experiment and
//! golden goes through. Interactive callers use the
//! [`Engine`]/[`Session`](crate::Session) API directly.

use crate::engine::EngineConfig;
use crate::session::{Engine, QueryTicket};
use qsys_exec::{ExecWork, FaultStats};
use qsys_opt::OptStats;
use qsys_query::{CandidateGenerator, UserQuery};
use qsys_types::clock::OPT_STEP_US;
use qsys_types::{QsysResult, RelId, TimeBreakdown, UqId, UserId};
use qsys_workload::Workload;

/// How one user query's execution ended. Every outcome other than
/// [`QueryOutcome::Complete`] exists only when the caller used the
/// cancel/deadline API or a fault schedule was active — a clean run is
/// all-`Complete` by construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Full-fidelity top-k.
    #[default]
    Complete,
    /// The top-k is correct over what the surviving sources delivered, but
    /// the listed relations failed mid-batch, so answers needing them may
    /// be missing.
    Degraded {
        /// Relations this query reads that were lost to faults.
        missing_rels: Vec<RelId>,
    },
    /// The query produced nothing — its lane panicked (or was already
    /// poisoned by an earlier panic) before results could be published.
    Failed {
        /// Human-readable cause (the panic payload, or "lane poisoned").
        reason: String,
    },
    /// Cancelled by the caller before its batch ran.
    Cancelled,
    /// Its deadline passed: either before its batch started (no results)
    /// or during execution (results are retained — late, not wrong).
    DeadlineExceeded,
}

impl QueryOutcome {
    /// Whether the query delivered its full-fidelity top-k on time.
    pub fn is_complete(&self) -> bool {
        *self == QueryOutcome::Complete
    }
}

/// Per-user-query report line.
#[derive(Debug, Clone)]
pub struct UqReport {
    /// The user query.
    pub uq: UqId,
    /// The submitting user.
    pub user: UserId,
    /// The keyword text.
    pub keywords: String,
    /// Virtual arrival time the query was admitted with, µs.
    pub arrival_us: u64,
    /// Virtual response time in µs (graft → top-k complete).
    pub response_us: u64,
    /// Results returned.
    pub results: usize,
    /// Conjunctive queries generated.
    pub cqs_generated: usize,
    /// Conjunctive queries executed (Table 4).
    pub cqs_executed: usize,
    /// Which lane (plan graph) served it.
    pub lane: usize,
    /// Plan-graph nodes its batch reused from earlier state (batch-level:
    /// every member of a multi-query batch reports the batch's total).
    pub reused_nodes: usize,
    /// How many of this query's CQs ran a `RecoverState` recovery query
    /// over pre-existing stream state (Section 6.2).
    pub recovered_cqs: usize,
    /// Whether it published an identical earlier query's retained top-k
    /// instead of running (`qsys_exec::state` module docs): no CQ of it
    /// was grafted, read or recovered.
    pub sealed: bool,
    /// How execution ended (`Complete` on every clean run).
    pub outcome: QueryOutcome,
}

/// Per-lane execution summary: how work actually spread across plan
/// graphs (one per ATC-CL cluster). This is how lane imbalance is
/// observed in production runs, not just in the bench harness's
/// `lane_wall_us`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaneSummary {
    /// Lane index (matches `UqReport::lane`).
    pub lane: usize,
    /// Host wall-clock µs spent executing on this lane.
    pub wall_us: u64,
    /// Input tuples this lane's sources consumed.
    pub tuples_consumed: u64,
    /// Stream tuples this lane read.
    pub tuples_streamed: u64,
    /// User queries served by this lane.
    pub uqs: usize,
    /// Whether a panicking batch poisoned the lane.
    pub poisoned: bool,
}

/// One optimizer invocation (Figure 11's data points).
#[derive(Debug, Clone, Copy)]
pub struct OptEvent {
    /// Conjunctive queries in the batch.
    pub batch_cqs: usize,
    /// Push-down candidates entering BestPlan.
    pub candidates: usize,
    /// Search states explored.
    pub explored: usize,
    /// Simulated optimization time, µs.
    pub opt_us: u64,
    /// Always 0: every batch searches. Kept because `perf/` reads it by name.
    pub warm_hits: usize,
}

impl OptEvent {
    /// The event of one optimizer invocation over `batch_cqs` conjunctive
    /// queries, charged [`OPT_STEP_US`] simulated µs per explored state.
    pub(crate) fn new(batch_cqs: usize, opt: &OptStats) -> OptEvent {
        OptEvent {
            batch_cqs,
            candidates: opt.candidates,
            explored: opt.explored,
            opt_us: opt.explored as u64 * OPT_STEP_US,
            warm_hits: opt.warm_hits,
        }
    }
}

/// The full outcome of one workload run (or of everything an
/// [`Engine`] has executed so far — see
/// [`Engine::report`](crate::Engine::report)).
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Configuration label ("ATC-CQ" …).
    pub config: String,
    /// Per-UQ lines, in UQ order.
    pub per_uq: Vec<UqReport>,
    /// Number of plan graphs (lanes) used.
    pub lanes: usize,
    /// Lane-thread cap the run executed under.
    pub lane_threads: usize,
    /// Host wall-clock µs each lane spent executing, by lane index.
    pub lane_wall_us: Vec<u64>,
    /// Per-lane wall/tuple summaries, by lane index.
    pub lane_summaries: Vec<LaneSummary>,
    /// Summed simulated time across lanes.
    pub breakdown: TimeBreakdown,
    /// Total input tuples consumed (Figure 10).
    pub tuples_consumed: u64,
    /// Stream tuples read.
    pub tuples_streamed: u64,
    /// Push-down results the sources joined, delivered or not
    /// ([`Sources::pushdown_joined`](qsys_source::Sources::pushdown_joined)).
    pub pushdown_joined: u64,
    /// Retired alias of `tuples_streamed`, kept only because the
    /// benchmark (`perf/`) reads it: every streamed tuple is one network
    /// round.
    pub stream_rounds: u64,
    /// Remote probes issued.
    pub probes: u64,
    /// What the delivered tuples fanned out into inside the plan graphs
    /// (m-join inserts, probes and joins, rank-merge accepts by outcome),
    /// summed over lanes: exact per workload, identical at any
    /// `lane_threads`.
    pub exec_work: ExecWork,
    /// Optimizer invocations.
    pub opt_events: Vec<OptEvent>,
    /// Keyword queries that matched no candidate network (skipped).
    pub skipped: Vec<String>,
    /// Fault/resilience accounting (all zero on a clean run).
    pub faults: FaultSummary,
}

/// Run-level fault accounting: the source governors' counters summed over
/// lanes, plus how many queries ended in each non-`Complete` outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Retry/timeout/breaker counters summed across lane governors.
    pub source: FaultStats,
    /// Queries that completed with a degraded (partial) top-k.
    pub degraded: usize,
    /// Queries that failed outright (lane panic).
    pub failed: usize,
    /// Queries cancelled before execution.
    pub cancelled: usize,
    /// Queries whose deadline passed.
    pub deadline_exceeded: usize,
}

impl FaultSummary {
    /// Whether anything at all deviated from a clean run.
    pub fn any(&self) -> bool {
        *self != FaultSummary::default()
    }
}

impl RunReport {
    /// Mean response time across UQs, µs.
    pub fn mean_response_us(&self) -> f64 {
        if self.per_uq.is_empty() {
            return 0.0;
        }
        self.per_uq
            .iter()
            .map(|u| u.response_us as f64)
            .sum::<f64>()
            / self.per_uq.len() as f64
    }

    /// Response-time percentile across UQs in µs, nearest-rank: `p` in
    /// (0, 100]; `response_percentile_us(50.0)` is the median,
    /// `response_percentile_us(99.0)` the tail the degradation curves
    /// plot. 0 when no query has run.
    pub fn response_percentile_us(&self, p: f64) -> u64 {
        if self.per_uq.is_empty() {
            return 0;
        }
        let mut times: Vec<u64> = self.per_uq.iter().map(|u| u.response_us).collect();
        times.sort_unstable();
        let rank = ((p / 100.0) * times.len() as f64).ceil() as usize;
        times[rank.clamp(1, times.len()) - 1]
    }

    /// Total simulated optimization time, µs.
    pub fn opt_us(&self) -> u64 {
        self.opt_events.iter().map(|e| e.opt_us).sum()
    }

    /// This user's report lines, in UQ order — the per-session view a
    /// service caller would otherwise re-aggregate by hand.
    pub fn per_user(&self, user: UserId) -> Vec<&UqReport> {
        self.per_uq.iter().filter(|u| u.user == user).collect()
    }

    /// The report line behind one [`QueryTicket`].
    pub fn per_ticket(&self, ticket: &QueryTicket) -> Option<&UqReport> {
        self.per_uq_id(ticket.id())
    }

    /// The report line for one user-query id.
    pub fn per_uq_id(&self, uq: UqId) -> Option<&UqReport> {
        self.per_uq.iter().find(|u| u.uq == uq)
    }

    /// Σ/max lane-wall balance: 1.0 when one lane does all the work,
    /// approaching the lane count as walls even out — the quantity that
    /// bounds parallel lane speedup. 1.0 when nothing has executed.
    pub fn lane_balance(&self) -> f64 {
        let max = self.lane_wall_us.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        self.lane_wall_us.iter().sum::<u64>() as f64 / max as f64
    }
}

/// Generate the user queries of a workload, with the ids a fresh engine
/// would give them (shared by the experiment drivers and the tests). Queries whose keywords cannot be connected
/// into any candidate network are skipped (returned second) — a real system
/// reports "no results" for them rather than failing the batch.
pub fn generate_user_queries(
    workload: &Workload,
    config: &EngineConfig,
) -> QsysResult<(Vec<UserQuery>, Vec<String>)> {
    let generator =
        CandidateGenerator::new(&workload.catalog, &workload.index, config.candidate.clone());
    let mut next_cq = 0u32;
    let mut uqs = Vec::new();
    let mut skipped = Vec::new();
    for (i, q) in workload.queries.iter().enumerate() {
        match generator.generate(
            &q.keywords,
            UqId::new(i as u32),
            q.user,
            &mut next_cq,
            q.edge_costs.as_ref(),
        ) {
            Ok(uq) => uqs.push(uq),
            Err(_) => skipped.push(q.keywords.clone()),
        }
    }
    Ok((uqs, skipped))
}

/// Run `workload` (optionally stopping once `limit` of its user queries
/// have admitted) under `config`, returning the experiment report:
/// submit the script through each user's [`Session`](crate::Session),
/// drain the engine, read its report. A script entry that matches no
/// candidate network is reported in [`RunReport::skipped`] and does not
/// count towards `limit`. A `config` that fails validation is
/// [`QsysError::InvalidConfig`](qsys_types::QsysError::InvalidConfig),
/// the error its engine refuses every submission with.
pub fn run_workload(
    workload: &Workload,
    config: &EngineConfig,
    limit: Option<usize>,
) -> QsysResult<RunReport> {
    let mut engine = Engine::for_workload(workload, config.clone());
    engine.submit_script_until(workload, limit.unwrap_or(usize::MAX))?;
    engine.run_until_idle();
    Ok(engine.report())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(uq: u32, user: u32, us: u64) -> UqReport {
        UqReport {
            uq: UqId::new(uq),
            user: UserId::new(user),
            keywords: String::new(),
            arrival_us: 0,
            response_us: us,
            results: 1,
            cqs_generated: 1,
            cqs_executed: 1,
            lane: 0,
            reused_nodes: 0,
            recovered_cqs: 0,
            sealed: false,
            outcome: QueryOutcome::Complete,
        }
    }

    #[test]
    fn mean_response_handles_empty() {
        let r = RunReport::default();
        assert_eq!(r.mean_response_us(), 0.0);
        assert_eq!(r.opt_us(), 0);
    }

    #[test]
    fn mean_response_averages() {
        let mut r = RunReport::default();
        r.per_uq.push(line(0, 0, 100));
        r.per_uq.push(line(1, 0, 300));
        assert_eq!(r.mean_response_us(), 200.0);
    }

    #[test]
    fn per_user_filters_and_per_uq_id_finds() {
        let mut r = RunReport::default();
        r.per_uq.push(line(0, 7, 100));
        r.per_uq.push(line(1, 3, 200));
        r.per_uq.push(line(2, 7, 300));
        let u7 = r.per_user(UserId::new(7));
        assert_eq!(u7.len(), 2);
        assert!(u7.iter().all(|l| l.user == UserId::new(7)));
        assert_eq!(r.per_user(UserId::new(9)).len(), 0);
        assert_eq!(r.per_uq_id(UqId::new(1)).unwrap().response_us, 200);
        assert!(r.per_uq_id(UqId::new(42)).is_none());
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut r = RunReport::default();
        assert_eq!(r.response_percentile_us(50.0), 0);
        for (i, us) in [100u64, 200, 300, 400].iter().enumerate() {
            r.per_uq.push(line(i as u32, 0, *us));
        }
        assert_eq!(r.response_percentile_us(50.0), 200);
        assert_eq!(r.response_percentile_us(99.0), 400);
        assert_eq!(r.response_percentile_us(25.0), 100);
        assert!(!r.faults.any());
    }

    #[test]
    fn opt_events_sum() {
        let mut r = RunReport::default();
        let searched = |candidates, explored| OptStats {
            candidates,
            explored,
            ..OptStats::default()
        };
        r.opt_events.push(OptEvent::new(3, &searched(1, 10)));
        r.opt_events.push(OptEvent::new(2, &searched(0, 1)));
        assert_eq!(
            r.opt_us(),
            15 * (10 + 1),
            "each explored state at OPT_STEP_US"
        );
        let last = r.opt_events[1];
        assert_eq!((last.batch_cqs, last.candidates, last.explored), (2, 0, 1));
        assert_eq!(last.warm_hits, 0);
    }
}
