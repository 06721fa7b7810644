//! The sessionized engine: incremental query admission behind an
//! [`Engine`]/[`Session`] facade.
//!
//! The paper's premise is a *continuously arriving* stream of user queries
//! whose subexpressions overlap across concurrent users — a multi-user
//! search service, not a scripted benchmark. This module is that service
//! boundary:
//!
//! - [`Engine`] is the long-lived system: it owns the catalog, the source
//!   provider, and the execution **lanes** (plan graph + shared interner +
//!   eviction state + ATC), and drives them — on worker threads when more
//!   than one lane has work.
//! - [`Engine::session`] opens a lightweight per-user [`Session`];
//!   [`Session::submit`] converts a keyword query into candidate networks
//!   and *admits* it, returning a [`QueryTicket`] immediately.
//! - Admitted queries accumulate in per-lane **admission windows**: a
//!   window seals into a dispatchable batch when it reaches
//!   [`EngineConfig::batch_size`] queries, when a new arrival falls outside
//!   [`EngineConfig::arrival_window_us`], or when the caller flushes.
//! - [`Engine::step`] advances the system by at most one sealed batch per
//!   lane (optimize → graft → execute to completion on the virtual clock);
//!   [`Engine::run_until_idle`] seals everything pending and drains it.
//! - [`QueryTicket::poll`] / [`QueryTicket::take_results`] observe and
//!   collect a query's ranked answers and its per-query [`UqReport`] as
//!   they materialize, without holding any borrow of the engine.
//!
//! ## Stepping is a scheduling freedom, never a semantic one
//!
//! Batches are formed per lane in arrival order, sealed at `batch_size`,
//! and processed in order, so *when* the caller steps changes nothing:
//! submit-everything-then-drain ([`run_workload`](crate::run_workload) is
//! exactly that, over a workload script) and step-after-every-submission
//! produce the same batches, lane clocks, optimizer decisions and tuples,
//! **bit for bit**. The goldens in `tests/parallel_identity.rs`,
//! `tests/interner_invariants.rs`, and `tests/session_api.rs` pin this.
//!
//! ATC-CL clustering needs a population of queries to cluster, so lanes for
//! that mode are created at the first flush from everything admitted so
//! far; queries admitted *after* the lanes exist are routed incrementally
//! to the lane whose cluster footprint they overlap most (a fresh lane when
//! they overlap none).

use crate::engine::{BatchCx, EngineConfig, Lane, SharingMode};
use crate::report::{LaneSummary, QueryOutcome, RunReport, UqReport};
use qsys_catalog::{Catalog, KeywordIndex};
use qsys_exec::state::EvictionStats;
use qsys_opt::OptStats;
use qsys_query::{CandidateGenerator, NetworkMemo, UserQuery};
use qsys_source::TableProvider;
use qsys_types::{QsysError, QsysResult, RelId, Score, Tuple, UqId, UserId};
use qsys_verify::VerifyReport;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// Factory handing each lane its own gateway to the (simulated) remote
/// tables. ATC-CL creates lanes on demand, so the engine owns the factory,
/// not a single provider.
pub type ProviderFactory = Box<dyn Fn() -> TableProvider + Send>;

/// Where a submitted query currently is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TicketStatus {
    /// Admitted; waiting in an admission window or a sealed batch.
    Queued,
    /// Its batch ran to completion: results and the [`UqReport`] are ready.
    Completed,
    /// Results were already collected with [`QueryTicket::take_results`],
    /// or the query never ran (cancelled, expired, or failed).
    Drained,
}

/// One admitted query's slot in the shared ledger.
#[derive(Debug, Default)]
pub(crate) struct TicketSlot {
    pub(crate) completed: bool,
    /// Caller asked for this query to be dropped before its batch runs.
    pub(crate) cancelled: bool,
    /// Virtual-time deadline: at batch start an expired member is skipped;
    /// a member finishing past it keeps its results but reports
    /// [`QueryOutcome::DeadlineExceeded`].
    pub(crate) deadline_us: Option<u64>,
    pub(crate) results: Option<Vec<(Score, Tuple)>>,
    pub(crate) report: Option<UqReport>,
    pub(crate) opt: Option<OptStats>,
}

impl TicketSlot {
    /// The slot of a query its batch never executed (cancelled, expired,
    /// or failed): completed with no results, carrying only its outcome.
    pub(crate) fn unran(admitted: &Admitted, lane: usize, outcome: QueryOutcome) -> TicketSlot {
        TicketSlot {
            completed: true,
            cancelled: matches!(outcome, QueryOutcome::Cancelled),
            deadline_us: None,
            results: None,
            report: Some(UqReport {
                uq: admitted.uq.id,
                user: admitted.uq.user,
                keywords: admitted.uq.keywords.clone(),
                arrival_us: admitted.arrival_us,
                response_us: 0,
                results: 0,
                cqs_generated: admitted.uq.cqs.len(),
                cqs_executed: 0,
                lane,
                reused_nodes: 0,
                recovered_cqs: 0,
                sealed: false,
                outcome,
            }),
            opt: None,
        }
    }
}

/// The engine↔ticket mailbox: worker threads publish each query's results
/// here the moment its batch completes; tickets read without borrowing the
/// engine.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    pub(crate) slots: BTreeMap<UqId, TicketSlot>,
}

type SharedLedger = Arc<Mutex<Ledger>>;

pub(crate) fn ledger_lock(ledger: &Mutex<Ledger>) -> std::sync::MutexGuard<'_, Ledger> {
    ledger.lock().unwrap_or_else(|e| e.into_inner())
}

/// A handle to one submitted query: poll it, then take the ranked answers
/// and per-query report once its batch has executed. Tickets are detached
/// from the engine's borrow — hold as many as you like across
/// [`Engine::step`] calls.
#[derive(Clone)]
pub struct QueryTicket {
    uq: UqId,
    user: UserId,
    ledger: SharedLedger,
}

impl std::fmt::Debug for QueryTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryTicket")
            .field("uq", &self.uq)
            .field("user", &self.user)
            .field("status", &self.poll())
            .finish()
    }
}

impl QueryTicket {
    /// The user-query id this ticket tracks.
    pub fn id(&self) -> UqId {
        self.uq
    }

    /// The submitting user.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// Where the query is right now.
    pub fn poll(&self) -> TicketStatus {
        let ledger = ledger_lock(&self.ledger);
        match ledger.slots.get(&self.uq) {
            Some(slot) if slot.completed => {
                if slot.results.is_some() {
                    TicketStatus::Completed
                } else {
                    TicketStatus::Drained
                }
            }
            _ => TicketStatus::Queued,
        }
    }

    /// Move the ranked answers out (best first). `None` until the query's
    /// batch completes, and again after they have been taken once.
    pub fn take_results(&self) -> Option<Vec<(Score, Tuple)>> {
        ledger_lock(&self.ledger)
            .slots
            .get_mut(&self.uq)
            .and_then(|slot| slot.results.take())
    }

    /// The per-query report line (response time, work, eviction/recovery
    /// status). Available once the query's batch completes; cloning, so it
    /// can be read any number of times.
    pub fn report(&self) -> Option<UqReport> {
        ledger_lock(&self.ledger)
            .slots
            .get(&self.uq)
            .and_then(|slot| slot.report.clone())
    }

    /// Optimizer statistics of the batch that planned this query.
    pub fn opt_stats(&self) -> Option<OptStats> {
        ledger_lock(&self.ledger)
            .slots
            .get(&self.uq)
            .and_then(|slot| slot.opt)
    }

    /// How execution ended — `None` until the query's batch has been
    /// dispatched. [`QueryOutcome::Complete`] on every clean run; the
    /// other states surface cancellation, deadlines, degraded top-ks
    /// (source faults), and lane panics.
    pub fn outcome(&self) -> Option<QueryOutcome> {
        ledger_lock(&self.ledger)
            .slots
            .get(&self.uq)
            .and_then(|slot| slot.report.as_ref().map(|r| r.outcome.clone()))
    }
}

/// A query admitted but not yet dispatched: the generated candidate
/// networks plus its virtual arrival time (drives window sealing).
pub(crate) struct Admitted {
    pub(crate) uq: UserQuery,
    pub(crate) arrival_us: u64,
}

/// The long-lived Q System service: admit keyword queries incrementally
/// through per-user [`Session`]s, advance execution with [`Engine::step`]
/// or [`Engine::run_until_idle`], and observe per-query progress through
/// [`QueryTicket`]s. See the [module docs](self) for the full lifecycle.
pub struct Engine {
    catalog: Catalog,
    index: KeywordIndex,
    config: EngineConfig,
    /// The candidate networks of every keyword query submitted so far (up
    /// to the memo's cap), searched once and ranked afresh for each
    /// submitting user. Engine-lifetime, like the catalog's path table: it
    /// is not plan state and not charged to
    /// [`EngineConfig::memory_budget`], and it is never stale, because the
    /// catalog, index and candidate config it was filled from are fixed.
    networks: NetworkMemo,
    provider: ProviderFactory,
    lanes: Vec<Lane>,
    /// ATC-CL queries admitted before the first flush (no lanes exist yet
    /// to route onto); clustered en masse when lanes are created.
    unrouted: Vec<Admitted>,
    next_uq: u32,
    next_cq: u32,
    ledger: SharedLedger,
    /// Keyword queries that matched no candidate network.
    skipped: Vec<String>,
    /// The first [`EngineConfig::validate`] error, rendered once at
    /// construction: an engine over an invalid config refuses every
    /// submission with it.
    invalid_config: Option<String>,
}

impl Engine {
    /// Stand up an engine over a catalog, keyword index, and a provider
    /// factory (one provider per lane). The config is validated here,
    /// once: if it fails, the engine still builds, but every submission is
    /// refused with [`QsysError::InvalidConfig`].
    pub fn new(
        catalog: Catalog,
        index: KeywordIndex,
        provider: ProviderFactory,
        config: EngineConfig,
    ) -> Engine {
        let invalid_config = config.validate().err().map(|e| e.to_string());
        let mut engine = Engine {
            catalog,
            index,
            config,
            networks: NetworkMemo::default(),
            provider,
            lanes: Vec::new(),
            unrouted: Vec::new(),
            next_uq: 0,
            next_cq: 0,
            ledger: Arc::default(),
            skipped: Vec::new(),
            invalid_config,
        };
        // Non-clustered modes always run one lane; create it eagerly so
        // admission can seal windows against it immediately. ATC-CL defers
        // lane creation to the first flush (clustering needs queries).
        if !matches!(engine.config.sharing, SharingMode::AtcCl(_)) {
            engine.add_lane();
        }
        engine
    }

    /// An engine over a generated [`Workload`](qsys_workload::Workload)'s
    /// catalog, index, and shared table store.
    pub fn for_workload(workload: &qsys_workload::Workload, config: EngineConfig) -> Engine {
        let tables = workload.tables.clone();
        Engine::new(
            workload.catalog.clone(),
            workload.index.clone(),
            Box::new(move || tables.provider()),
            config,
        )
    }

    /// Create the next lane (index = current lane count).
    fn add_lane(&mut self) -> usize {
        let idx = self.lanes.len();
        self.lanes
            .push(Lane::new(&self.config, (self.provider)(), idx));
        idx
    }

    /// The error every submission gets when the engine's config failed
    /// validation at construction.
    fn refusal(&self) -> Option<QsysError> {
        self.invalid_config.clone().map(QsysError::InvalidConfig)
    }

    /// Open a session for one user. Sessions are lightweight handles;
    /// open and drop them freely — the [`QueryTicket`]s they hand out
    /// outlive them.
    pub fn session(&mut self, user: UserId) -> Session<'_> {
        Session {
            engine: self,
            user,
            edge_costs: None,
        }
    }

    /// Submit a workload's whole script in order, each query through its
    /// user's session with that user's learned edge costs, and return the
    /// tickets of the queries that admitted (one matching no candidate
    /// network is recorded as skipped, as [`Session::submit`] does). An
    /// engine whose config failed validation submits nothing and returns
    /// [`QsysError::InvalidConfig`].
    pub fn submit_script(
        &mut self,
        workload: &qsys_workload::Workload,
    ) -> QsysResult<Vec<QueryTicket>> {
        self.submit_script_until(workload, usize::MAX)
    }

    /// [`Engine::submit_script`], stopping once `limit` queries have
    /// admitted: a skipped query consumes a `UqId` but not the limit, and
    /// nothing after the last admitted query is attempted.
    pub(crate) fn submit_script_until(
        &mut self,
        workload: &qsys_workload::Workload,
        limit: usize,
    ) -> QsysResult<Vec<QueryTicket>> {
        if let Some(refusal) = self.refusal() {
            return Err(refusal);
        }
        let submit = |q: &qsys_workload::WorkloadQuery| {
            let mut session = self.session(q.user);
            if let Some(costs) = &q.edge_costs {
                session = session.with_edge_costs(costs.clone());
            }
            session.submit(&q.keywords, q.arrival_us).ok()
        };
        Ok(workload
            .queries
            .iter()
            .filter_map(submit)
            .take(limit)
            .collect())
    }

    /// The schema catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of execution lanes currently live (0 for ATC-CL before the
    /// first flush).
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Queries admitted but not yet executed (open windows + sealed
    /// batches + unrouted ATC-CL arrivals).
    pub fn pending(&self) -> usize {
        self.unrouted.len()
            + self
                .lanes
                .iter()
                .map(|lane| lane.open.len() + lane.ready.iter().map(Vec::len).sum::<usize>())
                .sum::<usize>()
    }

    /// Current virtual time, µs: the frontmost lane clock (lane 0), or 0
    /// before any lane exists. Lanes run independent clocks; per-lane time
    /// is what response times are measured on.
    pub fn now_us(&self) -> u64 {
        self.lanes
            .first()
            .map(|lane| lane.sources.clock().now_us())
            .unwrap_or(0)
    }

    /// Lane 0's source gateway (work counters, clock): the whole engine's
    /// traffic accounting in the single-graph modes.
    ///
    /// # Panics
    ///
    /// For an ATC-CL engine before its lanes exist (lanes are born at the
    /// first flush, once there are queries to cluster) — check
    /// [`Engine::lanes`] first, or use [`Engine::report`], which
    /// aggregates traffic across all lanes without panicking.
    pub fn sources(&self) -> &qsys_source::Sources {
        &self
            .lanes
            .first()
            // lint:allow(panic-path): documented panic (see `# Panics` above) — the fallible path is Engine::report
            .expect("no lanes yet: an ATC-CL engine creates them at the first flush")
            .sources
    }

    /// Cumulative eviction statistics, summed over lanes.
    pub fn eviction_stats(&self) -> EvictionStats {
        let mut total = EvictionStats::default();
        for lane in &self.lanes {
            let s = lane.manager.eviction_stats();
            total.evicted_nodes += s.evicted_nodes;
            total.reclaimed_bytes += s.reclaimed_bytes;
        }
        total
    }

    /// Admit a generated user query at a virtual arrival time, returning
    /// its ticket: the second half of [`Session::submit`], the one way in.
    fn admit(&mut self, uq: UserQuery, arrival_us: u64) -> QueryTicket {
        let ticket = QueryTicket {
            uq: uq.id,
            user: uq.user,
            ledger: Arc::clone(&self.ledger),
        };
        ledger_lock(&self.ledger).slots.entry(uq.id).or_default();
        let admitted = Admitted { uq, arrival_us };
        if self.lanes.is_empty() {
            // ATC-CL before the first flush: hold for clustering.
            self.unrouted.push(admitted);
        } else {
            let lane = self.route(&admitted);
            self.enqueue(lane, admitted);
        }
        ticket
    }

    /// Pick the lane for a query once lanes exist: lane 0 unless ATC-CL,
    /// where late arrivals go to the lane whose cluster footprint they
    /// overlap most (ties to the lowest lane index; a fresh lane when no
    /// footprint overlaps).
    fn route(&mut self, admitted: &Admitted) -> usize {
        if !matches!(self.config.sharing, SharingMode::AtcCl(_)) {
            return 0;
        }
        let refs: BTreeSet<RelId> = admitted
            .uq
            .cqs
            .iter()
            .flat_map(|(cq, _)| cq.rels())
            .collect();
        let (best, overlap) = self
            .lanes
            .iter()
            .enumerate()
            .map(|(idx, lane)| (idx, lane.footprint.intersection(&refs).count()))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .unwrap_or((0, 0));
        if overlap == 0 {
            return self.add_lane();
        }
        best
    }

    /// Append a query to a lane's open admission window, sealing by
    /// arrival window and by batch size.
    fn enqueue(&mut self, lane: usize, admitted: Admitted) {
        let window = self.config.arrival_window_us;
        let batch_size = self.config.batch_size.max(1);
        let grow_footprint = matches!(self.config.sharing, SharingMode::AtcCl(_));
        let lane = &mut self.lanes[lane];
        if let (Some(w), Some(first)) = (window, lane.open.first()) {
            if admitted.arrival_us.saturating_sub(first.arrival_us) > w {
                lane.seal();
            }
        }
        if grow_footprint {
            // Only ATC-CL routing reads the cluster footprint.
            lane.footprint
                .extend(admitted.uq.cqs.iter().flat_map(|(cq, _)| cq.rels()));
        }
        lane.open.push(admitted);
        if lane.open.len() >= batch_size {
            lane.seal();
        }
    }

    /// Seal every open admission window into a dispatchable batch. For
    /// ATC-CL's first flush this is also where lanes are born: everything
    /// admitted so far is clustered (Section 6.1) and routed en masse.
    pub fn flush(&mut self) {
        self.route_unrouted();
        for lane in &mut self.lanes {
            lane.seal();
        }
    }

    /// ATC-CL lane birth: cluster everything still unrouted and route it,
    /// one lane per cluster (windows then seal lane by lane as usual).
    /// No-op once lanes exist — later arrivals route incrementally at
    /// admission.
    fn route_unrouted(&mut self) {
        if self.unrouted.is_empty() {
            return;
        }
        let cluster_cfg = match &self.config.sharing {
            SharingMode::AtcCl(c) => *c,
            _ => unreachable!("only ATC-CL defers routing"),
        };
        let refs: BTreeMap<UqId, Vec<RelId>> = self
            .unrouted
            .iter()
            .map(|a| {
                let rels = a.uq.cqs.iter().flat_map(|(cq, _)| cq.rels()).collect();
                (a.uq.id, rels)
            })
            .collect();
        let mut assignment: HashMap<UqId, usize> = HashMap::new();
        for cluster in qsys_opt::cluster_user_queries(&refs, cluster_cfg) {
            let idx = self.add_lane();
            for uq in cluster {
                assignment.insert(uq, idx);
            }
        }
        for admitted in std::mem::take(&mut self.unrouted) {
            let lane = assignment[&admitted.uq.id];
            self.enqueue(lane, admitted);
        }
        if self.config.verify_phases() {
            for (idx, lane) in self.lanes.iter().enumerate() {
                qsys_verify::verify_lane(&lane.manager)
                    .assert_clean(&format!("post-cluster (lane {idx})"));
            }
        }
    }

    /// Advance the system: execute at most one sealed batch per lane, in
    /// parallel across lanes (capped by [`EngineConfig::lane_threads`]).
    /// Open admission windows are *not* sealed — partial batches keep
    /// waiting for more arrivals until [`Engine::flush`] or
    /// [`Engine::run_until_idle`]. Returns the number of batches executed
    /// (0 = idle).
    ///
    /// An ATC-CL engine defers lane creation until there are queries to
    /// cluster; so that the plain submit/step service loop never stalls,
    /// a step with at least one full window's worth of unclustered
    /// arrivals clusters and routes what has accumulated so far (fewer
    /// than that keeps waiting, exactly like a partial window).
    pub fn step(&mut self) -> usize {
        if self.lanes.is_empty() && self.unrouted.len() >= self.config.batch_size.max(1) {
            self.route_unrouted();
        }
        self.dispatch(false)
    }

    /// Seal everything pending (including ATC-CL's initial clustering) and
    /// drain every lane to completion. Returns the number of batches
    /// executed.
    pub fn run_until_idle(&mut self) -> usize {
        self.flush();
        self.dispatch(true)
    }

    /// Run the full invariant verifier over every lane — its interner
    /// arena and plan graph — regardless of
    /// [`EngineConfig::verify`]. This is the audit entry point used by
    /// `reproduce verify` and the mutation tests; the phase hooks use the
    /// same checks but panic via [`VerifyReport::assert_clean`] instead of
    /// returning.
    pub fn verify(&self) -> VerifyReport {
        let mut violations = Vec::new();
        for (idx, lane) in self.lanes.iter().enumerate() {
            let report = qsys_verify::verify_lane(&lane.manager);
            violations.extend(report.violations.into_iter().map(|mut v| {
                // verify_lane paths start "lane/…" — pin which lane.
                v.path = v.path.replacen("lane", &format!("lane[{idx}]"), 1);
                v
            }));
        }
        VerifyReport::from(violations)
    }

    /// Run sealed batches: one per lane (`drain = false`) or every queued
    /// batch (`drain = true`). Lanes share no mutable state, so lanes with
    /// work run concurrently on scoped worker threads; all published
    /// quantities are per-lane or per-query, keeping results bit-identical
    /// to sequential execution.
    fn dispatch(&mut self, drain: bool) -> usize {
        let cx = BatchCx {
            catalog: &self.catalog,
            config: &self.config,
            ledger: &self.ledger,
        };
        let jobs: Vec<&mut Lane> = self
            .lanes
            .iter_mut()
            .filter(|lane| !lane.ready.is_empty())
            .collect();
        // A lane with work runs its next batch, or all of them on a drain.
        let ran = jobs
            .iter()
            .map(|lane| if drain { lane.ready.len() } else { 1 })
            .sum();
        let threads = self.config.lane_threads.max(1).min(jobs.len());
        if threads <= 1 {
            for lane in jobs {
                lane.run_ready(&cx, drain);
            }
            return ran;
        }

        // Work queue: popping hands one worker exclusive `&mut Lane`
        // access; no ordering is imposed on the workers and none is needed
        // — lanes are fully independent.
        let queue = Mutex::new(jobs.into_iter());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    // The guard drops with this statement: the queue is
                    // locked to pop, never while a lane runs.
                    let next = queue.lock().unwrap_or_else(|e| e.into_inner()).next();
                    match next {
                        Some(lane) => lane.run_ready(&cx, drain),
                        None => break,
                    }
                });
            }
        });
        ran
    }

    /// Whether any admitted query still awaits execution.
    pub fn is_idle(&self) -> bool {
        self.pending() == 0
    }

    /// Drop a completed query's ledger slot — results, report, optimizer
    /// stats. Slots are otherwise retained for the engine's lifetime so
    /// [`Engine::report`] can assemble the full run; a service consuming
    /// an unbounded query stream should forget each query once its
    /// ticket's payload has been collected and accounted for. Returns
    /// whether a slot was dropped: `false`, and nothing changes, for a
    /// query that is unknown or has not resolved yet (its batch still
    /// needs the slot — [`Engine::cancel`] is the way to drop a queued
    /// query). Outstanding tickets for a forgotten query read as
    /// [`TicketStatus::Queued`] again — forget only what you are done
    /// observing.
    pub fn forget(&mut self, uq: UqId) -> bool {
        let mut ledger = ledger_lock(&self.ledger);
        let resolved = ledger.slots.get(&uq).is_some_and(|slot| slot.completed);
        if resolved {
            ledger.slots.remove(&uq);
        }
        resolved
    }

    /// Cancel an admitted query that has not yet executed. Its batch skips
    /// it at dispatch (the ticket resolves to [`QueryOutcome::Cancelled`]
    /// with no results); the other members run normally. Returns `false`
    /// when the query is unknown, already executed, or already cancelled —
    /// cancellation is advisory, never an error.
    pub fn cancel(&mut self, uq: UqId) -> bool {
        let mut ledger = ledger_lock(&self.ledger);
        match ledger.slots.get_mut(&uq) {
            Some(slot) if !slot.completed && !slot.cancelled => {
                slot.cancelled = true;
                true
            }
            _ => false,
        }
    }

    /// Whether a lane was poisoned by a panicking batch (its queries fail
    /// fast; the rest of the engine keeps serving).
    pub fn poisoned_lanes(&self) -> usize {
        self.lanes
            .iter()
            .filter(|lane| lane.poisoned.is_some())
            .count()
    }

    /// Assemble the experiment report from everything executed so far:
    /// per-query lines in UQ order, lane wall times, the virtual-time
    /// breakdown, and total work.
    pub fn report(&self) -> RunReport {
        let mut report = RunReport {
            config: self.config.sharing.label().to_string(),
            lanes: self.lanes.len(),
            lane_threads: self.config.lane_threads.max(1),
            opt_events: self
                .lanes
                .iter()
                .flat_map(|lane| lane.opt_events.iter().copied())
                .collect(),
            lane_wall_us: self.lanes.iter().map(|lane| lane.wall_us).collect(),
            lane_summaries: self
                .lanes
                .iter()
                .enumerate()
                .map(|(idx, lane)| LaneSummary {
                    lane: idx,
                    wall_us: lane.wall_us,
                    tuples_consumed: lane.sources.tuples_consumed(),
                    tuples_streamed: lane.sources.tuples_streamed(),
                    uqs: 0,
                    poisoned: lane.poisoned.is_some(),
                })
                .collect(),
            skipped: self.skipped.clone(),
            ..RunReport::default()
        };
        for lane in &self.lanes {
            let b = lane.sources.clock().breakdown();
            report.breakdown.stream_read_us += b.stream_read_us;
            report.breakdown.random_access_us += b.random_access_us;
            report.breakdown.join_us += b.join_us;
            report.breakdown.optimize_us += b.optimize_us;
            report.tuples_consumed += lane.sources.tuples_consumed();
            report.tuples_streamed += lane.sources.tuples_streamed();
            report.pushdown_joined += lane.sources.pushdown_joined();
            report.stream_rounds += lane.sources.tuples_streamed();
            report.probes += lane.sources.probes();
            report.exec_work.absorb(lane.manager.graph().work());
            report.faults.source.absorb(&lane.governor.snapshot());
        }
        let ledger = ledger_lock(&self.ledger);
        report.per_uq = ledger
            .slots
            .values()
            .filter_map(|slot| slot.report.clone())
            .collect();
        drop(ledger);
        report.per_uq.sort_by_key(|u| u.uq);
        for u in &report.per_uq {
            if let Some(summary) = report.lane_summaries.get_mut(u.lane) {
                summary.uqs += 1;
            }
            match &u.outcome {
                QueryOutcome::Complete => {}
                QueryOutcome::Degraded { .. } => report.faults.degraded += 1,
                QueryOutcome::Failed { .. } => report.faults.failed += 1,
                QueryOutcome::Cancelled => report.faults.cancelled += 1,
                QueryOutcome::DeadlineExceeded => report.faults.deadline_exceeded += 1,
            }
        }
        report
    }

    /// Generate candidate networks for a keyword query, consuming the
    /// engine's UQ/CQ id sequences; the schema-graph search runs at the
    /// first submit of its keywords only.
    fn generate(
        &mut self,
        keywords: &str,
        user: UserId,
        edge_costs: Option<&HashMap<qsys_catalog::EdgeId, f64>>,
    ) -> QsysResult<UserQuery> {
        let generator =
            CandidateGenerator::new(&self.catalog, &self.index, self.config.candidate.clone());
        let uq = UqId::new(self.next_uq);
        self.next_uq += 1;
        self.networks.generate(
            &generator,
            keywords,
            uq,
            user,
            &mut self.next_cq,
            edge_costs,
        )
    }
}

/// A per-user handle for submitting queries to an [`Engine`]. Obtained
/// from [`Engine::session`]; borrows the engine, so interleave submission
/// and stepping through the engine itself. A session may carry the user's
/// learned edge-cost model (Q System scoring, Section 2.1), applied to
/// every query it submits.
pub struct Session<'e> {
    engine: &'e mut Engine,
    user: UserId,
    edge_costs: Option<HashMap<qsys_catalog::EdgeId, f64>>,
}

impl Session<'_> {
    /// The session's user.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// Attach the user's learned per-edge cost overrides: candidate
    /// networks submitted through this session are scored with them.
    pub fn with_edge_costs(mut self, costs: HashMap<qsys_catalog::EdgeId, f64>) -> Self {
        self.edge_costs = Some(costs);
        self
    }

    /// Submit a keyword query arriving at virtual time `arrival_us`:
    /// generate its candidate networks and admit it. Returns a
    /// [`QueryTicket`] immediately — execution happens on a later
    /// [`Engine::step`] / [`Engine::run_until_idle`], once the query's
    /// admission window seals.
    ///
    /// A query whose keywords match no candidate network is recorded as
    /// skipped and reported as an error (a real service answers "no
    /// results" without failing anyone else's batch). An engine whose
    /// config failed validation refuses every query with
    /// [`QsysError::InvalidConfig`], before generating anything.
    pub fn submit(&mut self, keywords: &str, arrival_us: u64) -> QsysResult<QueryTicket> {
        if let Some(refusal) = self.engine.refusal() {
            return Err(refusal);
        }
        match self
            .engine
            .generate(keywords, self.user, self.edge_costs.as_ref())
        {
            Ok(uq) => Ok(self.engine.admit(uq, arrival_us)),
            Err(e) => {
                self.engine.skipped.push(keywords.to_string());
                Err(e)
            }
        }
    }

    /// Submit at the engine's current virtual time (interactive callers
    /// that don't simulate arrivals).
    pub fn submit_now(&mut self, keywords: &str) -> QsysResult<QueryTicket> {
        let now = self.engine.now_us();
        self.submit(keywords, now)
    }

    /// Submit with a virtual-time deadline. A query whose deadline has
    /// passed when its batch dispatches is skipped (no results, outcome
    /// [`QueryOutcome::DeadlineExceeded`]); one that merely *finishes*
    /// past it keeps its results but reports the same outcome — late, not
    /// wrong. Queries without deadlines in the same batch are unaffected.
    pub fn submit_with_deadline(
        &mut self,
        keywords: &str,
        arrival_us: u64,
        deadline_us: u64,
    ) -> QsysResult<QueryTicket> {
        let ticket = self.submit(keywords, arrival_us)?;
        if let Some(slot) = ledger_lock(&self.engine.ledger).slots.get_mut(&ticket.id()) {
            slot.deadline_us = Some(deadline_us);
        }
        Ok(ticket)
    }

    /// Cancel one of this user's tickets — sugar for
    /// [`Engine::cancel`]; same advisory semantics.
    pub fn cancel(&mut self, ticket: &QueryTicket) -> bool {
        self.engine.cancel(ticket.id())
    }
}
