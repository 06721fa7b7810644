//! The shadow lane: one execution lane rebuilt in the benchmark from the
//! engine's public pieces, composed exactly as `engine::graft_batch` and
//! `session::run_batch` compose them, with a span around each call.
//!
//! The engine's lanes are private, so this is the only place per-layer host
//! time can be measured from outside the program. It is only a measurement
//! if it is the same computation: every traced run asserts that the shadow
//! lane's tuples consumed, probes, per-query virtual responses and answers
//! equal the engine's.

use crate::digest::digest;
use crate::drive::Answer;
use crate::suite::Instance;
use crate::trace::{Layer, Tracer};
use qsys::exec::{Atc, ExecStats, SourceGovernor};
use qsys::opt::{Optimizer, OptimizerConfig};
use qsys::query::{CandidateGenerator, ConjunctiveQuery, ScoreFn, UserQuery};
use qsys::source::Sources;
use qsys::state::QsManager;
use qsys::types::{Score, SimClock, Tuple, UqId};
use qsys::{EngineConfig, SharingMode};

/// `Sources` counters (all exact).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SourceCounters {
    pub tuples_consumed: u64,
    pub tuples_streamed: u64,
    pub probes: u64,
    pub stream_rounds: u64,
}

impl SourceCounters {
    pub fn of(sources: &Sources) -> SourceCounters {
        SourceCounters {
            tuples_consumed: sources.tuples_consumed(),
            tuples_streamed: sources.tuples_streamed(),
            probes: sources.probes(),
            stream_rounds: sources.stream_rounds(),
        }
    }

    pub fn add(&mut self, other: SourceCounters) {
        self.tuples_consumed += other.tuples_consumed;
        self.tuples_streamed += other.tuples_streamed;
        self.probes += other.probes;
        self.stream_rounds += other.stream_rounds;
    }

    pub fn since(self, earlier: SourceCounters) -> SourceCounters {
        SourceCounters {
            tuples_consumed: self.tuples_consumed - earlier.tuples_consumed,
            tuples_streamed: self.tuples_streamed - earlier.tuples_streamed,
            probes: self.probes - earlier.probes,
            stream_rounds: self.stream_rounds - earlier.stream_rounds,
        }
    }
}

/// Search and reuse counters of one pose, summed over its batches.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCounters {
    pub batches: usize,
    pub cqs_generated: usize,
    pub explored: usize,
    pub memo_hits: usize,
    pub candidates: usize,
    pub warm_hits: usize,
    pub reused_nodes: usize,
    pub recovered_cqs: usize,
    pub rounds: usize,
}

impl LayerCounters {
    pub fn add(&mut self, other: LayerCounters) {
        self.batches += other.batches;
        self.cqs_generated += other.cqs_generated;
        self.explored += other.explored;
        self.memo_hits += other.memo_hits;
        self.candidates += other.candidates;
        self.warm_hits += other.warm_hits;
        self.reused_nodes += other.reused_nodes;
        self.recovered_cqs += other.recovered_cqs;
        self.rounds += other.rounds;
    }
}

pub struct ShadowPose {
    /// Per query, in arrival order.
    pub answers: Vec<Answer>,
    pub sources: SourceCounters,
    pub layers: LayerCounters,
}

pub struct ShadowLane<'w> {
    instance: &'w Instance,
    config: EngineConfig,
    manager: QsManager,
    sources: Sources,
    atc: Atc,
    stats: ExecStats,
    governor: SourceGovernor,
    next_uq: u32,
    next_cq: u32,
}

impl<'w> ShadowLane<'w> {
    /// `Lane::new` for lane 0 of a single-graph engine.
    pub fn new(instance: &'w Instance, config: &EngineConfig) -> ShadowLane<'w> {
        assert!(
            config.sharing == SharingMode::AtcFull && config.faults.is_none(),
            "the shadow lane reproduces the single-graph, fault-free path only"
        );
        ShadowLane {
            instance,
            config: config.clone(),
            manager: QsManager::new(config.memory_budget).with_policy(config.eviction),
            sources: Sources::with_provider(
                SimClock::new(),
                config.cost_profile,
                config.seed,
                instance.workload.tables.provider(),
            ),
            atc: Atc::new(config.scheduling),
            stats: ExecStats::new(),
            governor: SourceGovernor::new(config.retry),
            next_uq: 0,
            next_cq: 0,
        }
    }

    pub fn manager(&self) -> &QsManager {
        &self.manager
    }

    /// Pose the instance's script once, `batch_size` queries at a time.
    /// Opens one root span (`visit`) around the pose.
    /// (Arrival stamps are not an input here: with `arrival_window_us` off
    /// they only label report lines.)
    pub fn pose(&mut self, tracer: &mut Tracer) -> ShadowPose {
        let before = SourceCounters::of(&self.sources);
        let mut layers = LayerCounters::default();
        let mut answers = Vec::with_capacity(self.instance.workload.queries.len());
        let root = tracer.enter("visit", Layer::Session);
        let script = &self.instance.workload;
        let positions: Vec<usize> = (0..script.queries.len()).collect();
        for (batch_no, chunk) in positions.chunks(self.config.batch_size.max(1)).enumerate() {
            tracer.batch = batch_no as u32;
            // `Session::submit`: candidate networks per query, consuming
            // the engine's UQ/CQ id sequences.
            let generator = CandidateGenerator::new(
                &script.catalog,
                &script.index,
                self.config.candidate.clone(),
            );
            let mut batch: Vec<(usize, UserQuery)> = Vec::with_capacity(chunk.len());
            for &pos in chunk {
                let q = &script.queries[pos];
                let span = tracer.enter("query.cqgen", Layer::Query);
                let uq = generator.generate(
                    &q.keywords,
                    UqId::new(self.next_uq),
                    q.user,
                    &mut self.next_cq,
                    q.edge_costs.as_ref(),
                );
                tracer.exit(span);
                self.next_uq += 1;
                let uq = uq.expect("the suite's queries all match candidate networks");
                layers.cqs_generated += uq.cqs.len();
                batch.push((pos, uq));
            }
            self.run_batch(&batch, &mut layers, &mut answers, tracer);
            layers.batches += 1;
        }
        tracer.exit(root);
        ShadowPose {
            answers,
            sources: SourceCounters::of(&self.sources).since(before),
            layers,
        }
    }

    /// `session::run_batch` for ATC-FULL with adaptive, faults and verify
    /// off: submit stamps, `graft_batch`, `Atc::run_governed` unrolled into
    /// its rounds, unpin, harvest, unlink, evict.
    fn run_batch(
        &mut self,
        batch: &[(usize, UserQuery)],
        layers: &mut LayerCounters,
        answers: &mut Vec<Answer>,
        tracer: &mut Tracer,
    ) {
        let submit = self.sources.clock().now_us();
        for (_, uq) in batch {
            self.stats.submit(uq.id, submit);
        }

        let cqs: Vec<(&ConjunctiveQuery, &ScoreFn)> = batch
            .iter()
            .flat_map(|(_, uq)| uq.cqs.iter().map(|(cq, f)| (cq, f)))
            .collect();
        let optimizer = Optimizer::new(
            &self.instance.workload.catalog,
            OptimizerConfig {
                k: self.config.k,
                heuristics: self.config.heuristics.clone(),
                cost_profile: self.config.cost_profile,
                share_subexpressions: true,
                ..OptimizerConfig::default()
            },
        );
        let span = tracer.enter("opt.optimize", Layer::Opt);
        let (spec, opt) = {
            let interner = self.manager.shared_interner();
            let warm = self.config.warm_opt.then(|| self.manager.warm_cell());
            let oracle = self.manager.reuse_oracle();
            optimizer.optimize_warm(
                &cqs,
                &oracle,
                Some(self.sources.clock()),
                &interner,
                warm.as_deref(),
            )
        };
        tracer.exit(span);
        layers.explored += opt.explored;
        layers.memo_hits += opt.memo_hits;
        layers.candidates += opt.candidates;
        layers.warm_hits += opt.warm_hits;

        let span = tracer.enter("state.graft", Layer::State);
        let outcome = self.manager.graft(&spec, &self.sources, self.config.k);
        tracer.exit(span);
        layers.reused_nodes += outcome.reused_nodes;
        layers.recovered_cqs += outcome.recovered_uqs.len();

        let run = tracer.enter("exec.run", Layer::Exec);
        self.governor.begin_batch();
        loop {
            let round = tracer.enter("exec.round", Layer::Exec);
            let progress = self.atc.round(
                self.manager.graph_mut(),
                &self.sources,
                &self.governor,
                &mut self.stats,
            );
            tracer.exit(round);
            if !progress {
                break;
            }
            layers.rounds += 1;
        }
        tracer.exit(run);

        // Publish: what `run_batch` clones into the ledger per ticket.
        let span = tracer.enter("session.harvest", Layer::Session);
        self.manager.unpin_all();
        for (pos, uq) in batch {
            let results: Vec<(Score, Tuple)> = self
                .manager
                .rank_merge_of(uq.id)
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
            let stats = self.stats.uq(uq.id).expect("submitted above");
            answers.push(Answer {
                script_idx: self.instance.order[*pos],
                digest: digest(results.iter().map(|(score, _)| score.get())),
                response_us: stats.response_us().unwrap_or(0),
                complete: stats.missing_rels.is_empty(),
                cqs_generated: uq.cqs.len(),
                cqs_executed: stats.cqs_executed.len(),
            });
        }
        tracer.exit(span);

        let span = tracer.enter("state.unlink", Layer::State);
        self.manager.unlink_completed();
        tracer.exit(span);
        let span = tracer.enter("state.evict", Layer::State);
        self.manager.evict_to_budget();
        tracer.exit(span);
    }
}
