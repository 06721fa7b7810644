//! The QS manager proper: grafting and lifecycle.
//!
//! ### Retained answers
//!
//! Section 6.3 counts "the contents of ranking queues" among the cacheable
//! state, evictable once no query references it. So when
//! [`QsManager::unlink_completed`] removes a finished rank-merge, it keeps
//! the emitted top-k as a retained answer, if
//!
//! - its completion recorded no missing relation (the ATC marks a
//!   rank-merge degraded when one of its relations failed), and
//! - every CQ's whole-query signature names a live graph node.
//!
//! The answer is keyed by the user query's sorted `(whole-query
//! signature, exact score-function identity)` pairs and `k`. A later user
//! query with that key, whose every signature still names a live node no
//! quarantined stream feeds, is not planned onto the graph at all: it
//! gets a rank-merge with no CQ registrations whose pending queue holds
//! the retained results, and the ATC's first service emits them. Its CQ
//! plans are neither grafted nor recovered, so its response is its
//! batch's optimizer charge. Two paths publish:
//!
//! - *At admission.* When every user query of a batch has a retained
//!   answer and every CQ is resident whole, [`QsManager::seal`] answers
//!   the batch before it is planned: no search, no factorization, no
//!   graft. The lane charges what the search would have cost in closed
//!   form (`Optimizer::all_resident`: one state per user query).
//! - *At graft.* In a batch where only some members have an answer,
//!   [`QsManager::graft`] publishes theirs and grafts the rest.
//!
//! Here the engine departs from Algorithm 2, which re-derives every reused
//! CQ's missed results through `RecoverState` (see `recover`): a re-posed
//! query with identical CQs and scoring has nothing left to derive. ATC-CQ
//! never retains (its nodes carry no signature), nor does ATC-UQ
//! (`isolate` forgets every signature), so neither mode needs a check.
//!
//! A retained answer costs a rank-merge's 96 bytes per result. Over
//! budget, retained answers are evicted first, least recently used first,
//! and only then nodes, exactly as without them.

use super::evict::{EvictionPolicy, EvictionStats};
use super::recover;
use crate::access::{AccessModule, ModuleId, RemoteModule, StoredModule};
use crate::mjoin::{MJoin, MJoinInput};
use crate::rank_merge::{CqRegistration, RankMerge, StreamingInput, TopKResult};
use crate::{ExecWork, NodeId, NodeKind, QueryPlanGraph, StreamBacking};
use qsys_opt::cost::ReuseOracle;
use qsys_opt::plan::{PlanSpec, SpecNodeKind};
use qsys_opt::retired::WarmCell;
use qsys_query::{shared_interner, ExactScore, SharedInterner, SigId, UserQuery};
use qsys_source::Sources;
use qsys_types::{CqId, Epoch, JoinCond, RelId, Score, Tuple, UqId, UserId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// What one graft did (reported to the engine for stats and tests). The
/// batch executes in the graph's epoch after it.
#[derive(Debug, Default, Clone)]
pub struct GraftOutcome {
    /// User queries whose rank-merge operators were created.
    pub new_uqs: Vec<UqId>,
    /// Graph nodes reused from earlier batches, by signature match.
    pub reused_nodes: usize,
    /// Graph nodes created.
    pub created_nodes: usize,
    /// The user query behind each recovery query (`CQ^e`) `RecoverState`
    /// created, in creation order: one entry per recovered CQ plan, so a
    /// UQ appears once per recovered CQ and the length is the number of
    /// recovery queries. Lets the serving layer attribute recovery status
    /// to the ticket that triggered it.
    pub recovered_uqs: Vec<UqId>,
    /// User queries that publish a retained answer instead of running:
    /// none of their CQ plans was instantiated, registered or recovered.
    /// Every member of a batch [`QsManager::seal`] answered; graft's are
    /// the members of a mixed batch that had one.
    pub sealed_uqs: Vec<UqId>,
}

/// What a retained answer answers: one user query's conjunctive queries,
/// each as its whole-query signature and its score function's exact
/// identity ([`qsys_query::ScoreFn::exact_key`]), sorted, and `k`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct AnswerKey {
    cqs: Vec<(SigId, ExactScore)>,
    k: usize,
}

/// One retained result: its score, the position in its answer's key of
/// the CQ that produced it, and the tuple.
type RetainedResult = (Score, usize, Tuple);

/// A completed user query's top-k, kept so that an identical re-pose
/// publishes it instead of running: the paper's "contents of ranking
/// queues", cacheable until evicted (Section 6.3).
#[derive(Debug)]
struct RetainedAnswer {
    /// The emitted results in emission order.
    results: Vec<RetainedResult>,
    /// The epoch it was last retained in (LRU order): a published answer
    /// is restamped when its re-pose completes.
    last_used: Epoch,
}

impl RetainedAnswer {
    /// Resident bytes: a rank-merge's rate per result.
    fn bytes(&self) -> usize {
        self.results.len() * 96
    }

    /// Whether this answer already holds `emitted`, each result's CQ at
    /// position `at` of the key: the same score bits, positions and tuple
    /// allocations, in the same order.
    fn holds(&self, emitted: &[TopKResult], at: impl Fn(&TopKResult) -> Option<usize>) -> bool {
        self.results.len() == emitted.len()
            && self
                .results
                .iter()
                .zip(emitted)
                .all(|((score, pos, t), r)| {
                    score.get().to_bits() == r.score.get().to_bits()
                        && Some(*pos) == at(r)
                        && Tuple::ptr_eq(t, &r.tuple)
                })
    }
}

/// A user query's [`AnswerKey`] and its CQ ids in the key's order, from
/// each CQ's whole-query signature, score identity and id.
fn answer_key(mut cqs: Vec<(SigId, ExactScore, CqId)>, k: usize) -> (AnswerKey, Vec<CqId>) {
    cqs.sort();
    let (pairs, ids) = cqs.into_iter().map(|(sig, f, cq)| ((sig, f), cq)).unzip();
    (AnswerKey { cqs: pairs, k }, ids)
}

/// Each user query of `spec` with its [`answer_key`].
fn answer_keys(spec: &PlanSpec, k: usize) -> BTreeMap<UqId, (AnswerKey, Vec<CqId>)> {
    let mut by_uq: BTreeMap<UqId, Vec<_>> = BTreeMap::new();
    for plan in &spec.cq_plans {
        let cq = (plan.sig, plan.score_fn.exact_key(), plan.cq);
        by_uq.entry(plan.uq).or_default().push(cq);
    }
    by_uq
        .into_iter()
        .map(|(uq, cqs)| (uq, answer_key(cqs, k)))
        .collect()
}

/// The query state manager for one plan graph / ATC. The graph is the one
/// record of plan state (a query's rank-merge, a node's LRU stamp and
/// size); the fields below hold only what no graph node does.
pub struct QsManager {
    graph: QueryPlanGraph,
    /// The lane's shared signature interner: specs, the reuse index, and
    /// the plan graph all name subexpressions by [`SigId`] through it, so
    /// ids stay stable across batches (the across-time sharing memo).
    interner: SharedInterner,
    /// Pinned subexpressions (protected from eviction; Section 6.1): every
    /// grafted spec's [`PlanSpec::pins`] since the last
    /// [`QsManager::unpin_all`].
    pinned: BTreeSet<SigId>,
    /// Shared random-access probe caches, one per remote relation: "we
    /// cache tuples from random probes, [so] the rate of probing
    /// decrease[s] over time" (§7.1). Shared across every m-join this
    /// manager grafts (sharing-enabled plans only). The id points into the
    /// graph's module arena; this map holds one arena reference per entry
    /// so the cache outlives any individual consumer.
    probe_modules: HashMap<RelId, ModuleId>,
    /// Whether probe caches are shared at all (ablation knob).
    share_probe_caches: bool,
    /// Memory budget in approximate bytes.
    budget: usize,
    /// Eviction policy.
    policy: EvictionPolicy,
    /// Synthetic id allocator for recovery queries.
    next_recovery_cq: u32,
    /// Cumulative eviction stats.
    eviction_stats: EvictionStats,
    /// Retained answers of completed user queries, by what they answer.
    retained: BTreeMap<AnswerKey, RetainedAnswer>,
    /// Each live rank-merge's answer key and CQ ids (recorded at graft,
    /// taken at unlink).
    live_keys: BTreeMap<UqId, (AnswerKey, Vec<CqId>)>,
}

impl QsManager {
    /// A manager with the given memory budget (bytes).
    pub fn new(budget: usize) -> QsManager {
        QsManager {
            graph: QueryPlanGraph::new(),
            interner: shared_interner(),
            pinned: BTreeSet::new(),
            probe_modules: HashMap::new(),
            share_probe_caches: true,
            budget,
            policy: EvictionPolicy::LruSizeTieBreak,
            next_recovery_cq: 0x8000_0000,
            eviction_stats: EvictionStats::default(),
            retained: BTreeMap::new(),
            live_keys: BTreeMap::new(),
        }
    }

    /// Override the eviction policy (selected per engine config for the
    /// eviction ablation).
    pub fn with_policy(mut self, policy: EvictionPolicy) -> QsManager {
        self.policy = policy;
        self
    }

    /// The active eviction policy.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Disable cross-operator probe-cache sharing (ablation: without
    /// shared caches, a stream fanning out to N consumers re-probes the
    /// same keys N times and sharing loses).
    pub fn with_private_probe_caches(mut self) -> QsManager {
        self.share_probe_caches = false;
        self
    }

    /// The live plan graph.
    pub fn graph(&self) -> &QueryPlanGraph {
        &self.graph
    }

    /// Mutable access for the ATC.
    pub fn graph_mut(&mut self) -> &mut QueryPlanGraph {
        &mut self.graph
    }

    /// The graph's rank-merge for a user query ([`RankMerge::uq`]): a scan
    /// of at most one batch, as retiring unlinks every completed one.
    pub fn rank_merge_of(&self, uq: UqId) -> Option<NodeId> {
        let mut ids = self.graph.rank_merge_ids().iter().copied();
        ids.find(|&id| self.graph.rank_merge(id).uq() == uq)
    }

    /// Every shared probe-cache registration (`RelId → module slot`), in
    /// unspecified order. Each entry holds one arena reference of its own
    /// (released on [`QsManager::isolate`]); `qsys-verify` counts these
    /// alongside graph residency when auditing slot refcounts.
    pub fn probe_module_entries(&self) -> impl Iterator<Item = (RelId, ModuleId)> + '_ {
        self.probe_modules.iter().map(|(&rel, &id)| (rel, id))
    }

    /// A reuse oracle over the live graph for the optimizer.
    pub fn reuse_oracle(&self) -> GraphReuse<'_> {
        GraphReuse { manager: self }
    }

    /// The lane's shared signature interner. Hand this to
    /// [`Optimizer::optimize`](qsys_opt::Optimizer::optimize) so the specs
    /// it produces use the same ids this manager's indexes are keyed on.
    pub fn shared_interner(&self) -> SharedInterner {
        Arc::clone(&self.interner)
    }

    /// The retired optimizer warm store's empty handle, kept because
    /// `perf/`'s shadow lane names it (ROADMAP item 1(b) deletes it). Boxed
    /// because that caller derefs it; a box of a zero-sized type does not
    /// allocate.
    pub fn warm_cell(&self) -> Box<WarmCell> {
        Box::new(WarmCell)
    }

    /// Cumulative eviction statistics.
    pub fn eviction_stats(&self) -> &EvictionStats {
        &self.eviction_stats
    }

    /// Release all pins: the lane calls this once its batch has run, so a
    /// batch's pins hold from its graft to the end of its execution.
    pub fn unpin_all(&mut self) {
        self.pinned.clear();
    }

    /// Make all current state invisible to future grafts: forget signature
    /// mappings and shared probe caches. The ATC-UQ configuration calls
    /// this between user queries so sharing stays within one query.
    pub fn isolate(&mut self) {
        self.graph.clear_sig_index();
        for (_, id) in self.probe_modules.drain() {
            self.graph.modules_mut().release(id);
        }
    }

    /// Graft a plan spec onto the live graph (Section 6.2): bump the epoch,
    /// merge nodes by signature, create what is missing, attach new
    /// consumers of old producers to their output (or prefill a module
    /// with it), register conjunctive queries with their
    /// rank-merges, and run `RecoverState` where streams were already read.
    /// A user query with a live retained answer (module docs) gets a
    /// rank-merge holding that answer instead, and none of its CQ plans is
    /// grafted. The spec's [`PlanSpec::pins`] are pinned before the graft
    /// evicts to its budget.
    pub fn graft(&mut self, spec: &PlanSpec, sources: &Sources, k: usize) -> GraftOutcome {
        let epoch = self.graph.bump_epoch();
        let mut outcome = GraftOutcome::default();
        let mut keys = answer_keys(spec, k);
        let published: BTreeSet<UqId> = keys
            .iter()
            .filter(|(_, (key, _))| self.retained.contains_key(key) && self.publishable(key))
            .map(|(&uq, _)| uq)
            .collect();

        // Map spec node index → graph node, reusing by signature when the
        // spec allows sharing. Reuse is decided *before* anything is
        // created: when a node is merged with existing state, its entire
        // spec input subtree is dead — the existing node already has its
        // own producers — and must not be instantiated. (Creating it would
        // do worse than waste memory: the rank-merge would be registered on
        // orphan leaves that feed nothing, silently losing that CQ's
        // results.)
        enum Planned {
            /// Merge with a node already in the graph.
            Graph(NodeId),
            /// Merge with the node another spec index will create.
            Spec(usize),
            /// Instantiate fresh.
            Create,
        }
        let mut planned: Vec<Planned> = Vec::with_capacity(spec.nodes.len());
        let mut pending: HashMap<SigId, usize> = HashMap::new();
        for (idx, spec_node) in spec.nodes.iter().enumerate() {
            let action = if spec_node.share {
                if let Some(id) = self.graph.reusable(spec_node.sig) {
                    Planned::Graph(id)
                } else if let Some(&first) = pending.get(&spec_node.sig) {
                    Planned::Spec(first)
                } else {
                    pending.insert(spec_node.sig, idx);
                    Planned::Create
                }
            } else {
                Planned::Create
            };
            planned.push(action);
        }
        // Spec nodes are needed only while reachable from a CQ root without
        // crossing a merged node (walk consumers-before-inputs — the spec
        // is topologically ordered).
        let mut needed = vec![false; spec.nodes.len()];
        for plan in spec.cq_plans.iter().filter(|p| !published.contains(&p.uq)) {
            needed[plan.root] = true;
        }
        for idx in (0..spec.nodes.len()).rev() {
            if !needed[idx] {
                continue;
            }
            match &planned[idx] {
                Planned::Spec(first) => needed[*first] = true,
                Planned::Create => {
                    if let SpecNodeKind::Join { inputs, .. } = &spec.nodes[idx].kind {
                        for &input in inputs {
                            needed[input] = true;
                        }
                    }
                }
                Planned::Graph(_) => {}
            }
        }
        let mut node_map: Vec<Option<NodeId>> = vec![None; spec.nodes.len()];
        // The module each producer's new consumers attach to in this graft
        // (see `consumer_module`). Dropped with the graft: nothing is
        // removed before it returns, so no id in it can go stale.
        let mut grafted: BTreeMap<NodeId, ModuleId> = BTreeMap::new();
        for (idx, spec_node) in spec.nodes.iter().enumerate() {
            if !needed[idx] {
                continue;
            }
            let id = match &planned[idx] {
                Planned::Graph(id) => {
                    outcome.reused_nodes += 1;
                    *id
                }
                Planned::Spec(first) => {
                    outcome.reused_nodes += 1;
                    // lint:allow(panic-path): specs are grafted in topological order, so the merge target exists
                    node_map[*first].expect("merge target created earlier")
                }
                Planned::Create => {
                    outcome.created_nodes += 1;
                    match &spec_node.kind {
                        SpecNodeKind::Stream => self.create_stream(spec_node, sources),
                        SpecNodeKind::Join {
                            inputs,
                            probes,
                            preds,
                        } => self.create_mjoin(
                            spec,
                            spec_node,
                            inputs,
                            probes,
                            preds,
                            &node_map,
                            epoch,
                            &mut grafted,
                        ),
                    }
                }
            };
            self.graph.node_mut(id).last_used = epoch;
            node_map[idx] = Some(id);
        }

        // Register each CQ with its user query's rank-merge.
        for plan in &spec.cq_plans {
            let publish = published.contains(&plan.uq);
            let rm_id = match self.rank_merge_of(plan.uq) {
                Some(id) => id,
                None => {
                    let rm = if publish {
                        outcome.sealed_uqs.push(plan.uq);
                        // lint:allow(panic-path): `published` is a subset of `keys`, and a user query's first CQ plan takes its key
                        let key = keys.remove(&plan.uq).expect("each user query has a key");
                        self.retained_rank_merge(plan.uq, plan.user, key)
                    } else {
                        RankMerge::new(plan.uq, plan.user, k)
                    };
                    let id = self.graph.add_rank_merge(rm);
                    outcome.new_uqs.push(plan.uq);
                    id
                }
            };
            if publish {
                continue;
            }
            // lint:allow(panic-path): the optimizer marks every CQ root needed, so its node was created above
            let root = node_map[plan.root].expect("CQ roots are always needed");
            let streaming = self.streaming_inputs(root);
            let reg = CqRegistration {
                cq: plan.cq,
                reports_as: plan.cq,
                score_fn: plan.score_fn.clone(),
                streaming,
                probed: plan.probed.clone(),
            };
            let slot = self.graph.rank_merge_mut(rm_id).register(reg);
            self.graph.connect(root, rm_id, slot);

            // RecoverState: if any state visible to this CQ predates the
            // current epoch, build CQ^e over it.
            let recovered = recover::recover_state(
                &mut self.graph,
                plan,
                root,
                rm_id,
                epoch,
                &mut self.next_recovery_cq,
                &self.interner.borrow(),
            );
            if recovered {
                outcome.recovered_uqs.push(plan.uq);
            }
        }
        self.live_keys.extend(keys);

        self.pinned.extend(spec.pins.iter().copied());
        self.evict_to_budget();
        outcome
    }

    /// Answer a batch from memory, before it is planned, when every user
    /// query of `uqs` has a retained answer under `k` (module docs) and every
    /// one of its conjunctive queries is resident whole. Then no spec is
    /// needed: the epoch is bumped, each query gets its retained rank-merge
    /// in batch order, exactly as [`QsManager::graft`] would publish it, and
    /// the manager evicts to its budget. Otherwise it returns `None` having
    /// changed nothing: at once while nothing is retained, and else at the
    /// first conjunctive query without a resident root or the first user
    /// query without an answer. No signature is interned here: one the lane
    /// never interned names no resident state.
    pub fn seal(&mut self, uqs: &[&UserQuery], k: usize) -> Option<GraftOutcome> {
        if self.retained.is_empty() {
            return None;
        }
        let mut keys = Vec::with_capacity(uqs.len());
        {
            let interner = self.interner.borrow();
            let reuse = self.reuse_oracle();
            for uq in uqs {
                let mut cqs = Vec::with_capacity(uq.cqs.len());
                for (cq, f) in &uq.cqs {
                    let sig = interner.find_cq(cq)?;
                    // The optimizer's all-resident predicate, which makes
                    // `Optimizer::all_resident` this batch's search.
                    reuse.streamed(sig)?;
                    cqs.push((sig, f.exact_key(), cq.id));
                }
                let key = answer_key(cqs, k);
                if !self.retained.contains_key(&key.0) {
                    return None;
                }
                // A streamed signature names a reusable node.
                debug_assert!(self.publishable(&key.0));
                keys.push(key);
            }
        }
        self.graph.bump_epoch();
        let mut outcome = GraftOutcome::default();
        for (uq, key) in uqs.iter().zip(keys) {
            let rm = self.retained_rank_merge(uq.id, uq.user, key);
            self.graph.add_rank_merge(rm);
            outcome.new_uqs.push(uq.id);
            outcome.sealed_uqs.push(uq.id);
        }
        self.evict_to_budget();
        Some(outcome)
    }

    /// A rank-merge for `uq` whose pending queue holds the retained answer
    /// under `key` (its CQ ids in the key's order), with `key` recorded as
    /// `uq`'s live key: what graft and [`QsManager::seal`] publish.
    fn retained_rank_merge(
        &mut self,
        uq: UqId,
        user: UserId,
        (key, cqs): (AnswerKey, Vec<CqId>),
    ) -> RankMerge {
        // lint:allow(panic-path): both callers checked that `key` has a retained answer
        let answer = self.retained.get(&key).expect("retained");
        let results = answer.results.iter();
        let results = results.map(|(score, at, t)| (*score, cqs[*at], t.clone()));
        let rm = RankMerge::retained(uq, user, key.k, results);
        self.live_keys.insert(uq, (key, cqs));
        rm
    }

    /// Whether a retained answer under `key` may be published: every CQ's
    /// whole-query signature still names a live node no quarantined stream
    /// feeds. (An evicted root kills the answer it summarises.)
    fn publishable(&self, key: &AnswerKey) -> bool {
        key.cqs
            .iter()
            .all(|(sig, _)| self.graph.reusable(*sig).is_some())
    }

    fn create_stream(&mut self, spec_node: &qsys_opt::plan::SpecNode, sources: &Sources) -> NodeId {
        let stream = {
            let interner = self.interner.borrow();
            let sig = interner.resolve(spec_node.sig);
            match &sig.atoms[..] {
                [(rel, sel)] => sources.open_stream(*rel, sel.clone()),
                atoms => sources.open_pushdown(atoms, &sig.joins),
            }
        };
        let sig = spec_node.share.then_some(spec_node.sig);
        self.graph.add_stream(StreamBacking::Remote(stream), sig)
    }

    #[allow(clippy::too_many_arguments)]
    fn create_mjoin(
        &mut self,
        spec: &PlanSpec,
        spec_node: &qsys_opt::plan::SpecNode,
        inputs: &[usize],
        probes: &[(RelId, Option<qsys_types::Selection>)],
        preds: &[JoinCond],
        node_map: &[Option<NodeId>],
        epoch: Epoch,
        grafted: &mut BTreeMap<NodeId, ModuleId>,
    ) -> NodeId {
        let mut mj_inputs = Vec::new();
        let mut producer_edges = Vec::new();
        for (slot, &spec_idx) in inputs.iter().enumerate() {
            // lint:allow(panic-path): spec lists are topologically ordered, producers graft before consumers
            let producer = node_map[spec_idx].expect("join inputs precede their consumer");
            // Relation coverage comes from the *spec*, not the graph node:
            // unshared nodes carry no signature.
            let rels = self
                .interner
                .borrow()
                .rels(spec.nodes[spec_idx].sig)
                .to_vec();
            mj_inputs.push(MJoinInput {
                rels,
                module: self.consumer_module(producer, epoch, grafted),
                epoch_cap: None,
                store_arrivals: true,
                selection: None,
            });
            producer_edges.push((producer, slot));
        }
        for (rel, sel) in probes {
            // Sharing-enabled plans share one probe cache per relation
            // across the whole graph; the ATC-CQ baseline gets private
            // modules (no sharing of any state). The map holds its own
            // arena reference; each consuming input retains one more.
            let module = if spec_node.share && self.share_probe_caches {
                let modules = self.graph.modules_mut();
                let id = match self.probe_modules.get(rel) {
                    Some(id) => *id,
                    None => {
                        let id = modules.alloc(AccessModule::Remote(RemoteModule::new(*rel)));
                        self.probe_modules.insert(*rel, id);
                        id
                    }
                };
                modules.retain(id)
            } else {
                self.graph
                    .modules_mut()
                    .alloc(AccessModule::Remote(RemoteModule::new(*rel)))
            };
            mj_inputs.push(MJoinInput {
                rels: vec![*rel],
                module,
                epoch_cap: None,
                store_arrivals: false,
                selection: sel.clone(),
            });
        }
        let mj = MJoin::new(mj_inputs, preds.to_vec(), self.graph.modules());
        let sig = spec_node.share.then_some(spec_node.sig);
        let id = self.graph.add_mjoin(mj, sig);
        for (producer, slot) in producer_edges {
            self.graph.connect(producer, id, slot);
        }
        id
    }

    /// The stored module a new consumer input of `producer` stores into,
    /// with one arena reference taken for it. It must hold exactly what a
    /// private module prefilled with the producer's pre-epoch history
    /// would (`recover` module docs: attach or prefill). A stream leaf's
    /// own module always does. An m-join producer's live module — found
    /// through its m-join consumers — is attached only when that is
    /// certain: when this graft created it, or when it is empty.
    /// Otherwise — its older consumers hold its outputs in *emission*
    /// order, while its history comes back in *reconstruction* order — a
    /// fresh module is prefilled, and the rest of the graft attaches to
    /// that one.
    fn consumer_module(
        &mut self,
        producer: NodeId,
        epoch: Epoch,
        grafted: &mut BTreeMap<NodeId, ModuleId>,
    ) -> ModuleId {
        let attach = match &self.graph.node(producer).kind {
            NodeKind::Stream(leaf) => Some(leaf.module),
            _ => grafted
                .get(&producer)
                .copied()
                .or_else(|| self.empty_live_module(producer)),
        };
        let id = match attach {
            Some(live) => {
                self.graph.work_mut().inputs_attached += 1;
                self.graph.modules_mut().retain(live)
            }
            None => {
                let mut replayed = ExecWork {
                    inputs_prefilled: 1,
                    ..ExecWork::default()
                };
                let mut module = StoredModule::new([]);
                for (tuple, tuple_epoch) in
                    recover::node_history(&self.graph, producer, epoch, &mut replayed)
                {
                    module.push(tuple, tuple_epoch);
                }
                self.graph.work_mut().absorb(&replayed);
                self.graph.modules_mut().alloc(AccessModule::Stored(module))
            }
        };
        grafted.insert(producer, id);
        id
    }

    /// The stored module `producer`'s m-join consumers store its output
    /// in, if it is still empty.
    fn empty_live_module(&self, producer: NodeId) -> Option<ModuleId> {
        let live = self
            .graph
            .node(producer)
            .children
            .iter()
            .find_map(|&(child, slot)| {
                let NodeKind::MJoin(mj) = &self.graph.node(child).kind else {
                    return None;
                };
                let input = mj.inputs().get(slot).filter(|i| i.store_arrivals)?;
                Some(input.module)
            })?;
        let module = self.graph.modules().module(live)?.borrow();
        module.as_stored()?.is_empty().then_some(live)
    }

    /// Rank-merge streaming registrations for a CQ: its leaf stream nodes
    /// with coverage and all-time max bounds.
    ///
    /// Resolved against the *graph*, not the spec: the CQ's root (or any
    /// node under it) may have been merged by signature with an existing
    /// node — a pushed-down stream or an earlier batch's m-join — whose
    /// upstream structure differs from what the spec planned. Threshold
    /// maintenance needs the stream leaves actually feeding the root.
    fn streaming_inputs(&self, root: NodeId) -> Vec<StreamingInput> {
        let mut leaves = BTreeSet::new();
        self.resolve_stream_leaves(root, &mut leaves);
        leaves
            .into_iter()
            .map(|node| {
                let leaf = self.graph.stream_leaf(node);
                StreamingInput {
                    node,
                    rels: leaf.rels(),
                    max_bound: leaf.initial_bound,
                }
            })
            .collect()
    }

    fn resolve_stream_leaves(&self, node: NodeId, out: &mut BTreeSet<NodeId>) {
        match &self.graph.node(node).kind {
            NodeKind::Stream(_) => {
                out.insert(node);
            }
            _ => {
                for p in self.graph.node(node).parents.clone() {
                    self.resolve_stream_leaves(p, out);
                }
            }
        }
    }

    /// Section 6.3: unlink user queries that have finished. The rank-merge
    /// node is removed (its results live on in the engine's ledger); the
    /// upstream operators are *detached but retained* — their state stays
    /// cached for reuse until eviction reclaims it — and so is its top-k,
    /// as a retained answer, when the module docs' rule allows.
    /// Taken in user-query order: of two with one answer key, the later
    /// query's top-k is retained.
    pub fn unlink_completed(&mut self) {
        let mut done: Vec<(UqId, NodeId)> = self
            .graph
            .rank_merge_ids()
            .iter()
            .map(|&id| (self.graph.rank_merge(id), id))
            .filter(|(rm, _)| rm.is_done())
            .map(|(rm, id)| (rm.uq(), id))
            .collect();
        done.sort_unstable();
        for (uq, rm_id) in done {
            self.retain_answer(uq, rm_id);
            let parents: Vec<NodeId> = self.graph.node(rm_id).parents.clone();
            for p in parents {
                self.graph.disconnect(p, rm_id);
            }
            self.graph.remove_node(rm_id);
        }
    }

    /// Keep completed rank-merge `rm_id`'s top-k for `uq`'s key, unless its
    /// completion lost a relation or some CQ's whole-query signature no
    /// longer names a live node (never under ATC-CQ, whose roots carry no
    /// signature, nor under ATC-UQ, whose `isolate` forgets them).
    fn retain_answer(&mut self, uq: UqId, rm_id: NodeId) {
        let Some((key, cqs)) = self.live_keys.remove(&uq) else {
            return;
        };
        let rm = self.graph.rank_merge(rm_id);
        let resident = key
            .cqs
            .iter()
            .all(|(sig, _)| self.graph.find_sig(*sig).is_some());
        if rm.is_degraded() || !resident {
            return;
        }
        let at = |r: &TopKResult| cqs.iter().position(|&cq| cq == r.cq);
        let last_used = self.graph.epoch();
        if let Some(answer) = self.retained.get_mut(&key) {
            // A published answer completes with the results it was
            // published with: restamp it rather than rebuild it.
            if answer.holds(rm.results(), at) {
                answer.last_used = last_used;
                return;
            }
        }
        let results = rm
            .results()
            .iter()
            .map(|r| Some((r.score, at(r)?, r.tuple.clone())));
        if let Some(results) = results.collect() {
            self.retained
                .insert(key, RetainedAnswer { results, last_used });
        }
    }

    /// Number of retained answers.
    #[cfg(test)]
    pub(crate) fn retained_len(&self) -> usize {
        self.retained.len()
    }

    /// Each retained answer's LRU stamp and results, in key order.
    #[cfg(test)]
    pub(crate) fn retained_answers(&self) -> Vec<(Epoch, &[RetainedResult])> {
        let answers = self.retained.values();
        answers
            .map(|a| (a.last_used, a.results.as_slice()))
            .collect()
    }

    /// Bytes held by retained answers.
    fn retained_bytes(&self) -> usize {
        self.retained.values().map(RetainedAnswer::bytes).sum()
    }

    /// Fit the budget: retained answers go first, least recently used first
    /// (ties in key order), then detached, unpinned nodes exactly as without
    /// them — nodes are evicted only once every answer is gone. An
    /// unbounded manager (budget `usize::MAX`) returns without reading any
    /// state's size.
    pub fn evict_to_budget(&mut self) {
        if self.budget == usize::MAX {
            // Unbounded (Section 7's setup): nothing to enforce, so nothing
            // to measure.
            return;
        }
        let graph_bytes = self.graph.approx_bytes();
        let mut retained = self.retained_bytes();
        while graph_bytes + retained > self.budget {
            let lru = self.retained.iter().min_by_key(|(_, a)| a.last_used);
            let Some(key) = lru.map(|(key, _)| key.clone()) else {
                break;
            };
            retained -= self.retained.remove(&key).map_or(0, |a| a.bytes());
        }
        super::evict::evict_to_budget(
            &mut self.graph,
            graph_bytes,
            self.budget - retained,
            self.policy,
            &self.pinned,
            &mut self.eviction_stats,
        );
    }

    /// Approximate resident bytes: the plan graph's operator state and the
    /// retained answers.
    pub fn resident_bytes(&self) -> usize {
        self.graph.approx_bytes() + self.retained_bytes()
    }
}

/// The optimizer-facing reuse oracle over the live graph.
pub struct GraphReuse<'a> {
    manager: &'a QsManager,
}

impl ReuseOracle for GraphReuse<'_> {
    fn streamed(&self, sig: SigId) -> Option<u64> {
        // Graft merges only with reusable state, so a reuse bonus for
        // anything else would steer plans toward state they cannot share.
        let node = self.manager.graph.reusable(sig)?;
        self.manager.graph.stored_len(node).map(|n| n as u64)
    }
}
