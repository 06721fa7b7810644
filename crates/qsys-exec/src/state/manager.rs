//! The QS manager proper: grafting and lifecycle.

use super::evict::{EvictionPolicy, EvictionStats};
use super::recover;
use crate::access::{AccessModule, ModuleId, RemoteModule, StoredModule};
use crate::mjoin::{JoinPred, MJoin, MJoinInput};
use crate::rank_merge::{CqRegistration, RankMerge, StreamingInput};
use crate::{ExecWork, NodeId, NodeKind, QueryPlanGraph, StreamBacking};
use qsys_opt::cost::ReuseOracle;
use qsys_opt::plan::{PlanSpec, PredSpec, SpecNodeKind};
use qsys_opt::retired::WarmCell;
use qsys_query::{shared_interner, SharedInterner, SigId, SubExprSig};
use qsys_source::{JoinCond, Sources, SpjSpec};
use qsys_types::{Epoch, RelId, UqId};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// What one graft did (reported to the engine for stats and tests).
#[derive(Debug, Default, Clone)]
pub struct GraftOutcome {
    /// User queries whose rank-merge operators were created.
    pub new_uqs: Vec<UqId>,
    /// Graph nodes reused from earlier batches, by signature match.
    pub reused_nodes: usize,
    /// Graph nodes created.
    pub created_nodes: usize,
    /// Recovery queries (`CQ^e`) created by `RecoverState`.
    pub recovery_queries: usize,
    /// The user query behind each recovery query, in creation order (one
    /// entry per recovered CQ plan, so a UQ appears once per recovered
    /// CQ). Lets the serving layer attribute recovery status to the
    /// ticket that triggered it.
    pub recovered_uqs: Vec<UqId>,
    /// The epoch this batch executes in.
    pub epoch: Epoch,
}

/// The query state manager for one plan graph / ATC.
pub struct QsManager {
    graph: QueryPlanGraph,
    /// Rank-merge node per user query.
    rank_merges: BTreeMap<UqId, NodeId>,
    /// The lane's shared signature interner: specs, the reuse index, and
    /// the plan graph all name subexpressions by [`SigId`] through it, so
    /// ids stay stable across batches (the across-time sharing memo).
    interner: SharedInterner,
    /// Pinned subexpressions (protected from eviction; Section 6.1).
    pinned: RefCell<BTreeSet<SigId>>,
    /// Last epoch each node was (re)used in, for LRU eviction.
    last_used: HashMap<NodeId, Epoch>,
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
}

impl QsManager {
    /// A manager with the given memory budget (bytes).
    pub fn new(budget: usize) -> QsManager {
        QsManager {
            graph: QueryPlanGraph::new(),
            interner: shared_interner(),
            rank_merges: BTreeMap::new(),
            pinned: RefCell::new(BTreeSet::new()),
            last_used: HashMap::new(),
            probe_modules: HashMap::new(),
            share_probe_caches: true,
            budget,
            policy: EvictionPolicy::LruSizeTieBreak,
            next_recovery_cq: 0x8000_0000,
            eviction_stats: EvictionStats::default(),
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

    /// Rank-merge node for a user query.
    pub fn rank_merge_of(&self, uq: UqId) -> Option<NodeId> {
        self.rank_merges.get(&uq).copied()
    }

    /// Every registered `UqId → rank-merge` binding, ascending by query
    /// id. Read-only audit access for `qsys-verify`: each binding must
    /// name a live rank-merge node.
    pub fn rank_merge_entries(&self) -> impl Iterator<Item = (UqId, NodeId)> + '_ {
        self.rank_merges.iter().map(|(&uq, &id)| (uq, id))
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

    /// Pin a subexpression against eviction.
    pub fn pin(&self, sig: SigId) {
        self.pinned.borrow_mut().insert(sig);
    }

    /// Release all pins (typically after a batch completes).
    pub fn unpin_all(&self) {
        self.pinned.borrow_mut().clear();
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
    pub fn graft(&mut self, spec: &PlanSpec, sources: &Sources, k: usize) -> GraftOutcome {
        let epoch = self.graph.bump_epoch();
        let mut outcome = GraftOutcome {
            epoch,
            ..GraftOutcome::default()
        };

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
            // A live node is only a merge target while no quarantined
            // stream feeds it: grafting onto a subtree whose source failed
            // would pin the new query to a zero-bound leaf, while a fresh
            // instantiation re-opens the (possibly recovered) source.
            let reusable = self
                .graph
                .find_sig(spec_node.sig)
                .filter(|&id| !self.graph.subtree_quarantined(id));
            let action = if spec_node.share {
                if let Some(id) = reusable {
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
        for plan in &spec.cq_plans {
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
        let mut grafted: HashMap<NodeId, ModuleId> = HashMap::new();
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
            self.last_used.insert(id, epoch);
            node_map[idx] = Some(id);
        }

        // Register each CQ with its user query's rank-merge.
        for plan in &spec.cq_plans {
            let rm_id = match self.rank_merges.get(&plan.uq) {
                Some(id) => *id,
                None => {
                    let rm = RankMerge::new(plan.uq, plan.user, k);
                    let id = self.graph.add_rank_merge(rm);
                    self.rank_merges.insert(plan.uq, id);
                    outcome.new_uqs.push(plan.uq);
                    id
                }
            };
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
                outcome.recovery_queries += 1;
                outcome.recovered_uqs.push(plan.uq);
            }
        }

        self.evict_to_budget();
        outcome
    }

    fn create_stream(&mut self, spec_node: &qsys_opt::plan::SpecNode, sources: &Sources) -> NodeId {
        let spj = sig_to_spj(self.interner.borrow().resolve(spec_node.sig));
        let stream = if spj.atoms.len() == 1 {
            let (rel, sel) = spj.atoms[0].clone();
            sources.open_stream(rel, sel)
        } else {
            sources.open_pushdown(&spj)
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
        preds: &[PredSpec],
        node_map: &[Option<NodeId>],
        epoch: Epoch,
        grafted: &mut HashMap<NodeId, ModuleId>,
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
        let join_preds = preds
            .iter()
            .map(|p| JoinPred {
                left_rel: p.left_rel,
                left_col: p.left_col,
                right_rel: p.right_rel,
                right_col: p.right_col,
            })
            .collect();
        let mj = MJoin::new(mj_inputs, join_preds, self.graph.modules());
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
        grafted: &mut HashMap<NodeId, ModuleId>,
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
    /// cached for reuse until eviction reclaims it.
    pub fn unlink_completed(&mut self) {
        let done: Vec<(UqId, NodeId)> = self
            .rank_merges
            .iter()
            .filter(|(_, id)| self.graph.rank_merge(**id).is_done())
            .map(|(uq, id)| (*uq, *id))
            .collect();
        for (uq, rm_id) in done {
            let parents: Vec<NodeId> = self.graph.node(rm_id).parents.clone();
            for p in parents {
                self.graph.disconnect(p, rm_id);
            }
            self.graph.remove_node(rm_id);
            self.rank_merges.remove(&uq);
        }
    }

    /// Evict detached, unpinned state until the graph fits the budget.
    pub fn evict_to_budget(&mut self) {
        super::evict::evict_to_budget(
            &mut self.graph,
            self.budget,
            self.policy,
            &self.pinned.borrow(),
            &self.last_used,
            &mut self.eviction_stats,
        );
    }

    /// Approximate resident bytes.
    pub fn resident_bytes(&self) -> usize {
        self.graph.approx_bytes()
    }
}

/// Convert a subexpression signature into the wire-level SPJ spec.
pub(crate) fn sig_to_spj(sig: &SubExprSig) -> SpjSpec {
    SpjSpec {
        atoms: sig.atoms.clone(),
        joins: sig
            .joins
            .iter()
            .map(|(lr, lc, rr, rc)| JoinCond {
                left: *lr,
                left_col: *lc,
                right: *rr,
                right_col: *rc,
            })
            .collect(),
    }
}

/// The optimizer-facing reuse oracle over the live graph.
pub struct GraphReuse<'a> {
    manager: &'a QsManager,
}

impl ReuseOracle for GraphReuse<'_> {
    fn streamed(&self, sig: SigId) -> Option<u64> {
        let node = self.manager.graph.find_sig(sig)?;
        // Never advertise quarantined state to the optimizer: the graft
        // below would refuse to merge with it anyway, so a reuse bonus here
        // would steer plans toward state they cannot actually share.
        if self.manager.graph.subtree_quarantined(node) {
            return None;
        }
        self.manager.graph.stored_len(node).map(|n| n as u64)
    }

    fn pin(&self, sig: SigId) {
        self.manager.pin(sig);
    }
}
