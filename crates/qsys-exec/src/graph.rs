//! The query plan graph.
//!
//! A graph-structured (not tree-structured) plan in which "a given query
//! subexpression may produce answers whose results must be fed into multiple
//! downstream operators belonging to different queries" (Section 2.2).
//! Nodes live in an arena; edges carry the consumer's input index. The QS
//! manager grafts into and prunes out of this structure between query
//! batches, so insertion and removal never invalidate other nodes.

use crate::access::{AccessModule, AccessModuleArena, StoredModule};
use crate::govern::SourceGovernor;
use crate::mjoin::{JoinCx, JoinSink, Uncovered};
use crate::node::{Node, NodeId, NodeKind, StreamBacking, StreamLeaf};
use crate::rank_merge::{Accepted, RankMerge};
use crate::stats::ExecWork;
use qsys_query::SigId;
use qsys_source::{SourceError, Sources};
use qsys_types::clock::{HASH_OP_US, ROUTE_US};
use qsys_types::{Epoch, FxHashMap, TimeCategory, Tuple};
use std::cell::Ref;
use std::collections::{HashSet, VecDeque};
use std::mem;

/// Outcome of one governed stream read.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StreamRead {
    /// A tuple was delivered and routed.
    Delivered,
    /// The stream has nothing left (or is already quarantined).
    Exhausted,
    /// The fetch gave up past its retry budget; the leaf is now
    /// quarantined and its bound reads as zero.
    Failed(SourceError),
}

/// The executable plan graph for one ATC.
#[derive(Debug, Default)]
pub struct QueryPlanGraph {
    nodes: Vec<Option<Node>>,
    /// Number of `Some` slots in `nodes`.
    live: usize,
    /// Every stream leaf's [`StreamLeaf::effective_bound`], indexed by
    /// [`NodeId::index`]; `0.0` for non-stream and removed slots. Written
    /// in place wherever a bound can change (stream creation, every read,
    /// quarantine, removal), so the threshold machinery reads a slice
    /// instead of rescanning the arena per tuple.
    bounds: Vec<f64>,
    /// Bumped whenever a slot of `bounds` is written with a different bit
    /// pattern: equal generations mean a bit-identical table, which is
    /// what lets a rank-merge keep its thresholds and skip a maintenance
    /// cycle (see the `rank_merge` module docs).
    bounds_gen: u64,
    /// Ids of the live rank-merge nodes, ascending. Operators that are
    /// done stay listed until the QS manager removes them: the ATC's
    /// round-robin offset is taken modulo this list's length.
    rank_merges: Vec<NodeId>,
    /// Routing queue storage, kept between reads so a tuple's trip through
    /// the graph allocates nothing once the queue has grown.
    route_queue: VecDeque<Routed>,
    /// Where an m-join on the route leaves its complete results; drained
    /// into `route_queue` after every insert, kept for its capacity.
    route_out: Vec<Tuple>,
    /// Per consumer edge of the m-join being judged, its rejection cut and
    /// bound factor ([`Judged::bound_partials`]); kept for its capacity.
    route_cuts: Vec<(f64, f64)>,
    /// What routing has done so far, counted as it happens.
    work: ExecWork,
    epoch: Epoch,
    /// Reuse index: interned subexpression signature → the node computing
    /// it. Keyed on [`SigId`], so lookups hash one `u32`.
    sig_index: FxHashMap<SigId, NodeId>,
    /// Number of live quarantined stream leaves. While it is zero no
    /// subtree can be quarantined, so [`QueryPlanGraph::subtree_quarantined`]
    /// answers without walking: a fault-free run never walks at all.
    quarantined_leaves: usize,
    /// The lane's access modules: every m-join input names its hash table
    /// or probe cache by [`ModuleId`](crate::access::ModuleId) into this
    /// arena. Owning it here (rather than `Rc`-sharing modules) is what
    /// makes the whole graph — and the lane around it — `Send`.
    modules: AccessModuleArena,
    /// Tests only: build and deliver every complete result, as if no
    /// rank-merge ever rejected one early — the reference the early
    /// rejection is compared against. Implies `unbounded`.
    #[cfg(test)]
    build_all: bool,
    /// Tests only: probe with every partial result, as if no rank-merge
    /// ever bounded one out — the reference score-bounded probing is
    /// compared against, and the setting under which the rejection of
    /// complete results is checked against `build_all`.
    #[cfg(test)]
    unbounded: bool,
    /// Tests only: the virtual clock as read at every m-join insert of
    /// the routing loop — the only places inside a routing pass where
    /// anything (the governor's breaker, the fault injector) reads it.
    #[cfg(test)]
    insert_clock: Vec<u64>,
}

/// One entry of the routing queue.
#[derive(Debug)]
enum Routed {
    /// A tuple on its way into input `.1` of node `.0`.
    Tuple(NodeId, usize, Tuple),
    /// `n` complete results that every sink of the m-join `from` rejected
    /// unbuilt. Queued where the built results' entries are, so that the
    /// hop charge of every consumer edge they would have crossed is paid
    /// where those entries would have been popped: their sinks are all
    /// rank-merges, which never read the clock, so one aggregated charge
    /// leaves every clock read as it was.
    Unbuilt { from: NodeId, n: u64 },
}

impl QueryPlanGraph {
    /// An empty graph at epoch 0.
    pub fn new() -> QueryPlanGraph {
        QueryPlanGraph::default()
    }

    /// The current epoch (logical timestamp of the latest graft).
    pub(crate) fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The lane's access-module arena.
    pub fn modules(&self) -> &AccessModuleArena {
        &self.modules
    }

    /// Mutable arena access (the QS manager allocates modules at graft).
    pub fn modules_mut(&mut self) -> &mut AccessModuleArena {
        &mut self.modules
    }

    /// Increment the epoch; called by the QS manager whenever it provides a
    /// new set of queries to the ATC (Section 6.2).
    pub(crate) fn bump_epoch(&mut self) -> Epoch {
        self.epoch = self.epoch.next();
        self.epoch
    }

    fn add_node(&mut self, kind: NodeKind, sig: Option<SigId>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        if let Some(s) = sig {
            // First registration wins: a node carrying a signature the
            // index already maps (a fresh instantiation beside a
            // quarantined subtree, say) does not take the entry.
            self.sig_index.entry(s).or_insert(id);
        }
        let bound = match &kind {
            NodeKind::Stream(leaf) => leaf.effective_bound(),
            _ => 0.0,
        };
        if matches!(kind, NodeKind::RankMerge(_)) {
            // Ids only grow, so appending keeps the list ascending.
            self.rank_merges.push(id);
        }
        // A slot past the table's end reads as 0.0 already.
        self.bounds.push(0.0);
        self.set_bound(id, bound);
        self.live += 1;
        self.nodes.push(Some(Node {
            id,
            kind,
            children: Vec::new(),
            parents: Vec::new(),
            sig,
            last_used: Epoch::ZERO,
        }));
        id
    }

    /// Add a stream leaf computing `sig`, with an empty stored module of
    /// its own for what it will deliver ([`StreamLeaf::module`]).
    pub fn add_stream(&mut self, backing: StreamBacking, sig: Option<SigId>) -> NodeId {
        let module = self
            .modules
            .alloc(AccessModule::Stored(StoredModule::default()));
        self.add_node(NodeKind::Stream(StreamLeaf::new(backing, module)), sig)
    }

    /// The stream leaf at `id`.
    pub fn stream_leaf(&self, id: NodeId) -> &StreamLeaf {
        match &self.node(id).kind {
            NodeKind::Stream(leaf) => leaf,
            other => panic!("{id} is a {}, not a stream", other.label()),
        }
    }

    /// The stored module stream leaf `id` delivers into: every tuple it
    /// has read, with the epoch it was read in, in delivery order.
    pub(crate) fn stream_module(&self, id: NodeId) -> Ref<'_, StoredModule> {
        let id = self.stream_leaf(id).module;
        // lint:allow(panic-path): add_stream gives every leaf a stored module it holds until remove_node
        let module = self.modules.module(id).expect("live");
        // lint:allow(panic-path): as above
        Ref::map(module.borrow(), |m| m.as_stored().expect("stored"))
    }

    /// How many tuples node `id` keeps stored: a stream leaf's module, or
    /// an m-join's first stored input module; `None` for a removed node,
    /// a rank-merge, or an m-join that stores nothing.
    pub(crate) fn stored_len(&self, id: NodeId) -> Option<usize> {
        let len = |module| Some(self.modules.module(module)?.borrow().as_stored()?.len());
        match &self.try_node(id)?.kind {
            NodeKind::Stream(leaf) => len(leaf.module),
            NodeKind::MJoin(mj) => mj.inputs().iter().find_map(|i| len(i.module)),
            NodeKind::RankMerge(_) => None,
        }
    }

    /// Add an m-join computing `sig`.
    pub fn add_mjoin(&mut self, mjoin: crate::mjoin::MJoin, sig: Option<SigId>) -> NodeId {
        self.add_node(NodeKind::MJoin(mjoin), sig)
    }

    /// Add a rank-merge operator.
    pub(crate) fn add_rank_merge(&mut self, rm: RankMerge) -> NodeId {
        self.add_node(NodeKind::RankMerge(rm), None)
    }

    /// Wire `parent`'s output into `child`'s input `input_idx`.
    pub fn connect(&mut self, parent: NodeId, child: NodeId, input_idx: usize) {
        let p = self.node_mut(parent);
        if !p.children.contains(&(child, input_idx)) {
            p.children.push((child, input_idx));
        }
        let c = self.node_mut(child);
        if !c.parents.contains(&parent) {
            c.parents.push(parent);
        }
    }

    /// Remove the edge between `parent` and `child` (all input slots).
    pub(crate) fn disconnect(&mut self, parent: NodeId, child: NodeId) {
        self.node_mut(parent).children.retain(|(c, _)| *c != child);
        self.node_mut(child).parents.retain(|p| *p != parent);
    }

    /// Remove a node entirely. The caller (QS manager) must have
    /// disconnected it; panics if edges remain. A stream leaf and each of
    /// an m-join's inputs drop their arena reference, so modules shared
    /// with nothing else (and their hash-table state) are reclaimed here.
    pub(crate) fn remove_node(&mut self, id: NodeId) {
        let node = self.nodes[id.index()]
            .take()
            // lint:allow(panic-path): double-remove is graph corruption, not a recoverable miss
            .expect("removing a node twice");
        assert!(
            node.children.is_empty() && node.parents.is_empty(),
            "disconnect before removing {id}"
        );
        if let Some(sig) = node.sig {
            if self.sig_index.get(&sig) == Some(&id) {
                self.sig_index.remove(&sig);
            }
        }
        self.live -= 1;
        match &node.kind {
            NodeKind::MJoin(mj) => {
                for input in mj.inputs() {
                    self.modules.release(input.module);
                }
            }
            NodeKind::Stream(leaf) => {
                self.modules.release(leaf.module);
                self.set_bound(id, 0.0);
                self.quarantined_leaves -= usize::from(leaf.quarantined);
            }
            NodeKind::RankMerge(_) => self.rank_merges.retain(|rm| *rm != id),
        }
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &Node {
        // lint:allow(panic-path): callers hold ids from this graph; a dead id is corruption — try_node is the fallible twin
        self.nodes[id.index()].as_ref().expect("live node")
    }

    /// Node access that tolerates removed nodes.
    pub fn try_node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index()).and_then(|n| n.as_ref())
    }

    /// Mutable node access. Changing a stream leaf's `backing` or
    /// `quarantined` through this bypasses the bound table
    /// ([`QueryPlanGraph::bound_table`]) and the quarantine count; read through
    /// [`QueryPlanGraph::read_stream_governed`] and quarantine through
    /// [`QueryPlanGraph::quarantine_stream`] instead.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        // lint:allow(panic-path): same contract as node() — a dead id is corruption
        self.nodes[id.index()].as_mut().expect("live node")
    }

    /// All live node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().flatten().map(|n| n.id)
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the graph has no live nodes.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The node currently computing `sig`, if any (the reuse index the
    /// optimizer consults: "it determines what query expressions can be
    /// reused from in-memory buffers", Section 3).
    pub(crate) fn find_sig(&self, sig: SigId) -> Option<NodeId> {
        self.sig_index.get(&sig).copied()
    }

    /// The node computing `sig`, if one does and no quarantined stream
    /// feeds it: the one rule for reusing live state. Graft merges only
    /// with such a node, a retained answer is published only while every
    /// root it summarises is one, and the reuse oracle advertises nothing
    /// else to the optimizer. A subtree fed by a failed source would pin
    /// every new consumer to the dead leaf's zero bound, whereas a fresh
    /// stream gives the (possibly recovered) source another chance.
    pub(crate) fn reusable(&self, sig: SigId) -> Option<NodeId> {
        self.find_sig(sig)
            .filter(|&id| !self.subtree_quarantined(id))
    }

    /// Whether `id` or any producer upstream of it is a quarantined stream
    /// leaf. Free while the graph holds no quarantined leaf; a walk
    /// upstream otherwise.
    pub fn subtree_quarantined(&self, id: NodeId) -> bool {
        if self.quarantined_leaves == 0 {
            debug_assert!(!self.walk_quarantined(id), "uncounted quarantine");
            return false;
        }
        self.walk_quarantined(id)
    }

    /// [`QueryPlanGraph::subtree_quarantined`] by walking every producer
    /// upstream of `id`.
    fn walk_quarantined(&self, id: NodeId) -> bool {
        let mut stack = vec![id];
        // lint:allow(hot-hash): graft-time walk (per batch), never per tuple
        let mut seen: HashSet<NodeId> = HashSet::new();
        while let Some(nid) = stack.pop() {
            if !seen.insert(nid) {
                continue;
            }
            let Some(node) = self.try_node(nid) else {
                continue;
            };
            if let NodeKind::Stream(leaf) = &node.kind {
                if leaf.quarantined {
                    return true;
                }
            }
            stack.extend(node.parents.iter().copied());
        }
        false
    }

    /// Forget every signature mapping, making existing state invisible to
    /// future grafts. The ATC-UQ configuration uses this to confine sharing
    /// to a single user query.
    pub(crate) fn clear_sig_index(&mut self) {
        self.sig_index.clear();
    }

    /// Every reuse-index entry, in unspecified order. Read-only audit
    /// access for `qsys-verify`: each entry must name a live node that
    /// actually carries that signature.
    pub fn sig_entries(&self) -> impl Iterator<Item = (SigId, NodeId)> + '_ {
        self.sig_index.iter().map(|(&sig, &id)| (sig, id))
    }

    /// Ids of all rank-merge nodes, ascending (done operators included
    /// until they are removed).
    pub fn rank_merge_ids(&self) -> &[NodeId] {
        &self.rank_merges
    }

    /// Mutable access to a rank-merge operator.
    pub(crate) fn rank_merge_mut(&mut self, id: NodeId) -> &mut RankMerge {
        match &mut self.node_mut(id).kind {
            NodeKind::RankMerge(rm) => rm,
            other => panic!("{id} is a {}, not a rank-merge", other.label()),
        }
    }

    /// Immutable access to a rank-merge operator.
    pub fn rank_merge(&self, id: NodeId) -> &RankMerge {
        match &self.node(id).kind {
            NodeKind::RankMerge(rm) => rm,
            other => panic!("{id} is a {}, not a rank-merge", other.label()),
        }
    }

    /// Current raw-product bound of every stream leaf, indexed by
    /// [`NodeId::index`]: zero for quarantined and exhausted leaves (so the
    /// threshold machinery drains around them) and for every slot that is
    /// not a live stream.
    pub fn bound_table(&self) -> &[f64] {
        &self.bounds
    }

    /// Write stream `id`'s slot of the bound table, bumping the table's
    /// generation if the bits change.
    fn set_bound(&mut self, id: NodeId, bound: f64) {
        let slot = &mut self.bounds[id.index()];
        if slot.to_bits() != bound.to_bits() {
            *slot = bound;
            self.bounds_gen += 1;
        }
    }

    /// Rank-merge `id` beside the live bound table and its generation
    /// (split borrow: the operator is mutated, the table only read).
    fn rank_merge_over_bounds(&mut self, id: NodeId) -> (&mut RankMerge, &[f64], u64) {
        // lint:allow(panic-path): same contract as node() — a dead id is corruption
        match &mut self.nodes[id.index()].as_mut().expect("live node").kind {
            NodeKind::RankMerge(rm) => (rm, &self.bounds, self.bounds_gen),
            other => panic!("{id} is a {}, not a rank-merge", other.label()),
        }
    }

    /// Run rank-merge `id`'s maintenance cycle against the live bound
    /// table; returns the number of results emitted (0 for a cycle the
    /// operator skipped because nothing it reads had changed).
    pub(crate) fn maintain_rank_merge(&mut self, id: NodeId, now_us: u64) -> usize {
        let (rm, bounds, generation) = self.rank_merge_over_bounds(id);
        let emitted = rm.maintain(bounds, generation, now_us);
        self.work.maintains += 1;
        self.work.maintains_skipped += u64::from(emitted.is_none());
        emitted.unwrap_or(0)
    }

    /// The stream rank-merge `id` wants read next, under the live bound
    /// table.
    pub fn choose_read(&mut self, id: NodeId) -> Option<NodeId> {
        let (rm, bounds, generation) = self.rank_merge_over_bounds(id);
        rm.choose_read(bounds, generation)
    }

    /// Rank-merge `id`'s overall threshold under the live bound table.
    pub(crate) fn overall_threshold(&mut self, id: NodeId) -> f64 {
        let (rm, bounds, generation) = self.rank_merge_over_bounds(id);
        rm.overall_threshold(bounds, generation)
    }

    fn stream_leaf_mut(&mut self, id: NodeId) -> &mut StreamLeaf {
        match &mut self.node_mut(id).kind {
            NodeKind::Stream(leaf) => leaf,
            other => panic!("{id} is a {}, not a stream", other.label()),
        }
    }

    /// Quarantine the stream leaf `id`: its bound reads as zero from now
    /// on and grafting stops reusing the subtree it feeds.
    pub fn quarantine_stream(&mut self, id: NodeId) {
        let leaf = self.stream_leaf_mut(id);
        let newly = !mem::replace(&mut leaf.quarantined, true);
        self.quarantined_leaves += usize::from(newly);
        self.set_bound(id, 0.0);
    }

    /// Read one tuple from the stream leaf `id`, store it in the leaf's
    /// module (uncharged, stamped with the current epoch) and route it
    /// through the graph. The fetch goes through the governor's
    /// retry/breaker loop (bypassed when no faults are configured); on
    /// a fetch that gives up, quarantine the leaf (bound drops to zero, the
    /// failure is recorded against the batch) and report
    /// [`StreamRead::Failed`].
    /// Downstream joins of a delivered tuple probe through the governor
    /// too.
    pub fn read_stream_governed(
        &mut self,
        id: NodeId,
        sources: &Sources,
        governor: &SourceGovernor,
    ) -> StreamRead {
        let epoch = self.epoch;
        let leaf = self.stream_leaf_mut(id);
        if leaf.quarantined {
            return StreamRead::Exhausted;
        }
        let read = match &mut leaf.backing {
            StreamBacking::Remote(s) => governor.read_stream(sources, s),
            StreamBacking::Replay { tuples, pos } => {
                let t = tuples.get(*pos).cloned();
                if t.is_some() {
                    *pos += 1;
                    // In-memory replay: cheap, no network.
                    sources.clock().charge(TimeCategory::Join, HASH_OP_US);
                }
                Ok(t)
            }
        };
        let tuple = match read {
            Ok(tuple) => {
                let (module, bound) = (leaf.module, leaf.effective_bound());
                self.set_bound(id, bound);
                if let (Some(t), Some(cell)) = (&tuple, self.modules.module(module)) {
                    if let AccessModule::Stored(s) = &mut *cell.borrow_mut() {
                        s.push(t.clone(), epoch);
                    }
                }
                tuple
            }
            Err(e) => {
                self.quarantine_stream(id);
                // Blame the relation named by the error, not the leaf's
                // whole rel set: a pushdown leaf over {A, B} dying because
                // B is faulted must not mark A failed for queries reading A
                // through healthy leaves. Every consumer of this leaf reads
                // `e.rel()` too, so they still degrade.
                governor.note_quarantined(&[e.rel()]);
                return StreamRead::Failed(e);
            }
        };
        let Some(tuple) = tuple else {
            return StreamRead::Exhausted;
        };
        self.route_from(id, tuple, sources, governor);
        StreamRead::Delivered
    }

    /// Per-tuple work counted by the routing loop since this graph was
    /// created (a lane keeps one graph for life).
    pub fn work(&self) -> &ExecWork {
        &self.work
    }

    /// Mutable access to the work counters, for the QS manager to add its
    /// graft-time history reconstructions.
    pub(crate) fn work_mut(&mut self) -> &mut ExecWork {
        &mut self.work
    }

    /// Route a tuple delivered by leaf `id` through the graph (BFS over
    /// consumer edges, charging routing time per hop). Joins probe through
    /// `governor`; their complete results are judged by the rank-merges
    /// they would reach before they are built (see [`Judged`]).
    fn route_from(
        &mut self,
        id: NodeId,
        tuple: Tuple,
        sources: &Sources,
        governor: &SourceGovernor,
    ) {
        let epoch = self.epoch;
        let mut queue = mem::take(&mut self.route_queue);
        let mut outputs = mem::take(&mut self.route_out);
        let mut cuts = mem::take(&mut self.route_cuts);
        self.work.stream_reads += 1;
        fan_out(&mut queue, &self.node(id).children, tuple);
        // Split borrow: nodes and counters are mutated, the module arena
        // is only read (module state is behind per-slot `RefCell`s).
        let cx = JoinCx {
            sources,
            governor,
            modules: &self.modules,
        };
        let work = &mut self.work;
        while let Some(entry) = queue.pop_front() {
            let (nid, idx, t) = match entry {
                Routed::Tuple(nid, idx, t) => (nid, idx, t),
                Routed::Unbuilt { from, n } => {
                    let from = self.nodes[from.index()].as_ref();
                    // lint:allow(panic-path): queued by this node's own routing step earlier in the pass
                    let hops = n * from.expect("live node").children.len() as u64;
                    sources.clock().charge(TimeCategory::Join, hops * ROUTE_US);
                    continue;
                }
            };
            sources.clock().charge(TimeCategory::Join, ROUTE_US);
            // Split borrow: the node is mutated while an m-join's sink
            // reads the rank-merges around it.
            let (before, rest) = self.nodes.split_at_mut(nid.index());
            // lint:allow(panic-path): consumer edges are kept symmetric (verify_graph checks), so nid is live
            let (node, after) = rest.split_first_mut().expect("live node");
            // lint:allow(panic-path): as above
            let Node { kind, children, .. } = node.as_mut().expect("live node");
            match kind {
                NodeKind::MJoin(mj) => {
                    work.mjoin_inserts += 1;
                    #[cfg(test)]
                    self.insert_clock.push(sources.clock().now_us());
                    let mut sink = Judged {
                        out: &mut outputs,
                        cuts: &mut cuts,
                        before,
                        after,
                        children,
                        skipped: 0,
                        after_k: 0,
                        dominated: 0,
                        #[cfg(test)]
                        build_all: self.build_all,
                        #[cfg(test)]
                        unbounded: self.unbounded || self.build_all,
                    };
                    mj.insert_governed(idx, t, epoch, cx, &mut sink, work);
                    let Judged {
                        skipped,
                        after_k,
                        dominated,
                        ..
                    } = sink;
                    work.mjoin_outputs += outputs.len() as u64 + skipped;
                    work.outputs_skipped += skipped;
                    work.accepts += after_k + dominated;
                    work.after_k += after_k;
                    work.dominated += dominated;
                    for out in outputs.drain(..) {
                        fan_out(&mut queue, children, out);
                    }
                    if skipped > 0 {
                        queue.push_back(Routed::Unbuilt {
                            from: nid,
                            n: skipped,
                        });
                    }
                }
                NodeKind::RankMerge(rm) => {
                    work.accepts += 1;
                    match rm.accept(idx, t) {
                        Accepted::AfterK => work.after_k += 1,
                        Accepted::Dominated => work.dominated += 1,
                        Accepted::Enqueued => work.enqueued += 1,
                    }
                }
                NodeKind::Stream(_) => {
                    panic!("stream {nid} cannot be a routing target")
                }
            }
        }
        // Drained, so only the capacity is carried to the next read.
        self.route_queue = queue;
        self.route_out = outputs;
        self.route_cuts = cuts;
    }

    /// Human-readable plan dump (an `EXPLAIN` for the running graph):
    /// one line per node with operator kind, signature, progress, and
    /// consumer edges. Nodes print in id order; edges show `→ child[slot]`.
    pub fn explain(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "plan graph @ {} ({} nodes)", self.epoch, self.len());
        for node in self.nodes.iter().flatten() {
            let detail = match &node.kind {
                NodeKind::Stream(leaf) => format!(
                    "{} delivered, bound {:.4}{}",
                    leaf.backing.delivered(),
                    leaf.backing.bound(),
                    if leaf.quarantined {
                        " [quarantined]"
                    } else {
                        ""
                    }
                ),
                NodeKind::MJoin(mj) => {
                    format!("{} inputs over {:?}", mj.inputs().len(), mj.output_rels())
                }
                NodeKind::RankMerge(rm) => format!(
                    "{} k={} emitted={} done={}",
                    rm.uq(),
                    rm.k(),
                    rm.results().len(),
                    rm.is_done()
                ),
            };
            let sig = node.sig.map(|s| format!(" {s}")).unwrap_or_default();
            let edges: Vec<String> = node
                .children
                .iter()
                .map(|(c, i)| format!("{c}[{i}]"))
                .collect();
            let _ = writeln!(
                out,
                "  {:>4} {:<10}{} {} → {}",
                node.id.to_string(),
                node.kind.label(),
                sig,
                detail,
                if edges.is_empty() {
                    "·".to_string()
                } else {
                    edges.join(", ")
                }
            );
        }
        out
    }

    /// Approximate resident bytes of all operator state (QS manager memory
    /// accounting): the sum of every live node's
    /// [`QueryPlanGraph::node_approx_bytes`].
    pub(crate) fn approx_bytes(&self) -> usize {
        self.node_ids().map(|id| self.node_approx_bytes(id)).sum()
    }

    /// Node `id`'s term of [`QueryPlanGraph::approx_bytes`]. It reads only
    /// the node itself and the modules it names, so removing another node
    /// leaves it unchanged.
    pub(crate) fn node_approx_bytes(&self, id: NodeId) -> usize {
        match &self.node(id).kind {
            NodeKind::MJoin(mj) => mj.approx_bytes(&self.modules),
            NodeKind::RankMerge(rm) => rm.approx_bytes(),
            NodeKind::Stream(leaf) => {
                let replay = match &leaf.backing {
                    StreamBacking::Replay { tuples, .. } => tuples.len() * 64,
                    StreamBacking::Remote(_) => 0,
                };
                replay + self.stored_len(id).unwrap_or(0) * 16
            }
        }
    }
}

/// Queue `t` for every consumer edge in `children`, in edge order: cloned
/// for all but the last, which takes the tuple itself.
fn fan_out(queue: &mut VecDeque<Routed>, children: &[(NodeId, usize)], t: Tuple) {
    let Some((&(last, last_idx), rest)) = children.split_last() else {
        return;
    };
    for &(c, i) in rest {
        queue.push_back(Routed::Tuple(c, i, t.clone()));
    }
    queue.push_back(Routed::Tuple(last, last_idx, t));
}

/// The sink an m-join on the route emits into: each complete result is
/// offered, unbuilt, to every rank-merge it would reach — the m-join's
/// consumers — and built into `out` unless all of them reject it.
/// Rejections are tallied as the accepts they replace; the caller folds
/// them into [`ExecWork`] and queues the hop charges ([`Routed::Unbuilt`]).
/// Partial results are judged against the same consumers before they
/// probe, and dropped when none would keep a completion. The contract is
/// in the `mjoin` module docs.
struct Judged<'a> {
    out: &'a mut Vec<Tuple>,
    /// Scratch for [`JoinSink::bound_partials`]: per consumer edge, its
    /// rejection cut and its bound factor.
    cuts: &'a mut Vec<(f64, f64)>,
    /// The node arena on either side of the emitting m-join.
    before: &'a [Option<Node>],
    after: &'a [Option<Node>],
    /// The m-join's consumer edges.
    children: &'a [(NodeId, usize)],
    /// Results never built, and the verdicts that rejected them.
    skipped: u64,
    after_k: u64,
    dominated: u64,
    #[cfg(test)]
    build_all: bool,
    #[cfg(test)]
    unbounded: bool,
}

impl<'a> Judged<'a> {
    /// The live node `id`, unless it is the emitting m-join itself.
    fn node(&self, id: NodeId) -> Option<&'a Node> {
        match id.index().checked_sub(self.before.len()) {
            None => self.before[id.index()].as_ref(),
            Some(past) => self.after.get(past.checked_sub(1)?)?.as_ref(),
        }
    }

    /// The consumer `id` if it is a rank-merge; `None` for an m-join.
    fn rank_merge(&self, id: NodeId) -> Option<&'a RankMerge> {
        match self.node(id) {
            Some(Node {
                kind: NodeKind::RankMerge(rm),
                ..
            }) => Some(rm),
            _ => None,
        }
    }

    /// Whether every consumer rejects `a.join(b)`; the verdicts seen so
    /// far are added to `verdicts` (after-k, dominated).
    fn all_reject(&self, a: &Tuple, b: &Tuple, verdicts: &mut (u64, u64)) -> bool {
        self.children
            .iter()
            // An m-join consumer needs the tuple.
            .all(|&(c, slot)| {
                match self
                    .rank_merge(c)
                    .and_then(|rm| rm.rejects_pair(slot, a, b))
                {
                    Some(Accepted::AfterK) => {
                        verdicts.0 += 1;
                        true
                    }
                    Some(Accepted::Dominated) => {
                        verdicts.1 += 1;
                        true
                    }
                    _ => false,
                }
            })
    }
}

impl JoinSink for Judged<'_> {
    fn bound_partials(&mut self, partials: &mut Vec<Tuple>, rest: Uncovered<'_>) -> u64 {
        #[cfg(test)]
        if self.unbounded {
            return 0;
        }
        // Every consumer must be a rank-merge with a cut: one that would
        // enqueue anything, or an m-join, keeps every partial.
        self.cuts.clear();
        for &(c, _) in self.children {
            let Some(cut) = self.rank_merge(c).and_then(RankMerge::rejection_cut) else {
                return 0;
            };
            self.cuts.push((cut, 0.0));
        }
        let before = partials.len() as u64;
        if self.cuts.iter().all(|(cut, _)| *cut == f64::INFINITY) {
            // Every consumer holds its k: nothing is kept.
            partials.clear();
            return before;
        }
        for (i, &(c, slot)) in self.children.iter().enumerate() {
            let rm = self.rank_merge(c);
            if let Some(rm) = rm.filter(|_| self.cuts[i].0 < f64::INFINITY) {
                self.cuts[i].1 = rest.factor(rm.score_fn(slot));
            }
        }
        let cuts = &*self.cuts;
        partials.retain(|p| {
            self.children
                .iter()
                .zip(cuts)
                .any(|(&(c, slot), &(cut, factor))| {
                    cut < f64::INFINITY
                        && self
                            .rank_merge(c)
                            .is_some_and(|rm| rm.score_fn(slot).score(p).get() * factor > cut)
                })
        });
        before - partials.len() as u64
    }

    fn emit(&mut self, tuple: Tuple) {
        self.out.push(tuple);
    }

    fn emit_pair(&mut self, a: &Tuple, b: &Tuple) -> bool {
        #[cfg(test)]
        if self.build_all {
            self.out.push(a.join(b));
            return true;
        }
        let mut verdicts = (0, 0);
        if self.all_reject(a, b, &mut verdicts) {
            self.skipped += 1;
            self.after_k += verdicts.0;
            self.dominated += verdicts.1;
            false
        } else {
            self.out.push(a.join(b));
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessModule, AccessModuleArena, ModuleId, StoredModule};
    use crate::govern::RetryPolicy;
    use crate::mjoin::{MJoin, MJoinInput};
    use crate::rank_merge::{CqRegistration, StreamingInput};
    use qsys_query::{ScoreFn, SigInterner};
    use qsys_source::Table;
    use qsys_types::{BaseTuple, CqId, JoinCond, RelId, SimClock, UqId, UserId, Value};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn sources_with_tables() -> Sources {
        let s = Sources::new(SimClock::new(), 11);
        for rel in 0..2u32 {
            let id = RelId::new(rel);
            let rows = (0..5)
                .map(|i| {
                    Arc::new(BaseTuple::new(
                        id,
                        i,
                        vec![Value::Int((i % 2) as i64)],
                        1.0 - 0.1 * i as f64,
                    ))
                })
                .collect();
            s.register(Table::new(id, rows));
        }
        s
    }

    fn governor() -> SourceGovernor {
        SourceGovernor::new(RetryPolicy::default())
    }

    /// A storing input over `rel` with a private module: what an m-join
    /// producer's first consumer gets.
    fn stored_input(rel: u32, modules: &mut AccessModuleArena) -> MJoinInput {
        input_over(
            rel,
            modules.alloc(AccessModule::Stored(StoredModule::new([]))),
        )
    }

    /// A storing input over `rel` that stores into `module`.
    fn input_over(rel: u32, module: ModuleId) -> MJoinInput {
        MJoinInput {
            rels: vec![RelId::new(rel)],
            module,
            epoch_cap: None,
            store_arrivals: true,
            selection: None,
        }
    }

    /// A storing input over `rel` attached to stream leaf `leaf`'s module,
    /// as graft attaches every consumer of a stream.
    fn leaf_input(g: &mut QueryPlanGraph, rel: u32, leaf: NodeId) -> MJoinInput {
        let module = g.stream_leaf(leaf).module;
        input_over(rel, g.modules_mut().retain(module))
    }

    /// Build: stream(R0) → mjoin(R0,R1) ← stream(R1); mjoin → rank-merge.
    fn small_graph(sources: &Sources) -> (QueryPlanGraph, NodeId, NodeId, NodeId) {
        let mut interner = SigInterner::new();
        let sig0 = interner.relation(RelId::new(0), None);
        let sig1 = interner.relation(RelId::new(1), None);
        let mut g = QueryPlanGraph::new();
        let s0 = g.add_stream(
            StreamBacking::Remote(sources.open_stream(RelId::new(0), None)),
            Some(sig0),
        );
        let s1 = g.add_stream(
            StreamBacking::Remote(sources.open_stream(RelId::new(1), None)),
            Some(sig1),
        );
        let inputs = vec![leaf_input(&mut g, 0, s0), leaf_input(&mut g, 1, s1)];
        let mj = MJoin::new(
            inputs,
            vec![JoinCond {
                left: RelId::new(0),
                left_col: 0,
                right: RelId::new(1),
                right_col: 0,
            }],
            g.modules(),
        );
        let mjn = g.add_mjoin(mj, None);
        let mut rm = RankMerge::new(UqId::new(0), UserId::new(0), 4);
        let slot = rm.register(CqRegistration {
            cq: CqId::new(0),
            reports_as: CqId::new(0),
            score_fn: ScoreFn::discover(UserId::new(0), 2),
            streaming: vec![
                StreamingInput {
                    node: s0,
                    rels: vec![RelId::new(0)],
                    max_bound: 1.0,
                },
                StreamingInput {
                    node: s1,
                    rels: vec![RelId::new(1)],
                    max_bound: 1.0,
                },
            ],
            probed: vec![],
        });
        let rmn = g.add_rank_merge(rm);
        g.connect(s0, mjn, 0);
        g.connect(s1, mjn, 1);
        g.connect(mjn, rmn, slot);
        (g, s0, s1, rmn)
    }

    #[test]
    fn routing_reaches_rank_merge() {
        let sources = sources_with_tables();
        let (mut g, s0, s1, rmn) = small_graph(&sources);
        // Read everything from both streams.
        let governor = governor();
        for leaf in [s0, s1] {
            while g.read_stream_governed(leaf, &sources, &governor) == StreamRead::Delivered {}
        }
        // Join results should be pending in the rank-merge.
        let bounds = g.bound_table();
        assert_eq!(bounds[s0.index()], 0.0);
        assert_eq!(bounds[s1.index()], 0.0);
        g.maintain_rank_merge(rmn, 0);
        let rm = g.rank_merge(rmn);
        // 5 rows per side, keys alternate 0/1: 3 with key ≤... key0: rows
        // 0,2,4 on both sides → 9; key1: rows 1,3 both sides → 4; total 13,
        // top-4 requested.
        assert_eq!(rm.results().len(), 4);
        assert!(rm.is_done());
    }

    #[test]
    fn sig_index_finds_and_forgets() {
        let sources = sources_with_tables();
        let (mut g, s0, _, _) = small_graph(&sources);
        // `small_graph`'s interner assigned σ0 to R0's signature.
        let sig = qsys_query::SigId(0);
        assert_eq!(g.find_sig(sig), Some(s0));
        // Disconnect and remove: index entry disappears.
        let children: Vec<NodeId> = g.node(s0).children.iter().map(|(c, _)| *c).collect();
        for c in children {
            g.disconnect(s0, c);
        }
        g.remove_node(s0);
        assert_eq!(g.find_sig(sig), None);
        assert!(g.try_node(s0).is_none());
    }

    #[test]
    fn quarantine_is_visible_downstream() {
        let sources = sources_with_tables();
        let (mut g, s0, s1, rmn) = small_graph(&sources);
        assert!(!g.subtree_quarantined(rmn));
        g.quarantine_stream(s0);
        assert_eq!(g.bound_table()[s0.index()], 0.0);
        assert!(g.subtree_quarantined(s0));
        // The rank-merge sits downstream of both streams, so the poisoned
        // leaf taints it; the sibling stream on its own stays clean.
        assert!(g.subtree_quarantined(rmn));
        assert!(!g.subtree_quarantined(s1));
        // A read on the quarantined leaf delivers nothing and costs nothing.
        let streamed = sources.tuples_streamed();
        assert_eq!(
            g.read_stream_governed(s0, &sources, &governor()),
            StreamRead::Exhausted
        );
        assert_eq!(sources.tuples_streamed(), streamed);
    }

    #[test]
    fn quarantine_count_answers_as_the_walk() {
        let sources = sources_with_tables();
        let (mut g, s0, s1, _) = small_graph(&sources);
        let agrees = |g: &QueryPlanGraph, count: usize| {
            assert_eq!(g.quarantined_leaves, count);
            for id in g.node_ids() {
                assert_eq!(g.subtree_quarantined(id), g.walk_quarantined(id), "{id}");
            }
        };
        agrees(&g, 0);
        g.quarantine_stream(s0);
        agrees(&g, 1);
        // Quarantining a quarantined leaf again counts nothing.
        g.quarantine_stream(s0);
        agrees(&g, 1);
        g.quarantine_stream(s1);
        agrees(&g, 2);
        // Removing a quarantined leaf uncounts it; the other still taints
        // everything downstream of it.
        for leaf in [s0, s1] {
            let children: Vec<NodeId> = g.node(leaf).children.iter().map(|(c, _)| *c).collect();
            for c in children {
                g.disconnect(leaf, c);
            }
            g.remove_node(leaf);
            agrees(&g, usize::from(leaf == s0));
        }
    }

    #[test]
    #[should_panic(expected = "disconnect before removing")]
    fn remove_connected_node_panics() {
        let sources = sources_with_tables();
        let (mut g, s0, _, _) = small_graph(&sources);
        g.remove_node(s0);
    }

    #[test]
    fn epoch_bumps() {
        let mut g = QueryPlanGraph::new();
        assert_eq!(g.epoch(), Epoch(0));
        assert_eq!(g.bump_epoch(), Epoch(1));
        assert_eq!(g.epoch(), Epoch(1));
    }

    #[test]
    fn bound_table_covers_all_leaves() {
        let sources = sources_with_tables();
        let (g, s0, s1, _) = small_graph(&sources);
        let bounds = g.bound_table();
        // One slot per arena slot; exactly the two leaves carry a bound.
        assert_eq!(bounds.len(), g.len());
        assert_eq!(bounds.iter().filter(|b| **b != 0.0).count(), 2);
        assert!((bounds[s0.index()] - 1.0).abs() < 1e-12);
        assert!((bounds[s1.index()] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn explain_renders_every_node() {
        let sources = sources_with_tables();
        let (mut g, s0, _, _) = small_graph(&sources);
        g.read_stream_governed(s0, &sources, &governor());
        let dump = g.explain();
        assert!(dump.contains("plan graph @ e0 (4 nodes)"), "{dump}");
        assert!(dump.contains("stream"), "{dump}");
        assert!(dump.contains("m-join"), "{dump}");
        assert!(dump.contains("rank-merge"), "{dump}");
        assert!(dump.contains("1 delivered"), "{dump}");
        // Every live node appears.
        for id in g.node_ids() {
            assert!(dump.contains(&format!("{id} ")), "{id} missing:\n{dump}");
        }
    }

    /// Three relations of 12 rows, scores falling with the row id, join
    /// keys alternating — a row matches six rows of any other relation.
    fn fan_sources() -> Sources {
        let s = Sources::new(SimClock::new(), 11);
        for rel in 0..3u32 {
            let id = RelId::new(rel);
            let rows = (0..12)
                .map(|i| {
                    Arc::new(BaseTuple::new(
                        id,
                        i,
                        vec![Value::Int((i % 2) as i64)],
                        1.0 - 0.05 * i as f64,
                    ))
                })
                .collect();
            s.register(Table::new(id, rows));
        }
        s
    }

    fn join_on_col0(l: u32, r: u32) -> JoinCond {
        JoinCond {
            left: RelId::new(l),
            left_col: 0,
            right: RelId::new(r),
            right_col: 0,
        }
    }

    /// A rank-merge of one CQ over R0 ⋈ R1, streamed from `s0` and `s1`.
    fn top_k(uq: u32, k: usize, s0: NodeId, s1: NodeId) -> RankMerge {
        let mut rm = RankMerge::new(UqId::new(uq), UserId::new(0), k);
        rm.register(CqRegistration {
            cq: CqId::new(uq),
            reports_as: CqId::new(uq),
            score_fn: ScoreFn::discover(UserId::new(0), 2),
            streaming: vec![
                StreamingInput {
                    node: s0,
                    rels: vec![RelId::new(0)],
                    max_bound: 1.0,
                },
                StreamingInput {
                    node: s1,
                    rels: vec![RelId::new(1)],
                    max_bound: 1.0,
                },
            ],
            probed: vec![],
        });
        rm
    }

    /// stream(R0), stream(R1) → m-join → rank-merges of k = 1, 2 and 4.
    fn fan_graph(sources: &Sources) -> (QueryPlanGraph, [NodeId; 2], NodeId, [NodeId; 3]) {
        let mut g = QueryPlanGraph::new();
        let s0 = g.add_stream(
            StreamBacking::Remote(sources.open_stream(RelId::new(0), None)),
            None,
        );
        let s1 = g.add_stream(
            StreamBacking::Remote(sources.open_stream(RelId::new(1), None)),
            None,
        );
        let inputs = vec![leaf_input(&mut g, 0, s0), leaf_input(&mut g, 1, s1)];
        let mj = MJoin::new(inputs, vec![join_on_col0(0, 1)], g.modules());
        let mjn = g.add_mjoin(mj, None);
        let rms = [1, 2, 4].map(|k| g.add_rank_merge(top_k(k as u32, k, s0, s1)));
        g.connect(s0, mjn, 0);
        g.connect(s1, mjn, 1);
        for rm in rms {
            g.connect(mjn, rm, 0);
        }
        (g, [s0, s1], mjn, rms)
    }

    /// Early rejection against its reference: the same reads and the same
    /// maintenance cycles on two graphs, one judging results before it
    /// builds them, one building and delivering every result. Both probe
    /// with every partial result (score-bounded probing off), so both find
    /// the same results. While the
    /// R0 stream is read, the k = 1 operator is past its k, the k = 2
    /// one's queue is full and the k = 4 one goes from hungry to full —
    /// so results are built at first and skipped later. Answers, the
    /// virtual clock after every read, the probe-order statistics and
    /// every work counter but the two that count built tuples agree.
    #[test]
    fn early_rejection_changes_nothing_but_what_is_built() {
        let run = |build_all: bool| {
            let sources = fan_sources();
            let (mut g, [s0, s1], mjn, rms) = fan_graph(&sources);
            g.build_all = build_all;
            g.unbounded = true;
            let governor = governor();
            let mut trace = Vec::new();
            for leaf in [s1, s0] {
                while g.read_stream_governed(leaf, &sources, &governor) == StreamRead::Delivered {
                    let now = sources.clock().now_us();
                    for rm in rms {
                        g.maintain_rank_merge(rm, now);
                    }
                    let answers: Vec<Vec<(u64, u64)>> = rms
                        .iter()
                        .map(|&rm| {
                            g.rank_merge(rm)
                                .results()
                                .iter()
                                .map(|r| (r.score.get().to_bits(), r.emitted_at_us))
                                .collect()
                        })
                        .collect();
                    let pending: Vec<usize> =
                        rms.iter().map(|&rm| g.rank_merge(rm).pending()).collect();
                    trace.push((sources.clock().breakdown(), answers, pending));
                }
            }
            let NodeKind::MJoin(mj) = &g.node(mjn).kind else {
                unreachable!()
            };
            (trace, mj.observed_selectivities(), *g.work())
        };
        let (judged, judged_sel, judged_work) = run(false);
        let (built, built_sel, built_work) = run(true);
        assert_eq!(judged, built);
        assert_eq!(judged_sel, built_sel);
        // The reference built all 72 results; the judged run found as
        // many, skipped some and still built the ones somebody wanted.
        assert_eq!(built_work.mjoin_outputs, 72);
        assert_eq!(built_work.outputs_skipped, 0);
        assert!(judged_work.outputs_skipped > 0, "{judged_work:?}");
        assert!(
            judged_work.outputs_skipped < judged_work.mjoin_outputs,
            "{judged_work:?}"
        );
        assert_eq!(
            built_work.joins - judged_work.joins,
            judged_work.outputs_skipped
        );
        assert_eq!(
            ExecWork {
                joins: built_work.joins,
                outputs_skipped: 0,
                ..judged_work
            },
            built_work
        );
        assert_eq!(
            judged_work.accepts,
            judged_work.after_k + judged_work.dominated + judged_work.enqueued
        );
    }

    /// Score-bounded probing against its reference: the same reads and the
    /// same maintenance cycles on two graphs, one dropping the partial
    /// results no rank-merge would keep a completion of, one probing with
    /// every partial. Reading R1 first fills the modules; then every R0
    /// tuple arrives with falling score, and once the k = 1 operator is
    /// past its k and the other two hold full queues, the later, weaker R0
    /// tuples are bounded out before they probe. Every rank-merge ends
    /// with the same result scores, from strictly fewer probes.
    #[test]
    fn bounded_probing_changes_no_score_and_probes_less() {
        let run = |unbounded: bool| {
            let sources = fan_sources();
            let (mut g, [s0, s1], _, rms) = fan_graph(&sources);
            g.unbounded = unbounded;
            let governor = governor();
            for leaf in [s1, s0] {
                while g.read_stream_governed(leaf, &sources, &governor) == StreamRead::Delivered {
                    let now = sources.clock().now_us();
                    for rm in rms {
                        g.maintain_rank_merge(rm, now);
                    }
                }
            }
            let scores: Vec<Vec<u64>> = rms
                .iter()
                .map(|&rm| {
                    let rm = g.rank_merge(rm);
                    assert!(rm.is_done());
                    rm.results()
                        .iter()
                        .map(|r| r.score.get().to_bits())
                        .collect()
                })
                .collect();
            (scores, *g.work())
        };
        let (bounded, bounded_work) = run(false);
        let (unbounded, unbounded_work) = run(true);
        assert_eq!(bounded, unbounded);
        assert_eq!(bounded.iter().map(Vec::len).collect::<Vec<_>>(), [1, 2, 4]);
        assert_eq!(unbounded_work.partials_bounded_out, 0);
        assert!(bounded_work.partials_bounded_out > 0, "{bounded_work:?}");
        assert!(
            bounded_work.mjoin_probes < unbounded_work.mjoin_probes,
            "{bounded_work:?} vs {unbounded_work:?}"
        );
        assert_eq!(
            bounded_work.accepts,
            bounded_work.after_k + bounded_work.dominated + bounded_work.enqueued
        );
        // Arrivals are stored whether or not they probe.
        assert_eq!(bounded_work.module_arrivals, unbounded_work.module_arrivals);
    }

    /// Score-bounded probing into a full queue, counted exactly. R0 and R1
    /// hold 400 rows each over 16 join keys (25 R1 matches per R0 row),
    /// scores falling with the row id; one k = 10 rank-merge takes R0 ⋈ R1.
    /// R1 is read dry, then the first 10 R0 reads fill the queue. Of the
    /// other 390 R0 reads, the first 7 still place results; the remaining
    /// 383, scoring no better with R1's best row than the queue's tenth,
    /// are bounded out before they probe.
    #[test]
    fn a_full_queue_bounds_out_the_weaker_reads_before_they_probe() {
        let sources = Sources::new(SimClock::new(), 0);
        let key = |v: u64| Value::Int((v % 16) as i64);
        for rel in 0..2u32 {
            let id = RelId::new(rel);
            let rows = (0..400u64)
                .map(|i| {
                    Arc::new(BaseTuple::new(
                        id,
                        i,
                        vec![key(i), key(i * 7)],
                        1.0 - i as f64 / 401.0,
                    ))
                })
                .collect();
            sources.register(Table::new(id, rows));
        }
        let mut g = QueryPlanGraph::new();
        let [s0, s1] = [0u32, 1].map(|rel| {
            g.add_stream(
                StreamBacking::Remote(sources.open_stream(RelId::new(rel), None)),
                None,
            )
        });
        let inputs = vec![leaf_input(&mut g, 0, s0), leaf_input(&mut g, 1, s1)];
        let mj = MJoin::new(inputs, vec![join_on_col0(0, 1)], g.modules());
        let mjn = g.add_mjoin(mj, None);
        let rmn = g.add_rank_merge(top_k(0, 10, s0, s1));
        g.connect(s0, mjn, 0);
        g.connect(s1, mjn, 1);
        g.connect(mjn, rmn, 0);
        let governor = governor();
        while g.read_stream_governed(s1, &sources, &governor) == StreamRead::Delivered {}
        for _ in 0..10 {
            g.read_stream_governed(s0, &sources, &governor);
        }
        assert_eq!(g.rank_merge(rmn).pending(), 10);
        assert_eq!(g.work().partials_bounded_out, 0);
        while g.read_stream_governed(s0, &sources, &governor) == StreamRead::Delivered {}
        assert_eq!(g.work().partials_bounded_out, 383, "{:?}", g.work());
    }

    /// A result another m-join consumes is always built, whatever the
    /// rank-merge beside that m-join says about it.
    #[test]
    fn an_mjoin_sink_gets_every_result() {
        let sources = fan_sources();
        let mut g = QueryPlanGraph::new();
        let streams = [0u32, 1, 2].map(|rel| {
            g.add_stream(
                StreamBacking::Remote(sources.open_stream(RelId::new(rel), None)),
                None,
            )
        });
        let inputs = vec![
            leaf_input(&mut g, 0, streams[0]),
            leaf_input(&mut g, 1, streams[1]),
        ];
        let lower = MJoin::new(inputs, vec![join_on_col0(0, 1)], g.modules());
        let lower = g.add_mjoin(lower, None);
        let pair = MJoinInput {
            rels: vec![RelId::new(0), RelId::new(1)],
            ..stored_input(0, g.modules_mut())
        };
        let inputs = vec![pair, leaf_input(&mut g, 2, streams[2])];
        let upper = MJoin::new(inputs, vec![join_on_col0(1, 2)], g.modules());
        let upper = g.add_mjoin(upper, None);
        // k = 0: rejects everything as after-k from the first result on.
        let sated = g.add_rank_merge(top_k(0, 0, streams[0], streams[1]));
        let hungry = g.add_rank_merge(top_k(1, 1000, streams[0], streams[1]));
        g.connect(streams[0], lower, 0);
        g.connect(streams[1], lower, 1);
        g.connect(streams[2], upper, 1);
        g.connect(lower, sated, 0);
        g.connect(lower, upper, 0);
        g.connect(upper, hungry, 0);
        let governor = governor();
        for leaf in streams {
            while g.read_stream_governed(leaf, &sources, &governor) == StreamRead::Delivered {}
        }
        let work = g.work();
        assert_eq!(work.outputs_skipped, 0, "{work:?}");
        // 72 pairs reach the sated operator built, and are dropped there.
        assert_eq!(work.after_k, 72, "{work:?}");
        assert_eq!(g.rank_merge(hungry).pending(), 72 * 6);
    }

    /// Unbuilt results pay their routing hops where the hops would have
    /// been taken. R0 feeds two m-joins: the first finds six results per
    /// tuple that nobody wants (two sated rank-merges), the second builds
    /// its results for a third m-join, whose inserts read the clock *after*
    /// the first one's hops while the second's insert reads it before.
    /// Every m-join insert sees the clock the reference run (everything
    /// built and delivered) shows it. Score-bounded probing is off: the
    /// sated rank-merges would drop every R0 tuple before it probed.
    #[test]
    fn hop_charges_land_where_the_hops_were() {
        let run = |build_all: bool| {
            let sources = fan_sources();
            let mut g = QueryPlanGraph::new();
            g.build_all = build_all;
            g.unbounded = true;
            let streams = [0u32, 1, 2].map(|rel| {
                g.add_stream(
                    StreamBacking::Remote(sources.open_stream(RelId::new(rel), None)),
                    None,
                )
            });
            let inputs = vec![
                leaf_input(&mut g, 0, streams[0]),
                leaf_input(&mut g, 1, streams[1]),
            ];
            let unwanted = MJoin::new(inputs, vec![join_on_col0(0, 1)], g.modules());
            let unwanted = g.add_mjoin(unwanted, None);
            let inputs = vec![
                leaf_input(&mut g, 0, streams[0]),
                leaf_input(&mut g, 2, streams[2]),
            ];
            let lower = MJoin::new(inputs, vec![join_on_col0(0, 2)], g.modules());
            let lower = g.add_mjoin(lower, None);
            let pair = MJoinInput {
                rels: vec![RelId::new(0), RelId::new(2)],
                ..stored_input(0, g.modules_mut())
            };
            let inputs = vec![pair, leaf_input(&mut g, 1, streams[1])];
            let upper = MJoin::new(inputs, vec![join_on_col0(2, 1)], g.modules());
            let upper = g.add_mjoin(upper, None);
            let sated = [0u32, 1].map(|uq| g.add_rank_merge(top_k(uq, 0, streams[0], streams[1])));
            let hungry = g.add_rank_merge(top_k(2, 1000, streams[0], streams[1]));
            g.connect(streams[0], unwanted, 0);
            g.connect(streams[0], lower, 0);
            g.connect(streams[1], unwanted, 1);
            g.connect(streams[1], upper, 1);
            g.connect(streams[2], lower, 1);
            g.connect(unwanted, sated[0], 0);
            g.connect(unwanted, sated[1], 0);
            g.connect(lower, upper, 0);
            g.connect(upper, hungry, 0);
            let governor = governor();
            for leaf in [streams[1], streams[2], streams[0]] {
                while g.read_stream_governed(leaf, &sources, &governor) == StreamRead::Delivered {}
            }
            (
                mem::take(&mut g.insert_clock),
                sources.clock().breakdown(),
                g.work().outputs_skipped,
            )
        };
        let (judged_clock, judged_total, skipped) = run(false);
        let (built_clock, built_total, _) = run(true);
        assert_eq!(skipped, 72);
        assert_eq!(judged_clock, built_clock);
        assert_eq!(judged_total, built_total);
    }

    /// Four relations of 12 rows with two join columns (`i % 2`, `i % 3`).
    fn two_column_sources() -> Sources {
        let s = Sources::new(SimClock::new(), 11);
        for rel in 0..4u32 {
            let id = RelId::new(rel);
            let rows = (0..12)
                .map(|i| {
                    Arc::new(BaseTuple::new(
                        id,
                        i,
                        vec![Value::Int((i % 2) as i64), Value::Int((i % 3) as i64)],
                        1.0 - 0.05 * i as f64,
                    ))
                })
                .collect();
            s.register(Table::new(id, rows));
        }
        s
    }

    /// A rank-merge of one CQ over R0 ⋈ R`rel`, streamed from `leaves`.
    fn top_k_over(rel: u32, k: usize, leaves: [NodeId; 2]) -> RankMerge {
        let mut rm = RankMerge::new(UqId::new(rel), UserId::new(0), k);
        rm.register(CqRegistration {
            cq: CqId::new(rel),
            reports_as: CqId::new(rel),
            score_fn: ScoreFn::discover(UserId::new(0), 2),
            streaming: leaves
                .into_iter()
                .zip([0, rel])
                .map(|(node, r)| StreamingInput {
                    node,
                    rels: vec![RelId::new(r)],
                    max_bound: 1.0,
                })
                .collect(),
            probed: vec![],
        });
        rm
    }

    /// One producer, one module, against the private-modules reference.
    /// The R0 stream feeds three m-joins — R0 ⋈ R1 and R0 ⋈ R3 on R0's
    /// first column, R0 ⋈ R2 on its second — the third built after six R0
    /// reads. Run once with the three R0 inputs attached to the R0 leaf's
    /// module (the late one too, as a graft attaches it) and once with a
    /// private module each (the late one prefilled from the leaf's module,
    /// uncharged): the same reads give the same clock at every m-join
    /// insert and after every read, the same answers, the same probe-order
    /// statistics and the same work counters, except that the private
    /// modules write each R0 tuple again, once per consumer.
    #[test]
    fn one_module_per_producer_changes_nothing_but_what_is_stored() {
        let run = |private: bool| {
            let sources = two_column_sources();
            let mut g = QueryPlanGraph::new();
            let leaves = [0u32, 1, 2, 3].map(|rel| {
                g.add_stream(
                    StreamBacking::Remote(sources.open_stream(RelId::new(rel), None)),
                    None,
                )
            });
            let consumer = |g: &mut QueryPlanGraph, rel: u32, r0_col: usize| {
                let r0_input = if private {
                    let mut module = StoredModule::new([]);
                    for (t, e) in g.stream_module(leaves[0]).entries() {
                        module.push(t.clone(), *e);
                    }
                    input_over(0, g.modules_mut().alloc(AccessModule::Stored(module)))
                } else {
                    leaf_input(g, 0, leaves[0])
                };
                let inputs = vec![r0_input, leaf_input(g, rel, leaves[rel as usize])];
                let pred = JoinCond {
                    left: RelId::new(0),
                    left_col: r0_col,
                    right: RelId::new(rel),
                    right_col: 0,
                };
                let mj = MJoin::new(inputs, vec![pred], g.modules());
                let mjn = g.add_mjoin(mj, None);
                let rm = g.add_rank_merge(top_k_over(rel, 3, [leaves[0], leaves[rel as usize]]));
                g.connect(leaves[0], mjn, 0);
                g.connect(leaves[rel as usize], mjn, 1);
                g.connect(mjn, rm, 0);
                (mjn, rm)
            };
            let mut joins = vec![consumer(&mut g, 1, 0), consumer(&mut g, 2, 1)];
            let governor = governor();
            let mut trace = Vec::new();
            let mut read = |g: &mut QueryPlanGraph, leaf, joins: &[(NodeId, NodeId)]| {
                while g.read_stream_governed(leaf, &sources, &governor) == StreamRead::Delivered {
                    let now = sources.clock().now_us();
                    for &(_, rm) in joins {
                        g.maintain_rank_merge(rm, now);
                    }
                    trace.push(sources.clock().breakdown());
                    if leaf == leaves[0] && g.stream_module(leaf).len() == 6 {
                        return;
                    }
                }
            };
            read(&mut g, leaves[0], &joins);
            joins.push(consumer(&mut g, 3, 0));
            for leaf in [leaves[1], leaves[2], leaves[3], leaves[0]] {
                read(&mut g, leaf, &joins);
            }
            let answers: Vec<Vec<(u64, u64)>> = joins
                .iter()
                .map(|&(_, rm)| {
                    g.rank_merge(rm)
                        .results()
                        .iter()
                        .map(|r| (r.score.get().to_bits(), r.emitted_at_us))
                        .collect()
                })
                .collect();
            let mjoins: Vec<&MJoin> = joins
                .iter()
                .map(|&(mjn, _)| match &g.node(mjn).kind {
                    NodeKind::MJoin(mj) => mj,
                    _ => unreachable!(),
                })
                .collect();
            let selectivities: Vec<_> = mjoins
                .iter()
                .map(|mj| mj.observed_selectivities())
                .collect();
            let stored: Vec<(ModuleId, usize)> = mjoins
                .iter()
                .map(|mj| {
                    let id = mj.inputs()[0].module;
                    let module = g.modules().module(id).unwrap().borrow();
                    (id, module.as_stored().unwrap().len())
                })
                .collect();
            let state = (
                trace,
                mem::take(&mut g.insert_clock),
                answers,
                selectivities,
            );
            (state, *g.work(), stored)
        };
        let (shared, shared_work, shared_modules) = run(false);
        let (private, private_work, private_modules) = run(true);
        assert_eq!(shared, private);
        assert!(shared.2.iter().all(|answers| answers.len() == 3));
        assert_eq!(
            ExecWork {
                module_pushes: private_work.module_pushes,
                ..shared_work
            },
            private_work
        );
        // R0 arrives 12 times at each of the first two m-joins and 6 times
        // at the third; R1, R2 and R3 12 times each at their one consumer.
        // Only a private module appends: every other arrival finds its
        // tuple where the leaf that read it stored it.
        assert_eq!(private_work.module_arrivals, 30 + 36);
        assert_eq!(private_work.module_pushes, 30);
        assert_eq!(shared_work.module_pushes, 0);
        let r0 = shared_modules[0].0;
        assert_eq!(shared_modules, [(r0, 12); 3], "one module, each tuple once");
        let (ids, lens): (BTreeSet<ModuleId>, Vec<usize>) = private_modules.into_iter().unzip();
        assert_eq!((ids.len(), lens), (3, vec![12; 3]));
    }
}
