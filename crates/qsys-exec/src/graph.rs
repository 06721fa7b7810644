//! The query plan graph.
//!
//! A graph-structured (not tree-structured) plan in which "a given query
//! subexpression may produce answers whose results must be fed into multiple
//! downstream operators belonging to different queries" (Section 2.2).
//! Nodes live in an arena; edges carry the consumer's input index. The QS
//! manager grafts into and prunes out of this structure between query
//! batches, so insertion and removal never invalidate other nodes.

use crate::access::AccessModuleArena;
use crate::govern::SourceGovernor;
use crate::mjoin::JoinCx;
use crate::node::{Node, NodeId, NodeKind, StreamBacking, StreamLeaf};
use crate::rank_merge::{Accepted, RankMerge};
use crate::stats::ExecWork;
use qsys_query::SigId;
use qsys_source::{SourceError, Sources};
use qsys_types::{Epoch, TimeCategory, Tuple};
use std::collections::{HashMap, HashSet, VecDeque};
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
    /// Ids of the live rank-merge nodes, ascending. Operators that are
    /// done stay listed until the QS manager removes them: the ATC's
    /// round-robin offset is taken modulo this list's length.
    rank_merges: Vec<NodeId>,
    /// Routing queue storage, kept between reads so a tuple's trip through
    /// the graph allocates nothing once the queue has grown.
    route_queue: VecDeque<(NodeId, usize, Tuple)>,
    /// Where an m-join on the route leaves its complete results; drained
    /// into `route_queue` after every insert, kept for its capacity.
    route_out: Vec<Tuple>,
    /// What routing has done so far, counted as it happens.
    work: ExecWork,
    epoch: Epoch,
    /// Reuse index: interned subexpression signature → the node computing
    /// it. Keyed on [`SigId`], so lookups hash one `u32`.
    // lint:allow(hot-hash): consulted per graft (per batch), never per tuple
    sig_index: HashMap<SigId, NodeId>,
    /// The lane's access modules: every m-join input names its hash table
    /// or probe cache by [`ModuleId`](crate::access::ModuleId) into this
    /// arena. Owning it here (rather than `Rc`-sharing modules) is what
    /// makes the whole graph — and the lane around it — `Send`.
    modules: AccessModuleArena,
}

impl QueryPlanGraph {
    /// An empty graph at epoch 0.
    pub fn new() -> QueryPlanGraph {
        QueryPlanGraph::default()
    }

    /// The current epoch (logical timestamp of the latest graft).
    pub fn epoch(&self) -> Epoch {
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
    pub fn bump_epoch(&mut self) -> Epoch {
        self.epoch = self.epoch.next();
        self.epoch
    }

    fn add_node(&mut self, kind: NodeKind, sig: Option<SigId>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        if let Some(s) = sig {
            // First registration wins: several nodes may carry the same
            // signature (a stream and the split fanning it out); the reuse
            // index points at the producer.
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
        self.bounds.push(bound);
        self.live += 1;
        self.nodes.push(Some(Node {
            id,
            kind,
            children: Vec::new(),
            parents: Vec::new(),
            sig,
        }));
        id
    }

    /// Add a stream leaf computing `sig`.
    pub fn add_stream(&mut self, backing: StreamBacking, sig: Option<SigId>) -> NodeId {
        self.add_node(NodeKind::Stream(StreamLeaf::new(backing)), sig)
    }

    /// The stream leaf at `id`.
    pub fn stream_leaf(&self, id: NodeId) -> &StreamLeaf {
        match &self.node(id).kind {
            NodeKind::Stream(leaf) => leaf,
            other => panic!("{id} is a {}, not a stream", other.label()),
        }
    }

    /// Add a split operator forwarding `sig`'s output to several consumers.
    pub fn add_split(&mut self, sig: Option<SigId>) -> NodeId {
        self.add_node(NodeKind::Split, sig)
    }

    /// Add an m-join computing `sig`.
    pub fn add_mjoin(&mut self, mjoin: crate::mjoin::MJoin, sig: Option<SigId>) -> NodeId {
        self.add_node(NodeKind::MJoin(mjoin), sig)
    }

    /// Add a rank-merge operator.
    pub fn add_rank_merge(&mut self, rm: RankMerge) -> NodeId {
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
    pub fn disconnect(&mut self, parent: NodeId, child: NodeId) {
        self.node_mut(parent).children.retain(|(c, _)| *c != child);
        self.node_mut(child).parents.retain(|p| *p != parent);
    }

    /// Remove a node entirely. The caller (QS manager) must have
    /// disconnected it; panics if edges remain. An m-join's inputs each
    /// drop their arena reference, so modules shared with nothing else
    /// (and their hash-table state) are reclaimed here.
    pub fn remove_node(&mut self, id: NodeId) {
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
            NodeKind::Stream(_) => self.bounds[id.index()] = 0.0,
            NodeKind::RankMerge(_) => self.rank_merges.retain(|rm| *rm != id),
            NodeKind::Split => {}
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
    /// ([`QueryPlanGraph::bound_table`]); read through
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
    pub fn find_sig(&self, sig: SigId) -> Option<NodeId> {
        self.sig_index.get(&sig).copied()
    }

    /// Forget the reuse-index entry for one signature; the node itself
    /// stays alive. The next node registered with this signature becomes
    /// the merge target — replan grafts use this to supersede an
    /// abandoned plan's root as the index target while the old node
    /// lingers (detached) until eviction reclaims it.
    pub fn forget_sig(&mut self, sig: SigId) {
        self.sig_index.remove(&sig);
    }

    /// Whether `id` or any producer upstream of it is a quarantined stream
    /// leaf. Grafting consults this before merging new queries into
    /// existing state: a subtree fed by a failed source would pin every new
    /// consumer to the dead leaf's zero bound, whereas a fresh stream gives
    /// the (possibly recovered) source another chance.
    pub fn subtree_quarantined(&self, id: NodeId) -> bool {
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
    pub fn clear_sig_index(&mut self) {
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
    pub fn rank_merge_mut(&mut self, id: NodeId) -> &mut RankMerge {
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

    /// Run rank-merge `id`'s maintenance cycle against the live bound
    /// table; returns the number of results emitted.
    pub fn maintain_rank_merge(&mut self, id: NodeId, now_us: u64) -> usize {
        // Split borrow: the operator is mutated, the table only read.
        let bounds = &self.bounds;
        // lint:allow(panic-path): same contract as node() — a dead id is corruption
        match &mut self.nodes[id.index()].as_mut().expect("live node").kind {
            NodeKind::RankMerge(rm) => rm.maintain(bounds, now_us),
            other => panic!("{id} is a {}, not a rank-merge", other.label()),
        }
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
        self.stream_leaf_mut(id).quarantined = true;
        self.bounds[id.index()] = 0.0;
    }

    /// Read one tuple from the stream leaf `id` and route it through the
    /// graph. The fetch goes through the governor's retry/breaker loop (a
    /// plain read when no faults are configured); on a fetch that gives
    /// up, quarantine the leaf (bound drops to zero, the failure is
    /// recorded against the batch) and report [`StreamRead::Failed`].
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
            replay => Ok(replay.read(sources)),
        };
        let tuple = match read {
            Ok(tuple) => {
                if let Some(t) = &tuple {
                    leaf.archive.push((t.clone(), epoch));
                }
                let bound = leaf.effective_bound();
                self.bounds[id.index()] = bound;
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
    pub fn work_mut(&mut self) -> &mut ExecWork {
        &mut self.work
    }

    /// Route a tuple delivered by leaf `id` through the graph (BFS over
    /// consumer edges, charging routing time per hop). Joins probe through
    /// `governor`.
    fn route_from(
        &mut self,
        id: NodeId,
        tuple: Tuple,
        sources: &Sources,
        governor: &SourceGovernor,
    ) {
        let epoch = self.epoch;
        let route_us = sources.cost_profile().route_us;
        let mut queue = mem::take(&mut self.route_queue);
        let mut outputs = mem::take(&mut self.route_out);
        self.work.stream_reads += 1;
        fan_out(&mut queue, &self.node(id).children, tuple);
        // Split borrow: nodes and counters are mutated, the module arena
        // is only read (module state is behind per-slot `RefCell`s).
        let cx = JoinCx {
            sources,
            governor: Some(governor),
            modules: &self.modules,
        };
        let work = &mut self.work;
        while let Some((nid, idx, t)) = queue.pop_front() {
            sources.clock().charge(TimeCategory::Join, route_us);
            // lint:allow(panic-path): consumer edges are kept symmetric (verify_graph checks), so nid is live
            let node = self.nodes[nid.index()].as_mut().expect("live node");
            let Node { kind, children, .. } = node;
            match kind {
                NodeKind::Split => fan_out(&mut queue, children, t),
                NodeKind::MJoin(mj) => {
                    work.mjoin_inserts += 1;
                    mj.insert_governed(idx, t, epoch, cx, &mut outputs, work);
                    work.mjoin_outputs += outputs.len() as u64;
                    for out in outputs.drain(..) {
                        fan_out(&mut queue, children, out);
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
                NodeKind::Split => String::new(),
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
    /// accounting).
    pub fn approx_bytes(&self) -> usize {
        self.nodes
            .iter()
            .flatten()
            .map(|n| match &n.kind {
                NodeKind::MJoin(mj) => mj.approx_bytes(&self.modules),
                NodeKind::RankMerge(rm) => rm.approx_bytes(),
                NodeKind::Stream(leaf) => {
                    let replay = match &leaf.backing {
                        StreamBacking::Replay { tuples, .. } => tuples.len() * 64,
                        StreamBacking::Remote(_) => 0,
                    };
                    replay + leaf.archive.len() * 16
                }
                _ => 0,
            })
            .sum()
    }
}

/// Queue `t` for every consumer edge in `children`, in edge order: cloned
/// for all but the last, which takes the tuple itself.
fn fan_out(queue: &mut VecDeque<(NodeId, usize, Tuple)>, children: &[(NodeId, usize)], t: Tuple) {
    let Some((&(last, last_idx), rest)) = children.split_last() else {
        return;
    };
    for &(c, i) in rest {
        queue.push_back((c, i, t.clone()));
    }
    queue.push_back((last, last_idx, t));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessModule, AccessModuleArena, StoredModule};
    use crate::govern::RetryPolicy;
    use crate::mjoin::{JoinPred, MJoin, MJoinInput};
    use crate::rank_merge::{CqRegistration, StreamingInput};
    use qsys_query::{ScoreFn, SigInterner};
    use qsys_source::Table;
    use qsys_types::{BaseTuple, CostProfile, CqId, RelId, SimClock, UqId, UserId, Value};
    use std::sync::Arc;

    fn sources_with_tables() -> Sources {
        let s = Sources::new(SimClock::new(), CostProfile::default(), 11);
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

    fn stored_input(rel: u32, modules: &mut AccessModuleArena) -> MJoinInput {
        MJoinInput {
            rels: vec![RelId::new(rel)],
            module: modules.alloc(AccessModule::Stored(StoredModule::new([]))),
            epoch_cap: None,
            store_arrivals: true,
            selection: None,
        }
    }

    /// Build: stream(R0) → split → mjoin(R0,R1) ← stream(R1); mjoin → rank-merge.
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
        let split = g.add_split(Some(sig0));
        let inputs = vec![
            stored_input(0, g.modules_mut()),
            stored_input(1, g.modules_mut()),
        ];
        let mj = MJoin::new(
            inputs,
            vec![JoinPred {
                left_rel: RelId::new(0),
                left_col: 0,
                right_rel: RelId::new(1),
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
        g.connect(s0, split, 0);
        g.connect(split, mjn, 0);
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
        assert!(dump.contains("plan graph @ e0 (5 nodes)"), "{dump}");
        assert!(dump.contains("stream"), "{dump}");
        assert!(dump.contains("m-join"), "{dump}");
        assert!(dump.contains("rank-merge"), "{dump}");
        assert!(dump.contains("1 delivered"), "{dump}");
        // Every live node appears.
        for id in g.node_ids() {
            assert!(dump.contains(&format!("{id} ")), "{id} missing:\n{dump}");
        }
    }
}
