//! Query-plan-graph nodes.
//!
//! The plan graph "represents operators as nodes and dataflows as edges"
//! (Section 4.1). Node kinds mirror the paper's operator vocabulary: stream
//! leaves (remote subqueries or in-memory replays), m-joins, and
//! rank-merges. The paper's split operator is not a node: a producer's
//! consumer edges fan its output out (see `qsys_opt::plan`).

use crate::access::ModuleId;
use crate::mjoin::MJoin;
use crate::rank_merge::RankMerge;
use qsys_query::SigId;
use qsys_source::SourceStream;
use qsys_types::Tuple;
use std::fmt;

/// Identifier of a plan-graph node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw index for arena addressing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What backs a stream leaf.
pub enum StreamBacking {
    /// A remote subquery: reads cross the simulated network.
    Remote(SourceStream),
    /// An in-memory replay of previously read tuples, in original arrival
    /// order — the "linked list as streaming source" of Algorithm 2
    /// (RecoverState). Reads cost only in-memory time.
    Replay {
        /// Tuples in original arrival (hence score) order.
        tuples: Vec<Tuple>,
        /// Read cursor.
        pos: usize,
    },
}

impl StreamBacking {
    /// Upper bound on the raw-score product of any future tuple; 0 when
    /// exhausted.
    pub fn bound(&self) -> f64 {
        match self {
            StreamBacking::Remote(s) => s.bound(),
            StreamBacking::Replay { tuples, pos } => tuples
                .get(*pos)
                .map(|t| t.raw_score_product())
                .unwrap_or(0.0),
        }
    }

    /// Whether no tuples remain.
    pub fn exhausted(&self) -> bool {
        match self {
            StreamBacking::Remote(s) => s.exhausted(),
            StreamBacking::Replay { tuples, pos } => *pos >= tuples.len(),
        }
    }

    /// Tuples delivered so far.
    pub fn delivered(&self) -> usize {
        match self {
            StreamBacking::Remote(s) => s.delivered(),
            StreamBacking::Replay { pos, .. } => *pos,
        }
    }
}

impl fmt::Debug for StreamBacking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamBacking::Remote(s) => {
                write!(f, "Remote({}/{} delivered)", s.delivered(), s.total())
            }
            StreamBacking::Replay { tuples, pos } => {
                write!(f, "Replay({pos}/{} delivered)", tuples.len())
            }
        }
    }
}

/// A stream leaf: the backing plus the state the QS manager needs for reuse
/// and recovery across epochs.
#[derive(Debug)]
pub struct StreamLeaf {
    /// What delivers the tuples.
    pub backing: StreamBacking,
    /// The stored module holding every tuple delivered so far, with the
    /// epoch it was read in: the one record of this leaf's output. Its
    /// m-join consumers store into it (`access` module docs), and it is
    /// the replay source for `RecoverState` (Algorithm 2). The leaf holds
    /// one arena reference, taken by
    /// [`QueryPlanGraph::add_stream`](crate::QueryPlanGraph::add_stream).
    pub module: ModuleId,
    /// The stream's raw-product bound before anything was read. Threshold
    /// maintenance needs the *all-time* maximum of other inputs, not the
    /// current bound, because future results may join old tuples.
    pub initial_bound: f64,
    /// Set when a governed fetch gave up on this leaf (retry budget
    /// exhausted or breaker open). A quarantined leaf reports a bound of
    /// zero — the rank-merge bounds machinery then drains around it and
    /// completes the affected queries with whatever is provable — and is
    /// never reused by grafting (the source may have recovered; new
    /// queries deserve a fresh stream).
    pub quarantined: bool,
}

impl StreamLeaf {
    /// Wrap a backing delivering into `module`, recording its pristine
    /// bound.
    pub fn new(backing: StreamBacking, module: ModuleId) -> StreamLeaf {
        let initial_bound = backing.bound();
        StreamLeaf {
            backing,
            module,
            initial_bound,
            quarantined: false,
        }
    }

    /// The bound the threshold machinery should see: zero once
    /// quarantined, the backing's live bound otherwise.
    pub fn effective_bound(&self) -> f64 {
        if self.quarantined {
            0.0
        } else {
            self.backing.bound()
        }
    }

    /// Relations covered by each tuple this leaf delivers.
    pub fn rels(&self) -> Vec<qsys_types::RelId> {
        match &self.backing {
            StreamBacking::Remote(s) => s.rels().to_vec(),
            StreamBacking::Replay { tuples, .. } => tuples
                .first()
                .map(|t| t.parts().iter().map(|p| p.rel).collect())
                .unwrap_or_default(),
        }
    }
}

/// The operator at a node.
#[derive(Debug)]
pub enum NodeKind {
    /// A stream leaf: the boundary to a remote source (or a replay).
    Stream(StreamLeaf),
    /// An m-way pipelined join.
    MJoin(MJoin),
    /// A rank-merge producing one user query's top-k.
    RankMerge(RankMerge),
}

impl NodeKind {
    /// Short operator label for debugging and plan dumps.
    pub fn label(&self) -> &'static str {
        match self {
            NodeKind::Stream(_) => "stream",
            NodeKind::MJoin(_) => "m-join",
            NodeKind::RankMerge(_) => "rank-merge",
        }
    }
}

/// One node in the plan graph.
#[derive(Debug)]
pub struct Node {
    /// Identifier (index into the graph's arena).
    pub id: NodeId,
    /// The operator.
    pub kind: NodeKind,
    /// Consumers: `(node, input_index)`. For m-joins the input index selects
    /// the [`MJoinInput`](crate::mjoin::MJoinInput); for rank-merges it
    /// selects the registered conjunctive query slot.
    pub children: Vec<(NodeId, usize)>,
    /// Producers feeding this node.
    pub parents: Vec<NodeId>,
    /// Interned signature of the subexpression this node's output computes,
    /// when meaningful (streams, m-joins). The QS manager's reuse
    /// index is keyed on this; resolve the id through the lane's shared
    /// [`SigInterner`](qsys_query::SigInterner) when the actual atoms and
    /// joins are needed.
    pub sig: Option<SigId>,
}

impl Node {
    /// Whether this node currently feeds any consumer.
    pub(crate) fn has_consumers(&self) -> bool {
        !self.children.is_empty()
    }
}
