//! Algorithm 2: RecoverState.
//!
//! "A major complexity is that a new conjunctive query CQ_i may make use of
//! data from input streams that have already been read. In such an event,
//! simply reading further from the streams is insufficient; we must first
//! re-process the earlier parts of the streams, which are buffered within
//! the query plan graph's state. ... we create an additional new query
//! CQ^e_i, to compute all the missing tuples for CQ_i. This query takes as
//! its inputs the contents of the appropriate linked lists as recorded
//! before epoch e, in order to avoid the introduction of duplicate
//! results." (Section 6.2)
//!
//! Division of labour after a graft at epoch `e`:
//!
//! - combinations where **every** constituent predates `e` → produced by
//!   `CQ^e` (built here): one pre-epoch input is replayed in original
//!   (score) order, the others are probed through the *same shared hash
//!   tables*, capped at epoch `e`;
//! - combinations with **at least one** constituent from epoch ≥ `e` →
//!   produced by the normal plan when that constituent arrives: each new
//!   consumer input starts out holding its producer's pre-epoch history,
//!   so old × new combinations are found too.
//!
//! Together these partitions cover every result exactly once.
//!
//! A user query whose identical CQs and scoring completed before, and
//! whose answer is still retained, skips all of this: it publishes the
//! retained top-k instead (`manager` module docs, after Section 6.3's
//! cacheable ranking-queue contents). RecoverState runs for every other
//! CQ that reuses state read before its epoch, as the paper's Algorithm 2
//! does.
//!
//! ### Attach or prefill
//!
//! A producer's output is stored once, in one module its consumers share
//! (the `crate::access` docs), so a new consumer input starts out
//! holding the producer's history (`QsManager::consumer_module`). A stream
//! leaf's consumer always attaches to the leaf's own module: it holds
//! every tuple the leaf delivered, with the epoch it was read in, which is
//! what [`node_history`] returns for the leaf. An m-join producer's
//! consumer gets that history one of two ways:
//!
//! - it **attaches** to the module the producer's existing consumers store
//!   into, whenever that module holds exactly what a prefill would, entry
//!   for entry: a module this graft itself prefilled for the producer
//!   holds that history by construction, and an empty module means the
//!   producer never emitted, so its reconstruction is empty too;
//! - otherwise it is **prefilled**: a fresh module gets [`node_history`],
//!   written uncharged, and the rest of the graft attaches to it. Older
//!   consumers hold the producer's outputs in *emission* order, while
//!   [`node_history`] reconstructs them in *replay* order stamped `e − 1`
//!   — the same set, in another order, and `recover_state` sorts a replay
//!   by score with ties broken by that order, so attaching there would
//!   move answers.
//!
//! Either way the new input's cursor starts at the module's length.

use crate::access::{AccessModule, AccessModuleArena, ModuleId};
use crate::mjoin::{JoinCx, MJoin, MJoinInput};
use crate::rank_merge::{CqRegistration, StreamingInput};
use crate::{
    ExecWork, NodeId, NodeKind, QueryPlanGraph, RetryPolicy, SourceGovernor, StreamBacking,
};
use qsys_opt::plan::CqPlan;
use qsys_query::SigInterner;
use qsys_types::{CqId, Epoch, SimClock, Tuple};

/// Pre-epoch output history of a node, with the epochs tuples arrived in.
///
/// - A stream leaf's module holds what it delivered, read by read.
/// - m-joins reconstruct their output history by replaying one stored
///   input's pre-epoch entries against the other access modules capped at
///   the epoch — an in-memory, charge-free computation (the original
///   execution already paid for this work; reuse must not pay again).
///
/// Reconstruction probes and joins are counted into `work` (as
/// `recovery_*`: they run at graft, outside the routing loop).
pub(crate) fn node_history(
    graph: &QueryPlanGraph,
    node: NodeId,
    before: Epoch,
    work: &mut ExecWork,
) -> Vec<(Tuple, Epoch)> {
    match &graph.node(node).kind {
        NodeKind::Stream(_) => graph
            .stream_module(node)
            .entries()
            .iter()
            .filter(|(_, e)| *e < before)
            .cloned()
            .collect(),
        NodeKind::MJoin(mj) => {
            let stamp = Epoch(before.0.saturating_sub(1));
            reconstruct_mjoin_history(mj, graph.modules(), before, work)
                .into_iter()
                .map(|t| (t, stamp))
                .collect()
        }
        NodeKind::RankMerge(_) => Vec::new(),
    }
}

/// The storing input of `mj` with the most pre-epoch entries (the first of
/// equals) and those entries in arrival order, if any input has history.
/// Inputs are sized by a borrowing count; only the winner's entries are
/// cloned.
fn richest_history(
    mj: &MJoin,
    modules: &AccessModuleArena,
    before: Epoch,
) -> Option<(usize, Vec<Tuple>)> {
    let mut best: Option<(usize, usize)> = None; // (input, count)
    for (idx, input) in mj.inputs().iter().enumerate() {
        if !input.store_arrivals {
            continue;
        }
        let Some(module) = modules.module(input.module) else {
            continue;
        };
        if let AccessModule::Stored(s) = &*module.borrow() {
            let n = s.entries_before(before).count();
            if n > 0 && best.is_none_or(|(_, b)| n > b) {
                best = Some((idx, n));
            }
        }
    }
    let (idx, _) = best?;
    let module = modules.module(mj.inputs()[idx].module)?;
    let AccessModule::Stored(s) = &*module.borrow() else {
        return None;
    };
    Some((idx, s.entries_before(before).cloned().collect()))
}

/// The inputs of a join replaying `mj`'s input `replay_idx` against the
/// other inputs' live modules as they stood before `before`: the replay
/// input is detached — its tuples only ever *arrive*, so it needs no module
/// and nothing is double-inserted — and every other input names its live
/// module, capped at `before`. No input stores arrivals, and none takes an
/// arena reference: a graph-resident caller retains them.
fn capped_inputs(mj: &MJoin, replay_idx: usize, before: Epoch) -> Vec<MJoinInput> {
    mj.inputs()
        .iter()
        .enumerate()
        .map(|(idx, input)| {
            let (module, selection) = if idx == replay_idx {
                (ModuleId::DETACHED, None)
            } else {
                (input.module, input.selection.clone())
            };
            MJoinInput {
                rels: input.rels.clone(),
                module,
                epoch_cap: Some(before),
                store_arrivals: false,
                selection,
            }
        })
        .collect()
}

/// Replay one stored input of `mj` (pre-epoch entries, original order)
/// against the other modules capped at `before`, reproducing exactly the
/// outputs the m-join emitted before that epoch.
fn reconstruct_mjoin_history(
    mj: &MJoin,
    modules: &AccessModuleArena,
    before: Epoch,
    work: &mut ExecWork,
) -> Vec<Tuple> {
    let Some((replay_idx, entries)) = richest_history(mj, modules, before) else {
        return Vec::new();
    };
    // Transient: it never enters the graph, so it retains nothing.
    let inputs = capped_inputs(mj, replay_idx, before);
    let mut temp = MJoin::new(inputs, mj.preds().to_vec(), modules);
    // Free in-memory recomputation: scratch clock, sources and governor.
    let scratch_sources =
        qsys_source::Sources::new(SimClock::new(), qsys_types::CostProfile::default(), 0);
    let scratch_governor = SourceGovernor::new(RetryPolicy::default());
    let cx = JoinCx {
        sources: &scratch_sources,
        governor: &scratch_governor,
        modules,
    };
    let mut out = Vec::new();
    let mut replayed = ExecWork::default();
    for t in entries {
        temp.insert_governed(replay_idx, t, before, cx, &mut out, &mut replayed);
    }
    work.recovery_probes += replayed.mjoin_probes;
    work.recovery_joins += replayed.joins;
    out
}

/// Build `CQ^e` for a freshly grafted conjunctive query whose root is
/// `root`, if any pre-epoch state is visible to it. Returns whether a
/// recovery query was created.
///
/// The recovery plan replays the richest pre-epoch streaming input of the
/// root m-join against the other access modules capped at `epoch` —
/// producing exactly the all-old combinations the normal plan will never
/// trigger. For a stream-rooted (single-input) CQ the leaf's pre-epoch
/// deliveries are themselves the missing output, replayed straight into
/// the rank-merge.
#[allow(clippy::too_many_arguments)]
pub(crate) fn recover_state(
    graph: &mut QueryPlanGraph,
    plan: &CqPlan,
    root: NodeId,
    rm_id: NodeId,
    epoch: Epoch,
    next_recovery_cq: &mut u32,
    interner: &SigInterner,
) -> bool {
    // What CQ^e replays and over which relations, and for an m-join root
    // the recovery join it replays into: everything is collected from the
    // live graph first, since building the join needs the graph back.
    let (tuples, rels, join) = match &graph.node(root).kind {
        NodeKind::Stream(_) => {
            let tuples: Vec<Tuple> = graph
                .stream_module(root)
                .entries_before(epoch)
                .cloned()
                .collect();
            (tuples, interner.rels(plan.sig).to_vec(), None)
        }
        NodeKind::MJoin(mj) => {
            // No input with history: nothing was missed.
            let Some((replay_idx, entries)) = richest_history(mj, graph.modules(), epoch) else {
                return false;
            };
            // Replay must be nonincreasing in raw-score product for the
            // rank-merge threshold to be sound. Base-stream arrivals
            // already are; intermediate-component outputs arrive in
            // trigger order, so sort explicitly (stable, each product
            // computed once).
            let mut keyed: Vec<(f64, Tuple)> = entries
                .into_iter()
                .map(|t| (t.raw_score_product(), t))
                .collect();
            keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
            let entries: Vec<Tuple> = keyed.into_iter().map(|(_, t)| t).collect();
            let inputs = capped_inputs(mj, replay_idx, epoch);
            let rels = inputs[replay_idx].rels.clone();
            (
                entries,
                rels,
                Some((replay_idx, inputs, mj.preds().to_vec())),
            )
        }
        NodeKind::RankMerge(_) => return false,
    };
    if tuples.is_empty() {
        return false;
    }
    // The recovery m-join is graph-resident: each input sharing a live
    // module takes an arena reference (the detached replay input none).
    let join = join.map(|(replay_idx, inputs, preds)| {
        for input in &inputs {
            graph.modules_mut().retain(input.module);
        }
        let mj = MJoin::new(inputs, preds, graph.modules());
        (replay_idx, graph.add_mjoin(mj, None))
    });
    let max_bound = tuples[0].raw_score_product();
    let replay_id = graph.add_stream(StreamBacking::Replay { tuples, pos: 0 }, None);
    let (feeds_rm, probed) = match join {
        Some((replay_idx, rec_join)) => {
            graph.connect(replay_id, rec_join, replay_idx);
            // Sound (slightly loose) per-relation maxima for the capped
            // inputs: score components are in [0, 1].
            let other_rels = interner.rels(plan.sig).iter().copied();
            let probed = other_rels.filter(|r| !rels.contains(r)).map(|r| (r, 1.0));
            (rec_join, probed.collect())
        }
        None => (replay_id, plan.probed.clone()),
    };
    // Register CQ^e as another ranked input of the same UQ, reporting as
    // the original CQ.
    let cq_e = CqId::new(*next_recovery_cq);
    *next_recovery_cq += 1;
    let reg = CqRegistration {
        cq: cq_e,
        reports_as: plan.cq,
        score_fn: plan.score_fn.clone(),
        streaming: vec![StreamingInput {
            node: replay_id,
            rels,
            max_bound,
        }],
        probed,
    };
    let slot = graph.rank_merge_mut(rm_id).register(reg);
    graph.connect(feeds_rm, rm_id, slot);
    true
}
