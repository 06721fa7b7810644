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
//! ### Attach or prefill
//!
//! A producer's output is stored once, in one module its consumers share
//! (the `qsys_exec::access` docs), so a new consumer input gets that history
//! one of two ways (`QsManager::consumer_module`):
//!
//! - it **attaches** to the module the producer's existing consumers store
//!   into, whenever that module holds exactly what a prefill would, entry
//!   for entry: a stream leaf's module is its archive in archive order with
//!   the archive's epochs, which is what [`node_history`] returns for it; a
//!   module this graft itself prefilled for the producer holds that history
//!   by construction; and an empty module means the producer never emitted,
//!   so its reconstruction is empty too;
//! - otherwise it is **prefilled**: a fresh module gets [`node_history`],
//!   written uncharged, and the rest of the graft attaches to it. This is
//!   the m-join producer whose older consumers hold its outputs in
//!   *emission* order, while [`node_history`] reconstructs them in
//!   *replay* order stamped `e − 1` — the same set, in another order, and
//!   `recover_state` sorts a replay by score with ties broken by that
//!   order, so attaching there would move answers.
//!
//! Either way the new input's cursor starts at the module's length.

use qsys_exec::access::{AccessModule, AccessModuleArena, ModuleId};
use qsys_exec::mjoin::{JoinCx, MJoin, MJoinInput};
use qsys_exec::rank_merge::{CqRegistration, StreamingInput};
use qsys_exec::{ExecWork, NodeId, NodeKind, QueryPlanGraph, StreamBacking};
use qsys_opt::plan::CqPlan;
use qsys_query::SigInterner;
use qsys_types::{CqId, Epoch, SimClock, Tuple};

/// Pre-epoch output history of a node, with the epochs tuples arrived in.
///
/// - Stream leaves keep an explicit archive.
/// - m-joins reconstruct their output history by replaying one stored
///   input's pre-epoch entries against the other access modules capped at
///   the epoch — an in-memory, charge-free computation (the original
///   execution already paid for this work; reuse must not pay again).
///
/// Reconstruction probes and joins are counted into `work` (as
/// `recovery_*`: they run at graft, outside the routing loop).
pub fn node_history(
    graph: &QueryPlanGraph,
    node: NodeId,
    before: Epoch,
    work: &mut ExecWork,
) -> Vec<(Tuple, Epoch)> {
    match &graph.node(node).kind {
        NodeKind::Stream(leaf) => leaf
            .archive
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
        NodeKind::Split => graph
            .node(node)
            .parents
            .first()
            .map(|p| node_history(graph, *p, before, work))
            .unwrap_or_default(),
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
    // Temporary capped m-join borrowing the live modules by id (transient:
    // it never enters the graph, so it takes no arena references). The
    // replay input is detached — its tuples only ever *arrive*, so it
    // needs no module and nothing is double-inserted.
    let mut inputs: Vec<MJoinInput> = Vec::new();
    for (idx, input) in mj.inputs().iter().enumerate() {
        if idx == replay_idx {
            inputs.push(MJoinInput {
                rels: input.rels.clone(),
                module: ModuleId::DETACHED,
                epoch_cap: Some(before),
                store_arrivals: false,
                selection: None,
            });
        } else {
            inputs.push(MJoinInput {
                rels: input.rels.clone(),
                module: input.module,
                epoch_cap: Some(before),
                store_arrivals: false,
                selection: input.selection.clone(),
            });
        }
    }
    let mut temp = MJoin::new(inputs, mj.preds().to_vec(), modules);
    // Free in-memory recomputation: scratch clock and scratch sources.
    let scratch_sources =
        qsys_source::Sources::new(SimClock::new(), qsys_types::CostProfile::default(), 0);
    let cx = JoinCx {
        sources: &scratch_sources,
        governor: None,
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
/// trigger. For a stream-rooted (single-input) CQ the archive itself is the
/// missing output.
#[allow(clippy::too_many_arguments)]
pub fn recover_state(
    graph: &mut QueryPlanGraph,
    plan: &CqPlan,
    root: NodeId,
    rm_id: NodeId,
    epoch: Epoch,
    next_recovery_cq: &mut u32,
    interner: &SigInterner,
) -> bool {
    let (replay_tuples, rels): (Vec<Tuple>, Vec<_>) = match &graph.node(root).kind {
        NodeKind::Stream(leaf) => {
            let tuples: Vec<Tuple> = leaf
                .archive
                .iter()
                .filter(|(_, e)| *e < epoch)
                .map(|(t, _)| t.clone())
                .collect();
            (tuples, interner.rels(plan.sig).to_vec())
        }
        NodeKind::MJoin(_) => {
            // Find the richest pre-epoch streaming input to replay; if none
            // has history, nothing was missed. Collect everything needed
            // from the live join first: building the recovery join takes
            // arena references, which needs the graph borrow back.
            let (replay_idx, mut entries, rels, input_specs, preds) = {
                let NodeKind::MJoin(mj) = &graph.node(root).kind else {
                    unreachable!()
                };
                let Some((replay_idx, entries)) = richest_history(mj, graph.modules(), epoch)
                else {
                    return false;
                };
                let rels = mj.inputs()[replay_idx].rels.clone();
                let input_specs: Vec<(Vec<qsys_types::RelId>, ModuleId, Option<_>)> = mj
                    .inputs()
                    .iter()
                    .map(|i| (i.rels.clone(), i.module, i.selection.clone()))
                    .collect();
                (replay_idx, entries, rels, input_specs, mj.preds().to_vec())
            };
            // Replay must be nonincreasing in raw-score product for the
            // rank-merge threshold to be sound. Base-stream arrivals
            // already are; intermediate-component outputs arrive in
            // trigger order, so sort explicitly.
            entries.sort_by(|a, b| b.raw_score_product().total_cmp(&a.raw_score_product()));
            // Build the recovery m-join: the replay input is detached
            // (tuples only arrive on it), every other input shares the
            // live module — graph-resident, so each takes an arena
            // reference — capped at the epoch.
            let mut rec_inputs = Vec::new();
            for (idx, (in_rels, module_id, selection)) in input_specs.into_iter().enumerate() {
                if idx == replay_idx {
                    rec_inputs.push(MJoinInput {
                        rels: in_rels,
                        module: ModuleId::DETACHED,
                        epoch_cap: Some(epoch),
                        store_arrivals: false,
                        selection: None,
                    });
                } else {
                    rec_inputs.push(MJoinInput {
                        rels: in_rels,
                        module: graph.modules_mut().retain(module_id),
                        epoch_cap: Some(epoch),
                        store_arrivals: false,
                        selection,
                    });
                }
            }
            let rec_join = MJoin::new(rec_inputs, preds, graph.modules());
            let rec_join_id = graph.add_mjoin(rec_join, None);

            let max_bound = entries
                .first()
                .map(|t| t.raw_score_product())
                .unwrap_or(0.0);
            let replay_id = graph.add_stream(
                StreamBacking::Replay {
                    tuples: entries,
                    pos: 0,
                },
                None,
            );
            graph.connect(replay_id, rec_join_id, replay_idx);

            // Register CQ^e as another ranked input of the same UQ,
            // reporting as the original CQ.
            let cq_e = CqId::new(*next_recovery_cq);
            *next_recovery_cq += 1;
            let other_rels: Vec<_> = interner
                .rels(plan.sig)
                .iter()
                .copied()
                .filter(|r| !rels.contains(r))
                .collect();
            let probed = other_rels
                .into_iter()
                .map(|r| {
                    // Sound (slightly loose) per-relation maxima for the
                    // capped inputs: score components are in [0, 1].
                    (r, 1.0)
                })
                .collect();
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
            graph.connect(rec_join_id, rm_id, slot);
            return true;
        }
        _ => (Vec::new(), Vec::new()),
    };

    // Stream-rooted CQ: replay the archive straight into the rank-merge.
    if replay_tuples.is_empty() {
        return false;
    }
    let cq_e = CqId::new(*next_recovery_cq);
    *next_recovery_cq += 1;
    let max_bound = replay_tuples
        .first()
        .map(|t| t.raw_score_product())
        .unwrap_or(0.0);
    let replay_id = graph.add_stream(
        StreamBacking::Replay {
            tuples: replay_tuples,
            pos: 0,
        },
        None,
    );
    let reg = CqRegistration {
        cq: cq_e,
        reports_as: plan.cq,
        score_fn: plan.score_fn.clone(),
        streaming: vec![StreamingInput {
            node: replay_id,
            rels,
            max_bound,
        }],
        probed: plan.probed.clone(),
    };
    let slot = graph.rank_merge_mut(rm_id).register(reg);
    graph.connect(replay_id, rm_id, slot);
    true
}
