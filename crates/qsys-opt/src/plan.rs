//! The optimizer facade and plan-graph factorization (Section 5.2).
//!
//! [`Optimizer::optimize`] plans each user query of a batch alone (one
//! BestPlan search each) and factorizes the merged assignment once, so the
//! batch's queries share what they chose in common.
//!
//! After BestPlan fixes the input assignment, the middleware portion of the
//! plan is factored into shared components: subexpression outputs consumed
//! by several conjunctive queries are computed once and fed onward (the
//! paper's split operators — realized here as fan-out edges in the plan
//! graph). Join ordering *within* each component is deferred to the
//! m-join's runtime adaptivity, exactly as the paper prescribes ("defer
//! decisions about join ordering within each component to runtime").
//!
//! The output is a declarative [`PlanSpec`] that the query state manager
//! instantiates into (or grafts onto) a live
//! [`QueryPlanGraph`](../qsys_exec/graph/struct.QueryPlanGraph.html).
//! Spec nodes carry interned [`SigId`]s from the lane's shared
//! [`SigInterner`] — the same ids the QS manager's reuse index and the plan
//! graph's signature index are keyed on, so grafting matches nodes with
//! `u32` compares and no signature is ever cloned into a spec.

use crate::bestplan::{BestPlanSearch, OptStats, SearchSeed};
use crate::cost::{CostModel, ReuseOracle};
use crate::heuristics::{enumerate_candidates, is_streamable, HeuristicConfig};
use crate::retired::WarmCell;
use qsys_catalog::Catalog;
use qsys_query::{ConjunctiveQuery, CqTable, ScoreFn, SigCell, SigId, SigInterner};
use qsys_types::clock::OPT_STEP_US;
use qsys_types::{
    CostProfile, CqId, JoinCond, RelId, Selection, SimClock, TimeCategory, UqId, UserId,
};
use std::collections::{BTreeMap, HashMap};

/// What a spec node computes.
#[derive(Clone, Debug)]
pub enum SpecNodeKind {
    /// A remote stream: a base relation scan or a pushed-down SPJ
    /// subexpression, described entirely by the node's signature.
    Stream,
    /// A middleware m-join over other spec nodes plus probed relations.
    Join {
        /// Indices of input spec nodes.
        inputs: Vec<usize>,
        /// Random-access relations probed within this join, with their
        /// residual selections.
        probes: Vec<(RelId, Option<Selection>)>,
        /// Join predicates evaluated here, in their CQ's own orientation.
        preds: Vec<JoinCond>,
    },
}

/// One node of the declarative plan.
#[derive(Clone, Debug)]
pub struct SpecNode {
    /// Interned signature of the node's output (streamed relations only —
    /// probe results join in transiently).
    pub sig: SigId,
    /// The operator.
    pub kind: SpecNodeKind,
    /// Whether this node may be merged with identically-signed state
    /// (subexpression sharing / reuse across time). `false` under the
    /// ATC-CQ baseline.
    pub share: bool,
}

/// Per-conjunctive-query wiring.
#[derive(Clone, Debug)]
pub struct CqPlan {
    /// The conjunctive query.
    pub cq: CqId,
    /// Its user query.
    pub uq: UqId,
    /// The posing user.
    pub user: UserId,
    /// Score function.
    pub score_fn: ScoreFn,
    /// Interned whole-query signature.
    pub sig: SigId,
    /// Spec node whose output is the CQ's full result.
    pub root: usize,
    /// Relations probed (not streamed) for this CQ, with max raw scores.
    pub probed: Vec<(RelId, f64)>,
}

/// A declarative query plan for one batch.
#[derive(Clone, Debug, Default)]
pub struct PlanSpec {
    /// Producer nodes, topologically ordered (inputs precede consumers).
    pub nodes: Vec<SpecNode>,
    /// One entry per conjunctive query in the batch.
    pub cq_plans: Vec<CqPlan>,
    /// Resident subexpressions the plan was costed on, ascending: graft
    /// protects them from eviction until the lane's batch has run. Section
    /// 6.1: the optimizer "prevents J from being evicted, by requesting that
    /// the QS Manager 'pin' J down".
    pub pins: Vec<SigId>,
}

impl PlanSpec {
    /// Stream leaves reachable from `node`, with their covered relations.
    #[cfg(test)]
    pub(crate) fn stream_leaves_of(&self, node: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(i) = stack.pop() {
            match &self.nodes[i].kind {
                SpecNodeKind::Stream => out.push(i),
                SpecNodeKind::Join { inputs, .. } => stack.extend(inputs.iter().copied()),
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Optimizer configuration.
#[derive(Clone, Debug)]
pub struct OptimizerConfig {
    /// Results requested per user query.
    pub k: usize,
    /// Pruning heuristics.
    pub heuristics: HeuristicConfig,
    /// Retired: the optimizer prices reads with `qsys_types::clock`'s
    /// constants, the ones the sources charge. Kept only because the
    /// benchmark names it.
    pub cost_profile: CostProfile,
    /// Whether to share subexpressions across the batch (BATCH-OPT /
    /// ATC-UQ / ATC-FULL). When `false` (ATC-CQ), every conjunctive query
    /// is planned in isolation and nothing is merged.
    pub share_subexpressions: bool,
    /// Retired: a one-value field that keeps the benchmark's
    /// `..OptimizerConfig::default()` from naming every field (which
    /// clippy's `needless_update` refuses) now that the optimizer step is
    /// `qsys_types::clock::OPT_STEP_US`. ROADMAP item 1(b) removes it with
    /// `cost_profile`.
    pub retired: (),
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            k: 50,
            heuristics: HeuristicConfig::default(),
            cost_profile: CostProfile::default(),
            share_subexpressions: true,
            retired: (),
        }
    }
}

/// The multiple-query optimizer.
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
    /// Configuration (public: the engine tweaks sharing per configuration).
    pub config: OptimizerConfig,
}

impl<'a> Optimizer<'a> {
    /// Build an optimizer over a catalog.
    pub fn new(catalog: &'a Catalog, config: OptimizerConfig) -> Optimizer<'a> {
        Optimizer { catalog, config }
    }

    /// Optimize a batch of conjunctive queries into a plan spec.
    ///
    /// `reuse` reports in-memory state from prior executions; `clock`
    /// receives the optimization-time charge (Figure 11); `interner` is the
    /// lane's shared signature interner — the spec's [`SigId`]s, the reuse
    /// oracle's keys, and the plan graph's index all name signatures
    /// through it.
    ///
    /// BestPlan runs once per user query of the batch, in ascending id
    /// order, over that user query's conjunctive queries alone; the
    /// searches' assignments are concatenated and factorized once. A stream
    /// or component two user queries chose is therefore one shared spec
    /// node, and graft shares it with live state across batches. Batch
    /// sharing pays through shared state, not through a joint search over
    /// the cost model. This deviates from the paper, whose BestPlan searches
    /// the whole batch at once: under this cost model the joint objective
    /// chose batch-wide push-downs that read more tuples than the queries'
    /// own plans, so a batch read more than its queries optimized one at a
    /// time.
    ///
    /// One serial pass ([`seed_searches`](Self::seed_searches)) interns
    /// everything the searches name and asks `reuse` everything they need
    /// before any search runs; the searches then only read. The oracle is
    /// never written to: the resident candidates the plan relies on travel
    /// in [`PlanSpec::pins`], and graft pins them.
    ///
    /// A search enumerates no push-down candidates, and explores its one
    /// default state, without sharing (ATC-CQ: factorization then gives
    /// every query private leaves) or when `reuse` reports every query of
    /// its user query resident whole: graft merges each root with its live
    /// node without building the spec below it, so a searched candidate
    /// could not change the graph. Such a query pins nothing; the roots it
    /// merges with gain consumers at graft, which keeps them and their
    /// producers from eviction.
    pub fn optimize(
        &self,
        batch: &[(&ConjunctiveQuery, &ScoreFn)],
        reuse: &dyn ReuseOracle,
        clock: Option<&SimClock>,
        interner: &SigCell,
    ) -> (PlanSpec, OptStats) {
        let model = CostModel::new(self.catalog, self.config.k);
        let mut guard = interner.borrow_mut();
        // Whole-query signatures, in batch order, interned before any
        // subexpression (the goldens compare spec dumps, ids included).
        let whole_of: Vec<SigId> = batch.iter().map(|(cq, _)| guard.of_cq(cq)).collect();
        let (seeds, pins) = self.seed_searches(batch, &whole_of, &model, reuse, &mut guard);

        let mut assignment: Vec<(SigId, Vec<CqId>)> = Vec::new();
        let mut stats = OptStats::default();
        for seed in &seeds {
            let (part, s) = BestPlanSearch::new(&model, &guard, seed).run();
            assignment.extend(part.into_iter().map(|c| {
                let cqs = c.queries.iter().map(|qi| seed.table.id(qi)).collect();
                (c.sig, cqs)
            }));
            stats.candidates += s.candidates;
            stats.explored += s.explored;
            stats.memo_hits += s.memo_hits;
            stats.best_cost += s.best_cost;
        }
        charge(clock, &stats);
        let mut spec = self.factorize(batch, &whole_of, &assignment, &model, &mut guard);
        spec.pins = pins;
        (spec, stats)
    }

    /// The serial pass: one [`SearchSeed`] per user query of `batch`, in
    /// ascending id order (`whole_of[i]` is `batch[i]`'s whole signature),
    /// and the resident candidates to pin, ascending and once each. Per user
    /// query it interns its candidates, then its defaults: the order in
    /// which searches that interned for themselves, one after another, did,
    /// so every `SigId` (and every spec dump) is theirs. No push-down
    /// candidates are enumerated without sharing or when every query is
    /// resident whole.
    fn seed_searches(
        &self,
        batch: &[(&ConjunctiveQuery, &ScoreFn)],
        whole_of: &[SigId],
        model: &CostModel<'_>,
        reuse: &dyn ReuseOracle,
        interner: &mut SigInterner,
    ) -> (Vec<SearchSeed>, Vec<SigId>) {
        let mut groups: BTreeMap<UqId, Vec<usize>> = BTreeMap::new();
        for (i, (cq, _)) in batch.iter().enumerate() {
            groups.entry(cq.uq).or_default().push(i);
        }
        let mut pins = Vec::new();
        let mut seeds = Vec::with_capacity(groups.len());
        for members in groups.values() {
            let queries: Vec<&ConjunctiveQuery> = members.iter().map(|&i| batch[i].0).collect();
            let whole: Vec<SigId> = members.iter().map(|&i| whole_of[i]).collect();
            // The search's dense query index: every query set it touches
            // is a CqSet bitmask over this table.
            let table = CqTable::from_queries(queries.iter().copied());
            let candidates = if !self.config.share_subexpressions
                || whole.iter().all(|&w| reuse.streamed(w).is_some())
            {
                Vec::new()
            } else {
                let heuristics = &self.config.heuristics;
                enumerate_candidates(&queries, &whole, model, heuristics, interner, &table)
            };
            let seed = SearchSeed::new(&queries, &whole, table, candidates, reuse, interner);
            // Pin the resident candidate inputs planned on (Section 6.1).
            // An all-resident user query has none to pin: each root it
            // merges with gains a rank-merge consumer at graft, and eviction
            // never takes a node with consumers or its producers.
            pins.extend(seed.resident_candidates());
            seeds.push(seed);
        }
        pins.sort_unstable();
        pins.dedup();
        (seeds, pins)
    }

    /// What [`optimize`](Self::optimize) reports, in closed form, for a
    /// batch of `uqs` user queries every conjunctive query of which the
    /// reuse oracle reports resident whole. The serial pass
    /// (`seed_searches`) enumerates no candidate for such a user query, so
    /// its search explores its one default state, with no memo hit: the
    /// batch explores `uqs` states, and `clock` is charged for them as
    /// `optimize` charges. Nothing is costed, so `best_cost` is 0. The
    /// engine answers a batch whose every user query has a retained answer
    /// without planning it; this keeps the batch's optimizer charge and
    /// report what the search would have made them.
    pub fn all_resident(uqs: usize, clock: Option<&SimClock>) -> OptStats {
        let stats = OptStats {
            explored: uqs,
            ..OptStats::default()
        };
        charge(clock, &stats);
        stats
    }

    /// [`Optimizer::optimize`], under the name the benchmark's shadow lane
    /// calls; the retired warm-store handle is ignored.
    pub fn optimize_warm(
        &self,
        batch: &[(&ConjunctiveQuery, &ScoreFn)],
        reuse: &dyn ReuseOracle,
        clock: Option<&SimClock>,
        interner: &SigCell,
        _: Option<&WarmCell>,
    ) -> (PlanSpec, OptStats) {
        self.optimize(batch, reuse, clock, interner)
    }

    /// Section 5.2: factor the assignment — each input's signature with the
    /// queries it sources, in ascending `CqId` order — into a shared
    /// component DAG (`whole_of[i]` is `batch[i]`'s whole signature).
    fn factorize(
        &self,
        batch: &[(&ConjunctiveQuery, &ScoreFn)],
        whole_of: &[SigId],
        assignment: &[(SigId, Vec<CqId>)],
        model: &CostModel<'_>,
        interner: &mut SigInterner,
    ) -> PlanSpec {
        let share = self.config.share_subexpressions;
        let mut spec = PlanSpec::default();
        // Stream inputs become leaves; probe inputs attach to final joins.
        let mut leaf_of_sig: HashMap<SigId, usize> = HashMap::new();
        let mut term_map: BTreeMap<CqId, Vec<usize>> = BTreeMap::new();
        let mut probe_map: BTreeMap<CqId, Vec<(RelId, Option<Selection>)>> = BTreeMap::new();
        for (sig, cqs) in assignment {
            let sig = *sig;
            let streamed = interner.rels(sig).iter().all(|r| is_streamable(model, *r));
            if streamed {
                if share {
                    // One shared leaf per signature.
                    let idx = *leaf_of_sig.entry(sig).or_insert_with(|| {
                        spec.nodes.push(SpecNode {
                            sig,
                            kind: SpecNodeKind::Stream,
                            share: true,
                        });
                        spec.nodes.len() - 1
                    });
                    for cq in cqs {
                        term_map.entry(*cq).or_default().push(idx);
                    }
                } else {
                    // ATC-CQ: a private leaf per consumer.
                    for cq in cqs {
                        spec.nodes.push(SpecNode {
                            sig,
                            kind: SpecNodeKind::Stream,
                            share: false,
                        });
                        term_map.entry(*cq).or_default().push(spec.nodes.len() - 1);
                    }
                }
            } else {
                debug_assert_eq!(interner.size(sig), 1, "probe inputs are single relations");
                let (rel, sel) = interner.resolve(sig).atoms[0].clone();
                for cq in cqs {
                    probe_map.entry(*cq).or_default().push((rel, sel.clone()));
                }
            }
        }

        // Greedy component merging: repeatedly combine the pair of terms
        // co-appearing (joinable, identically) in the most queries. Each
        // round walks the term lists once, in ascending `CqId` order,
        // recording every co-appearing pair at first sight with the queries
        // holding it — so each holder list comes out sorted.
        if share {
            let mut pair_slot: HashMap<(usize, usize), usize> = HashMap::new();
            let mut pairs: Vec<((usize, usize), Vec<CqId>)> = Vec::new();
            loop {
                pair_slot.clear();
                pairs.clear();
                for (cq, terms) in &term_map {
                    for i in 0..terms.len() {
                        for j in i + 1..terms.len() {
                            let (x, y) = (terms[i].min(terms[j]), terms[i].max(terms[j]));
                            if x == y {
                                continue;
                            }
                            let slot = *pair_slot.entry((x, y)).or_insert_with(|| {
                                pairs.push(((x, y), Vec::new()));
                                pairs.len() - 1
                            });
                            let holders = &mut pairs[slot].1;
                            if holders.last() != Some(cq) {
                                holders.push(*cq);
                            }
                        }
                    }
                }
                // First pair seen with the most holders wins: a later pair
                // replaces the best so far only with strictly more, so one
                // that cannot is skipped before its predicates are built.
                let mut best: Option<(usize, usize, Vec<CqId>, Vec<JoinCond>)> = None;
                for ((x, y), holders) in &pairs {
                    let to_beat = best.as_ref().map_or(1, |(_, _, users, _)| users.len());
                    if holders.len() <= to_beat {
                        continue;
                    }
                    if let Some(preds) = self.common_preds(batch, holders, &spec, *x, *y, interner)
                    {
                        best = Some((*x, *y, holders.clone(), preds));
                    }
                }
                let Some((x, y, users, preds)) = best else {
                    break;
                };
                let combined = interner.combine(spec.nodes[x].sig, spec.nodes[y].sig, &preds);
                spec.nodes.push(SpecNode {
                    sig: combined,
                    kind: SpecNodeKind::Join {
                        inputs: vec![x, y],
                        probes: Vec::new(),
                        preds,
                    },
                    share: true,
                });
                let new_idx = spec.nodes.len() - 1;
                for cq in users {
                    let terms = term_map.get_mut(&cq).expect("user has terms");
                    terms.retain(|&t| t != x && t != y);
                    terms.push(new_idx);
                }
            }
        }

        // Final m-join per CQ.
        for ((cq, score_fn), &whole) in batch.iter().zip(whole_of) {
            let terms = term_map.remove(&cq.id).unwrap_or_default();
            let probes = probe_map.remove(&cq.id).unwrap_or_default();
            let root = if terms.len() == 1 && probes.is_empty() {
                terms[0]
            } else {
                let covered: Vec<&[RelId]> = terms
                    .iter()
                    .map(|&t| interner.rels(spec.nodes[t].sig))
                    .collect();
                let preds = residual_preds(cq, &covered);
                spec.nodes.push(SpecNode {
                    sig: whole,
                    kind: SpecNodeKind::Join {
                        inputs: terms,
                        probes: probes.clone(),
                        preds,
                    },
                    share,
                });
                spec.nodes.len() - 1
            };
            let probed = probes
                .iter()
                .map(|(r, _)| (*r, self.catalog.relation(*r).stats.max_score))
                .collect();
            spec.cq_plans.push(CqPlan {
                cq: cq.id,
                uq: cq.uq,
                user: cq.user,
                score_fn: (*score_fn).clone(),
                sig: whole,
                root,
                probed,
            });
        }
        spec
    }

    /// The connecting predicates of terms `x` and `y` if they can merge —
    /// every query in `users` (those currently holding both) joins them,
    /// and all identically.
    fn common_preds(
        &self,
        batch: &[(&ConjunctiveQuery, &ScoreFn)],
        users: &[CqId],
        spec: &PlanSpec,
        x: usize,
        y: usize,
        interner: &SigInterner,
    ) -> Option<Vec<JoinCond>> {
        let rels_x = interner.rels(spec.nodes[x].sig);
        let rels_y = interner.rels(spec.nodes[y].sig);
        let mut common: Option<Vec<JoinCond>> = None;
        for cq_id in users {
            let (cq, _) = batch.iter().find(|(c, _)| c.id == *cq_id)?;
            let mut preds: Vec<JoinCond> = cq
                .joins
                .iter()
                .map(|j| j.on)
                .filter(|j| {
                    rels_x.contains(&j.left) && rels_y.contains(&j.right)
                        || rels_x.contains(&j.right) && rels_y.contains(&j.left)
                })
                .collect();
            preds.sort();
            if preds.is_empty() {
                return None;
            }
            match &common {
                None => common = Some(preds),
                Some(c) if *c == preds => {}
                Some(_) => return None, // queries join these terms differently
            }
        }
        common
    }
}

/// Charge `clock` the optimization time of a search that reported `stats`:
/// [`OPT_STEP_US`] per explored state (Figure 11).
fn charge(clock: Option<&SimClock>, stats: &OptStats) {
    if let Some(clock) = clock {
        clock.charge(TimeCategory::Optimize, stats.explored as u64 * OPT_STEP_US);
    }
}

/// Join predicates of `cq` not internal to any single covered term.
fn residual_preds(cq: &ConjunctiveQuery, covered: &[&[RelId]]) -> Vec<JoinCond> {
    cq.joins
        .iter()
        .map(|j| j.on)
        .filter(|j| {
            !covered
                .iter()
                .any(|rels| rels.contains(&j.left) && rels.contains(&j.right))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bestplan::Assignment;
    use crate::cost::NoReuse;
    use qsys_catalog::{CatalogBuilder, ColumnStats, EdgeKind, RelationStats};
    use qsys_query::{CqAtom, CqJoin, SigInterner};
    use qsys_types::SourceId;

    /// Chain of five scored relations, generous sharing.
    fn catalog() -> Catalog {
        chain_catalog(5, 5)
    }

    /// Chain of `len` relations, the first `scored` of them scored (the
    /// rest are too large to stream, so they are probed).
    fn chain_catalog(len: u32, scored: u32) -> Catalog {
        let mut b = CatalogBuilder::default();
        let mut ids = Vec::new();
        for i in 0..len {
            let mut stats = RelationStats::with_cardinality(5_000);
            stats.columns = vec![ColumnStats { distinct: 200 }, ColumnStats { distinct: 200 }];
            ids.push(b.relation(
                format!("R{i}"),
                SourceId::new(0),
                vec!["k".into(), "j".into()],
                (i < scored).then_some(0),
                1.0,
                stats,
            ));
        }
        for w in ids.windows(2) {
            b.edge(w[0], 1, w[1], 0, EdgeKind::ForeignKey, 1.0, 2.0);
        }
        b.build()
    }

    fn path_cq(id: u32, catalog: &Catalog, from: u32, len: u32, uq: u32) -> ConjunctiveQuery {
        let rels: Vec<RelId> = (from..from + len).map(RelId::new).collect();
        let atoms = rels
            .iter()
            .map(|&rel| CqAtom {
                rel,
                selection: None,
            })
            .collect();
        let joins = rels
            .windows(2)
            .map(|w| {
                let e = catalog.edge_between(w[0], w[1]).unwrap();
                CqJoin {
                    edge: e.id,
                    on: JoinCond {
                        left: e.from,
                        left_col: e.from_col,
                        right: e.to,
                        right_col: e.to_col,
                    },
                }
            })
            .collect();
        ConjunctiveQuery::new(CqId::new(id), UqId::new(uq), UserId::new(0), atoms, joins)
    }

    fn fresh_interner() -> SigCell {
        SigCell::new(SigInterner::new())
    }

    #[test]
    fn shared_batch_reuses_stream_leaves() {
        let cat = catalog();
        let opt = Optimizer::new(&cat, OptimizerConfig::default());
        let f = ScoreFn::discover(UserId::new(0), 3);
        let q1 = path_cq(0, &cat, 0, 3, 0);
        let q2 = path_cq(1, &cat, 0, 4, 0);
        let batch = vec![(&q1, &f), (&q2, &f)];
        let interner = fresh_interner();
        let (spec, _) = opt.optimize(&batch, &NoReuse, None, &interner);
        assert_eq!(spec.cq_plans.len(), 2);
        // The shared R0 leaf appears once.
        let it = interner.borrow();
        let r0_leaves = spec
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, SpecNodeKind::Stream) && it.rels(n.sig) == [RelId::new(0)])
            .count();
        assert_eq!(r0_leaves, 1, "{spec:#?}");
        // Both CQ roots resolve to leaves.
        for plan in &spec.cq_plans {
            assert!(!spec.stream_leaves_of(plan.root).is_empty());
        }
    }

    #[test]
    fn unshared_batch_duplicates_leaves() {
        let cat = catalog();
        let config = OptimizerConfig {
            share_subexpressions: false,
            ..OptimizerConfig::default()
        };
        let opt = Optimizer::new(&cat, config);
        let f = ScoreFn::discover(UserId::new(0), 3);
        let q1 = path_cq(0, &cat, 0, 3, 0);
        let q2 = path_cq(1, &cat, 0, 3, 0);
        let batch = vec![(&q1, &f), (&q2, &f)];
        let interner = fresh_interner();
        let (spec, stats) = opt.optimize(&batch, &NoReuse, None, &interner);
        assert_eq!(stats.candidates, 0, "no MQO under ATC-CQ");
        let it = interner.borrow();
        let r0_leaves = spec
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, SpecNodeKind::Stream) && it.rels(n.sig) == [RelId::new(0)])
            .count();
        assert_eq!(r0_leaves, 2, "one private leaf per CQ");
    }

    #[test]
    fn factorization_merges_common_components() {
        let cat = catalog();
        let config = OptimizerConfig {
            // Force pure middleware plans so the merge step is exercised:
            // no pushdowns (min_sharing unreachable, high cardinality bar).
            heuristics: HeuristicConfig {
                min_sharing: 99,
                low_cardinality: 0.0,
                ..HeuristicConfig::default()
            },
            ..OptimizerConfig::default()
        };
        let opt = Optimizer::new(&cat, config);
        let f = ScoreFn::discover(UserId::new(0), 3);
        let q1 = path_cq(0, &cat, 0, 3, 0);
        let q2 = path_cq(1, &cat, 0, 4, 0);
        let q3 = path_cq(2, &cat, 0, 5, 0);
        let batch = vec![(&q1, &f), (&q2, &f), (&q3, &f)];
        let interner = fresh_interner();
        let (spec, _) = opt.optimize(&batch, &NoReuse, None, &interner);
        // Some intermediate join component is consumed more than once —
        // by downstream joins or directly as a CQ root.
        let join_nodes: Vec<usize> = spec
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.kind, SpecNodeKind::Join { .. }))
            .map(|(i, _)| i)
            .collect();
        let uses = |idx: usize| {
            let as_input = spec
                .nodes
                .iter()
                .filter(|n| match &n.kind {
                    SpecNodeKind::Join { inputs, .. } => inputs.contains(&idx),
                    _ => false,
                })
                .count();
            let as_root = spec.cq_plans.iter().filter(|p| p.root == idx).count();
            as_input + as_root
        };
        assert!(
            join_nodes.iter().any(|&j| uses(j) >= 2),
            "expected a shared middleware component: {spec:#?}"
        );
    }

    #[test]
    fn optimizer_charges_the_clock() {
        let cat = catalog();
        let opt = Optimizer::new(&cat, OptimizerConfig::default());
        let f = ScoreFn::discover(UserId::new(0), 3);
        let q1 = path_cq(0, &cat, 0, 4, 0);
        let q2 = path_cq(1, &cat, 1, 4, 0);
        let clock = SimClock::new();
        let batch = vec![(&q1, &f), (&q2, &f)];
        let interner = fresh_interner();
        let (_, stats) = opt.optimize(&batch, &NoReuse, Some(&clock), &interner);
        assert!(clock.breakdown().optimize_us > 0);
        assert!(stats.explored >= 1);
    }

    #[test]
    fn single_cq_single_relation_plan() {
        let cat = catalog();
        let opt = Optimizer::new(&cat, OptimizerConfig::default());
        let f = ScoreFn::discover(UserId::new(0), 1);
        let q = path_cq(0, &cat, 2, 1, 0);
        let batch = vec![(&q, &f)];
        let interner = fresh_interner();
        let (spec, _) = opt.optimize(&batch, &NoReuse, None, &interner);
        assert_eq!(spec.cq_plans.len(), 1);
        let root = spec.cq_plans[0].root;
        assert!(matches!(spec.nodes[root].kind, SpecNodeKind::Stream));
    }

    /// Reports the listed signatures resident, nothing else.
    struct Resident(Vec<SigId>);

    impl ReuseOracle for Resident {
        fn streamed(&self, sig: SigId) -> Option<u64> {
            self.0.contains(&sig).then_some(1_000)
        }
    }

    /// Three overlapping chain queries; the third probes R4.
    fn overlapping_batch(cat: &Catalog) -> [ConjunctiveQuery; 3] {
        [
            path_cq(0, cat, 0, 3, 0),
            path_cq(1, cat, 0, 4, 1),
            path_cq(2, cat, 1, 4, 2),
        ]
    }

    /// Optimize `cqs` on a fresh interner with the whole signature of
    /// every query `resident` names reported resident.
    fn optimize_resident(
        opt: &Optimizer<'_>,
        cqs: &[ConjunctiveQuery],
        resident: impl Fn(usize) -> bool,
    ) -> (PlanSpec, OptStats) {
        let f = ScoreFn::discover(UserId::new(0), 4);
        let batch: Vec<_> = cqs.iter().map(|cq| (cq, &f)).collect();
        let interner = fresh_interner();
        let whole = cqs.iter().map(|cq| interner.borrow_mut().of_cq(cq));
        let oracle = Resident(
            whole
                .enumerate()
                .filter(|&(i, _)| resident(i))
                .map(|(_, w)| w)
                .collect(),
        );
        opt.optimize(&batch, &oracle, None, &interner)
    }

    /// What graft reads of one query's wiring: its ids, whole signature,
    /// probed relations' score bits, and whether its root is the shared
    /// whole-signature node graft merges with.
    type Wiring = (CqId, UqId, UserId, SigId, Vec<(RelId, u64)>, bool);

    fn wiring(spec: &PlanSpec) -> Vec<Wiring> {
        spec.cq_plans
            .iter()
            .map(|p| {
                let root = &spec.nodes[p.root];
                let probed = p.probed.iter().map(|&(r, s)| (r, s.to_bits())).collect();
                let merges = root.sig == p.sig && root.share;
                (p.cq, p.uq, p.user, p.sig, probed, merges)
            })
            .collect()
    }

    /// FNV-1a over a spec's dump without its pins (the text a whole spec's
    /// `Debug` printed before it had them), with the search counters and
    /// cost bits.
    fn decision(spec: &PlanSpec, stats: &OptStats) -> (usize, usize, usize, u64, u64) {
        let (nodes, cq_plans) = (&spec.nodes, &spec.cq_plans);
        let dump = format!("PlanSpec {{ nodes: {nodes:?}, cq_plans: {cq_plans:?} }}");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in dump.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let (e, m, c) = (stats.explored, stats.memo_hits, stats.candidates);
        (e, m, c, stats.best_cost.to_bits(), h)
    }

    #[test]
    fn all_resident_batch_searches_no_candidates() {
        let cat = chain_catalog(5, 4);
        // Cheap enough that each one-query user query keeps candidates.
        let config = OptimizerConfig {
            heuristics: HeuristicConfig {
                low_cardinality: f64::INFINITY,
                ..HeuristicConfig::default()
            },
            ..OptimizerConfig::default()
        };
        let opt = Optimizer::new(&cat, config);
        let cqs = overlapping_batch(&cat);
        let (spec, stats) = optimize_resident(&opt, &cqs, |_| true);
        // One default state per user query.
        assert_eq!((stats.candidates, stats.explored), (0, 3));
        assert_eq!(stats.memo_hits, 0);
        // The same batch with its residency hidden searches candidates,
        // and graft would read the same wiring off either spec.
        let (searched, searched_stats) = optimize_resident(&opt, &cqs, |_| false);
        assert!(searched_stats.candidates > 0 && searched_stats.explored > 1);
        let got = wiring(&spec);
        assert_eq!(got, wiring(&searched));
        assert!(got.iter().all(|w| w.5), "every root merges: {spec:#?}");
        assert!(got.iter().any(|w| !w.4.is_empty()), "a query probes");
    }

    #[test]
    fn resident_batch_searches_as_before_unless_all_merge() {
        // One query not resident: its user query searches, and each of
        // the other two explores its one default state.
        let cat = chain_catalog(5, 4);
        let opt = Optimizer::new(&cat, OptimizerConfig::default());
        let cqs = overlapping_batch(&cat);
        let (spec, stats) = optimize_resident(&opt, &cqs, |i| i != 1);
        assert_eq!(decision(&spec, &stats), MIXED);
        // Query 1's search keeps no multi-relation candidate, and no
        // single relation is resident.
        assert_eq!(spec.pins, []);
        // ATC-CQ never merges at graft, so residency leaves it alone too.
        let unshared = Optimizer::new(
            &cat,
            OptimizerConfig {
                share_subexpressions: false,
                ..OptimizerConfig::default()
            },
        );
        let (spec, stats) = optimize_resident(&unshared, &cqs, |_| true);
        assert_eq!(decision(&spec, &stats), UNSHARED);
        assert_eq!(spec.pins, [], "no candidates, no pins");
    }

    /// Two user queries of two queries each; every query starts with
    /// R0 ⋈ R1, so each user query's search sees it shared.
    fn two_user_queries(cat: &Catalog) -> [ConjunctiveQuery; 4] {
        [
            path_cq(0, cat, 0, 3, 0),
            path_cq(1, cat, 0, 4, 0),
            path_cq(2, cat, 0, 3, 1),
            path_cq(3, cat, 0, 5, 1),
        ]
    }

    #[test]
    fn user_queries_planned_alone_share_one_stream_leaf() {
        let cat = catalog();
        let opt = Optimizer::new(&cat, OptimizerConfig::default());
        let cqs = two_user_queries(&cat);
        let f = ScoreFn::discover(UserId::new(0), 4);
        let batch: Vec<_> = cqs.iter().map(|cq| (cq, &f)).collect();
        let interner = fresh_interner();
        let (spec, stats) = opt.optimize(&batch, &NoReuse, None, &interner);
        assert!(stats.candidates > 0, "each user query searches");
        // One stream leaf per signature across both searches.
        let leaves: Vec<SigId> = spec
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, SpecNodeKind::Stream))
            .map(|n| n.sig)
            .collect();
        let mut distinct = leaves.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(leaves.len(), distinct.len(), "{spec:#?}");
        // The R0 leaf feeds queries of both user queries.
        let it = interner.borrow();
        let r0 = spec
            .nodes
            .iter()
            .position(|n| {
                matches!(n.kind, SpecNodeKind::Stream) && it.rels(n.sig) == [RelId::new(0)]
            })
            .expect("an R0 leaf");
        let consumers: Vec<UqId> = spec
            .cq_plans
            .iter()
            .filter(|p| spec.stream_leaves_of(p.root).contains(&r0))
            .map(|p| p.uq)
            .collect();
        assert_eq!(
            consumers,
            [UqId::new(0), UqId::new(0), UqId::new(1), UqId::new(1)]
        );
    }

    #[test]
    fn resident_user_query_adds_one_state_to_the_batch() {
        let cat = catalog();
        let opt = Optimizer::new(&cat, OptimizerConfig::default());
        let cqs = two_user_queries(&cat);
        // User query 0 resident whole, user query 1 not.
        let (_, mixed) = optimize_resident(&opt, &cqs, |i| i < 2);
        let (_, alone) = optimize_resident(&opt, &cqs[2..], |_| false);
        assert!(alone.candidates > 0 && alone.explored > 1);
        assert_eq!(mixed.candidates, alone.candidates);
        assert_eq!(mixed.explored, alone.explored + 1);
        assert_eq!(mixed.memo_hits, alone.memo_hits);
    }

    /// A batch's searches are independent once the serial pass has seeded
    /// them: run in reverse user-query order, or one on a worker thread,
    /// each plans exactly what it plans in order — assignment, counters and
    /// cost bits.
    #[test]
    fn seeded_searches_run_in_any_order_on_any_thread() {
        let cat = catalog();
        let opt = Optimizer::new(&cat, OptimizerConfig::default());
        let cqs = two_user_queries(&cat);
        let f = ScoreFn::discover(UserId::new(0), 4);
        let batch: Vec<_> = cqs.iter().map(|cq| (cq, &f)).collect();
        let model = CostModel::new(&cat, opt.config.k);
        let mut interner = SigInterner::new();
        let whole_of: Vec<SigId> = cqs.iter().map(|cq| interner.of_cq(cq)).collect();
        // R0 ⋈ R1 ⋈ R2 resident: a candidate of both user queries.
        let oracle = Resident(vec![whole_of[0]]);
        let (seeds, pins) = opt.seed_searches(&batch, &whole_of, &model, &oracle, &mut interner);
        assert_eq!((seeds.len(), &pins), (2, &vec![whole_of[0]]));
        let (spec, _) = opt.optimize(&batch, &oracle, None, &fresh_interner());
        assert_eq!(spec.pins, pins, "the spec carries the pass's pins");

        let interner = &interner;
        let bits = |(plan, stats): (Assignment, OptStats)| {
            let counters = (stats.candidates, stats.explored, stats.memo_hits);
            (plan, counters, stats.best_cost.to_bits())
        };
        let run = |seed| bits(BestPlanSearch::new(&model, interner, seed).run());
        let in_order: Vec<_> = seeds.iter().map(run).collect();
        assert!(in_order.iter().all(|(_, (c, e, _), _)| *c > 0 && *e > 1));
        let mut reversed: Vec<_> = seeds.iter().rev().map(run).collect();
        reversed.reverse();
        assert_eq!(reversed, in_order);
        let search = BestPlanSearch::new(&model, interner, &seeds[1]);
        let worker = std::thread::scope(|scope| scope.spawn(move || search.run()).join());
        assert_eq!(bits(worker.expect("the search completes")), in_order[1]);
    }

    /// Reaches `node` from `from` through join inputs.
    fn reaches(spec: &PlanSpec, from: usize, node: usize) -> bool {
        from == node
            || match &spec.nodes[from].kind {
                SpecNodeKind::Stream => false,
                SpecNodeKind::Join { inputs, .. } => inputs.iter().any(|&i| reaches(spec, i, node)),
            }
    }

    /// Four user queries of twenty distinct chain queries each: 80 CQs, more
    /// than one 64-bit query set holds, on a chain of eight relations.
    fn wide_batch(cat: &Catalog) -> Vec<ConjunctiveQuery> {
        let paths: Vec<(u32, u32)> = (1..=4)
            .flat_map(|len| (0..=8 - len).map(move |from| (from, len)))
            .collect();
        (0..4u32)
            .flat_map(|uq| {
                let paths = &paths;
                (0..20u32).map(move |i| {
                    let (from, len) = paths[((i + 5 * uq) % 26) as usize];
                    path_cq(uq * 20 + i, cat, from, len, uq)
                })
            })
            .collect()
    }

    #[test]
    fn batch_wider_than_one_word_plans_each_user_query() {
        let cat = chain_catalog(8, 8);
        let cqs = wide_batch(&cat);
        let f = ScoreFn::discover(UserId::new(0), 4);
        let batch: Vec<_> = cqs.iter().map(|cq| (cq, &f)).collect();
        let atoms: usize = cqs.iter().map(|cq| cq.atoms.len()).sum();
        let leaves = |spec: &PlanSpec| -> Vec<SigId> {
            let leaves = spec
                .nodes
                .iter()
                .filter(|n| matches!(n.kind, SpecNodeKind::Stream));
            leaves.map(|n| n.sig).collect()
        };

        let opt = Optimizer::new(&cat, OptimizerConfig::default());
        let interner = fresh_interner();
        let (spec, stats) = opt.optimize(&batch, &NoReuse, None, &interner);
        assert!(stats.candidates > 0 && stats.explored > 4);
        let planned: Vec<CqId> = spec.cq_plans.iter().map(|p| p.cq).collect();
        assert_eq!(planned, cqs.iter().map(|cq| cq.id).collect::<Vec<_>>());
        // One stream leaf per signature across the four searches.
        let mut distinct = leaves(&spec);
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(leaves(&spec).len(), distinct.len(), "{spec:#?}");
        // Factorization merges a component that queries of several user
        // queries consume.
        let merged_across = (0..spec.nodes.len()).any(|node| {
            let SpecNodeKind::Join { .. } = spec.nodes[node].kind else {
                return false;
            };
            let mut uqs: Vec<UqId> = spec
                .cq_plans
                .iter()
                .filter(|p| reaches(&spec, p.root, node))
                .map(|p| p.uq)
                .collect();
            uqs.dedup();
            uqs.len() > 1
        });
        assert!(merged_across, "{spec:#?}");

        // ATC-CQ: one default state per user query, a private leaf per atom.
        let unshared = Optimizer::new(
            &cat,
            OptimizerConfig {
                share_subexpressions: false,
                ..OptimizerConfig::default()
            },
        );
        let (spec, stats) = unshared.optimize(&batch, &NoReuse, None, &fresh_interner());
        assert_eq!((stats.candidates, stats.explored), (0, 4));
        assert_eq!(spec.cq_plans.len(), 80);
        assert_eq!(leaves(&spec).len(), atoms);
        assert!(spec.nodes.iter().all(|n| !n.share));
    }

    // `MIXED` recorded when each user query began to be planned alone
    // under sharing, `UNSHARED` when ATC-CQ did too: three default states,
    // one per user query, and each query's private leaves in its own
    // search's canonical order (one default state over the whole batch
    // before). The dump hash covers type and field names too, so renaming
    // one re-records it.
    const MIXED: (usize, usize, usize, u64, u64) =
        (3, 0, 0, 4701911111196641759, 5726141858270977097);
    const UNSHARED: (usize, usize, usize, u64, u64) =
        (3, 0, 0, 4701911111196641759, 4412705616104442721);
}
