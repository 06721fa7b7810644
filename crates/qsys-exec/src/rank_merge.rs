//! The rank-merge operator: top-k across conjunctive queries.
//!
//! "We define an m-way rank-merge operator that receives tuples from each
//! query CQ_i, and uses each score function C_i to compute the threshold
//! for the next value to be returned by CQ_i. It maintains a priority queue
//! of the k highest scoring tuples seen from all conjunctive queries; from
//! this, it outputs the highest-scoring tuple above all thresholds, and
//! reads a tuple from the output stream that will drop the score threshold
//! the most. This basic operation follows the ideas of the Threshold
//! Algorithm and No-random-access Algorithm of [7]." (Section 4.1)
//!
//! ### Threshold algebra
//!
//! Every score function here has the form `C(t) = static · ∏_r w_r·s_r(t)`
//! (see `qsys_query::score`). For a CQ with streaming inputs `J_1..J_m`
//! (each covering relation set `R(J_j)`, with current raw-product bound
//! `b_j` and registration-time maximum `M_j`) and probed relations `P`,
//! any *future* result must contain a not-yet-delivered tuple from at least
//! one streaming input, so its score is at most
//!
//! ```text
//!   thr(CQ) = U_run · max_j ( b_j / M_j ),
//!   U_run   = static · ∏_{r∈P} w_r·maxscore_r · ∏_j ( w_{R(J_j)} · M_j )
//! ```
//!
//! which is the Threshold-Algorithm bound instantiated for product-form
//! scoring. Inactive CQs contribute their full upper bound `U` — which is
//! exactly what lets the operator activate conjunctive queries lazily, "as
//! necessary to return relevant results" (Section 7.1 / Table 4).

use crate::node::NodeId;
use qsys_query::ScoreFn;
use qsys_types::{CqId, RelId, Score, Tuple, UqId, UserId};

/// Registration of one conjunctive query with a rank-merge operator.
#[derive(Debug, Clone)]
pub struct CqRegistration {
    /// Unique id of this plan (recovery queries get fresh ids).
    pub cq: CqId,
    /// The conjunctive query these results answer (for recovery queries,
    /// the original CQ; otherwise equal to `cq`).
    pub reports_as: CqId,
    /// The monotone score function.
    pub score_fn: ScoreFn,
    /// Streaming inputs feeding this CQ: the leaf stream node, the relation
    /// set its tuples cover, and the registration-time raw-product maximum
    /// `M_j` (the stream's bound when registered).
    pub streaming: Vec<StreamingInput>,
    /// Relations reached by random-access probes, with their per-relation
    /// max raw scores.
    pub probed: Vec<(RelId, f64)>,
}

/// One streaming input of a registered CQ.
#[derive(Debug, Clone)]
pub struct StreamingInput {
    /// The stream leaf node in the plan graph.
    pub node: NodeId,
    /// Relations covered by each tuple of the stream.
    pub rels: Vec<RelId>,
    /// `M_j`: the stream's raw-product bound at registration time.
    pub max_bound: f64,
}

/// One emitted top-k answer.
#[derive(Debug, Clone)]
pub struct TopKResult {
    /// The user query answered.
    pub uq: UqId,
    /// The conjunctive query that produced the answer.
    pub cq: CqId,
    /// The join result.
    pub tuple: Tuple,
    /// Its score under the CQ's score function.
    pub score: Score,
    /// Virtual time of emission (µs).
    pub emitted_at_us: u64,
}

/// What [`RankMerge::accept`] did with a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accepted {
    /// Dropped unscored: the operator has already emitted its k.
    AfterK,
    /// Scored and dropped: enough better candidates are pending to fill
    /// the remaining top-k.
    Dominated,
    /// Entered the pending queue.
    Enqueued,
}

/// The bound of stream `node` in the graph's bound table; a node the table
/// does not cover has nothing left to deliver.
#[inline]
fn bound_of(bounds: &[f64], node: NodeId) -> f64 {
    bounds.get(node.index()).copied().unwrap_or(0.0)
}

#[derive(Debug)]
struct CqState {
    reg: CqRegistration,
    /// `U_run`: static · probed max · ∏_j w·M_j (see module docs).
    u_run: f64,
    /// Whether the ATC is executing this CQ yet.
    active: bool,
    /// Deactivated because it can no longer contribute to the top-k.
    pruned: bool,
}

impl CqState {
    /// Current TA threshold given the graph's stream-bound table (indexed
    /// by [`NodeId::index`]; a slot past its end reads as exhausted).
    fn threshold(&self, bounds: &[f64]) -> f64 {
        if self.u_run == 0.0 {
            return 0.0;
        }
        let mut best = 0.0f64;
        for s in &self.reg.streaming {
            if s.max_bound <= 0.0 {
                continue;
            }
            let b = bound_of(bounds, s.node);
            best = best.max(b / s.max_bound);
        }
        self.u_run * best.min(1.0)
    }

    /// Whether every streaming input is exhausted.
    fn exhausted(&self, bounds: &[f64]) -> bool {
        self.reg
            .streaming
            .iter()
            .all(|s| bound_of(bounds, s.node) <= 0.0)
    }
}

#[derive(Debug)]
struct Candidate {
    score: Score,
    cq: CqId,
    tuple: Tuple,
}

/// The rank-merge operator for one user query.
#[derive(Debug)]
pub struct RankMerge {
    uq: UqId,
    user: UserId,
    k: usize,
    cqs: Vec<CqState>,
    /// Pending candidates, kept sorted descending by score (k is small —
    /// 50 in the paper — so an ordered vector beats a heap + side index).
    candidates: Vec<Candidate>,
    emitted: Vec<TopKResult>,
    done: bool,
}

impl RankMerge {
    /// New operator answering `uq` with `k` results.
    pub fn new(uq: UqId, user: UserId, k: usize) -> RankMerge {
        RankMerge {
            uq,
            user,
            k,
            cqs: Vec::new(),
            candidates: Vec::new(),
            emitted: Vec::new(),
            done: false,
        }
    }

    /// The user query this operator answers.
    pub fn uq(&self) -> UqId {
        self.uq
    }

    /// The posing user.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// Requested result count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Register a conjunctive query; returns its input slot. The first
    /// registration is activated immediately; the rest wait until the
    /// thresholds demand them (Section 7.1: "additional CQs are executed
    /// only as necessary").
    pub fn register(&mut self, reg: CqRegistration) -> usize {
        let probed_max: f64 = reg
            .probed
            .iter()
            .map(|(r, m)| reg.score_fn.weight(*r) * m)
            .product();
        let stream_max: f64 = reg
            .streaming
            .iter()
            .map(|s| reg.score_fn.contribution(&s.rels, s.max_bound))
            .product();
        let u_run = reg.score_fn.static_factor * probed_max * stream_max;
        let slot = self.cqs.len();
        self.cqs.push(CqState {
            reg,
            u_run,
            active: slot == 0,
            pruned: false,
        });
        self.done = false;
        slot
    }

    /// Accept a result tuple for the CQ in `slot`.
    ///
    /// The pending queue is capped at the number of results still needed:
    /// emission always takes the best pending candidate, so a candidate
    /// ranked below position `k - emitted` is dominated by enough better
    /// candidates to fill the remaining top-k and can never be output.
    /// This keeps `accept` O(k) instead of letting the queue (and the
    /// insertion cost) grow with every sub-threshold join result.
    pub fn accept(&mut self, slot: usize, tuple: Tuple) -> Accepted {
        let need = self.k.saturating_sub(self.emitted.len());
        if need == 0 {
            return Accepted::AfterK;
        }
        let state = &self.cqs[slot];
        let score = state.reg.score_fn.score(&tuple);
        let cq = state.reg.reports_as;
        let pos = self.candidates.partition_point(|c| c.score >= score);
        if pos >= need {
            return Accepted::Dominated; // can never enter the top-k
        }
        self.candidates.insert(pos, Candidate { score, cq, tuple });
        self.candidates.truncate(need);
        Accepted::Enqueued
    }

    /// The registration slots and ids of all member CQs.
    pub fn registered(&self) -> impl Iterator<Item = (usize, CqId)> + '_ {
        self.cqs.iter().enumerate().map(|(i, s)| (i, s.reg.cq))
    }

    /// Ids of CQs activated so far, by `reports_as` identity (Table 4's
    /// "conjunctive queries executed").
    pub fn activated(&self) -> Vec<CqId> {
        let mut ids: Vec<CqId> = self
            .cqs
            .iter()
            .filter(|s| s.active)
            .map(|s| s.reg.reports_as)
            .collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// Every relation any registered CQ touches — streamed or probed —
    /// sorted and deduplicated. Degradation is judged against this scope:
    /// a source failure only affects the user queries whose rank-merge
    /// actually reads that relation.
    pub fn rels(&self) -> Vec<RelId> {
        let mut rels: Vec<RelId> = self
            .cqs
            .iter()
            .flat_map(|s| {
                s.reg
                    .streaming
                    .iter()
                    .flat_map(|j| j.rels.iter().copied())
                    .chain(s.reg.probed.iter().map(|(r, _)| *r))
            })
            .collect();
        rels.sort();
        rels.dedup();
        rels
    }

    /// The highest score any not-yet-seen result could achieve: active CQs
    /// contribute their TA threshold, inactive ones their full `U_run`.
    pub fn overall_threshold(&self, bounds: &[f64]) -> f64 {
        self.cqs
            .iter()
            .map(|s| {
                if s.active {
                    s.threshold(bounds)
                } else {
                    s.u_run
                }
            })
            .fold(0.0, f64::max)
    }

    /// Run the maintenance cycle: activate CQs the thresholds demand, emit
    /// every candidate provably in the top-k, prune CQs that can no longer
    /// contribute, and update the done flag. Returns the number of results
    /// emitted during this call.
    pub fn maintain(&mut self, bounds: &[f64], now_us: u64) -> usize {
        let mut emitted_now = 0;
        loop {
            if self.emitted.len() >= self.k {
                self.done = true;
                break;
            }
            // Activate the next inactive CQ if emission cannot soundly
            // proceed past its upper bound, or if the active set can no
            // longer fill k.
            let active_exhausted = self
                .cqs
                .iter()
                .filter(|s| s.active)
                .all(|s| s.exhausted(bounds));
            let top = self.candidates.first().map(|c| c.score.get());
            if let Some(idx) = self.next_inactive() {
                let u_next = self.cqs[idx].u_run;
                let blocked = match top {
                    Some(t) => t < u_next,
                    None => true,
                };
                // lint:allow(panic-path): `top.is_none() ||` short-circuits before the unwrap
                if blocked && (active_exhausted || top.is_none() || top.unwrap() < u_next) {
                    self.cqs[idx].active = true;
                    continue;
                }
            }
            // Emit while the best candidate dominates every threshold.
            let thr = self.overall_threshold(bounds);
            match self.candidates.first() {
                Some(c) if c.score.get() >= thr => {
                    let c = self.candidates.remove(0);
                    self.emitted.push(TopKResult {
                        uq: self.uq,
                        cq: c.cq,
                        tuple: c.tuple,
                        score: c.score,
                        emitted_at_us: now_us,
                    });
                    emitted_now += 1;
                }
                Some(_) => break,
                None => {
                    // Nothing pending: done only when nothing can arrive.
                    if thr <= 0.0 {
                        self.done = true;
                    }
                    break;
                }
            }
        }
        if self.emitted.len() >= self.k {
            self.done = true;
        }
        // All sources dry and no candidates left → done even short of k.
        if !self.done
            && self.candidates.is_empty()
            && self.cqs.iter().all(|s| !s.active || s.exhausted(bounds))
            && self.overall_threshold(bounds) <= 0.0
        {
            self.done = true;
        }
        self.prune(bounds);
        emitted_now
    }

    fn next_inactive(&self) -> Option<usize> {
        // CQs are registered in nonincreasing U order; activate best-first.
        let mut best: Option<usize> = None;
        for (i, s) in self.cqs.iter().enumerate() {
            if !s.active && !s.pruned {
                match best {
                    Some(b) if self.cqs[b].u_run >= s.u_run => {}
                    _ => best = Some(i),
                }
            }
        }
        best
    }

    /// Deactivate CQs whose threshold falls below the k-th pending
    /// candidate — they "may no longer be able to contribute to top-k
    /// results" (Section 3).
    fn prune(&mut self, bounds: &[f64]) {
        let need = self.k.saturating_sub(self.emitted.len());
        if need == 0 || self.candidates.len() < need {
            return;
        }
        let kth = self.candidates[need - 1].score.get();
        for s in &mut self.cqs {
            if s.active && !s.pruned {
                let thr = s.threshold(bounds);
                if thr < kth {
                    s.pruned = true;
                }
            }
        }
    }

    /// Choose the next stream to read: for the active, unpruned CQ with the
    /// highest threshold, the streaming input defining that threshold
    /// (reading it drops the threshold the most).
    pub fn choose_read(&self, bounds: &[f64]) -> Option<NodeId> {
        let mut best: Option<(f64, NodeId)> = None;
        for s in &self.cqs {
            if !s.active || s.pruned {
                continue;
            }
            let thr = s.threshold(bounds);
            if thr <= 0.0 {
                continue;
            }
            // The input attaining the max ratio defines the threshold.
            let mut arg: Option<(f64, NodeId)> = None;
            for inp in &s.reg.streaming {
                if inp.max_bound <= 0.0 {
                    continue;
                }
                let b = bound_of(bounds, inp.node);
                if b <= 0.0 {
                    continue;
                }
                let ratio = b / inp.max_bound;
                if arg.is_none_or(|(r, _)| ratio > r) {
                    arg = Some((ratio, inp.node));
                }
            }
            if let Some((_, node)) = arg {
                if best.is_none_or(|(t, _)| thr > t) {
                    best = Some((thr, node));
                }
            }
        }
        best.map(|(_, node)| node)
    }

    /// Whether the operator has produced its top-k (or proven fewer exist).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Results emitted so far, best-first.
    pub fn results(&self) -> &[TopKResult] {
        &self.emitted
    }

    /// Pending (not yet provably top-k) candidates — cacheable state in the
    /// QS manager's sense ("contents of ranking queues that hold pending
    /// tuples").
    pub fn pending(&self) -> usize {
        self.candidates.len()
    }

    /// Approximate resident bytes of the ranking queue.
    pub fn approx_bytes(&self) -> usize {
        self.candidates.len() * 96 + self.emitted.len() * 96
    }

    /// Whether a CQ slot is currently active (reads may target it).
    pub fn slot_active(&self, slot: usize) -> bool {
        self.cqs[slot].active && !self.cqs[slot].pruned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsys_types::BaseTuple;
    use std::sync::Arc;

    fn tup(rel: u32, id: u64, score: f64) -> Tuple {
        Tuple::single(Arc::new(BaseTuple::new(RelId::new(rel), id, vec![], score)))
    }

    fn reg(cq: u32, node: u32, max_bound: f64) -> CqRegistration {
        CqRegistration {
            cq: CqId::new(cq),
            reports_as: CqId::new(cq),
            score_fn: ScoreFn::discover(UserId::new(0), 1),
            streaming: vec![StreamingInput {
                node: NodeId(node),
                rels: vec![RelId::new(0)],
                max_bound,
            }],
            probed: vec![],
        }
    }

    #[test]
    fn first_registration_is_active() {
        let mut rm = RankMerge::new(UqId::new(0), UserId::new(0), 5);
        rm.register(reg(0, 0, 1.0));
        rm.register(reg(1, 1, 0.5));
        assert_eq!(rm.activated(), vec![CqId::new(0)]);
    }

    #[test]
    fn emits_only_above_threshold() {
        let mut rm = RankMerge::new(UqId::new(0), UserId::new(0), 2);
        rm.register(reg(0, 0, 1.0));
        let mut bounds = [0.9]; // threshold = 0.9
        rm.accept(0, tup(0, 1, 0.95));
        rm.accept(0, tup(0, 2, 0.5));
        let n = rm.maintain(&bounds, 0);
        assert_eq!(n, 1); // only the 0.95 dominates thr 0.9
        assert_eq!(rm.results().len(), 1);
        assert_eq!(rm.results()[0].score.get(), 0.95);
        // Stream bound drops → second result becomes emittable.
        bounds[0] = 0.4;
        let n = rm.maintain(&bounds, 1);
        assert_eq!(n, 1);
        assert!(rm.is_done());
    }

    #[test]
    fn inactive_cq_blocks_emission_until_activated() {
        let mut rm = RankMerge::new(UqId::new(0), UserId::new(0), 1);
        rm.register(reg(0, 0, 1.0));
        rm.register(reg(1, 1, 0.8)); // inactive, U = 0.8
        let mut bounds = [0.1, 0.8];
        // Candidate with score 0.5 < U(CQ1)=0.8: maintain must activate CQ1
        // rather than emit unsoundly.
        rm.accept(0, tup(0, 1, 0.5));
        rm.maintain(&bounds, 0);
        assert_eq!(rm.activated().len(), 2, "CQ1 must be activated");
        assert_eq!(rm.results().len(), 0, "0.5 not emittable yet");
        // Once CQ1's stream drains below 0.5, emission proceeds.
        bounds[1] = 0.3;
        rm.maintain(&bounds, 1);
        assert_eq!(rm.results().len(), 1);
        assert!(rm.is_done());
    }

    #[test]
    fn choose_read_targets_highest_threshold() {
        let mut rm = RankMerge::new(UqId::new(0), UserId::new(0), 3);
        rm.register(reg(0, 0, 1.0));
        rm.register(reg(1, 1, 1.0));
        let mut bounds = [0.9, 0.4];
        rm.maintain(&bounds, 0); // activates CQ1 (nothing to emit)
        assert_eq!(rm.choose_read(&bounds), Some(NodeId(0)));
        bounds[0] = 0.2;
        assert_eq!(rm.choose_read(&bounds), Some(NodeId(1)));
    }

    #[test]
    fn done_when_streams_exhausted_short_of_k() {
        let mut rm = RankMerge::new(UqId::new(0), UserId::new(0), 10);
        rm.register(reg(0, 0, 1.0));
        let bounds = [0.0]; // exhausted
        rm.accept(0, tup(0, 1, 0.7));
        rm.maintain(&bounds, 0);
        assert!(rm.is_done());
        assert_eq!(rm.results().len(), 1);
    }

    #[test]
    fn pruning_deactivates_hopeless_cq() {
        let mut rm = RankMerge::new(UqId::new(0), UserId::new(0), 2);
        rm.register(reg(0, 0, 1.0));
        rm.register(reg(1, 1, 1.0));
        let mut bounds = [0.9, 0.9];
        rm.maintain(&bounds, 0);
        assert_eq!(rm.activated().len(), 2);
        // CQ0 produces 0.95 (emittable past thr 0.9) and 0.85 (pending).
        // CQ1's threshold collapses to 0.05 < the pending kth (0.85): CQ1
        // can no longer contribute to the top-2 and is pruned; CQ0 (thr
        // 0.9 ≥ 0.85) stays.
        rm.accept(0, tup(0, 1, 0.95));
        rm.accept(0, tup(0, 2, 0.85));
        bounds[1] = 0.05;
        rm.maintain(&bounds, 0);
        assert_eq!(rm.results().len(), 1);
        assert!(!rm.slot_active(1), "CQ1 should be pruned");
        assert!(rm.slot_active(0));
    }

    #[test]
    fn results_emit_in_score_order() {
        let mut rm = RankMerge::new(UqId::new(0), UserId::new(0), 3);
        rm.register(reg(0, 0, 1.0));
        let bounds = [0.0];
        rm.accept(0, tup(0, 1, 0.3));
        rm.accept(0, tup(0, 2, 0.9));
        rm.accept(0, tup(0, 3, 0.6));
        rm.maintain(&bounds, 0);
        let scores: Vec<f64> = rm.results().iter().map(|r| r.score.get()).collect();
        assert_eq!(scores, vec![0.9, 0.6, 0.3]);
    }
}
