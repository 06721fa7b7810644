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
//!
//! The same algebra bounds the results a *partial* result `p` can still
//! become. If `p` covers some of the CQ's relations and the inputs `I_1..I_n`
//! it has yet to be joined with cover the rest (`R(I_i)`, holding tuples of
//! raw-score product at most `M(I_i)`), every completion scores at most
//!
//! ```text
//!   bound(p) = C(p) · ∏_i ( w_{R(I_i)} · M(I_i) ) · (1 + 1e-9)
//! ```
//!
//! where `C(p)` is the score function over `p`'s own parts — static factor
//! included — and the last factor absorbs the rounding of multiplying the
//! same factors in another order. The operator rejects every completion
//! once the bound is at or below its `RankMerge::rejection_cut`; an
//! m-join asks before it probes (the `mjoin` module docs).
//!
//! ### When `maintain` may be skipped
//!
//! Per-CQ thresholds are a function of the graph's bound table and the
//! registrations alone, so they are computed once per *generation* of that
//! table (the graph bumps it whenever a bound's bit pattern changes) and
//! read by emission, pruning, `RankMerge::choose_read` and
//! `RankMerge::overall_threshold` alike. Besides them a maintenance
//! cycle reads only the pending queue, the emitted results and the
//! active/pruned flags, so three events can change its outcome and each
//! marks the operator dirty: a [`RankMerge::register`], an
//! `Accepted::Enqueued` accept (the other two verdicts leave the queue
//! alone), and a new bound-table generation. A cycle on a clean operator
//! is a no-op and returns at once: the previous cycle's last iteration
//! broke out without activating or emitting, pruning only marks CQs that
//! are already active, every flag it set is set from the same inputs
//! again — and nothing it read has changed since.

use crate::node::NodeId;
use qsys_query::ScoreFn;
use qsys_types::{CqId, RelId, Score, Tuple, UqId, UserId};
use std::mem;

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
pub(crate) enum Accepted {
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
    /// The TA threshold under the bound table of
    /// [`RankMerge::thresholds_at`].
    threshold: f64,
    /// The streaming input defining that threshold (reading it drops the
    /// threshold the most); `None` when every input is dry or unbounded.
    defining: Option<NodeId>,
    /// Whether every streaming input is exhausted under that table.
    exhausted: bool,
}

impl CqState {
    /// Recompute what this CQ derives from the graph's stream-bound table
    /// (indexed by [`NodeId::index`]; a slot past its end reads as
    /// exhausted): one pass over the streaming inputs.
    fn refresh(&mut self, bounds: &[f64]) {
        let mut best = 0.0f64;
        self.defining = None;
        self.exhausted = true;
        for s in &self.reg.streaming {
            let b = bound_of(bounds, s.node);
            if b <= 0.0 {
                continue;
            }
            self.exhausted = false;
            if s.max_bound <= 0.0 {
                continue;
            }
            // The input attaining the max ratio defines the threshold;
            // the first of equals wins.
            let ratio = b / s.max_bound;
            if self.defining.is_none() || ratio > best {
                best = ratio;
                self.defining = Some(s.node);
            }
        }
        self.threshold = if self.u_run == 0.0 {
            0.0
        } else {
            self.u_run * best.min(1.0)
        };
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
    /// The bound-table generation the per-CQ thresholds were computed
    /// under; `None` until the first computation and after a `register`.
    thresholds_at: Option<u64>,
    /// Whether anything [`RankMerge::maintain`] reads has changed since
    /// its last cycle (see the module docs).
    dirty: bool,
    /// Whether its completion lost a relation to a failed source: such a
    /// top-k is not the query's answer, so it is never retained.
    degraded: bool,
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
            thresholds_at: None,
            dirty: false,
            degraded: false,
        }
    }

    /// An operator with no CQ registrations whose pending queue already
    /// holds a retained top-k, in the order it was emitted. Nothing can
    /// arrive (its threshold is 0), so its first maintenance cycle emits
    /// every result and completes.
    pub(crate) fn retained(
        uq: UqId,
        user: UserId,
        k: usize,
        results: impl IntoIterator<Item = (Score, CqId, Tuple)>,
    ) -> RankMerge {
        let mut rm = RankMerge::new(uq, user, k);
        rm.candidates = results
            .into_iter()
            .map(|(score, cq, tuple)| Candidate { score, cq, tuple })
            .collect();
        rm
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
            threshold: 0.0,
            defining: None,
            exhausted: true,
        });
        self.done = false;
        // The new CQ has no thresholds yet: the next refresh computes
        // them and marks the operator dirty.
        self.thresholds_at = None;
        slot
    }

    /// Bring the per-CQ thresholds up to `generation` of the bound table;
    /// a no-op when they were computed under it already.
    fn refresh(&mut self, bounds: &[f64], generation: u64) {
        if self.thresholds_at != Some(generation) {
            for s in &mut self.cqs {
                s.refresh(bounds);
            }
            self.thresholds_at = Some(generation);
            self.dirty = true;
        }
    }

    /// Accept a result tuple for the CQ in `slot`.
    ///
    /// The pending queue is capped at the number of results still needed:
    /// emission always takes the best pending candidate, so a candidate
    /// ranked below position `k - emitted` is dominated by enough better
    /// candidates to fill the remaining top-k and can never be output.
    /// This keeps `accept` O(k) instead of letting the queue (and the
    /// insertion cost) grow with every sub-threshold join result.
    pub(crate) fn accept(&mut self, slot: usize, tuple: Tuple) -> Accepted {
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
        self.dirty = true;
        Accepted::Enqueued
    }

    /// [`RankMerge::accept`]'s verdict on `a.join(b)` for the CQ in `slot`
    /// if that verdict is a rejection — without the tuple being built, and
    /// without touching the queue; `None` if the result would be enqueued.
    ///
    /// The queue is sorted descending, so `accept`'s `partition_point(|c|
    /// c.score >= score) >= need` holds exactly when the queue holds
    /// `need` candidates and the `need`-th scores `>=` the pair — when the
    /// pair scores at or below the `RankMerge::rejection_cut`.
    pub(crate) fn rejects_pair(&self, slot: usize, a: &Tuple, b: &Tuple) -> Option<Accepted> {
        let cut = self.rejection_cut()?;
        if cut == f64::INFINITY {
            return Some(Accepted::AfterK);
        }
        let score = self.cqs[slot].reg.score_fn.score_pair(a, b);
        (cut >= score.get()).then_some(Accepted::Dominated)
    }

    /// The score at or below which [`RankMerge::accept`] rejects a result,
    /// whatever its CQ: `+∞` once the operator has emitted its k, the
    /// `need`-th pending score while the queue holds that many; `None`
    /// while it would enqueue any result at all. A score above the cut is
    /// enqueued.
    pub(crate) fn rejection_cut(&self) -> Option<f64> {
        let need = self.k.saturating_sub(self.emitted.len());
        if need == 0 {
            return Some(f64::INFINITY);
        }
        self.candidates.get(need - 1).map(|kth| kth.score.get())
    }

    /// The score function of the CQ registered in `slot`.
    pub fn score_fn(&self, slot: usize) -> &ScoreFn {
        &self.cqs[slot].reg.score_fn
    }

    /// The registration slots and ids of all member CQs.
    pub fn registered(&self) -> impl Iterator<Item = (usize, CqId)> + '_ {
        self.cqs.iter().enumerate().map(|(i, s)| (i, s.reg.cq))
    }

    /// Ids of CQs activated so far, by `reports_as` identity (Table 4's
    /// "conjunctive queries executed").
    pub(crate) fn activated(&self) -> Vec<CqId> {
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
    /// `generation` names the state of `bounds` (see
    /// [`RankMerge::maintain`]).
    pub(crate) fn overall_threshold(&mut self, bounds: &[f64], generation: u64) -> f64 {
        self.refresh(bounds, generation);
        self.current_threshold()
    }

    /// `RankMerge::overall_threshold` over the thresholds as last
    /// refreshed.
    fn current_threshold(&self) -> f64 {
        self.cqs
            .iter()
            .map(|s| if s.active { s.threshold } else { s.u_run })
            .fold(0.0, f64::max)
    }

    /// Run the maintenance cycle: activate CQs the thresholds demand, emit
    /// every candidate provably in the top-k, prune CQs that can no longer
    /// contribute, and update the done flag. Returns the number of results
    /// emitted during this call — or `None` if the cycle was skipped
    /// because nothing it reads has changed since the last one (see the
    /// module docs).
    ///
    /// `generation` is the bound table's: the caller passes the same value
    /// only while `bounds` is bit-for-bit what it was (the plan graph
    /// keeps the counter; a caller without one passes a fresh value per
    /// call).
    pub(crate) fn maintain(
        &mut self,
        bounds: &[f64],
        generation: u64,
        now_us: u64,
    ) -> Option<usize> {
        self.refresh(bounds, generation);
        if !mem::take(&mut self.dirty) {
            return None;
        }
        let mut emitted_now = 0;
        loop {
            if self.emitted.len() >= self.k {
                self.done = true;
                break;
            }
            // Activate the next inactive CQ if emission cannot soundly
            // proceed past its upper bound, or if the active set can no
            // longer fill k.
            let active_exhausted = self.cqs.iter().all(|s| !s.active || s.exhausted);
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
            let thr = self.current_threshold();
            match self.candidates.first() {
                Some(c) if c.score.get() >= thr => {
                    let c = self.candidates.remove(0);
                    self.emitted.push(TopKResult {
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
            && self.cqs.iter().all(|s| !s.active || s.exhausted)
            && self.current_threshold() <= 0.0
        {
            self.done = true;
        }
        self.prune();
        Some(emitted_now)
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
    fn prune(&mut self) {
        let need = self.k.saturating_sub(self.emitted.len());
        if need == 0 || self.candidates.len() < need {
            return;
        }
        let kth = self.candidates[need - 1].score.get();
        for s in &mut self.cqs {
            if s.active && !s.pruned && s.threshold < kth {
                s.pruned = true;
            }
        }
    }

    /// Choose the next stream to read: for the active, unpruned CQ with the
    /// highest threshold, the streaming input defining that threshold
    /// (reading it drops the threshold the most). `generation` as in
    /// [`RankMerge::maintain`].
    pub(crate) fn choose_read(&mut self, bounds: &[f64], generation: u64) -> Option<NodeId> {
        self.refresh(bounds, generation);
        let mut best: Option<(f64, NodeId)> = None;
        for s in &self.cqs {
            if !s.active || s.pruned || s.threshold <= 0.0 {
                continue;
            }
            if let Some(node) = s.defining {
                if best.is_none_or(|(t, _)| s.threshold > t) {
                    best = Some((s.threshold, node));
                }
            }
        }
        best.map(|(_, node)| node)
    }

    /// Whether the operator has produced its top-k (or proven fewer exist).
    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    /// Record that the operator completed with a relation missing.
    pub(crate) fn mark_degraded(&mut self) {
        self.degraded = true;
    }

    /// Whether its completion recorded a missing relation.
    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Results emitted so far, best-first.
    pub fn results(&self) -> &[TopKResult] {
        &self.emitted
    }

    /// Pending (not yet provably top-k) candidates — cacheable state in the
    /// QS manager's sense ("contents of ranking queues that hold pending
    /// tuples").
    #[cfg(test)]
    pub(crate) fn pending(&self) -> usize {
        self.candidates.len()
    }

    /// Approximate resident bytes of the ranking queue.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.candidates.len() * 96 + self.emitted.len() * 96
    }

    /// Whether a CQ slot is currently active (reads may target it).
    #[cfg(test)]
    pub(crate) fn slot_active(&self, slot: usize) -> bool {
        self.cqs[slot].active && !self.cqs[slot].pruned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
        let n = rm.maintain(&bounds, 0, 0);
        assert_eq!(n, Some(1)); // only the 0.95 dominates thr 0.9
        assert_eq!(rm.results().len(), 1);
        assert_eq!(rm.results()[0].score.get(), 0.95);
        // Stream bound drops → second result becomes emittable.
        bounds[0] = 0.4;
        let n = rm.maintain(&bounds, 1, 1);
        assert_eq!(n, Some(1));
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
        rm.maintain(&bounds, 0, 0);
        assert_eq!(rm.activated().len(), 2, "CQ1 must be activated");
        assert_eq!(rm.results().len(), 0, "0.5 not emittable yet");
        // Once CQ1's stream drains below 0.5, emission proceeds.
        bounds[1] = 0.3;
        rm.maintain(&bounds, 1, 1);
        assert_eq!(rm.results().len(), 1);
        assert!(rm.is_done());
    }

    #[test]
    fn choose_read_targets_highest_threshold() {
        let mut rm = RankMerge::new(UqId::new(0), UserId::new(0), 3);
        rm.register(reg(0, 0, 1.0));
        rm.register(reg(1, 1, 1.0));
        let mut bounds = [0.9, 0.4];
        rm.maintain(&bounds, 0, 0); // activates CQ1 (nothing to emit)
        assert_eq!(rm.choose_read(&bounds, 0), Some(NodeId(0)));
        bounds[0] = 0.2;
        assert_eq!(rm.choose_read(&bounds, 1), Some(NodeId(1)));
    }

    #[test]
    fn done_when_streams_exhausted_short_of_k() {
        let mut rm = RankMerge::new(UqId::new(0), UserId::new(0), 10);
        rm.register(reg(0, 0, 1.0));
        let bounds = [0.0]; // exhausted
        rm.accept(0, tup(0, 1, 0.7));
        rm.maintain(&bounds, 0, 0);
        assert!(rm.is_done());
        assert_eq!(rm.results().len(), 1);
    }

    #[test]
    fn pruning_deactivates_hopeless_cq() {
        let mut rm = RankMerge::new(UqId::new(0), UserId::new(0), 2);
        rm.register(reg(0, 0, 1.0));
        rm.register(reg(1, 1, 1.0));
        let mut bounds = [0.9, 0.9];
        rm.maintain(&bounds, 0, 0);
        assert_eq!(rm.activated().len(), 2);
        // CQ0 produces 0.95 (emittable past thr 0.9) and 0.85 (pending).
        // CQ1's threshold collapses to 0.05 < the pending kth (0.85): CQ1
        // can no longer contribute to the top-2 and is pruned; CQ0 (thr
        // 0.9 ≥ 0.85) stays.
        rm.accept(0, tup(0, 1, 0.95));
        rm.accept(0, tup(0, 2, 0.85));
        bounds[1] = 0.05;
        rm.maintain(&bounds, 1, 0);
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
        rm.maintain(&bounds, 0, 0);
        let scores: Vec<f64> = rm.results().iter().map(|r| r.score.get()).collect();
        assert_eq!(scores, vec![0.9, 0.6, 0.3]);
    }

    /// CQ `i` of the property tests: relations 0 ⋈ 1, streamed from nodes
    /// `i` and `i + 3` (of 6), upper bounds nonincreasing in `i`.
    fn pair_reg(i: u32) -> CqRegistration {
        CqRegistration {
            cq: CqId::new(i),
            reports_as: CqId::new(i),
            score_fn: ScoreFn::banks(UserId::new(0), 1.0 - 0.1 * i as f64, []),
            streaming: vec![
                StreamingInput {
                    node: NodeId(i),
                    rels: vec![RelId::new(0)],
                    max_bound: 1.0,
                },
                StreamingInput {
                    node: NodeId(i + 3),
                    rels: vec![RelId::new(1)],
                    max_bound: 0.8,
                },
            ],
            probed: vec![],
        }
    }

    /// One pending candidate, bit for bit: score, reporting CQ, provenance.
    type QueueEntry = (u64, CqId, Vec<(RelId, u64)>);

    fn queue_bits(rm: &RankMerge) -> Vec<QueueEntry> {
        rm.candidates
            .iter()
            .map(|c| (c.score.get().to_bits(), c.cq, c.tuple.provenance()))
            .collect()
    }

    /// Everything a caller can see of an operator.
    #[derive(Debug, PartialEq)]
    struct Seen {
        /// Score bits, reporting CQ and emission time of each result.
        results: Vec<(u64, CqId, u64)>,
        pending: usize,
        activated: Vec<CqId>,
        slot_active: Vec<bool>,
        choose_read: Option<NodeId>,
        done: bool,
    }

    fn observe(rm: &mut RankMerge, bounds: &[f64], generation: u64) -> Seen {
        Seen {
            results: rm
                .results()
                .iter()
                .map(|r| (r.score.get().to_bits(), r.cq, r.emitted_at_us))
                .collect(),
            pending: rm.pending(),
            activated: rm.activated(),
            slot_active: (0..rm.cqs.len()).map(|s| rm.slot_active(s)).collect(),
            choose_read: rm.choose_read(bounds, generation),
            done: rm.is_done(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `rejects_pair` is `accept`'s verdict without the tuple: on
        /// queues full of ties at the k-th score (sixteen score products,
        /// a few of them equal), `Some(v)` means `accept` of the built
        /// tuple returns `v` and leaves the queue bit-for-bit alone, and
        /// `None` means it is enqueued. Maintenance cycles in between
        /// emit, so `need` shrinks all the way to after-k.
        #[test]
        fn rejects_pair_is_accepts_verdict(
            k in 1usize..=5,
            ops in prop::collection::vec((0u8..8, 1u32..=4, 1u32..=4), 1..60),
        ) {
            let mut rm = RankMerge::new(UqId::new(0), UserId::new(0), k);
            rm.register(pair_reg(0));
            let mut bounds = [1.0; 6];
            for (i, &(op, sa, sb)) in ops.iter().enumerate() {
                if op == 0 {
                    bounds[0] *= 0.7;
                    bounds[3] *= 0.7;
                    rm.maintain(&bounds, i as u64, i as u64);
                    continue;
                }
                let (a, b) = (tup(0, i as u64, sa as f64 / 4.0), tup(1, i as u64, sb as f64 / 4.0));
                let before = queue_bits(&rm);
                let verdict = rm.rejects_pair(0, &a, &b);
                let got = rm.accept(0, a.join(&b));
                match verdict {
                    Some(v) => {
                        prop_assert_ne!(v, Accepted::Enqueued);
                        prop_assert_eq!(got, v);
                        prop_assert_eq!(queue_bits(&rm), before);
                    }
                    None => prop_assert_eq!(got, Accepted::Enqueued),
                }
            }
        }

        /// The rejection cut is `accept`'s verdict as a number: on the same
        /// tie-heavy queues as above, a result scoring at or below the cut
        /// is rejected (after-k exactly when the cut is `+∞`), and one
        /// scoring above it — or any result while there is no cut — is
        /// enqueued.
        #[test]
        fn rejection_cut_is_accepts_verdict(
            k in 1usize..=5,
            ops in prop::collection::vec((0u8..8, 1u32..=4, 1u32..=4), 1..60),
        ) {
            let mut rm = RankMerge::new(UqId::new(0), UserId::new(0), k);
            rm.register(pair_reg(0));
            let mut bounds = [1.0; 6];
            for (i, &(op, sa, sb)) in ops.iter().enumerate() {
                if op == 0 {
                    bounds[0] *= 0.7;
                    bounds[3] *= 0.7;
                    rm.maintain(&bounds, i as u64, i as u64);
                    continue;
                }
                let t = tup(0, i as u64, sa as f64 / 4.0).join(&tup(1, i as u64, sb as f64 / 4.0));
                let score = rm.score_fn(0).score(&t).get();
                let cut = rm.rejection_cut();
                let got = rm.accept(0, t);
                match cut {
                    Some(cut) if score <= cut => {
                        let after_k = cut == f64::INFINITY;
                        prop_assert_eq!(got, if after_k { Accepted::AfterK } else { Accepted::Dominated });
                    }
                    _ => prop_assert_eq!(got, Accepted::Enqueued),
                }
            }
        }

        /// Skipping a clean maintenance cycle changes nothing: two
        /// operators are fed the same interleaving of bound drops,
        /// registrations and accepts. One is told the truth about the
        /// bound table's generation and left to its own dirty bit; the
        /// other is handed a fresh generation on every call (so it
        /// recomputes and re-runs every time) and maintains twice where
        /// the first maintains once. They agree on everything visible
        /// after every step.
        #[test]
        fn lazy_maintenance_equals_eager(
            k in 1usize..=6,
            ops in prop::collection::vec((0u8..6, 0usize..6, 0u32..4), 1..80),
        ) {
            let mut lazy = RankMerge::new(UqId::new(0), UserId::new(0), k);
            let mut eager = RankMerge::new(UqId::new(0), UserId::new(0), k);
            let mut registered = 0u32;
            let mut bounds = [1.0f64, 1.0, 1.0, 0.8, 0.8, 0.8];
            let mut generation = 0u64;
            let mut fresh = 1u64 << 32;
            let mut fresh = move || {
                fresh += 1;
                fresh
            };
            for (step, &(op, x, y)) in ops.iter().enumerate() {
                let now = step as u64;
                match op {
                    0 => {
                        let was = bounds[x].to_bits();
                        bounds[x] *= [1.0, 0.5, 0.9, 0.0][y as usize];
                        generation += u64::from(bounds[x].to_bits() != was);
                    }
                    1 if registered < 3 => {
                        lazy.register(pair_reg(registered));
                        eager.register(pair_reg(registered));
                        registered += 1;
                    }
                    2 | 3 if registered > 0 => {
                        let slot = x % registered as usize;
                        let t = tup(0, now, (y + 1) as f64 / 4.0).join(&tup(1, now, (x + 1) as f64 / 6.0));
                        prop_assert_eq!(lazy.accept(slot, t.clone()), eager.accept(slot, t));
                    }
                    _ => {
                        let emitted = lazy.maintain(&bounds, generation, now).unwrap_or(0);
                        let first = eager.maintain(&bounds, fresh(), now);
                        prop_assert_eq!(first, Some(emitted));
                        // Twice is once: the second cycle finds nothing to do.
                        prop_assert_eq!(eager.maintain(&bounds, fresh(), now), Some(0));
                    }
                }
                prop_assert_eq!(
                    observe(&mut lazy, &bounds, generation),
                    observe(&mut eager, &bounds, fresh()),
                    "after step {}", step
                );
            }
        }
    }
}
