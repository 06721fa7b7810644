//! The m-way pipelined join (STeM eddy).
//!
//! "A much more flexible scheme ... is to generalize the pipelined hash join
//! to support m-way joins. Here, each input has an associated access module
//! — against which other tuples may be probed to compute join results. As
//! tuples are read from a streaming input, they are inserted into the access
//! module, then probed against the other access modules according to a probe
//! sequence. We also exploit the fact that this probe sequence can be
//! adjusted at runtime based on monitored values for the various join
//! selectivities" (Section 4.1).
//!
//! Access modules live in the lane-owned [`AccessModuleArena`] and are
//! named by dense, `Copy` [`ModuleId`]s; an input holds an id, never the
//! module itself. Sharing a hash table means two inputs holding the same
//! id, and it happens three ways: every m-join input fed by one producer
//! stores into that producer's one module (the `access` module docs give
//! the rule and why it is exact), the state-recovery machinery of Section
//! 6.2 builds *recovery* m-joins over the same tables, restricted to
//! pre-epoch partitions via an epoch cap, and the QS manager shares one
//! probe cache per remote relation. The ownership rule: graph-resident
//! inputs hold one arena reference each (taken at graft, dropped when the
//! plan graph removes the node); transient recovery joins borrow ids
//! without retaining. This keeps the whole executor `Send`: the arena
//! moves with its lane onto a lane thread, and no `Rc` ties operators to
//! the spawning thread.
//!
//! What a storing input pays is its own, however many consumers share its
//! module: each input keeps a cursor into the module and the count of the
//! probe keys *this* m-join registers on it (its own keys), so an arrival
//! charges `2 · max(own keys, 1)` whether it appends the tuple or finds it
//! stored by a sibling, and `MJoin::approx_bytes` prices the input at
//! `entries · 64 + own keys · entries · 24` — both exactly what a private
//! module of its own cost.
//!
//! ### The per-tuple path
//!
//! `MJoin::insert_governed` runs once per tuple per m-join it reaches —
//! millions of times a run — so it allocates and hashes as little as the
//! algorithm allows: predicate orientations are resolved once, when a
//! predicate is added ([`Link`]s per target input), not per insert; the
//! inputs still to probe are a `u64` mask; partial results ping-pong
//! between two buffers the m-join keeps; matches are borrowed from the
//! probed module, so the only allocation per match is the joined tuple
//! itself; and complete results go straight into the caller's sink. The
//! one thing hashed is the probe's join-column value, inside the access
//! module — see the `access` module docs for the hasher and why its lack
//! of HashDoS resistance is acceptable for simulated sources.
//!
//! **Early rejection.** Almost every complete result is dropped on arrival
//! by the rank-merges it reaches (they have their k, or enough better
//! candidates pending), so the *final* step of the probe sequence hands
//! each match that passed its predicates to the caller's `JoinSink` as
//! an unbuilt pair, and the sink decides whether `Tuple::join` is called
//! at all. A `Vec<Tuple>` builds everything; the plan graph's sink judges
//! first, under this contract:
//!
//! - a pair may be dropped only if *every* consumer the result would
//!   reach is a rank-merge whose `accept` would reject it — an m-join
//!   consumer needs the tuple, so then everything is built;
//! - a rejection must still hold when the result would have been
//!   delivered. Within one routing pass it does: no maintenance cycle runs
//!   inside one, so the number of results an operator still needs is fixed
//!   and its k-th pending score only rises. Survivors are built once and
//!   re-judged by `accept` on delivery, in the order they always were;
//! - the sink owes what delivery would have recorded: one accept and its
//!   verdict per rank-merge reached ([`ExecWork`]), and the routing hops'
//!   virtual-clock charges, at the point the hops would have been taken.
//!
//! What this m-join records does not depend on the verdict: the match is
//! counted into the probed input's selectivity monitor either way (the
//! probe sequence must not adapt differently); only `ExecWork::joins`
//! falls to what is materialised.
//!
//! **Partial results are judged too** — score-bounded probing, the
//! rank-join idea (HRJN: Ilyas, Aref and Elmagarmid, VLDB 2003) of
//! pushing the ranking operator's threshold into the join. Before every
//! probe step, step 0 (the arriving tuple alone) included, the sink is
//! asked whether any completion of each partial result could still be
//! kept (`JoinSink::bound_partials`); the partials no consumer would
//! keep are dropped before they probe, and so is everything they would
//! have found. The plan graph's sink answers under this contract:
//!
//! - the bound of a partial under a consumer's score function is the
//!   partial's own score times, for every input not yet covered, that
//!   input's relation weights times the largest raw-score product its
//!   module holds (1.0 for a probe cache, 0 for a detached input; the
//!   `access` module docs, *The module maximum*), times `1 + 1e-9`. The
//!   rank-merge module docs derive it: a completion multiplies the same
//!   factors, each at most what the bound takes, in another order, and
//!   the margin absorbs the rounding that order can cost;
//! - a partial is dropped only if every consumer is a rank-merge that
//!   would reject a result scoring the bound: it holds its k already, or
//!   its `need`-th pending score is at or above the bound
//!   (`RankMerge::rejection_cut`).
//!   When every consumer holds its k, the whole insert stops at step 0;
//! - an m-join that feeds another m-join is never judged: its result is
//!   not a ranked answer but a partial of the downstream join, whose
//!   bound would have to compose through that join's modules;
//! - it is exact for the reason the rejection of complete results is:
//!   the modules do not change inside one insert, no maintenance cycle
//!   runs inside one routing pass, so `need` is fixed and the cut only
//!   rises. Every completion of a dropped partial would have been
//!   rejected on delivery.
//!
//! A dropped partial records only that it was dropped
//! (`ExecWork::partials_bounded_out`): the probes, matches, verdicts and
//! routing hops of what it would have found never happen, so the virtual
//! clock is charged less and the selectivity monitors see fewer probes.
//! Storing the arrival happens first, exactly as before.

use crate::access::{AccessModule, AccessModuleArena, ModuleId, ProbeKey};
use crate::govern::SourceGovernor;
use crate::stats::ExecWork;
use qsys_query::ScoreFn;
use qsys_source::Sources;
use qsys_types::clock::HASH_OP_US;
use qsys_types::{Epoch, JoinCond, RelId, Selection, TimeCategory, Tuple};
use std::mem;

/// One input of an m-join.
#[derive(Debug)]
pub struct MJoinInput {
    /// Relations covered by tuples arriving on (or probed from) this input.
    pub rels: Vec<RelId>,
    /// Arena id of the access module (the same id appearing in several
    /// inputs is how consumers of one producer, recovery joins and shared
    /// probe caches reference one module; `ModuleId::DETACHED` marks a
    /// stateless replay input).
    pub module: ModuleId,
    /// Only consider stored tuples from epochs strictly before this when
    /// probing (RecoverState's pre-epoch view); `None` = all.
    pub epoch_cap: Option<Epoch>,
    /// Whether arriving tuples are stored in the module (appended, or
    /// found appended by a sibling consumer). Recovery replay inputs set
    /// this to `false`: their tuples are already stored.
    pub store_arrivals: bool,
    /// Residual selection applied to probe results (a keyword content match
    /// on a probe-only relation; streamed inputs arrive pre-filtered).
    pub selection: Option<Selection>,
}

/// Per-input runtime state: the selectivity monitor, and what the input
/// has seen of (and pays for) its stored module.
#[derive(Clone, Copy, Debug, Default)]
struct InputState {
    probes: u64,
    matches: u64,
    /// Entries of the stored module this input has seen arrive: the
    /// module's length when the m-join was built, plus one per arrival.
    cursor: usize,
    /// Distinct probe keys this m-join registers on the input — the index
    /// count a private module of its own would have.
    own_keys: usize,
}

impl InputState {
    /// Observed matches per probe; `None` until enough evidence.
    fn selectivity(&self) -> Option<f64> {
        (self.probes >= 8).then(|| self.matches as f64 / self.probes as f64)
    }
}

/// One predicate as seen from the input it probes *into*: resolved once
/// when the predicate is added, so an insert never re-derives which side
/// of a predicate faces which input.
#[derive(Clone, Copy, Debug)]
struct Link {
    /// Index of the input covering the other end of the predicate; the
    /// link applies once that input is in the covered set.
    from: usize,
    /// The covered side: relation and column the key is read from.
    from_rel: RelId,
    from_col: usize,
    /// The probed side: relation and column on the target input.
    to_rel: RelId,
    to_col: usize,
}

/// What an insert works against: the lane's sources, the governor remote
/// probes go through, and the arena holding the access modules.
#[derive(Clone, Copy)]
pub(crate) struct JoinCx<'a> {
    /// The lane's source gateway (and, through it, the virtual clock).
    pub sources: &'a Sources,
    /// Retry/breaker loop for remote probes.
    pub governor: &'a SourceGovernor,
    /// The lane's access modules.
    pub modules: &'a AccessModuleArena,
}

/// The margin a partial result's score bound is multiplied by, absorbing
/// the rounding of computing a product of the same factors in another
/// order (see *Early rejection* in the module docs).
pub(crate) const BOUND_MARGIN: f64 = 1.0 + 1e-9;

/// The inputs of an m-join a partial result has not been joined with yet,
/// as its score bound sees them.
#[derive(Clone, Copy)]
pub(crate) struct Uncovered<'a> {
    inputs: &'a [MJoinInput],
    modules: &'a AccessModuleArena,
    /// Indexes into `inputs`.
    mask: u64,
}

impl Uncovered<'_> {
    /// What any completion's score can gain over its partial's own under
    /// `f`, margin included: [`BOUND_MARGIN`] times, per uncovered input,
    /// `f`'s weights of its relations times its module's maximum
    /// raw-score product (0 for a detached input).
    pub(crate) fn factor(&self, f: &ScoreFn) -> f64 {
        let mut factor = BOUND_MARGIN;
        let mut mask = self.mask;
        while mask != 0 {
            let input = &self.inputs[mask.trailing_zeros() as usize];
            mask &= mask - 1;
            let max = self
                .modules
                .module(input.module)
                .map_or(0.0, |m| m.borrow().raw_product_max());
            factor *= f.contribution(&input.rels, max);
        }
        factor
    }
}

/// Where an m-join's complete results go (see *Early rejection* in the
/// module docs for what a sink that drops results owes).
pub(crate) trait JoinSink {
    /// A complete result that is the arriving tuple itself (a single-input
    /// m-join passes its input through).
    fn emit(&mut self, tuple: Tuple);
    /// The complete result `a.join(b)`, not built yet; returns whether the
    /// sink materialised it.
    fn emit_pair(&mut self, a: &Tuple, b: &Tuple) -> bool;
    /// Drop from `partials` — partial results still to be joined with the
    /// inputs `rest` — every one no completion of which the sink would
    /// keep, and return how many were dropped. The default keeps them all.
    fn bound_partials(&mut self, _partials: &mut Vec<Tuple>, _rest: Uncovered<'_>) -> u64 {
        0
    }
}

/// The sink that wants every result as a tuple: intermediate probe steps,
/// tests and the state manager's graft-time history replays.
impl JoinSink for Vec<Tuple> {
    fn emit(&mut self, tuple: Tuple) {
        self.push(tuple);
    }

    fn emit_pair(&mut self, a: &Tuple, b: &Tuple) -> bool {
        self.push(a.join(b));
        true
    }
}

/// An m-way pipelined hash join.
#[derive(Debug)]
pub struct MJoin {
    inputs: Vec<MJoinInput>,
    preds: Vec<JoinCond>,
    state: Vec<InputState>,
    output_rels: Vec<RelId>,
    /// Per input: the predicates that can probe into it, in predicate
    /// order, each oriented with that input as the probed side. Inputs of
    /// one m-join cover disjoint relation sets (a CQ references each
    /// relation once), so probe routing reduces to bitmask tests over
    /// input indices — no per-insert relation-set clones, orientation
    /// buffers or per-candidate map lookups.
    links: Vec<Vec<Link>>,
    /// Partial results of the probe sequence in flight, and the buffer
    /// the next step fills; empty between inserts, kept for their
    /// capacity.
    partials: Vec<Tuple>,
    next_partials: Vec<Tuple>,
}

impl MJoin {
    /// Build an m-join; registers probe keys on all stored modules so every
    /// predicate can be evaluated by hash lookup. Each input's cursor
    /// starts at its module's length: what a module already holds — a
    /// prefilled history, or the output of a producer this input now
    /// attaches to — counts as seen.
    pub fn new(
        inputs: Vec<MJoinInput>,
        preds: Vec<JoinCond>,
        modules: &AccessModuleArena,
    ) -> MJoin {
        // Hard limit: probe routing uses a u64 input bitmask; silently
        // wrapping shifts in release builds would mis-route joins.
        assert!(inputs.len() <= 64, "m-join supports at most 64 inputs");
        let mut output_rels: Vec<RelId> =
            inputs.iter().flat_map(|i| i.rels.iter().copied()).collect();
        output_rels.sort_unstable();
        output_rels.dedup();
        debug_assert!(
            output_rels.len() == inputs.iter().map(|i| i.rels.len()).sum::<usize>(),
            "inputs cover disjoint relations"
        );
        let mut mj = MJoin {
            state: vec![InputState::default(); inputs.len()],
            links: vec![Vec::new(); inputs.len()],
            inputs,
            preds: Vec::with_capacity(preds.len()),
            output_rels,
            partials: Vec::new(),
            next_partials: Vec::new(),
        };
        for pred in preds {
            mj.push_pred(pred);
        }
        mj.register_probe_keys(modules);
        mj
    }

    /// Index of the input covering `rel`, if any.
    fn owner_of(&self, rel: RelId) -> Option<usize> {
        self.inputs.iter().position(|i| i.rels.contains(&rel))
    }

    fn push_pred(&mut self, pred: JoinCond) {
        let owners = (self.owner_of(pred.left), self.owner_of(pred.right));
        // A predicate inside one input is the producer's business; one
        // with an uncovered side can never be evaluated here.
        if let (Some(left), Some(right)) = owners {
            if left != right {
                self.links[right].push(Link {
                    from: left,
                    from_rel: pred.left,
                    from_col: pred.left_col,
                    to_rel: pred.right,
                    to_col: pred.right_col,
                });
                self.links[left].push(Link {
                    from: right,
                    from_rel: pred.right,
                    from_col: pred.right_col,
                    to_rel: pred.left,
                    to_col: pred.left_col,
                });
            }
        }
        self.preds.push(pred);
    }

    /// Register every predicate endpoint as a probe key on the stored
    /// module of the input covering it, and set each such input's own-key
    /// count and cursor.
    fn register_probe_keys(&mut self, modules: &AccessModuleArena) {
        let mut keys: Vec<ProbeKey> = Vec::new();
        for (input, state) in self.inputs.iter().zip(&mut self.state) {
            let Some(module) = modules.module(input.module) else {
                continue;
            };
            let AccessModule::Stored(s) = &mut *module.borrow_mut() else {
                continue;
            };
            keys.clear();
            for pred in &self.preds {
                for key in [(pred.left, pred.left_col), (pred.right, pred.right_col)] {
                    if input.rels.contains(&key.0) && !keys.contains(&key) {
                        s.add_probe_key(key);
                        keys.push(key);
                    }
                }
            }
            state.own_keys = keys.len();
            state.cursor = s.len();
        }
    }

    /// The relations a full output tuple covers.
    pub(crate) fn output_rels(&self) -> &[RelId] {
        &self.output_rels
    }

    /// The inputs.
    pub fn inputs(&self) -> &[MJoinInput] {
        &self.inputs
    }

    /// The join predicates.
    pub fn preds(&self) -> &[JoinCond] {
        &self.preds
    }

    /// Entries of input `input`'s stored module this input has seen arrive
    /// (see the `access` module docs). Between routing passes it equals
    /// the module's length for every storing input — the invariant
    /// `qsys-verify` checks for modules that several inputs share.
    pub fn cursor(&self, input: usize) -> usize {
        self.state[input].cursor
    }

    /// Handle a tuple arriving on `input_idx`: store it (unless the input is
    /// a replay), then probe the other access modules following the
    /// adaptive probe sequence. Returns complete join results covering
    /// `Self::output_rels`. Remote probes go through `governor`.
    pub fn insert(
        &mut self,
        input_idx: usize,
        tuple: Tuple,
        epoch: Epoch,
        sources: &Sources,
        governor: &SourceGovernor,
        modules: &AccessModuleArena,
    ) -> Vec<Tuple> {
        let cx = JoinCx {
            sources,
            governor,
            modules,
        };
        let mut out = Vec::new();
        self.insert_governed(
            input_idx,
            tuple,
            epoch,
            cx,
            &mut out,
            &mut ExecWork::default(),
        );
        out
    }

    /// [`MJoin::insert`] for the routing loop: complete results are handed
    /// to the caller's `out` (unbuilt, when they come out of a probe step),
    /// probes and materialised joins are counted into `work`, and remote
    /// probes go through `cx.governor`'s retry/breaker loop — a probe that
    /// gives up contributes no matches (the loss is recorded against the
    /// batch so affected queries resolve as degraded) instead of panicking
    /// the lane.
    pub(crate) fn insert_governed(
        &mut self,
        input_idx: usize,
        tuple: Tuple,
        epoch: Epoch,
        cx: JoinCx<'_>,
        out: &mut impl JoinSink,
        work: &mut ExecWork,
    ) {
        debug_assert!(input_idx < self.inputs.len());
        if self.inputs[input_idx].store_arrivals {
            if let Some(module) = cx.modules.module(self.inputs[input_idx].module) {
                if let AccessModule::Stored(s) = &mut *module.borrow_mut() {
                    let state = &mut self.state[input_idx];
                    let cost = state.own_keys.max(1) as u64;
                    cx.sources
                        .clock()
                        .charge(TimeCategory::Join, HASH_OP_US * cost);
                    work.module_arrivals += 1;
                    work.module_pushes += u64::from(s.arrive(&mut state.cursor, &tuple, epoch));
                }
            }
        }
        if self.inputs.len() == 1 {
            out.emit(tuple);
            return;
        }

        let mut covered: u64 = 1 << input_idx;
        // 2..=64 inputs here (`new` asserts the upper end), so the shift
        // is 0..=62 and the mask is exact.
        let all = u64::MAX >> (64 - self.inputs.len());
        let mut remaining = all & !covered;
        let mut partials = mem::take(&mut self.partials);
        let mut next = mem::take(&mut self.next_partials);
        partials.push(tuple);

        // An empty partial set, or a component no predicate connects to
        // the covered inputs, cannot complete the join.
        while remaining != 0 {
            let rest = Uncovered {
                inputs: &self.inputs,
                modules: cx.modules,
                mask: remaining,
            };
            work.partials_bounded_out += out.bound_partials(&mut partials, rest);
            if partials.is_empty() {
                break;
            }
            // Probe sequence: among inputs connected to the covered set,
            // pick the most selective (fewest matches per probe) first —
            // the runtime adaptivity of [24].
            let Some(pick) = self.pick_next(covered, remaining) else {
                break;
            };
            remaining &= !(1 << pick);
            if remaining == 0 {
                self.probe_step(pick, covered, &partials, cx, out, work);
            } else {
                self.probe_step(pick, covered, &partials, cx, &mut next, work);
                partials.clear();
                mem::swap(&mut partials, &mut next);
            }
            covered |= 1 << pick;
        }
        partials.clear();
        self.partials = partials;
        self.next_partials = next;
    }

    /// Choose the next input to probe: in `remaining`, connected to the
    /// `covered` input mask, lowest observed selectivity (unknowns use a
    /// neutral prior of 1.0; ties go to the lowest input index).
    fn pick_next(&self, covered: u64, remaining: u64) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None;
        let mut candidates = remaining;
        while candidates != 0 {
            let i = candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            if !self.links[i].iter().any(|l| covered & (1 << l.from) != 0) {
                continue;
            }
            let sel = self.state[i].selectivity().unwrap_or(1.0);
            if best.is_none_or(|(b, _)| sel.total_cmp(&b).is_lt()) {
                best = Some((sel, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Probe `target` with every partial, extending matches and applying
    /// any additional predicates linking `target` to the covered set;
    /// results go to `out`.
    fn probe_step(
        &mut self,
        target: usize,
        covered: u64,
        partials: &[Tuple],
        cx: JoinCx<'_>,
        out: &mut impl JoinSink,
        work: &mut ExecWork,
    ) {
        let input = &self.inputs[target];
        let mut links = self.links[target]
            .iter()
            .filter(|l| covered & (1 << l.from) != 0);
        // lint:allow(panic-path): pick_next only returns inputs with a link into the covered set
        let probe = links.next().expect("connected");
        let Some(module) = cx.modules.module(input.module) else {
            // A detached (stateless) input can never contribute matches.
            return;
        };
        // Held across the whole step: nothing below touches another
        // module, and stored matches are borrowed from this one.
        let mut module = module.borrow_mut();
        let stats = &mut self.state[target];
        let target_rel = input.rels.first().copied();
        let clock = cx.sources.clock();

        for partial in partials {
            let Some(key) = partial.value_of(probe.from_rel, probe.from_col) else {
                continue;
            };
            let mut extend = |m: &Tuple| {
                // Residual selection on the probed relation.
                if let (Some(sel), Some(rel)) = (&input.selection, target_rel) {
                    if !m.part(rel).is_some_and(|p| sel.matches(&p.values)) {
                        return;
                    }
                }
                // Remaining predicates between the covered set and target.
                let ok = links.clone().all(|l| {
                    match (
                        partial.value_of(l.from_rel, l.from_col),
                        m.value_of(l.to_rel, l.to_col),
                    ) {
                        (Some(a), Some(b)) => a.joins_with(b),
                        _ => false,
                    }
                });
                if ok {
                    stats.matches += 1;
                    work.joins += u64::from(out.emit_pair(partial, m));
                }
            };
            match &mut *module {
                AccessModule::Stored(s) => s
                    .probe_iter((probe.to_rel, probe.to_col), key, input.epoch_cap, clock)
                    .for_each(&mut extend),
                AccessModule::Remote(r) => r
                    .probe(probe.to_col, key, cx.sources, cx.governor)
                    .iter()
                    .for_each(&mut extend),
            }
            stats.probes += 1;
            work.mjoin_probes += 1;
        }
    }

    /// Observed selectivity per input (for tests and the optimizer's
    /// runtime statistics refresh).
    #[cfg(test)]
    pub(crate) fn observed_selectivities(&self) -> Vec<Option<f64>> {
        self.state.iter().map(|s| s.selectivity()).collect()
    }

    /// Probes issued against each input so far.
    #[cfg(test)]
    pub(crate) fn probe_counts(&self) -> Vec<u64> {
        self.state.iter().map(|s| s.probes).collect()
    }

    /// Approximate resident bytes across this join's inputs, for the QS
    /// manager's memory budget: a stored input at `entries · 64 + own keys
    /// · entries · 24` (a tuple handle, plus an index entry per probe key
    /// this m-join registers), a probe cache at its own estimate. State
    /// several inputs share counts once per input, so the budget sees what
    /// it saw when every input had a private copy.
    pub(crate) fn approx_bytes(&self, modules: &AccessModuleArena) -> usize {
        self.inputs
            .iter()
            .zip(&self.state)
            .filter_map(|(input, state)| {
                Some(match &*modules.module(input.module)?.borrow() {
                    AccessModule::Stored(s) => s.len() * 64 + state.own_keys * s.len() * 24,
                    AccessModule::Remote(r) => r.approx_bytes(),
                })
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{RemoteModule, StoredModule};
    use crate::govern::RetryPolicy;
    use proptest::prelude::*;
    use qsys_source::Table;
    use qsys_types::{BaseTuple, SimClock, UserId, Value};
    use std::sync::Arc;

    fn tup(rel: u32, id: u64, keys: &[i64], score: f64) -> Tuple {
        Tuple::single(Arc::new(BaseTuple::new(
            RelId::new(rel),
            id,
            keys.iter().map(|&k| Value::Int(k)).collect(),
            score,
        )))
    }

    fn stored_input(rel: u32, modules: &mut AccessModuleArena) -> MJoinInput {
        input_over(
            rel,
            modules.alloc(AccessModule::Stored(StoredModule::new([]))),
        )
    }

    /// A storing input over relation `rel` that stores into `module`.
    fn input_over(rel: u32, module: ModuleId) -> MJoinInput {
        MJoinInput {
            rels: vec![RelId::new(rel)],
            module,
            epoch_cap: None,
            store_arrivals: true,
            selection: None,
        }
    }

    fn pred(l: u32, lc: usize, r: u32, rc: usize) -> JoinCond {
        JoinCond {
            left: RelId::new(l),
            left_col: lc,
            right: RelId::new(r),
            right_col: rc,
        }
    }

    fn sources() -> Sources {
        Sources::new(SimClock::new(), 5)
    }

    /// Symmetric pipelined join: results appear exactly once, whichever
    /// side arrives first.
    #[test]
    fn two_way_symmetric_join() {
        let mut modules = AccessModuleArena::new();
        let mut mj = MJoin::new(
            vec![stored_input(0, &mut modules), stored_input(1, &mut modules)],
            vec![pred(0, 0, 1, 0)],
            &modules,
        );
        let s = sources();
        let g = SourceGovernor::new(RetryPolicy::default());
        let r1 = mj.insert(0, tup(0, 1, &[5], 0.9), Epoch(0), &s, &g, &modules);
        assert!(r1.is_empty());
        let r2 = mj.insert(1, tup(1, 10, &[5], 0.8), Epoch(0), &s, &g, &modules);
        assert_eq!(r2.len(), 1);
        assert_eq!(r2[0].arity(), 2);
        let r3 = mj.insert(0, tup(0, 2, &[5], 0.7), Epoch(0), &s, &g, &modules);
        assert_eq!(r3.len(), 1);
        let r4 = mj.insert(1, tup(1, 11, &[6], 0.6), Epoch(0), &s, &g, &modules);
        assert!(r4.is_empty());
    }

    /// Three-way join over a path R0 -0- R1 -1- R2.
    #[test]
    fn three_way_join_produces_full_results() {
        let mut modules = AccessModuleArena::new();
        let mut mj = MJoin::new(
            vec![
                stored_input(0, &mut modules),
                stored_input(1, &mut modules),
                stored_input(2, &mut modules),
            ],
            vec![pred(0, 0, 1, 0), pred(1, 1, 2, 0)],
            &modules,
        );
        let s = sources();
        let g = SourceGovernor::new(RetryPolicy::default());
        assert!(mj
            .insert(0, tup(0, 1, &[5], 1.0), Epoch(0), &s, &g, &modules)
            .is_empty());
        assert!(mj
            .insert(2, tup(2, 30, &[7], 1.0), Epoch(0), &s, &g, &modules)
            .is_empty());
        // R1 row joins both sides: key 5 to R0, key 7 to R2.
        let r = mj.insert(1, tup(1, 20, &[5, 7], 1.0), Epoch(0), &s, &g, &modules);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].arity(), 3);
        assert_eq!(
            r[0].parts().iter().map(|p| p.rel.0).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    /// Full m-join output equals the batch join, regardless of arrival
    /// order (exercised more heavily by the property tests).
    #[test]
    fn arrival_order_does_not_change_result_set() {
        let tuples0: Vec<Tuple> = (0..6).map(|i| tup(0, i, &[(i % 3) as i64], 1.0)).collect();
        let tuples1: Vec<Tuple> = (0..6)
            .map(|i| tup(1, 100 + i, &[(i % 3) as i64], 1.0))
            .collect();
        let run = |order: &[(usize, &Tuple)]| {
            let mut modules = AccessModuleArena::new();
            let mut mj = MJoin::new(
                vec![stored_input(0, &mut modules), stored_input(1, &mut modules)],
                vec![pred(0, 0, 1, 0)],
                &modules,
            );
            let s = sources();
            let g = SourceGovernor::new(RetryPolicy::default());
            let mut results = Vec::new();
            for (idx, t) in order {
                results.extend(mj.insert(*idx, (*t).clone(), Epoch(0), &s, &g, &modules));
            }
            let mut prov: Vec<_> = results.iter().map(|t| t.provenance()).collect();
            prov.sort();
            prov
        };
        let mut interleaved: Vec<(usize, &Tuple)> = Vec::new();
        for i in 0..6 {
            interleaved.push((0, &tuples0[i]));
            interleaved.push((1, &tuples1[i]));
        }
        let mut sequential: Vec<(usize, &Tuple)> = Vec::new();
        for t in &tuples0 {
            sequential.push((0, t));
        }
        for t in &tuples1 {
            sequential.push((1, t));
        }
        let a = run(&interleaved);
        let b = run(&sequential);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12); // 6 per key-group: 2*2*3 keys = 12
    }

    /// A remote (random access) input is probed, not streamed.
    #[test]
    fn remote_input_is_probed_with_cache() {
        let s = sources();
        let g = SourceGovernor::new(RetryPolicy::default());
        let rel = RelId::new(1);
        let rows = (0..4)
            .map(|i| {
                Arc::new(BaseTuple::new(
                    rel,
                    i,
                    vec![Value::Int((i % 2) as i64)],
                    1.0,
                ))
            })
            .collect();
        s.register(Table::new(rel, rows));
        let mut modules = AccessModuleArena::new();
        let remote = MJoinInput {
            rels: vec![rel],
            module: modules.alloc(AccessModule::Remote(RemoteModule::new(rel))),
            epoch_cap: None,
            store_arrivals: false,
            selection: None,
        };
        let mut mj = MJoin::new(
            vec![stored_input(0, &mut modules), remote],
            vec![pred(0, 0, 1, 0)],
            &modules,
        );
        let r = mj.insert(0, tup(0, 1, &[0], 1.0), Epoch(0), &s, &g, &modules);
        assert_eq!(r.len(), 2); // two remote rows with key 0
        assert_eq!(s.probes(), 1);
        // Another arrival with the same key: served from the probe cache.
        let r = mj.insert(0, tup(0, 2, &[0], 1.0), Epoch(0), &s, &g, &modules);
        assert_eq!(r.len(), 2);
        assert_eq!(s.probes(), 1);
    }

    /// Epoch caps restrict probes to pre-epoch state (RecoverState).
    #[test]
    fn epoch_cap_limits_matches() {
        let mut modules = AccessModuleArena::new();
        let capped = MJoinInput {
            rels: vec![RelId::new(1)],
            module: modules.alloc(AccessModule::Stored(StoredModule::new([]))),
            epoch_cap: Some(Epoch(1)),
            store_arrivals: true,
            selection: None,
        };
        let mut mj = MJoin::new(
            vec![stored_input(0, &mut modules), capped],
            vec![pred(0, 0, 1, 0)],
            &modules,
        );
        let s = sources();
        let g = SourceGovernor::new(RetryPolicy::default());
        // One R1 tuple in epoch 0, one in epoch 1 — only the former visible.
        mj.insert(1, tup(1, 10, &[5], 1.0), Epoch(0), &s, &g, &modules);
        mj.insert(1, tup(1, 11, &[5], 1.0), Epoch(1), &s, &g, &modules);
        let r = mj.insert(0, tup(0, 1, &[5], 1.0), Epoch(1), &s, &g, &modules);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].part(RelId::new(1)).unwrap().row_id, 10);
    }

    /// Selectivity monitoring kicks in after enough probes and reorders the
    /// probe sequence (most selective first).
    #[test]
    fn adaptive_probe_sequence_prefers_selective_input() {
        // R0 joins R1 (col 0, high fanout) and R2 (col 1, zero matches).
        let mut modules = AccessModuleArena::new();
        let mut mj = MJoin::new(
            vec![
                stored_input(0, &mut modules),
                stored_input(1, &mut modules),
                stored_input(2, &mut modules),
            ],
            vec![pred(0, 0, 1, 0), pred(0, 1, 2, 0)],
            &modules,
        );
        let s = sources();
        let g = SourceGovernor::new(RetryPolicy::default());
        for i in 0..10 {
            mj.insert(1, tup(1, 100 + i, &[1], 1.0), Epoch(0), &s, &g, &modules);
        }
        // No R2 tuples at all: selectivity of input 2 is 0. The very first
        // R0 insert fans out to 10 partials, giving input 2 instant
        // evidence of zero selectivity.
        for i in 0..10 {
            mj.insert(0, tup(0, i, &[1, 9], 1.0), Epoch(0), &s, &g, &modules);
        }
        let sel = mj.observed_selectivities();
        assert_eq!(sel[2], Some(0.0), "input 2 observed as fully selective");
        // Adaptation: once input 2 looks most selective it is probed first,
        // pruning every partial — so input 1 stops being probed. Only the
        // first insert (before evidence) ever touched it.
        let probes = mj.probe_counts();
        assert_eq!(probes[1], 1, "R1 probed only before adaptation kicked in");
        let before = mj.probe_counts()[1];
        mj.insert(0, tup(0, 99, &[1, 9], 1.0), Epoch(0), &s, &g, &modules);
        assert_eq!(mj.probe_counts()[1], before, "R1 probe was skipped");
    }

    #[test]
    fn single_input_passes_through() {
        let mut modules = AccessModuleArena::new();
        let mut mj = MJoin::new(vec![stored_input(0, &mut modules)], vec![], &modules);
        let s = sources();
        let g = SourceGovernor::new(RetryPolicy::default());
        let r = mj.insert(0, tup(0, 1, &[5], 0.5), Epoch(0), &s, &g, &modules);
        assert_eq!(r.len(), 1);
    }

    /// Two consumers of one R0 stream share its module, which indexes both
    /// columns they probe R0 on — `narrow` joins on column 0 only, `wide`
    /// on columns 0 and 1 — and holds each tuple once. What each pays is
    /// its own: an arrival charges `2 · own keys` (besides its probes),
    /// and the input is priced at `entries · 64 + own keys · entries · 24`
    /// bytes, the eviction budget's estimate — 880 for ten tuples at one
    /// key, 1,120 at two — whatever the shared module indexes.
    #[test]
    fn consumers_of_one_stream_pay_their_own_keys() {
        let mut modules = AccessModuleArena::new();
        let r0 = modules.alloc(AccessModule::Stored(StoredModule::new([])));
        let mut narrow = MJoin::new(
            vec![input_over(0, r0), stored_input(1, &mut modules)],
            vec![pred(0, 0, 1, 0)],
            &modules,
        );
        let inputs = vec![
            input_over(0, modules.retain(r0)),
            stored_input(2, &mut modules),
            stored_input(3, &mut modules),
        ];
        let mut wide = MJoin::new(inputs, vec![pred(0, 0, 2, 0), pred(0, 1, 3, 0)], &modules);
        let s = sources();
        let g = SourceGovernor::new(RetryPolicy::default());
        let cx = JoinCx {
            sources: &s,
            governor: &g,
            modules: &modules,
        };
        let mut work = ExecWork::default();
        for i in 0..10 {
            let t = tup(0, i, &[(i % 3) as i64, (i % 3) as i64], 0.5);
            for (mj, own_keys) in [(&mut narrow, 1), (&mut wide, 2)] {
                let (clock, probes) = (s.clock().now_us(), mj.probe_counts().iter().sum::<u64>());
                mj.insert_governed(0, t.clone(), Epoch(0), cx, &mut Vec::new(), &mut work);
                let probed = mj.probe_counts().iter().sum::<u64>() - probes;
                assert_eq!(s.clock().now_us() - clock, 2 * own_keys + 2 * probed, "{i}");
            }
        }
        let module = modules.module(r0).unwrap().borrow();
        assert_eq!(module.as_stored().map(StoredModule::len), Some(10));
        assert_eq!((work.module_arrivals, work.module_pushes), (20, 10));
        assert_eq!((narrow.cursor(0), wide.cursor(0)), (10, 10));
        // The other inputs are empty, so this is R0's price alone.
        assert_eq!(narrow.approx_bytes(&modules), 880);
        assert_eq!(wide.approx_bytes(&modules), 1120);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The partial bound, margin included, is at least `score_pair` of
        /// every completion, and no looser than the margin: six relations
        /// (ids with gaps) are dealt to a partial result and up to three
        /// uncovered inputs, each input's module holds one to three tuples
        /// over its relations at random raw scores, and the score function
        /// weighs some relations, all of them, none, or ones nobody has.
        /// The completion through every module's best tuple meets the
        /// bound with no slack but the margin.
        #[test]
        fn partial_bound_covers_every_completion(
            sides in prop::collection::vec(0u8..4, 6),
            raws in prop::collection::vec(0.0f64..1.0, 6 * 4),
            per_module in prop::collection::vec(1usize..=3, 3),
            weights in prop::collection::vec((0u32..13, 0.05f64..4.0), 0..=6),
            static_factor in 0.01f64..2.0,
        ) {
            let mut sides = sides;
            if !sides.contains(&0) {
                sides[0] = 0;
            }
            let rel = |i: usize| RelId::new(2 * i as u32 + 1);
            let part = |i: usize, row: usize| {
                Arc::new(BaseTuple::new(rel(i), row as u64, vec![], raws[4 * i + row]))
            };
            let partial = Tuple::from_parts((0..6).filter(|&i| sides[i] == 0).map(|i| part(i, 0)).collect::<Vec<_>>());
            let mut modules = AccessModuleArena::new();
            let mut inputs = Vec::new();
            let mut stored: Vec<Vec<Tuple>> = Vec::new();
            for side in 1..4u8 {
                let rels: Vec<usize> = (0..6).filter(|&i| sides[i] == side).collect();
                if rels.is_empty() {
                    continue;
                }
                let tuples: Vec<Tuple> = (1..=per_module[side as usize - 1])
                    .map(|row| Tuple::from_parts(rels.iter().map(|&i| part(i, row))))
                    .collect();
                let mut module = StoredModule::new([]);
                for t in &tuples {
                    module.push(t.clone(), Epoch(0));
                }
                inputs.push(MJoinInput {
                    rels: rels.iter().map(|&i| rel(i)).collect(),
                    ..input_over(0, modules.alloc(AccessModule::Stored(module)))
                });
                stored.push(tuples);
            }
            let f = ScoreFn::banks(
                UserId::new(0),
                static_factor,
                weights.iter().map(|&(r, w)| (RelId::new(r), w)),
            );
            let rest = Uncovered { inputs: &inputs, modules: &modules, mask: (1u64 << inputs.len()) - 1 };
            let bound = f.score(&partial).get() * rest.factor(&f);
            // Every completion: the partial and one tuple of every module.
            let mut rests: Vec<Option<Tuple>> = vec![None];
            for tuples in &stored {
                rests = rests
                    .iter()
                    .flat_map(|r| tuples.iter().map(move |t| Some(r.as_ref().map_or_else(|| t.clone(), |r| r.join(t)))))
                    .collect();
            }
            let mut best = 0.0f64;
            for r in &rests {
                let score = r.as_ref().map_or_else(|| f.score(&partial), |r| f.score_pair(&partial, r)).get();
                prop_assert!(score <= bound, "{score} > {bound}");
                best = best.max(score);
            }
            prop_assert!(bound <= best * BOUND_MARGIN * (1.0 + 1e-12), "{bound} vs best {best}");
        }
    }
}
