//! Algorithm 1: the memoized BestPlan search.
//!
//! Top-down, Volcano-style [8] search over input assignments. The recursion
//! mirrors the paper's pseudocode: each step either *stops* (constructing a
//! plan from the inputs accumulated in `A`, completed with the always-valid
//! base-relation defaults) or *commits* to one more candidate `J`, reducing
//! the remaining candidate set `S` so that queries sourced by `J` never also
//! use a candidate overlapping `J` (line 14's adjustment). Plans for a given
//! accumulated set `A` are memoized (line 1 / line 24).
//!
//! One representational difference from the paper's listing: base relations
//! (which the paper includes in `S` as always-useful candidates) are folded
//! into plan *completion* instead of the search space — any relation not
//! covered by a chosen candidate is covered by its default single-relation
//! input (streamed if it has a score attribute or is tiny, probed
//! otherwise). This is equivalent — every valid assignment is still
//! reachable — and keeps the exponential search in the number of
//! *interesting* (multi-relation) candidates, which is the quantity
//! Figure 11 plots.
//!
//! One search covers one user query's conjunctive queries:
//! [`Optimizer::optimize`](crate::Optimizer::optimize) runs one per user
//! query of a batch, in every sharing mode (without sharing, a search is
//! handed no candidates and explores its one default state).
//!
//! ### Dense per-search indices on the hot path
//!
//! Everything the exponential part touches is an integer into a per-search
//! arena or a bitmask over per-search indices; no search state owns a heap
//! structure:
//!
//! - **Query sets are one-word [`CqSet`] bitmasks** over the searched
//!   queries' dense [`CqTable`] indices, so line 14's set difference, the
//!   emptiness test, and candidate copies are word ops.
//! - **Candidates live once in an arena** (`cands`, deduplicated by
//!   `(SigId, CqSet)`); a state's `S` is a slice of [`CandIdx`] and `A` is
//!   one push/pop stack shared by the whole recursion.
//! - **The memo is keyed by a `u64` mask and consulted by the parent.**
//!   Root candidates have distinct signatures and line 14's reduction keeps
//!   a candidate's signature, so `A` is exactly a set of root positions:
//!   the key is carried down as `mask | 1 << position`, and a parent looks
//!   each child's mask up *before* building `S′` — four children in five
//!   hit and cost one probe.
//! - **No state stores an assignment.** A memo entry is the best cost at
//!   or below the state, the mask of the state whose stop plan achieves it,
//!   and the candidate whose commit first entered the state. The overall
//!   winner is materialized once, after the search, by re-committing the
//!   winning stop state's entry chain and reading the live completion.
//! - **Completion is one live state, edited in place, and a state costs
//!   what its commit changed.** The all-defaults completion (which queries
//!   still need each default input, how many streaming inputs each query
//!   has, and the cost term of every input) is built once per search.
//!   Committing a candidate applies only that candidate's delta through
//!   its precomputed per-query covered-default table, logging every
//!   default it displaces, and re-derives the term of exactly the inputs
//!   the delta reaches: the defaults that lost a query, every input
//!   (default or committed) of a query whose read depth moved, and the
//!   candidate itself. An input's term depends on nothing else — its
//!   query set, and each of those queries' stream count, which it sees
//!   only through the per-search depth table — so every other cached term
//!   is still what costing that input afresh would give. Overwritten terms
//!   are logged like displaced defaults, and returning from the child
//!   unwinds both logs. A state's cost is then the fold of the cached
//!   terms — committed candidates in commit order, then defaults in
//!   canonical rank order, reads before penalty. **That order is the
//!   contract:** floating-point addition does not associate, so the same
//!   terms added in the order the original `BTreeSet`-based code added
//!   them give the same bits, and any other order need not. Terms
//!   themselves come from one function with the original operations,
//!   sharer by sharer. Sharing decisions, costs, `explored` (which the
//!   virtual clock is charged by) and `memo_hits` are therefore bit-for-bit
//!   unchanged — the golden tests in `tests/interner_invariants.rs`, the
//!   differential proptest against the rebuild-per-state recursion (kept
//!   below as a test reference), and a random commit/retract walk checked
//!   against from-scratch costing pin that.
//! - **The memo and the arena index hash with [`FxHashMap`].** Their keys
//!   are the search's own masks and `(SigId, CqSet)` pairs — dense ids this
//!   process handed out, at most `2^max_candidates` of them — probed for
//!   every state the search names; neither map is iterated, so no order
//!   depends on the hasher.
//!
//! Per-signature facts (cardinality, streamability, reuse) are answered
//! from a dense id-indexed cache precomputed before the recursion starts;
//! the search never touches a deep [`SubExprSig`](qsys_query::SubExprSig).

use crate::cost::{CostModel, ReuseOracle};
use crate::heuristics::{compute_fact, Candidate, HeuristicConfig};
use qsys_query::{ConjunctiveQuery, CqIdx, CqSet, CqTable, SigId, SigInterner};
use qsys_types::FxHashMap;
use std::collections::HashMap;

/// Search statistics, summed over a batch's per-user-query searches
/// (Figure 11's x-axis is `candidates`; its y-axis grows with `explored`).
#[derive(Clone, Copy, Debug, Default)]
pub struct OptStats {
    /// Multi-relation candidates entering the search.
    pub candidates: usize,
    /// States named by the search: entered, or answered from the memo by
    /// the parent.
    pub explored: usize,
    /// Memo hits.
    pub memo_hits: usize,
    /// Cost of the winning plan (µs estimate).
    pub best_cost: f64,
    /// Always 0: every batch searches. Kept because `perf/` reads it by name.
    pub warm_hits: usize,
}

/// A complete, valid input assignment `(I, 𝕀)`: each entry is an input
/// subexpression with the queries it sources. Every relation of every query
/// is covered by exactly one input (Definition 1).
pub(crate) type Assignment = Vec<Candidate>;

/// Index into the search's candidate arena.
type CandIdx = u32;

/// A searched state's outcome. The best plan below a state is always the
/// stop plan of some state at or below it, named here by memo mask; that
/// state's `A` is recovered from the `via` chain (each state's mask minus
/// its `via` position is the state that first entered it), so no state
/// ever stores an assignment.
#[derive(Clone, Copy, Debug)]
struct Memoized {
    /// Cost of the best plan at or below the state.
    cost: f64,
    /// The state whose stop plan that is.
    stops_at: u64,
    /// The candidate whose commit first entered the state (unread for the
    /// root).
    via: CandIdx,
}

/// Per-signature facts the recursion consults, computed once per id.
#[derive(Clone, Copy, Debug)]
struct SigFacts {
    /// Estimated result cardinality.
    card: f64,
    /// Whether every covered relation is streamable (heuristic 2).
    streamed: bool,
    /// Atom count.
    size: usize,
    /// Tuples already resident for this signature (reuse oracle answer).
    already: u64,
}

/// One input's contribution to a plan's cost: what reading it costs, then
/// what asking the source to compute it costs. A plan's cost adds the two
/// in that order, input by input.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Term {
    /// Expected reads (or probes) times the unit cost.
    access_us: f64,
    /// Push-down penalty; `0.0` for single relations and probed inputs.
    penalty_us: f64,
}

impl Term {
    /// Add this input to a plan's running cost.
    #[inline]
    fn add_to(self, total: &mut f64) {
        *total += self.access_us;
        *total += self.penalty_us;
    }
}

/// Where both undo logs stood before a [`commit`](BestPlanSearch::commit).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Mark {
    displaced: usize,
    terms: usize,
}

/// The memoized search.
pub(crate) struct BestPlanSearch<'a> {
    model: &'a CostModel<'a>,
    interner: &'a mut SigInterner,
    reuse: &'a dyn ReuseOracle,
    /// Candidate arena: every `(sig, queries)` the search ever names lives
    /// here exactly once; states reference candidates by [`CandIdx`].
    cands: Vec<CandData>,
    /// Arena deduplication: `(sig, queries)` → index.
    cand_ids: FxHashMap<(SigId, CqSet), CandIdx>,
    /// Memo: root positions of `A` as a bitmask → the state's outcome.
    memo: FxHashMap<u64, Memoized>,
    /// Per-signature facts, indexed by `SigId` (defaults and candidates are
    /// seeded up front; recursion never interns).
    facts: Vec<Option<SigFacts>>,
    /// [`CostModel::depth_fraction`] of each query's whole-result
    /// cardinality at every stream count it can have, tabulated once per
    /// search: query `q` with `m` streaming inputs is at `q * depth_stride +
    /// m`, for `m` from 0 to its atom count.
    depth: Vec<f64>,
    depth_stride: usize,
    /// Per query index: each atom's relation and its interned default
    /// single-relation signature.
    defaults_of: Vec<Vec<(qsys_types::RelId, SigId)>>,
    /// The default ranks of each query's atoms, in atom order: query `q`'s
    /// are [`span`]`(ranks_of, ranks_at, q)`.
    ranks_of: Vec<u16>,
    ranks_at: Vec<u32>,
    /// Default signature per rank: ranks follow canonical (deep) signature
    /// order, so completion emits defaults in exactly the order the
    /// deep-keyed B-tree produced.
    rank_sigs: Vec<SigId>,
    /// Whether the default at each rank is a streaming input.
    rank_streamed: Vec<bool>,
    /// The live completion of `a`: which queries still need each default
    /// (by rank) — the all-defaults baseline at the root, edited in place
    /// by [`commit`](Self::commit) / [`retract`](Self::retract)…
    live_defaults: Vec<CqSet>,
    /// …and how many streaming inputs each query has under it.
    live_m: Vec<u32>,
    /// The committed candidates `A` of the state being searched, in commit
    /// order.
    a: Vec<CandIdx>,
    /// The cost term of every input of the live completion, by slot: one
    /// per default rank (zero while no query needs it), then one per entry
    /// of `a`. Always what [`add_input_cost`](Self::add_input_cost) gives
    /// for that input under `live_defaults` / `live_m`.
    terms: Vec<Term>,
    /// Every default displaced by a commit still on `a`, as `(rank,
    /// query)`, in displacement order.
    displaced: Vec<(u16, CqIdx)>,
    /// Every term overwritten by a commit still on `a`, as `(slot, old
    /// term)`, under the same mark discipline as `displaced`.
    overwritten: Vec<(u32, Term)>,
    /// Scratch of one commit: the default ranks whose term it must
    /// re-derive, one bit per rank; all zero between commits.
    stale: Vec<u64>,
    /// Per root position and query index, the default ranks a commit of
    /// that root candidate displaces for that query: position `p`, query
    /// `q`'s are [`span`]`(cover, cover_at, p * n_cq + q)`.
    cover: Vec<u16>,
    cover_at: Vec<u32>,
    /// Per root position: the root positions whose signatures share a
    /// relation with it (line 14 reduces exactly those).
    overlaps: Vec<u64>,
    stats: OptStats,
}

/// One arena entry.
#[derive(Clone, Debug)]
struct CandData {
    sig: SigId,
    queries: CqSet,
    /// Position of `sig` among the root candidates (its memo-mask bit).
    pos: u8,
}

/// [`CostModel::depth_fraction`] of each query's whole-result cardinality
/// `cq_card[q]` at every stream count from 0 to its atom count `atoms[q]`,
/// as `(table, stride)`: query `q` with `m` streaming inputs is at
/// `q * stride + m`. The one `powf` site of the cost model, hoisted out of
/// the recursion: a query has at most one streaming input per atom.
fn depth_table(model: &CostModel<'_>, cq_card: &[f64], atoms: &[usize]) -> (Vec<f64>, usize) {
    let stride = atoms.iter().copied().max().unwrap_or(0) + 1;
    let mut depth = vec![1.0; atoms.len() * stride];
    for (qi, &n) in atoms.iter().enumerate() {
        for m in 0..=n {
            depth[qi * stride + m] = model.depth_fraction(cq_card[qi], m);
        }
    }
    (depth, stride)
}

impl<'a> BestPlanSearch<'a> {
    /// Set up a search over `queries` (each once; `table` is their dense
    /// index), precomputing every per-signature fact the recursion will
    /// need and building the all-defaults completion it starts from.
    pub(crate) fn new(
        model: &'a CostModel<'a>,
        reuse: &'a dyn ReuseOracle,
        queries: Vec<&'a ConjunctiveQuery>,
        interner: &'a mut SigInterner,
        table: &'a CqTable,
    ) -> BestPlanSearch<'a> {
        let n_cq = queries.len();
        let mut cq_card = vec![0.0; n_cq];
        let mut defaults_of: Vec<Vec<(qsys_types::RelId, SigId)>> = vec![Vec::new(); n_cq];
        for cq in &queries {
            let whole = interner.of_cq(cq);
            let qi = table.idx(cq.id).index();
            cq_card[qi] = compute_fact(whole, model, interner).card;
            defaults_of[qi] = cq
                .atoms
                .iter()
                .map(|atom| {
                    (
                        atom.rel,
                        interner.relation(atom.rel, atom.selection.clone()),
                    )
                })
                .collect();
        }
        // Canonical ordering of the default signatures (one deep sort, done
        // before the exponential part begins).
        let mut default_ids: Vec<SigId> = defaults_of
            .iter()
            .flat_map(|d| d.iter().map(|(_, s)| *s))
            .collect();
        default_ids.sort_unstable();
        default_ids.dedup();
        default_ids.sort_by(|a, b| interner.resolve(*a).cmp(interner.resolve(*b)));
        let default_rank: HashMap<SigId, usize> = default_ids
            .iter()
            .enumerate()
            .map(|(rank, id)| (*id, rank))
            .collect();
        let rank_sigs = default_ids;
        // Ranks travel as u16 through the cover tables and the undo log.
        assert!(
            rank_sigs.len() <= u16::MAX as usize + 1,
            "search with {} default signatures exceeds the dense-rank range",
            rank_sigs.len()
        );
        let n_ranks = rank_sigs.len();
        let ranks_of: Vec<u16> = defaults_of
            .iter()
            .flat_map(|d| d.iter().map(|(_, sig)| default_rank[sig] as u16))
            .collect();
        let ranks_at: Vec<u32> = std::iter::once(0)
            .chain(defaults_of.iter().scan(0u32, |end, d| {
                *end += d.len() as u32;
                Some(*end)
            }))
            .collect();
        let atoms: Vec<usize> = defaults_of.iter().map(Vec::len).collect();
        let (depth, depth_stride) = depth_table(model, &cq_card, &atoms);
        let mut search = BestPlanSearch {
            model,
            interner,
            reuse,
            cands: Vec::new(),
            cand_ids: FxHashMap::default(),
            memo: FxHashMap::default(),
            facts: Vec::new(),
            depth,
            depth_stride,
            defaults_of,
            ranks_of,
            ranks_at,
            rank_sigs,
            rank_streamed: Vec::new(),
            live_defaults: vec![CqSet::default(); n_ranks],
            live_m: vec![0; n_cq],
            a: Vec::new(),
            terms: Vec::new(),
            displaced: Vec::new(),
            overwritten: Vec::new(),
            stale: vec![0; n_ranks.div_ceil(64)],
            cover: Vec::new(),
            cover_at: vec![0],
            overlaps: Vec::new(),
            stats: OptStats::default(),
        };
        let ids: Vec<SigId> = search
            .defaults_of
            .iter()
            .flat_map(|d| d.iter().map(|(_, s)| *s))
            .collect();
        for id in ids {
            search.seed_facts(id);
        }
        // The all-defaults completion (the `A = ∅` stop plan): default sets
        // and per-query stream counts. Commits edit it in place from here.
        search.rank_streamed = search
            .rank_sigs
            .iter()
            .map(|sig| search.facts(*sig).streamed)
            .collect();
        for cq in &queries {
            let qi = table.idx(cq.id);
            for &rank in span(&search.ranks_of, &search.ranks_at, qi.index()) {
                search.live_defaults[rank as usize].insert(qi);
                if search.rank_streamed[rank as usize] {
                    search.live_m[qi.index()] += 1;
                }
            }
        }
        search.terms = (0..n_ranks).map(|rank| search.rank_term(rank)).collect();
        search
    }

    /// Compute and cache the per-signature facts for `sig`: cardinality,
    /// streamability and size from the catalog, residency (`already`) from
    /// the reuse oracle.
    fn seed_facts(&mut self, sig: SigId) {
        let slot = sig.index();
        if slot >= self.facts.len() {
            self.facts.resize(slot + 1, None);
        }
        if self.facts[slot].is_some() {
            return;
        }
        let f = compute_fact(sig, self.model, self.interner);
        self.facts[slot] = Some(SigFacts {
            card: f.card,
            streamed: f.streamed,
            size: f.size as usize,
            already: self.reuse.streamed(sig).unwrap_or(0),
        });
    }

    #[inline]
    fn facts(&self, sig: SigId) -> SigFacts {
        self.facts[sig.index()].expect("facts seeded before the search")
    }

    /// Intern a `(sig, queries)` pair in the candidate arena.
    fn cand_idx(&mut self, sig: SigId, pos: u8, queries: CqSet) -> CandIdx {
        use std::collections::hash_map::Entry;
        match self.cand_ids.entry((sig, queries)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let idx = self.cands.len() as CandIdx;
                self.cands.push(CandData { sig, queries, pos });
                e.insert(idx);
                idx
            }
        }
    }

    /// Append to the cover table, per query, the default ranks a commit of
    /// `sig` displaces (its covered relations intersected with the query's
    /// default list).
    fn push_cover_of(&mut self, sig: SigId) {
        let rels = self.interner.rels(sig);
        for (q, defs) in self.defaults_of.iter().enumerate() {
            let ranks = span(&self.ranks_of, &self.ranks_at, q);
            for ((rel, _), &rank) in defs.iter().zip(ranks) {
                if rels.contains(rel) {
                    self.cover.push(rank);
                }
            }
            self.cover_at.push(self.cover.len() as u32);
        }
    }

    /// Enter the multi-relation `candidates` into the arena as the root
    /// `S`, with the per-position tables the recursion reads: covered
    /// defaults and the `shares_relation` matrix.
    fn seed_root(&mut self, candidates: Vec<Candidate>) -> Vec<CandIdx> {
        for c in &candidates {
            self.seed_facts(c.sig);
        }
        let multi: Vec<Candidate> = candidates
            .into_iter()
            .filter(|c| self.facts(c.sig).size > 1 && !c.queries.is_empty())
            .collect();
        // A state's memo key is one bit per root candidate, which names the
        // set `A` only while signatures are distinct.
        assert!(
            multi.len() <= HeuristicConfig::MAX_CANDIDATES_LIMIT,
            "{} multi-relation candidates exceed the {}-bit memo mask \
             (HeuristicConfig::max_candidates bounds them)",
            multi.len(),
            HeuristicConfig::MAX_CANDIDATES_LIMIT
        );
        for (i, c) in multi.iter().enumerate() {
            assert!(
                multi[..i].iter().all(|earlier| earlier.sig != c.sig),
                "candidate signature {} entered the search twice",
                c.sig
            );
        }
        self.stats.candidates = multi.len();
        for c in &multi {
            self.push_cover_of(c.sig);
        }
        self.overlaps = multi
            .iter()
            .map(|c| {
                multi.iter().enumerate().fold(0u64, |bits, (pos, other)| {
                    bits | u64::from(self.interner.shares_relation(c.sig, other.sig)) << pos
                })
            })
            .collect();
        multi
            .into_iter()
            .enumerate()
            .map(|(pos, c)| self.cand_idx(c.sig, pos as u8, c.queries))
            .collect()
    }

    /// The stop plan of the current state as an assignment: `A`, then the
    /// defaults still live in canonical rank order.
    fn live_assignment(&self) -> Assignment {
        let committed = self.a.iter().map(|&ci| {
            let cd = &self.cands[ci as usize];
            (cd.sig, cd.queries)
        });
        let defaults = self
            .live_defaults
            .iter()
            .enumerate()
            .filter(|(_, set)| !set.is_empty())
            .map(|(rank, set)| (self.rank_sigs[rank], *set));
        committed
            .chain(defaults)
            .map(|(sig, queries)| Candidate { sig, queries })
            .collect()
    }

    /// Run the search over multi-relation `candidates`; returns the best
    /// assignment (already completed with defaults) and stats.
    pub(crate) fn run(mut self, candidates: Vec<Candidate>) -> (Assignment, OptStats) {
        let root = self.seed_root(candidates);
        self.stats.explored += 1;
        let best = self.best_plan(&root, 0);
        self.stats.best_cost = best.cost;
        // Re-enter the winning stop state the way the search first did
        // (every commit has been retracted, so the live state is the
        // all-defaults completion again) and read its plan off.
        let mut path = Vec::new();
        let mut mask = best.stops_at;
        while mask != 0 {
            let via = self.memo[&mask].via;
            path.push(via);
            mask &= !(1 << self.cands[via as usize].pos);
        }
        for &j in path.iter().rev() {
            self.commit(j);
        }
        (self.live_assignment(), self.stats)
    }

    /// The recursive search (Algorithm 1) for the state whose committed
    /// set `A` is on `self.a` (memo key `mask`, completion in the live
    /// state) and whose remaining candidates are `s`. The caller has
    /// counted the state and found it missing from the memo.
    fn best_plan(&mut self, s: &[CandIdx], mask: u64) -> Memoized {
        // Option 0 (and the |S| = 0 base case): stop here — `A` completed
        // with the default per-relation inputs still live.
        let mut best = Memoized {
            cost: self.live_cost(),
            stops_at: mask,
            via: self.a.last().copied().unwrap_or_default(),
        };

        // Otherwise commit to each candidate J in turn (lines 11–23).
        let mut s_prime: Vec<CandIdx> = Vec::with_capacity(s.len().saturating_sub(1));
        for (idx, &j) in s.iter().enumerate() {
            self.stats.explored += 1;
            let j_pos = self.cands[j as usize].pos;
            let child_mask = mask | 1 << j_pos;
            let child = match self.memo.get(&child_mask) {
                Some(&hit) => {
                    self.stats.memo_hits += 1;
                    hit
                }
                None => {
                    self.reduce(s, idx, &mut s_prime);
                    let mark = self.commit(j);
                    let child = self.best_plan(&s_prime, child_mask);
                    self.retract(mark);
                    child
                }
            };
            if child.cost < best.cost {
                best.cost = child.cost;
                best.stops_at = child.stops_at;
            }
        }
        self.memo.insert(mask, best);
        best
    }

    /// Fill `s_prime` with the candidates that remain once `s[idx]` is
    /// committed: the rest of `s`, those overlapping it reduced by line 14.
    fn reduce(&mut self, s: &[CandIdx], idx: usize, s_prime: &mut Vec<CandIdx>) {
        let jd = &self.cands[s[idx] as usize];
        let j_queries = jd.queries;
        let reduces = self.overlaps[jd.pos as usize];
        s_prime.clear();
        for (idx2, &j2) in s.iter().enumerate() {
            if idx2 == idx {
                continue;
            }
            let cd2 = &self.cands[j2 as usize];
            if reduces >> cd2.pos & 1 == 1 && cd2.queries.intersects(j_queries) {
                // Queries sourced by J must not also use an overlapping J′
                // (line 14: S′[J′] = S[J′] − S[J]).
                let reduced = cd2.queries.difference(j_queries);
                if !reduced.is_empty() {
                    let (sig, pos) = (cd2.sig, cd2.pos);
                    s_prime.push(self.cand_idx(sig, pos, reduced));
                }
            } else {
                s_prime.push(j2);
            }
        }
    }

    /// Push `j` onto `A` and apply its delta to the live completion: it
    /// displaces the defaults it covers (per-rank bit clears, each actual
    /// removal logged), adjusts the per-query stream counts, and re-derives
    /// the cost term of every input the delta reaches — the defaults that
    /// lost a query, every input of a query whose read depth moved, and `j`
    /// itself — logging each term it overwrites. Returns the undo-log
    /// mark [`retract`](Self::retract) needs.
    fn commit(&mut self, j: CandIdx) -> Mark {
        let mark = Mark {
            displaced: self.displaced.len(),
            terms: self.overwritten.len(),
        };
        let n_ranks = self.rank_sigs.len();
        let cd = &self.cands[j as usize];
        let streamed = self.facts(cd.sig).streamed;
        let cover_row = cd.pos as usize * self.live_m.len();
        // Queries of `j` whose read depth the commit moved: a term sees a
        // query's stream count only through its depth, which `k` or more
        // expected results pin at 1 whatever the count.
        let mut moved = CqSet::default();
        for qi in cd.queries.iter() {
            let q = qi.index();
            let m_before = self.live_m[q];
            if streamed {
                self.live_m[q] += 1;
            }
            for &rank in span(&self.cover, &self.cover_at, cover_row + q) {
                if self.live_defaults[rank as usize].remove(qi) {
                    self.displaced.push((rank, qi));
                    self.stale[rank as usize / 64] |= 1 << (rank % 64);
                    if self.rank_streamed[rank as usize] {
                        self.live_m[q] -= 1;
                    }
                }
            }
            let depths = &self.depth[q * self.depth_stride..];
            if depths[self.live_m[q] as usize] != depths[m_before as usize] {
                moved.insert(qi);
                for &rank in span(&self.ranks_of, &self.ranks_at, q) {
                    if self.live_defaults[rank as usize].contains(qi) {
                        self.stale[rank as usize / 64] |= 1 << (rank % 64);
                    }
                }
            }
        }
        for w in 0..self.stale.len() {
            let mut bits = std::mem::take(&mut self.stale[w]);
            while bits != 0 {
                let rank = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.overwrite(rank, self.rank_term(rank));
            }
        }
        for i in 0..self.a.len() {
            let ci = self.a[i];
            if self.cands[ci as usize].queries.intersects(moved) {
                self.overwrite(n_ranks + i, self.cand_term(ci));
            }
        }
        self.terms.push(self.cand_term(j));
        self.a.push(j);
        mark
    }

    /// Replace the cached term at `slot`, logging the one it had.
    fn overwrite(&mut self, slot: usize, term: Term) {
        let old = std::mem::replace(&mut self.terms[slot], term);
        self.overwritten.push((slot as u32, old));
    }

    /// Undo the most recent [`commit`](Self::commit): the live state and
    /// the term cache are again, bit for bit, what they were before it.
    fn retract(&mut self, mark: Mark) {
        let j = self.a.pop().expect("retract follows a commit");
        self.terms.pop();
        for (slot, term) in self.overwritten.drain(mark.terms..).rev() {
            self.terms[slot as usize] = term;
        }
        for (rank, qi) in self.displaced.drain(mark.displaced..) {
            self.live_defaults[rank as usize].insert(qi);
            if self.rank_streamed[rank as usize] {
                self.live_m[qi.index()] += 1;
            }
        }
        let cd = &self.cands[j as usize];
        if self.facts(cd.sig).streamed {
            for qi in cd.queries.iter() {
                self.live_m[qi.index()] -= 1;
            }
        }
    }

    /// Cost the plan that stops at the current state: `A` plus the defaults
    /// still live — the fold of their cached terms, committed candidates in
    /// commit order, then defaults in canonical rank order, reproducing the
    /// original accumulation order exactly. (The running total is never
    /// `-0.0`, so adding a `0.0` is the identity on its bits: a default no
    /// query needs has the zero term and is added, and the penalty of a
    /// default — a single relation, never pushed down — is not.)
    fn live_cost(&self) -> f64 {
        let (defaults, committed) = self.terms.split_at(self.rank_sigs.len());
        let mut total = 0.0;
        for term in committed {
            term.add_to(&mut total);
        }
        for term in defaults {
            total += term.access_us;
        }
        total
    }

    /// The term of the default input at `rank` under the live completion.
    fn rank_term(&self, rank: usize) -> Term {
        let term =
            self.add_input_cost(self.rank_sigs[rank], self.live_defaults[rank], &self.live_m);
        debug_assert_eq!(term.penalty_us.to_bits(), 0.0f64.to_bits());
        term
    }

    /// The term of the committed (or about to be committed) candidate `ci`
    /// under the live completion.
    fn cand_term(&self, ci: CandIdx) -> Term {
        let cd = &self.cands[ci as usize];
        self.add_input_cost(cd.sig, cd.queries, &self.live_m)
    }

    /// One input's cost term — the single definition of it — when `sig`
    /// sources `queries` and query `q` has `m[q]` streaming inputs.
    ///
    /// Costing follows the paper's model: streaming inputs cost per
    /// expected read; shared inputs are read once (the maximum of the
    /// sharers' needs, not the sum — this is where sharing wins). Probed
    /// relations cost per expected probe. Pushed-down joins carry a penalty
    /// for remote computation. Sharers are visited in ascending `CqId`
    /// order, with the exact floating-point operations the original
    /// assignment-level loop performed.
    fn add_input_cost(&self, sig: SigId, queries: CqSet, m: &[u32]) -> Term {
        let facts = self.facts(sig);
        let depth_of =
            |qi: CqIdx| self.depth[qi.index() * self.depth_stride + m[qi.index()] as usize];
        if facts.streamed {
            // Shared stream: read deep enough for the hungriest sharer.
            let mut reads: f64 = 0.0;
            for qi in queries.iter() {
                reads = reads.max(self.model.expected_reads(
                    facts.card,
                    depth_of(qi),
                    facts.already,
                ));
            }
            Term {
                access_us: reads * self.model.stream_unit_us(),
                penalty_us: self.model.pushdown_penalty_us(facts.size, facts.card),
            }
        } else {
            // Probed relation: roughly one probe per streamed tuple of
            // each consumer (two-way semijoin traffic).
            let mut probes = 0.0;
            for qi in queries.iter() {
                probes += depth_of(qi) * 64.0; // nominal per-CQ probe volume
            }
            Term {
                access_us: probes * self.model.probe_unit_us(),
                penalty_us: 0.0,
            }
        }
    }
}

/// Row `i` of a flattened table of rank lists whose row ends are `at`.
#[inline]
fn span<'t>(flat: &'t [u16], at: &[u32], i: usize) -> &'t [u16] {
    &flat[at[i] as usize..at[i + 1] as usize]
}

/// Validity per Definition 1: every relation of every query is covered by
/// exactly one input sourcing that query.
#[cfg(test)]
pub(crate) fn is_valid_assignment(
    queries: &[&ConjunctiveQuery],
    assignment: &Assignment,
    interner: &SigInterner,
    table: &CqTable,
) -> bool {
    for cq in queries {
        let qi = table.idx(cq.id);
        for atom in &cq.atoms {
            let covering = assignment
                .iter()
                .filter(|c| c.queries.contains(qi) && interner.rels(c.sig).contains(&atom.rel))
                .count();
            if covering != 1 {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::NoReuse;
    use proptest::prelude::*;
    use qsys_catalog::{Catalog, CatalogBuilder, ColumnStats, EdgeKind, RelationStats};
    use qsys_query::{CqAtom, CqJoin, SubExprSig};
    use qsys_types::{CqId, JoinCond, RelId, SourceId, UqId, UserId};

    /// The recursion the mask-keyed, edit-in-place search replaced, kept as
    /// the reference it is checked against: every state allocates its sorted
    /// `[SigId]` memo key and its own `S′`, looks itself up on entry, and
    /// rebuilds its completion from the all-defaults baseline; every state
    /// whose stop plan wins stores that assignment.
    struct Reference {
        memo: HashMap<Box<[SigId]>, (usize, f64)>,
        plans: Vec<Assignment>,
        baseline_defaults: Vec<CqSet>,
        baseline_m: Vec<u32>,
    }

    /// Everything [`BestPlanSearch::commit`] edits and
    /// [`BestPlanSearch::retract`] must put back.
    #[derive(Clone, Debug, PartialEq)]
    struct LiveState {
        defaults: Vec<CqSet>,
        m: Vec<u32>,
        a: Vec<CandIdx>,
        terms: Vec<(u64, u64)>,
        displaced: Vec<(u16, CqIdx)>,
        overwritten: Vec<(u32, (u64, u64))>,
        stale: Vec<u64>,
    }

    fn bits(term: Term) -> (u64, u64) {
        (term.access_us.to_bits(), term.penalty_us.to_bits())
    }

    impl BestPlanSearch<'_> {
        /// What [`live_cost`](Self::live_cost) was before the term cache:
        /// every input of the live completion costed from scratch.
        fn live_cost_from_scratch(&self) -> f64 {
            let mut total = 0.0;
            for &ci in &self.a {
                self.cand_term(ci).add_to(&mut total);
            }
            for (rank, set) in self.live_defaults.iter().enumerate() {
                if !set.is_empty() {
                    self.rank_term(rank).add_to(&mut total);
                }
            }
            total
        }

        /// Every cached term is what costing that input now would give, and
        /// their fold is the from-scratch cost.
        fn assert_cache_is_fresh(&self) {
            let n_ranks = self.rank_sigs.len();
            assert_eq!(self.terms.len(), n_ranks + self.a.len());
            for rank in 0..n_ranks {
                let fresh = self.rank_term(rank);
                assert_eq!(bits(self.terms[rank]), bits(fresh), "rank {rank}");
            }
            for (i, &ci) in self.a.iter().enumerate() {
                let fresh = self.cand_term(ci);
                assert_eq!(bits(self.terms[n_ranks + i]), bits(fresh), "A[{i}]");
            }
            assert_eq!(
                self.live_cost().to_bits(),
                self.live_cost_from_scratch().to_bits()
            );
        }

        fn live_state(&self) -> LiveState {
            LiveState {
                defaults: self.live_defaults.clone(),
                m: self.live_m.clone(),
                a: self.a.clone(),
                terms: self.terms.iter().map(|t| bits(*t)).collect(),
                displaced: self.displaced.clone(),
                overwritten: self
                    .overwritten
                    .iter()
                    .map(|(slot, t)| (*slot, bits(*t)))
                    .collect(),
                stale: self.stale.clone(),
            }
        }

        fn run_reference(mut self, candidates: Vec<Candidate>) -> (Assignment, OptStats) {
            let root = self.seed_root(candidates);
            let mut reference = Reference {
                memo: HashMap::new(),
                plans: Vec::new(),
                baseline_defaults: self.live_defaults.clone(),
                baseline_m: self.live_m.clone(),
            };
            let (plan, cost) = self.reference_best_plan(&mut reference, root, Vec::new());
            self.stats.best_cost = cost;
            (reference.plans.swap_remove(plan), self.stats)
        }

        fn reference_best_plan(
            &mut self,
            reference: &mut Reference,
            s: Vec<CandIdx>,
            a: Vec<CandIdx>,
        ) -> (usize, f64) {
            self.stats.explored += 1;
            let mut key: Vec<SigId> = a.iter().map(|&c| self.cands[c as usize].sig).collect();
            key.sort_unstable();
            if let Some(&(plan, cost)) = reference.memo.get(key.as_slice()) {
                self.stats.memo_hits += 1;
                return (plan, cost);
            }

            let (survivors, mut best_cost) = self.reference_complete_and_cost(reference, &a);
            let mut best_plan: Option<usize> = None;

            for (idx, &j) in s.iter().enumerate() {
                let mut s_prime: Vec<CandIdx> = Vec::with_capacity(s.len() - 1);
                for (idx2, &j2) in s.iter().enumerate() {
                    if idx2 == idx {
                        continue;
                    }
                    let (j2_sig, j2_pos) =
                        (self.cands[j2 as usize].sig, self.cands[j2 as usize].pos);
                    if self
                        .interner
                        .shares_relation(j2_sig, self.cands[j as usize].sig)
                    {
                        let reduced = self.cands[j2 as usize]
                            .queries
                            .difference(self.cands[j as usize].queries);
                        if !reduced.is_empty() {
                            s_prime.push(self.cand_idx(j2_sig, j2_pos, reduced));
                        }
                    } else {
                        s_prime.push(j2);
                    }
                }
                let mut a_prime = a.clone();
                a_prime.push(j);
                let (plan, cost) = self.reference_best_plan(reference, s_prime, a_prime);
                if cost < best_cost {
                    best_cost = cost;
                    best_plan = Some(plan);
                }
            }

            let plan = best_plan.unwrap_or_else(|| {
                let committed = a.iter().map(|&ci| {
                    let cd = &self.cands[ci as usize];
                    (cd.sig, cd.queries)
                });
                let defaults = survivors
                    .into_iter()
                    .map(|(rank, set)| (self.rank_sigs[rank as usize], set));
                let completed = committed
                    .chain(defaults)
                    .map(|(sig, queries)| Candidate { sig, queries })
                    .collect();
                reference.plans.push(completed);
                reference.plans.len() - 1
            });
            reference
                .memo
                .insert(key.into_boxed_slice(), (plan, best_cost));
            (plan, best_cost)
        }

        fn reference_complete_and_cost(
            &self,
            reference: &Reference,
            a: &[CandIdx],
        ) -> (Vec<(u16, CqSet)>, f64) {
            let mut defaults = reference.baseline_defaults.clone();
            let mut m = reference.baseline_m.clone();

            for &ci in a {
                let cd = &self.cands[ci as usize];
                let streamed = self.facts(cd.sig).streamed;
                let cover_row = cd.pos as usize * m.len();
                for qi in cd.queries.iter() {
                    if streamed {
                        m[qi.index()] += 1;
                    }
                    for &rank in span(&self.cover, &self.cover_at, cover_row + qi.index()) {
                        let rank = rank as usize;
                        if defaults[rank].remove(qi) && self.rank_streamed[rank] {
                            m[qi.index()] -= 1;
                        }
                    }
                }
            }

            let survivors: Vec<(u16, CqSet)> = defaults
                .iter()
                .enumerate()
                .filter(|(_, set)| !set.is_empty())
                .map(|(rank, set)| (rank as u16, *set))
                .collect();

            let mut total = 0.0;
            for &ci in a {
                let cd = &self.cands[ci as usize];
                self.add_input_cost(cd.sig, cd.queries, &m)
                    .add_to(&mut total);
            }
            for (rank, set) in &survivors {
                self.add_input_cost(self.rank_sigs[*rank as usize], *set, &m)
                    .add_to(&mut total);
            }
            (survivors, total)
        }
    }

    /// Eight relations joined as a chain (`R0 - R1 - … - R7`) or as a star
    /// around `R0`; relations named in `scoreless` have no score attribute
    /// and are too large to stream, so inputs over them are probed.
    fn shaped_catalog(star: bool, scoreless: u32) -> Catalog {
        let mut b = CatalogBuilder::default();
        let mut ids = Vec::new();
        for i in 0..8 {
            let mut stats = RelationStats::with_cardinality(10_000);
            stats.columns = vec![ColumnStats { distinct: 500 }, ColumnStats { distinct: 500 }];
            ids.push(b.relation(
                format!("R{i}"),
                SourceId::new(0),
                vec!["k".into(), "j".into()],
                (scoreless >> i & 1 == 0).then_some(0),
                1.0,
                stats,
            ));
        }
        for i in 1..8 {
            let from = if star { ids[0] } else { ids[i - 1] };
            b.edge(from, 1, ids[i], 0, EdgeKind::ForeignKey, 1.0, 2.0);
        }
        b.build()
    }

    /// The join edges of a connected `len`-relation piece of
    /// [`shaped_catalog`]: the run of the chain from `R{start}`, or the hub
    /// with `len - 1` consecutive spokes from the `start`-th.
    fn piece(star: bool, start: u32, len: u32) -> Vec<(u32, u32)> {
        if star {
            (0..len - 1).map(|i| (0, (start + i) % 7 + 1)).collect()
        } else {
            (start..start + len - 1).map(|r| (r, r + 1)).collect()
        }
    }

    fn rels_of(joins: &[(u32, u32)]) -> Vec<RelId> {
        let mut rels: Vec<RelId> = joins
            .iter()
            .flat_map(|&(l, r)| [RelId::new(l), RelId::new(r)])
            .collect();
        rels.sort_unstable();
        rels.dedup();
        rels
    }

    fn cq_over(id: u32, catalog: &Catalog, joins: &[(u32, u32)]) -> ConjunctiveQuery {
        let atoms = rels_of(joins)
            .into_iter()
            .map(|rel| CqAtom {
                rel,
                selection: None,
            })
            .collect();
        let joins = joins
            .iter()
            .map(|&(l, r)| {
                let e = catalog.edge_between(RelId::new(l), RelId::new(r)).unwrap();
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
        ConjunctiveQuery::new(CqId::new(id), UqId::new(0), UserId::new(0), atoms, joins)
    }

    /// Reports a pseudo-random half of all signatures as resident.
    struct Resident(u32);

    impl ReuseOracle for Resident {
        fn streamed(&self, sig: SigId) -> Option<u64> {
            let h = (sig.0 ^ self.0).wrapping_mul(0x9E37_79B9);
            (h >> 16 & 1 == 1).then_some(u64::from(h >> 20) * 8)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The search is the reference recursion in everything it reports:
        /// the winning assignment (signatures and query sets, in order),
        /// the bits of its cost, and both counters.
        #[test]
        fn search_matches_reference_recursion(
            shape in (0u32..2, 0u32..256, 0u32..3),
            query_pieces in prop::collection::vec((0u32..8, 2u32..=5), 1..=6),
            cand_pieces in prop::collection::vec((0usize..6, 0u32..4, 2u32..=3, 1u32..64), 0..=8),
        ) {
            let (star, scoreless, residency) = (shape.0 == 1, shape.1, shape.2);
            let cat = shaped_catalog(star, scoreless);
            let model = CostModel::new(&cat, 50);
            let mut interner = SigInterner::new();
            let query_pieces: Vec<(u32, u32)> = query_pieces
                .into_iter()
                .map(|(start, len)| (if star { start } else { start % (8 - len + 1) }, len))
                .collect();
            let queries: Vec<ConjunctiveQuery> = query_pieces
                .iter()
                .enumerate()
                .map(|(id, &(start, len))| cq_over(id as u32, &cat, &piece(star, start, len)))
                .collect();
            let query_refs: Vec<&ConjunctiveQuery> = queries.iter().collect();
            let table = CqTable::from_queries(query_refs.iter().copied());

            // Each candidate is a sub-piece of one query and sources a
            // random subset of the queries it is a subexpression of;
            // candidates overlap each other freely.
            let mut cands: Vec<Candidate> = Vec::new();
            for &(of, offset, len, sharers) in &cand_pieces {
                let (q_start, q_len) = query_pieces[of % query_pieces.len()];
                let len = len.min(q_len);
                let joins = piece(star, q_start + offset % (q_len - len + 1), len);
                let rels = rels_of(&joins);
                let users = queries
                    .iter()
                    .filter(|cq| rels.iter().all(|r| cq.atom(*r).is_some()))
                    .enumerate()
                    .filter(|(nth, _)| sharers >> nth & 1 == 1);
                let users = table.set_of(users.map(|(_, cq)| cq.id));
                let sig = interner.intern(SubExprSig::of_cq(&cq_over(0, &cat, &joins)));
                if !users.is_empty() && cands.iter().all(|c| c.sig != sig) {
                    cands.push(Candidate { sig, queries: users });
                }
            }

            let oracle: &dyn ReuseOracle = match residency {
                0 => &NoReuse,
                salt => &Resident(salt),
            };
            let qs = query_refs.clone();
            let (expected_plan, expected) =
                BestPlanSearch::new(&model, oracle, qs, &mut interner, &table)
                    .run_reference(cands.clone());
            let qs = query_refs.clone();
            let (plan, stats) =
                BestPlanSearch::new(&model, oracle, qs, &mut interner, &table).run(cands);
            prop_assert!(is_valid_assignment(&query_refs, &plan, &interner, &table));
            prop_assert_eq!(plan, expected_plan);
            prop_assert_eq!(stats.best_cost.to_bits(), expected.best_cost.to_bits());
            prop_assert_eq!(
                (stats.candidates, stats.explored, stats.memo_hits),
                (expected.candidates, expected.explored, expected.memo_hits)
            );
        }
    }

    /// Build the random batch [`search_matches_reference_recursion`] draws
    /// (same strategies, same construction), seed a search with it, and hand
    /// `check` the search and its root `S`.
    fn with_seeded_search(
        shape: (u32, u32, u32),
        query_pieces: Vec<(u32, u32)>,
        cand_pieces: Vec<(usize, u32, u32, u32)>,
        check: impl FnOnce(&mut BestPlanSearch<'_>, Vec<CandIdx>),
    ) {
        let (star, scoreless, residency) = (shape.0 == 1, shape.1, shape.2);
        let cat = shaped_catalog(star, scoreless);
        let model = CostModel::new(&cat, 50);
        let mut interner = SigInterner::new();
        let query_pieces: Vec<(u32, u32)> = query_pieces
            .into_iter()
            .map(|(start, len)| (if star { start } else { start % (8 - len + 1) }, len))
            .collect();
        let queries: Vec<ConjunctiveQuery> = query_pieces
            .iter()
            .enumerate()
            .map(|(id, &(start, len))| cq_over(id as u32, &cat, &piece(star, start, len)))
            .collect();
        let query_refs: Vec<&ConjunctiveQuery> = queries.iter().collect();
        let table = CqTable::from_queries(query_refs.iter().copied());
        let mut cands: Vec<Candidate> = Vec::new();
        for &(of, offset, len, sharers) in &cand_pieces {
            let (q_start, q_len) = query_pieces[of % query_pieces.len()];
            let len = len.min(q_len);
            let joins = piece(star, q_start + offset % (q_len - len + 1), len);
            let rels = rels_of(&joins);
            let users = queries
                .iter()
                .filter(|cq| rels.iter().all(|r| cq.atom(*r).is_some()))
                .enumerate()
                .filter(|(nth, _)| sharers >> nth & 1 == 1);
            let users = table.set_of(users.map(|(_, cq)| cq.id));
            let sig = interner.intern(SubExprSig::of_cq(&cq_over(0, &cat, &joins)));
            if !users.is_empty() && cands.iter().all(|c| c.sig != sig) {
                cands.push(Candidate {
                    sig,
                    queries: users,
                });
            }
        }
        let oracle: &dyn ReuseOracle = match residency {
            0 => &NoReuse,
            salt => &Resident(salt),
        };
        let mut search = BestPlanSearch::new(&model, oracle, query_refs, &mut interner, &table);
        let root = search.seed_root(cands);
        check(&mut search, root);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Walk the search space at random — commit a candidate of the
        /// current `S` (moving to its `S′`) or retract the last commit — and
        /// after every step the term cache is what costing every input from
        /// scratch gives, and a retract lands exactly on the state its
        /// commit left.
        #[test]
        fn term_cache_tracks_any_commit_retract_sequence(
            shape in (0u32..2, 0u32..256, 0u32..3),
            query_pieces in prop::collection::vec((0u32..8, 2u32..=5), 1..=6),
            cand_pieces in prop::collection::vec((0usize..6, 0u32..4, 2u32..=3, 1u32..64), 0..=8),
            steps in prop::collection::vec((0u32..3, 0usize..8), 0..=40),
        ) {
            with_seeded_search(shape, query_pieces, cand_pieces, |search, root| {
                search.assert_cache_is_fresh();
                let mut s = root;
                let mut stack: Vec<(Vec<CandIdx>, Mark, LiveState)> = Vec::new();
                for (action, pick) in steps {
                    if action > 0 && !s.is_empty() {
                        let idx = pick % s.len();
                        let mut s_prime = Vec::new();
                        search.reduce(&s, idx, &mut s_prime);
                        let before = search.live_state();
                        let mark = search.commit(s[idx]);
                        stack.push((std::mem::replace(&mut s, s_prime), mark, before));
                    } else if let Some((s_before, mark, before)) = stack.pop() {
                        search.retract(mark);
                        prop_assert_eq!(search.live_state(), before);
                        s = s_before;
                    }
                    search.assert_cache_is_fresh();
                }
            });
        }

        /// `commit(j); retract(mark)` is the identity on the live
        /// completion, the term cache and both undo logs, for every root
        /// candidate.
        #[test]
        fn retract_undoes_commit_for_every_root_candidate(
            shape in (0u32..2, 0u32..256, 0u32..3),
            query_pieces in prop::collection::vec((0u32..8, 2u32..=5), 1..=6),
            cand_pieces in prop::collection::vec((0usize..6, 0u32..4, 2u32..=3, 1u32..64), 0..=8),
        ) {
            with_seeded_search(shape, query_pieces, cand_pieces, |search, root| {
                let found = search.live_state();
                prop_assert!(found.displaced.is_empty() && found.overwritten.is_empty());
                for j in root {
                    let mark = search.commit(j);
                    prop_assert_eq!(search.a.as_slice(), [j]);
                    search.retract(mark);
                    prop_assert_eq!(search.live_state(), found.clone());
                }
            });
        }
    }

    /// The depth table is `CostModel::depth_fraction`, bit for bit, at every
    /// `(query, stream count)` a search can reach — through each of its
    /// branches: no expected results, fewer than `k`, and the `powf` — and
    /// a search tabulates its queries' catalog cardinalities with it.
    #[test]
    fn depth_table_is_depth_fraction() {
        let cat = catalog(5);
        let model = CostModel::new(&cat, 50);
        let mut interner = SigInterner::new();
        let queries = [
            path_cq(0, &cat, 0, 5),
            path_cq(1, &cat, 0, 2),
            path_cq(2, &cat, 1, 3),
            path_cq(3, &cat, 2, 2),
        ];
        let atoms: Vec<usize> = queries.iter().map(|cq| cq.atoms.len()).collect();
        let mut cards: Vec<f64> = queries
            .iter()
            .map(|cq| model.cardinality(&SubExprSig::of_cq(cq)))
            .collect();
        let query_refs: Vec<&ConjunctiveQuery> = queries.iter().collect();
        let table = CqTable::from_queries(query_refs.iter().copied());
        let search = BestPlanSearch::new(&model, &NoReuse, query_refs, &mut interner, &table);
        assert_eq!(
            (search.depth.clone(), search.depth_stride),
            depth_table(&model, &cards, &atoms)
        );
        // The catalog's estimates are all far above k; pin two whole-query
        // cardinalities to reach the other branches.
        cards[2] = 0.0;
        cards[3] = 10.0;
        let (depth, stride) = depth_table(&model, &cards, &atoms);
        for (q, &n) in atoms.iter().enumerate() {
            for m in 0..=n {
                assert_eq!(
                    depth[q * stride + m].to_bits(),
                    model.depth_fraction(cards[q], m).to_bits(),
                    "query {q} with {m} streams"
                );
            }
        }
        let at = |q: usize, m: usize| depth[q * stride + m];
        assert!(at(0, 1) < at(0, 5) && at(0, 5) < 1.0, "powf branch");
        assert_eq!(at(0, 0), at(0, 1), "no streams reads like one");
        assert_eq!((at(2, 1), at(2, 3)), (1.0, 1.0), "result_card <= 0");
        assert_eq!((at(3, 1), at(3, 2)), (1.0, 1.0), "k / N >= 1");
    }

    fn catalog(n: u32) -> Catalog {
        let mut b = CatalogBuilder::default();
        let mut ids = Vec::new();
        for i in 0..n {
            let mut stats = RelationStats::with_cardinality(10_000);
            stats.columns = vec![ColumnStats { distinct: 500 }, ColumnStats { distinct: 500 }];
            ids.push(b.relation(
                format!("R{i}"),
                SourceId::new(0),
                vec!["k".into(), "j".into()],
                Some(0),
                1.0,
                stats,
            ));
        }
        for w in ids.windows(2) {
            b.edge(w[0], 1, w[1], 0, EdgeKind::ForeignKey, 1.0, 2.0);
        }
        b.build()
    }

    fn path_cq(id: u32, catalog: &Catalog, from: u32, len: u32) -> ConjunctiveQuery {
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
        ConjunctiveQuery::new(CqId::new(id), UqId::new(0), UserId::new(0), atoms, joins)
    }

    fn cand(
        catalog: &Catalog,
        interner: &mut SigInterner,
        table: &CqTable,
        rels: &[u32],
        queries: &[u32],
    ) -> Candidate {
        let rel_ids: Vec<RelId> = rels.iter().map(|&r| RelId::new(r)).collect();
        let atoms = rel_ids.iter().map(|&r| (r, None)).collect();
        let joins = rel_ids
            .windows(2)
            .map(|w| {
                let e = catalog.edge_between(w[0], w[1]).unwrap();
                JoinCond {
                    left: e.from,
                    left_col: e.from_col,
                    right: e.to,
                    right_col: e.to_col,
                }
            })
            .collect();
        Candidate {
            sig: interner.intern(SubExprSig { atoms, joins }),
            queries: table.set_of(queries.iter().map(|&q| CqId::new(q))),
        }
    }

    #[test]
    fn empty_candidates_yield_default_plan() {
        let cat = catalog(3);
        let model = CostModel::new(&cat, 50);
        let mut interner = SigInterner::new();
        let q = path_cq(0, &cat, 0, 3);
        let table = CqTable::from_queries([&q]);
        let search = BestPlanSearch::new(&model, &NoReuse, vec![&q], &mut interner, &table);
        let (plan, stats) = search.run(Vec::new());
        assert!(is_valid_assignment(&[&q], &plan, &interner, &table));
        assert_eq!(plan.len(), 3, "one default input per relation");
        assert_eq!(stats.candidates, 0);
        assert_eq!(stats.explored, 1);
    }

    /// Key-key joins (distinct = cardinality): the pushed-down join does
    /// not inflate cardinality, so streaming the join result beats
    /// streaming both bases — BestPlan must pick the candidate.
    #[test]
    fn shared_candidate_is_chosen_when_cheaper() {
        let mut b = CatalogBuilder::default();
        let mut ids = Vec::new();
        for i in 0..4 {
            let mut stats = RelationStats::with_cardinality(10_000);
            stats.columns = vec![
                ColumnStats { distinct: 10_000 },
                ColumnStats { distinct: 10_000 },
            ];
            ids.push(b.relation(
                format!("K{i}"),
                SourceId::new(0),
                vec!["k".into(), "j".into()],
                Some(0),
                1.0,
                stats,
            ));
        }
        for w in ids.windows(2) {
            b.edge(w[0], 1, w[1], 0, EdgeKind::ForeignKey, 1.0, 1.0);
        }
        let cat = b.build();
        let model = CostModel::new(&cat, 50);
        let mut interner = SigInterner::new();
        let q1 = path_cq(0, &cat, 0, 3);
        let q2 = path_cq(1, &cat, 0, 4);
        let table = CqTable::from_queries([&q1, &q2]);
        let shared = cand(&cat, &mut interner, &table, &[0, 1], &[0, 1]);
        let search = BestPlanSearch::new(&model, &NoReuse, vec![&q1, &q2], &mut interner, &table);
        let (plan, stats) = search.run(vec![shared]);
        assert!(is_valid_assignment(&[&q1, &q2], &plan, &interner, &table));
        assert!(
            plan.iter().any(|c| c.sig == shared.sig),
            "pushdown K0⋈K1 must be chosen: {plan:#?}"
        );
        assert!(stats.explored >= 2);
    }

    /// An exploding join (low distinct counts) must NOT be pushed down:
    /// streaming the inflated join result costs more than the bases.
    #[test]
    fn exploding_pushdown_is_rejected() {
        let cat = catalog(3);
        let model = CostModel::new(&cat, 50);
        let mut interner = SigInterner::new();
        let q = path_cq(0, &cat, 0, 3);
        let table = CqTable::from_queries([&q]);
        let bad = cand(&cat, &mut interner, &table, &[0, 1], &[0]);
        let search = BestPlanSearch::new(&model, &NoReuse, vec![&q], &mut interner, &table);
        let (plan, _) = search.run(vec![bad]);
        assert!(is_valid_assignment(&[&q], &plan, &interner, &table));
        assert!(
            !plan.iter().any(|c| c.sig == bad.sig),
            "200k-tuple join must not be pushed down: {plan:#?}"
        );
    }

    #[test]
    fn overlapping_candidates_never_double_cover() {
        let cat = catalog(4);
        let model = CostModel::new(&cat, 50);
        let mut interner = SigInterner::new();
        let q = path_cq(0, &cat, 0, 4);
        let table = CqTable::from_queries([&q]);
        let c1 = cand(&cat, &mut interner, &table, &[0, 1], &[0]);
        let c2 = cand(&cat, &mut interner, &table, &[1, 2], &[0]);
        let search = BestPlanSearch::new(&model, &NoReuse, vec![&q], &mut interner, &table);
        let (plan, _) = search.run(vec![c1, c2]);
        assert!(
            is_valid_assignment(&[&q], &plan, &interner, &table),
            "{plan:#?}"
        );
    }

    #[test]
    fn memoization_collapses_orderings() {
        let cat = catalog(6);
        let model = CostModel::new(&cat, 50);
        let mut interner = SigInterner::new();
        let q = path_cq(0, &cat, 0, 6);
        let table = CqTable::from_queries([&q]);
        // Two disjoint candidates: order of choice is irrelevant → the
        // {c1, c2} state is reached twice, second time from the memo.
        let c1 = cand(&cat, &mut interner, &table, &[0, 1], &[0]);
        let c2 = cand(&cat, &mut interner, &table, &[3, 4], &[0]);
        let search = BestPlanSearch::new(&model, &NoReuse, vec![&q], &mut interner, &table);
        let (_, stats) = search.run(vec![c1, c2]);
        assert!(stats.memo_hits >= 1, "stats: {stats:?}");
    }

    #[test]
    fn explored_grows_with_candidates() {
        let cat = catalog(8);
        let model = CostModel::new(&cat, 50);
        let mut interner = SigInterner::new();
        let q = path_cq(0, &cat, 0, 8);
        let table = CqTable::from_queries([&q]);
        let mut explored = Vec::new();
        for n in 0..4 {
            let cands: Vec<Candidate> = (0..n)
                .map(|i| cand(&cat, &mut interner, &table, &[2 * i, 2 * i + 1], &[0]))
                .collect();
            let search = BestPlanSearch::new(&model, &NoReuse, vec![&q], &mut interner, &table);
            let (_, stats) = search.run(cands);
            explored.push(stats.explored);
        }
        assert!(
            explored.windows(2).all(|w| w[0] < w[1]),
            "exploration grows: {explored:?}"
        );
    }

    #[test]
    fn reuse_tilts_the_choice() {
        struct Resident(SigId);
        impl ReuseOracle for Resident {
            fn streamed(&self, sig: SigId) -> Option<u64> {
                (sig == self.0).then_some(1_000_000)
            }
        }
        let cat = catalog(3);
        let model = CostModel::new(&cat, 50);
        let mut interner = SigInterner::new();
        let q = path_cq(0, &cat, 0, 3);
        let table = CqTable::from_queries([&q]);
        let shared = cand(&cat, &mut interner, &table, &[0, 1], &[0]);
        let oracle = Resident(shared.sig);
        let search = BestPlanSearch::new(&model, &oracle, vec![&q], &mut interner, &table);
        let (plan, stats) = search.run(vec![shared]);
        assert!(
            plan.iter().any(|c| c.sig == shared.sig),
            "fully resident input is free and must win: {:?}",
            stats
        );
    }

    /// The memo is keyed by the mask of committed root positions, so a
    /// state is entered once no matter how many orderings reach it.
    #[test]
    fn memo_and_plan_arena_stay_index_sized() {
        let cat = catalog(8);
        let model = CostModel::new(&cat, 50);
        let mut interner = SigInterner::new();
        let q = path_cq(0, &cat, 0, 8);
        let table = CqTable::from_queries([&q]);
        let cands: Vec<Candidate> = (0..3)
            .map(|i| cand(&cat, &mut interner, &table, &[2 * i, 2 * i + 1], &[0]))
            .collect();
        let search = BestPlanSearch::new(&model, &NoReuse, vec![&q], &mut interner, &table);
        let (_, stats) = search.run(cands);
        // 3 disjoint candidates → 2^3 = 8 distinct states. The permutation
        // tree has 1 + 3 + 6 + 3 = 13 invocations (memo-hit nodes do not
        // expand): 3 second-level and 2 third-level repeats hit the memo.
        assert_eq!(stats.explored, 13);
        assert_eq!(stats.memo_hits, 5);
    }
}
