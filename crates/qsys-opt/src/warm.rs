//! Cross-batch warm start for the optimizer: lane-persistent caches of the
//! search's batch-invariant inputs.
//!
//! The paper's premise is that sharing decisions *recur* across the query
//! stream, yet a cold optimizer re-derives every input of its search from
//! scratch each batch. Much of that work is **batch-invariant**: a
//! subexpression's cardinality, streamability, and source-side expense
//! depend only on the (fixed) catalog and heuristics, and a conjunctive
//! query's candidate subexpressions depend only on its canonical
//! whole-query signature. [`WarmStore`] persists exactly those quantities
//! per engine lane, keyed by the lane's stable [`SigId`]s:
//!
//! - **Cost inputs** ([`WarmFact`]): per-signature cardinality /
//!   streamability / size, plus the heuristic-3a "expensive at the source"
//!   verdict. Seeded once per signature for the lane's lifetime; the
//!   per-batch residency (`already`, from the reuse oracle) is always read
//!   live because it tracks the mutable plan graph.
//! - **Candidate enumerations**: whole-query signature → the interned,
//!   streamability-filtered subexpression signatures of that query. A
//!   recurring query shape skips connected-subgraph enumeration entirely.
//! - **Canonical rank**: a lazily-extended total order over all signatures
//!   the lane has seen, maintained in deep canonical (`SubExprSig`) order.
//!   The optimizer's two per-batch deep sorts (candidate pool, default
//!   ranks) become integer-key sorts that provably produce the same order.
//!
//! Every batch still runs the one BestPlan search; the store only feeds it
//! inputs a cold run would recompute to the same values, so decisions,
//! statistics and the simulated optimize charge are bit-identical with the
//! store on or off.
//! The goldens in `tests/interner_invariants.rs` and the property test in
//! `tests/proptest_invariants.rs` pin that. Nothing here depends on which
//! state the plan graph currently holds resident, so eviction never has to
//! invalidate it.
//!
//! The QS manager owns one store per lane next to the shared interner.

use qsys_query::{SigId, SigInterner};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Batch-invariant cost inputs of one signature (see module docs).
#[derive(Clone, Copy, Debug)]
pub struct WarmFact {
    /// Estimated result cardinality (catalog-determined).
    pub card: f64,
    /// Whether every covered relation is streamable (heuristic 2).
    pub streamed: bool,
    /// Atom count.
    pub size: u32,
}

/// The lane-persistent warm store. One per engine lane, owned by the QS
/// manager alongside the shared interner whose ids key everything here.
#[derive(Debug, Default)]
pub struct WarmStore {
    /// Fingerprint of the configuration the cached values were computed
    /// under (heuristics, cost profile, k, sharing mode). The catalog is
    /// not fingerprinted: a lane is born onto one catalog and keeps it for
    /// life, which is the same assumption the shared interner makes.
    fingerprint: Option<String>,
    /// Per-signature cost inputs, dense by `SigId`.
    facts: Vec<Option<WarmFact>>,
    /// Heuristic-3a "expensive to compute at the source" verdicts.
    expensive: HashMap<SigId, bool>,
    /// Whole-query signature → streamability-filtered candidate
    /// subexpression signatures (sorted by id).
    cq_candidates: HashMap<SigId, Box<[SigId]>>,
    /// All signatures ever ranked, in deep canonical order…
    canon_order: Vec<SigId>,
    /// …and each signature's position therein (rebuilt after inserts).
    canon_rank: HashMap<SigId, u32>,
    /// Cache hits (facts + enumerations) since `begin_batch`.
    batch_hits: usize,
    /// Facts first published during the current batch: re-reads of these
    /// are same-batch self-hits, not cross-batch warmth, and are excluded
    /// from `batch_hits` so the diagnostic reports what it claims to.
    fresh_facts: HashSet<SigId>,
}

impl WarmStore {
    /// An empty store.
    pub fn new() -> WarmStore {
        WarmStore::default()
    }

    /// Reset everything if `fingerprint` differs from the configuration
    /// the cached values were computed under.
    pub fn ensure_config(&mut self, fingerprint: &str) {
        if self.fingerprint.as_deref() != Some(fingerprint) {
            *self = WarmStore {
                fingerprint: Some(fingerprint.to_string()),
                ..WarmStore::default()
            };
        }
    }

    /// Start a batch: zero the per-batch hit counter and forget which
    /// facts were fresh.
    pub fn begin_batch(&mut self) {
        self.batch_hits = 0;
        self.fresh_facts.clear();
    }

    /// Cache hits since [`begin_batch`](WarmStore::begin_batch).
    pub fn batch_hits(&self) -> usize {
        self.batch_hits
    }

    /// Cached cost inputs for `sig`, counting the hit when the fact
    /// predates the current batch (cross-batch warmth, not a same-batch
    /// re-read).
    pub fn fact(&mut self, sig: SigId) -> Option<WarmFact> {
        let f = self.peek_fact(sig);
        if f.is_some() && !self.fresh_facts.contains(&sig) {
            self.batch_hits += 1;
        }
        f
    }

    /// Cached cost inputs for `sig` without touching the per-batch hit
    /// counter.
    pub fn peek_fact(&self, sig: SigId) -> Option<WarmFact> {
        self.facts.get(sig.index()).copied().flatten()
    }

    /// Record the cost inputs for `sig` (fresh for the current batch).
    pub fn set_fact(&mut self, sig: SigId, fact: WarmFact) {
        if self.facts.len() <= sig.index() {
            self.facts.resize(sig.index() + 1, None);
        }
        self.facts[sig.index()] = Some(fact);
        self.fresh_facts.insert(sig);
    }

    /// Cached heuristic-3a verdict, counting the hit.
    pub fn expensive(&mut self, sig: SigId) -> Option<bool> {
        let v = self.expensive.get(&sig).copied();
        if v.is_some() {
            self.batch_hits += 1;
        }
        v
    }

    /// Record a heuristic-3a verdict.
    pub fn set_expensive(&mut self, sig: SigId, expensive: bool) {
        self.expensive.insert(sig, expensive);
    }

    /// Cached candidate enumeration for a whole-query signature, counting
    /// the hit.
    pub fn cq_candidates(&mut self, whole: SigId) -> Option<&[SigId]> {
        let hit = self.cq_candidates.contains_key(&whole);
        if hit {
            self.batch_hits += 1;
        }
        self.cq_candidates.get(&whole).map(|s| &**s)
    }

    /// Record the candidate enumeration of a whole-query signature.
    pub fn set_cq_candidates(&mut self, whole: SigId, sigs: Box<[SigId]>) {
        self.cq_candidates.insert(whole, sigs);
    }

    /// Make sure every id in `ids` has a canonical rank, extending the
    /// persistent order with binary-search deep comparisons. After this,
    /// sorting by [`rank`](WarmStore::rank) equals sorting by
    /// `interner.resolve(a).cmp(interner.resolve(b))` — the deep canonical
    /// order is total over distinct signatures and insertion preserves it.
    pub fn ensure_ranked(&mut self, ids: impl IntoIterator<Item = SigId>, interner: &SigInterner) {
        // Inserting at `pos` shifts only positions ≥ pos, so after the
        // wave, ranks need rebuilding only from the lowest insertion point
        // — a steady-state batch (no new ids) touches nothing, and a batch
        // appending near the end re-ranks a suffix, not the whole lane
        // history.
        let mut lowest_insert: Option<usize> = None;
        for id in ids {
            if self.canon_rank.contains_key(&id) {
                continue;
            }
            let pos = self
                .canon_order
                .partition_point(|&o| interner.resolve(o) < interner.resolve(id));
            self.canon_order.insert(pos, id);
            // Placeholder; true positions are assigned below once.
            self.canon_rank.insert(id, u32::MAX);
            lowest_insert = Some(lowest_insert.map_or(pos, |l| l.min(pos)));
        }
        if let Some(from) = lowest_insert {
            for (rank, id) in self.canon_order.iter().enumerate().skip(from) {
                self.canon_rank.insert(*id, rank as u32);
            }
        }
    }

    /// Canonical rank of an id previously passed to
    /// [`ensure_ranked`](WarmStore::ensure_ranked).
    #[inline]
    pub fn rank(&self, sig: SigId) -> u32 {
        self.canon_rank[&sig]
    }

    /// Export the store's cross-batch state as a plain image with
    /// deterministic ordering (hash-map sections sorted by key, so equal
    /// stores export equal images) for the invariant verifier to check.
    /// Per-batch transients (`batch_hits`, `fresh_facts`) are not part of
    /// the image.
    pub fn export(&self) -> WarmExport {
        let mut facts: Vec<(SigId, WarmFact)> = self
            .facts
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.map(|f| (SigId(i as u32), f)))
            .collect();
        facts.sort_unstable_by_key(|(id, _)| *id);
        let mut expensive: Vec<(SigId, bool)> =
            self.expensive.iter().map(|(k, v)| (*k, *v)).collect();
        expensive.sort_unstable_by_key(|(id, _)| *id);
        let mut cq_candidates: Vec<(SigId, Box<[SigId]>)> = self
            .cq_candidates
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        cq_candidates.sort_unstable_by_key(|(id, _)| *id);
        WarmExport {
            facts,
            expensive,
            cq_candidates,
            canon_order: self.canon_order.clone(),
        }
    }
}

/// An image of a [`WarmStore`]'s cross-batch state, produced by
/// [`WarmStore::export`]. All fields are public so the verifier can check
/// them (and tests can corrupt them) without the store giving up field
/// privacy in its live form.
#[derive(Clone, Debug, Default)]
pub struct WarmExport {
    /// Per-signature cost inputs, sorted by id.
    pub facts: Vec<(SigId, WarmFact)>,
    /// Heuristic-3a verdicts, sorted by id.
    pub expensive: Vec<(SigId, bool)>,
    /// Whole-query signature → candidate enumeration, sorted by key.
    pub cq_candidates: Vec<(SigId, Box<[SigId]>)>,
    /// All ranked signatures in deep canonical order (ranks are positions).
    pub canon_order: Vec<SigId>,
}

/// Shared-ownership cell around the warm store, mirroring
/// [`SigCell`](qsys_query::SigCell): one per engine lane, driven from the
/// lane's single thread, `Send + Sync` because lanes live on real OS
/// threads. Poisoning is ignored (a panic mid-optimize aborts the lane).
#[derive(Debug, Default)]
pub struct WarmCell(RwLock<WarmStore>);

impl WarmCell {
    /// Wrap a store.
    pub fn new(inner: WarmStore) -> WarmCell {
        WarmCell(RwLock::new(inner))
    }

    /// Shared (read) access.
    pub fn borrow(&self) -> RwLockReadGuard<'_, WarmStore> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Exclusive (write) access.
    pub fn borrow_mut(&self) -> RwLockWriteGuard<'_, WarmStore> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// The engine-lane handle: one warm store shared by the QS manager (which
/// owns it for the lane's life) and the optimizer (which reads and extends
/// it).
pub type SharedWarm = Arc<WarmCell>;

/// A fresh shareable warm store.
pub fn shared_warm() -> SharedWarm {
    Arc::new(WarmCell::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsys_query::SubExprSig;
    use qsys_types::RelId;

    fn sig(rels: &[u32]) -> SubExprSig {
        SubExprSig::new(
            rels.iter().map(|&r| (RelId::new(r), None)).collect(),
            Vec::new(),
        )
    }

    #[test]
    fn facts_round_trip_and_count_cross_batch_hits_only() {
        let mut store = WarmStore::new();
        store.begin_batch();
        let id = SigId(3);
        assert!(store.fact(id).is_none());
        assert_eq!(store.batch_hits(), 0);
        store.set_fact(
            id,
            WarmFact {
                card: 42.0,
                streamed: true,
                size: 2,
            },
        );
        let f = store.fact(id).expect("cached");
        assert_eq!(f.card, 42.0);
        assert!(f.streamed);
        assert_eq!(
            store.batch_hits(),
            0,
            "re-reading a fact published this batch is not cross-batch warmth"
        );
        // The next batch reads it as genuinely warm.
        store.begin_batch();
        assert!(store.fact(id).is_some());
        assert_eq!(store.batch_hits(), 1);
    }

    #[test]
    fn rank_order_matches_deep_canonical_order() {
        let mut interner = SigInterner::new();
        // Intern in an order unlike the canonical one.
        let ids: Vec<SigId> = [&[5][..], &[1, 2], &[3], &[1], &[2, 9]]
            .iter()
            .map(|rels| interner.intern(sig(rels)))
            .collect();
        let mut store = WarmStore::new();
        // Rank incrementally, in two waves, to exercise mid-order inserts.
        store.ensure_ranked(ids[..2].iter().copied(), &interner);
        store.ensure_ranked(ids.iter().copied(), &interner);
        let mut by_rank = ids.clone();
        by_rank.sort_unstable_by_key(|id| store.rank(*id));
        let mut by_deep = ids.clone();
        by_deep.sort_by(|a, b| interner.resolve(*a).cmp(interner.resolve(*b)));
        assert_eq!(by_rank, by_deep);
    }

    #[test]
    fn config_change_resets_everything() {
        let mut store = WarmStore::new();
        store.ensure_config("a");
        store.set_fact(
            SigId(0),
            WarmFact {
                card: 1.0,
                streamed: false,
                size: 1,
            },
        );
        store.ensure_config("a");
        assert!(
            store.peek_fact(SigId(0)).is_some(),
            "same config keeps the cache"
        );
        store.ensure_config("b");
        assert!(store.peek_fact(SigId(0)).is_none());
    }
}
