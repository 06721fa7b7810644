//! Candidate enumeration with the Section 5.1.1 pruning heuristics.
//!
//! Full multi-query optimization is intractable, so the optimizer prunes
//! the space of push-down candidates before the cost-based search:
//!
//! 1. *Consider queries as shared subexpressions* — keep subexpressions of
//!    low-cardinality queries only when shared more widely.
//! 2. *Only stream relations that have scoring attributes* — a relation
//!    with no score attribute would have to be read in full (its tuples
//!    never move the threshold), so treat it as a probe target unless its
//!    cardinality is under the threshold `τ`.
//! 3. *Filter subexpressions by estimated utility* — keep those shared by
//!    enough queries or with low cardinality; drop those expensive to
//!    compute at the source.
//! 4. *Do not consider overlapping pushed-down subexpressions* — a
//!    candidate must be a subexpression of, or disjoint from, every query.
//! 5. Base relations of streaming sources are always useful.
//!
//! Candidates carry interned [`SigId`]s; the pooling that detects sharing
//! across queries is one integer-keyed map instead of a deep-signature
//! B-tree.

use crate::cost::CostModel;
use qsys_query::{enumerate_subexprs, ConjunctiveQuery, CqSet, CqTable, SigId, SigInterner};
use qsys_types::{FxHashMap, RelId};

/// One push-down candidate: a subexpression and the queries it can source.
///
/// Queries are one user query's, as a one-word bitmask ([`CqSet`],
/// interpreted through that search's [`CqTable`]) — the BestPlan recursion
/// differences, tests and copies these sets on every branch, and as word
/// ops they cost an instruction each instead of a `BTreeSet` walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// The interned subexpression signature.
    pub sig: SigId,
    /// Queries of which `sig` is a subexpression (the map `𝕊[J]`), as
    /// dense indices.
    pub queries: CqSet,
}

/// Tuning for the pruning heuristics.
#[derive(Clone, Debug)]
pub struct HeuristicConfig {
    /// Minimum number of CQs that must share a multi-relation candidate
    /// (heuristic 3, "shared by a minimum number of conjunctive queries").
    pub min_sharing: usize,
    /// Alternatively, keep a multi-relation candidate whose estimated
    /// cardinality is below this (heuristic 3, "low cardinality").
    pub low_cardinality: f64,
    /// Hard cap on the multi-relation candidates handed to one BestPlan
    /// search, i.e. one user query's pool (keeps Figure 11's exponential in
    /// check); at most [`MAX_CANDIDATES_LIMIT`](Self::MAX_CANDIDATES_LIMIT).
    /// The default of 12 rarely binds: over `reproduce fig9` and `fig10`
    /// on the four small GUS seeds, it truncated 5 of 336 searched pools,
    /// all of them one user query's pool of 18 (once per arm), and at
    /// paper scale (seeds 41 and 48) none of 171, the largest being 12.
    /// Figure 11 sweeps it.
    pub max_candidates: usize,
}

impl HeuristicConfig {
    /// Largest usable [`max_candidates`](Self::max_candidates): BestPlan
    /// memoizes a search state as a `u64` with one bit per candidate.
    pub const MAX_CANDIDATES_LIMIT: usize = u64::BITS as usize;

    /// Largest usable `CandidateConfig::max_cqs`: a search covers one user
    /// query's conjunctive queries, and its query sets are one [`CqSet`].
    pub const MAX_CQS_LIMIT: usize = CqSet::CAPACITY;
}

impl Default for HeuristicConfig {
    fn default() -> Self {
        HeuristicConfig {
            min_sharing: 2,
            low_cardinality: 200.0,
            max_candidates: 12,
        }
    }
}

/// `τ(R)`: a scoreless relation with cardinality below this may still be
/// streamed (heuristic 2).
const PROBE_THRESHOLD: u64 = 1_000;

/// Joins whose source-side fanout exceeds this are "expensive to compute
/// at the source" and pruned (heuristic 3).
const MAX_SOURCE_FANOUT: f64 = 16.0;

/// Largest candidate size in atoms (bounds the subexpression enumeration).
const MAX_CANDIDATE_ATOMS: usize = 3;

/// Whether a relation is streamed (score attribute, or small enough) or
/// probed (heuristic 2).
pub(crate) fn is_streamable(model: &CostModel<'_>, rel: RelId) -> bool {
    let r = model.catalog().relation(rel);
    r.has_score() || r.stats.cardinality < PROBE_THRESHOLD
}

/// A signature's cost inputs, derived from the catalog.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fact {
    /// Estimated result cardinality.
    pub(crate) card: f64,
    /// Whether every covered relation is streamable (heuristic 2).
    pub(crate) streamed: bool,
    /// Atom count.
    pub(crate) size: u32,
}

/// A signature's cost inputs: the single definition candidate enumeration
/// and both BestPlan seeding sites go through.
pub(crate) fn compute_fact(sig: SigId, model: &CostModel<'_>, interner: &SigInterner) -> Fact {
    let resolved = interner.resolve(sig);
    Fact {
        card: model.cardinality(resolved),
        streamed: resolved.atoms.iter().all(|(r, _)| is_streamable(model, *r)),
        size: resolved.atoms.len() as u32,
    }
}

/// Enumerate push-down candidates for one search's queries, applying all
/// pruning heuristics; `whole_of[i]` is `queries[i]`'s interned whole-query
/// signature. Returns the base candidates, then the multi-relation ones by
/// descending sharing degree and ascending cardinality.
pub(crate) fn enumerate_candidates(
    queries: &[&ConjunctiveQuery],
    whole_of: &[SigId],
    model: &CostModel<'_>,
    config: &HeuristicConfig,
    interner: &mut SigInterner,
    table: &CqTable,
) -> Vec<Candidate> {
    // Pool subexpressions across queries via interned canonical signatures
    // (what an AND-OR graph's OR nodes share): sharing detection is a u32 map
    // probe per enumerated subexpression, and the sharer set is a bitmask
    // insert.
    let mut pool: FxHashMap<SigId, CqSet> = FxHashMap::default();
    for cq in queries {
        let qi = table.idx(cq.id);
        for sig in enumerate_subexprs(cq, 1, MAX_CANDIDATE_ATOMS) {
            // Heuristic 2: every atom of a pushed-down candidate must be
            // streamable, otherwise the source could not deliver results in
            // score order without a full scan.
            if !sig.atoms.iter().all(|(r, _)| is_streamable(model, *r)) {
                continue;
            }
            pool.entry(interner.intern(sig)).or_default().insert(qi);
        }
    }
    // Deterministic processing order (canonical signature order, as the
    // deep-keyed B-tree pool produced): one deep sort per search.
    let mut pooled: Vec<(SigId, CqSet)> = pool.into_iter().collect();
    pooled.sort_by(|(a, _), (b, _)| interner.resolve(*a).cmp(interner.resolve(*b)));

    let card_of = |sig: SigId, interner: &SigInterner| compute_fact(sig, model, interner).card;

    let mut out = Vec::new();
    for (sig, mut using) in pooled {
        // Heuristic 4 — "do not consider overlapping pushed-down
        // subexpressions" — is enforced *per query* inside BestPlan
        // (Algorithm 1's S′ adjustment removes a query from every
        // candidate overlapping one it already uses). A global filter here
        // would kill nearly every candidate in large batches, contradicting
        // the paper's own Example 5 where G2G⋈GI⋈T serves CQ2 while
        // overlapping (but not sourcing) CQ1.
        if interner.size(sig) == 1 {
            // Heuristic 5: base streamable relations are always useful.
            out.push(Candidate {
                sig,
                queries: using,
            });
            continue;
        }
        // Heuristic 3a: drop candidates expensive to compute at the source.
        let expensive = interner.resolve(sig).joins.iter().any(|j| {
            match model.catalog().edge_between(j.left, j.right) {
                Some(e) => {
                    // Must be the same join columns to reuse the edge stats.
                    let cols_match = (e.from == j.left
                        && e.from_col == j.left_col
                        && e.to_col == j.right_col)
                        || (e.to == j.left && e.to_col == j.left_col && e.from_col == j.right_col);
                    !cols_match || e.fanout > MAX_SOURCE_FANOUT
                }
                None => true, // non key-key join
            }
        });
        if expensive {
            continue;
        }
        // Heuristic 1/3b: keep if shared enough or cheap.
        let card = card_of(sig, interner);
        if using.len() < config.min_sharing && card > config.low_cardinality {
            continue;
        }
        // Heuristic 1: subexpressions of a low-output query are not worth
        // factoring for that query alone; keep only the sharers beyond it.
        if using.len() == 1 {
            let cq_id = table.id(using.iter().next().expect("nonempty"));
            if let Some(pos) = queries.iter().position(|c| c.id == cq_id) {
                if card_of(whole_of[pos], interner) < model.k() as f64 {
                    using = CqSet::default();
                }
            }
        }
        if using.is_empty() {
            continue;
        }
        out.push(Candidate {
            sig,
            queries: using,
        });
    }

    // Rank: multi-relation candidates by sharing degree, then cardinality;
    // keep all single-relation base candidates (needed for validity).
    let (base, multi): (Vec<_>, Vec<_>) = out.into_iter().partition(|c| interner.size(c.sig) == 1);
    let mut multi: Vec<(Candidate, f64)> = multi
        .into_iter()
        .map(|c| {
            let card = card_of(c.sig, interner);
            (c, card)
        })
        .collect();
    multi.sort_by(|(a, ca), (b, cb)| {
        b.queries
            .len()
            .cmp(&a.queries.len())
            .then_with(|| ca.total_cmp(cb))
    });
    multi.truncate(config.max_candidates);
    let mut result = base;
    result.extend(multi.into_iter().map(|(c, _)| c));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsys_catalog::{Catalog, CatalogBuilder, ColumnStats, EdgeKind, RelationStats};
    use qsys_query::{CqAtom, CqJoin};
    use qsys_types::{CqId, JoinCond, SourceId, UqId, UserId};

    /// Chain A - B - C - D; C is scoreless and large (probe-only), D is
    /// scoreless but tiny (streamable).
    fn catalog() -> Catalog {
        let mut b = CatalogBuilder::default();
        let mk_stats = |card: u64, distinct: u64| {
            let mut s = RelationStats::with_cardinality(card);
            s.columns = vec![ColumnStats { distinct }, ColumnStats { distinct }];
            s
        };
        let a = b.relation(
            "A",
            SourceId::new(0),
            vec!["k".into(), "j".into()],
            Some(0),
            1.0,
            mk_stats(10_000, 1000),
        );
        let bb = b.relation(
            "B",
            SourceId::new(0),
            vec!["k".into(), "j".into()],
            Some(0),
            1.0,
            mk_stats(8_000, 1000),
        );
        let c = b.relation(
            "C",
            SourceId::new(1),
            vec!["k".into(), "j".into()],
            None,
            1.0,
            mk_stats(50_000, 5000),
        );
        let d = b.relation(
            "D",
            SourceId::new(1),
            vec!["k".into(), "j".into()],
            None,
            1.0,
            mk_stats(500, 100),
        );
        b.edge(a, 1, bb, 0, EdgeKind::ForeignKey, 1.0, 2.0);
        b.edge(bb, 1, c, 0, EdgeKind::ForeignKey, 1.0, 3.0);
        b.edge(c, 1, d, 0, EdgeKind::ForeignKey, 1.0, 1.0);
        b.build()
    }

    fn cq(id: u32, catalog: &Catalog, names: &[&str]) -> ConjunctiveQuery {
        let rels: Vec<RelId> = names
            .iter()
            .map(|n| catalog.relation_by_name(n).unwrap().id)
            .collect();
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

    /// Enumerate with the whole-query signatures interned first, as the
    /// optimizer does.
    fn enumerate(
        queries: &[&ConjunctiveQuery],
        model: &CostModel<'_>,
        config: &HeuristicConfig,
        interner: &mut SigInterner,
        table: &CqTable,
    ) -> Vec<Candidate> {
        let whole_of: Vec<SigId> = queries.iter().map(|cq| interner.of_cq(cq)).collect();
        enumerate_candidates(queries, &whole_of, model, config, interner, table)
    }

    #[test]
    fn scoreless_large_relation_is_not_streamable() {
        let cat = catalog();
        let model = CostModel::new(&cat, 50);
        let c = cat.relation_by_name("C").unwrap().id;
        let d = cat.relation_by_name("D").unwrap().id;
        let a = cat.relation_by_name("A").unwrap().id;
        assert!(!is_streamable(&model, c), "large scoreless C probes");
        assert!(is_streamable(&model, d), "tiny scoreless D streams");
        assert!(is_streamable(&model, a), "scored A streams");
    }

    #[test]
    fn shared_subexpression_survives_pruning() {
        let cat = catalog();
        let model = CostModel::new(&cat, 50);
        let config = HeuristicConfig::default();
        let mut interner = SigInterner::new();
        let q1 = cq(0, &cat, &["A", "B"]);
        let q2 = cq(1, &cat, &["A", "B", "C"]);
        let table = CqTable::from_queries([&q1, &q2]);
        let candidates = enumerate(&[&q1, &q2], &model, &config, &mut interner, &table);
        // A⋈B is shared by both queries and both atoms are streamable.
        let ab = candidates
            .iter()
            .find(|c| interner.size(c.sig) == 2)
            .expect("A⋈B candidate");
        assert_eq!(ab.queries.len(), 2);
        // Base relations appear as candidates too (heuristic 5).
        assert!(candidates.iter().any(|c| interner.size(c.sig) == 1));
    }

    #[test]
    fn probe_only_relations_never_appear_in_candidates() {
        let cat = catalog();
        let model = CostModel::new(&cat, 50);
        let config = HeuristicConfig::default();
        let mut interner = SigInterner::new();
        let c_rel = cat.relation_by_name("C").unwrap().id;
        let q = cq(0, &cat, &["A", "B", "C"]);
        let table = CqTable::from_queries([&q]);
        let candidates = enumerate(&[&q], &model, &config, &mut interner, &table);
        assert!(
            candidates
                .iter()
                .all(|cand| !interner.rels(cand.sig).contains(&c_rel)),
            "C must be probed, not pushed down"
        );
    }

    #[test]
    fn unshared_expensive_subexpression_is_pruned() {
        let cat = catalog();
        let model = CostModel::new(&cat, 50);
        let config = HeuristicConfig {
            min_sharing: 2,
            low_cardinality: 1.0,
            ..HeuristicConfig::default()
        };
        let mut interner = SigInterner::new();
        let q = cq(0, &cat, &["A", "B"]);
        let table = CqTable::from_queries([&q]);
        let candidates = enumerate(&[&q], &model, &config, &mut interner, &table);
        // A⋈B has cardinality 10000*8000/1000 = 80000: too big, unshared.
        assert!(candidates.iter().all(|c| interner.size(c.sig) == 1));
    }

    #[test]
    fn candidate_cap_applies_to_multirel_only() {
        let cat = catalog();
        let model = CostModel::new(&cat, 50);
        let config = HeuristicConfig {
            max_candidates: 0,
            ..HeuristicConfig::default()
        };
        let mut interner = SigInterner::new();
        let q1 = cq(0, &cat, &["A", "B"]);
        let q2 = cq(1, &cat, &["A", "B"]);
        let table = CqTable::from_queries([&q1, &q2]);
        let candidates = enumerate(&[&q1, &q2], &model, &config, &mut interner, &table);
        assert!(candidates.iter().all(|c| interner.size(c.sig) == 1));
        assert!(!candidates.is_empty(), "base candidates always survive");
    }
}
