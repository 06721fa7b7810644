//! Candidate-network generation: keyword query → ranked conjunctive queries.
//!
//! The paper treats this step as pluggable ("generated using any of the
//! methods cited in Section 2.1", Section 3); we implement a DISCOVER-style
//! enumerator over the schema graph. For each keyword we take the best
//! matches from the [`KeywordIndex`]; for each combination of matches we
//! find join trees connecting the matched relations (cheapest paths first,
//! with alternatives — which is how variants like the paper's CQ5/CQ6, one
//! routing through `Term_Syn` and one not, arise); each tree becomes a
//! conjunctive query scored under the configured model. No path is searched
//! for here: the schema graph and its edge costs are fixed once a catalog is
//! built (per-user edge costs enter scoring only), so the catalog answers
//! every cheapest-path question from a table of shortest-path searches it
//! shares with its clones, each advanced only as far as the questions asked
//! of it so far needed ([`Catalog::cheapest_path`]). The result is a
//! [`UserQuery`] whose CQs are sorted by score upper bound `U`, exactly the
//! triples `[(UQ_j, CQ_i, C_i)]` the query batcher expects.
//!
//! ## Two halves: the networks, then one user's ranking of them
//!
//! [`CandidateGenerator::generate`] is the composition of two halves:
//!
//! - **The networks** depend on the keywords and the schema alone: tokenize,
//!   look up each keyword, order the match combinations, merge each, connect
//!   and realize its join trees, drop repeated signatures, and stop once
//!   `2 × max_cqs` networks are in hand. Each network keeps its atoms, its
//!   joins and its score function's weights: node authority times keyword
//!   similarity, which no user's edge costs reach.
//! - **The ranking** is the user's: number the networks from `next_cq` in
//!   that order (so `next_cq` advances by every network, kept or not), give
//!   each the static factor of the user's edge costs (Section 2.1's learned
//!   costs enter here only), sort by `U` and keep the best `max_cqs`. A
//!   network's `U` is its static factor and weights against the catalog's
//!   max scores, so a conjunctive query is built only for each one kept.
//!
//! A [`NetworkMemo`] keeps the first half per keyword query, so a service
//! answering the same keywords for many users searches the schema graph
//! once (the engine holds one). Its key is the keywords as
//! [`KeywordIndex::lookup`] reads them: the tokens, lowercased, in order —
//! `"Gene Protein"` and `"gene  protein"` share an entry, while each
//! [`UserQuery::keywords`] keeps the text it was posed with. Only a
//! generation that found networks is kept, and at most `MEMO_CAP` (256)
//! keyword queries are. An entry is never stale: an engine's catalog,
//! keyword index and [`CandidateConfig`] are fixed once it is built, and
//! the catalog statistics `U` reads are read by the ranking, which runs on
//! every submit.

use crate::cq::{ConjunctiveQuery, CqAtom, CqJoin, UserQuery};
use crate::score::{upper_bound, ScoreFn, ScoreModel};
use crate::subexpr::SubExprSig;
use qsys_catalog::{Catalog, EdgeId, KeywordIndex, KeywordMatch, MatchKind};
use qsys_types::{CqId, JoinCond, QsysError, QsysResult, RelId, Score, Selection, UqId, UserId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Tuning knobs for candidate generation.
#[derive(Clone, Debug)]
pub struct CandidateConfig {
    /// Maximum conjunctive queries per user query (paper: at most 20). At
    /// most 64: BestPlan searches one user query's queries as one-word
    /// [`CqSet`](crate::CqSet)s, and the engine's config check refuses more.
    pub max_cqs: usize,
    /// Maximum atoms per conjunctive query.
    pub max_atoms: usize,
    /// How many keyword matches to consider per keyword.
    pub matches_per_keyword: usize,
    /// The scoring model to instantiate.
    pub model: ScoreModel,
}

impl Default for CandidateConfig {
    fn default() -> Self {
        CandidateConfig {
            max_cqs: 20,
            max_atoms: 8,
            matches_per_keyword: 4,
            model: ScoreModel::QSystem,
        }
    }
}

/// How many alternative join paths to explore per connection step (yields
/// CQ variants like the paper's CQ5 vs CQ6).
const PATH_VARIANTS: usize = 2;

/// Generates candidate networks for keyword queries.
pub struct CandidateGenerator<'a> {
    catalog: &'a Catalog,
    index: &'a KeywordIndex,
    config: CandidateConfig,
}

/// A join tree under construction: relation set plus tree edges.
#[derive(Clone, Debug, PartialEq, Eq)]
struct TreeCandidate {
    rels: BTreeSet<RelId>,
    edges: BTreeSet<EdgeId>,
}

/// One candidate network as the schema-graph search leaves it, before any
/// user's scoring: atoms sorted by relation, the joins of its tree, and its
/// score function's relation-sorted weights under the configured model
/// ([`ScoreModel::weights`]: node authority times keyword similarity, which
/// no user's edge costs reach).
#[derive(Debug)]
struct Network {
    atoms: Vec<CqAtom>,
    joins: Vec<CqJoin>,
    weights: Vec<(RelId, f64)>,
    /// Tests only: the keyword-match similarity of each matched relation,
    /// from which the reference ranking builds each score function afresh.
    #[cfg(test)]
    similarity: Vec<(RelId, f64)>,
}

impl<'a> CandidateGenerator<'a> {
    /// Create a generator over a catalog and keyword index.
    pub fn new(
        catalog: &'a Catalog,
        index: &'a KeywordIndex,
        config: CandidateConfig,
    ) -> CandidateGenerator<'a> {
        CandidateGenerator {
            catalog,
            index,
            config,
        }
    }

    /// Convert a keyword query into a user query. `next_cq` is the global
    /// CQ id counter (advanced for each emitted CQ). `user_edge_costs`
    /// optionally overrides schema edge costs for this user (the Q System
    /// learns per-user costs).
    pub fn generate(
        &self,
        keywords: &str,
        uq: UqId,
        user: UserId,
        next_cq: &mut u32,
        user_edge_costs: Option<&HashMap<EdgeId, f64>>,
    ) -> QsysResult<UserQuery> {
        let networks = self.networks(keywords)?;
        Ok(self.rank(&networks, keywords, uq, user, next_cq, user_edge_costs))
    }

    /// The user-independent half: every distinct network of the keyword
    /// query's match combinations, best combination first, until
    /// `2 × max_cqs` are in hand (the raw material the ranking truncates).
    fn networks(&self, keywords: &str) -> QsysResult<Vec<Network>> {
        let terms = KeywordIndex::tokenize(keywords);
        if terms.is_empty() {
            return Err(QsysError::NoMatches(keywords.to_string()));
        }
        let mut per_keyword: Vec<&[KeywordMatch]> = Vec::new();
        for term in &terms {
            let hits = self.index.lookup(term);
            if hits.is_empty() {
                return Err(QsysError::NoMatches(term.clone()));
            }
            per_keyword.push(&hits[..hits.len().min(self.config.matches_per_keyword)]);
        }

        // Enumerate match combinations (cartesian product, best-first by
        // similarity product).
        let mut combos: Vec<Vec<&KeywordMatch>> = vec![Vec::new()];
        for hits in &per_keyword {
            let mut next = Vec::with_capacity(combos.len() * hits.len());
            for combo in &combos {
                for hit in *hits {
                    let mut c = combo.clone();
                    c.push(hit);
                    next.push(c);
                }
            }
            combos = next;
        }
        combos.sort_by(|a, b| {
            let pa: f64 = a.iter().map(|m| m.similarity).product();
            let pb: f64 = b.iter().map(|m| m.similarity).product();
            pb.total_cmp(&pa)
        });

        let mut seen = BTreeSet::new();
        let mut out: Vec<Network> = Vec::new();
        for combo in &combos {
            if out.len() >= self.config.max_cqs * 2 {
                break; // enough raw material before the final truncation
            }
            let Some((selections, similarity)) = merge_combo(combo) else {
                continue; // conflicting selections on the same relation
            };
            let rels: Vec<RelId> = selections.keys().copied().collect();
            for tree in self.connect(&rels) {
                if tree.rels.len() > self.config.max_atoms {
                    continue;
                }
                let (atoms, joins) = self.realize(&tree, &selections);
                let sig = SubExprSig::new(
                    atoms.iter().map(|a| (a.rel, a.selection.clone())).collect(),
                    joins.iter().map(|j| j.on).collect(),
                );
                if !seen.insert(sig) {
                    continue;
                }
                let node_costs = atoms
                    .iter()
                    .map(|a| (a.rel, self.catalog.relation(a.rel).node_cost));
                let sims = similarity.iter().map(|(&rel, &sim)| (rel, sim));
                out.push(Network {
                    weights: self.config.model.weights(node_costs, sims),
                    #[cfg(test)]
                    similarity: similarity.iter().map(|(&rel, &sim)| (rel, sim)).collect(),
                    atoms,
                    joins,
                });
            }
        }
        if out.is_empty() {
            return Err(QsysError::NoMatches(keywords.to_string()));
        }
        Ok(out)
    }

    /// The per-user half: number `networks` in order from `next_cq`, score
    /// each for `user`, sort by upper bound, nonincreasing, and truncate
    /// (Section 3: CQs arrive at the batcher in nonincreasing order of U).
    /// A network's `U` needs only its static factor and weights, so a
    /// conjunctive query is built only for each network kept.
    fn rank(
        &self,
        networks: &[Network],
        keywords: &str,
        uq: UqId,
        user: UserId,
        next_cq: &mut u32,
        user_edge_costs: Option<&HashMap<EdgeId, f64>>,
    ) -> UserQuery {
        let first = *next_cq;
        *next_cq += networks.len() as u32;
        let model = self.config.model;
        let edge_cost = |eid: EdgeId| -> f64 {
            user_edge_costs
                .and_then(|m| m.get(&eid).copied())
                .unwrap_or_else(|| self.catalog.edge(eid).cost)
        };
        let static_factors: Vec<f64> = networks
            .iter()
            .map(|n| model.static_factor(n.atoms.len(), n.joins.iter().map(|j| edge_cost(j.edge))))
            .collect();
        // Stable: equal bounds keep network order, the index breaking ties.
        let mut order: Vec<(Reverse<Score>, usize)> = networks
            .iter()
            .zip(&static_factors)
            .map(|(n, &s)| upper_bound(s, &n.weights, n.atoms.iter().map(|a| a.rel), self.catalog))
            .map(Reverse)
            .zip(0..)
            .collect();
        order.sort_unstable();
        order.truncate(self.config.max_cqs);
        let cqs = order
            .into_iter()
            .map(|(_, i)| {
                let n = &networks[i];
                let id = CqId::new(first + i as u32);
                let cq = ConjunctiveQuery::new(id, uq, user, n.atoms.clone(), n.joins.clone());
                let f = ScoreFn::from_parts(model, static_factors[i], n.weights.clone(), user);
                (cq, f)
            })
            .collect();
        UserQuery {
            id: uq,
            user,
            keywords: keywords.to_string(),
            cqs,
        }
    }

    /// Find join trees connecting `rels`, exploring [`PATH_VARIANTS`]
    /// alternatives per connection step.
    fn connect(&self, rels: &[RelId]) -> Vec<TreeCandidate> {
        let mut alternatives = vec![TreeCandidate {
            rels: BTreeSet::from([rels[0]]),
            edges: BTreeSet::new(),
        }];
        for &target in &rels[1..] {
            let mut next = Vec::new();
            for alt in &alternatives {
                if alt.rels.contains(&target) {
                    next.push(alt.clone());
                    continue;
                }
                for path in self.paths_to_set(target, &alt.rels) {
                    let mut grown = alt.clone();
                    for eid in &path {
                        let e = self.catalog.edge(*eid);
                        grown.rels.insert(e.from);
                        grown.rels.insert(e.to);
                        grown.edges.insert(*eid);
                    }
                    if !next.contains(&grown) {
                        next.push(grown);
                    }
                }
            }
            next.truncate(8); // keep the search bounded
            alternatives = next;
            if alternatives.is_empty() {
                return Vec::new(); // disconnected keywords
            }
        }
        // Keep only alternatives whose edges form trees (no cycles).
        alternatives
            .into_iter()
            .filter(|t| t.edges.len() + 1 == t.rels.len())
            .collect()
    }

    /// Up to [`PATH_VARIANTS`] cheapest edge-paths from `from` to any
    /// relation in `targets`. The cheapest path is read off the catalog's
    /// schema-path table ([`Catalog::cheapest_path`]); alternatives are
    /// found Yen-style, by banning each edge of the cheapest path in turn
    /// and keeping the cheapest distinct detours — each of those one more
    /// search in the table, paused at its answer and resumed by any later
    /// query that routes the same way.
    fn paths_to_set(&self, from: RelId, targets: &BTreeSet<RelId>) -> Vec<Vec<EdgeId>> {
        let cheapest = |banned| {
            self.catalog
                .cheapest_path(from, targets.iter().copied(), banned)
        };
        let Some(best) = cheapest(None) else {
            return Vec::new();
        };
        let mut out = vec![best.clone()];
        if best.is_empty() {
            return out;
        }
        let mut alts: Vec<Vec<EdgeId>> = Vec::new();
        for &banned_edge in &best {
            if let Some(p) = cheapest(Some(banned_edge)) {
                if p != best && !alts.contains(&p) {
                    alts.push(p);
                }
            }
        }
        alts.sort_by_key(|p| self.path_cost(p));
        for p in alts {
            if out.len() >= PATH_VARIANTS {
                break;
            }
            out.push(p);
        }
        out
    }

    fn path_cost(&self, path: &[EdgeId]) -> u64 {
        path.iter().map(|&e| self.catalog.edge_weight(e)).sum()
    }

    /// Turn a tree into atoms and joins, applying keyword selections.
    fn realize(&self, tree: &TreeCandidate, selections: &Selections) -> (Vec<CqAtom>, Vec<CqJoin>) {
        let atoms = tree
            .rels
            .iter()
            .map(|&rel| CqAtom {
                rel,
                selection: selections.get(&rel).cloned().flatten(),
            })
            .collect();
        let joins = tree
            .edges
            .iter()
            .map(|&eid| {
                let e = self.catalog.edge(eid);
                CqJoin {
                    edge: eid,
                    on: JoinCond {
                        left: e.from,
                        left_col: e.from_col,
                        right: e.to,
                        right_col: e.to_col,
                    },
                }
            })
            .collect();
        (atoms, joins)
    }
}

/// How many keyword queries a [`NetworkMemo`] keeps. An entry holds fewer
/// than `2 × max_cqs` networks plus the trees of the combination that
/// crossed that count (at most 8), so at most `2 × max_cqs + 7`. A network
/// of `a` atoms takes at most `88·(a + 1)` bytes on a 64-bit target,
/// allocator headers included: 72 inline, 40 an atom, 32 a join, 16 a
/// score weight, at most one per atom (its selection values share the
/// keyword index's strings). At the default `max_cqs` of 20 and
/// `max_atoms` of 8, a full memo holds at most 256 × 47 × 792 B ≈ 9.5 MB;
/// at the largest `max_cqs` the engine accepts (64), ≈ 27 MB.
const MEMO_CAP: usize = 256;

/// The networks of keyword queries already generated, keyed by their
/// lowercased tokens (see the module docs). It empties when full, before
/// it stores the next entry.
#[derive(Debug, Default)]
pub struct NetworkMemo {
    entries: HashMap<Vec<String>, Vec<Network>>,
}

impl NetworkMemo {
    /// [`CandidateGenerator::generate`], with the networks of a keyword
    /// query searched once and ranked afresh for each user: the result
    /// equals a fresh generation's, `CqId`s and `next_cq` advance included.
    /// A `generator` must answer every call to one memo alike: one catalog,
    /// keyword index and [`CandidateConfig`].
    pub fn generate(
        &mut self,
        generator: &CandidateGenerator<'_>,
        keywords: &str,
        uq: UqId,
        user: UserId,
        next_cq: &mut u32,
        user_edge_costs: Option<&HashMap<EdgeId, f64>>,
    ) -> QsysResult<UserQuery> {
        let key = memo_key(keywords);
        if !self.entries.contains_key(&key) {
            let networks = generator.networks(keywords)?;
            if self.entries.len() == MEMO_CAP {
                self.entries.clear();
            }
            self.entries.insert(key.clone(), networks);
        }
        let networks = &self.entries[&key];
        Ok(generator.rank(networks, keywords, uq, user, next_cq, user_edge_costs))
    }
}

/// A keyword query's terms as [`KeywordIndex::lookup`] reads them.
fn memo_key(keywords: &str) -> Vec<String> {
    let terms = KeywordIndex::tokenize(keywords);
    terms.iter().map(|t| t.to_lowercase()).collect()
}

/// The keyword selection on each matched relation (`None` for a metadata
/// match, which selects nothing).
type Selections = BTreeMap<RelId, Option<Selection>>;

/// Merge one match combination into per-relation selections and similarity
/// weights; `None` when two keywords demand conflicting selections on the
/// same relation.
fn merge_combo(combo: &[&KeywordMatch]) -> Option<(Selections, BTreeMap<RelId, f64>)> {
    let mut selections = Selections::new();
    let mut similarity: BTreeMap<RelId, f64> = BTreeMap::new();
    for m in combo {
        let sel = match &m.kind {
            MatchKind::Metadata => None,
            MatchKind::Content { column, value } => Some(Selection::eq(*column, value.clone())),
        };
        match selections.get_mut(&m.rel) {
            None => {
                selections.insert(m.rel, sel);
            }
            Some(existing) => match (&existing, &sel) {
                (None, None) => {}
                (None, Some(_)) => *existing = sel,
                (Some(_), None) => {}
                (Some(a), Some(b)) if *a == *b => {}
                _ => return None, // two different content predicates clash
            },
        }
        *similarity.entry(m.rel).or_insert(1.0) *= m.similarity;
    }
    Some((selections, similarity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qsys_catalog::{CatalogBuilder, EdgeKind, RelationStats};
    use qsys_types::{SourceId, Value};
    use std::collections::BinaryHeap;
    use std::hash::{DefaultHasher, Hash, Hasher};

    /// The per-call search the schema-path table replaced, kept as the
    /// reference its answers are checked against: Dijkstra from `from`,
    /// stopping at the first settled member of `targets`.
    fn reference_dijkstra(
        catalog: &Catalog,
        from: RelId,
        targets: &BTreeSet<RelId>,
        banned: &BTreeSet<EdgeId>,
    ) -> Option<Vec<EdgeId>> {
        if targets.contains(&from) {
            return Some(Vec::new());
        }
        // Max-heap on negative cost → min-heap behaviour.
        let mut heap: BinaryHeap<(Reverse<u64>, RelId)> = BinaryHeap::new();
        let mut dist: BTreeMap<RelId, u64> = BTreeMap::new();
        let mut back: BTreeMap<RelId, EdgeId> = BTreeMap::new();
        dist.insert(from, 0);
        heap.push((Reverse(0), from));
        while let Some((Reverse(d), rel)) = heap.pop() {
            if dist.get(&rel).copied().unwrap_or(u64::MAX) < d {
                continue;
            }
            if targets.contains(&rel) {
                // Reconstruct edge path.
                let mut path = Vec::new();
                let mut cur = rel;
                while cur != from {
                    let eid = back[&cur];
                    path.push(eid);
                    let e = catalog.edge(eid);
                    cur = if e.from == cur { e.to } else { e.from };
                }
                path.reverse();
                return Some(path);
            }
            for eid in catalog.incident_edges(rel) {
                if banned.contains(&eid) {
                    continue;
                }
                let e = catalog.edge(eid);
                let (next, _, _) = e.other(rel).expect("incident edge");
                let nd = d + catalog.edge_weight(eid);
                if nd < dist.get(&next).copied().unwrap_or(u64::MAX) {
                    dist.insert(next, nd);
                    back.insert(next, eid);
                    heap.push((Reverse(nd), next));
                }
            }
        }
        None
    }

    /// A small catalog built to provoke ties: `n` relations of which the
    /// last two (when `n >= 4`) form a component of their own, edge costs
    /// from `{1.0, 1.0, 2.0}`, and the first edge doubled as a parallel edge.
    fn tie_catalog(n: usize, edges: &[(usize, usize, usize)], parallel_cost: usize) -> Catalog {
        const COSTS: [f64; 3] = [1.0, 1.0, 2.0];
        let mut b = CatalogBuilder::default();
        let rels: Vec<RelId> = (0..n)
            .map(|i| {
                b.relation(
                    format!("R{i}"),
                    SourceId::new(0),
                    vec!["k".into()],
                    None,
                    1.0,
                    RelationStats::with_cardinality(10),
                )
            })
            .collect();
        let main = if n >= 4 { n - 2 } else { n };
        let mut first = None;
        for &(x, y, cost) in edges {
            let (x, y) = (x % main, y % main);
            if x != y {
                b.edge(rels[x], 0, rels[y], 0, EdgeKind::Link, COSTS[cost], 1.0);
                first.get_or_insert((x, y));
            }
        }
        if let Some((x, y)) = first {
            b.edge(
                rels[y],
                0,
                rels[x],
                0,
                EdgeKind::Link,
                COSTS[parallel_cost],
                1.0,
            );
        }
        if main < n {
            b.edge(rels[main], 0, rels[main + 1], 0, EdgeKind::Link, 1.0, 1.0);
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The path table answers every `(from, targets, banned)` question
        /// exactly as the per-call search did — `None`, the empty path, and
        /// every tie included — in whatever order the questions come: a
        /// banned search before or after its unbanned twin, a far target set
        /// resuming a search that a near one paused.
        #[test]
        fn path_table_matches_reference_dijkstra(
            n in 2usize..=12,
            edges in prop::collection::vec((0usize..12, 0usize..12, 0usize..3), 1..=20),
            parallel_cost in 0usize..3,
            asks in prop::collection::vec((0usize..12, 1u32..4096, 0usize..23), 1..=8),
            shuffle in 0u64..u64::MAX,
        ) {
            let catalog = tie_catalog(n, &edges, parallel_cost);
            // `pick` draws from every edge id and, one past the last, `None`.
            let edge_count = catalog.edges().len();
            let banned_of = |pick: usize| {
                let pick = pick % (edge_count + 1);
                (pick < edge_count).then_some(EdgeId(pick as u32))
            };
            // Each drawn question, its unbanned twin, the twin's Yen-style
            // bans, and one question per single target under both bans.
            let mut questions = Vec::new();
            for (from, mask, pick) in asks {
                let from = RelId::new((from % n) as u32);
                let mut targets: BTreeSet<RelId> = (0..n)
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| RelId::new(i as u32))
                    .collect();
                if targets.is_empty() {
                    targets.insert(RelId::new(((from.index() + 1) % n) as u32));
                }
                let banned = banned_of(pick);
                let best = reference_dijkstra(&catalog, from, &targets, &BTreeSet::new());
                for &t in &targets {
                    questions.push((from, BTreeSet::from([t]), None));
                    questions.push((from, BTreeSet::from([t]), banned));
                }
                for e in best.into_iter().flatten() {
                    questions.push((from, targets.clone(), Some(e)));
                }
                questions.push((from, targets.clone(), None));
                questions.push((from, targets, banned));
            }
            let order = |i: &usize| {
                let mut h = DefaultHasher::new();
                (shuffle, *i).hash(&mut h);
                h.finish()
            };
            let mut asked: Vec<usize> = (0..questions.len()).collect();
            asked.sort_by_key(order);
            for i in asked {
                let (from, targets, banned) = &questions[i];
                prop_assert_eq!(
                    catalog.cheapest_path(*from, targets.iter().copied(), *banned),
                    reference_dijkstra(&catalog, *from, targets, &banned.iter().copied().collect()),
                    "from {:?} to {:?} avoiding {:?}",
                    from,
                    targets,
                    banned
                );
            }
        }
    }

    /// Build a mini bio-style schema:
    /// Protein - Entry2Meth - InterPro2GO - Term - Gene2GO - GeneInfo
    ///                         plus Term - TermSyn - Gene2GO (alt path).
    fn setup() -> (Catalog, KeywordIndex) {
        let mut b = CatalogBuilder::default();
        let stats = |n: u64| RelationStats::with_cardinality(n);
        let prot = b.relation(
            "Protein",
            SourceId::new(0),
            vec!["id".into(), "name".into(), "score".into()],
            Some(2),
            0.5,
            stats(1000),
        );
        let e2m = b.relation(
            "Entry2Meth",
            SourceId::new(0),
            vec!["ent".into(), "id".into()],
            None,
            1.0,
            stats(5000),
        );
        let i2g = b.relation(
            "InterPro2GO",
            SourceId::new(1),
            vec!["ent".into(), "gid".into()],
            None,
            1.0,
            stats(5000),
        );
        let term = b.relation(
            "Term",
            SourceId::new(1),
            vec!["gid".into(), "name".into(), "score".into()],
            Some(2),
            0.5,
            stats(2000),
        );
        let tsyn = b.relation(
            "TermSyn",
            SourceId::new(1),
            vec!["gid1".into(), "gid2".into(), "score".into()],
            Some(2),
            1.0,
            stats(3000),
        );
        let g2g = b.relation(
            "Gene2GO",
            SourceId::new(2),
            vec!["gid".into(), "giId".into()],
            None,
            1.0,
            stats(8000),
        );
        let gi = b.relation(
            "GeneInfo",
            SourceId::new(2),
            vec!["giId".into(), "gene".into(), "score".into()],
            Some(2),
            0.5,
            stats(4000),
        );
        b.edge(prot, 0, e2m, 1, EdgeKind::ForeignKey, 1.0, 2.0);
        b.edge(e2m, 0, i2g, 0, EdgeKind::ForeignKey, 1.0, 1.5);
        b.edge(i2g, 1, term, 0, EdgeKind::ForeignKey, 1.0, 1.0);
        b.edge(term, 0, g2g, 0, EdgeKind::ForeignKey, 1.0, 3.0);
        b.edge(term, 0, tsyn, 0, EdgeKind::ForeignKey, 2.0, 1.5);
        b.edge(tsyn, 1, g2g, 0, EdgeKind::ForeignKey, 2.0, 2.0);
        b.edge(g2g, 1, gi, 0, EdgeKind::ForeignKey, 1.0, 1.0);
        let catalog = b.build();

        let mut idx = KeywordIndex::new();
        idx.insert(
            "protein",
            KeywordMatch {
                rel: prot,
                similarity: 0.9,
                kind: MatchKind::Metadata,
                selectivity: 1.0,
            },
        );
        idx.insert(
            "plasma membrane",
            KeywordMatch {
                rel: term,
                similarity: 0.8,
                kind: MatchKind::Content {
                    column: 1,
                    value: Value::str("plasma membrane"),
                },
                selectivity: 0.01,
            },
        );
        idx.insert(
            "gene",
            KeywordMatch {
                rel: gi,
                similarity: 0.85,
                kind: MatchKind::Metadata,
                selectivity: 1.0,
            },
        );
        (catalog, idx)
    }

    #[test]
    fn generates_ranked_cqs_for_three_keywords() {
        let (catalog, idx) = setup();
        let generator = CandidateGenerator::new(&catalog, &idx, CandidateConfig::default());
        let mut next = 0;
        let uq = generator
            .generate(
                "protein 'plasma membrane' gene",
                UqId::new(0),
                UserId::new(0),
                &mut next,
                None,
            )
            .unwrap();
        assert!(!uq.cqs.is_empty());
        assert_eq!(next as usize, uq.cqs.len());
        // Sorted by nonincreasing upper bound.
        let bounds: Vec<f64> = uq
            .cqs
            .iter()
            .map(|(cq, f)| f.upper_bound(cq, &catalog).get())
            .collect();
        assert!(bounds.windows(2).all(|w| w[0] >= w[1]), "{bounds:?}");
        // Every CQ covers all three matched relations.
        for (cq, _) in &uq.cqs {
            let rels = cq.rels();
            assert!(rels.contains(&catalog.relation_by_name("Protein").unwrap().id));
            assert!(rels.contains(&catalog.relation_by_name("Term").unwrap().id));
            assert!(rels.contains(&catalog.relation_by_name("GeneInfo").unwrap().id));
            assert!(cq.is_connected());
        }
    }

    #[test]
    fn content_match_becomes_selection() {
        let (catalog, idx) = setup();
        let generator = CandidateGenerator::new(&catalog, &idx, CandidateConfig::default());
        let mut next = 0;
        let uq = generator
            .generate(
                "'plasma membrane' gene",
                UqId::new(1),
                UserId::new(0),
                &mut next,
                None,
            )
            .unwrap();
        let term = catalog.relation_by_name("Term").unwrap().id;
        for (cq, _) in &uq.cqs {
            let atom = cq.atom(term).expect("Term participates");
            let sel = atom.selection.as_ref().expect("content match selects");
            assert_eq!(sel.value.as_str(), Some("plasma membrane"));
        }
    }

    #[test]
    fn path_variants_produce_syn_route() {
        // CQ5 vs CQ6 of the paper: one route goes Term→Gene2GO directly,
        // another via TermSyn.
        let (catalog, idx) = setup();
        let generator = CandidateGenerator::new(&catalog, &idx, CandidateConfig::default());
        let mut next = 0;
        let uq = generator
            .generate(
                "'plasma membrane' gene",
                UqId::new(2),
                UserId::new(0),
                &mut next,
                None,
            )
            .unwrap();
        let tsyn = catalog.relation_by_name("TermSyn").unwrap().id;
        let with_syn = uq
            .cqs
            .iter()
            .filter(|(cq, _)| cq.atom(tsyn).is_some())
            .count();
        let without = uq
            .cqs
            .iter()
            .filter(|(cq, _)| cq.atom(tsyn).is_none())
            .count();
        assert!(with_syn >= 1, "expected a TermSyn variant");
        assert!(without >= 1, "expected a direct variant");
    }

    #[test]
    fn unknown_keyword_errors() {
        let (catalog, idx) = setup();
        let generator = CandidateGenerator::new(&catalog, &idx, CandidateConfig::default());
        let mut next = 0;
        let err = generator
            .generate("frobnicate", UqId::new(3), UserId::new(0), &mut next, None)
            .unwrap_err();
        assert!(matches!(err, QsysError::NoMatches(_)));
    }

    #[test]
    fn max_cqs_truncates() {
        let (catalog, idx) = setup();
        let config = CandidateConfig {
            max_cqs: 1,
            ..CandidateConfig::default()
        };
        let generator = CandidateGenerator::new(&catalog, &idx, config);
        let mut next = 0;
        let uq = generator
            .generate(
                "protein 'plasma membrane' gene",
                UqId::new(4),
                UserId::new(0),
                &mut next,
                None,
            )
            .unwrap();
        assert_eq!(uq.cqs.len(), 1);
    }

    #[test]
    fn user_edge_costs_change_ranking() {
        let (catalog, idx) = setup();
        let config = CandidateConfig {
            model: ScoreModel::QSystem,
            ..CandidateConfig::default()
        };
        let generator = CandidateGenerator::new(&catalog, &idx, config);
        let mut next = 0;
        let base = generator
            .generate(
                "'plasma membrane' gene",
                UqId::new(5),
                UserId::new(0),
                &mut next,
                None,
            )
            .unwrap();
        // Make every edge hugely expensive for user 1: bounds shrink.
        let costs: HashMap<EdgeId, f64> = catalog.edges().iter().map(|e| (e.id, 10.0)).collect();
        let expensive = generator
            .generate(
                "'plasma membrane' gene",
                UqId::new(6),
                UserId::new(1),
                &mut next,
                Some(&costs),
            )
            .unwrap();
        let b0 = base.cqs[0].1.upper_bound(&base.cqs[0].0, &catalog);
        let b1 = expensive.cqs[0]
            .1
            .upper_bound(&expensive.cqs[0].0, &catalog);
        assert!(b0 > b1);
    }

    /// The ranking before it built only the conjunctive queries it keeps,
    /// kept as the reference the ranking is checked against: build every
    /// network's CQ, score it afresh from its keyword similarities, sort
    /// stably by `U` and truncate.
    fn reference_rank(
        generator: &CandidateGenerator<'_>,
        networks: &[Network],
        keywords: &str,
        uq: UqId,
        user: UserId,
        next_cq: &mut u32,
        user_edge_costs: Option<&HashMap<EdgeId, f64>>,
    ) -> UserQuery {
        let mut cqs: Vec<(ConjunctiveQuery, ScoreFn)> = networks
            .iter()
            .map(|n| {
                let id = CqId::new(*next_cq);
                *next_cq += 1;
                let cq = ConjunctiveQuery::new(id, uq, user, n.atoms.clone(), n.joins.clone());
                let score_fn =
                    reference_score_for(generator, &cq, &n.similarity, user, user_edge_costs);
                (cq, score_fn)
            })
            .collect();
        cqs.sort_by_cached_key(|(cq, f)| Reverse(f.upper_bound(cq, generator.catalog)));
        cqs.truncate(generator.config.max_cqs);
        UserQuery {
            id: uq,
            user,
            keywords: keywords.to_string(),
            cqs,
        }
    }

    /// The reference ranking's score function for a CQ under the
    /// configured model, folding keyword-match similarities into
    /// per-relation weights.
    fn reference_score_for(
        generator: &CandidateGenerator<'_>,
        cq: &ConjunctiveQuery,
        similarity: &[(RelId, f64)],
        user: UserId,
        user_edge_costs: Option<&HashMap<EdgeId, f64>>,
    ) -> ScoreFn {
        let catalog = generator.catalog;
        let edge_cost = |eid: EdgeId| -> f64 {
            user_edge_costs
                .and_then(|m| m.get(&eid).copied())
                .unwrap_or_else(|| catalog.edge(eid).cost)
        };
        let mut f = match generator.config.model {
            ScoreModel::Discover => ScoreFn::discover(user, cq.size()),
            ScoreModel::QSystem => ScoreFn::q_system(
                user,
                cq.joins.iter().map(|j| edge_cost(j.edge)),
                cq.atoms
                    .iter()
                    .map(|a| (a.rel, catalog.relation(a.rel).node_cost)),
            ),
            ScoreModel::Banks => {
                let edge_w: f64 = cq
                    .joins
                    .iter()
                    .map(|j| 1.0 / (1.0 + edge_cost(j.edge)))
                    .product();
                ScoreFn::banks(user, edge_w, Vec::new())
            }
        };
        for (rel, sim) in similarity {
            f.scale_weight(*rel, *sim);
        }
        f
    }

    /// Rank `keywords`' networks for `user` both ways from one `next_cq`
    /// and require the same user query, conjunctive query by conjunctive
    /// query, and the same `next_cq` after.
    fn rank_matches_reference(
        generator: &CandidateGenerator<'_>,
        keywords: &str,
        user: UserId,
        start: u32,
        costs: Option<&HashMap<EdgeId, f64>>,
    ) -> Result<(), String> {
        let networks = generator.networks(keywords).map_err(|e| e.to_string())?;
        let uq = UqId::new(7);
        let (mut next, mut reference_next) = (start, start);
        let ranked = generator.rank(&networks, keywords, uq, user, &mut next, costs);
        let reference = reference_rank(
            generator,
            &networks,
            keywords,
            uq,
            user,
            &mut reference_next,
            costs,
        );
        if fingerprint(&ranked) != fingerprint(&reference) {
            return Err(format!(
                "{keywords:?} ({:?}, max_cqs {}): {:?} != {:?}",
                generator.config.model,
                generator.config.max_cqs,
                fingerprint(&ranked),
                fingerprint(&reference)
            ));
        }
        if next != reference_next {
            return Err(format!("{keywords:?}: next_cq {next} != {reference_next}"));
        }
        Ok(())
    }

    const MODELS: [ScoreModel; 3] = [ScoreModel::Discover, ScoreModel::QSystem, ScoreModel::Banks];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The ranking equals its reference under every scoring model, any
        /// user's edge costs and any cap: the same `CqId`s, atoms, joins,
        /// score functions bit for bit, order and `next_cq`.
        #[test]
        fn ranking_matches_reference_rank(
            model in 0usize..3,
            max_cqs in 1usize..=8,
            query in 0usize..5,
            costs in prop::collection::vec((0u8..2, 0.0f64..6.0), 7),
            start in 0u32..1000,
        ) {
            let (catalog, idx) = setup();
            let config = CandidateConfig {
                max_cqs,
                model: MODELS[model],
                ..CandidateConfig::default()
            };
            let generator = CandidateGenerator::new(&catalog, &idx, config);
            let keywords = [
                "protein 'plasma membrane' gene",
                "'plasma membrane' gene",
                "gene protein",
                "protein",
                "'plasma membrane'",
            ][query];
            let costs: HashMap<EdgeId, f64> = catalog
                .edges()
                .iter()
                .zip(&costs)
                .filter(|(_, (learned, _))| *learned == 1)
                .map(|(e, &(_, cost))| (e.id, cost))
                .collect();
            let user = UserId::new(3);
            let ranked = rank_matches_reference(&generator, keywords, user, start, Some(&costs));
            prop_assert_eq!(ranked, Ok(()));
        }
    }

    /// The ranking equals its reference on every query of the GUS seed-41,
    /// 48 and 55 scripts, with each query's own user edge costs, under
    /// every scoring model, at caps of 1, 5 and the default 20.
    #[test]
    fn ranking_matches_reference_rank_on_gus_scripts() {
        for seed in [41, 48, 55] {
            let workload = qsys_workload::gus::generate(&qsys_workload::GusConfig::small(seed));
            for model in MODELS {
                for max_cqs in [1, 5, 20] {
                    let config = CandidateConfig {
                        max_cqs,
                        model,
                        ..CandidateConfig::default()
                    };
                    let generator =
                        CandidateGenerator::new(&workload.catalog, &workload.index, config);
                    for q in &workload.queries {
                        let costs = q.edge_costs.as_ref();
                        let ranked =
                            rank_matches_reference(&generator, &q.keywords, q.user, 11, costs);
                        assert_eq!(ranked, Ok(()), "seed {seed}");
                    }
                }
            }
        }
    }

    /// Everything a generation decides, for comparing two of them exactly.
    fn fingerprint(uq: &UserQuery) -> impl PartialEq + std::fmt::Debug {
        let cqs: Vec<_> = uq
            .cqs
            .iter()
            .map(|(cq, f)| {
                let (id, atoms, joins) = (cq.id, cq.atoms.clone(), cq.joins.clone());
                (id, cq.uq, cq.user, atoms, joins, f.exact_key())
            })
            .collect();
        (uq.id, uq.user, uq.keywords.clone(), cqs)
    }

    #[test]
    fn memo_keys_on_lowercased_tokens_and_keeps_each_text() {
        let (catalog, idx) = setup();
        let generator = CandidateGenerator::new(&catalog, &idx, CandidateConfig::default());
        let mut memo = NetworkMemo::default();
        let mut next = 0;
        let mut pose = |memo: &mut NetworkMemo, keywords: &str, uq: u32| {
            memo.generate(
                &generator,
                keywords,
                UqId::new(uq),
                UserId::new(uq),
                &mut next,
                None,
            )
            .unwrap()
        };
        let a = pose(&mut memo, "Gene Protein", 0);
        let b = pose(&mut memo, "gene  protein", 1);
        assert_eq!(memo.entries.len(), 1, "one entry for both spellings");
        assert_eq!(a.keywords, "Gene Protein");
        assert_eq!(b.keywords, "gene  protein");
        assert_eq!(a.cqs.len(), b.cqs.len());
        for ((x, _), (y, _)) in a.cqs.iter().zip(&b.cqs) {
            assert_eq!((&x.atoms, &x.joins), (&y.atoms, &y.joins));
        }
        // A quoted phrase is one token, whichever quote and case it wears.
        pose(&mut memo, "'Plasma Membrane' gene", 2);
        pose(&mut memo, "\"plasma membrane\"   GENE", 3);
        assert_eq!(memo.entries.len(), 2);
        // Token order is part of the key: it orders the match combinations.
        pose(&mut memo, "protein gene", 4);
        assert_eq!(memo.entries.len(), 3);
    }

    #[test]
    fn phrase_whitespace_is_one_keyword_and_one_memo_entry() {
        let (catalog, idx) = setup();
        let generator = CandidateGenerator::new(&catalog, &idx, CandidateConfig::default());
        let mut memo = NetworkMemo::default();
        let spellings = [
            "'plasma membrane' gene",
            "'plasma  membrane' gene",
            "' plasma membrane' gene",
            "'plasma membrane ' ' ' gene",
        ];
        let mut generated = Vec::new();
        for keywords in spellings {
            let (mut fresh_next, mut memo_next) = (0, 0);
            let fresh = generator
                .generate(
                    keywords,
                    UqId::new(0),
                    UserId::new(0),
                    &mut fresh_next,
                    None,
                )
                .unwrap();
            let hit = memo
                .generate(
                    &generator,
                    keywords,
                    UqId::new(0),
                    UserId::new(0),
                    &mut memo_next,
                    None,
                )
                .unwrap();
            assert_eq!(fingerprint(&hit), fingerprint(&fresh), "{keywords:?}");
            assert_eq!(memo_next, fresh_next);
            generated.push(hit);
        }
        assert_eq!(memo.entries.len(), 1, "one entry for every spelling");
        for uq in &generated[1..] {
            let cqs = |uq: &UserQuery| -> Vec<_> {
                let cqs = uq.cqs.iter();
                cqs.map(|(cq, f)| (cq.id, cq.atoms.clone(), cq.joins.clone(), f.exact_key()))
                    .collect()
            };
            assert_eq!(cqs(uq), cqs(&generated[0]), "{:?}", uq.keywords);
        }
    }

    #[test]
    fn memo_never_stores_a_miss() {
        let (catalog, idx) = setup();
        let generator = CandidateGenerator::new(&catalog, &idx, CandidateConfig::default());
        let mut memo = NetworkMemo::default();
        for keywords in ["frobnicate", "protein frobnicate", "", "  "] {
            let mut next = 7;
            let fresh = generator.generate(keywords, UqId::new(0), UserId::new(0), &mut next, None);
            let fresh = fresh.unwrap_err();
            assert!(matches!(fresh, QsysError::NoMatches(_)));
            for _ in 0..2 {
                let err = memo
                    .generate(
                        &generator,
                        keywords,
                        UqId::new(0),
                        UserId::new(0),
                        &mut next,
                        None,
                    )
                    .unwrap_err();
                assert_eq!(err, fresh, "{keywords:?}");
            }
            assert_eq!(next, 7, "a miss numbers no conjunctive query");
        }
        assert!(memo.entries.is_empty());
    }

    #[test]
    fn memo_holds_at_most_its_cap_and_regenerates_a_dropped_query_alike() {
        let (catalog, idx) = setup();
        let generator = CandidateGenerator::new(&catalog, &idx, CandidateConfig::default());
        // Cap + 1 distinct keyword queries: every sequence of one to five of
        // the index's three keywords, shortest first.
        let words = ["protein", "gene", "'plasma membrane'"];
        let mut queries: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        let mut last = queries.clone();
        while queries.len() <= MEMO_CAP {
            last = last
                .iter()
                .flat_map(|q| words.iter().map(move |w| format!("{q} {w}")))
                .collect();
            queries.extend(last.iter().cloned());
        }
        queries.truncate(MEMO_CAP + 1);

        let mut memo = NetworkMemo::default();
        let mut next = 0;
        let mut first = None;
        for (i, keywords) in queries.iter().enumerate() {
            let start = next;
            let uq = memo
                .generate(
                    &generator,
                    keywords,
                    UqId::new(i as u32),
                    UserId::new(0),
                    &mut next,
                    None,
                )
                .unwrap();
            first.get_or_insert((start, next, fingerprint(&uq)));
            assert!(memo.entries.len() <= MEMO_CAP);
        }
        assert!(!memo.entries.contains_key(&memo_key(&queries[0])));

        let (start, end, expected) = first.unwrap();
        let mut again = start;
        let uq = memo
            .generate(
                &generator,
                &queries[0],
                UqId::new(0),
                UserId::new(0),
                &mut again,
                None,
            )
            .unwrap();
        assert_eq!(fingerprint(&uq), expected);
        assert_eq!(again, end);
    }
}
