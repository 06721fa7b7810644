//! Monotone scoring functions and their upper bounds.
//!
//! Section 2.1 of the paper surveys three representative scoring models —
//! DISCOVER, the Q System, and BANKS/BLINKS — all combining a *static*
//! component (query size, learned edge/node costs) with a *dynamic* one
//! (per-tuple similarity scores), monotonically.
//!
//! We implement all three as instances of one normal form:
//!
//! ```text
//!     C(t) = static_factor · ∏_{r ∈ rels(CQ)} ( weight_r · s_r(t) )
//! ```
//!
//! where `s_r(t)` is the raw score component contributed by relation `r`'s
//! base tuple. Products over per-source scores are sums in log space, so
//! this form expresses the "2^-c" Q System model exactly and the additive
//! DISCOVER/BANKS models up to a monotone transform — which preserves the
//! ranking, the property every algorithm in the paper depends on. The
//! payoff is a clean bound algebra: streams are ordered by their raw-score
//! product, and any user's score function is monotone in that product, so
//! **every user reads every shared stream in the same order, just at a
//! different rate** (Section 1, property 4).

use crate::cq::ConjunctiveQuery;
use qsys_catalog::Catalog;
use qsys_types::{RelId, Score, Tuple, UserId};

/// Which published model a score function was built from (for reporting).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScoreModel {
    /// DISCOVER [12, 13]: rank by query size and IR similarity.
    Discover,
    /// The Q System [32, 33]: learned per-user edge and node costs,
    /// `C(t) = 2^-c`.
    QSystem,
    /// BANKS/BLINKS [2, 11]: monotone combination of node and edge weights.
    Banks,
}

impl ScoreModel {
    /// The static factor of a candidate network of `size` relations whose
    /// joins cost `edge_costs` (the posing user's, where it has learned
    /// its own): `1/size` under DISCOVER, `2^-Σc` under the Q System, and
    /// `∏ 1/(1 + c)` under BANKS. The only part of a network's score
    /// function a user's edge costs reach.
    pub(crate) fn static_factor(self, size: usize, edge_costs: impl Iterator<Item = f64>) -> f64 {
        match self {
            ScoreModel::Discover => 1.0 / size.max(1) as f64,
            // 2^-cost becomes a multiplicative weight. Written `exp2`, not
            // `2.0.powf(..)`: LLVM lowers the latter to `exp2` only under
            // optimisation and the two differ by an ulp on some inputs, so
            // answers would depend on the build profile.
            ScoreModel::QSystem => (-edge_costs.sum::<f64>()).exp2(),
            ScoreModel::Banks => edge_costs.map(|c| 1.0 / (1.0 + c)).product(),
        }
    }

    /// The per-relation weights of a candidate network's score function,
    /// relation-sorted: each relation's authority (`2^-node_cost` under the
    /// Q System, none otherwise) times the keyword-match `similarity` of a
    /// matched relation. No user's edge costs reach them.
    pub(crate) fn weights(
        self,
        node_costs: impl Iterator<Item = (RelId, f64)>,
        similarity: impl Iterator<Item = (RelId, f64)>,
    ) -> Vec<(RelId, f64)> {
        let mut weights = match self {
            ScoreModel::QSystem => sorted_weights(node_costs.map(|(rel, c)| (rel, (-c).exp2()))),
            ScoreModel::Discover | ScoreModel::Banks => Vec::new(),
        };
        for (rel, sim) in similarity {
            *weight_slot(&mut weights, rel) *= sim;
        }
        weights
    }
}

/// A monotone scoring function for one conjunctive query.
#[derive(Clone, Debug)]
pub struct ScoreFn {
    /// The model this function instantiates.
    pub model: ScoreModel,
    /// Static component: depends only on the query formulation.
    pub static_factor: f64,
    /// Per-relation multiplicative weights (user preference / authority),
    /// sorted by relation; relations absent from the list weigh `1.0`. A
    /// CQ has at most a handful of relations, and [`ScoreFn::score`] runs
    /// once per join result reaching a rank-merge, so this is a sorted
    /// slice walked beside the tuple's (equally sorted) parts, not a map.
    weights: Vec<(RelId, f64)>,
    /// The owning user (different users may weigh the same relation
    /// differently).
    pub user: UserId,
}

impl ScoreFn {
    /// DISCOVER-style: `C(t) = (1/size) · ∏ s_i`. The `1/size` static factor
    /// penalizes larger candidate networks, as in [13].
    pub fn discover(user: UserId, cq_size: usize) -> ScoreFn {
        let static_factor = ScoreModel::Discover.static_factor(cq_size, std::iter::empty());
        ScoreFn::from_parts(ScoreModel::Discover, static_factor, Vec::new(), user)
    }

    /// Q System-style: `C(t) = 2^-c`, `c = Σ_e c_e + Σ_i cost(t_i)` where
    /// the per-tuple cost is `node_cost_r - log2 s_r`. `edge_costs` are the
    /// (possibly user-specific) costs of the schema edges used by the CQ;
    /// `node_costs` maps each relation to its authority cost. The
    /// construction candidate generation used before it split a network's
    /// function into [`ScoreModel::weights`] and
    /// [`ScoreModel::static_factor`], kept as the reference for that split.
    #[cfg(test)]
    pub(crate) fn q_system(
        user: UserId,
        edge_costs: impl IntoIterator<Item = f64>,
        node_costs: impl IntoIterator<Item = (RelId, f64)>,
    ) -> ScoreFn {
        let edge_sum: f64 = edge_costs.into_iter().sum();
        let weights = node_costs
            .into_iter()
            .map(|(rel, cost)| (rel, (-cost).exp2()));
        ScoreFn {
            model: ScoreModel::QSystem,
            static_factor: (-edge_sum).exp2(),
            weights: sorted_weights(weights),
            user,
        }
    }

    /// A `model` function from its static factor and its relation-sorted
    /// weights ([`ScoreModel::static_factor`], [`ScoreModel::weights`]).
    pub(crate) fn from_parts(
        model: ScoreModel,
        static_factor: f64,
        weights: Vec<(RelId, f64)>,
        user: UserId,
    ) -> ScoreFn {
        debug_assert!(
            weights.is_sorted_by_key(|w| w.0),
            "weights must be relation-sorted"
        );
        ScoreFn {
            model,
            static_factor,
            weights,
            user,
        }
    }

    /// BANKS-style: monotone combination of node prestige weights and edge
    /// weights.
    pub fn banks(
        user: UserId,
        edge_weight_product: f64,
        node_weights: impl IntoIterator<Item = (RelId, f64)>,
    ) -> ScoreFn {
        ScoreFn {
            model: ScoreModel::Banks,
            static_factor: edge_weight_product,
            weights: sorted_weights(node_weights),
            user,
        }
    }

    /// The function's exact identity: its model, the bits of its static
    /// factor and of each relation's weight. Two functions with equal keys
    /// score every tuple bit-identically; the posing user is not part of it.
    pub fn exact_key(&self) -> (ScoreModel, u64, Vec<(RelId, u64)>) {
        let weights = self.weights.iter().map(|&(r, w)| (r, w.to_bits()));
        (self.model, self.static_factor.to_bits(), weights.collect())
    }

    /// The weight of relation `r` (1.0 if unspecified).
    #[inline]
    pub fn weight(&self, rel: RelId) -> f64 {
        weight_in(&self.weights, rel)
    }

    /// Multiply relation `rel`'s weight by `factor` (a keyword-match
    /// similarity folded into the score).
    #[cfg(test)]
    pub(crate) fn scale_weight(&mut self, rel: RelId, factor: f64) {
        *weight_slot(&mut self.weights, rel) *= factor;
    }

    /// Score a complete result tuple of the CQ: `static · ∏ (w_r · s_r)`
    /// in relation order, the weights found by one merge walk.
    pub fn score(&self, tuple: &Tuple) -> Score {
        self.score_components(tuple.components())
    }

    /// [`ScoreFn::score`] of `a.join(b)` without building it: the factors
    /// multiply in the joined tuple's relation order, so the result is
    /// bit-identical to scoring the joined tuple.
    pub fn score_pair(&self, a: &Tuple, b: &Tuple) -> Score {
        self.score_components(a.join_components(b))
    }

    /// `static · ∏ (w_r · s_r)` over relation-sorted `(rel, raw score)`
    /// components, walking the (equally sorted) weights beside them.
    #[inline]
    fn score_components(&self, components: impl Iterator<Item = (RelId, f64)>) -> Score {
        let mut s = self.static_factor;
        let mut weights = self.weights.iter();
        let mut next = weights.next();
        for (rel, raw) in components {
            while next.is_some_and(|w| w.0 < rel) {
                next = weights.next();
            }
            let w = match next {
                Some(&(r, w)) if r == rel => w,
                _ => 1.0,
            };
            s *= w * raw;
        }
        Score::new(s)
    }

    /// Upper bound `U(C_i)` on the score of *any* tuple the CQ can return
    /// (Section 3), from catalog max-score statistics.
    pub fn upper_bound(&self, cq: &ConjunctiveQuery, catalog: &Catalog) -> Score {
        let rels = cq.atoms.iter().map(|a| a.rel);
        upper_bound(self.static_factor, &self.weights, rels, catalog)
    }

    /// The weighted contribution bound for a set of relations whose
    /// raw-score *product* is bounded by `raw_product_bound`: used by
    /// rank-merge threshold maintenance. Multiplies in the per-relation
    /// weights (which are constant) and the raw product bound.
    pub fn contribution(&self, rels: &[RelId], raw_product_bound: f64) -> f64 {
        let w: f64 = rels.iter().map(|r| self.weight(*r)).product();
        w * raw_product_bound
    }

    /// The maximum possible weighted contribution of `rels`, using catalog
    /// max scores.
    #[cfg(test)]
    pub(crate) fn max_contribution(&self, rels: &[RelId], catalog: &Catalog) -> f64 {
        rels.iter()
            .map(|r| self.weight(*r) * catalog.relation(*r).stats.max_score)
            .product()
    }
}

/// [`ScoreFn::upper_bound`] of a function with `static_factor` and
/// relation-sorted `weights` over a query of relations `rels`: the static
/// factor times each relation's weight and catalog max score.
pub(crate) fn upper_bound(
    static_factor: f64,
    weights: &[(RelId, f64)],
    rels: impl Iterator<Item = RelId>,
    catalog: &Catalog,
) -> Score {
    let mut s = static_factor;
    for rel in rels {
        let max = catalog.relation(rel).stats.max_score;
        s *= weight_in(weights, rel) * max;
    }
    Score::new(s)
}

/// Relation `rel`'s weight in a relation-sorted weight list (1.0 if
/// absent).
#[inline]
fn weight_in(weights: &[(RelId, f64)], rel: RelId) -> f64 {
    match weights.binary_search_by_key(&rel, |w| w.0) {
        Ok(i) => weights[i].1,
        Err(_) => 1.0,
    }
}

/// Relation `rel`'s entry in a relation-sorted weight list, added at the
/// neutral `1.0` if absent.
fn weight_slot(weights: &mut Vec<(RelId, f64)>, rel: RelId) -> &mut f64 {
    let i = match weights.binary_search_by_key(&rel, |w| w.0) {
        Ok(i) => i,
        Err(i) => {
            weights.insert(i, (rel, 1.0));
            i
        }
    };
    &mut weights[i].1
}

/// Weights as [`ScoreFn`] keeps them: sorted by relation, the last entry
/// of a repeated relation winning (what collecting into a map did).
fn sorted_weights(weights: impl IntoIterator<Item = (RelId, f64)>) -> Vec<(RelId, f64)> {
    let mut sorted = Vec::new();
    for (rel, w) in weights {
        *weight_slot(&mut sorted, rel) = w;
    }
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qsys_catalog::CatalogBuilder;
    use qsys_catalog::RelationStats;
    use qsys_types::{BaseTuple, SourceId};
    use std::sync::Arc;

    fn catalog_with(max_scores: &[f64]) -> Catalog {
        let mut b = CatalogBuilder::default();
        for (i, &m) in max_scores.iter().enumerate() {
            let mut stats = RelationStats::with_cardinality(100);
            stats.max_score = m;
            b.relation(
                format!("R{i}"),
                SourceId::new(0),
                vec!["k".into()],
                None,
                1.0,
                stats,
            );
        }
        b.build()
    }

    fn tuple(parts: &[(u32, f64)]) -> Tuple {
        Tuple::from_parts(
            parts
                .iter()
                .map(|&(r, s)| Arc::new(BaseTuple::new(RelId::new(r), r as u64, vec![], s))),
        )
    }

    #[test]
    fn discover_penalizes_size() {
        let f2 = ScoreFn::discover(UserId::new(0), 2);
        let f4 = ScoreFn::discover(UserId::new(0), 4);
        let t = tuple(&[(0, 1.0), (1, 1.0)]);
        assert!(f2.score(&t) > f4.score(&t));
        assert_eq!(f2.score(&t).get(), 0.5);
    }

    #[test]
    fn q_system_matches_two_power_minus_c() {
        // c = edge costs (1 + 2) + node costs (0.5) - log2(s = 0.5) = 4.5
        let f = ScoreFn::q_system(UserId::new(1), vec![1.0, 2.0], vec![(RelId::new(0), 0.5)]);
        let t = tuple(&[(0, 0.5)]);
        let expected = (2.0f64).powf(-4.5);
        assert!((f.score(&t).get() - expected).abs() < 1e-12);
    }

    #[test]
    fn score_is_monotone_in_components() {
        let f = ScoreFn::banks(
            UserId::new(0),
            0.8,
            vec![(RelId::new(0), 2.0), (RelId::new(1), 0.5)],
        );
        let low = tuple(&[(0, 0.3), (1, 0.6)]);
        let high = tuple(&[(0, 0.6), (1, 0.6)]);
        assert!(f.score(&high) > f.score(&low));
    }

    #[test]
    fn upper_bound_dominates_all_scores() {
        let catalog = catalog_with(&[0.9, 0.8]);
        let cq = ConjunctiveQuery::new(
            qsys_types::CqId::new(0),
            qsys_types::UqId::new(0),
            UserId::new(0),
            vec![
                crate::cq::CqAtom {
                    rel: RelId::new(0),
                    selection: None,
                },
                crate::cq::CqAtom {
                    rel: RelId::new(1),
                    selection: None,
                },
            ],
            vec![crate::cq::CqJoin {
                edge: qsys_catalog::EdgeId(0),
                on: qsys_types::JoinCond {
                    left: RelId::new(0),
                    left_col: 0,
                    right: RelId::new(1),
                    right_col: 0,
                },
            }],
        );
        let f = ScoreFn::discover(UserId::new(0), 2);
        let ub = f.upper_bound(&cq, &catalog);
        // Any tuple within the max scores scores below the bound.
        for (a, b) in [(0.9, 0.8), (0.5, 0.5), (0.9, 0.1)] {
            assert!(f.score(&tuple(&[(0, a), (1, b)])) <= ub);
        }
        assert!((ub.get() - 0.5 * 0.9 * 0.8).abs() < 1e-12);
    }

    #[test]
    fn contribution_scales_with_weights() {
        let f = ScoreFn::banks(UserId::new(0), 1.0, vec![(RelId::new(0), 2.0)]);
        let rels = [RelId::new(0), RelId::new(1)];
        // weight(0)=2, weight(1)=1 → contribution = 2 * bound.
        assert!((f.contribution(&rels, 0.25) - 0.5).abs() < 1e-12);
        let catalog = catalog_with(&[0.5, 1.0]);
        assert!((f.max_contribution(&rels, &catalog) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn different_users_rank_differently_but_read_in_same_order() {
        // User A favours relation 0; user B favours relation 1. Results of
        // different CQs (different relation sets) rank differently per user,
        // while each function stays monotone in each raw component — so a
        // stream sorted by raw score serves both users.
        let fa = ScoreFn::banks(UserId::new(0), 1.0, vec![(RelId::new(0), 3.0)]);
        let fb = ScoreFn::banks(UserId::new(1), 1.0, vec![(RelId::new(1), 3.0)]);
        let from_cq0 = tuple(&[(0, 0.9)]);
        let from_cq1 = tuple(&[(1, 0.9)]);
        assert!(fa.score(&from_cq0) > fa.score(&from_cq1));
        assert!(fb.score(&from_cq1) > fb.score(&from_cq0));
        // Monotone within one relation set: higher raw component, higher
        // score, for both users.
        assert!(fa.score(&tuple(&[(0, 0.9), (1, 0.5)])) > fa.score(&tuple(&[(0, 0.7), (1, 0.5)])));
        assert!(fb.score(&tuple(&[(0, 0.9), (1, 0.5)])) > fb.score(&tuple(&[(0, 0.7), (1, 0.5)])));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `score_pair` is `score` of the joined tuple, bit for bit: up
        /// to six relations (ids with gaps) dealt to two disjoint sides,
        /// in both argument orders, under weights that cover some of the
        /// relations, none of them, or relations neither side has.
        #[test]
        fn score_pair_is_score_of_the_join(
            sides in prop::collection::vec(0u8..3, 6),
            raws in prop::collection::vec(0.0f64..1.0, 6),
            weights in prop::collection::vec((0u32..13, 0.05f64..4.0), 0..=6),
            static_factor in 0.01f64..2.0,
        ) {
            let mut sides = sides;
            // Both sides hold at least one relation.
            if !sides.contains(&1) {
                sides[0] = 1;
            }
            if !sides.contains(&2) {
                sides[5] = 2;
            }
            let side = |which: u8| {
                let parts: Vec<(u32, f64)> = (0..6)
                    .filter(|&i| sides[i] == which)
                    .map(|i| (2 * i as u32 + 1, raws[i]))
                    .collect();
                tuple(&parts)
            };
            let (a, b) = (side(1), side(2));
            let f = ScoreFn::banks(
                UserId::new(0),
                static_factor,
                weights.iter().map(|&(r, w)| (RelId::new(r), w)),
            );
            let joined = f.score(&a.join(&b)).get().to_bits();
            prop_assert_eq!(f.score_pair(&a, &b).get().to_bits(), joined);
            prop_assert_eq!(f.score_pair(&b, &a).get().to_bits(), joined);
        }
    }
}
