//! Cost estimation for top-k plans.
//!
//! Costs follow the paper's model: "the costing of plans is based on the
//! number of tuples to be read from the source" (Section 6.1), adjusted for
//! (a) top-k depth — ranking queries read only prefixes of their inputs
//! (the depth-estimation idea of Ilyas et al. [16], which Section 8 says
//! the paper leverages) — and (b) reuse — tuples already resident in the
//! plan graph's hash tables are free (Section 6.1, "updated cost
//! estimates").

use qsys_catalog::Catalog;
use qsys_query::{SigId, SubExprSig};
use qsys_types::clock::{MEAN_NETWORK_DELAY_US, PROBE_US, STREAM_TUPLE_US};
use qsys_types::{RelId, Selection};

/// Answers "how much of this subexpression has already been read?" —
/// implemented by the QS manager over the live plan graph. The optimizer
/// subtracts already-streamed tuples from a candidate input's cost and asks
/// for the input to be pinned.
pub trait ReuseOracle {
    /// Number of tuples already streamed into in-memory state for `sig`,
    /// or `None` when the subexpression is not resident. Keyed on interned
    /// [`SigId`]s (the lane's shared interner), so each probe is one
    /// integer-keyed map lookup.
    fn streamed(&self, sig: SigId) -> Option<u64>;

    /// Ask the state manager to protect `sig` from eviction while planning
    /// and execution proceed (Section 6.1: "prevents J from being evicted,
    /// by requesting that the QS Manager 'pin' J down").
    fn pin(&self, _sig: SigId) {}
}

/// The trivial oracle: nothing is resident.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoReuse;

impl ReuseOracle for NoReuse {
    fn streamed(&self, _sig: SigId) -> Option<u64> {
        None
    }
}

/// Cardinality and cost estimation against catalog statistics.
pub(crate) struct CostModel<'a> {
    catalog: &'a Catalog,
    /// Results requested per user query.
    k: usize,
}

impl<'a> CostModel<'a> {
    /// Build a model.
    pub(crate) fn new(catalog: &'a Catalog, k: usize) -> CostModel<'a> {
        CostModel { catalog, k }
    }

    /// The catalog in use.
    pub(crate) fn catalog(&self) -> &Catalog {
        self.catalog
    }

    /// Selectivity of an equality selection: `1 / distinct(column)`.
    pub(crate) fn selection_selectivity(&self, rel: RelId, sel: &Selection) -> f64 {
        let distinct = self.catalog.relation(rel).stats.distinct(sel.column);
        1.0 / distinct as f64
    }

    /// Estimated result cardinality of a subexpression: base cardinalities,
    /// scaled by selection selectivities and standard equi-join selectivity
    /// `1 / max(d_left, d_right)`.
    pub(crate) fn cardinality(&self, sig: &SubExprSig) -> f64 {
        let mut card = 1.0f64;
        for (rel, sel) in &sig.atoms {
            let stats = &self.catalog.relation(*rel).stats;
            let mut c = stats.cardinality as f64;
            if let Some(s) = sel {
                c *= self.selection_selectivity(*rel, s);
            }
            card *= c.max(1e-9);
        }
        for j in &sig.joins {
            let dl = self.catalog.relation(j.left).stats.distinct(j.left_col) as f64;
            let dr = self.catalog.relation(j.right).stats.distinct(j.right_col) as f64;
            card /= dl.max(dr).max(1.0);
        }
        card.max(0.0)
    }

    /// Fraction of each of `m` streaming inputs a top-k execution is
    /// expected to read, for a CQ estimated to produce `result_card`
    /// results: under independence, reading fraction `f` of every input
    /// yields `f^m · result_card` results, so `f = (k / N)^(1/m)`.
    pub(crate) fn depth_fraction(&self, result_card: f64, m_streams: usize) -> f64 {
        if result_card <= 0.0 {
            return 1.0; // must exhaust to prove emptiness
        }
        let ratio = self.k as f64 / result_card;
        if ratio >= 1.0 {
            return 1.0;
        }
        ratio.powf(1.0 / m_streams.max(1) as f64)
    }

    /// Expected tuples streamed from an input of cardinality `card` on
    /// behalf of a CQ that reads fraction `depth` of each of its streaming
    /// inputs ([`depth_fraction`](Self::depth_fraction) of its estimated
    /// results and stream count), minus `already`-resident tuples (reuse).
    /// The caller supplies `card` and `depth` so memoized per-signature
    /// cardinalities and per-query depths are reused across the search.
    pub(crate) fn expected_reads(&self, card: f64, depth: f64, already: u64) -> f64 {
        let need = card * depth;
        (need - already as f64).max(0.0)
    }

    /// Per-tuple streaming cost in µs (base + mean network delay): what
    /// `Sources::try_read` charges a read on average.
    pub(crate) fn stream_unit_us(&self) -> f64 {
        (STREAM_TUPLE_US + MEAN_NETWORK_DELAY_US) as f64
    }

    /// Per-probe cost in µs (base + mean network delay): what
    /// `Sources::try_probe` charges a probe on average.
    pub(crate) fn probe_unit_us(&self) -> f64 {
        (PROBE_US + MEAN_NETWORK_DELAY_US) as f64
    }

    /// Penalty for asking the remote source to compute a pushed-down join
    /// of `atoms` relations with result cardinality `card`: cheap relative
    /// to streaming, but biases against exploding joins.
    pub(crate) fn pushdown_penalty_us(&self, atoms: usize, card: f64) -> f64 {
        if atoms <= 1 {
            return 0.0;
        }
        card * 0.5
    }

    /// Requested k.
    pub(crate) fn k(&self) -> usize {
        self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsys_catalog::{CatalogBuilder, ColumnStats, EdgeKind, RelationStats};
    use qsys_types::{JoinCond, SourceId, Value};

    fn catalog() -> Catalog {
        let mut b = CatalogBuilder::default();
        let mut stats_a = RelationStats::with_cardinality(1000);
        stats_a.columns = vec![ColumnStats { distinct: 100 }];
        let a = b.relation(
            "A",
            SourceId::new(0),
            vec!["k".into()],
            Some(0),
            1.0,
            stats_a,
        );
        let mut stats_b = RelationStats::with_cardinality(500);
        stats_b.columns = vec![ColumnStats { distinct: 50 }];
        let bb = b.relation("B", SourceId::new(0), vec!["k".into()], None, 1.0, stats_b);
        b.edge(a, 0, bb, 0, EdgeKind::ForeignKey, 1.0, 2.0);
        b.build()
    }

    #[test]
    fn base_cardinality_with_selection() {
        let c = catalog();
        let model = CostModel::new(&c, 50);
        let rel = c.relation_by_name("A").unwrap().id;
        let plain = SubExprSig::relation(rel, None);
        assert!((model.cardinality(&plain) - 1000.0).abs() < 1e-9);
        let selected = SubExprSig::relation(rel, Some(Selection::eq(0, Value::Int(1))));
        assert!((model.cardinality(&selected) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn join_cardinality_uses_distinct_counts() {
        let c = catalog();
        let model = CostModel::new(&c, 50);
        let a = c.relation_by_name("A").unwrap().id;
        let bb = c.relation_by_name("B").unwrap().id;
        let sig = SubExprSig {
            atoms: vec![(a, None), (bb, None)],
            joins: vec![JoinCond {
                left: a,
                left_col: 0,
                right: bb,
                right_col: 0,
            }],
        };
        // 1000 * 500 / max(100, 50) = 5000.
        assert!((model.cardinality(&sig) - 5000.0).abs() < 1e-6);
    }

    #[test]
    fn depth_fraction_shrinks_with_abundance() {
        let c = catalog();
        let model = CostModel::new(&c, 50);
        assert_eq!(model.depth_fraction(10.0, 2), 1.0); // fewer results than k
        let f = model.depth_fraction(5000.0, 2);
        assert!((f - (50.0f64 / 5000.0).sqrt()).abs() < 1e-12);
        assert!(model.depth_fraction(5000.0, 1) < f);
    }

    #[test]
    fn reuse_discounts_reads() {
        let c = catalog();
        let model = CostModel::new(&c, 50);
        let rel = c.relation_by_name("A").unwrap().id;
        let sig = SubExprSig::relation(rel, None);
        let card = model.cardinality(&sig);
        let depth = model.depth_fraction(100_000.0, 1);
        let fresh = model.expected_reads(card, depth, 0);
        let reused = model.expected_reads(card, depth, 400);
        assert!(reused < fresh);
        assert!((fresh - reused - 400.0).abs() < 1e-6 || reused == 0.0);
    }

    #[test]
    fn pushdown_penalty_only_for_joins() {
        let c = catalog();
        let model = CostModel::new(&c, 50);
        let a = c.relation_by_name("A").unwrap().id;
        let bb = c.relation_by_name("B").unwrap().id;
        let single = model.cardinality(&SubExprSig::relation(a, None));
        assert_eq!(model.pushdown_penalty_us(1, single), 0.0);
        let sig = SubExprSig {
            atoms: vec![(a, None), (bb, None)],
            joins: vec![JoinCond {
                left: a,
                left_col: 0,
                right: bb,
                right_col: 0,
            }],
        };
        assert!(model.pushdown_penalty_us(2, model.cardinality(&sig)) > 0.0);
    }
}
