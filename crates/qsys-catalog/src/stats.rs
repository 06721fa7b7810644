//! Relation and column statistics for cost estimation.
//!
//! The optimizer (Section 5) costs plans by the number of tuples that must be
//! streamed in or probed. It needs per-relation cardinalities, per-column
//! distinct counts (for join selectivity), and score-distribution summaries
//! (for estimating how deep a top-k execution must read into each stream).
//! The QS manager keeps these updated as execution progresses ("maintains
//! cardinality information about intermediate results", Section 3).

/// Statistics for one column.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ColumnStats {
    /// Estimated number of distinct values.
    pub distinct: u64,
}

impl Default for ColumnStats {
    fn default() -> Self {
        ColumnStats { distinct: 1 }
    }
}

/// Statistics for one relation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RelationStats {
    /// Number of tuples.
    pub cardinality: u64,
    /// Per-column statistics (indexed like the relation's columns). May be
    /// shorter than the column list; missing entries default.
    pub columns: Vec<ColumnStats>,
    /// Maximum raw score of any tuple (1.0 when the relation has no score
    /// attribute). Used for score upper bounds `U`.
    pub max_score: f64,
    /// Skew parameter of the score distribution: the estimated fraction of
    /// the relation that must be read for the stream bound to halve.
    /// Used by the top-k depth estimator (after Ilyas et al. [16], whose
    /// cost-estimation approach Section 8 says the paper leverages).
    pub score_decay: f64,
}

impl RelationStats {
    /// Convenience constructor with sensible defaults: uniform scores in
    /// `[0, 1]`, mild skew.
    pub fn with_cardinality(cardinality: u64) -> RelationStats {
        RelationStats {
            cardinality,
            columns: Vec::new(),
            max_score: 1.0,
            score_decay: 0.25,
        }
    }

    /// Distinct count of a column (defaults to the cardinality for key-like
    /// behaviour when not recorded).
    pub fn distinct(&self, col: usize) -> u64 {
        self.columns
            .get(col)
            .map(|c| c.distinct)
            .unwrap_or(self.cardinality)
            .max(1)
    }

    /// Estimated number of tuples that must be read from this relation's
    /// stream before the per-tuple score bound drops to `target` (a fraction
    /// of `max_score`).
    ///
    /// Models the score curve as exponential decay: after reading a fraction
    /// `f` of the stream the bound is `max_score * 2^(-f / score_decay)`.
    #[cfg(test)]
    pub(crate) fn depth_for_bound(&self, target: f64) -> u64 {
        if self.cardinality == 0 {
            return 0;
        }
        if target >= self.max_score {
            return 0;
        }
        if target <= 0.0 {
            return self.cardinality;
        }
        let ratio = target / self.max_score;
        let f = -ratio.log2() * self.score_decay;
        ((f * self.cardinality as f64).ceil() as u64).min(self.cardinality)
    }

    /// Expected stream bound after reading `read` tuples (inverse of
    /// [`Self::depth_for_bound`]).
    #[cfg(test)]
    pub(crate) fn bound_after(&self, read: u64) -> f64 {
        if self.cardinality == 0 || read >= self.cardinality {
            return 0.0;
        }
        let f = read as f64 / self.cardinality as f64;
        self.max_score * (-f / self.score_decay.max(1e-9)).exp2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_zero_when_target_at_max() {
        let s = RelationStats::with_cardinality(1000);
        assert_eq!(s.depth_for_bound(1.0), 0);
        assert_eq!(s.depth_for_bound(2.0), 0);
    }

    #[test]
    fn depth_full_when_target_zero() {
        let s = RelationStats::with_cardinality(1000);
        assert_eq!(s.depth_for_bound(0.0), 1000);
    }

    #[test]
    fn depth_monotone_in_target() {
        let s = RelationStats::with_cardinality(10_000);
        let d_high = s.depth_for_bound(0.9);
        let d_mid = s.depth_for_bound(0.5);
        let d_low = s.depth_for_bound(0.1);
        assert!(d_high < d_mid);
        assert!(d_mid < d_low);
    }

    #[test]
    fn bound_after_is_inverse_ish() {
        let s = RelationStats::with_cardinality(10_000);
        let depth = s.depth_for_bound(0.5);
        let bound = s.bound_after(depth);
        assert!((bound - 0.5).abs() < 0.01, "bound was {bound}");
    }

    #[test]
    fn distinct_defaults_to_cardinality() {
        let mut s = RelationStats::with_cardinality(500);
        assert_eq!(s.distinct(3), 500);
        s.columns = vec![ColumnStats { distinct: 10 }];
        assert_eq!(s.distinct(0), 10);
        assert_eq!(s.distinct(1), 500);
    }

    #[test]
    fn empty_relation_edge_cases() {
        let s = RelationStats::with_cardinality(0);
        assert_eq!(s.depth_for_bound(0.5), 0);
        assert_eq!(s.bound_after(0), 0.0);
    }
}
