//! Selection and join predicates.
//!
//! Keyword content matches induce equality selections (e.g.,
//! `σ_{name='plasma membrane'}(Term)` in the paper's running example), and
//! a candidate network's atoms are connected by equi-joins along schema
//! edges. Both predicate types live in `qsys-types` because the source
//! simulator (which evaluates them at the "remote DBMS"), the query layer
//! (which embeds them in subexpression signatures), the optimizer and the
//! m-join all need them without depending on each other.

use crate::ids::RelId;
use crate::value::Value;
use std::fmt;

/// An equality selection on one column.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Selection {
    /// Column index the predicate applies to.
    pub column: usize,
    /// Value the column must equal.
    pub value: Value,
}

impl Selection {
    /// Build a selection.
    pub fn eq(column: usize, value: Value) -> Selection {
        Selection { column, value }
    }

    /// Evaluate against a row's values.
    #[inline]
    pub fn matches(&self, values: &[Value]) -> bool {
        values
            .get(self.column)
            .is_some_and(|v| v.joins_with(&self.value))
    }
}

impl fmt::Display for Selection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "σ[c{} = {}]", self.column, self.value)
    }
}

/// One equi-join condition `left.left_col = right.right_col` between two
/// relations: a candidate-network edge, a signature's join, a plan join
/// predicate and a pushed-down join alike.
///
/// The derived order is lexicographic over the fields as declared; the
/// optimizer's canonical sorts of signatures depend on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JoinCond {
    /// Left relation.
    pub left: RelId,
    /// Join column on the left relation.
    pub left_col: usize,
    /// Right relation.
    pub right: RelId,
    /// Join column on the right relation.
    pub right_col: usize,
}

impl JoinCond {
    /// The same condition oriented `left ≤ right`: the canonical form
    /// signatures store. This is the only code that orients a condition.
    pub fn normalized(self) -> JoinCond {
        if self.left <= self.right {
            self
        } else {
            JoinCond {
                left: self.right,
                left_col: self.right_col,
                right: self.left,
                right_col: self.left_col,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(l: u32, lc: usize, r: u32, rc: usize) -> JoinCond {
        JoinCond {
            left: RelId::new(l),
            left_col: lc,
            right: RelId::new(r),
            right_col: rc,
        }
    }

    #[test]
    fn normalized_orients_left_low_and_is_idempotent() {
        let j = cond(9, 1, 2, 0);
        assert_eq!(j.normalized(), cond(2, 0, 9, 1));
        assert_eq!(j.normalized().normalized(), j.normalized());
        // A pair and its flip share one canonical form; an oriented
        // condition is its own.
        assert_eq!(cond(2, 0, 9, 1).normalized(), j.normalized());
        assert_eq!(cond(2, 0, 9, 1).normalized(), cond(2, 0, 9, 1));
        // A self-join keeps its column order.
        assert_eq!(cond(4, 1, 4, 0).normalized(), cond(4, 1, 4, 0));
    }

    #[test]
    fn order_is_lexicographic_over_the_fields() {
        let mut conds = vec![
            cond(2, 0, 3, 0),
            cond(1, 1, 2, 0),
            cond(1, 0, 5, 0),
            cond(1, 0, 2, 1),
            cond(1, 0, 2, 0),
        ];
        conds.sort();
        assert_eq!(
            conds,
            [
                cond(1, 0, 2, 0),
                cond(1, 0, 2, 1),
                cond(1, 0, 5, 0),
                cond(1, 1, 2, 0),
                cond(2, 0, 3, 0),
            ]
        );
        let as_tuple = |j: &JoinCond| (j.left, j.left_col, j.right, j.right_col);
        for w in conds.windows(2) {
            assert_eq!(w[0].cmp(&w[1]), as_tuple(&w[0]).cmp(&as_tuple(&w[1])));
        }
    }

    #[test]
    fn matches_equality() {
        let s = Selection::eq(1, Value::str("metabolism"));
        assert!(s.matches(&[Value::Int(3), Value::str("metabolism")]));
        assert!(!s.matches(&[Value::Int(3), Value::str("transport")]));
    }

    #[test]
    fn out_of_range_column_never_matches() {
        let s = Selection::eq(5, Value::Int(1));
        assert!(!s.matches(&[Value::Int(1)]));
    }

    #[test]
    fn null_never_matches() {
        let s = Selection::eq(0, Value::Null);
        assert!(!s.matches(&[Value::Null]));
    }
}
