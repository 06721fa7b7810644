//! Base tuples and joined tuples.
//!
//! A [`BaseTuple`] is one row of one relation, carrying its raw score
//! component (Section 2.1: the "dynamic" part of a result's score comes from
//! attribute values of source tuples). A [`Tuple`] is a join result: an
//! ordered set of base tuples, at most one per relation.
//!
//! Design note: intermediate tuples carry *per-relation
//! score components* rather than a single combined score, because a shared
//! subexpression may feed conjunctive queries owned by different users with
//! different scoring functions. Each rank-merge operator applies its own
//! monotone score function over the components.

use crate::ids::RelId;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// One row of one relation.
///
/// Identity (`Eq`/`Hash`) is provenance-based: two base tuples are the same
/// row iff they share `(rel, row_id)`. Values and scores are derived from
/// that identity in the simulated sources, so this is both correct and much
/// cheaper than deep comparison.
#[derive(Clone, Debug)]
pub struct BaseTuple {
    /// The relation this row belongs to.
    pub rel: RelId,
    /// Row identifier, unique within the relation (used for deduplication and
    /// provenance in tests).
    pub row_id: u64,
    /// Attribute values, positionally matching the relation's column list.
    pub values: Box<[Value]>,
    /// Raw score component in `[0, 1]`. Relations without a score attribute
    /// contribute the neutral `1.0`.
    pub raw_score: f64,
}

impl PartialEq for BaseTuple {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.rel == other.rel && self.row_id == other.row_id
    }
}

impl Eq for BaseTuple {}

impl std::hash::Hash for BaseTuple {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.rel.hash(state);
        self.row_id.hash(state);
    }
}

impl BaseTuple {
    /// Construct a row.
    pub fn new(rel: RelId, row_id: u64, values: Vec<Value>, raw_score: f64) -> Self {
        BaseTuple {
            rel,
            row_id,
            values: values.into_boxed_slice(),
            raw_score,
        }
    }

    /// The value in column `col`.
    #[inline]
    pub fn value(&self, col: usize) -> &Value {
        &self.values[col]
    }
}

/// A (partial or complete) join result: one base tuple per participating
/// relation, kept sorted by `RelId`.
///
/// Invariant: `parts` is strictly sorted by relation id — conjunctive queries
/// in this system never repeat a relation (candidate networks are trees of
/// distinct schema-graph nodes). This makes the representation
/// canonical: two tuples are equal iff they joined the same rows.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    parts: Arc<[Arc<BaseTuple>]>,
}

impl Tuple {
    /// A tuple over a single base row.
    pub fn single(base: Arc<BaseTuple>) -> Tuple {
        Tuple {
            parts: Arc::from([base]),
        }
    }

    /// Build from parts; sorts and asserts distinct relations.
    pub fn from_parts(mut parts: Vec<Arc<BaseTuple>>) -> Tuple {
        parts.sort_by_key(|p| p.rel);
        debug_assert!(
            parts.windows(2).all(|w| w[0].rel < w[1].rel),
            "a tuple must not contain two rows of the same relation"
        );
        Tuple {
            parts: Arc::from(parts),
        }
    }

    /// Join this tuple with another (disjoint) tuple. The caller must have
    /// verified the join predicate; this only merges provenance.
    ///
    /// Both part lists are already sorted by relation, so this is one merge
    /// pass into one exactly-sized allocation (`Map<Range, _>` reports its
    /// exact length, which `Arc<[_]>`'s `FromIterator` allocates from).
    pub fn join(&self, other: &Tuple) -> Tuple {
        let (a, b) = (&*self.parts, &*other.parts);
        let (mut i, mut j) = (0, 0);
        let parts: Arc<[Arc<BaseTuple>]> = (0..a.len() + b.len())
            .map(|_| {
                if j == b.len() || (i < a.len() && a[i].rel < b[j].rel) {
                    i += 1;
                    Arc::clone(&a[i - 1])
                } else {
                    j += 1;
                    Arc::clone(&b[j - 1])
                }
            })
            .collect();
        debug_assert!(
            parts.windows(2).all(|w| w[0].rel < w[1].rel),
            "a tuple must not contain two rows of the same relation"
        );
        Tuple { parts }
    }

    /// [`Tuple::components`] of `self.join(other)` without building it:
    /// the same merge of the two sorted part lists, yielded instead of
    /// collected.
    #[inline]
    pub fn join_components<'a>(
        &'a self,
        other: &'a Tuple,
    ) -> impl Iterator<Item = (RelId, f64)> + 'a {
        let (a, b) = (&*self.parts, &*other.parts);
        let (mut i, mut j) = (0, 0);
        std::iter::from_fn(move || {
            if i == a.len() && j == b.len() {
                return None;
            }
            let part = if j == b.len() || (i < a.len() && a[i].rel < b[j].rel) {
                i += 1;
                &a[i - 1]
            } else {
                j += 1;
                &b[j - 1]
            };
            Some((part.rel, part.raw_score))
        })
    }

    /// Whether `a` and `b` are handles onto one allocation — the same
    /// routed tuple, not merely an equal one.
    #[inline]
    pub fn ptr_eq(a: &Tuple, b: &Tuple) -> bool {
        Arc::ptr_eq(&a.parts, &b.parts)
    }

    /// The participating base rows, sorted by relation.
    #[inline]
    pub fn parts(&self) -> &[Arc<BaseTuple>] {
        &self.parts
    }

    /// Number of relations joined into this tuple.
    #[inline]
    pub fn arity(&self) -> usize {
        self.parts.len()
    }

    /// The part belonging to relation `rel`, if present.
    pub fn part(&self, rel: RelId) -> Option<&Arc<BaseTuple>> {
        self.parts
            .binary_search_by_key(&rel, |p| p.rel)
            .ok()
            .map(|i| &self.parts[i])
    }

    /// The value of column `col` of relation `rel`, if that relation
    /// participates and the column exists.
    pub fn value_of(&self, rel: RelId, col: usize) -> Option<&Value> {
        self.part(rel).and_then(|p| p.values.get(col))
    }

    /// Per-relation raw score components `(rel, raw_score)`, sorted by
    /// relation.
    pub fn components(&self) -> impl Iterator<Item = (RelId, f64)> + '_ {
        self.parts.iter().map(|p| (p.rel, p.raw_score))
    }

    /// Product of all raw score components — the canonical monotone dynamic
    /// score used when a single aggregate is convenient (tests, debugging).
    pub fn raw_score_product(&self) -> f64 {
        self.parts.iter().map(|p| p.raw_score).product()
    }

    /// A stable provenance key `(rel, row_id)*` identifying the join result.
    pub fn provenance(&self) -> Vec<(RelId, u64)> {
        self.parts.iter().map(|p| (p.rel, p.row_id)).collect()
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tuple[")?;
        for (i, p) in self.parts.iter().enumerate() {
            if i > 0 {
                write!(f, " ⋈ ")?;
            }
            write!(f, "{}#{}", p.rel, p.row_id)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(rel: u32, id: u64, score: f64) -> Arc<BaseTuple> {
        Arc::new(BaseTuple::new(
            RelId::new(rel),
            id,
            vec![Value::Int(id as i64)],
            score,
        ))
    }

    #[test]
    fn single_and_join() {
        let a = Tuple::single(row(1, 10, 0.5));
        let b = Tuple::single(row(2, 20, 0.4));
        let ab = a.join(&b);
        assert_eq!(ab.arity(), 2);
        assert_eq!(ab.part(RelId::new(1)).unwrap().row_id, 10);
        assert_eq!(ab.part(RelId::new(2)).unwrap().row_id, 20);
        assert!(ab.part(RelId::new(3)).is_none());
    }

    #[test]
    fn parts_stay_sorted_regardless_of_join_order() {
        let a = Tuple::single(row(5, 1, 1.0));
        let b = Tuple::single(row(2, 2, 1.0));
        let c = Tuple::single(row(9, 3, 1.0));
        let j1 = a.join(&b).join(&c);
        let j2 = c.join(&b).join(&a);
        assert_eq!(j1, j2);
        let rels: Vec<_> = j1.parts().iter().map(|p| p.rel.0).collect();
        assert_eq!(rels, vec![2, 5, 9]);
    }

    /// The merge keeps the distinct-relations check the sort-based
    /// construction had (debug builds only, like the assertion itself).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "two rows of the same relation")]
    fn joining_tuples_that_share_a_relation_panics() {
        let ab = Tuple::single(row(1, 10, 1.0)).join(&Tuple::single(row(2, 20, 1.0)));
        let _ = ab.join(&Tuple::single(row(2, 21, 1.0)));
    }

    #[test]
    fn score_components_multiply() {
        let t = Tuple::single(row(1, 1, 0.5)).join(&Tuple::single(row(2, 2, 0.5)));
        assert!((t.raw_score_product() - 0.25).abs() < 1e-12);
        let comps: Vec<_> = t.components().collect();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].0, RelId::new(1));
    }

    #[test]
    fn provenance_identifies_result() {
        let t = Tuple::single(row(1, 7, 1.0)).join(&Tuple::single(row(3, 9, 1.0)));
        assert_eq!(t.provenance(), vec![(RelId::new(1), 7), (RelId::new(3), 9)]);
    }

    #[test]
    fn value_of_reaches_into_parts() {
        let t = Tuple::single(row(4, 42, 1.0));
        assert_eq!(t.value_of(RelId::new(4), 0), Some(&Value::Int(42)));
        assert_eq!(t.value_of(RelId::new(5), 0), None);
    }
}
