//! Subexpression algebra with canonical signatures.
//!
//! Sharing decisions everywhere in the system — the candidate pool, BestPlan's
//! memo, plan-graph factorization, grafting, and the QS manager's reuse
//! index — reduce to asking "are these two subexpressions *the same*?".
//! Because conjunctive queries are trees over the schema graph with distinct
//! relations per query, a subexpression is canonically identified by its
//! sorted `(relation, selection)` atoms plus its sorted join conditions,
//! each a [`JoinCond`] oriented by [`JoinCond::normalized`]: signature
//! equality is exactly logical equivalence. The same conditions, unchanged,
//! are what a pushed-down subexpression is evaluated with at the source.

use crate::cq::ConjunctiveQuery;
use qsys_types::{JoinCond, RelId, Selection};
use std::fmt;

/// Canonical signature of a select-project-join subexpression.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubExprSig {
    /// Sorted `(relation, selection)` atoms.
    pub atoms: Vec<(RelId, Option<Selection>)>,
    /// Normalized (`left ≤ right`), sorted, deduplicated join conditions.
    pub joins: Vec<JoinCond>,
}

impl SubExprSig {
    /// Signature of a single (optionally filtered) relation.
    pub fn relation(rel: RelId, selection: Option<Selection>) -> SubExprSig {
        SubExprSig {
            atoms: vec![(rel, selection)],
            joins: Vec::new(),
        }
    }

    /// Build from atoms and joins in any order and orientation,
    /// normalizing.
    pub fn new(mut atoms: Vec<(RelId, Option<Selection>)>, mut joins: Vec<JoinCond>) -> SubExprSig {
        atoms.sort();
        for j in &mut joins {
            *j = j.normalized();
        }
        joins.sort();
        joins.dedup();
        SubExprSig { atoms, joins }
    }

    /// The whole-query signature of a CQ.
    pub fn of_cq(cq: &ConjunctiveQuery) -> SubExprSig {
        SubExprSig::new(
            cq.atoms
                .iter()
                .map(|a| (a.rel, a.selection.clone()))
                .collect(),
            cq.joins.iter().map(|j| j.on).collect(),
        )
    }

    /// Relations covered, sorted.
    pub fn rels(&self) -> Vec<RelId> {
        self.atoms.iter().map(|(r, _)| *r).collect()
    }

    /// Number of atoms.
    pub fn size(&self) -> usize {
        self.atoms.len()
    }

    /// Whether `self` is a subexpression of `cq`: every atom appears in `cq`
    /// with the identical selection, and every join of `self` is a join of
    /// `cq` (Section 5.1's notion, used by the "do not consider overlapping
    /// pushed-down subexpressions" heuristic).
    pub(crate) fn is_subexpr_of(&self, cq: &ConjunctiveQuery) -> bool {
        let cq_sig = SubExprSig::of_cq(cq);
        self.is_contained_in(&cq_sig)
    }

    /// Structural containment in another signature.
    pub(crate) fn is_contained_in(&self, other: &SubExprSig) -> bool {
        self.atoms.iter().all(|a| other.atoms.contains(a))
            && self.joins.iter().all(|j| other.joins.contains(j))
    }

    /// Whether `self` shares at least one relation with `cq` without being
    /// a subexpression of it ("overlaps", Section 5.1.1, last heuristic).
    pub fn overlaps(&self, cq: &ConjunctiveQuery) -> bool {
        !self.is_subexpr_of(cq) && self.rels().iter().any(|r| cq.atom(*r).is_some())
    }

    /// Whether this subexpression shares any relation with another.
    pub fn shares_relation_with(&self, other: &SubExprSig) -> bool {
        self.atoms
            .iter()
            .any(|(r, _)| other.atoms.iter().any(|(r2, _)| r == r2))
    }
}

impl fmt::Debug for SubExprSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, (rel, sel)) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, "⋈")?;
            }
            match sel {
                Some(s) => write!(f, "σ({rel}={})", s.value)?,
                None => write!(f, "{rel}")?,
            }
        }
        write!(f, "⟩")
    }
}

/// Enumerate all connected subexpressions of `cq` with at least `min_size`
/// and at most `max_size` atoms.
///
/// CQs are trees of ≤ ~8 atoms, so the connected-subtree count is small
/// (bounded by 2^n); plain recursive expansion is fine.
pub fn enumerate_subexprs(
    cq: &ConjunctiveQuery,
    min_size: usize,
    max_size: usize,
) -> Vec<SubExprSig> {
    let n = cq.atoms.len();
    let mut found: Vec<Vec<usize>> = Vec::new();
    // Grow connected sets from each seed atom; restrict growth to atoms with
    // an index ≥ seed to avoid duplicates (standard connected-subgraph
    // enumeration on a tree).
    for seed in 0..n {
        grow(cq, vec![seed], seed, max_size, &mut found);
    }
    found
        .into_iter()
        .filter(|set| set.len() >= min_size)
        .map(|set| signature_of_subset(cq, &set))
        .collect()
}

fn grow(
    cq: &ConjunctiveQuery,
    current: Vec<usize>,
    seed: usize,
    max_size: usize,
    out: &mut Vec<Vec<usize>>,
) {
    out.push(current.clone());
    if current.len() >= max_size {
        return;
    }
    // Candidate extensions: atoms adjacent to the current set, index > seed,
    // greater than the largest "choice" we could have made instead —
    // enforced by only adding atoms with index greater than the last added
    // when they were already adjacent (simple dedup: require strictly
    // increasing insertion order among equals is complex; instead dedup at
    // the end).
    let rels: Vec<RelId> = current.iter().map(|&i| cq.atoms[i].rel).collect();
    for (idx, atom) in cq.atoms.iter().enumerate() {
        if idx <= seed || current.contains(&idx) {
            continue;
        }
        // Must connect via some join to the current set.
        let connected = cq.joins.iter().any(|j| {
            (j.on.left == atom.rel && rels.contains(&j.on.right))
                || (j.on.right == atom.rel && rels.contains(&j.on.left))
        });
        if !connected {
            continue;
        }
        // Dedup: only extend with indices greater than the maximum index in
        // `current` OR indices that only just became connected. To keep it
        // simple and correct, require idx > last element; missed orderings
        // are covered by other growth paths, and final dedup removes any
        // repeats.
        let mut next = current.clone();
        next.push(idx);
        next.sort_unstable();
        if out.contains(&next) {
            continue;
        }
        grow(cq, next, seed, max_size, out);
    }
}

fn signature_of_subset(cq: &ConjunctiveQuery, atom_indices: &[usize]) -> SubExprSig {
    let rels: Vec<RelId> = atom_indices.iter().map(|&i| cq.atoms[i].rel).collect();
    let atoms = atom_indices
        .iter()
        .map(|&i| (cq.atoms[i].rel, cq.atoms[i].selection.clone()))
        .collect();
    let joins = cq
        .joins
        .iter()
        .filter(|j| rels.contains(&j.on.left) && rels.contains(&j.on.right))
        .map(|j| j.on)
        .collect();
    SubExprSig::new(atoms, joins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::{CqAtom, CqJoin};
    use qsys_catalog::EdgeId;
    use qsys_types::{CqId, UqId, UserId, Value};

    /// A path-shaped CQ: R0 - R1 - R2 - R3.
    fn path_cq(n: u32) -> ConjunctiveQuery {
        let atoms = (0..n)
            .map(|i| CqAtom {
                rel: RelId::new(i),
                selection: if i == 0 {
                    Some(Selection::eq(0, Value::str("kw")))
                } else {
                    None
                },
            })
            .collect();
        let joins = (0..n - 1)
            .map(|i| CqJoin {
                edge: EdgeId(i),
                on: JoinCond {
                    left: RelId::new(i),
                    left_col: 1,
                    right: RelId::new(i + 1),
                    right_col: 0,
                },
            })
            .collect();
        ConjunctiveQuery::new(CqId::new(0), UqId::new(0), UserId::new(0), atoms, joins)
    }

    #[test]
    fn enumerates_connected_subtrees_of_a_path() {
        let cq = path_cq(4);
        let subs = enumerate_subexprs(&cq, 1, 4);
        // A path of 4 nodes has 4 + 3 + 2 + 1 = 10 connected subpaths.
        assert_eq!(subs.len(), 10);
        // All unique.
        let mut dedup = subs.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
    }

    #[test]
    fn min_size_filters() {
        let cq = path_cq(4);
        let subs = enumerate_subexprs(&cq, 2, 4);
        assert_eq!(subs.len(), 6);
        assert!(subs.iter().all(|s| s.size() >= 2));
    }

    #[test]
    fn signature_equality_is_canonical() {
        let cq = path_cq(3);
        let s1 = SubExprSig::of_cq(&cq);
        let s2 = SubExprSig::new(
            cq.atoms
                .iter()
                .rev()
                .map(|a| (a.rel, a.selection.clone()))
                .collect(),
            cq.joins.iter().rev().map(|j| j.on).collect(),
        );
        assert_eq!(s1, s2);
    }

    #[test]
    fn subexpr_containment() {
        let cq = path_cq(4);
        let subs = enumerate_subexprs(&cq, 1, 3);
        for s in &subs {
            assert!(s.is_subexpr_of(&cq), "{s:?} should be a subexpr");
        }
        // A different selection breaks containment.
        let foreign =
            SubExprSig::relation(RelId::new(0), Some(Selection::eq(0, Value::str("other"))));
        assert!(!foreign.is_subexpr_of(&cq));
        assert!(foreign.overlaps(&cq)); // same relation, different selection
    }

    #[test]
    fn overlap_detection() {
        let cq = path_cq(3);
        let disjoint = SubExprSig::relation(RelId::new(9), None);
        assert!(!disjoint.overlaps(&cq));
        assert!(!disjoint.is_subexpr_of(&cq));
        let inside = SubExprSig::relation(RelId::new(1), None);
        assert!(inside.is_subexpr_of(&cq));
        assert!(!inside.overlaps(&cq));
    }

    #[test]
    fn shares_relation() {
        let a = SubExprSig::relation(RelId::new(1), None);
        let b = SubExprSig::relation(RelId::new(1), Some(Selection::eq(0, Value::Int(3))));
        let c = SubExprSig::relation(RelId::new(2), None);
        assert!(a.shares_relation_with(&b));
        assert!(!a.shares_relation_with(&c));
    }
}
