//! Conjunctive queries and user queries.
//!
//! A conjunctive query (Tables 1–3 of the paper) is a tree of relation
//! atoms connected by equi-joins along schema-graph edges, with equality
//! selections induced by keyword content matches. A user query is the union
//! of the conjunctive queries answering one keyword search.

use crate::intern::{HashedSig, SharedSig};
use crate::score::ScoreFn;
use crate::subexpr::SubExprSig;
use qsys_catalog::{Catalog, EdgeId};
use qsys_types::{CqId, JoinCond, RelId, Selection, UqId, UserId};
use std::fmt;
use std::sync::Arc;

/// One relation occurrence in a conjunctive query.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CqAtom {
    /// The relation.
    pub rel: RelId,
    /// Selection induced by a keyword content match, if any.
    pub selection: Option<Selection>,
}

/// One equi-join between two atoms, along a schema edge.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CqJoin {
    /// The schema edge this join follows.
    pub edge: EdgeId,
    /// The join condition as this query states it (candidate generation
    /// writes the edge's `from` side left); signatures normalize it.
    pub on: JoinCond,
}

/// A conjunctive query: a connected tree of atoms over the schema graph.
///
/// Invariant: atoms reference distinct relations (candidate networks are
/// trees of distinct schema nodes), are sorted by relation
/// id, and `joins` form a spanning tree over them.
///
/// Everything but the ids is one shared [`CqBody`]: candidate generation
/// builds a network's body once, and every conjunctive query ranked from
/// the network holds it by reference, whole-query signature included.
#[derive(Clone)]
pub struct ConjunctiveQuery {
    /// Globally unique id.
    pub id: CqId,
    /// The user query this CQ belongs to.
    pub uq: UqId,
    /// The user who posed the keyword query.
    pub user: UserId,
    body: Arc<CqBody>,
}

/// A conjunctive query's atoms, joins and whole-query signature, checked
/// once when built ([`ConjunctiveQuery`]'s invariant).
#[derive(Debug)]
pub(crate) struct CqBody {
    atoms: Vec<CqAtom>,
    joins: Vec<CqJoin>,
    whole: SharedSig,
}

impl CqBody {
    /// Normalize atom order, validate the tree invariant and build the
    /// whole-query signature.
    pub(crate) fn new(mut atoms: Vec<CqAtom>, joins: Vec<CqJoin>) -> CqBody {
        atoms.sort_by_key(|a| a.rel);
        assert!(
            atoms.windows(2).all(|w| w[0].rel < w[1].rel),
            "conjunctive queries must not repeat a relation"
        );
        assert_eq!(
            joins.len() + 1,
            atoms.len().max(1),
            "joins must form a spanning tree over the atoms"
        );
        debug_assert!(
            is_connected(&atoms, &joins),
            "atoms must form a connected tree"
        );
        let whole = Arc::new(HashedSig::new(SubExprSig::of_parts(&atoms, &joins)));
        CqBody {
            atoms,
            joins,
            whole,
        }
    }

    /// The atoms, sorted by relation id.
    pub(crate) fn atoms(&self) -> &[CqAtom] {
        &self.atoms
    }

    /// The joins.
    pub(crate) fn joins(&self) -> &[CqJoin] {
        &self.joins
    }

    /// The canonical whole-query signature.
    pub(crate) fn whole_sig(&self) -> &SharedSig {
        &self.whole
    }
}

impl ConjunctiveQuery {
    /// Construct, normalizing atom order and validating the tree invariant.
    pub fn new(
        id: CqId,
        uq: UqId,
        user: UserId,
        atoms: Vec<CqAtom>,
        joins: Vec<CqJoin>,
    ) -> ConjunctiveQuery {
        ConjunctiveQuery::of_body(id, uq, user, Arc::new(CqBody::new(atoms, joins)))
    }

    /// A query over an already-checked body, shared with its other holders.
    pub(crate) fn of_body(id: CqId, uq: UqId, user: UserId, body: Arc<CqBody>) -> ConjunctiveQuery {
        ConjunctiveQuery { id, uq, user, body }
    }

    /// Number of atoms (the "size" of the query in the DISCOVER scoring
    /// model).
    pub fn size(&self) -> usize {
        self.atoms().len()
    }

    /// Relation atoms, sorted by relation id.
    pub fn atoms(&self) -> &[CqAtom] {
        self.body.atoms()
    }

    /// Join conditions (a spanning tree over the atoms).
    pub fn joins(&self) -> &[CqJoin] {
        self.body.joins()
    }

    /// The canonical whole-query signature, built once per body and
    /// shared by every conjunctive query ranked from the same candidate
    /// network: [`SigInterner::of_cq`](crate::SigInterner::of_cq) and
    /// [`SigInterner::find_cq`](crate::SigInterner::find_cq) read it by its
    /// cached hash and its address instead of building one.
    pub fn whole_sig(&self) -> &SharedSig {
        self.body.whole_sig()
    }

    /// Relations referenced, sorted.
    pub fn rels(&self) -> Vec<RelId> {
        self.atoms().iter().map(|a| a.rel).collect()
    }

    /// The atom for `rel`, if present.
    pub fn atom(&self, rel: RelId) -> Option<&CqAtom> {
        let atoms = self.atoms();
        atoms
            .binary_search_by_key(&rel, |a| a.rel)
            .ok()
            .map(|i| &atoms[i])
    }

    /// Whether the join graph connects all atoms.
    #[cfg(test)]
    pub(crate) fn is_connected(&self) -> bool {
        is_connected(self.atoms(), self.joins())
    }

    /// Pretty-print against a catalog (for logs and examples).
    pub fn display<'a>(&'a self, catalog: &'a Catalog) -> CqDisplay<'a> {
        CqDisplay { cq: self, catalog }
    }
}

/// Whether `joins` connect all of `atoms`.
fn is_connected(atoms: &[CqAtom], joins: &[CqJoin]) -> bool {
    let Some(first) = atoms.first() else {
        return true;
    };
    let mut seen = vec![first.rel];
    let mut frontier = vec![first.rel];
    while let Some(r) = frontier.pop() {
        for j in joins {
            let next = if j.on.left == r {
                Some(j.on.right)
            } else if j.on.right == r {
                Some(j.on.left)
            } else {
                None
            };
            if let Some(n) = next {
                if !seen.contains(&n) {
                    seen.push(n);
                    frontier.push(n);
                }
            }
        }
    }
    seen.len() == atoms.len()
}

impl fmt::Debug for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConjunctiveQuery")
            .field("id", &self.id)
            .field("uq", &self.uq)
            .field("user", &self.user)
            .field("atoms", &self.atoms())
            .field("joins", &self.joins())
            .finish()
    }
}

/// Display helper borrowing a catalog for relation names.
pub struct CqDisplay<'a> {
    cq: &'a ConjunctiveQuery,
    catalog: &'a Catalog,
}

impl fmt::Display for CqDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.cq.id)?;
        for (i, a) in self.cq.atoms().iter().enumerate() {
            if i > 0 {
                write!(f, " ⋈ ")?;
            }
            let name = &self.catalog.relation(a.rel).name;
            match &a.selection {
                Some(sel) => write!(f, "σ[{}]({})", sel.value, name)?,
                None => write!(f, "{name}")?,
            }
        }
        write!(f, ")")
    }
}

/// A user query: the union of conjunctive queries answering one keyword
/// query, each paired with its (possibly user-specific) score function, in
/// nonincreasing order of score upper bound `U(C_i)` (Section 3).
#[derive(Clone, Debug)]
pub struct UserQuery {
    /// Identifier.
    pub id: UqId,
    /// The posing user.
    pub user: UserId,
    /// The original keyword query text.
    pub keywords: String,
    /// Conjunctive queries with score functions, sorted by `U` descending.
    pub cqs: Vec<(ConjunctiveQuery, ScoreFn)>,
}

impl UserQuery {
    /// Relations referenced by any member CQ, sorted and deduplicated.
    pub fn rels(&self) -> Vec<RelId> {
        let mut rels: Vec<RelId> = self.cqs.iter().flat_map(|(cq, _)| cq.rels()).collect();
        rels.sort();
        rels.dedup();
        rels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsys_types::Value;

    fn join(edge: u32, l: u32, lc: usize, r: u32, rc: usize) -> CqJoin {
        CqJoin {
            edge: EdgeId(edge),
            on: JoinCond {
                left: RelId::new(l),
                left_col: lc,
                right: RelId::new(r),
                right_col: rc,
            },
        }
    }

    fn atom(rel: u32) -> CqAtom {
        CqAtom {
            rel: RelId::new(rel),
            selection: None,
        }
    }

    #[test]
    fn construction_sorts_atoms() {
        let cq = ConjunctiveQuery::new(
            CqId::new(0),
            UqId::new(0),
            UserId::new(0),
            vec![atom(5), atom(2), atom(9)],
            vec![join(0, 2, 0, 5, 0), join(1, 5, 1, 9, 0)],
        );
        assert_eq!(cq.rels(), vec![RelId::new(2), RelId::new(5), RelId::new(9)]);
        assert_eq!(cq.size(), 3);
        assert!(cq.is_connected());
    }

    #[test]
    #[should_panic(expected = "spanning tree")]
    fn wrong_join_count_panics() {
        ConjunctiveQuery::new(
            CqId::new(0),
            UqId::new(0),
            UserId::new(0),
            vec![atom(1), atom(2)],
            vec![],
        );
    }

    #[test]
    #[should_panic(expected = "repeat")]
    fn duplicate_relation_panics() {
        ConjunctiveQuery::new(
            CqId::new(0),
            UqId::new(0),
            UserId::new(0),
            vec![atom(1), atom(1)],
            vec![join(0, 1, 0, 1, 0)],
        );
    }

    #[test]
    fn atom_lookup_and_selection() {
        let mut a = atom(3);
        a.selection = Some(Selection::eq(1, Value::str("metabolism")));
        let cq = ConjunctiveQuery::new(
            CqId::new(1),
            UqId::new(0),
            UserId::new(0),
            vec![a, atom(7)],
            vec![join(0, 3, 0, 7, 0)],
        );
        assert!(cq.atom(RelId::new(3)).unwrap().selection.is_some());
        assert!(cq.atom(RelId::new(7)).unwrap().selection.is_none());
        assert!(cq.atom(RelId::new(8)).is_none());
    }
}
