//! Select-project-join push-down.
//!
//! The optimizer's first stage (Section 5.1) factors out subexpressions to
//! be "executed at the remote DBMS sites". An [`SpjSpec`] is the wire-level
//! description of such a subexpression: a set of relations with optional
//! equality selections, connected by equi-join conditions. The source layer
//! evaluates it *at the source* (no middleware time is charged for the
//! remote computation — the middleware only pays per streamed result tuple,
//! matching the paper's cost model) and exposes the result as a
//! score-ordered stream.

use crate::table::Table;
use qsys_types::{RelId, Selection, Tuple};
use std::collections::HashMap;
use std::sync::Arc;

/// One equi-join condition between two relations in a pushed-down
/// subexpression.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
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

/// A select-project-join subexpression to evaluate at the source.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpjSpec {
    /// Participating relations with their pushed-down selections. Must not
    /// repeat a relation (candidate networks never do: they are trees of
    /// distinct schema-graph nodes).
    pub atoms: Vec<(RelId, Option<Selection>)>,
    /// Equi-join conditions connecting the atoms.
    pub joins: Vec<JoinCond>,
}

impl SpjSpec {
    /// A single-relation spec.
    pub fn single(rel: RelId, selection: Option<Selection>) -> SpjSpec {
        SpjSpec {
            atoms: vec![(rel, selection)],
            joins: Vec::new(),
        }
    }

    /// Relations covered, sorted.
    pub fn rels(&self) -> Vec<RelId> {
        let mut rels: Vec<RelId> = self.atoms.iter().map(|(r, _)| *r).collect();
        rels.sort();
        rels
    }

    /// Evaluate against materialized tables, producing the full join result.
    ///
    /// Joins are applied greedily in connectivity order starting from the
    /// first atom; a disconnected spec panics (the optimizer never produces
    /// one — pushed-down subexpressions are connected subgraphs).
    pub(crate) fn evaluate(&self, tables: &HashMap<RelId, Arc<Table>>) -> Vec<Tuple> {
        assert!(!self.atoms.is_empty(), "empty SPJ spec");
        let selections: HashMap<RelId, &Selection> = self
            .atoms
            .iter()
            .filter_map(|(r, s)| s.as_ref().map(|sel| (*r, sel)))
            .collect();

        // Seed with the first atom's filtered rows.
        let (first_rel, first_sel) = &self.atoms[0];
        let first_table = tables
            .get(first_rel)
            .unwrap_or_else(|| panic!("no table for {first_rel}"));
        let mut current: Vec<Tuple> = first_table
            .filtered_positions(first_sel.as_ref())
            .into_iter()
            .map(|p| Tuple::single(Arc::clone(&first_table.rows()[p as usize])))
            .collect();
        let mut joined: Vec<RelId> = vec![*first_rel];
        let mut remaining: Vec<RelId> = self.atoms[1..].iter().map(|(r, _)| *r).collect();

        while !remaining.is_empty() {
            // Pick the next atom connected to what we have joined so far.
            let (idx, cond, flipped) = remaining
                .iter()
                .enumerate()
                .find_map(|(i, rel)| {
                    self.joins.iter().find_map(|j| {
                        if j.right == *rel && joined.contains(&j.left) {
                            Some((i, j.clone(), false))
                        } else if j.left == *rel && joined.contains(&j.right) {
                            Some((i, j.clone(), true))
                        } else {
                            None
                        }
                    })
                })
                .expect("SPJ spec must be connected");
            let next_rel = remaining.remove(idx);
            let (have_rel, have_col, next_col) = if flipped {
                (cond.right, cond.right_col, cond.left_col)
            } else {
                (cond.left, cond.left_col, cond.right_col)
            };
            let next_table = tables
                .get(&next_rel)
                .unwrap_or_else(|| panic!("no table for {next_rel}"));
            let sel = selections.get(&next_rel);

            let mut output = Vec::new();
            for t in &current {
                let key = t
                    .value_of(have_rel, have_col)
                    .expect("joined relation missing from tuple");
                for row in next_table.probe(next_col, key) {
                    if sel.is_none_or(|s| s.matches(&row.values)) {
                        output.push(t.join(&Tuple::single(row)));
                    }
                }
            }
            current = output;
            joined.push(next_rel);
        }

        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsys_types::{BaseTuple, Value};

    fn table(rel: u32, rows: Vec<(u64, i64, f64)>) -> (RelId, Arc<Table>) {
        let id = RelId::new(rel);
        let rows = rows
            .into_iter()
            .map(|(rid, key, score)| {
                Arc::new(BaseTuple::new(id, rid, vec![Value::Int(key)], score))
            })
            .collect();
        (id, Arc::new(Table::new(id, rows)))
    }

    fn tables() -> (RelId, RelId, HashMap<RelId, Arc<Table>>) {
        let (a, ta) = table(0, vec![(1, 10, 0.9), (2, 20, 0.5), (3, 10, 0.3)]);
        let (b, tb) = table(1, vec![(1, 10, 0.8), (2, 30, 0.7), (3, 10, 0.1)]);
        let mut m = HashMap::new();
        m.insert(a, ta);
        m.insert(b, tb);
        (a, b, m)
    }

    #[test]
    fn two_way_join() {
        let (a, b, tables) = tables();
        let spec = SpjSpec {
            atoms: vec![(a, None), (b, None)],
            joins: vec![JoinCond {
                left: a,
                left_col: 0,
                right: b,
                right_col: 0,
            }],
        };
        let result = spec.evaluate(&tables);
        // Key 10 matches: a{1,3} x b{1,3} = 4 results; key 20/30 match nothing.
        assert_eq!(result.len(), 4);
        for t in &result {
            assert_eq!(t.value_of(a, 0).unwrap(), t.value_of(b, 0).unwrap());
        }
    }

    #[test]
    fn selection_prunes_join() {
        let (a, b, tables) = tables();
        let spec = SpjSpec {
            atoms: vec![(a, Some(Selection::eq(0, Value::Int(10)))), (b, None)],
            joins: vec![JoinCond {
                left: a,
                left_col: 0,
                right: b,
                right_col: 0,
            }],
        };
        let result = spec.evaluate(&tables);
        assert_eq!(result.len(), 4);
        let spec2 = SpjSpec {
            atoms: vec![(a, Some(Selection::eq(0, Value::Int(20)))), (b, None)],
            joins: spec.joins.clone(),
        };
        assert!(spec2.evaluate(&tables).is_empty());
    }

    #[test]
    fn single_atom_is_a_scan() {
        let (a, _, tables) = tables();
        let spec = SpjSpec::single(a, None);
        assert_eq!(spec.evaluate(&tables).len(), 3);
        assert_eq!(spec.rels(), vec![a]);
    }

    #[test]
    fn join_order_does_not_change_result() {
        let (a, b, tables) = tables();
        let j = JoinCond {
            left: a,
            left_col: 0,
            right: b,
            right_col: 0,
        };
        let fwd = SpjSpec {
            atoms: vec![(a, None), (b, None)],
            joins: vec![j.clone()],
        };
        let rev = SpjSpec {
            atoms: vec![(b, None), (a, None)],
            joins: vec![j],
        };
        let mut r1: Vec<_> = fwd
            .evaluate(&tables)
            .iter()
            .map(Tuple::provenance)
            .collect();
        let mut r2: Vec<_> = rev
            .evaluate(&tables)
            .iter()
            .map(Tuple::provenance)
            .collect();
        r1.sort();
        r2.sort();
        assert_eq!(r1, r2);
    }
}
