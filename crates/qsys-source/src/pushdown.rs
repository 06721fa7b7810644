//! Select-project-join push-down.
//!
//! The optimizer's first stage (Section 5.1) factors out subexpressions to
//! be "executed at the remote DBMS sites". Such a subexpression reaches the
//! source as its signature's two parts: atoms (relations with optional
//! equality selections) and the [`JoinCond`]s connecting them, in any
//! orientation. The source layer evaluates it *at the source* (no
//! middleware time is charged for the remote computation — the middleware
//! only pays per streamed result tuple, matching the paper's cost model)
//! and exposes the result as a score-ordered stream.

use crate::table::Table;
use qsys_types::{JoinCond, RelId, Selection, Tuple};
use std::collections::HashMap;
use std::sync::Arc;

/// Evaluate the join of `atoms` under `joins` against materialized tables,
/// producing the full result. `atoms` must not repeat a relation
/// (candidate networks never do: they are trees of distinct schema-graph
/// nodes).
///
/// Joins are applied greedily in connectivity order starting from the
/// first atom; a disconnected subexpression panics (the optimizer never
/// produces one — pushed-down subexpressions are connected subgraphs).
pub(crate) fn evaluate(
    atoms: &[(RelId, Option<Selection>)],
    joins: &[JoinCond],
    tables: &HashMap<RelId, Arc<Table>>,
) -> Vec<Tuple> {
    assert!(!atoms.is_empty(), "empty SPJ subexpression");
    let selections: HashMap<RelId, &Selection> = atoms
        .iter()
        .filter_map(|(r, s)| s.as_ref().map(|sel| (*r, sel)))
        .collect();

    // Seed with the first atom's filtered rows.
    let (first_rel, first_sel) = &atoms[0];
    let first_table = tables
        .get(first_rel)
        .unwrap_or_else(|| panic!("no table for {first_rel}"));
    let mut current: Vec<Tuple> = first_table
        .filtered_positions(first_sel.as_ref())
        .into_iter()
        .map(|p| Tuple::single(Arc::clone(&first_table.rows()[p as usize])))
        .collect();
    let mut joined: Vec<RelId> = vec![*first_rel];
    let mut remaining: Vec<RelId> = atoms[1..].iter().map(|(r, _)| *r).collect();

    while !remaining.is_empty() {
        // Pick the next atom connected to what we have joined so far.
        let (idx, cond, flipped) = remaining
            .iter()
            .enumerate()
            .find_map(|(i, rel)| {
                joins.iter().find_map(|j| {
                    if j.right == *rel && joined.contains(&j.left) {
                        Some((i, *j, false))
                    } else if j.left == *rel && joined.contains(&j.right) {
                        Some((i, *j, true))
                    } else {
                        None
                    }
                })
            })
            .expect("SPJ subexpression must be connected");
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

    fn a_join_b(a: RelId, b: RelId) -> JoinCond {
        JoinCond {
            left: a,
            left_col: 0,
            right: b,
            right_col: 0,
        }
    }

    #[test]
    fn two_way_join() {
        let (a, b, tables) = tables();
        let result = evaluate(&[(a, None), (b, None)], &[a_join_b(a, b)], &tables);
        // Key 10 matches: a{1,3} x b{1,3} = 4 results; key 20/30 match nothing.
        assert_eq!(result.len(), 4);
        for t in &result {
            assert_eq!(t.value_of(a, 0).unwrap(), t.value_of(b, 0).unwrap());
        }
    }

    #[test]
    fn selection_prunes_join() {
        let (a, b, tables) = tables();
        let joins = [a_join_b(a, b)];
        let selected = |key| [(a, Some(Selection::eq(0, Value::Int(key)))), (b, None)];
        assert_eq!(evaluate(&selected(10), &joins, &tables).len(), 4);
        assert!(evaluate(&selected(20), &joins, &tables).is_empty());
    }

    #[test]
    fn single_atom_is_a_scan() {
        let (a, _, tables) = tables();
        assert_eq!(evaluate(&[(a, None)], &[], &tables).len(), 3);
    }

    #[test]
    fn join_order_and_orientation_do_not_change_result() {
        let (a, b, tables) = tables();
        let provenance = |atoms: &[(RelId, Option<Selection>)], j: JoinCond| {
            let mut p: Vec<_> = evaluate(atoms, &[j], &tables)
                .iter()
                .map(Tuple::provenance)
                .collect();
            p.sort();
            p
        };
        let fwd = provenance(&[(a, None), (b, None)], a_join_b(a, b));
        assert_eq!(provenance(&[(b, None), (a, None)], a_join_b(a, b)), fwd);
        assert_eq!(provenance(&[(a, None), (b, None)], a_join_b(b, a)), fwd);
    }
}
