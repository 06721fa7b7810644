//! Select-project-join push-down, joined lazily at the source.
//!
//! The optimizer's first stage (Section 5.1) factors out subexpressions to
//! be "executed at the remote DBMS sites". Such a subexpression reaches the
//! source as its signature's two parts: atoms (relations with optional
//! equality selections) and the [`JoinCond`]s connecting them, in any
//! orientation. The source layer evaluates it *at the source* (no
//! middleware time is charged for the remote computation — the middleware
//! only pays per streamed result tuple, matching the paper's cost model)
//! and exposes the result as a score-ordered stream, [`LazyJoin`].
//!
//! **The contract.** A push-down stream delivers its results in descending
//! [`Tuple::raw_score_product`], ties in *evaluation order*: the order a
//! nested-loop join produces them in when it walks the atoms in
//! [`join_order`], each atom's rows in ascending row position (score
//! order). That order is lexicographic over the row positions, in join
//! order. Its head's product, [`LazyJoin::bound`], is exact from the moment
//! the stream opens: graft records it as the stream's all-time bound.
//!
//! **The rule.** Rank join (Ilyas et al., the paper's [16]) over one
//! driving atom: the first atom of the join order, whose filtered rows are
//! joined one at a time, depth-first. After driving row `i` every unseen
//! result extends a later driving row, so its product is at most `B = Π`
//! over the atoms of (driving row `i + 1`'s score for the driving atom,
//! the atom's best score under its selection for every other atom).
//! Joined results wait in a max-heap on (product, then evaluation order
//! ascending), and the heap's top is final — it may be delivered — once it
//! is `≥ B`. A top *equal* to `B` is final only because the driving atom
//! is the first atom of the join order: every unseen result then also
//! comes later in evaluation order, so it sorts after the tie. A stream
//! driven by any other atom would have to hold its ties at `B`.
//!
//! **Why the product order matters.** Floating-point products round, so
//! `B` bounds every unseen product only if both are multiplied in the same
//! order: multiplication of non-negative floats is monotone in each factor
//! *for a fixed order*, but `(a·b)·c` and `(c·a)·b` may differ in the last
//! bit. Products here, `B` included, multiply in `RelId` order — the order
//! [`Tuple::raw_score_product`] multiplies a tuple's parts in. (Raw scores
//! are non-negative: the rule does not hold for negative factors.)
//!
//! A pending result is its row positions and its product; the [`Tuple`] is
//! built only when the result is delivered.

use crate::table::{ColumnIndex, Table};
use qsys_types::{JoinCond, RelId, Selection, Tuple, Value};
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// One atom of a push-down, in join order.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Index of the atom in the subexpression's atom list.
    atom: usize,
    /// How it joins the atoms before it; `None` for the first.
    link: Option<Link>,
}

/// The join predicate one atom is probed on: `this.col = earlier.from_col`.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// Position in the join order of the earlier atom holding the key.
    from: usize,
    /// The key's column in that atom.
    from_col: usize,
    /// This atom's join column.
    col: usize,
}

/// The greedy join order: the first atom, then repeatedly the first
/// remaining atom (in `atoms` order) that a condition (in `joins` order)
/// connects to an atom already joined. `atoms` must not repeat a relation
/// (candidate networks never do: they are trees of distinct schema-graph
/// nodes); a disconnected subexpression panics (the optimizer never
/// produces one — pushed-down subexpressions are connected subgraphs).
fn join_order(atoms: &[(RelId, Option<Selection>)], joins: &[JoinCond]) -> Vec<Step> {
    assert!(!atoms.is_empty(), "empty SPJ subexpression");
    let mut order = vec![Step {
        atom: 0,
        link: None,
    }];
    let mut remaining: Vec<usize> = (1..atoms.len()).collect();
    while !remaining.is_empty() {
        let link = |from: RelId, from_col, col| {
            let from = order.iter().position(|s| atoms[s.atom].0 == from)?;
            Some(Link {
                from,
                from_col,
                col,
            })
        };
        let (idx, link) = remaining
            .iter()
            .enumerate()
            .find_map(|(i, &atom)| {
                let rel = atoms[atom].0;
                joins.iter().find_map(|j| {
                    // `j` as written, else flipped, from an atom joined.
                    let found = (j.right == rel)
                        .then(|| link(j.left, j.left_col, j.right_col))
                        .flatten();
                    let found = found.or_else(|| {
                        (j.left == rel)
                            .then(|| link(j.right, j.right_col, j.left_col))
                            .flatten()
                    });
                    found.map(|link| (i, link))
                })
            })
            .expect("SPJ subexpression must be connected");
        order.push(Step {
            atom: remaining.remove(idx),
            link: Some(link),
        });
    }
    order
}

/// One atom of an open push-down, in join order.
#[derive(Debug)]
struct Atom {
    table: Arc<Table>,
    selection: Option<Selection>,
    link: Option<Link>,
    /// The index of `link.col`, fetched on the first probe.
    index: OnceCell<Arc<ColumnIndex>>,
}

impl Atom {
    fn row_values(&self, pos: u32) -> &[Value] {
        &self.table.rows()[pos as usize].values
    }

    fn score(&self, pos: u32) -> f64 {
        self.table.rows()[pos as usize].raw_score
    }
}

/// A joined result not yet delivered: its product and its place in
/// evaluation order (which also locates its row positions). The heap's
/// maximum is the next result in delivery order.
#[derive(Debug, Clone, Copy)]
struct Pending {
    product: f64,
    seq: usize,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        self.product
            .total_cmp(&other.product)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Pending {}

/// Every result joined so far: how many, their row positions (one per
/// atom, join order) in evaluation order, and the ones not yet delivered.
#[derive(Debug, Default)]
struct Joined {
    count: usize,
    rows: Vec<u32>,
    pending: BinaryHeap<Pending>,
}

/// A pushed-down join, joined at the source only as deep as it is read
/// (module docs).
#[derive(Debug)]
pub(crate) struct LazyJoin {
    /// The atoms in join order; `atoms[0]` drives.
    atoms: Vec<Atom>,
    /// Join-order positions of the atoms in `RelId` order: the order every
    /// product (and `B`) multiplies in.
    by_rel: Vec<usize>,
    /// Each atom's best raw score under its selection (the driving atom's
    /// entry is unused: `B` takes the next driving row's score instead).
    best: Vec<f64>,
    /// The driving atom's filtered row positions, score order.
    driving: Vec<u32>,
    /// How many driving rows have been joined.
    driven: usize,
    /// The row positions of the result being joined, one per atom.
    cursor: Vec<u32>,
    joined: Joined,
}

impl LazyJoin {
    /// Open the join of `atoms` under `joins`, `table` supplying each
    /// relation's rows, and join driving rows until the head is final.
    pub(crate) fn open(
        atoms: &[(RelId, Option<Selection>)],
        joins: &[JoinCond],
        table: impl Fn(RelId) -> Arc<Table>,
    ) -> LazyJoin {
        let atoms: Vec<Atom> = join_order(atoms, joins)
            .into_iter()
            .map(|step| {
                let (rel, selection) = &atoms[step.atom];
                Atom {
                    table: table(*rel),
                    selection: selection.clone(),
                    link: step.link,
                    index: OnceCell::new(),
                }
            })
            .collect();
        let width = atoms.len();
        let mut by_rel: Vec<usize> = (0..width).collect();
        by_rel.sort_by_key(|&i| atoms[i].table.rel());
        let lead = &atoms[0];
        let mut driving = lead.table.filtered_positions(lead.selection.as_ref());
        // An atom's best row is its first (highest-scoring) match; an atom
        // no row matches empties the result.
        let best = atoms
            .iter()
            .map(|a| {
                let rows = a.table.rows();
                match &a.selection {
                    None => rows.first(),
                    Some(sel) => rows.iter().find(|r| sel.matches(&r.values)),
                }
                .map(|r| r.raw_score)
            })
            .collect::<Option<Vec<f64>>>()
            .unwrap_or_else(|| {
                driving.clear();
                Vec::new()
            });
        let mut join = LazyJoin {
            atoms,
            by_rel,
            best,
            driving,
            driven: 0,
            cursor: vec![0; width],
            joined: Joined::default(),
        };
        join.settle();
        join
    }

    /// Relations covered by every result, sorted.
    pub(crate) fn rels(&self) -> Vec<RelId> {
        self.by_rel
            .iter()
            .map(|&i| self.atoms[i].table.rel())
            .collect()
    }

    /// The next result's product; `0.0` once exhausted.
    pub(crate) fn bound(&self) -> f64 {
        self.joined.pending.peek().map_or(0.0, |p| p.product)
    }

    /// Whether every result has been delivered.
    pub(crate) fn exhausted(&self) -> bool {
        self.joined.pending.is_empty()
    }

    /// Results joined so far.
    pub(crate) fn joined(&self) -> usize {
        self.joined.count
    }

    /// Results joined but not yet delivered.
    pub(crate) fn pending(&self) -> usize {
        self.joined.pending.len()
    }

    /// Deliver the next result, then join on until the new head is final.
    pub(crate) fn next(&mut self) -> Option<Tuple> {
        let head = self.joined.pending.pop()?;
        let width = self.atoms.len();
        let rows = &self.joined.rows[head.seq * width..][..width];
        let tuple = Tuple::from_parts(
            self.by_rel
                .iter()
                .map(|&i| Arc::clone(&self.atoms[i].table.rows()[rows[i] as usize])),
        );
        self.settle();
        Some(tuple)
    }

    /// Join driving rows until the heap's top is final (module docs) or
    /// none is left.
    fn settle(&mut self) {
        while let Some(&row) = self.driving.get(self.driven) {
            let (atoms, best) = (&self.atoms, &self.best);
            let bound = product(&self.by_rel, |i| {
                if i == 0 {
                    atoms[0].score(row)
                } else {
                    best[i]
                }
            });
            if self
                .joined
                .pending
                .peek()
                .is_some_and(|top| top.product.total_cmp(&bound).is_ge())
            {
                return;
            }
            self.driven += 1;
            self.cursor[0] = row;
            extend(
                &self.atoms,
                &self.by_rel,
                1,
                &mut self.cursor,
                &mut self.joined,
            );
        }
    }
}

/// Join `atoms[depth..]` under the rows `cursor[..depth]`, depth-first in
/// row order, queueing each complete result in `out`.
fn extend(atoms: &[Atom], by_rel: &[usize], depth: usize, cursor: &mut [u32], out: &mut Joined) {
    let Some(atom) = atoms.get(depth) else {
        out.rows.extend_from_slice(cursor);
        let product = product(by_rel, |i| atoms[i].score(cursor[i]));
        out.pending.push(Pending {
            product,
            seq: out.count,
        });
        out.count += 1;
        return;
    };
    let link = atom
        .link
        .expect("every atom after the first joins an earlier one");
    let key = atoms[link.from]
        .row_values(cursor[link.from])
        .get(link.from_col)
        .expect("join column out of range");
    if matches!(key, Value::Null) {
        return;
    }
    let index = atom.index.get_or_init(|| atom.table.index_for(link.col));
    for &pos in index.get(key) {
        if atom
            .selection
            .as_ref()
            .is_none_or(|s| s.matches(atom.row_values(pos)))
        {
            cursor[depth] = pos;
            extend(atoms, by_rel, depth + 1, cursor, out);
        }
    }
}

/// The product of `score(i)` over the atoms `by_rel` lists, in its order.
fn product(by_rel: &[usize], score: impl Fn(usize) -> f64) -> f64 {
    by_rel.iter().map(|&i| score(i)).product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;
    use qsys_types::BaseTuple;
    use std::collections::HashMap;

    type Tables = HashMap<RelId, Arc<Table>>;

    /// A table of `rel` whose row `i` is `rows[i]` (values, raw score).
    fn table(rel: RelId, rows: Vec<(Vec<Value>, f64)>) -> Arc<Table> {
        let rows = rows
            .into_iter()
            .enumerate()
            .map(|(id, (values, score))| Arc::new(BaseTuple::new(rel, id as u64, values, score)))
            .collect();
        Arc::new(Table::new(rel, rows))
    }

    /// The eager join: every result, built tuple by tuple in evaluation
    /// order.
    fn evaluate(
        atoms: &[(RelId, Option<Selection>)],
        joins: &[JoinCond],
        tables: &Tables,
    ) -> Vec<Tuple> {
        let order = join_order(atoms, joins);
        let table = |step: &Step| &tables[&atoms[step.atom].0];
        let (first_sel, first) = (&atoms[0].1, table(&order[0]));
        let mut current: Vec<Tuple> = first
            .filtered_positions(first_sel.as_ref())
            .into_iter()
            .map(|p| Tuple::single(Arc::clone(&first.rows()[p as usize])))
            .collect();
        for step in &order[1..] {
            let link = step.link.expect("linked");
            let have_rel = atoms[order[link.from].atom].0;
            let sel = atoms[step.atom].1.as_ref();
            let mut output = Vec::new();
            for t in &current {
                let key = t
                    .value_of(have_rel, link.from_col)
                    .expect("joined relation missing from tuple");
                for row in table(step).probe(link.col, key) {
                    if sel.is_none_or(|s| s.matches(&row.values)) {
                        output.push(t.join(&Tuple::single(row)));
                    }
                }
            }
            current = output;
        }
        current
    }

    fn keyed(rel: u32, rows: &[(i64, f64)]) -> (RelId, Arc<Table>) {
        let id = RelId::new(rel);
        let rows = rows
            .iter()
            .map(|&(k, s)| (vec![Value::Int(k)], s))
            .collect();
        (id, table(id, rows))
    }

    fn tables() -> (RelId, RelId, Tables) {
        let (a, ta) = keyed(0, &[(10, 0.9), (20, 0.5), (10, 0.3)]);
        let (b, tb) = keyed(1, &[(10, 0.8), (30, 0.7), (10, 0.1)]);
        (a, b, HashMap::from([(a, ta), (b, tb)]))
    }

    fn cond(left: RelId, left_col: usize, right: RelId, right_col: usize) -> JoinCond {
        JoinCond {
            left,
            left_col,
            right,
            right_col,
        }
    }

    fn open(atoms: &[(RelId, Option<Selection>)], joins: &[JoinCond], tables: &Tables) -> LazyJoin {
        LazyJoin::open(atoms, joins, |rel| Arc::clone(&tables[&rel]))
    }

    /// The eager reference: `evaluate`, then the stable sort the eager
    /// stream used, by product descending.
    fn reference(
        atoms: &[(RelId, Option<Selection>)],
        joins: &[JoinCond],
        tables: &Tables,
    ) -> Vec<Tuple> {
        let mut all = evaluate(atoms, joins, tables);
        all.sort_by(|a, b| b.raw_score_product().total_cmp(&a.raw_score_product()));
        all
    }

    /// Drain a lazy stream, checking before every read that its bound is
    /// the next tuple's product bit for bit, and that it has joined no
    /// more than it will ever deliver.
    fn drain(mut join: LazyJoin, total: usize) -> Vec<Tuple> {
        let mut out = Vec::new();
        loop {
            assert!(join.joined() <= total);
            assert_eq!(join.exhausted(), out.len() == total);
            let bound = join.bound();
            let Some(t) = join.next() else {
                assert_eq!(
                    bound.to_bits(),
                    0.0f64.to_bits(),
                    "bound after the last tuple"
                );
                break;
            };
            assert_eq!(bound.to_bits(), t.raw_score_product().to_bits());
            out.push(t);
        }
        assert_eq!((join.joined(), join.pending()), (total, 0));
        out
    }

    fn provenance(tuples: &[Tuple]) -> Vec<Vec<(RelId, u64)>> {
        tuples.iter().map(Tuple::provenance).collect()
    }

    /// The lazy stream delivers `reference`'s sequence, tuple for tuple.
    fn assert_lazy_matches(
        atoms: &[(RelId, Option<Selection>)],
        joins: &[JoinCond],
        tables: &Tables,
    ) -> Vec<Tuple> {
        let expected = reference(atoms, joins, tables);
        let got = drain(open(atoms, joins, tables), expected.len());
        assert_eq!(provenance(&got), provenance(&expected));
        expected
    }

    #[test]
    fn two_way_join() {
        let (a, b, tables) = tables();
        let result = assert_lazy_matches(&[(a, None), (b, None)], &[cond(a, 0, b, 0)], &tables);
        // Key 10 matches: a{1,3} x b{1,3} = 4 results; key 20/30 match nothing.
        assert_eq!(result.len(), 4);
        for t in &result {
            assert_eq!(t.value_of(a, 0).unwrap(), t.value_of(b, 0).unwrap());
        }
    }

    #[test]
    fn selection_prunes_join() {
        let (a, b, tables) = tables();
        let joins = [cond(a, 0, b, 0)];
        let selected = |key| [(a, Some(Selection::eq(0, Value::Int(key)))), (b, None)];
        assert_eq!(assert_lazy_matches(&selected(10), &joins, &tables).len(), 4);
        assert!(assert_lazy_matches(&selected(20), &joins, &tables).is_empty());
    }

    #[test]
    fn single_atom_is_a_scan() {
        let (a, _, tables) = tables();
        assert_eq!(assert_lazy_matches(&[(a, None)], &[], &tables).len(), 3);
    }

    #[test]
    fn join_order_and_orientation_do_not_change_result() {
        let (a, b, tables) = tables();
        let sorted = |atoms: &[(RelId, Option<Selection>)], j: JoinCond| {
            let mut p = provenance(&assert_lazy_matches(atoms, &[j], &tables));
            p.sort();
            p
        };
        let fwd = sorted(&[(a, None), (b, None)], cond(a, 0, b, 0));
        assert_eq!(sorted(&[(b, None), (a, None)], cond(a, 0, b, 0)), fwd);
        assert_eq!(sorted(&[(a, None), (b, None)], cond(b, 0, a, 0)), fwd);
    }

    #[test]
    fn opens_no_deeper_than_its_head() {
        let (a, ta) = keyed(0, &[(1, 0.9), (1, 0.5), (1, 0.1)]);
        let (b, tb) = keyed(1, &[(1, 0.8), (1, 0.7)]);
        let tables = HashMap::from([(a, ta), (b, tb)]);
        let (atoms, joins) = ([(a, None), (b, None)], [cond(a, 0, b, 0)]);
        let join = open(&atoms, &joins, &tables);
        // Driving row 0's two results beat anything row 1 can join
        // (0.9·0.7 ≥ 0.5·0.8): nothing more is joined to fix the head.
        assert_eq!((join.joined(), join.pending()), (2, 2));
        assert_eq!(join.bound(), 0.9 * 0.8);
        assert_eq!(drain(join, 6).len(), 6);
    }

    /// `B` multiplies in `RelId` order. Driven by `c` (rel 2), after row
    /// 0 the pending result `0.4·0.6·0.94` sits one ulp below the next
    /// row's bound `0.6·0.94·0.4`, which that row attains; multiplied in
    /// join order (`c, a, b`) the bound would round down onto the pending
    /// result and release it first.
    #[test]
    fn bound_multiplies_in_rel_order() {
        let (a, ta) = keyed(0, &[(1, 0.6), (0, 0.4)]);
        let (b, tb) = keyed(1, &[(1, 0.94), (0, 0.6)]);
        let (c, tc) = keyed(2, &[(0, 0.94), (1, 0.4)]);
        let tables = HashMap::from([(a, ta), (b, tb), (c, tc)]);
        let (atoms, joins) = (
            [(c, None), (a, None), (b, None)],
            [cond(c, 0, a, 0), cond(c, 0, b, 0)],
        );
        let pending = 0.4 * 0.6 * 0.94; // a, b, c of driving row 0's result
        let bound = 0.6 * 0.94 * 0.4; // best a, best b, c of driving row 1
        let join_order_bound = 0.4 * 0.6 * 0.94; // c, a, b
        assert!(join_order_bound <= pending && pending < bound);
        let got = assert_lazy_matches(&atoms, &joins, &tables);
        assert_eq!(provenance(&got)[0], [(a, 0), (b, 0), (c, 1)]);
    }

    /// A random small push-down: 2–4 atoms over distinct relations in a
    /// chain, a star or any tree, conditions in either orientation.
    #[derive(Debug)]
    struct Case {
        atoms: Vec<(RelId, Option<Selection>)>,
        joins: Vec<JoinCond>,
        tables: Tables,
    }

    fn shuffle<T>(v: &mut [T], rng: &mut TestRng) {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.usize_in(0, i));
        }
    }

    impl Case {
        /// Join columns 0 and 1, selection column 2; keys in 0..=2 with
        /// NULLs; scores on a tenths grid (exact ties) or flat.
        fn generate(seed: u64) -> Case {
            let mut rng = TestRng::new(seed);
            let n = rng.usize_in(2, 4);
            let mut rels: Vec<RelId> = (0..8).map(RelId::new).collect();
            shuffle(&mut rels, &mut rng);
            rels.truncate(n);
            let shape = rng.usize_in(0, 2);
            let mut joins: Vec<JoinCond> = (1..n)
                .map(|k| {
                    let parent = match shape {
                        0 => k - 1,
                        1 => 0,
                        _ => rng.usize_in(0, k - 1),
                    };
                    let (pc, kc) = (rng.usize_in(0, 1), rng.usize_in(0, 1));
                    if rng.usize_in(0, 1) == 0 {
                        cond(rels[parent], pc, rels[k], kc)
                    } else {
                        cond(rels[k], kc, rels[parent], pc)
                    }
                })
                .collect();
            shuffle(&mut joins, &mut rng);
            let value = |rng: &mut TestRng| match rng.usize_in(0, 7) {
                0 => Value::Null,
                _ => Value::Int(rng.usize_in(0, 2) as i64),
            };
            let tables = rels
                .iter()
                .map(|&rel| {
                    let flat = rng.usize_in(0, 3) == 0;
                    let len = if rng.usize_in(0, 9) == 0 {
                        0
                    } else {
                        rng.usize_in(1, 6)
                    };
                    let rows = (0..len)
                        .map(|_| {
                            let values = (0..3).map(|_| value(&mut rng)).collect();
                            let score = if flat {
                                1.0
                            } else {
                                rng.usize_in(1, 10) as f64 / 10.0
                            };
                            (values, score)
                        })
                        .collect();
                    (rel, table(rel, rows))
                })
                .collect();
            shuffle(&mut rels, &mut rng);
            let atoms = rels
                .into_iter()
                .map(|rel| {
                    let sel = (rng.usize_in(0, 2) == 0).then(|| {
                        Selection::eq(rng.usize_in(0, 2), Value::Int(rng.usize_in(0, 2) as i64))
                    });
                    (rel, sel)
                })
                .collect();
            Case {
                atoms,
                joins,
                tables,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The lazy stream delivers exactly what the eager evaluation,
        /// stably sorted by product, delivers — tuple for tuple — and its
        /// bound before every read is the next tuple's product.
        #[test]
        fn lazy_stream_matches_eager_reference(seed in 0u64..u64::MAX) {
            let case = Case::generate(seed);
            assert_lazy_matches(&case.atoms, &case.joins, &case.tables);
        }
    }

    /// The generator reaches every shape the property must hold on.
    #[test]
    fn generated_cases_cover_the_listed_shapes() {
        let mut seen: HashMap<&str, usize> = HashMap::new();
        for seed in 0..512 {
            let case = Case::generate(seed);
            let Case {
                atoms,
                joins,
                tables,
            } = &case;
            let result = reference(atoms, joins, tables);
            let n = atoms.len();
            let flat = |rel: &RelId| {
                let rows = tables[rel].rows();
                !rows.is_empty() && rows.iter().all(|r| r.raw_score == 1.0)
            };
            let degree = |rel: RelId| {
                joins
                    .iter()
                    .filter(|j| j.left == rel || j.right == rel)
                    .count()
            };
            let features = [
                ("atoms=2", n == 2),
                ("atoms=4", n == 4),
                (
                    "chain",
                    n >= 3 && atoms.iter().all(|(r, _)| degree(*r) <= 2),
                ),
                (
                    "star",
                    n >= 3 && atoms.iter().any(|(r, _)| degree(*r) == n - 1),
                ),
                ("flat driving atom", flat(&atoms[0].0)),
                ("flat other atom", atoms[1..].iter().any(|(r, _)| flat(r))),
                ("selection", atoms.iter().any(|(_, s)| s.is_some())),
                ("empty result", result.is_empty()),
                (
                    "tie",
                    result
                        .windows(2)
                        .any(|w| w[0].raw_score_product() == w[1].raw_score_product()),
                ),
                (
                    "NULL join key",
                    joins.iter().any(|j| {
                        tables[&j.left]
                            .rows()
                            .iter()
                            .any(|r| r.values[j.left_col] == Value::Null)
                    }),
                ),
                (
                    "unmatched driving row",
                    tables[&atoms[0].0].rows().iter().any(|row| {
                        result
                            .iter()
                            .all(|t| t.part(atoms[0].0).unwrap().row_id != row.row_id)
                    }),
                ),
                (
                    "driving atom not the lowest rel",
                    atoms.iter().any(|(r, _)| *r < atoms[0].0),
                ),
            ];
            for (name, hit) in features {
                *seen.entry(name).or_default() += usize::from(hit);
            }
        }
        for (name, hits) in &seen {
            assert!(*hits >= 5, "{name}: {hits} cases of 512");
        }
    }
}
