//! Score-ordered tuple streams.
//!
//! A [`SourceStream`] is the middleware's view of one remote subquery: a
//! cursor over score-ordered results. It may cover a single base relation
//! (with an optional pushed-down selection) or a pushed-down
//! select-project-join subexpression. The stream itself is passive — the
//! [`Sources`](crate::registry::Sources) registry performs reads so that
//! every tuple crossing the simulated network charges the clock.
//!
//! Either way the stream keeps one contract: tuples arrive in
//! nonincreasing raw-score product, ties in a fixed order, and
//! [`SourceStream::bound`] is the next tuple's product exactly, from the
//! moment the stream opens (graft records it as the stream's all-time
//! bound). A base scan walks its table's score-ordered rows.
//!
//! A push-down meets the same contract while joining at the source only
//! as deep as it is read; the `pushdown` module docs give its delivery
//! order and the rule that makes its bound exact.

use crate::pushdown::LazyJoin;
use crate::table::Table;
use qsys_types::{RelId, Selection, Tuple};
use std::sync::Arc;

/// What backs a stream.
#[derive(Debug)]
enum StreamKind {
    /// A base relation scan (optionally filtered), delivered in score order.
    Base {
        /// The backing table.
        table: Arc<Table>,
        /// Positions into the table's score-ordered rows that satisfy the
        /// pushed-down selection.
        positions: Vec<u32>,
    },
    /// A pushed-down SPJ subexpression, joined lazily at the source and
    /// delivered in nonincreasing order of combined (product) score.
    Pushdown(Box<LazyJoin>),
}

/// A cursor over a score-ordered remote result stream.
#[derive(Debug)]
pub struct SourceStream {
    kind: StreamKind,
    /// Relations covered by each delivered tuple.
    rels: Vec<RelId>,
    cursor: usize,
}

impl SourceStream {
    /// Build a base-relation stream.
    pub fn base(table: Arc<Table>, selection: Option<Selection>) -> SourceStream {
        let positions = table.filtered_positions(selection.as_ref());
        let rels = vec![table.rel()];
        SourceStream {
            kind: StreamKind::Base { table, positions },
            rels,
            cursor: 0,
        }
    }

    /// Wrap an opened push-down.
    pub(crate) fn pushdown(join: LazyJoin) -> SourceStream {
        SourceStream {
            rels: join.rels(),
            kind: StreamKind::Pushdown(Box::new(join)),
            cursor: 0,
        }
    }

    /// Relations covered by every tuple this stream delivers (sorted).
    pub fn rels(&self) -> &[RelId] {
        &self.rels
    }

    /// Number of tuples delivered so far.
    pub fn delivered(&self) -> usize {
        self.cursor
    }

    /// Tuples the source holds ready to deliver: a base scan's remaining
    /// rows, or a push-down's joined but undelivered results (it may join
    /// more as it is read).
    pub fn pending(&self) -> usize {
        match &self.kind {
            StreamKind::Base { positions, .. } => positions.len() - self.cursor,
            StreamKind::Pushdown(join) => join.pending(),
        }
    }

    /// Push-down results joined at the source so far (0 for a base scan).
    pub(crate) fn joined(&self) -> usize {
        match &self.kind {
            StreamKind::Base { .. } => 0,
            StreamKind::Pushdown(join) => join.joined(),
        }
    }

    /// Whether all tuples have been delivered.
    pub fn exhausted(&self) -> bool {
        match &self.kind {
            StreamKind::Base { positions, .. } => self.cursor >= positions.len(),
            StreamKind::Pushdown(join) => join.exhausted(),
        }
    }

    /// Upper bound on the product of raw score components of any tuple not
    /// yet delivered; `0.0` once exhausted. Streams are score-ordered, so
    /// this is exactly the next tuple's product score.
    pub fn bound(&self) -> f64 {
        match &self.kind {
            StreamKind::Base { table, positions } => positions
                .get(self.cursor)
                .map(|&p| table.rows()[p as usize].raw_score)
                .unwrap_or(0.0),
            StreamKind::Pushdown(join) => join.bound(),
        }
    }

    /// Advance and return the next tuple. Crate-internal: goes through
    /// [`Sources::try_read`](crate::registry::Sources::try_read) so time is
    /// charged.
    pub(crate) fn advance(&mut self) -> Option<Tuple> {
        let out = match &mut self.kind {
            StreamKind::Base { table, positions } => positions
                .get(self.cursor)
                .map(|&p| Tuple::single(Arc::clone(&table.rows()[p as usize]))),
            StreamKind::Pushdown(join) => join.next(),
        };
        if out.is_some() {
            self.cursor += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsys_types::{BaseTuple, Value};

    fn table() -> Arc<Table> {
        let rel = RelId::new(0);
        let rows = (0..5)
            .map(|i| {
                Arc::new(BaseTuple::new(
                    rel,
                    i,
                    vec![Value::Int(i as i64 % 2)],
                    1.0 - i as f64 * 0.1,
                ))
            })
            .collect();
        Arc::new(Table::new(rel, rows))
    }

    #[test]
    fn base_stream_delivers_in_score_order() {
        let mut s = SourceStream::base(table(), None);
        assert_eq!(s.pending(), 5);
        let mut last = f64::INFINITY;
        while let Some(t) = s.advance() {
            let score = t.raw_score_product();
            assert!(score <= last);
            last = score;
        }
        assert!(s.exhausted());
        assert_eq!(s.bound(), 0.0);
    }

    #[test]
    fn bound_tracks_next_tuple() {
        let mut s = SourceStream::base(table(), None);
        assert!((s.bound() - 1.0).abs() < 1e-12);
        s.advance();
        assert!((s.bound() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn selection_filters_stream() {
        let sel = Selection::eq(0, Value::Int(1));
        let mut s = SourceStream::base(table(), Some(sel));
        let mut n = 0;
        while let Some(t) = s.advance() {
            assert_eq!(t.parts()[0].value(0), &Value::Int(1));
            n += 1;
        }
        assert_eq!(n, 2); // rows with odd ids: 1, 3
    }

    #[test]
    fn pushdown_stream_sorts_by_product() {
        let (rel_a, rel_b) = (RelId::new(1), RelId::new(2));
        let mk = |rel, rows: [(i64, f64); 3]| {
            let rows = rows
                .iter()
                .enumerate()
                .map(|(id, &(key, score))| {
                    Arc::new(BaseTuple::new(rel, id as u64, vec![Value::Int(key)], score))
                })
                .collect();
            Arc::new(Table::new(rel, rows))
        };
        let a = mk(rel_a, [(1, 0.5), (2, 0.9), (3, 0.1)]);
        let b = mk(rel_b, [(1, 0.5), (2, 0.9), (3, 1.0)]);
        let join = qsys_types::JoinCond {
            left: rel_a,
            left_col: 0,
            right: rel_b,
            right_col: 0,
        };
        let mut s = SourceStream::pushdown(LazyJoin::open(
            &[(rel_a, None), (rel_b, None)],
            &[join],
            |rel| if rel == rel_a { a.clone() } else { b.clone() },
        ));
        assert_eq!(s.rels(), &[rel_a, rel_b]);
        let mut products = Vec::new();
        while !s.exhausted() {
            let bound = s.bound();
            let t = s.advance().expect("not exhausted");
            assert_eq!(t.raw_score_product(), bound);
            products.push(bound);
        }
        assert_eq!(products, [0.9 * 0.9, 0.5 * 0.5, 0.1 * 1.0]);
        assert_eq!((s.delivered(), s.pending(), s.bound()), (3, 0, 0.0));
    }
}
