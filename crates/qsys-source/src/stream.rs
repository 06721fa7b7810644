//! Score-ordered tuple streams.
//!
//! A [`SourceStream`] is the middleware's view of one remote subquery: a
//! cursor over score-ordered results. It may cover a single base relation
//! (with an optional pushed-down selection) or a pushed-down
//! select-project-join subexpression. The stream itself is passive — the
//! [`Sources`](crate::registry::Sources) registry performs reads so that
//! every tuple crossing the simulated network charges the clock.

use crate::table::Table;
use qsys_types::{RelId, Selection, Tuple};
use std::sync::Arc;

/// What backs a stream.
#[derive(Debug)]
pub(crate) enum StreamKind {
    /// A base relation scan (optionally filtered), delivered in score order.
    Base {
        /// The backing table.
        table: Arc<Table>,
        /// Positions into the table's score-ordered rows that satisfy the
        /// pushed-down selection.
        positions: Vec<u32>,
    },
    /// A pushed-down SPJ subexpression, pre-joined at the source and
    /// delivered in nonincreasing order of combined (product) score.
    Pushdown {
        /// Joined results, sorted by product score, descending.
        tuples: Vec<Tuple>,
    },
}

/// A cursor over a score-ordered remote result stream.
#[derive(Debug)]
pub struct SourceStream {
    kind: StreamKind,
    /// Relations covered by each delivered tuple.
    rels: Vec<RelId>,
    /// Pushed-down selection (kept for display/debugging).
    selection: Option<Selection>,
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
            selection,
            cursor: 0,
        }
    }

    /// Build a pushdown stream from pre-joined, pre-sorted tuples.
    pub fn pushdown(tuples: Vec<Tuple>, rels: Vec<RelId>) -> SourceStream {
        // Stable sort, each raw-score product computed once.
        let mut keyed: Vec<(f64, Tuple)> = tuples
            .into_iter()
            .map(|t| (t.raw_score_product(), t))
            .collect();
        keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
        SourceStream {
            kind: StreamKind::Pushdown {
                tuples: keyed.into_iter().map(|(_, t)| t).collect(),
            },
            rels,
            selection: None,
            cursor: 0,
        }
    }

    /// Relations covered by every tuple this stream delivers (sorted).
    pub fn rels(&self) -> &[RelId] {
        &self.rels
    }

    /// The pushed-down selection, if any.
    pub fn selection(&self) -> Option<&Selection> {
        self.selection.as_ref()
    }

    /// Number of tuples delivered so far.
    pub fn delivered(&self) -> usize {
        self.cursor
    }

    /// Total number of tuples this stream can deliver.
    pub fn total(&self) -> usize {
        match &self.kind {
            StreamKind::Base { positions, .. } => positions.len(),
            StreamKind::Pushdown { tuples } => tuples.len(),
        }
    }

    /// Whether all tuples have been delivered.
    pub fn exhausted(&self) -> bool {
        self.cursor >= self.total()
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
            StreamKind::Pushdown { tuples } => tuples
                .get(self.cursor)
                .map(|t| t.raw_score_product())
                .unwrap_or(0.0),
        }
    }

    /// Advance and return the next tuple. Crate-internal: goes through
    /// [`Sources::try_read`](crate::registry::Sources::try_read) so time is
    /// charged.
    pub(crate) fn advance(&mut self) -> Option<Tuple> {
        let out = match &self.kind {
            StreamKind::Base { table, positions } => positions
                .get(self.cursor)
                .map(|&p| Tuple::single(Arc::clone(&table.rows()[p as usize]))),
            StreamKind::Pushdown { tuples } => tuples.get(self.cursor).cloned(),
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
        assert_eq!(s.total(), 5);
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
        let rel_a = RelId::new(1);
        let rel_b = RelId::new(2);
        let mk = |ida: u64, sa: f64, idb: u64, sb: f64| {
            Tuple::from_parts(vec![
                Arc::new(BaseTuple::new(rel_a, ida, vec![], sa)),
                Arc::new(BaseTuple::new(rel_b, idb, vec![], sb)),
            ])
        };
        let s = SourceStream::pushdown(
            vec![mk(1, 0.5, 1, 0.5), mk(2, 0.9, 2, 0.9), mk(3, 0.1, 3, 1.0)],
            vec![rel_a, rel_b],
        );
        assert!((s.bound() - 0.81).abs() < 1e-12);
        assert_eq!(s.rels(), &[rel_a, rel_b]);
    }
}
