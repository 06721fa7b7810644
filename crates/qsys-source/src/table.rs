//! Materialized relation instances.
//!
//! Each [`Table`] holds the rows of one relation **sorted by nonincreasing
//! raw score** — the paper assumes "source relations referenced in the
//! queries are typically SQL DBMSs, able to return results in nonincreasing
//! score order" (Section 3). Hash indexes over join columns are built
//! lazily, standing in for the paper's "indexed by join keys and score
//! attributes" MySQL setup.

use qsys_types::{BaseTuple, RelId, Selection, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::RwLock;

/// A hash index over one column: key value → row positions.
pub(crate) type ColumnIndex = Arc<HashMap<Value, Vec<u32>>>;

/// A materialized, score-sorted relation instance.
///
/// `Table` is `Sync` (the lazy index cache sits behind an `RwLock`), so one
/// materialized dataset can be shared by every engine lane via `Arc`.
#[derive(Debug)]
pub struct Table {
    rel: RelId,
    /// Rows in nonincreasing `raw_score` order.
    rows: Vec<Arc<BaseTuple>>,
    /// Lazily built hash indexes per column.
    indexes: RwLock<HashMap<usize, ColumnIndex>>,
}

impl Table {
    /// Build a table from rows (sorted here; callers need not pre-sort).
    pub fn new(rel: RelId, mut rows: Vec<Arc<BaseTuple>>) -> Table {
        debug_assert!(rows.iter().all(|r| r.rel == rel));
        rows.sort_by(|a, b| b.raw_score.total_cmp(&a.raw_score));
        Table {
            rel,
            rows,
            indexes: RwLock::new(HashMap::new()),
        }
    }

    /// The relation this table materializes.
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows, score-ordered.
    pub fn rows(&self) -> &[Arc<BaseTuple>] {
        &self.rows
    }

    /// The maximum raw score (0.0 for an empty table).
    pub fn max_score(&self) -> f64 {
        self.rows.first().map(|r| r.raw_score).unwrap_or(0.0)
    }

    /// Row positions matching `value` in `column`, via the (lazily built)
    /// hash index. Returns rows in score order.
    pub fn probe(&self, column: usize, value: &Value) -> Vec<Arc<BaseTuple>> {
        if matches!(value, Value::Null) {
            return Vec::new();
        }
        let index = self.index_for(column);
        match index.get(value) {
            Some(positions) => positions
                .iter()
                .map(|&p| Arc::clone(&self.rows[p as usize]))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Row positions (into the score-ordered row list) matching a selection,
    /// in score order. Used to materialize filtered streams.
    pub(crate) fn filtered_positions(&self, selection: Option<&Selection>) -> Vec<u32> {
        match selection {
            None => (0..self.rows.len() as u32).collect(),
            Some(sel) => {
                // Equality selections use the hash index, then re-sort by
                // position to restore score order.
                let index = self.index_for(sel.column);
                let mut positions = index.get(&sel.value).cloned().unwrap_or_default();
                positions.sort_unstable();
                positions
            }
        }
    }

    fn index_for(&self, column: usize) -> ColumnIndex {
        // Index maps are write-once per column: a poisoned lock can only
        // hold a fully-built (or absent) entry, so recover and read on.
        if let Some(idx) = self
            .indexes
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&column)
        {
            return Arc::clone(idx);
        }
        let mut map: HashMap<Value, Vec<u32>> = HashMap::new();
        for (pos, row) in self.rows.iter().enumerate() {
            if let Some(v) = row.values.get(column) {
                if !matches!(v, Value::Null) {
                    map.entry(v.clone()).or_default().push(pos as u32);
                }
            }
        }
        let arc = Arc::new(map);
        self.indexes
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(column, Arc::clone(&arc));
        arc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(rel: u32, id: u64, key: i64, score: f64) -> Arc<BaseTuple> {
        Arc::new(BaseTuple::new(
            RelId::new(rel),
            id,
            vec![Value::Int(key), Value::str(format!("n{id}"))],
            score,
        ))
    }

    #[test]
    fn rows_sorted_by_score_desc() {
        let t = Table::new(
            RelId::new(0),
            vec![row(0, 1, 5, 0.2), row(0, 2, 6, 0.9), row(0, 3, 7, 0.5)],
        );
        let scores: Vec<f64> = t.rows().iter().map(|r| r.raw_score).collect();
        assert_eq!(scores, vec![0.9, 0.5, 0.2]);
        assert_eq!(t.max_score(), 0.9);
    }

    #[test]
    fn probe_finds_matches_in_score_order() {
        let t = Table::new(
            RelId::new(0),
            vec![
                row(0, 1, 5, 0.2),
                row(0, 2, 5, 0.9),
                row(0, 3, 7, 0.5),
                row(0, 4, 5, 0.6),
            ],
        );
        let hits = t.probe(0, &Value::Int(5));
        let ids: Vec<u64> = hits.iter().map(|r| r.row_id).collect();
        assert_eq!(ids, vec![2, 4, 1]); // score order 0.9, 0.6, 0.2
        assert!(t.probe(0, &Value::Int(99)).is_empty());
        assert!(t.probe(0, &Value::Null).is_empty());
    }

    #[test]
    fn filtered_positions_respect_selection() {
        let t = Table::new(
            RelId::new(0),
            vec![row(0, 1, 5, 0.2), row(0, 2, 6, 0.9), row(0, 3, 5, 0.5)],
        );
        let sel = Selection::eq(0, Value::Int(5));
        let positions = t.filtered_positions(Some(&sel));
        // Positions 1 (score 0.5, id 3) and 2 (score 0.2, id 1).
        assert_eq!(positions, vec![1, 2]);
        let all = t.filtered_positions(None);
        assert_eq!(all, vec![0, 1, 2]);
    }

    #[test]
    fn empty_table() {
        let t = Table::new(RelId::new(1), vec![]);
        assert!(t.is_empty());
        assert_eq!(t.max_score(), 0.0);
        assert!(t.probe(0, &Value::Int(1)).is_empty());
    }
}
