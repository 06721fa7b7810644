//! Materialized relation instances.
//!
//! Each [`Table`] holds the rows of one relation **sorted by nonincreasing
//! raw score** — the paper assumes "source relations referenced in the
//! queries are typically SQL DBMSs, able to return results in nonincreasing
//! score order" (Section 3). Hash indexes over join columns are built
//! lazily, on a column's first probe, standing in for the paper's "indexed
//! by join keys and score attributes" MySQL setup. An equality selection
//! is evaluated by a scan: it runs once per stream open.

use qsys_types::hash::FxHashMap;
use qsys_types::{BaseTuple, RelId, Selection, Value};
use std::sync::Arc;
use std::sync::RwLock;

/// A hash index over one column: the positions of the rows holding each
/// non-NULL value, grouped by value and ascending (score order) within a
/// group, plus one `(start, len)` range per value into them.
///
/// Keyed by the Fx hasher for the reason `qsys-exec`'s `access` module
/// gives for its own join-column maps: the values come from the simulated
/// sources' generators, no outside party chooses them, and a crowded
/// bucket costs host time only.
#[derive(Debug)]
pub(crate) struct ColumnIndex {
    positions: Vec<u32>,
    ranges: FxHashMap<Value, (u32, u32)>,
}

impl ColumnIndex {
    /// Index `column` of `rows`: number each distinct value by first
    /// appearance (one hash lookup per row) and count its rows, then place
    /// each row in its value's group, keeping row order.
    fn build(rows: &[Arc<BaseTuple>], column: usize) -> ColumnIndex {
        // Value → (group number, _) while building.
        let mut ranges: FxHashMap<Value, (u32, u32)> = FxHashMap::default();
        let mut lens: Vec<u32> = Vec::new();
        let groups: Vec<Option<u32>> = rows
            .iter()
            .map(|row| {
                let value = row
                    .values
                    .get(column)
                    .filter(|v| !matches!(v, Value::Null))?;
                let group = match ranges.get(value) {
                    Some(&(group, _)) => group,
                    None => {
                        ranges.insert(value.clone(), (lens.len() as u32, 0));
                        lens.push(0);
                        lens.len() as u32 - 1
                    }
                };
                lens[group as usize] += 1;
                Some(group)
            })
            .collect();
        let starts: Vec<u32> = lens
            .iter()
            .scan(0, |next, &len| {
                *next += len;
                Some(*next - len)
            })
            .collect();
        let mut fill = starts.clone();
        let mut positions = vec![0; lens.iter().sum::<u32>() as usize];
        for (pos, group) in groups.iter().enumerate() {
            if let Some(group) = *group {
                positions[fill[group as usize] as usize] = pos as u32;
                fill[group as usize] += 1;
            }
        }
        for range in ranges.values_mut() {
            let group = range.0 as usize;
            *range = (starts[group], lens[group]);
        }
        ColumnIndex { positions, ranges }
    }

    /// Positions of the rows whose column equals `value`, ascending; empty
    /// for NULL or a value no row holds.
    pub(crate) fn get(&self, value: &Value) -> &[u32] {
        self.ranges.get(value).map_or(&[], |&(start, len)| {
            &self.positions[start as usize..(start + len) as usize]
        })
    }
}

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
    indexes: RwLock<FxHashMap<usize, Arc<ColumnIndex>>>,
}

impl Table {
    /// Build a table from rows (sorted here; callers need not pre-sort).
    pub fn new(rel: RelId, mut rows: Vec<Arc<BaseTuple>>) -> Table {
        debug_assert!(rows.iter().all(|r| r.rel == rel));
        rows.sort_by(|a, b| b.raw_score.total_cmp(&a.raw_score));
        Table {
            rel,
            rows,
            indexes: RwLock::new(FxHashMap::default()),
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

    /// Rows matching `value` in `column`, via the (lazily built) hash
    /// index, in score order: the answer to a remote probe.
    pub(crate) fn probe(&self, column: usize, value: &Value) -> Vec<Arc<BaseTuple>> {
        if matches!(value, Value::Null) {
            return Vec::new();
        }
        self.index_for(column)
            .get(value)
            .iter()
            .map(|&p| Arc::clone(&self.rows[p as usize]))
            .collect()
    }

    /// Row positions (into the score-ordered row list) matching a selection,
    /// in score order. Used to materialize filtered streams. A scan: a
    /// selection is evaluated once per stream open, where an index over
    /// its (text) column would cost more to build than it saves.
    pub(crate) fn filtered_positions(&self, selection: Option<&Selection>) -> Vec<u32> {
        let all = 0..self.rows.len() as u32;
        match selection {
            None => all.collect(),
            Some(sel) => all
                .filter(|&p| sel.matches(&self.rows[p as usize].values))
                .collect(),
        }
    }

    /// The hash index over `column`, built on first use.
    pub(crate) fn index_for(&self, column: usize) -> Arc<ColumnIndex> {
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
        let index = Arc::new(ColumnIndex::build(&self.rows, column));
        self.indexes
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(column, Arc::clone(&index));
        index
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
    fn index_groups_each_value_in_score_order() {
        let rows = [(5, 0.2), (6, 0.9), (5, 0.5), (7, 0.4), (6, 0.1), (5, 0.8)];
        let mut rows: Vec<_> = rows
            .iter()
            .enumerate()
            .map(|(id, &(key, score))| row(0, id as u64, key, score))
            .collect();
        rows.push(Arc::new(BaseTuple::new(
            RelId::new(0),
            9,
            vec![Value::Null],
            0.7,
        )));
        let t = Table::new(RelId::new(0), rows);
        // Score order: 0.9 (6), 0.8 (5), 0.7 (NULL), 0.5 (5), 0.4 (7),
        // 0.2 (5), 0.1 (6).
        let index = t.index_for(0);
        assert_eq!(index.get(&Value::Int(5)), [1, 3, 5]);
        assert_eq!(index.get(&Value::Int(6)), [0, 6]);
        assert_eq!(index.get(&Value::Int(7)), [4]);
        assert!(index.get(&Value::Null).is_empty());
        assert!(index.get(&Value::Int(8)).is_empty());
        // One entry per non-NULL row; a short row has no value to index.
        assert_eq!(index.positions.len(), 6);
        assert!(t.index_for(2).positions.is_empty());
        // A NULL selection matches nothing, like a NULL join key.
        assert!(t
            .filtered_positions(Some(&Selection::eq(0, Value::Null)))
            .is_empty());
    }

    #[test]
    fn empty_table() {
        let t = Table::new(RelId::new(1), vec![]);
        assert!(t.is_empty());
        assert_eq!(t.max_score(), 0.0);
        assert!(t.probe(0, &Value::Int(1)).is_empty());
    }
}
