//! Dense per-batch query-set bitmasks.
//!
//! The BestPlan search (Algorithm 1) spends its exponential budget on three
//! set operations over "which conjunctive queries does this input source?":
//! difference (line 14's `S′[J′] = S[J′] − S[J]` adjustment), emptiness, and
//! cloning a candidate into the next search state. Represented as
//! `BTreeSet<CqId>`, each of those walks and reallocates a pointer-chasing
//! tree of heap nodes per branch of the search. A query batch, however, is
//! small and fixed for the whole search — the first 5-UQ batch of the GUS
//! seed-41 script is 71 CQs — so the same move the interner made for
//! signatures works one level up: number the batch's queries densely at
//! batch start ([`CqTable`]: `CqId` ↔ [`CqIdx`]) and make every query set a
//! bitmask over those indices ([`CqSet`]). Difference, union, intersection,
//! and emptiness become a handful of word ops; cloning is a small `memcpy`.
//!
//! The mask is a fixed inline array of `u64` words (4 words = 256 queries,
//! comfortably above the paper's ≤ 100-CQ batches but *not* a universal
//! bound — one word would already overflow on that 71-CQ batch), with a
//! heap spill for the rare oversized batch so no configuration panics.
//!
//! Iteration yields indices in ascending order, and [`CqTable`] assigns
//! indices in ascending `CqId` order — so code that used to iterate a
//! `BTreeSet<CqId>` visits queries in exactly the same order after the
//! rewrite. That ordering discipline is what keeps the optimizer's sharing
//! decisions (and its floating-point cost sums) bit-for-bit identical.

use crate::cq::ConjunctiveQuery;
use qsys_types::CqId;
use std::collections::HashMap;
use std::fmt;

/// Dense index of a conjunctive query within one batch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CqIdx(pub u16);

impl CqIdx {
    /// Raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for CqIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Words stored inline (no heap) — covers batches of up to 256 CQs.
const INLINE_WORDS: usize = 4;

/// A set of per-batch query indices as a bitmask.
///
/// Sets up to `INLINE_WORDS * 64` indices live entirely inline;
/// larger universes spill the high words to the heap. The spill is kept
/// canonical (trimmed of trailing zero words, dropped when empty) so the
/// derived `PartialEq`/`Hash` see one representation per mathematical set.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct CqSet {
    inline: [u64; INLINE_WORDS],
    spill: Option<Box<[u64]>>,
}

impl CqSet {
    /// The empty set.
    pub fn new() -> CqSet {
        CqSet::default()
    }

    /// Build a set from indices.
    pub fn from_indices(indices: impl IntoIterator<Item = CqIdx>) -> CqSet {
        let mut set = CqSet::new();
        for idx in indices {
            set.insert(idx);
        }
        set
    }

    #[inline]
    fn word(&self, w: usize) -> u64 {
        if w < INLINE_WORDS {
            self.inline[w]
        } else {
            self.spill
                .as_ref()
                .and_then(|s| s.get(w - INLINE_WORDS).copied())
                .unwrap_or(0)
        }
    }

    #[inline]
    fn word_count(&self) -> usize {
        INLINE_WORDS + self.spill.as_ref().map_or(0, |s| s.len())
    }

    /// Drop trailing zero spill words (and an all-zero spill entirely) so
    /// equal sets are representationally equal.
    fn canonicalize_spill(&mut self) {
        if let Some(spill) = &self.spill {
            let used = spill.iter().rposition(|w| *w != 0).map_or(0, |i| i + 1);
            if used == 0 {
                self.spill = None;
            } else if used < spill.len() {
                self.spill = Some(spill[..used].to_vec().into_boxed_slice());
            }
        }
    }

    /// Insert an index. Returns whether it was newly inserted.
    pub fn insert(&mut self, idx: CqIdx) -> bool {
        let (w, bit) = (idx.index() / 64, 1u64 << (idx.index() % 64));
        if w < INLINE_WORDS {
            let present = self.inline[w] & bit != 0;
            self.inline[w] |= bit;
            !present
        } else {
            let sw = w - INLINE_WORDS;
            let spill = self.spill.get_or_insert_with(|| Vec::new().into());
            if spill.len() <= sw {
                let mut grown = spill.to_vec();
                grown.resize(sw + 1, 0);
                *spill = grown.into_boxed_slice();
            }
            let present = spill[sw] & bit != 0;
            spill[sw] |= bit;
            !present
        }
    }

    /// Remove an index. Returns whether it was present.
    pub fn remove(&mut self, idx: CqIdx) -> bool {
        let (w, bit) = (idx.index() / 64, 1u64 << (idx.index() % 64));
        if w < INLINE_WORDS {
            let present = self.inline[w] & bit != 0;
            self.inline[w] &= !bit;
            present
        } else {
            let sw = w - INLINE_WORDS;
            let Some(spill) = self.spill.as_mut() else {
                return false;
            };
            let Some(word) = spill.get_mut(sw) else {
                return false;
            };
            let present = *word & bit != 0;
            *word &= !bit;
            if present {
                self.canonicalize_spill();
            }
            present
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, idx: CqIdx) -> bool {
        self.word(idx.index() / 64) & (1u64 << (idx.index() % 64)) != 0
    }

    /// Whether no index is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inline.iter().all(|w| *w == 0) && self.spill.is_none()
    }

    /// Number of indices set (population count).
    #[inline]
    pub fn len(&self) -> usize {
        let mut n: u32 = self.inline.iter().map(|w| w.count_ones()).sum();
        if let Some(spill) = &self.spill {
            n += spill.iter().map(|w| w.count_ones()).sum::<u32>();
        }
        n as usize
    }

    /// The smallest index, if any.
    pub fn first(&self) -> Option<CqIdx> {
        self.iter().next()
    }

    /// `self − other` (indices in `self` but not `other`).
    pub fn difference(&self, other: &CqSet) -> CqSet {
        let mut out = CqSet {
            inline: std::array::from_fn(|w| self.inline[w] & !other.inline[w]),
            spill: None,
        };
        if let Some(spill) = &self.spill {
            out.spill = Some(
                spill
                    .iter()
                    .enumerate()
                    .map(|(i, w)| w & !other.word(INLINE_WORDS + i))
                    .collect(),
            );
            out.canonicalize_spill();
        }
        out
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &CqSet) {
        for w in 0..INLINE_WORDS {
            self.inline[w] |= other.inline[w];
        }
        if let Some(other_spill) = &other.spill {
            let mut spill = self.spill.take().map(|s| s.to_vec()).unwrap_or_default();
            if spill.len() < other_spill.len() {
                spill.resize(other_spill.len(), 0);
            }
            for (i, w) in other_spill.iter().enumerate() {
                spill[i] |= w;
            }
            self.spill = Some(spill.into_boxed_slice());
            self.canonicalize_spill();
        }
    }

    /// Whether the sets share at least one index.
    pub fn intersects(&self, other: &CqSet) -> bool {
        let words = self.word_count().min(other.word_count());
        (0..words).any(|w| self.word(w) & other.word(w) != 0)
    }

    /// Size of the intersection (popcount of the AND — no allocation).
    pub fn intersection_len(&self, other: &CqSet) -> usize {
        let words = self.word_count().min(other.word_count());
        (0..words)
            .map(|w| (self.word(w) & other.word(w)).count_ones() as usize)
            .sum()
    }

    /// Ascending iterator over the indices set.
    pub fn iter(&self) -> CqSetIter<'_> {
        CqSetIter {
            set: self,
            word_idx: 0,
            current: self.word(0),
        }
    }
}

/// Ascending iterator over a [`CqSet`]'s indices.
pub struct CqSetIter<'a> {
    set: &'a CqSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for CqSetIter<'_> {
    type Item = CqIdx;

    fn next(&mut self) -> Option<CqIdx> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(CqIdx((self.word_idx * 64 + bit) as u16));
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.word_count() {
                return None;
            }
            self.current = self.set.word(self.word_idx);
        }
    }
}

impl<'a> IntoIterator for &'a CqSet {
    type Item = CqIdx;
    type IntoIter = CqSetIter<'a>;

    fn into_iter(self) -> CqSetIter<'a> {
        self.iter()
    }
}

/// Lexicographic over ascending elements — the order `BTreeSet<CqId>` sorts
/// in, which the clustering code's deterministic merge loop relies on.
impl Ord for CqSet {
    fn cmp(&self, other: &CqSet) -> std::cmp::Ordering {
        self.iter().cmp(other.iter())
    }
}

impl PartialOrd for CqSet {
    fn partial_cmp(&self, other: &CqSet) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for CqSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The per-batch dense index: `CqId` ↔ [`CqIdx`], assigned in ascending
/// `CqId` order so bitmask iteration order matches `BTreeSet<CqId>` order.
#[derive(Clone, Debug, Default)]
pub struct CqTable {
    ids: Vec<CqId>,
    index: HashMap<CqId, CqIdx>,
}

impl CqTable {
    /// Build the index over a batch's query ids (sorted and deduplicated).
    pub fn new(ids: impl IntoIterator<Item = CqId>) -> CqTable {
        let mut ids: Vec<CqId> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        assert!(
            ids.len() <= u16::MAX as usize + 1,
            "batch of {} CQs exceeds the dense-index range",
            ids.len()
        );
        let index = ids
            .iter()
            .enumerate()
            .map(|(i, id)| (*id, CqIdx(i as u16)))
            .collect();
        CqTable { ids, index }
    }

    /// Build the index for a query batch.
    pub fn from_queries<'a>(queries: impl IntoIterator<Item = &'a ConjunctiveQuery>) -> CqTable {
        CqTable::new(queries.into_iter().map(|cq| cq.id))
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Dense index of `id`. Panics if `id` is not in the batch.
    #[inline]
    pub fn idx(&self, id: CqId) -> CqIdx {
        self.index[&id]
    }

    /// The `CqId` at a dense index.
    #[inline]
    pub fn id(&self, idx: CqIdx) -> CqId {
        self.ids[idx.index()]
    }

    /// Bitmask over the given ids (each must be in the batch).
    pub fn set_of(&self, ids: impl IntoIterator<Item = CqId>) -> CqSet {
        CqSet::from_indices(ids.into_iter().map(|id| self.idx(id)))
    }

    /// Materialize a bitmask back into ascending `CqId`s.
    #[cfg(test)]
    pub(crate) fn ids_of(&self, set: &CqSet) -> Vec<CqId> {
        set.iter().map(|idx| self.id(idx)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_remove_contains() {
        let mut s = CqSet::new();
        assert!(s.is_empty());
        assert!(s.insert(CqIdx(3)));
        assert!(!s.insert(CqIdx(3)));
        assert!(s.insert(CqIdx(200)));
        assert!(s.contains(CqIdx(3)));
        assert!(s.contains(CqIdx(200)));
        assert!(!s.contains(CqIdx(4)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(CqIdx(3)));
        assert!(!s.remove(CqIdx(3)));
        assert_eq!(s.first(), Some(CqIdx(200)));
    }

    #[test]
    fn spill_handles_large_universes() {
        let mut s = CqSet::new();
        assert!(s.insert(CqIdx(1000)));
        assert!(s.contains(CqIdx(1000)));
        assert!(!s.contains(CqIdx(999)));
        assert_eq!(s.len(), 1);
        // Removing the spilled bit restores the canonical (spill-free)
        // representation, so equality with a never-spilled set holds.
        assert!(s.remove(CqIdx(1000)));
        assert_eq!(s, CqSet::new());
        let mut h1 = std::collections::hash_map::DefaultHasher::new();
        let mut h2 = h1.clone();
        use std::hash::{Hash, Hasher};
        s.hash(&mut h1);
        CqSet::new().hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn table_orders_by_cq_id() {
        let table = CqTable::new([CqId::new(9), CqId::new(2), CqId::new(5), CqId::new(2)]);
        assert_eq!(table.len(), 3);
        assert_eq!(table.idx(CqId::new(2)), CqIdx(0));
        assert_eq!(table.idx(CqId::new(5)), CqIdx(1));
        assert_eq!(table.idx(CqId::new(9)), CqIdx(2));
        assert_eq!(table.id(CqIdx(1)), CqId::new(5));
        let set = table.set_of([CqId::new(9), CqId::new(2)]);
        assert_eq!(table.ids_of(&set), vec![CqId::new(2), CqId::new(9)]);
    }

    #[test]
    fn ord_is_lexicographic_like_btreeset() {
        // {0, 5} < {1, 2} lexicographically (BTreeSet order), even though
        // the raw bitmask of {1, 2} is numerically smaller.
        let a = CqSet::from_indices([CqIdx(0), CqIdx(5)]);
        let b = CqSet::from_indices([CqIdx(1), CqIdx(2)]);
        assert!(a < b);
        // A prefix sorts before its extension.
        let c = CqSet::from_indices([CqIdx(1), CqIdx(2), CqIdx(9)]);
        assert!(b < c);
    }

    /// Reference implementation for the property tests.
    fn ref_set(s: &CqSet) -> BTreeSet<u16> {
        s.iter().map(|i| i.0).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Roundtrip through the `CqIdx` table: any id set drawn from the
        /// batch maps to a bitmask and back without loss, in id order.
        #[test]
        fn table_roundtrip(
            batch in prop::collection::vec(0u32..500, 1..60),
            picks in prop::collection::vec(0usize..60, 0..30),
        ) {
            let batch: BTreeSet<u32> = batch.into_iter().collect();
            let ids: Vec<CqId> = batch.iter().map(|i| CqId::new(*i)).collect();
            let table = CqTable::new(ids.clone());
            let chosen: BTreeSet<CqId> =
                picks.iter().map(|p| ids[p % ids.len()]).collect();
            let set = table.set_of(chosen.iter().copied());
            prop_assert_eq!(set.len(), chosen.len());
            let back = table.ids_of(&set);
            let expect: Vec<CqId> = chosen.into_iter().collect();
            prop_assert_eq!(back, expect, "ascending CqId order preserved");
        }

        /// Difference and union agree with the `BTreeSet` reference,
        /// including across the inline/spill boundary.
        #[test]
        fn set_ops_match_btreeset(
            a in prop::collection::vec(0u16..320, 0..48),
            b in prop::collection::vec(0u16..320, 0..48),
        ) {
            let a: BTreeSet<u16> = a.into_iter().collect();
            let b: BTreeSet<u16> = b.into_iter().collect();
            let sa = CqSet::from_indices(a.iter().map(|i| CqIdx(*i)));
            let sb = CqSet::from_indices(b.iter().map(|i| CqIdx(*i)));
            prop_assert_eq!(ref_set(&sa), a.clone());

            let diff = sa.difference(&sb);
            let ref_diff: BTreeSet<u16> = a.difference(&b).copied().collect();
            prop_assert_eq!(ref_set(&diff), ref_diff.clone());
            prop_assert_eq!(diff.is_empty(), ref_diff.is_empty());
            prop_assert_eq!(diff.len(), ref_diff.len());

            let mut union = sa.clone();
            union.union_with(&sb);
            let ref_union: BTreeSet<u16> = a.union(&b).copied().collect();
            prop_assert_eq!(ref_set(&union), ref_union);

            prop_assert_eq!(
                sa.intersects(&sb),
                a.intersection(&b).next().is_some()
            );
            prop_assert_eq!(sa.intersection_len(&sb), a.intersection(&b).count());

            // Clones are equal and hash-equal (canonical representation).
            prop_assert_eq!(&sa.clone(), &sa);
            // Equality against an equal set built along a different path
            // (insert + remove churn) still holds.
            let mut churned = sa.clone();
            churned.union_with(&sb);
            for i in &b {
                if !a.contains(i) {
                    churned.remove(CqIdx(*i));
                }
            }
            prop_assert_eq!(&churned, &sa);
        }
    }
}
