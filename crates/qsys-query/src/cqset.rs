//! Per-search query sets. A BestPlan search covers one user query's CQs, at
//! most `candidate.max_cqs` ≤ [`CqSet::CAPACITY`], numbered by a [`CqTable`] in
//! ascending `CqId` order. A [`CqSet`] is one `u64` iterated in ascending order,
//! as a `BTreeSet<CqId>` is, so sharing decisions and cost sums stay bit-stable.

use crate::cq::ConjunctiveQuery;
use qsys_types::CqId;

/// A query's dense index within one search: below 64 (a [`CqTable`]'s).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CqIdx(u8);

impl CqIdx {
    /// Raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// This index's bit.
    #[inline]
    const fn bit(self) -> u64 {
        1 << self.0
    }
}

/// A set of per-search query indices as one 64-bit mask.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CqSet(u64);

impl CqSet {
    /// Most indices one set holds: one bit per query of a search.
    pub const CAPACITY: usize = u64::BITS as usize;

    /// Insert an index.
    #[inline]
    pub fn insert(&mut self, idx: CqIdx) {
        self.0 |= idx.bit();
    }

    /// Remove an index. Returns whether it was present.
    #[inline]
    pub fn remove(&mut self, idx: CqIdx) -> bool {
        let present = self.contains(idx);
        self.0 &= !idx.bit();
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, idx: CqIdx) -> bool {
        self.0 & idx.bit() != 0
    }

    /// Whether no index is set.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of indices set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// `self − other` (indices in `self` but not `other`).
    #[inline]
    pub fn difference(self, other: CqSet) -> CqSet {
        CqSet(self.0 & !other.0)
    }

    /// Whether the sets share at least one index.
    #[inline]
    pub fn intersects(self, other: CqSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Ascending iterator over the indices set.
    pub fn iter(self) -> impl Iterator<Item = CqIdx> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            let idx = (bits != 0).then(|| CqIdx(bits.trailing_zeros() as u8));
            bits &= bits.wrapping_sub(1);
            idx
        })
    }
}

impl std::fmt::Debug for CqSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// One search's dense index: a query's [`CqIdx`] is its position among the
/// search's `CqId`s in ascending order.
#[derive(Clone, Debug, Default)]
pub struct CqTable {
    ids: Vec<CqId>,
}

impl CqTable {
    /// Build the index over a search's query ids (sorted and deduplicated).
    /// Panics above [`CqSet::CAPACITY`] ids.
    pub fn new(ids: impl IntoIterator<Item = CqId>) -> CqTable {
        let mut ids: Vec<CqId> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        let n = ids.len();
        assert!(
            n <= CqSet::CAPACITY,
            "{n} CQs in one search exceed CqSet::CAPACITY; lower candidate.max_cqs"
        );
        CqTable { ids }
    }

    /// Build the index for the queries one search covers.
    pub fn from_queries<'a>(queries: impl IntoIterator<Item = &'a ConjunctiveQuery>) -> CqTable {
        CqTable::new(queries.into_iter().map(|cq| cq.id))
    }

    /// Dense index of `id`. Panics if `id` is not in the table.
    pub fn idx(&self, id: CqId) -> CqIdx {
        CqIdx(self.ids.binary_search(&id).expect("query in the table") as u8)
    }

    /// The `CqId` at a dense index.
    #[inline]
    pub fn id(&self, idx: CqIdx) -> CqId {
        self.ids[idx.index()]
    }

    /// Bitmask over the given ids (each must be in the table).
    pub fn set_of(&self, ids: impl IntoIterator<Item = CqId>) -> CqSet {
        let bits = ids
            .into_iter()
            .fold(0, |bits, id| bits | self.idx(id).bit());
        CqSet(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn table_holds_sixty_four_queries_and_refuses_more() {
        let full = CqTable::new((0..64).map(CqId::new));
        assert_eq!(full.id(full.idx(CqId::new(63))), CqId::new(63));
        let wide = std::panic::catch_unwind(|| CqTable::new((0..65).map(CqId::new)));
        assert!(wide.is_err(), "65 CQs do not fit one CqSet");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A subset of up to 64 ids goes through `set_of` and back, in order.
        #[test]
        fn table_roundtrip(
            batch in prop::collection::vec(0u32..500, 1..=64),
            picks in prop::collection::vec(0usize..64, 0..30),
        ) {
            let batch: BTreeSet<u32> = batch.into_iter().collect();
            let ids: Vec<CqId> = batch.iter().map(|i| CqId::new(*i)).collect();
            let table = CqTable::new(ids.iter().rev().chain(&ids).copied());
            let chosen: BTreeSet<CqId> = picks.iter().map(|p| ids[p % ids.len()]).collect();
            let set = table.set_of(chosen.iter().copied());
            let back = set.iter().map(|i| table.id(i));
            prop_assert!(back.eq(chosen.iter().copied()), "ascending CqId order preserved");
        }

        /// Set operations match the `BTreeSet` reference and iterate in order.
        #[test]
        fn set_ops_match_btreeset(
            a in prop::collection::vec(0u8..64, 0..48),
            b in prop::collection::vec(0u8..64, 0..48),
        ) {
            let a: BTreeSet<u8> = a.into_iter().collect();
            let b: BTreeSet<u8> = b.into_iter().collect();
            let set = |s: &BTreeSet<u8>| CqSet(s.iter().fold(0, |m, i| m | CqIdx(*i).bit()));
            let (sa, sb) = (set(&a), set(&b));
            prop_assert!(sa.iter().map(|i| i.0).eq(a.iter().copied()), "ascending");
            let diff: BTreeSet<u8> = a.difference(&b).copied().collect();
            let d = sa.difference(sb);
            prop_assert_eq!((d, d.len()), (set(&diff), diff.len()));
            prop_assert_eq!(sa.intersects(sb), a.intersection(&b).next().is_some());
            let mut churned = sa;
            b.iter().for_each(|i| churned.insert(CqIdx(*i)));
            prop_assert_eq!(churned, set(&a.union(&b).copied().collect()));
            for i in b.difference(&a) {
                prop_assert!(churned.remove(CqIdx(*i)) && !churned.contains(CqIdx(*i)));
            }
            prop_assert_eq!(churned, sa);
        }
    }
}
