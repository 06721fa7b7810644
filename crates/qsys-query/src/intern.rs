//! Hash-consed subexpression signatures.
//!
//! Every sharing structure in the system — BestPlan's memo, the
//! candidate pool, the reuse oracle, plan factorization, the QS
//! manager's pin/evict index, and the live plan graph's signature index —
//! ultimately asks "are these two subexpressions *the same*?". Answering
//! that with deep [`SubExprSig`] comparisons (two `Vec`s each) on every
//! memo probe and reuse lookup makes the hottest operation in the optimizer
//! O(|sig|) and forces signatures to be cloned wholesale into specs, graph
//! nodes, and indexes.
//!
//! [`SigInterner`] is a Cascades-memo-style hash-consing table: each
//! canonical signature is stored once in an arena and named by a dense
//! [`SigId`]. After interning,
//!
//! - signature equality is a `u32` compare,
//! - map/set keys over signatures hash one integer instead of two vectors,
//!   and
//! - signatures move around as `Copy` ids instead of cloned vectors.
//!
//! Interning is a representation change only: one interner is shared per
//! engine lane (`SharedInterner`), so ids are stable across query batches —
//! which is also what makes the QS manager's reuse index a true persistent
//! memo across time.
//!
//! The arena additionally caches each signature's sorted relation set, so
//! the optimizer's overlap tests (`shares_relation`) run on slices without
//! resolving — or allocating — anything.
//!
//! Each entry is a [`HashedSig`], a signature with its hash computed once
//! when it is built, held by a shared handle ([`SharedSig`]) that the map
//! and the arena both point to. A conjunctive query carries its
//! whole-query signature as such a handle: candidate generation builds it
//! once per network, and every query ranked from the network shares it
//! ([`ConjunctiveQuery::whole_sig`]). [`SigInterner::of_cq`] stores that
//! handle itself, and it and [`SigInterner::find_cq`] find the handle by
//! its cached hash and then its address, so the optimizer's
//! whole-query interning and the QS manager's seal build and hash no
//! signature. Content is compared only when an equal signature is held
//! under another handle — a subexpression interned first, another
//! network with the same content, or a network the memo regenerated after
//! emptying — and `of_cq` then keeps the newer handle. Which handle an
//! entry holds never changes its id.
//!
//! The map hashes with [`FxHashMap`]: it is probed for every subexpression
//! a batch names, and its keys are signatures the engine assembles from
//! its own catalog (a keyword only selects among the keyword index's
//! values), so no outside party chooses them.

use crate::cq::ConjunctiveQuery;
use crate::subexpr::SubExprSig;
use qsys_types::hash::FxHasher;
use qsys_types::{FxHashMap, JoinCond, RelId, Selection};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Dense identifier of an interned [`SubExprSig`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SigId(pub u32);

impl SigId {
    /// Raw arena index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "σ{}", self.0)
    }
}

impl fmt::Display for SigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "σ{}", self.0)
    }
}

/// A canonical [`SubExprSig`] with its hash, computed once when it is
/// built. Two are equal when they are one value (an address compare) or
/// when their hashes and then their signatures are equal; a map over them
/// hashes the cached `u64` only.
#[derive(Debug)]
pub struct HashedSig {
    sig: SubExprSig,
    hash: u64,
}

/// A shared [`HashedSig`]: a conjunctive query's whole-query signature
/// ([`ConjunctiveQuery::whole_sig`]), and each [`SigInterner`] entry.
pub type SharedSig = Arc<HashedSig>;

impl HashedSig {
    /// Hash a canonical signature (sorted atoms; normalized, sorted,
    /// deduplicated joins, as [`SubExprSig::new`] leaves them).
    pub(crate) fn new(sig: SubExprSig) -> HashedSig {
        debug_assert!(sig.atoms.is_sorted() && sig.joins.is_sorted());
        let mut hasher = FxHasher::default();
        sig.hash(&mut hasher);
        let hash = hasher.finish();
        HashedSig { sig, hash }
    }

    /// The signature.
    pub(crate) fn sig(&self) -> &SubExprSig {
        &self.sig
    }
}

impl PartialEq for HashedSig {
    fn eq(&self, other: &HashedSig) -> bool {
        std::ptr::eq(self, other) || (self.hash == other.hash && self.sig == other.sig)
    }
}

impl Eq for HashedSig {}

impl Hash for HashedSig {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// One arena slot: the canonical signature plus derived data the hot paths
/// keep asking for.
#[derive(Debug)]
struct SigEntry {
    /// The canonical signature (stored exactly once, shared with the map's
    /// key and with every conjunctive query whose handle it is).
    sig: SharedSig,
    /// Sorted relations covered (mirror of `sig.atoms`, cached so overlap
    /// checks never allocate).
    rels: Box<[RelId]>,
}

/// The hash-consing table: canonical [`SubExprSig`] → dense [`SigId`].
#[derive(Debug, Default)]
pub struct SigInterner {
    map: FxHashMap<SharedSig, SigId>,
    arena: Vec<SigEntry>,
}

/// Shared-ownership cell around the interner, for sharing between the
/// optimizer (which interns) and the state manager (which resolves).
///
/// Each engine lane owns exactly one interner and drives it from a single
/// thread, but lanes run on real OS threads, so the cell must be `Send` +
/// `Sync`. The lock is an uncontended `RwLock` whose guards are exposed
/// through `RefCell`-shaped `borrow` / `borrow_mut` accessors: the borrow
/// discipline is the same one `RefCell` enforced, with poisoning ignored
/// (a panic mid-intern aborts the lane anyway).
#[derive(Debug, Default)]
pub struct SigCell(RwLock<SigInterner>);

impl SigCell {
    /// Wrap an interner.
    pub fn new(inner: SigInterner) -> SigCell {
        SigCell(RwLock::new(inner))
    }

    /// Shared (read) access.
    pub fn borrow(&self) -> RwLockReadGuard<'_, SigInterner> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Exclusive (write) access.
    pub fn borrow_mut(&self) -> RwLockWriteGuard<'_, SigInterner> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// The engine-lane handle: one interner shared by optimizer, QS manager,
/// and plan graph, keeping ids stable across batches.
pub type SharedInterner = Arc<SigCell>;

/// A fresh shareable interner.
pub fn shared_interner() -> SharedInterner {
    Arc::new(SigCell::default())
}

impl SigInterner {
    /// An empty interner.
    pub fn new() -> SigInterner {
        SigInterner::default()
    }

    /// Number of distinct signatures interned.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Intern a signature, canonicalizing first: `intern(a) == intern(b)`
    /// exactly when the canonical forms are equal, regardless of the atom /
    /// join order the caller assembled.
    pub fn intern(&mut self, mut sig: SubExprSig) -> SigId {
        if !sig.atoms.is_sorted() {
            sig.atoms.sort();
        }
        // Orient every join canonically — callers assembling signatures
        // by hand may have them flipped.
        for join in &mut sig.joins {
            *join = join.normalized();
        }
        if !sig.joins.is_sorted() {
            sig.joins.sort();
        }
        sig.joins.dedup();
        self.intern_canonical(sig)
    }

    /// Intern the signature of a single (optionally filtered) relation.
    pub fn relation(&mut self, rel: RelId, selection: Option<Selection>) -> SigId {
        self.intern_canonical(SubExprSig::relation(rel, selection))
    }

    /// Intern the whole-query signature of a conjunctive query, through
    /// its shared handle: no signature is built or hashed. When an equal
    /// signature is held under another handle, the query's handle replaces
    /// it, so the next lookup through this handle is an address compare.
    pub fn of_cq(&mut self, cq: &ConjunctiveQuery) -> SigId {
        let handle = cq.whole_sig();
        let Some((held, &id)) = self.map.get_key_value(&**handle) else {
            return self.insert(Arc::clone(handle));
        };
        if !Arc::ptr_eq(held, handle) {
            self.map.remove(&**handle);
            self.map.insert(Arc::clone(handle), id);
            self.arena[id.index()].sig = Arc::clone(handle);
        }
        id
    }

    /// Look up a conjunctive query's whole-query signature without
    /// inserting, through its shared handle ([`SigInterner::of_cq`]).
    pub fn find_cq(&self, cq: &ConjunctiveQuery) -> Option<SigId> {
        self.map.get(&**cq.whole_sig()).copied()
    }

    /// Intern the join of two interned signatures under `preds`, in any
    /// orientation. The result is the canonical union signature, whichever
    /// pair of parts it was assembled from.
    pub fn combine(&mut self, a: SigId, b: SigId, preds: &[JoinCond]) -> SigId {
        let (ea, eb) = (self.resolve(a), self.resolve(b));
        let mut atoms = Vec::with_capacity(ea.atoms.len() + eb.atoms.len());
        atoms.extend(ea.atoms.iter().cloned());
        atoms.extend(eb.atoms.iter().cloned());
        atoms.sort();
        let mut joins = Vec::with_capacity(ea.joins.len() + eb.joins.len() + preds.len());
        joins.extend(ea.joins.iter().copied());
        joins.extend(eb.joins.iter().copied());
        joins.extend(preds.iter().map(|p| p.normalized()));
        joins.sort();
        joins.dedup();
        self.intern_canonical(SubExprSig { atoms, joins })
    }

    fn intern_canonical(&mut self, sig: SubExprSig) -> SigId {
        let sig = HashedSig::new(sig);
        match self.map.get(&sig) {
            Some(&id) => id,
            None => self.insert(Arc::new(sig)),
        }
    }

    /// Store a signature the map does not hold under the next id.
    fn insert(&mut self, sig: SharedSig) -> SigId {
        let id = SigId(self.arena.len() as u32);
        let rels: Box<[RelId]> = sig.sig.atoms.iter().map(|(r, _)| *r).collect();
        self.map.insert(Arc::clone(&sig), id);
        self.arena.push(SigEntry { sig, rels });
        id
    }

    /// Look up an already-interned canonical signature without inserting.
    pub fn get(&self, sig: &SubExprSig) -> Option<SigId> {
        self.map.get(&HashedSig::new(sig.clone())).copied()
    }

    /// The canonical signature behind `id`.
    #[inline]
    pub fn resolve(&self, id: SigId) -> &SubExprSig {
        &self.arena[id.index()].sig.sig
    }

    /// Sorted relations covered by `id` (cached; no allocation).
    #[inline]
    pub fn rels(&self, id: SigId) -> &[RelId] {
        &self.arena[id.index()].rels
    }

    /// Atom count of `id`.
    #[inline]
    pub fn size(&self, id: SigId) -> usize {
        self.arena[id.index()].sig.sig.atoms.len()
    }

    /// The arena in id order: each entry's canonical signature (what the
    /// invariant verifier checks for canonical form and duplicates).
    pub fn export_entries(&self) -> Vec<SubExprSig> {
        self.arena.iter().map(|e| e.sig.sig.clone()).collect()
    }

    /// Whether two interned signatures cover at least one common relation
    /// (sorted-merge over the cached relation slices; no allocation).
    pub fn shares_relation(&self, a: SigId, b: SigId) -> bool {
        if a == b {
            return !self.rels(a).is_empty();
        }
        let (ra, rb) = (self.rels(a), self.rels(b));
        let (mut i, mut j) = (0, 0);
        while i < ra.len() && j < rb.len() {
            match ra[i].cmp(&rb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::{CqAtom, CqJoin};
    use qsys_catalog::EdgeId;
    use qsys_types::{CqId, UqId, UserId, Value};

    fn sig(rels: &[u32]) -> SubExprSig {
        SubExprSig::new(
            rels.iter().map(|&r| (RelId::new(r), None)).collect(),
            Vec::new(),
        )
    }

    #[test]
    fn interning_is_injective_on_canonical_forms() {
        let mut interner = SigInterner::new();
        let a = interner.intern(sig(&[1, 2]));
        let b = interner.intern(sig(&[2, 1])); // normalized to the same form
        let c = interner.intern(sig(&[1, 3]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.resolve(a), &sig(&[1, 2]));
    }

    #[test]
    fn selections_distinguish_signatures() {
        let mut interner = SigInterner::new();
        let plain = interner.relation(RelId::new(7), None);
        let selected = interner.relation(RelId::new(7), Some(Selection::eq(0, Value::str("kw"))));
        assert_ne!(plain, selected);
        assert_eq!(interner.rels(plain), interner.rels(selected));
    }

    #[test]
    fn combine_normalizes_to_the_union_signature() {
        let mut interner = SigInterner::new();
        let a = interner.relation(RelId::new(1), None);
        let b = interner.relation(RelId::new(2), None);
        let flipped = JoinCond {
            left: RelId::new(2),
            left_col: 0,
            right: RelId::new(1),
            right_col: 1,
        };
        let ab = interner.combine(a, b, &[flipped]);
        assert_eq!(interner.rels(ab), &[RelId::new(1), RelId::new(2)]);
        // The join was flipped into left ≤ right normal form.
        assert_eq!(interner.resolve(ab).joins, vec![flipped.normalized()]);
        assert_eq!(interner.resolve(ab).joins[0].left, RelId::new(1));
        // Interning the same union directly resolves to the same id.
        let direct = interner.intern(SubExprSig {
            atoms: vec![(RelId::new(1), None), (RelId::new(2), None)],
            joins: vec![flipped],
        });
        assert_eq!(direct, ab);
    }

    #[test]
    fn of_cq_matches_manual_interning() {
        let atoms = vec![
            CqAtom {
                rel: RelId::new(0),
                selection: None,
            },
            CqAtom {
                rel: RelId::new(1),
                selection: None,
            },
        ];
        let joins = vec![CqJoin {
            edge: EdgeId(0),
            on: JoinCond {
                left: RelId::new(0),
                left_col: 1,
                right: RelId::new(1),
                right_col: 0,
            },
        }];
        let cq = ConjunctiveQuery::new(CqId::new(0), UqId::new(0), UserId::new(0), atoms, joins);
        let mut interner = SigInterner::new();
        let by_cq = interner.of_cq(&cq);
        let by_sig = interner.intern(SubExprSig::of_cq(&cq));
        assert_eq!(by_cq, by_sig);
    }

    /// Two conjunctive queries built apart: equal content, distinct
    /// whole-query handles.
    #[test]
    fn equal_handles_intern_to_one_id_and_are_stored_once() {
        let atoms = || {
            vec![
                CqAtom {
                    rel: RelId::new(4),
                    selection: Some(Selection::eq(2, Value::str("kinase"))),
                },
                CqAtom {
                    rel: RelId::new(9),
                    selection: None,
                },
            ]
        };
        let joins = || {
            vec![CqJoin {
                edge: EdgeId(3),
                on: JoinCond {
                    left: RelId::new(9),
                    left_col: 0,
                    right: RelId::new(4),
                    right_col: 1,
                },
            }]
        };
        let cq = |id| {
            ConjunctiveQuery::new(
                CqId::new(id),
                UqId::new(id),
                UserId::new(0),
                atoms(),
                joins(),
            )
        };
        let (a, b) = (cq(0), cq(1));
        assert!(!Arc::ptr_eq(a.whole_sig(), b.whole_sig()));

        let mut interner = SigInterner::new();
        let id = interner.of_cq(&a);
        // Stored once: the arena entry is `a`'s own signature, not a copy.
        assert_eq!(interner.len(), 1);
        assert!(std::ptr::eq(interner.resolve(id), a.whole_sig().sig()));
        assert_eq!(interner.find_cq(&b), Some(id), "found by content");
        // Interning `b` keeps the id and adopts `b`'s handle.
        assert_eq!(interner.of_cq(&b), id);
        assert_eq!(interner.len(), 1);
        assert!(std::ptr::eq(interner.resolve(id), b.whole_sig().sig()));
        assert_eq!(interner.find_cq(&a), Some(id));
        // A fresh deep build names the same entry, and so does a join of
        // its parts.
        assert_eq!(interner.get(&SubExprSig::of_cq(&a)), Some(id));
        assert_eq!(interner.intern(SubExprSig::of_cq(&b)), id);
        let r4 = interner.relation(RelId::new(4), atoms()[0].selection.clone());
        let r9 = interner.relation(RelId::new(9), None);
        assert_eq!(interner.combine(r9, r4, &[joins()[0].on]), id);
        assert_eq!(interner.len(), 3);
    }

    #[test]
    fn shares_relation_uses_cached_rel_sets() {
        let mut interner = SigInterner::new();
        let ab = interner.intern(sig(&[1, 2]));
        let bc = interner.intern(sig(&[2, 3]));
        let cd = interner.intern(sig(&[3, 4]));
        assert!(interner.shares_relation(ab, bc));
        assert!(!interner.shares_relation(ab, cd));
        assert!(interner.shares_relation(ab, ab));
    }
}
