//! Access modules: the per-input state of an m-join.
//!
//! Following the STeM design [24] and the paper's Section 4.1, each m-join
//! input has an *access module* against which other inputs' tuples are
//! probed:
//!
//! - for a **streaming** input it is a hash table over the input's tuples
//!   ([`StoredModule`]), maintained in arrival order and partitioned by
//!   epoch — exactly the structure Section 6.2 requires so `RecoverState`
//!   can replay "the set of tuples in the order they were received from the
//!   input stream" without duplicates (the paper embeds a linked list in the
//!   hash table; an arrival-ordered arena with hash indexes over positions
//!   is the idiomatic Rust equivalent with the same traversal guarantees);
//! - for a **random access** source it is a wrapper that probes the remote
//!   site by join key ([`RemoteModule`]), caching results so repeat probes
//!   are free ("given that we cache tuples from random probes, we can
//!   expect the rate of probing to decrease over time", Section 7.1).
//!
//! ### One stored module per producer output
//!
//! A stored module is the hash table of one *producer's output* — a stream
//! leaf's tuples, or an m-join's results — not of one consuming join: the
//! STeM design [24] keeps one such module per input stream. Every m-join
//! input fed by the same producer names the same module by the same
//! [`ModuleId`], each holding its own arena reference, and keeps a
//! *cursor*: the number of the module's entries it has seen arrive
//! (`StoredModule::arrive`). An arrival appends the tuple only when the
//! input's cursor equals the module's length — it is the first consumer to
//! see it; every later consumer finds the very same `Arc` at its cursor
//! (checked, not assumed) and only advances. A tuple is stored once per
//! producer, however many joins consume it.
//!
//! Who holds the module: a **stream leaf** owns its module from creation
//! (one arena reference, [`StreamLeaf::module`](crate::node::StreamLeaf::module))
//! and stores every tuple it reads there, stamped with the graph epoch,
//! before routing it — so the module is the leaf's one record of its
//! output, and a stream-fed arrival always finds its tuple at its cursor
//! and only advances. An **m-join producer** owns nothing: its module is
//! held by its storing consumers, and the first of them to receive a
//! result appends it.
//!
//! Why sharing is exact: all the tuples of one routing pass contain the
//! relations of the tuple read, and an m-join's inputs cover disjoint
//! relations, so one pass reaches an m-join on at most one input — an
//! m-join never probes a module that grew in the same pass. (A leaf's
//! tuple enters its module before its pass, not when its first consumer
//! receives it; between those two points only that pass runs, and it
//! reaches no m-join on any input but the stream's own. Recovery joins
//! that share the module are capped at an epoch the new tuple does not
//! precede.) And every
//! consumer of a producer receives its outputs in the same order. So at
//! every pass boundary each sharing input's cursor equals the module's
//! length, and the module holds, entry for entry, what a private module of
//! that input would. The state manager keeps the same promise at graft,
//! where a new consumer either attaches to the producer's module or gets a
//! freshly prefilled one (`state::recover` says which, and why).
//!
//! What an input pays does not depend on who else shares its module: an
//! arrival charges `2 · max(own keys, 1)` join µs, where *own keys* are the
//! distinct probe keys the input's own m-join registers on it (the index
//! count a private module would have had), and
//! `MJoin::approx_bytes` prices each
//! input at `entries · 64 + own keys · entries · 24` bytes. The virtual
//! clock and the eviction budget therefore see exactly what they saw when
//! every input had a private copy.
//!
//! ### The module maximum
//!
//! A stored module keeps the largest raw-score product
//! ([`Tuple::raw_score_product`]) of any entry it holds, updated on every
//! [`StoredModule::push`] — the only way an entry gets in — and never
//! lowered (entries are never removed). Whatever a probe of the module
//! yields, under any epoch cap or residual selection, is one of those
//! entries, so a match's raw product is at most the maximum. A probe cache
//! reports 1.0, the ceiling of every raw score, because what a remote
//! relation holds is unknown until it is probed; a detached input reports
//! 0, since it yields nothing. `AccessModule::raw_product_max` is the
//! number an m-join's score bound for a partial result multiplies in for
//! each input the partial has not been joined with yet (the `mjoin` module
//! docs, *Early rejection*).
//!
//! ### What is hashed, and with what
//!
//! Both kinds of module are maps from a join-column [`Value`] to the rows
//! carrying it, consulted once per m-join insert (per index) and once per
//! probe — the innermost loop of the executor. They are keyed by
//! [`FxHashMap`] (`qsys_types::hash`: a rotate, an xor and a multiply per
//! word) instead of the standard library's SipHash, and the outer level —
//! which probe key of a stored module, which column of a probe cache — is
//! a short `Vec` scanned linearly (an m-join input carries one to three
//! probe keys), so a lookup hashes exactly one `Value`, by reference.
//!
//! Dropping SipHash drops its HashDoS protection. That is sound here
//! because the keys are join-column values of the *simulated* sources: the
//! workload generators produce them, no party outside the program chooses
//! them, and a degenerate bucket would cost host time only, never an
//! answer. A real backend (the parked *real backends* roadmap item) feeds
//! these maps values a remote party controls and must revisit the choice.

use qsys_source::Sources;
use qsys_types::{Epoch, FxHashMap, RelId, SimClock, TimeCategory, Tuple, Value};
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

/// A probe key: which (relation, column) the lookup addresses.
pub(crate) type ProbeKey = (RelId, usize);

/// The inner level of both module kinds: join-column value → `T`.
type ByValue<T> = FxHashMap<Value, T>;

/// Dense identifier of an access module in a lane's [`AccessModuleArena`].
///
/// This is the `Send`-safe replacement for the old `Rc<RefCell<_>>` module
/// handles: m-join inputs, the QS manager's shared probe caches, and
/// recovery joins all name the same module by the same `Copy` id, and the
/// lane-owned arena provides the storage — cross-operator sharing within a
/// lane needs no locks because a lane is internally single-threaded.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModuleId(pub u32);

impl ModuleId {
    /// Sentinel for an input that owns no module at all: recovery replay
    /// inputs neither store arrivals nor get probed (tuples only ever
    /// *arrive* on them), so they carry no state. The arena resolves it to
    /// `None`.
    pub(crate) const DETACHED: ModuleId = ModuleId(u32::MAX);

    /// Whether this is the `Self::DETACHED` sentinel.
    #[inline]
    pub fn is_detached(self) -> bool {
        self == ModuleId::DETACHED
    }

    /// Raw arena index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_detached() {
            write!(f, "m·")
        } else {
            write!(f, "m{}", self.0)
        }
    }
}

/// One lane's arena of access modules, keyed by dense [`ModuleId`].
///
/// Slots are reference-counted by *graph residency*: allocating takes the
/// first reference, every additional graph-resident m-join input sharing
/// the module (consumers of one producer, shared probe caches, recovery
/// joins over live hash tables) takes one via [`Self::retain`], and the
/// plan graph releases one per
/// input when a node is removed — the slot is recycled when the count hits
/// zero. Transient m-joins (state-recovery replays that never enter the
/// graph) reference ids without retaining; they must not outlive the call
/// that built them.
///
/// Module state is behind `RefCell`, not a lock: the arena belongs to one
/// lane and is only touched from that lane's thread (`Send`, not `Sync`).
#[derive(Debug, Default)]
pub struct AccessModuleArena {
    slots: Vec<Option<RefCell<AccessModule>>>,
    refs: Vec<u32>,
    free: Vec<u32>,
}

impl AccessModuleArena {
    /// An empty arena.
    pub fn new() -> AccessModuleArena {
        AccessModuleArena::default()
    }

    /// Store a module, taking the first reference on its slot.
    pub fn alloc(&mut self, module: AccessModule) -> ModuleId {
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(RefCell::new(module));
            self.refs[idx as usize] = 1;
            return ModuleId(idx);
        }
        let idx = self.slots.len() as u32;
        assert!(idx < u32::MAX, "access-module arena overflow");
        self.slots.push(Some(RefCell::new(module)));
        self.refs.push(1);
        ModuleId(idx)
    }

    /// Take an additional reference on a live slot (a new graph-resident
    /// input now shares the module). Returns the same id for convenience.
    pub fn retain(&mut self, id: ModuleId) -> ModuleId {
        if !id.is_detached() {
            debug_assert!(self.slots[id.index()].is_some(), "retain of a freed slot");
            self.refs[id.index()] += 1;
        }
        id
    }

    /// Drop one reference; the slot is recycled when none remain.
    pub fn release(&mut self, id: ModuleId) {
        if id.is_detached() {
            return;
        }
        let idx = id.index();
        debug_assert!(self.refs[idx] > 0, "release of a freed slot");
        self.refs[idx] -= 1;
        if self.refs[idx] == 0 {
            self.slots[idx] = None;
            self.free.push(id.0);
        }
    }

    /// The module behind `id`; `None` for `ModuleId::DETACHED`. Panics
    /// on a freed slot (a stale id is a lifecycle bug, not a miss).
    #[inline]
    pub fn module(&self, id: ModuleId) -> Option<&RefCell<AccessModule>> {
        if id.is_detached() {
            return None;
        }
        match self.slots.get(id.index()) {
            Some(Some(cell)) => Some(cell),
            _ => panic!(
                "stale ModuleId m{} dereferenced after release — retain/release \
                 lifecycle bug (qsys-verify flags these as RefcountSkew)",
                id.0
            ),
        }
    }

    /// Number of live (allocated, unreleased) modules.
    pub fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Whether no modules are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The reference count on `id`'s slot: `None` for a detached or freed
    /// id. Read-only audit access for `qsys-verify`'s residency check
    /// (slot refs must equal graph residency plus external probe-cache
    /// registrations) — execution code never needs to observe counts.
    pub fn ref_count(&self, id: ModuleId) -> Option<u32> {
        if id.is_detached() || self.slots.get(id.index())?.is_none() {
            return None;
        }
        Some(self.refs[id.index()])
    }

    /// Ids of every live slot, ascending. Audit access for `qsys-verify`.
    pub fn live_ids(&self) -> impl Iterator<Item = ModuleId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_some())
            .map(|(idx, _)| ModuleId(idx as u32))
    }
}

/// Hash-table access module for a streaming input.
#[derive(Debug, Default)]
pub struct StoredModule {
    /// Tuples in arrival order (the paper's embedded linked list).
    entries: Vec<(Tuple, Epoch)>,
    /// Hash indexes, one per registered probe key in registration order:
    /// value → positions into `entries`.
    indexes: Vec<(ProbeKey, ByValue<Vec<u32>>)>,
    /// The largest raw-score product among `entries` (0 while empty).
    max_raw: f64,
}

impl StoredModule {
    /// Empty module with the given probe keys registered.
    pub fn new(probe_keys: impl IntoIterator<Item = ProbeKey>) -> StoredModule {
        let mut m = StoredModule::default();
        for k in probe_keys {
            m.add_probe_key(k);
        }
        m
    }

    /// Register an additional probe key, indexing existing entries
    /// (needed when grafting adds a consumer that joins on a new column).
    pub(crate) fn add_probe_key(&mut self, key: ProbeKey) {
        if self.indexes.iter().any(|(k, _)| *k == key) {
            return;
        }
        let mut index = ByValue::default();
        for (pos, (tuple, _)) in self.entries.iter().enumerate() {
            index_position(&mut index, tuple, key, pos as u32);
        }
        self.indexes.push((key, index));
    }

    /// Append a tuple stamped with `epoch`, maintaining all indexes. Free:
    /// the m-join input a tuple arrives on pays for storing it (see the
    /// module docs), whether a stream leaf stored it on reading it or the
    /// input appends it, and a graft-time prefill re-stores history the
    /// original execution already paid for.
    pub fn push(&mut self, tuple: Tuple, epoch: Epoch) {
        let pos = self.entries.len() as u32;
        for (key, index) in &mut self.indexes {
            index_position(index, &tuple, *key, pos);
        }
        self.max_raw = self.max_raw.max(tuple.raw_score_product());
        self.entries.push((tuple, epoch));
    }

    /// `tuple` arrives on an input that has seen the first `*cursor`
    /// entries: appended if that input is the first to see it, otherwise
    /// it must be the entry at the cursor — the same allocation, delivered
    /// earlier in the same order to a sibling consumer. Advances the
    /// cursor; returns whether the tuple was appended.
    ///
    /// Panics when the entry at the cursor is another tuple: the input's
    /// consumers disagree on the producer's output order, and every later
    /// probe of the module would be wrong.
    #[inline]
    pub(crate) fn arrive(&mut self, cursor: &mut usize, tuple: &Tuple, epoch: Epoch) -> bool {
        let pos = *cursor;
        *cursor += 1;
        if pos == self.entries.len() {
            self.push(tuple.clone(), epoch);
            return true;
        }
        let stored = &self.entries[pos].0;
        assert!(
            Tuple::ptr_eq(stored, tuple),
            "shared module out of step: entry {pos} is {stored:?}, {tuple:?} arrived"
        );
        false
    }

    /// Probe for matches of `value` under `key`, borrowing them from the
    /// module in arrival order. When `before` is set, only tuples inserted
    /// in an earlier epoch are yielded (RecoverState's pre-epoch view). The
    /// probe is charged when called, whether or not the result is walked.
    pub(crate) fn probe_iter<'a>(
        &'a self,
        key: ProbeKey,
        value: &Value,
        before: Option<Epoch>,
        clock: &SimClock,
    ) -> impl Iterator<Item = &'a Tuple> + 'a {
        clock.charge(TimeCategory::Join, 2);
        let positions = self
            .indexes
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, index)| index.get(value))
            .map_or(&[][..], Vec::as_slice);
        positions
            .iter()
            .map(move |&p| &self.entries[p as usize])
            .filter(move |(_, e)| before.is_none_or(|b| *e < b))
            .map(|(t, _)| t)
    }

    /// Every stored tuple with the epoch it was stored in, in arrival
    /// order.
    pub fn entries(&self) -> &[(Tuple, Epoch)] {
        &self.entries
    }

    /// All tuples inserted before `epoch`, in arrival order — the
    /// "linked list ... recorded before epoch e" of Algorithm 2.
    pub(crate) fn entries_before(&self, epoch: Epoch) -> impl Iterator<Item = &Tuple> + '_ {
        self.entries
            .iter()
            .filter(move |(_, e)| *e < epoch)
            .map(|(t, _)| t)
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the module is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Wrapper for probing a remote random-access source, with a probe cache.
#[derive(Debug)]
pub struct RemoteModule {
    /// The remote relation.
    rel: RelId,
    /// Cache, one map per probed column (a relation is probed on one or
    /// two): key value → base rows, wrapped as tuples. Keyed per column so
    /// a lookup borrows the caller's value instead of building an owned
    /// `(column, value)` key.
    cache: Vec<(usize, ByValue<Arc<[Tuple]>>)>,
    /// Probes answered from cache (Figure 8 commentary: probe rate decays).
    cache_hits: u64,
    /// Probes that went to the network.
    remote_probes: u64,
}

impl RemoteModule {
    /// New module for a remote relation.
    pub fn new(rel: RelId) -> RemoteModule {
        RemoteModule {
            rel,
            cache: Vec::new(),
            cache_hits: 0,
            remote_probes: 0,
        }
    }

    /// The relation this module probes.
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// Probe the remote source for rows whose `column` equals `value`.
    /// First hit goes over the (simulated) network via `sources`; repeats
    /// are served from the cache for the cost of a hash lookup.
    pub fn probe(&mut self, column: usize, value: &Value, sources: &Sources) -> Arc<[Tuple]> {
        self.probe_governed(column, value, sources, None)
    }

    /// Like [`RemoteModule::probe`], but the network hop goes through the
    /// governor's retry/breaker loop when one is supplied and faults are
    /// configured. A probe that gives up returns no matches and is *not*
    /// cached (the source may recover; a cached empty answer would be a
    /// silent permanent data loss), and the failure is recorded against
    /// the batch so affected queries resolve as degraded.
    pub(crate) fn probe_governed(
        &mut self,
        column: usize,
        value: &Value,
        sources: &Sources,
        governor: Option<&crate::govern::SourceGovernor>,
    ) -> Arc<[Tuple]> {
        let cached = self.cache.iter().position(|(c, _)| *c == column);
        if let Some(hit) = cached.and_then(|i| self.cache[i].1.get(value)) {
            self.cache_hits += 1;
            sources.clock().charge(TimeCategory::Join, 2);
            return Arc::clone(hit);
        }
        let rows = match governor.filter(|_| sources.faults_enabled()) {
            None => sources.probe(self.rel, column, value),
            Some(governor) => match governor.probe(sources, self.rel, column, value) {
                Ok(rows) => rows,
                Err(_) => {
                    governor.note_failed_probe(self.rel);
                    return Vec::new().into();
                }
            },
        };
        self.remote_probes += 1;
        let tuples: Arc<[Tuple]> = rows.into_iter().map(Tuple::single).collect();
        let slot = cached.unwrap_or_else(|| {
            self.cache.push((column, ByValue::default()));
            self.cache.len() - 1
        });
        self.cache[slot]
            .1
            .insert(value.clone(), Arc::clone(&tuples));
        tuples
    }

    /// Probes served from cache so far.
    #[cfg(test)]
    pub(crate) fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Probes that actually hit the network so far.
    #[cfg(test)]
    pub(crate) fn remote_probes(&self) -> u64 {
        self.remote_probes
    }

    /// Approximate resident bytes of the cache.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.cache
            .iter()
            .flat_map(|(_, by_value)| by_value.values())
            .map(|v| 48 + v.len() * 32)
            .sum::<usize>()
    }
}

/// Either kind of access module.
#[derive(Debug)]
pub enum AccessModule {
    /// Hash table over a streaming input's tuples.
    Stored(StoredModule),
    /// Probe wrapper over a remote random-access source.
    Remote(RemoteModule),
}

impl AccessModule {
    /// The stored module, if this is one.
    pub fn as_stored(&self) -> Option<&StoredModule> {
        match self {
            AccessModule::Stored(s) => Some(s),
            AccessModule::Remote(_) => None,
        }
    }

    /// An upper bound on the raw-score product of any tuple a probe of
    /// this module can yield: the largest among the stored tuples (0 while
    /// there are none), or 1.0 for a probe cache (see the module docs).
    pub(crate) fn raw_product_max(&self) -> f64 {
        match self {
            AccessModule::Stored(s) => s.max_raw,
            AccessModule::Remote(_) => 1.0,
        }
    }
}

/// Record `tuple` at arrival position `pos` under its value for `key`, if
/// it has one. The value is cloned only when it opens a new bucket.
fn index_position(index: &mut ByValue<Vec<u32>>, tuple: &Tuple, key: ProbeKey, pos: u32) {
    let Some(value) = tuple.value_of(key.0, key.1) else {
        return;
    };
    match index.get_mut(value) {
        Some(positions) => positions.push(pos),
        None => {
            index.insert(value.clone(), vec![pos]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsys_source::Table;
    use qsys_types::{BaseTuple, CostProfile};

    fn tup(rel: u32, id: u64, key: i64, score: f64) -> Tuple {
        Tuple::single(Arc::new(BaseTuple::new(
            RelId::new(rel),
            id,
            vec![Value::Int(key)],
            score,
        )))
    }

    #[test]
    fn stored_insert_and_probe() {
        let clock = SimClock::new();
        let key = (RelId::new(0), 0);
        let mut m = StoredModule::new([key]);
        m.push(tup(0, 1, 5, 0.9), Epoch(0));
        m.push(tup(0, 2, 7, 0.8), Epoch(0));
        m.push(tup(0, 3, 5, 0.7), Epoch(0));
        let hits: Vec<Tuple> = m
            .probe_iter(key, &Value::Int(5), None, &clock)
            .cloned()
            .collect();
        assert_eq!(hits.len(), 2);
        // Arrival order preserved.
        assert_eq!(hits[0].parts()[0].row_id, 1);
        assert_eq!(hits[1].parts()[0].row_id, 3);
        assert_eq!(m.probe_iter(key, &Value::Int(9), None, &clock).count(), 0);
        assert!(clock.breakdown().join_us > 0);
    }

    #[test]
    fn epoch_partitions_filter_probes() {
        let clock = SimClock::new();
        let key = (RelId::new(0), 0);
        let mut m = StoredModule::new([key]);
        m.push(tup(0, 1, 5, 0.9), Epoch(0));
        m.push(tup(0, 2, 5, 0.8), Epoch(1));
        m.push(tup(0, 3, 5, 0.7), Epoch(2));
        let before_e2 = m.probe_iter(key, &Value::Int(5), Some(Epoch(2)), &clock);
        assert_eq!(before_e2.count(), 2);
        let all = m.probe_iter(key, &Value::Int(5), None, &clock);
        assert_eq!(all.count(), 3);
        let replay: Vec<&Tuple> = m.entries_before(Epoch(1)).collect();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].parts()[0].row_id, 1);
    }

    #[test]
    fn late_probe_key_indexes_existing_entries() {
        let clock = SimClock::new();
        let k0 = (RelId::new(0), 0);
        let mut m = StoredModule::new([k0]);
        m.push(tup(0, 1, 5, 0.9), Epoch(0));
        // Grafting adds a second consumer joining on the same column — and
        // on a column with no values (out of range) which must simply miss.
        m.add_probe_key(k0); // idempotent
        let k1 = (RelId::new(0), 3);
        m.add_probe_key(k1);
        assert_eq!(m.probe_iter(k0, &Value::Int(5), None, &clock).count(), 1);
        assert_eq!(m.probe_iter(k1, &Value::Int(5), None, &clock).count(), 0);
    }

    /// A probe borrows its matches in arrival order for one charge,
    /// whichever index answers and whatever the epoch cap.
    #[test]
    fn probe_iter_borrows_in_arrival_order_for_one_charge() {
        let clock = SimClock::new();
        let two_col = |id: u64, a: i64, b: i64| {
            Tuple::single(Arc::new(BaseTuple::new(
                RelId::new(0),
                id,
                vec![Value::Int(a), Value::Int(b)],
                1.0,
            )))
        };
        let (k0, k1) = ((RelId::new(0), 0), (RelId::new(0), 1));
        let mut m = StoredModule::new([k0]);
        for (id, a, b, epoch) in [(1, 5, 9, 0), (2, 7, 9, 1), (3, 5, 8, 1), (4, 5, 9, 2)] {
            m.push(two_col(id, a, b), Epoch(epoch));
        }
        // A second index, registered when the module already holds tuples.
        m.add_probe_key(k1);
        let unknown = (RelId::new(3), 0);
        let ids =
            |ts: Vec<&Tuple>| -> Vec<u64> { ts.iter().map(|t| t.parts()[0].row_id).collect() };
        for (key, value, cap, want) in [
            (k0, 5, None, vec![1, 3, 4]),
            (k0, 5, Some(Epoch(2)), vec![1, 3]),
            (k0, 5, Some(Epoch(0)), vec![]),
            (k1, 9, None, vec![1, 2, 4]),
            (k1, 9, Some(Epoch(1)), vec![1]),
            (k1, 8, None, vec![3]),
            (k0, 6, None, vec![]),
            (unknown, 5, None, vec![]),
        ] {
            let value = Value::Int(value);
            let before = clock.breakdown().join_us;
            let borrowed: Vec<&Tuple> = m.probe_iter(key, &value, cap, &clock).collect();
            assert_eq!(clock.breakdown().join_us - before, 2);
            assert_eq!(ids(borrowed), want, "{key:?} = {value}");
        }
        // Dropping the iterator unwalked still pays for the probe.
        let before = clock.breakdown().join_us;
        drop(m.probe_iter(k0, &Value::Int(5), None, &clock));
        assert!(clock.breakdown().join_us > before);
    }

    /// Two inputs over one module, each with its own cursor: whichever sees
    /// a tuple first appends it, the other finds that very allocation at
    /// its cursor and only advances — however far it lags.
    #[test]
    fn arrive_stores_each_output_once() {
        let key = (RelId::new(0), 0);
        let mut m = StoredModule::new([key]);
        let ts: Vec<Tuple> = (0..3).map(|i| tup(0, i, 5, 0.5)).collect();
        let (mut first, mut second) = (0, 0);
        assert!(m.arrive(&mut first, &ts[0], Epoch(1)));
        assert!(!m.arrive(&mut second, &ts[0], Epoch(1)));
        assert!(m.arrive(&mut first, &ts[1], Epoch(1)));
        assert!(m.arrive(&mut first, &ts[2], Epoch(2)));
        assert!(!m.arrive(&mut second, &ts[1], Epoch(1)));
        assert!(!m.arrive(&mut second, &ts[2], Epoch(2)));
        assert_eq!((first, second, m.len()), (3, 3, 3));
        let clock = SimClock::new();
        let stored: Vec<Tuple> = m
            .probe_iter(key, &Value::Int(5), None, &clock)
            .cloned()
            .collect();
        assert_eq!(stored, ts);
        let before = [1, 2, 3].map(|e| m.entries_before(Epoch(e)).count());
        assert_eq!(before, [0, 2, 3], "stamped with the epoch they arrived in");
    }

    /// An equal tuple is not the same arrival: a consumer that is handed
    /// anything but the allocation at its cursor is out of step with its
    /// siblings, and storing or skipping it would both be wrong.
    #[test]
    #[should_panic(expected = "shared module out of step")]
    fn arrive_refuses_a_tuple_out_of_step() {
        let mut m = StoredModule::new([(RelId::new(0), 0)]);
        let (mut first, mut second) = (0, 0);
        m.arrive(&mut first, &tup(0, 1, 5, 0.5), Epoch(0));
        m.arrive(&mut second, &tup(0, 1, 5, 0.5), Epoch(0));
    }

    #[test]
    fn remote_module_caches_probes() {
        let clock = SimClock::new();
        let sources = Sources::new(clock.clone(), CostProfile::default(), 7);
        let rel = RelId::new(3);
        let rows = (0..4)
            .map(|i| {
                Arc::new(BaseTuple::new(
                    rel,
                    i,
                    vec![Value::Int((i % 2) as i64)],
                    1.0,
                ))
            })
            .collect();
        sources.register(Table::new(rel, rows));
        let mut m = RemoteModule::new(rel);
        let h1 = m.probe(0, &Value::Int(1), &sources);
        assert_eq!(h1.len(), 2);
        assert_eq!(m.remote_probes(), 1);
        let ra_after_first = clock.breakdown().random_access_us;
        let h2 = m.probe(0, &Value::Int(1), &sources);
        assert_eq!(h2.len(), 2);
        assert_eq!(m.cache_hits(), 1);
        // Cache hit charged no random-access time.
        assert_eq!(clock.breakdown().random_access_us, ra_after_first);
        assert_eq!(sources.probes(), 1);
    }

    /// One value probed on two columns is two cache entries; a repeat on
    /// either column is a hit; the byte estimate sums over both.
    #[test]
    fn remote_cache_is_keyed_per_column() {
        let clock = SimClock::new();
        let sources = Sources::new(clock.clone(), CostProfile::default(), 7);
        let rel = RelId::new(3);
        let rows = (0..4i64)
            .map(|i| {
                Arc::new(BaseTuple::new(
                    rel,
                    i as u64,
                    vec![Value::Int(i % 2), Value::Int(1)],
                    1.0,
                ))
            })
            .collect();
        sources.register(Table::new(rel, rows));
        let mut m = RemoteModule::new(rel);
        assert_eq!(m.probe(0, &Value::Int(1), &sources).len(), 2);
        assert_eq!(m.probe(1, &Value::Int(1), &sources).len(), 4);
        assert_eq!((m.remote_probes(), m.cache_hits()), (2, 0));
        assert_eq!(m.probe(1, &Value::Int(1), &sources).len(), 4);
        assert_eq!(m.probe(0, &Value::Int(1), &sources).len(), 2);
        assert_eq!((m.remote_probes(), m.cache_hits()), (2, 2));
        assert_eq!(sources.probes(), 2);
        assert_eq!(m.approx_bytes(), (48 + 2 * 32) + (48 + 4 * 32));
    }
}
