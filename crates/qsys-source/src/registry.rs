//! The source registry: the middleware's gateway to all remote databases.
//!
//! Every tuple that crosses the simulated network — a stream read or a
//! random-access probe — goes through [`Sources`], which charges the shared
//! virtual clock with the base cost plus a Poisson-distributed network delay
//! (mean 2 ms, Section 7 of the paper) and maintains the work counters that
//! Figure 10 reports ("total number of input tuples consumed").

use crate::fault::{FaultInjector, SourceError, Verdict};
use crate::pushdown::LazyJoin;
use crate::stream::SourceStream;
use crate::table::Table;
use qsys_types::dist::{seeded_rng, Poisson};
use qsys_types::hash::FxHashMap;
use qsys_types::{
    BaseTuple, CostProfile, JoinCond, RelId, Selection, SimClock, TimeCategory, Tuple, Value,
};
use rand::rngs::StdRng;
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Callback that materializes a relation's table on first access (lazy
/// population: only relations a query actually touches are generated). Returning `Arc<Table>` lets several source registries (one
/// per clustered ATC lane) share a single materialized dataset. `Send` so
/// a registry (and the lane owning it) can move onto a lane thread.
pub type TableProvider = Box<dyn Fn(RelId) -> Arc<Table> + Send>;

/// Registry of simulated remote databases.
///
/// One registry belongs to one engine lane and is driven from that lane's
/// thread only — the interior `RefCell`/`Cell` state never crosses threads
/// (`Sources` is `Send`, not `Sync`).
pub struct Sources {
    clock: SimClock,
    cost: CostProfile,
    delay: Poisson,
    rng: RefCell<StdRng>,
    tables: RefCell<FxHashMap<RelId, Arc<Table>>>,
    provider: Option<TableProvider>,
    tuples_streamed: Cell<u64>,
    pushdown_joined: Cell<u64>,
    probes: Cell<u64>,
    probe_result_tuples: Cell<u64>,
    /// Optional fault schedule. `None` (the default) keeps every fetch
    /// infallible and byte-identical to the fault-free build.
    injector: Option<FaultInjector>,
}

impl Sources {
    /// Build a registry with explicit tables only.
    pub fn new(clock: SimClock, cost: CostProfile, seed: u64) -> Sources {
        Sources {
            clock,
            delay: Poisson::new(cost.mean_network_delay_us as f64),
            cost,
            rng: RefCell::new(seeded_rng(seed)),
            tables: RefCell::new(FxHashMap::default()),
            provider: None,
            tuples_streamed: Cell::new(0),
            pushdown_joined: Cell::new(0),
            probes: Cell::new(0),
            probe_result_tuples: Cell::new(0),
            injector: None,
        }
    }

    /// Install a fault injector. Fetches via [`Sources::try_read`] and
    /// [`Sources::try_probe`] become fallible according to its schedule
    /// and fetch timeout.
    pub fn set_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Whether a fault schedule is installed (the governed fetch path uses
    /// this to skip all fault bookkeeping on clean builds).
    pub fn faults_enabled(&self) -> bool {
        self.injector.is_some()
    }

    /// Build a registry that materializes tables lazily via `provider`.
    pub fn with_provider(
        clock: SimClock,
        cost: CostProfile,
        seed: u64,
        provider: TableProvider,
    ) -> Sources {
        let mut s = Sources::new(clock, cost, seed);
        s.provider = Some(provider);
        s
    }

    /// Register a table explicitly.
    pub fn register(&self, table: Table) {
        self.register_shared(Arc::new(table));
    }

    /// Register a shared table handle.
    pub fn register_shared(&self, table: Arc<Table>) {
        self.tables.borrow_mut().insert(table.rel(), table);
    }

    /// The table for `rel`, materializing lazily if a provider is set.
    /// Panics if the relation is unknown to both the registry and provider.
    pub fn table(&self, rel: RelId) -> Arc<Table> {
        if let Some(t) = self.tables.borrow().get(&rel) {
            return Arc::clone(t);
        }
        let provider = self
            .provider
            .as_ref()
            .unwrap_or_else(|| panic!("no table registered for {rel} and no provider"));
        let table = provider(rel);
        self.tables.borrow_mut().insert(rel, Arc::clone(&table));
        table
    }

    /// Whether a table is currently materialized.
    #[cfg(test)]
    pub(crate) fn is_materialized(&self, rel: RelId) -> bool {
        self.tables.borrow().contains_key(&rel)
    }

    /// Open a streaming scan of `rel` with an optional pushed-down
    /// selection. No time is charged until tuples are read.
    pub fn open_stream(&self, rel: RelId, selection: Option<Selection>) -> SourceStream {
        SourceStream::base(self.table(rel), selection)
    }

    /// Open the SPJ subexpression joining `atoms` under `joins` at the
    /// source as a score-ordered stream. The source joins only as deep as
    /// the stream is read (`pushdown` module docs), and the remote
    /// computation is free to the middleware (the paper's cost model: you
    /// pay per tuple streamed in).
    pub fn open_pushdown(
        &self,
        atoms: &[(RelId, Option<Selection>)],
        joins: &[JoinCond],
    ) -> SourceStream {
        let stream = SourceStream::pushdown(LazyJoin::open(atoms, joins, |rel| self.table(rel)));
        self.count_joined(stream.joined());
        stream
    }

    fn count_joined(&self, results: usize) {
        self.pushdown_joined
            .set(self.pushdown_joined.get() + results as u64);
    }

    /// [`Sources::try_read`] on a registry with no fault injector, kept
    /// only because the benchmark's read-path replay (`perf/`) calls it.
    ///
    /// # Panics
    ///
    /// If an injector is installed: a fault must reach the caller.
    pub fn read(&self, stream: &mut SourceStream) -> Option<Tuple> {
        assert!(
            self.injector.is_none(),
            "Sources::read cannot report a fault: read a registry with an injector through try_read"
        );
        self.try_read(stream)
            .expect("a fetch without an injector cannot fail")
    }

    /// Read the next tuple from a stream: one network round, charged as
    /// stream-read time (per-tuple CPU plus a Poisson delay), the paper's
    /// one-tuple-per-round cost model. An exhausted stream charges
    /// nothing. A round the fault injector fails leaves the cursor
    /// untouched, so a retry fetches the same tuple; `open_round` says what
    /// a failed round costs.
    pub fn try_read(&self, stream: &mut SourceStream) -> Result<Option<Tuple>, SourceError> {
        if stream.exhausted() {
            return Ok(None);
        }
        let delay = self.open_round(stream.rels(), TimeCategory::StreamRead)?;
        self.clock
            .charge(TimeCategory::StreamRead, self.cost.stream_tuple_us + delay);
        self.tuples_streamed.set(self.tuples_streamed.get() + 1);
        let joined = stream.joined();
        let tuple = stream.advance();
        self.count_joined(stream.joined() - joined);
        Ok(tuple)
    }

    /// Probe `rel` for rows whose `column` equals `value` — a remote
    /// two-way semijoin, one network round charged as random-access time
    /// (per-probe CPU plus a Poisson delay). Fails like
    /// [`Sources::try_read`].
    pub fn try_probe(
        &self,
        rel: RelId,
        column: usize,
        value: &Value,
    ) -> Result<Vec<Arc<BaseTuple>>, SourceError> {
        let delay = self.open_round(&[rel], TimeCategory::RandomAccess)?;
        self.clock
            .charge(TimeCategory::RandomAccess, self.cost.probe_us + delay);
        self.probes.set(self.probes.get() + 1);
        let hits = self.table(rel).probe(column, value);
        self.probe_result_tuples
            .set(self.probe_result_tuples.get() + hits.len() as u64);
        Ok(hits)
    }

    /// Open the network round of one fetch over `rels` and return its
    /// delay: the injector rules first (only when one is installed and
    /// schedules faults for `rels`), then the Poisson delay is drawn and a
    /// slow verdict multiplies it. A failed round charges `category` a
    /// fixed round-trip (the mean delay, no RNG draw, so a schedule never
    /// perturbs the delay sequence of clean relations); a slow round past
    /// the injector's fetch timeout charges exactly the timeout. Neither
    /// counts a fetch.
    fn open_round(&self, rels: &[RelId], category: TimeCategory) -> Result<u64, SourceError> {
        let mut slow = None;
        if let Some(inj) = self.injector.as_ref().filter(|inj| !inj.all_clear(rels)) {
            match inj.verdict(rels, self.clock.now_us()) {
                Verdict::Clear => {}
                Verdict::Slow { rel, mult } => slow = Some((rel, mult, inj.fetch_timeout_us)),
                Verdict::Fail(e) => {
                    self.clock.charge(category, self.cost.mean_network_delay_us);
                    return Err(e);
                }
            }
        }
        let delay = self.delay.sample(&mut *self.rng.borrow_mut());
        let Some((rel, mult, timeout_us)) = slow else {
            return Ok(delay);
        };
        let delay = (delay as f64 * mult).round() as u64;
        match timeout_us {
            Some(limit) if delay > limit => {
                // The wait up to the timeout is real simulated time; the
                // tuple stays at the source for the retry.
                self.clock.charge(category, limit);
                Err(SourceError::Timeout { rel })
            }
            _ => Ok(delay),
        }
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The cost profile in force.
    pub fn cost_profile(&self) -> &CostProfile {
        &self.cost
    }

    /// Tuples streamed so far (Figure 10's work metric, streaming part).
    pub fn tuples_streamed(&self) -> u64 {
        self.tuples_streamed.get()
    }

    /// Push-down results joined at the source so far, delivered or not:
    /// against the push-down tuples streamed, the work a stream joined
    /// ahead of its reader.
    pub fn pushdown_joined(&self) -> u64 {
        self.pushdown_joined.get()
    }

    /// Retired alias of [`Self::tuples_streamed`], kept only because the
    /// benchmark (`perf/`) reads it: every streamed tuple is one network
    /// round.
    pub fn stream_rounds(&self) -> u64 {
        self.tuples_streamed()
    }

    /// Remote probes performed so far.
    pub fn probes(&self) -> u64 {
        self.probes.get()
    }

    /// Tuples returned by remote probes so far.
    pub(crate) fn probe_result_tuples(&self) -> u64 {
        self.probe_result_tuples.get()
    }

    /// Total input tuples consumed (streamed + probe results): the metric of
    /// Figure 10.
    pub fn tuples_consumed(&self) -> u64 {
        self.tuples_streamed() + self.probe_result_tuples()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_table(rel: u32, n: u64) -> Table {
        let id = RelId::new(rel);
        let rows = (0..n)
            .map(|i| {
                Arc::new(BaseTuple::new(
                    id,
                    i,
                    vec![Value::Int((i % 3) as i64)],
                    1.0 - i as f64 / n as f64,
                ))
            })
            .collect();
        Table::new(id, rows)
    }

    fn sources() -> Sources {
        let s = Sources::new(SimClock::new(), CostProfile::default(), 42);
        s.register(mk_table(0, 9));
        s.register(mk_table(1, 6));
        s
    }

    #[test]
    fn stream_reads_charge_the_clock() {
        let s = sources();
        let mut stream = s.open_stream(RelId::new(0), None);
        assert_eq!(s.clock().breakdown().stream_read_us, 0);
        let t = s.try_read(&mut stream).unwrap().unwrap();
        assert_eq!(t.arity(), 1);
        assert!(s.clock().breakdown().stream_read_us >= 20);
        assert_eq!(s.tuples_streamed(), 1);
        while s.try_read(&mut stream).unwrap().is_some() {}
        assert_eq!(s.stream_rounds(), 9, "one round per tuple");
        assert_eq!(s.tuples_streamed(), 9);
    }

    #[test]
    #[should_panic(expected = "try_read")]
    fn read_refuses_a_registry_with_an_injector() {
        use crate::fault::{FaultInjector, FaultSpec};
        let mut s = sources();
        let spec = FaultSpec::new(0).rel_transient(1, 0.5);
        s.set_injector(FaultInjector::new(spec, 0, None));
        let mut stream = s.open_stream(RelId::new(0), None);
        s.read(&mut stream);
    }

    #[test]
    fn probes_charge_random_access() {
        let s = sources();
        let hits = s.try_probe(RelId::new(0), 0, &Value::Int(1)).unwrap();
        assert_eq!(hits.len(), 3);
        assert!(s.clock().breakdown().random_access_us >= 50);
        assert_eq!(s.probes(), 1);
        assert_eq!(s.probe_result_tuples(), 3);
        assert_eq!(s.tuples_consumed(), 3);
    }

    #[test]
    fn exhausted_stream_charges_nothing_more() {
        let s = sources();
        let mut stream = s.open_stream(RelId::new(1), None);
        while s.read(&mut stream).is_some() {}
        let before = s.clock().breakdown().stream_read_us;
        assert!(s.read(&mut stream).is_none());
        assert_eq!(s.clock().breakdown().stream_read_us, before);
        assert_eq!(s.tuples_streamed(), 6);
    }

    #[test]
    fn lazy_provider_materializes_on_demand() {
        let s = Sources::with_provider(
            SimClock::new(),
            CostProfile::default(),
            1,
            Box::new(|rel| Arc::new(mk_table(rel.0, 4))),
        );
        assert!(!s.is_materialized(RelId::new(7)));
        let t = s.table(RelId::new(7));
        assert_eq!(t.len(), 4);
        assert!(s.is_materialized(RelId::new(7)));
    }

    #[test]
    fn pushdown_stream_is_score_ordered() {
        let s = sources();
        let join = JoinCond {
            left: RelId::new(0),
            left_col: 0,
            right: RelId::new(1),
            right_col: 0,
        };
        let mut stream = s.open_pushdown(&[(RelId::new(0), None), (RelId::new(1), None)], &[join]);
        // Opening joins only until the head is final: the first driving row.
        assert_eq!(s.pushdown_joined(), 2);
        let mut last = f64::INFINITY;
        let mut n = 0;
        while let Some(t) = s.read(&mut stream) {
            let p = t.raw_score_product();
            assert!(p <= last);
            last = p;
            n += 1;
        }
        // Keys i % 3: each key pairs 3 rows of rel 0 with 2 of rel 1, and
        // each pair is joined once.
        assert_eq!((n, s.pushdown_joined()), (18, 18));
        assert_eq!(s.tuples_streamed(), 18);
    }

    #[test]
    fn unfaulted_rel_sees_identical_delays_under_injector() {
        use crate::fault::{FaultInjector, FaultSpec};
        let plain = sources();
        let mut chaotic = sources();
        // Faults scheduled only for rel 1; rel 0 must be untouched.
        let spec = FaultSpec::new(5).rel_transient(1, 0.9);
        chaotic.set_injector(FaultInjector::new(spec, 0, None));
        // Probes of rel 0 interleave with its reads: both draw from one
        // delay sequence, which the schedule must leave in the same order.
        let mut sp = plain.open_stream(RelId::new(0), None);
        let mut sc = chaotic.open_stream(RelId::new(0), None);
        while plain.read(&mut sp).is_some() {
            chaotic.try_read(&mut sc).unwrap().unwrap();
            let key = Value::Int(sp.delivered() as i64 % 3);
            let hits = plain.try_probe(RelId::new(0), 0, &key).unwrap();
            assert_eq!(chaotic.try_probe(RelId::new(0), 0, &key).unwrap(), hits);
        }
        assert_eq!(
            plain.clock().breakdown(),
            chaotic.clock().breakdown(),
            "a schedule on rel 1 must not perturb rel 0's virtual time"
        );
        assert_eq!(plain.probes(), chaotic.probes());
    }

    #[test]
    fn outage_fails_fetches_and_leaves_the_cursor() {
        use crate::fault::{FaultInjector, FaultSpec, SourceError};
        let mut s = sources();
        let spec = FaultSpec::new(0).outage(0, 0, None);
        s.set_injector(FaultInjector::new(spec, 0, None));
        let mut stream = s.open_stream(RelId::new(0), None);
        for _ in 0..3 {
            assert_eq!(
                s.try_read(&mut stream),
                Err(SourceError::Outage { rel: RelId::new(0) })
            );
        }
        assert_eq!(stream.delivered(), 0, "failed rounds deliver nothing");
        assert_eq!(s.tuples_streamed(), 0);
        // Each failed round still burned a round-trip of simulated time.
        assert_eq!(
            s.clock().breakdown().stream_read_us,
            3 * CostProfile::default().mean_network_delay_us
        );
        // Probes fail too.
        assert!(s.try_probe(RelId::new(0), 0, &Value::Int(1)).is_err());
        // Failed rounds draw no delay: rel 1's first read costs what a
        // fresh registry's first read costs.
        let before = s.clock().breakdown().stream_read_us;
        let fresh = sources();
        for r in [&s, &fresh] {
            r.try_read(&mut r.open_stream(RelId::new(1), None)).unwrap();
        }
        assert_eq!(
            s.clock().breakdown().stream_read_us - before,
            fresh.clock().breakdown().stream_read_us
        );
    }

    #[test]
    fn slow_rounds_time_out_only_with_a_timeout_set() {
        use crate::fault::{FaultInjector, FaultSpec, SourceError};
        let build = |timeout_us| {
            let mut s = sources();
            let spec = FaultSpec::new(0).rel_slow(0, 1.0, 1000.0);
            s.set_injector(FaultInjector::new(spec, 0, timeout_us));
            s
        };
        // No timeout: the slow round delivers, just late.
        let s = build(None);
        let mut stream = s.open_stream(RelId::new(0), None);
        assert!(s.try_read(&mut stream).unwrap().is_some());
        assert!(s.clock().breakdown().stream_read_us > 100_000);
        // Tight timeout: the same schedule times out and charges the cap.
        let s = build(Some(10_000));
        let mut stream = s.open_stream(RelId::new(0), None);
        assert_eq!(
            s.try_read(&mut stream),
            Err(SourceError::Timeout { rel: RelId::new(0) })
        );
        assert_eq!(s.clock().breakdown().stream_read_us, 10_000);
        assert_eq!(stream.delivered(), 0);
        // A probe times out the same way: exactly the cap, no probe counted.
        let s = build(Some(10_000));
        assert_eq!(
            s.try_probe(RelId::new(0), 0, &Value::Int(1)),
            Err(SourceError::Timeout { rel: RelId::new(0) })
        );
        assert_eq!(s.clock().breakdown().random_access_us, 10_000);
        assert_eq!((s.probes(), s.tuples_consumed()), (0, 0));
        // Without a timeout the slow probe answers, just late.
        let s = build(None);
        assert_eq!(
            s.try_probe(RelId::new(0), 0, &Value::Int(1)).unwrap().len(),
            3
        );
        assert!(s.clock().breakdown().random_access_us > 100_000);
        assert_eq!(s.probes(), 1);
    }

    #[test]
    fn deterministic_delays_from_seed() {
        let run = || {
            let s = Sources::new(SimClock::new(), CostProfile::default(), 99);
            s.register(mk_table(0, 20));
            let mut stream = s.open_stream(RelId::new(0), None);
            while s.read(&mut stream).is_some() {}
            s.clock().breakdown().stream_read_us
        };
        assert_eq!(run(), run());
    }
}
