//! The source registry: the middleware's gateway to all remote databases.
//!
//! Every tuple that crosses the simulated network — a stream read or a
//! random-access probe — goes through [`Sources`], which charges the shared
//! virtual clock with the base cost plus a Poisson-distributed network delay
//! (mean 2 ms, Section 7 of the paper) and maintains the work counters that
//! Figure 10 reports ("total number of input tuples consumed").

use crate::fault::{FaultInjector, SourceError, Verdict};
use crate::pushdown::SpjSpec;
use crate::stream::SourceStream;
use crate::table::Table;
use qsys_types::dist::{seeded_rng, Poisson};
use qsys_types::{BaseTuple, CostProfile, RelId, Selection, SimClock, TimeCategory, Tuple, Value};
use rand::rngs::StdRng;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
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
    tables: RefCell<HashMap<RelId, Arc<Table>>>,
    provider: Option<TableProvider>,
    tuples_streamed: Cell<u64>,
    stream_rounds: Cell<u64>,
    probes: Cell<u64>,
    probe_result_tuples: Cell<u64>,
    /// Optional fault schedule. `None` (the default) keeps every fetch
    /// infallible and byte-identical to the fault-free build; faults apply
    /// only through [`Sources::try_read`]/[`Sources::try_probe`] — the
    /// legacy [`Sources::read`]/[`Sources::probe`] never consult it (used
    /// by recovery replay and legacy tests, which model local work).
    injector: Option<FaultInjector>,
    /// Per-fetch timeout applied to fault-inflated (slow) rounds only.
    fetch_timeout_us: Cell<Option<u64>>,
}

impl Sources {
    /// Build a registry with explicit tables only.
    pub fn new(clock: SimClock, cost: CostProfile, seed: u64) -> Sources {
        Sources {
            clock,
            delay: Poisson::new(cost.mean_network_delay_us as f64),
            cost,
            rng: RefCell::new(seeded_rng(seed)),
            tables: RefCell::new(HashMap::new()),
            provider: None,
            tuples_streamed: Cell::new(0),
            stream_rounds: Cell::new(0),
            probes: Cell::new(0),
            probe_result_tuples: Cell::new(0),
            injector: None,
            fetch_timeout_us: Cell::new(None),
        }
    }

    /// Install a fault injector. Fetches via [`Sources::try_read`] and
    /// [`Sources::try_probe`] become fallible according to its schedule.
    pub fn set_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Whether a fault schedule is installed (the governed fetch path uses
    /// this to skip all fault bookkeeping on clean builds).
    pub fn faults_enabled(&self) -> bool {
        self.injector.is_some()
    }

    /// Set the per-fetch timeout (virtual µs) applied to fault-inflated
    /// rounds. Normal rounds are never timed out — only a `slow` schedule
    /// can push a fetch past the limit, so an unfaulted relation can never
    /// exhaust a retry budget.
    pub fn set_fetch_timeout(&self, timeout_us: Option<u64>) {
        self.fetch_timeout_us.set(timeout_us);
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

    /// Evaluate an SPJ subexpression at the source and expose the result as
    /// a score-ordered stream. The remote computation itself is free to the
    /// middleware (the paper's cost model: you pay per tuple streamed in).
    pub fn open_pushdown(&self, spec: &SpjSpec) -> SourceStream {
        let mut tables = HashMap::new();
        for (rel, _) in &spec.atoms {
            tables.insert(*rel, self.table(*rel));
        }
        let tuples = spec.evaluate(&tables);
        SourceStream::pushdown(tuples, spec.rels())
    }

    /// Read the next tuple from a stream, charging stream-read time. The
    /// Poisson round-trip delay is paid once per fetch round: the first
    /// read of a round charges it and grants [`CostProfile::fetch_batch`]
    /// tuples of credit, so fetch-ahead amortizes the network exactly like
    /// a JDBC fetch size. `fetch_batch = 1` (the default) reproduces the
    /// paper's one-tuple-per-round cost model, delay draw for delay draw.
    /// The tuple *sequence* is identical at every batch size — batching
    /// changes when time is charged, never what is delivered.
    pub fn read(&self, stream: &mut SourceStream) -> Option<Tuple> {
        let out = stream.advance();
        if out.is_some() {
            let mut us = self.cost.stream_tuple_us;
            if stream.round_credit == 0 {
                us += self.network_delay();
                self.stream_rounds.set(self.stream_rounds.get() + 1);
                stream.round_credit = self.cost.fetch_batch.max(1);
            }
            stream.round_credit -= 1;
            self.clock.charge(TimeCategory::StreamRead, us);
            self.tuples_streamed.set(self.tuples_streamed.get() + 1);
        }
        out
    }

    /// Fallible stream read: like [`Sources::read`], but consults the fault
    /// injector when one is installed. The injector rules once per fetch
    /// *round* — batched mid-round reads are already paid for and local, so
    /// they cannot fail. A failed round charges a fixed round-trip (the
    /// mean network delay — no RNG, so fault schedules never perturb the
    /// delay sequence of clean relations) and leaves the cursor untouched:
    /// a retry fetches the same tuple. With no injector this is exactly
    /// `Ok(self.read(stream))`.
    pub fn try_read(&self, stream: &mut SourceStream) -> Result<Option<Tuple>, SourceError> {
        let Some(inj) = &self.injector else {
            return Ok(self.read(stream));
        };
        if stream.exhausted() {
            return Ok(None);
        }
        let opens_round = stream.round_credit == 0;
        let mut slow = None;
        if opens_round && !inj.all_clear(stream.rels()) {
            match inj.verdict(stream.rels(), self.clock.now_us()) {
                Verdict::Clear => {}
                Verdict::Slow { rel, mult } => slow = Some((rel, mult)),
                Verdict::Fail(e) => {
                    self.clock
                        .charge(TimeCategory::StreamRead, self.cost.mean_network_delay_us);
                    return Err(e);
                }
            }
        }
        let mut us = self.cost.stream_tuple_us;
        if opens_round {
            let mut delay = self.network_delay();
            if let Some((rel, mult)) = slow {
                delay = (delay as f64 * mult).round() as u64;
                if let Some(limit) = self.fetch_timeout_us.get() {
                    if delay > limit {
                        // The wait up to the timeout is real simulated time;
                        // the tuple stays at the source for the retry.
                        self.clock.charge(TimeCategory::StreamRead, limit);
                        return Err(SourceError::Timeout { rel });
                    }
                }
            }
            us += delay;
            self.stream_rounds.set(self.stream_rounds.get() + 1);
            stream.round_credit = self.cost.fetch_batch.max(1);
        }
        stream.round_credit -= 1;
        self.clock.charge(TimeCategory::StreamRead, us);
        self.tuples_streamed.set(self.tuples_streamed.get() + 1);
        Ok(stream.advance())
    }

    /// Probe `rel` for rows whose `column` equals `value` — a remote
    /// two-way semijoin. Charges random-access time plus a network delay.
    pub fn probe(&self, rel: RelId, column: usize, value: &Value) -> Vec<Arc<BaseTuple>> {
        let us = self.cost.probe_us + self.network_delay();
        self.clock.charge(TimeCategory::RandomAccess, us);
        self.probes.set(self.probes.get() + 1);
        let hits = self.table(rel).probe(column, value);
        self.probe_result_tuples
            .set(self.probe_result_tuples.get() + hits.len() as u64);
        hits
    }

    /// Fallible probe: like [`Sources::probe`], but consults the fault
    /// injector when one is installed (every probe is its own network
    /// round). Failed probes charge a fixed round-trip; timed-out probes
    /// charge exactly the timeout. With no injector this is exactly
    /// `Ok(self.probe(rel, column, value))`.
    pub fn try_probe(
        &self,
        rel: RelId,
        column: usize,
        value: &Value,
    ) -> Result<Vec<Arc<BaseTuple>>, SourceError> {
        let Some(inj) = &self.injector else {
            return Ok(self.probe(rel, column, value));
        };
        let mut slow = None;
        if !inj.all_clear(&[rel]) {
            match inj.verdict(&[rel], self.clock.now_us()) {
                Verdict::Clear => {}
                Verdict::Slow { rel, mult } => slow = Some((rel, mult)),
                Verdict::Fail(e) => {
                    self.clock
                        .charge(TimeCategory::RandomAccess, self.cost.mean_network_delay_us);
                    return Err(e);
                }
            }
        }
        let mut delay = self.network_delay();
        if let Some((rel, mult)) = slow {
            delay = (delay as f64 * mult).round() as u64;
            if let Some(limit) = self.fetch_timeout_us.get() {
                if delay > limit {
                    self.clock.charge(TimeCategory::RandomAccess, limit);
                    return Err(SourceError::Timeout { rel });
                }
            }
        }
        self.clock
            .charge(TimeCategory::RandomAccess, self.cost.probe_us + delay);
        self.probes.set(self.probes.get() + 1);
        let hits = self.table(rel).probe(column, value);
        self.probe_result_tuples
            .set(self.probe_result_tuples.get() + hits.len() as u64);
        Ok(hits)
    }

    fn network_delay(&self) -> u64 {
        self.delay.sample(&mut *self.rng.borrow_mut())
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

    /// Simulated network rounds spent on stream reads so far. Equals
    /// [`Self::tuples_streamed`] when `fetch_batch` is 1; fetch-ahead
    /// makes it smaller (⌈delivered / fetch_batch⌉ per stream).
    pub fn stream_rounds(&self) -> u64 {
        self.stream_rounds.get()
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
        let t = s.read(&mut stream).unwrap();
        assert_eq!(t.arity(), 1);
        assert!(s.clock().breakdown().stream_read_us >= 20);
        assert_eq!(s.tuples_streamed(), 1);
    }

    #[test]
    fn probes_charge_random_access() {
        let s = sources();
        let hits = s.probe(RelId::new(0), 0, &Value::Int(1));
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
        use crate::pushdown::JoinCond;
        let spec = SpjSpec {
            atoms: vec![(RelId::new(0), None), (RelId::new(1), None)],
            joins: vec![JoinCond {
                left: RelId::new(0),
                left_col: 0,
                right: RelId::new(1),
                right_col: 0,
            }],
        };
        let mut stream = s.open_pushdown(&spec);
        let mut last = f64::INFINITY;
        let mut n = 0;
        while let Some(t) = s.read(&mut stream) {
            let p = t.raw_score_product();
            assert!(p <= last + 1e-12);
            last = p;
            n += 1;
        }
        assert!(n > 0);
    }

    #[test]
    fn fetch_ahead_amortizes_network_rounds() {
        let run = |fetch_batch: usize| {
            let cost = CostProfile {
                fetch_batch,
                ..CostProfile::default()
            };
            let s = Sources::new(SimClock::new(), cost, 42);
            s.register(mk_table(0, 9));
            let mut stream = s.open_stream(RelId::new(0), None);
            let mut ids = Vec::new();
            while let Some(t) = s.read(&mut stream) {
                ids.push(t.parts()[0].row_id);
            }
            (ids, s.stream_rounds(), s.clock().breakdown().stream_read_us)
        };
        let (ids1, rounds1, us1) = run(1);
        let (ids4, rounds4, us4) = run(4);
        assert_eq!(ids1, ids4, "batching must not change the sequence");
        assert_eq!(rounds1, 9, "one round per tuple unbatched");
        assert_eq!(rounds4, 3, "ceil(9 / 4) rounds batched");
        assert!(us4 < us1, "fewer rounds, less simulated time");
        // Per-tuple CPU still charged for every tuple.
        assert!(us4 >= 9 * CostProfile::default().stream_tuple_us);
    }

    #[test]
    fn try_read_without_injector_matches_read() {
        let a = sources();
        let b = sources();
        let mut sa = a.open_stream(RelId::new(0), None);
        let mut sb = b.open_stream(RelId::new(0), None);
        loop {
            let x = a.read(&mut sa);
            let y = b.try_read(&mut sb).expect("infallible without injector");
            assert_eq!(x.is_none(), y.is_none());
            if x.is_none() {
                break;
            }
        }
        assert_eq!(
            a.clock().breakdown().stream_read_us,
            b.clock().breakdown().stream_read_us
        );
    }

    #[test]
    fn unfaulted_rel_sees_identical_delays_under_injector() {
        use crate::fault::{FaultInjector, FaultSpec};
        let plain = sources();
        let mut chaotic = sources();
        // Faults scheduled only for rel 1; rel 0 must be untouched.
        let spec = FaultSpec::parse("seed=5; rel1:transient=0.9").unwrap();
        chaotic.set_injector(FaultInjector::new(spec, 0));
        let mut sp = plain.open_stream(RelId::new(0), None);
        let mut sc = chaotic.open_stream(RelId::new(0), None);
        while plain.read(&mut sp).is_some() {
            chaotic.try_read(&mut sc).unwrap().unwrap();
        }
        assert_eq!(
            plain.clock().breakdown().stream_read_us,
            chaotic.clock().breakdown().stream_read_us,
            "a schedule on rel 1 must not perturb rel 0's virtual time"
        );
    }

    #[test]
    fn outage_fails_fetches_and_leaves_the_cursor() {
        use crate::fault::{FaultInjector, FaultSpec, SourceError};
        let mut s = sources();
        let spec = FaultSpec::parse("rel0:outage=0..").unwrap();
        s.set_injector(FaultInjector::new(spec, 0));
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
    }

    #[test]
    fn slow_rounds_time_out_only_with_a_timeout_set() {
        use crate::fault::{FaultInjector, FaultSpec, SourceError};
        let build = || {
            let mut s = sources();
            let spec = FaultSpec::parse("rel0:slow=1x1000").unwrap();
            s.set_injector(FaultInjector::new(spec, 0));
            s
        };
        // No timeout: the slow round delivers, just late.
        let s = build();
        let mut stream = s.open_stream(RelId::new(0), None);
        assert!(s.try_read(&mut stream).unwrap().is_some());
        assert!(s.clock().breakdown().stream_read_us > 100_000);
        // Tight timeout: the same schedule times out and charges the cap.
        let s = build();
        s.set_fetch_timeout(Some(10_000));
        let mut stream = s.open_stream(RelId::new(0), None);
        assert_eq!(
            s.try_read(&mut stream),
            Err(SourceError::Timeout { rel: RelId::new(0) })
        );
        assert_eq!(s.clock().breakdown().stream_read_us, 10_000);
        assert_eq!(stream.delivered(), 0);
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
