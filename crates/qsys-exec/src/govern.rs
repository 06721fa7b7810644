//! Fetch governance: retries, backoff, timeouts, and circuit breakers.
//!
//! The paper's sources are remote, so a serving deployment needs the
//! classic resilience loop around every fetch. [`SourceGovernor`] wraps the
//! fallible fetch path of [`Sources`] with:
//!
//! - **bounded retries** with exponential backoff and deterministic jitter,
//!   charged to the virtual clock so backoff shows up in simulated response
//!   times exactly like network delay does;
//! - a **per-fetch timeout** (`qsys_source::fault`'s constant, applied by
//!   the lane's fault injector, so only fault-inflated slow rounds can trip
//!   it — an unfaulted relation can never exhaust a retry budget);
//! - a **per-source circuit breaker**: after [`BREAKER_THRESHOLD`]
//!   consecutive failures the breaker opens and fetches fail fast (no
//!   simulated round-trip) until a cooldown elapses, then a single
//!   half-open probe decides between closing and re-opening.
//!
//! The loop's values are this module's constants, not configuration.
//!
//! The governor also tracks which relations failed during the current
//! execution batch, so completions can be classified as degraded (see
//! `ExecStats::complete`), and keeps one cumulative [`FaultStats`] that
//! flows into run reports.
//!
//! Every executor fetch goes through the governor to
//! [`Sources::try_read`]/[`Sources::try_probe`], the one fetch path. When
//! the source registry has no fault injector installed, the governor calls
//! it directly and skips the breaker bookkeeping — nothing can fail.

use qsys_source::{SourceError, SourceStream, Sources};
use qsys_types::{BaseTuple, RelId, TimeCategory, Tuple, Value};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Retries after the first failed attempt of one fetch.
const MAX_RETRIES: u32 = 3;
/// Backoff before the first retry, virtual µs; doubles per retry.
const BACKOFF_BASE_US: u64 = 1_000;
/// Backoff ceiling, virtual µs.
const BACKOFF_CAP_US: u64 = 32_000;
/// Deterministic jitter added to each backoff, as a fraction of it.
const JITTER_FRAC: f64 = 0.25;
/// Consecutive failures that open a relation's circuit breaker.
const BREAKER_THRESHOLD: u32 = 4;
/// Virtual µs an open breaker waits before its half-open probe.
const BREAKER_COOLDOWN_US: u64 = 500_000;

/// The retired settable retry policy, carried by `EngineConfig::retry` and
/// accepted (and ignored) by [`SourceGovernor::new`]. Its only value is the
/// default: the loop's values are this module's constants. It remains only
/// because the benchmark names it; ROADMAP item 1(b) removes it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RetryPolicy(());

/// Cumulative fault/resilience counters (one lane's governor, or summed
/// across lanes in a run report).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Retries performed (attempts beyond the first).
    pub retries: u64,
    /// Transient fetch errors observed.
    pub transient_errors: u64,
    /// Hard-outage errors observed.
    pub outage_errors: u64,
    /// Per-fetch timeouts observed.
    pub timeouts: u64,
    /// Breaker transitions to open (including half-open re-trips).
    pub breaker_trips: u64,
    /// Fetches failed fast by an open breaker.
    pub breaker_fast_fails: u64,
    /// Fetches that exhausted their retry budget.
    pub exhausted_fetches: u64,
    /// Stream leaves quarantined after a fetch gave up.
    pub quarantined_streams: u64,
    /// Remote probes that gave up (join matches silently missing).
    pub failed_probes: u64,
}

impl FaultStats {
    /// Accumulate another snapshot into this one.
    pub fn absorb(&mut self, o: &FaultStats) {
        self.retries += o.retries;
        self.transient_errors += o.transient_errors;
        self.outage_errors += o.outage_errors;
        self.timeouts += o.timeouts;
        self.breaker_trips += o.breaker_trips;
        self.breaker_fast_fails += o.breaker_fast_fails;
        self.exhausted_fetches += o.exhausted_fetches;
        self.quarantined_streams += o.quarantined_streams;
        self.failed_probes += o.failed_probes;
    }

    /// Whether anything at all went wrong.
    pub fn any(&self) -> bool {
        *self != FaultStats::default()
    }
}

/// One relation's breaker state. `open_until: Some(t)` means open; once
/// `now ≥ t` the next fetch is the half-open probe (success closes the
/// breaker, failure re-opens it for another cooldown).
#[derive(Clone, Copy, Debug, Default)]
struct Breaker {
    consecutive: u32,
    open_until: Option<u64>,
}

/// Per-lane fetch governor. Interior mutability mirrors [`Sources`]: one
/// lane drives it from one thread (`Send`, not `Sync`).
#[derive(Debug)]
pub struct SourceGovernor {
    breakers: RefCell<BTreeMap<RelId, Breaker>>,
    /// Relations that failed a fetch during the current batch — cleared by
    /// [`SourceGovernor::begin_batch`], consulted when classifying each
    /// completing query as complete or degraded.
    batch_failed: RefCell<BTreeSet<RelId>>,
    /// Monotone retry counter: the jitter hash input, so jitter is
    /// deterministic for a given execution order yet varies per retry.
    retry_ordinal: Cell<u64>,
    /// Cumulative counters.
    stats: Cell<FaultStats>,
}

impl SourceGovernor {
    /// A new governor, every breaker closed. The policy is the retired
    /// one-value shell, kept in the signature because the benchmark names
    /// it.
    pub fn new(_policy: RetryPolicy) -> SourceGovernor {
        SourceGovernor {
            breakers: RefCell::new(BTreeMap::new()),
            batch_failed: RefCell::new(BTreeSet::new()),
            retry_ordinal: Cell::new(0),
            stats: Cell::new(FaultStats::default()),
        }
    }

    /// Add one to the counter `counter` picks out.
    fn count(&self, counter: fn(&mut FaultStats) -> &mut u64) {
        let mut stats = self.stats.get();
        *counter(&mut stats) += 1;
        self.stats.set(stats);
    }

    /// Start a new execution batch: clears the batch-scoped failure set.
    /// Breaker state and cumulative counters persist across batches.
    pub fn begin_batch(&self) {
        self.batch_failed.borrow_mut().clear();
    }

    /// Governed stream read: retry loop + breaker around
    /// [`Sources::try_read`]. Fast path when no faults are configured.
    pub(crate) fn read_stream(
        &self,
        sources: &Sources,
        stream: &mut SourceStream,
    ) -> Result<Option<Tuple>, SourceError> {
        if !sources.faults_enabled() {
            return sources.try_read(stream);
        }
        let rels: Vec<RelId> = stream.rels().to_vec();
        self.run_governed(sources, &rels, TimeCategory::StreamRead, |s| {
            s.try_read(stream)
        })
    }

    /// Governed remote probe: retry loop + breaker around
    /// [`Sources::try_probe`]. Fast path when no faults are configured.
    pub(crate) fn probe(
        &self,
        sources: &Sources,
        rel: RelId,
        column: usize,
        value: &Value,
    ) -> Result<Vec<Arc<BaseTuple>>, SourceError> {
        if !sources.faults_enabled() {
            return sources.try_probe(rel, column, value);
        }
        self.run_governed(sources, &[rel], TimeCategory::RandomAccess, |s| {
            s.try_probe(rel, column, value)
        })
    }

    fn run_governed<T>(
        &self,
        sources: &Sources,
        rels: &[RelId],
        backoff_category: TimeCategory,
        mut attempt: impl FnMut(&Sources) -> Result<T, SourceError>,
    ) -> Result<T, SourceError> {
        if let Some(rel) = self.breaker_blocks(rels, sources.clock().now_us()) {
            self.count(|s| &mut s.breaker_fast_fails);
            return Err(SourceError::BreakerOpen { rel });
        }
        let mut tries = 0u32;
        loop {
            match attempt(sources) {
                Ok(v) => {
                    self.record_success(rels);
                    return Ok(v);
                }
                Err(e) => {
                    self.count_error(&e);
                    self.record_failure(e.rel(), sources.clock().now_us());
                    if tries >= MAX_RETRIES {
                        self.count(|s| &mut s.exhausted_fetches);
                        return Err(e);
                    }
                    tries += 1;
                    self.count(|s| &mut s.retries);
                    let backoff = self.backoff_us(e.rel(), tries);
                    sources.clock().charge(backoff_category, backoff);
                }
            }
        }
    }

    /// Exponential backoff with deterministic jitter: `base · 2^(try-1)`
    /// capped, plus a hash of (relation, retry ordinal) scaled into the
    /// jitter window — reproducible for a given execution order, no host
    /// randomness.
    fn backoff_us(&self, rel: RelId, tries: u32) -> u64 {
        let exp = BACKOFF_BASE_US
            .saturating_mul(1u64 << (tries - 1).min(16))
            .min(BACKOFF_CAP_US);
        let span = (exp as f64 * JITTER_FRAC) as u64;
        if span == 0 {
            return exp;
        }
        let ord = self.retry_ordinal.get();
        self.retry_ordinal.set(ord + 1);
        exp + splitmix64(ord ^ ((rel.0 as u64) << 32)) % (span + 1)
    }

    fn count_error(&self, e: &SourceError) {
        self.count(match e {
            SourceError::Transient { .. } => |s| &mut s.transient_errors,
            SourceError::Outage { .. } => |s| &mut s.outage_errors,
            SourceError::Timeout { .. } => |s| &mut s.timeouts,
            SourceError::BreakerOpen { .. } => |s| &mut s.breaker_fast_fails,
        });
    }

    /// The first relation whose breaker is open (and still cooling down).
    fn breaker_blocks(&self, rels: &[RelId], now_us: u64) -> Option<RelId> {
        let breakers = self.breakers.borrow();
        rels.iter()
            .find(|rel| {
                breakers
                    .get(rel)
                    .and_then(|b| b.open_until)
                    .is_some_and(|until| now_us < until)
            })
            .copied()
    }

    fn record_success(&self, rels: &[RelId]) {
        let mut breakers = self.breakers.borrow_mut();
        for rel in rels {
            if let Some(b) = breakers.get_mut(rel) {
                b.consecutive = 0;
                b.open_until = None;
            }
        }
    }

    fn record_failure(&self, rel: RelId, now_us: u64) {
        let mut breakers = self.breakers.borrow_mut();
        let b = breakers.entry(rel).or_default();
        b.consecutive += 1;
        // A failure while open means the half-open probe failed; re-open.
        // Otherwise open once the consecutive count crosses the threshold.
        if b.open_until.is_some() || b.consecutive >= BREAKER_THRESHOLD {
            b.open_until = Some(now_us.saturating_add(BREAKER_COOLDOWN_US));
            self.count(|s| &mut s.breaker_trips);
        }
    }

    /// Record that a stream leaf over `rels` was quarantined.
    pub(crate) fn note_quarantined(&self, rels: &[RelId]) {
        self.count(|s| &mut s.quarantined_streams);
        self.batch_failed.borrow_mut().extend(rels.iter().copied());
    }

    /// Record that a remote probe of `rel` gave up (matches lost).
    pub(crate) fn note_failed_probe(&self, rel: RelId) {
        self.count(|s| &mut s.failed_probes);
        self.batch_failed.borrow_mut().insert(rel);
    }

    /// Which of `rels` failed during the current batch (sorted).
    pub(crate) fn failed_among(&self, rels: &[RelId]) -> Vec<RelId> {
        let failed = self.batch_failed.borrow();
        rels.iter()
            .filter(|r| failed.contains(r))
            .copied()
            .collect()
    }

    /// Whether any relation has failed during the current batch.
    pub(crate) fn any_batch_failures(&self) -> bool {
        !self.batch_failed.borrow().is_empty()
    }

    /// Cumulative counters.
    pub fn snapshot(&self) -> FaultStats {
        self.stats.get()
    }
}

/// SplitMix64 finalizer — the jitter hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsys_source::{FaultInjector, FaultSpec, Table};
    use qsys_types::SimClock;

    fn sources_with(spec: Option<FaultSpec>, rows: u64) -> Sources {
        let mut s = Sources::new(SimClock::new(), 17);
        for rel in 0..2u32 {
            let id = RelId::new(rel);
            let t = (0..rows)
                .map(|i| {
                    Arc::new(BaseTuple::new(
                        id,
                        i,
                        vec![Value::Int((i % 2) as i64)],
                        1.0 - i as f64 / rows as f64,
                    ))
                })
                .collect();
            s.register(Table::new(id, t));
        }
        if let Some(spec) = spec {
            s.set_injector(FaultInjector::new(spec, 0));
        }
        s
    }

    #[test]
    fn clean_sources_take_the_fast_path() {
        let s = sources_with(None, 8);
        let g = SourceGovernor::new(RetryPolicy::default());
        let mut stream = s.open_stream(RelId::new(0), None);
        while g.read_stream(&s, &mut stream).unwrap().is_some() {}
        assert_eq!(g.snapshot(), FaultStats::default());
    }

    #[test]
    fn transient_errors_are_retried_and_backoff_is_charged() {
        // 25% transient: exhausting 1+3 attempts needs four failures in a
        // row (p ≈ 0.4% per fetch) — and the seed pins the outcome anyway.
        let s = sources_with(Some(FaultSpec::new(11).rel_transient(0, 0.25)), 8);
        let g = SourceGovernor::new(RetryPolicy::default());
        let mut stream = s.open_stream(RelId::new(0), None);
        let mut n = 0;
        loop {
            match g.read_stream(&s, &mut stream) {
                Ok(Some(_)) => n += 1,
                Ok(None) => break,
                Err(e) => panic!("retry budget should survive 25% transients: {e}"),
            }
        }
        assert_eq!(n, 8, "every tuple delivered despite transients");
        let snap = g.snapshot();
        assert!(snap.retries > 0);
        assert_eq!(snap.retries, snap.transient_errors);
        assert_eq!(snap.exhausted_fetches, 0);
    }

    #[test]
    fn outage_exhausts_retries_then_breaker_opens() {
        let s = sources_with(Some(FaultSpec::new(0).outage(0, 0, None)), 8);
        let g = SourceGovernor::new(RetryPolicy::default());
        let mut stream = s.open_stream(RelId::new(0), None);
        // First fetch: 1 + MAX_RETRIES attempts, all outage errors.
        let e = g.read_stream(&s, &mut stream).unwrap_err();
        assert_eq!(e, SourceError::Outage { rel: RelId::new(0) });
        let snap = g.snapshot();
        assert_eq!(snap.outage_errors as u32, 1 + MAX_RETRIES);
        assert_eq!(snap.exhausted_fetches, 1);
        assert_eq!(snap.breaker_trips, 1, "4 consecutive failures trip it");
        // Next fetch fails fast without touching the network.
        let before = s.clock().breakdown().stream_read_us;
        let e = g.read_stream(&s, &mut stream).unwrap_err();
        assert_eq!(e, SourceError::BreakerOpen { rel: RelId::new(0) });
        assert_eq!(s.clock().breakdown().stream_read_us, before);
        assert!(g.snapshot().breaker_fast_fails >= 1);
        // The other relation is untouched.
        let mut other = s.open_stream(RelId::new(1), None);
        assert!(g.read_stream(&s, &mut other).unwrap().is_some());
    }

    #[test]
    fn breaker_half_open_probe_recovers_after_the_window() {
        // Outage for the first 1s of virtual time only.
        let s = sources_with(Some(FaultSpec::new(0).outage(0, 0, Some(1_000_000))), 8);
        let g = SourceGovernor::new(RetryPolicy::default());
        let mut stream = s.open_stream(RelId::new(0), None);
        let mut failures = 0;
        let mut delivered = 0;
        // Keep trying; burn idle time between attempts like a real lane
        // would while serving other queries.
        for _ in 0..200 {
            match g.read_stream(&s, &mut stream) {
                Ok(Some(_)) => delivered += 1,
                Ok(None) => break,
                Err(_) => {
                    failures += 1;
                    s.clock().charge(TimeCategory::StreamRead, 100_000);
                }
            }
        }
        assert!(failures > 0, "the outage was real");
        assert_eq!(delivered, 8, "after the window the source recovers");
        assert!(g.snapshot().breaker_trips >= 1);
    }

    #[test]
    fn batch_failure_tracking_resets_per_batch() {
        let g = SourceGovernor::new(RetryPolicy::default());
        g.begin_batch();
        g.note_quarantined(&[RelId::new(3), RelId::new(5)]);
        g.note_failed_probe(RelId::new(7));
        assert_eq!(
            g.failed_among(&[RelId::new(1), RelId::new(5), RelId::new(7)]),
            vec![RelId::new(5), RelId::new(7)]
        );
        assert!(g.any_batch_failures());
        g.begin_batch();
        assert!(!g.any_batch_failures());
        assert!(g.failed_among(&[RelId::new(5)]).is_empty());
        // Counters are cumulative.
        let snap = g.snapshot();
        assert_eq!(snap.quarantined_streams, 1);
        assert_eq!(snap.failed_probes, 1);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let a = SourceGovernor::new(RetryPolicy::default());
        let b = SourceGovernor::new(RetryPolicy::default());
        let seq = |g: &SourceGovernor| {
            (1..=6u32)
                .map(|t| g.backoff_us(RelId::new(9), t.min(4)))
                .collect::<Vec<_>>()
        };
        let xs = seq(&a);
        assert_eq!(xs, seq(&b));
        for x in xs {
            assert!(x as f64 <= BACKOFF_CAP_US as f64 * (1.0 + JITTER_FRAC));
        }
    }

    #[test]
    fn fault_stats_absorb_sums() {
        let mut a = FaultStats {
            retries: 1,
            ..FaultStats::default()
        };
        let b = FaultStats {
            retries: 2,
            breaker_trips: 3,
            ..FaultStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.retries, 3);
        assert_eq!(a.breaker_trips, 3);
        assert!(a.any());
        assert!(!FaultStats::default().any());
    }
}
