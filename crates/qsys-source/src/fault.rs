//! Deterministic fault injection for the simulated source layer.
//!
//! The paper's sources are *remote* — its cost model charges a Poisson
//! network round per stream read — so a faithful serving reproduction needs
//! failure semantics, not just delays. A [`FaultInjector`] schedules, per
//! relation, three kinds of trouble over **simulated** time:
//!
//! - **transient fetch errors** ([`FaultSpec::transient`]): a fetch round
//!   fails with [`SourceError::Transient`]; the round-trip is still charged
//!   to the clock and the tuple stays at the source, so a retry can fetch
//!   it.
//! - **slow rounds** ([`FaultSpec::slow`]): the round's Poisson delay is
//!   multiplied; if the injector carries a per-fetch timeout and the
//!   inflated delay exceeds it, the fetch fails with
//!   [`SourceError::Timeout`] after charging exactly the timeout.
//! - **hard outages** ([`FaultSpec::outage`], virtual µs, open end = the
//!   rest of the run): every fetch in the window fails with
//!   [`SourceError::Outage`].
//!
//! Plus a test hook, [`FaultSpec::panic_on`] — the first fetch of that
//! relation panics, to exercise lane panic-isolation.
//!
//! A schedule is a [`FaultSpec`] value, built with its methods or written
//! as a struct literal; `EngineConfig::validate_all` checks it (rates in
//! [0, 1], slow multipliers ≥ 1, non-empty outage windows, a scoped panic
//! hook).
//!
//! # Determinism
//!
//! The injector draws from its **own** seeded RNG, and only for relations
//! with a nonzero transient/slow rate — so a fault schedule perturbs
//! neither the delay sequence of unfaulted relations nor any other
//! workload randomness. Error rounds charge a *fixed* cost (the mean
//! network delay) and consume no RNG at all. With no injector installed,
//! the fetch path is byte-identical to the fault-free build.

use qsys_types::dist::seeded_rng;
use qsys_types::RelId;
use rand::rngs::StdRng;
use rand::Rng;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;

/// A failed source fetch. Carries the relation so upper layers can
/// quarantine exactly the queries reading it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceError {
    /// A transient fetch error: the round-trip was wasted but the source is
    /// expected to answer a retry.
    Transient {
        /// The relation whose fetch failed.
        rel: RelId,
    },
    /// The source is in a hard outage window: retries within the window
    /// will keep failing.
    Outage {
        /// The unavailable relation.
        rel: RelId,
    },
    /// A slow round exceeded the per-fetch timeout; the wait up to the
    /// timeout was charged, the tuple was not delivered.
    Timeout {
        /// The relation whose fetch timed out.
        rel: RelId,
    },
    /// The executor's circuit breaker for this relation is open — the fetch
    /// was failed fast without contacting the source. (Produced by the
    /// governor in `qsys-exec`, never by the injector itself; defined here
    /// so the whole stack shares one error type.)
    BreakerOpen {
        /// The relation whose breaker is open.
        rel: RelId,
    },
}

impl SourceError {
    /// The relation this failure concerns.
    pub fn rel(&self) -> RelId {
        match *self {
            SourceError::Transient { rel }
            | SourceError::Outage { rel }
            | SourceError::Timeout { rel }
            | SourceError::BreakerOpen { rel } => rel,
        }
    }
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Transient { rel } => write!(f, "transient fetch error on {rel}"),
            SourceError::Outage { rel } => write!(f, "{rel} is in a hard outage"),
            SourceError::Timeout { rel } => write!(f, "fetch from {rel} timed out"),
            SourceError::BreakerOpen { rel } => write!(f, "circuit breaker open for {rel}"),
        }
    }
}

impl std::error::Error for SourceError {}

/// Fault configuration for one relation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RelFaults {
    /// Probability that a fetch round fails transiently.
    pub transient: f64,
    /// Probability that a round is slow.
    pub slow_rate: f64,
    /// Latency multiplier applied to slow rounds.
    pub slow_mult: f64,
    /// Hard-outage windows in virtual µs; `None` end = rest of the run.
    pub outages: Vec<(u64, Option<u64>)>,
    /// Panic on the first fetch (lane panic-isolation test hook).
    pub panic_on_fetch: bool,
}

impl RelFaults {
    /// Whether any fault is configured at all.
    pub(crate) fn is_clear(&self) -> bool {
        self.transient <= 0.0
            && self.slow_rate <= 0.0
            && self.outages.is_empty()
            && !self.panic_on_fetch
    }

    fn in_outage(&self, now_us: u64) -> bool {
        self.outages
            .iter()
            .any(|&(start, end)| now_us >= start && end.is_none_or(|e| now_us < e))
    }
}

/// A complete fault schedule: a seed, the faults every relation gets by
/// default, and per-relation faults that replace the defaults.
///
/// Build one with [`FaultSpec::new`] and its methods (a struct literal is
/// the same value; `EngineConfig::validate_all` checks either through
/// [`FaultSpec::problems`]):
///
/// ```
/// use qsys_source::FaultSpec;
/// let spec = FaultSpec::new(7)
///     .transient(0.01) // every relation without faults of its own
///     .outage(3, 0, None) // rel 3 is dark for the whole run
///     .rel_slow(5, 0.2, 6.0) // rel 5: one round in five is 6× slower
///     .panic_on(9); // the first fetch from rel 9 panics its lane
/// assert_eq!(spec.default_faults.transient, 0.01);
/// // rel 5's own faults replace the defaults.
/// assert_eq!(spec.per_rel[&5].transient, 0.0);
/// assert!(spec.problems().is_empty());
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSpec {
    /// Seed for the injector's private RNG.
    pub seed: u64,
    /// Faults applied to relations with no faults of their own.
    pub default_faults: RelFaults,
    /// Per-relation faults (these *replace* the defaults).
    pub per_rel: BTreeMap<u32, RelFaults>,
}

impl FaultSpec {
    /// An empty schedule; `seed` drives every probabilistic draw the
    /// injector makes, so equal schedules replay identically.
    pub fn new(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            ..FaultSpec::default()
        }
    }

    /// Default transient-error rate, for every relation without faults of
    /// its own.
    pub fn transient(mut self, rate: f64) -> Self {
        self.default_faults.transient = rate;
        self
    }

    /// Default slow-round schedule: each fetch round is slowed with
    /// probability `rate`, its network delay multiplied by `mult`.
    pub fn slow(mut self, rate: f64, mult: f64) -> Self {
        self.default_faults.slow_rate = rate;
        self.default_faults.slow_mult = mult;
        self
    }

    /// Transient-error rate for one relation.
    pub fn rel_transient(mut self, rel: u32, rate: f64) -> Self {
        self.rel(rel).transient = rate;
        self
    }

    /// Slow-round schedule for one relation.
    pub fn rel_slow(mut self, rel: u32, rate: f64, mult: f64) -> Self {
        let faults = self.rel(rel);
        faults.slow_rate = rate;
        faults.slow_mult = mult;
        self
    }

    /// Hard outage of one relation over `[start_us, end_us)` virtual time;
    /// `None` keeps it dark for the rest of the run. Windows accumulate.
    pub fn outage(mut self, rel: u32, start_us: u64, end_us: Option<u64>) -> Self {
        self.rel(rel).outages.push((start_us, end_us));
        self
    }

    /// Panic the lane on the first fetch touching `rel` (exercises the
    /// engine's lane panic isolation).
    pub fn panic_on(mut self, rel: u32) -> Self {
        self.rel(rel).panic_on_fetch = true;
        self
    }

    /// `rel`'s own faults; the first call starts them clean, so the
    /// defaults stop applying to `rel`.
    fn rel(&mut self, rel: u32) -> &mut RelFaults {
        self.per_rel.entry(rel).or_default()
    }

    /// Why this schedule cannot run, one line per problem (empty: it can):
    /// a rate outside [0, 1], a slow schedule whose multiplier is not a
    /// finite number ≥ 1, an empty outage window, or a panic hook on the
    /// defaults.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        let scopes = std::iter::once((None, &self.default_faults))
            .chain(self.per_rel.iter().map(|(&id, f)| (Some(id), f)));
        for (rel, f) in scopes {
            let scope = rel.map_or("default faults".to_string(), |id| format!("rel{id}"));
            for (kind, rate) in [("transient", f.transient), ("slow", f.slow_rate)] {
                if !(0.0..=1.0).contains(&rate) {
                    out.push(format!("{scope}: {kind} rate {rate} is outside [0, 1]"));
                }
            }
            if f.slow_rate > 0.0 && !(f.slow_mult.is_finite() && f.slow_mult >= 1.0) {
                out.push(format!(
                    "{scope}: slow multiplier {} is not a finite number ≥ 1",
                    f.slow_mult
                ));
            }
            for &(start, end) in &f.outages {
                if let Some(end) = end.filter(|&e| e <= start) {
                    out.push(format!("{scope}: outage window {start}..{end} is empty"));
                }
            }
            if rel.is_none() && f.panic_on_fetch {
                out.push("the panic hook must be scoped to one relation".to_string());
            }
        }
        out
    }

    /// The faults in force for `rel`.
    pub(crate) fn faults_for(&self, rel: RelId) -> &RelFaults {
        self.per_rel.get(&rel.0).unwrap_or(&self.default_faults)
    }
}

/// What the injector ruled for one fetch round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Verdict {
    /// The round proceeds normally.
    Clear,
    /// The round proceeds, but its network delay is multiplied.
    Slow {
        /// The relation whose slow schedule fired.
        rel: RelId,
        /// The latency multiplier.
        mult: f64,
    },
    /// The round fails.
    Fail(SourceError),
}

/// The per-lane fault oracle. Owns a private seeded RNG (mixed with the
/// lane index so clustered lanes draw independent fault sequences) and is
/// consulted once per fetch (every fetch is one network round).
pub struct FaultInjector {
    spec: FaultSpec,
    rng: RefCell<StdRng>,
    /// Per-fetch timeout (virtual µs). Only a slow round can exceed it, so
    /// an unfaulted relation never exhausts a retry budget.
    pub(crate) fetch_timeout_us: Option<u64>,
}

impl FaultInjector {
    /// Build an injector for one lane, timing out slow rounds whose
    /// inflated delay exceeds `fetch_timeout_us`.
    pub fn new(spec: FaultSpec, lane_idx: usize, fetch_timeout_us: Option<u64>) -> FaultInjector {
        let seed = spec.seed ^ (lane_idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        FaultInjector {
            spec,
            rng: RefCell::new(seeded_rng(seed)),
            fetch_timeout_us,
        }
    }

    /// Rule on a fetch round touching `rels` at virtual time `now_us`.
    ///
    /// Order: panic hook, then outage windows, then transient draws, then
    /// slow draws — each in `rels` order. RNG is consumed only for
    /// relations with a nonzero rate, so unfaulted relations never perturb
    /// the draw sequence.
    pub(crate) fn verdict(&self, rels: &[RelId], now_us: u64) -> Verdict {
        for &rel in rels {
            if self.spec.faults_for(rel).panic_on_fetch {
                panic!("injected fault: panic on fetch from {rel}");
            }
        }
        for &rel in rels {
            if self.spec.faults_for(rel).in_outage(now_us) {
                return Verdict::Fail(SourceError::Outage { rel });
            }
        }
        for &rel in rels {
            let f = self.spec.faults_for(rel);
            if f.transient > 0.0 && self.rng.borrow_mut().random::<f64>() < f.transient {
                return Verdict::Fail(SourceError::Transient { rel });
            }
        }
        for &rel in rels {
            let f = self.spec.faults_for(rel);
            if f.slow_rate > 0.0 && self.rng.borrow_mut().random::<f64>() < f.slow_rate {
                return Verdict::Slow {
                    rel,
                    mult: f.slow_mult,
                };
            }
        }
        Verdict::Clear
    }

    /// Whether `rels` is entirely clear of scheduled faults (no verdict —
    /// and thus no RNG draw — will ever be needed for such a fetch).
    pub(crate) fn all_clear(&self, rels: &[RelId]) -> bool {
        rels.iter().all(|&r| self.spec.faults_for(r).is_clear())
    }
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("spec", &self.spec)
            .field("fetch_timeout_us", &self.fetch_timeout_us)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_builds_the_struct_literal() {
        let spec = FaultSpec::new(7)
            .transient(0.01)
            .outage(3, 0, None)
            .rel_slow(5, 0.2, 6.0)
            .panic_on(9);
        let clean = RelFaults::default;
        let literal = FaultSpec {
            seed: 7,
            default_faults: RelFaults {
                transient: 0.01,
                ..clean()
            },
            per_rel: BTreeMap::from([
                (
                    3,
                    RelFaults {
                        outages: vec![(0, None)],
                        ..clean()
                    },
                ),
                (
                    5,
                    RelFaults {
                        slow_rate: 0.2,
                        slow_mult: 6.0,
                        ..clean()
                    },
                ),
                (
                    9,
                    RelFaults {
                        panic_on_fetch: true,
                        ..clean()
                    },
                ),
            ]),
        };
        assert_eq!(spec, literal);
    }

    #[test]
    fn scoped_clause_replaces_defaults() {
        let spec = FaultSpec::new(0).transient(0.5).rel_slow(2, 1.0, 4.0);
        assert_eq!(spec.faults_for(RelId::new(1)).transient, 0.5);
        // rel2 has faults of its own: the default transient does not apply.
        assert_eq!(spec.faults_for(RelId::new(2)).transient, 0.0);
        assert_eq!(spec.faults_for(RelId::new(2)).slow_mult, 4.0);
    }

    #[test]
    fn outage_windows_and_open_ends() {
        let spec = FaultSpec::new(0)
            .outage(1, 100, Some(200))
            .outage(1, 500, None);
        let f = spec.faults_for(RelId::new(1));
        assert!(!f.in_outage(99));
        assert!(f.in_outage(100));
        assert!(!f.in_outage(200));
        assert!(f.in_outage(1_000_000));
    }

    #[test]
    fn verdicts_are_deterministic_and_skip_clear_rels() {
        let spec = FaultSpec::new(3).rel_transient(1, 0.5);
        let run = || {
            let inj = FaultInjector::new(spec.clone(), 0, None);
            (0..64)
                .map(|i| inj.verdict(&[RelId::new(1)], i) == Verdict::Clear)
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "same seed, same verdict sequence");
        assert!(a.iter().any(|&c| c) && a.iter().any(|&c| !c));

        // A clear relation consumes no RNG: interleaving its verdicts must
        // not change the faulted relation's sequence.
        let inj = FaultInjector::new(spec.clone(), 0, None);
        let mut b = Vec::new();
        for i in 0..64 {
            assert_eq!(inj.verdict(&[RelId::new(2)], i), Verdict::Clear);
            b.push(inj.verdict(&[RelId::new(1)], i) == Verdict::Clear);
        }
        assert_eq!(a, b);
        assert!(inj.all_clear(&[RelId::new(2)]));
        assert!(!inj.all_clear(&[RelId::new(1), RelId::new(2)]));
    }

    #[test]
    #[should_panic(expected = "injected fault: panic on fetch")]
    fn panic_hook_fires() {
        let spec = FaultSpec::new(0).panic_on(4);
        FaultInjector::new(spec, 0, None).verdict(&[RelId::new(4)], 0);
    }
}
