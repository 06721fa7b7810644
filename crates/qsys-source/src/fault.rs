//! Deterministic fault injection for the simulated source layer.
//!
//! The paper's sources are *remote* — its cost model charges a Poisson
//! network round per stream read — so a faithful serving reproduction needs
//! failure semantics, not just delays. A [`FaultInjector`] schedules, per
//! relation, three kinds of trouble over **simulated** time:
//!
//! - **transient fetch errors** (`transient=<rate>`): a fetch round fails
//!   with [`SourceError::Transient`]; the round-trip is still charged to the
//!   clock and the tuple stays at the source, so a retry can fetch it.
//! - **slow rounds** (`slow=<rate>x<mult>`): the round's Poisson delay is
//!   inflated by `<mult>`; if a per-fetch timeout is configured and the
//!   inflated delay exceeds it, the fetch fails with
//!   [`SourceError::Timeout`] after charging exactly the timeout.
//! - **hard outages** (`outage=<start>..<end>` in virtual µs, open end =
//!   the rest of the run): every fetch in the window fails with
//!   [`SourceError::Outage`].
//!
//! Plus a test hook, `panic` — the first fetch of that relation panics, to
//! exercise lane panic-isolation.
//!
//! # Determinism
//!
//! The injector draws from its **own** seeded RNG, and only for relations
//! with a nonzero transient/slow rate — so a fault schedule perturbs
//! neither the delay sequence of unfaulted relations nor any other
//! workload randomness. Error rounds charge a *fixed* cost (the mean
//! network delay) and consume no RNG at all. With no injector installed,
//! the fetch path is byte-identical to the fault-free build.
//!
//! # Spec grammar ([`FaultSpec::parse`])
//!
//! Semicolon-separated clauses; whitespace is ignored:
//!
//! ```text
//! seed=7; transient=0.01; rel3:outage=0..; rel5:slow=0.2x6; rel9:panic
//! ```
//!
//! - `seed=<u64>` — the injector RNG seed (default 0).
//! - Unscoped `transient=`/`slow=` clauses set the **default** faults for
//!   every relation without a scoped clause.
//! - `rel<N>:` scopes a clause to one relation. A relation with any scoped
//!   clause starts from a clean slate (the defaults do not apply to it).
//! - `outage=<start>..<end?>` may repeat for multiple windows.

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

/// A complete, serializable fault schedule (see the module docs for the
/// text grammar). `Display` re-emits the canonical spec string, so specs
/// round-trip through `parse`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSpec {
    /// Seed for the injector's private RNG.
    pub seed: u64,
    /// Faults applied to relations with no scoped clause.
    pub default_faults: RelFaults,
    /// Scoped per-relation faults (these *replace* the defaults).
    pub per_rel: BTreeMap<u32, RelFaults>,
}

impl FaultSpec {
    /// Parse the schedule grammar (module docs). Returns a human-readable
    /// error for malformed clauses.
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut out = FaultSpec::default();
        for raw in spec.split(';') {
            let clause = raw.trim();
            if clause.is_empty() {
                continue;
            }
            let (scope, body) = match clause.split_once(':') {
                Some((rel, body)) => {
                    let id: u32 = rel
                        .trim()
                        .strip_prefix("rel")
                        .and_then(|n| n.parse().ok())
                        .ok_or_else(|| format!("bad relation scope `{rel}` in `{clause}`"))?;
                    (Some(id), body.trim())
                }
                None => (None, clause),
            };
            let faults = match scope {
                Some(id) => out.per_rel.entry(id).or_default(),
                None => &mut out.default_faults,
            };
            if body == "panic" {
                if scope.is_none() {
                    return Err("`panic` must be scoped to one relation".into());
                }
                faults.panic_on_fetch = true;
                continue;
            }
            let (key, value) = body
                .split_once('=')
                .ok_or_else(|| format!("expected `key=value` in `{clause}`"))?;
            match (key.trim(), value.trim()) {
                ("seed", v) => {
                    if scope.is_some() {
                        return Err(format!("`seed` cannot be scoped in `{clause}`"));
                    }
                    out.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
                }
                ("transient", v) => {
                    faults.transient = parse_rate(v, clause)?;
                }
                ("slow", v) => {
                    let (rate, mult) = v
                        .split_once('x')
                        .ok_or_else(|| format!("expected `slow=<rate>x<mult>` in `{clause}`"))?;
                    faults.slow_rate = parse_rate(rate, clause)?;
                    faults.slow_mult = mult
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad slow multiplier `{mult}` in `{clause}`"))?;
                    if faults.slow_mult < 1.0 {
                        return Err(format!("slow multiplier must be ≥ 1 in `{clause}`"));
                    }
                }
                ("outage", v) => {
                    let (start, end) = v.split_once("..").ok_or_else(|| {
                        format!("expected `outage=<start>..<end?>` in `{clause}`")
                    })?;
                    let start: u64 = start
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad outage start `{start}` in `{clause}`"))?;
                    let end = match end.trim() {
                        "" => None,
                        e => Some(
                            e.parse::<u64>()
                                .map_err(|_| format!("bad outage end `{e}` in `{clause}`"))?,
                        ),
                    };
                    if end.is_some_and(|e| e <= start) {
                        return Err(format!("empty outage window in `{clause}`"));
                    }
                    faults.outages.push((start, end));
                }
                (k, _) => return Err(format!("unknown fault kind `{k}` in `{clause}`")),
            }
        }
        Ok(out)
    }

    /// The faults in force for `rel`.
    pub(crate) fn faults_for(&self, rel: RelId) -> &RelFaults {
        self.per_rel.get(&rel.0).unwrap_or(&self.default_faults)
    }
}

fn parse_rate(v: &str, clause: &str) -> Result<f64, String> {
    let rate: f64 = v
        .trim()
        .parse()
        .map_err(|_| format!("bad rate `{v}` in `{clause}`"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("rate {rate} out of [0,1] in `{clause}`"));
    }
    Ok(rate)
}

fn fmt_faults(f: &mut fmt::Formatter<'_>, scope: &str, faults: &RelFaults) -> fmt::Result {
    if faults.transient > 0.0 {
        write!(f, ";{scope}transient={}", faults.transient)?;
    }
    if faults.slow_rate > 0.0 {
        write!(f, ";{scope}slow={}x{}", faults.slow_rate, faults.slow_mult)?;
    }
    for &(start, end) in &faults.outages {
        match end {
            Some(e) => write!(f, ";{scope}outage={start}..{e}")?,
            None => write!(f, ";{scope}outage={start}..")?,
        }
    }
    if faults.panic_on_fetch {
        write!(f, ";{scope}panic")?;
    }
    Ok(())
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        fmt_faults(f, "", &self.default_faults)?;
        for (id, faults) in &self.per_rel {
            fmt_faults(f, &format!("rel{id}:"), faults)?;
        }
        Ok(())
    }
}

/// What the injector ruled for one fetch round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
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
/// consulted once per fetch *round* — mid-round batched reads are local and
/// cannot fail.
pub struct FaultInjector {
    spec: FaultSpec,
    rng: RefCell<StdRng>,
}

impl FaultInjector {
    /// Build an injector for one lane.
    pub fn new(spec: FaultSpec, lane_idx: usize) -> FaultInjector {
        let seed = spec.seed ^ (lane_idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        FaultInjector {
            spec,
            rng: RefCell::new(seeded_rng(seed)),
        }
    }

    /// The schedule this injector runs.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Rule on a fetch round touching `rels` at virtual time `now_us`.
    ///
    /// Order: panic hook, then outage windows, then transient draws, then
    /// slow draws — each in `rels` order. RNG is consumed only for
    /// relations with a nonzero rate, so unfaulted relations never perturb
    /// the draw sequence.
    pub fn verdict(&self, rels: &[RelId], now_us: u64) -> Verdict {
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
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_round_trips() {
        let s = "seed=7; transient=0.01; rel3:outage=0..; rel5:slow=0.2x6; rel9:panic";
        let spec = FaultSpec::parse(s).unwrap();
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.default_faults.transient, 0.01);
        assert_eq!(spec.per_rel[&3].outages, vec![(0, None)]);
        assert_eq!(spec.per_rel[&5].slow_rate, 0.2);
        assert_eq!(spec.per_rel[&5].slow_mult, 6.0);
        assert!(spec.per_rel[&9].panic_on_fetch);
        let reparsed = FaultSpec::parse(&spec.to_string()).unwrap();
        assert_eq!(spec, reparsed);
    }

    #[test]
    fn scoped_clause_replaces_defaults() {
        let spec = FaultSpec::parse("transient=0.5; rel2:slow=1x4").unwrap();
        assert_eq!(spec.faults_for(RelId::new(1)).transient, 0.5);
        // rel2 has a scoped clause: the default transient does not apply.
        assert_eq!(spec.faults_for(RelId::new(2)).transient, 0.0);
        assert_eq!(spec.faults_for(RelId::new(2)).slow_mult, 4.0);
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            "transient=2.0",
            "rel1:outage=5..5",
            "slow=0.5",
            "panic",
            "relx:transient=0.1",
            "rel1:seed=4",
            "frobnicate=1",
            "snap:torn=512",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn outage_windows_and_open_ends() {
        let spec = FaultSpec::parse("rel1:outage=100..200; rel1:outage=500..").unwrap();
        let f = spec.faults_for(RelId::new(1));
        assert!(!f.in_outage(99));
        assert!(f.in_outage(100));
        assert!(!f.in_outage(200));
        assert!(f.in_outage(1_000_000));
    }

    #[test]
    fn verdicts_are_deterministic_and_skip_clear_rels() {
        let spec = FaultSpec::parse("seed=3; rel1:transient=0.5").unwrap();
        let run = || {
            let inj = FaultInjector::new(spec.clone(), 0);
            (0..64)
                .map(|i| inj.verdict(&[RelId::new(1)], i) == Verdict::Clear)
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "same seed, same verdict sequence");
        assert!(a.iter().any(|&c| c) && a.iter().any(|&c| !c));

        // A clear relation consumes no RNG: interleaving its verdicts must
        // not change the faulted relation's sequence.
        let inj = FaultInjector::new(spec.clone(), 0);
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
        let spec = FaultSpec::parse("rel4:panic").unwrap();
        FaultInjector::new(spec, 0).verdict(&[RelId::new(4)], 0);
    }
}
