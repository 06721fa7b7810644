//! Adaptive mid-flight re-optimization: runtime observation, drift
//! detection, and cost-input correction.
//!
//! The paper's Algorithm 1 freezes its cardinality and streamability
//! guesses at graft time, but the executor *observes* the truth as the
//! ATC runs: a stream leaf's archive is its delivered cardinality, an
//! exhausted backing is an exact count, and an m-join's stored-module
//! size is the real (superlinear-in-overlap) co-location cost that the
//! catalog never saw. Since the warm path made a re-plan ~25× cheaper
//! than a cold one, acting on those observations mid-batch is nearly
//! free — this module supplies the three pure pieces of that loop:
//!
//! - [`ObservedStats`]: a per-lane store of per-[`SigId`] observed
//!   tuple counts (stream leaves and m-join state) plus per-relation
//!   delivery totals, filled by the QS manager's observation tap and
//!   merged monotonically (counts only grow, exhaustion is sticky).
//! - [`detect_drift`]: compares observations against the frozen
//!   [`WarmStore`] cost inputs and reports which signatures have
//!   diverged past a ratio threshold — distinguishing *underestimates*
//!   (still streaming past the guess), *overestimates* (exhausted well
//!   below it), and *state growth* (m-join state past the guess — the
//!   PR 8 lesson that co-location cost is superlinear in member
//!   overlap, so per-leaf error alone is not enough to watch).
//! - [`apply_observed`]: folds observed counts back into the warm
//!   store's facts (exact for exhausted leaves, lower bounds
//!   otherwise) and *propagates* exhausted-leaf evidence as per-relation
//!   correction factors across every cached fact sharing the relation —
//!   so the *next* optimization — the mid-batch re-plan, and every
//!   later batch on this lane — re-costs the whole candidate space,
//!   not just the incumbent's operators, with corrected cardinalities.
//!
//! The engine drives the loop (`src/session.rs`): every few ATC rounds
//! it taps observations, checks drift, and — when past the
//! [`AdaptiveConfig`] thresholds — re-plans the *remaining* queries
//! (those that have emitted nothing yet) through the warm path and
//! re-grafts them onto the live state. Everything here is deterministic
//! and, with the config off, never constructed — goldens stay
//! byte-identical.

use crate::warm::{WarmFact, WarmStore};
use qsys_query::{SigId, SigInterner};
use qsys_types::RelId;
use std::collections::BTreeMap;

/// One stream leaf's observed delivery state: how many tuples the leaf
/// has archived and whether its backing has nothing further to give
/// (making `tuples` an *exact* cardinality rather than a lower bound).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObservedCard {
    /// Tuples delivered (archived) so far.
    pub tuples: u64,
    /// Whether the backing is exhausted — `tuples` is then exact.
    pub exhausted: bool,
}

/// A lane's accumulated runtime observations, keyed by the lane's
/// stable [`SigId`]s. Merging is monotone: counts take the maximum
/// (observations are snapshots of growing archives), exhaustion is
/// sticky. `BTreeMap`s keep every iteration and export deterministic.
#[derive(Clone, Debug, Default)]
pub struct ObservedStats {
    /// Per stream-leaf signature: delivered tuples + exhaustion.
    cards: BTreeMap<SigId, ObservedCard>,
    /// Per m-join signature: stored-module tuple count (live state).
    state: BTreeMap<SigId, u64>,
    /// Per relation: total tuples delivered across its leaves — the
    /// delay/rate proxy (`rel_tuples / rounds`) for source accounting.
    rel_tuples: BTreeMap<RelId, u64>,
    /// Drive rounds observed, the denominator of every rate.
    rounds: u64,
}

impl ObservedStats {
    /// An empty store.
    pub fn new() -> ObservedStats {
        ObservedStats::default()
    }

    /// Record a stream leaf's delivery snapshot (max-merged; exhaustion
    /// is sticky).
    pub fn note_stream(&mut self, sig: SigId, tuples: u64, exhausted: bool) {
        let e = self.cards.entry(sig).or_default();
        e.tuples = e.tuples.max(tuples);
        e.exhausted |= exhausted;
    }

    /// Record an m-join's stored-state snapshot (max-merged).
    pub fn note_state(&mut self, sig: SigId, stored: u64) {
        let e = self.state.entry(sig).or_insert(0);
        *e = (*e).max(stored);
    }

    /// Record a relation's cumulative delivered-tuple snapshot
    /// (max-merged).
    pub fn note_rel(&mut self, rel: RelId, tuples: u64) {
        let e = self.rel_tuples.entry(rel).or_insert(0);
        *e = (*e).max(tuples);
    }

    /// Account `rounds` further drive rounds.
    pub fn add_rounds(&mut self, rounds: u64) {
        self.rounds += rounds;
    }

    /// The observed delivery state of a stream-leaf signature.
    pub fn card(&self, sig: SigId) -> Option<ObservedCard> {
        self.cards.get(&sig).copied()
    }

    /// The observed stored-state size of an m-join signature.
    pub fn state_of(&self, sig: SigId) -> Option<u64> {
        self.state.get(&sig).copied()
    }

    /// A relation's observed delivery rate in tuples per drive round
    /// (0.0 before any round has been accounted).
    pub fn rel_rate(&self, rel: RelId) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        self.rel_tuples.get(&rel).copied().unwrap_or(0) as f64 / self.rounds as f64
    }

    /// Drive rounds accounted so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Number of stream-leaf signatures observed.
    pub fn len(&self) -> usize {
        self.cards.len()
    }

    /// Whether nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.cards.is_empty() && self.state.is_empty()
    }

    /// Fold `other`'s observations into this store (monotone merge).
    pub fn absorb(&mut self, other: &ObservedStats) {
        for (sig, oc) in &other.cards {
            self.note_stream(*sig, oc.tuples, oc.exhausted);
        }
        for (sig, stored) in &other.state {
            self.note_state(*sig, *stored);
        }
        for (rel, tuples) in &other.rel_tuples {
            self.note_rel(*rel, *tuples);
        }
        self.rounds += other.rounds;
    }

    /// Export the learned per-leaf cardinalities as a serializable,
    /// id-sorted list — the snapshot layer's image. M-join state and
    /// relation rates describe *live* graph structure and are not
    /// meaningful across a restart, so only leaf cards persist.
    pub fn export(&self) -> Vec<(SigId, ObservedCard)> {
        self.cards.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Rebuild a store from an exported image, validating every id
    /// against the (already rebuilt) interner — an out-of-bounds id
    /// means the snapshot does not match the arena and is treated as
    /// corruption by the caller.
    pub fn from_export(
        entries: Vec<(SigId, ObservedCard)>,
        interner: &SigInterner,
    ) -> Result<ObservedStats, String> {
        let len = interner.len();
        let mut stats = ObservedStats::new();
        for (sig, oc) in entries {
            if sig.index() >= len {
                return Err(format!("observed id {sig} out of arena bounds ({len})"));
            }
            stats.note_stream(sig, oc.tuples, oc.exhausted);
        }
        Ok(stats)
    }
}

/// What [`detect_drift`] found: the signatures whose frozen cost inputs
/// the runtime has contradicted past the threshold, split by failure
/// mode.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DriftReport {
    /// Stream leaves still delivering past `factor ×` their estimate.
    pub underestimates: Vec<SigId>,
    /// Exhausted leaves whose estimate exceeds `factor ×` the exact
    /// observed count.
    pub overestimates: Vec<SigId>,
    /// M-joins whose stored state grew past `factor ×` their estimate —
    /// the superlinear co-location signal.
    pub state_growth: Vec<SigId>,
}

impl DriftReport {
    /// Whether any signature drifted.
    pub fn any(&self) -> bool {
        !self.underestimates.is_empty()
            || !self.overestimates.is_empty()
            || !self.state_growth.is_empty()
    }

    /// Total drifted signatures.
    pub fn total(&self) -> usize {
        self.underestimates.len() + self.overestimates.len() + self.state_growth.len()
    }
}

/// Compare a lane's observations against its frozen warm-store cost
/// inputs. A signature drifts when observation and estimate disagree by
/// more than `factor` (a ratio > 1.0) in either direction:
///
/// - a **non-exhausted** leaf that has already delivered more than
///   `est × factor` tuples is a definitive underestimate (the true
///   cardinality is at least the archive);
/// - an **exhausted** leaf is an exact count, so `est > observed ×
///   factor` is a definitive overestimate;
/// - an m-join whose stored state exceeds `est × factor` signals
///   superlinear co-location cost regardless of per-leaf accuracy.
///
/// Signatures with no recorded fact are skipped — there is no frozen
/// guess to drift *from* (and the optimizer will seed one at next use).
pub fn detect_drift(warm: &WarmStore, observed: &ObservedStats, factor: f64) -> DriftReport {
    let factor = factor.max(1.0);
    let mut report = DriftReport::default();
    for (sig, oc) in &observed.cards {
        let Some(fact) = warm.peek_fact(*sig) else {
            continue;
        };
        let est = fact.card.max(1.0);
        let got = oc.tuples as f64;
        if !oc.exhausted && got > est * factor {
            report.underestimates.push(*sig);
        } else if oc.exhausted && est > got.max(1.0) * factor {
            report.overestimates.push(*sig);
        }
    }
    for (sig, stored) in &observed.state {
        let Some(fact) = warm.peek_fact(*sig) else {
            continue;
        };
        if *stored as f64 > fact.card.max(1.0) * factor {
            report.state_growth.push(*sig);
        }
    }
    report
}

/// How far a single relation-level correction factor may swing a cached
/// estimate, and the dead band (±5%) inside which a factor is noise,
/// not drift.
const MAX_REL_FACTOR: f64 = 64.0;
const REL_FACTOR_DEAD_BAND: f64 = 1.05;

/// Fold observations back into the warm store's facts, returning how
/// many cardinalities actually changed.
///
/// Observed signatures are corrected directly: exhausted leaves
/// overwrite (exact counts); live leaves and m-join state only raise
/// (lower bounds must not shrink an estimate that may still be right).
///
/// The correction then *propagates*: an exhausted single-relation leaf
/// pins that relation's true delivery, so the ratio `observed /
/// estimated` is a correction factor for every cached fact built over
/// the relation — including candidate subexpressions the incumbent plan
/// never executed. Without this, a re-plan compares a corrected
/// incumbent against alternatives still costed from the stale catalog
/// and rationally re-picks the incumbent; with it, the whole candidate
/// space is re-costed on the runtime's evidence (the mid-query
/// re-optimization insight: leaf observations bound every plan that
/// shares the leaf). Factors multiply per involved relation, clamped to
/// `MAX_REL_FACTOR` and ignored inside a ±5% dead band.
///
/// Facts, enumerations, and ranks stay warm, so the very next
/// optimization re-costs with corrected inputs at warm speed. Repeat
/// applications are idempotent: once the deriving leaf is exact, its
/// factor collapses into the dead band.
pub fn apply_observed(
    warm: &mut WarmStore,
    observed: &ObservedStats,
    interner: &SigInterner,
) -> u64 {
    let mut corrected = 0u64;

    // Relation-level factors, derived before any fact is touched (the
    // ratio needs the *stale* estimate). Strongest evidence wins: the
    // exhausted leaf with the most delivered tuples speaks for its
    // relation.
    let mut factors: BTreeMap<RelId, (u64, f64)> = BTreeMap::new();
    for (sig, oc) in &observed.cards {
        if !oc.exhausted {
            continue;
        }
        let Some(fact) = warm.peek_fact(*sig) else {
            continue;
        };
        if sig.index() >= interner.len() {
            continue;
        }
        let rels = interner.rels(*sig);
        if rels.len() != 1 || fact.card <= 0.0 {
            continue;
        }
        let factor =
            (oc.tuples.max(1) as f64 / fact.card).clamp(1.0 / MAX_REL_FACTOR, MAX_REL_FACTOR);
        let entry = factors.entry(rels[0]).or_insert((0, 1.0));
        if oc.tuples >= entry.0 {
            *entry = (oc.tuples, factor);
        }
    }
    factors.retain(|_, (_, f)| *f > REL_FACTOR_DEAD_BAND || *f < 1.0 / REL_FACTOR_DEAD_BAND);
    // Persist each factor on the store so signatures *not yet cached* —
    // later batches' fresh selections over the same relations — are
    // computed pre-scaled (see `warm_fact_of`). The increment is relative
    // to the current cached facts, so repeated applications compose
    // instead of double-counting: once the deriving leaf is exact, the
    // increment sits in the dead band and the stored factor is stable.
    for (rel, (_, f)) in &factors {
        warm.note_rel_factor(*rel, *f, MAX_REL_FACTOR);
    }
    if !factors.is_empty() {
        corrected += warm.retune_facts(|sig, fact| {
            // Directly-observed signatures get their exact/bound
            // correction below — runtime truth beats a model rescale.
            if observed.cards.contains_key(&sig) || sig.index() >= interner.len() {
                return None;
            }
            let product: f64 = interner
                .rels(sig)
                .iter()
                .filter_map(|rel| factors.get(rel).map(|(_, f)| *f))
                .product();
            (product != 1.0).then_some(fact.card * product)
        });
    }

    let mut correct = |warm: &mut WarmStore, sig: SigId, card: f64| {
        let Some(fact) = warm.peek_fact(sig) else {
            return;
        };
        if card.is_finite() && card != fact.card {
            warm.set_fact(sig, WarmFact { card, ..fact });
            corrected += 1;
        }
    };
    for (sig, oc) in &observed.cards {
        let got = oc.tuples as f64;
        let new = if oc.exhausted {
            got
        } else {
            match warm.peek_fact(*sig) {
                Some(fact) => fact.card.max(got),
                None => continue,
            }
        };
        correct(warm, *sig, new);
    }
    for (sig, stored) in &observed.state {
        let new = match warm.peek_fact(*sig) {
            Some(fact) => fact.card.max(*stored as f64),
            None => continue,
        };
        correct(warm, *sig, new);
    }
    corrected
}

/// Adaptive re-optimization knobs, carried by `EngineConfig::adaptive`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptiveConfig {
    /// Drift ratio (> 1.0) past which a lane re-plans its remaining
    /// work mid-batch. `None` (the default) disables the whole adaptive
    /// path — no observation, no drift checks, goldens byte-identical.
    pub drift: Option<f64>,
    /// Minimum fraction of the batch's queries that must still be
    /// re-plannable (unfinished, nothing emitted) for a replan to pay:
    /// re-planning a batch that is already mostly delivered buys
    /// nothing.
    pub min_remaining: f64,
}

impl AdaptiveConfig {
    /// Default `min_remaining` when `QSYS_ADAPT_MIN_REMAINING` is unset.
    pub const DEFAULT_MIN_REMAINING: f64 = 0.25;

    /// Adaptive execution disabled (the default).
    pub fn off() -> AdaptiveConfig {
        AdaptiveConfig {
            drift: None,
            min_remaining: AdaptiveConfig::DEFAULT_MIN_REMAINING,
        }
    }

    /// Adaptive execution enabled at drift ratio `drift`.
    pub fn at(drift: f64) -> AdaptiveConfig {
        AdaptiveConfig {
            drift: Some(drift),
            ..AdaptiveConfig::off()
        }
    }

    /// Whether the adaptive path can ever engage under this config.
    pub fn enabled(&self) -> bool {
        self.drift.is_some()
    }
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig::off()
    }
}

/// Adaptive-execution counters, mirroring the fault layer's
/// `FaultSummary`: accumulated per lane, merged into the run report,
/// printed in the fig7 footer, and recorded in the bench JSON.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdaptiveSummary {
    /// Drift checks performed (observation taps compared to the store).
    pub drift_checks: u64,
    /// Mid-batch replans executed.
    pub replans: u64,
    /// Simulated time spent re-optimizing and re-grafting, µs.
    pub replan_us: u64,
    /// Warm-store cardinalities corrected from observations.
    pub cards_corrected: u64,
}

impl AdaptiveSummary {
    /// Whether the adaptive path did anything at all.
    pub fn any(&self) -> bool {
        self.drift_checks > 0 || self.replans > 0 || self.cards_corrected > 0
    }

    /// Fold another summary's counters into this one.
    pub fn absorb(&mut self, other: &AdaptiveSummary) {
        self.drift_checks += other.drift_checks;
        self.replans += other.replans;
        self.replan_us += other.replan_us;
        self.cards_corrected += other.cards_corrected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fact(card: f64) -> WarmFact {
        WarmFact {
            card,
            streamed: true,
            size: 1,
        }
    }

    #[test]
    fn observations_merge_monotonically() {
        let mut o = ObservedStats::new();
        o.note_stream(SigId(1), 10, false);
        o.note_stream(SigId(1), 7, true); // older snapshot, but exhaustion sticks
        o.note_stream(SigId(1), 9, false);
        let oc = o.card(SigId(1)).expect("recorded");
        assert_eq!(oc.tuples, 10, "counts take the max");
        assert!(oc.exhausted, "exhaustion is sticky");
        o.note_state(SigId(2), 5);
        o.note_state(SigId(2), 3);
        assert_eq!(o.state_of(SigId(2)), Some(5));
        o.note_rel(RelId::new(4), 30);
        o.add_rounds(10);
        assert_eq!(o.rel_rate(RelId::new(4)), 3.0);
        assert_eq!(o.rel_rate(RelId::new(9)), 0.0);
    }

    #[test]
    fn drift_detects_all_three_modes() {
        let mut warm = WarmStore::new();
        warm.set_fact(SigId(0), fact(10.0)); // will underestimate
        warm.set_fact(SigId(1), fact(100.0)); // will overestimate
        warm.set_fact(SigId(2), fact(10.0)); // m-join state growth
        warm.set_fact(SigId(3), fact(10.0)); // within tolerance
        let mut o = ObservedStats::new();
        o.note_stream(SigId(0), 25, false); // 25 > 10×2
        o.note_stream(SigId(1), 20, true); // 100 > 20×2
        o.note_state(SigId(2), 30); // 30 > 10×2
        o.note_stream(SigId(3), 15, false); // 15 ≤ 10×2
        o.note_stream(SigId(7), 1000, false); // no fact: no baseline, skipped
        let report = detect_drift(&warm, &o, 2.0);
        assert_eq!(report.underestimates, vec![SigId(0)]);
        assert_eq!(report.overestimates, vec![SigId(1)]);
        assert_eq!(report.state_growth, vec![SigId(2)]);
        assert!(report.any());
        assert_eq!(report.total(), 3);
    }

    #[test]
    fn exhausted_leaf_within_factor_is_not_drift() {
        let mut warm = WarmStore::new();
        warm.set_fact(SigId(0), fact(30.0));
        let mut o = ObservedStats::new();
        o.note_stream(SigId(0), 20, true); // 30 ≤ 20×2
        assert!(!detect_drift(&warm, &o, 2.0).any());
    }

    /// An interner whose first `n` signatures are single-relation scans
    /// over `n` distinct relations — enough structure for the
    /// relation-factor plumbing without cross-relation coupling.
    fn interner_of(n: u32) -> SigInterner {
        use qsys_query::SubExprSig;
        let mut interner = SigInterner::new();
        for r in 0..n {
            interner.intern(SubExprSig::new(vec![(RelId::new(r), None)], Vec::new()));
        }
        interner
    }

    #[test]
    fn apply_overwrites_exact_and_raises_bounds() {
        let interner = interner_of(4);
        let mut warm = WarmStore::new();
        warm.set_fact(SigId(0), fact(100.0)); // exhausted at 20 → exact 20
        warm.set_fact(SigId(1), fact(10.0)); // live at 25 → raised to 25
        warm.set_fact(SigId(2), fact(50.0)); // live at 5 → bound below est, kept
        warm.set_fact(SigId(3), fact(10.0)); // state 40 → raised to 40
        let mut o = ObservedStats::new();
        o.note_stream(SigId(0), 20, true);
        o.note_stream(SigId(1), 25, false);
        o.note_stream(SigId(2), 5, false);
        o.note_state(SigId(3), 40);
        o.note_stream(SigId(9), 99, true); // no fact: nothing to correct
        let corrected = apply_observed(&mut warm, &o, &interner);
        assert_eq!(corrected, 3);
        assert_eq!(warm.peek_fact(SigId(0)).unwrap().card, 20.0);
        assert_eq!(warm.peek_fact(SigId(1)).unwrap().card, 25.0);
        assert_eq!(warm.peek_fact(SigId(2)).unwrap().card, 50.0);
        assert_eq!(warm.peek_fact(SigId(3)).unwrap().card, 40.0);
        // A second application is idempotent: nothing further changes.
        assert_eq!(apply_observed(&mut warm, &o, &interner), 0);
    }

    #[test]
    fn exhausted_leaf_evidence_rescales_relation_siblings() {
        use qsys_query::SubExprSig;
        use qsys_types::{Selection, Value};
        let mut interner = SigInterner::new();
        // Two scans over relation 0 (different selections), a composite
        // over relations 0+1, and a scan over relation 1 alone.
        let scan_a = interner.intern(SubExprSig::new(
            vec![(RelId::new(0), Some(Selection::eq(0, Value::Int(1))))],
            Vec::new(),
        ));
        let scan_a2 = interner.intern(SubExprSig::new(
            vec![(RelId::new(0), Some(Selection::eq(0, Value::Int(2))))],
            Vec::new(),
        ));
        let join_ab = interner.intern(SubExprSig::new(
            vec![(RelId::new(0), None), (RelId::new(1), None)],
            Vec::new(),
        ));
        let scan_b = interner.intern(SubExprSig::new(vec![(RelId::new(1), None)], Vec::new()));
        let mut warm = WarmStore::new();
        warm.set_fact(scan_a, fact(100.0)); // exhausts at 400 → factor 4
        warm.set_fact(scan_a2, fact(50.0)); // unobserved sibling → ×4
        warm.set_fact(join_ab, fact(1000.0)); // unobserved composite → ×4
        warm.set_fact(scan_b, fact(30.0)); // other relation → untouched
        let mut o = ObservedStats::new();
        o.note_stream(scan_a, 400, true);
        let corrected = apply_observed(&mut warm, &o, &interner);
        assert_eq!(corrected, 3, "exact leaf + two rescaled siblings");
        assert_eq!(warm.peek_fact(scan_a).unwrap().card, 400.0, "exact");
        assert_eq!(warm.peek_fact(scan_a2).unwrap().card, 200.0, "×4");
        assert_eq!(warm.peek_fact(join_ab).unwrap().card, 4000.0, "×4");
        assert_eq!(warm.peek_fact(scan_b).unwrap().card, 30.0, "untouched");
        // Idempotent: the deriving leaf is now exact, so its factor
        // collapses into the dead band and nothing rescales again.
        assert_eq!(apply_observed(&mut warm, &o, &interner), 0);
    }

    #[test]
    fn config_default_is_off() {
        assert!(!AdaptiveConfig::default().enabled());
        assert!(AdaptiveConfig::at(2.0).enabled());
        assert_eq!(
            AdaptiveConfig::default().min_remaining,
            AdaptiveConfig::DEFAULT_MIN_REMAINING
        );
    }

    #[test]
    fn summary_absorbs_and_reports_any() {
        let mut a = AdaptiveSummary::default();
        assert!(!a.any());
        a.absorb(&AdaptiveSummary {
            drift_checks: 2,
            replans: 1,
            replan_us: 300,
            cards_corrected: 4,
        });
        a.absorb(&AdaptiveSummary {
            drift_checks: 1,
            ..AdaptiveSummary::default()
        });
        assert!(a.any());
        assert_eq!(a.drift_checks, 3);
        assert_eq!(a.replans, 1);
        assert_eq!(a.replan_us, 300);
        assert_eq!(a.cards_corrected, 4);
    }

    #[test]
    fn export_roundtrips_and_validates_bounds() {
        use qsys_query::SubExprSig;
        let mut interner = SigInterner::new();
        let a = interner.intern(SubExprSig::new(vec![(RelId::new(1), None)], Vec::new()));
        let mut o = ObservedStats::new();
        o.note_stream(a, 12, true);
        o.note_state(a, 7); // state is live-only: not exported
        o.note_rel(RelId::new(1), 12);
        o.add_rounds(3);
        let export = o.export();
        assert_eq!(export.len(), 1);
        let rebuilt = ObservedStats::from_export(export, &interner).expect("in bounds");
        assert_eq!(
            rebuilt.card(a),
            Some(ObservedCard {
                tuples: 12,
                exhausted: true
            })
        );
        assert_eq!(rebuilt.state_of(a), None, "m-join state does not persist");
        assert_eq!(rebuilt.rounds(), 0, "rates do not persist");
        let oob = vec![(
            SigId(99),
            ObservedCard {
                tuples: 1,
                exhausted: false,
            },
        )];
        assert!(ObservedStats::from_export(oob, &interner).is_err());
    }
}
