//! Acceptance tests for crash-safe warm-state persistence.
//!
//! The contract:
//!
//! - a snapshot roundtrip (export → write → load → hydrate) is
//!   **decision-invisible**: a fresh manager rehydrated from disk makes
//!   bit-identical optimizer decisions to the in-process warm manager it
//!   was cloned from, across multiple workload seeds;
//! - *every* corruption — truncation, bit flip, garbage, emptiness —
//!   fails soft: no panic, the bad file is quarantined, the engine cold
//!   starts, and query results are tuple-identical to a run that never
//!   had a snapshot;
//! - a full engine restart over a snapshot directory rehydrates, feeds
//!   its first batch's search from the rehydrated warm store, and still
//!   produces a run bit-identical to a persistence-off engine;
//! - a file stamped with any other format version is refused whole and
//!   the engine cold-starts with identical decisions;
//! - malformed persistence/fault environment knobs surface as structured
//!   [`ConfigError`]s, never panics.

use proptest::prelude::*;
use qsys::opt::{Optimizer, OptimizerConfig};
use qsys::prelude::*;
use qsys::query::{ConjunctiveQuery, ScoreFn};
use qsys::snapshot::{
    catalog_fingerprint, load_snapshot, write_snapshot, LaneImage, SnapshotImage,
};
use qsys::source::FaultSpec;
use qsys::state::QsManager;
use qsys_workload::gus::{self, GusConfig};
use qsys_workload::Workload;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn tmp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("qsys-snaptest-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn workload(seed: u64) -> Workload {
    let mut cfg = GusConfig::small(seed);
    cfg.min_rows = 150;
    cfg.max_rows = 400;
    cfg.user_queries = 15;
    gus::generate(&cfg)
}

fn engine_cfg(snapshot_dir: Option<PathBuf>) -> EngineConfig {
    EngineConfig {
        k: 10,
        batch_size: 5,
        sharing: SharingMode::AtcFull,
        lane_threads: 1,
        // Explicit, not inherited from the environment: these tests pin
        // their own persistence roots and fault schedules, and adaptive
        // re-planning retunes the warm store mid-run — which would make
        // "restart == persistence-off baseline" a different (false) claim.
        // The warm store is what a snapshot persists, so it stays on under
        // the CI leg that switches it off.
        warm_opt: true,
        faults: None,
        adaptive: qsys::opt::AdaptiveConfig::off(),
        snapshot_dir,
        snapshot_every: 1,
        ..EngineConfig::default()
    }
}

/// The decision fingerprint of one optimize call: plan spec plus every
/// deterministic search counter (host time excluded).
#[derive(Clone, Debug, PartialEq)]
struct Decision {
    spec: String,
    explored: usize,
    memo_hits: usize,
    candidates: usize,
    best_cost_bits: u64,
}

/// A primed lane: three 5-UQ batches optimized warm, plus the probe batch
/// (a repeat of batch 0) the tests re-optimize after hydration.
struct Primed {
    w: Workload,
    opt_config: OptimizerConfig,
    #[allow(clippy::type_complexity)]
    batches: Vec<Vec<(ConjunctiveQuery, ScoreFn)>>,
    manager: QsManager,
}

impl Primed {
    fn new(seed: u64) -> Primed {
        let w = workload(seed);
        let cfg = engine_cfg(None);
        let (uqs, _) = qsys::generate_user_queries(&w, &cfg).expect("candidates generate");
        let opt_config = OptimizerConfig {
            k: cfg.k,
            heuristics: cfg.heuristics.clone(),
            cost_profile: cfg.cost_profile,
            share_subexpressions: true,
            ..OptimizerConfig::default()
        };
        let batches: Vec<Vec<(ConjunctiveQuery, ScoreFn)>> = uqs
            .chunks(5)
            .take(3)
            .map(|chunk| chunk.iter().flat_map(|uq| uq.cqs.iter().cloned()).collect())
            .collect();
        let manager = QsManager::new(usize::MAX);
        let primed = Primed {
            w,
            opt_config,
            batches,
            manager,
        };
        for i in 0..primed.batches.len() {
            primed.optimize(&primed.manager, i, true);
        }
        primed
    }

    fn optimize(&self, manager: &QsManager, batch: usize, warm: bool) -> Decision {
        let optimizer = Optimizer::new(&self.w.catalog, self.opt_config.clone());
        let interner = manager.shared_interner();
        let warm_cell = warm.then(|| manager.warm_cell());
        let refs: Vec<(&ConjunctiveQuery, &ScoreFn)> =
            self.batches[batch].iter().map(|(cq, f)| (cq, f)).collect();
        let oracle = manager.reuse_oracle();
        let (spec, stats) =
            optimizer.optimize_warm(&refs, &oracle, None, &interner, warm_cell.as_deref());
        Decision {
            spec: format!("{spec:?}"),
            explored: stats.explored,
            memo_hits: stats.memo_hits,
            candidates: stats.candidates,
            best_cost_bits: stats.best_cost.to_bits(),
        }
    }

    /// The state this lane would persist, as the engine would frame it.
    /// Carries a synthetic observed-cardinality entry so the corruption
    /// matrix walks the adaptive section's bytes too.
    fn image(&self) -> SnapshotImage {
        SnapshotImage {
            engine_fingerprint: self.opt_config.warm_fingerprint(),
            catalog_fingerprint: catalog_fingerprint(&self.w.catalog),
            lanes: vec![LaneImage {
                interner: self.manager.shared_interner().borrow().export_entries(),
                warm: self.manager.warm_cell().borrow().export(),
                observed: vec![(
                    qsys::query::SigId(0),
                    qsys::opt::ObservedCard {
                        tuples: 9,
                        exhausted: false,
                    },
                )],
            }],
        }
    }

    /// Hydrate a fresh manager from whatever the loader salvaged (cold if
    /// it salvaged nothing) and optimize the probe batch warm.
    fn probe_from_dir(&self, dir: &std::path::Path) -> (Decision, qsys::prelude::SnapshotSummary) {
        let (mut lanes, summary) = load_snapshot(
            dir,
            &self.opt_config.warm_fingerprint(),
            &self.w.catalog,
            None,
        );
        let manager = QsManager::new(usize::MAX);
        if let Some(loaded) = lanes.first_mut().and_then(Option::take) {
            *manager.shared_interner().borrow_mut() = loaded.interner;
            *manager.warm_cell().borrow_mut() = loaded.warm;
        }
        (self.optimize(&manager, 0, true), summary)
    }
}

#[test]
fn roundtrip_is_decision_invisible_across_seeds() {
    for seed in [41, 48, 55] {
        let primed = Primed::new(seed);
        let warm = primed.optimize(&primed.manager, 0, true);
        let cold_mgr = QsManager::new(usize::MAX);
        let cold = primed.optimize(&cold_mgr, 0, false);
        assert_eq!(warm, cold, "seed {seed}: warm store changed a decision");

        let dir = tmp_dir("roundtrip");
        write_snapshot(&dir, &primed.image(), None).expect("publish");
        let (hydrated, summary) = primed.probe_from_dir(&dir);
        assert!(
            summary.loaded && summary.reason.is_none(),
            "seed {seed}: clean snapshot rejected: {summary:?}"
        );
        assert_eq!(
            hydrated, warm,
            "seed {seed}: rehydrated decisions diverged from in-process warm"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn every_corruption_falls_back_to_cold_with_identical_decisions() {
    let primed = Primed::new(41);
    let cold_mgr = QsManager::new(usize::MAX);
    let expect = primed.optimize(&cold_mgr, 0, false);
    let dir = tmp_dir("corrupt");
    write_snapshot(&dir, &primed.image(), None).expect("publish");
    let clean = std::fs::read(dir.join("qsys.snapshot")).expect("read back");

    let mut corruptions: Vec<(String, Vec<u8>)> = vec![
        ("empty file".into(), Vec::new()),
        ("garbage".into(), b"not a snapshot at all".to_vec()),
        ("magic only".into(), clean[..8].to_vec()),
    ];
    for cut in (1..clean.len()).step_by(clean.len() / 24 + 1) {
        corruptions.push((format!("truncated at {cut}"), clean[..cut].to_vec()));
    }
    for pos in (0..clean.len()).step_by(clean.len() / 24 + 1) {
        let mut bytes = clean.clone();
        bytes[pos] ^= 0x40;
        corruptions.push((format!("bit flip at {pos}"), bytes));
    }

    for (label, bytes) in corruptions {
        // Start from a clean directory so quarantine files don't pile up
        // into the corrupt-name search space.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("recreate");
        std::fs::write(dir.join("qsys.snapshot"), &bytes).expect("plant corruption");
        let (decision, summary) = primed.probe_from_dir(&dir);
        assert_eq!(
            decision, expect,
            "{label}: decisions diverged after corrupted load ({summary:?})"
        );
        if !summary.loaded {
            assert!(
                summary.quarantined.is_some() || bytes.is_empty(),
                "{label}: rejected snapshot was not quarantined ({summary:?})"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Everything a run decides and answers, against a persistence-off run.
fn assert_same_run(run: &RunReport, baseline: &RunReport) {
    assert_eq!(run.tuples_consumed, baseline.tuples_consumed);
    assert_eq!(run.per_uq.len(), baseline.per_uq.len());
    for (a, b) in run.per_uq.iter().zip(&baseline.per_uq) {
        assert_eq!(a.uq, b.uq);
        assert_eq!(a.results, b.results, "uq {:?}: result count diverged", a.uq);
        assert_eq!(
            a.response_us, b.response_us,
            "uq {:?}: virtual response time diverged",
            a.uq
        );
        assert_eq!(a.cqs_executed, b.cqs_executed);
    }
    assert_eq!(run.opt_events.len(), baseline.opt_events.len());
    for (a, b) in run.opt_events.iter().zip(&baseline.opt_events) {
        assert_eq!((a.explored, a.candidates), (b.explored, b.candidates));
    }
}

#[test]
fn engine_restart_replays_warm_and_stays_identical() {
    let w = workload(41);
    let dir = tmp_dir("engine");

    let primed = run_workload(&w, &engine_cfg(Some(dir.clone())), None).expect("priming run");
    assert!(primed.snapshot.writes >= 1, "priming run published nothing");
    assert!(!primed.snapshot.loaded, "nothing to load on first boot");

    let restarted = run_workload(&w, &engine_cfg(Some(dir.clone())), None).expect("restarted run");
    assert!(
        restarted.snapshot.loaded && restarted.snapshot.lanes_loaded >= 1,
        "restart did not rehydrate: {:?}",
        restarted.snapshot
    );

    let baseline = run_workload(&w, &engine_cfg(None), None).expect("baseline run");
    assert!(
        !baseline.snapshot.attempted,
        "persistence-off engine looked for a snapshot"
    );
    // A cold first batch already re-reads verdicts it cached earlier in the
    // same search, so warmth shows as more hits than that, not as any.
    assert!(
        restarted.opt_events[0].warm_fact_hits > baseline.opt_events[0].warm_fact_hits,
        "first post-restart batch read nothing from the rehydrated warm store"
    );
    assert_same_run(&restarted, &baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `snapshot` with its header's format version replaced. Header layout:
/// MAGIC(8) + id(1) + len(4) + crc(4) + body, the version being the first
/// u32 of the body; the header is re-checksummed so only the version
/// differs.
fn restamp(snapshot: &[u8], version: u32) -> Vec<u8> {
    let mut bytes = snapshot.to_vec();
    let len = u32::from_le_bytes(bytes[9..13].try_into().unwrap()) as usize;
    bytes[17..21].copy_from_slice(&version.to_le_bytes());
    let crc = qsys::snapshot::wire::crc32(&bytes[17..17 + len]);
    bytes[13..17].copy_from_slice(&crc.to_le_bytes());
    bytes
}

/// A snapshot is a cache, not a compatibility promise: files stamped with
/// an older (1, 2) or a future format version are refused by version,
/// quarantined, reported — never panic — and the engine's decisions equal
/// a persistence-off run.
#[test]
fn other_format_versions_are_refused_and_cold_start() {
    let primed = Primed::new(41);
    let cold_mgr = QsManager::new(usize::MAX);
    let cold = primed.optimize(&cold_mgr, 0, false);
    let dir = tmp_dir("versions");
    write_snapshot(&dir, &primed.image(), None).expect("publish");
    let clean = std::fs::read(dir.join("qsys.snapshot")).expect("read back");

    for version in [1u32, 2, 99] {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("recreate");
        std::fs::write(dir.join("qsys.snapshot"), restamp(&clean, version)).expect("plant");
        let (decision, summary) = primed.probe_from_dir(&dir);
        assert!(!summary.loaded, "v{version} must cold start: {summary:?}");
        assert!(
            summary
                .reason
                .as_deref()
                .is_some_and(|r| r.contains(&format!("format version {version}"))),
            "v{version}: refusal not reported by version: {summary:?}"
        );
        let quarantined = summary.quarantined.expect("refused file moved aside");
        assert!(
            quarantined.contains("qsys.snapshot.corrupt-"),
            "v{version}: quarantined as {quarantined}"
        );
        assert_eq!(decision, cold, "v{version}: refused file must not warm");
    }

    // The same through the engine: a v2-stamped file in the snapshot
    // directory is reported in the run's summary and changes nothing.
    let w = workload(41);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("recreate");
    run_workload(&w, &engine_cfg(Some(dir.clone())), None).expect("priming run");
    let published = std::fs::read(dir.join("qsys.snapshot")).expect("engine snapshot");
    std::fs::write(dir.join("qsys.snapshot"), restamp(&published, 2)).expect("plant v2");
    let restarted = run_workload(&w, &engine_cfg(Some(dir.clone())), None).expect("restart");
    assert!(!restarted.snapshot.loaded);
    assert!(restarted
        .snapshot
        .reason
        .as_deref()
        .is_some_and(|r| r.contains("format version 2")));
    let baseline = run_workload(&w, &engine_cfg(None), None).expect("baseline run");
    assert_same_run(&restarted, &baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fingerprint_mismatch_cold_starts_instead_of_lying() {
    let primed = Primed::new(41);
    let dir = tmp_dir("fp");
    write_snapshot(&dir, &primed.image(), None).expect("publish");
    // A different k changes the warm fingerprint: the snapshot must be
    // rejected, not reinterpreted under the new config.
    let (lanes, summary) = load_snapshot(&dir, "different-config", &primed.w.catalog, None);
    assert!(!summary.loaded, "fingerprint mismatch was accepted");
    assert!(lanes.iter().all(Option::is_none));
    assert!(summary.quarantined.is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_env_knobs_are_structured_errors_not_panics() {
    // The fault grammar: every malformed clause is an Err, never a panic.
    for bad in [
        "snap:torn=",
        "snap:torn=xyz",
        "snap:shortread=-3",
        "snap:bitflip",
        "snap:nonsense",
        "transient=1.5",
        "outage:",
        "???",
    ] {
        let err = FaultSpec::from_env_value(Some(bad.to_string()));
        assert!(err.is_err(), "'{bad}' should be a structured parse error");
    }
    // Valid specs still parse, including the snapshot-fault clauses.
    let spec = FaultSpec::from_env_value(Some("snap:torn=100;snap:renamefail".to_string()))
        .expect("parses")
        .expect("non-empty");
    assert_eq!(spec.snap.torn_write, Some(100));
    assert!(spec.snap.rename_fail);

    // EngineConfig::validate surfaces captured environment errors as
    // ConfigError values with the offending knob named.
    let cfg = EngineConfig {
        env_errors: vec![ConfigError {
            field: "QSYS_SNAPSHOT_EVERY",
            message: "wants a positive integer, got 'zero'".into(),
        }],
        ..engine_cfg(None)
    };
    let err = cfg.validate().expect_err("env error must fail validation");
    assert_eq!(err.field, "QSYS_SNAPSHOT_EVERY");
    assert!(err.to_string().contains("QSYS_SNAPSHOT_EVERY"));
    engine_cfg(None).validate().expect("clean config validates");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any single corrupted byte anywhere in the file: the loader never
    /// panics, and whatever it salvages never changes a decision.
    #[test]
    fn prop_single_byte_corruption_never_changes_a_decision(
        pos in 0usize..49_000,
        mask in 1u8..=255,
    ) {
        // One primed lane, shared across cases (priming is the slow
        // part). Proptest runs every case on this thread, so a
        // thread-local primes exactly once; QsManager is not Sync.
        thread_local! {
            static PRIMED: (Primed, Decision, Vec<u8>) = {
                let primed = Primed::new(41);
                let cold_mgr = QsManager::new(usize::MAX);
                let expect = primed.optimize(&cold_mgr, 0, false);
                let dir = tmp_dir("prop");
                write_snapshot(&dir, &primed.image(), None).expect("publish");
                let clean = std::fs::read(dir.join("qsys.snapshot")).expect("read back");
                let _ = std::fs::remove_dir_all(&dir);
                (primed, expect, clean)
            };
        }
        let (decision, expect) = PRIMED.with(|(primed, expect, clean)| {
            let pos = pos % clean.len();
            let mut bytes = clean.clone();
            bytes[pos] ^= mask;
            let dir = tmp_dir("prop-case");
            std::fs::write(dir.join("qsys.snapshot"), &bytes).expect("plant corruption");
            let (decision, _summary) = primed.probe_from_dir(&dir);
            let _ = std::fs::remove_dir_all(&dir);
            (decision, expect.clone())
        });
        prop_assert_eq!(decision, expect);
    }
}
