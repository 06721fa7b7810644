//! ATC-CL thread-parallel identity goldens.
//!
//! Lanes (clustered plan graphs) share no mutable state, so running them
//! on worker threads must change wall time and *nothing else*: tuples
//! consumed, per-UQ statistics, optimizer decisions, and the virtual-time
//! breakdown have to be bit-identical between `lane_threads = 1` and any
//! higher cap. These tests pin that equivalence across three GUS instance
//! seeds, plus golden lane/tuple counts so a clustering or threading
//! change that silently re-shapes the workload fails loudly.

use qsys::opt::cluster::ClusterConfig;
use qsys::query::CandidateConfig;
use qsys::{run_workload, EngineConfig, RunReport, SharingMode};
use qsys_workload::gus::{self, GusConfig};
use qsys_workload::Workload;

mod common;
use common::{adaptive_active, chaos_active};

fn workload(seed: u64) -> Workload {
    let mut cfg = GusConfig::small(seed);
    cfg.min_rows = 150;
    cfg.max_rows = 400;
    cfg.user_queries = 10;
    gus::generate(&cfg)
}

/// Clustering tight enough that every golden seed splits into several
/// lanes — the configuration the threading exists for.
fn engine(lane_threads: usize) -> EngineConfig {
    EngineConfig {
        k: 10,
        batch_size: 3,
        sharing: SharingMode::AtcCl(ClusterConfig { t_m: 1, t_c: 0.9 }),
        candidate: CandidateConfig {
            max_cqs: 6,
            max_atoms: 5,
            matches_per_keyword: 2,
            ..CandidateConfig::default()
        },
        lane_threads,
        // Explicit, not inherited from the environment: the CI sharding
        // leg must not re-shape these golden lane counts.
        sharding: qsys::ShardConfig::off(),
        ..EngineConfig::default()
    }
}

/// Every reported quantity except host wall times must match.
fn assert_identical(seq: &RunReport, par: &RunReport, seed: u64) {
    assert_eq!(seq.lanes, par.lanes, "seed {seed}: lane count");
    assert_eq!(
        seq.tuples_consumed, par.tuples_consumed,
        "seed {seed}: tuples consumed"
    );
    assert_eq!(
        seq.tuples_streamed, par.tuples_streamed,
        "seed {seed}: tuples streamed"
    );
    assert_eq!(seq.probes, par.probes, "seed {seed}: remote probes");
    assert_eq!(seq.exec_work, par.exec_work, "seed {seed}: per-tuple work");
    assert_eq!(seq.breakdown, par.breakdown, "seed {seed}: virtual time");
    assert_eq!(seq.per_uq.len(), par.per_uq.len(), "seed {seed}: UQ count");
    for (a, b) in seq.per_uq.iter().zip(par.per_uq.iter()) {
        assert_eq!(a.uq, b.uq, "seed {seed}");
        assert_eq!(a.lane, b.lane, "seed {seed}: {} lane assignment", a.uq);
        assert_eq!(
            a.response_us, b.response_us,
            "seed {seed}: {} virtual response time",
            a.uq
        );
        assert_eq!(a.results, b.results, "seed {seed}: {} results", a.uq);
        assert_eq!(
            a.cqs_executed, b.cqs_executed,
            "seed {seed}: {} CQs executed",
            a.uq
        );
    }
    // Sharing decisions: the optimizer must see the same reuse state in
    // the same order on every lane regardless of scheduling.
    assert_eq!(
        seq.opt_events.len(),
        par.opt_events.len(),
        "seed {seed}: optimizer invocations"
    );
    for (a, b) in seq.opt_events.iter().zip(par.opt_events.iter()) {
        assert_eq!(a.batch_cqs, b.batch_cqs, "seed {seed}: batch CQs");
        assert_eq!(a.candidates, b.candidates, "seed {seed}: candidates");
        assert_eq!(a.explored, b.explored, "seed {seed}: explored states");
    }
}

/// `RunReport::exec_work` accounts for itself: every result offered to a
/// rank-merge has exactly one outcome, and the parts are consistent with
/// each other and with the source counters. (That the block is the same
/// at every lane-thread count is part of [`assert_identical`].)
fn assert_work_accounted(report: &RunReport, seed: u64) {
    let work = report.exec_work;
    assert_eq!(
        work.accepts,
        work.after_k + work.dominated + work.enqueued,
        "seed {seed}: {work:?}"
    );
    assert!(work.enqueued > 0, "seed {seed}: {work:?}");
    // Every remote read is routed; replays of retained state add to it.
    assert!(
        work.stream_reads >= report.tuples_streamed,
        "seed {seed}: {work:?}"
    );
    // A complete result found is either delivered — a materialised join
    // or a single-input pass-through — or skipped unbuilt.
    assert!(
        work.outputs_skipped <= work.mjoin_outputs,
        "seed {seed}: {work:?}"
    );
    let delivered = work.mjoin_outputs - work.outputs_skipped;
    assert!(
        delivered <= work.joins + work.mjoin_inserts,
        "seed {seed}: {work:?}"
    );
    assert!(work.outputs_skipped > 0, "seed {seed}: {work:?}");
    assert!(
        0 < work.maintains_skipped && work.maintains_skipped < work.maintains,
        "seed {seed}: {work:?}"
    );
    // Found and judged as before results could be skipped: the values of
    // `(mjoin_outputs, after_k, dominated, enqueued)` recorded when every
    // result was built and every verdict was an `accept` on delivery.
    if !chaos_active() && !adaptive_active() {
        let golden = match seed {
            41 => (11_099, 4_293, 5_582, 180),
            48 => (11_566, 177, 860, 116),
            _ => (697, 117, 411, 120),
        };
        assert_eq!(
            (
                work.mjoin_outputs,
                work.after_k,
                work.dominated,
                work.enqueued
            ),
            golden,
            "seed {seed}: {work:?}"
        );
    }
}

#[test]
fn atc_cl_threaded_lanes_are_bit_identical_to_sequential() {
    // Golden (lanes, tuples_consumed) per seed: pinned so a clustering or
    // source-layer change that re-shapes the workload is caught even if
    // it happens to stay self-consistent across thread counts.
    let goldens = [(41u64, 2usize, 3257u64), (48, 3, 5347), (55, 6, 7013)];
    for (seed, lanes, tuples) in goldens {
        let w = workload(seed);
        let seq = run_workload(&w, &engine(1), None).unwrap();
        assert_eq!(seq.lanes, lanes, "seed {seed}: golden lane count");
        if !chaos_active() && !adaptive_active() {
            assert_eq!(
                seq.tuples_consumed, tuples,
                "seed {seed}: golden tuples consumed"
            );
        }
        assert!(
            seq.lanes > 1,
            "seed {seed}: the identity test needs a genuinely clustered workload"
        );
        assert_work_accounted(&seq, seed);
        for threads in [2usize, 4] {
            let par = run_workload(&w, &engine(threads), None).unwrap();
            assert_eq!(par.lane_threads, threads);
            assert_identical(&seq, &par, seed);
        }
    }
}

#[test]
fn lane_wall_times_are_recorded_per_lane() {
    let w = workload(48);
    let r = run_workload(&w, &engine(4), None).unwrap();
    assert_eq!(r.lane_wall_us.len(), r.lanes);
    // Every lane with a UQ assigned did measurable work.
    assert!(r.lane_wall_us.iter().all(|&us| us > 0));
}
