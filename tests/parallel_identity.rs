//! ATC-CL thread-parallel identity goldens.
//!
//! Lanes (clustered plan graphs) share no mutable state, so running them
//! on worker threads must change wall time and *nothing else*: tuples
//! consumed, per-UQ statistics, optimizer decisions, and the virtual-time
//! breakdown have to be bit-identical between `lane_threads = 1` and any
//! higher cap. These tests pin that equivalence across three GUS instance
//! seeds, plus golden lane/tuple counts so a clustering or threading
//! change that silently re-shapes the workload fails loudly, and on one
//! seed with faults switched on.

use qsys::opt::cluster::ClusterConfig;
use qsys::query::CandidateConfig;
use qsys::{run_workload, EngineConfig, RunReport, SharingMode};
use qsys_workload::gus::{self, GusConfig};
use qsys_workload::Workload;

mod common;
use common::Arm;

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
        ..EngineConfig::default()
    }
}

/// Every reported quantity except host wall times must match.
fn assert_identical(seq: &RunReport, par: &RunReport, label: &str) {
    assert_eq!(seq.lanes, par.lanes, "{label}: lane count");
    assert_eq!(
        seq.tuples_consumed, par.tuples_consumed,
        "{label}: tuples consumed"
    );
    assert_eq!(
        seq.tuples_streamed, par.tuples_streamed,
        "{label}: tuples streamed"
    );
    assert_eq!(seq.probes, par.probes, "{label}: remote probes");
    assert_eq!(seq.exec_work, par.exec_work, "{label}: per-tuple work");
    assert_eq!(seq.breakdown, par.breakdown, "{label}: virtual time");
    assert_eq!(seq.per_uq.len(), par.per_uq.len(), "{label}: UQ count");
    for (a, b) in seq.per_uq.iter().zip(par.per_uq.iter()) {
        assert_eq!(a.uq, b.uq, "{label}");
        assert_eq!(a.lane, b.lane, "{label}: {} lane assignment", a.uq);
        assert_eq!(
            a.response_us, b.response_us,
            "{label}: {} virtual response time",
            a.uq
        );
        assert_eq!(a.results, b.results, "{label}: {} results", a.uq);
        assert_eq!(
            a.cqs_executed, b.cqs_executed,
            "{label}: {} CQs executed",
            a.uq
        );
    }
    // Sharing decisions: the optimizer must see the same reuse state in
    // the same order on every lane regardless of scheduling.
    assert_eq!(
        seq.opt_events.len(),
        par.opt_events.len(),
        "{label}: optimizer invocations"
    );
    for (a, b) in seq.opt_events.iter().zip(par.opt_events.iter()) {
        assert_eq!(a.batch_cqs, b.batch_cqs, "{label}: batch CQs");
        assert_eq!(a.candidates, b.candidates, "{label}: candidates");
        assert_eq!(a.explored, b.explored, "{label}: explored states");
    }
}

/// `RunReport::exec_work` accounts for itself: every result offered to a
/// rank-merge has exactly one outcome, and the parts are consistent with
/// each other and with the source counters. (That the block is the same
/// at every lane-thread count is part of [`assert_identical`].)
fn assert_work_accounted(report: &RunReport, label: &str) {
    let work = report.exec_work;
    assert_eq!(
        work.accepts,
        work.after_k + work.dominated + work.enqueued,
        "{label}: {work:?}"
    );
    assert!(work.enqueued > 0, "{label}: {work:?}");
    // Every remote read is routed; replays of retained state add to it.
    assert!(
        work.stream_reads >= report.tuples_streamed,
        "{label}: {work:?}"
    );
    // A complete result found is either delivered — a materialised join
    // or a single-input pass-through — or skipped unbuilt.
    assert!(
        work.outputs_skipped <= work.mjoin_outputs,
        "{label}: {work:?}"
    );
    let delivered = work.mjoin_outputs - work.outputs_skipped;
    assert!(
        delivered <= work.joins + work.mjoin_inserts,
        "{label}: {work:?}"
    );
    assert!(work.outputs_skipped > 0, "{label}: {work:?}");
    assert!(
        0 < work.maintains_skipped && work.maintains_skipped < work.maintains,
        "{label}: {work:?}"
    );
}

/// Run `w` under `arm` on one lane thread, check it is a genuinely
/// clustered run that accounts for its work, and check 2 and 4 threads
/// reproduce it. Returns the sequential run.
fn threads_identical(w: &Workload, arm: Arm, label: &str) -> RunReport {
    let seq = run_workload(w, &arm.apply(engine(1)), None).unwrap();
    assert!(
        arm.engaged(&seq),
        "{label}: the arm's feature never engaged"
    );
    assert!(
        seq.lanes > 1,
        "{label}: the identity test needs a genuinely clustered workload"
    );
    assert_work_accounted(&seq, label);
    for threads in [2usize, 4] {
        let par = run_workload(w, &arm.apply(engine(threads)), None).unwrap();
        assert_eq!(par.lane_threads, threads);
        assert_identical(&seq, &par, label);
    }
    seq
}

#[test]
fn atc_cl_threaded_lanes_are_bit_identical_to_sequential() {
    // Golden (lanes, tuples_consumed) per seed: pinned so a clustering or
    // source-layer change that re-shapes the workload is caught even if
    // it happens to stay self-consistent across thread counts. The work
    // golden is `(partials_bounded_out, mjoin_outputs, after_k, dominated,
    // enqueued)`. Results are counted as found and judged whether or not
    // they are built, but a partial result bounded out before it probes
    // finds nothing: when every partial probed, the goldens were (—,
    // 11,099, 4,293, 5,582, 180), (—, 11,566, 177, 860, 116) and (—, 697,
    // 117, 411, 120), and only the enqueued results, the ones a rank-merge
    // keeps, are the same under bounding. Planning each user query alone
    // moved the tuples (3,257, 5,347, 7,013) and the work ((3,942, 2,355,
    // 383, 748, 180), (2,262, 1,725, 0, 553, 116), (1,119, 400, 0, 231,
    // 120)); the lane counts held.
    let goldens = [
        (41u64, 2usize, 3244u64, (1_102, 609, 435, 601, 177)),
        (48, 3, 4681, (1_361, 1_156, 0, 495, 126)),
        (55, 6, 7844, (1_488, 375, 7, 249, 119)),
    ];
    for (seed, lanes, tuples, work) in goldens {
        let label = format!("seed {seed}");
        let seq = threads_identical(&workload(seed), Arm::Plain, &label);
        assert_eq!(seq.lanes, lanes, "{label}: golden lane count");
        assert_eq!(
            seq.tuples_consumed, tuples,
            "{label}: golden tuples consumed"
        );
        let got = seq.exec_work;
        assert_eq!(
            (
                got.partials_bounded_out,
                got.mjoin_outputs,
                got.after_k,
                got.dominated,
                got.enqueued
            ),
            work,
            "{label}: golden work {got:?}"
        );
    }
    // Faults move tuples and lanes, so no golden: only the identity.
    threads_identical(&workload(41), Arm::Chaos, "seed 41, Chaos");
}

#[test]
fn lane_wall_times_are_recorded_per_lane() {
    let w = workload(48);
    let r = run_workload(&w, &engine(4), None).unwrap();
    assert_eq!(r.lane_wall_us.len(), r.lanes);
    // Every lane with a UQ assigned did measurable work.
    assert!(r.lane_wall_us.iter().all(|&us| us > 0));
}
