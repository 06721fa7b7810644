//! Paper-shape gates: what `reproduce fig9 --seeds 1` and `reproduce fig10
//! --seeds 1` print, pinned on the GUS seed-41 script at test scale in the
//! paper's own work measure, input tuples consumed.
//!
//! Both tests pin a **known inversion** (ROADMAP item 2): today the number
//! runs against the direction the paper reports, so the test asserts it as
//! it is. The change that makes batch optimization pay flips each
//! assertion (and re-records its numbers) instead of deleting the test.
//! The paper's directions are taken from memory of the paper: PAPER.md
//! holds only its title, "Sharing work in keyword search over databases".

use qsys::opt::cluster::ClusterConfig;
use qsys::{EngineConfig, SharingMode};

/// Input tuples the seed-41 script consumes under `sharing`, sealed into
/// batches of `batch_size`: Section 7's engine (`qsys_bench::gus_engine`).
fn tuples_consumed(sharing: SharingMode, batch_size: usize) -> u64 {
    let workload = qsys_workload::gus::generate(&qsys_workload::GusConfig::small(41));
    let engine = EngineConfig {
        k: 50,
        batch_size,
        sharing,
        candidate: qsys::query::CandidateConfig {
            max_cqs: 20,
            max_atoms: 6,
            matches_per_keyword: 3,
            ..qsys::query::CandidateConfig::default()
        },
        ..EngineConfig::default()
    };
    qsys::run_workload(&workload, &engine, None)
        .expect("runs")
        .tuples_consumed
}

/// Figure 9 under ATC-CL: the paper's batch-optimized queries (BATCH-OPT,
/// batches of 5) share work, so together they read no more than the same
/// queries optimized one at a time (SINGLE-OPT, batches of 1). Here they
/// read 62% more. ROADMAP item 2 traces this to the optimizer's candidate
/// cap, which is per batch: five queries share the twelve push-down
/// candidates one query has to itself. (It was 72%, 27,919 vs 47,956,
/// until m-joins stopped probing with partial results no rank-merge
/// would keep: both arms fetch fewer remote probe results, and the batch
/// arm more of them.)
#[test]
fn known_inversion_batch_opt_reads_more_than_single_opt() {
    let atc_cl = || SharingMode::AtcCl(ClusterConfig::default());
    let single = tuples_consumed(atc_cl(), 1);
    let batch = tuples_consumed(atc_cl(), 5);
    assert_eq!((single, batch), (23_707, 38_307));
    // Known inversion (ROADMAP item 2): the fix flips this to `batch <= single`.
    assert!(batch > single, "SINGLE-OPT {single} vs BATCH-OPT {batch}");
}

/// Figure 10: sharing across the whole batch (ATC-FULL) reads no more
/// than sharing within one user query (ATC-UQ) in the paper. Here ATC-FULL
/// reads 31% more, for the reason above. (It was 38%, 34,723 vs 47,956,
/// before score-bounded probing, as above.)
#[test]
fn known_inversion_atc_full_reads_more_than_atc_uq() {
    let uq = tuples_consumed(SharingMode::AtcUq, 5);
    let full = tuples_consumed(SharingMode::AtcFull, 5);
    assert_eq!((uq, full), (29_330, 38_307));
    // Known inversion (ROADMAP item 2): the fix flips this to `full <= uq`.
    assert!(full > uq, "ATC-UQ {uq} vs ATC-FULL {full}");
}
