//! Paper-shape gates: what `reproduce fig9 --seeds 1` and `reproduce fig10
//! --seeds 1` print, pinned on the GUS seed-41 script at test scale in the
//! paper's own work measure, input tuples consumed.
//!
//! Each test pins its pair of numbers and asserts the paper's direction.
//! The paper's directions are taken from memory of the paper: PAPER.md
//! holds only its title, "Sharing work in keyword search over databases".

use qsys::opt::cluster::ClusterConfig;
use qsys::{Engine, SharingMode};
use qsys_bench::{gus_engine, gus_workload, Scale};
use qsys_workload::Workload;

/// The GUS seed-41 script at test scale.
fn script() -> Workload {
    gus_workload(41, Scale::Small)
}

/// Input tuples the seed-41 script consumes under `sharing`, sealed into
/// batches of `batch_size`.
fn tuples_consumed(sharing: SharingMode, batch_size: usize) -> u64 {
    qsys::run_workload(&script(), &gus_engine(sharing, batch_size), None)
        .expect("runs")
        .tuples_consumed
}

/// Figure 9 under ATC-CL: the paper's batch-optimized queries (BATCH-OPT,
/// batches of 5) share work, so together they read no more than the same
/// queries optimized one at a time (SINGLE-OPT, batches of 1). Here they
/// read 17% fewer: each user query is planned alone and the batch shares
/// through one plan graph, so a stream two queries chose is read once.
#[test]
fn batch_opt_reads_no_more_than_single_opt() {
    let atc_cl = || SharingMode::AtcCl(ClusterConfig::default());
    let single = tuples_consumed(atc_cl(), 1);
    let batch = tuples_consumed(atc_cl(), 5);
    assert_eq!((single, batch), (23_707, 19_691));
    assert!(batch <= single, "SINGLE-OPT {single} vs BATCH-OPT {batch}");
}

/// Figure 10: sharing across the whole batch (ATC-FULL) reads no more
/// than sharing within one user query (ATC-UQ), as in the paper. Here
/// ATC-FULL reads a third fewer: its user queries are planned as ATC-UQ
/// plans them, and their common streams and components are shared.
#[test]
fn atc_full_reads_no_more_than_atc_uq() {
    let uq = tuples_consumed(SharingMode::AtcUq, 5);
    let full = tuples_consumed(SharingMode::AtcFull, 5);
    assert_eq!((uq, full), (29_330, 19_691));
    assert!(full <= uq, "ATC-UQ {uq} vs ATC-FULL {full}");
}

/// A warm re-pose reads nothing: the seed-41 script posed again on the
/// ATC-FULL engine that just answered it publishes every query's retained
/// top-k (Section 6.3's cached ranking-queue contents), with the same
/// answers and not one tuple from the sources.
#[test]
fn a_warm_repose_reads_nothing() {
    let workload = script();
    let mut engine = Engine::for_workload(&workload, gus_engine(SharingMode::AtcFull, 5));
    let pose = |engine: &mut Engine| {
        let tickets = engine.submit_script(&workload).expect("admits");
        engine.flush();
        engine.run_until_idle();
        tickets
    };
    let first = pose(&mut engine);
    let consumed = engine.sources().tuples_consumed();
    assert_eq!(consumed, 19_691);
    let again = pose(&mut engine);
    assert_eq!(engine.sources().tuples_consumed(), consumed);
    assert_eq!(first.len(), again.len());
    for (cold, warm) in first.iter().zip(&again) {
        assert!(warm.report().expect("published").sealed, "{warm:?}");
        let scores = |t: &qsys::QueryTicket| -> Vec<u64> {
            let results = t.take_results().expect("results retained");
            results.iter().map(|(s, _)| s.get().to_bits()).collect()
        };
        assert_eq!(scores(cold), scores(warm));
    }
}
