//! Answer gate for score-bounded probing: an m-join drops a partial result
//! before it probes once every rank-merge it feeds would reject all of its
//! completions (the `mjoin` module docs give the bound and why it is
//! exact). Dropping work may change which tuple of a tied band a query
//! returns, never a score, so each arm is pinned as a digest of every user
//! query's score multiset.
//!
//! The arms are the GUS scripts of seeds 41 and 48 at `GusConfig::small`
//! (the scale where probe-only relations turn dropped probes into remote
//! random accesses not made) under all four sharing modes, sealed into
//! batches of 1 and of 5, with Section 7's engine. The digests were
//! recorded before the executor bounded anything, and hold unchanged.

use qsys::{EngineConfig, QueryOutcome};
use qsys_bench::{all_modes, gus_engine, gus_workload, Scale};

mod common;

/// FNV-1a over each user query in id order: its id, its answer count and
/// its ascending score bits.
fn score_digest(outcomes: &common::Outcomes) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (uq, (outcome, answers)) in outcomes {
        assert_eq!(*outcome, QueryOutcome::Complete, "{uq}");
        let mut bits: Vec<u64> = answers.iter().map(|(bits, _)| *bits).collect();
        bits.sort_unstable();
        let words = [uq.index() as u64, bits.len() as u64];
        for word in words.into_iter().chain(bits) {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

/// Per seed, the score digest every arm answers with, recorded before
/// the executor bounded anything (all four sharing modes at both batch
/// sizes answered alike then too).
const GOLDEN: [(u64, u64); 2] = [(41, 0xd5df_73c5_8d3a_aea1), (48, 0x8f56_e2cd_ac0f_8788)];

/// Probes the seed-41 script issues under ATC-FULL in batches of 5:
/// 3,791,773 before bounding, when every partial result probed. Most of
/// them sat below a partial no rank-merge would keep a completion of.
/// (158,029 while a batch was planned in one joint search: its push-downs
/// left more relations to probe than each user query's own plan does.)
const PROBES_41_FULL_5: u64 = 69_305;

#[test]
fn bounded_probing_keeps_every_answer() {
    for (seed, digest) in GOLDEN {
        let w = gus_workload(seed, Scale::Small);
        for mode in all_modes() {
            let label = mode.label();
            for batch in [1, 5] {
                let arm = format!("seed {seed} {label} batch {batch}");
                let engine = EngineConfig {
                    lane_threads: 1,
                    ..gus_engine(mode.clone(), batch)
                };
                let (report, outcomes) = common::run(&w, engine);
                assert_eq!(score_digest(&outcomes), digest, "{arm}: answers moved");
                let work = report.exec_work;
                assert_eq!(
                    work.accepts,
                    work.after_k + work.dominated + work.enqueued,
                    "{arm}: {work:?}"
                );
                assert!(work.partials_bounded_out > 0, "{arm}: {work:?}");
                if (seed, label, batch) == (41, "ATC-FULL", 5) {
                    assert_eq!(work.mjoin_probes, PROBES_41_FULL_5, "{arm}: {work:?}");
                }
            }
        }
    }
}
