//! Four-pose identity golden: one ATC-FULL engine answers the same
//! ten-query script four times, five queries per batch, at the benchmark
//! suite's shape (`perf/src/suite.rs`: 100–300 rows, Section 7 candidate
//! limits). Every re-pose meets whatever state the earlier poses left
//! resident, so the optimizer's decisions, the tuples the sources deliver,
//! the virtual response times and the answers of each pose are all pinned.
//!
//! The values were recorded while a cross-batch plan memo still replayed
//! the third and fourth pose of seeds 48 and 55 (never seed 41) instead of
//! searching; every batch searches now, and nothing here moved — replay
//! and search were the same decision.
//!
//! Seed 48's digest was re-recorded once (`0xcf92…d782` → `0x62a4…577d`,
//! all four poses, every other column equal): the Q System score weights
//! were written `2.0.powf(-c)`, which LLVM lowers to `exp2(-c)` only under
//! optimisation, and the two differ by an ulp on ≈1 input in 900 — so the
//! debug build pinned here disagreed with the release build the benchmark
//! and every `reproduce` table run. The sites now say `exp2`; release
//! never moved, and this test passes under `--release` too (CI runs it
//! there as the profile-drift guard).
//!
//! The response columns were re-recorded once more when m-joins began
//! dropping partial results no rank-merge would keep a completion of
//! before probing with them (score-bounded probing, `qsys_exec::mjoin`):
//! the probes and routing hops never taken are not charged to the virtual
//! clock, so of the 120 responses none rose and most fell. Explored
//! states, memo hits, candidates, tuples and digests did not move: these
//! instances probe no remote relation, and no answer changed.
//!
//! Poses 1–3 were re-recorded once more when a batch whose every
//! conjunctive query is resident whole stopped searching push-down
//! candidates (`Optimizer::optimize`): graft merges each such root
//! with its live node, so the search could not change the graph. Every
//! re-posed batch of all three seeds takes that path, and each line was
//! derived by rule from the one before it: Σexplored falls to the batch
//! count (2), memo hits and candidates to 0, and each response by exactly
//! 15 µs (the optimizer's charge per state) × (its batch's old explored
//! states − 1). The old per-batch counts were 22,913 / 21,505 (seed 41),
//! 17,025 / 20,993 (seed 48) and 22,081 / 4,993 (seed 55). Pose 0, tuples
//! and digests did not move.
//!
//! Every column but the digests was re-recorded once more when each user
//! query of a batch began to be planned alone (`Optimizer::optimize`): a
//! re-pose explores one default state per user query (10 a pose, was 2),
//! and pose 0 searches five smaller pools (Σexplored 44,418 → 64,298,
//! 38,018 → 42,548 and 27,074 → 21,409; tuples 5,094 → 5,408, 7,027 →
//! 5,425 and 5,389 → 5,256). No digest moved.
//!
//! Poses 1–3 were re-recorded once more when a completed user query's
//! top-k began to be retained and an identical re-pose to publish it at
//! graft (`qsys_exec::state`): every re-posed query of all three seeds is
//! sealed, so each line was derived by rule — the sources deliver 0
//! tuples, and each response is its batch's optimizer charge, explored
//! states (5) × 15 µs = 75 µs. Explored states, memo hits, candidates,
//! pose 0 and digests did not move.

use qsys::prelude::*;
use qsys_workload::gus::{self, GusConfig};
use std::fmt::Write;

const POSES: usize = 4;

/// Section 7's engine (`qsys_bench::gus_engine`): ATC-FULL, five queries a
/// batch, one lane thread.
fn engine_config() -> EngineConfig {
    EngineConfig {
        lane_threads: 1,
        ..qsys_bench::gus_engine(SharingMode::AtcFull, 5)
    }
}

/// FNV-1a over the answer count and the ascending score bits: independent
/// of the order in which equal-scored answers were emitted.
fn score_digest(h: &mut u64, results: &[(qsys::types::Score, qsys::types::Tuple)]) {
    let mut bits: Vec<u64> = results.iter().map(|(s, _)| s.get().to_bits()).collect();
    bits.sort_unstable();
    for word in std::iter::once(bits.len() as u64).chain(bits) {
        for b in word.to_le_bytes() {
            *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Pose the script `POSES` times; one line per pose:
/// `Σexplored Σmemo_hits Σcandidates Δtuples_consumed [response_us…] digest`.
fn four_poses(seed: u64) -> String {
    let w = gus::generate(&GusConfig {
        user_queries: 10,
        min_rows: 100,
        max_rows: 300,
        ..GusConfig::small(seed)
    });
    let mut engine = Engine::for_workload(&w, engine_config());
    let mut out = String::new();
    for pose in 0..POSES {
        let tuples_before = engine.sources().tuples_consumed();
        let (mut explored, mut memo_hits, mut candidates) = (0, 0, 0);
        let mut responses = Vec::new();
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for window in w.queries.chunks(5) {
            let tickets: Vec<QueryTicket> = window
                .iter()
                .map(|q| {
                    let mut session = engine.session(q.user);
                    if let Some(costs) = &q.edge_costs {
                        session = session.with_edge_costs(costs.clone());
                    }
                    session
                        .submit(&q.keywords, q.arrival_us)
                        .expect("the pinned scripts all match candidate networks")
                })
                .collect();
            engine.flush();
            assert_eq!(engine.step(), 1, "one batch per window");
            // Every member of a batch carries that batch's summed searches.
            let opt = tickets[0].opt_stats().expect("batch ran");
            explored += opt.explored;
            memo_hits += opt.memo_hits;
            candidates += opt.candidates;
            for t in &tickets {
                assert_eq!(t.poll(), TicketStatus::Completed, "seed {seed}: {t:?}");
                score_digest(&mut digest, &t.take_results().expect("results retained"));
                let report = t.report().expect("report published");
                assert_eq!(
                    report.sealed,
                    pose > 0,
                    "seed {seed} pose {pose}: {report:?}"
                );
                responses.push(report.response_us);
            }
        }
        let tuples = engine.sources().tuples_consumed() - tuples_before;
        writeln!(
            out,
            "pose {pose}: {explored} {memo_hits} {candidates} {tuples} {responses:?} {digest:#018x}"
        )
        .expect("writing to a String");
    }
    out
}

#[test]
fn four_poses_of_one_script_are_pinned() {
    for (seed, golden) in [(41u64, GOLDEN_41), (48, GOLDEN_48), (55, GOLDEN_55)] {
        let got = four_poses(seed);
        assert_eq!(got, golden, "seed {seed}: got\n{got}");
    }
}

const GOLDEN_41: &str = "\
pose 0: 64298 48681 86 5408 [9377003, 1799642, 1133310, 1958064, 1816033, 410102, 1199847, 1134961, 410097, 2642897] 0xa3651b5cb6daf445\n\
pose 1: 10 0 0 0 [75, 75, 75, 75, 75, 75, 75, 75, 75, 75] 0xa3651b5cb6daf445\n\
pose 2: 10 0 0 0 [75, 75, 75, 75, 75, 75, 75, 75, 75, 75] 0xa3651b5cb6daf445\n\
pose 3: 10 0 0 0 [75, 75, 75, 75, 75, 75, 75, 75, 75, 75] 0xa3651b5cb6daf445\n\
";
const GOLDEN_48: &str = "\
pose 0: 42548 31724 103 5425 [4378308, 1585966, 3503224, 1858467, 1577832, 7333930, 4833728, 1038349, 2666915, 5939084] 0x62a426ff95e1577d\n\
pose 1: 10 0 0 0 [75, 75, 75, 75, 75, 75, 75, 75, 75, 75] 0x62a426ff95e1577d\n\
pose 2: 10 0 0 0 [75, 75, 75, 75, 75, 75, 75, 75, 75, 75] 0x62a426ff95e1577d\n\
pose 3: 10 0 0 0 [75, 75, 75, 75, 75, 75, 75, 75, 75, 75] 0x62a426ff95e1577d\n\
";
const GOLDEN_55: &str = "\
pose 0: 21409 15279 86 5256 [8062519, 6443134, 4391896, 4904014, 8769723, 238311, 238311, 2245485, 238311, 238311] 0xfb5f69d89341d354\n\
pose 1: 10 0 0 0 [75, 75, 75, 75, 75, 75, 75, 75, 75, 75] 0xfb5f69d89341d354\n\
pose 2: 10 0 0 0 [75, 75, 75, 75, 75, 75, 75, 75, 75, 75] 0xfb5f69d89341d354\n\
pose 3: 10 0 0 0 [75, 75, 75, 75, 75, 75, 75, 75, 75, 75] 0xfb5f69d89341d354\n\
";
