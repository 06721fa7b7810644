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

use qsys::prelude::*;
use qsys::query::CandidateConfig;
use qsys_workload::gus::{self, GusConfig};
use std::fmt::Write;

const POSES: usize = 4;

fn engine_config() -> EngineConfig {
    EngineConfig {
        k: 50,
        batch_size: 5,
        sharing: SharingMode::AtcFull,
        candidate: CandidateConfig {
            max_cqs: 20,
            max_atoms: 6,
            matches_per_keyword: 3,
            ..CandidateConfig::default()
        },
        lane_threads: 1,
        ..EngineConfig::default()
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
            // Every member of a batch carries that batch's one search.
            let opt = tickets[0].opt_stats().expect("batch ran");
            explored += opt.explored;
            memo_hits += opt.memo_hits;
            candidates += opt.candidates;
            for t in &tickets {
                assert_eq!(t.poll(), TicketStatus::Completed, "seed {seed}: {t:?}");
                score_digest(&mut digest, &t.take_results().expect("results retained"));
                responses.push(t.report().expect("report published").response_us);
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
pose 0: 44418 36226 24 5094 [8831356, 1551585, 847129, 2065614, 1569851, 391368, 1093020, 1206240, 391363, 2353264] 0xa3651b5cb6daf445\n\
pose 1: 44418 36226 24 50 [449034, 399537, 404570, 403666, 394603, 377062, 392388, 395954, 377087, 415259] 0xa3651b5cb6daf445\n\
pose 2: 44418 36226 24 52 [453111, 403603, 408647, 407746, 398730, 377129, 392450, 396006, 377134, 415316] 0xa3651b5cb6daf445\n\
pose 3: 44418 36226 24 59 [461331, 411829, 416862, 415971, 407077, 383172, 398451, 402017, 383165, 421327] 0xa3651b5cb6daf445\n\
";
const GOLDEN_48: &str = "\
pose 0: 38018 30850 24 7027 [5588197, 3458322, 3675546, 2174335, 3458322, 9389498, 7818557, 3597851, 2779928, 8879019] 0x62a426ff95e1577d\n\
pose 1: 38018 30850 24 0 [290802, 285169, 268799, 260759, 285163, 373262, 359022, 360628, 329971, 371577] 0x62a426ff95e1577d\n\
pose 2: 38018 30850 24 0 [290802, 285169, 268799, 260759, 285163, 373262, 359022, 360628, 329971, 371577] 0x62a426ff95e1577d\n\
pose 3: 38018 30850 24 0 [290802, 285169, 268799, 260759, 285163, 373262, 359022, 360628, 329971, 371577] 0x62a426ff95e1577d\n\
";
const GOLDEN_55: &str = "\
pose 0: 27074 21698 24 5389 [8192732, 4937358, 4430975, 5116486, 8846783, 1008015, 1003822, 2686249, 1030537, 1003816] 0xfb5f69d89341d354\n\
pose 1: 27074 21698 24 0 [351470, 346480, 349992, 343915, 344276, 90239, 90115, 103714, 90383, 90126] 0xfb5f69d89341d354\n\
pose 2: 27074 21698 24 0 [351470, 346477, 349992, 343933, 344276, 90239, 90129, 103714, 90383, 90123] 0xfb5f69d89341d354\n\
pose 3: 27074 21698 24 0 [351470, 346477, 349997, 343928, 344287, 90234, 90124, 103714, 90383, 90118] 0xfb5f69d89341d354\n\
";
