//! The benchmark's inputs: a fixed suite of GUS instances, the seeded
//! arrival order of each instance's script, and the four workloads with
//! their engine configurations, every field written out.
//!
//! Why a suite of small instances and not one 40-query script: host time of
//! one GUS instance varies several-fold from seed to seed (5.8–20.7 s for
//! seeds 41–44 at 40 queries and 300–1500 rows, and no property of the
//! generated input predicts it), so a run over one seeded instance cannot be
//! compared with a run over another. The suite's databases and query sets
//! are therefore fixed — seeds 41, 42, … — and `--seed` draws the order in
//! which the queries of each admission window arrive. Which queries share a
//! window is fixed too: moving queries between optimizer batches moves a
//! run's host time by up to 30% (a few batch compositions are pathologically
//! expensive), which would drown any change a later PR makes. Answers do not
//! depend on arrival order, so every query of every run is checked against
//! the committed sharing-free golden.

use qsys::exec::{RetryPolicy, SchedulingPolicy};
use qsys::opt::{AdaptiveConfig, ClusterConfig, HeuristicConfig};
use qsys::query::CandidateConfig;
use qsys::state::EvictionPolicy;
use qsys::types::{CostProfile, RelId};
use qsys::{generate_user_queries, EngineConfig, ShardConfig, SharingMode};
use qsys_workload::gus::{self, GusConfig};
use qsys_workload::Workload;
use std::time::Instant;

/// Seed of the suite's first instance; instance `i` is seed `41 + i`. The
/// range starts where every golden in the repo starts (41, 48 and 55 are the
/// seeds `tests/interner_invariants.rs` pins).
pub const SUITE_FIRST_SEED: u64 = 41;
/// Instances in the suite (goldens are committed for exactly these).
pub const SUITE_LEN: usize = 40;
/// Keyword queries per instance: two optimizer batches, so the second
/// grafts onto the state the first left behind.
pub const QUERIES_PER_INSTANCE: usize = 10;
/// Section 7's batch size.
pub const BATCH_SIZE: usize = 5;

/// The generator configuration of one suite instance: the full 358-relation
/// schema at reduced rows.
pub fn gus_config(instance_seed: u64) -> GusConfig {
    GusConfig {
        user_queries: QUERIES_PER_INSTANCE,
        min_rows: 100,
        max_rows: 300,
        ..GusConfig::small(instance_seed)
    }
}

/// One of the benchmark's four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    Full,
    Recur,
    Evict,
    ClPar,
}

impl Scenario {
    pub const ALL: [Scenario; 4] = [
        Scenario::Full,
        Scenario::Recur,
        Scenario::Evict,
        Scenario::ClPar,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Scenario::Full => "gus-full",
            Scenario::Recur => "gus-recur",
            Scenario::Evict => "gus-evict",
            Scenario::ClPar => "gus-cl-par",
        }
    }

    pub fn from_name(name: &str) -> Option<Scenario> {
        Scenario::ALL.into_iter().find(|s| s.name() == name)
    }

    /// How many suite instances a run of `seconds` visits: sized so that the
    /// timed drive takes about `seconds` on the 2-core container the
    /// benchmark was defined on (gus-recur re-poses cost more than a cold
    /// pose, and each needs an untimed prime first). Capped at the suite.
    pub fn visits(self, seconds: u64) -> usize {
        let per_ten_seconds = match self {
            Scenario::Recur => SUITE_LEN / 2,
            _ => SUITE_LEN,
        };
        ((seconds as usize * per_ten_seconds).div_ceil(10)).clamp(2, per_ten_seconds)
    }

    /// Section 7's engine set-up (`qsys_bench::gus_engine`), every field
    /// written out: `EngineConfig::default()` reads eleven `QSYS_*`
    /// variables, and none of them may reach a measurement.
    pub fn engine_config(self, lane_threads: usize) -> EngineConfig {
        EngineConfig {
            k: 50,
            batch_size: BATCH_SIZE,
            arrival_window_us: None,
            sharing: match self {
                Scenario::ClPar => SharingMode::AtcCl(ClusterConfig { t_m: 2, t_c: 0.9 }),
                _ => SharingMode::AtcFull,
            },
            memory_budget: match self {
                // Under a tenth of the ≈6.3 MB one instance leaves resident.
                Scenario::Evict => 512 << 10,
                _ => usize::MAX,
            },
            eviction: EvictionPolicy::LruSizeTieBreak,
            candidate: section7_candidates(),
            heuristics: HeuristicConfig::default(),
            cost_profile: CostProfile::default(),
            scheduling: SchedulingPolicy::RoundRobin,
            share_probe_caches: true,
            seed: 0,
            lane_threads,
            warm_opt: true,
            faults: None,
            retry: RetryPolicy::default(),
            snapshot_dir: None,
            sharding: ShardConfig::off(),
            adaptive: AdaptiveConfig::off(),
            snapshot_every: 1,
            verify: false,
            shard_debug: false,
            env_errors: Vec::new(),
        }
    }

    /// Lane threads of the measured drive (`nproc` is 2 where the benchmark
    /// was defined; fixed so the number does not follow the machine).
    pub fn lane_threads(self) -> usize {
        match self {
            Scenario::ClPar => 2,
            _ => 1,
        }
    }
}

fn section7_candidates() -> CandidateConfig {
    CandidateConfig {
        max_cqs: 20,
        max_atoms: 6,
        matches_per_keyword: 3,
        ..CandidateConfig::default()
    }
}

/// The sharing-free reference arm the goldens are generated from.
pub fn reference_config() -> EngineConfig {
    EngineConfig {
        sharing: SharingMode::AtcCq,
        ..Scenario::Full.engine_config(1)
    }
}

/// Refuse to measure under any `QSYS_*` variable: the explicit config above
/// ignores them, so a run that sets one is not measuring what its caller
/// thinks it is.
pub fn refuse_qsys_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("QSYS_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark's engine configuration is fixed",
            set.join(", ")
        ))
    }
}

/// One generated, materialised suite instance with its script in the
/// arrival order of this run.
pub struct Instance {
    /// `workload.queries` is already in arrival order.
    pub workload: Workload,
    /// `order[pos]` is the index the query arriving at `pos` has in the
    /// generated script (the key its golden is stored under).
    pub order: Vec<usize>,
    /// Relations the script's candidate networks reference, sorted.
    pub rels: Vec<RelId>,
    /// Host time spent generating those relations' tables.
    pub materialize_ns: u64,
}

/// Generate instance `instance_seed`, put its script in the arrival order
/// `run_seed` draws (`None` keeps script order) and materialise every
/// relation its candidate networks reference, so no timed drive pays a
/// first-touch table generation.
pub fn build_instance(
    instance_seed: u64,
    run_seed: Option<u64>,
    config: &EngineConfig,
) -> Instance {
    let mut workload = gus::generate(&gus_config(instance_seed));
    let order = match run_seed {
        Some(run_seed) => arrival_order(workload.queries.len(), run_seed, instance_seed),
        None => (0..workload.queries.len()).collect(),
    };
    // The script keeps its arrival stamps; the queries move between them.
    let stamps: Vec<u64> = workload.queries.iter().map(|q| q.arrival_us).collect();
    let script = std::mem::take(&mut workload.queries);
    workload.queries = order.iter().map(|&i| script[i].clone()).collect();
    for (q, stamp) in workload.queries.iter_mut().zip(stamps) {
        q.arrival_us = stamp;
    }

    let (uqs, _skipped) =
        generate_user_queries(&workload, config).expect("candidate generation is infallible");
    let mut rels: Vec<RelId> = uqs.iter().flat_map(|uq| uq.rels()).collect();
    rels.sort();
    rels.dedup();
    let started = Instant::now();
    for rel in &rels {
        workload.tables.table(*rel);
    }
    Instance {
        workload,
        order,
        rels,
        materialize_ns: started.elapsed().as_nanos() as u64,
    }
}

/// `0..n` with each window of [`BATCH_SIZE`] consecutive positions shuffled
/// (Fisher–Yates) and no query leaving its window; keyed by (run seed,
/// instance seed) on SplitMix64, so the order depends on nothing but those
/// two numbers.
pub fn arrival_order(n: usize, run_seed: u64, instance_seed: u64) -> Vec<usize> {
    let mut state = run_seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(instance_seed);
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for window in order.chunks_mut(BATCH_SIZE) {
        for i in (1..window.len()).rev() {
            window.swap(i, (next() % (i as u64 + 1)) as usize);
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_order_is_a_seeded_permutation() {
        let a = arrival_order(10, 7, 41);
        assert_eq!(a, arrival_order(10, 7, 41), "same seeds, same order");
        assert_ne!(a, arrival_order(10, 8, 41), "run seed matters");
        assert_ne!(a, arrival_order(10, 7, 42), "instance seed matters");
        // A permutation in which no query leaves its admission window.
        for (window_no, window) in a.chunks(BATCH_SIZE).enumerate() {
            let mut sorted = window.to_vec();
            sorted.sort_unstable();
            let first = window_no * BATCH_SIZE;
            assert_eq!(sorted, (first..first + BATCH_SIZE).collect::<Vec<_>>());
        }
        assert_eq!(arrival_order(7, 7, 41).len(), 7, "a short last window");
        assert_eq!(arrival_order(1, 7, 41), [0]);
        assert!(arrival_order(0, 7, 41).is_empty());
    }

    #[test]
    fn visits_scale_with_seconds_and_stop_at_the_suite() {
        assert_eq!(Scenario::Full.visits(10), SUITE_LEN);
        assert_eq!(Scenario::Full.visits(60), SUITE_LEN);
        assert_eq!(Scenario::Full.visits(5), SUITE_LEN / 2);
        assert_eq!(Scenario::Full.visits(1), SUITE_LEN.div_ceil(10));
        assert_eq!(Scenario::Recur.visits(10), SUITE_LEN / 2);
        assert_eq!(Scenario::Recur.visits(0), 2);
    }

    #[test]
    fn names_round_trip() {
        for s in Scenario::ALL {
            assert_eq!(Scenario::from_name(s.name()), Some(s));
        }
        assert_eq!(Scenario::from_name("gus"), None);
    }

    #[test]
    fn instance_keeps_stamps_and_moves_queries() {
        let config = Scenario::Full.engine_config(1);
        let script = build_instance(41, None, &config);
        let shuffled = build_instance(41, Some(3), &config);
        assert_eq!(script.order, (0..QUERIES_PER_INSTANCE).collect::<Vec<_>>());
        assert_ne!(shuffled.order, script.order);
        for (pos, q) in shuffled.workload.queries.iter().enumerate() {
            let original = &script.workload.queries[shuffled.order[pos]];
            assert_eq!(q.keywords, original.keywords);
            assert_eq!(q.user, original.user);
            assert_eq!(q.arrival_us, script.workload.queries[pos].arrival_us);
        }
        assert_eq!(shuffled.rels, script.rels, "same queries, same relations");
        assert_eq!(shuffled.workload.tables.materialized(), shuffled.rels.len());
    }
}
