//! Every metric the benchmark reports, by name: its unit, the clock it is
//! on, which direction is better and — end to end — the regression bound.
//! `BENCHMARK.json` mirrors this table (a self-test compares them) and
//! `perf compare` applies it.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// What a number was measured on. `Host` numbers are wall-clock time (or
/// memory) of this machine and carry noise; `Virtual` numbers are on the
/// engine's simulated clock and `Count` numbers are exact counters — both
/// repeat exactly for the same seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    Host,
    Virtual,
    Count,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Virtual => "virtual",
            Clock::Count => "count",
        }
    }

    /// Whether two runs at the same seed must report the same value.
    pub fn exact(self) -> bool {
        self != Clock::Host
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// End to end: the share of the parent's median by which the metric may
    /// get worse before a change counts as a regression. Unused per layer.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
        bound,
    }
}

/// A metric without a bound.
const fn unbounded(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
) -> MetricDef {
    e2e(name, unit, clock, better, 0.0)
}

use Better::{Higher, Lower};
use Clock::{Count, Host, Virtual};

/// What a user of the engine sees, and what a change is gated on. The
/// virtual and count bounds are at least three times the widest
/// interquartile spread measured over ten seeds on the container the
/// benchmark was defined on (`perf/README.md` has the table); the host bounds
/// are the widest the contract allows — about three times their spread —
/// because that container's speed drifts by ±10% over minutes.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Host, Lower, 0.25),
    e2e("uq_per_s", "UQ/s", Host, Higher, 0.25),
    e2e("uq_host_ms_p50", "ms", Host, Lower, 0.25),
    e2e("virt_response_ms_mean", "ms", Virtual, Lower, 0.06),
    e2e("virt_response_ms_p50", "ms", Virtual, Lower, 0.05),
    e2e("virt_response_ms_p90", "ms", Virtual, Lower, 0.10),
    e2e("tuples_per_uq", "tuples", Count, Lower, 0.05),
];

/// Measured and printed by every end-to-end run and kept in result sets,
/// but not gated and not in `BENCHMARK.json`: their spread over ten seeds
/// (21% for the latency tail on `gus-evict`, 40% for peak memory on the
/// threaded `gus-cl-par`) is wider than any bound the contract allows.
pub const REPORTED: &[MetricDef] = &[
    unbounded("uq_host_ms_p90", "ms", Host, Lower),
    unbounded("peak_rss_mb", "MB", Host, Lower),
];

/// Single layers, from the traced pass. No bounds: they explain a movement
/// end to end, they are not gated themselves.
pub const PER_LAYER: &[MetricDef] = &[
    unbounded("query.cqgen_ms", "ms", Host, Lower),
    unbounded("query.cqgen_us_per_uq", "us", Host, Lower),
    unbounded("query.cqs_per_uq", "count", Count, Lower),
    unbounded("opt.optimize_ms", "ms", Host, Lower),
    unbounded("opt.optimize_ms_batch_p50", "ms", Host, Lower),
    unbounded("opt.explored", "count", Count, Lower),
    unbounded("opt.memo_hits", "count", Count, Higher),
    unbounded("opt.candidates", "count", Count, Lower),
    unbounded("opt.warm_hit_ratio", "ratio", Count, Higher),
    unbounded("state.graft_ms", "ms", Host, Lower),
    unbounded("state.graft_ms_batch_p50", "ms", Host, Lower),
    unbounded("state.reused_nodes", "count", Count, Higher),
    unbounded("state.recovered_cqs", "count", Count, Higher),
    unbounded("state.unlink_ms", "ms", Host, Lower),
    unbounded("state.evict_ms", "ms", Host, Lower),
    unbounded("state.evicted_nodes", "count", Count, Lower),
    unbounded("state.reclaimed_mb", "MB", Count, Lower),
    unbounded("state.resident_mb_end", "MB", Count, Lower),
    unbounded("state.graph_nodes_end", "count", Count, Lower),
    unbounded("exec.run_ms", "ms", Host, Lower),
    unbounded("exec.share_pct", "%", Host, Lower),
    unbounded("exec.run_ms_batch_max", "ms", Host, Lower),
    unbounded("exec.rounds", "count", Count, Lower),
    unbounded("exec.us_per_round_p50", "us", Host, Lower),
    unbounded("exec.us_per_round_p99", "us", Host, Lower),
    unbounded("exec.us_per_tuple", "us", Host, Lower),
    unbounded("exec.cqs_executed_per_uq", "count", Count, Lower),
    unbounded("source.tuples_consumed", "count", Count, Lower),
    unbounded("source.tuples_streamed", "count", Count, Lower),
    unbounded("source.probes", "count", Count, Lower),
    unbounded("source.stream_rounds", "count", Count, Lower),
    unbounded("source.read_us_per_tuple", "us", Host, Lower),
    unbounded("source.materialize_ms", "ms", Host, Lower),
    unbounded("source.tables_materialized", "count", Count, Lower),
    unbounded("session.submit_ms", "ms", Host, Lower),
    unbounded("session.step_ms", "ms", Host, Lower),
    unbounded("session.take_results_ms", "ms", Host, Lower),
    unbounded("session.report_ms", "ms", Host, Lower),
    unbounded("session.overhead_ms", "ms", Host, Lower),
    unbounded("session.flush_ms", "ms", Host, Lower),
    unbounded("session.lanes", "count", Count, Higher),
    unbounded("session.lane_wall_sum_ms", "ms", Host, Lower),
    unbounded("session.lane_wall_max_ms", "ms", Host, Lower),
    unbounded("session.lane_balance", "ratio", Host, Higher),
    unbounded("session.seq_run_ms", "ms", Host, Lower),
    unbounded("session.par_speedup", "ratio", Host, Higher),
    unbounded("trace.coverage_pct", "%", Host, Higher),
    unbounded("trace.overhead_pct", "%", Host, Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::suite::Scenario;

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// benchmark prints and the comparator applies. They may not drift.
    #[test]
    fn benchmark_json_mirrors_this_table() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let names = |key: &str| -> Vec<Vec<(String, Json)>> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|m| m.as_obj().expect("an object").to_vec())
                .collect()
        };
        let field = |m: &[(String, Json)], k: &str| {
            m.iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing {k}"))
        };

        let listed = names("end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for (m, def) in listed.iter().zip(END_TO_END) {
            assert_eq!(field(m, "name"), Json::str(def.name));
            assert_eq!(field(m, "unit"), Json::str(def.unit), "{}", def.name);
            assert_eq!(
                field(m, "better"),
                Json::str(def.better.name()),
                "{}",
                def.name
            );
            assert_eq!(field(m, "bound"), Json::Num(def.bound), "{}", def.name);
            assert!(def.bound > 0.0 && def.bound <= 0.25, "{}", def.name);
            assert_eq!(m.len(), 4);
        }
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(END_TO_END[0].name, "setup_s");
        assert_eq!(END_TO_END[0].bound, widest);

        let listed = names("per_layer");
        assert_eq!(listed.len(), PER_LAYER.len());
        for (m, def) in listed.iter().zip(PER_LAYER) {
            assert_eq!(field(m, "name"), Json::str(def.name));
            assert_eq!(field(m, "unit"), Json::str(def.unit), "{}", def.name);
            assert_eq!(
                field(m, "better"),
                Json::str(def.better.name()),
                "{}",
                def.name
            );
            assert_eq!(m.len(), 3);
        }

        let listed = names("workloads");
        assert_eq!(listed.len(), Scenario::ALL.len());
        for (m, s) in listed.iter().zip(Scenario::ALL) {
            assert_eq!(field(m, "name"), Json::str(s.name()));
        }
        assert_eq!(
            doc.get("paths"),
            Some(&Json::Arr(vec![Json::str("perf")])),
            "the benchmark lives in perf/ and nowhere else"
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(REPORTED).chain(PER_LAYER) {
            assert!(ok_name(def.name), "{}", def.name);
            assert!(ok_unit(def.unit), "{} unit {}", def.name, def.unit);
            assert!(seen.insert(def.name), "{} listed twice", def.name);
        }
    }
}
