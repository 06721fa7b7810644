//! `perf compare A.json B.json`: is B worse than A, by the benchmark's own
//! bounds?
//!
//! Every (end-to-end metric, workload) pairing gets its own row and one of
//! three verdicts. `regression`: B's median is worse than A's by more than
//! the metric's bound. `unresolved`: the runs of one side spread (first to
//! third quartile, as a share of the median) wider than the bound, so the
//! medians cannot say "unchanged". `ok` otherwise. Virtual-clock and count
//! metrics must also repeat exactly between runs at the same seed; where
//! they do not, the row says so.

use crate::json::Json;
use crate::metrics::{Better, Clock, MetricDef, END_TO_END, PER_LAYER, REPORTED};
use crate::stats::{median, quartiles, spread};
use crate::suite::Scenario;
use std::fmt::Write as _;

/// One run as a result-set file records it.
#[derive(Clone, Debug)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub metrics: Vec<(String, Option<f64>)>,
}

impl RunRecord {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| *v)
    }
}

/// Read the `runs` of a result set written by `perf/run.sh --out`.
pub fn parse_result_set(text: &str) -> Result<Vec<RunRecord>, String> {
    let doc = Json::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("result set has no `runs` list")?;
    runs.iter()
        .map(|run| {
            let field = |k: &str| run.get(k).ok_or(format!("run without `{k}`"));
            let metrics = field("metrics")?
                .as_obj()
                .ok_or("`metrics` is not an object")?
                .iter()
                .map(|(name, m)| (name.clone(), m.get("value").and_then(Json::as_f64)))
                .collect();
            Ok(RunRecord {
                workload: field("workload")?.as_str().ok_or("workload")?.to_string(),
                seed: field("seed")?.as_f64().ok_or("seed")? as u64,
                trace: field("trace")?.as_f64().ok_or("trace")? != 0.0,
                correct: field("correct")?.as_bool().ok_or("correct")?,
                metrics,
            })
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regression,
    Unresolved,
}

/// One (metric, workload) pairing.
#[derive(Clone, Debug)]
pub struct Row {
    pub metric: &'static str,
    pub workload: &'static str,
    pub verdict: Verdict,
    /// How much worse B's median is than A's, as a share of A's (negative:
    /// better).
    pub worse_by: f64,
    /// Exact metrics: runs at the same seed in both sets that disagree.
    pub seed_mismatches: usize,
    /// `median [q1, q3] n` of each side.
    sides: [String; 2],
}

impl Row {
    fn render(&self) -> String {
        let mut line = format!(
            "  {:<11} A {:<44} B {:<44} {:>+7.2}%  {}",
            self.workload,
            self.sides[0],
            self.sides[1],
            100.0 * self.worse_by,
            match self.verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "UNRESOLVED (spread wider than bound)",
            }
        );
        if self.seed_mismatches > 0 {
            let _ = write!(line, "  CHANGED at {} shared seed(s)", self.seed_mismatches);
        }
        line
    }
}

fn values(runs: &[RunRecord], workload: &str, trace: bool, metric: &str) -> Vec<(u64, f64)> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| Some((r.seed, r.metric(metric)?)))
        .collect()
}

fn summary(v: &[f64]) -> String {
    match (median(v), quartiles(v)) {
        (Some(m), Some((q1, q3))) => format!("{m:.4} [{q1:.4}, {q3:.4}] n={}", v.len()),
        (Some(m), None) => format!("{m:.4} n=1"),
        _ => "-".to_string(),
    }
}

fn judge(
    def: &'static MetricDef,
    workload: &'static str,
    a: &[(u64, f64)],
    b: &[(u64, f64)],
) -> Option<Row> {
    let av: Vec<f64> = a.iter().map(|(_, v)| *v).collect();
    let bv: Vec<f64> = b.iter().map(|(_, v)| *v).collect();
    let (ma, mb) = (median(&av)?, median(&bv)?);
    let worse_by = match def.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let seed_mismatches = if def.clock.exact() {
        a.iter()
            .filter(|(seed, v)| b.iter().any(|(s, w)| s == seed && w != v))
            .count()
    } else {
        0
    };
    let too_wide = |v: &[f64]| spread(v).is_some_and(|s| s > def.bound);
    let verdict = if worse_by > def.bound {
        Verdict::Regression
    } else if too_wide(&av) || too_wide(&bv) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Some(Row {
        metric: def.name,
        workload,
        verdict,
        worse_by,
        seed_mismatches,
        sides: [summary(&av), summary(&bv)],
    })
}

pub struct Comparison {
    pub rows: Vec<Row>,
    /// Runs of either set whose answer check failed.
    pub incorrect_runs: usize,
    pub text: String,
}

impl Comparison {
    /// No regression, nothing unresolved, every exact metric identical at
    /// shared seeds, every run correct.
    pub fn clean(&self) -> bool {
        self.incorrect_runs == 0
            && self
                .rows
                .iter()
                .all(|r| r.verdict == Verdict::Ok && r.seed_mismatches == 0)
    }
}

pub fn compare(a: &[RunRecord], b: &[RunRecord]) -> Comparison {
    let mut text = String::new();
    let mut rows = Vec::new();
    let mut incorrect_runs = 0;
    for (label, runs) in [("A", a), ("B", b)] {
        let wrong = runs.iter().filter(|r| !r.correct).count();
        incorrect_runs += wrong;
        if wrong > 0 {
            let _ = writeln!(
                text,
                "{label}: {wrong} run(s) INCORRECT (answer check failed)"
            );
        }
    }
    let _ = writeln!(
        text,
        "end to end: median [q1, q3] per side; change is how much worse B is (negative: better)"
    );
    for def in END_TO_END {
        let _ = writeln!(
            text,
            "{} ({}, {}, {} is better, bound {}%)",
            def.name,
            def.unit,
            match def.clock {
                Clock::Host => "host clock",
                Clock::Virtual => "virtual clock, exact",
                Clock::Count => "exact count",
            },
            def.better.name(),
            100.0 * def.bound
        );
        for scenario in Scenario::ALL {
            let (va, vb) = (
                values(a, scenario.name(), false, def.name),
                values(b, scenario.name(), false, def.name),
            );
            match judge(def, scenario.name(), &va, &vb) {
                Some(row) => {
                    let _ = writeln!(text, "{}", row.render());
                    rows.push(row);
                }
                None => {
                    let _ = writeln!(text, "  {:<11} (not in both sets)", scenario.name());
                }
            }
        }
    }
    let _ = writeln!(
        text,
        "not gated (reported end to end; per layer from the traced runs): median A -> B per workload"
    );
    let unbounded = REPORTED
        .iter()
        .map(|def| (def, false))
        .chain(PER_LAYER.iter().map(|def| (def, true)));
    for (def, traced) in unbounded {
        let mut line = format!("  {:<28}", def.name);
        for scenario in Scenario::ALL {
            let med = |runs| {
                let v: Vec<f64> = values(runs, scenario.name(), traced, def.name)
                    .iter()
                    .map(|(_, v)| *v)
                    .collect();
                median(&v)
            };
            let _ = match (med(a), med(b)) {
                (Some(x), Some(y)) if x == y => write!(line, "  {x:>11.3} =          "),
                (Some(x), Some(y)) => write!(line, "  {x:>11.3}->{y:<11.3}"),
                _ => write!(line, "  {:>11} {:<11}", "-", ""),
            };
        }
        let _ = writeln!(text, "{}", line.trim_end());
    }
    let named = |pick: &dyn Fn(&Row) -> bool| {
        let hits: Vec<String> = rows
            .iter()
            .filter(|r| pick(r))
            .map(|r| format!("{} @ {}", r.metric, r.workload))
            .collect();
        if hits.is_empty() {
            "none".to_string()
        } else {
            format!("{} ({})", hits.len(), hits.join(", "))
        }
    };
    let _ = writeln!(
        text,
        "{} pairings. regressions: {}. unresolved: {}. exact metrics changed at a shared seed: {}.",
        rows.len(),
        named(&|r| r.verdict == Verdict::Regression),
        named(&|r| r.verdict == Verdict::Unresolved),
        named(&|r| r.seed_mismatches > 0),
    );
    Comparison {
        rows,
        incorrect_runs,
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result set with `uq_per_s` as given per seed, everything else fixed.
    fn set(uq_per_s: &[f64], tuples_per_uq: f64) -> Vec<RunRecord> {
        let mut runs = Vec::new();
        for scenario in Scenario::ALL {
            for (i, v) in uq_per_s.iter().enumerate() {
                let metrics = END_TO_END
                    .iter()
                    .map(|def| {
                        let value = match def.name {
                            "uq_per_s" => *v,
                            "tuples_per_uq" => tuples_per_uq,
                            _ => 10.0,
                        };
                        (def.name.to_string(), Some(value))
                    })
                    .collect();
                runs.push(RunRecord {
                    workload: scenario.name().to_string(),
                    seed: 41 + i as u64,
                    trace: false,
                    correct: true,
                    metrics,
                });
            }
        }
        runs
    }

    const STEADY: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn identical_inputs_pass() {
        let a = set(&STEADY, 1500.0);
        let c = compare(&a, &a);
        assert_eq!(c.rows.len(), END_TO_END.len() * Scenario::ALL.len());
        assert!(c.clean(), "{}", c.text);
        assert!(c.rows.iter().all(|r| r.worse_by == 0.0));
    }

    #[test]
    fn a_fifteen_percent_throughput_drop_fails() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "uq_per_s")
            .unwrap()
            .bound;
        let drop = bound + 0.02;
        let slower: Vec<f64> = STEADY.iter().map(|v| v * (1.0 - drop)).collect();
        let c = compare(&set(&STEADY, 1500.0), &set(&slower, 1500.0));
        assert!(!c.clean());
        let hit: Vec<&Row> = c
            .rows
            .iter()
            .filter(|r| r.verdict == Verdict::Regression)
            .collect();
        assert_eq!(hit.len(), Scenario::ALL.len(), "{}", c.text);
        assert!(hit.iter().all(|r| r.metric == "uq_per_s"));
        assert!((hit[0].worse_by - drop).abs() < 1e-9);
        // The same drop the other way is a gain, not a regression.
        let c = compare(&set(&slower, 1500.0), &set(&STEADY, 1500.0));
        assert!(
            c.rows.iter().all(|r| r.verdict == Verdict::Ok),
            "{}",
            c.text
        );
    }

    #[test]
    fn an_over_spread_side_is_unresolved_not_unchanged() {
        let noisy = [100.0, 140.0, 60.0, 130.0, 70.0];
        let c = compare(&set(&STEADY, 1500.0), &set(&noisy, 1500.0));
        let open: Vec<&Row> = c
            .rows
            .iter()
            .filter(|r| r.verdict == Verdict::Unresolved)
            .collect();
        assert_eq!(open.len(), Scenario::ALL.len(), "{}", c.text);
        assert!(open.iter().all(|r| r.metric == "uq_per_s"));
        assert!(!c.clean());
    }

    #[test]
    fn exact_metrics_must_repeat_at_a_shared_seed() {
        // 0.1% more tuples: far inside the bound, but not identical.
        let c = compare(&set(&STEADY, 1500.0), &set(&STEADY, 1501.5));
        let moved: Vec<&Row> = c.rows.iter().filter(|r| r.seed_mismatches > 0).collect();
        assert_eq!(moved.len(), Scenario::ALL.len());
        assert!(moved.iter().all(|r| r.metric == "tuples_per_uq"));
        assert!(moved.iter().all(|r| r.verdict == Verdict::Ok));
        assert_eq!(moved[0].seed_mismatches, STEADY.len());
        assert!(!c.clean());
    }

    #[test]
    fn result_sets_round_trip_through_the_writer() {
        let run = Json::obj([
            ("workload", Json::str("gus-full")),
            ("seed", Json::Num(41.0)),
            ("trace", Json::Num(1.0)),
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(480.0)),
            ("failed", Json::Num(0.0)),
            (
                "metrics",
                Json::obj([
                    (
                        "exec.run_ms",
                        Json::obj([("value", Json::num(12.5)), ("unit", Json::str("ms"))]),
                    ),
                    (
                        "exec.us_per_tuple",
                        Json::obj([("value", Json::num(f64::NAN)), ("unit", Json::str("us"))]),
                    ),
                ]),
            ),
        ]);
        let text = Json::obj([("runs", Json::Arr(vec![run]))]).render();
        let runs = parse_result_set(&text).unwrap();
        assert_eq!(runs.len(), 1);
        assert!(runs[0].trace && runs[0].correct);
        assert_eq!(runs[0].metric("exec.run_ms"), Some(12.5));
        assert_eq!(
            runs[0].metric("exec.us_per_tuple"),
            None,
            "null stays undefined"
        );
        assert!(parse_result_set("{}").is_err());
    }
}
