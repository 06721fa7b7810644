//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```sh
//! cargo run --release -p qsys-bench --bin reproduce -- all
//! cargo run --release -p qsys-bench --bin reproduce -- fig7 --seeds 4
//! cargo run --release -p qsys-bench --bin reproduce -- table4 --scale paper
//! ```
//!
//! Experiments: `table4 fig7 fig8 fig9 fig10 fig11 fig12`
//! Ablations:   `ablation-atc ablation-recovery ablation-eviction`
//! Restart:     `restart --phase prime --dir D` then `restart --phase reload
//! --dir D` — a restart across two OS processes (the CI smoke): the reload
//! must rehydrate from the snapshot the prime published, feed its first
//! batch's search from the rehydrated warm store (more cache hits than a
//! cold start's first batch), and stay decision-identical to a
//! persistence-off run.
//! Chaos:       `chaos [--out BENCH_5.json]` — fault-rate sweep (0 / 1% / 5%
//! transient, plus one hard outage) over the fault-injection layer: degraded
//! and failed ticket counts, retries, breaker trips, and p50/p99 response,
//! gated on "no tuple loss on unfaulted relations".
//! Sharding:    `shard [--out BENCH_7.json] [--check]` — oversized-cluster
//! sharding sweep (unsharded vs shard caps 2 / 4 / 8): per-lane walls,
//! Σ/max balance, and the parallel speedup bound before/after, gated on
//! per-UQ answer-multiset identity with the unsharded run.
//! Adaptive:    `adaptive [--out BENCH_8.json] [--check]` — mid-flight
//! re-optimization sweep (static vs drift thresholds 1.25 / 1.5 / 2.0 on a
//! drift-heavy catalog): mean/p99 response, drift checks, replans, and
//! corrected cardinalities, gated on per-UQ answer-multiset identity with
//! the static run (`--check` also requires ≥1 replan and an improvement).
//! Verify:      `verify [--dir D]` — invariant audit: run the standard GUS
//! seeds through the default ATC-CL arm at 1 and 4 lane threads plus one
//! sharded, one chaos, and one adaptive arm, run the `qsys-verify` checker
//! over every live engine, and round-trip each engine's snapshot through
//! disk and re-verify the decoded image. Exits 1 on any violation.
//! Sweeps:      `fetch-batch [--batches 1,8,32] [--limit N]` — response-time
//! shift from stream fetch-ahead on the figure workload (the ROADMAP's
//! "quantify what fetch_batch buys" item; recorded in `BENCH_4.json`).
//! Perf:        `bench [--iters N] [--baseline FILE] [--out FILE]` — measure
//! the optimizer+graft hot path, end-to-end throughput, and the
//! sequential-vs-threaded multi-cluster ATC-CL comparison, and emit the
//! repo's `BENCH_*.json` trajectory point (optionally embedding a baseline
//! snapshot recorded before an optimization landed).
//!
//! Every subcommand accepts `--lane-threads N` to cap how many ATC-CL
//! lanes execute concurrently (default: the machine's parallelism; the
//! env equivalent is `QSYS_LANE_THREADS`).

use qsys_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let scale = match flag_value(&args, "--scale").as_deref() {
        Some("paper") => Scale::Paper,
        _ => Scale::Small,
    };
    let n_seeds: usize = flag_value(&args, "--seeds")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    // The paper used 4 synthetic instances; seeds play that role.
    let seeds: Vec<u64> = (0..n_seeds as u64).map(|i| 41 + i * 7).collect();
    // `--lane-threads N`: cap on concurrently executing ATC-CL lanes for
    // every experiment and the bench's parallel arm (the flag equivalent
    // of `QSYS_LANE_THREADS`).
    let lane_threads: Option<usize> = flag_value(&args, "--lane-threads").map(|s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("--lane-threads wants a positive integer");
            std::process::exit(2);
        })
    });
    if let Some(n) = lane_threads {
        set_lane_threads(n);
    }

    println!("# scale: {scale:?} | instance seeds: {seeds:?} | virtual-clock results\n");
    let t0 = std::time::Instant::now();
    match what {
        "bench" => {
            let iters: usize = flag_value(&args, "--iters")
                .and_then(|s| s.parse().ok())
                .unwrap_or(20);
            // Validate the baseline fully before the (minutes-long)
            // measurement. Without `--baseline-section`, the file must be a
            // bare snapshot object, as written by a `bench --out` run
            // without `--baseline` — a combined before/after file would
            // silently be compared against its embedded (oldest) snapshot.
            // With `--baseline-section after` (the BENCH_N.json chaining
            // case), that named sub-object is validated and used instead.
            let section = flag_value(&args, "--baseline-section");
            if section.is_some() && flag_value(&args, "--baseline").is_none() {
                eprintln!("--baseline-section requires --baseline");
                std::process::exit(2);
            }
            let baseline = flag_value(&args, "--baseline").map(|path| {
                let text = match std::fs::read_to_string(&path) {
                    Ok(s) => s.trim().to_string(),
                    Err(e) => {
                        eprintln!("cannot read baseline {path}: {e}");
                        std::process::exit(2);
                    }
                };
                let snapshot_text = match &section {
                    Some(key) => match extract_json_object(&text, key) {
                        Some(obj) => obj,
                        None => {
                            eprintln!("baseline {path} has no \"{key}\" object");
                            std::process::exit(2);
                        }
                    },
                    None => {
                        if text.contains("\"before\"") {
                            eprintln!(
                                "baseline {path} is a combined before/after file; pass a bare \
                                 snapshot, or select a section with --baseline-section"
                            );
                            std::process::exit(2);
                        }
                        text
                    }
                };
                match BaselineRef::parse(&snapshot_text) {
                    Some(b) => (snapshot_text, b),
                    None => {
                        eprintln!(
                            "baseline {path} is missing required fields (opt_graft_us, \
                             optimize_us, spec shape, batch_cqs, tuples_consumed)"
                        );
                        std::process::exit(2);
                    }
                }
            });
            let snapshot = perf_snapshot(iters, lane_threads);
            let after = snapshot.to_json();
            println!("after: {after}");
            if !snapshot.atc_cl_identical {
                eprintln!(
                    "CHECK FAILED: threaded ATC-CL lanes diverged from the sequential run \
                     (results must be bit-identical at any lane_threads)"
                );
                std::process::exit(1);
            }
            if !snapshot.warm_identical {
                eprintln!(
                    "CHECK FAILED: warm-started optimizer diverged from a cold optimizer \
                     (the warm store is a cache — decisions must be bit-identical)"
                );
                std::process::exit(1);
            }
            if !snapshot.session_api_identical {
                eprintln!(
                    "CHECK FAILED: incremental Engine/Session admission diverged from the \
                     scripted run_workload driver (admission timing must be a scheduling \
                     freedom, never a semantic one)"
                );
                std::process::exit(1);
            }
            let mut decisions_ok = true;
            let json = match &baseline {
                Some((before, b)) => {
                    decisions_ok = b.decisions_match(&snapshot);
                    if !decisions_ok {
                        eprintln!(
                            "WARNING: sharing decisions differ from the baseline \
                             (spec shape / batch / tuples changed — not a pure perf delta)"
                        );
                    }
                    let reduction =
                        100.0 * (1.0 - snapshot.opt_graft_us() / b.opt_graft_us.max(1e-9));
                    let opt_reduction =
                        100.0 * (1.0 - snapshot.optimize_us / b.optimize_us.max(1e-9));
                    format!(
                        "{{\n  \"bench\": \"optimizer+graft hot path (GUS seed 41, batch of 5 UQs) and end-to-end ATC-FULL workload\",\n  \"machine_note\": \"before/after measured back-to-back on the same machine and build flags\",\n  \"iters\": {iters},\n  \"before\": {before},\n  \"after\": {after},\n  \"optimize_reduction_pct\": {opt_reduction:.1},\n  \"opt_graft_reduction_pct\": {reduction:.1}\n}}\n"
                    )
                }
                // No baseline: emit the bare snapshot, usable as the
                // baseline of a future run.
                None => format!("{after}\n"),
            };
            if let Some(path) = flag_value(&args, "--out") {
                std::fs::write(&path, &json).expect("write bench output");
                eprintln!("wrote {path}");
            } else {
                println!("{json}");
            }
            // `--check`: regression gate. Sharing decisions must be
            // identical to the baseline — that part is deterministic and
            // always enforced. Wall time is gated only when the caller
            // opts in with `--max-regression-pct` (absolute µs are only
            // comparable against a baseline measured on the same machine,
            // so CI — whose baseline file comes from a dev machine —
            // checks decisions only).
            if args.iter().any(|a| a == "--check") {
                let Some((_, b)) = &baseline else {
                    eprintln!("--check requires --baseline");
                    std::process::exit(2);
                };
                let regression = 100.0 * (snapshot.opt_graft_us() / b.opt_graft_us.max(1e-9) - 1.0);
                if !decisions_ok {
                    eprintln!("CHECK FAILED: sharing decisions changed vs baseline");
                    std::process::exit(1);
                }
                match flag_value(&args, "--max-regression-pct").map(|s| s.parse::<f64>()) {
                    Some(Ok(max_regression)) => {
                        if regression > max_regression {
                            eprintln!(
                                "CHECK FAILED: opt+graft regressed {regression:.1}% vs baseline \
                                 (allowed {max_regression:.1}%)"
                            );
                            std::process::exit(1);
                        }
                        eprintln!(
                            "check ok: decisions identical, opt+graft delta {regression:+.1}% \
                             (allowed +{max_regression:.1}%)"
                        );
                    }
                    Some(Err(_)) => {
                        eprintln!("--max-regression-pct wants a number");
                        std::process::exit(2);
                    }
                    None => eprintln!(
                        "check ok: decisions identical (wall time not gated; \
                         opt+graft delta {regression:+.1}%)"
                    ),
                }
            }
        }
        "chaos" => {
            // Resilience sweep: fault-free baseline, 1% / 5% transient
            // error rates, and a hard outage of one relation — with the
            // "no tuple loss on unfaulted relations" gate. `--out FILE`
            // writes the BENCH_5.json trajectory point.
            let sweep = chaos_sweep(seeds[0], scale);
            print_chaos(&sweep);
            let json = chaos_json(&sweep);
            if let Some(path) = flag_value(&args, "--out") {
                std::fs::write(&path, &json).expect("write chaos output");
                eprintln!("wrote {path}");
            }
            if sweep.arms.iter().any(|a| a.gate_violations > 0) {
                eprintln!(
                    "CHECK FAILED: tuple loss on unfaulted relations (degradation must be \
                     strictly per-query: Complete answers bit-identical to the fault-free \
                     run, non-readers of the outaged relation untouched)"
                );
                std::process::exit(1);
            }
            eprintln!("gate ok: no tuple loss on unfaulted relations");
        }
        "shard" => {
            // Lane-sharding sweep: the unsharded ATC-CL reference run
            // against shard caps 2 / 4 / 8 at a one-UQ-equivalent
            // threshold, gated on per-UQ answer-multiset identity.
            // `--out FILE` writes the BENCH_7.json trajectory point;
            // `--check` additionally requires the balance improvement.
            let sweep = shard_sweep();
            print_shard(&sweep);
            let json = shard_json(&sweep);
            if let Some(path) = flag_value(&args, "--out") {
                std::fs::write(&path, &json).expect("write shard output");
                eprintln!("wrote {path}");
            }
            if sweep.arms.iter().any(|a| a.gate_violations > 0) {
                eprintln!(
                    "CHECK FAILED: sharding changed answers (the split is a physical \
                     routing decision; per-UQ result multisets must be identical to \
                     the unsharded run at every shard cap)"
                );
                std::process::exit(1);
            }
            if args.iter().any(|a| a == "--check") && sweep.bound_sharded < sweep.bound_unsharded {
                eprintln!(
                    "CHECK FAILED: sharding worsened the speedup bound ({:.2}x -> {:.2}x); \
                     splitting oversized clusters must not concentrate work further",
                    sweep.bound_unsharded, sweep.bound_sharded
                );
                std::process::exit(1);
            }
            eprintln!(
                "gate ok: answer multisets identical at every shard cap \
                 (speedup bound {:.2}x -> {:.2}x)",
                sweep.bound_unsharded, sweep.bound_sharded
            );
        }
        "adaptive" => {
            // Adaptive re-optimization sweep: static plans vs mid-flight
            // re-planning at drift thresholds 1.25 / 1.5 / 2.0 on a
            // drift-heavy workload (catalog priors skewed well below the
            // true cardinalities), gated on per-UQ answer-multiset
            // identity with the static run. `--out FILE` writes the
            // BENCH_8.json trajectory point; `--check` additionally
            // requires at least one mid-batch replan and a mean-response
            // improvement. Runs the fixed drift-regime instance
            // (`ADAPTIVE_SEED`) rather than `--seeds`: the sweep needs an
            // instance where the skewed priors genuinely mislead the
            // plan search, and most small instances are insensitive.
            let sweep = adaptive_sweep(ADAPTIVE_SEED);
            print_adaptive(&sweep);
            let json = adaptive_json(&sweep);
            if let Some(path) = flag_value(&args, "--out") {
                std::fs::write(&path, &json).expect("write adaptive output");
                eprintln!("wrote {path}");
            }
            if sweep.arms.iter().any(|a| a.gate_violations > 0) {
                eprintln!(
                    "CHECK FAILED: adaptive re-planning changed answers (a replan is a \
                     physical decision; per-UQ result multisets must be identical to \
                     the static run at every drift threshold)"
                );
                std::process::exit(1);
            }
            if args.iter().any(|a| a == "--check") {
                if sweep.total_replans() == 0 {
                    eprintln!(
                        "CHECK FAILED: no adaptive arm performed a mid-batch replan \
                         on the drift-heavy workload (the feedback loop never fired)"
                    );
                    std::process::exit(1);
                }
                if sweep.mean_best_us() >= sweep.mean_static_us() {
                    eprintln!(
                        "CHECK FAILED: adaptive re-planning did not improve mean response \
                         ({:.1}us static vs {:.1}us best adaptive)",
                        sweep.mean_static_us(),
                        sweep.mean_best_us()
                    );
                    std::process::exit(1);
                }
            }
            eprintln!(
                "gate ok: answer multisets identical at every drift threshold \
                 (mean response {:.1}us static -> {:.1}us best adaptive, {} replans)",
                sweep.mean_static_us(),
                sweep.mean_best_us(),
                sweep.total_replans()
            );
        }
        "restart" => {
            // `--phase prime --dir D` / `--phase reload --dir D` split a
            // restart across two *processes* (the CI smoke): prime runs
            // with persistence rooted at D and exits; reload starts from
            // nothing but D's snapshot file and self-gates.
            let phase = flag_value(&args, "--phase");
            let reload = match phase.as_deref() {
                Some("prime") => false,
                Some("reload") => true,
                _ => {
                    eprintln!("restart wants --phase prime|reload --dir DIR");
                    std::process::exit(2);
                }
            };
            let Some(dir) = flag_value(&args, "--dir") else {
                eprintln!("--phase requires --dir DIR (shared across both phases)");
                std::process::exit(2);
            };
            let dir = std::path::PathBuf::from(dir);
            std::fs::create_dir_all(&dir).expect("create snapshot dir");
            let p = restart_phase(seeds[0], scale, &dir, reload);
            println!(
                "phase {}: snapshot_writes={} bytes_on_disk={} loaded={} \
                 lanes_loaded={} first_batch_warm_fact_hits={} (cold run: {})",
                if reload { "reload" } else { "prime" },
                p.writes,
                p.bytes_on_disk,
                p.loaded,
                p.lanes_loaded,
                p.first_batch_warm_fact_hits,
                p.cold_first_batch_warm_fact_hits
            );
            if !reload {
                if p.writes == 0 || p.bytes_on_disk == 0 {
                    eprintln!("CHECK FAILED: priming run published no snapshot");
                    std::process::exit(1);
                }
                eprintln!("prime ok: snapshot published for the reload phase");
            } else {
                if !p.loaded {
                    eprintln!(
                        "CHECK FAILED: restarted process did not rehydrate from the \
                         snapshot ({})",
                        p.reason.as_deref().unwrap_or("no reason recorded")
                    );
                    std::process::exit(1);
                }
                if p.first_batch_warm_fact_hits <= p.cold_first_batch_warm_fact_hits {
                    eprintln!(
                        "CHECK FAILED: first post-restart batch read no more from the \
                         warm store than a cold start does"
                    );
                    std::process::exit(1);
                }
                if !p.identical {
                    eprintln!(
                        "CHECK FAILED: restarted run diverged from a cold run \
                         (rehydrated warm state must be decision-invisible)"
                    );
                    std::process::exit(1);
                }
                eprintln!(
                    "reload ok: rehydrated warm, first batch searched from the warm \
                     store, decisions identical to cold"
                );
            }
        }
        "verify" => {
            // Invariant audit: every arm runs clean through the
            // whole-system verifier, live and after a snapshot round
            // trip. `--dir D` roots the snapshot scratch space (default:
            // a per-process directory under the system temp dir).
            let dir = flag_value(&args, "--dir")
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|| {
                    std::env::temp_dir().join(format!("qsys-verify-{}", std::process::id()))
                });
            std::fs::create_dir_all(&dir).expect("create verify scratch dir");
            let audit = verify_audit(&seeds, scale, &dir);
            print_verify(&audit);
            if !audit.is_clean() {
                eprintln!(
                    "CHECK FAILED: {} invariant violation(s) — every arm must verify \
                     clean, live and from its reloaded snapshot",
                    audit.total_violations()
                );
                std::process::exit(1);
            }
            eprintln!(
                "gate ok: {} arms verified clean (live engine state and reloaded snapshots)",
                audit.arms.len()
            );
        }
        "table4" => print_table4(&table4(&seeds, scale)),
        "fig7" => print_fig7(&fig7_runs(&seeds, scale, None)),
        "fig8" => print_fig8(&fig7_runs(&seeds, scale, None)),
        "fig9" => {
            let (s, b) = fig9(&seeds, scale);
            print_fig9(&s, &b);
        }
        "fig10" => print_fig10(&fig10(&seeds, scale)),
        "fig11" => print_fig11(&fig11(seeds[0], scale)),
        "fig12" => print_fig12(&fig12(&seeds, scale)),
        "ablation-atc" => {
            println!("Ablation: ATC scheduling policy (mean response, virtual s)");
            for (label, mean) in ablation_atc(seeds[0], scale) {
                println!("{label:>16}: {mean:.3}");
            }
        }
        "ablation-recovery" => {
            let (warm, cold) = ablation_recovery(seeds[0], scale);
            println!("Ablation: RecoverState vs re-execution (stream reads for a repeated query)");
            println!("  warm (recovered): {warm}");
            println!("  cold (fresh)    : {cold}");
        }
        "ablation-eviction" => {
            println!("Ablation: memory budget / eviction pressure (stream reads, 10 UQs)");
            for (label, reads) in ablation_eviction(seeds[0], scale) {
                println!("{label:>12}: {reads}");
            }
        }
        "ablation-probe-cache" => {
            println!("Ablation: probe-cache sharing (ATC-FULL, 10 UQs)");
            for (label, probes, mean) in ablation_probe_cache(seeds[0], scale) {
                println!("{label:>8}: {probes} remote probes, mean response {mean:.3}s");
            }
        }
        "fetch-batch" | "sweep-fetch-batch" => {
            // `--batches 1,8,32` selects the fetch_batch values; `--limit N`
            // truncates the workload (default: the full 15-UQ script).
            let batches: Vec<usize> = flag_value(&args, "--batches")
                .map(|s| {
                    s.split(',')
                        .map(|v| {
                            v.trim().parse().unwrap_or_else(|_| {
                                eprintln!("--batches wants comma-separated positive integers");
                                std::process::exit(2);
                            })
                        })
                        .collect()
                })
                .unwrap_or_else(|| vec![1, 4, 8, 16, 32]);
            let limit: Option<usize> = flag_value(&args, "--limit").map(|s| {
                s.parse().unwrap_or_else(|_| {
                    eprintln!("--limit wants a positive integer");
                    std::process::exit(2);
                })
            });
            print_fetch_batch_sweep(&sweep_fetch_batch(seeds[0], scale, &batches, limit));
        }
        "all" => {
            print_table4(&table4(&seeds, scale));
            println!();
            let runs = fig7_runs(&seeds, scale, None);
            print_fig7(&runs);
            println!();
            print_fig8(&runs);
            println!();
            let (s, b) = fig9(&seeds, scale);
            print_fig9(&s, &b);
            println!();
            print_fig10(&fig10(&seeds, scale));
            println!();
            print_fig11(&fig11(seeds[0], scale));
            println!();
            print_fig12(&fig12(&seeds, scale));
            println!();
            println!("Ablation: ATC scheduling policy (mean response, virtual s)");
            for (label, mean) in ablation_atc(seeds[0], scale) {
                println!("{label:>16}: {mean:.3}");
            }
            println!();
            let (warm, cold) = ablation_recovery(seeds[0], scale);
            println!(
                "Ablation: RecoverState — repeated query stream reads: warm {warm} vs cold {cold}"
            );
            println!();
            println!("Ablation: memory budget (stream reads, 10 UQs)");
            for (label, reads) in ablation_eviction(seeds[0], scale) {
                println!("{label:>12}: {reads}");
            }
            println!();
            println!("Ablation: probe-cache sharing (ATC-FULL, 10 UQs)");
            for (label, probes, mean) in ablation_probe_cache(seeds[0], scale) {
                println!("{label:>8}: {probes} remote probes, mean response {mean:.3}s");
            }
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!("choose: all bench chaos shard adaptive restart verify fetch-batch table4 fig7 fig8 fig9 fig10 fig11 fig12 ablation-atc ablation-recovery ablation-eviction ablation-probe-cache");
            std::process::exit(2);
        }
    }
    eprintln!("\n[done in {:.1}s wall time]", t0.elapsed().as_secs_f64());
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The baseline fields the bench validates before measuring and gates on
/// after: the hot-path numbers plus every sharing-decision invariant.
struct BaselineRef {
    opt_graft_us: f64,
    optimize_us: f64,
    spec_nodes: f64,
    spec_edges: f64,
    spec_stream_leaves: f64,
    batch_cqs: f64,
    tuples_consumed: f64,
}

impl BaselineRef {
    fn parse(json: &str) -> Option<BaselineRef> {
        Some(BaselineRef {
            opt_graft_us: extract_json_number(json, "opt_graft_us")?,
            optimize_us: extract_json_number(json, "optimize_us")?,
            spec_nodes: extract_json_number(json, "spec_nodes")?,
            spec_edges: extract_json_number(json, "spec_edges")?,
            spec_stream_leaves: extract_json_number(json, "spec_stream_leaves")?,
            batch_cqs: extract_json_number(json, "batch_cqs")?,
            tuples_consumed: extract_json_number(json, "tuples_consumed")?,
        })
    }

    /// Whether the measured run made the same sharing decisions (plan
    /// shape, batch size, total work) the baseline recorded.
    fn decisions_match(&self, s: &qsys_bench::PerfSnapshot) -> bool {
        self.spec_nodes as usize == s.spec_nodes
            && self.spec_edges as usize == s.spec_edges
            && self.spec_stream_leaves as usize == s.spec_stream_leaves
            && self.batch_cqs as usize == s.batch_cqs
            && self.tuples_consumed as u64 == s.tuples_consumed
    }
}

/// Pull `"key": <number>` out of a flat JSON object (no JSON dependency in
/// this build environment).
fn extract_json_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let start = json.find(&pat)? + pat.len();
    let rest = json[start..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pull the balanced-brace object at `"key": {…}` out of a JSON document
/// (enough JSON to chain `BENCH_N.json` files without a parser crate).
fn extract_json_object(json: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let start = json.find(&pat)? + pat.len();
    let rest = json[start..].trim_start().strip_prefix(':')?.trim_start();
    if !rest.starts_with('{') {
        return None;
    }
    let mut depth = 0usize;
    for (i, c) in rest.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(rest[..=i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}
