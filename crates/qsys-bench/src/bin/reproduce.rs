//! Regenerate every table and figure of the paper's evaluation, plus this
//! reproduction's own ablations, sweeps and audits. Everything printed is a
//! virtual-clock or count quantity unless a column says "wall"; host-clock
//! measurement lives in `perf/run.sh`, not here.
//!
//! ```sh
//! cargo run --release -p qsys-bench --bin reproduce -- all
//! cargo run --release -p qsys-bench --bin reproduce -- fig7 --seeds 4
//! cargo run --release -p qsys-bench --bin reproduce -- table4 --scale paper
//! ```
//!
//! Experiments: `table4 fig7 fig8 fig9 fig10 fig11 fig12`
//! Ablations:   `ablation-atc ablation-recovery ablation-eviction
//! ablation-probe-cache`
//! Sweeps (print-only, each exits 1 if its answer gate fails):
//! - `chaos` — fault-rate sweep (0 / 1% / 5% transient, plus one hard
//!   outage): degraded and failed ticket counts, retries, breaker trips,
//!   p50/p99 response, gated on "no tuple loss on unfaulted relations".
//! - `shard` — oversized-cluster sharding (unsharded vs shard caps 2 / 4 /
//!   8): per-lane walls and Σ/max balance (printed, not gated), gated on
//!   per-UQ answer identity with the unsharded run.
//! - `adaptive [--check]` — mid-flight re-optimization (static vs drift
//!   thresholds 1.25 / 1.5 / 2.0 on a drift-heavy catalog): mean response,
//!   drift checks, replans, corrected cardinalities, gated on per-UQ answer
//!   identity with the static run (`--check` also requires ≥1 replan and a
//!   virtual-clock improvement).
//! - `fetch-batch [--batches 1,8,32] [--limit N]` — response-time shift from
//!   stream fetch-ahead on the figure workload.
//!
//! Verify:      `verify [--dir D]` — invariant audit: run the standard GUS
//! seeds through the default ATC-CL arm at 1 and 4 lane threads plus one
//! sharded, one chaos, and one adaptive arm, run the `qsys-verify` checker
//! over every live engine, and round-trip each engine's snapshot through
//! disk and re-verify the decoded image. Exits 1 on any violation.
//! Restart:     `restart --phase prime --dir D` then `restart --phase reload
//! --dir D` — a restart across two OS processes (the CI smoke): the reload
//! must rehydrate from the snapshot the prime published, feed its first
//! batch's search from the rehydrated warm store (more cache hits than a
//! cold start's first batch), and stay decision-identical to a
//! persistence-off run.
//!
//! Every subcommand accepts `--seeds N` (instance seeds 41, 48, …; default
//! 2) and `--lane-threads N` to cap how many ATC-CL lanes execute
//! concurrently (default: the machine's parallelism; the env equivalent is
//! `QSYS_LANE_THREADS`). An unknown subcommand or a malformed count exits 2.

use qsys_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let scale = match flag_value(&args, "--scale").as_deref() {
        Some("paper") => Scale::Paper,
        _ => Scale::Small,
    };
    let count = |flag: &str| positive_flag(&args, flag).unwrap_or_else(|msg| usage_error(&msg));
    // The paper used 4 synthetic instances; seeds play that role.
    let seeds: Vec<u64> = (0..count("--seeds").unwrap_or(2) as u64)
        .map(|i| 41 + i * 7)
        .collect();
    // `--lane-threads N`: cap on concurrently executing ATC-CL lanes for
    // every experiment (the flag equivalent of `QSYS_LANE_THREADS`).
    if let Some(n) = count("--lane-threads") {
        set_lane_threads(n);
    }

    println!("# scale: {scale:?} | instance seeds: {seeds:?} | virtual-clock results\n");
    let t0 = std::time::Instant::now();
    match what {
        "chaos" => {
            // Resilience sweep: fault-free baseline, 1% / 5% transient
            // error rates, and a hard outage of one relation.
            let sweep = chaos_sweep(seeds[0], scale);
            print_chaos(&sweep);
            require_gate(
                &sweep.arms,
                "tuple loss on unfaulted relations (degradation must be strictly per-query: \
                 Complete answers bit-identical to the fault-free run, non-readers of the \
                 outaged relation untouched)",
            );
            eprintln!("gate ok: no tuple loss on unfaulted relations");
        }
        "shard" => {
            // Lane-sharding sweep: the unsharded ATC-CL reference run
            // against shard caps 2 / 4 / 8 at a one-UQ-equivalent
            // threshold. The speedup bound is a Σ/max ratio of one run's
            // host walls: printed, never gated.
            let sweep = shard_sweep();
            print_shard(&sweep);
            require_gate(
                &sweep.arms,
                "sharding changed answers (the split is a physical routing decision; per-UQ \
                 result multisets must be identical to the unsharded run at every shard cap)",
            );
            eprintln!(
                "gate ok: answer multisets identical at every shard cap \
                 (speedup bound {:.2}x -> {:.2}x)",
                sweep.bound_unsharded(),
                sweep.bound_sharded()
            );
        }
        "adaptive" => {
            // Adaptive re-optimization sweep: static plans vs mid-flight
            // re-planning at drift thresholds 1.25 / 1.5 / 2.0 on a
            // drift-heavy workload (catalog priors skewed well below the
            // true cardinalities). `--check` additionally requires at
            // least one mid-batch replan and a mean-response improvement.
            // Runs the fixed drift-regime instance (`ADAPTIVE_SEED`)
            // rather than `--seeds`: the sweep needs an instance where the
            // skewed priors genuinely mislead the plan search, and most
            // small instances are insensitive.
            let sweep = adaptive_sweep(ADAPTIVE_SEED);
            print_adaptive(&sweep);
            require_gate(
                &sweep.arms,
                "adaptive re-planning changed answers (a replan is a physical decision; per-UQ \
                 result multisets must be identical to the static run at every drift threshold)",
            );
            if args.iter().any(|a| a == "--check") {
                if sweep.total_replans() == 0 {
                    check_failed(
                        "no adaptive arm performed a mid-batch replan on the drift-heavy \
                         workload (the feedback loop never fired)",
                    );
                }
                if sweep.mean_best_us() >= sweep.mean_static_us() {
                    check_failed(&format!(
                        "adaptive re-planning did not improve mean response \
                         ({:.1}us static vs {:.1}us best adaptive)",
                        sweep.mean_static_us(),
                        sweep.mean_best_us()
                    ));
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
                _ => usage_error("restart wants --phase prime|reload --dir DIR"),
            };
            let Some(dir) = flag_value(&args, "--dir") else {
                usage_error("--phase requires --dir DIR (shared across both phases)");
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
                    check_failed("priming run published no snapshot");
                }
                eprintln!("prime ok: snapshot published for the reload phase");
            } else {
                if !p.loaded {
                    check_failed(&format!(
                        "restarted process did not rehydrate from the snapshot ({})",
                        p.reason.as_deref().unwrap_or("no reason recorded")
                    ));
                }
                if p.first_batch_warm_fact_hits <= p.cold_first_batch_warm_fact_hits {
                    check_failed(
                        "first post-restart batch read no more from the warm store than a \
                         cold start does",
                    );
                }
                if !p.identical {
                    check_failed(
                        "restarted run diverged from a cold run (rehydrated warm state must \
                         be decision-invisible)",
                    );
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
                check_failed(&format!(
                    "{} invariant violation(s) — every arm must verify clean, live and from \
                     its reloaded snapshot",
                    audit.total_violations()
                ));
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
                                usage_error("--batches wants comma-separated positive integers")
                            })
                        })
                        .collect()
                })
                .unwrap_or_else(|| vec![1, 4, 8, 16, 32]);
            let limit = count("--limit");
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
            usage_error("choose: all chaos shard adaptive restart verify fetch-batch table4 fig7 fig8 fig9 fig10 fig11 fig12 ablation-atc ablation-recovery ablation-eviction ablation-probe-cache");
        }
    }
    eprintln!("\n[done in {:.1}s wall time]", t0.elapsed().as_secs_f64());
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// `flag`'s value as a positive integer (`None` when the flag is absent);
/// zero, a non-number or a missing value is the caller's usage error.
fn positive_flag(args: &[String], flag: &str) -> Result<Option<usize>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(at + 1).map(|v| v.parse()) {
        Some(Ok(n)) if n > 0 => Ok(Some(n)),
        _ => Err(format!("{flag} wants a positive integer")),
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn check_failed(why: &str) -> ! {
    eprintln!("CHECK FAILED: {why}");
    std::process::exit(1);
}

/// Exit 1 with `why` if any arm of a sweep failed its answer gate.
fn require_gate(arms: &[SweepArm], why: &str) {
    if arms.iter().any(|a| a.gate_violations > 0) {
        check_failed(why);
    }
}

#[cfg(test)]
mod tests {
    use super::positive_flag;

    #[test]
    fn counts_parse_or_explain() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert_eq!(positive_flag(&args("fig11"), "--seeds"), Ok(None));
        assert_eq!(
            positive_flag(&args("fig11 --seeds 3"), "--seeds"),
            Ok(Some(3))
        );
        for bad in [
            "fig11 --seeds 0",
            "fig11 --seeds x",
            "fig11 --seeds -1",
            "fig11 --seeds",
        ] {
            let err = positive_flag(&args(bad), "--seeds").expect_err(bad);
            assert_eq!(err, "--seeds wants a positive integer");
        }
    }
}
