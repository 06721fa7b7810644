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
//! Sweep (print-only): `chaos` — fault-rate sweep (0 / 1% / 5% transient,
//! plus one hard outage): degraded and failed ticket counts, retries,
//! breaker trips, p50/p99 response, gated on "no tuple loss on unfaulted
//! relations" (exits 1 if the gate fails).
//!
//! Verify:      `verify` — invariant audit: run the standard GUS seeds
//! through a multi-lane ATC-CL arm at 1 and 4 lane threads plus one chaos
//! arm, and run the `qsys-verify` checker over every live engine. Exits 1
//! on any violation.
//!
//! `all` prints every experiment of `qsys_bench::EXPERIMENTS` but `chaos`
//! and `verify`, in table order, from one run matrix: a run two
//! experiments read is built once.
//!
//! Every subcommand accepts `--seeds N` (instance seeds 41, 48, …; default
//! 2) and `--lane-threads N` to cap how many ATC-CL lanes execute
//! concurrently (default: the machine's parallelism,
//! `EngineConfig::default().lane_threads`). An unknown subcommand or a
//! malformed count exits 2. Nothing is read from the environment: each
//! engine is configured by these flags and its experiment's `EngineConfig`.

use qsys_bench::{set_lane_threads, Matrix, Scale, EXPERIMENTS};

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
    // every experiment (`EngineConfig::lane_threads`).
    if let Some(n) = count("--lane-threads") {
        set_lane_threads(n);
    }

    println!("# scale: {scale:?} | instance seeds: {seeds:?} | virtual-clock results\n");
    let t0 = std::time::Instant::now();
    let chosen: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|e| e.name == what || (what == "all" && e.in_all))
        .collect();
    if chosen.is_empty() {
        eprintln!("unknown experiment '{what}'");
        let names: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
        usage_error(&format!("choose: all {}", names.join(" ")));
    }
    let matrix = Matrix::new(seeds, scale);
    for (i, experiment) in chosen.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        if let Err(why) = (experiment.print)(&matrix) {
            eprintln!("CHECK FAILED: {why}");
            std::process::exit(1);
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
