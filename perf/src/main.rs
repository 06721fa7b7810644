//! `perf`: the repo's benchmark. See `perf/README.md`.
//!
//! ```text
//! perf --workload W --seed S --seconds N --trace 0|1 [--out FILE] [--spans FILE]
//! perf [--seed S] [--reps N] [--seconds N] [--out FILE]     every workload, a child process each
//! perf golden --write | --check
//! perf compare A.json B.json
//! ```

mod compare;
mod digest;
mod drive;
mod json;
mod metrics;
mod run;
mod shadow;
mod stats;
mod suite;
mod trace;

use digest::Golden;
use json::Json;
use run::RunArgs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use suite::Scenario;

const USAGE: &str = "usage:
  perf --workload gus-full|gus-recur|gus-evict|gus-cl-par [--seed S] [--seconds N] [--trace 0|1] [--out FILE] [--spans FILE]
  perf [--seed S] [--reps N] [--seconds N] [--out FILE]
  perf golden --write|--check [--path perf/golden/suite.txt]
  perf compare A.json B.json";

/// Default `--seed` and `--seconds` (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SEED: u64 = 41;
const DEFAULT_SECONDS: u64 = 10;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("golden") => golden(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => measure(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(what) => {
            eprintln!("perf: {what}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs, each flag at most once.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !known.contains(&flag.as_str()) {
                return Err(format!("unknown argument `{flag}`\n{USAGE}"));
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            if pairs.iter().any(|(f, _)| f == flag) {
                return Err(format!("{flag} given twice"));
            }
            pairs.push((flag.clone(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} wants a whole number, got `{v}`")),
        }
    }
}

fn measure(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(
        args,
        &[
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--reps",
            "--out",
            "--spans",
        ],
    )?;
    let seed = flags.number("--seed", DEFAULT_SEED)?;
    let seconds = flags.number("--seconds", DEFAULT_SECONDS)?;
    let out = flags.get("--out").map(PathBuf::from);
    let Some(workload) = flags.get("--workload") else {
        if flags.get("--trace").is_some() || flags.get("--spans").is_some() {
            return Err("--trace and --spans need --workload".into());
        }
        return all_workloads(seed, flags.number("--reps", 3)?, seconds, out.as_deref());
    };
    if flags.get("--reps").is_some() {
        return Err("--reps runs every workload; it does not go with --workload".into());
    }
    let scenario = Scenario::from_name(workload)
        .ok_or_else(|| format!("unknown workload `{workload}`\n{USAGE}"))?;
    let trace = match flags.number("--trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, got {other}")),
    };
    let run_args = RunArgs {
        scenario,
        seed,
        seconds,
        trace,
        spans: flags.get("--spans").map(PathBuf::from),
    };
    let result = run::run(&run_args)?;
    if let Some(path) = &out {
        let doc = Json::obj([
            ("machine", machine(seed, 1, seconds)),
            ("runs", Json::Arr(vec![result.record(&run_args)])),
        ]);
        write_file(path, &doc.render())?;
    }
    // The contract's result: the last line of standard output.
    println!("{}", result.to_json().render());
    Ok(result.correct)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, format!("{text}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and how a result set was measured.
fn machine(seed: u64, reps: u64, seconds: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let text = |v: Option<String>| v.map_or(Json::Null, Json::Str);
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", text(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            text(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "git_dirty",
            command_line("git", &["status", "--porcelain"])
                .map_or(Json::Null, |s| Json::Bool(!s.is_empty())),
        ),
        ("seed", Json::Num(seed as f64)),
        ("reps", Json::Num(reps as f64)),
        ("seconds", Json::Num(seconds as f64)),
    ])
}

/// Every workload: `reps` end-to-end runs at seeds `seed, seed+1, …` and one
/// traced run at `seed`, each in a child process of its own so that
/// `peak_rss_mb` belongs to one run.
fn all_workloads(seed: u64, reps: u64, seconds: u64, out: Option<&Path>) -> Result<bool, String> {
    suite::refuse_qsys_env()?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let part = out.map(|p| p.with_extension("part"));
    let mut runs = Vec::new();
    let mut all_correct = true;
    for scenario in Scenario::ALL {
        let traced = (seed, true);
        for (run_seed, trace) in (0..reps).map(|i| (seed + i, false)).chain([traced]) {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", scenario.name()])
                .args(["--seed", &run_seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if let Some(part) = &part {
                child.arg("--out").arg(part);
            }
            let status = child
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            all_correct &= status.success();
            if let Some(part) = &part {
                let text = std::fs::read_to_string(part)
                    .map_err(|e| format!("{} {run_seed}: no result ({e})", scenario.name()))?;
                let doc = Json::parse(&text)?;
                runs.extend(
                    doc.get("runs")
                        .and_then(Json::as_arr)
                        .unwrap_or(&[])
                        .to_vec(),
                );
                let _ = std::fs::remove_file(part);
            }
        }
    }
    if let Some(out) = out {
        let doc = Json::obj([
            ("machine", machine(seed, reps, seconds)),
            ("runs", Json::Arr(runs)),
        ]);
        write_file(out, &doc.render())?;
        println!("wrote {}", out.display());
    }
    Ok(all_correct)
}

fn golden(args: &[String]) -> Result<bool, String> {
    let (mode, rest) = args.split_first().ok_or(USAGE)?;
    let flags = Flags::parse(rest, &["--path"])?;
    suite::refuse_qsys_env()?;
    let fresh = run::reference_answers();
    match mode.as_str() {
        "--write" => {
            let path = PathBuf::from(flags.get("--path").unwrap_or("perf/golden/suite.txt"));
            write_file(&path, fresh.render().trim_end())?;
            println!("wrote {} answers to {}", fresh.len(), path.display());
            Ok(true)
        }
        "--check" => {
            let same = fresh == Golden::committed()?;
            println!(
                "{} answers from the ATC-CQ arm {} the committed goldens",
                fresh.len(),
                if same { "match" } else { "DIFFER from" }
            );
            Ok(same)
        }
        _ => Err(USAGE.into()),
    }
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(USAGE.into());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| compare::parse_result_set(&text).map_err(|e| format!("{path}: {e}")))
    };
    let comparison = compare::compare(&load(a)?, &load(b)?);
    print!("{}", comparison.text);
    Ok(comparison.clean())
}
