//! `qsys-lint`: the repo's self-contained source lint.
//!
//! The container this repo builds in is offline, so compiler-plugin
//! linting (dylint, custom clippy lints) is not an option; this binary is
//! a text/token scan over the workspace's Rust sources enforcing rules
//! that `clippy -D warnings` cannot express because they are *repo
//! policy*, not general Rust hygiene:
//!
//! 1. `env-read` — no `std::env::var*` in non-test code of `src/` or any
//!    crate, `src/engine.rs` included. The engine is configured by the
//!    `EngineConfig` value its caller builds and `validate_all` checks;
//!    a knob read from the environment is one where a typo'd value
//!    silently disables a feature.
//! 2. `send-cell` — no `Rc`/`Arc`-free `Rc` or `RefCell` introduced into
//!    modules that carry a compile-time `assert_send` marker: those
//!    modules promise their types migrate across lane worker threads.
//!    (`RefCell` is `Send`, so the compile-time assert alone would not
//!    catch a new one; the policy is that Send-asserted modules stay
//!    free of interior mutability entirely.)
//! 3. `panic-path` — no `.unwrap()` / `.expect(` in non-test code of the
//!    engine/lane drive paths (the root crate and the exec and state
//!    crates). Failures there must be structured errors or
//!    carry a `lint:allow(panic-path)` justification on the same line
//!    explaining why the panic is unreachable or wanted.
//! 4. `seqcst` — no `Ordering::SeqCst` without an ordering comment on
//!    the same or the preceding line; sequential consistency is almost
//!    never what the lane model needs and always worth a sentence.
//! 5. `bench-clock` — no wall-clock/entropy nondeterminism
//!    (`SystemTime::now`, `thread_rng`, `from_entropy`) in bench code;
//!    the repro numbers must come from the virtual clock and seeded RNGs.
//! 6. `hot-hash` — no default-hasher (SipHash) `HashMap`/`HashSet` in the
//!    executor's per-tuple modules (`qsys-exec`'s `access`, `mjoin`,
//!    `rank_merge`, `graph`), in the source's per-row ones
//!    (`qsys-source`'s `table` indexes and `pushdown` joins), or in the
//!    per-subexpression signature maps (`qsys-query`'s `intern`,
//!    `qsys-opt`'s `heuristics` pool): maps there are
//!    `qsys_types::FxHashMap` or not maps at all. A map that is only
//!    touched per batch says so with `lint:allow(hot-hash)`.
//! 7. `clock-literal` — no `.charge(…)` in non-test code whose amount is a
//!    bare integer literal. Every simulated-time charge names its constant
//!    (`qsys_types::clock`'s cost constants, or the module constant that
//!    owns the decision), so the cost model is read in one place and the
//!    optimizer can price what the executor charges.
//!
//! Suppression: append `// lint:allow(<rule>): <why>` to the offending
//! line, or put it on its own comment line immediately above (the
//! attribute position). An allow without a rationale is itself a finding.
//!
//! Exit status: 0 clean, 1 findings, 2 usage/IO error.

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding.
struct Finding {
    rule: &'static str,
    file: PathBuf,
    line: usize,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

fn main() {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            // Default to the workspace root: the binary runs from anywhere in
            // the tree via `cargo run -p qsys-verify --bin qsys-lint`.
            workspace_root()
        });
    if !root.join("Cargo.toml").is_file() {
        eprintln!("qsys-lint: {} is not a workspace root", root.display());
        std::process::exit(2);
    }
    let mut files = Vec::new();
    collect_rs_files(&root.join("src"), &mut files);
    collect_rs_files(&root.join("tests"), &mut files);
    collect_rs_files(&root.join("benches"), &mut files);
    let crates = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            // Vendored third-party shims are not ours to lint.
            if matches!(name.as_str(), "proptest" | "rand") {
                continue;
            }
            collect_rs_files(&entry.path(), &mut files);
        }
    }
    files.sort();

    let mut findings = Vec::new();
    for file in &files {
        match std::fs::read_to_string(file) {
            Ok(text) => lint_file(&root, file, &text, &mut findings),
            Err(e) => {
                eprintln!("qsys-lint: cannot read {}: {e}", file.display());
                std::process::exit(2);
            }
        }
    }
    if findings.is_empty() {
        println!("qsys-lint: {} files clean", files.len());
        return;
    }
    for f in &findings {
        println!("{f}");
    }
    println!(
        "qsys-lint: {} finding(s) in {} files",
        findings.len(),
        files.len()
    );
    std::process::exit(1);
}

/// The workspace root, walking up from the current directory to the
/// first `Cargo.toml` declaring `[workspace]`.
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Which rule families apply to a file, from its workspace-relative path.
struct FileScope {
    /// Under `src/` of the root crate or of `qsys-exec`, the engine's drive
    /// path (operators, plan graph, ATC and the state manager).
    engine_path: bool,
    /// Bench code: `benches/`, `crates/qsys-bench`, or `crates/qsys-workload`.
    bench: bool,
    /// Integration-test code: panics are the assertion vocabulary there.
    test_file: bool,
    /// One of the executor's per-tuple, the source's per-row or the
    /// per-subexpression signature modules (rule `hot-hash`).
    hot_path: bool,
    /// This lint's own source (its rule list would flag itself).
    lint_self: bool,
}

fn scope_of(rel: &str) -> FileScope {
    let test_file = rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.ends_with("_tests.rs")
        || rel.ends_with("build.rs");
    let bench = rel.starts_with("benches/")
        || rel.starts_with("crates/qsys-bench/")
        || rel.starts_with("crates/qsys-workload/");
    let engine_path = !test_file
        && !bench
        && (rel.starts_with("src/") || rel.starts_with("crates/qsys-exec/src/"));
    FileScope {
        engine_path,
        bench,
        test_file,
        hot_path: [
            "qsys-exec/src/access",
            "qsys-exec/src/mjoin",
            "qsys-exec/src/rank_merge",
            "qsys-exec/src/graph",
            "qsys-source/src/table",
            "qsys-source/src/pushdown",
            "qsys-query/src/intern",
            "qsys-opt/src/heuristics",
        ]
        .iter()
        .any(|m| rel == format!("crates/{m}.rs")),
        lint_self: rel.ends_with("bin/qsys_lint.rs"),
    }
}

fn lint_file(root: &Path, file: &Path, text: &str, findings: &mut Vec<Finding>) {
    let rel = file
        .strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/");
    let scope = scope_of(&rel);
    if scope.lint_self {
        return;
    }

    // `#[cfg(test)] mod …` extent: the repo convention keeps unit tests
    // in one module at the end of each file, so the scan treats
    // everything from the first test-module declaration onward as test
    // code. (A mid-file test module would under-lint the remainder —
    // acceptable: this lint never *blocks* test idioms, and the
    // convention is itself enforced by review.)
    let mut in_test_mod = false;
    let mut pending_cfg_test = false;
    let mut prev_line_comment = false;
    let mut prev_raw = "";

    let lines: Vec<&str> = text.lines().collect();
    for (idx, &raw) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let line = strip_strings(raw);
        let code = line.split("//").next().unwrap_or("").trim_end();
        let comment = raw.trim_start().starts_with("//") || raw.split("//").nth(1).is_some();

        if raw.contains("#[cfg(test)]") {
            pending_cfg_test = true;
        } else if pending_cfg_test {
            if code.trim_start().starts_with("mod ") || code.contains(" mod ") {
                in_test_mod = true;
            }
            if !code.trim().is_empty() && !code.trim_start().starts_with("#[") {
                pending_cfg_test = false;
            }
        }
        let in_tests = in_test_mod || scope.test_file;

        // An allow applies to its own line, or — when it is a standalone
        // comment — to the line below it (attribute position).
        let allowed = |rule: &str| {
            let tag = format!("lint:allow({rule}):");
            raw.contains(&tag)
                || (prev_raw.trim_start().starts_with("//") && prev_raw.contains(&tag))
        };
        let bare_allow = raw.contains("lint:allow(")
            && !raw.split("lint:allow(").nth(1).is_some_and(|t| {
                t.split_once(')')
                    .is_some_and(|(_, rest)| rest.trim_start().starts_with(':'))
            });
        if bare_allow {
            findings.push(Finding {
                rule: "allow-without-reason",
                file: file.to_path_buf(),
                line: lineno,
                message: "lint:allow needs a rationale: `// lint:allow(rule): why`".into(),
            });
        }

        // Rule 1: configuration is a value, never the environment.
        if !in_tests
            && (code.contains("env::var") || code.contains("env::vars"))
            && !allowed("env-read")
        {
            findings.push(Finding {
                rule: "env-read",
                file: file.to_path_buf(),
                line: lineno,
                message: "environment read — make the knob an EngineConfig field (or a \
                          flag of the binary) so validate_all() checks it"
                    .into(),
            });
        }

        // Rule 2: Send-asserted modules stay free of Rc/RefCell. The
        // marker is the module declaring `assert_send::<...>()`.
        if text.contains("assert_send::<")
            && !in_tests
            && (code.contains("Rc<") || code.contains("Rc::new") || code.contains("RefCell<"))
            && !code.contains("RwLock")
            && !allowed("send-cell")
        {
            findings.push(Finding {
                rule: "send-cell",
                file: file.to_path_buf(),
                line: lineno,
                message: "Rc/RefCell in a Send-asserted module — lanes migrate across worker \
                          threads; use owned state or a lock type"
                    .into(),
            });
        }

        // Rule 3: engine drive paths do not panic ad hoc.
        if scope.engine_path
            && !in_tests
            && (code.contains(".unwrap()") || code.contains(".expect("))
            && !code.contains("unwrap_or")
            && !allowed("panic-path")
        {
            findings.push(Finding {
                rule: "panic-path",
                file: file.to_path_buf(),
                line: lineno,
                message: "unwrap/expect on an engine drive path — return a structured error, \
                          or justify with `lint:allow(panic-path): <why unreachable>`"
                    .into(),
            });
        }

        // Rule 4: SeqCst needs a sentence.
        if code.contains("Ordering::SeqCst") && !comment && !prev_line_comment && !allowed("seqcst")
        {
            findings.push(Finding {
                rule: "seqcst",
                file: file.to_path_buf(),
                line: lineno,
                message: "SeqCst without an ordering comment — say why acquire/release is not \
                          enough (or pick the weaker ordering)"
                    .into(),
            });
        }

        // Rule 5: bench numbers come from the virtual clock.
        if scope.bench
            && !in_tests
            && (code.contains("SystemTime::now")
                || code.contains("thread_rng")
                || code.contains("from_entropy"))
            && !allowed("bench-clock")
        {
            findings.push(Finding {
                rule: "bench-clock",
                file: file.to_path_buf(),
                line: lineno,
                message: "wall-clock/entropy nondeterminism in bench code — use the SimClock \
                          and seeded RNGs so runs reproduce"
                    .into(),
            });
        }

        // Rule 6: the per-tuple modules do not pay SipHash.
        if scope.hot_path && !in_tests && names_std_hash(code) && !allowed("hot-hash") {
            findings.push(Finding {
                rule: "hot-hash",
                file: file.to_path_buf(),
                line: lineno,
                message: "default-hasher HashMap/HashSet in a per-tuple executor module — use \
                          qsys_types::FxHashMap, or justify with `lint:allow(hot-hash): <why \
                          not per tuple>`"
                    .into(),
            });
        }

        // Rule 7: a clock charge names its constant.
        if !in_tests
            && code.contains(".charge(")
            && charge_amounts(&lines[idx..])
                .iter()
                .any(|amount| is_int_literal(amount))
            && !allowed("clock-literal")
        {
            findings.push(Finding {
                rule: "clock-literal",
                file: file.to_path_buf(),
                line: lineno,
                message: "clock charge of a bare literal — name the cost constant it charges \
                          (qsys_types::clock or the owning module's const)"
                    .into(),
            });
        }

        prev_line_comment = raw.trim_start().starts_with("//");
        prev_raw = raw;
    }
}

/// The amount (last argument) of each `.charge(…)` call that opens on the
/// first of `lines`, read across the following lines until its
/// parentheses close. Strings and comments are blanked first.
fn charge_amounts(lines: &[&str]) -> Vec<String> {
    let code_of = |raw: &str| {
        let line = strip_strings(raw);
        line.split("//").next().unwrap_or("").to_string()
    };
    let first = code_of(lines[0]);
    let mut amounts = Vec::new();
    for (at, _) in first.match_indices(".charge(") {
        let mut text = first[at + ".charge(".len()..].to_string();
        let mut rest = lines[1..].iter();
        let mut depth = 1usize;
        let mut args = vec![String::new()];
        'scan: loop {
            for c in text.chars() {
                match c {
                    '(' | '[' | '{' => depth += 1,
                    ')' | ']' | '}' => {
                        depth -= 1;
                        if depth == 0 {
                            break 'scan;
                        }
                    }
                    ',' if depth == 1 => {
                        args.push(String::new());
                        continue;
                    }
                    _ => {}
                }
                if let Some(arg) = args.last_mut() {
                    arg.push(c);
                }
            }
            match rest.next() {
                Some(raw) => text = format!(" {}", code_of(raw)),
                None => break,
            }
        }
        // A trailing comma leaves an empty last argument.
        if let Some(amount) = args.iter().rev().map(|a| a.trim()).find(|a| !a.is_empty()) {
            amounts.push(amount.to_string());
        }
    }
    amounts
}

/// Whether `expr` is one integer literal (`2`, `100_000`, `2u64`, `0x10`):
/// it starts with a digit, which no identifier does, and is one token.
fn is_int_literal(expr: &str) -> bool {
    expr.starts_with(|c: char| c.is_ascii_digit())
        && expr.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Whether `code` names a std `HashMap`/`HashSet` as a type or constructs
/// one (`HashMap<…>`, `HashSet::new()` …). Imports do not count, and
/// neither does `FxHashMap`, whose hasher is the point of the rule.
fn names_std_hash(code: &str) -> bool {
    ["HashMap", "HashSet"].iter().any(|name| {
        code.match_indices(name).any(|(at, _)| {
            let prefixed = code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
            let rest = &code[at + name.len()..];
            !prefixed && (rest.starts_with('<') || rest.starts_with("::"))
        })
    })
}

/// Blank out string literals so tokens inside them do not trip rules
/// (e.g. an error message mentioning `env::var`). Handles `"…"` with
/// escapes well enough for a line scan; raw strings spanning lines are
/// rare in this codebase and land in comments' favour (blanked lines
/// produce no findings, never false ones).
fn strip_strings(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut in_str = false;
    let mut escape = false;
    let mut prev = '\0';
    for c in line.chars() {
        if in_str {
            if escape {
                escape = false;
            } else if c == '\\' {
                escape = true;
            } else if c == '"' {
                in_str = false;
            }
            out.push(if c == '"' { '"' } else { '_' });
        } else {
            if c == '"' && prev != '\'' {
                in_str = true;
            }
            out.push(c);
        }
        prev = c;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(rel: &str, text: &str) -> Vec<(&'static str, usize)> {
        let root = Path::new("/ws");
        let mut findings = Vec::new();
        lint_file(root, &root.join(rel), text, &mut findings);
        findings.iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn env_read_is_flagged_everywhere_outside_tests() {
        let read = "fn knob() -> bool {\n    std::env::var(\"KNOB\").is_ok()\n}\n";
        // The engine config module is not exempt.
        assert_eq!(lint("src/engine.rs", read), [("env-read", 2)]);
        assert_eq!(lint("crates/qsys-exec/src/atc.rs", read), [("env-read", 2)]);
        let read_os = "fn knob() -> bool {\n    std::env::var_os(\"KNOB\").is_some()\n}\n";
        assert_eq!(lint("src/session.rs", read_os), [("env-read", 2)]);
        // Test code may read the environment.
        assert!(lint("tests/chaos.rs", read).is_empty());
        let in_test_mod = format!("#[cfg(test)]\nmod tests {{\n{read}}}\n");
        assert!(lint("src/engine.rs", &in_test_mod).is_empty());
        // A justified allow suppresses it.
        let allowed =
            "// lint:allow(env-read): the binary's own flag\nlet _ = std::env::var(\"X\");\n";
        assert!(lint("crates/qsys-bench/src/lib.rs", allowed).is_empty());
        // The name inside a string literal is not a read.
        assert!(lint("src/engine.rs", "let s = \"std::env::var\";\n").is_empty());
    }

    #[test]
    fn hot_hash_covers_the_per_tuple_and_per_row_modules() {
        let map = "fn index() -> HashMap<Value, u32> {\n    HashMap::new()\n}\n";
        for rel in [
            "crates/qsys-exec/src/mjoin.rs",
            "crates/qsys-source/src/table.rs",
            "crates/qsys-source/src/pushdown.rs",
        ] {
            assert_eq!(lint(rel, map), [("hot-hash", 1), ("hot-hash", 2)], "{rel}");
        }
        // The signature maps are in scope too: the interner's deep map and
        // the optimizer's candidate pool are probed per subexpression.
        let sig_map = "fn pool() -> HashMap<SigId, CqSet> {\n    HashMap::new()\n}\n";
        for rel in [
            "crates/qsys-query/src/intern.rs",
            "crates/qsys-opt/src/heuristics.rs",
        ] {
            assert_eq!(
                lint(rel, sig_map),
                [("hot-hash", 1), ("hot-hash", 2)],
                "{rel}"
            );
        }
        // Elsewhere, under the Fx hasher, in tests, or allowed: no finding.
        assert!(lint("crates/qsys-source/src/registry.rs", map).is_empty());
        let fx = "fn index() -> FxHashMap<Value, u32> {\n    FxHashMap::default()\n}\n";
        assert!(lint("crates/qsys-source/src/table.rs", fx).is_empty());
        let in_test_mod = format!("#[cfg(test)]\nmod tests {{\n{map}}}\n");
        assert!(lint("crates/qsys-source/src/pushdown.rs", &in_test_mod).is_empty());
        let allowed = "// lint:allow(hot-hash): one per open\nlet m: HashMap<u32, u32>;\n";
        assert!(lint("crates/qsys-source/src/pushdown.rs", allowed).is_empty());
    }

    #[test]
    fn clock_literal_flags_bare_amounts_only() {
        let bare = "fn f(c: &SimClock) {\n    c.charge(TimeCategory::Join, 2);\n}\n";
        assert_eq!(
            lint("crates/qsys-exec/src/mjoin.rs", bare),
            [("clock-literal", 2)]
        );
        // Suffixed, underscored and multi-line calls are literals too; the
        // finding sits on the line the call opens.
        let split = "c.clock().charge(\n    TimeCategory::StreamRead,\n    100_000u64,\n);\n";
        assert_eq!(lint("src/engine.rs", split), [("clock-literal", 1)]);
        // A named constant, or an expression over one, is what the rule wants.
        for ok in [
            "c.charge(TimeCategory::Join, HASH_OP_US);\n",
            "c.charge(TimeCategory::Join, HASH_OP_US * cost);\n",
            "c.charge(TimeCategory::Join, hops * ROUTE_US);\n",
            "c.charge(\n    TimeCategory::Optimize,\n    f(2) * OPT_STEP_US,\n);\n",
            "c.charge(cat, MEAN_NETWORK_DELAY_US); // a 2 in a comment\n",
        ] {
            assert!(
                lint("crates/qsys-source/src/registry.rs", ok).is_empty(),
                "{ok}"
            );
        }
        // Tests charge literals freely; an allow with a reason suppresses.
        assert!(lint("tests/chaos.rs", bare).is_empty());
        let in_test_mod = format!("#[cfg(test)]\nmod tests {{\n{bare}}}\n");
        assert!(lint("crates/qsys-exec/src/mjoin.rs", &in_test_mod).is_empty());
        let allowed = "// lint:allow(clock-literal): a test double\nc.charge(cat, 7);\n";
        assert!(lint("crates/qsys-exec/src/atc.rs", allowed).is_empty());
    }
}
