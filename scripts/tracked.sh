#!/usr/bin/env bash
# The numbers ROADMAP.md's "Current state" tracks by hand, from the checkout
# this script sits in. Each should go down over time; record its output in
# CHANGES.md when a PR moves one. Reads tracked source only (no target/).
set -euo pipefail
cd "$(dirname "$0")/.."

rust_lines() { # total lines of the .rs files under the given paths
    find "$@" -name '*.rs' -not -path '*/target/*' -print0 2>/dev/null |
        xargs -0 cat 2>/dev/null | wc -l
}

engine_crates=(crates/qsys-catalog crates/qsys-exec crates/qsys-opt crates/qsys-query
    crates/qsys-source crates/qsys-state crates/qsys-types crates/qsys-workload)
engine=$(rust_lines src "${engine_crates[@]}")
checks=$(rust_lines tests examples crates/qsys-bench crates/qsys-verify)
perf=$(rust_lines perf)
shims=$(rust_lines crates/rand crates/proptest crates/criterion)
echo "rust_lines.engine        $engine"
echo "rust_lines.tests_bench_verify $checks"
echo "rust_lines.perf          $perf"
echo "rust_lines.shims         $shims"
echo "rust_lines.total         $((engine + checks + perf + shims))"
# The `qsys-*` crates counted as engine above (the root facade aside).
echo "engine_crates            ${#engine_crates[@]}"
# The largest file of the checks area: the experiment and sweep drivers.
echo "qsys_bench_lib_lines     $(wc -l <crates/qsys-bench/src/lib.rs)"

# The root facade: its size, and the items a caller can name.
echo "src_lines                $(cat src/*.rs | wc -l)"
echo "facade_pub_items         $(grep -hE '^\s*pub (fn|struct|enum|type|trait|const) ' src/*.rs | wc -l)"

# Fields of `pub struct EngineConfig { … }`.
awk '/^pub struct EngineConfig \{/ {on = 1; next}
     on && /^\}/ {on = 0}
     on && /^    pub [a-z_]+:/ {n++}
     END {print "engine_config_fields     " n + 0}' src/engine.rs

echo "qsys_env_vars            $(grep -rhoE 'var(_os)?\("QSYS_[A-Z_]+"' src crates --include='*.rs' |
    grep -oE 'QSYS_[A-Z_]+' | sort -u | wc -l)"

ci=.github/workflows/ci.yml
echo "ci_matrix_legs           $(grep -cE '^          - name: ' "$ci")"
# Named steps of the release job after the build itself.
awk '/^      - name: Release build/ {on = 1; next}
     on && /^      - name: / {n++}
     END {print "ci_release_smoke_steps   " n + 0}' "$ci"

echo "bench_json_files         $(find . -maxdepth 1 -name 'BENCH_*.json' | wc -l)"

awk '/^pub enum ViolationClass \{/ {on = 1; next}
     on && /^\}/ {on = 0}
     on && /^    [A-Z][A-Za-z]+,/ {n++}
     END {print "violation_classes        " n + 0}' crates/qsys-verify/src/lib.rs

# Comment paragraphs (consecutive non-blank `//` lines) that cite DESIGN.md.
find src crates tests examples -name '*.rs' -not -path '*/target/*' -print0 |
    xargs -0 awk '
        FNR == 1 {in_block = 0}
        /^[[:space:]]*\/\/[\/!]?[[:space:]]*$/ {in_block = 0; next}
        /^[[:space:]]*\/\// { if (!in_block) {in_block = 1; cited = 0}
                              if (/DESIGN\.md/ && !cited) {cited = 1; n++}
                              next }
        {in_block = 0}
        END {print "design_md_citations      " n + 0}'
