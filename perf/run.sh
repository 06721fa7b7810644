#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json, perf/README.md): build the
# standalone perf workspace in release mode, then hand every argument to
# the binary. Run it from the repository root.
#
#   perf/run.sh --workload gus-full --seed 41 --seconds 10 --trace 0
#   perf/run.sh [--seed S] [--reps N] [--seconds N] [--out FILE]   # all four
#   perf/run.sh golden --write | --check
#   perf/run.sh compare A.json B.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# The benchmark driver names the target directory; by hand, build under the
# root's ignored target/ so nothing new needs ignoring.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target/perf}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perf" "$@"
