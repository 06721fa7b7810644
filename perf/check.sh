#!/usr/bin/env bash
# The gate for the standalone perf workspace: scripts/check.sh and CI walk
# the root workspace only and cannot see this package.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/../target/perf}"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --offline --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test --offline -q

echo "perf checks passed."
