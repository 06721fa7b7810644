#!/usr/bin/env bash
# The repo's merge gate: formatting, lints (deny warnings), and tests.
# CI runs exactly this script; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> qsys-lint (repo-law lint: env reads, Send cells, panic paths, SeqCst, bench clocks, hot-path hashers)"
cargo run -q -p qsys-verify --bin qsys-lint

echo "==> scripts/tracked.sh (every path it counts still exists)"
scripts/tracked.sh >/dev/null

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "All checks passed."
