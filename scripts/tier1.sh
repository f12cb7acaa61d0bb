#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, release build, full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

# With GOLDEN_BLESS set (to anything, even empty), the golden-trace
# tests (tests/golden_trace.rs, tests/workflow_dag.rs) rewrite their
# fixtures and pass, which would turn the byte-identity gate into a
# no-op. Re-blessing is a deliberate step outside this gate.
if [ -n "${GOLDEN_BLESS+set}" ]; then
  echo "tier1: GOLDEN_BLESS is set; unset it before running the gate" >&2
  echo "       (re-bless on purpose with: GOLDEN_BLESS=1 cargo test --test golden_trace)" >&2
  exit 1
fi

echo "== file-size lint (non-test src <= ${MAX_SRC_LINES:=1000} lines) =="
# The runtime god-loop grew to ~2000 lines before it was decomposed;
# this gate keeps any source file from quietly becoming the next one.
# Test-only files (tests/, *_tests.rs) and the vendored dev-harness
# stand-in are exempt.
oversized=$(find crates src -name '*.rs' \
  -not -path '*/tests/*' -not -name '*_tests.rs' \
  -exec awk -v max="$MAX_SRC_LINES" 'END { if (NR > max) print FILENAME ": " NR " lines" }' {} \;)
if [ -n "$oversized" ]; then
  echo "source files over $MAX_SRC_LINES lines (split them into modules):"
  echo "$oversized"
  exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --all -- --check

# --locked everywhere below: the gate must build exactly what Cargo.lock
# pins, never silently update it (cargo fmt takes no such flag).
echo "== cargo clippy (deny warnings) =="
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --locked --workspace --release

# The vendored dev-harness stand-in (vendor/proptest) is not held to the doc gate.
echo "== cargo doc --no-deps =="
RUSTDOCFLAGS="-D warnings" cargo doc --locked --workspace --no-deps --quiet \
  --exclude proptest

echo "== cargo test --workspace =="
cargo test --locked --workspace -q

# The benchmark is its own package (benchmark/, with an empty
# [workspace]) built on the crates' public API, so the workspace build
# above never compiles it. Build it and run its smoke tests here, so an
# API break fails this gate and not the benchmark run. No --locked: the
# benchmark's lock file is gitignored (it pins only path crates).
echo "== benchmark package smoke tests =="
cargo test --offline -q --manifest-path benchmark/Cargo.toml

# Exercise the multi-node, workflow, multi-tenant and fleet report
# paths end to end (short day, small fleet, one seed); the release
# binary is already built above.
echo "== experiments multinode workflow multitenant fleet --smoke =="
cargo run --locked --release -q -p amoeba-bench --bin experiments -- \
  multinode workflow multitenant fleet --smoke

echo "tier1: all green"
