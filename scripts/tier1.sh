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

# Each workload's fingerprint folds every service's simulated totals,
# so a change that keeps behaviour keeps all four. At --seconds 0 a
# workload runs one pass, the same first pass whose fingerprint a timed
# run reports. A deliberate behaviour change updates the pinned values
# here and says why, as with the golden traces.
echo "== benchmark fingerprints =="
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
for pin in paper_grid=0x3cf15bba655cb0ba fleet_week=0x54667e4bbbf9e2d8 \
  fleet_week_digest=0x0fce2cebc27a2f58 chaos_dag=0x1f137a115a47e381; do
  workload=${pin%%=*}
  want=${pin#*=}
  if ! report=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --seconds 0); then
    echo "$report" >&2
    echo "benchmark fingerprint: the $workload run failed" >&2
    exit 1
  fi
  got=$(awk '$1 == "fingerprint" { print $2 }' <<<"$report")
  if [ "$got" != "$want" ]; then
    echo "benchmark fingerprint: $workload reads ${got:-nothing}, pinned $want" >&2
    exit 1
  fi
  echo "$workload $got"
done

# Exercise the multi-node, workflow, multi-tenant and fleet report
# paths end to end (short day, small fleet, one seed); the release
# binary is already built above.
echo "== experiments multinode workflow multitenant fleet --smoke =="
cargo run --locked --release -q -p amoeba-bench --bin experiments -- \
  multinode workflow multitenant fleet --smoke

echo "tier1: all green"
