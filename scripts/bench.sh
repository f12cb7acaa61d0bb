#!/usr/bin/env bash
# Record the repository benchmark into BENCH_trajectory.json.
#
#   scripts/bench.sh            # measure HEAD (the tree must be clean)
#   scripts/bench.sh REV...     # measure each revision in a temporary worktree
#
# For each revision it builds that revision's own benchmark/ package,
# runs the binary directly (cargo's time is not in wall_s) on every
# workload at --trace 0 and then on each once at --trace 1, and appends
# one row per run to BENCH_trajectory.json at the root of this checkout:
# a JSON array with one row object per line. A row holds the measured
# commit, the date, the host, the run's wall-clock and fingerprint, and
# the benchmark's last JSON line (correct, attempted, failed, metrics)
# merged in. A run that fails a gate appends nothing and stops the
# script with a nonzero exit. Needs only bash, git, cargo and coreutils.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out=$root/BENCH_trajectory.json

# BENCHMARK.json's workloads, in its order.
workloads=(paper_grid fleet_week fleet_week_digest chaos_dag)

# Holds the run log and, for a given revision, its worktree.
tmp=$(mktemp -d)
cleanup() {
  if [ -d "$tmp/tree" ]; then
    git -C "$root" worktree remove --force "$tmp/tree" || true
  fi
  rm -rf "$tmp"
  git -C "$root" worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM

json_escape() {
  local s=${1//\\/\\\\}
  printf '%s' "${s//\"/\\\"}"
}

cpu=unknown
while IFS=: read -r key value; do
  if [[ $key == "model name"* ]]; then
    cpu=${value# }
    break
  fi
done </proc/cpuinfo
cpu=$(json_escape "$cpu")
ncpu=$(nproc)

# Append one row line, keeping the file a JSON array.
append_row() {
  local rows
  if [ -s "$out" ]; then
    rows=$(<"$out")
    rows=${rows%]}
    rows=${rows%$'\n'}
    if [ "$rows" = "[" ]; then
      printf '[\n%s\n]\n' "$1" >"$out.tmp"
    else
      printf '%s,\n%s\n]\n' "$rows" "$1" >"$out.tmp"
    fi
  else
    printf '[\n%s\n]\n' "$1" >"$out.tmp"
  fi
  mv "$out.tmp" "$out"
}

# measure TREE REV: build TREE's benchmark and record every run.
measure() {
  local tree=$1 rev=$2 bin log=$tmp/log line trace workload seed fingerprint last
  local start end ns wall
  echo "bench: building the benchmark at $rev" >&2
  CARGO_TARGET_DIR=$tree/benchmark/target \
    cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml"
  bin=$tree/benchmark/target/release/benchmark
  for trace in 0 1; do
    for workload in "${workloads[@]}"; do
      echo "bench: $rev $workload --trace $trace" >&2
      start=$(date +%s%N)
      if ! (cd "$tree" && "$bin" --workload "$workload" --trace "$trace") >"$log"; then
        cat "$log" >&2
        echo "bench: $workload --trace $trace failed at $rev; nothing appended" >&2
        return 1
      fi
      end=$(date +%s%N)
      ns=$((end - start))
      wall=$(printf '%d.%03d' $((ns / 1000000000)) $((ns / 1000000 % 1000)))
      # First line `workload W seed S host_cpus N`, then metrics, a
      # `fingerprint` line and the JSON result as the last line.
      read -r _ _ _ seed _ <"$log"
      fingerprint= last=
      while IFS= read -r line; do
        case $line in "fingerprint "*) fingerprint=${line#fingerprint } ;; esac
        last=$line
      done <"$log"
      if [[ ! $seed =~ ^[0-9]+$ || -z $fingerprint || $last != '{"correct":true,'* ]]; then
        cat "$log" >&2
        echo "bench: unexpected output from $workload --trace $trace at $rev" >&2
        return 1
      fi
      append_row "{\"rev\":\"$rev\",\"date\":\"$(date -u +%Y-%m-%dT%H:%M:%SZ)\",\"cpu\":\"$cpu\",\"nproc\":$ncpu,\"workload\":\"$workload\",\"seed\":$seed,\"trace\":$trace,\"wall_s\":$wall,\"fingerprint\":\"$fingerprint\",${last#\{}"
    done
  done
}

if [ $# -eq 0 ]; then
  dirty=$(git status --porcelain -- . ':!BENCH_trajectory.json')
  if [ -n "$dirty" ]; then
    echo "bench: uncommitted changes; a number must belong to a commit:" >&2
    echo "$dirty" >&2
    exit 1
  fi
  measure "$root" "$(git rev-parse --short=12 HEAD)"
  exit 0
fi

for arg in "$@"; do
  rev=$(git rev-parse --short=12 --verify "$arg^{commit}")
  git worktree add --quiet --detach "$tmp/tree" "$rev"
  measure "$tmp/tree" "$rev"
  git worktree remove --force "$tmp/tree"
done
