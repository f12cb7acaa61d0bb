#!/usr/bin/env bash
# Record the repository benchmark into BENCH_trajectory.json, or
# compare two revisions in alternating pairs.
#
#   scripts/bench.sh            # measure HEAD (the tree must be clean)
#   scripts/bench.sh REV...     # measure each revision in a temporary worktree
#   scripts/bench.sh --pairs N WORKLOAD PARENT CHANGE [ARG...]
#
# For each revision it builds that revision's own benchmark/ package,
# runs the binary directly (cargo's time is not in wall_s) on every
# workload at --trace 0 and then on each once at --trace 1, and appends
# one row per run to BENCH_trajectory.json at the root of this checkout:
# a JSON array with one row object per line. A row holds the measured
# commit, the date, the host, the run's wall-clock and fingerprint, and
# the benchmark's last JSON line (correct, attempted, failed, metrics)
# merged in. A run that fails a gate appends nothing and stops the
# script with a nonzero exit.
#
# --pairs builds both revisions' benchmark the same way and runs
# WORKLOAD N times on each, alternating: the parent first in odd pairs,
# the change first in even ones. ARGs go to every run (say `--seed 7`
# or `--seconds 10`; the default is the benchmark's 25 s). It prints
# each run's metrics, then per metric each side's nearest-rank first
# quartile, median and third quartile (so every value printed is one a
# run measured) and how many pairs the change won by the metric's
# direction in BENCHMARK.json, ties counting for neither side. It
# exits nonzero when a run fails a gate or a run's fingerprint differs
# from the first run's, and appends nothing to BENCH_trajectory.json.
#
# Needs only bash, git, cargo and coreutils.
set -euo pipefail
# One decimal point for sort -g and printf, whatever the caller's locale.
export LC_ALL=C
cd "$(dirname "$0")/.."
root=$PWD
out=$root/BENCH_trajectory.json

# BENCHMARK.json's workloads, in its order.
workloads=(paper_grid fleet_week fleet_week_digest chaos_dag)

# Holds the run log and the worktrees of the revisions measured.
tmp=$(mktemp -d)
cleanup() {
  local tree
  for tree in "$tmp"/tree*; do
    if [ -d "$tree" ]; then
      git -C "$root" worktree remove --force "$tree" || true
    fi
  done
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

# build TREE REV: build TREE's benchmark, whose binary is then TREE/$bin.
bin=benchmark/target/release/benchmark
build() {
  echo "bench: building the benchmark at $2" >&2
  CARGO_TARGET_DIR=$1/benchmark/target \
    cargo build --release --offline --quiet --manifest-path "$1/benchmark/Cargo.toml"
}

# measure TREE REV: build TREE's benchmark and record every run.
measure() {
  local tree=$1 rev=$2 log=$tmp/log line trace workload seed fingerprint last
  local start end ns wall
  build "$tree" "$rev"
  for trace in 0 1; do
    for workload in "${workloads[@]}"; do
      echo "bench: $rev $workload --trace $trace" >&2
      start=$(date +%s%N)
      if ! (cd "$tree" && "$tree/$bin" --workload "$workload" --trace "$trace") >"$log"; then
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

# nearest_rank P V...: the P-th percentile of the sorted values V by
# nearest rank, the ceil(P/100 * count)-th smallest.
nearest_rank() {
  local p=$1
  shift
  local rank=$(((p * $# + 99) / 100))
  printf '%s\n' "${!rank}"
}

# pairs N WORKLOAD PARENT CHANGE [ARG...]: see the header.
pairs() {
  local n=$1 workload=$2 log=$tmp/log first= rev side pair run line kind name value fingerprint
  shift 2
  if [[ ! $n =~ ^[1-9][0-9]*$ ]] || [[ " ${workloads[*]} " != *" $workload "* ]]; then
    echo "bench: usage: --pairs N WORKLOAD PARENT CHANGE [ARG...]" >&2
    return 2
  fi
  local -A tree=() revs=() better=() values=()
  local -a names=()
  for side in parent change; do
    rev=$(git rev-parse --short=12 --verify "$1^{commit}")
    shift
    revs[$side]=$rev
    tree[$side]=$tmp/tree-$side
    git worktree add --quiet --detach "${tree[$side]}" "$rev"
    build "${tree[$side]}" "$rev"
  done
  # Each metric's direction, from the `"name": ..., "better": ...`
  # lines of BENCHMARK.json.
  while IFS= read -r line; do
    if [[ $line =~ \"name\":\ *\"([^\"]+)\".*\"better\":\ *\"(higher|lower)\" ]]; then
      better[${BASH_REMATCH[1]}]=${BASH_REMATCH[2]}
    fi
  done <"$root/BENCHMARK.json"
  for ((pair = 1; pair <= n; pair++)); do
    local order=(parent change)
    if ((pair % 2 == 0)); then
      order=(change parent)
    fi
    for side in "${order[@]}"; do
      if ! (cd "${tree[$side]}" && "${tree[$side]}/$bin" --workload "$workload" "$@") >"$log"; then
        cat "$log" >&2
        echo "bench: $workload failed at ${revs[$side]} ($side) in pair $pair" >&2
        return 1
      fi
      run="pair $pair $side ${revs[$side]}:"
      fingerprint=
      while read -r kind name value _; do
        case $kind in
          metric)
            if ((pair == 1)) && [ "$side" = parent ]; then
              names+=("$name")
            fi
            values[$side.$name]+=" $value"
            run+=" $name=$value"
            ;;
          fingerprint) fingerprint=$name ;;
        esac
      done <"$log"
      if [[ -z $fingerprint || $(tail -n 1 "$log") != '{"correct":true,'* ]]; then
        cat "$log" >&2
        echo "bench: unexpected output from $workload at ${revs[$side]} ($side) in pair $pair" >&2
        return 1
      fi
      echo "$run"
      first=${first:-$fingerprint}
      if [ "$fingerprint" != "$first" ]; then
        echo "bench: fingerprint $fingerprint at ${revs[$side]} ($side) in pair $pair differs from $first" >&2
        return 1
      fi
    done
  done
  echo "fingerprint $first"
  printf '%-18s %-6s %12s %12s %12s  %12s %12s %12s  %s\n' metric better \
    "parent q1" median q3 "change q1" median q3 "change wins"
  local -a p c sorted quartiles
  local q i wins moved
  for name in "${names[@]}"; do
    read -ra p <<<"${values[parent.$name]}"
    read -ra c <<<"${values[change.$name]}"
    wins=0
    for ((i = 0; i < n; i++)); do
      if [ "${p[i]}" != "${c[i]}" ]; then
        # Which way the change moved the metric in this pair.
        read -r value < <(printf '%s\n%s\n' "${p[i]}" "${c[i]}" | sort -g)
        moved=higher
        if [ "$value" = "${c[i]}" ]; then
          moved=lower
        fi
        if [ "$moved" = "${better[$name]:-higher}" ]; then
          wins=$((wins + 1))
        fi
      fi
    done
    quartiles=()
    for side in parent change; do
      read -ra sorted <<<"${values[$side.$name]}"
      mapfile -t sorted < <(printf '%s\n' "${sorted[@]}" | sort -g)
      for q in 25 50 75; do
        quartiles+=("$(nearest_rank "$q" "${sorted[@]}")")
      done
    done
    printf '%-18s %-6s %12.6g %12.6g %12.6g  %12.6g %12.6g %12.6g  %d/%d\n' \
      "$name" "${better[$name]:-?}" "${quartiles[@]}" "$wins" "$n"
  done
}

if [ "${1:-}" = --pairs ]; then
  if [ $# -lt 5 ]; then
    echo "bench: usage: --pairs N WORKLOAD PARENT CHANGE [ARG...]" >&2
    exit 2
  fi
  shift
  pairs "$@"
  exit
fi

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
