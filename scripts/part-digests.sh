#!/usr/bin/env bash
# Prints the output digest of every part of every benchmark workload,
# one line per part: workload, seed, part and digest. The benchmark
# itself prints only one job's digest; this covers them all. Run it
# from the root of the repository on two checkouts and diff the two
# outputs to show that a change keeps the same bytes:
#
#   bash scripts/part-digests.sh 2000 2001 > digests.txt
#   bash scripts/part-digests.sh -tiny 2000      # every part at test size
#   bash scripts/part-digests.sh -workload graph_20k 2000 2001
#
# -workload W, which may repeat, keeps only the named workloads' parts,
# so a change that touches one workload diffs only its parts.
#
# scripts/testdata/part-digests-tiny-2000.txt holds the output of
# `-tiny 2000`, and CI diffs a fresh run against it. A change that moves
# a part's bytes on purpose commits the new output there.
#
# Each part runs as a benchmark sweep child at GOMAXPROCS=1. The binary
# is built as benchmark/run.sh builds it, with every cache under
# .bench_build/.
set -euo pipefail

usage="usage: bash scripts/part-digests.sh [-tiny] [-workload W]... seed..."
tiny=""
seeds=()
only=()
while [ $# -gt 0 ]; do
  case $1 in
    -tiny) tiny=-tiny ;;
    -workload)
      if [ $# -lt 2 ]; then echo "$usage" >&2; exit 2; fi
      only+=("$2")
      shift
      ;;
    -*) echo "part-digests: unknown flag $1" >&2; exit 2 ;;
    *) seeds+=("$1") ;;
  esac
  shift
done
if [ ${#seeds[@]} -eq 0 ]; then
  echo "$usage" >&2
  exit 2
fi

# Each workload and its part count, as benchmark/workloads.go declares
# them: 17 parts a seed.
parts="fig2_ga:8 fig3_bayes:1 age_loaded:3 scale_1k:3 graph_20k:2"
if [ ${#only[@]} -gt 0 ]; then
  kept=""
  for w in "${only[@]}"; do
    found=""
    for wp in $parts; do
      if [ "${wp%:*}" = "$w" ]; then found=$wp; fi
    done
    if [ -z "$found" ]; then echo "part-digests: unknown workload $w" >&2; exit 2; fi
    kept="$kept $found"
  done
  parts=$kept
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd benchmark && go build -o "$build/nscc-benchmark" .)

for s in "${seeds[@]}"; do
  for wp in $parts; do
    w=${wp%:*}
    for p in $(seq 0 $((${wp#*:} - 1))); do
      report=$(GOMAXPROCS=1 "$build/nscc-benchmark" -workload "$w" -child sweep \
        -seed "$s" -part "$p" $tiny)
      digest=$(printf '%s\n' "$report" | grep -o '"digest":"[0-9a-f]*"' | cut -d'"' -f4)
      echo "$w $s $p $digest"
    done
  done
done
