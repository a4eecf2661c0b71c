#!/usr/bin/env bash
# Reproduce the perf trajectory with one command: build every bench in
# Release, run them from the repo root, and collect one BENCH_<name>.json
# per bench at the repo root (the checked-in baselines live there).
#
#   scripts/bench_all.sh            # all benches
#   scripts/bench_all.sh decoder    # only benches whose name matches
#
# Collection works for both emission styles: benches that write their own
# BENCH_*.json land it in the repo root because we run them from there;
# for the rest, the `JSON [...]` stdout line every bench prints via
# bench_util.hpp's JsonRecords is captured and written out. bench_sketch
# (Google-Benchmark-based, no JSON line) is skipped.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

filter="${1:-}"
jobs="$(nproc 2>/dev/null || echo 2)"

cmake --preset release
cmake --build --preset release -j "$jobs"

ran=0
for bin in build-release/bench_*; do
  [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  case "$name" in
    *.* ) continue ;;          # skip build droppings (bench_foo.d etc.)
    bench_sketch ) echo "--- skipping $name (no JSON emitter)"; continue ;;
  esac
  if [ -n "$filter" ] && [[ "$name" != *"$filter"* ]]; then
    continue
  fi
  echo "=== $name"
  out="$("./$bin" | tee /dev/fd/2)" || { echo "$name failed" >&2; exit 1; }
  json="$(printf '%s\n' "$out" | sed -n 's/^JSON //p' | tail -1)"
  if [ -n "$json" ]; then
    printf '%s\n' "$json" > "BENCH_${name#bench_}.json"
    echo "--- wrote BENCH_${name#bench_}.json"
  fi
  ran=$((ran + 1))
done

if [ "$ran" -eq 0 ]; then
  echo "no bench matched filter '$filter'" >&2
  exit 1
fi
echo "bench_all: $ran benches done; BENCH_*.json collected in $repo"
