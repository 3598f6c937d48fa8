#!/bin/sh
# Single entry point for every gate this repo defines:
#
#   build        tier-1 build of the main tree
#   ctest        the full test suite (includes lint_test, race_stress_test
#                and the header self-containment target)
#   deps         scripts/check_deps.sh (the architecture gate: include graph
#                vs the declared layer DAG in tools/layers.txt, plus the
#                DOT/JSON graph exports)
#   static       scripts/check_static_analysis.sh (rdfcube_lint, the
#                rdfcube_callgraph hot-path gate, clang-tidy, the clang
#                -Wthread-safety proof, gcc -fanalyzer)
#   soak smoke   the server chaos soak (tests/server_soak_test) re-run in
#                RDFCUBE_BENCH_SMOKE=1 mode — a seconds-scale pass with a
#                different fault seed than the full-length ctest run
#   serve scrape a live rdfcube_serverd instance queried over TCP: a known
#                request count is sent through rdfcube_cli, the kMetrics
#                scrape is validated by scripts/check_prometheus.sh, and the
#                per-op requests_total must match the count exactly (the
#                scrape artifact is kept in build/serve_scrape for CI upload)
#   bench json   scripts/check_bench_json.sh (BENCH_*.json schema + the
#                phases-sum-to-wall-clock invariant, smoke-mode run,
#                2x wall-clock ceiling vs bench/baseline)
#   perfbench    one 1-second run of each benchmark workload (relate, serve,
#                refresh; see perfbench/NOTES.md): each must exit 0 and
#                report "correct": true, so the benchmark's CubeExplorer,
#                baseline and ComputeRelationships answer checks act as one
#                more end-to-end oracle, and API drift that breaks the
#                benchmark fails here
#   sanitizers   scripts/check_sanitizers.sh (ASan, UBSan, TSan trees)
#
# Usage: scripts/check_all.sh [--fast]
#   --fast skips the perfbench smoke runs (a Release build of its own into
#   .bench_build/) and the sanitizer rebuilds (three extra -j1 trees; by far
#   the slowest stage) — the mode meant for inner-loop use. CI runs the full
#   set.
set -eu

cd "$(dirname "$0")/.."
fast=0
if [ "${1:-}" = "--fast" ]; then fast=1; fi

echo "== build =="
cmake -B build >/dev/null
# -j1: parallel compiles OOM-kill cc1plus on small containers (CLAUDE.md).
cmake --build build -j1

echo "== ctest =="
ctest --test-dir build --output-on-failure

echo "== server soak (smoke) =="
RDFCUBE_BENCH_SMOKE=1 ./build/tests/server_soak_test

echo "== serve scrape =="
scripts/check_serve_scrape.sh build

echo "== architecture gate =="
# Also runs inside the static stage; kept explicit so --fast still fails
# loudly on a layering break even if the static stage is later reshaped.
scripts/check_deps.sh

echo "== static analysis =="
scripts/check_static_analysis.sh

echo "== bench json =="
scripts/check_bench_json.sh --baseline bench/baseline

if [ "$fast" -eq 0 ]; then
  echo "== perfbench smoke =="
  for workload in relate serve refresh; do
    if ! result=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
        --seconds 1 --trace 0); then
      echo "perfbench $workload: run failed" >&2
      exit 1
    fi
    printf '%s\n' "$result" | tail -n 1
    if ! printf '%s\n' "$result" | tail -n 1 | grep -q '"correct": true'; then
      echo "perfbench $workload: an answer check failed" >&2
      exit 1
    fi
  done

  echo "== sanitizers =="
  scripts/check_sanitizers.sh
fi

echo "check_all passed"
