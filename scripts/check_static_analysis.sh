#!/bin/sh
# Static-analysis gate: the repo-specific checker plus three compiler-level
# analyses. Dual-compiler by design — clang carries the thread-safety proof,
# gcc carries the path-sensitive -fanalyzer pass — so a single-toolchain
# container still runs what it can and says what it skipped.
#
#   1. tools/rdfcube_lint — mechanical enforcement of the CLAUDE.md
#      invariants (no-throw hot paths, std::function recursion in
#      sparql/rules, umbrella-header sync, Doxygen on public items, checked
#      parses, checked .value() unwraps, bare stopwatches, lock annotations,
#      obs shadowing, metric names) plus the architecture checks it shares
#      with rdfcube_deps (layer-dag, include-cycle, iwyu-direct). Always
#      runs; failing it fails the gate. A machine-readable copy of the
#      findings lands in <build>/lint_report.json for artifact upload.
#   1b. tools/rdfcube_callgraph — the cross-TU call-graph analyzer and
#      hot-path purity gate (DESIGN.md §5g): links every src/ function
#      definition across translation units, computes transitive
#      alloc/lock/throw summaries, and fails when an RDFCUBE_HOT kernel
#      reaches an allocation or lock. Exports <build>/callgraph.{json,dot}
#      and <build>/hot_path_report.json for artifact upload. (The same gate
#      runs inside rdfcube_lint as the hot-path-alloc/hot-path-lock checks;
#      this stage additionally produces the graph artifacts.) The same
#      invocation carries the taint gate (DESIGN.md §5h): forward taint
#      propagation from RDFCUBE_TAINT_SOURCE decode entry points proves no
#      untrusted byte count reaches a sized sink (resize/reserve/assign/
#      new[]/memcpy-family) without a limit comparison, and that size
#      arithmetic on tainted values goes through util/safe_math. Findings
#      fail the gate with source-to-sink witness chains; the full taint
#      state lands in <build>/taint_report.json for artifact upload. The
#      same invocation also carries the lock gate (DESIGN.md §5i): it
#      replays every MutexLock scope, links the acquisitions into a global
#      lock-order graph, and fails on lock-order-cycle (nesting not declared
#      in tools/lock_order.txt, or any cycle), blocking-under-lock
#      (RDFCUBE_BLOCKING primitive reachable with a Mutex held), and
#      callback-under-lock (std::function/virtual dispatch with a Mutex
#      held). The lock graph + findings land in <build>/lock_report.json
#      (and <build>/lock_graph.dot) for artifact upload.
#   2. scripts/check_deps.sh — the architecture gate proper: rdfcube_deps
#      re-runs the layer checks standalone (a missing tools/layers.txt is an
#      error here, where rdfcube_lint merely skips the layer checks) and
#      exports the include graph as <build>/deps_graph.{dot,json}.
#   3. clang-tidy over compile_commands.json with the checked-in .clang-tidy
#      profile, chunked so one bad translation unit cannot starve the rest
#      of the run and any failing chunk fails the gate. Skipped with a
#      notice when the binary is absent.
#   4. clang -Wthread-safety: a separate build tree configured with
#      -DRDFCUBE_THREAD_SAFETY=ON compiles the library under
#      -Wthread-safety -Wthread-safety-beta -Werror, turning the
#      base/thread_annotations.h capability annotations into a compile-time
#      lock-discipline proof. Skipped with a notice when clang++ is absent.
#   5. gcc -fanalyzer over the leaf libraries (src/util, src/obs, src/rdf:
#      no dependencies above the C++ runtime, so the path-sensitive analysis
#      stays tractable). C++ support is still experimental in gcc 12; the
#      two known false-positive categories on this tree are suppressed
#      (-Wanalyzer-malloc-leak fires through inlined std::string temporaries,
#      -Wanalyzer-use-of-uninitialized-value through std::function's stored
#      callable) and everything else is -Werror. Skipped with a notice when
#      g++ is absent.
#
# After the lint stage the merged SARIF (every lexical, architecture,
# call-graph, taint, and lock finding in one SARIF 2.1.0 run) is written to
# <build>/analysis.sarif — emitted on failure too, so CI can upload the
# findings that failed the gate.
#
# Usage: scripts/check_static_analysis.sh [build-dir]   (default: build)
#
# Exit codes: 0 = every stage that ran passed; non-zero = the first failing
# stage's status (stage 1 lint findings, 1b call-graph/taint/lock findings,
# 2 architecture violations, 3-5 compiler diagnostics under -Werror).
# Stages 3-5 are skipped with a notice when their toolchain is absent;
# skipping is not a failure.
usage() {
  cat <<'EOF'
Usage: scripts/check_static_analysis.sh [build-dir]   (default: build)

Stages, in order:
  1   rdfcube_lint            lexical + architecture + call-graph checks;
                              writes <build>/lint_report.json and the merged
                              <build>/analysis.sarif (all findings, SARIF
                              2.1.0; written on failure too)
  1b  rdfcube_callgraph       hot-path purity + taint + lock-order gates;
                              writes <build>/callgraph.{json,dot},
                              <build>/hot_path_report.json,
                              <build>/taint_report.json,
                              <build>/lock_report.json,
                              <build>/lock_graph.dot
  2   scripts/check_deps.sh   architecture gate standalone (missing
                              tools/layers.txt is an error here); writes
                              <build>/deps_graph.{dot,json}
  3   clang-tidy              chunked over compile_commands.json (skipped
                              when not installed)
  4   clang -Wthread-safety   capability-annotation proof in build-tsafe
                              (skipped when clang++ absent)
  5   gcc -fanalyzer          path-sensitive pass over leaf libraries
                              (skipped when g++ absent)

Exit codes: 0 on success; otherwise the first failing stage's exit status.
Toolchain-absent skips (stages 3-5) do not fail the gate.
EOF
}
case "${1:-}" in
  -h|--help) usage; exit 0 ;;
esac
set -eu

cd "$(dirname "$0")/.."
build="${1:-build}"

# Reuse the existing tree's generator; just make sure the lint binary and the
# compilation database exist.
cmake -B "$build" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
# -j1: parallel compiles OOM-kill cc1plus on small containers (CLAUDE.md).
cmake --build "$build" -j1 --target rdfcube_lint rdfcube_callgraph

echo "== rdfcube_lint =="
# One JSON run for the artifact, one SARIF run for the merged code-scanning
# upload (both carry the full finding set — lexical, architecture,
# call-graph, taint, lock), then the human-readable listing on failure.
lint_status=0
"$build/tools/rdfcube_lint" . --format=json > "$build/lint_report.json" ||
  lint_status=$?
"$build/tools/rdfcube_lint" . --format=sarif > "$build/analysis.sarif" || true
if [ "$lint_status" -ne 0 ]; then
  "$build/tools/rdfcube_lint" . || true
  exit "$lint_status"
fi
echo "rdfcube_lint: clean ($build/lint_report.json, $build/analysis.sarif)"

echo "== call-graph / hot-path + taint + lock gate (rdfcube_callgraph) =="
if [ -x "$build/tools/rdfcube_callgraph" ]; then
  "$build/tools/rdfcube_callgraph" . \
    --json="$build/callgraph.json" \
    --dot="$build/callgraph.dot" \
    --hot-report="$build/hot_path_report.json" \
    --taint-report="$build/taint_report.json" \
    --lock-report="$build/lock_report.json" \
    --lock-dot="$build/lock_graph.dot"
  echo "call graph exported ($build/callgraph.json," \
       "$build/hot_path_report.json, $build/taint_report.json," \
       "$build/lock_report.json)"
else
  echo "== rdfcube_callgraph binary missing; hot/taint/lock gate skipped =="
fi

echo "== architecture gate (rdfcube_deps) =="
scripts/check_deps.sh "$build"

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy =="
  # Chunked: clang-tidy stops a whole invocation on the first unreadable
  # file, so batching 4 TUs per process bounds the blast radius; xargs
  # propagates any chunk's failure and set -e turns it into a gate failure.
  find src tools -name '*.cc' -o -name '*.cpp' \
    | xargs -n 4 clang-tidy -p "$build" --quiet
else
  echo "== clang-tidy not installed; skipped =="
fi

if command -v clang++ >/dev/null 2>&1; then
  echo "== clang -Wthread-safety =="
  # A dedicated tree: the thread-safety analysis needs clang, and mixing
  # compilers in one build directory invalidates the cache.
  cmake -B build-tsafe \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DRDFCUBE_THREAD_SAFETY=ON >/dev/null
  # Every module library: annotated classes (ThreadPool, FaultInjector,
  # MetricsRegistry, trace collector, TripleStore) are used across all of
  # them, and a REQUIRES violation only surfaces in the TU that locks wrong.
  for lib in rdfcube_base rdfcube_util rdfcube_obs rdfcube_rdf rdfcube_hierarchy \
             rdfcube_qb rdfcube_cluster rdfcube_core rdfcube_sparql \
             rdfcube_rules rdfcube_datagen rdfcube_align; do
    cmake --build build-tsafe -j1 --target "$lib"
  done
else
  echo "== clang++ not installed; -Wthread-safety proof skipped =="
fi

if command -v g++ >/dev/null 2>&1; then
  echo "== gcc -fanalyzer (leaf libraries) =="
  for f in src/base/*.cc src/util/*.cc src/obs/*.cc src/rdf/*.cc; do
    echo "  $f"
    g++ -std=c++20 -Isrc -fsyntax-only \
      -fanalyzer \
      -Wno-analyzer-use-of-uninitialized-value \
      -Wno-analyzer-malloc-leak \
      -Werror "$f"
  done
else
  echo "== g++ not installed; -fanalyzer pass skipped =="
fi

echo "static analysis passed"
