#!/bin/sh
# Builds the robustness/fault/race test suites under ASan, UBSan and TSan and
# runs them.
#
# The fault-injection and checkpoint/resume paths push hostile bytes through
# every deserializer and exercise crash/retry control flow; running them
# sanitized is the cheapest way to prove "rejects cleanly" never means
# "reads out of bounds first". The thread pass adds race_stress_test, which
# exists specifically to give TSan contention to observe (thread-pool
# submit/error races, concurrent masking runs, checkpoint storms, admission
# queue and snapshot-swap storms) plus the fault-injected server soak; the
# address/undefined passes add server_test, whose protocol fuzzers push
# hostile frames through the wire decoders, snapshot_fuzz_test, which
# mutates every byte of a snapshot file through LoadFrom, and
# core_masking_test plus invariants_test, which drive cubeMasking's packed
# member-table row indexing (every pass, the parallel, checkpointed and
# distributed runs, 64-dimension and 300-level corpora) against the
# baseline. Uses separate build trees so the sanitized builds never pollute
# the main ./build.
#
# Usage: scripts/check_sanitizers.sh [sanitizer ...]
#   sanitizers: address undefined thread (default: all three)
set -eu

sanitizers="${*:-address undefined thread}"
cd "$(dirname "$0")/.."

for san in $sanitizers; do
  case "$san" in
    thread) targets="race_stress_test fault_test robustness_test server_soak_test" ;;
    *)      targets="robustness_test fault_test binary_io_test server_test snapshot_fuzz_test core_masking_test invariants_test" ;;
  esac
  regex="$(echo "$targets" | tr ' ' '|')"
  dir="build-$(echo "$san" | cut -c1-4)"
  echo "== configuring $dir (-fsanitize=$san) =="
  cmake -B "$dir" -DRDFCUBE_SANITIZE="$san" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  # -j1: parallel compiles OOM-kill cc1plus on small containers (CLAUDE.md).
  # shellcheck disable=SC2086  # word splitting of $targets is intended
  cmake --build "$dir" -j1 --target $targets
  echo "== $san: ctest -R '$regex' =="
  # TSan aborts with exit 66 on the first data race (halt_on_error default
  # varies by toolchain); pin the options so a race always fails the run.
  # detect_deadlocks=1 turns on TSan's runtime lock-order graph — the
  # dynamic twin of the static lock-order gate (rdfcube_callgraph
  # lock-order-cycle vs tools/lock_order.txt, DESIGN.md §5i): any
  # inversion the race_stress lock-order section manages to interleave
  # fails the run with both acquisition stacks (second_deadlock_stack=1).
  TSAN_OPTIONS="halt_on_error=1 detect_deadlocks=1 second_deadlock_stack=1" \
    ctest --test-dir "$dir" -R "$regex" --output-on-failure
done

echo "sanitizer runs passed"
