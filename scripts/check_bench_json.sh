#!/bin/sh
# BENCH_*.json gate: every bench binary must emit a machine-readable run
# report whose phase breakdown actually accounts for the run.
#
#   1. Builds the fastest bench binary (bench_fig5f_cube_ratio) plus the
#      serving-path harness (bench_serve) and runs both in smoke mode with
#      RDFCUBE_BENCH_OUT_DIR pointed at $build/bench_reports (kept around so
#      CI can upload the JSONs as artifacts).
#   2. Validates each emitted BENCH_<name>.json: parses as JSON, carries the
#      schema keys (name, schema_version, wall_seconds, meta, stats, phases,
#      span_rollup, metrics), and the per-phase total_seconds — including the
#      synthetic "(harness)" entry — sum to within 10% of wall_seconds.
#   3. BENCH_serve.json additionally must report the serving workloads:
#      <w>.{p50_us,p99_us,qps,requests,errors} for w in {point, scan}, with
#      zero request errors and zero sheds (the harness sizes each loop's
#      request bound so a healthy server never sheds — a shed is a regression),
#      plus per-op RED stats op.<op>.{requests,mean_us} for every wire op,
#      whose request counts must sum to exactly server.requests_total (the
#      metrics-conservation law the chaos soak also enforces), and the
#      snapshot build's unit cost: build.{ms,relationships,
#      ns_per_relationship}, each finite and positive, timed in a serve/build
#      span, with build.relationships (what the snapshot holds) equal to the
#      relationships the masking kernel emitted
#      (rdfcube_masking_relationships_emitted_total; the build is the only
#      masking run in the process).
#
# The 10% tolerance is the acceptance criterion for the observability layer:
# CapturePhases partitions the root span exactly, so a drift here means the
# harness stopped timing through the span tree.
#
#   4. With --baseline <dir>, each smoke run's wall_seconds is compared
#      against the committed default-size baseline of the same name: the
#      smoke sizes are strictly smaller than the default sizes, so a smoke
#      run taking more than 2x the default-size baseline's wall clock is an
#      order-of-magnitude perf regression, not noise. Reports with no
#      committed baseline are skipped with a notice.
#
# Usage: scripts/check_bench_json.sh [build-dir] [--baseline <dir>]
#        (build-dir default: build)
set -eu

cd "$(dirname "$0")/.."
build="build"
baseline_dir=""
while [ $# -gt 0 ]; do
  case "$1" in
    --baseline)
      [ $# -ge 2 ] || { echo "usage: $0 [build-dir] [--baseline <dir>]" >&2; exit 2; }
      baseline_dir="$2"
      shift 2
      ;;
    --baseline=*)
      baseline_dir="${1#--baseline=}"
      shift
      ;;
    -*)
      echo "usage: $0 [build-dir] [--baseline <dir>]" >&2
      exit 2
      ;;
    *)
      build="$1"
      shift
      ;;
  esac
done

cmake -B "$build" >/dev/null
# -j1: parallel compiles OOM-kill cc1plus on small containers (CLAUDE.md).
cmake --build "$build" -j1 --target bench_fig5f_cube_ratio bench_serve

out_dir="$build/bench_reports"
rm -rf "$out_dir"
mkdir -p "$out_dir"

for bin in bench_fig5f_cube_ratio bench_serve; do
  echo "== bench smoke run: $bin =="
  RDFCUBE_BENCH_SMOKE=1 RDFCUBE_BENCH_OUT_DIR="$out_dir" \
    "$build/bench/$bin" >/dev/null
done

for report in "$out_dir/BENCH_fig5f_cube_ratio.json" \
              "$out_dir/BENCH_serve.json"; do
  if [ ! -f "$report" ]; then
    echo "FAIL: $report was not written" >&2
    exit 1
  fi

  echo "== validate $report =="
  python3 - "$report" <<'EOF'
import json
import math
import sys

path = sys.argv[1]
with open(path) as f:
    report = json.load(f)

required = ["name", "schema_version", "wall_seconds", "meta", "stats",
            "phases", "span_rollup", "metrics"]
missing = [key for key in required if key not in report]
if missing:
    sys.exit(f"FAIL: missing keys {missing} in {path}")

if report["schema_version"] != 1:
    sys.exit(f"FAIL: unexpected schema_version {report['schema_version']}")

wall = report["wall_seconds"]
if not wall > 0:
    sys.exit(f"FAIL: wall_seconds must be positive, got {wall}")

phases = report["phases"]
if not phases:
    sys.exit("FAIL: phases is empty")
for phase in phases:
    for key in ("name", "count", "total_seconds", "self_seconds"):
        if key not in phase:
            sys.exit(f"FAIL: phase entry missing {key}: {phase}")
if not any(p["name"] == "(harness)" for p in phases):
    sys.exit("FAIL: no synthetic (harness) phase entry")

total = sum(p["total_seconds"] for p in phases)
drift = abs(total - wall) / wall
if drift > 0.10:
    sys.exit(f"FAIL: phase sum {total:.6f}s vs wall {wall:.6f}s "
             f"({drift:.1%} drift, >10%)")

metrics = report["metrics"]
for kind in ("counters", "gauges", "histograms"):
    if kind not in metrics:
        sys.exit(f"FAIL: metrics missing {kind}")

if report["name"] == "serve":
    stats = report["stats"]
    for w in ("point", "scan"):
        for key in ("p50_us", "p99_us", "qps", "requests", "errors"):
            if f"{w}.{key}" not in stats:
                sys.exit(f"FAIL: serve stats missing {w}.{key}")
        if not stats[f"{w}.requests"] > 0:
            sys.exit(f"FAIL: serve ran zero {w} requests")
        if stats[f"{w}.errors"] != 0:
            sys.exit(f"FAIL: serve saw {stats[f'{w}.errors']} {w} errors")
        if not stats[f"{w}.qps"] > 0:
            sys.exit(f"FAIL: serve {w}.qps must be positive")
        if not stats[f"{w}.p99_us"] >= stats[f"{w}.p50_us"]:
            sys.exit(f"FAIL: serve {w} p99 below p50")
    if stats.get("server.shed_total", 0) != 0:
        sys.exit("FAIL: healthy-path serve bench shed requests")
    # Per-op RED attribution: every wire op reports its request count and
    # mean latency, and the op counts conserve the server's own tally —
    # every worker-handled request ticked exactly one per-op counter.
    ops = ("ping", "containers", "contained", "complements", "partial",
           "scan", "stats", "metrics", "slowlog", "tracedump")
    for op in ops:
        for key in ("requests", "mean_us"):
            if f"op.{op}.{key}" not in stats:
                sys.exit(f"FAIL: serve stats missing op.{op}.{key}")
    op_sum = sum(stats[f"op.{op}.requests"] for op in ops)
    if op_sum != stats.get("server.requests_total"):
        sys.exit(f"FAIL: per-op requests sum {op_sum} != "
                 f"server.requests_total {stats.get('server.requests_total')} "
                 f"— per-op RED counters do not conserve the request tally")
    for w in ("point", "scan"):
        needed = [f"serve/{'point_lookup' if w == 'point' else 'bulk_scan'}"]
        if not any(p["name"] in needed for p in phases):
            sys.exit(f"FAIL: serve phases missing {needed[0]}")
    # Snapshot build unit cost: positive, finite, timed in its own span, and
    # conserved against the kernel's emitted tally.
    for key in ("build.ms", "build.relationships",
                "build.ns_per_relationship"):
        value = stats.get(key)
        if (not isinstance(value, (int, float)) or not math.isfinite(value)
                or not value > 0):
            sys.exit(f"FAIL: serve stat {key} must be finite and positive, "
                     f"got {value}")
    emitted = metrics["counters"].get(
        "rdfcube_masking_relationships_emitted_total")
    if stats["build.relationships"] != emitted:
        sys.exit(f"FAIL: build.relationships {stats['build.relationships']} "
                 f"!= rdfcube_masking_relationships_emitted_total {emitted}")
    if not any(s["name"] == "serve/build" for s in report["span_rollup"]):
        sys.exit("FAIL: serve span_rollup missing serve/build")

print(f"OK: {report['name']}: {len(phases)} phases sum to {total:.6f}s "
      f"of {wall:.6f}s wall ({drift:.2%} drift)")
EOF

  if [ -n "$baseline_dir" ]; then
    base="$baseline_dir/$(basename "$report")"
    if [ -f "$base" ]; then
      echo "== baseline compare $(basename "$report") =="
      python3 - "$report" "$base" <<'EOF'
import json
import sys

current_path, baseline_path = sys.argv[1], sys.argv[2]
with open(current_path) as f:
    current = json.load(f)
with open(baseline_path) as f:
    baseline = json.load(f)

wall = current["wall_seconds"]
base_wall = baseline["wall_seconds"]
# The current run is smoke-sized, the committed baseline default-sized:
# smoke <= default is the expectation, so 2x default is a hard ceiling.
if wall > 2.0 * base_wall:
    sys.exit(f"FAIL: {current['name']}: smoke wall {wall:.3f}s exceeds 2x "
             f"the default-size baseline {base_wall:.3f}s — wall-clock "
             f"regression")
print(f"OK: {current['name']}: smoke wall {wall:.3f}s within 2x baseline "
      f"{base_wall:.3f}s")
EOF
    else
      echo "== no committed baseline for $(basename "$report"); skipped =="
    fi
  fi
done

echo "bench json check passed"
