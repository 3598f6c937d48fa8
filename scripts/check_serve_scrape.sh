#!/bin/sh
# Live serving-observability gate (the PR-8 acceptance check): boots a real
# rdfcube_serverd on the demo corpus, drives a known mix of requests through
# rdfcube_cli over TCP, then
#
#   1. validates the kMetrics scrape with scripts/check_prometheus.sh
#      (HELP/TYPE pairing, name scheme, histogram le-monotonicity),
#   2. asserts the per-op rdfcube_server_<op>_requests_total counters match
#      the request mix EXACTLY — evaluated ops count, inline obs scrapes
#      count only toward their own op, and a scrape never counts itself
#      (RED attribution is exact, not approximate),
#   3. exercises the slowlog and tracez endpoints end-to-end: requests go
#      out while a 1 s capture window is open, and the captured trace must
#      hold at least one server/handle span, and
#   4. SIGTERMs the daemon and requires an orderly drain (exit 0 plus the
#      structured "drained" log line).
#
# Artifacts (scrape, slowlog, trace, daemon log) land in
# <build>/serve_scrape/ so CI can upload them.
#
# Usage: scripts/check_serve_scrape.sh [build-dir]   (default: build)
set -eu

cd "$(dirname "$0")/.."
build="${1:-build}"

cmake -B "$build" >/dev/null
# -j1: parallel compiles OOM-kill cc1plus on small containers (CLAUDE.md).
cmake --build "$build" -j1 --target rdfcube_serverd rdfcube_cli

out_dir="$build/serve_scrape"
rm -rf "$out_dir"
mkdir -p "$out_dir"

serverd="$build/tools/rdfcube_serverd"
cli="$build/tools/rdfcube_cli"
corpus="tests/data/demo.ttl"

"$serverd" "$corpus" --port=0 --slowlog=16 \
  > "$out_dir/serverd.out" 2> "$out_dir/serverd.log" &
srv_pid=$!
trap 'kill "$srv_pid" 2>/dev/null || true' EXIT

port=""
for _ in $(seq 1 50); do
  port=$(sed -n 's/^serving on port \([0-9][0-9]*\)$/\1/p' \
         "$out_dir/serverd.out")
  [ -n "$port" ] && break
  if ! kill -0 "$srv_pid" 2>/dev/null; then
    echo "FAIL: rdfcube_serverd exited before serving" >&2
    cat "$out_dir/serverd.log" >&2
    exit 1
  fi
  sleep 0.2
done
if [ -z "$port" ]; then
  echo "FAIL: rdfcube_serverd never announced its port" >&2
  exit 1
fi
addr="127.0.0.1:$port"
echo "serverd up on $addr"

# The known request mix (per-op counts asserted against the scrape below):
# 7 ping + 3 containers + 2 scan + 1 stats are evaluated by an event loop,
# 1 tracedump is evaluated too (its connection waits out the capture window
# while the loops serve others), N contained requests are sent while the
# capture runs (N counted here, at least one), and 1 slowlog is answered
# inline at decode. 14 + N evaluated requests total.
for _ in 1 2 3 4 5 6 7; do "$cli" query "$addr" ping      > /dev/null; done
for _ in 1 2 3;         do "$cli" query "$addr" containers 0 > /dev/null; done
for _ in 1 2;           do "$cli" query "$addr" scan --limit=5 > /dev/null; done
"$cli" query "$addr" stats              > /dev/null
# A 1 s window (the server's max_trace_window_ms) with traffic inside it:
# requests keep going until the capture answers, so some land in the window.
rm -f "$out_dir/tracez.rc"
( rc=0
  "$cli" query "$addr" tracez --limit=1000 > "$out_dir/tracez.json" || rc=$?
  echo "$rc" > "$out_dir/tracez.rc" ) &
trace_pid=$!
during=0
while [ ! -e "$out_dir/tracez.rc" ]; do
  "$cli" query "$addr" contained 0 > /dev/null
  during=$((during + 1))
  if [ "$during" -gt 20000 ]; then
    echo "FAIL: the tracez capture never answered" >&2
    exit 1
  fi
done
wait "$trace_pid"
if [ "$(cat "$out_dir/tracez.rc")" != 0 ]; then
  echo "FAIL: tracez query failed" >&2
  exit 1
fi
echo "$during contained requests sent during the capture window"
"$cli" query "$addr" slowlog            > "$out_dir/slowlog.json"
"$cli" query "$addr" metrics            > "$out_dir/metrics.prom"

echo "== exposition format =="
scripts/check_prometheus.sh "$out_dir/metrics.prom"

echo "== exact per-op attribution =="
python3 - "$out_dir/metrics.prom" "$out_dir/slowlog.json" \
          "$out_dir/tracez.json" "$during" <<'EOF'
import json
import sys

scrape_path, slowlog_path, tracez_path = sys.argv[1:4]
during = int(sys.argv[4])
values = {}
with open(scrape_path) as f:
    for line in f:
        if line.startswith("#"):
            continue
        name, _, value = line.rstrip("\n").partition(" ")
        if "{" not in name:
            values[name] = float(value)

# The scrape is taken last, so every earlier request is fully attributed;
# the metrics op itself reads 0 because a scrape increments its own counter
# only after rendering the response text.
expected = {
    "rdfcube_server_ping_requests_total": 7,
    "rdfcube_server_containers_requests_total": 3,
    "rdfcube_server_contained_requests_total": during,
    "rdfcube_server_scan_requests_total": 2,
    "rdfcube_server_stats_requests_total": 1,
    "rdfcube_server_tracedump_requests_total": 1,
    "rdfcube_server_slowlog_requests_total": 1,
    "rdfcube_server_metrics_requests_total": 0,
    # Evaluated tally: slowlog and metrics were answered inline at decode.
    "rdfcube_server_requests_total": 14 + during,
    "rdfcube_server_shed_total": 0,
}
for name, want in expected.items():
    got = values.get(name)
    if got != want:
        sys.exit(f"FAIL: {name} = {got}, want {want}")

with open(slowlog_path) as f:
    slowlog = json.load(f)
if not isinstance(slowlog, list) or not slowlog:
    sys.exit("FAIL: slowlog dump is empty despite evaluated traffic")
for entry in slowlog:
    for key in ("op", "request_id", "latency_us", "deadline_remaining_ms",
                "snapshot_version", "sequence"):
        if key not in entry:
            sys.exit(f"FAIL: slowlog entry missing {key}: {entry}")

with open(tracez_path) as f:
    trace = json.load(f)
if "traceEvents" not in trace:
    sys.exit("FAIL: tracez output is not Chrome trace JSON")
# The capture saw the requests served during its window.
handled = [e for e in trace["traceEvents"] if e.get("name") == "server/handle"]
if not handled:
    sys.exit(f"FAIL: the capture holds no server/handle span "
             f"({len(trace['traceEvents'])} events, {during} requests sent "
             f"during the window)")

print(f"OK: per-op counters match the request mix exactly "
      f"({len(slowlog)} slowlog entries, "
      f"{len(trace['traceEvents'])} trace events, "
      f"{len(handled)} server/handle spans)")
EOF

echo "== orderly drain =="
kill -TERM "$srv_pid"
drain_rc=0
wait "$srv_pid" || drain_rc=$?
trap - EXIT
if [ "$drain_rc" -ne 0 ]; then
  echo "FAIL: serverd exited $drain_rc on SIGTERM (wanted orderly drain)" >&2
  cat "$out_dir/serverd.log" >&2
  exit 1
fi
if ! grep -q 'msg="drained"' "$out_dir/serverd.log"; then
  echo "FAIL: no structured 'drained' log line after SIGTERM" >&2
  cat "$out_dir/serverd.log" >&2
  exit 1
fi

echo "serve scrape check passed (artifacts in $out_dir)"
