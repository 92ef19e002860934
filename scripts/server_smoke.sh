#!/usr/bin/env bash
# End-to-end smoke test for icbe-serve: start the service, drive it with
# concurrent requests (healthy, oversized -> shed, hopeless deadline ->
# degraded), check the health/stats surfaces, then SIGTERM it and require a
# clean drain with no goroutine growth. CI runs this after the unit suite;
# it needs only curl and python3.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${PORT:-18080}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d)"
LOG="$WORK/serve.log"
trap 'kill -9 "$PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

fail() { echo "server_smoke: FAIL: $*" >&2; sed 's/^/  serve: /' "$LOG" >&2 || true; exit 1; }

json_get() { # json_get <url> <python-expr over parsed object s>
	curl -fsS "$1" | python3 -c "import json,sys; s=json.load(sys.stdin); print($2)"
}

go build -o "$WORK/icbe-serve" ./cmd/icbe-serve

"$WORK/icbe-serve" -addr "127.0.0.1:$PORT" -max-request-bytes 4096 \
	-store-dir "$WORK/store" -cache-entries 256 >"$LOG" 2>&1 &
PID=$!

for _ in $(seq 1 50); do
	curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
	sleep 0.2
done
[ "$(json_get "$BASE/healthz" 's["status"]')" = ok ] || fail "healthz not ok"
curl -fsS "$BASE/readyz" >/dev/null || fail "readyz not ready"
BASE_GOROUTINES="$(json_get "$BASE/stats" 's["goroutines"]')"

# Concurrent load: 8 healthy runs, one oversized body (shed 413 before
# parsing), one 1ms deadline (terminal but degraded to passthrough).
PROG='func main() { var a = 0; if (a == 0) { print(1); } print(2); }'
python3 - "$WORK" "$PROG" <<'EOF'
import json, sys
work, prog = sys.argv[1], sys.argv[2]
open(work + "/ok.json", "w").write(json.dumps({"program": prog, "run": True}))
open(work + "/oversized.json", "w").write(json.dumps({"program": prog + " // " + "x" * 8192}))
open(work + "/deadline.json", "w").write(json.dumps({"program": prog, "deadline_ms": 1, "no_dump": True}))
EOF
pids=()
for i in $(seq 1 8); do
	curl -fsS -d @"$WORK/ok.json" "$BASE/optimize" -o "$WORK/ok$i.out" &
	pids+=($!)
done
curl -s -o "$WORK/oversized.out" -w '%{http_code}' -d @"$WORK/oversized.json" "$BASE/optimize" >"$WORK/oversized.code" &
pids+=($!)
curl -fsS -d @"$WORK/deadline.json" "$BASE/optimize" -o "$WORK/deadline.out" &
pids+=($!)
for p in "${pids[@]}"; do wait "$p" || fail "request failed"; done

[ "$(cat "$WORK/oversized.code")" = 413 ] || fail "oversized request not shed 413 (got $(cat "$WORK/oversized.code"))"
python3 - "$WORK" <<'EOF' || exit 1
import json, sys
work = sys.argv[1]
for i in range(1, 9):
    r = json.load(open(f"{work}/ok{i}.out"))
    assert r["tier"] == "full" and not r["degraded"], f"healthy request degraded: {r['tier']}"
    assert r["output"] == [1, 2], f"wrong output: {r['output']}"
    assert r["report"]["optimized"] >= 1, "nothing optimized"
d = json.load(open(f"{work}/deadline.out"))
assert d["tier"] == "passthrough" and d["degraded"], f"deadline request: {d['tier']}"
EOF

# Cache soak: a fresh program twice — the repeat must be served from the
# store with a byte-identical body — then a one-character mutation, which is
# a different source text, so a different result key, and must miss.
SOAK='func main() { var b = 1; if (b == 1) { print(7); } print(8); }'
python3 - "$WORK" "$SOAK" <<'EOF'
import json, sys
work, soak = sys.argv[1], sys.argv[2]
open(work + "/soak.json", "w").write(json.dumps({"program": soak, "run": True}))
open(work + "/mutant.json", "w").write(json.dumps({"program": soak.replace("print(8)", "print(9)"), "run": True}))
EOF
curl -fsS -D "$WORK/soak1.hdr" -d @"$WORK/soak.json" "$BASE/optimize" -o "$WORK/soak1.out" || fail "soak request 1"
curl -fsS -D "$WORK/soak2.hdr" -d @"$WORK/soak.json" "$BASE/optimize" -o "$WORK/soak2.out" || fail "soak request 2"
curl -fsS -D "$WORK/mutant.hdr" -d @"$WORK/mutant.json" "$BASE/optimize" -o "$WORK/mutant.out" || fail "mutant request"
grep -qi '^x-icbe-cache: miss' "$WORK/soak1.hdr" || fail "first soak request not a miss: $(grep -i x-icbe-cache "$WORK/soak1.hdr")"
grep -qi '^x-icbe-cache: hit-' "$WORK/soak2.hdr" || fail "repeat not served from cache: $(grep -i x-icbe-cache "$WORK/soak2.hdr")"
grep -qi '^x-icbe-cache: miss' "$WORK/mutant.hdr" || fail "mutated program did not miss: $(grep -i x-icbe-cache "$WORK/mutant.hdr")"
cmp -s "$WORK/soak1.out" "$WORK/soak2.out" || fail "cached repeat differs from its original compute"
cmp -s "$WORK/soak1.out" "$WORK/mutant.out" && fail "mutant served the unmutated body"

# /stats must reconcile with what we just did, and the request burst must
# not have leaked goroutines (small tolerance for the HTTP server's own
# connection handling).
sleep 0.3
python3 - "$BASE_GOROUTINES" <<EOF || fail "stats reconciliation"
import json, sys, urllib.request
s = json.load(urllib.request.urlopen("$BASE/stats"))
assert s["requests"] == 13, s["requests"]
assert s["completed"] == 12, s["completed"]
assert s["shed"].get("oversized") == 1, s.get("shed")
assert s["tiers"].get("full") == 11 and s["tiers"].get("passthrough") == 1, s["tiers"]
assert s["queue_depth"] == 0 and s["in_flight"] == 0 and s["in_flight_bytes"] == 0
assert "ceiling" not in s and "breakers" not in s and not s["draining"]
assert s["latency_ms"]["count"] == 12 and s["latency_ms"]["p99"] > 0
assert s["goroutines"] <= int(sys.argv[1]) + 4, (s["goroutines"], sys.argv[1])
st = s["store"]
assert st["disk_enabled"], st
assert s["cache_served"] >= 1 and st["hits_memory"] + st["hits_disk"] + st["coalesced"] >= 1, (s["cache_served"], st)
assert st["quarantined"] == 0 and st["io_errors"] == 0 and st["state"] == "ok", st
EOF

# Graceful shutdown: SIGTERM, clean exit 0, and the drain completion line.
kill -TERM "$PID"
rc=0
wait "$PID" || rc=$?
[ "$rc" -eq 0 ] || fail "exit status $rc after SIGTERM"
grep -q "drained cleanly" "$LOG" || fail "no clean-drain log line"

echo "server_smoke: PASS"
