#!/usr/bin/env bash
# End-to-end crash-recovery smoke for the streaming placement service.
#
# For each chaos fault kind the script: (1) serves under the fault and
# fires seeded load at it, interrupting the process mid-stream without a
# drain (the kill fault exits on its own; the others are SIGKILLed); (2)
# restarts healthy from the same state directory — recovery restores the
# checkpoint and replays the WAL past it — serves more load, and SIGTERMs
# mid-load to exercise the graceful drain; (3) rebuilds the ledger offline
# with `flexserve -replay` and byte-compares it against GET /ledger of a
# third recovered server. An ONCONF leg (the strategy with a random
# source) repeats the kill, restart and comparison on its own. Finally an
# overload leg checks the admission controller sheds under a hot load
# generator while the server stays healthy. Every directory the script
# creates is removed on exit.
#
#   scripts/serve_smoke.sh [port-base]
set -euo pipefail
cd "$(dirname "$0")/.."

PORT=${1:-9188}
DIRS=()
# On any exit: stop the servers still running, then remove the directories.
trap 'jobs -p | xargs -r kill 2>/dev/null; wait; [ ${#DIRS[@]} -eq 0 ] || rm -rf "${DIRS[@]}"' EXIT
newdir() { # sets $dir to a fresh directory removed on exit
    dir=$(mktemp -d)
    DIRS+=("$dir")
}
if [ -z "${BIN:-}" ]; then
    newdir
    BIN=$dir/flexserve
fi
go build -o "$BIN" ./cmd/flexserve

COMMON=(-topo er -n 60 -scenario commuter-dynamic -alg onth -seed 1 -window 32)
SERVE=(-ckpt-every 2)

fail() { echo "serve_smoke: $*" >&2; exit 1; }

wait_ready() { # addr
    for _ in $(seq 1 50); do
        curl -sf "http://$1/readyz" >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    fail "server on $1 never became ready"
}

for fault in kill:20 slow:2:5ms flood:4:4 ckptfail:1; do
    kind=${fault%%:*}
    newdir
    addr=127.0.0.1:$PORT; PORT=$((PORT + 1))
    echo "=== fault $fault (state in $dir) ==="

    # Phase 1: serve under the fault, fire load, die mid-stream (no drain).
    "$BIN" "${COMMON[@]}" "${SERVE[@]}" -serve "$addr" -statedir "$dir" \
        -tick 25ms -faultinject "$fault" 2>"$dir/serve1.log" &
    pid=$!
    wait_ready "$addr"
    "$BIN" "${COMMON[@]}" -fire "http://$addr" -rate 2000 -burst 20 -requests 600 \
        >"$dir/fire1.json" 2>/dev/null || true
    if [ "$kind" = kill ]; then
        wait "$pid" && fail "kill fault did not terminate the server" || true
    else
        kill -KILL "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    fi

    # Phase 2: healthy restart must recover, then drain gracefully mid-load.
    addr=127.0.0.1:$PORT; PORT=$((PORT + 1))
    "$BIN" "${COMMON[@]}" "${SERVE[@]}" -serve "$addr" -statedir "$dir" \
        -tick 25ms 2>"$dir/serve2.log" &
    pid=$!
    wait_ready "$addr"
    grep -q "recovered: replayed" "$dir/serve2.log" || fail "$fault: restart did not recover from the WAL"
    "$BIN" "${COMMON[@]}" -fire "http://$addr" -rate 2000 -burst 20 -requests 400 \
        >"$dir/fire2.json" 2>/dev/null &
    firepid=$!
    sleep 0.2
    kill -TERM "$pid"
    wait "$pid" || fail "$fault: drain exited non-zero"
    wait "$firepid" 2>/dev/null || true
    grep -q "drained:" "$dir/serve2.log" || fail "$fault: no drain summary logged"

    # Phase 3: the uninterrupted baseline (offline WAL replay) must be
    # byte-identical to GET /ledger of a recovered server.
    "$BIN" "${COMMON[@]}" -replay "$dir" >"$dir/baseline.json"
    addr=127.0.0.1:$PORT; PORT=$((PORT + 1))
    "$BIN" "${COMMON[@]}" "${SERVE[@]}" -serve "$addr" -statedir "$dir" \
        2>"$dir/serve3.log" &
    pid=$!
    wait_ready "$addr"
    curl -sf "http://$addr/ledger" >"$dir/ledger.http"
    kill -TERM "$pid"; wait "$pid" || true
    cmp "$dir/baseline.json" "$dir/ledger.http" \
        || fail "$fault: recovered /ledger diverges from the WAL replay baseline"
    echo "    recovery parity OK: $(wc -c <"$dir/baseline.json") byte ledger matches"
done

# ONCONF: kill mid-stream after the first checkpoints, restart, and
# byte-compare the recovered /ledger with -replay. The restore advances a
# freshly seeded random source by the recorded draw count.
ONCONF=(-topo er -n 30 -k 2 -scenario commuter-dynamic -alg onconf -seed 1 -window 32)
newdir
addr=127.0.0.1:$PORT; PORT=$((PORT + 1))
echo "=== onconf kill:20 (state in $dir) ==="
"$BIN" "${ONCONF[@]}" "${SERVE[@]}" -serve "$addr" -statedir "$dir" \
    -tick 25ms -faultinject kill:20 2>"$dir/serve1.log" &
pid=$!
wait_ready "$addr"
"$BIN" "${ONCONF[@]}" -fire "http://$addr" -rate 2000 -burst 20 -requests 600 \
    >/dev/null 2>&1 || true
wait "$pid" && fail "onconf: kill fault did not terminate the server" || true
addr=127.0.0.1:$PORT; PORT=$((PORT + 1))
"$BIN" "${ONCONF[@]}" "${SERVE[@]}" -serve "$addr" -statedir "$dir" 2>"$dir/serve2.log" &
pid=$!
wait_ready "$addr"
grep -q "recovered: replayed" "$dir/serve2.log" || fail "onconf: restart did not recover"
curl -sf "http://$addr/ledger" >"$dir/ledger.http"
kill -TERM "$pid"; wait "$pid" || true
"$BIN" "${ONCONF[@]}" -replay "$dir" >"$dir/baseline.json"
cmp "$dir/baseline.json" "$dir/ledger.http" \
    || fail "onconf: recovered /ledger diverges from -replay"
echo "    recovery parity OK: $(wc -c <"$dir/baseline.json") byte ledger matches"

# Overload: a hot generator against a small queue and a slowed consumer
# (the slow-consumer fault) must shed non-critical load — 429s show up in
# the fire summary — while the server stays healthy.
newdir
addr=127.0.0.1:$PORT; PORT=$((PORT + 1))
"$BIN" "${COMMON[@]}" -serve "$addr" -queuecap 64 -shed 0.5 \
    -faultinject slow:0:200ms 2>"$dir/serve.log" &
pid=$!
wait_ready "$addr"
"$BIN" "${COMMON[@]}" -fire "http://$addr" -rate 20000 -burst 100 -requests 4000 \
    >"$dir/fire.json" 2>/dev/null || true
curl -sf "http://$addr/healthz" >/dev/null || fail "server unhealthy under overload"
curl -sf "http://$addr/metrics" >"$dir/metrics.json"
kill -TERM "$pid"; wait "$pid" || true
python3 - "$dir/fire.json" "$dir/metrics.json" <<'EOF'
import json, sys
fire = json.load(open(sys.argv[1]))
metrics = json.load(open(sys.argv[2]))
assert fire["shed"] > 0, f"no load was shed under overload: {fire}"
assert fire["admitted"] > 0, f"nothing admitted under overload: {fire}"
classes = metrics["classes"]
noncrit = classes["standard"]["shed"] + classes["batch"]["shed"]
assert noncrit > 0, f"shed did not hit the non-critical classes: {classes}"
print(f"    overload OK: {fire['shed']} shed of {fire['sent']} sent, "
      f"non-critical sheds {noncrit}, critical sheds {classes['critical']['shed']}")
EOF

echo "serve_smoke: all fault kinds recovered bit-identically; overload shed verified"
