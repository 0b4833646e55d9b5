#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of cmd/mcserved: boot the
# daemon against a scratch store, submit a tiny sweep over HTTP, stream
# its results, download the CSV, check the health and metrics
# endpoints, then shut down gracefully with SIGTERM and require a clean
# exit. Two more episodes boot fresh daemons: one with an injected full
# disk (degraded mode and self-recovery), one with a per-cell deadline
# every cell overruns. Needs only a shell and curl; run via
# `make serve-smoke`.
set -eu

PORT="${MC_SMOKE_PORT:-18347}"
ADDR="127.0.0.1:$PORT"
GO="${GO:-go}"

WORK="$(mktemp -d)"
SRV_PID=""
cleanup() {
    [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    for log in "$WORK"/served*.log; do
        [ -f "$log" ] && sed "s/^/serve-smoke: $(basename "$log" .log): /" "$log" >&2
    done
    exit 1
}

# wait_up NAME: poll /healthz until the daemon in $SRV_PID answers.
wait_up() {
    i=0
    until curl -sf "http://$ADDR/healthz" > /dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && fail "$1: /healthz never came up"
        kill -0 "$SRV_PID" 2>/dev/null || fail "$1 exited during startup"
        sleep 0.1
    done
}

# submit SPEC: POST a sweep spec and print the accepted job's id.
submit() {
    SUBMIT="$(curl -sf -XPOST --data-binary @"$1" "http://$ADDR/jobs")" \
        || fail "submit of $1 rejected"
    ID="$(printf '%s' "$SUBMIT" | sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p' | head -n1)"
    [ -n "$ID" ] || fail "no job id in submit response: $SUBMIT"
    printf '%s' "$ID"
}

# stop NAME: SIGTERM the daemon in $SRV_PID and require a clean exit.
stop() {
    kill -TERM "$SRV_PID"
    i=0
    while kill -0 "$SRV_PID" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -gt 300 ] && fail "$1 did not exit after SIGTERM"
        sleep 0.1
    done
    wait "$SRV_PID" 2>/dev/null && STATUS=0 || STATUS=$?
    [ "$STATUS" -eq 0 ] || fail "$1 exited $STATUS after SIGTERM"
    SRV_PID=""
}

echo "serve-smoke: building mcserved"
"$GO" build -o "$WORK/mcserved" ./cmd/mcserved

cat > "$WORK/spec.json" <<'SPEC'
{
  "machines": ["baseline-sram", "sp-mr"],
  "apps": ["browser"],
  "seeds": [1, 2],
  "accesses": 20000
}
SPEC

echo "serve-smoke: starting daemon on $ADDR"
"$WORK/mcserved" -addr "$ADDR" -data "$WORK/store" -drain-timeout 20s \
    > "$WORK/served.log" 2>&1 &
SRV_PID=$!
wait_up daemon

echo "serve-smoke: submitting sweep"
ID="$(submit "$WORK/spec.json")"
echo "serve-smoke: job $ID accepted"

echo "serve-smoke: streaming results"
curl -sfN "http://$ADDR/jobs/$ID/results" > "$WORK/stream.jsonl" \
    || fail "streaming results failed"
CELLS="$(grep -c '"type":"cell"' "$WORK/stream.jsonl" || true)"
grep -q '"type":"done"' "$WORK/stream.jsonl" || fail "stream ended without a done event"
grep -q '"state":"done"' "$WORK/stream.jsonl" || fail "job did not finish clean: $(tail -n1 "$WORK/stream.jsonl")"
[ "$CELLS" -eq 4 ] || fail "streamed $CELLS cell events, want 4"

echo "serve-smoke: downloading CSV"
curl -sf "http://$ADDR/jobs/$ID/csv" > "$WORK/result.csv" || fail "CSV download failed"
head -n1 "$WORK/result.csv" | grep -q '^machine,' || fail "CSV missing header"
LINES="$(wc -l < "$WORK/result.csv")"
[ "$LINES" -eq 5 ] || fail "CSV has $LINES lines, want header + 4 cells"

echo "serve-smoke: checking health and metrics"
curl -sf "http://$ADDR/readyz" > /dev/null || fail "/readyz not ready"
METRICS="$(curl -sf "http://$ADDR/metrics")" || fail "/metrics failed"
printf '%s\n' "$METRICS" | grep -q '^mcserved_cells_done_total 4$' \
    || fail "/metrics does not report 4 completed cells"
printf '%s\n' "$METRICS" | grep -q '^mcserved_jobs{state="done"} 1$' \
    || fail "/metrics does not report the finished job"
printf '%s\n' "$METRICS" | grep -q '^mcserved_queue_depth ' \
    || fail "/metrics missing queue depth"

echo "serve-smoke: graceful shutdown"
stop daemon
grep -q "drained cleanly" "$WORK/served.log" || fail "daemon log missing clean-drain line"

# --- degraded mode: a full disk must shed admissions, not corrupt ---
# Boot a second daemon with an injected ENOSPC streak (MCSERVED_FAULT
# test hook): every write/sync in the global op window [8, 808) fails,
# so the store breaks right after startup and heals once the probe
# writes burn through the window. The daemon must flip /readyz to
# degraded, shed submissions with 503, count the I/O errors in
# /metrics, then recover on its own and accept work again.
echo "serve-smoke: degraded-mode episode (injected ENOSPC streak)"
MCSERVED_FAULT="enospc:after=8:streak=800" \
    "$WORK/mcserved" -addr "$ADDR" -data "$WORK/store2" \
    -drain-timeout 20s -probe-interval 25ms \
    > "$WORK/served2.log" 2>&1 &
SRV_PID=$!
wait_up "degraded daemon"

# The first submission trips the streak (either the admission writes or
# the job's journal fail) and flips the daemon into degraded mode.
curl -s -XPOST --data-binary @"$WORK/spec.json" "http://$ADDR/jobs" > /dev/null || true
i=0
until curl -s "http://$ADDR/metrics" | grep -q '^mcserved_degraded 1$'; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "daemon never reported degraded after ENOSPC"
    sleep 0.1
done

CODE="$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/readyz")"
[ "$CODE" = "503" ] || fail "/readyz while degraded returned $CODE, want 503"
CODE="$(curl -s -o /dev/null -w '%{http_code}' -XPOST \
    --data-binary @"$WORK/spec.json" "http://$ADDR/jobs")"
[ "$CODE" = "503" ] || fail "degraded submit returned $CODE, want 503 shed"
curl -s "http://$ADDR/metrics" | grep -q '^mcserved_io_errors_total [1-9]' \
    || fail "/metrics io_errors_total did not count the fault"

echo "serve-smoke: degraded confirmed; waiting for self-recovery"
i=0
until [ "$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/readyz")" = "200" ]; do
    i=$((i + 1))
    [ "$i" -gt 600 ] && fail "daemon never recovered after the streak ended"
    sleep 0.1
done
curl -s "http://$ADDR/metrics" | grep -q '^mcserved_degraded 0$' \
    || fail "degraded gauge did not clear after recovery"

# Admission is open again: a fresh sweep must run to completion.
ID2="$(submit "$WORK/spec.json")"
curl -sfN "http://$ADDR/jobs/$ID2/results" > "$WORK/stream2.jsonl" \
    || fail "post-recovery stream failed"
grep -q '"state":"done"' "$WORK/stream2.jsonl" \
    || fail "post-recovery job did not finish clean: $(tail -n1 "$WORK/stream2.jsonl")"

stop "degraded daemon"

# --- per-cell deadline: a cell that reaches -timeout stops and fails ---
# Boot a third daemon with a 1ms per-cell deadline and submit the same
# grid at 200 000 accesses, far more than any cell replays in 1ms.
# Every cell must fail exactly once and leave nothing behind: 4 failure
# events and no cell event, a header-only CSV, and counters that still
# read 0 done and 4 failed a second later, by when a simulation left
# running past its deadline would have finished and counted itself.
echo "serve-smoke: per-cell deadline episode (-timeout 1ms)"
sed 's/"accesses": 20000/"accesses": 200000/' "$WORK/spec.json" > "$WORK/spec3.json"
"$WORK/mcserved" -addr "$ADDR" -data "$WORK/store3" -drain-timeout 20s \
    -timeout 1ms > "$WORK/served3.log" 2>&1 &
SRV_PID=$!
wait_up "deadline daemon"

ID3="$(submit "$WORK/spec3.json")"
curl -sfN "http://$ADDR/jobs/$ID3/results" > "$WORK/stream3.jsonl" \
    || fail "deadline stream failed"
grep -q '"state":"done"' "$WORK/stream3.jsonl" \
    || fail "deadline job did not end done: $(tail -n1 "$WORK/stream3.jsonl")"
FAILURES="$(grep -c '"type":"failure"' "$WORK/stream3.jsonl" || true)"
[ "$FAILURES" -eq 4 ] || fail "deadline job streamed $FAILURES failure events, want 4"
# Each failure event names its cell by plan index.
for idx in 0 1 2 3; do
    grep '"type":"failure"' "$WORK/stream3.jsonl" | grep -q "\"index\":$idx," \
        || fail "no failure event carries plan index $idx"
done
! grep '"type":"failure"' "$WORK/stream3.jsonl" | grep -q '"index":-1' \
    || fail "a failure event carries index -1 instead of its plan index"
! grep -q '"type":"cell"' "$WORK/stream3.jsonl" \
    || fail "deadline job streamed a cell event for a timed-out cell"

curl -sf "http://$ADDR/jobs/$ID3/csv" > "$WORK/result3.csv" || fail "deadline CSV download failed"
LINES="$(wc -l < "$WORK/result3.csv")"
[ "$LINES" -eq 1 ] || fail "deadline CSV has $LINES lines, want the header only"

for when in "at the end" "1s later"; do
    [ "$when" = "1s later" ] && sleep 1
    METRICS="$(curl -sf "http://$ADDR/metrics")" || fail "/metrics failed"
    printf '%s\n' "$METRICS" | grep -q '^mcserved_cells_done_total 0$' \
        || fail "$when: /metrics counts done cells for a job whose every cell timed out"
    printf '%s\n' "$METRICS" | grep -q '^mcserved_cells_failed_total 4$' \
        || fail "$when: /metrics does not report 4 failed cells"
done

stop "deadline daemon"
grep -q "drained cleanly" "$WORK/served3.log" || fail "deadline daemon log missing clean-drain line"

echo "serve-smoke: PASS"
