#!/bin/sh
# crash_smoke.sh — end-to-end crash-recovery smoke for cloudmapd.
#
# Runs the daemon with a state dir, SIGKILLs it mid-epoch (no drain, no
# flush beyond what fsync already made durable), restarts it on the same
# state dir, and verifies the recovery contract from the outside:
#
#   - the restart logs that it recovered and resumes epoch numbering
#     (the journal stays gapless: epochs 1..N with no repeats or holes),
#   - /logz serves the supervisor's recovery record,
#   - the served map (/v1/peerings) matches the last journal record's
#     row count,
#   - a SIGTERM afterwards still exits cleanly.
#
# Usage: scripts/crash_smoke.sh [work-dir]
# The work dir (default: a fresh mktemp -d) keeps the state dir and both
# daemon logs for post-mortem; CI uploads it as an artifact.
set -eu

cd "$(dirname "$0")/.."
WORK="${1:-$(mktemp -d)}"
STATE="$WORK/state"
mkdir -p "$STATE"

go build -o "$WORK/" ./cmd/cloudmapd ./cmd/cloudmapctl

status_epoch() {
	"$WORK/cloudmapctl" -addr "$(cat "$WORK/$1")" -json status 2>/dev/null |
		sed -n 's/.*"epoch": \([0-9]*\).*/\1/p' | head -1
}

# --- Phase 1: run epochs back-to-back, then kill -9 mid-flight. ----------
"$WORK/cloudmapd" -scale small -seed 1 -epochs 0 -epoch-every 0s \
	-addr 127.0.0.1:0 -addr-file "$WORK/addr1.txt" \
	-state-dir "$STATE" -checkpoint-every 2 \
	>"$WORK/cloudmapd-crash.log" 2>&1 &
PID=$!
PRE_EPOCH=0
for _ in $(seq 1 600); do
	if [ -s "$WORK/addr1.txt" ]; then
		PRE_EPOCH="$(status_epoch addr1.txt || true)"
		[ "${PRE_EPOCH:-0}" -ge 2 ] 2>/dev/null && break
	fi
	if ! kill -0 "$PID" 2>/dev/null; then
		echo "cloudmapd died before epoch 2:" >&2
		cat "$WORK/cloudmapd-crash.log" >&2
		exit 1
	fi
	sleep 0.5
done
[ "${PRE_EPOCH:-0}" -ge 2 ] || { echo "never reached epoch 2" >&2; exit 1; }
# With -epoch-every 0s the next epoch is already in flight: this SIGKILL
# lands mid-epoch, possibly mid-journal-write.
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
echo "killed cloudmapd at published epoch $PRE_EPOCH"

# --- Phase 2: restart on the same state dir. -----------------------------
"$WORK/cloudmapd" -scale small -seed 1 -epochs 0 -epoch-every 1h \
	-addr 127.0.0.1:0 -addr-file "$WORK/addr2.txt" \
	-state-dir "$STATE" -checkpoint-every 2 \
	>"$WORK/cloudmapd-recover.log" 2>&1 &
PID=$!
POST_EPOCH=0
for _ in $(seq 1 600); do
	if [ -s "$WORK/addr2.txt" ]; then
		POST_EPOCH="$(status_epoch addr2.txt || true)"
		[ "${POST_EPOCH:-0}" -gt "$PRE_EPOCH" ] 2>/dev/null && break
	fi
	if ! kill -0 "$PID" 2>/dev/null; then
		echo "cloudmapd died during recovery:" >&2
		cat "$WORK/cloudmapd-recover.log" >&2
		exit 1
	fi
	sleep 0.5
done
[ "${POST_EPOCH:-0}" -gt "$PRE_EPOCH" ] || {
	echo "epoch numbering did not continue past $PRE_EPOCH:" >&2
	cat "$WORK/cloudmapd-recover.log" >&2
	exit 1
}
grep -q 'cloudmapd recovered' "$WORK/cloudmapd-recover.log" || {
	echo "restart did not report recovery:" >&2
	cat "$WORK/cloudmapd-recover.log" >&2
	exit 1
}
echo "recovered and continued: epoch $PRE_EPOCH -> $POST_EPOCH"

ADDR="$(cat "$WORK/addr2.txt")"

# The supervisor's recovery record must reach the daemon's /logz ring.
curl -fsS "http://$ADDR/logz" >"$WORK/logz.jsonl"
grep '"msg":"recovery: rehydrated store; running warm-up epoch"' "$WORK/logz.jsonl" |
	grep -q '"component":"service"' || {
	echo "/logz serves no service recovery record:" >&2
	cat "$WORK/logz.jsonl" >&2
	exit 1
}

# The served map must match the journal's last record.
SERVED_ROWS="$(curl -fsS "http://$ADDR/v1/peerings" | grep -o '"cbi"' | wc -l | tr -d ' ')"
JOURNAL_ROWS="$(grep -o '"peerings":[0-9]*' "$STATE/epochs.wal" | tail -1 | cut -d: -f2)"
[ "$SERVED_ROWS" = "$JOURNAL_ROWS" ] || {
	echo "/v1/peerings serves $SERVED_ROWS rows, journal records $JOURNAL_ROWS" >&2
	exit 1
}

# Clean shutdown still works after a recovery.
kill -TERM "$PID"
RC=0
wait "$PID" || RC=$?
[ "$RC" -eq 0 ] || {
	echo "cloudmapd exited $RC after SIGTERM" >&2
	cat "$WORK/cloudmapd-recover.log" >&2
	exit 1
}

# The journal must be gapless: non-failure records count 1..N exactly once.
awk '
	/"kind":"epoch-failed"/ { next }
	match($0, /"epoch":[0-9]+/) {
		e = substr($0, RSTART + 8, RLENGTH - 8) + 0
		if (e != ++want) { printf "journal gap: record %d has epoch %d\n", want, e; exit 1 }
	}
' "$STATE/epochs.wal"

echo "crash smoke passed: journal gapless through epoch $POST_EPOCH, map matches journal ($SERVED_ROWS rows)"
