#!/bin/sh
# check.sh — the full local gate: formatting, vet, build, the benchmark
# module's own tests, race-enabled tests, a one-iteration bench smoke, and
# a short fuzz smoke over the parsers that consume untrusted input.
# Usage: scripts/check.sh [fuzz-seconds]   (default 10)
set -eu

cd "$(dirname "$0")/.."
FUZZ_SECONDS="${1:-10}"

echo "==> gofmt -l ."
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt wants to reformat:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

# benchmark/ is a module of its own (it imports this one through a replace
# directive), so the root ./... patterns never compile it: vet, build and
# test it explicitly so an API change it depends on fails here.
echo "==> benchmark module: go vet, go build, go test"
(cd benchmark && go vet ./... && go build -o /dev/null ./... && go test ./...)

echo "==> go test -race -short ./..."
# -short keeps the race pass inside the default per-package timeout: the
# multi-run determinism/resume tests are covered without -race by
# 'make test'; the race-relevant concurrency (parallel campaigns, metrics
# hot path, cancellation) all runs in short mode.
go test -race -short -timeout 20m ./...

echo "==> chunk scheduler race leg (-race -count=10)"
# The scheduler and the campaign, fleet and replay paths built on it:
# order, error choice and cancellation are timing-dependent, so run them
# repeatedly under the race detector. The campaign and egress-memo tests
# also exercise the forwarder's lock-free egress table, the recycled
# chunk trace batches and the remote chunk-executor seam; the attempt
# test holds every retry, which reuses its target's path and reply draws,
# to a from-scratch traceroute at its send time. Each dispatch
# campaign test probes a full round-1 campaign twice (~40 s a run under
# -race on 2 vCPUs), so those two run three times rather than ten.
go test -race -count=10 ./internal/ordered
go test -race -count=10 -run 'TestCampaignRetryChunkErrorReturns|TestCampaignRetryWorkerInvariance|TestCampaignChunkExecutor|TestRetryAttemptsMatchFreshTraces' ./internal/probe
go test -race -count=10 -run 'TestEgressMemoFillOrder' ./internal/route
go test -race -count=10 -run 'TestReplayParallelCancel' ./internal/tracefile
go test -race -count=3 -run 'TestDistributedMatchesLocal|TestNoLiveAgentsFallsBackLocal' -timeout 20m ./internal/dispatch

echo "==> bench smoke (border sink + binary decode + faulted traceroute, one iteration each)"
# Keeps the replay and probe hot-path benchmarks compiling and running;
# -benchtime 1x makes it a smoke, not a measurement.
go test -run '^$' -bench 'BenchmarkConsume|BenchmarkTracefileDecode/binary' -benchtime 1x ./internal/border ./internal/tracefile
go test -run '^$' -bench 'BenchmarkTracerouteAt/faulted' -benchtime 1x ./internal/probe

echo "==> chaos smoke (fault injection + same-seed replay + epoch sessions)"
go test -run 'TestChaos|TestSession' -timeout 10m .

echo "==> hygiene smoke (dirty datasets + quarantine accounting)"
go test -run 'TestHygiene|TestDegradationReportDatasetOnly|TestConfigHashDirtyPlan' -timeout 10m .

echo "==> daemon smoke (cloudmapd one epoch + cloudmapctl + graceful SIGTERM)"
SMOKE_DIR="${CLOUDMAPD_SMOKE_DIR:-$(mktemp -d)}"
go build -o "$SMOKE_DIR/" ./cmd/cloudmapd ./cmd/cloudmapctl
"$SMOKE_DIR/cloudmapd" -scale small -seed 1 -epochs 0 -epoch-every 1h \
	-addr 127.0.0.1:0 -addr-file "$SMOKE_DIR/addr.txt" \
	-state-dir "$SMOKE_DIR/state" \
	>"$SMOKE_DIR/cloudmapd.log" 2>&1 &
CLOUDMAPD_PID=$!
# Wait for the first epoch to publish (the status document reports it).
for _ in $(seq 1 600); do
	if [ -s "$SMOKE_DIR/addr.txt" ] &&
		"$SMOKE_DIR/cloudmapctl" -addr "$(cat "$SMOKE_DIR/addr.txt")" -json status 2>/dev/null |
		grep -q '"epoch": 1'; then
		break
	fi
	if ! kill -0 "$CLOUDMAPD_PID" 2>/dev/null; then
		echo "cloudmapd died during smoke:" >&2
		cat "$SMOKE_DIR/cloudmapd.log" >&2
		exit 1
	fi
	sleep 0.5
done
ADDR="$(cat "$SMOKE_DIR/addr.txt")"
"$SMOKE_DIR/cloudmapctl" -addr "$ADDR" status
"$SMOKE_DIR/cloudmapctl" -addr "$ADDR" peerings | head -5
curl -fsS "http://$ADDR/v1/peerings" 2>/dev/null | grep -q '"cbi"'
curl -fsS "http://$ADDR/metrics" >/dev/null
# Graceful shutdown: SIGTERM drains, the journal is flushed, exit is clean.
kill -TERM "$CLOUDMAPD_PID"
SMOKE_RC=0
wait "$CLOUDMAPD_PID" || SMOKE_RC=$?
[ "$SMOKE_RC" -eq 0 ] || {
	echo "cloudmapd exited $SMOKE_RC after SIGTERM" >&2
	cat "$SMOKE_DIR/cloudmapd.log" >&2
	exit 1
}
grep -q '"epoch":1' "$SMOKE_DIR/state/epochs.wal"

echo "==> crash-recovery smoke (kill -9 mid-epoch + restart on the same state dir)"
sh scripts/crash_smoke.sh "${CLOUDMAPD_CRASH_DIR:-$(mktemp -d)}"

echo "==> distributed-probing smoke (3-agent fleet, kill -9 one agent mid-chunk)"
sh scripts/agent_smoke.sh "${CLOUDMAPD_AGENT_DIR:-$(mktemp -d)}"

echo "==> tracefile inspection + replay smoke (-stat says complete, -cat prints every record, a rerun replays)"
RT_DIR="$(mktemp -d)"
go build -o "$RT_DIR/" ./cmd/cloudmap ./cmd/tracedump
"$RT_DIR/cloudmap" -scale small -traces "$RT_DIR/camp.traces.bin" >/dev/null
"$RT_DIR/tracedump" -stat "$RT_DIR/camp.traces.bin" >"$RT_DIR/stat.txt"
grep -q 'binary, complete' "$RT_DIR/stat.txt"
RECORDS="$(awk '$1 == "records" { print $2 }' "$RT_DIR/stat.txt")"
LINES="$("$RT_DIR/tracedump" -cat "$RT_DIR/camp.traces.bin" | wc -l)"
if [ -z "$RECORDS" ] || [ "$LINES" -ne "$RECORDS" ]; then
	echo "tracedump -cat printed $LINES lines for $RECORDS records" >&2
	exit 1
fi
# Replay: a second run on the same checkpoint dir replays both probing
# rounds (their gates match) and writes a byte-identical report.
for n in 1 2; do
	"$RT_DIR/cloudmap" -scale small -checkpoint-dir "$RT_DIR/ckpt" \
		-metrics-out "$RT_DIR/m$n.json" -o "$RT_DIR/r$n.txt" >/dev/null
done
cmp "$RT_DIR/r1.txt" "$RT_DIR/r2.txt"
for round in campaign expansion; do
	grep -A1 "\"name\": \"$round\"" "$RT_DIR/m2.json" | grep -q '"status": "resumed"' || {
		echo "replay smoke: $round was not resumed by the second run" >&2
		exit 1
	}
done
rm -rf "$RT_DIR"

echo "==> fuzz smoke (${FUZZ_SECONDS}s per target)"
go test -run '^$' -fuzz '^FuzzReadBinary$' -fuzztime "${FUZZ_SECONDS}s" ./internal/tracefile
go test -run '^$' -fuzz '^FuzzParseIP$' -fuzztime "${FUZZ_SECONDS}s" ./internal/netblock
go test -run '^$' -fuzz '^FuzzParsePrefix$' -fuzztime "${FUZZ_SECONDS}s" ./internal/netblock
for target in FuzzRIB FuzzWhois FuzzIXPs FuzzFacilities FuzzAs2org FuzzASRel FuzzCones FuzzRDNS; do
	go test -run '^$' -fuzz "^${target}\$" -fuzztime "${FUZZ_SECONDS}s" ./internal/datasets
done

echo "==> all checks passed"
