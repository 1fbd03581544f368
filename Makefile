GO ?= go

.PHONY: build test check fuzz chaos hygiene crash agent-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full gate: gofmt + vet + build + benchmark-module tests + race tests +
# bench smoke + fuzz smoke (see scripts/check.sh).
check:
	sh scripts/check.sh

# Chaos smoke: the fault-injection acceptance tests — pinning precision
# holds under the moderate plan, manifests record the degradation, and a
# same-seed+same-plan replay is byte-identical, and the epoch-session tests:
# an unchanged faulted world reproduces its report epoch after epoch.
chaos:
	$(GO) test -run 'TestChaos|TestSession' -v -timeout 10m .

# Hygiene smoke: the dataset-hygiene acceptance tests — clean runs
# round-trip the datasets byte-identically, the moderate dirty plan
# degrades coverage but not precision, manifests carry the quarantine
# accounting, and replays are byte-identical at any worker count.
hygiene:
	$(GO) test ./internal/datasets
	$(GO) test -run 'TestHygiene|TestDegradationReportDatasetOnly|TestConfigHashDirtyPlan' -v -timeout 10m .

# Crash-recovery smoke: SIGKILL cloudmapd mid-epoch, restart it on the
# same -state-dir, and verify it recovers the map, continues the journal
# gaplessly, and still shuts down cleanly (see scripts/crash_smoke.sh;
# also part of 'make check').
crash:
	sh scripts/crash_smoke.sh

# Distributed-probing smoke: run cloudmapd against a real three-agent
# fleet, SIGKILL one cloudmapagent mid-chunk, and verify /v1/peerings is
# byte-identical to a local-only run (see scripts/agent_smoke.sh; also
# part of 'make check').
agent-smoke:
	sh scripts/agent_smoke.sh

fuzz:
	sh scripts/check.sh 30
