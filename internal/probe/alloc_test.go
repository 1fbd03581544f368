//go:build !race

// The race detector's sync.Pool drops pooled items at random and
// instruments allocations, so these guards run only in normal builds.

package probe

import (
	"context"
	"runtime/debug"
	"testing"

	"cloudmap/internal/netblock"
)

// TestTracerouteAtAllocs: on the fault-free path a traceroute allocates
// only its returned hop slice — path and hop synthesis run in pooled
// scratch, with no per-trace map, path or loopback lookup allocation.
func TestTracerouteAtAllocs(t *testing.T) {
	tp, p := newProber(t)
	var sample []netblock.IP // every 7th round-1 target
	for i, dst := range Round1Targets(tp, Round1Options{}) {
		if i%7 == 0 {
			sample = append(sample, dst)
		}
	}
	vms := p.VMs("amazon")
	// A collection empties the scratch pool, and refilling it costs a few
	// allocations per cycle; hold the collector off so the count is the
	// per-call cost alone.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perCall := testing.AllocsPerRun(5, func() {
		for i, dst := range sample {
			if _, _, err := p.TracerouteAt(vms[i%len(vms)], dst, 0); err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(len(sample))
	if perCall > 1 {
		t.Fatalf("TracerouteAt allocates %.4f times per call, want at most 1", perCall)
	}
}

// TestRunChunkObsAllocs: a work chunk's traces share arena blocks, so the
// chunk runner allocates a handful of times per chunk, not per trace.
func TestRunChunkObsAllocs(t *testing.T) {
	tp, p := newProber(t)
	targets := Round1Targets(tp, Round1Options{})
	if len(targets) > campaignChunk {
		targets = targets[:campaignChunk]
	}
	wc := WorkChunk{VM: VMRef{Cloud: "amazon", Region: 3}, From: 0, To: len(targets)}
	pol := RetryPolicy{MaxAttempts: 1}
	perChunk := testing.AllocsPerRun(5, func() {
		if _, _, err := p.RunChunkObs(context.Background(), nil, nil, wc, targets, pol, 0, -1, 1); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(len(targets)) / 50; perChunk > limit {
		t.Fatalf("RunChunkObs allocates %.0f times for %d targets, want at most %.0f", perChunk, len(targets), limit)
	}
}
