//go:build !race

// The race detector's sync.Pool drops pooled items at random and
// instruments allocations, so these guards run only in normal builds.

package probe

import (
	"context"
	"runtime"
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

// TestCampaignReusesTraceBatches: a campaign recycles its chunks' []Trace
// batches through a free list, so past the first few chunks a chunk
// allocates its hop arena and little else. Running the same chunks one by
// one through RunChunkObs allocates a fresh 1024-trace batch for each (and
// resolves each chunk's targets again); the campaign must save at least
// 40 KB of every chunk.
func TestCampaignReusesTraceBatches(t *testing.T) {
	tp, p := newProber(t)
	targets := Round1Targets(tp, Round1Options{})[:16*campaignChunk]
	vms := p.VMs("amazon")[:2]
	chunks := ChunkCampaign(vms, targets)
	pol := RetryPolicy{MaxAttempts: 1}
	ctx := context.Background()
	campaign := allocatedBytes(func() {
		if _, err := p.CampaignRetryCtx(ctx, vms, targets, 2, pol, 0, func(Trace) {}); err != nil {
			t.Fatal(err)
		}
	})
	oneByOne := allocatedBytes(func() {
		for _, wc := range chunks {
			if _, _, err := p.RunChunkObs(ctx, nil, nil, wc, targets[wc.From:wc.To], pol, 0, -1, 1); err != nil {
				t.Fatal(err)
			}
		}
	})
	saved := (float64(oneByOne) - float64(campaign)) / float64(len(chunks))
	if saved < 40<<10 {
		t.Fatalf("campaign allocates %.0f KB per chunk, RunChunkObs one by one %.0f KB: saved %.1f KB, want at least 40",
			float64(campaign)/float64(len(chunks))/1024, float64(oneByOne)/float64(len(chunks))/1024, saved/1024)
	}
}

// allocatedBytes returns the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
