package cloudmap

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"cloudmap/internal/faults"
	"cloudmap/internal/probe"
)

// goldenTraceDigests pins the SHA-256 of both probing rounds' checkpoint
// tracefiles for SmallConfig, seed 1, one worker. The constants were taken
// before the traceroute hot path was made allocation-free (distance table,
// path scratch, dense reply addresses), so they prove that every byte of the
// trace stream — not just the inferences drawn from it — survived that
// rewrite. A change that is meant to alter the simulated traces must update
// them deliberately.
var goldenTraceDigests = []struct {
	name      string
	faultPlan string // empty = fault-free
	campaign  string
	expansion string
}{
	{
		name:      "clean",
		campaign:  "bfa62238ca072027fc06a1bec582fd6d0ff7cbd038522af974238b1f484fa072",
		expansion: "7bc2992dc9c110ee4435c65c2a79297b34866a60ea41f8f14d7d972d97aed4e1",
	},
	{
		name:      "moderate",
		faultPlan: "testdata/faultplans/moderate.json",
		campaign:  "02927e1f22c36642431f61b055c73751b3d6037ab19c9227a7fc1d8b41a5973f",
		expansion: "ae826bad3eca756416df5036ae6e220a1e15c56255f56142a17ba2559693e1a2",
	},
}

// TestGoldenTraceStream: the campaign and expansion tracefiles of a fresh
// run hash to the pinned digests, fault-free and under the moderate fault
// plan with the default retry policy.
func TestGoldenTraceStream(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline runs skipped in -short mode")
	}
	for _, g := range goldenTraceDigests {
		t.Run(g.name, func(t *testing.T) {
			cfg := SmallConfig()
			cfg.Topology.Seed = 1
			cfg.Workers = 1
			if g.faultPlan != "" {
				plan, err := faults.LoadPlan(g.faultPlan)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = plan
				cfg.Retry = probe.DefaultRetryPolicy()
			}
			dir := t.TempDir()
			if _, _, err := RunPipeline(context.Background(), nil, cfg, RunOptions{CheckpointDir: dir}); err != nil {
				t.Fatal(err)
			}
			for _, f := range []struct{ file, want string }{
				{"campaign.traces.bin", g.campaign},
				{"expansion.traces.bin", g.expansion},
			} {
				b, err := os.ReadFile(filepath.Join(dir, f.file))
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				if got := hex.EncodeToString(sum[:]); got != f.want {
					t.Errorf("%s: sha256 %s, want %s", f.file, got, f.want)
				}
			}
		})
	}
}
