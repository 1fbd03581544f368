package cloudmap

import (
	"context"
	"testing"
)

// TestEndToEndDeterminism runs the complete pipeline twice with the same
// seed and requires byte-identical reports: generation, forwarding, probing
// artefacts, alias resolution, verification, pinning (including
// cross-validation folds), VPI detection, grouping, graph analysis, and the
// bdrmap baseline must all be reproducible. This is the repository's
// strongest regression net: any accidental map-iteration or time dependence
// anywhere in the pipeline fails it.
func TestEndToEndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("double pipeline run skipped in -short mode")
	}
	cfg := SmallConfig()
	cfg.Topology.Seed = 777
	cfg.Workers = 1 // explicit: Workers<=0 now defaults to all CPUs

	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Report(), b.Report()
	if ra != rb {
		// Locate the first divergence for the failure message.
		n := len(ra)
		if len(rb) < n {
			n = len(rb)
		}
		at := n
		for i := 0; i < n; i++ {
			if ra[i] != rb[i] {
				at = i
				break
			}
		}
		lo := at - 120
		if lo < 0 {
			lo = 0
		}
		hiA, hiB := at+120, at+120
		if hiA > len(ra) {
			hiA = len(ra)
		}
		if hiB > len(rb) {
			hiB = len(rb)
		}
		t.Fatalf("reports diverge at byte %d:\nrun A: ...%s...\nrun B: ...%s...", at, ra[lo:hiA], rb[lo:hiB])
	}

	// Parallel probing must not change anything either; this run also
	// writes campaign checkpoints for the resume leg below.
	cfg.Workers = 4
	dir := t.TempDir()
	c, _, err := RunPipeline(context.Background(), nil, cfg, RunOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if c.Report() != ra {
		t.Fatal("parallel-worker run diverged from sequential run")
	}

	// A resumed run — probing rounds replayed from the stored tracefiles
	// instead of re-probed — must be byte-identical too.
	d, rep, err := RunPipeline(context.Background(), nil, cfg, RunOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	resumed := 0
	for _, st := range rep.Manifest.Stages {
		if st.Status == "resumed" {
			resumed++
		}
	}
	if resumed != 2 {
		t.Fatalf("%d stages resumed from checkpoint, want campaign and expansion", resumed)
	}
	if d.Report() != ra {
		t.Fatal("resumed run diverged from fresh run")
	}
}
