package cloudmap

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"cloudmap/internal/datasets"
	"cloudmap/internal/faults"
	"cloudmap/internal/probe"
)

// goldenReportDigests pins the SHA-256 of Result.Report() for SmallConfig,
// seed 1. TestGoldenTraceStream pins the probing rounds' traces, but the
// pings and alias probes that verification and alias resolution send never
// reach a tracefile; the report is where a change to them shows.
var goldenReportDigests = []struct {
	name      string
	faultPlan string // empty = fault-free
	dirtyPlan string // empty = clean datasets
	want      string
}{
	{
		name: "clean",
		want: "df5525d0f1d9f3e446648ec5e12035b44546d685032793490fbc1ca28fffcf56",
	},
	{
		name:      "faults",
		faultPlan: "testdata/faultplans/moderate.json",
		want:      "cbaed0375432eb7b9d35d841eda00609488c88ef71a0f1697a8ffd4207495beb",
	},
	{
		name:      "faults+dirty",
		faultPlan: "testdata/faultplans/moderate.json",
		dirtyPlan: "testdata/dirtyplans/moderate.json",
		want:      "647bb7d1a05af958ab283ae6092ba3615d3aaf361df86ef4f59c4c5b6508f87b",
	},
}

// TestGoldenReports: a fresh run's report hashes to the pinned digest,
// fault-free, under the moderate fault plan with the default retry policy,
// and under that plan plus the moderate dirty-dataset plan.
func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline runs skipped in -short mode")
	}
	for _, g := range goldenReportDigests {
		t.Run(g.name, func(t *testing.T) {
			cfg := SmallConfig()
			cfg.Topology.Seed = 1
			if g.faultPlan != "" {
				plan, err := faults.LoadPlan(g.faultPlan)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = plan
				cfg.Retry = probe.DefaultRetryPolicy()
			}
			if g.dirtyPlan != "" {
				plan, err := datasets.LoadDirtyPlan(g.dirtyPlan)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Dirty = plan
			}
			res, _, err := RunPipeline(context.Background(), nil, cfg, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(res.Report()))
			if got := hex.EncodeToString(sum[:]); got != g.want {
				t.Errorf("report sha256 %s, want %s", got, g.want)
			}
		})
	}
}
