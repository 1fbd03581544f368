package cloudmap

import (
	"context"
	"errors"
	"strings"
	"testing"

	"cloudmap/internal/pipeline"
	"cloudmap/internal/probe"
)

func epochStatuses(rep *EpochReport) map[string]pipeline.Status {
	out := map[string]pipeline.Status{}
	for _, sr := range rep.Stages {
		out[sr.Name] = sr.Status
	}
	return out
}

// An unchanged world must hash-skip the entire pipeline on the second
// epoch: same registry, same config — every input hash matches. Under
// faults the skipped stages keep epoch 1's degradation, so bdrmap stays
// skipped-degraded and the report is byte-identical; with or without a
// checkpoint dir, neither probing round runs or replays.
func TestSessionUnchangedWorldSkipsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("double pipeline run skipped in -short mode")
	}
	small := func(*testing.T) Config {
		cfg := SmallConfig()
		cfg.SkipBdrmap = true
		return cfg
	}
	for _, tc := range []struct {
		name       string
		cfg        func(*testing.T) Config
		checkpoint bool
		bdrmap     pipeline.Status // bdrmap's status in epoch 2
	}{
		{"small", small, false, pipeline.StatusSkipped}, // Skip hook (SkipBdrmap)
		{"small-checkpoint", small, true, pipeline.StatusSkipped},
		{"chaos", chaosConfig, false, pipeline.StatusSkippedDegraded},
		{"chaos-checkpoint", chaosConfig, true, pipeline.StatusSkippedDegraded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t)
			var traces int
			cfg.RecordTraces = func(probe.Trace) { traces++ }
			var opts SessionOptions
			if tc.checkpoint {
				opts.CheckpointDir = t.TempDir()
			}
			s, err := NewSession(cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ctx := context.Background()

			res1, rep1, err := s.RunEpoch(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if rep1.Epoch != 1 || s.Epoch() != 1 {
				t.Fatalf("epoch = %d/%d, want 1", rep1.Epoch, s.Epoch())
			}
			if n := len(rep1.StagesRun()); n < 10 {
				t.Fatalf("first epoch ran %d stages: %v", n, rep1.StagesRun())
			}
			if res1.Verified == nil || len(res1.Verified.CBIs) == 0 {
				t.Fatal("first epoch produced no verified CBIs")
			}
			report1 := res1.Report()
			stages1 := map[string]pipeline.StageResult{}
			for _, sr := range rep1.Stages {
				stages1[sr.Name] = sr
			}
			traces1 := traces

			res2, rep2, err := s.RunEpoch(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if rep2.Epoch != 2 {
				t.Fatalf("epoch = %d, want 2", rep2.Epoch)
			}
			for _, sr := range rep2.Stages {
				want := pipeline.StatusSkippedUnchanged
				if sr.Name == "bdrmap" {
					want = tc.bdrmap
				}
				if sr.Status != want {
					t.Errorf("%s status = %s, want %s", sr.Name, sr.Status, want)
				}
				if sr.Status == pipeline.StatusSkippedUnchanged &&
					strings.Join(sr.Notes, "\n") != strings.Join(stages1[sr.Name].Notes, "\n") {
					t.Errorf("%s notes %q, epoch 1 %q", sr.Name, sr.Notes, stages1[sr.Name].Notes)
				}
			}
			if cfg.Faults != nil {
				for _, round := range []string{"campaign", "expansion"} {
					if len(stages1[round].Notes) == 0 {
						t.Errorf("epoch 1 %s carries no degradation note", round)
					}
				}
			}
			if traces != traces1 {
				t.Errorf("epoch 2 delivered %d traces; neither round may run", traces-traces1)
			}
			// The retained result is the same live view, not a recomputed one.
			if res2.Verified != res1.Verified {
				t.Error("hash-skipped epoch rebuilt the verified result")
			}
			if len(rep2.Summary) == 0 {
				t.Error("summary lost across a fully-skipped epoch")
			}
			if res2.Report() != report1 {
				t.Error("epoch 2's report differs from epoch 1's")
			}
		})
	}
}

// An epoch cancelled inside expansion, as the daemon's epoch deadline does,
// must leave nothing for its retry to hash-skip: the retry's report equals
// an uninterrupted epoch's.
func TestSessionRetryAfterCancelledExpansion(t *testing.T) {
	if testing.Short() {
		t.Skip("three pipeline runs skipped in -short mode")
	}
	clean, err := NewSession(SmallConfig(), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	want, rep, err := clean.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var round1 int64
	for _, sr := range rep.Stages {
		if sr.Name == "campaign" {
			round1 = sr.Counters["traces"]
		}
	}
	if round1 == 0 {
		t.Fatal("uninterrupted campaign counted no traces")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := SmallConfig()
	var traces int64
	cfg.RecordTraces = func(probe.Trace) {
		if traces++; traces > round1 {
			cancel()
		}
	}
	s, err := NewSession(cfg, SessionOptions{CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, rep, err = s.RunEpoch(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("epoch cancelled inside expansion returned %v", err)
	}
	for _, sr := range rep.Stages {
		if sr.Name == "expansion" && sr.Status != pipeline.StatusFailed {
			t.Fatalf("expansion = %q, want the cancelled stage", sr.Status)
		}
	}
	got, _, err := s.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Report() != want.Report() {
		t.Fatal("retry after a cancelled expansion differs from an uninterrupted epoch")
	}
}

// A failed epoch leaves no hash-skips: the epoch after it runs every stage.
func TestSessionReportEvenOnCancel(t *testing.T) {
	cfg := SmallConfig()
	cfg.SkipBdrmap = true
	s, err := NewSession(cfg, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, rep, err := s.RunEpoch(ctx)
	if err == nil {
		t.Fatal("cancelled epoch reported success")
	}
	if rep == nil || rep.Epoch != 1 {
		t.Fatalf("report = %+v", rep)
	}
	// Nothing completed cleanly, so a retry must re-run from the top.
	if _, rep2, err := s.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	} else if n := len(rep2.StagesSkipped()); n != 0 {
		t.Fatalf("epoch after cancelled epoch hash-skipped %d stages: %v", n, rep2.StagesSkipped())
	}
}

// A one-shot run fingerprints its stages exactly as a Session's first epoch
// does: both go through the same input-hash hooks, so the manifest's
// per-stage input_hash values equal epoch 1's.
func TestOneShotInputHashesMatchEpochOne(t *testing.T) {
	if testing.Short() {
		t.Skip("double pipeline run skipped in -short mode")
	}
	cfg := SmallConfig()
	_, rep, err := RunPipeline(context.Background(), nil, cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(cfg, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, erep, err := s.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	epochHash := map[string]string{}
	for _, sr := range erep.Stages {
		epochHash[sr.Name] = sr.InputHash
	}
	for _, sr := range rep.Manifest.Stages {
		if sr.InputHash == "" {
			t.Errorf("one-shot stage %s (%s) carries no input hash", sr.Name, sr.Status)
		}
		if sr.InputHash != epochHash[sr.Name] {
			t.Errorf("stage %s: one-shot input hash %q, epoch 1 %q", sr.Name, sr.InputHash, epochHash[sr.Name])
		}
	}
}
