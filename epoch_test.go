package cloudmap

import (
	"context"
	"testing"

	"cloudmap/internal/pipeline"
)

func epochStatuses(rep *EpochReport) map[string]pipeline.Status {
	out := map[string]pipeline.Status{}
	for _, sr := range rep.Stages {
		out[sr.Name] = sr.Status
	}
	return out
}

// An unchanged world must hash-skip the entire pipeline on the second
// epoch: same registry, same config — every input hash matches.
func TestSessionUnchangedWorldSkipsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("double pipeline run skipped in -short mode")
	}
	cfg := SmallConfig()
	cfg.SkipBdrmap = true
	s, err := NewSession(cfg, SessionOptions{CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
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

	res2, rep2, err := s.RunEpoch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", rep2.Epoch)
	}
	for _, sr := range rep2.Stages {
		switch sr.Name {
		case "bdrmap": // Skip hook (SkipBdrmap), not the hash scheduler
			if sr.Status != pipeline.StatusSkipped {
				t.Errorf("bdrmap status = %s", sr.Status)
			}
		default:
			if sr.Status != pipeline.StatusSkippedUnchanged {
				t.Errorf("%s status = %s, want %s", sr.Name, sr.Status, pipeline.StatusSkippedUnchanged)
			}
		}
	}
	// The retained result is the same live view, not a recomputed one.
	if res2.Verified != res1.Verified {
		t.Error("hash-skipped epoch rebuilt the verified result")
	}
	if len(rep2.Summary) == 0 {
		t.Error("summary lost across a fully-skipped epoch")
	}
}

// Hash-skips must never outlive a failed or degraded run: a stage that
// re-ran and failed clears its remembered hash.
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
