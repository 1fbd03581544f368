package cloudmap

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudmap/internal/pipeline"
	"cloudmap/internal/probe"
	"cloudmap/internal/tracefile"
)

// TestRunManifestMetricsJSON exercises the acceptance criterion for
// -metrics-out: the manifest marshals to valid JSON with one entry per
// declared stage carrying name, wall time, allocations, and counters.
func TestRunManifestMetricsJSON(t *testing.T) {
	rep := smallReport(t)

	var buf bytes.Buffer
	if err := rep.WriteManifestJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if m.Version != manifestVersion || m.ConfigHash == "" {
		t.Fatalf("manifest header incomplete: %+v", m)
	}

	names := StageNames()
	if len(m.Stages) != len(names) {
		t.Fatalf("manifest has %d stage entries, pipeline declares %d", len(m.Stages), len(names))
	}
	for i, st := range m.Stages {
		if st.Name != names[i] {
			t.Errorf("stage %d is %q, want %q", i, st.Name, names[i])
		}
		if st.Status != pipeline.StatusOK && st.Status != pipeline.StatusSkipped {
			t.Errorf("stage %s status %q on a clean run", st.Name, st.Status)
		}
		if st.Status == pipeline.StatusOK && (st.WallMS < 0 || st.Mallocs == 0) {
			t.Errorf("stage %s telemetry empty: wall=%v mallocs=%d", st.Name, st.WallMS, st.Mallocs)
		}
	}

	byName := make(map[string]pipeline.StageResult, len(m.Stages))
	for _, st := range m.Stages {
		byName[st.Name] = st
	}
	camp := byName["campaign"]
	if camp.Counters["traces"] == 0 || camp.Counters["targets"] == 0 {
		t.Errorf("campaign counters empty: %+v", camp.Counters)
	}
	if camp.Histograms["hops-per-trace"].Count != camp.Counters["traces"] {
		t.Errorf("hop histogram count %d != traces %d",
			camp.Histograms["hops-per-trace"].Count, camp.Counters["traces"])
	}
	ev := byName["evaluate"]
	for _, k := range []string{"abis", "cbis", "peer_ases"} {
		if ev.Gauges[k] <= 0 {
			t.Errorf("evaluate gauge %s = %v", k, ev.Gauges[k])
		}
	}
	if m.Summary["peer_ases"] != ev.Gauges["peer_ases"] {
		t.Errorf("summary/gauge mismatch: %v vs %v", m.Summary["peer_ases"], ev.Gauges["peer_ases"])
	}
}

// TestCancelMidCampaignLeavesPartialCheckpoint is the satellite cancellation
// contract: cancelling mid-campaign returns promptly with an error wrapping
// context.Canceled, and the interrupted checkpoint on disk is loadable but
// scans as incomplete.
func TestCancelMidCampaignLeavesPartialCheckpoint(t *testing.T) {
	cfg := SmallConfig()
	cfg.Topology.Seed = 42

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	cfg.RecordTraces = func(probe.Trace) {
		if seen++; seen == 200 {
			cancel()
		}
	}

	res, rep, err := RunPipeline(ctx, nil, cfg, RunOptions{CheckpointDir: dir})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want wrapped context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run returned a result")
	}
	if rep == nil {
		t.Fatal("cancelled run returned no report")
	}
	var campaign *pipeline.StageResult
	for i := range rep.Manifest.Stages {
		if rep.Manifest.Stages[i].Name == "campaign" {
			campaign = &rep.Manifest.Stages[i]
		}
	}
	if campaign == nil || campaign.Status != pipeline.StatusFailed {
		t.Fatalf("campaign stage not recorded as failed: %+v", campaign)
	}

	// The partial checkpoint replays but is marked incomplete.
	sum, err := tracefile.ScanFile(filepath.Join(dir, "campaign.traces.bin"))
	if err != nil {
		t.Fatalf("partial checkpoint unreadable: %v", err)
	}
	if sum.Complete {
		t.Fatal("interrupted checkpoint claims completeness")
	}
	if sum.Traces == 0 {
		t.Fatal("interrupted checkpoint holds no traces")
	}

	// The manifest on disk records the failure too.
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatalf("manifest not written on failure: %v", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("stored manifest invalid: %v", err)
	}

	// Rerunning over the partial checkpoint re-probes: the checkpoint is
	// incomplete, so the Resume hook must decline it.
	if testing.Short() {
		t.Skip("re-probe comparison skipped in -short mode")
	}
	cfg2 := SmallConfig()
	cfg2.Topology.Seed = 42
	res2, rep2, err := RunPipeline(context.Background(), nil, cfg2, RunOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range rep2.Manifest.Stages {
		if st.Name == "campaign" {
			if st.Status != pipeline.StatusOK {
				t.Fatalf("campaign over a partial checkpoint: status %q, want re-probed ok", st.Status)
			}
			if st.Counters["checkpoint-partial"] != 1 {
				t.Errorf("partial-checkpoint detection not recorded: %+v", st.Counters)
			}
		}
	}

	// And the re-probed run matches a run that was never interrupted.
	cfg3 := SmallConfig()
	cfg3.Topology.Seed = 42
	ref, err := Run(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Report() != ref.Report() {
		t.Fatal("re-probed run diverged from an uninterrupted run")
	}
}

// TestInterruptAfterCampaignResumes is the headline checkpoint/resume
// acceptance criterion: a run killed after the campaign stage (mid-expansion)
// resumes from the stored round-1 traces and produces a byte-identical final
// report.
func TestInterruptAfterCampaignResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run checkpoint test skipped in -short mode")
	}
	cfg := SmallConfig()
	cfg.Topology.Seed = 99

	// Reference: uninterrupted run.
	ref, refRep, err := RunPipeline(context.Background(), nil, cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var round1, round2 int64
	for _, st := range refRep.Manifest.Stages {
		switch st.Name {
		case "campaign":
			round1 = st.Counters["traces"]
		case "expansion":
			round2 = st.Counters["traces"]
		}
	}
	if round1 == 0 || round2 < 100 {
		t.Fatalf("unexpected round sizes: %d / %d", round1, round2)
	}

	// Interrupted run: cancel once expansion probing is under way.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfgB := SmallConfig()
	cfgB.Topology.Seed = 99
	var seen int64
	cfgB.RecordTraces = func(probe.Trace) {
		if seen++; seen == round1+50 {
			cancel()
		}
	}
	_, repB, err := RunPipeline(ctx, nil, cfgB, RunOptions{CheckpointDir: dir})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want wrapped context.Canceled", err)
	}
	for _, st := range repB.Manifest.Stages {
		if st.Name == "campaign" && st.Status != pipeline.StatusOK {
			t.Fatalf("campaign should have completed before the interrupt: %+v", st)
		}
	}
	sum, err := tracefile.ScanFile(filepath.Join(dir, "campaign.traces.bin"))
	if err != nil || !sum.Complete {
		t.Fatalf("campaign checkpoint not complete: %+v, %v", sum, err)
	}

	// Resume: round 1 replays from the checkpoint, round 2 re-probes.
	cfgC := SmallConfig()
	cfgC.Topology.Seed = 99
	resC, repC, err := RunPipeline(context.Background(), nil, cfgC, RunOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range repC.Manifest.Stages {
		if st.Name == "campaign" {
			if st.Status != pipeline.StatusResumed {
				t.Fatalf("campaign status %q, want resumed", st.Status)
			}
			if st.Counters["replayed"] != round1 {
				t.Errorf("replayed %d traces, want %d", st.Counters["replayed"], round1)
			}
		}
	}
	if resC.Report() != ref.Report() {
		t.Fatal("resumed run diverged from the uninterrupted run")
	}

	// A config change re-probes: both rounds' gates name another probing
	// plan (checkpoint-stale), and the run matches an uninterrupted run of
	// the new config.
	cfgD := SmallConfig()
	cfgD.Topology.Seed = 100
	resD, repD, err := RunPipeline(context.Background(), nil, cfgD, RunOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range repD.Manifest.Stages {
		if st.Name == "campaign" || st.Name == "expansion" {
			if st.Status != pipeline.StatusOK || st.Counters["checkpoint-stale"] != 1 {
				t.Errorf("%s after a config change: status %q, counters %+v; want a checkpoint-stale re-probe", st.Name, st.Status, st.Counters)
			}
		}
	}
	cfgE := SmallConfig()
	cfgE.Topology.Seed = 100
	refD, err := Run(cfgE)
	if err != nil {
		t.Fatal(err)
	}
	if resD.Report() != refD.Report() {
		t.Fatal("re-probed run under a changed config diverged from an uninterrupted run")
	}
}

// TestConfigHashStability pins the manifest config-hash semantics: the
// machine-dependent and output-invariant fields must not affect the hash,
// everything else must.
func TestConfigHashStability(t *testing.T) {
	base := SmallConfig()
	h := configHash(base)

	same := base
	same.Workers = 17
	same.RecordTraces = func(probe.Trace) {}
	if configHash(same) != h {
		t.Error("Workers/RecordTraces changed the config hash")
	}

	diff := base
	diff.Topology.Seed++
	if configHash(diff) == h {
		t.Error("seed change did not change the config hash")
	}
}

// TestTornBinaryCheckpointReprobes is the binary-format crash-chaos leg: a
// checkpoint cut mid-frame, or inside its 8-byte magic (the file a SIGKILLed
// run leaves behind), must degrade to live re-probing through the
// checkpoint-truncated path, and the re-probed run must match an
// uninterrupted one.
func TestTornBinaryCheckpointReprobes(t *testing.T) {
	cfg := SmallConfig()
	cfg.Topology.Seed = 7
	dir := t.TempDir()
	if _, _, err := RunPipeline(context.Background(), nil, cfg, RunOptions{CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "campaign.traces.bin")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cuts := map[string]int{
		// Drop the trailer plus a few payload bytes so neither the index
		// nor a clean chunk boundary survives.
		"mid-frame": len(raw) - 40,
		"header":    3,
	}
	for name, cut := range cuts {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := tracefile.ScanFile(path); !errors.Is(err, tracefile.ErrTruncated) {
				t.Fatalf("torn checkpoint scan = %v, want ErrTruncated", err)
			}

			cfg2 := SmallConfig()
			cfg2.Topology.Seed = 7
			res, rep, err := RunPipeline(context.Background(), nil, cfg2, RunOptions{CheckpointDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range rep.Manifest.Stages {
				if st.Name == "campaign" {
					if st.Status != pipeline.StatusOK {
						t.Fatalf("campaign over a torn checkpoint: status %q, want re-probed ok", st.Status)
					}
					if st.Counters["checkpoint-truncated"] != 1 {
						t.Errorf("truncation not recorded: %+v", st.Counters)
					}
				}
			}
			if res.Report() != ref.Report() {
				t.Fatal("re-probed run diverged from an uninterrupted run")
			}
			// The re-probe overwrote the torn file with a complete checkpoint.
			if sum, err := tracefile.ScanFile(path); err != nil || !sum.Complete {
				t.Fatalf("checkpoint not healed after re-probe: %+v, %v", sum, err)
			}
		})
	}
}

// TestResumeWorkerInvariance is the parallel-decode acceptance criterion:
// resuming the same checkpoint at workers=1 and workers=8 produces
// byte-identical reports (chunks decode concurrently but deliver in order).
func TestResumeWorkerInvariance(t *testing.T) {
	cfg := SmallConfig()
	cfg.Topology.Seed = 33
	dir := t.TempDir()
	ref, _, err := RunPipeline(context.Background(), nil, cfg, RunOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		cfgW := SmallConfig()
		cfgW.Topology.Seed = 33
		cfgW.Workers = workers
		res, rep, err := RunPipeline(context.Background(), nil, cfgW, RunOptions{CheckpointDir: dir})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, st := range rep.Manifest.Stages {
			if st.Name == "campaign" && st.Status != pipeline.StatusResumed {
				t.Fatalf("workers=%d: campaign status %q, want resumed", workers, st.Status)
			}
		}
		if res.Report() != ref.Report() {
			t.Fatalf("workers=%d: resumed report diverged from the fresh run", workers)
		}
	}
}

// TestStalePlanCheckpointReprobes: a complete checkpoint whose probe-plan
// gate (<round>.traces.bin.plan) does not vouch for it is not a faithful
// substitute for live probing. A gate that is not JSON (the bare-hash form),
// names a different probing plan, or lacks the round's stats makes a
// one-shot run re-probe (status ok, counter checkpoint-stale) and match an
// uninterrupted run; the re-probe rewrites the gate, so the next run replays.
func TestStalePlanCheckpointReprobes(t *testing.T) {
	cfg := SmallConfig()
	dir := t.TempDir()
	ref, _, err := RunPipeline(context.Background(), nil, cfg, RunOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	gatePath := filepath.Join(dir, "campaign.traces.bin.plan")
	var gate roundGate
	if raw, err := os.ReadFile(gatePath); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(raw, &gate); err != nil || gate.Plan == "" || gate.Stats == nil {
		t.Fatalf("gate %q: %v", raw, err)
	}
	campaign := func(rep *RunReport) pipeline.StageResult {
		for _, st := range rep.Manifest.Stages {
			if st.Name == "campaign" {
				return st
			}
		}
		t.Fatal("campaign stage missing from the manifest")
		return pipeline.StageResult{}
	}
	for _, stale := range []string{
		"0123456789abcdef\n",
		`{"plan":"0123456789abcdef","stats":{}}`,
		`{"plan":"` + gate.Plan + `"}`,
	} {
		if err := os.WriteFile(gatePath, []byte(stale), 0o644); err != nil {
			t.Fatal(err)
		}
		res, rep, err := RunPipeline(context.Background(), nil, cfg, RunOptions{CheckpointDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if st := campaign(rep); st.Status != pipeline.StatusOK {
			t.Fatalf("campaign behind gate %q: status %q, want re-probed ok", stale, st.Status)
		} else if st.Counters["checkpoint-stale"] != 1 {
			t.Errorf("stale gate %q not recorded: %+v", stale, st.Counters)
		}
		if res.Report() != ref.Report() {
			t.Fatalf("re-probed run behind gate %q diverged from an uninterrupted run", stale)
		}
	}
	_, rep, err := RunPipeline(context.Background(), nil, cfg, RunOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st := campaign(rep); st.Status != pipeline.StatusResumed {
		t.Fatalf("campaign after the re-probe rewrote its gate: status %q, want %q", st.Status, pipeline.StatusResumed)
	}
}

// TestUnknownVPICloudFailsStage: a foreign cloud the world does not have
// is a configuration error. The run fails naming it before any probing:
// the manifest records topo-gen as failed and the vpi stage as not-run,
// instead of an empty Table 4 under a successful stage.
func TestUnknownVPICloudFailsStage(t *testing.T) {
	cfg := SmallConfig()
	cfg.VPIClouds = []string{"microsoft", "azure"}
	res, rep, err := RunPipeline(context.Background(), nil, cfg, RunOptions{})
	if err == nil || !strings.Contains(err.Error(), `"azure"`) {
		t.Fatalf("error = %v, want one naming the unknown cloud \"azure\"", err)
	}
	if res != nil {
		t.Fatal("failed run returned a result")
	}
	want := map[string]pipeline.Status{"topo-gen": pipeline.StatusFailed, "vpi": pipeline.StatusNotRun}
	for _, st := range rep.Manifest.Stages {
		if w, ok := want[st.Name]; ok {
			if st.Status != w {
				t.Errorf("%s stage status %q, want %q", st.Name, st.Status, w)
			}
			delete(want, st.Name)
		}
	}
	if len(want) > 0 {
		t.Fatalf("stages missing from the manifest: %v", want)
	}
}
