package cloudmap

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cloudmap/internal/faults"
	"cloudmap/internal/pipeline"
	"cloudmap/internal/probe"
	"cloudmap/internal/tracefile"
)

// chaosConfig is the faulted twin of SmallConfig: same seed and topology,
// plus the checked-in moderate fault plan and a 3-attempt retry policy.
func chaosConfig(t *testing.T) Config {
	t.Helper()
	plan, err := faults.LoadPlan("testdata/faultplans/moderate.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg := SmallConfig()
	cfg.Faults = plan
	cfg.Retry = probe.RetryPolicy{MaxAttempts: 3, BackoffSec: 1, BackoffFactor: 2}
	return cfg
}

var (
	chaosOnce sync.Once
	chaosRes  *Result
	chaosRep  *RunReport
	chaosErr  error
)

// chaosRun executes the faulted pipeline once for the whole test binary.
func chaosRun(t *testing.T) (*Result, *RunReport) {
	t.Helper()
	chaosOnce.Do(func() {
		chaosRes, chaosRep, chaosErr = RunPipeline(context.Background(), nil, chaosConfig(t), RunOptions{})
	})
	if chaosErr != nil {
		t.Fatal(chaosErr)
	}
	return chaosRes, chaosRep
}

// TestChaosPrecisionHoldsRecallDegrades: under the moderate fault plan the
// §6.2 pinning cross-validation keeps its precision (drop < 2 points versus
// the fault-free twin) while recall degrades without collapsing — the
// paper's heuristics are conservative, so losing probes loses coverage, not
// correctness.
func TestChaosPrecisionHoldsRecallDegrades(t *testing.T) {
	base := smallRun(t)
	faulted, _ := chaosRun(t)

	bp, fp := base.PinningCV.Precision, faulted.PinningCV.Precision
	if fp < bp-0.02 {
		t.Errorf("precision collapsed under faults: %.4f -> %.4f (drop %.4f >= 0.02)", bp, fp, bp-fp)
	}
	br, fr := base.PinningCV.Recall, faulted.PinningCV.Recall
	if fr > br+0.02 {
		t.Errorf("recall inflated under faults: %.4f -> %.4f", br, fr)
	}
	if fr < br/2 {
		t.Errorf("recall collapsed under faults: %.4f -> %.4f (more than halved)", br, fr)
	}
}

// TestChaosManifestDegradation: a faulted run's manifest must carry a
// non-empty degradation section — per-round fault/retry stats, the stages
// that ran degraded, and the §8 bdrmap baseline sitting the run out.
func TestChaosManifestDegradation(t *testing.T) {
	res, rep := chaosRun(t)

	deg := rep.Manifest.Degradation
	if deg == nil {
		t.Fatal("faulted run has no manifest degradation section")
	}
	if len(deg.Rounds) == 0 {
		t.Fatal("degradation section has no per-round stats")
	}
	cs, ok := deg.Rounds["campaign"]
	if !ok || !cs.Degraded() {
		t.Fatalf("campaign round missing or undegraded: %+v", deg.Rounds)
	}
	if deg.ProbeLossPct <= 0 || deg.ProbeLossPct >= 100 {
		t.Errorf("probe loss %.2f%% outside (0, 100)", deg.ProbeLossPct)
	}
	if deg.RetriesSpent == 0 {
		t.Error("no retries spent under a moderate plan with MaxAttempts=3")
	}
	if len(deg.DegradedStages) == 0 {
		t.Error("no stages recorded degraded")
	}

	byName := map[string]pipeline.StageResult{}
	for _, sr := range rep.Manifest.Stages {
		byName[sr.Name] = sr
	}
	if got := byName["bdrmap"].Status; got != pipeline.StatusSkippedDegraded {
		t.Errorf("bdrmap status = %q, want %q (must not compare a fault-free baseline against a degraded inference)", got, pipeline.StatusSkippedDegraded)
	}
	if res.Bdrmap != nil {
		t.Error("bdrmap result present despite skipped-degraded stage")
	}
	found := false
	for _, name := range deg.SkippedStages {
		if name == "bdrmap" {
			found = true
		}
	}
	if !found {
		t.Errorf("bdrmap missing from SkippedStages: %v", deg.SkippedStages)
	}

	// A fault-free run must NOT grow a degradation section (old manifests
	// stay byte-compatible).
	if fre := smallReport(t); fre.Manifest.Degradation != nil {
		t.Errorf("fault-free run has a degradation section: %+v", fre.Manifest.Degradation)
	}
}

// TestChaosSameSeedReplayIdentical: two runs with the same seed and the same
// fault plan are byte-identical — the whole fault model is a pure function
// of (seed, plan), never wall-clock or goroutine scheduling.
func TestChaosSameSeedReplayIdentical(t *testing.T) {
	res1, rep1 := chaosRun(t)
	res2, rep2, err := RunPipeline(context.Background(), nil, chaosConfig(t), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := res1.Report(), res2.Report()
	if a != b {
		line := 1
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("reports diverge at byte %d (line %d)", i, line)
			}
			if a[i] == '\n' {
				line++
			}
		}
		t.Fatalf("reports differ in length: %d vs %d bytes", len(a), len(b))
	}
	d1, err := json.Marshal(rep1.Manifest.Degradation)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := json.Marshal(rep2.Manifest.Degradation)
	if err != nil {
		t.Fatal(err)
	}
	if string(d1) != string(d2) {
		t.Fatalf("degradation reports differ:\n  %s\n  %s", d1, d2)
	}
}

// TestChaosWorkerInvariance: the faulted pipeline's artefacts do not depend
// on the worker count (the retry engine hands out per-chunk budgets and
// draws every fault decision from pure hashes).
func TestChaosWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full faulted pipeline run")
	}
	res1, _ := chaosRun(t)
	cfg := chaosConfig(t)
	cfg.Workers = 2
	res2, _, err := RunPipeline(context.Background(), nil, cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Report() != res2.Report() {
		t.Fatal("faulted pipeline output depends on worker count")
	}
}

// TestChaosResumeKeepsDegradation: resuming a faulted run from its
// checkpoints replays degraded traces — the resumed run must re-raise the
// degradation state from the stored manifest (same degradation section,
// bdrmap still sitting it out, identical report) rather than silently
// treating the replayed data as clean.
func TestChaosResumeKeepsDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("two full faulted pipeline runs")
	}
	dir := t.TempDir()
	cfg := chaosConfig(t)
	res1, rep1, err := RunPipeline(context.Background(), nil, cfg, RunOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res2, rep2, err := RunPipeline(context.Background(), nil, cfg, RunOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Manifest.Degradation == nil {
		t.Fatal("resume dropped the manifest degradation section")
	}
	d1, _ := json.Marshal(rep1.Manifest.Degradation)
	d2, _ := json.Marshal(rep2.Manifest.Degradation)
	if string(d1) != string(d2) {
		t.Fatalf("degradation changed across resume:\n  fresh  %s\n  resume %s", d1, d2)
	}
	for _, sr := range rep2.Manifest.Stages {
		if sr.Name == "bdrmap" && sr.Status != pipeline.StatusSkippedDegraded {
			t.Errorf("bdrmap after resume = %q, want %q", sr.Status, pipeline.StatusSkippedDegraded)
		}
	}
	if res2.Bdrmap != nil {
		t.Error("resumed run produced a bdrmap comparison from degraded traces")
	}
	if res1.Report() != res2.Report() {
		t.Fatal("resumed faulted report differs from the fresh one")
	}
}

// TestSessionRestartKeepsDegradation: a Session restarted on its
// predecessor's checkpoint dir replays both faulted probing rounds. The
// degradation travels with each round's checkpoint gate, so the replayed
// rounds carry the live epoch's notes, bdrmap still sits them out, and the
// replay counts no probes (it sent none).
func TestSessionRestartKeepsDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("two full faulted pipeline runs")
	}
	dir := t.TempDir()
	epoch := func() (*Result, map[string]pipeline.StageResult) {
		s, err := NewSession(chaosConfig(t), SessionOptions{CheckpointDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		res, rep, err := s.RunEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		byName := map[string]pipeline.StageResult{}
		for _, sr := range rep.Stages {
			byName[sr.Name] = sr
		}
		return res, byName
	}
	res1, live := epoch()
	report1 := res1.Report()
	res2, replay := epoch()
	for _, round := range []string{"campaign", "expansion"} {
		l, r := live[round], replay[round]
		if l.Status != pipeline.StatusOK || !l.Degraded {
			t.Fatalf("live %s = %q degraded=%v, want a degraded ok round", round, l.Status, l.Degraded)
		}
		if r.Status != pipeline.StatusResumed || !r.Degraded {
			t.Errorf("restarted %s = %q degraded=%v, want resumed and degraded", round, r.Status, r.Degraded)
		}
		if strings.Join(r.Notes, "\n") != strings.Join(l.Notes, "\n") {
			t.Errorf("restarted %s notes %q, live %q", round, r.Notes, l.Notes)
		}
		if r.Counters["probes"] != 0 || r.Counters["retries"] != 0 {
			t.Errorf("restarted %s counted probes it never sent: %+v", round, r.Counters)
		}
	}
	for name, byName := range map[string]map[string]pipeline.StageResult{"live": live, "restarted": replay} {
		if got := byName["bdrmap"].Status; got != pipeline.StatusSkippedDegraded {
			t.Errorf("%s bdrmap = %q, want %q", name, got, pipeline.StatusSkippedDegraded)
		}
	}
	if res2.Report() != report1 {
		t.Fatal("restarted session's report differs from the live epoch's")
	}
}

// TestConfigHashFaultPlan: the fault plan participates in the config hash by
// value — equal plans at different addresses hash the same (a pointer in a
// %#v dump would differ every process), and changing a knob changes the hash
// so a resume cannot silently mix checkpoints from different plans.
func TestConfigHashFaultPlan(t *testing.T) {
	base := configHash(SmallConfig())

	cfgA := SmallConfig()
	cfgA.Faults = &faults.Plan{Seed: 7, Loss: &faults.LossPlan{WindowSec: 30, WindowProb: 0.1, LossProb: 0.5}}
	cfgB := SmallConfig()
	cfgB.Faults = &faults.Plan{Seed: 7, Loss: &faults.LossPlan{WindowSec: 30, WindowProb: 0.1, LossProb: 0.5}}
	if configHash(cfgA) != configHash(cfgB) {
		t.Error("equal fault plans at different addresses hash differently")
	}
	if configHash(cfgA) == base {
		t.Error("fault plan does not affect the config hash")
	}
	cfgC := SmallConfig()
	cfgC.Faults = &faults.Plan{Seed: 8, Loss: &faults.LossPlan{WindowSec: 30, WindowProb: 0.1, LossProb: 0.5}}
	if configHash(cfgC) == configHash(cfgA) {
		t.Error("fault plan seed does not affect the config hash")
	}
}

// TestMidDAGFailureLeavesResumableCheckpoints: when a mid-DAG stage fails,
// the manifest marks it failed and every downstream stage not-run, and the
// checkpoints written before the failure stay complete — removing the cause
// and resuming replays them instead of re-probing.
func TestMidDAGFailureLeavesResumableCheckpoints(t *testing.T) {
	dir := t.TempDir()
	// A directory squatting on the expansion checkpoint path makes
	// tracefile.Create fail, killing the expansion stage mid-DAG.
	blocker := filepath.Join(dir, "expansion.traces.bin")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}

	cfg := SmallConfig()
	res, rep, err := RunPipeline(context.Background(), nil, cfg, RunOptions{CheckpointDir: dir})
	if err == nil {
		t.Fatal("pipeline succeeded despite blocked expansion checkpoint")
	}
	if res != nil {
		t.Fatal("failed run returned a result")
	}
	if rep == nil {
		t.Fatal("failed run returned no report")
	}
	byName := map[string]pipeline.StageResult{}
	for _, sr := range rep.Manifest.Stages {
		byName[sr.Name] = sr
	}
	for name, want := range map[string]pipeline.Status{
		"topo-gen":  pipeline.StatusOK,
		"campaign":  pipeline.StatusOK,
		"border":    pipeline.StatusOK,
		"expansion": pipeline.StatusFailed,
	} {
		if got := byName[name].Status; got != want {
			t.Errorf("stage %s = %q, want %q", name, got, want)
		}
	}
	for _, name := range []string{"alias", "verify", "pinning", "vpi", "classify", "icg", "bdrmap", "evaluate"} {
		if got := byName[name].Status; got != pipeline.StatusNotRun {
			t.Errorf("downstream stage %s = %q, want %q", name, got, pipeline.StatusNotRun)
		}
	}
	if !strings.Contains(err.Error(), "expansion") {
		t.Errorf("error %q does not name the failing stage", err)
	}

	// The round-1 checkpoint written before the failure must be complete.
	sum, err := tracefile.ScanFile(filepath.Join(dir, "campaign.traces.bin"))
	if err != nil || !sum.Complete {
		t.Fatalf("campaign checkpoint after mid-DAG failure: sum=%+v err=%v", sum, err)
	}

	// Clear the cause; a resume must replay round 1 rather than re-probe.
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	res2, rep2, err := RunPipeline(context.Background(), nil, cfg, RunOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatalf("resume after clearing the failure: %v", err)
	}
	byName2 := map[string]pipeline.StageResult{}
	for _, sr := range rep2.Manifest.Stages {
		byName2[sr.Name] = sr
	}
	if got := byName2["campaign"].Status; got != pipeline.StatusResumed {
		t.Errorf("campaign after resume = %q, want %q", got, pipeline.StatusResumed)
	}
	if res2 == nil || res2.Report() == "" {
		t.Fatal("resumed run produced no report")
	}
}
