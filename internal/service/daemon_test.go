package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudmap"
	"cloudmap/internal/datasets"
	"cloudmap/internal/pipeline"
)

// tinyConfig is the smallest world the full pipeline runs meaningfully on —
// the daemon tests run several epochs each.
func tinyConfig() cloudmap.Config {
	cfg := cloudmap.SmallConfig()
	cfg.Topology.Scale = 0.02
	cfg.SkipBdrmap = true
	return cfg
}

func TestChurnApplyDeterministic(t *testing.T) {
	sys, err := cloudmap.NewSystem(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan := DefaultChurnPlan()
	a := plan.Apply(sys.Registry, 2)
	b := plan.Apply(sys.Registry, 2)
	ca, cb := datasets.Serialize(a, 1, nil), datasets.Serialize(b, 1, nil)
	for name, data := range ca.Files {
		if string(cb.Files[name]) != string(data) {
			t.Errorf("dataset %s differs between identical Apply calls", name)
		}
	}
	// A different epoch draws different churn.
	c := datasets.Serialize(plan.Apply(sys.Registry, 3), 1, nil)
	same := true
	for name, data := range ca.Files {
		if string(c.Files[name]) != string(data) {
			same = false
		}
	}
	if same {
		t.Error("epochs 2 and 3 drew identical churn")
	}
}

// statusesOf maps stage name -> status for one epoch report.
func statusesOf(rep *cloudmap.EpochReport) map[string]pipeline.Status {
	out := map[string]pipeline.Status{}
	for _, sr := range rep.Stages {
		out[sr.Name] = sr.Status
	}
	return out
}

// Facility-only churn must re-run exactly the facility-dependent inference:
// datasets (the corpus changed), pinning (consumes facilities), and its
// downstream closure — while the probing rounds, border inference, alias
// resolution, and verification all hash-skip.
func TestFacilityChurnRerunsExactlyDependentStages(t *testing.T) {
	if testing.Short() {
		t.Skip("facility-churn epoch pair skipped in -short mode")
	}
	cfg := tinyConfig()
	s, err := cloudmap.NewSession(cfg, cloudmap.SessionOptions{CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := s.RunEpoch(ctx); err != nil {
		t.Fatal(err)
	}

	plan := &ChurnPlan{Seed: 3, FacilityTenantMovesPerEpoch: 8}
	s.SetRegistry(plan.Apply(s.System().Registry, 2))
	_, rep, err := s.RunEpoch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st := statusesOf(rep)
	wantRun := []string{"datasets", "pinning", "classify", "icg", "invariants", "evaluate"}
	wantSkip := []string{"topo-gen", "campaign", "border", "expansion", "alias", "verify", "vpi"}
	for _, name := range wantRun {
		if st[name] != pipeline.StatusOK {
			t.Errorf("%s = %s, want %s", name, st[name], pipeline.StatusOK)
		}
	}
	for _, name := range wantSkip {
		if st[name] != pipeline.StatusSkippedUnchanged {
			t.Errorf("%s = %s, want %s", name, st[name], pipeline.StatusSkippedUnchanged)
		}
	}
	if got, first := len(rep.StagesRun()), len(wantRun); got != first {
		t.Errorf("epoch 2 ran %d stages (%v), want %d", got, rep.StagesRun(), first)
	}
}

// Prefix re-homing changes annotations, so the campaign must refresh — but
// by replaying its checkpoint (status "resumed"), never by re-probing.
func TestRehomeChurnReplaysCheckpointedCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("rehome-churn epoch pair skipped in -short mode")
	}
	cfg := tinyConfig()
	s, err := cloudmap.NewSession(cfg, cloudmap.SessionOptions{CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, rep1, err := s.RunEpoch(ctx); err != nil {
		t.Fatal(err)
	} else if st := statusesOf(rep1); st["campaign"] != pipeline.StatusOK {
		t.Fatalf("epoch 1 campaign = %s", st["campaign"])
	}

	plan := &ChurnPlan{Seed: 5, RehomePrefixesPerEpoch: 4}
	s.SetRegistry(plan.Apply(s.System().Registry, 2))
	_, rep, err := s.RunEpoch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st := statusesOf(rep)
	if st["campaign"] != pipeline.StatusResumed {
		t.Errorf("campaign = %s, want %s (checkpoint replay)", st["campaign"], pipeline.StatusResumed)
	}
	if st["topo-gen"] != pipeline.StatusSkippedUnchanged {
		t.Errorf("topo-gen = %s, want hash-skip", st["topo-gen"])
	}
	if len(rep.StagesRun()) >= 13 {
		t.Errorf("epoch 2 re-ran everything: %v", rep.StagesRun())
	}
}

// The epoch journal is part of the determinism contract: identical config,
// seed, and churn plan must journal byte-identically at any worker count.
func TestJournalByteIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("double daemon run skipped in -short mode")
	}
	run := func(workers int) string {
		t.Helper()
		cfg := tinyConfig()
		cfg.Workers = workers
		dir := t.TempDir()
		path := filepath.Join(dir, "epochs.wal")
		d, err := New(Config{
			Pipeline: cfg,
			Churn:    DefaultChurnPlan(),
			Epochs:   2,
			StateDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	j1, j8 := run(1), run(8)
	if j1 != j8 {
		t.Fatalf("journals differ between workers=1 and workers=8:\n--- w1 ---\n%s\n--- w8 ---\n%s", j1, j8)
	}
	if strings.Count(j1, "\n") != 2 {
		t.Fatalf("journal lines = %d, want 2", strings.Count(j1, "\n"))
	}
	// Every line is CRC-framed, decodes, and carries scheduling hashes.
	for _, line := range strings.Split(strings.TrimSpace(j1), "\n") {
		payload, err := parseWALLine([]byte(line))
		if err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		var e struct {
			Epoch  uint64 `json:"epoch"`
			Stages []struct {
				Name, Status string
				InputHash    string `json:"input_hash"`
			} `json:"stages"`
		}
		if err := json.Unmarshal(payload, &e); err != nil {
			t.Fatal(err)
		}
		if len(e.Stages) == 0 {
			t.Fatalf("epoch %d journalled no stages", e.Epoch)
		}
	}
}

// The delta stream must list exactly what changed: replaying every epoch's
// deltas over an empty map must reconstruct the final snapshot row for row.
func TestDeltasReconstructFinalSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("three-epoch daemon run skipped in -short mode")
	}
	d, err := New(Config{Pipeline: tinyConfig(), Churn: DefaultChurnPlan(), Epochs: 3, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	history, ok := d.Store().DeltasSince(0)
	if !ok {
		t.Fatal("DeltasSince(0) reported a resync with no retention limit set")
	}
	if len(history) != 3 {
		t.Fatalf("history epochs = %d", len(history))
	}
	// Epoch 1 diffs against nothing: adds only.
	for _, dl := range history[0].Deltas {
		if dl.Kind != "add" {
			t.Fatalf("epoch 1 delta kind = %s", dl.Kind)
		}
	}
	rebuilt := map[string]Peering{}
	for _, ed := range history {
		for _, dl := range ed.Deltas {
			switch dl.Kind {
			case "add", "update":
				rebuilt[dl.CBI] = dl.Peering
			case "remove":
				delete(rebuilt, dl.CBI)
			default:
				t.Fatalf("unknown delta kind %q", dl.Kind)
			}
		}
	}
	final := d.Store().Current()
	if len(rebuilt) != len(final.Peerings) {
		t.Fatalf("replay rebuilt %d rows, snapshot has %d", len(rebuilt), len(final.Peerings))
	}
	for _, p := range final.Peerings {
		got, ok := rebuilt[p.CBI]
		if !ok {
			t.Fatalf("replay missing %s", p.CBI)
		}
		if !got.sameAttrs(p) || got.FirstEpoch != p.FirstEpoch {
			t.Fatalf("replayed %s = %+v, snapshot %+v", p.CBI, got, p)
		}
	}
}

// Eight concurrent API readers hammer every endpoint while epochs run —
// the race detector (go test -race) patrols the store and handlers.
func TestConcurrentReadersDuringEpochs(t *testing.T) {
	d, err := New(Config{Pipeline: tinyConfig(), Churn: DefaultChurnPlan(), Epochs: 2, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	done := make(chan error, 1)
	go func() { done <- d.Run(context.Background()) }()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	paths := []string{"/v1/status", "/v1/peerings", "/v1/deltas?since=0", "/metrics", "/progress"}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + paths[(i+n)%len(paths)])
				if err != nil {
					continue // server shutting down
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("%s: %s", paths[(i+n)%len(paths)], resp.Status)
					return
				}
			}
		}(i)
	}
	if err := <-done; err != nil {
		t.Error(err)
	}
	close(stop)
	wg.Wait()

	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 2 || st.Peerings == 0 {
		t.Fatalf("final status = %+v", st)
	}
}

// The SSE watch endpoint replays recorded epochs and then streams live
// ones, closing cleanly when the daemon stops.
func TestWatchStreamsEpochDeltas(t *testing.T) {
	if testing.Short() {
		t.Skip("two-epoch daemon run skipped in -short mode")
	}
	d, err := New(Config{Pipeline: tinyConfig(), Churn: DefaultChurnPlan(), Epochs: 2, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	done := make(chan error, 1)
	go func() { done <- d.Run(context.Background()) }()

	resp, err := http.Get(srv.URL + "/v1/watch?since=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %s", ct)
	}
	var epochs []uint64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ed EpochDeltas
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ed); err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, ed.Epoch)
	}
	// The stream ends when the daemon stops (Done closes) — both epochs
	// must have arrived, in order, exactly once.
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(epochs) != "[1 2]" {
		t.Fatalf("watched epochs = %v", epochs)
	}
}

// Stop drains gracefully: the in-flight epoch completes and publishes, the
// journal flushes, and Run returns nil.
func TestGracefulStopDrainsInFlightEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("epoch-driving drain test skipped in -short mode")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "epochs.wal")
	d, err := New(Config{
		Pipeline:   tinyConfig(),
		Churn:      DefaultChurnPlan(),
		Epochs:     0, // unbounded: only Stop ends it
		EpochEvery: time.Hour,
		StateDir:   dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := d.Store().Subscribe()
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- d.Run(context.Background()) }()
	<-ch     // epoch 1 published
	d.Stop() // while the loop waits out EpochEvery
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run = %v, want nil on graceful stop", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after Stop")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(data), "\n") != 1 {
		t.Fatalf("journal after drain:\n%s", data)
	}
	if d.Epoch() != 1 {
		t.Fatalf("epoch = %d", d.Epoch())
	}
}
