package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"testing"

	"cloudmap/internal/tracefile"
)

// The crash chaos harness: every scenario kills a daemon somewhere awkward
// (mid-epoch abort, mid-journal-write tear, damaged checkpoint), restarts
// it on the same state dir, and holds it to the recovery contract — the
// continued journal and the final map must be byte-identical to an
// uninterrupted run's, epoch numbering must continue without gaps, and none
// of it may depend on the worker count.

func chaosConfig(dir string, workers, epochs int) Config {
	p := tinyConfig()
	p.Workers = workers
	return Config{
		Pipeline:        p,
		Churn:           DefaultChurnPlan(),
		Epochs:          epochs,
		StateDir:        dir,
		CheckpointEvery: 2,
	}
}

// runChaos builds and runs a daemon to its epoch target.
func runChaos(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return d
}

func journalBytes(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "epochs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// rowsJSON renders the live map — row attributes *and* FirstEpoch, which
// recovery must preserve from the journal, not re-stamp.
func rowsJSON(t *testing.T, d *Daemon) string {
	t.Helper()
	snap := d.Store().Current()
	if snap == nil {
		t.Fatal("no snapshot published")
	}
	data, err := json.Marshal(struct {
		Epoch uint64    `json:"epoch"`
		Rows  []Peering `json:"rows"`
	}{snap.Epoch, snap.Peerings})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestCrashRecoveryByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("crash chaos suite skipped in -short mode")
	}
	// The uninterrupted reference: four epochs, single worker.
	refDir := t.TempDir()
	refDaemon := runChaos(t, chaosConfig(refDir, 1, 4))
	refJournal := journalBytes(t, refDir)
	refRows := rowsJSON(t, refDaemon)
	refCkpt, err := os.ReadFile(checkpointFile(refDir, 4))
	if err != nil {
		t.Fatal(err)
	}
	if refDaemon.Recovery().Recovered {
		t.Fatal("reference run claims it recovered")
	}

	// Scenario: the process dies mid-run (context abort somewhere after
	// epoch 2 publishes — wherever in epoch 3 the abort lands, only fsynced
	// journal records survive). A restart at a different worker count must
	// converge on the reference bytes.
	t.Run("abort-mid-run", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		d1, err := New(chaosConfig(dir, 8, 4))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		ch, unsub := d1.Store().Subscribe()
		go func() {
			for n := 0; n < 2; n++ {
				<-ch
			}
			cancel()
		}()
		crashErr := d1.Run(ctx)
		unsub()
		if crashErr == nil {
			// The abort raced all four epochs finishing — the journal is
			// already complete and the restart below degenerates to a no-op
			// resume, which must still hold the invariants.
			t.Log("abort landed after the final epoch; restart resumes a complete journal")
		}

		d2, err := New(chaosConfig(dir, 8, 4))
		if err != nil {
			t.Fatal(err)
		}
		rec := d2.Recovery()
		if !rec.Recovered || rec.LastEpoch < 2 {
			t.Fatalf("recovery = %+v", rec)
		}
		if err := d2.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if d2.Epoch() != 4 {
			t.Fatalf("epoch after restart = %d, want 4", d2.Epoch())
		}
		if got := journalBytes(t, dir); !bytes.Equal(got, refJournal) {
			t.Errorf("continued journal diverges from uninterrupted reference:\n--- crashed+recovered ---\n%s\n--- reference ---\n%s", got, refJournal)
		}
		if got := rowsJSON(t, d2); got != refRows {
			t.Errorf("recovered map diverges:\n%s\nwant\n%s", got, refRows)
		}
		if got, err := os.ReadFile(checkpointFile(dir, 4)); err != nil || !bytes.Equal(got, refCkpt) {
			t.Errorf("checkpoint after recovery diverges (err=%v)", err)
		}
	})

	// Scenario: kill -9 mid-journal-write — the final record is torn. The
	// restart must truncate it, log the tear, re-run that epoch, and land on
	// the reference bytes.
	t.Run("torn-journal-tail", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		runChaos(t, chaosConfig(dir, 8, 3))
		jp := filepath.Join(dir, "epochs.wal")
		data := journalBytes(t, dir)
		lastStart := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
		cut := lastStart + (len(data)-lastStart)/2
		if err := os.WriteFile(jp, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		var logBuf bytes.Buffer
		cfg := chaosConfig(dir, 8, 4)
		cfg.Log = slog.New(slog.NewJSONHandler(&logBuf, nil))
		d2, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := d2.Recovery()
		if rec.TornTail == nil || rec.LastEpoch != 2 {
			t.Fatalf("recovery = %+v, want torn tail after epoch 2", rec)
		}
		if !bytes.Contains(logBuf.Bytes(), []byte("journal-torn-tail")) {
			t.Fatalf("torn tail not logged:\n%s", logBuf.String())
		}
		if v := d2.reg.Counter("service.journal_torn_tails").Value(); v != 1 {
			t.Fatalf("journal_torn_tails = %d", v)
		}
		if err := d2.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := journalBytes(t, dir); !bytes.Equal(got, refJournal) {
			t.Errorf("journal after torn-tail recovery diverges:\n%s\nwant\n%s", got, refJournal)
		}
		if got := rowsJSON(t, d2); got != refRows {
			t.Errorf("map after torn-tail recovery diverges:\n%s\nwant\n%s", got, refRows)
		}
	})

	// Scenario: the newest checkpoint is damaged (a crash or disk fault).
	// Rehydration must fall back to the older generation plus journal
	// replay and reconstruct the identical map.
	t.Run("corrupt-newest-checkpoint", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		runChaos(t, chaosConfig(dir, 8, 4))
		if err := os.WriteFile(checkpointFile(dir, 4), []byte("ffffffff not a checkpoint\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		d2, err := New(chaosConfig(dir, 8, 4))
		if err != nil {
			t.Fatal(err)
		}
		rec := d2.Recovery()
		if !rec.Recovered || rec.CheckpointEpoch != 2 || rec.ReplayedEntries != 2 || len(rec.RejectedCheckpoints) != 1 {
			t.Fatalf("recovery = %+v, want fallback to checkpoint 2 with 2 replayed records", rec)
		}
		// The epoch target is already durable: Run resumes numbering and
		// exits without running anything new.
		if err := d2.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if d2.Epoch() != 4 {
			t.Fatalf("epoch = %d", d2.Epoch())
		}
		if got := journalBytes(t, dir); !bytes.Equal(got, refJournal) {
			t.Error("journal changed during checkpoint-fallback recovery")
		}
		if got := rowsJSON(t, d2); got != refRows {
			t.Errorf("map after checkpoint fallback diverges:\n%s\nwant\n%s", got, refRows)
		}
	})

	// Scenario: SIGKILL tears the binary probe checkpoint mid-frame (the
	// file under probes/ ends inside a CRC frame). The next epoch must
	// detect the truncation, re-probe instead of trusting the torn file,
	// and still converge on the reference bytes.
	t.Run("torn-probe-checkpoint", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		runChaos(t, chaosConfig(dir, 8, 3))
		cp := filepath.Join(dir, "probes", "campaign.traces.bin")
		raw, err := os.ReadFile(cp)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cp, raw[:len(raw)-31], 0o644); err != nil {
			t.Fatal(err)
		}

		d2, err := New(chaosConfig(dir, 8, 4))
		if err != nil {
			t.Fatal(err)
		}
		if rec := d2.Recovery(); !rec.Recovered || rec.LastEpoch != 3 {
			t.Fatalf("recovery = %+v", rec)
		}
		if err := d2.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := journalBytes(t, dir); !bytes.Equal(got, refJournal) {
			t.Errorf("journal after torn probe checkpoint diverges:\n%s\nwant\n%s", got, refJournal)
		}
		if got := rowsJSON(t, d2); got != refRows {
			t.Errorf("map after torn probe checkpoint diverges:\n%s\nwant\n%s", got, refRows)
		}
		// Epoch 4 healed the checkpoint by re-probing and rewriting it.
		if sum, err := tracefile.ScanFile(cp); err != nil || !sum.Complete {
			t.Fatalf("probe checkpoint not healed: %+v, %v", sum, err)
		}
	})
}

// A restarted daemon whose state dir belongs to a different world (other
// seed) must refuse to continue rather than journal garbage: the warm-up
// epoch's input hashes cannot match the journal's.
func TestRecoveryRefusesForeignStateDir(t *testing.T) {
	if testing.Short() {
		t.Skip("two-run recovery test skipped in -short mode")
	}
	dir := t.TempDir()
	runChaos(t, chaosConfig(dir, 1, 2))

	cfg := chaosConfig(dir, 1, 4)
	cfg.Pipeline.Topology.Seed += 17
	d, err := New(cfg)
	if err != nil {
		// Rehydration itself may already notice (row-count mismatch).
		return
	}
	if err := d.Run(context.Background()); err == nil {
		t.Fatal("daemon continued a journal from a different seed")
	}
}

func TestRecoveryEpochNumberingContinues(t *testing.T) {
	if testing.Short() {
		t.Skip("two-run recovery test skipped in -short mode")
	}
	dir := t.TempDir()
	d1 := runChaos(t, chaosConfig(dir, 1, 2))
	if d1.Epoch() != 2 {
		t.Fatalf("first run epoch = %d", d1.Epoch())
	}
	// Raising the target on restart runs exactly the missing epoch.
	d2 := runChaos(t, chaosConfig(dir, 1, 3))
	if d2.Epoch() != 3 {
		t.Fatalf("resumed run epoch = %d", d2.Epoch())
	}
	recs := readJournal(t, filepath.Join(dir, "epochs.wal"))
	var epochs []any
	for _, m := range recs {
		epochs = append(epochs, m["epoch"])
	}
	if fmt.Sprint(epochs) != "[1 2 3]" {
		t.Fatalf("journal epochs = %v", epochs)
	}
}
