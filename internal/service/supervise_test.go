package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

// readJournal parses every WAL payload in the journal at path.
func readJournal(t *testing.T, path string) []map[string]any {
	t.Helper()
	payloads, _, torn, err := readWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != nil {
		t.Fatalf("journal has torn tail: %+v", torn)
	}
	var out []map[string]any
	for _, p := range payloads {
		var m map[string]any
		if err := json.Unmarshal(p, &m); err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// A transient epoch failure is retried with the same epoch number; the
// retry's success journals normally and the failure leaves an epoch-failed
// record behind it.
func TestFailedEpochRetriedWithSameNumber(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-epoch supervision run skipped in -short mode")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "epochs.wal")
	d, err := New(Config{
		Pipeline:     tinyConfig(),
		Churn:        DefaultChurnPlan(),
		Epochs:       3,
		EpochRetries: 2,
		StateDir:     dir,
		testEpochErr: func(epoch uint64, attempt int) error {
			if epoch == 2 && attempt == 1 {
				return errors.New("injected transient failure")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatalf("Run = %v, want nil (failure was retryable)", err)
	}
	if d.Epoch() != 3 {
		t.Fatalf("final epoch = %d", d.Epoch())
	}
	recs := readJournal(t, path)
	var kinds []string
	for _, m := range recs {
		if m["kind"] == journalKindFailure {
			kinds = append(kinds, fmt.Sprintf("fail(%v,%v)", m["epoch"], m["attempt"]))
		} else {
			failed := m["failed"] == true
			kinds = append(kinds, fmt.Sprintf("epoch(%v,failed=%v)", m["epoch"], failed))
		}
	}
	want := "[epoch(1,failed=false) fail(2,1) epoch(2,failed=false) epoch(3,failed=false)]"
	if got := fmt.Sprint(kinds); got != want {
		t.Fatalf("journal sequence = %v, want %v", got, want)
	}
	if v := d.reg.Counter("service.epoch_retries").Value(); v != 1 {
		t.Fatalf("epoch_retries = %d", v)
	}
	if v := d.reg.Counter("service.epoch_failures").Value(); v != 1 {
		t.Fatalf("epoch_failures = %d", v)
	}
	if v := d.reg.Counter("service.epochs_degraded").Value(); v != 0 {
		t.Fatalf("epochs_degraded = %d", v)
	}
}

// Retries exhausted: the supervisor publishes the previous map under the
// failed epoch's number (empty delta set, journal record marked failed) and
// the loop continues — the process never dies and the next epoch recovers.
func TestExhaustedRetriesPublishDegradedEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-epoch supervision run skipped in -short mode")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "epochs.wal")
	d, err := New(Config{
		Pipeline:     tinyConfig(),
		Churn:        DefaultChurnPlan(),
		Epochs:       3,
		EpochRetries: 1,
		StateDir:     dir,
		testEpochErr: func(epoch uint64, attempt int) error {
			if epoch == 2 {
				return errors.New("injected persistent failure")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatalf("Run = %v, want nil (degraded epochs are survivable)", err)
	}
	if d.Epoch() != 3 {
		t.Fatalf("final epoch = %d", d.Epoch())
	}
	history, ok := d.Store().DeltasSince(0)
	if !ok || len(history) != 3 {
		t.Fatalf("history = %d epochs (ok=%v)", len(history), ok)
	}
	if len(history[1].Deltas) != 0 {
		t.Fatalf("degraded epoch published %d deltas, want 0", len(history[1].Deltas))
	}
	recs := readJournal(t, path)
	if len(recs) != 5 { // e1, fail(2,1), fail(2,2), e2 degraded, e3
		t.Fatalf("journal records = %d, want 5", len(recs))
	}
	deg := recs[3]
	if deg["epoch"] != float64(2) || deg["failed"] != true {
		t.Fatalf("degraded record = %v", deg)
	}
	// The degraded epoch republished the previous map.
	if deg["peerings"] != recs[0]["peerings"] {
		t.Fatalf("degraded epoch peerings = %v, epoch 1 had %v", deg["peerings"], recs[0]["peerings"])
	}
	if v := d.reg.Counter("service.epochs_degraded").Value(); v != 1 {
		t.Fatalf("epochs_degraded = %d", v)
	}
	if v := d.reg.Counter("service.epoch_failures").Value(); v != 2 {
		t.Fatalf("epoch_failures = %d", v)
	}
}

// The per-epoch deadline is a retryable failure, not a process death: an
// epoch that can never meet it degrades and the daemon keeps serving.
func TestEpochDeadlineDegradesInsteadOfKilling(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "epochs.wal")
	d, err := New(Config{
		Pipeline:     tinyConfig(),
		Churn:        DefaultChurnPlan(),
		Epochs:       1,
		EpochTimeout: time.Nanosecond, // expires before the first stage
		EpochRetries: 1,
		StateDir:     dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatalf("Run = %v, want nil", err)
	}
	if d.Epoch() != 1 {
		t.Fatalf("epoch = %d", d.Epoch())
	}
	if snap := d.Store().Current(); len(snap.Peerings) != 0 {
		t.Fatalf("deadline-degraded first epoch published %d rows", len(snap.Peerings))
	}
	recs := readJournal(t, path)
	if len(recs) != 3 { // fail(1,1), fail(1,2), epoch 1 degraded
		t.Fatalf("journal records = %d, want 3", len(recs))
	}
	if recs[0]["kind"] != journalKindFailure || recs[2]["failed"] != true {
		t.Fatalf("journal = %v", recs)
	}
}

// Cancelling Run's context is a hard abort, never retried.
func TestParentCancelAbortsWithoutRetry(t *testing.T) {
	calls := 0
	d, err := New(Config{
		Pipeline:     tinyConfig(),
		Epochs:       2,
		EpochRetries: 5,
		StateDir:     t.TempDir(),
		testEpochErr: func(epoch uint64, attempt int) error {
			calls++
			return context.Canceled
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.Run(ctx); err == nil {
		t.Fatal("Run = nil after parent cancellation")
	}
	if calls > 1 {
		t.Fatalf("cancelled epoch attempted %d times, want 1", calls)
	}
}
