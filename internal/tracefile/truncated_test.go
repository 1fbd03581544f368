package tracefile

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cloudmap/internal/probe"
)

// TestTruncatedKeepsPrefix: records in the chunks before the cut are still
// delivered, so a truncated checkpoint is a usable partial campaign.
func TestTruncatedKeepsPrefix(t *testing.T) {
	whole := writeBinary(t, synthTraces(3*binChunkRecords), true)
	got := 0
	sum, err := Replay(bytes.NewReader(whole[:len(whole)*3/4]), func(probe.Trace) { got++ })
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
	if got == 0 || sum.Traces != got {
		t.Fatalf("prefix replay delivered %d traces (summary %d)", got, sum.Traces)
	}
	if sum.Complete {
		t.Fatal("truncated stream marked complete")
	}
}

// TestScanFileTruncated: the completeness probe surfaces the same
// diagnosable error for an on-disk truncated checkpoint, whether it was
// torn mid-frame or inside its magic.
func TestScanFileTruncated(t *testing.T) {
	whole := writeBinary(t, synthTraces(50), true)
	path := filepath.Join(t.TempDir(), "campaign.traces.bin")
	for _, cut := range []int{len(whole) / 2, 3, 0} {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ScanFile(path); !errors.Is(err, ErrTruncated) {
			t.Errorf("ScanFile on checkpoint cut at %d: %v, want ErrTruncated", cut, err)
		}
		if _, err := StatFile(path); !errors.Is(err, ErrTruncated) {
			t.Errorf("StatFile on checkpoint cut at %d: %v, want ErrTruncated", cut, err)
		}
	}

	// An intact file still scans complete.
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	sum, err := ScanFile(path)
	if err != nil || !sum.Complete {
		t.Fatalf("intact file: sum=%+v err=%v", sum, err)
	}
}
