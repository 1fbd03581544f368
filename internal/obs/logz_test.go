package obs

import (
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestLogRingServesNewestRecords drives the ring the way the daemons do:
// through a real slog JSON handler and a component-scoped logger, scraped
// while it is written. /logz must serve exactly the newest logzSize
// records, oldest first, one JSON object per line; records below the
// handler's level never arrive.
func TestLogRingServesNewestRecords(t *testing.T) {
	var ring LogRing
	log := slog.New(slog.NewJSONHandler(&ring, &slog.HandlerOptions{Level: slog.LevelInfo})).
		With("component", "dispatch")
	const total = logzSize + 44
	scraped := make(chan struct{})
	go func() { // /logz scrapes race the writer
		defer close(scraped)
		for i := 0; i < 50; i++ {
			ring.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/logz", nil))
		}
	}()
	for i := 0; i < total; i++ {
		log.Info("agent lost", "i", i, "agent", "http://a:1")
		log.Debug("lease accepted", "i", i)
	}
	<-scraped

	rr := httptest.NewRecorder()
	ring.ServeHTTP(rr, httptest.NewRequest("GET", "/logz", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	lines := strings.Split(strings.TrimSuffix(rr.Body.String(), "\n"), "\n")
	if len(lines) != logzSize {
		t.Fatalf("/logz served %d lines, want %d", len(lines), logzSize)
	}
	for n, line := range lines {
		var rec struct {
			Level     string `json:"level"`
			Msg       string `json:"msg"`
			Component string `json:"component"`
			I         int    `json:"i"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not one JSON record: %v\n%s", n, err, line)
		}
		if rec.Msg != "agent lost" || rec.Component != "dispatch" || rec.Level != "INFO" {
			t.Fatalf("line %d = %s, want an INFO \"agent lost\" record from component dispatch", n, line)
		}
		if want := total - logzSize + n; rec.I != want {
			t.Fatalf("line %d carries i=%d, want %d (newest %d records, oldest first)", n, rec.I, want, logzSize)
		}
	}
}
