package obs

import (
	"net/http"
	"sync"
)

// logzSize bounds the /logz ring: enough for the recent past of a daemon
// (epoch supervision, agent churn) without letting a chatty debug session
// grow the process.
const logzSize = 256

// LogRing keeps the newest logzSize log lines and serves them, oldest
// first, at /logz. Put it behind slog.NewJSONHandler (usually through
// io.MultiWriter next to stderr): the handler writes one record per Write.
// The zero value is ready to use.
type LogRing struct {
	mu    sync.Mutex
	lines [][]byte
	next  int // oldest line once the ring is full
}

// Write stores one record. It copies p: slog reuses its buffer.
func (r *LogRing) Write(p []byte) (int, error) {
	line := append([]byte(nil), p...)
	r.mu.Lock()
	if len(r.lines) < logzSize {
		r.lines = append(r.lines, line)
	} else {
		r.lines[r.next] = line
		r.next = (r.next + 1) % logzSize
	}
	r.mu.Unlock()
	return len(p), nil
}

// ServeHTTP writes the ring as JSON lines.
func (r *LogRing) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	r.mu.Lock()
	lines := append(append([][]byte(nil), r.lines[r.next:]...), r.lines[:r.next]...)
	r.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	for _, line := range lines {
		w.Write(line)
	}
}
