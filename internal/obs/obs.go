// Package obs is the pipeline's observability layer: hierarchical spans
// with deterministic IDs, an append-only JSONL event journal, Chrome
// trace-event export, live progress gauges, and a debug HTTP server
// (Prometheus text metrics + pprof).
//
// The central discipline mirrors internal/faults and internal/datasets:
// everything that lands in the journal is a pure function of the run's
// configuration — span IDs derive from stage names, chunk indices, and
// virtual fault time, never from the wall clock, RNG state, or goroutine
// identity. Same seed + fault plan + dirty plan therefore produces the
// same journal (up to emission order, which worker scheduling permutes;
// compare journals sorted) at any worker count, so journals can be
// golden-tested and diffed across runs like any other pipeline artefact.
// Wall-clock timing exists only in the Chrome trace export, which is for
// humans staring at Perfetto, not for tests.
//
// A nil *Tracer (and a nil *Span, and a nil *Progress) is valid and makes
// every method a no-op, so instrumented code paths pay one nil check when
// observability is off.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"cloudmap/internal/rng"
)

// SpanID identifies a span. IDs are deterministic: a pure hash of the
// span's position in the hierarchy (parent ID, kind, name, caller key),
// rendered as 16 hex digits in the journal.
type SpanID uint64

func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// Attrs annotates an event. Values are pre-formatted strings so the JSON
// encoding (and therefore the journal) is byte-stable; encoding/json
// marshals map keys sorted.
type Attrs map[string]string

// deriveID computes a child span/event ID from its hierarchical position.
func deriveID(parent SpanID, kind, name string, key uint64) SpanID {
	h := uint64(parent) ^ 0x9e3779b97f4a7c15
	h = rng.StrHash(h, kind)
	h = rng.StrHash(h, name)
	return SpanID(rng.Mix64(h ^ key))
}

// journalEvent is one journal line. Only deterministic fields appear.
type journalEvent struct {
	Span   string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	// Ev is the event phase: "begin"/"end" bracket a span, "point" is an
	// instantaneous event.
	Ev    string `json:"ev"`
	Attrs Attrs  `json:"attrs,omitempty"`
}

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// consumed by chrome://tracing and Perfetto). Spans become "X" (complete)
// events with wall-clock ts/dur; point events become "i" (instant).
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"` // microseconds since tracer start
	Dur  float64 `json:"dur,omitempty"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	S    string  `json:"s,omitempty"` // instant-event scope
	Args Attrs   `json:"args,omitempty"`
}

// Tracer collects spans and events for one run. Create with NewTracer;
// a nil Tracer is a valid no-op sink.
type Tracer struct {
	mu      sync.Mutex
	journal io.Writer // nil: journal disabled
	jerr    error     // first journal write error
	chrome  bool      // collect Chrome trace events
	events  []chromeEvent
	counts  map[string]int64
	wall0   time.Time
}

// NewTracer returns a tracer streaming journal lines to journal (nil
// disables the journal) and, when chrome is set, buffering Chrome trace
// events for WriteChromeTrace.
func NewTracer(journal io.Writer, chrome bool) *Tracer {
	return &Tracer{
		journal: journal,
		chrome:  chrome,
		counts:  make(map[string]int64),
		wall0:   time.Now(),
	}
}

// emit writes one journal line and bumps the kind's count. Marshalling
// happens outside the lock, and only when there is a journal to write; the
// write is serialized.
func (t *Tracer) emit(ev journalEvent) {
	var line []byte
	var err error
	if t.journal != nil {
		line, err = json.Marshal(ev)
	}
	t.mu.Lock()
	t.counts[ev.Kind+":"+ev.Ev]++
	if t.journal != nil && t.jerr == nil {
		if err == nil {
			line = append(line, '\n')
			_, err = t.journal.Write(line)
		}
		t.jerr = err
	}
	t.mu.Unlock()
}

func (t *Tracer) emitChrome(ev chromeEvent) {
	if !t.chrome {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Err returns the first journal write error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jerr
}

// Counts returns the event tally by "kind:phase" (e.g. "stage:begin",
// "fault:point") — the manifest's span accounting.
func (t *Tracer) Counts() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.counts))
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// Root starts a top-level span. A nil tracer returns a nil (no-op) span.
func (t *Tracer) Root(kind, name string, key uint64) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tr: t, id: deriveID(0, kind, name, key), kind: kind, name: name, wall: time.Now()}
	t.emit(journalEvent{Span: s.id.String(), Kind: kind, Name: name, Ev: "begin"})
	return s
}

// WriteChromeTrace writes the buffered trace in Chrome trace-event JSON
// ({"traceEvents": [...]}), loadable in Perfetto or chrome://tracing.
// Thread-name metadata labels lane 0 "stages" and lanes 1..N "worker N".
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	t.mu.Lock()
	events := t.events
	t.mu.Unlock()
	lanes := map[int]bool{}
	for _, ev := range events {
		lanes[ev.TID] = true
	}
	laneIDs := make([]int, 0, len(lanes))
	for id := range lanes {
		laneIDs = append(laneIDs, id)
	}
	sort.Ints(laneIDs)
	all := make([]any, 0, len(events)+len(laneIDs))
	for _, id := range laneIDs {
		name := "stages"
		if id > 0 {
			name = fmt.Sprintf("worker %d", id)
		}
		all = append(all, map[string]any{
			"name": "thread_name", "ph": "M", "pid": 1, "tid": id,
			"args": map[string]string{"name": name},
		})
	}
	for _, ev := range events {
		all = append(all, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": all})
}

// Span is one unit of the trace hierarchy. All methods are safe on a nil
// receiver (no-ops), so instrumented code never branches on "tracing on?".
type Span struct {
	tr         *Tracer
	id         SpanID
	kind, name string
	lane       int
	wall       time.Time
}

// ID returns the span's deterministic ID (0 for a nil span).
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// Child starts a sub-span on the same Chrome lane as its parent. key
// disambiguates siblings sharing kind+name (chunk index, stage index).
func (s *Span) Child(kind, name string, key uint64) *Span {
	if s == nil {
		return nil
	}
	return s.ChildLane(kind, name, key, s.lane)
}

// ChildLane is Child on an explicit Chrome lane (0 = the stage lane,
// 1..N = probing workers), so the trace shows worker occupancy.
func (s *Span) ChildLane(kind, name string, key uint64, lane int) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, id: deriveID(s.id, kind, name, key), kind: kind, name: name, lane: lane, wall: time.Now()}
	s.tr.emit(journalEvent{Span: c.id.String(), Parent: s.id.String(), Kind: kind, Name: name, Ev: "begin"})
	return c
}

// End closes the span: an "end" journal event carrying attrs and one
// Chrome complete event with the span's wall-clock duration.
func (s *Span) End(attrs Attrs) {
	if s == nil {
		return
	}
	s.tr.emit(journalEvent{Span: s.id.String(), Kind: s.kind, Name: s.name, Ev: "end", Attrs: attrs})
	now := time.Now()
	s.tr.emitChrome(chromeEvent{
		Name: s.name, Cat: s.kind, Ph: "X",
		TS:  float64(s.wall.Sub(s.tr.wall0)) / float64(time.Microsecond),
		Dur: float64(now.Sub(s.wall)) / float64(time.Microsecond),
		PID: 1, TID: s.lane, Args: attrs,
	})
}

// Event records an instantaneous child event (a quarantine decision, a
// stage skip) in both the journal and the Chrome trace. key keeps the
// derived ID unique among same-named events under this span. Use Detail
// instead for high-volume events.
func (s *Span) Event(kind, name string, key uint64, attrs Attrs) {
	if s == nil {
		return
	}
	id := deriveID(s.id, kind, name, key)
	s.tr.emit(journalEvent{Span: id.String(), Parent: s.id.String(), Kind: kind, Name: name, Ev: "point", Attrs: attrs})
	s.tr.emitChrome(chromeEvent{
		Name: kind + ":" + name, Cat: kind, Ph: "i",
		TS:  float64(time.Since(s.tr.wall0)) / float64(time.Microsecond),
		PID: 1, TID: s.lane, S: "t", Args: attrs,
	})
}

// Detail is Event without the Chrome instant: the journal gets the full
// record, the trace stays loadable. Probing campaigns emit millions of
// fault/retry events — buffering each as a Chrome instant would dwarf the
// span data in both memory and file size, and Perfetto chokes long before
// that — so high-volume kinds go journal-only and their chunk span's end
// attrs carry the aggregates the human-facing trace needs.
func (s *Span) Detail(kind, name string, key uint64, attrs Attrs) {
	if s == nil {
		return
	}
	id := deriveID(s.id, kind, name, key)
	s.tr.emit(journalEvent{Span: id.String(), Parent: s.id.String(), Kind: kind, Name: name, Ev: "point", Attrs: attrs})
}
