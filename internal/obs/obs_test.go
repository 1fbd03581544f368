package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudmap/internal/metrics"
)

// TestSpanIDDeterminism: IDs are pure functions of hierarchy position —
// two tracers walking the same structure derive the same IDs, siblings and
// differing keys diverge.
func TestSpanIDDeterminism(t *testing.T) {
	build := func() []SpanID {
		tr := NewTracer(nil, false)
		run := tr.Root("run", "pipeline", 0)
		st := run.Child("stage", "campaign", 2)
		c0 := st.ChildLane("chunk", "aws:0-1024", 0, 1)
		c1 := st.ChildLane("chunk", "aws:1024-2048", 1, 2)
		return []SpanID{run.ID(), st.ID(), c0.ID(), c1.ID()}
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d: ID %s != %s across identical builds", i, a[i], b[i])
		}
	}
	seen := map[SpanID]bool{}
	for _, id := range a {
		if id == 0 {
			t.Fatal("derived span ID is zero")
		}
		if seen[id] {
			t.Fatalf("duplicate span ID %s", id)
		}
		seen[id] = true
	}
	if deriveID(a[1], "chunk", "x", 0) == deriveID(a[1], "chunk", "x", 1) {
		t.Fatal("key does not disambiguate sibling IDs")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Root("run", "x", 0)
	if sp != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	sp.Child("a", "b", 0).End(nil)
	sp.Event("a", "b", 0, nil)
	if sp.ID() != 0 {
		t.Fatal("nil span has non-zero ID")
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	var p *Progress
	p.SetStage("x", 1, 2)
	p.TraceDone()
	p.RetriesSpent(1)
	p.AddPlanned(1)
	p.AddQuarantined(1)
	if got := p.Snapshot().RetriesLeft; got != -1 {
		t.Fatalf("nil progress RetriesLeft = %d, want -1", got)
	}
}

// TestJournalContent checks the journal's line structure: begin/end
// bracketing, parent links, point events with sorted-key attrs.
func TestJournalContent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, false)
	run := tr.Root("run", "pipeline", 0)
	st := run.Child("stage", "campaign", 0)
	st.Event("fault", "lost", 7, Attrs{"dst": "10.0.0.1", "attempt": "1"})
	st.End(Attrs{"status": "ok"})
	run.End(nil)
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d journal lines, want 5:\n%s", len(lines), buf.String())
	}
	type ev struct {
		Span, Parent, Kind, Name, Ev string
		Attrs                        map[string]string
	}
	var evs []ev
	for _, ln := range lines {
		var e ev
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("bad journal line %q: %v", ln, err)
		}
		evs = append(evs, e)
	}
	if evs[0].Kind != "run" || evs[0].Ev != "begin" || evs[0].Parent != "" {
		t.Fatalf("first line not a root begin: %+v", evs[0])
	}
	if evs[1].Parent != evs[0].Span {
		t.Fatalf("stage parent %s != run span %s", evs[1].Parent, evs[0].Span)
	}
	if evs[2].Ev != "point" || evs[2].Kind != "fault" || evs[2].Name != "lost" {
		t.Fatalf("fault event mangled: %+v", evs[2])
	}
	if evs[2].Attrs["dst"] != "10.0.0.1" {
		t.Fatalf("fault attrs mangled: %v", evs[2].Attrs)
	}
	if evs[3].Ev != "end" || evs[3].Span != evs[1].Span {
		t.Fatalf("stage end mangled: %+v", evs[3])
	}
	// Attr keys must serialize sorted (encoding/json map behaviour) so the
	// journal is byte-stable.
	if !strings.Contains(lines[2], `"attempt":"1","dst":"10.0.0.1"`) {
		t.Fatalf("attrs not sorted in %q", lines[2])
	}

	counts := tr.Counts()
	want := map[string]int64{"run:begin": 1, "run:end": 1, "stage:begin": 1, "stage:end": 1, "fault:point": 1}
	for k, n := range want {
		if counts[k] != n {
			t.Fatalf("counts[%s] = %d, want %d (all: %v)", k, counts[k], n, counts)
		}
	}
}

// TestDetailWithoutJournalSkipsMarshal: a tracer with no journal (a
// -trace-out-only run) must not marshal the millions of fault/retry details
// a chaos campaign emits, so Detail allocates less than on a tracer writing
// a journal. Counts still tally every event.
func TestDetailWithoutJournalSkipsMarshal(t *testing.T) {
	attrs := Attrs{"class": "lost", "attempt": "2"}
	detailAllocs := func(tr *Tracer) float64 {
		sp := tr.Root("campaign", "round-1", 0)
		return testing.AllocsPerRun(200, func() { sp.Detail("fault", "point", 7, attrs) })
	}
	bare := NewTracer(nil, true)
	without := detailAllocs(bare)
	with := detailAllocs(NewTracer(io.Discard, true))
	if without >= with {
		t.Errorf("Detail without a journal allocates %v per call, with one %v: the event is still marshalled", without, with)
	}
	if n := bare.Counts()["fault:point"]; n < 200 {
		t.Errorf("counts[fault:point] = %d, want every Detail tallied", n)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(nil, true)
	run := tr.Root("run", "pipeline", 0)
	st := run.Child("stage", "campaign", 0)
	st.ChildLane("chunk", "aws:0-1024", 0, 2).End(Attrs{"targets": "1024"})
	st.Event("fault", "lost", 1, nil)
	st.Detail("retry", "attempt", 2, nil) // journal-only: no Chrome instant
	st.End(nil)
	run.End(nil)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var xEvents, instants, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			xEvents++
		case "i":
			instants++
		case "M":
			meta++
			if ev["name"] != "thread_name" {
				t.Fatalf("unexpected metadata event %v", ev)
			}
		}
	}
	if xEvents != 3 || instants != 1 { // run, stage, chunk spans; one fault; Detail invisible
		t.Fatalf("got %d X / %d instant events, want 3 / 1", xEvents, instants)
	}
	if meta < 2 { // lanes 0 and 2 at minimum
		t.Fatalf("got %d thread_name metadata events, want >=2", meta)
	}
	if got := tr.Counts()["retry:point"]; got != 1 {
		t.Fatalf("Detail event missing from journal counts: %v", tr.Counts())
	}
}

func TestProgressLineAndSnapshot(t *testing.T) {
	reg := metrics.NewRegistry()
	p := NewProgress(reg)
	p.SetStage("expansion", 5, 14)
	p.AddPlanned(200)
	for i := 0; i < 50; i++ {
		p.TraceDone()
	}
	p.SetRetryBudget(10)
	p.RetriesSpent(1)
	p.AddQuarantined(3)

	s := p.Snapshot()
	if s.Stage != "expansion" || s.TracesDone != 50 || s.TracesPlanned != 200 || s.RetriesLeft != 9 || s.Quarantined != 3 {
		t.Fatalf("snapshot mangled: %+v", s)
	}
	line := p.Line()
	for _, want := range []string{"expansion", "50/200", "(25.0%)", "retry budget 9", "quarantined 3"} {
		if !strings.Contains(line, want) {
			t.Fatalf("ticker line %q missing %q", line, want)
		}
	}

	// Unlimited budget: no budget segment, snapshot reports -1.
	p.SetRetryBudget(0)
	if got := p.Snapshot().RetriesLeft; got != -1 {
		t.Fatalf("unlimited RetriesLeft = %d, want -1", got)
	}
	if strings.Contains(p.Line(), "retry budget") {
		t.Fatalf("unlimited-budget line still shows budget: %q", p.Line())
	}

	// The progress gauges mirror into the registry.
	snap := reg.Snapshot()
	if snap.Gauges["progress.traces_done"] != 50 {
		t.Fatalf("progress.traces_done gauge = %v, want 50", snap.Gauges["progress.traces_done"])
	}
}

// lockedBuffer synchronises test reads against the ticker goroutine.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestStartTicker(t *testing.T) {
	var buf lockedBuffer
	p := NewProgress(nil)
	p.SetStage("campaign", 3, 14)
	stop := StartTicker(&buf, time.Millisecond, p)
	deadline := time.Now().Add(2 * time.Second)
	for buf.String() == "" && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	stop() // idempotent
	if !strings.Contains(buf.String(), "campaign") {
		t.Fatalf("ticker wrote %q, want a campaign progress line", buf.String())
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("probe.sent").Add(42)
	p := NewProgress(reg)
	p.SetStage("campaign", 3, 14)

	srv, err := Serve("127.0.0.1:0", reg, p)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "probe_sent 42") {
		t.Fatalf("/metrics -> %d:\n%s", code, body)
	}
	code, body := get("/progress")
	if code != 200 {
		t.Fatalf("/progress -> %d", code)
	}
	var snap ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil || snap.Stage != "campaign" {
		t.Fatalf("/progress body %q: err=%v snap=%+v", body, err, snap)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ -> %d:\n%.200s", code, body)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Fatalf("/nope -> %d, want 404", code)
	}
}
