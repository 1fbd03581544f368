package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudmap/internal/metrics"
	"cloudmap/internal/obs"
)

// bareDaemon wires a Daemon around a store without a pipeline session —
// enough for the HTTP surface, cheap enough for hardening tests that drive
// the store by hand.
func bareDaemon(watchBuf int) *Daemon {
	st := NewStore()
	if watchBuf > 0 {
		st.watchBuf = watchBuf
	}
	reg := metrics.NewRegistry()
	d := &Daemon{
		cfg:             Config{Progress: obs.NewProgress(reg), WatchKeepalive: -1},
		store:           st,
		reg:             reg,
		stopCh:          make(chan struct{}),
		cWatchEvictions: reg.Counter("service.watch_evictions"),
	}
	st.onEvict = func() { d.cWatchEvictions.Inc() }
	return d
}

func TestStoreRetentionTrimsAndReportsResync(t *testing.T) {
	st := NewStore()
	st.historyLimit = 2
	for e := uint64(1); e <= 4; e++ {
		st.Publish(snapOf(e, row("10.0.0.1", 100, "Pb-B", "fra", e)))
	}
	if got := st.Trimmed(); got != 2 {
		t.Fatalf("trimmed = %d, want 2 (epochs 1-2 dropped)", got)
	}
	if _, ok := st.DeltasSince(0); ok {
		t.Fatal("since=0 served incrementally past the retention horizon")
	}
	if _, ok := st.DeltasSince(1); ok {
		t.Fatal("since=1 served incrementally past the retention horizon")
	}
	eds, ok := st.DeltasSince(2)
	if !ok || len(eds) != 2 || eds[0].Epoch != 3 || eds[1].Epoch != 4 {
		t.Fatalf("since=2 = %+v (ok=%v)", eds, ok)
	}
	if eds, ok := st.DeltasSince(4); !ok || len(eds) != 0 {
		t.Fatalf("since=current = %+v (ok=%v)", eds, ok)
	}
}

// A subscriber that never drains is evicted — dropped from the hub with its
// channel closed — instead of stalling the publisher or buffering forever.
func TestStoreEvictsStalledSubscriber(t *testing.T) {
	st := NewStore()
	st.watchBuf = 2
	evictions := 0
	st.onEvict = func() { evictions++ }
	stalled, cancelStalled := st.Subscribe()
	healthy, cancelHealthy := st.Subscribe()
	defer cancelHealthy()

	for e := uint64(1); e <= 3; e++ {
		st.Publish(snapOf(e, row("10.0.0.1", 100, "Pb-B", "fra", e)))
		<-healthy // healthy reader keeps up and must never be evicted
	}
	if evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
	// The stalled channel still delivers what it buffered, then reports
	// closure — the consumer's signal to resync.
	var got []uint64
	for ed := range stalled {
		got = append(got, ed.Epoch)
	}
	if len(got) != 2 {
		t.Fatalf("stalled subscriber drained %v before close", got)
	}
	cancelStalled() // idempotent after eviction
	st.Publish(snapOf(4, row("10.0.0.1", 100, "Pb-B", "fra", 4)))
	select {
	case ed := <-healthy:
		if ed.Epoch != 4 {
			t.Fatalf("healthy subscriber got %d", ed.Epoch)
		}
	case <-time.After(time.Second):
		t.Fatal("healthy subscriber starved after another's eviction")
	}
}

// /v1/deltas older than the retained history answers 410 Gone with an
// explicit resync document instead of a silently incomplete delta list.
func TestDeltasEndpointRepliesResyncGone(t *testing.T) {
	d := bareDaemon(0)
	d.store.historyLimit = 2
	for e := uint64(1); e <= 4; e++ {
		d.store.Publish(snapOf(e, row("10.0.0.1", 100, "Pb-B", "fra", e)))
	}
	get := func(since string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		d.handleDeltas(rr, httptest.NewRequest("GET", "/v1/deltas?since="+since, nil))
		return rr
	}
	rr := get("1")
	if rr.Code != http.StatusGone {
		t.Fatalf("since=1 status = %d, want 410", rr.Code)
	}
	var re ResyncReply
	if err := json.Unmarshal(rr.Body.Bytes(), &re); err != nil {
		t.Fatal(err)
	}
	if !re.Resync || re.Epoch != 4 {
		t.Fatalf("resync reply = %+v", re)
	}
	rr = get("2")
	if rr.Code != http.StatusOK {
		t.Fatalf("since=2 status = %d", rr.Code)
	}
	var dr DeltasReply
	if err := json.Unmarshal(rr.Body.Bytes(), &dr); err != nil {
		t.Fatal(err)
	}
	if len(dr.Epochs) != 2 {
		t.Fatalf("since=2 epochs = %d", len(dr.Epochs))
	}
}

// stallWriter is an SSE sink whose first write blocks until released — a
// deterministic stand-in for a stalled watch client.
type stallWriter struct {
	blocked chan struct{} // closed when the first Write is blocking
	release chan struct{} // close to let writes proceed
	once    sync.Once

	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *stallWriter) Header() http.Header { return http.Header{} }
func (w *stallWriter) WriteHeader(int)     {}
func (w *stallWriter) Flush()              {}
func (w *stallWriter) String() string      { w.mu.Lock(); defer w.mu.Unlock(); return w.buf.String() }
func (w *stallWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.blocked)
		<-w.release
	})
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// A watch subscriber that stalls long enough to overflow its bounded buffer
// is evicted; once it wakes it receives what the store still retains plus a
// resync event, and the handler exits. Run under -race, this also patrols
// the publish/evict/handler interleaving.
func TestWatchStalledClientEvictedWithResync(t *testing.T) {
	d := bareDaemon(1)
	d.store.Publish(snapOf(1, row("10.0.0.1", 100, "Pb-B", "fra", 1)))

	w := &stallWriter{blocked: make(chan struct{}), release: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		d.handleWatch(w, httptest.NewRequest("GET", "/v1/watch?since=0", nil))
		close(done)
	}()
	<-w.blocked // handler is stalled emitting epoch 1
	// Two more epochs: the first parks in the size-1 buffer, the second
	// overflows it and evicts the subscriber.
	d.store.Publish(snapOf(2, row("10.0.0.1", 100, "Pb-B", "fra", 2)))
	d.store.Publish(snapOf(3, row("10.0.0.1", 100, "Pb-B", "fra", 3)))
	if v := d.reg.Counter("service.watch_evictions").Value(); v != 1 {
		t.Fatalf("watch_evictions = %d, want 1", v)
	}
	close(w.release)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler did not exit after eviction")
	}
	out := w.String()
	for _, want := range []string{"id: 1", "id: 2", "id: 3", "event: resync"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stream missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "event: resync") < strings.Index(out, "id: 3") {
		t.Fatalf("resync arrived before the retained catch-up:\n%s", out)
	}
}

// Idle watch connections receive periodic SSE comment keepalives.
func TestWatchKeepaliveComments(t *testing.T) {
	d := bareDaemon(0)
	d.cfg.WatchKeepalive = 15 * time.Millisecond
	d.store.Publish(snapOf(1, row("10.0.0.1", 100, "Pb-B", "fra", 1)))
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	defer d.Stop()

	resp, err := http.Get(srv.URL + "/v1/watch?since=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	deadline := time.AfterFunc(10*time.Second, func() { resp.Body.Close() })
	defer deadline.Stop()
	sc := bufio.NewScanner(resp.Body)
	keepalives := 0
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), ": keepalive") {
			if keepalives++; keepalives == 2 {
				return
			}
		}
	}
	t.Fatalf("saw %d keepalive comments before the stream ended", keepalives)
}
