package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"cloudmap/internal/faults"
	"cloudmap/internal/metrics"
	"cloudmap/internal/obs"
	"cloudmap/internal/probe"
	"cloudmap/internal/tracefile"
)

// AgentOptions configures one probe agent.
type AgentOptions struct {
	// ID names the agent in logs, health documents, and chaos draws.
	ID string
	// Prober is the agent's probing plane, built from the same config the
	// controller runs (same scale, seed, and fault plan).
	Prober *probe.Prober
	// Fingerprint guards the lease protocol; leases carrying a different
	// fingerprint are refused with 409 (see Fingerprint).
	Fingerprint string
	// Workers bounds concurrently executing leases; <=0 uses all CPUs.
	Workers int
	// Chaos, when non-nil, injects the deterministic agent-fault schedule
	// (crashes, stalls, partitions) — test and chaos-drill machinery.
	Chaos *faults.AgentChaos
	// Exit is the crash hook Chaos uses: a real agent process exits
	// (cmd/cloudmapagent installs os.Exit), in-process test agents close
	// their listener instead. Nil defaults to os.Exit(3).
	Exit func(reason string)
	// Log receives lease and chaos events; nil discards.
	Log *slog.Logger
	// Metrics, when non-nil, mirrors the agent's self-reported stats as
	// agent.* counters so the agent's own /metrics endpoint exposes them.
	Metrics *metrics.Registry
	// Progress, when non-nil, receives per-trace progress from executing
	// leases (the agent's own /progress endpoint).
	Progress *obs.Progress
}

// Agent executes work leases against a local probing plane and reports the
// results as complete single-campaign binary tracefiles. Handlers are safe
// for concurrent use; lease execution is bounded by Workers.
type Agent struct {
	opts AgentOptions
	sem  chan struct{}

	done     atomic.Int64
	inflight atomic.Int64
	draining atomic.Bool

	traces  atomic.Int64
	retries atomic.Int64
	fLost   atomic.Int64
	fRate   atomic.Int64
	fOut    atomic.Int64
	fFlap   atomic.Int64

	mLeases, mTraces, mRetries, mFaults *metrics.Counter
}

// NewAgent builds the agent server state.
func NewAgent(opts AgentOptions) *Agent {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	log := orDiscard(opts.Log).With("component", "agent")
	opts.Log = log
	if opts.Exit == nil {
		opts.Exit = func(reason string) {
			log.Error("agent exiting", "agent", opts.ID, "reason", reason)
			os.Exit(3)
		}
	}
	a := &Agent{opts: opts, sem: make(chan struct{}, opts.Workers)}
	if opts.Metrics != nil {
		a.mLeases = opts.Metrics.Counter("agent.leases_done")
		a.mTraces = opts.Metrics.Counter("agent.traces_probed")
		a.mRetries = opts.Metrics.Counter("agent.retries")
		a.mFaults = opts.Metrics.Counter("agent.faults")
	}
	return a
}

// Stats snapshots the agent's self-reported telemetry block.
func (a *Agent) Stats() AgentStats {
	return AgentStats{
		LeasesDone:        a.done.Load(),
		TracesProbed:      a.traces.Load(),
		Retries:           a.retries.Load(),
		FaultsLost:        a.fLost.Load(),
		FaultsRateLimited: a.fRate.Load(),
		FaultsOutages:     a.fOut.Load(),
		FaultsFlapped:     a.fFlap.Load(),
		Inflight:          a.inflight.Load(),
		Draining:          a.draining.Load(),
	}
}

// BeginDrain flips the agent into draining: new leases are refused with 503
// (the controller redispatches them elsewhere) while in-flight leases run to
// completion. Idempotent.
func (a *Agent) BeginDrain() {
	if !a.draining.Swap(true) {
		a.opts.Log.Info("agent draining", "agent", a.opts.ID, "inflight", a.inflight.Load())
	}
}

// Drain blocks until every in-flight lease has finished, or ctx expires.
// Call BeginDrain first so no new leases arrive while waiting.
func (a *Agent) Drain(ctx context.Context) error {
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		if a.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("dispatch: drain: %d leases still in flight: %w", a.inflight.Load(), ctx.Err())
		case <-t.C:
		}
	}
}

// Handler serves the agent protocol: GET /agent/v1/health heartbeats and
// POST /agent/v1/lease work leases.
func (a *Agent) Handler() http.Handler {
	mux := http.NewServeMux()
	a.Mount(mux)
	return mux
}

// Mount adds the agent protocol routes to an existing mux — typically the
// obs.NewMux admin plane, so one listener serves leases, /metrics,
// /progress, and pprof together.
func (a *Agent) Mount(mux *http.ServeMux) {
	mux.HandleFunc(healthPath, a.handleHealth)
	mux.HandleFunc(leasePath, a.handleLease)
}

func (a *Agent) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(Health{
		ID:          a.opts.ID,
		Fingerprint: a.opts.Fingerprint,
		LeasesDone:  a.done.Load(),
		Stats:       a.Stats(),
	})
}

func (a *Agent) handleLease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if a.draining.Load() {
		http.Error(w, "agent draining", http.StatusServiceUnavailable)
		return
	}
	var lease Lease
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&lease); err != nil {
		http.Error(w, fmt.Sprintf("lease decode: %v", err), http.StatusBadRequest)
		return
	}
	if lease.Fingerprint != a.opts.Fingerprint {
		a.opts.Log.Warn("refusing lease", "agent", a.opts.ID, "lease", lease.ID,
			"reason", "world fingerprint mismatch", "got", lease.Fingerprint, "want", a.opts.Fingerprint)
		http.Error(w, "world fingerprint mismatch", http.StatusConflict)
		return
	}
	if crc := TargetsCRC(lease.Targets); crc != lease.TargetsCRC {
		a.opts.Log.Warn("refusing lease", "agent", a.opts.ID, "lease", lease.ID,
			"reason", "target crc mismatch", "got", fmt.Sprintf("%08x", crc), "want", fmt.Sprintf("%08x", lease.TargetsCRC))
		http.Error(w, "lease target crc mismatch", http.StatusBadRequest)
		return
	}

	// The lease is accepted from here on: it counts as in flight even while
	// chaos-stalled, so health documents and drains see it.
	a.inflight.Add(1)
	defer a.inflight.Add(-1)

	// Chaos, in severity order. Partition: the agent is unreachable for
	// this window — refuse at transport level (the controller treats any
	// non-200 as a failed lease and re-dispatches). Stall: freeze before
	// probing, long enough to trip the lease deadline. Crash: the process
	// dies mid-chunk; the controller sees the connection drop.
	chunk := lease.Chunk.Index
	if a.opts.Chaos.PartitionedOn(chunk) {
		a.opts.Log.Warn("chaos partition", "agent", a.opts.ID, "lease", lease.ID, "chunk", chunk)
		http.Error(w, "chaos: partitioned", http.StatusServiceUnavailable)
		return
	}
	if d := a.opts.Chaos.StallFor(chunk); d > 0 {
		a.opts.Log.Warn("chaos stall", "agent", a.opts.ID, "lease", lease.ID, "chunk", chunk, "dur", d)
		select {
		case <-time.After(d):
		case <-r.Context().Done():
			return // controller gave up; nothing useful to send
		}
	}
	if a.opts.Chaos.CrashOn(chunk) {
		a.opts.Log.Warn("chaos crash", "agent", a.opts.ID, "lease", lease.ID, "chunk", chunk)
		a.opts.Exit(fmt.Sprintf("chaos crash on chunk %d", chunk))
		return // in-process agents: the listener is gone, the response goes nowhere
	}

	a.sem <- struct{}{}
	defer func() { <-a.sem }()
	a.opts.Log.Debug("lease accepted", "agent", a.opts.ID, "lease", lease.ID,
		"chunk", chunk, "span", lease.Chunk.Span(), "targets", len(lease.Targets))

	// Trace propagation: when the controller runs with tracing on, the lease
	// carries its stage span ID. Executing the chunk under a RemoteSpan on a
	// capture tracer derives the exact span IDs a local run derives; the
	// captured events travel back in the X-Cloudmap-Spans header.
	var (
		capture bytes.Buffer
		csp     *obs.Span
	)
	if lease.Span != "" {
		id, err := obs.ParseSpanID(lease.Span)
		if err != nil {
			http.Error(w, fmt.Sprintf("lease span: %v", err), http.StatusBadRequest)
			return
		}
		csp = obs.NewTracer(&capture, false).RemoteSpan(id, "stage", "campaign")
	}

	traces, stats, err := a.opts.Prober.RunChunkObs(r.Context(), csp, a.opts.Progress, lease.Chunk, lease.Targets, lease.Retry, lease.Epoch, lease.Budget, 0)
	if err != nil {
		a.opts.Log.Error("lease failed", "agent", a.opts.ID, "lease", lease.ID, "chunk", chunk, "err", err)
		http.Error(w, fmt.Sprintf("lease execution: %v", err), http.StatusInternalServerError)
		return
	}

	// The result frame is a complete binary tracefile v2: CRC-framed
	// chunks plus index and trailer, so the controller verifies integrity
	// and completeness with the format's own machinery.
	var buf bytes.Buffer
	tw := tracefile.NewWriter(&buf)
	for _, tr := range traces {
		tw.Write(tr)
	}
	if err := tw.Finish(); err != nil {
		http.Error(w, fmt.Sprintf("lease encode: %v", err), http.StatusInternalServerError)
		return
	}
	statsJSON, err := json.Marshal(stats)
	if err != nil {
		http.Error(w, fmt.Sprintf("lease stats encode: %v", err), http.StatusInternalServerError)
		return
	}
	a.account(stats)
	a.done.Add(1)
	selfJSON, _ := json.Marshal(a.Stats())
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(hdrStats, string(statsJSON))
	w.Header().Set(hdrAgent, a.opts.ID)
	w.Header().Set(hdrAgentStats, string(selfJSON))
	if packed := obs.PackJournal(capture.Bytes()); packed != "" {
		w.Header().Set(hdrSpans, packed)
	}
	w.Write(buf.Bytes())
}

// account folds one completed chunk's campaign stats into the agent's
// cumulative telemetry (and its own metrics registry, when mounted).
func (a *Agent) account(cs probe.CampaignStats) {
	a.traces.Add(cs.Targets)
	a.retries.Add(cs.Retries)
	a.fLost.Add(cs.Lost)
	a.fRate.Add(cs.RateLimited)
	a.fOut.Add(cs.Outages)
	a.fFlap.Add(cs.Flapped)
	if a.mLeases != nil {
		a.mLeases.Inc()
		a.mTraces.Add(cs.Targets)
		a.mRetries.Add(cs.Retries)
		a.mFaults.Add(cs.Lost + cs.RateLimited + cs.Outages + cs.Flapped)
	}
}
