package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"cloudmap/internal/metrics"
)

// Progress is the live view of a run: the current stage and the headline
// gauges the exposition server and the CLI ticker read. Updates mirror
// into the run's metrics registry (progress.* gauges) so /metrics carries
// the same numbers. All methods are nil-receiver-safe no-ops; the
// per-trace path (TraceDone) is two atomic operations through gauges
// hoisted at construction — no registry lookups.
type Progress struct {
	mu         sync.Mutex
	stage      string
	stageIdx   int
	stageTotal int

	tracesDone    atomic.Int64
	tracesPlanned atomic.Int64
	retriesLeft   atomic.Int64
	unbudgeted    atomic.Bool // retry budget unlimited (retriesLeft meaningless)
	quarantined   atomic.Int64

	// Daemon-mode epoch state (zero for one-shot runs; omitted from the
	// /progress document when unset).
	epoch         atomic.Uint64
	degraded      atomic.Int64
	recoveredFrom atomic.Uint64

	gStageIdx, gStageTotal, gTracesDone, gTracesPlanned, gRetriesLeft, gQuarantined *metrics.Gauge
	gEpoch, gDegraded, gRecoveredFrom                                               *metrics.Gauge
}

// NewProgress returns a Progress mirroring into reg (nil reg is allowed:
// the gauges then live in a private registry).
func NewProgress(reg *metrics.Registry) *Progress {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	p := &Progress{
		gStageIdx:      reg.Gauge("progress.stage_index"),
		gStageTotal:    reg.Gauge("progress.stage_total"),
		gTracesDone:    reg.Gauge("progress.traces_done"),
		gTracesPlanned: reg.Gauge("progress.traces_planned"),
		gRetriesLeft:   reg.Gauge("progress.retry_budget_remaining"),
		gQuarantined:   reg.Gauge("progress.quarantined_records"),
		gEpoch:         reg.Gauge("progress.epoch"),
		gDegraded:      reg.Gauge("progress.epochs_degraded"),
		gRecoveredFrom: reg.Gauge("progress.recovered_from_epoch"),
	}
	p.unbudgeted.Store(true)
	return p
}

// SetStage records the stage now running (1-based index of total).
func (p *Progress) SetStage(name string, idx, total int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.stage, p.stageIdx, p.stageTotal = name, idx, total
	p.mu.Unlock()
	p.gStageIdx.Set(float64(idx))
	p.gStageTotal.Set(float64(total))
}

// AddPlanned grows the planned-trace total (called once per probing round
// with the round's target count).
func (p *Progress) AddPlanned(n int64) {
	if p == nil {
		return
	}
	p.gTracesPlanned.Set(float64(p.tracesPlanned.Add(n)))
}

// TraceDone counts one delivered trace — the per-trace hot path.
func (p *Progress) TraceDone() {
	if p == nil {
		return
	}
	p.gTracesDone.Set(float64(p.tracesDone.Add(1)))
}

// TracesDone counts n delivered traces in one update — the batched form of
// TraceDone for sinks that flush per chunk instead of per trace.
func (p *Progress) TracesDone(n int64) {
	if p == nil || n == 0 {
		return
	}
	p.gTracesDone.Set(float64(p.tracesDone.Add(n)))
}

// SetRetryBudget installs the campaign retry budget (0 = unlimited).
func (p *Progress) SetRetryBudget(budget int64) {
	if p == nil {
		return
	}
	p.unbudgeted.Store(budget <= 0)
	p.retriesLeft.Store(budget)
	p.gRetriesLeft.Set(float64(budget))
}

// RetriesSpent burns n retries from the budget.
func (p *Progress) RetriesSpent(n int64) {
	if p == nil || n == 0 || p.unbudgeted.Load() {
		return
	}
	p.gRetriesLeft.Set(float64(p.retriesLeft.Add(-n)))
}

// SetEpoch records the daemon's last published epoch.
func (p *Progress) SetEpoch(n uint64) {
	if p == nil {
		return
	}
	p.epoch.Store(n)
	p.gEpoch.Set(float64(n))
}

// EpochDegraded counts an epoch the supervisor published degraded (retries
// exhausted; the previous map republished under the new epoch number).
func (p *Progress) EpochDegraded() {
	if p == nil {
		return
	}
	p.gDegraded.Set(float64(p.degraded.Add(1)))
}

// SetRecoveredFrom records the epoch a restarted daemon rehydrated up to
// (0 = fresh start, no recovery happened).
func (p *Progress) SetRecoveredFrom(n uint64) {
	if p == nil {
		return
	}
	p.recoveredFrom.Store(n)
	p.gRecoveredFrom.Set(float64(n))
}

// AddQuarantined counts dataset records the hygiene layer rejected.
func (p *Progress) AddQuarantined(n int64) {
	if p == nil {
		return
	}
	p.gQuarantined.Set(float64(p.quarantined.Add(n)))
}

// ProgressSnapshot is the JSON form served on /progress.
type ProgressSnapshot struct {
	Stage         string `json:"stage"`
	StageIndex    int    `json:"stage_index"`
	StageTotal    int    `json:"stage_total"`
	TracesDone    int64  `json:"traces_done"`
	TracesPlanned int64  `json:"traces_planned"`
	// RetriesLeft is the remaining campaign retry budget; -1 when the
	// budget is unlimited.
	RetriesLeft int64 `json:"retries_left"`
	Quarantined int64 `json:"quarantined_records"`
	// Daemon-mode fields, omitted for one-shot runs.
	Epoch          uint64 `json:"epoch,omitempty"`
	EpochsDegraded int64  `json:"epochs_degraded,omitempty"`
	RecoveredFrom  uint64 `json:"recovered_from_epoch,omitempty"`
}

// Snapshot captures the current progress state.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{RetriesLeft: -1}
	}
	p.mu.Lock()
	s := ProgressSnapshot{Stage: p.stage, StageIndex: p.stageIdx, StageTotal: p.stageTotal}
	p.mu.Unlock()
	s.TracesDone = p.tracesDone.Load()
	s.TracesPlanned = p.tracesPlanned.Load()
	s.Quarantined = p.quarantined.Load()
	s.Epoch = p.epoch.Load()
	s.EpochsDegraded = p.degraded.Load()
	s.RecoveredFrom = p.recoveredFrom.Load()
	if p.unbudgeted.Load() {
		s.RetriesLeft = -1
	} else {
		s.RetriesLeft = p.retriesLeft.Load()
	}
	return s
}

// Line renders the one-line progress ticker, e.g.
//
//	[ 5/14 expansion] traces 83968/131072 (64.1%) | retry budget 117 | quarantined 42
func (p *Progress) Line() string {
	s := p.Snapshot()
	stage := s.Stage
	if stage == "" {
		stage = "-"
	}
	line := fmt.Sprintf("[%2d/%d %s] traces %d/%d", s.StageIndex, s.StageTotal, stage, s.TracesDone, s.TracesPlanned)
	if s.TracesPlanned > 0 {
		line += fmt.Sprintf(" (%.1f%%)", 100*float64(s.TracesDone)/float64(s.TracesPlanned))
	}
	if s.RetriesLeft >= 0 {
		line += fmt.Sprintf(" | retry budget %d", s.RetriesLeft)
	}
	if s.Quarantined > 0 {
		line += fmt.Sprintf(" | quarantined %d", s.Quarantined)
	}
	return line
}

// writeJSON serves the snapshot on /progress.
func (p *Progress) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p.Snapshot())
}

// StartTicker prints p.Line() to w every interval until the returned stop
// function is called (stop waits for the goroutine to exit, so no line is
// written after it returns).
func StartTicker(w io.Writer, every time.Duration, p *Progress) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fmt.Fprintln(w, p.Line())
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
}
