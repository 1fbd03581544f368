// Package pipeline is an explicit stage-DAG runner for the reproduction's
// workflow. The paper's pipeline is staged and restartable by design — 16
// days of probing are collected once, then the §4–§8 inference stages are
// re-run many times over the stored traces — so the orchestration layer
// declares named stages with explicit dependencies instead of being one
// opaque function. The runner contributes what a monolith cannot:
//
//   - per-stage wall-clock, allocation, and goroutine telemetry plus scoped
//     counters/gauges/histograms (internal/metrics), exported as JSON;
//   - context-based cancellation checked between stages and passed into each
//     stage for prompt mid-stage aborts;
//   - checkpoint/resume hooks: a stage that persisted its outputs can
//     restore them instead of recomputing, which lets a run skip the
//     expensive probing campaigns entirely.
//
// Stages share a caller-defined state type S; each stage reads the fields
// its dependencies filled in and writes its own. Execution order is the
// deterministic topological order of the declared DAG (insertion order
// breaks ties), so same-seed runs remain byte-identical.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"cloudmap/internal/metrics"
	"cloudmap/internal/obs"
)

// StagePanicError is the error a panicking stage is converted into: the
// runner recovers the panic, records the stage as failed, and marks the
// remaining stages not-run — a long-running caller (the resident daemon)
// survives a buggy stage instead of dying mid-epoch. The recovered value
// and the goroutine stack ride along for the supervisor's log; the stack
// never enters deterministic artefacts (it contains addresses).
type StagePanicError struct {
	Stage string
	Value any
	Stack []byte
}

func (e *StagePanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Stage is one named unit of work over the shared state S.
type Stage[S any] struct {
	// Name identifies the stage in metrics, manifests, and Needs lists.
	Name string
	// Needs lists stages that must have finished (run, resumed, or been
	// skipped) before this one starts.
	Needs []string
	// Skip, when non-nil and true, marks the stage configuration-disabled:
	// it is recorded as skipped and its dependents still run.
	Skip func(s *S) bool
	// ToleratePartial declares that the stage produces meaningful output
	// even when an earlier stage reported degraded (partial) results via
	// StageContext.Degrade. Stages that do not tolerate partial inputs are
	// recorded as skipped-degraded instead of running on data that would
	// make their output misleading; their dependents still run.
	ToleratePartial bool
	// Resume, when non-nil, tries to restore the stage's outputs from a
	// checkpoint before Run. Returning true skips Run and records the stage
	// as resumed; returning false falls through to Run.
	Resume func(ctx context.Context, s *S, sc *StageContext) (bool, error)
	// InputHash, when non-nil, fingerprints every input the stage reads:
	// configuration, external datasets, and upstream outputs (typically by
	// folding in the upstream stages' input hashes — with deterministic
	// stages, same inputs imply same outputs). It runs every epoch, before
	// Run, in DAG order, so it may read state written by earlier stages
	// this epoch. When its Options.Prev result carries the same hash, Run
	// is skipped (StatusSkippedUnchanged) and the shared state retains the
	// stage's previous outputs; a stage that runs must rebuild every output
	// it owns — the incremental-inference contract of the resident service.
	InputHash func(s *S) string
	// Run executes the stage.
	Run func(ctx context.Context, s *S, sc *StageContext) error
}

// StageContext scopes instruments to the running stage: names are prefixed
// "<stage>." in the shared registry and reported per stage.
type StageContext struct {
	stage string
	reg   *metrics.Registry
	span  *obs.Span

	mu    sync.Mutex
	notes []string
}

// Span returns the stage's trace span (nil when tracing is off; a nil
// span's methods are no-ops, so stages may use it unconditionally).
func (sc *StageContext) Span() *obs.Span { return sc.span }

// Degrade records that the stage completed with partial results (probe
// loss, exhausted retry budget, ...). The run continues, but subsequent
// stages that declared ToleratePartial=false are skipped, and the reasons
// surface in the stage's result notes. Safe for concurrent use.
func (sc *StageContext) Degrade(reason string) {
	sc.mu.Lock()
	sc.notes = append(sc.notes, reason)
	sc.mu.Unlock()
}

func (sc *StageContext) takeNotes() []string {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.notes
}

// Counter returns a stage-scoped counter.
func (sc *StageContext) Counter(name string) *metrics.Counter {
	return sc.reg.Counter(sc.stage + "." + name)
}

// Gauge returns a stage-scoped gauge.
func (sc *StageContext) Gauge(name string) *metrics.Gauge {
	return sc.reg.Gauge(sc.stage + "." + name)
}

// Histogram returns a stage-scoped histogram.
func (sc *StageContext) Histogram(name string) *metrics.Histogram {
	return sc.reg.Histogram(sc.stage + "." + name)
}

// Metrics exposes the unscoped registry (for cross-stage instruments).
func (sc *StageContext) Metrics() *metrics.Registry { return sc.reg }

// Status describes how a stage ended.
type Status string

// Stage outcomes.
const (
	// StatusOK: Run completed.
	StatusOK Status = "ok"
	// StatusResumed: outputs restored from checkpoint; Run skipped.
	StatusResumed Status = "resumed"
	// StatusSkipped: configuration-disabled via Skip.
	StatusSkipped Status = "skipped"
	// StatusSkippedDegraded: an earlier stage reported partial results and
	// this stage declared it cannot tolerate them.
	StatusSkippedDegraded Status = "skipped-degraded"
	// StatusSkippedUnchanged: the stage's input hash matched the previous
	// run's, so its outputs (still held in the shared state) and its
	// degradation are current — the incremental scheduler's hash-skip.
	StatusSkippedUnchanged Status = "skipped-unchanged"
	// StatusFailed: Run or Resume returned an error.
	StatusFailed Status = "failed"
	// StatusNotRun: an earlier stage failed or the context was cancelled
	// before this stage started.
	StatusNotRun Status = "not-run"
)

// StageResult is the per-stage telemetry record (one manifest entry).
type StageResult struct {
	Name   string `json:"name"`
	Status Status `json:"status"`
	// WallMS is the stage wall-clock in milliseconds (fractional).
	WallMS float64 `json:"wall_ms"`
	// AllocBytes and Mallocs are process-wide allocation deltas across the
	// stage (runtime.MemStats); with stages running one at a time they
	// attribute to the stage.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	// Goroutines is the live goroutine count when the stage ended.
	Goroutines int `json:"goroutines"`
	// Counters, Gauges, and Histograms hold the stage-scoped instruments,
	// prefix stripped.
	Counters   map[string]int64                    `json:"counters,omitempty"`
	Gauges     map[string]float64                  `json:"gauges,omitempty"`
	Histograms map[string]metrics.HistogramSummary `json:"histograms,omitempty"`
	Error      string                              `json:"error,omitempty"`
	// Degraded marks a stage that reported partial results; Notes carries
	// the reasons (or, for skipped-degraded stages, the upstream reasons).
	Degraded bool     `json:"degraded,omitempty"`
	Notes    []string `json:"notes,omitempty"`
	// InputHash is the stage's input fingerprint for this run (stages with
	// an InputHash hook only). Epoch schedulers compare it against the next
	// run's to decide hash-skips.
	InputHash string `json:"input_hash,omitempty"`

	// Wall is the un-rounded duration (not marshalled; WallMS is).
	Wall time.Duration `json:"-"`
}

// Options tunes one Run call.
type Options struct {
	// Tracer, when non-nil, records one span per executed stage (kind
	// "stage"), a point event per skipped stage, and hands each stage a
	// child-span handle via StageContext.Span. Nil disables tracing at the
	// cost of one nil check per instrumented site.
	Tracer *obs.Tracer
	// Progress, when non-nil, is told which stage is running.
	Progress *obs.Progress
	// Prev holds the stage results of the previous run over the same state;
	// that run must have returned no error. A stage whose InputHash equals
	// its Prev result's non-empty hash is hash-skipped
	// (StatusSkippedUnchanged): the state still holds its outputs, and the
	// skipped result inherits Degraded and Notes, which gate later stages
	// as if it had run. Nil disables incremental scheduling.
	Prev []StageResult
}

// Runner owns an ordered set of stages and a metrics registry.
type Runner[S any] struct {
	stages []Stage[S]
	byName map[string]int
	reg    *metrics.Registry
}

// New returns a runner recording into reg (a fresh registry when nil).
func New[S any](reg *metrics.Registry) *Runner[S] {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Runner[S]{byName: make(map[string]int), reg: reg}
}

// Metrics returns the runner's registry.
func (r *Runner[S]) Metrics() *metrics.Registry { return r.reg }

// Add registers a stage. Stage sets are static program structure, so
// malformed registrations (empty or duplicate names, missing Run) panic.
func (r *Runner[S]) Add(st Stage[S]) *Runner[S] {
	if st.Name == "" {
		panic("pipeline: stage with empty name")
	}
	if st.Run == nil {
		panic(fmt.Sprintf("pipeline: stage %q has no Run", st.Name))
	}
	if _, dup := r.byName[st.Name]; dup {
		panic(fmt.Sprintf("pipeline: duplicate stage %q", st.Name))
	}
	r.byName[st.Name] = len(r.stages)
	r.stages = append(r.stages, st)
	return r
}

// Order returns the execution order: Kahn's algorithm with insertion-order
// tie-breaking, so the order is deterministic and respects every Needs edge.
func (r *Runner[S]) Order() ([]string, error) {
	indeg := make([]int, len(r.stages))
	dependents := make([][]int, len(r.stages))
	for i, st := range r.stages {
		for _, need := range st.Needs {
			j, ok := r.byName[need]
			if !ok {
				return nil, fmt.Errorf("pipeline: stage %q needs unknown stage %q", st.Name, need)
			}
			if j == i {
				return nil, fmt.Errorf("pipeline: stage %q needs itself", st.Name)
			}
			indeg[i]++
			dependents[j] = append(dependents[j], i)
		}
	}
	order := make([]string, 0, len(r.stages))
	done := make([]bool, len(r.stages))
	for len(order) < len(r.stages) {
		advanced := false
		for i := range r.stages {
			if done[i] || indeg[i] > 0 {
				continue
			}
			done[i] = true
			order = append(order, r.stages[i].Name)
			for _, d := range dependents[i] {
				indeg[d]--
			}
			advanced = true
		}
		if !advanced {
			return nil, fmt.Errorf("pipeline: dependency cycle among stages")
		}
	}
	return order, nil
}

// Run executes every stage in DAG order over the shared state. It returns
// one StageResult per registered stage in execution order; on failure or
// cancellation the remaining stages are recorded as not-run and the error
// wraps the failing stage's (so errors.Is sees context.Canceled through it).
func (r *Runner[S]) Run(ctx context.Context, s *S, opts Options) ([]StageResult, error) {
	order, err := r.Order()
	if err != nil {
		return nil, err
	}
	// The run span parents every stage span; skipped stages become point
	// events so the journal still accounts for them. Span IDs and journal
	// attrs are deterministic (stage name + execution index); only the
	// Chrome trace carries wall-clock timing.
	run := opts.Tracer.Root("run", "pipeline", 0)
	results := make([]StageResult, 0, len(order))
	fail := func(at int, err error) ([]StageResult, error) {
		for i, name := range order[at:] {
			results = append(results, StageResult{Name: name, Status: StatusNotRun})
			run.Event("stage", name, uint64(at+i), obs.Attrs{"status": string(StatusNotRun)})
		}
		run.End(obs.Attrs{"status": "failed"})
		return results, err
	}
	prev := make(map[string]*StageResult, len(opts.Prev))
	for i := range opts.Prev {
		prev[opts.Prev[i].Name] = &opts.Prev[i]
	}
	var degradedBy []string // "stage: reason" entries, in stage order
	for oi, name := range order {
		st := &r.stages[r.byName[name]]
		opts.Progress.SetStage(name, oi+1, len(order))
		if err := ctx.Err(); err != nil {
			return fail(oi, fmt.Errorf("pipeline: cancelled before stage %q: %w", name, err))
		}
		if st.Skip != nil && st.Skip(s) {
			results = append(results, StageResult{Name: name, Status: StatusSkipped})
			run.Event("stage", name, uint64(oi), obs.Attrs{"status": string(StatusSkipped)})
			continue
		}
		if len(degradedBy) > 0 && !st.ToleratePartial {
			results = append(results, StageResult{
				Name:   name,
				Status: StatusSkippedDegraded,
				Notes:  append([]string(nil), degradedBy...),
			})
			run.Event("stage", name, uint64(oi), obs.Attrs{"status": string(StatusSkippedDegraded)})
			continue
		}
		// The stage's telemetry covers its input hashing too: a hook may do
		// real work (serializing the datasets) that the Run hook then reuses.
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		// Incremental scheduling: fingerprint the stage's inputs (runs in
		// DAG order, so upstream hashes from this epoch are visible) and
		// hash-skip when nothing it reads has changed since the previous
		// run. The shared state still holds the stage's previous outputs.
		var inputHash string
		if st.InputHash != nil {
			inputHash = st.InputHash(s)
			if p := prev[name]; p != nil && p.InputHash == inputHash && inputHash != "" {
				results = append(results, StageResult{Name: name, Status: StatusSkippedUnchanged, InputHash: inputHash,
					Degraded: p.Degraded, Notes: p.Notes})
				for _, n := range p.Notes {
					degradedBy = append(degradedBy, name+": "+n)
				}
				run.Event("stage", name, uint64(oi), obs.Attrs{"status": string(StatusSkippedUnchanged), "input_hash": inputHash})
				continue
			}
		}

		sp := run.Child("stage", name, uint64(oi))
		sc := &StageContext{stage: name, reg: r.reg, span: sp}

		status := StatusOK
		resumed, stageErr := invokeStage(ctx, st, s, sc)
		if resumed && stageErr == nil {
			status = StatusResumed
		}

		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		res := StageResult{
			Name:       name,
			Status:     status,
			InputHash:  inputHash,
			Wall:       wall,
			WallMS:     float64(wall) / float64(time.Millisecond),
			AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
			Mallocs:    m1.Mallocs - m0.Mallocs,
			Goroutines: runtime.NumGoroutine(),
		}
		scoped := r.reg.Snapshot().Scope(name + ".")
		res.Counters, res.Gauges, res.Histograms = scoped.Counters, scoped.Gauges, scoped.Histograms
		if notes := sc.takeNotes(); len(notes) > 0 {
			res.Degraded = true
			res.Notes = notes
			for _, n := range notes {
				degradedBy = append(degradedBy, name+": "+n)
			}
		}
		if stageErr != nil {
			res.Status = StatusFailed
			res.Error = stageErr.Error()
			results = append(results, res)
			sp.End(obs.Attrs{"status": string(StatusFailed)})
			return fail(oi+1, fmt.Errorf("pipeline: stage %q: %w", name, stageErr))
		}
		endAttrs := obs.Attrs{"status": string(res.Status)}
		if res.Degraded {
			endAttrs["degraded"] = "true"
		}
		sp.End(endAttrs)
		results = append(results, res)
	}
	run.End(obs.Attrs{"status": "ok"})
	return results, nil
}

// invokeStage runs the stage's Resume (when declared) and Run hooks with
// panic containment: a panic in either hook is recovered into a
// *StagePanicError, so a misbehaving stage degrades the run — failed
// stage, downstream not-run — rather than crashing the process.
func invokeStage[S any](ctx context.Context, st *Stage[S], s *S, sc *StageContext) (resumed bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			resumed = false
			err = &StagePanicError{Stage: st.Name, Value: r, Stack: debug.Stack()}
		}
	}()
	if st.Resume != nil {
		resumed, err = st.Resume(ctx, s, sc)
		if resumed || err != nil {
			return resumed, err
		}
	}
	return false, st.Run(ctx, s, sc)
}
