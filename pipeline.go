package cloudmap

// This file declares the paper's workflow as an explicit stage DAG over
// internal/pipeline. The paper's method is staged and restartable — probing
// is collected once (§3), then the §4–§8 inference stages are re-run many
// times over the stored traces — and the DAG makes that structure
// first-class: each stage is named, depends on the stages whose outputs it
// reads, reports wall-clock/allocation/counter telemetry, and (for the two
// probing rounds) checkpoints its traces through internal/tracefile so a
// run can resume from stored probes and skip straight to inference.

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"cloudmap/internal/bdrmap"
	"cloudmap/internal/border"
	"cloudmap/internal/datasets"
	"cloudmap/internal/dispatch"
	"cloudmap/internal/faults"
	"cloudmap/internal/metrics"
	"cloudmap/internal/midar"
	"cloudmap/internal/netblock"
	"cloudmap/internal/obs"
	"cloudmap/internal/pinning"
	"cloudmap/internal/pipeline"
	"cloudmap/internal/probe"
	"cloudmap/internal/registry"
	"cloudmap/internal/tracefile"
	"cloudmap/internal/verify"
	"cloudmap/internal/vpi"
)

// RunOptions tunes RunPipeline beyond the pipeline Config.
type RunOptions struct {
	// CheckpointDir, when non-empty, persists the probing rounds as binary
	// v2 tracefiles (campaign.traces.bin, expansion.traces.bin) plus the run
	// manifest (manifest.json) in that directory.
	CheckpointDir string
	// Resume replays complete campaign checkpoints from CheckpointDir
	// instead of re-probing; interrupted (trailer-less) checkpoints are
	// re-probed from scratch and overwritten. Requires CheckpointDir.
	Resume bool
	// Metrics receives every stage's instruments; nil creates a private
	// registry, exposed on the returned RunReport either way.
	Metrics *metrics.Registry
	// DatasetsDir, when non-empty, persists the serialized dataset corpus
	// (rib.txt, whois.txt, ixps.jsonl, ...) the hygiene layer round-trips
	// the registry through, so a run's input datasets can be inspected or
	// diffed.
	DatasetsDir string
	// JournalPath, when non-empty, streams the deterministic JSONL event
	// journal (spans, faults, retries, quarantines) to that file. Same
	// config + seed + plans produce the same journal, sorted, at any
	// worker count.
	JournalPath string
	// TracePath, when non-empty, writes the wall-clock Chrome trace-event
	// JSON (Perfetto / chrome://tracing) to that file at the end of the run.
	TracePath string
	// Progress, when non-nil, receives live stage/trace/retry/quarantine
	// updates for the CLI ticker and the debug server's /progress endpoint.
	Progress *obs.Progress
	// Dispatch, when non-nil, leases the probing campaigns' chunks to the
	// configured remote agents (cmd/cloudmapagent) instead of probing
	// in-process; chunks the fleet cannot finish fall back to local
	// execution. Results are byte-identical to a local run, so Dispatch —
	// like Workers — is excluded from the config hash.
	Dispatch *dispatch.Options
}

// manifestVersion is bumped when the manifest schema changes.
// Version history: 1 = initial staged manifest; 2 = dataset_hygiene section
// and the degradation report's dataset fields; 3 = trace section (span
// counts and journal/trace artefact paths).
const manifestVersion = 3

// Manifest is the machine-readable record of one pipeline run: enough to
// regenerate benchmark trajectories mechanically and to validate that a
// resume matches the run that wrote the checkpoints.
type Manifest struct {
	Version int `json:"version"`
	// ConfigHash fingerprints every result-affecting Config field (the
	// trace sink and worker count are excluded: neither changes output).
	ConfigHash string `json:"config_hash"`
	Seed       uint64 `json:"seed"`
	Workers    int    `json:"workers"`
	Resumed    bool   `json:"resumed"`
	// Stages holds one telemetry entry per declared stage, in execution
	// order: name, status, wall time, allocations, scoped counters.
	Stages []pipeline.StageResult `json:"stages"`
	// Summary carries the run's headline quantities (peer ASes, hidden
	// share, VPI share, largest-CC fraction, pinning CV).
	Summary map[string]float64 `json:"summary,omitempty"`
	// Degradation records how the fault model affected the run; nil for
	// fault-free runs (and absent from their JSON, keeping old manifests
	// and new fault-free ones byte-compatible).
	Degradation *DegradationReport `json:"degradation,omitempty"`
	// DatasetHygiene is the hygiene layer's coverage summary: per-dataset
	// records kept / quarantined / conflict-resolved after the registry's
	// round trip through the on-disk dataset formats.
	DatasetHygiene *datasets.HygieneReport `json:"dataset_hygiene,omitempty"`
	// Trace accounts for the run's observability artefacts; nil when no
	// journal or Chrome trace was requested.
	Trace *TraceReport `json:"trace,omitempty"`
}

// TraceReport is the manifest's account of the run's tracing output: where
// the artefacts went and how many events of each kind:phase the tracer
// emitted (e.g. "stage:begin", "fault:point"). The counts are deterministic
// — a replay of the same config must reproduce them exactly.
type TraceReport struct {
	JournalPath string           `json:"journal_path,omitempty"`
	TracePath   string           `json:"trace_path,omitempty"`
	Spans       map[string]int64 `json:"spans,omitempty"`
}

// DegradationReport is the manifest's account of a degraded run: how much
// probing the fault layer ate, what the retry policy spent recovering, and
// which stages ran on (or were skipped because of) partial data.
type DegradationReport struct {
	// ProbeLossPct is the percentage of issued probe packets whose replies
	// the fault layer suppressed (bursty loss + rate limiting), across all
	// probing rounds and retries.
	ProbeLossPct float64 `json:"probe_loss_pct"`
	// RetriesSpent counts traceroute re-attempts across all rounds.
	RetriesSpent int64 `json:"retries_spent"`
	// BudgetExhausted is set when some chunk wanted a retry it could not
	// afford; the run still completed (fail soft).
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
	// Rounds breaks the fault/retry telemetry down per probing round
	// ("campaign", "expansion").
	Rounds map[string]probe.CampaignStats `json:"rounds,omitempty"`
	// DegradedStages lists stages that reported partial results;
	// SkippedStages lists stages skipped because they cannot tolerate them.
	DegradedStages []string `json:"degraded_stages,omitempty"`
	SkippedStages  []string `json:"skipped_stages,omitempty"`
	// QuarantinedRecords and ConflictsResolved carry the hygiene layer's
	// totals, so a run whose only degradation was dirty input datasets (no
	// probe loss at all) still reports a degradation section.
	QuarantinedRecords int64 `json:"quarantined_records,omitempty"`
	ConflictsResolved  int64 `json:"conflicts_resolved,omitempty"`
	// EmptyDatasets lists input datasets with zero surviving records.
	EmptyDatasets []string `json:"empty_datasets,omitempty"`
}

// RunReport bundles the observable side of a run: the manifest and the
// metrics registry behind it.
type RunReport struct {
	Manifest Manifest
	Metrics  *metrics.Registry
}

// WriteManifestJSON writes the manifest as indented JSON (the `-metrics-out`
// document).
func (r *RunReport) WriteManifestJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Manifest)
}

// StageNames lists the declared pipeline stages in execution order.
func StageNames() []string {
	order, err := newRunner(nil).Order()
	if err != nil {
		panic(err) // static stage set; unreachable
	}
	return order
}

// RunPipeline executes the pipeline as a stage DAG. sys may be nil (the
// topo-gen stage then generates it from cfg). The context cancels the run
// between stages and mid-campaign; on cancellation the error wraps
// context.Canceled and any in-flight checkpoint is left on disk as a
// loadable partial tracefile. The RunReport is returned even when the run
// fails, recording how far it got.
func RunPipeline(ctx context.Context, sys *System, cfg Config, opts RunOptions) (*Result, *RunReport, error) {
	cfg = cfg.withDefaults()
	if opts.Resume && opts.CheckpointDir == "" {
		return nil, nil, fmt.Errorf("cloudmap: Resume requires CheckpointDir")
	}
	if opts.CheckpointDir != "" {
		if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("cloudmap: checkpoint dir: %w", err)
		}
	}
	hash := configHash(cfg)
	var prev *Manifest
	if opts.Resume {
		var err error
		if prev, err = loadCompatibleManifest(opts.CheckpointDir, hash); err != nil {
			return nil, nil, err
		}
	}

	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}

	// Observability: the journal streams through a buffered writer while the
	// run executes; the Chrome trace buffers in memory and is written at the
	// end. A nil tracer costs the instrumented paths one nil check each.
	var tracer *obs.Tracer
	var journalFile *os.File
	var journalBuf *bufio.Writer
	if opts.JournalPath != "" || opts.TracePath != "" {
		var jw io.Writer
		if opts.JournalPath != "" {
			f, ferr := os.Create(opts.JournalPath)
			if ferr != nil {
				return nil, nil, fmt.Errorf("cloudmap: journal: %w", ferr)
			}
			journalFile, journalBuf = f, bufio.NewWriter(f)
			jw = journalBuf
		}
		tracer = obs.NewTracer(jw, opts.TracePath != "")
	}

	st := &pipeState{cfg: cfg, opts: opts, sys: sys, prog: opts.Progress}
	if opts.Dispatch != nil {
		st.disp = dispatch.NewController(*opts.Dispatch, dispatch.Fingerprint(cfg.Topology, cfg.Faults))
		defer st.disp.Close()
	}
	if prev != nil && prev.Degradation != nil {
		st.prevRounds = prev.Degradation.Rounds
	}
	stages, err := newRunner(reg).Run(ctx, st, pipeline.Options{
		Resume:   opts.Resume,
		Tracer:   tracer,
		Progress: opts.Progress,
	})
	rep := &RunReport{
		Manifest: Manifest{
			Version:     manifestVersion,
			ConfigHash:  hash,
			Seed:        cfg.Topology.Seed,
			Workers:     cfg.Workers,
			Resumed:     opts.Resume,
			Stages:      stages,
			Summary:     st.summary,
			Degradation: degradationReport(st, stages),
		},
		Metrics: reg,
	}
	if st.hyg != nil {
		rep.Manifest.DatasetHygiene = st.hyg.Report
	}
	if tracer != nil {
		rep.Manifest.Trace = &TraceReport{
			JournalPath: opts.JournalPath,
			TracePath:   opts.TracePath,
			Spans:       tracer.Counts(),
		}
		if opts.TracePath != "" {
			if terr := writeChromeTrace(opts.TracePath, tracer); terr != nil && err == nil {
				err = terr
			}
		}
		if journalBuf != nil {
			ferr := journalBuf.Flush()
			if cerr := journalFile.Close(); ferr == nil {
				ferr = cerr
			}
			if ferr != nil && err == nil {
				err = fmt.Errorf("cloudmap: journal: %w", ferr)
			}
		}
		if terr := tracer.Err(); terr != nil && err == nil {
			err = fmt.Errorf("cloudmap: journal: %w", terr)
		}
	}
	if opts.CheckpointDir != "" {
		// Written even on failure: the manifest records how far the run got,
		// and a later resume validates its config hash.
		if werr := writeManifest(opts.CheckpointDir, rep); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return nil, rep, err
	}
	return st.res, rep, nil
}

// pipeState is the shared state the stages read and write.
type pipeState struct {
	cfg  Config
	opts RunOptions

	sys *System
	res *Result
	inf *border.Inference
	vms []probe.VMRef
	// hyg is the dataset hygiene view: the registry rebuilt from the
	// serialize→validate→parse round trip, which every inference stage
	// consumes in place of the pristine sys.Registry.
	hyg *datasets.View
	// prog is the live progress view (nil when no ticker/debug server).
	prog *obs.Progress
	// disp, when non-nil, leases campaign chunks to remote agents (chunks
	// it declines run locally); nil probes in-process.
	disp *dispatch.Controller

	// summary is filled by the evaluate stage and lands in the manifest.
	summary map[string]float64
	// roundStats collects per-round fault/retry telemetry for the
	// manifest's degradation report. prevRounds carries the previous run's
	// telemetry (from the checkpoint dir's manifest) so a resumed round
	// replays its degradation state along with its traces.
	roundStats map[string]probe.CampaignStats
	prevRounds map[string]probe.CampaignStats

	// Epoch-mode fields (Session only; zero-valued under RunPipeline).
	// epochMode switches the stage InputHash hooks on: each stage
	// fingerprints its inputs so the runner can hash-skip stages whose
	// inputs did not change between epochs.
	epochMode bool
	// stageHash holds this epoch's computed input hashes by stage name;
	// downstream InputHash hooks fold upstream entries in (sound because
	// every stage is a deterministic function of its inputs).
	stageHash map[string]string
	// dsHash maps dataset name -> content hash of its serialized form this
	// epoch (set by datasetsInputHash before the datasets stage decides).
	dsHash map[string]string
	// corpus caches the serialization datasetsInputHash produced so the
	// datasets stage does not serialize twice in one epoch.
	corpus *datasets.Corpus
	// lastAnnHash is the annotation-relevant dataset hash behind the
	// current s.inf; the datasets stage only rebuilds the inference sink
	// (forcing the campaign to re-run over the stored traces) when it
	// changes.
	lastAnnHash string
	// probePlanNow / probeGate gate checkpoint replay per probing round:
	// probePlanNow is this epoch's probing-plan hash (topology, fault and
	// retry schedule, target set), probeGate the hash backing the round's
	// on-disk checkpoint. A mismatch re-probes live instead of replaying a
	// checkpoint recorded under different probing inputs.
	probePlanNow map[string]string
	probeGate    map[string]string
}

// degradationReport assembles the manifest's degradation section; nil when
// the fault layer never interfered, no stage degraded, and the hygiene
// layer quarantined nothing. Dataset-only degradation (dirty inputs, zero
// probe loss) still yields a non-nil report.
func degradationReport(st *pipeState, stages []pipeline.StageResult) *DegradationReport {
	rep := &DegradationReport{}
	if st.hyg != nil {
		rep.QuarantinedRecords = st.hyg.Report.TotalQuarantined
		rep.ConflictsResolved = st.hyg.Report.TotalConflicts
		rep.EmptyDatasets = st.hyg.Report.EmptyDatasets
	}
	var sent, eaten int64
	for round, cs := range st.roundStats {
		if cs.Degraded() {
			if rep.Rounds == nil {
				rep.Rounds = make(map[string]probe.CampaignStats)
			}
			rep.Rounds[round] = cs
		}
		sent += cs.HopProbes
		eaten += cs.Lost + cs.RateLimited
		rep.RetriesSpent += cs.Retries
		rep.BudgetExhausted = rep.BudgetExhausted || cs.BudgetExhausted
	}
	if sent > 0 {
		rep.ProbeLossPct = 100 * float64(eaten) / float64(sent)
	}
	for _, sr := range stages {
		switch {
		case sr.Degraded:
			rep.DegradedStages = append(rep.DegradedStages, sr.Name)
		case sr.Status == pipeline.StatusSkippedDegraded:
			rep.SkippedStages = append(rep.SkippedStages, sr.Name)
		}
	}
	if len(rep.Rounds) == 0 && len(rep.DegradedStages) == 0 && len(rep.SkippedStages) == 0 && rep.RetriesSpent == 0 &&
		rep.QuarantinedRecords == 0 && rep.ConflictsResolved == 0 && len(rep.EmptyDatasets) == 0 {
		return nil
	}
	return rep
}

// reg is the registry the inference stages consume: the hygiene view when
// the datasets stage has built one, else the pristine system registry.
func (s *pipeState) reg() *registry.Registry {
	if s.hyg != nil {
		return s.hyg.Registry
	}
	return s.sys.Registry
}

// newRunner declares the stage DAG. Insertion order is a valid topological
// order and mirrors the paper's section order, so execution (and therefore
// every deterministic artefact) matches the pre-DAG monolithic Run.
func newRunner(reg *metrics.Registry) *pipeline.Runner[pipeState] {
	// Adapters: stages are written as pipeState methods; method expressions
	// put the receiver first, the runner wants the context first.
	run := func(m func(*pipeState, context.Context, *pipeline.StageContext) error) func(context.Context, *pipeState, *pipeline.StageContext) error {
		return func(ctx context.Context, s *pipeState, sc *pipeline.StageContext) error { return m(s, ctx, sc) }
	}
	resume := func(m func(*pipeState, context.Context, *pipeline.StageContext) (bool, error)) func(context.Context, *pipeState, *pipeline.StageContext) (bool, error) {
		return func(ctx context.Context, s *pipeState, sc *pipeline.StageContext) (bool, error) { return m(s, ctx, sc) }
	}

	// Every stage except bdrmap tolerates degraded (partial) probing: the
	// paper's own campaigns run against a lossy Internet, and the §4–§7
	// inference degrades in recall, not correctness. The §8 bdrmap baseline
	// is the exception — it issues its own fresh per-region traceroutes and
	// comparing a fault-free baseline against a degraded inference would
	// misattribute the gap, so it sits out degraded runs.
	r := pipeline.New[pipeState](reg)
	r.Add(pipeline.Stage[pipeState]{
		Name:            "topo-gen",
		InputHash:       (*pipeState).topoGenHash,
		ToleratePartial: true,
		Run:             run((*pipeState).topoGen),
	})
	r.Add(pipeline.Stage[pipeState]{
		Name:            "datasets",
		InputHash:       (*pipeState).datasetsInputHash,
		Needs:           []string{"topo-gen"},
		ToleratePartial: true,
		Run:             run((*pipeState).datasets),
	})
	r.Add(pipeline.Stage[pipeState]{
		Name:            "campaign",
		InputHash:       (*pipeState).campaignHash,
		Needs:           []string{"datasets"},
		ToleratePartial: true,
		Resume:          resume((*pipeState).resumeCampaign),
		Run:             run((*pipeState).campaign),
	})
	r.Add(pipeline.Stage[pipeState]{
		Name:            "border",
		InputHash:       (*pipeState).borderHash,
		Needs:           []string{"campaign"},
		ToleratePartial: true,
		Run:             run((*pipeState).borderSnapshot),
	})
	r.Add(pipeline.Stage[pipeState]{
		Name:            "expansion",
		InputHash:       (*pipeState).expansionHash,
		Needs:           []string{"border"},
		ToleratePartial: true,
		Skip:            func(s *pipeState) bool { return s.cfg.SkipExpansion },
		Resume:          resume((*pipeState).resumeExpansion),
		Run:             run((*pipeState).expansion),
	})
	r.Add(pipeline.Stage[pipeState]{
		Name:            "alias",
		InputHash:       (*pipeState).aliasHash,
		Needs:           []string{"expansion"},
		ToleratePartial: true,
		Skip:            func(s *pipeState) bool { return s.cfg.SkipAliasResolution },
		Run:             run((*pipeState).alias),
	})
	r.Add(pipeline.Stage[pipeState]{
		Name:            "verify",
		InputHash:       (*pipeState).verifyHash,
		Needs:           []string{"alias"},
		ToleratePartial: true,
		Run:             run((*pipeState).verify),
	})
	r.Add(pipeline.Stage[pipeState]{
		Name:            "pinning",
		InputHash:       (*pipeState).pinningHash,
		Needs:           []string{"verify"},
		ToleratePartial: true,
		Run:             run((*pipeState).pinning),
	})
	r.Add(pipeline.Stage[pipeState]{
		Name:            "vpi",
		InputHash:       (*pipeState).vpiHash,
		Needs:           []string{"expansion"},
		ToleratePartial: true,
		Run:             run((*pipeState).vpi),
	})
	r.Add(pipeline.Stage[pipeState]{
		Name:            "classify",
		InputHash:       (*pipeState).classifyHash,
		Needs:           []string{"verify", "pinning", "vpi"},
		ToleratePartial: true,
		Run:             run((*pipeState).classify),
	})
	r.Add(pipeline.Stage[pipeState]{
		Name:            "icg",
		InputHash:       (*pipeState).icgHash,
		Needs:           []string{"verify", "pinning"},
		ToleratePartial: true,
		Run:             run((*pipeState).icg),
	})
	r.Add(pipeline.Stage[pipeState]{
		Name:      "bdrmap",
		InputHash: (*pipeState).bdrmapHash,
		Needs:     []string{"verify"},
		Skip:      func(s *pipeState) bool { return s.cfg.SkipBdrmap },
		Run:       run((*pipeState).bdrmapBaseline),
	})
	// invariants is the pre-report checker: it degrades the run when an
	// inference output fails to cite surviving dataset records, instead of
	// letting a silently-wrong report through.
	r.Add(pipeline.Stage[pipeState]{
		Name:            "invariants",
		InputHash:       (*pipeState).invariantsHash,
		Needs:           []string{"classify", "icg"},
		ToleratePartial: true,
		Run:             run((*pipeState).invariants),
	})
	r.Add(pipeline.Stage[pipeState]{
		Name:            "evaluate",
		InputHash:       (*pipeState).evaluateHash,
		Needs:           []string{"invariants", "bdrmap"},
		ToleratePartial: true,
		Run:             run((*pipeState).evaluate),
	})
	return r
}

// topoGen generates the simulated world (unless the caller supplied one) and
// builds the probing plane the later stages share.
func (s *pipeState) topoGen(_ context.Context, sc *pipeline.StageContext) error {
	if s.sys == nil {
		sys, err := NewSystem(s.cfg)
		if err != nil {
			return err
		}
		s.sys = sys
	} else {
		// Caller-supplied system: the run's Config decides the fault plan
		// (a nil plan yields a nil injector, i.e. fault-free probing).
		inj, err := faults.New(s.cfg.Faults, s.sys.Topology)
		if err != nil {
			return err
		}
		s.sys.Prober.SetFaults(inj)
	}
	s.res = &Result{System: s.sys, Config: s.cfg}
	s.vms = s.sys.Prober.VMs("amazon")
	sc.Counter("ases").Add(int64(len(s.sys.Topology.ASes)))
	sc.Counter("routers").Add(int64(len(s.sys.Topology.Routers)))
	sc.Counter("ifaces").Add(int64(len(s.sys.Topology.Ifaces)))
	sc.Counter("vantage-points").Add(int64(len(s.vms)))
	return nil
}

// datasets is the hygiene round trip: serialize every registry dataset to
// its on-disk textual form (applying the dirty plan, if any), parse it back
// through the validating loaders, and hand the rebuilt registry — with its
// quarantine and coverage report — to the inference stages. On a clean run
// the round trip is faithful and the rebuilt registry annotates identically
// to the original.
func (s *pipeState) datasets(_ context.Context, sc *pipeline.StageContext) error {
	corpus := s.corpus // serialized by datasetsInputHash in epoch mode
	if corpus == nil {
		corpus = datasets.Serialize(s.sys.Registry, s.cfg.Topology.Seed, s.cfg.Dirty)
	}
	s.corpus = nil
	if dir := s.opts.DatasetsDir; dir != "" {
		if err := corpus.WriteDir(dir); err != nil {
			return err
		}
	}
	view := datasets.Load(corpus, s.sys.Registry.World)
	s.hyg = view
	s.res.Hygiene = view
	// In epoch mode the border-inference sink is rebuilt only when the
	// datasets that annotate hops (RIB, WHOIS, IXPs, as2org, clouds)
	// changed: a rebuild invalidates the accumulated inference and forces
	// the campaign stage to re-run (replaying its checkpointed traces).
	// Dataset churn elsewhere — facilities, relationships, cones, rDNS —
	// leaves the inference intact so probing-derived stages hash-skip.
	if ann := s.annotationHash(); !s.epochMode || s.inf == nil || s.lastAnnHash != ann {
		s.inf = border.New(view.Registry, "amazon")
		s.lastAnnHash = ann
	}

	rep := view.Report
	sc.Counter("records-kept").Add(rep.TotalKept)
	sc.Counter("records-quarantined").Add(rep.TotalQuarantined)
	sc.Counter("conflicts-resolved").Add(rep.TotalConflicts)
	for _, ds := range datasets.Datasets {
		if sum := rep.Datasets[ds]; sum != nil && sum.Quarantined > 0 {
			sc.Counter("quarantined-" + ds).Add(sum.Quarantined)
		}
	}
	s.prog.AddQuarantined(rep.TotalQuarantined)
	view.EmitQuarantine(sc.Span())
	if rep.TotalQuarantined > 0 || rep.TotalConflicts > 0 || len(rep.EmptyDatasets) > 0 {
		note := fmt.Sprintf("dataset hygiene: quarantined %d records, resolved %d origin conflicts",
			rep.TotalQuarantined, rep.TotalConflicts)
		if len(rep.EmptyDatasets) > 0 {
			note += fmt.Sprintf(", empty datasets %v", rep.EmptyDatasets)
		}
		sc.Degrade(note)
	}
	return nil
}

// roundSink builds the trace consumer for one probing round: stage counters
// and the hop histogram, the optional caller archive sink, and border
// inference. Trace delivery is single-goroutine (the campaign's ordered
// merge), so the counter and histogram updates batch in plain locals and
// flush through the shared atomics once per sinkBatch traces instead of
// once per trace — the returned flush must run after the round drains to
// push the final partial batch.
func (s *pipeState) roundSink(sc *pipeline.StageContext) (probe.TraceSink, func()) {
	traces := sc.Counter("traces")
	completed := sc.Counter("completed")
	hops := sc.Histogram("hops-per-trace")
	prog := s.prog
	const sinkBatch = 1024
	var (
		nTraces    int64
		nCompleted int64
		hopSmall   [64]int64 // hop-count histogram batch; len(Hops) ≥ 64 overflows to hopBig
		hopBig     map[int64]int64
	)
	flush := func() {
		if nTraces == 0 {
			return
		}
		traces.Add(nTraces)
		if nCompleted > 0 {
			completed.Add(nCompleted)
		}
		for h, n := range hopSmall {
			if n > 0 {
				hops.ObserveN(int64(h), n)
				hopSmall[h] = 0
			}
		}
		for h, n := range hopBig {
			hops.ObserveN(h, n)
			delete(hopBig, h)
		}
		prog.TracesDone(nTraces)
		nTraces, nCompleted = 0, 0
	}
	sink := func(tr probe.Trace) {
		nTraces++
		if tr.Status == probe.StatusCompleted {
			nCompleted++
		}
		if h := len(tr.Hops); h < len(hopSmall) {
			hopSmall[h]++
		} else {
			if hopBig == nil {
				hopBig = make(map[int64]int64)
			}
			hopBig[int64(h)]++
		}
		if nTraces >= sinkBatch {
			flush()
		}
		s.inf.Consume(tr)
	}
	if rec := s.cfg.RecordTraces; rec != nil {
		inner := sink
		sink = func(tr probe.Trace) {
			rec(tr)
			inner(tr)
		}
	}
	return sink, flush
}

// checkpointPath names a probing round's v2 binary tracefile; "" when
// checkpointing is off.
func (s *pipeState) checkpointPath(stage string) string {
	if s.opts.CheckpointDir == "" {
		return ""
	}
	return filepath.Join(s.opts.CheckpointDir, stage+".traces.bin")
}

// probeRound runs one probing round under the retry policy, teeing traces
// into the stage's checkpoint when enabled. epoch separates the virtual
// fault-time schedules of the two rounds. On error (including cancellation)
// the partially written checkpoint is flushed without its completeness
// trailer: loadable, but marked interrupted so a resume re-probes instead
// of trusting it. Fault/retry telemetry lands in the stage's instruments,
// s.roundStats, and — when the round was degraded — a sc.Degrade note.
func (s *pipeState) probeRound(ctx context.Context, sc *pipeline.StageContext, stage string, epoch uint64, targets []netblock.IP) error {
	sink, flushSink := s.roundSink(sc)
	var fw *tracefile.FileWriter
	if path := s.checkpointPath(stage); path != "" {
		var err error
		if fw, err = tracefile.Create(path); err != nil {
			return fmt.Errorf("checkpoint %s: %w", path, err)
		}
		record := fw.Sink()
		inner := sink
		sink = func(tr probe.Trace) {
			record(tr)
			inner(tr)
		}
	}
	s.prog.AddPlanned(int64(len(s.vms)) * int64(len(targets)))
	s.prog.SetRetryBudget(s.cfg.Retry.Budget)
	var remote probe.ChunkExecutor
	if s.disp != nil {
		remote = s.disp
	}
	stats, err := s.sys.Prober.CampaignRetryObsCtx(ctx, sc.Span(), s.prog, remote, s.vms, targets, s.cfg.Workers, s.cfg.Retry, epoch, sink)
	flushSink()
	if fw != nil {
		if err != nil {
			fw.Close()
		} else if cerr := fw.Finish(); cerr != nil {
			err = fmt.Errorf("checkpoint %s: %w", s.checkpointPath(stage), cerr)
		}
	}
	if err == nil && s.epochMode {
		// The freshly written checkpoint now embodies this probing plan;
		// later epochs with an unchanged plan may replay it. The gate is
		// persisted next to the tracefile too, so a restarted daemon (whose
		// in-memory gate is empty) can still replay instead of re-probing.
		if s.probeGate == nil {
			s.probeGate = make(map[string]string)
		}
		s.probeGate[stage] = s.probePlanNow[stage]
		if path := s.checkpointPath(stage); path != "" {
			if werr := os.WriteFile(path+".plan", []byte(s.probePlanNow[stage]+"\n"), 0o644); werr != nil {
				err = fmt.Errorf("checkpoint gate %s.plan: %w", path, werr)
			}
		}
	}
	s.recordRoundStats(sc, stage, stats)
	return err
}

// recordRoundStats exports one round's fault/retry telemetry and flags the
// stage degraded when the fault layer interfered.
func (s *pipeState) recordRoundStats(sc *pipeline.StageContext, stage string, stats probe.CampaignStats) {
	if s.roundStats == nil {
		s.roundStats = make(map[string]probe.CampaignStats)
	}
	s.roundStats[stage] = stats
	sc.Counter("probes").Add(stats.HopProbes)
	if stats.Retries > 0 {
		sc.Counter("retries").Add(stats.Retries)
	}
	if stats.Lost > 0 {
		sc.Counter("faults-lost").Add(stats.Lost)
	}
	if stats.RateLimited > 0 {
		sc.Counter("faults-rate-limited").Add(stats.RateLimited)
	}
	if stats.Outages > 0 {
		sc.Counter("faults-outages").Add(stats.Outages)
	}
	if stats.Flapped > 0 {
		sc.Counter("faults-flapped").Add(stats.Flapped)
	}
	attempts := sc.Histogram("attempts-per-target")
	for i, n := range stats.Attempts {
		attempts.ObserveN(int64(i+1), n)
	}
	if stats.Degraded() {
		note := fmt.Sprintf("%s round: lost %d, rate-limited %d, outage attempts %d, flap-truncated %d of %d probes (%d retries spent)",
			stage, stats.Lost, stats.RateLimited, stats.Outages, stats.Flapped, stats.HopProbes, stats.Retries)
		if stats.BudgetExhausted {
			note += ", retry budget exhausted"
		}
		sc.Degrade(note)
	}
}

// resumeRound replays a complete checkpoint into the round's sink. prepare
// runs only once the checkpoint is known to be usable (e.g. BeginRound2).
func (s *pipeState) resumeRound(ctx context.Context, stage string, sc *pipeline.StageContext, prepare func()) (bool, error) {
	path := s.checkpointPath(stage)
	if path == "" {
		return false, nil
	}
	// Epoch mode: the checkpoint is only a faithful substitute for live
	// probing while the probing plan (topology, fault/retry schedule,
	// target set) that wrote it still holds. On mismatch — including epoch
	// one, before any checkpoint was recorded — probe live and overwrite.
	// A fresh session (daemon restart) has an empty in-memory gate; the
	// gate persisted alongside the tracefile stands in for it, so recovery
	// replays checkpointed probing instead of re-running the campaigns. A
	// torn or missing gate file simply mismatches and re-probes — safe.
	if s.epochMode {
		gate, ok := s.probeGate[stage]
		if !ok {
			if data, rerr := os.ReadFile(path + ".plan"); rerr == nil {
				gate = strings.TrimSpace(string(data))
			}
		}
		if s.probePlanNow[stage] != gate {
			return false, nil
		}
	}
	sum, err := tracefile.ScanFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil
		}
		if errors.Is(err, tracefile.ErrTruncated) {
			// A checkpoint cut off mid-write (crashed run): treat it like a
			// trailer-less file — fall through to live probing, which
			// overwrites it.
			sc.Counter("checkpoint-truncated").Inc()
			return false, nil
		}
		return false, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	if !sum.Complete {
		// An interrupted campaign: fall through to live probing, which
		// overwrites the partial file.
		sc.Counter("checkpoint-partial").Inc()
		return false, nil
	}
	if prepare != nil {
		prepare()
	}
	s.prog.AddPlanned(int64(sum.Traces))
	// The checkpoint's chunk index lets the replay fan decode out across
	// the probing workers; delivery order is identical at any worker count.
	sink, flushSink := s.roundSink(sc)
	_, err = tracefile.ReplayFileParallelCtx(ctx, path, s.cfg.Workers, sink)
	flushSink()
	if err != nil {
		return false, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	sc.Counter("replayed").Add(int64(sum.Traces))
	// A checkpoint from a degraded round replays degraded traces; restore
	// the round's fault/retry telemetry from the manifest that accompanied
	// it, so the resumed run re-raises the degradation (and keeps bdrmap
	// sitting it out) instead of silently treating the data as clean.
	if cs, ok := s.prevRounds[stage]; ok {
		s.recordRoundStats(sc, stage, cs)
	}
	if s.epochMode {
		// The replay validated the persisted gate; cache it in memory so
		// later epochs skip the file read.
		if s.probeGate == nil {
			s.probeGate = make(map[string]string)
		}
		s.probeGate[stage] = s.probePlanNow[stage]
	}
	return true, nil
}

// campaign is the §3 round-1 probing sweep from every Amazon region.
func (s *pipeState) campaign(ctx context.Context, sc *pipeline.StageContext) error {
	targets := probe.Round1Targets(s.sys.Topology, probe.Round1Options{IncludePrivate: s.cfg.IncludePrivateTargets})
	sc.Counter("targets").Add(int64(len(targets)))
	if err := s.probeRound(ctx, sc, "campaign", 1, targets); err != nil {
		return fmt.Errorf("round 1: %w", err)
	}
	return nil
}

func (s *pipeState) resumeCampaign(ctx context.Context, sc *pipeline.StageContext) (bool, error) {
	return s.resumeRound(ctx, "campaign", sc, nil)
}

// borderSnapshot records the §4.1 round-1 view (Table 1's pre-expansion
// rows) before expansion mutates the inference.
func (s *pipeState) borderSnapshot(_ context.Context, sc *pipeline.StageContext) error {
	s.res.Border = s.inf
	s.res.Round1ABIs = s.inf.BreakdownABIs()
	s.res.Round1CBIs = s.inf.BreakdownCBIs()
	s.res.Round1PeerASes = len(s.inf.PeerASNs())
	sc.Counter("abis").Add(int64(s.res.Round1ABIs.Total))
	sc.Counter("cbis").Add(int64(s.res.Round1CBIs.Total))
	sc.Counter("peer-ases").Add(int64(s.res.Round1PeerASes))
	return nil
}

// expansion is the §4.2 round-2 sweep over every other address in each
// candidate CBI's /24.
func (s *pipeState) expansion(ctx context.Context, sc *pipeline.StageContext) error {
	s.inf.BeginRound2()
	exp := probe.ExpansionTargets(s.inf.CandidateCBIs())
	sc.Counter("targets").Add(int64(len(exp)))
	if err := s.probeRound(ctx, sc, "expansion", 2, exp); err != nil {
		return fmt.Errorf("round 2: %w", err)
	}
	sc.Counter("new-cbis").Add(int64(s.inf.BreakdownCBIs().Total - s.res.Round1CBIs.Total))
	return nil
}

func (s *pipeState) resumeExpansion(ctx context.Context, sc *pipeline.StageContext) (bool, error) {
	return s.resumeRound(ctx, "expansion", sc, s.inf.BeginRound2)
}

// alias is the §5.2 prerequisite: MIDAR-style alias resolution over all
// candidate interfaces.
func (s *pipeState) alias(_ context.Context, sc *pipeline.StageContext) error {
	targets := append(s.inf.CandidateABIs(), s.inf.CandidateCBIs()...)
	s.res.Aliases = midar.Resolve(s.sys.Prober, s.vms, targets, s.cfg.Midar)
	sc.Counter("targets").Add(int64(len(targets)))
	sc.Counter("alias-sets").Add(int64(len(s.res.Aliases)))
	return nil
}

// verify applies the §5 heuristics and alias corrections.
func (s *pipeState) verify(_ context.Context, sc *pipeline.StageContext) error {
	if s.hyg.Empty(datasets.DSIXPs) {
		sc.Degrade("verify: IXP dataset empty after hygiene; IXP-client heuristic has no evidence base")
	}
	s.res.Verified = verify.Run(s.inf, s.reg(), s.sys.Prober.ReachableFromVP, s.res.Aliases, s.cfg.Verify)
	total := len(s.inf.CandidateABIs())
	sc.Counter("candidate-abis").Add(int64(total))
	sc.Counter("confirmed-abis").Add(int64(total - s.res.Verified.UnconfirmedABIs))
	sc.Counter("alias-corrections").Add(int64(s.res.Verified.ABIToCBI + s.res.Verified.CBIToABI + s.res.Verified.CBIOwnerChange))
	if n := len(s.res.Verified.LowConfidence); n > 0 {
		sc.Counter("low-confidence").Add(int64(n))
	}
	return nil
}

// pinning runs §6 plus the §6.2 cross-validation.
func (s *pipeState) pinning(_ context.Context, sc *pipeline.StageContext) error {
	if s.hyg.Empty(datasets.DSFacilities) {
		sc.Degrade("pinning: facility dataset empty after hygiene; metro anchors have no evidence base")
	}
	s.res.Pinning = pinning.Run(s.res.Verified, s.inf, s.reg(), s.sys.Prober, s.res.Aliases, s.cfg.Pinning)
	s.res.PinningCV = pinning.CrossValidate(s.res.Pinning, s.res.Aliases, s.cfg.CVFolds, 0.7, s.cfg.Topology.Seed)
	sc.Counter("metro-pinned").Add(int64(len(s.res.Pinning.Metro)))
	sc.Counter("total-ifaces").Add(int64(s.res.Pinning.TotalIfaces))
	sc.Gauge("cv-precision").Set(s.res.PinningCV.Precision)
	sc.Gauge("cv-recall").Set(s.res.PinningCV.Recall)
	if n := len(s.res.Pinning.SuspectPins); n > 0 {
		sc.Counter("suspect-pins").Add(int64(n))
	}
	return nil
}

// vpi is the §7.1 multi-cloud overlap detection.
func (s *pipeState) vpi(_ context.Context, sc *pipeline.StageContext) error {
	res, err := vpi.Detect(s.sys.Prober, s.reg(), s.res.Border, s.cfg.VPIClouds)
	if err != nil {
		return err
	}
	s.res.VPI = res
	sc.Counter("clouds").Add(int64(len(s.cfg.VPIClouds)))
	sc.Counter("vpi-cbis").Add(int64(len(s.res.VPI.VPICBIs)))
	return nil
}

// classify is the §7.2–7.3 peering classification.
func (s *pipeState) classify(_ context.Context, sc *pipeline.StageContext) error {
	if s.hyg.Empty(datasets.DSASRel) {
		sc.Degrade("classify: AS-relationship dataset empty after hygiene; BGP-visibility attribute has no evidence base")
	}
	s.res.Groups = classifyPeerings(s.reg(), s.res)
	sc.Counter("peer-ases").Add(int64(s.res.Groups.PeerASes))
	sc.Gauge("hidden-share").Set(s.res.Groups.HiddenShare)
	return nil
}

// icg is the §7.4 interface connectivity graph analysis.
func (s *pipeState) icg(_ context.Context, sc *pipeline.StageContext) error {
	s.res.Graph = buildICG(s.res)
	sc.Counter("edges").Add(int64(s.res.Graph.Edges))
	sc.Gauge("largest-cc-frac").Set(s.res.Graph.LargestCCFrac)
	return nil
}

// bdrmapBaseline is the §8 comparison.
func (s *pipeState) bdrmapBaseline(_ context.Context, sc *pipeline.StageContext) error {
	runs, err := bdrmap.Run(s.sys.Prober, s.reg(), "amazon", s.cfg.Bdrmap)
	if err != nil {
		return err
	}
	s.res.BdrmapRuns = runs
	cmp := bdrmap.Compare(runs, s.res.Verified, s.reg())
	s.res.Bdrmap = &cmp
	sc.Counter("regions").Add(int64(len(runs)))
	sc.Counter("flips").Add(int64(cmp.Flipped))
	sc.Counter("multi-owner-cbis").Add(int64(cmp.MultiOwnerCBIs))
	return nil
}

// evaluate digests the run's headline quantities into gauges and the
// manifest summary.
func (s *pipeState) evaluate(_ context.Context, sc *pipeline.StageContext) error {
	fa, fc := s.inf.BreakdownABIs(), s.inf.BreakdownCBIs()
	s.summary = map[string]float64{
		"abis":            float64(fa.Total),
		"cbis":            float64(fc.Total),
		"peer_ases":       float64(len(s.inf.PeerASNs())),
		"hidden_share":    s.res.Groups.HiddenShare,
		"largest_cc_frac": s.res.Graph.LargestCCFrac,
		"cv_precision":    s.res.PinningCV.Precision,
		"cv_recall":       s.res.PinningCV.Recall,
	}
	if s.res.Pinning.TotalIfaces > 0 {
		s.summary["metro_pinned_frac"] = float64(len(s.res.Pinning.Metro)) / float64(s.res.Pinning.TotalIfaces)
	}
	if s.res.VPI != nil && s.res.VPI.AmazonNonIXPCBIs > 0 {
		s.summary["vpi_share"] = float64(len(s.res.VPI.VPICBIs)) / float64(s.res.VPI.AmazonNonIXPCBIs)
	}
	for k, v := range s.summary {
		sc.Gauge(k).Set(v)
	}
	return nil
}

// configHash fingerprints the result-affecting part of a Config. The trace
// sink is a function and Workers never changes output (parallel campaigns
// are order-deterministic), so both are excluded — a checkpoint taken on an
// 8-core box resumes on a 64-core one. The fault plan is a pointer, which
// %#v would print as an address (different every run); it is folded in via
// its canonical JSON instead.
func configHash(cfg Config) string {
	cfg.RecordTraces = nil
	cfg.Workers = 0
	planJSON, err := json.Marshal(cfg.Faults) // "null" for nil
	if err != nil {
		panic(fmt.Sprintf("cloudmap: fault plan not marshallable: %v", err)) // plain-data struct; unreachable
	}
	cfg.Faults = nil
	dirtyJSON, err := json.Marshal(cfg.Dirty) // "null" for nil
	if err != nil {
		panic(fmt.Sprintf("cloudmap: dirty plan not marshallable: %v", err)) // plain-data struct; unreachable
	}
	cfg.Dirty = nil
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v|faults=%s|dirty=%s", cfg, planJSON, dirtyJSON)))
	return hex.EncodeToString(sum[:8])
}

// manifestPath names the manifest inside a checkpoint dir.
func manifestPath(dir string) string { return filepath.Join(dir, "manifest.json") }

// loadCompatibleManifest reads the checkpoint dir's manifest, refusing to
// resume over checkpoints written by a different configuration. A missing
// manifest returns nil (stage checkpoints decide on their own).
func loadCompatibleManifest(dir, hash string) (*Manifest, error) {
	raw, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("cloudmap: manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("cloudmap: manifest: %w", err)
	}
	if m.ConfigHash != hash {
		return nil, fmt.Errorf("cloudmap: checkpoint dir %s was written with config hash %s, current config hashes to %s: refusing to resume", dir, m.ConfigHash, hash)
	}
	return &m, nil
}

// writeChromeTrace persists the tracer's buffered Chrome trace events.
func writeChromeTrace(path string, tracer *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("cloudmap: chrome trace: %w", err)
	}
	err = tracer.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("cloudmap: chrome trace: %w", err)
	}
	return nil
}

func writeManifest(dir string, rep *RunReport) error {
	f, err := os.Create(manifestPath(dir))
	if err != nil {
		return fmt.Errorf("cloudmap: manifest: %w", err)
	}
	err = rep.WriteManifestJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("cloudmap: manifest: %w", err)
	}
	return nil
}
