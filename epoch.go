package cloudmap

// Epoch sessions are the incremental form of the pipeline: a Session keeps
// the stage state alive between runs ("epochs") and fingerprints every
// stage's inputs so the runner re-executes only stages whose inputs changed.
// This is what turns the one-shot reproduction into a resident monitor
// (cmd/cloudmapd): topology churn between epochs — re-homed prefixes,
// facility moves, dataset updates — re-runs the dependent inference stages
// and nothing else, and the probing campaigns are replayed from their
// checkpoints instead of re-probed for dataset-only changes.
//
// Determinism contract: epochs are numbered by a counter, never the wall
// clock, and every input hash is a content hash, so the same seed, config,
// and churn sequence produce the same per-epoch stage statuses, hashes, and
// results at any worker count.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"cloudmap/internal/datasets"
	"cloudmap/internal/dispatch"
	"cloudmap/internal/metrics"
	"cloudmap/internal/netblock"
	"cloudmap/internal/obs"
	"cloudmap/internal/pipeline"
	"cloudmap/internal/registry"
)

// SessionOptions tunes a Session beyond the pipeline Config.
type SessionOptions struct {
	// CheckpointDir persists the probing rounds between epochs so an epoch
	// whose annotation datasets changed (but whose probing plan did not)
	// replays the stored traces instead of re-probing. Empty disables
	// replay: such epochs re-probe (same traces, more work).
	CheckpointDir string
	// Metrics receives every stage's instruments across all epochs; nil
	// creates a private registry. Counters accumulate over the session's
	// lifetime (Prometheus semantics for the live /metrics endpoint).
	Metrics *metrics.Registry
	// Progress, when non-nil, receives live stage/trace updates.
	Progress *obs.Progress
	// Dispatch, when non-nil, leases the probing campaigns' chunks to the
	// configured remote agents; one controller (heartbeats, hedging state)
	// persists across the session's epochs. Close releases it.
	Dispatch *dispatch.Options
}

// EpochReport records one epoch's scheduling outcome: which stages ran,
// which were hash-skipped, and the per-stage input hashes. It contains no
// wall-clock material, so a journal built from it replays byte-identically.
type EpochReport struct {
	Epoch  uint64                 `json:"epoch"`
	Stages []pipeline.StageResult `json:"stages"`
	// Summary carries the run's headline quantities after this epoch.
	Summary map[string]float64 `json:"summary,omitempty"`
}

// StagesRun returns the names of stages that actually executed this epoch
// (ran or replayed a checkpoint — everything except skips).
func (r *EpochReport) StagesRun() []string {
	var out []string
	for _, sr := range r.Stages {
		if sr.Status == pipeline.StatusOK || sr.Status == pipeline.StatusResumed {
			out = append(out, sr.Name)
		}
	}
	return out
}

// StagesSkipped returns the names of hash-skipped stages.
func (r *EpochReport) StagesSkipped() []string {
	var out []string
	for _, sr := range r.Stages {
		if sr.Status == pipeline.StatusSkippedUnchanged {
			out = append(out, sr.Name)
		}
	}
	return out
}

// Session drives the pipeline epoch by epoch over one simulated world,
// retaining stage outputs in memory between epochs. Not safe for concurrent
// use; callers serialize RunEpoch/SetRegistry (cloudmapd's epoch loop does).
type Session struct {
	cfg   Config
	opts  SessionOptions
	sys   *System
	st    *pipeState
	reg   *metrics.Registry
	prev  []pipeline.StageResult // the last successful epoch's stages; nil after a failure
	epoch uint64
}

// NewSession generates the world for cfg and prepares the epoch state.
func NewSession(cfg Config, opts SessionOptions) (*Session, error) {
	cfg = cfg.withDefaults()
	sys, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	st, err := newPipeState(cfg, RunOptions{CheckpointDir: opts.CheckpointDir, Progress: opts.Progress, Dispatch: opts.Dispatch}, sys)
	if err != nil {
		return nil, err
	}
	return &Session{cfg: cfg, opts: opts, sys: sys, st: st, reg: reg}, nil
}

// Close releases session resources: the dispatch controller's heartbeat
// loop, when distributed probing is configured. Safe on a nil-dispatch
// session and safe to call repeatedly.
func (s *Session) Close() { s.st.close() }

// Dispatch exposes the session's dispatch controller; nil when probing runs
// in-process. The daemon reads its Stats for the status surface.
func (s *Session) Dispatch() *dispatch.Controller { return s.st.disp }

// System exposes the session's simulated world.
func (s *Session) System() *System { return s.sys }

// Epoch returns the number of the last completed (or attempted) epoch;
// zero before the first RunEpoch.
func (s *Session) Epoch() uint64 { return s.epoch }

// SetEpoch overrides the epoch counter, so the next RunEpoch runs as epoch
// n+1. Two callers: a rehydrated daemon resuming numbering where its
// journal left off, and the epoch supervisor rewinding before retrying a
// failed epoch (a retry must not consume a fresh epoch number).
func (s *Session) SetEpoch(n uint64) { s.epoch = n }

// SetRegistry replaces the world's public-dataset registry before the next
// epoch — the churn hook: cloudmapd derives each epoch's registry from the
// previous one (re-homed prefixes, facility moves) and installs it here.
// The next epoch's dataset hashes pick the changes up and re-run exactly
// the dependent stages.
func (s *Session) SetRegistry(reg *registry.Registry) { s.sys.Registry = reg }

// RunEpoch executes one epoch: every stage whose input hash changed since
// the last successful epoch re-runs and rebuilds what it owns; the rest
// hash-skip, keeping their outputs and their degradation. A failed epoch
// may leave any stage half rebuilt, so the epoch after it runs every stage.
// The returned Result is the live view after the epoch (shared with the
// session — callers must extract what they keep). The report is returned
// even on failure.
func (s *Session) RunEpoch(ctx context.Context) (*Result, *EpochReport, error) {
	s.epoch++
	stages, err := newRunner(s.reg).Run(ctx, s.st, pipeline.Options{Progress: s.opts.Progress, Prev: s.prev})
	rep := &EpochReport{Epoch: s.epoch, Stages: stages, Summary: s.st.summary}
	if err != nil {
		s.prev = nil
		return nil, rep, err
	}
	s.prev = stages
	return s.st.res, rep, nil
}

// --- stage input hashing -------------------------------------------------

// shortHash is the session's content-hash primitive: SHA-256 over the parts
// separated by an unambiguous delimiter, truncated like configHash.
func shortHash(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s|", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// canonJSON marshals v canonically (struct field order; sorted map keys —
// encoding/json sorts map keys by default).
func canonJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("cloudmap: input hash marshal: %v", err)) // plain-data configs; unreachable
	}
	return string(b)
}

// hashIPs fingerprints a target list order-independently.
func hashIPs(ips []netblock.IP) string {
	sorted := append([]netblock.IP(nil), ips...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	h := sha256.New()
	var buf [4]byte
	for _, ip := range sorted {
		buf[0], buf[1], buf[2], buf[3] = byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// put records a stage's input hash for downstream stages and returns it.
func (s *pipeState) put(stage, h string) string {
	s.stageHash[stage] = h
	return h
}

// annotationHash fingerprints the datasets that decide per-hop annotations
// (and therefore the border walk): RIB, WHOIS, IXPs, as2org, clouds.
func (s *pipeState) annotationHash() string {
	return shortHash("ann",
		s.dsHash[datasets.DSRib], s.dsHash[datasets.DSWhois], s.dsHash[datasets.DSIXPs],
		s.dsHash[datasets.DSAs2org], s.dsHash[datasets.DSClouds])
}

// probePlanHash fingerprints everything that decides what a probing round
// sends and how the fault layer answers: the topology, the fault plan, the
// retry policy, and the round's target derivation inputs.
func (s *pipeState) probePlanHash(extra ...string) string {
	parts := append([]string{
		s.stageHash["topo-gen"],
		canonJSON(s.cfg.Faults),
		canonJSON(s.cfg.Retry),
	}, extra...)
	return shortHash(parts...)
}

func (s *pipeState) topoGenHash() string {
	return s.put("topo-gen", shortHash("topo-gen", canonJSON(s.cfg.Topology)))
}

// datasetsInputHash serializes the (possibly churned) registry and hashes
// each dataset file; the serialization is cached for the stage's Run.
func (s *pipeState) datasetsInputHash() string {
	corpus := datasets.Serialize(s.sys.Registry, s.cfg.Topology.Seed, s.cfg.Dirty)
	s.corpus = corpus
	s.dsHash = make(map[string]string, len(datasets.Datasets))
	parts := []string{"datasets", s.stageHash["topo-gen"], canonJSON(s.cfg.Dirty)}
	for _, ds := range datasets.Datasets {
		fh := shortHash(string(corpus.Files[datasets.FileOf(ds)]))
		s.dsHash[ds] = fh
		parts = append(parts, ds, fh)
	}
	return s.put("datasets", shortHash(parts...))
}

// round1Plan is round 1's probing plan: its targets derive from the
// topology alone.
func (s *pipeState) round1Plan() string {
	return s.probePlanHash("round1", fmt.Sprint(s.cfg.IncludePrivateTargets))
}

// expansionPlan is round 2's probing plan. Its targets derive from the
// candidate CBIs of round 1 (probe.ExpansionTargets), which therefore stand
// in for them.
func (s *pipeState) expansionPlan() string {
	return s.probePlanHash("round2", hashIPs(s.inf.CandidateCBIs()))
}

func (s *pipeState) campaignHash() string {
	return s.put("campaign", shortHash("campaign", s.round1Plan(), s.annotationHash()))
}

func (s *pipeState) borderHash() string {
	return s.put("border", shortHash("border", s.stageHash["campaign"]))
}

func (s *pipeState) expansionHash() string {
	return s.put("expansion", shortHash("expansion", s.stageHash["campaign"]))
}

func (s *pipeState) aliasHash() string {
	return s.put("alias", shortHash("alias", s.stageHash["expansion"], canonJSON(s.cfg.Midar)))
}

func (s *pipeState) verifyHash() string {
	return s.put("verify", shortHash("verify", s.stageHash["alias"], canonJSON(s.cfg.Verify)))
}

func (s *pipeState) pinningHash() string {
	return s.put("pinning", shortHash("pinning",
		s.stageHash["verify"],
		s.dsHash[datasets.DSFacilities], s.dsHash[datasets.DSRDNS],
		canonJSON(s.cfg.Pinning), fmt.Sprint(s.cfg.CVFolds)))
}

func (s *pipeState) vpiHash() string {
	return s.put("vpi", shortHash("vpi",
		s.stageHash["expansion"], canonJSON(s.cfg.VPIClouds), s.dsHash[datasets.DSClouds]))
}

func (s *pipeState) classifyHash() string {
	return s.put("classify", shortHash("classify",
		s.stageHash["verify"], s.stageHash["pinning"], s.stageHash["vpi"],
		s.dsHash[datasets.DSASRel], s.dsHash[datasets.DSCones], s.dsHash[datasets.DSRDNS]))
}

func (s *pipeState) icgHash() string {
	return s.put("icg", shortHash("icg", s.stageHash["verify"], s.stageHash["pinning"]))
}

func (s *pipeState) bdrmapHash() string {
	return s.put("bdrmap", shortHash("bdrmap", s.stageHash["verify"], canonJSON(s.cfg.Bdrmap)))
}

func (s *pipeState) invariantsHash() string {
	return s.put("invariants", shortHash("invariants", s.stageHash["classify"], s.stageHash["icg"]))
}

func (s *pipeState) evaluateHash() string {
	return s.put("evaluate", shortHash("evaluate", s.stageHash["invariants"], s.stageHash["bdrmap"]))
}
