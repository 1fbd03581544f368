// Package cloudmap reproduces the measurement study "How Cloud Traffic Goes
// Hiding: A Study of Amazon's Peering Fabric" (IMC 2019) end to end: it
// simulates an Internet with a ground-truth cloud peering fabric, runs the
// paper's cloud-centric traceroute campaigns against it, and applies the
// paper's inference pipeline — border inference (§4), verification (§5),
// pinning (§6), VPI detection and peering classification (§7), and the
// bdrmap comparison (§8) — using only measurement data and public datasets.
//
// The package is the orchestration layer: each stage lives in its own
// internal package and is reusable on its own. A full run is:
//
//	res, err := cloudmap.Run(cloudmap.SmallConfig())
//
// after which res holds every table and figure of the paper's evaluation.
// RunPipeline is the staged form of the same run: an explicit stage DAG
// with per-stage metrics, context cancellation, tracefile checkpointing of
// the probing campaigns, resume from stored traces, and a JSON run
// manifest.
package cloudmap

import (
	"context"
	"fmt"
	"runtime"

	"cloudmap/internal/bdrmap"
	"cloudmap/internal/border"
	"cloudmap/internal/datasets"
	"cloudmap/internal/faults"
	"cloudmap/internal/midar"
	"cloudmap/internal/model"
	"cloudmap/internal/pinning"
	"cloudmap/internal/probe"
	"cloudmap/internal/registry"
	"cloudmap/internal/route"
	"cloudmap/internal/topo"
	"cloudmap/internal/verify"
)

// Config selects the scale of the simulated Internet and tunes each
// pipeline stage.
type Config struct {
	// Topology generation (world scale, peering mix, measurement
	// behaviour).
	Topology topo.Config
	// Verify toggles the §5 heuristics.
	Verify verify.Options
	// Pinning tunes §6.
	Pinning pinning.Options
	// Midar tunes alias resolution.
	Midar midar.Config

	// IncludePrivateTargets probes 10/8 and 100.64/10 as the paper does.
	IncludePrivateTargets bool
	// SkipExpansion disables the §4.2 round (ablation).
	SkipExpansion bool
	// SkipAliasResolution disables MIDAR (ablation); verification then runs
	// without alias sets.
	SkipAliasResolution bool
	// VPIClouds are the foreign clouds probed for §7.1 overlap detection.
	VPIClouds []string
	// CVFolds is the number of cross-validation folds for §6.2.
	CVFolds int
	// SkipBdrmap disables the §8 baseline comparison.
	SkipBdrmap bool
	// Bdrmap tunes the §8 baseline.
	Bdrmap bdrmap.Config
	// Faults, when non-nil, layers the deterministic fault model under the
	// probing campaigns: ICMP rate limiters, bursty loss, link flaps, and
	// region outages, all replayable from the plan+topology seed (see
	// internal/faults). Nil probes a fault-free world.
	Faults *faults.Plan
	// Dirty, when non-nil, corrupts the serialized input datasets before
	// the hygiene layer parses them back: row drops, truncation, staleness,
	// conflicting duplicates, bogon ASNs — all replayable from the
	// plan+topology seed (see internal/datasets). Nil round-trips the
	// datasets faithfully.
	Dirty *datasets.DirtyPlan
	// Retry governs re-probing of fault-degraded traceroutes (attempts,
	// virtual-time backoff, campaign retry budget). The zero value probes
	// each target once.
	Retry probe.RetryPolicy
	// Workers parallelises the probing campaigns across goroutines
	// (results stay byte-identical to a sequential run). <=0 defaults to
	// runtime.GOMAXPROCS(0); 1 means sequential.
	Workers int
	// RecordTraces, when non-nil, receives every Amazon-campaign traceroute
	// (rounds 1 and 2) — wire it to a tracefile.Writer to archive the
	// campaign for later replay. The trace is passed through, not copied:
	// tr.Hops shares the campaign's hop arena. As for any probe.TraceSink,
	// the hops stay valid after the sink returns, so the sink may keep
	// the trace, but it must not write through tr.Hops
	// (tracefile.Writer encodes each trace on the spot and keeps nothing).
	RecordTraces probe.TraceSink
}

// DefaultConfig is the paper-comparable scale (minutes of CPU).
func DefaultConfig() Config {
	return Config{
		Topology:              topo.DefaultConfig(),
		Verify:                verify.DefaultOptions(),
		Pinning:               pinning.DefaultOptions(),
		Midar:                 midar.DefaultConfig(),
		IncludePrivateTargets: true,
		VPIClouds:             []string{"microsoft", "google", "ibm", "oracle"},
		CVFolds:               10,
		Bdrmap:                bdrmap.DefaultConfig(),
	}
}

// SmallConfig is a test-sized configuration (seconds of CPU).
func SmallConfig() Config {
	cfg := DefaultConfig()
	cfg.Topology = topo.SmallConfig()
	cfg.IncludePrivateTargets = false
	return cfg
}

// MediumConfig sits between the two; benchmarks use it.
func MediumConfig() Config {
	cfg := DefaultConfig()
	cfg.Topology = topo.MediumConfig()
	cfg.IncludePrivateTargets = false
	return cfg
}

// System bundles the simulated world and its measurement plane.
type System struct {
	Topology  *model.Topology
	Registry  *registry.Registry
	Forwarder *route.Forwarder
	Prober    *probe.Prober
}

// NewSystem generates the topology and builds datasets and probers.
func NewSystem(cfg Config) (*System, error) {
	t, err := topo.Generate(cfg.Topology)
	if err != nil {
		return nil, fmt.Errorf("cloudmap: topology generation: %w", err)
	}
	reg := registry.Build(t, cfg.Topology.Seed)
	fwd := route.NewForwarder(t)
	pr := probe.NewProber(t, fwd)
	inj, err := faults.New(cfg.Faults, t) // nil plan -> nil injector
	if err != nil {
		return nil, err
	}
	pr.SetFaults(inj)
	return &System{
		Topology:  t,
		Registry:  reg,
		Forwarder: fwd,
		Prober:    pr,
	}, nil
}

// Result accumulates every pipeline output.
type Result struct {
	System *System
	Config Config

	// Hygiene is the dataset hygiene view: the registry the inference
	// stages actually consumed (rebuilt from the serialized datasets), the
	// accepted records with provenance, the quarantine, and the coverage
	// report that lands in the manifest's dataset_hygiene section.
	Hygiene *datasets.View

	// Border is the raw §4 inference (rounds 1 and 2).
	Border *border.Inference
	// Round1CBIs/ABIs snapshot Table 1's pre-expansion rows.
	Round1ABIs, Round1CBIs border.MetaBreakdown
	Round1PeerASes         int

	// Aliases are the MIDAR alias sets (§5.2).
	Aliases []midar.AliasSet
	// Verified is the corrected border view (§5).
	Verified *verify.Result
	// Pinning is the §6 result; PinningCV its §6.2 cross-validation.
	Pinning   *pinning.Result
	PinningCV pinning.CVResult
	// VPI is the §7.1 overlap detection result.
	VPI *VPIResult
	// Groups is the §7.2-7.3 classification.
	Groups *GroupingResult
	// Graph is the §7.4 interface connectivity graph analysis.
	Graph *ICGResult
	// BdrmapRuns and Bdrmap are the §8 baseline and its comparison.
	BdrmapRuns []*bdrmap.RegionResult
	Bdrmap     *bdrmap.Comparison
}

// withDefaults is the one place run-time defaults are applied: every entry
// point (Run, RunOn, RunPipeline) normalises its Config here before use.
func (cfg Config) withDefaults() Config {
	if cfg.CVFolds <= 0 {
		cfg.CVFolds = 10
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return cfg
}

// Run executes the full pipeline. The staged form with telemetry,
// checkpointing, and cancellation is RunPipeline; Run keeps the
// one-call-no-options interface.
func Run(cfg Config) (*Result, error) {
	res, _, err := RunPipeline(context.Background(), nil, cfg, RunOptions{})
	return res, err
}

// RunOn executes the pipeline over an existing system (lets callers reuse
// one simulated world across ablation runs).
func RunOn(sys *System, cfg Config) (*Result, error) {
	res, _, err := RunPipeline(context.Background(), sys, cfg, RunOptions{})
	return res, err
}
