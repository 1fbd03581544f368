package main

// The traced run's layer pass: the public function of each layer, called
// from here on the workload's own world and inputs and timed. Every
// campaign and stage call gets a fresh forwarder and prober, so none is
// timed against caches an earlier call warmed. The per-call route and
// traceroute timings are the exception: they walk one sample repeatedly
// and so measure the warm path.

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"cloudmap"
	"cloudmap/internal/bdrmap"
	"cloudmap/internal/border"
	"cloudmap/internal/datasets"
	"cloudmap/internal/faults"
	"cloudmap/internal/grouping"
	"cloudmap/internal/icg"
	"cloudmap/internal/midar"
	"cloudmap/internal/pinning"
	"cloudmap/internal/probe"
	"cloudmap/internal/registry"
	"cloudmap/internal/route"
	"cloudmap/internal/service"
	"cloudmap/internal/topo"
	"cloudmap/internal/tracefile"
	"cloudmap/internal/verify"
	"cloudmap/internal/vpi"
)

const (
	layerReps = 3
	// layerMinDur keeps sub-millisecond layers (one codec pass over the
	// sweep's traces) repeating long enough for a stable median.
	layerMinDur = 200 * time.Millisecond
	// sweepShare is the share of the round-1 target list the worker sweep
	// probes from every Amazon region: large enough that chunk scheduling
	// reaches steady state, small enough that the sweep costs seconds.
	sweepShare = 4
	// sampleTraces is how many (vantage, destination) pairs the per-call
	// route and traceroute timings walk per repetition.
	sampleTraces = 4096
)

// layerPass measures every layer metric that does not come from the ops'
// manifests. ref is the Workers=1 reference result (its world, datasets and
// inference stages feed the layer calls); workers is the ops' worker count.
func layerPass(ctx context.Context, cfg cloudmap.Config, ref *cloudmap.Result, churnPlan *service.ChurnPlan, workers int, workdir string) (map[string]float64, error) {
	m := map[string]float64{}
	sys := ref.System
	t := sys.Topology
	seed := cfg.Topology.Seed

	// World construction: what NewSystem (every workload's set-up) does.
	var genErr error
	m["topo.generate_s"] = repeat(layerReps, 0, func() {
		_, genErr = topo.Generate(cfg.Topology)
	})
	if genErr != nil {
		return nil, genErr
	}
	m["registry.build_s"] = repeat(layerReps, 0, func() { registry.Build(t, seed) })
	m["route.new_forwarder_s"] = repeat(layerReps, 0, func() { route.NewForwarder(t) })

	newProber := func() (*probe.Prober, error) {
		p := probe.NewProber(t, route.NewForwarder(t))
		inj, err := faults.New(cfg.Faults, t)
		if err != nil {
			return nil, err
		}
		p.SetFaults(inj)
		return p, nil
	}

	// Worker sweep over a slice of the round-1 campaign, under the
	// workload's fault plan and retry policy.
	all := probe.Round1Targets(t, probe.Round1Options{IncludePrivate: cfg.IncludePrivateTargets})
	targets := all[:len(all)/sweepShare]
	vms := sys.Prober.VMs("amazon")
	var traces []probe.Trace
	campaign := func(w int) (float64, error) {
		var secs []float64
		for i := 0; i < layerReps; i++ {
			p, err := newProber()
			if err != nil {
				return 0, err
			}
			traces = traces[:0]
			sink := func(tr probe.Trace) { traces = append(traces, tr) }
			var cerr error
			d := timed(func() {
				_, cerr = p.CampaignRetryCtx(ctx, vms, targets, w, cfg.Retry, 1, sink)
			})
			if cerr != nil {
				return 0, cerr
			}
			secs = append(secs, d.Seconds())
		}
		return median(secs), nil
	}
	var err error
	if m["probe.campaign_w1_s"], err = campaign(1); err != nil {
		return nil, err
	}
	if m["probe.campaign_wN_s"], err = campaign(workers); err != nil {
		return nil, err
	}
	m["probe.campaign_speedup"] = m["probe.campaign_w1_s"] / m["probe.campaign_wN_s"]

	// Per-call costs over a fixed sample of the sweep's pairs.
	sample := traces
	if len(sample) > sampleTraces {
		sample = sample[:sampleTraces]
	}
	fwd := route.NewForwarder(t)
	rvms := make([]route.VM, len(sample))
	for i, tr := range sample {
		c, ok := t.CloudByName(tr.Src.Cloud)
		if !ok {
			return nil, fmt.Errorf("sweep trace from unknown cloud %q", tr.Src.Cloud)
		}
		rvms[i] = route.VM{Cloud: c.ID, Region: tr.Src.Region}
	}
	m["route.trace_ns"] = 1e9 / float64(len(sample)) * repeat(layerReps, layerMinDur, func() {
		for i, tr := range sample {
			fwd.TraceAt(rvms[i], tr.Dst, 0)
		}
	})
	p, err := newProber()
	if err != nil {
		return nil, err
	}
	var trErr error
	m["probe.traceroute_ns"] = 1e9 / float64(len(sample)) * repeat(layerReps, layerMinDur, func() {
		for _, tr := range sample {
			if _, _, err := p.TracerouteAt(tr.Src, tr.Dst, 0); err != nil {
				trErr = err
			}
		}
	})
	if trErr != nil {
		return nil, trErr
	}

	// Border inference over the sweep's traces, against the registry the
	// reference run's inference consumed.
	reg := ref.Hygiene.Registry
	var inf *border.Inference
	var consume []float64
	for i := 0; i < layerReps; i++ {
		inf = border.New(reg, "amazon")
		d := timed(func() {
			for _, tr := range traces {
				inf.Consume(tr)
			}
		})
		consume = append(consume, float64(d.Nanoseconds())/float64(len(traces)))
	}
	m["border.consume_ns"] = median(consume)

	// Tracefile codec: binary encode, then replay at 1 and N workers into a
	// counting sink.
	path := filepath.Join(workdir, "sweep.traces.bin")
	var encErr error
	encode := repeat(layerReps, layerMinDur, func() {
		fw, err := tracefile.Create(path)
		if err != nil {
			encErr = err
			return
		}
		for _, tr := range traces {
			fw.Write(tr)
		}
		if err := fw.Finish(); err != nil {
			encErr = err
		}
	})
	if encErr != nil {
		return nil, fmt.Errorf("tracefile encode: %w", encErr)
	}
	m["tracefile.encode_traces_per_s"] = float64(len(traces)) / encode
	st, err := tracefile.StatFile(path)
	if err != nil {
		return nil, fmt.Errorf("tracefile stat: %w", err)
	}
	m["tracefile.bytes_per_trace"] = st.BytesPerTrace()
	replay := func(w int) (float64, error) {
		var n int
		var rerr error
		secs := repeat(layerReps, layerMinDur, func() {
			n = 0
			_, rerr = tracefile.ReplayFileParallel(path, w, func(probe.Trace) { n++ })
		})
		if rerr != nil {
			return 0, fmt.Errorf("tracefile replay: %w", rerr)
		}
		if n != len(traces) {
			return 0, fmt.Errorf("tracefile replay at %d workers returned %d of %d traces", w, n, len(traces))
		}
		return float64(n) / secs, nil
	}
	if m["tracefile.replay_w1_traces_per_s"], err = replay(1); err != nil {
		return nil, err
	}
	if m["tracefile.replay_wN_traces_per_s"], err = replay(workers); err != nil {
		return nil, err
	}
	m["tracefile.replay_speedup"] = m["tracefile.replay_wN_traces_per_s"] / m["tracefile.replay_w1_traces_per_s"]

	// Dataset hygiene round trip and registry churn on the world's registry.
	var corpus *datasets.Corpus
	m["datasets.serialize_s"] = repeat(layerReps, 0, func() {
		corpus = datasets.Serialize(sys.Registry, seed, cfg.Dirty)
	})
	var view *datasets.View
	m["datasets.load_s"] = repeat(layerReps, 0, func() {
		view = datasets.Load(corpus, sys.Registry.World)
	})
	m["datasets.records_quarantined"] = float64(view.Report.TotalQuarantined)
	m["service.churn_apply_s"] = repeat(layerReps, 0, func() {
		churnPlan.Apply(sys.Registry, 2)
	})

	// The post-probing stages over the reference run's own inputs. The
	// probing ones get a fresh prober per repetition, so none runs on the
	// ping and egress caches an earlier one filled.
	withProber := func(name, metric string, fn func(*probe.Prober) error) error {
		var secs []float64
		for i := 0; i < layerReps; i++ {
			p, err := newProber()
			if err != nil {
				return err
			}
			var ferr error
			secs = append(secs, timed(func() { ferr = fn(p) }).Seconds())
			if ferr != nil {
				return fmt.Errorf("%s: %w", name, ferr)
			}
		}
		m[metric] = median(secs)
		return nil
	}
	aliasTargets := append(ref.Border.CandidateABIs(), ref.Border.CandidateCBIs()...)
	steps := []struct {
		name, metric string
		fn           func(*probe.Prober) error
	}{
		{"midar.Resolve", "midar.resolve_s", func(p *probe.Prober) error {
			midar.Resolve(p, vms, aliasTargets, cfg.Midar)
			return nil
		}},
		{"verify.Run", "verify.run_s", func(p *probe.Prober) error {
			verify.Run(ref.Border, reg, p.ReachableFromVP, ref.Aliases, cfg.Verify)
			return nil
		}},
		{"pinning.Run", "pinning.run_s", func(p *probe.Prober) error {
			pinning.Run(ref.Verified, ref.Border, reg, p, ref.Aliases, cfg.Pinning)
			return nil
		}},
		{"vpi.Detect", "vpi.detect_s", func(p *probe.Prober) error {
			_, err := vpi.Detect(p, reg, ref.Border, cfg.VPIClouds)
			return err
		}},
		{"bdrmap.Run", "bdrmap.run_s", func(p *probe.Prober) error {
			_, err := bdrmap.Run(p, reg, "amazon", cfg.Bdrmap)
			return err
		}},
	}
	for _, s := range steps {
		if err := withProber(s.name, s.metric, s.fn); err != nil {
			return nil, err
		}
	}
	m["pinning.crossvalidate_s"] = repeat(layerReps, 0, func() {
		// 0.7 is the training share the pipeline's pinning stage uses.
		pinning.CrossValidate(ref.Pinning, ref.Aliases, cfg.CVFolds, 0.7, seed)
	})
	m["grouping.classify_s"] = repeat(layerReps, 0, func() {
		grouping.Classify(ref.Verified, ref.Border, reg, ref.VPI, ref.Pinning)
	})
	m["icg.build_s"] = repeat(layerReps, 0, func() {
		icg.Build(ref.Verified, ref.Pinning, sys.Registry.World)
	})
	return m, nil
}
