// Command cloudmap runs the full reproduction pipeline — topology
// generation, traceroute campaigns, border inference, verification, pinning,
// VPI detection, grouping, graph analysis, and the bdrmap baseline — and
// prints every table and figure of the paper's evaluation.
//
// Usage:
//
//	cloudmap [-scale small|medium|paper] [-seed N] [-skip-bdrmap] [-o report.txt]
//	         [-checkpoint-dir DIR] [-metrics-out m.json]
//	         [-fault-plan plan.json] [-max-retries N] [-retry-budget N]
//	         [-dirty-plan plan.json] [-datasets-dir DIR]
//	         [-journal-out j.jsonl] [-trace-out t.json] [-debug-addr :6060]
//	         [-progress 5s]
//
// The run is interruptible: Ctrl-C cancels the pipeline promptly, and with
// -checkpoint-dir the probing campaigns are persisted as they run, so a
// second invocation on the same directory replays every round whose stored
// probing plan still matches instead of re-probing it; a changed seed,
// scale, fault plan or retry policy re-probes the round and overwrites it.
//
// -fault-plan layers the deterministic fault model (ICMP rate limiting,
// bursty loss, link flaps, region outages) under the campaigns; the same
// seed and plan replay byte-identically. -max-retries re-probes
// fault-degraded traceroutes with exponential virtual-time backoff, and
// -retry-budget caps the total retries a campaign may spend (exhaustion is
// fail-soft and recorded in the manifest's degradation section).
//
// -dirty-plan corrupts the serialized input datasets before the hygiene
// layer parses them back (row drops, truncation, staleness, conflicting
// duplicates, bogon ASNs — see internal/datasets and testdata/dirtyplans);
// quarantine coverage lands in the manifest's dataset_hygiene section.
// -datasets-dir persists the serialized corpus for inspection.
//
// Observability: -journal-out streams the deterministic JSONL event journal
// (spans, faults, retries, quarantines — replays byte-identically for the
// same seed and plans when sorted); -trace-out writes a Chrome trace-event
// JSON loadable in Perfetto or chrome://tracing; -debug-addr serves live
// Prometheus text metrics, a progress snapshot, and net/http/pprof while
// the run executes; -progress prints a one-line ticker to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cloudmap"
	"cloudmap/internal/datasets"
	"cloudmap/internal/dispatch"
	"cloudmap/internal/faults"
	"cloudmap/internal/metrics"
	"cloudmap/internal/obs"
	"cloudmap/internal/probe"
	"cloudmap/internal/tracefile"
)

// splitAgents parses the -agents list: comma-separated base URLs, empty
// entries dropped.
func splitAgents(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

func main() {
	scale := flag.String("scale", "small", "topology scale: small, medium, or paper")
	seed := flag.Uint64("seed", 1, "generation seed")
	workers := flag.Int("workers", 0, "parallel probing workers; <=0 uses all CPUs (output is identical regardless)")
	skipBdrmap := flag.Bool("skip-bdrmap", false, "skip the §8 bdrmap baseline")
	out := flag.String("o", "", "also write the report to this file")
	traces := flag.String("traces", "", "archive the Amazon campaign to this tracefile (binary v2, whatever the extension)")
	csvDir := flag.String("csv", "", "dump figure data as CSV files into this directory")
	checkpointDir := flag.String("checkpoint-dir", "", "persist probing rounds and the run manifest in this directory")
	metricsOut := flag.String("metrics-out", "", "write the run manifest (per-stage timings, allocations, counters) as JSON to this file")
	faultPlan := flag.String("fault-plan", "", "inject faults from this JSON plan (see internal/faults and testdata/faultplans)")
	maxRetries := flag.Int("max-retries", 0, "re-probe fault-degraded traceroutes up to N times (0 disables retries)")
	retryBudget := flag.Int64("retry-budget", 0, "cap total retries per campaign; 0 means unlimited (fail-soft when exhausted)")
	dirtyPlan := flag.String("dirty-plan", "", "corrupt input datasets from this JSON plan (see internal/datasets and testdata/dirtyplans)")
	datasetsDir := flag.String("datasets-dir", "", "persist the serialized dataset corpus into this directory")
	journalOut := flag.String("journal-out", "", "stream the deterministic JSONL event journal to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON (Perfetto / chrome://tracing) to this file")
	debugAddr := flag.String("debug-addr", "", "serve live /metrics (Prometheus text), /progress, and /debug/pprof on this address while the run executes")
	progressEvery := flag.Duration("progress", 5*time.Second, "print a one-line progress ticker to stderr at this interval (0 disables)")
	agents := flag.String("agents", "", "comma-separated cloudmapagent base URLs; probing campaigns dispatch chunks to the fleet, falling back to local execution (output is byte-identical either way)")
	leaseTimeout := flag.Duration("lease-timeout", 0, "per-lease deadline for dispatched chunks (0 = 60s)")
	flag.Parse()

	var cfg cloudmap.Config
	switch *scale {
	case "small":
		cfg = cloudmap.SmallConfig()
	case "medium":
		cfg = cloudmap.MediumConfig()
	case "paper":
		cfg = cloudmap.DefaultConfig()
	default:
		log.Fatalf("unknown scale %q (want small, medium, or paper)", *scale)
	}
	cfg.Topology.Seed = *seed
	cfg.Workers = *workers
	cfg.SkipBdrmap = *skipBdrmap
	if *faultPlan != "" {
		plan, err := faults.LoadPlan(*faultPlan)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Faults = plan
	}
	if *maxRetries > 0 {
		cfg.Retry = probe.DefaultRetryPolicy()
		cfg.Retry.MaxAttempts = *maxRetries + 1
		cfg.Retry.Budget = *retryBudget
	}
	if *dirtyPlan != "" {
		plan, err := datasets.LoadDirtyPlan(*dirtyPlan)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Dirty = plan
	}

	// The archive is a v2 binary tracefile; the writer encodes each trace as
	// it arrives, so it never holds on to the campaign's hop slices.
	var traceWriter *tracefile.FileWriter
	if *traces != "" {
		fw, err := tracefile.Create(*traces)
		if err != nil {
			log.Fatal(err)
		}
		traceWriter = fw
		cfg.RecordTraces = fw.Sink()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := metrics.NewRegistry()
	prog := obs.NewProgress(reg)
	if *debugAddr != "" {
		srv, err := obs.Serve(*debugAddr, reg, prog)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("debug server on http://%s (metrics, progress, pprof)\n", srv.Addr())
	}
	if *progressEvery > 0 {
		stopTicker := obs.StartTicker(os.Stderr, *progressEvery, prog)
		defer stopTicker()
	}

	var disp *dispatch.Options
	if *agents != "" {
		disp = &dispatch.Options{
			Agents:       splitAgents(*agents),
			LeaseTimeout: *leaseTimeout,
			Metrics:      reg,
			Log:          slog.New(slog.NewJSONHandler(os.Stderr, nil)),
		}
	}

	start := time.Now()
	res, rep, err := cloudmap.RunPipeline(ctx, nil, cfg, cloudmap.RunOptions{
		CheckpointDir: *checkpointDir,
		Metrics:       reg,
		DatasetsDir:   *datasetsDir,
		JournalPath:   *journalOut,
		TracePath:     *traceOut,
		Progress:      prog,
		Dispatch:      disp,
	})
	if rep != nil && *metricsOut != "" {
		f, merr := os.Create(*metricsOut)
		if merr == nil {
			merr = rep.WriteManifestJSON(f)
			if cerr := f.Close(); merr == nil {
				merr = cerr
			}
		}
		if merr != nil {
			log.Printf("metrics: %v", merr)
		} else {
			fmt.Printf("run manifest written to %s\n", *metricsOut)
		}
	}
	if err != nil {
		// rep is nil when the run was rejected before any stage started
		// (bad options, unusable checkpoint dir) — no checkpoints then.
		if *checkpointDir != "" && rep != nil {
			log.Printf("run did not finish; partial checkpoints kept in %s", *checkpointDir)
		}
		if traceWriter != nil {
			// Keep what was captured, without the completeness trailer.
			traceWriter.Close()
		}
		log.Fatal(err)
	}
	if traceWriter != nil {
		if err := traceWriter.Finish(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("campaign archived to %s\n", *traces)
	}
	if *journalOut != "" {
		fmt.Printf("event journal written to %s\n", *journalOut)
	}
	if *traceOut != "" {
		fmt.Printf("chrome trace written to %s (load in Perfetto or chrome://tracing)\n", *traceOut)
	}
	report := res.Report()
	fmt.Print(report)
	if h := rep.Manifest.DatasetHygiene; h != nil && (h.TotalQuarantined > 0 || h.TotalConflicts > 0) {
		fmt.Printf("\ndataset hygiene: kept %d records, quarantined %d, resolved %d origin conflicts",
			h.TotalKept, h.TotalQuarantined, h.TotalConflicts)
		if len(h.EmptyDatasets) > 0 {
			fmt.Printf(", empty datasets %v", h.EmptyDatasets)
		}
		fmt.Println()
	}
	if d := rep.Manifest.Degradation; d != nil {
		fmt.Printf("\nrun degraded: %.2f%% probe loss, %d retries spent, %d records quarantined, degraded stages %v, skipped stages %v\n",
			d.ProbeLossPct, d.RetriesSpent, d.QuarantinedRecords, d.DegradedStages, d.SkippedStages)
	}
	fmt.Printf("\ntotal runtime: %v\n", time.Since(start).Round(time.Millisecond))

	if *out != "" {
		if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("report written to %s\n", *out)
	}
	if *csvDir != "" {
		if err := res.WriteFigureData(*csvDir); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("figure data written to %s\n", *csvDir)
	}
}
