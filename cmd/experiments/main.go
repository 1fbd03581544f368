// Command experiments runs the paper-scale reproduction and emits the
// paper-vs-measured record behind EXPERIMENTS.md: for every table and figure
// it prints the paper's headline numbers next to the measured ones, plus the
// full rendered report.
//
// Usage:
//
//	experiments [-scale paper] [-seed N] [-o experiments_report.txt]
//	            [-checkpoint-dir DIR] [-metrics-out m.json]
//	            [-fault-plan plan.json] [-max-retries N] [-retry-budget N]
//	            [-dirty-plan plan.json] [-datasets-dir DIR]
//	            [-journal-out j.jsonl] [-trace-out t.json]
//	            [-debug-addr :6060] [-progress 5s]
//
// -fault-plan runs the reproduction under the deterministic fault model
// (internal/faults) and -max-retries/-retry-budget set the probe retry
// policy, so the paper-vs-measured comparison can be studied under
// realistic measurement adversity. -dirty-plan corrupts the serialized
// input datasets before the hygiene layer parses them back, exercising the
// same comparison over dirty public data (see internal/datasets).
//
// -checkpoint-dir persists both probing rounds; rerunning on the same
// directory replays each round whose stored probing plan still matches, as
// cmd/cloudmap does, so a paper-scale rerun skips straight to inference.
//
// The observability flags mirror cmd/cloudmap: -journal-out (deterministic
// JSONL event journal), -trace-out (Chrome trace-event JSON for Perfetto),
// -debug-addr (live Prometheus metrics + pprof), -progress (stderr ticker)
// — paper-scale runs are long, so the live view matters most here.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cloudmap"
	"cloudmap/internal/datasets"
	"cloudmap/internal/evaluate"
	"cloudmap/internal/faults"
	"cloudmap/internal/metrics"
	"cloudmap/internal/obs"
	"cloudmap/internal/probe"
	"cloudmap/internal/stats"
)

func main() {
	scale := flag.String("scale", "paper", "topology scale: small, medium, or paper")
	seed := flag.Uint64("seed", 1, "generation seed")
	workers := flag.Int("workers", 0, "parallel probing workers; <=0 uses all CPUs (output is identical regardless)")
	out := flag.String("o", "experiments_report.txt", "write the full report here")
	checkpointDir := flag.String("checkpoint-dir", "", "persist probing rounds and the run manifest in this directory")
	metricsOut := flag.String("metrics-out", "", "write the run manifest (per-stage timings, counters) as JSON to this file")
	faultPlan := flag.String("fault-plan", "", "inject faults from this JSON plan (see internal/faults and testdata/faultplans)")
	maxRetries := flag.Int("max-retries", 0, "re-probe fault-degraded traceroutes up to N times (0 disables retries)")
	retryBudget := flag.Int64("retry-budget", 0, "cap total retries per campaign; 0 means unlimited (fail-soft when exhausted)")
	dirtyPlan := flag.String("dirty-plan", "", "corrupt input datasets from this JSON plan (see internal/datasets and testdata/dirtyplans)")
	datasetsDir := flag.String("datasets-dir", "", "persist the serialized dataset corpus into this directory")
	journalOut := flag.String("journal-out", "", "stream the deterministic JSONL event journal to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON (Perfetto / chrome://tracing) to this file")
	debugAddr := flag.String("debug-addr", "", "serve live /metrics (Prometheus text), /progress, and /debug/pprof on this address while the run executes")
	progressEvery := flag.Duration("progress", 5*time.Second, "print a one-line progress ticker to stderr at this interval (0 disables)")
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
		log.Fatalf("unknown scale %q", *scale)
	}
	cfg.Topology.Seed = *seed
	cfg.Workers = *workers
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

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := metrics.NewRegistry()
	prog := obs.NewProgress(reg)
	if *debugAddr != "" {
		srv, serr := obs.Serve(*debugAddr, reg, prog)
		if serr != nil {
			log.Fatal(serr)
		}
		defer srv.Close()
		fmt.Printf("debug server on http://%s (metrics, progress, pprof)\n", srv.Addr())
	}
	if *progressEvery > 0 {
		stopTicker := obs.StartTicker(os.Stderr, *progressEvery, prog)
		defer stopTicker()
	}

	start := time.Now()
	res, rep, err := cloudmap.RunPipeline(ctx, nil, cfg, cloudmap.RunOptions{
		CheckpointDir: *checkpointDir,
		Metrics:       reg,
		DatasetsDir:   *datasetsDir,
		JournalPath:   *journalOut,
		TracePath:     *traceOut,
		Progress:      prog,
	})
	if rep != nil && *metricsOut != "" {
		if f, merr := os.Create(*metricsOut); merr != nil {
			log.Printf("metrics: %v", merr)
		} else {
			if merr := rep.WriteManifestJSON(f); merr != nil {
				log.Printf("metrics: %v", merr)
			}
			f.Close()
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start).Round(time.Second)

	var b strings.Builder
	fmt.Fprintf(&b, "paper-vs-measured (scale=%s seed=%d runtime=%v)\n", *scale, *seed, elapsed)
	fmt.Fprintf(&b, "%-44s | %-22s | %s\n", "quantity", "paper", "measured")
	row := func(name, paper, measured string) {
		fmt.Fprintf(&b, "%-44s | %-22s | %s\n", name, paper, measured)
	}

	// Table 1.
	fa, fc := res.Border.BreakdownABIs(), res.Border.BreakdownCBIs()
	row("T1 ABIs (final)", "3.78k", fmt.Sprintf("%d", fa.Total))
	row("T1 CBIs (final)", "24.75k", fmt.Sprintf("%d", fc.Total))
	row("T1 CBI growth from expansion", "21.73k -> 24.75k", fmt.Sprintf("%d -> %d", res.Round1CBIs.Total, fc.Total))
	row("T1 ABI BGP%/WHOIS%", "38.85 / 61.15", fmt.Sprintf("%.1f / %.1f", pctf(fa.BGP, fa.Total), pctf(fa.Whois, fa.Total)))
	row("T1 CBI IXP%", "17.86", fmt.Sprintf("%.1f", pctf(fc.IXP, fc.Total)))

	// Table 2.
	totalABIs := len(res.Border.CandidateABIs())
	confirmed := totalABIs - res.Verified.UnconfirmedABIs
	row("T2 ABIs confirmed by heuristics", "87.8%", fmt.Sprintf("%.1f%%", pctf(confirmed, totalABIs)))
	row("T2 alias corrections (ABI>CBI/CBI>ABI/CBI>CBI)", "18 / 2 / 25",
		fmt.Sprintf("%d / %d / %d", res.Verified.ABIToCBI, res.Verified.CBIToABI, res.Verified.CBIOwnerChange))

	// Table 3 / §6.
	p := res.Pinning
	row("T3 metro-level pinning coverage", "50.21%", fmt.Sprintf("%.1f%%", pctf(len(p.Metro), p.TotalIfaces)))
	row("T3 coverage incl. region fallback", "80.58%", fmt.Sprintf("%.1f%%", pctf(len(p.Metro)+p.RegionPinned, p.TotalIfaces)))
	row("T3 ABIs pinned", "75.87%", fmt.Sprintf("%.1f%%", pctf(p.PinnedABIs, p.TotalABIs)))
	row("§6.2 CV precision", "99.34%", fmt.Sprintf("%.2f%%", 100*res.PinningCV.Precision))
	row("§6.2 CV recall", "57.21%", fmt.Sprintf("%.2f%%", 100*res.PinningCV.Recall))

	// Figures 4/5.
	row("F4a ABI min-RTT knee", "2 ms", fmt.Sprintf("%.2f ms", p.NativeKnee))
	row("F4a fraction under 2ms", "~40%", fmt.Sprintf("%.1f%%", 100*stats.NewCDF(p.ABIMinRTTs).FracBelow(2)))
	row("F4b segment RTT-diff knee", "2 ms", fmt.Sprintf("%.2f ms", p.SegKnee))
	row("F4b fraction under 2ms", "~50%", fmt.Sprintf("%.1f%%", 100*stats.NewCDF(p.SegmentDiffs).FracBelow(2)))
	above := 0
	for _, r := range p.RegionRatios {
		if r > 1.5 {
			above++
		}
	}
	row("F5 ratio>1.5 among unpinned", "57%", fmt.Sprintf("%.1f%%", pctf(above, len(p.RegionRatios))))

	// Table 4.
	v := res.VPI
	row("T4 VPI share of CBIs (cumulative)", "20.23%", fmt.Sprintf("%.2f%%", pctf(len(v.VPICBIs), v.AmazonNonIXPCBIs)))
	row("T4 Microsoft pairwise share", "18.93%", fmt.Sprintf("%.2f%%", pctf(len(v.Pairwise["microsoft"]), v.AmazonNonIXPCBIs)))
	row("T4 Oracle pairwise", "0", fmt.Sprintf("%d", len(v.Pairwise["oracle"])))

	// Table 5 / §7.
	g := res.Groups
	row("T5 Pb AS share", "76%", fmt.Sprintf("%.0f%%", pctf(g.Aggregates["Pb"].ASes, g.PeerASes)))
	row("T5 Pr-nB AS share", "33%", fmt.Sprintf("%.0f%%", pctf(g.Aggregates["Pr-nB"].ASes, g.PeerASes)))
	row("T5 Pr-B AS share", "3%", fmt.Sprintf("%.0f%%", pctf(g.Aggregates["Pr-B"].ASes, g.PeerASes)))
	row("T5 CBIs/AS for Pr-B", "65", ratioStr(g.Aggregates["Pr-B"].CBIs, g.Aggregates["Pr-B"].ASes))
	row("T5 CBIs/AS for Pr-nB", "11", ratioStr(g.Aggregates["Pr-nB"].CBIs, g.Aggregates["Pr-nB"].ASes))
	row("T5 CBIs/AS for Pb", "2", ratioStr(g.Aggregates["Pb"].CBIs, g.Aggregates["Pb"].ASes))
	row("§7.2 hidden peering share", "33.29%", fmt.Sprintf("%.2f%%", 100*g.HiddenShare))
	topCombo := "-"
	if len(g.Combos) > 0 {
		topCombo = fmt.Sprintf("%s (%d)", g.Combos[0].Combo, g.Combos[0].ASNs)
	}
	row("T6 largest hybrid combo", "Pb-nB (2187)", topCombo)
	row("§7.3 BGP coverage", "~93%", fmt.Sprintf("%.1f%%", g.CoveragePct))
	row("§7.3 peerings beyond BGP", ">3k of 3.3k", fmt.Sprintf("%d of %d", g.BeyondBGP, g.PeerASes))
	row("§7.3 dx DNS names on Pr-nB CBIs", "125", fmt.Sprintf("%d", g.DXNames))
	row("§7.3 VLAN-tagged names", "170", fmt.Sprintf("%d", g.VLANNames))

	// Figure 7.
	gr := res.Graph
	row("F7 largest connected component", "92.3%", fmt.Sprintf("%.1f%%", 100*gr.LargestCCFrac))
	row("F7 intra-metro pinned peerings", "98%", fmt.Sprintf("%.1f%%", 100*gr.IntraMetroShare))
	abiCDF := stats.NewCDF(gr.ABIDegrees)
	row("F7a ABIs with degree 1", "30%", fmt.Sprintf("%.0f%%", 100*abiCDF.FracBelow(1)))
	cbiCDF := stats.NewCDF(gr.CBIDegrees)
	row("F7b CBIs with degree <= 8", "90%", fmt.Sprintf("%.0f%%", 100*cbiCDF.FracBelow(8)))

	// §8.
	if res.Bdrmap != nil {
		c := res.Bdrmap
		row("§8 bdrmap multi-owner CBIs", ">500", fmt.Sprintf("%d", c.MultiOwnerCBIs))
		row("§8 bdrmap ABI/CBI flips", "872", fmt.Sprintf("%d", c.Flipped))
		row("§8 flips in Amazon space", "97%", fmt.Sprintf("%.0f%%", pctf(c.FlippedAmazonSpace, c.Flipped)))
		row("§8 bdrmap ASes vs pipeline", "2.66k vs 3.55k", fmt.Sprintf("%d vs %d", c.ASes, g.PeerASes))
	}

	// The evaluation the paper could not run: score the pipeline against
	// the simulator's ground truth.
	scorecard := evaluate.Evaluate(res.System.Topology, res.Border, res.Verified, res.VPI, res.Pinning)
	b.WriteString("\n")
	b.WriteString(scorecard.String())

	fmt.Print(b.String())
	full := b.String() + "\n\n" + res.Report()
	if err := os.WriteFile(*out, []byte(full), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull report written to %s (runtime %v)\n", *out, elapsed)
}

func pctf(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

func ratioStr(n, d int) string {
	if d == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(n)/float64(d))
}
