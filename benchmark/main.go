// Command benchmark is the cloudmap benchmark: it runs one named workload
// for a fixed time, checks every op's output against a Workers=1
// reference, and prints its metrics as one JSON line. See README.md.
//
//	python3 benchmark/run.py --workload fresh --seed 1 --seconds 10 --trace 0
//
// It runs from the repository root: the workloads' plans are read from
// testdata/ and scratch files go under .bench_build/. run.py builds it and
// starts it there.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"cloudmap"
	"cloudmap/internal/pipeline"
)

// The workloads' plans, which are part of their definitions, and the
// directory for scratch files, all relative to the repository root.
const (
	faultPlanPath = "testdata/faultplans/moderate.json"
	dirtyPlanPath = "testdata/dirtyplans/moderate.json"
	churnPlanPath = "testdata/churnplans/moderate.json"
	buildDir      = ".bench_build"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// minOps is the fewest ops an untraced run measures, however long they
// take: a chaos op takes about 5 s, and a median of two ops (their mean)
// moves with either one. A traced run needs only one plain and one traced
// op, and its layer pass and observability pairs already take most of its
// time limit on chaos.
const minOps = 5

// attributionLimit is the share of an op's wall time the pipeline stages
// may leave unexplained before the run flags it.
const attributionLimit = 5.0

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: fresh, chaos or epoch-churn")
	fs.Uint64Var(&o.seed, "seed", 1, "topology seed")
	fs.IntVar(&o.seconds, "seconds", 10, "how long the ops are measured")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	return o, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the benchmark and returns the process exit code: 0 with a
// result line printed, 2 for bad arguments or inputs, 1 when the benchmark
// itself could not run.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "benchmark:", err)
		}
		return 2
	}
	p, err := loadPlans(faultPlanPath, dirtyPlanPath, churnPlanPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	workers := runtime.GOMAXPROCS(0)
	workdir := filepath.Join(buildDir, "work", fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	w, err := newWorkload(o.workload, o.seed, workers, p, workdir)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(workdir)
	defer w.close()

	res, err := measure(context.Background(), o, w, p, workers, workdir, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measure runs set-up, the timed ops, the Workers=1 reference and, in a
// traced run, the layer pass and the observability pairs; it prints the
// report and stamp lines and returns the result. An error means no result
// could be produced.
func measure(ctx context.Context, o options, w workload, p plans, workers int, workdir string, stdout io.Writer) (*result, error) {
	vals := map[string]float64{}
	attempted, failed := 0, 0
	var notes []string
	fail := func(format string, a ...any) {
		failed++
		notes = append(notes, fmt.Sprintf(format, a...))
	}

	var setups []float64
	for i := 0; i < setupReps; i++ {
		w.close() // the previous set-up is garbage before the collection
		runtime.GC()
		var err error
		d := timed(func() { err = w.setup(ctx) })
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	vals["setup_s"] = median(setups)

	// The timed ops. A traced run alternates plain ops with traced ones,
	// which read the allocator's counters around the op, so the cost of
	// tracing itself is measured in the same run.
	var (
		digests              []string
		walls, plain, traced []float64
		stages               [][]pipeline.StageResult
		allocMB, gcs         []float64
	)
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("peak RSS: %w", err)
	}
	least := minOps
	if o.trace {
		least = 2
	}
	start := time.Now()
	for i := 0; i < least || time.Since(start) < time.Duration(o.seconds)*time.Second; i++ {
		attempted++
		tracedOp := o.trace && i%2 == 1
		var before, after runtime.MemStats
		runtime.GC()
		if tracedOp {
			runtime.ReadMemStats(&before)
		}
		r, err := w.op(ctx)
		if tracedOp {
			runtime.ReadMemStats(&after)
			allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
			gcs = append(gcs, float64(after.NumGC-before.NumGC))
		}
		if err != nil {
			fail("op %d: %v", i, err)
			digests = append(digests, "")
			continue
		}
		if len(walls) == 0 {
			// Accuracy is scored on the first op that succeeded: later
			// epochs of a session overwrite its result in place.
			for k, v := range accuracy(r.res) {
				vals[k] = v
			}
		}
		digests = append(digests, r.digest)
		stages = append(stages, r.stages)
		secs := r.wall.Seconds()
		walls = append(walls, secs)
		if tracedOp {
			traced = append(traced, secs)
		} else {
			plain = append(plain, secs)
		}
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("every op failed: %s", strings.Join(notes, "; "))
	}
	vals["run_s"] = median(plain)
	peak, err := peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("peak RSS: %w", err)
	}
	vals["peak_rss_mb"] = peak

	runtime.GC()
	refDigests, ref, err := w.reference(ctx, len(digests))
	if err != nil {
		return nil, err
	}
	for i, d := range digests {
		if d != "" && d != refDigests[i] {
			fail("op %d: output digest %.12s differs from the Workers=1 reference %.12s", i, d, refDigests[i])
		}
	}

	stageVals(stages, walls, vals)
	if o.trace {
		vals["trace.overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
		vals["go.alloc_mb_per_op"] = median(allocMB)
		vals["go.gc_cycles_per_op"] = median(gcs)
		layers, err := layerPass(ctx, w.config(workers), ref, p.churn, workers, workdir)
		if err != nil {
			return nil, fmt.Errorf("layer pass: %w", err)
		}
		for k, v := range layers {
			vals[k] = v
		}
		n, err := w.observe(ctx, vals, fail)
		attempted += n
		if err != nil {
			return nil, err
		}
	}

	vals["op_success_rate"] = float64(attempted-failed) / float64(attempted)

	report(stdout, o, walls, vals, notes)
	if err := printStamp(stdout, o, w.config(workers), workers); err != nil {
		return nil, err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer()
	}
	ms, err := pick(defs, vals)
	if err != nil {
		return nil, err
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms}, nil
}

// stageVals derives the manifest-based layer metrics from the ops' stage
// records: each stage's median wall time, the unexplained remainder, the
// resume/skip counts, and the probing and border volumes.
func stageVals(stages [][]pipeline.StageResult, walls []float64, vals map[string]float64) {
	per := map[string][]float64{}
	var other, otherPct, resumed, skipped, hops, traces []float64
	for i, sts := range stages {
		sum := 0.0
		var nRes, nSkip, nHops, nTraces float64
		for _, sr := range sts {
			per[sr.Name] = append(per[sr.Name], sr.WallMS)
			sum += sr.WallMS
			switch sr.Status {
			case pipeline.StatusResumed:
				nRes++
			case pipeline.StatusSkippedUnchanged:
				nSkip++
			}
			nHops += float64(sr.Counters["probes"])
			if sr.Name == "campaign" || sr.Name == "expansion" {
				nTraces += float64(sr.Counters["traces"])
			}
		}
		wallMS := walls[i] * 1000
		other = append(other, wallMS-sum)
		otherPct = append(otherPct, 100*(wallMS-sum)/wallMS)
		resumed = append(resumed, nRes)
		skipped = append(skipped, nSkip)
		hops = append(hops, nHops)
		traces = append(traces, nTraces)
	}
	for _, st := range cloudmap.StageNames() {
		vals[stageMetric(st)] = median(per[st])
	}
	vals["pipeline.other_ms"] = median(other)
	vals["pipeline.other_pct"] = median(otherPct)
	vals["pipeline.stages_resumed"] = median(resumed)
	vals["pipeline.stages_skipped"] = median(skipped)
	vals["probe.hop_probes"] = median(hops)
	vals["border.traces"] = median(traces)
}

// report prints the human-readable lines that precede the result: the op
// times, the attribution check and, in a traced run, the tracing and
// observability overheads.
func report(out io.Writer, o options, walls []float64, vals map[string]float64, notes []string) {
	fmt.Fprintf(out, "%s seed %d: %d ops, median %.4f s; set-up %.4f s\n",
		o.workload, o.seed, len(walls), median(walls), vals["setup_s"])
	flag := "ok"
	if vals["pipeline.other_pct"] > attributionLimit {
		flag = fmt.Sprintf("FLAGGED: above %.0f%%", attributionLimit)
	}
	fmt.Fprintf(out, "attribution: stages leave %.1f ms (%.2f%%) of an op unexplained [%s]\n",
		vals["pipeline.other_ms"], vals["pipeline.other_pct"], flag)
	if o.trace {
		fmt.Fprintf(out, "tracing overhead: traced ops %+.2f%% against untraced ops of the same run\n", vals["trace.overhead_pct"])
		fmt.Fprintf(out, "observability overhead: %+.2f%% (median of %d plain/observed pairs)\n", vals["obs.journal_overhead_pct"], obsPairs)
	}
	for _, n := range notes {
		fmt.Fprintln(out, "FAILED:", n)
	}
}

// resetPeakRSS returns the free heap to the OS and restarts the kernel's
// peak-RSS mark at the current RSS, so peakRSSMB reports the peak of what
// runs after it: the ops, not the set-ups before them.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the peak-RSS mark (VmHWM) from /proc/self/status.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
