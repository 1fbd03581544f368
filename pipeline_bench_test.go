package cloudmap

// Benches for the staged runner itself: what the DAG adds over the
// monolithic run (per-stage attribution) and what resume saves (replaying
// checkpointed tracefiles instead of re-probing the campaigns).

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"cloudmap/internal/metrics"
	"cloudmap/internal/obs"
)

// BenchmarkPipelineRun is the full staged run. Every stage's wall clock and
// allocation volume is reported (per op, averaged over b.N), plus other-ms:
// the op time the stages leave unexplained. A regression therefore names
// the stage it lives in.
func BenchmarkPipelineRun(b *testing.B) {
	cfg := SmallConfig()
	var ledger stageLedger
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		_, rep, err := RunPipeline(context.Background(), nil, cfg, RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		ledger.add(rep, time.Since(start))
	}
	ledger.report(b)
}

// BenchmarkPipelineObserved is BenchmarkPipelineRun with full observability
// on — journal, Chrome trace, and live progress — so the instrumentation
// overhead is the delta against BenchmarkPipelineRun (the ISSUE budget is
// <5% on the campaign).
func BenchmarkPipelineObserved(b *testing.B) {
	cfg := SmallConfig()
	dir := b.TempDir()
	var ledger stageLedger
	var events int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg := metrics.NewRegistry()
		start := time.Now()
		_, rep, err := RunPipeline(context.Background(), nil, cfg, RunOptions{
			Metrics:     reg,
			JournalPath: filepath.Join(dir, "journal.jsonl"),
			TracePath:   filepath.Join(dir, "trace.json"),
			Progress:    obs.NewProgress(reg),
		})
		if err != nil {
			b.Fatal(err)
		}
		ledger.add(rep, time.Since(start))
		if i == 0 {
			for _, n := range rep.Manifest.Trace.Spans {
				events += n
			}
		}
	}
	ledger.report(b)
	b.ReportMetric(float64(events), "journal-events")
}

// stageLedger sums per-stage wall time and allocation over benchmark ops.
type stageLedger struct {
	ops     int
	names   []string // stage order of the first op
	wallMS  map[string]float64
	allocB  map[string]float64
	totalMS float64
}

func (l *stageLedger) add(rep *RunReport, wall time.Duration) {
	if l.wallMS == nil {
		l.wallMS, l.allocB = map[string]float64{}, map[string]float64{}
	}
	for _, st := range rep.Manifest.Stages {
		if _, seen := l.wallMS[st.Name]; !seen {
			l.names = append(l.names, st.Name)
		}
		l.wallMS[st.Name] += st.WallMS
		l.allocB[st.Name] += float64(st.AllocBytes)
	}
	l.totalMS += float64(wall.Nanoseconds()) / 1e6
	l.ops++
}

// report emits <stage>-ms and <stage>-alloc-bytes per stage, and other-ms,
// all as per-op means.
func (l *stageLedger) report(b *testing.B) {
	if l.ops == 0 {
		return
	}
	n := float64(l.ops)
	staged := 0.0
	for _, name := range l.names {
		b.ReportMetric(l.wallMS[name]/n, name+"-ms")
		b.ReportMetric(l.allocB[name]/n, name+"-alloc-bytes")
		staged += l.wallMS[name]
	}
	b.ReportMetric((l.totalMS-staged)/n, "other-ms")
}

// BenchmarkPipelineResume replays checkpointed probing rounds instead of
// probing: the headline saving of checkpoint/resume.
func BenchmarkPipelineResume(b *testing.B) {
	cfg := SmallConfig()
	dir := b.TempDir()
	if _, _, err := RunPipeline(context.Background(), nil, cfg, RunOptions{CheckpointDir: dir}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rep, err := RunPipeline(context.Background(), nil, cfg, RunOptions{CheckpointDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, st := range rep.Manifest.Stages {
				if st.Name == "campaign" {
					b.ReportMetric(st.WallMS, "replay-ms")
					b.ReportMetric(float64(st.Counters["replayed"]), "traces")
				}
			}
		}
	}
}
