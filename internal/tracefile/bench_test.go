package tracefile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"cloudmap/internal/probe"
)

// benchTraceCount is sized so the encoder amortises its per-stream overhead
// and the file spans many chunks.
const benchTraceCount = 50000

// The "binary" sub-benchmark names predate the single encoding; they stay
// so benchmark results remain comparable across versions.
func BenchmarkTracefileEncode(b *testing.B) { b.Run("binary", benchEncode) }

func benchEncode(b *testing.B) {
	traces := synthTraces(benchTraceCount)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		w := NewWriter(&buf)
		for _, tr := range traces {
			w.Write(tr)
		}
		if err := w.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.SetBytes(int64(buf.Len()))
	b.ReportMetric(float64(benchTraceCount)*float64(b.N)/b.Elapsed().Seconds(), "traces/s")
	b.ReportMetric(float64(buf.Len())/float64(benchTraceCount), "bytes/trace")
}

func benchDecode(b *testing.B, raw []byte) {
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = 0
		sum, err := Replay(bytes.NewReader(raw), func(probe.Trace) { n++ })
		if err != nil || !sum.Complete || n != benchTraceCount {
			b.Fatalf("replay: %+v, %v (n=%d)", sum, err, n)
		}
	}
	b.ReportMetric(float64(benchTraceCount)*float64(b.N)/b.Elapsed().Seconds(), "traces/s")
}

func encodeAll(b *testing.B) []byte {
	b.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, tr := range synthTraces(benchTraceCount) {
		w.Write(tr)
	}
	if err := w.Finish(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkTracefileDecode(b *testing.B) {
	b.Run("binary", func(b *testing.B) { benchDecode(b, encodeAll(b)) })
	b.Run("binary-parallel", func(b *testing.B) {
		dir := b.TempDir()
		path := filepath.Join(dir, "bench.traces.bin")
		if err := os.WriteFile(path, encodeAll(b), 0o644); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			sum, err := ReplayFileParallel(path, 8, func(probe.Trace) { n++ })
			if err != nil || !sum.Complete || n != benchTraceCount {
				b.Fatalf("replay: %+v, %v (n=%d)", sum, err, n)
			}
		}
		b.ReportMetric(float64(benchTraceCount)*float64(b.N)/b.Elapsed().Seconds(), "traces/s")
	})
}

// BenchmarkTracefileScan measures the completeness probe alone — the cost
// resume pays before deciding a checkpoint is usable. The scan walks CRC
// frames without decoding records.
func BenchmarkTracefileScan(b *testing.B) { b.Run("binary", benchScan) }

func benchScan(b *testing.B) {
	path := filepath.Join(b.TempDir(), "scan.traces.bin")
	if err := os.WriteFile(path, encodeAll(b), 0o644); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := ScanFile(path)
		if err != nil || !sum.Complete || sum.Traces != benchTraceCount {
			b.Fatalf("scan: %+v, %v", sum, err)
		}
	}
	b.ReportMetric(float64(benchTraceCount)*float64(b.N)/b.Elapsed().Seconds(), "traces/s")
}
