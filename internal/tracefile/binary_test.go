package tracefile

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"cloudmap/internal/netblock"
	"cloudmap/internal/probe"
)

// synthTraces builds n deterministic traces that exercise the dictionary
// (repeating first hops), unresponsive hops, hopless records and multiple
// clouds — the shapes real campaigns produce.
func synthTraces(n int) []probe.Trace {
	clouds := []string{"amazon", "microsoft", "google"}
	out := make([]probe.Trace, 0, n)
	for i := 0; i < n; i++ {
		tr := probe.Trace{
			Src:    probe.VMRef{Cloud: clouds[i%len(clouds)], Region: i % 7},
			Dst:    netblock.IP(0x40000000 + uint32(i)*97),
			Status: probe.Status(i % 3),
		}
		if i%11 != 10 { // every 11th trace has no hops at all
			hops := 1 + i%9
			for h := 0; h < hops; h++ {
				if (i+h)%5 == 4 {
					tr.Hops = append(tr.Hops, probe.Hop{})
					continue
				}
				// First hops repeat across traces so the per-chunk
				// dictionary actually dedups.
				addr := netblock.IP(0x0a000000 + uint32(h)*251 + uint32(i%13))
				tr.Hops = append(tr.Hops, probe.Hop{
					Addr:  addr,
					RTTms: float64((i*131+h*17)%90000) / 1000,
				})
			}
		}
		out = append(out, tr)
	}
	return out
}

func equalTraces(tb testing.TB, want, got []probe.Trace) {
	tb.Helper()
	if len(want) != len(got) {
		tb.Fatalf("got %d traces, want %d", len(got), len(want))
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.Src != b.Src || a.Dst != b.Dst || a.Status != b.Status || len(a.Hops) != len(b.Hops) {
			tb.Fatalf("trace %d differs: %+v vs %+v", i, a, b)
		}
		for h := range a.Hops {
			if a.Hops[h].Addr != b.Hops[h].Addr {
				tb.Fatalf("trace %d hop %d addr differs", i, h)
			}
			// RTTs quantise to exact microseconds, so after one round
			// trip re-encoding must be a fixed point: check equality
			// against the quantised value, not a tolerance.
			if b.Hops[h].RTTms != float64(rttMicros(a.Hops[h].RTTms))/1000 {
				tb.Fatalf("trace %d hop %d RTT %v not µs-exact (want %v)",
					i, h, b.Hops[h].RTTms, float64(rttMicros(a.Hops[h].RTTms))/1000)
			}
		}
	}
}

func writeBinary(tb testing.TB, traces []probe.Trace, finish bool) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, tr := range traces {
		w.Write(tr)
	}
	var err error
	if finish {
		err = w.Finish()
	} else {
		err = w.Flush()
	}
	if err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestBinaryRoundTrip(t *testing.T) {
	// Enough traces for several chunks, plus the odd tail chunk.
	in := synthTraces(3*binChunkRecords + 123)
	raw := writeBinary(t, in, true)
	if !bytes.HasPrefix(raw, binMagic[:]) {
		t.Fatal("output does not start with the v2 magic")
	}

	var out []probe.Trace
	sum, err := Replay(bytes.NewReader(raw), func(tr probe.Trace) { out = append(out, tr) })
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Complete || sum.Traces != len(in) {
		t.Fatalf("summary %+v, want complete with %d traces", sum, len(in))
	}
	equalTraces(t, in, out)

	// Hops handed to the sink must be independent allocations per chunk;
	// mutating one trace's hops must not bleed into another's.
	if len(out[0].Hops) > 0 && len(out[1].Hops) > 0 {
		save := out[1].Hops[0]
		out[0].Hops = append(out[0].Hops[:0:0], out[0].Hops...)
		if out[1].Hops[0] != save {
			t.Fatal("hop slices alias between traces")
		}
	}
}

func TestBinaryPartialAndEmpty(t *testing.T) {
	in := synthTraces(binChunkRecords + 5)
	// Flush without Finish: whole chunks are loadable, the buffered tail
	// (5 records, framed as a partial chunk by Flush) included.
	raw := writeBinary(t, in, false)
	var out []probe.Trace
	sum, err := Replay(bytes.NewReader(raw), func(tr probe.Trace) { out = append(out, tr) })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Complete || sum.Traces != len(in) {
		t.Fatalf("partial summary %+v, want incomplete with %d traces", sum, len(in))
	}
	equalTraces(t, in, out)

	// Finish with zero records: valid, complete, empty.
	empty := writeBinary(t, nil, true)
	sum, err = Replay(bytes.NewReader(empty), func(probe.Trace) { t.Fatal("trace from empty file") })
	if err != nil || !sum.Complete || sum.Traces != 0 {
		t.Fatalf("empty finished file: %+v, %v", sum, err)
	}
}

func TestBinaryTruncationAtEveryBoundary(t *testing.T) {
	in := synthTraces(2*binChunkRecords + 10)
	raw := writeBinary(t, in, true)

	// Cut inside every frame region: magic, header, payload, index,
	// trailer. A cut inside the 8-byte magic (0 included: the file a crash
	// leaves before its first write lands) is a torn checkpoint too.
	cuts := []int{
		0, 1, 2, 3, 4, 5, 6, 7, // inside the magic
		len(binMagic) + 4,                     // inside first chunk header
		len(binMagic) + binFrameHeaderLen + 9, // inside first chunk payload
		len(raw) - binTrailerLen - 3,          // inside the index frame
		len(raw) - 7,                          // inside the trailer
		len(raw) - 1,                          // last byte missing
	}
	for _, cut := range cuts {
		_, err := Replay(bytes.NewReader(raw[:cut]), func(probe.Trace) {})
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}

	// A flipped payload byte breaks the CRC and reads as truncation, so
	// resume degrades to re-probing rather than trusting corrupt data.
	flip := append([]byte(nil), raw...)
	flip[len(binMagic)+binFrameHeaderLen+5] ^= 0x40
	if _, err := Replay(bytes.NewReader(flip), func(probe.Trace) {}); !errors.Is(err, ErrTruncated) {
		t.Errorf("corrupt payload: err = %v, want ErrTruncated", err)
	}

	// Truncating to an exact frame boundary (first chunk only) is the
	// partial-file case, not corruption.
	var first binChunkInfo
	chunks, _, err := func() ([]binChunkInfo, uint64, error) {
		dir := t.TempDir()
		p := filepath.Join(dir, "x.bin")
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		return readBinaryIndex(f)
	}()
	if err != nil || len(chunks) < 2 {
		t.Fatalf("index: %v (%d chunks)", err, len(chunks))
	}
	first = chunks[0]
	boundary := int(first.off) + binFrameHeaderLen + int(first.plen)
	sum, err := Replay(bytes.NewReader(raw[:boundary]), func(probe.Trace) {})
	if err != nil || sum.Complete || sum.Traces != int(first.records) {
		t.Fatalf("frame-boundary cut: %+v, %v", sum, err)
	}
}

func TestBinaryParallelMatchesSerial(t *testing.T) {
	in := synthTraces(5*binChunkRecords + 77)
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.traces.bin")
	if err := os.WriteFile(path, writeBinary(t, in, true), 0o644); err != nil {
		t.Fatal(err)
	}

	var serial []probe.Trace
	sum1, err := ReplayFile(path, func(tr probe.Trace) { serial = append(serial, tr) })
	if err != nil || !sum1.Complete {
		t.Fatalf("serial replay: %+v, %v", sum1, err)
	}

	for _, workers := range []int{1, 2, 8, 64} {
		var par []probe.Trace
		sum, err := ReplayFileParallel(path, workers, func(tr probe.Trace) {
			// Copy hops: batches are pooled and recycled after delivery.
			tr.Hops = append([]probe.Hop(nil), tr.Hops...)
			par = append(par, tr)
		})
		if err != nil || !sum.Complete || sum.Traces != len(in) {
			t.Fatalf("workers=%d: %+v, %v", workers, sum, err)
		}
		equalTraces(t, serial, par)
	}

	// Parallel replay of a torn file falls back to the sequential path and
	// reports truncation.
	torn := writeBinary(t, in, true)
	torn = torn[:len(torn)-9]
	tornPath := filepath.Join(dir, "torn.traces.bin")
	if err := os.WriteFile(tornPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayFileParallel(tornPath, 8, func(probe.Trace) {}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("torn parallel replay: %v, want ErrTruncated", err)
	}

	// And of a partial file (no index): transparently sequential.
	partPath := filepath.Join(dir, "partial.traces.bin")
	if err := os.WriteFile(partPath, writeBinary(t, in[:50], false), 0o644); err != nil {
		t.Fatal(err)
	}
	n := 0
	sum, err := ReplayFileParallel(partPath, 8, func(probe.Trace) { n++ })
	if err != nil || sum.Complete || n != 50 {
		t.Fatalf("partial fallback: %+v, %v, n=%d", sum, err, n)
	}
}

func TestBinaryScanFile(t *testing.T) {
	in := synthTraces(2 * binChunkRecords)
	dir := t.TempDir()
	path := filepath.Join(dir, "c.traces.bin")
	if err := os.WriteFile(path, writeBinary(t, in, true), 0o644); err != nil {
		t.Fatal(err)
	}
	sum, err := ScanFile(path)
	if err != nil || !sum.Complete || sum.Traces != len(in) {
		t.Fatalf("scan: %+v, %v", sum, err)
	}
}

func TestBinaryCreateByExtension(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.traces.bin")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	in := synthTraces(10)
	for _, tr := range in {
		w.Write(tr)
	}
	if w.Count() != len(in) {
		t.Fatalf("count = %d", w.Count())
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil || !bytes.HasPrefix(raw, binMagic[:]) {
		t.Fatalf("created file is not binary: %v", err)
	}
	var out []probe.Trace
	sum, err := ReplayFile(path, func(tr probe.Trace) { out = append(out, tr) })
	if err != nil || !sum.Complete {
		t.Fatalf("replay: %+v, %v", sum, err)
	}
	equalTraces(t, in, out)
}

func TestWriterRejectsBadTraces(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	bad := probe.Trace{
		Src:  probe.VMRef{Cloud: "amazon", Region: 0},
		Dst:  netblock.MustParseIP("1.2.3.4"),
		Hops: []probe.Hop{{Addr: netblock.MustParseIP("10.0.0.1"), RTTms: -1}},
	}
	w.Write(bad)
	// The error sticks: later writes are dropped and Finish reports it.
	w.Write(probe.Trace{Src: probe.VMRef{Cloud: "a"}})
	if err := w.Finish(); err == nil {
		t.Error("finish after bad record succeeded")
	}
	if w.Count() != 0 {
		t.Error("bad record counted")
	}
}

// TestEncodeDecodeEncodeIdentity is the property the RTT fix buys: after
// one quantising round trip, encode→decode→encode is byte-identical.
func TestEncodeDecodeEncodeIdentity(t *testing.T) {
	f := func(cloudIdx, region uint8, dst uint32, addrs []uint32, status uint8) bool {
		clouds := []string{"amazon", "microsoft", "google"}
		tr := probe.Trace{
			Src:    probe.VMRef{Cloud: clouds[int(cloudIdx)%3], Region: int(region)},
			Dst:    netblock.IP(dst),
			Status: probe.Status(status % 3),
		}
		for i, a := range addrs {
			if i%4 == 3 {
				tr.Hops = append(tr.Hops, probe.Hop{})
			} else {
				tr.Hops = append(tr.Hops, probe.Hop{Addr: netblock.IP(a), RTTms: float64(a%100000000) / 1000})
			}
		}
		enc := func(in []probe.Trace) []byte {
			var buf bytes.Buffer
			w := NewWriter(&buf)
			for _, tr := range in {
				w.Write(tr)
			}
			if err := w.Finish(); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		dec := func(raw []byte) []probe.Trace {
			var out []probe.Trace
			if _, err := Replay(bytes.NewReader(raw), func(tr probe.Trace) {
				tr.Hops = append([]probe.Hop(nil), tr.Hops...)
				out = append(out, tr)
			}); err != nil {
				t.Fatal(err)
			}
			return out
		}
		first := enc([]probe.Trace{tr})
		mid := dec(first)
		second := enc(mid)
		if !bytes.Equal(first, second) {
			t.Log("encode→decode→encode not identity")
			return false
		}
		// And decoded RTTs are exactly the µs-quantised inputs.
		for i, h := range tr.Hops {
			if !h.Responsive() {
				continue
			}
			want := float64(rttMicros(h.RTTms)) / 1000
			if mid[0].Hops[i].RTTms != want {
				t.Logf("hop %d: RTT %v, want exactly %v", i, mid[0].Hops[i].RTTms, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestRTTMicrosExact(t *testing.T) {
	// The old encoder computed int64(ms*1000), truncating toward zero:
	// 1.302 ms → 1301 µs because 1.302*1000 = 1301.9999…. rttMicros
	// rounds, so every µs-precise value survives.
	cases := map[float64]int64{
		0:        0,
		0.001:    1,
		1.302:    1302,
		0.25:     250,
		86.407:   86407,
		99999.99: 99999990,
	}
	for ms, want := range cases {
		if got := rttMicros(ms); got != want {
			t.Errorf("rttMicros(%v) = %d, want %d", ms, got, want)
		}
	}
	for us := int64(0); us < 5000; us++ {
		if got := rttMicros(float64(us) / 1000); got != us {
			t.Fatalf("µs %d does not survive the ms round trip (got %d)", us, got)
		}
	}
	if math.Signbit(float64(rttMicros(0.0))) {
		t.Fatal("negative zero")
	}
}
