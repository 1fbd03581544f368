package tracefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"cloudmap/internal/netblock"
	"cloudmap/internal/probe"
)

func sample() []probe.Trace {
	return []probe.Trace{
		{
			Src: probe.VMRef{Cloud: "amazon", Region: 3},
			Dst: netblock.MustParseIP("64.1.2.1"),
			Hops: []probe.Hop{
				{Addr: netblock.MustParseIP("10.0.0.1"), RTTms: 0.25},
				{},
				{Addr: netblock.MustParseIP("176.32.0.2"), RTTms: 1.302},
			},
			Status: probe.StatusGapLimit,
		},
		{
			Src:    probe.VMRef{Cloud: "microsoft", Region: 0},
			Dst:    netblock.MustParseIP("96.0.0.1"),
			Hops:   nil,
			Status: probe.StatusCompleted,
		},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	in := sample()
	for _, tr := range in {
		w.Write(tr)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var out []probe.Trace
	if _, err := Replay(&buf, func(tr probe.Trace) { out = append(out, tr) }); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d traces, want %d", len(out), len(in))
	}
	for i := range in {
		a, b := in[i], out[i]
		if a.Src != b.Src || a.Dst != b.Dst || a.Status != b.Status || len(a.Hops) != len(b.Hops) {
			t.Fatalf("trace %d differs: %+v vs %+v", i, a, b)
		}
		for h := range a.Hops {
			if a.Hops[h].Addr != b.Hops[h].Addr {
				t.Fatalf("trace %d hop %d addr differs", i, h)
			}
			// RTT survives at microsecond precision.
			if math.Abs(a.Hops[h].RTTms-b.Hops[h].RTTms) > 0.001 {
				t.Fatalf("trace %d hop %d RTT differs: %v vs %v", i, h, a.Hops[h].RTTms, b.Hops[h].RTTms)
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(cloudIdx uint8, region uint8, dst uint32, addrs []uint32, status uint8) bool {
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
				tr.Hops = append(tr.Hops, probe.Hop{Addr: netblock.IP(a), RTTms: float64(a%100000) / 1000})
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Write(tr)
		if err := w.Flush(); err != nil {
			return false
		}
		var got []probe.Trace
		if _, err := Replay(&buf, func(tr probe.Trace) { got = append(got, tr) }); err != nil {
			return false
		}
		if len(got) != 1 {
			return false
		}
		b := got[0]
		if b.Src != tr.Src || b.Dst != tr.Dst || b.Status != tr.Status || len(b.Hops) != len(tr.Hops) {
			return false
		}
		for i := range tr.Hops {
			if tr.Hops[i].Addr != b.Hops[i].Addr {
				return false
			}
			if math.Abs(tr.Hops[i].RTTms-b.Hops[i].RTTms) > 0.001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestReadRejectsGarbage: input that does not start with the v2 magic is
// refused as foreign — not diagnosed as a torn checkpoint — and so is a
// file whose frames are well-formed but whose content is not.
func TestReadRejectsGarbage(t *testing.T) {
	whole := writeBinary(t, sample(), true)
	// Frame type 0x7f, empty payload (whose CRC is 0), record count 1.
	unknownFrame := append(append([]byte(nil), binMagic[:]...), 0x7f, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0)
	foreign := map[string][]byte{
		"text":           []byte("not a tracefile\n"),
		"short":          []byte("CMX"),
		"v1 text":        []byte("# cloudmap tracefile v1\nT amazon/0 1.2.3.4 0 *\n# complete 1\n"),
		"gzip":           {0x1f, 0x8b, 0x08, 0, 0, 0, 0, 0, 0, 0xff},
		"magic off by 1": append([]byte{'X'}, whole[1:]...),
		"v3 magic":       append([]byte("CMTF3\x00\xbe\n"), whole[len(binMagic):]...),
		"unknown frame":  unknownFrame,
	}
	for name, in := range foreign {
		_, err := Replay(bytes.NewReader(in), func(probe.Trace) { t.Errorf("%s: delivered a trace", name) })
		if err == nil {
			t.Errorf("%s: accepted garbage", name)
		} else if errors.Is(err, ErrTruncated) {
			t.Errorf("%s: garbage diagnosed as truncation: %v", name, err)
		}
	}

	// A chunk whose CRC holds but whose one record carries an out-of-range
	// status byte is refused, not delivered.
	payload := []byte{1, 1, 'a', 0, 0, 0, 0, 0, byte(probe.StatusLoop) + 1, 0}
	chunk := append([]byte(nil), binMagic[:]...)
	chunk = append(chunk, binFrameChunk)
	chunk = binary.LittleEndian.AppendUint32(chunk, uint32(len(payload)))
	chunk = binary.LittleEndian.AppendUint32(chunk, 1)
	chunk = binary.LittleEndian.AppendUint32(chunk, crc32.ChecksumIEEE(payload))
	chunk = append(chunk, payload...)
	if _, err := Replay(bytes.NewReader(chunk), func(probe.Trace) {}); err == nil || errors.Is(err, ErrTruncated) {
		t.Errorf("malformed chunk: err = %v, want a non-truncation error", err)
	}
}

func TestTee(t *testing.T) {
	var a, b int
	sink := Tee(func(probe.Trace) { a++ }, func(probe.Trace) { b++ })
	sink(probe.Trace{})
	sink(probe.Trace{})
	if a != 2 || b != 2 {
		t.Fatalf("tee delivered %d/%d", a, b)
	}
}

// TestEmptyFile: a 0-byte file is a checkpoint whose header never reached
// disk — torn, so resume re-probes — not an empty campaign.
func TestEmptyFile(t *testing.T) {
	if _, err := Replay(bytes.NewReader(nil), func(probe.Trace) {}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty input: err = %v, want ErrTruncated", err)
	}
}

func TestTrailerCompleteness(t *testing.T) {
	// Finish marks the stream complete.
	var done bytes.Buffer
	w := NewWriter(&done)
	for _, tr := range sample() {
		w.Write(tr)
	}
	if w.Count() != len(sample()) {
		t.Fatalf("count = %d", w.Count())
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	sum, err := Replay(bytes.NewReader(done.Bytes()), func(probe.Trace) {})
	if err != nil || !sum.Complete || sum.Traces != 2 {
		t.Fatalf("finished stream: %+v, %v", sum, err)
	}

	// Flush without Finish leaves a loadable but incomplete stream.
	var partial bytes.Buffer
	w2 := NewWriter(&partial)
	w2.Write(sample()[0])
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	sum, err = Replay(bytes.NewReader(partial.Bytes()), func(probe.Trace) {})
	if err != nil || sum.Complete || sum.Traces != 1 {
		t.Fatalf("partial stream: %+v, %v", sum, err)
	}

	// An index whose trace total lies (CRC recomputed, so the frame is
	// intact) is rejected, as is a record frame after the trailer.
	raw := done.Bytes()
	indexOff := int(binary.LittleEndian.Uint64(raw[len(raw)-binTrailerLen:]))
	lying := append([]byte(nil), raw...)
	ip := lying[indexOff+binFrameHeaderLen : len(lying)-binTrailerLen]
	binary.LittleEndian.PutUint64(ip[len(ip)-8:], 5)
	binary.LittleEndian.PutUint32(lying[indexOff+9:], crc32.ChecksumIEEE(ip))
	if _, err := Replay(bytes.NewReader(lying), func(probe.Trace) {}); err == nil {
		t.Error("mismatched index total accepted")
	}
	late := append(append([]byte(nil), raw...), partial.Bytes()[len(binMagic):]...)
	if _, err := Replay(bytes.NewReader(late), func(probe.Trace) {}); err == nil {
		t.Error("record after trailer accepted")
	}
}

func TestFileHelpers(t *testing.T) {
	dir := t.TempDir()

	// Create writes v2 whatever the extension.
	path := filepath.Join(dir, "campaign.traces.gz")
	fw, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range sample() {
		fw.Write(tr)
	}
	if err := fw.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil { // after Finish: a no-op
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil || !bytes.HasPrefix(raw, binMagic[:]) {
		t.Fatalf("created file is not v2: %v", err)
	}
	sum, err := ScanFile(path)
	if err != nil || !sum.Complete || sum.Traces != 2 {
		t.Fatalf("scan: %+v, %v", sum, err)
	}
	n := 0
	if _, err := ReplayFile(path, func(probe.Trace) { n++ }); err != nil || n != 2 {
		t.Fatalf("replay delivered %d traces: %v", n, err)
	}

	// Close without Finish: loadable partial checkpoint.
	partPath := filepath.Join(dir, "partial.traces")
	pw, err := Create(partPath)
	if err != nil {
		t.Fatal(err)
	}
	pw.Write(sample()[0])
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	sum, err = ScanFile(partPath)
	if err != nil || sum.Complete || sum.Traces != 1 {
		t.Fatalf("partial scan: %+v, %v", sum, err)
	}

	// Missing files surface fs.ErrNotExist for resume logic.
	missing := filepath.Join(dir, "missing.traces.bin")
	if _, err := ScanFile(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file scan error = %v", err)
	}
	if _, err := ReplayFile(missing, func(probe.Trace) {}); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file replay error = %v", err)
	}
	if _, err := StatFile(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file stat error = %v", err)
	}
}
