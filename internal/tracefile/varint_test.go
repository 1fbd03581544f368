package tracefile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"cloudmap/internal/netblock"
	"cloudmap/internal/probe"
)

// varintEdges straddle the varint width steps: one to two bytes at
// 127/128 for uvarints and at 63/64 for zigzag deltas, two to three bytes
// at 16383/16384 for uvarints.
var varintEdges = []int64{0, 63, 64, 127, 128, 16383, 16384}

// edgeTraces builds traces whose hop counts, dictionary refs, destination
// deltas and RTT deltas (both signs) sit on every value in varintEdges.
func edgeTraces() []probe.Trace {
	var out []probe.Trace
	next := netblock.IP(0x0a000000)
	// Hop counts: one trace per edge. Every responsive hop is a new
	// address, so the chunk dictionary grows past 16384 entries and the
	// refs walk through every edge value; each trace's first hop is
	// unresponsive (ref 0). RTTs start at 20 ms and alternate +v, -v
	// through the edges, so deltas hit ±v and never go negative.
	for _, n := range varintEdges {
		tr := probe.Trace{Src: probe.VMRef{Cloud: "amazon", Region: 1}, Dst: netblock.IP(0x40000000 + uint32(n)), Status: probe.StatusCompleted}
		us := int64(20000)
		for h := 0; h < int(n); h++ {
			if h == 0 {
				tr.Hops = append(tr.Hops, probe.Hop{})
				continue
			}
			d := varintEdges[(h/2)%len(varintEdges)]
			if h%2 == 1 {
				us += d
			} else {
				us -= d
			}
			tr.Hops = append(tr.Hops, probe.Hop{Addr: next, RTTms: float64(us) / 1000})
			next++
		}
		out = append(out, tr)
	}
	// Destination deltas: hopless traces stepping +v then -v.
	dst := netblock.IP(0x50000000)
	for _, d := range varintEdges {
		for _, step := range []int64{d, -d} {
			dst = netblock.IP(int64(dst) + step)
			out = append(out, probe.Trace{Src: probe.VMRef{Cloud: "google", Region: int(d)}, Dst: dst, Status: probe.StatusGapLimit})
		}
	}
	return out
}

func TestBinaryVarintEdgesRoundTrip(t *testing.T) {
	in := edgeTraces()
	raw := writeBinary(t, in, true)
	var out []probe.Trace
	sum, err := Replay(bytes.NewReader(raw), func(tr probe.Trace) { out = append(out, tr) })
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Complete {
		t.Fatalf("summary %+v, want complete", sum)
	}
	equalTraces(t, in, out)
}

// chunkPayload encodes traces as one chunk and returns its payload.
func chunkPayload(t *testing.T, traces []probe.Trace) []byte {
	t.Helper()
	raw := writeBinary(t, traces, false)
	hdr := raw[len(binMagic):]
	if hdr[0] != binFrameChunk {
		t.Fatalf("first frame type %#x, want a chunk", hdr[0])
	}
	plen := binary.LittleEndian.Uint32(hdr[1:5])
	return hdr[binFrameHeaderLen : binFrameHeaderLen+int(plen)]
}

// TestDecodeChunkTruncatedVarint cuts a chunk payload right after a byte
// whose continuation bit is set. The decoder must reject the torn varint
// with the error naming its start offset, whichever field it is.
func TestDecodeChunkTruncatedVarint(t *testing.T) {
	hop := func(addr uint32, ms float64) probe.Hop { return probe.Hop{Addr: netblock.IP(addr), RTTms: ms} }
	wide := probe.Trace{Src: probe.VMRef{Cloud: "amazon"}, Dst: 1}
	for i := 0; i < 128; i++ {
		wide.Hops = append(wide.Hops, hop(0x0a000001+uint32(i), 1))
	}
	cases := []struct {
		name string
		tr   probe.Trace
		// width is the torn varint's encoded length; tail counts the
		// bytes after it, to the end of the payload.
		width, tail int
	}{
		{"rtt delta +16384", probe.Trace{Src: probe.VMRef{Cloud: "amazon"}, Dst: 1, Hops: []probe.Hop{hop(0x0a000001, 16.384)}}, 3, 0},
		{"rtt delta -16384", probe.Trace{Src: probe.VMRef{Cloud: "amazon"}, Dst: 1, Hops: []probe.Hop{hop(0x0a000001, 20), hop(0x0a000002, 3.616)}}, 3, 0},
		{"dictionary ref 128", wide, 2, 1},
		{"destination delta 16384", probe.Trace{Src: probe.VMRef{Cloud: "amazon"}, Dst: 16384}, 3, 2},
		{"region 16384", probe.Trace{Src: probe.VMRef{Cloud: "amazon", Region: 16384}}, 3, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := chunkPayload(t, []probe.Trace{c.tr})
			start := len(p) - c.tail - c.width
			want := fmt.Sprintf("tracefile: bad varint at payload offset %d", start)
			for cut := start + 1; cut < start+c.width; cut++ {
				if p[cut-1]&0x80 == 0 {
					t.Fatalf("byte %d (%#x) has no continuation bit", cut-1, p[cut-1])
				}
				_, err := decodeChunk(p[:cut:cut], 1, new(binScratch), nil)
				if err == nil || err.Error() != want {
					t.Fatalf("cut at %d: err %v, want %q", cut, err, want)
				}
			}
		})
	}
}
