package tracefile

import (
	"bufio"
	"bytes"
	"testing"

	"cloudmap/internal/probe"
)

// FuzzReadBinary drives arbitrary bytes through the binary replay path. The
// invariants mirror FuzzRead: no panic, no unbounded allocation, and every
// record that survives the CRC/validation gauntlet is well-formed. The seed
// corpus covers a complete file, a partial (no-index) file, cuts at and
// inside every frame boundary, a corrupt CRC, and mutations inside the
// header, chunk index and dictionary regions.
func FuzzReadBinary(f *testing.F) {
	// Mutation seeds stay small (single chunk) so the fuzzer iterates
	// fast; one multi-chunk file keeps the index walk covered.
	whole := writeBinary(f, synthTraces(60), true)
	partial := writeBinary(f, synthTraces(40), false)
	f.Add(whole)
	f.Add(partial)
	f.Add(writeBinary(f, synthTraces(2*binChunkRecords+30), true))
	f.Add(writeBinary(f, nil, true))
	f.Add(binMagic[:]) // header only

	// Truncations: inside the header, first frame header, first payload,
	// the index frame and the trailer.
	for _, cut := range []int{
		3,
		len(binMagic),
		len(binMagic) + binFrameHeaderLen - 2,
		len(binMagic) + binFrameHeaderLen + 40,
		len(whole) - binTrailerLen - 5,
		len(whole) - binTrailerLen,
		len(whole) - 2,
	} {
		f.Add(append([]byte(nil), whole[:cut]...))
	}

	// Single-byte mutations in interesting regions: frame header fields
	// (type, payloadLen, count, crc), early payload (cloud table and
	// dictionary), the index entries, and the trailer offset.
	for _, pos := range []int{
		len(binMagic),                                 // frame type
		len(binMagic) + 1,                             // payloadLen LSB
		len(binMagic) + 5,                             // record count
		len(binMagic) + 9,                             // crc
		len(binMagic) + binFrameHeaderLen,             // cloud count varint
		len(binMagic) + binFrameHeaderLen + 2,         // inside cloud name
		len(binMagic) + binFrameHeaderLen + 9,         // dictionary region
		len(whole) - binTrailerLen - binIndexEntryLen, // an index entry
		len(whole) - binTrailerLen + 1,                // trailer index offset
	} {
		m := append([]byte(nil), whole...)
		m[pos] ^= 0xa5
		f.Add(m)
	}

	f.Fuzz(func(t *testing.T, input []byte) {
		sum, err := Replay(bytes.NewReader(input), func(tr probe.Trace) {
			if tr.Src.Region < 0 {
				t.Fatal("negative region accepted")
			}
			if tr.Status > probe.StatusLoop {
				t.Fatal("invalid status accepted")
			}
			for _, h := range tr.Hops {
				if h.RTTms < 0 {
					t.Fatal("negative RTT accepted")
				}
			}
		})
		if err == nil && sum.Complete {
			// Anything replay calls complete must also scan complete: the
			// two code paths agree on the completeness trailer.
			ssum, serr := scanBinaryOrText(input)
			if serr != nil || !ssum.Complete || ssum.Traces != sum.Traces {
				t.Fatalf("scan disagrees with replay: %+v/%v vs %+v", ssum, serr, sum)
			}
		}
	})
}

// scanBinaryOrText runs the no-decode scan over in-memory bytes (test shim
// for ScanFile, which wants a path).
func scanBinaryOrText(input []byte) (Summary, error) {
	br := bufio.NewReader(bytes.NewReader(input))
	if magic, _ := br.Peek(8); isBinMagic(magic) {
		return scanBinary(br)
	}
	return Replay(bytes.NewReader(input), func(probe.Trace) {})
}
