package tracefile

// binary.go is tracefile format v2: the compact binary columnar checkpoint
// encoding. The file is a sequence of CRC32-framed chunks, each carrying a
// few thousand records as delta-encoded varints over per-chunk dictionaries,
// followed by a fixed-width chunk index and a CRC-framed trailer:
//
//	magic (8B)  "CMTF2\x00\xbe\n"
//	chunk*      [type=0x01][payloadLen u32][records u32][crc32 u32] payload
//	index       [type=0x02][payloadLen u32][chunks  u32][crc32 u32] payload
//	trailer     [indexOff u64][crc32(indexOff) u32]["2FTM"]
//
// Chunk payload layout (all integers varint unless noted):
//
//	cloudCount, then per cloud: byteLen + raw name bytes
//	dictCount,  then per entry: zigzag delta vs the previous entry's value
//	            (entries appear in first-use order; hops reference them by
//	            index, so each distinct address is stored once per chunk)
//	hopTotal    (sum of hop counts — sizes the decoder's one-alloc arena)
//	records:    cloudIdx, region, zigzag(dst − prevDst), status (1 raw byte),
//	            hopCount, then per hop: dictRef (0 = unresponsive, else
//	            index+1) and, when responsive, zigzag(rttµs − prevRTTµs)
//
// Why this shape: addresses repeat heavily inside a chunk (the same first
// hops appear in every trace from a region), so the dictionary plus varint
// deltas compress about as well as gzip while decoding an order of
// magnitude faster — no inflate, no line splitting, no dotted-quad parsing.
// The trailer is the completeness mark: a file with a valid index + trailer
// is a whole campaign; whole chunks without an index are a loadable partial
// (Close without Finish); a torn final frame is ErrTruncated, exactly the
// signal checkpoint resume uses to fall back to live re-probing. The fixed-width
// index entries let a resume seek to any chunk directly, so decode fans out
// across workers instead of scanning one stream.

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"cloudmap/internal/netblock"
	"cloudmap/internal/ordered"
	"cloudmap/internal/probe"
)

const (
	binFrameChunk = 0x01
	binFrameIndex = 0x02

	binFrameHeaderLen = 13 // type(1) + payloadLen(4) + count(4) + crc(4)
	binTrailerLen     = 16 // indexOff(8) + crc(4) + end magic(4)
	binIndexEntryLen  = 16 // offset(8) + payloadLen(4) + records(4)

	// binChunkRecords bounds records per chunk: small enough that parallel
	// decode load-balances, large enough that dictionaries amortise.
	binChunkRecords = 4096

	// Decoder sanity caps: reject sizes no writer produces before
	// allocating for them (fuzz inputs lie about lengths).
	binMaxPayload   = 1 << 27
	binMaxHops      = 1 << 16
	binMaxCloudName = 255
	binMaxRegion    = 1 << 24
)

var (
	binMagic    = [8]byte{'C', 'M', 'T', 'F', '2', 0x00, 0xbe, '\n'}
	binEndMagic = [4]byte{'2', 'F', 'T', 'M'}
)

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

// binChunkInfo is one fixed-width chunk index entry.
type binChunkInfo struct {
	off     uint64 // file offset of the chunk's frame header
	plen    uint32 // payload length
	records uint32
}

// binWriter encodes traces into chunk frames. Records are serialised
// immediately (the writer never retains caller hop slices); the chunk's
// dictionary and cloud table accumulate alongside and are emitted ahead of
// the record bytes when the chunk flushes.
type binWriter struct {
	out *bufio.Writer
	off uint64 // bytes emitted so far, = next frame's file offset

	// Current chunk state.
	recs     int
	hopTotal int
	recBuf   []byte
	dict     map[netblock.IP]uint32
	dictNew  []netblock.IP // entries in first-use order
	clouds   map[string]uint32
	cloudNew []string
	prevDst  netblock.IP

	payload []byte // frame assembly buffer, reused across chunks
	index   []binChunkInfo
}

func (bw *binWriter) encode(tr probe.Trace) error {
	if tr.Src.Region < 0 {
		return fmt.Errorf("tracefile: negative region %d", tr.Src.Region)
	}
	if tr.Status > probe.StatusLoop {
		return fmt.Errorf("tracefile: invalid status %d", tr.Status)
	}
	if len(tr.Hops) > binMaxHops {
		return fmt.Errorf("tracefile: %d hops exceeds format limit", len(tr.Hops))
	}
	ci, ok := bw.clouds[tr.Src.Cloud]
	if !ok {
		if len(tr.Src.Cloud) > binMaxCloudName {
			return fmt.Errorf("tracefile: cloud name %q too long", tr.Src.Cloud)
		}
		ci = uint32(len(bw.cloudNew))
		bw.clouds[tr.Src.Cloud] = ci
		bw.cloudNew = append(bw.cloudNew, tr.Src.Cloud)
	}
	b := appendUvarint(bw.recBuf, uint64(ci))
	b = appendUvarint(b, uint64(tr.Src.Region))
	b = appendZigzag(b, int64(tr.Dst)-int64(bw.prevDst))
	bw.prevDst = tr.Dst
	b = append(b, byte(tr.Status))
	b = appendUvarint(b, uint64(len(tr.Hops)))
	prevUS := int64(0)
	for _, h := range tr.Hops {
		if !h.Responsive() {
			b = append(b, 0)
			continue
		}
		di, ok := bw.dict[h.Addr]
		if !ok {
			di = uint32(len(bw.dictNew))
			bw.dict[h.Addr] = di
			bw.dictNew = append(bw.dictNew, h.Addr)
		}
		b = appendUvarint(b, uint64(di)+1)
		us := rttMicros(h.RTTms)
		if us < 0 {
			bw.recBuf = b[:0] // drop the half-encoded record
			return fmt.Errorf("tracefile: negative RTT %v on hop %s", h.RTTms, h.Addr)
		}
		b = appendZigzag(b, us-prevUS)
		prevUS = us
	}
	bw.recBuf = b
	bw.recs++
	bw.hopTotal += len(tr.Hops)
	if bw.recs >= binChunkRecords {
		return bw.flushChunk()
	}
	return nil
}

// flushChunk frames and emits the accumulated records; a no-op when the
// chunk is empty.
func (bw *binWriter) flushChunk() error {
	if bw.recs == 0 {
		return nil
	}
	p := appendUvarint(bw.payload[:0], uint64(len(bw.cloudNew)))
	for _, c := range bw.cloudNew {
		p = appendUvarint(p, uint64(len(c)))
		p = append(p, c...)
	}
	p = appendUvarint(p, uint64(len(bw.dictNew)))
	prev := int64(0)
	for _, a := range bw.dictNew {
		p = appendZigzag(p, int64(a)-prev)
		prev = int64(a)
	}
	p = appendUvarint(p, uint64(bw.hopTotal))
	p = append(p, bw.recBuf...)
	bw.payload = p

	if err := bw.writeFrame(binFrameChunk, uint32(bw.recs), p); err != nil {
		return err
	}
	bw.index = append(bw.index, binChunkInfo{
		off:     bw.off - uint64(binFrameHeaderLen+len(p)),
		plen:    uint32(len(p)),
		records: uint32(bw.recs),
	})

	bw.recs, bw.hopTotal = 0, 0
	bw.recBuf = bw.recBuf[:0]
	bw.prevDst = 0
	clear(bw.dict)
	bw.dictNew = bw.dictNew[:0]
	clear(bw.clouds)
	bw.cloudNew = bw.cloudNew[:0]
	return nil
}

func (bw *binWriter) writeFrame(kind byte, count uint32, payload []byte) error {
	var hdr [binFrameHeaderLen]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], count)
	binary.LittleEndian.PutUint32(hdr[9:13], crc32.ChecksumIEEE(payload))
	if _, err := bw.out.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.out.Write(payload); err != nil {
		return err
	}
	bw.off += uint64(binFrameHeaderLen + len(payload))
	return nil
}

// finish flushes the open chunk, then writes the index frame and trailer
// that mark the file complete.
func (bw *binWriter) finish() error {
	if err := bw.flushChunk(); err != nil {
		return err
	}
	indexOff := bw.off
	p := bw.payload[:0]
	var total uint64
	for _, ci := range bw.index {
		var e [binIndexEntryLen]byte
		binary.LittleEndian.PutUint64(e[0:8], ci.off)
		binary.LittleEndian.PutUint32(e[8:12], ci.plen)
		binary.LittleEndian.PutUint32(e[12:16], ci.records)
		p = append(p, e[:]...)
		total += uint64(ci.records)
	}
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], total)
	p = append(p, t[:]...)
	bw.payload = p
	if err := bw.writeFrame(binFrameIndex, uint32(len(bw.index)), p); err != nil {
		return err
	}
	var tr [binTrailerLen]byte
	binary.LittleEndian.PutUint64(tr[0:8], indexOff)
	binary.LittleEndian.PutUint32(tr[8:12], crc32.ChecksumIEEE(tr[0:8]))
	copy(tr[12:16], binEndMagic[:])
	_, err := bw.out.Write(tr[:])
	return err
}

// binScratch is the per-decoder reusable state: dictionary, cloud table and
// payload buffer survive across chunks so steady-state decode allocates
// only the hop arena and the trace batch.
type binScratch struct {
	payload []byte
	dict    []netblock.IP
	clouds  []string
}

var scratchPool = sync.Pool{New: func() any { return new(binScratch) }}

// batchPool recycles decoded record batches between the chunk decoders and
// the in-order delivery loop of the parallel replay path.
var batchPool = sync.Pool{New: func() any {
	s := make([]probe.Trace, 0, binChunkRecords)
	return &s
}}

func uvar(p []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(p[off:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("tracefile: bad varint at payload offset %d", off)
	}
	return v, off + n, nil
}

func zigzag(p []byte, off int) (int64, int, error) {
	v, off, err := uvar(p, off)
	if err != nil {
		return 0, 0, err
	}
	return int64(v>>1) ^ -int64(v&1), off, nil
}

// decodeChunk decodes one CRC-verified chunk payload into out (reusing its
// backing array), using sc for table scratch. Hops for the whole chunk live
// in one exactly-sized arena allocation.
func decodeChunk(payload []byte, records uint32, sc *binScratch, out []probe.Trace) ([]probe.Trace, error) {
	nClouds, off, err := uvar(payload, 0)
	if err != nil {
		return nil, err
	}
	if nClouds > uint64(records) {
		return nil, fmt.Errorf("tracefile: chunk declares %d clouds for %d records", nClouds, records)
	}
	sc.clouds = sc.clouds[:0]
	for i := uint64(0); i < nClouds; i++ {
		var n uint64
		if n, off, err = uvar(payload, off); err != nil {
			return nil, err
		}
		if n > binMaxCloudName || off+int(n) > len(payload) {
			return nil, fmt.Errorf("tracefile: cloud name overruns chunk")
		}
		sc.clouds = append(sc.clouds, string(payload[off:off+int(n)]))
		off += int(n)
	}
	var nDict uint64
	if nDict, off, err = uvar(payload, off); err != nil {
		return nil, err
	}
	if nDict > uint64(len(payload)) {
		return nil, fmt.Errorf("tracefile: dictionary larger than chunk")
	}
	sc.dict = sc.dict[:0]
	prev := int64(0)
	for i := uint64(0); i < nDict; i++ {
		var d int64
		if d, off, err = zigzag(payload, off); err != nil {
			return nil, err
		}
		v := prev + d
		if v < 0 || v > int64(^uint32(0)) {
			return nil, fmt.Errorf("tracefile: dictionary address out of range")
		}
		sc.dict = append(sc.dict, netblock.IP(v))
		prev = v
	}
	var hopTotal uint64
	if hopTotal, off, err = uvar(payload, off); err != nil {
		return nil, err
	}
	// Every encoded hop costs at least one payload byte, so a declared
	// arena larger than the remaining payload is a lie.
	if hopTotal > uint64(len(payload)-off) {
		return nil, fmt.Errorf("tracefile: hop arena %d out of range", hopTotal)
	}
	arena := make([]probe.Hop, 0, hopTotal)

	// The per-record and per-hop varints almost always fit in one byte
	// (b < 0x80). The loop reads that case inline and leaves longer or
	// malformed varints to uvar and zigzag, which are too large for the
	// compiler to inline; every bound and error stays theirs.
	prevDst := int64(0)
	for r := uint32(0); r < records; r++ {
		var tr probe.Trace
		var ci uint64
		if off < len(payload) && payload[off] < 0x80 {
			ci, off = uint64(payload[off]), off+1
		} else if ci, off, err = uvar(payload, off); err != nil {
			return nil, err
		}
		if ci >= uint64(len(sc.clouds)) {
			return nil, fmt.Errorf("tracefile: record %d: cloud index %d out of range", r, ci)
		}
		tr.Src.Cloud = sc.clouds[ci]
		var region uint64
		if off < len(payload) && payload[off] < 0x80 {
			region, off = uint64(payload[off]), off+1
		} else if region, off, err = uvar(payload, off); err != nil {
			return nil, err
		}
		if region > binMaxRegion {
			return nil, fmt.Errorf("tracefile: record %d: region %d out of range", r, region)
		}
		tr.Src.Region = int(region)
		var dd int64
		if off < len(payload) && payload[off] < 0x80 {
			b := payload[off]
			dd, off = int64(b>>1)^-int64(b&1), off+1
		} else if dd, off, err = zigzag(payload, off); err != nil {
			return nil, err
		}
		dst := prevDst + dd
		if dst < 0 || dst > int64(^uint32(0)) {
			return nil, fmt.Errorf("tracefile: record %d: destination out of range", r)
		}
		tr.Dst = netblock.IP(dst)
		prevDst = dst
		if off >= len(payload) {
			return nil, fmt.Errorf("tracefile: record %d: truncated status", r)
		}
		st := payload[off]
		off++
		if probe.Status(st) > probe.StatusLoop {
			return nil, fmt.Errorf("tracefile: record %d: bad status %d", r, st)
		}
		tr.Status = probe.Status(st)
		var nHops uint64
		if off < len(payload) && payload[off] < 0x80 {
			nHops, off = uint64(payload[off]), off+1
		} else if nHops, off, err = uvar(payload, off); err != nil {
			return nil, err
		}
		if nHops > binMaxHops {
			return nil, fmt.Errorf("tracefile: record %d: %d hops out of range", r, nHops)
		}
		if uint64(len(arena))+nHops > uint64(cap(arena)) {
			return nil, fmt.Errorf("tracefile: record %d: hops overrun the declared arena", r)
		}
		start := len(arena)
		prevUS := int64(0)
		for h := uint64(0); h < nHops; h++ {
			var ref uint64
			if off < len(payload) && payload[off] < 0x80 {
				ref, off = uint64(payload[off]), off+1
			} else if ref, off, err = uvar(payload, off); err != nil {
				return nil, err
			}
			if ref == 0 {
				arena = append(arena, probe.Hop{})
				continue
			}
			if ref > uint64(len(sc.dict)) {
				return nil, fmt.Errorf("tracefile: record %d: dictionary ref %d out of range", r, ref)
			}
			var dus int64
			if off < len(payload) && payload[off] < 0x80 {
				b := payload[off]
				dus, off = int64(b>>1)^-int64(b&1), off+1
			} else if dus, off, err = zigzag(payload, off); err != nil {
				return nil, err
			}
			us := prevUS + dus
			if us < 0 {
				return nil, fmt.Errorf("tracefile: record %d: negative RTT", r)
			}
			prevUS = us
			arena = append(arena, probe.Hop{Addr: sc.dict[ref-1], RTTms: float64(us) / 1000})
		}
		if nHops > 0 {
			tr.Hops = arena[start:len(arena):len(arena)]
		}
		out = append(out, tr)
	}
	if off != len(payload) {
		return nil, fmt.Errorf("tracefile: %d stray bytes after last record", len(payload)-off)
	}
	return out, nil
}

// readMagic consumes the 8-byte header. Input that stops inside it, an
// empty file included, is a checkpoint torn before its first write reached
// disk — ErrTruncated, so resume re-probes; anything else that is not the
// magic is not a tracefile at all.
func readMagic(br *bufio.Reader) error {
	var magic [len(binMagic)]byte
	n, err := io.ReadFull(br, magic[:])
	if string(magic[:n]) != string(binMagic[:n]) {
		return fmt.Errorf("tracefile: not a tracefile (bad magic %q)", magic[:n])
	}
	if err != nil {
		return fmt.Errorf("%w: header cut short after %d of %d bytes", ErrTruncated, n, len(binMagic))
	}
	return nil
}

// binaryScan is the sequential v2 reader. A clean stop at a frame boundary
// before the index is a loadable partial file (Complete=false); anything
// torn — short frame, CRC mismatch, missing trailer — reports ErrTruncated
// so resume logic re-probes instead of trusting the file. sink, when
// non-nil, receives every decoded record; st, when non-nil, accumulates
// per-chunk format statistics (chunk count, dictionary sizes) as the walk
// proceeds.
func binaryScan(br *bufio.Reader, sink probe.TraceSink, st *Stats) (Summary, error) {
	var sum Summary
	if err := readMagic(br); err != nil {
		return sum, err
	}
	sc := scratchPool.Get().(*binScratch)
	defer scratchPool.Put(sc)
	var batch []probe.Trace
	if sink != nil {
		bp := batchPool.Get().(*[]probe.Trace)
		batch = *bp
		defer func() { *bp = batch[:0]; batchPool.Put(bp) }()
	}

	off := uint64(len(binMagic))
	var chunks []binChunkInfo
	for {
		var hdr [binFrameHeaderLen]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				// Clean stop at a frame boundary with no index: a partial
				// (Close-without-Finish) file.
				return sum, nil
			}
			return sum, fmt.Errorf("%w: frame header cut short after %d traces", ErrTruncated, sum.Traces)
		}
		kind := hdr[0]
		plen := binary.LittleEndian.Uint32(hdr[1:5])
		count := binary.LittleEndian.Uint32(hdr[5:9])
		crc := binary.LittleEndian.Uint32(hdr[9:13])
		if plen > binMaxPayload {
			return sum, fmt.Errorf("tracefile: frame payload %d exceeds limit", plen)
		}
		if cap(sc.payload) < int(plen) {
			sc.payload = make([]byte, plen)
		}
		p := sc.payload[:plen]
		if _, err := io.ReadFull(br, p); err != nil {
			return sum, fmt.Errorf("%w: frame payload cut short after %d traces", ErrTruncated, sum.Traces)
		}
		if crc32.ChecksumIEEE(p) != crc {
			// A CRC mismatch is indistinguishable from a torn tail written
			// by a crashed process; classify it as truncation so resume
			// falls back to re-probing rather than failing hard.
			return sum, fmt.Errorf("%w: frame crc mismatch after %d traces", ErrTruncated, sum.Traces)
		}
		switch kind {
		case binFrameChunk:
			if count == 0 || count > binMaxPayload {
				return sum, fmt.Errorf("tracefile: chunk record count %d invalid", count)
			}
			if sink != nil {
				out, err := decodeChunk(p, count, sc, batch[:0])
				batch = out
				if err != nil {
					return sum, err
				}
				for _, tr := range out {
					sink(tr)
				}
				if st != nil {
					st.DictEntries += int64(len(sc.dict))
				}
			}
			if st != nil {
				st.Chunks++
			}
			chunks = append(chunks, binChunkInfo{off: off, plen: plen, records: count})
			sum.Traces += int(count)
		case binFrameIndex:
			if err := validateIndex(p, count, chunks, uint64(sum.Traces)); err != nil {
				return sum, err
			}
			indexOff := off
			var tr [binTrailerLen]byte
			if _, err := io.ReadFull(br, tr[:]); err != nil {
				return sum, fmt.Errorf("%w: trailer cut short", ErrTruncated)
			}
			if err := validateTrailer(tr, indexOff); err != nil {
				return sum, err
			}
			if _, err := br.ReadByte(); err != io.EOF {
				return sum, fmt.Errorf("tracefile: data after trailer")
			}
			sum.Complete = true
			return sum, nil
		default:
			return sum, fmt.Errorf("tracefile: unknown frame type %#x", kind)
		}
		off += uint64(binFrameHeaderLen) + uint64(plen)
	}
}

// validateIndex cross-checks a decoded index payload against the chunk
// frames actually observed in the stream.
func validateIndex(p []byte, count uint32, chunks []binChunkInfo, traces uint64) error {
	if uint64(len(p)) != uint64(count)*binIndexEntryLen+8 {
		return fmt.Errorf("tracefile: index payload size mismatch")
	}
	if int(count) != len(chunks) {
		return fmt.Errorf("tracefile: index lists %d chunks, stream has %d", count, len(chunks))
	}
	for i, ci := range chunks {
		e := p[i*binIndexEntryLen:]
		if binary.LittleEndian.Uint64(e[0:8]) != ci.off ||
			binary.LittleEndian.Uint32(e[8:12]) != ci.plen ||
			binary.LittleEndian.Uint32(e[12:16]) != ci.records {
			return fmt.Errorf("tracefile: index entry %d disagrees with stream", i)
		}
	}
	if total := binary.LittleEndian.Uint64(p[uint64(count)*binIndexEntryLen:]); total != traces {
		return fmt.Errorf("tracefile: index claims %d traces, stream has %d", total, traces)
	}
	return nil
}

func validateTrailer(tr [binTrailerLen]byte, indexOff uint64) error {
	if string(tr[12:16]) != string(binEndMagic[:]) {
		return fmt.Errorf("%w: trailer magic missing", ErrTruncated)
	}
	if crc32.ChecksumIEEE(tr[0:8]) != binary.LittleEndian.Uint32(tr[8:12]) {
		return fmt.Errorf("%w: trailer crc mismatch", ErrTruncated)
	}
	if binary.LittleEndian.Uint64(tr[0:8]) != indexOff {
		return fmt.Errorf("tracefile: trailer index offset disagrees with stream")
	}
	return nil
}

// readBinaryIndex seeks to the trailer of a complete v2 file and loads the
// chunk index, without touching any chunk. It returns an error for
// partial, torn or foreign files — callers fall back to sequential replay.
func readBinaryIndex(f *os.File) ([]binChunkInfo, uint64, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	size := st.Size()
	if size < int64(len(binMagic))+binFrameHeaderLen+binTrailerLen {
		return nil, 0, fmt.Errorf("tracefile: too short for a complete binary file")
	}
	var magic [len(binMagic)]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil || magic != binMagic {
		return nil, 0, fmt.Errorf("tracefile: not a binary tracefile")
	}
	var tr [binTrailerLen]byte
	if _, err := f.ReadAt(tr[:], size-binTrailerLen); err != nil {
		return nil, 0, err
	}
	indexOff := binary.LittleEndian.Uint64(tr[0:8])
	if err := validateTrailer(tr, indexOff); err != nil {
		return nil, 0, err
	}
	if indexOff < uint64(len(binMagic)) || int64(indexOff)+binFrameHeaderLen+binTrailerLen > size {
		return nil, 0, fmt.Errorf("tracefile: trailer index offset out of range")
	}
	var hdr [binFrameHeaderLen]byte
	if _, err := f.ReadAt(hdr[:], int64(indexOff)); err != nil {
		return nil, 0, err
	}
	plen := binary.LittleEndian.Uint32(hdr[1:5])
	count := binary.LittleEndian.Uint32(hdr[5:9])
	if hdr[0] != binFrameIndex || int64(indexOff)+binFrameHeaderLen+int64(plen)+binTrailerLen != size {
		return nil, 0, fmt.Errorf("tracefile: index frame malformed")
	}
	if plen > binMaxPayload || uint64(plen) != uint64(count)*binIndexEntryLen+8 {
		return nil, 0, fmt.Errorf("tracefile: index payload size mismatch")
	}
	p := make([]byte, plen)
	if _, err := f.ReadAt(p, int64(indexOff)+binFrameHeaderLen); err != nil {
		return nil, 0, err
	}
	if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(hdr[9:13]) {
		return nil, 0, fmt.Errorf("tracefile: index frame crc mismatch")
	}
	chunks := make([]binChunkInfo, count)
	expectOff := uint64(len(binMagic))
	for i := range chunks {
		e := p[i*binIndexEntryLen:]
		chunks[i] = binChunkInfo{
			off:     binary.LittleEndian.Uint64(e[0:8]),
			plen:    binary.LittleEndian.Uint32(e[8:12]),
			records: binary.LittleEndian.Uint32(e[12:16]),
		}
		if chunks[i].off != expectOff || chunks[i].records == 0 {
			return nil, 0, fmt.Errorf("tracefile: index entry %d inconsistent", i)
		}
		expectOff += uint64(binFrameHeaderLen) + uint64(chunks[i].plen)
	}
	if expectOff != indexOff {
		return nil, 0, fmt.Errorf("tracefile: index does not cover the chunk region")
	}
	total := binary.LittleEndian.Uint64(p[uint64(count)*binIndexEntryLen:])
	var sum uint64
	for i := range chunks {
		sum += uint64(chunks[i].records)
	}
	if sum != total {
		return nil, 0, fmt.Errorf("tracefile: index record counts disagree with total")
	}
	return chunks, total, nil
}

// ReplayFileParallel replays the tracefile at path, fanning chunk decode
// across workers when the file is a complete v2 binary checkpoint. Chunks
// are read, CRC-checked and decoded through ordered.Run, so traces reach
// sink in exactly the order a sequential replay produces them and every
// consumer-visible artefact stays byte-identical at any worker count.
// Partial and torn files fall back to the sequential reader.
func ReplayFileParallel(path string, workers int, sink probe.TraceSink) (Summary, error) {
	return ReplayFileParallelCtx(context.Background(), path, workers, sink)
}

// ReplayFileParallelCtx is ReplayFileParallel under a context: cancellation
// stops delivery between chunks and returns an error wrapping ctx.Err()
// once every decoder has exited.
func ReplayFileParallelCtx(ctx context.Context, path string, workers int, sink probe.TraceSink) (Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return Summary{}, err
	}
	defer f.Close()
	chunks, total, ierr := readBinaryIndex(f)
	if ierr != nil || workers <= 1 || len(chunks) < 2 {
		// Not a complete indexed file (or no parallelism to exploit): the
		// sequential reader handles every damage mode.
		if err := ctx.Err(); err != nil {
			return Summary{}, fmt.Errorf("tracefile: replay interrupted: %w", err)
		}
		return Replay(f, sink)
	}

	// Each lane (decoder goroutine) owns its scratch state and read buffer.
	type lane struct {
		sc  *binScratch
		buf []byte
	}
	lanes := make([]lane, workers+1)
	defer func() {
		for _, l := range lanes {
			if l.sc != nil {
				scratchPool.Put(l.sc)
			}
		}
	}()
	var sum Summary
	err = ordered.Run(ctx, len(chunks), workers, func(idx, li int) (*[]probe.Trace, error) {
		l := &lanes[li]
		if l.sc == nil {
			l.sc = scratchPool.Get().(*binScratch)
		}
		ci := chunks[idx]
		if cap(l.buf) < int(ci.plen)+binFrameHeaderLen {
			l.buf = make([]byte, int(ci.plen)+binFrameHeaderLen)
		}
		b := l.buf[:int(ci.plen)+binFrameHeaderLen]
		if _, err := f.ReadAt(b, int64(ci.off)); err != nil {
			return nil, fmt.Errorf("%w: chunk %d unreadable: %v", ErrTruncated, idx, err)
		}
		if crc32.ChecksumIEEE(b[binFrameHeaderLen:]) != binary.LittleEndian.Uint32(b[9:13]) {
			return nil, fmt.Errorf("%w: chunk %d crc mismatch", ErrTruncated, idx)
		}
		bp := batchPool.Get().(*[]probe.Trace)
		out, err := decodeChunk(b[binFrameHeaderLen:], ci.records, l.sc, (*bp)[:0])
		*bp = out
		if err != nil {
			batchPool.Put(bp)
			return nil, err
		}
		return bp, nil
	}, func(_ int, bp *[]probe.Trace) error {
		for _, tr := range *bp {
			sink(tr)
		}
		sum.Traces += len(*bp)
		*bp = (*bp)[:0]
		batchPool.Put(bp)
		return nil
	})
	if err != nil {
		return sum, err
	}
	if uint64(sum.Traces) != total {
		return sum, fmt.Errorf("tracefile: parallel replay delivered %d of %d traces", sum.Traces, total)
	}
	sum.Complete = true
	return sum, nil
}
