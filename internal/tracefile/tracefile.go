// Package tracefile stores traceroute campaigns on disk and replays them —
// the role scamper's warts files play in the paper's workflow (§3: 16 days
// of probing are collected once, then analysed many times).
//
// There is one encoding, the v2 binary columnar format (binary.go): chunked
// frames with per-chunk string-interned address dictionaries,
// varint-delta-encoded destinations, hops and RTTs, CRC32-framed payloads,
// and a fixed-width chunk index in the footer so a resume can seek straight
// to chunks (and decode them in parallel). Decoding it is an order of
// magnitude cheaper than parsing text, which is what makes replay cheaper
// than the probing it avoids. The index plus trailer is the completeness
// mark: a file without it is an interrupted campaign.
//
// cmd/tracedump -cat prints a file one greppable line per record.
package tracefile

import (
	"bufio"
	"errors"
	"io"
	"math"
	"os"

	"cloudmap/internal/netblock"
	"cloudmap/internal/probe"
)

// ErrTruncated marks a stream that ended mid-record — typically a checkpoint
// cut off by a crash before the footer was flushed (a file torn inside its
// magic, a frame or the index). Callers detect it with errors.Is and treat
// the file like a trailer-less (interrupted) checkpoint: re-probe rather
// than trust it.
var ErrTruncated = errors.New("tracefile: truncated stream")

// rttMicros converts a hop RTT to the exact microsecond count the format
// stores. Rounding to nearest (not float-multiply truncation) makes
// encode→decode→encode an identity: the decoded value µs/1000 re-encodes to
// the same µs.
func rttMicros(ms float64) int64 { return int64(math.Round(ms * 1000)) }

// Writer streams traces to an output in the v2 binary format.
type Writer struct {
	binWriter
	n   int // records written
	err error
}

// NewWriter writes the v2 header and returns a Writer. Finish writes the
// chunk index and CRC-framed trailer that mark the output complete; Flush
// without Finish leaves a loadable partial stream (whole chunks only, no
// index).
func NewWriter(w io.Writer) *Writer {
	out := bufio.NewWriterSize(w, 1<<16)
	out.Write(binMagic[:]) // buffered: a write error sticks and Flush reports it
	return &Writer{binWriter: binWriter{
		out:    out,
		off:    uint64(len(binMagic)),
		dict:   make(map[netblock.IP]uint32, binChunkRecords),
		clouds: make(map[string]uint32, 8),
	}}
}

// Write appends one trace. The first error sticks and is returned by Flush.
func (w *Writer) Write(tr probe.Trace) {
	if w.err != nil {
		return
	}
	if w.err = w.encode(tr); w.err == nil {
		w.n++
	}
}

// Count reports the number of records written so far.
func (w *Writer) Count() int { return w.n }

// Flush frames the current partial chunk and drains the buffer, so
// everything written so far is decodable, and reports the first write
// error.
func (w *Writer) Flush() error {
	if w.err == nil {
		w.err = w.flushChunk()
	}
	if w.err == nil {
		w.err = w.out.Flush()
	}
	return w.err
}

// Finish writes the chunk index and trailer, then flushes. A stream
// without them replays fine but reports Complete == false — the mark of an
// interrupted campaign.
func (w *Writer) Finish() error {
	if w.err == nil {
		w.err = w.finish()
	}
	return w.Flush()
}

// FileWriter couples a Writer to the file backing it.
type FileWriter struct {
	*Writer
	f      *os.File
	closed bool
}

// Create opens path for writing (truncating any previous content) and
// returns a FileWriter. Callers end the file with Finish (complete) or
// Close (partial but loadable).
func Create(path string) (*FileWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &FileWriter{Writer: NewWriter(f), f: f}, nil
}

// Finish writes the completeness trailer and closes the file.
func (fw *FileWriter) Finish() error {
	return fw.end(fw.Writer.Finish)
}

// Close flushes what was written and closes the file without the trailer:
// the file replays but scans as incomplete. Safe to call more than once and
// after Finish.
func (fw *FileWriter) Close() error {
	return fw.end(fw.Writer.Flush)
}

func (fw *FileWriter) end(flush func() error) error {
	if fw.closed {
		return fw.err
	}
	fw.closed = true
	err := flush()
	if cerr := fw.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Sink returns a probe.TraceSink that records into the writer (so a
// campaign can be stored and consumed simultaneously via Tee).
func (w *Writer) Sink() probe.TraceSink {
	return func(tr probe.Trace) { w.Write(tr) }
}

// Tee fans one trace stream out to several sinks.
func Tee(sinks ...probe.TraceSink) probe.TraceSink {
	return func(tr probe.Trace) {
		for _, s := range sinks {
			s(tr)
		}
	}
}

// Summary describes a replayed stream.
type Summary struct {
	// Traces is the number of records delivered.
	Traces int
	// Complete reports whether the stream ended with a valid chunk index
	// and trailer (an uninterrupted campaign).
	Complete bool
}

// Replay replays every trace in the input into sink and reports a Summary.
// Input that does not start with the v2 magic is rejected as not a
// tracefile; input that stops inside the magic (an empty file included) or
// inside a frame is ErrTruncated.
func Replay(r io.Reader, sink probe.TraceSink) (Summary, error) {
	return binaryScan(bufio.NewReaderSize(r, 1<<16), sink, nil)
}

// ReplayFile replays the tracefile at path. The open error is returned
// unwrapped-compatible (errors.Is(err, fs.ErrNotExist) works).
func ReplayFile(path string, sink probe.TraceSink) (Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return Summary{}, err
	}
	defer f.Close()
	return Replay(f, sink)
}

// ScanFile validates the tracefile at path without delivering its traces —
// the cheap completeness probe resume logic runs before deciding to replay.
// It verifies frame CRCs and the chunk index without decoding any record,
// so scanning costs I/O plus a checksum, not a parse.
func ScanFile(path string) (Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return Summary{}, err
	}
	defer f.Close()
	return binaryScan(bufio.NewReaderSize(f, 1<<16), nil, nil)
}
