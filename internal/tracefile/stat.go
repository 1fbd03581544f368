package tracefile

// stat.go summarises a tracefile's on-disk shape for cmd/tracedump -stat:
// record and chunk counts, storage density, and how hard the per-chunk
// address dictionary works.

import (
	"bufio"
	"os"

	"cloudmap/internal/probe"
)

// Stats describes one tracefile.
type Stats struct {
	Bytes          int64 // file size on disk
	Records        int
	Complete       bool
	Hops           int64 // total hop slots, unresponsive included
	ResponsiveHops int64
	Chunks         int
	DictEntries    int64 // dictionary entries summed over chunks
}

// BytesPerTrace is the storage density.
func (s Stats) BytesPerTrace() float64 {
	if s.Records == 0 {
		return 0
	}
	return float64(s.Bytes) / float64(s.Records)
}

// DictHitRate is the share of responsive hop slots served by an existing
// dictionary entry rather than a fresh one — how much the per-chunk
// interning actually dedups.
func (s Stats) DictHitRate() float64 {
	if s.ResponsiveHops == 0 || s.DictEntries == 0 {
		return 0
	}
	return 1 - float64(s.DictEntries)/float64(s.ResponsiveHops)
}

// StatFile reads the tracefile at path once and reports its Stats. Partial
// files report Complete=false; torn ones return ErrTruncated like Replay.
func StatFile(path string) (Stats, error) {
	var st Stats
	f, err := os.Open(path)
	if err != nil {
		return st, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil {
		st.Bytes = fi.Size()
	}
	sum, err := binaryScan(bufio.NewReaderSize(f, 1<<16), func(tr probe.Trace) {
		st.Records++
		st.Hops += int64(len(tr.Hops))
		for _, h := range tr.Hops {
			if h.Responsive() {
				st.ResponsiveHops++
			}
		}
	}, &st)
	st.Complete = sum.Complete
	return st, err
}
