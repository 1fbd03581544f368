package route

import (
	"testing"

	"cloudmap/internal/netblock"
	"cloudmap/internal/topo"
)

// BenchmarkTrace measures single-probe path computation — the inner loop of
// every campaign (millions of calls per round).
func BenchmarkTrace(b *testing.B) {
	tp, err := topo.Generate(topo.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	f := NewForwarder(tp)
	vm := VM{Cloud: tp.Amazon().ID, Region: 0}
	// Destination mix: client service space across many ASes.
	var dsts []netblock.IP
	for i := range tp.ASes {
		as := &tp.ASes[i]
		if len(as.ServicePrefixes) > 0 {
			dsts = append(dsts, as.ServicePrefixes[0].Addr+1)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Trace(vm, dsts[i%len(dsts)])
	}
}

// BenchmarkNewForwarder measures routing-state construction.
func BenchmarkNewForwarder(b *testing.B) {
	tp, err := topo.Generate(topo.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewForwarder(tp)
	}
}
