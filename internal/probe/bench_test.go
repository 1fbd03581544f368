package probe

import "testing"

// BenchmarkTracerouteAt measures one fault-free traceroute over round-1
// targets from every Amazon region: path computation plus reply synthesis,
// the inner loop of both probing rounds.
func BenchmarkTracerouteAt(b *testing.B) {
	tp, p := newProber(b)
	targets := Round1Targets(tp, Round1Options{})
	vms := p.VMs("amazon")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.TracerouteAt(vms[i%len(vms)], targets[i%len(targets)], 0); err != nil {
			b.Fatal(err)
		}
	}
}
