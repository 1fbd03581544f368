package probe

import (
	"testing"

	"cloudmap/internal/faults"
)

// BenchmarkTracerouteAt measures one traceroute over round-1 targets from
// every Amazon region, the inner loop of both probing rounds. clean is a
// fault-free TracerouteAt: path computation plus reply synthesis. faulted
// probes each target as a campaign does under the moderate fault plan with
// the default retry policy: every attempt until one is clean, in one
// tracer.
func BenchmarkTracerouteAt(b *testing.B) {
	tp, p := newProber(b)
	targets := Round1Targets(tp, Round1Options{})
	vms := p.VMs("amazon")
	b.Run("clean", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := p.TracerouteAt(vms[i%len(vms)], targets[i%len(targets)], 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("faulted", func(b *testing.B) {
		fp := NewProber(tp, p.Forwarder())
		inj, err := faults.New(moderateTestPlan(), tp)
		if err != nil {
			b.Fatal(err)
		}
		fp.SetFaults(inj)
		dests := fp.resolve(targets)
		pol := DefaultRetryPolicy().withDefaults()
		sc := new(tracer)
		var cs CampaignStats
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vm, err := fp.vm(vms[i%len(vms)])
			if err != nil {
				b.Fatal(err)
			}
			fp.traceRetry(nil, sc, vm, uint64(vm.Cloud)<<16|uint64(vm.Region), dests[i%len(dests)], pol, 1, nil, &cs)
		}
	})
}
