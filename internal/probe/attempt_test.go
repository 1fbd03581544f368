package probe

import (
	"slices"
	"testing"

	"cloudmap/internal/faults"
)

// TestRetryAttemptsMatchFreshTraces: the attempts at one target share its
// path and reply draws and redraw only what the send time changes. Under
// the moderate plan, every attempt of the default retry schedule,
// synthesized in one tracer as traceRetry does, must equal a from-scratch
// TracerouteAt at that attempt's send time — hops, status and stats — and
// traceRetry must keep the best of those fresh attempts and count them.
// The sample runs until it holds targets whose first attempt hit a region
// outage (a retry is the first to trace), targets whose first attempt was
// cut by a flap that a retry escapes (the draw memo grows), and targets
// whose retry is cut although the first attempt was not (the memo is
// longer than the attempt).
func TestRetryAttemptsMatchFreshTraces(t *testing.T) {
	tp, p := newProber(t)
	inj, err := faults.New(moderateTestPlan(), tp)
	if err != nil {
		t.Fatal(err)
	}
	p.SetFaults(inj)
	pol := DefaultRetryPolicy().withDefaults()
	targets := Round1Targets(tp, Round1Options{})
	vms := p.VMs("amazon")
	const (
		epoch    = 1
		minCases = 3    // of each kind of target above
		minPairs = 2000 // (vm, target) pairs checked at least
	)
	var outageEscaped, flapEscaped, flapEntered, pairs int
	sc := new(tracer)
	sts := make([]AttemptStats, pol.MaxAttempts)
	for k := 0; k < len(targets); k++ {
		if pairs >= minPairs && min(outageEscaped, flapEscaped, flapEntered) >= minCases {
			break
		}
		pairs++
		ref := vms[k%len(vms)]
		vm, err := p.vm(ref)
		if err != nil {
			t.Fatal(err)
		}
		vmKey := uint64(vm.Cloud)<<16 | uint64(vm.Region)
		d := p.f.Dest(targets[k])
		t0 := inj.ScheduleSec(epoch, vmKey, d.IP)

		// Every attempt of the schedule, faulted or not, against a fresh trace.
		fresh := make([]Trace, pol.MaxAttempts)
		sc.target()
		tSec, backoff := t0, pol.BackoffSec
		for a := range sts {
			var status Status
			sc.hops, status, sts[a] = p.synthesize(sc, sc.hops, vm, d, tSec)
			want, wantSt, err := p.TracerouteAt(ref, d.IP, tSec)
			if err != nil {
				t.Fatal(err)
			}
			if status != want.Status || sts[a] != wantSt || !slices.Equal(sc.hops, want.Hops) {
				t.Fatalf("%s → %s attempt %d at t=%.3f: got %v %+v %v, fresh trace %v %+v %v",
					ref, d.IP, a+1, tSec, status, sts[a], sc.hops, want.Status, wantSt, want.Hops)
			}
			fresh[a] = want
			tSec += backoff
			backoff *= pol.BackoffFactor
		}
		later := sts[1:]
		if sts[0].Outage && slices.ContainsFunc(later, func(s AttemptStats) bool { return !s.Outage }) {
			outageEscaped++
		}
		if sts[0].Flapped && slices.ContainsFunc(later, func(s AttemptStats) bool { return !s.Flapped && !s.Outage }) {
			flapEscaped++
		}
		if !sts[0].Flapped && !sts[0].Outage && slices.ContainsFunc(later, func(s AttemptStats) bool { return s.Flapped }) {
			flapEntered++
		}

		// traceRetry stops at the first clean attempt and keeps the
		// earliest best-scoring one.
		var want CampaignStats
		best, n := 0, 0
		for n < pol.MaxAttempts && (n == 0 || sts[n-1].Faulted()) {
			want.observe(sts[n])
			if score(fresh[n].Hops, fresh[n].Status) > score(fresh[best].Hops, fresh[best].Status) {
				best = n
			}
			n++
		}
		var got CampaignStats
		status := p.traceRetry(nil, sc, vm, vmKey, d, pol, epoch, nil, &got)
		if status != fresh[best].Status || !slices.Equal(sc.best, fresh[best].Hops) {
			t.Fatalf("%s → %s: traceRetry kept %v %v, want attempt %d's %v %v",
				ref, d.IP, status, sc.best, best+1, fresh[best].Status, fresh[best].Hops)
		}
		if got.Probes != int64(n) || got.HopProbes != want.HopProbes || got.Lost != want.Lost ||
			got.RateLimited != want.RateLimited || got.Outages != want.Outages || got.Flapped != want.Flapped {
			t.Fatalf("%s → %s: traceRetry stats %+v, fresh attempts %+v over %d attempts", ref, d.IP, got, want, n)
		}
	}
	if min(outageEscaped, flapEscaped, flapEntered) < minCases {
		t.Fatalf("%d pairs gave %d outage escapes, %d flap escapes, %d flapped retries; want %d of each",
			pairs, outageEscaped, flapEscaped, flapEntered, minCases)
	}
	t.Logf("%d pairs: %d outage escapes, %d flap escapes, %d flapped retries", pairs, outageEscaped, flapEscaped, flapEntered)
}
