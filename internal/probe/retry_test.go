package probe

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"cloudmap/internal/faults"
	"cloudmap/internal/netblock"
	"cloudmap/internal/obs"
	"cloudmap/internal/rng"
	"cloudmap/internal/route"
)

func moderateTestPlan() *faults.Plan {
	return &faults.Plan{
		Seed:      7,
		RateLimit: &faults.RateLimitPlan{RouterFrac: 0.25, RatePPS: 50, Burst: 20, DemandPPS: 100},
		Loss:      &faults.LossPlan{WindowSec: 30, WindowProb: 0.15, LossProb: 0.5},
		LinkFlaps: &faults.LinkFlapPlan{WindowSec: 60, FlapProb: 0.03, DownFrac: 0.3},
		Outages:   &faults.OutagePlan{WindowSec: 120, Prob: 0.02},
	}
}

func fingerprintTraces(ts []Trace) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, tr := range ts {
		h = rng.Mix64(h ^ uint64(tr.Dst))
		h = rng.Mix64(h ^ uint64(tr.Status))
		for _, hop := range tr.Hops {
			h = rng.Mix64(h ^ uint64(hop.Addr))
		}
	}
	return h
}

// TestCampaignParallelMatchesSequential: the chunked retry engine with a
// single-attempt policy produces exactly the serial Campaign's trace stream,
// hop for hop, at one worker and at four.
func TestCampaignParallelMatchesSequential(t *testing.T) {
	tp, p := newProber(t)
	targets := Round1Targets(tp, Round1Options{})[:2500] // three chunks per VM
	vms := p.VMs("amazon")[:2]

	var seq []Trace
	if err := p.Campaign(vms, targets, func(tr Trace) { seq = append(seq, tr) }); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		var par []Trace
		if _, err := p.CampaignRetryCtx(context.Background(), vms, targets, workers, RetryPolicy{}, 1, func(tr Trace) { par = append(par, tr) }); err != nil {
			t.Fatal(err)
		}
		if len(seq) != len(par) {
			t.Fatalf("workers=%d: retry campaign produced %d traces, serial %d", workers, len(par), len(seq))
		}
		for i := range seq {
			a, b := seq[i], par[i]
			if a.Src != b.Src || a.Dst != b.Dst || a.Status != b.Status || !slices.Equal(a.Hops, b.Hops) {
				t.Fatalf("workers=%d: trace %d differs from the serial campaign", workers, i)
			}
		}
	}
}

// TestCampaignRetryNoFaultsMatchesPlain: with a nil injector and a
// single-attempt policy, the retry engine produces the same trace stream as
// the plain serial campaign, and its stats carry only probe counts.
func TestCampaignRetryNoFaultsMatchesPlain(t *testing.T) {
	tp, p := newProber(t)
	targets := Round1Targets(tp, Round1Options{})[:600]
	vms := p.VMs("amazon")[:3]

	var plain []Trace
	if err := p.Campaign(vms, targets, func(tr Trace) { plain = append(plain, tr) }); err != nil {
		t.Fatal(err)
	}
	var viaRetry []Trace
	stats, err := p.CampaignRetryCtx(context.Background(), vms, targets, 4, RetryPolicy{}, 1, func(tr Trace) { viaRetry = append(viaRetry, tr) })
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(viaRetry) || fingerprintTraces(plain) != fingerprintTraces(viaRetry) {
		t.Fatal("fault-free retry campaign differs from the plain campaign")
	}
	if stats.Degraded() {
		t.Fatalf("fault-free campaign reports degradation: %+v", stats)
	}
	if stats.Retries != 0 || stats.Lost != 0 || stats.RateLimited != 0 {
		t.Fatalf("fault-free campaign has fault stats: %+v", stats)
	}
	if stats.Targets != int64(len(plain)) {
		t.Fatalf("stats.Targets = %d, want %d", stats.Targets, len(plain))
	}
}

// TestCampaignRetryWorkerInvariance: under a moderate fault plan with
// retries, the trace stream AND the stats are identical for 1, 2, and 8
// workers.
func TestCampaignRetryWorkerInvariance(t *testing.T) {
	tp, p := newProber(t)
	inj, err := faults.New(moderateTestPlan(), tp)
	if err != nil {
		t.Fatal(err)
	}
	p.SetFaults(inj)
	targets := Round1Targets(tp, Round1Options{})[:1500] // spans >1 chunk
	vms := p.VMs("amazon")[:2]
	pol := RetryPolicy{MaxAttempts: 3, BackoffSec: 1, BackoffFactor: 2, Budget: 500}

	run := func(workers int) ([]Trace, CampaignStats) {
		var out []Trace
		stats, err := p.CampaignRetryCtx(context.Background(), vms, targets, workers, pol, 1, func(tr Trace) { out = append(out, tr) })
		if err != nil {
			t.Fatal(err)
		}
		return out, stats
	}
	t1, s1 := run(1)
	t2, s2 := run(2)
	t8, s8 := run(8)
	if fingerprintTraces(t1) != fingerprintTraces(t2) || fingerprintTraces(t1) != fingerprintTraces(t8) {
		t.Fatal("trace stream depends on worker count")
	}
	if s1.Retries != s2.Retries || s1.Retries != s8.Retries ||
		s1.Lost != s2.Lost || s1.Lost != s8.Lost ||
		s1.RateLimited != s2.RateLimited || s1.RateLimited != s8.RateLimited ||
		s1.HopProbes != s2.HopProbes || s1.HopProbes != s8.HopProbes {
		t.Fatalf("stats depend on worker count:\n  w1 %+v\n  w2 %+v\n  w8 %+v", s1, s2, s8)
	}
	if !s1.Degraded() {
		t.Fatalf("moderate plan produced no degradation: %+v", s1)
	}
	if s1.Retries == 0 {
		t.Fatal("no retries spent under a moderate plan")
	}
}

// TestCampaignRetryBudgetFailSoft: a tiny budget is exhausted, flagged, and
// the campaign still delivers every trace.
func TestCampaignRetryBudgetFailSoft(t *testing.T) {
	tp, p := newProber(t)
	inj, err := faults.New(moderateTestPlan(), tp)
	if err != nil {
		t.Fatal(err)
	}
	p.SetFaults(inj)
	targets := Round1Targets(tp, Round1Options{})[:1200]
	vms := p.VMs("amazon")[:2]
	pol := RetryPolicy{MaxAttempts: 4, BackoffSec: 1, BackoffFactor: 2, Budget: 3}

	var n int
	stats, err := p.CampaignRetryCtx(context.Background(), vms, targets, 4, pol, 1, func(Trace) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	if n != len(targets)*len(vms) {
		t.Fatalf("delivered %d traces, want %d (budget exhaustion must fail soft)", n, len(targets)*len(vms))
	}
	if !stats.BudgetExhausted {
		t.Fatalf("budget of 3 not reported exhausted: %+v", stats)
	}
	if stats.Retries > pol.Budget {
		t.Fatalf("spent %d retries over budget %d", stats.Retries, pol.Budget)
	}
}

// TestRetryImprovesRecovery: with faults on, allowing retries yields at
// least as many responsive hops as probing once, and strictly more
// somewhere (the retry policy must be worth its probes).
func TestRetryImprovesRecovery(t *testing.T) {
	tp, p := newProber(t)
	inj, err := faults.New(moderateTestPlan(), tp)
	if err != nil {
		t.Fatal(err)
	}
	p.SetFaults(inj)
	targets := Round1Targets(tp, Round1Options{})[:1500]
	vms := p.VMs("amazon")[:2]

	responsive := func(pol RetryPolicy) int {
		total := 0
		_, err := p.CampaignRetryCtx(context.Background(), vms, targets, 4, pol, 1, func(tr Trace) {
			for _, h := range tr.Hops {
				if h.Responsive() {
					total++
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	once := responsive(RetryPolicy{MaxAttempts: 1})
	retried := responsive(RetryPolicy{MaxAttempts: 3, BackoffSec: 1, BackoffFactor: 2})
	if retried <= once {
		t.Fatalf("retries recovered nothing: %d responsive hops once vs %d with retries", once, retried)
	}
}

// TestAttemptStatsClassification: the stats distinguish lost, rate-limited,
// outage, and flap events rather than lumping them together.
func TestAttemptStatsClassification(t *testing.T) {
	tp, p := newProber(t)
	inj, err := faults.New(moderateTestPlan(), tp)
	if err != nil {
		t.Fatal(err)
	}
	p.SetFaults(inj)
	targets := Round1Targets(tp, Round1Options{})[:2000]
	vms := p.VMs("amazon")

	stats, err := p.CampaignRetryCtx(context.Background(), vms, targets, 8, RetryPolicy{MaxAttempts: 2, BackoffSec: 1, BackoffFactor: 2}, 1, func(Trace) {})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Lost == 0 {
		t.Error("no probes classified lost under a loss plan")
	}
	if stats.RateLimited == 0 {
		t.Error("no probes classified rate-limited under a rate-limit plan")
	}
	if stats.Outages == 0 {
		t.Error("no outage attempts under an outage plan")
	}
	if len(stats.Attempts) == 0 || stats.Attempts[0] == 0 {
		t.Errorf("attempts histogram empty: %v", stats.Attempts)
	}
	var attempts int64
	for i, n := range stats.Attempts {
		attempts += int64(i+1) * n
	}
	if attempts != stats.Probes {
		t.Errorf("attempts histogram sums to %d probes, stats say %d", attempts, stats.Probes)
	}
}

// TestPingCacheConcurrent is the -race regression test for the pingCache
// data race: Ping and AliasProbeAt hit the cache from campaign worker
// goroutines concurrently.
func TestPingCacheConcurrent(t *testing.T) {
	tp, p := newProber(t)
	targets := Round1Targets(tp, Round1Options{})[:64]
	vms := p.VMs("amazon")[:4]

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, dst := range targets {
				vm := vms[(w+i)%len(vms)]
				if w%2 == 0 {
					p.Ping(vm, dst, 3)
				} else {
					p.AliasProbeAt(vm, dst, float64(i))
				}
			}
		}(w)
	}
	wg.Wait()

	// The cache must agree with a fresh, uncontended prober.
	_, fresh := newProber(t)
	for _, dst := range targets[:8] {
		gotRTT, gotOK := p.Ping(vms[0], dst, 3)
		wantRTT, wantOK := fresh.Ping(vms[0], dst, 3)
		if gotOK != wantOK || gotRTT != wantRTT {
			t.Fatalf("cached ping %v/%v differs from fresh %v/%v for %s", gotRTT, gotOK, wantRTT, wantOK, dst)
		}
	}
}

// TestTracerouteAtZeroMatchesTraceroute: the virtual-time plumbing must not
// disturb the fault-free path.
func TestTracerouteAtZeroMatchesTraceroute(t *testing.T) {
	_, p := newProber(t)
	vm := VMRef{Cloud: "amazon", Region: 0}
	for i := 0; i < 200; i++ {
		dst := netblock.IP(0x40000001 + uint32(i)*4099)
		a, err := p.Traceroute(vm, dst)
		if err != nil {
			t.Fatal(err)
		}
		b, st, err := p.TracerouteAt(vm, dst, 123.456)
		if err != nil {
			t.Fatal(err)
		}
		if st.Faulted() {
			t.Fatalf("fault-free TracerouteAt reports faults: %+v", st)
		}
		if fingerprintTraces([]Trace{a}) != fingerprintTraces([]Trace{b}) {
			t.Fatalf("TracerouteAt(t=123.456) differs from Traceroute for %s without an injector", dst)
		}
	}
}

// TestCampaignRetryChunkErrorReturns: failing chunks (here, from unknown
// clouds) end the campaign with the first failing chunk's error in campaign
// order, whichever worker reports first. The chunks after it are healthy,
// so the other workers run ahead until the delivery window is full; the
// campaign must release them rather than wait forever.
func TestCampaignRetryChunkErrorReturns(t *testing.T) {
	tp, p := newProber(t)
	targets := Round1Targets(tp, Round1Options{})[:campaignChunk] // one chunk per VM
	amazon := p.VMs("amazon")
	vms := append([]VMRef{amazon[0], {Cloud: "nimbus", Region: 0}, amazon[1], {Cloud: "stratus", Region: 0}}, amazon[2:]...)
	for _, workers := range []int{1, 3, 8} {
		var delivered int
		_, err := p.CampaignRetryCtx(context.Background(), vms, targets, workers, RetryPolicy{}, 0, func(Trace) { delivered++ })
		if err == nil {
			t.Fatalf("workers=%d: campaign over an unknown cloud succeeded", workers)
		}
		if !strings.Contains(err.Error(), "nimbus") {
			t.Fatalf("workers=%d: err = %v, want the first unknown cloud (nimbus)", workers, err)
		}
		if want := len(targets); delivered != want {
			t.Fatalf("workers=%d: delivered %d traces before the failing chunk, want %d", workers, delivered, want)
		}
	}
}

// stubExecutor serves even-indexed chunks from its own prober and declines
// odd ones, recording the budget share each call receives. failAt, when
// non-negative, names a chunk whose call fails instead.
type stubExecutor struct {
	p      *Prober
	failAt int

	mu      sync.Mutex
	budgets map[int]int64
}

var errStubExecutor = errors.New("stub executor: cancelled")

func (s *stubExecutor) RunChunk(ctx context.Context, sp *obs.Span, wc WorkChunk, targets []netblock.IP, pol RetryPolicy, epoch uint64, budget int64) ([]Trace, CampaignStats, bool, error) {
	s.mu.Lock()
	s.budgets[wc.Index] = budget
	s.mu.Unlock()
	switch {
	case wc.Index == s.failAt:
		return nil, CampaignStats{}, false, errStubExecutor
	case wc.Index%2 == 1:
		return nil, CampaignStats{}, false, nil
	}
	traces, cs, err := s.p.RunChunkObs(ctx, sp, wc, targets, pol, epoch, budget, 0)
	return traces, cs, err == nil, err
}

// TestCampaignChunkExecutor: the remote-executor seam. Chunks served by a
// second prober over the same world and chunks declined back to the local
// engine merge into exactly the nil-executor campaign, at one worker and
// at four; every call receives its chunk's budget share; and an executor
// error ends the campaign with that error.
func TestCampaignChunkExecutor(t *testing.T) {
	tp, p := newProber(t)
	remote := NewProber(tp, route.NewForwarder(tp))
	for _, pr := range []*Prober{p, remote} {
		inj, err := faults.New(moderateTestPlan(), tp)
		if err != nil {
			t.Fatal(err)
		}
		pr.SetFaults(inj)
	}
	targets := Round1Targets(tp, Round1Options{})[:2500] // three chunks per VM
	vms := p.VMs("amazon")[:2]
	pol := RetryPolicy{MaxAttempts: 3, BackoffSec: 1, BackoffFactor: 2, Budget: 101}
	n := len(ChunkCampaign(vms, targets))

	run := func(ex ChunkExecutor, workers int) ([]Trace, CampaignStats, error) {
		var out []Trace
		stats, err := p.CampaignRetryObsCtx(context.Background(), nil, nil, ex, vms, targets, workers, pol, 1, func(tr Trace) { out = append(out, tr) })
		return out, stats, err
	}
	want, wantStats, err := run(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		ex := &stubExecutor{p: remote, failAt: -1, budgets: map[int]int64{}}
		got, stats, err := run(ex, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(stats, wantStats) {
			t.Fatalf("workers=%d: executor campaign differs from the local one", workers)
		}
		if len(ex.budgets) != n {
			t.Fatalf("workers=%d: executor saw %d of %d chunks", workers, len(ex.budgets), n)
		}
		for i := 0; i < n; i++ {
			if b, want := ex.budgets[i], ChunkRetryBudget(pol.Budget, n, i); b != want {
				t.Errorf("workers=%d: chunk %d got budget %d, want %d", workers, i, b, want)
			}
		}
	}
	const k = 3
	_, _, err = run(&stubExecutor{p: remote, failAt: k, budgets: map[int]int64{}}, 4)
	if !errors.Is(err, errStubExecutor) {
		t.Fatalf("executor failing chunk %d: campaign err = %v, want %v", k, err, errStubExecutor)
	}
}
