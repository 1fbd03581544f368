package faults

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudmap/internal/model"
	"cloudmap/internal/netblock"
	"cloudmap/internal/topo"
)

func testTopology(t *testing.T) *model.Topology {
	t.Helper()
	top, err := topo.Generate(topo.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return top
}

func moderatePlan() *Plan {
	return &Plan{
		Seed:      7,
		RateLimit: &RateLimitPlan{RouterFrac: 0.25, RatePPS: 50, Burst: 20, DemandPPS: 100},
		Loss:      &LossPlan{WindowSec: 30, WindowProb: 0.15, LossProb: 0.5},
		LinkFlaps: &LinkFlapPlan{WindowSec: 60, FlapProb: 0.03, DownFrac: 0.3},
		Outages:   &OutagePlan{WindowSec: 120, Prob: 0.02},
	}
}

// TestNilInjectorInjectsNothing pins the nil-receiver contract every caller
// relies on: no branching needed, nothing injected.
func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if v := in.ReplyVerdict(3, netblock.IP(0x0a000001), 1, 42); v != VerdictOK {
		t.Fatalf("nil injector verdict = %v, want ok", v)
	}
	if !in.LinkUp(1, 10) {
		t.Fatal("nil injector reports link down")
	}
	if !in.RegionUp(0, 1, 10) {
		t.Fatal("nil injector reports region down")
	}
	if got := in.ScheduleSec(1, 2, 3); got != 0 {
		t.Fatalf("nil injector schedule = %v, want 0", got)
	}
	if got := in.HorizonSec(); got != 0 {
		t.Fatalf("nil injector horizon = %v, want 0", got)
	}
}

// TestNewNilPlan pins that a nil plan yields a (valid) nil injector.
func TestNewNilPlan(t *testing.T) {
	in, err := New(nil, testTopology(t))
	if err != nil {
		t.Fatalf("New(nil): %v", err)
	}
	if in != nil {
		t.Fatal("New(nil) returned a non-nil injector")
	}
}

// TestDeterministicDecisions: two injectors built from the same plan and
// topology agree on every decision; a different plan seed disagrees
// somewhere.
func TestDeterministicDecisions(t *testing.T) {
	top := testTopology(t)
	a, err := New(moderatePlan(), top)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(moderatePlan(), top)
	if err != nil {
		t.Fatal(err)
	}
	other := moderatePlan()
	other.Seed = 99
	c, err := New(other, top)
	if err != nil {
		t.Fatal(err)
	}

	differs := false
	for i := 0; i < 5000; i++ {
		r := model.RouterID(i % len(top.Routers))
		dst := netblock.IP(0x0a000000 + uint32(i)*977)
		tSec := float64(i%600) + 0.25
		va := a.ReplyVerdict(r, dst, uint64(i), tSec)
		if vb := b.ReplyVerdict(r, dst, uint64(i), tSec); va != vb {
			t.Fatalf("same plan disagrees at i=%d: %v vs %v", i, va, vb)
		}
		if vc := c.ReplyVerdict(r, dst, uint64(i), tSec); va != vc {
			differs = true
		}
		if a.ScheduleSec(1, 7, dst) != b.ScheduleSec(1, 7, dst) {
			t.Fatalf("schedule disagrees at i=%d", i)
		}
	}
	if !differs {
		t.Fatal("different plan seeds produced identical verdicts over 5000 draws")
	}
}

// TestScheduleSpread: send times are spread over [0, VirtualSeconds) and
// epochs decorrelate.
func TestScheduleSpread(t *testing.T) {
	in, err := New(moderatePlan(), testTopology(t))
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	var sum float64
	sameEpochPairs := 0
	for i := 0; i < n; i++ {
		dst := netblock.IP(0x0a000000 + uint32(i))
		s1 := in.ScheduleSec(1, 0, dst)
		s2 := in.ScheduleSec(2, 0, dst)
		if s1 < 0 || s1 >= in.HorizonSec() {
			t.Fatalf("schedule %v outside [0,%v)", s1, in.HorizonSec())
		}
		if math.Abs(s1-s2) < 1e-9 {
			sameEpochPairs++
		}
		sum += s1
	}
	mean := sum / n
	if mean < 0.4*in.HorizonSec() || mean > 0.6*in.HorizonSec() {
		t.Fatalf("schedule mean %v not near horizon midpoint %v", mean, in.HorizonSec()/2)
	}
	if sameEpochPairs > 2 {
		t.Fatalf("%d targets landed at identical times across epochs; epochs are correlated", sameEpochPairs)
	}
}

// TestLossWindowSemantics: within one bursty window the same (router, dst,
// salt) draw is stable; the loss rate over many routers/windows is in the
// right ballpark (window_prob * loss_prob).
func TestLossWindowSemantics(t *testing.T) {
	top := testTopology(t)
	plan := &Plan{Seed: 3, Loss: &LossPlan{WindowSec: 30, WindowProb: 0.2, LossProb: 0.5}}
	in, err := New(plan, top)
	if err != nil {
		t.Fatal(err)
	}
	lost, total := 0, 0
	for i := 0; i < 20000; i++ {
		r := model.RouterID(i % len(top.Routers))
		dst := netblock.IP(0x0a000000 + uint32(i)*31)
		tSec := float64((i * 7) % 600)
		v := in.ReplyVerdict(r, dst, uint64(i), tSec)
		if v2 := in.ReplyVerdict(r, dst, uint64(i), tSec); v != v2 {
			t.Fatalf("verdict not stable within a window at i=%d", i)
		}
		total++
		if v == VerdictLost {
			lost++
		}
	}
	rate := float64(lost) / float64(total)
	want := 0.2 * 0.5
	if rate < want/2 || rate > want*2 {
		t.Fatalf("loss rate %.4f far from expected %.4f", rate, want)
	}
}

// TestLinkFlapWindowSemantics: a flapped link is down exactly for the head
// DownFrac of its window and up afterwards.
func TestLinkFlapWindowSemantics(t *testing.T) {
	top := testTopology(t)
	if len(top.Links) == 0 {
		t.Skip("no links in small topology")
	}
	plan := &Plan{Seed: 5, LinkFlaps: &LinkFlapPlan{WindowSec: 60, FlapProb: 0.5, DownFrac: 0.3}}
	in, err := New(plan, top)
	if err != nil {
		t.Fatal(err)
	}
	sawFlap := false
	for li := 0; li < len(top.Links) && li < 200; li++ {
		l := model.LinkID(li)
		for w := 0; w < 10; w++ {
			head := float64(w)*60 + 1  // inside DownFrac (0.3*60=18s)
			tail := float64(w)*60 + 30 // past the flap
			headUp := in.LinkUp(l, head)
			if !headUp {
				sawFlap = true
				if !in.LinkUp(l, tail) {
					t.Fatalf("link %d still down at tail of window %d", li, w)
				}
			} else if !in.LinkUp(l, float64(w)*60+2) {
				t.Fatalf("link %d down at +2s but up at +1s in window %d", li, w)
			}
		}
	}
	if !sawFlap {
		t.Fatal("no flap observed with flap_prob=0.5 over hundreds of windows")
	}
}

// TestValidateRejectsBadKnobs covers each section's range checks.
func TestValidateRejectsBadKnobs(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want string
	}{
		{"router_frac", Plan{RateLimit: &RateLimitPlan{RouterFrac: 1.5, RatePPS: 1, DemandPPS: 1}}, "router_frac"},
		{"rate_pps", Plan{RateLimit: &RateLimitPlan{RouterFrac: 0.5, RatePPS: 0, DemandPPS: 1}}, "rate_pps"},
		{"demand_pps", Plan{RateLimit: &RateLimitPlan{RouterFrac: 0.5, RatePPS: 1, DemandPPS: -1}}, "demand_pps"},
		{"burst", Plan{RateLimit: &RateLimitPlan{RouterFrac: 0.5, RatePPS: 1, DemandPPS: 1, Burst: -1}}, "burst"},
		{"loss_window", Plan{Loss: &LossPlan{WindowSec: 0, WindowProb: 0.1, LossProb: 0.1}}, "loss.window_sec"},
		{"loss_prob", Plan{Loss: &LossPlan{WindowSec: 1, WindowProb: 0.1, LossProb: 2}}, "loss.loss_prob"},
		{"flap_prob", Plan{LinkFlaps: &LinkFlapPlan{WindowSec: 1, FlapProb: -0.1}}, "flap_prob"},
		{"down_frac", Plan{LinkFlaps: &LinkFlapPlan{WindowSec: 1, FlapProb: 0.1, DownFrac: 1.1}}, "down_frac"},
		{"outage_window", Plan{Outages: &OutagePlan{WindowSec: -1, Prob: 0.1}}, "outages.window_sec"},
		{"outage_prob", Plan{Outages: &OutagePlan{WindowSec: 1, Prob: 7}}, "outages.prob"},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted bad plan", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name field %q", tc.name, err, tc.want)
		}
	}
	good := moderatePlan()
	if err := good.Validate(); err != nil {
		t.Fatalf("moderate plan rejected: %v", err)
	}
}

// TestParsePlanRejectsUnknownFields: a typoed knob must fail loudly.
func TestParsePlanRejectsUnknownFields(t *testing.T) {
	if _, err := ParsePlan([]byte(`{"seed": 1, "lossy": {}}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParsePlan([]byte(`{"seed": 1`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// TestPlanJSONRoundTrip: marshalling and reparsing a plan reproduces it.
func TestPlanJSONRoundTrip(t *testing.T) {
	orig := moderatePlan()
	raw, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePlan(raw)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	raw2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Fatalf("round trip changed plan:\n  %s\n  %s", raw, raw2)
	}
}

// TestLoadPlanFile: the shipped sample plan parses.
func TestLoadPlanFile(t *testing.T) {
	plan, err := LoadPlan(filepath.Join("..", "..", "testdata", "faultplans", "moderate.json"))
	if err != nil {
		t.Fatalf("load sample plan: %v", err)
	}
	if plan.RateLimit == nil || plan.Loss == nil || plan.LinkFlaps == nil || plan.Outages == nil {
		t.Fatal("sample plan missing sections")
	}
	if _, err := os.Stat(filepath.Join("..", "..", "testdata", "faultplans")); err != nil {
		t.Fatal(err)
	}
}

// TestRoleScopedRateLimit: limiting only border routers leaves other roles
// unlimited.
func TestRoleScopedRateLimit(t *testing.T) {
	top := testTopology(t)
	plan := moderatePlan()
	plan.RateLimit.RouterFrac = 1.0
	plan.RateLimit.Roles = []string{"border"}
	plan.Loss = nil
	in, err := New(plan, top)
	if err != nil {
		t.Fatal(err)
	}
	for ri := range top.Routers {
		r := &top.Routers[ri]
		limited := in.limited[ri]
		if r.Role == model.RoleBorder && !limited {
			t.Fatalf("border router %d not limited with frac=1", ri)
		}
		if r.Role != model.RoleBorder && limited {
			t.Fatalf("non-border router %d (role %v) limited under border-only scope", ri, r.Role)
		}
	}
	plan.RateLimit.Roles = []string{"no-such-role"}
	if _, err := New(plan, top); err == nil {
		t.Fatal("unknown role accepted")
	}
}
