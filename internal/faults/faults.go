// Package faults is the deterministic fault-injection fabric layered under
// the measurement plane. The paper's campaigns run against the real
// Internet, where ICMP rate limiting, bursty loss, route flaps, and
// transient outages are the norm — traIXroute-style hop annotation and the
// §3 stopping rule exist precisely because replies are unreliable. This
// package reproduces that adversity inside the simulator so the inference
// pipeline can be studied (and regression-tested) under realistic
// measurement conditions.
//
// Everything is seed-driven and replayable: a fault is a pure function of
// (plan seed ⊕ topology seed, entity, virtual-time window, probe identity),
// never of wall-clock time or evaluation order. Two runs with the same seed
// and the same plan produce byte-identical campaigns regardless of worker
// count — the same invariance contract the parallel campaign engine already
// honours, extended to the fault layer.
//
// The rate limiter deserves a note: a real token bucket is stateful and
// order-dependent, but campaign workers probe chunks out of order, so any
// mutable bucket would make results depend on goroutine scheduling. The
// limiter here is a fluid approximation: per (router, one-second window)
// the bucket admits replies with probability rate/demand (plus a burst
// allowance in windows the router was idle), drawn deterministically per
// probe. Aggregate behaviour matches a token bucket under Poisson load;
// individual admissions are reproducible.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"cloudmap/internal/model"
	"cloudmap/internal/netblock"
	"cloudmap/internal/rng"
)

// Plan configures the fault model. The zero plan injects nothing; sections
// are enabled by presence. Plans are plain JSON documents (see
// testdata/faultplans in the repository root for a worked example) so
// campaigns can be re-run under a recorded adversity profile.
type Plan struct {
	// Seed is mixed with the topology seed so the same plan produces
	// different (but individually reproducible) fault timelines across
	// simulated worlds.
	Seed uint64 `json:"seed"`
	// VirtualSeconds is the virtual duration of one probing round: probe
	// send times are spread deterministically over [0, VirtualSeconds) and
	// every fault window is expressed in that clock. Defaults to 600.
	VirtualSeconds float64 `json:"virtual_seconds,omitempty"`

	RateLimit *RateLimitPlan `json:"rate_limit,omitempty"`
	Loss      *LossPlan      `json:"loss,omitempty"`
	LinkFlaps *LinkFlapPlan  `json:"link_flaps,omitempty"`
	Outages   *OutagePlan    `json:"outages,omitempty"`
}

// RateLimitPlan models per-router ICMP rate limiting (the fluid token
// bucket described in the package comment).
type RateLimitPlan struct {
	// RouterFrac is the fraction of routers that enforce a limiter; which
	// routers is a stable per-router draw.
	RouterFrac float64 `json:"router_frac"`
	// RatePPS and Burst parameterise each limiter: sustained replies per
	// second plus a burst allowance spent in windows following idle ones.
	RatePPS float64 `json:"rate_pps"`
	Burst   float64 `json:"burst"`
	// DemandPPS is the aggregate ICMP demand a limited router sees during
	// the campaign (our probes plus background scanners); admission
	// probability is rate/demand.
	DemandPPS float64 `json:"demand_pps"`
	// Roles, when non-empty, scopes limiters to routers of the named roles
	// ("internal", "backbone", "border", "vm-gateway"); empty means every
	// router is eligible.
	Roles []string `json:"roles,omitempty"`
}

// LossPlan models bursty loss: virtual time divides into windows, some
// windows turn bursty per router, and probes inside a bursty window are
// dropped with LossProb.
type LossPlan struct {
	WindowSec  float64 `json:"window_sec"`
	WindowProb float64 `json:"window_prob"`
	LossProb   float64 `json:"loss_prob"`
}

// LinkFlapPlan models transient interconnection-link flaps: in each window
// a link flaps with FlapProb and stays down for the first DownFrac of the
// window, dropping everything forwarded across it.
type LinkFlapPlan struct {
	WindowSec float64 `json:"window_sec"`
	FlapProb  float64 `json:"flap_prob"`
	DownFrac  float64 `json:"down_frac"`
}

// OutagePlan models whole-region VM outages: per cloud region, each window
// is an outage with Prob. Probes from a dead region are never sent.
type OutagePlan struct {
	WindowSec float64 `json:"window_sec"`
	Prob      float64 `json:"prob"`
}

// withDefaults fills unset knobs.
func (p Plan) withDefaults() Plan {
	if p.VirtualSeconds <= 0 {
		p.VirtualSeconds = 600
	}
	return p
}

// Validate rejects out-of-range knobs with a field-specific error.
func (p *Plan) Validate() error {
	checkProb := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("faults: %s = %v out of [0,1]", name, v)
		}
		return nil
	}
	checkPos := func(name string, v float64) error {
		if v <= 0 {
			return fmt.Errorf("faults: %s = %v must be positive", name, v)
		}
		return nil
	}
	if p.VirtualSeconds < 0 {
		return fmt.Errorf("faults: virtual_seconds = %v must be positive", p.VirtualSeconds)
	}
	if rl := p.RateLimit; rl != nil {
		if err := checkProb("rate_limit.router_frac", rl.RouterFrac); err != nil {
			return err
		}
		if err := checkPos("rate_limit.rate_pps", rl.RatePPS); err != nil {
			return err
		}
		if err := checkPos("rate_limit.demand_pps", rl.DemandPPS); err != nil {
			return err
		}
		if rl.Burst < 0 {
			return fmt.Errorf("faults: rate_limit.burst = %v must be non-negative", rl.Burst)
		}
	}
	if l := p.Loss; l != nil {
		if err := checkPos("loss.window_sec", l.WindowSec); err != nil {
			return err
		}
		if err := checkProb("loss.window_prob", l.WindowProb); err != nil {
			return err
		}
		if err := checkProb("loss.loss_prob", l.LossProb); err != nil {
			return err
		}
	}
	if f := p.LinkFlaps; f != nil {
		if err := checkPos("link_flaps.window_sec", f.WindowSec); err != nil {
			return err
		}
		if err := checkProb("link_flaps.flap_prob", f.FlapProb); err != nil {
			return err
		}
		if err := checkProb("link_flaps.down_frac", f.DownFrac); err != nil {
			return err
		}
	}
	if o := p.Outages; o != nil {
		if err := checkPos("outages.window_sec", o.WindowSec); err != nil {
			return err
		}
		if err := checkProb("outages.prob", o.Prob); err != nil {
			return err
		}
	}
	return nil
}

// LoadPlan reads and validates a JSON plan file (the -fault-plan flag).
// Unknown fields are rejected so a typoed knob fails loudly instead of
// silently injecting nothing.
func LoadPlan(path string) (*Plan, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faults: read plan: %w", err)
	}
	return ParsePlan(raw)
}

// ParsePlan decodes and validates a JSON plan document.
func ParsePlan(raw []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faults: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Verdict classifies what the fault layer did to one reply.
type Verdict uint8

// Reply verdicts.
const (
	// VerdictOK: the fault layer let the reply through.
	VerdictOK Verdict = iota
	// VerdictLost: the reply (or probe) fell into a bursty-loss window.
	VerdictLost
	// VerdictRateLimited: the router's ICMP limiter dropped the reply.
	VerdictRateLimited
)

// String names the verdict for logs and error messages.
func (v Verdict) String() string {
	switch v {
	case VerdictOK:
		return "ok"
	case VerdictLost:
		return "lost"
	case VerdictRateLimited:
		return "rate-limited"
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// Injector evaluates a Plan against a topology. It is stateless, so it is
// safe for concurrent use and its decisions are independent of evaluation
// order. It keeps no counters: the prober counts what it did to each
// attempt (probe.AttemptStats). A nil *Injector is valid and injects
// nothing — callers never need to branch.
type Injector struct {
	plan Plan
	seed uint64

	// limited marks routers enforcing an ICMP rate limiter (stable draw).
	limited []bool
	// admitProb / burstAdmitProb are the fluid-bucket admission
	// probabilities for steady and post-idle windows.
	admitProb, burstAdmitProb float64
}

// New builds an injector for the plan over the topology. The plan is
// validated; nil plans yield a nil injector (inject nothing).
func New(plan *Plan, t *model.Topology) (*Injector, error) {
	if plan == nil {
		return nil, nil
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{plan: plan.withDefaults(), seed: plan.Seed ^ t.Seed ^ 0xfa017c0de}
	if rl := in.plan.RateLimit; rl != nil {
		eligible := func(model.RouterRole) bool { return true }
		if len(rl.Roles) > 0 {
			roles := make(map[model.RouterRole]bool, len(rl.Roles))
			for _, name := range rl.Roles {
				role, err := model.ParseRouterRole(name)
				if err != nil {
					return nil, fmt.Errorf("faults: rate_limit.roles: %w", err)
				}
				roles[role] = true
			}
			eligible = func(r model.RouterRole) bool { return roles[r] }
		}
		in.limited = make([]bool, len(t.Routers))
		for ri := range t.Routers {
			in.limited[ri] = eligible(t.Routers[ri].Role) &&
				rng.Unit(in.hash(uint64(ri), saltLimited)) < rl.RouterFrac
		}
		in.admitProb = math.Min(1, rl.RatePPS/rl.DemandPPS)
		in.burstAdmitProb = math.Min(1, (rl.RatePPS+rl.Burst)/rl.DemandPPS)
	}
	return in, nil
}

// Draw salts: every fault dimension hashes with its own salt so draws never
// correlate across dimensions.
const (
	saltLimited   = 0xa11ce
	saltRateAdmit = 0xbc4e7
	saltIdle      = 0x1d1e
	saltLossWin   = 0x10ca1
	saltLossDrop  = 0xd0d0
	saltFlap      = 0xf1a9
	saltOutage    = 0x07a9e
	saltSchedule  = 0x5c4ed
)

// HorizonSec is the virtual duration of one probing round.
func (in *Injector) HorizonSec() float64 {
	if in == nil {
		return 0
	}
	return in.plan.VirtualSeconds
}

// ScheduleSec places one probe target deterministically on the virtual
// clock: the send time is a stable hash of (epoch, vantage, destination)
// spread uniformly over the round's horizon. Retries add their backoff on
// top of this base time.
func (in *Injector) ScheduleSec(epoch uint64, vm uint64, dst netblock.IP) float64 {
	if in == nil {
		return 0
	}
	return rng.Unit(in.hash(saltSchedule, epoch, vm, uint64(dst))) * in.plan.VirtualSeconds
}

// ReplyVerdict decides whether a router's reply to one probe survives the
// fault layer at virtual time tSec. salt distinguishes probes with the same
// (router, destination) — hop index, attempt, vantage.
func (in *Injector) ReplyVerdict(r model.RouterID, dst netblock.IP, salt uint64, tSec float64) Verdict {
	if in == nil {
		return VerdictOK
	}
	if l := in.plan.Loss; l != nil {
		w := window(tSec, l.WindowSec)
		if rng.Unit(in.hash(saltLossWin, uint64(r), w)) < l.WindowProb &&
			rng.Unit(in.hash(saltLossDrop, uint64(r), uint64(dst), salt, w)) < l.LossProb {
			return VerdictLost
		}
	}
	if in.plan.RateLimit != nil && in.limited[r] {
		w := window(tSec, 1)
		admit := in.admitProb
		// Burst allowance: a window following an idle one starts with a
		// full bucket. Idleness is itself a stable draw — the router's
		// background demand fluctuates.
		if rng.Unit(in.hash(saltIdle, uint64(r), w-1)) < 0.2 {
			admit = in.burstAdmitProb
		}
		if rng.Unit(in.hash(saltRateAdmit, uint64(r), uint64(dst), salt, w)) >= admit {
			return VerdictRateLimited
		}
	}
	return VerdictOK
}

// LinkUp reports whether an interconnection link is forwarding at tSec.
func (in *Injector) LinkUp(l model.LinkID, tSec float64) bool {
	if in == nil {
		return true
	}
	f := in.plan.LinkFlaps
	if f == nil {
		return true
	}
	w := window(tSec, f.WindowSec)
	if rng.Unit(in.hash(saltFlap, uint64(l), w)) >= f.FlapProb {
		return true
	}
	// The flap occupies the head of the window.
	frac := tSec/f.WindowSec - float64(w)
	return frac >= f.DownFrac
}

// RegionUp reports whether a cloud region's probing VMs are alive at tSec.
func (in *Injector) RegionUp(c model.CloudID, region int, tSec float64) bool {
	if in == nil {
		return true
	}
	o := in.plan.Outages
	if o == nil {
		return true
	}
	w := window(tSec, o.WindowSec)
	return rng.Unit(in.hash(saltOutage, uint64(c)<<16|uint64(region), w)) >= o.Prob
}

// window maps a virtual time onto its window index (window 0 for t<=0).
func window(tSec, windowSec float64) uint64 {
	if tSec <= 0 || windowSec <= 0 {
		return 0
	}
	return uint64(tSec / windowSec)
}

func (in *Injector) hash(parts ...uint64) uint64 {
	h := in.seed
	for _, v := range parts {
		h = rng.Mix64(h ^ v)
	}
	return h
}
