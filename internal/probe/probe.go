// Package probe implements the measurement plane: scamper-style UDP
// traceroutes, ICMP pings and min-RTT campaigns, alias-resolution probes
// (IP-ID sampling), and reachability probes from the external vantage point.
//
// The types exported here — Trace, Hop, VMRef — are the only view of the
// network the inference pipeline gets. They deliberately contain no
// references to ground-truth entities: a hop is an address and an RTT,
// exactly as in real traceroute output.
package probe

import (
	"fmt"
	"math"
	"sync"

	"cloudmap/internal/faults"
	"cloudmap/internal/model"
	"cloudmap/internal/netblock"
	"cloudmap/internal/rng"
	"cloudmap/internal/route"
)

// VMRef identifies a probing vantage point: a VM in a cloud region.
type VMRef struct {
	Cloud  string // "amazon", "microsoft", ...
	Region int
}

func (v VMRef) String() string { return fmt.Sprintf("%s/%d", v.Cloud, v.Region) }

// Hop is one traceroute hop. Addr is zero for an unresponsive hop.
type Hop struct {
	Addr  netblock.IP
	RTTms float64
}

// Responsive reports whether the hop replied.
func (h Hop) Responsive() bool { return h.Addr != netblock.Zero }

// Status describes how a traceroute terminated, mirroring scamper's stop
// reasons (§3 keys off these flags).
type Status uint8

// Traceroute termination reasons.
const (
	// StatusCompleted: the destination answered.
	StatusCompleted Status = iota
	// StatusGapLimit: five consecutive unresponsive hops.
	StatusGapLimit
	// StatusLoop: an IP-level loop was detected.
	StatusLoop
)

// Trace is one traceroute measurement.
type Trace struct {
	Src    VMRef
	Dst    netblock.IP
	Hops   []Hop
	Status Status
}

// gapLimit is the scamper -g setting used by the paper: probing stops after
// five consecutive unresponsive hops.
const gapLimit = 5

// Prober issues measurements against a simulated topology. It is the only
// component that touches ground truth; its outputs are measurement data.
type Prober struct {
	t *model.Topology
	f *route.Forwarder

	seed uint64
	// replyAddr holds, per router, the loopback address its ICMP replies
	// are always sourced from, or Zero when replies carry the incoming
	// interface (see alwaysLoopback).
	replyAddr []netblock.IP

	// loopProb injects rare forwarding-loop artefacts; thirdPartyFrac is
	// the fraction of routers that always reply with a default (loopback)
	// interface instead of the incoming one — the third-party-address
	// behaviour discussed in §9 (cf. Luckie et al., PAM 2014).
	loopProb       float64
	thirdPartyFrac float64

	// pingCache memoises reachability for ping/alias campaigns. Guarded by
	// cacheMu: ping and alias probes run from campaign worker goroutines.
	cacheMu   sync.Mutex
	pingCache map[pingKey]pingInfo

	// inj, when non-nil, applies every fault: reply-level rate limiting and
	// bursty loss, region outages, and link flaps, which cut a forwarder
	// path where it crosses the flapped link. The forwarder is fault-free.
	inj *faults.Injector

	// tracers recycles synthesis scratch across TracerouteAt calls.
	tracers sync.Pool
}

// NewProber builds a prober over the topology.
func NewProber(t *model.Topology, f *route.Forwarder) *Prober {
	p := &Prober{
		t:              t,
		f:              f,
		seed:           t.Seed ^ 0xabcdef1234567890,
		replyAddr:      make([]netblock.IP, len(t.Routers)),
		loopProb:       0.002,
		thirdPartyFrac: 0.04,
	}
	p.tracers.New = func() any { return new(tracer) }
	for ri := range t.Routers {
		if !p.alwaysLoopback(model.RouterID(ri)) {
			continue
		}
		for _, ifc := range t.Routers[ri].Ifaces {
			if t.Ifaces[ifc].Kind == model.IfLoopback {
				p.replyAddr[ri] = t.Ifaces[ifc].Addr
				break
			}
		}
	}
	return p
}

// Forwarder exposes the underlying forwarding plane (used by evaluation
// code, never by inference).
func (p *Prober) Forwarder() *route.Forwarder { return p.f }

// SetFaults installs a fault injector. A nil injector restores fault-free
// probing. Call before probing starts — the injector is read without
// synchronisation.
func (p *Prober) SetFaults(inj *faults.Injector) { p.inj = inj }

// vm resolves a VMRef against the topology.
func (p *Prober) vm(ref VMRef) (route.VM, error) {
	c, ok := p.t.CloudByName(ref.Cloud)
	if !ok {
		return route.VM{}, fmt.Errorf("probe: unknown cloud %q", ref.Cloud)
	}
	if ref.Region < 0 || ref.Region >= len(c.Regions) {
		return route.VM{}, fmt.Errorf("probe: cloud %q has no region %d", ref.Cloud, ref.Region)
	}
	return route.VM{Cloud: c.ID, Region: ref.Region}, nil
}

// VMs returns one VMRef per region of the named cloud.
func (p *Prober) VMs(cloud string) []VMRef {
	c, ok := p.t.CloudByName(cloud)
	if !ok {
		return nil
	}
	out := make([]VMRef, len(c.Regions))
	for i := range c.Regions {
		out[i] = VMRef{Cloud: cloud, Region: i}
	}
	return out
}

func (p *Prober) hash(parts ...uint64) uint64 {
	h := p.seed
	for _, v := range parts {
		h = rng.Mix64(h ^ v)
	}
	return h
}

// alwaysLoopback reports whether a router's ICMP replies are sourced from
// its loopback (a stable per-router behaviour, tabulated in replyAddr).
func (p *Prober) alwaysLoopback(r model.RouterID) bool {
	return rng.Unit(p.hash(uint64(r), 0x3333)) < p.thirdPartyFrac
}

// responds decides whether a router answers a given probe. The draw is
// deterministic per (router, destination, vantage, attempt) so campaigns are
// reproducible, while still varying across destinations like real ICMP
// generation does.
func (p *Prober) responds(r *model.Router, dst netblock.IP, vm route.VM, attempt int) bool {
	as := &p.t.ASes[r.AS]
	h := p.hash(uint64(r.ID), uint64(dst), uint64(vm.Cloud)<<16|uint64(vm.Region), uint64(attempt))
	return rng.Unit(h) < as.RespProb
}

// jitter returns a small positive queueing delay (ms).
func (p *Prober) jitter(h uint64) float64 {
	u := rng.Unit(h)
	if u <= 0 {
		u = 1e-12
	}
	return -math.Log(u) * 0.12
}

// Traceroute issues one traceroute from the VM to dst with the fault clock
// at zero.
func (p *Prober) Traceroute(ref VMRef, dst netblock.IP) (Trace, error) {
	tr, _, err := p.TracerouteAt(ref, dst, 0)
	return tr, err
}

// TracerouteAt issues one traceroute at virtual time tSec and reports what
// the fault layer did to it: hop probes lost to bursty-loss windows or ICMP
// rate limiters, link-flap truncation, or a whole-region outage (the probe
// was never sent). Without an injector the trace is byte-identical to
// Traceroute's and the stats carry only the probe count.
//
// The trace's Hops is the call's only allocation: synthesis runs in pooled
// scratch and the result is copied out exactly sized, owned by the caller.
func (p *Prober) TracerouteAt(ref VMRef, dst netblock.IP, tSec float64) (Trace, AttemptStats, error) {
	vm, err := p.vm(ref)
	if err != nil {
		return Trace{}, AttemptStats{}, err
	}
	sc := p.tracers.Get().(*tracer)
	sc.target()
	var status Status
	var st AttemptStats
	sc.hops, status, st = p.synthesize(sc, sc.hops, vm, p.f.Dest(dst), tSec)
	tr := Trace{Src: ref, Dst: dst, Status: status, Hops: make([]Hop, len(sc.hops))}
	copy(tr.Hops, sc.hops)
	p.tracers.Put(sc)
	return tr, st, nil
}

// tracer is one goroutine's traceroute-synthesis scratch, holding one
// target at a time: the target's path and reply draws, which every attempt
// at the target shares, and two hop buffers, the attempt being synthesized
// (hops) and the best attempt kept for retry selection (best). Its contents
// are valid only until its next target; traces handed out copy the hops
// they keep.
type tracer struct {
	// path is the target's fault-free path, valid once traced is set. An
	// attempt refused by a region outage never traces, so a later attempt
	// at the same target may be the first to.
	path   route.Path
	traced bool
	// draws memoises the reply draws of path's hops, then of the
	// destination, filled lazily in that order: draws[i] belongs to
	// path.Hops[i] and draws[len(path.Hops)] to the destination. Every
	// attempt walks the path from its first hop, so the memo is always a
	// prefix of the path.
	draws []hopDraw
	hops  []Hop
	best  []Hop
}

// target points the scratch at a new target: its path and draws are
// computed afresh on first use.
func (sc *tracer) target() {
	sc.traced = false
	sc.draws = sc.draws[:0]
}

// hopDraw is a hop's reply to one target's probes as it leaves the router,
// before the fault layer has its say. None of it depends on the send time.
type hopDraw struct {
	rtt      float64 // base RTT plus queueing jitter
	responds bool    // the router answers the probe at all
	// loop marks the rare forwarding-loop artefact: the reply repeats the
	// hop before the previous one.
	loop bool
}

// drawHop draws path hop hi's reply to probes toward dst from vm; router
// owns the hop's interface. Only a hop that answers uses the hop hash, for
// its jitter and loop artefact, but the hash is drawn before the response
// all the same: the two hash chains are independent, so the CPU runs them
// side by side, and a fault-free traceroute measured slower when the hash
// waited on the response.
func (p *Prober) drawHop(hop route.HopTemplate, router *model.Router, dst netblock.IP, vm route.VM, hi int) hopDraw {
	h := p.hash(uint64(hop.Iface), uint64(dst), uint64(vm.Cloud)<<8|uint64(vm.Region), uint64(hi))
	if !p.responds(router, dst, vm, hi) {
		return hopDraw{}
	}
	return hopDraw{
		rtt:      hop.RTT + p.jitter(h),
		responds: true,
		loop:     hi > 2 && rng.Unit(rng.Mix64(h^0x2222)) < p.loopProb,
	}
}

// drawDst draws the destination's reply to probes from vm along path.
func (p *Prober) drawDst(path *route.Path, dst netblock.IP, vm route.VM) hopDraw {
	var dr hopDraw
	if path.DstIface != model.NoIface {
		dr.responds = p.responds(p.t.IfaceRouter(path.DstIface), dst, vm, 99)
	} else {
		dr.responds = rng.Unit(p.hash(uint64(dst), 0xdddd)) < 0.95
	}
	if dr.responds {
		dr.rtt = path.DstRTT + p.jitter(p.hash(uint64(dst), uint64(vm.Cloud), 0xeeee))
	}
	return dr
}

// flapped reports whether a link flap at virtual time tSec cuts path: the
// probe dies after the path's first FlapHops hops and the destination never
// answers. Fault windows are long relative to RTTs, so the whole path is
// evaluated at the send time.
func (p *Prober) flapped(path *route.Path, tSec float64) bool {
	return path.FlapLink != model.NoLink && !p.inj.LinkUp(path.FlapLink, tSec)
}

// synthesize runs one traceroute attempt at virtual time tSec toward the
// target sc holds (see tracer.target), from vm to its resolved destination
// d. It returns the attempt's hops, written over buf's backing array, with
// its termination status and fault stats. The target's first attempt that
// sends computes the path and draws the replies; later attempts re-evaluate
// only what the send time changes: the region outage, the link flap and
// the fault layer's reply verdicts. Once buf and sc have grown to the
// longest trace, an attempt allocates nothing.
func (p *Prober) synthesize(sc *tracer, buf []Hop, vm route.VM, d route.Dest, tSec float64) ([]Hop, Status, AttemptStats) {
	var st AttemptStats
	dst := d.IP
	hops := buf[:0]
	if !p.inj.RegionUp(vm.Cloud, vm.Region, tSec) {
		// The vantage region is down: nothing is sent. The attempt still
		// yields a well-formed (all-star) trace so exhausted retries leave a
		// replayable record in the campaign stream.
		st.Outage = true
		for i := 0; i < gapLimit; i++ {
			hops = append(hops, Hop{})
		}
		return hops, StatusGapLimit, st
	}
	path := &sc.path
	if !sc.traced {
		p.f.TraceInto(path, vm, d)
		sc.traced = true
	}
	pathHops, dstResponds := path.Hops, path.DstResponds
	if p.flapped(path, tSec) {
		st.Flapped = true
		pathHops, dstResponds = pathHops[:path.FlapHops], false
	}
	gap := 0

	for hi, hop := range pathHops {
		iface := &p.t.Ifaces[hop.Iface]
		router := &p.t.Routers[iface.Router]
		if hi == len(sc.draws) {
			sc.draws = append(sc.draws, p.drawHop(hop, router, dst, vm, hi))
		}
		dr := &sc.draws[hi]
		st.Sent++
		if !dr.responds {
			hops = append(hops, Hop{})
			gap++
			if gap >= gapLimit {
				return hops, StatusGapLimit, st
			}
			continue
		}
		// The router would answer; the fault layer may still eat the reply.
		if v := p.inj.ReplyVerdict(router.ID, dst, hopSalt(vm, uint64(hi)), tSec); v != faults.VerdictOK {
			if v == faults.VerdictLost {
				st.Lost++
			} else {
				st.RateLimited++
			}
			hops = append(hops, Hop{})
			gap++
			if gap >= gapLimit {
				return hops, StatusGapLimit, st
			}
			continue
		}
		gap = 0
		addr := iface.Addr
		// A few routers are configured to source ICMP from a default
		// interface: every reply carries the loopback, not the incoming
		// interface (the third-party-address artefact).
		if lb := p.replyAddr[router.ID]; lb != netblock.Zero {
			addr = lb
		}
		// Rare forwarding loop artefact: repeat an earlier hop.
		if dr.loop {
			prev := hops[len(hops)-2]
			if prev.Responsive() {
				hops = append(hops, Hop{Addr: prev.Addr, RTTms: dr.rtt})
				return hops, StatusLoop, st
			}
		}
		if repeatsEarlier(hops, addr) {
			hops = append(hops, Hop{Addr: addr, RTTms: dr.rtt})
			return hops, StatusLoop, st
		}
		hops = append(hops, Hop{Addr: addr, RTTms: dr.rtt})
	}

	// Destination.
	if dstResponds {
		st.Sent++
		if len(sc.draws) == len(path.Hops) {
			sc.draws = append(sc.draws, p.drawDst(path, dst, vm))
		}
		dr := &sc.draws[len(path.Hops)]
		responderOK := dr.responds
		if responderOK && path.DstIface != model.NoIface {
			switch p.inj.ReplyVerdict(p.t.IfaceRouter(path.DstIface).ID, dst, hopSalt(vm, 0xdd57), tSec) {
			case faults.VerdictLost:
				st.Lost++
				responderOK = false
			case faults.VerdictRateLimited:
				st.RateLimited++
				responderOK = false
			}
		}
		if responderOK {
			hops = append(hops, Hop{Addr: dst, RTTms: dr.rtt})
			return hops, StatusCompleted, st
		}
	}
	// Pad the trailing gap as scamper would before giving up.
	for i := 0; i < gapLimit-gap; i++ {
		hops = append(hops, Hop{})
	}
	return hops, StatusGapLimit, st
}

// repeatsEarlier reports whether a reply from addr closes an IP-level
// loop: addr's latest reply sits before the previous hop (a repeat of the
// immediately preceding hop is a benign double reply). Paths are a dozen
// hops long, so a backward scan beats any per-trace index.
func repeatsEarlier(hops []Hop, addr netblock.IP) bool {
	for i := len(hops) - 1; i >= 0; i-- {
		if hops[i].Addr == addr {
			return i < len(hops)-1
		}
	}
	return false
}

// hopSalt distinguishes fault draws for probes sharing a (router,
// destination) pair: the vantage and hop (or destination marker) feed in.
func hopSalt(vm route.VM, k uint64) uint64 {
	return uint64(vm.Cloud)<<40 | uint64(vm.Region)<<32 | k
}

// Ping sends n echo probes to dst and returns the minimum observed RTT.
// ok is false when the destination never answered.
func (p *Prober) Ping(ref VMRef, dst netblock.IP, n int) (float64, bool) {
	vm, err := p.vm(ref)
	if err != nil {
		return 0, false
	}
	info := p.pathInfo(vm, dst)
	if !info.ok {
		return 0, false
	}
	var respProb float64 = 0.95
	if info.iface != model.NoIface {
		respProb = p.t.ASes[p.t.IfaceRouter(info.iface).AS].RespProb
	}
	// Each interface carries a constant ICMP-generation offset (linecard
	// and slow-path differences): even co-located interfaces never measure
	// identically, which is what gives Fig. 4b's distribution its sub-2ms
	// body rather than a spike at zero.
	offset := rng.Unit(p.hash(uint64(dst), 0x0ff5e7)) * 0.9
	best := math.Inf(1)
	got := false
	for i := 0; i < n; i++ {
		h := p.hash(uint64(dst), uint64(vm.Cloud)<<8|uint64(vm.Region), 0x9999, uint64(i))
		if rng.Unit(h) >= respProb {
			continue
		}
		got = true
		if rtt := info.rtt + offset + p.jitter(rng.Mix64(h)); rtt < best {
			best = rtt
		}
	}
	if !got {
		return 0, false
	}
	return best, true
}

// ReachableFromVP probes dst from the public-Internet vantage point (the
// §5.1 reachability heuristic's probe). The responding network's filtering
// and responsiveness apply.
func (p *Prober) ReachableFromVP(dst netblock.IP) bool {
	ok, _ := p.f.ExternalReach(dst)
	if !ok {
		return false
	}
	// Three attempts; the responder answers each with its AS's probability.
	owner := p.t.AddrOwner(dst)
	respProb := 0.9
	if ifc, isIface := p.t.IfaceAt(dst); isIface {
		respProb = p.t.ASes[p.t.IfaceRouter(ifc).AS].RespProb
	} else if owner != model.NoAS {
		respProb = p.t.ASes[owner].RespProb
	}
	for i := 0; i < 3; i++ {
		if rng.Unit(p.hash(uint64(dst), 0x7777, uint64(i))) < respProb {
			return true
		}
	}
	return false
}
