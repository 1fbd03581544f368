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

	// inj, when non-nil, applies reply-level faults (rate limiting, bursty
	// loss) and region outages; the forwarder handles link flaps.
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

// SetFaults installs a fault injector on the prober AND its forwarder, so
// reply-level faults and link flaps share one timeline. A nil injector
// restores fault-free probing. Call before probing starts — the injector is
// read without synchronisation.
func (p *Prober) SetFaults(inj *faults.Injector) {
	p.inj = inj
	p.f.SetFaults(inj)
}

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

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (p *Prober) hash(parts ...uint64) uint64 {
	h := p.seed
	for _, v := range parts {
		h = mix64(h ^ v)
	}
	return h
}

func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// alwaysLoopback reports whether a router's ICMP replies are sourced from
// its loopback (a stable per-router behaviour, tabulated in replyAddr).
func (p *Prober) alwaysLoopback(r model.RouterID) bool {
	return unit(p.hash(uint64(r), 0x3333)) < p.thirdPartyFrac
}

// responds decides whether a router answers a given probe. The draw is
// deterministic per (router, destination, vantage, attempt) so campaigns are
// reproducible, while still varying across destinations like real ICMP
// generation does.
func (p *Prober) responds(r *model.Router, dst netblock.IP, vm route.VM, attempt int) bool {
	as := &p.t.ASes[r.AS]
	h := p.hash(uint64(r.ID), uint64(dst), uint64(vm.Cloud)<<16|uint64(vm.Region), uint64(attempt))
	return unit(h) < as.RespProb
}

// jitter returns a small positive queueing delay (ms).
func (p *Prober) jitter(h uint64) float64 {
	u := unit(h)
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
	var status Status
	var st AttemptStats
	sc.hops, status, st = p.synthesize(sc.hops, &sc.path, vm, p.f.Dest(dst), tSec)
	tr := Trace{Src: ref, Dst: dst, Status: status, Hops: make([]Hop, len(sc.hops))}
	copy(tr.Hops, sc.hops)
	p.tracers.Put(sc)
	return tr, st, nil
}

// tracer is one goroutine's traceroute-synthesis scratch: the forwarder
// path and two hop buffers, the attempt being synthesized (hops) and the
// best attempt kept for retry selection (best). Its contents are valid only
// until its next use; traces handed out copy the hops they keep.
type tracer struct {
	path route.Path
	hops []Hop
	best []Hop
}

// synthesize runs one traceroute attempt from vm to the resolved
// destination d at virtual time tSec. It returns the attempt's hops,
// written over buf's backing array, with its termination status and fault
// stats. path is the forwarder scratch. Once buf and path have grown to the
// longest trace, an attempt allocates nothing.
func (p *Prober) synthesize(buf []Hop, path *route.Path, vm route.VM, d route.Dest, tSec float64) ([]Hop, Status, AttemptStats) {
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
	p.f.TraceInto(path, vm, d, tSec)
	st.Flapped = path.Truncated
	gap := 0

	for hi, hop := range path.Hops {
		iface := &p.t.Ifaces[hop.Iface]
		router := &p.t.Routers[iface.Router]
		h := p.hash(uint64(hop.Iface), uint64(dst), uint64(vm.Cloud)<<8|uint64(vm.Region), uint64(hi))

		st.Sent++
		if !p.responds(router, dst, vm, hi) {
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
		if len(hops) > 2 && unit(mix64(h^0x2222)) < p.loopProb {
			prev := hops[len(hops)-2]
			if prev.Responsive() {
				hops = append(hops, Hop{Addr: prev.Addr, RTTms: hop.RTT + p.jitter(h)})
				return hops, StatusLoop, st
			}
		}
		if repeatsEarlier(hops, addr) {
			hops = append(hops, Hop{Addr: addr, RTTms: hop.RTT + p.jitter(h)})
			return hops, StatusLoop, st
		}
		hops = append(hops, Hop{Addr: addr, RTTms: hop.RTT + p.jitter(h)})
	}

	// Destination.
	if path.DstResponds {
		st.Sent++
		responderOK := true
		if path.DstIface != model.NoIface {
			router := p.t.IfaceRouter(path.DstIface)
			responderOK = p.responds(router, dst, vm, 99)
			if responderOK {
				switch p.inj.ReplyVerdict(router.ID, dst, hopSalt(vm, 0xdd57), tSec) {
				case faults.VerdictLost:
					st.Lost++
					responderOK = false
				case faults.VerdictRateLimited:
					st.RateLimited++
					responderOK = false
				}
			}
		} else {
			h := p.hash(uint64(dst), 0xdddd)
			responderOK = unit(h) < 0.95
		}
		if responderOK {
			h := p.hash(uint64(dst), uint64(vm.Cloud), 0xeeee)
			hops = append(hops, Hop{Addr: dst, RTTms: path.DstRTT + p.jitter(h)})
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
	offset := unit(p.hash(uint64(dst), 0x0ff5e7)) * 0.9
	best := math.Inf(1)
	got := false
	for i := 0; i < n; i++ {
		h := p.hash(uint64(dst), uint64(vm.Cloud)<<8|uint64(vm.Region), 0x9999, uint64(i))
		if unit(h) >= respProb {
			continue
		}
		got = true
		if rtt := info.rtt + offset + p.jitter(mix64(h)); rtt < best {
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
		if unit(p.hash(uint64(dst), 0x7777, uint64(i))) < respProb {
			return true
		}
	}
	return false
}
