package route

import (
	"sync/atomic"

	"cloudmap/internal/geo"
	"cloudmap/internal/model"
	"cloudmap/internal/netblock"
	"cloudmap/internal/rng"
)

// Per-hop processing latencies (ms, round-trip contribution).
const (
	rttGateway          = 0.25
	rttBackbone         = 0.45
	rttHop              = 0.30
	rttFinal            = 0.15
	rttIntraFacilityHop = 0.05
)

// HopTemplate is one router on a path: the interface that would source the
// ICMP reply and the cumulative base RTT to it.
type HopTemplate struct {
	Iface model.IfaceID
	RTT   float64
}

// Path is the forwarding-plane route of a probe.
type Path struct {
	Hops []HopTemplate
	// DstIface is the interface holding the destination address, if the
	// destination is a router interface (expansion-probe targets often
	// are); NoIface for host targets.
	DstIface model.IfaceID
	// DstResponds indicates the destination itself would answer (host
	// exists, or the target is a responsive router interface). The probe
	// layer still applies per-AS responsiveness.
	DstResponds bool
	// DstAS is the AS owning the destination's router (or the address
	// owner), NoAS when unrouted.
	DstAS  model.ASIndex
	DstRTT float64
	// FlapLink is the interconnection link whose flap would cut the path,
	// or NoLink when the path crosses none. A flapped link drops the probe
	// at the cloud border: the path ends after its first FlapHops hops and
	// the destination never answers. The forwarding plane is fault-free;
	// the prober decides per send time whether the link is up.
	FlapLink model.LinkID
	FlapHops int
}

// VM identifies a probing VM: a cloud region.
type VM struct {
	Cloud  model.CloudID
	Region int
}

// Trace computes the path a probe from the VM to dst would take.
func (f *Forwarder) Trace(vm VM, dst netblock.IP) Path {
	return f.TraceAt(vm, dst, 0)
}

// Dest is a probe destination resolved against the topology: everything
// path computation needs about the target that does not depend on the
// vantage. Campaigns resolve each target once (Forwarder.Dest) and reuse it
// for every vantage and retry attempt.
type Dest struct {
	IP netblock.IP
	// Iface is the router interface holding IP (expansion targets often
	// are one), or NoIface.
	Iface model.IfaceID
	// Owner is the AS the address is delegated to, or NoAS for unrouted
	// space (private, shared, undelegated or IXP LAN addresses).
	Owner model.ASIndex
}

// Dest resolves dst for TraceInto. Private and shared space resolves to
// neither an interface nor an owner: such probes die at the gateways.
func (f *Forwarder) Dest(dst netblock.IP) Dest {
	d := Dest{IP: dst, Iface: model.NoIface, Owner: model.NoAS}
	if dst.IsPrivate() || dst.IsShared() {
		return d
	}
	if ifc, ok := f.t.IfaceAt(dst); ok {
		d.Iface = ifc
	}
	d.Owner = f.t.AddrOwner(dst)
	return d
}

// TraceAt computes the path of a probe sent at virtual time tSec. Paths do
// not depend on the send time: link flaps are applied by the prober, which
// cuts the path at FlapHops when FlapLink is down at tSec.
//
// The returned path owns freshly allocated hops; hot loops resolve the
// destination once and use TraceInto.
func (f *Forwarder) TraceAt(vm VM, dst netblock.IP, tSec float64) Path {
	p := Path{Hops: make([]HopTemplate, 0, typicalPathHops)}
	f.TraceInto(&p, vm, f.Dest(dst))
	return p
}

// typicalPathHops sizes TraceAt's hop slice so that most paths fit in one
// allocation: gateways, backbone, border and a short client descent.
const typicalPathHops = 16

// TraceInto is TraceAt for a resolved destination, writing into a
// caller-owned path: p is overwritten and its Hops backing array reused, so
// a goroutine that keeps one Path as scratch computes paths without
// allocating. The hops stay valid only until the next TraceInto on the same
// Path.
func (f *Forwarder) TraceInto(p *Path, vm VM, d Dest) {
	t := f.t
	c := &t.Clouds[vm.Cloud]
	reg := &c.Regions[vm.Region]
	srcMetro := reg.Metro
	dst, dstIfc, dstOwner := d.IP, d.Iface, d.Owner

	*p = Path{Hops: p.Hops[:0], DstIface: model.NoIface, DstAS: model.NoAS, FlapLink: model.NoLink}

	// First hops: the in-region gateways (private addresses).
	rtt := 0.0
	for _, gw := range reg.Gateways {
		rtt += rttGateway
		p.Hops = append(p.Hops, HopTemplate{Iface: f.coreIncoming[gw], RTT: rtt})
	}

	// Unrouted space dies at the gateways, except IXP LAN addresses: they
	// have no RIR delegation but are still routable across the exchange
	// when they sit on a link of this cloud.
	if dstOwner == model.NoAS {
		if dstIfc != model.NoIface {
			if _, onLink := f.linkForCloud(dstIfc, c.ID); onLink {
				dstOwner = t.IfaceAS(dstIfc)
			}
		}
		if dstOwner == model.NoAS {
			return
		}
	}

	// Regional backbone hop (public address).
	rtt += rttBackbone
	p.Hops = append(p.Hops, HopTemplate{Iface: f.coreIncoming[reg.Backbone], RTT: rtt})

	if t.IsCloudAS(c, dstOwner) {
		f.internalDelivery(p, rtt, c, srcMetro, dst, dstIfc)
		return
	}

	// Choose the egress interconnection: first the AS path (cached per
	// destination AS), then the peering instance (per-/24 multipath across
	// parallel interconnections), then the link (per-IP ECMP).
	choice := f.egress(vm, c, dstOwner, dst, dstIfc)
	if !choice.ok {
		return
	}
	pid, ok := f.chooseInstance(f.peeringsByPeer[c.ID][choice.asPath[0]], vm, choice.asPath[0], dst, choice.regionOnly)
	if !ok {
		return
	}
	peering := &t.Peerings[pid]
	link := f.pickLink(peering, dst)
	l := &t.Links[link]

	// Ride the private backbone to the egress region, then the facility.
	facMetro := t.Facilities[peering.Facility].Metro
	egr := &c.Regions[peering.RegionIdx]
	if egr.Metro != srcMetro {
		rtt += t.World.PropagationRTTms(srcMetro, egr.Metro) + rttBackbone
		p.Hops = append(p.Hops, HopTemplate{Iface: f.coreIncoming[egr.Backbone], RTT: rtt})
	}

	// Large facilities chain an aggregation border router before the
	// peering router (about half the paths), producing cloud->cloud border
	// adjacencies: the basis of the hybrid-interface heuristic (§5.1).
	rtt += t.World.PropagationRTTms(egr.Metro, facMetro) + rttHop
	facRouters := c.BorderRouters[peering.Facility]
	if len(facRouters) > 1 {
		h := rng.Mix64(uint64(l.CloudRouter)<<20 ^ uint64(peering.Peer))
		if h&1 == 0 {
			agg := facRouters[h%uint64(len(facRouters))]
			if agg != l.CloudRouter {
				p.Hops = append(p.Hops, HopTemplate{Iface: f.borderIncoming(agg, vm.Region), RTT: rtt})
				rtt += rttIntraFacilityHop
			}
		}
	}

	// Cloud border router: the ABI is the backbone-facing interface the
	// probe entered through, which depends on the source region. Border
	// links ride multi-chassis LAGs: per flow, the penultimate router can
	// be the peering router's MLAG sibling, so one CBI shows up behind
	// interfaces of several routers (this is what fuses the ICG of §7.4
	// into a giant component).
	pen := l.CloudRouter
	if len(facRouters) > 1 {
		h := rng.Mix64(uint64(dst) ^ uint64(l.ID)<<24 ^ 0xfab)
		if h%100 < 60 {
			alt := facRouters[h%uint64(len(facRouters))]
			if alt != pen {
				pen = alt
			}
		}
	}
	abi := f.borderIncoming(pen, vm.Region)
	p.Hops = append(p.Hops, HopTemplate{Iface: abi, RTT: rtt})

	// Virtual interconnections traverse a per-VIF gateway hop: the probe
	// crosses the cloud-side VIF interface dedicated to this customer.
	// These dedicated interfaces are the single-organisation candidate
	// ABIs that match none of §5.1's heuristics.
	if peering.Kind == model.PeeringVPI {
		rtt += rttIntraFacilityHop
		p.Hops = append(p.Hops, HopTemplate{Iface: l.CloudIface, RTT: rtt})
	}

	// A flapped interconnection would drop the probe at the cloud border,
	// ending the path with the hops already collected.
	p.FlapLink, p.FlapHops = link, len(p.Hops)

	// Cross the interconnection: the client border router replies with its
	// side of the link subnet (the CBI).
	rtt += l.RTTms
	if t.Ifaces[l.PeerIface].Addr == dst {
		// Probing the CBI address itself: the client router is the
		// destination (such traces are excluded by the pipeline).
		p.DstIface = l.PeerIface
		p.DstAS = t.Routers[l.PeerRouter].AS
		p.DstResponds = true
		p.DstRTT = rtt + rttFinal
		return
	}
	p.Hops = append(p.Hops, HopTemplate{Iface: l.PeerIface, RTT: rtt})

	f.clientDescend(p, rtt, l.PeerRouter, choice.asPath, dst, dstIfc)
}

// borderIncoming picks the backbone-facing interface of a border router that
// traffic from the given region enters through.
func (f *Forwarder) borderIncoming(router model.RouterID, region int) model.IfaceID {
	ups := f.backboneIfaces[router]
	if len(ups) == 0 {
		return f.coreIncoming[router]
	}
	h := rng.Mix64(uint64(router)<<8 | uint64(region))
	return ups[h%uint64(len(ups))]
}

// pickLink selects one of a peering's parallel links by flow hash (ECMP).
// For physical LAG bundles the hash keys on the destination's low octet
// (hardware hashing is dominated by the low address bits): round-1 probing,
// which only ever targets .1 addresses, exercises a single member per
// bundle, and it takes the expansion round's full last-octet sweep (§4.2)
// to reveal the parallel links. Virtual and public peerings multipath by
// whole address (separate BGP sessions, per-prefix selection).
func (f *Forwarder) pickLink(p *model.Peering, dst netblock.IP) model.LinkID {
	if len(p.Links) == 1 {
		return p.Links[0]
	}
	key := uint64(dst)
	if p.Kind == model.PeeringPrivatePhysical {
		key = uint64(dst & 0xff)
	}
	h := rng.Mix64(key ^ uint64(p.ID)<<32)
	return p.Links[h%uint64(len(p.Links))]
}

// internalDelivery handles targets inside the probing cloud itself. ifc is
// the interface holding dst, or NoIface.
func (f *Forwarder) internalDelivery(p *Path, rtt float64, c *model.Cloud, srcMetro geo.MetroID, dst netblock.IP, ifc model.IfaceID) {
	t := f.t
	if ifc == model.NoIface {
		// A host (or nothing) in the cloud's service space.
		p.DstAS = c.PrimaryAS()
		if f.hostExists(dst) {
			p.DstResponds = true
			p.DstRTT = rtt + rttFinal
		}
		return
	}
	router := t.IfaceRouter(ifc)
	rtt += t.World.PropagationRTTms(srcMetro, router.Metro) + rttHop
	if t.IsCloudAS(c, router.AS) {
		// A cloud router interface (backbone, border, VIF side of a link).
		p.DstIface = ifc
		p.DstAS = router.AS
		p.DstResponds = true
		p.DstRTT = rtt + rttFinal
		return
	}
	// A cloud-owned address living on a client router: the far side of a
	// cloud-allocated interconnection subnet. The probe crosses the link.
	link, ok := f.linkForCloud(ifc, c.ID)
	if !ok {
		return
	}
	l := &t.Links[link]
	abi := f.borderIncoming(l.CloudRouter, 0)
	p.Hops = append(p.Hops, HopTemplate{Iface: abi, RTT: rtt})
	p.FlapLink, p.FlapHops = link, len(p.Hops)
	rtt += l.RTTms
	p.DstIface = ifc
	p.DstAS = router.AS
	p.DstResponds = true
	p.DstRTT = rtt + rttFinal
}

// clientDescend realises the path beyond the cloud border: down the
// provider-to-customer chain to the destination AS, then to the destination
// metro and host (or interface). dstIfc is the interface holding dst, or
// NoIface.
func (f *Forwarder) clientDescend(p *Path, rtt float64, cur model.RouterID, asPath []model.ASIndex, dst netblock.IP, dstIfc model.IfaceID) {
	t := f.t
	curMetro := t.Routers[cur].Metro

	for i := 0; i+1 < len(asPath); i++ {
		a, next := asPath[i], asPath[i+1]
		rel, ok := t.RelLinkBetween(a, next)
		if !ok {
			return // structurally impossible; fail open with a truncated path
		}
		// The interface on the entered AS's side.
		inIface, inRouter := rel.BIface, rel.BRouter
		preRouter := rel.ARouter
		if rel.B != next {
			inIface, inRouter = rel.AIface, rel.ARouter
			preRouter = rel.BRouter
		}
		// Intra-AS hop to the link's near-side router, if it differs from
		// where we entered.
		if preRouter != cur {
			m := t.Routers[preRouter].Metro
			rtt += t.World.PropagationRTTms(curMetro, m) + rttHop
			p.Hops = append(p.Hops, HopTemplate{Iface: f.coreIncoming[preRouter], RTT: rtt})
			curMetro = m
		}
		rtt += rel.RTTms
		p.Hops = append(p.Hops, HopTemplate{Iface: inIface, RTT: rtt})
		cur = inRouter
		curMetro = t.Routers[cur].Metro
	}

	dstAS := asPath[len(asPath)-1]
	as := &t.ASes[dstAS]
	p.DstAS = dstAS

	// Interface target inside the destination AS (expansion probing).
	if dstIfc != model.NoIface && t.IfaceRouter(dstIfc).AS == dstAS {
		router := t.IfaceRouter(dstIfc)
		if router.ID != cur {
			rtt += t.World.PropagationRTTms(curMetro, router.Metro) + rttHop
		}
		p.DstIface = dstIfc
		p.DstResponds = true
		p.DstRTT = rtt + rttFinal
		return
	}

	// Host target: cross the destination metro's core router, then the
	// host.
	m := f.dstMetro(as, dst)
	core, ok := as.CoreByMetro[m]
	if ok && core != cur {
		rtt += t.World.PropagationRTTms(curMetro, m) + rttHop
		p.Hops = append(p.Hops, HopTemplate{Iface: f.coreIncoming[core], RTT: rtt})
	}
	if f.hostExists(dst) && f.inService(as, dst) {
		p.DstResponds = true
		p.DstRTT = rtt + rttFinal
	}
}

func (f *Forwarder) inService(as *model.AS, dst netblock.IP) bool {
	for _, pfx := range as.ServicePrefixes {
		if pfx.Contains(dst) {
			return true
		}
	}
	return false
}

// egress selects the interconnection a probe leaves the cloud through.
// dstIfc is the interface holding dst, or NoIface.
func (f *Forwarder) egress(vm VM, c *model.Cloud, dstOwner model.ASIndex, dst netblock.IP, dstIfc model.IfaceID) egressChoice {
	t := f.t

	// If the destination is an interface on one of this cloud's own
	// interconnection links, route through that peer directly: the /31 is
	// connected routing, not BGP.
	if dstIfc != model.NoIface {
		if link, ok := f.linkForCloud(dstIfc, c.ID); ok {
			peering := &t.Peerings[t.Links[link].Peering]
			return egressChoice{ok: true, asPath: f.singleAS(peering.Peer)}
		}
	}

	slot := f.egressSlot(vm, dstOwner)
	if choice := slot.Load(); choice != nil {
		return *choice
	}
	choice := f.computeEgress(vm, c, dstOwner, dst)
	slot.Store(&choice)
	return choice
}

// egressSlot returns the memo entry for egress from vm toward dstOwner.
func (f *Forwarder) egressSlot(vm VM, dstOwner model.ASIndex) *atomic.Pointer[egressChoice] {
	return &f.egressMemo[(f.regionBase[vm.Cloud]+vm.Region)*len(f.t.ASes)+int(dstOwner)]
}

// computeEgress decides egress from vm toward dstOwner. dst only seeds
// chooseInstance's per-/24 hash, and whether an instance exists does not
// depend on it, so the choice is a function of (cloud, region, dstOwner)
// and memoising it per that key is exact whichever destination fills it.
func (f *Forwarder) computeEgress(vm VM, c *model.Cloud, dstOwner model.ASIndex, dst netblock.IP) egressChoice {
	t := f.t
	announced := t.ASes[dstOwner].AnnouncesService || t.ASes[dstOwner].AnnouncesInfra

	// Direct peering with the destination AS.
	if direct := f.peeringsByPeer[c.ID][dstOwner]; len(direct) > 0 {
		// Unannounced clients reached over private VIFs are routable only
		// from the interconnection's home region; public-VIF routes are
		// re-advertised cloud-wide. Which style a client uses is a stable
		// property of the client.
		regionOnly := !announced && rng.Mix64(uint64(dstOwner)^0x9e37)&1 == 0
		if _, ok := f.chooseInstance(direct, vm, dstOwner, dst, regionOnly); ok {
			return egressChoice{ok: true, asPath: f.singleAS(dstOwner), regionOnly: regionOnly}
		}
		if !announced {
			return egressChoice{}
		}
	}
	if !announced {
		return egressChoice{}
	}

	// BFS up the provider chains from the destination until we meet an AS
	// the cloud peers with; the shallowest such AS wins (shortest AS path).
	type node struct {
		as    model.ASIndex
		depth int
	}
	parent := map[model.ASIndex]model.ASIndex{dstOwner: model.NoAS}
	queue := []node{{dstOwner, 0}}
	var bestAS model.ASIndex = model.NoAS
	bestDepth := -1
	for qi := 0; qi < len(queue); qi++ {
		n := queue[qi]
		if bestDepth >= 0 && n.depth > bestDepth {
			break
		}
		if len(f.peeringsByPeer[c.ID][n.as]) > 0 {
			if bestDepth < 0 || n.depth < bestDepth || (n.depth == bestDepth && n.as < bestAS) {
				bestAS, bestDepth = n.as, n.depth
			}
			continue
		}
		for _, prov := range t.ASes[n.as].Providers {
			if _, seen := parent[prov]; seen {
				continue
			}
			parent[prov] = n.as
			queue = append(queue, node{prov, n.depth + 1})
		}
	}
	if bestAS == model.NoAS {
		return egressChoice{}
	}
	// Reconstruct the down-path bestAS -> ... -> dstOwner.
	var asPath []model.ASIndex
	for cur := bestAS; cur != model.NoAS; cur = parent[cur] {
		asPath = append(asPath, cur)
	}
	if len(f.peeringsByPeer[c.ID][bestAS]) == 0 {
		return egressChoice{}
	}
	return egressChoice{ok: true, asPath: asPath}
}

// chooseInstance picks a peering instance toward a first-hop AS: prefer one
// homed in the probe's region (hot potato onto per-region links, multipath
// across parallel instances by destination /24), otherwise one of the few
// instances closest to the destination's home metro (cold potato).
// regionOnly restricts to the probe's region.
func (f *Forwarder) chooseInstance(cands []model.PeeringID, vm VM, dstOwner model.ASIndex, dst netblock.IP, regionOnly bool) (model.PeeringID, bool) {
	t := f.t
	if len(cands) == 0 {
		return model.NoPeering, false
	}
	h := rng.Mix64(uint64(netblock.Slash24(dst).Addr) ^ uint64(vm.Region)<<40 ^ uint64(dstOwner)<<8)
	// Hot potato: the (h mod n)-th of the n instances homed in the region.
	regional := 0
	for _, pid := range cands {
		if t.Peerings[pid].RegionIdx == vm.Region {
			regional++
		}
	}
	if regional > 0 {
		k := h % uint64(regional)
		for _, pid := range cands {
			if t.Peerings[pid].RegionIdx != vm.Region {
				continue
			}
			if k == 0 {
				return pid, true
			}
			k--
		}
	}
	if regionOnly {
		return model.NoPeering, false
	}
	// Cold potato: multipath over the three instances nearest the
	// destination's home metro.
	home := t.ASes[dstOwner].HomeMetro
	type cand struct {
		pid model.PeeringID
		d   float64
	}
	var buf [4]cand
	nearest := buf[:0]
	for _, pid := range cands {
		m := t.Facilities[t.Peerings[pid].Facility].Metro
		c := cand{pid: pid, d: t.World.DistanceKm(home, m)}
		nearest = append(nearest, c)
		for i := len(nearest) - 1; i > 0 && (nearest[i].d < nearest[i-1].d ||
			(nearest[i].d == nearest[i-1].d && nearest[i].pid < nearest[i-1].pid)); i-- {
			nearest[i], nearest[i-1] = nearest[i-1], nearest[i]
		}
		if len(nearest) > 3 {
			nearest = nearest[:3]
		}
	}
	return nearest[int(h%uint64(len(nearest)))].pid, true
}
