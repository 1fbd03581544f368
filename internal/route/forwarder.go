// Package route implements the forwarding plane of the simulated Internet:
// valley-free AS-level routing, cloud egress selection with region affinity
// and ECMP over parallel links, and router-level path realisation.
//
// The probe engine (internal/probe) asks this package for the hop-by-hop
// path a packet takes; everything about replies (responsiveness, RTT jitter,
// IP-ID values) is layered on top by the prober.
package route

import (
	"sync/atomic"

	"cloudmap/internal/faults"
	"cloudmap/internal/geo"
	"cloudmap/internal/model"
	"cloudmap/internal/netblock"
)

// Forwarder computes paths over a topology. It is safe for concurrent use
// after construction as long as callers do not mutate the topology.
type Forwarder struct {
	t *model.Topology

	// announced maps prefixes visible in global BGP to their origin AS.
	announced *netblock.Trie

	// peeringsByPeer lists, per cloud, the peering instances toward each
	// peer AS, indexed by AS.
	peeringsByPeer [][][]model.PeeringID

	// coreIncoming is the canonical incoming interface of each router used
	// for intra-AS hops (the edge->core /31 address for core routers).
	coreIncoming []model.IfaceID

	// backboneIfaces lists each border router's backbone-facing interfaces
	// (candidate ABIs), indexed by router.
	backboneIfaces [][]model.IfaceID

	// linkOf maps an interconnection interface to its link(s). A VPI
	// exchange-port interface belongs to one link per cloud it reaches.
	linkOf map[model.IfaceID][]model.LinkID

	// asIndexes holds every AS index in order, so a one-AS path is a
	// subslice of it rather than a fresh allocation (see singleAS).
	asIndexes []model.ASIndex

	// egressMemo memoises egress decisions per (cloud, region, dstAS): a
	// dense table indexed by egressSlot, filled lazily and read without
	// locks. Two goroutines racing to fill one slot store equal choices,
	// since computeEgress depends on the slot's key only.
	egressMemo []atomic.Pointer[egressChoice]
	// regionBase[c] is the memo row of cloud c's region 0: clouds' regions
	// are numbered consecutively across the topology.
	regionBase []int

	// inj, when non-nil, injects link flaps into path computation (TraceAt).
	// All other fault dimensions are reply-level and live in the prober.
	inj *faults.Injector
}

type egressChoice struct {
	ok bool
	// asPath runs from the first-hop peer AS down to the destination AS.
	asPath []model.ASIndex
	// regionOnly restricts instance choice to peerings homed in the
	// probing region (private-VIF routes of unannounced clients).
	regionOnly bool
}

// NewForwarder builds routing state for a topology.
func NewForwarder(t *model.Topology) *Forwarder {
	f := &Forwarder{
		t:              t,
		announced:      netblock.NewTrie(),
		backboneIfaces: make([][]model.IfaceID, len(t.Routers)),
		linkOf:         make(map[model.IfaceID][]model.LinkID),
		coreIncoming:   make([]model.IfaceID, len(t.Routers)),
		asIndexes:      make([]model.ASIndex, len(t.ASes)),
		regionBase:     make([]int, len(t.Clouds)),
	}
	for i := range f.asIndexes {
		f.asIndexes[i] = model.ASIndex(i)
	}
	regions := 0
	for ci := range t.Clouds {
		f.regionBase[ci] = regions
		regions += len(t.Clouds[ci].Regions)
	}
	f.egressMemo = make([]atomic.Pointer[egressChoice], regions*len(t.ASes))

	// Global BGP view: announced prefixes only.
	for i := range t.ASes {
		as := &t.ASes[i]
		if as.AnnouncesService {
			for _, p := range as.ServicePrefixes {
				f.announced.Insert(p, int32(as.Index))
			}
		}
		if as.AnnouncesInfra {
			for _, p := range as.InfraPrefixes {
				f.announced.Insert(p, int32(as.Index))
			}
		}
	}

	f.peeringsByPeer = make([][][]model.PeeringID, len(t.Clouds))
	for ci := range t.Clouds {
		f.peeringsByPeer[ci] = make([][]model.PeeringID, len(t.ASes))
	}
	for i := range t.Peerings {
		p := &t.Peerings[i]
		f.peeringsByPeer[p.Cloud][p.Peer] = append(f.peeringsByPeer[p.Cloud][p.Peer], p.ID)
	}

	for i := range t.Links {
		l := &t.Links[i]
		f.linkOf[l.CloudIface] = append(f.linkOf[l.CloudIface], l.ID)
		f.linkOf[l.PeerIface] = append(f.linkOf[l.PeerIface], l.ID)
	}

	for ri := range t.Routers {
		r := &t.Routers[ri]
		for _, ifc := range r.Ifaces {
			iface := &t.Ifaces[ifc]
			if iface.Kind == model.IfBackbone {
				f.backboneIfaces[r.ID] = append(f.backboneIfaces[r.ID], ifc)
			}
			// Canonical incoming interface: the first internal, non-loopback
			// interface.
			if f.coreIncoming[ri] == 0 && iface.Kind == model.IfInternal {
				f.coreIncoming[ri] = ifc
			}
		}
		if f.coreIncoming[ri] == 0 && len(r.Ifaces) > 0 {
			f.coreIncoming[ri] = r.Ifaces[0]
		}
	}
	return f
}

// SetFaults installs a fault injector; forwarding consults it for link
// flaps. A nil injector restores fault-free forwarding. Call before probing
// starts — the injector is read without synchronisation.
func (f *Forwarder) SetFaults(inj *faults.Injector) { f.inj = inj }

// AnnouncedOrigin returns the BGP origin AS for an address, mimicking a
// longest-prefix lookup in the public table. ok is false for unannounced
// space.
func (f *Forwarder) AnnouncedOrigin(ip netblock.IP) (model.ASIndex, bool) {
	v, ok := f.announced.Lookup(ip)
	if !ok {
		return model.NoAS, false
	}
	return model.ASIndex(v), true
}

// LinkOf returns the first interconnection link an interface belongs to.
func (f *Forwarder) LinkOf(ifc model.IfaceID) (model.LinkID, bool) {
	ls, ok := f.linkOf[ifc]
	if !ok {
		return model.NoLink, false
	}
	return ls[0], true
}

// singleAS returns the one-element AS path [as] without allocating. The
// slice is shared and capacity-capped: callers must not write through it.
func (f *Forwarder) singleAS(as model.ASIndex) []model.ASIndex {
	return f.asIndexes[as : as+1 : as+1]
}

// linkForCloud returns the interface's link terminating at the given cloud.
func (f *Forwarder) linkForCloud(ifc model.IfaceID, cloud model.CloudID) (model.LinkID, bool) {
	for _, lid := range f.linkOf[ifc] {
		if f.t.Peerings[f.t.Links[lid].Peering].Cloud == cloud {
			return lid, true
		}
	}
	return model.NoLink, false
}

// hostExists decides deterministically whether a probed target host answers
// (drives completed-traceroute yield).
func (f *Forwarder) hostExists(ip netblock.IP) bool {
	h := mix64(uint64(ip) ^ f.t.Seed ^ 0x9e3779b97f4a7c15)
	return float64(h>>11)/(1<<53) < f.t.HostRespProb
}

// mix64 is SplitMix64's finaliser, used for cheap deterministic hashing.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// dstMetro returns the metro serving a destination address within an AS:
// service space is spread deterministically across the AS's metros by /24.
func (f *Forwarder) dstMetro(as *model.AS, ip netblock.IP) geo.MetroID {
	if len(as.Metros) == 1 {
		return as.Metros[0]
	}
	h := mix64(uint64(netblock.Slash24(ip).Addr))
	return as.Metros[h%uint64(len(as.Metros))]
}
